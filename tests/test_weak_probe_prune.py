"""Weak interval checks skip the probes that contain one they passed,
and end a ``Ladder`` at its first probe of index 1 or more that they
pass or skip.

* Pruned checks give the verdicts and certificates of a reference walk
  that pulls back and decides every probe: weak at-point, local and
  global modes on generated maps, on maps into and out of the non-nested
  ``EndClassScale`` families, and on a guard map where a global prune on
  a domain scale whose witness search is not exact would move the
  certificate.
* The stop decides exactly the probes that the prune without it decided,
  in the same order, on generated and end-class maps and on maps out of
  every domain kind whose ``weak_scale()`` is trivial, where the other
  walk decides on the kind's own scale; on a non-nested family with a
  repeated probe, a stop would not.
* A passing weak at-point check takes at most two probes from its
  family, and on a domain that pulls probes back it pulls back at most
  two; the strong check at the same point pulls back every probe there.
  On a trivial domain, and for a weak check on a ConnectedOpen one, a
  check decides from the jump germs and pulls back only a failing probe:
  at a point that is no jump point the weak check walks nothing and the
  strong check decides the whole carrier alone, since no radius of its
  ladder fails.  A passing weak global check on a trivial domain takes
  at most two probes from each anchor's family.

Every check gives the verdict and certificate of the walk that pulls
back every probe it decides.  The counts and the stop are measured on
that walk (``walk``), whatever germs ``iw_check_continuity`` would
choose: it decides most of these maps from their jump germs, where it
reads a ladder as radii and may build no probe at all (see
``tests/test_sound_passes.py``).
"""

import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from scaletop import interval_continuity
from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    IntervalVerdict,
    _domain_scale,
    _global_families,
    _holds_at,
    _holds_open,
    _walk,
    codomain_critical_coords,
    default_probe_points,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import (
    BallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    IntervalScale,
    Ladder,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    full_line_carrier,
    segment_carrier,
)
from scaletop.intervals import Interval, LineSet, SheetPoint, SheetSet
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import intervalgen  # noqa: E402


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def open_set(lo, hi, hi_closed=False) -> SheetSet:
    return SheetSet((LineSet.of(Interval(num(lo), num(hi), False, hi_closed)),))


# -- the reference walks ----------------------------------------------------------------


def global_probes(m: IntervalScaledMap):
    """The global probe families, one after another."""
    return chain.from_iterable(family for _, family in _global_families(m))


def ref_at_point(m, dom_scale, mode, p, prune: bool = False) -> dict | None:
    """With ``prune``, skip the probes containing the last one passed."""
    criticals = codomain_critical_coords(m)
    passed = None
    for target in m.codomain_scale.iter_point_probes(m.pam.eval(p), critical=criticals):
        if prune and passed is not None and passed.issubset(target):
            continue
        pre = m.pam._preimage(target)
        if not _holds_at(dom_scale, mode, p, pre):
            return {"point": p, "target": target, "preimage": pre}
        passed = target
    return None


def ref_global(m, dom_scale, mode, prune: bool = False) -> dict | None:
    """With ``prune``, skip the probes containing the last one passed on a
    nonempty preimage whatever the domain scale."""
    passed = None
    for target in global_probes(m):
        if prune and passed is not None and passed.issubset(target):
            continue
        pre = m.pam._preimage(target)
        if pre.is_empty:
            continue
        if not _holds_open(dom_scale, mode, pre):
            return {"r_open": target, "preimage": pre}
        passed = target
    return None


def ref_check(m: IntervalScaledMap, mode: ContinuityMode, prune: bool = False) -> IntervalVerdict:
    """Every probe decided on the kind's own domain scale (the trivial one
    for ``mode.trivial_domain``), not on the ``weak_scale()`` the checker
    decides on; with ``prune``, the weak prune without the stop: skips at
    every point, and globally only where the weak scale is trivial, which
    is where ``_holds_open`` on the kind's own scale is exact."""
    dom_scale = TrivialIntervalScale(m.pam.domain) if mode.trivial_domain else m.domain_scale
    prune = prune and mode.strength == "weak"
    if mode.locus == "at-point":
        cert = ref_at_point(m, dom_scale, mode, mode.at_point, prune)
    elif mode.locus == "local":
        checks = (ref_at_point(m, dom_scale, mode, p, prune) for p in default_probe_points(m))
        cert = next(filter(None, checks), None)
    else:
        cert = ref_global(m, dom_scale, mode, prune and isinstance(dom_scale.weak_scale(), TrivialIntervalScale))
    return IntervalVerdict(cert is None, mode, cert)


def walk(m: IntervalScaledMap, mode: ContinuityMode) -> IntervalVerdict:
    """The probe walk of ``iw_check_continuity`` with no germs chosen, so
    that it pulls back every probe it decides: ``_walk`` globally, or at
    each point in turn."""
    dom_scale = _domain_scale(m, mode)
    if mode.locus == "global":
        failure = _walk(m, dom_scale, mode, None)
        cert = None if failure is None else {"r_open": failure[0], "preimage": failure[1]}
        return IntervalVerdict(cert is None, mode, cert)
    points = [mode.at_point] if mode.locus == "at-point" else default_probe_points(m)
    for p in points:
        failure = _walk(m, dom_scale, mode, None, p, m.pam.eval(p))
        if failure is not None:
            cert = {"point": p, "target": failure[0], "preimage": failure[1]}
            return IntervalVerdict(False, mode, cert)
    return IntervalVerdict(True, mode, None)


def weak_modes(m: IntervalScaledMap) -> list[ContinuityMode]:
    modes = [
        ContinuityMode("weak", locus, trivial_domain=trivial)
        for locus in ("local", "global")
        for trivial in (False, True)
    ]
    for p in default_probe_points(m):
        for trivial in (False, True):
            modes.append(ContinuityMode("weak", "at-point", trivial_domain=trivial, at_point=p))
    return modes


def assert_matches_reference(m: IntervalScaledMap) -> int:
    """Every weak check of m agrees with the reference; returns how many fail."""
    failing = 0
    for mode in weak_modes(m):
        verdict = iw_check_continuity(m, mode)
        assert verdict == ref_check(m, mode), (mode, verdict.certificate)
        failing += not verdict.holds
    return failing


# -- generated maps --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5])
def test_pruned_weak_checks_match_the_reference_walk(seed):
    failing = sum(assert_matches_reference(g.scaled) for g in intervalgen.generate_maps(seed, 24))
    assert failing


@pytest.mark.parametrize("seed", [0, 5])
def test_every_check_gives_the_verdict_and_certificate_of_its_walk(seed):
    """Where the limits prove a pass the check builds no probe, and where
    it decides from the germs it pulls back only a failing probe; every
    verdict and certificate is still that of the walk that pulls every
    probe back, in all six modes."""
    for g in intervalgen.generate_maps(seed, 24):
        m = g.scaled
        modes = [ContinuityMode("strong", mode.locus, mode.trivial_domain, mode.at_point)
                 for mode in weak_modes(m)]
        for mode in modes + weak_modes(m):
            assert iw_check_continuity(m, mode) == walk(m, mode), mode


# -- the non-nested end-class families ---------------------------------------------------


def bent_map() -> PiecewiseAffineMap:
    """x on (-inf, 0], 2x on (0, 1], x + 3 on (1, inf): one jump at 1."""
    line = full_line_carrier()
    return PiecewiseAffineMap(line, line, (
        AffinePiece(0, Interval(None, num(0), False, True), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, Interval(num(0), num(1), False, True), 0, Fraction(2), Fraction(0)),
        AffinePiece(0, Interval(num(1), None, False, False), 0, Fraction(1), Fraction(3)),
    ))


SPLITS = ("-33/7", "37/7", 7, "35/3")


def split_identity(splits=SPLITS) -> PiecewiseAffineMap:
    """The identity on the line, in pieces split at ``splits``, so these
    are the codomain's critical coordinates."""
    line = full_line_carrier()
    ends = [None, *map(num, splits), None]
    return PiecewiseAffineMap(line, line, tuple(
        AffinePiece(0, Interval(lo, hi, False, hi is not None), 0, Fraction(1), Fraction(0))
        for lo, hi in zip(ends, ends[1:])
    ))


END_CLASS_PAIRS = [
    ("rational", False, "irrational", False),
    ("irrational", False, "rational", False),
    ("mixed", False, "mixed", True),
    ("mixed", True, "rational", False),
]


def end_class_maps(dom_mode, dom_crossed, cod_mode, cod_crossed) -> list[IntervalScaledMap]:
    line = full_line_carrier()
    dom = EndClassScale(line, mode=dom_mode, crossed=dom_crossed)
    cod = EndClassScale(line, mode=cod_mode, crossed=cod_crossed)
    return [
        IntervalScaledMap(pam, *scales)
        for pam in (bent_map(), split_identity())
        for scales in ((dom, cod), (TrivialIntervalScale(line), cod), (dom, TrivialIntervalScale(line)))
    ]


@pytest.mark.parametrize("dom_mode, dom_crossed, cod_mode, cod_crossed", END_CLASS_PAIRS)
def test_end_class_scales_match_the_reference_walk(dom_mode, dom_crossed, cod_mode, cod_crossed):
    for m in end_class_maps(dom_mode, dom_crossed, cod_mode, cod_crossed):
        assert_matches_reference(m)


@pytest.mark.parametrize("trivial", [False, True])
def test_a_non_nested_end_class_family_matches_the_reference_walk(trivial):
    """At 5/4 the rational-end probes are not a chain: (-4, 5) follows
    (-9/2, 9/2), so a check passing the first still decides the second."""
    line = full_line_carrier()
    m = IntervalScaledMap(split_identity(), EndClassScale(line, mode="rational"),
                          EndClassScale(line, mode="rational"))
    at = SheetPoint(0, num("5/4"))
    probes = list(m.codomain_scale.iter_point_probes(at, codomain_critical_coords(m)))
    pairs = list(zip(probes, probes[1:]))
    assert (open_set("-9/2", "9/2"), open_set(-4, 5)) in pairs
    mode = ContinuityMode("weak", "at-point", trivial_domain=trivial, at_point=at)
    assert iw_check_continuity(m, mode) == ref_check(m, mode)


# -- the guard: no global prune where the witness search is not exact ---------------------


def symmetric_guard_map() -> IntervalScaledMap:
    """The identity on [0, 10], a ``SymmetricIntervals`` domain with ambient
    [0, 1], a trivial codomain, and declared probes (1/4, 1/2), (1/5, 9)."""
    seg = segment_carrier(num(0), num(10))
    identity = PiecewiseAffineMap(seg, seg, (
        AffinePiece(0, Interval(num(0), num(10), True, True), 0, Fraction(1), Fraction(0)),
    ))
    return IntervalScaledMap(
        identity,
        SymmetricIntervalScale(seg, lo_amb=num(0), hi_amb=num(1)),
        TrivialIntervalScale(seg),
        (open_set("1/4", "1/2"), open_set("1/5", 9)),
    )


def test_weak_global_checks_prune_only_on_exactly_searched_domains():
    m = symmetric_guard_map()
    mode = ContinuityMode("weak", "global")
    verdict = iw_check_continuity(m, mode)
    assert verdict == ref_check(m, mode)
    cert = verdict.certificate
    assert cert["r_open"] == open_set("1/5", 9)
    assert replay_interval_certificate(m, mode, cert)
    # The midpoint search misses the q-open (1/4, 7/20) inside the
    # preimage, so (1/5, 9) fails although it contains the passed
    # (1/4, 1/2); pruning it would move the certificate to a later probe.
    inside = open_set("1/4", "7/20")
    assert inside.issubset(cert["preimage"]) and m.domain_scale.is_q_open(inside)
    moved = ref_global(m, m.domain_scale, mode, prune=True)
    assert moved["r_open"] == open_set(9, 10, hi_closed=True)
    assert assert_matches_reference(m)
    assert m.domain_scale.weak_scale() is m.domain_scale


def exact_domain_maps() -> list[IntervalScaledMap]:
    """Maps out of a ConnectedOpen domain (on the line and on a segment)
    and out of each end-class domain, into a trivial codomain: their weak
    checks decide on the trivial scale, and ``ref_check`` prunes them on
    their own."""
    line = full_line_carrier()
    seg = segment_carrier(num(-6), num(12))
    on_segment = PiecewiseAffineMap(seg, seg, (
        AffinePiece(0, Interval(num(-6), num(1), True, True), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, Interval(num(1), num(12), False, True), 0, Fraction(1, 2), Fraction(6)),
    ))
    domains = [ConnectedOpenScale(line)] + [
        EndClassScale(line, mode=mode, crossed=crossed)
        for mode, crossed in (("rational", False), ("irrational", False),
                              ("mixed", False), ("mixed", True))
    ]
    maps = [
        IntervalScaledMap(pam, dom, TrivialIntervalScale(line))
        for pam in (bent_map(), split_identity())
        for dom in domains
    ]
    maps.append(IntervalScaledMap(on_segment, ConnectedOpenScale(seg), TrivialIntervalScale(seg)))
    assert all(isinstance(m.domain_scale.weak_scale(), TrivialIntervalScale) for m in maps)
    return maps


# -- pull-back counts ----------------------------------------------------------------------


def record_decisions(monkeypatch) -> list[SheetSet]:
    """Record every probe that a walk's decision (``_decision``) is asked
    about, in order."""
    decided = []
    original = interval_continuity._decision

    def recording(*args):
        fails = original(*args)

        def recorded(target):
            decided.append(target)
            return fails(target)

        return recorded

    monkeypatch.setattr(interval_continuity, "_decision", recording)
    return decided


def record_pullbacks(monkeypatch) -> list[SheetSet]:
    pulled = []
    original = PiecewiseAffineMap._preimage

    def recorded(self, s):
        pulled.append(s)
        return original(self, s)

    monkeypatch.setattr(PiecewiseAffineMap, "_preimage", recorded)
    return pulled


def far_jump_identity() -> PiecewiseAffineMap:
    """``split_identity``, but x + 100 past 40: one jump, at 40, beyond
    every radius of the ladder at 0."""
    line = full_line_carrier()
    pieces = split_identity((*SPLITS, 40)).pieces
    far = AffinePiece(0, pieces[-1].part, 0, Fraction(1), Fraction(100))
    return PiecewiseAffineMap(line, line, (*pieces[:-1], far))


def test_a_passing_weak_check_pulls_back_at_most_two_probes(monkeypatch):
    """Out of a Q_a domain, whose decisions pull every probe back, the weak
    check pulls back at most two probes and the strong check all of them,
    as the strong check out of a ConnectedOpen domain does.  Out of a
    trivial domain the checks choose the jump germs and pull back none,
    and so does the weak check out of a ConnectedOpen domain, which
    decides on the trivial scale: at 0, no jump point, the weak check
    walks nothing and the strong check decides only the whole carrier,
    since its ladder is read by radius and no radius fails.  The weak
    check at the jump point 40 decides the whole carrier and its first
    radius, which fails, and pulls back only that."""
    line = full_line_carrier()
    at = SheetPoint(0, num(0))
    pulled = record_pullbacks(monkeypatch)
    decided = record_decisions(monkeypatch)
    checked = {}
    domains = (BallSupersetScale(line, a=num("1/4")), ConnectedOpenScale(line), TrivialIntervalScale(line))
    for dom in domains:
        m = IntervalScaledMap(far_jump_identity(), dom, TrivialIntervalScale(line))
        for strength in ("weak", "strong"):
            pulled.clear()
            decided.clear()
            assert iw_check_continuity(m, ContinuityMode(strength, "at-point", at_point=at)).holds
            checked[dom.tag, strength] = (decided[:], pulled[:])
    probes = list(m.codomain_scale.iter_point_probes(m.pam.eval(at), codomain_critical_coords(m)))
    weak, strong = checked["Q_a", "weak"], checked["Q_a", "strong"]
    assert weak[1] == weak[0] and 1 <= len(weak[1]) <= 2
    assert strong[1] == strong[0] == probes and len(probes) > 2
    assert checked["ConnectedOpen", "strong"] == (probes, probes)
    assert checked["ConnectedOpen", "weak"] == checked["Trivial", "weak"] == ([], [])
    assert checked["Trivial", "strong"] == (probes[:1], [])
    jump = SheetPoint(0, num(40))
    pulled.clear()
    decided.clear()
    verdict = iw_check_continuity(m, ContinuityMode("weak", "at-point", at_point=jump))
    assert not verdict.holds and pulled == [verdict.certificate["target"]]
    probes = list(m.codomain_scale.iter_point_probes(m.pam.eval(jump), codomain_critical_coords(m)))
    assert decided == probes[:2] and pulled == probes[1:2]


def count_families(monkeypatch, cls) -> list[list[SheetSet]]:
    """Record, per family a walk takes from a ``cls`` scale, the probes
    taken: per call of ``Ladder.probes`` where ``cls`` has a ladder, else
    of ``cls.iter_point_probes``."""
    families = []
    owner, name = (Ladder, "probes") if cls.ladder is not IntervalScale.ladder else (cls, "iter_point_probes")
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        taken = []
        families.append(taken)
        for probe in original(*args, **kwargs):
            taken.append(probe)
            yield probe

    monkeypatch.setattr(owner, name, counted)
    return families


CODOMAINS = {
    "Trivial": lambda line: TrivialIntervalScale(line),
    "Q_a": lambda line: BallSupersetScale(line, a=num("1/4")),
}


@pytest.mark.parametrize("kind", sorted(CODOMAINS))
def test_a_passing_weak_check_takes_at_most_two_probes(monkeypatch, kind):
    line = full_line_carrier()
    cod = CODOMAINS[kind](line)
    m = IntervalScaledMap(split_identity(), TrivialIntervalScale(line), cod)
    at = SheetPoint(0, num(0))
    whole = list(cod.iter_point_probes(m.pam.eval(at), codomain_critical_coords(m)))
    families = count_families(monkeypatch, type(cod))
    assert walk(m, ContinuityMode("weak", "at-point", at_point=at)).holds
    assert [len(taken) for taken in families] == [2] and len(whole) > 2
    assert families[0] == whole[:2]


@pytest.mark.parametrize("kind", sorted(CODOMAINS))
def test_a_passing_weak_global_check_takes_at_most_two_probes_per_family(monkeypatch, kind):
    line = full_line_carrier()
    m = IntervalScaledMap(split_identity(), TrivialIntervalScale(line), CODOMAINS[kind](line))
    families = count_families(monkeypatch, type(m.codomain_scale))
    assert walk(m, ContinuityMode("weak", "global", trivial_domain=True)).holds
    assert len(families) > 1
    assert all(1 <= len(taken) <= 2 for taken in families), [len(t) for t in families]


def close_split_map() -> IntervalScaledMap:
    """The identity split at 2/7 and at distances 5957/16384, 1495/4096 and
    3105/8192 from it (within 5% of each other), from a trivial domain into
    the mixed end-class scale.  At 2/7 that family opens (7/64, 25/64),
    (7/64, 25/64), (1/8, 13/32): the third probe does not contain the
    first, so a stop at the repeat would leave it undecided."""
    line = full_line_carrier()
    splits = ("-2273/28672", "-8931/114688", "2/7", "38119/57344")
    return IntervalScaledMap(split_identity(splits), TrivialIntervalScale(line),
                             EndClassScale(line, mode="mixed"))


def test_the_stop_pulls_back_what_the_prune_pulled_back(monkeypatch):
    """Every probe the stop leaves untaken would have been skipped: each
    walk decides the probes, in order, that the prune without the stop
    pulls back and decides, and reaches its verdict.  On the non-nested
    end-class families a stop would leave probes undecided."""
    pulled = record_pullbacks(monkeypatch)
    decided = record_decisions(monkeypatch)
    generated = [g.scaled for g in intervalgen.generate_maps(0, 60)]
    end_class = [m for pair in END_CLASS_PAIRS for m in end_class_maps(*pair)]
    for m in generated + end_class + exact_domain_maps() + [close_split_map()]:
        for mode in weak_modes(m):
            decided.clear()
            verdict = walk(m, mode)
            stopped = decided[:]
            pulled.clear()
            assert verdict == ref_check(m, mode, prune=True), mode
            assert stopped == pulled, mode


def test_a_non_nested_family_is_walked_past_a_skipped_probe(monkeypatch):
    m = close_split_map()
    at = SheetPoint(0, num("2/7"))
    probes = list(m.codomain_scale.iter_point_probes(at, codomain_critical_coords(m)))
    assert probes[0] == probes[1] and not probes[0].issubset(probes[2])
    families = count_families(monkeypatch, EndClassScale)
    assert walk(m, ContinuityMode("weak", "at-point", at_point=at)).holds
    assert families == [probes]
