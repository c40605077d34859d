"""Weak interval checks skip the probes that contain one they passed.

* Pruned checks give the verdicts and certificates of a reference walk
  that pulls back and decides every probe: weak at-point, local and
  global modes on generated maps, on maps into and out of the non-nested
  ``EndClassScale`` families, and on a guard map where a global prune on
  a non-trivial domain scale would move the certificate.
* A passing weak at-point check with a trivial codomain pulls back at
  most two probes; the strong check at the same point pulls back every
  probe.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    IntervalVerdict,
    _domain_scale,
    _global_probes,
    _holds_at,
    _holds_open,
    codomain_critical_coords,
    default_probe_points,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import (
    EndClassScale,
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


# -- the reference walk: every probe pulled back and decided ---------------------------


def ref_at_point(m, dom_scale, mode, p) -> dict | None:
    criticals = codomain_critical_coords(m)
    for target in m.codomain_scale.iter_point_probes(m.pam.eval(p), critical=criticals):
        pre = m.pam._preimage(target)
        if not _holds_at(dom_scale, mode, p, pre):
            return {"point": p, "target": target, "preimage": pre}
    return None


def ref_global(m, dom_scale, mode, prune: bool = False) -> dict | None:
    """With ``prune``, skip the probes containing the last one passed on a
    nonempty preimage whatever the domain scale."""
    passed = None
    for target in _global_probes(m):
        if prune and passed is not None and passed.issubset(target):
            continue
        pre = m.pam._preimage(target)
        if pre.is_empty:
            continue
        if not _holds_open(dom_scale, mode, pre):
            return {"r_open": target, "preimage": pre}
        passed = target
    return None


def ref_check(m: IntervalScaledMap, mode: ContinuityMode) -> IntervalVerdict:
    dom_scale = _domain_scale(m, mode)
    if mode.locus == "at-point":
        cert = ref_at_point(m, dom_scale, mode, mode.at_point)
    elif mode.locus == "local":
        checks = (ref_at_point(m, dom_scale, mode, p) for p in default_probe_points(m))
        cert = next(filter(None, checks), None)
    else:
        cert = ref_global(m, dom_scale, mode)
    return IntervalVerdict(cert is None, mode, cert)


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


def split_identity() -> PiecewiseAffineMap:
    """The identity on the line, in pieces split at ``SPLITS``, so these
    are the codomain's critical coordinates."""
    line = full_line_carrier()
    ends = [None, *map(num, SPLITS), None]
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


@pytest.mark.parametrize("dom_mode, dom_crossed, cod_mode, cod_crossed", END_CLASS_PAIRS)
def test_end_class_scales_match_the_reference_walk(dom_mode, dom_crossed, cod_mode, cod_crossed):
    line = full_line_carrier()
    dom = EndClassScale(line, mode=dom_mode, crossed=dom_crossed)
    cod = EndClassScale(line, mode=cod_mode, crossed=cod_crossed)
    for pam in (bent_map(), split_identity()):
        for scales in ((dom, cod), (TrivialIntervalScale(line), cod), (dom, TrivialIntervalScale(line))):
            assert_matches_reference(IntervalScaledMap(pam, *scales))


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


# -- the guard: no global prune on a non-trivial domain ----------------------------------


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


def test_weak_global_checks_prune_only_on_trivial_domains():
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


# -- pull-back counts ----------------------------------------------------------------------


def test_a_passing_weak_check_pulls_back_at_most_two_probes(monkeypatch):
    line = full_line_carrier()
    m = IntervalScaledMap(split_identity(), TrivialIntervalScale(line), TrivialIntervalScale(line))
    at = SheetPoint(0, num(0))
    pulled = []
    original = PiecewiseAffineMap._preimage

    def counted(self, s):
        pulled.append(s)
        return original(self, s)

    monkeypatch.setattr(PiecewiseAffineMap, "_preimage", counted)
    assert iw_check_continuity(m, ContinuityMode("weak", "at-point", at_point=at)).holds
    assert 1 <= len(pulled) <= 2
    pulled.clear()
    assert iw_check_continuity(m, ContinuityMode("strong", "at-point", at_point=at)).holds
    probes = list(m.codomain_scale.iter_point_probes(m.pam.eval(at), codomain_critical_coords(m)))
    assert pulled == probes and len(probes) > 2
