"""The soundness net of the trivial-domain decisions, each made from
the germs that ``_chosen_germs`` picks (see "The germ choice" in
``interval_continuity``).

* Passes with no walk: wherever the choice is ``()`` (rules R1, R2 and
  R3), a reference walk that pulls back and decides every probe, with no
  prune, stop or decision, holds.
* Germ decisions: on every probe of every walk that decides from the
  jump germs (``_decision`` with the chosen germs on a trivial domain:
  strong checks at a point and globally, weak checks at a point), the
  decision equals ``_holds_at`` / ``_holds_open`` on the whole preimage,
  except that a probe with an empty preimage passes, as the walk's
  empty-preimage rule passes it anyway; a failing decision carries the
  whole preimage.
* Ladders read as radii: at every radius of every ladder that a walk
  with chosen germs reads (strong walks with every germ, at the image of
  each point and at each global anchor; weak walks at each jump point p
  with the germ of p), the radius decision (``_fails_at`` on
  ``_ladder_windows``) equals ``_germs_admit`` on the built probe; on a
  weak walk no radius fails past a passing one; the walk reads the
  head, the failing radii and the tail; and it finds the first failure
  that a walk of the whole family finds.  The ladders are
  those of Trivial and ConnectedOpen codomains, on drawn maps into the
  line those of the five ball kinds, with their heads and tails, and on
  drawn maps into a segment those of the two trace kinds, whose home is
  the carrier's sheet: with ``SymmetricIntervals`` on a punctured
  segment, values and limits lie in other pieces of the home and at its
  punctures.

The net runs the rules on every domain scale a check can use, the map's
own and the trivial one, each through ``_domain_scale``, so that weak
checks on ConnectedOpen and end-class domains decide on their trivial
``weak_scale()``; it walks the reference on the scale itself, so a rule
that fired off a trivial domain, or a fold that changed a weak decision,
would meet a reference walk that fails.  Its cases are the seeded benchmark
pools and drawn small maps with jumps, degenerate breakpoint pieces,
constant sides, sides that cross to another codomain sheet at an equal
coordinate, isolated carrier points and punctured carriers, codomain
sheets that are the line, the line without one or two points, or a hull
of the image with open or closed ends, and the hand-made maps at the
end.  Each rule must fire, germ decisions must both pass and fail on
maps with a jump, and the ladder net must meet every case of a side's
threshold, so that the net is not vacuous.
"""

import dataclasses
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    _chosen_germs,
    _decision,
    _domain_scale,
    _fails_at,
    _first_failure,
    _germs_admit,
    _global_families,
    _holds_at,
    _holds_open,
    _ladder_probes,
    _ladder_windows,
    default_probe_points,
    iw_check_continuity,
    replay_interval_certificate,
)
from scaletop.interval_scales import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    PStructureIntervalScale,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    TruncatedBallScale,
)
from scaletop.intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _piece_holding,
    normalize,
    point_interval,
)
from scaletop.pwmaps import AffinePiece, Germ, PiecewiseAffineMap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import intervalgen  # noqa: E402


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def open_set(lo, hi) -> SheetSet:
    return SheetSet((LineSet.of(Interval(num(lo), num(hi), False, False)),))


# -- the reference walk -------------------------------------------------------------------


def ref_point_holds(m: IntervalScaledMap, dom_scale, mode, p: SheetPoint) -> bool:
    """Every probe of f(p) pulled back and decided."""
    y = m.pam.eval(p)
    probes = m.codomain_scale.iter_point_probes(y, critical=m.pam._codomain_criticals)
    return all(_holds_at(dom_scale, mode, p, m.pam.preimage(v)) for v in probes)


def ref_global_holds(m: IntervalScaledMap, dom_scale, mode) -> bool:
    """Every global probe pulled back and decided; an empty preimage
    passes vacuously."""
    probes = chain.from_iterable(family for _, family in _global_families(m))
    for v in probes:
        pre = m.pam.preimage(v)
        if not pre.is_empty and not _holds_open(dom_scale, mode, pre):
            return False
    return True


def passes_unwalked(m: IntervalScaledMap, dom_scale, mode, p: SheetPoint | None = None) -> bool:
    """Whether the germ choice is ``()``: a pass with no walk."""
    return _chosen_germs(m, dom_scale, mode, p) == ()


def rule(m: IntervalScaledMap, mode: ContinuityMode) -> str:
    """Which rule the jump germs fire by, for the tally."""
    if not m.pam._germs:
        return "R1"
    return "R3" if mode.locus == "global" else "R2"


def germ_walk_probes(m: IntervalScaledMap, mode: ContinuityMode, p: SheetPoint | None):
    """Every probe of the walk: the family of f(p), or every global probe."""
    if p is None:
        return chain.from_iterable(family for _, family in _global_families(m))
    return m.codomain_scale.iter_point_probes(m.pam.eval(p), critical=m.pam._codomain_criticals)


def germ_net(m: IntervalScaledMap, points, tally: Counter) -> None:
    """On a trivial domain, every probe of each strong walk (at every point
    of ``points`` and globally) and of each weak walk at a point: the
    germ decision against the decision on the whole preimage."""
    dom_scale = TrivialIntervalScale(m.pam.domain)
    jumps = "with jumps" if m.pam._germs else "continuous"
    walks = [(ContinuityMode("strong", "global", trivial_domain=True), None)]
    for p in points:
        for strength in ("strong", "weak"):
            walks.append((ContinuityMode(strength, "at-point", trivial_domain=True, at_point=p), p))
    for mode, p in walks:
        fails = _decision(m, dom_scale, mode, _chosen_germs(m, dom_scale, mode, p), p)
        for target in germ_walk_probes(m, mode, p):
            pre = m.pam._preimage(target)
            if p is None:
                whole = pre.is_empty or _holds_open(dom_scale, mode, pre)
            else:
                whole = _holds_at(dom_scale, mode, p, pre)
            got = fails(target)
            assert (got is None) == whole, (m, mode, target)
            assert got is None or got == pre
            tally[f"{mode.strength} {jumps}: {'pass' if whole else 'fail'}"] += 1


def net(m: IntervalScaledMap, points, tally: Counter) -> None:
    """Run the rules at every point of ``points`` and globally, in both
    strengths, with the map's domain scale and with the trivial one: fire
    each on the scale the check decides on (``_domain_scale``), and
    wherever one fires walk every probe on the scale itself, ``own``.  A
    rule fired on a weak scale other than ``own`` is tallied with its tag."""
    for trivial in (False, True):
        own = TrivialIntervalScale(m.pam.domain) if trivial else m.domain_scale
        for strength in ("strong", "weak"):
            modes = [(ContinuityMode(strength, "global", trivial_domain=trivial), None)]
            modes += [(ContinuityMode(strength, "at-point", trivial_domain=trivial, at_point=p), p)
                      for p in points]
            for mode, p in modes:
                dom_scale = _domain_scale(m, mode)
                if passes_unwalked(m, dom_scale, mode, p):
                    fired = rule(m, mode)
                    tally[fired if dom_scale == own else f"{fired} on {own.tag}"] += 1
                    if p is None:
                        assert ref_global_holds(m, own, mode), (m, mode)
                    else:
                        assert ref_point_holds(m, own, mode, p), (m, mode)


def assert_fired(tally: Counter, rules) -> None:
    missing = [key for key in rules if not tally[key]]
    assert not missing, (missing, tally)


GERM_OUTCOMES = tuple(
    f"{strength} with jumps: {outcome}" for strength in ("strong", "weak") for outcome in ("pass", "fail")
)


def side_case(ladder, sheet: int, limit: ExactNumber, approach: int) -> str:
    """Which case of a side's threshold a side of a germ meets on a ladder,
    named from the ladder's geometry, for the tally: H is the ladder's
    home set and P its piece holding the centre."""
    y, home = ladder.center, ladder.home
    if sheet != y.sheet:
        return "side on another sheet"
    if limit == y.x:
        return "limit at the centre"
    below = limit < y.x
    inward = approach > 0 if below else approach < 0
    how = "from the centre's side" if inward else "from the far side"
    piece = _piece_holding(home, y.x)
    if piece.contains(limit):
        return f"limit in P, {how}"
    if home.member(limit):
        return f"limit in another piece of H, {how}"
    if limit == (piece.lo if below else piece.hi):
        return f"limit at an open end of P, {how}"
    if any(limit in (other.lo, other.hi) for other in home.pieces):
        return f"limit at an open end of another piece of H, {how}"
    return "limit beyond H"


def ladder_walks(m: IntervalScaledMap, points):
    """``(germs, y, mode)`` for each walk with chosen germs that reads the
    ladder around y: strong walks at each point and at each global
    anchor, and weak walks at each jump point among ``points``."""
    dom_scale = TrivialIntervalScale(m.pam.domain)
    walks = []
    for p in points:
        for strength in ("strong", "weak"):
            mode = ContinuityMode(strength, "at-point", trivial_domain=True, at_point=p)
            walks.append((_chosen_germs(m, dom_scale, mode, p), m.pam.eval(p), mode))
    mode = ContinuityMode("strong", "global", trivial_domain=True)
    walks += [(_chosen_germs(m, dom_scale, mode), y, mode) for y in m.pam._global_anchors]
    return [walk for walk in walks if walk[0]]


def ladder_net(m: IntervalScaledMap, points, tally: Counter) -> None:
    """At every radius of each ladder that a walk with chosen germs reads
    (``ladder_walks``): the radius decision against ``_germs_admit`` on the
    built probe, and on a weak walk, whose one germ's window starts at 0,
    no failing radius past a passing one; the probes the walk reads
    against the head, the probes that fail and the tail; and the walk's
    first failure against that of a walk of the whole family."""
    scale = m.codomain_scale
    critical = m.pam._codomain_criticals
    dom_scale = TrivialIntervalScale(m.pam.domain)
    for germs, y, mode in ladder_walks(m, points):
        ladder = scale.ladder(y, critical)
        if ladder is None:
            return
        prune = mode.strength == "weak"
        choice = "one germ" if prune else "every germ"
        tally[f"ladder: {scale.tag}"] += 1
        tally.update(what for what, probes in (("head", ladder.head), ("tail", ladder.tail)) if probes)
        for value, sides in germs:
            if value.sheet != y.sheet:
                tally["value on another sheet"] += 1
            elif not ladder.home.member(value.x):
                tally["value outside H"] += 1
            else:
                if not _piece_holding(ladder.home, y.x).contains(value.x):
                    tally["value in another piece of H"] += 1
                tally.update(side_case(ladder, *side) for side in sides)
        windows = _ladder_windows(ladder, germs)
        read = list(ladder.head)
        ended = False
        for r in ladder.radii:
            probe = ladder.probe(r)
            admitted = _germs_admit(germs, probe)
            assert _fails_at(windows, r) != admitted, (m, y, r)
            tally[f"{choice}: radius {'passes' if admitted else 'fails'}"] += 1
            assert admitted or not ended, (m, y, r)
            if not admitted:
                read.append(probe)
            elif prune and not ended:
                ended = True
                tally["one germ: a radius lies past the window"] += 1
            for value, sides in germs:
                if probe.member(value):
                    for sheet, limit, approach in sides:
                        if sheet == y.sheet and abs(limit - y.x) == r:
                            tally[f"tie: {side_case(ladder, sheet, limit, approach)}"] += 1
        read += ladder.tail
        assert list(_ladder_probes(scale.ladder(y, critical), germs)) == read, (m, y, mode)
        fails = _decision(m, dom_scale, mode, germs, mode.at_point)
        walked = [
            _first_failure(((True, family),), fails, prune)
            for family in (scale.ladder(y, critical).probes(), _ladder_probes(scale.ladder(y, critical), germs))
        ]
        assert walked[0] == walked[1], (m, y, mode)
        tally[f"{choice}: the walk {'holds' if walked[0] is None else 'fails'}"] += 1


LADDER_CASES = (
    "value on another sheet", "value outside H", "side on another sheet",
    "limit at the centre", "limit beyond H",
    *(f"limit {where}, from the {side}" for where in ("in P", "at an open end of P")
      for side in ("centre's side", "far side")),
    *(f"{choice}: radius {outcome}" for choice in ("every germ", "one germ") for outcome in ("passes", "fails")),
    # A weak walk at a jump point into a Trivial codomain always fails: its
    # first radius is below the distance to the limit that jumps.
    "every germ: the walk holds", "every germ: the walk fails", "one germ: the walk fails",
    "one germ: a radius lies past the window",
    *(f"tie: limit {where}, from the {side}" for where, side in (
        ("in P", "centre's side"), ("in P", "far side"), ("at an open end of P", "centre's side"))),
)


# -- the seeded pools ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sound_passes_hold_on_every_probe_over_a_seeded_pool(seed):
    tally: Counter = Counter()
    for g in intervalgen.generate_maps(seed, 150):
        m = g.scaled
        net(m, default_probe_points(m), tally)
    assert_fired(tally, (
        "R1", "R2", "R3", *(f"R{n} on ConnectedOpen" for n in (1, 2, 3)),
        "R2 on IrrationalEnds", "R3 on IrrationalEnds",
    ))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_germ_decisions_match_the_whole_preimage_over_a_seeded_pool(seed):
    tally: Counter = Counter()
    for g in intervalgen.generate_maps(seed, 150):
        m = g.scaled
        germ_net(m, default_probe_points(m), tally)
    assert_fired(tally, GERM_OUTCOMES)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_ladder_decisions_match_the_germs_over_a_seeded_pool(seed):
    """The seeded codomain sheets are segments and the line, so every value
    and limit on the centre's sheet lies in P: the pools reach the cases
    inside P and on another sheet, and the drawn maps below the rest.
    The pools' ball codomains are Q_Oa and CQ_Oa, and their trace
    codomains lie on whole segments and the line, so each home is one
    piece."""
    tally: Counter = Counter()
    for g in intervalgen.generate_maps(seed, 150):
        m = g.scaled
        ladder_net(m, default_probe_points(m), tally)
    assert_fired(tally, (
        "value on another sheet", "side on another sheet", "limit at the centre",
        "limit in P, from the centre's side", "limit in P, from the far side",
        *(f"{choice}: radius {outcome}" for choice in ("every germ", "one germ") for outcome in ("passes", "fails")),
        "one germ: a radius lies past the window",
        "tie: limit in P, from the centre's side", "tie: limit in P, from the far side",
        "ladder: Trivial", "ladder: ConnectedOpen", "ladder: Q_Oa", "ladder: CQ_Oa", "head", "tail",
        "ladder: SymmetricIntervals", "ladder: TruncatedQ_a",
    ))


# -- drawn small maps ------------------------------------------------------------------------

GRID = tuple(num(Fraction(n, 2)) for n in range(-6, 7))
SLOPES = tuple(Fraction(s) for s in ("0", "0", "1", "-1", "1/2"))


DOMAIN_SHAPES = ("line", "segment", "two segments", "punctured", "isolated")
BOUNDED_SHAPES = ("segment", "two segments", "isolated")


@st.composite
def domains(draw, shapes=DOMAIN_SHAPES) -> Carrier:
    """One sheet: the line, a segment, two segments, the line without a
    point, or an isolated point beside a segment, of the ``shapes``."""
    a, b, c, d = sorted(draw(st.lists(st.sampled_from(GRID), min_size=4, max_size=4, unique=True)))
    shape = draw(st.sampled_from(shapes))
    if shape == "line":
        pieces = [Interval(None, None, False, False)]
    elif shape == "segment":
        pieces = [Interval(a, d, True, True)]
    elif shape == "two segments":
        pieces = [Interval(a, b, True, True), Interval(c, d, True, True)]
    elif shape == "punctured":
        pieces = [Interval(None, b, False, False), Interval(b, None, False, False)]
    else:
        pieces = [point_interval(a), Interval(b, d, True, True)]
    event(f"domain: {shape}")
    return Carrier.of(LineSet.of(*pieces))


@st.composite
def small_maps(draw, shapes=DOMAIN_SHAPES, sheets=None) -> PiecewiseAffineMap:
    """Each carrier piece, of a domain of the ``shapes``, cut at up to two
    grid points, where the point goes left, right or into a degenerate
    piece of its own.  A piece often starts where the last one ended, so
    continuous breakpoints, removable jumps and equal coordinates on
    another sheet all come up; the codomain is one or two sheets from
    ``codomain_sheets``, or with ``sheets`` one sheet that it draws
    around the image."""
    domain = draw(domains(shapes))
    n_out = 1 if sheets else draw(st.integers(1, 2))
    pieces = []
    for part in domain.sheets[0].pieces:
        cuts = [
            c for c in sorted(set(draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=3))))
            if part.contains(c) and c != part.lo and c != part.hi
        ]
        parts = []
        lo, lc = part.lo, part.lo_closed
        for c in cuts:
            how = draw(st.sampled_from(("left", "right", "point")))
            parts.append(Interval(lo, c, lc, how == "left"))
            if how == "point":
                parts.append(point_interval(c))
            lo, lc = c, how == "right"
        parts.append(Interval(lo, part.hi, lc, part.hi_closed))
        last = None
        for piece_part in parts:
            slope = draw(st.sampled_from(SLOPES))
            start = piece_part.lo
            if last is not None and start is not None and draw(st.integers(0, 2)) == 0:
                intercept = Fraction(last.value_at(start).a) - slope * Fraction(start.a)
            else:
                intercept = Fraction(draw(st.integers(-3, 3)), 2)
            out = draw(st.integers(0, n_out - 1))
            last = AffinePiece(0, piece_part, out, slope, intercept)
            pieces.append(last)
    codomain = Carrier(tuple(
        draw((sheets or codomain_sheets)(normalize(p.image_interval() for p in pieces if p.out_sheet == out)))
        for out in range(n_out)
    ))
    return PiecewiseAffineMap(domain, codomain, tuple(pieces))


@st.composite
def codomain_sheets(draw, image: LineSet) -> LineSet:
    """A codomain sheet that holds ``image``: the line, the line without
    one or two points, or the hull of the image, each finite end kept
    (open only where the image misses it) or moved out by 1/2, open or
    closed, without up to two points.  The points removed are open ends
    of the image's pieces, where limits sit, or grid points the image
    misses, so pieces with open ends, gaps and a punctured line arise."""
    shape = draw(st.sampled_from(("line", "punctured", "hull")))
    event(f"codomain sheet: {shape}")
    sheet = LineSet.full_line()
    if image.is_empty or shape == "line":
        return sheet
    if shape == "hull":
        first, last = image.pieces[0], image.pieces[-1]
        lo, lc = first.lo, False
        if lo is not None:
            if draw(st.booleans()):
                lo, lc = lo - num("1/2"), draw(st.booleans())
            else:
                lc = first.lo_closed or draw(st.booleans())
        hi, hc = last.hi, False
        if hi is not None:
            if draw(st.booleans()):
                hi, hc = hi + num("1/2"), draw(st.booleans())
            else:
                hc = last.hi_closed or draw(st.booleans())
        sheet = LineSet.of(Interval(lo, hi, lc, hc))
    ends = [e for e in image.finite_endpoints() if not image.member(e)]
    missed = [g for g in GRID if not image.member(g)]
    holes = [st.sampled_from(points) for points in (ends, missed) if points]
    if holes:
        for c in draw(st.lists(st.one_of(holes), min_size=shape == "punctured", max_size=2)):
            sheet = sheet.difference(LineSet.of(point_interval(c)))
    return sheet


def codomain_scales(codomain: Carrier) -> list:
    """Each catalog kind that takes the line, on the line, and the two
    kinds that take any carrier elsewhere; ``TruncatedQ_a`` needs a
    segment and is met in the seeded pools.  The ``PStructure`` table
    holds two grid values that pieces often take."""
    scales = [TrivialIntervalScale(codomain), ConnectedOpenScale(codomain)]
    if codomain.sheets == (LineSet.full_line(),):
        table = ((SheetPoint(0, num(0)), open_set(-1, 1)), (SheetPoint(0, num("1/2")), open_set(0, 3)))
        scales += [
            PStructureIntervalScale(codomain, table=table),
            BallSupersetScale(codomain, a=num("1/2")),
            BallSupersetScale(codomain, a=num("1/2"), closed_ball=False),
            BallScale(codomain, a=num("1/2")),
            BallScale(codomain, a=num("1/2"), strict=False),
            BoundedBallSupersetScale(codomain, a=num("1/2")),
            SymmetricIntervalScale(codomain, lo_amb=num(-2), hi_amb=num(2)),
            EndClassScale(codomain, mode="rational"),
            EndClassScale(codomain, mode="mixed", crossed=True),
        ]
    return scales


@st.composite
def scaled_maps(draw) -> IntervalScaledMap:
    pam = draw(small_maps())
    trivial = TrivialIntervalScale(pam.codomain)
    cod = draw(st.one_of(st.just(trivial), st.sampled_from(codomain_scales(pam.codomain))))
    dom = draw(st.sampled_from([TrivialIntervalScale(pam.domain), ConnectedOpenScale(pam.domain)]))
    event(f"codomain: {cod.tag}")
    event("continuous" if not pam._germs else "with jumps")
    return IntervalScaledMap(pam, dom, cod)


def drawn_points(m: IntervalScaledMap, x: ExactNumber) -> list[SheetPoint]:
    """Every default point, each jump point and a drawn point."""
    points = list(default_probe_points(m))
    points += sorted(m.pam._germs)
    if m.pam.domain.member(SheetPoint(0, x)):
        points.append(SheetPoint(0, x))
    return points


def test_sound_passes_hold_on_every_probe_over_drawn_maps():
    """The rules at every default point, at a drawn point and at each
    jump point, both strengths and both domain scales; a map out of the
    line is also run out of each end-class domain."""
    tally: Counter = Counter()
    end_classes = [EndClassScale(LINE, mode=mode, crossed=crossed) for mode, crossed in (
        ("rational", False), ("irrational", False), ("mixed", False), ("mixed", True))]

    @given(scaled_maps(), st.sampled_from(GRID))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def drawn(m, x):
        points = drawn_points(m, x)
        net(m, points, tally)
        if m.pam.domain == LINE:
            for dom in end_classes:
                net(dataclasses.replace(m, domain_scale=dom), points, tally)

    drawn()
    assert_fired(tally, ("R1", "R2", "R3", *(
        f"R{n} on {tag}" for n in (1, 2, 3) for tag in (
            "ConnectedOpen", "RationalEnds", "IrrationalEnds", "MixedRationalIrrational"))))


def test_germ_decisions_match_the_whole_preimage_over_drawn_maps():
    tally: Counter = Counter()

    @given(scaled_maps(), st.sampled_from(GRID))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def drawn(m, x):
        germ_net(m, drawn_points(m, x), tally)

    drawn()
    assert_fired(tally, GERM_OUTCOMES)


def test_ladder_decisions_match_the_germs_over_drawn_maps():
    """Between trivial scales, so that every map reads ladders."""
    tally: Counter = Counter()

    @given(small_maps(), st.sampled_from(GRID))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def drawn(pam, x):
        m = IntervalScaledMap(pam, TrivialIntervalScale(pam.domain), TrivialIntervalScale(pam.codomain))
        ladder_net(m, drawn_points(m, x), tally)

    drawn()
    assert_fired(tally, LADDER_CASES)


BALL_TAGS = ("Q_a", "Q_Oa", "CQ_a", "CQ_Oa", "BQ_Oa")


def ball_scales(a: ExactNumber) -> list:
    """The five ball kinds on the line, with radius ``a``."""
    return [
        BallSupersetScale(LINE, a=a),
        BallSupersetScale(LINE, a=a, closed_ball=False),
        BallScale(LINE, a=a),
        BallScale(LINE, a=a, strict=False),
        BoundedBallSupersetScale(LINE, a=a),
    ]


def test_ball_ladder_decisions_match_the_germs_over_drawn_full_line_maps():
    """Drawn maps sent into the line, into each ball kind: their ladders
    have CQ_Oa's a-ball as head and the whole line as tail, and every
    value and limit lies in H, the line."""
    tally: Counter = Counter()

    @given(small_maps(), st.sampled_from(GRID), st.sampled_from(("1/4", "1/2", 1)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def drawn(pam, x, a):
        pieces = tuple(dataclasses.replace(piece, out_sheet=0) for piece in pam.pieces)
        pam = PiecewiseAffineMap(pam.domain, LINE, pieces)
        for cod in ball_scales(num(a)):
            m = IntervalScaledMap(pam, TrivialIntervalScale(pam.domain), cod)
            ladder_net(m, drawn_points(m, x), tally)

    drawn()
    assert_fired(tally, (
        *(f"ladder: {tag}" for tag in BALL_TAGS), "head", "tail",
        "limit at the centre", "limit in P, from the centre's side", "limit in P, from the far side",
        *(f"{choice}: radius {outcome}" for choice in ("every germ", "one germ") for outcome in ("passes", "fails")),
        *(f"{choice}: the walk {outcome}" for choice in ("every germ", "one germ") for outcome in ("holds", "fails")),
        "one germ: a radius lies past the window",
        "tie: limit in P, from the centre's side", "tie: limit in P, from the far side",
    ))


@st.composite
def segment_sheets(draw, image: LineSet) -> LineSet:
    """The closed segment around the bounded ``image``, each end moved out
    by 1/8 or 1/2."""
    lo = image.pieces[0].lo - num(draw(st.sampled_from(("1/8", "1/2"))))
    hi = image.pieces[-1].hi + num(draw(st.sampled_from(("1/8", "1/2"))))
    return LineSet.of(Interval(lo, hi, True, True))


@st.composite
def trace_maps(draw) -> IntervalScaledMap:
    """A drawn map out of a bounded domain into a segment around its image,
    between a trivial domain and a trace codomain: ``TruncatedQ_a`` on the
    segment, or ``SymmetricIntervals`` on the segment without one to three
    points (open ends of the image's pieces, where limits sit, or grid
    points the image misses), with each ambient bound at, beyond or
    inside a segment end, so that homes of several pieces, limits at a
    puncture and centres outside the ambient bounds come up."""
    pam = draw(small_maps(BOUNDED_SHAPES, segment_sheets))
    (seg,) = pam.codomain.sheets
    lo, hi = seg.pieces[0].lo, seg.pieces[0].hi
    if draw(st.booleans()):
        a = num(draw(st.sampled_from(("1/8", "1/4", "1/2"))))
        assume(lo + a * 2 < hi)
        cod = TruncatedBallScale(pam.codomain, a=a, lo=lo, hi=hi)
    else:
        image = normalize(p.image_interval() for p in pam.pieces)
        ends = [e for e in image.finite_endpoints() if not image.member(e)]
        missed = [g for g in GRID if lo < g < hi and not image.member(g)]
        holes = [st.sampled_from(points) for points in (ends, missed) if points]
        assume(holes)
        for c in draw(st.lists(st.one_of(holes), min_size=1, max_size=3)):
            seg = seg.difference(LineSet.of(point_interval(c)))
        pam = PiecewiseAffineMap(pam.domain, Carrier.of(seg), pam.pieces)
        lo_amb = lo + num(draw(st.sampled_from(("-1/2", 0, "1/2"))))
        hi_amb = hi - num(draw(st.sampled_from(("-1/2", 0, "1/2"))))
        assume(lo_amb < hi_amb)
        cod = SymmetricIntervalScale(pam.codomain, lo_amb=lo_amb, hi_amb=hi_amb)
    event(f"codomain: {cod.tag}, {len(pam.codomain.sheets[0].pieces)} pieces")
    return IntervalScaledMap(pam, TrivialIntervalScale(pam.domain), cod)


def test_trace_ladder_decisions_match_the_germs_over_drawn_maps():
    """Drawn maps into the two trace kinds, whose ladders cut each ball to
    the carrier's sheet: on a punctured segment that home has several
    pieces, so a value or a limit can lie in another piece than the
    centre, or at a puncture, the open end of a piece of the home, and
    be approached from either side."""
    tally: Counter = Counter()

    @given(trace_maps(), st.sampled_from(GRID))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def drawn(m, x):
        ladder_net(m, drawn_points(m, x), tally)

    drawn()
    assert_fired(tally, (
        "ladder: SymmetricIntervals", "ladder: TruncatedQ_a", "value in another piece of H",
        *(f"limit {where}, from the {side}" for where in (
            "in P", "in another piece of H", "at an open end of P", "at an open end of another piece of H")
          for side in ("centre's side", "far side")),
        *(f"{choice}: radius {outcome}" for choice in ("every germ", "one germ") for outcome in ("passes", "fails")),
        *(f"{choice}: the walk {outcome}" for choice in ("every germ", "one germ") for outcome in ("holds", "fails")),
        "one germ: a radius lies past the window",
        "tie: limit at an open end of P, from the far side", "tie: limit in another piece of H, from the far side",
    ))


# -- the jump points ----------------------------------------------------------------------------


def test_a_side_on_another_sheet_is_a_jump_at_an_equal_coordinate():
    """x on [0, 1] into sheet 0 and x on (1, 2] into sheet 1: the right
    limit at 1 has f(1)'s coordinate on the other sheet.  Nothing is
    decided there, and both strengths fail at 1 on the walk."""
    dom = Carrier.of(LineSet.of(Interval(num(0), num(2), True, True)))
    cod = Carrier(tuple(LineSet.full_line() for _ in range(2)))
    pam = PiecewiseAffineMap(dom, cod, (
        AffinePiece(0, Interval(num(0), num(1), True, True), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, Interval(num(1), num(2), False, True), 1, Fraction(1), Fraction(0)),
    ))
    assert set(pam._germs) == {SheetPoint(0, num(1))}
    m = IntervalScaledMap(pam, TrivialIntervalScale(dom), TrivialIntervalScale(cod))
    at = SheetPoint(0, num(1))
    for strength in ("strong", "weak"):
        mode = ContinuityMode(strength, "at-point", at_point=at)
        assert not passes_unwalked(m, m.domain_scale, mode, at)
        assert not iw_check_continuity(m, mode).holds
        assert not ref_point_holds(m, m.domain_scale, mode, at)


def test_isolated_points_and_removable_jumps_among_the_jump_points():
    """An isolated carrier point has no side, so no limit and no jump; a
    degenerate piece off the line of its neighbours is a jump point."""
    dom = Carrier.of(LineSet.of(point_interval(num(-1)), Interval(num(0), num(2), True, True)))
    line = Carrier.of(LineSet.full_line())
    pam = PiecewiseAffineMap(dom, line, (
        AffinePiece(0, point_interval(num(-1)), 0, Fraction(0), Fraction(5)),
        AffinePiece(0, Interval(num(0), num(1), True, False), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, point_interval(num(1)), 0, Fraction(0), Fraction(3)),
        AffinePiece(0, Interval(num(1), num(2), False, True), 0, Fraction(1), Fraction(0)),
    ))
    one = SheetPoint(0, num(1))
    assert set(pam._germs) == {one}
    m = IntervalScaledMap(pam, TrivialIntervalScale(dom), TrivialIntervalScale(line))
    for p in (SheetPoint(0, num(-1)), SheetPoint(0, num("1/2"))):
        mode = ContinuityMode("weak", "at-point", at_point=p)
        assert passes_unwalked(m, m.domain_scale, mode, p)
        assert ref_point_holds(m, m.domain_scale, mode, p)
    mode = ContinuityMode("weak", "at-point", at_point=one)
    assert not passes_unwalked(m, m.domain_scale, mode, one)
    assert not iw_check_continuity(m, mode).holds


# -- hand-made germs ------------------------------------------------------------------------

SEGMENT = Carrier.of(LineSet.of(Interval(num(0), num(2), True, True)))
LINE = Carrier.of(LineSet.full_line())
TWO_LINES = Carrier(tuple(LineSet.full_line() for _ in range(2)))
ONE = SheetPoint(0, num(1))


def segment_map(*pieces, domain=SEGMENT, codomain=LINE) -> IntervalScaledMap:
    """Pieces ``(lo, hi, lo_closed, hi_closed, slope, intercept[, out_sheet])``
    on sheet 0, between trivial scales."""
    pam = PiecewiseAffineMap(domain, codomain, tuple(
        AffinePiece(0, Interval(num(lo), num(hi), lc, hc), out[0] if out else 0,
                    Fraction(slope), Fraction(intercept))
        for lo, hi, lc, hc, slope, intercept, *out in pieces
    ))
    return IntervalScaledMap(pam, TrivialIntervalScale(domain), TrivialIntervalScale(codomain))


def union(*ends, sheets=1, on=0) -> SheetSet:
    """The open intervals ``(lo, hi)`` of ``ends`` on sheet ``on``."""
    line = LineSet.of(*(Interval(num(lo), num(hi), False, False) for lo, hi in ends))
    return SheetSet(tuple(line if i == on else LineSet.empty() for i in range(sheets)))


def decided(m: IntervalScaledMap, target: SheetSet, at: SheetPoint | None = None) -> dict:
    """Whether ``target`` passes, per strength, at ``at`` or globally: the
    germ decision, checked against the decision on the whole preimage."""
    dom_scale = TrivialIntervalScale(m.pam.domain)
    pre = m.pam._preimage(target)
    out = {}
    for strength in ("strong", "weak") if at is not None else ("strong",):
        if at is None:
            mode = ContinuityMode(strength, "global", trivial_domain=True)
            whole = pre.is_empty or _holds_open(dom_scale, mode, pre)
        else:
            mode = ContinuityMode(strength, "at-point", trivial_domain=True, at_point=at)
            whole = _holds_at(dom_scale, mode, at, pre)
        got = _decision(m, dom_scale, mode, _chosen_germs(m, dom_scale, mode, at), at)(target) is None
        assert got == whole, (strength, target)
        out[strength] = got
    return out


def test_a_constant_side_enters_a_probe_only_through_its_limit():
    """0 on [0, 1) and x on [1, 2]: the left side at 1 is constant at 0, so
    a probe that ends at 0 gets none of its values."""
    m = segment_map((0, 1, True, False, 0, 0), (1, 2, True, True, 1, 0))
    assert m.pam._germs == {ONE: Germ(ONE, ((0, num(0), 0),))}
    assert decided(m, union((-1, "3/2")), ONE) == {"strong": True, "weak": True}
    assert decided(m, union((0, "3/2")), ONE) == {"strong": False, "weak": False}
    assert not decided(m, union((0, "3/2")))["strong"]


def test_a_side_on_another_sheet_is_decided_on_its_own_sheet():
    """x on [0, 1] into sheet 0 and x on (1, 2] into sheet 1: the right side
    at 1 tends to 1 on sheet 1 from above, whatever sheet 0 holds there."""
    m = segment_map((0, 1, True, True, 1, 0), (1, 2, False, True, 1, 0, 1), codomain=TWO_LINES)
    assert m.pam._germs == {ONE: Germ(ONE, ((1, num(1), 1),))}
    around = union(("1/2", "3/2"), sheets=2)
    for other, passes in ((None, False), ((1, "3/2"), True), (("1/2", 1), False), (("1/2", "3/2"), True)):
        target = around if other is None else around.union(union(other, sheets=2, on=1))
        assert decided(m, target, ONE) == {"strong": passes, "weak": passes}, other
        assert decided(m, target)["strong"] == passes


@pytest.mark.parametrize("pieces, inside, outside", [
    # x on [0, 1], x + 1 on (1, 2]: the right side tends to 2 from above.
    (((0, 1, True, True, 1, 0), (1, 2, False, True, 1, 1)), [(2, 3)], [("3/2", 2)]),
    # x on [0, 1], 3 - x on (1, 2]: the right side tends to 2 from below.
    (((0, 1, True, True, 1, 0), (1, 2, False, True, -1, 3)), [("3/2", 2)], [(2, 3)]),
    # 2x on [0, 1), x on [1, 2]: the left side tends to 2 from below.
    (((0, 1, True, False, 2, 0), (1, 2, True, True, 1, 0)), [("7/4", 2)], [(2, 3)]),
])
def test_a_limit_at_an_open_probe_end_passes_only_from_inside(pieces, inside, outside):
    m = segment_map(*pieces)
    assert list(m.pam._germs) == [ONE]
    for ends, passes in ((inside, True), (outside, False)):
        target = union(("1/2", "5/4"), *ends)
        assert decided(m, target, ONE) == {"strong": passes, "weak": passes}, ends
        assert decided(m, target)["strong"] == passes


def test_an_isolated_carrier_point_has_no_germ():
    """{-1} u [0, 2] with f(-1) = 5: the isolated point is relatively open,
    so every probe around 5 passes there, and only the jump at 1 is
    decided."""
    domain = Carrier.of(LineSet.of(point_interval(num(-1)), Interval(num(0), num(2), True, True)))
    m = segment_map((-1, -1, True, True, 0, 5), (0, 1, True, False, 1, 0),
                    (1, 1, True, True, 0, 3), (1, 2, False, True, 1, 0), domain=domain)
    assert list(m.pam._germs) == [ONE]
    isolated = SheetPoint(0, num(-1))
    assert decided(m, union((4, 6)), isolated) == {"strong": True, "weak": True}
    assert decided(m, union((4, 6)))["strong"]
    assert not decided(m, union(("5/2", "7/2")))["strong"]


def weak_global(m: IntervalScaledMap):
    mode = ContinuityMode("weak", "global", trivial_domain=True)
    return mode, passes_unwalked(m, TrivialIntervalScale(m.pam.domain), mode), iw_check_continuity(m, mode)


def test_r3_fires_only_where_a_piece_reaches_every_jump_value():
    """A jump value that no piece reaches: R3 stays off and the walk fails,
    with a certificate that replays.  One that a piece reaches only in
    the closure of its image: R3 fires and the reference walk holds."""
    unreached = segment_map((0, 1, True, False, 1, 0), (1, 1, True, True, 0, 5), (1, 2, False, True, 1, 0))
    mode, fired, verdict = weak_global(unreached)
    assert not fired and not unreached.pam._jump_values_reached and not verdict.holds
    assert replay_interval_certificate(unreached, mode, verdict.certificate)
    closure = segment_map((0, 1, True, False, 1, 3), (1, 1, True, True, 0, 4), (1, 2, False, True, 1, -10))
    mode, fired, verdict = weak_global(closure)
    assert fired and verdict.holds
    assert ref_global_holds(closure, TrivialIntervalScale(SEGMENT), mode)


def test_r3_asks_for_a_piece_that_is_not_a_point_on_the_same_sheet():
    """f(1) = 1/2 on sheet 0, reached at that coordinate only by pieces into
    sheet 1: R3 stays off and the walk fails.  With f(-1) = f(1) = 3, the
    only piece that reaches 3 is the isolated point: R3 stays off, yet
    the walk passes, since -1 is relatively interior to every preimage
    that holds 1."""
    sheets = segment_map((0, 1, True, False, 1, 0, 1), (1, 1, True, True, 0, "1/2"),
                         (1, 2, False, True, 1, 0, 1), codomain=TWO_LINES)
    mode, fired, verdict = weak_global(sheets)
    assert not fired and not verdict.holds
    assert replay_interval_certificate(sheets, mode, verdict.certificate)
    domain = Carrier.of(LineSet.of(point_interval(num(-1)), Interval(num(0), num(2), True, True)))
    isolated = segment_map((-1, -1, True, True, 0, 3), (0, 1, True, False, 1, 0),
                           (1, 1, True, True, 0, 3), (1, 2, False, True, 1, 0), domain=domain)
    mode, fired, verdict = weak_global(isolated)
    assert not fired and verdict.holds
