"""The soundness net of the sound passes: wherever the jump points prove
a pass (``_sound_pass``, rules R1 and R2 of ``interval_continuity``), a
reference walk that pulls back and decides every probe, with no prune,
stop or decision, holds.

The net runs the rules on every domain scale a check can use, the map's
own and the trivial one, so a rule that fired off a trivial domain would
meet a reference walk that fails.  Its cases are the seeded benchmark
pools and drawn small maps with jumps, degenerate breakpoint pieces,
sides that cross to another codomain sheet at an equal coordinate,
isolated carrier points and punctured carriers.  Each rule must fire
somewhere in them, so that the net is not vacuous.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import (
    IntervalScaledMap,
    _global_families,
    _holds_at,
    _holds_open,
    _sound_pass,
    default_probe_points,
    iw_check_continuity,
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
)
from scaletop.intervals import Carrier, Interval, LineSet, SheetPoint, SheetSet, point_interval
from scaletop.pwmaps import AffinePiece, PiecewiseAffineMap

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


def rule(m: IntervalScaledMap) -> str:
    """Which rule the jump points fire by, for the tally."""
    return "R2" if m.pam._jumps else "R1"


def net(m: IntervalScaledMap, points, tally: Counter) -> None:
    """Run the rules at every point of ``points`` and globally, in both
    strengths, on the map's domain scale and on the trivial one; walk
    every probe wherever a rule fires."""
    for trivial in (False, True):
        dom_scale = TrivialIntervalScale(m.pam.domain) if trivial else m.domain_scale
        for strength in ("strong", "weak"):
            mode = ContinuityMode(strength, "global", trivial_domain=trivial)
            if _sound_pass(m, dom_scale, mode):
                tally[rule(m)] += 1
                assert ref_global_holds(m, dom_scale, mode), (m, mode)
            for p in points:
                mode = ContinuityMode(strength, "at-point", trivial_domain=trivial, at_point=p)
                if _sound_pass(m, dom_scale, mode, p):
                    tally[rule(m)] += 1
                    assert ref_point_holds(m, dom_scale, mode, p), (m, mode)


def assert_fired(tally: Counter, rules) -> None:
    assert all(tally[key] for key in rules), tally


# -- the seeded pools ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sound_passes_hold_on_every_probe_over_a_seeded_pool(seed):
    tally: Counter = Counter()
    for g in intervalgen.generate_maps(seed, 150):
        m = g.scaled
        net(m, default_probe_points(m), tally)
    assert_fired(tally, ("R1", "R2"))


# -- drawn small maps ------------------------------------------------------------------------

GRID = tuple(num(Fraction(n, 2)) for n in range(-6, 7))
SLOPES = tuple(Fraction(s) for s in ("0", "0", "1", "-1", "1/2"))


@st.composite
def domains(draw) -> Carrier:
    """One sheet: the line, a segment, two segments, the line without a
    point, or an isolated point beside a segment."""
    a, b, c, d = sorted(draw(st.lists(st.sampled_from(GRID), min_size=4, max_size=4, unique=True)))
    shape = draw(st.sampled_from(("line", "segment", "two segments", "punctured", "isolated")))
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
def small_maps(draw) -> PiecewiseAffineMap:
    """Each carrier piece cut at up to two grid points, where the point
    goes left, right or into a degenerate piece of its own.  A piece
    often starts where the last one ended, so continuous breakpoints,
    removable jumps and equal coordinates on another sheet all come up;
    the codomain is the line on one or two sheets."""
    domain = draw(domains())
    n_out = draw(st.integers(1, 2))
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
    codomain = Carrier(tuple(LineSet.full_line() for _ in range(n_out)))
    return PiecewiseAffineMap(domain, codomain, tuple(pieces))


def codomain_scales(codomain: Carrier) -> list:
    """Each catalog kind that takes the line, on one sheet, and the two
    sheet-agnostic kinds on two; ``TruncatedQ_a`` needs a segment and is
    met in the seeded pools.  The ``PStructure`` table holds two grid
    values that pieces often take."""
    scales = [TrivialIntervalScale(codomain), ConnectedOpenScale(codomain)]
    if codomain.n_sheets == 1:
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
    event("continuous" if not pam._jumps else "with jumps")
    return IntervalScaledMap(pam, dom, cod)


def test_sound_passes_hold_on_every_probe_over_drawn_maps():
    """The rules at every default point, at a drawn point and at each
    jump point, both strengths and both domain scales."""
    tally: Counter = Counter()

    @given(scaled_maps(), st.sampled_from(GRID))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def drawn(m, x):
        points = list(default_probe_points(m))
        points += sorted(m.pam._jumps)
        if m.pam.domain.member(SheetPoint(0, x)):
            points.append(SheetPoint(0, x))
        net(m, points, tally)

    drawn()
    assert_fired(tally, ("R1", "R2"))


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
    assert pam._jumps == {SheetPoint(0, num(1))}
    m = IntervalScaledMap(pam, TrivialIntervalScale(dom), TrivialIntervalScale(cod))
    at = SheetPoint(0, num(1))
    for strength in ("strong", "weak"):
        mode = ContinuityMode(strength, "at-point", at_point=at)
        assert not _sound_pass(m, m.domain_scale, mode, at)
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
    assert pam._jumps == {one}
    m = IntervalScaledMap(pam, TrivialIntervalScale(dom), TrivialIntervalScale(line))
    for p in (SheetPoint(0, num(-1)), SheetPoint(0, num("1/2"))):
        mode = ContinuityMode("weak", "at-point", at_point=p)
        assert _sound_pass(m, m.domain_scale, mode, p)
        assert ref_point_holds(m, m.domain_scale, mode, p)
    mode = ContinuityMode("weak", "at-point", at_point=one)
    assert not _sound_pass(m, m.domain_scale, mode, one)
    assert not iw_check_continuity(m, mode).holds
