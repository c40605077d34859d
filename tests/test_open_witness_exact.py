"""Weak checks on ConnectedOpen and end-class domains decide on the
trivial scale (``IntervalScale.weak_scale``), since each of those kinds
answers ``has_witness`` as the trivial scale on its carrier does; the
weak global decision ``_holds_open``, which asks ``has_witness`` at one
anchor per piece of the preimage, is exact on them and on Trivial: it
holds for a set inside the carrier exactly when the set holds a q-open
set, and ``witness_inside`` at the first anchor that yields a witness
returns a q-open subset of the set.  A weak global check prunes on a
trivial domain, so a miss there would move a certificate.

The reference decides "holds a q-open set" without the kind's methods,
from ``Interval`` and ``LineSet`` membership only, on one-sheet sets
whose ends lie in the grid G below (rationals and one sqrt 2 value).

Completeness of the reference: on each declared kind, a set holds a
q-open set exactly when some point of it is relatively interior (its
interior component is q-open on Trivial and ConnectedOpen; on the line,
an open interval holds intervals with ends of either class).  Every end
of the set and of the carrier lies in G.  If the point lies in a piece
with two distinct ends or an unbounded one, that piece holds the midpoint
of two adjacent grid values, or a grid end moved out by 1, and the ball
of radius EPS around it stays inside the piece, since EPS is under half
the least grid spacing.  If the piece is one point g of G, no carrier
end lies within EPS of g, so the carrier meets the EPS-ball around g in
g alone or in points arbitrarily close to g, and g is relatively interior
exactly when that ball's trace lies in the set.  So a relatively
interior point exists exactly when one of the candidates below is one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.interval_continuity import _anchors, _holds_open
from scaletop.interval_scales import (
    ConnectedOpenScale,
    EndClassScale,
    TrivialIntervalScale,
    full_line_carrier,
    segment_carrier,
)
from scaletop.intervals import Carrier, Interval, LineSet, SheetPoint, SheetSet, normalize

from test_interval_scales import KINDS


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


GRID = sorted([num(-2), num(-1), num(0), num("1/2"), num(1), SQRT2, num(3)])
EPS = num("1/8")

CANDIDATES = (
    GRID
    + [a + (b - a) / 2 for a, b in zip(GRID, GRID[1:])]
    + [GRID[0] - 1, GRID[-1] + 1]
)

CARRIERS = {
    "line": full_line_carrier(),
    "segment": segment_carrier(num(-1), num(3)),
    "segment and point": Carrier.of(LineSet((
        Interval(num(-1), num("1/2"), True, True),
        Interval(num(3), num(3), True, True),
    ))),
}

SCALES = [
    TrivialIntervalScale(c) for c in CARRIERS.values()
] + [
    ConnectedOpenScale(c) for c in CARRIERS.values()
] + [
    EndClassScale(CARRIERS["line"], mode=mode, crossed=crossed)
    for mode, crossed in (("rational", False), ("irrational", False),
                          ("mixed", False), ("mixed", True))
]


@st.composite
def grid_intervals(draw) -> Interval:
    """A point of G, a segment with open or closed ends on G, a half-line,
    or the line."""
    shape = draw(st.sampled_from(["point", "segment", "below", "above", "line"]))
    if shape == "point":
        g = draw(st.sampled_from(GRID))
        return Interval(g, g, True, True)
    if shape == "line":
        return Interval(None, None, False, False)
    closed = draw(st.booleans())
    if shape == "below":
        return Interval(None, draw(st.sampled_from(GRID)), False, closed)
    if shape == "above":
        return Interval(draw(st.sampled_from(GRID)), None, closed, False)
    lo, hi = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    return Interval(lo, hi, closed, draw(st.booleans()))


def relatively_interior(carrier: LineSet, line: LineSet, x: ExactNumber) -> bool:
    ball = LineSet((Interval(x - EPS, x + EPS, False, False),))
    return line.member(x) and ball.intersect(carrier).issubset(line)


def holds_q_open_set(carrier: LineSet, line: LineSet) -> bool:
    return any(relatively_interior(carrier, line, x) for x in CANDIDATES)


WEAK_GLOBAL = ContinuityMode("weak", "global")


def first_witness(scale, pre: SheetSet) -> SheetSet | None:
    """``witness_inside`` at the first anchor of ``pre`` that yields one."""
    witnesses = (scale.witness_inside(anchor, pre) for anchor in _anchors(pre))
    return next((w for w in witnesses if w is not None), None)


def weak_is_trivial(scale) -> bool:
    return scale.weak_scale() == TrivialIntervalScale(scale.carrier)


def test_the_declared_kinds_are_the_five_exactly_searched_ones():
    assert {scale.tag for scale, _ in KINDS if weak_is_trivial(scale)} == {
        "Trivial", "ConnectedOpen", "RationalEnds", "IrrationalEnds",
        "MixedRationalIrrational",
    }
    assert all(weak_is_trivial(scale) for scale in SCALES)


FOLDED = [scale for scale in SCALES if not isinstance(scale, TrivialIntervalScale)]


@pytest.mark.parametrize("k", range(len(FOLDED)), ids=lambda k: f"{k}-{FOLDED[k].tag}")
@given(st.one_of(st.none(), st.lists(grid_intervals(), max_size=3)))
@settings(max_examples=60, deadline=None)
def test_has_witness_is_the_trivial_scales_on_each_folded_kind(k, parts):
    """The fold's argument: at every grid point and candidate in the
    carrier, on a drawn set or (None) the whole carrier, the kind's
    ``has_witness`` is its trivial ``weak_scale()``'s."""
    scale = FOLDED[k]
    trivial = scale.weak_scale()
    carrier = scale.carrier.sheets[0]
    s = scale.carrier.whole() if parts is None else SheetSet((normalize(parts).intersect(carrier),))
    for x in CANDIDATES:
        point = SheetPoint(0, x)
        if carrier.member(x):
            assert scale.has_witness(point, s) == trivial.has_witness(point, s), (scale.tag, x, s)


@pytest.mark.parametrize("k", range(len(SCALES)), ids=lambda k: f"{k}-{SCALES[k].tag}")
@given(st.lists(grid_intervals(), max_size=3))
@settings(max_examples=150, deadline=None)
def test_the_anchor_search_finds_a_q_open_set_exactly_when_one_exists(k, parts):
    scale = SCALES[k]
    carrier = scale.carrier.sheets[0]
    pre = SheetSet((normalize(parts).intersect(carrier),))
    holds = _holds_open(scale, WEAK_GLOBAL, pre)
    assert holds == holds_q_open_set(carrier, pre.sheets[0]), (scale.tag, pre)
    found = first_witness(scale, pre)
    assert (found is not None) == holds, (scale.tag, pre)
    if found is not None:
        assert found.issubset(pre) and scale.is_q_open(found)


def test_a_point_isolated_in_the_carrier_is_found():
    scale = TrivialIntervalScale(CARRIERS["segment and point"])
    pre = SheetSet((LineSet((Interval(num(3), num(3), True, True),)),))
    assert _holds_open(scale, WEAK_GLOBAL, pre) and first_witness(scale, pre) == pre
    assert not _holds_open(EndClassScale(CARRIERS["line"]), WEAK_GLOBAL, pre)
    assert scale.witness_inside(SheetPoint(0, num(3)), pre) == pre
