"""Canonical-form and Boolean-algebra laws for LineSet, plus relative
topology on carriers.  Algebra laws are cross-checked extensionally
against pointwise membership at a probe grid (independent oracle)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _intersect_intervals,
    complement_within,
    component_containing,
    interior_in_carrier,
    interval,
    is_connected_in_carrier,
    is_open_in_carrier,
    normalize,
    point_interval,
)


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def iv(lo, hi, lc=False, hc=False) -> Interval:
    return interval(
        None if lo is None else num(lo),
        None if hi is None else num(hi),
        lc,
        hc,
    )


# -- strategies -----------------------------------------------------------

coords = st.integers(min_value=-6, max_value=6).map(
    lambda n: ExactNumber(Fraction(n, 2))
)


@st.composite
def intervals_st(draw):
    lo = draw(coords)
    hi = draw(coords)
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return point_interval(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


line_sets = st.lists(intervals_st(), max_size=4).map(normalize)

# Probe grid: half-integer lattice plus irrational offsets so open/closed
# endpoint behavior and interior gaps are all exercised.
PROBES = [ExactNumber(Fraction(n, 4)) for n in range(-28, 29)] + [
    ExactNumber(Fraction(n, 2), Fraction(1, 100)) for n in range(-14, 15)
]


def extensionally_equal(a: LineSet, b: LineSet) -> bool:
    return all(a.member(p) == b.member(p) for p in PROBES)


# -- canonical form -------------------------------------------------------


@given(line_sets)
def test_normalize_idempotent(s):
    assert normalize(s.pieces) == s


@given(line_sets)
def test_pieces_are_separated(s):
    for left, right in zip(s.pieces, s.pieces[1:]):
        assert left.hi is not None and right.lo is not None
        assert left.hi < right.lo or (
            left.hi == right.lo and not left.hi_closed and not right.lo_closed
        )


def test_adjacency_merge_rules():
    # (0,1/2) u (1/2,1) keeps two pieces: the midpoint is absent.
    s = LineSet.of(iv(0, "1/2"), iv("1/2", 1))
    assert len(s.pieces) == 2
    # (0,1/2] u (1/2,1) merges to (0,1).
    t = LineSet.of(iv(0, "1/2", hc=True), iv("1/2", 1))
    assert t == LineSet.of(iv(0, 1))


def test_member_exact_irrational():
    s = LineSet.of(iv(0, 1))
    assert s.member(SQRT2 / 2)
    assert not s.member(SQRT2)


# -- Boolean algebra vs the membership oracle -----------------------------


@given(line_sets, line_sets)
@settings(max_examples=120)
def test_union_intersection_against_oracle(a, b):
    u = a.union(b)
    i = a.intersect(b)
    for p in PROBES:
        assert u.member(p) == (a.member(p) or b.member(p))
        assert i.member(p) == (a.member(p) and b.member(p))


@given(line_sets)
@settings(max_examples=120)
def test_complement_against_oracle(a):
    c = a.complement()
    for p in PROBES:
        assert c.member(p) != a.member(p)
    assert a.complement().complement() == a


@given(line_sets, line_sets)
@settings(max_examples=80)
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())
    assert a.intersect(b).complement() == a.complement().union(b.complement())


@given(line_sets, line_sets)
@settings(max_examples=80)
def test_difference_and_subset(a, b):
    d = a.difference(b)
    for p in PROBES:
        assert d.member(p) == (a.member(p) and not b.member(p))
    assert d.issubset(a)
    assert a.intersect(b).issubset(b)


@given(line_sets)
def test_closure_interior(a):
    assert a.issubset(a.closure())
    assert a.interior().issubset(a)
    assert a.closure().closure() == a.closure()
    assert a.interior().interior() == a.interior()


# -- relative topology ----------------------------------------------------


def carrier_unit() -> Carrier:
    return Carrier.of(LineSet.of(iv(0, 1, lc=True, hc=True)))


def carrier_punctured() -> Carrier:
    # [0, 1/2) u (1/2, 1]
    return Carrier.of(
        LineSet.of(iv(0, "1/2", lc=True), iv("1/2", 1, hc=True))
    )


def test_relative_openness():
    c = carrier_unit()
    s = c.lift(LineSet.of(iv(0, "1/4", lc=True)))
    assert is_open_in_carrier(c, s)
    t = c.lift(LineSet.of(iv(0, "1/4", lc=True, hc=True)))
    assert not is_open_in_carrier(c, t)
    assert is_open_in_carrier(c, c.whole())
    assert is_open_in_carrier(c, c.empty_set())


def test_punctured_carrier_open_but_disconnected():
    c = carrier_punctured()
    s = c.lift(LineSet.of(iv(0, "1/2"), iv("1/2", 1)))
    assert is_open_in_carrier(c, s)
    assert not is_connected_in_carrier(c, s)
    assert not is_connected_in_carrier(c, c.whole())


def test_two_sheets_disconnected():
    unit = LineSet.of(iv(0, 1, lc=True, hc=True))
    c = Carrier.of(unit, unit)
    both = SheetSet((LineSet.of(iv(0, "1/2")), LineSet.of(iv(0, "1/2"))))
    assert not is_connected_in_carrier(c, both)
    one = c.lift(LineSet.of(iv(0, "1/2")), sheet=1)
    assert is_connected_in_carrier(c, one)


def test_interior_and_complement_within():
    c = carrier_unit()
    s = c.lift(LineSet.of(iv(0, "1/2", lc=True, hc=True)))
    inner = interior_in_carrier(c, s)
    # Relative interior keeps the carrier edge point 0 but drops 1/2.
    assert inner == c.lift(LineSet.of(iv(0, "1/2", lc=True)))
    rest = complement_within(c, s)
    assert rest == c.lift(LineSet.of(iv("1/2", 1, hc=True)))
    with pytest.raises(ValueError):
        complement_within(c, c.lift(LineSet.of(iv(0, 2))))


def test_component_containing():
    c = carrier_punctured()
    s = c.whole()
    left = component_containing(s, SheetPoint(0, num("1/4")))
    assert left == c.lift(LineSet.of(iv(0, "1/2", lc=True)))
    assert component_containing(s, SheetPoint(0, num("1/2"))) is None


def test_carrier_validation():
    with pytest.raises(ValueError):
        Carrier.of(LineSet.empty())
    with pytest.raises(ValueError):
        Carrier(())


# -- merge walks vs the all-pairs reference -------------------------------


def ref_intersect(a: LineSet, b: LineSet) -> LineSet:
    """All-pairs intersection followed by ``normalize``."""
    out = []
    for x in a.pieces:
        for y in b.pieces:
            z = _intersect_intervals(x, y)
            if z is not None:
                out.append(z)
    return normalize(out)


def ref_difference(a: LineSet, b: LineSet) -> LineSet:
    return ref_intersect(a, b.complement())


def ref_issubset(a: LineSet, b: LineSet) -> bool:
    return ref_difference(a, b).is_empty


# Rational and sqrt(2) endpoints that interleave, so pieces share, touch
# and cross endpoints of either kind.
mixed_coords = st.one_of(
    coords,
    st.integers(min_value=-4, max_value=4).map(
        lambda n: ExactNumber(Fraction(n, 2), Fraction(1, 2))
    ),
)


@st.composite
def mixed_line_sets(draw):
    """Sorted endpoints paired into pieces (a repeated endpoint gives a
    point or two pieces that share an end), the outer ends possibly
    unbounded, then ``normalize``."""
    ends = sorted(draw(st.lists(mixed_coords, max_size=8)))
    pieces = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        if lo == hi:
            pieces.append(point_interval(lo))
        else:
            pieces.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    if pieces and draw(st.booleans()):
        first = pieces[0]
        pieces[0] = Interval(None, first.hi, False, first.hi_closed)
    if pieces and draw(st.booleans()):
        last = pieces[-1]
        pieces[-1] = Interval(last.lo, None, last.lo_closed, False)
    if not pieces and draw(st.booleans()):
        pieces.append(Interval(None, None, False, False))
    return normalize(pieces)


@given(mixed_line_sets(), mixed_line_sets())
@settings(max_examples=400)
def test_merge_walks_match_all_pairs_reference(a, b):
    assert a.intersect(b).pieces == ref_intersect(a, b).pieces
    assert a.difference(b).pieces == ref_difference(a, b).pieces
    assert a.issubset(b) == ref_issubset(a, b)
    assert a.issubset(a) and a.intersect(b).issubset(a)
    assert a.difference(b).issubset(a)


def test_issubset_needs_a_single_containing_piece():
    # [0, 1/2) u (1/2, 1] does not contain [0, 1] although it covers all
    # of it but one point; (0, 1) is inside (-inf, 1).
    gapped = LineSet.of(iv(0, "1/2", lc=True), iv("1/2", 1, hc=True))
    assert not LineSet.of(iv(0, 1, lc=True, hc=True)).issubset(gapped)
    assert LineSet.of(iv(0, 1)).issubset(LineSet.of(iv(None, 1)))
    assert not LineSet.of(iv(0, 1, hc=True)).issubset(LineSet.of(iv(None, 1)))
    assert LineSet.empty().issubset(LineSet.empty())
    assert not LineSet.of(point_interval(SQRT2)).issubset(LineSet.empty())


# -- one-pass complement, closure and interior vs the normalize reference ------


def ref_complement(a: LineSet) -> LineSet:
    """The gaps between the pieces, passed through ``normalize``."""
    if not a.pieces:
        return LineSet.full_line()
    out = []
    if a.pieces[0].lo is not None:
        out.append(Interval(None, a.pieces[0].lo, False, not a.pieces[0].lo_closed))
    for left, right in zip(a.pieces, a.pieces[1:]):
        out.append(Interval(left.hi, right.lo, not left.hi_closed, not right.lo_closed))
    if a.pieces[-1].hi is not None:
        out.append(Interval(a.pieces[-1].hi, None, not a.pieces[-1].hi_closed, False))
    return normalize(out)


def ref_closure(a: LineSet) -> LineSet:
    return normalize(
        Interval(p.lo, p.hi, p.lo is not None, p.hi is not None) for p in a.pieces
    )


def ref_interior(a: LineSet) -> LineSet:
    return normalize(
        Interval(p.lo, p.hi, False, False) for p in a.pieces if not p.is_point
    )


@given(mixed_line_sets())
@settings(max_examples=400)
def test_one_pass_forms_match_the_normalize_reference(a):
    for got, want in (
        (a.complement(), ref_complement(a)),
        (a.closure(), ref_closure(a)),
        (a.interior(), ref_interior(a)),
    ):
        assert got.pieces == want.pieces
        assert normalize(got.pieces) == got


def test_closure_joins_pieces_split_at_single_points():
    split = LineSet.of(iv(0, 1), iv(1, 2), iv(2, 3, hc=True), iv(5, None))
    assert split.closure() == LineSet.of(
        iv(0, 3, lc=True, hc=True), iv(5, None, lc=True)
    )
    assert split.interior() == LineSet.of(iv(0, 1), iv(1, 2), iv(2, 3), iv(5, None))
    assert split.complement() == LineSet.of(
        iv(None, 0, hc=True),
        point_interval(num(1)),
        point_interval(num(2)),
        iv(3, 5, hc=True),
    )
