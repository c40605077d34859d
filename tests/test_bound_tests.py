"""The interval layer's bound tests, each one exact three-way comparison,
checked against the two-comparison forms they replaced (``!=`` then
``<``, or ``<``/``>`` then ``==``), copied here as the reference.

The drawn bounds come from a small pool, so equal values meet often and
with every mix of closed ends; the pool holds ``None`` ends and
elements with a sqrt(2) part."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.intervals import (
    Interval,
    _cmp_lower,
    _cmp_upper,
    _intersect_intervals,
    _ordered,
    _touches,
)
from scaletop.pwmaps import AffinePiece

# -- the two-comparison forms -------------------------------------------------------


def ref_cmp_lower(v1, c1, v2, c2) -> int:
    if v1 is None:
        return 0 if v2 is None else -1
    if v2 is None:
        return 1
    if v1 != v2:
        return -1 if v1 < v2 else 1
    if c1 == c2:
        return 0
    return -1 if c1 else 1


def ref_cmp_upper(v1, c1, v2, c2) -> int:
    if v1 is None:
        return 0 if v2 is None else 1
    if v2 is None:
        return -1
    if v1 != v2:
        return -1 if v1 < v2 else 1
    if c1 == c2:
        return 0
    return 1 if c1 else -1


def ref_contains(iv: Interval, p: ExactNumber) -> bool:
    if iv.lo is not None and (p < iv.lo or (p == iv.lo and not iv.lo_closed)):
        return False
    if iv.hi is not None and (p > iv.hi or (p == iv.hi and not iv.hi_closed)):
        return False
    return True


def ref_intersect_intervals(x: Interval, y: Interval) -> Interval | None:
    if ref_cmp_lower(x.lo, x.lo_closed, y.lo, y.lo_closed) >= 0:
        lo, lc = x.lo, x.lo_closed
    else:
        lo, lc = y.lo, y.lo_closed
    if ref_cmp_upper(x.hi, x.hi_closed, y.hi, y.hi_closed) <= 0:
        hi, hc = x.hi, x.hi_closed
    else:
        hi, hc = y.hi, y.hi_closed
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and not (lc and hc)):
            return None
    return _ordered(lo, hi, lc, hc)


def ref_touches(first: Interval, second: Interval) -> bool:
    if first.hi is None:
        return True
    if second.lo is None:
        return True
    if second.lo < first.hi:
        return True
    if second.lo == first.hi and (first.hi_closed or second.lo_closed):
        return True
    return False


def ref_preimage_interval(piece: AffinePiece, target: Interval) -> Interval | None:
    img = piece._image
    if ref_cmp_lower(target.lo, target.lo_closed, img.lo, img.lo_closed) > 0:
        lo, lc, lo_img = target.lo, target.lo_closed, False
    else:
        lo, lc, lo_img = img.lo, img.lo_closed, True
    if ref_cmp_upper(target.hi, target.hi_closed, img.hi, img.hi_closed) < 0:
        hi, hc, hi_img = target.hi, target.hi_closed, False
    else:
        hi, hc, hi_img = img.hi, img.hi_closed, True
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and not (lc and hc)):
            return None
    part = piece.part
    if lo_img and hi_img:
        return part
    inv, shift = piece._inverse
    if not piece._descending:
        x_lo = part.lo if lo_img else lo * inv + shift
        x_hi = part.hi if hi_img else hi * inv + shift
        return _ordered(x_lo, x_hi, lc, hc)
    x_lo = part.lo if hi_img else hi * inv + shift
    x_hi = part.hi if lo_img else lo * inv + shift
    return _ordered(x_lo, x_hi, hc, lc)


# -- strategies ---------------------------------------------------------------------

VALUES = [ExactNumber(Fraction(n, 2)) for n in range(-4, 5)] + [
    SQRT2,
    -SQRT2,
    SQRT2 / 2,
    ExactNumber(1, -1),  # 1 - sqrt(2)
    ExactNumber(Fraction(3, 2), Fraction(-1, 2)),
]
values = st.sampled_from(VALUES)
bounds = st.one_of(st.none(), values)


@st.composite
def intervals(draw) -> Interval:
    """A valid interval: ends in order, infinite ends open, a point closed."""
    lo, hi = draw(bounds), draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    if lo is not None and lo == hi:
        return Interval(lo, hi, True, True)
    lc = lo is not None and draw(st.booleans())
    hc = hi is not None and draw(st.booleans())
    return Interval(lo, hi, lc, hc)


SLOPES = [Fraction(s) for s in ("0", "1", "-1", "1/2", "-1/3", "2", "3/2")]


@st.composite
def pieces(draw) -> AffinePiece:
    return AffinePiece(
        0,
        draw(intervals()),
        0,
        draw(st.sampled_from(SLOPES)),
        Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3]))),
    )


# -- the checks ---------------------------------------------------------------------


@given(bounds, st.booleans(), bounds, st.booleans())
@settings(max_examples=400)
def test_bound_orders_match_two_comparisons(v1, c1, v2, c2):
    assert _cmp_lower(v1, c1, v2, c2) == ref_cmp_lower(v1, c1, v2, c2)
    assert _cmp_upper(v1, c1, v2, c2) == ref_cmp_upper(v1, c1, v2, c2)


def test_equal_bounds_with_every_mix_of_closed_ends():
    for v in [None, *VALUES]:
        for c1 in (False, True):
            for c2 in (False, True):
                assert _cmp_lower(v, c1, v, c2) == ref_cmp_lower(v, c1, v, c2)
                assert _cmp_upper(v, c1, v, c2) == ref_cmp_upper(v, c1, v, c2)


@given(intervals(), values)
@settings(max_examples=400)
def test_contains_matches_two_comparisons(iv, p):
    assert iv.contains(p) == ref_contains(iv, p)


@given(intervals(), intervals())
@settings(max_examples=400)
def test_intersect_and_touches_match_two_comparisons(x, y):
    assert _intersect_intervals(x, y) == ref_intersect_intervals(x, y)
    assert _touches(x, y) == ref_touches(x, y)


@given(pieces(), intervals())
@settings(max_examples=400)
def test_preimage_interval_matches_two_comparisons(piece, target):
    assert piece.preimage_interval(target) == ref_preimage_interval(piece, target)
