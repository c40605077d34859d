"""Field and order laws for ExactNumber, checked against an independent
sign oracle built from continued-fraction convergents of sqrt(2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop.exactnum import (
    ONE,
    SQRT2,
    ZERO,
    ExactNumber,
    irrational_between,
    rational_between,
)


def sqrt2_bounds(depth: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds for sqrt(2) from convergents p/q of the
    continued fraction [1; 2, 2, 2, ...]; consecutive convergents bracket
    the limit."""
    p0, q0, p1, q1 = 1, 1, 3, 2
    for _ in range(depth):
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    lo, hi = Fraction(p0, q0), Fraction(p1, q1)
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def oracle_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(2) via interval refinement, no field tricks."""
    if b == 0:
        return (a > 0) - (a < 0)
    depth = 1
    while True:
        lo, hi = sqrt2_bounds(depth)
        vals = sorted([a + b * lo, a + b * hi])
        if vals[0] > 0:
            return 1
        if vals[1] < 0:
            return -1
        # a + b*sqrt2 is nonzero whenever b != 0, so refinement terminates.
        depth += 1


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
numbers = st.builds(ExactNumber, rationals, rationals)


@given(rationals, rationals)
def test_sign_matches_oracle(a, b):
    assert ExactNumber(a, b).sign() == oracle_sign(a, b)


@given(numbers, numbers, numbers)
def test_order_is_transitive(x, y, z):
    if x < y and y < z:
        assert x < z


@given(numbers, numbers)
def test_order_is_total(x, y):
    assert sum([x < y, x == y, y < x]) == 1


@given(numbers, numbers, numbers)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z


@given(numbers)
def test_field_inverse(x):
    if not x.is_zero:
        assert x * x.inverse() == ONE
        assert (ONE / x) * x == ONE


@given(numbers)
@settings(max_examples=50)
def test_floor(x):
    n = x.floor()
    assert ExactNumber(n) <= x < ExactNumber(n + 1)


HUGE = 10**400


@pytest.mark.parametrize(
    "x",
    [
        ExactNumber(HUGE),
        ExactNumber(-HUGE),
        ExactNumber(Fraction(HUGE, 7)),
        ExactNumber(0, HUGE),
        ExactNumber(Fraction(1, 3), -HUGE),
        ExactNumber(Fraction(-HUGE, 3), Fraction(HUGE, 11)),
    ],
)
def test_floor_beyond_float_range(x):
    n = x.floor()
    assert ExactNumber(n) <= x < ExactNumber(n + 1)


def test_floor_of_huge_integers_is_exact():
    assert ExactNumber(HUGE).floor() == HUGE
    assert ExactNumber(-HUGE).floor() == -HUGE


@pytest.mark.parametrize(
    "lo, hi",
    [
        (ExactNumber(10**308), ExactNumber(10**308 + 1)),
        (ExactNumber(-(10**308) - 1), ExactNumber(-(10**308))),
        (ExactNumber(10**308, 1), ExactNumber(10**308, 2)),
    ],
)
def test_between_helpers_near_float_max(lo, hi):
    q = rational_between(lo, hi)
    assert q.is_rational and lo < q < hi
    w = irrational_between(lo, hi)
    assert not w.is_rational and lo < w < hi


def test_sqrt2_identities():
    assert SQRT2 * SQRT2 == ExactNumber(2)
    assert SQRT2 / 2 < ONE
    assert ZERO < SQRT2 / 2
    assert not SQRT2.is_rational
    assert (SQRT2 - SQRT2).is_rational


def test_irrationality_flag():
    assert ExactNumber(Fraction(3, 7)).is_rational
    assert not ExactNumber(1, Fraction(-1, 2)).is_rational


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(numbers, numbers)
@settings(max_examples=60)
def test_between_helpers(x, y):
    if x == y:
        return
    lo, hi = (x, y) if x < y else (y, x)
    q = rational_between(lo, hi)
    assert q.is_rational and lo < q < hi
    w = irrational_between(lo, hi)
    assert not w.is_rational
    assert lo < w < hi


def test_parse():
    assert ExactNumber.parse("3/4") == ExactNumber(Fraction(3, 4))
    assert ExactNumber.parse("-2") == ExactNumber(-2)
