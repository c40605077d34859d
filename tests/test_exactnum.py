"""Field and order laws for ExactNumber, checked against an independent
sign oracle built from continued-fraction convergents of sqrt(2), and
every operation of the integer kernel checked against a reference on
(Fraction, Fraction) pairs."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop import jsonio
from scaletop.exactnum import (
    ONE,
    SQRT2,
    ZERO,
    ExactNumber,
    irrational_between,
    rational_between,
)
from scaletop.intervals import Interval, LineSet, point_interval


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
    assert ExactNumber.parse("sqrt2") == SQRT2
    assert ExactNumber.parse("-3/4*sqrt2") == ExactNumber(0, Fraction(-3, 4))
    assert ExactNumber.parse("1/2+1/3*sqrt2") == ExactNumber(Fraction(1, 2), Fraction(1, 3))
    assert ExactNumber.parse("-1/2-1/3*sqrt2") == ExactNumber(Fraction(-1, 2), Fraction(-1, 3))
    for bad in ("1/2+sqrt2*1/3", "sqrt2*2", "1/2+*sqrt2", "2*3"):
        with pytest.raises(ValueError):
            ExactNumber.parse(bad)
    with pytest.raises(ZeroDivisionError):
        ExactNumber.parse("1/0*sqrt2")


def test_no_float_route():
    """An exact number never turns into a float on its own."""
    with pytest.raises(TypeError):
        float(SQRT2)


# -- integer kernel vs a (Fraction, Fraction) reference ---------------------
#
# The reference keeps a number as the pair (a, b) of a + b*sqrt(2) and
# implements every operation directly on Fractions, independently of the
# kernel's (p + q*sqrt(2)) / d form.


def ref_sign(a: Fraction, b: Fraction) -> int:
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    if a * a > 2 * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def ref_mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2


def ref_inverse(x):
    a, b = x
    norm = a * a - 2 * b * b
    return a / norm, -b / norm


def ref_cmp(x, y) -> int:
    return ref_sign(x[0] - y[0], x[1] - y[1])


def ref_floor(x) -> int:
    a, b = x
    # floor(sqrt(r)) == isqrt(floor(r)) for rational r >= 0.
    root = math.isqrt(math.floor(2 * b * b))
    n = math.floor(a) + (root if b >= 0 else -root - 1)
    while ref_sign(a - (n + 1), b) >= 0:
        n += 1
    while ref_sign(a - n, b) < 0:
        n -= 1
    return n


def ref_str(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt2"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt2"


def ref_repr(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return f"ExactNumber({a!r})"
    return f"ExactNumber({a!r}, {b!r})"


def assert_matches(x: ExactNumber, ref) -> None:
    """``x`` equals the reference pair and is in canonical form."""
    a, b = ref
    assert (x.a, x.b) == (a, b)
    assert x == ExactNumber(a, b) and hash(x) == hash(ExactNumber(a, b))
    assert x._d > 0 and math.gcd(x._p, x._q, x._d) == 1


HUGE_BOUND = 10**401
coeffs = st.one_of(
    rationals,
    st.integers(min_value=-HUGE_BOUND, max_value=HUGE_BOUND).map(Fraction),
    st.builds(
        Fraction,
        st.integers(min_value=-HUGE_BOUND, max_value=HUGE_BOUND),
        st.integers(min_value=1, max_value=HUGE_BOUND),
    ),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(10**400)]),
)
pairs = st.tuples(coeffs, coeffs)
plain = st.one_of(
    st.integers(min_value=-HUGE_BOUND, max_value=HUGE_BOUND),
    rationals,
)


def ex(ref) -> ExactNumber:
    return ExactNumber(*ref)


@given(pairs, pairs)
@settings(max_examples=300)
def test_arithmetic_matches_reference(x, y):
    a, b = ex(x), ex(y)
    assert_matches(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_matches(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_matches(-a, (-x[0], -x[1]))
    assert_matches(a * b, ref_mul(x, y))
    if y != (0, 0):
        assert_matches(b.inverse(), ref_inverse(y))
        assert_matches(a / b, ref_mul(x, ref_inverse(y)))
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b
    assert_matches(abs(a), x if ref_sign(*x) >= 0 else (-x[0], -x[1]))


@given(pairs, pairs)
@settings(max_examples=300)
def test_comparisons_match_reference(x, y):
    a, b = ex(x), ex(y)
    c = ref_cmp(x, y)
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
        c < 0, c <= 0, c > 0, c >= 0, c == 0, c != 0,
    )
    assert a.sign() == ref_sign(*x)


@given(pairs, plain)
@settings(max_examples=300)
def test_mixed_operands_match_reference(x, k):
    a, o = ex(x), (Fraction(k), Fraction(0))
    c = ref_cmp(x, o)
    assert (a < k, a <= k, a > k, a >= k, a == k, a != k) == (
        c < 0, c <= 0, c > 0, c >= 0, c == 0, c != 0,
    )
    assert (k < a, k <= a, k > a, k >= a, k == a, k != a) == (
        c > 0, c >= 0, c < 0, c <= 0, c == 0, c != 0,
    )
    assert_matches(a + k, (x[0] + o[0], x[1]))
    assert_matches(k + a, (x[0] + o[0], x[1]))
    assert_matches(a - k, (x[0] - o[0], x[1]))
    assert_matches(k - a, (o[0] - x[0], -x[1]))
    assert_matches(a * k, ref_mul(x, o))
    assert_matches(k * a, ref_mul(x, o))
    if k != 0:
        assert_matches(a / k, ref_mul(x, ref_inverse(o)))
    if x != (0, 0):
        assert_matches(k / a, ref_mul(o, ref_inverse(x)))


@given(pairs)
@settings(max_examples=300)
def test_parse_reads_what_str_prints(x):
    a = ex(x)
    assert ExactNumber.parse(str(a)) == a


@given(pairs)
@settings(max_examples=200)
def test_conversions_match_reference(x):
    a = ex(x)
    assert a.is_rational == (x[1] == 0)
    assert a.is_zero == (x == (0, 0))
    assert str(a) == ref_str(*x)
    assert repr(a) == ref_repr(*x)
    assert a.floor() == ref_floor(x)
    doc = jsonio.exact_to_json(a)
    assert doc == {"a": jsonio.fraction_to_json(x[0]), "b": jsonio.fraction_to_json(x[1])}
    back = jsonio.exact_from_json(doc)
    assert back == a and hash(back) == hash(a)


def test_reduced_forms_are_equal_and_hash_alike():
    x = ExactNumber(Fraction(2, 4), Fraction(6, 8))
    y = ExactNumber(Fraction(1, 2), Fraction(3, 4))
    assert x == y and hash(x) == hash(y)
    # Sums and products whose common factor only the gcd step removes.
    half = ExactNumber(Fraction(1, 2), Fraction(1, 4))
    assert half + ExactNumber(Fraction(1, 2), Fraction(-1, 4)) == ONE
    assert hash(half + ExactNumber(Fraction(1, 2), Fraction(-1, 4))) == hash(ONE)
    assert hash(half * 4) == hash(ExactNumber(2, 1))
    assert hash(ExactNumber(Fraction(6, 4)) - Fraction(1, 2)) == hash(ONE)
    assert hash(ExactNumber(0, 3) / ExactNumber(0, 6)) == hash(ExactNumber(Fraction(1, 2)))


def test_pickle_and_deepcopy_round_trip():
    x = ExactNumber(Fraction(1, 3), -HUGE)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert y == x and hash(y) == hash(x)
    with pytest.raises(AttributeError):
        x._p = 0
    s = LineSet.of(
        Interval(None, ExactNumber(0, 1), False, True),
        point_interval(ExactNumber(3)),
        Interval(ExactNumber(Fraction(7, 2)), None, False, False),
    )
    assert pickle.loads(pickle.dumps(s)) == s
    assert copy.deepcopy(s) == s


# -- rational_between against the loop it replaced ---------------------------


def loop_rational_between(lo: ExactNumber, hi: ExactNumber) -> ExactNumber:
    """The search for k by halving 3/2^k until it drops below the gap."""
    if not lo < hi:
        raise ValueError("rational_between requires lo < hi")
    gap = hi - lo
    k = 0
    while ExactNumber(Fraction(1, 2**k)) * 3 >= gap:
        k += 1
    scale = 2**k
    m = (lo * scale).floor() + 1
    q = ExactNumber(Fraction(m, scale))
    while q <= lo:
        m += 1
        q = ExactNumber(Fraction(m, scale))
    return q


ends = st.one_of(
    pairs.map(ex),
    numbers,
    st.sampled_from(
        [SQRT2, -SQRT2, SQRT2 / 2, ONE + SQRT2, SQRT2 * 10**400, ExactNumber(10**400, -1)]
    ),
)


@given(ends, ends)
@settings(max_examples=200)
def test_rational_between_matches_the_loop(x, y):
    if x == y:
        with pytest.raises(ValueError):
            rational_between(x, y)
        return
    lo, hi = (x, y) if x < y else (y, x)
    assert rational_between(lo, hi) == loop_rational_between(lo, hi)
    with pytest.raises(ValueError):
        rational_between(hi, lo)
