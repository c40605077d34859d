"""Exact arithmetic in the quadratic field Q(sqrt(2)).

Every quantity in the interval world (interval endpoints, radii, map
values) is an ``ExactNumber`` ``a + b*sqrt(2)`` with rational ``a, b``.
It is stored as three Python ints, ``(p + q*sqrt(2)) / d`` with
``d > 0`` and ``gcd(p, q, d) == 1``; that form is canonical, so
equality and hashing compare the three ints, and ``a = p/d``,
``b = q/d`` are built as ``Fraction`` only when asked for.

The field is closed under +, -, *, / (by nonzero) and every operation
works on the ints.  The total order is decided exactly: the sign of
``u + v*sqrt(2)`` for integers ``u, v`` reduces to comparing ``u**2``
with ``2*v**2`` together with the signs of ``u`` and ``v``, so no
floating point ever enters a comparison.

A number is irrational exactly when ``b != 0`` (sqrt(2) is irrational,
so ``a + b*sqrt(2) = 0`` with rational coefficients forces ``a = b = 0``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

_RationalLike = Union[int, Fraction]


def _as_fraction(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _sign(u: int, v: int) -> int:
    """Exact sign of ``u + v*sqrt(2)`` for integers ``u, v``."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0 or (u > 0) == (v > 0):
        return 1 if v > 0 else -1
    # Opposite signs: |u| vs |v|*sqrt(2) decided by u^2 vs 2 v^2.
    # Equality is impossible for integers with v != 0.
    if u * u > 2 * v * v:
        return 1 if u > 0 else -1
    return 1 if v > 0 else -1


class ExactNumber:
    """An element ``a + b*sqrt(2)`` of Q(sqrt(2)), immutable and hashable."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0) -> None:
        if type(a) is int and type(b) is int:
            p, q, d = a, b, 1
        else:
            fa, fb = _as_fraction(a), _as_fraction(b)
            da, db = fa.denominator, fb.denominator
            # With a, b in lowest terms, the lcm of their denominators
            # already leaves gcd(p, q, d) == 1.
            d = da // math.gcd(da, db) * db
            p = fa.numerator * (d // da)
            q = fb.numerator * (d // db)
        _set_p(self, p)
        _set_q(self, q)
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactNumber is immutable")

    def __reduce__(self):
        return (ExactNumber, (self.a, self.b))

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    @classmethod
    def parse(cls, text: str) -> ExactNumber:
        """Parse every form ``str`` prints: a rational ``"3/4"`` or
        ``"-2"``, ``"b*sqrt2"``, and ``"a+b*sqrt2"`` or ``"a-b*sqrt2"``,
        each coefficient a ``Fraction`` literal; ``"sqrt2"`` alone too.
        A malformed coefficient raises ``Fraction``'s ``ValueError`` (or
        ``ZeroDivisionError`` for a zero denominator)."""
        if text == "sqrt2":
            return cls(0, 1)
        coeffs, star, root = text.rpartition("*")
        if not star or root != "sqrt2":
            return cls(Fraction(text))
        # a carries a sign only at its start, and b none in the a+-b form.
        cut = max(coeffs.rfind("+"), coeffs.rfind("-"))
        if cut <= 0:
            return cls(0, Fraction(coeffs))
        b = Fraction(coeffs[cut + 1 :])
        return cls(Fraction(coeffs[:cut]), b if coeffs[cut] == "+" else -b)

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    @property
    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return _sign(self._p, self._q)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: object) -> ExactNumber:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        if d == od:
            return _make(self._p + o._p, self._q + o._q, d)
        return _make(self._p * od + o._p * d, self._q * od + o._q * d, d * od)

    __radd__ = __add__

    def __neg__(self) -> ExactNumber:
        return _raw(-self._p, -self._q, self._d)

    def __sub__(self, other: object) -> ExactNumber:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        if d == od:
            return _make(self._p - o._p, self._q - o._q, d)
        return _make(self._p * od - o._p * d, self._q * od - o._q * d, d * od)

    def __rsub__(self, other: object) -> ExactNumber:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> ExactNumber:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        p, q, op, oq = self._p, self._q, o._p, o._q
        return _make(p * op + 2 * q * oq, p * oq + q * op, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> ExactNumber:
        """Multiplicative inverse; conjugate over the norm p^2 - 2 q^2."""
        p, q, d = self._p, self._q, self._d
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(2))")
        return _make(d * p, -d * q, norm)

    def __truediv__(self, other: object) -> ExactNumber:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        p, q, op, oq, od = self._p, self._q, o._p, o._q, o._d
        norm = op * op - 2 * oq * oq
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(2))")
        return _make(od * (p * op - 2 * q * oq), od * (q * op - p * oq), self._d * norm)

    def __rtruediv__(self, other: object) -> ExactNumber:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self) -> ExactNumber:
        return -self if self.sign() < 0 else self

    # -- order -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._d == o._d

    def __lt__(self, other: object) -> bool:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        return _cmp(self, o) < 0

    def __le__(self, other: object) -> bool:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        return _cmp(self, o) <= 0

    def __gt__(self, other: object) -> bool:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        return _cmp(self, o) > 0

    def __ge__(self, other: object) -> bool:
        o = other if type(other) is ExactNumber else _coerce(other)
        if o is None:
            return NotImplemented
        return _cmp(self, o) >= 0

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    # -- conversions -----------------------------------------------------

    def floor(self) -> int:
        """Exact floor, verified by exact comparisons.

        The starting guess uses integers only, so no magnitude overflows:
        ``isqrt(2*q*q)`` is within one of ``|q|*sqrt(2)``."""
        p, q, d = self._p, self._q, self._d
        root = math.isqrt(2 * q * q)
        n = (p + (root if q >= 0 else -root)) // d
        while ExactNumber(n + 1) <= self:
            n += 1
        while ExactNumber(n) > self:
            n -= 1
        return n

    def __repr__(self) -> str:
        if self._q == 0:
            return f"ExactNumber({self.a!r})"
        return f"ExactNumber({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*sqrt2"
        return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt2"


_set_p = ExactNumber._p.__set__
_set_q = ExactNumber._q.__set__
_set_d = ExactNumber._d.__set__
_new = object.__new__


def _raw(p: int, q: int, d: int) -> ExactNumber:
    """``(p + q*sqrt(2)) / d`` from ints already in canonical form."""
    x = _new(ExactNumber)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _make(p: int, q: int, d: int) -> ExactNumber:
    """``(p + q*sqrt(2)) / d`` for any ints with ``d != 0``, reduced to
    canonical form."""
    if d < 0:
        p, q, d = -p, -q, -d
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _raw(p, q, d)


def _coerce(x: object) -> ExactNumber | None:
    if isinstance(x, ExactNumber):
        return x
    if isinstance(x, int):
        return _raw(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    return None


def _cmp(x: ExactNumber, y: ExactNumber) -> int:
    """Sign of ``x - y``: that of ``u + v*sqrt(2)`` with
    ``u = p1 d2 - p2 d1`` and ``v = q1 d2 - q2 d1`` (the plain differences
    when d1 == d2).  The sign test is ``_sign``'s, written inline: every
    bound test of the interval layer comes here, and a second call would
    cost about as much as the test itself."""
    xd, yd = x._d, y._d
    if xd == yd:
        u, v = x._p - y._p, x._q - y._q
    else:
        u, v = x._p * yd - y._p * xd, x._q * yd - y._q * xd
    if not v:
        return (u > 0) - (u < 0)
    # Opposite signs: |u| vs |v|*sqrt(2), decided by u^2 vs 2 v^2, which
    # cannot be equal for integers with v != 0.  Otherwise v's sign wins.
    if u and (u > 0) != (v > 0) and u * u > 2 * v * v:
        return 1 if u > 0 else -1
    return 1 if v > 0 else -1


ZERO = ExactNumber(0)
ONE = ExactNumber(1)
SQRT2 = ExactNumber(0, 1)


def rational_between(lo: ExactNumber, hi: ExactNumber) -> ExactNumber:
    """Some rational strictly between ``lo`` and ``hi`` (requires lo < hi)."""
    if not lo < hi:
        raise ValueError("rational_between requires lo < hi")
    gap = hi - lo
    # The smallest k with 3/2^k < gap: 2^k > 3/gap exactly when
    # 2^k > floor(3/gap), and the least such power is one bit longer.
    k = (3 / gap).floor().bit_length()
    scale = 2**k
    m = (lo * scale).floor() + 1
    q = ExactNumber(Fraction(m, scale))
    while q <= lo:
        m += 1
        q = ExactNumber(Fraction(m, scale))
    if not q < hi:
        raise AssertionError("rational_between failed to land inside the gap")
    return q


def irrational_between(lo: ExactNumber, hi: ExactNumber) -> ExactNumber:
    """Some irrational element of Q(sqrt(2)) strictly between lo and hi."""
    r = rational_between(lo, hi)
    s = rational_between(r, hi)
    # r + (s - r) * sqrt(2)/2 lies in (r, s) and has a nonzero sqrt(2) part.
    mid = r + (s - r) * ExactNumber(0, Fraction(1, 2))
    if mid.is_rational:
        raise AssertionError("irrational_between produced a rational")
    return mid
