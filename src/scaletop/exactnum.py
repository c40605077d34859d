"""Exact arithmetic in the quadratic field Q(sqrt(2)).

Every quantity in the interval world (interval endpoints, radii, map
values) is an ``ExactNumber`` ``a + b*sqrt(2)`` with rational ``a, b``.
The field is closed under +, -, *, / (by nonzero), and the total order
is decided exactly: the sign of ``a + b*sqrt(2)`` reduces to comparing
``a**2`` with ``2*b**2`` together with the signs of ``a`` and ``b``,
so no floating point ever enters a comparison.

A number is irrational exactly when ``b != 0`` (sqrt(2) is irrational,
so ``a + b*sqrt(2) = 0`` with rational coefficients forces ``a = b = 0``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

_RationalLike = Union[int, Fraction]


def _as_fraction(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@total_ordering
class ExactNumber:
    """An element ``a + b*sqrt(2)`` of Q(sqrt(2)), immutable and hashable."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0) -> None:
        object.__setattr__(self, "_a", _as_fraction(a))
        object.__setattr__(self, "_b", _as_fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactNumber is immutable")

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @classmethod
    def from_fraction(cls, q: _RationalLike) -> ExactNumber:
        return cls(q, 0)

    @classmethod
    def sqrt2(cls, coeff: _RationalLike = 1) -> ExactNumber:
        return cls(0, coeff)

    @classmethod
    def parse(cls, text: str) -> ExactNumber:
        """Parse a rational literal like ``"3/4"`` or ``"-2"``."""
        return cls(Fraction(text), 0)

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        a, b = self._a, self._b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: |a| vs |b|*sqrt(2) decided by a^2 vs 2 b^2.
        # Equality is impossible for rational a, b with b != 0.
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else -1
        return -1 if a * a > 2 * b * b else 1

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other: object) -> ExactNumber | None:
        if isinstance(other, ExactNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactNumber(other, 0)
        return None

    def __add__(self, other: object) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactNumber(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __neg__(self) -> ExactNumber:
        return ExactNumber(-self._a, -self._b)

    def __sub__(self, other: object) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactNumber(self._a - o._a, self._b - o._b)

    def __rsub__(self, other: object) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactNumber(
            self._a * o._a + 2 * self._b * o._b,
            self._a * o._b + self._b * o._a,
        )

    __rmul__ = __mul__

    def inverse(self) -> ExactNumber:
        """Multiplicative inverse; conjugate over the norm a^2 - 2 b^2."""
        norm = self._a * self._a - 2 * self._b * self._b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(2))")
        return ExactNumber(self._a / norm, -self._b / norm)

    def __truediv__(self, other: object) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> ExactNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __abs__(self) -> ExactNumber:
        return -self if self.sign() < 0 else self

    # -- order -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(2)

    def floor(self) -> int:
        """Exact floor, verified by exact comparisons.

        The starting guess uses integers only, so no magnitude overflows:
        with ``self = (p + q*sqrt(2)) / d``, ``isqrt(2*q*q)`` is within one
        of ``|q|*sqrt(2)``."""
        d = self._a.denominator * self._b.denominator
        p = self._a.numerator * self._b.denominator
        q = self._b.numerator * self._a.denominator
        root = math.isqrt(2 * q * q)
        n = (p + (root if q >= 0 else -root)) // d
        while ExactNumber(n + 1) <= self:
            n += 1
        while ExactNumber(n) > self:
            n -= 1
        return n

    def __repr__(self) -> str:
        if self._b == 0:
            return f"ExactNumber({self._a!r})"
        return f"ExactNumber({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*sqrt2"
        return f"{self._a}{'+' if self._b > 0 else '-'}{abs(self._b)}*sqrt2"


ZERO = ExactNumber(0)
ONE = ExactNumber(1)
SQRT2 = ExactNumber(0, 1)


def exact_min(*values: ExactNumber) -> ExactNumber:
    return min(values)


def exact_max(*values: ExactNumber) -> ExactNumber:
    return max(values)


def rational_between(lo: ExactNumber, hi: ExactNumber) -> ExactNumber:
    """Some rational strictly between ``lo`` and ``hi`` (requires lo < hi)."""
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
