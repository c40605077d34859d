"""The interval-world scale catalog.

Interval-world scales are intensional: each kind is a rule assigning
every carrier point an (infinite) family of neighborhoods, and ships
three exact decision procedures instead of an enumerated family:

* ``member(x, s)``         -- is s assigned to x,
* ``is_q_open(s)``         -- is s assigned to some point,
* ``witness_inside(x, s)`` -- some assigned neighborhood of x inside s,

plus ``point_probes(x, critical)``, a deterministic finite family of
assigned neighborhoods of x used by the continuity checkers (generated
around the supplied critical coordinates so straddling and
non-straddling shapes both appear).

Membership rules, by tag:

* ``Q_a`` / ``Q_Oa``: open sets containing the closed / open a-ball
  around the point (full-line carrier, a > 0).
* ``CQ_a`` / ``CQ_Oa``: symmetric open balls of radius r > a / r >= a
  (full line; the strict variant admits a = 0).
* ``BQ_Oa``: the full line plus bounded open neighborhoods containing
  the open a-ball (a >= 0).
* ``SymmetricIntervals``: traces carrier * (x-r, x+r) of symmetric open
  intervals within declared ambient bounds.
* ``RationalEnds`` / ``IrrationalEnds`` / ``MixedRationalIrrational``:
  bounded open intervals whose endpoint rationality is dictated by the
  kind (the mixed kind matches the rationality of the point itself,
  optionally crossed).
* ``ConnectedOpen``: the whole carrier plus connected relatively open
  neighborhoods.
* ``TruncatedQ_a``: symmetric open intervals of radius k > a truncated
  to a segment [lo, hi], with half-open traces in the two edge bands.
* ``Trivial``: all relatively open neighborhoods.
* ``PStructure``: all relatively open supersets of a chosen neighborhood
  per tabulated point; points absent from the table carry the empty
  family.

All decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactnum import ExactNumber, irrational_between, rational_between
from .intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    component_containing,
    interior_component_containing,
    is_connected_in_carrier,
    is_open_in_carrier,
)

_ZERO = ExactNumber(0)
_ONE = ExactNumber(1)
_HALF = ExactNumber(Fraction(1, 2))


def full_line_carrier() -> Carrier:
    return Carrier.of(LineSet.full_line())


def segment_carrier(lo: ExactNumber, hi: ExactNumber) -> Carrier:
    return Carrier.of(LineSet.of(Interval(lo, hi, True, True)))


@dataclass
class _Range:
    """Feasibility interval for a scalar unknown; each end optional and
    open or closed.  Ties between constraints resolve to the stricter."""

    lo: ExactNumber | None = None
    lo_incl: bool = True
    hi: ExactNumber | None = None
    hi_incl: bool = True

    def at_least(self, v: ExactNumber, incl: bool = True) -> None:
        if self.lo is None or v > self.lo:
            self.lo, self.lo_incl = v, incl
        elif v == self.lo and not incl:
            self.lo_incl = False

    def at_most(self, v: ExactNumber, incl: bool = True) -> None:
        if self.hi is None or v < self.hi:
            self.hi, self.hi_incl = v, incl
        elif v == self.hi and not incl:
            self.hi_incl = False

    @property
    def feasible(self) -> bool:
        if self.lo is None or self.hi is None:
            return True
        if self.lo < self.hi:
            return True
        return self.lo == self.hi and self.lo_incl and self.hi_incl

    def pick(self) -> ExactNumber:
        if not self.feasible:
            raise ValueError("empty range")
        if self.lo is None and self.hi is None:
            return _ONE
        if self.lo is None:
            return self.hi if self.hi_incl else self.hi - 1
        if self.hi is None:
            return self.lo if self.lo_incl else self.lo + 1
        if self.lo == self.hi:
            return self.lo
        return self.lo + (self.hi - self.lo) * _HALF


def _single_sheet_point(x: SheetPoint) -> ExactNumber:
    if x.sheet != 0:
        raise ValueError("this scale kind lives on a single-sheet carrier")
    return x.x


def _single_line(s: SheetSet) -> LineSet:
    if s.n_sheets != 1:
        raise ValueError("this scale kind lives on a single-sheet carrier")
    return s.sheets[0]


def _derived_radii(
    x: ExactNumber,
    critical: Sequence[ExactNumber],
    lower_excl: ExactNumber | None = None,
    upper_incl: ExactNumber | None = None,
) -> list[ExactNumber]:
    """Deterministic radius ladder around the distances from x to the
    critical coordinates, clipped to (lower_excl, upper_incl]."""
    cands = {_ONE, ExactNumber(2)}
    for c in critical:
        d = abs(x - c)
        if d.sign() > 0:
            cands.update({d, d * _HALF, d + d * _HALF})
    if upper_incl is not None:
        cands.update({upper_incl, upper_incl * _HALF})
    if lower_excl is not None:
        cands.add(lower_excl + _ONE)
        if upper_incl is not None and upper_incl > lower_excl:
            cands.add(lower_excl + (upper_incl - lower_excl) * _HALF)
    out = []
    for r in cands:
        if r.sign() <= 0:
            continue
        if lower_excl is not None and r <= lower_excl:
            continue
        if upper_incl is not None and r > upper_incl:
            continue
        out.append(r)
    return sorted(set(out))[:12]


@dataclass(frozen=True)
class IntervalScale:
    """Base for catalog kinds; concrete kinds override the rule methods."""

    carrier: Carrier

    tag: str = field(init=False, default="")

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        raise NotImplementedError

    def is_q_open(self, s: SheetSet) -> bool:
        raise NotImplementedError

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        raise NotImplementedError

    def point_probes(
        self, x: SheetPoint, critical: Sequence[ExactNumber] = ()
    ) -> list[SheetSet]:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def _contains_point(self, x: SheetPoint) -> None:
        if not self.carrier.member(x):
            raise ValueError(f"point {x} outside this scale's carrier")

    def _lift(self, iv: Interval) -> SheetSet:
        return SheetSet((LineSet((iv,)),))


# -- trivial ------------------------------------------------------------------


def _open_component_probes(
    carrier: Carrier, x: SheetPoint, critical: Sequence[ExactNumber]
) -> list[SheetSet]:
    """The whole carrier, then the open component around x inside each
    open ball at a derived radius, without repeats."""
    probes: dict[SheetSet, None] = {carrier.whole(): None}  # insertion-ordered set
    for r in _derived_radii(x.x, critical):
        ball = carrier.lift(
            LineSet.of(Interval(x.x - r, x.x + r, False, False)), x.sheet
        )
        comp = interior_component_containing(carrier, ball, x)
        if comp is not None:
            probes[comp] = None
    return list(probes)


@dataclass(frozen=True)
class TrivialIntervalScale(IntervalScale):
    tag: str = field(init=False, default="Trivial")

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        self._contains_point(x)
        return s.member(x) and is_open_in_carrier(self.carrier, s)

    def is_q_open(self, s: SheetSet) -> bool:
        return not s.is_empty and is_open_in_carrier(self.carrier, s)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        self._contains_point(x)
        return interior_component_containing(self.carrier, s, x)

    def point_probes(self, x, critical=()):
        self._contains_point(x)
        return _open_component_probes(self.carrier, x, critical)


# -- ball kinds on the full line -------------------------------------------------


def _require_full_line(carrier: Carrier) -> None:
    if carrier.sheets != (LineSet.full_line(),):
        raise ValueError("ball scale kinds require the full-line carrier")


@dataclass(frozen=True)
class BallSupersetScale(IntervalScale):
    """Open sets containing the a-ball around the point (Q_a / Q_Oa)."""

    a: ExactNumber = _ONE
    closed_ball: bool = True

    def __post_init__(self) -> None:
        _require_full_line(self.carrier)
        if self.a.sign() <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "tag", "Q_a" if self.closed_ball else "Q_Oa")

    def params(self) -> dict:
        return {"a": self.a}

    def _ball(self, x: ExactNumber) -> LineSet:
        c = self.closed_ball
        return LineSet.of(Interval(x - self.a, x + self.a, c, c))

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        line = _single_line(s)
        return line.is_open_in_line() and self._ball(xx).issubset(line)

    def is_q_open(self, s: SheetSet) -> bool:
        line = _single_line(s)
        if line.is_empty or not line.is_open_in_line():
            return False
        two_a = self.a * 2
        for piece in line.pieces:
            if piece.lo is None or piece.hi is None:
                return True
            width = piece.hi - piece.lo
            if width > two_a or (not self.closed_ball and width >= two_a):
                return True
        return False

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        inner = _single_line(s).interior()
        if not self._ball(xx).issubset(inner):
            return None
        return component_containing(SheetSet((inner,)), SheetPoint(0, xx))

    def point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        probes = []
        for extra in _derived_radii(xx, critical):
            r = self.a + extra
            probes.append(self._lift(Interval(xx - r, xx + r, False, False)))
        probes.append(SheetSet((LineSet.full_line(),)))
        return probes


@dataclass(frozen=True)
class BallScale(IntervalScale):
    """Symmetric open balls of radius r > a (CQ_a) or r >= a (CQ_Oa)."""

    a: ExactNumber = _ZERO
    strict: bool = True

    def __post_init__(self) -> None:
        _require_full_line(self.carrier)
        if self.strict:
            if self.a.sign() < 0:
                raise ValueError("radius threshold must be nonnegative")
        elif self.a.sign() <= 0:
            raise ValueError("radius threshold must be positive")
        object.__setattr__(self, "tag", "CQ_a" if self.strict else "CQ_Oa")

    def params(self) -> dict:
        return {"a": self.a}

    def _radius_ok(self, r: ExactNumber) -> bool:
        return r > self.a if self.strict else r >= self.a

    def _symmetric_ball(self, s: SheetSet) -> tuple[ExactNumber, ExactNumber] | None:
        """(center, radius) when s is a single bounded open interval."""
        line = _single_line(s)
        if len(line.pieces) != 1:
            return None
        piece = line.pieces[0]
        if piece.lo is None or piece.hi is None or not piece.is_open_interval:
            return None
        return (piece.lo + piece.hi) * _HALF, (piece.hi - piece.lo) * _HALF

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        ball = self._symmetric_ball(s)
        return ball is not None and ball[0] == xx and self._radius_ok(ball[1])

    def is_q_open(self, s: SheetSet) -> bool:
        ball = self._symmetric_ball(s)
        return ball is not None and self._radius_ok(ball[1])

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        line = _single_line(s)
        host = next((p for p in line.pieces if p.contains(xx)), None)
        if host is None:
            return None
        rng = _Range()
        rng.at_least(self.a, incl=not self.strict)
        if self.strict and self.a.sign() == 0:
            rng.at_least(_ZERO, incl=False)
        if host.lo is not None:
            rng.at_most(xx - host.lo, incl=True)
        if host.hi is not None:
            rng.at_most(host.hi - xx, incl=True)
        if not rng.feasible:
            return None
        r = rng.pick()
        if r.sign() <= 0:
            return None
        return self._lift(Interval(xx - r, xx + r, False, False))

    def point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        out = []
        if not self.strict:
            out.append(self._lift(Interval(xx - self.a, xx + self.a, False, False)))
        for extra in _derived_radii(xx, critical):
            r = self.a + extra
            out.append(self._lift(Interval(xx - r, xx + r, False, False)))
        return out


@dataclass(frozen=True)
class BoundedBallSupersetScale(IntervalScale):
    """The full line plus bounded open neighborhoods containing the open
    a-ball (BQ_Oa).  No nonempty bounded set has an assigned complement:
    complements of bounded sets are unbounded and differ from the line."""

    a: ExactNumber = _ZERO

    tag: str = field(init=False, default="BQ_Oa")

    def __post_init__(self) -> None:
        _require_full_line(self.carrier)
        if self.a.sign() < 0:
            raise ValueError("radius must be nonnegative")

    def params(self) -> dict:
        return {"a": self.a}

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        line = _single_line(s)
        if line == LineSet.full_line():
            return True
        if not line.is_open_in_line() or not line.is_bounded or not line.member(xx):
            return False
        if self.a.sign() == 0:
            return True
        ball = LineSet.of(Interval(xx - self.a, xx + self.a, False, False))
        return ball.issubset(line)

    def is_q_open(self, s: SheetSet) -> bool:
        line = _single_line(s)
        if line == LineSet.full_line():
            return True
        if line.is_empty or not line.is_open_in_line() or not line.is_bounded:
            return False
        two_a = self.a * 2
        return any(p.hi - p.lo >= two_a for p in line.pieces)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        line = _single_line(s)
        if line == LineSet.full_line():
            return SheetSet((line,))
        inner = line.interior()
        host = next((p for p in inner.pieces if p.contains(xx)), None)
        if host is None:
            return None
        rng = _Range()
        rng.at_least(self.a, incl=self.a.sign() > 0)
        if self.a.sign() == 0:
            rng.at_least(_ZERO, incl=False)
        if host.lo is not None:
            rng.at_most(xx - host.lo, incl=True)
        if host.hi is not None:
            rng.at_most(host.hi - xx, incl=True)
        if not rng.feasible:
            return None
        r = rng.pick()
        return self._lift(Interval(xx - r, xx + r, False, False))

    def point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        out = []
        for extra in _derived_radii(xx, critical):
            r = self.a + extra
            out.append(self._lift(Interval(xx - r, xx + r, False, False)))
        out.append(SheetSet((LineSet.full_line(),)))
        return out


# -- symmetric traces within ambient bounds ----------------------------------------


@dataclass(frozen=True)
class SymmetricIntervalScale(IntervalScale):
    """Traces carrier * (x-r, x+r), r > 0, subject to the ambient bounds
    lo_amb <= x-r and x+r <= hi_amb.

    Deciding whether an arbitrary set s is such a trace reduces to a
    box of endpoint constraints: s is carrier * (u, v) iff s lies inside
    (u, v) and (u, v) avoids carrier-minus-s, which decouples into a
    feasible range for u and one for v; q-openness additionally asks the
    midpoint (u+v)/2 to land in the carrier."""

    lo_amb: ExactNumber = _ZERO
    hi_amb: ExactNumber = _ONE

    tag: str = field(init=False, default="SymmetricIntervals")

    def __post_init__(self) -> None:
        if self.carrier.n_sheets != 1:
            raise ValueError("symmetric-interval scales live on one sheet")
        if not self.lo_amb < self.hi_amb:
            raise ValueError("ambient bounds must be ordered")

    def params(self) -> dict:
        return {"lo": self.lo_amb, "hi": self.hi_amb}

    @staticmethod
    def _bounds_of(line: LineSet):
        first, last = line.pieces[0], line.pieces[-1]
        return (first.lo, first.lo_closed, last.hi, last.hi_closed)

    def _gap_analysis(self, line: LineSet):
        """(ok, d_left, d_right): ok fails when the complement within the
        carrier meets the open hull of the set; the d's are the nearest
        complement values outside the hull (None when absent)."""
        rest = self.carrier.sheets[0].difference(line)
        m, _, mm, _ = self._bounds_of(line)
        if m is None or mm is None:
            return False, None, None
        if m < mm:
            hull = LineSet.of(Interval(m, mm, False, False))
            if not rest.intersect(hull).is_empty:
                return False, None, None
        below = rest.intersect(LineSet.of(Interval(None, m, False, True)))
        above = rest.intersect(LineSet.of(Interval(mm, None, True, False)))
        d_left = None if below.is_empty else below.pieces[-1].hi
        d_right = None if above.is_empty else above.pieces[0].lo
        return True, d_left, d_right

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        self._contains_point(x)
        line = _single_line(s)
        if line.is_empty or not line.member(xx):
            return False
        if not line.issubset(self.carrier.sheets[0]):
            return False
        ok, d_left, d_right = self._gap_analysis(line)
        if not ok:
            return False
        m, m_in, mm, mm_in = self._bounds_of(line)
        rng = _Range()
        rng.at_least(_ZERO, incl=False)
        rng.at_least(xx - m, incl=not m_in)
        rng.at_least(mm - xx, incl=not mm_in)
        rng.at_most(xx - self.lo_amb, incl=True)
        rng.at_most(self.hi_amb - xx, incl=True)
        if d_left is not None:
            rng.at_most(xx - d_left, incl=True)
        if d_right is not None:
            rng.at_most(d_right - xx, incl=True)
        return rng.feasible

    def is_q_open(self, s: SheetSet) -> bool:
        line = _single_line(s)
        if line.is_empty or not line.issubset(self.carrier.sheets[0]):
            return False
        ok, d_left, d_right = self._gap_analysis(line)
        if not ok:
            return False
        m, m_in, mm, mm_in = self._bounds_of(line)
        u = _Range()
        u.at_least(self.lo_amb, incl=True)
        if d_left is not None:
            u.at_least(d_left, incl=True)
        u.at_most(m, incl=not m_in)
        v = _Range()
        v.at_most(self.hi_amb, incl=True)
        if d_right is not None:
            v.at_most(d_right, incl=True)
        v.at_least(mm, incl=not mm_in)
        if not u.feasible or not v.feasible:
            return False
        mid_lo = (u.lo + v.lo) * _HALF
        mid_hi = (u.hi + v.hi) * _HALF
        lo_incl = u.lo_incl and v.lo_incl
        hi_incl = u.hi_incl and v.hi_incl
        if mid_lo > mid_hi or (mid_lo == mid_hi and not (lo_incl and hi_incl)):
            return False
        centers = Interval(mid_lo, mid_hi, lo_incl, hi_incl)
        return not self.carrier.sheets[0].intersect(LineSet((centers,))).is_empty

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        self._contains_point(x)
        line = _single_line(s)
        if not line.member(xx):
            return None
        rest = self.carrier.sheets[0].difference(
            line.intersect(self.carrier.sheets[0])
        )
        rng = _Range()
        rng.at_least(_ZERO, incl=False)
        rng.at_most(xx - self.lo_amb, incl=True)
        rng.at_most(self.hi_amb - xx, incl=True)
        below = rest.intersect(LineSet.of(Interval(None, xx, False, True)))
        above = rest.intersect(LineSet.of(Interval(xx, None, True, False)))
        if not below.is_empty:
            b = below.pieces[-1].hi
            if b is None:
                return None
            rng.at_most(xx - b, incl=True)
        if not above.is_empty:
            b = above.pieces[0].lo
            if b is None:
                return None
            rng.at_most(b - xx, incl=True)
        if not rng.feasible:
            return None
        r = rng.pick()
        trace = self.carrier.sheets[0].intersect(
            LineSet.of(Interval(xx - r, xx + r, False, False))
        )
        return SheetSet((trace,))

    def point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        self._contains_point(x)
        rmax = min(xx - self.lo_amb, self.hi_amb - xx)
        if rmax.sign() <= 0:
            return []
        out = []
        for r in _derived_radii(xx, critical, upper_incl=rmax):
            trace = self.carrier.sheets[0].intersect(
                LineSet.of(Interval(xx - r, xx + r, False, False))
            )
            probe = SheetSet((trace,))
            if probe not in out:
                out.append(probe)
        return out


# -- endpoint-rationality kinds ------------------------------------------------------


def _pick_of_class(lo: ExactNumber, hi: ExactNumber, rational: bool) -> ExactNumber:
    return rational_between(lo, hi) if rational else irrational_between(lo, hi)


@dataclass(frozen=True)
class EndClassScale(IntervalScale):
    """Bounded open intervals with endpoint rationality fixed by the kind.

    ``mode`` is "rational", "irrational", or "mixed"; the mixed mode uses
    the point's own rationality class, flipped when ``crossed``."""

    mode: str = "rational"
    crossed: bool = False

    def __post_init__(self) -> None:
        _require_full_line(self.carrier)
        if self.mode not in ("rational", "irrational", "mixed"):
            raise ValueError("mode must be rational, irrational, or mixed")
        tags = {
            "rational": "RationalEnds",
            "irrational": "IrrationalEnds",
            "mixed": "MixedRationalIrrational",
        }
        object.__setattr__(self, "tag", tags[self.mode])

    def params(self) -> dict:
        out: dict = {"mode": self.mode}
        if self.mode == "mixed":
            out["crossed"] = self.crossed
        return out

    def _required_rational(self, x: ExactNumber) -> bool:
        if self.mode == "rational":
            return True
        if self.mode == "irrational":
            return False
        return x.is_rational != self.crossed

    def _interval_of(self, s: SheetSet) -> Interval | None:
        line = _single_line(s)
        if len(line.pieces) != 1:
            return None
        piece = line.pieces[0]
        if piece.lo is None or piece.hi is None or not piece.is_open_interval:
            return None
        return piece

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        piece = self._interval_of(s)
        if piece is None or not piece.contains(xx):
            return False
        want = self._required_rational(xx)
        return piece.lo.is_rational == want and piece.hi.is_rational == want

    def is_q_open(self, s: SheetSet) -> bool:
        piece = self._interval_of(s)
        if piece is None or piece.lo.is_rational != piece.hi.is_rational:
            return False
        cls = piece.lo.is_rational
        if self.mode == "rational":
            return cls
        if self.mode == "irrational":
            return not cls
        # Mixed: every nonempty open interval contains points of both
        # rationality classes, so both endpoint classes are assigned.
        return True

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        line = _single_line(s)
        host = next((p for p in line.pieces if p.contains(xx)), None)
        if host is None:
            return None
        lo_floor = host.lo if host.lo is not None else xx - 2
        hi_ceil = host.hi if host.hi is not None else xx + 2
        if not (lo_floor < xx and xx < hi_ceil):
            # x sits at a closed end of its piece; no open interval inside
            # s contains it.
            return None
        want = self._required_rational(xx)
        u = _pick_of_class(lo_floor, xx, want)
        v = _pick_of_class(xx, hi_ceil, want)
        return self._lift(Interval(u, v, False, False))

    def point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        want = self._required_rational(xx)
        out = []
        for d in _derived_radii(xx, critical):
            u = _pick_of_class(xx - d, xx - d * _HALF, want)
            v = _pick_of_class(xx + d * _HALF, xx + d, want)
            out.append(self._lift(Interval(u, v, False, False)))
        return out


# -- connected relatively open neighborhoods ------------------------------------------


@dataclass(frozen=True)
class ConnectedOpenScale(IntervalScale):
    """The whole carrier plus connected relatively open neighborhoods."""

    tag: str = field(init=False, default="ConnectedOpen")

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        self._contains_point(x)
        if s == self.carrier.whole():
            return True
        return (
            not s.is_empty
            and s.member(x)
            and is_open_in_carrier(self.carrier, s)
            and is_connected_in_carrier(self.carrier, s)
        )

    def is_q_open(self, s: SheetSet) -> bool:
        if s == self.carrier.whole():
            return True
        return (
            not s.is_empty
            and is_open_in_carrier(self.carrier, s)
            and is_connected_in_carrier(self.carrier, s)
        )

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        self._contains_point(x)
        if s == self.carrier.whole():
            return s
        return interior_component_containing(self.carrier, s, x)

    def point_probes(self, x, critical=()):
        self._contains_point(x)
        return _open_component_probes(self.carrier, x, critical)


# -- tabulated principal structures ----------------------------------------------------


@dataclass(frozen=True)
class PStructureIntervalScale(IntervalScale):
    """Relatively open supersets of a chosen neighborhood per tabulated
    point; points outside the table carry the empty family."""

    table: tuple[tuple[SheetPoint, SheetSet], ...] = ()

    tag: str = field(init=False, default="PStructure")

    def __post_init__(self) -> None:
        for pt, chosen in self.table:
            if not self.carrier.member(pt):
                raise ValueError("table point outside the carrier")
            if not chosen.member(pt):
                raise ValueError("chosen neighborhood misses its point")
            if not is_open_in_carrier(self.carrier, chosen):
                raise ValueError("chosen neighborhood is not relatively open")

    def _chosen(self, x: SheetPoint) -> SheetSet | None:
        for pt, chosen in self.table:
            if pt == x:
                return chosen
        return None

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        self._contains_point(x)
        chosen = self._chosen(x)
        if chosen is None or not s.issubset(self.carrier):
            return False
        return chosen.issubset(s) and is_open_in_carrier(self.carrier, s)

    def is_q_open(self, s: SheetSet) -> bool:
        if not s.issubset(self.carrier):
            return False
        if not is_open_in_carrier(self.carrier, s):
            return False
        return any(chosen.issubset(s) for _, chosen in self.table)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        self._contains_point(x)
        chosen = self._chosen(x)
        if chosen is not None and chosen.issubset(s):
            return chosen
        return None

    def point_probes(self, x, critical=()):
        self._contains_point(x)
        chosen = self._chosen(x)
        if chosen is None:
            return []
        return [chosen, self.carrier.whole()]


# -- truncated symmetric balls on a segment ---------------------------------------------


@dataclass(frozen=True)
class TruncatedBallScale(IntervalScale):
    """Symmetric open intervals of radius k > a on the segment [lo, hi]:
    interior points get (x-k, x+k) within the segment; points within a of
    the left end get [lo, x+k); points within a of the right end get
    (x-k, hi]."""

    a: ExactNumber = _ONE
    lo: ExactNumber = _ZERO
    hi: ExactNumber = ExactNumber(2)

    tag: str = field(init=False, default="TruncatedQ_a")

    def __post_init__(self) -> None:
        if self.a.sign() <= 0:
            raise ValueError("radius threshold must be positive")
        if not self.lo + self.a * 2 < self.hi:
            raise ValueError("segment too short for the radius threshold")
        if self.carrier != segment_carrier(self.lo, self.hi):
            raise ValueError("carrier must be the segment [lo, hi]")

    def params(self) -> dict:
        return {"a": self.a, "lo": self.lo, "hi": self.hi}

    def _region(self, x: ExactNumber) -> str:
        if x <= self.lo + self.a:
            return "left"
        if x >= self.hi - self.a:
            return "right"
        return "middle"

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        self._contains_point(x)
        line = _single_line(s)
        if len(line.pieces) != 1:
            return False
        piece = line.pieces[0]
        if piece.lo is None or piece.hi is None:
            return False
        region = self._region(xx)
        if region == "middle":
            if not piece.is_open_interval or piece.lo + piece.hi != xx * 2:
                return False
            k = (piece.hi - piece.lo) * _HALF
            return k > self.a and piece.lo >= self.lo and piece.hi <= self.hi
        if region == "left":
            if not (piece.lo == self.lo and piece.lo_closed and not piece.hi_closed):
                return False
            return piece.hi - xx > self.a and piece.hi <= self.hi
        if not (piece.hi == self.hi and piece.hi_closed and not piece.lo_closed):
            return False
        return xx - piece.lo > self.a and piece.lo >= self.lo

    def is_q_open(self, s: SheetSet) -> bool:
        line = _single_line(s)
        if len(line.pieces) != 1:
            return False
        piece = line.pieces[0]
        if piece.lo is None or piece.hi is None:
            return False
        if piece.is_open_interval:
            center = (piece.lo + piece.hi) * _HALF
            k = (piece.hi - piece.lo) * _HALF
            return (
                self._region(center) == "middle"
                and k > self.a
                and piece.lo >= self.lo
                and piece.hi <= self.hi
            )
        if piece.lo == self.lo and piece.lo_closed and not piece.hi_closed:
            # [lo, v): served by left-band points x with v - x > a.
            return piece.hi <= self.hi and piece.hi - self.lo > self.a
        if piece.hi == self.hi and piece.hi_closed and not piece.lo_closed:
            return piece.lo >= self.lo and self.hi - piece.lo > self.a
        return False

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        self._contains_point(x)
        line = _single_line(s)
        region = self._region(xx)
        rng = _Range()
        rng.at_least(self.a, incl=False)
        if region == "middle":
            host = next((p for p in line.pieces if p.contains(xx)), None)
            if host is None:
                return None
            if host.lo is not None:
                rng.at_most(xx - host.lo, incl=True)
            if host.hi is not None:
                rng.at_most(host.hi - xx, incl=True)
            rng.at_most(xx - self.lo, incl=True)
            rng.at_most(self.hi - xx, incl=True)
            if not rng.feasible:
                return None
            k = rng.pick()
            return self._lift(Interval(xx - k, xx + k, False, False))
        if region == "left":
            host = next(
                (p for p in line.pieces if p.lo == self.lo and p.lo_closed), None
            )
            if host is None or host.hi is None:
                return None
            rng.at_most(host.hi - xx, incl=True)
            rng.at_most(self.hi - xx, incl=True)
            if not rng.feasible:
                return None
            k = rng.pick()
            return self._lift(Interval(self.lo, xx + k, True, False))
        host = next(
            (p for p in line.pieces if p.hi == self.hi and p.hi_closed), None
        )
        if host is None or host.lo is None:
            return None
        rng.at_most(xx - host.lo, incl=True)
        rng.at_most(xx - self.lo, incl=True)
        if not rng.feasible:
            return None
        k = rng.pick()
        return self._lift(Interval(xx - k, self.hi, False, True))

    def point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        self._contains_point(x)
        region = self._region(xx)
        if region == "middle":
            cap = min(xx - self.lo, self.hi - xx)
        elif region == "left":
            cap = self.hi - xx
        else:
            cap = xx - self.lo
        out = []
        for k in _derived_radii(xx, critical, lower_excl=self.a, upper_incl=cap):
            if region == "middle":
                out.append(self._lift(Interval(xx - k, xx + k, False, False)))
            elif region == "left":
                out.append(self._lift(Interval(self.lo, xx + k, True, False)))
            else:
                out.append(self._lift(Interval(xx - k, self.hi, False, True)))
        return out


# -- spec'd operation names --------------------------------------------------------


def iw_is_q_open(kind: IntervalScale, s: SheetSet) -> bool:
    return kind.is_q_open(s)


def iw_is_q_closed(kind: IntervalScale, s: SheetSet) -> bool:
    """Complement within the kind's carrier is assigned somewhere."""
    return kind.is_q_open(kind.carrier.difference(s))


# -- catalog order relations ---------------------------------------------------------


def iw_is_subscale(h: IntervalScale, q: IntervalScale) -> bool:
    """Pointwise containment of assigned families, decided by the catalog
    monotonicity rules; pairs outside the rule table are not asserted."""
    if h.carrier != q.carrier:
        raise ValueError("subscale comparison requires a common carrier")
    if h == q:
        return True
    if isinstance(h, BallSupersetScale) and isinstance(q, BallSupersetScale):
        # A bigger required ball assigns fewer sets, and demanding the
        # closed a-ball is stronger than demanding the open a-ball.
        if h.closed_ball or not q.closed_ball:
            return h.a >= q.a
        return h.a > q.a
    if isinstance(h, BallScale) and isinstance(q, BallScale):
        # {r > a} sits inside {r >= b} iff a >= b; {r >= a} inside
        # {r > b} iff a > b.
        if h.strict or not q.strict:
            return h.a >= q.a
        return h.a > q.a
    return False


def iw_finer(p: IntervalScale, q: IntervalScale) -> bool:
    """p refines q: every q-neighborhood of a point contains a
    p-neighborhood of it (catalog rules for the ball kinds)."""
    if p.carrier != q.carrier:
        raise ValueError("finer comparison requires a common carrier")
    if p == q:
        return True
    if isinstance(p, BallSupersetScale) and isinstance(q, BallSupersetScale):
        # Every q-neighborhood contains its required q-ball and is itself
        # a p-neighborhood once the p-ball fits inside that q-ball.
        if q.closed_ball or not p.closed_ball:
            return p.a <= q.a
        return p.a < q.a
    if isinstance(p, BallScale) and isinstance(q, BallScale):
        # Need some radius in p's range below every radius in q's range;
        # only {r > a} against {r >= b} forces a < b.
        if not p.strict or q.strict:
            return p.a <= q.a
        return p.a < q.a
    return False
