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
non-straddling shapes both appear).  The checkers take the same family
from ``iter_point_probes``, one set at a time.

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

Most rules are about balls around the point, and the kinds share one
implementation of each piece of that:

* ``_ball``: the open (or closed) ball of radius r around x;
* ``_ball_ladder``: the open balls of radius a plus each radius of
  ``_derived_radii``, the probes of the ball kinds;
* ``_capped_radius``: a radius pick from a ``_Range``, capped so the
  open ball stays inside the host piece holding x;
* ``_open_interval``: the "one bounded open interval" shape test;
* ``_TraceScale``: the carrier traces of open balls whose radius lies
  in a per-point range (``SymmetricIntervals`` and ``TruncatedQ_a``).

All decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import ClassVar, Iterator, Sequence

from .exactnum import ExactNumber, irrational_between, rational_between
from .intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _first_occurrences,
    _intersect_intervals,
    _ordered,
    _piece_holding,
    interior_component_containing,
    is_connected_in_carrier,
    is_open_in_carrier,
)

_ZERO = ExactNumber(0)
_ONE = ExactNumber(1)
_HALF = ExactNumber(Fraction(1, 2))
_THREE_HALVES = ExactNumber(Fraction(3, 2))


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

    def pick(self) -> ExactNumber | None:
        """Some value in the range, or None when it is empty."""
        if not self.feasible:
            return None
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
            cands.update({d, d * _HALF, d * _THREE_HALVES})
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
    return sorted(out)[:12]


# -- shared neighborhood primitives -----------------------------------------------


def _ball(x: ExactNumber, r: ExactNumber, closed: bool = False) -> LineSet:
    """The ball of radius r > 0 around x, open unless ``closed``."""
    return LineSet((_ordered(x - r, x + r, closed, closed),))


def _ball_ladder(
    x: ExactNumber, a: ExactNumber, critical: Sequence[ExactNumber]
) -> Iterator[SheetSet]:
    """The open balls around x of radius a plus each derived radius."""
    for d in _derived_radii(x, critical):
        yield SheetSet((_ball(x, a + d),))


def _capped_radius(
    rng: _Range, x: ExactNumber, host: Interval | None
) -> ExactNumber | None:
    """A radius from ``rng`` once capped so the open ball around x stays
    inside ``host``, the piece holding x; None without a host or without
    a feasible radius."""
    if host is None:
        return None
    if host.lo is not None:
        rng.at_most(x - host.lo)
    if host.hi is not None:
        rng.at_most(host.hi - x)
    return rng.pick()


def _open_interval(s: SheetSet) -> Interval | None:
    """The piece of a one-sheet s that is one bounded open interval."""
    pieces = _single_line(s).pieces
    if len(pieces) == 1 and pieces[0].is_bounded and pieces[0].is_open_interval:
        return pieces[0]
    return None


@dataclass(frozen=True)
class IntervalScale:
    """Base for catalog kinds; concrete kinds override the rule methods.

    A kind sets ``local_witness`` when ``witness_inside(x, s)`` finds a
    witness exactly when it finds one for the component of s around x
    alone: it reads s only near x, through the carrier.  The weak
    at-point checks then pull back only that component.

    Probe contract: every set ``iter_point_probes`` (and so
    ``point_probes``) yields lies in ``carrier``.  The continuity
    checkers rely on it: they pull each probe back through a map whose
    codomain is this carrier without cutting it to the carrier first."""

    carrier: Carrier

    tag: str = field(init=False, default="")
    local_witness: ClassVar[bool] = False

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        raise NotImplementedError

    def is_q_open(self, s: SheetSet) -> bool:
        raise NotImplementedError

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        raise NotImplementedError

    def point_probes(
        self, x: SheetPoint, critical: Sequence[ExactNumber] = ()
    ) -> list[SheetSet]:
        return list(self.iter_point_probes(x, critical))

    def iter_point_probes(
        self, x: SheetPoint, critical: Sequence[ExactNumber] = ()
    ) -> Iterator[SheetSet]:
        """The probes of ``point_probes``, in order, each built only when
        it is taken, so a check that fails early builds no more."""
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def _contains_point(self, x: SheetPoint) -> None:
        if not self.carrier.member(x):
            raise ValueError(f"point {x} outside this scale's carrier")


# -- trivial ------------------------------------------------------------------


def _open_component_probes(
    carrier: Carrier, x: SheetPoint, critical: Sequence[ExactNumber]
) -> Iterator[SheetSet]:
    """The whole carrier, then the open component around x inside each
    open ball at a derived radius, without repeats.  That component is
    the ball cut to the carrier piece holding x: the ball is open, so the
    cut keeps only closed ends of that piece, and the interior keeps
    those."""
    home = _piece_holding(carrier.sheets[x.sheet], x.x)

    def components() -> Iterator[SheetSet]:
        yield carrier.whole()
        for r in _derived_radii(x.x, critical):
            cut = _intersect_intervals(_ordered(x.x - r, x.x + r, False, False), home)
            yield carrier.lift(LineSet((cut,)), x.sheet)

    return _first_occurrences(components())


@dataclass(frozen=True)
class TrivialIntervalScale(IntervalScale):
    tag: str = field(init=False, default="Trivial")
    local_witness: ClassVar[bool] = True

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        self._contains_point(x)
        return s.member(x) and is_open_in_carrier(self.carrier, s)

    def is_q_open(self, s: SheetSet) -> bool:
        return not s.is_empty and is_open_in_carrier(self.carrier, s)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        self._contains_point(x)
        return interior_component_containing(self.carrier, s, x)

    def iter_point_probes(self, x, critical=()):
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

    local_witness: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _require_full_line(self.carrier)
        if self.a.sign() <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "tag", "Q_a" if self.closed_ball else "Q_Oa")

    def params(self) -> dict:
        return {"a": self.a}

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        line = _single_line(s)
        return line.is_open_in_line() and _ball(xx, self.a, self.closed_ball).issubset(
            line
        )

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
        # The open component of s around x is assigned once it holds the
        # a-ball, and any assigned set inside s lies in that component.
        xx = _single_sheet_point(x)
        comp = interior_component_containing(self.carrier, s, x)
        if comp is None or not _ball(xx, self.a, self.closed_ball).issubset(
            comp.sheets[0]
        ):
            return None
        return comp

    def iter_point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        yield from _ball_ladder(xx, self.a, critical)
        yield SheetSet((LineSet.full_line(),))


@dataclass(frozen=True)
class BallScale(IntervalScale):
    """Symmetric open balls of radius r > a (CQ_a) or r >= a (CQ_Oa)."""

    a: ExactNumber = _ZERO
    strict: bool = True

    local_witness: ClassVar[bool] = True

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

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        piece = _open_interval(s)
        return (
            piece is not None
            and piece.lo + piece.hi == xx * 2
            and self._radius_ok(piece.hi - xx)
        )

    def is_q_open(self, s: SheetSet) -> bool:
        piece = _open_interval(s)
        return piece is not None and self._radius_ok((piece.hi - piece.lo) * _HALF)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        rng = _Range()
        rng.at_least(self.a, incl=not self.strict)
        r = _capped_radius(rng, xx, _piece_holding(_single_line(s), xx))
        return None if r is None else SheetSet((_ball(xx, r),))

    def iter_point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        if not self.strict:
            yield SheetSet((_ball(xx, self.a),))
        yield from _ball_ladder(xx, self.a, critical)


@dataclass(frozen=True)
class BoundedBallSupersetScale(IntervalScale):
    """The full line plus bounded open neighborhoods containing the open
    a-ball (BQ_Oa).  No nonempty bounded set has an assigned complement:
    complements of bounded sets are unbounded and differ from the line."""

    a: ExactNumber = _ZERO

    tag: str = field(init=False, default="BQ_Oa")
    local_witness: ClassVar[bool] = True

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
        return self.a.sign() == 0 or _ball(xx, self.a).issubset(line)

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
        rng = _Range()
        rng.at_least(self.a, incl=self.a.sign() > 0)
        r = _capped_radius(rng, xx, _piece_holding(line, xx))
        return None if r is None else SheetSet((_ball(xx, r),))

    def iter_point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        yield from _ball_ladder(xx, self.a, critical)
        yield SheetSet((LineSet.full_line(),))


# -- carrier traces of symmetric balls ----------------------------------------------


_LOWER_END = attrgetter("lo", "lo_closed")
_UPPER_END = attrgetter("hi", "hi_closed")


def _first_uncovered(
    carrier: Sequence[Interval],
    line: Sequence[Interval],
    x: ExactNumber,
    rightward: bool,
) -> tuple[ExactNumber, bool] | None:
    """Walking from x (included) to the right or to the left, the first
    carrier point that ``line`` does not cover, as (v, closed): the
    uncovered points start at v, with v itself only when closed.  None
    when every carrier point that way is covered.  Both arguments are
    the pieces of canonical sets; each list is walked once, from x out."""
    near, far = _LOWER_END, _UPPER_END
    beyond = ExactNumber.__gt__
    if not rightward:
        carrier, line = carrier[::-1], line[::-1]
        near, far = far, near
        beyond = ExactNumber.__lt__

    def ends_before(iv: Interval, v: ExactNumber, closed: bool) -> bool:
        e, ec = far(iv)
        return e is not None and (beyond(v, e) or (e == v and not (ec and closed)))

    def starts_by(iv: Interval, v: ExactNumber, closed: bool) -> bool:
        e, ec = near(iv)
        return e is None or beyond(v, e) or (e == v and (ec or not closed))

    pos, closed = x, True
    j = 0
    for piece in carrier:
        if ends_before(piece, pos, closed):
            continue
        if not starts_by(piece, pos, closed):
            pos, closed = near(piece)
        while j < len(line):
            cover = line[j]
            if ends_before(cover, pos, closed):
                j += 1
            elif starts_by(cover, pos, closed):
                end, end_closed = far(cover)
                if end is None:
                    return None
                pos, closed = end, not end_closed
                j += 1
            else:
                break
        if not ends_before(piece, pos, closed):
            return pos, closed
    return None


@dataclass(frozen=True)
class _TraceScale(IntervalScale):
    """Traces carrier * (x-r, x+r) on a one-sheet carrier, with r in a
    range that each kind sets per point (``_radii``).

    A set s is such a trace iff s lies inside (x-r, x+r) and the ball
    misses every carrier point outside s.  Those points bound the host of
    x, the piece of the line holding x that avoids them; s must lie
    inside the host, and the ball fits while r stays within its ends."""

    # A witness is a radius in the range ``_radii`` admits, capped by the
    # distances from x to the ends of its host.  Given only the component
    # of s around x, a host end can move nearer only to a further piece of
    # s, across a gap of s that holds no carrier point.  On TruncatedQ_a's
    # segment every gap holds carrier points, so the host is the same; on
    # SymmetricIntervals the range asks only r > 0, and x lies strictly
    # inside the one host exactly when it does inside the other.
    local_witness: ClassVar[bool] = True

    def _radii(self, x: ExactNumber) -> _Range:
        """The radii admitted at x: a fresh range, open at its lower end."""
        raise NotImplementedError

    def _trace(self, x: ExactNumber, r: ExactNumber) -> SheetSet:
        return SheetSet((self.carrier.sheets[0].intersect(_ball(x, r)),))

    def _host(self, line: LineSet, x: ExactNumber) -> Interval | None:
        """The piece of the line holding x that avoids every carrier point
        outside ``line``; None when x is such a point.  Its ends are the
        first such points met walking out from x on either side."""
        carrier = self.carrier.sheets[0].pieces
        right = _first_uncovered(carrier, line.pieces, x, rightward=True)
        if right == (x, True):
            return None
        left = _first_uncovered(carrier, line.pieces, x, rightward=False)
        lo, lc = (None, False) if left is None else (left[0], not left[1])
        hi, hc = (None, False) if right is None else (right[0], not right[1])
        return Interval(lo, hi, lc, hc)

    def _shaped_host(self, line: LineSet, x: ExactNumber) -> Interval | None:
        """The host of x when ``line`` has the shape of a trace around x:
        bounded, inside the carrier and inside that host; else None."""
        host = self._host(line, x)
        if (
            host is None
            or not line.is_bounded
            or not line.issubset(self.carrier.sheets[0])
            or not line.issubset(LineSet((host,)))
        ):
            return None
        return host

    @staticmethod
    def _bounds_of(line: LineSet):
        first, last = line.pieces[0], line.pieces[-1]
        return (first.lo, first.lo_closed, last.hi, last.hi_closed)

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        self._contains_point(x)
        line = _single_line(s)
        host = self._shaped_host(line, xx)
        if host is None:
            return False
        m, m_in, mm, mm_in = self._bounds_of(line)
        rng = self._radii(xx)
        rng.at_least(xx - m, incl=not m_in)
        rng.at_least(mm - xx, incl=not mm_in)
        return _capped_radius(rng, xx, host) is not None

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        self._contains_point(x)
        r = _capped_radius(self._radii(xx), xx, self._host(_single_line(s), xx))
        return None if r is None else self._trace(xx, r)

    def iter_point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        self._contains_point(x)
        rng = self._radii(xx)
        radii = _derived_radii(xx, critical, lower_excl=rng.lo, upper_incl=rng.hi)
        return _first_occurrences(self._trace(xx, r) for r in radii)


@dataclass(frozen=True)
class SymmetricIntervalScale(_TraceScale):
    """Traces carrier * (x-r, x+r), r > 0, subject to the ambient bounds
    lo_amb <= x-r and x+r <= hi_amb.  q-openness asks, beyond the trace
    shape, that the midpoint (u+v)/2 of some admissible (u, v) land in
    the carrier."""

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

    def _radii(self, x: ExactNumber) -> _Range:
        rng = _Range()
        rng.at_least(_ZERO, incl=False)
        rng.at_most(x - self.lo_amb)
        rng.at_most(self.hi_amb - x)
        return rng

    def is_q_open(self, s: SheetSet) -> bool:
        line = _single_line(s)
        if line.is_empty or not line.is_bounded:
            return False
        first = line.pieces[0]
        inside = first.lo if first.lo_closed else (first.lo + first.hi) * _HALF
        host = self._shaped_host(line, inside)
        if host is None:
            return False
        m, m_in, mm, mm_in = self._bounds_of(line)
        u = _Range()
        u.at_least(self.lo_amb)
        if host.lo is not None:
            u.at_least(host.lo)
        u.at_most(m, incl=not m_in)
        v = _Range()
        v.at_most(self.hi_amb)
        if host.hi is not None:
            v.at_most(host.hi)
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

    local_witness: ClassVar[bool] = True

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

    def _of_class(
        self,
        x: ExactNumber,
        u_lo: ExactNumber,
        u_hi: ExactNumber,
        v_lo: ExactNumber,
        v_hi: ExactNumber,
    ) -> SheetSet:
        """The open interval (u, v) with u in (u_lo, u_hi) and v in
        (v_lo, v_hi), both of the endpoint class that x requires."""
        want = self._required_rational(x)
        u = _pick_of_class(u_lo, u_hi, want)
        v = _pick_of_class(v_lo, v_hi, want)
        return SheetSet((LineSet((Interval(u, v, False, False),)),))

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        piece = _open_interval(s)
        if piece is None or not piece.contains(xx):
            return False
        want = self._required_rational(xx)
        return piece.lo.is_rational == want and piece.hi.is_rational == want

    def is_q_open(self, s: SheetSet) -> bool:
        piece = _open_interval(s)
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
        host = _piece_holding(_single_line(s), xx)
        if host is None:
            return None
        lo_floor = host.lo if host.lo is not None else xx - 2
        hi_ceil = host.hi if host.hi is not None else xx + 2
        if not (lo_floor < xx and xx < hi_ceil):
            # x sits at a closed end of its piece; no open interval inside
            # s contains it.
            return None
        return self._of_class(xx, lo_floor, xx, xx, hi_ceil)

    def iter_point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        for d in _derived_radii(xx, critical):
            yield self._of_class(xx, xx - d, xx - d * _HALF, xx + d * _HALF, xx + d)


# -- connected relatively open neighborhoods ------------------------------------------


@dataclass(frozen=True)
class ConnectedOpenScale(IntervalScale):
    """The whole carrier plus connected relatively open neighborhoods."""

    tag: str = field(init=False, default="ConnectedOpen")
    local_witness: ClassVar[bool] = True

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

    def iter_point_probes(self, x, critical=()):
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

    def iter_point_probes(self, x, critical=()):
        self._contains_point(x)
        chosen = self._chosen(x)
        return iter(() if chosen is None else (chosen, self.carrier.whole()))


# -- truncated symmetric balls on a segment ---------------------------------------------


@dataclass(frozen=True)
class TruncatedBallScale(_TraceScale):
    """Symmetric open intervals of radius k > a on the segment [lo, hi]:
    interior points get (x-k, x+k) within the segment; points within a of
    the left end get [lo, x+k); points within a of the right end get
    (x-k, hi].  Each is the segment's trace of (x-k, x+k)."""

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

    def _radii(self, x: ExactNumber) -> _Range:
        # k > a, and the ball may overhang only the segment end that x is
        # within a of; an edge point's ball always overhangs that end.
        rng = _Range()
        rng.at_least(self.a, incl=False)
        if x > self.lo + self.a:
            rng.at_most(x - self.lo)
        if x < self.hi - self.a:
            rng.at_most(self.hi - x)
        return rng

    def is_q_open(self, s: SheetSet) -> bool:
        # An open interval can only be assigned to its centre, a half-open
        # one to the segment end it keeps (if to any point of its band).
        piece = _open_interval(s)
        if piece is None:
            points = (self.lo, self.hi)
        else:
            points = ((piece.lo + piece.hi) * _HALF,)
        return any(
            self.carrier.member(SheetPoint(0, p)) and self.member(SheetPoint(0, p), s)
            for p in points
        )


# -- spec'd operation names --------------------------------------------------------


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
    p-neighborhood of it.  On the catalog rules this is q being a
    subscale of p, since every q-neighborhood is then a p-neighborhood."""
    return iw_is_subscale(q, p)
