"""The interval-world scale catalog.

Interval-world scales are intensional: each kind is a rule assigning
every carrier point an (infinite) family of neighborhoods, and ships
four exact decision procedures instead of an enumerated family:

* ``member(x, s)``         -- is s assigned to x,
* ``is_q_open(s)``         -- is s assigned to some point,
* ``witness_inside(x, s)`` -- some assigned neighborhood of x inside s,
* ``has_witness(x, s)``    -- whether there is one, where a kind can
  tell without building it,

plus ``iter_point_probes(x, critical)``, a deterministic finite family
of assigned neighborhoods of x used by the continuity checkers
(generated around the supplied critical coordinates so straddling and
non-straddling shapes both appear), yielded one set at a time, which
``ladder(x, critical)`` describes as radii on the kinds whose family is
a ladder of ball cuts: every kind but the end-class kinds and
``PStructure``.

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
* ``_line_ladder``: the open balls of radius a plus each radius of
  ``_derived_radii``, the probe ``Ladder`` of the ball kinds;
* ``_at_most`` and ``_capped_radius``: a set of radii, an ``Interval``,
  cut to closed caps, and a radius picked from it once cut so the open
  ball stays inside the host piece holding x;
* ``_open_interval``: the "one bounded open interval" shape test;
* ``_TraceScale``: the carrier traces of open balls whose radius lies
  in a per-point set (``SymmetricIntervals`` and ``TruncatedQ_a``),
  whose ``Ladder`` cuts the balls to the carrier's sheet.

All decisions are exact.  Every set of radii, and every set of ball ends
in ``SymmetricIntervals.is_q_open``, is an ``Interval`` (None when
empty), so whether an open end or a closed one at an equal value is the
stricter is decided by the interval layer's end order, in
``_intersect_intervals`` and ``Interval.contains``, and nowhere here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import merge
from itertools import tee
from typing import Iterator, NamedTuple, Sequence

from .exactnum import ExactNumber, irrational_between, rational_between
from .intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _intersect_intervals,
    _ordered,
    _piece_holding,
    interior_component_containing,
    is_connected_in_carrier,
    is_open_in_carrier,
)

_ZERO = ExactNumber(0)
_ONE = ExactNumber(1)
_TWO = ExactNumber(2)
_HALF = ExactNumber(Fraction(1, 2))
_THREE_HALVES = ExactNumber(Fraction(3, 2))
_POSITIVE = Interval(_ZERO, None, False, False)


def full_line_carrier() -> Carrier:
    return Carrier.of(LineSet.full_line())


def segment_carrier(lo: ExactNumber, hi: ExactNumber) -> Carrier:
    return Carrier.of(LineSet.of(Interval(lo, hi, True, True)))


def _single_sheet_point(x: SheetPoint) -> ExactNumber:
    if x.sheet != 0:
        raise ValueError("this scale kind lives on a single-sheet carrier")
    return x.x


def _single_line(s: SheetSet) -> LineSet:
    if s.n_sheets != 1:
        raise ValueError("this scale kind lives on a single-sheet carrier")
    return s.sheets[0]


_MAX_RADII = 12


def _distances(x: ExactNumber, critical: Sequence[ExactNumber]) -> Iterator[ExactNumber]:
    """The positive distances from x to the critical coordinates, in
    ascending order, with repeats: a walk outward from x over the sorted
    coordinates, taking the nearer side at each step."""
    cs = sorted(critical)
    i, j = bisect_left(cs, x) - 1, bisect_right(cs, x)
    left = x - cs[i] if i >= 0 else None
    right = cs[j] - x if j < len(cs) else None
    while left is not None or right is not None:
        if right is None or (left is not None and left <= right):
            yield left
            i -= 1
            left = x - cs[i] if i >= 0 else None
        else:
            yield right
            j += 1
            right = cs[j] - x if j < len(cs) else None


def _derived_radii(
    x: ExactNumber,
    critical: Sequence[ExactNumber],
    lower_excl: ExactNumber | None = None,
    upper_incl: ExactNumber | None = None,
) -> Iterator[ExactNumber]:
    """Deterministic radius ladder around the distances from x to the
    critical coordinates, clipped to (lower_excl, upper_incl]: the
    ``_MAX_RADII`` smallest distinct candidates, in ascending order, each
    computed only when it is taken.

    The candidates are 1 and 2; each distance d > 0 with d/2 and 3d/2;
    with an upper bound u, u and u/2; with a lower bound l, l + 1, and
    the midpoint of (l, u) when u > l.  The distances come in ascending
    order, so the streams d/2, d and 3d/2 do too, and one merge of them
    with the sorted constants yields every candidate in order: repeats
    are adjacent, and the first candidate above u ends the ladder."""
    fixed = [_ONE, _TWO]
    if upper_incl is not None:
        fixed += [upper_incl, upper_incl * _HALF]
    if lower_excl is not None:
        fixed.append(lower_excl + _ONE)
        if upper_incl is not None and upper_incl > lower_excl:
            fixed.append(lower_excl + (upper_incl - lower_excl) * _HALF)
    fixed.sort()
    halves, ds, three_halves = tee(_distances(x, critical), 3)
    merged = merge(
        fixed,
        (d * _HALF for d in halves),
        ds,
        (d * _THREE_HALVES for d in three_halves),
    )
    last = None
    taken = 0
    for r in merged:
        if upper_incl is not None and r > upper_incl:
            return
        if r == last or r.sign() <= 0 or (lower_excl is not None and r <= lower_excl):
            continue
        yield r
        last = r
        taken += 1
        if taken == _MAX_RADII:
            return


# -- shared neighborhood primitives -----------------------------------------------


def _ball(x: ExactNumber, r: ExactNumber, closed: bool = False) -> LineSet:
    """The ball of radius r > 0 around x, open unless ``closed``."""
    return LineSet((_ordered(x - r, x + r, closed, closed),))


def _above(v: ExactNumber, closed: bool) -> Interval:
    """The ray [v, +inf), or (v, +inf) unless ``closed``."""
    return _ordered(v, None, closed, False)


def _at_most(radii: Interval | None, caps: list[ExactNumber]) -> Interval | None:
    """The radii of ``radii`` at most every cap, or None when there are
    none.  ``radii`` has a lower end and a closed upper end or none, so
    every upper end in play is closed: the cut ends at the least of them,
    with no tie to break, and holds a radius exactly when it holds that
    end."""
    if radii is None:
        return None
    if radii.hi is not None:
        caps = [*caps, radii.hi]
    if not caps:
        return radii
    cap = min(caps)
    return _ordered(radii.lo, cap, radii.lo_closed, True) if radii.contains(cap) else None


def _capped_radius(
    radii: Interval | None, x: ExactNumber, host: Interval | None
) -> ExactNumber | None:
    """A radius of ``radii`` (as ``_at_most`` takes them) once cut so the
    open ball around x stays inside ``host``, the piece holding x; None
    without a host or without such a radius.  The pick is the midpoint of
    a bounded cut, else its lower end when closed, or that end + 1."""
    if host is None:
        return None
    caps = []
    if host.lo is not None:
        caps.append(x - host.lo)
    if host.hi is not None:
        caps.append(host.hi - x)
    radii = _at_most(radii, caps)
    if radii is None:
        return None
    if radii.hi is None:
        return radii.lo if radii.lo_closed else radii.lo + 1
    return radii.lo + (radii.hi - radii.lo) * _HALF


def _open_interval(s: SheetSet) -> Interval | None:
    """The piece of a one-sheet s that is one bounded open interval."""
    pieces = _single_line(s).pieces
    if len(pieces) == 1 and pieces[0].is_bounded and pieces[0].is_open_interval:
        return pieces[0]
    return None


@dataclass(frozen=True)
class IntervalScale:
    """Base for catalog kinds; concrete kinds override the rule methods.

    Probe contract: every set ``iter_point_probes`` yields lies in
    ``carrier``.  The continuity checkers rely on it: they pull each
    probe back through a map whose codomain is this carrier without
    cutting it to the carrier first.  A family may repeat a set; the
    checkers decide a repeat as they decided its first occurrence.

    Openness contract: every set a kind assigns is relatively open in
    ``carrier``, so every probe and every q-open set is, and every probe
    of x holds x.  The continuity checkers' decisions from jump germs
    rest on it: a map with no jump pulls every such set back to a
    relatively open set, and at a jump point a side enters such a set
    exactly when its limit, or an open interval that ends there, lies in
    it (see ``interval_continuity``).  Each membership rule of the
    module docstring assigns only open sets of the line, carrier traces
    of open balls, or relatively open sets, and a property test checks
    the contract on every kind.

    ``has_witness(x, s)`` answers whether ``witness_inside(x, s)`` finds
    a witness, without building one where a kind can: the continuity
    checkers' weak decisions ask only that.  ``SymmetricIntervals``
    answers from the ambient bounds where x lies strictly inside its
    piece of s; every other kind, and every other case, asks
    ``witness_inside``.  ``TruncatedQ_a`` keeps that, since its radii
    have a positive lower end and so the caps of the host matter.

    ``weak_scale()`` is the scale a weak check out of this kind decides
    on: the kind itself, or on ConnectedOpen and the end-class kinds the
    trivial scale, whose ``has_witness`` is theirs (each override argues
    it).

    ``ladder(x, critical)`` describes the probe family of x as a
    ``Ladder`` on Trivial and ConnectedOpen (the whole carrier, then ball
    cuts to x's carrier piece), on the ball kinds (balls of radius a + d,
    after CQ_Oa's a-ball and before the whole line of Q_a, Q_Oa and
    BQ_Oa) and on the trace kinds (ball cuts to the carrier's sheet),
    whose ``iter_point_probes`` is this class's, built from it.  The
    end-class kinds and ``PStructure`` have none and yield their own
    families.  A ladder is nested (see ``Ladder``), so a weak check may
    end it early; the continuity checkers also read it as radii wherever
    they decide from jump germs (see ``interval_continuity``, "The germ
    choice").

    Precondition on points: ``member``, ``witness_inside`` and
    ``has_witness`` take x in the carrier, and the continuity checkers
    validate x once before they call them (the map's ``eval``), so most
    kinds do not check it again.  ``iter_point_probes`` and ``ladder``
    check it."""

    carrier: Carrier

    tag: str = field(init=False, default="")

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        """Is s assigned to x; x must lie in the carrier."""
        raise NotImplementedError

    def is_q_open(self, s: SheetSet) -> bool:
        raise NotImplementedError

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        """Some set assigned to x inside s, or None; x must lie in the
        carrier."""
        raise NotImplementedError

    def has_witness(self, x: SheetPoint, s: SheetSet) -> bool:
        """Whether some set assigned to x lies inside s, that is, whether
        ``witness_inside(x, s)`` is not None; x must lie in the carrier."""
        return self.witness_inside(x, s) is not None

    def weak_scale(self) -> IntervalScale:
        """A scale on the same carrier whose ``has_witness`` is this one's."""
        return self

    def iter_point_probes(
        self, x: SheetPoint, critical: Sequence[ExactNumber] = ()
    ) -> Iterator[SheetSet]:
        """Assigned neighborhoods of x, in order, each built only when it
        is taken, so a check that stops early builds no more; the radii
        of the ball and trace ladders are computed lazily too.  Here the
        probes of ``ladder(x, critical)``.  Raises ``ValueError`` for x
        outside the carrier (when the first probe is taken, on the
        end-class kinds, whose probes are a generator)."""
        return self.ladder(x, critical).probes()

    def ladder(self, x: SheetPoint, critical: Sequence[ExactNumber] = ()) -> Ladder | None:
        """The probe family of x as a ``Ladder``, on kinds whose family is
        one (every kind but the end-class kinds and ``PStructure``), else
        None.  Raises ``ValueError`` for x outside the carrier."""
        return None

    def params(self) -> dict:
        return {}

    def _contains_point(self, x: SheetPoint) -> None:
        if not self.carrier.member(x):
            raise ValueError(f"point {x} outside this scale's carrier")


# -- trivial ------------------------------------------------------------------


class Ladder(NamedTuple):
    """A probe family read as radii: the ``head`` probes, then, for each
    radius r of ``radii`` in ascending order, ``probe(r)``, the cut of the
    open ball (x - r, x + r) to ``home`` lifted to the sheet of the centre
    x, then the ``tail`` probes.  ``home`` is a set on the line of x's
    sheet that holds x: the carrier piece holding x (Trivial,
    ConnectedOpen and the ball kinds) or the carrier's sheet (the trace
    kinds).  The radii are computed as they are read, and can be read
    once; there may be none, as at a ``SymmetricIntervals`` point outside
    its ambient bounds.

    Nested: every ladder has at most one head probe, radii that rise, and
    a tail that is empty or the whole carrier.  So each probe from the
    second on contains the probe before it: a bigger ball's cut to
    ``home`` contains a smaller one's, and the whole carrier contains
    every probe.  (The head probe is free, so a family may open with the
    whole carrier.)  A weak check ends a ladder at the first probe of
    index 1 or more that it passes or skips, since every later probe
    contains that one."""

    head: tuple[SheetSet, ...]
    carrier: Carrier
    center: SheetPoint
    home: LineSet
    radii: Iterator[ExactNumber]
    tail: tuple[SheetSet, ...] = ()

    def probe(self, r: ExactNumber) -> SheetSet:
        return self.carrier.lift(self.home.intersect(_ball(self.center.x, r)), self.center.sheet)

    def probes(self) -> Iterator[SheetSet]:
        """The family, each probe built only when it is taken."""
        yield from self.head
        for r in self.radii:
            yield self.probe(r)
        yield from self.tail


def _open_component_ladder(
    carrier: Carrier, x: SheetPoint, critical: Sequence[ExactNumber]
) -> Ladder:
    """The whole carrier, then the open component around x inside each
    open ball at a derived radius.  That component is the ball cut to the
    carrier piece holding x: the ball is open, so the cut keeps only
    closed ends of that piece, and the interior keeps those."""
    home = LineSet((_piece_holding(carrier.sheets[x.sheet], x.x),))
    return Ladder((carrier.whole(),), carrier, x, home, _derived_radii(x.x, critical))


@dataclass(frozen=True)
class TrivialIntervalScale(IntervalScale):
    """All relatively open neighborhoods."""

    tag: str = field(init=False, default="Trivial")

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        return s.member(x) and is_open_in_carrier(self.carrier, s)

    def is_q_open(self, s: SheetSet) -> bool:
        return not s.is_empty and is_open_in_carrier(self.carrier, s)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        return interior_component_containing(self.carrier, s, x)

    def ladder(self, x, critical=()):
        self._contains_point(x)
        return _open_component_ladder(self.carrier, x, critical)


# -- ball kinds on the full line -------------------------------------------------


def _require_full_line(carrier: Carrier) -> None:
    if carrier.sheets != (LineSet.full_line(),):
        raise ValueError("ball scale kinds require the full-line carrier")


def _line_ladder(
    carrier: Carrier, x: SheetPoint, a: ExactNumber, critical: Sequence[ExactNumber],
    head: tuple[SheetSet, ...] = (), tail: tuple[SheetSet, ...] = (),
) -> Ladder:
    """The open balls around x of radius a plus each derived radius, on
    the full-line ``carrier``, whose one sheet is their home."""
    xx = _single_sheet_point(x)
    radii = (a + d for d in _derived_radii(xx, critical))
    return Ladder(head, carrier, x, carrier.sheets[0], radii, tail)


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
        # An open piece holds a closed a-ball when wider than 2a, an open
        # one when at least 2a wide.
        widths = _above(self.a * 2, not self.closed_ball)
        return any(
            piece.lo is None or piece.hi is None or widths.contains(piece.hi - piece.lo)
            for piece in line.pieces
        )

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

    def ladder(self, x, critical=()):
        return _line_ladder(self.carrier, x, self.a, critical, tail=(self.carrier.whole(),))


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

    def _radii(self) -> Interval:
        return _above(self.a, not self.strict)

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
        xx = _single_sheet_point(x)
        piece = _open_interval(s)
        return (
            piece is not None
            and piece.lo + piece.hi == xx * 2
            and self._radii().contains(piece.hi - xx)
        )

    def is_q_open(self, s: SheetSet) -> bool:
        piece = _open_interval(s)
        return piece is not None and self._radii().contains((piece.hi - piece.lo) * _HALF)

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        r = _capped_radius(self._radii(), xx, _piece_holding(_single_line(s), xx))
        return None if r is None else SheetSet((_ball(xx, r),))

    def ladder(self, x, critical=()):
        head = () if self.strict else (SheetSet((_ball(_single_sheet_point(x), self.a),)),)
        return _line_ladder(self.carrier, x, self.a, critical, head=head)


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
        radii = _above(self.a, self.a.sign() > 0)
        r = _capped_radius(radii, xx, _piece_holding(line, xx))
        return None if r is None else SheetSet((_ball(xx, r),))

    def ladder(self, x, critical=()):
        return _line_ladder(self.carrier, x, self.a, critical, tail=(self.carrier.whole(),))


# -- carrier traces of symmetric balls ----------------------------------------------


@dataclass(frozen=True)
class _TraceScale(IntervalScale):
    """Traces carrier * (x-r, x+r) on a one-sheet carrier, with r in a
    set that each kind sets per point (``_radii``).

    A set s is such a trace iff s lies inside (x-r, x+r) and the ball
    misses every carrier point outside s.  Those points bound the host of
    x, the piece of the line holding x that avoids them; s must lie
    inside the host, and the ball fits while r stays within its ends."""

    def _radii(self, x: ExactNumber) -> Interval | None:
        """The radii admitted at x, None when there are none: an interval
        open at its lower end and closed at its upper end."""
        raise NotImplementedError

    def _host(self, line: LineSet, x: ExactNumber) -> Interval | None:
        """The piece of the line holding x that avoids every carrier point
        outside ``line``; None when x is such a point."""
        return _piece_holding(self.carrier.sheets[0].difference(line).complement(), x)

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
        line = _single_line(s)
        host = self._shaped_host(line, xx)
        if host is None:
            return False
        # The ball must pass each closed end of s and reach each open one.
        m, m_in, mm, mm_in = self._bounds_of(line)
        radii = self._radii(xx)
        if radii is not None:
            reach = _intersect_intervals(_above(xx - m, not m_in), _above(mm - xx, not mm_in))
            radii = _intersect_intervals(radii, reach)
        return _capped_radius(radii, xx, host) is not None

    def witness_inside(self, x: SheetPoint, s: SheetSet) -> SheetSet | None:
        xx = _single_sheet_point(x)
        r = _capped_radius(self._radii(xx), xx, self._host(_single_line(s), xx))
        return None if r is None else SheetSet((self.carrier.sheets[0].intersect(_ball(xx, r)),))

    def ladder(self, x, critical=()):
        xx = _single_sheet_point(x)
        self._contains_point(x)
        admitted = self._radii(xx)
        radii = (
            iter(())
            if admitted is None
            else _derived_radii(xx, critical, lower_excl=admitted.lo, upper_incl=admitted.hi)
        )
        return Ladder((), self.carrier, x, self.carrier.sheets[0], radii)


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

    def _radii(self, x: ExactNumber) -> Interval | None:
        return _at_most(_POSITIVE, [x - self.lo_amb, self.hi_amb - x])

    def has_witness(self, x: SheetPoint, s: SheetSet) -> bool:
        # Strictly inside its piece of s, x lies strictly inside its host,
        # which holds that piece, so both caps are positive and the radii
        # (0, min(x - lo_amb, hi_amb - x)] fit once that set is not empty.
        xx = _single_sheet_point(x)
        piece = _piece_holding(_single_line(s), xx)
        if (
            piece is not None
            and (piece.lo is None or piece.lo < xx)
            and (piece.hi is None or xx < piece.hi)
        ):
            return self.lo_amb < xx and xx < self.hi_amb
        return super().has_witness(x, s)

    def is_q_open(self, s: SheetSet) -> bool:
        line = _single_line(s)
        if line.is_empty or not line.is_bounded:
            return False
        first = line.pieces[0]
        inside = first.lo if first.lo_closed else (first.lo + first.hi) * _HALF
        host = self._shaped_host(line, inside)
        if host is None:
            return False
        # The ball (u, v) lies within the ambient bounds and the host, and
        # its ends pass each closed end of s and reach each open one.
        m, m_in, mm, mm_in = self._bounds_of(line)
        u_lo = self.lo_amb if host.lo is None else max(self.lo_amb, host.lo)
        v_hi = self.hi_amb if host.hi is None else min(self.hi_amb, host.hi)
        u = _intersect_intervals(_above(u_lo, True), _ordered(None, m, False, not m_in))
        v = _intersect_intervals(_above(mm, not mm_in), _ordered(None, v_hi, False, True))
        if u is None or v is None:
            return False
        # u.lo <= u.hi and v.lo <= v.hi, so the centres' ends are in order,
        # and equal only when u and v are points, whose ends are all closed:
        # the centres are never empty.
        centers = _ordered(
            (u.lo + v.lo) * _HALF,
            (u.hi + v.hi) * _HALF,
            u.lo_closed and v.lo_closed,
            u.hi_closed and v.hi_closed,
        )
        return not self.carrier.sheets[0].intersect(LineSet((centers,))).is_empty


# -- endpoint-rationality kinds ------------------------------------------------------


def _pick_of_class(lo: ExactNumber, hi: ExactNumber, rational: bool) -> ExactNumber:
    return rational_between(lo, hi) if rational else irrational_between(lo, hi)


@dataclass(frozen=True)
class EndClassScale(IntervalScale):
    """Bounded open intervals with endpoint rationality fixed by the kind.

    ``mode`` is "rational", "irrational", or "mixed"; the mixed mode uses
    the point's own rationality class, flipped when ``crossed`` (which
    only the mixed mode takes).

    Not nested: the probe at radius d picks its ends from (x-d, x-d/2)
    and (x+d/2, x+d), so for close radii d < d' the next probe's left end
    can lie right of this one's: at 1/3, with critical coordinates at
    distances 1/4 and 65/256, the rational-end probe (0, 9/16) follows
    (-1/32, 17/32).  So the kind has no ``Ladder``."""

    mode: str = "rational"
    crossed: bool = False

    def __post_init__(self) -> None:
        _require_full_line(self.carrier)
        if self.mode not in ("rational", "irrational", "mixed"):
            raise ValueError("mode must be rational, irrational, or mixed")
        if self.crossed and self.mode != "mixed":
            raise ValueError("only the mixed mode can be crossed")
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
        # The ends of x's piece of s, an infinite end replaced by x -/+ 2;
        # unless x lies strictly inside them, no open interval inside s
        # contains x.
        xx = _single_sheet_point(x)
        host = _piece_holding(_single_line(s), xx)
        if host is None:
            return None
        lo_floor = host.lo if host.lo is not None else xx - 2
        hi_ceil = host.hi if host.hi is not None else xx + 2
        if not (lo_floor < xx and xx < hi_ceil):
            return None
        return self._of_class(xx, lo_floor, xx, xx, hi_ceil)

    def weak_scale(self) -> IntervalScale:
        """The trivial scale: ``witness_inside`` finds a witness exactly when
        x lies strictly inside its piece of s, as ends of each class lie in
        every open interval, and on the line, the kind's only carrier, that
        is x relatively interior to s."""
        return TrivialIntervalScale(self.carrier)

    def iter_point_probes(self, x, critical=()):
        xx = _single_sheet_point(x)
        for d in _derived_radii(xx, critical):
            yield self._of_class(xx, xx - d, xx - d * _HALF, xx + d * _HALF, xx + d)


# -- connected relatively open neighborhoods ------------------------------------------


@dataclass(frozen=True)
class ConnectedOpenScale(IntervalScale):
    """The whole carrier plus connected relatively open neighborhoods."""

    tag: str = field(init=False, default="ConnectedOpen")

    def member(self, x: SheetPoint, s: SheetSet) -> bool:
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
        if s == self.carrier.whole():
            return s
        return interior_component_containing(self.carrier, s, x)

    def weak_scale(self) -> IntervalScale:
        """The trivial scale: ``witness_inside`` returns s when s is the
        carrier, where every point is relatively interior, and else the
        trivial scale's witness, the interior component of s at x, which
        is connected and relatively open, so assigned."""
        return TrivialIntervalScale(self.carrier)

    def ladder(self, x, critical=()):
        self._contains_point(x)
        return _open_component_ladder(self.carrier, x, critical)


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

    def _radii(self, x: ExactNumber) -> Interval | None:
        # k > a, and the ball may overhang only the segment end that x is
        # within a of; an edge point's ball always overhangs that end.
        caps = []
        if x > self.lo + self.a:
            caps.append(x - self.lo)
        if x < self.hi - self.a:
            caps.append(self.hi - x)
        return _at_most(_above(self.a, False), caps)

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
