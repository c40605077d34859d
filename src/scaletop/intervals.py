"""Exact interval sets over Q(sqrt(2)) and sheeted carriers.

``Interval`` is a single (possibly unbounded, possibly degenerate)
interval with exact endpoints.  ``LineSet`` is a finite union of
intervals kept in canonical form: pieces are pairwise disjoint,
non-adjacent, and sorted, so structural equality is set equality.
``SheetSet`` lifts a LineSet to finitely many disjoint copies of the
line; a ``Carrier`` is a SheetSet used as the ambient subspace for
relative topology (openness, interior, closure, connectedness in the
subspace sense).

All operations are pure and exact; no floats are consulted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .exactnum import ExactNumber, _cmp

Bound = ExactNumber | None  # None encodes -inf for lower / +inf for upper

# Every bound test below makes one exact three-way comparison, ``_cmp``,
# and branches on its sign.


def _cmp_lower(v1: Bound, c1: bool, v2: Bound, c2: bool) -> int:
    """Order lower bounds; -inf first, closed before open at equal values."""
    if v1 is None:
        return 0 if v2 is None else -1
    if v2 is None:
        return 1
    c = _cmp(v1, v2)
    if c or c1 == c2:
        return c
    return -1 if c1 else 1


def _cmp_upper(v1: Bound, c1: bool, v2: Bound, c2: bool) -> int:
    """Order upper bounds; +inf last, open before closed at equal values."""
    if v1 is None:
        return 0 if v2 is None else 1
    if v2 is None:
        return -1
    c = _cmp(v1, v2)
    if c or c1 == c2:
        return c
    return 1 if c1 else -1


@dataclass(frozen=True)
class Interval:
    """One interval; infinite ends are open, degenerate needs both closed."""

    lo: Bound
    hi: Bound
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        if self.lo is None and self.lo_closed:
            raise ValueError("-inf end must be open")
        if self.hi is None and self.hi_closed:
            raise ValueError("+inf end must be open")
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError("interval requires lo <= hi")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise ValueError("degenerate interval requires closed ends")

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_open_interval(self) -> bool:
        return not self.lo_closed and not self.hi_closed

    def contains(self, p: ExactNumber) -> bool:
        if self.lo is not None:
            c = _cmp(p, self.lo)
            if c < 0 or (c == 0 and not self.lo_closed):
                return False
        if self.hi is not None:
            c = _cmp(p, self.hi)
            if c > 0 or (c == 0 and not self.hi_closed):
                return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"{left}{lo}, {hi}{right}"


def interval(
    lo: Bound,
    hi: Bound,
    lo_closed: bool = False,
    hi_closed: bool = False,
) -> Interval:
    return Interval(lo, hi, lo_closed, hi_closed)


def point_interval(p: ExactNumber) -> Interval:
    return Interval(p, p, True, True)


FULL_LINE_INTERVAL = Interval(None, None, False, False)

_new = object.__new__


def _ordered(lo: Bound, hi: Bound, lo_closed: bool, hi_closed: bool) -> Interval:
    """An ``Interval`` from ends the caller already knows to be valid (in
    order, infinite ends open, a point closed on both sides), built
    without ``__post_init__``: cuts, merges and balls come from valid
    intervals or are valid by construction."""
    iv = _new(Interval)
    d = iv.__dict__
    d["lo"] = lo
    d["hi"] = hi
    d["lo_closed"] = lo_closed
    d["hi_closed"] = hi_closed
    return iv


def _intersect_intervals(x: Interval, y: Interval) -> Interval | None:
    if _cmp_lower(x.lo, x.lo_closed, y.lo, y.lo_closed) >= 0:
        lo, lc = x.lo, x.lo_closed
    else:
        lo, lc = y.lo, y.lo_closed
    if _cmp_upper(x.hi, x.hi_closed, y.hi, y.hi_closed) <= 0:
        hi, hc = x.hi, x.hi_closed
    else:
        hi, hc = y.hi, y.hi_closed
    if lo is not None and hi is not None:
        c = _cmp(lo, hi)
        if c > 0 or (c == 0 and not (lc and hc)):
            return None
    return _ordered(lo, hi, lc, hc)


def _touches(first: Interval, second: Interval) -> bool:
    """True if ``first`` and ``second`` (first.lo <= second.lo) overlap or
    are adjacent, i.e. their union is a single interval."""
    if first.hi is None or second.lo is None:
        return True
    c = _cmp(second.lo, first.hi)
    return c < 0 or (c == 0 and (first.hi_closed or second.lo_closed))


@dataclass(frozen=True)
class LineSet:
    """Canonical finite union of intervals on one copy of the line."""

    pieces: tuple[Interval, ...]

    @staticmethod
    def of(*intervals: Interval) -> LineSet:
        return normalize(intervals)

    @staticmethod
    def empty() -> LineSet:
        return LineSet(())

    @staticmethod
    def full_line() -> LineSet:
        return LineSet((FULL_LINE_INTERVAL,))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def is_bounded(self) -> bool:
        return all(p.is_bounded for p in self.pieces)

    def member(self, p: ExactNumber) -> bool:
        return any(piece.contains(p) for piece in self.pieces)

    def union(self, other: LineSet) -> LineSet:
        return normalize(self.pieces + other.pieces)

    def intersect(self, other: LineSet) -> LineSet:
        """Merge walk over both canonical piece lists: the piece that ends
        first cannot meet anything later in the other list.  Pieces cut
        from disjoint, non-adjacent pieces stay so, and they come out in
        order, so the result is canonical without ``normalize``."""
        xs, ys = self.pieces, other.pieces
        if len(ys) == 1 and ys[0].lo is None and ys[0].hi is None:
            return self  # cut to the whole line
        nx, ny = len(xs), len(ys)
        out = []
        i = j = 0
        while i < nx and j < ny:
            x, y = xs[i], ys[j]
            z = _intersect_intervals(x, y)
            if z is not None:
                out.append(z)
            if _cmp_upper(x.hi, x.hi_closed, y.hi, y.hi_closed) <= 0:
                i += 1
            else:
                j += 1
        return LineSet(tuple(out))

    def complement(self) -> LineSet:
        """Complement within the whole line."""
        if not self.pieces:
            return LineSet.full_line()
        out = []
        first = self.pieces[0]
        if first.lo is not None:
            out.append(Interval(None, first.lo, False, not first.lo_closed))
        for left, right in zip(self.pieces, self.pieces[1:]):
            out.append(
                Interval(left.hi, right.lo, not left.hi_closed, not right.lo_closed)
            )
        last = self.pieces[-1]
        if last.hi is not None:
            out.append(Interval(last.hi, None, not last.hi_closed, False))
        # The gaps of a canonical set come out sorted, and each pair is
        # kept apart by a nonempty piece, so they are canonical as they are.
        return LineSet(tuple(out))

    def difference(self, other: LineSet) -> LineSet:
        return self.intersect(other.complement())

    def issubset(self, other: LineSet) -> bool:
        """Each piece must lie in one piece of ``other``: the first one that
        does not end before it, since every later one starts after that."""
        ys = other.pieces
        ny = len(ys)
        j = 0
        for x in self.pieces:
            while j < ny and _cmp_upper(ys[j].hi, ys[j].hi_closed, x.hi, x.hi_closed) < 0:
                j += 1
            if j == ny:
                return False
            y = ys[j]
            if _cmp_lower(y.lo, y.lo_closed, x.lo, x.lo_closed) > 0:
                return False
        return True

    def closure(self) -> LineSet:
        """Topological closure in the whole line (close finite endpoints).
        The closed pieces stay in order; two of them touch only where a
        point was missing between them, and one merge pass joins those."""
        return _merge_sorted(
            [
                Interval(p.lo, p.hi, p.lo is not None, p.hi is not None)
                for p in self.pieces
            ]
        )

    def interior(self) -> LineSet:
        """Topological interior in the whole line (open finite endpoints).
        Opening the ends of separated pieces keeps them separated and in
        order, so the result is canonical without a merge."""
        return LineSet(
            tuple(
                Interval(p.lo, p.hi, False, False)
                for p in self.pieces
                if not p.is_point
            )
        )

    def is_open_in_line(self) -> bool:
        return all(
            (p.lo is None or not p.lo_closed) and (p.hi is None or not p.hi_closed)
            for p in self.pieces
        )

    def finite_endpoints(self) -> list[ExactNumber]:
        out: list[ExactNumber] = []
        for p in self.pieces:
            if p.lo is not None:
                out.append(p.lo)
            if p.hi is not None and p.hi != p.lo:
                out.append(p.hi)
        return out

    def __str__(self) -> str:
        if not self.pieces:
            return "{}"
        return " u ".join(str(p) for p in self.pieces)


def normalize(intervals: Iterable[Interval]) -> LineSet:
    """Canonical form: sorted, merged where overlapping or adjacent."""
    items = [iv for iv in intervals if iv is not None]

    import functools

    def cmp(x: Interval, y: Interval) -> int:
        c = _cmp_lower(x.lo, x.lo_closed, y.lo, y.lo_closed)
        if c != 0:
            return c
        return _cmp_upper(x.hi, x.hi_closed, y.hi, y.hi_closed)

    items.sort(key=functools.cmp_to_key(cmp))
    return _merge_sorted(items)


def _merge_sorted(items: list[Interval]) -> LineSet:
    """Merge overlapping or adjacent neighbours of pieces sorted by lower
    bound; the result is canonical."""
    if not items:
        return LineSet(())
    merged = [items[0]]
    for nxt in items[1:]:
        cur = merged[-1]
        if _touches(cur, nxt):
            if _cmp_upper(nxt.hi, nxt.hi_closed, cur.hi, cur.hi_closed) > 0:
                hi, hc = nxt.hi, nxt.hi_closed
            else:
                hi, hc = cur.hi, cur.hi_closed
            merged[-1] = _ordered(cur.lo, hi, cur.lo_closed, hc)
        else:
            merged.append(nxt)
    return LineSet(tuple(merged))


class SheetPoint(NamedTuple):
    """A point of a sheeted carrier: (sheet index, coordinate)."""

    sheet: int
    x: ExactNumber


@dataclass(frozen=True, eq=False)
class SheetSet:
    """A subset of finitely many disjoint copies of the line."""

    sheets: tuple[LineSet, ...]

    def __post_init__(self) -> None:
        # A no-op kept on purpose: the generated ``__init__`` calls
        # ``__post_init__`` only when this class defines one, and
        # ``Carrier`` inherits that ``__init__`` to run its own checks.
        pass

    def __eq__(self, other: object) -> bool:
        # Value equality across SheetSet and its Carrier subclass.
        if not isinstance(other, SheetSet):
            return NotImplemented
        return self.sheets == other.sheets

    def __hash__(self) -> int:
        return hash(self.sheets)

    @property
    def n_sheets(self) -> int:
        return len(self.sheets)

    @property
    def is_empty(self) -> bool:
        return all(s.is_empty for s in self.sheets)

    @property
    def piece_count(self) -> int:
        return sum(len(s.pieces) for s in self.sheets)

    def member(self, p: SheetPoint) -> bool:
        if not 0 <= p.sheet < len(self.sheets):
            return False
        return self.sheets[p.sheet].member(p.x)

    def _check_arity(self, other: SheetSet) -> None:
        if len(self.sheets) != len(other.sheets):
            raise ValueError("sheet-set operands have different sheet counts")

    def union(self, other: SheetSet) -> SheetSet:
        self._check_arity(other)
        return SheetSet(tuple(a.union(b) for a, b in zip(self.sheets, other.sheets)))

    def intersect(self, other: SheetSet) -> SheetSet:
        self._check_arity(other)
        return SheetSet(
            tuple(a.intersect(b) for a, b in zip(self.sheets, other.sheets))
        )

    def difference(self, other: SheetSet) -> SheetSet:
        self._check_arity(other)
        return SheetSet(
            tuple(a.difference(b) for a, b in zip(self.sheets, other.sheets))
        )

    def issubset(self, other: SheetSet) -> bool:
        self._check_arity(other)
        return all(a.issubset(b) for a, b in zip(self.sheets, other.sheets))

    def closure(self) -> SheetSet:
        return SheetSet(tuple(s.closure() for s in self.sheets))

    @property
    def is_bounded(self) -> bool:
        return all(s.is_bounded for s in self.sheets)

    def __str__(self) -> str:
        if len(self.sheets) == 1:
            return str(self.sheets[0])
        return "; ".join(f"sheet {i}: {s}" for i, s in enumerate(self.sheets))


class Carrier(SheetSet):
    """The ambient subspace under consideration; sheets must be nonempty."""

    def __post_init__(self) -> None:
        if not self.sheets:
            raise ValueError("carrier needs at least one sheet")
        for i, s in enumerate(self.sheets):
            if s.is_empty:
                raise ValueError(f"carrier sheet {i} is empty")

    @staticmethod
    def of(*sheet_sets: LineSet) -> Carrier:
        return Carrier(tuple(sheet_sets))

    def empty_set(self) -> SheetSet:
        return SheetSet(tuple(LineSet.empty() for _ in self.sheets))

    def whole(self) -> SheetSet:
        return SheetSet(self.sheets)

    def lift(self, ls: LineSet, sheet: int = 0) -> SheetSet:
        """Embed a one-line set on the given sheet, empty elsewhere."""
        return SheetSet(
            tuple(ls if i == sheet else LineSet.empty() for i in range(self.n_sheets))
        )


def complement_within(carrier: SheetSet, s: SheetSet) -> SheetSet:
    if not s.issubset(carrier):
        raise ValueError("set is not contained in the carrier")
    return carrier.difference(s)


def _kept_closed_ends(piece: Interval, home: Interval) -> tuple[bool, bool]:
    """Which ends of ``piece`` stay closed in the relative interior, where
    ``home`` is the carrier piece holding it.  A closed end stays closed
    only if it is the same closed end of ``home``; otherwise carrier
    points lie just beyond it, and none of them are in the set, since a
    canonical set has no piece adjacent to ``piece``."""
    return (
        piece.lo_closed and home.lo_closed and piece.lo == home.lo,
        piece.hi_closed and home.hi_closed and piece.hi == home.hi,
    )


def is_open_in_carrier(carrier: SheetSet, s: SheetSet) -> bool:
    """Openness in the subspace topology: no point of s is a limit of
    carrier-minus-s.  Each piece of s lies in one carrier piece, the first
    one that does not end before it, so one walk per sheet finds it and
    checks that every closed end of the piece is kept."""
    if not s.issubset(carrier):
        raise ValueError("set is not contained in the carrier")
    for line, home_line in zip(s.sheets, carrier.sheets):
        homes = home_line.pieces
        j = 0
        for x in line.pieces:
            while _cmp_upper(homes[j].hi, homes[j].hi_closed, x.hi, x.hi_closed) < 0:
                j += 1
            if _kept_closed_ends(x, homes[j]) != (x.lo_closed, x.hi_closed):
                return False
    return True


def interior_in_carrier(carrier: SheetSet, s: SheetSet) -> SheetSet:
    if not s.issubset(carrier):
        raise ValueError("set is not contained in the carrier")
    return carrier.difference(carrier.difference(s).closure().intersect(carrier))


def is_connected_in_carrier(carrier: SheetSet, s: SheetSet) -> bool:
    """Connectedness of s as a subspace.  In canonical form the pieces are
    mutually separated, so s is connected iff it has at most one piece."""
    if not s.issubset(carrier):
        raise ValueError("set is not contained in the carrier")
    return s.piece_count <= 1


def interior_component_containing(
    carrier: SheetSet, s: SheetSet, p: SheetPoint
) -> SheetSet | None:
    """The component around p of the relative interior of s (cut to the
    carrier), that is ``component_containing(interior_in_carrier(carrier,
    s.intersect(carrier)), p)``, without building the interior: the piece
    of s holding p cut to the carrier piece holding p, with each closed
    end kept only where the carrier piece keeps it."""
    s._check_arity(carrier)
    if not 0 <= p.sheet < len(s.sheets):
        return None
    piece = _piece_holding(s.sheets[p.sheet], p.x)
    home = _piece_holding(carrier.sheets[p.sheet], p.x)
    if piece is None or home is None:
        return None
    cut = _intersect_intervals(piece, home)
    lc, hc = _kept_closed_ends(cut, home)
    if (cut.lo_closed and not lc and p.x == cut.lo) or (
        cut.hi_closed and not hc and p.x == cut.hi
    ):
        return None  # p is an end that the interior drops
    out = [LineSet.empty()] * len(s.sheets)
    out[p.sheet] = LineSet((Interval(cut.lo, cut.hi, lc, hc),))
    return SheetSet(tuple(out))


def _piece_holding(line: LineSet, x: ExactNumber) -> Interval | None:
    for piece in line.pieces:
        if piece.contains(x):
            return piece
    return None


def component_containing(s: SheetSet, p: SheetPoint) -> SheetSet | None:
    """The connected component (single piece) of s containing p, if any."""
    if not 0 <= p.sheet < len(s.sheets):
        return None
    for piece in s.sheets[p.sheet].pieces:
        if piece.contains(p.x):
            out = [LineSet.empty()] * len(s.sheets)
            out[p.sheet] = LineSet((piece,))
            return SheetSet(tuple(out))
    return None
