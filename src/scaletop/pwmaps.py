"""Piecewise-affine maps between sheeted carriers, with exact one-sided
limits, jump ("gap") computation, composition, and bounded-jump
continuity.

A map is a finite list of affine pieces with rational slope and
intercept, so images and preimages of Q(sqrt(2)) points stay in the
field.  The pieces must cover the domain carrier exactly once; values
at breakpoints are carried by whichever piece (possibly degenerate)
contains the breakpoint, which keeps removable discontinuities
representable.

The gap at a point is the largest discrepancy among the value and the
two one-sided limits; at carrier boundary points only the defined side
contributes.  A map is fuzzy continuous at level ``a`` when every gap
is at most ``a`` (inclusive threshold).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactnum import ExactNumber, _cmp, irrational_between
from .intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _cmp_lower,
    _cmp_upper,
    _merge_sorted,
    _ordered,
    normalize,
    point_interval,
)

_ZERO = ExactNumber(0)


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece: on ``part`` of domain sheet ``sheet``, the map is
    x -> slope*x + intercept, landing on codomain sheet ``out_sheet``.

    The image interval and the inverse are computed on first use and kept
    on the piece, outside the fields."""

    sheet: int
    part: Interval
    out_sheet: int
    slope: Fraction
    intercept: Fraction

    def value_at(self, x: ExactNumber) -> ExactNumber:
        return x * self.slope + self.intercept

    def image_interval(self) -> Interval:
        return self._image

    @functools.cached_property
    def _image(self) -> Interval:
        if self.slope == 0:
            return point_interval(ExactNumber(self.intercept))
        lo, hi = self.part.lo, self.part.hi
        lo_v = None if lo is None else self.value_at(lo)
        hi_v = None if hi is None else self.value_at(hi)
        if self.slope > 0:
            return Interval(lo_v, hi_v, self.part.lo_closed, self.part.hi_closed)
        return Interval(hi_v, lo_v, self.part.hi_closed, self.part.lo_closed)

    @functools.cached_property
    def _inverse(self) -> tuple[ExactNumber, ExactNumber]:
        """(1/slope, -intercept/slope) of a piece that is not constant, so
        that x = y*inv + shift solves slope*x + intercept = y."""
        return ExactNumber(1 / self.slope), ExactNumber(-self.intercept / self.slope)

    @functools.cached_property
    def _descending(self) -> bool:
        return self.slope < 0

    def preimage_interval(self, target: Interval) -> Interval | None:
        """Solve slope*x + intercept in target, restricted to this piece.

        The target is cut to the piece's image first, so a target that
        misses the image costs two comparisons, and an end that the image
        sets maps back to the piece's own end without arithmetic."""
        img = self._image
        if _cmp_lower(target.lo, target.lo_closed, img.lo, img.lo_closed) > 0:
            lo, lc, lo_img = target.lo, target.lo_closed, False
        else:
            lo, lc, lo_img = img.lo, img.lo_closed, True
        if _cmp_upper(target.hi, target.hi_closed, img.hi, img.hi_closed) < 0:
            hi, hc, hi_img = target.hi, target.hi_closed, False
        else:
            hi, hc, hi_img = img.hi, img.hi_closed, True
        if lo is not None and hi is not None:
            c = _cmp(lo, hi)
            if c > 0 or (c == 0 and not (lc and hc)):
                return None
        part = self.part
        if lo_img and hi_img:
            # The target holds the image, as it must when the piece is
            # constant and the cut is not empty.
            return part
        inv, shift = self._inverse
        if not self._descending:
            x_lo = part.lo if lo_img else lo * inv + shift
            x_hi = part.hi if hi_img else hi * inv + shift
            return _ordered(x_lo, x_hi, lc, hc)
        x_lo = part.lo if hi_img else hi * inv + shift
        x_hi = part.hi if lo_img else lo * inv + shift
        return _ordered(x_lo, x_hi, hc, lc)

    def _cuts(self, line: LineSet) -> list[Interval]:
        """The pieces of this part that map into ``line``, in domain order.
        They are mutually separated: the map is a homeomorphism of the part
        onto its image (or constant, giving at most one cut)."""
        targets = line.pieces
        if self._descending:
            targets = reversed(targets)
        out = []
        for target in targets:
            cut = self.preimage_interval(target)
            if cut is not None:
                out.append(cut)
        return out


_by_lower_end = functools.cmp_to_key(
    lambda x, y: _cmp_lower(
        x.part.lo, x.part.lo_closed, y.part.lo, y.part.lo_closed
    )
)


class Germ(NamedTuple):
    """f near a jump point: the value there and each side that jumps, as
    ``(codomain sheet, limit, approach)`` (see
    ``PiecewiseAffineMap._germs``)."""

    value: SheetPoint
    sides: tuple[tuple[int, ExactNumber, int], ...]


def _in_image_closure(piece: AffinePiece, y: SheetPoint) -> bool:
    img = piece._image
    return (
        y.sheet == piece.out_sheet
        and (img.lo is None or img.lo <= y.x)
        and (img.hi is None or y.x <= img.hi)
    )


class MapDomainError(ValueError):
    """Raised when a point or set falls outside the relevant carrier."""


def _index_holding(pieces: tuple[AffinePiece, ...], p: SheetPoint) -> int:
    for i, piece in enumerate(pieces):
        if piece.part.contains(p.x):
            return i
    raise MapDomainError(f"point {p} outside the domain carrier")


def _critical_coords(intervals, carrier: Carrier) -> tuple[ExactNumber, ...]:
    """The sorted finite ends of ``intervals`` and of the carrier's pieces."""
    out: set[ExactNumber] = set()
    for iv in intervals:
        for end in (iv.lo, iv.hi):
            if end is not None:
                out.add(end)
    for ls in carrier.sheets:
        out.update(ls.finite_endpoints())
    return tuple(sorted(out))


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """A piecewise-affine map from ``domain`` to ``codomain``.

    Data that depend on the map alone are computed on first use and kept
    on the map, outside the fields:

    * the sorted critical coordinates of each side, the default probe
      points and the global anchors, as tuples;
    * the germs at the jump points (``_germs``), a dict keyed by jump
      point, from which the checkers and ``gap`` / ``gaps`` read the
      jumps;
    * whether the pieces reach every jump value
      (``_jump_values_reached``)."""

    domain: Carrier
    codomain: Carrier
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self) -> None:
        by_sheet = []
        for sheet in range(self.domain.n_sheets):
            pieces = sorted(
                (p for p in self.pieces if p.sheet == sheet), key=_by_lower_end
            )
            parts = [p.part for p in pieces]
            if normalize(parts) != self.domain.sheets[sheet]:
                raise ValueError(f"pieces do not cover domain sheet {sheet} exactly")
            by_sheet.append(tuple(pieces))
            for i, a in enumerate(parts):
                for b in parts[i + 1 :]:
                    if not LineSet((a,)).intersect(LineSet((b,))).is_empty:
                        raise ValueError(f"overlapping pieces on domain sheet {sheet}")
        for p in self.pieces:
            if not 0 <= p.out_sheet < self.codomain.n_sheets:
                raise ValueError("piece routes to a nonexistent codomain sheet")
            img = LineSet((p.image_interval(),))
            if not img.issubset(self.codomain.sheets[p.out_sheet]):
                raise ValueError("piece image leaves the codomain carrier")
        # Each domain sheet's pieces in order, outside the fields, so that
        # equality, hashing and repr see only the pieces as given.
        object.__setattr__(self, "_sheet_pieces", tuple(by_sheet))

    # -- data derived once -------------------------------------------------

    @functools.cached_property
    def _domain_criticals(self) -> tuple[ExactNumber, ...]:
        return _critical_coords((piece.part for piece in self.pieces), self.domain)

    @functools.cached_property
    def _codomain_criticals(self) -> tuple[ExactNumber, ...]:
        return _critical_coords(
            (piece.image_interval() for piece in self.pieces), self.codomain
        )

    @functools.cached_property
    def _global_anchors(self) -> tuple[SheetPoint, ...]:
        """The centres of the generated global probe families: on each
        codomain sheet, the codomain critical coordinates that lie on it,
        then the midpoint of each of its bounded pieces with two ends."""
        anchors: list[SheetPoint] = []
        for sheet, line in enumerate(self.codomain.sheets):
            anchors += [
                SheetPoint(sheet, c) for c in self._codomain_criticals if line.member(c)
            ]
            anchors += [
                SheetPoint(sheet, piece.lo + (piece.hi - piece.lo) / 2)
                for piece in line.pieces
                if piece.lo is not None and piece.hi is not None and piece.lo < piece.hi
            ]
        return tuple(anchors)

    @functools.cached_property
    def _default_points(self) -> tuple[SheetPoint, ...]:
        """Carrier and piece endpoints that lie in the domain, plus one
        rational and one irrational interior point per carrier piece (a
        piece of ``domain``, not a piece of the map)."""
        points: list[SheetPoint] = []
        seen: set[SheetPoint] = set()

        def add(sheet: int, x: ExactNumber) -> None:
            p = SheetPoint(sheet, x)
            if p not in seen and self.domain.member(p):
                seen.add(p)
                points.append(p)

        for sheet, line in enumerate(self.domain.sheets):
            for c in self._domain_criticals:
                add(sheet, c)
            for piece in line.pieces:
                lo = piece.lo if piece.lo is not None else (
                    piece.hi - 2 if piece.hi is not None else ExactNumber(-1)
                )
                hi = piece.hi if piece.hi is not None else lo + 2
                if lo < hi:
                    mid = lo + (hi - lo) / 2
                    add(sheet, mid)
                    add(sheet, irrational_between(lo, hi))
                else:
                    add(sheet, lo)
        return tuple(points)

    @functools.cached_property
    def _germs(self) -> dict[SheetPoint, Germ]:
        """The germ of f at each jump point z: each domain critical point in
        the domain where a one-sided limit differs from f(z).  A limit is a
        codomain point, so a side that lands on another sheet is a jump
        even where the coordinates agree.  Off the critical points f is
        affine near each point, so f is continuous at every domain point
        that is no jump point, and continuous when there is none.

        A germ keeps f(z) and each side that jumps, as ``(sheet, limit,
        approach)``: the codomain sheet and the limit of the side piece at
        z, and how its values near z tend to the limit (1 from above, -1
        from below, 0 constant).  A side whose limit is f(z) is left out."""
        out = {}
        for sheet, line in enumerate(self.domain.sheets):
            for x in self._domain_criticals:
                if not line.member(x):
                    continue
                z = SheetPoint(sheet, x)
                value = self.eval(z)
                sides = []
                for left in (True, False):
                    piece = self._side_piece(z, left)
                    if piece is None:
                        continue
                    limit = SheetPoint(piece.out_sheet, piece.value_at(x))
                    if limit != value:
                        sign = (piece.slope > 0) - (piece.slope < 0)
                        sides.append((limit.sheet, limit.x, -sign if left else sign))
                if sides:
                    out[z] = Germ(value, tuple(sides))
        return out

    @functools.cached_property
    def _jump_values_reached(self) -> bool:
        """Whether every jump value f(z) lies in the closure of the image of
        some piece whose part is not a single point."""
        spread = [piece for piece in self.pieces if not piece.part.is_point]
        return all(
            any(_in_image_closure(piece, germ.value) for piece in spread)
            for germ in self._germs.values()
        )

    # -- evaluation --------------------------------------------------------

    def piece_at(self, p: SheetPoint) -> AffinePiece:
        pieces = self._pieces_on(p)
        return pieces[_index_holding(pieces, p)]

    def _pieces_on(self, p: SheetPoint) -> tuple[AffinePiece, ...]:
        """The pieces, in order, of the domain sheet that p names."""
        if not 0 <= p.sheet < len(self._sheet_pieces):
            raise MapDomainError(f"point {p} outside the domain carrier")
        return self._sheet_pieces[p.sheet]

    def eval(self, p: SheetPoint) -> SheetPoint:
        """f(p); raises ``MapDomainError`` for a point outside the domain.
        The continuity checkers validate a domain point here, once, and
        decide on it with the scale predicates unchecked."""
        piece = self.piece_at(p)
        return SheetPoint(piece.out_sheet, piece.value_at(p.x))

    def image(self, s: SheetSet) -> SheetSet:
        if not s.issubset(self.domain):
            raise MapDomainError("image argument not inside the domain carrier")
        out = [LineSet.empty()] * self.codomain.n_sheets
        for piece in self.pieces:
            cut = LineSet((piece.part,)).intersect(s.sheets[piece.sheet])
            imgs = [
                AffinePiece(
                    piece.sheet, part, piece.out_sheet, piece.slope, piece.intercept
                ).image_interval()
                for part in cut.pieces
            ]
            out[piece.out_sheet] = out[piece.out_sheet].union(normalize(imgs))
        return SheetSet(tuple(out))

    def preimage(self, s: SheetSet) -> SheetSet:
        """The whole preimage of ``s``, which must lie in the codomain.

        The continuity checkers pull back probes of the codomain scale,
        which lie in the codomain by the ``IntervalScale`` probe contract,
        so they call ``_preimage`` and skip this check.  Every check
        decides on the whole preimage, and every failure certificate
        carries it."""
        if not s.issubset(self.codomain):
            raise MapDomainError("preimage argument not inside the codomain carrier")
        return self._preimage(s)

    def _preimage(self, s: SheetSet) -> SheetSet:
        # The whole codomain pulls back to the whole domain: the pieces
        # cover the domain exactly once and map into the codomain.
        if s.sheets is self.codomain.sheets:
            return SheetSet(self.domain.sheets)
        # The pieces of a sheet are disjoint and in order, and each piece's
        # cuts come out in order, so one merge makes them canonical.
        out = []
        for pieces in self._sheet_pieces:
            cuts = []
            for piece in pieces:
                cuts += piece._cuts(s.sheets[piece.out_sheet])
            out.append(_merge_sorted(cuts))
        return SheetSet(tuple(out))

    # -- limits and gaps ----------------------------------------------------

    def _side_piece(self, p: SheetPoint, left: bool) -> AffinePiece | None:
        """The piece covering points immediately to one side of p, if the
        carrier has points there."""
        for piece in self.pieces:
            if piece.sheet != p.sheet:
                continue
            part = piece.part
            if left:
                below = part.lo is None or part.lo < p.x
                reaches = part.hi is None or part.hi >= p.x
            else:
                below = part.hi is None or part.hi > p.x
                reaches = part.lo is None or part.lo <= p.x
            if below and reaches:
                return piece
        return None

    def one_sided_limits(
        self, p: SheetPoint
    ) -> tuple[ExactNumber | None, ExactNumber | None]:
        """(left, right) limits at p; None where the carrier has no points
        on that side.  Requires the adjacent pieces to land on the same
        codomain sheet as the value at p."""
        own = self.piece_at(p)
        out: list[ExactNumber | None] = []
        for left in (True, False):
            piece = self._side_piece(p, left)
            if piece is None:
                out.append(None)
            else:
                if piece.out_sheet != own.out_sheet:
                    raise ValueError(
                        "one-sided limit crosses codomain sheets; gap undefined"
                    )
                out.append(piece.value_at(p.x))
        return out[0], out[1]

    def gap(self, p: SheetPoint) -> ExactNumber:
        """The largest distance among f(p) and its one-sided limits: 0 off
        the jump points, where every limit is f(p).  Raises
        ``MapDomainError`` for p outside the domain, and ``ValueError``
        where a side lands on another codomain sheet."""
        self.eval(p)
        germ = self._germs.get(p)
        return _ZERO if germ is None else _germ_gap(germ)

    def gaps(self) -> list[tuple[SheetPoint, ExactNumber]]:
        """All points with positive gap, in domain order: the jump points
        (``_germs``), since a side whose limit is f(p) adds no distance."""
        return [(p, _germ_gap(germ)) for p, germ in self._germs.items()]


def _germ_gap(germ: Germ) -> ExactNumber:
    """The spread of f(z) and the limits of the sides that jump; raises
    ``ValueError`` for a side on another codomain sheet."""
    values = [germ.value.x]
    for sheet, limit, _ in germ.sides:
        if sheet != germ.value.sheet:
            raise ValueError("one-sided limit crosses codomain sheets; gap undefined")
        values.append(limit)
    return max(values) - min(values)


def compose(g: PiecewiseAffineMap, f: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Exact representative of g o f; breakpoints are f's breakpoints plus
    preimages under f of g's breakpoints."""
    if f.codomain.n_sheets != g.domain.n_sheets or not f.codomain.issubset(g.domain):
        raise MapDomainError("codomain of f is not contained in the domain of g")
    pieces: list[AffinePiece] = []
    for fp in f.pieces:
        if fp.slope == 0:
            c = ExactNumber(fp.intercept)
            gp = g.piece_at(SheetPoint(fp.out_sheet, c))
            pieces.append(
                AffinePiece(
                    fp.sheet,
                    fp.part,
                    gp.out_sheet,
                    Fraction(0),
                    Fraction(gp.value_at(c).a),
                )
            )
            continue
        for gp in g.pieces:
            if gp.sheet != fp.out_sheet:
                continue
            cut = fp.preimage_interval(gp.part)
            if cut is None:
                continue
            slope = gp.slope * fp.slope
            intercept = gp.slope * fp.intercept + gp.intercept
            pieces.append(AffinePiece(fp.sheet, cut, gp.out_sheet, slope, intercept))
    return PiecewiseAffineMap(f.domain, g.codomain, tuple(pieces))


def identity_map(carrier: Carrier) -> PiecewiseAffineMap:
    pieces = [
        AffinePiece(sheet, part, sheet, Fraction(1), Fraction(0))
        for sheet in range(carrier.n_sheets)
        for part in carrier.sheets[sheet].pieces
    ]
    return PiecewiseAffineMap(carrier, carrier, tuple(pieces))


def maps_extensionally_equal(
    f: PiecewiseAffineMap, g: PiecewiseAffineMap
) -> bool:
    """Pointwise equality decided on a finite certificate grid: two affine
    maps agreeing at two points of an interval agree on it."""
    if f.domain != g.domain or f.codomain != g.codomain:
        return False
    for sheet in range(f.domain.n_sheets):
        grid: set[ExactNumber] = set()
        for m in (f, g):
            for piece in m.pieces:
                if piece.sheet != sheet:
                    continue
                for end in (piece.part.lo, piece.part.hi):
                    if end is not None:
                        grid.add(end)
        samples: list[ExactNumber] = []
        carrier_sheet = f.domain.sheets[sheet]
        points = sorted(grid)
        for x in points:
            if carrier_sheet.member(x):
                samples.append(x)
        cells = (
            [(None, points[0])]
            + list(zip(points, points[1:]))
            + [(points[-1], None)]
            if points
            else [(None, None)]
        )
        for lo, hi in cells:
            if lo is None and hi is None:
                inner: list[ExactNumber] = [ExactNumber(0), ExactNumber(1)]
            elif lo is None:
                inner = [hi - 1, hi - 2]
            elif hi is None:
                inner = [lo + 1, lo + 2]
            elif lo < hi:
                third = (hi - lo) / 3
                inner = [lo + third, lo + third * 2]
            else:
                continue
            samples.extend(x for x in inner if carrier_sheet.member(x))
        for x in samples:
            p = SheetPoint(sheet, x)
            if f.eval(p) != g.eval(p):
                return False
    return True


@dataclass(frozen=True)
class FuzzyVerdict:
    """Outcome of a bounded-jump continuity test with failure witnesses."""

    holds: bool
    threshold: ExactNumber
    witnesses: tuple[tuple[SheetPoint, ExactNumber], ...]


def is_a_fuzzy_continuous(f: PiecewiseAffineMap, a: ExactNumber) -> FuzzyVerdict:
    """True iff every gap of f is at most ``a`` (inclusive threshold);
    witnesses list every point whose gap exceeds ``a``."""
    if a.sign() < 0:
        raise ValueError("fuzzy-continuity level must be nonnegative")
    bad = tuple((p, g) for p, g in f.gaps() if g > a)
    return FuzzyVerdict(not bad, a, bad)
