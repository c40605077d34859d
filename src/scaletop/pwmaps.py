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

from .exactnum import ExactNumber, _cmp
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
    _touches,
    normalize,
    point_interval,
)


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


class MapDomainError(ValueError):
    """Raised when a point or set falls outside the relevant carrier."""


def _index_holding(pieces: tuple[AffinePiece, ...], p: SheetPoint) -> int:
    for i, piece in enumerate(pieces):
        if piece.part.contains(p.x):
            return i
    raise MapDomainError(f"point {p} outside the domain carrier")


@dataclass(frozen=True)
class PiecewiseAffineMap:
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
        so they call ``_preimage`` and skip this check.  The
        strong at-point, global and ``PStructure`` checks read the whole
        preimage, and so does every failure certificate; weak at-point and
        weak local checks on the other kinds read only
        ``_preimage_component``."""
        if not s.issubset(self.codomain):
            raise MapDomainError("preimage argument not inside the codomain carrier")
        return self._preimage(s)

    def _preimage(self, s: SheetSet) -> SheetSet:
        # The pieces of a sheet are disjoint and in order, and each piece's
        # cuts come out in order, so one merge makes them canonical.
        out = []
        for pieces in self._sheet_pieces:
            cuts = []
            for piece in pieces:
                cuts += piece._cuts(s.sheets[piece.out_sheet])
            out.append(_merge_sorted(cuts))
        return SheetSet(tuple(out))

    def _preimage_component(self, s: SheetSet, p: SheetPoint) -> SheetSet | None:
        """The component around p of ``_preimage(s)``, that is
        ``component_containing(self._preimage(s), p)``, found by walking
        outward from the piece holding p: within a piece the cuts are
        separated, so the component crosses into the next piece only from
        the last cut of a piece, and on into a third only when the next
        piece has that one cut."""
        pieces = self._pieces_on(p)
        i = _index_holding(pieces, p)
        cuts = pieces[i]._cuts(s.sheets[pieces[i].out_sheet])
        k = next((k for k, cut in enumerate(cuts) if cut.contains(p.x)), None)
        if k is None:
            return None
        comp = cuts[k]
        # A cut of a later piece ends after every cut of an earlier one, so
        # merging two touching cuts keeps the outer ends, as _merge_sorted
        # does.
        if k == len(cuts) - 1:
            for piece in pieces[i + 1 :]:
                more = piece._cuts(s.sheets[piece.out_sheet])
                if not more or not _touches(comp, more[0]):
                    break
                comp = _ordered(comp.lo, more[0].hi, comp.lo_closed, more[0].hi_closed)
                if len(more) > 1:
                    break
        if k == 0:
            for piece in reversed(pieces[:i]):
                more = piece._cuts(s.sheets[piece.out_sheet])
                if not more or not _touches(more[-1], comp):
                    break
                comp = _ordered(more[-1].lo, comp.hi, more[-1].lo_closed, comp.hi_closed)
                if len(more) > 1:
                    break
        out = [LineSet.empty()] * len(self._sheet_pieces)
        out[p.sheet] = LineSet((comp,))
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
        value = self.eval(p).x
        left, right = self.one_sided_limits(p)
        candidates = []
        if left is not None:
            candidates.append(abs(value - left))
        if right is not None:
            candidates.append(abs(value - right))
        if left is not None and right is not None:
            candidates.append(abs(left - right))
        if not candidates:
            return ExactNumber(0)
        return max(candidates)

    def gaps(self) -> list[tuple[SheetPoint, ExactNumber]]:
        """All points with positive gap.  Away from piece endpoints the map
        is affine on a carrier interval, so only finitely many candidate
        points need checking."""
        out = []
        for sheet in range(self.domain.n_sheets):
            candidates: set[ExactNumber] = set()
            for piece in self.pieces:
                if piece.sheet != sheet:
                    continue
                for end in (piece.part.lo, piece.part.hi):
                    if end is not None and self.domain.sheets[sheet].member(end):
                        candidates.add(end)
            for x in sorted(candidates):
                p = SheetPoint(sheet, x)
                g = self.gap(p)
                if g.sign() > 0:
                    out.append((p, g))
        return out


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
