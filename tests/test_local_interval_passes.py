"""The one-pass forms of the interval layer against the whole-set forms
they replace.

* ``interior_component_containing`` against
  ``component_containing(interior_in_carrier(C, s ∩ C), p)``;
* ``is_open_in_carrier`` against ``s ∩ cl(C \\ s) = ∅``;
* ``PiecewiseAffineMap.preimage`` against the union of each piece's
  ``normalize``d cuts, each cut solved through ``1/slope`` and cut to
  the piece;
* the first occurrences of ``_open_component_ladder``'s probes against a list
  scanned for repeats;
* ``_TraceScale._host`` against the piece holding x of the complement
  of carrier-minus-s (today the same expression; the test guards it);
* a ``PStructure`` weak decision that needs the whole preimage, not its
  component around the point.

The references are written out here as the library computed them
before, so a change to the library cannot move both sides.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from scaletop.continuity import ContinuityMode
from scaletop.exactnum import ExactNumber
from scaletop.interval_continuity import _holds_at
from scaletop.interval_scales import (
    PStructureIntervalScale,
    SymmetricIntervalScale,
    _derived_radii,
    _open_component_ladder,
    segment_carrier,
)
from scaletop.intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _piece_holding,
    component_containing,
    interior_component_containing,
    interior_in_carrier,
    is_open_in_carrier,
    normalize,
    point_interval,
)
from scaletop.pwmaps import AffinePiece, MapDomainError, PiecewiseAffineMap


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


# -- references -------------------------------------------------------------


def ref_component(carrier: SheetSet, s: SheetSet, p: SheetPoint) -> SheetSet | None:
    return component_containing(interior_in_carrier(carrier, s.intersect(carrier)), p)


def ref_is_open(carrier: SheetSet, s: SheetSet) -> bool:
    if not s.issubset(carrier):
        raise ValueError("set is not contained in the carrier")
    return s.intersect(carrier.difference(s).closure()).is_empty


def ref_preimage_interval(piece: AffinePiece, target: Interval) -> Interval | None:
    if piece.slope == 0:
        return piece.part if target.contains(ExactNumber(piece.intercept)) else None
    inv = Fraction(1, 1) / piece.slope
    lo, hi = target.lo, target.hi
    lo_v = None if lo is None else (lo - piece.intercept) * inv
    hi_v = None if hi is None else (hi - piece.intercept) * inv
    if piece.slope > 0:
        pre = LineSet((Interval(lo_v, hi_v, target.lo_closed, target.hi_closed),))
    else:
        pre = LineSet((Interval(hi_v, lo_v, target.hi_closed, target.lo_closed),))
    cut = pre.intersect(LineSet((piece.part,))).pieces
    return cut[0] if cut else None


def ref_preimage(m: PiecewiseAffineMap, s: SheetSet) -> SheetSet:
    if not s.issubset(m.codomain):
        raise MapDomainError("preimage argument not inside the codomain carrier")
    out = [LineSet.empty()] * m.domain.n_sheets
    for piece in m.pieces:
        target = s.sheets[piece.out_sheet]
        pres = [ref_preimage_interval(piece, t) for t in target.pieces]
        out[piece.sheet] = out[piece.sheet].union(
            normalize([p for p in pres if p is not None])
        )
    return SheetSet(tuple(out))


def ref_probes(carrier: Carrier, x: SheetPoint, critical) -> list[SheetSet]:
    probes = [carrier.whole()]
    for r in _derived_radii(x.x, critical):
        ball = carrier.lift(
            LineSet.of(Interval(x.x - r, x.x + r, False, False)), x.sheet
        )
        comp = ref_component(carrier, ball, x)
        if comp is not None and comp not in probes:
            probes.append(comp)
    return probes


# -- strategies --------------------------------------------------------------

# Rational and sqrt(2) coordinates that interleave, so ends are shared,
# touch and cross.
coords = st.one_of(
    st.integers(min_value=-6, max_value=6).map(lambda n: num(Fraction(n, 2))),
    st.integers(min_value=-4, max_value=4).map(
        lambda n: ExactNumber(Fraction(n, 2), Fraction(1, 2))
    ),
)


@st.composite
def line_sets(draw, nonempty=False, near=()):
    """Sorted ends paired into pieces (a repeated end gives a point or two
    pieces sharing an end), the outer ends possibly unbounded.  Ends are
    drawn from the grid and from ``near``, the ends of another set."""
    pool = st.one_of(coords, st.sampled_from(near)) if near else coords
    ends = sorted(draw(st.lists(pool, min_size=2 if nonempty else 0, max_size=8)))
    pieces = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        if lo == hi:
            pieces.append(point_interval(lo))
        else:
            pieces.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    if pieces and draw(st.booleans()):
        first = pieces[0]
        pieces[0] = Interval(None, first.hi, False, first.hi_closed)
    if pieces and draw(st.booleans()):
        last = pieces[-1]
        pieces[-1] = Interval(last.lo, None, last.lo_closed, False)
    if not pieces and draw(st.booleans()):
        pieces.append(Interval(None, None, False, False))
    return normalize(pieces)


@st.composite
def carriers(draw, max_sheets=3):
    n = draw(st.integers(min_value=1, max_value=max_sheets))
    return Carrier(tuple(draw(line_sets(nonempty=True)) for _ in range(n)))


def sheet_sets(n: int, near=()):
    return st.tuples(*[line_sets(near=near) for _ in range(n)]).map(SheetSet)


def ends_of(*sets: SheetSet) -> list[ExactNumber]:
    out = set()
    for s in sets:
        for line in s.sheets:
            out.update(line.finite_endpoints())
    return sorted(out)


@st.composite
def points_near(draw, n_sheets: int, *sets: SheetSet):
    """A point at an end of one of ``sets``, between two ends, or on the
    grid, on any sheet or on one past either side."""
    ends = ends_of(*sets)
    mids = [a + (b - a) / 2 for a, b in zip(ends, ends[1:])]
    x = draw(st.one_of(st.sampled_from(ends + mids), coords) if ends else coords)
    sheet = draw(st.integers(min_value=-1, max_value=n_sheets))
    return SheetPoint(sheet, x)


# -- the open component around a point --------------------------------------


@st.composite
def component_cases(draw):
    carrier = draw(carriers())
    s = draw(sheet_sets(carrier.n_sheets, near=ends_of(carrier)))
    return carrier, s, draw(points_near(carrier.n_sheets, carrier, s))


@given(component_cases())
@settings(max_examples=150)
def test_interior_component_matches_the_whole_set_form(case):
    carrier, s, p = case
    assert interior_component_containing(carrier, s, p) == ref_component(carrier, s, p)


def seg(lo, hi, lc, hc) -> LineSet:
    def end(v):
        return None if v is None else num(v)

    return LineSet.of(Interval(end(lo), end(hi), lc, hc))


@pytest.mark.parametrize(
    "carrier_line, s_line, x, want",
    [
        # A closed end of s that is the carrier's closed end stays.
        (seg(0, 2, True, True), seg(0, 1, True, True), 0, seg(0, 1, True, False)),
        # The same end inside the carrier is dropped, and so is the point.
        (seg(-1, 2, True, True), seg(0, 1, True, True), 0, None),
        (seg(-1, 2, True, True), seg(0, 1, True, True), "1/2", seg(0, 1, False, False)),
        # An isolated carrier point is open in the carrier.
        (LineSet.of(point_interval(num(3)), Interval(num(4), num(5), True, True)),
         seg(None, None, False, False), 3, LineSet.of(point_interval(num(3)))),
        # A point piece of s inside a carrier interval is not.
        (seg(0, 5, True, True), LineSet.of(point_interval(num(3))), 3, None),
        # s reaching past the carrier is cut to the carrier piece.
        (seg(0, 2, False, True), seg(-5, 5, False, False), 2, seg(0, 2, False, True)),
        # Off the carrier and off s.
        (seg(0, 2, True, True), seg(0, 5, True, True), 3, None),
        (seg(0, 2, True, True), seg(3, 5, True, True), 1, None),
    ],
)
def test_interior_component_examples(carrier_line, s_line, x, want):
    carrier = Carrier.of(carrier_line)
    got = interior_component_containing(
        carrier, SheetSet((s_line,)), SheetPoint(0, num(x))
    )
    assert got == (None if want is None else SheetSet((want,)))
    assert got == ref_component(carrier, SheetSet((s_line,)), SheetPoint(0, num(x)))


def test_interior_component_on_other_sheets():
    unit = seg(0, 1, True, True)
    carrier = Carrier.of(unit, unit)
    s = SheetSet((unit, LineSet.empty()))
    assert interior_component_containing(carrier, s, SheetPoint(1, num("1/2"))) is None
    assert interior_component_containing(carrier, s, SheetPoint(2, num("1/2"))) is None
    assert interior_component_containing(carrier, s, SheetPoint(0, num(1))) == s


def test_sheet_count_mismatch_still_raises():
    carrier = Carrier.of(LineSet.full_line(), LineSet.full_line())
    one = SheetSet((LineSet.full_line(),))
    with pytest.raises(ValueError, match="different sheet counts"):
        interior_component_containing(carrier, one, SheetPoint(0, num(0)))
    with pytest.raises(ValueError, match="different sheet counts"):
        is_open_in_carrier(carrier, one)
    with pytest.raises(ValueError, match="different sheet counts"):
        ref_component(carrier, one, SheetPoint(0, num(0)))


# -- relative openness ---------------------------------------------------------


@st.composite
def openness_cases(draw):
    """A set inside the carrier: a cut of a free set, or the relative
    interior of one, so open and non-open sets both come up often."""
    carrier = draw(carriers())
    s = draw(sheet_sets(carrier.n_sheets, near=ends_of(carrier))).intersect(carrier)
    if draw(st.booleans()):
        s = interior_in_carrier(carrier, s)
    return carrier, s


@given(openness_cases())
@settings(max_examples=150)
@example((Carrier.of(seg(-1, 2, True, True)), SheetSet((seg(0, 1, True, True),))))
@example((Carrier.of(seg(0, 1, True, True)), SheetSet((seg(0, 1, True, False),))))
@example((Carrier.of(seg(0, 1, True, True)), SheetSet((seg(0, 1, False, True),))))
@example((Carrier.of(seg(0, 1, False, True)), SheetSet((seg("1/2", 1, True, True),))))
@example((Carrier.of(seg(0, 1, False, True)), SheetSet((seg("1/2", 1, False, True),))))
def test_openness_matches_the_closure_form(case):
    carrier, s = case
    assert is_open_in_carrier(carrier, s) == ref_is_open(carrier, s)


def test_openness_rejects_sets_outside_the_carrier():
    carrier = Carrier.of(seg(0, 1, True, True))
    with pytest.raises(ValueError, match="not contained"):
        is_open_in_carrier(carrier, SheetSet((seg(0, 2, False, False),)))


# -- preimages ------------------------------------------------------------------

# Zero is drawn as often as a sign, so constant pieces are common, and
# the intercepts spread the images apart, so a target piece often misses
# a piece's image altogether.
SLOPES = [
    Fraction(s)
    for s in (-3, -2, -1, Fraction(-1, 2), 0, 0, 0, Fraction(1, 3), 1, 3)
]
INTERCEPTS = [Fraction(b) for b in (-5, -1, 0, Fraction(1, 2), 2, 6)]


@st.composite
def split(draw, part: Interval) -> list[Interval]:
    """``part`` cut at interior points; at each cut the point goes left,
    right or into a piece of its own."""
    if part.is_point:
        return [part]
    cuts = sorted(
        {
            c
            for c in draw(st.lists(coords, max_size=3))
            if (part.lo is None or c > part.lo) and (part.hi is None or c < part.hi)
        }
    )
    out = []
    lo, lc = part.lo, part.lo_closed
    for c in cuts:
        how = draw(st.sampled_from(("left", "right", "point")))
        out.append(Interval(lo, c, lc, how == "left"))
        if how == "point":
            out.append(point_interval(c))
        lo, lc = c, how == "right"
    out.append(Interval(lo, part.hi, lc, part.hi_closed))
    return out


@st.composite
def maps(draw, domain=None):
    """A map from a carrier of up to three sheets (or from ``domain``) to
    one of up to two, the pieces in a shuffled order; each codomain sheet
    holds the images routed to it and maybe more."""
    if domain is None:
        domain = draw(carriers())
    n_out = draw(st.integers(min_value=1, max_value=2))
    pieces = []
    for sheet, line in enumerate(domain.sheets):
        for carrier_piece in line.pieces:
            for part in draw(split(carrier_piece)):
                pieces.append(
                    AffinePiece(
                        sheet,
                        part,
                        draw(st.integers(min_value=0, max_value=n_out - 1)),
                        draw(st.sampled_from(SLOPES)),
                        draw(st.sampled_from(INTERCEPTS)),
                    )
                )
    pieces = draw(st.permutations(pieces))
    images = [[] for _ in range(n_out)]
    for piece in pieces:
        images[piece.out_sheet].append(piece.image_interval())
    codomain = []
    for out_sheet in range(n_out):
        extra = draw(line_sets())
        line = normalize(images[out_sheet]).union(extra)
        codomain.append(line if not line.is_empty else LineSet.full_line())
    return PiecewiseAffineMap(domain, Carrier(tuple(codomain)), tuple(pieces))


def image_ends(m: PiecewiseAffineMap) -> list[ExactNumber]:
    return ends_of(*(SheetSet((LineSet((p.image_interval(),)),)) for p in m.pieces))


@st.composite
def targets(draw, m: PiecewiseAffineMap) -> SheetSet:
    """A subset of the codomain with ends drawn near the codomain's ends
    and the pieces' image ends, so its pieces straddle, fill and miss the
    images; sometimes its relative interior."""
    near = sorted(set(ends_of(m.codomain)) | set(image_ends(m)))
    s = draw(sheet_sets(m.codomain.n_sheets, near=near)).intersect(m.codomain)
    if draw(st.booleans()):
        s = interior_in_carrier(m.codomain, s)
    return s


@st.composite
def preimage_cases(draw):
    m = draw(maps())
    return m, draw(targets(m))


def misses(piece: AffinePiece, target: Interval) -> bool:
    return LineSet((piece.image_interval(),)).intersect(LineSet((target,))).is_empty


@given(preimage_cases())
@settings(max_examples=100)
def test_preimage_matches_the_union_of_normalized_cuts(case):
    m, s = case
    got = m.preimage(s)
    assert got.sheets == ref_preimage(m, s).sheets
    assert all(normalize(line.pieces) == line for line in got.sheets)
    assert m.preimage(m.codomain) == m.domain.whole()
    for piece in m.pieces:
        for target in s.sheets[piece.out_sheet].pieces:
            if misses(piece, target):
                event("a target piece misses a piece's image")
                assert piece.preimage_interval(target) is None
            if piece.slope == 0:
                event("a constant piece")
            elif piece.slope < 0:
                event("a descending piece")


def test_preimage_skips_targets_that_miss_the_image():
    """A target piece off a piece's image is dropped before any inverse
    arithmetic; one that covers the image gives the whole part."""
    piece = AffinePiece(0, Interval(num(0), num(1), True, False), 0, Fraction(-2), Fraction(1))
    assert piece.image_interval() == Interval(num(-1), num(1), False, True)
    for target in (
        Interval(num(1), num(2), False, False),
        Interval(num(-3), num(-1), False, True),
        point_interval(num(5)),
    ):
        assert piece.preimage_interval(target) is None
        assert ref_preimage_interval(piece, target) is None
    assert "_inverse" not in piece.__dict__
    assert piece.preimage_interval(Interval(num(-1), num(1), True, True)) == piece.part
    assert "_inverse" not in piece.__dict__
    half = Interval(num(0), num(1), False, True)
    assert piece.preimage_interval(half) == ref_preimage_interval(piece, half)
    assert piece.preimage_interval(half) == Interval(num(0), num("1/2"), True, False)
    flat = AffinePiece(0, Interval(num(0), num(1), True, False), 0, Fraction(0), Fraction(3))
    assert flat.preimage_interval(Interval(num(3), None, True, False)) == flat.part
    assert flat.preimage_interval(Interval(num(3), None, False, False)) is None


def test_preimage_argument_checks_are_kept():
    m = PiecewiseAffineMap(
        Carrier.of(seg(0, 1, True, True)),
        Carrier.of(seg(0, 1, True, True)),
        (AffinePiece(0, seg(0, 1, True, True).pieces[0], 0, Fraction(-1), Fraction(1)),),
    )
    with pytest.raises(MapDomainError):
        m.preimage(SheetSet((seg(0, 2, True, True),)))
    with pytest.raises(ValueError, match="different sheet counts"):
        m.preimage(SheetSet((LineSet.empty(), LineSet.empty())))
    assert m.preimage(SheetSet((seg(0, "1/4", True, False),))) == SheetSet(
        (seg("3/4", 1, False, True),)
    )


@given(maps())
@settings(max_examples=50)
def test_stored_piece_order_is_invisible(m):
    again = PiecewiseAffineMap(m.domain, m.codomain, m.pieces)
    assert again == m and hash(again) == hash(m) and repr(again) == repr(m)
    assert "_sheet_pieces" not in repr(m)
    assert [f.name for f in dataclasses.fields(m)] == ["domain", "codomain", "pieces"]
    reordered = PiecewiseAffineMap(m.domain, m.codomain, m.pieces[::-1])
    assert (reordered == m) == (reordered.pieces == m.pieces)
    loaded = pickle.loads(pickle.dumps(m))
    assert loaded == m and hash(loaded) == hash(m) and repr(loaded) == repr(m)
    assert loaded.preimage(loaded.codomain) == m.preimage(m.codomain)
    assert dataclasses.replace(m) == m


# -- probes around a point ---------------------------------------------------------


def inner_point(piece: Interval) -> ExactNumber:
    if piece.lo is None:
        return num(0) if piece.hi is None else piece.hi - 1
    if piece.hi is None:
        return piece.lo + 1
    return piece.lo + (piece.hi - piece.lo) / 2


@st.composite
def probe_cases(draw):
    carrier = draw(carriers(max_sheets=2))
    sheet = draw(st.integers(min_value=0, max_value=carrier.n_sheets - 1))
    line = carrier.sheets[sheet]
    inside = [x for x in ends_of(carrier) if line.member(x)]
    inside += [inner_point(piece) for piece in line.pieces]
    x = draw(st.sampled_from(inside))
    critical = draw(st.lists(coords, max_size=4))
    return carrier, SheetPoint(sheet, x), critical


@given(probe_cases())
@settings(max_examples=100)
# The ball of radius 1 covers the segment, so its component repeats the
# first probe, the whole carrier, after smaller ones.
@example(
    (Carrier.of(seg(0, "1/2", True, True)), SheetPoint(0, num("1/4")), [num("1/8")])
)
def test_open_component_probes_keep_their_order(case):
    carrier, x, critical = case
    assert carrier.member(x)
    probes = _open_component_ladder(carrier, x, critical).probes()
    assert list(dict.fromkeys(probes)) == ref_probes(carrier, x, critical)


# -- the host of x for carrier traces ------------------------------------------------


@st.composite
def host_cases(draw):
    carrier = Carrier((draw(line_sets(nonempty=True)),))
    line = draw(line_sets(near=ends_of(carrier)))
    if draw(st.booleans()):
        line = line.intersect(carrier.sheets[0])
    p = draw(points_near(1, carrier, SheetSet((line,))))
    return carrier, line, p.x


@given(host_cases())
@settings(max_examples=200)
@example((Carrier.of(seg(0, 2, True, True)), seg(0, 1, True, False), num(1)))
@example((Carrier.of(LineSet.of(Interval(num(0), num(1), True, False),
                                Interval(num(1), num(2), False, True))),
          seg(0, 1, False, False), num("1/2")))
def test_host_walk_matches_the_whole_set_form(case):
    carrier, line, x = case
    scale = SymmetricIntervalScale(carrier, lo_amb=num(-10), hi_amb=num(10))
    want = _piece_holding(carrier.sheets[0].difference(line).complement(), x)
    assert scale._host(line, x) == want


# -- a weak decision that reads the whole preimage ------------------------------------


def test_p_structures_read_the_whole_preimage():
    """A chosen neighborhood with two pieces lies in the preimage but not
    in its component around the point, so the weak decision needs the
    whole preimage."""
    carrier = segment_carrier(num(0), num(3))
    chosen = SheetSet((LineSet.of(seg(0, 1, True, False).pieces[0],
                                  Interval(num(2), num(3), False, True)),))
    x = SheetPoint(0, num("1/2"))
    scale = PStructureIntervalScale(carrier, table=((x, chosen),))
    m = PiecewiseAffineMap(carrier, carrier, (
        AffinePiece(0, Interval(num(0), num(3), True, True), 0, Fraction(1), Fraction(0)),
    ))
    weak = ContinuityMode("weak", "at-point", at_point=x)
    pre = m.preimage(chosen)
    assert _holds_at(scale, weak, x, pre)
    assert not _holds_at(scale, weak, x, component_containing(pre, x))
