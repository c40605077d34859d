"""Piecewise-affine map algebra: evaluation, preimages, gaps, composition.

``gap`` and ``gaps`` read the jump germs; a reference copy of the loop
they replaced, which asks ``one_sided_limits`` at every piece end in the
domain, checks them on drawn maps, a side on another codomain sheet
(which raises) included.

Frozen expected values for the bounded-jump fixtures were computed by
hand from the defining formulas: the map that is 10x/11 on [0,1) and
the identity on [1,2] has left limit 10/11 at 1, so its gap there is
1/11; its self-composition is 100x/121 on [0,1), giving gap 21/121.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop.exactnum import ExactNumber
from scaletop.intervals import Carrier, LineSet, SheetPoint, interval
from scaletop.pwmaps import (
    AffinePiece,
    MapDomainError,
    PiecewiseAffineMap,
    compose,
    identity_map,
    is_a_fuzzy_continuous,
    maps_extensionally_equal,
)

from test_sound_passes import GRID, small_maps


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def iv(lo, hi, lc=False, hc=False):
    return interval(
        None if lo is None else num(lo),
        None if hi is None else num(hi),
        lc,
        hc,
    )


def segment(lo, hi) -> Carrier:
    return Carrier.of(LineSet.of(iv(lo, hi, lc=True, hc=True)))


def near_identity_drift_map() -> PiecewiseAffineMap:
    """10x/11 on [0,1), identity on [1,2]; single gap of 1/11 at x=1."""
    c = segment(0, 2)
    return PiecewiseAffineMap(
        c,
        c,
        (
            AffinePiece(0, iv(0, 1, lc=True), 0, Fraction(10, 11), Fraction(0)),
            AffinePiece(0, iv(1, 2, lc=True, hc=True), 0, Fraction(1), Fraction(0)),
        ),
    )


def step_map() -> PiecewiseAffineMap:
    """0 on [0,1/2), 1 on [1/2,1]."""
    c = segment(0, 1)
    return PiecewiseAffineMap(
        c,
        c,
        (
            AffinePiece(0, iv(0, "1/2", lc=True), 0, Fraction(0), Fraction(0)),
            AffinePiece(
                0, iv("1/2", 1, lc=True, hc=True), 0, Fraction(0), Fraction(1)
            ),
        ),
    )


def test_validation_requires_exact_cover():
    c = segment(0, 1)
    with pytest.raises(ValueError):
        PiecewiseAffineMap(
            c, c, (AffinePiece(0, iv(0, "1/2", lc=True), 0, Fraction(1), Fraction(0)),)
        )
    with pytest.raises(ValueError):
        PiecewiseAffineMap(
            c,
            c,
            (
                AffinePiece(0, iv(0, 1, lc=True, hc=True), 0, Fraction(1), Fraction(0)),
                AffinePiece(0, iv(0, "1/2", lc=True), 0, Fraction(1), Fraction(0)),
            ),
        )


def test_eval_drift_map():
    f = near_identity_drift_map()
    assert f.eval(SheetPoint(0, num(1))) == SheetPoint(0, num(1))
    assert f.eval(SheetPoint(0, num("11/20"))) == SheetPoint(0, num("1/2"))
    with pytest.raises(MapDomainError):
        f.eval(SheetPoint(0, num(3)))


def test_identity_preimage_is_identity():
    c = segment(0, 1)
    ident = identity_map(c)
    s = c.lift(LineSet.of(iv("1/4", "3/4")))
    assert ident.preimage(s) == s
    assert ident.image(s) == s


def test_punctured_identity_preimage():
    carrier = Carrier.of(LineSet.of(iv(0, "1/2", lc=True), iv("1/2", 1, hc=True)))
    unit = Carrier.of(LineSet.of(iv(0, 1, lc=True, hc=True)))
    f = PiecewiseAffineMap(
        carrier,
        unit,
        (
            AffinePiece(0, iv(0, "1/2", lc=True), 0, Fraction(1), Fraction(0)),
            AffinePiece(0, iv("1/2", 1, hc=True), 0, Fraction(1), Fraction(0)),
        ),
    )
    pre = f.preimage(unit.lift(LineSet.of(iv(0, 1))))
    assert pre == carrier.lift(LineSet.of(iv(0, "1/2"), iv("1/2", 1)))


def test_gap_values():
    f = near_identity_drift_map()
    one = SheetPoint(0, num(1))
    left, right = f.one_sided_limits(one)
    assert left == num("10/11") and right == num(1)
    assert f.gap(one) == num("1/11")
    assert f.gaps() == [(one, num("1/11"))]

    ident = identity_map(segment(0, 1))
    assert ident.gaps() == []

    s = step_map()
    half = SheetPoint(0, num("1/2"))
    assert s.gap(half) == num(1)


def test_boundary_gap_one_sided():
    f = near_identity_drift_map()
    zero = SheetPoint(0, num(0))
    left, right = f.one_sided_limits(zero)
    assert left is None and right == num(0)
    assert f.gap(zero) == num(0)


def test_compose_drift_map():
    f = near_identity_drift_map()
    ff = compose(f, f)
    one = SheetPoint(0, num(1))
    assert ff.eval(one) == one
    assert ff.gap(one) == num("21/121")
    left, _ = ff.one_sided_limits(one)
    assert left == num("100/121")


def test_compose_identity_and_slopes():
    f = near_identity_drift_map()
    assert maps_extensionally_equal(compose(identity_map(f.domain), f), f)
    double = PiecewiseAffineMap(
        segment(0, 3),
        segment(0, 6),
        (AffinePiece(0, iv(0, 3, lc=True, hc=True), 0, Fraction(2), Fraction(0)),),
    )
    triple = PiecewiseAffineMap(
        segment(0, 1),
        segment(0, 3),
        (AffinePiece(0, iv(0, 1, lc=True, hc=True), 0, Fraction(3), Fraction(0)),),
    )
    six = compose(double, triple)
    assert all(p.slope == Fraction(6) for p in six.pieces)


def test_compose_with_constant_pieces_on_breakpoints_of_g():
    """f is constant on two pieces, at g's breakpoints 1 and 2, each of
    which closes on a different side; g o f agrees with g(f(p)) at the
    breakpoints, at rational interior points and at +-sqrt 2."""
    line = Carrier.of(LineSet.of(iv(None, None)))
    f = PiecewiseAffineMap(line, line, (
        AffinePiece(0, iv(None, 0, hc=True), 0, Fraction(0), Fraction(1)),
        AffinePiece(0, iv(0, 1, hc=True), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, iv(1, 2), 0, Fraction(0), Fraction(2)),
        AffinePiece(0, iv(2, None, lc=True), 0, Fraction(1), Fraction(-1)),
    ))
    g = PiecewiseAffineMap(line, line, (
        AffinePiece(0, iv(None, 1, hc=True), 0, Fraction(1), Fraction(0)),
        AffinePiece(0, iv(1, 2), 0, Fraction(1), Fraction(5)),
        AffinePiece(0, iv(2, None, lc=True), 0, Fraction(-1), Fraction(0)),
    ))
    gf = compose(g, f)
    xs = [num(x) for x in (0, 1, 2, 3, -1, "1/2", "3/2", "5/2", "7/2", 7)]
    xs += [ExactNumber(0, 1), ExactNumber(0, -1)]
    for x in xs:
        p = SheetPoint(0, x)
        assert gf.eval(p) == g.eval(f.eval(p)), x
    assert gf.eval(SheetPoint(0, num(-1))) == SheetPoint(0, num(1))
    assert gf.eval(SheetPoint(0, ExactNumber(0, 1))) == SheetPoint(0, num(-2))


def test_preimage_respects_union():
    f = near_identity_drift_map()
    a = f.codomain.lift(LineSet.of(iv(0, "1/4")))
    b = f.codomain.lift(LineSet.of(iv("1/8", "3/4", hc=True)))
    assert f.preimage(a.union(b)) == f.preimage(a).union(f.preimage(b))
    inside = f.codomain.lift(LineSet.of(iv("1/5", "2/5")))
    co = f.codomain.difference(inside)
    assert f.preimage(co) == f.domain.difference(f.preimage(inside))


def probe_gap(f: PiecewiseAffineMap, p: SheetPoint, k: int) -> ExactNumber:
    """Sampling oracle: discrepancy estimate from values at x +/- 10^-k,
    using only eval()."""
    eps = ExactNumber(Fraction(1, 10**k))
    value = f.eval(p).x
    vals = []
    for cand in (p.x - eps, p.x + eps):
        if f.domain.sheets[p.sheet].member(cand):
            vals.append(f.eval(SheetPoint(p.sheet, cand)).x)
    cands = [abs(value - v) for v in vals]
    if len(vals) == 2:
        cands.append(abs(vals[0] - vals[1]))
    return max(cands) if cands else ExactNumber(0)


def test_gap_matches_probing_oracle():
    f = near_identity_drift_map()
    ff = compose(f, f)
    max_slope = ExactNumber(2)
    cases = [(f, ["0", "1/2", "1", "3/2"]), (ff, ["0", "1/2", "1", "3/2"]),
             (step_map(), ["0", "1/2", "3/4", "1"])]
    for m, xs in cases:
        for x in xs:
            p = SheetPoint(0, num(x))
            exactg = m.gap(p)
            approx = probe_gap(m, p, 12)
            assert abs(exactg - approx) <= max_slope * ExactNumber(Fraction(2, 10**12))


def test_fuzzy_continuity_thresholds():
    f = near_identity_drift_map()
    ff = compose(f, f)
    tenth = num("1/10")
    assert is_a_fuzzy_continuous(f, tenth).holds
    verdict = is_a_fuzzy_continuous(ff, tenth)
    assert not verdict.holds
    assert verdict.witnesses == ((SheetPoint(0, num(1)), num("21/121")),)
    assert is_a_fuzzy_continuous(ff, num(1)).holds
    with pytest.raises(ValueError):
        is_a_fuzzy_continuous(f, num(-1))


@given(st.fractions(min_value=0, max_value=2, max_denominator=50))
@settings(max_examples=40)
def test_fuzzy_monotone_in_level(a):
    ff = compose(near_identity_drift_map(), near_identity_drift_map())
    lo = is_a_fuzzy_continuous(ff, ExactNumber(a))
    hi = is_a_fuzzy_continuous(ff, ExactNumber(a) + ExactNumber(Fraction(1, 7)))
    if lo.holds:
        assert hi.holds


def test_two_sheet_projection_eval():
    unit = LineSet.of(iv(0, 1, lc=True, hc=True))
    x = Carrier.of(unit, unit)
    y = Carrier.of(unit)
    proj = PiecewiseAffineMap(
        x,
        y,
        (
            AffinePiece(0, iv(0, 1, lc=True, hc=True), 0, Fraction(1), Fraction(0)),
            AffinePiece(1, iv(0, 1, lc=True, hc=True), 0, Fraction(1), Fraction(0)),
        ),
    )
    assert proj.eval(SheetPoint(1, num("1/3"))) == SheetPoint(0, num("1/3"))
    pre = proj.preimage(y.lift(LineSet.of(iv("1/4", "1/2"))))
    assert pre.piece_count == 2


def ref_gap(f: PiecewiseAffineMap, p: SheetPoint) -> ExactNumber:
    """The largest discrepancy among f(p) and its one-sided limits;
    ``one_sided_limits`` raises for a side on another codomain sheet."""
    value = f.eval(p).x
    left, right = f.one_sided_limits(p)
    candidates = [abs(value - limit) for limit in (left, right) if limit is not None]
    if left is not None and right is not None:
        candidates.append(abs(left - right))
    return max(candidates, default=num(0))


def ref_gaps(f: PiecewiseAffineMap) -> list:
    """Every piece end in the domain, per sheet in order, with a positive gap."""
    out = []
    for sheet in range(f.domain.n_sheets):
        candidates = {
            end
            for piece in f.pieces
            if piece.sheet == sheet
            for end in (piece.part.lo, piece.part.hi)
            if end is not None and f.domain.sheets[sheet].member(end)
        }
        for x in sorted(candidates):
            p = SheetPoint(sheet, x)
            g = ref_gap(f, p)
            if g.sign() > 0:
                out.append((p, g))
    return out


def outcome(compute):
    try:
        return compute()
    except ValueError as e:
        return ("raises", str(e))


def test_gaps_match_the_candidate_loop_over_drawn_maps():
    tally: Counter = Counter()

    @given(small_maps(), st.sampled_from(GRID))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def drawn(f, x):
        got = outcome(f.gaps)
        assert got == outcome(lambda: ref_gaps(f)), f
        tally["raises" if isinstance(got, tuple) else "gaps" if got else "no gap"] += 1
        p = SheetPoint(0, x)
        if f.domain.member(p):
            assert outcome(lambda: f.gap(p)) == outcome(lambda: ref_gap(f, p)), (f, p)

    drawn()
    assert all(tally[key] for key in ("raises", "gaps", "no gap")), tally
