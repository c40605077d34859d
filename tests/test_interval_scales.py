"""Membership, q-openness, and witness procedures for every interval
scale kind, including the documented edge claims: the only bounded set
with an assigned complement under the bounded-ball kind is the empty
set, and the empty set itself is never assigned."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scaletop import jsonio
from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.interval_scales import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    IntervalScale,
    PStructureIntervalScale,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    TruncatedBallScale,
    _above,
    _at_most,
    _capped_radius,
    _derived_radii,
    full_line_carrier,
    iw_finer,
    iw_is_q_closed,
    iw_is_subscale,
    segment_carrier,
)
from scaletop.intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    _intersect_intervals,
    interval,
    is_open_in_carrier,
)


def num(x) -> ExactNumber:
    return ExactNumber(Fraction(x))


def iv(lo, hi, lc=False, hc=False) -> Interval:
    return interval(
        None if lo is None else num(lo),
        None if hi is None else num(hi),
        lc,
        hc,
    )


def line(*pieces) -> SheetSet:
    return SheetSet((LineSet.of(*pieces),))


ORIGIN = SheetPoint(0, num(0))
LINE = full_line_carrier()


# -- ball kinds ---------------------------------------------------------------


def test_closed_ball_superset_membership():
    q = BallSupersetScale(LINE, a=num("1/10"))
    x = SheetPoint(0, num("1/2"))
    assert q.member(x, line(iv(0, 1)))  # contains [2/5, 3/5]
    assert not q.member(x, line(iv("2/5", "3/5")))  # open, misses the ends
    assert not q.member(x, line(iv(0, 1, lc=True)))  # not open
    assert q.tag == "Q_a"


def test_open_ball_superset_membership():
    q = BallSupersetScale(LINE, a=num("1/10"), closed_ball=False)
    x = SheetPoint(0, num("1/2"))
    assert q.member(x, line(iv("2/5", "3/5")))
    assert not q.member(x, line(iv("2/5", "11/20")))
    assert q.tag == "Q_Oa"


def test_ball_scale_membership():
    cq = BallScale(LINE, a=num("1/10"))
    assert cq.member(ORIGIN, line(iv(-1, 1)))
    assert not cq.member(ORIGIN, line(iv("-1/10", "1/10")))  # needs r > a
    assert not cq.member(ORIGIN, line(iv(-1, 2)))  # asymmetric
    cqo = BallScale(LINE, a=num("1/10"), strict=False)
    assert cqo.member(ORIGIN, line(iv("-1/10", "1/10")))  # r = a allowed
    assert cq.tag == "CQ_a" and cqo.tag == "CQ_Oa"


def test_ball_parameters_validated():
    with pytest.raises(ValueError):
        BallSupersetScale(LINE, a=num(0))
    with pytest.raises(ValueError):
        BallScale(LINE, a=num(0), strict=False)
    BallScale(LINE, a=num(0), strict=True)  # a = 0 admitted for r > a
    BoundedBallSupersetScale(LINE, a=num(0))
    with pytest.raises(ValueError):
        BallSupersetScale(segment_carrier(num(0), num(1)), a=num(1))


def test_witnesses_for_ball_kinds():
    q = BallSupersetScale(LINE, a=num("1/10"))
    x = SheetPoint(0, num("1/2"))
    w = q.witness_inside(x, line(iv(0, 1)))
    assert w is not None and w.issubset(line(iv(0, 1))) and q.member(x, w)
    assert q.witness_inside(x, line(iv("2/5", "3/5"))) is None
    cq = BallScale(LINE, a=num("1/10"))
    w2 = cq.witness_inside(ORIGIN, line(iv(-2, 3)))
    assert w2 is not None and cq.member(ORIGIN, w2)
    assert cq.witness_inside(ORIGIN, line(iv(0, 3))) is None


# -- the bounded-ball claims -----------------------------------------------------


def test_bounded_ball_closed_sets():
    bq = BoundedBallSupersetScale(LINE, a=num("1/10"))
    bounded = line(iv(0, 1))
    # Bounded nonempty sets are never q-closed: their complements are
    # unbounded and differ from the whole line.
    assert not iw_is_q_closed(bq, bounded)
    assert bq.is_q_open(bounded)
    empty = SheetSet((LineSet.empty(),))
    assert iw_is_q_closed(bq, empty)  # complement is the whole line
    assert not bq.is_q_open(empty)
    whole = SheetSet((LineSet.full_line(),))
    assert bq.is_q_open(whole)
    assert not iw_is_q_closed(bq, whole)


def test_bounded_ball_membership():
    bq = BoundedBallSupersetScale(LINE, a=num("1/10"))
    assert bq.member(ORIGIN, line(iv(-1, 1)))
    assert bq.member(ORIGIN, SheetSet((LineSet.full_line(),)))
    assert not bq.member(ORIGIN, line(iv(0, None)))  # unbounded, not the line
    assert not bq.member(ORIGIN, line(iv("-1/20", "1/20")))  # too small
    w = bq.witness_inside(ORIGIN, line(iv(-5, 5)))
    assert w is not None and bq.member(ORIGIN, w) and w.issubset(line(iv(-5, 5)))


# -- symmetric traces (punctured-interval world) -----------------------------------


def punctured() -> Carrier:
    return Carrier.of(LineSet.of(iv(0, "1/2", lc=True), iv("1/2", 1, hc=True)))


def test_symmetric_trace_membership():
    c = punctured()
    scale = SymmetricIntervalScale(c, lo_amb=num(0), hi_amb=num(1))
    x = SheetPoint(0, num("3/10"))
    trace = SheetSet((c.sheets[0].intersect(LineSet.of(iv("1/10", "1/2"))),))
    assert scale.member(x, trace)
    # The same trace is not assigned to a different center.
    assert not scale.member(SheetPoint(0, num("1/4")), trace)


def test_symmetric_trace_q_open_rejects_missing_center():
    c = punctured()
    scale = SymmetricIntervalScale(c, lo_amb=num(0), hi_amb=num(1))
    both_halves = SheetSet((LineSet.of(iv(0, "1/2"), iv("1/2", 1)),))
    # Only center 1/2 could produce this trace, and 1/2 is not a carrier
    # point, so the set is not assigned anywhere.
    assert not scale.is_q_open(both_halves)
    left = SheetSet((LineSet.of(iv("1/10", "1/2")),))
    assert scale.is_q_open(left)
    assert not scale.is_q_open(SheetSet((LineSet.empty(),)))


def test_symmetric_trace_on_solid_interval():
    c = segment_carrier(num(0), num(1))
    scale = SymmetricIntervalScale(c, lo_amb=num(0), hi_amb=num(1))
    x = SheetPoint(0, num("1/2"))
    assert scale.member(x, line(iv(0, 1)))
    assert scale.member(x, line(iv("1/4", "3/4")))
    assert not scale.member(x, line(iv("1/4", "3/4", hc=True)))
    # no admissible radius
    assert list(scale.iter_point_probes(SheetPoint(0, num(0)))) == []
    probes = list(scale.iter_point_probes(x, critical=[num("1/4")]))
    assert probes and all(scale.member(x, p) for p in probes)


def test_symmetric_witness():
    c = punctured()
    scale = SymmetricIntervalScale(c, lo_amb=num(0), hi_amb=num(1))
    x = SheetPoint(0, num("1/4"))
    s = SheetSet((c.sheets[0].intersect(LineSet.of(iv(0, "1/2"))),))
    w = scale.witness_inside(x, s)
    assert w is not None and w.issubset(s) and scale.member(x, w)
    tiny = SheetSet((LineSet.of(iv("1/4", "1/4", lc=True, hc=True)),))
    assert scale.witness_inside(x, tiny) is None


SYMMETRIC_CARRIERS = {
    "segment": Carrier.of(LineSet.of(iv(0, 2, True, True))),
    "punctured": Carrier.of(LineSet.of(iv(0, 1, lc=True), iv(1, 2, hc=True))),
    "isolated point": Carrier.of(LineSet.of(iv(-1, -1, True, True), iv(0, 2, True, True))),
    "gap": Carrier.of(LineSet.of(iv(0, "1/2", hc=True), iv("3/2", 2, lc=True))),
}
AMBIENT = ((0, 1), ("1/2", "3/2"), (-1, 3), (1, 2))
ENDS = (-1, 0, "1/4", "1/2", 1, "3/2", 2, 3)


def symmetric_sets(carrier: Carrier, x: ExactNumber) -> list[SheetSet]:
    """Intervals between grid ends, each open, closed or half-open, as
    they are and cut to the carrier; each with the point x added."""
    out = []
    for lo, hi in combinations(ENDS, 2):
        for lc in (False, True):
            for hc in (False, True):
                s = line(iv(lo, hi, lc, hc))
                out += [s, s.intersect(carrier.whole())]
    out += [o.union(line(Interval(x, x, True, True))) for o in out]
    return out


def test_symmetric_has_witness_is_whether_a_witness_exists():
    """``has_witness`` against ``witness_inside`` at points at, inside and
    beyond the ambient bounds, in sets with point pieces and across
    carrier gaps.  The shortcut must meet a point at an ambient bound
    strictly inside its piece, where the radius range is empty."""
    tally: Counter = Counter()
    points = [num(n) / 4 for n in range(-4, 9)] + [SQRT2 / 2]
    for name, carrier in SYMMETRIC_CARRIERS.items():
        for lo, hi in AMBIENT:
            scale = SymmetricIntervalScale(carrier, lo_amb=num(lo), hi_amb=num(hi))
            for xv in points:
                x = SheetPoint(0, xv)
                if not carrier.member(x):
                    continue
                for s in symmetric_sets(carrier, xv):
                    found = scale.witness_inside(x, s) is not None
                    assert scale.has_witness(x, s) == found, (name, lo, hi, x, s)
                    piece = next((q for q in s.sheets[0].pieces if q.contains(xv)), None)
                    if piece is None or xv in (piece.lo, piece.hi):
                        where = "x at an end of its piece of s" if piece else "x outside s"
                    elif xv in (scale.lo_amb, scale.hi_amb):
                        where = "x at an ambient bound"
                    elif scale.lo_amb < xv < scale.hi_amb:
                        where = "x inside the ambient bounds"
                    else:
                        where = "x beyond the ambient bounds"
                    tally[where, found] += 1
    assert set(tally) == {
        ("x outside s", False),
        ("x at an end of its piece of s", False),
        ("x at an end of its piece of s", True),
        ("x at an ambient bound", False),
        ("x inside the ambient bounds", True),
        ("x beyond the ambient bounds", False),
    }, tally


# -- endpoint rationality kinds ------------------------------------------------------


def test_irrational_ends_membership():
    scale = EndClassScale(LINE, mode="irrational")
    s_irr = line(Interval(-SQRT2, SQRT2, False, False))
    s_rat = line(iv(-1, 1))
    assert scale.member(ORIGIN, s_irr)
    assert not scale.member(ORIGIN, s_rat)
    assert scale.is_q_open(s_irr)
    assert not scale.is_q_open(s_rat)


def test_rational_ends_membership():
    scale = EndClassScale(LINE, mode="rational")
    assert scale.member(ORIGIN, line(iv(-1, 1)))
    assert not scale.member(ORIGIN, line(Interval(-SQRT2, SQRT2, False, False)))
    mixed_ends = line(Interval(num(-1), SQRT2, False, False))
    assert not scale.member(ORIGIN, mixed_ends)
    assert not scale.is_q_open(mixed_ends)


def test_mixed_ends_scale():
    matching = EndClassScale(LINE, mode="mixed")
    crossed = EndClassScale(LINE, mode="mixed", crossed=True)
    root = SheetPoint(0, SQRT2)
    s_rat = line(iv(1, 2))
    s_irr = line(Interval(SQRT2 / 2, SQRT2 * 2, False, False))
    assert matching.member(root, s_irr) and not matching.member(root, s_rat)
    assert crossed.member(root, s_rat) and not crossed.member(root, s_irr)
    assert matching.member(ORIGIN, line(iv(-1, 1)))
    assert crossed.member(ORIGIN, line(Interval(-SQRT2, SQRT2, False, False)))
    # Any same-class open interval is assigned somewhere in mixed modes.
    assert matching.is_q_open(s_rat) and crossed.is_q_open(s_rat)


@pytest.mark.parametrize("mode", ["rational", "irrational"])
def test_only_the_mixed_end_class_mode_can_be_crossed(mode):
    """``params`` records ``crossed`` only for the mixed mode, so a crossed
    rational or irrational scale would behave and serialize as uncrossed."""
    with pytest.raises(ValueError, match="only the mixed mode"):
        EndClassScale(LINE, mode=mode, crossed=True)
    assert EndClassScale(LINE, mode=mode).params() == {"mode": mode}


def test_end_class_witness_and_probes():
    crossed = EndClassScale(LINE, mode="mixed", crossed=True)
    w = crossed.witness_inside(ORIGIN, line(iv(-3, 3)))
    assert w is not None and crossed.member(ORIGIN, w)
    assert w.issubset(line(iv(-3, 3)))
    for probe in crossed.iter_point_probes(ORIGIN, critical=[num(1)]):
        assert crossed.member(ORIGIN, probe)


# -- connected-open and trivial kinds ---------------------------------------------------


def two_sheets() -> Carrier:
    unit = LineSet.of(iv(0, 1, lc=True, hc=True))
    return Carrier.of(unit, unit)


def test_connected_open_two_sheets():
    c = two_sheets()
    scale = ConnectedOpenScale(c)
    p = SheetPoint(0, num("1/2"))
    one_sheet = c.lift(LineSet.of(iv("1/4", "3/4")), 0)
    both = SheetSet((LineSet.of(iv("1/4", "3/4")), LineSet.of(iv("1/4", "3/4"))))
    assert scale.member(p, one_sheet)
    assert not scale.member(p, both)  # disconnected across sheets
    assert scale.member(p, c.whole())  # the whole carrier is included
    assert scale.is_q_open(one_sheet)
    assert not scale.is_q_open(both)
    w = scale.witness_inside(p, both)
    assert w is not None and scale.member(p, w) and w.issubset(both)


def test_trivial_interval_scale():
    c = punctured()
    scale = TrivialIntervalScale(c)
    open_disconnected = SheetSet((LineSet.of(iv(0, "1/2"), iv("1/2", 1)),))
    assert scale.is_q_open(open_disconnected)  # trivial scale keeps it
    assert not scale.is_q_open(SheetSet((LineSet.empty(),)))
    p = SheetPoint(0, num("1/4"))
    assert scale.member(p, open_disconnected)


# -- tabulated principal structure -------------------------------------------------------


def test_p_structure_interval_scale():
    c = segment_carrier(num(0), num(1))
    x = SheetPoint(0, num("1/2"))
    chosen = c.lift(LineSet.of(iv("1/4", "3/4")))
    scale = PStructureIntervalScale(c, table=((x, chosen),))
    assert scale.member(x, chosen)
    assert scale.member(x, c.lift(LineSet.of(iv("1/8", "7/8"))))
    assert not scale.member(x, c.lift(LineSet.of(iv("3/8", "5/8"))))
    assert not scale.member(SheetPoint(0, num("1/4")), chosen)  # not tabulated
    assert scale.is_q_open(chosen)
    assert scale.witness_inside(x, c.whole()) == chosen
    with pytest.raises(ValueError):
        PStructureIntervalScale(
            c, table=((x, c.lift(LineSet.of(iv("1/4", "3/4", hc=True)))),)
        )


# -- truncated symmetric balls --------------------------------------------------------------


def truncated() -> TruncatedBallScale:
    return TruncatedBallScale(
        segment_carrier(num(0), num(2)), a=num("1/10"), lo=num(0), hi=num(2)
    )


def test_truncated_membership_middle():
    t = truncated()
    x = SheetPoint(0, num(1))
    assert t.member(x, line(iv("4/5", "6/5")))  # k = 1/5 > 1/10
    assert not t.member(x, line(iv("19/20", "21/20")))  # k = 1/20 <= 1/10
    assert not t.member(x, line(iv("4/5", "6/5", lc=True)))


def test_truncated_membership_edges():
    t = truncated()
    left = SheetPoint(0, num("1/20"))
    assert t.member(left, line(iv(0, "1/2", lc=True)))
    assert not t.member(left, line(iv(0, "1/8", lc=True)))  # k <= a
    right = SheetPoint(0, num("39/20"))
    assert t.member(right, line(iv("3/2", 2, hc=True)))
    assert not t.member(right, line(iv("3/2", 2)))


def test_truncated_q_open_and_witness():
    t = truncated()
    assert t.is_q_open(line(iv("4/5", "6/5")))
    assert not t.is_q_open(line(iv("19/20", "21/20")))
    assert t.is_q_open(line(iv(0, "1/2", lc=True)))
    assert not t.is_q_open(line(iv(0, "1/10", lc=True)))
    x = SheetPoint(0, num(1))
    w = t.witness_inside(x, line(iv("1/2", "3/2")))
    assert w is not None and t.member(x, w) and w.issubset(line(iv("1/2", "3/2")))
    assert t.witness_inside(x, line(iv("19/20", "21/20"))) is None
    for probe in t.iter_point_probes(x, critical=[num("1/2")]):
        assert t.member(x, probe)


# -- catalog order rules -------------------------------------------------------------------


def test_subscale_rules():
    a, b = num("1/10"), num("1/5")
    q_a = BallSupersetScale(LINE, a=a)
    q_oa = BallSupersetScale(LINE, a=a, closed_ball=False)
    q_ob = BallSupersetScale(LINE, a=b, closed_ball=False)
    q_b = BallSupersetScale(LINE, a=b)
    assert iw_is_subscale(q_a, q_oa)  # closed-ball demand within open-ball demand
    assert iw_is_subscale(q_ob, q_oa)  # larger radius within smaller
    assert iw_is_subscale(q_b, q_a)
    assert not iw_is_subscale(q_oa, q_ob)
    assert iw_is_subscale(q_a, q_a)


def test_finer_rules():
    a, b = num("1/10"), num("1/5")
    q_oa = BallSupersetScale(LINE, a=a, closed_ball=False)
    q_ob = BallSupersetScale(LINE, a=b, closed_ball=False)
    assert iw_finer(q_oa, q_ob)
    assert not iw_finer(q_ob, q_oa)
    cq_a = BallScale(LINE, a=a)
    cq_b = BallScale(LINE, a=b)
    assert iw_finer(cq_a, cq_b)
    assert not iw_finer(cq_b, cq_a)


def test_subscale_rule_validated_on_sampled_members():
    """Sampled witnesses back the rule table: every member of the finer
    declared family is a member of the coarser one, pointwise."""
    a, b = num("1/10"), num("1/5")
    q_oa = BallSupersetScale(LINE, a=a, closed_ball=False)
    q_ob = BallSupersetScale(LINE, a=b, closed_ball=False)
    for xv in (num(0), num("7/3"), SQRT2):
        x = SheetPoint(0, xv)
        for s in q_ob.iter_point_probes(x, critical=[num(1)]):
            assert q_ob.member(x, s)
            assert q_oa.member(x, s)  # subscale containment
            w = q_oa.witness_inside(x, s)  # finer: a witness sits inside
            assert w is not None and q_oa.member(x, w)


def _every_kind():
    """One scale of each of the nine concrete kinds (EndClassScale in each
    mode), with a rational and an irrational point inside its carrier and
    a family that is not empty at them."""
    chosen = segment_carrier(num(0), num(1)).lift(LineSet.of(iv("1/4", "3/4")))
    near_one = segment_carrier(num(0), num(1)).lift(LineSet.of(iv("1/2", 1, hc=True)))
    points = (num("1/3"), SQRT2 * 2)
    inner = (num("3/10"), SQRT2 / 4)
    return [
        (TrivialIntervalScale(punctured()), inner),
        (BallSupersetScale(LINE, a=num("1/10")), points),
        (BallSupersetScale(LINE, a=num("1/10"), closed_ball=False), points),
        (BallScale(LINE, a=num("1/10")), points),
        (BoundedBallSupersetScale(LINE, a=num("1/10")), points),
        (SymmetricIntervalScale(punctured(), lo_amb=num(0), hi_amb=num(1)), inner),
        (EndClassScale(LINE, mode="rational"), points),
        (EndClassScale(LINE, mode="irrational"), points),
        (EndClassScale(LINE, mode="mixed"), points),
        (EndClassScale(LINE, mode="mixed", crossed=True), points),
        (ConnectedOpenScale(two_sheets()), (num("1/3"), SQRT2 / 2)),
        (
            PStructureIntervalScale(
                segment_carrier(num(0), num(1)),
                table=(
                    (SheetPoint(0, num("1/2")), chosen),
                    (SheetPoint(0, SQRT2 / 2), near_one),
                ),
            ),
            (num("1/2"), SQRT2 / 2),
        ),
        (truncated(), (num("1/20"), num("1/3"), SQRT2, 2 - SQRT2 / 100)),
    ]


def _sets_around(carrier, x: SheetPoint) -> list[SheetSet]:
    """The carrier and its traces of open, closed and half-open intervals
    around x at a few radii."""
    out = [carrier.whole()]
    for r in (num("1/20"), num("1/3"), num(3)):
        for lc in (False, True):
            for hc in (False, True):
                ball = LineSet.of(Interval(x.x - r, x.x + r, lc, hc))
                out.append(carrier.lift(ball, x.sheet).intersect(carrier.whole()))
    return out


def test_probe_families_are_assigned():
    """Every probe of a point is assigned to it, and every set assigned
    to a point is q-open, at rational and irrational points of each
    kind's carrier."""
    for scale, values in _every_kind():
        for xv in values:
            for sheet in range(scale.carrier.n_sheets):
                x = SheetPoint(sheet, xv)
                for critical in ((), (num(0), num(1)), (xv + num("1/7"),)):
                    probes = list(scale.iter_point_probes(x, critical=critical))
                    assert probes, (scale.tag, x)
                    for s in probes:
                        assert scale.member(x, s), (scale.tag, x, s)
                    for s in [*probes, *_sets_around(scale.carrier, x)]:
                        if scale.member(x, s):
                            assert scale.is_q_open(s), (scale.tag, x, s)

# -- the witness and order contracts under drawn points and sets --------------------

# Small pools, so that equal radii, shared ends and both endpoint classes
# come up often.
RADII = tuple(num(Fraction(n, 16)) for n in (1, 2, 4, 6, 8, 16, 24)) + tuple(
    SQRT2 * Fraction(n, 16) for n in (1, 2, 4, 8)
)
OFFSETS = (num(0), num("1/8"), num("-1/4"), num(1), SQRT2 / 8, -SQRT2 / 4)
KINDS = _every_kind()


@st.composite
def points_in(draw, scale, values):
    xv = draw(st.sampled_from(values)) + draw(st.sampled_from(OFFSETS))
    x = SheetPoint(draw(st.integers(0, scale.carrier.n_sheets - 1)), xv)
    assume(scale.carrier.member(x))
    return x


@st.composite
def sets_near(draw, scale, x):
    """A probe of x, the whole carrier, or the carrier's trace of an
    interval around x (possibly lopsided, possibly with a far piece)."""
    pick = draw(st.integers(0, 3))
    if pick == 0:
        return scale.carrier.whole()
    if pick == 1:
        probes = list(scale.iter_point_probes(x, critical=(num(0), num(1))))
        if probes:
            return draw(st.sampled_from(probes))
    r_lo = draw(st.sampled_from(RADII))
    r_hi = r_lo if draw(st.booleans()) else draw(st.sampled_from(RADII))
    closed = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
    near = LineSet.of(Interval(x.x - r_lo, x.x + r_hi, *closed))
    if draw(st.booleans()):
        far = x.x + draw(st.sampled_from(RADII)) + 2
        near = near.union(LineSet.of(Interval(far, far + 1, False, False)))
    return scale.carrier.lift(near, x.sheet).intersect(scale.carrier.whole())


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_witnesses_are_members_inside_their_set(data):
    """A witness is assigned to its point and lies inside the set, and a
    set assigned to a point has a witness inside it."""
    scale, values = data.draw(st.sampled_from(KINDS))
    x = data.draw(points_in(scale, values))
    s = data.draw(sets_near(scale, x))
    w = scale.witness_inside(x, s)
    if w is not None:
        assert scale.member(x, w) and w.issubset(s), (scale.tag, x, s, w)
    if scale.member(x, s):
        assert w is not None, (scale.tag, x, s)


BALL_KINDS = [
    BallSupersetScale(LINE, a=num("1/2")),
    BallSupersetScale(LINE, a=num("1/2"), closed_ball=False),
    BallScale(LINE, a=num("1/2")),
    BallScale(LINE, a=num("1/2"), strict=False),
    BoundedBallSupersetScale(LINE, a=num(0)),
    BoundedBallSupersetScale(LINE, a=num("1/2")),
]


def ball_family(scale, x: SheetPoint, critical) -> list[SheetSet]:
    """The ball kinds' families as the generator of open balls built them
    before they became ladders: CQ_Oa's a-ball, the open balls of radius
    a + d for each derived radius d, and the whole line after them on
    Q_a, Q_Oa and BQ_Oa."""
    def ball(r):
        return SheetSet((LineSet.of(Interval(x.x - r, x.x + r, False, False)),))

    head = [ball(scale.a)] if isinstance(scale, BallScale) and not scale.strict else []
    tail = [] if isinstance(scale, BallScale) else [LINE.whole()]
    return head + [ball(scale.a + d) for d in _derived_radii(x.x, critical)] + tail


@pytest.mark.parametrize("k", range(len(BALL_KINDS)), ids=lambda k: f"{k}-{BALL_KINDS[k].tag}")
@given(st.sampled_from(OFFSETS), st.lists(st.sampled_from([*OFFSETS, *RADII]), max_size=4))
@settings(max_examples=40, deadline=None)
def test_ball_ladders_yield_the_ball_families(k, x, critical):
    scale = BALL_KINDS[k]
    at = SheetPoint(0, x)
    assert list(scale.iter_point_probes(at, critical)) == ball_family(scale, at, critical)
    assert scale.ladder(at, critical).home == LINE.sheets[0]


def trace_cases() -> list[tuple[IntervalScale, tuple]]:
    """``SymmetricIntervals`` on [-1, 3] punctured at 1 and 3/2, ambient
    [0, 2]: points on both sides of each puncture, at the ambient bounds,
    and beyond them, where no radius fits.  ``TruncatedQ_a`` on [0, 2]
    with a = 1/4: points in both edge bands, at their inner ends and in
    the interior."""
    punctured = Carrier.of(LineSet.of(iv(-1, 1, lc=True), iv(1, "3/2"), iv("3/2", 3, hc=True)))
    return [
        (SymmetricIntervalScale(punctured, lo_amb=num(0), hi_amb=num(2)),
         (-1, "-1/2", 0, "1/4", "3/4", "5/4", "7/4", 2, "5/2", 3, SQRT2 / 2)),
        (TruncatedBallScale(segment_carrier(num(0), num(2)), a=num("1/4"), lo=num(0), hi=num(2)),
         (0, "1/8", "1/4", "1/2", 1, "3/2", "7/4", "15/8", 2, SQRT2)),
    ]


TRACE_CRITICALS = (
    (), (num(1),), (num("1/3"), num(1), num("3/2"), num(2)),
    (num(0), num("1/2"), num("5/4"), num(3), SQRT2),
)
# sha256 of the families of ``trace_cases`` at ``TRACE_CRITICALS``, taken
# while the trace kinds built their traces themselves: 323 probes, 24
# families empty.
TRACE_DIGEST = "cb5c4f4d547fab1917ee0f3f3a699cfbfca6090ab3c5a2c5722e149c1570274d"


def test_trace_ladders_yield_the_trace_families():
    """Each trace kind's ladder yields the carrier's traces of the open
    balls at the derived radii of the point's radius range, in order, as
    the kinds built them before they became ladders."""
    h = hashlib.sha256()
    empty = 0
    for scale, points in trace_cases():
        for xv in points:
            x = SheetPoint(0, xv if isinstance(xv, ExactNumber) else num(xv))
            radii = scale._radii(x.x)
            for critical in TRACE_CRITICALS:
                traces = [
                    SheetSet((scale.carrier.sheets[0].intersect(LineSet.of(Interval(x.x - r, x.x + r, False, False))),))
                    for r in ([] if radii is None else _derived_radii(x.x, critical, radii.lo, radii.hi))
                ]
                assert list(scale.ladder(x, critical).probes()) == traces, (scale.tag, x, critical)
                assert list(scale.iter_point_probes(x, critical)) == traces
                h.update(json.dumps([jsonio.sheetset_to_json(s) for s in traces]).encode())
                empty += not traces
    assert (empty, h.hexdigest()) == (24, TRACE_DIGEST)


@pytest.mark.parametrize("k", range(len(KINDS)), ids=lambda k: KINDS[k][0].tag)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_probes_lie_in_the_carrier(k, data):
    """The probe contract: every probe a scale yields lies in its carrier,
    at drawn points and critical coordinates.  The interval checkers pull
    probes back without cutting them to the codomain, so they rely on it."""
    scale, values = KINDS[k]
    x = data.draw(points_in(scale, values))
    critical = data.draw(
        st.lists(st.sampled_from([*values, *OFFSETS, *RADII]), max_size=4)
    )
    for s in scale.iter_point_probes(x, critical):
        assert s.issubset(scale.carrier), (scale.tag, x, critical, s)


@pytest.mark.parametrize("k", range(len(KINDS)), ids=lambda k: KINDS[k][0].tag)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_assigned_sets_are_relatively_open_and_probes_hold_their_point(k, data):
    """The premise of the interval checkers' germ decisions: every probe of
    x is relatively open in the carrier and holds x, and every q-open set
    (every set assigned to some point) is relatively open."""
    scale, values = KINDS[k]
    x = data.draw(points_in(scale, values))
    critical = data.draw(
        st.lists(st.sampled_from([*values, *OFFSETS, *RADII]), max_size=4)
    )
    for s in scale.iter_point_probes(x, critical):
        assert s.member(x) and is_open_in_carrier(scale.carrier, s), (scale.tag, x, s)
    s = data.draw(sets_near(scale, x))
    if scale.is_q_open(s):
        assert is_open_in_carrier(scale.carrier, s), (scale.tag, s)


@pytest.mark.parametrize("k", range(len(KINDS)), ids=lambda k: KINDS[k][0].tag)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_has_witness_is_whether_a_witness_exists(k, data):
    """The witness-free decision of each kind, against ``witness_inside``."""
    scale, values = KINDS[k]
    x = data.draw(points_in(scale, values))
    s = data.draw(sets_near(scale, x))
    assert scale.has_witness(x, s) == (scale.witness_inside(x, s) is not None), (scale.tag, x, s)


@pytest.mark.parametrize("k", range(len(KINDS)), ids=lambda k: KINDS[k][0].tag)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_witnesses_survive_growing_the_set(k, data):
    """If s lies in s' and s holds a witness of x, so does s'.  Weak
    checks skip every probe that contains one they passed on this."""
    scale, values = KINDS[k]
    x = data.draw(points_in(scale, values))
    s = data.draw(sets_near(scale, x))
    grown = s.union(data.draw(sets_near(scale, x)))
    if scale.witness_inside(x, s) is not None:
        assert scale.witness_inside(x, grown) is not None, (scale.tag, x, s, grown)


@st.composite
def ball_kind(draw, family):
    a = draw(st.sampled_from(RADII))
    if family == "Q_a":
        return BallSupersetScale(LINE, a=a, closed_ball=draw(st.booleans()))
    strict = draw(st.booleans())
    if strict and draw(st.booleans()):
        a = num(0)
    return BallScale(LINE, a=a, strict=strict)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_order_rules_agree_with_probes(data):
    """If p is a subscale of q, every p-probe is a q-member; if p is finer
    than q, every q-probe holds a p-witness."""
    family = data.draw(st.sampled_from(["Q_a", "CQ_a"]))
    p, q = data.draw(ball_kind(family)), data.draw(ball_kind(family))
    xv = data.draw(st.sampled_from(OFFSETS)) + data.draw(st.sampled_from(RADII))
    x = SheetPoint(0, xv)
    critical = data.draw(st.lists(st.sampled_from(RADII), max_size=3))
    if iw_is_subscale(p, q):
        for s in p.iter_point_probes(x, critical):
            assert q.member(x, s), (p, q, x, s)
    if iw_finer(p, q):
        for s in q.iter_point_probes(x, critical):
            w = p.witness_inside(x, s)
            assert w is not None and w.issubset(s) and p.member(x, w), (p, q, x, s)


# -- nested probe families ------------------------------------------------------------


def is_nested(probes: list[SheetSet]) -> bool:
    """Every probe from the second on contains the probe before it."""
    return all(a.issubset(b) for a, b in zip(probes[1:], probes[2:]))


@st.composite
def close_criticals(draw, x: SheetPoint):
    """Critical coordinates around x: unsorted, with repeats, often x
    itself, and at distances within a few percent of each other."""
    base = draw(st.sampled_from(RADII))
    cs = [
        x.x + base * Fraction(64 + k, 64) * draw(st.sampled_from([1, -1]))
        for k in draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    ]
    cs += draw(st.lists(st.sampled_from(OFFSETS), max_size=2))
    if draw(st.booleans()):
        cs.append(x.x)
    cs += draw(st.lists(st.sampled_from(cs), max_size=3))
    return draw(st.permutations(cs))


def has_ladder(scale: IntervalScale, values) -> bool:
    return scale.ladder(SheetPoint(0, values[0])) is not None


PSTRUCTURE = next(k for k, (scale, _) in enumerate(KINDS) if scale.tag == "PStructure")
NESTED = [k for k, (scale, values) in enumerate(KINDS) if has_ladder(scale, values)] + [PSTRUCTURE]


@pytest.mark.parametrize("k", NESTED, ids=lambda k: KINDS[k][0].tag)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_nested_kinds_yield_nested_families(k, data):
    """A kind with a ``Ladder`` yields a chain from the second probe on: its
    ladder has at most one head probe, rising radii and a tail that is
    empty or the whole carrier, and its family is the ladder's probes.
    Weak checks stop at the first such probe they pass.  ``PStructure``
    has no ladder, and its family, the chosen neighborhood and then the
    whole carrier, is a chain too."""
    scale, values = KINDS[k]
    x = data.draw(points_in(scale, values))
    critical = data.draw(close_criticals(x))
    probes = list(scale.iter_point_probes(x, critical))
    assert is_nested(probes), (scale.tag, x, critical)
    ladder = scale.ladder(x, critical)
    if k == PSTRUCTURE:
        chosen = scale._chosen(x)
        assert ladder is None
        assert probes == ([] if chosen is None else [chosen, scale.carrier.whole()])
        return
    radii = list(ladder.radii)
    assert len(ladder.head) <= 1 and ladder.tail in ((), (scale.carrier.whole(),))
    assert all(r < s for r, s in zip(radii, radii[1:])), (scale.tag, x, critical)
    assert probes == [*ladder.head, *map(ladder.probe, radii), *ladder.tail]


def test_every_kind_but_the_end_class_kinds_is_nested():
    """Every kind but the end-class kinds and ``PStructure`` has a
    ``Ladder``; ``PStructure``'s families are nested without one (see
    ``test_nested_kinds_yield_nested_families``)."""
    assert {scale.tag for scale, values in KINDS if not has_ladder(scale, values)} == {
        "RationalEnds", "IrrationalEnds", "MixedRationalIrrational", "PStructure",
    }


def test_an_end_class_family_is_not_nested():
    """Close radii 1/4 and 65/256 at 1/3: the rational-end probe (0, 9/16)
    follows (-1/32, 17/32), so ``EndClassScale`` must have no ladder."""
    x = SheetPoint(0, num("1/3"))
    probes = list(EndClassScale(LINE).iter_point_probes(x, [num("7/12"), num("61/768")]))
    assert not is_nested(probes)
    assert (line(iv("-1/32", "17/32")), line(iv(0, "9/16"))) in zip(probes, probes[1:])


# -- the radius ladder ----------------------------------------------------------------


def ref_derived_radii(x, critical, lower_excl=None, upper_incl=None) -> list[ExactNumber]:
    """The eager ladder: every candidate hashed into a set, sorted, and
    the 12 smallest kept."""
    half, three_halves = num("1/2"), num("3/2")
    cands = {num(1), num(2)}
    for c in critical:
        d = abs(x - c)
        if d.sign() > 0:
            cands.update({d, d * half, d * three_halves})
    if upper_incl is not None:
        cands.update({upper_incl, upper_incl * half})
    if lower_excl is not None:
        cands.add(lower_excl + num(1))
        if upper_incl is not None and upper_incl > lower_excl:
            cands.add(lower_excl + (upper_incl - lower_excl) * half)
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


# Coordinates and bounds that tie, cross and fall on either side of zero.
LADDER_VALUES = st.sampled_from(
    [*RADII, *OFFSETS, num(-1), num(2), num(3), num("-1/16"), SQRT2 * 2]
)


@st.composite
def ladder_cases(draw):
    x = draw(LADDER_VALUES)
    critical = draw(st.lists(LADDER_VALUES, max_size=20))
    if draw(st.booleans()):
        critical.append(x)
    critical += draw(st.lists(st.sampled_from(critical or [x]), max_size=4))
    critical = draw(st.permutations(critical))
    lower = draw(st.none() | LADDER_VALUES)
    upper = draw(st.none() | LADDER_VALUES)
    return x, critical, lower, upper


@given(ladder_cases())
@settings(max_examples=400, deadline=None)
# Bounds that leave nothing: u <= l, and u below every candidate.
@example((num(0), [num(1)], num(2), num(1)))
@example((num(0), [num(1)], None, num("-1/16")))
@example((num(0), [num(0), num(0)], num(0), num(0)))
def test_lazy_radii_are_the_eager_ladder(case):
    x, critical, lower, upper = case
    assert list(_derived_radii(x, critical, lower, upper)) == ref_derived_radii(
        x, critical, lower, upper
    )


# -- radius sets as intervals --------------------------------------------------------


class RefRange:
    """The feasibility range the kinds kept their radii in before radius
    sets became ``Interval``s: each end optional and open or closed, ties
    between constraints resolved to the stricter."""

    def __init__(self):
        self.lo, self.lo_incl, self.hi, self.hi_incl = None, True, None, True

    def at_least(self, v, incl=True):
        if self.lo is None or v > self.lo:
            self.lo, self.lo_incl = v, incl
        elif v == self.lo and not incl:
            self.lo_incl = False

    def at_most(self, v, incl=True):
        if self.hi is None or v < self.hi:
            self.hi, self.hi_incl = v, incl
        elif v == self.hi and not incl:
            self.hi_incl = False

    @property
    def feasible(self):
        if self.lo is None or self.hi is None:
            return True
        if self.lo < self.hi:
            return True
        return self.lo == self.hi and self.lo_incl and self.hi_incl

    def pick(self):
        if not self.feasible:
            return None
        if self.lo is None and self.hi is None:
            return num(1)
        if self.lo is None:
            return self.hi if self.hi_incl else self.hi - 1
        if self.hi is None:
            return self.lo if self.lo_incl else self.lo + 1
        if self.lo == self.hi:
            return self.lo
        return self.lo + (self.hi - self.lo) * num("1/2")


# Few values, so that constraints tie often.
RANGE_VALUES = st.sampled_from([num(0), num("1/2"), num(1), SQRT2 / 2, num(2)])
BOUNDS = st.tuples(RANGE_VALUES, st.booleans())


@given(st.lists(st.tuples(st.booleans(), BOUNDS), max_size=6))
@settings(max_examples=400, deadline=None)
@example([(True, (num(1), True)), (True, (num(1), False)), (False, (num(1), True))])
@example([(True, (num(1), True)), (False, (num(1), True)), (False, (num(1), False))])
@example([(True, (num(1), True)), (False, (num(1), True))])
def test_cuts_of_rays_are_the_range(constraints):
    """A chain of lower and upper constraints, each open or closed: the
    cut of the line by their rays is empty exactly when the range is
    infeasible, and otherwise has the range's ends."""
    rng, cut = RefRange(), Interval(None, None, False, False)
    for lower, (v, incl) in constraints:
        if lower:
            rng.at_least(v, incl)
            ray = _above(v, incl)
        else:
            rng.at_most(v, incl)
            ray = Interval(None, v, False, incl)
        if cut is not None:
            cut = _intersect_intervals(cut, ray)
    assert (cut is not None) == rng.feasible, constraints
    if cut is not None:
        assert (cut.lo, cut.hi) == (rng.lo, rng.hi)
        assert cut.lo is None or cut.lo_closed == rng.lo_incl
        assert cut.hi is None or cut.hi_closed == rng.hi_incl


@given(
    st.lists(BOUNDS, min_size=1, max_size=4),
    st.lists(RANGE_VALUES, max_size=3),
    st.none() | RANGE_VALUES,
    st.none() | RANGE_VALUES,
)
@settings(max_examples=400, deadline=None)
@example([(num(1), False)], [num(1)], None, None)
@example([(num(1), True)], [num(1)], None, None)
@example([(num(1), False), (num(1), True)], [], num(1), None)
@example([(num(0), False)], [], None, None)
@example([(num(0), True)], [], None, None)
def test_capped_radius_picks_what_the_range_picked(lowers, caps, left, right):
    """Radii with a lower end, cut by a chain of lower constraints, each
    open or closed, then by closed caps (``_at_most``) and by the host
    around x (``_capped_radius``): the same radius as the range's pick,
    or None exactly where the range is infeasible."""
    x = num(0)
    host = Interval(None if left is None else x - left, None if right is None else x + right,
                    left is not None, right is not None)
    rng = RefRange()
    radii = None
    for v, incl in lowers:
        rng.at_least(v, incl)
        radii = _above(v, incl) if radii is None else _intersect_intervals(radii, _above(v, incl))
    for c in caps:
        rng.at_most(c)
    if host.lo is not None:
        rng.at_most(x - host.lo)
    if host.hi is not None:
        rng.at_most(host.hi - x)
    assert _capped_radius(_at_most(radii, list(caps)), x, host) == rng.pick(), (lowers, caps, host)
