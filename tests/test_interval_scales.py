"""Membership, q-openness, and witness procedures for every interval
scale kind, including the documented edge claims: the only bounded set
with an assigned complement under the bounded-ball kind is the empty
set, and the empty set itself is never assigned."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scaletop.exactnum import SQRT2, ExactNumber
from scaletop.interval_scales import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    PStructureIntervalScale,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    TruncatedBallScale,
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
    interval,
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
    assert scale.point_probes(SheetPoint(0, num(0))) == []  # no admissible radius
    probes = scale.point_probes(x, critical=[num("1/4")])
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


def test_end_class_witness_and_probes():
    crossed = EndClassScale(LINE, mode="mixed", crossed=True)
    w = crossed.witness_inside(ORIGIN, line(iv(-3, 3)))
    assert w is not None and crossed.member(ORIGIN, w)
    assert w.issubset(line(iv(-3, 3)))
    for probe in crossed.point_probes(ORIGIN, critical=[num(1)]):
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
    for probe in t.point_probes(x, critical=[num("1/2")]):
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
        for s in q_ob.point_probes(x, critical=[num(1)]):
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
                    probes = scale.point_probes(x, critical=critical)
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
        probes = scale.point_probes(x, critical=(num(0), num(1)))
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
        for s in p.point_probes(x, critical):
            assert q.member(x, s), (p, q, x, s)
    if iw_finer(p, q):
        for s in q.point_probes(x, critical):
            w = p.witness_inside(x, s)
            assert w is not None and w.issubset(s) and p.member(x, w), (p, q, x, s)
