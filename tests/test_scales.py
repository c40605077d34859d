"""Scale axioms, structure flags, orders, and algebra on finite spaces.

Hand-built counterexample scales pin down the flag relationships that
do and do not hold: principal implies filter implies union-closed and
lattice, but a filter structure need not be intersection-closed against
the declared family (witnessed below on the discrete 3-point space).
"""

import itertools
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scaletop import scales
from scaletop.finite_topology import (
    FiniteSpace,
    discrete_space,
    enumerate_topologies,
    set_key,
    sierpinski,
)
from scaletop.scales import (
    Scale,
    _first_violation,
    ScaleIntersectionError,
    classify,
    count_scales,
    enumerate_scales,
    f_closure,
    finer,
    finer_at,
    i_closure,
    is_subscale,
    l_closure,
    p_structure,
    q_closed,
    q_open,
    require_valid,
    scale_intersection,
    scale_union,
    trivial_scale,
    u_closure,
    validate_scale,
)


def fz(*sets):
    return frozenset(frozenset(s) for s in sets)


def mk(space, tq, *fams) -> Scale:
    return Scale(space, fz(*tq), tuple(fz(*f) for f in fams))


# -- validation ---------------------------------------------------------------


def test_trivial_scale_examples():
    s = sierpinski()
    t = trivial_scale(s)
    assert validate_scale(t).ok
    assert t.at(1) == fz((0, 1))
    d = trivial_scale(discrete_space(2))
    assert d.at(0) == fz((0,), (0, 1))
    for space in enumerate_topologies(3):
        assert validate_scale(trivial_scale(space)).ok


def test_sc1_violation():
    s = sierpinski()
    bad = mk(s, [(0,), (0, 1)], [(0,), (0, 1)], [(0,)])
    result = validate_scale(bad)
    assert result.code == "SC1" and result.witness == (1, (0,))


def test_sc2_violation():
    s = sierpinski()
    bad = mk(s, [(0,), (0, 1)], [(0, 1)], [(0, 1)])
    result = validate_scale(bad)
    assert result.code == "SC2" and result.witness == ((0,),)


def test_assignment_outside_tq():
    s = sierpinski()
    bad = mk(s, [(0, 1)], [(0,), (0, 1)], [(0, 1)])
    assert validate_scale(bad).code == "ASSIGNMENT_OUTSIDE_TQ"


def test_tq_must_be_open():
    s = sierpinski()
    bad = mk(s, [(1,)], [], [(1,)])
    assert validate_scale(bad).code == "TQ_NOT_OPEN"


def test_empty_scale_is_valid():
    s = sierpinski()
    assert validate_scale(mk(s, [], [], [])).ok


# -- the set-algebra fast path against the ordered search ---------------------

SPACES = [space for n in (1, 2, 3) for space in enumerate_topologies(n)]


def _subsets(points):
    return [
        frozenset(c)
        for r in range(len(points) + 1)
        for c in itertools.combinations(points, r)
    ]


# The spaces with an open set that is neither empty nor the carrier.
SPACES_WITH_PROPER_OPENS = [
    space for space in SPACES if any(o and o != space.carrier for o in space.opens)
]


@st.composite
def valid_scales(draw, proper=False):
    """A valid scale: a declared family of nonempty opens, random
    per-point subfamilies, and every declared set given to one of its
    points (or dropped from the family) so that SC2 holds.  ``proper``
    declares and keeps at least one set that misses a point."""
    space = draw(st.sampled_from(SPACES_WITH_PROPER_OPENS if proper else SPACES))
    nonempty = [o for o in space.opens_sorted() if o]
    tq = set(draw(st.lists(st.sampled_from(nonempty), unique=True)))
    kept = set()
    if proper:
        kept.add(draw(st.sampled_from([o for o in nonempty if o != space.carrier])))
        tq |= kept
    families = []
    for x in space.points:
        options = sorted((a for a in tq if x in a), key=set_key)
        families.append(set(draw(st.lists(st.sampled_from(options)))) if options else set())
    for a in sorted(tq, key=set_key):
        if not any(a in fam for fam in families):
            if a in kept or draw(st.booleans()):
                families[draw(st.sampled_from(sorted(a)))].add(a)
            else:
                tq.discard(a)
    return Scale(space, frozenset(tq), tuple(frozenset(f) for f in families))


def _with_family(scale, x, fam, tq=None):
    assignment = list(scale.assignment)
    assignment[x] = frozenset(fam)
    return Scale(scale.space, scale.tq if tq is None else frozenset(tq), tuple(assignment))


def _mutate(draw, scale, code):
    """Break ``scale`` so that its first violation is ``code``."""
    space, tq = scale.space, scale.tq
    points = list(space.points)
    if code == "SC1":  # x must miss a declared set
        points = [p for p in points if any(p not in a for a in tq)]
    x = draw(st.sampled_from(points))
    fam = scale.at(x)
    if code == "MALFORMED":
        stray = frozenset({x, space.n_points})
        return _with_family(scale, x, fam | {stray}, tq | {stray})
    if code == "ASSIGNMENT_OUTSIDE_TQ":
        options = [a for a in _subsets(space.points) if x in a and a not in tq]
        assume(options)
        return _with_family(scale, x, fam | {draw(st.sampled_from(options))})
    if code == "TQ_NOT_OPEN":
        options = [a for a in _subsets(space.points) if a and a not in space.opens]
        assume(options)
        bad = draw(st.sampled_from(options))
        return _with_family(scale, min(bad), scale.at(min(bad)) | {bad}, tq | {bad})
    if code == "SC1":
        options = sorted((a for a in tq if x not in a), key=set_key)
        return _with_family(scale, x, fam | {draw(st.sampled_from(options))})
    assert code == "SC2"
    assume(tq)
    dropped = draw(st.sampled_from(sorted(tq, key=set_key)))
    return Scale(space, tq, tuple(f - {dropped} for f in scale.assignment))


@st.composite
def arbitrary_scales(draw):
    """Declared family and assignment drawn from every subset of the
    carrier plus one stray point, so several conditions can fail at once."""
    space = draw(st.sampled_from(SPACES))
    universe = _subsets(range(space.n_points + 1))
    sets = st.frozensets(st.sampled_from(universe), max_size=4)
    return Scale(
        space,
        draw(sets),
        tuple(draw(sets) for _ in space.points),
    )


def _assert_same_result(scale):
    fast, ordered = validate_scale(scale), _first_violation(scale)
    assert (fast.ok, fast.code, fast.witness, fast.message) == (
        ordered.ok,
        ordered.code,
        ordered.witness,
        ordered.message,
    )
    return fast


@given(valid_scales())
@settings(max_examples=200, deadline=None)
def test_fast_path_accepts_valid_scales(scale):
    assert _assert_same_result(scale).ok


@pytest.mark.parametrize(
    "code", ["MALFORMED", "ASSIGNMENT_OUTSIDE_TQ", "TQ_NOT_OPEN", "SC1", "SC2"]
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_ordered_search_on_violations(code, data):
    scale = _mutate(data.draw, data.draw(valid_scales(proper=code == "SC1")), code)
    assert _assert_same_result(scale).code == code


@given(arbitrary_scales())
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_ordered_search_on_arbitrary_scales(scale):
    _assert_same_result(scale)


# -- the per-object validation memo -------------------------------------------


def _count_validations(monkeypatch):
    calls = []

    def counting(scale):
        calls.append(scale)
        return validate_scale(scale)

    monkeypatch.setattr(scales, "validate_scale", counting)
    return calls


def test_require_valid_validates_each_object_once(monkeypatch):
    calls = _count_validations(monkeypatch)
    t = trivial_scale(sierpinski())
    assert require_valid(t) is t
    assert require_valid(t) is t
    assert len(calls) == 1
    require_valid(Scale(t.space, t.tq, t.assignment))
    assert len(calls) == 2


def test_require_valid_rejects_invalid_scale_every_time(monkeypatch):
    calls = _count_validations(monkeypatch)
    bad = mk(sierpinski(), [(0,), (0, 1)], [(0,), (0, 1)], [(0,)])
    for _ in range(2):
        with pytest.raises(ValueError, match="SC1"):
            require_valid(bad)
    assert len(calls) == 1


def test_validated_scale_equals_unvalidated_copy():
    t = trivial_scale(discrete_space(2))
    copy = Scale(t.space, t.tq, t.assignment)
    require_valid(t)
    assert t == copy and copy == t
    assert hash(t) == hash(copy)
    assert repr(t) == repr(copy)
    assert len({t, copy}) == 1


def test_validated_scale_keeps_its_verdict_through_pickle(monkeypatch):
    good = trivial_scale(sierpinski())
    bad = mk(sierpinski(), [(0,), (0, 1)], [(0, 1)], [(0, 1)])
    require_valid(good)
    with pytest.raises(ValueError):
        require_valid(bad)
    good2, bad2 = pickle.loads(pickle.dumps((good, bad)))
    calls = _count_validations(monkeypatch)
    assert good2 == good and require_valid(good2) is good2
    with pytest.raises(ValueError, match="SC2"):
        require_valid(bad2)
    assert calls == []


# -- classification -------------------------------------------------------------


def test_trivial_scale_flags():
    for space in enumerate_topologies(2):
        flags = classify(trivial_scale(space))
        assert flags.condition_F and flags.is_F
        assert flags.is_U and flags.is_I and flags.is_L
        assert flags.neighborhood_closed


def test_p_structure_is_filter():
    d = discrete_space(2)
    ps = p_structure(d, [frozenset({0}), frozenset({1})])
    flags = classify(ps)
    assert flags.is_P and flags.is_F


def test_union_structure_that_is_not_filter():
    # Chain topology on 3 points; each point keeps only its smallest
    # declared neighborhood and the carrier, so open supersets are missing.
    chain = FiniteSpace.of(3, [(), (0,), (0, 1), (0, 1, 2)])
    s = mk(
        chain,
        [(0,), (0, 1, 2)],
        [(0,), (0, 1, 2)],
        [(0, 1, 2)],
        [(0, 1, 2)],
    )
    flags = classify(s)
    assert flags.is_U and not flags.is_F


def test_filter_structure_that_is_not_intersection_closed():
    # Discrete 3-point space.  Every per-point family is a principal
    # filter, yet intersecting with a declared set through another point
    # exits the family: {0,1} n {0,2} = {0} is assigned nowhere.
    d = discrete_space(3)
    s = mk(
        d,
        [(0, 1), (0, 2), (0, 1, 2)],
        [(0, 1), (0, 1, 2)],
        [(0, 1), (0, 1, 2)],
        [(0, 2), (0, 1, 2)],
    )
    flags = classify(s)
    assert flags.is_F and flags.is_P
    assert not flags.is_I


def test_flag_implications_on_enumerated_scales():
    for space in enumerate_topologies(2):
        for scale in enumerate_scales(space):
            flags = classify(scale)
            if flags.is_P:
                assert flags.is_F
            if flags.is_F:
                assert flags.is_U and flags.is_L
            if flags.condition_F:
                assert validate_scale(scale).ok
            assert flags.weak_L == (flags.weak_U and flags.weak_I)


# -- q-open / q-closed ------------------------------------------------------------


def ref_closure_flags(scale: Scale) -> tuple[bool, bool, bool, bool]:
    """``is_F``, ``is_U``, ``is_I`` and ``is_L`` by their own loops, as
    ``classify`` computed them before it read them off the closures."""
    space, tq = scale.space, scale.tq

    def family_is_filter(x: int) -> bool:
        fam = scale.at(x)
        if not fam:
            return False
        for a, b in itertools.combinations(fam, 2):
            if a & b not in fam:
                return False
        for a in fam:
            for b in space.opens:
                if a <= b and b not in fam:
                    return False
        return True

    is_f = all(family_is_filter(x) for x in space.points)
    is_u = all(
        a | b in scale.at(x)
        for x in space.points
        for a in scale.at(x)
        for b in tq
    )
    is_i = all(
        a & b in scale.at(x)
        for x in space.points
        for a in scale.at(x)
        for b in tq
        if x in b
    )
    is_l = all(
        (a | b in scale.at(x)) and (a & b in scale.at(x))
        for x in space.points
        for a in scale.at(x)
        for b in scale.at(x)
    )
    return is_f, is_u, is_i, is_l


def test_closure_flags_match_their_own_loops_on_every_small_scale():
    """Every valid scale with at most three points."""
    count = 0
    for n in (1, 2, 3):
        for space in enumerate_topologies(n):
            for scale in enumerate_scales(space):
                flags = classify(scale)
                got = (flags.is_F, flags.is_U, flags.is_I, flags.is_L)
                assert got == ref_closure_flags(scale), scale
                count += 1
    assert count == 9086


def test_q_open_edges():
    t = trivial_scale(sierpinski())
    assert not q_open(t, frozenset())
    assert not q_closed(t, t.space.carrier)
    assert q_open(t, t.space.carrier)
    assert q_closed(t, frozenset())
    assert q_open(t, frozenset({0}))
    assert not q_open(t, frozenset({1}))
    assert q_closed(t, frozenset({1}))


# -- finer / subscale ---------------------------------------------------------------


def test_trivial_scale_is_finest():
    for space in enumerate_topologies(2):
        t = trivial_scale(space)
        for scale in enumerate_scales(space):
            assert finer(t, scale)


def test_finer_is_preorder():
    space = sierpinski()
    scales = list(enumerate_scales(space))
    for s in scales:
        assert finer(s, s)
    for a, b, c in itertools.product(scales, repeat=3):
        if finer(a, b) and finer(b, c):
            assert finer(a, c)


def test_finer_agrees_with_pointwise():
    space = discrete_space(2)
    scales = list(enumerate_scales(space))
    for a, b in itertools.product(scales, repeat=2):
        assert finer(a, b) == all(
            finer_at(a, b, x) for x in space.points
        )


def test_subscale():
    space = discrete_space(2)
    for scale in enumerate_scales(space):
        assert is_subscale(scale, scale)
    t = trivial_scale(space)
    sub = mk(space, [(0,), (1,)], [(0,)], [(1,)])
    assert is_subscale(sub, t)
    invalid_sub = mk(space, [(0,), (1,)], [(0,)], [])
    assert not is_subscale(invalid_sub, t)


@pytest.mark.parametrize("cap", [1, 5, 500, 5000])
def test_the_candidate_cap_stops_at_a_prefix(cap):
    """``max_candidates`` ends the enumeration early and silently: what it
    yields is a prefix of the uncapped enumeration, and ``count_scales``
    with the same cap counts that prefix."""
    space = discrete_space(3)
    full = list(enumerate_scales(space))
    capped = list(enumerate_scales(space, max_candidates=cap))
    assert 0 < len(capped) < len(full) == 4096
    assert capped == full[: len(capped)]
    assert count_scales(space, cap) == len(capped)


def test_mixed_space_operands_rejected():
    with pytest.raises(ValueError):
        finer(trivial_scale(sierpinski()), trivial_scale(discrete_space(2)))


# -- algebra -----------------------------------------------------------------------


def test_scale_union_idempotent():
    for scale in enumerate_scales(sierpinski()):
        assert scale_union(scale, scale) == scale


def test_scale_intersection_reports_sc2():
    d = discrete_space(2)
    p = mk(d, [(0,), (0, 1), (1,)], [(0,), (0, 1)], [(1,)])
    q = mk(d, [(0,), (0, 1), (1,)], [(0,)], [(1,), (0, 1)])
    with pytest.raises(ScaleIntersectionError) as err:
        scale_intersection(p, q)
    assert err.value.witness == frozenset({0, 1})
    ok = scale_intersection(p, p)
    assert ok == p


def test_f_closure_examples():
    t = trivial_scale(sierpinski())
    assert f_closure(t) == t
    d = discrete_space(2)
    seed = mk(d, [(0,), (1,)], [(0,)], [(1,)])
    closed = f_closure(seed)
    assert closed == p_structure(d, [frozenset({0}), frozenset({1})])


def test_closures_establish_flags():
    for space in enumerate_topologies(2):
        for scale in enumerate_scales(space):
            assert classify(f_closure(scale)).is_F
            assert classify(u_closure(scale)).is_U
            assert classify(i_closure(scale)).is_I
            assert classify(l_closure(scale)).is_L


def test_closures_are_extensive_idempotent_least():
    space = sierpinski()
    scales = list(enumerate_scales(space))
    for close, flag in (
        (f_closure, "is_F"),
        (u_closure, "is_U"),
        (i_closure, "is_I"),
        (l_closure, "is_L"),
    ):
        for s in scales:
            c = close(s)
            for x in space.points:
                assert s.at(x) <= c.at(x)
            assert close(c) == c
            # Least: any flagged superscale dominates the closure pointwise.
            for t in scales:
                if getattr(classify(t), flag) and all(
                    s.at(x) <= t.at(x) for x in space.points
                ):
                    assert all(c.at(x) <= t.at(x) for x in space.points)


# -- enumeration --------------------------------------------------------------------


def test_enumerate_scales_counts_and_validity():
    assert count_scales(sierpinski()) == 8
    assert count_scales(discrete_space(2)) == 16
    for scale in enumerate_scales(discrete_space(2)):
        assert validate_scale(scale).ok


def test_enumerate_scales_deterministic_and_budget():
    first = [s.key() for s in enumerate_scales(sierpinski())]
    second = [s.key() for s in enumerate_scales(sierpinski())]
    assert first == second
    assert len(set(first)) == len(first)
    prefix = [s.key() for s in enumerate_scales(sierpinski(), budget=3)]
    assert prefix == first[:3]
