"""Per-space tables: the open neighborhoods of each point, the up-set of
each open and the shared trivial scale, and the readers built on them.

Every table is checked against the inline definition it replaced, on
every topology with n <= 3 and on sampled n = 4 ones.  The random scale
builders of the composition and constancy sweeps are checked against
copies of their table-free forms: the same scales from the same draws
(the composition sweeps draw mask forms, compared with the reference
scale's masks and turned back into an equal scale), leaving the
generator in the same state.
"""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop import verifier
from scaletop.continuity import ScaledMap
from scaletop.finite_topology import (
    FiniteSpace,
    canon,
    enumerate_topologies,
    set_key,
)
from scaletop.scales import (
    Scale,
    p_structure,
    require_valid,
    scale_masks,
    trivial_scale,
)

SMALL_SPACES = [space for n in (1, 2, 3) for space in enumerate_topologies(n)]
FOUR_POINT_SPACES = list(enumerate_topologies(4))
every_space = pytest.mark.parametrize(
    "space", [*SMALL_SPACES, None], ids=lambda s: "n4" if s is None else None
)


def _space(space, data):
    """The parametrized space, or (None) a sampled four-point one."""
    return space or data.draw(st.sampled_from(FOUR_POINT_SPACES))


def _twin(space: FiniteSpace) -> FiniteSpace:
    """An equal space with no table built yet."""
    return FiniteSpace(space.n_points, space.opens)


# -- the table-free definitions the tables replace ---------------------------


def ref_neighborhoods(space, x):
    return sorted((o for o in space.opens if x in o), key=set_key)


def ref_trivial_scale(space):
    tq = frozenset(o for o in space.opens if o)
    assignment = tuple(
        frozenset(o for o in space.opens if x in o) for x in space.points
    )
    return Scale(space, tq, assignment)


def ref_p_structure(space, chosen):
    assignment = tuple(
        frozenset(b for b in space.opens if chosen[x] <= b) for x in space.points
    )
    tq = frozenset(itertools.chain.from_iterable(assignment))
    return Scale(space, tq, assignment)


def ref_random_scale(space, rng):
    style = rng.randrange(3)
    if style == 0:
        return ref_trivial_scale(space)
    if style == 1:
        chosen = []
        for x in space.points:
            chosen.append(rng.choice(ref_neighborhoods(space, x)))
        return ref_p_structure(space, chosen)
    fams = []
    for x in space.points:
        fam = [
            o
            for o in sorted((o for o in space.opens if o and x in o), key=set_key)
            if rng.random() < 0.5
        ]
        fams.append(frozenset(fam))
    tq = frozenset(itertools.chain.from_iterable(fams))
    return Scale(space, tq, tuple(fams))


def ref_sampled_p_structures(space, budget, seed):
    rng = random.Random(f"{seed}:{space.key()}")
    seen = set()
    out = []
    options = [ref_neighborhoods(space, x) for x in space.points]
    attempts = 0
    while len(out) < budget and attempts < budget * 8:
        attempts += 1
        chosen = tuple(rng.choice(options[x]) for x in space.points)
        key = tuple(canon(c) for c in chosen)
        if key in seen:
            continue
        seen.add(key)
        out.append(ref_p_structure(space, chosen))
    return out


# -- the tables ------------------------------------------------------------------


@every_space
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_tables_match_their_inline_definitions(space, data):
    space = _twin(_space(space, data))
    assert space.neighborhoods == tuple(
        tuple(ref_neighborhoods(space, x)) for x in space.points
    )
    assert space.up_sets == {
        a: frozenset(b for b in space.opens if a <= b) for a in space.opens
    }
    for x in space.points:
        assert space.min_open_around(x) == min(
            (o for o in space.opens if x in o), key=len
        )


@every_space
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_trivial_scale_is_built_once_per_space(space, data):
    space = _twin(_space(space, data))
    t = trivial_scale(space)
    assert t == ref_trivial_scale(space)
    assert trivial_scale(space) is t
    assert scale_masks(t) is scale_masks(trivial_scale(space))
    # an equal space keeps its own trivial scale, equal to this one
    twin = _twin(space)
    assert trivial_scale(twin) == t and trivial_scale(twin) is not t


@every_space
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_p_structure_is_unchanged(space, data):
    space = _space(space, data)
    chosen = [
        data.draw(st.sampled_from(ref_neighborhoods(space, x)))
        for x in space.points
    ]
    got = p_structure(space, chosen)
    assert got == ref_p_structure(space, chosen)
    assert require_valid(got) is got


def test_p_structure_keeps_its_argument_checks():
    space = FiniteSpace.of(2, [(), (0,), (0, 1)])
    with pytest.raises(ValueError, match="one chosen neighborhood per point"):
        p_structure(space, [space.carrier])
    for chosen in (
        [frozenset({1}), space.carrier],  # not open
        [space.carrier, frozenset({0})],  # misses its point
    ):
        with pytest.raises(ValueError, match="must be an open neighborhood"):
            p_structure(space, chosen)
    # a plain set is accepted, as before
    assert p_structure(space, [{0}, {0, 1}]) == ref_p_structure(
        space, [frozenset({0}), space.carrier]
    )


@every_space
@given(data=st.data(), seed=st.integers(0, 2**32))
@settings(max_examples=5, deadline=None)
def test_random_scale_draws_are_unchanged(space, data, seed):
    space = _space(space, data)
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(6):
        want = ref_random_scale(space, ref)
        draw = verifier._draw_scale(space, rng)
        assert draw == scale_masks(want)
        assert verifier._materialize(space, draw) == want
        assert rng.getstate() == ref.getstate()


@every_space
@given(data=st.data(), seed=st.integers(0, 2**16), budget=st.integers(1, 12))
@settings(max_examples=3, deadline=None)
def test_sampled_p_structures_are_unchanged(space, data, seed, budget):
    space = _space(space, data)
    got = verifier._sampled_p_structures(space, budget, seed)
    assert [ps for _, ps in got] == ref_sampled_p_structures(space, budget, seed)
    for chosen, ps in got:
        # The handed-back neighborhood generates its point's family.
        assert list(chosen) == [
            space.carrier.intersection(*ps.at(x)) for x in space.points
        ]


def test_random_space_draws_are_unchanged():
    rng, ref = random.Random(7), random.Random(7)
    for _ in range(50):
        got = verifier._random_space(rng, 3)
        n = ref.randint(1, 3)
        spaces = list(enumerate_topologies(n))
        assert got == spaces[ref.randrange(len(spaces))]
        assert rng.getstate() == ref.getstate()


# -- what the stored tables leave alone -------------------------------------


def test_stored_tables_leave_equality_hash_and_pickle_alone():
    for space in (*SMALL_SPACES, *FOUR_POINT_SPACES[::40]):
        built, plain = _twin(space), _twin(space)
        t = trivial_scale(built)
        require_valid(t)
        built.up_sets, built.family_masks, built.min_open_around(0)
        assert built.__dict__.keys() > plain.__dict__.keys()
        assert built == plain and hash(built) == hash(plain)
        assert repr(built) == repr(plain)
        back = pickle.loads(pickle.dumps(built))
        assert back == plain and hash(back) == hash(plain)
        assert trivial_scale(back).space is back
        assert trivial_scale(back) == t
        scale_back = pickle.loads(pickle.dumps(t))
        assert scale_back == t and trivial_scale(scale_back.space) is scale_back


# -- ScaledMap's table checks ------------------------------------------------------


def test_scaled_map_rejects_short_tables_and_outside_images():
    x_space = FiniteSpace.of(2, [(), (0,), (0, 1)])
    y_space = FiniteSpace.of(3, [(), (0, 1, 2)])
    q, r = trivial_scale(x_space), trivial_scale(y_space)
    for table in ((0,), (0, 1, 2), ()):
        with pytest.raises(ValueError, match="table must be total"):
            ScaledMap(table, q, r)
    # the length check comes first
    with pytest.raises(ValueError, match="table must be total"):
        ScaledMap((-1,), q, r)
    for table in ((-1, 0), (0, -1), (3, 0), (0, 3), (-1, 3)):
        with pytest.raises(ValueError, match="image point outside"):
            ScaledMap(table, q, r)
    for table in ((0, 0), (2, 1), (1, 2)):
        assert ScaledMap(table, q, r).table == table
