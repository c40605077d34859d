"""Topology axioms, enumeration counts, and closure/interior/component
laws.  Enumeration is cross-checked against the raw family-filter oracle
for n <= 3; components against a clopen-separation oracle."""

import itertools

import pytest

from scaletop.finite_topology import (
    FiniteSpace,
    closure,
    connected_components,
    discrete_space,
    enumerate_topologies,
    enumerate_topologies_bruteforce,
    indiscrete_space,
    interior,
    is_T1,
    sierpinski,
    validate_topology,
)


def fam(*sets):
    return frozenset(frozenset(s) for s in sets)


# -- validation -------------------------------------------------------------


def test_validate_examples():
    assert validate_topology(fam((), (0,), (0, 1)), 2).ok
    bad = validate_topology(fam((), (0,), (1,)), 2)
    assert not bad.ok
    assert bad.code == "MISSING_CARRIER"
    assert validate_topology(
        fam(*(itertools.chain.from_iterable(
            itertools.combinations(range(3), r) for r in range(4)
        ))), 3).ok


def test_validate_malformed_is_distinct():
    malformed = validate_topology(fam((), (0, 7), (0, 1)), 2)
    assert malformed.code == "MALFORMED"
    assert validate_topology(fam((), (0, 1)), 0).code == "MALFORMED"


def test_validate_closure_axioms():
    missing_union = validate_topology(fam((), (0,), (1,), (0, 1, 2)), 3)
    assert missing_union.code == "UNION_NOT_OPEN"
    missing_inter = validate_topology(
        fam((), (0, 1), (1, 2), (0, 1, 2)), 3
    )
    assert missing_inter.code == "INTERSECTION_NOT_OPEN"


def test_space_construction_rejects_invalid():
    with pytest.raises(ValueError):
        FiniteSpace.of(2, [(), (0,)])


# -- enumeration ------------------------------------------------------------


def test_topology_counts():
    assert len(list(enumerate_topologies(1))) == 1
    assert len(list(enumerate_topologies(2))) == 4
    assert len(list(enumerate_topologies(3))) == 29
    assert len(list(enumerate_topologies(4))) == 355


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_matches_bruteforce_oracle(n):
    fast = [s.opens for s in enumerate_topologies(n)]
    slow = [s.opens for s in enumerate_topologies_bruteforce(n)]
    assert fast == slow


def test_enumeration_deterministic_and_valid():
    first = [s.opens for s in enumerate_topologies(3)]
    second = [s.opens for s in enumerate_topologies(3)]
    assert first == second
    assert len(set(first)) == len(first)
    for opens in first:
        assert validate_topology(opens, 3).ok


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        list(enumerate_topologies(0))
    with pytest.raises(ValueError):
        list(enumerate_topologies(5))


# -- closure / interior ------------------------------------------------------


def test_closure_interior_examples():
    s = sierpinski()
    assert closure(s, frozenset({0})) == frozenset({0, 1})
    assert interior(s, frozenset({1})) == frozenset()
    d = discrete_space(3)
    for bits in range(8):
        sub = frozenset(i for i in range(3) if bits >> i & 1)
        assert closure(d, sub) == sub


def test_closure_laws_exhaustive():
    for space in enumerate_topologies(3):
        subsets = [
            frozenset(i for i in range(3) if bits >> i & 1) for bits in range(8)
        ]
        for a in subsets:
            ca = closure(space, a)
            assert a <= ca
            assert closure(space, ca) == ca
            assert interior(space, a) == space.carrier - closure(
                space, space.carrier - a
            )
            for b in subsets:
                if a <= b:
                    assert ca <= closure(space, b)


# -- connectivity -------------------------------------------------------------


def oracle_components(space: FiniteSpace) -> list[frozenset[int]]:
    """Clopen-separation oracle: a subset is connected iff its subspace has
    no proper nonempty relatively clopen subset; the component of x is the
    unique maximal connected subset containing x."""
    def is_conn(block: frozenset[int]) -> bool:
        if len(block) <= 1:
            return True
        rel_opens = {o & block for o in space.opens}
        for candidate in rel_opens:
            if candidate and candidate != block and block - candidate in rel_opens:
                return False
        return True

    all_subsets = [
        frozenset(i for i in range(space.n_points) if bits >> i & 1)
        for bits in range(1 << space.n_points)
    ]
    connected = [s for s in all_subsets if s and is_conn(s)]
    out = []
    for x in range(space.n_points):
        best = max((s for s in connected if x in s), key=len)
        if best not in out:
            out.append(best)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def test_component_examples():
    assert connected_components(discrete_space(2)) == [
        frozenset({0}),
        frozenset({1}),
    ]
    assert connected_components(indiscrete_space(3)) == [frozenset({0, 1, 2})]
    assert connected_components(sierpinski()) == [frozenset({0, 1})]


def test_components_match_oracle_exhaustive():
    for n in (1, 2, 3):
        for space in enumerate_topologies(n):
            assert connected_components(space) == oracle_components(space)


def test_cached_components_are_a_fresh_list_each_call():
    space = discrete_space(2)
    first = connected_components(space)
    first.clear()
    assert connected_components(space) == [frozenset({0}), frozenset({1})]


def test_min_open_around_is_the_intersection_of_the_opens_holding_x():
    for n in (1, 2, 3):
        for space in enumerate_topologies(n):
            for x in (-1, *space.points, n):
                want = space.carrier
                for o in space.opens:
                    if x in o:
                        want = want & o
                assert space.min_open_around(x) == want


def test_components_form_partition():
    for space in enumerate_topologies(3):
        blocks = connected_components(space)
        assert frozenset().union(*blocks) == space.carrier
        assert sum(len(b) for b in blocks) == space.n_points


# -- separation ---------------------------------------------------------------


def test_is_T1_examples():
    assert is_T1(discrete_space(3))
    assert not is_T1(sierpinski())
    assert not is_T1(indiscrete_space(2))


def test_T1_iff_singletons_open_on_finite():
    for space in enumerate_topologies(3):
        singles_open = all(
            frozenset({x}) in space.opens for x in space.points
        )
        assert is_T1(space) == singles_open
