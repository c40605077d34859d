"""The verifier's compiled decisions against the public kernels.

Sweeps decide each instance on its compiled form: a map table with its
preimage masks from ``verifier._tables`` and each scale's mask form,
through ``continuity.first_failure``.  P4 decides each instance with two
subset tests (``_p4_sides``), and T3/C10 decide constancy on masks
(``_constant_on``).  Here each is compared with what the public kernels
say of the same ``ScaledMap``: ``check_continuity`` in all twelve modes
(at-point at every point), ``check_closed_characterization`` and a
frozenset strong side, and ``constancy_profile`` / ``constant_on``, on
every topology with n <= 3 and on sampled n = 4 ones, with random valid
scales and random tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop import verifier
from scaletop.continuity import (
    ALL_MODES,
    ContinuityMode,
    ScaledMap,
    check_closed_characterization,
    check_continuity,
    constancy_profile,
    constant_on,
)
from scaletop.finite_topology import connected_components, enumerate_topologies, mask_of
from scaletop.scales import Scale, scale_masks

SMALL_SPACES = [space for n in (1, 2, 3) for space in enumerate_topologies(n)]
FOUR_POINT_SPACES = list(enumerate_topologies(4))
STRONG_GLOBAL = ContinuityMode("strong", "global")
spaces = st.one_of(st.sampled_from(SMALL_SPACES), st.sampled_from(FOUR_POINT_SPACES))


@st.composite
def scales_on(draw, space):
    """A valid scale: each point keeps a random subset of its nonempty
    open neighborhoods, and the declared family is what stays assigned."""
    fams = []
    for x in space.points:
        options = [o for o in space.opens_sorted() if o and x in o]
        fams.append(frozenset(draw(st.lists(st.sampled_from(options), unique=True))))
    return Scale(space, frozenset().union(*fams), tuple(fams))


@st.composite
def compiled(draw, xs):
    """A random instance as a ``ScaledMap`` and in its compiled form, its
    preimage masks taken from the verifier's shared table cache."""
    ys = draw(spaces)
    table = tuple(draw(st.integers(0, ys.n_points - 1)) for _ in xs.points)
    q, r = draw(scales_on(xs)), draw(scales_on(ys))
    pre = dict(verifier._tables(xs.n_points, ys.n_points, None))[table]
    inst = verifier._Instance(table, pre, q, scale_masks(q), r, scale_masks(r))
    return ScaledMap(table, q, r), inst


def twelve_modes(f):
    """The eight local and global modes, then the four at-point modes at
    every domain point."""
    yield from ALL_MODES
    for x in f.domain.space.points:
        for strength in ("strong", "weak"):
            for trivial in (False, True):
                yield ContinuityMode(strength, "at-point", trivial, at_point=x)


def check_modes(f, inst) -> None:
    for mode in twelve_modes(f):
        assert inst.holds(mode) == check_continuity(f, mode).holds, mode.label()


def check_variants(data, f, inst) -> None:
    """The variants P7/P8/C14/C16/C17/T5/T6 derive swap one scale and
    keep the table's preimage masks."""
    q2 = data.draw(scales_on(f.domain.space))
    r2 = data.draw(scales_on(f.codomain.space))
    for g, variant in (
        (ScaledMap(f.table, q2, f.codomain), inst.with_domain(q2)),
        (ScaledMap(f.table, f.domain, r2), inst.with_codomain(r2)),
    ):
        assert variant.map() == g
        check_modes(g, variant)


def check_p4_sides(f, inst) -> None:
    q, r = f.domain, f.codomain
    full = (1 << q.space.n_points) - 1
    opens, closeds = verifier._p4_sides(inst.pre, inst.cod.tq, full)
    strong = opens <= q.assigned_union()
    closed = closeds <= verifier._closed_masks(q, full)
    # the strong side as frozensets, straight from the table
    frozen = all(not p or p in q.assigned_union() for p in map(f.preimage, r.tq))
    assert strong == frozen == check_continuity(f, STRONG_GLOBAL).holds
    assert closed == check_closed_characterization(f).holds
    assert strong == closed


def check_constancy(data, f, inst) -> None:
    space = f.domain.space
    profile = constancy_profile(f)
    for x in space.points:
        local = verifier._constant_on(inst, mask_of(space.min_open_around(x)))
        assert local == (x in profile.locally_constant_at)
    blocks = connected_components(space)
    on_blocks = all(verifier._constant_on(inst, mask_of(b)) for b in blocks)
    assert on_blocks == profile.constant_on_components
    s = data.draw(st.sets(st.sampled_from(list(space.points)), min_size=1))
    assert verifier._constant_on(inst, mask_of(s)) == constant_on(f, frozenset(s))


@pytest.mark.parametrize(
    "domain_space", [*SMALL_SPACES, None], ids=lambda s: "n4" if s is None else None
)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_compiled_decisions_match_the_public_kernels(domain_space, data):
    """Every topology with n <= 3 as the domain (None: a sampled n = 4
    one), against scales and tables drawn at random."""
    xs = domain_space or data.draw(st.sampled_from(FOUR_POINT_SPACES))
    f, inst = data.draw(compiled(xs))
    check_modes(f, inst)
    check_variants(data, f, inst)
    check_p4_sides(f, inst)
    check_constancy(data, f, inst)
