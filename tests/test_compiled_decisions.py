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

T1/T2/P9 draw each scale as its mask form and decide f, g and g o f
through ``first_failure``.  They are compared with a copy of the object
path they replaced (random ``Scale`` objects, ``ScaledMap``,
``check_continuity`` and ``compose_scaled``): the same draws from the
same generator states, and the same tested and skipped counts and
violation documents.  As the composition claims hold, violations are
forced on both paths alike.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop import jsonio, verifier
from scaletop.continuity import (
    ALL_MODES,
    ContinuityMode,
    ScaledMap,
    check_closed_characterization,
    check_continuity,
    compose_scaled,
    constancy_profile,
    constant_on,
    middle_refines,
)
from scaletop.finite_topology import connected_components, enumerate_topologies, mask_of
from scaletop.scales import (
    Scale,
    p_structure,
    scale_masks,
    scale_union,
    trivial_scale,
    validate_scale,
)

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


# -- T1/T2/P9 against the object path -------------------------------------------


# The object path, kept as the reference for the compiled draws and
# decisions: random ``Scale`` objects decided as ``ScaledMap`` objects.


def parent_random_scale(space, rng):
    style = rng.randrange(3)
    if style == 0:
        return trivial_scale(space)
    if style == 1:
        return p_structure(
            space, [rng.choice(around) for around in space.neighborhoods]
        )
    fams = tuple(
        frozenset(o for o in around if rng.random() < 0.5)
        for around in space.neighborhoods
    )
    return Scale(space, frozenset().union(*fams), fams)


def parent_extend_scale(base, rng):
    extra = parent_random_scale(base.space, rng)
    return scale_union(base, extra) if rng.random() < 0.7 else base


def holds(f, mode) -> bool:
    return check_continuity(f, mode).holds


def parent_run_composition(task, cfg, which, decide=holds):
    """The object path: ``Scale`` objects, ``ScaledMap``,
    ``check_continuity`` (through ``decide``) and ``compose_scaled``."""
    res = verifier.TaskResult()
    chunk_index, trials = task
    rng = random.Random(f"{cfg.seed}:{which}:{chunk_index}")
    loci = ("at-point",) if which == "T1" else ("local", "global")
    max_points = min(cfg.max_points, 3)
    for trial in range(trials):
        xs = verifier._random_space(rng, max_points)
        ys = verifier._random_space(rng, max_points)
        zs = verifier._random_space(rng, max_points)
        q = parent_random_scale(xs, rng)
        p = parent_random_scale(zs, rng)
        r = parent_random_scale(ys, rng)
        h = r if which == "P9" else parent_extend_scale(r, rng)
        f_table = tuple(rng.randrange(ys.n_points) for _ in range(xs.n_points))
        g_table = tuple(rng.randrange(zs.n_points) for _ in range(ys.n_points))
        if not middle_refines(r, h):
            res.skipped += 1
            continue
        f = ScaledMap(f_table, q, h)
        g = ScaledMap(g_table, r, p)
        locus = loci[trial % len(loci)]
        if locus == "at-point":
            x = rng.randrange(xs.n_points)
            mode = ContinuityMode("strong", "at-point", at_point=x)
            g_mode = ContinuityMode("strong", "at-point", at_point=f_table[x])
            hypothesis = decide(f, mode) and decide(g, g_mode)
            witness = {"point": x}
        else:
            mode = ContinuityMode("strong", locus)
            hypothesis = decide(f, mode) and decide(g, mode)
            witness = {"locus": locus}
        if not hypothesis:
            res.skipped += 1
            continue
        res.tested += 1
        if not decide(compose_scaled(g, f), mode):
            res.violation(
                {
                    "f": jsonio.scaled_map_to_json(f),
                    "g": jsonio.scaled_map_to_json(g),
                    **witness,
                }
            )
    return res


COMPOSITIONS = ("T1", "T2", "P9")


@given(
    which=st.sampled_from(COMPOSITIONS),
    seed=st.integers(0, 2**16),
    chunk=st.integers(0, 15),
    trials=st.integers(0, 80),
    max_points=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_composition_sweeps_match_the_object_path(which, seed, chunk, trials, max_points):
    cfg = verifier.SweepConfig(max_points=max_points, seed=seed)
    task = (chunk, trials)
    got = verifier._run_composition(task, cfg, which)
    assert got == parent_run_composition(task, cfg, which)


def check_draw(space, draw, want, rng, ref) -> None:
    assert draw == scale_masks(want)
    assert verifier._materialize(space, draw) == want
    assert rng.getstate() == ref.getstate()


@given(
    which=st.sampled_from(COMPOSITIONS),
    seed=st.integers(0, 2**32),
    chunk=st.integers(0, 15),
)
@settings(max_examples=30, deadline=None)
def test_composition_draws_match_the_object_path(which, seed, chunk):
    """Every scale of 25 trials' draws, in the sweep's order: the mask
    form of the scale the object path draws, turned back into an equal
    scale, with the generator left in the same state."""
    rng = random.Random(f"{seed}:{which}:{chunk}")
    ref = random.Random(f"{seed}:{which}:{chunk}")
    for _ in range(25):
        xs, ys, zs = (verifier._random_space(rng, 3) for _ in range(3))
        for _ in range(3):
            verifier._random_space(ref, 3)
        for space in (xs, zs):
            draw = verifier._draw_scale(space, rng)
            check_draw(space, draw, parent_random_scale(space, ref), rng, ref)
        r, r_ref = verifier._draw_scale(ys, rng), parent_random_scale(ys, ref)
        check_draw(ys, r, r_ref, rng, ref)
        if which != "P9":
            h = verifier._draw_superscale(ys, r, rng)
            check_draw(ys, h, parent_extend_scale(r_ref, ref), rng, ref)
            assert verifier._refines(r, h)


def forced(table) -> bool:
    """A failure forced on both paths: every map sending all points to 0."""
    return not any(table)


def forced_holds(f, mode) -> bool:
    return holds(f, mode) and not forced(f.table)


def test_forced_violations_match_the_object_path(monkeypatch):
    """With failures forced alike on the compiled decisions and on the
    object path, the violation documents are equal, each one's scales
    are valid, and each violation builds f and g, two maps, through
    ``verifier.ScaledMap``."""
    real = verifier.first_failure

    def failing(table, pre, dom, cod, mode):
        failure = real(table, pre, dom, cod, mode)
        if failure is None and forced(table):
            return None, 0, 0
        return failure

    built = []

    def scaled_map(*args):
        built.append(args)
        return ScaledMap(*args)

    monkeypatch.setattr(verifier, "first_failure", failing)
    monkeypatch.setattr(verifier, "ScaledMap", scaled_map)
    cfg = verifier.SweepConfig(max_points=3, seed=5)
    total = 0
    for which in COMPOSITIONS:
        for chunk in range(3):
            built.clear()
            got = verifier._run_composition((chunk, 150), cfg, which)
            assert got == parent_run_composition((chunk, 150), cfg, which, forced_holds)
            assert len(built) == 2 * len(got.violations)
            for doc in got.violations:
                for side in ("f", "g"):
                    f = jsonio.scaled_map_from_json(doc[side])
                    assert validate_scale(f.domain) and validate_scale(f.codomain)
            total += len(got.violations)
    assert total > 0
