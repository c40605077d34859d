"""Finite-world continuity checks: mode semantics, the closed-set
characterization, composition bookkeeping, and constancy profiles.

A pinned instance separates local from global strong continuity: the
domain is the two-point space with one open singleton carrying its
trivial scale, the codomain is the discrete three-point space with a
scale that assigns {1,2} only to the off-image point 2, so the preimage
{1} of {1,2} is never assigned, while every pointwise demand passes.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaletop.finite_topology import (
    FiniteSpace,
    canon,
    discrete_space,
    enumerate_topologies,
    set_key,
    sierpinski,
)
from scaletop.continuity import (
    ALL_MODES,
    ComposedScaledMap,
    ContinuityMode,
    ScaledMap,
    check_closed_characterization,
    check_continuity,
    compose_scaled,
    constancy_profile,
    middle_refines,
    parse_mode,
    replay_certificate,
)
from scaletop.scales import (
    Scale,
    p_structure,
    q_open,
    require_valid,
    trivial_scale,
)


def fz(*sets):
    return frozenset(frozenset(s) for s in sets)


def mk_scale(space, tq, *fams) -> Scale:
    return Scale(space, fz(*tq), tuple(fz(*f) for f in fams))


def test_mode_parsing():
    m = parse_mode("local-strong")
    assert m.locus == "local" and m.strength == "strong"
    m2 = parse_mode("at-weak", at_point=1)
    assert m2.locus == "at-point" and m2.at_point == 1
    with pytest.raises(ValueError):
        parse_mode("sideways")
    with pytest.raises(ValueError):
        ContinuityMode(locus="at-point")


def test_identity_with_trivial_scales_holds_everywhere():
    for space in (sierpinski(), discrete_space(2)):
        t = trivial_scale(space)
        ident = ScaledMap(tuple(space.points), t, t)
        for mode in ALL_MODES:
            assert check_continuity(ident, mode).holds
        for x in space.points:
            assert check_continuity(
                ident, ContinuityMode("strong", "at-point", at_point=x)
            ).holds


def test_constant_map_with_condition_f_domain():
    # With the whole carrier assigned everywhere, the constant map's
    # preimages (always the carrier) are assigned at every point.
    space = sierpinski()
    dom = mk_scale(
        space,
        [(0, 1)],
        [(0, 1)],
        [(0, 1)],
    )
    cod = trivial_scale(space)
    const = ScaledMap((0, 0), dom, cod)
    for x in space.points:
        assert check_continuity(
            const, ContinuityMode("strong", "at-point", at_point=x)
        ).holds


def pinned_local_vs_global():
    dom_space = sierpinski()
    cod_space = discrete_space(3)
    q = trivial_scale(dom_space)
    r = mk_scale(
        cod_space,
        [(0,), (0, 1), (2,), (1, 2)],
        [(0,)],
        [(0, 1)],
        [(2,), (1, 2)],
    )
    return ScaledMap((0, 1), q, r)


def test_local_strong_without_global_strong():
    f = pinned_local_vs_global()
    assert check_continuity(f, ContinuityMode("strong", "local")).holds
    verdict = check_continuity(f, ContinuityMode("strong", "global"))
    assert not verdict.holds
    assert verdict.certificate == {"r_open": (1, 2), "preimage": (1,)}
    assert replay_certificate(f, verdict.mode, verdict.certificate)


def test_empty_preimage_is_vacuous_globally():
    # Image misses codomain point 1; its singleton imposes no constraint.
    x_space = FiniteSpace.of(1, [(), (0,)])
    y_space = discrete_space(2)
    f = ScaledMap((0,), trivial_scale(x_space), trivial_scale(y_space))
    assert check_continuity(f, ContinuityMode("strong", "global")).holds
    assert check_continuity(f, ContinuityMode("weak", "global")).holds
    assert check_closed_characterization(f).holds


def test_closed_characterization_tracks_global_strong():
    f = pinned_local_vs_global()
    assert not check_closed_characterization(f).holds
    g = ScaledMap(
        (0, 1),
        trivial_scale(sierpinski()),
        trivial_scale(sierpinski()),
    )
    assert check_closed_characterization(g).holds


def test_strong_implies_weak_on_samples():
    f = pinned_local_vs_global()
    for mode in ALL_MODES:
        if mode.strength == "strong":
            weak_mode = ContinuityMode(
                "weak", mode.locus, mode.trivial_domain, mode.at_point
            )
            if check_continuity(f, mode).holds:
                assert check_continuity(f, weak_mode).holds


def test_compose_carries_middle_scales():
    space = discrete_space(2)
    t = trivial_scale(space)
    ident = ScaledMap((0, 1), t, t)
    swap = ScaledMap((1, 0), t, t)
    comp = compose_scaled(swap, ident)
    assert isinstance(comp, ComposedScaledMap)
    assert comp.table == (1, 0)
    assert comp.middle_hypothesis()  # trivial middle scales coincide
    sparse = mk_scale(space, [(0,), (1,)], [(0,)], [(1,)])
    f = ScaledMap((0, 1), t, sparse)
    g = ScaledMap((1, 0), t, t)
    comp2 = compose_scaled(g, f)
    # g's domain scale (trivial) is not pointwise inside f's codomain
    # scale (sparse), so the refinement hypothesis fails.
    assert not comp2.middle_hypothesis()
    assert middle_refines(sparse, t)
    into_sierpinski = ScaledMap(
        (0,),
        trivial_scale(FiniteSpace.of(1, [(), (0,)])),
        trivial_scale(sierpinski()),
    )
    with pytest.raises(ValueError):
        compose_scaled(f, into_sierpinski)  # middle spaces differ


def test_composition_preserves_continuity_when_hypothesis_holds():
    space = sierpinski()
    t = trivial_scale(space)
    f = ScaledMap((0, 1), t, t)
    g = ScaledMap((0, 0), t, t)
    comp = compose_scaled(g, f)
    assert comp.middle_hypothesis()
    for mode in ALL_MODES:
        if check_continuity(f, mode).holds and check_continuity(g, mode).holds:
            assert check_continuity(comp, mode).holds


def test_constancy_profile_examples():
    d2 = discrete_space(2)
    t = trivial_scale(d2)
    const = ScaledMap((0, 0), t, t)
    prof = constancy_profile(const)
    assert prof.locally_constant_at == frozenset({0, 1})
    assert prof.constant_on_components

    ident = ScaledMap((0, 1), t, t)
    prof2 = constancy_profile(ident)
    assert prof2.locally_constant_at == frozenset({0, 1})
    assert prof2.constant_on_components  # singleton components

    indiscrete = FiniteSpace.of(2, [(), (0, 1)])
    ti = trivial_scale(indiscrete)
    ident_i = ScaledMap((0, 1), ti, trivial_scale(d2))
    prof3 = constancy_profile(ident_i)
    assert prof3.locally_constant_at == frozenset()
    assert not prof3.constant_on_components


def test_weak_at_point_vs_principal_domain():
    # With a principal domain scale generated by the whole carrier and a
    # discrete codomain, weak continuity at a point is exactly constancy
    # on the chosen neighborhood.
    space = discrete_space(2)
    ps = p_structure(space, [frozenset({0, 1}), frozenset({0, 1})])
    cod = trivial_scale(discrete_space(2))
    ident = ScaledMap((0, 1), ps, cod)
    verdict = check_continuity(ident, ContinuityMode("weak", "at-point", at_point=0))
    assert not verdict.holds  # identity is not constant on {0,1}
    const = ScaledMap((1, 1), ps, cod)
    assert check_continuity(const, ContinuityMode("weak", "at-point", at_point=0)).holds


# -- the mask kernels against a frozenset reference ----------------------------
# The reference is the frozenset implementation the mask kernels replaced,
# kept verbatim: every verdict and certificate must agree with it.


def _ref_domain_scale(f, mode):
    return trivial_scale(f.domain.space) if mode.trivial_domain else f.domain


def _ref_sorted_sets(fams):
    return sorted(fams, key=set_key)


def ref_check_continuity(f, mode):
    require_valid(f.domain)
    require_valid(f.codomain)
    dom = _ref_domain_scale(f, mode)
    if mode.locus == "at-point":
        return _ref_check_at_point(f, dom, mode, mode.at_point)
    if mode.locus == "local":
        for x in f.domain.space.points:
            holds, cert = _ref_check_at_point(f, dom, mode, x)
            if not holds:
                return False, cert
        return True, None
    return _ref_check_global(f, dom, mode)


def _ref_check_at_point(f, dom, mode, x):
    if not 0 <= x < f.domain.space.n_points:
        raise ValueError(f"point {x} outside the domain carrier")
    y = f.apply(x)
    for target in _ref_sorted_sets(f.codomain.at(y)):
        if mode.strength == "strong":
            pre = f.preimage(target)
            if pre not in dom.at(x):
                return False, {
                    "point": x,
                    "target": canon(target),
                    "preimage": canon(pre),
                }
        else:
            if not any(f.image(u) <= target for u in dom.at(x)):
                return False, {"point": x, "target": canon(target)}
    return True, None


def _ref_check_global(f, dom, mode):
    dom_open = dom.assigned_union()
    for target in _ref_sorted_sets(f.codomain.assigned_union()):
        pre = f.preimage(target)
        if not pre:
            continue
        if mode.strength == "strong":
            if pre not in dom_open:
                return False, {"r_open": canon(target), "preimage": canon(pre)}
        else:
            if not any(f.image(v) <= target for v in dom_open):
                return False, {"r_open": canon(target)}
    return True, None


def ref_check_closed_characterization(f):
    require_valid(f.domain)
    require_valid(f.codomain)
    carrier_y = f.codomain.space.carrier
    carrier_x = f.domain.space.carrier
    for target in _ref_sorted_sets(f.codomain.assigned_union()):
        z = carrier_y - target
        pre = f.preimage(z)
        if pre == carrier_x:
            continue
        if not q_open(f.domain, carrier_x - pre):
            return False, {"r_closed": canon(z), "preimage": canon(pre)}
    return True, None


SMALL_SPACES = [space for n in (1, 2, 3) for space in enumerate_topologies(n)]
FOUR_POINT_SPACES = list(enumerate_topologies(4))
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
def scaled_maps(draw, xs):
    ys = draw(spaces)
    table = tuple(
        draw(st.integers(0, ys.n_points - 1)) for _ in range(xs.n_points)
    )
    return ScaledMap(table, draw(scales_on(xs)), draw(scales_on(ys)))


def _every_mode(f):
    yield from ALL_MODES
    for x in f.domain.space.points:
        for strength in ("strong", "weak"):
            for trivial in (False, True):
                yield ContinuityMode(strength, "at-point", trivial, at_point=x)


@pytest.mark.parametrize(
    "domain_space", [*SMALL_SPACES, None], ids=lambda s: "n4" if s is None else None
)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_mask_kernels_match_frozenset_reference(domain_space, data):
    """Every topology with n <= 3 as the domain (None: a sampled n = 4
    one), against scales and tables drawn at random."""
    xs = domain_space or data.draw(st.sampled_from(FOUR_POINT_SPACES))
    f = data.draw(scaled_maps(xs))
    for mode in _every_mode(f):
        verdict = check_continuity(f, mode)
        assert (verdict.holds, verdict.certificate) == ref_check_continuity(f, mode)
        assert verdict.mode == mode
        if not verdict.holds:
            assert replay_certificate(f, mode, verdict.certificate)
    closed = check_closed_characterization(f)
    assert (closed.holds, closed.certificate) == ref_check_closed_characterization(f)
    assert closed.holds == check_continuity(f, ContinuityMode("strong", "global")).holds


def _fresh(scale):
    return Scale(scale.space, scale.tq, scale.assignment)


def _error_text(kernel, f):
    with pytest.raises(ValueError) as info:
        kernel(f)
    return str(info.value)


@pytest.mark.parametrize("side", ["domain", "codomain"])
def test_invalid_scales_raise_the_same_error_through_both_kernels(side):
    s = sierpinski()
    good = trivial_scale(s)
    for bad in (
        mk_scale(s, [(0,), (0, 1)], [(0,), (0, 1)], [(0,)]),  # SC1
        mk_scale(s, [(0,), (0, 1)], [(0, 1)], [(0, 1)]),  # SC2
        mk_scale(s, [(1,)], [], [(1,)]),  # TQ_NOT_OPEN
    ):
        def build():
            q, r = (_fresh(bad), good) if side == "domain" else (good, _fresh(bad))
            return ScaledMap((0, 1), q, r)

        mode = ContinuityMode("weak", "local")
        want = _error_text(lambda f: ref_check_continuity(f, mode), build())
        assert want.startswith("invalid scale: ")
        assert _error_text(lambda f: check_continuity(f, mode), build()) == want
        assert _error_text(check_closed_characterization, build()) == want
        assert (
            _error_text(ref_check_closed_characterization, build()) == want
        )


def test_at_point_outside_the_carrier_is_rejected():
    t = trivial_scale(sierpinski())
    f = ScaledMap((0, 1), t, t)
    for x in (-1, 2):
        with pytest.raises(ValueError, match="outside the domain carrier"):
            check_continuity(f, ContinuityMode("strong", "at-point", at_point=x))


def test_compiled_forms_leave_equality_hash_repr_and_pickle_alone():
    space = FiniteSpace.of(3, [(), (0,), (0, 1), (0, 1, 2)])
    plain_space = FiniteSpace.of(3, [(), (0,), (0, 1), (0, 1, 2)])
    q = p_structure(space, [frozenset({0}), frozenset({0, 1}), space.carrier])
    plain = Scale(plain_space, q.tq, q.assignment)
    f = ScaledMap((0, 0, 1), q, q)
    for mode in ALL_MODES:
        check_continuity(f, mode)
    constancy_profile(f)
    assert space.__dict__.keys() > plain_space.__dict__.keys()  # tables built
    assert q.__dict__.keys() > plain.__dict__.keys()  # mask form stored
    assert space == plain_space and hash(space) == hash(plain_space)
    assert repr(space) == repr(plain_space)
    assert q == plain and hash(q) == hash(plain) and repr(q) == repr(plain)
    for obj, twin in ((space, plain_space), (q, plain)):
        back, twin_back = pickle.loads(pickle.dumps((obj, twin)))
        assert back == obj == twin_back and hash(back) == hash(twin)
        assert repr(back) == repr(twin_back)
    back = pickle.loads(pickle.dumps(q))
    g = ScaledMap((0, 0, 1), back, back)
    for mode in ALL_MODES:
        assert check_continuity(g, mode) == check_continuity(f, mode)


def test_replay_rejects_forged_certificates():
    """On the pinned instance, a replay confirms the real global failure
    and rejects a target whose preimage is empty, a target not assigned
    at f(x), and targets that pass: each through its own test."""
    f = pinned_local_vs_global()
    strong, weak = ContinuityMode("strong", "global"), ContinuityMode("weak", "global")
    assert replay_certificate(f, strong, {"r_open": (1, 2), "preimage": (1,)})
    # (2,) is q-open, and nothing maps into it.
    assert not f.preimage(frozenset({2}))
    for mode in (strong, weak):
        assert not replay_certificate(f, mode, {"r_open": (2,), "preimage": ()})
    # {1, 2} is assigned only to 2, not to f(0) = 0.
    for strength in ("strong", "weak"):
        at_0 = ContinuityMode(strength, "at-point", at_point=0)
        assert not replay_certificate(f, at_0, {"point": 0, "target": (1, 2), "preimage": (1,)})
    # {0, 1} pulls back to the assigned carrier, and {0}, assigned at 0,
    # to {0}, which the domain assigns to 0.
    for mode in (strong, weak):
        assert not replay_certificate(f, mode, {"r_open": (0, 1), "preimage": (0, 1)})
    for strength in ("strong", "weak"):
        at_0 = ContinuityMode(strength, "at-point", at_point=0)
        assert frozenset({0}) in f.codomain.at(f.apply(0))
        assert not replay_certificate(f, at_0, {"point": 0, "target": (0,), "preimage": (0,)})
