"""Property verifier: sweeps checkable statements about scaled spaces
over exhaustively enumerated or seed-sampled finite instances and
reports verdicts with replayable counterexample certificates.

Every property is a list of independent tasks plus a task runner.  Most
are about maps between two spaces, one space pair per task, and run in
three steps: compile, decide, materialize.  ``_pair_universe`` picks the
pair's domain scales, codomain scales and map tables; each table comes
with its preimage masks from ``_tables``, built once per (domain size,
codomain size, map budget) and shared by every pair of those sizes.
``_pair_maps`` walks them as compiled ``_Instance`` objects (domain
scale outermost, then codomain scale, then table), each scale compiled
to its mask form once per task, and a per-instance check decides each
one through ``continuity.first_failure``, counting its trials through
``TaskResult.trial(hypothesis)``: tested when the hypothesis holds (only
then is the conclusion checked), skipped otherwise, so ``generated =
tested + skipped``.  A ``ScaledMap`` and its document are built only for
a violation.  The separation searches PROBLEM1-4 are predicates over the
same universe; P1A, P1B, C1 and EX16 check each scale of one space.
Runners that stay separate: P4 (tables outermost, each instance two
independent subset tests), T1/T2/P9 and BQOA_CLAIM (sampled from pinned
RNG streams; T1/T2/P9 draw each scale as its mask form, valid by
construction, decide f, g and g o f through ``first_failure`` and build
``Scale`` and ``ScaledMap`` objects only for a violation), T3/C10
(sampled principal scales against discrete codomains, constancy decided
on masks) and T5/T6 (one random split per scale pair from an RNG seeded
per task).

Tasks run in a fixed order (optionally in parallel, on as many workers
as the SCALETOP_THREADS environment variable asks, capped by the CPU
count and the task count) and ``_report`` merges them, so identical
(property, config) pairs produce byte-identical reports.  Violations are
listed in canonical order (lexicographic on their serialized form) and
capped by the config; a search keeps the smallest.  Checks reach the
kernels through this module's globals, so a tracer that rebinds them
here sees every call: the pair sweeps reach ``scale_masks``,
``first_failure`` and, once per violation, ``ScaledMap``; T1/T2/P9
reach ``first_failure`` and, twice per violation, ``ScaledMap``; and
``classify``, ``validate_scale`` and the enumerations are reached where
they are used.  ``check_continuity``, ``compose_scaled``,
``check_closed_characterization``, ``constancy_profile`` and
``constant_on`` stay bound here, but no sweep calls them.

The classical-continuity oracle used by the L1/L2/L5/L6 properties is
coded here directly against open-set families, independent of the scale
machinery it validates.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from . import jsonio
from .continuity import (
    ContinuityMode,
    Preimages,
    ScaledMap,
    first_failure,
    preimages,
)
# Bound here for tracers that rebind them, though no sweep calls them.
from .continuity import check_closed_characterization, constancy_profile, constant_on  # noqa: F401
from .continuity import check_continuity, compose_scaled  # noqa: F401
from .exactnum import ExactNumber
from .finite_topology import (
    MAX_ENUMERATION_POINTS,
    FiniteSpace,
    PointSet,
    connected_components,
    discrete_space,
    enumerate_topologies,
    mask_of,
    mask_points,
    set_key,
)
from .interval_scales import BoundedBallSupersetScale, full_line_carrier
from .intervals import Interval, LineSet, SheetSet
from .scales import (
    Scale,
    ScaleMasks,
    classify,
    enumerate_scales,
    f_closure,
    finer,
    p_structure,
    q_closed,
    require_valid,
    scale_masks,
    scale_union,
    trivial_scale,
    validate_scale,
)

# One mode object per check kind, shared by every check instead of a
# new one per call; at-point modes are indexed by the point.
_LOCI = ("local", "global")
_MODES = {
    (strength, locus): ContinuityMode(strength, locus)
    for strength in ("strong", "weak")
    for locus in _LOCI
}
_TRIVIAL_DOMAIN = {
    locus: ContinuityMode("strong", locus, trivial_domain=True) for locus in _LOCI
}
_AT_POINT = {
    strength: tuple(
        ContinuityMode(strength, "at-point", at_point=x)
        for x in range(MAX_ENUMERATION_POINTS)
    )
    for strength in ("strong", "weak")
}

CONFIRMED = "CONFIRMED_ON_SWEEP"
REFUTED = "COUNTEREXAMPLE_FOUND"


@dataclass(frozen=True)
class SweepConfig:
    max_points: int = 3
    scale_budget: int = 12
    map_budget: int | None = None
    seed: int = 0
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    sample_budget: int = 20_000
    max_violations: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.max_points <= 4:
            raise ValueError("max_points must be between 1 and 4")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError("mode must be 'exhaustive' or 'sampled'")
        for name in ("scale_budget", "sample_budget", "max_violations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.map_budget is not None and self.map_budget < 0:
            raise ValueError("map_budget must be None or >= 0")

    def to_json(self) -> dict:
        return {
            "max_points": self.max_points,
            "scale_budget": self.scale_budget,
            "map_budget": self.map_budget,
            "seed": self.seed,
            "mode": self.mode,
            "sample_budget": self.sample_budget,
            "max_violations": self.max_violations,
        }


@dataclass(frozen=True)
class VerificationReport:
    property_id: str
    config: SweepConfig
    instances_tested: int
    hypothesis_skipped: int
    violations: tuple[dict, ...]
    truncated_violations: int = 0

    @property
    def verdict(self) -> str:
        return REFUTED if self.violations or self.truncated_violations else CONFIRMED

    def to_json(self) -> dict:
        return {
            "property": self.property_id,
            "config": self.config.to_json(),
            "tested": self.instances_tested,
            "skipped": self.hypothesis_skipped,
            "generated": self.instances_tested + self.hypothesis_skipped,
            "verdict": self.verdict,
            "violations": list(self.violations),
            "violations_truncated": self.truncated_violations,
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True).encode()


@dataclass
class TaskResult:
    tested: int = 0
    skipped: int = 0
    violations: list[dict] = field(default_factory=list)

    def trial(self, hypothesis: bool, count: int = 1) -> bool:
        """Count ``count`` trials, as tested when the hypothesis holds and
        as skipped otherwise; returns whether to check the conclusion."""
        if hypothesis:
            self.tested += count
        else:
            self.skipped += count
        return hypothesis

    def violation(self, doc: dict) -> None:
        self.violations.append(doc)


# -- instance universes -------------------------------------------------------


@lru_cache(maxsize=None)
def _spaces(n: int) -> tuple[FiniteSpace, ...]:
    return tuple(enumerate_topologies(n))


def _space_refs(max_points: int) -> list[tuple[int, int]]:
    return [
        (n, i)
        for n in range(1, max_points + 1)
        for i in range(len(_spaces(n)))
    ]


def _space(ref: tuple[int, int]) -> FiniteSpace:
    return _spaces(ref[0])[ref[1]]


_SCALE_CACHE: dict[tuple[FiniteSpace, int], tuple[Scale, ...]] = {}


def _scales(space: FiniteSpace, budget: int) -> tuple[Scale, ...]:
    key = (space, budget)
    if key not in _SCALE_CACHE:
        _SCALE_CACHE[key] = tuple(enumerate_scales(space, budget=budget))
    return _SCALE_CACHE[key]


@lru_cache(maxsize=None)
def _tables(
    nx: int, ny: int, budget: int | None, surjective: bool = False
) -> tuple[tuple[tuple[int, ...], Preimages], ...]:
    """The first ``budget`` maps from nx points to ny points, each with
    its preimage masks, shared by every space pair of those sizes;
    ``surjective`` keeps only the maps onto the ny points."""
    if surjective:
        return tuple(e for e in _tables(nx, ny, budget) if len(set(e[0])) == ny)
    tables = itertools.islice(itertools.product(range(ny), repeat=nx), budget)
    return tuple((t, Preimages(t, ny)) for t in tables)


@lru_cache(maxsize=None)
def _discrete(ny: int) -> FiniteSpace:
    return discrete_space(ny)


def _tasks_per_space(cfg: SweepConfig):
    return _space_refs(cfg.max_points)


def _tasks_space_pairs(cfg: SweepConfig, cap: int | None = None):
    refs = _space_refs(cfg.max_points if cap is None else min(cfg.max_points, cap))
    return [(a, b) for a in refs for b in refs]


# Scale choices for one side of a space pair: (space, cfg) -> scales.


def _enumerated(space: FiniteSpace, cfg: SweepConfig) -> tuple[Scale, ...]:
    return _scales(space, cfg.scale_budget)


def _trivial(space: FiniteSpace, cfg: SweepConfig) -> tuple[Scale, ...]:
    return (trivial_scale(space),)


def _trivial_if_enumerated(space: FiniteSpace, cfg: SweepConfig) -> tuple[Scale, ...]:
    """The trivial scale, only when it is among the first
    ``scale_budget`` enumerated scales."""
    t = trivial_scale(space)
    return tuple(q for q in _scales(space, cfg.scale_budget) if q == t)


def _neighborhood_closed(space: FiniteSpace, cfg: SweepConfig) -> tuple[Scale, ...]:
    return tuple(
        r for r in _scales(space, cfg.scale_budget) if classify(r).neighborhood_closed
    )


def _base_member(space: FiniteSpace, cfg: SweepConfig) -> tuple[Scale, ...]:
    """Scales listing the members of a base around each point, for two
    deterministic bases of the topology: the minimal base (smallest open
    neighborhoods) and the full family of nonempty opens."""
    minimal = frozenset(space.min_open_around(x) for x in space.points)
    full = frozenset(o for o in space.opens if o)
    bases = (minimal,) if full == minimal else (minimal, full)
    points = space.points
    return tuple(
        Scale(space, base, tuple(frozenset(b for b in base if x in b) for x in points))
        for base in bases
    )


def _pair_universe(
    task, cfg: SweepConfig, domain=_enumerated, codomain=_enumerated, surjective=False
) -> tuple[tuple[Scale, ...], tuple[Scale, ...], tuple]:
    """The domain scales, codomain scales and ``(table, preimage masks)``
    maps of one space pair; ``surjective`` keeps only the maps onto the
    codomain."""
    xs, ys = _space(task[0]), _space(task[1])
    tables = _tables(xs.n_points, ys.n_points, cfg.map_budget, surjective)
    return domain(xs, cfg), codomain(ys, cfg), tables


class _Instance:
    """One compiled instance: a map table with its preimage masks,
    between the scales q and r with their mask forms ``dom`` and ``cod``.
    It is decided through ``first_failure``; ``map()`` builds the
    ``ScaledMap`` that a violation document serializes."""

    __slots__ = ("table", "pre", "q", "dom", "r", "cod")

    def __init__(self, table, pre, q: Scale, dom, r: Scale, cod) -> None:
        self.table, self.pre = table, pre
        self.q, self.dom, self.r, self.cod = q, dom, r, cod

    def holds(self, mode: ContinuityMode) -> bool:
        dom = self.dom
        if mode.trivial_domain:
            dom = scale_masks(trivial_scale(self.q.space))
        return first_failure(self.table, self.pre, dom, self.cod, mode) is None

    def with_domain(self, q: Scale) -> _Instance:
        return _Instance(self.table, self.pre, q, scale_masks(q), self.r, self.cod)

    def with_codomain(self, r: Scale) -> _Instance:
        return _Instance(self.table, self.pre, self.q, self.dom, r, scale_masks(r))

    def map(self) -> ScaledMap:
        return ScaledMap(self.table, self.q, self.r)


def _pair_maps(task, cfg: SweepConfig, **universe) -> Iterator[_Instance]:
    """Every instance of a pair universe: domain scale outermost, then
    codomain scale, then table (T5/T6 draw their RNG in this order).
    Each scale is compiled once."""
    qs, rs, tables = _pair_universe(task, cfg, **universe)
    rs = [(r, scale_masks(r)) for r in rs]
    for q in qs:
        dom = scale_masks(q)
        for r, cod in rs:
            for table, pre in tables:
                yield _Instance(table, pre, q, dom, r, cod)


def _sweep(task, cfg: SweepConfig, check, **universe) -> TaskResult:
    res = TaskResult()
    for f in _pair_maps(task, cfg, **universe):
        check(res, f, cfg)
    return res


# -- the independent classical-continuity oracle ---------------------------------


def classical_continuous(
    table: tuple[int, ...], x_space: FiniteSpace, y_space: FiniteSpace
) -> bool:
    """Preimages of open sets are open; no scale machinery involved."""
    for o in y_space.opens:
        pre = frozenset(x for x, y in enumerate(table) if y in o)
        if pre not in x_space.opens:
            return False
    return True


def classical_continuous_at(
    table: tuple[int, ...], x_space: FiniteSpace, y_space: FiniteSpace, x: int
) -> bool:
    """Neighborhood form: every open around the image pulls back to a
    neighborhood (some open around x inside the preimage)."""
    fx = table[x]
    for o in y_space.opens:
        if fx not in o:
            continue
        pre = frozenset(z for z, y in enumerate(table) if y in o)
        if not any(x in u and u <= pre for u in x_space.opens):
            return False
    return True


# -- instance serialization --------------------------------------------------------


def _map_doc(f: _Instance, **extra) -> dict:
    doc = {"map": jsonio.scaled_map_to_json(f.map())}
    doc.update(extra)
    return doc


# -- per-scale checks: check(res, scale) --------------------------------------------


def _run_scales(task, cfg: SweepConfig, check) -> TaskResult:
    """One tested trial per enumerated scale of the task's space."""
    res = TaskResult()
    for scale in _scales(_space(task), cfg.scale_budget):
        res.tested += 1
        check(res, scale)
    return res


def _closed_sets(scale: Scale) -> list[PointSet]:
    carrier = scale.space.carrier
    return sorted({carrier - a for a in scale.tq}, key=set_key)


def _subfamilies(scale: Scale) -> Iterator[tuple[PointSet, ...]]:
    closeds = _closed_sets(scale)
    return itertools.chain.from_iterable(
        itertools.combinations(closeds, k) for k in range(1, len(closeds) + 1)
    )


def _intersections_closed(scale: Scale) -> bool:
    carrier = scale.space.carrier
    return all(
        q_closed(scale, carrier.intersection(*combo)) for combo in _subfamilies(scale)
    )


def _proper_unions_closed(scale: Scale) -> bool:
    # A union equal to the carrier has an empty complement, which is
    # never declarable.
    carrier = scale.space.carrier
    unions = (frozenset().union(*combo) for combo in _subfamilies(scale))
    return all(u == carrier or q_closed(scale, u) for u in unions)


def _pairwise_lattice_closed(scale: Scale) -> bool:
    carrier = scale.space.carrier
    return all(
        q_closed(scale, z1 & z2) and (z1 | z2 == carrier or q_closed(scale, z1 | z2))
        for z1, z2 in itertools.combinations_with_replacement(_closed_sets(scale), 2)
    )


def _flag_law(flag: str, closed_side: Callable[[Scale], bool]):
    """P1A/P1B/C1: a structure flag of the declared family agrees with a
    closure law of the scale's closed sets."""

    def check(res: TaskResult, scale: Scale) -> None:
        want = getattr(classify(scale), flag)
        got = closed_side(scale)
        if want != got:
            scale_doc = jsonio.scale_to_json(scale)
            res.violation({"scale": scale_doc, "flag": want, "closed_set_side": got})

    return check


def _check_ex16(res: TaskResult, scale: Scale) -> None:
    """The trivial scale refines every valid scale on the space."""
    if not finer(trivial_scale(scale.space), scale):
        res.violation({"scale": jsonio.scale_to_json(scale)})


# -- per-instance checks on a space pair: check(res, f, cfg) -----------------------


def _transfer(res: TaskResult, source: _Instance, target: _Instance, steps) -> None:
    """One trial per ``(hypothesis, conclusion, witness)`` step: when
    ``source`` is continuous in the hypothesis mode, ``target`` must be
    continuous in the conclusion mode."""
    for hypothesis, conclusion, witness in steps:
        if res.trial(source.holds(hypothesis)) and not target.holds(conclusion):
            res.violation(_map_doc(target, **witness))


def _implies(*steps):
    """A check made of ``_transfer`` steps on the instance itself."""
    return lambda res, f, cfg: _transfer(res, f, f, steps)


def _at_points(strength: str, f: _Instance) -> list:
    """The at-point modes over f's domain, each with its witness."""
    return [(_AT_POINT[strength][x], {"point": x}) for x in range(len(f.table))]


def _classical_lemma(lemma: str, mode: ContinuityMode | None = None):
    """L1/L2/L6: with trivial scales, continuity in ``mode`` agrees with
    the independently coded classical oracle.  L5 (no mode): weak
    continuity at each point agrees with the oracle at that point."""

    def check(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
        xs, ys = f.q.space, f.r.space
        oracle = classical_continuous(f.table, xs, ys)
        if mode is None:
            want = True
            got = all(
                f.holds(_AT_POINT["weak"][x])
                == classical_continuous_at(f.table, xs, ys, x)
                for x in xs.points
            )
        else:
            got, want = f.holds(mode), oracle
        res.tested += 1
        if got != want:
            res.violation(_map_doc(f, lemma=lemma, oracle=oracle, scaled=got))

    return check


def _check_l4(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
    """With a trivial domain scale and a neighborhood-closed codomain
    scale, locally weak continuity upgrades to strong continuity, both
    locally and globally."""
    if res.trial(f.holds(_MODES["weak", "local"])):
        for locus in _LOCI:
            if not f.holds(_MODES["strong", locus]):
                res.violation(_map_doc(f, locus=locus))


def _check_local_is_global(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
    """P3 (any map; a claim under test, not presumed) and P6
    (surjections): with a trivial domain scale, local and global strong
    continuity coincide."""
    res.tested += 1
    loc = f.holds(_MODES["strong", "local"])
    glob = f.holds(_MODES["strong", "global"])
    if loc != glob:
        res.violation(_map_doc(f, local=loc, global_=glob))


@lru_cache(maxsize=None)
def _is_filter(scale: Scale) -> bool:
    return classify(scale).is_F


@lru_cache(maxsize=None)
def _filter_refinements(q: Scale) -> tuple[Scale, ...]:
    """Deterministic filter structures refining q: the trivial scale and
    the filter closure of q (a pointwise superscale is always finer)."""
    t, fc = trivial_scale(q.space), f_closure(q)
    return (t,) if fc == t else (t, fc)


@lru_cache(maxsize=None)
def _coarsenings(r: Scale) -> tuple[Scale, ...]:
    """Pointwise sub-assignments of r (valid by construction: the declared
    family shrinks to whatever stays assigned)."""
    out = []
    for keep_largest in (True, False):
        fams = []
        for y in r.space.points:
            fam = sorted(r.at(y), key=set_key)
            if not fam:
                fams.append(frozenset())
            elif keep_largest:
                fams.append(frozenset([fam[-1]]))
            else:
                fams.append(frozenset(fam[: max(1, len(fam) - 1)]))
        tq = frozenset(itertools.chain.from_iterable(fams))
        out.append(Scale(r.space, tq, tuple(fams)))
    return tuple(v for v in out if validate_scale(v))


def _preserved_by(variants, doc):
    """P7A/P7B/P8A/P8B/C14: strong continuity of f carries over to each
    variant g of f with one scale changed.  Each (variant, locus) pair is
    one trial, skipped when f fails in that locus; ``variants(res, f,
    cfg)`` may skip trials of its own, and ``doc(f, g)`` documents a
    failure."""

    def check(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
        gs = variants(res, f, cfg)
        for locus in _LOCI:
            mode = _MODES["strong", locus]
            if gs and res.trial(f.holds(mode), len(gs)):
                for g in gs:
                    if not g.holds(mode):
                        res.violation({**doc(f, g), "locus": locus})

    return check


def _filter_refined_domains(res: TaskResult, f: _Instance, cfg: SweepConfig) -> list:
    """P7A: the domain scale's filter refinements; a refinement that is
    not a finer filter structure skips its trial."""
    gs = []
    for p in _filter_refinements(f.q):
        if _is_filter(p) and finer(p, f.q):
            gs.append(f.with_domain(p))
        else:
            res.skipped += 1
    return gs


def _coarser_filter_codomains(res: TaskResult, f: _Instance, cfg: SweepConfig) -> list:
    """P7B, as stated (either side a filter structure): coarser codomain
    targets that the codomain scale refines.  The filter-codomain branch
    is sound; the filter-domain branch is searched, and counterexamples
    are recorded as found."""
    q, r = f.q, f.r
    if not (_is_filter(q) or _is_filter(r)):
        return []
    return [f.with_codomain(v) for v in _coarsenings(r) if finer(r, v)]


def _larger_domains(res: TaskResult, f: _Instance, cfg: SweepConfig) -> list:
    """P8A: unions of the domain scale with the first (at most four)
    enumerated scales."""
    others = _scales(f.q.space, min(cfg.scale_budget, 4))
    return [f.with_domain(scale_union(f.q, s)) for s in others]


def _smaller_codomains(res: TaskResult, f: _Instance, cfg: SweepConfig) -> list:
    """P8B/C14: pointwise sub-assignments of the codomain scale."""
    return [f.with_codomain(v) for v in _coarsenings(f.r)]


def _refined_doc(f: _Instance, g: _Instance) -> dict:
    return _map_doc(f, refined=jsonio.scale_to_json(g.q))


def _coarser_doc(f: _Instance, g: _Instance) -> dict:
    return _map_doc(
        f,
        coarser=jsonio.scale_to_json(g.r),
        domain_is_filter=_is_filter(f.q),
        codomain_is_filter=_is_filter(f.r),
    )


def _base_doc(f: _Instance, g: _Instance) -> dict:
    return _map_doc(
        g,
        base_domain=jsonio.scale_to_json(f.q),
        base_codomain=jsonio.scale_to_json(f.r),
    )


def _check_c16(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
    """Continuity with trivial scales implies trivial-domain continuity
    against any codomain scale, pointwise and globally."""
    classical = f.with_codomain(trivial_scale(f.r.space))
    global_ = (_MODES["strong", "global"], {"locus": "global"})
    modes = [*_at_points("strong", f), global_]
    _transfer(res, classical, f, [(m, m, w) for m, w in modes])


def _check_c17(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
    """With a codomain scale listing the members of a base around each
    point, trivial-domain continuity coincides globally with continuity
    at trivial scales, and pointwise continuity transfers from the
    trivial-scale side."""
    classical = f.with_codomain(trivial_scale(f.r.space))
    res.tested += 1
    lhs = f.holds(_MODES["strong", "global"])
    rhs = classical.holds(_MODES["strong", "global"])
    if lhs != rhs:
        res.violation(_map_doc(f, base_side=lhs, trivial_side=rhs))
    _transfer(res, classical, f, [(m, m, w) for m, w in _at_points("strong", f)])


# -- P4: two independent subset tests per instance -------------------------------


@lru_cache(maxsize=1 << 12)
def _point_set(m: int) -> PointSet:
    return frozenset(mask_points(m))


def _p4_sides(pre: Preimages, r_tq: tuple[int, ...], full: int) -> tuple:
    """What P4 asks of a domain scale for one (table, r): the nonempty
    preimages of r's declared masks ``r_tq`` as point sets, for the
    strong side to find in the domain's declared family, and their
    complements in the ``full`` domain mask, for the closed side to find
    among the domain's closed masks."""
    pres = [p for p in map(pre.__getitem__, r_tq) if p]
    return frozenset(map(_point_set, pres)), frozenset(full & ~p for p in pres)


def _closed_masks(q: Scale, full: int) -> frozenset[int]:
    """The complements of q's declared sets in the ``full`` mask."""
    return frozenset(full ^ m for m in scale_masks(q).tq)


def _run_p4(task, cfg: SweepConfig) -> TaskResult:
    """The closed-set characterization agrees with global strong
    continuity on every instance.  A runner of its own: each instance is
    two independent subset tests of what its (table, r) asks
    (``_p4_sides``) against its domain scale q, tables outermost so that
    each (table, r) is read once."""
    res = TaskResult()
    x_scales, y_scales, tables = _pair_universe(task, cfg)
    full = (1 << _space(task[0]).n_points) - 1
    x_sides = [
        (q, scale_masks(q), q.assigned_union(), _closed_masks(q, full)) for q in x_scales
    ]
    y_sides = [(r, scale_masks(r)) for r in y_scales]
    for table, pre in tables:
        for r, cod in y_sides:
            opens, closeds = _p4_sides(pre, cod.tq, full)
            res.tested += len(x_sides)
            for q, dom, family, closed in x_sides:
                strong = opens <= family
                closed_side = closeds <= closed
                if strong != closed_side:
                    f = _Instance(table, pre, q, dom, r, cod)
                    res.violation(_map_doc(f, strong_global=strong, closed_side=closed_side))
    return res


# -- T5/T6: covering splits of the codomain scale ----------------------------------


def _split_scale(r: Scale, parts: int, rng: random.Random) -> list[Scale]:
    """Subscales whose pointwise union is r: every assigned set keeps at
    least one home, so each part and the family jointly satisfy the base
    and refinement hypotheses by construction."""
    fams = [[set() for _ in r.space.points] for _ in range(parts)]
    for y in r.space.points:
        for a in sorted(r.at(y), key=set_key):
            home = rng.randrange(parts)
            fams[home][y].add(a)
    out = []
    for i in range(parts):
        assignment = tuple(frozenset(f) for f in fams[i])
        tq = frozenset(itertools.chain.from_iterable(assignment))
        out.append(Scale(r.space, tq, assignment))
    return out


def _run_split(task, cfg: SweepConfig, which: str, modes) -> TaskResult:
    """T5 (global) / T6 (pointwise): weak continuity against a scale is
    weak continuity against every part of a random covering split.  A
    runner of its own because its RNG is seeded per task: one split is
    drawn per (q, r) pair, in universe order."""
    rng = random.Random(f"{cfg.seed}:{which}:{task[0]}:{task[1]}")
    pair: list = [None, None, ()]

    def check(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
        if pair[0] is not f.q or pair[1] is not f.r:
            pair[:] = f.q, f.r, _split_scale(f.r, 2, rng)
        parts = [f.with_codomain(ri) for ri in pair[2]]
        for mode, witness in modes(f):
            res.tested += 1
            whole = f.holds(mode)
            each = all(g.holds(mode) for g in parts)
            if whole != each:
                res.violation(_map_doc(f, whole=whole, parts=each, **witness))

    return _sweep(task, cfg, check)


# -- composition sweeps ---------------------------------------------------------


class _DrawTables(NamedTuple):
    """What drawing a random scale on one space reads, as masks: each
    point's open neighborhoods (``rows``) and each neighborhood's up-set
    (``up``), both in ``set_key`` order, each open's ``set_key`` rank
    (``rank``), and the trivial scale's mask form."""

    rows: tuple[tuple[int, ...], ...]
    up: dict[int, tuple[int, ...]]
    rank: dict[int, int]
    trivial: ScaleMasks


@lru_cache(maxsize=None)
def _draw_tables(space: FiniteSpace) -> _DrawTables:
    ordered = space.opens_sorted()
    masks = [mask_of(o) for o in ordered]
    rows = tuple(tuple(map(mask_of, around)) for around in space.neighborhoods)
    up = {a: tuple(b for b in masks if not a & ~b) for a in masks if a}
    rank = {m: i for i, m in enumerate(masks)}
    return _DrawTables(rows, up, rank, scale_masks(trivial_scale(space)))


def _with_union(at: tuple[tuple[int, ...], ...], rank: dict[int, int]) -> ScaleMasks:
    """The mask form of the scale whose families are ``at`` and whose
    declared family is their union."""
    union = set().union(*at)
    return ScaleMasks(at, tuple(sorted(union, key=rank.__getitem__)), frozenset(union))


def _draw_scale(space: FiniteSpace, rng: random.Random) -> ScaleMasks:
    """A random valid scale on the space, as its mask form: the trivial
    scale, the principal scale of one random neighborhood per point, or a
    random subfamily of each point's neighborhoods (a coin per
    neighborhood, in order), with the union of the families declared.
    Every family is a set of open neighborhoods of its point, so the
    scale is valid by construction and is never validated here."""
    t = _draw_tables(space)
    style = rng.randrange(3)
    if style == 0:
        return t.trivial
    if style == 1:
        at = tuple([t.up[rng.choice(row)] for row in t.rows])
    else:
        coin = rng.random
        at = tuple([tuple([m for m in row if coin() < 0.5]) for row in t.rows])
    return _with_union(at, t.rank)


def _draw_superscale(
    space: FiniteSpace, base: ScaleMasks, rng: random.Random
) -> ScaleMasks:
    """A pointwise superscale of base (for the middle-scale refinement
    hypothesis): with probability 0.7 the union of base and a fresh draw,
    which is drawn either way, else base itself."""
    extra = _draw_scale(space, rng)
    if rng.random() < 0.7:
        rank = _draw_tables(space).rank
        at = tuple(
            tuple(sorted(set(a).union(b), key=rank.__getitem__))
            for a, b in zip(base.at, extra.at)
        )
        return _with_union(at, rank)
    return base


def _refines(r: ScaleMasks, h: ScaleMasks) -> bool:
    """``middle_refines`` on masks: r(y) <= h(y) at every point y."""
    return all(set(b).issuperset(a) for a, b in zip(r.at, h.at))


def _materialize(space: FiniteSpace, masks: ScaleMasks) -> Scale:
    """The validated ``Scale`` of a drawn mask form, for a violation
    document."""
    at = tuple(frozenset(map(_point_set, fam)) for fam in masks.at)
    return require_valid(Scale(space, frozenset(map(_point_set, masks.tq)), at))


def _random_space(rng: random.Random, max_points: int) -> FiniteSpace:
    fam = _spaces(rng.randrange(1, max_points + 1))
    return fam[rng.randrange(len(fam))]


def _run_composition(task, cfg: SweepConfig, which: str) -> TaskResult:
    """T1 (pointwise), T2 (local/global), P9 (equal middle scales), and
    the companion specializations: composites inherit continuity when
    the middle-scale refinement hypothesis holds.

    Each trial draws its spaces, its scales q, h, r, p as mask forms
    (``_draw_scale``) and its tables f: xs -> ys and g: ys -> zs.  h is
    r (P9) or a pointwise superscale of it, so the middle hypothesis
    holds by construction; it is still checked, on the masks.  f (q to
    h) and g (r to p) are decided through ``first_failure`` on their
    tables' memoized preimage masks, g only when f passes, and the
    composite table only for tested trials.  Scales and ``ScaledMap``
    objects are built only for a violation."""
    res = TaskResult()
    chunk_index, trials = task
    rng = random.Random(f"{cfg.seed}:{which}:{chunk_index}")
    loci = ("at-point",) if which == "T1" else ("local", "global")
    max_points = min(cfg.max_points, 3)
    for trial in range(trials):
        xs = _random_space(rng, max_points)
        ys = _random_space(rng, max_points)
        zs = _random_space(rng, max_points)
        q = _draw_scale(xs, rng)
        p = _draw_scale(zs, rng)
        r = _draw_scale(ys, rng)
        h = r if which == "P9" else _draw_superscale(ys, r, rng)
        ny, nz = ys.n_points, zs.n_points
        f_table = tuple(rng.randrange(ny) for _ in range(xs.n_points))
        g_table = tuple(rng.randrange(nz) for _ in range(ny))
        if not _refines(r, h):
            res.skipped += 1
            continue
        locus = loci[trial % len(loci)]
        if locus == "at-point":
            x = rng.randrange(xs.n_points)
            mode, g_mode = _AT_POINT["strong"][x], _AT_POINT["strong"][f_table[x]]
            witness = {"point": x}
        else:
            mode = g_mode = _MODES["strong", locus]
            witness = {"locus": locus}
        if (
            first_failure(f_table, preimages(f_table, ny), q, h, mode) is not None
            or first_failure(g_table, preimages(g_table, nz), r, p, g_mode) is not None
        ):
            res.skipped += 1
            continue
        res.tested += 1
        gf_table = tuple([g_table[y] for y in f_table])
        if first_failure(gf_table, preimages(gf_table, nz), q, p, mode) is not None:
            f = ScaledMap(f_table, _materialize(xs, q), _materialize(ys, h))
            g = ScaledMap(g_table, _materialize(ys, r), _materialize(zs, p))
            res.violation(
                {
                    "f": jsonio.scaled_map_to_json(f),
                    "g": jsonio.scaled_map_to_json(g),
                    **witness,
                }
            )
    return res


_COMPOSITION_CHUNKS = 16


def _tasks_composition(cfg: SweepConfig):
    per = max(1, cfg.sample_budget // _COMPOSITION_CHUNKS)
    return [(i, per) for i in range(_COMPOSITION_CHUNKS)]


# -- constancy sweeps -------------------------------------------------------------


def _sampled_p_structures(
    space: FiniteSpace, budget: int, seed: int
) -> list[Scale]:
    rng = random.Random(f"{seed}:{space.key()}")
    seen: set[tuple[PointSet, ...]] = set()
    out: list[Scale] = []
    attempts = 0
    while len(out) < budget and attempts < budget * 8:
        attempts += 1
        chosen = tuple(rng.choice(around) for around in space.neighborhoods)
        if chosen in seen:
            continue
        seen.add(chosen)
        out.append(p_structure(space, chosen))
    return out


def _chosen_neighborhoods(ps: Scale) -> list[PointSet]:
    """The principal generator at each point (intersection of the family)."""
    out = []
    for x in ps.space.points:
        gen = ps.space.carrier
        for a in ps.at(x):
            gen = gen & a
        out.append(gen)
    return out


def _run_constancy(task, cfg: SweepConfig, check, admits=None) -> TaskResult:
    """T3/C10: sampled principal scales, not enumerated scale pairs,
    against trivially scaled discrete codomains on 1-3 points.  Every
    table of a structure whose chosen neighborhoods ``admits`` rejects is
    a skipped trial.  ``check(res, f, chosen, blocks)`` gets the chosen
    neighborhoods and the connected components as masks."""
    res = TaskResult()
    space = _space(task)
    blocks = [mask_of(b) for b in connected_components(space)]
    structures = []
    for ps in _sampled_p_structures(space, cfg.scale_budget, cfg.seed):
        chosen = _chosen_neighborhoods(ps)
        admitted = admits is None or admits(space, chosen)
        structures.append((ps, scale_masks(ps), [mask_of(c) for c in chosen], admitted))
    for ny in (1, 2, 3):
        ty = trivial_scale(_discrete(ny))
        cod = scale_masks(ty)
        tables = _tables(space.n_points, ny, cfg.map_budget)
        for ps, dom, chosen, admitted in structures:
            if res.trial(admitted, len(tables)):
                for table, pre in tables:
                    check(res, _Instance(table, pre, ps, dom, ty, cod), chosen, blocks)
    return res


def _constant_on(f: _Instance, m: int) -> bool:
    """Whether f's table is constant on the points of the nonempty mask
    m: they all lie in the preimage of the image of its lowest point."""
    low = (m & -m).bit_length() - 1
    return not m & ~f.pre.of_point[f.table[low]]


def _check_t3(res: TaskResult, f: _Instance, chosen: list[int], blocks) -> None:
    """On a discrete codomain with a principal domain scale, weak
    continuity at a point is exactly constancy on the chosen
    neighborhood of that point."""
    for x, c in enumerate(chosen):
        weak = f.holds(_AT_POINT["weak"][x])
        const = _constant_on(f, c)
        if weak != const:
            res.violation(_map_doc(f, point=x, weak=weak, constant=const))


def _chosen_connected(space: FiniteSpace, chosen: list[PointSet]) -> bool:
    components = connected_components(space)
    return all(any(c <= block for block in components) for c in chosen)


def _check_c10(res: TaskResult, f: _Instance, chosen, blocks: list[int]) -> None:
    """With connected chosen neighborhoods, weak continuity at every
    point is exactly constancy on each connected component."""
    weak = f.holds(_MODES["weak", "local"])
    const = all(_constant_on(f, b) for b in blocks)
    if weak != const:
        res.violation(_map_doc(f, weak_local=weak, constant_on_components=const))


# -- the interval-world claim ---------------------------------------------------------


def _run_bqoa(task, cfg: SweepConfig) -> TaskResult:
    """No bounded nonempty set is closed under the bounded-ball scale on
    the full line; the empty set is closed and is not open."""
    res = TaskResult()
    chunk_index, trials = task
    rng = random.Random(f"{cfg.seed}:BQOA:{chunk_index}")
    kind = BoundedBallSupersetScale(full_line_carrier(), a=ExactNumber(Fraction(1, 10)))
    line = full_line_carrier()
    for _ in range(trials):
        pieces = []
        cursor = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
        for _ in range(rng.randint(1, 3)):
            width = Fraction(rng.randint(1, 40), rng.randint(1, 5))
            lo, hi = cursor, cursor + width
            pieces.append(
                Interval(
                    ExactNumber(lo),
                    ExactNumber(hi),
                    rng.random() < 0.5,
                    rng.random() < 0.5,
                )
            )
            cursor = hi + Fraction(rng.randint(1, 10), rng.randint(1, 3))
        s = SheetSet((LineSet.of(*pieces),))
        if s.is_empty or not s.is_bounded:
            res.skipped += 1
            continue
        res.tested += 1
        complement = line.difference(s)
        if kind.is_q_open(complement):
            res.violation({"set": jsonio.sheetset_to_json(s)})
    if chunk_index == 0:
        # Edge claims: the empty set is closed (the whole line is open)
        # yet is itself never open.
        empty = SheetSet((LineSet.empty(),))
        res.tested += 1
        if not kind.is_q_open(line.whole()) or kind.is_q_open(empty):
            res.violation({"edge": "empty-set"})
    return res


def _tasks_bqoa(cfg: SweepConfig):
    trials = max(100, min(cfg.sample_budget, 1000))
    per = max(1, trials // 4)
    return [(i, per) for i in range(4)]


# -- registry ---------------------------------------------------------------------
# A space-pair property names its check, its cap on the number of points
# and its universe (domain and codomain scale choices, ``_enumerated``
# unless given, and whether only surjective tables count); ``_sweep``
# feeds it each instance.  The other runners say in their docstrings why
# they stay separate.


@dataclass(frozen=True)
class PropertySpec:
    description: str
    tasks: Callable[[SweepConfig], list]
    run: Callable[[object, SweepConfig], TaskResult]


def _pair_cap(cap):
    return lambda cfg: _tasks_space_pairs(cfg, cap)


def _pair_property(description: str, check, cap=None, **universe) -> PropertySpec:
    return PropertySpec(
        description,
        _pair_cap(cap),
        lambda task, cfg: _sweep(task, cfg, check, **universe),
    )


def _scale_property(description: str, check) -> PropertySpec:
    return PropertySpec(
        description, _tasks_per_space, lambda task, cfg: _run_scales(task, cfg, check)
    )


_TRIVIAL_PAIR = {"domain": _trivial, "codomain": _trivial}

PROPERTIES: dict[str, PropertySpec] = {
    "P1A": _scale_property(
        "declared family union-closed iff intersections of closed sets stay closed",
        _flag_law("weak_U", _intersections_closed),
    ),
    "P1B": _scale_property(
        "declared family intersection-closed iff proper unions of closed sets stay closed",
        _flag_law("weak_I", _proper_unions_closed),
    ),
    "C1": _scale_property(
        "lattice flag iff pairwise closed-set closure",
        _flag_law("weak_L", _pairwise_lattice_closed),
    ),
    "L1": _pair_property(
        "trivial scales: global strong continuity = classical continuity",
        _classical_lemma("L1", _MODES["strong", "global"]),
        **_TRIVIAL_PAIR,
    ),
    "L2": _pair_property(
        "trivial scales: local strong continuity = classical continuity",
        _classical_lemma("L2", _MODES["strong", "local"]),
        **_TRIVIAL_PAIR,
    ),
    "L3": _pair_property(
        "strong continuity implies weak continuity",
        _implies(
            *((_MODES["strong", l], _MODES["weak", l], {"locus": l}) for l in _LOCI)
        ),
        cap=2,
    ),
    "L4": _pair_property(
        "nbhd-closed codomain + trivial domain: locally weak implies strong",
        _check_l4,
        cap=3,
        domain=_trivial,
        codomain=_neighborhood_closed,
    ),
    "L5": _pair_property(
        "trivial scales: weak continuity at a point = classical continuity at it",
        _classical_lemma("L5"),
        **_TRIVIAL_PAIR,
    ),
    "L6": _pair_property(
        "trivial scales: locally weak continuity = classical continuity",
        _classical_lemma("L6", _MODES["weak", "local"]),
        **_TRIVIAL_PAIR,
    ),
    "P2": _pair_property(
        "locally strong-continuous surjections are globally strong-continuous",
        _implies((_MODES["strong", "local"], _MODES["strong", "global"], {})),
        surjective=True,
    ),
    "P3": _pair_property(
        "claim searched: trivial-domain local = global for arbitrary maps",
        _check_local_is_global,
        domain=_trivial,
    ),
    "P4": PropertySpec(
        "closed-set characterization = global strong continuity",
        _tasks_space_pairs,
        _run_p4,
    ),
    "P5": _pair_property(
        "locally weakly continuous surjections are globally weakly continuous",
        _implies((_MODES["weak", "local"], _MODES["weak", "global"], {})),
        surjective=True,
    ),
    "P6": _pair_property(
        "surjections with trivial domain scale: local = global",
        _check_local_is_global,
        domain=_trivial,
        surjective=True,
    ),
    "P7A": _pair_property(
        "filter refinements of the domain scale preserve continuity",
        _preserved_by(_filter_refined_domains, _refined_doc),
        cap=2,
    ),
    "P7B": _pair_property(
        "coarser codomain targets under a filter hypothesis (searched)",
        _preserved_by(_coarser_filter_codomains, _coarser_doc),
        cap=2,
    ),
    "P8A": _pair_property(
        "pointwise-larger domain scales preserve continuity",
        _preserved_by(_larger_domains, _base_doc),
        cap=2,
    ),
    "P8B": _pair_property(
        "pointwise-smaller codomain scales preserve continuity",
        _preserved_by(_smaller_codomains, _base_doc),
        cap=2,
    ),
    "P9": PropertySpec(
        "composition with matching middle scales preserves continuity",
        _tasks_composition,
        lambda t, c: _run_composition(t, c, "P9"),
    ),
    "T1": PropertySpec(
        "pointwise composition under the middle refinement hypothesis",
        _tasks_composition,
        lambda t, c: _run_composition(t, c, "T1"),
    ),
    "T2": PropertySpec(
        "local/global composition under the middle refinement hypothesis",
        _tasks_composition,
        lambda t, c: _run_composition(t, c, "T2"),
    ),
    "T3": PropertySpec(
        "principal domain scale on a discrete codomain: weak at a point = constant on the chosen neighborhood",
        _tasks_per_space,
        lambda t, c: _run_constancy(t, c, _check_t3),
    ),
    "T5": PropertySpec(
        "weak continuity against a scale = against every member of a covering split (global)",
        _pair_cap(2),
        lambda t, c: _run_split(
            t, c, "T5", lambda f: [(_MODES["weak", "global"], {"locus": "global"})]
        ),
    ),
    "T6": PropertySpec(
        "weak continuity against a scale = against every member of a covering split (pointwise)",
        _pair_cap(2),
        lambda t, c: _run_split(t, c, "T6", lambda f: _at_points("weak", f)),
    ),
    "C10": PropertySpec(
        "connected chosen neighborhoods: locally weak = constant on components",
        _tasks_per_space,
        lambda t, c: _run_constancy(t, c, _check_c10, _chosen_connected),
    ),
    "C14": _pair_property(
        "trivial domain: pointwise-smaller codomain scales preserve continuity",
        _preserved_by(_smaller_codomains, _base_doc),
        cap=2,
        domain=_trivial_if_enumerated,
    ),
    "C15": _pair_property(
        "scaled continuity implies trivial-domain continuity",
        _implies(
            *((_MODES["strong", l], _TRIVIAL_DOMAIN[l], {"locus": l}) for l in _LOCI)
        ),
        cap=2,
    ),
    "C16": _pair_property(
        "trivial-scale continuity implies continuity against any codomain scale",
        _check_c16,
        cap=3,
        domain=_trivial,
    ),
    "C17": _pair_property(
        "base-member codomain scales recover classical continuity globally",
        _check_c17,
        domain=_trivial,
        codomain=_base_member,
    ),
    "EX16": _scale_property("the trivial scale refines every scale", _check_ex16),
    "BQOA_CLAIM": PropertySpec(
        "bounded-ball scale: no bounded nonempty closed sets except empty",
        _tasks_bqoa,
        _run_bqoa,
    ),
}

PROPERTY_IDS = tuple(PROPERTIES)

# Properties whose statements carry complete arguments must come back
# clean; the report-only ones are recorded as searched.
REPORT_ONLY = ("P3", "P7B")
MUST_PASS = tuple(p for p in PROPERTY_IDS if p not in REPORT_ONLY)


def sweep_parallelism() -> int:
    raw = os.environ.get("SCALETOP_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def _run_task_entry(args: tuple) -> TaskResult:
    property_id, task, cfg = args
    spec = PROPERTIES[property_id]
    return spec.run(task, cfg)


def _report(
    pid: str, cfg: SweepConfig, results: list[TaskResult], keep: int
) -> VerificationReport:
    """Merge task results: counts add up, and the first ``keep``
    violations in canonical order are listed, the rest counted."""
    violations = sorted(
        (v for r in results for v in r.violations),
        key=lambda doc: json.dumps(doc, sort_keys=True),
    )
    kept = tuple(violations[:keep])
    return VerificationReport(
        property_id=pid,
        config=cfg,
        instances_tested=sum(r.tested for r in results),
        hypothesis_skipped=sum(r.skipped for r in results),
        violations=kept,
        truncated_violations=len(violations) - len(kept),
    )


def run_property(property_id: str, cfg: SweepConfig) -> VerificationReport:
    if property_id not in PROPERTIES:
        raise KeyError(f"unknown property id {property_id!r}")
    spec = PROPERTIES[property_id]
    tasks = spec.tasks(cfg)
    workers = min(sweep_parallelism(), os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _run_task_entry,
                    [(property_id, t, cfg) for t in tasks],
                )
            )
    else:
        results = [spec.run(t, cfg) for t in tasks]
    return _report(property_id, cfg, results, cfg.max_violations)


# -- separation searches ----------------------------------------------------------


def _separates(f: _Instance, a: ContinuityMode, b: ContinuityMode) -> bool:
    return f.holds(a) and not f.holds(b)


# Each search asks for an instance continuous in one notion but not in
# another, over every scale pair and table of every space pair.
_WEAK_LOCAL, _WEAK_GLOBAL = _MODES["weak", "local"], _MODES["weak", "global"]
_SEARCHES: dict[str, Callable[[_Instance], bool]] = {
    "PROBLEM1": lambda f: _separates(f, _WEAK_LOCAL, _WEAK_GLOBAL),
    "PROBLEM2": lambda f: _separates(f, _WEAK_GLOBAL, _WEAK_LOCAL),
    "PROBLEM3": lambda f: _separates(f, _WEAK_GLOBAL, _MODES["strong", "global"]),
    "PROBLEM4": lambda f: any(
        _separates(f, _AT_POINT["weak"][x], _AT_POINT["strong"][x])
        for x in range(len(f.table))
    ),
}

SEARCH_IDS = (*_SEARCHES, "P3")


def search_counterexample(claim: str, cfg: SweepConfig) -> VerificationReport:
    """Search for an instance separating two continuity notions; the
    report carries the smallest separating instance in canonical order
    (lexicographic on the serialized form)."""
    if claim == "P3":
        return run_property("P3", cfg)
    if claim not in _SEARCHES:
        raise KeyError(f"unknown search claim {claim!r}")
    separated = _SEARCHES[claim]

    def check(res: TaskResult, f: _Instance, cfg: SweepConfig) -> None:
        res.tested += 1
        if separated(f):
            res.violation(_map_doc(f, claim=claim))

    results = [_sweep(task, cfg, check) for task in _tasks_space_pairs(cfg)]
    return _report(claim, cfg, results, keep=1)
