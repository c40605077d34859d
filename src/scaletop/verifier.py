"""Property verifier: sweeps checkable statements about scaled spaces
over exhaustively enumerated or seed-sampled finite instances and
reports verdicts with replayable counterexample certificates.

Every property is registered as a list of independent tasks plus a task
runner; tasks are evaluated in a fixed order (optionally in parallel,
on as many workers as the SCALETOP_THREADS environment variable asks,
capped by the CPU count and the task count) and merged deterministically,
so identical (property, config) pairs produce byte-identical reports.
Violations are listed in canonical order (lexicographic on their
serialized form) and capped by the config.

Hypothesis-violating instances are skipped and counted separately:
``generated = tested + skipped`` is reported explicitly.

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
from typing import Callable, Iterator

from . import jsonio
from .continuity import (
    ContinuityMode,
    ScaledMap,
    check_closed_characterization,
    check_continuity,
    compose_scaled,
    constancy_profile,
    constant_on,
    middle_refines,
)
from .exactnum import ExactNumber
from .finite_topology import (
    MAX_ENUMERATION_POINTS,
    FiniteSpace,
    PointSet,
    connected_components,
    discrete_space,
    enumerate_topologies,
    is_T1,
    set_key,
)
from .interval_scales import BoundedBallSupersetScale, full_line_carrier, iw_is_q_open
from .intervals import Interval, LineSet, SheetSet
from .scales import (
    Scale,
    classify,
    enumerate_scales,
    f_closure,
    finer,
    p_structure,
    q_closed,
    scale_union,
    trivial_scale,
    validate_scale,
)

PROPERTY_IDS = (
    "P1A", "P1B", "C1",
    "L1", "L2", "L3", "L4", "L5", "L6",
    "P2", "P3", "P4", "P5", "P6",
    "P7A", "P7B", "P8A", "P8B", "P9",
    "T1", "T2", "T3", "T5", "T6",
    "C10", "C14", "C15", "C16", "C17",
    "EX16", "BQOA_CLAIM",
)

SEARCH_IDS = ("PROBLEM1", "PROBLEM2", "PROBLEM3", "PROBLEM4", "P3")

# One mode object per check kind, shared by every runner instead of a
# new one per check; at-point modes are indexed by the point.
_MODES = {
    (strength, locus): ContinuityMode(strength, locus)
    for strength in ("strong", "weak")
    for locus in ("local", "global")
}
_TRIVIAL_DOMAIN = {
    locus: ContinuityMode("strong", locus, trivial_domain=True)
    for locus in ("local", "global")
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


def _maps(nx: int, ny: int, budget: int | None) -> Iterator[tuple[int, ...]]:
    it = itertools.product(range(ny), repeat=nx)
    if budget is None:
        yield from it
    else:
        yield from itertools.islice(it, budget)


@lru_cache(maxsize=None)
def _discrete(ny: int) -> FiniteSpace:
    return discrete_space(ny)


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


def _map_doc(f: ScaledMap, **extra) -> dict:
    doc = {"map": jsonio.scaled_map_to_json(f)}
    doc.update(extra)
    return doc


def _violation_key(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# -- property implementations -------------------------------------------------------
# Each property provides tasks(cfg) and run(task, cfg) -> TaskResult.


def _tasks_per_space(cfg: SweepConfig, cap: int | None = None):
    n = cfg.max_points if cap is None else min(cfg.max_points, cap)
    return _space_refs(n)


def _tasks_space_pairs(cfg: SweepConfig, cap: int | None = None):
    refs = _tasks_per_space(cfg, cap)
    return [(a, b) for a in refs for b in refs]


def _closed_sets(scale: Scale) -> list[PointSet]:
    carrier = scale.space.carrier
    return sorted({carrier - a for a in scale.tq}, key=set_key)


def _run_p1(task, cfg: SweepConfig, which: str) -> TaskResult:
    res = TaskResult()
    space = _space(task)
    carrier = space.carrier
    for scale in _scales(space, cfg.scale_budget):
        flags = classify(scale)
        closeds = _closed_sets(scale)
        if which == "P1A":
            flag = flags.weak_U
            ok = True
            for r in range(1, len(closeds) + 1):
                for combo in itertools.combinations(closeds, r):
                    inter = carrier
                    for z in combo:
                        inter = inter & z
                    if not q_closed(scale, inter):
                        ok = False
                        break
                if not ok:
                    break
        elif which == "P1B":
            flag = flags.weak_I
            ok = True
            for r in range(1, len(closeds) + 1):
                for combo in itertools.combinations(closeds, r):
                    union = frozenset().union(*combo)
                    if union == carrier:
                        continue  # complement empty: never declarable
                    if not q_closed(scale, union):
                        ok = False
                        break
                if not ok:
                    break
        else:  # C1: pairwise lattice form
            flag = flags.weak_L
            ok = True
            for z1, z2 in itertools.combinations_with_replacement(closeds, 2):
                if not q_closed(scale, z1 & z2):
                    ok = False
                    break
                union = z1 | z2
                if union != carrier and not q_closed(scale, union):
                    ok = False
                    break
        res.tested += 1
        if flag != ok:
            res.violation(
                {
                    "scale": jsonio.scale_to_json(scale),
                    "flag": flag,
                    "closed_set_side": ok,
                }
            )
    return res


def _run_lemma_sweep(task, cfg: SweepConfig, which: str) -> TaskResult:
    """L1/L2/L5/L6: with trivial scales the four scaled notions agree with
    the independently coded classical oracle."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    tx, ty = trivial_scale(xs), trivial_scale(ys)
    for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
        f = ScaledMap(table, tx, ty)
        oracle = classical_continuous(table, xs, ys)
        if which == "L1":
            got = check_continuity(f, _MODES["strong", "global"]).holds
            want = oracle
        elif which == "L2":
            got = check_continuity(f, _MODES["strong", "local"]).holds
            want = oracle
        elif which == "L6":
            got = check_continuity(f, _MODES["weak", "local"]).holds
            want = oracle
        else:  # L5: pointwise
            got = all(
                check_continuity(f, _AT_POINT["weak"][x]).holds
                == classical_continuous_at(table, xs, ys, x)
                for x in xs.points
            )
            want = True
        res.tested += 1
        if got != want:
            res.violation(_map_doc(f, lemma=which, oracle=oracle, scaled=got))
    return res


def _run_l3(task, cfg: SweepConfig) -> TaskResult:
    """Strong continuity implies weak, locus by locus, on every instance."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    for q in _scales(xs, cfg.scale_budget):
        for r in _scales(ys, cfg.scale_budget):
            for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                f = ScaledMap(table, q, r)
                for locus in ("local", "global"):
                    strong = check_continuity(f, _MODES["strong", locus])
                    if not strong.holds:
                        res.skipped += 1
                        continue
                    res.tested += 1
                    weak = check_continuity(f, _MODES["weak", locus])
                    if not weak.holds:
                        res.violation(_map_doc(f, locus=locus))
    return res


def _run_l4(task, cfg: SweepConfig) -> TaskResult:
    """With a trivial domain scale and a neighborhood-closed codomain
    scale, locally weak continuity upgrades to strong continuity, both
    locally and globally."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    tx = trivial_scale(xs)
    for r in _scales(ys, cfg.scale_budget):
        if not classify(r).neighborhood_closed:
            continue
        for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
            f = ScaledMap(table, tx, r)
            if not check_continuity(f, _MODES["weak", "local"]).holds:
                res.skipped += 1
                continue
            res.tested += 1
            for locus in ("local", "global"):
                if not check_continuity(f, _MODES["strong", locus]).holds:
                    res.violation(_map_doc(f, locus=locus))
    return res


def _run_projection(task, cfg: SweepConfig, which: str) -> TaskResult:
    """P2/P5: locally continuous surjections are globally continuous.
    P6: surjections with trivial domain scale are globally continuous
    iff locally continuous."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    tables = [
        t
        for t in _maps(xs.n_points, ys.n_points, cfg.map_budget)
        if frozenset(t) == ys.carrier
    ]
    if not tables:
        return res
    if which == "P6":
        tx = trivial_scale(xs)
        for r in _scales(ys, cfg.scale_budget):
            for table in tables:
                f = ScaledMap(table, tx, r)
                res.tested += 1
                loc = check_continuity(f, _MODES["strong", "local"]).holds
                glob = check_continuity(f, _MODES["strong", "global"]).holds
                if loc != glob:
                    res.violation(_map_doc(f, local=loc, global_=glob))
        return res
    strength = "strong" if which == "P2" else "weak"
    for q in _scales(xs, cfg.scale_budget):
        for r in _scales(ys, cfg.scale_budget):
            for table in tables:
                f = ScaledMap(table, q, r)
                if not check_continuity(f, _MODES[strength, "local"]).holds:
                    res.skipped += 1
                    continue
                res.tested += 1
                if not check_continuity(f, _MODES[strength, "global"]).holds:
                    res.violation(_map_doc(f))
    return res


def _run_p3(task, cfg: SweepConfig) -> TaskResult:
    """Claim under test (not presumed): with a trivial domain scale,
    local and global strong continuity coincide for arbitrary maps."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    tx = trivial_scale(xs)
    for r in _scales(ys, cfg.scale_budget):
        for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
            f = ScaledMap(table, tx, r)
            res.tested += 1
            loc = check_continuity(f, _MODES["strong", "local"]).holds
            glob = check_continuity(f, _MODES["strong", "global"]).holds
            if loc != glob:
                res.violation(_map_doc(f, local=loc, global_=glob))
    return res


def _run_p4(task, cfg: SweepConfig) -> TaskResult:
    """The closed-set characterization agrees with global strong
    continuity on every instance (independent code paths)."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    x_scales = _scales(xs, cfg.scale_budget)
    y_scales = _scales(ys, cfg.scale_budget)
    x_families = [q.assigned_union() for q in x_scales]
    declared = frozenset().union(*(r.tq for r in y_scales))
    for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
        pre = {
            v: frozenset(x for x, y in enumerate(table) if y in v) for v in declared
        }
        for r in y_scales:
            pres = [pre[v] for v in r.tq]
            for q, tq in zip(x_scales, x_families):
                strong = all((not p) or p in tq for p in pres)
                f = ScaledMap(table, q, r)
                closed = check_closed_characterization(f).holds
                res.tested += 1
                if strong != closed:
                    res.violation(_map_doc(f, strong_global=strong, closed_side=closed))
    return res


def _build_filter_refinements(q: Scale) -> list[Scale]:
    """Deterministic filter structures refining q: the trivial scale and
    the filter closure of q (a pointwise superscale is always finer)."""
    out = [trivial_scale(q.space)]
    fc = f_closure(q)
    if fc not in out:
        out.append(fc)
    return out


def _run_p7a(task, cfg: SweepConfig) -> TaskResult:
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    for q in _scales(xs, cfg.scale_budget):
        refinements = _build_filter_refinements(q)
        for r in _scales(ys, cfg.scale_budget):
            for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                f = ScaledMap(table, q, r)
                for p in refinements:
                    if not (classify(p).is_F and finer(p, q)):
                        res.skipped += 1
                        continue
                    g = ScaledMap(table, p, r)
                    for locus in ("local", "global"):
                        if not check_continuity(f, _MODES["strong", locus]).holds:
                            res.skipped += 1
                            continue
                        res.tested += 1
                        if not check_continuity(g, _MODES["strong", locus]).holds:
                            res.violation(
                                _map_doc(
                                    f,
                                    refined=jsonio.scale_to_json(p),
                                    locus=locus,
                                )
                            )
    return res


def _coarsenings(r: Scale) -> list[Scale]:
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
    return [v for v in out if validate_scale(v)]


def _run_p8(task, cfg: SweepConfig, which: str) -> TaskResult:
    """P8A: pointwise-larger domain scales preserve continuity.
    P8B/C14: pointwise-smaller codomain scales preserve continuity
    (C14 is the trivial-domain special case)."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    for q in _scales(xs, cfg.scale_budget):
        if which == "C14" and q != trivial_scale(xs):
            continue
        for r in _scales(ys, cfg.scale_budget):
            for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                f = ScaledMap(table, q, r)
                if which == "P8A":
                    others = _scales(xs, min(cfg.scale_budget, 4))
                    variants = [
                        ScaledMap(table, scale_union(q, s), r) for s in others
                    ]
                else:
                    variants = [
                        ScaledMap(table, q, v) for v in _coarsenings(r)
                    ]
                for locus in ("local", "global"):
                    if not check_continuity(f, _MODES["strong", locus]).holds:
                        res.skipped += len(variants)
                        continue
                    for g in variants:
                        res.tested += 1
                        if not check_continuity(g, _MODES["strong", locus]).holds:
                            res.violation(
                                _map_doc(
                                    g,
                                    base_domain=jsonio.scale_to_json(q),
                                    base_codomain=jsonio.scale_to_json(r),
                                    locus=locus,
                                )
                            )
    return res


def _run_p7b(task, cfg: SweepConfig) -> TaskResult:
    """As stated (either side a filter structure): when the codomain
    scale refines a coarser one, continuity should transfer to the
    coarser target.  The filter-codomain branch is sound; the
    filter-domain branch is searched, and counterexamples are recorded
    as found."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    for q in _scales(xs, cfg.scale_budget):
        q_is_filter = classify(q).is_F
        for r in _scales(ys, cfg.scale_budget):
            r_is_filter = classify(r).is_F
            if not (q_is_filter or r_is_filter):
                continue
            coarser = [
                v for v in _coarsenings(r) if finer(r, v)
            ]
            for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                f = ScaledMap(table, q, r)
                for v in coarser:
                    for locus in ("local", "global"):
                        if not check_continuity(f, _MODES["strong", locus]).holds:
                            res.skipped += 1
                            continue
                        res.tested += 1
                        g = ScaledMap(table, q, v)
                        if not check_continuity(g, _MODES["strong", locus]).holds:
                            res.violation(
                                _map_doc(
                                    f,
                                    coarser=jsonio.scale_to_json(v),
                                    locus=locus,
                                    domain_is_filter=q_is_filter,
                                    codomain_is_filter=r_is_filter,
                                )
                            )
    return res


def _run_c15(task, cfg: SweepConfig) -> TaskResult:
    """Scaled continuity implies trivial-domain continuity."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    for q in _scales(xs, cfg.scale_budget):
        for r in _scales(ys, cfg.scale_budget):
            for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                f = ScaledMap(table, q, r)
                for locus in ("local", "global"):
                    if not check_continuity(f, _MODES["strong", locus]).holds:
                        res.skipped += 1
                        continue
                    res.tested += 1
                    if not check_continuity(f, _TRIVIAL_DOMAIN[locus]).holds:
                        res.violation(_map_doc(f, locus=locus))
    return res


def _run_c16(task, cfg: SweepConfig) -> TaskResult:
    """Continuity with trivial scales implies trivial-domain continuity
    against any codomain scale, pointwise and globally."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    tx, ty = trivial_scale(xs), trivial_scale(ys)
    for r in _scales(ys, cfg.scale_budget):
        for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
            classical = ScaledMap(table, tx, ty)
            scaled = ScaledMap(table, tx, r)
            for x in xs.points:
                mode = _AT_POINT["strong"][x]
                if not check_continuity(classical, mode).holds:
                    res.skipped += 1
                    continue
                res.tested += 1
                if not check_continuity(scaled, mode).holds:
                    res.violation(_map_doc(scaled, point=x))
            if not check_continuity(classical, _MODES["strong", "global"]).holds:
                res.skipped += 1
                continue
            res.tested += 1
            if not check_continuity(scaled, _MODES["strong", "global"]).holds:
                res.violation(_map_doc(scaled, locus="global"))
    return res


def _bases_of(space: FiniteSpace) -> list[frozenset[PointSet]]:
    """Deterministic bases of the topology: the minimal base (smallest
    open neighborhoods) and the full family of nonempty opens."""
    minimal = frozenset(space.min_open_around(x) for x in space.points)
    full = frozenset(o for o in space.opens if o)
    out = [minimal]
    if full != minimal:
        out.append(full)
    return out


def _base_scale(space: FiniteSpace, base: frozenset[PointSet]) -> Scale:
    assignment = tuple(
        frozenset(b for b in base if x in b) for x in space.points
    )
    return Scale(space, base, assignment)


def _run_c17(task, cfg: SweepConfig) -> TaskResult:
    """With a codomain scale listing the members of a base around each
    point, trivial-domain continuity coincides globally with continuity
    at trivial scales, and pointwise continuity transfers from the
    trivial-scale side."""
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    tx, ty = trivial_scale(xs), trivial_scale(ys)
    for base in _bases_of(ys):
        r = _base_scale(ys, base)
        for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
            with_base = ScaledMap(table, tx, r)
            classical = ScaledMap(table, tx, ty)
            res.tested += 1
            lhs = check_continuity(with_base, _MODES["strong", "global"]).holds
            rhs = check_continuity(classical, _MODES["strong", "global"]).holds
            if lhs != rhs:
                res.violation(_map_doc(with_base, base_side=lhs, trivial_side=rhs))
            for x in xs.points:
                mode = _AT_POINT["strong"][x]
                if check_continuity(classical, mode).holds:
                    res.tested += 1
                    if not check_continuity(with_base, mode).holds:
                        res.violation(_map_doc(with_base, point=x))
                else:
                    res.skipped += 1
    return res


def _run_ex16(task, cfg: SweepConfig) -> TaskResult:
    """The trivial scale refines every valid scale on the space."""
    res = TaskResult()
    space = _space(task)
    t = trivial_scale(space)
    for scale in _scales(space, cfg.scale_budget):
        res.tested += 1
        if not finer(t, scale):
            res.violation({"scale": jsonio.scale_to_json(scale)})
    return res


# -- composition sweeps ---------------------------------------------------------


def _random_scale(space: FiniteSpace, rng: random.Random) -> Scale:
    """Random valid scale: random families pruned to what stays assigned."""
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


def _random_space(rng: random.Random, max_points: int) -> FiniteSpace:
    fam = _spaces(rng.randrange(1, max_points + 1))
    return fam[rng.randrange(len(fam))]


def _extend_scale(base: Scale, rng: random.Random) -> Scale:
    """A pointwise superscale of base (used for the middle-scale
    refinement hypothesis)."""
    extra = _random_scale(base.space, rng)
    return scale_union(base, extra) if rng.random() < 0.7 else base


def _run_composition(task, cfg: SweepConfig, which: str) -> TaskResult:
    """T1 (pointwise), T2 (local/global), P9 (equal middle scales), and
    the companion specializations: composites inherit continuity when
    the middle-scale refinement hypothesis holds.  g is checked only
    when f passes, and the composite is built only for tested trials."""
    res = TaskResult()
    chunk_index, trials = task
    rng = random.Random(f"{cfg.seed}:{which}:{chunk_index}")
    loci = ("at-point",) if which == "T1" else ("local", "global")
    max_points = min(cfg.max_points, 3)
    for trial in range(trials):
        xs = _random_space(rng, max_points)
        ys = _random_space(rng, max_points)
        zs = _random_space(rng, max_points)
        q = _random_scale(xs, rng)
        p = _random_scale(zs, rng)
        r = _random_scale(ys, rng)
        h = r if which == "P9" else _extend_scale(r, rng)
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
            mode = _AT_POINT["strong"][x]
            hypothesis = (
                check_continuity(f, mode).holds
                and check_continuity(g, _AT_POINT["strong"][f_table[x]]).holds
            )
            witness = {"point": x}
        else:
            mode = _MODES["strong", locus]
            hypothesis = (
                check_continuity(f, mode).holds and check_continuity(g, mode).holds
            )
            witness = {"locus": locus}
        if not hypothesis:
            res.skipped += 1
            continue
        res.tested += 1
        if not check_continuity(compose_scaled(g, f), mode).holds:
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


def _run_t3(task, cfg: SweepConfig) -> TaskResult:
    """On a discrete codomain with a principal domain scale, weak
    continuity at a point is exactly constancy on the chosen
    neighborhood of that point."""
    res = TaskResult()
    space = _space(task)
    structures = _sampled_p_structures(space, cfg.scale_budget, cfg.seed)
    for ny in (1, 2, 3):
        y_space = _discrete(ny)
        if not is_T1(y_space):
            continue
        ty = trivial_scale(y_space)
        for ps in structures:
            chosen = _chosen_neighborhoods(ps)
            for table in _maps(space.n_points, ny, cfg.map_budget):
                f = ScaledMap(table, ps, ty)
                res.tested += 1
                for x in space.points:
                    weak = check_continuity(f, _AT_POINT["weak"][x]).holds
                    const = constant_on(f, chosen[x])
                    if weak != const:
                        res.violation(
                            _map_doc(f, point=x, weak=weak, constant=const)
                        )
    return res


def _run_c10(task, cfg: SweepConfig) -> TaskResult:
    """With connected chosen neighborhoods, weak continuity at every
    point is exactly constancy on each connected component."""
    res = TaskResult()
    space = _space(task)
    structures = _sampled_p_structures(space, cfg.scale_budget, cfg.seed)
    components = connected_components(space)
    for ny in (1, 2, 3):
        y_space = _discrete(ny)
        ty = trivial_scale(y_space)
        for ps in structures:
            chosen = _chosen_neighborhoods(ps)
            connected_choice = all(
                any(c <= block for block in components) for c in chosen
            )
            for table in _maps(space.n_points, ny, cfg.map_budget):
                if not connected_choice:
                    res.skipped += 1
                    continue
                f = ScaledMap(table, ps, ty)
                res.tested += 1
                weak_everywhere = check_continuity(f, _MODES["weak", "local"]).holds
                per_component = constancy_profile(f).constant_on_components
                if weak_everywhere != per_component:
                    res.violation(
                        _map_doc(
                            f,
                            weak_local=weak_everywhere,
                            constant_on_components=per_component,
                        )
                    )
    return res


# -- base families (finite index sets) ----------------------------------------------


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


def _run_t5_t6(task, cfg: SweepConfig, which: str) -> TaskResult:
    res = TaskResult()
    xref, yref = task
    xs, ys = _space(xref), _space(yref)
    rng = random.Random(f"{cfg.seed}:{which}:{xref}:{yref}")
    for q in _scales(xs, cfg.scale_budget):
        for r in _scales(ys, cfg.scale_budget):
            parts = _split_scale(r, 2, rng)
            for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                f = ScaledMap(table, q, r)
                part_maps = [ScaledMap(table, q, ri) for ri in parts]
                if which == "T5":
                    res.tested += 1
                    whole = check_continuity(f, _MODES["weak", "global"]).holds
                    each = all(
                        check_continuity(g, _MODES["weak", "global"]).holds
                        for g in part_maps
                    )
                    if whole != each:
                        res.violation(
                            _map_doc(f, whole=whole, parts=each, locus="global")
                        )
                else:
                    for x in xs.points:
                        res.tested += 1
                        mode = _AT_POINT["weak"][x]
                        whole = check_continuity(f, mode).holds
                        each = all(
                            check_continuity(g, mode).holds for g in part_maps
                        )
                        if whole != each:
                            res.violation(
                                _map_doc(f, whole=whole, parts=each, point=x)
                            )
    return res


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
        if iw_is_q_open(kind, complement):
            res.violation({"set": jsonio.sheetset_to_json(s)})
    if chunk_index == 0:
        # Edge claims: the empty set is closed (the whole line is open)
        # yet is itself never open.
        empty = SheetSet((LineSet.empty(),))
        res.tested += 1
        if not iw_is_q_open(kind, line.whole()) or iw_is_q_open(kind, empty):
            res.violation({"edge": "empty-set"})
    return res


def _tasks_bqoa(cfg: SweepConfig):
    trials = max(100, min(cfg.sample_budget, 1000))
    per = max(1, trials // 4)
    return [(i, per) for i in range(4)]


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class PropertySpec:
    description: str
    tasks: Callable[[SweepConfig], list]
    run: Callable[[object, SweepConfig], TaskResult]


def _pair_cap(cap):
    return lambda cfg: _tasks_space_pairs(cfg, cap)


PROPERTIES: dict[str, PropertySpec] = {
    "P1A": PropertySpec(
        "declared family union-closed iff intersections of closed sets stay closed",
        _tasks_per_space,
        lambda t, c: _run_p1(t, c, "P1A"),
    ),
    "P1B": PropertySpec(
        "declared family intersection-closed iff proper unions of closed sets stay closed",
        _tasks_per_space,
        lambda t, c: _run_p1(t, c, "P1B"),
    ),
    "C1": PropertySpec(
        "lattice flag iff pairwise closed-set closure",
        _tasks_per_space,
        lambda t, c: _run_p1(t, c, "C1"),
    ),
    "L1": PropertySpec(
        "trivial scales: global strong continuity = classical continuity",
        _tasks_space_pairs,
        lambda t, c: _run_lemma_sweep(t, c, "L1"),
    ),
    "L2": PropertySpec(
        "trivial scales: local strong continuity = classical continuity",
        _tasks_space_pairs,
        lambda t, c: _run_lemma_sweep(t, c, "L2"),
    ),
    "L3": PropertySpec(
        "strong continuity implies weak continuity",
        _pair_cap(2),
        _run_l3,
    ),
    "L4": PropertySpec(
        "nbhd-closed codomain + trivial domain: locally weak implies strong",
        _pair_cap(3),
        _run_l4,
    ),
    "L5": PropertySpec(
        "trivial scales: weak continuity at a point = classical continuity at it",
        _tasks_space_pairs,
        lambda t, c: _run_lemma_sweep(t, c, "L5"),
    ),
    "L6": PropertySpec(
        "trivial scales: locally weak continuity = classical continuity",
        _tasks_space_pairs,
        lambda t, c: _run_lemma_sweep(t, c, "L6"),
    ),
    "P2": PropertySpec(
        "locally strong-continuous surjections are globally strong-continuous",
        _tasks_space_pairs,
        lambda t, c: _run_projection(t, c, "P2"),
    ),
    "P3": PropertySpec(
        "claim searched: trivial-domain local = global for arbitrary maps",
        _tasks_space_pairs,
        _run_p3,
    ),
    "P4": PropertySpec(
        "closed-set characterization = global strong continuity",
        _tasks_space_pairs,
        _run_p4,
    ),
    "P5": PropertySpec(
        "locally weakly continuous surjections are globally weakly continuous",
        _tasks_space_pairs,
        lambda t, c: _run_projection(t, c, "P5"),
    ),
    "P6": PropertySpec(
        "surjections with trivial domain scale: local = global",
        _tasks_space_pairs,
        lambda t, c: _run_projection(t, c, "P6"),
    ),
    "P7A": PropertySpec(
        "filter refinements of the domain scale preserve continuity",
        _pair_cap(2),
        _run_p7a,
    ),
    "P7B": PropertySpec(
        "coarser codomain targets under a filter hypothesis (searched)",
        _pair_cap(2),
        _run_p7b,
    ),
    "P8A": PropertySpec(
        "pointwise-larger domain scales preserve continuity",
        _pair_cap(2),
        lambda t, c: _run_p8(t, c, "P8A"),
    ),
    "P8B": PropertySpec(
        "pointwise-smaller codomain scales preserve continuity",
        _pair_cap(2),
        lambda t, c: _run_p8(t, c, "P8B"),
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
        _run_t3,
    ),
    "T5": PropertySpec(
        "weak continuity against a scale = against every member of a covering split (global)",
        _pair_cap(2),
        lambda t, c: _run_t5_t6(t, c, "T5"),
    ),
    "T6": PropertySpec(
        "weak continuity against a scale = against every member of a covering split (pointwise)",
        _pair_cap(2),
        lambda t, c: _run_t5_t6(t, c, "T6"),
    ),
    "C10": PropertySpec(
        "connected chosen neighborhoods: locally weak = constant on components",
        _tasks_per_space,
        _run_c10,
    ),
    "C14": PropertySpec(
        "trivial domain: pointwise-smaller codomain scales preserve continuity",
        _pair_cap(2),
        lambda t, c: _run_p8(t, c, "C14"),
    ),
    "C15": PropertySpec(
        "scaled continuity implies trivial-domain continuity",
        _pair_cap(2),
        _run_c15,
    ),
    "C16": PropertySpec(
        "trivial-scale continuity implies continuity against any codomain scale",
        _pair_cap(3),
        _run_c16,
    ),
    "C17": PropertySpec(
        "base-member codomain scales recover classical continuity globally",
        _tasks_space_pairs,
        _run_c17,
    ),
    "EX16": PropertySpec(
        "the trivial scale refines every scale",
        _tasks_per_space,
        _run_ex16,
    ),
    "BQOA_CLAIM": PropertySpec(
        "bounded-ball scale: no bounded nonempty closed sets except empty",
        _tasks_bqoa,
        _run_bqoa,
    ),
}

# Properties whose statements carry complete arguments; their sweeps are
# required to come back clean.  The rest are recorded as searched.
MUST_PASS = (
    "P1A", "P1B", "C1",
    "L1", "L2", "L3", "L4", "L5", "L6",
    "P2", "P4", "P5", "P6",
    "P7A", "P8A", "P8B", "P9",
    "T1", "T2", "T3", "T5", "T6",
    "C10", "C14", "C15", "C16", "C17",
    "EX16", "BQOA_CLAIM",
)

REPORT_ONLY = tuple(p for p in PROPERTY_IDS if p not in MUST_PASS)


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
    tested = sum(r.tested for r in results)
    skipped = sum(r.skipped for r in results)
    violations = sorted(
        (v for r in results for v in r.violations), key=_violation_key
    )
    kept = tuple(violations[: cfg.max_violations])
    return VerificationReport(
        property_id=property_id,
        config=cfg,
        instances_tested=tested,
        hypothesis_skipped=skipped,
        violations=kept,
        truncated_violations=max(0, len(violations) - len(kept)),
    )


# -- separation searches ----------------------------------------------------------


def _search_instances(cfg: SweepConfig):
    for xref in _space_refs(cfg.max_points):
        for yref in _space_refs(cfg.max_points):
            xs, ys = _space(xref), _space(yref)
            for q in _scales(xs, cfg.scale_budget):
                for r in _scales(ys, cfg.scale_budget):
                    for table in _maps(xs.n_points, ys.n_points, cfg.map_budget):
                        yield ScaledMap(table, q, r)


def search_counterexample(claim: str, cfg: SweepConfig) -> VerificationReport:
    """Search for an instance separating two continuity notions; the
    report carries the smallest separating instance in canonical order
    (lexicographic on the serialized form)."""
    if claim == "P3":
        return run_property("P3", cfg)
    if claim not in SEARCH_IDS:
        raise KeyError(f"unknown search claim {claim!r}")
    found: list[dict] = []
    tested = 0
    for f in _search_instances(cfg):
        tested += 1
        if claim == "PROBLEM1":
            a = check_continuity(f, _MODES["weak", "local"]).holds
            b = check_continuity(f, _MODES["weak", "global"]).holds
            separated = a and not b
        elif claim == "PROBLEM2":
            a = check_continuity(f, _MODES["weak", "global"]).holds
            b = check_continuity(f, _MODES["weak", "local"]).holds
            separated = a and not b
        elif claim == "PROBLEM3":
            a = check_continuity(f, _MODES["weak", "global"]).holds
            b = check_continuity(f, _MODES["strong", "global"]).holds
            separated = a and not b
        else:  # PROBLEM4
            separated = False
            for x in f.domain.space.points:
                wa = check_continuity(f, _AT_POINT["weak"][x]).holds
                sa = check_continuity(f, _AT_POINT["strong"][x]).holds
                if wa and not sa:
                    separated = True
                    break
        if separated:
            found.append(_map_doc(f, claim=claim))
    found.sort(key=_violation_key)
    kept = tuple(found[:1])
    return VerificationReport(
        property_id=claim,
        config=cfg,
        instances_tested=tested,
        hypothesis_skipped=0,
        violations=kept,
        truncated_violations=max(0, len(found) - len(kept)),
    )
