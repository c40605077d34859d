"""Continuity notions for maps between finite scaled spaces.

Twelve modes: {strong, weak} x {at-point, local, global} x {scaled
domain, trivial domain}.  ``strong`` asks preimages of codomain-scale
neighborhoods (pointwise) or assigned sets (globally) to land in the
domain scale; ``weak`` asks for some assigned domain set mapping inside
the target.  The trivial-domain variants substitute the domain space's
trivial scale, which reduces strong continuity to topological-openness
demands.

Global modes treat assigned codomain sets with empty preimage as
vacuously satisfied: such sets constrain no point of the domain, and
demanding the empty set be assigned (it never is) would break the
equivalence between scaled and classical continuity at trivial scales.
The closed-set characterization mirrors this by allowing the preimage
of an assigned-complement to be the whole carrier.

Deciding runs in three steps: compile, decide, materialize.  A map is
compiled to its table's preimage masks (``Preimages``, memoized per
table by ``preimages``) and its scales to their ``ScaleMasks``;
``first_failure``, the one walk over those forms, finds the first
failure or none; and only then is a verdict with a certificate built.
``check_continuity`` is the three steps for one ``ScaledMap``.  The
verifier's sweeps compile each table and scale once (the composition
sweeps draw their scales as masks) and call ``first_failure``
themselves, building a ``ScaledMap`` only for a violation they report.
``check_closed_characterization`` is a path of its own: it pulls back
the complement of each target and looks it up among the domain's closed
sets.  Targets are visited in ``set_key`` order, so the first failure
and its certificate are the canonical ones.  Certificates hold canonical
tuples, and ``replay_certificate``, ``ScaledMap.preimage`` and
``ScaledMap.image`` stay on frozensets: a failure is reconfirmed from
scratch by code that shares nothing with the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from .finite_topology import PointSet, connected_components, mask_points
from .scales import Scale, ScaleMasks, scale_masks, trivial_scale

Strength = Literal["strong", "weak"]
Locus = Literal["at-point", "local", "global"]


@dataclass(frozen=True)
class ContinuityMode:
    strength: Strength = "strong"
    locus: Locus = "global"
    trivial_domain: bool = False
    # int in the finite world, SheetPoint in the interval world
    at_point: object | None = None

    def __post_init__(self) -> None:
        if self.strength not in ("strong", "weak"):
            raise ValueError("strength must be 'strong' or 'weak'")
        if self.locus not in ("at-point", "local", "global"):
            raise ValueError("locus must be 'at-point', 'local', or 'global'")
        if (self.locus == "at-point") != (self.at_point is not None):
            raise ValueError("at-point modes need at_point; others must omit it")

    def label(self) -> str:
        base = f"{self.locus}-{self.strength}"
        if self.trivial_domain:
            base += "-trivial"
        return base


def parse_mode(
    text: str, at_point: int | None = None, trivial_domain: bool = False
) -> ContinuityMode:
    """Parse "<locus>-<strength>" labels like "local-strong"."""
    parts = text.strip().lower().rsplit("-", 1)
    if len(parts) != 2:
        raise ValueError(f"cannot parse continuity mode {text!r}")
    locus, strength = parts
    if locus in ("at", "at-point", "atpoint"):
        locus = "at-point"
    return ContinuityMode(
        strength=strength,  # type: ignore[arg-type]
        locus=locus,  # type: ignore[arg-type]
        trivial_domain=trivial_domain,
        at_point=at_point,
    )


ALL_MODES = tuple(
    ContinuityMode(strength=s, locus=loc, trivial_domain=t)
    for s in ("strong", "weak")
    for loc in ("local", "global")
    for t in (False, True)
)


@dataclass(frozen=True)
class ScaledMap:
    """A total point map between two finite scaled spaces."""

    table: tuple[int, ...]
    domain: Scale
    codomain: Scale

    def __post_init__(self) -> None:
        table = self.table
        if len(table) != self.domain.space.n_points:
            raise ValueError("table must be total on the domain carrier")
        # a loop over the few entries costs less than a min/max pair
        n = self.codomain.space.n_points
        for v in table:
            if not 0 <= v < n:
                raise ValueError("image point outside the codomain carrier")

    def apply(self, x: int) -> int:
        return self.table[x]

    def preimage(self, s: PointSet) -> PointSet:
        return frozenset(x for x, y in enumerate(self.table) if y in s)

    def image(self, s: PointSet) -> PointSet:
        return frozenset(self.table[x] for x in s)


@dataclass(frozen=True)
class ComposedScaledMap(ScaledMap):
    """Composition g o f, retaining both middle scales: ``middle_h`` is
    f's codomain scale and ``middle_r`` is g's domain scale, so the
    refinement hypothesis between them stays checkable."""

    middle_h: Scale | None = None
    middle_r: Scale | None = None

    def middle_hypothesis(self) -> bool:
        """Every middle_r neighborhood of a point is a middle_h one
        (pointwise containment of assignments)."""
        if self.middle_h is None or self.middle_r is None:
            raise ValueError("composition did not record middle scales")
        return middle_refines(self.middle_r, self.middle_h)


def middle_refines(r: Scale, h: Scale) -> bool:
    """Pointwise containment r(y) <= h(y); implies tq_r <= tq_h for valid
    scales but is strictly stronger, which is what pointwise composition
    arguments need."""
    if r.space != h.space:
        raise ValueError("middle scales live on different spaces")
    return all(r.at(y) <= h.at(y) for y in r.space.points)


def compose_scaled(g: ScaledMap, f: ScaledMap) -> ComposedScaledMap:
    if f.codomain.space != g.domain.space:
        raise ValueError("codomain space of f differs from domain space of g")
    table = tuple(g.table[f.table[x]] for x in range(len(f.table)))
    return ComposedScaledMap(
        table=table,
        domain=f.domain,
        codomain=g.codomain,
        middle_h=f.codomain,
        middle_r=g.domain,
    )


@dataclass(frozen=True)
class ContinuityVerdict:
    holds: bool
    mode: ContinuityMode
    certificate: dict | None = None

    def __bool__(self) -> bool:
        return self.holds


def _domain_scale(f: ScaledMap, mode: ContinuityMode) -> Scale:
    return trivial_scale(f.domain.space) if mode.trivial_domain else f.domain


class Preimages(dict):
    """Codomain mask -> preimage mask under one table, each entry
    computed on first use from the preimages of single points
    (``of_point[y]``, the mask of the points mapped to y)."""

    def __init__(self, table: tuple[int, ...], ny: int) -> None:
        super().__init__()
        self.of_point = [0] * ny
        for x, y in enumerate(table):
            self.of_point[y] |= 1 << x

    def __missing__(self, target: int) -> int:
        pre = 0
        for y, xs in enumerate(self.of_point):
            if target >> y & 1:
                pre |= xs
        self[target] = pre
        return pre


@lru_cache(maxsize=1 << 12)
def preimages(table: tuple[int, ...], ny: int) -> Preimages:
    """The preimage masks of a table into ny points, one shared
    ``Preimages`` per (table, ny)."""
    return Preimages(table, ny)


def first_failure(
    table: tuple[int, ...],
    pre: Preimages,
    dom: ScaleMasks,
    cod: ScaleMasks,
    mode: ContinuityMode,
) -> tuple[int | None, int, int] | None:
    """The first failure of continuity in ``mode`` of the map ``table``
    with preimage masks ``pre``, from a domain with masks ``dom`` (the
    trivial scale's in a trivial-domain mode) to a codomain with masks
    ``cod``; None when the map is continuous.  A failure is ``(x, target,
    preimage)`` as masks, with ``x`` None in global modes.  Raises
    ValueError when an at-point mode's point is not a domain point."""
    strong = mode.strength == "strong"
    if mode.locus == "global":
        for target in cod.tq:
            p = pre[target]
            if not p:
                continue  # no domain point is constrained by this set
            if strong:
                if p not in dom.tq_set:
                    return None, target, p
            else:
                for v in dom.tq:
                    if not v & ~p:  # image(v) lies inside the target
                        break
                else:
                    return None, target, p
        return None
    if mode.locus == "at-point":
        x = mode.at_point
        if not 0 <= x < len(table):
            raise ValueError(f"point {x} outside the domain carrier")
        points = (x,)
    else:
        points = range(len(table))
    for x in points:
        fam = dom.at[x]
        for target in cod.at[table[x]]:
            p = pre[target]
            if strong:
                if p not in fam:
                    return x, target, p
            else:
                for u in fam:
                    if not u & ~p:
                        break
                else:
                    return x, target, p
    return None


def check_continuity(f: ScaledMap, mode: ContinuityMode) -> ContinuityVerdict:
    """Compile f (its scales' masks and its table's preimage masks),
    find the first failure with :func:`first_failure`, and certify it."""
    table = f.table
    dom = scale_masks(f.domain)
    cod = scale_masks(f.codomain)
    if mode.trivial_domain:
        dom = scale_masks(trivial_scale(f.domain.space))
    pre = preimages(table, f.codomain.space.n_points)
    failure = first_failure(table, pre, dom, cod, mode)
    if failure is None:
        return ContinuityVerdict(True, mode)
    x, target, p = failure
    if x is None:
        certificate = {"r_open": mask_points(target)}
    else:
        certificate = {"point": x, "target": mask_points(target)}
    if mode.strength == "strong":
        certificate["preimage"] = mask_points(p)
    return ContinuityVerdict(False, mode, certificate)


_CLOSED_MODE = ContinuityMode(strength="strong", locus="global")


def check_closed_characterization(f: ScaledMap) -> ContinuityVerdict:
    """Preimages of assigned-set complements are q-closed (whole-carrier
    preimages vacuous); equivalent to global strong continuity.

    On masks, on a path of its own: the complement of each declared
    codomain set is pulled back and looked up among the domain's closed
    sets, the complements of its declared sets."""
    dom = scale_masks(f.domain)
    cod = scale_masks(f.codomain)
    pre = preimages(f.table, f.codomain.space.n_points)
    full_x = (1 << f.domain.space.n_points) - 1
    full_y = (1 << f.codomain.space.n_points) - 1
    closed = {full_x ^ m for m in dom.tq}
    for target in cod.tq:
        z = full_y & ~target
        p = pre[z]
        if p != full_x and p not in closed:
            return ContinuityVerdict(
                False,
                _CLOSED_MODE,
                {"r_closed": mask_points(z), "preimage": mask_points(p)},
            )
    return ContinuityVerdict(True, _CLOSED_MODE)


def replay_certificate(
    f: ScaledMap, mode: ContinuityMode, certificate: dict
) -> bool:
    """Reconfirm a failure certificate through the primitive predicates."""
    dom = _domain_scale(f, mode)
    if "r_open" in certificate:
        target = frozenset(certificate["r_open"])
        pre = f.preimage(target)
        if not pre:
            return False
        if mode.strength == "strong":
            return pre not in dom.assigned_union()
        return not any(f.image(v) <= target for v in dom.assigned_union())
    x = certificate["point"]
    target = frozenset(certificate["target"])
    if target not in f.codomain.at(f.apply(x)):
        return False
    if mode.strength == "strong":
        return f.preimage(target) not in dom.at(x)
    return not any(f.image(u) <= target for u in dom.at(x))


@dataclass(frozen=True)
class ConstancyProfile:
    locally_constant_at: frozenset[int]
    constant_on_components: bool


def constant_on(f: ScaledMap, s: PointSet) -> bool:
    return len({f.apply(x) for x in s}) <= 1


def constancy_profile(f: ScaledMap) -> ConstancyProfile:
    """Per-point constancy on some open neighborhood (equivalently on the
    smallest one) and global constancy on connected components."""
    space = f.domain.space
    local = frozenset(
        x for x in space.points if constant_on(f, space.min_open_around(x))
    )
    per_component = all(constant_on(f, block) for block in connected_components(space))
    return ConstancyProfile(local, per_component)
