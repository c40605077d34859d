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

Verdicts carry machine-checkable certificates; ``replay_certificate``
reconfirms a failure from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .finite_topology import PointSet, canon, connected_components, set_key
from .scales import Scale, q_open, require_valid, trivial_scale

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
        if len(self.table) != self.domain.space.n_points:
            raise ValueError("table must be total on the domain carrier")
        for v in self.table:
            if not 0 <= v < self.codomain.space.n_points:
                raise ValueError("image point outside the codomain carrier")

    def apply(self, x: int) -> int:
        return self.table[x]

    def preimage(self, s: PointSet) -> PointSet:
        return frozenset(x for x, y in enumerate(self.table) if y in s)

    def image(self, s: PointSet) -> PointSet:
        return frozenset(self.table[x] for x in s)

    @property
    def is_surjective(self) -> bool:
        return frozenset(self.table) == self.codomain.space.carrier


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


def _sorted_sets(fams) -> list[PointSet]:
    return sorted(fams, key=set_key)


def check_continuity(f: ScaledMap, mode: ContinuityMode) -> ContinuityVerdict:
    require_valid(f.domain)
    require_valid(f.codomain)
    dom = _domain_scale(f, mode)
    if mode.locus == "at-point":
        return _check_at_point(f, dom, mode, mode.at_point)
    if mode.locus == "local":
        for x in f.domain.space.points:
            sub = _check_at_point(f, dom, mode, x)
            if not sub.holds:
                return ContinuityVerdict(False, mode, sub.certificate)
        return ContinuityVerdict(True, mode)
    return _check_global(f, dom, mode)


def _check_at_point(
    f: ScaledMap, dom: Scale, mode: ContinuityMode, x: int
) -> ContinuityVerdict:
    if not 0 <= x < f.domain.space.n_points:
        raise ValueError(f"point {x} outside the domain carrier")
    y = f.apply(x)
    for target in _sorted_sets(f.codomain.at(y)):
        if mode.strength == "strong":
            pre = f.preimage(target)
            if pre not in dom.at(x):
                return ContinuityVerdict(
                    False,
                    mode,
                    {
                        "point": x,
                        "target": canon(target),
                        "preimage": canon(pre),
                    },
                )
        else:
            if not any(f.image(u) <= target for u in dom.at(x)):
                return ContinuityVerdict(
                    False, mode, {"point": x, "target": canon(target)}
                )
    return ContinuityVerdict(True, mode)


def _check_global(
    f: ScaledMap, dom: Scale, mode: ContinuityMode
) -> ContinuityVerdict:
    dom_open = dom.assigned_union()
    for target in _sorted_sets(f.codomain.assigned_union()):
        pre = f.preimage(target)
        if not pre:
            continue  # no domain point is constrained by this set
        if mode.strength == "strong":
            if pre not in dom_open:
                return ContinuityVerdict(
                    False,
                    mode,
                    {"r_open": canon(target), "preimage": canon(pre)},
                )
        else:
            if not any(f.image(v) <= target for v in dom_open):
                return ContinuityVerdict(False, mode, {"r_open": canon(target)})
    return ContinuityVerdict(True, mode)


def check_closed_characterization(f: ScaledMap) -> ContinuityVerdict:
    """Preimages of assigned-set complements are q-closed (whole-carrier
    preimages vacuous); equivalent to global strong continuity."""
    require_valid(f.domain)
    require_valid(f.codomain)
    mode = ContinuityMode(strength="strong", locus="global")
    carrier_y = f.codomain.space.carrier
    carrier_x = f.domain.space.carrier
    for target in _sorted_sets(f.codomain.assigned_union()):
        z = carrier_y - target
        pre = f.preimage(z)
        if pre == carrier_x:
            continue
        if not q_open(f.domain, carrier_x - pre):
            return ContinuityVerdict(
                False,
                mode,
                {"r_closed": canon(z), "preimage": canon(pre)},
            )
    return ContinuityVerdict(True, mode)


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


def constancy_profile(f: ScaledMap) -> ConstancyProfile:
    """Per-point constancy on some open neighborhood (equivalently on the
    smallest one) and global constancy on connected components."""
    space = f.domain.space
    local = frozenset(
        x
        for x in space.points
        if len({f.apply(z) for z in space.min_open_around(x)}) == 1
    )
    per_component = all(
        len({f.apply(x) for x in block}) == 1
        for block in connected_components(space)
    )
    return ConstancyProfile(local, per_component)


def constant_on(f: ScaledMap, s: PointSet) -> bool:
    return len({f.apply(x) for x in s}) <= 1
