"""Discontinuity structures (scales) on finite spaces.

A scale assigns each point a family of open neighborhoods drawn from a
declared family ``tq`` of open sets.  Validity means: every assigned
set lies in ``tq`` and is open; every assigned set contains its point
(SC1); every ``tq`` set is assigned to at least one point (SC2).  The
empty set can never lawfully appear in ``tq``: SC1 bars it from every
assignment and SC2 then has no assignee, so its absence is a theorem of
validity rather than a separate axiom.

Structure classification conventions (these decide edge cases for empty
per-point families):

* ``is_F`` / ``is_P`` require every per-point family to be nonempty: a
  filter contains the whole carrier by upward closure, so an empty
  family is not a filter.  Consequently ``f_closure`` seeds ``{carrier}``
  at points with empty assignments (the least filter).
* ``is_U`` / ``is_I`` / ``is_L`` are pure closure conditions and hold
  vacuously on empty families, which keeps each ``*_closure`` a least
  fixpoint.
* Weak flags live on ``tq``; intersection closure is demanded only for
  nonempty intersections, since the empty set can never enter ``tq``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .finite_topology import (
    FiniteSpace,
    PointSet,
    ValidationResult,
    VALID,
    canon,
    mask_of,
    set_key,
)


@dataclass(frozen=True)
class Scale:
    """Per-point assignment of open neighborhoods over a declared family.

    Construction checks only shape (assignment arity); call
    :func:`validate_scale` for the axioms, so invalid scales can be
    represented and reported on.

    A scale is immutable (a frozen dataclass over a frozen space,
    frozensets and tuples), so its validity never changes:
    :func:`require_valid` stores the verdict on the instance, outside the
    fields, and a repeat check of the same object reads it back.  The
    pass of :func:`validate_scale` that accepts a scale also stores the
    scale's bitmask form (:class:`ScaleMasks`), which the continuity
    kernels read through :func:`scale_masks`; the scale itself, and every
    public function here, stays on frozensets.  Neither stored value takes
    part in equality, hashing or ``repr``, and both travel with the scale
    through ``pickle``.
    """

    space: FiniteSpace
    tq: frozenset[PointSet]
    assignment: tuple[frozenset[PointSet], ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.space.n_points:
            raise ValueError("assignment must list one family per point")

    def at(self, x: int) -> frozenset[PointSet]:
        return self.assignment[x]

    def assigned_union(self) -> frozenset[PointSet]:
        out: set[PointSet] = set()
        for fam in self.assignment:
            out |= fam
        return frozenset(out)

    def key(self) -> tuple:
        return (
            self.space.key(),
            tuple(sorted((set_key(s) for s in self.tq))),
            tuple(
                tuple(sorted(set_key(s) for s in fam)) for fam in self.assignment
            ),
        )


class ScaleMasks(NamedTuple):
    """A valid scale as bitmasks (see ``finite_topology``): each family
    and the declared family as masks in ``set_key`` order, and the
    declared masks as a set for membership tests."""

    at: tuple[tuple[int, ...], ...]
    tq: tuple[int, ...]
    tq_set: frozenset[int]


def validate_scale(scale: Scale) -> ValidationResult:
    """VALID, or the first violated condition with a witness.

    A valid scale is recognized with set algebra alone: ``tq`` is open,
    every family lies in ``tq`` and contains its point, and the families
    cover ``tq``.  That pass also compiles the scale's :class:`ScaleMasks`
    and stores it on the instance.  Only a scale that fails the pass runs
    the ordered search, which decides the first violation and its
    witness."""
    masks = _compile(scale)
    if masks is None:
        return _first_violation(scale)
    object.__setattr__(scale, "_masks", masks)
    return VALID


def _compile(scale: Scale) -> ScaleMasks | None:
    """The scale's mask form, or None when the set-algebra pass rejects
    it (exactly when the scale is invalid)."""
    tq = scale.tq
    space = scale.space
    if not space.opens.issuperset(tq):
        return None
    at = []
    for x, fam in enumerate(scale.assignment):
        if not tq.issuperset(fam):
            return None
        masks, shared = _family_masks(space, fam)
        if not shared >> x & 1:
            return None
        at.append(masks)
    declared = _family_masks(space, tq)[0]
    if len(set().union(*at)) != len(declared):
        return None  # every family lies in tq, so some tq set is unassigned
    return ScaleMasks(tuple(at), declared, frozenset(declared))


def _family_masks(space: FiniteSpace, fam: frozenset[PointSet]) -> tuple:
    """(the masks of a family of opens in ``set_key`` order, the mask of
    the points every member holds), memoized on the space."""
    entry = space.family_masks.get(fam)
    if entry is None:
        masks = tuple(mask_of(a) for a in sorted(fam, key=set_key))
        shared = -1
        for m in masks:
            shared &= m
        entry = space.family_masks[fam] = (masks, shared)
    return entry


def _first_violation(scale: Scale) -> ValidationResult:
    """The conditions in their fixed order, each over sets sorted by
    ``set_key``; VALID when none is violated."""
    space = scale.space
    for fam in scale.assignment:
        for a in sorted(fam, key=set_key):
            if not a <= space.carrier:
                return ValidationResult(
                    False, "MALFORMED", (canon(a),), "assigned set leaves the carrier"
                )
    for x in space.points:
        for a in sorted(scale.at(x), key=set_key):
            if a not in scale.tq:
                return ValidationResult(
                    False,
                    "ASSIGNMENT_OUTSIDE_TQ",
                    (x, canon(a)),
                    "assigned set is not in the declared family",
                )
    for a in sorted(scale.tq, key=set_key):
        if a not in space.opens:
            return ValidationResult(
                False, "TQ_NOT_OPEN", (canon(a),), "declared set is not open"
            )
    for x in space.points:
        for a in sorted(scale.at(x), key=set_key):
            if x not in a:
                return ValidationResult(
                    False, "SC1", (x, canon(a)), "assigned set misses its point"
                )
    assigned = scale.assigned_union()
    for a in sorted(scale.tq, key=set_key):
        if a not in assigned:
            return ValidationResult(
                False, "SC2", (canon(a),), "declared set assigned to no point"
            )
    return VALID


def require_valid(scale: Scale) -> Scale:
    """Return the scale, or raise ValueError naming its first violation.
    Each scale object is validated once; its verdict, failures included,
    is stored on it (see :class:`Scale`)."""
    result = scale.__dict__.get("_validity")
    if result is None:
        result = validate_scale(scale)
        object.__setattr__(scale, "_validity", result)
    if not result:
        raise ValueError(f"invalid scale: {result.code} {result.witness}")
    return scale


def scale_masks(scale: Scale) -> ScaleMasks:
    """The mask form of a valid scale; raises like :func:`require_valid`.
    Only a valid scale carries one, so a stored form is read back as is."""
    masks = scale.__dict__.get("_masks")
    if masks is None:
        require_valid(scale)
        masks = scale.__dict__["_masks"]
    return masks


def trivial_scale(space: FiniteSpace) -> Scale:
    """Every point gets all of its open neighborhoods.  Built once per
    space and stored on it (see :class:`FiniteSpace`), so every caller
    shares one object, validated and compiled once."""
    scale = space.__dict__.get("_trivial_scale")
    if scale is None:
        tq = frozenset(o for o in space.opens if o)
        assignment = tuple(frozenset(around) for around in space.neighborhoods)
        scale = Scale(space, tq, assignment)
        object.__setattr__(space, "_trivial_scale", scale)
    return scale


def p_structure(space: FiniteSpace, chosen: Sequence[PointSet]) -> Scale:
    """Principal scale generated by one chosen open neighborhood per point:
    Q(x) = all opens containing the chosen set."""
    if len(chosen) != space.n_points:
        raise ValueError("need one chosen neighborhood per point")
    for x, o in enumerate(chosen):
        if o not in space.opens or x not in o:
            raise ValueError(f"chosen set at {x} must be an open neighborhood of it")
    up_sets = space.up_sets
    assignment = tuple(up_sets[frozenset(o)] for o in chosen)
    return Scale(space, frozenset().union(*assignment), assignment)


@dataclass(frozen=True)
class StructureFlags:
    condition_F: bool
    is_F: bool
    is_P: bool
    is_U: bool
    weak_U: bool
    is_I: bool
    weak_I: bool
    is_L: bool
    weak_L: bool
    neighborhood_closed: bool


def classify(scale: Scale) -> StructureFlags:
    """Compute every structure flag from its defining closure condition:
    ``is_F``, ``is_U``, ``is_I`` and ``is_L`` hold exactly when the grow
    step of the matching closure adds nothing."""
    require_valid(scale)
    space = scale.space
    carrier = space.carrier
    tq = scale.tq

    condition_f = all(carrier in scale.at(x) for x in space.points)

    def family_is_principal(x: int) -> bool:
        fam = scale.at(x)
        if not fam:
            return False
        generator = carrier
        for a in fam:
            generator &= a
        if generator not in fam:
            return False
        return fam == frozenset(b for b in space.opens if generator <= b)

    is_p = all(family_is_principal(x) for x in space.points)

    weak_u = all(a | b in tq for a in tq for b in tq)
    weak_i = all((a & b in tq) for a in tq for b in tq if a & b)
    weak_l = weak_u and weak_i

    nbhd_closed = all(
        any(v <= u for v in scale.at(z))
        for u in tq
        for z in sorted(u)
    )

    return StructureFlags(
        condition_F=condition_f,
        is_F=_closed_under(scale, _grow_f),
        is_P=is_p,
        is_U=_closed_under(scale, _grow_u),
        weak_U=weak_u,
        is_I=_closed_under(scale, _grow_i),
        weak_I=weak_i,
        is_L=_closed_under(scale, _grow_l),
        weak_L=weak_l,
        neighborhood_closed=nbhd_closed,
    )


# -- open/closed sets under a scale -----------------------------------------


def q_open(scale: Scale, s: PointSet) -> bool:
    """Membership in the union of assignments (= tq for valid scales).
    The empty set is never q-open; the carrier is q-open only when some
    point is assigned it."""
    return s in scale.assigned_union()


def q_closed(scale: Scale, s: PointSet) -> bool:
    return q_open(scale, scale.space.carrier - s)


# -- comparison orders -------------------------------------------------------


def _check_same_space(p: Scale, q: Scale) -> None:
    if p.space != q.space:
        raise ValueError("scales live on different spaces")


def finer_at(p: Scale, q: Scale, x: int) -> bool:
    """p refines q at x: every q-neighborhood of x contains a
    p-neighborhood of x."""
    _check_same_space(p, q)
    return all(any(b <= a for b in p.at(x)) for a in q.at(x))


def finer(p: Scale, q: Scale) -> bool:
    _check_same_space(p, q)
    return all(finer_at(p, q, x) for x in p.space.points)


def is_subscale(h: Scale, q: Scale) -> bool:
    """Pointwise sub-assignment that is itself a valid scale."""
    _check_same_space(h, q)
    if not validate_scale(h):
        return False
    return all(h.at(x) <= q.at(x) for x in h.space.points)


# -- scale algebra -------------------------------------------------------------


class ScaleIntersectionError(ValueError):
    """Intersection produced a family violating SC2; reported, not repaired."""

    def __init__(self, witness: PointSet) -> None:
        self.witness = witness
        super().__init__(
            f"intersection leaves {canon(witness)} assigned to no point"
        )


def scale_union(p: Scale, q: Scale) -> Scale:
    _check_same_space(p, q)
    return Scale(
        p.space,
        p.tq | q.tq,
        tuple(p.at(x) | q.at(x) for x in p.space.points),
    )


def scale_intersection(p: Scale, q: Scale) -> Scale:
    _check_same_space(p, q)
    out = Scale(
        p.space,
        p.tq & q.tq,
        tuple(p.at(x) & q.at(x) for x in p.space.points),
    )
    result = validate_scale(out)
    if not result:
        if result.code == "SC2":
            raise ScaleIntersectionError(frozenset(result.witness[0]))
        raise ValueError(f"intersection is invalid: {result.code}")
    return out


def _grow_f(space: FiniteSpace, families: list[set[PointSet]]) -> bool:
    """One filter step: seed each empty family with the carrier, else add
    its pairwise intersections and its open supersets.  Whether it grew."""
    changed = False
    for fam in families:
        if not fam:
            fam.add(space.carrier)
            changed = True
            continue
        new: set[PointSet] = set()
        for a, b in itertools.combinations(fam, 2):
            if a & b not in fam:
                new.add(a & b)
        for a in fam:
            for b in space.opens:
                if a <= b and b not in fam:
                    new.add(b)
        if new:
            fam |= new
            changed = True
    return changed


def _grow_u(space: FiniteSpace, families: list[set[PointSet]]) -> bool:
    """One union step: add to each family its unions with declared sets."""
    tq = set(itertools.chain.from_iterable(families))
    changed = False
    for fam in families:
        new = {a | b for a in fam for b in tq} - fam
        if new:
            fam |= new
            changed = True
    return changed


def _grow_i(space: FiniteSpace, families: list[set[PointSet]]) -> bool:
    """One intersection step: add to each family at x its intersections
    with the declared sets that hold x."""
    tq = set(itertools.chain.from_iterable(families))
    changed = False
    for x, fam in enumerate(families):
        new = {a & b for a in fam for b in tq if x in b} - fam
        if new:
            fam |= new
            changed = True
    return changed


def _grow_l(space: FiniteSpace, families: list[set[PointSet]]) -> bool:
    """One lattice step: add to each family its own unions and
    intersections."""
    changed = False
    for fam in families:
        new = {a | b for a in fam for b in fam} | {a & b for a in fam for b in fam}
        new -= fam
        if new:
            fam |= new
            changed = True
    return changed


def _closed_under(scale: Scale, grow) -> bool:
    """The scale's families are a fixpoint of ``grow``."""
    return not grow(scale.space, [set(fam) for fam in scale.assignment])


def _fixpoint_closure(scale: Scale, grow) -> Scale:
    """Iterate ``grow(space, families)`` to its least fixpoint and rebuild
    the scale with tq = union of the families."""
    require_valid(scale)
    families = [set(fam) for fam in scale.assignment]
    while grow(scale.space, families):
        pass
    tq = frozenset(itertools.chain.from_iterable(families))
    return Scale(scale.space, tq, tuple(frozenset(f) for f in families))


def f_closure(scale: Scale) -> Scale:
    """Least superscale whose per-point families are filters; empty
    families are seeded with the carrier (the least filter)."""
    return _fixpoint_closure(scale, _grow_f)


def u_closure(scale: Scale) -> Scale:
    return _fixpoint_closure(scale, _grow_u)


def i_closure(scale: Scale) -> Scale:
    return _fixpoint_closure(scale, _grow_i)


def l_closure(scale: Scale) -> Scale:
    return _fixpoint_closure(scale, _grow_l)


# -- enumeration ----------------------------------------------------------------


def enumerate_scales(
    space: FiniteSpace,
    budget: int | None = None,
    max_candidates: int = 200_000,
) -> Iterator[Scale]:
    """Valid scales on the space in a fixed canonical order: declared
    families iterated smallest-first over the canonical open list, then
    assignments in row-major product order.  Stops after ``budget`` scales
    or ``max_candidates`` assignment candidates, so a prefix of the
    canonical enumeration is what callers see (the enumeration bound)."""
    nonempty = [o for o in space.opens_sorted() if o]
    m = len(nonempty)
    yielded = 0
    examined = 0
    masks = sorted(range(1 << m), key=lambda mk: (bin(mk).count("1"), mk))
    for mask in masks:
        tq_list = [nonempty[i] for i in range(m) if mask >> i & 1]
        tq = frozenset(tq_list)
        allowed = [
            [a for a in tq_list if x in a] for x in space.points
        ]
        choice_lists = []
        for opts in allowed:
            subsets = []
            for k in range(1 << len(opts)):
                subsets.append(
                    frozenset(opts[i] for i in range(len(opts)) if k >> i & 1)
                )
            choice_lists.append(subsets)
        for combo in itertools.product(*choice_lists):
            examined += 1
            if examined > max_candidates:
                return
            assigned: set[PointSet] = set()
            for fam in combo:
                assigned |= fam
            if assigned != tq:
                continue
            yield Scale(space, tq, tuple(combo))
            yielded += 1
            if budget is not None and yielded >= budget:
                return


def count_scales(space: FiniteSpace, cap: int = 200_000) -> int:
    return sum(1 for _ in enumerate_scales(space, max_candidates=cap))
