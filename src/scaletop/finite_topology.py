"""Finite topological spaces with explicit open-set families.

Points are integers ``0..n-1``; point sets are frozensets kept in a
canonical order (size, then sorted elements) wherever families are
serialized or enumerated, so enumeration and reports are deterministic.

Frozensets are the representation at the edges: construction, JSON,
certificates and every public predicate.  Inside the continuity kernels
a point set is an int bitmask (bit ``i`` set when point ``i`` is in the
set), and a family of sets is a tuple of masks in ``set_key`` order,
memoized per space (``FiniteSpace.family_masks``); ``mask_points`` turns
a mask back into the canonical tuple a certificate carries.

Spaces on ``n`` points are in bijection with reflexive transitive
relations (preorders) via the specialization order; production
enumeration walks preorders and emits the corresponding up-set
topology, while a raw filter over all families of subsets remains
available as an independent oracle for small ``n``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

PointSet = frozenset[int]


def canon(s: PointSet) -> tuple[int, ...]:
    return tuple(sorted(s))


def set_key(s: PointSet) -> tuple[int, tuple[int, ...]]:
    return (len(s), canon(s))


def family_key(opens: frozenset[PointSet]) -> tuple:
    return tuple(sorted((set_key(s) for s in opens)))


def mask_of(s) -> int:
    """The bitmask of a set of points: bit ``i`` set when ``i`` is in it."""
    m = 0
    for i in s:
        m |= 1 << i
    return m


@lru_cache(maxsize=1 << 12)
def mask_points(m: int) -> tuple[int, ...]:
    """The canonical tuple of the points in mask ``m`` (inverse of
    ``mask_of``, equal to ``canon`` of the set)."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    code: str | None = None
    witness: tuple | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


VALID = ValidationResult(True, message="valid")


def validate_topology(opens: frozenset[PointSet], n: int) -> ValidationResult:
    """Check the open-set axioms; malformed input is reported distinctly
    from axiom failures, and the first violated axiom carries a witness."""
    if n <= 0:
        return ValidationResult(False, "MALFORMED", (n,), "carrier must be nonempty")
    carrier = frozenset(range(n))
    for s in sorted(opens, key=set_key):
        for p in sorted(s):
            if not 0 <= p < n:
                return ValidationResult(
                    False, "MALFORMED", (canon(s), p), f"point {p} out of range"
                )
    if frozenset() not in opens:
        return ValidationResult(
            False, "MISSING_EMPTY", ((),), "empty set is not open"
        )
    if carrier not in opens:
        return ValidationResult(
            False, "MISSING_CARRIER", (canon(carrier),), "carrier is not open"
        )
    ordered = sorted(opens, key=set_key)
    for a, b in itertools.combinations(ordered, 2):
        if a | b not in opens:
            return ValidationResult(
                False,
                "UNION_NOT_OPEN",
                (canon(a), canon(b)),
                "union of two opens is not open",
            )
    for a, b in itertools.combinations(ordered, 2):
        if a & b not in opens:
            return ValidationResult(
                False,
                "INTERSECTION_NOT_OPEN",
                (canon(a), canon(b)),
                "intersection of two opens is not open",
            )
    return VALID


@dataclass(frozen=True)
class FiniteSpace:
    """A finite topological space; ``opens`` must satisfy the axioms.

    ``carrier`` is built once, at construction, and the derived tables
    (open neighborhoods, up-sets, family masks, smallest open
    neighborhoods, connected components, the trivial scale) on first
    use; all are stored outside the fields, so they take no part in
    equality, hashing or ``repr``."""

    n_points: int
    opens: frozenset[PointSet]

    def __post_init__(self) -> None:
        result = validate_topology(self.opens, self.n_points)
        if not result:
            raise ValueError(f"not a topology: {result.code} {result.message}")
        object.__setattr__(self, "carrier", frozenset(range(self.n_points)))

    @staticmethod
    def of(n: int, opens) -> FiniteSpace:
        return FiniteSpace(n, frozenset(frozenset(s) for s in opens))

    @property
    def points(self) -> range:
        return range(self.n_points)

    def opens_sorted(self) -> list[PointSet]:
        return sorted(self.opens, key=set_key)

    @cached_property
    def neighborhoods(self) -> tuple[tuple[PointSet, ...], ...]:
        """For each point, the opens that contain it, in ``set_key`` order."""
        ordered = self.opens_sorted()
        return tuple(tuple(o for o in ordered if x in o) for x in self.points)

    @cached_property
    def up_sets(self) -> dict[PointSet, frozenset[PointSet]]:
        """Each open mapped to the opens that contain it."""
        return {
            a: frozenset(b for b in self.opens if a <= b) for a in self.opens
        }

    @cached_property
    def family_masks(self) -> dict[frozenset[PointSet], tuple[tuple[int, ...], int]]:
        """Memo: a family of open sets -> (their masks in ``set_key``
        order, the mask of the points they share), filled by
        ``scales.validate_scale``."""
        return {}

    @cached_property
    def _min_opens(self) -> tuple[PointSet, ...]:
        # The smallest open around x is itself open (opens are closed
        # under intersection), so it is the first, smallest, of x's
        # neighborhoods.
        return tuple(around[0] for around in self.neighborhoods)

    def closeds(self) -> list[PointSet]:
        return sorted((self.carrier - o for o in self.opens), key=set_key)

    def is_closed(self, s: PointSet) -> bool:
        return (self.carrier - s) in self.opens

    def min_open_around(self, x: int) -> PointSet:
        """Smallest open set containing x (exists on finite carriers);
        the carrier when x is not a point, as no open set holds it."""
        if not 0 <= x < self.n_points:
            return self.carrier
        return self._min_opens[x]

    def key(self) -> tuple:
        return family_key(self.opens)


def closure(space: FiniteSpace, s: PointSet) -> PointSet:
    """Smallest closed superset: intersection of all closed supersets
    (closed sets are intersection-closed, so the result is closed)."""
    _check_subset(space, s)
    acc = space.carrier
    for c in space.closeds():
        if s <= c:
            acc = acc & c
    return acc


def interior(space: FiniteSpace, s: PointSet) -> PointSet:
    """Largest open subset."""
    _check_subset(space, s)
    acc: PointSet = frozenset()
    for o in space.opens:
        if o <= s:
            acc = acc | o
    return acc


def _check_subset(space: FiniteSpace, s: PointSet) -> None:
    if not s <= space.carrier:
        raise ValueError("point set is not a subset of the carrier")


def connected_components(space: FiniteSpace) -> list[PointSet]:
    """Partition into maximal connected subsets, computed from the
    minimal-open-neighborhood adjacency (x adjacent to y when one lies in
    the other's smallest open neighborhood).  Computed once per space;
    each call returns a fresh list."""
    blocks = space.__dict__.get("_components")
    if blocks is None:
        blocks = _components(space)
        object.__setattr__(space, "_components", blocks)
    return list(blocks)


def _components(space: FiniteSpace) -> tuple[PointSet, ...]:
    n = space.n_points
    mins = [space.min_open_around(x) for x in range(n)]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for x in range(n):
        for y in range(x + 1, n):
            if y in mins[x] or x in mins[y]:
                union(x, y)
    blocks: dict[int, set[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), set()).add(x)
    return tuple(sorted((frozenset(b) for b in blocks.values()), key=set_key))


def is_T1(space: FiniteSpace) -> bool:
    """Every singleton closed.  Tested literally on singletons (on finite
    carriers this coincides with discreteness, but the singleton condition
    is what gets checked)."""
    return all(space.is_closed(frozenset({x})) for x in space.points)


# -- enumeration -----------------------------------------------------------

MAX_ENUMERATION_POINTS = 4


def _preorders(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All reflexive transitive relations on 0..n-1 (deterministic order)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(pairs)
    for mask in range(1 << m):
        rel = {(i, i) for i in range(n)}
        rel.update(p for k, p in enumerate(pairs) if mask >> k & 1)
        ok = True
        for a, b in list(rel):
            if not ok:
                break
            for c in range(n):
                if (b, c) in rel and (a, c) not in rel:
                    ok = False
                    break
        if ok:
            yield frozenset(rel)


def _preorder_to_opens(n: int, rel: frozenset[tuple[int, int]]) -> frozenset[PointSet]:
    """Up-sets of the preorder: U is open iff x in U and x <= y imply y in U."""
    opens = set()
    for bits in range(1 << n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        if all((y in s) for x in s for (x2, y) in rel if x2 == x):
            opens.add(s)
    return frozenset(opens)


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """Every labeled topology on n points exactly once, in canonical order
    (lexicographic on the canonically sorted opens family)."""
    if not 1 <= n <= MAX_ENUMERATION_POINTS:
        raise ValueError(f"n must be between 1 and {MAX_ENUMERATION_POINTS}")
    families = {_preorder_to_opens(n, rel) for rel in _preorders(n)}
    for fam in sorted(families, key=family_key):
        yield FiniteSpace(n, fam)


def enumerate_topologies_bruteforce(n: int) -> Iterator[FiniteSpace]:
    """Independent oracle: filter every family of subsets through
    validate_topology.  Exponential in 2**n; intended for n <= 3."""
    if not 1 <= n <= 3:
        raise ValueError("brute-force oracle is limited to n <= 3")
    subsets = [frozenset(s) for r in range(n + 1)
               for s in itertools.combinations(range(n), r)]
    found = []
    for mask in range(1 << len(subsets)):
        fam = frozenset(s for k, s in enumerate(subsets) if mask >> k & 1)
        if validate_topology(fam, n):
            found.append(fam)
    for fam in sorted(found, key=family_key):
        yield FiniteSpace(n, fam)


def sierpinski() -> FiniteSpace:
    return FiniteSpace.of(2, [(), (0,), (0, 1)])


def discrete_space(n: int) -> FiniteSpace:
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    )
    return FiniteSpace.of(n, subsets)


def indiscrete_space(n: int) -> FiniteSpace:
    return FiniteSpace.of(n, [(), tuple(range(n))])
