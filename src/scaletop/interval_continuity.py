"""Continuity checking for piecewise-affine maps between interval-world
scaled carriers.

Interval-world neighborhood families are infinite, so the checkers use
probe semantics: pointwise and local modes quantify over a deterministic
finite family of assigned neighborhoods generated around the map's
critical coordinates (breakpoints and carrier endpoints); global modes
quantify over the fixture's declared probe family plus generated
critical sets.  A passing verdict means "holds on all probes".  Every
pointwise and local decision, and every global decision with a trivial
domain scale, is exact, so its failing verdict is an unconditional
counterexample certificate.  A weak global failure on any other domain
scale rests on ``_find_open_witness``'s midpoint search, which can miss
a q-open subset of the preimage: for the identity map on [0, 10] with a
``SymmetricIntervals`` domain (ambient [0, 1]) and a trivial codomain,
the probe (1/5, 9) fails and its certificate replays, yet
(1/4, 7/20) lies in its preimage and is q-open.

Probes are taken one at a time, in order, and a check stops at the
first probe that fails, so the probes after it are never built.  Every
probe runs through the same loop: pull it back through the whole map,
then decide the preimage.  A probe that repeats an earlier one is
decided the same way again, so repeats are not filtered out; they
cannot move the first failing probe or its certificate.

Weak checks skip every probe that contains the last probe they passed
on a nonempty preimage, with no pull-back and no decision.  Weak
continuity is upward closed in the probe: V inside V' puts f^-1(V)
inside f^-1(V'), and each kind's ``witness_inside`` decides exactly and
finds a witness in every superset of a set that holds one.  So a
skipped probe would pass, and the first failing probe and its
certificate cannot move.  Global checks skip only on a trivial domain
scale, where the midpoint search is exact: it finds a witness exactly
when the preimage has a nonempty relative interior.  Elsewhere a probe
that contains a passed one can still fail the search, as (1/5, 9) does
after (1/4, 1/2) above.  An empty preimage passes a global check
vacuously and proves nothing, so it is never kept.

A pruning check also stops a nested family (``IntervalScale.nested_probes``:
each probe from the second on contains the one before it) at the first
probe of index 1 or more that it passes or skips.  Every later probe of
the family contains that probe, and so contains the last one passed:
the prune would skip each of them with no pull-back.  So the stop
removes only probe building; the probes pulled back, their order, the
first failing probe and its certificate are those of the prune alone.
A global check walks the declared family and then each anchor's family
on its own, and the stop ends only the current family; the probe it
passed is kept, so the next family still skips by it.  The declared
family is never taken as nested.

The checkers pull each probe back as it is, with no cut to the codomain:
every probe an ``IntervalScale`` yields lies in its carrier (the probe
contract), the codomain scale's carrier is the map's codomain, and
``IntervalScaledMap`` rejects a declared probe set outside it.  The
public ``PiecewiseAffineMap.preimage`` and
``replay_interval_certificate`` keep their cut and subset check, since
they confirm a certificate independently of the checkers.

Mirroring the finite world, globally-checked sets with empty preimage
are vacuously satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .continuity import ContinuityMode
from .exactnum import ExactNumber, irrational_between
from .interval_scales import IntervalScale, TrivialIntervalScale
from .intervals import SheetPoint, SheetSet
from .pwmaps import PiecewiseAffineMap


@dataclass(frozen=True)
class IntervalScaledMap:
    """A piecewise-affine map with a scale on each side and a declared
    family of codomain sets for global checks."""

    pam: PiecewiseAffineMap
    domain_scale: IntervalScale
    codomain_scale: IntervalScale
    probe_family: tuple[SheetSet, ...] = ()

    def __post_init__(self) -> None:
        if self.domain_scale.carrier != self.pam.domain:
            raise ValueError("domain scale carrier differs from the map domain")
        if self.codomain_scale.carrier != self.pam.codomain:
            raise ValueError("codomain scale carrier differs from the map codomain")
        for v in self.probe_family:
            if not v.issubset(self.pam.codomain):
                raise ValueError(f"probe set {v} is not inside the codomain carrier")
            if not self.codomain_scale.is_q_open(v):
                raise ValueError(f"probe set {v} is not q-open in the codomain scale")


@dataclass(frozen=True)
class IntervalVerdict:
    holds: bool
    mode: ContinuityMode
    certificate: dict | None = None

    def __bool__(self) -> bool:
        return self.holds


def domain_critical_coords(m: IntervalScaledMap) -> list[ExactNumber]:
    out: set[ExactNumber] = set()
    for piece in m.pam.pieces:
        for end in (piece.part.lo, piece.part.hi):
            if end is not None:
                out.add(end)
    for ls in m.pam.domain.sheets:
        out.update(ls.finite_endpoints())
    return sorted(out)


def codomain_critical_coords(m: IntervalScaledMap) -> list[ExactNumber]:
    out: set[ExactNumber] = set()
    for piece in m.pam.pieces:
        img = piece.image_interval()
        for end in (img.lo, img.hi):
            if end is not None:
                out.add(end)
    for ls in m.pam.codomain.sheets:
        out.update(ls.finite_endpoints())
    return sorted(out)


def default_probe_points(m: IntervalScaledMap) -> list[SheetPoint]:
    """Deterministic domain probe points: carrier and piece endpoints that
    lie in the carrier, plus one rational and one irrational interior
    point per carrier piece."""
    criticals = domain_critical_coords(m)
    points: list[SheetPoint] = []
    seen: set[SheetPoint] = set()

    def add(sheet: int, x: ExactNumber) -> None:
        p = SheetPoint(sheet, x)
        if p not in seen and m.pam.domain.member(p):
            seen.add(p)
            points.append(p)

    for sheet, line in enumerate(m.pam.domain.sheets):
        for c in criticals:
            add(sheet, c)
        for piece in line.pieces:
            lo = piece.lo if piece.lo is not None else (
                piece.hi - 2 if piece.hi is not None else ExactNumber(-1)
            )
            hi = piece.hi if piece.hi is not None else lo + 2
            if lo < hi:
                mid = lo + (hi - lo) / 2
                add(sheet, mid)
                add(sheet, irrational_between(lo, hi))
            else:
                add(sheet, lo)
    return points


def _global_families(
    m: IntervalScaledMap,
) -> Iterator[tuple[bool, Iterable[SheetSet]]]:
    """The global probe families, each with whether it is nested: the
    declared probe family (never taken as nested), then one family of
    codomain probe sets around each image of the map's critical
    coordinates and each midpoint of a codomain piece."""
    yield False, m.probe_family
    criticals = codomain_critical_coords(m)
    nested = m.codomain_scale.nested_probes
    for sheet, line in enumerate(m.pam.codomain.sheets):
        anchor_xs: list[ExactNumber] = []
        for c in criticals:
            if line.member(c):
                anchor_xs.append(c)
        for piece in line.pieces:
            if piece.lo is not None and piece.hi is not None and piece.lo < piece.hi:
                anchor_xs.append(piece.lo + (piece.hi - piece.lo) / 2)
        for x in anchor_xs:
            yield nested, m.codomain_scale.iter_point_probes(
                SheetPoint(sheet, x), critical=criticals
            )


def _domain_scale(m: IntervalScaledMap, mode: ContinuityMode) -> IntervalScale:
    return TrivialIntervalScale(m.pam.domain) if mode.trivial_domain else m.domain_scale


def _holds_at(
    dom_scale: IntervalScale, mode: ContinuityMode, p: SheetPoint, pre: SheetSet
) -> bool:
    """Strong modes ask that the preimage be assigned to p, weak modes
    that it hold a neighborhood assigned to p."""
    if mode.strength == "strong":
        return dom_scale.member(p, pre)
    return dom_scale.witness_inside(p, pre) is not None


def _holds_open(
    dom_scale: IntervalScale, mode: ContinuityMode, pre: SheetSet
) -> bool:
    """Strong modes ask that the preimage be q-open, weak modes that it
    hold a q-open set."""
    if mode.strength == "strong":
        return dom_scale.is_q_open(pre)
    return _find_open_witness(dom_scale, pre) is not None


def iw_check_continuity(
    m: IntervalScaledMap, mode: ContinuityMode
) -> IntervalVerdict:
    dom_scale = _domain_scale(m, mode)
    if mode.locus == "at-point":
        if not isinstance(mode.at_point, SheetPoint):
            raise ValueError("interval-world at-point modes take a SheetPoint")
        certificate = _check_at_point(
            m, dom_scale, mode, mode.at_point, codomain_critical_coords(m)
        )
    elif mode.locus == "local":
        criticals = codomain_critical_coords(m)
        checks = (
            _check_at_point(m, dom_scale, mode, p, criticals)
            for p in default_probe_points(m)
        )
        certificate = next(filter(None, checks), None)
    else:
        certificate = _check_global(m, dom_scale, mode)
    return IntervalVerdict(certificate is None, mode, certificate)


def _check_at_point(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    p: SheetPoint,
    criticals: list[ExactNumber],
) -> dict | None:
    """The certificate of the first probe at p that fails, or None.
    Only ``mode.strength`` is read.  A weak check skips the probes that
    contain the last one it passed; that one's preimage holds p.  On a
    nested family it stops at the first probe of index 1 or more that it
    passes or skips."""
    weak = mode.strength == "weak"
    stop = weak and m.codomain_scale.nested_probes
    passed = None
    probes = m.codomain_scale.iter_point_probes(m.pam.eval(p), critical=criticals)
    for i, target in enumerate(probes):
        if passed is not None and passed.issubset(target):
            if stop:
                break
            continue
        pre = m.pam._preimage(target)
        if not _holds_at(dom_scale, mode, p, pre):
            return {"point": p, "target": target, "preimage": pre}
        if weak:
            if stop and i:
                break
            passed = target
    return None


def _check_global(
    m: IntervalScaledMap, dom_scale: IntervalScale, mode: ContinuityMode
) -> dict | None:
    """The certificate of the first global probe that fails, or None.
    A weak check on a trivial domain scale skips the probes that contain
    the last one it passed on a nonempty preimage, and ends a nested
    family at the first probe of index 1 or more that it passes or
    skips; the next family still skips by that passed probe."""
    prune = mode.strength == "weak" and isinstance(dom_scale, TrivialIntervalScale)
    passed = None
    for nested, family in _global_families(m):
        stop = prune and nested
        for i, target in enumerate(family):
            if passed is not None and passed.issubset(target):
                if stop and i:
                    break
                continue
            pre = m.pam._preimage(target)
            if pre.is_empty:
                continue
            if not _holds_open(dom_scale, mode, pre):
                return {"r_open": target, "preimage": pre}
            if prune:
                passed = target
                if stop and i:
                    break
    return None


def _find_open_witness(dom_scale: IntervalScale, pre: SheetSet) -> SheetSet | None:
    """Some q-open subset of ``pre``, or None: witnesses are sought at the
    midpoint of each piece of the preimage only.

    On a trivial scale the search is exact: a piece holds a relatively
    interior point exactly when its midpoint is one.  On other scales it
    can miss: a ``SymmetricIntervals`` witness is centred strictly inside
    the ambient bounds, which a midpoint outside them never is, so None
    there does not prove that ``pre`` holds no q-open set."""
    for sheet, line in enumerate(pre.sheets):
        for piece in line.pieces:
            if piece.lo is not None and piece.hi is not None:
                if piece.lo == piece.hi:
                    anchor = piece.lo
                else:
                    anchor = piece.lo + (piece.hi - piece.lo) / 2
            elif piece.lo is not None:
                anchor = piece.lo + 1
            elif piece.hi is not None:
                anchor = piece.hi - 1
            else:
                anchor = ExactNumber(0)
            w = dom_scale.witness_inside(SheetPoint(sheet, anchor), pre)
            if w is not None:
                return w
    return None


def replay_interval_certificate(
    m: IntervalScaledMap, mode: ContinuityMode, certificate: dict
) -> bool:
    """Reconfirm a failure certificate through the scale predicates."""
    dom_scale = _domain_scale(m, mode)
    if "r_open" in certificate:
        target = certificate["r_open"]
        if not m.codomain_scale.is_q_open(target):
            return False
        pre = m.pam.preimage(target.intersect(m.pam.codomain))
        return not pre.is_empty and not _holds_open(dom_scale, mode, pre)
    p = certificate["point"]
    target = certificate["target"]
    y = m.pam.eval(p)
    if not m.codomain_scale.member(y, target):
        return False
    pre = m.pam.preimage(target.intersect(m.pam.codomain))
    return not _holds_at(dom_scale, mode, p, pre)
