"""Continuity checking for piecewise-affine maps between interval-world
scaled carriers.

Interval-world neighborhood families are infinite, so the checkers use
probe semantics: pointwise and local modes quantify over a deterministic
finite family of assigned neighborhoods generated around the map's
critical coordinates (breakpoints and carrier endpoints); global modes
quantify over the fixture's declared probe family plus generated
critical sets.  Each probe is decided exactly, so a failing verdict is
an unconditional counterexample certificate, while a passing verdict
means "holds on all probes".

Probes are taken one at a time, in order and without repeats, and a
check stops at the first probe that fails, so the probes after it are
never built.  Strong at-point and global checks, and every check whose
domain scale is a ``PStructure``, pull each probe back through the
whole map.  Weak at-point and weak local checks on the other kinds ask
only whether the preimage holds an assigned neighborhood of the point,
which its component around the point decides, so they pull back only
that component (see ``IntervalScale.local_witness``).  The whole
preimage is computed for a failing probe, because its certificate
carries it.

Mirroring the finite world, globally-checked sets with empty preimage
are vacuously satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterator

from .continuity import ContinuityMode
from .exactnum import ExactNumber, irrational_between
from .interval_scales import IntervalScale, TrivialIntervalScale
from .intervals import SheetPoint, SheetSet, _first_occurrences
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


def _global_probes(m: IntervalScaledMap) -> Iterator[SheetSet]:
    """The declared probe family, then codomain probe sets around the
    images of the map's critical coordinates, without repeats."""
    return _first_occurrences(chain(m.probe_family, _generated_global_probes(m)))


def _generated_global_probes(m: IntervalScaledMap) -> Iterator[SheetSet]:
    criticals = codomain_critical_coords(m)
    for sheet, line in enumerate(m.pam.codomain.sheets):
        anchor_xs: list[ExactNumber] = []
        for c in criticals:
            if line.member(c):
                anchor_xs.append(c)
        for piece in line.pieces:
            if piece.lo is not None and piece.hi is not None and piece.lo < piece.hi:
                anchor_xs.append(piece.lo + (piece.hi - piece.lo) / 2)
        for x in anchor_xs:
            yield from m.codomain_scale.iter_point_probes(
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


def _weak_holds_locally(
    pam: PiecewiseAffineMap, dom_scale: IntervalScale, p: SheetPoint, cut: SheetSet
) -> bool:
    """The weak at-point decision for the preimage of ``cut`` (a subset
    of the codomain), read off its component around p.  Equal to
    ``_holds_at`` on the whole preimage when ``dom_scale.local_witness``."""
    comp = pam._preimage_component(cut, p)
    return comp is not None and dom_scale.witness_inside(p, comp) is not None


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
        return _check_at_point(
            m, dom_scale, mode, mode.at_point, codomain_critical_coords(m)
        )
    if mode.locus == "local":
        criticals = codomain_critical_coords(m)
        for p in default_probe_points(m):
            sub = _check_at_point(
                m, dom_scale, replace(mode, locus="at-point", at_point=p), p, criticals
            )
            if not sub.holds:
                return IntervalVerdict(False, mode, sub.certificate)
        return IntervalVerdict(True, mode)
    return _check_global(m, dom_scale, mode)


def _check_at_point(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    p: SheetPoint,
    criticals: list[ExactNumber],
) -> IntervalVerdict:
    pam = m.pam
    local = mode.strength == "weak" and dom_scale.local_witness
    probes = m.codomain_scale.iter_point_probes(pam.eval(p), critical=criticals)
    for target in _first_occurrences(probes):
        cut = target.intersect(pam.codomain)
        if local:
            if _weak_holds_locally(pam, dom_scale, p, cut):
                continue
            pre = pam._preimage(cut)
        else:
            pre = pam._preimage(cut)
            if _holds_at(dom_scale, mode, p, pre):
                continue
        return IntervalVerdict(
            False, mode, {"point": p, "target": target, "preimage": pre}
        )
    return IntervalVerdict(True, mode)


def _check_global(
    m: IntervalScaledMap, dom_scale: IntervalScale, mode: ContinuityMode
) -> IntervalVerdict:
    for target in _global_probes(m):
        pre = m.pam._preimage(target.intersect(m.pam.codomain))
        if not pre.is_empty and not _holds_open(dom_scale, mode, pre):
            return IntervalVerdict(False, mode, {"r_open": target, "preimage": pre})
    return IntervalVerdict(True, mode)


def _find_open_witness(dom_scale: IntervalScale, pre: SheetSet) -> SheetSet | None:
    """Some q-open subset of ``pre``: witnesses are sought at the midpoint
    of each piece of the preimage."""
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
