"""Continuity checking for piecewise-affine maps between interval-world
scaled carriers.

Interval-world neighborhood families are infinite, so the checkers use
probe semantics: pointwise and local modes quantify over a deterministic
finite family of assigned neighborhoods generated around the map's
critical coordinates (breakpoints and carrier endpoints); global modes
quantify over the fixture's declared probe family plus generated
critical sets.  A passing verdict means "holds on all probes".  Every
pointwise and local decision is exact, and so is every global decision
on a domain scale that declares ``exact_open_witness`` (Trivial,
ConnectedOpen and the three end-class kinds), so its failing verdict is
an unconditional counterexample certificate.  A weak global failure on
any other domain scale rests on ``_find_open_witness``'s anchor search,
which can miss a q-open subset of the preimage: for the identity map on
[0, 10] with a ``SymmetricIntervals`` domain (ambient [0, 1]) and a
trivial codomain, the probe (1/5, 9) fails and its certificate replays,
yet (1/4, 7/20) lies in its preimage and is q-open.

Every check is one probe walk (``_first_failure``), unless the map's
one-sided limits prove that the walk passes (see "Sound passes" below).
An at-point check walks the probe family of its point, a local check
does the same at each default probe point in turn, and a global check
walks the declared family and then one family per anchor.  The walk
pulls each probe back and decides it, in order, and stops at the first
probe that fails.  A pruning walk (weak checks, and when global only on
a domain scale that declares ``exact_open_witness``) skips each probe
that contains the last one it passed, and ends a nested family at its
first pass or skip past index 0.  An empty preimage passes vacuously, as in the finite world.
The walk's docstring gives the argument for each rule: none can move the
first failing probe or its certificate.

An at-point check validates its point once, where it enters: the map's
``eval`` raises ``ValueError`` for a point outside the domain.  The
scale predicates the walk then calls (``member``, ``witness_inside``)
take that as their precondition and do not check the point again; every
anchor of ``_find_open_witness`` lies in a preimage, so in the domain.
The map's critical coordinates, default probe points and jump points
are derived once per map (``PiecewiseAffineMap``), not once per check.

Sound passes.  On a trivial domain (``mode.trivial_domain``, or a
``TrivialIntervalScale`` as the map's domain scale) the check first asks
the map's jump points (``PiecewiseAffineMap._jumps``: each domain
critical point where a one-sided limit differs from the value there, as
a codomain point, so a side on another sheet is a jump).  The premise,
stated and tested on ``IntervalScale``, is that every set a kind
assigns, so every probe and every declared probe, is relatively open in
its carrier, and a point's probe holds the point.  A trivial domain
asks of a preimage only that it be relatively open (strong) or hold a
relatively open neighborhood (weak), and a piecewise-affine map is
continuous at every domain point that is no jump point.

* R1, continuous map: there is no jump point.  Then every preimage of a
  relatively open set is relatively open, and the preimage of a point's
  probe holds the point.  So every probe passes in all six modes, for
  every codomain kind: at a point the preimage is a member and is its
  own witness, and globally it is empty (passing vacuously) or a
  nonempty relatively open set, which is q-open and which the exact
  anchor search of the trivial scale finds.
* R2, weak check at a point p that is no jump point: f is continuous at
  p, so the preimage of each probe of f(p) holds a relatively open
  neighborhood of p.  A weak local check skips each such default point.

A strong check on a map with a jump point always walks: strong
continuity at p asks about every point of a probe's preimage, not only
p.  Some of those walks pass where f is discontinuous, and such passes
still come from the walk: for f(x) = x on (-inf, 5) and x + 10 on
[5, inf), strong continuity at 0 passes every probe (each is an
interval around 0 that misses 15), although the member (-1, 1) u
(14, 16) of f(0) pulls back to a set that is not open.

A sound pass returns where the walk would have found no failing probe,
and a walk that finds none returns ``holds`` with no certificate; a
local check skips only points whose walk would pass, and walks share no
state across points.  So a sound pass cannot move a verdict, a
certificate or a byte of any report: it only leaves probes unbuilt.
Every failure and every pass the jump points cannot prove still comes
from the walk.

The checkers pull each probe back as it is, with no cut to the codomain:
every probe an ``IntervalScale`` yields lies in its carrier (the probe
contract), the codomain scale's carrier is the map's codomain, and
``IntervalScaledMap`` rejects a declared probe set outside it.  The
public ``PiecewiseAffineMap.preimage`` and
``replay_interval_certificate`` keep their cut and subset check, since
they confirm a certificate independently of the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .continuity import ContinuityMode, ContinuityVerdict
from .exactnum import ExactNumber
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


IntervalVerdict = ContinuityVerdict


def domain_critical_coords(m: IntervalScaledMap) -> list[ExactNumber]:
    """The sorted finite ends of the pieces and of the domain's pieces."""
    return list(m.pam._domain_criticals)


def codomain_critical_coords(m: IntervalScaledMap) -> list[ExactNumber]:
    """The sorted finite ends of the piece images and of the codomain's
    pieces."""
    return list(m.pam._codomain_criticals)


def default_probe_points(m: IntervalScaledMap) -> list[SheetPoint]:
    """Deterministic domain probe points: carrier and piece endpoints that
    lie in the carrier, plus one rational and one irrational interior
    point per carrier piece."""
    return list(m.pam._default_points)


def _global_families(
    m: IntervalScaledMap,
) -> Iterator[tuple[bool, Iterable[SheetSet]]]:
    """The global probe families, each with whether it is nested: the
    declared probe family (never taken as nested), then one family of
    codomain probe sets around each image of the map's critical
    coordinates and each midpoint of a codomain piece."""
    yield False, m.probe_family
    criticals = m.pam._codomain_criticals
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


def _sound_pass(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    p: SheetPoint | None = None,
) -> bool:
    """Whether the map's jump points prove that every probe of the walk
    passes: the global walk, or with ``p`` the walk of point p.  Only on
    a trivial domain scale, by rules R1 and R2 of the module docstring."""
    if not isinstance(dom_scale, TrivialIntervalScale):
        return False
    jumps = m.pam._jumps
    if not jumps:
        return True
    return p is not None and mode.strength == "weak" and p not in jumps


def _global_walk(
    m: IntervalScaledMap, dom_scale: IntervalScale, mode: ContinuityMode
) -> tuple[SheetSet, SheetSet] | None:
    """The walk of the global families; weak checks prune only on a domain
    scale that declares ``exact_open_witness``."""
    prune = mode.strength == "weak" and dom_scale.exact_open_witness
    return _first_failure(
        m, _global_families(m), lambda pre: _holds_open(dom_scale, mode, pre), prune
    )


def _point_walk(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    p: SheetPoint,
    y: SheetPoint,
) -> tuple[SheetSet, SheetSet] | None:
    """The walk of the probe family of y = f(p); weak checks prune."""
    family = m.codomain_scale.iter_point_probes(y, critical=m.pam._codomain_criticals)
    return _first_failure(
        m,
        ((m.codomain_scale.nested_probes, family),),
        lambda pre: _holds_at(dom_scale, mode, p, pre),
        mode.strength == "weak",
    )


def iw_check_continuity(
    m: IntervalScaledMap, mode: ContinuityMode
) -> IntervalVerdict:
    """One walk of the global families, or one walk of each point's family
    (the given point, or every default probe point for a local check),
    except where ``_sound_pass`` proves that the walk passes."""
    dom_scale = _domain_scale(m, mode)
    certificate = None
    if mode.locus == "global":
        if not _sound_pass(m, dom_scale, mode):
            failure = _global_walk(m, dom_scale, mode)
            if failure is not None:
                certificate = {"r_open": failure[0], "preimage": failure[1]}
        return IntervalVerdict(certificate is None, mode, certificate)
    if mode.locus == "at-point":
        if not isinstance(mode.at_point, SheetPoint):
            raise ValueError("interval-world at-point modes take a SheetPoint")
        points: Iterable[SheetPoint] = (mode.at_point,)
    else:
        points = m.pam._default_points
    for p in points:
        y = m.pam.eval(p)
        if _sound_pass(m, dom_scale, mode, p):
            continue
        failure = _point_walk(m, dom_scale, mode, p, y)
        if failure is not None:
            certificate = {"point": p, "target": failure[0], "preimage": failure[1]}
            break
    return IntervalVerdict(certificate is None, mode, certificate)


def _first_failure(
    m: IntervalScaledMap,
    families: Iterable[tuple[bool, Iterable[SheetSet]]],
    holds,
    prune: bool,
) -> tuple[SheetSet, SheetSet] | None:
    """The first ``(probe, preimage)`` whose preimage fails the decision
    ``holds``, or None.  ``families`` yields ``(nested, family)``
    pairs.  Probes are taken one at a time, in order, so those after the
    failing one are never built; each is pulled back through the whole
    map.  A repeated probe is decided as its first occurrence was, so
    repeats cannot move the result.

    * Empty preimage: the probe passes vacuously, as a set with empty
      preimage does for the finite checker.  It is tested only once the
      decision fails, and is never kept as passed: a weak decision that
      holds has found a witness inside the preimage, and strong checks
      do not prune.  At a point the rule never applies: every point
      probe is assigned to f(p), so its preimage holds p.
    * Prune: with ``prune``, skip every probe that contains the last one
      passed, with no pull-back and no decision.  Callers prune weak
      checks only.  Weak continuity is upward closed in the probe: V
      inside V' puts f^-1(V) inside f^-1(V'), and each kind's
      ``witness_inside`` decides exactly and finds a witness in every
      superset of a set that holds one.  So a skipped probe would pass.
      Global checks prune only on a domain scale that declares
      ``IntervalScale.exact_open_witness`` (Trivial, ConnectedOpen and
      the three end-class kinds), where ``_find_open_witness`` finds a
      q-open subset of every preimage that holds one; elsewhere a probe
      that contains a passed one can still fail its search, as
      (1/5, 9) does after (1/4, 1/2) in the module docstring's example.
    * Stop: a pruning walk ends a nested family
      (``IntervalScale.nested_probes``: a chain from its second probe
      on) at its first probe of index 1 or more that it passes or
      skips.  Every later probe of the family contains that probe, and
      so contains the last one passed, so the prune would skip each of
      them.  The stop removes only probe building, and the passed probe
      is kept, so the next family still skips by it.  The first probe
      need not lie in the chain, so a pass or skip there does not stop.
    """
    passed = None
    for nested, family in families:
        stop = prune and nested
        for i, target in enumerate(family):
            if passed is not None and passed.issubset(target):
                if stop and i:
                    break
                continue
            pre = m.pam._preimage(target)
            if not holds(pre):
                if pre.is_empty:
                    continue
                return target, pre
            if prune:
                passed = target
                if stop and i:
                    break
    return None


def _find_open_witness(dom_scale: IntervalScale, pre: SheetSet) -> SheetSet | None:
    """Some q-open subset of ``pre``, or None: witnesses are sought at one
    anchor of each piece of the preimage only (its midpoint, lo + 1,
    hi - 1 or 0).  Each anchor lies in ``pre``, which lies in the domain
    scale's carrier, so it meets the precondition of ``witness_inside``.

    On a kind that declares ``IntervalScale.exact_open_witness``
    (Trivial, ConnectedOpen, RationalEnds, IrrationalEnds and
    MixedRationalIrrational) the search is exact: ``pre`` holds a q-open
    set exactly when some piece of it has a relatively interior point,
    the piece's anchor is such a point whenever one exists, and the
    kind's ``witness_inside`` finds a witness at every such point.  On
    other kinds it can miss: a ``SymmetricIntervals`` witness is centred
    strictly inside the ambient bounds, which an anchor outside them
    never is, so None there does not prove that ``pre`` holds no q-open
    set."""
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
    """Reconfirm a failure certificate through the scale predicates.  A
    certificate's point is validated by the map's ``eval``, which raises
    ``ValueError`` for a point outside the domain."""
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
