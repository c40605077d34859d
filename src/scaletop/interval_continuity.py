"""Continuity checking for piecewise-affine maps between interval-world
scaled carriers.

Interval-world neighborhood families are infinite, so the checkers use
probe semantics: pointwise and local modes quantify over a deterministic
finite family of assigned neighborhoods generated around the map's
critical coordinates (breakpoints and carrier endpoints); global modes
quantify over the fixture's declared probe family plus generated
critical sets.  A passing verdict means "holds on all probes".  Every
decision but a weak global one off a trivial domain (see "Trivial
domains") is exact, so its failing verdict is an unconditional
counterexample certificate.  A weak global failure off a trivial domain
rests on ``_holds_open``'s anchor search, which can miss a q-open
subset of the preimage: for the identity map on [0, 10] with a
``SymmetricIntervals`` domain (ambient [0, 1]) and a trivial codomain,
the probe (1/5, 9) fails and its certificate replays, yet (1/4, 7/20)
lies in its preimage and is q-open.

Every check is one probe walk (``_walk``), unless its germ choice
proves that the walk passes (see "The germ choice" below).  An at-point
check walks the probe family of its point, a local check does the same
at each default probe point in turn, and a global check walks the
declared family and then one family per anchor.  The walk decides each
probe in order (``_decision``) and stops at the first probe that fails.
Most decisions pull the probe back and decide the whole preimage; a
walk with chosen germs decides from them, pulls back only the failing
probe, for its certificate, and builds only the probes of a ladder that
fail.  A pruning walk (weak checks, and when global only on a trivial
domain) skips each probe that contains the last one it passed, and ends
a ``Ladder`` at its first pass or skip past index 0.  An empty
preimage passes vacuously, as in the finite world.  The walk's docstring
gives the argument for each rule: none can move the first failing probe
or its certificate.

An at-point check validates its point once, where it enters: the map's
``eval`` raises ``ValueError`` for a point outside the domain.  The
scale predicates the walk then calls (``member``, ``has_witness``)
take that as their precondition and do not check the point again; every
anchor of the weak global decision (``_anchors``) lies in a preimage, so
in the domain.  A weak decision asks ``has_witness``, which answers
whether ``witness_inside`` would find a witness, so the search builds
none.  The map's critical coordinates, default probe points, global
anchors and jump germs are derived once per map
(``PiecewiseAffineMap``), not once per check.

Trivial domains.  A domain is trivial when ``mode.trivial_domain`` is
set or ``_domain_scale`` is a ``TrivialIntervalScale``: the map's domain
scale, or for a weak check its ``weak_scale()``, which is the trivial
scale on ConnectedOpen and end-class domains, whose ``has_witness`` (all
a weak decision asks) is the trivial scale's.  There a preimage need
only be relatively open (strong) or hold a relatively open neighborhood
(weak), and the checks read the map's jump germs
(``PiecewiseAffineMap._germs``): at each jump point z, a domain critical
point where a one-sided limit differs from f(z) as a codomain point (so
a side on another sheet is a jump), f(z) and each side that jumps, with
its codomain sheet, its limit and how its values tend to the limit.  A
piecewise-affine map is continuous at every domain point that is no jump
point.  Everything below rests on the openness contract of
``IntervalScale``: every set a kind assigns, so every probe and every
declared probe, is relatively open in its carrier, and a point's probe
holds the point.

The germ choice.  ``_chosen_germs`` picks, once per walk, the germs
that decide its probes.  None pulls each probe back and decides its
whole preimage: every check on a domain that is not trivial, and a weak
global check that R3 leaves open.  A strong check takes every germ, and
a weak check at a jump point p the germ of p.  ``()`` decides from no
germ, so no probe fails and the check holds with no walk (R1-R3), which
only leaves probes unbuilt: no verdict, certificate or report byte moves.

* Deciding from germs.  For a relatively open V, f^-1(V) is relatively
  open exactly when, at each jump point z with f(z) in V, every side of
  z with carrier points maps into V near z.  A side with limit L on
  sheet s does so exactly when L is in V, or the side is not constant
  and a piece of V on sheet s starts at L (values from above) or ends
  at L (from below), since near z its values fill an open interval that
  ends at L.  So a strong decision tests every jump point, and a weak
  one at a jump point p (p relatively interior) tests p alone
  (``_germs_admit``).  Each equals the decision on the whole preimage,
  except that a probe with an empty preimage passes, as the walk's
  empty-preimage rule passes it anyway.  Only a failing probe is pulled
  back, for its certificate.  For f(x) = x on (-inf, 5) and x + 10 on
  [5, inf), strong continuity at 0 passes every probe (each is an
  interval around 0 that misses 15), although the member (-1, 1) u
  (14, 16) of f(0) pulls back to a set that is not open: such passes
  still come from the walk, probe by probe.
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
* R3, weak global check where every jump value f(z) lies in the closure
  of the image of some piece whose part is not a single point
  (``PiecewiseAffineMap._jump_values_reached``), for every codomain
  kind.  Take a probe V with a nonempty preimage and a point x in it.
  If x is no jump point, f is continuous at x and x is relatively
  interior to the preimage.  If x is a jump point z, V is relatively
  open and holds f(z), so it meets the image of that piece's interior,
  which is open or, for a constant piece, f(z) itself; the piece is
  affine on an open interval around such a point, which is then
  interior to the preimage.  Either way the preimage holds a relatively
  interior point, and the trivial scale's anchor search is exact.
* Ladders read as radii.  A walk with germs reads a family that is a
  ``Ladder`` (every codomain kind but the end-class kinds and
  ``PStructure``) as its head, the cut V_r of the open ball
  (y - r, y + r) to H, the ladder's home set on y's sheet (the carrier
  piece holding y, or on the trace kinds the carrier's sheet), at each
  radius r, and its tail.  A side with limit L on y's sheet enters some
  V_r exactly when it enters H (``_side_enters``): L lies in H, or L is
  an open end of a piece of H that holds the side's values near L, as at
  a puncture of a trace kind's carrier.  Such a side enters V_r for r in
  the ray from |L - y|, closed exactly when its values approach L from
  y's side (``_side_threshold``); any other side, and a side on another
  sheet, enters no V_r.  So a germ whose value lies in H on y's sheet
  fails V_r exactly for r in its window: past g = |f(z) - y| and outside
  the ray from T, its latest side threshold, where the rays of its sides
  meet, so (g, T) or (g, T], or (g, +inf) when some side enters no V_r
  (``_ladder_windows``); any other germ is in no V_r.  Radii, rays and
  windows are ``Interval``s, so the interval layer's end order settles
  every tie at an equal radius.  The walk builds only the probes at
  radii where some germ fails (``_ladder_probes``), between the head
  and the tail.  A strong walk moves past a pass with nothing kept, and
  a probe the germs fail has a nonempty preimage.  A weak walk with
  germs is at a point p and decides from the germ of p, whose value is
  y itself, so its window starts at 0: the failing radii come first,
  and the walk returns at the first of them, which is the first failing
  radius of the whole family too, as a weak decision is upward closed
  in the probe and so no passed probe lies inside it.  With no failing
  radius it reads the passing ones and takes the tail, the whole
  carrier, which passes like every probe before it, as the whole
  family's walk does.  Either way the first failing probe is the same.

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
from typing import Callable, Iterable, Iterator

from .continuity import ContinuityMode, ContinuityVerdict
from .exactnum import ExactNumber
from .interval_scales import IntervalScale, Ladder, TrivialIntervalScale
from .intervals import Interval, LineSet, SheetPoint, SheetSet, _intersect_intervals, _ordered
from .pwmaps import Germ, PiecewiseAffineMap

_ZERO = ExactNumber(0)
_EVERY_RADIUS = Interval(_ZERO, None, True, False)

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
    m: IntervalScaledMap, chosen: tuple[Germ, ...] | None = None
) -> Iterator[tuple[bool, Iterable[SheetSet]]]:
    """The global probe families, each with whether it is a ``Ladder``:
    the declared probe family (never taken as one), then the family
    around each of the map's global anchors
    (``PiecewiseAffineMap._global_anchors``: each codomain critical
    coordinate on each sheet and each midpoint of a codomain piece), as
    ``_family`` takes it."""
    yield False, m.probe_family
    for y in m.pam._global_anchors:
        yield _family(m, y, chosen)


def _family(
    m: IntervalScaledMap, y: SheetPoint, chosen: tuple[Germ, ...] | None
) -> tuple[bool, Iterable[SheetSet]]:
    """The codomain scale's probe family of y, with whether it is a
    ``Ladder``; a ladder is read as radii where germs are chosen
    (``_ladder_probes``)."""
    scale = m.codomain_scale
    critical = m.pam._codomain_criticals
    ladder = scale.ladder(y, critical)
    if ladder is None:
        return False, scale.iter_point_probes(y, critical=critical)
    return True, ladder.probes() if chosen is None else _ladder_probes(ladder, chosen)


def _domain_scale(m: IntervalScaledMap, mode: ContinuityMode) -> IntervalScale:
    """The scale the checkers decide on: the trivial one for a trivial
    domain, else the map's own, or for a weak check its ``weak_scale()``
    (see "Trivial domains")."""
    if mode.trivial_domain:
        return TrivialIntervalScale(m.pam.domain)
    return m.domain_scale.weak_scale() if mode.strength == "weak" else m.domain_scale


def _holds_at(
    dom_scale: IntervalScale, mode: ContinuityMode, p: SheetPoint, pre: SheetSet
) -> bool:
    """Strong modes ask that the preimage be assigned to p, weak modes
    that it hold a neighborhood assigned to p."""
    if mode.strength == "strong":
        return dom_scale.member(p, pre)
    return dom_scale.has_witness(p, pre)


def _holds_open(
    dom_scale: IntervalScale, mode: ContinuityMode, pre: SheetSet
) -> bool:
    """Strong modes ask that the preimage be q-open, weak modes that it
    hold a q-open set, sought by ``has_witness`` at the anchors of the
    preimage only (``_anchors``, one per piece).  Each anchor lies in
    ``pre``, which lies in the domain scale's carrier, so it meets the
    precondition of ``has_witness``.

    On the trivial scale, which weak checks on ConnectedOpen and
    end-class domains use too, the search is exact: ``pre`` holds a
    q-open set exactly when some point of it is relatively interior, and
    then its piece holding that point has one at its anchor: the anchor
    of a piece with two distinct ends or an unbounded one lies strictly
    inside it, and a one-point piece is its own anchor.  On other kinds
    it can miss: a ``SymmetricIntervals`` witness is centred strictly
    inside the ambient bounds, which an anchor outside them never is, so
    False there does not prove that ``pre`` holds no q-open set."""
    if mode.strength == "strong":
        return dom_scale.is_q_open(pre)
    return any(dom_scale.has_witness(anchor, pre) for anchor in _anchors(pre))


def _chosen_germs(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    p: SheetPoint | None = None,
) -> tuple[Germ, ...] | None:
    """The germs that decide each probe of the walk, the global walk or
    with ``p`` the walk of point p (see "The germ choice"): None to pull
    each probe back, ``()`` where no probe can fail (R1, R2, R3), else
    every germ for a strong check and the germ of p for a weak check at
    a jump point p."""
    if not isinstance(dom_scale, TrivialIntervalScale):
        return None
    germs = m.pam._germs
    if mode.strength == "strong":
        return tuple(germs.values())
    if p is not None:
        return (germs[p],) if p in germs else ()
    return () if not germs or m.pam._jump_values_reached else None


def _side_enters(line: LineSet, limit: ExactNumber, approach: int) -> bool:
    """Whether a side whose values tend to ``limit`` (from above when
    ``approach`` is 1, from below when -1, constant when 0) lies in the
    relatively open set ``line`` near its point: the limit is in the
    set, or the values fill an open interval that ends at the limit, so
    a piece of the set starts (above) or ends (below) there."""
    for piece in line.pieces:
        if piece.contains(limit):
            return True
        if (approach > 0 and piece.lo == limit) or (approach < 0 and piece.hi == limit):
            return True
    return False


def _germs_admit(germs: Iterable[Germ], target: SheetSet) -> bool:
    """Whether each germ whose value lies in ``target`` has every side
    that jumps enter ``target``: that is, whether the preimage of the
    relatively open ``target`` holds a relative neighborhood of each of
    those jump points (see "The germ choice")."""
    sheets = target.sheets
    for value, sides in germs:
        if sheets[value.sheet].member(value.x):
            for sheet, limit, approach in sides:
                if not _side_enters(sheets[sheet], limit, approach):
                    return False
    return True


def _side_threshold(
    ladder: Ladder, sheet: int, limit: ExactNumber, approach: int
) -> Interval | None:
    """The radii r at which a side with ``limit`` on codomain ``sheet``
    enters the ladder's probe V_r (``_side_enters``): [d, +inf) or
    (d, +inf), or None when it enters no V_r.  A side enters some V_r
    exactly when it is on the centre y's sheet and enters the home set H:
    its limit lies in H, or at an open end of a piece of H that holds its
    values (``lo`` for values from above, ``hi`` from below).  d is the
    limit's distance from y, and the side enters at r = d exactly when
    its values approach the limit from y's side, where V_r ends at the
    limit."""
    y = ladder.center
    if sheet != y.sheet or not _side_enters(ladder.home, limit, approach):
        return None
    below = limit < y.x
    inward = approach > 0 if below else approach < 0
    return _ordered(y.x - limit if below else limit - y.x, None, inward, False)


def _ladder_windows(ladder: Ladder, germs: Iterable[Germ]) -> list[Interval]:
    """The radii at which each germ fails the ladder's probe V_r: (g, T),
    (g, T] or (g, +inf).  g is the distance of its value from the centre,
    kept only for a value in the home set on the centre's sheet (else no
    V_r holds it).  The germ's sides all enter V_r on the ray where their
    rays meet (``_side_threshold``), from [0, +inf) on, which starts at T,
    its latest side threshold; the window is the rest of (g, +inf), all of
    it when some side enters no V_r.  An empty window is left out: with
    its lower end open, it is empty exactly when g >= T, whichever end the
    ray has at T."""
    y = ladder.center
    windows = []
    for value, sides in germs:
        if value.sheet != y.sheet or not ladder.home.member(value.x):
            continue
        g = abs(value.x - y.x)
        enters = _EVERY_RADIUS
        for sheet, limit, approach in sides:
            ray = _side_threshold(ladder, sheet, limit, approach)
            if ray is None:
                windows.append(_ordered(g, None, False, False))
                break
            enters = _intersect_intervals(enters, ray)
        else:
            if g < enters.lo:
                windows.append(_ordered(g, enters.lo, False, not enters.lo_closed))
    return windows


def _fails_at(windows: list[Interval], r: ExactNumber) -> bool:
    """Whether some germ fails the probe at radius r (``_ladder_windows``)."""
    for window in windows:
        if window.contains(r):
            return True
    return False


def _ladder_probes(ladder: Ladder, germs: tuple[Germ, ...]) -> Iterator[SheetSet]:
    """The ladder's family as a walk that decides from ``germs`` takes it:
    the head, the probes at the radii where some germ fails, in order,
    and the tail.  A ladder with no window reads none of its radii."""
    yield from ladder.head
    windows = _ladder_windows(ladder, germs)
    for r in ladder.radii if windows else ():
        if _fails_at(windows, r):
            yield ladder.probe(r)
    yield from ladder.tail


def _decision(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    chosen: tuple[Germ, ...] | None,
    p: SheetPoint | None = None,
) -> Callable[[SheetSet], SheetSet | None]:
    """The walk's decision on one probe: the probe's preimage if the probe
    fails, else None; globally, or with ``p`` at point p.  With
    ``chosen`` germs it decides from them and pulls back only a failing
    probe; with None it pulls the probe back and decides its whole
    preimage."""
    pam = m.pam
    if chosen is not None:

        def from_germs(target: SheetSet) -> SheetSet | None:
            return None if _germs_admit(chosen, target) else pam._preimage(target)

        return from_germs

    def pulled_back(target: SheetSet) -> SheetSet | None:
        pre = pam._preimage(target)
        if p is None:
            holds = _holds_open(dom_scale, mode, pre)
        else:
            holds = _holds_at(dom_scale, mode, p, pre)
        return None if holds else pre

    return pulled_back


def _walk(
    m: IntervalScaledMap,
    dom_scale: IntervalScale,
    mode: ContinuityMode,
    chosen: tuple[Germ, ...] | None,
    p: SheetPoint | None = None,
    y: SheetPoint | None = None,
) -> tuple[SheetSet, SheetSet] | None:
    """The walk of the global families, or with ``p`` of the probe family
    of y = f(p), deciding with the ``chosen`` germs (``_chosen_germs``).
    Weak checks prune, and globally only on a trivial domain, where
    ``_holds_open`` is exact.  With no germs every probe passes, so the
    walk returns at once."""
    if chosen == ():
        return None
    prune = mode.strength == "weak" and (
        p is not None or isinstance(dom_scale, TrivialIntervalScale)
    )
    if p is None:
        families = _global_families(m, chosen)
    else:
        families = (_family(m, y, chosen),)
    return _first_failure(families, _decision(m, dom_scale, mode, chosen, p), prune)


def iw_check_continuity(
    m: IntervalScaledMap, mode: ContinuityMode
) -> IntervalVerdict:
    """One walk of the global families, or one walk of each point's family
    (the given point, or every default probe point for a local check),
    with the germs ``_chosen_germs`` picks for it."""
    dom_scale = _domain_scale(m, mode)
    certificate = None
    if mode.locus == "global":
        failure = _walk(m, dom_scale, mode, _chosen_germs(m, dom_scale, mode))
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
        failure = _walk(m, dom_scale, mode, _chosen_germs(m, dom_scale, mode, p), p, y)
        if failure is not None:
            certificate = {"point": p, "target": failure[0], "preimage": failure[1]}
            break
    return IntervalVerdict(certificate is None, mode, certificate)


def _first_failure(
    families: Iterable[tuple[bool, Iterable[SheetSet]]],
    fails: Callable[[SheetSet], SheetSet | None],
    prune: bool,
) -> tuple[SheetSet, SheetSet] | None:
    """The first ``(probe, preimage)`` that the decision ``fails`` (see
    ``_decision``) refutes, or None.  ``families`` yields ``(ladder,
    family)`` pairs, ``ladder`` saying whether the family is a
    ``Ladder``.  Probes are taken one at a time, in order, so those after
    the failing one are never built; each is decided once, and a failing
    one carries its whole preimage.  A repeated probe is decided
    as its first occurrence was, so repeats cannot move the result.

    * Empty preimage: the probe passes vacuously, as a set with empty
      preimage does for the finite checker.  It is tested only once the
      decision fails, and is never kept as passed: a weak decision that
      holds has found a witness inside the preimage, and strong checks
      do not prune.  At a point the rule never applies: every point
      probe is assigned to f(p), so its preimage holds p.
    * Prune: with ``prune``, skip every probe that contains the last one
      passed, with no decision.  Callers prune weak checks only.  Weak
      continuity is upward closed in the probe: V inside V' puts
      f^-1(V) inside f^-1(V'), and each kind's ``witness_inside``
      decides exactly and finds a witness in every superset of a set
      that holds one.  So a skipped probe would pass.  Global checks
      prune only on a trivial domain (which weak checks on ConnectedOpen
      and end-class domains decide on), where ``_holds_open`` finds a
      q-open subset of every preimage that holds one; elsewhere a probe
      that contains a passed one can still fail its search, as (1/5, 9)
      does after (1/4, 1/2) in the module docstring's example.
    * Stop: a pruning walk ends a ``Ladder`` (a chain from its second
      probe on: at most one head probe, rising radii, and a tail that is
      empty or the whole carrier) at its first probe of index 1 or more
      that it passes or skips.  Every later probe of the family contains
      that probe, and so contains the last one passed, so the prune
      would skip each of them.  The stop removes only probe building,
      and the passed probe is kept, so the next family still skips by
      it.  The first probe need not lie in the chain, so a pass or skip
      there does not stop.

    A decision from the jump germs passes exactly the probes that the
    whole preimage passes, except that it also passes a probe whose
    preimage is empty, which the empty-preimage rule passes anyway; and
    it is made only on strong checks, which do not prune, and at a
    point, where no preimage is empty.  So each rule acts as on the
    whole preimages, and the first failing probe is the same.  A ladder
    read as radii leaves out only probes that pass and that the walk
    would move past or end at (see "Ladders read as radii").
    """
    passed = None
    for ladder, family in families:
        stop = prune and ladder
        for i, target in enumerate(family):
            if passed is not None and passed.issubset(target):
                if stop and i:
                    break
                continue
            pre = fails(target)
            if pre is not None:
                if pre.is_empty:
                    continue
                return target, pre
            if prune:
                passed = target
                if stop and i:
                    break
    return None


def _anchors(pre: SheetSet) -> Iterator[SheetPoint]:
    """One anchor per piece of ``pre``, in order: its midpoint, lo + 1,
    hi - 1 or 0."""
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
                anchor = _ZERO
            yield SheetPoint(sheet, anchor)


def replay_interval_certificate(
    m: IntervalScaledMap, mode: ContinuityMode, certificate: dict
) -> bool:
    """Reconfirm a failure certificate through the scale predicates of the
    kind's own domain scale, not its ``weak_scale()``.  A certificate's
    point is validated by the map's ``eval``, which raises ``ValueError``
    for a point outside the domain."""
    dom_scale = TrivialIntervalScale(m.pam.domain) if mode.trivial_domain else m.domain_scale
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
