"""Exact-arithmetic tools for scaled (distructured) topological spaces.

A scale assigns each point of a space a family of admissible
neighborhoods, measuring how much discontinuity a map may get away
with.  The package provides:

* finite topological spaces with enumeration and the standard
  closure/interior/connectivity operators (``finite_topology``);
* exact interval sets and piecewise-affine maps over Q(sqrt(2)),
  including one-sided limits and jump gaps (``intervals``, ``pwmaps``,
  ``exactnum``);
* scales on both worlds, their structure taxonomy, orders, and algebra
  (``scales``, ``interval_scales``);
* the six continuity notions, strong and weak, pointwise to global
  (``continuity``, ``interval_continuity``), plus built-in
  counterexample fixtures (``fixtures``);
* a property verifier sweeping the checkable statements over finite
  instances with replayable certificates (``verifier``), a JSON layer
  (``jsonio``), and a CLI (``scaletop``).
"""

from .exactnum import ExactNumber, SQRT2, irrational_between, rational_between
from .intervals import (
    Carrier,
    Interval,
    LineSet,
    SheetPoint,
    SheetSet,
    complement_within,
    interior_in_carrier,
    is_connected_in_carrier,
    is_open_in_carrier,
)
from .pwmaps import (
    AffinePiece,
    FuzzyVerdict,
    PiecewiseAffineMap,
    compose,
    identity_map,
    is_a_fuzzy_continuous,
)
from .finite_topology import (
    FiniteSpace,
    ValidationResult,
    closure,
    connected_components,
    discrete_space,
    enumerate_topologies,
    enumerate_topologies_bruteforce,
    indiscrete_space,
    interior,
    is_T1,
    sierpinski,
    validate_topology,
)
from .scales import (
    Scale,
    ScaleIntersectionError,
    StructureFlags,
    classify,
    enumerate_scales,
    f_closure,
    finer,
    finer_at,
    i_closure,
    is_subscale,
    l_closure,
    p_structure,
    q_closed,
    q_open,
    scale_intersection,
    scale_union,
    trivial_scale,
    u_closure,
    validate_scale,
)
from .interval_scales import (
    BallScale,
    BallSupersetScale,
    BoundedBallSupersetScale,
    ConnectedOpenScale,
    EndClassScale,
    IntervalScale,
    PStructureIntervalScale,
    SymmetricIntervalScale,
    TrivialIntervalScale,
    TruncatedBallScale,
    full_line_carrier,
    iw_finer,
    iw_is_q_closed,
    iw_is_subscale,
    segment_carrier,
)
from .continuity import (
    ContinuityMode,
    ContinuityVerdict,
    ScaledMap,
    check_closed_characterization,
    check_continuity,
    compose_scaled,
    constancy_profile,
    parse_mode,
)
from .interval_continuity import (
    IntervalScaledMap,
    IntervalVerdict,
    default_probe_points,
    iw_check_continuity,
)
from .fixtures import FIXTURE_NAMES, FixtureReport, fixtures, load_fixture
from .verifier import (
    PROPERTY_IDS,
    SEARCH_IDS,
    SweepConfig,
    VerificationReport,
    run_property,
    search_counterexample,
)

__version__ = "0.1.0"
