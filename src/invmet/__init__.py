"""Certified computations with invariant metrics on convex domains.

Closed-form metrics and distances on the model domains, certified two-sided
brackets on general bounded convex domains, rescaled-automorphism audits,
symmetric box bounds, distance-ball domination profiles, and squeeze
certificates for circularity lower bounds — plus the batch suites and CLI
that tie them together.
"""

from .config import VERSION as __version__
from .errors import (
    CertificateError,
    DegenerateInputError,
    DimensionMismatchError,
    EvaluationError,
    InvmetError,
    LemmaViolationError,
    NormalityError,
    NotInteriorError,
    ProximityError,
    ScheduleError,
    SingularMapError,
    SpecLoadError,
    UnboundedValueError,
    UnsupportedKindError,
)
from .core import AffineMap, CLinearMap, Interval, cvector
from .sampling import SampleStream
from .automorphisms import (
    BallMobius,
    ComponentwiseMap,
    ComposedMap,
    IdentityMap,
    Mobius1D,
    cayley,
)
from .domains import (
    AffineImage,
    AutomorphismFamily,
    BalancedConvex,
    ConvexPolyhedron,
    Domain,
    HalfPlaneProduct,
    ModulusFace,
    Polydisc,
    RealFace,
    UnitBall,
    convexity_witness,
    load_domain,
    model_automorphism,
)
from .metrics import (
    CONVENTIONS,
    DistanceBallSample,
    DistanceBound,
    IndicatrixSample,
    MetricBound,
    VolumeEstimate,
    distance_ball_sample,
    distance_scale,
    indicatrix,
    indicatrix_volume,
    kobayashi_distance,
    kobayashi_metric,
    write_indicatrix_csv,
)
from .scaling import (
    JacobianVolumeReport,
    ScalingMap,
    ScalingRecord,
    ScalingReport,
    StretchingFrame,
    default_schedule,
    equivalence_audit,
    frankel_tau,
    indicatrix_sigma,
    stretching_frame,
    volume_jacobian_check,
)
from .convexbox import (
    BoxBound,
    SymmetricBody,
    box_lemma_bound,
    brute_force_containment,
    min_boundary_distance,
    random_symmetric_polytope,
    slope_check,
)
from .domination import (
    DominationCell,
    DominationProfile,
    NormalFamilyReport,
    apollonius_disc,
    lambda_halfplane,
    normal_family_witness,
    verify_convex_domination,
    verify_halfplane_domination,
)
from .circularity import (
    CircularityBound,
    SqueezeCertificate,
    SweepReport,
    asymptotics_sweep,
    barth_check,
    circularity_lower_bound,
    polyhedral_pipeline,
    squeeze_lower_bound,
)
from .zoo import resolve_domain, zoo_domain, zoo_names
from .suites import SuiteResult, verify_all

__all__ = [name for name in dir() if not name.startswith("_")]
