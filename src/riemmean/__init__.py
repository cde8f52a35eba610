"""Riemannian centers of mass: Frechet/Karcher means, equivariant means on
finite quotients, and partial scaling-rotation means of SPD matrices."""

from .core import MetricConstants, rcx_from_constants, sym_eig
from .errors import (
    CutLocusError,
    DegenerateSpectrumError,
    InvalidInputError,
    LiftAmbiguousError,
    MaxIterExceededError,
    NoConvergenceError,
    RadiusTooLargeError,
    RiemmeanError,
    UnsupportedManifoldError,
)
from .manifolds import (
    DiagPos,
    Euclidean,
    Manifold,
    Point,
    Product,
    Sphere,
    SpecialOrthogonal,
    Tangent,
    parse_manifold,
)
from .frechet import (
    Configuration,
    MeanResult,
    afsari_certificate,
    afsari_certified,
    barycenter_check,
    forward_directional_derivative,
    frechet_mean,
    gradient_field,
    karcher_descent,
    objective,
)
from .numdiff import fd_gradient, fd_hessian_min_abs_eig
from .equivariant import (
    FiniteAction,
    QuotientPoint,
    antipodal_action,
    beta,
    d_evt,
    efm_solve,
    even_cover_lifts,
    quotient_dist,
    radius_relations,
)
from .spd import (
    EigenPair,
    SignedPermutation,
    act,
    d_psr,
    d_sr,
    eig_canonical,
    gm_action,
    group_enumerate,
    psr_constants,
    psr_mean,
    psr_objective,
    top_stratum_gap,
)
from .lab import ExperimentConfig, SummaryReport, TrialRecord, run_experiment

__version__ = "0.1.0"
