"""Separation of spherical convex bodies on S^n.

A body is the spherical hull of finitely many unit generators.  The
library decides whether two such hulls are disjoint (a homogeneous
feasibility program over the generating cones), produces a separating
pole whose orthogonal great hypersphere splits the bodies (a
margin-maximizing program), and can alternatively construct such a pole
step by step: project to a tangent space, fatten, separate the Euclidean
hulls, and contract the hyperplane offset to zero.
"""

from .convexity import (
    SphericalBody,
    TangentPolytope,
    fatten,
    hemisphericity_witness,
    project_body,
    pullback,
)
from .errors import (
    ContractionStalled,
    DimensionMismatch,
    EpsilonSearchFailed,
    GenerationFailed,
    IterationLimit,
    NegativeEpsilon,
    NotHemispherical,
    NumericallyAmbiguous,
    OutsideOpenHemisphere,
    SphSepError,
    ZeroVector,
)
from .geometry import (
    DEFAULT_CONFIG,
    TangentFrame,
    ToleranceConfig,
    central_project,
    central_unproject,
    normalize,
    orthonormal_frame,
)
from .harness import (
    CampaignReport,
    InstanceSpec,
    Mode,
    generate,
    run_equivalence_campaign,
)
from .lp import EQ, GE, LE, LinearProgram, LpOutcome, LpStatus, solve
from .separation import (
    MembershipResult,
    ProofTrace,
    SeparationCertificate,
    dual_witness,
    primal_intersect,
    proof_path_witness,
    wedge_membership,
    wedge_openness_probe,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignReport",
    "ContractionStalled",
    "DEFAULT_CONFIG",
    "DimensionMismatch",
    "EQ",
    "EpsilonSearchFailed",
    "GE",
    "GenerationFailed",
    "InstanceSpec",
    "IterationLimit",
    "LE",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "MembershipResult",
    "Mode",
    "NegativeEpsilon",
    "NotHemispherical",
    "NumericallyAmbiguous",
    "OutsideOpenHemisphere",
    "ProofTrace",
    "SeparationCertificate",
    "SphSepError",
    "SphericalBody",
    "TangentFrame",
    "TangentPolytope",
    "ToleranceConfig",
    "ZeroVector",
    "central_project",
    "central_unproject",
    "dual_witness",
    "fatten",
    "generate",
    "hemisphericity_witness",
    "normalize",
    "orthonormal_frame",
    "primal_intersect",
    "project_body",
    "proof_path_witness",
    "pullback",
    "run_equivalence_campaign",
    "wedge_membership",
    "wedge_openness_probe",
]
