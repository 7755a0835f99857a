"""Separation of spherical convex bodies on S^n.

A body is the spherical hull of finitely many unit generators.  The
library decides whether two such hulls are disjoint (a homogeneous
feasibility program over the generating cones), produces a separating
pole whose orthogonal great hypersphere splits the bodies (a
margin-maximizing program), and can alternatively construct such a pole
step by step: project each body to a tangent space (central_project),
widen its tangent coordinates by a cross-polytope, map them back to the
sphere (central_unproject), separate the Euclidean hulls, and contract the
hyperplane offset to zero.
"""

from .convexity import SphericalBody, hemisphericity_witness
from .errors import (
    ContractionStalled,
    DimensionMismatch,
    EpsilonSearchFailed,
    GenerationFailed,
    IterationLimit,
    NotHemispherical,
    NumericallyAmbiguous,
    OutsideOpenHemisphere,
    SphSepError,
    ZeroVector,
)
from .geometry import (
    DEFAULT_CONFIG,
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
    "EpsilonSearchFailed",
    "GenerationFailed",
    "InstanceSpec",
    "IterationLimit",
    "MembershipResult",
    "Mode",
    "NotHemispherical",
    "NumericallyAmbiguous",
    "OutsideOpenHemisphere",
    "ProofTrace",
    "SeparationCertificate",
    "SphSepError",
    "SphericalBody",
    "ToleranceConfig",
    "ZeroVector",
    "central_project",
    "central_unproject",
    "dual_witness",
    "generate",
    "hemisphericity_witness",
    "normalize",
    "orthonormal_frame",
    "primal_intersect",
    "proof_path_witness",
    "run_equivalence_campaign",
    "wedge_membership",
    "wedge_openness_probe",
]
