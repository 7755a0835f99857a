"""Seeded random instances and the cross-oracle equivalence campaign.

Instances are pairs of spherical-cap bodies: generators drawn within a
spread angle of a random center, which makes hemisphericality (and its
witness) hold by construction.  The campaign runs the primal cone oracle
and the dual pole oracle on every instance and demands they agree; disjoint
instances additionally exercise the constructive proof path, the wedge
convexity grid, and the openness probe.  Everything is deterministic given
the master seed, so any recorded failure is replayable from the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .convexity import SphericalBody
from .errors import GenerationFailed, IterationLimit, NumericallyAmbiguous, SphSepError
from .geometry import DEFAULT_CONFIG, ToleranceConfig, normalize
from .separation import (
    dual_witness,
    primal_intersect,
    proof_path_witness,
    wedge_membership,
    wedge_openness_probe,
)

__all__ = [
    "CampaignReport",
    "InstanceSpec",
    "Mode",
    "generate",
    "run_equivalence_campaign",
]


class Mode(Enum):
    UNCONSTRAINED = "unconstrained"
    FORCE_DISJOINT = "force-disjoint"
    FORCE_INTERSECTING = "force-intersecting"


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one random instance; identical specs generate identical bodies."""

    dimension: int
    k1: int
    k2: int
    spread: float = 0.4
    seed: int = 0
    mode: Mode = Mode.UNCONSTRAINED

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise GenerationFailed("dimension must be >= 1")
        if self.k1 < 1 or self.k2 < 1:
            raise GenerationFailed("generator counts must be >= 1")
        if not (0.0 < self.spread < math.pi / 2):
            raise GenerationFailed("spread must lie in (0, pi/2)")


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            return v / nrm


def _random_tangent(rng: np.random.Generator, center: np.ndarray) -> np.ndarray:
    while True:
        v = rng.standard_normal(center.size)
        v -= (v @ center) * center
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            return v / nrm


def _cap_body(
    rng: np.random.Generator, center: np.ndarray, k: int, spread: float
) -> np.ndarray:
    """k generators within angle spread of center (cap containment gives the
    hemisphericality witness for free)."""
    gens = np.empty((k, center.size))
    for i in range(k):
        theta = rng.uniform(0.0, spread)
        t = _random_tangent(rng, center)
        gens[i] = math.cos(theta) * center + math.sin(theta) * t
    return gens


_MAX_DISJOINT_ATTEMPTS = 40


def _generate_with_centers(
    spec: InstanceSpec, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[SphericalBody, SphericalBody, np.ndarray, np.ndarray]:
    """Bodies plus their construction centers (valid hemisphericity witnesses:
    every generator has dot >= cos(spread) with its center)."""
    rng = np.random.default_rng(spec.seed)
    d = spec.dimension + 1
    c1 = _random_unit(rng, d)
    b1 = SphericalBody(_cap_body(rng, c1, spec.k1, spec.spread))

    if spec.mode is Mode.FORCE_INTERSECTING:
        # plant a generator of body 1 as the center (and a member) of body 2
        c2 = b1.generators[0].copy()
        gens2 = _cap_body(rng, c2, spec.k2, spec.spread)
        gens2[0] = c2
        b2 = SphericalBody(gens2)
        return b1, b2, c1, c2

    c2 = _random_unit(rng, d)
    b2 = SphericalBody(_cap_body(rng, c2, spec.k2, spec.spread))
    if spec.mode is Mode.UNCONSTRAINED:
        return b1, b2, c1, c2

    # Mode.FORCE_DISJOINT: pull center 2 to an increasing angle from center 1
    # and regenerate body 2 until the cone oracle confirms disjointness
    for attempt in range(_MAX_DISJOINT_ATTEMPTS):
        if primal_intersect(b1, b2, cfg, w1=c1, w2=c2) is None:
            return b1, b2, c1, c2
        phi = min(2.0 * spec.spread + 0.25 * (attempt + 1), math.pi - 0.05)
        c2 = math.cos(phi) * c1 + math.sin(phi) * _random_tangent(rng, c1)
        c2 = normalize(c2, cfg)
        b2 = SphericalBody(_cap_body(rng, c2, spec.k2, spec.spread))
    raise GenerationFailed(
        f"could not force disjoint bodies in {_MAX_DISJOINT_ATTEMPTS} attempts "
        f"(seed {spec.seed}, n={spec.dimension})"
    )


def generate(
    spec: InstanceSpec, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[SphericalBody, SphericalBody]:
    """Deterministic instance for the given spec; see _generate_with_centers."""
    b1, b2, _, _ = _generate_with_centers(spec, cfg)
    return b1, b2


_CHECK_NAMES = (
    "witness_soundness",
    "proof_path",
    "wedge_convexity_grid",
    "openness_probe",
)


@dataclass
class CampaignReport:
    """Aggregate of one equivalence campaign.

    instances = agreements + ambiguous + disagreements always holds;
    disagreements must be zero for the oracle equivalence to stand.  checks
    counts passes of the per-disjoint-instance deep checks; every failure
    carries the instance seed so it can be regenerated.  wall_time_s is
    filled by the caller and deliberately excluded from to_dict so the
    emitted report is byte-stable across reruns.
    """

    count: int
    dims: list[int]
    sizes: list[int]
    seed: int
    instances: int = 0
    agreements: int = 0
    ambiguous: int = 0
    disagreements: int = 0
    disjoint: int = 0
    intersecting: int = 0
    checks: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in _CHECK_NAMES}
    )
    failures: list[str] = field(default_factory=list)
    wall_time_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "config": {
                "count": self.count,
                "dims": list(self.dims),
                "sizes": list(self.sizes),
                "seed": self.seed,
            },
            "instances": self.instances,
            "agreements": self.agreements,
            "ambiguous": self.ambiguous,
            "disagreements": self.disagreements,
            "disjoint": self.disjoint,
            "intersecting": self.intersecting,
            "checks": dict(self.checks),
            "failures": list(self.failures),
        }


_MODE_CYCLE = (
    Mode.UNCONSTRAINED,
    Mode.FORCE_DISJOINT,
    Mode.UNCONSTRAINED,
    Mode.FORCE_INTERSECTING,
)

_GRID = [round(0.1 * i, 1) for i in range(11)]
_PROBE_SAMPLES = 50


def _deep_checks(
    report: CampaignReport,
    tag: str,
    b1: SphericalBody,
    b2: SphericalBody,
    c1: np.ndarray,
    c2: np.ndarray,
    dual_cert,
    probe_seed: int,
    cfg: ToleranceConfig,
) -> None:
    """Per-disjoint-instance checks: certificate soundness by direct dots,
    proof-path reconstruction, wedge convexity on a grid, openness probe."""
    w = dual_cert.witness
    margin = min(float(np.min(b1.generators @ w)), -float(np.max(b2.generators @ w)))
    if margin > 1e-9:
        report.checks["witness_soundness"] += 1
    else:
        report.failures.append(f"{tag}: dual witness margin {margin:.3e} not sound")
        return

    try:
        pp_cert, trace = proof_path_witness(b1, b2, cfg, w1=c1, w2=c2)
    except SphSepError as exc:
        report.failures.append(f"{tag}: proof path failed: {exc}")
        return
    offs = trace.offsets
    monotone = all(offs[i + 1] < offs[i] for i in range(len(offs) - 1))
    valid = wedge_membership(b1, b2, pp_cert.witness, cfg).member
    if monotone and offs[-1] < cfg.offset_tol and valid:
        report.checks["proof_path"] += 1
    else:
        report.failures.append(
            f"{tag}: proof path trace invalid (monotone={monotone}, "
            f"final={offs[-1]:.3e}, member={valid})"
        )
        return

    ok = True
    for t in _GRID:
        combo = normalize(t * w + (1.0 - t) * pp_cert.witness, cfg)
        if not wedge_membership(b1, b2, combo, cfg).member:
            report.failures.append(f"{tag}: wedge convexity broke at t={t}")
            ok = False
            break
    if ok:
        report.checks["wedge_convexity_grid"] += 1
    else:
        return

    probe = wedge_openness_probe(
        b1, b2, w, _PROBE_SAMPLES, cfg, rng=np.random.default_rng(probe_seed)
    )
    if probe > 0.0:
        report.checks["openness_probe"] += 1
    else:
        report.failures.append(f"{tag}: openness probe hit margin {probe:.3e}")


def run_equivalence_campaign(
    count: int,
    dims: list[int],
    sizes: list[int],
    seed: int,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> CampaignReport:
    """Primal/dual agreement over count seeded instances.

    Dimensions round-robin; modes cycle unconstrained, force-disjoint,
    unconstrained, force-intersecting; generator counts are drawn from
    sizes.  Ambiguous instances (separation margin inside the tolerance
    band) are counted and skipped rather than classified, and so are
    instances whose LPs overrun the pivot budget, each with a failure entry.
    Single-threaded
    and sequential, so the report is trivially deterministic.
    """
    report = CampaignReport(count=count, dims=list(dims), sizes=list(sizes), seed=seed)
    master = np.random.default_rng(seed)
    for i in range(count):
        n = dims[i % len(dims)]
        mode = _MODE_CYCLE[i % len(_MODE_CYCLE)]
        k1 = int(sizes[master.integers(len(sizes))])
        k2 = int(sizes[master.integers(len(sizes))])
        child_seed = int(master.integers(2**62))
        spec = InstanceSpec(
            dimension=n, k1=k1, k2=k2, seed=child_seed, mode=mode
        )
        tag = f"seed={child_seed} n={n} k=({k1},{k2}) mode={mode.value}"
        report.instances += 1
        try:
            b1, b2, c1, c2 = _generate_with_centers(spec, cfg)
            inter = primal_intersect(b1, b2, cfg, w1=c1, w2=c2)
            dual_cert = dual_witness(b1, b2, cfg, w1=c1, w2=c2)
        except GenerationFailed as exc:
            report.disagreements += 1
            report.failures.append(f"{tag}: generation failed: {exc}")
            continue
        except NumericallyAmbiguous:
            report.ambiguous += 1
            continue
        except IterationLimit as exc:
            report.ambiguous += 1
            report.failures.append(f"{tag}: pivot budget exceeded: {exc}")
            continue

        primal_disjoint = inter is None
        dual_disjoint = dual_cert.kind == "disjoint"
        if primal_disjoint != dual_disjoint:
            report.disagreements += 1
            report.failures.append(
                f"{tag}: primal says {'disjoint' if primal_disjoint else 'intersecting'}, "
                f"dual says {dual_cert.kind}"
            )
            continue
        report.agreements += 1
        if primal_disjoint:
            report.disjoint += 1
            _deep_checks(
                report, tag, b1, b2, c1, c2, dual_cert, child_seed ^ 0x5EED, cfg
            )
        else:
            report.intersecting += 1
    return report
