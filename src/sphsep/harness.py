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
import operator
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .convexity import SphericalBody
from .errors import (
    GenerationFailed,
    IterationLimit,
    NotHemispherical,
    NumericallyAmbiguous,
    SphSepError,
)
from .geometry import DEFAULT_CONFIG, ToleranceConfig, _norm, _unit_rows, normalize
from .separation import (
    _wedge_margins,
    dual_witness,
    primal_intersect,
    proof_path_witness,
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
    seed: int = 0
    mode: Mode = Mode.UNCONSTRAINED

    def __post_init__(self) -> None:
        try:
            for value in (self.dimension, self.k1, self.k2, self.seed):
                operator.index(value)
        except TypeError as exc:
            raise GenerationFailed(f"dimension, k1, k2 and seed must be integers ({exc})") from None
        if self.dimension < 1:
            raise GenerationFailed("dimension must be >= 1")
        if self.k1 < 1 or self.k2 < 1:
            raise GenerationFailed("generator counts must be >= 1")
        if self.seed < 0:
            raise GenerationFailed("seed must be >= 0")


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        nrm = _norm(v)
        if nrm > 1e-6:
            return v / nrm


def _random_tangent(rng: np.random.Generator, center: np.ndarray) -> np.ndarray:
    while True:
        v = rng.standard_normal(center.size)
        v -= (v @ center) * center
        nrm = _norm(v)
        if nrm > 1e-6:
            return v / nrm


def _cap_body(
    rng: np.random.Generator, center: np.ndarray, k: int, spread: float
) -> np.ndarray:
    """k generators within angle spread of center (cap containment makes the
    body hemispherical), each cos(theta) center + sin(theta) t in place."""
    gens = np.empty((k, center.size))
    for row in gens:
        theta = rng.uniform(0.0, spread)
        t = _random_tangent(rng, center)
        np.multiply(center, math.cos(theta), out=row)
        t *= math.sin(theta)
        row += t
    return gens


# angle of every generator from its cap's centre, in (0, pi/2)
_SPREAD = 0.4
_MAX_DISJOINT_ATTEMPTS = 40


def generate(
    spec: InstanceSpec, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[SphericalBody, SphericalBody]:
    """Deterministic instance for the given spec: two caps of generators
    within _SPREAD of random centers, arranged by spec.mode."""
    rng = np.random.default_rng(spec.seed)
    d = spec.dimension + 1
    c1 = _random_unit(rng, d)
    b1 = SphericalBody(_cap_body(rng, c1, spec.k1, _SPREAD))

    if spec.mode is Mode.FORCE_INTERSECTING:
        # plant a generator of body 1 as the center (and a member) of body 2
        c2 = b1.generators[0].copy()
        gens2 = _cap_body(rng, c2, spec.k2, _SPREAD)
        gens2[0] = c2
        return b1, SphericalBody(gens2)

    c2 = _random_unit(rng, d)
    b2 = SphericalBody(_cap_body(rng, c2, spec.k2, _SPREAD))
    if spec.mode is Mode.UNCONSTRAINED:
        return b1, b2

    # Mode.FORCE_DISJOINT: pull center 2 to an increasing angle from center 1
    # and regenerate body 2 until the cone oracle confirms disjointness
    for attempt in range(_MAX_DISJOINT_ATTEMPTS):
        if primal_intersect(b1, b2, cfg) is None:
            return b1, b2
        phi = min(2.0 * _SPREAD + 0.25 * (attempt + 1), math.pi - 0.05)
        c2 = math.cos(phi) * c1 + math.sin(phi) * _random_tangent(rng, c1)
        c2 = normalize(c2)
        b2 = SphericalBody(_cap_body(rng, c2, spec.k2, _SPREAD))
    raise GenerationFailed(
        f"could not force disjoint bodies in {_MAX_DISJOINT_ATTEMPTS} attempts "
        f"(seed {spec.seed}, n={spec.dimension})"
    )


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
    counts disjoint instances (_deep_checks): witness_soundness those with
    a dual certificate, proof_path those whose proof path returned, each
    judged by the route that made it, and the other two those passing the
    wedge grid and the openness probe.  Every failure carries the instance
    seed so it can be regenerated.  The report holds no timing, so the
    emitted document is byte-stable across reruns.
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

    def to_dict(self) -> dict:
        """The fields in order, with count, dims, sizes and seed nested under
        "config"; the lists and the dict are copies."""
        doc = asdict(self)
        config = {key: doc.pop(key) for key in ("count", "dims", "sizes", "seed")}
        return {"config": config, **doc}


_MODE_CYCLE = (
    Mode.UNCONSTRAINED,
    Mode.FORCE_DISJOINT,
    Mode.UNCONSTRAINED,
    Mode.FORCE_INTERSECTING,
)

_GRID = np.arange(11) / 10.0
_PROBE_SAMPLES = 50


def _grid_break(b1, b2, w, w_pp, cfg) -> float | None:
    """The first t of _GRID whose pole normalize(t w + (1 - t) w_pp) is no
    wedge member, or None: all poles at once, by one row normalization and
    one product per body (ZeroVector if a combination vanishes)."""
    t = _GRID[:, None]
    poles = _unit_rows(t * w + (1.0 - t) * w_pp)
    broke = (~(_wedge_margins(poles, b1, b2) > cfg.margin_tol)).nonzero()[0]
    return float(_GRID[broke[0]]) if broke.size else None


def _deep_checks(
    report: CampaignReport,
    tag: str,
    b1: SphericalBody,
    b2: SphericalBody,
    dual_cert,
    probe_seed: int,
    cfg: ToleranceConfig,
) -> None:
    """Per-disjoint-instance checks.  witness_soundness counts the dual
    certificate (a wedge member by dual_witness's direct dots), proof_path
    a proof_path_witness that returned (a wedge member, offsets strictly
    decreasing below offset_tol, or it raises): each route owns its
    verdict.  Then wedge convexity on a grid, and the openness probe."""
    w = dual_cert.witness
    report.checks["witness_soundness"] += 1

    try:
        pp_cert, _ = proof_path_witness(b1, b2, cfg)
    except SphSepError as exc:
        report.failures.append(f"{tag}: proof path failed: {exc}")
        return
    report.checks["proof_path"] += 1

    broke = _grid_break(b1, b2, w, pp_cert.witness, cfg)
    if broke is not None:
        report.failures.append(f"{tag}: wedge convexity broke at t={broke}")
        return
    report.checks["wedge_convexity_grid"] += 1

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
    sizes.  Ambiguous instances (separation margin, or a body's
    hemisphericity margin, inside the tolerance band) are counted and
    skipped rather than classified, and so are instances whose LPs overrun
    the pivot budget, each with a failure entry.  Disjoint instances go
    through the same proof_path_witness call as `witness --method
    proof-path`.  Single-threaded and sequential, so the report is trivially
    deterministic.
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
            b1, b2 = generate(spec, cfg)
            # a force-disjoint draw is returned only once this very cone LP
            # said None, so it is not solved a second time
            inter = (
                None
                if mode is Mode.FORCE_DISJOINT
                else primal_intersect(b1, b2, cfg)
            )
            dual_cert = dual_witness(b1, b2, cfg)
        except GenerationFailed as exc:
            report.disagreements += 1
            report.failures.append(f"{tag}: generation failed: {exc}")
            continue
        except (NumericallyAmbiguous, NotHemispherical):
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
            _deep_checks(report, tag, b1, b2, dual_cert, child_seed ^ 0x5EED, cfg)
        else:
            report.intersecting += 1
    return report
