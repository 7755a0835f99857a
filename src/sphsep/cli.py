"""Command-line interface: instance I/O and the four user commands.

Commands
--------
  check   <file>                 disjointness via the cone oracle
  witness <file> [--method ...]  separating pole, by LP or by the
                                 constructive projection/contraction route
  fuzz    --count N ...          primal/dual equivalence campaign
  plot    <file> -o <out>        S^2 scene data for external 3-D plotting

Files are UTF-8 JSON.  An instance file holds {"n": ..., "w1": [[...]],
"w2": [[...]]} with optional {"tolerances": {...}} overrides; rows are
normalized on load (rejected below norm 1e-6 or at a norm that is not
finite, warned about on stderr when not unit).  Result documents are
emitted to stdout with fixed key order so identical inputs produce
identical bytes; timing goes to stderr.

Exit codes (stable):
  0  disjoint / campaign clean / scene written
  1  campaign found disagreements
  2  intersecting
  3  ambiguous within tolerances, semantically invalid bodies
     (not hemispherical), or the simplex pivot budget ran out
  4  malformed input file, or unsupported dimension for plot
  5  constructive witness route failed (fattening search, offset
     contraction, or the pivot budget inside it)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields as dataclass_fields, replace

import numpy as np

from .convexity import SphericalBody, hemisphericity_witness, project_body
from .errors import (
    ContractionStalled,
    EpsilonSearchFailed,
    IterationLimit,
    NotHemispherical,
    NumericallyAmbiguous,
)
from .geometry import DEFAULT_CONFIG, ToleranceConfig, normalize, orthonormal_frame
from .harness import run_equivalence_campaign
from .separation import dual_witness, primal_intersect, proof_path_witness

__all__ = ["main"]

_ARC_SAMPLES = 32
_BOUNDARY_SAMPLES = 128


class _InputError(Exception):
    """Malformed instance file; message carries the offending key."""


def _coords(vec: np.ndarray) -> list[float]:
    return [float(x) for x in vec]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _fail(msg: str, code: int) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return code


def _tolerances_from(data: dict, args) -> ToleranceConfig:
    allowed = {f.name for f in dataclass_fields(ToleranceConfig)}
    overrides = {}
    raw = data.get("tolerances", {})
    if not isinstance(raw, dict):
        raise _InputError('"tolerances" must be an object')
    for key, val in raw.items():
        if key not in allowed:
            raise _InputError(f'"tolerances" has unknown field {key!r}')
        overrides[key] = val
    if getattr(args, "tol_margin", None) is not None:
        overrides["margin_tol"] = args.tol_margin
    if getattr(args, "tol_offset", None) is not None:
        overrides["offset_tol"] = args.tol_offset
    try:
        return replace(DEFAULT_CONFIG, **overrides)
    except (TypeError, ValueError) as exc:
        raise _InputError(f"bad tolerances: {exc}") from exc


def _body_from(data: dict, key: str, n: int, cfg: ToleranceConfig) -> SphericalBody:
    rows = data.get(key)
    if not isinstance(rows, list) or not rows:
        raise _InputError(f'"{key}" must be a nonempty list of coordinate rows')
    cleaned = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n + 1:
            raise _InputError(
                f'"{key}"[{i}] must have {n + 1} coordinates for a body on S^{n}'
            )
        try:
            vec = np.array([float(x) for x in row])
        except (TypeError, ValueError) as exc:
            raise _InputError(f'"{key}"[{i}] has a non-numeric entry') from exc
        with np.errstate(over="ignore"):  # the norm of finite entries may overflow
            nrm = float(np.linalg.norm(vec))
        if not np.isfinite(nrm):
            raise _InputError(f'"{key}"[{i}] has norm {nrm}; a row needs a finite norm')
        if nrm < 1e-6:
            raise _InputError(f'"{key}"[{i}] has norm {nrm:.2e}, below 1e-6')
        if abs(nrm - 1.0) > cfg.unit_tol:
            sys.stderr.write(
                f'note: normalized "{key}"[{i}] (norm was {nrm:.12g})\n'
            )
        cleaned.append(vec / nrm)
    return SphericalBody(np.array(cleaned))


def _load_instance(path: str, args) -> tuple[SphericalBody, SphericalBody, ToleranceConfig]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _InputError("instance document must be a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or n < 1:
        raise _InputError('"n" must be an integer >= 1')
    cfg = _tolerances_from(data, args)
    b1 = _body_from(data, "w1", n, cfg)
    b2 = _body_from(data, "w2", n, cfg)
    return b1, b2, cfg


def _intersection_doc(inter) -> dict:
    return {
        "status": "intersecting",
        "common_point": _coords(inter.common_point),
        "lambda": _coords(inter.lam),
        "mu": _coords(inter.mu),
    }


def _cmd_check(args) -> int:
    try:
        b1, b2, cfg = _load_instance(args.instance, args)
    except _InputError as exc:
        return _fail(str(exc), 4)
    try:
        inter = primal_intersect(b1, b2, cfg)
    except (NotHemispherical, IterationLimit) as exc:
        _emit({"status": "ambiguous", "reason": str(exc)})
        return 3
    if inter is None:
        _emit({"status": "disjoint"})
        return 0
    _emit(_intersection_doc(inter))
    return 2


def _cmd_witness(args) -> int:
    try:
        b1, b2, cfg = _load_instance(args.instance, args)
    except _InputError as exc:
        return _fail(str(exc), 4)
    try:
        if args.method == "lp":
            try:
                cert = dual_witness(b1, b2, cfg)
            except NumericallyAmbiguous as exc:
                _emit({"status": "ambiguous", "reason": str(exc)})
                return 3
            if cert.kind == "intersecting":
                _emit(_intersection_doc(cert))
                return 2
            _emit(
                {
                    "status": "disjoint",
                    "witness": _coords(cert.witness),
                    "margin": float(cert.margin),
                }
            )
            return 0
        # proof-path route: settle intersection first, then construct
        w1 = hemisphericity_witness(b1, cfg)
        w2 = hemisphericity_witness(b2, cfg)
        inter = primal_intersect(b1, b2, cfg, w1=w1, w2=w2)
        if inter is not None:
            _emit(_intersection_doc(inter))
            return 2
        try:
            cert, trace = proof_path_witness(b1, b2, cfg, w1=w1, w2=w2)
        except (EpsilonSearchFailed, ContractionStalled, IterationLimit) as exc:
            return _fail(f"constructive witness route failed: {exc}", 5)
        _emit(
            {
                "status": "disjoint",
                "witness": _coords(cert.witness),
                "margin": float(cert.margin),
                "trace": {
                    "epsilon0": float(trace.epsilon0),
                    "offsets": [float(o) for o in trace.offsets],
                    "iterations": trace.iterations,
                },
            }
        )
        return 0
    except (NotHemispherical, IterationLimit) as exc:
        _emit({"status": "ambiguous", "reason": str(exc)})
        return 3


def _parse_int_list(text: str, what: str) -> list[int]:
    """Accept comma-separated integers and a..b ranges: "1,2,5..8"."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_s, _, hi_s = token.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise _InputError(f"bad {what} range {token!r}")
            if hi < lo:
                raise _InputError(f"empty {what} range {token!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise _InputError(f"bad {what} entry {token!r}")
    if not out:
        raise _InputError(f"no {what} given")
    return out


def _cmd_fuzz(args) -> int:
    try:
        dims = _parse_int_list(args.dims, "dimension")
        sizes = _parse_int_list(args.sizes, "size")
        if any(d < 1 for d in dims):
            raise _InputError("dimensions must be >= 1")
        if any(s < 1 for s in sizes):
            raise _InputError("sizes must be >= 1")
        cfg = _tolerances_from({}, args)
    except _InputError as exc:
        return _fail(str(exc), 4)
    start = time.perf_counter()
    report = run_equivalence_campaign(args.count, dims, sizes, args.seed, cfg)
    report.wall_time_s = time.perf_counter() - start
    _emit(report.to_dict())
    sys.stderr.write(f"wall time: {report.wall_time_s:.2f}s\n")
    return 1 if report.disagreements > 0 or report.failures else 0


def _slerp(u: np.ndarray, v: np.ndarray, count: int) -> list[list[float]]:
    """Great-circle arc from u to v, inclusive, count samples."""
    dot = float(np.clip(u @ v, -1.0, 1.0))
    omega = float(np.arccos(dot))
    pts = []
    for i in range(count):
        s = i / (count - 1)
        if omega < 1e-12:
            p = normalize((1 - s) * u + s * v)
        else:
            p = (np.sin((1 - s) * omega) * u + np.sin(s * omega) * v) / np.sin(omega)
        pts.append(_coords(p))
    return pts


def _hull_edges_2d(points: np.ndarray) -> list[tuple[int, int]]:
    """Edges of the planar convex hull (monotone chain), as index pairs into
    points; a 2-point hull gives one edge, a single point none."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    uniq: list[int] = []
    for idx in order:
        if not uniq or np.max(np.abs(points[idx] - points[uniq[-1]])) > 1e-12:
            uniq.append(int(idx))
    if len(uniq) < 2:
        return []
    if len(uniq) == 2:
        return [(uniq[0], uniq[1])]

    def cross(o, a, b):
        return (points[a, 0] - points[o, 0]) * (points[b, 1] - points[o, 1]) - (
            points[a, 1] - points[o, 1]
        ) * (points[b, 0] - points[o, 0])

    lower: list[int] = []
    for idx in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], idx) <= 0:
            lower.pop()
        lower.append(idx)
    upper: list[int] = []
    for idx in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], idx) <= 0:
            upper.pop()
        upper.append(idx)
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) == 2:
        return [(cycle[0], cycle[1])]
    return [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def _body_scene(body: SphericalBody, cfg: ToleranceConfig) -> tuple[dict, np.ndarray]:
    """Scene entry of one body, plus the hemisphericity witness it was
    projected along (reused by the caller for the dual pole LP)."""
    gens = body.generators
    witness = hemisphericity_witness(body, cfg)
    frame = orthonormal_frame(witness)
    flat = project_body(body, frame, cfg).vertices
    arcs = [
        _slerp(gens[i], gens[j], _ARC_SAMPLES) for i, j in _hull_edges_2d(flat)
    ]
    return {"generators": [_coords(g) for g in gens], "arcs": arcs}, witness


def _cmd_plot(args) -> int:
    try:
        b1, b2, cfg = _load_instance(args.instance, args)
    except _InputError as exc:
        return _fail(str(exc), 4)
    if b1.n != 2:
        return _fail(f"plot supports S^2 scenes only, instance is on S^{b1.n}", 4)
    try:
        scene1, w1 = _body_scene(b1, cfg)
        scene2, w2 = _body_scene(b2, cfg)
        scene = {"bodies": [scene1, scene2]}
        try:
            cert = dual_witness(b1, b2, cfg, w1=w1, w2=w2)
        except NumericallyAmbiguous:
            cert = None
        if cert is not None and cert.kind == "disjoint":
            w = cert.witness
            frame = orthonormal_frame(w)
            u, v = frame.basis
            boundary = []
            for i in range(_BOUNDARY_SAMPLES):
                theta = 2.0 * np.pi * i / _BOUNDARY_SAMPLES
                boundary.append(_coords(np.cos(theta) * u + np.sin(theta) * v))
            scene["witness"] = _coords(w)
            scene["boundary"] = boundary
    except (NotHemispherical, IterationLimit) as exc:
        return _fail(str(exc), 3)
    payload = json.dumps(scene, indent=2) + "\n"
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        return _fail(f"cannot write {args.output}: {exc}", 4)
    return 0


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol-margin",
        type=float,
        default=None,
        help="override the strict-inequality margin tolerance",
    )
    parser.add_argument(
        "--tol-offset",
        type=float,
        default=None,
        help="override the hyperplane offset convergence tolerance",
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4 like any other malformed input, keeping exit
    codes a total function of (status, error class); argparse's default 2
    would collide with the intersecting verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(4)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="sphsep",
        description="Disjointness and separating poles for spherical convex bodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide disjointness of the two bodies")
    p_check.add_argument("instance", help="instance JSON file")
    _add_tol_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_wit = sub.add_parser("witness", help="compute a separating pole")
    p_wit.add_argument("instance", help="instance JSON file")
    p_wit.add_argument(
        "--method",
        choices=("lp", "proof-path"),
        default="lp",
        help="margin-maximizing LP, or the constructive projection/contraction route",
    )
    _add_tol_flags(p_wit)
    p_wit.set_defaults(func=_cmd_witness)

    p_fuzz = sub.add_parser("fuzz", help="run the primal/dual equivalence campaign")
    p_fuzz.add_argument("--count", type=int, default=100, help="number of instances")
    p_fuzz.add_argument("--dims", default="1,2,3", help='sphere dimensions, e.g. "1,2,3,5"')
    p_fuzz.add_argument("--sizes", default="1..8", help='generator counts, e.g. "1..12" or "2,4,8"')
    p_fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    _add_tol_flags(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_plot = sub.add_parser("plot", help="emit S^2 scene data for external plotting")
    p_plot.add_argument("instance", help="instance JSON file")
    p_plot.add_argument("-o", "--output", required=True, help="scene output path")
    _add_tol_flags(p_plot)
    p_plot.set_defaults(func=_cmd_plot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
