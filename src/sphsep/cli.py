"""Command-line interface: instance I/O and the four user commands.

Commands
--------
  check   <file>                 disjointness via the cone oracle
  witness <file> [--method ...]  separating pole, by LP or by the
                                 constructive projection/contraction route
  fuzz    --count N ...          primal/dual equivalence campaign
  plot    <file> -o <out>        S^2 scene data for external 3-D plotting

Files are UTF-8 JSON.  An instance file holds {"n": ..., "w1": [[...]],
"w2": [[...]]} with optional {"tolerances": {...}} overrides of
margin_tol, offset_tol and max_iter; n and every coordinate must be JSON
numbers (not booleans or strings).  A row is rejected below norm 1e-6 or at
a non-finite norm, read as it is within 1e-9 of unit norm (SphericalBody's
norm and tolerance), else normalized with a note on stderr.  Result
documents are emitted to stdout with fixed key order so identical inputs
produce identical bytes; timing goes to stderr.

Exit codes (stable); main maps _InputError, _RouteFailed and plot's
errors to theirs, while check and witness report ambiguity as a document:
  0  disjoint / campaign clean / scene written
  1  campaign found disagreements
  2  intersecting
  3  ambiguous within tolerances, semantically invalid bodies
     (not hemispherical), or the simplex pivot budget ran out
  4  malformed input file (including an unknown, non-finite or boolean
     tolerance), bad flags, or a non-S^2 or unwritable plot
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

from .convexity import SphericalBody, hemisphericity_witness
from .errors import (
    ContractionStalled,
    EpsilonSearchFailed,
    IterationLimit,
    NotHemispherical,
    NumericallyAmbiguous,
)
from .geometry import (
    DEFAULT_CONFIG,
    _SHAPE_TOL,
    _UNIT_TOL,
    ToleranceConfig,
    central_project,
    normalize,
    orthonormal_frame,
)
from .harness import run_equivalence_campaign
from .separation import dual_witness, primal_intersect, proof_path_witness

__all__ = ["main"]

_ARC_SAMPLES = 32
_BOUNDARY_SAMPLES = 128


class _InputError(Exception):
    """Malformed instance file or flags; main exits 4 with its message."""


class _RouteFailed(Exception):
    """The constructive witness route gave up; main exits 5 with its message."""


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


def _body_from(data: dict, key: str, n: int) -> SphericalBody:
    rows = data.get(key)
    if not isinstance(rows, list) or not rows:
        raise _InputError(f'"{key}" must be a nonempty list of coordinate rows')
    cleaned = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n + 1:
            raise _InputError(
                f'"{key}"[{i}] must have {n + 1} coordinates for a body on S^{n}'
            )
        # the JSON parser gives a number as int or float; bool is an int too
        if not all(type(x) in (int, float) for x in row):
            raise _InputError(f'"{key}"[{i}] has an entry that is not a JSON number')
        try:
            vec = np.array([float(x) for x in row])
        except OverflowError as exc:  # an integer literal beyond the float range
            raise _InputError(f'"{key}"[{i}] has an entry too large for a float') from exc
        # SphericalBody's norm and unit tolerance: a row it accepts is read as it is
        with np.errstate(over="ignore"):  # the norm of finite entries may overflow
            nrm = float(np.sqrt((vec * vec).sum()))
        if not np.isfinite(nrm):
            raise _InputError(f'"{key}"[{i}] has norm {nrm}; a row needs a finite norm')
        if nrm < 1e-6:
            raise _InputError(f'"{key}"[{i}] has norm {nrm:.2e}, below 1e-6')
        if abs(nrm - 1.0) > _SHAPE_TOL:
            sys.stderr.write(
                f'note: normalized "{key}"[{i}] (norm was {nrm:.12g})\n'
            )
            vec = vec / nrm
        cleaned.append(vec)
    return SphericalBody(np.array(cleaned))


def _load_instance(path: str, args) -> tuple[SphericalBody, SphericalBody, ToleranceConfig]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path} nests JSON too deeply to parse") from exc
    if not isinstance(data, dict):
        raise _InputError("instance document must be a JSON object")
    n = data.get("n")
    if type(n) is not int or n < 1:
        raise _InputError('"n" must be an integer >= 1')
    cfg = _tolerances_from(data, args)
    return _body_from(data, "w1", n), _body_from(data, "w2", n), cfg


def _intersection_doc(inter) -> dict:
    return {
        "status": "intersecting",
        "common_point": inter.common_point.tolist(),
        "lambda": inter.lam.tolist(),
        "mu": inter.mu.tolist(),
    }


def _check_route(b1, b2, cfg) -> tuple[dict, int]:
    inter = primal_intersect(b1, b2, cfg)
    if inter is None:
        return {"status": "disjoint"}, 0
    return _intersection_doc(inter), 2


def _pole_doc(cert) -> dict:
    return {"status": "disjoint", "witness": cert.witness.tolist(), "margin": cert.margin}


def _lp_route(b1, b2, cfg) -> tuple[dict, int]:
    cert = dual_witness(b1, b2, cfg)
    if cert.kind == "intersecting":
        return _intersection_doc(cert), 2
    return _pole_doc(cert), 0


def _proof_path_route(b1, b2, cfg) -> tuple[dict, int]:
    """Settle intersection by the cone LP first, then construct."""
    inter = primal_intersect(b1, b2, cfg)
    if inter is not None:
        return _intersection_doc(inter), 2
    try:
        cert, trace = proof_path_witness(b1, b2, cfg)
    except (EpsilonSearchFailed, ContractionStalled, IterationLimit) as exc:
        raise _RouteFailed(f"constructive witness route failed: {exc}") from exc
    doc = _pole_doc(cert)
    doc["trace"] = {
        "epsilon0": trace.epsilon0,
        "offsets": trace.offsets,
        "iterations": trace.iterations,
    }
    return doc, 0


_ROUTES = {"check": _check_route, "lp": _lp_route, "proof-path": _proof_path_route}


def _cmd_query(args) -> int:
    """check and witness: one route's document, or the ambiguous one."""
    b1, b2, cfg = _load_instance(args.instance, args)
    try:
        doc, code = _ROUTES[args.method](b1, b2, cfg)
    except (NotHemispherical, IterationLimit, NumericallyAmbiguous) as exc:
        doc, code = {"status": "ambiguous", "reason": str(exc)}, 3
    _emit(doc)
    return code


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
    if min(out) < 1:
        raise _InputError(f"{what}s must be >= 1")
    return out


def _cmd_fuzz(args) -> int:
    dims = _parse_int_list(args.dims, "dimension")
    sizes = _parse_int_list(args.sizes, "size")
    if args.count < 0:
        raise _InputError("count must be >= 0")
    if args.seed < 0:
        raise _InputError("seed must be >= 0")
    cfg = _tolerances_from({}, args)
    start = time.perf_counter()
    report = run_equivalence_campaign(args.count, dims, sizes, args.seed, cfg)
    wall_time_s = time.perf_counter() - start
    _emit(report.to_dict())
    sys.stderr.write(f"wall time: {wall_time_s:.2f}s\n")
    return 1 if report.disagreements > 0 or report.failures else 0


def _slerp(u: np.ndarray, v: np.ndarray, count: int) -> list[list[float]]:
    """Great-circle arc from u to v, inclusive, count samples."""
    dot = float(np.clip(u @ v, -1.0, 1.0))
    omega = float(np.arccos(dot))
    s = (np.arange(count) / (count - 1))[:, None]
    if omega < 1e-12:
        return [normalize(p).tolist() for p in (1 - s) * u + s * v]
    return ((np.sin((1 - s) * omega) * u + np.sin(s * omega) * v) / np.sin(omega)).tolist()


def _hull_edges_2d(points: np.ndarray) -> list[tuple[int, int]]:
    """Edges of the planar convex hull (monotone chain), as index pairs into
    points; a hull of two distinct points, or of collinear ones, gives one
    edge, a single point none."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    uniq: list[int] = []
    for idx in order:
        if not uniq or np.max(np.abs(points[idx] - points[uniq[-1]])) > _UNIT_TOL:
            uniq.append(int(idx))

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


def _body_scene(body: SphericalBody, cfg: ToleranceConfig) -> dict:
    """Scene entry of one body: its generators and the arcs of its hull
    edges, found by projecting along its hemisphericity witness."""
    gens = body.generators
    frame = orthonormal_frame(hemisphericity_witness(body, cfg))
    flat = central_project(frame, gens, cfg)
    arcs = [
        _slerp(gens[i], gens[j], _ARC_SAMPLES) for i, j in _hull_edges_2d(flat)
    ]
    return {"generators": gens.tolist(), "arcs": arcs}


def _cmd_plot(args) -> int:
    b1, b2, cfg = _load_instance(args.instance, args)
    if b1.n != 2:
        raise _InputError(f"plot supports S^2 scenes only, instance is on S^{b1.n}")
    scene = {"bodies": [_body_scene(b1, cfg), _body_scene(b2, cfg)]}
    try:
        cert = dual_witness(b1, b2, cfg)
    except NumericallyAmbiguous:
        cert = None
    if cert is not None and cert.kind == "disjoint":
        u, v = orthonormal_frame(cert.witness).basis
        theta = (2.0 * np.pi * np.arange(_BOUNDARY_SAMPLES) / _BOUNDARY_SAMPLES)[:, None]
        scene["witness"] = cert.witness.tolist()
        scene["boundary"] = (np.cos(theta) * u + np.sin(theta) * v).tolist()
    payload = json.dumps(scene, indent=2) + "\n"
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise _InputError(f"cannot write {args.output}: {exc}") from exc
    return 0


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
    # every command takes the tolerance flags; all but fuzz read an instance
    tol_flags = argparse.ArgumentParser(add_help=False)
    tol_flags.add_argument(
        "--tol-margin", type=float, help="override the strict-inequality margin tolerance"
    )
    tol_flags.add_argument(
        "--tol-offset", type=float, help="override the hyperplane offset convergence tolerance"
    )
    on_file = argparse.ArgumentParser(add_help=False, parents=[tol_flags])
    on_file.add_argument("instance", help="instance JSON file")

    p_check = sub.add_parser(
        "check", parents=[on_file], help="decide disjointness of the two bodies"
    )
    p_check.set_defaults(func=_cmd_query, method="check")

    p_wit = sub.add_parser("witness", parents=[on_file], help="compute a separating pole")
    p_wit.add_argument(
        "--method",
        choices=("lp", "proof-path"),
        default="lp",
        help="margin-maximizing LP, or the constructive projection/contraction route",
    )
    p_wit.set_defaults(func=_cmd_query)

    p_fuzz = sub.add_parser(
        "fuzz", parents=[tol_flags], help="run the primal/dual equivalence campaign"
    )
    p_fuzz.add_argument("--count", type=int, default=100, help="number of instances")
    p_fuzz.add_argument("--dims", default="1,2,3", help='sphere dimensions, e.g. "1,2,3,5"')
    p_fuzz.add_argument("--sizes", default="1..8", help='generator counts, e.g. "1..12" or "2,4,8"')
    p_fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_plot = sub.add_parser(
        "plot", parents=[on_file], help="emit S^2 scene data for external plotting"
    )
    p_plot.add_argument("-o", "--output", required=True, help="scene output path")
    p_plot.set_defaults(func=_cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail(str(exc), 4)
    except _RouteFailed as exc:
        return _fail(str(exc), 5)
    except (NotHemispherical, IterationLimit) as exc:  # plot; queries emit a document
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
