"""Spans around the public functions of each sphsep module, and the per-layer
metrics made from them.

``Tracer.install`` replaces each traced function in every ``sphsep`` module
that holds a reference to it, so calls between modules are seen too.  A span
is kept in memory as ``[name, start, end, parent, info]``; the spans are
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# calling function of lp.solve -> call-site label
SITES = {
    "hemisphericity_witness": "hemisphericity",
    "primal_intersect": "primal",
    "dual_witness": "dual",
    "_separating_hyperplane": "hull_sep",
    "regime": "hull_sep_contracted",  # inner function of _separating_hyperplane_contracted
}
REPORTED_SITES = ("hemisphericity", "primal", "dual", "hull_sep", "hull_sep_contracted")


def _solve_info(args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    caller = sys._getframe(2).f_code.co_name
    return {"site": SITES.get(caller, caller), "rows": len(lp.constraints),
            "cols": lp.num_vars, "pivots": 0}


def _proof_info(result, info):
    _, trace = result
    return {"epsilon0": trace.epsilon0, "rounds": trace.iterations}


def _campaign_info(result, info):
    return {"disjoint": result.disjoint, "intersecting": result.intersecting,
            "ambiguous": result.ambiguous}


# (span name, module, attribute, info on entry, info on return)
TARGETS = (
    ("lp.solve", "sphsep.lp", "solve", _solve_info, None),
    ("convexity.hemisphericity", "sphsep.convexity", "hemisphericity_witness", None, None),
    ("convexity.body_init", "sphsep.convexity", "SphericalBody.__post_init__", None, None),
    ("convexity.fatten", "sphsep.convexity", "fatten", None, None),
    ("convexity.pullback", "sphsep.convexity", "pullback", None, None),
    ("convexity.project", "sphsep.convexity", "project_body", None, None),
    ("geometry.central_project", "sphsep.geometry", "central_project", None, None),
    ("geometry.central_unproject", "sphsep.geometry", "central_unproject", None, None),
    ("separation.proof_path", "sphsep.separation", "proof_path_witness", None, _proof_info),
    ("separation.primal", "sphsep.separation", "primal_intersect", None, None),
    ("separation.dual", "sphsep.separation", "dual_witness", None, None),
    ("separation.wedge_membership", "sphsep.separation", "wedge_membership", None, None),
    ("separation.openness_probe", "sphsep.separation", "wedge_openness_probe", None, None),
    ("harness.generate", "sphsep.harness", "_generate_with_centers", None, None),
    ("harness.campaign", "sphsep.harness", "run_equivalence_campaign", None, _campaign_info),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, enter, leave):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            info = enter(args, kwargs) if enter else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, info])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if leave:
                spans[idx][4] = leave(result, info)
            return result

        return traced

    def _count_pivots(self, fn):
        spans, stack = self.spans, self._stack

        def counted(*args):
            spans[stack[-1]][4]["pivots"] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, modname, attr, enter, leave in TARGETS:
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn, enter, leave)
            if path:  # a method: patch the class
                self._patch(owner, leaf, wrapped)
                continue
            for mname, mod in list(sys.modules.items()):
                if mname == "sphsep" or mname.startswith("sphsep."):
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, wrapped)
        lp = sys.modules["sphsep.lp"]
        if hasattr(lp, "_pivot"):
            self._patch(lp, "_pivot", self._count_pivots(lp._pivot))
        else:
            self.absent += ["lp.pivots", "lp.us_per_pivot"]

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


# per-layer metric -> unit; counts and times are per operation of the workload
UNITS = {
    "lp.calls": "1/op", "lp.solve_s": "s/op", "lp.rows_mean": "rows", "lp.cols_mean": "cols",
    "lp.pivots": "1/op", "lp.us_per_pivot": "us",
    **{f"lp.{s}.{k}": u for s in REPORTED_SITES
       for k, u in (("calls", "1/op"), ("s", "s/op"), ("pivots", "1/op"))},
    "convexity.hemisphericity.calls": "1/op", "convexity.hemisphericity.s": "s/op",
    "convexity.body_init.s": "s/op", "convexity.fatten.s": "s/op",
    "convexity.pullback.s": "s/op", "convexity.project.s": "s/op",
    "geometry.central_project.calls": "1/op", "geometry.central_project.s": "s/op",
    "geometry.central_unproject.calls": "1/op", "geometry.central_unproject.s": "s/op",
    "separation.proof_path.calls": "1/op", "separation.proof_path.s": "s/op",
    "separation.proof_path.self_s": "s/op", "separation.proof_path.rounds": "1/call",
    "separation.proof_path.fatten_tries": "1/call", "separation.proof_path.fatten_useful_ratio": "ratio",
    "separation.primal.calls": "1/op", "separation.primal.s": "s/op",
    "separation.dual.calls": "1/op", "separation.dual.s": "s/op",
    "separation.dual.fallback_ratio": "ratio",
    "separation.wedge_membership.calls": "1/op", "separation.wedge_membership.s": "s/op",
    "separation.openness_probe.s": "s/op",
    "harness.generate.s": "s/op", "harness.generate.primal_calls": "1/op",
    "harness.campaign.disjoint": "1/op", "harness.campaign.intersecting": "1/op",
    "harness.campaign.ambiguous": "1/op",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "cli.check.main_ms": "ms", "cli.witness_lp.main_ms": "ms", "cli.witness_pp.main_ms": "ms",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s", "trace.overhead_pct": "%",
}


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``ops`` traced operations.  A layer
    the workload never reaches reads 0."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def calls(name):
        return len(by[name]) / ops

    def secs(name, idx=None):
        return sum(dur[i] for i in (by[name] if idx is None else idx)) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    solves = by["lp.solve"]
    pivots = sum(spans[i][4]["pivots"] for i in solves)
    m["lp.calls"] = calls("lp.solve")
    m["lp.solve_s"] = secs("lp.solve")
    m["lp.rows_mean"] = ratio(sum(spans[i][4]["rows"] for i in solves), len(solves))
    m["lp.cols_mean"] = ratio(sum(spans[i][4]["cols"] for i in solves), len(solves))
    m["lp.pivots"] = pivots / ops
    m["lp.us_per_pivot"] = ratio(1e6 * secs("lp.solve") * ops, pivots)
    for site in REPORTED_SITES:
        idx = [i for i in solves if spans[i][4]["site"] == site]
        m[f"lp.{site}.calls"] = len(idx) / ops
        m[f"lp.{site}.s"] = secs("lp.solve", idx)
        m[f"lp.{site}.pivots"] = sum(spans[i][4]["pivots"] for i in idx) / ops
    m["convexity.hemisphericity.calls"] = calls("convexity.hemisphericity")
    for key in ("hemisphericity", "body_init", "fatten", "pullback", "project"):
        m[f"convexity.{key}.s"] = secs(f"convexity.{key}")
    for key in ("central_project", "central_unproject"):
        m[f"geometry.{key}.calls"] = calls(f"geometry.{key}")
        m[f"geometry.{key}.s"] = secs(f"geometry.{key}")

    pp = by["separation.proof_path"]
    done = [spans[i][4] for i in pp if spans[i][4]]  # runs that returned
    # the fattening search halves from 0.5, so epsilon0 = 0.5 / 2**(tries - 1)
    tries = [round(1 + math.log2(0.5 / d["epsilon0"])) for d in done]
    m["separation.proof_path.calls"] = calls("separation.proof_path")
    m["separation.proof_path.s"] = secs("separation.proof_path")
    m["separation.proof_path.self_s"] = sum(dur[i] - child[i] for i in pp) / ops
    m["separation.proof_path.rounds"] = ratio(sum(d["rounds"] for d in done), len(done))
    m["separation.proof_path.fatten_tries"] = ratio(sum(tries), len(done))
    m["separation.proof_path.fatten_useful_ratio"] = ratio(len(done), sum(tries))
    for key in ("primal", "dual", "wedge_membership"):
        m[f"separation.{key}.calls"] = calls(f"separation.{key}")
        m[f"separation.{key}.s"] = secs(f"separation.{key}")
    dual = set(by["separation.dual"])
    fallback = {spans[i][3] for i in by["separation.primal"] if spans[i][3] in dual}
    m["separation.dual.fallback_ratio"] = ratio(len(fallback), len(dual))
    m["separation.openness_probe.s"] = secs("separation.openness_probe")

    gen = set(by["harness.generate"])
    m["harness.generate.s"] = secs("harness.generate")
    m["harness.generate.primal_calls"] = sum(
        1 for i in by["separation.primal"] if spans[i][3] in gen) / ops
    for key in ("disjoint", "intersecting", "ambiguous"):
        m[f"harness.campaign.{key}"] = sum(
            spans[i][4][key] for i in by["harness.campaign"] if spans[i][4]) / ops
    return m

