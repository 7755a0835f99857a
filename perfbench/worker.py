"""Benchmark worker: runs one workload's rounds and prints the timings and
outputs as one JSON document.

run.py starts it with the job on stdin.  With ``setup_only`` it times
importing sphsep (numpy with it) and building the inputs the timed loop
consumes, and stops.  Otherwise it warms up, runs the job's number of whole
rounds with samples of the reference clock (calib.py) in between, and
reports each operation's time at the reference speed and the peak resident
memory of the program: its own for the in-process workloads, the largest
query process's for ``cli``.  The cli worker imports neither numpy nor
sphsep before its timed rounds, so that a child's peak, which on Linux
starts from its parent's, is the child's own.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time

from calib import Clock
from tracer import Tracer, layer_metrics

JOB: dict = {}  # the job from run.py, read from stdin when run as a script
sphsep = None  # imported by setup(), inside the set-up clock
HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_OPS = 3


def setup(workload: str, data: dict, tmp: str) -> list:
    """The operations of one round, as the timed loop consumes them."""
    global sphsep
    sys.path.insert(0, os.path.join(JOB["root"], "src"))
    if workload == "cli":
        if JOB["setup_only"]:
            import sphsep  # each query process pays this import
        paths = {}
        for name, inst in data["instances"].items():
            doc = {k: inst[k] for k in ("n", "w1", "w2", "tolerances") if k in inst}
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return [(data["argv"][q], paths[name]) for q, name in data["queries"]]
    import numpy as np
    import sphsep

    if workload == "campaign":
        return data["chunks"]
    bodies = [(sphsep.SphericalBody(np.array(p["w1"])), sphsep.SphericalBody(np.array(p["w2"])))
              for p in data["pairs"]]
    return [(q, *bodies[i]) for q, i in data["queries"]]


def oracle_query(query, b1, b2) -> dict:
    if query == "check":
        inter = sphsep.primal_intersect(b1, b2)
        if inter is None:
            return {"kind": "disjoint"}
    else:
        inter = sphsep.dual_witness(b1, b2)
        if inter.kind == "disjoint":
            member = sphsep.wedge_membership(b1, b2, inter.witness).member
            return {"kind": "disjoint", "witness": inter.witness, "margin": inter.margin,
                    "member": member}
    return {"kind": "intersecting", "common_point": inter.common_point,
            "lam": inter.lam, "mu": inter.mu}


def jsonable(value):
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value.tolist() if hasattr(value, "tolist") else value


class Runner:
    def __init__(self, workload: str, ops: list, tmp: str):
        self.workload, self.ops, self.tmp = workload, ops, tmp
        self.tracer = None
        self.span_files: list[str] = []
        self.rounds: list[list] = []
        self.first = None
        self.clock = Clock()

    def run_op(self, op):
        if self.workload == "cli":
            return self.cli_query(*op)
        try:
            if self.workload == "campaign":
                return sphsep.run_equivalence_campaign(
                    op["count"], op["dims"], op["sizes"], op["seed"]).to_dict()
            return oracle_query(*op)
        except Exception as exc:  # a failed operation is counted, not fatal
            return {"error": f"{type(exc).__name__}: {exc}"}

    def cli_query(self, argv, path) -> dict:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sphsep", *argv, path]
        else:  # the child records its own spans into a file of the run's
            span_file = os.path.join(self.tmp, f"spans-{len(self.span_files)}.json")
            self.span_files.append(span_file)
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), span_file, *argv, path]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def run_round(self) -> None:
        spans, outs = [], []
        self.clock.sample()
        for op in self.ops:
            t = time.perf_counter()
            outs.append(self.run_op(op))
            spans.append((t, time.perf_counter() - t))
            if self.clock.due():
                self.clock.sample()
        self.clock.sample()
        # outputs that repeat the first round's are kept once, so memory does
        # not grow with the number of rounds
        enc = json.dumps([jsonable(o) for o in outs])
        if self.first is None:
            self.first = enc
        self.rounds.append([spans, None if enc == self.first else enc])

    def op_times(self, rounds: list) -> list:
        """Each operation's mean time over the given rounds, at the reference
        speed."""
        return [statistics.fmean(self.clock.scaled(t, d) for t, d in spans)
                for spans in zip(*(r[0] for r in rounds))]


def peak_rss_kb(workload: str) -> int:
    if workload == "cli":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status", encoding="ascii") as fh:  # this process's own peak
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def spawn_ms(cmd: list, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run(cmd, check=True)  # a timeout would quantize the time
        samples.append((time.perf_counter() - t) * 1e3)
    return sorted(samples)[repeats // 2]


def main_ms(queries: list, ops: list) -> dict:
    """Median in-process time of sphsep.cli.main(argv) per command, over the
    generated instances (the fault probes are left out)."""
    import contextlib
    import io

    from sphsep.cli import main

    per: dict[str, list] = {}
    for (query, name), (argv, path) in zip(queries, ops):
        if name.startswith("probe"):
            continue
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t = time.perf_counter()
            main([*argv, path])
            per.setdefault(query, []).append((time.perf_counter() - t) * 1e3)
    return {f"cli.{q}.main_ms": sorted(v)[len(v) // 2] for q, v in per.items()}


def traced(runner: Runner, count: int) -> dict:
    """Repeat ``count`` rounds with spans; returns the per-layer metrics."""
    runner.tracer = tracer = Tracer()
    if runner.workload == "cli":
        import sphsep.cli  # noqa: F401  (main_ms runs it in this process)
    tracer.install()
    for _ in range(count):
        runner.run_round()
    tracer.uninstall()
    spans = tracer.spans
    for path in runner.span_files:  # cli: each child wrote its own spans
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        base = len(spans)
        spans += [[s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]] for s in child]
        os.remove(path)
    with open(JOB["trace_file"], "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "absent": tracer.absent}, fh)
    layers = layer_metrics(spans, len(runner.ops) * count)
    layers["trace.untraced_ops_per_s"] = len(runner.ops) / sum(runner.op_times(runner.rounds[:-count]))
    layers["trace.traced_ops_per_s"] = len(runner.ops) / sum(runner.op_times(runner.rounds[-count:]))
    layers["trace.overhead_pct"] = 100.0 * (
        layers["trace.untraced_ops_per_s"] / layers["trace.traced_ops_per_s"] - 1.0)
    return layers


def run() -> dict:
    workload, tmp = JOB["workload"], JOB["tmp"]
    t0 = time.perf_counter()
    ops = setup(workload, JOB["data"], tmp)
    if JOB["setup_only"]:  # perf_counter is the same clock in run.py
        return {"setup": [t0, time.perf_counter() - t0]}
    runner = Runner(workload, ops, tmp)
    for op in ops[:WARMUP_OPS]:
        runner.run_op(op)
    for _ in range(JOB["rounds"]):
        runner.run_round()
    result = {"peak_rss_kb": peak_rss_kb(workload), "op_s": runner.op_times(runner.rounds)}
    if JOB["trace"]:
        layers = traced(runner, JOB["rounds"])
        if workload == "cli":
            # the reference clock's job is a bare interpreter start
            layers["cli.interpreter_ms"] = 1e3 * statistics.median(
                d for _, d in runner.clock.samples)
            layers["cli.import_ms"] = spawn_ms([sys.executable, "-c", "import sphsep"])
            layers.update(main_ms(JOB["data"]["queries"], ops))
        result.update(layers=layers, absent=runner.tracer.absent)
    result.update(first=json.loads(runner.first), rounds=runner.rounds,
                  calib=runner.clock.samples)
    return result


if __name__ == "__main__":
    JOB.update(json.load(sys.stdin))
    json.dump(run(), sys.stdout)
