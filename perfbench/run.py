"""sphsep benchmark: one run of one workload.

    python3 perfbench/run.py --workload {campaign,oracles,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a sphsep checkout; the program is imported from its
``src`` directory.  The run makes its inputs from the seed, runs
a number of whole rounds of the workload's operations fixed by S in a
worker process (the whole run takes about S seconds on a 2-core box), checks
every output independently of the program, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run makes half as many rounds untraced and then as
many with spans around the program's functions, and prints the per-layer
metrics.  Spans go to ``.perfbench/trace-<workload>-<seed>.json``, raw
timings to ``.perfbench/run-<workload>-<seed>.json``.  See README.md.
"""

import os

# one BLAS thread in this process and in every process it starts; must be
# set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from calib import Clock  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench")
# set-up samples per run; a sample of oracles builds 360 bodies and takes
# about 2.5 s
SETUP_SAMPLES = {"campaign": 11, "oracles": 3, "cli": 11}
# wall seconds of a whole run on a 2-core box: FIXED_S for input generation,
# set-up samples and checks, plus ROUND_S per round, reference clock
# included.  A run makes round((S - FIXED_S) / ROUND_S) rounds, at least
# one, so its work is fixed by --seconds alone.
FIXED_S = {"campaign": 8.0, "oracles": 12.0, "cli": 7.0}
ROUND_S = {"campaign": 21.0, "oracles": 8.2, "cli": 8.0}
WORKER_TIMEOUT_S = 150


def worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def end_to_end(res: dict, setup_s: float) -> dict:
    op_s = res["op_s"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
        "p50_ms": {"value": 1e3 * statistics.median(op_s), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def per_layer(res: dict) -> dict:
    from tracer import UNITS

    layers = res["layers"]
    missing = sorted(set(UNITS) - set(layers))
    if res["absent"]:
        sys.stderr.write(f"absent from the program: {', '.join(res['absent'])}\n")
    if missing:
        sys.stderr.write(f"not reached by this workload (reported as 0): {', '.join(missing)}\n")
    return {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("campaign", "oracles", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sphsep", "__init__.py")):
        sys.stderr.write("error: no src/sphsep here; run from the root of a sphsep checkout\n")
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    from checks import check_run, self_test
    from inputs import ROUNDS

    data = ROUNDS[args.workload](args.seed)
    rounds = max(1, round((args.seconds - FIXED_S[args.workload]) / ROUND_S[args.workload]))
    if args.trace:  # half the rounds untraced, then as many traced
        rounds = max(1, rounds // 2)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    job = {
        "workload": args.workload, "trace": args.trace,
        "root": ROOT, "tmp": tmp, "data": data, "setup_only": True, "rounds": rounds,
        "trace_file": os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
    }
    clock, setups = Clock(), []

    def set_up() -> None:
        clock.sample()
        setups.append(worker(job)["setup"])

    samples = SETUP_SAMPLES[args.workload]
    try:
        # set-up samples before and after the timed rounds, so that their
        # median spans two stretches of the machine's speed
        for _ in range(samples - samples // 2):
            set_up()
        res = worker(dict(job, setup_only=False))
        for _ in range(samples // 2):
            set_up()
        clock.sample()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_s = statistics.median(clock.scaled(t, d) for t, d in setups)

    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:  # raw timings, for looking into a run
        json.dump({"setup": setups, "setup_calib": clock.samples,
                   "peak_rss_kb": res["peak_rss_kb"], "op_s": res["op_s"],
                   "spans": [r[0] for r in res["rounds"]], "calib": res["calib"]}, fh)
    outputs = [res["first"] if r[1] is None else json.loads(r[1]) for r in res["rounds"]]
    problems, failed = check_run(args.workload, data, outputs)
    problems += self_test(args.workload, data, res["first"])
    for p in problems[:20]:
        sys.stderr.write(f"check: {p}\n")
    attempted = sum(len(r[0]) for r in res["rounds"])
    metrics = per_layer(res) if args.trace else end_to_end(res, setup_s)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
