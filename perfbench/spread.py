"""Run each workload repeatedly and print each end-to-end metric's spread
against its bound.

    python3 perfbench/spread.py [--seeds 1..10]

Run from the root of a sphsep checkout.  For every workload of
BENCHMARK.json it runs ``run.py`` once per seed at ``run_seconds``, one run
at a time, and prints per metric the median, the quartiles, the spread
(interquartile range over median, as ``statistics.quantiles(values, n=4)``
gives the quartiles) and the bound from BENCHMARK.json, plus the failed
share of every run, which must be the same in all of them.  It exits with
code 1 when a spread exceeds its bound or the failed shares differ.  The raw
results go to ``.perfbench/spread-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1..10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        os.makedirs(".perfbench", exist_ok=True)
        with open(f".perfbench/spread-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "runs": runs}, fh, indent=1)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail_ok = len({f / a for f, a in shares}) == 1 and all(r["correct"] for r in runs)
        ok &= fail_ok
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={sorted(shares)} {'same share' if fail_ok else 'DIFFERENT'}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            ok &= spread <= bound
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound:5.2f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
