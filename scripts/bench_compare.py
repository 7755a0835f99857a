#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree, in pairs.

    python3 scripts/bench_compare.py --parent HEAD --out BENCH_5.json \\
        --pairs campaign:3..12 --pairs oracles:3..12 --pairs cli:1,3..11

The parent is unpacked with ``git archive`` into a fresh directory; the
change is this checkout's working tree.  ``perfbench/run.py`` of each side
runs from that side's root, for the ``run_seconds`` of BENCHMARK.json.  The
output keeps ``BENCH_4.json``'s layout:

  runs   -- the last-line JSON of one ``--trace 0`` run of every workload and
            one ``--trace 1`` run of ``campaign`` and of ``oracles`` (keys
            ``campaign_trace``, ``oracles_trace``), all at --runs-seed, on
            each side;
  pairs  -- for every workload and seed of --pairs, one ``--trace 0`` run of
            each side, parent first on odd seeds and change first on even
            ones, flattened to the end-to-end metrics, ``failed`` and
            ``correct``.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign", "oracles", "cli")
# workloads that also get one --trace 1 run: campaign's LPs are the proof
# path's, oracles' the dual and cone routes'
TRACED = ("campaign", "oracles")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    """'3..12' or '1,3,4,5' (or a mix: '1,3..5')."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("..")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def parse_pairs(text: str) -> tuple[str, list[int]]:
    workload, sep, seeds = text.partition(":")
    if not sep or workload not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS with WORKLOAD in {WORKLOADS}")
    return workload, parse_seeds(seeds)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` as plain files under dest."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode} in {root}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def flat(res: dict) -> dict:
    out = {name: m["value"] for name, m in res["metrics"].items()}
    out.update(failed=res["failed"], correct=res["correct"])
    return out


def machine() -> str:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip() or "absent"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()}-core {cpu}, Python {platform.python_version()}, "
            f"numpy {numpy}, one BLAS thread")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--out", required=True, help="output JSON, e.g. BENCH_5.json")
    ap.add_argument("--runs-seed", type=int, default=1, help="seed of the 'runs' section")
    ap.add_argument("--pairs", type=parse_pairs, action="append", default=[],
                    metavar="WORKLOAD:SEEDS", help="e.g. campaign:3..12 (repeatable)")
    args = ap.parse_args()

    doc = {"about": "Last-line JSON of perfbench/run.py on the parent commit and on the "
                    "change. 'runs' holds --trace 0 for each workload and --trace 1 for "
                    "campaign and oracles, all at --seed %s; 'pairs' holds every further "
                    "--trace 0 run, made in alternating parent/change order (odd seeds "
                    "parent first)." % args.runs_seed,
           "command": f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {SECONDS} --trace T",
           "machine": machine(),
           "parent": git("rev-parse", "--short", args.parent),
           "runs": {"parent": {}, "change": {}},
           "pairs": {}}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as workdir:
        roots = {"parent": unpack(args.parent, Path(workdir)), "change": ROOT}

        def step(side: str, workload: str, seed: int, trace: int) -> dict:
            sys.stderr.write(f"{side} {workload} seed {seed} trace {trace}\n")
            return run(roots[side], workload, seed, trace)

        for side in ("parent", "change"):
            for workload, trace in [(w, 0) for w in WORKLOADS] + [(w, 1) for w in TRACED]:
                key = workload + ("_trace" if trace else "")
                doc["runs"][side][key] = step(side, workload, args.runs_seed, trace)
        for workload, seeds in args.pairs:
            cell = doc["pairs"].setdefault(workload, {})
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                cell[str(seed)] = {side: flat(step(side, workload, seed, 0)) for side in order}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
