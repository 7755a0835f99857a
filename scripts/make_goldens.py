#!/usr/bin/env python3
"""Regenerate the golden CLI corpus under tests/golden/.

Fifty deterministic instances: the first ten (the byte-stability core,
mixing disjoint and intersecting cases across S^1, S^2, S^3) get recorded
stdout and exit codes for `check`, `witness --method lp`, and `witness
--method proof-path`; the remaining forty are disjoint instances used by
the witness cross-check.  Everything is derived from fixed seeds, so
rerunning this script reproduces the corpus byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

sys.path.insert(0, str(ROOT / "src"))

from sphsep.harness import InstanceSpec, Mode, generate  # noqa: E402

CORE_COUNT = 10
EXTRA_COUNT = 40
DIM_CYCLE = (2, 1, 3)
# indices of core instances generated in intersecting mode
CORE_INTERSECTING = {3, 6, 9}

COMMANDS = {
    "check": ["check"],
    "witness-lp": ["witness", "--method", "lp"],
    "witness-pp": ["witness", "--method", "proof-path"],
}


def instance_doc(index: int) -> tuple[dict, dict]:
    n = DIM_CYCLE[index % len(DIM_CYCLE)]
    mode = (
        Mode.FORCE_INTERSECTING
        if index in CORE_INTERSECTING
        else Mode.FORCE_DISJOINT
    )
    k1 = 1 + (index * 7) % 5
    k2 = 1 + (index * 3) % 4
    seed = 10_000 + index
    spec = InstanceSpec(dimension=n, k1=k1, k2=k2, seed=seed, mode=mode)
    b1, b2 = generate(spec)
    doc = {
        "n": n,
        "w1": [[float(x) for x in row] for row in b1.generators],
        "w2": [[float(x) for x in row] for row in b2.generators],
    }
    meta = {"n": n, "k1": k1, "k2": k2, "seed": seed, "mode": mode.value}
    return doc, meta


def run_command(instance_path: Path, argv: list[str]) -> tuple[bytes, int]:
    # the CLI runs from this checkout's src, installed or not
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sphsep", *argv, str(instance_path)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.stdout, proc.returncode


def main() -> int:
    inst_dir = GOLDEN / "instances"
    exp_dir = GOLDEN / "expected"
    inst_dir.mkdir(parents=True, exist_ok=True)
    exp_dir.mkdir(parents=True, exist_ok=True)

    manifest = {"core": [], "extra": []}
    for i in range(CORE_COUNT + EXTRA_COUNT):
        name = f"inst_{i:02d}"
        doc, meta = instance_doc(i)
        path = inst_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        entry = {"name": name, **meta}
        if i < CORE_COUNT:
            entry["commands"] = {}
            for label, argv in COMMANDS.items():
                stdout, code = run_command(path, argv)
                out_name = f"{name}.{label}.out"
                (exp_dir / out_name).write_bytes(stdout)
                entry["commands"][label] = {"expected": out_name, "exit": code}
            manifest["core"].append(entry)
        else:
            manifest["extra"].append(entry)
        print(f"{name}: n={meta['n']} mode={meta['mode']}")

    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {CORE_COUNT} core + {EXTRA_COUNT} extra instances to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
