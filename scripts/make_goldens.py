#!/usr/bin/env python3
"""Regenerate the golden CLI corpus under tests/golden/.

Fifty deterministic instances: the first ten (the byte-stability core,
mixing disjoint and intersecting cases across S^1, S^2, S^3) get recorded
stdout and exit codes for `check`, `witness --method lp`, and `witness
--method proof-path`; the remaining forty are disjoint instances used by
the witness cross-check.  Everything is derived from fixed seeds, so
rerunning this script reproduces the corpus byte for byte.

    python3 scripts/make_goldens.py           # rewrite tests/golden/
    python3 scripts/make_goldens.py --check   # compare, write nothing there

``--check`` regenerates the corpus into a temporary directory and compares
it with tests/golden/ file by file, every file parsed as JSON.  For each
file that differs it prints the largest absolute difference between
corresponding numbers, and it flags every change that is not a numeric
drift: an exit code, a status or other string, a key set, an array length,
``epsilon0`` or ``iterations``, a file present on one side only.  It exits
1 when any file differs, 0 when the corpus is reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
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


def write_corpus(golden: Path) -> None:
    inst_dir = golden / "instances"
    exp_dir = golden / "expected"
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

    (golden / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {CORE_COUNT} core + {EXTRA_COUNT} extra instances to {golden}")


# numbers that must not move at all, unlike the trailing digits of a witness
EXACT_KEYS = ("exit", "epsilon0", "iterations")


def compare(old, new, where: str, flags: list[str]) -> float:
    """Largest absolute difference between corresponding numbers of two
    JSON values; every other difference is appended to flags."""
    number = (int, float)
    if isinstance(old, bool) or isinstance(new, bool) or not (
        isinstance(old, number) and isinstance(new, number)
    ):
        if isinstance(old, dict) and isinstance(new, dict):
            if old.keys() != new.keys():
                flags.append(f"{where}: keys {sorted(old)} -> {sorted(new)}")
            return max((compare(old[k], new[k], f"{where}.{k}", flags)
                        for k in old.keys() & new.keys()), default=0.0)
        if isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                flags.append(f"{where}: length {len(old)} -> {len(new)}")
            return max((compare(a, b, f"{where}[{i}]", flags)
                        for i, (a, b) in enumerate(zip(old, new))), default=0.0)
        if old != new:
            flags.append(f"{where}: {old!r} -> {new!r}")
        return 0.0
    if old != new and where.rsplit(".", 1)[-1] in EXACT_KEYS:
        flags.append(f"{where}: {old!r} -> {new!r}")
    return abs(float(new) - float(old))


def check(fresh: Path) -> int:
    """Compare the corpus regenerated under fresh with tests/golden/."""
    names = {p.relative_to(root).as_posix()
             for root in (GOLDEN, fresh) for p in root.rglob("*") if p.is_file()}
    differing = 0
    for name in sorted(names):
        old_path, new_path = GOLDEN / name, fresh / name
        if not (old_path.is_file() and new_path.is_file()):
            differing += 1
            print(f"{name}: only in {'tests/golden' if old_path.is_file() else 'the regeneration'}")
            continue
        old, new = old_path.read_bytes(), new_path.read_bytes()
        if old == new:
            continue
        differing += 1
        flags: list[str] = []
        try:
            worst = compare(json.loads(old), json.loads(new), "$", flags)
        except json.JSONDecodeError:
            print(f"{name}: differs and is not JSON")
            continue
        print(f"{name}: max |diff| {worst:.3e}")
        for flag in flags:
            print(f"  FLAG {flag}")
    print(f"{differing} of {len(names)} files differ")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and compare")
    args = parser.parse_args(argv)
    if not args.check:
        write_corpus(GOLDEN)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
        return check(Path(tmp))


if __name__ == "__main__":
    raise SystemExit(main())
