#!/usr/bin/env python3
"""Screen every benchmark campaign chunk through the campaign checks.

    python3 scripts/screen_campaign_pool.py

The ``campaign`` workload of ``perfbench/`` draws its chunks from fixed seed
pools, one pool of CAMPAIGN_POOL seeds per (generator count, dimension
list).  For every generator count of CAMPAIGN_SIZES, every dimension list
of CAMPAIGN_ORDERS and every seed of its ``campaign_pool``, this runs
``run_equivalence_campaign(CAMPAIGN_CHUNK, dims, [k], seed)`` from this
checkout's ``src`` and checks the report with ``campaign_report`` from
``perfbench/checks.py``.  It prints one line per failing chunk, then one
summary line, and exits 1 when some chunk failed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import campaign_report  # noqa: E402
from inputs import (  # noqa: E402
    CAMPAIGN_CHUNK,
    CAMPAIGN_ORDERS,
    CAMPAIGN_POOL,
    CAMPAIGN_SIZES,
    campaign_pool,
)

from sphsep.harness import run_equivalence_campaign  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    chunks = failed = 0
    for k in CAMPAIGN_SIZES:
        for dims in CAMPAIGN_ORDERS:
            for seed in campaign_pool(k, dims).tolist():
                chunk = {"count": CAMPAIGN_CHUNK, "dims": dims, "sizes": [k], "seed": seed}
                rep = run_equivalence_campaign(CAMPAIGN_CHUNK, dims, [k], seed).to_dict()
                problems = campaign_report(chunk, rep)
                chunks += 1
                if problems:
                    failed += 1
                    print(f"k={k} dims={dims} seed={seed}: {'; '.join(problems)}")
    print(
        f"screened {chunks} campaign_pool chunks ({len(CAMPAIGN_SIZES)} sizes x "
        f"{len(CAMPAIGN_ORDERS)} lists x {CAMPAIGN_POOL}): {failed} failed the campaign "
        f"checks, {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
