import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

# One line per acceptance criterion, echoed in the terminal summary so a
# plain `pytest -v` run shows the verdicts without digging through nodes.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance():
    def record(criterion: int, label: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {criterion} ({label}): {verdict} — {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def equivalence_campaign():
    """The acceptance fuzz run, executed once through the real CLI.

    Criteria 1-5 all read off this single campaign: the report carries the
    agreement counts plus the per-disjoint-instance deep-check counters
    (witness soundness by direct dots, proof-path trace validity, wedge
    convexity grid, openness probe).
    """
    cmd = [
        sys.executable,
        "-m",
        "sphsep",
        "fuzz",
        "--count",
        "1000",
        "--dims",
        "1,2,3,5",
        "--sizes",
        "1..12",
        "--seed",
        "42",
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    assert proc.returncode in (0, 1), proc.stderr
    return {
        "report": json.loads(proc.stdout),
        "stdout": proc.stdout,
        "wall_s": wall,
        "exit": proc.returncode,
    }


@pytest.fixture
def solve_sites(monkeypatch):
    """The calling function of every lp.solve call made while the test
    runs, in order (solve as imported by convexity and separation)."""
    import sphsep.convexity
    import sphsep.separation
    from sphsep.lp import solve

    sites: list[str] = []

    def spy(lp, *args, **kwargs):
        sites.append(sys._getframe(1).f_code.co_name)
        return solve(lp, *args, **kwargs)

    for module in (sphsep.convexity, sphsep.separation):
        monkeypatch.setattr(module, "solve", spy)
    return sites
