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
    (dual certificates, returned proof paths, wedge convexity grid,
    openness probe).
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


@pytest.fixture(scope="session")
def campaign_rerun(equivalence_campaign):
    """The acceptance campaign rerun in-process, with spies on the
    dual_witness and proof_path_witness that the harness calls; its report
    must equal the CLI run's, so what they saw is behind that report.

    "dual" holds every dual certificate as (certificate, body-1 generators,
    body-2 generators), "proof_path" every returned proof path as
    (certificate, trace, body-1 generators, body-2 generators), each in
    campaign order.
    """
    import sphsep.harness
    from sphsep.harness import run_equivalence_campaign

    dual_witness = sphsep.harness.dual_witness
    proof_path_witness = sphsep.harness.proof_path_witness
    seen = {"dual": [], "proof_path": []}

    def dual_spy(b1, b2, *args, **kwargs):
        cert = dual_witness(b1, b2, *args, **kwargs)
        seen["dual"].append((cert, b1.generators, b2.generators))
        return cert

    def proof_path_spy(b1, b2, *args, **kwargs):
        cert, trace = proof_path_witness(b1, b2, *args, **kwargs)
        seen["proof_path"].append((cert, trace, b1.generators, b2.generators))
        return cert, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphsep.harness, "dual_witness", dual_spy)
        mp.setattr(sphsep.harness, "proof_path_witness", proof_path_spy)
        report = run_equivalence_campaign(1000, [1, 2, 3, 5], list(range(1, 13)), 42)
    assert report.to_dict() == equivalence_campaign["report"]
    return seen


@pytest.fixture(scope="session")
def campaign_certificates(campaign_rerun):
    """Every dual certificate of the acceptance campaign, as (certificate,
    body-1 generators, body-2 generators), in campaign order."""
    return campaign_rerun["dual"]


@pytest.fixture(scope="session")
def campaign_proof_paths(campaign_rerun):
    """Every proof path of the acceptance campaign that returned, as
    (certificate, trace, body-1 generators, body-2 generators), in campaign
    order."""
    return campaign_rerun["proof_path"]


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
