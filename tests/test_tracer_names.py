"""The names the benchmark's tracer looks up in sphsep, pinned.

perfbench/tracer.py finds the functions it wraps by module and attribute
name, and labels each lp.solve call by the name of its calling function.
A rename in src/ does not break the benchmark: the tracer skips a target
it cannot find and labels an unknown caller by its own name, so the
per-layer metric just reads 0.  These tests load the tracer by path, as
it is, and pin what resolves today, so that a rename shows here first.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from sphsep.cli import main
from sphsep.harness import run_equivalence_campaign

_TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"

# targets of the tracer that name no function of sphsep any more
_DEAD_TARGETS = ["convexity.fatten", "convexity.pullback", "convexity.project", "harness.generate"]

# every function that calls lp.solve
_SOLVE_CALLERS = {
    "hemisphericity_witness",
    "primal_intersect",
    "dual_witness",
    "_separating_hyperplane_contracted",
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_but_the_known_dead_ones(tracer):
    # the tracer looks its targets up in sys.modules, where importing
    # sphsep.cli and sphsep.harness above has put every sphsep module
    spans = tracer.Tracer()
    spans.install()
    try:
        assert spans.absent == _DEAD_TARGETS
    finally:
        spans.uninstall()


def test_lp_solve_callers_are_pinned(tracer, tmp_path, capsys, solve_sites):
    # a short campaign runs the dual and cone LPs and the hull separations;
    # every generator sum of its caps is a pole, so an intersecting pair
    # with a lopsided body 1 (its sum is no pole) adds the hemisphericity LP
    run_equivalence_campaign(8, [1, 2, 3], [3, 5], seed=9)
    angles = [0.0, 0.01, 0.02, 0.03, 0.04, 2.0]
    doc = {
        "n": 1,
        "w1": [[float(x) for x in (np.cos(a), np.sin(a))] for a in angles],
        "w2": [[float(np.cos(1.0)), float(np.sin(1.0))]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["witness", str(path), "--method", "lp"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "intersecting"
    assert set(solve_sites) == _SOLVE_CALLERS
    # the tracer labels all but the hull separations, whose LPs it files
    # under their caller's own name, so lp.hull_sep_contracted reads 0
    assert _SOLVE_CALLERS - tracer.SITES.keys() == {"_separating_hyperplane_contracted"}
