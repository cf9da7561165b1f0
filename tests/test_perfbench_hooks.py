"""perfbench's span recorder still finds every function it times and reads
the arguments and results it counts.

``perfbench/spans.py`` wraps its ``TARGETS`` by module and name and counts
work from their bound arguments and results; a renamed function or
argument would silently zero a per-layer metric rather than fail the
benchmark. These tests read that file as it is and change nothing in it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from exomdp.core import Mask
from exomdp.search import FitBudget, SearchParams

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(spans):
    """``(qualified name, function, measure)`` of every target."""
    for module, name, measure in spans.TARGETS:
        yield f"exomdp.{module}.{name}", getattr(
            importlib.import_module(f"exomdp.{module}"), name, None
        ), measure


def test_every_target_exists(spans):
    assert len(spans.TARGETS) >= 13
    for qualified, function, _ in targets(spans):
        assert callable(function), f"{qualified} is gone"


def test_every_counted_argument_is_in_its_signature(spans):
    wants = {spans._steps: {"n_rollouts", "horizon"}, spans._mask: {"mask"}}
    counted = set()
    for qualified, function, measure in targets(spans):
        if measure in wants:
            counted.add(qualified)
            assert wants[measure] <= set(inspect.signature(function).parameters), qualified
    assert counted >= {
        "exomdp.estimation.collect_exo_rollouts",
        "exomdp.estimation.collect_full_rollouts",
        "exomdp.planner.monte_carlo_value",
        "exomdp.search.estimate_objective",
    }


def test_the_recorder_counts_every_measured_layer(spans):
    import exomdp.domains as domains
    import exomdp.estimation as estimation
    import exomdp.planner as planner
    import exomdp.search as search

    params = SearchParams(
        n_rollouts=5,
        mc_horizon=6,
        fit=FitBudget(n_exo_rollouts=4, exo_horizon=3, n_full_rollouts=2, full_horizon=5),
    )
    recorder = spans.SpanRecorder()
    recorder.install()
    try:  # through the module attributes, which the recorder wraps
        mdp = domains.build_preset("gridworld-small")
        exo = estimation.collect_exo_rollouts(mdp, 3, 4, seed=0)
        full = estimation.collect_full_rollouts(mdp, None, 2, 5, seed=1)
        model = estimation.fit_reduced_mdp(mdp, Mask((0,)), exo, full)
        plan = planner.value_iteration(model)
        planner.monte_carlo_value(mdp, plan.policy, 5, 6, seed=2)
        search.estimate_objective(mdp, Mask((0, 2)), 0.1, params, seed=3)
    finally:
        recorder.uninstall()
    counts = {}
    for span in recorder.spans:
        counts.setdefault(span.name, []).append(span.counts)
    assert counts["estimation.collect_exo_rollouts"] == [{"steps": 12}, {"steps": 12}]
    assert counts["estimation.collect_full_rollouts"] == [{"steps": 10}, {"steps": 10}]
    tables = (model.endo_table, model.exo_table, model.reward_table)
    assert counts["estimation.fit_reduced_mdp"][0] == {
        "table_bytes": sum(t.nbytes for t in tables)
    }
    sweeps = counts["planner.value_iteration"][0]
    assert sweeps == {"sweeps": len(plan.residuals), "unconverged": int(not plan.converged)}
    assert counts["planner.monte_carlo_value"] == [{"steps": 30}, {"steps": 30}]
    assert counts["search.estimate_objective"] == [{"mask": [0, 2]}]
