import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from exomdp.cli import main as cli_main
from exomdp.core import InvalidMaskError, Mask
from exomdp.domains import build_preset
from exomdp.experiment import (
    ExperimentConfig,
    ResultRecord,
    apply_overrides,
    emit_report,
    load_config,
    modal_mask,
    run_experiment,
    run_trial,
    save_config,
    trial_seed,
)
from exomdp.search import MaskScore, SearchTrace, estimate_objective

TINY_FIT = dict(
    n_exo_rollouts=150, exo_horizon=25, n_full_rollouts=150, full_horizon=25
)


def tiny_config(**kwargs):
    base = dict(
        domain="gridworld-small",
        algorithm="fixed-mask",
        fixed_mask=[0, 2],
        lam=0.1,
        n_rollouts=60,
        mc_horizon=40,
        fit=dict(TINY_FIT),
        n_trials=2,
        master_seed=7,
        workers=1,
        out_dir="results",
    )
    base.update(kwargs)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = tiny_config(algorithm="correlational", fixed_mask=None)
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        save_config(loaded, tmp_path / "cfg2.yaml")
        assert load_config(tmp_path / "cfg2.yaml") == loaded

    def test_default_budgets(self):
        cfg = ExperimentConfig()
        assert cfg.n_rollouts == 500
        assert cfg.mi_threshold == 1e-5
        assert cfg.variance_threshold == 0.0
        assert cfg.vi_timeout == 60.0
        assert cfg.n_trials == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(algorithm="simulated-annealing")
        with pytest.raises(ValueError):
            tiny_config(lam=-1.0)
        with pytest.raises(ValueError):
            tiny_config(n_trials=0)
        with pytest.raises(ValueError):
            tiny_config(algorithm="fixed-mask", fixed_mask=None)
        with pytest.raises(KeyError):
            tiny_config(domain="warehouse-xl")
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"bogus_key": 1})

    def test_retired_screen_keys_load_with_one_warning(self, caplog):
        # the exact reward screen takes no sampling budget
        cfg = apply_overrides(tiny_config(), ["n_contexts=20", "n_settings=3"])
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert "n_contexts" in record.getMessage()
        assert "n_settings" in record.getMessage()
        assert cfg == tiny_config()
        assert cfg.config_hash() == tiny_config().config_hash()
        assert not {"n_contexts", "n_settings"} & set(cfg.to_dict())
        with pytest.raises(ValueError, match="bogus_key"):
            apply_overrides(tiny_config(), ["n_contexts=20", "bogus_key=1"])

    @pytest.mark.parametrize("config", ["gridworld_small", "factory_desk", "crowd_desk"])
    def test_shipped_config_loads_without_a_warning(self, config, caplog):
        # the shipped configs carry no retired key, so they load silently
        path = CONFIGS / f"{config}.yaml"
        assert not {"n_contexts", "n_settings"} & set(yaml.safe_load(path.read_text()))
        load_config(path)
        assert caplog.records == []

    def test_retired_key_warning_goes_to_stderr_only(self):
        code = (
            "from exomdp.experiment import ExperimentConfig\n"
            "ExperimentConfig.from_dict({'n_contexts': 20})\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert "n_contexts" in line

    @pytest.mark.parametrize("name", ["lam", "mi_threshold", "variance_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tiny_config(**{name: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("vi_epsilon", float("nan")),
            ("vi_epsilon", float("inf")),
            ("vi_epsilon", 0.0),
            ("vi_epsilon", -1.0),
            ("vi_timeout", float("nan")),
            ("vi_timeout", float("inf")),
            ("vi_timeout", 0.0),
            ("mc_horizon", 0),
            ("fit.smoothing", float("nan")),
            ("fit.smoothing", float("inf")),
            ("fit.smoothing", -1.0),
            ("fit.n_exo_rollouts", 0),
            ("fit.exo_horizon", 0),
            ("fit.n_full_rollouts", 0),
            ("fit.full_horizon", 0),
            # wrong types: each used to pass or fail with a TypeError
            ("n_rollouts", 2.5),
            ("n_rollouts", True),
            ("n_trials", "3"),
            ("workers", 1.0),
            ("mc_horizon", 40.0),
            ("master_seed", 7.5),
            ("fit.n_full_rollouts", 150.0),
            ("fit.exo_horizon", False),
            ("vi_epsilon", "NaN"),  # YAML reads a bare NaN as text
            ("vi_timeout", None),
            ("lam", True),
            ("mi_threshold", "0.1"),
            ("fit.smoothing", "0.5"),
        ],
    )
    def test_out_of_range_rejected(self, key, value):
        if key.startswith("fit."):
            kwargs = {"fit": {**TINY_FIT, key[4:]: value}}
        else:
            kwargs = {key: value}
        with pytest.raises(ValueError, match=f"{key} must be"):
            tiny_config(**kwargs)

    def test_negative_master_seed_refused_at_load(self):
        # it once passed, and run_trial then raised numpy's "expected
        # non-negative integer" out of run_experiment
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            tiny_config(master_seed=-1)
        assert tiny_config(master_seed=0).master_seed == 0

    @pytest.mark.parametrize(
        "mask", [[0, 0], [-1], [5], [9], [2, 1], [0.5], [True]],
        ids=["repeated", "negative", "m", "beyond", "unsorted", "real", "bool"],
    )
    def test_fixed_mask_outside_the_preset_refused_at_load(self, mask):
        # each once passed, and every trial then recorded an InvalidMaskError
        message = r"fixed_mask must be .*crowd-desk.*0\.\.4"
        with pytest.raises(ValueError, match=message):
            tiny_config(domain="crowd-desk", fixed_mask=mask)

    def test_fixed_mask_of_the_preset_accepted(self):
        cfg = tiny_config(domain="crowd-desk", fixed_mask=[0, 1, 2, 3, 4])
        assert cfg.fixed_mask == (0, 1, 2, 3, 4)
        assert tiny_config(domain="crowd-desk", fixed_mask=[]).fixed_mask == ()

    @pytest.mark.parametrize(
        "fit, named",
        [
            (5, "fit must be a mapping of budgets, got 5"),
            (None, "fit must be a mapping of budgets, got None"),
            ([150, 25], r"fit must be a mapping of budgets, got \[150, 25\]"),
            ({**TINY_FIT, "n_exo_rolouts": 150}, r"\['fit.n_exo_rolouts'\]"),
        ],
        ids=["int", "null", "list", "misspelt"],
    )
    def test_fit_that_is_not_a_budget_mapping_refused_at_load(self, fit, named):
        # each once raised an AttributeError or a TypeError instead
        with pytest.raises(ValueError, match=named):
            tiny_config(fit=fit)
        with pytest.raises(ValueError, match="fit.full_horzion"):
            apply_overrides(tiny_config(), ["fit.full_horzion=9"])

    @pytest.mark.parametrize(
        "overrides, named",
        [({"widht": 4}, "widht"), ({"width": 4, "hieght": 3}, "hieght"), ("x", "'x'"),
         (None, "None"), ([4], r"\[4\]")],
        ids=["misspelt", "one-of-two", "text", "null", "list"],
    )
    def test_domain_overrides_outside_the_spec_refused_at_load(
        self, overrides, named, monkeypatch
    ):
        # each once loaded, and every trial then failed to build its MDP;
        # the keys are checked against the spec's fields before any MDP is built
        import exomdp.domains as domains

        def refuse(*args):
            raise AssertionError("MDP built")

        spec = domains.PRESETS["gridworld-small"][0]
        searched = dict(algorithm="correlational", fixed_mask=None)
        message = rf"domain_overrides must map fields of the gridworld-small spec .*{named}"
        with monkeypatch.context() as patch:
            patch.setitem(domains.PRESETS, "gridworld-small", (spec, refuse))
            with pytest.raises(ValueError, match=message):
                tiny_config(**searched, domain_overrides=overrides)
        cfg = tiny_config(**searched, domain_overrides={"width": 6})
        assert cfg.domain_overrides == {"width": 6}
        with pytest.raises(ValueError, match="widht"):
            apply_overrides(cfg, ["domain_overrides.widht=4"])

    @pytest.mark.parametrize(
        "domain, overrides, named",
        [
            ("gridworld-small", {"width": "x"}, "not supported"),
            ("gridworld-small", {"width": 0}, "outside the 0x4 grid"),
            ("gridworld-small", {"n_exo_vars": 30}, "over the budget"),
            ("crowd-desk", {"discount": 5}, r"discount must be in \(0, 1\], got 5"),
            ("factory-desk", {"discount": 0}, r"discount must be in \(0, 1\], got 0"),
            ("factory-desk", {"task_flip_prob": 2.0}, r"task_flip_prob must be in \[0, 1\]"),
            ("factory-desk", {"n_task_vars": -1}, "n_task_vars must be >= 0, got -1"),
            ("factory-desk", {"n_distractors": -2}, "n_distractors must be >= 0, got -2"),
            ("crowd-desk", {"pickup_prob": 2}, r"pickup_prob must be in \[0, 1\], got 2"),
            ("crowd-desk", {"drop_prob": -0.5}, r"drop_prob must be in \[0, 1\]"),
            ("crowd-desk", {"agent_move_prob": float("nan")}, "agent_move_prob .* got nan"),
            ("crowd-desk", {"n_agents": -1}, "n_agents must be >= 0, got -1"),
            ("crowd-desk", {"width": -3, "height": -3}, "width must be >= 0, got -3"),
            ("crowd-desk", {"start_cell": 40}, "start_cell 40 outside the 3x3 grid"),
            ("crowd-desk", {"start_cell": -1}, "start_cell -1 outside the 3x3 grid"),
        ],
        ids=[
            "text-width", "zero-width", "too-many-vars", "crowd-discount",
            "factory-discount", "factory-flip", "factory-task-vars",
            "factory-distractors", "crowd-pickup", "crowd-drop", "crowd-move-nan",
            "crowd-agents", "crowd-negative-grid", "crowd-start-off-grid",
            "crowd-start-negative",
        ],
    )
    def test_domain_override_values_the_preset_refuses_refused_at_load(
        self, domain, overrides, named
    ):
        # each once loaded (the crowd one even built), and every trial then failed
        message = rf"domain_overrides {{.*}} do not build the {domain} preset: .*{named}"
        searched = dict(algorithm="correlational", fixed_mask=None)
        with pytest.raises(ValueError, match=message):
            tiny_config(**searched, domain=domain, domain_overrides=overrides)

    def test_mc_horizon_none_derives_the_horizon(self):
        assert tiny_config(mc_horizon=None).search_params().mc_horizon is None

    def test_apply_overrides_dotted(self):
        cfg = tiny_config()
        updated = apply_overrides(
            cfg, ["lam=0.5", "fit.n_exo_rollouts=99", "domain_overrides.goal_reward=2.0"]
        )
        assert updated.lam == 0.5
        assert updated.fit.n_exo_rollouts == 99
        assert updated.domain_overrides == {"goal_reward": 2.0}
        with pytest.raises(ValueError):
            apply_overrides(cfg, ["no-equals-sign"])

    def test_trial_seed_stable_under_trial_count(self):
        seeds_small = [trial_seed(3, i) for i in range(3)]
        seeds_large = [trial_seed(3, i) for i in range(10)]
        assert seeds_large[:3] == seeds_small
        # the formula it had before it became the search's stream derivation
        for master, trial in ((3, 0), (7, 9), (2**40, 3)):
            spawn = np.random.SeedSequence(master, spawn_key=(trial,))
            assert trial_seed(master, trial) == int(spawn.generate_state(1)[0])


class TestRunExperiment:
    def test_fixed_mask_passthrough(self, tmp_path):
        cfg = tiny_config(n_trials=1, lam=0.0, fixed_mask=[0, 1, 2, 3, 4])
        record = run_experiment(cfg, out_dir=tmp_path)
        assert len(record.trials) == 1
        row = record.trials[0]
        assert row.error is None
        assert row.mask == (0, 1, 2, 3, 4)
        # the recorded score is exactly estimate_objective at the trial seed
        mdp = build_preset(cfg.domain, cfg.domain_overrides, row.seed)
        expected = estimate_objective(
            mdp, Mask((0, 1, 2, 3, 4)), 0.0, cfg.search_params(), row.seed
        )
        assert row.score.mean_return == expected.mean_return
        assert row.score.objective == expected.objective

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config(algorithm="greedy", fixed_mask=None)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "results.json").read_bytes()
        b = (tmp_path / "b" / "results.json").read_bytes()
        assert a == b
        traces_a = sorted((tmp_path / "a" / "traces").glob("*.jsonl"))
        traces_b = sorted((tmp_path / "b" / "traces").glob("*.jsonl"))
        assert [t.name for t in traces_a] == [t.name for t in traces_b]
        for ta, tb in zip(traces_a, traces_b):
            assert ta.read_bytes() == tb.read_bytes()

    def test_failed_trial_recorded_and_run_continues(self, tmp_path, monkeypatch):
        import exomdp.experiment as experiment

        def refuse(*args):
            raise InvalidMaskError("mask refused")

        monkeypatch.setattr(experiment, "estimate_objective", refuse)
        record = run_experiment(tiny_config(), out_dir=tmp_path)
        assert len(record.trials) == 2
        assert all(row.error is not None for row in record.trials)
        agg = record.aggregates()
        assert agg["n_failed"] == 2
        assert agg["mean_return"] is None

    def test_aggregates_recomputable_from_rows(self, tmp_path):
        cfg = tiny_config(n_trials=3)
        record = run_experiment(cfg, out_dir=tmp_path)
        agg = record.aggregates()
        returns = [t.score.mean_return for t in record.trials if t.error is None]
        assert agg["mean_return"] == pytest.approx(float(np.mean(returns)), abs=0)
        assert agg["stderr_return"] == pytest.approx(
            float(np.std(returns, ddof=1) / np.sqrt(len(returns))), abs=0
        )

    def test_results_exclude_timing(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, out_dir=tmp_path)
        body = json.loads((tmp_path / "results.json").read_text())
        assert "wall_time" not in json.dumps(body)
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert set(timing) == {"mean_wall_time", "per_trial"}

    def test_record_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        record = run_experiment(cfg, out_dir=tmp_path)
        loaded = ResultRecord.from_json(record.to_json())
        assert loaded.config_hash == record.config_hash
        assert loaded.aggregates() == record.aggregates()

    def test_mask_score_round_trips_through_both_readers(self):
        config = tiny_config(algorithm="greedy", fixed_mask=None)
        row, trace_text = run_trial(config, 0)
        trace = SearchTrace.from_jsonl(trace_text)
        assert [e.score for e in trace.entries] == [
            e.score for e in SearchTrace.from_jsonl(trace.to_jsonl()).entries
        ]
        record = ResultRecord(config.to_dict(), config.config_hash(), [row])
        for timing in (False, True):
            loaded = ResultRecord.from_json(record.to_json(include_timing=timing))
            assert loaded.trials[0].score.to_dict() == row.score.to_dict()

    def test_records_with_a_score_wall_time_still_load(self):
        """A trace line and a ``results.json`` written when a score carried
        its own ``wall_time`` load with that key ignored, to equal scores."""
        score = {"mask": [0, 2], "objective": -0.5, "mean_return": -0.3,
                 "cost": 2.0, "lam": 0.1, "wall_time": 0.0123}
        expected = MaskScore(Mask((0, 2)), -0.5, -0.3, 2.0, 0.1)
        entry = {"iteration": 0, "mask": [0, 2], "mi_scores": None,
                 "accepted": True, "score": score}
        trace_text = json.dumps(entry, sort_keys=True) + "\n" + json.dumps(
            {"terminal_reason": "exhausted"}
        ) + "\n"
        trace = SearchTrace.from_jsonl(trace_text)
        assert [e.score for e in trace.entries] == [expected]
        assert trace.terminal_reason == "exhausted"
        config = tiny_config()
        body = {
            "config": config.to_dict(),
            "config_hash": config.config_hash(),
            "aggregates": {},
            "trials": [{"trial": 0, "seed": 5, "mask": [0, 2], "score": score,
                        "error": None, "wall_time": 0.5}],
        }
        [row] = ResultRecord.from_json(json.dumps(body)).trials
        assert row.score == expected
        assert row.score == MaskScore.of(Mask((0, 2)), -0.3, 0.1)
        assert row.score.to_dict() == {
            k: v for k, v in score.items() if k != "wall_time"
        }


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TINY_TRIAL = (
    "n_rollouts=20",
    "fit.n_exo_rollouts=100",
    "fit.exo_horizon=10",
    "fit.n_full_rollouts=100",
    "fit.full_horizon=10",
)


def _preset_trial_config(config, algorithm, *extra):
    """A shipped config at tiny budgets; brute force on the crowd runs with
    one agent, so over 2**4 masks instead of 2**5."""
    assignments = [f"algorithm={algorithm}", "master_seed=801", *TINY_TRIAL, *extra]
    if (config, algorithm) == ("crowd_desk", "brute-force"):
        assignments.append("domain_overrides={n_agents: 1}")
    return apply_overrides(load_config(CONFIGS / f"{config}.yaml"), assignments)


class TestPresetBuilds:
    def test_the_preset_is_built_once_per_domain_and_overrides(self, monkeypatch):
        """``load_config`` builds the preset to check it; ``apply_overrides``
        and a second ``validate`` reuse its variable count while domain and
        overrides are unchanged, and build again once either changes."""
        import exomdp.experiment as experiment

        built = []

        def counting(domain, overrides, *args):
            built.append((domain, dict(overrides)))
            return build_preset(domain, overrides, *args)

        monkeypatch.setattr(experiment, "build_preset", counting)
        cfg = load_config(CONFIGS / "crowd_desk.yaml")
        full = ["algorithm=fixed-mask", "fixed_mask=[0,1,2,3,4]", "lam=0.1"]
        cfg = apply_overrides(cfg, full)
        cfg.validate()
        assert built == [("crowd-desk", {})]
        # the fixed mask is still checked, against the recorded count
        with pytest.raises(ValueError, match="fixed_mask must be strictly increasing"):
            apply_overrides(cfg, ["fixed_mask=[0,5]"])
        assert len(built) == 1
        with pytest.raises(ValueError, match=r"variables 0\.\.3, got \[0, 1, 2, 3, 4\]"):
            apply_overrides(cfg, ["domain_overrides.n_agents=1"])
        one_agent = apply_overrides(cfg, ["domain_overrides.n_agents=1", "fixed_mask=[3]"])
        assert one_agent.fixed_mask == (3,)
        assert built[1:] == [("crowd-desk", {"n_agents": 1})] * 2
        # an override changed in place is built again at the next check
        cfg.domain_overrides["n_agents"] = 1
        with pytest.raises(ValueError, match=r"variables 0\.\.3"):
            cfg.validate()
        assert len(built) == 4


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workload definitions, read as they are."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


class TestSweepCounts:
    @pytest.mark.parametrize(
        "name, plans, sweeps", [("grid-brute", 32, 228), ("crowd-full", 1, 26)]
    )
    def test_benchmark_sweeps_are_pinned(self, workloads, monkeypatch, name, plans, sweeps):
        """Value-iteration sweeps in trial 0 of two benchmark workloads at
        master seed 31: over grid-brute's 32 fitted masks (under
        ``ANDERSON_MIN_STATES`` states each, so plain sweeps) and on
        crowd-full's full mask (60 in plain sweeps). The former max-norm stop
        took 455 and 91."""
        import exomdp.search as search

        solve, counts = search.value_iteration, []

        def counting(*args, **kwargs):
            plan = solve(*args, **kwargs)
            counts.append(len(plan.residuals))
            return plan

        monkeypatch.setattr(search, "value_iteration", counting)
        config = workloads.make_config(CONFIGS.parent, workloads.WORKLOADS[name], 31)
        row, _ = run_trial(config, 0)
        assert row.error is None
        assert (len(counts), sum(counts)) == (plans, sweeps)


class TestScoreOnce:
    @pytest.mark.parametrize("algorithm", ["brute-force", "greedy", "correlational"])
    @pytest.mark.parametrize("config", ["gridworld_small", "factory_desk", "crowd_desk"])
    def test_final_score_is_the_trace_entry(self, config, algorithm):
        row, trace_text = run_trial(_preset_trial_config(config, algorithm), 0)
        assert row.error is None
        entries = [
            e.score.to_dict()
            for e in SearchTrace.from_jsonl(trace_text).entries
            if e.score is not None and e.mask.included == row.mask
        ]
        assert entries and all(e == row.score.to_dict() for e in entries)

    @pytest.mark.parametrize(
        "algorithm",
        ["brute-force", "greedy", "correlational", "first-phase-only", "fixed-mask"],
    )
    def test_one_collection_and_one_score_per_mask(self, monkeypatch, algorithm):
        import exomdp.search as search

        # every collection, a search's or a fixed mask's, fits from these,
        # and every score's mean return comes from one of the two Monte
        # Carlo passes: the search datasets' batch, or a fixed mask's own
        collections, scored = [], []
        collect = search._collect_fit_datasets
        batch, alone = search.SearchDatasets.monte_carlo_values, search.monte_carlo_value

        def counting_collect(*args, **kwargs):
            collections.append(args)
            return collect(*args, **kwargs)

        def counting_batch(self, mdp, policies, *args):
            scored.extend(p.mask for p in policies)
            return batch(self, mdp, policies, *args)

        def counting_alone(mdp, policy, *args):
            scored.append(policy.mask)
            return alone(mdp, policy, *args)

        monkeypatch.setattr(search, "_collect_fit_datasets", counting_collect)
        monkeypatch.setattr(search.SearchDatasets, "monte_carlo_values", counting_batch)
        monkeypatch.setattr(search, "monte_carlo_value", counting_alone)
        config = _preset_trial_config(
            "gridworld_small", algorithm, "fixed_mask=[0,2]", "n_trials=2"
        )
        for trial in range(config.n_trials):
            collections.clear()
            scored.clear()
            row, trace_text = run_trial(config, trial)
            assert row.error is None
            searched = {
                e.mask for e in SearchTrace.from_jsonl(trace_text).entries if e.score
            }
            assert len(collections) == 1
            assert len(scored) == len(set(scored))
            assert set(scored) == searched | {Mask(row.mask)}


    @pytest.mark.parametrize("config", ["gridworld_small", "factory_desk", "crowd_desk"])
    def test_first_phase_mask_is_the_correlational_start(self, config):
        """first-phase-only's mask, and its score, are entry 0 of the
        correlational trace of the same trial."""
        def trial(algorithm):
            return run_trial(_preset_trial_config(config, algorithm), 0)

        row, trace_text = trial("first-phase-only")
        assert row.error is None
        assert SearchTrace.from_jsonl(trace_text).terminal_reason == "exhausted"
        _, trace_text = trial("correlational")
        start = SearchTrace.from_jsonl(trace_text).entries[0]
        assert start.mask.included == row.mask
        assert start.score.to_dict() == row.score.to_dict()


class TestModalMask:
    def test_mode_with_tie_break(self):
        masks = [(0,), (0, 1), (0, 1), (2,), (2,)]
        assert modal_mask(masks) == [2]  # count tie: smaller mask wins
        assert modal_mask([]) is None
        assert modal_mask([None, (1,)]) == [1]


class TestReports:
    def _record(self, tmp_path):
        return run_experiment(tiny_config(), out_dir=tmp_path)

    def test_empty_records_header_only(self):
        text = emit_report([], "csv")
        assert text.splitlines() == [
            "algorithm,domain,lam,n_trials,n_failed,mean_return,stderr_return,"
            "mean_objective,modal_mask,mean_wall_time"
        ]

    def test_single_record_row(self, tmp_path):
        record = self._record(tmp_path)
        text = emit_report([record], "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("fixed-mask,gridworld-small,0.1,2,0,")

    def test_json_and_markdown_formats(self, tmp_path):
        record = self._record(tmp_path)
        rows = json.loads(emit_report([record], "json"))
        assert rows[0]["algorithm"] == "fixed-mask"
        md = emit_report([record], "markdown-table")
        assert md.startswith("| algorithm |")
        assert "fixed-mask" in md

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")

    def test_curve_shows_cost_driven_stop(self):
        # the search can stop on a regularizer-driven objective decrease
        # even though the raw return still rises; the emitted curve data
        # must expose that shape
        import sys

        sys.path.insert(0, "tests")
        from test_search import QUICK, chase_mdp

        from exomdp.experiment import curve_rows
        from exomdp.search import mask_correlational

        mdp = chase_mdp(m_extra=1, driver=True)
        _, trace = mask_correlational(mdp, 0.01, 0.0, 5.0, QUICK, seed=0)
        assert trace.terminal_reason == "objective-decreased"
        rows = curve_rows(trace)
        assert [r["mask_size"] for r in rows] == [1, 2]
        peak, rejected = rows[-2], rows[-1]
        assert rejected["objective"] < peak["objective"]
        assert rejected["mean_return"] >= peak["mean_return"]
        assert not rejected["accepted"]


class TestCli:
    def test_list_presets(self, capsys):
        assert cli_main(["list-presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["crowd-desk", "factory-desk", "gridworld-small"]

    def test_verify_quick(self, capsys):
        assert cli_main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6
        assert all(line.startswith("PASS  ") for line in out), out

    def test_run_and_report(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg_path = tmp_path / "exp.yaml"
        save_config(cfg, cfg_path)
        out_dir = tmp_path / "out"
        code = cli_main(
            ["run", str(cfg_path), "--out", str(out_dir), "--trials", "1"]
        )
        assert code == 0
        assert (out_dir / "results.json").exists()
        report_path = tmp_path / "report.csv"
        code = cli_main(
            ["report", str(out_dir / "results.json"), "--format", "csv",
             "--out", str(report_path)]
        )
        assert code == 0
        assert report_path.read_text().count("\n") == 2

    def test_machine_readable_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"algorithm": "nope"}))
        code = cli_main(["run", str(bad)])
        assert code != 0
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}

    def test_set_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.yaml"
        save_config(tiny_config(), cfg_path)
        out_dir = tmp_path / "out"
        code = cli_main(
            [
                "run", str(cfg_path),
                "--out", str(out_dir),
                "--set", "n_rollouts=30",
                "--set", "fixed_mask=[0]",
            ]
        )
        assert code == 0
        body = json.loads((out_dir / "results.json").read_text())
        assert body["config"]["n_rollouts"] == 30
        assert body["config"]["fixed_mask"] == [0]


class TestWorkers:
    def test_parallel_matches_serial(self, tmp_path):
        cfg = tiny_config(n_trials=2)
        serial = run_experiment(cfg, out_dir=tmp_path / "serial")
        cfg2 = tiny_config(n_trials=2, workers=2)
        parallel = run_experiment(cfg2, out_dir=tmp_path / "parallel")
        for a, b in zip(serial.trials, parallel.trials):
            assert a.seed == b.seed
            assert a.mask == b.mask
            assert a.score.objective == b.score.objective
