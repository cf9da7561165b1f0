"""Config-driven experiment runs, result records, and report emission.

A run executes one mask-learning algorithm for ``n_trials`` independent
trials, each with a seed derived from the master seed by trial index (so
growing the trial count never reshuffles earlier trials), and records the
chosen masks and their scores. Result files are byte-identical across
reruns of the same config and master seed; wall-clock timings, which can
never be deterministic, go to a separate timing file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .core import Mask
from .domains import build_preset, list_presets
from .estimation import estimate_reward_variables
from .search import (
    FitBudget,
    MaskScore,
    SearchParams,
    SearchTrace,
    estimate_objective,
    mask_brute_force,
    mask_correlational,
    mask_greedy,
)

ALGORITHMS = (
    "brute-force",
    "greedy",
    "correlational",
    "first-phase-only",
    "fixed-mask",
)

WORKERS_ENV_VAR = "EXOMDP_WORKERS"


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment."""

    domain: str = "gridworld-small"
    domain_overrides: dict = field(default_factory=dict)
    algorithm: str = "correlational"
    fixed_mask: tuple[int, ...] | None = None
    lam: float = 0.25
    n_rollouts: int = 500
    mi_threshold: float = 1e-5
    variance_threshold: float = 0.0
    n_contexts: int = 250
    n_settings: int = 5
    vi_epsilon: float = 1e-4
    vi_timeout: float = 60.0
    mc_horizon: int | None = None
    fit: FitBudget = field(default_factory=FitBudget)
    n_trials: int = 50
    master_seed: int = 0
    workers: int = 1
    out_dir: str = "results"

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.algorithm == "fixed-mask" and self.fixed_mask is None:
            raise ValueError("fixed-mask runs need a fixed_mask")
        for name in ("lam", "mi_threshold", "variance_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        for name in ("n_rollouts", "n_contexts", "n_settings", "n_trials", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.domain not in list_presets():
            raise KeyError(f"unknown domain preset {self.domain!r}")

    def search_params(self) -> SearchParams:
        return SearchParams(
            n_rollouts=self.n_rollouts,
            mc_horizon=self.mc_horizon,
            fit=self.fit,
            vi_epsilon=self.vi_epsilon,
            vi_timeout=self.vi_timeout,
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["fixed_mask"] = (
            list(self.fixed_mask) if self.fixed_mask is not None else None
        )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        fit = data.pop("fit", {})
        fixed = data.pop("fixed_mask", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.fit = FitBudget(**fit) if isinstance(fit, dict) else fit
        cfg.fixed_mask = tuple(fixed) if fixed is not None else None
        cfg.validate()
        return cfg

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    return ExperimentConfig.from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)


def apply_overrides(cfg: ExperimentConfig, assignments: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` CLI overrides (dotted keys reach nested fields)."""
    data = cfg.to_dict()
    for assignment in assignments:
        key, _, raw = assignment.partition("=")
        if not _:
            raise ValueError(f"override {assignment!r} is not of the form key=value")
        value = yaml.safe_load(raw)
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return ExperimentConfig.from_dict(data)


def trial_seed(master_seed: int, trial: int) -> int:
    """Counter-based trial seed: stable when the trial count changes."""
    return int(
        np.random.SeedSequence(master_seed, spawn_key=(trial,)).generate_state(1)[0]
    )


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    mask: tuple[int, ...] | None
    score: MaskScore | None
    wall_time: float
    error: str | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "trial": self.trial,
            "seed": self.seed,
            "mask": list(self.mask) if self.mask is not None else None,
            "score": self.score.to_dict() if self.score is not None else None,
            "error": self.error,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


@dataclass
class ResultRecord:
    """All trials of one experiment plus recomputable aggregates."""

    config: dict
    config_hash: str
    trials: list[TrialRow]

    def ok_trials(self) -> list[TrialRow]:
        return [t for t in self.trials if t.error is None]

    def aggregates(self) -> dict:
        ok = self.ok_trials()
        returns = [t.score.mean_return for t in ok]
        objectives = [t.score.objective for t in ok]
        masks = [t.mask for t in ok]
        agg = {
            "n_trials": len(self.trials),
            "n_failed": len(self.trials) - len(ok),
            "mean_return": float(np.mean(returns)) if returns else None,
            "stderr_return": (
                float(np.std(returns, ddof=1) / np.sqrt(len(returns)))
                if len(returns) > 1
                else None
            ),
            "mean_objective": float(np.mean(objectives)) if objectives else None,
            "modal_mask": modal_mask(masks),
            "mask_counts": {
                str(list(mask)): count
                for mask, count in sorted(Counter(masks).items())
            },
        }
        return agg

    def mean_wall_time(self) -> float | None:
        ok = self.ok_trials()
        return float(np.mean([t.wall_time for t in ok])) if ok else None

    def to_json(self, include_timing: bool = False) -> str:
        body = {
            "config": self.config,
            "config_hash": self.config_hash,
            "aggregates": self.aggregates(),
            "trials": [t.to_dict(include_timing) for t in self.trials],
        }
        if include_timing:
            body["mean_wall_time"] = self.mean_wall_time()
        return json.dumps(body, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        body = json.loads(text)
        trials = []
        for row in body["trials"]:
            score = row["score"]
            trials.append(
                TrialRow(
                    trial=row["trial"],
                    seed=row["seed"],
                    mask=tuple(row["mask"]) if row["mask"] is not None else None,
                    score=(
                        MaskScore(
                            mask=Mask(tuple(score["mask"])),
                            objective=score["objective"],
                            mean_return=score["mean_return"],
                            cost=score["cost"],
                            lam=score["lam"],
                            wall_time=score.get("wall_time", 0.0),
                        )
                        if score is not None
                        else None
                    ),
                    wall_time=row.get("wall_time", 0.0),
                    error=row["error"],
                )
            )
        return cls(
            config=body["config"], config_hash=body["config_hash"], trials=trials
        )


def modal_mask(masks: list[tuple[int, ...] | None]) -> list[int] | None:
    """Most frequent mask; ties break toward smaller, then lexicographic."""
    masks = [m for m in masks if m is not None]
    if not masks:
        return None
    counts = Counter(masks)
    best = min(counts.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
    return list(best[0])


def run_trial(config: ExperimentConfig, trial: int) -> tuple[TrialRow, str]:
    """Run one trial; returns its row and the serialized search trace."""
    seed = trial_seed(config.master_seed, trial)
    params = config.search_params()
    t0 = time.perf_counter()
    try:
        mdp = build_preset(config.domain, config.domain_overrides, seed)
        t0 = time.perf_counter()  # wall time covers the mask search only
        algorithm = config.algorithm
        if algorithm == "brute-force":
            mask, trace = mask_brute_force(mdp, config.lam, params, seed)
        elif algorithm == "greedy":
            mask, trace = mask_greedy(mdp, config.lam, params, seed)
        elif algorithm == "correlational":
            mask, trace = mask_correlational(
                mdp,
                config.mi_threshold,
                config.variance_threshold,
                config.n_contexts,
                config.n_settings,
                config.lam,
                params,
                seed,
            )
        elif algorithm == "first-phase-only":
            from .search import derive_seed

            mask = estimate_reward_variables(
                mdp,
                config.variance_threshold,
                config.n_contexts,
                config.n_settings,
                seed=derive_seed(seed, 3),
            )
            trace = SearchTrace(terminal_reason="exhausted")
        else:  # fixed-mask
            mask = Mask(tuple(config.fixed_mask or ()))
            trace = SearchTrace(terminal_reason="exhausted")
        wall = time.perf_counter() - t0
        score = estimate_objective(mdp, mask, config.lam, params, seed)
        row = TrialRow(
            trial=trial,
            seed=seed,
            mask=mask.included,
            score=score,
            wall_time=wall,
        )
        return row, trace.to_jsonl()
    except Exception as exc:  # noqa: BLE001 - any component error fails the trial
        row = TrialRow(
            trial=trial,
            seed=seed,
            mask=None,
            score=None,
            wall_time=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )
        return row, ""


def _run_trial_from_dict(payload: tuple[dict, int]) -> tuple[TrialRow, str]:
    data, trial = payload
    return run_trial(ExperimentConfig.from_dict(data), trial)


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ResultRecord:
    """Run every trial, write result artifacts, and return the record.

    Writes ``results.json`` (deterministic: no timing), ``timing.json``
    (wall-clock figures), and one search trace per trial under ``traces/``.
    Trials run in parallel when ``config.workers > 1`` (or the
    ``EXOMDP_WORKERS`` environment variable overrides it); rows merge in
    trial order either way.
    """
    config.validate()
    raw = os.environ.get(WORKERS_ENV_VAR)
    try:
        workers = config.workers if raw is None else int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}")
    indices = list(range(config.n_trials))
    if workers > 1:
        payloads = [(config.to_dict(), i) for i in indices]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial_from_dict, payloads))
    else:
        outcomes = [run_trial(config, i) for i in indices]
    record = ResultRecord(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        trials=[row for row, _ in outcomes],
    )
    target = Path(out_dir if out_dir is not None else config.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    (target / "results.json").write_text(record.to_json(include_timing=False))
    timing = {
        "mean_wall_time": record.mean_wall_time(),
        "per_trial": {str(r.trial): r.wall_time for r in record.trials},
    }
    (target / "timing.json").write_text(json.dumps(timing, sort_keys=True, indent=1))
    traces = target / "traces"
    traces.mkdir(exist_ok=True)
    for (row, trace_text) in outcomes:
        if trace_text:
            (traces / f"trial_{row.trial:04d}.jsonl").write_text(trace_text)
    return record


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_COLUMNS = (
    "algorithm",
    "domain",
    "lam",
    "n_trials",
    "n_failed",
    "mean_return",
    "stderr_return",
    "mean_objective",
    "modal_mask",
    "mean_wall_time",
)


def _report_rows(records: list[ResultRecord]) -> list[dict]:
    rows = []
    for record in records:
        agg = record.aggregates()
        rows.append(
            {
                "algorithm": record.config["algorithm"],
                "domain": record.config["domain"],
                "lam": record.config["lam"],
                "n_trials": agg["n_trials"],
                "n_failed": agg["n_failed"],
                "mean_return": agg["mean_return"],
                "stderr_return": agg["stderr_return"],
                "mean_objective": agg["mean_objective"],
                "modal_mask": agg["modal_mask"],
                "mean_wall_time": record.mean_wall_time(),
            }
        )
    return rows


def curve_rows(trace: SearchTrace) -> list[dict]:
    """Per-iteration objective curve (mask size against scores)."""
    rows = []
    for entry in trace.entries:
        if entry.score is None:
            continue
        rows.append(
            {
                "iteration": entry.iteration,
                "mask_size": len(entry.mask),
                "objective": entry.score.objective,
                "mean_return": entry.score.mean_return,
                "accepted": entry.accepted,
            }
        )
    return rows


def emit_report(
    records: list[ResultRecord],
    fmt: str = "markdown-table",
    out_path: str | Path | None = None,
    traces: list[SearchTrace] | None = None,
) -> str:
    """Render the comparison table; optionally write it (plus curve data).

    ``fmt`` is one of ``csv``, ``json``, ``markdown-table``.
    """
    rows = _report_rows(records)
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for row in rows:
            lines.append(
                ",".join(_csv_cell(row[c]) for c in REPORT_COLUMNS)
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(rows, sort_keys=True, indent=1) + "\n"
    elif fmt == "markdown-table":
        header = "| " + " | ".join(REPORT_COLUMNS) + " |"
        sep = "|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|"
        lines = [header, sep]
        for row in rows:
            lines.append(
                "| " + " | ".join(_md_cell(row[c]) for c in REPORT_COLUMNS) + " |"
            )
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
        if traces:
            curve_lines = ["record,iteration,mask_size,objective,mean_return,accepted"]
            for k, trace in enumerate(traces):
                for row in curve_rows(trace):
                    curve_lines.append(
                        f"{k},{row['iteration']},{row['mask_size']},"
                        f"{row['objective']!r},{row['mean_return']!r},"
                        f"{int(row['accepted'])}"
                    )
            out_path.with_name(out_path.stem + "_curves.csv").write_text(
                "\n".join(curve_lines) + "\n"
            )
    return text


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return '"' + " ".join(map(str, value)) + '"'
    return str(value)


def _md_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "{" + " ".join(map(str, value)) + "}"
    return str(value)
