"""Span recorder that times the calls into exomdp's layers from outside.

``SpanRecorder.install`` wraps each function in ``TARGETS`` in every
``exomdp`` namespace that binds it: ``from .x import y`` copies the name,
so patching only the defining module would miss calls made through
``exomdp.search`` or ``exomdp.experiment``. Spans stay in memory (name,
start, end, parent, trial id and work counts read from the call's
arguments and result) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict


def _steps(args, result):
    return {"steps": args["n_rollouts"] * args["horizon"]}


def _sweeps(args, result):
    return {"sweeps": len(result.residuals), "unconverged": int(not result.converged)}


def _table_bytes(args, result):
    arrays = (result.endo_table, result.exo_table, result.reward_table)
    return {"table_bytes": sum(a.nbytes for a in arrays)}


def _mask(args, result):
    return {"mask": list(args["mask"].included)}


# (module, function, work counts taken from the bound arguments and result)
TARGETS = (
    ("experiment", "run_trial", None),
    ("search", "collect_search_datasets", None),
    ("search", "estimate_objective", _mask),
    ("search", "mask_brute_force", None),
    ("search", "mask_correlational", None),
    ("estimation", "collect_exo_rollouts", _steps),
    ("estimation", "collect_full_rollouts", _steps),
    ("estimation", "fit_reduced_mdp", _table_bytes),
    ("estimation", "transition_mutual_information", None),
    ("estimation", "estimate_reward_variables", None),
    ("planner", "value_iteration", _sweeps),
    ("planner", "monte_carlo_value", _steps),
    ("domains", "build_preset", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "counts")

    def __init__(self, name, start, parent, trial):
        self.name, self.start, self.parent, self.trial = name, start, parent, trial
        self.end = None
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects one span per call into a traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, name, measure in TARGETS:
            original = getattr(importlib.import_module(f"exomdp.{module}"), name)
            wrapper = self._wrap(f"{module}.{name}", original, measure)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "exomdp" and not mod_name.startswith("exomdp."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, span_name, fn, measure):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                span_name,
                time.perf_counter(),
                self._open[-1] if self._open else None,
                self.trial,
            )
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = measure(bound.arguments, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Calls run on one thread, so the children of a span never overlap
        and the time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write(self, path, t0: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                row = {
                    "name": span.name,
                    "trial": span.trial,
                    "parent": span.parent,
                    "start": span.start - t0,
                    "end": span.end - t0,
                    "self": self_s,
                    **span.counts,
                }
                fh.write(json.dumps(row) + "\n")


def _ratio(work, base) -> float:
    return work / base if base else 0.0


def _trial_layers(spans, self_times) -> dict[str, float]:
    """Per-layer metrics of one trial's spans."""
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    masks = set()
    search_self = 0.0
    for span, self_s in zip(spans, self_times):
        total[span.name] += span.duration
        calls[span.name] += 1
        for key, value in span.counts.items():
            if key == "mask":
                masks.add(tuple(value))
            else:
                counts[span.name, key] += value
        if span.name.startswith("search."):
            search_self += self_s

    out = {}
    for key, name in (
        ("collect_exo", "estimation.collect_exo_rollouts"),
        ("collect_full", "estimation.collect_full_rollouts"),
    ):
        out[f"estimation.{key}.s"] = total[name]
        out[f"estimation.{key}.steps"] = counts[name, "steps"]
        out[f"estimation.{key}.steps_per_s"] = _ratio(counts[name, "steps"], total[name])
    mc = "planner.monte_carlo_value"
    out["planner.mc.s"] = total[mc]
    out["planner.mc.steps"] = counts[mc, "steps"]
    out["planner.mc.steps_per_s"] = _ratio(counts[mc, "steps"], total[mc])
    vi = "planner.value_iteration"
    out["planner.vi.s"] = total[vi]
    out["planner.vi.sweeps"] = counts[vi, "sweeps"]
    out["planner.vi.s_per_sweep"] = _ratio(total[vi], counts[vi, "sweeps"])
    out["planner.vi.unconverged"] = counts[vi, "unconverged"]
    fit = "estimation.fit_reduced_mdp"
    out["estimation.fit.s"] = total[fit]
    out["estimation.fit.calls"] = calls[fit]
    out["estimation.fit.table_mb"] = counts[fit, "table_bytes"] / 1e6
    out["estimation.mi.s"] = total["estimation.transition_mutual_information"]
    out["estimation.mi.calls"] = calls["estimation.transition_mutual_information"]
    out["estimation.screen.s"] = total["estimation.estimate_reward_variables"]
    objective_calls = calls["search.estimate_objective"]
    out["search.estimate_objective.calls"] = objective_calls
    out["search.distinct_masks"] = len(masks)
    out["search.score_reuse"] = _ratio(len(masks), objective_calls)
    out["search.collect_datasets.calls"] = calls["search.collect_search_datasets"]
    out["search.self_s"] = search_self
    out["domains.build_preset.s"] = total["domains.build_preset"]
    out["experiment.trial_s"] = total["experiment.run_trial"]
    return out


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Median over trials of each per-layer metric.

    Raises ``ValueError`` if any span's self time is negative, which would
    mean the spans do not nest.
    """
    self_times = recorder.self_times()
    negative = [s.name for s, t in zip(recorder.spans, self_times) if t < 0]
    if negative:
        raise ValueError(f"negative self time in spans {sorted(set(negative))}")
    by_trial = defaultdict(lambda: ([], []))
    for span, self_s in zip(recorder.spans, self_times):
        if span.trial is not None:
            by_trial[span.trial][0].append(span)
            by_trial[span.trial][1].append(self_s)
    per_trial = [_trial_layers(*by_trial[t]) for t in sorted(by_trial)]
    return {
        key: statistics.median(trial[key] for trial in per_trial)
        for key in per_trial[0]
    }
