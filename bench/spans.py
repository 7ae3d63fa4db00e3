"""Tracing for the benchmark's traced run, kept outside the program.

`install` wraps each public function of `expma_lab` where its caller looks
it up (a module attribute, or a strategy class's `weights` method), so the
program runs unchanged. Each call records a span: name, start, end, parent
and invocation id, plus counters taken from its arguments and result.
`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import replace

# Largest self-financing residual a ledger may show (ROADMAP behaviour contract).
RESIDUAL_LIMIT = 1e-10
# Paths per block when checking residuals, so the check adds little memory.
RESIDUAL_BLOCK = 1000

STRATEGY_KINDS = ("ConstantAffine", "TimeVaryingAffine", "NonlinearFilter")

# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "cli.import_s": "s",
    "experiments.run_experiment_s": "s",
    "experiments.run_experiment_self_s": "s",
    "experiments.build_strategies_s": "s",
    "experiments.emit_s": "s",
    "experiments.emit_bytes": "bytes",
    "simulate.simulate_paths_s": "s",
    "simulate.simulate_paths_calls": "count",
    "simulate.path_steps": "count",
    "simulate.paths_ns_per_path_step": "ns",
    "simulate.run_strategy_s": "s",
    "simulate.run_strategy_self_s": "s",
    "simulate.run_strategy_calls": "count",
    "simulate.run_strategy.frictionless_s": "s",
    "simulate.run_strategy.cost_s": "s",
    "simulate.ledger_ns_per_path_step": "ns",
    "simulate.active_path_share": "ratio",
    "simulate.bytes_computed": "bytes",
    "simulate.max_self_financing_residual": "ratio",
    **{f"models.weights.{k}_{m}": u for k in STRATEGY_KINDS
       for m, u in (("s", "s"), ("calls", "count"))},
    "ou.optimal_c2_coefficients_s": "s",
    "ou.optimal_c2_coefficients_calls": "count",
    "ou.closed_forms_s": "s",
    "ctmc.closed_forms_s": "s",
    "metrics.compute_metrics_s": "s",
    "metrics.compute_metrics_calls": "count",
    "regime_filter.filter_strategy_s": "s",
    "regime_filter.solve_uv_pde_s": "s",
    "regime_filter.long_run_growth_s": "s",
    "trace.residual_check_s": "s",
    "trace.overhead_s": "s",
}


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder for one invocation (one child process)."""

    def __init__(self, invocation: int = 0):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": now(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "invocation": self.invocation, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = now()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(span, args, result)` adds
        counters once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process nest strictly (single-threaded calls), so the
    children of a span never overlap one another.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _public_functions(module):
    return [(n, f) for n, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not n.startswith("_")]


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries so calls record spans on `tracer`."""
    from expma_lab import cli, ctmc, experiments, models, ou, regime_filter
    from expma_lab.simulate import self_financing_residuals

    def after_paths(span, args, bundle):
        span["attrs"] = {"path_steps": bundle.n_paths * bundle.n_steps,
                         "bytes": sum(a.nbytes for a in
                                      (bundle.x, bundle.y, bundle.z, bundle.mu))}

    def after_ledger(span, args, ledger):
        bundle, strategy, omega = args[:3]
        span["attrs"] = {
            "omega": omega,
            "path_steps": ledger.n_paths * ledger.n_steps,
            "paths": ledger.n_paths,
            "active_paths": int((~ledger.bankrupt).sum()),
            "bytes": sum(a.nbytes for a in (ledger.wealth, ledger.pre_wealth,
                                            ledger.weights, ledger.delta,
                                            ledger.cost, ledger.bankrupt)),
        }
        check = tracer.open("trace.residual_check")
        worst = 0.0
        for lo in range(0, ledger.n_paths, RESIDUAL_BLOCK):
            rows = slice(lo, lo + RESIDUAL_BLOCK)
            part = replace(ledger, wealth=ledger.wealth[rows],
                           pre_wealth=ledger.pre_wealth[rows],
                           weights=ledger.weights[rows], delta=ledger.delta[rows],
                           cost=ledger.cost[rows], bankrupt=ledger.bankrupt[rows])
            worst = max(worst, *self_financing_residuals(
                part, replace(bundle, x=bundle.x[rows])))
        tracer.close(check)
        span["attrs"]["residual"] = worst

    def after_emit(span, args, result):
        span["attrs"] = {"bytes": os.path.getsize(args[2])}

    for module, name, span_name, after in (
            (cli, "run_experiment", "experiments.run_experiment", None),
            (cli, "emit", "experiments.emit", after_emit),
            (experiments, "build_strategies", "experiments.build_strategies", None),
            (experiments, "simulate_paths", "simulate.simulate_paths", after_paths),
            (experiments, "run_strategy", "simulate.run_strategy", after_ledger),
            (experiments, "compute_metrics", "metrics.compute_metrics", None),
            (regime_filter, "filter_strategy", "regime_filter.filter_strategy", None),
            (regime_filter, "solve_uv_pde", "regime_filter.solve_uv_pde", None),
            (regime_filter, "long_run_growth_ctmc", "regime_filter.long_run_growth", None)):
        setattr(module, name, tracer.wrap(span_name, getattr(module, name), after))
    for kind in STRATEGY_KINDS:
        cls = getattr(models, kind)
        cls.weights = tracer.wrap(f"models.weights.{kind}", cls.weights)
    for module, prefix in ((ou, "ou"), (ctmc, "ctmc")):
        for name, fn in _public_functions(module):
            setattr(module, name, tracer.wrap(f"{prefix}.{name}", fn))


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its child results.

    Every metric but `trace.overhead_s`, which compares two passes. Metrics
    of a layer the pass never enters read 0.
    """
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    del m["trace.overhead_s"]
    paths = active = ledger_steps = 0
    for child in children:
        m["cli.import_s"] += child["import_s"]
        recorded = child["spans"]
        for s, self_s in zip(recorded, self_times(recorded)):
            name, a = s["name"], s["attrs"]
            dur = s["end"] - s["start"]
            parent = recorded[s["parent"]]["name"] if s["parent"] is not None else ""
            if name == "experiments.run_experiment":
                m["experiments.run_experiment_s"] += dur
                m["experiments.run_experiment_self_s"] += self_s
            elif name == "experiments.emit":
                m["experiments.emit_s"] += dur
                m["experiments.emit_bytes"] += a["bytes"]
            elif name == "simulate.simulate_paths":
                m["simulate.simulate_paths_s"] += dur
                m["simulate.simulate_paths_calls"] += 1
                m["simulate.path_steps"] += a["path_steps"]
                m["simulate.bytes_computed"] += a["bytes"]
            elif name == "simulate.run_strategy":
                m["simulate.run_strategy_s"] += dur
                m["simulate.run_strategy_self_s"] += self_s
                m["simulate.run_strategy_calls"] += 1
                branch = "frictionless" if a["omega"] == 0.0 else "cost"
                m[f"simulate.run_strategy.{branch}_s"] += dur
                m["simulate.bytes_computed"] += a["bytes"]
                m["simulate.max_self_financing_residual"] = max(
                    m["simulate.max_self_financing_residual"], a["residual"])
                paths += a["paths"]
                active += a["active_paths"]
                ledger_steps += a["path_steps"]
            elif name == "trace.residual_check":
                m["trace.residual_check_s"] += dur
            elif name.startswith("models.weights."):
                m[f"{name}_s"] += dur
                m[f"{name}_calls"] += 1
            elif name.startswith(("ou.", "ctmc.")):
                prefix = name.split(".")[0]
                if not parent.startswith(prefix + "."):
                    m[f"{prefix}.closed_forms_s"] += dur
                if name == "ou.optimal_c2_coefficients":
                    m["ou.optimal_c2_coefficients_s"] += dur
                    m["ou.optimal_c2_coefficients_calls"] += 1
            elif name in ("metrics.compute_metrics", "experiments.build_strategies",
                          "regime_filter.filter_strategy", "regime_filter.solve_uv_pde",
                          "regime_filter.long_run_growth"):
                m[f"{name}_s"] += dur
                if name == "metrics.compute_metrics":
                    m["metrics.compute_metrics_calls"] += 1
    if m["simulate.path_steps"]:
        m["simulate.paths_ns_per_path_step"] = (
            1e9 * m["simulate.simulate_paths_s"] / m["simulate.path_steps"])
    if ledger_steps:
        m["simulate.ledger_ns_per_path_step"] = (
            1e9 * m["simulate.run_strategy_self_s"] / ledger_steps)
    if paths:
        m["simulate.active_path_share"] = active / paths
    return m
