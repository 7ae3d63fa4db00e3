"""The benchmark's workloads: each is a list of real `expma-lab` CLI invocations.

Every invocation runs in a fresh child process with the workload seed passed
as `--seed` and its own `--out` directory. Configs come from the committed
`configs/`, except `long_ctmc`, whose config is generated into the run's work
directory (see `GENERATED`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 20260809

# The gentle Markov drift of tests/conftest.py (`ctmc_gentle_params`) at
# 200 paths x 25,200 steps (dt = 1/210 month, T = 120 months): as many array
# elements as the 10k x 504 desk panel, with the shape reversed.
LONG_CTMC_CONFIG = {
    "experiment": "performance",
    "params": {
        "drift": {"type": "ctmc2", "rho1": -0.01, "rho2": 0.015,
                  "alpha": 1.0, "beta": 1.0},
        "sigma": 0.05,
        "lambda": 2.5,
    },
    "sim": {"dt": 1.0 / 210.0, "horizon_months": 120.0, "n_paths": 200,
            "seed": DEFAULT_SEED, "omega": 0.0, "x0": 0.0, "pi0": 1.0},
}

GENERATED = {"long_ctmc.json": LONG_CTMC_CONFIG}


@dataclass(frozen=True)
class Invocation:
    """One CLI call. `label` names its output and reference directories;
    `config` is relative to the checkout root, or to the work directory when
    it names a file of `GENERATED`."""

    label: str
    command: str
    config: str

    def config_path(self, root: str, work: str) -> str:
        if self.config in GENERATED:
            return os.path.join(work, self.config)
        return os.path.join(root, self.config)

    def argv(self, root: str, work: str, seed: int, out: str) -> list[str]:
        return [self.command, "--config", self.config_path(root, work),
                "--seed", str(seed), "--out", out]


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # The paper's OU desk panel at 10k paths x 504 days, then the cost sweep:
    # wide arrays, a short time loop, both ledger branches, and one
    # TimeVaryingAffine coefficient evaluation per day.
    "desk_ou": (
        Invocation("simulate", "simulate", "configs/performance.json"),
        Invocation("cost_sweep", "sweep", "configs/cost_sweep.json"),
    ),
    # 200 paths x 25,200 steps: per-step Python overhead and strided column
    # reads dominate; the only workload running the filter strategy and the
    # CTMC jump-time fill.
    "long_ctmc": (
        Invocation("simulate", "simulate", "long_ctmc.json"),
    ),
    # No Monte Carlo: closed forms, the transport solve and interactive CLI
    # latency, which import dominates. A change to `simulate` should leave it
    # unchanged.
    "analytics": (
        Invocation("strategy", "strategy", "configs/performance.json"),
        Invocation("growth_ou", "growth", "configs/growth_ou.json"),
        Invocation("growth_ctmc", "growth", "configs/growth_ctmc.json"),
        Invocation("pde", "pde", "configs/pde.json"),
        Invocation("signal", "signal", "configs/signal.json"),
    ),
}


def write_generated(work: str) -> None:
    """Write the generated configs into the work directory."""
    for name, cfg in GENERATED.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
