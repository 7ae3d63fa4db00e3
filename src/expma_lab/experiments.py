"""Config-driven experiments: strategy panels, one-factor sweeps, growth-rate
tables, transport-grid exports, and the price-file signal pipeline.

Every simulation experiment runs all of its strategies on one shared
PathBundle (common random numbers), records the bundle's identity hash in
the report metadata, and is byte-reproducible from (config, seed): the CSV
output carries no timestamp (the JSON metadata does).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial

from . import __version__
from . import ctmc as ctmc_mod
from . import ou as ou_mod
from . import regime_filter
from .errors import ConfigError, ValidationError
from .metrics import MetricsReport, compute_metrics
from .models import (BuyAndHold, ConstantAffine, ModelParams, SimConfig,
                     Strategy, TimeVaryingAffine, validate, validate_sim)
from .simulate import expma, run_strategy, simulate_paths

EXPERIMENTS = ("performance", "lambda_sweep", "horizon_sweep", "vol_sweep",
               "cost_sweep", "pde", "growth_rates", "signal")

CSV_COLUMNS = ("experiment", "strategy", "sweep_param", "sweep_value",
               "total_return", "avg_daily_return", "sharpe", "log_growth",
               "se_return", "se_sharpe", "n_paths", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: ModelParams
    sim: SimConfig
    sweep_values: tuple[float, ...] | None = None
    signal_input: str | None = None
    pde_t_max: float | None = None
    pde_nx: int = 512
    pde_snapshots: tuple[float, ...] | None = None
    out_dir: str = "."

    def to_dict(self) -> dict:
        d = {
            "experiment": self.experiment,
            "params": self.params.to_dict(),
            "sim": self.sim.to_dict(),
            "out_dir": self.out_dir,
        }
        if self.sweep_values is not None:
            d["sweep_values"] = list(self.sweep_values)
        if self.signal_input is not None:
            d["signal_input"] = self.signal_input
        if self.pde_t_max is not None:
            d["pde"] = {"t_max": self.pde_t_max, "nx": self.pde_nx,
                        "snapshot_times": list(self.pde_snapshots or [self.pde_t_max])}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            pde = d.get("pde") or {}
            sweep = d.get("sweep_values")
            t_max = pde.get("t_max")
            return cls(
                experiment=d["experiment"],
                params=ModelParams.from_dict(d["params"]),
                sim=SimConfig.from_dict(d["sim"]),
                sweep_values=None if sweep is None else tuple(float(v) for v in sweep),
                signal_input=d.get("signal_input"),
                pde_t_max=None if t_max is None else float(t_max),
                pde_nx=int(pde.get("nx", 512)),
                pde_snapshots=(tuple(float(t) for t in pde["snapshot_times"])
                               if pde.get("snapshot_times") else None),
                out_dir=d.get("out_dir", "."),
            )
        except ValidationError:  # a ValueError too; keep its field codes
            raise
        except KeyError as exc:
            raise ConfigError(f"config missing required section: {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config field: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(d)

    def validated(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {EXPERIMENTS}")
        validate(self.params)
        validate_sim(self.sim)
        if self.experiment.endswith("_sweep"):
            if not self.sweep_values:
                raise ConfigError(f"{self.experiment} requires non-empty sweep_values")
            for v in self.sweep_values:
                if self.experiment == "lambda_sweep":
                    validate(self.params.with_lambda(v))
                elif self.experiment == "vol_sweep":
                    validate(self.params.with_sigma(v))
                elif self.experiment == "horizon_sweep":
                    validate_sim(replace(self.sim, horizon_months=v))
                elif self.experiment == "cost_sweep" and not (0.0 <= v < 1.0):
                    raise ConfigError(f"cost sweep value must be in [0, 1), got {v}")
        if self.experiment == "signal" and not self.signal_input:
            raise ConfigError("signal experiment requires signal_input")
        if self.experiment == "pde":
            if not self.params.is_ctmc:
                raise ConfigError("pde experiment requires a ctmc2 drift")
            if self.pde_t_max is None or not self.pde_t_max > 0:
                raise ConfigError("pde experiment requires pde.t_max > 0")
        return self

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    strategy: str
    sweep_param: str
    sweep_value: float | None
    metrics: MetricsReport

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "strategy": self.strategy,
            "sweep_param": self.sweep_param,
            "sweep_value": self.sweep_value,
            "metrics": self.metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReportRow":
        return cls(experiment=d["experiment"], strategy=d["strategy"],
                   sweep_param=d["sweep_param"], sweep_value=d["sweep_value"],
                   metrics=MetricsReport.from_dict(d["metrics"]))


@dataclass(frozen=True)
class ReportSet:
    rows: tuple[ReportRow, ...]
    metadata: dict
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "rows": [r.to_dict() for r in self.rows],
            "extras": self.extras,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReportSet":
        payload = json.loads(text)
        return cls(rows=tuple(ReportRow.from_dict(r) for r in payload["rows"]),
                   metadata=payload["metadata"], extras=payload.get("extras", {}))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        seed = self.metadata.get("seed")
        for r in self.rows:
            m = r.metrics
            w.writerow([
                r.experiment, r.strategy, r.sweep_param,
                "" if r.sweep_value is None else repr(r.sweep_value),
                repr(m.total_return), repr(m.avg_daily_return),
                "undefined" if m.sharpe_daily is None else repr(m.sharpe_daily),
                repr(m.log_growth_rate), repr(m.se_total_return),
                "undefined" if m.se_sharpe is None else repr(m.se_sharpe),
                m.n_paths, seed,
            ])
        return buf.getvalue()


def emit(reports: ReportSet, format: str, destination) -> None:
    """Write a ReportSet as `csv` or `json` to the destination path."""
    if format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {format!r}")
    text = reports.to_csv() if format == "csv" else reports.to_json()
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"emit to {destination} failed: {exc}") from exc


# --- strategy panels -----------------------------------------------------------

def build_strategies(params: ModelParams, T: float) -> list[tuple[str, Strategy]]:
    """The comparison panel: finite-horizon affine, pointwise-optimal,
    growth-limit, and buy-and-hold; filter replaces the pointwise rule for
    the Markov drift."""
    if params.is_ou:
        a1, b1 = ou_mod.optimal_utility_affine(params, T, benchmark_c=True)
        c2 = partial(ou_mod.optimal_c2_coefficients, params)
        return [
            ("utility_c1", ConstantAffine(a1, b1, name="utility_c1")),
            ("utility_c2", TimeVaryingAffine(c2, name="utility_c2")),
            ("growth", _growth_strategy(params)),
            ("buy_hold", BuyAndHold()),
        ]
    a1, b1 = ctmc_mod.finite_horizon_affine(params, T)
    return [
        ("utility_c1", ConstantAffine(a1, b1, name="utility_c1")),
        ("growth", _growth_strategy(params)),
        ("filter", regime_filter.filter_strategy(params)),
        ("buy_hold", BuyAndHold()),
    ]


def _growth_strategy(params: ModelParams) -> ConstantAffine:
    """The growth-optimal constant affine weight: (a_inf, b_inf) for the OU
    drift, (c_inf, d_inf) for the Markov drift."""
    coeffs = (ou_mod.growth_limit_affine(params) if params.is_ou
              else ctmc_mod.optimal_growth_affine(params))
    return ConstantAffine(*coeffs, name="growth")


# --- experiment runner -----------------------------------------------------------

def _metadata(config: ExperimentConfig) -> dict:
    md = {
        "seed": config.sim.seed,
        "config_hash": config.config_hash(),
        "code_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "bundle_hashes": [],
    }
    if config.params.is_ou:
        md["ou_initial_law"] = ("stationary_default"
                                if config.params.drift.stationary_default else "explicit")
    return md


def run_experiment(config: ExperimentConfig) -> ReportSet:
    """Dispatch one experiment; see the module docstring for reproducibility."""
    config = config.validated()
    md = _metadata(config)
    handler = {
        "performance": _run_performance,
        "lambda_sweep": _run_lambda_sweep,
        "horizon_sweep": _run_horizon_sweep,
        "vol_sweep": _run_vol_sweep,
        "cost_sweep": _run_cost_sweep,
        "growth_rates": _run_growth_rates,
        "pde": _run_pde,
        "signal": _run_signal,
    }[config.experiment]
    return handler(config, md)


def _run_performance(config: ExperimentConfig, md: dict) -> ReportSet:
    bundle = simulate_paths(config.params, config.sim)
    md["bundle_hashes"].append(bundle.identity_hash())
    # each ledger goes straight into compute_metrics, so no two are alive at once
    rows = [ReportRow("performance", name, "", None,
                      compute_metrics(run_strategy(bundle, strat, config.sim.omega),
                                      config.sim))
            for name, strat in build_strategies(config.params, config.sim.horizon_months)]
    return ReportSet(rows=tuple(rows), metadata=md)


def _sweep_rows(config: ExperimentConfig, md: dict, param_name: str,
                make_params, make_sim) -> ReportSet:
    rows = []
    for v in config.sweep_values:
        p = make_params(v)
        s = make_sim(v)
        bundle = simulate_paths(p, s)
        md["bundle_hashes"].append(bundle.identity_hash())
        strategies = [("growth", _growth_strategy(p))]
        if config.experiment == "vol_sweep":
            strategies.append(("buy_hold", BuyAndHold()))
        for name, strat in strategies:
            rows.append(ReportRow(config.experiment, name, param_name, v,
                                  compute_metrics(run_strategy(bundle, strat, s.omega), s)))
    return ReportSet(rows=tuple(rows), metadata=md)


def _run_lambda_sweep(config: ExperimentConfig, md: dict) -> ReportSet:
    return _sweep_rows(config, md, "lambda",
                       lambda v: config.params.with_lambda(v), lambda v: config.sim)


def _run_vol_sweep(config: ExperimentConfig, md: dict) -> ReportSet:
    return _sweep_rows(config, md, "sigma",
                       lambda v: config.params.with_sigma(v), lambda v: config.sim)


def _run_horizon_sweep(config: ExperimentConfig, md: dict) -> ReportSet:
    return _sweep_rows(config, md, "horizon_months", lambda v: config.params,
                       lambda v: replace(config.sim, horizon_months=v))


def _run_cost_sweep(config: ExperimentConfig, md: dict) -> ReportSet:
    bundle = simulate_paths(config.params, config.sim)
    md["bundle_hashes"].append(bundle.identity_hash())
    growth = _growth_strategy(config.params)
    rows = [ReportRow("cost_sweep", "growth", "omega", omega,
                      compute_metrics(run_strategy(bundle, growth, omega), config.sim))
            for omega in config.sweep_values]
    rows.append(ReportRow("cost_sweep", "buy_hold", "omega", 0.0,
                          compute_metrics(run_strategy(bundle, BuyAndHold(), 0.0), config.sim)))
    return ReportSet(rows=tuple(rows), metadata=md)


def _run_growth_rates(config: ExperimentConfig, md: dict) -> ReportSet:
    p = config.params
    if p.is_ou:
        extras = {
            "eta": ou_mod.eta(p),
            "xi": ou_mod.full_information_rate(p),
            "price_filtration_rate": p.drift.mu_bar**2 / (2.0 * p.sigma**2),
            "hat_lambda": ou_mod.hat_lambda(p),
            "eta_at_hat_lambda": ou_mod.eta(p, ou_mod.hat_lambda(p)),
            "eta_upper_bound": ou_mod.eta_upper_bound(p),
        }
    else:
        lim = ctmc_mod.ctmc_limits(p)
        extras = {
            "growth_affine": ctmc_mod.ctmc_growth_value(p, lim.c_inf, lim.d_inf),
            "growth_filter": regime_filter.long_run_growth_ctmc(p),
            "c_inf": lim.c_inf,
            "d_inf": lim.d_inf,
            "h_inf": lim.h_inf,
            "i_inf": lim.i_inf,
            "j_inf": lim.j_inf,
        }
    return ReportSet(rows=(), metadata=md, extras=extras)


def _run_pde(config: ExperimentConfig, md: dict) -> ReportSet:
    snaps = config.pde_snapshots or (config.pde_t_max,)
    grid = regime_filter.solve_uv_pde(config.params, t_max=config.pde_t_max,
                                      nx=config.pde_nx, snapshot_times=snaps)
    md["pde_steps"] = grid.steps
    md["pde_cfl_eff"] = regime_filter.CFL
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "uv_grid.csv")
    grid.to_csv(path)
    return ReportSet(rows=(), metadata=md,
                     extras={"uv_grid_csv": path, "nx": config.pde_nx,
                             "snapshot_times": list(snaps)})


def _run_signal(config: ExperimentConfig, md: dict) -> ReportSet:
    import numpy as np

    path = config.signal_input
    if not os.path.exists(path):
        raise ConfigError(f"signal input file not found: {path}")
    dates, closes = [], []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"date", "close"} <= set(reader.fieldnames):
            raise ConfigError(f"signal input {path} must have columns date, close")
        for rec in reader:
            dates.append(rec["date"])
            try:
                closes.append(float(rec["close"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"signal input {path} line {reader.line_num}: "
                                  f"close {rec['close']!r} is not a number") from exc
    if len(closes) < 2:
        raise ConfigError(f"signal input {path} needs at least 2 rows")

    closes = np.asarray(closes)
    if not np.all(np.isfinite(closes) & (closes > 0)):
        raise ConfigError("close prices must be positive and finite")
    # one row per trading day unless dt overridden in sim config
    dt = config.sim.dt
    x = np.log(closes / closes[0])
    y = expma(x, config.params.lam, dt, out=np.empty_like(x))
    z = x - y

    if config.params.is_ou:
        a_inf, b_inf = ou_mod.growth_limit_affine(config.params)
        weights = a_inf * z + b_inf
        rule = {"a": a_inf, "b": b_inf}
    else:
        strat = regime_filter.filter_strategy(config.params)
        weights = strat.weights(0.0, z)
        rule = {"kind": "filter"}

    os.makedirs(config.out_dir, exist_ok=True)
    out = os.path.join(config.out_dir, "signal.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("date,close,x,y,z,weight\n")
        for i in range(x.size):
            fh.write(f"{dates[i]},{float(closes[i])!r},{float(x[i])!r},{float(y[i])!r},{float(z[i])!r},{float(weights[i])!r}\n")
    return ReportSet(rows=(), metadata=md,
                     extras={"signal_csv": out, "n_rows": int(x.size),
                             "dt": dt, "weight_rule": rule})
