"""Config-driven experiments: strategy panels, one-factor sweeps, growth-rate
tables, transport-grid exports, and the price-file signal pipeline.

Every simulation experiment runs all of its strategies on the same paths
(common random numbers), streamed over path chunks of about CHUNK_BYTES per
grid: each chunk is drawn once, and every strategy's ledger on it runs on
row slices of one ledger row block (`simulate.block_rows`), each reduced to
per-path statistics. A run allocates its buffers once, the X|Y row pair
(two grids) of its largest chunk and the ledger buffers of one slice (four
grids of one block, the block's temporaries, in which the statistics form
their daily returns too, and the rebalancing days), and every chunk and
ledger is written into them, so a run's memory is bounded by the X|Y pair
of the largest chunk plus a few blocks, not by `n_paths`. The chunking
changes no bit of any report value. The report metadata records each
run's bundle identity hash, path chunks and effective horizon, and every
run is byte-reproducible from (config, seed): the CSV output carries no
timestamp (the JSON metadata does).
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

import numpy as np

from . import __version__
from . import ctmc as ctmc_mod
from . import ou as ou_mod
from . import regime_filter
from .errors import ConfigError, ValidationError
from .metrics import MetricsReport, PathStats, compute_metrics, path_stats
from .models import (BuyAndHold, ConstantAffine, ModelParams, SimConfig,
                     Strategy, TimeVaryingAffine, _number, _whole)
from .simulate import (BundleHash, block_rows, check_limits, chunk_buffers, expma,
                       path_slices, run_strategy, simulate_paths)

# sweep experiment -> (swept parameter, the (params, sim) run at sweep value v)
SWEEPS = {
    "lambda_sweep": ("lambda", lambda c, v: (c.params.with_lambda(v), c.sim)),
    "vol_sweep": ("sigma", lambda c, v: (c.params.with_sigma(v), c.sim)),
    "horizon_sweep": ("horizon_months",
                      lambda c, v: (c.params, replace(c.sim, horizon_months=v))),
    "cost_sweep": ("omega", lambda c, v: (c.params, replace(c.sim, omega=v))),
}

# Target bytes per path grid of one chunk of a streamed Monte Carlo run. A
# run holds, allocated once, the X|Y row pair of its largest chunk (two
# grids, in whose rows the fills draw their noise); the fill's tiles and
# the ledger buffers of one row block add a few `simulate.BLOCK_BYTES`
# more. A chunk is floored at `simulate.MIN_BLOCK_PATHS` paths, so a long
# horizon's chunk can pass this size. Smaller chunks hold less, but the
# fill's and the ExpMA's time loops pay numpy's per-call overhead at every
# step of every chunk.
CHUNK_BYTES = 4 * 1024 * 1024

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
    # the directory a relative `signal_input` is read from: the config
    # file's, or "" for the working directory
    input_dir: str = ""

    def to_dict(self) -> dict:
        """The settings `config_hash` covers; where the run reads and writes
        its files is not one."""
        d = {
            "experiment": self.experiment,
            "params": self.params.to_dict(),
            "sim": self.sim.to_dict(),
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
            nx = _whole(pde.get("nx", 512))
            if isinstance(nx, bool) or not isinstance(nx, int):
                raise ValidationError([("pde.nx", "nx_not_integer",
                                        f"nx must be an integer, got {nx!r}")])
            snapshots = pde.get("snapshot_times")
            return cls(
                experiment=_string("experiment", d["experiment"]),
                params=ModelParams.from_dict(d["params"]),
                sim=SimConfig.from_dict(d["sim"]),
                sweep_values=None if sweep is None else _numbers("sweep_values", sweep),
                signal_input=(None if d.get("signal_input") is None
                              else _string("signal_input", d["signal_input"])),
                pde_t_max=None if t_max is None else _number("pde.t_max", t_max),
                pde_nx=nx,
                pde_snapshots=(None if snapshots is None
                               else _numbers("snapshot_times", snapshots) or None),
                out_dir=_string("out_dir", d.get("out_dir", ".")),
            )
        except (ConfigError, ValidationError):  # ValueErrors too; keep their messages
            raise
        except KeyError as exc:
            raise ConfigError(f"config missing required section: {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config field: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return replace(cls.from_dict(d), input_dir=os.path.dirname(path))

    def validated(self) -> "ExperimentConfig":
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {tuple(RUNNERS)}")
        if self.experiment in SWEEPS:
            if not self.sweep_values:
                raise ConfigError(f"{self.experiment} requires non-empty sweep_values")
            for v in self.sweep_values:
                SWEEPS[self.experiment][1](self, v)
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


def _numbers(name: str, values) -> tuple[float, ...]:
    """A JSON array of numbers as floats; any other value, a boolean
    element included, is a ConfigError."""
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be an array of numbers, got {values!r}")
    return tuple(_number(f"{name}[{i}]", v) for i, v in enumerate(values))


def _string(name: str, value) -> str:
    """A JSON string as given; any other value is a ConfigError."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


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
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- strategy panels -----------------------------------------------------------

def build_strategies(params: ModelParams, T: float) -> list[tuple[str, Strategy]]:
    """The comparison panel: finite-horizon affine, pointwise-optimal,
    growth-limit, and buy-and-hold; filter replaces the pointwise rule for
    the Markov drift."""
    if params.is_ou:
        a1, b1 = ou_mod.optimal_utility_affine(params, T, benchmark_c=True)
        c2 = _LastDays(partial(ou_mod.optimal_c2_coefficients, params))
        return [
            ("utility_c1", ConstantAffine(a1, b1)),
            ("utility_c2", TimeVaryingAffine(c2)),
            ("growth", _growth_strategy(params)),
            ("buy_hold", BuyAndHold()),
        ]
    a1, b1 = ctmc_mod.finite_horizon_affine(params, T)
    return [
        ("utility_c1", ConstantAffine(a1, b1)),
        ("growth", _growth_strategy(params)),
        ("filter", regime_filter.filter_strategy(params)),
        ("buy_hold", BuyAndHold()),
    ]


class _LastDays:
    """A coefficient evaluator that keeps its last days and their
    coefficients: a ledger passes each of its row blocks the same days, so
    a run evaluates them once, not once per block. The strategy holding it
    stays an immutable value; only this cache changes."""

    def __init__(self, coefficients):
        self._coefficients = coefficients
        self._last = None  # (t, coefficients(t))

    def __call__(self, t):
        last = self._last
        if last is None or not np.array_equal(last[0], t):
            last = self._last = (np.array(t, dtype=float), self._coefficients(t))
        return last[1]


def _growth_strategy(params: ModelParams) -> ConstantAffine:
    """The growth-optimal constant affine weight: (a_inf, b_inf) for the OU
    drift, (c_inf, d_inf) for the Markov drift."""
    coeffs = (ou_mod.growth_limit_affine(params) if params.is_ou
              else ctmc_mod.optimal_growth_affine(params))
    return ConstantAffine(*coeffs)


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
    return RUNNERS[config.experiment](config, _metadata(config))


def _run_monte_carlo(config: ExperimentConfig, md: dict) -> ReportSet:
    """Run each run's rows on its paths, streamed over path chunks.

    Every run's size is checked against the resource limits before any
    path is drawn. The panel and the cost sweep are one run (paths do not
    depend on omega). The lambda sweep's runs share one draw of X, since
    only Y = ExpMA(X) depends on lambda; every other sweep draws one run
    per sweep value. The metadata records each run's bundle hash, its path
    chunks and its effective horizon, `n_steps * dt` months.
    """
    kind = config.experiment
    if kind in ("performance", "cost_sweep"):
        runs = [(None, config.params, config.sim)]
    else:
        runs = [(v, *SWEEPS[kind][1](config, v)) for v in config.sweep_values]
    for _, p, s in runs:
        check_limits(p, s)
    # n_steps rounds horizon / dt to whole steps; the horizon each run took
    md["effective_horizon_months"] = [s.n_steps * s.dt for _, _, s in runs]
    md["path_chunks"] = []
    param_name = SWEEPS[kind][0] if kind in SWEEPS else ""
    rows = []
    for group in ([runs] if kind == "lambda_sweep" else [[run] for run in runs]):
        rows += _run_streamed(config, group, param_name, md)
    return ReportSet(rows=tuple(rows), metadata=md)


def _run_streamed(config: ExperimentConfig, group: list, param_name: str,
                  md: dict) -> list[ReportRow]:
    """The report rows of `group`, runs that share the draw of its first.

    Every run's rows are built first, so a failing strategy ends the run
    before it draws. Each path chunk is drawn once into the group's X|Y
    buffer (a later run of the group forms its Y from the chunk's X in the
    chunk's Y buffer). Every row of every run then writes its ledger on
    consecutive row slices of the chunk, one ledger row block each, into
    the group's ledger buffers and reduces each to per-path statistics in
    the same buffers: common random numbers hold, and memory is bounded by
    the X|Y pair of the largest chunk plus a few blocks. Per-path
    substreams, row-local ledgers and statistics and one hash fed the
    chunks in order give every report value and bundle hash the bits of one
    unchunked run.
    """
    _, p0, s0 = group[0]
    n = s0.n_paths
    per_chunk = max(1, CHUNK_BYTES // (8 * (s0.n_steps + 1)))
    chunks = path_slices(n, -(-n // per_chunk))
    bundle_hash = BundleHash(p0, s0)
    # each run's rows, each with the per-path statistics of every chunk
    cells = [[(*row, []) for row in _run_rows(config, p, s, v)] for v, p, s in group]
    # the ledger has no time loop, so unlike a chunk its slices are not
    # floored at MIN_BLOCK_PATHS paths: each is one ledger row block
    sizes = [sl.stop - sl.start for sl in chunks]
    ledger_rows = min(block_rows(s0.n_steps), max(sizes))
    xy, buffers = chunk_buffers(max(sizes), ledger_rows, s0)
    for sl in chunks:
        chunk = simulate_paths(p0, replace(s0, n_paths=sl.stop - sl.start),
                               path_offset=sl.start, out=xy)
        bundle_hash.update(chunk.x)
        for i, ((_, p, s), cell) in enumerate(zip(group, cells)):
            if i:
                chunk = replace(chunk, params=p, y=expma(chunk.x, p.lam, s.dt, out=chunk.y))
            sliced = [[] for _ in cell]
            for lo in range(0, chunk.n_paths, ledger_rows):
                part = chunk.rows(lo, lo + ledger_rows)
                # each ledger goes into its statistics before the next overwrites it
                for (_, strat, omega, _, _), stats in zip(cell, sliced):
                    ledger = run_strategy(part, strat, omega, out=buffers)
                    stats.append(path_stats(ledger, out=buffers))
            # one set of statistics per row and chunk, not per slice
            for (*_, parts), stats in zip(cell, sliced):
                parts.append(PathStats.concat(stats))
    rows = []
    for cell in cells:
        md["bundle_hashes"].append(bundle_hash.hexdigest())
        md["path_chunks"].append({"chunks": len(sizes), "paths_per_chunk": sizes})
        rows += [ReportRow(config.experiment, name, param_name, value,
                           compute_metrics(PathStats.concat(parts)))
                 for name, _, _, value, parts in cell]
    return rows


def _run_rows(config: ExperimentConfig, p: ModelParams, s: SimConfig, v):
    """(strategy name, strategy, omega, sweep value) of each row of one run,
    built before its first path chunk is drawn."""
    if config.experiment == "performance":
        return [(name, strat, s.omega, None)
                for name, strat in build_strategies(p, s.horizon_months)]
    growth = _growth_strategy(p)
    if config.experiment == "cost_sweep":
        return ([("growth", growth, w, w) for w in config.sweep_values]
                + [("buy_hold", BuyAndHold(), 0.0, 0.0)])
    rows = [("growth", growth, s.omega, v)]
    if config.experiment == "vol_sweep":
        rows.append(("buy_hold", BuyAndHold(), s.omega, v))
    return rows


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
    grid = regime_filter.solve_uv_pde(config.params, t_max=config.pde_t_max,
                                      nx=config.pde_nx,
                                      snapshot_times=config.pde_snapshots or ())
    md["pde_steps"] = grid.steps
    md["pde_cfl_eff"] = regime_filter.CFL
    path = os.path.join(config.out_dir, "uv_grid.csv")
    grid.to_csv(path)
    return ReportSet(rows=(), metadata=md,
                     extras={"uv_grid_csv": path, "nx": config.pde_nx,
                             "snapshot_times": grid.times.tolist()})


def _run_signal(config: ExperimentConfig, md: dict) -> ReportSet:
    path = os.path.join(config.input_dir, config.signal_input)
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
        strat = _growth_strategy(config.params)
        rule = {"a": strat.a, "b": strat.b}
    else:
        strat = regime_filter.filter_strategy(config.params)
        rule = {"kind": "filter"}
    weights = strat.weights(0.0, z)

    out = os.path.join(config.out_dir, "signal.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("date,close,x,y,z,weight\n")
        for i in range(x.size):
            fh.write(f"{dates[i]},{float(closes[i])!r},{float(x[i])!r},{float(y[i])!r},{float(z[i])!r},{float(weights[i])!r}\n")
    return ReportSet(rows=(), metadata=md,
                     extras={"signal_csv": out, "n_rows": int(x.size),
                             "dt": dt, "weight_rule": rule})


# experiment -> its runner; the one list of experiment names
RUNNERS = {
    "performance": _run_monte_carlo,
    "lambda_sweep": _run_monte_carlo,
    "horizon_sweep": _run_monte_carlo,
    "vol_sweep": _run_monte_carlo,
    "cost_sweep": _run_monte_carlo,
    "pde": _run_pde,
    "growth_rates": _run_growth_rates,
    "signal": _run_signal,
}
