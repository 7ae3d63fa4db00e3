"""Command-line surface: `expma-lab <subcommand> --config file.json [...]`.

Subcommands
-----------
strategy   print optimal strategy coefficients (and filter summary) for the model
moments    print closed-form signal moments at chosen times
simulate   run the four-strategy performance experiment and emit a report
sweep      run the configured one-factor sweep and emit a report
pde        solve the conditional-c.d.f. transport system and export its grid
growth     print/emit the long-run growth-rate table
signal     turn a date,close price CSV into ExpMA signal and weight series

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import ctmc as ctmc_mod
from . import ou as ou_mod
from .errors import ConfigError, NumericError, ValidationError
from .experiments import SWEEPS, ExperimentConfig, emit, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    os.makedirs(cfg.out_dir, exist_ok=True)  # before any work: a bad path ends the run at once
    return cfg


def _emit_reports(reports, cfg: ExperimentConfig, args, stem: str) -> None:
    dest = os.path.join(cfg.out_dir, f"{stem}.{args.format}")
    emit(reports, args.format, dest)
    print(f"wrote {dest}")


def _cmd_strategy(args) -> int:
    cfg = _load_config(args).validated()
    p = cfg.params
    T = cfg.sim.horizon_months
    out: dict = {"horizon_months": T}
    if p.is_ou:
        a1, b1 = ou_mod.optimal_utility_affine(p, T, benchmark_c=True)
        a1x, b1x = ou_mod.optimal_utility_affine(p, T)
        a_inf, b_inf = ou_mod.growth_limit_affine(p)
        a2T, b2T = ou_mod.optimal_c2_coefficients(p, T)
        out.update({
            "utility_c1": {"a": a1, "b": b1},
            "utility_c1_exact_integrals": {"a": a1x, "b": b1x},
            "utility_c2_at_horizon": {"a": a2T, "b": b2T},
            "growth": {"a": a_inf, "b": b_inf},
            "hat_lambda": ou_mod.hat_lambda(p),
            "convergence_days": {
                "slope": ou_mod.convergence_day(p, "slope", cfg.sim.dt),
                "intercept": ou_mod.convergence_day(p, "intercept", cfg.sim.dt),
            },
        })
    else:
        a1, b1 = ctmc_mod.finite_horizon_affine(p, T)
        c_inf, d_inf = ctmc_mod.optimal_growth_affine(p)
        out.update({
            "utility_c1": {"a": a1, "b": b1},
            "growth": {"a": c_inf, "b": d_inf},
            "filter_weight_range": [p.drift.rho1 / p.sigma**2, p.drift.rho2 / p.sigma**2],
        })
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.out:
        path = os.path.join(cfg.out_dir, "strategy.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
        print(f"wrote {path}")
    return EXIT_OK


def _moment_time(text: str) -> float:
    """One `--times` entry: a number >= 0 (`inf` gives the t -> infinity limit)."""
    try:
        t = float(text)
    except ValueError:
        t = float("nan")
    if not (t >= 0):  # NaN fails this too
        raise ConfigError(f"moment times must be numbers >= 0, got {text!r}")
    return t


def _cmd_moments(args) -> int:
    cfg = _load_config(args).validated()
    p = cfg.params
    times = [_moment_time(s) for s in args.times.split(",")] if args.times else [0.5, 1.0, 12.0]
    rows = []
    for t in times:
        if p.is_ou:
            m = ou_mod.ou_moments(p, t)
            rows.append({"t": t, "m1": m.m1, "v1": m.v1, "m2": m.m2,
                         "v2": m.v2, "m3": m.m3})
        else:
            st = ctmc_mod.ctmc_stationary(p)
            m = ctmc_mod.ctmc_moments(p, t)
            rows.append({"t": t, "n1": st.n1, "n2": m.n2, "n3": m.n3, "n4": m.n4})
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = replace(_load_config(args), experiment="performance")
    reports = run_experiment(cfg)
    _emit_reports(reports, cfg, args, "performance")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.experiment not in SWEEPS:
        raise ConfigError(f"sweep subcommand needs a *_sweep experiment, "
                          f"config says {cfg.experiment!r}")
    reports = run_experiment(cfg)
    _emit_reports(reports, cfg, args, cfg.experiment)
    return EXIT_OK


def _cmd_pde(args) -> int:
    cfg = replace(_load_config(args), experiment="pde")
    if args.t_max is not None:
        cfg = replace(cfg, pde_t_max=args.t_max)
    if args.nx is not None:
        cfg = replace(cfg, pde_nx=args.nx)
    reports = run_experiment(cfg)
    print(f"wrote {reports.extras['uv_grid_csv']}")
    _emit_reports(reports, cfg, args, "pde_report")
    return EXIT_OK


def _cmd_growth(args) -> int:
    cfg = replace(_load_config(args), experiment="growth_rates")
    reports = run_experiment(cfg)
    print(json.dumps(reports.extras, indent=2, sort_keys=True))
    table = os.path.join(cfg.out_dir, "growth_rates.csv")
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("quantity,value\n")
        for k in sorted(reports.extras):
            fh.write(f"{k},{reports.extras[k]!r}\n")
    print(f"wrote {table}")
    _emit_reports(reports, cfg, args, "growth_rates_report")
    return EXIT_OK


def _cmd_signal(args) -> int:
    cfg = replace(_load_config(args), experiment="signal")
    if args.input is not None:
        cfg = replace(cfg, signal_input=args.input, input_dir="")  # read from the working directory
    reports = run_experiment(cfg)
    print(f"wrote {reports.extras['signal_csv']}")
    _emit_reports(reports, cfg, args, "signal_report")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expma-lab",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("strategy", help="print optimal strategy coefficients"))
    mo = sub.add_parser("moments", help="print closed-form signal moments")
    common(mo)
    mo.add_argument("--times", default=None, help="comma-separated times in months")
    common(sub.add_parser("simulate", help="run the performance experiment"))
    common(sub.add_parser("sweep", help="run the configured one-factor sweep"))
    pd = sub.add_parser("pde", help="solve and export the conditional-c.d.f. grid")
    common(pd)
    pd.add_argument("--t-max", type=float, default=None,
                    help="end of the march, recorded besides the config's snapshot_times")
    pd.add_argument("--nx", type=int, default=None)
    common(sub.add_parser("growth", help="emit the long-run growth-rate table"))
    sg = sub.add_parser("signal", help="compute signal/weights from a price CSV")
    common(sg)
    sg.add_argument("--input", default=None, help="price CSV with columns date,close")
    return parser


COMMANDS = {
    "strategy": _cmd_strategy,
    "moments": _cmd_moments,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "pde": _cmd_pde,
    "growth": _cmd_growth,
    "signal": _cmd_signal,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    # OSError and UnicodeDecodeError: a file the run cannot read or write
    except (ConfigError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:  # a closed form of a valid model left the double range
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
