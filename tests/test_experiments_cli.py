import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import expma_lab as xl
from expma_lab import (ConfigError, ExperimentConfig, ReportSet, emit,
                       run_experiment)
from expma_lab.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BENCHMARK_DRIFT = {"type": "ou", "kappa": 0.0226, "mu_bar": 0.0034, "delta": 8.2404e-4,
          "m1_0": None, "v1_0": None}


def config_dict(experiment="performance", n_paths=400, horizon=6.0, **kw):
    d = {
        "experiment": experiment,
        "params": {"drift": dict(BENCHMARK_DRIFT), "sigma": 0.0436, "lambda": 2.0},
        "sim": {"dt": 1 / 21, "horizon_months": horizon, "n_paths": n_paths,
                "seed": 424242, "omega": 0.0, "x0": 0.0, "pi0": 1.0},
    }
    d.update(kw)
    return d


def write_config(tmp_path, d, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


# --- experiment runner ------------------------------------------------------------

def test_performance_emits_four_rows():
    rs = run_experiment(ExperimentConfig.from_dict(config_dict()))
    assert len(rs.rows) == 4
    assert [r.strategy for r in rs.rows] == ["utility_c1", "utility_c2", "growth", "buy_hold"]
    assert len(set(rs.metadata["bundle_hashes"])) == 1


def test_rerun_is_byte_identical_csv():
    cfg = ExperimentConfig.from_dict(config_dict())
    a = run_experiment(cfg).to_csv()
    b = run_experiment(cfg).to_csv()
    assert a == b


def test_json_round_trip_exact():
    rs = run_experiment(ExperimentConfig.from_dict(config_dict()))
    again = ReportSet.from_json(rs.to_json())
    assert again == rs


def test_empty_reportset_header_only():
    rs = ReportSet(rows=(), metadata={"seed": 1})
    text = rs.to_csv()
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == list(xl.experiments.CSV_COLUMNS)


def test_emit_csv_and_json(tmp_path):
    rs = run_experiment(ExperimentConfig.from_dict(config_dict()))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    emit(rs, "csv", csv_path)
    emit(rs, "json", json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(xl.experiments.CSV_COLUMNS)
    assert ReportSet.from_json(json_path.read_text()) == rs
    with pytest.raises(ConfigError):
        emit(rs, "xml", tmp_path / "out.xml")


def test_lambda_sweep_rows_and_validation():
    d = config_dict(experiment="lambda_sweep", sweep_values=[42 / 11, 2.0, 42 / 51])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert [r.sweep_value for r in rs.rows] == [42 / 11, 2.0, 42 / 51]
    assert all(r.sweep_param == "lambda" for r in rs.rows)
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(
            config_dict(experiment="lambda_sweep", sweep_values=[])))


def test_cost_sweep_monotone_small():
    d = config_dict(experiment="cost_sweep", n_paths=600, horizon=12.0,
                    sweep_values=[0.0, 0.001, 0.005])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    growth_rows = [r for r in rs.rows if r.strategy == "growth"]
    rets = [r.metrics.total_return for r in growth_rows]
    assert rets[0] > rets[1] > rets[2]
    assert rs.rows[-1].strategy == "buy_hold"


def test_horizon_sweep_reuses_seed():
    d = config_dict(experiment="horizon_sweep", n_paths=300, sweep_values=[3.0, 6.0])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert [r.sweep_value for r in rs.rows] == [3.0, 6.0]
    assert rs.rows[0].metrics.n_steps == 63
    assert rs.rows[1].metrics.n_steps == 126


@pytest.mark.parametrize("values, code", [([6.0, 0.01], "n_steps_too_small"),
                                          ([6.0, math.inf], "nonfinite_horizon")])
def test_horizon_sweep_validates_every_value_before_simulating(monkeypatch, values, code):
    def never(*a, **kw):
        raise AssertionError("simulated before every sweep value was validated")

    monkeypatch.setattr(xl.experiments, "simulate_paths", never)
    d = config_dict(experiment="horizon_sweep", n_paths=300, sweep_values=values)
    with pytest.raises(xl.ValidationError) as exc:
        run_experiment(ExperimentConfig.from_dict(d))
    assert exc.value.codes == [code]


def test_ctmc_performance_panel():
    d = config_dict(n_paths=300, horizon=6.0)
    d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.01, "rho2": 0.015,
                             "alpha": 1.0, "beta": 1.0}, "sigma": 0.05, "lambda": 2.5}
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert [r.strategy for r in rs.rows] == ["utility_c1", "growth", "filter", "buy_hold"]
    for r in rs.rows:
        assert math.isfinite(r.metrics.total_return)


def test_vol_sweep_has_both_strategies():
    d = config_dict(experiment="vol_sweep", sweep_values=[0.0349, 0.0436])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert [(r.strategy, r.sweep_value) for r in rs.rows] == [
        ("growth", 0.0349), ("buy_hold", 0.0349),
        ("growth", 0.0436), ("buy_hold", 0.0436)]


def test_growth_rates_extras_ou():
    rs = run_experiment(ExperimentConfig.from_dict(config_dict(experiment="growth_rates")))
    assert rs.rows == ()
    for key in ("eta", "xi", "price_filtration_rate", "hat_lambda", "eta_upper_bound"):
        assert key in rs.extras
    assert rs.extras["price_filtration_rate"] < rs.extras["eta"] < rs.extras["xi"]


def test_growth_rates_extras_ctmc():
    d = config_dict(experiment="growth_rates")
    d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.01, "rho2": 0.015,
                             "alpha": 1.0, "beta": 1.0}, "sigma": 0.05, "lambda": 2.5}
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert rs.extras["growth_filter"] >= rs.extras["growth_affine"] - 1e-9


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(experiment="nope")).validated()


# --- CLI ----------------------------------------------------------------------------

def test_cli_simulate_and_formats(tmp_path):
    cfg = write_config(tmp_path, config_dict())
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "performance.csv").read_text()
    assert text.splitlines()[0] == ",".join(xl.experiments.CSV_COLUMNS)
    assert len(text.splitlines()) == 5
    assert cli_main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
    rs = ReportSet.from_json((out / "performance.json").read_text())
    assert len(rs.rows) == 4


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, config_dict())
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    cli_main(["simulate", "--config", cfg, "--out", str(out1)])
    cli_main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "7"])
    cli_main(["simulate", "--config", cfg, "--out", str(out3)])
    base = (out1 / "performance.csv").read_text()
    assert base != (out2 / "performance.csv").read_text()
    assert base == (out3 / "performance.csv").read_text()


def test_cli_strategy_prints_coefficients(tmp_path, capsys):
    cfg = write_config(tmp_path, config_dict(horizon=24.0))
    assert cli_main(["strategy", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["utility_c1"]["a"] == pytest.approx(8.1147, abs=1e-3)
    assert out["growth"]["a"] == pytest.approx(8.1580, abs=1e-3)
    assert out["convergence_days"] == {"slope": 142, "intercept": 59}


def test_cli_moments(tmp_path, capsys):
    cfg = write_config(tmp_path, config_dict())
    assert cli_main(["moments", "--config", cfg, "--times", "0,1.5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["t"] == 0 and abs(rows[0]["m2"]) < 1e-12


def test_cli_growth(tmp_path, capsys):
    cfg = write_config(tmp_path, config_dict(experiment="growth_rates"))
    out = tmp_path / "g"
    assert cli_main(["growth", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "growth_rates.csv").read_text().splitlines()
    assert table[0] == "quantity,value"
    assert any(line.startswith("eta,") for line in table)


def test_cli_pde(tmp_path):
    d = config_dict(experiment="pde")
    d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                             "alpha": 1.0, "beta": 1.0}, "sigma": 0.2, "lambda": 2.5}
    d["pde"] = {"t_max": 0.5, "nx": 128, "snapshot_times": [0.25, 0.5]}
    cfg = write_config(tmp_path, d)
    out = tmp_path / "p"
    assert cli_main(["pde", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "uv_grid.csv").read_text().splitlines()
    assert lines[0] == "t,x_physical,u,v"
    assert len(lines) == 1 + 2 * 128
    # the JSON report carries the march diagnostics; the CSVs do not
    assert cli_main(["pde", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    md = json.loads((out / "pde_report.json").read_text())["metadata"]
    assert isinstance(md["pde_steps"], int) and md["pde_steps"] > 0
    assert 0.0 < md["pde_cfl_eff"] <= 0.9
    assert (out / "uv_grid.csv").read_text().splitlines() == lines


def test_cli_signal(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    rows = ["date,close"]
    close = 100.0
    rng = np.random.default_rng(1)
    for i in range(60):
        rows.append(f"2020-01-{i + 1:02d},{close:.4f}")
        close *= float(np.exp(0.0005 + 0.01 * rng.standard_normal()))
    prices.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, config_dict(experiment="signal",
                                             signal_input=str(prices)))
    out = tmp_path / "s"
    assert cli_main(["signal", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "signal.csv").read_text().splitlines()
    assert lines[0] == "date,close,x,y,z,weight"
    assert len(lines) == 61
    first = lines[1].split(",")
    assert float(first[2]) == 0.0 and float(first[3]) == 0.0  # x0 = y0 = 0


def test_cli_exit_codes(tmp_path):
    # 2: config problems
    missing = str(tmp_path / "missing.json")
    assert cli_main(["simulate", "--config", missing]) == 2
    bad = write_config(tmp_path, {"experiment": "performance"}, "bad.json")
    assert cli_main(["simulate", "--config", bad]) == 2
    kap_lam = config_dict()
    kap_lam["params"]["drift"]["kappa"] = 2.0  # kappa == lambda
    cfg = write_config(tmp_path, kap_lam, "kl.json")
    assert cli_main(["simulate", "--config", cfg]) == 2
    # sweep subcommand requires a sweep experiment
    perf = write_config(tmp_path, config_dict(), "perf.json")
    assert cli_main(["sweep", "--config", perf]) == 2
    # signal without input
    sig = write_config(tmp_path, config_dict(experiment="signal"), "sig.json")
    assert cli_main(["signal", "--config", sig]) == 2


def test_cli_resource_limit_is_config_error(tmp_path, capsys):
    d = config_dict(experiment="cost_sweep", n_paths=100_000, horizon=24.0,
                    sweep_values=[0.0, 0.001])
    cfg = write_config(tmp_path, d)
    tracemalloc.start()
    try:
        rc = cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err
    # the size check runs before any 404 MB path array is allocated
    assert peak < 10_000_000


def _ctmc_pde_config(**pde):
    d = config_dict(experiment="pde")
    d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                             "alpha": 1.0, "beta": 1.0}, "sigma": 0.2, "lambda": 2.5}
    d["pde"] = {"t_max": 0.5, "nx": 128, "snapshot_times": [0.25, 0.5], **pde}
    return d


@pytest.mark.parametrize("command, d", [
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values=["abc"])),
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values=0.1)),
    ("pde", _ctmc_pde_config(nx="abc")),
    ("pde", _ctmc_pde_config(t_max="abc")),
    ("pde", _ctmc_pde_config(nx=16)),
    ("pde", _ctmc_pde_config(snapshot_times=[99.0])),
    ("pde", _ctmc_pde_config(t_max=math.inf, snapshot_times=None)),
], ids=["sweep_value_text", "sweep_values_scalar", "pde_nx_text", "pde_t_max_text",
        "pde_nx_small", "pde_snapshot_beyond_t_max", "pde_t_max_infinite"])
def test_cli_malformed_config_fields_exit_2(tmp_path, capsys, command, d):
    cfg = write_config(tmp_path, d)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, field, value, code", [
    ("sim", "horizon_months", 0.01, "n_steps_too_small"),
    ("sim", "horizon_months", math.inf, "nonfinite_horizon"),
    ("sim", "x0", math.nan, "nonfinite_x0"),
    ("drift", "mu_bar", math.nan, "nonfinite_mu_bar"),
    ("drift", "m1_0", math.inf, "nonfinite_m1_0"),
    ("sim", "pi0", math.inf, "nonfinite_pi0"),
    ("sim", "pi0", 0.0, "nonpositive_pi0"),
    ("sim", "pi0", -1.0, "nonpositive_pi0"),
    ("params", "sigma", math.inf, "nonfinite_sigma"),
    ("params", "lambda", math.inf, "nonfinite_lambda"),
    ("drift", "kappa", math.inf, "nonfinite_kappa"),
    ("drift", "v1_0", math.inf, "nonfinite_v1_0"),
    ("drift", "delta", math.inf, "nonfinite_delta"),
    ("ctmc", "rho1", -math.inf, "nonfinite_rho1"),
    ("ctmc", "rho2", math.inf, "nonfinite_rho2"),
    ("ctmc", "alpha", math.inf, "nonfinite_alpha"),
    ("ctmc", "beta", math.inf, "nonfinite_beta"),
])
def test_cli_rejects_invalid_values_by_code(tmp_path, capsys, section, field, value, code):
    d = config_dict()
    if section == "ctmc":
        d["params"]["drift"] = {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                                "alpha": 1.0, "beta": 1.0}
        d["params"]["lambda"] = 2.5
    {"sim": d["sim"], "params": d["params"]}.get(section, d["params"]["drift"])[field] = value
    cfg = write_config(tmp_path, d)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"[{code}]" in capsys.readouterr().err


# Just off kappa = lambda the OU coefficients lose precision as 1/(kappa - lambda)^2.
# Unguarded, the exact-integral a1 read 147.67 at eps = 1e-8 and 1.95 at 1e-10
# (150.08 is right) and exited 3 at 1e-12. Closer than KAPPA_LAMBDA_GUARD *
# lambda is rejected with the exact-equality code.
@pytest.mark.parametrize("eps, rc", [(1e-4, 0), (1e-8, 2), (1e-10, 2), (1e-12, 2)])
def test_cli_strategy_guards_kappa_near_lambda(tmp_path, capsys, eps, rc):
    d = config_dict(horizon=24.0)
    d["params"]["drift"].update(kappa=2.0 * (1.0 + eps), delta=0.05, mu_bar=0.01,
                                m1_0=0.0, v1_0=0.001)
    cfg = write_config(tmp_path, d)
    assert cli_main(["strategy", "--config", cfg]) == rc
    captured = capsys.readouterr()
    if rc:
        assert "[kappa_equals_lambda]" in captured.err
    else:
        a1 = json.loads(captured.out)["utility_c1_exact_integrals"]["a"]
        assert a1 == pytest.approx(150.0608, rel=1e-6)


def test_growth_ou_table_is_unchanged(tmp_path):
    out = tmp_path / "g"
    assert cli_main(["growth", "--config", str(CONFIGS / "growth_ou.json"),
                     "--out", str(out)]) == 0
    assert (out / "growth_rates.csv").read_text() == (
        "quantity,value\n"
        "eta,0.003070865981026824\n"
        "eta_at_hat_lambda,0.0035613417349036804\n"
        "eta_upper_bound,0.0035613417349036804\n"
        "hat_lambda,0.029461330587738227\n"
        "price_filtration_rate,0.003040568975675448\n"
        "xi,0.006992007028772793\n")


@pytest.mark.parametrize("row", ["2020-01-02,abc", "2020-01-02,", "2020-01-02"])
def test_cli_signal_rejects_bad_or_missing_close(tmp_path, capsys, row):
    prices = tmp_path / "prices.csv"
    prices.write_text(f"date,close\n2020-01-01,100.0\n{row}\n2020-01-03,101.0\n")
    cfg = write_config(tmp_path, config_dict(experiment="signal", signal_input=str(prices)))
    assert cli_main(["signal", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "is not a number" in capsys.readouterr().err


def test_cli_non_integer_threads_is_config_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, config_dict(n_paths=20))
    monkeypatch.setenv("EXPMA_THREADS", "two")
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "EXPMA_THREADS" in capsys.readouterr().err


def test_cli_numeric_exit_code(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, config_dict(experiment="growth_rates"))

    def boom(*a, **kw):
        raise xl.QuadratureError("synthetic failure", achieved_tol=1.0)

    monkeypatch.setattr(xl.experiments.ou_mod, "eta", boom)
    assert cli_main(["growth", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, config_dict())
    proc = subprocess.run([sys.executable, "-m", "expma_lab.cli", "simulate",
                           "--config", cfg, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_threads_env_var_bitwise_identical(tmp_path, monkeypatch):
    cfg_d = ExperimentConfig.from_dict(config_dict(n_paths=500))
    monkeypatch.setenv("EXPMA_THREADS", "1")
    a = run_experiment(cfg_d).to_csv()
    monkeypatch.setenv("EXPMA_THREADS", "3")
    b = run_experiment(cfg_d).to_csv()
    assert a == b
