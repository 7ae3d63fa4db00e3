import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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


def report_payload(rs):
    """What the JSON of `rs` must carry, every value exactly."""
    return {"metadata": rs.metadata, "rows": [r.to_dict() for r in rs.rows],
            "extras": rs.extras}


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
    assert json.loads(rs.to_json()) == report_payload(rs)


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
    assert json.loads(json_path.read_text()) == report_payload(rs)
    with pytest.raises(ConfigError):
        emit(rs, "xml", tmp_path / "out.xml")


def test_lambda_sweep_rows_and_validation():
    d = config_dict(experiment="lambda_sweep", sweep_values=[42 / 11, 2.0, 42 / 51])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert [r.sweep_value for r in rs.rows] == [42 / 11, 2.0, 42 / 51]
    assert all(r.sweep_param == "lambda" for r in rs.rows)
    # one hash per sweep value; lambda moves Y only, so the hashed X is shared
    assert rs.metadata["bundle_hashes"] == 3 * rs.metadata["bundle_hashes"][:1]
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(
            config_dict(experiment="lambda_sweep", sweep_values=[])))


@pytest.mark.parametrize("drift, values", [
    (BENCHMARK_DRIFT, [42 / 11, 2.0, 42 / 51]),
    ({"type": "ctmc2", "rho1": -0.2, "rho2": 0.3, "alpha": 1.0, "beta": 1.0}, [2.5, 0.7]),
])
def test_lambda_sweep_draws_x_once(monkeypatch, drift, values):
    """The lambda sweep draws its paths once and forms each value's Y from
    that draw: one `simulate_paths` call, and the rows and hashes, bit for
    bit, of one draw per value."""
    calls = []

    def counted(*a, **kw):
        calls.append(a)
        return xl.simulate_paths(*a, **kw)

    monkeypatch.setattr(xl.experiments, "simulate_paths", counted)
    d = config_dict(experiment="lambda_sweep", n_paths=300, sweep_values=values)
    d["params"].update(drift=dict(drift), **{"lambda": values[0]})
    cfg = ExperimentConfig.from_dict(d)
    rs = run_experiment(cfg)
    assert len(calls) == 1
    assert len(rs.rows) == len(values) == len(rs.metadata["bundle_hashes"])
    for row, bundle_hash, v in zip(rs.rows, rs.metadata["bundle_hashes"], values):
        p = cfg.params.with_lambda(v)
        bundle = xl.simulate_paths(p, cfg.sim)
        led = xl.run_strategy(bundle, xl.experiments._growth_strategy(p), cfg.sim.omega)
        assert row.sweep_value == v
        assert row.metrics.to_dict() == xl.compute_metrics(led).to_dict()
        assert bundle_hash == bundle.identity_hash()


def test_cost_sweep_monotone_small():
    d = config_dict(experiment="cost_sweep", n_paths=600, horizon=12.0,
                    sweep_values=[0.0, 0.001, 0.005])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    growth_rows = [r for r in rs.rows if r.strategy == "growth"]
    rets = [r.metrics.total_return for r in growth_rows]
    assert rets[0] > rets[1] > rets[2]
    assert rs.rows[-1].strategy == "buy_hold"
    assert len(rs.metadata["bundle_hashes"]) == 1  # paths do not depend on omega


def test_horizon_sweep_reuses_seed():
    d = config_dict(experiment="horizon_sweep", n_paths=300, sweep_values=[3.0, 6.0])
    rs = run_experiment(ExperimentConfig.from_dict(d))
    assert [r.sweep_value for r in rs.rows] == [3.0, 6.0]
    assert rs.rows[0].metrics.n_steps == 63
    assert rs.rows[1].metrics.n_steps == 126
    assert len(set(rs.metadata["bundle_hashes"])) == 2  # one bundle per sweep value


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


@pytest.mark.parametrize("experiment, values, code", [
    ("lambda_sweep", [2.0, 0.0226], "kappa_equals_lambda"),
    ("vol_sweep", [0.0436, 0.0], "nonpositive_sigma"),
    ("cost_sweep", [0.0, 1.0], "omega_out_of_range"),
])
def test_sweep_values_are_checked_by_building_each_variant(monkeypatch, experiment,
                                                           values, code):
    def never(*a, **kw):
        raise AssertionError("simulated before every sweep value was validated")

    monkeypatch.setattr(xl.experiments, "simulate_paths", never)
    d = config_dict(experiment=experiment, sweep_values=values)
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
    assert len(set(rs.metadata["bundle_hashes"])) == 2  # one bundle per sweep value


# --- streamed runs ------------------------------------------------------------------

def chunk_paths(monkeypatch, paths, n_steps):
    """Stream every run of `n_steps` steps in chunks of about `paths` paths."""
    monkeypatch.setattr(xl.simulate, "MIN_BLOCK_PATHS", 16)
    monkeypatch.setattr(xl.experiments, "CHUNK_BYTES", paths * 8 * (n_steps + 1))


def markov_config(**kw):
    d = config_dict(**kw)
    d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                             "alpha": 1.0, "beta": 1.0}, "sigma": 0.2, "lambda": 2.5}
    return d


STREAMED_CASES = {
    "ou_performance": config_dict(n_paths=350),
    # the filter strategy and the CTMC jump fill
    "markov_performance": markov_config(n_paths=350),
    "lambda_sweep": config_dict(experiment="lambda_sweep", n_paths=350,
                                sweep_values=[42 / 11, 2.0, 42 / 51]),
    "cost_sweep": config_dict(experiment="cost_sweep", n_paths=350,
                              sweep_values=[0.0, 0.001, 0.005]),
}


# the ids keep the "-1" of the thread count these cases once also ran at
@pytest.mark.parametrize("case", STREAMED_CASES, ids=lambda c: f"{c}-1")
def test_streamed_run_matches_one_chunk_bitwise(monkeypatch, case):
    """A run cut into path chunks reports the rows and bundle hashes of the
    same run in one chunk, bit for bit."""
    cfg = ExperimentConfig.from_dict(STREAMED_CASES[case])
    whole = run_experiment(cfg)
    chunk_paths(monkeypatch, 100, cfg.sim.n_steps)
    streamed = run_experiment(cfg)
    assert {c["chunks"] for c in whole.metadata["path_chunks"]} == {1}
    for c in streamed.metadata["path_chunks"]:
        sizes = c["paths_per_chunk"]
        assert c["chunks"] == len(sizes) >= 3 and max(sizes) - min(sizes) <= 1
        assert sum(sizes) == cfg.sim.n_paths
    assert streamed.to_csv() == whole.to_csv()
    assert [r.to_dict() for r in streamed.rows] == [r.to_dict() for r in whole.rows]
    assert streamed.metadata["bundle_hashes"] == whole.metadata["bundle_hashes"]
    if case.endswith("performance"):
        bundle = xl.simulate_paths(cfg.params, cfg.sim)
        assert whole.metadata["bundle_hashes"] == [bundle.identity_hash()]


@st.composite
def sized_runs(draw):
    """A small OU or Markov panel, lambda sweep or cost sweep, and a value
    for every size constant (the chunk in paths, its floor, the cache block
    in bytes)."""
    experiment = draw(st.sampled_from(["performance", "lambda_sweep", "cost_sweep"]))
    make = markov_config if draw(st.booleans()) else config_dict
    kw = {"performance": {},
          "lambda_sweep": {"sweep_values": [4.0, 3.0]},
          "cost_sweep": {"sweep_values": [0.0, 0.002]}}[experiment]
    d = make(experiment=experiment, n_paths=draw(st.integers(20, 200)),
             horizon=draw(st.sampled_from([0.5, 1.0, 2.0])), **kw)
    d["sim"]["omega"] = draw(st.sampled_from([0.0, 0.001]))
    d["sim"]["seed"] = draw(st.integers(0, 2**64 - 1))
    sizes = {"chunk_paths": draw(st.integers(1, 200)),
             "MIN_BLOCK_PATHS": draw(st.integers(1, 64)),
             # log-uniform from one float (1-path ledger blocks, 1-step
             # tiles) to 32 KB (ledger blocks of 95 or more paths)
             "BLOCK_BYTES": int(2 ** draw(st.floats(3.0, 15.0)))}
    return d, sizes


def _bankrupting_markov_panel():
    """A Markov panel whose low volatility bankrupts part of the levered
    paths, cut into chunks of 7 paths and ledger blocks of 3."""
    d = markov_config(n_paths=60, horizon=2.0)
    d["params"]["sigma"] = 0.08
    return d, {"chunk_paths": 7, "MIN_BLOCK_PATHS": 2,
               "BLOCK_BYTES": 3 * 8 * (42 + 1)}


@settings(max_examples=50, deadline=10_000)
@example(case=_bankrupting_markov_panel())
@given(case=sized_runs())
def test_no_size_constant_changes_a_report_bit(case):
    """The report CSV, the JSON rows and the bundle hashes of a run are
    those of the same run at the default sizes, whatever the chunk, chunk
    floor, ledger block and tile sizes."""
    d, sizes = case
    cfg = ExperimentConfig.from_dict(d)
    with pytest.MonkeyPatch.context() as mp:
        whole = run_experiment(cfg)
        row_bytes = 8 * (cfg.sim.n_steps + 1)
        mp.setattr(xl.experiments, "CHUNK_BYTES", sizes["chunk_paths"] * row_bytes)
        mp.setattr(xl.simulate, "MIN_BLOCK_PATHS", sizes["MIN_BLOCK_PATHS"])
        mp.setattr(xl.simulate, "BLOCK_BYTES", sizes["BLOCK_BYTES"])
        sized = run_experiment(cfg)
    assert sized.to_csv() == whole.to_csv()
    assert [r.to_dict() for r in sized.rows] == [r.to_dict() for r in whole.rows]
    assert sized.metadata["bundle_hashes"] == whole.metadata["bundle_hashes"]
    if case == _bankrupting_markov_panel():
        assert any(r.metrics.bankrupt_count > 0 for r in whole.rows)


def test_streamed_run_peak_memory_does_not_grow_with_paths(monkeypatch):
    """The traced peak of a streamed one-year panel is set by its chunk, not
    by `n_paths`: four times the paths, each run in chunks of 400, peak
    within 10%. What does grow is a few per-path statistics per row."""
    configs = [ExperimentConfig.from_dict(config_dict(n_paths=n, horizon=12.0))
               for n in (1200, 4800)]
    chunk_paths(monkeypatch, 400, configs[0].sim.n_steps)
    run_experiment(configs[0])  # first-call allocations that persist are not a run's
    peaks = []
    for cfg in configs:
        tracemalloc.start()
        try:
            rs = run_experiment(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        chunks = cfg.sim.n_paths // 400
        assert rs.metadata["path_chunks"] == [{"chunks": chunks,
                                               "paths_per_chunk": [400] * chunks}]
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_streamed_run_writes_every_chunk_into_one_set_of_buffers(monkeypatch):
    """A cost sweep of 770 x 504 in three chunks whose first is the smaller
    (256, 257, 257 paths) reports the rows, CSV and bundle hashes of its
    one-chunk run. Every `simulate_paths` and `run_strategy` call returns
    grids in the memory of the run's first call, so the buffers are sized
    for the largest chunk, not the first. With 16-step fill tiles and
    8-path ledger blocks, the traced peak is under 2.75 chunk grids (2.73
    measured): the bundle's two (its X|Y row pair, which holds the fill's
    draws), one ledger slice of one block and its temporaries, and the
    recorded calls' per-path arrays. (The fill tiles are bounded by
    BLOCK_BYTES, not by the chunk: at the default they hold 127-128 of the
    504 days here.)"""
    cfg = ExperimentConfig.from_dict(config_dict(
        experiment="cost_sweep", n_paths=770, horizon=24.0, sweep_values=[0.0, 0.001]))
    whole = run_experiment(cfg)
    S = cfg.sim.n_steps
    monkeypatch.setattr(xl.experiments, "CHUNK_BYTES", 257 * 8 * (S + 1))
    monkeypatch.setattr(xl.simulate, "BLOCK_BYTES", 16 * 8 * 257)
    bundles, ledgers = [], []

    def recorded(fn, calls):
        def call(*args, **kwargs):
            calls.append(fn(*args, **kwargs))
            return calls[-1]
        return call

    monkeypatch.setattr(xl.experiments, "simulate_paths",
                        recorded(xl.experiments.simulate_paths, bundles))
    monkeypatch.setattr(xl.experiments, "run_strategy",
                        recorded(xl.experiments.run_strategy, ledgers))
    tracemalloc.start()
    try:
        streamed = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed.metadata["path_chunks"] == [{"chunks": 3,
                                                 "paths_per_chunk": [256, 257, 257]}]
    assert streamed.to_csv() == whole.to_csv()
    assert [r.to_dict() for r in streamed.rows] == [r.to_dict() for r in whole.rows]
    assert streamed.metadata["bundle_hashes"] == whole.metadata["bundle_hashes"]
    # 8-path ledger slices: 32, 33 and 33 per chunk, each for the 3 rows
    assert (len(bundles), len(ledgers)) == (3, 3 * (32 + 33 + 33))
    for calls, names in ((bundles, ("x", "y")),
                         (ledgers, ("wealth", "pre_wealth", "weights", "delta"))):
        for call in calls:
            for name in names:
                assert np.shares_memory(getattr(call, name), getattr(calls[0], name)), name
    grid = 8 * 257 * (S + 1)
    assert peak < 2.75 * grid, peak / grid


def test_long_row_ledgers_run_on_one_block_slices(monkeypatch):
    """A 300 x 2,520 Markov panel is one path chunk, floored at
    MIN_BLOCK_PATHS, even at a CHUNK_BYTES of 64 rows. Its ledgers run on
    row slices of one ledger row block, `block_rows(2520)` = 12 paths, 25
    per row, every one in the memory of the first, and the run reports the
    CSV, JSON rows and bundle hashes of the default run. Its traced peak
    is about the chunk's two X|Y grids plus four slice grids, where a
    ledger as tall as the chunk holds six chunk grids."""
    cfg = ExperimentConfig.from_dict(markov_config(n_paths=300, horizon=120.0))
    whole = run_experiment(cfg)
    row_bytes = 8 * (cfg.sim.n_steps + 1)
    monkeypatch.setattr(xl.experiments, "CHUNK_BYTES", 64 * row_bytes)
    calls = []
    run = xl.experiments.run_strategy

    def recorded(bundle, strategy, omega, **kwargs):
        calls.append((strategy, run(bundle, strategy, omega, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(xl.experiments, "run_strategy", recorded)
    tracemalloc.start()
    try:
        sliced = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sliced.metadata["path_chunks"] == [{"chunks": 1, "paths_per_chunk": [300]}]
    assert sliced.to_csv() == whole.to_csv()
    assert [r.to_dict() for r in sliced.rows] == [r.to_dict() for r in whole.rows]
    assert sliced.metadata["bundle_hashes"] == whole.metadata["bundle_hashes"]
    per_row = {}
    for strategy, ledger in calls:
        per_row.setdefault(id(strategy), []).append(ledger.n_paths)
    assert len(per_row) == len(sliced.rows) == 4
    assert xl.simulate.block_rows(cfg.sim.n_steps) == 12
    assert all(sizes == [12] * 25 for sizes in per_row.values()), per_row
    for _, ledger in calls:
        for name in ("wealth", "pre_wealth", "weights", "delta"):
            assert np.shares_memory(getattr(ledger, name), getattr(calls[0][1], name)), name
    chunk_grid, slice_grid = 300 * row_bytes, 12 * row_bytes
    bound = 2 * chunk_grid + 4 * slice_grid + 16 * xl.simulate.BLOCK_BYTES
    assert peak < bound, (peak / chunk_grid, bound / chunk_grid)


def test_cli_json_records_path_chunks(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, config_dict(experiment="vol_sweep", n_paths=300,
                                             sweep_values=[0.0349, 0.0436]))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    md = json.loads((out / "vol_sweep.json").read_text())["metadata"]
    assert md["path_chunks"] == 2 * [{"chunks": 1, "paths_per_chunk": [300]}]
    chunk_paths(monkeypatch, 100, 126)
    assert cli_main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    md = json.loads((out / "vol_sweep.json").read_text())["metadata"]
    assert md["path_chunks"] == 2 * [{"chunks": 3, "paths_per_chunk": [100, 100, 100]}]


def test_cli_json_records_effective_horizon(tmp_path):
    """`simulate` and `sweep` record the horizon each run took, n_steps * dt
    months, in their JSON metadata: at dt 0.3 a 1-month horizon rounds to 3
    steps, 0.9 months, and a 2-month one to 7 steps, 2.1 months."""
    d = config_dict(n_paths=20, horizon=1.0)
    d["sim"]["dt"] = 0.3
    out = tmp_path / "out"
    for command, cfg, want in (
            ("simulate", d, [3 * 0.3]),
            ("sweep", {**d, "experiment": "horizon_sweep", "sweep_values": [1.0, 2.0]},
             [3 * 0.3, 7 * 0.3])):
        path = write_config(tmp_path, cfg)
        assert cli_main([command, "--config", path, "--out", str(out), "--format", "json"]) == 0
        md = json.loads((out / f"{cfg['experiment']}.json").read_text())["metadata"]
        assert md["effective_horizon_months"] == want
    assert md["effective_horizon_months"] == pytest.approx([0.9, 2.1])


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
    assert len(json.loads((out / "performance.json").read_text())["rows"]) == 4


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


@pytest.mark.parametrize("markov", [False, True])
@pytest.mark.parametrize("times, bad", [("abc", "abc"), ("1,,2", ""), ("nan", "nan"),
                                        ("-1", "-1")])
def test_cli_moments_rejects_bad_times(tmp_path, capsys, markov, times, bad):
    """A time that is not a number >= 0 exits 2 naming the value, never a
    traceback or a NaN report."""
    d = config_dict()
    if markov:
        d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                                 "alpha": 1.0, "beta": 1.0}, "sigma": 0.2, "lambda": 2.5}
    cfg = write_config(tmp_path, d)
    assert cli_main(["moments", "--config", cfg, "--times", times]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert repr(bad) in captured.err


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


def test_cli_signal_input_is_read_from_the_config_files_directory(tmp_path, monkeypatch):
    """A relative `signal_input` in a config file is read from the file's
    directory, so the committed signal config runs from any working
    directory; a relative `--input` is read from the working directory.
    The config hash does not depend on where the config file lives."""
    monkeypatch.chdir(tmp_path)
    config = CONFIGS / "signal.json"
    assert json.loads(config.read_text())["signal_input"] == "sample_prices.csv"
    assert cli_main(["signal", "--config", str(config), "--out", "a"]) == 0
    (tmp_path / "p.csv").write_bytes((CONFIGS / "sample_prices.csv").read_bytes())
    assert cli_main(["signal", "--config", str(config), "--input", "p.csv", "--out", "b"]) == 0
    a, b = ((tmp_path / d / "signal.csv").read_bytes() for d in "ab")
    assert a == b
    assert cli_main(["signal", "--config", str(config), "--input", "sample_prices.csv"]) == 2
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "signal.json").write_bytes(config.read_bytes())
    hashes = {ExperimentConfig.from_json_file(str(path)).config_hash()
              for path in (config, elsewhere / "signal.json", Path("elsewhere/signal.json"))}
    assert len(hashes) == 1


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
    too_many_elements = config_dict(experiment="cost_sweep", n_paths=100_000, horizon=24.0,
                                    sweep_values=[0.0, 0.001])
    # valid jump rates whose Python jump draw would run for about 40 h
    too_many_jumps = config_dict(n_paths=10_000, horizon=24.0)
    too_many_jumps["params"] = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                                          "alpha": 1e6, "beta": 1e6},
                                "sigma": 0.2, "lambda": 2.5}
    for command, d in (("sweep", too_many_elements), ("simulate", too_many_jumps)):
        cfg = write_config(tmp_path, d)
        tracemalloc.start()
        try:
            rc = cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err
        # the size checks run before any 404 MB or 40 MB path array is allocated
        assert peak < 10_000_000


def test_cli_config_hash_does_not_depend_on_out(tmp_path):
    hashes = []
    for out in ("a", "b"):
        argv = ["growth", "--config", str(CONFIGS / "growth_ou.json"), "--format", "json",
                "--out", str(tmp_path / out)]
        assert cli_main(argv) == 0
        report = json.loads((tmp_path / out / "growth_rates_report.json").read_text())
        hashes.append(report["metadata"]["config_hash"])
    assert hashes[0] == hashes[1]


def _ctmc_pde_config(**pde):
    d = config_dict(experiment="pde")
    d["params"] = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                             "alpha": 1.0, "beta": 1.0}, "sigma": 0.2, "lambda": 2.5}
    d["pde"] = {"t_max": 0.5, "nx": 128, "snapshot_times": [0.25, 0.5], **pde}
    return d


def _config_with(path, value, d=None):
    """`d` (default `config_dict()`) with the field at the dotted `path` set to `value`."""
    d = config_dict() if d is None else d
    *sections, key = path.split(".")
    node = d
    for section in sections:
        node = node[section]
    node[key] = value
    return d


@pytest.mark.parametrize("command, d", [
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values=["abc"])),
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values=0.1)),
    ("pde", _ctmc_pde_config(nx="abc")),
    ("pde", _ctmc_pde_config(t_max="abc")),
    ("pde", _ctmc_pde_config(nx=16)),
    ("pde", _ctmc_pde_config(snapshot_times=[99.0])),
    ("pde", _ctmc_pde_config(t_max=math.inf, snapshot_times=None)),
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values="123")),
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values={"2": 1, "3": 1})),
    ("sweep", config_dict(experiment="lambda_sweep", sweep_values=[True, 2.0])),
    ("pde", _ctmc_pde_config(t_max=2.0, snapshot_times="12")),
    ("pde", _ctmc_pde_config(t_max=2.0, snapshot_times=[True, 2.0])),
    ("pde", _ctmc_pde_config(nx=300.7)),
    ("pde", _ctmc_pde_config(nx="300")),
    ("pde", _ctmc_pde_config(nx=True)),
    ("strategy", _config_with("sim.dt", True)),
    ("strategy", _config_with("params.sigma", True)),
    ("strategy", _config_with("params.drift.kappa", True)),
    ("strategy", _config_with("params.drift.m1_0", True)),
    ("strategy", _config_with("sim.x0", True)),
    ("pde", _ctmc_pde_config(t_max=True)),
    ("strategy", _config_with("sim.omega", "0.001")),
    ("strategy", _config_with("params.lambda", "2")),
    ("strategy", _config_with("out_dir", 5)),
    ("strategy", _config_with("out_dir", ["a"])),
    ("signal", _config_with("signal_input", 5, config_dict(experiment="signal"))),
    ("strategy", _config_with("experiment", ["performance"])),
], ids=["sweep_value_text", "sweep_values_scalar", "pde_nx_text", "pde_t_max_text",
        "pde_nx_small", "pde_snapshot_beyond_t_max", "pde_t_max_infinite",
        "sweep_values_string", "sweep_values_object", "sweep_values_boolean",
        "pde_snapshots_string", "pde_snapshots_boolean", "pde_nx_fraction",
        "pde_nx_numeric_text", "pde_nx_boolean", "dt_boolean", "sigma_boolean",
        "kappa_boolean", "m1_0_boolean", "x0_boolean", "pde_t_max_boolean",
        "omega_text", "lambda_text", "out_dir_number", "out_dir_list",
        "signal_input_number", "experiment_list"])
def test_cli_malformed_config_fields_exit_2(tmp_path, capsys, command, d):
    """A config field of the wrong type exits 2; no string, object or
    boolean is read as a number or a list of numbers, no fraction, text or
    boolean as a grid size, and nothing but a string as a path or an
    experiment name."""
    cfg = write_config(tmp_path, d)
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("nx", [300.7, "300", True])
def test_cli_pde_nx_not_integer_exits_2_unmarched(tmp_path, capsys, monkeypatch, nx):
    """A grid size that is not an integer exits 2 by its code before the
    march is reached; an integral float such as 128.0 is the integer."""
    marched = []
    solve = xl.experiments.regime_filter.solve_uv_pde
    monkeypatch.setattr(xl.experiments.regime_filter, "solve_uv_pde",
                        lambda *a, **kw: marched.append(kw["nx"]) or solve(*a, **kw))

    def run(value):
        cfg = write_config(tmp_path, _ctmc_pde_config(nx=value))
        return cli_main(["pde", "--config", cfg, "--out", str(tmp_path / "o")])

    assert run(nx) == 2
    assert "[nx_not_integer]" in capsys.readouterr().err
    assert run(128.0) == 0
    assert marched == [128] and type(marched[0]) is int


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
    ("drift", "delta", 1e200, "nonfinite_v1_0"),
    ("sim", "dt", 1e-320, "nonfinite_n_steps"),
    ("ctmc", "rho1", -math.inf, "nonfinite_rho1"),
    ("ctmc", "rho2", math.inf, "nonfinite_rho2"),
    ("ctmc", "alpha", math.inf, "nonfinite_alpha"),
    ("ctmc", "beta", math.inf, "nonfinite_beta"),
    ("params", "sigma", 1e-320, "subnormal_sigma"),
    ("params", "lambda", 1e-320, "subnormal_lambda"),
    ("ctmc", "alpha", 1e-320, "subnormal_alpha"),
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


@pytest.mark.parametrize("field, value, code", [
    ("n_paths", 300.7, "n_paths_not_integer"),
    ("n_paths", True, "n_paths_not_integer"),
    ("n_paths", "300", "n_paths_not_integer"),
    ("seed", 7.9, "seed_not_integer"),
    ("seed", False, "seed_not_integer"),
    ("seed", -1, "seed_out_of_range"),
    ("seed", 2**64, "seed_out_of_range"),
])
def test_cli_rejects_non_integer_counts_and_seeds(tmp_path, capsys, field, value, code):
    """A path count or seed that is not an integer in range exits 2 by its
    code, never truncated or wrapped into another run's."""
    d = json.loads((CONFIGS / "performance.json").read_text())
    d["sim"][field] = value
    cfg = write_config(tmp_path, d)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"[{code}]" in capsys.readouterr().err


def test_cli_seed_override_out_of_range_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, config_dict(n_paths=20))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
    assert "[seed_out_of_range]" in capsys.readouterr().err


def test_cli_integral_float_counts_and_seeds_run(tmp_path):
    """JSON spells a large count as a float, such as 1e4: an integral one
    is the integer."""
    d = config_dict(horizon=1.0)
    d["sim"].update(n_paths=1e2, seed=7.0)
    cfg = write_config(tmp_path, d)
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    report = json.loads((out / "performance.json").read_text())
    assert report["metadata"]["seed"] == 7
    assert {r["metrics"]["n_paths"] for r in report["rows"]} == {100}


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


def test_cli_numeric_exit_code(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, config_dict(experiment="growth_rates"))

    def boom(*a, **kw):
        raise xl.QuadratureError("synthetic failure", achieved_tol=1.0)

    monkeypatch.setattr(xl.experiments.ou_mod, "eta", boom)
    assert cli_main(["growth", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_failing_strategy_exits_before_the_first_draw(tmp_path, monkeypatch):
    """Every run's rows are built before its first path chunk is drawn, so
    a strategy that fails ends the run with nothing drawn."""
    cfg = write_config(tmp_path, config_dict(n_paths=20))

    def boom(*a, **kw):
        raise xl.QuadratureError("synthetic failure", achieved_tol=1.0)

    draws = []
    draw = xl.experiments.simulate_paths

    def counted(*a, **kw):
        draws.append(a)
        return draw(*a, **kw)

    monkeypatch.setattr(xl.experiments, "build_strategies", boom)
    monkeypatch.setattr(xl.experiments, "simulate_paths", counted)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert len(draws) == 0


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, config_dict())
    # the child imports the checkout's package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CONFIGS.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "expma_lab.cli", "simulate",
                           "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _simulate_csv(tmp_path, cfg, name):
    out = tmp_path / name
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return (out / "performance.csv").read_text()


def test_threads_env_var_bitwise_identical(tmp_path, monkeypatch):
    """EXPMA_THREADS, once the simulation's thread count, is read no more:
    set to a number, `simulate` writes the CSV it writes with the variable
    unset."""
    cfg = write_config(tmp_path, config_dict(n_paths=500))
    monkeypatch.delenv("EXPMA_THREADS", raising=False)
    unset = _simulate_csv(tmp_path, cfg, "unset")
    monkeypatch.setenv("EXPMA_THREADS", "3")
    assert _simulate_csv(tmp_path, cfg, "three") == unset


def test_cli_non_integer_threads_is_ignored(tmp_path, monkeypatch):
    """A word in EXPMA_THREADS is no config error: `simulate` exits 0 with
    the CSV it writes with the variable unset."""
    cfg = write_config(tmp_path, config_dict(n_paths=20))
    monkeypatch.delenv("EXPMA_THREADS", raising=False)
    unset = _simulate_csv(tmp_path, cfg, "unset")
    monkeypatch.setenv("EXPMA_THREADS", "two")
    assert _simulate_csv(tmp_path, cfg, "two") == unset


# At kappa = 1e-4, lambda = 0.01 the slope a2*(t) is still far from a_inf
# after the 2000 scanned days, so there is no convergence day to report.
def test_cli_strategy_unsettled_coefficient_exits_3(tmp_path, capsys):
    d = json.loads((CONFIGS / "performance.json").read_text())
    d["params"]["drift"]["kappa"] = 1e-4
    d["params"]["lambda"] = 0.01
    assert cli_main(["strategy", "--config", write_config(tmp_path, d)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "slope coefficient" in err and "1.19e-06" in err


def test_cli_pde_marches_to_t_max_within_the_step_bound(tmp_path, monkeypatch):
    """--t-max moves the end of the march even when the config lists
    snapshot times, and the step bound covers the steps taken: with the
    limit lowered to the steps a march took, that march is rejected."""
    runs = {}
    for t_max in ("8", "40"):
        argv = ["pde", "--config", str(CONFIGS / "pde.json"), "--t-max", t_max,
                "--out", str(tmp_path / t_max), "--format", "json"]
        assert cli_main(argv) == 0
        rows = (tmp_path / t_max / "uv_grid.csv").read_text().splitlines()[1:]
        times = sorted({float(row.split(",")[0]) for row in rows})
        report = json.loads((tmp_path / t_max / "pde_report.json").read_text())
        steps = report["metadata"]["pde_steps"]
        with monkeypatch.context() as m:
            m.setattr(xl.regime_filter, "MAX_PDE_STEPS", steps)
            assert cli_main(argv) == 2
        runs[float(t_max)] = (times, steps)
    assert runs[8.0][0] == [1.0, 2.0, 8.0]
    assert runs[40.0][0] == [1.0, 2.0, 8.0, 40.0]
    assert runs[40.0][1] > runs[8.0][1]


def test_cli_pde_rejects_a_march_over_the_step_limit(tmp_path, capsys):
    start = time.perf_counter()
    rc = cli_main(["pde", "--config", str(CONFIGS / "pde.json"), "--t-max", "1e6",
                   "--out", str(tmp_path / "p")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "[too_many_pde_steps]" in capsys.readouterr().err


def test_cli_pde_rejects_a_march_over_the_work_limit(tmp_path, capsys):
    """4.96e5 steps, under the step limit, but each over 4e6-element arrays."""
    d = json.loads((CONFIGS / "pde.json").read_text())
    d["pde"] = {"t_max": 0.0005, "nx": 2_000_000}
    start = time.perf_counter()
    rc = cli_main(["pde", "--config", write_config(tmp_path, d), "--out", str(tmp_path / "p")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "[too_much_pde_work]" in capsys.readouterr().err


# A valid model whose closed forms leave the double range: sigma**2 and
# (kappa - lambda)**2 overflow in OUCoefficients, the horizon in the affine solve.
@pytest.mark.parametrize("section, field, value", [
    ("params", "sigma", 1e200), ("drift", "kappa", 1e200), ("sim", "horizon_months", 1e300)])
def test_cli_strategy_overflow_exits_3(tmp_path, capsys, section, field, value):
    d = json.loads((CONFIGS / "performance.json").read_text())
    {"sim": d["sim"], "params": d["params"]}.get(section, d["params"]["drift"])[field] = value
    assert cli_main(["strategy", "--config", write_config(tmp_path, d)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: OverflowError: ")


def test_cli_strategy_nonfinite_exponential_sum_exits_3_without_a_nan(tmp_path, capsys):
    """With mu_bar at 1e200 and a finite m1_0, the third-moment series holds
    infinite terms of both signs: the sum raises a named error before it
    adds them, where it formed a NaN with an `invalid value` warning."""
    d = json.loads((CONFIGS / "performance.json").read_text())
    d["params"]["drift"].update(mu_bar=1e200, m1_0=0.0034)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["strategy", "--config", write_config(tmp_path, d)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: exponential-sum term ")


@pytest.mark.parametrize("config, out", [
    (".", None), ("latin1.json", None), ("cfg.json", "a_file"), ("cfg.json", "a_file/sub")],
    ids=["config_is_a_directory", "config_is_not_utf8", "out_is_a_file", "out_under_a_file"])
def test_cli_file_errors_exit_2_before_any_work(tmp_path, monkeypatch, capsys, config, out):
    """Each ended in a traceback (IsADirectoryError, UnicodeDecodeError,
    FileExistsError, NotADirectoryError); now a config error, before a
    simulation starts."""
    def no_simulation(*a, **kw):
        raise AssertionError("simulated despite a bad path")

    monkeypatch.setattr(xl.experiments, "simulate_paths", no_simulation)
    write_config(tmp_path, config_dict(n_paths=20))
    (tmp_path / "a_file").write_text("")
    (tmp_path / "latin1.json").write_bytes(b'{"experiment": "caf\xe9"}')
    argv = ["simulate", "--config", str(tmp_path / config)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_unusable_input_or_output_file_exits_2(tmp_path, capsys):
    """A directory where the report is written, or given as the price
    file, ended in IsADirectoryError, and a price file that is not UTF-8
    in UnicodeDecodeError; now each is a config error."""
    (tmp_path / "o" / "performance.csv").mkdir(parents=True)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"date,close\n2020-01-01,100\n2020-01-02,caf\xe9\n")
    cfg = write_config(tmp_path, config_dict(n_paths=20, horizon=1.0))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    for prices in (tmp_path, latin1):
        assert cli_main(["signal", "--config", str(CONFIGS / "signal.json"),
                         "--input", str(prices), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(e.startswith("config error: ") for e in err)


# The shipped OU and Markov-drift models and simulation settings; the
# Hypothesis draws below scale each value by up to three decades.
OU_RAW = {"kappa": 0.0226, "mu_bar": 0.0034, "delta": 8.2404e-4,
          "m1_0": 0.0034, "v1_0": 1.5e-5}
MARKOV_RAW = {"rho1": -0.2, "rho2": 0.3, "alpha": 1.0, "beta": 1.0}
PARAMS_RAW = {"ou": (OU_RAW, 0.0436, 2.0), "ctmc2": (MARKOV_RAW, 0.2, 2.5)}
# omega and x0 ship as 0; they scale from 0.001 (the cost sweep) and 1
SIM_RAW = {"dt": 1 / 21, "horizon_months": 24.0, "n_paths": 10_000,
           "seed": 20260809, "omega": 0.001, "x0": 1.0, "pi0": 1.0}


@st.composite
def raw_configs(draw):
    """A `strategy` config dict: every value finite and within three decades
    of the shipped one, except at most one field set to 0, its negative,
    +-inf, nan, 1e200, 1e300 or 1e-320. The initial-law fields m1_0 and
    v1_0 may be null."""
    def near(base):
        return base * 10.0 ** draw(st.floats(-3.0, 3.0))

    kind = draw(st.sampled_from(sorted(PARAMS_RAW)))
    drift_raw, sigma, lam = PARAMS_RAW[kind]
    drift = {k: near(v) for k, v in drift_raw.items()}
    for k in ("m1_0", "v1_0"):
        if k in drift and draw(st.booleans()):
            drift[k] = None
    params = {"sigma": near(sigma), "lambda": near(lam)}
    sim = {k: near(v) for k, v in SIM_RAW.items()}
    sim["n_paths"], sim["seed"] = int(sim["n_paths"]), int(sim["seed"])
    fields = [(sec, k) for sec in (drift, params, sim) for k in sorted(sec)]
    bad = draw(st.sampled_from([None, *range(len(fields))]))
    if bad is not None:
        sec, k = fields[bad]
        special = draw(st.sampled_from(["zero", "negative", "inf", "-inf", "nan",
                                        "1e200", "1e300", "1e-320"]))
        if special == "negative":
            sec[k] = -(sec[k] if sec[k] is not None else 1.0)
        else:
            sec[k] = {"zero": 0.0, "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
                      "1e200": 1e200, "1e300": 1e300, "1e-320": 1e-320}[special]
    params["drift"] = {"type": kind, **drift}
    return {"experiment": "performance", "params": params, "sim": sim}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=raw_configs())
def test_raw_values_end_in_a_valid_value_or_a_named_error(tmp_path, d):
    for cls, raw, check in ((xl.ModelParams, d["params"], xl.validate),
                            (xl.SimConfig, d["sim"], xl.validate_sim)):
        try:
            made = cls.from_dict(raw)
        except (xl.ValidationError, ConfigError):
            continue
        assert check(made) is made
    assert cli_main(["strategy", "--config", write_config(tmp_path, d)]) in (0, 2, 3)
