"""Fast tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, Invocation  # noqa: E402

TINY_CONFIG = {
    "experiment": "performance",
    "params": {"drift": {"type": "ou", "kappa": 0.0226, "mu_bar": 0.0034,
                         "delta": 0.00082404, "m1_0": None, "v1_0": None},
               "sigma": 0.0436, "lambda": 2.0},
    "sim": {"dt": 1.0 / 21.0, "horizon_months": 1.0, "n_paths": 20,
            "seed": DEFAULT_SEED, "omega": 0.001, "x0": 0.0, "pi0": 1.0},
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == spans.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert all(NAME.match(n) for n in [*e2e, *layers])


def _span(name, start, end, parent, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "invocation": 0, "attrs": attrs}


def test_self_time_subtracts_direct_children_only():
    nested = [_span("root", 0.0, 10.0, None),
              _span("a", 1.0, 4.0, 0),
              _span("a.inner", 2.0, 3.0, 1),
              _span("b", 5.0, 7.0, 0)]
    assert spans.self_times(nested) == [5.0, 2.0, 1.0, 2.0]


def test_layer_metrics_from_nested_spans():
    child = {"import_s": 0.5, "spans": [
        _span("experiments.run_experiment", 0.0, 10.0, None),
        _span("simulate.run_strategy", 1.0, 5.0, 0, omega=0.0, path_steps=100,
              paths=10, active_paths=9, bytes=800, residual=1e-15),
        _span("models.weights.TimeVaryingAffine", 2.0, 3.0, 1),
        _span("ou.optimal_c2_coefficients", 2.5, 2.75, 2),
        _span("trace.residual_check", 5.0, 6.0, 0),
        _span("ou.convergence_day", 7.0, 8.0, 0),
        _span("ou.optimal_c2_coefficients", 7.5, 7.75, 5),
    ]}
    m = spans.layer_metrics([child, child])
    assert m["cli.import_s"] == 1.0
    assert m["experiments.run_experiment_s"] == 20.0
    assert m["experiments.run_experiment_self_s"] == 2 * (10.0 - 4.0 - 1.0 - 1.0)
    assert m["simulate.run_strategy_self_s"] == 2 * 3.0
    assert m["simulate.run_strategy.frictionless_s"] == 8.0
    assert m["simulate.run_strategy.cost_s"] == 0.0
    assert m["simulate.ledger_ns_per_path_step"] == pytest.approx(1e9 * 6.0 / 200)
    assert m["simulate.active_path_share"] == 0.9
    assert m["models.weights.TimeVaryingAffine_calls"] == 2
    assert m["ou.optimal_c2_coefficients_calls"] == 4
    # nested ou calls are not counted twice
    assert m["ou.closed_forms_s"] == 2 * (0.25 + 1.0)
    assert m["trace.residual_check_s"] == 2.0
    assert set(m) | {"trace.overhead_s"} == set(spans.LAYER_UNITS)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A one-invocation workload on a 20-path, 21-step OU config, with its
    reference written by the program at the default seed."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setitem(run.WORKLOADS, "tiny",
                        (Invocation("simulate", "simulate", str(config)),))
    monkeypatch.setattr(run, "REFERENCE", str(tmp_path / "ref"))
    ref = tmp_path / "ref" / "tiny" / "simulate"
    ref.mkdir(parents=True)
    runner = run.Runner(str(ROOT), str(work))
    rec = runner.spawn("make-ref", "run", 0, run.WORKLOADS["tiny"][0].argv(
        str(ROOT), str(work), DEFAULT_SEED, str(ref)))
    assert rec["errors"] == []
    return runner, ref / "performance.csv"


def test_traced_run_reports_every_layer_and_matches_untraced(tiny):
    runner, _ = tiny
    metrics, attempted, failed = run.run_workload(runner, "tiny", DEFAULT_SEED, 0.0, True)
    assert (attempted, failed) == (2, 0)
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert metrics["simulate.run_strategy.cost_s"][0] > 0.0
    assert metrics["metrics.compute_metrics_calls"][0] == 4
    assert metrics["simulate.max_self_financing_residual"][0] <= spans.RESIDUAL_LIMIT


def test_changed_reference_digit_raises_failed_share(tiny):
    runner, ref_csv = tiny
    _, attempted, failed = run.run_workload(runner, "tiny", DEFAULT_SEED, 0.0, False)
    assert (attempted, failed) == (1, 0)

    header, first, *rest = ref_csv.read_text().splitlines()
    cells = first.split(",")
    digits = cells[4]  # total_return
    pos = next(i for i, c in enumerate(digits) if c in "123456789")
    cells[4] = digits[:pos + 2] + str((int(digits[pos + 2]) + 1) % 10) + digits[pos + 3:]
    ref_csv.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")

    metrics, attempted, failed = run.run_workload(runner, "tiny", DEFAULT_SEED, 0.0, False)
    assert (attempted, failed) == (1, 1)
    assert metrics == {}


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "analytics",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert not os.path.exists(tmp_path / ".bench_work")
