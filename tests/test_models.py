import ast
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import expma_lab
from expma_lab import (CTMC2Drift, ConstantAffine, ModelParams, OUDrift,
                       SimConfig, TimeVaryingAffine, ValidationError,
                       period_to_lambda, validate, validate_sim)


def test_benchmark_params_accepted(benchmark_params):
    assert validate(benchmark_params) is benchmark_params


def test_kappa_equals_lambda_named_error(benchmark_params):
    with pytest.raises(ValidationError) as exc:
        ModelParams(drift=OUDrift(kappa=2.0, mu_bar=0.0034, delta=8.2e-4),
                    sigma=0.04, lam=2.0)
    assert "kappa_equals_lambda" in exc.value.codes
    # every way of making a value checks it
    with pytest.raises(ValidationError) as exc:
        benchmark_params.with_lambda(benchmark_params.drift.kappa)
    assert exc.value.codes == ["kappa_equals_lambda"]
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(benchmark_params, sigma=0.0)
    assert exc.value.codes == ["nonpositive_sigma"]


def test_lambda_equals_alpha_plus_beta_named_error():
    with pytest.raises(ValidationError) as exc:
        ModelParams(drift=CTMC2Drift(rho1=-0.1, rho2=0.2, alpha=1.0, beta=1.0),
                    sigma=0.2, lam=2.0)
    assert "lambda_equals_alpha_plus_beta" in exc.value.codes
    # the near-equality guard fires too
    with pytest.raises(ValidationError):
        ModelParams(drift=CTMC2Drift(rho1=-0.1, rho2=0.2, alpha=1.0, beta=1.0),
                    sigma=0.2, lam=2.0 + 1e-9)


def test_all_violations_reported_with_fields():
    with pytest.raises(ValidationError) as exc:
        ModelParams(drift=OUDrift(kappa=-1.0, mu_bar=0.0, delta=-2.0, v1_0=-1.0),
                    sigma=-1.0, lam=-1.0)
    fields = {f for f, _, _ in exc.value.violations}
    assert {"sigma", "lambda", "drift.kappa", "drift.delta"} <= fields


def test_validate_idempotent(benchmark_params):
    assert validate(validate(benchmark_params)) == benchmark_params


def test_stationary_defaults(benchmark_params):
    d = benchmark_params.drift
    assert d.stationary_default
    assert d.m1_0 == d.mu_bar
    assert d.v1_0 == pytest.approx(d.delta**2 / (2 * d.kappa), rel=1e-15)
    explicit = OUDrift(kappa=0.1, mu_bar=0.0, delta=0.01, m1_0=0.0, v1_0=0.0)
    assert not explicit.stationary_default


def test_period_to_lambda_values():
    assert period_to_lambda(20, 1 / 21) == pytest.approx(2.0, abs=1e-15)
    assert period_to_lambda(10, 1 / 21) == pytest.approx(42 / 11, rel=1e-15)
    assert period_to_lambda(1, 1.0) == 1.0


def test_period_to_lambda_round_trip_exact():
    dt = 1.0 / 21.0
    for p in (10, 20, 50, 100, 200):
        lam = period_to_lambda(p, dt)
        target = 2.0 / (p + 1)
        assert abs(lam * dt - target) <= math.ulp(target)
        assert Fraction(42, p + 1) == pytest.approx(lam, rel=1e-15)


def test_period_to_lambda_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        period_to_lambda(0, 1 / 21)
    with pytest.raises(ValidationError):
        period_to_lambda(2.5, 1 / 21)
    with pytest.raises(ValidationError):
        period_to_lambda(10, 0.0)


@given(st.integers(min_value=1, max_value=10_000))
def test_period_to_lambda_strictly_decreasing(p):
    dt = 1 / 21
    assert period_to_lambda(p, dt) > period_to_lambda(p + 1, dt)


def test_sim_config_invariants():
    good = SimConfig(horizon_months=24, n_paths=100, seed=1)
    assert validate_sim(good) is good
    assert good.n_steps == 504
    for kw in (dict(dt=0.0), dict(horizon_months=-1), dict(n_paths=0), dict(omega=1.0),
               dict(omega=-0.1), dict(n_paths=1.5), dict(seed=-5), dict(seed=2**64)):
        with pytest.raises(ValidationError):
            SimConfig(**{**dict(horizon_months=24, n_paths=100, seed=1), **kw})
        with pytest.raises(ValidationError):
            dataclasses.replace(good, **kw)


def test_params_json_round_trip(benchmark_params, ctmc_params):
    for p in (benchmark_params, ctmc_params):
        d = p.to_dict()
        assert "lambda" in d and "sigma" in d
        assert ModelParams.from_dict(d) == p
    cfg = SimConfig(horizon_months=24, n_paths=10, seed=7, omega=0.001)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_constant_affine_rejects_nonfinite():
    with pytest.raises(ValidationError):
        ConstantAffine(a=float("nan"), b=1.0)
    s = ConstantAffine(a=2.0, b=1.0)
    np.testing.assert_allclose(s.weights(0.0, np.array([0.0, 1.0])), [1.0, 3.0])


def test_time_varying_affine_array_t():
    """An array t aligned with the time axis of z gives, column by column,
    the weights of scalar t; a non-finite coefficient anywhere is rejected."""
    s = TimeVaryingAffine(lambda t: (np.asarray(t) + 1.0, 2.0 * np.asarray(t)))
    t = np.array([0.5, 1.0, 1.5])
    z = np.arange(6.0).reshape(2, 3)
    grid = s.weights(t, z)
    for j in range(t.size):
        assert np.array_equal(grid[:, j], s.weights(float(t[j]), z[:, j]))
    bad = TimeVaryingAffine(lambda t: (np.where(np.asarray(t) > 1.2, np.nan, 1.0), 0.0))
    with pytest.raises(ValidationError) as exc:
        bad.weights(t, z)
    assert exc.value.codes == ["nonfinite_coefficients"]
    assert "t=1.5" in str(exc.value)


def test_validation_runs_only_in_models():
    """ModelParams and SimConfig validate themselves when made, so no other
    module of the package calls validate or validate_sim."""
    calls = []
    for path in sorted(Path(expma_lab.__file__).parent.glob("*.py")):
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("validate", "validate_sim"):
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
