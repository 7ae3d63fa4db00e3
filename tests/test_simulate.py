import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import expma_lab as xl
from expma_lab import (BuyAndHold, ConstantAffine, LeverageCostSingularityError,
                       ModelParams, OUDrift, ResourceLimitError, SimConfig,
                       growth_limit_affine, ou_moments, rebalance_delta,
                       run_strategy, self_financing_residuals, simulate_paths)
from oracles import ou_paths_per_path_rng, reference_ledger


def small_config(**kw):
    base = dict(horizon_months=6.0, n_paths=64, seed=7)
    base.update(kw)
    return SimConfig(**base)


# --- path generation -----------------------------------------------------------

def test_same_seed_bit_identical(benchmark_params):
    cfg = small_config()
    b1 = simulate_paths(benchmark_params, cfg)
    b2 = simulate_paths(benchmark_params, cfg)
    for a, b in ((b1.x, b2.x), (b1.y, b2.y), (b1.z, b2.z), (b1.mu, b2.mu)):
        assert np.array_equal(a, b)
    assert b1.identity_hash() == b2.identity_hash()


def test_chunked_equals_monolithic(benchmark_params):
    cfg = small_config(n_paths=100)
    whole = simulate_paths(benchmark_params, cfg)
    parts = [simulate_paths(benchmark_params, dataclasses.replace(cfg, n_paths=40), path_offset=0),
             simulate_paths(benchmark_params, dataclasses.replace(cfg, n_paths=60), path_offset=40)]
    stitched = np.vstack([parts[0].x, parts[1].x])
    assert np.array_equal(whole.x, stitched)


def test_worker_count_irrelevant(benchmark_params, ctmc_params):
    cfg = small_config(n_paths=600)
    for params in (benchmark_params, ctmc_params):
        b1 = simulate_paths(params, cfg, workers=1)
        b4 = simulate_paths(params, cfg, workers=4)
        assert np.array_equal(b1.x, b4.x)
        assert np.array_equal(b1.mu, b4.mu)


@pytest.mark.parametrize("tile_bytes", [1, 8 * 256 * 7, 1 << 40])
def test_ou_fill_matches_per_path_generators(benchmark_params, monkeypatch, tile_bytes):
    """The fill reuses one generator per block and runs the recursion on
    time-major tiles (1 step, 7 steps for the 256-path block, the whole
    horizon); a fresh generator per path and a path-major loop give the
    same bits."""
    monkeypatch.setattr(xl.simulate, "FILL_TILE_BYTES", tile_bytes)
    cfg = small_config(n_paths=300, horizon_months=3.0, x0=0.25)
    b = simulate_paths(benchmark_params, cfg, path_offset=1000)
    x, y, mu = ou_paths_per_path_rng(benchmark_params, cfg, path_offset=1000)
    assert np.array_equal(b.x, x)
    assert np.array_equal(b.y, y)
    assert np.array_equal(b.mu, mu)
    assert np.array_equal(b.z, x - y)


def test_bundle_invariants(benchmark_params, ctmc_params):
    cfg = small_config(x0=0.25)
    for params in (benchmark_params, ctmc_params):
        b = simulate_paths(params, cfg)
        assert np.all(b.y[:, 0] == 0.0)
        assert np.all(b.x[:, 0] == 0.25)
        assert np.array_equal(b.z, b.x - b.y)
    bc = simulate_paths(ctmc_params, cfg)
    states = {ctmc_params.drift.rho1, ctmc_params.drift.rho2}
    assert set(np.unique(bc.mu)) <= states


def test_deterministic_limit_constant_drift():
    p = ModelParams(drift=OUDrift(kappa=0.0226, mu_bar=0.0034, delta=1e-12,
                                  m1_0=0.0034, v1_0=0.0), sigma=1e-12, lam=2.0)
    cfg = small_config(n_paths=3, horizon_months=2.0)
    b = simulate_paths(p, cfg)
    n = cfg.n_steps
    expected = (0.0034 - 0.5e-24) * n * cfg.dt
    assert np.max(np.abs(b.x[:, -1] - expected)) < 1e-8


def test_resource_bound():
    p = ModelParams(drift=OUDrift(kappa=0.0226, mu_bar=0.0034, delta=8.2404e-4),
                    sigma=0.0436, lam=2.0)
    with pytest.raises(ResourceLimitError):
        simulate_paths(p, SimConfig(horizon_months=600.0, n_paths=100_000, seed=1))


@pytest.mark.slow
def test_z_moments_match_closed_forms(benchmark_params):
    """Bundle statistics at t = 12 vs the closed-form moments within 3 SE
    (refined step keeps the Euler bias inside the band)."""
    dt = 1.0 / 210.0
    t = 12.0
    n_total = 100_000
    chunk = 10_000
    z_final = np.empty(n_total)
    mu_final = np.empty(n_total)
    cfg = SimConfig(horizon_months=t, n_paths=chunk, seed=99, dt=dt)
    for off in range(0, n_total, chunk):
        b = simulate_paths(benchmark_params, cfg, path_offset=off)
        z_final[off:off + chunk] = b.z[:, -1]
        mu_final[off:off + chunk] = b.mu[:, -1]
    m = ou_moments(benchmark_params, t)
    n = n_total
    assert abs(z_final.mean() - m.m2) < 3 * z_final.std(ddof=1) / math.sqrt(n)
    var_se = z_final.var() * math.sqrt(2.0 / n) * 1.05
    assert abs(z_final.var(ddof=1) - m.v2) < 3 * var_se
    prod = mu_final * z_final
    assert abs(prod.mean() - m.m3) < 3 * prod.std(ddof=1) / math.sqrt(n)


def test_ctmc_bundle_moments(ctmc_params):
    """Markov-drift bundle (exact within-step jumps) matches the closed-form
    signal moments within 3 SE."""
    cfg = SimConfig(horizon_months=1.0, n_paths=150_000, seed=55, dt=1.0 / 21.0)
    b = simulate_paths(ctmc_params, cfg)
    m = xl.ctmc_moments(ctmc_params, 1.0)
    z = b.z[:, -1]
    n = z.size
    # Y is updated from daily X samples, so Z carries an O(lambda dt) bias
    # relative to the continuous-time moments; widen by the known factor
    bias_factor = ctmc_params.lam * cfg.dt / 2.0
    assert abs(z.mean() - m.n2) < 3 * z.std(ddof=1) / math.sqrt(n) + bias_factor * abs(m.n2)
    assert abs(z.var(ddof=1) - (m.n4 - m.n2**2)) < \
        3 * z.var() * math.sqrt(2.0 / n) * 1.3 + bias_factor * (m.n4 - m.n2**2)


# --- rebalancing algebra ----------------------------------------------------------

def test_delta_costfree_formula():
    f_cur, f_next, pi, x0, x1 = 0.4, 0.9, 1.3, 0.0, 0.02
    d = rebalance_delta(f_next, f_cur, pi, x0, x1, 0.0)
    pi_pre = pi * (1 - f_cur + f_cur * math.exp(x1 - x0))
    expected = (f_next * pi_pre - f_cur * pi * math.exp(x1 - x0)) / math.exp(x1)
    assert d == pytest.approx(expected, rel=1e-15)


def test_delta_noop():
    assert rebalance_delta(0.7, 0.7, 1.0, 0.01, 0.01, 0.005) == pytest.approx(0.0, abs=1e-18)


def test_delta_vs_root_finding():
    """Closed-form share change vs a 1-d root find on the defining pair."""
    f_cur, f_next, pi, x0, x1, omega = 0.5, 1.5, 1.0, 0.0, 0.01, 0.001
    pi_pre = pi * (1 - f_cur + f_cur * math.exp(x1 - x0))
    shares = f_cur * pi / math.exp(x0)

    def residual(delta):
        pi_new = pi_pre - omega * abs(delta) * math.exp(x1)
        return f_next * pi_new - (shares + delta) * math.exp(x1)

    root = brentq(residual, -10, 10, xtol=1e-16, rtol=1e-15)
    d = rebalance_delta(f_next, f_cur, pi, x0, x1, omega)
    assert d == pytest.approx(root, rel=1e-10)
    assert abs(residual(d)) < 1e-12


def test_delta_sign_consistency_near_crossover():
    """Near f_next ~ f_cur the trade direction follows the numerator, and the
    self-financing pair still holds exactly."""
    pi, x0, omega = 1.0, 0.0, 0.01
    for x1, f_cur in ((0.01, 0.8), (-0.01, 0.8), (0.004, 1.2)):
        for f_next in (f_cur - 2e-3, f_cur, f_cur + 2e-3):
            d = rebalance_delta(f_next, f_cur, pi, x0, x1, omega)
            pi_pre = pi * (1 - f_cur + f_cur * math.exp(x1 - x0))
            pi_new = pi_pre - omega * abs(d) * math.exp(x1)
            lhs = f_next * pi_new
            rhs = (f_cur * pi / math.exp(x0) + d) * math.exp(x1)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_delta_singularity():
    # selling down to f_next = 1/omega makes the sell-branch denominator vanish
    with pytest.raises(LeverageCostSingularityError):
        rebalance_delta(100.0, 300.0, 1.0, 0.0, 0.0, 0.01)


# --- wealth evolution ---------------------------------------------------------------

def test_buy_and_hold_exact(benchmark_params):
    cfg = small_config(x0=0.1, pi0=2.0)
    b = simulate_paths(benchmark_params, cfg)
    led = run_strategy(b, BuyAndHold(), 0.0)
    expected = 2.0 * np.exp(b.x - 0.1)
    assert np.array_equal(led.wealth, expected)
    assert np.all(led.delta == 0.0)
    assert np.all(led.cost == 0.0)
    assert led.bankrupt.sum() == 0


def test_frictionless_and_cost_path_bit_identical(benchmark_params):
    cfg = small_config(n_paths=128)
    b = simulate_paths(benchmark_params, cfg)
    strat = ConstantAffine(*growth_limit_affine(benchmark_params))
    fast = run_strategy(b, strat, 0.0)
    slow = run_strategy(b, strat, 0.0, force_cost_path=True)
    assert np.array_equal(fast.wealth, slow.wealth)
    assert np.array_equal(fast.delta, slow.delta)
    assert np.array_equal(fast.weights, slow.weights)


def test_self_financing_residuals(benchmark_params):
    cfg = small_config(n_paths=100, horizon_months=24.0)
    b = simulate_paths(benchmark_params, cfg)
    strat = ConstantAffine(*growth_limit_affine(benchmark_params))
    for omega in (0.0, 0.001, 0.01):
        led = run_strategy(b, strat, omega)
        r1, r2 = self_financing_residuals(led, b)
        assert r1 <= 1e-10
        assert r2 <= 1e-10
    assert np.all(led.cost == 0.0) if omega == 0.0 else True
    led0 = run_strategy(b, strat, 0.0)
    assert np.all(led0.cost == 0.0)


def test_terminal_wealth_monotone_in_cost(benchmark_params):
    cfg = small_config(n_paths=200, horizon_months=24.0)
    b = simulate_paths(benchmark_params, cfg)
    strat = ConstantAffine(*growth_limit_affine(benchmark_params))
    prev = None
    for omega in (0.0, 0.001, 0.005, 0.01):
        w = run_strategy(b, strat, omega).wealth[:, -1]
        if prev is not None:
            assert np.all(w <= prev + 1e-12)
        prev = w


def test_bankruptcy_freeze():
    # enormous leverage forces wealth through zero; frozen paths stay at
    # their last positive value and trade no more
    p = ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.05, delta=0.01),
                    sigma=0.3, lam=2.0)
    cfg = SimConfig(horizon_months=12.0, n_paths=64, seed=3)
    b = simulate_paths(p, cfg)
    led = run_strategy(b, ConstantAffine(0.0, 40.0), 0.0)
    assert led.bankrupt.any()
    assert np.all(led.wealth > 0.0)
    for row in np.nonzero(led.bankrupt)[0]:
        # the strategy weight is 40 until the path freezes to 0 forever
        zeros = np.nonzero(led.weights[row] == 0.0)[0]
        if zeros.size == 0:
            continue  # froze on the terminal step; no weight slot remains
        freeze_at = zeros[0]
        assert np.all(led.weights[row, freeze_at:] == 0.0)
        assert np.all(led.wealth[row, freeze_at:] == led.wealth[row, freeze_at])


def test_strategies_receive_common_paths(benchmark_params):
    # the interface hands every strategy the same bundle object
    cfg = small_config(n_paths=32)
    b = simulate_paths(benchmark_params, cfg)
    l1 = run_strategy(b, ConstantAffine(1.0, 1.0), 0.0)
    l2 = run_strategy(b, ConstantAffine(2.0, 0.5), 0.0)
    assert l1.n_paths == l2.n_paths
    # identical first-day pre-rebalance wealth: both start from one share
    assert np.array_equal(l1.pre_wealth[:, 0], l2.pre_wealth[:, 0])


# --- whole-grid ledger vs the day-by-day reference ---------------------------------

@pytest.fixture(scope="module")
def ledger_cases(benchmark_params, ctmc_gentle_params):
    ou = simulate_paths(benchmark_params, small_config(n_paths=100, horizon_months=24.0))
    panel = dict(xl.build_strategies(benchmark_params, 24.0))
    gentle = simulate_paths(ctmc_gentle_params, small_config(n_paths=100, horizon_months=12.0))
    # the 40x-leverage bundle of test_bankruptcy_freeze: paths freeze on many different days
    lev = ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.05, delta=0.01), sigma=0.3, lam=2.0)
    return {
        "ou_constant": (ou, panel["growth"]),
        "ou_time_varying": (ou, panel["utility_c2"]),
        "ctmc_filter": (gentle, xl.filter_strategy(ctmc_gentle_params)),
        "bankruptcy": (simulate_paths(lev, SimConfig(horizon_months=12.0, n_paths=64, seed=3)),
                       ConstantAffine(0.0, 40.0)),
    }


@pytest.mark.parametrize("omega", [0.0, 0.001, 0.01])
@pytest.mark.parametrize("case", ["ou_constant", "ou_time_varying", "ctmc_filter", "bankruptcy"])
def test_ledger_matches_reference_loop(ledger_cases, case, omega):
    bundle, strat = ledger_cases[case]
    led = run_strategy(bundle, strat, omega)
    ref = reference_ledger(bundle, strat, omega)
    assert np.array_equal(led.bankrupt, ref.bankrupt)
    assert np.array_equal(led.weights, ref.weights)
    if omega == 0.0:
        assert np.array_equal(led.wealth, ref.wealth)
    else:
        assert np.max(np.abs(led.wealth - ref.wealth) / ref.wealth) <= 1e-12
    np.testing.assert_allclose(led.pre_wealth, ref.pre_wealth, rtol=1e-12, atol=0.0)
    for mine, theirs in ((led.delta, ref.delta), (led.cost, ref.cost)):
        np.testing.assert_allclose(mine, theirs, rtol=0.0,
                                   atol=1e-12 * max(np.abs(theirs).max(), 1e-300))
    r1, r2 = self_financing_residuals(led, bundle)
    assert r1 <= 1e-10 and r2 <= 1e-10


@pytest.mark.parametrize("omega", [0.0, 0.01])
def test_ledger_block_size_invariant(monkeypatch, omega):
    """One path per block, three (odd) and the whole grid give the same
    bits in every ledger field, with bankrupt paths in rows 2 and 3, either
    side of the first edge of three-path blocks."""
    lev = ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.05, delta=0.01), sigma=0.3, lam=2.0)
    b = simulate_paths(lev, SimConfig(horizon_months=12.0, n_paths=64, seed=3))
    strat = ConstantAffine(0.0, 5.0)
    broke = run_strategy(b, strat, omega).bankrupt
    assert 2 <= broke.sum() <= 60
    ok_rows, broke_rows = np.flatnonzero(~broke), np.flatnonzero(broke)
    order = np.concatenate([ok_rows[:2], broke_rows, ok_rows[2:]])
    b = dataclasses.replace(b, x=b.x[order], y=b.y[order], z=b.z[order], mu=b.mu[order])

    row_bytes = 8 * (b.n_steps + 1)
    ledgers = []
    for rows in (1, 3, b.n_paths):
        monkeypatch.setattr(xl.simulate, "LEDGER_BLOCK_BYTES", rows * row_bytes)
        ledgers.append(run_strategy(b, strat, omega))
    assert ledgers[0].bankrupt[2] and ledgers[0].bankrupt[3]
    assert not ledgers[0].bankrupt[1] and not ledgers[0].bankrupt[-1]
    for led in ledgers[:2]:
        for field in ("wealth", "pre_wealth", "weights", "delta", "cost", "bankrupt"):
            assert np.array_equal(getattr(led, field), getattr(ledgers[-1], field)), field
