"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Everything is pinned to the default seed published
in the README, so reruns are exactly reproducible.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import expma_lab as xl
from expma_lab import (ConstantAffine, SimConfig, compute_metrics,
                       run_strategy, simulate_paths)
from conftest import DEFAULT_SEED
from oracles import (ctmc_drift_integral, ctmc_exact_signal, frictionless_wealth,
                     mc_log_growth, ou_moment_mc)


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    elapsed = time.time() - start
    print(f"\nACCEPTANCE {num}: PASS - {desc} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


@pytest.fixture(scope="module")
def desk_bundle(benchmark_params):
    cfg = SimConfig(horizon_months=24.0, n_paths=10_000, seed=DEFAULT_SEED)
    return cfg, simulate_paths(benchmark_params, cfg)


def test_criterion_1_closed_form_coefficients(benchmark_params):
    with criterion(1, "closed-form strategy coefficients", budget_s=1.0):
        a1, b1 = xl.optimal_utility_affine(benchmark_params, 24.0, benchmark_c=True)
        assert abs(a1 - 8.1147) < 1e-3
        assert abs(b1 - 1.7788) < 1e-3
        a_inf, b_inf = xl.growth_limit_affine(benchmark_params)
        assert abs(a_inf - 8.1580) < 1e-3
        assert abs(b_inf - 1.7786) < 1e-3
        # definition-faithful route, frozen for reference (C = int E[Z^2])
        a1x, b1x = xl.optimal_utility_affine(benchmark_params, 24.0)
        assert abs(a1x - 8.075054) < 1e-5
        assert abs(b1x - 1.778886) < 1e-5


def test_criterion_2_convergence_days(benchmark_params):
    with criterion(2, "coefficient convergence at days 142 and 59", budget_s=1.0):
        assert xl.convergence_day(benchmark_params, "slope") == 142
        assert xl.convergence_day(benchmark_params, "intercept") == 59


def test_criterion_3_strategy_panel_desk_scale(benchmark_params, desk_bundle):
    with criterion(3, "strategy panel returns and Sharpes at desk scale",
                   budget_s=120.0):
        cfg, bundle = desk_bundle
        results = {}
        for name, strat in xl.build_strategies(benchmark_params, 24.0):
            results[name] = compute_metrics(run_strategy(bundle, strat, 0.0))
        expma = ["utility_c1", "utility_c2", "growth"]
        for name in expma:
            assert abs(results[name].total_return - 0.1737) < 0.02
        rets = [results[n].total_return for n in expma]
        assert max(rets) - min(rets) < 0.005
        assert abs(results["buy_hold"].total_return - 0.088816) < 0.02
        assert min(rets) > results["buy_hold"].total_return
        for name in expma:
            assert abs(results[name].sharpe_daily - 0.0161) < 0.003
        assert abs(results["buy_hold"].sharpe_daily - 0.0169) < 0.003


def test_criterion_4_cost_signs_and_ordering(benchmark_params, desk_bundle):
    with criterion(4, "transaction-cost signs and monotonicity", budget_s=300.0):
        cfg, bundle = desk_bundle
        growth = ConstantAffine(*xl.growth_limit_affine(benchmark_params))
        rets = {}
        for omega in (0.0, 0.001, 0.005, 0.01):
            rets[omega] = compute_metrics(run_strategy(bundle, growth, omega)).total_return
        assert rets[0.001] > 0.0
        assert rets[0.001] < rets[0.0]
        assert rets[0.005] <= 0.0
        assert rets[0.01] <= 0.0
        assert rets[0.0] >= rets[0.001] >= rets[0.005] >= rets[0.01]


def test_criterion_5_volatility_direction(benchmark_params):
    with criterion(5, "returns fall as volatility rises", budget_s=300.0):
        expma_rets, bh_rets = [], []
        for sigma in (0.0349, 0.0436, 0.0523):
            p = benchmark_params.with_sigma(sigma)
            cfg = SimConfig(horizon_months=24.0, n_paths=10_000, seed=DEFAULT_SEED)
            bundle = simulate_paths(p, cfg)
            growth = ConstantAffine(*xl.growth_limit_affine(p))
            expma_rets.append(compute_metrics(run_strategy(bundle, growth, 0.0)).total_return)
            bh_rets.append(compute_metrics(run_strategy(bundle, xl.BuyAndHold(), 0.0)).total_return)
        assert expma_rets[0] > expma_rets[1] > expma_rets[2]
        assert bh_rets[0] > bh_rets[1] > bh_rets[2]
        assert abs(expma_rets[0] - 0.291054) < 0.03


@pytest.mark.slow
def test_criterion_6_moment_oracles(benchmark_params, ctmc_params):
    with criterion(6, "closed-form moments vs refined Monte Carlo", budget_s=600.0):
        times = [0.5, 1.0, 12.0]
        res = ou_moment_mc(benchmark_params, times, 1_000_000, 1.0 / 210.0, DEFAULT_SEED)
        for t in times:
            m = xl.ou_moments(benchmark_params, t)
            r = res[t]
            for key, closed in (("m1", m.m1), ("v1", m.v1), ("m2", m.m2),
                                ("v2", m.v2), ("m3", m.m3)):
                assert abs(closed - r[key]) < 3 * r["se_" + key], (t, key)
        for t in times:
            z, mu_t, _ = ctmc_exact_signal(ctmc_params, t, 1_000_000,
                                           seed=DEFAULT_SEED + 1)
            m = xl.ctmc_moments(ctmc_params, t)
            n = z.size
            prod, zsq = mu_t * z, z * z
            assert abs(m.n2 - z.mean()) < 3 * z.std(ddof=1) / math.sqrt(n), t
            assert abs(m.n3 - prod.mean()) < 3 * prod.std(ddof=1) / math.sqrt(n), t
            assert abs(m.n4 - zsq.mean()) < 3 * zsq.std(ddof=1) / math.sqrt(n), t


def test_criterion_7_optimization_properties(benchmark_params, ctmc_params):
    with criterion(7, "value ordering, growth-rate bound, grid optimality",
                   budget_s=60.0):
        for T in (1.0, 6.0, 24.0, 120.0):
            vf = xl.value_functions(benchmark_params, T)
            assert vf.v_check < vf.v2_star < vf.v_bar
        lam_hat = xl.hat_lambda(benchmark_params)
        bound = xl.eta_upper_bound(benchmark_params)
        assert abs(xl.eta(benchmark_params, lam_hat) - bound) <= 1e-9 * bound
        for lam in np.geomspace(lam_hat / 20, lam_hat * 20, 101):
            assert xl.eta(benchmark_params, float(lam)) <= bound * (1 + 1e-12)
        c, d = xl.optimal_growth_affine(ctmc_params)
        g_star = xl.ctmc_growth_value(ctmc_params, c, d)
        assert g_star > 0
        dx = np.linspace(-0.3 * abs(c), 0.3 * abs(c), 101)
        dy = np.linspace(-0.3 * abs(d), 0.3 * abs(d), 101)
        for ddx in dx:
            vals = [xl.ctmc_growth_value(ctmc_params, c + ddx, d + v) for v in dy]
            assert max(vals) <= g_star
        assert xl.long_run_growth_ctmc(ctmc_params) >= g_star - 1e-9


@pytest.mark.slow
def test_criterion_8_filter_suite(ctmc_params, ctmc_gentle_params):
    with criterion(8, "filter laws vs simulation and long-run growth",
                   budget_s=900.0):
        p = ctmc_params
        law = xl.stationary_law(p)
        # stationary mixture vs simulated discounted drift integrals (KS)
        n = 100_000
        horizon = 40.0 / p.lam
        samples, _ = ctmc_drift_integral(p, horizon, n, seed=DEFAULT_SEED + 2)
        s_sorted = np.sort(samples)
        model = law.mixture_cdf(s_sorted)
        i = np.arange(1, n + 1)
        ks = max(np.max(np.abs(model - i / n)), np.max(np.abs(model - (i - 1) / n)))
        assert ks < 0.01

        # transport solve vs MC conditional c.d.f. at t = 1
        n2 = 1_000_000
        cond, _ = ctmc_drift_integral(p, 1.0, n2, seed=DEFAULT_SEED + 3,
                                      init_high=False)
        grid = xl.solve_uv_pde(p, t_max=1.0, nx=512, snapshot_times=[1.0])
        lo, hi = grid.support(1.0)
        probes = np.linspace(lo, hi, 23)[1:-1]
        emp = np.searchsorted(np.sort(cond), probes, side="right") / n2
        assert np.max(np.abs(grid.u_at(1.0, probes) - emp)) < 0.01

        # large-t transport solution vs the stationary law
        d = p.drift
        t_big = 20.0 / min(d.alpha, d.beta, p.lam)
        grid2 = xl.solve_uv_pde(p, t_max=t_big, nx=1024, snapshot_times=[t_big])
        lo2, hi2 = grid2.support(t_big)
        xs = np.linspace(lo2, hi2, 301)
        assert np.max(np.abs(grid2.u_at(t_big, xs) - law.u_inf(xs))) < 0.01

        # filter: monotone, inside [rho1, rho2]
        qd = xl.QDecomposition(p)
        mean, var = qd.phi_params(math.inf)
        zs = np.linspace(law.lo + mean - 6 * math.sqrt(var),
                         law.hi + mean + 6 * math.sqrt(var), 501)
        f = xl.filter_expectation(p, math.inf, zs)
        assert np.all(np.diff(f) >= -1e-10)
        assert np.all((f >= d.rho1 - 1e-12) & (f <= d.rho2 + 1e-12))

        # long-run filter growth vs the chunked wealth oracle
        pg = ctmc_gentle_params
        target = xl.long_run_growth_ctmc(pg)
        g = mc_log_growth(pg, xl.filter_strategy(pg), horizon=600.0,
                          n_paths=4000, dt=1.0 / 210.0, seed=DEFAULT_SEED + 4,
                          chunk=200)
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - target) < 3 * se


def test_criterion_9_mechanical_exactness(benchmark_params):
    with criterion(9, "self-financing residuals, frictionless identity, determinism",
                   budget_s=120.0):
        cfg = SimConfig(horizon_months=24.0, n_paths=100, seed=DEFAULT_SEED)
        bundle = simulate_paths(benchmark_params, cfg)
        growth = ConstantAffine(*xl.growth_limit_affine(benchmark_params))
        for omega in (0.0, 0.001, 0.01):
            ledger = run_strategy(bundle, growth, omega)
            r1, r2 = xl.self_financing_residuals(ledger, bundle)
            assert r1 <= 1e-10 and r2 <= 1e-10, omega

        # at omega = 0 the ledger is the frictionless product, bit for bit
        frictionless = run_strategy(bundle, growth, 0.0)
        assert not frictionless.bankrupt.any()
        assert np.array_equal(frictionless.wealth, frictionless_wealth(frictionless, bundle))
        assert np.all(frictionless.cost == 0.0)

        again = simulate_paths(benchmark_params, cfg)
        assert bundle.identity_hash() == again.identity_hash()
        assert np.array_equal(bundle.x, again.x)
        ecfg = xl.ExperimentConfig(experiment="performance", params=benchmark_params,
                                   sim=SimConfig(horizon_months=6.0, n_paths=500,
                                                 seed=DEFAULT_SEED))
        assert xl.run_experiment(ecfg).to_csv() == xl.run_experiment(ecfg).to_csv()
