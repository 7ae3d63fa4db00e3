import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from expma_lab import (CTMC2Drift, ModelParams, ctmc_abcd, ctmc_growth_value,
                       ctmc_limits, ctmc_moments, ctmc_stationary,
                       finite_horizon_affine, optimal_affine_from_abcd,
                       optimal_growth_affine)
from oracles import ctmc_exact_signal


def mk(rho1, rho2, alpha, beta, sigma, lam):
    return ModelParams(drift=CTMC2Drift(rho1=rho1, rho2=rho2, alpha=alpha, beta=beta),
                       sigma=sigma, lam=lam)


# the filter runs on the raw floats: lambda = alpha + beta fails construction
random_ctmc = st.fixed_dictionaries(dict(
    rho1=st.floats(-0.4, 0.0),
    rho2=st.floats(0.01, 0.5),
    alpha=st.floats(0.05, 3.0),
    beta=st.floats(0.05, 3.0),
    sigma=st.floats(0.02, 0.6),
    lam=st.floats(0.05, 5.0),
)).filter(lambda d: abs(d["lam"] - (d["alpha"] + d["beta"])) > 0.05).map(lambda d: mk(**d))


# --- stationary law -----------------------------------------------------------

def test_stationary_symmetric_chain():
    p = mk(-0.2, 0.3, 1.0, 1.0, 0.2, 2.5)
    st_ = ctmc_stationary(p)
    assert st_.n1 == pytest.approx((-0.2 + 0.3) / 2, rel=1e-14)
    assert st_.gamma == pytest.approx((0.3 + 0.2) ** 2 / 4, rel=1e-14)
    assert st_.p1 + st_.p2 == pytest.approx(1.0, rel=1e-15)


def test_stationary_degenerate_gap():
    p = mk(0.1, 0.1 + 1e-15, 1.0, 2.0, 0.2, 4.0)
    st_ = ctmc_stationary(p)
    assert st_.gamma == pytest.approx(0.0, abs=1e-28)
    assert p.drift.rho1 <= st_.n1 <= p.drift.rho2


@settings(max_examples=60, deadline=None)
@given(random_ctmc)
def test_stationary_invariants(p):
    st_ = ctmc_stationary(p)
    assert st_.p1 + st_.p2 == pytest.approx(1.0, rel=1e-14)
    assert st_.gamma >= 0
    assert p.drift.rho1 <= st_.n1 <= p.drift.rho2


def test_occupation_fractions_long_chain():
    """Occupation-time fractions of a million-sojourn chain match the
    stationary probabilities within 3 batch-mean standard errors."""
    p = mk(-0.2, 0.3, 1.0, 1.3, 0.2, 2.5)
    st_ = ctmc_stationary(p)
    rng = np.random.default_rng(21)
    n_sojourn = 1_000_000
    # alternating sojourns starting from the stationary draw
    high0 = rng.random() < st_.p2
    e = rng.standard_exponential(n_sojourn)
    idx = np.arange(n_sojourn)
    is_high = (idx % 2 == 0) == high0
    times = e / np.where(is_high, p.drift.beta, p.drift.alpha)
    frac_low = times[~is_high].sum() / times.sum()
    batches = np.array_split(idx, 20)
    per_batch = np.array([times[b][~is_high[b]].sum() / times[b].sum() for b in batches])
    se = per_batch.std(ddof=1) / math.sqrt(len(batches))
    assert abs(frac_low - st_.p1) < 3 * se


# --- moments ------------------------------------------------------------------

def test_moments_zero_and_infinity(ctmc_params):
    m0 = ctmc_moments(ctmc_params, 0.0)
    assert m0.n2 == m0.n3 == m0.n4 == 0.0
    st_ = ctmc_stationary(ctmc_params)
    minf = ctmc_moments(ctmc_params, 1e5)
    assert minf.n2 == pytest.approx(
        (st_.n1 - ctmc_params.sigma**2 / 2) / ctmc_params.lam, rel=1e-12)


def test_moments_vs_exact_jump_mc(ctmc_params):
    z, mu_t, _ = ctmc_exact_signal(ctmc_params, 1.0, 200_000, seed=93)
    m = ctmc_moments(ctmc_params, 1.0)
    n = z.size
    prod = mu_t * z
    zsq = z * z
    assert abs(m.n2 - z.mean()) < 3 * z.std(ddof=1) / math.sqrt(n)
    assert abs(m.n3 - prod.mean()) < 3 * prod.std(ddof=1) / math.sqrt(n)
    assert abs(m.n4 - zsq.mean()) < 3 * zsq.std(ddof=1) / math.sqrt(n)


@settings(max_examples=60, deadline=None)
@given(random_ctmc, st.floats(1e-3, 60.0))
def test_moment_invariants(p, t):
    st_ = ctmc_stationary(p)
    m = ctmc_moments(p, t)
    assert m.n4 >= m.n2**2 - 1e-12 * (1 + m.n2**2)
    cov = m.n3 - st_.n1 * m.n2
    var_z = m.n4 - m.n2**2
    bound = math.sqrt(max(st_.gamma * var_z, 0.0))
    assert -1e-10 <= cov <= bound * (1 + 1e-9) + 1e-12


def test_moments_continuous_across_excluded_lambda():
    """n2, n3, n4 extend continuously across lambda -> alpha + beta."""
    eps = 1e-6
    vals = {}
    for sgn in (-1.0, 1.0):
        p = mk(-0.2, 0.3, 1.0, 1.0, 0.2, 2.0 + sgn * eps)
        m = ctmc_moments(p, 1.5)
        vals[sgn] = (m.n2, m.n3, m.n4)
    for a, b in zip(vals[-1.0], vals[1.0]):
        assert a == pytest.approx(b, rel=1e-4)


# --- ABCD ---------------------------------------------------------------------

def test_abcd_zero_limit(ctmc_params):
    ab = ctmc_abcd(ctmc_params, 1e-10)
    for v in (ab.A, ab.B, ab.C, ab.D):
        assert abs(v) < 1e-9


def test_abcd_b_exact(ctmc_params):
    st_ = ctmc_stationary(ctmc_params)
    for T in (1.0, 24.0, 120.0):
        assert ctmc_abcd(ctmc_params, T).B == st_.n1 * T


@settings(max_examples=25, deadline=None)
@given(random_ctmc, st.sampled_from([1.0, 24.0, 120.0]))
def test_abcd_matches_quadrature(p, T):
    ab = ctmc_abcd(p, T)
    for closed, f in ((ab.A, lambda t: ctmc_moments(p, t).n3),
                      (ab.C, lambda t: ctmc_moments(p, t).n4),
                      (ab.D, lambda t: ctmc_moments(p, t).n2)):
        quad, _ = integrate.quad(f, 0.0, T, epsabs=1e-13, epsrel=1e-11, limit=200)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(random_ctmc, st.floats(1e-3, 360.0))
def test_abcd_determinant_positive(p, T):
    ab = ctmc_abcd(p, T)
    assert ab.C * T - ab.D**2 > 0


# --- limits and the growth quadratic ----------------------------------------------

def test_limits_match_large_T(ctmc_params):
    # time averages approach their limits at O(1/T); T = 1e6 puts the
    # transient two decades below the 1e-6 relative band
    lim = ctmc_limits(ctmc_params)
    T = 1e6
    ab = ctmc_abcd(ctmc_params, T)
    assert lim.h_inf == pytest.approx(ab.A / T, rel=1e-6)
    assert lim.i_inf == pytest.approx(ab.C / T, rel=1e-6)
    assert lim.j_inf == pytest.approx(ab.D / T, rel=1e-6)
    T2 = 1e4
    ab2 = ctmc_abcd(ctmc_params, T2)
    a1, b1 = optimal_affine_from_abcd(ab2, T2, ctmc_params.sigma)
    assert lim.c_inf == pytest.approx(a1, rel=1e-4)
    assert lim.d_inf == pytest.approx(b1, rel=1e-4)


def test_limits_degenerate_gap_is_constant_weight():
    eps = 1e-10
    p = mk(0.05, 0.05 + eps, 1.0, 1.0, 0.2, 2.5)
    lim = ctmc_limits(p)
    assert abs(lim.c_inf) < 1e-12
    assert lim.d_inf == pytest.approx(0.05 / 0.04, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(random_ctmc)
def test_limits_invariants(p):
    lim = ctmc_limits(p)
    assert lim.i_inf - lim.j_inf**2 > 0
    assert lim.c_inf >= 0
    # the optimum solves the 2x2 normal equations
    sig2 = p.sigma**2
    st_ = ctmc_stationary(p)
    r1 = lim.i_inf * lim.c_inf + lim.j_inf * lim.d_inf - lim.h_inf / sig2
    r2 = lim.j_inf * lim.c_inf + lim.d_inf - st_.n1 / sig2
    scale = abs(lim.h_inf / sig2) + abs(st_.n1 / sig2) + 1.0
    assert abs(r1) < 1e-10 * scale
    assert abs(r2) < 1e-10 * scale


def test_growth_value_constant_weight_plugin(ctmc_params):
    st_ = ctmc_stationary(ctmc_params)
    sig2 = ctmc_params.sigma**2
    val = ctmc_growth_value(ctmc_params, 0.0, st_.n1 / sig2)
    assert val == pytest.approx(st_.n1**2 / (2 * sig2), rel=1e-12)


def test_growth_value_grid_maximum(ctmc_params):
    c, d = optimal_growth_affine(ctmc_params)
    g_star = ctmc_growth_value(ctmc_params, c, d)
    assert g_star > 0
    dx = np.linspace(-0.5 * abs(c) - 0.1, 0.5 * abs(c) + 0.1, 101)
    dy = np.linspace(-0.5 * abs(d) - 0.1, 0.5 * abs(d) + 0.1, 101)
    worst = g_star
    for ddx in dx:
        vals = np.array([ctmc_growth_value(ctmc_params, c + ddx, d + v) for v in dy])
        worst = min(worst, g_star - vals.max())
    assert worst >= 0


def test_finite_horizon_affine_runs(ctmc_params):
    a, b = finite_horizon_affine(ctmc_params, 24.0)
    assert math.isfinite(a) and math.isfinite(b)


@pytest.mark.slow
def test_growth_value_vs_simulation(ctmc_gentle_params):
    """Long-run growth of the limit affine weight vs chunked MC log wealth
    at T = 600 with a refined step, within 3 standard errors."""
    from oracles import mc_log_growth
    from expma_lab import ConstantAffine

    p = ctmc_gentle_params
    c, d = optimal_growth_affine(p)
    target = ctmc_growth_value(p, c, d)
    g = mc_log_growth(p, ConstantAffine(c, d), horizon=600.0, n_paths=3000,
                      dt=1.0 / 210.0, seed=404, chunk=200)
    se = g.std(ddof=1) / math.sqrt(g.size)
    assert abs(g.mean() - target) < 3 * se
