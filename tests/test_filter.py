import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import expma_lab as xl
from expma_lab import (CTMC2Drift, ModelParams, OutsideSupportError,
                       QDecomposition, ValidationError,
                       conditional_densities, ctmc_growth_value,
                       filter_expectation, filter_strategy, g_infinity,
                       long_run_growth_ctmc, optimal_growth_affine,
                       p_q_infinity, solve_uv_pde, stationary_law)
from expma_lab.experiments import ExperimentConfig
from expma_lab.regime_filter import UniformInterp, _beta_nodes
from oracles import ctmc_drift_integral, reference_uv_march, stationary_kernel

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def mk(rho1, rho2, alpha, beta, sigma, lam):
    return ModelParams(drift=CTMC2Drift(rho1=rho1, rho2=rho2, alpha=alpha, beta=beta),
                       sigma=sigma, lam=lam)


# --- stationary law ------------------------------------------------------------

def test_stationary_law_endpoints(ctmc_params):
    law = stationary_law(ctmc_params)
    assert law.u_inf(law.lo) == 0.0 and law.u_inf(law.hi) == 1.0
    assert law.v_inf(law.lo) == 0.0 and law.v_inf(law.hi) == 1.0
    xs = np.linspace(law.lo, law.hi, 400)
    for f in (law.u_inf, law.v_inf):
        vals = f(xs)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all((vals >= 0) & (vals <= 1))


def test_stationary_law_normalizers(ctmc_params):
    law = stationary_law(ctmc_params)
    d = ctmc_params.drift
    assert law.d == pytest.approx(d.beta * law.c / d.alpha, rel=1e-14)
    # c integrates the defining kernel to u_inf(hi) = 1
    val, _ = integrate.quad(lambda z: (d.rho2 - ctmc_params.lam * z) * stationary_kernel(law, z),
                            law.lo, law.hi, epsabs=1e-12, limit=200)
    assert law.c * val == pytest.approx(1.0, rel=1e-8)


def test_beta12_special_case():
    # alpha = beta = lambda: low-start law is the scaled Beta(1, 2)
    p = mk(-0.2, 0.3, 1.0, 1.0, 0.2, 1.0)
    law = stationary_law(p)
    xs = np.linspace(law.lo, law.hi, 257)
    s = (xs - law.lo) / (law.hi - law.lo)
    beta12 = stats.beta(1.0, 2.0).cdf(s)
    assert np.max(np.abs(law.u_inf(xs) - beta12)) < 1e-9


def test_mixture_vs_simulated_integral_ks(ctmc_params):
    """KS distance between the stationary mixture c.d.f. and 1e5 simulated
    discounted drift integrals (horizon 40/lambda) below 0.01."""
    n = 100_000
    horizon = 40.0 / ctmc_params.lam
    samples, _ = ctmc_drift_integral(ctmc_params, horizon, n, seed=1212)
    law = stationary_law(ctmc_params)
    s_sorted = np.sort(samples)
    model = law.mixture_cdf(s_sorted)
    i = np.arange(1, n + 1)
    ks = max(np.max(np.abs(model - i / n)), np.max(np.abs(model - (i - 1) / n)))
    assert ks < 0.01


# --- transport solve -------------------------------------------------------------

def test_pde_boundary_conditions_small_t():
    p = mk(-0.2, 0.3, 1.0, 1.0, 0.2, 2.5)
    g = solve_uv_pde(p, t_max=0.01, nx=128, snapshot_times=[0.01])
    assert g.u[0, -1] == 1.0
    assert g.u[0, 0] == pytest.approx(math.exp(-1.0 * 0.01), rel=1e-12)
    assert g.v[0, 0] == 0.0 and g.v[0, -1] == 1.0


def test_pde_grid_is_cdf(ctmc_params):
    g = solve_uv_pde(ctmc_params, t_max=2.0, nx=256, snapshot_times=[0.5, 2.0])
    for arr in (g.u, g.v):
        assert np.all(arr >= -1e-9) and np.all(arr <= 1 + 1e-9)
        assert np.all(np.diff(arr, axis=1) >= -1e-9)


def test_pde_rejects_small_nx(ctmc_params):
    with pytest.raises(ValueError):
        solve_uv_pde(ctmc_params, t_max=1.0, nx=32)
    with pytest.raises(ValidationError) as exc:
        solve_uv_pde(ctmc_params, t_max=1.0, nx=63)
    assert exc.value.codes == ["nx_too_small"]


def test_pde_vs_mc_conditional_cdf(ctmc_params):
    """u(1, x) against the empirical conditional c.d.f. of the drift integral
    from 1e6 exact-jump chains started low; 21 interior probes, 0.01 band."""
    n = 1_000_000
    samples, _ = ctmc_drift_integral(ctmc_params, 1.0, n, seed=777, init_high=False)
    g = solve_uv_pde(ctmc_params, t_max=1.0, nx=512, snapshot_times=[1.0])
    lo, hi = g.support(1.0)
    probes = np.linspace(lo, hi, 23)[1:-1]
    emp = np.searchsorted(np.sort(samples), probes, side="right") / n
    model = g.u_at(1.0, probes)
    assert np.max(np.abs(model - emp)) < 0.01


def test_pde_long_time_reaches_stationary_law(ctmc_params):
    d = ctmc_params.drift
    t_big = 20.0 / min(d.alpha, d.beta, ctmc_params.lam)
    g = solve_uv_pde(ctmc_params, t_max=t_big, nx=1024, snapshot_times=[t_big])
    law = stationary_law(ctmc_params)
    lo, hi = g.support(t_big)
    xs = np.linspace(lo, hi, 301)
    assert np.max(np.abs(g.u_at(t_big, xs) - law.u_inf(xs))) < 0.01
    assert np.max(np.abs(g.v_at(t_big, xs) - law.v_inf(xs))) < 0.01


def _march_cases():
    p = ExperimentConfig.from_json_file(str(CONFIGS / "pde.json")).params
    asym = mk(-0.2, 0.3, 0.7, 1.9, 0.2, 2.5)
    t0 = 1e-3 / 2.5
    return [
        pytest.param(p, dict(t_max=8.0, nx=512, snapshot_times=[1.0, 2.0, 8.0]), id="pde_config"),
        pytest.param(asym, dict(t_max=2.0, nx=64, snapshot_times=[0.5, 2.0]), id="asymmetric"),
        # about 3 steps of 0.014 t0 each, the last one clipped to t_max
        pytest.param(asym, dict(t_max=1.04 * t0, nx=64), id="few_steps"),
    ]


@pytest.mark.parametrize("params, kw", _march_cases())
def test_uv_march_matches_reference_loop(params, kw):
    g = solve_uv_pde(params, **kw)
    times, u, v = reference_uv_march(params, **kw)
    assert np.array_equal(g.times, times)
    assert np.array_equal(g.u, u)
    assert np.array_equal(g.v, v)


def test_uv_grid_csv_export(tmp_path, ctmc_params):
    g = solve_uv_pde(ctmc_params, t_max=0.5, nx=128, snapshot_times=[0.25, 0.5])
    out = tmp_path / "uv.csv"
    g.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_physical,u,v"
    assert len(lines) == 1 + 2 * 128


# --- conditional densities ---------------------------------------------------------

def test_phi_normalizes(ctmc_params):
    qd = QDecomposition(ctmc_params)
    for t in (0.3, 2.0):
        val, _ = integrate.quad(lambda x: qd.phi(t, x), -2.0, 2.0, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-10)
    mean, var = qd.phi_params(1e9)
    mean_inf, var_inf = qd.phi_params(math.inf)
    assert mean == pytest.approx(mean_inf, rel=1e-12)
    assert var == pytest.approx(var_inf, rel=1e-12)


def test_densities_normalize_and_nonnegative(ctmc_params):
    qd = QDecomposition(ctmc_params)
    for t in (0.5, 2.0, 10.0):
        g = solve_uv_pde(ctmc_params, t_max=t, nx=512, snapshot_times=[t])
        mean, var = qd.phi_params(t)
        lo, hi = g.support(t)
        xs = np.linspace(lo + mean - 8 * math.sqrt(var), hi + mean + 8 * math.sqrt(var), 3001)
        p, q = conditional_densities(ctmc_params, t, xs, grid=g)
        assert np.all(p >= -1e-10) and np.all(q >= -1e-10)
        assert np.trapezoid(p, xs) == pytest.approx(1.0, abs=1e-4)
        assert np.trapezoid(q, xs) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("spec", [
    (-0.2, 0.3, 1.0, 1.0, 0.2, 2.5),
    (-0.1, 0.15, 0.6, 1.4, 0.12, 1.7),
    (-0.3, 0.25, 2.0, 0.8, 0.3, 0.9),
])
def test_densities_converge_to_stationary(spec):
    p = mk(*spec)
    d = p.drift
    t = 25.0 / min(d.alpha, d.beta, p.lam)
    g = solve_uv_pde(p, t_max=t, nx=512, snapshot_times=[t])
    law = stationary_law(p)
    qd = QDecomposition(p)
    mean, var = qd.phi_params(math.inf)
    xs = np.linspace(law.lo + mean - 8 * math.sqrt(var),
                     law.hi + mean + 8 * math.sqrt(var), 1501)
    p_fin, q_fin = conditional_densities(p, t, xs, grid=g)
    p_inf, q_inf = p_q_infinity(p, xs)
    assert np.max(np.abs(p_fin - p_inf)) < 0.01 * max(1.0, p_inf.max())
    assert np.max(np.abs(q_fin - q_inf)) < 0.01 * max(1.0, q_inf.max())


def test_density_histogram_total_variation(ctmc_params):
    """Simulated signal histogram vs p(t, .): total variation below 0.02."""
    t = 2.0
    n = 1_000_000
    # signal given the low start; shift by the Gaussian-part mean identity:
    # Q_t = drift integral + Gaussian part
    acc, _ = ctmc_drift_integral(ctmc_params, t, n, seed=31, init_high=False)
    qd = QDecomposition(ctmc_params)
    mean, var = qd.phi_params(t)
    rng = np.random.default_rng(32)
    q_t = acc + mean + math.sqrt(var) * rng.standard_normal(n)
    g = solve_uv_pde(ctmc_params, t_max=t, nx=512, snapshot_times=[t])
    lo, hi = g.support(t)
    edges = np.linspace(lo + mean - 6 * math.sqrt(var), hi + mean + 6 * math.sqrt(var), 121)
    hist, _ = np.histogram(q_t, bins=edges)
    emp = hist / n
    centers = 0.5 * (edges[1:] + edges[:-1])
    p, _ = conditional_densities(ctmc_params, t, centers, grid=g)
    model = p * np.diff(edges)
    tv = 0.5 * np.sum(np.abs(emp - model)) + 0.5 * abs(1.0 - model.sum())
    assert tv < 0.02


# --- the filter -------------------------------------------------------------------

def test_filter_bounds_and_saturation(ctmc_params):
    # tails approach the extreme states at rate O(sd/distance): the Gaussian
    # kernel localizes the Beta weights in a window ~ sd^2/distance
    d = ctmc_params.drift
    span = d.rho2 - d.rho1
    law = stationary_law(ctmc_params)
    qd = QDecomposition(ctmc_params)
    _, var = qd.phi_params(math.inf)
    sd = math.sqrt(var)
    gap10_l = filter_expectation(ctmc_params, math.inf, law.lo - 10 * sd) - d.rho1
    gap10_r = d.rho2 - filter_expectation(ctmc_params, math.inf, law.hi + 10 * sd)
    assert 0 <= gap10_l < 0.02 * span and 0 <= gap10_r < 0.02 * span
    gap30_l = filter_expectation(ctmc_params, math.inf, law.lo - 30 * sd) - d.rho1
    assert gap30_l < gap10_l / 2.5
    rng = np.random.default_rng(3)
    xs = rng.uniform(law.lo - 10 * sd, law.hi + 10 * sd, 1000)
    vals = filter_expectation(ctmc_params, math.inf, np.sort(xs))
    assert np.all(vals >= d.rho1 - 1e-12) and np.all(vals <= d.rho2 + 1e-12)
    assert np.all(np.diff(vals) >= -1e-10)


def test_filter_monotone_finite_t(ctmc_params):
    t = 1.0
    g = solve_uv_pde(ctmc_params, t_max=t, nx=512, snapshot_times=[t])
    qd = QDecomposition(ctmc_params)
    mean, var = qd.phi_params(t)
    lo, hi = g.support(t)
    xs = np.linspace(lo + mean - 6 * math.sqrt(var), hi + mean + 6 * math.sqrt(var), 501)
    vals = filter_expectation(ctmc_params, t, xs, grid=g)
    assert np.all(np.diff(vals) >= -1e-9)


def test_filter_outside_support_error(ctmc_params):
    with pytest.raises(OutsideSupportError):
        filter_expectation(ctmc_params, math.inf, 1e3)


def test_filter_time_limit_matches_stationary(ctmc_params):
    """Finite-t filter at t = 20/min(alpha, beta, lambda) within
    0.01 * (rho2 - rho1) / sigma^2 of the stationary filter, as weights."""
    d = ctmc_params.drift
    t_big = 20.0 / min(d.alpha, d.beta, ctmc_params.lam)
    g = solve_uv_pde(ctmc_params, t_max=t_big, nx=1024, snapshot_times=[t_big])
    law = stationary_law(ctmc_params)
    qd = QDecomposition(ctmc_params)
    mean, var = qd.phi_params(math.inf)
    # effective support: central 98% of the stationary signal law
    lo = law.lo + mean - 2.33 * math.sqrt(var)
    hi = law.hi + mean + 2.33 * math.sqrt(var)
    xs = np.linspace(lo, hi, 301)
    sig2 = ctmc_params.sigma**2
    f_t = filter_expectation(ctmc_params, t_big, xs, grid=g) / sig2
    f_inf = g_infinity(ctmc_params, xs)
    assert np.max(np.abs(f_t - f_inf)) < 0.01 * (d.rho2 - d.rho1) / sig2


def test_filter_degenerate_gap():
    p = mk(0.3 - 1e-9, 0.3, 1.0, 1.0, 0.2, 2.5)
    law = stationary_law(p)
    xs = np.linspace(law.lo - 0.2, law.hi + 0.2, 41)
    w = g_infinity(p, xs)
    assert np.max(np.abs(w - 0.3 / 0.04)) < 1e-6 * abs(0.3 / 0.04)


def test_binned_regression_matches_filter(ctmc_params):
    """Binned MC regression of mu_0 on the stationary signal vs the filter:
    max gap below 0.02 * (rho2 - rho1) over 50 central bins."""
    d = ctmc_params.drift
    n = 1_000_000
    horizon = 40.0 / ctmc_params.lam
    acc, mu0 = ctmc_drift_integral(ctmc_params, horizon, n, seed=515)
    qd = QDecomposition(ctmc_params)
    mean, var = qd.phi_params(math.inf)
    rng = np.random.default_rng(516)
    q = acc + mean + math.sqrt(var) * rng.standard_normal(n)
    edges = np.quantile(q, np.linspace(0.01, 0.99, 51))
    centers = 0.5 * (edges[1:] + edges[:-1])
    which = np.digitize(q, edges) - 1
    emp = np.array([mu0[which == k].mean() for k in range(50)])
    model = filter_expectation(ctmc_params, math.inf, centers)
    assert np.max(np.abs(emp - model)) < 0.02 * (d.rho2 - d.rho1)


def test_g_infinity_bounds_and_strategy(ctmc_params):
    d = ctmc_params.drift
    sig2 = ctmc_params.sigma**2
    rng = np.random.default_rng(8)
    xs = rng.uniform(-1.0, 1.0, 1000)
    strat = filter_strategy(ctmc_params)
    w = strat.weights(0.0, xs)
    assert np.all(w >= d.rho1 / sig2 - 1e-9) and np.all(w <= d.rho2 / sig2 + 1e-9)


# --- the filter's table lookup ---------------------------------------------------

def _interp_oracle(look):
    return lambda z: np.interp(z, look.zs, look.gs, left=look.left, right=look.right)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_filter_lookup_is_np_interp(ctmc_gentle_params):
    """The uniform-grid lookup gives np.interp's bits: on every knot and one
    ulp either side, outside the table, at +-inf and NaN, on empty, 0-d and
    1-D input (as the signal CLI passes it)."""
    look = filter_strategy(ctmc_gentle_params).g
    assert isinstance(look, UniformInterp)
    zs = look.zs
    oracle = _interp_oracle(look)
    pts = np.concatenate([zs, np.nextafter(zs, np.inf), np.nextafter(zs, -np.inf),
                          [-np.inf, np.inf, np.nan, -np.nan, zs[0] - 1.0, zs[-1] + 1.0,
                           -1e300, 1e300, 0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (pts, pts[::-1], pts[::3], np.array([]), np.array([np.nan])):
            assert _same_bits(look(z), oracle(z))
    for z in (zs[17], zs[-1], np.nan, np.inf, 5.0):
        assert _same_bits(look(z), np.asarray(oracle(z)))
    assert np.isnan(look(np.array([np.nan, -np.nan]))).all()


@pytest.mark.parametrize("rows, shapes", [(7, ((20, 53), (41, 4))),
                                          (32 * 1024, ((300, 506), (3, 70_001)))])
def test_filter_lookup_on_strided_views(ctmc_gentle_params, rows, shapes):
    """Strided row blocks of `rows` rows of a 2-D view, as `run_strategy`
    passes Z (the last block partial, or one block of the whole view), and a
    transposed grid give np.interp's bits."""
    look = filter_strategy(ctmc_gentle_params).g
    oracle = _interp_oracle(look)
    rng = np.random.default_rng(12)
    span = look.zs[-1] - look.zs[0]
    for shape in shapes:
        grid = look.zs[0] + span * rng.uniform(-0.05, 1.05, shape)
        on_knots = rng.choice(grid.size, grid.size // 8, replace=False)
        grid.flat[on_knots] = rng.choice(look.zs, on_knots.size)
        for lo in range(0, shape[0], rows):
            view = grid[lo:lo + rows, 1:-1]
            assert not view.flags.c_contiguous
            assert _same_bits(look(view), oracle(view))
        assert _same_bits(look(grid.T), oracle(grid.T))


def test_uniform_interp_any_linspace_table():
    """On linspace tables off the filter's (a wide offset one, a tiny one,
    the two-knot one) the lookup keeps np.interp's bits and edge rules."""
    rng = np.random.default_rng(5)
    for lo, hi, n in ((-3.0, 5.0, 101), (1e3, 1e3 + 7.25, 4001), (-1e-6, 2e-6, 33), (0.0, 1.0, 2)):
        zs = np.linspace(lo, hi, n)
        gs = np.sin(3.0 * zs / (hi - lo)) + rng.normal(0.0, 0.1, n)
        look = UniformInterp(zs, gs, -2.0, 3.0)
        z = np.concatenate([zs, np.nextafter(zs, -np.inf), np.nextafter(zs, np.inf),
                            rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), 5000)])
        assert _same_bits(look(z), _interp_oracle(look)(z))


# --- long-run growth ---------------------------------------------------------------

def test_long_run_growth_jensen_bounds():
    rng = np.random.default_rng(9)
    for _ in range(8):
        p = mk(rng.uniform(-0.3, -0.01), rng.uniform(0.01, 0.3),
               rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
               rng.uniform(0.05, 0.4), rng.uniform(0.3, 4.0))
        if abs(p.lam - (p.drift.alpha + p.drift.beta)) < 0.05:
            continue
        st_ = xl.ctmc_stationary(p)
        sig2 = p.sigma**2
        val = long_run_growth_ctmc(p)
        lower = st_.n1**2 / (2 * sig2)
        upper = (st_.p1 * p.drift.rho1**2 + st_.p2 * p.drift.rho2**2) / (2 * sig2)
        assert lower - 1e-12 <= val <= upper + 1e-12


def test_long_run_growth_beats_best_affine(ctmc_params, ctmc_gentle_params):
    for p in (ctmc_params, ctmc_gentle_params):
        c, d = optimal_growth_affine(p)
        assert long_run_growth_ctmc(p) >= ctmc_growth_value(p, c, d) - 1e-9


def test_long_run_growth_prefactor_identity(ctmc_params):
    """The displayed prefactor times the kernel normalizer collapses to
    lambda^2 / (2 sigma^2): growth = that constant times int M^2/N dy."""
    from scipy import special

    p = ctmc_params
    d = p.drift
    law = stationary_law(p)
    a, b = law.a_exp, law.b_exp
    norm = math.exp((a + b - 1.0) * math.log(d.rho2 - d.rho1)
                    + special.betaln(a, b) - math.log(p.lam))
    pref = (law.c * d.beta * p.lam**2 * (d.rho2 - d.rho1)
            / (2.0 * p.sigma**2 * (d.alpha + d.beta)))
    assert pref * norm == pytest.approx(p.lam**2 / (2.0 * p.sigma**2), rel=1e-12)


def test_long_run_growth_node_count_stable(ctmc_params, monkeypatch):
    values = []
    for nodes, outer in ((128, 2048), (256, 8192)):
        monkeypatch.setattr(xl.regime_filter, "BETA_NODES", nodes)
        monkeypatch.setattr(xl.regime_filter, "GROWTH_OUTER_POINTS", outer)
        values.append(long_run_growth_ctmc(ctmc_params))
    assert values[0] == pytest.approx(values[1], rel=1e-9)


# --- Gauss-Jacobi nodes ------------------------------------------------------------

BETA_NODE_CASES = [(0.01, 0.01), (0.4, 0.4), (0.4, 1.4), (1.4, 0.4),
                   (0.5, 0.5),  # al + be = -1: the k = 1 off-diagonal limit
                   (1.0, 1.0),  # al = be = 0: the k = 0 diagonal limit
                   (1.0, 3.0), (30.0, 0.7), (61.0, 61.0)]


@pytest.mark.parametrize("a, b", BETA_NODE_CASES)
def test_beta_nodes_gauss_jacobi_properties(a, b):
    """An n-node Gauss rule integrates every Beta(a, b) moment up to
    s^(2n-1); scipy's weights are the less accurate ones, so only its nodes
    are compared."""
    from scipy import special

    n = 192
    s, w = _beta_nodes(a, b, n)
    assert np.all((s > 0.0) & (s < 1.0)) and np.all(w > 0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-15, abs=0)
    k = np.arange(2 * n)
    exact = np.concatenate([[1.0], np.cumprod((a + k[:-1]) / (a + b + k[:-1]))])
    quad = (s[None, :] ** k[:, None]) @ w
    assert np.max(np.abs(quad / exact - 1.0)) <= 1e-11
    x, _ = special.roots_jacobi(n, b - 1.0, a - 1.0)
    assert np.max(np.abs(s - 0.5 * (x + 1.0))) <= 1e-14


def test_beta_nodes_are_read_only():
    for arr in _beta_nodes(0.4, 1.4, 64):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_long_run_growth_on_growth_config_is_pinned():
    """configs/growth_ctmc.json; the value computed with scipy's
    roots_jacobi and betaln was 0.21606856087904108."""
    p = ExperimentConfig.from_json_file(str(CONFIGS / "growth_ctmc.json")).params
    assert long_run_growth_ctmc(p) == pytest.approx(0.21606856087904108, rel=1e-10)


# --- point blocks of the node sums ---------------------------------------------------

def test_node_sums_keep_their_bits_at_every_block_height(ctmc_params, monkeypatch):
    """p_inf, q_inf, the long-run growth and the finite-t densities keep
    their bits whether their node sums run on blocks of 1, 2, 13 or 255
    points or on every point at once: each row is summed in the same order
    whatever its block."""
    t = 2.0
    g = solve_uv_pde(ctmc_params, t_max=t, nx=512, snapshot_times=[t])
    law = stationary_law(ctmc_params)
    xs = np.linspace(law.lo - 0.5, law.hi + 0.5, 4001)
    runs = []
    for rows in (1, 2, 13, 255, 4096):  # 4096: every point in one block
        monkeypatch.setattr(xl.simulate, "BLOCK_BYTES", rows * 8 * xl.regime_filter.BETA_NODES)
        values = [*p_q_infinity(ctmc_params, xs), long_run_growth_ctmc(ctmc_params)]
        monkeypatch.setattr(xl.simulate, "BLOCK_BYTES", rows * 8 * (g.xi.size - 1))
        values += conditional_densities(ctmc_params, t, xs, grid=g)
        runs.append([np.asarray(v).tobytes() for v in values])
    for rows, run in zip((1, 2, 13, 255), runs):
        assert run == runs[-1], rows


def test_node_sums_hold_a_few_blocks(ctmc_params):
    """One long-run growth call and one filter tabulation each peak under
    8 BLOCK_BYTES (about 5.5 measured), where one points x nodes matrix of
    either is about 24."""
    for fn in (long_run_growth_ctmc, filter_strategy):
        fn(ctmc_params)  # the first call caches the Beta nodes
        tracemalloc.start()
        try:
            fn(ctmc_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * xl.simulate.BLOCK_BYTES, (fn.__name__, peak / xl.simulate.BLOCK_BYTES)


def test_filter_vs_eq10_form(ctmc_params):
    """The stationary filter computed through the p/q density ratio equals
    the direct moment-ratio form lambda*M(y)/N(y)."""
    law = stationary_law(ctmc_params)
    qd = QDecomposition(ctmc_params)
    z, w = law.nodes(0.0, 0.0)
    xs = np.linspace(law.lo - 0.3, law.hi + 0.3, 101)
    phi = qd.phi(math.inf, xs[:, None] - z[None, :])
    N = phi @ w
    M = phi @ (w * z)
    direct = ctmc_params.lam * M / N
    via_pq = filter_expectation(ctmc_params, math.inf, xs)
    np.testing.assert_allclose(via_pq, direct, rtol=1e-9, atol=1e-12)
