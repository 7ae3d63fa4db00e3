import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import expma_lab as xl
from expma_lab import (BuyAndHold, ConstantAffine, LeverageCostSingularityError,
                       ModelParams, NonlinearFilter, OUDrift, ResourceLimitError,
                       SimConfig, ValidationError, growth_limit_affine, ou_moments,
                       rebalance_delta, run_strategy, self_financing_residuals,
                       simulate_paths)
from expma_lab.simulate import (_block_scratch, _ctmc_drift, _ctmc_jump_times, _path_rngs,
                                _unit_share_change, block_rows)
from oracles import (ctmc_drift_by_search, ctmc_jump_times_loop, expma_strided,
                     frictionless_wealth, ledger_fresh_blocks, ou_paths_per_path_rng,
                     reference_ledger)


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


def test_seeds_past_2_63_draw_distinct_paths(benchmark_params):
    """Every seed in [0, 2**64) keys its own substreams: 2**63 + 12345 and
    2**63 + 12288 shared a float64-rounded key, with a cast warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = (simulate_paths(benchmark_params, small_config(horizon_months=1.0, n_paths=3,
                                                              seed=2**63 + k))
                for k in (12345, 12288))
        assert not np.array_equal(a.x, b.x)


def test_chunked_equals_monolithic(benchmark_params):
    cfg = small_config(n_paths=100)
    whole = simulate_paths(benchmark_params, cfg)
    parts = [simulate_paths(benchmark_params, dataclasses.replace(cfg, n_paths=40), path_offset=0),
             simulate_paths(benchmark_params, dataclasses.replace(cfg, n_paths=60), path_offset=40)]
    stitched = np.vstack([parts[0].x, parts[1].x])
    assert np.array_equal(whole.x, stitched)


@pytest.mark.parametrize("drift", ["ou", "ctmc"])
def test_bundle_rows_are_the_bundle_drawn_for_them(benchmark_params, ctmc_gentle_params,
                                                   drift):
    """`rows(lo, hi)` of a drawn bundle, a slice of a slice included, has
    the x, y and mu bits, the settings and the identity hash of the bundle
    drawn for paths lo..hi-1 alone, and views the drawn bundle's grids."""
    params = benchmark_params if drift == "ou" else ctmc_gentle_params
    cfg = small_config(n_paths=40)
    whole = simulate_paths(params, cfg)
    for lo, hi, part in ((0, 7, whole.rows(0, 7)), (7, 40, whole.rows(7, 40)),
                         (13, 14, whole.rows(13, 14)), (9, 30, whole.rows(5, 30).rows(4, 99))):
        drawn = simulate_paths(params, dataclasses.replace(cfg, n_paths=hi - lo),
                               path_offset=lo)
        for name in ("x", "y", "mu"):
            assert getattr(part, name).tobytes() == getattr(drawn, name).tobytes(), name
            assert np.shares_memory(getattr(part, name), getattr(whole, name)), name
        assert (part.sim, part.path_offset) == (drawn.sim, lo)
        assert part.identity_hash() == drawn.identity_hash()


def test_each_fill_leaves_y_the_expma_of_x(benchmark_params, ctmc_params):
    """For both fills, each Y is the ExpMA of its X: no draw the fill left in
    a Y half survives."""
    cfg = small_config(n_paths=600)
    for params in (benchmark_params, ctmc_params):
        b = simulate_paths(params, cfg)
        assert b.mu.shape == (cfg.n_paths,)
        ref = expma_strided(b.x, params.lam, cfg.dt, np.empty_like(b.x))
        assert np.array_equal(b.y, ref)


@pytest.mark.parametrize("tile_bytes", [1, 8 * 256 * 7, 1 << 40])
def test_ou_fill_matches_per_path_generators(benchmark_params, monkeypatch, tile_bytes):
    """The fill reuses one generator per block and runs the recursion on
    time-major tiles (1 step, 5 steps for the one 300-path block, the whole
    horizon); a fresh generator per path and a path-major loop give the
    same bits, and the bundle keeps the loop's terminal drift."""
    monkeypatch.setattr(xl.simulate, "BLOCK_BYTES", tile_bytes)
    cfg = small_config(n_paths=300, horizon_months=3.0, x0=0.25)
    b = simulate_paths(benchmark_params, cfg, path_offset=1000)
    x, y, mu = ou_paths_per_path_rng(benchmark_params, cfg, path_offset=1000)
    assert np.array_equal(b.x, x)
    assert np.array_equal(b.y, y)
    assert np.array_equal(b.mu, mu[:, -1])
    assert np.array_equal(b.z, x - y)


@pytest.fixture(scope="module")
def long_markov_x(ctmc_gentle_params):
    cfg = SimConfig(horizon_months=120.0, n_paths=200, seed=13, dt=1.0 / 210.0)
    return simulate_paths(ctmc_gentle_params, cfg).x


@pytest.mark.parametrize("tile", [("bytes", 1), ("steps", 7), ("bytes", 1 << 40)])
def test_expma_matches_strided_recursion(benchmark_params, long_markov_x, monkeypatch, tile):
    """The ExpMA on time-major tiles (one step, 7 steps, one tile) has the
    bits of the strided recursion: on a 1-D price series as the signal
    passes it, on a 2-point series, into the row slice of a larger `out`
    as the fills pass it, and on a 200 x 25,201 Markov-drift bundle's X."""
    ou_x = simulate_paths(benchmark_params, small_config(n_paths=300)).x
    lam, dt = 3.1, 1.0 / 21.0
    series = np.log(np.linspace(100.0, 130.0, 61) * (1.0 + 0.01 * np.sin(np.arange(61))))
    for x, rows in ((series, slice(None)), (np.array([0.3, -0.2]), slice(None)),
                    (ou_x, slice(100, 250)), (long_markov_x, slice(None))):
        m = 1 if x.ndim == 1 else len(range(*rows.indices(x.shape[0])))
        kind, size = tile
        monkeypatch.setattr(xl.simulate, "BLOCK_BYTES",
                            8 * m * size if kind == "steps" else size)
        out = np.full_like(x, np.nan)
        xl.simulate.expma(x[rows], lam, dt, out=out[rows])
        ref = expma_strided(x[rows], lam, dt, np.empty_like(x[rows]))
        assert out[rows].tobytes() == ref.tobytes()
        if x.ndim == 2:  # rows outside the slice are left alone
            assert np.isnan(np.delete(out, np.arange(x.shape[0])[rows], axis=0)).all()


def test_fill_tiles_allocate_about_one_block_per_array(benchmark_params):
    """On a 1,000 x 504 OU bundle written into `out` buffers, `expma`
    allocates its one tile array, about one BLOCK_BYTES, and `simulate_paths`
    the fill's x, mu and two-row noise tiles, about four blocks, and a little
    more: the fill draws its noise into the bundle's X|Y rows, so neither
    allocates a grid of the bundle."""
    cfg = small_config(n_paths=1000, horizon_months=24.0)
    out, _ = xl.simulate.chunk_buffers(cfg.n_paths, cfg.n_paths, cfg.n_steps)
    b = simulate_paths(benchmark_params, cfg, out=out)
    block = xl.simulate.BLOCK_BYTES
    tracemalloc.start()
    try:
        xl.simulate.expma(b.x, benchmark_params.lam, cfg.dt, out=b.y)
        expma_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        simulate_paths(benchmark_params, cfg, out=out)
        fill_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expma_peak < 1.25 * block, expma_peak / block
    assert fill_peak < 6 * block, fill_peak / block


def test_ou_call_without_out_holds_about_its_two_grids(benchmark_params):
    """An OU `simulate_paths` call without `out` at 2,000 x 505 allocates
    its X|Y row pair, two grids, and draws its noise into the X|Y rows: its
    traced peak stays under 2.5 grids, with no drift grid and no draws
    buffer on top."""
    cfg = small_config(n_paths=2000, horizon_months=24.0)
    grid = 8 * cfg.n_paths * (cfg.n_steps + 1)
    assert cfg.n_steps + 1 == 505
    tracemalloc.start()
    try:
        simulate_paths(benchmark_params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * grid, peak / grid


def test_bundle_hash_reads_the_rows_of_a_row_pair_x(benchmark_params):
    """`BundleHash` fed the rows of the strided x of an X|Y row pair gives
    sha256 over its header and `x.tobytes()`, and a bundle's identity hash
    is that of the same bundle with a contiguous copy of its x."""
    cfg = small_config(n_paths=50, x0=0.25)
    b = simulate_paths(benchmark_params, cfg, path_offset=3)
    assert not b.x.flags.c_contiguous and b.x.base is b.y.base
    h = xl.simulate.BundleHash(b.params, b.sim, b.path_offset)
    h.update(b.x)
    head = f"ou|{cfg.seed}|3|{cfg.dt!r}|{cfg.x0!r}".encode()
    assert h.hexdigest() == hashlib.sha256(head + b.x.tobytes()).hexdigest()[:16]
    flat = dataclasses.replace(b, x=np.ascontiguousarray(b.x))
    assert b.identity_hash() == flat.identity_hash() == h.hexdigest()


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.3, 2.0), (40.0, 25.0)])
def test_ctmc_jump_times_match_sojourn_loop(alpha, beta):
    """The chunked jump draw gives the epochs of one sojourn at a time, bit
    for bit, and leaves the stream where the loop leaves it."""
    horizon = 12.0
    for p, (g, g_ref) in enumerate(zip(_path_rngs(11, 0, 30), _path_rngs(11, 0, 30))):
        start_high = p % 2 == 0
        jumps = _ctmc_jump_times(g, start_high, alpha, beta, horizon)
        ref = ctmc_jump_times_loop(g_ref, start_high, alpha, beta, horizon)
        assert jumps.dtype == ref.dtype and jumps.tobytes() == ref.tobytes()
        assert g.standard_normal(4).tobytes() == g_ref.standard_normal(4).tobytes()


def test_ctmc_drift_matches_bound_search():
    """Searching the jumps into the grid bounds gives the k, drift and drift
    increments of searching every bound into the jumps, bit for bit: with
    no jump, jumps on grid bounds (the first and the last among them), two
    jumps inside one step, and drawn epochs."""
    dt = 1.0 / 21.0
    bounds = np.arange(253) * dt
    rng = np.random.default_rng(4)
    drawn = np.cumsum(rng.standard_exponential(40) / 3.5)
    cases = [np.array([]), bounds[[0, 5, 9, 10, 252]], np.array([bounds[3] + 0.1 * dt,
             bounds[3] + 0.2 * dt, bounds[7]]), drawn[drawn <= bounds[-1]]]
    for jumps in cases:
        for start_high in (False, True):
            k, state_of, d_int = ctmc_drift_by_search(jumps, start_high, -0.2, 0.3, bounds)
            state, steps = np.empty(bounds.size), np.empty(bounds.size - 1)
            gather = np.empty((2, bounds.size))
            assert np.array_equal(
                _ctmc_drift(jumps, start_high, -0.2, 0.3, bounds, state, steps, gather), k)
            assert state.tobytes() == state_of.tobytes()
            assert steps.tobytes() == d_int.tobytes()


def test_bundle_invariants(benchmark_params, ctmc_params):
    cfg = small_config(x0=0.25)
    for params in (benchmark_params, ctmc_params):
        b = simulate_paths(params, cfg)
        assert np.all(b.y[:, 0] == 0.0)
        assert np.all(b.x[:, 0] == 0.25)
        assert np.array_equal(b.z, b.x - b.y)
        assert b.mu.shape == (cfg.n_paths,) and np.isfinite(b.mu).all()
    bc = simulate_paths(ctmc_params, cfg)
    states = {ctmc_params.drift.rho1, ctmc_params.drift.rho2}
    assert set(np.unique(bc.mu)) <= states


def test_each_quantity_is_stored_once(benchmark_params):
    """The bundle stores X, Y and the terminal drift with the settings it
    was drawn from; Z = X - Y is formed where it is read. The ledger keeps
    no copy of what the bundle and the strategy hold, and no strategy
    carries a label."""
    assert {f.name for f in dataclasses.fields(xl.PathBundle)} == {
        "x", "y", "mu", "params", "sim", "path_offset"}
    assert {f.name for f in dataclasses.fields(xl.WealthLedger)} == {
        "wealth", "pre_wealth", "weights", "delta", "cost", "bankrupt", "dt", "omega", "pi0"}
    for kind in (xl.ConstantAffine, xl.TimeVaryingAffine, xl.NonlinearFilter, xl.BuyAndHold):
        assert "name" not in {f.name for f in dataclasses.fields(kind)}
    cfg = small_config(x0=0.25)
    b = simulate_paths(benchmark_params, cfg)
    assert b.sim is cfg
    assert b.z.tobytes() == np.subtract(b.x, b.y).tobytes()
    assert b.mu.shape == (cfg.n_paths,)
    assert b.params.is_ou


def test_simulate_and_ledger_peak_memory(benchmark_params):
    """Bundle plus one affine ledger at 2000 x 505 peak at about 6.3 grids:
    the bundle's two, the ledger's four and the row blocks. A stored drift
    grid would make that 7.3, and a stored Z grid one more."""
    cfg = SimConfig(horizon_months=24.0, n_paths=2000, seed=5)
    grid = 8 * cfg.n_paths * (cfg.n_steps + 1)
    strat = ConstantAffine(*growth_limit_affine(benchmark_params))
    tracemalloc.start()
    try:
        led = run_strategy(simulate_paths(benchmark_params, cfg), strat, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert led.bankrupt.sum() == 0
    assert peak < 6.8 * grid, peak / grid


def test_metrics_peak_memory(benchmark_params):
    """The metrics of a 2000 x 505 ledger hold one row block of daily returns
    at a time, never a grid of them."""
    cfg = SimConfig(horizon_months=24.0, n_paths=2000, seed=5)
    grid = 8 * cfg.n_paths * (cfg.n_steps + 1)
    strat = ConstantAffine(*growth_limit_affine(benchmark_params))
    led = run_strategy(simulate_paths(benchmark_params, cfg), strat, 0.001)
    tracemalloc.start()
    try:
        xl.compute_metrics(led)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * grid, peak / grid


def test_deterministic_limit_constant_drift():
    p = ModelParams(drift=OUDrift(kappa=0.0226, mu_bar=0.0034, delta=1e-12,
                                  m1_0=0.0034, v1_0=0.0), sigma=1e-12, lam=2.0)
    cfg = small_config(n_paths=3, horizon_months=2.0)
    b = simulate_paths(p, cfg)
    n = cfg.n_steps
    expected = (0.0034 - 0.5e-24) * n * cfg.dt
    assert np.max(np.abs(b.x[:, -1] - expected)) < 1e-8


@pytest.mark.parametrize("n, parts", [(10_000, 3), (10_000, 4), (300, 4), (255, 8),
                                      (800, 4), (4000, 15), (1, 1)])
def test_path_slices_are_balanced_and_never_under_the_floor(n, parts):
    """Fill blocks and run chunks: consecutive, covering every row, sizes
    within one of each other, and none under MIN_BLOCK_PATHS unless the
    rows make only one slice."""
    slices = xl.simulate.path_slices(n, parts)
    sizes = [s.stop - s.start for s in slices]
    assert slices[0].start == 0 and slices[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert len(slices) <= parts and max(sizes) - min(sizes) <= 1
    assert min(sizes) >= xl.simulate.MIN_BLOCK_PATHS or len(slices) == 1


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
        mu_final[off:off + chunk] = b.mu
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


@pytest.mark.parametrize("omega", [0.0, 0.01])
def test_ledger_share_change_matches_share_change(omega):
    """The ledger's per-unit share change has the bits of `rebalance_delta` at
    unit wealth: on the 40x-leverage paths, bankrupt rows among them, on
    trades between signed zero weights, and on a trade of exactly zero at
    omega * f = 1, which buys (no singular sell denominator)."""
    lev = ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.05, delta=0.01), sigma=0.3, lam=2.0)
    b = simulate_paths(lev, SimConfig(horizon_months=12.0, n_paths=64, seed=3))
    strat = ConstantAffine(0.0, 40.0)
    assert run_strategy(b, strat, omega).bankrupt.any()
    S = b.n_steps
    weights = np.empty((b.n_paths, S))
    weights[:, 0] = 1.0
    weights[:, 1:] = strat.weights(np.arange(1, S) * b.sim.dt, b.z[:, 1:S])
    zeros = np.array([[0.0, -0.0, 0.0, -0.0, -0.0, 60.0, -80.0, 100.0, 100.0]])
    zeros_x = np.array([[0.0, 0.01, -0.02, -0.02, 0.01, 0.0, 0.03, -0.01, -0.01, 0.02]])
    for f, x in ((weights, b.x), (zeros, zeros_x)):
        ex, e_next = np.exp(np.diff(x, axis=1)), np.exp(x[:, 1:-1])
        ref = rebalance_delta(f[:, 1:], f[:, :-1], 1.0, x[:, :-2], x[:, 1:-1], omega)
        d_unit, growth, mine_e_next = _unit_share_change(x, f, omega, _block_scratch(*f.shape))
        assert d_unit.tobytes() == ref.tobytes()
        assert growth.tobytes() == (1.0 - f + f * ex).tobytes()
        assert mine_e_next.tobytes() == e_next.tobytes()


def test_run_strategy_singular_share_change():
    """omega * f = 1 leaves the sell branch's denominator at 0: the ledger
    raises on the first day the constant 100x weight sells."""
    cfg = small_config(n_paths=8)
    b = simulate_paths(ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.0, delta=0.01),
                                   sigma=0.2, lam=2.0), cfg)
    assert 0.01 * 100.0 == 1.0
    assert np.any(np.diff(b.x[:, 1:], axis=1) < 0.0)  # a selling day
    with pytest.raises(LeverageCostSingularityError):
        run_strategy(b, ConstantAffine(0.0, 100.0), 0.01)
    run_strategy(b, ConstantAffine(0.0, 100.0), 0.005)


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
    """At omega = 0 the cost arithmetic pays exactly nothing: the wealth is
    the frictionless product of the growth factors 1 - f + f e^{dX}, bit
    for bit."""
    cfg = small_config(n_paths=128)
    b = simulate_paths(benchmark_params, cfg)
    led = run_strategy(b, ConstantAffine(*growth_limit_affine(benchmark_params)), 0.0)
    assert not led.bankrupt.any()
    assert np.array_equal(led.wealth, frictionless_wealth(led, b))
    assert np.all(led.cost == 0.0)


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


@pytest.mark.parametrize("omega", [0.0, 0.001, 0.01])
@pytest.mark.parametrize("case", ["ou_constant", "ou_time_varying", "ctmc_filter", "bankruptcy"])
@pytest.mark.parametrize("rows", [None, 3])
def test_ledger_matches_fresh_blocks(ledger_cases, monkeypatch, case, omega, rows):
    """Blocks writing into one scratch set per ledger, with the freeze passes
    run only in a block where a path froze, give every ledger field of
    blocks that form their own temporaries and always freeze, bit for bit:
    at the default block size and at three paths per block."""
    bundle, strat = ledger_cases[case]
    if rows is not None:
        monkeypatch.setattr(xl.simulate, "BLOCK_BYTES", rows * 8 * (bundle.n_steps + 1))
    led = run_strategy(bundle, strat, omega)
    ref = ledger_fresh_blocks(bundle, strat, omega)
    for field in ("wealth", "pre_wealth", "weights", "delta", "cost", "bankrupt"):
        assert getattr(led, field).tobytes() == getattr(ref, field).tobytes(), field


@pytest.mark.parametrize("omega", [0.0, 0.01])
def test_ledger_block_size_invariant(monkeypatch, omega):
    """One path per block, three (odd) and the whole grid give the same
    bits in every ledger field and in the metrics, with bankrupt paths in
    rows 2 and 3, either side of the first edge of three-path blocks."""
    lev = ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.05, delta=0.01), sigma=0.3, lam=2.0)
    b = simulate_paths(lev, SimConfig(horizon_months=12.0, n_paths=64, seed=3))
    strat = ConstantAffine(0.0, 5.0)
    broke = run_strategy(b, strat, omega).bankrupt
    assert 2 <= broke.sum() <= 60
    ok_rows, broke_rows = np.flatnonzero(~broke), np.flatnonzero(broke)
    order = np.concatenate([ok_rows[:2], broke_rows, ok_rows[2:]])
    b = dataclasses.replace(b, x=b.x[order], y=b.y[order], mu=b.mu[order])

    row_bytes = 8 * (b.n_steps + 1)
    ledgers, metrics = [], []
    for rows in (1, 3, b.n_paths):
        monkeypatch.setattr(xl.simulate, "BLOCK_BYTES", rows * row_bytes)
        ledgers.append(run_strategy(b, strat, omega))
        metrics.append(xl.compute_metrics(ledgers[-1]))
    assert ledgers[0].bankrupt[2] and ledgers[0].bankrupt[3]
    assert not ledgers[0].bankrupt[1] and not ledgers[0].bankrupt[-1]
    for led, m in zip(ledgers[:2], metrics[:2]):
        for field in ("wealth", "pre_wealth", "weights", "delta", "cost", "bankrupt"):
            assert np.array_equal(getattr(led, field), getattr(ledgers[-1], field)), field
        assert repr(m) == repr(metrics[-1])


def test_ledger_evaluates_weights_one_row_block_at_a_time(benchmark_params):
    """`strategy.weights` sees one ledger row block per call, never the
    whole bundle: every call has at most `block_rows(S)` rows, and the
    calls cover every path once."""
    b = simulate_paths(benchmark_params, small_config(n_paths=600))
    shapes = []

    def g(z):
        shapes.append(z.shape)
        return np.full(z.shape, 0.5)

    run_strategy(b, NonlinearFilter(g=g), 0.001)
    rows = block_rows(b.n_steps)
    assert rows < b.n_paths
    assert len(shapes) > 1
    assert all(r <= rows and days == b.n_steps - 1 for r, days in shapes)
    assert sum(r for r, _ in shapes) == b.n_paths


def test_nonfinite_weight_names_a_simulated_day(benchmark_params):
    """A strategy that returns NaN for large signals is refused with
    `nonfinite_weight`, naming a rebalancing day on which some path's
    signal is past the threshold."""
    b = simulate_paths(benchmark_params, small_config(n_paths=300))
    days = np.arange(1, b.n_steps) * b.sim.dt
    z = b.z[:, 1:b.n_steps]
    c = np.quantile(z, 0.999)
    with pytest.raises(ValidationError) as exc:
        run_strategy(b, NonlinearFilter(g=lambda z: np.where(z > c, np.nan, 0.5)), 0.0)
    assert exc.value.codes == ["nonfinite_weight"]
    t_bad = float(str(exc.value).split("t=")[1].split(" ")[0])
    assert t_bad in days
    assert (z[:, days == t_bad] > c).any()


@pytest.mark.parametrize("omega", [0.0, 0.001])
def test_out_buffers_give_the_allocating_calls_bits(benchmark_params, ctmc_gentle_params,
                                                     omega):
    """`simulate_paths` and `run_strategy` write into the leading rows of
    `out` buffers taller than the run and filled with NaN: every grid they
    return is a view of its buffer with the bits of the allocating call,
    and the rows past the run are left alone. The levered affine rule
    bankrupts paths, so its freeze passes run."""
    cfg = small_config(n_paths=70, horizon_months=12.0)
    S, spare = cfg.n_steps, 5
    lev = ModelParams(drift=OUDrift(kappa=0.5, mu_bar=0.05, delta=0.01), sigma=0.3, lam=2.0)
    panel = dict(xl.build_strategies(benchmark_params, 12.0))
    cases = [(benchmark_params, panel["growth"]), (benchmark_params, panel["utility_c2"]),
             (ctmc_gentle_params, xl.filter_strategy(ctmc_gentle_params)),
             (benchmark_params, BuyAndHold()), (lev, ConstantAffine(0.0, 40.0))]
    assert [type(s) for _, s in cases] == [ConstantAffine, xl.TimeVaryingAffine,
                                           NonlinearFilter, BuyAndHold, ConstantAffine]
    for params, strat in cases:
        xy = np.full((cfg.n_paths + spare, 2 * (S + 1)), np.nan)
        ledger_out = [np.full((cfg.n_paths + spare, w), np.nan) for w in (S + 1, S, S, S + 1)]
        fresh = simulate_paths(params, cfg)
        bundle = simulate_paths(params, cfg, out=xy)
        for name in ("x", "y"):
            got = getattr(bundle, name)
            assert got.tobytes() == getattr(fresh, name).tobytes(), name
            assert np.shares_memory(got, xy) and np.isnan(xy[cfg.n_paths:]).all(), name
        assert bundle.mu.tobytes() == fresh.mu.tobytes()
        ref = run_strategy(fresh, strat, omega)
        led = run_strategy(bundle, strat, omega, out=ledger_out)
        for field in ("wealth", "pre_wealth", "weights", "delta", "cost", "bankrupt"):
            assert getattr(led, field).tobytes() == getattr(ref, field).tobytes(), field
        for name, buf in zip(("wealth", "pre_wealth", "weights", "delta"), ledger_out):
            got = getattr(led, name)
            assert np.shares_memory(got, buf) and np.isnan(buf[cfg.n_paths:]).all(), name
    assert led.bankrupt.any()
    with pytest.raises(ValueError):
        run_strategy(bundle, strat, omega, out=[b[:cfg.n_paths - 1] for b in ledger_out])
    for wrong in (xy[:, :-1], (xy, xy[:, :S + 1])):  # a narrow grid; the old (xy, mu) pair
        with pytest.raises(ValueError):
            simulate_paths(params, cfg, out=wrong)
