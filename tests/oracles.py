"""Independent Monte Carlo oracles used by the unit and acceptance tests.

These deliberately avoid the package's own closed forms and its simulator
internals: the OU oracle advances the drift by its exact one-step
transition and the signal by its exact conditionally-Gaussian step (drift
frozen within a step); the chain oracles draw exact exponential jump times
with a single shared generator and active-path rounds. The reference
ledger is the day-by-day wealth loop that `run_strategy` vectorises, and
the reference march the two-array transport loop of `solve_uv_pde`. The
strided ExpMA and the fresh-temporary ledger blocks are the plain forms
of the simulator's tiled ExpMA and scratch-reusing ledger blocks, which
must match them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def ou_moment_mc(params, times, n_paths, dt, seed):
    """Sample stats (with standard errors) for m1, v1, m2, v2, m3 at `times`."""
    d = params.drift
    kap, lam, sig = d.kappa, params.lam, params.sigma
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))

    phi_k = math.exp(-kap * dt)
    s_mu = d.delta * math.sqrt((1.0 - phi_k**2) / (2.0 * kap))
    phi_l = math.exp(-lam * dt)
    s_z = sig * math.sqrt((1.0 - phi_l**2) / (2.0 * lam))
    drift_gain = (1.0 - phi_l) / lam

    mu = d.m1_0 + math.sqrt(d.v1_0) * rng.standard_normal(n_paths)
    z = np.zeros(n_paths)
    out = {}
    steps = {round(t / dt): t for t in times}
    for i in range(1, max(steps) + 1):
        z = phi_l * z + (mu - 0.5 * sig**2) * drift_gain + s_z * rng.standard_normal(n_paths)
        mu = d.mu_bar + (mu - d.mu_bar) * phi_k + s_mu * rng.standard_normal(n_paths)
        if i in steps:
            prod = mu * z
            out[steps[i]] = {
                "m1": mu.mean(), "se_m1": mu.std(ddof=1) / math.sqrt(n_paths),
                "v1": mu.var(ddof=1), "se_v1": _var_se(mu),
                "m2": z.mean(), "se_m2": z.std(ddof=1) / math.sqrt(n_paths),
                "v2": z.var(ddof=1), "se_v2": _var_se(z),
                "m3": prod.mean(), "se_m3": prod.std(ddof=1) / math.sqrt(n_paths),
            }
    return out


def _var_se(x: np.ndarray) -> float:
    n = x.size
    c = x - x.mean()
    m4 = (c**4).mean()
    v = (c**2).mean()
    return math.sqrt(max(m4 - v * v, 0.0) / n)


def ctmc_exact_signal(params, t, n_paths, seed, init_high=None):
    """Exact-jump samples of (Z_t, mu_t, mu_0) for the two-state drift."""
    d = params.drift
    lam, sig = params.lam, params.sigma
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    if init_high is None:
        high = rng.random(n_paths) < d.alpha / (d.alpha + d.beta)
    else:
        high = np.full(n_paths, init_high, dtype=bool)
    mu0 = np.where(high, d.rho2, d.rho1)
    tcur = np.zeros(n_paths)
    K = np.zeros(n_paths)  # int_0^t mu_s e^{-lam (t-s)} ds
    mu_t = mu0.astype(float).copy()
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        rate = np.where(high[idx], d.beta, d.alpha)
        e = rng.standard_exponential(idx.size) / rate
        t_next = tcur[idx] + e
        end = np.minimum(t_next, t)
        mu_val = np.where(high[idx], d.rho2, d.rho1)
        K[idx] += mu_val / lam * (np.exp(-lam * (t - end)) - np.exp(-lam * (t - tcur[idx])))
        done = t_next >= t
        mu_t[idx[done]] = mu_val[done]
        tcur[idx] = t_next
        active[idx[done]] = False
        high[idx[~done]] = ~high[idx[~done]]
    gvar = (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
    z = (K - sig**2 * (1.0 - math.exp(-lam * t)) / (2.0 * lam)
         + sig * math.sqrt(gvar) * rng.standard_normal(n_paths))
    return z, mu_t, mu0


def ctmc_drift_integral(params, t, n_paths, seed, init_high=None, forward_kernel=True):
    """Exact-jump samples of int_0^t e^{-lam s} mu_s ds (and mu_0)."""
    d = params.drift
    lam = params.lam
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    if init_high is None:
        high = rng.random(n_paths) < d.alpha / (d.alpha + d.beta)
    else:
        high = np.full(n_paths, init_high, dtype=bool)
    mu0 = np.where(high, d.rho2, d.rho1)
    tcur = np.zeros(n_paths)
    acc = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        rate = np.where(high[idx], d.beta, d.alpha)
        e = rng.standard_exponential(idx.size) / rate
        t_next = tcur[idx] + e
        end = np.minimum(t_next, t)
        mu_val = np.where(high[idx], d.rho2, d.rho1)
        acc[idx] += mu_val * (np.exp(-lam * tcur[idx]) - np.exp(-lam * end)) / lam
        done = t_next >= t
        tcur[idx] = t_next
        active[idx[done]] = False
        high[idx[~done]] = ~high[idx[~done]]
    return acc, mu0


def ctmc_jump_times_loop(g, start_high, alpha, beta, horizon):
    """Jump epochs on [0, horizon] one sojourn at a time, drawing the holding
    times in chunks of 32 exponentials."""
    times = []
    t = 0.0
    high = start_high
    while True:
        for e in g.standard_exponential(32):
            t += e / (beta if high else alpha)
            if t > horizon:
                return np.asarray(times)
            times.append(t)
            high = not high


def ctmc_drift_by_search(jumps, start_high, rho1, rho2, bounds):
    """(k, drift at each bound, drift integral over each step) of one path,
    k[i] = jumps at or before bounds[i] found by searching every bound."""
    k = np.searchsorted(jumps, bounds, side="right")
    state_of = np.where((k % 2 == 0) == start_high, rho2, rho1)
    seg_states = np.where((np.arange(jumps.size) % 2 == 0) == start_high, rho2, rho1)
    last_jump = np.concatenate(([0.0], jumps))
    cum = np.concatenate(([0.0], np.cumsum(seg_states * np.diff(last_jump))))
    return k, state_of, np.diff(cum[k] + state_of * (bounds - last_jump[k]))


def mc_log_growth(params, strategy, horizon, n_paths, dt, seed, chunk=200, omega=0.0):
    """Per-path (1/T) log terminal wealth under one strategy, chunked to
    bound memory; exact per-path substreams make the chunking irrelevant.
    Each chunk is drawn into one X|Y buffer, and its ledger runs on row
    slices of one ledger row block in one set of ledger buffers, as a
    streamed run's does; the ledger is row-local, so the slicing changes
    no bit."""
    import expma_lab as xl

    vals = []
    cfg = xl.SimConfig(horizon_months=horizon, n_paths=min(chunk, n_paths),
                       seed=seed, dt=dt)
    rows = min(cfg.n_paths, xl.simulate.block_rows(cfg.n_steps))
    xy, ledger_out = xl.simulate.chunk_buffers(cfg.n_paths, rows, cfg)
    for off in range(0, n_paths, cfg.n_paths):
        bundle = xl.simulate_paths(params, cfg, path_offset=off, out=xy)
        for lo in range(0, cfg.n_paths, rows):
            ledger = xl.run_strategy(bundle.rows(lo, lo + rows), strategy, omega,
                                     out=ledger_out)
            vals.append(np.log(ledger.wealth[:, -1] / ledger.pi0) / horizon)
    return np.concatenate(vals)[:n_paths]


def ou_paths_per_path_rng(params, config, path_offset=0):
    """(x, y, mu) of an OU bundle the plain way: a fresh Philox generator per
    path keyed (seed, path), one scalar draw for mu_0 and then the (z, zbar)
    pairs, and the day-by-day recursion over path-major arrays."""
    d = params.drift
    n, S = config.n_paths, config.n_steps
    dt, sig, lam = config.dt, params.sigma, params.lam
    sq = math.sqrt(dt)
    mask = 0xFFFFFFFFFFFFFFFF
    mu0 = np.empty(n)
    zs = np.empty((n, S))
    zbars = np.empty((n, S))
    for j in range(n):
        g = np.random.Generator(np.random.Philox(key=[config.seed & mask,
                                                      (path_offset + j) & mask]))
        mu0[j] = g.standard_normal()
        pair = g.standard_normal((S, 2))
        zs[j], zbars[j] = pair[:, 0], pair[:, 1]

    x = np.empty((n, S + 1))
    y = np.empty_like(x)
    mu = np.empty_like(x)
    x[:, 0] = config.x0
    y[:, 0] = 0.0
    mu[:, 0] = d.m1_0 + math.sqrt(d.v1_0) * mu0
    for i in range(S):
        x[:, i + 1] = x[:, i] + (mu[:, i] - 0.5 * sig**2) * dt + sig * sq * zs[:, i]
        mu[:, i + 1] = mu[:, i] + d.kappa * (d.mu_bar - mu[:, i]) * dt + d.delta * sq * zbars[:, i]
        y[:, i + 1] = y[:, i] + lam * (x[:, i] - y[:, i]) * dt
    return x, y, mu


def reference_ledger(bundle, strategy, omega):
    """Day-by-day self-financing ledger: one strategy call and one
    share-change solve per day, each path frozen once its wealth would
    drop to <= 0. The reference `run_strategy` is compared against."""
    import expma_lab as xl

    n, S = bundle.n_paths, bundle.n_steps
    x, z = bundle.x, bundle.z
    wealth = np.empty((n, S + 1))
    pre_wealth = np.empty((n, S))
    weights = np.empty((n, S))
    delta = np.zeros((n, S + 1))
    cost = np.zeros(n)
    bankrupt = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    wealth[:, 0] = bundle.sim.pi0
    weights[:, 0] = 1.0

    for i in range(S):
        pi = wealth[:, i]
        f = weights[:, i]
        ex = np.exp(x[:, i + 1] - x[:, i])
        pi_pre = pi * (1.0 - f + f * ex)
        pre_wealth[:, i] = pi_pre

        if i + 1 == S:
            newly = active & (pi_pre <= 0.0)
            wealth[:, S] = np.where(newly, pi, pi_pre)
            bankrupt |= newly
            break

        f_next = np.broadcast_to(
            np.asarray(strategy.weights((i + 1) * bundle.sim.dt, z[:, i + 1]), dtype=float),
            (n,))
        f_next = np.where(active, f_next, 0.0)
        d_shares = xl.rebalance_delta(f_next, f, pi, x[:, i], x[:, i + 1], omega)
        trade_cost = omega * np.abs(d_shares) * np.exp(x[:, i + 1])
        nxt = pi_pre - trade_cost

        newly = active & (nxt <= 0.0)
        nxt = np.where(newly, pi, nxt)
        f_next = np.where(newly, 0.0, f_next)
        d_shares = np.where(newly, 0.0, d_shares)
        bankrupt |= newly
        active &= ~newly
        wealth[:, i + 1] = nxt
        weights[:, i + 1] = f_next
        delta[:, i + 1] = d_shares
        cost += np.where(bankrupt, 0.0, trade_cost)

    return xl.WealthLedger(wealth=wealth, pre_wealth=pre_wealth, weights=weights,
                           delta=delta, cost=cost, bankrupt=bankrupt,
                           dt=bundle.sim.dt, omega=omega, pi0=bundle.sim.pi0)


def frictionless_wealth(ledger, bundle):
    """The frictionless wealth of `ledger`'s weights on `bundle`: pi0 times
    the running product of the growth factors 1 - f + f e^{dX}, without a
    cost term or a bankruptcy freeze."""
    f = ledger.weights
    factors = (1.0 - f) + np.exp(np.diff(bundle.x, axis=1)) * f
    return np.cumprod(np.hstack([np.full((ledger.n_paths, 1), ledger.pi0), factors]), axis=1)


def expma_strided(x, lam, dt, out):
    """The ExpMA recursion one step at a time over strided columns of `x`,
    with fresh temporaries every step. The reference `expma` is compared
    against, bit for bit."""
    out[..., 0] = 0.0
    for i in range(x.shape[-1] - 1):
        out[..., i + 1] = out[..., i] + lam * (x[..., i] - out[..., i]) * dt
    return out


def ledger_fresh_blocks(bundle, strategy, omega):
    """`run_strategy`'s ledger over the same row blocks, each block forming
    its own temporaries and running the freeze passes whether or not a path
    froze. The reference the scratch-reusing blocks are compared against,
    bit for bit (not for buy-and-hold)."""
    import expma_lab as xl

    n, S = bundle.n_paths, bundle.n_steps
    x, pi0 = bundle.x, bundle.sim.pi0
    weights = np.empty((n, S))
    weights[:, 0] = 1.0
    weights[:, 1:] = strategy.weights(np.arange(1, S) * bundle.sim.dt, bundle.z[:, 1:S])
    wealth = np.empty((n, S + 1))
    pre_wealth = np.empty((n, S))
    delta = np.zeros((n, S + 1))
    cost = np.empty(n)
    bankrupt = np.empty(n, dtype=bool)
    rows = xl.simulate.block_rows(S)
    for lo in range(0, n, rows):
        b = slice(lo, lo + rows)
        _ledger_block_fresh(x[b], weights[b], omega, pi0, wealth[b], pre_wealth[b],
                            delta[b], cost[b], bankrupt[b])
    return xl.WealthLedger(wealth=wealth, pre_wealth=pre_wealth, weights=weights,
                           delta=delta, cost=cost, bankrupt=bankrupt,
                           dt=bundle.sim.dt, omega=omega, pi0=pi0)


def _ledger_block_fresh(x, weights, omega, pi0, wealth, pre_wealth, delta, cost, bankrupt):
    S = weights.shape[1]
    d_unit, growth, e_next = _unit_share_change_fresh(x, weights, omega)
    cost_unit = np.abs(d_unit)
    np.multiply(omega, cost_unit, out=cost_unit)
    cost_unit *= e_next

    wealth[:, 0] = pi0
    factor = wealth[:, 1:]
    factor[:] = growth
    factor[:, :S - 1] -= cost_unit
    frozen = np.logical_or.accumulate(factor <= 0.0, axis=1)
    factor[frozen] = 1.0
    np.cumprod(wealth, axis=1, out=wealth)

    after = frozen[:, :S - 1]
    cost_unit *= wealth[:, :S - 1]
    cost_unit[after] = 0.0
    np.multiply(wealth[:, :S - 1], d_unit, out=delta[:, 1:S])
    delta[:, 1:S][after] = 0.0
    weights[:, 1:][after] = 0.0
    growth[:, 1:][after] = 1.0
    np.multiply(wealth[:, :S], growth, out=pre_wealth)
    cost[:] = cost_unit.sum(axis=1)
    bankrupt[:] = frozen[:, -1]


def _unit_share_change_fresh(x, weights, omega):
    """(share change, growth factor, e^{X_{i+1}}) of every trade of a ledger
    block at unit wealth, each a new array."""
    import expma_lab as xl

    S = weights.shape[1]
    f_next = weights[:, 1:]
    wx = np.diff(x, axis=1)
    np.exp(wx, out=wx)
    wx *= weights
    growth = np.subtract(1.0, weights)
    growth += wx
    numer = np.multiply(f_next, growth[:, :S - 1])
    numer -= wx[:, :S - 1]
    den = np.multiply(numer >= 0.0, 2.0 * omega, out=wx[:, :S - 1])
    den -= omega
    den *= f_next
    if ((den.max(initial=0.0) >= 0.5 or den.min(initial=0.0) <= -0.5)
            and np.any(np.abs(den + 1.0) < 1e-10)):
        raise xl.LeverageCostSingularityError(
            "1 +/- omega*f_next vanished; share-change equation singular")
    den += 1.0
    e_next = np.exp(x[:, 1:S])
    den *= e_next
    numer /= den
    return numer, growth, e_next


def reference_uv_march(params, t_max, nx=512, snapshot_times=None):
    """The transport march with separate u and v arrays and fresh
    temporaries every step, at CFL 0.9: (times, u, v) at the snapshot times.
    The reference `solve_uv_pde` is compared against, bit for bit."""
    d = params.drift
    lam = params.lam
    t0 = 1e-3 / max(lam, d.alpha, d.beta, 1.0)
    snaps = sorted(set(float(t) for t in (snapshot_times if snapshot_times is not None else [t_max])))

    xi = np.linspace(0.0, 1.0, nx)
    dxi = xi[1] - xi[0]
    rate = max(d.alpha, d.beta)

    u = math.exp(-d.alpha * t0) + (1.0 - math.exp(-d.alpha * t0)) * xi
    v = (1.0 - math.exp(-d.beta * t0)) * xi
    v[-1] = 1.0

    out_u, out_v, out_t = [], [], []
    t = t0
    pending = list(snaps)
    while pending:
        target = pending.pop(0)
        while t < target:
            s = lam / (-math.expm1(-lam * t))
            dt = min(0.9 / (s / dxi + rate), target - t)
            # u: leftward characteristics, difference toward xi+
            du = np.empty_like(u)
            du[:-1] = (u[1:] - u[:-1]) / dxi
            du[-1] = 0.0
            dv = np.empty_like(v)
            dv[1:] = (v[1:] - v[:-1]) / dxi
            dv[0] = 0.0
            u_new = u + dt * (xi * s * du - d.alpha * (u - v))
            v_new = v + dt * (-(1.0 - xi) * s * dv - d.beta * (v - u))
            t += dt
            u, v = u_new, v_new
            u[0] = math.exp(-d.alpha * t)
            u[-1] = 1.0
            v[0] = 0.0
            v[-1] = 1.0
        out_u.append(u.copy())
        out_v.append(v.copy())
        out_t.append(t)
    return np.asarray(out_t), np.asarray(out_u), np.asarray(out_v)
