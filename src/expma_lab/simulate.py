"""Seeded path simulation and wealth accounting with proportional costs.

Path generation follows the daily discretization

    X_{i+1} = X_i + (mu_i - sigma^2/2) dt + sigma sqrt(dt) z_i
    Y_{i+1} = Y_i + lambda (X_i - Y_i) dt
    mu_{i+1} = mu_i + kappa (mu_bar - mu_i) dt + delta sqrt(dt) zbar_i   (OU)

with the Markov drift simulated by exact exponential holding times and the
X increment integrating the piecewise-constant drift exactly across jumps
inside a step. Every path draws from its own counter-based substream keyed
(seed, path index), so ensembles are bit-identical for any chunking or
worker count. The OU recursion runs on time-major tiles and the wealth
ledger on blocks of paths, each sized to stay in cache; every operation is
elementwise or along one path, so neither size changes a bit of the result.

Wealth accounting mirrors a daily rebalancing desk: the portfolio carries
weight f_i over [i, i+1); after the price move the new target weight is
evaluated at (t_{i+1}, Z_{i+1}) and the share change Delta solves the
self-financing pair

    Pi_{i+1} = Pi_(i+1)- - omega |Delta| e^{X_{i+1}}
    f_{i+1} Pi_{i+1} = (f_i Pi_i / e^{X_i} + Delta) e^{X_{i+1}}

in closed form. The pair is homogeneous of degree one in wealth, so wealth
is the cumulative product of daily factors g(f_i, f_{i+1}, dX_i, omega),
with the weights evaluated once over the whole (t, Z) grid. All strategies
start with one share of the risky asset and no cash (f_0 = 1); no trade
happens on the terminal day. A path is frozen at its first nonpositive
factor: wealth stays at its last positive value, it trades no more, and it
is flagged bankrupt.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, LeverageCostSingularityError,
                     ResourceLimitError, ValidationError)
from .models import (BuyAndHold, CTMC2Drift, ModelParams, OUDrift, SimConfig,
                     Strategy, validate, validate_sim)

MAX_ELEMENTS = 40_000_000  # n_paths * (n_steps + 1) bound per bundle (~1.3 GB of arrays)
# Target bytes per array in one row block of the wealth ledger, small enough
# for the block's dozen temporaries to stay in cache; at least one path per block.
LEDGER_BLOCK_BYTES = 256 * 1024
# Target bytes per time-major tile of the OU path recursion.
FILL_TILE_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class PathBundle:
    """Ensemble of discretized (X, Y, Z, mu) trajectories, shape (n_paths, n_steps+1)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    dt: float
    seed: int
    model: str
    params: ModelParams
    x0: float
    pi0: float
    path_offset: int = 0

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    def identity_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.model}|{self.seed}|{self.path_offset}|{self.dt!r}|{self.x0!r}".encode())
        h.update(self.x.tobytes())
        return h.hexdigest()[:16]


def expma(x: np.ndarray, lam: float, dt: float, out: np.ndarray) -> np.ndarray:
    """Daily ExpMA of `x` along its last axis, written into `out`; starts at 0."""
    out[..., 0] = 0.0
    for i in range(x.shape[-1] - 1):
        out[..., i + 1] = out[..., i] + lam * (x[..., i] - out[..., i]) * dt
    return out


def _path_rngs(seed: int, first: int, count: int):
    """The generators of paths first, ..., first+count-1, in turn.

    Path p draws from a Philox keyed (seed, p) with its counter at 0. One
    Philox serves them all: setting its key, counter and buffer to those
    of a fresh generator gives exactly the fresh generator's stream.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    g = np.random.Generator(np.random.Philox(key=[seed & mask, 0]))
    fresh = g.bit_generator.state
    for p in range(first, first + count):
        fresh["state"]["key"][1] = p & mask
        g.bit_generator.state = fresh
        yield g


def _fill_ou(params: ModelParams, config: SimConfig, offset: int,
             sl: slice, x, y, mu) -> None:
    d: OUDrift = params.drift
    n_steps = config.n_steps
    m = sl.stop - sl.start
    # path j draws mu_0, then (z, zbar) for each step, in that order
    draws = np.empty((m, 1 + 2 * n_steps))
    for row, g in zip(draws, _path_rngs(config.seed, offset + sl.start, m)):
        g.standard_normal(out=row)

    dt, sig = config.dt, params.sigma
    sq = math.sqrt(dt)
    # the recursion runs on time-major tiles of the block, so every step reads
    # and writes contiguous rows; row 0 of a tile carries the previous step
    tile = min(n_steps, max(1, FILL_TILE_BYTES // (8 * m)))
    x_t = np.empty((tile + 1, m))
    mu_t = np.empty_like(x_t)
    x_t[0] = config.x0
    mu_t[0] = d.m1_0 + math.sqrt(d.v1_0) * draws[:, 0]
    x[sl, 0], mu[sl, 0] = x_t[0], mu_t[0]
    for lo in range(0, n_steps, tile):
        k = min(tile, n_steps - lo)
        noise = draws[:, 1 + 2 * lo:1 + 2 * (lo + k)].T.copy()
        zs, zbars = noise[0::2], noise[1::2]
        for i in range(k):
            x_t[i + 1] = x_t[i] + (mu_t[i] - 0.5 * sig**2) * dt + sig * sq * zs[i]
            mu_t[i + 1] = mu_t[i] + d.kappa * (d.mu_bar - mu_t[i]) * dt + d.delta * sq * zbars[i]
        x[sl, lo + 1:lo + k + 1] = x_t[1:k + 1].T
        mu[sl, lo + 1:lo + k + 1] = mu_t[1:k + 1].T
        x_t[0], mu_t[0] = x_t[k], mu_t[k]
    expma(x[sl], params.lam, dt, out=y[sl])


def _ctmc_jump_times(g: np.random.Generator, start_high: bool,
                     alpha: float, beta: float, horizon: float) -> np.ndarray:
    """Exact jump epochs of the chain on [0, horizon] from one substream."""
    times = []
    t = 0.0
    high = start_high
    while True:
        chunk = g.standard_exponential(32)
        for e in chunk:
            t += e / (beta if high else alpha)
            if t > horizon:
                return np.asarray(times)
            times.append(t)
            high = not high


def _fill_ctmc(params: ModelParams, config: SimConfig, offset: int,
               sl: slice, x, y, mu) -> None:
    d: CTMC2Drift = params.drift
    n_steps = config.n_steps
    dt, sig = config.dt, params.sigma
    sq = math.sqrt(dt)
    horizon = n_steps * dt
    p_high = d.alpha / (d.alpha + d.beta)
    bounds = np.arange(n_steps + 1) * dt

    lo = sl.start
    for j, g in enumerate(_path_rngs(config.seed, offset + lo, sl.stop - lo)):
        start_high = g.random() < p_high
        jumps = _ctmc_jump_times(g, start_high, d.alpha, d.beta, horizon)
        zs = g.standard_normal(n_steps)

        # piecewise-constant drift: state on [jumps[k-1], jumps[k]) alternates
        k = np.searchsorted(jumps, bounds, side="right")
        state_of = np.where((k % 2 == 0) == start_high, d.rho2, d.rho1)
        # cumulative integral of mu at jump epochs, then linear within sojourns
        if jumps.size:
            seg_states = np.where((np.arange(jumps.size) % 2 == 0) == start_high,
                                  d.rho2, d.rho1)
            seg_lens = np.diff(np.concatenate(([0.0], jumps)))
            cum = np.concatenate(([0.0], np.cumsum(seg_states * seg_lens)))
            last_jump = np.concatenate(([0.0], jumps))
            integral = cum[k] + state_of * (bounds - last_jump[k])
        else:
            integral = state_of * bounds
        d_int = np.diff(integral)

        row = lo + j
        x[row, 0] = config.x0
        mu[row, :] = state_of
        x[row, 1:] = config.x0 + np.cumsum(d_int - 0.5 * sig**2 * dt + sig * sq * zs)

    expma(x[sl], params.lam, dt, out=y[sl])


def simulate_paths(params: ModelParams, config: SimConfig,
                   path_offset: int = 0, workers: int | None = None) -> PathBundle:
    """Generate a seeded ensemble; deterministic for fixed (seed, offsets).

    `path_offset` shifts the substream indices so large runs can be built
    in chunks that agree bitwise with a single monolithic call. `workers`
    (default: EXPMA_THREADS or 1) parallelizes over disjoint path blocks.
    """
    validate(params)
    validate_sim(config)
    n_steps = config.n_steps
    n = config.n_paths
    if n * (n_steps + 1) > MAX_ELEMENTS:
        raise ResourceLimitError(
            f"n_paths*(n_steps+1) = {n * (n_steps + 1)} exceeds {MAX_ELEMENTS}; "
            "simulate in path chunks (path_offset) instead")

    if workers is None:
        raw = os.environ.get("EXPMA_THREADS", "1") or "1"
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(f"EXPMA_THREADS must be an integer, got {raw!r}") from exc
    workers = max(1, workers)

    x = np.empty((n, n_steps + 1), dtype=float)
    y = np.empty_like(x)
    mu = np.empty_like(x)
    fill = _fill_ou if params.is_ou else _fill_ctmc

    block = max(256, -(-n // (4 * workers)))
    slices = [slice(i, min(i + block, n)) for i in range(0, n, block)]
    if workers == 1 or len(slices) == 1:
        for sl in slices:
            fill(params, config, path_offset, sl, x, y, mu)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda sl: fill(params, config, path_offset, sl, x, y, mu),
                          slices))

    return PathBundle(x=x, y=y, z=x - y, mu=mu, dt=config.dt, seed=config.seed,
                      model="ou" if params.is_ou else "ctmc2", params=params,
                      x0=config.x0, pi0=config.pi0, path_offset=path_offset)


# --- wealth accounting ----------------------------------------------------------

@dataclass(frozen=True)
class WealthLedger:
    """Per-path wealth, weights, and trades under one strategy and cost rate.

    wealth[:, i]      post-rebalance wealth at day i (wealth[:, 0] = pi0)
    pre_wealth[:, i]  pre-rebalance wealth at day i+1, i = 0..n_steps-1
    weights[:, i]     risky weight held over [i, i+1), i = 0..n_steps-1
    delta[:, i]       shares traded at day i (0 at i = 0 and the final day)
    cost[:]           cumulative transaction cost paid per path
    bankrupt[:]       paths frozen at their last positive wealth
    """

    wealth: np.ndarray
    pre_wealth: np.ndarray
    weights: np.ndarray
    delta: np.ndarray
    cost: np.ndarray
    bankrupt: np.ndarray
    dt: float
    omega: float
    pi0: float
    x0: float
    strategy_name: str

    @property
    def n_paths(self) -> int:
        return self.wealth.shape[0]

    @property
    def n_steps(self) -> int:
        return self.wealth.shape[1] - 1


def rebalance_delta(f_next, f_cur, pi_cur, x_cur, x_next, omega: float):
    """Share change moving weight f_cur -> f_next after the move x_cur -> x_next.

    Solves the self-financing pair exactly; the cost branch is picked by the
    sign of the trade itself (the numerator below), which is the unique
    sign-consistent solution. Raises LeverageCostSingularityError when the
    applicable 1 +/- omega*f_next denominator is numerically zero.
    """
    x_next = np.asarray(x_next, dtype=float)
    return _share_change(f_next, f_cur, pi_cur, np.exp(x_next - np.asarray(x_cur, dtype=float)),
                         np.exp(x_next), omega)


def _share_change(f_next, f_cur, pi_cur, ex, e_next, omega: float):
    """`rebalance_delta` given ex = e^{x_next - x_cur} and e_next = e^{x_next}."""
    f_next = np.asarray(f_next, dtype=float)
    f_cur = np.asarray(f_cur, dtype=float)
    pi_cur = np.asarray(pi_cur, dtype=float)
    pi_pre = pi_cur * (1.0 - f_cur + f_cur * ex)
    numer = f_next * pi_pre - f_cur * pi_cur * ex
    den = np.where(numer >= 0.0, 1.0 + omega * f_next, 1.0 - omega * f_next)
    if np.any(np.abs(den) < 1e-10):
        raise LeverageCostSingularityError(
            "1 +/- omega*f_next vanished; share-change equation singular")
    return numer / (den * e_next)


def run_strategy(bundle: PathBundle, strategy: Strategy, omega: float,
                 force_cost_path: bool = False) -> WealthLedger:
    """Evaluate one strategy on a shared path bundle.

    Strategies receive paths, never generate them, so every strategy in an
    experiment consumes identical randomness. Every omega takes the same
    arithmetic (at omega = 0 the cost term is exactly 0), so
    `force_cost_path` no longer selects anything; it is kept for callers.
    """
    if not (0.0 <= omega < 1.0):
        raise ValidationError([("omega", "omega_out_of_range",
                                f"omega must be in [0, 1), got {omega}")])
    if not (bundle.pi0 > 0.0):
        raise ValidationError([("pi0", "nonpositive_pi0",
                                f"initial wealth must be positive, got {bundle.pi0}")])
    n, S = bundle.n_paths, bundle.n_steps
    x = bundle.x
    pi0 = bundle.pi0

    if isinstance(strategy, BuyAndHold):
        wealth = pi0 * np.exp(x - bundle.x0)
        return WealthLedger(
            wealth=wealth, pre_wealth=wealth[:, 1:].copy(),
            weights=np.ones((n, S)), delta=np.zeros((n, S + 1)),
            cost=np.zeros(n), bankrupt=np.zeros(n, dtype=bool),
            dt=bundle.dt, omega=omega, pi0=pi0, x0=bundle.x0,
            strategy_name=strategy.name)

    # weights[:, i] is held over [i, i+1): one share (f = 1) on day 0, then
    # the target weight at (t_i, Z_i) for every rebalancing day i = 1..S-1
    weights = np.empty((n, S))
    weights[:, 0] = 1.0
    t = np.arange(1, S) * bundle.dt
    weights[:, 1:] = strategy.weights(t, bundle.z[:, 1:S])
    finite = np.isfinite(weights).all(axis=0)
    if not finite.all():
        t_bad = t[finite.argmin() - 1]
        raise ValidationError([("strategy", "nonfinite_weight",
                                f"strategy produced non-finite weights at t={t_bad}")])

    wealth = np.empty((n, S + 1))
    pre_wealth = np.empty((n, S))
    delta = np.zeros((n, S + 1))
    cost = np.empty(n)
    bankrupt = np.empty(n, dtype=bool)
    # every step below is elementwise or along one path, so any row blocking
    # gives the same bits; a block small enough to stay in cache avoids
    # streaming a dozen grid-sized temporaries through memory
    rows = max(1, LEDGER_BLOCK_BYTES // (8 * (S + 1)))
    for lo in range(0, n, rows):
        b = slice(lo, lo + rows)
        _ledger_block(x[b], weights[b], omega, pi0, wealth[b], pre_wealth[b],
                      delta[b], cost[b], bankrupt[b])

    return WealthLedger(wealth=wealth, pre_wealth=pre_wealth, weights=weights,
                        delta=delta, cost=cost, bankrupt=bankrupt, dt=bundle.dt,
                        omega=omega, pi0=pi0, x0=bundle.x0, strategy_name=strategy.name)


def _ledger_block(x, weights, omega, pi0, wealth, pre_wealth, delta, cost, bankrupt):
    """Ledger of one block of paths, written into the block's ledger views;
    zeroes `weights` from each path's bankrupting day on."""
    S = weights.shape[1]
    # share change and cost per unit of wealth for the trade on day i+1
    ex = np.exp(np.diff(x, axis=1))
    e_next = np.exp(x[:, 1:S])
    d_unit = _share_change(weights[:, 1:], weights[:, :-1], 1.0, ex[:, :S - 1], e_next, omega)
    cost_unit = omega * np.abs(d_unit) * e_next

    # growth[:, i]: pre-rebalance wealth on day i+1 per unit of wealth on day i
    growth = 1.0 - weights + weights * ex

    wealth[:, 0] = pi0
    factor = wealth[:, 1:]
    factor[:] = growth
    factor[:, :S - 1] -= cost_unit
    # frozen[:, i]: the path went bankrupt on or before the move i -> i+1; its
    # wealth stays at the last positive value and it trades no more
    frozen = np.logical_or.accumulate(factor <= 0.0, axis=1)
    factor[frozen] = 1.0
    np.cumprod(wealth, axis=1, out=wealth)

    # no trade from the bankrupting day on
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


def self_financing_residuals(ledger: WealthLedger, bundle: PathBundle):
    """Max relative residuals of the two rebalancing identities.

    Returns (holding residual, wealth-update residual), each the maximum
    over non-bankrupt paths and days 1..n_steps-1, relative to wealth.
    """
    ok = ~ledger.bankrupt
    if not ok.any():
        return 0.0, 0.0
    x = bundle.x[ok]
    w = ledger.wealth[ok]
    pre = ledger.pre_wealth[ok]
    f = ledger.weights[ok]
    dl = ledger.delta[ok]
    S = ledger.n_steps

    i = np.arange(0, S - 1)  # transition i -> i+1 with a rebalance at i+1
    shares_before = f[:, i] * w[:, i] / np.exp(x[:, i])
    lhs = f[:, i + 1] * w[:, i + 1]
    rhs = (shares_before + dl[:, i + 1]) * np.exp(x[:, i + 1])
    r_holding = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(w[:, i + 1]), 1e-300))

    update = pre[:, i] - ledger.omega * np.abs(dl[:, i + 1]) * np.exp(x[:, i + 1])
    r_wealth = np.max(np.abs(w[:, i + 1] - update) / np.maximum(np.abs(w[:, i + 1]), 1e-300))
    r_terminal = np.max(np.abs(w[:, S] - pre[:, S - 1])
                        / np.maximum(np.abs(w[:, S]), 1e-300))
    return float(r_holding), float(max(r_wealth, r_terminal))
