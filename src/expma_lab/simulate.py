"""Seeded path simulation and wealth accounting with proportional costs.

Path generation follows the daily discretization

    X_{i+1} = X_i + (mu_i - sigma^2/2) dt + sigma sqrt(dt) z_i
    Y_{i+1} = Y_i + lambda (X_i - Y_i) dt
    mu_{i+1} = mu_i + kappa (mu_bar - mu_i) dt + delta sqrt(dt) zbar_i   (OU)

with the Markov drift simulated by exact exponential holding times and the
X increment integrating the piecewise-constant drift exactly across jumps
inside a step. Every path draws from its own counter-based substream keyed
(seed, path index), so ensembles are bit-identical for any chunking. The
OU and ExpMA recursions run on time-major tiles and the wealth ledger on
blocks of paths, each of their arrays about BLOCK_BYTES so that it stays
in cache; every operation is elementwise or along one path, so the block
size changes no bit of the result. A ledger block forms its growth
factors and unit share changes in its own pre_wealth and delta rows and
its other temporaries in the block arrays of a `LedgerBuffers`, so no
block allocates its own. A bundle is one grid, an X|Y row pair, each row a
path's X then its Y, and each path's terminal drift: no strategy sees the
drift, so the fills carry it only as state. Both fills draw each path into
its own X|Y row (the Markov fill its normals into the Y half, which the
ExpMA overwrites) and form X in place, so no fill allocates a draws
buffer. `simulate_paths` and `run_strategy` write into caller-owned
buffers (`out`, see `chunk_buffers`) or allocate their own, so a streamed
run allocates its buffers once for all its chunks: the X|Y pair of its
largest chunk, and the `LedgerBuffers` of one ledger row block, which its
ledgers run on one row slice of a chunk (`PathBundle.rows`) at a time;
every element is written either way, and nothing a buffer held before
reaches a result.

Wealth accounting mirrors a daily rebalancing desk: the portfolio carries
weight f_i over [i, i+1); after the price move the new target weight is
evaluated at (t_{i+1}, Z_{i+1}) and the share change Delta solves the
self-financing pair

    Pi_{i+1} = Pi_(i+1)- - omega |Delta| e^{X_{i+1}}
    f_{i+1} Pi_{i+1} = (f_i Pi_i / e^{X_i} + Delta) e^{X_{i+1}}

in closed form. The pair is homogeneous of degree one in wealth, so wealth
is the cumulative product of daily factors g(f_i, f_{i+1}, dX_i, omega),
with Z and the weights formed one ledger row block at a time. All strategies
start with one share of the risky asset and no cash (f_0 = 1); no trade
happens on the terminal day. A path is frozen at its first nonpositive
factor: wealth stays at its last positive value, it trades no more, and it
is flagged bankrupt. The freeze passes run only in a block where a path
froze.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LeverageCostSingularityError, ResourceLimitError, ValidationError
from .models import (BuyAndHold, CTMC2Drift, ModelParams, OUDrift, SimConfig,
                     Strategy)

# Bound on a run's path grid, n_paths * (n_steps + 1), checked (`check_limits`)
# before its first path chunk is drawn. A streamed run holds the X|Y pair of
# one chunk and the ledger buffers of one row block, so this bounds the
# work of a run, not the memory it holds; a single
# `simulate_paths` call without `out` allocates two grids of this size
# (~640 MB at the bound): the X|Y row pair, in whose rows the fills draw
# their noise.
MAX_ELEMENTS = 40_000_000
# Bound per Markov-drift run on (alpha + beta) * n_steps * dt * n_paths, at
# least twice the expected jump count. The jump draw takes about 0.2 us per
# jump on a 2-core VM (0.3 us with the rest of the fill), so the bound is
# about 2 s of drawing.
MAX_JUMPS = 10_000_000
# Target bytes per array of one cache block of the hot path: a ledger or
# `metrics.path_stats` row block (`block_rows`), which is also a streamed
# run's ledger slice, and an OU or ExpMA tile (`_tile_steps`), small enough
# for a ledger block's arrays to stay in cache.
BLOCK_BYTES = 256 * 1024
# Fewest paths in a run's path chunk (`path_slices`): the OU and ExpMA time
# loops pay numpy's per-call overhead once per step per chunk, so narrower
# chunks cost time.
MIN_BLOCK_PATHS = 256


@dataclass(frozen=True)
class PathBundle:
    """Ensemble of discretized (X, Y) trajectories, shape (n_paths, n_steps+1),
    each path's terminal drift mu, shape (n_paths,), and the settings it was
    drawn from. A drawn bundle's x and y are halves of one X|Y row pair."""

    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    params: ModelParams
    sim: SimConfig
    path_offset: int = 0

    @property
    def z(self) -> np.ndarray:
        """The signal Z = X - Y, a new grid on every read."""
        return self.x - self.y

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    def rows(self, lo: int, hi: int) -> "PathBundle":
        """Paths lo..hi-1 as row views: the bundle `simulate_paths` draws for
        them at `path_offset + lo`."""
        x = self.x[lo:hi]
        return PathBundle(x, self.y[lo:hi], self.mu[lo:hi], self.params,
                          replace(self.sim, n_paths=x.shape[0]), self.path_offset + lo)

    def identity_hash(self) -> str:
        h = BundleHash(self.params, self.sim, self.path_offset)
        h.update(self.x)
        return h.hexdigest()


class BundleHash:
    """The identity hash of a bundle, fed the rows of its x in order.

    Fed one path chunk at a time, from the chunk at offset 0 on, it gives the
    `identity_hash` of the whole run's bundle: sha256 reads the same bytes.
    """

    def __init__(self, params: ModelParams, sim: SimConfig, path_offset: int = 0):
        model = "ou" if params.is_ou else "ctmc2"
        self._h = hashlib.sha256(
            f"{model}|{sim.seed}|{path_offset}|{sim.dt!r}|{sim.x0!r}".encode())

    def update(self, x: np.ndarray) -> None:
        # row by row, the bytes of x.tobytes(): the x of an X|Y row pair is
        # not contiguous as a grid, but each of its rows is, and is not copied
        for row in x:
            self._h.update(np.ascontiguousarray(row))

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def block_rows(n_steps: int) -> int:
    """Paths per row block of a wealth grid with `n_steps + 1` columns."""
    return max(1, BLOCK_BYTES // (8 * (n_steps + 1)))


def _tile_steps(m: int, n_steps: int) -> int:
    """Steps per time-major tile of `m` paths over `n_steps` steps: one row
    of `m` floats per step, in about BLOCK_BYTES per tile array."""
    return max(1, min(n_steps, BLOCK_BYTES // (8 * m)))


def expma(x: np.ndarray, lam: float, dt: float, out: np.ndarray) -> np.ndarray:
    """Daily ExpMA of a 1-D or 2-D `x` along its last axis, written into
    `out`; starts at 0.

    The recursion y[i+1] = y[i] + lam*(x[i] - y[i])*dt runs on time-major
    tiles: each tile of x is copied into rows, one per step, and each step
    turns its x row into the next y row in place, with the same operations
    in the same order (+ and * commute to the bit); then the tile is written
    back. Row 0 of a tile carries the previous y.
    """
    x2, y2 = (x[None], out[None]) if x.ndim == 1 else (x, out)
    m, steps = x2.shape[0], x2.shape[1] - 1
    y2[:, 0] = 0.0
    tile = _tile_steps(m, steps)
    buf = np.zeros((tile + 1, m))
    rows = list(buf)  # the row views, formed once for every tile
    for lo in range(0, steps, tile):
        k = min(tile, steps - lo)
        buf[1:k + 1] = x2[:, lo:lo + k].T
        for prev, cur in zip(rows[:k], rows[1:k + 1]):
            np.subtract(cur, prev, out=cur)
            np.multiply(cur, lam, out=cur)
            np.multiply(cur, dt, out=cur)
            np.add(cur, prev, out=cur)
        y2[:, lo + 1:lo + k + 1] = buf[1:k + 1].T
        buf[0] = buf[k]
    return out


def _path_rngs(seed: int, first: int, count: int):
    """The generators of paths first, ..., first+count-1, in turn.

    Path p draws from a Philox keyed (seed, p), two uint64 words, counter 0. One
    Philox serves them all: setting its key, counter and buffer to those
    of a fresh generator gives exactly the fresh generator's stream.
    """
    g = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    fresh = g.bit_generator.state
    for p in range(first, first + count):
        fresh["state"]["key"][1] = p
        g.bit_generator.state = fresh
        yield g


def _fill_ou(params: ModelParams, config: SimConfig, offset: int, xy, mu) -> None:
    d: OUDrift = params.drift
    n_steps = config.n_steps
    m = xy.shape[0]
    x = xy[:, :n_steps + 1]
    # path j draws mu_0, then (z, zbar) for each step, in that order, into the
    # leading 1 + 2 n_steps entries of its own X|Y row
    draws = xy[:, :1 + 2 * n_steps]
    for row, g in zip(draws, _path_rngs(config.seed, offset, m)):
        g.standard_normal(out=row)

    dt, sig = config.dt, params.sigma
    sq = math.sqrt(dt)
    half_var = 0.5 * sig**2
    # the recursion runs on time-major tiles of the paths, so every step reads
    # and writes contiguous rows; row 0 of a tile carries the previous step
    tile = _tile_steps(m, n_steps)
    x_t = np.empty((tile + 1, m))
    mu_t = np.empty_like(x_t)
    noise = np.empty((2 * tile, m))
    xs, mus, zs = list(x_t), list(mu_t), list(noise)  # the row views, formed once
    x_t[0] = config.x0
    mu_t[0] = d.m1_0 + math.sqrt(d.v1_0) * draws[:, 0]
    x[:, 0] = x_t[0]
    # the X columns overwrite the draws behind them: the tile at step lo reads
    # draw columns [1 + 2 lo, 1 + 2 (lo + k)) before it writes X columns
    # [lo + 1, lo + k], and every later read is at a column
    # >= 1 + 2 (lo + k) > lo + k, so no draw is overwritten before it is
    # read; the draws left in Y's half are overwritten when the ExpMA writes
    # every element of Y
    for lo in range(0, n_steps, tile):
        k = min(tile, n_steps - lo)
        # each noise tile is scaled once: rows 2i and 2i+1 hold step i's
        # sig sqrt(dt) z and delta sqrt(dt) zbar
        noise[:2 * k] = draws[:, 1 + 2 * lo:1 + 2 * (lo + k)].T
        noise[0:2 * k:2] *= sig * sq
        noise[1:2 * k:2] *= d.delta * sq
        # x' = x + (mu - sig^2/2) dt + sig sqrt(dt) z and
        # mu' = mu + kappa (mu_bar - mu) dt + delta sqrt(dt) zbar, each formed
        # in its new row with the same operations in the same order (+ and *
        # commute to the bit)
        for i in range(k):
            xn, mn = xs[i + 1], mus[i + 1]
            np.subtract(mus[i], half_var, out=xn)
            np.multiply(xn, dt, out=xn)
            np.add(xs[i], xn, out=xn)
            np.add(xn, zs[2 * i], out=xn)
            np.subtract(d.mu_bar, mus[i], out=mn)
            np.multiply(mn, d.kappa, out=mn)
            np.multiply(mn, dt, out=mn)
            np.add(mus[i], mn, out=mn)
            np.add(mn, zs[2 * i + 1], out=mn)
        x[:, lo + 1:lo + k + 1] = x_t[1:k + 1].T
        x_t[0], mu_t[0] = x_t[k], mu_t[k]
    mu[:] = mu_t[0]


def _ctmc_jump_times(g: np.random.Generator, start_high: bool,
                     alpha: float, beta: float, horizon: float) -> np.ndarray:
    """Exact jump epochs of the chain on [0, horizon] from one substream.

    Holding times are drawn 32 at a time, which keeps the draws after them
    at a fixed stream position. The rates alternate from the starting state,
    and 32 sojourns bring the chain back to it. Each chunk's cumulative sum
    starts from the carried epoch, so every epoch is the same sequential sum
    as one sojourn at a time; only the chunk that passes the horizon is
    searched.
    """
    rates = np.array([beta, alpha] * 16 if start_high else [alpha, beta] * 16)
    parts = []
    t = 0.0
    while True:
        epochs = g.standard_exponential(32)
        epochs /= rates
        epochs[0] += t
        np.cumsum(epochs, out=epochs)
        t = epochs[-1]
        if t > horizon:
            parts.append(epochs[:np.searchsorted(epochs, horizon, side="right")])
            return np.concatenate(parts)
        parts.append(epochs)


def _ctmc_drift(jumps: np.ndarray, start_high: bool, rho1: float, rho2: float,
                bounds: np.ndarray, state: np.ndarray, d_int: np.ndarray,
                gather: np.ndarray) -> np.ndarray:
    """Write the drift of one path at each grid bound into `state` and its
    exact integral over each step between bounds into `d_int`, given the
    path's jump epochs; return k, the number of jumps at or before each bound.
    `gather` is a (2, bounds.size) buffer the fill reuses for every path."""
    # piecewise-constant drift: the state on segment c, [jumps[c-1], jumps[c]),
    # alternates from the starting one
    seg = np.where((np.arange(jumps.size + 1) % 2 == 0) == start_high, rho2, rho1)
    # cumulative integral of mu at jump epochs, then linear within sojourns
    last_jump = np.concatenate(([0.0], jumps))
    cum = np.concatenate(([0.0], np.cumsum(seg[:-1] * np.diff(last_jump))))
    # the jumps are searched into the sorted bounds, not each bound into the
    # jumps: segment c covers the bounds from first[c-1] up to first[c]
    first = np.searchsorted(bounds, jumps, side="left")
    k = np.repeat(np.arange(jumps.size + 1), np.diff(first, prepend=0, append=bounds.size))
    np.take(seg, k, out=state)
    integral = np.take(last_jump, k, out=gather[0])
    np.subtract(bounds, integral, out=integral)
    integral *= state
    np.add(np.take(cum, k, out=gather[1]), integral, out=integral)
    np.subtract(integral[1:], integral[:-1], out=d_int)
    return k


def _fill_ctmc(params: ModelParams, config: SimConfig, offset: int, xy, mu) -> None:
    d: CTMC2Drift = params.drift
    n_steps = config.n_steps
    dt, sig = config.dt, params.sigma
    horizon = n_steps * dt
    p_high = d.alpha / (d.alpha + d.beta)
    bounds = np.arange(n_steps + 1) * dt
    state = np.empty(n_steps + 1)
    gather = np.empty((2, n_steps + 1))
    # a path's drift integral per step goes in its X steps, its step normals
    # in the last n_steps entries of its Y half, which the ExpMA overwrites
    steps = xy[:, 1:n_steps + 1]
    zs = xy[:, n_steps + 2:]

    for j, g in enumerate(_path_rngs(config.seed, offset, xy.shape[0])):
        start_high = g.random() < p_high
        jumps = _ctmc_jump_times(g, start_high, d.alpha, d.beta, horizon)
        g.standard_normal(out=zs[j])
        _ctmc_drift(jumps, start_high, d.rho1, d.rho2, bounds, state, steps[j], gather)
        mu[j] = state[-1]

    # X_{i+1} = x0 + sum of (drift increment - sig^2 dt / 2 + sig sqrt(dt) z)
    steps -= 0.5 * sig**2 * dt
    zs *= sig * math.sqrt(dt)
    steps += zs
    np.cumsum(steps, axis=1, out=steps)
    steps += config.x0
    xy[:, 0] = config.x0


def check_limits(params: ModelParams, config: SimConfig) -> None:
    """Raise ResourceLimitError if the run (params, config) passes
    MAX_ELEMENTS or MAX_JUMPS, judged on all of its `n_paths`."""
    n_steps = config.n_steps
    n = config.n_paths
    if n * (n_steps + 1) > MAX_ELEMENTS:
        raise ResourceLimitError(
            f"n_paths*(n_steps+1) = {n * (n_steps + 1)} exceeds {MAX_ELEMENTS}; "
            "lower n_paths or the horizon")
    if params.is_ctmc:
        d = params.drift
        jumps = (d.alpha + d.beta) * n_steps * config.dt * n
        if jumps > MAX_JUMPS:
            raise ResourceLimitError(
                f"(alpha+beta)*n_steps*dt*n_paths = {jumps:.3g} jumps exceeds {MAX_JUMPS}; "
                "lower the jump rates, the horizon or n_paths")


def path_slices(n: int, parts: int) -> list[slice]:
    """Rows 0..n-1 cut into at most `parts` consecutive slices whose sizes
    differ by at most one, none under MIN_BLOCK_PATHS rows (one slice when
    `n` is smaller)."""
    parts = max(1, min(parts, n // MIN_BLOCK_PATHS))
    return [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def _grids(out, rows: int, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Float grids of `rows` rows and the given widths: new ones, or the
    leading rows of the `out` buffers, which may hold more rows."""
    if out is None:
        return [np.empty((rows, w)) for w in widths]
    if len(out) != len(widths) or any(
            not isinstance(b, np.ndarray) or b.dtype != np.float64 or b.ndim != 2
            or b.shape[1] != w or b.shape[0] < rows
            for b, w in zip(out, widths)):
        raise ValueError(f"out must be {len(widths)} float64 grids of at least "
                         f"{rows} rows and widths {widths}")
    return [b[:rows] for b in out]


def chunk_buffers(rows: int, ledger_rows: int,
                  sim: SimConfig) -> tuple[np.ndarray, LedgerBuffers]:
    """The `out` buffers of a streamed run of `sim`'s steps: the X|Y grid xy
    of `simulate_paths` for chunks of up to `rows` paths, each row a path's X
    then its Y, and the `LedgerBuffers` of `run_strategy` for ledgers of up
    to `ledger_rows` paths, which a run writes one row slice of its chunk
    at a time (`PathBundle.rows`)."""
    return (np.empty((rows, 2 * (sim.n_steps + 1))),
            ledger_buffers(ledger_rows, sim.n_steps, sim.dt))


def simulate_paths(params: ModelParams, config: SimConfig,
                   path_offset: int = 0, *, out=None) -> PathBundle:
    """Generate a seeded ensemble; deterministic for fixed (seed, offsets).

    `path_offset` shifts the substream indices so large runs can be built
    in chunks that agree bitwise with a single monolithic call. The bundle
    is one grid, an X|Y row pair xy, whose left half is X and right half is
    Y, and each path's terminal drift mu. With `out`, an xy buffer
    (`chunk_buffers`), the grid is its leading rows; every element of them
    is written. The fill draws each path's noise into its xy row and forms
    X over it, then one ExpMA pass forms Y.
    """
    check_limits(params, config)

    width = config.n_steps + 1
    (xy,) = _grids(None if out is None else (out,), config.n_paths, (2 * width,))
    mu = np.empty(config.n_paths)
    x, y = xy[:, :width], xy[:, width:]
    fill = _fill_ou if params.is_ou else _fill_ctmc
    fill(params, config, path_offset, xy, mu)
    expma(x, params.lam, config.dt, out=y)
    return PathBundle(x=x, y=y, mu=mu, params=params, sim=config, path_offset=path_offset)


# --- wealth accounting ----------------------------------------------------------

@dataclass(frozen=True)
class LedgerBuffers:
    """The buffers of `run_strategy` and `metrics.path_stats` (`out`):

    grids   wealth, pre_wealth, weights and delta of ledgers of up to as many
            paths as they have rows
    work    (block, S) floats: a ledger row block's temporaries, and the daily
            returns of a `path_stats` row block; their rows set the block size
    e_next  (block, S - 1) floats: e^{X_{i+1}} of a block's trades
    mask    (block, S) bools: a block's finite weights, then its trade signs
            and its freeze mask
    t       the rebalancing days t_i = i dt, i = 1..S-1, of `dt`
    """

    grids: tuple[np.ndarray, ...]
    work: np.ndarray
    e_next: np.ndarray
    mask: np.ndarray
    t: np.ndarray
    dt: float


def ledger_buffers(rows: int, n_steps: int, dt: float) -> LedgerBuffers:
    """`LedgerBuffers` for ledgers of up to `rows` paths over `n_steps` days
    of `dt`, with row blocks of up to `block_rows(n_steps)` of them."""
    S = n_steps
    block = min(block_rows(S), rows)
    return LedgerBuffers(grids=tuple(_grids(None, rows, (S + 1, S, S, S + 1))),
                         work=np.empty((block, S)), e_next=np.empty((block, S - 1)),
                         mask=np.empty((block, S), dtype=bool),
                         t=np.arange(1, S) * dt, dt=dt)


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
    ex = np.exp(x_next - np.asarray(x_cur, dtype=float))
    e_next = np.exp(x_next)
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


def run_strategy(bundle: PathBundle, strategy: Strategy, omega: float, *,
                 out: LedgerBuffers | None = None) -> WealthLedger:
    """Evaluate one strategy on a shared path bundle.

    Strategies receive paths, never generate them, so every strategy in an
    experiment consumes identical randomness. Every omega takes the same
    arithmetic; at omega = 0 the cost term is exactly 0. The ledger is
    written into `out` (`chunk_buffers`), its grids the leading rows of
    `out.grids`, every element of them written; without `out` the call
    allocates its own (`ledger_buffers`).
    """
    if not (0.0 <= omega < 1.0):
        raise ValidationError([("omega", "omega_out_of_range",
                                f"omega must be in [0, 1), got {omega}")])
    n, S = bundle.n_paths, bundle.n_steps
    x = bundle.x
    dt, pi0 = bundle.sim.dt, bundle.sim.pi0
    if out is None:
        out = ledger_buffers(n, S, dt)
    wealth, pre_wealth, weights, delta = _grids(out.grids, n, (S + 1, S, S, S + 1))
    if out.work.shape[1] != S or out.dt != dt:
        raise ValueError(f"out must be LedgerBuffers of {S} days of dt {dt}")
    cost = np.empty(n)
    bankrupt = np.empty(n, dtype=bool)
    ledger = WealthLedger(wealth=wealth, pre_wealth=pre_wealth, weights=weights,
                          delta=delta, cost=cost, bankrupt=bankrupt, dt=dt,
                          omega=omega, pi0=pi0)

    if isinstance(strategy, BuyAndHold):
        np.subtract(x, bundle.sim.x0, out=wealth)
        np.exp(wealth, out=wealth)
        wealth *= pi0
        np.copyto(pre_wealth, wealth[:, 1:])
        weights.fill(1.0)
        delta.fill(0.0)
        cost.fill(0.0)
        bankrupt.fill(False)
        return ledger

    # weights[:, i] is held over [i, i+1): one share (f = 1) on day 0, then
    # the target weight at (t_i, Z_i) for every rebalancing day i = 1..S-1
    weights[:, 0] = 1.0
    t = out.t
    delta[:, 0] = delta[:, S] = 0.0  # no trade on day 0 or the final day
    # every step below is elementwise or along one path, and every weight rule
    # is pointwise per path for a given t, so any row blocking gives the same
    # bits; a block small enough to stay in cache avoids streaming a dozen
    # grid-sized temporaries through memory
    rows = out.work.shape[0]
    for lo in range(0, n, rows):
        b = slice(lo, lo + rows)
        # Z is formed in the block's weights, which the strategy's then overwrite
        z = np.subtract(x[b, 1:S], bundle.y[b, 1:S], out=weights[b, 1:])
        weights[b, 1:] = strategy.weights(t, z)
        finite = np.isfinite(weights[b], out=out.mask[:z.shape[0]]).all(axis=0)
        if not finite.all():
            t_bad = t[finite.argmin() - 1]
            raise ValidationError([("strategy", "nonfinite_weight",
                                    f"strategy produced non-finite weights at t={t_bad}")])
        _ledger_block(x[b], weights[b], omega, pi0, wealth[b], pre_wealth[b],
                      delta[b], cost[b], bankrupt[b], out)
    return ledger


def _ledger_block(x, weights, omega, pi0, wealth, pre_wealth, delta, cost, bankrupt, out):
    """Ledger of one block of paths, written into the block's ledger views;
    zeroes `weights` from each path's bankrupting day on. The block's growth
    factors are formed in `pre_wealth` and its share changes per unit of
    wealth in `delta`, and its other temporaries in the leading rows of
    `out`'s block arrays (`LedgerBuffers`)."""
    S = weights.shape[1]
    # growth[:, i]: pre-rebalance wealth on day i+1 per unit of wealth on day i;
    # share change and cost per unit of wealth for the trade on day i+1
    d_unit, growth, e_next = _unit_share_change(x, weights, omega, pre_wealth,
                                                delta[:, 1:S], out)
    # the share change no longer needs the work rows
    cost_unit = np.abs(d_unit, out=out.work[:x.shape[0], :S - 1])
    np.multiply(omega, cost_unit, out=cost_unit)
    cost_unit *= e_next

    wealth[:, 0] = pi0
    factor = wealth[:, 1:]
    factor[:] = growth
    factor[:, :S - 1] -= cost_unit
    # frozen[:, i]: the path went bankrupt on or before the move i -> i+1; its
    # wealth stays at the last positive value and it trades no more. Only a
    # block with a nonpositive factor has a path to freeze.
    frozen = np.less_equal(factor, 0.0, out=out.mask[:x.shape[0]])
    froze = frozen.any()
    if froze:
        np.logical_or.accumulate(frozen, axis=1, out=frozen)
        np.copyto(factor, 1.0, where=frozen)
    np.cumprod(wealth, axis=1, out=wealth)

    cost_unit *= wealth[:, :S - 1]
    np.multiply(wealth[:, :S - 1], d_unit, out=d_unit)
    if froze:  # no trade from the bankrupting day on
        after = frozen[:, :S - 1]
        np.copyto(cost_unit, 0.0, where=after)
        np.copyto(d_unit, 0.0, where=after)
        np.copyto(weights[:, 1:], 0.0, where=after)
        np.copyto(growth[:, 1:], 1.0, where=after)
    np.multiply(wealth[:, :S], growth, out=growth)
    np.sum(cost_unit, axis=1, out=cost)
    bankrupt[:] = frozen[:, -1]


def _unit_share_change(x, weights, omega: float, growth, d_unit, out: LedgerBuffers):
    """`rebalance_delta` of every trade of a ledger block at unit wealth, with
    the same bits, written into `d_unit`; also the block's growth factors
    1 - f + f*e^{dX}, written into `growth`, and e^{X_{i+1}} of each trade,
    in the leading rows of `out.e_next`. Returns the three. The other
    temporaries are the leading rows of `out.work` and `out.mask`.

    At unit wealth the pre-rebalance wealth is the growth factor itself and
    f_cur * e^{dX} is the term the growth factor already holds, so each is
    formed once. The sell branch 1 - omega*f is 1 + (-omega*f) to the bit,
    and (2*omega or 0) - omega is +-omega exactly, so the denominator is
    1 + (+-omega)*f with the sign of the trade (-0.0 buys), no branch
    taken per element. No denominator can vanish while |omega*f| < 0.5, so
    only a block past that scans for a singular one.
    """
    k, S = weights.shape
    f_next = weights[:, 1:]
    wx = np.subtract(x[:, 1:], x[:, :-1], out=out.work[:k])
    np.exp(wx, out=wx)
    wx *= weights
    np.subtract(1.0, weights, out=growth)
    growth += wx
    numer = np.multiply(f_next, growth[:, :S - 1], out=d_unit)
    numer -= wx[:, :S - 1]
    # the frozen mask is not formed yet: its head holds the trade's sign
    buys = np.greater_equal(numer, 0.0, out=out.mask[:k, :S - 1])
    den = np.multiply(buys, 2.0 * omega, out=wx[:, :S - 1])
    den -= omega
    den *= f_next
    if ((den.max(initial=0.0) >= 0.5 or den.min(initial=0.0) <= -0.5)
            and np.any(np.abs(den + 1.0) < 1e-10)):
        raise LeverageCostSingularityError(
            "1 +/- omega*f_next vanished; share-change equation singular")
    den += 1.0
    e_next = np.exp(x[:, 1:S], out=out.e_next[:k])
    den *= e_next
    numer /= den
    return numer, growth, e_next


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
