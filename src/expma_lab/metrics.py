"""Performance statistics over a wealth ledger, with Monte Carlo standard errors.

Conventions: simple returns, zero risk-free rate, daily (unannualized)
Sharpe from the pooled path-day series with sample (n-1) standard deviation.
A per-path-averaged Sharpe is carried as a secondary reading. Bankrupt
paths stay in the total-return average at their frozen value but are
excluded from the daily-return pooling. Zero return variance yields an
undefined Sharpe (None), never a number.

The metrics come in two stages. `path_stats` is row-local: per path, the
terminal wealth and bankrupt flag, and the daily-return mean and sample std
of each non-bankrupt path, read from every ledger row as a view one row
block at a time, so memory beyond the ledger is one block, never a grid of
returns; the non-bankrupt rows are selected once. `compute_metrics` reduces
those statistics in one reduction over the non-bankrupt paths. Each has `S`
days, so the pooled mean is the mean of the path means, and the pooled
centred sum of squares is `(S - 1) * sum(stds**2) + S * sum((means - mean)**2)`.
The reduction reads nothing but the per-path statistics, so the statistics
of any row slices of a ledger, concatenated in row order, give the metrics
of the whole ledger bit for bit, and no block, tile or chunk size changes a
bit of the report; a run streamed over path chunks relies on it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .simulate import LedgerBuffers, WealthLedger, block_rows


@dataclass(frozen=True)
class MetricsReport:
    """Return/Sharpe/growth summary of one (strategy, cost rate) cell."""

    total_return: float
    avg_daily_return: float
    sharpe_daily: float | None
    sharpe_per_path: float | None
    log_growth_rate: float
    se_total_return: float
    se_avg_daily_return: float
    se_sharpe: float | None
    se_log_growth: float
    n_paths: int
    n_steps: int
    n_days_pooled: int
    bankrupt_count: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PathStats:
    """The row-local statistics of a ledger's paths (or of several row
    slices, concatenated in row order), which `compute_metrics` reduces."""

    terminal: np.ndarray  # final wealth of every path
    bankrupt: np.ndarray  # bankrupt flag of every path
    means: np.ndarray     # daily-return mean of each non-bankrupt path
    stds: np.ndarray      # its sample std; 0 for a one-day path
    n_steps: int
    dt: float
    pi0: float

    @property
    def n_paths(self) -> int:
        return self.terminal.size

    @classmethod
    def concat(cls, parts: list["PathStats"]) -> "PathStats":
        """The statistics of the row slices `parts`, in their order."""
        first = parts[0]
        return cls(terminal=np.concatenate([s.terminal for s in parts]),
                   bankrupt=np.concatenate([s.bankrupt for s in parts]),
                   means=np.concatenate([s.means for s in parts]),
                   stds=np.concatenate([s.stds for s in parts]),
                   n_steps=first.n_steps, dt=first.dt, pi0=first.pi0)


def path_stats(ledger: WealthLedger, *, out: LedgerBuffers | None = None) -> PathStats:
    """The row-local stage of `compute_metrics`, formed on views of every
    ledger row; the result holds no view of the ledger. Each row block's
    daily returns are formed in the leading rows of `out.work` (`out` may be
    the buffers the ledger was written into); without `out` the call
    allocates its own block.

    A row's mean and sample std are numpy's `r.mean()` and `r.std(ddof=1)`
    to the bit, formed with their operations in their order: one pairwise
    sum of the row, divided by S; the row less its mean, squared, summed
    the same way, divided by S - 1, and its square root."""
    n, S = ledger.n_paths, ledger.n_steps
    if n == 0 or S == 0:
        raise ValidationError([("ledger", "empty_ledger", "ledger has no paths or steps")])
    daily = np.empty((min(block_rows(S), n), S)) if out is None else out.work
    if daily.shape[1] != S:
        raise ValueError(f"out must be LedgerBuffers of {S} days")

    means = np.empty(n)
    stds = np.zeros(n)  # a one-day row has no sample std and adds no spread
    rows = daily.shape[0]
    for lo in range(0, n, rows):
        w = ledger.wealth[lo:lo + rows]
        k = w.shape[0]
        r = np.divide(w[:, 1:], w[:, :-1], out=daily[:k])
        r -= 1.0
        mean = np.add.reduce(r, axis=1, out=means[lo:lo + k])
        np.true_divide(mean, S, out=mean)
        if S > 1:
            np.subtract(r, mean[:, None], out=r)
            np.square(r, out=r)
            std = np.add.reduce(r, axis=1, out=stds[lo:lo + k])
            np.true_divide(std, S - 1, out=std)
            np.sqrt(std, out=std)
    ok = ~ledger.bankrupt  # every statistic is row-local, so the pooled rows are picked last
    return PathStats(terminal=ledger.wealth[:, -1].copy(), bankrupt=ledger.bankrupt.copy(),
                     means=means[ok], stds=stds[ok], n_steps=S, dt=ledger.dt, pi0=ledger.pi0)


def compute_metrics(source: WealthLedger | PathStats) -> MetricsReport:
    """Summarize a ledger, or the per-path statistics of one."""
    stats = path_stats(source) if isinstance(source, WealthLedger) else source
    n, S = stats.n_paths, stats.n_steps
    pi0 = stats.pi0
    total = (stats.terminal - pi0) / pi0
    total_return = float(total.mean())
    se_total = float(total.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    bankrupt_count = int(stats.bankrupt.sum())
    means, stds = stats.means, stats.stds
    n_pooled = means.size * S
    if n_pooled == 0:
        raise ValidationError([("ledger", "all_bankrupt", "no non-bankrupt paths to pool")])

    # every pooled path has S days: its std gives the spread within it, its
    # mean the spread between paths
    avg_daily = float(means.mean())
    m2 = float((S - 1) * np.square(stds).sum() + S * np.square(means - avg_daily).sum())
    sd_pooled = math.sqrt(m2 / (n_pooled - 1)) if n_pooled > 1 else 0.0
    se_daily = sd_pooled / math.sqrt(n_pooled) if n_pooled > 1 else 0.0

    # zero variance up to float rounding of the return arithmetic
    degenerate = sd_pooled <= abs(avg_daily) * 1e-9
    if sd_pooled > 0.0 and not degenerate:
        sharpe = avg_daily / sd_pooled
        se_sharpe = math.sqrt((1.0 + 0.5 * sharpe**2) / n_pooled)
    else:
        sharpe = None
        se_sharpe = None

    # secondary reading: Sharpe per path, then averaged; undefined for one-day rows
    sharpe_pp = None
    if S > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            per_path = np.where(stds > 0.0, means / stds, np.nan)
        per_path = per_path[np.isfinite(per_path)]
        sharpe_pp = float(per_path.mean()) if per_path.size else None

    T = S * stats.dt
    logs = np.log(stats.terminal / pi0) / T
    log_growth = float(logs.mean())
    se_log = float(logs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    return MetricsReport(
        total_return=total_return,
        avg_daily_return=avg_daily,
        sharpe_daily=sharpe,
        sharpe_per_path=sharpe_pp,
        log_growth_rate=log_growth,
        se_total_return=se_total,
        se_avg_daily_return=se_daily,
        se_sharpe=se_sharpe,
        se_log_growth=se_log,
        n_paths=n,
        n_steps=S,
        n_days_pooled=n_pooled,
        bankrupt_count=bankrupt_count,
    )
