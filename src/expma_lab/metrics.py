"""Performance statistics over a wealth ledger, with Monte Carlo standard errors.

Conventions: simple returns, zero risk-free rate, daily (unannualized)
Sharpe from the pooled path-day series with sample (n-1) standard deviation.
A per-path-averaged Sharpe is carried as a secondary reading. Bankrupt
paths stay in the total-return average at their frozen value but are
excluded from the daily-return pooling. Zero return variance yields an
undefined Sharpe (None), never a number.

The daily returns are formed one row block of non-bankrupt paths at a time,
and the blocks' pooled moments are merged with the update of Chan, Golub &
LeVeque ("Algorithms for computing the sample variance", Am. Stat. 37, 1983),
so memory beyond the ledger is one block, never a grid of returns.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .simulate import WealthLedger, block_rows


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


def compute_metrics(ledger: WealthLedger) -> MetricsReport:
    """Summarize a ledger."""
    n, S = ledger.n_paths, ledger.n_steps
    if n == 0 or S == 0:
        raise ValidationError([("ledger", "empty_ledger", "ledger has no paths or steps")])

    pi0 = ledger.pi0
    total = (ledger.wealth[:, -1] - pi0) / pi0
    total_return = float(total.mean())
    se_total = float(total.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    bankrupt_count = int(ledger.bankrupt.sum())
    ok = np.flatnonzero(~ledger.bankrupt)
    n_pooled = ok.size * S
    if n_pooled == 0:
        raise ValidationError([("ledger", "all_bankrupt", "no non-bankrupt paths to pool")])

    # Blocks are cut from the non-bankrupt row list, so a bankrupt row moves no
    # block edge. A block's centred sum of squares comes from its row means and
    # stds, which the per-path Sharpe needs anyway.
    rows = min(block_rows(S), ok.size)
    daily = np.empty((rows, S))
    gathered = np.empty((rows, S + 1)) if bankrupt_count else None
    means = np.empty(ok.size)
    stds = np.zeros(ok.size)  # a one-day row has no sample std and adds no spread
    count, avg_daily, m2 = 0, 0.0, 0.0
    for lo in range(0, ok.size, rows):
        b = slice(lo, lo + rows)
        if gathered is None:
            w = ledger.wealth[b]
        else:
            w = np.take(ledger.wealth, ok[b], axis=0, out=gathered[:ok[b].size])
        r = np.divide(w[:, 1:], w[:, :-1], out=daily[:w.shape[0]])
        r -= 1.0
        means[b] = r.mean(axis=1)
        if S > 1:
            stds[b] = r.std(axis=1, ddof=1)
        mean_b = float(means[b].mean())
        m2_b = float((S - 1) * np.square(stds[b]).sum()
                     + S * np.square(means[b] - mean_b).sum())
        count_b = r.size
        d = mean_b - avg_daily
        share = count_b / (count + count_b)
        avg_daily += d * share
        m2 += m2_b + d * d * count * share
        count += count_b

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

    T = S * ledger.dt
    logs = np.log(ledger.wealth[:, -1] / pi0) / T
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
