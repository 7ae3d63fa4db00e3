import math
import warnings

import numpy as np
import pytest

import expma_lab as xl
from expma_lab import (ConstantAffine, MetricsReport, SimConfig,
                       WealthLedger, compute_metrics, growth_limit_affine,
                       run_strategy, simulate_paths)
from expma_lab.metrics import PathStats, path_stats
from expma_lab.simulate import BLOCK_BYTES, block_rows, ledger_buffers


def ledger_from_wealth(wealth, bankrupt=None, dt=1.0 / 21.0, omega=0.0, pi0=1.0):
    wealth = np.asarray(wealth, dtype=float)
    n, s1 = wealth.shape
    return WealthLedger(
        wealth=wealth, pre_wealth=wealth[:, 1:].copy(),
        weights=np.ones((n, s1 - 1)), delta=np.zeros((n, s1)),
        cost=np.zeros(n),
        bankrupt=np.zeros(n, dtype=bool) if bankrupt is None else np.asarray(bankrupt),
        dt=dt, omega=omega, pi0=pi0)


def test_constant_wealth_degenerate():
    led = ledger_from_wealth(np.ones((5, 11)))
    m = compute_metrics(led)
    assert m.total_return == 0.0
    assert m.sharpe_daily is None and m.se_sharpe is None
    assert m.avg_daily_return == 0.0
    assert m.log_growth_rate == 0.0


def test_deterministic_growth_sharpe_undefined():
    r = 0.001
    steps = 40
    wealth = np.tile((1 + r) ** np.arange(steps + 1), (3, 1))
    m = compute_metrics(ledger_from_wealth(wealth))
    assert m.avg_daily_return == pytest.approx(r, rel=1e-12)
    assert m.sharpe_daily is None


def test_permutation_invariance(benchmark_params):
    cfg = SimConfig(horizon_months=6.0, n_paths=50, seed=11)
    b = simulate_paths(benchmark_params, cfg)
    led = run_strategy(b, ConstantAffine(*growth_limit_affine(benchmark_params)), 0.0)
    m1 = compute_metrics(led)
    rng = np.random.default_rng(0)
    perm = rng.permutation(50)
    led2 = ledger_from_wealth(led.wealth[perm], bankrupt=led.bankrupt[perm])
    m2 = compute_metrics(led2)
    assert m1.total_return == pytest.approx(m2.total_return, rel=1e-14)
    assert m1.sharpe_daily == pytest.approx(m2.sharpe_daily, rel=1e-12)
    assert m1.log_growth_rate == pytest.approx(m2.log_growth_rate, rel=1e-14)


def test_bankrupt_paths_split():
    wealth = np.array([
        [1.0, 1.1, 1.21],
        [1.0, 0.5, 0.5],   # frozen path
    ])
    led = ledger_from_wealth(wealth, bankrupt=[False, True])
    m = compute_metrics(led)
    assert m.bankrupt_count == 1
    # total return includes the frozen path
    assert m.total_return == pytest.approx(((0.21) + (-0.5)) / 2, rel=1e-12)
    # daily pooling excludes it
    assert m.n_days_pooled == 2
    assert m.avg_daily_return == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("place", ["inside_block", "block_edge"])
def test_pooled_fields_ignore_bankrupt_rows_bitwise(benchmark_params, place):
    """Without bankrupt paths the wealth grid is pooled as it stands; with one,
    its non-bankrupt rows are. Both must give the same bits, with the bankrupt
    row inside a row block or between two of them."""
    cfg = SimConfig(horizon_months=24.0, n_paths=200, seed=11)
    led = run_strategy(simulate_paths(benchmark_params, cfg),
                       ConstantAffine(*growth_limit_affine(benchmark_params)), 0.0)
    assert not led.bankrupt.any()
    rows = block_rows(led.n_steps)
    assert led.n_paths > 2 * rows
    at = rows // 3 if place == "inside_block" else rows
    frozen = np.full((1, led.n_steps + 1), 0.5)
    frozen[0, 0] = 1.0
    with_bankrupt = ledger_from_wealth(np.vstack([led.wealth[:at], frozen, led.wealth[at:]]),
                                       bankrupt=[False] * at + [True] + [False] * (200 - at))
    m_all, m_split = compute_metrics(led), compute_metrics(with_bankrupt)
    assert m_split.bankrupt_count == 1 and m_all.bankrupt_count == 0
    for field in ("avg_daily_return", "sharpe_daily", "sharpe_per_path", "se_avg_daily_return",
                  "se_sharpe", "n_days_pooled"):
        assert getattr(m_all, field) == getattr(m_split, field), field


def test_daily_mean_times_steps_tracks_total(benchmark_params, desk_config):
    """Pooled daily mean x n_steps approximates the total return at the
    benchmark scale: 10% relative for buy-and-hold; the levered growth
    weight carries extra compounding convexity, so 20% there."""
    b = simulate_paths(benchmark_params, desk_config)
    m_bh = compute_metrics(run_strategy(b, xl.BuyAndHold(), 0.0))
    assert m_bh.avg_daily_return * m_bh.n_steps == pytest.approx(m_bh.total_return, rel=0.10)
    led = run_strategy(b, ConstantAffine(*growth_limit_affine(benchmark_params)), 0.0)
    m = compute_metrics(led)
    assert m.avg_daily_return * m.n_steps == pytest.approx(m.total_return, rel=0.20)


def test_round_trip_dict():
    led = ledger_from_wealth(np.array([[1.0, 1.01, 1.02, 0.99]]))
    m = compute_metrics(led)
    again = MetricsReport(**m.to_dict())
    assert again == m


def _fsum_moments(wealth, bankrupt):
    """Two-pass mean and sample std of the pooled daily returns, summed exactly."""
    w = wealth[~bankrupt]
    r = (w[:, 1:] / w[:, :-1] - 1.0).ravel().tolist()
    mean = math.fsum(r) / len(r)
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in r) / (len(r) - 1))


@pytest.mark.parametrize("n, steps, every", [
    (150, 504, 0),     # 64-row blocks, the last one short
    (3, 40_000, 0),    # a row wider than one block: one row per block
    (1, 504, 0),
    (300, 504, 37),    # bankrupt rows scattered across blocks
])
def test_pooled_moments_match_exact_sums(n, steps, every):
    rng = np.random.default_rng(n + steps)
    wealth = np.cumprod(1.0 + rng.normal(5e-4, 0.01, (n, steps + 1)), axis=1)
    bankrupt = np.zeros(n, dtype=bool)
    if every:
        bankrupt[::every] = True
    if steps == 40_000:
        assert 8 * (steps + 1) > BLOCK_BYTES and block_rows(steps) == 1
    m = compute_metrics(ledger_from_wealth(wealth, bankrupt=bankrupt))
    mean, sd = _fsum_moments(wealth, bankrupt)
    assert m.n_days_pooled == (n - bankrupt.sum()) * steps
    assert m.avg_daily_return == pytest.approx(mean, rel=1e-12)
    assert m.avg_daily_return / m.sharpe_daily == pytest.approx(sd, rel=1e-12)
    assert m.se_avg_daily_return == pytest.approx(sd / math.sqrt(m.n_days_pooled), rel=1e-12)


def test_one_step_ledgers_are_quiet(benchmark_params):
    """A one-day row has no sample std: the per-path Sharpe is undefined, and
    one pooled day leaves the pooled Sharpe undefined too, without a warning."""
    cfg = SimConfig(horizon_months=1.0 / 21.0, n_paths=5, seed=2)
    led = run_strategy(simulate_paths(benchmark_params, cfg),
                       ConstantAffine(*growth_limit_affine(benchmark_params)), 0.0)
    assert led.n_steps == 1
    one_day = ledger_from_wealth([[1.0, 1.02], [1.0, 0.5], [1.0, 0.97]],
                                 bankrupt=[False, True, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = compute_metrics(led)
        m_one = compute_metrics(one_day)
    assert m.sharpe_per_path is None
    assert m.n_days_pooled == 5 and m.sharpe_daily is not None
    assert m_one.n_days_pooled == 1 and m_one.avg_daily_return == pytest.approx(0.02)
    assert m_one.sharpe_daily is None and m_one.se_sharpe is None
    assert m_one.sharpe_per_path is None and m_one.se_avg_daily_return == 0.0


def _with_bankrupt_rows(n, steps, rows, seed=3):
    """A random wealth grid whose `rows` froze at 0.5 after day 0."""
    rng = np.random.default_rng(seed)
    wealth = np.cumprod(1.0 + rng.normal(5e-4, 0.01, (n, steps + 1)), axis=1)
    bankrupt = np.zeros(n, dtype=bool)
    bankrupt[rows] = True
    wealth[rows, 1:] = 0.5
    return wealth, bankrupt


@pytest.mark.parametrize("n, steps, bankrupt_rows, edges", [
    # bankrupt rows on both sides of slice edges, among them the 64-path
    # blocks of `path_stats`, and a slice that is one bankrupt row
    (200, 504, [0, 63, 64, 99, 100, 127, 128, 199], [1, 64, 100, 128, 129, 150]),
    (7, 1, [2, 3], [2, 3, 5]),  # one-step ledger
    (300, 126, list(range(0, 300, 37)), "random"),
])
def test_metrics_of_concatenated_row_slices_are_bitwise(n, steps, bankrupt_rows, edges):
    """The reduction of the per-path statistics of any row slices,
    concatenated in row order, is the metrics of the whole ledger, bit for bit."""
    wealth, bankrupt = _with_bankrupt_rows(n, steps, bankrupt_rows)
    if edges == "random":
        edges = sorted(np.random.default_rng(n).choice(np.arange(1, n), 9, replace=False))
    whole = compute_metrics(ledger_from_wealth(wealth, bankrupt=bankrupt))
    bounds = [0, *edges, n]
    parts = [path_stats(ledger_from_wealth(wealth[a:b], bankrupt=bankrupt[a:b]))
             for a, b in zip(bounds, bounds[1:])]
    split = compute_metrics(PathStats.concat(parts))
    assert whole.bankrupt_count == len(bankrupt_rows)
    assert repr(split) == repr(whole)
    assert compute_metrics(path_stats(ledger_from_wealth(wealth, bankrupt=bankrupt))) == whole


@pytest.mark.parametrize("n, steps, bankrupt_rows", [
    (6, 1, [1, 4]),         # one-day rows: no sample std
    (9, 2, [0, 8]),
    (150, 504, [0, 63, 64, 149]),  # 64-row blocks, the last one short
    (1, 504, []),           # a one-row ledger
    (1, 25_200, []),
    (3, 25_200, [1]),       # rows wider than a block: one row per block
])
@pytest.mark.parametrize("buffers", ["own", "run"])
def test_path_stats_are_numpys_mean_and_std_bitwise(n, steps, bankrupt_rows, buffers):
    """Each non-bankrupt row's statistics are numpy's `r.mean(axis=1)` and
    `r.std(axis=1, ddof=1)` of its daily returns bit for bit, with the
    daily-return blocks allocated by the call or formed in a run's
    buffers, taller than the ledger and holding stale values; a one-day
    row's std is 0."""
    wealth, bankrupt = _with_bankrupt_rows(n, steps, bankrupt_rows)
    out = None
    if buffers == "run":
        out = ledger_buffers(n + 5, steps, 1.0 / 21.0)
        out.work.fill(np.nan)
    stats = path_stats(ledger_from_wealth(wealth, bankrupt=bankrupt), out=out)
    r = wealth[:, 1:] / wealth[:, :-1] - 1.0
    ok = ~bankrupt
    assert stats.means.tobytes() == r.mean(axis=1)[ok].tobytes()
    if steps == 1:
        assert not stats.stds.any()
    else:
        assert stats.stds.tobytes() == r.std(axis=1, ddof=1)[ok].tobytes()
    assert stats.terminal.tobytes() == wealth[:, -1].tobytes()
    assert stats.bankrupt.tobytes() == bankrupt.tobytes()


def test_all_bankrupt_slices_raise_only_when_reduced():
    wealth, bankrupt = _with_bankrupt_rows(6, 20, list(range(6)))
    parts = [path_stats(ledger_from_wealth(wealth[a:a + 3], bankrupt=bankrupt[a:a + 3]))
             for a in (0, 3)]
    assert all(p.means.size == 0 for p in parts)
    for source in (PathStats.concat(parts), ledger_from_wealth(wealth, bankrupt=bankrupt)):
        with pytest.raises(xl.ValidationError) as exc:
            compute_metrics(source)
        assert exc.value.codes == ["all_bankrupt"]
