"""Output checks run on every invocation of every pass.

An invocation must write exactly the files its reference directory holds.

* Report CSVs (`performance.csv`, `cost_sweep.csv`, `*_report.csv`): every
  metric is finite, `n_paths` and `seed` are those of the run, and the
  experiment/strategy/sweep columns match the reference. At the default
  seed every value must match the reference.
* All other outputs (strategy JSON, growth table, transport grid, signal
  series) do not depend on the seed and must match the reference on every
  seed; the grid's `u` and `v` must lie in [0, 1] and be monotone in x.

"Match" allows rounding only: relative 1e-9, absolute 1e-14.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import DEFAULT_SEED

RTOL = 1e-9
ATOL = 1e-14

REPORT_HEADER = ["experiment", "strategy", "sweep_param", "sweep_value",
                 "total_return", "avg_daily_return", "sharpe", "log_growth",
                 "se_return", "se_sharpe", "n_paths", "seed"]
METRIC_COLUMNS = REPORT_HEADER[4:10]
REPORT_FILES = ("performance.csv", "cost_sweep.csv")


def _same(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(g, w, rel_tol=RTOL, abs_tol=ATOL)


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _compare_rows(got: list[list[str]], want: list[list[str]], name: str,
                  columns=None) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} lines, reference has {len(want)}"]
    errors = []
    for i, (g, w) in enumerate(zip(got, want)):
        cols = range(len(w)) if columns is None else columns
        if len(g) != len(w) or not all(_same(g[j], w[j]) for j in cols):
            errors.append(f"{name} line {i + 1}: {g} differs from reference {w}")
    return errors[:5]


def _compare_json(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ from reference"]
        return [e for k in want for e in _compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: list differs from reference"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in _compare_json(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    else:
        ok = got == want
    return [] if ok else [f"{where}: {got!r} differs from reference {want!r}"]


def _check_report(got, want, name, seed, n_paths) -> list[str]:
    if not got or got[0] != REPORT_HEADER:
        return [f"{name}: header is not {REPORT_HEADER}"]
    errors = []
    for row in got[1:]:
        if len(row) != len(REPORT_HEADER):
            errors.append(f"{name}: malformed row {row}")
            continue
        rec = dict(zip(REPORT_HEADER, row))
        for col in METRIC_COLUMNS:
            try:
                finite = math.isfinite(float(rec[col]))
            except ValueError:
                finite = False
            if not finite:
                errors.append(f"{name}: {rec['strategy']} {col} = {rec[col]!r} is not finite")
        if rec["n_paths"] != str(n_paths) or rec["seed"] != str(seed):
            errors.append(f"{name}: {rec['strategy']} has n_paths={rec['n_paths']} "
                          f"seed={rec['seed']}, run used {n_paths} and {seed}")
    columns = None if seed == DEFAULT_SEED else range(4)
    return errors + _compare_rows(got, want, name, columns)


def _check_grid(rows: list[list[str]]) -> list[str]:
    errors = []
    by_t: dict[str, list[tuple[float, float, float]]] = {}
    for t, x, u, v in rows[1:]:
        by_t.setdefault(t, []).append((float(x), float(u), float(v)))
    for t, pts in by_t.items():
        pts.sort()
        for col, name in ((1, "u"), (2, "v")):
            vals = [p[col] for p in pts]
            if not all(0.0 <= a <= 1.0 for a in vals):
                errors.append(f"uv_grid.csv: {name}(t={t}) leaves [0, 1]")
            if any(b < a for a, b in zip(vals, vals[1:])):
                errors.append(f"uv_grid.csv: {name}(t={t}) is not monotone in x")
    return errors


def check_outputs(out_dir: str, ref_dir: str, seed: int, n_paths: int) -> list[str]:
    """Every way the outputs in `out_dir` fail the checks; empty when they pass."""
    got_files, want_files = sorted(os.listdir(out_dir)), sorted(os.listdir(ref_dir))
    if got_files != want_files:
        return [f"wrote {got_files}, reference has {want_files}"]
    errors = []
    for name in want_files:
        got_path, want_path = os.path.join(out_dir, name), os.path.join(ref_dir, name)
        if name.endswith(".json"):
            with open(got_path, encoding="utf-8") as g, open(want_path, encoding="utf-8") as w:
                errors += _compare_json(json.load(g), json.load(w), name)
            continue
        got, want = _read_csv(got_path), _read_csv(want_path)
        if name in REPORT_FILES or name.endswith("_report.csv"):
            errors += _check_report(got, want, name, seed, n_paths)
            continue
        if name == "uv_grid.csv":
            errors += _check_grid(got)
        errors += _compare_rows(got, want, name)
    return errors
