"""Benchmark of the expma-lab CLI on fixed workloads.

    python3 bench/run.py --workload {desk_ou,long_ctmc,analytics,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload (see workloads.py) is a list
of `expma-lab` CLI invocations; every invocation runs in a fresh child
process importing `expma_lab` from the checkout's `src/`, one at a time,
with EXPMA_THREADS and the BLAS thread counts at 1. One import-only warm-up
child runs first and is not timed: it pays the one-time `.pyc` compile and
reports the environment. Then whole passes over the workload repeat while
the next one is expected to end within `--seconds` (at least one pass).

--trace 0 reports the end-to-end metrics. `wall_s` is per invocation the
median over passes, summed over invocations; `peak_rss_mb` the largest such
median. `setup_s` is the median set-up over every child of the run, times
the number of invocations; two import-only children before each pass add
set-ups spread over the run. --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of spans.py, as medians over
traced passes, plus the tracing overhead.

Every invocation's outputs are checked (checks.py) and must be byte-identical
to those of the first pass, traced or not; a nonzero exit or a failed check
counts as failed. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its unit, `failed_share`, and the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS, write_generated

BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("EXPMA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Import-only children before each untraced pass, pooled with the
# invocations' own set-ups for a steadier `setup_s`.
SETUP_PROBES = 2
# A child still running this long after its workload began is killed and
# counted as failed, so that a run ends within 180 s.
DEADLINE_S = 170.0


class Runner:
    """Spawns the children of one benchmark run inside a work directory."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.deadline = spans.now() + DEADLINE_S  # reset by run_workload
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        TMPDIR=work, **dict.fromkeys(THREAD_VARS, "1"))

    def spawn(self, tag: str, mode: str, invocation: int, argv: list[str]) -> dict:
        """Run one child; its timings, peak RSS, exit code and result file."""
        result_path = os.path.join(self.work, f"{tag}.result.json")
        log_path = os.path.join(self.work, f"{tag}.log")
        with open(log_path, "wb") as log:
            start = spans.now()
            proc = subprocess.Popen(
                [sys.executable, CHILD, result_path, mode, str(invocation), *argv],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = spans.now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"wall": end - start, "rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            rec["errors"].append(f"exit code {proc.returncode}: {tail}")
            return rec
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        os.remove(log_path)
        rec.update(result, setup=result["import_done"] - start)
        return rec

    def probe(self, tag: str) -> dict:
        """An import-only child; the program is unusable if it fails."""
        rec = self.spawn(tag, "env", 0, [])
        if rec["errors"]:
            sys.exit(f"import-only child failed: {rec['errors'][0]}")
        return rec

    def warm_up(self) -> dict:
        """The untimed import-only child; returns the run environment."""
        rec = self.probe("warmup")
        src = os.path.join(self.root, "src") + os.sep
        if not rec["env"]["expma_lab"].startswith(src):
            sys.exit(f"expma_lab imported from {rec['env']['expma_lab']}, not {src}")
        sha = None
        if os.path.isdir(os.path.join(self.root, ".git")):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                 capture_output=True, text=True).stdout.strip() or None
        return {"git_sha": sha, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), **rec["env"],
                **{k: self.env[k] for k in THREAD_VARS}}

    def run_pass(self, workload: str, mode: str, seed: int, index: int) -> list[dict]:
        """One pass over the workload's invocations, each one checked."""
        recs = []
        for i, inv in enumerate(WORKLOADS[workload]):
            tag = f"{workload}-{mode}-{index}-{inv.label}"
            out = os.path.join(self.work, tag)
            os.makedirs(out)
            rec = self.spawn(tag, mode, i, inv.argv(self.root, self.work, seed, out))
            if not rec["errors"]:
                with open(inv.config_path(self.root, self.work), encoding="utf-8") as fh:
                    n_paths = json.load(fh)["sim"]["n_paths"]
                try:
                    rec["errors"] += checks.check_outputs(
                        out, os.path.join(REFERENCE, workload, inv.label), seed, n_paths)
                except (OSError, ValueError) as exc:
                    rec["errors"].append(f"output check raised {exc!r}")
                rec["digest"] = {name: _sha256(os.path.join(out, name))
                                 for name in sorted(os.listdir(out))}
                if rec.get("spans") and max(s["attrs"].get("residual", 0.0)
                                            for s in rec["spans"]) > spans.RESIDUAL_LIMIT:
                    rec["errors"].append("self-financing residual above "
                                         f"{spans.RESIDUAL_LIMIT}")
            shutil.rmtree(out)
            recs.append(rec)
        return recs


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sum_of_medians(passes: list[list[dict]], key: str) -> float:
    return sum(statistics.median(p[i][key] for p in passes)
               for i in range(len(passes[0])))


def run_workload(runner: Runner, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, int, int]:
    """Metrics (name -> (value, unit)), attempted and failed invocations."""
    modes = ("run", "trace") if trace else ("run",)
    passes: dict[str, list[list[dict]]] = {m: [] for m in modes}
    start = spans.now()
    runner.deadline = start + DEADLINE_S
    probes = []
    first_digest = None
    round_s = 0.0
    while not passes[modes[-1]] or spans.now() - start + round_s <= seconds:
        round_start = spans.now()
        for _ in range(0 if trace else SETUP_PROBES):
            probes.append(runner.probe(f"{workload}-setup-{len(probes)}"))
        for mode in modes:
            recs = runner.run_pass(workload, mode, seed, len(passes[mode]))
            if first_digest is None:
                first_digest = [r.get("digest") for r in recs]
            for rec, want in zip(recs, first_digest):
                if want is not None and not rec["errors"] and rec["digest"] != want:
                    rec["errors"].append("outputs are not byte-identical to the first pass")
            passes[mode].append(recs)
        round_s = spans.now() - round_start

    all_recs = [r for m in modes for p in passes[m] for r in p]
    failed = [r for r in all_recs if r["errors"]]
    for rec in failed[:3]:
        print(f"{workload} FAILED: {rec['errors'][:3]}", file=sys.stderr)
    if failed:
        return {}, len(all_recs), len(failed)

    untraced = passes["run"]
    if not trace:
        setups = [r["setup"] for r in probes + all_recs]
        metrics = {
            "wall_s": _sum_of_medians(untraced, "wall"),
            "setup_s": statistics.median(setups) * len(untraced[0]),
            "peak_rss_mb": max(statistics.median(p[i]["rss_mb"] for p in untraced)
                               for i in range(len(untraced[0]))),
        }
        units = END_TO_END_UNITS
    else:
        per_pass = [spans.layer_metrics(p) for p in passes["trace"]]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = (_sum_of_medians(passes["trace"], "wall")
                                       - _sum_of_medians(untraced, "wall"))
        units = spans.LAYER_UNITS
    return ({k: (metrics[k], u) for k, u in units.items()},
            len(all_recs), len(failed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in ("src/expma_lab/cli.py", "configs"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"no {need} here: run from the root of an expma-lab checkout",
                  file=sys.stderr)
            return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    try:
        write_generated(work)
        runner = Runner(root, work)
        print("env", json.dumps(runner.warm_up(), sort_keys=True))
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            m, a, f = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            for k, (value, unit) in m.items():
                print(f"{name:10s} {k:40s} {value:.6g} {unit}")
                metrics[prefix + k] = {"value": value, "unit": unit}
            print(f"{name:10s} {'failed_share':40s} {f / a:.6g} ({f}/{a} invocations)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
