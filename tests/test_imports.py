"""Import contract: no CLI subcommand loads scipy.

scipy takes longer to import than most CLI calls take to run. `expma_lab`
imports it only inside functions no subcommand calls (`ou.value_functions`
and the closed-form Beta c.d.f.s of `regime_filter`). Each check runs in a
fresh interpreter, because the test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Runs `cli.main` on each argv of argv[1] (a JSON list) after `import
# expma_lab.cli`, and writes the scipy modules loaded after the import and
# after each call to the file argv[2].
CHILD = """
import json, sys
import expma_lab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules(), "runs": []}
for argv in json.loads(sys.argv[1]):
    rc = expma_lab.cli.main(argv)
    report["runs"].append({"argv": argv, "rc": rc, "scipy": scipy_modules()})
with open(sys.argv[2], "w") as fh:
    json.dump(report, fh)
"""

OU = {"drift": {"type": "ou", "kappa": 0.0226, "mu_bar": 0.0034,
                "delta": 8.2404e-4, "m1_0": None, "v1_0": None},
      "sigma": 0.0436, "lambda": 2.0}
MARKOV = {"drift": {"type": "ctmc2", "rho1": -0.2, "rho2": 0.3,
                    "alpha": 1.0, "beta": 1.0},
          "sigma": 0.2, "lambda": 2.5}


def write_config(tmp_path, name, params, experiment, **extra):
    """A config of 20 paths x 1 month."""
    cfg = {"experiment": experiment, "params": params,
           "sim": {"dt": 1 / 21, "horizon_months": 1.0, "n_paths": 20,
                   "seed": 7, "omega": 0.0, "x0": 0.0, "pi0": 1.0},
           **extra}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_child(tmp_path, argvs):
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs), str(report)],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def test_cli_import_loads_no_scipy(tmp_path):
    assert run_child(tmp_path, [])["import"] == []


def test_commands_without_scipy_numerics_load_no_scipy(tmp_path):
    out = str(tmp_path / "out")
    argvs = [
        ["strategy", "--config", write_config(tmp_path, "strategy", OU, "performance")],
        ["signal", "--config", write_config(tmp_path, "signal", OU, "signal"),
         "--input", str(CONFIGS / "sample_prices.csv"), "--out", out],
        ["pde", "--config", write_config(
            tmp_path, "pde", MARKOV, "pde",
            pde={"t_max": 0.25, "nx": 64, "snapshot_times": [0.25]}), "--out", out],
        ["growth", "--config", write_config(tmp_path, "growth", OU, "growth_rates"),
         "--out", out],
        ["simulate", "--config", write_config(tmp_path, "simulate", OU, "performance"),
         "--out", out],
        ["sweep", "--config", write_config(tmp_path, "sweep", OU, "lambda_sweep",
                                           sweep_values=[2.0, 0.5]), "--out", out],
    ]
    report = run_child(tmp_path, argvs)
    assert [run["rc"] for run in report["runs"]] == [0] * len(argvs)
    for run in report["runs"]:
        assert run["scipy"] == [], run["argv"]


# The Markov drift's stationary filter and long-run growth take their
# Gauss-Jacobi nodes from numpy, so these commands once loaded scipy.special
# and now load no scipy module at all: not scipy.special, not scipy.integrate.
@pytest.mark.parametrize("command, experiment", [("growth", "growth_rates"),
                                                 ("simulate", "performance")])
def test_markov_drift_commands_load_special_only(tmp_path, command, experiment):
    cfg = write_config(tmp_path, command, MARKOV, experiment)
    report = run_child(tmp_path, [[command, "--config", cfg, "--out", str(tmp_path / "out")]])
    (run,) = report["runs"]
    assert run["rc"] == 0
    assert "scipy.special" not in run["scipy"]
    assert run["scipy"] == [], run["argv"]
