"""Write bench/reference/ from the program in this checkout, at the default seed.

    python3 bench/make_references.py

Run from the root of a checkout. The references are what the output checks
compare against, so regenerate them only with a change that is meant to move
the program's outputs, and record how far they moved.
"""

import os
import shutil
import sys
import tempfile

from run import REFERENCE, Runner
from workloads import DEFAULT_SEED, WORKLOADS, write_generated


def main() -> int:
    root = os.getcwd()
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    try:
        write_generated(work)
        runner = Runner(root, work)
        for workload, invocations in WORKLOADS.items():
            for i, inv in enumerate(invocations):
                out = os.path.join(REFERENCE, workload, inv.label)
                shutil.rmtree(out, ignore_errors=True)
                os.makedirs(out)
                rec = runner.spawn(f"{workload}-{inv.label}", "run", i,
                                   inv.argv(root, work, DEFAULT_SEED, out))
                if rec["errors"]:
                    print(f"{workload}/{inv.label}: {rec['errors'][0]}", file=sys.stderr)
                    return 1
                print(f"{workload}/{inv.label}: {sorted(os.listdir(out))}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
