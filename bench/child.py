"""One benchmark child process: time `import expma_lab.cli`, then run one CLI call.

    python3 bench/child.py RESULT.json MODE INVOCATION_ID [CLI ARGS...]

MODE is `run` (untraced), `trace` (spans recorded, see spans.py) or `env`
(import only: the warm-up pass, reporting the run environment). The result
file records the exit code, the import time and the clock reading when
the import returned, which the parent compares with the spawn time.
"""

import sys
import time


def main() -> int:
    result_path, mode, invocation, *argv = sys.argv[1:]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    import expma_lab.cli
    t1 = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json

    result = {"import_done": t1, "import_s": t1 - t0, "rc": None}
    tracer = None
    try:
        if mode == "env":
            import platform

            import numpy
            import scipy
            result["env"] = {"python": platform.python_version(),
                             "numpy": numpy.__version__, "scipy": scipy.__version__,
                             "expma_lab": expma_lab.__file__}
            result["rc"] = 0
        else:
            if mode == "trace":
                import spans
                tracer = spans.Tracer(int(invocation))
                spans.install(tracer)
            result["rc"] = expma_lab.cli.main(argv)
    finally:
        if tracer is not None:
            result["spans"] = tracer.spans
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
