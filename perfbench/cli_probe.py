"""Traced stand-in for ``python -m cprojlab.cli run <cfg> --seed <n>``.

Times the interpreter start, the ``cprojlab.cli`` import and ``main``,
records spans around ``main``, and after the report prints one line
``#perfbench {json}``.  Exits with ``main``'s code.
"""

import sys
import time

T_FIRST = time.monotonic()

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def run(argv):
    t_a = time.monotonic()
    import cprojlab.cli
    t_b = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        rc = cprojlab.cli.main(["run"] + argv)
    finally:
        tracer.uninstall()
    t_c = time.monotonic()
    sys.stdout.flush()
    print("#perfbench " + json.dumps({
        "t_first": T_FIRST, "import_s": t_b - t_a, "run_s": t_c - t_b,
        "roll": tracer.rollup()}), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
