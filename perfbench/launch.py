"""Run a module as ``python -m`` does, with the speedometer on.

    python3 -u perfbench/launch.py PROBE_LOG -m repro.experiments all

The module runs as ``__main__`` with its own arguments and the working
directory first on ``sys.path``, as under ``python -m``.  The speedometer's
probes (``speed.py``) are written to ``PROBE_LOG`` as JSON at exit, also
when the module exits through ``SystemExit``.
"""

import speed

# Started before anything else, so the probes cover the whole process.
METER = speed.Speedometer().start() if __name__ == "__main__" else None

import atexit  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    log, flag, module, *argv = sys.argv[1:]
    if flag != "-m":
        raise SystemExit("usage: launch.py PROBE_LOG -m MODULE [ARGS...]")

    def dump() -> None:
        with open(log, "w") as f:
            json.dump(METER.stop(), f)

    atexit.register(dump)
    sys.argv = [module, *argv]
    sys.path[0] = os.getcwd()
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
