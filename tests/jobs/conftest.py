"""Shared fixtures for the background-job tests.

The real figures take seconds to minutes; job-layer behavior (claiming,
progress, cancellation, requeue) only needs *a* figure that sweeps a few
cheap points through an engine.  ``tiny_figure`` registers one in the
figure registry for the duration of a test -- the worker executes it
through the exact production path (``execute_figure`` -> registry
lookup -> engine sweep).
"""

from __future__ import annotations

import pytest

from repro.core import FgBgModel
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.result import ExperimentResult
from repro.experiments.sweeps import sweep, utilization_axis
from repro.jobs import JobRepository, JobService, JobWorker
from repro.processes import PoissonProcess
from repro.workloads import SERVICE_RATE_PER_MS

#: Points the tiny figure sweeps (progress assertions count these).
TINY_POINTS = (0.2, 0.4, 0.6)


def _figtiny(engine=None):
    base = FgBgModel(
        arrival=PoissonProcess(0.01),
        service_rate=SERVICE_RATE_PER_MS,
        bg_probability=0.3,
    )
    # Two sweeps, so two stacked solves: progress is written once per
    # stacked solve, and a cancel or requeue that lands after the first
    # write is seen before the second solve starts.
    series = tuple(
        sweep(base, utilization_axis(points), "qlen_fg", engine=engine, label=label)
        for label, points in (("low", TINY_POINTS[:2]), ("high", TINY_POINTS[2:]))
    )
    return ExperimentResult(
        experiment_id="figtiny",
        title="Tiny sweep (job-layer tests)",
        x_label="foreground utilization",
        y_label="fg queue length",
        series=series,
    )


@pytest.fixture
def tiny_figure(monkeypatch):
    """Register ``figtiny`` in the figure registry; yields its id."""
    monkeypatch.setitem(ALL_FIGURES, "figtiny", _figtiny)
    return "figtiny"


@pytest.fixture
def memory_repo():
    """A private queue on SQLite ``:memory:``."""
    repo = JobRepository()
    yield repo
    repo.close()


@pytest.fixture
def service(memory_repo):
    return JobService(memory_repo)


@pytest.fixture
def worker(memory_repo):
    return JobWorker(memory_repo, worker_id="test-worker@unit")
