"""Sweep execution engine: cached, stacked model solves.

* :mod:`~repro.engine.engine` -- :class:`SweepEngine`, the executor.
* :mod:`~repro.engine.config` -- :class:`EngineConfig`, the frozen,
  serializable configuration the executor (and the job specs of
  :mod:`repro.jobs`) run under.
* :mod:`~repro.engine.cache` -- :class:`SolveCache`, the content-addressed
  two-level (memory + optional disk) solution cache.
* :mod:`~repro.engine.stats` -- :class:`EngineStats`, aggregation of the
  per-solve :class:`~repro.qbd.rmatrix.SolveStats` for benchmarking.
* :mod:`~repro.engine.resilience` -- the ``on_error`` failure-isolation
  vocabulary: :class:`FailedSolve`, :class:`ResilienceWarning`.

See :func:`repro.experiments.sweeps.sweep` for the high-level API that
drives this engine over a parameter axis.
"""

from repro.engine.cache import SolveCache, solve_key
from repro.engine.config import EngineConfig
from repro.engine.engine import SweepEngine
from repro.engine.resilience import (
    ON_ERROR_MODES,
    FailedSolve,
    ResilienceWarning,
    SweepCancelled,
    failure_from_exception,
    validate_on_error,
)
from repro.engine.stats import EngineStats, SolveRecord
from repro.qbd.rmatrix import SolveStats

__all__ = [
    "ON_ERROR_MODES",
    "EngineConfig",
    "EngineStats",
    "FailedSolve",
    "ResilienceWarning",
    "SolveCache",
    "SolveRecord",
    "SolveStats",
    "SweepCancelled",
    "SweepEngine",
    "failure_from_exception",
    "solve_key",
    "validate_on_error",
]
