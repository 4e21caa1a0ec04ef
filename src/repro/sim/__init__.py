"""Discrete-event simulation substrate.

An independent implementation of the paper's system used to cross-validate
every analytic metric:

* :mod:`~repro.sim.engine` -- a minimal event-calendar simulator core.
* :mod:`~repro.sim.fgbg` -- the foreground/background queue simulator.
* :mod:`~repro.sim.stats` -- time-weighted accumulators and batch-means
  confidence intervals.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.fgbg import FgBgSimulationResult, FgBgSimulator
from repro.sim.stats import BatchMeans, TimeWeightedAverage, confidence_interval

#: Re-exported on first access (PEP 562), so importing the package for the
#: FG/BG simulator does not load the multiclass model.
_LAZY = {
    "MulticlassSimulationResult": "repro.sim.multiclass",
    "MulticlassSimulator": "repro.sim.multiclass",
}

__all__ = [
    "EventHandle",
    "Simulator",
    "FgBgSimulationResult",
    "FgBgSimulator",
    "MulticlassSimulationResult",
    "MulticlassSimulator",
    "BatchMeans",
    "TimeWeightedAverage",
    "confidence_interval",
]


def __getattr__(name: str) -> object:
    """Import a lazily re-exported simulator on first access."""
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
