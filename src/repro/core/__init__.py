"""The paper's contribution: the foreground/background performability model.

* :mod:`~repro.core.states` -- enumeration of the Markov chain of the
  paper's Figure 3 (boundary levels ``0..X`` plus the repeating level).
* :mod:`~repro.core.blocks` -- QBD generator blocks, including the MMPP/MAP
  lifting of Figure 4 (matrices F, B, W, L of the paper's Eq. 6).
* :mod:`~repro.core.model` -- :class:`FgBgModel`, the user-facing model.
* :mod:`~repro.core.metrics` -- the paper's performance metrics.
* :mod:`~repro.core.result` -- :class:`FgBgSolution`, the solved metrics.
* :mod:`~repro.core.multiclass` -- extension: several background classes.
"""

from repro.core.batched import solve_models_batched
from repro.core.metrics import METRICS, Metric, resolve_metric
from repro.core.model import BgServiceMode, FgBgModel
from repro.core.result import FgBgSolution
from repro.core.states import StateKind, StateSpace

#: Extensions re-exported on first access (PEP 562), so the figure path
#: does not import them: public name -> defining module.
_LAZY = {
    "BatchFgBgModel": "repro.core.batch",
    "BatchFgBgSolution": "repro.core.batch",
    "bg_queue_length_pmf": "repro.core.distributions",
    "fg_queue_length_pmf": "repro.core.distributions",
    "fg_queue_length_quantile": "repro.core.distributions",
    "IdlePeriodAnalysis": "repro.core.idle_period",
    "analyze_idle_periods": "repro.core.idle_period",
    "MulticlassFgBgModel": "repro.core.multiclass",
    "MulticlassSolution": "repro.core.multiclass",
    "PhServiceFgBgModel": "repro.core.ph_service",
    "PhServiceSolution": "repro.core.ph_service",
}

__all__ = [
    "BatchFgBgModel",
    "BatchFgBgSolution",
    "BgServiceMode",
    "FgBgModel",
    "FgBgSolution",
    "METRICS",
    "Metric",
    "resolve_metric",
    "IdlePeriodAnalysis",
    "analyze_idle_periods",
    "MulticlassFgBgModel",
    "MulticlassSolution",
    "PhServiceFgBgModel",
    "PhServiceSolution",
    "StateKind",
    "StateSpace",
    "bg_queue_length_pmf",
    "fg_queue_length_pmf",
    "fg_queue_length_quantile",
    "solve_models_batched",
]


def __getattr__(name: str) -> object:
    """Import a lazily re-exported extension on first access."""
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
