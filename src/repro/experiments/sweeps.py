"""Parameter-sweep helpers shared by the figure reproductions.

The generic entry point is :func:`sweep`: a base model, a
:class:`SweepAxis` describing which parameter varies, and a metric (a
string key of :data:`repro.core.METRICS` or a callable).  Solves are
executed through a :class:`~repro.engine.SweepEngine`, which supplies
caching and stacked solves that pool every curve of a :func:`sweep_many`
call.

The pre-engine entry points ``load_sweep_series`` and
``idle_wait_sweep_series`` were removed when the engine landed; their
equivalent is :func:`sweep_many` over the matching axis.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import resolve_metric
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.engine.engine import SweepEngine
from repro.experiments.result import Series

__all__ = [
    "BG_PROBABILITIES",
    "SweepAxis",
    "bg_probability_axis",
    "idle_wait_axis",
    "sweep",
    "sweep_many",
    "utilization_axis",
]

#: The background loads the paper sweeps (Figures 5-8 legends).
BG_PROBABILITIES = (0.0, 0.1, 0.3, 0.6, 0.9)


@dataclass(frozen=True)
class SweepAxis:
    """One axis of a parameter sweep.

    ``transform(base_model, value)`` returns the model at each axis point;
    :attr:`values` become the x coordinates of the resulting series.
    """

    name: str
    values: tuple[float, ...]
    transform: Callable[[FgBgModel, float], FgBgModel]

    def models(self, base_model: FgBgModel) -> list[FgBgModel]:
        """The models along this axis, in :attr:`values` order."""
        return [self.transform(base_model, value) for value in self.values]

    def x(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def utilization_axis(values: Sequence[float]) -> SweepAxis:
    """Foreground utilization axis (the x of the paper's Figures 5-8,
    11-13); rescales the arrival process, preserving ACF and CV."""
    return SweepAxis(
        name="foreground utilization",
        values=tuple(float(v) for v in values),
        transform=FgBgModel.at_utilization,
    )


def idle_wait_axis(values: Sequence[float]) -> SweepAxis:
    """Idle-wait axis in multiples of the mean service time (the x of the
    paper's Figures 9-10)."""
    return SweepAxis(
        name="idle wait (multiples of mean service time)",
        values=tuple(float(v) for v in values),
        transform=FgBgModel.with_idle_wait_multiple,
    )


def bg_probability_axis(values: Sequence[float]) -> SweepAxis:
    """Background-spawn probability axis."""
    return SweepAxis(
        name="background probability p",
        values=tuple(float(v) for v in values),
        transform=FgBgModel.with_bg_probability,
    )


def _series_values(
    metric_fn: Callable[[FgBgSolution], float],
    solutions: Sequence[FgBgSolution | None],
) -> np.ndarray:
    """Metric values of a solved chain; failed (``None``) points are NaN.

    A failure never turns into a number: the point is NaN in the series
    and the structured record lives in the engine's
    :attr:`~repro.engine.EngineStats.failures`.
    """
    return np.asarray(
        [np.nan if s is None else metric_fn(s) for s in solutions],
        dtype=float,
    )


def sweep(
    base_model: FgBgModel,
    axis: SweepAxis,
    metric: str | Callable[[FgBgSolution], float],
    *,
    engine: SweepEngine | None = None,
    label: str | None = None,
) -> Series:
    """Evaluate one metric along one axis; returns one :class:`Series`.

    ``metric`` is a key of :data:`repro.core.METRICS` (e.g. ``"qlen_fg"``)
    or any callable on :class:`FgBgSolution`.  The solves run on
    ``engine`` (default: a fresh ``SweepEngine()``); its
    :class:`~repro.engine.EngineConfig` decides whether a failed point
    raises or becomes NaN in the series (see
    :mod:`repro.engine.resilience`).
    """
    metric_fn = resolve_metric(metric)
    if engine is None:
        engine = SweepEngine()
    solutions = engine.solve_batch(axis.models(base_model))
    return Series(
        label=axis.name if label is None else label,
        x=axis.x(),
        y=_series_values(metric_fn, solutions),
    )


def sweep_many(
    base_model: FgBgModel,
    axis: SweepAxis,
    metric: str | Callable[[FgBgSolution], float],
    bg_probabilities: Sequence[float],
    *,
    engine: SweepEngine | None = None,
) -> list[Series]:
    """One curve per background probability along ``axis``.

    Each probability is one chain of :meth:`SweepEngine.run_chains`, so
    every curve's points are pooled into stacked kernel calls.
    ``engine`` defaults to a fresh ``SweepEngine()``, as in :func:`sweep`.
    """
    metric_fn = resolve_metric(metric)
    if engine is None:
        engine = SweepEngine()
    chains = [
        axis.models(base_model.with_bg_probability(p)) for p in bg_probabilities
    ]
    solved = engine.run_chains(chains)
    x = axis.x()
    return [
        Series(
            label=f"p = {p:g}",
            x=x.copy(),
            y=_series_values(metric_fn, solutions),
        )
        for p, solutions in zip(bg_probabilities, solved)
    ]
