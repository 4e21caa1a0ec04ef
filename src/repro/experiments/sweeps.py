"""Parameter-sweep helpers shared by the figure reproductions.

The generic entry point is :func:`sweep`: a base model, a
:class:`SweepAxis` describing which parameter varies, and a metric (a
string key of :data:`repro.core.METRICS` or a callable).  Solves are
executed through a :class:`~repro.engine.SweepEngine`, which supplies
caching and, with ``batched=True``, stacked solves that pool every curve
of a :func:`sweep_many` call.

The pre-engine entry points ``load_sweep_series`` and
``idle_wait_sweep_series`` were deprecated when the engine landed and
have been removed; ``python -m tools.reprolint --fix`` still rewrites
surviving call sites to the equivalent :func:`sweep_many` form (RL010).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import resolve_metric
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.engine.config import EngineConfig
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


def _build_engine(
    config: EngineConfig | None,
    *,
    batched: bool,
    on_error: str,
) -> SweepEngine:
    """Engine for a sweep call that did not supply one.

    The legacy per-call knobs win over ``config`` only when moved off
    their defaults, so ``sweep(..., config=cfg)`` runs exactly ``cfg``
    and ``sweep(..., config=cfg, batched=True)`` runs ``cfg`` batched.
    """
    overrides: dict[str, object] = {}
    if batched:
        overrides["batched"] = True
    if on_error != "raise":
        overrides["on_error"] = on_error
    return SweepEngine(config=config, **overrides)


def sweep(
    base_model: FgBgModel,
    axis: SweepAxis,
    metric: str | Callable[[FgBgSolution], float],
    *,
    engine: SweepEngine | None = None,
    config: EngineConfig | None = None,
    label: str | None = None,
    batched: bool = False,
    on_error: str = "raise",
) -> Series:
    """Evaluate one metric along one axis; returns one :class:`Series`.

    ``metric`` is a key of :data:`repro.core.METRICS` (e.g. ``"qlen_fg"``)
    or any callable on :class:`FgBgSolution`.  ``batched=True`` without an
    explicit engine solves the whole axis through the stacked kernel
    (:class:`SweepEngine` with ``batched=True``); with an engine supplied,
    the engine's own configuration wins.  ``config`` builds the engine
    from a full :class:`~repro.engine.EngineConfig` instead (the job
    layer's spec path); ``batched``/``on_error`` still override it when
    set away from their defaults.  ``on_error`` (likewise only consulted
    when no engine is supplied) isolates per-point failures: failed
    points are NaN in the series instead of sinking the sweep (see
    :mod:`repro.engine.resilience`).
    """
    metric_fn = resolve_metric(metric)
    if engine is None:
        engine = _build_engine(config, batched=batched, on_error=on_error)
    solutions = engine.run_chain(axis.models(base_model))
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
    config: EngineConfig | None = None,
    batched: bool = False,
    on_error: str = "raise",
) -> list[Series]:
    """One curve per background probability along ``axis``.

    Each probability is one chain of :meth:`SweepEngine.run_chains`;
    ``batched=True`` (without an explicit engine) pools every curve's
    points into stacked kernel calls.  ``config`` builds the engine from a full
    :class:`~repro.engine.EngineConfig` (see :func:`sweep`).  ``on_error``
    (also only consulted when no engine is supplied) isolates per-point
    failures as NaN, exactly as in :func:`sweep`.
    """
    metric_fn = resolve_metric(metric)
    if engine is None:
        engine = _build_engine(config, batched=batched, on_error=on_error)
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
