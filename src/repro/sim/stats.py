"""Estimators for simulation output analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeWeightedAverage", "BatchMeans", "confidence_interval"]


class TimeWeightedAverage:
    """Time-weighted average of a piecewise-constant process.

    Call :meth:`update` *before* each change of the tracked value and
    :meth:`finalize` (or read :attr:`mean`) at the end of the run.
    """

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0) -> None:
        self._value = float(initial_value)
        self._last_time = float(start_time)
        self._area = 0.0
        self._start = float(start_time)

    @property
    def value(self) -> float:
        """Current value of the process."""
        return self._value

    def update(self, now: float, new_value: float) -> None:
        """Record that the process changes to ``new_value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = float(new_value)

    def mean(self, now: float) -> float:
        """Time average over ``[start, now]``."""
        elapsed = now - self._start
        if elapsed <= 0:
            return self._value
        return (self._area + self._value * (now - self._last_time)) / elapsed

    def reset(self, now: float) -> None:
        """Restart the averaging window at ``now`` (end of warm-up)."""
        self._area = 0.0
        self._last_time = now
        self._start = now


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean +- half_width``."""

    mean: float
    half_width: float
    level: float

    @property
    def low(self) -> float:
        """Lower endpoint."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __repr__(self) -> str:
        return f"{self.mean:.6g} +- {self.half_width:.3g} ({self.level:.0%})"


def confidence_interval(
    samples: np.ndarray, level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of i.i.d. samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.shape[0] < 2:
        raise ValueError("need a 1-D array of at least 2 samples")
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    n = samples.shape[0]
    mean = float(samples.mean())
    sem = float(samples.std(ddof=1)) / math.sqrt(n)
    from scipy import stats as sp_stats  # off the simulator's run path

    t = float(sp_stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return ConfidenceInterval(mean=mean, half_width=t * sem, level=level)


class BatchMeans:
    """Batch-means estimator for a (possibly autocorrelated) output series.

    Splits the observation stream into ``batches`` contiguous batches and
    treats the batch means as approximately independent.
    """

    def __init__(self, batches: int = 20) -> None:
        if batches < 2:
            raise ValueError(f"need at least 2 batches, got {batches}")
        self._batches = batches
        self._values: list[float] = []

    def add(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return len(self._values)

    def interval(self, level: float = 0.95) -> ConfidenceInterval:
        """Confidence interval from the batch means."""
        if len(self._values) < 2 * self._batches:
            raise ValueError(
                f"need at least {2 * self._batches} observations for "
                f"{self._batches} batches, have {len(self._values)}"
            )
        usable = len(self._values) - len(self._values) % self._batches
        arr = np.asarray(self._values[:usable]).reshape(self._batches, -1)
        return confidence_interval(arr.mean(axis=1), level=level)
