"""Counting-process descriptors of MAPs.

Where :mod:`repro.processes.map_process` describes the *inter-arrival*
process (CV, lag-k ACF), this module describes the *counting* process
``N(t)``: its variance-time curve and the index of dispersion for counts
(IDC), the burstiness metric used throughout the storage-workload
literature the paper builds on (Gribble et al.; Riska & Riedel).

With ``Q = D0 + D1``, stationary ``pi``, rate ``lambda = pi D1 e`` and the
deviation matrix ``D`` of ``Q``:

``Var[N(t)] = lambda t + 2 t pi D1 D D1 e
              - 2 pi D1 (I - e^{Qt}) D^2 D1 e``

``IDC(t) = Var[N(t)] / (lambda t)``, with limit
``1 + 2 pi D1 D D1 e / lambda``.
"""

from __future__ import annotations

import numpy as np

from repro.markov.deviation import deviation_matrix
from repro.processes.map_process import MarkovianArrivalProcess

__all__ = [
    "counting_mean",
    "counting_variance",
    "index_of_dispersion",
    "idc_limit",
    "empirical_idc",
]


def counting_mean(process: MarkovianArrivalProcess, t: float) -> float:
    """``E[N(t)] = lambda t`` for the stationary MAP."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return process.mean_rate * t


def counting_variance(process: MarkovianArrivalProcess, t: float) -> float:
    """Exact ``Var[N(t)]`` of the stationary MAP."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0:
        return 0.0
    from scipy.linalg import expm  # off the import path: nothing hot calls it

    pi = process.phase_stationary
    d1 = process.d1
    q = process.generator
    dev = deviation_matrix(q)
    e = np.ones(process.order)
    lam = process.mean_rate
    linear = lam * t + 2.0 * t * float(pi @ d1 @ dev @ d1 @ e)
    transient = 2.0 * float(
        pi @ d1 @ (np.eye(process.order) - expm(q * t)) @ dev @ dev @ d1 @ e
    )
    return linear - transient


def index_of_dispersion(
    process: MarkovianArrivalProcess, t: np.ndarray | float
) -> np.ndarray | float:
    """IDC(t) = Var[N(t)] / E[N(t)] at one or many time points."""
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ValueError("IDC is defined for t > 0")
    out = np.array(
        [counting_variance(process, ti) / counting_mean(process, ti) for ti in ts]
    )
    return float(out[0]) if scalar else out


def idc_limit(process: MarkovianArrivalProcess) -> float:
    """Asymptotic index of dispersion ``lim_{t->inf} IDC(t)``.

    Equals 1 for a Poisson process and grows with the strength and
    persistence of the modulation.
    """
    pi = process.phase_stationary
    d1 = process.d1
    dev = deviation_matrix(process.generator)
    e = np.ones(process.order)
    return 1.0 + 2.0 * float(pi @ d1 @ dev @ d1 @ e) / process.mean_rate


def empirical_idc(arrival_times: np.ndarray, window: float) -> float:
    """IDC estimate from an arrival-time sample at one window size.

    Splits the observation period into windows of the given length and
    returns the variance-to-mean ratio of the per-window counts.
    """
    times = np.asarray(arrival_times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("need a 1-D array of at least 2 arrival times")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    horizon = times[-1]
    bins = int(horizon // window)
    if bins < 2:
        raise ValueError(
            f"window {window} leaves fewer than 2 complete windows in "
            f"horizon {horizon}"
        )
    counts, _ = np.histogram(times, bins=bins, range=(0.0, bins * window))
    mean = counts.mean()
    if mean == 0:
        raise ValueError("no arrivals fall inside the windows")
    return float(counts.var() / mean)
