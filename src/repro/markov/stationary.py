"""Stationary distributions of finite CTMCs.

Two solvers are provided: a dense linear solve (fast, fine for
well-conditioned chains) and Grassmann-Taksar-Heyman (GTH) elimination,
which performs no subtractions and is therefore numerically robust for
chains with rates spanning many orders of magnitude -- exactly the situation
created by the slowly modulating MMPPs used in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.markov.generator import validate_generator

__all__ = [
    "stationary_distribution",
    "stationary_distribution_dense",
    "stationary_distribution_gth",
    "stationary_of_validated",
]


def stationary_distribution_dense(q: np.ndarray) -> np.ndarray:
    """Solve ``pi Q = 0, pi e = 1`` by replacing one balance equation with
    the normalization condition."""
    return _dense(validate_generator(q))


def _dense(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return _clean_probability_vector(pi)


def stationary_distribution_gth(q: np.ndarray) -> np.ndarray:
    """GTH (Grassmann-Taksar-Heyman) elimination.

    Subtraction-free state elimination followed by back-substitution;
    accurate to machine precision regardless of rate scales, at O(n^3).
    """
    return _gth(validate_generator(q))


def _gth(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    a = q.astype(float).copy()
    # Forward elimination of states n-1, n-2, ..., 1.
    for k in range(n - 1, 0, -1):
        denom = a[k, :k].sum()
        if denom <= 0.0:
            raise ValueError(
                f"chain is reducible: state {k} cannot reach eliminated block"
            )
        a[:k, k] /= denom
        # Rank-one update using only additions of non-negative terms.
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return _clean_probability_vector(pi / pi.sum())


def stationary_distribution(q: np.ndarray, method: str = "auto") -> np.ndarray:
    """Stationary distribution of the CTMC with generator ``q``.

    Parameters
    ----------
    q:
        Generator matrix.
    method:
        ``"dense"``, ``"gth"`` or ``"auto"`` (GTH for small chains or when
        the dense solve produces a poorly normalized result).
    """
    if method == "dense":
        return stationary_distribution_dense(q)
    if method == "gth":
        return stationary_distribution_gth(q)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}; use 'dense', 'gth' or 'auto'")
    return stationary_of_validated(validate_generator(q))


def stationary_of_validated(q: np.ndarray) -> np.ndarray:
    """The ``"auto"`` solve of a float generator that already passed
    :func:`validate_generator`, without checking it again.

    A MAP certified at construction solves its phase process here, so a
    sweep of scaled copies does not re-validate one generator per point.
    """
    if q.shape[0] <= 256:
        return _gth(q)
    try:
        pi = _dense(q)
    except np.linalg.LinAlgError:
        return _gth(q)
    residual = float(np.max(np.abs(pi @ q)))
    scale = max(float(np.max(np.abs(np.diag(q)))), 1.0)
    if residual > 1e-8 * scale:
        return _gth(q)
    return pi


def _clean_probability_vector(pi: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Clip tiny negative entries produced by round-off and renormalize."""
    if np.any(pi < -atol):
        raise ValueError(
            f"solver produced a significantly negative probability {pi.min()}"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise ValueError("stationary vector sums to zero")
    return pi / total
