"""Validation of CTMC generator matrices."""

from __future__ import annotations

import numpy as np

__all__ = [
    "validate_generator",
    "is_generator",
]

#: Default absolute tolerance for row sums and sign checks.
DEFAULT_ATOL = 1e-9


def validate_generator(q: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Check that ``q`` is a CTMC generator and return it as a float array.

    A generator has non-negative off-diagonal entries, non-positive diagonal
    entries and (numerically) zero row sums.

    Raises
    ------
    ValueError
        With a description of the first violated property.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {q.shape}")
    off = q - np.diag(np.diag(q))
    if np.any(off < -atol):
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise ValueError(f"negative off-diagonal rate q[{i},{j}] = {q[i, j]}")
    if np.any(np.diag(q) > atol):
        i = int(np.argmax(np.diag(q)))
        raise ValueError(f"positive diagonal entry q[{i},{i}] = {q[i, i]}")
    # Row-sum tolerance scales with the magnitude of the rates involved so
    # that chains with very large rates (fast modulation) still validate.
    scale = np.maximum(np.abs(np.diag(q)), 1.0)
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums) > atol * scale * q.shape[0]):
        i = int(np.argmax(np.abs(row_sums) / scale))
        raise ValueError(f"row {i} of generator sums to {row_sums[i]}, expected 0")
    return q


def is_generator(q: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Return True when ``q`` is a valid CTMC generator."""
    try:
        validate_generator(q, atol=atol)
    except ValueError:
        return False
    return True
