"""Cheap, vectorized runtime validators for the analytic machinery.

Every check is a plain function that raises a typed
:class:`~repro.contracts.errors.ContractViolation` naming the offending
object and the violated property, and returns ``None`` otherwise.  All
checks are gated on :func:`contracts_enabled`: setting the environment
variable ``REPRO_CONTRACTS=off`` (also ``0``/``false``/``no``) turns every
check into a no-op, for benchmarking or for embedding in callers that do
their own validation.  Contracts are **on** by default; the measured
overhead on the Figure-5 sweep is below 2% (see
``benchmarks/bench_contracts.py`` / ``BENCH_contracts.json``).

The checks are deliberately O(n^2) at worst (one pass over a matrix, one
small eigenvalue problem for ``sp(R)``) so they stay invisible next to the
matrix-geometric solves they guard.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro._types import ArrayLike, FloatArray
from repro.contracts.errors import ContractViolation

__all__ = [
    "contracts_enabled",
    "certify_spectral_radius_below_one",
    "check_finite",
    "check_generator",
    "check_nonnegative",
    "check_probability_vector",
    "check_r_matrix",
    "check_readonly",
    "check_shape",
    "check_stochastic",
    "check_substochastic",
]

#: Absolute tolerance for sign checks and row sums (scaled by the matrix's
#: own rate magnitudes, matching :func:`repro.markov.generator.validate_generator`).
DEFAULT_ATOL = 1e-8

#: Environment variable that disables every contract when set to one of
#: ``off``, ``0``, ``false``, ``no`` or ``disabled`` (case-insensitive).
ENV_SWITCH = "REPRO_CONTRACTS"

_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})

# ``os.environ.get`` goes through MutableMapping + key encoding and costs
# microseconds per call from a cold cache -- comparable to a whole check on
# a 22x22 matrix.  CPython keeps the real environment in ``os.environ._data``
# (bytes-keyed on POSIX); reading that dict directly is a plain lookup,
# stays in sync with ``os.environ[...] = ...`` / ``monkeypatch.setenv``,
# and needs no allocation in the common (unset) case.
try:
    _ENVIRON_DATA = os.environ._data
    _ENV_KEY = os.environ.encodekey(ENV_SWITCH)
except AttributeError:  # non-CPython: fall back to the public mapping
    _ENVIRON_DATA = None
    _ENV_KEY = ENV_SWITCH


def contracts_enabled() -> bool:
    """True unless ``REPRO_CONTRACTS`` disables the contract layer.

    Read from the (raw) environment on every call so tests and benchmarks
    can toggle the switch without re-importing.
    """
    if _ENVIRON_DATA is not None:
        raw = _ENVIRON_DATA.get(_ENV_KEY)
        if raw is None:
            return True
        value = os.fsdecode(raw)
    else:
        value = os.environ.get(ENV_SWITCH)
    if not value:
        return True
    return value.strip().lower() not in _OFF_VALUES


def _as_matrix(a: ArrayLike, check: str, name: str) -> FloatArray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ContractViolation(check, name, f"expected a matrix, got ndim {arr.ndim}")
    return arr


def _as_square(a: ArrayLike, check: str, name: str) -> FloatArray:
    arr = _as_matrix(a, check, name)
    if arr.shape[0] != arr.shape[1]:
        raise ContractViolation(check, name, f"expected square, got shape {arr.shape}")
    return arr


def check_finite(a: ArrayLike, name: str = "array") -> None:
    """All entries finite (no NaN, no inf)."""
    if not contracts_enabled():
        return
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr).ravel())[0])
        raise ContractViolation(
            "check_finite", name, f"non-finite entry at flat index {bad}"
        )


def check_nonnegative(
    a: ArrayLike, name: str = "array", atol: float = DEFAULT_ATOL
) -> None:
    """All entries >= -atol (rate and probability blocks must not go negative)."""
    if not contracts_enabled():
        return
    arr = np.asarray(a, dtype=float)
    if arr.size and float(arr.min()) < -atol:
        idx = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ContractViolation(
            "check_nonnegative",
            name,
            f"negative entry {arr[idx]:.6g} at {tuple(int(i) for i in idx)}",
        )


def check_shape(
    a: ArrayLike, expected: tuple[int, ...], name: str = "array"
) -> None:
    """Exact shape match (e.g. a boundary vector against its QBD block)."""
    if not contracts_enabled():
        return
    shape = np.asarray(a).shape
    if shape != expected:
        raise ContractViolation(
            "check_shape", name, f"expected shape {expected}, got {shape}"
        )


def check_readonly(a: np.ndarray, name: str = "array") -> None:
    """The array is flagged read-only (the repo stores arrays immutably)."""
    if not contracts_enabled():
        return
    if not isinstance(a, np.ndarray):
        raise ContractViolation(
            "check_readonly", name, f"expected an ndarray, got {type(a).__name__}"
        )
    if a.flags.writeable:
        raise ContractViolation(
            "check_readonly",
            name,
            "array is writeable; call .setflags(write=False) after construction",
        )


def check_generator(
    q: ArrayLike, name: str = "Q", atol: float = DEFAULT_ATOL
) -> None:
    """``q`` is a CTMC generator: square, finite, off-diagonal >= 0, rows ~ 0.

    The row-sum tolerance scales with the diagonal magnitude so fast chains
    (large rates) validate on the same relative footing as slow ones.  The
    pass path is a handful of whole-matrix reductions; locating the
    offending entry is deferred to the failure path.
    """
    if not contracts_enabled():
        return
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        _as_square(arr, "check_generator", name)
    if not arr.size:
        return
    row_sums = arr.sum(axis=1)
    # A non-finite entry makes its row sum non-finite (inf) or NaN
    # (NaN anywhere, or cancelling infinities), so one m-vector test
    # covers entrywise finiteness.
    if not np.isfinite(row_sums).all():
        raise ContractViolation("check_generator", name, "non-finite entry")
    diag = arr.diagonal()
    scale = max(float(np.abs(diag).max()), 1.0)
    off = arr.copy()
    np.fill_diagonal(off, 0.0)
    if float(off.min()) < -atol * scale:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise ContractViolation(
            "check_generator",
            name,
            f"negative off-diagonal rate {arr[i, j]:.6g} at ({i}, {j})",
        )
    if float(np.abs(row_sums).max()) > atol * scale * arr.shape[0]:
        i = int(np.argmax(np.abs(row_sums)))
        raise ContractViolation(
            "check_generator",
            name,
            f"row {i} sums to {row_sums[i]:.6g}, expected 0",
        )


def check_stochastic(
    p: ArrayLike, name: str = "P", atol: float = DEFAULT_ATOL
) -> None:
    """``p`` is a (row-)stochastic matrix: entries >= 0, rows sum to 1."""
    if not contracts_enabled():
        return
    arr = _as_matrix(p, "check_stochastic", name)
    check_nonnegative(arr, name, atol=atol)
    row_sums = arr.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > atol * max(arr.shape[1], 1)):
        i = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ContractViolation(
            "check_stochastic",
            name,
            f"row {i} sums to {row_sums[i]:.6g}, expected 1",
        )


def check_substochastic(
    p: ArrayLike, name: str = "P", atol: float = DEFAULT_ATOL
) -> None:
    """``p`` is substochastic: entries >= 0, every row sums to at most 1."""
    if not contracts_enabled():
        return
    arr = _as_matrix(p, "check_substochastic", name)
    check_nonnegative(arr, name, atol=atol)
    row_sums = arr.sum(axis=1)
    if np.any(row_sums > 1.0 + atol * max(arr.shape[1], 1)):
        i = int(np.argmax(row_sums))
        raise ContractViolation(
            "check_substochastic",
            name,
            f"row {i} sums to {row_sums[i]:.6g} > 1",
        )


def check_probability_vector(
    pi: ArrayLike, name: str = "pi", atol: float = 1e-6, total: float | None = 1.0
) -> None:
    """``pi`` is a probability vector: entries >= 0 and, when ``total`` is
    not None, summing to ``total`` within ``atol``."""
    if not contracts_enabled():
        return
    arr = np.asarray(pi, dtype=float)
    mass = float(arr.sum())
    # One scalar test covers entrywise finiteness (see check_generator).
    if not np.isfinite(mass):
        raise ContractViolation("check_probability_vector", name, "non-finite entry")
    if arr.size and float(arr.min()) < -atol:
        i = int(np.argmin(arr))
        raise ContractViolation(
            "check_probability_vector",
            name,
            f"negative probability {arr[i]:.6g} at index {i}",
        )
    if total is not None and abs(mass - total) > atol:
        raise ContractViolation(
            "check_probability_vector",
            name,
            f"mass {mass:.8g}, expected {total:g}",
        )


#: Last successful Collatz-Wielandt certificate vector, per matrix order.
#: Sweeps re-certify a slowly varying R; a vector that certified the
#: previous point usually certifies the next one for one matvec instead of
#: an LU solve.  Soundness does not depend on the cache: for any positive
#: ``x``, ``max(Rx/x)`` bounds ``sp(R)`` from above, so a stale vector can
#: only fail to certify (falling through to the solve), never falsely pass.
_CW_CERTIFICATES: dict[int, FloatArray] = {}


def certify_spectral_radius_below_one(
    r: ArrayLike, atol: float = DEFAULT_ATOL
) -> bool:
    """Tiered ``sp(r) < 1`` certificate; True iff the radius is below one.

    A boolean query, not a gated check: it runs regardless of
    ``REPRO_CONTRACTS`` (callers use it to *decide*, e.g. whether an
    R iterate is the minimal solution, not merely to validate).  Tiers, cheapest first:

    1. ``||R||_inf < 1`` -- any induced norm bounds the spectral radius;
    2. the cached Collatz-Wielandt vector of a nearby solve (one matvec);
    3. a fresh M-matrix certificate: solve ``(I-R)x = e`` and verify
       ``Rx <= theta x`` with ``x > 0``, ``theta < 1``;
    4. full eigenvalues, for genuinely borderline matrices.

    The input must be finite and square; non-negativity is assumed (tiers
    2-3 are Collatz-Wielandt bounds, sound for non-negative matrices
    only).
    """
    arr = np.asarray(r, dtype=float)
    row_sums = arr.sum(axis=1)
    if float(row_sums.max()) < 1.0 - atol:
        return True
    n = arr.shape[0]
    x = _CW_CERTIFICATES.get(n)
    if x is not None and float((arr @ x / x).max()) < 1.0 - atol:
        return True
    try:
        x = np.linalg.solve(np.eye(n) - arr, np.ones(n))
    except np.linalg.LinAlgError:
        x = None
    if x is not None and float(x.min()) > atol:
        theta = float((arr @ x / x).max())
        if theta < 1.0 - atol:
            _CW_CERTIFICATES[n] = x
            return True
    return float(np.max(np.abs(np.linalg.eigvals(arr)))) < 1.0


def check_r_matrix(
    r: ArrayLike, name: str = "R", atol: float = DEFAULT_ATOL
) -> None:
    """``r`` is a valid minimal R matrix: finite, non-negative, ``sp(R) < 1``.

    ``sp(R) >= 1`` means the geometric tail does not sum -- either the QBD
    is unstable or an iteration converged to a non-minimal solution -- and
    every downstream metric built on ``(I-R)^{-1}`` would silently be
    garbage, which is exactly what this check exists to prevent.
    """
    if not contracts_enabled():
        return
    arr = np.asarray(r, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        _as_square(arr, "check_r_matrix", name)
    if not arr.size:
        return
    row_sums = arr.sum(axis=1)
    rmax = float(row_sums.max())
    # A NaN entry (or cancelling infinities) propagates to ``rmax`` as NaN
    # and a +inf entry survives the max, so one scalar test covers
    # entrywise finiteness; a lone -inf entry falls to the sign check.
    if not math.isfinite(rmax):
        raise ContractViolation("check_r_matrix", name, "non-finite entry")
    if float(arr.min()) < -atol:
        idx = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ContractViolation(
            "check_r_matrix",
            name,
            f"negative entry {arr[idx]:.6g} at {tuple(int(i) for i in idx)}",
        )
    # ||R||_inf < 1 certifies sp(R) < 1 without an eigenvalue solve (any
    # induced norm bounds the spectral radius).  Bursty chains routinely
    # have ||R||_inf >= 1 with sp(R) < 1 -- the caudal characteristic of
    # an MMPP chain approaches 1 long before the norm does -- so for
    # those, the M-matrix certificate: solve (I-R)x = e and verify
    # Rx <= theta * x with x > 0 and theta < 1, which by Collatz-Wielandt
    # bounds sp(R) by theta.  One LU solve plus one matvec, ~3x cheaper
    # than the eigenvalue fallback, which is left for genuinely suspect
    # matrices (and works even at sp(R) = 1 - epsilon, where every norm
    # power certificate fails).
    if rmax < 1.0 - atol:
        return
    if not certify_spectral_radius_below_one(arr, atol=atol):
        sp = float(np.max(np.abs(np.linalg.eigvals(arr))))
        raise ContractViolation(
            "check_r_matrix",
            name,
            f"spectral radius {sp:.6g} >= 1: not the minimal solution "
            "(or the QBD is unstable); the geometric tail does not sum",
        )
