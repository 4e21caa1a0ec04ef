"""R- and G-matrix solvers for QBD processes.

``R`` is the minimal non-negative solution of ``A0 + R A1 + R^2 A2 = 0``;
``G`` the minimal non-negative solution of ``A2 + A1 G + A0 G^2 = 0``.

:func:`batched_r_matrix` solves ``N`` same-shape block triples at once by
logarithmic reduction on G (Latouche & Ramaswami 1993, quadratically
convergent), written once over a leading item axis: ``np.linalg.inv`` and
``@`` accept ``(N, m, m)`` operands, and an item leaves the active set as
soon as it converges.  :func:`r_matrix` is its one-item call.  Each
checks the block precondition once under the contracts; the stacked
kernel (:mod:`repro.qbd.batched`) skips it, since its
:class:`~repro.qbd.structure.QBDStack` was checked when built.

Items the reduction cannot finish (overflow, a singular step, no
convergence, an R with ``sp(R) >= 1``) go through one per-item
ladder: the drift diagnosis (an unstable QBD raises ``ValueError``), then
Neuts' functional iteration on R, then the U-based natural iteration on G.
Both rungs are linearly convergent and monotone, and run under a wall-time
budget.  All solvers operate on the CTMC (generator) form of the blocks and
report per-item :class:`SolveStats`.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro._types import ArrayLike, FloatArray
from repro.contracts.checks import (
    check_generator,
    check_nonnegative,
    check_r_matrix,
    contracts_enabled,
)
from repro.contracts.errors import ContractViolation
from repro.faults import fire as _fault_fire
from repro.markov.stationary import stationary_distribution

__all__ = [
    "ESCALATION_TIME_BUDGET_MS",
    "BatchedItemFailure",
    "BatchedSolveReport",
    "QBDConvergenceError",
    "SolveStats",
    "batched_r_matrix",
    "drift",
    "escalation_time_budget_ms",
    "g_matrix_logarithmic_reduction",
    "is_stable",
    "r_matrix",
    "r_matrix_from_g",
    "r_matrix_functional_iteration",
    "r_matrix_natural_iteration",
    "raise_first_failure",
    "validate_positive_recurrent",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 2_000_000

#: Doubling-step budget of the logarithmic reduction (quadratic
#: convergence: the paper's chains need ~6-8).
LOGRED_MAX_ITER = 64

#: Default wall-time budget of the linearly convergent escalation rungs
#: (functional / natural fallback of the ladder).  Override with the
#: ``REPRO_SOLVER_BUDGET_MS`` environment variable; a hopeless chain then
#: fails fast into the next rung (ultimately the truncated dense fallback
#: of ``solve_qbd(escalate=True)``) instead of burning the full
#: ``DEFAULT_MAX_ITER`` iteration budget.
ESCALATION_TIME_BUDGET_MS = 30_000.0

#: Environment variable overriding :data:`ESCALATION_TIME_BUDGET_MS`.
ENV_SOLVER_BUDGET_MS = "REPRO_SOLVER_BUDGET_MS"

#: Iterations between wall-clock budget checks inside the linearly
#: convergent loops (a per-iteration clock read would dominate the step).
_BUDGET_CHECK_EVERY = 256

#: How long one fired ``solver_stall`` fault sleeps, in milliseconds.
_STALL_SLEEP_MS = 25.0


def escalation_time_budget_ms() -> float:
    """The active escalation time budget, honouring the env override."""
    raw = os.environ.get(ENV_SOLVER_BUDGET_MS, "")
    if raw:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_SOLVER_BUDGET_MS} must be a number of milliseconds, "
                f"got {raw!r}"
            ) from exc
        if value <= 0:
            raise ValueError(
                f"{ENV_SOLVER_BUDGET_MS} must be positive, got {value}"
            )
        return value
    return ESCALATION_TIME_BUDGET_MS


class QBDConvergenceError(RuntimeError):
    """Raised when an R/G iteration fails to converge.

    The ``iterations`` attribute records how many iterations were spent
    before giving up, so callers can account for abandoned attempts; after
    the escalation ladder is exhausted, ``attempts`` lists every rung that
    was tried (the failure records of a stacked solve surface it).
    """

    def __init__(
        self,
        message: str,
        iterations: int = 0,
        attempts: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.attempts = tuple(attempts)


def _budget_tick(
    started_at: float,
    time_budget_ms: float | None,
    iteration: int,
    label: str,
) -> None:
    """Fault hook + wall-clock budget check shared by the linear loops.

    Runs every :data:`_BUDGET_CHECK_EVERY` iterations: fires the
    ``solver_stall`` injection point (a deterministic sleep, so budget
    overruns are reproducible in tests) and raises once the elapsed time
    since the ``started_at`` ``perf_counter`` mark exceeds
    ``time_budget_ms``.
    """
    if iteration % _BUDGET_CHECK_EVERY:
        return
    if _fault_fire("solver_stall"):
        time.sleep(_STALL_SLEEP_MS / 1e3)
    if time_budget_ms is not None:
        elapsed_ms = (time.perf_counter() - started_at) * 1e3
        if elapsed_ms > time_budget_ms:
            raise QBDConvergenceError(
                f"{label} exceeded its {time_budget_ms:.0f} ms time budget "
                f"after {iteration} iterations",
                iterations=iteration,
            )


@dataclass(frozen=True)
class SolveStats:
    """Diagnostics of one R-matrix solve.

    Attributes
    ----------
    algorithm:
        Name of the iteration that produced the accepted ``R``
        (``"logarithmic-reduction"``, ``"functional"`` or ``"natural"``).
    iterations:
        Total iterations spent, *including* abandoned attempts (for
        logarithmic reduction one iteration is one doubling step).
    wall_time_ms:
        Wall-clock time of the solve in milliseconds (a stacked call's
        time split evenly over its items).
    spectral_radius:
        ``sp(R)`` of the accepted solution -- the geometric tail decay.
    fallbacks:
        Names of the iterations that were tried and abandoned first.
    degraded:
        True when the solution came from the last escalation rung -- the
        truncated dense chain of :func:`repro.qbd.truncated.solve_qbd_truncated`
        -- rather than a matrix-geometric solve.  Figures use this to
        state which points degraded.
    truncation_level:
        The level the dense chain was truncated at when ``degraded``.
    """

    algorithm: str
    iterations: int
    wall_time_ms: float
    spectral_radius: float
    fallbacks: tuple[str, ...] = field(default=())
    degraded: bool = False
    truncation_level: int | None = None

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "wall_time_ms": self.wall_time_ms,
            "spectral_radius": self.spectral_radius,
            "fallbacks": list(self.fallbacks),
            "degraded": self.degraded,
            "truncation_level": self.truncation_level,
        }


@dataclass(frozen=True)
class BatchedItemFailure:
    """One item failure inside a stacked solve.

    Attributes
    ----------
    index:
        Position of the failed item in the call's input order (remapped to
        the original model order by :func:`repro.core.batched.solve_models_batched`).
    stage:
        ``"precheck"`` (unstable before any solving), ``"r-matrix"``,
        ``"boundary"`` or ``"truncated"`` (the escalation rung itself
        failed).
    error_type / message:
        Exception class name and ``str(exception)``.
    error:
        The exception a caller raises for this item: the one described
        above, except after a failed escalation, where it is the original
        error that sent the item to the truncated rung.
    contract_violation:
        True when the underlying exception was a
        :class:`~repro.contracts.ContractViolation`.
    attempts:
        Escalation rungs tried before the item was given up.
    """

    index: int
    stage: str
    error_type: str
    message: str
    error: BaseException
    contract_violation: bool = False
    attempts: tuple[str, ...] = ()

    @classmethod
    def from_exception(
        cls,
        index: int,
        stage: str,
        exc: BaseException,
        attempts: tuple[str, ...] = (),
    ) -> BatchedItemFailure:
        """The failure of item ``index`` at ``stage``, raised as ``exc``."""
        return cls(
            index=index,
            stage=stage,
            error_type=type(exc).__name__,
            message=str(exc),
            error=exc,
            contract_violation=isinstance(exc, ContractViolation),
            attempts=tuple(attempts) + tuple(getattr(exc, "attempts", ())),
        )


@dataclass(frozen=True)
class BatchedSolveReport:
    """Diagnostics of one stacked solve (one shape group).

    Attributes
    ----------
    batch_size:
        Number of stacked items.
    phase_count:
        Phase count ``m`` of every item.
    iterations:
        Masked doubling steps summed over items: converged items stop
        counting, so this is the work actually performed, not
        ``batch_size * max_iterations``.
    max_iterations:
        Doubling steps until the slowest item converged.
    wall_time_ms:
        Wall-clock time of the whole call (including fallbacks).
    fallbacks:
        Indices of the items the reduction failed, which went through
        the per-item escalation ladder.
    boundary_size:
        Boundary size ``n_b`` of every item (0 when unknown, e.g. a bare
        :func:`batched_r_matrix` call that never sees boundary blocks).
    failures:
        Every item failure, in input order; a failed item's result slot
        is empty (zero ``R``, ``None`` distribution or solution).
    """

    batch_size: int
    phase_count: int
    iterations: int
    max_iterations: int
    wall_time_ms: float
    fallbacks: tuple[int, ...] = ()
    boundary_size: int = 0
    failures: tuple[BatchedItemFailure, ...] = ()

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")
        if self.phase_count < 0:
            raise ValueError(
                f"phase_count must be >= 0, got {self.phase_count}"
            )

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "batch_size": self.batch_size,
            "phase_count": self.phase_count,
            "iterations": self.iterations,
            "max_iterations": self.max_iterations,
            "wall_time_ms": self.wall_time_ms,
            "fallbacks": list(self.fallbacks),
            "boundary_size": self.boundary_size,
            "failures": [
                {
                    "index": f.index,
                    "stage": f.stage,
                    "error_type": f.error_type,
                    "message": f.message,
                    "contract_violation": f.contract_violation,
                    "attempts": list(f.attempts),
                }
                for f in self.failures
            ],
        }


def raise_first_failure(reports: Iterable[BatchedSolveReport]) -> None:
    """Raise the error of the lowest-index failure in ``reports``, if any.

    The stacked solves never raise an item's failure themselves; their
    raising callers (the one-item calls, and the sweep engine in
    ``"raise"`` mode) apply this one policy.
    """
    failures = [f for report in reports for f in report.failures]
    if failures:
        raise min(failures, key=lambda f: f.index).error


def _closed_classes(a: np.ndarray) -> list[np.ndarray]:
    """Indices of the closed communicating classes of generator ``a``.

    A closed class is a communicating class with no transition leaving
    it; the long-run phase process lives on these classes only.  The
    reachability relation comes from repeatedly squaring the 0/1
    transition pattern (with self-loops) as a float matrix product, so
    after ``k`` squarings it covers every path of up to ``2**k`` steps.
    Two states communicate when each reaches the other; a class is closed
    when its members reach nothing but the class itself.  Classes come
    back sorted, in order of their smallest index.
    """
    n = a.shape[0]
    scale = max(float(np.max(np.abs(np.diag(a)))), 1.0)
    reach = (a > 1e-14 * scale).astype(float)
    np.fill_diagonal(reach, 1.0)
    span = 1
    while span < n - 1:
        reach = (reach @ reach > 0.0).astype(float)
        span *= 2
    reachable = reach > 0.0
    mutual = reachable & reachable.T
    closed = []
    assigned = np.zeros(n, dtype=bool)
    for i in np.flatnonzero((reachable == mutual).all(axis=1)):
        if not assigned[i]:
            assigned |= mutual[i]
            closed.append(np.flatnonzero(mutual[i]))
    return closed


def drift(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
    """Mean drift of the repeating portion: ``theta A0 e - theta A2 e``.

    ``theta`` is the stationary vector of the phase generator
    ``A = A0 + A1 + A2``.  Negative drift means the level process tends
    down, i.e. the QBD is positive recurrent (stable).

    The phase generator may be *reducible* (in the FG/BG model the
    background-serving groups are transient within a level, and with
    several background classes every full-buffer occupancy forms its own
    closed class).  The drift is then evaluated per closed communicating
    class and the worst (largest) value is returned: the QBD is stable iff
    the level process drifts down from every class the phases can settle
    into.
    """
    a0 = np.asarray(a0, float)
    a2 = np.asarray(a2, float)
    a = a0 + np.asarray(a1, float) + a2
    classes = _closed_classes(a)
    if not classes:
        raise ValueError("phase process A0+A1+A2 has no closed class")
    e = np.ones(a.shape[0])
    up = a0 @ e
    down = a2 @ e
    worst = -np.inf
    for indices in classes:
        sub = a[np.ix_(indices, indices)]
        theta = stationary_distribution(sub, method="gth" if sub.shape[0] > 1 else "dense")
        value = float(theta @ up[indices] - theta @ down[indices])
        worst = max(worst, value)
    return worst


def is_stable(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> bool:
    """True when the QBD with these repeating blocks is positive recurrent."""
    return drift(a0, a1, a2) < 0.0


def validate_positive_recurrent(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray
) -> None:
    """Raise ``ValueError`` unless the QBD is positive recurrent."""
    value = drift(a0, a1, a2)
    if not value < 0.0:
        raise ValueError(
            f"QBD is not positive recurrent (drift {value:.6g} >= 0); "
            "the stationary distribution does not exist"
        )


def _functional_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    """Functional iteration returning ``(R, iterations)``."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    inv_neg_a1 = np.linalg.inv(-a1)
    r = np.zeros_like(a0)
    started_at = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            _budget_tick(started_at, time_budget_ms, it, "functional iteration")
            r_next = (a0 + r @ r @ a2) @ inv_neg_a1
            if not np.all(np.isfinite(r_next)):
                raise QBDConvergenceError(
                    "functional iteration overflowed",
                    iterations=it,
                )
            delta = float(np.abs(r_next - r).max(axis=(-2, -1)))
            r = r_next
            if delta < tol:
                return r, it
    raise QBDConvergenceError(
        f"functional iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3g}); is the QBD stable?",
        iterations=max_iter,
    )


def r_matrix_functional_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Neuts' fixed-point iteration ``R <- -(A0 + R^2 A2) A1^{-1}``.

    Converges monotonically from ``R = 0`` to the minimal solution.
    """
    return _functional_impl(a0, a1, a2, tol, max_iter)[0]


def _natural_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    """Natural (U-based) iteration on G, returning ``(R, iterations)``."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    g = np.zeros_like(a0)
    started_at = time.perf_counter()
    for it in range(1, max_iter + 1):
        _budget_tick(started_at, time_budget_ms, it, "natural iteration")
        g_next = np.linalg.solve(-(a1 + a0 @ g), a2)
        delta = float(np.abs(g_next - g).max(axis=(-2, -1)))
        g = g_next
        if delta < tol:
            return r_matrix_from_g(a0, a1, a2, g), it
    raise QBDConvergenceError(
        f"natural iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3g}); is the QBD stable?",
        iterations=max_iter,
    )


def r_matrix_natural_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """R via the U-based natural iteration ``G <- (-(A1 + A0 G))^{-1} A2``."""
    return _natural_impl(a0, a1, a2, tol, DEFAULT_MAX_ITER)[0]


def r_matrix_from_g(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Recover ``R = A0 (-(A1 + A0 G))^{-1}`` from the G matrix."""
    a0 = np.asarray(a0, float)
    u = np.asarray(a1, float) + a0 @ np.asarray(g, float)
    return a0 @ np.linalg.inv(-u)


def _as_block_stack(a: ArrayLike, name: str) -> FloatArray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(
            f"{name} must be a stack of square blocks with shape (N, m, m), "
            f"got {arr.shape}"
        )
    return arr


def _as_block_stacks(
    a0: ArrayLike, a1: ArrayLike, a2: ArrayLike
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """The three blocks as float ``(N, m, m)`` stacks of one shape."""
    a0 = _as_block_stack(a0, "A0")
    a1 = _as_block_stack(a1, "A1")
    a2 = _as_block_stack(a2, "A2")
    if not (a0.shape == a1.shape == a2.shape):
        raise ValueError(
            f"block stacks must share one shape, got {a0.shape}, "
            f"{a1.shape}, {a2.shape}"
        )
    return a0, a1, a2


def _check_block_stack(
    a0: FloatArray, a1: FloatArray, a2: FloatArray, atol: float = 1e-8
) -> None:
    """Vectorized per-item precondition of the repeating blocks.

    The stacked equivalent of ``check_nonnegative(A0)``,
    ``check_nonnegative(A2)`` and ``check_generator(A0+A1+A2)``: one pass
    over each stack, localizing the offending item only on failure.
    """
    for name, stack in (("A0", a0), ("A2", a2)):
        mins = stack.min(axis=(1, 2)) if stack.size else np.zeros(0)
        if stack.size and float(mins.min()) < -atol:
            item = int(np.argmin(mins))
            raise ContractViolation(
                "check_nonnegative",
                f"{name}[{item}]",
                f"negative entry {mins[item]:.6g}",
            )
    s = a0 + a1 + a2
    if not s.size:
        return
    row_sums = s.sum(axis=2)
    if not np.isfinite(row_sums).all():
        item = int(np.argmax(~np.isfinite(row_sums).all(axis=1)))
        raise ContractViolation(
            "check_generator", f"A0+A1+A2[{item}]", "non-finite entry"
        )
    diag = np.diagonal(s, axis1=1, axis2=2)
    scale = np.maximum(np.abs(diag).max(axis=1), 1.0)
    off = s.copy()
    idx = np.arange(s.shape[1])
    off[:, idx, idx] = 0.0
    off_min = off.min(axis=(1, 2))
    if np.any(off_min < -atol * scale):
        item = int(np.argmax(off_min < -atol * scale))
        raise ContractViolation(
            "check_generator",
            f"A0+A1+A2[{item}]",
            f"negative off-diagonal rate {off_min[item]:.6g}",
        )
    worst = np.abs(row_sums).max(axis=1)
    if np.any(worst > atol * scale * s.shape[1]):
        item = int(np.argmax(worst / scale))
        raise ContractViolation(
            "check_generator",
            f"A0+A1+A2[{item}]",
            f"row sums reach {worst[item]:.6g}, expected 0",
        )


def _stack_inv(stack: FloatArray) -> tuple[FloatArray, np.ndarray]:
    """Batched inverse with per-item failure: ``(result, ok_mask)``.

    ``np.linalg.inv`` on a stack raises when *any* item is singular
    without saying which; on that path each item is inverted individually
    and the singular ones are reported through ``ok_mask`` (their result
    slots hold NaN) instead of failing the whole batch.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.inv(stack), np.ones(stack.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full_like(stack, np.nan)
        ok = np.zeros(stack.shape[0], dtype=bool)
        for i in range(stack.shape[0]):
            try:
                out[i] = np.linalg.inv(stack[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return out, ok


def _doublings(
    a0: FloatArray,
    a1: FloatArray,
    a2: FloatArray,
    tol: float,
    max_iter: int,
    skip: np.ndarray,
) -> tuple[FloatArray, np.ndarray, np.ndarray]:
    """The doubling loop, masked per item: ``(G, doublings, failed)``.

    With ``H = (-A1)^{-1} A0`` (up) and ``L = (-A1)^{-1} A2`` (down),
    iterate ``U = H L + L H``; ``H <- (I-U)^{-1} H^2``;
    ``L <- (I-U)^{-1} L^2``; accumulating ``G += T L`` with ``T`` the
    product of the successive ``H`` factors.

    ``G - G_k = T_k G_(k)`` with ``G_(k)`` the reduced process's ``G``,
    so ``||T_k||_inf`` bounds the truncation error; for the plain blocks
    it equals ``1 - G_k 1`` in exact arithmetic (``T_k`` is non-negative).
    An item stops when either quantity is below ``tol``: the first is what
    a shifted run can measure, the second what a plain run reaches
    without rounding trouble.  Items whose iterates go non-finite or
    singular, items still running after ``max_iter`` doublings and the
    ``skip`` items come back ``failed``.
    """
    n, m = a0.shape[0], a0.shape[1]
    iterations = np.zeros(n, dtype=int)
    eye = np.eye(m)
    ones = np.ones(m)
    inv_neg_a1, ok = _stack_inv(-a1)
    failed = skip | ~ok
    with np.errstate(over="ignore", invalid="ignore"):
        h = inv_neg_a1 @ a0
        low = inv_neg_a1 @ a2
        g = low.copy()
        t = h.copy()
        finite = np.isfinite(g).all(axis=(1, 2)) & np.isfinite(h).all(
            axis=(1, 2)
        )
        failed |= ~finite
        active = ~failed
        for _ in range(max_iter):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            hh, ll, tt = h[idx], low[idx], t[idx]
            u = hh @ ll + ll @ hh
            m_inv, ok = _stack_inv(eye - u)
            h_next = m_inv @ (hh @ hh)
            low_next = m_inv @ (ll @ ll)
            g_next = g[idx] + tt @ low_next
            t_next = tt @ h_next
            h[idx], low[idx], g[idx], t[idx] = h_next, low_next, g_next, t_next
            iterations[idx] += 1
            finite = ok & np.isfinite(g_next).all(axis=(1, 2))
            if not finite.all():
                failed[idx[~finite]] = True
                active[idx[~finite]] = False
                idx, g_next, t_next = idx[finite], g_next[finite], t_next[finite]
            residual = np.abs(ones - g_next @ ones).max(axis=1)
            bound = np.abs(t_next).sum(axis=2).max(axis=1)
            active[idx[(residual < tol) | (bound < tol)]] = False
    failed |= active
    return g, iterations, failed


def _logarithmic_reduction(
    a0: FloatArray,
    a1: FloatArray,
    a2: FloatArray,
    tol: float = DEFAULT_TOL,
    max_iter: int = LOGRED_MAX_ITER,
) -> tuple[FloatArray, np.ndarray, np.ndarray]:
    """Logarithmic reduction of ``N`` stacked items: ``(G, doublings, failed)``.

    When an item's truncation bound meets ``tol`` but its row sums of
    ``G`` do not, the gap is rounding: in a nearly critical QBD
    (``sp(R)`` within ~1e-5 of 1) the eigenvalue 1 of ``G`` leaves a
    floating-point floor on ``1 - G 1`` above ``tol``.  Those items are
    rerun on the shifted blocks (Bini, Latouche & Meini 2005, sec. 3.6),
    whose solution ``G - 1 u^T`` has that eigenvalue moved to 0.  The
    shift presumes a stochastic ``G``, so an item that is not positive
    recurrent fails here instead; the ladder's drift diagnosis names it.
    """
    n, m = a0.shape[0], a0.shape[1]
    # One fault check per item: a fired item fails the reduction exactly
    # like a real overflow and goes to the ladder.
    fired = np.array([_fault_fire("logred_overflow") for _ in range(n)], dtype=bool)
    g, iterations, failed = _doublings(a0, a1, a2, tol, max_iter, fired)
    done = np.flatnonzero(~failed)
    residual = np.abs(1.0 - g[done] @ np.ones(m)).max(axis=1)
    short = done[residual >= tol]
    failed[short] = True
    stalled = [int(i) for i in short if is_stable(a0[i], a1[i], a2[i])]
    if stalled:
        q = np.full((m, m), 1.0 / m)  # 1 u^T with u uniform, so Q 1 = 1
        s0, s1, s2 = a0[stalled], a1[stalled], a2[stalled]
        g_shifted, more, shift_failed = _doublings(
            s0, s1 + s0 @ q, s2 - s2 @ q, tol, max_iter,
            np.zeros(len(stalled), dtype=bool),
        )
        g[stalled] = g_shifted + q
        iterations[stalled] += more
        failed[stalled] = shift_failed
    return g, iterations, failed


def g_matrix_logarithmic_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = LOGRED_MAX_ITER,
) -> np.ndarray:
    """G by logarithmic reduction (Latouche & Ramaswami), one item.

    Raises :class:`QBDConvergenceError` when the reduction fails.
    """
    stacks = [np.asarray(a, float)[None] for a in (a0, a1, a2)]
    g, iterations, failed = _logarithmic_reduction(*stacks, tol, max_iter)
    if failed[0]:
        raise QBDConvergenceError(
            "logarithmic reduction overflowed or did not converge in "
            f"{max_iter} doublings; is the QBD stable and irreducible?",
            iterations=int(iterations[0]),
            attempts=("logarithmic-reduction",),
        )
    return g[0]


def _escalate(
    a0: FloatArray, a1: FloatArray, a2: FloatArray
) -> tuple[FloatArray, str, int, tuple[str, ...]]:
    """The ladder for one item the reduction failed.

    Runs the drift diagnosis (``ValueError`` for an unstable QBD), then
    functional iteration -- cheapest per step and monotone -- then the
    natural iteration, each under the escalation time budget.  Returns
    ``(R, rung, iterations, abandoned rungs)``.
    """
    validate_positive_recurrent(a0, a1, a2)
    budget_ms = escalation_time_budget_ms()
    attempted = ["logarithmic-reduction"]
    failures: list[QBDConvergenceError] = []
    spent = 0
    for name, rung in (("functional", _functional_impl), ("natural", _natural_impl)):
        try:
            r, iters = rung(a0, a1, a2, DEFAULT_TOL, DEFAULT_MAX_ITER, budget_ms)
        except QBDConvergenceError as exc:
            spent += exc.iterations
            attempted.append(name)
            failures.append(exc)
            continue
        if np.any(r < -1e-9):
            raise QBDConvergenceError(
                f"computed R has a significantly negative entry ({r.min():.3g})",
                iterations=spent + iters,
                attempts=tuple(attempted),
            )
        r = np.clip(r, 0.0, None)
        # Postcondition: the accepted R must be the minimal solution,
        # i.e. finite, non-negative, sp(R) < 1.
        check_r_matrix(r, "R")
        return r, name, spent + iters, tuple(attempted)
    raise QBDConvergenceError(
        "no R iteration converged: logarithmic reduction failed, then "
        + "; ".join(str(exc) for exc in failures),
        iterations=spent,
        attempts=tuple(attempted),
    )


def batched_r_matrix(
    a0: ArrayLike, a1: ArrayLike, a2: ArrayLike
) -> tuple[FloatArray, list[SolveStats], BatchedSolveReport]:
    """Minimal R matrices of ``N`` stacked QBD block triples.

    One masked logarithmic reduction solves every item at once.  Items it
    cannot finish (overflow, singular step, an R with ``sp(R) >= 1``, no
    convergence) go through the per-item ladder: the
    drift diagnosis, so an unstable item fails with ``ValueError``, then
    functional and natural iteration.  An item the ladder gives up on
    never fails another: its ``R`` slot stays zero and its failure lands
    in ``report.failures``.

    Parameters
    ----------
    a0, a1, a2:
        Block stacks of shape ``(N, m, m)``; the iterations converge to
        :data:`DEFAULT_TOL`.  Under the contracts every item must pass
        the precondition of :func:`r_matrix` (non-negative ``A0`` and
        ``A2``, a generator ``A0+A1+A2``).

    Returns
    -------
    ``(R, stats, report)``: the ``(N, m, m)`` stack of R matrices
    (read-only), the per-item :class:`SolveStats` and the group-level
    :class:`BatchedSolveReport`.
    """
    a0, a1, a2 = _as_block_stacks(a0, a1, a2)
    if contracts_enabled():
        _check_block_stack(a0, a1, a2)
    return _solve_r_stack(a0, a1, a2)


def _solve_r_stack(
    a0: FloatArray, a1: FloatArray, a2: FloatArray
) -> tuple[FloatArray, list[SolveStats], BatchedSolveReport]:
    """:func:`batched_r_matrix` on float ``(N, m, m)`` stacks of one shape
    whose precondition already holds: blocks off a
    :class:`~repro.qbd.structure.QBDStack`, or checked by :func:`r_matrix`.
    """
    n, m = a0.shape[0], a0.shape[1]
    start = time.perf_counter()
    g, iterations, failed = _logarithmic_reduction(a0, a1, a2)
    r = np.zeros_like(a0)
    negative: dict[int, float] = {}
    ok = np.flatnonzero(~failed)
    if ok.size:
        with np.errstate(over="ignore", invalid="ignore"):
            u = a1[ok] + a0[ok] @ g[ok]
            inv_neg_u, inv_ok = _stack_inv(-u)
            r_ok = a0[ok] @ inv_neg_u
        # A converged G whose U factor is singular sends the item to the
        # ladder rather than failing the batch.  A significantly negative R entry fails the item
        # outright: no QBD's minimal R has one, so the blocks are not a
        # QBD's, and a rung would only converge to another root.
        finite = inv_ok & np.isfinite(r_ok).all(axis=(1, 2))
        bad_sign = np.zeros(ok.size, dtype=bool)
        bad_sign[finite] = r_ok[finite].min(axis=(1, 2)) < -1e-9
        accepted = finite & ~bad_sign
        r[ok[accepted]] = np.clip(r_ok[accepted], 0.0, None)
        failed[ok[~accepted]] = True
        negative = dict(
            zip(ok[bad_sign].tolist(), r_ok[bad_sign].min(axis=(1, 2)).tolist())
        )
    # One stacked eigenvalue call gives every item's reported sp(R).  An
    # accepted R with sp(R) >= 1 is not the minimal solution: under the
    # contracts the ladder below re-solves the item.
    radii = np.abs(np.linalg.eigvals(r)).max(axis=1) if n else np.zeros(0)
    if contracts_enabled():
        failed |= radii >= 1.0
    algorithms = ["logarithmic-reduction"] * n
    abandoned: dict[int, tuple[str, ...]] = {}
    ladder_iterations = np.zeros(n, dtype=int)
    failures: list[BatchedItemFailure] = []
    for i in np.flatnonzero(failed):
        try:
            if i in negative:
                raise QBDConvergenceError(
                    "computed R has a significantly negative entry "
                    f"({negative[i]:.3g})",
                    iterations=int(iterations[i]),
                )
            r[i], algorithms[i], ladder_iterations[i], abandoned[i] = _escalate(
                a0[i], a1[i], a2[i]
            )
        except (QBDConvergenceError, ValueError, ContractViolation) as exc:
            # Unstable item (ValueError), negative R or exhausted ladder
            # (QBDConvergenceError), or violated R postcondition
            # (ContractViolation).  The item's R slot stays zero and
            # downstream stages must skip it.
            failures.append(
                BatchedItemFailure.from_exception(int(i), "r-matrix", exc)
            )
    r.setflags(write=False)
    wall_time_ms = (time.perf_counter() - start) * 1e3
    redone = np.flatnonzero(failed)
    if redone.size:
        radii[redone] = np.abs(np.linalg.eigvals(r[redone])).max(axis=1)
    per_item_ms = wall_time_ms / n if n else 0.0
    stats_list = [
        SolveStats(
            algorithm=algorithms[i],
            iterations=int(iterations[i] + ladder_iterations[i]),
            wall_time_ms=per_item_ms,
            spectral_radius=float(radii[i]),
            fallbacks=abandoned.get(i, ()),
        )
        for i in range(n)
    ]
    report = BatchedSolveReport(
        batch_size=n,
        phase_count=m,
        iterations=int(iterations.sum()),
        max_iterations=int(iterations.max()) if n else 0,
        wall_time_ms=wall_time_ms,
        fallbacks=tuple(int(i) for i in np.flatnonzero(failed)),
        failures=tuple(failures),
    )
    return r, stats_list, report


def r_matrix(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Minimal non-negative solution of ``A0 + R A1 + R^2 A2 = 0``.

    The one-item call of :func:`batched_r_matrix`, after the checks a
    single QBD gets first: the block precondition and the drift test.
    Its :class:`SolveStats` come with :func:`batched_r_matrix`.

    Raises
    ------
    ValueError
        For an unstable QBD.
    QBDConvergenceError
        If every iteration fails to converge; its ``attempts`` attribute
        then lists every abandoned rung.
    """
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    if contracts_enabled():
        # The repeating blocks must form a generator row-split into
        # non-negative up/down parts; a violated precondition here would
        # otherwise converge to plausible-looking garbage.
        check_nonnegative(a0, "A0")
        check_nonnegative(a2, "A2")
        check_generator(a0 + a1 + a2, "A0+A1+A2")
    validate_positive_recurrent(a0, a1, a2)
    r, _, report = _solve_r_stack(*_as_block_stacks(a0[None], a1[None], a2[None]))
    raise_first_failure([report])
    return r[0]
