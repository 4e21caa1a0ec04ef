"""R- and G-matrix algorithms for QBD processes.

``R`` is the minimal non-negative solution of ``A0 + R A1 + R^2 A2 = 0``;
``G`` the minimal non-negative solution of ``A2 + A1 G + A0 G^2 = 0``.
Three algorithms are provided:

* logarithmic reduction on G (Latouche & Ramaswami 1993) -- quadratically
  convergent, the default;
* functional iteration on R (Neuts' classic fixed point) -- simple,
  linearly convergent and monotone;
* "natural" U-based iteration on G -- linearly convergent with better
  constants.

All operate on the CTMC (generator) form of the blocks.  :func:`r_matrix`
runs the requested algorithm and, when it fails to converge, escalates
through the others; it can report per-solve :class:`SolveStats`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.contracts.checks import (
    check_generator,
    check_nonnegative,
    check_r_matrix,
    contracts_enabled,
)
from repro.faults import fire as _fault_fire
from repro.markov.stationary import stationary_distribution

__all__ = [
    "ESCALATION_TIME_BUDGET_MS",
    "QBDConvergenceError",
    "SolveStats",
    "drift",
    "escalation_time_budget_ms",
    "is_stable",
    "r_matrix",
    "r_matrix_functional_iteration",
    "r_matrix_natural_iteration",
    "r_matrix_logarithmic_reduction",
    "r_matrix_from_g",
    "g_matrix_logarithmic_reduction",
    "validate_algorithm",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 2_000_000

#: Default wall-time budget of the linearly convergent escalation rungs
#: (functional / natural fallback inside :func:`r_matrix`).  Override with
#: the ``REPRO_SOLVER_BUDGET_MS`` environment variable; a hopeless chain
#: then fails fast into the next rung (ultimately the truncated dense
#: fallback of ``solve_qbd(escalate=True)``) instead of burning the full
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
    :func:`r_matrix` exhausts its whole escalation ladder, ``attempts``
    lists every rung that was tried (the failure records of
    ``on_error="collect"`` sweeps surface it).
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
        (``"logarithmic-reduction"``, ``"natural"`` or ``"functional"``).
    iterations:
        Total iterations spent, *including* abandoned attempts (for
        logarithmic reduction one iteration is one doubling step).
    wall_time_ms:
        Wall-clock time of the whole solve in milliseconds.
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
            delta = float(np.max(np.abs(r_next - r)))
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
    """Natural (U-based) iteration returning ``(G, iterations)``."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    g = np.zeros_like(a0)
    started_at = time.perf_counter()
    for it in range(1, max_iter + 1):
        _budget_tick(started_at, time_budget_ms, it, "natural iteration")
        g_next = np.linalg.solve(-(a1 + a0 @ g), a2)
        delta = float(np.max(np.abs(g_next - g)))
        g = g_next
        if delta < tol:
            return g, it
    raise QBDConvergenceError(
        f"natural iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3g}); is the QBD stable?",
        iterations=max_iter,
    )


def g_matrix_natural_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """U-based iteration ``G <- (-(A1 + A0 G))^{-1} A2``."""
    return _natural_impl(a0, a1, a2, tol, max_iter)[0]


def _logred_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Logarithmic reduction returning ``(G, doubling steps)``.

    When the plain iteration's truncation bound meets ``tol`` but the row
    sums of ``G`` do not, the gap is rounding: in a nearly critical QBD
    (``sp(R)`` within ~1e-5 of 1) the eigenvalue 1 of ``G`` leaves a
    floating-point floor on ``1 - G 1`` above ``tol``.  The reduction is
    then rerun on the shifted blocks (Bini, Latouche & Meini 2005, sec.
    3.6), whose solution ``G - 1 u^T`` has that eigenvalue moved to 0.
    """
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    g, steps = _logred_doublings(a0, a1, a2, tol, max_iter)
    if float(np.max(np.abs(1.0 - g @ np.ones(a0.shape[0])))) < tol:
        return g, steps
    m = a0.shape[0]
    q = np.full((m, m), 1.0 / m)  # 1 u^T with u uniform, so Q 1 = 1
    g_shifted, more = _logred_doublings(
        a0, a1 + a0 @ q, a2 - a2 @ q, tol, max_iter
    )
    return g_shifted + q, steps + more


def _logred_doublings(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """The doubling loop of :func:`_logred_impl`.

    ``G - G_k = T_k G_(k)`` with ``G_(k)`` the reduced process's ``G``,
    so ``||T_k||_inf`` bounds the truncation error; for the plain blocks
    it equals ``1 - G_k 1`` in exact arithmetic (``T_k`` is non-negative).
    Stops when either quantity is below ``tol``: the first is what the
    shifted run can measure, the second what the plain run reaches
    without rounding trouble.
    """
    m = a0.shape[0]
    inv_neg_a1 = np.linalg.inv(-a1)
    h = inv_neg_a1 @ a0
    low = inv_neg_a1 @ a2
    g = low.copy()
    t = h.copy()
    ones = np.ones(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if _fault_fire("logred_overflow"):
                # Injected replica of the real overflow below: same
                # exception type and message shape, so every downstream
                # escalation path is exercised exactly as in production.
                raise QBDConvergenceError(
                    "logarithmic reduction overflowed (injected fault "
                    "logred_overflow); use the natural or functional "
                    "iteration",
                    iterations=it,
                )
            u = h @ low + low @ h
            m_inv = np.linalg.inv(np.eye(m) - u)
            h = m_inv @ (h @ h)
            low = m_inv @ (low @ low)
            g += t @ low
            t = t @ h
            if not np.all(np.isfinite(g)):
                raise QBDConvergenceError(
                    "logarithmic reduction overflowed (nearly decomposable "
                    "phase process); use the natural or functional iteration",
                    iterations=it,
                )
            if (
                float(np.max(np.abs(ones - g @ ones))) < tol
                or float(np.max(np.abs(t).sum(axis=1))) < tol
            ):
                return g, it
    raise QBDConvergenceError(
        f"logarithmic reduction did not converge in {max_iter} doublings; "
        "is the QBD stable and irreducible?",
        iterations=max_iter,
    )


def g_matrix_logarithmic_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = 64,
) -> np.ndarray:
    """Logarithmic reduction (Latouche & Ramaswami), quadratic convergence.

    Operates on the uniformized/probabilistic form: with
    ``H = (-A1)^{-1} A0`` (up) and ``L = (-A1)^{-1} A2`` (down),

    iterate ``U = H L + L H``; ``H <- (I-U)^{-1} H^2``;
    ``L <- (I-U)^{-1} L^2``; accumulating ``G += T L`` with ``T`` the
    product of the successive ``H`` factors.
    """
    return _logred_impl(a0, a1, a2, tol, max_iter)[0]


def r_matrix_from_g(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Recover ``R = A0 (-(A1 + A0 G))^{-1}`` from the G matrix."""
    a0 = np.asarray(a0, float)
    u = np.asarray(a1, float) + a0 @ np.asarray(g, float)
    return a0 @ np.linalg.inv(-u)


def r_matrix_logarithmic_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """R via logarithmic reduction of G (the recommended default)."""
    g = g_matrix_logarithmic_reduction(a0, a1, a2, tol=tol)
    return r_matrix_from_g(a0, a1, a2, g)


def r_matrix_natural_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """R via the U-based natural iteration on G."""
    g = g_matrix_natural_iteration(a0, a1, a2, tol=tol)
    return r_matrix_from_g(a0, a1, a2, g)


def _r_logred_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    # Quadratically convergent in at most 64 doublings -- no time budget
    # needed (each doubling is a handful of dense m x m products).
    g, iters = _logred_impl(a0, a1, a2, tol, 64)
    return r_matrix_from_g(a0, a1, a2, g), iters


def _r_natural_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    g, iters = _natural_impl(
        a0, a1, a2, tol, DEFAULT_MAX_ITER, time_budget_ms=time_budget_ms
    )
    return r_matrix_from_g(a0, a1, a2, g), iters


def _r_functional_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    return _functional_impl(
        a0, a1, a2, tol, DEFAULT_MAX_ITER, time_budget_ms=time_budget_ms
    )


_ALGORITHMS = {
    "logarithmic-reduction": _r_logred_impl,
    "natural": _r_natural_impl,
    "functional": _r_functional_impl,
}

#: Escalation order after the requested algorithm fails.
_FALLBACK_ORDER = ("functional", "natural", "logarithmic-reduction")


def validate_algorithm(algorithm: str) -> None:
    """Raise ValueError unless :func:`r_matrix` knows ``algorithm``."""
    if algorithm not in _ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(_ALGORITHMS)}"
        )


def _spectral_radius(r: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(r))))


def r_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    algorithm: str = "logarithmic-reduction",
    tol: float = DEFAULT_TOL,
    return_stats: bool = False,
    blocks_validated: bool = False,
    time_budget_ms: float | None = None,
) -> np.ndarray | tuple[np.ndarray, SolveStats]:
    """Minimal non-negative solution of ``A0 + R A1 + R^2 A2 = 0``.

    Parameters
    ----------
    algorithm:
        One of ``"logarithmic-reduction"`` (default, quadratic),
        ``"natural"`` or ``"functional"``.
    return_stats:
        When True, return ``(R, SolveStats)`` instead of just ``R``.
    blocks_validated:
        Caller's certificate that ``(a0, a1, a2)`` already passed the
        generator/split precondition and are frozen read-only -- true for
        blocks taken off a :class:`~repro.qbd.structure.QBDProcess`, whose
        constructor validates exactly these invariants.  Skips the
        redundant re-validation; the R postcondition still runs.  Never
        pass True for matrices assembled by hand.
    time_budget_ms:
        Wall-time budget of the linearly convergent escalation rungs
        (functional / natural).  Defaults to
        :func:`escalation_time_budget_ms` (30 s, overridable via
        ``REPRO_SOLVER_BUDGET_MS``); a rung that exceeds it raises
        :class:`QBDConvergenceError` and the ladder moves on.  The
        quadratic logarithmic reduction is bounded by its step cap
        instead.

    Raises
    ------
    ValueError
        For an unknown algorithm name or an unstable QBD.
    QBDConvergenceError
        If every iteration fails to converge; its ``attempts`` attribute
        then lists every abandoned rung.
    """
    validate_algorithm(algorithm)
    if not blocks_validated and contracts_enabled():
        # The repeating blocks must form a generator row-split into
        # non-negative up/down parts; a violated precondition here would
        # otherwise converge to plausible-looking garbage.
        a0_arr = np.asarray(a0, float)
        a1_arr = np.asarray(a1, float)
        a2_arr = np.asarray(a2, float)
        check_nonnegative(a0_arr, "A0")
        check_nonnegative(a2_arr, "A2")
        check_generator(a0_arr + a1_arr + a2_arr, "A0+A1+A2")
    if not is_stable(a0, a1, a2):
        raise ValueError(
            f"QBD is not positive recurrent (drift {drift(a0, a1, a2):.6g} >= 0); "
            "the stationary distribution does not exist"
        )
    if time_budget_ms is None:
        time_budget_ms = escalation_time_budget_ms()
    start = time.perf_counter()
    total_iterations = 0
    attempted: list[str] = []
    # Nearly decomposable phase processes can overflow logarithmic
    # reduction; the linearly convergent iterations are slower but
    # unconditionally monotone, so fall back before giving up.
    # Functional iteration first: cheapest per step and monotone.
    # Each fallback rung runs under the escalation time budget.
    ladder = [algorithm] + [n for n in _FALLBACK_ORDER if n != algorithm]
    failures: list[QBDConvergenceError] = []
    for name in ladder:
        try:
            r, iters = _ALGORITHMS[name](
                a0, a1, a2, tol, time_budget_ms=time_budget_ms
            )
        except QBDConvergenceError as exc:
            total_iterations += exc.iterations
            attempted.append(name)
            failures.append(exc)
            continue
        total_iterations += iters
        used = name
        break
    else:
        # The whole ladder failed: attach the attempt log to the first
        # failure so the caller's record can state every rung tried.
        failures[0].attempts = tuple(attempted)
        raise failures[0]
    # Clip round-off negatives; R must be entrywise non-negative.
    if np.any(r < -1e-9):
        raise QBDConvergenceError(
            f"computed R has a significantly negative entry ({r.min():.3g})"
        )
    r = np.clip(r, 0.0, None)
    # Postcondition: the accepted R -- first choice or a fallback --
    # must be the minimal solution, i.e. finite, non-negative, sp(R) < 1.
    check_r_matrix(r, "R")
    if not return_stats:
        return r
    stats = SolveStats(
        algorithm=used,
        iterations=total_iterations,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        spectral_radius=_spectral_radius(r),
        fallbacks=tuple(attempted),
    )
    return r, stats
