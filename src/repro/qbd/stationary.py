"""Stationary distribution of a QBD with closed-form level sums."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.qbd.rmatrix import (
    SolveStats,
    raise_first_failure,
    validate_positive_recurrent,
)
from repro.qbd.structure import QBDProcess, QBDStack

__all__ = ["QBDStationaryDistribution", "solve_qbd"]


class QBDStationaryDistribution:
    """Stationary distribution ``(pi_0, pi_1 R^{k-1})`` of a QBD.

    Provides the closed-form sums used by all model metrics:

    * total repeating mass ``sum_{k>=1} pi_k = pi_1 (I-R)^{-1}``,
    * level-weighted mass ``sum_{k>=1} k pi_k = pi_1 (I-R)^{-2}``,

    plus per-level access and tail sums for diagnostics.

    ``qbd`` is the solved process, or a :class:`~repro.qbd.structure.QBDStack`
    holding it as item ``item``; then :attr:`qbd` builds the
    :class:`~repro.qbd.structure.QBDProcess` on first access, and a pickle
    keeps only this item's part of the stack.
    """

    def __init__(
        self,
        qbd: QBDProcess | QBDStack,
        r: np.ndarray,
        pi_boundary: np.ndarray,
        pi_first: np.ndarray,
        solve_stats: SolveStats | None = None,
        item: int = 0,
    ) -> None:
        self._qbd = qbd
        self._item = item
        self._r = np.asarray(r, dtype=float)
        self._pi_boundary = np.asarray(pi_boundary, dtype=float)
        self._pi_first = np.asarray(pi_first, dtype=float)
        self._solve_stats = solve_stats
        # Memoized levels pi_1, pi_2, ... built by vector recurrence
        # pi_{k+1} = pi_k R; grows on demand (level/tail_mass/residual).
        self._levels: list[np.ndarray] = [self._pi_first]

    @property
    def qbd(self) -> QBDProcess:
        """The process this distribution solves."""
        if isinstance(self._qbd, QBDStack):
            self._qbd = self._qbd.process(self._item)
            self._item = 0
        return self._qbd

    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        if isinstance(self._qbd, QBDStack) and self._qbd.size > 1:
            state["_qbd"], state["_item"] = self._qbd.take([self._item]), 0
        return state

    @property
    def solve_stats(self) -> SolveStats | None:
        """Diagnostics of the R-matrix solve that produced this
        distribution (``None`` when R was supplied directly)."""
        return self._solve_stats

    @property
    def r(self) -> np.ndarray:
        """The rate matrix R."""
        return self._r

    @property
    def boundary(self) -> np.ndarray:
        """Stationary probabilities of the boundary states."""
        return self._pi_boundary

    @cached_property
    def _i_minus_r_transposed(self) -> np.ndarray:
        """``(I - R)^T``, shared by every level sum."""
        return (np.eye(self._r.shape[0]) - self._r).T

    def _apply_inv_i_minus_r(self, row: np.ndarray) -> np.ndarray:
        """``row (I-R)^{-1}``, as the solve ``(I-R)^T x = row^T``."""
        return np.linalg.solve(self._i_minus_r_transposed, row)

    def level(self, k: int) -> np.ndarray:
        """Stationary probabilities of repeating level ``k`` (k >= 1)."""
        if k < 1:
            raise ValueError(f"repeating levels are numbered from 1, got {k}")
        while len(self._levels) < k:
            self._levels.append(self._levels[-1] @ self._r)
        return self._levels[k - 1]

    @cached_property
    def repeating_mass(self) -> np.ndarray:
        """``sum_{k>=1} pi_k`` -- total phase mass of the repeating portion."""
        return self._apply_inv_i_minus_r(self._pi_first)

    @cached_property
    def repeating_level_weighted(self) -> np.ndarray:
        """``sum_{k>=1} k pi_k = pi_1 (I-R)^{-2}``."""
        return self._apply_inv_i_minus_r(self.repeating_mass)

    def tail_mass(self, from_level: int) -> np.ndarray:
        """``sum_{k>=from_level} pi_k`` for ``from_level >= 1``."""
        if from_level < 1:
            raise ValueError(f"from_level must be >= 1, got {from_level}")
        return self._apply_inv_i_minus_r(self.level(from_level))

    def _seed_level_sums(
        self, repeating_mass: np.ndarray, repeating_level_weighted: np.ndarray
    ) -> None:
        """Pre-populate the cached level sums.

        The batched kernel (:mod:`repro.qbd.batched`) computes the
        ``(I-R)^{-1}`` sums for a whole stack of solutions in one batched
        solve; seeding the ``cached_property`` slots here lets the per-item
        distributions reuse that work.  Seeded values must agree with the
        lazy per-item solves to solver accuracy -- they are the same linear
        systems, solved by a batched factorization.
        """
        self.__dict__["repeating_mass"] = repeating_mass
        self.__dict__["repeating_level_weighted"] = repeating_level_weighted

    @cached_property
    def total_mass(self) -> float:
        """Should equal 1; exposed for diagnostics."""
        return float(self._pi_boundary.sum() + self.repeating_mass.sum())

    @cached_property
    def spectral_radius(self) -> float:
        """Spectral radius of R (the geometric tail decay rate)."""
        return float(np.max(np.abs(np.linalg.eigvals(self._r))))

    def residual(self, levels: int = 6) -> float:
        """Max balance-equation residual over the boundary and the first
        ``levels`` repeating levels -- a solution-quality diagnostic."""
        qbd = self.qbd
        res = self._pi_boundary @ qbd.b00 + self.level(1) @ qbd.b10
        worst = float(np.max(np.abs(res)))
        res = self._pi_boundary @ qbd.b01 + self.level(1) @ qbd.a1 + self.level(2) @ qbd.a2
        worst = max(worst, float(np.max(np.abs(res))))
        for k in range(2, levels + 1):
            res = (
                self.level(k - 1) @ qbd.a0
                + self.level(k) @ qbd.a1
                + self.level(k + 1) @ qbd.a2
            )
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    def __repr__(self) -> str:
        return (
            f"QBDStationaryDistribution(boundary_mass={self._pi_boundary.sum():.6g}, "
            f"spectral_radius={self.spectral_radius:.6g})"
        )


def solve_qbd(
    qbd: QBDProcess, escalate: bool = False
) -> QBDStationaryDistribution:
    """Solve a QBD end to end: R matrix, boundary system, stationary object.

    The one-item call of :func:`repro.qbd.batched.solve_qbd_batched`,
    after the drift test a single QBD gets first; the item's failure, if
    any, is raised.  The returned distribution carries the
    :class:`~repro.qbd.rmatrix.SolveStats` of its R solve.

    With ``escalate=True`` the solve gains a last rung: when every
    matrix-geometric iteration fails (``QBDConvergenceError``) or the
    boundary system is singular, the QBD is re-solved as an adaptively
    truncated dense chain (:func:`repro.qbd.truncated.solve_qbd_truncated`)
    and the returned ``solve_stats`` is flagged ``degraded=True``.  The
    unstable-QBD ``ValueError`` always propagates -- truncating an
    unstable chain would fabricate a number where no stationary regime
    exists.
    """
    # Imported lazily: batched.py builds QBDStationaryDistribution
    # instances, so a module-level import would be circular.
    from repro.qbd.batched import solve_qbd_batched

    validate_positive_recurrent(qbd.a0, qbd.a1, qbd.a2)
    (distribution,), report = solve_qbd_batched(
        QBDStack.of([qbd]), escalate=escalate
    )
    raise_first_failure([report])
    assert distribution is not None  # a failed item raised above
    return distribution
