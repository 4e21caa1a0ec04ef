"""Batched matrix-geometric kernel: many same-shape QBDs in one solve.

Every figure of the paper is a *sweep*: 40+ nearby models with identical
block shapes.  :func:`solve_qbd_batched` takes ``N`` of them as one
:class:`~repro.qbd.structure.QBDStack` and runs the whole pipeline with
batched ``np.linalg`` primitives, so the per-point Python overhead is paid
once per *batch* instead of once per *point*:

* the **R stage** -- :func:`repro.qbd.rmatrix.batched_r_matrix`: one
  masked logarithmic reduction, and a per-item escalation ladder for the
  items it cannot finish;
* the **boundary stage** -- the level-by-level reduction of
  :func:`repro.qbd.boundary.solve_boundaries`, one failed item never
  failing another;
* **stacked level sums** (``pi_1 (I-R)^{-1}``, ``pi_1 (I-R)^{-2}``)
  feeding the per-item
  :class:`~repro.qbd.stationary.QBDStationaryDistribution` objects.

:func:`repro.qbd.stationary.solve_qbd` is the one-item call.  The stacked
path has no a-priori drift check: an unstable item cannot converge to a
stochastic ``G``, so it lands in the ladder, whose drift diagnosis fails
it with the same ``ValueError`` ``solve_qbd`` raises up front.

No stage raises an item's failure: each one lands in the returned
:class:`BatchedSolveReport`, and the callers that raise (the one-item
calls, the sweep engine in ``"raise"`` mode) pick it up from there with
:func:`repro.qbd.rmatrix.raise_first_failure`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.contracts.checks import contracts_enabled
from repro.contracts.errors import ContractViolation
from repro.qbd.boundary import solve_boundaries
from repro.qbd.rmatrix import (
    BatchedItemFailure,
    BatchedSolveReport,
    QBDConvergenceError,
    _solve_r_stack,
    batched_r_matrix,
)
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDStack
from repro.qbd.truncated import solve_qbd_truncated

__all__ = [
    "BatchedItemFailure",
    "BatchedSolveReport",
    "batched_r_matrix",
    "solve_qbd_batched",
]


def solve_qbd_batched(
    stack: QBDStack, escalate: bool = False
) -> tuple[list[QBDStationaryDistribution | None], BatchedSolveReport]:
    """Solve the ``N`` QBDs of a stack end to end in one stacked pipeline.

    :func:`repro.qbd.stationary.solve_qbd` is its one-item call.  Stacked
    R matrices (:func:`batched_r_matrix`), the stacked boundary
    solve (:func:`repro.qbd.boundary.solve_boundaries`), and the
    ``(I-R)^{-1}`` level sums of *all* items extracted with two batched
    linear solves, seeded into the returned per-item distributions.

    Parameters
    ----------
    stack:
        The QBDs, one block structure (``QBDStack.of(qbds)`` stacks
        :class:`~repro.qbd.structure.QBDProcess` instances).
    escalate:
        Per item that the matrix-geometric pipeline gives up on, try the
        truncated dense-chain rung
        (:func:`repro.qbd.truncated.solve_qbd_truncated`) before failing
        it; successful escalations return real distributions flagged
        ``degraded=True`` in their ``solve_stats``.  An unstable item
        (the ladder's drift ``ValueError``) is never escalated: no
        stationary regime exists to degrade to.

    Returns
    -------
    ``(distributions, report)``: one
    :class:`~repro.qbd.stationary.QBDStationaryDistribution` per item,
    each carrying its per-item :class:`~repro.qbd.rmatrix.SolveStats`,
    and the group's :class:`BatchedSolveReport`.  A failed item's slot
    is ``None`` and its failure is in ``report.failures``; every other
    item solves normally.  Only input errors and a violated mass
    contract raise.  A distribution builds its item's
    :class:`~repro.qbd.structure.QBDProcess` only when its ``qbd`` is
    read.
    """
    if not isinstance(stack, QBDStack):
        raise TypeError(f"expected a QBDStack, got {type(stack).__name__}")
    n, n_b, m = stack.size, stack.boundary_size, stack.phase_count
    # QBDStack checked the row split, so the R stage skips the precondition.
    r, stats_list, report = _solve_r_stack(stack.a0, stack.a1, stack.a2)
    failures: dict[int, BatchedItemFailure] = {
        f.index: f for f in report.failures
    }
    distributions: list[QBDStationaryDistribution | None] = [None] * n

    def _escalate_item(
        i: int, rungs: tuple[str, ...], original: BaseException
    ) -> None:
        """Run the truncated dense rung for item ``i``; record its failure
        with the ``original`` error that sent the item there."""
        try:
            dist = solve_qbd_truncated(stack.process(i), fallbacks=rungs)
        except (QBDConvergenceError, ValueError) as exc:
            # The rung's QBDConvergenceError already logs ``rungs`` first.
            prior = () if isinstance(exc, QBDConvergenceError) else rungs
            failures[i] = replace(
                BatchedItemFailure.from_exception(i, "truncated", exc, prior),
                error=original,
            )
        else:
            distributions[i] = dist
            assert dist.solve_stats is not None
            stats_list[i] = dist.solve_stats
            failures.pop(i, None)

    if escalate:
        # An unstable item's drift diagnosis (a plain ValueError) stands:
        # no stationary regime exists to degrade to.
        for i, failure in sorted(failures.copy().items()):
            if type(failure.error) is not ValueError:
                rungs = failure.attempts or ("logarithmic-reduction",)
                _escalate_item(i, rungs, failure.error)

    # Boundary + level sums over the items the R stage actually solved.
    pending = [
        i
        for i in range(n)
        if distributions[i] is None and i not in failures
    ]
    if pending:
        sub_pi0, sub_pi1, boundary_failed = solve_boundaries(
            stack if len(pending) == n else stack.take(pending), r[pending]
        )
        for local, exc in boundary_failed.items():
            i = pending[local]
            if escalate:
                stats = stats_list[i]
                _escalate_item(
                    i, (*stats.fallbacks, stats.algorithm, "boundary"), exc
                )
            else:
                failures[i] = BatchedItemFailure.from_exception(
                    i, "boundary", exc
                )
        good_local = [
            k
            for k, i in enumerate(pending)
            if distributions[i] is None and i not in failures
        ]
        good = [pending[k] for k in good_local]
    else:
        good_local, good = [], []

    if good:
        pi0 = np.ascontiguousarray(sub_pi0[good_local])
        pi1 = np.ascontiguousarray(sub_pi1[good_local])
        r_good = r[good]
        # Stacked level sums: pi_1 (I-R)^{-1} and pi_1 (I-R)^{-2} for
        # every solved item via two batched transposed solves.
        i_minus_r_t = (np.eye(m) - r_good).transpose(0, 2, 1)
        rep_mass = np.linalg.solve(i_minus_r_t, pi1[..., None])[..., 0]
        rep_weighted = np.linalg.solve(
            i_minus_r_t, rep_mass[..., None]
        )[..., 0]

        for array in (pi0, pi1, rep_mass, rep_weighted):
            array.setflags(write=False)

        for k, i in enumerate(good):
            dist = QBDStationaryDistribution(
                stack, r[i], pi0[k], pi1[k], solve_stats=stats_list[i], item=i
            )
            dist._seed_level_sums(rep_mass[k], rep_weighted[k])
            distributions[i] = dist

        if contracts_enabled():
            # End-to-end invariant per solved item, vectorized on the
            # pass path: non-negative mass, total mass 1 (the level sums
            # are closed forms in R, so a bad boundary solve shows up
            # here).  Failed items are excluded -- their slots are None
            # with a structured failure, not a wrong number.
            least = np.minimum(pi0.min(axis=1), pi1.min(axis=1))
            total = pi0.sum(axis=1) + rep_mass.sum(axis=1)
            bad = ~((least > -1e-6) & (np.abs(total - 1.0) <= 1e-8))
            if np.any(bad):
                item = good[int(np.argmax(bad))]
                raise ContractViolation(
                    "check_solution",
                    f"QBD stationary distribution [{item}]",
                    f"total mass {total[int(np.argmax(bad))]:.10g}, "
                    "expected 1",
                )
    report = replace(
        report,
        boundary_size=n_b,
        failures=tuple(failures[i] for i in sorted(failures)),
    )
    return distributions, report
