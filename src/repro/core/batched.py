"""Model-level entry point of the batched matrix-geometric kernel.

:func:`solve_models_batched` solves many :class:`~repro.core.model.FgBgModel`
instances through :func:`repro.qbd.batched.solve_qbd_batched`: models are
grouped by QBD block structure, i.e. block sizes and boundary levels
(models with ``bg_probability`` below ``NEAR_ZERO_BG_PROBABILITY`` build
their chain without background states and therefore land in their own
group), each group runs as one stacked solve, and the per-model metrics
come out of the same :func:`~repro.core.metrics.compute_metrics` pipeline
as a sequential ``model.solve()`` -- so batched and sequential solutions
agree to solver tolerance (including the deliberate NaN
``bg_completion_rate`` of the near-zero-``p`` group).

With ``on_error="skip"|"collect"`` a poisoned item no longer sinks its
group: its solution slot is ``None``, its failure is reported (with its
index remapped to the *input* model order) in the group's
:class:`~repro.qbd.batched.BatchedSolveReport`, and every other item
solves normally.  ``escalate=True`` additionally routes failed items
through the truncated dense-chain rung before giving up on them.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from typing import Literal, cast, overload

from repro.core.metrics import compute_metrics
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.qbd.batched import (
    BatchedItemFailure,
    BatchedSolveReport,
    solve_qbd_batched,
)

__all__ = ["solve_models_batched"]


@overload
def solve_models_batched(
    models: Iterable[FgBgModel],
    return_reports: Literal[False] = ...,
    on_error: Literal["raise"] = ...,
    escalate: bool = ...,
) -> list[FgBgSolution]: ...


@overload
def solve_models_batched(
    models: Iterable[FgBgModel],
    *,
    return_reports: Literal[True],
    on_error: Literal["raise"] = ...,
    escalate: bool = ...,
) -> tuple[list[FgBgSolution], list[BatchedSolveReport]]: ...


@overload
def solve_models_batched(
    models: Iterable[FgBgModel],
    *,
    return_reports: Literal[True],
    on_error: str,
    escalate: bool = ...,
) -> tuple[list[FgBgSolution | None], list[BatchedSolveReport]]: ...


def solve_models_batched(
    models: Iterable[FgBgModel],
    return_reports: bool = False,
    on_error: str = "raise",
    escalate: bool = False,
) -> (
    list[FgBgSolution]
    | list[FgBgSolution | None]
    | tuple[list[FgBgSolution | None], list[BatchedSolveReport]]
):
    """Solve many models through the batched kernel; order is preserved.

    Parameters
    ----------
    models:
        Non-empty sequence of :class:`~repro.core.model.FgBgModel`
        instances.  Shapes may be mixed -- grouping happens here.
    return_reports:
        When True, also return one :class:`BatchedSolveReport` per shape
        group, in first-appearance order; failure indices inside the
        reports refer to the *input* model order.
    on_error:
        ``"raise"`` (default) propagates the first failure; ``"skip"`` /
        ``"collect"`` isolate failures per item -- the failed model's
        solution slot is ``None`` and its failure is reported, while the
        rest of its shape group solves normally.
    escalate:
        Route items the matrix-geometric pipeline fails through the
        truncated dense-chain rung before giving up (see
        :func:`repro.qbd.batched.solve_qbd_batched`).

    Raises
    ------
    ValueError
        If ``models`` is empty, or (in ``"raise"`` mode) any model is
        unstable -- the same message a sequential ``model.solve()``
        raises, before any solving starts.  Unstable models are never
        escalated: no stationary regime exists to degrade to.
    """
    models = list(models)
    if not models:
        raise ValueError("solve_models_batched needs at least one model")
    failures: dict[int, BatchedItemFailure] = {}
    for index, model in enumerate(models):
        if not isinstance(model, FgBgModel):
            raise TypeError(
                f"expected FgBgModel instances, got {type(model).__name__}"
            )
        if not model.is_stable:
            error = ValueError(
                f"model is unstable: foreground utilization "
                f"{model.fg_utilization:.4g} >= 1; no stationary regime exists"
            )
            if on_error == "raise":
                raise error
            failures[index] = BatchedItemFailure(
                index=index,
                stage="precheck",
                error_type="ValueError",
                message=str(error),
                error=error,
            )
    groups: dict[tuple[int, int, tuple[int, ...]], list[int]] = {}
    for index, model in enumerate(models):
        if index in failures:
            continue
        qbd = model.qbd
        shape = (qbd.boundary_size, qbd.phase_count, qbd.boundary_levels)
        groups.setdefault(shape, []).append(index)
    solutions: list[FgBgSolution | None] = [None] * len(models)
    reports: list[BatchedSolveReport] = []
    for indices in groups.values():
        distributions, report = solve_qbd_batched(
            [models[i].qbd for i in indices],
            return_report=True,
            on_error=on_error,
            escalate=escalate,
        )
        # Group-local failure indices -> input model order.
        group_failures = tuple(
            replace(f, index=indices[f.index]) for f in report.failures
        )
        reports.append(replace(report, failures=group_failures))
        for i, distribution in zip(indices, distributions):
            if distribution is None:
                continue
            model = models[i]
            solutions[i] = compute_metrics(
                space=model.state_space,
                qbd_solution=distribution,
                arrival=model.arrival,
                service_rate=model.service_rate,
                bg_probability=model.bg_probability,
            )
    if failures:
        # Precheck failures (unstable models) never reached a shape
        # group; report them in a synthetic zero-work report so callers
        # see every failure through the same channel.
        reports.append(
            BatchedSolveReport(
                batch_size=len(failures),
                phase_count=0,
                iterations=0,
                max_iterations=0,
                wall_time_ms=0.0,
                failures=tuple(failures[i] for i in sorted(failures)),
            )
        )
    if on_error == "raise":
        # Every index belongs to exactly one group and no failure was
        # isolated, so no slot is left None; the cast records that
        # invariant for the type checker.
        solved = cast("list[FgBgSolution]", solutions)
        if return_reports:
            return solved, reports
        return solved
    if return_reports:
        return solutions, reports
    return solutions
