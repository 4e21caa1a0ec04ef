"""Model-level entry point of the batched matrix-geometric kernel.

:func:`solve_models_batched` solves many :class:`~repro.core.model.FgBgModel`
instances through :func:`repro.qbd.batched.solve_qbd_batched`: models are
grouped by chain structure, the effective buffer size, MAP order and BG
mode read off the model fields (models with ``bg_probability`` below
``NEAR_ZERO_BG_PROBABILITY`` build their chain without background states
and therefore land in their own group); each group's blocks are built as
one stack (:func:`repro.core.blocks.build_qbd`), with no per-model
:class:`~repro.qbd.structure.QBDProcess`, and solved as one stacked
solve; the per-model metrics come out of
:func:`~repro.core.metrics.compute_metrics`.  ``model.solve()`` is the
one-item call, so the two agree exactly (including the deliberate NaN
``bg_completion_rate`` of the near-zero-``p`` group).

A failed item never sinks its group: its solution slot is ``None``, its
failure is reported (with its index remapped to the *input* model order)
in the group's :class:`~repro.qbd.batched.BatchedSolveReport`, and every
other item solves normally.  ``escalate=True`` additionally routes failed
items through the truncated dense-chain rung before giving up on them.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

from repro.core.blocks import BgServiceMode, build_qbd
from repro.core.metrics import compute_metrics
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.qbd.batched import (
    BatchedItemFailure,
    BatchedSolveReport,
    solve_qbd_batched,
)

__all__ = ["solve_models_batched"]


def solve_models_batched(
    models: Iterable[FgBgModel], escalate: bool = False
) -> tuple[list[FgBgSolution | None], list[BatchedSolveReport]]:
    """Solve many models through the batched kernel; order is preserved.

    Parameters
    ----------
    models:
        Non-empty sequence of :class:`~repro.core.model.FgBgModel`
        instances.  Shapes may be mixed -- grouping happens here.
    escalate:
        Route items the matrix-geometric pipeline fails through the
        truncated dense-chain rung before giving up (see
        :func:`repro.qbd.batched.solve_qbd_batched`).

    Returns
    -------
    ``(solutions, reports)``: one solution per model, ``None`` for a
    failed one, and one :class:`BatchedSolveReport` per shape group in
    first-appearance order, whose failure indices refer to the *input*
    model order.  Unstable models fail at stage ``"precheck"``, with the
    message ``model.solve()`` raises, in one more zero-work report; they
    are never solved or escalated: no stationary regime exists to
    degrade to.

    Raises
    ------
    ValueError
        If ``models`` is empty.
    TypeError
        If an item is not an :class:`FgBgModel`.
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
            failures[index] = BatchedItemFailure.from_exception(
                index,
                "precheck",
                ValueError(
                    f"model is unstable: foreground utilization "
                    f"{model.fg_utilization:.4g} >= 1; no stationary regime "
                    "exists"
                ),
            )
    groups: dict[tuple[int, int, BgServiceMode], list[int]] = {}
    for index, model in enumerate(models):
        if index not in failures:
            key = (model._effective_bg_buffer, model.arrival.order, model.bg_mode)
            groups.setdefault(key, []).append(index)
    solutions: list[FgBgSolution | None] = [None] * len(models)
    reports: list[BatchedSolveReport] = []
    for (bg_buffer, _, bg_mode), indices in groups.items():
        group = [models[i] for i in indices]
        stack, space = build_qbd(
            [model.arrival for model in group],
            [model.service_rate for model in group],
            [model.bg_probability for model in group],
            bg_buffer,
            [model.effective_idle_wait_rate for model in group],
            bg_mode,
        )
        distributions, report = solve_qbd_batched(stack, escalate=escalate)
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
                space=space,
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
    return solutions, reports
