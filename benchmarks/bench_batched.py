"""Batched kernel economics: stacked solves vs the sequential path.

Runs the 44-point E-mail load sweep of the paper's Figure 5 (11
utilizations x 4 background probabilities) twice -- once through the
sequential per-model path (``model.solve()``) and once through the
stacked kernel (:func:`repro.core.batched.solve_models_batched`) -- with
the QBD blocks pre-built on both paths, so the comparison isolates the
solve machinery (R iteration, boundary solve, level sums) the kernel
batches.  A micro-benchmark of the tiered ``sp(R) < 1`` certificate
against the full eigenvalue solve it replaces rides along.

Results land in ``BENCH_batched.json`` at the repository root.  The file
doubles as the CI regression guard: ``speedup_floor`` and
``warn_tolerance`` are *checked in* (preserved across regenerations, not
overwritten by measurements).  A run below ``speedup_floor`` but within
``speedup_floor / warn_tolerance`` only warns (noisy shared runners); a
run below the tolerance band fails the benchmark.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np

from repro.contracts import certify_spectral_radius_below_one
from repro.core.batched import solve_models_batched
from repro.core.model import FgBgModel
from repro.engine import EngineConfig, SweepEngine
from repro.workloads.paper import SERVICE_RATE_PER_MS, WORKLOADS

UTILIZATIONS = tuple(round(0.05 * k, 2) for k in range(1, 12))  # 0.05..0.55
BG_PROBABILITIES = (0.1, 0.3, 0.6, 0.9)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batched.json"

#: Checked-in regression floor: the batched path must stay at least this
#: many times faster than cold sequential solving on the 44-point sweep.
DEFAULT_SPEEDUP_FLOOR = 3.0

#: Measurements in [floor / tolerance, floor) warn instead of failing --
#: shared CI runners are noisy; only a drop below the band is a regression.
DEFAULT_WARN_TOLERANCE = 1.3

#: Wall-time repeats; the best (least-interfered) round of each path is
#: compared, standard practice for wall-clock micro-comparisons.
ROUNDS = 3


def email_models() -> list[FgBgModel]:
    base = FgBgModel(
        arrival=WORKLOADS["email"].fit(),
        service_rate=SERVICE_RATE_PER_MS,
        bg_probability=0.0,
    )
    return [
        base.with_bg_probability(p).at_utilization(u)
        for p in BG_PROBABILITIES
        for u in UTILIZATIONS
    ]


def _checked_in_guard() -> tuple[float, float]:
    """The regression floor and tolerance currently committed, if any."""
    if OUTPUT.exists():
        try:
            payload = json.loads(OUTPUT.read_text())
            return (
                float(payload["guard"]["speedup_floor"]),
                float(payload["guard"]["warn_tolerance"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
    return DEFAULT_SPEEDUP_FLOOR, DEFAULT_WARN_TOLERANCE


def _time_rounds(func) -> tuple[float, object]:
    best_ms, result = float("inf"), None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = func()
        best_ms = min(best_ms, (time.perf_counter() - start) * 1e3)
    return best_ms, result


def bench_batched_vs_sequential(benchmark):
    models = email_models()
    for model in models:
        model.qbd  # pre-build blocks: both paths need them, neither is timed on it

    def run_comparison():
        # Interleaved warm-up so first-touch costs hit neither timing.
        [m.solve() for m in models[:2]]
        solve_models_batched(models[:2])
        seq_ms, sequential = _time_rounds(lambda: [m.solve() for m in models])
        bat_ms, batched = _time_rounds(lambda: solve_models_batched(models))
        return seq_ms, bat_ms, sequential, batched

    seq_ms, bat_ms, sequential, batched = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    speedup = seq_ms / bat_ms

    # Identical answers (the headline correctness claim, also enforced at
    # 1e-10 by tests/qbd/test_batched.py and the property suite).
    worst = max(
        abs(s.fg_queue_length - b.fg_queue_length)
        for s, b in zip(sequential, batched)
    )
    assert worst < 1e-10

    # Engine-level run for the per-group records the JSON documents.
    engine = SweepEngine(EngineConfig(batched=True))
    engine.run_chain(models)
    group_records = [g.as_dict() for g in engine.stats.batch_groups]

    # Satellite micro-bench: tiered sp(R) certificate vs full eigenvalues
    # over the 44 accepted R matrices.
    rs = [b.qbd_solution.r for b in batched]
    repeats = 20
    cert_ms, _ = _time_rounds(
        lambda: [
            certify_spectral_radius_below_one(r)
            for _ in range(repeats)
            for r in rs
        ]
    )
    eig_ms, _ = _time_rounds(
        lambda: [
            bool(np.max(np.abs(np.linalg.eigvals(r))) < 1.0)
            for _ in range(repeats)
            for r in rs
        ]
    )

    floor, tolerance = _checked_in_guard()
    OUTPUT.write_text(
        json.dumps(
            {
                "sweep": {
                    "workload": "email",
                    "utilizations": list(UTILIZATIONS),
                    "bg_probabilities": list(BG_PROBABILITIES),
                    "points": len(models),
                },
                "guard": {
                    "speedup_floor": floor,
                    "warn_tolerance": tolerance,
                },
                "measured": {
                    "sequential_wall_ms": round(seq_ms, 3),
                    "batched_wall_ms": round(bat_ms, 3),
                    "speedup": round(speedup, 3),
                    "max_metric_diff": worst,
                    "batch_groups": group_records,
                },
                "spectral_radius_certificate": {
                    "matrices": len(rs),
                    "repeats": repeats,
                    "tiered_ms": round(cert_ms / repeats, 4),
                    "eigvals_ms": round(eig_ms / repeats, 4),
                    "speedup": round(eig_ms / cert_ms, 2),
                },
            },
            indent=2,
        )
        + "\n"
    )

    # Regression guard: hard floor with a warn-only tolerance band.
    hard_floor = floor / tolerance
    if speedup < floor:
        message = (
            f"batched speedup {speedup:.2f}x is below the checked-in floor "
            f"{floor:.2f}x (hard floor {hard_floor:.2f}x)"
        )
        assert speedup >= hard_floor, message
        warnings.warn(message + " -- inside the warn-only tolerance band")

    # The certificate must beat the eigenvalue solve it replaces.
    assert cert_ms < eig_ms
