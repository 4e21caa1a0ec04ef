"""Tests for SweepEngine's stacked solve path, against an independent R."""

import numpy as np
import pytest

from repro import faults
from repro.core.batched import solve_models_batched
from repro.core.model import FgBgModel
from repro.engine import EngineConfig, SweepEngine
from repro.processes import fit_mmpp2
from repro.qbd import batched as batched_module
from repro.qbd.batched import BatchedSolveReport
from repro.qbd.rmatrix import QBDConvergenceError
from repro.workloads.paper import SERVICE_RATE_PER_MS

from ..conftest import functional_iteration_solution

MU = SERVICE_RATE_PER_MS
BATCHED = EngineConfig(batched=True)


def mmpp_base(util: float = 0.3) -> FgBgModel:
    arrival = fit_mmpp2(rate=util * MU, scv=4.0, decay=0.8)
    return FgBgModel(arrival=arrival, service_rate=MU, bg_probability=0.3)


def sweep_models(utils=(0.1, 0.2, 0.3, 0.4, 0.5), ps=(0.1, 0.3)):
    base = mmpp_base()
    return [
        base.with_bg_probability(p).at_utilization(u)
        for p in ps
        for u in utils
    ]


class TestSolveModelsBatched:
    def test_matches_sequential_metrics(self):
        models = sweep_models()
        batched, _ = solve_models_batched(models)
        for model, solution in zip(models, batched):
            assert solution.as_dict() == model.solve().as_dict()
            reference = functional_iteration_solution(model)
            for name in (
                "fg_response_time",
                "fg_queue_length",
                "idle_probability",
            ):
                assert getattr(solution, name) == pytest.approx(
                    getattr(reference, name), rel=1e-8
                )

    def test_groups_mixed_shapes(self):
        # p = 0 builds the chain without background states: its own group.
        models = sweep_models(ps=(0.0, 0.3))
        solutions, reports = solve_models_batched(models)
        assert len(reports) == 2
        assert {r.batch_size for r in reports} == {5}
        assert all(np.isnan(s.bg_completion_rate) for s in solutions[:5])
        assert all(s.bg_completion_rate > 0 for s in solutions[5:])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_models_batched([])

    def test_rejects_unstable_model_before_solving(self):
        # The kernel reports the unstable model as a precheck failure in a
        # zero-work report; its raising callers raise the same error.
        unstable = mmpp_base().at_utilization(1.2)
        solutions, reports = solve_models_batched([mmpp_base(), unstable])
        assert solutions[0] is not None and solutions[1] is None
        precheck = reports[-1]
        assert (precheck.batch_size, precheck.iterations) == (1, 0)
        (failure,) = precheck.failures
        assert (failure.index, failure.stage) == (1, "precheck")
        assert failure.error_type == "ValueError"
        assert "model is unstable" in failure.message
        with pytest.raises(ValueError, match="unstable") as from_model:
            unstable.solve()
        with pytest.raises(ValueError, match="unstable") as from_engine:
            SweepEngine().solve(unstable)
        assert str(from_model.value) == str(from_engine.value) == failure.message

    def test_rejects_non_model(self):
        with pytest.raises(TypeError, match="FgBgModel"):
            solve_models_batched([object()])


class TestBatchedEngine:
    def test_solve_batch_matches_sequential_engine(self):
        models = sweep_models()
        batched = SweepEngine(BATCHED).solve_batch(models)
        for model, b in zip(models, batched):
            reference = functional_iteration_solution(model)
            assert b.fg_response_time == pytest.approx(
                reference.fg_response_time, rel=1e-8
            )

    def test_records_batch_groups(self):
        engine = SweepEngine(BATCHED)
        engine.solve_batch(sweep_models(ps=(0.0, 0.3)))
        assert len(engine.stats.batch_groups) == 2
        for group in engine.stats.batch_groups:
            assert isinstance(group, BatchedSolveReport)
            assert group.batch_size == 5
            payload = group.as_dict()
            assert payload["boundary_size"] == group.boundary_size
            assert payload["batch_size"] == 5
        # The two groups really have different shapes.
        shapes = {
            (g.boundary_size, g.phase_count)
            for g in engine.stats.batch_groups
        }
        assert len(shapes) == 2

    def test_cache_hits_skip_the_kernel(self):
        engine = SweepEngine(BATCHED)
        models = sweep_models()
        engine.solve_batch(models)
        groups_after_first = len(engine.stats.batch_groups)
        engine.solve_batch(models)
        assert len(engine.stats.batch_groups) == groups_after_first
        assert engine.stats.cache_hits == len(models)
        assert engine.stats.solver_calls == len(models)

    def test_duplicates_solved_once(self):
        engine = SweepEngine(BATCHED)
        model = mmpp_base()
        solutions = engine.solve_batch([model, model, model])
        assert engine.stats.solves == 3
        assert engine.stats.solver_calls == 1
        assert engine.stats.batch_groups[0].batch_size == 1
        assert solutions[0] is solutions[2]

    def test_run_chains_pools_all_chains(self):
        base = mmpp_base()
        chains = [
            [base.with_bg_probability(p).at_utilization(u) for u in (0.2, 0.4)]
            for p in (0.1, 0.3, 0.6)
        ]
        engine = SweepEngine(BATCHED)
        results = engine.run_chains(chains)
        assert [len(r) for r in results] == [2, 2, 2]
        # One shape, one pooled kernel call for all six points.
        assert len(engine.stats.batch_groups) == 1
        assert engine.stats.batch_groups[0].batch_size == 6
        sequential = [[model.solve() for model in chain] for chain in chains]
        for seq_chain, bat_chain in zip(sequential, results):
            for s, b in zip(seq_chain, bat_chain):
                assert b.fg_queue_length == pytest.approx(
                    s.fg_queue_length, abs=1e-10
                )

    def test_batch_groups_survive_summary(self):
        engine = SweepEngine(BATCHED)
        engine.solve_batch(sweep_models(utils=(0.2, 0.4)))
        summary = engine.stats.summary()
        assert "batch_groups" in summary
        assert summary["batch_groups"][0]["batch_size"] == 4
        engine.stats.clear()
        assert "batch_groups" not in engine.stats.summary()

    def test_solve_batch_empty(self):
        assert SweepEngine(BATCHED).solve_batch([]) == []

    def test_repr_mentions_batched(self):
        assert "batched=True" in repr(SweepEngine(BATCHED))

    def test_batched_populates_cache_for_sequential_reads(self, tmp_path):
        cache_dir = str(tmp_path / "solves")
        cache_engine = SweepEngine(EngineConfig(cache_dir=cache_dir, batched=True))
        models = sweep_models(utils=(0.2, 0.3))
        batched = cache_engine.solve_batch(models)
        follower = SweepEngine(EngineConfig(cache_dir=cache_dir))
        sequential = follower.solve_batch(models)
        assert follower.stats.cache_hits == len(models)
        for s, b in zip(sequential, batched):
            assert s.fg_response_time == b.fg_response_time


class TestRaisePolicy:
    """``on_error="raise"`` applies once, in the engine, after the kernel."""

    def models(self):
        # Three stable models, then an unstable one at input index 3.
        return [
            *sweep_models(utils=(0.2, 0.3, 0.4), ps=(0.3,)),
            mmpp_base().at_utilization(1.2),
        ]

    def test_lowest_index_failure_raised_and_nothing_cached(self):
        # Item 1 fails in the boundary stage, item 3 at the precheck,
        # which the kernel reports in a later report: the lower index is
        # raised, and the failed batch leaves nothing cached or recorded.
        progress = []
        engine = SweepEngine(progress=progress.append)
        with faults.inject("singular_boundary:after=1:limit=1"):
            with pytest.raises(np.linalg.LinAlgError, match="injected"):
                engine.solve_batch(self.models())
        assert len(engine.cache) == 0
        assert engine.stats.records == []
        assert engine.stats.batch_groups == []
        assert progress == []

    def test_unstable_first_item_raised(self):
        # Reversed, the unstable model is index 0 and the boundary fault
        # hits index 2.
        engine = SweepEngine()
        with faults.inject("singular_boundary:after=1:limit=1"):
            with pytest.raises(ValueError, match="model is unstable"):
                engine.solve_batch(self.models()[::-1])
        assert len(engine.cache) == 0

    def test_failed_escalation_raises_the_original_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise QBDConvergenceError("truncated rung refused")

        monkeypatch.setattr(batched_module, "solve_qbd_truncated", refuse)
        models = self.models()[:3]
        engine = SweepEngine(EngineConfig(escalate=True))
        with faults.inject("singular_boundary:after=1:limit=1"):
            with pytest.raises(np.linalg.LinAlgError, match="injected"):
                engine.solve_batch(models)
        # The record of the same point describes the rung's own failure.
        collect = SweepEngine(EngineConfig(on_error="collect", escalate=True))
        with faults.inject("singular_boundary:after=1:limit=1"):
            got = collect.solve_batch(models)
        assert got[1] is None
        (failure,) = collect.stats.failures
        assert failure.error_type == "QBDConvergenceError"
        assert failure.message == "truncated rung refused"
        (group,) = collect.stats.batch_groups
        (item,) = group.failures
        assert item.stage == "truncated"
        assert isinstance(item.error, np.linalg.LinAlgError)
