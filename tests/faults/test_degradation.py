"""Every injected fault ends in a correct answer or a structured failure.

The suite walks each injection point through the pipeline and asserts the
two invariants of :mod:`repro.engine.resilience`: unaffected points stay
identical to a fault-free run, and affected points either recover (via a
ladder rung or a re-solve) to a correct value or surface as a
structured :class:`FailedSolve` / ``QBDConvergenceError`` -- never as a
silently wrong number.
"""

import numpy as np
import pytest

from repro import faults
from repro.core import FgBgModel
from repro.engine import (
    EngineConfig,
    ResilienceWarning,
    SolveCache,
    SweepEngine,
)
from repro.experiments.sweeps import sweep, utilization_axis
from repro.processes import PoissonProcess
from repro.qbd.rmatrix import QBDConvergenceError
from repro.workloads.paper import SERVICE_RATE_PER_MS as MU, email

from .conftest import UTILIZATIONS


def poisson_models(count=4, bg_probability=0.3):
    """Same-shape chain of easy (low sp(R)) models."""
    return [
        FgBgModel(
            arrival=PoissonProcess((0.08 + 0.06 * i) * MU),
            service_rate=MU,
            bg_probability=bg_probability,
        )
        for i in range(count)
    ]


class TestScalarLadder:
    """logred_overflow / solver_stall against the escalation ladder."""

    def test_logred_overflow_recovers_via_fallback_rung(self, base_model):
        model = base_model.at_utilization(0.4)
        clean = model.solve()
        with faults.inject("logred_overflow:limit=1"):
            sol = model.solve()
        stats = sol.qbd_solution.solve_stats
        assert stats.algorithm == "functional"
        assert stats.fallbacks == ("logarithmic-reduction",)
        np.testing.assert_allclose(
            sol.fg_response_time, clean.fg_response_time, rtol=1e-10
        )

    def test_exhausted_ladder_raises_with_attempt_log(
        self, base_model, monkeypatch
    ):
        # The bursty chain needs > 256 linear iterations, so a 1 ms budget
        # trips the functional and natural rungs at their first budget
        # check; the injected overflow removes logarithmic reduction.
        monkeypatch.setenv("REPRO_SOLVER_BUDGET_MS", "1")
        model = base_model.at_utilization(0.55)
        with faults.inject("logred_overflow"):
            with pytest.raises(QBDConvergenceError) as excinfo:
                model.solve()
        assert excinfo.value.attempts == (
            "logarithmic-reduction",
            "functional",
            "natural",
        )

    def test_stalled_functional_rung_rescued_by_natural(
        self, base_model, monkeypatch
    ):
        # The fired overflow sends the solve to the linear rungs.  At this
        # load functional iteration needs ~277 steps, so its first budget
        # check (step 256) fires the stall, whose 25 ms sleep alone exceeds
        # the 20 ms budget; natural iteration converges in ~231 steps,
        # before any check is due.
        monkeypatch.setenv("REPRO_SOLVER_BUDGET_MS", "20")
        model = base_model.at_utilization(0.43)
        clean = model.solve()
        with faults.inject("logred_overflow,solver_stall") as plan:
            sol = model.solve()
        assert plan.fires("solver_stall") >= 1
        stats = sol.qbd_solution.solve_stats
        assert stats.algorithm == "natural"
        assert stats.fallbacks == ("logarithmic-reduction", "functional")
        np.testing.assert_allclose(
            sol.fg_response_time, clean.fg_response_time, rtol=1e-10
        )

    def test_singular_boundary_escalates_to_truncated_dense(self):
        model = poisson_models(1)[0]
        clean = model.solve()
        with faults.inject("singular_boundary:limit=1"):
            sol = model.solve(escalate=True)
        stats = sol.qbd_solution.solve_stats
        assert stats.degraded
        assert stats.algorithm == "truncated-dense"
        assert stats.truncation_level is not None
        np.testing.assert_allclose(
            sol.fg_response_time, clean.fg_response_time, rtol=1e-6
        )

    def test_singular_boundary_without_escalation_raises(self, base_model):
        with faults.inject("singular_boundary:limit=1"):
            with pytest.raises(np.linalg.LinAlgError, match="injected"):
                base_model.at_utilization(0.4).solve()


class TestEngineIsolation:
    """on_error at the engine/sweep layer."""

    def test_raise_mode_propagates_first_failure(self, model_chain):
        engine = SweepEngine()
        with faults.inject("singular_boundary:limit=1"):
            with pytest.raises(np.linalg.LinAlgError):
                engine.solve_batch(model_chain)

    def test_skip_mode_marks_nan_and_keeps_healthy_points(self, base_model):
        axis = utilization_axis(UTILIZATIONS)
        reference = sweep(base_model, axis, "fg_response_time")
        with faults.inject("singular_boundary:after=1:limit=1"):
            with pytest.warns(ResilienceWarning):
                got = sweep(
                    base_model,
                    axis,
                    "fg_response_time",
                    engine=SweepEngine(EngineConfig(on_error="skip")),
                )
        assert np.isnan(got.y[1])
        healthy = [0, 2, 3]
        np.testing.assert_allclose(
            got.y[healthy], reference.y[healthy], rtol=1e-10
        )

    def test_collect_mode_records_structured_failure(self, model_chain):
        engine = SweepEngine(EngineConfig(on_error="collect"))
        with faults.inject("singular_boundary:after=1:limit=1"):
            solutions = engine.solve_batch(model_chain)
        assert solutions[1] is None
        assert all(s is not None for i, s in enumerate(solutions) if i != 1)
        (failure,) = engine.stats.failures
        assert failure.stage == "batched"
        assert failure.error_type == "LinAlgError"
        assert failure.fingerprint == model_chain[1].fingerprint()
        assert engine.stats.failed == 1

    def test_collect_mode_emits_no_warnings(self, model_chain, recwarn):
        engine = SweepEngine(EngineConfig(on_error="collect"))
        with faults.inject("singular_boundary:after=1:limit=1"):
            engine.solve_batch(model_chain)
        assert not [
            w for w in recwarn.list if issubclass(w.category, ResilienceWarning)
        ]

    def test_collect_plus_escalate_recovers_the_point(self, model_chain):
        reference = [m.solve().fg_response_time for m in model_chain]
        engine = SweepEngine(EngineConfig(on_error="collect", escalate=True))
        with faults.inject("singular_boundary:after=1:limit=1"):
            solutions = engine.solve_batch(model_chain)
        assert all(s is not None for s in solutions)
        assert engine.stats.failures == []
        assert engine.stats.degraded_solves == 1
        np.testing.assert_allclose(
            [s.fg_response_time for s in solutions], reference, rtol=1e-6
        )

    def test_failed_escalation_logs_each_rung_once(self, monkeypatch):
        # As in test_exhausted_ladder_raises_with_attempt_log, the ladder
        # is exhausted; the E-mail chain at this load also decays too
        # slowly for the truncated dense rung.
        monkeypatch.setenv("REPRO_SOLVER_BUDGET_MS", "1")
        model = FgBgModel(
            arrival=email(), service_rate=MU, bg_probability=0.3
        ).at_utilization(0.55)
        engine = SweepEngine(EngineConfig(on_error="collect", escalate=True))
        with faults.inject("logred_overflow"):
            assert engine.solve(model) is None
        (failure,) = engine.stats.failures
        assert failure.attempts == (
            "logarithmic-reduction",
            "functional",
            "natural",
            "truncated-dense",
        )


class TestBatchedIsolation:
    """One poisoned item of a batched group must not sink the other nine."""

    def test_poisoned_item_isolated_in_ten_item_group(self):
        models = poisson_models(10)
        reference = SweepEngine(EngineConfig(batched=True)).solve_batch(models)
        engine = SweepEngine(EngineConfig(batched=True, on_error="collect"))
        with faults.inject("singular_boundary:after=3:limit=1"):
            got = engine.solve_batch(models)
        assert got[3] is None
        for i in range(10):
            if i == 3:
                continue
            # Unaffected items run the identical stacked arithmetic, so
            # they are bit-identical, well inside the 1e-10 requirement.
            assert got[i].fg_response_time == reference[i].fg_response_time
        (failure,) = engine.stats.failures
        assert failure.stage == "batched"
        assert failure.fingerprint == models[3].fingerprint()
        (group,) = engine.stats.batch_groups
        assert group.batch_size == 10
        assert len(group.failures) == 1

    def test_poisoned_item_escalates_and_recovers(self):
        models = poisson_models(10)
        reference = SweepEngine(EngineConfig(batched=True)).solve_batch(models)
        engine = SweepEngine(
            EngineConfig(batched=True, on_error="collect", escalate=True)
        )
        with faults.inject("singular_boundary:after=3:limit=1"):
            got = engine.solve_batch(models)
        assert all(s is not None for s in got)
        assert engine.stats.failures == []
        np.testing.assert_allclose(
            got[3].fg_response_time, reference[3].fg_response_time, rtol=1e-6
        )
        for i in range(10):
            if i == 3:
                continue
            assert got[i].fg_response_time == reference[i].fg_response_time

    def test_demoted_item_recovers_through_scalar_fallback(self):
        # A fired logred_overflow in the stacked kernel demotes the item
        # to the scalar path; with the fault spent (limit=1) the scalar
        # ladder succeeds, so every item still gets a correct value.
        models = poisson_models(6)
        reference = SweepEngine(EngineConfig(batched=True)).solve_batch(models)
        engine = SweepEngine(EngineConfig(batched=True))
        with faults.inject("logred_overflow:after=2:limit=1"):
            got = engine.solve_batch(models)
        np.testing.assert_allclose(
            [s.fg_response_time for s in got],
            [s.fg_response_time for s in reference],
            rtol=1e-10,
        )


class TestCacheCorruption:
    """cache_corrupt: torn writes are quarantined, counted, re-solved."""

    def plant_corrupt_entry(self, tmp_path, model):
        cache = SolveCache(tmp_path)
        key = SolveCache.key(model)
        with faults.inject("cache_corrupt:limit=1"):
            cache.put(key, model.solve())
        return key

    def test_corrupt_entry_quarantined_and_resolved(self, tmp_path):
        model = poisson_models(1)[0]
        clean = model.solve()
        key = self.plant_corrupt_entry(tmp_path, model)
        engine = SweepEngine(
            EngineConfig(cache_dir=str(tmp_path), on_error="collect")
        )
        sol = engine.solve(model)
        np.testing.assert_allclose(
            sol.fg_response_time, clean.fg_response_time, rtol=1e-12
        )
        (failure,) = engine.stats.failures
        assert failure.stage == "cache-load"
        assert failure.contract_violation
        assert any(a.startswith("quarantined:") for a in failure.attempts)
        assert engine.stats.cache_quarantined == 1
        assert (tmp_path / f"{key}.pkl.corrupt").exists()
        # The re-solve repopulated the entry; a fresh cache now serves it.
        assert SolveCache(tmp_path).get(key) is not None

    def test_quarantine_is_mode_independent(self, tmp_path):
        # A corrupt entry is recoverable (re-solve), so even on_error
        # "raise" quarantines, records and continues instead of raising.
        model = poisson_models(1)[0]
        self.plant_corrupt_entry(tmp_path, model)
        engine = SweepEngine(EngineConfig(cache_dir=str(tmp_path)))
        assert engine.solve(model) is not None
        assert engine.stats.cache_quarantined == 1

    def test_skip_mode_warns_on_quarantine(self, tmp_path):
        model = poisson_models(1)[0]
        self.plant_corrupt_entry(tmp_path, model)
        engine = SweepEngine(EngineConfig(cache_dir=str(tmp_path), on_error="skip"))
        with pytest.warns(ResilienceWarning, match="quarantined"):
            engine.solve(model)
