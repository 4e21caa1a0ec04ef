"""The injector itself: spec grammar, determinism, plan precedence."""

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule


class TestSpecParsing:
    def test_single_point_defaults(self):
        plan = faults.parse_spec("logred_overflow")
        assert plan.points == {"logred_overflow"}

    def test_parameters(self):
        plan = faults.parse_spec("solver_stall:rate=0.25:seed=7:after=3:limit=2")
        rule = plan._rules["solver_stall"]
        assert (rule.rate, rule.seed, rule.after, rule.limit) == (0.25, 7, 3, 2)

    def test_multiple_clauses_and_whitespace(self):
        plan = faults.parse_spec(" logred_overflow , kill_run:limit=1 ,")
        assert plan.points == {"logred_overflow", "kill_run"}

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.parse_spec("logred_overlfow")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            faults.parse_spec("kill_run:count=3")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            faults.parse_spec("kill_run:limit")

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            faults.parse_spec("kill_run,kill_run:limit=1")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(point="kill_run", rate=1.5)


class TestDeterminism:
    def spin(self, spec: str, checks: int = 50) -> list[bool]:
        plan = faults.parse_spec(spec)
        return [plan.should_fire(plan_point) for plan_point in
                ["solver_stall"] * checks]

    def test_same_spec_same_decisions(self):
        spec = "solver_stall:rate=0.3:seed=11"
        assert self.spin(spec) == self.spin(spec)

    def test_seed_changes_decisions(self):
        a = self.spin("solver_stall:rate=0.3:seed=11")
        b = self.spin("solver_stall:rate=0.3:seed=12")
        assert a != b

    def test_after_and_limit(self):
        plan = faults.parse_spec("kill_run:after=2:limit=1")
        decisions = [plan.should_fire("kill_run") for _ in range(6)]
        assert decisions == [False, False, True, False, False, False]
        assert plan.checks("kill_run") == 6
        assert plan.fires("kill_run") == 1

    def test_rate_zero_never_fires(self):
        assert not any(self.spin("solver_stall:rate=0.0"))

    def test_rate_one_always_fires(self):
        assert all(self.spin("solver_stall:rate=1.0"))


class TestPlanPrecedence:
    def test_no_plan_is_silent(self):
        assert faults.active_plan() is None
        assert not faults.fire("logred_overflow")

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "logred_overflow:limit=1")
        assert faults.fire("logred_overflow")
        assert not faults.fire("logred_overflow")  # limit reached
        assert not faults.fire("singular_boundary")  # not in plan

    def test_env_reparse_on_change(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "logred_overflow")
        first = faults.active_plan()
        assert faults.active_plan() is first  # cached while unchanged
        monkeypatch.setenv(faults.ENV_FAULTS, "singular_boundary")
        assert faults.active_plan().points == {"singular_boundary"}

    def test_context_shadows_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "logred_overflow")
        with faults.inject("singular_boundary"):
            assert not faults.fire("logred_overflow")
            assert faults.fire("singular_boundary")
        assert faults.fire("logred_overflow")

    def test_inject_nests_and_restores(self):
        with faults.inject("kill_run") as outer:
            with faults.inject("cache_corrupt") as inner:
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_inject_accepts_prebuilt_plan(self):
        plan = FaultPlan([FaultRule(point="worker_kill", limit=1)])
        with faults.inject(plan) as active:
            assert active is plan

    def test_env_bad_spec_raises_at_first_fire(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "not_a_point")
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.fire("logred_overflow")


class TestParamPayload:
    def test_param_parses_as_float(self):
        plan = faults.parse_spec("clock_skew:param=-45000")
        assert plan.param("clock_skew") == -45_000.0

    def test_fire_value_returns_the_param(self):
        with faults.inject("clock_skew:param=250"):
            assert faults.fire_value("clock_skew") == 250.0

    def test_fire_value_none_when_not_firing(self):
        assert faults.fire_value("clock_skew") is None  # no plan
        with faults.inject("clock_skew:rate=0:param=250"):
            assert faults.fire_value("clock_skew") is None  # rate miss

    def test_fire_value_none_without_param(self):
        with faults.inject("clock_skew"):
            assert faults.fire_value("clock_skew") is None

    def test_fire_value_advances_the_same_counters(self):
        with faults.inject("clock_skew:after=1:param=5") as plan:
            assert faults.fire_value("clock_skew") is None  # eaten by after
            assert faults.fire_value("clock_skew") == 5.0
            assert plan.checks("clock_skew") == 2

    def test_injected_kill_tears_through_except_exception(self):
        from repro.faults import InjectedKill

        assert not issubclass(InjectedKill, Exception)
        assert issubclass(InjectedKill, BaseException)

    def test_repository_fault_points_are_known(self):
        for point in ("torn_write", "disk_full", "clock_skew"):
            assert point in faults.KNOWN_FAULT_POINTS


class TestClockSkew:
    def test_now_ms_honours_clock_skew(self):
        import time

        from repro.jobs.store import now_ms

        with faults.inject("clock_skew:param=-60000"):
            skewed = now_ms()
        assert abs((time.time() * 1000.0 - 60_000.0) - skewed) < 5_000.0

    def test_now_ms_unskewed_without_plan(self):
        import time

        from repro.jobs.store import now_ms

        assert abs(now_ms() - time.time() * 1000.0) < 5_000.0
