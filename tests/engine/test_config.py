"""Tests for EngineConfig and the engine's progress/cancel hooks."""

import numpy as np
import pytest

from repro.core import FgBgModel
from repro.engine import EngineConfig, SolveCache, SweepCancelled, SweepEngine
from repro.processes import PoissonProcess
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


def models(n=3, p=0.3):
    base = FgBgModel(
        arrival=PoissonProcess(0.01), service_rate=MU, bg_probability=p
    )
    return [base.at_utilization(u) for u in np.linspace(0.2, 0.6, n)]


def summary_without_timings(stats) -> dict:
    """EngineStats.summary() minus the wall-clock fields (never equal)."""
    payload = stats.summary()
    payload.pop("total_wall_time_ms")
    for group in payload.get("batch_groups", ()):
        group.pop("wall_time_ms")
    return payload


class TestValidation:
    def test_defaults_are_valid_and_default(self):
        # Four fields, no more: every other engine setting has one value.
        assert EngineConfig().as_dict() == {
            "cache_dir": None,
            "batched": False,
            "on_error": "raise",
            "escalate": False,
        }

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("on_error", "explode", "on_error must be one of"),
        ],
    )
    def test_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            EngineConfig(**{field: value})

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="on_error must be one of"):
            EngineConfig().replace(on_error="explode")

    def test_round_trip(self):
        config = EngineConfig(
            cache_dir="/tmp/c", batched=True, on_error="collect", escalate=True
        )
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"jbos": 2})


class TestBuildCache:
    def test_memory_cache(self):
        # Every engine caches in memory; no directory means no disk layer.
        cache = EngineConfig().build_cache()
        assert isinstance(cache, SolveCache)
        assert cache.directory is None

    def test_disk_cache(self, tmp_path):
        cache = EngineConfig(cache_dir=str(tmp_path / "c")).build_cache()
        assert str(cache.directory) == str(tmp_path / "c")


class TestEquivalence:
    """config.build_engine() and SweepEngine(config) are one engine."""

    def test_engine_attributes_match(self):
        config = EngineConfig(batched=True, on_error="collect")
        via_init = SweepEngine(config)
        via_build = config.build_engine()
        assert via_init.config == via_build.config == config
        assert via_init.cache is not via_build.cache

    def test_identical_engine_stats(self):
        """The acceptance check: same chain, same stats summary."""
        chain = models()
        via_init = SweepEngine(EngineConfig())
        via_build = EngineConfig().build_engine()
        a = via_init.solve_batch(chain)
        b = via_build.solve_batch(chain)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(
                [x.fg_queue_length, x.bg_queue_length],
                [y.fg_queue_length, y.bg_queue_length],
            )
        assert summary_without_timings(via_init.stats) == summary_without_timings(
            via_build.stats
        )

    def test_invalid_override_rejected(self):
        # The config is the only way in: the keyword spellings of its
        # fields (and the removed solver settings) are not arguments.
        for name in ("cache", "batched", "algorithm", "tol", "on_error", "escalate"):
            with pytest.raises(TypeError, match=name):
                SweepEngine(config=EngineConfig(), **{name: None})


class TestHooks:
    def test_progress_ticks_once_per_point(self):
        ticks = []
        engine = SweepEngine(progress=ticks.append)
        engine.solve_batch(models(3))
        assert sum(ticks) == 3

    def test_progress_counts_cache_hits(self):
        ticks = []
        engine = SweepEngine(progress=ticks.append)
        engine.solve_batch(models(3))
        engine.solve_batch(models(3))
        assert sum(ticks) == 6
        assert engine.stats.cache_hits == 3

    def test_progress_ticks_across_chains(self):
        ticks = []
        engine = SweepEngine(progress=ticks.append)
        chains = [models(2, p=0.1), models(2, p=0.6)]
        engine.run_chains(chains)
        assert sum(ticks) == 4

    def test_progress_ticks_when_batched(self):
        ticks = []
        engine = SweepEngine(EngineConfig(batched=True), progress=ticks.append)
        engine.solve_batch(models(3))
        assert sum(ticks) == 3

    def test_cancel_checked_before_first_solve(self):
        engine = SweepEngine(cancel=lambda: True)
        with pytest.raises(SweepCancelled):
            engine.solve_batch(models(2))
        assert engine.stats.solves == 0

    def test_cancel_mid_chain_stops_promptly(self):
        # The cancel hook is polled before each stacked solve: a cancel
        # that lands after the first chain's progress stops the second.
        done = []

        def cancel_after_one():
            return len(done) >= 1

        engine = SweepEngine(progress=done.append, cancel=cancel_after_one)
        chain = models(4)
        with pytest.raises(SweepCancelled):
            engine.solve_batch(chain[:2])
            engine.solve_batch(chain[2:])
        assert sum(done) < 4

    def test_cancel_never_becomes_a_nan_point(self):
        """SweepCancelled must not be swallowed by on_error isolation."""
        engine = SweepEngine(EngineConfig(on_error="collect"), cancel=lambda: True)
        with pytest.raises(SweepCancelled):
            engine.solve_batch(models(2))
        assert engine.stats.failures == []

    def test_no_hooks_by_default(self):
        engine = SweepEngine()
        assert engine.progress is None
        assert engine.cancel is None


class TestStatsSummaryKeys:
    def test_recovered_work_counters_always_present(self):
        engine = SweepEngine()
        engine.solve_batch(models(1))
        summary = engine.stats.summary()
        assert summary["cache_quarantined"] == 0
