"""Tests for engine statistics aggregation."""

import json
import math

from repro.engine import EngineStats, SolveRecord
from repro.qbd import SolveStats


def stats(algorithm="functional", iterations=5, wall=1.5, sp=0.9, degraded=False):
    return SolveStats(
        algorithm=algorithm,
        iterations=iterations,
        wall_time_ms=wall,
        spectral_radius=sp,
        degraded=degraded,
    )


class TestSolveRecord:
    def test_as_dict(self):
        record = SolveRecord("abc", cache_hit=False, stats=stats())
        payload = record.as_dict()
        assert payload["fingerprint"] == "abc"
        assert payload["cache_hit"] is False
        assert payload["stats"]["algorithm"] == "functional"

    def test_as_dict_without_stats(self):
        assert SolveRecord("abc", True, None).as_dict()["stats"] is None


class TestEngineStats:
    def filled(self):
        es = EngineStats()
        es.add(SolveRecord("a", False, stats("logarithmic-reduction", 7, 2.0, 0.9, False)))
        es.add(SolveRecord("b", False, stats("functional", 5, 30.0, 0.95, True)))
        es.add(SolveRecord("a", True, stats("logarithmic-reduction", 7, 2.0, 0.9, False)))
        return es

    def test_counts(self):
        es = self.filled()
        assert es.solves == 3
        assert es.cache_hits == 1
        assert es.solver_calls == 2
        assert es.degraded_solves == 1

    def test_totals_exclude_cache_hits(self):
        es = self.filled()
        assert es.total_iterations == 12
        assert es.total_wall_time_ms == 32.0

    def test_max_spectral_radius(self):
        assert self.filled().max_spectral_radius == 0.95
        assert math.isnan(EngineStats().max_spectral_radius)

    def test_algorithm_counts(self):
        assert self.filled().algorithm_counts() == {
            "logarithmic-reduction": 1,
            "functional": 1,
        }

    def test_summary_is_json_serializable(self):
        summary = self.filled().summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["solves"] == 3

    def test_write_json(self, tmp_path):
        path = tmp_path / "bench.json"
        self.filled().write_json(path, include_records=True)
        payload = json.loads(path.read_text())
        assert payload["summary"]["solver_calls"] == 2
        assert len(payload["records"]) == 3

    def test_extend_and_clear(self):
        es = EngineStats()
        es.extend(self.filled().records)
        assert es.solves == 3
        es.clear()
        assert es.solves == 0
