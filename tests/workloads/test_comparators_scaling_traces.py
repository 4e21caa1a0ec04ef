"""Tests for the Section 5.4 comparators and trace I/O."""

import numpy as np
import pytest

from repro.processes import InterruptedPoissonProcess, PoissonProcess
from repro.workloads import (
    COMPARATOR_NAMES,
    dependence_comparators,
    email,
    generate_trace,
    load_trace,
    save_trace,
    trace_summary,
)


class TestComparators:
    def test_has_all_four(self):
        comps = dependence_comparators("email")
        assert set(comps) == set(COMPARATOR_NAMES)

    def test_all_share_mean_rate(self):
        comps = dependence_comparators("email")
        rates = {k: v.mean_rate for k, v in comps.items()}
        target = email().mean_rate
        for k, r in rates.items():
            assert r == pytest.approx(target, rel=1e-6), k

    def test_cv_matched_except_expo(self):
        comps = dependence_comparators("email")
        target = email().scv
        for k in ("high_acf", "low_acf", "ipp"):
            assert comps[k].scv == pytest.approx(target, rel=1e-6), k
        assert comps["expo"].scv == pytest.approx(1.0)

    def test_dependence_ordering(self):
        comps = dependence_comparators("email")
        assert comps["high_acf"].acf_at(10) > comps["low_acf"].acf_at(10)
        np.testing.assert_allclose(comps["ipp"].acf(10), 0.0, atol=1e-10)
        np.testing.assert_allclose(comps["expo"].acf(10), 0.0, atol=1e-12)

    def test_types(self):
        comps = dependence_comparators("email")
        assert isinstance(comps["ipp"], InterruptedPoissonProcess)
        assert isinstance(comps["expo"], PoissonProcess)

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="unknown workload"):
            dependence_comparators("payroll")


class TestTraces:
    def test_generate_matches_process_mean(self, rng):
        trace = generate_trace(email(), 40_000, rng)
        assert trace.mean() == pytest.approx(email().mean_interarrival, rel=0.2)

    def test_roundtrip(self, tmp_path, rng):
        trace = generate_trace(PoissonProcess(0.2), 100, rng)
        path = tmp_path / "trace.txt"
        save_trace(path, trace)
        loaded = load_trace(path)
        np.testing.assert_allclose(loaded, trace, rtol=1e-8)

    def test_save_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            save_trace(tmp_path / "x.txt", np.array([1.0, -2.0]))

    def test_load_rejects_negative(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n-3.0\n")
        with pytest.raises(ValueError, match="negative"):
            load_trace(path)

    def test_summary_fields(self, rng):
        trace = generate_trace(PoissonProcess(0.2), 5000, rng)
        s = trace_summary(trace, lags=10)
        assert s.count == 5000
        assert s.cv == pytest.approx(1.0, abs=0.1)

    def test_generate_rejects_bad_n(self, rng):
        with pytest.raises(ValueError, match=">= 1"):
            generate_trace(PoissonProcess(0.2), 0, rng)
