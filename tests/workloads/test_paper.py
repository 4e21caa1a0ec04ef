"""Tests for the paper workloads."""

import numpy as np
import pytest

from repro.processes import fit_mmpp2
from repro.workloads import (
    SERVICE_RATE_PER_MS,
    SERVICE_TIME_MS,
    WORKLOADS,
    WorkloadSpec,
    email,
    software_development,
    user_accounts,
)


class TestServiceProcess:
    def test_paper_service_time(self):
        assert SERVICE_TIME_MS == 6.0
        assert SERVICE_RATE_PER_MS == pytest.approx(1 / 6.0)


class TestFittedWorkloads:
    @pytest.mark.parametrize("key", list(WORKLOADS))
    def test_utilization_matches_spec(self, key):
        spec = WORKLOADS[key]
        mmpp = spec.fit()
        util = mmpp.mean_rate / SERVICE_RATE_PER_MS
        assert util == pytest.approx(spec.base_utilization, rel=1e-6)

    @pytest.mark.parametrize("key", list(WORKLOADS))
    def test_scv_matches_spec(self, key):
        spec = WORKLOADS[key]
        assert spec.fit().scv == pytest.approx(spec.scv, rel=1e-6)

    @pytest.mark.parametrize("key", list(WORKLOADS))
    def test_acf_decay_matches_spec(self, key):
        spec = WORKLOADS[key]
        acf = spec.fit().acf(2)
        assert acf[1] / acf[0] == pytest.approx(spec.acf_decay, abs=1e-6)

    def test_email_has_high_persistent_acf(self):
        acf = email().acf(100)
        assert acf[0] > 0.25
        assert acf[99] > 0.15  # still strong at lag 100 (LRD-like)

    def test_software_dev_has_low_fast_decaying_acf(self):
        acf = software_development().acf(100)
        assert acf[0] < 0.15
        assert acf[39] < 0.01  # gone by lag 40 (SRD)

    def test_user_accounts_between(self):
        acf = user_accounts().acf(100)
        assert email().acf_at(50) > acf[49] > software_development().acf_at(50)

    def test_acf_ordering_at_lag_one(self):
        assert email().acf_at(1) > user_accounts().acf_at(1) > software_development().acf_at(1)

    def test_fits_are_cached(self):
        assert email() is email()
        assert WORKLOADS["email"].fit() is email()

    def test_fig1_fits_each_workload_once(self, monkeypatch):
        from repro.experiments.figures import fig1_trace_acf
        from repro.workloads import paper

        calls = []

        def counting_fit(**kwargs):
            calls.append(kwargs)
            return fit_mmpp2(**kwargs)

        monkeypatch.setattr(paper, "fit_mmpp2", counting_fit)
        WorkloadSpec.fit.cache_clear()
        try:
            fig1_trace_acf(samples=1000)
        finally:
            WorkloadSpec.fit.cache_clear()
        assert len(calls) == 3

    def test_all_orders_are_two(self):
        for accessor in (email, software_development, user_accounts):
            assert accessor().order == 2
