"""Tests for the vacation-queue baselines."""

import numpy as np
import pytest

from repro.core import FgBgModel
from repro.processes import PoissonProcess
from repro.vacation import MM1Queue


class TestMM1:
    def test_mean_queue_length(self):
        q = MM1Queue(lam=1.0, mu=2.0)
        assert q.mean_queue_length == pytest.approx(1.0)

    def test_little_law(self):
        q = MM1Queue(lam=0.7, mu=1.0)
        assert q.mean_queue_length == pytest.approx(q.lam * q.mean_response_time)

    def test_waiting_plus_service_is_response(self):
        q = MM1Queue(lam=0.5, mu=2.0)
        assert q.mean_response_time == pytest.approx(q.mean_waiting_time + 1 / q.mu)

    def test_pmf_sums_to_near_one(self):
        q = MM1Queue(lam=0.5, mu=1.0)
        pmf = q.queue_length_pmf(60)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_matches_model(self):
        q = MM1Queue(lam=0.5, mu=1.0)
        np.testing.assert_allclose(q.queue_length_pmf(3), [0.5, 0.25, 0.125, 0.0625])

    def test_quantile_median(self):
        q = MM1Queue(lam=0.5, mu=1.0)
        assert q.response_time_quantile(0.5) == pytest.approx(np.log(2) * 2.0)

    def test_quantile_validation(self):
        with pytest.raises(ValueError, match="q must"):
            MM1Queue(lam=0.5, mu=1.0).response_time_quantile(1.5)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            MM1Queue(lam=2.0, mu=1.0)

    def test_matches_fgbg_model_at_p_zero(self):
        lam, mu = 0.06, 1 / 6.0
        q = MM1Queue(lam=lam, mu=mu)
        s = FgBgModel(arrival=PoissonProcess(lam), service_rate=mu, bg_probability=0.0).solve()
        assert s.fg_queue_length == pytest.approx(q.mean_queue_length, rel=1e-9)
        assert s.fg_response_time == pytest.approx(q.mean_response_time, rel=1e-9)


class TestMultipleVacations:
    def test_upper_bounds_fgbg_model_under_saturation(self):
        # With p = 1, an always-full background buffer and idle wait equal
        # to one mean vacation, the FG/BG system resembles (but is less
        # punishing than) a multiple-vacation queue: vacations end early
        # when FG work arrives mid-service only in the vacation model's
        # favour.  The decomposition bound should dominate the FG delay:
        # with exponential vacations of rate v, the vacation queue waits
        # the M/M/1 waiting time plus one mean vacation 1/v.
        lam, mu = 0.08, 1 / 6.0
        vacation_rate = mu
        wait = MM1Queue(lam=lam, mu=mu).mean_waiting_time + 1.0 / vacation_rate
        bound = lam * (wait + 1.0 / mu)  # Little's law
        s = FgBgModel(
            arrival=PoissonProcess(lam), service_rate=mu, bg_probability=1.0
        ).solve()
        assert s.fg_queue_length < bound
