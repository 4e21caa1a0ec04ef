"""Tests for phase-type distributions."""

import numpy as np
import pytest

from repro.processes import PhaseType


class TestConstruction:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="probability"):
            PhaseType(np.array([0.5, 0.2]), -np.eye(2))

    def test_rejects_non_square_t(self):
        with pytest.raises(ValueError, match="square"):
            PhaseType(np.array([1.0]), np.ones((1, 2)))

    def test_rejects_positive_row_sums(self):
        t = np.array([[-1.0, 2.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="row sums"):
            PhaseType(np.array([0.5, 0.5]), t)

    def test_rejects_singular_t(self):
        t = np.array([[-1.0, 1.0], [1.0, -1.0]])  # no exit: never absorbs
        with pytest.raises(ValueError, match="singular"):
            PhaseType(np.array([0.5, 0.5]), t)


class TestExponential:
    def test_mean(self):
        assert PhaseType.exponential(0.5).mean == pytest.approx(2.0)

    def test_scv_is_one(self):
        assert PhaseType.exponential(3.0).scv == pytest.approx(1.0)

    def test_cdf(self):
        d = PhaseType.exponential(2.0)
        assert d.cdf(1.0) == pytest.approx(1 - np.exp(-2.0))

    def test_pdf(self):
        d = PhaseType.exponential(2.0)
        assert d.pdf(0.5) == pytest.approx(2.0 * np.exp(-1.0))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            PhaseType.exponential(-1.0)


class TestErlang:
    def test_mean_and_scv(self):
        d = PhaseType.erlang(4, 2.0)
        assert d.mean == pytest.approx(2.0)
        assert d.scv == pytest.approx(0.25)

    def test_single_stage_is_exponential(self):
        e = PhaseType.erlang(1, 3.0)
        assert e.scv == pytest.approx(1.0)

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError, match=">= 1"):
            PhaseType.erlang(0, 1.0)


class TestHyperexponential:
    def test_moments(self):
        p = np.array([0.3, 0.7])
        mu = np.array([2.0, 0.5])
        d = PhaseType.hyperexponential(p, mu)
        assert d.mean == pytest.approx(0.3 / 2.0 + 0.7 / 0.5)
        assert d.scv > 1.0

    def test_h2_balanced_matches_targets(self):
        d = PhaseType.h2_balanced(mean=3.0, scv=4.0)
        assert d.mean == pytest.approx(3.0)
        assert d.scv == pytest.approx(4.0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="probability"):
            PhaseType.hyperexponential(np.array([0.5, 0.6]), np.array([1.0, 2.0]))


class TestNumerics:
    def test_moment_matches_variance(self):
        d = PhaseType.erlang(3, 1.5)
        assert d.variance == pytest.approx(d.moment(2) - d.mean**2)

    def test_cdf_monotone(self):
        d = PhaseType.h2_balanced(mean=1.0, scv=5.0)
        xs = np.linspace(0, 10.0, 50)
        cdf = d.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0)

    def test_cdf_of_negative_is_zero(self):
        assert PhaseType.exponential(1.0).cdf(-1.0) == 0.0

    def test_pdf_integrates_to_one(self):
        d = PhaseType.erlang(2, 1.0)
        xs = np.linspace(0, 40.0, 8001)
        integral = np.trapezoid(d.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-5)

    def test_sampling_mean_close(self):
        d = PhaseType.erlang(2, 1.0)
        rng = np.random.default_rng(0)
        samples = d.sample(rng, size=4000)
        assert samples.mean() == pytest.approx(d.mean, rel=0.1)
        assert np.all(samples > 0)

    def test_sampling_requires_positive_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            PhaseType.exponential(1.0).sample(np.random.default_rng(0), size=0)

    def test_sample_stream_is_pinned(self):
        # Each phase choice is one uniform looked up in a cumulative row,
        # the draw and index of Generator.choice(p=...).  The simulator's
        # PH service and idle waits depend on this stream; these values
        # pin it.
        erlang = PhaseType.erlang(3, 0.5).sample(np.random.default_rng(11), size=8)
        assert erlang.tolist() == [
            8.749930984701725,
            3.308412806155066,
            11.277910098227748,
            8.628097481884948,
            2.6211777005681878,
            1.4316565677497008,
            3.390920088365877,
            6.501257785115201,
        ]
        h2 = PhaseType.hyperexponential(np.array([0.3, 0.7]), np.array([2.0, 0.25]))
        assert h2.sample(np.random.default_rng(11), size=8).tolist() == [
            0.269153503921155,
            0.058292186968034794,
            0.09434707697237925,
            2.8151259999982474,
            4.064880803557813,
            5.420764512833971,
            6.949213793108884,
            0.2777859043223527,
        ]
