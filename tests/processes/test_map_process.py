"""Tests for the MAP base class."""

import numpy as np
import pytest

from repro.markov import stationary_distribution
from repro.processes import MMPP, MarkovianArrivalProcess, PoissonProcess


def make_map() -> MarkovianArrivalProcess:
    d0 = np.array([[-3.0, 1.0], [0.5, -2.0]])
    d1 = np.array([[1.0, 1.0], [0.5, 1.0]])
    return MarkovianArrivalProcess(d0, d1)


class TestConstruction:
    def test_valid_map_accepted(self):
        m = make_map()
        assert m.order == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            MarkovianArrivalProcess(np.eye(2) * -1, np.ones((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            MarkovianArrivalProcess(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_negative_d1(self):
        d0 = np.array([[-1.0, 2.0], [1.0, -2.0]])
        d1 = np.array([[0.0, -1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            MarkovianArrivalProcess(d0, d1)

    def test_rejects_negative_offdiagonal_d0(self):
        d0 = np.array([[-1.0, -0.5], [1.0, -2.0]])
        d1 = np.array([[1.5, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="off-diagonal"):
            MarkovianArrivalProcess(d0, d1)

    def test_rejects_bad_row_sums(self):
        d0 = np.array([[-3.0, 1.0], [0.5, -2.0]])
        d1 = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            MarkovianArrivalProcess(d0, d1)

    def test_rejects_zero_d1(self):
        d0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="never produces arrivals"):
            MarkovianArrivalProcess(d0, np.zeros((2, 2)))

    def test_matrices_are_read_only(self):
        m = make_map()
        with pytest.raises(ValueError):
            m.d0[0, 0] = 5.0


class TestDescriptors:
    def test_mean_rate_equals_inverse_mean_interarrival(self):
        m = make_map()
        np.testing.assert_allclose(m.mean_rate, 1.0 / m.mean_interarrival, rtol=1e-12)

    def test_phase_stationary_solves_balance(self):
        m = make_map()
        np.testing.assert_allclose(
            m.phase_stationary @ m.generator, np.zeros(2), atol=1e-12
        )

    def test_embedded_stationary_is_left_eigenvector(self):
        m = make_map()
        pi_e = m.embedded_stationary
        np.testing.assert_allclose(pi_e @ m.embedded_transition, pi_e, atol=1e-12)
        np.testing.assert_allclose(pi_e.sum(), 1.0, atol=1e-12)

    def test_embedded_transition_is_stochastic(self):
        m = make_map()
        np.testing.assert_allclose(m.embedded_transition.sum(axis=1), 1.0, atol=1e-12)

    def test_moment_ordering(self):
        m = make_map()
        assert m.interarrival_moment(2) > m.interarrival_moment(1) ** 2

    def test_invalid_moment_order(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_map().interarrival_moment(0)

    def test_scv_positive(self):
        assert make_map().scv > 0

    def test_cv_is_sqrt_of_scv(self):
        m = make_map()
        np.testing.assert_allclose(m.cv**2, m.scv, rtol=1e-12)

    def test_acf_within_bounds(self):
        acf = make_map().acf(50)
        assert np.all(acf <= 1.0) and np.all(acf >= -1.0)

    def test_acf_invalid_lags(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_map().acf(0)

    def test_acf_at_matches_acf_array(self):
        m = make_map()
        np.testing.assert_allclose(m.acf_at(7), m.acf(10)[6], rtol=1e-12)


class TestScaling:
    def test_scaled_by_changes_rate_only(self):
        m = make_map()
        s = m.scaled_by(3.0)
        np.testing.assert_allclose(s.mean_rate, 3.0 * m.mean_rate, rtol=1e-12)
        np.testing.assert_allclose(s.scv, m.scv, rtol=1e-12)
        np.testing.assert_allclose(s.acf(20), m.acf(20), atol=1e-12)

    def test_scaled_to_rate(self):
        s = make_map().scaled_to_rate(0.25)
        np.testing.assert_allclose(s.mean_rate, 0.25, rtol=1e-12)

    def test_scaled_to_utilization(self):
        s = make_map().scaled_to_utilization(0.8, service_rate=2.0)
        np.testing.assert_allclose(s.mean_rate, 1.6, rtol=1e-12)

    def test_scaling_preserves_subclass(self):
        m = MMPP.two_state(v1=1.0, v2=2.0, l1=3.0, l2=0.5)
        assert isinstance(m.scaled_by(2.0), MMPP)

    def test_invalid_factor_raises(self):
        with pytest.raises(ValueError, match="positive"):
            make_map().scaled_by(0.0)

    def test_invalid_utilization_raises(self):
        with pytest.raises(ValueError, match="positive"):
            make_map().scaled_to_utilization(-0.1, 1.0)


def assert_same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCertifiedScaling:
    """Scaling a certified MAP or MMPP skips the constructor's checks and
    stores exactly what the validating path stores."""

    @pytest.mark.parametrize("factor", [0.37, 1.0, 2.9])
    def test_mmpp_copy_matches_validating_path(self, factor):
        m = MMPP.two_state(v1=0.013, v2=0.4, l1=0.31, l2=0.0007)
        scaled = m.scaled_by(factor)
        reference = MMPP.from_map_matrices(m.d0 * factor, m.d1 * factor)
        assert type(scaled) is MMPP and scaled._generator_validated
        for name in ("d0", "d1", "modulating_generator", "arrival_rates"):
            assert_same_bits(getattr(scaled, name), getattr(reference, name))
        assert not scaled.d0.flags.writeable and not scaled.d1.flags.writeable
        # GTH of the scaled generator, as the validating solve computes it.
        assert_same_bits(
            scaled.phase_stationary, stationary_distribution(reference.generator)
        )
        assert scaled.mean_rate == reference.mean_rate

    def test_map_copy_matches_validating_path(self):
        m = make_map()
        scaled = m.scaled_by(1.7)
        reference = MarkovianArrivalProcess(m.d0 * 1.7, m.d1 * 1.7)
        assert type(scaled) is MarkovianArrivalProcess
        assert_same_bits(scaled.d0, reference.d0)
        assert_same_bits(scaled.d1, reference.d1)
        assert_same_bits(
            scaled.phase_stationary, stationary_distribution(reference.generator)
        )

    def test_writable_matrices_take_the_validating_path(self, monkeypatch):
        m = MMPP.two_state(v1=1.0, v2=2.0, l1=3.0, l2=0.5)
        m.d0.setflags(write=True)
        checked = []
        monkeypatch.setattr(
            MMPP, "from_map_matrices", classmethod(lambda cls, d0, d1: checked.append(1))
        )
        m.scaled_by(2.0)
        assert checked == [1]

    def test_subclasses_keep_their_constructors(self):
        from repro.processes import InterruptedPoissonProcess

        ipp = InterruptedPoissonProcess(rate_on=2.0, on_to_off=0.5, off_to_on=1.0)
        assert type(ipp.scaled_by(2.0)) is InterruptedPoissonProcess
        assert type(PoissonProcess(1.0).scaled_by(2.0)) is PoissonProcess


class TestSuperposition:
    def test_superposed_rate_adds(self):
        a = PoissonProcess(0.3)
        b = PoissonProcess(0.7)
        s = a.superpose(b)
        np.testing.assert_allclose(s.mean_rate, 1.0, rtol=1e-12)

    def test_superposed_poissons_remain_poisson_like(self):
        s = PoissonProcess(0.3).superpose(PoissonProcess(0.7))
        np.testing.assert_allclose(s.scv, 1.0, atol=1e-10)
        np.testing.assert_allclose(s.acf(5), 0.0, atol=1e-10)

    def test_superposition_order(self):
        a = MMPP.two_state(v1=1.0, v2=2.0, l1=3.0, l2=0.5)
        s = a.superpose(PoissonProcess(1.0))
        assert s.order == 2


class TestRenewalDetection:
    def test_poisson_is_renewal(self):
        assert PoissonProcess(1.0).is_renewal

    def test_bursty_mmpp_is_not_renewal(self):
        assert not MMPP.two_state(v1=1e-3, v2=1e-3, l1=1.0, l2=0.01).is_renewal


class TestDunder:
    def test_equality_and_hash(self):
        a = make_map()
        b = make_map()
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert make_map() != PoissonProcess(1.0)

    def test_repr_contains_rate(self):
        assert "rate=" in repr(make_map())
