"""Tests for the M/G/1-type solver (Ramaswami's formula)."""

import numpy as np
import pytest

from repro.markov import stationary_distribution
from repro.processes import fit_mmpp2
from repro.qbd import QBDProcess, solve_qbd
from repro.qbd.mg1 import MG1Process, g_matrix_mg1, solve_mg1


def mm1_process(lam=1.0, mu=2.0) -> MG1Process:
    return MG1Process(
        boundary_blocks=(np.array([[-lam]]), np.array([[lam]])),
        down_block=np.array([[mu]]),
        repeating_blocks=(
            np.array([[mu]]),
            np.array([[-(lam + mu)]]),
            np.array([[lam]]),
        ),
    )


def batch2_process(lam=0.5, mu=2.0) -> MG1Process:
    """Poisson arrivals in batches of 2, exponential single service."""
    return MG1Process(
        boundary_blocks=(np.array([[-lam]]), np.zeros((1, 1)), np.array([[lam]])),
        down_block=np.array([[mu]]),
        repeating_blocks=(
            np.array([[mu]]),
            np.array([[-(lam + mu)]]),
            np.zeros((1, 1)),
            np.array([[lam]]),
        ),
    )


def mmpp_batch_process(util=0.5, mu=1.0, batch=2) -> MG1Process:
    """MMPP(2)-modulated batch arrivals: a 2-phase M/G/1-type chain."""
    mmpp = fit_mmpp2(rate=util * mu / batch, scv=2.0, decay=0.9)
    d0, d1 = mmpp.d0, mmpp.d1
    eye = np.eye(2)
    a_blocks = [mu * eye, d0 - mu * eye] + [np.zeros((2, 2))] * (batch - 1) + [d1]
    b_blocks = [d0] + [np.zeros((2, 2))] * (batch - 1) + [d1]
    return MG1Process(
        boundary_blocks=tuple(b_blocks),
        down_block=mu * eye,
        repeating_blocks=tuple(a_blocks),
    )


class TestValidation:
    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError, match="at least"):
            MG1Process(
                boundary_blocks=(np.array([[-1.0]]),),
                down_block=np.array([[1.0]]),
                repeating_blocks=(np.array([[1.0]]), np.array([[-1.0]])),
            )

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to zero"):
            MG1Process(
                boundary_blocks=(np.array([[-1.0]]), np.array([[2.0]])),
                down_block=np.array([[2.0]]),
                repeating_blocks=(
                    np.array([[2.0]]),
                    np.array([[-3.0]]),
                    np.array([[1.0]]),
                ),
            )

    def test_rejects_negative_blocks(self):
        with pytest.raises(ValueError, match="non-negative"):
            MG1Process(
                boundary_blocks=(np.array([[-1.0]]), np.array([[1.0]])),
                down_block=np.array([[-2.0]]),
                repeating_blocks=(
                    np.array([[2.0]]),
                    np.array([[-3.0]]),
                    np.array([[1.0]]),
                ),
            )

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="not positive recurrent"):
            solve_mg1(batch2_process(lam=1.5, mu=2.0))  # batch drift 2*1.5 > 2

    def test_drift_of_batch_queue(self):
        # Net drift = 2*lam - mu.
        assert batch2_process(lam=0.5, mu=2.0).drift == pytest.approx(-1.0)


class TestGMatrix:
    def test_g_is_stochastic(self):
        proc = mmpp_batch_process()
        g = g_matrix_mg1(proc.repeating_blocks)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(g >= -1e-12)

    def test_g_solves_power_series(self):
        proc = mmpp_batch_process()
        a = proc.repeating_blocks
        g = g_matrix_mg1(a)
        residual = a[0] + a[1] @ g + a[2] @ g @ g + a[3] @ g @ g @ g
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_slow_switching_qbd_g_is_stochastic_and_agrees(self):
        # Three phases switching at rate 0.01, one of them overloaded: the
        # iteration from zero stopped with G e short of e by 2.6e-9, and the
        # censored boundary generator then failed its row-sum check.
        mu = 4.8375
        gen = np.full((3, 3), 0.01)
        np.fill_diagonal(gen, -0.02)
        d1 = np.diag(np.array([50.0, 1.0, 1.0]) * (3.7852 / 52.0 * 3.0))
        qbd = QBDProcess.homogeneous(d1, gen - d1 - mu * np.eye(3), mu * np.eye(3))
        blocks = (qbd.a2, qbd.a1, qbd.a0)
        g = g_matrix_mg1(blocks)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
        mg1_sol = solve_mg1(
            MG1Process(
                boundary_blocks=(qbd.b00, qbd.b01),
                down_block=qbd.b10,
                repeating_blocks=blocks,
            )
        )
        qbd_sol = solve_qbd(qbd)
        np.testing.assert_allclose(mg1_sol.boundary, qbd_sol.boundary, atol=1e-10)
        for k in range(1, 5):
            np.testing.assert_allclose(mg1_sol.level(k), qbd_sol.level(k), atol=1e-10)


class TestAgainstClosedForms:
    def test_mm1_geometric(self):
        lam, mu = 1.0, 2.0
        sol = solve_mg1(mm1_process(lam, mu))
        rho = lam / mu
        assert sol.boundary[0] == pytest.approx(1 - rho, rel=1e-10)
        for k in range(1, 8):
            assert sol.level(k)[0] == pytest.approx((1 - rho) * rho**k, rel=1e-9)

    def test_mm1_matches_qbd_solver(self):
        lam, mu = 0.8, 1.0
        qbd = QBDProcess.homogeneous(
            np.array([[lam]]), np.array([[-(lam + mu)]]), np.array([[mu]])
        )
        qbd_sol = solve_qbd(qbd)
        mg1_sol = solve_mg1(mm1_process(lam, mu))
        assert mg1_sol.boundary[0] == pytest.approx(qbd_sol.boundary[0], rel=1e-9)
        for k in range(1, 6):
            assert mg1_sol.level(k)[0] == pytest.approx(
                float(qbd_sol.level(k)[0]), rel=1e-8
            )


class TestAgainstTruncatedChain:
    @pytest.mark.parametrize("proc_factory", [batch2_process, mmpp_batch_process])
    def test_levels_match_dense_solve(self, proc_factory):
        proc = proc_factory()
        sol = solve_mg1(proc)
        pi = stationary_distribution(proc.truncated_generator(300), method="dense")
        n_b, m = proc.boundary_size, proc.phase_count
        np.testing.assert_allclose(pi[:n_b], sol.boundary, atol=1e-9)
        for k in range(1, 10):
            lo = n_b + (k - 1) * m
            np.testing.assert_allclose(pi[lo : lo + m], sol.level(k), atol=1e-9)

    def test_mass_and_mean(self):
        sol = solve_mg1(batch2_process())
        assert sol.total_mass == pytest.approx(1.0, abs=1e-10)
        pi = stationary_distribution(
            batch2_process().truncated_generator(300), method="dense"
        )
        expected_mean = float(np.arange(301) @ pi)
        assert sol.mean_level() == pytest.approx(expected_mean, rel=1e-8)


class TestAccessors:
    def test_level_zero_rejected(self):
        with pytest.raises(ValueError, match="numbered from 1"):
            solve_mg1(mm1_process()).level(0)

    def test_levels_beyond_truncation_are_zero(self):
        sol = solve_mg1(mm1_process())
        far = sol.level(sol.computed_levels + 50)
        np.testing.assert_array_equal(far, 0.0)

    def test_truncated_generator_levels_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            mm1_process().truncated_generator(0)
