"""Tests for the QBD boundary solve and stationary distribution."""

import numpy as np
import pytest

from repro.markov import stationary_distribution
from repro.processes import fit_mmpp2
from repro.qbd import QBDProcess, solve_boundary, solve_qbd


def mm1_qbd(lam: float = 1.0, mu: float = 2.0) -> QBDProcess:
    return QBDProcess.homogeneous(
        np.array([[lam]]), np.array([[-(lam + mu)]]), np.array([[mu]])
    )


def mmpp_m1_qbd(util: float = 0.7, mu: float = 1.0) -> QBDProcess:
    # decay 0.9 keeps sp(R) well below 1 so a few hundred truncated levels
    # capture the tail to ~1e-12 and the dense oracle is exact enough.
    mmpp = fit_mmpp2(rate=util * mu, scv=2.4, decay=0.9)
    a0 = mmpp.d1
    a1 = mmpp.d0 - mu * np.eye(2)
    a2 = mu * np.eye(2)
    return QBDProcess.homogeneous(a0, a1, a2)


class TestMM1ClosedForm:
    def test_geometric_solution(self):
        lam, mu = 1.0, 2.0
        rho = lam / mu
        sol = solve_qbd(mm1_qbd(lam, mu))
        np.testing.assert_allclose(sol.boundary, [1 - rho], atol=1e-10)
        for k in range(1, 6):
            np.testing.assert_allclose(sol.level(k), [(1 - rho) * rho**k], atol=1e-10)

    def test_mean_queue_length(self):
        lam, mu = 1.5, 2.0
        rho = lam / mu
        sol = solve_qbd(mm1_qbd(lam, mu))
        mean = float(sol.repeating_level_weighted.sum())
        np.testing.assert_allclose(mean, rho / (1 - rho), rtol=1e-10)

    def test_total_mass_is_one(self):
        sol = solve_qbd(mm1_qbd())
        assert sol.total_mass == pytest.approx(1.0, abs=1e-12)


class TestAgainstTruncatedChain:
    @pytest.mark.parametrize("util", [0.3, 0.5, 0.7])
    def test_matches_truncated_solve(self, util):
        qbd = mmpp_m1_qbd(util=util)
        sol = solve_qbd(qbd)
        levels = 600
        pi = stationary_distribution(qbd.truncated_generator(levels), method="dense")
        n_b = qbd.boundary_size
        np.testing.assert_allclose(pi[:n_b], sol.boundary, atol=1e-6)
        for k in range(1, 6):
            lo = n_b + (k - 1) * qbd.phase_count
            np.testing.assert_allclose(
                pi[lo : lo + qbd.phase_count], sol.level(k), atol=1e-6
            )

    def test_level_sums_match_truncation(self):
        qbd = mmpp_m1_qbd(util=0.5)
        sol = solve_qbd(qbd)
        levels = 300
        pi = stationary_distribution(qbd.truncated_generator(levels), method="dense")
        n_b, m = qbd.boundary_size, qbd.phase_count
        tail = pi[n_b:].reshape(levels, m)
        np.testing.assert_allclose(tail.sum(axis=0), sol.repeating_mass, atol=1e-8)
        weighted = (np.arange(1, levels + 1)[:, None] * tail).sum(axis=0)
        np.testing.assert_allclose(weighted, sol.repeating_level_weighted, atol=1e-6)


class TestDiagnostics:
    def test_residual_is_small(self):
        sol = solve_qbd(mmpp_m1_qbd())
        assert sol.residual(levels=8) < 1e-9

    def test_spectral_radius_below_one(self):
        sol = solve_qbd(mmpp_m1_qbd(util=0.9))
        assert 0 < sol.spectral_radius < 1

    def test_tail_mass_decreases(self):
        sol = solve_qbd(mmpp_m1_qbd(util=0.8))
        masses = [sol.tail_mass(k).sum() for k in range(1, 8)]
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_tail_mass_consistency(self):
        sol = solve_qbd(mmpp_m1_qbd())
        lhs = sol.tail_mass(1)
        np.testing.assert_allclose(lhs, sol.repeating_mass, atol=1e-12)

    def test_level_zero_rejected(self):
        sol = solve_qbd(mm1_qbd())
        with pytest.raises(ValueError, match="numbered from 1"):
            sol.level(0)

    def test_boundary_solve_shape_check(self):
        qbd = mm1_qbd()
        with pytest.raises(ValueError, match="shape"):
            solve_boundary(qbd, np.eye(2))


class TestLevelSumFactorization:
    """The LU refactor must not change any published quantity."""

    def test_residual_unchanged_by_lu_refactor(self):
        # The residual is the solution-quality oracle: computing the level
        # sums through the shared LU factorization (instead of a dense
        # inverse per quantity) must leave it at solver accuracy.
        sol = solve_qbd(mmpp_m1_qbd(util=0.7))
        assert sol.residual(levels=8) < 1e-9

    def test_level_sums_match_explicit_inverse(self):
        sol = solve_qbd(mmpp_m1_qbd(util=0.8))
        inv = np.linalg.inv(np.eye(sol.r.shape[0]) - sol.r)
        pi1 = sol.level(1)
        np.testing.assert_allclose(
            sol.repeating_mass, pi1 @ inv, atol=1e-12
        )
        np.testing.assert_allclose(
            sol.repeating_level_weighted, pi1 @ inv @ inv, atol=1e-12
        )
        np.testing.assert_allclose(
            sol.tail_mass(3), sol.level(3) @ inv, atol=1e-12
        )

    def test_levels_are_memoized(self):
        sol = solve_qbd(mmpp_m1_qbd())
        assert sol.level(4) is sol.level(4)


class TestRepr:
    def test_repr_mentions_spectral_radius(self):
        assert "spectral_radius" in repr(solve_qbd(mm1_qbd()))
