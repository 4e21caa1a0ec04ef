"""Tests for stationary solvers (dense and GTH)."""

import numpy as np
import pytest

from repro.markov import (
    stationary_distribution,
    stationary_distribution_dense,
    stationary_distribution_gth,
)

TWO_STATE = np.array([[-2.0, 2.0], [3.0, -3.0]])
TWO_STATE_PI = np.array([0.6, 0.4])


@pytest.mark.parametrize(
    "solver",
    [stationary_distribution, stationary_distribution_dense, stationary_distribution_gth],
)
class TestAllSolvers:
    def test_two_state_closed_form(self, solver):
        np.testing.assert_allclose(solver(TWO_STATE), TWO_STATE_PI, atol=1e-12)

    def test_result_is_distribution(self, solver):
        # Birth-death chain: births 1, 2, 3 and deaths 2, 2, 2.
        q = np.diag([1.0, 2.0, 3.0], 1) + np.diag([2.0, 2.0, 2.0], -1)
        np.fill_diagonal(q, -q.sum(axis=1))
        pi = solver(q)
        assert np.all(pi >= 0)
        np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-12)

    def test_balance_equations_hold(self, solver):
        rng = np.random.default_rng(7)
        q = rng.uniform(0.1, 5.0, size=(6, 6))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        pi = solver(q)
        np.testing.assert_allclose(pi @ q, np.zeros(6), atol=1e-10)

    def test_symmetric_ring_is_uniform(self, solver):
        n = 5
        q = np.zeros((n, n))
        for i in range(n):
            q[i, (i + 1) % n] = 1.0
            q[i, (i - 1) % n] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        np.testing.assert_allclose(solver(q), np.full(n, 1.0 / n), atol=1e-12)


class TestGTHRobustness:
    def test_extreme_rate_ratios(self):
        # Rates spanning 12 orders of magnitude: GTH must stay exact.
        q = np.array(
            [
                [-1e-6, 1e-6, 0.0],
                [1e6, -(1e6 + 1e-6), 1e-6],
                [0.0, 1.0, -1.0],
            ]
        )
        pi = stationary_distribution_gth(q)
        np.testing.assert_allclose(pi @ q, np.zeros(3), atol=1e-9 * 1e6)
        # Detailed-balance-style sanity: state 0 dominates.
        assert pi[0] > 0.99

    def test_reducible_chain_raises(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution_gth(q)

    def test_matches_dense_on_random_chains(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            q = rng.uniform(0.0, 3.0, size=(n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            np.testing.assert_allclose(
                stationary_distribution_gth(q),
                stationary_distribution_dense(q),
                atol=1e-9,
            )


class TestAutoDispatch:
    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            stationary_distribution(TWO_STATE, method="qr")

    def test_explicit_methods_agree(self):
        a = stationary_distribution(TWO_STATE, method="dense")
        b = stationary_distribution(TWO_STATE, method="gth")
        np.testing.assert_allclose(a, b, atol=1e-12)
