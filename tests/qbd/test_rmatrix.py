"""Tests for R/G matrix algorithms."""

import numpy as np
import pytest

from repro.qbd import (
    SolveStats,
    batched_r_matrix,
    drift,
    g_matrix_logarithmic_reduction,
    is_stable,
    r_matrix,
    r_matrix_from_g,
    r_matrix_functional_iteration,
    r_matrix_natural_iteration,
)
from repro.qbd.rmatrix import _closed_classes

LAM, MU = 1.0, 2.0
MM1 = (np.array([[LAM]]), np.array([[-(LAM + MU)]]), np.array([[MU]]))


def solve_one(a0, a1, a2):
    """R and its SolveStats from a one-item batched_r_matrix."""
    r, stats, _ = batched_r_matrix(a0[None], a1[None], a2[None])
    return r[0], stats[0]


def mmpp_m1_blocks(util: float = 0.7, mu: float = 1.0):
    """Repeating blocks of an MMPP(2)/M/1 queue at the given utilization."""
    from repro.processes import fit_mmpp2

    mmpp = fit_mmpp2(rate=util * mu, scv=2.4, decay=0.98)
    d0, d1 = mmpp.d0, mmpp.d1
    a0 = d1
    a1 = d0 - mu * np.eye(2)
    a2 = mu * np.eye(2)
    return a0, a1, a2


class TestDriftAndStability:
    def test_mm1_drift_is_lambda_minus_mu(self):
        assert drift(*MM1) == pytest.approx(LAM - MU)

    def test_stable_mm1(self):
        assert is_stable(*MM1)

    def test_unstable_when_lam_exceeds_mu(self):
        a0, a1, a2 = np.array([[3.0]]), np.array([[-5.0]]), np.array([[2.0]])
        assert not is_stable(a0, a1, a2)

    def test_mmpp_drift_matches_rates(self):
        a0, a1, a2 = mmpp_m1_blocks(util=0.7)
        assert drift(a0, a1, a2) == pytest.approx(0.7 - 1.0, rel=1e-6)


def multiclass_phase_generator(bg_probabilities, bg_buffer):
    """``A0+A1+A2`` of the multiclass FG/BG chain on the E-mail fit at 40%
    load: reducible, with one closed class per full-buffer occupancy."""
    from repro.core.multiclass import MulticlassFgBgModel
    from repro.workloads.paper import SERVICE_RATE_PER_MS, email

    model = MulticlassFgBgModel(
        arrival=email().scaled_to_utilization(0.4, SERVICE_RATE_PER_MS),
        service_rate=SERVICE_RATE_PER_MS,
        bg_probabilities=bg_probabilities,
        bg_buffer=bg_buffer,
    )
    qbd = model._qbd
    return qbd.a0, qbd.a1, qbd.a2


class TestClosedClasses:
    # Class counts captured with the graph library's strongly-connected-
    # component search before the numpy closed-class finder replaced it.
    @pytest.mark.parametrize(
        ("bg_probabilities", "bg_buffer", "count"),
        [
            ((0.2, 0.3), 1, 2),
            ((0.2, 0.3), 2, 3),
            ((0.2, 0.3), 3, 4),
            ((0.3, 0.0, 0.2), 1, 3),
            ((0.3, 0.0, 0.2), 2, 6),
            ((0.3, 0.0, 0.2), 3, 10),
        ],
    )
    def test_multiclass_closed_class_counts(
        self, bg_probabilities, bg_buffer, count
    ):
        a0, a1, a2 = multiclass_phase_generator(bg_probabilities, bg_buffer)
        a = a0 + a1 + a2
        classes = _closed_classes(a)
        assert len(classes) == count
        # Disjoint, and closed: no rate leaves any class.
        members = np.concatenate(classes)
        assert len(set(members.tolist())) == members.size
        for indices in classes:
            outside = np.setdiff1d(np.arange(a.shape[0]), indices)
            assert not np.any(a[np.ix_(indices, outside)] > 0)
        assert drift(a0, a1, a2) == pytest.approx(0.4 * 1 / 6 - 1 / 6)

    def test_transient_states_belong_to_no_class(self):
        # 0 -> 1 <-> 2 and 0 -> 3 (absorbing): {1, 2} and {3} are closed.
        a = np.array(
            [
                [-2.0, 1.0, 0.0, 1.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert [c.tolist() for c in _closed_classes(a)] == [[1, 2], [3]]


#: Solver by test id; logarithmic reduction is ``r_matrix`` itself.
SOLVERS = {
    "r_matrix_functional_iteration": r_matrix_functional_iteration,
    "r_matrix_natural_iteration": r_matrix_natural_iteration,
    "r_matrix_logarithmic_reduction": r_matrix,
}
ALGOS = list(SOLVERS.values())


@pytest.mark.parametrize("algo", ALGOS, ids=list(SOLVERS))
class TestRAlgorithms:
    def test_mm1_r_is_rho(self, algo):
        r = algo(*MM1)
        np.testing.assert_allclose(r, [[LAM / MU]], atol=1e-10)

    def test_r_solves_quadratic(self, algo):
        a0, a1, a2 = mmpp_m1_blocks()
        r = algo(a0, a1, a2)
        residual = a0 + r @ a1 + r @ r @ a2
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)

    def test_r_nonnegative_with_subunit_spectral_radius(self, algo):
        a0, a1, a2 = mmpp_m1_blocks()
        r = algo(a0, a1, a2)
        assert np.all(r >= -1e-12)
        assert np.max(np.abs(np.linalg.eigvals(r))) < 1.0


class TestAgreement:
    def test_all_algorithms_agree(self):
        a0, a1, a2 = mmpp_m1_blocks(util=0.85)
        results = [algo(a0, a1, a2) for algo in ALGOS]
        for other in results[1:]:
            np.testing.assert_allclose(results[0], other, atol=1e-8)

    def test_unstable_raises(self):
        a0, a1, a2 = np.array([[3.0]]), np.array([[-5.0]]), np.array([[2.0]])
        with pytest.raises(ValueError, match="not positive recurrent"):
            r_matrix(a0, a1, a2)


class TestGMatrix:
    def test_g_is_stochastic_for_recurrent_qbd(self):
        a0, a1, a2 = mmpp_m1_blocks()
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(g >= -1e-12)

    def test_g_solves_quadratic(self):
        a0, a1, a2 = mmpp_m1_blocks()
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        residual = a2 + a1 @ g + a0 @ g @ g
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_r_from_g_equals_direct(self):
        a0, a1, a2 = mmpp_m1_blocks()
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        np.testing.assert_allclose(
            r_matrix_from_g(a0, a1, a2, g),
            r_matrix_functional_iteration(a0, a1, a2),
            atol=1e-8,
        )

    def test_nearly_critical_g_is_stochastic_to_tolerance(self):
        # Slowly switching MMPP whose busy phase overloads the server:
        # sp(R) is within ~5e-6 of 1, and the plain reduction's row sums
        # stall ~1e-11 away from 1 (it used to fail and fall back to a
        # ~1e6-step linear iteration).  The shifted rerun reaches tol.
        a0 = np.array([[1.9, 0.0], [0.0, 0.0]])
        a1 = np.array([[-2.9 - 4.8765e-5, 4.8765e-5], [4.8765e-5, -1.0 - 4.8765e-5]])
        a2 = np.eye(2)
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        assert np.abs(1.0 - g.sum(axis=1)).max() < 1e-12
        np.testing.assert_allclose(a2 + a1 @ g + a0 @ g @ g, 0.0, atol=1e-12)
        r, stats = solve_one(a0, a1, a2)
        assert stats.fallbacks == ()
        assert 1.0 - stats.spectral_radius < 1e-5
        np.testing.assert_allclose(r @ a2.sum(axis=1), a0.sum(axis=1), atol=1e-12)


class TestSolveStats:
    def test_return_stats(self):
        a0, a1, a2 = mmpp_m1_blocks()
        r, stats = solve_one(a0, a1, a2)
        assert isinstance(stats, SolveStats)
        assert stats.algorithm == "logarithmic-reduction"
        assert stats.iterations > 0
        assert stats.wall_time_ms >= 0.0
        assert 0 < stats.spectral_radius < 1
        assert stats.fallbacks == ()

    def test_as_dict_round_trips_to_json_types(self):
        import json

        a0, a1, a2 = mmpp_m1_blocks()
        _, stats = solve_one(a0, a1, a2)
        payload = stats.as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_without_flag_returns_matrix_only(self):
        r = r_matrix(*MM1)
        assert isinstance(r, np.ndarray)
