"""Tests for the level-by-level boundary solve."""

import dataclasses

import numpy as np
import pytest

from repro import faults
from repro.core import BgServiceMode, FgBgModel
from repro.processes import MMPP, fit_mmpp2
from repro.qbd import (
    QBDProcess,
    QBDStack,
    QBDStationaryDistribution,
    solve_boundary,
    solve_qbd_batched,
)
from repro.qbd.boundary import solve_boundaries
from repro.qbd.rmatrix import r_matrix, r_matrix_functional_iteration
from repro.workloads.paper import SERVICE_RATE_PER_MS, WORKLOADS

MU = SERVICE_RATE_PER_MS


def balance_matrix(qbd: QBDProcess, r: np.ndarray) -> np.ndarray:
    """``M`` with ``[pi_0, pi_1] M = 0``: ``[[B00, B01], [B10, A1 + R A2]]``."""
    n_b = qbd.boundary_size
    big = np.zeros((n_b + qbd.phase_count,) * 2)
    big[:n_b, :n_b] = qbd.b00
    big[:n_b, n_b:] = qbd.b01
    big[n_b:, :n_b] = qbd.b10
    big[n_b:, n_b:] = qbd.a1 + r @ qbd.a2
    return big


def dense_solve(qbd: QBDProcess, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: one dense LU solve of the whole boundary system, the
    largest-diagonal balance equation replaced by the normalization."""
    n_b, m = qbd.boundary_size, qbd.phase_count
    big = balance_matrix(qbd, r)
    tail_weights = np.linalg.solve(np.eye(m) - r, np.ones(m))
    a = big.T.copy()
    drop = int(np.argmax(np.abs(np.diag(big))))
    a[drop, :] = np.concatenate([np.ones(n_b), tail_weights])
    rhs = np.zeros(n_b + m)
    rhs[drop] = 1.0
    x = np.clip(np.linalg.solve(a, rhs), 0.0, None)
    x /= x[:n_b].sum() + x[n_b:] @ tail_weights
    return x[:n_b], x[n_b:]


def gth_solve(qbd: QBDProcess, r: np.ndarray) -> np.ndarray:
    """Reference for small probabilities: GTH state reduction over the whole
    boundary system, which is a generator when ``R A2 e = A0 e``."""
    a = balance_matrix(qbd, r)
    n = len(a)
    outflow = np.empty(n)
    for k in range(n - 1, 0, -1):
        row = a[k, :k]
        outflow[k] = row.sum()
        a[:k, :k] += np.multiply.outer(a[:k, k], row / outflow[k])
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k] / outflow[k]
    m = qbd.phase_count
    tail_weights = np.linalg.solve(np.eye(m) - r, np.ones(m))
    return x / (x[:-m].sum() + x[-m:] @ tail_weights)


def mmpp_m1_qbd() -> QBDProcess:
    mmpp = fit_mmpp2(rate=0.7, scv=2.4, decay=0.9)
    return QBDProcess.homogeneous(mmpp.d1, mmpp.d0 - np.eye(2), np.eye(2))


def polished_r(qbd: QBDProcess) -> np.ndarray:
    """R polished by a few natural-iteration steps, so that R's error (not
    the boundary solve's) does not set the residual."""
    r = r_matrix(qbd.a0, qbd.a1, qbd.a2)
    for _ in range(5):
        r = -qbd.a0 @ np.linalg.inv(qbd.a1 + r @ qbd.a2)
    return r


def x0_qbd(arrival: MMPP) -> QBDProcess:
    """X = 0, p = 0 chain around a two-state MMPP at unit service rate."""
    model = FgBgModel(
        arrival=arrival,
        service_rate=1.0,
        bg_probability=0.0,
        bg_buffer=0,
        idle_wait_rate=10.0,
    )
    return model.qbd


#: Slowly switching MMPP whose busy phase overloads the server: the
#: largest tail weight is ~1e5.
SLOW_SWITCHING = MMPP.two_state(v1=6.52852e-05, v2=6.52852e-05, l1=1.82876, l2=0)


class TestLevelReduction:
    @pytest.mark.parametrize("x", [0, 1, 5, 12, 25])
    def test_matches_dense_reference(self, x):
        worst = 0.0
        for workload in ("email", "software_development"):
            arrival = WORKLOADS[workload].fit()
            for i, (idle, load) in enumerate(
                (idle, load) for idle in (0.05, 1.0, 20.0) for load in (0.3, 0.9)
            ):
                model = FgBgModel(
                    arrival=arrival.scaled_to_rate(load * MU),
                    service_rate=MU,
                    bg_probability=0.3,
                    bg_buffer=x,
                    idle_wait_rate=idle * MU,
                    bg_mode=list(BgServiceMode)[i % 2],
                )
                qbd = model.qbd
                assert len(qbd.boundary_levels) == x + 1
                r = polished_r(qbd)
                pi0, pi1 = solve_boundary(qbd, r)
                ref0, ref1 = dense_solve(qbd, r)
                np.testing.assert_allclose(pi0, ref0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(pi1, ref1, rtol=0, atol=1e-12)
                big = balance_matrix(qbd, r)
                residual = np.abs(np.concatenate([pi0, pi1]) @ big).max()
                worst = max(worst, residual / np.abs(big).max())
        # Normwise balance residual; the dense reference reaches ~1e-15.
        assert worst <= 1e-14

    @pytest.mark.parametrize(
        "workload, p", [("software_development", 1e-6), ("email", 1e-3)]
    )
    def test_small_probabilities_keep_relative_accuracy(self, workload, p):
        # Probabilities down to 1e-78: every one keeps ~1e-15 relative
        # accuracy, which needs the GTH diagonals (without them: ~1e-6).
        qbd, neighbour = (
            FgBgModel(
                arrival=WORKLOADS[workload].fit().scaled_to_rate(load * MU),
                service_rate=MU,
                bg_probability=p,
                bg_buffer=12,
                idle_wait_rate=20 * MU,
            ).qbd
            for load in (0.1, 0.6)
        )
        r = polished_r(qbd)
        expected = gth_solve(qbd, r)
        assert expected.min() < 1e-40
        got = np.concatenate(solve_boundary(qbd, r))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        # The same item inside a stack keeps that accuracy.
        pi0, pi1, failures = solve_boundaries(
            QBDStack.of([neighbour, qbd]), np.stack([polished_r(neighbour), r])
        )
        assert failures == {}
        stacked = np.concatenate([pi0[1], pi1[1]])
        np.testing.assert_allclose(stacked, expected, rtol=1e-12, atol=0)

    def test_single_level_is_schur_complement(self):
        qbd = mmpp_m1_qbd()
        r = r_matrix(qbd.a0, qbd.a1, qbd.a2)
        pi0, pi1 = solve_boundary(qbd, r)
        ref0, ref1 = dense_solve(qbd, r)
        np.testing.assert_allclose(pi0, ref0, rtol=1e-13)
        np.testing.assert_allclose(pi1, ref1, rtol=1e-13)

    def test_singular_level_falls_back_to_lstsq(self, monkeypatch):
        # Two boundary states forming a closed class: B00 is exactly
        # singular, yet the dense system (with its normalization) is not.
        qbd = QBDProcess(
            b00=np.array([[-1.0, 1.0], [1.0, -1.0]]),
            b01=np.zeros((2, 1)),
            b10=np.array([[2.0, 0.0]]),
            a0=np.array([[1.0]]),
            a1=np.array([[-3.0]]),
            a2=np.array([[2.0]]),
        )
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        pi0, pi1 = solve_boundary(qbd, np.array([[0.5]]))
        assert calls == [(3, 3)]
        np.testing.assert_allclose(pi0, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(pi1, [0.0], atol=1e-15)

    def test_negative_probability_guard(self):
        qbd = mmpp_m1_qbd()
        r = r_matrix(qbd.a0, qbd.a1, qbd.a2)
        # Row sums kept (R A2 e = A0 e still holds), one entry negative.
        bad = r + 0.1 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="significantly negative probability"):
            solve_boundary(qbd, bad)

    def test_rejects_r_that_does_not_fit(self):
        qbd = mmpp_m1_qbd()
        r = r_matrix(qbd.a0, qbd.a1, qbd.a2)
        # R with its phases swapped: non-negative, but R A2 e != A0 e.
        with pytest.raises(ValueError, match="R does not fit the QBD blocks"):
            solve_boundary(qbd, r[::-1, ::-1])

    def test_accepts_near_saturated_r(self):
        # Slowly switching MMPP whose busy phase overloads the server: the
        # largest tail weight is ~1e5, and the functional iteration's R
        # misses R A2 e = A0 e by ~7e-8 although it solves its own
        # equation to round-off.  It must still be accepted and match the
        # dense solve.  (Logarithmic reduction's shifted rerun fits this
        # model's R exactly, so it cannot stand in here.)
        qbd = x0_qbd(SLOW_SWITCHING)
        r = r_matrix_functional_iteration(qbd.a0, qbd.a1, qbd.a2)
        assert np.abs(r @ qbd.a2.sum(axis=1) - qbd.a0.sum(axis=1)).max() > 1e-8
        pi0, pi1 = solve_boundary(qbd, r)
        ref0, ref1 = dense_solve(qbd, r)
        np.testing.assert_allclose(pi0, ref0, rtol=1e-9)
        np.testing.assert_allclose(pi1, ref1, rtol=1e-9)


class TestStackedBoundary:
    """``solve_boundaries``: N items at once, each as if solved alone."""

    def test_near_saturated_and_ordinary_items_match_one_item_calls(self):
        qbds = [
            x0_qbd(SLOW_SWITCHING),
            x0_qbd(MMPP.two_state(v1=0.1, v2=0.2, l1=0.9, l2=0.2)),
        ]
        rs = [
            r_matrix_functional_iteration(qbds[0].a0, qbds[0].a1, qbds[0].a2),
            r_matrix(qbds[1].a0, qbds[1].a1, qbds[1].a2),
        ]
        pi0, pi1, failures = solve_boundaries(QBDStack.of(qbds), np.stack(rs))
        assert failures == {}
        for i, (qbd, r) in enumerate(zip(qbds, rs)):
            ref0, ref1 = solve_boundary(qbd, r)
            np.testing.assert_allclose(pi0[i], ref0, rtol=1e-13, atol=0)
            np.testing.assert_allclose(pi1[i], ref1, rtol=1e-13, atol=0)

    def test_failed_item_does_not_fail_the_others(self):
        qbds = [mmpp_m1_qbd()] * 3
        r = r_matrix(qbds[0].a0, qbds[0].a1, qbds[0].a2)
        pi0, pi1, failures = solve_boundaries(
            QBDStack.of(qbds), np.stack([r, r[::-1, ::-1], r])
        )
        assert list(failures) == [1]
        assert isinstance(failures[1], ValueError)
        assert np.isnan(pi0[1]).all() and np.isnan(pi1[1]).all()
        ref0, ref1 = solve_boundary(qbds[0], r)
        for i in (0, 2):
            np.testing.assert_allclose(pi0[i], ref0, rtol=1e-13, atol=0)
            np.testing.assert_allclose(pi1[i], ref1, rtol=1e-13, atol=0)

    def test_rejects_mixed_block_structures(self):
        small = mmpp_m1_qbd()
        big = FgBgModel(
            arrival=WORKLOADS["email"].fit(), service_rate=MU, bg_probability=0.3
        ).qbd
        with pytest.raises(ValueError, match="mixed block shapes"):
            solve_boundaries(QBDStack.of([small, big]), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_collect_isolates_singular_boundary_fault_to_its_item(self, k):
        qbds = [
            FgBgModel(
                arrival=WORKLOADS["email"].fit().scaled_to_rate(load * MU),
                service_rate=MU,
                bg_probability=0.3,
            ).qbd
            for load in (0.2, 0.35, 0.5, 0.65, 0.8)
        ]
        reference, _ = solve_qbd_batched(QBDStack.of(qbds))
        with faults.inject(f"singular_boundary:after={k}:limit=1"):
            got, report = solve_qbd_batched(QBDStack.of(qbds))
        assert got[k] is None
        (failure,) = report.failures
        assert (failure.index, failure.stage) == (k, "boundary")
        assert failure.error_type == "LinAlgError"
        for i in range(len(qbds)):
            if i != k:
                np.testing.assert_array_equal(got[i].boundary, reference[i].boundary)


class TestOneLevelModels:
    """Models that keep the default single boundary level solve through the
    Schur complement; their metrics match the dense solve."""

    def models(self):
        from repro.core import MulticlassFgBgModel, PhServiceFgBgModel
        from repro.processes import PhaseType

        arrival = WORKLOADS["email"].fit().scaled_to_rate(0.6 * MU)
        return [
            MulticlassFgBgModel(
                arrival=arrival, service_rate=MU, bg_probabilities=(0.2, 0.3),
                bg_buffer=2,
            ),
            PhServiceFgBgModel(
                arrival=arrival, service=PhaseType.erlang(2, 2 * MU),
                bg_probability=0.4, bg_buffer=3,
            ),
        ]

    @staticmethod
    def metrics(solution) -> dict:
        return {
            f.name: np.asarray(getattr(solution, f.name), dtype=float)
            for f in dataclasses.fields(solution)
            if isinstance(getattr(solution, f.name), (float, tuple))
        }

    @staticmethod
    def dense_solution(model):
        qbd = model._qbd
        r = r_matrix(qbd.a0, qbd.a1, qbd.a2)
        return model._metrics(QBDStationaryDistribution(qbd, r, *dense_solve(qbd, r)))

    def test_metrics_match_dense_solve(self):
        new = [self.metrics(model.solve()) for model in self.models()]
        dense = [self.metrics(self.dense_solution(model)) for model in self.models()]
        for got, expected in zip(new, dense):
            assert got.keys() == expected.keys() and len(got) >= 6
            for key, value in expected.items():
                np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=0, err_msg=key)
