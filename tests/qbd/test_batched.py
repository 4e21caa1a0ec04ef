"""Tests for the batched matrix-geometric kernel (`repro.qbd.batched`)."""

import numpy as np
import pytest

from repro.contracts.errors import ContractViolation
from repro.core.model import FgBgModel
from repro.processes import fit_mmpp2
from repro.qbd import (
    BatchedSolveReport,
    QBDProcess,
    QBDStack,
    batched_r_matrix,
    r_matrix,
    r_matrix_functional_iteration,
    solve_qbd,
    solve_qbd_batched,
)
from repro.qbd import batched as batched_module
from repro.qbd.rmatrix import QBDConvergenceError, _logarithmic_reduction
from repro.qbd.truncated import solve_qbd_truncated
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


def email_models(ps=(0.05, 0.1, 0.3, 0.6, 0.9), util=0.3):
    arrival = fit_mmpp2(rate=util * MU, scv=4.0, decay=0.8)
    return [
        FgBgModel(arrival=arrival, service_rate=MU, bg_probability=p)
        for p in ps
    ]


def mm1_triple(lam=1.0, mu=2.0):
    return (
        np.array([[lam]]),
        np.array([[-(lam + mu)]]),
        np.array([[mu]]),
    )


def mmpp_m1_triple(util, mu=1.0):
    """Repeating blocks of an MMPP(2)/M/1 queue at the given utilization."""
    mmpp = fit_mmpp2(rate=util * mu, scv=2.4, decay=0.98)
    return mmpp.d1, mmpp.d0 - mu * np.eye(2), mu * np.eye(2)


#: Slowly switching MMPP whose busy phase overloads the server: sp(R) is
#: within ~5e-6 of 1, and the plain reduction's row sums of G stall ~1e-11
#: away from 1, so only the rerun on shifted blocks reaches tolerance.
NEARLY_CRITICAL = (
    np.array([[1.9, 0.0], [0.0, 0.0]]),
    np.array([[-2.9 - 4.8765e-5, 4.8765e-5], [4.8765e-5, -1.0 - 4.8765e-5]]),
    np.eye(2),
)


def stack(*triples):
    return tuple(np.stack(blocks) for blocks in zip(*triples))


class TestBatchedRMatrix:
    def test_matches_scalar_solver_bitwise(self):
        # An item's R does not depend on its neighbours in the stack (the
        # one-item call is bit-identical), and it is the minimal solution
        # Neuts' functional iteration converges to independently.
        qbds = [m.qbd for m in email_models()]
        stacked, _, _ = batched_r_matrix(
            np.stack([q.a0 for q in qbds]),
            np.stack([q.a1 for q in qbds]),
            np.stack([q.a2 for q in qbds]),
        )
        for i, qbd in enumerate(qbds):
            scalar = r_matrix(qbd.a0, qbd.a1, qbd.a2)
            np.testing.assert_array_equal(stacked[i], scalar)
            reference = r_matrix_functional_iteration(qbd.a0, qbd.a1, qbd.a2)
            np.testing.assert_allclose(stacked[i], reference, rtol=0, atol=1e-10)

    def test_nearly_critical_item_solved_inside_the_stack(self):
        triples = [mmpp_m1_triple(0.5), NEARLY_CRITICAL, mmpp_m1_triple(0.8)]
        r, stats, report = batched_r_matrix(*stack(*triples))
        assert report.fallbacks == ()
        assert stats[1].algorithm == "logarithmic-reduction"
        assert stats[1].fallbacks == ()
        g, _, failed = _logarithmic_reduction(*stack(*triples))
        assert not failed.any()
        assert np.abs(1.0 - g[1].sum(axis=1)).max() < 1e-12
        a0, _, a2 = NEARLY_CRITICAL
        np.testing.assert_allclose(r[1] @ a2.sum(axis=1), a0.sum(axis=1), atol=1e-12)
        for i in (0, 2):
            np.testing.assert_array_equal(r[i], r_matrix(*triples[i]))

    def test_mm1_closed_form(self):
        lam, mu = 1.0, 2.0
        a0, a1, a2 = mm1_triple(lam, mu)
        stack, _, _ = batched_r_matrix(
            np.stack([a0, a0]), np.stack([a1, a1]), np.stack([a2, a2])
        )
        np.testing.assert_allclose(stack, lam / mu, atol=1e-12)

    def test_result_is_read_only(self):
        a0, a1, a2 = mm1_triple()
        stack, _, _ = batched_r_matrix(
            np.stack([a0]), np.stack([a1]), np.stack([a2])
        )
        assert not stack.flags.writeable

    def test_stats_and_report(self):
        qbds = [m.qbd for m in email_models(ps=(0.1, 0.3, 0.6))]
        r, stats, report = batched_r_matrix(
            np.stack([q.a0 for q in qbds]),
            np.stack([q.a1 for q in qbds]),
            np.stack([q.a2 for q in qbds]),
        )
        assert isinstance(report, BatchedSolveReport)
        assert report.batch_size == 3
        assert report.phase_count == qbds[0].phase_count
        assert report.fallbacks == ()
        assert report.iterations == sum(s.iterations for s in stats)
        assert report.max_iterations == max(s.iterations for s in stats)
        for s in stats:
            assert s.algorithm == "logarithmic-reduction"
            assert 0 < s.spectral_radius < 1

    def test_report_round_trips_to_dict(self):
        report = BatchedSolveReport(
            batch_size=2,
            phase_count=3,
            iterations=10,
            max_iterations=6,
            wall_time_ms=1.5,
            fallbacks=(1,),
        )
        payload = report.as_dict()
        assert payload["batch_size"] == 2
        assert payload["fallbacks"] == [1]

    def test_report_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchedSolveReport(
                batch_size=-1,
                phase_count=2,
                iterations=0,
                max_iterations=0,
                wall_time_ms=0.0,
            )

    def test_rejects_mismatched_stacks(self):
        a0, a1, a2 = mm1_triple()
        with pytest.raises(ValueError, match="share one shape"):
            batched_r_matrix(
                np.stack([a0]), np.stack([a1]), np.stack([a2, a2])
            )

    def test_rejects_non_stack_input(self):
        a0, a1, a2 = mm1_triple()
        with pytest.raises(ValueError, match=r"\(N, m, m\)"):
            batched_r_matrix(a0, a1, a2)

    def test_precondition_names_offending_item(self):
        a0, a1, a2 = mm1_triple()
        bad_a0 = np.stack([a0, -a0])
        with pytest.raises(ContractViolation, match=r"A0\[1\]"):
            batched_r_matrix(bad_a0, np.stack([a1, a1]), np.stack([a2, a2]))

    def test_unstable_item_reported_like_scalar(self):
        # lam > mu: the reduction cannot produce a stochastic G, and the
        # ladder's drift diagnosis fails the item -- with the error the
        # scalar call raises -- while its neighbour solves.
        a0, a1, a2 = mm1_triple(lam=3.0, mu=2.0)
        g0, g1, g2 = mm1_triple()
        r, _, report = batched_r_matrix(
            np.stack([g0, a0]), np.stack([g1, a1]), np.stack([g2, a2])
        )
        np.testing.assert_allclose(r[0], 0.5, atol=1e-12)
        np.testing.assert_array_equal(r[1], 0.0)
        (failure,) = report.failures
        assert (failure.index, failure.stage) == (1, "r-matrix")
        assert isinstance(failure.error, ValueError)
        with pytest.raises(ValueError) as excinfo:
            r_matrix(a0, a1, a2)
        assert failure.message == str(excinfo.value)

    def test_negative_r_fails_instead_of_escalating(self, monkeypatch):
        # Blocks that are no QBD's (A0 < 0) pass when contracts are off.
        # The reduction's R then has a negative entry, and the item fails:
        # functional iteration would converge to another root, R = 1.
        monkeypatch.setenv("REPRO_CONTRACTS", "off")
        triple = (np.array([[-1.0]]), np.array([[-1.0]]), np.array([[2.0]]))
        with pytest.raises(QBDConvergenceError, match="significantly negative"):
            r_matrix(*triple)

    @pytest.mark.parametrize("contracts", ["on", "off"])
    def test_unstable_qbd_raises_one_message_everywhere(
        self, contracts, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CONTRACTS", contracts)
        # Overloaded M/M/1 overflows the reduction; the barely overloaded
        # MMPP stops on the truncation bound with G's row sums short of 1,
        # where the shifted rerun (which presumes a stable QBD) must not
        # take over.
        triples = [mm1_triple(lam=3.0, mu=2.0), mmpp_m1_triple(1.0001)]
        for triple in triples:
            qbd = QBDProcess.homogeneous(*triple)
            messages = []
            for solve in (
                lambda: r_matrix(*triple),
                lambda: solve_qbd(qbd),
            ):
                with pytest.raises(ValueError) as excinfo:
                    solve()
                messages.append(str(excinfo.value))
            (distribution,), report = solve_qbd_batched(QBDStack.of([qbd]))
            assert distribution is None
            messages.append(report.failures[0].message)
            assert messages[0].startswith("QBD is not positive recurrent")
            assert messages == [messages[0]] * 3


class TestSolveQbdBatched:
    def test_matches_sequential_end_to_end(self):
        # Stacked items equal their one-item solves, and the distributions
        # match the truncated dense chain (an independent solve).
        qbds = [m.qbd for m in email_models()]
        batched, _ = solve_qbd_batched(QBDStack.of(qbds))
        for q, b in zip(qbds, batched):
            np.testing.assert_array_equal(b.r, solve_qbd(q).r)
            dense = solve_qbd_truncated(q)
            np.testing.assert_allclose(b.boundary, dense.boundary, atol=1e-10)
            np.testing.assert_allclose(
                b.repeating_mass, dense.repeating_mass, atol=1e-10
            )
            np.testing.assert_allclose(
                b.repeating_level_weighted,
                dense.repeating_level_weighted,
                rtol=1e-8,
            )

    def test_residual_is_small(self):
        stack = QBDStack.of([m.qbd for m in email_models()])
        for dist in solve_qbd_batched(stack)[0]:
            assert dist.residual(levels=6) < 1e-9

    def test_total_mass_is_one(self):
        stack = QBDStack.of([m.qbd for m in email_models()])
        for dist in solve_qbd_batched(stack)[0]:
            assert dist.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_seeded_level_sums_match_lazy_path(self):
        qbds = [m.qbd for m in email_models(ps=(0.1, 0.6))]
        for dist in solve_qbd_batched(QBDStack.of(qbds))[0]:
            seeded = dist.repeating_mass
            lazy = dist._apply_inv_i_minus_r(dist.level(1))
            np.testing.assert_allclose(seeded, lazy, atol=1e-12)

    def test_single_item_batch(self):
        qbd = email_models(ps=(0.3,))[0].qbd
        (dist,), report = solve_qbd_batched(QBDStack.of([qbd]))
        reference = solve_qbd(qbd)
        np.testing.assert_array_equal(dist.r, reference.r)
        assert report.batch_size == 1

    def test_failed_item_is_a_none_slot_with_a_record(self):
        # The kernel reports an item's failure instead of raising it: the
        # unstable item's slot is None, its neighbours solve as if alone.
        stable = QBDProcess.homogeneous(*mm1_triple())
        unstable = QBDProcess.homogeneous(*mm1_triple(lam=3.0, mu=2.0))
        got, report = solve_qbd_batched(QBDStack.of([stable, unstable, stable]))
        assert got[1] is None
        for i in (0, 2):
            np.testing.assert_array_equal(got[i].r, solve_qbd(stable).r)
        (failure,) = report.failures
        assert (failure.index, failure.stage) == (1, "r-matrix")
        assert failure.error_type == "ValueError"

    def test_escalation_keeps_drift_diagnosis(self, monkeypatch):
        # An unstable item has no stationary regime to degrade to, so it
        # never reaches the truncated rung: stage and message stay the
        # ladder's drift diagnosis, the one solve_qbd raises.
        def no_truncation(*args, **kwargs):
            raise AssertionError("unstable item sent to the truncated rung")

        monkeypatch.setattr(batched_module, "solve_qbd_truncated", no_truncation)
        qbd = QBDProcess.homogeneous([[3]], [[-5]], [[2]])
        (dist,), report = solve_qbd_batched(QBDStack.of([qbd]), escalate=True)
        assert dist is None
        (failure,) = report.failures
        assert (failure.stage, failure.error_type) == ("r-matrix", "ValueError")
        assert "not positive recurrent" in failure.message
        with pytest.raises(ValueError) as excinfo:
            solve_qbd(qbd, escalate=True)
        assert str(excinfo.value) == failure.message

    def test_carries_per_item_stats(self):
        stack = QBDStack.of([m.qbd for m in email_models()])
        for dist in solve_qbd_batched(stack)[0]:
            assert dist.solve_stats is not None
            assert dist.solve_stats.iterations > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_qbd_batched(QBDStack.of([]))

    def test_rejects_non_qbd(self):
        with pytest.raises(TypeError, match="QBDProcess"):
            solve_qbd_batched(QBDStack.of([np.eye(2)]))

    def test_rejects_mixed_shapes(self):
        small = QBDProcess.homogeneous(*mm1_triple())
        big = email_models(ps=(0.3,))[0].qbd
        with pytest.raises(ValueError, match="mixed block shapes"):
            solve_qbd_batched(QBDStack.of([small, big]))

    def test_pickle_keeps_only_its_item(self):
        import pickle

        qbds = [m.qbd for m in email_models()]
        stack = QBDStack.of(qbds)
        dists, _ = solve_qbd_batched(stack)
        payload = pickle.dumps(dists[2])
        assert len(payload) < len(pickle.dumps(stack)) / 2
        clone = pickle.loads(payload)
        for name in ("b00", "b01", "b10", "a0", "a1", "a2"):
            np.testing.assert_array_equal(getattr(clone.qbd, name), getattr(qbds[2], name))
        np.testing.assert_array_equal(clone.repeating_mass, dists[2].repeating_mass)

    def test_distribution_arrays_read_only(self):
        stack = QBDStack.of([email_models(ps=(0.3,))[0].qbd])
        (dist,), _ = solve_qbd_batched(stack)
        for arr in (dist.r, dist.boundary, dist.repeating_mass):
            assert not np.asarray(arr).flags.writeable
