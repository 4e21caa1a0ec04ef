"""Tests for the FgBgModel facade."""

import numpy as np
import pytest

from repro.core import BgServiceMode, FgBgModel
from repro.core.metrics import compute_metrics
from repro.markov import stationary_distribution
from repro.processes import PoissonProcess, fit_mmpp2
from repro.qbd import (
    QBDStationaryDistribution,
    r_matrix_functional_iteration,
    r_matrix_natural_iteration,
    solve_boundary,
)
from repro.qbd.truncated import solve_qbd_truncated

MU = 1 / 6.0


def poisson_model(rho=0.3, p=0.3, **kwargs) -> FgBgModel:
    return FgBgModel(
        arrival=PoissonProcess(rho * MU), service_rate=MU, bg_probability=p, **kwargs
    )


class TestValidation:
    def test_requires_map_arrival(self):
        with pytest.raises(TypeError, match="MarkovianArrivalProcess"):
            FgBgModel(arrival=0.3, service_rate=MU, bg_probability=0.1)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="bg_probability"):
            poisson_model(p=-0.1)

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError, match="bg_buffer"):
            poisson_model(bg_buffer=-1)

    def test_rejects_bad_idle_rate(self):
        with pytest.raises(ValueError, match="idle_wait_rate"):
            poisson_model(idle_wait_rate=0.0)

    def test_unstable_model_raises_on_solve(self):
        m = poisson_model(rho=1.2)
        assert not m.is_stable
        with pytest.raises(ValueError, match="unstable"):
            m.solve()

    def test_critical_load_raises(self):
        with pytest.raises(ValueError, match="unstable"):
            poisson_model(rho=1.0).solve()


class TestMM1Equivalence:
    """With p = 0 and Poisson arrivals the model is exactly M/M/1."""

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_queue_length(self, rho):
        s = poisson_model(rho=rho, p=0.0).solve()
        assert s.fg_queue_length == pytest.approx(rho / (1 - rho), rel=1e-9)

    @pytest.mark.parametrize("rho", [0.2, 0.7])
    def test_response_time(self, rho):
        s = poisson_model(rho=rho, p=0.0).solve()
        assert s.fg_response_time == pytest.approx(1 / (MU * (1 - rho)), rel=1e-9)

    def test_no_bg_activity(self):
        s = poisson_model(rho=0.5, p=0.0).solve()
        assert s.bg_queue_length == 0.0
        assert s.bg_server_share == 0.0
        assert s.fg_delayed_fraction == 0.0
        assert np.isnan(s.bg_completion_rate)


class TestAgainstTruncatedChain:
    """The matrix-geometric solve must match a brute-force dense solve of
    the truncated chain on every metric-relevant probability."""

    @pytest.mark.parametrize("p", [0.2, 0.9])
    @pytest.mark.parametrize("x", [1, 3])
    def test_boundary_probabilities(self, p, x):
        m = FgBgModel(
            arrival=fit_mmpp2(rate=0.4 * MU, scv=2.0, decay=0.9),
            service_rate=MU,
            bg_probability=p,
            bg_buffer=x,
        )
        sol = m.solve()
        qbd = m.qbd
        levels = 250
        pi = stationary_distribution(qbd.truncated_generator(levels), method="dense")
        n_b = qbd.boundary_size
        np.testing.assert_allclose(pi[:n_b], sol.qbd_solution.boundary, atol=1e-8)
        np.testing.assert_allclose(
            pi[n_b : n_b + qbd.phase_count], sol.qbd_solution.level(1), atol=1e-8
        )

    def test_queue_length_matches_truncated_sum(self):
        m = FgBgModel(
            arrival=fit_mmpp2(rate=0.5 * MU, scv=2.0, decay=0.85),
            service_rate=MU,
            bg_probability=0.5,
            bg_buffer=2,
        )
        sol = m.solve()
        space = m.state_space
        qbd = m.qbd
        levels = 300
        pi = stationary_distribution(qbd.truncated_generator(levels), method="dense")
        n_b = qbd.boundary_size
        fg = float(pi[:n_b] @ space.boundary_fg_counts)
        x_r = space.repeating_bg_counts
        x_max = space.bg_buffer
        for k in range(1, levels + 1):
            lo = n_b + (k - 1) * qbd.phase_count
            level_pi = pi[lo : lo + qbd.phase_count]
            fg += float(level_pi @ (x_max + k - x_r))
        assert sol.fg_queue_length == pytest.approx(fg, abs=1e-7)


class TestQualitativeBehaviour:
    def test_queue_length_increases_with_load(self):
        qlens = [
            poisson_model(rho=rho, p=0.3).solve().fg_queue_length
            for rho in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a < b for a, b in zip(qlens, qlens[1:]))

    def test_completion_rate_decreases_with_load(self):
        comps = [
            poisson_model(rho=rho, p=0.3).solve().bg_completion_rate
            for rho in (0.2, 0.5, 0.8)
        ]
        assert all(a > b for a, b in zip(comps, comps[1:]))

    def test_completion_rate_decreases_with_p(self):
        comps = [
            poisson_model(rho=0.5, p=p).solve().bg_completion_rate
            for p in (0.1, 0.3, 0.6, 0.9)
        ]
        assert all(a > b for a, b in zip(comps, comps[1:]))

    def test_bigger_buffer_improves_completion(self):
        small = poisson_model(rho=0.5, p=0.6, bg_buffer=2).solve()
        large = poisson_model(rho=0.5, p=0.6, bg_buffer=10).solve()
        assert large.bg_completion_rate > small.bg_completion_rate

    def test_longer_idle_wait_reduces_fg_queue(self):
        short = poisson_model(rho=0.5, p=0.6).with_idle_wait_multiple(0.5).solve()
        long = poisson_model(rho=0.5, p=0.6).with_idle_wait_multiple(4.0).solve()
        assert long.fg_queue_length < short.fg_queue_length

    def test_longer_idle_wait_reduces_bg_completion(self):
        short = poisson_model(rho=0.5, p=0.6).with_idle_wait_multiple(0.5).solve()
        long = poisson_model(rho=0.5, p=0.6).with_idle_wait_multiple(4.0).solve()
        assert long.bg_completion_rate < short.bg_completion_rate

    def test_p_one_is_stable_and_sane(self):
        s = poisson_model(rho=0.4, p=1.0).solve()
        assert 0 < s.bg_completion_rate < 1
        assert s.bg_spawn_rate == pytest.approx(s.fg_throughput)

    def test_rewait_serves_fewer_bg_jobs(self):
        btb = poisson_model(rho=0.4, p=0.6).solve()
        rew = poisson_model(rho=0.4, p=0.6, bg_mode=BgServiceMode.REWAIT).solve()
        assert rew.bg_throughput < btb.bg_throughput


class TestSweepHelpers:
    def test_at_utilization_rescales(self):
        m = poisson_model(rho=0.3).at_utilization(0.7)
        assert m.fg_utilization == pytest.approx(0.7)

    def test_at_utilization_preserves_acf(self):
        mmpp = fit_mmpp2(rate=0.02, scv=2.4, decay=0.95)
        m = FgBgModel(arrival=mmpp, service_rate=MU, bg_probability=0.3)
        scaled = m.at_utilization(0.6)
        np.testing.assert_allclose(scaled.arrival.acf(10), mmpp.acf(10), atol=1e-10)

    def test_with_bg_probability(self):
        assert poisson_model(p=0.1).with_bg_probability(0.8).bg_probability == 0.8

    def test_with_idle_wait_multiple(self):
        m = poisson_model().with_idle_wait_multiple(2.0)
        assert m.effective_idle_wait_rate == pytest.approx(MU / 2)

    def test_with_idle_wait_multiple_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            poisson_model().with_idle_wait_multiple(0.0)

    def test_default_idle_wait_equals_service_rate(self):
        assert poisson_model().effective_idle_wait_rate == MU


class TestConservationLaws:
    @pytest.mark.parametrize("p", [0.1, 0.6, 1.0])
    def test_fg_throughput_equals_arrival_rate(self, p):
        m = poisson_model(rho=0.5, p=p)
        s = m.solve()
        assert s.fg_throughput == pytest.approx(m.arrival.mean_rate, rel=1e-8)

    def test_bg_flow_balance(self):
        s = poisson_model(rho=0.5, p=0.6).solve()
        assert s.bg_throughput == pytest.approx(
            s.bg_spawn_rate - s.bg_drop_rate, rel=1e-8
        )

    def test_server_shares_partition_time(self):
        s = poisson_model(rho=0.5, p=0.6).solve()
        total = s.fg_server_share + s.bg_server_share + s.idle_probability
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_solver_algorithms_agree(self):
        m = FgBgModel(
            arrival=fit_mmpp2(rate=0.4 * MU, scv=2.0, decay=0.9),
            service_rate=MU,
            bg_probability=0.5,
        )
        # Logarithmic reduction (model.solve) against the two linear
        # rungs' R and the truncated dense chain, which needs no R at all.
        qbd = m.qbd
        distributions = [
            QBDStationaryDistribution(qbd, r, *solve_boundary(qbd, r))
            for r in (
                r_matrix_functional_iteration(qbd.a0, qbd.a1, qbd.a2),
                r_matrix_natural_iteration(qbd.a0, qbd.a1, qbd.a2),
            )
        ] + [solve_qbd_truncated(qbd)]
        reference = m.solve()
        for distribution in distributions:
            other = compute_metrics(
                space=m.state_space,
                qbd_solution=distribution,
                arrival=m.arrival,
                service_rate=m.service_rate,
                bg_probability=m.bg_probability,
            )
            assert other.fg_queue_length == pytest.approx(
                reference.fg_queue_length, rel=1e-8
            )

    def test_repr_mentions_parameters(self):
        assert "bg_probability=0.3" in repr(poisson_model())


class TestFingerprint:
    def test_deterministic(self):
        assert poisson_model().fingerprint() == poisson_model().fingerprint()

    def test_sensitive_to_each_field(self):
        base = poisson_model()
        variants = [
            poisson_model(rho=0.31),
            poisson_model(p=0.31),
            poisson_model(bg_buffer=4),
            poisson_model(idle_wait_rate=2 * MU),
            poisson_model(bg_mode=BgServiceMode.REWAIT),
            FgBgModel(
                arrival=fit_mmpp2(rate=0.3 * MU, scv=2.0, decay=0.5),
                service_rate=MU,
                bg_probability=0.3,
            ),
        ]
        fingerprints = {base.fingerprint()} | {
            m.fingerprint() for m in variants
        }
        assert len(fingerprints) == len(variants) + 1

    def test_default_idle_wait_equals_explicit(self):
        # idle_wait_rate=None means "equal to service_rate": same chain,
        # same fingerprint.
        assert (
            poisson_model(idle_wait_rate=None).fingerprint()
            == poisson_model(idle_wait_rate=MU).fingerprint()
        )

    def test_hex_sha256_shape(self):
        fp = poisson_model().fingerprint()
        assert len(fp) == 64
        assert int(fp, 16) >= 0
