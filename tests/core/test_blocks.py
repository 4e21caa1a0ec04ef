"""Tests for the QBD block assembly (paper Figures 3-4, Eq. 6)."""

import numpy as np
import pytest

from repro.core.blocks import BgServiceMode, build_qbd
from repro.core.states import StateKind
from repro.markov import validate_generator
from repro.processes import MMPP, PoissonProcess, fit_mmpp2


def build(arrival, mu=1.0, p=0.3, x=2, alpha=1.0, mode=BgServiceMode.BACK_TO_BACK):
    return build_qbd(
        arrival=arrival,
        service_rate=mu,
        bg_probability=p,
        bg_buffer=x,
        idle_wait_rate=alpha,
        bg_mode=mode,
    )


class TestValidation:
    def test_blocks_form_valid_qbd(self):
        qbd, space = build(PoissonProcess(0.4))
        assert qbd.boundary_size == space.boundary_state_count
        assert qbd.phase_count == space.repeating_state_count

    def test_truncated_generator_valid(self):
        qbd, _ = build(fit_mmpp2(rate=0.4, scv=2.0, decay=0.9), x=3)
        validate_generator(qbd.truncated_generator(6))

    def test_invalid_service_rate(self):
        with pytest.raises(ValueError, match="service_rate"):
            build(PoissonProcess(0.4), mu=0.0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="bg_probability"):
            build(PoissonProcess(0.4), p=1.5)

    def test_invalid_idle_wait(self):
        with pytest.raises(ValueError, match="idle_wait_rate"):
            build(PoissonProcess(0.4), alpha=-1.0)

    def test_invalid_mode_type(self):
        with pytest.raises(TypeError, match="BgServiceMode"):
            build(PoissonProcess(0.4), mode="back_to_back")


class TestScalarChainStructure:
    """Spot-check individual rates of the scalar (Poisson) chain against the
    transition rules of the paper's Figure 3."""

    def setup_method(self):
        self.lam, self.mu, self.p, self.alpha = 0.4, 1.0, 0.3, 0.7
        self.qbd, self.space = build(
            PoissonProcess(self.lam), mu=self.mu, p=self.p, x=2, alpha=self.alpha
        )

    def b_idx(self, kind, bg, fg):
        return self.space.boundary_group_index(kind, bg, fg)

    def r_idx(self, kind, bg):
        return self.space.repeating_group_index(kind, bg)

    def test_empty_state_arrival(self):
        i = self.b_idx(StateKind.IDLE, 0, 0)
        j = self.b_idx(StateKind.FG, 0, 1)
        assert self.qbd.b00[i, j] == pytest.approx(self.lam)

    def test_idle_wait_fires_into_bg_service(self):
        i = self.b_idx(StateKind.IDLE, 1, 0)
        j = self.b_idx(StateKind.BG, 1, 0)
        assert self.qbd.b00[i, j] == pytest.approx(self.alpha)

    def test_fg_completion_spawning_bg(self):
        i = self.b_idx(StateKind.FG, 0, 2)
        j = self.b_idx(StateKind.FG, 1, 1)
        assert self.qbd.b00[i, j] == pytest.approx(self.mu * self.p)

    def test_fg_completion_without_spawn(self):
        i = self.b_idx(StateKind.FG, 0, 2)
        j = self.b_idx(StateKind.FG, 0, 1)
        assert self.qbd.b00[i, j] == pytest.approx(self.mu * (1 - self.p))

    def test_last_fg_completion_enters_idle_wait(self):
        i = self.b_idx(StateKind.FG, 1, 1)
        j = self.b_idx(StateKind.IDLE, 1, 0)
        assert self.qbd.b00[i, j] == pytest.approx(self.mu * (1 - self.p))
        j_spawn = self.b_idx(StateKind.IDLE, 2, 0)
        assert self.qbd.b00[i, j_spawn] == pytest.approx(self.mu * self.p)

    def test_bg_completion_resumes_fg(self):
        i = self.b_idx(StateKind.BG, 1, 1)
        j = self.b_idx(StateKind.FG, 0, 1)
        assert self.qbd.b00[i, j] == pytest.approx(self.mu)

    def test_bg_completion_back_to_back(self):
        i = self.b_idx(StateKind.BG, 2, 0)
        j = self.b_idx(StateKind.BG, 1, 0)
        assert self.qbd.b00[i, j] == pytest.approx(self.mu)

    def test_bg_completion_rewait_mode(self):
        qbd, space = build(
            PoissonProcess(self.lam), mu=self.mu, p=self.p, x=2,
            alpha=self.alpha, mode=BgServiceMode.REWAIT,
        )
        i = space.boundary_group_index(StateKind.BG, 2, 0)
        j = space.boundary_group_index(StateKind.IDLE, 1, 0)
        assert qbd.b00[i, j] == pytest.approx(self.mu)

    def test_repeating_a0_is_arrivals(self):
        np.testing.assert_allclose(
            self.qbd.a0, self.lam * np.eye(self.space.repeating_state_count)
        )

    def test_full_buffer_drop_in_a2(self):
        i = self.r_idx(StateKind.FG, 2)
        # With a full buffer every completion (spawn dropped or not) steps
        # the level down within the same group.
        assert self.qbd.a2[i, i] == pytest.approx(self.mu)

    def test_b10_lands_on_idle_from_full_fg(self):
        i = self.r_idx(StateKind.FG, 2)
        j = self.b_idx(StateKind.IDLE, 2, 0)
        assert self.qbd.b10[i, j] == pytest.approx(self.mu)


class TestLiftingEquivalence:
    """Figure 4: a degenerate MMPP(2) with equal rates in both phases must
    produce exactly the Poisson chain's marginal behaviour."""

    def test_degenerate_mmpp_matches_poisson(self):
        from repro.core.model import FgBgModel

        lam, mu = 0.35, 1.0
        poisson_model = FgBgModel(
            arrival=PoissonProcess(lam), service_rate=mu, bg_probability=0.4,
            bg_buffer=2,
        )
        degenerate = MMPP.two_state(v1=0.8, v2=1.3, l1=lam, l2=lam)
        mmpp_model = FgBgModel(
            arrival=degenerate, service_rate=mu, bg_probability=0.4, bg_buffer=2,
        )
        a = poisson_model.solve()
        b = mmpp_model.solve()
        for key, value in a.as_dict().items():
            assert getattr(b, key) == pytest.approx(value, abs=1e-9), key


class TestRowSums:
    @pytest.mark.parametrize("x", [0, 1, 2, 5])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_global_balance_of_blocks(self, x, p):
        arrival = fit_mmpp2(rate=0.3, scv=2.0, decay=0.9)
        qbd, _ = build(arrival, p=p, x=x)
        # QBDProcess.__post_init__ validates row sums; reaching here means
        # they hold.  Also check the A-blocks directly.
        rows = qbd.a0.sum(axis=1) + qbd.a1.sum(axis=1) + qbd.a2.sum(axis=1)
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)


def reference_blocks(arrival, mu, p, x_max, alpha, mode):
    """The group-by-group assembly ``build_qbd`` replaced: every block entry
    accumulated onto a zero block, one state group at a time."""
    from repro.core.states import StateSpace

    space = StateSpace(x_max, arrival.order)
    a = arrival.order
    d0, d1 = arrival.d0, arrival.d1
    eye = np.eye(a)
    n_b = space.boundary_state_count
    m = space.repeating_state_count
    b00 = np.zeros((n_b, n_b))
    b01 = np.zeros((n_b, m))
    b10 = np.zeros((m, n_b))

    def bsl(kind, bg, fg):
        i = space.boundary_group_index(kind, bg, fg)
        return slice(i * a, (i + 1) * a)

    def rsl(kind, bg):
        i = space.repeating_group_index(kind, bg)
        return slice(i * a, (i + 1) * a)

    for g in space.boundary_groups:
        s = bsl(g.kind, g.bg, g.fg)
        b00[s, s] += d0
        if g.kind is StateKind.IDLE:
            if g.bg >= 1:
                b00[s, s] -= alpha * eye
                b00[s, bsl(StateKind.BG, g.bg, 0)] += alpha * eye
            if g.level + 1 <= x_max:
                b00[s, bsl(StateKind.FG, g.bg, 1)] += d1
            else:
                b01[s, rsl(StateKind.FG, g.bg)] += d1
        elif g.kind is StateKind.FG:
            b00[s, s] -= mu * eye
            if g.level + 1 <= x_max:
                b00[s, bsl(StateKind.FG, g.bg, g.fg + 1)] += d1
            else:
                b01[s, rsl(StateKind.FG, g.bg)] += d1
            if g.fg >= 2:
                b00[s, bsl(StateKind.FG, g.bg, g.fg - 1)] += mu * (1 - p) * eye
            else:
                b00[s, bsl(StateKind.IDLE, g.bg, 0)] += mu * (1 - p) * eye
            if p > 0:
                x_up = min(g.bg + 1, x_max)
                if g.fg >= 2:
                    b00[s, bsl(StateKind.FG, x_up, g.fg - 1)] += mu * p * eye
                else:
                    b00[s, bsl(StateKind.IDLE, x_up, 0)] += mu * p * eye
        else:
            b00[s, s] -= mu * eye
            if g.level + 1 <= x_max:
                b00[s, bsl(StateKind.BG, g.bg, g.fg + 1)] += d1
            else:
                b01[s, rsl(StateKind.BG, g.bg)] += d1
            if g.fg >= 1:
                b00[s, bsl(StateKind.FG, g.bg - 1, g.fg)] += mu * eye
            elif mode is BgServiceMode.BACK_TO_BACK and g.bg >= 2:
                b00[s, bsl(StateKind.BG, g.bg - 1, 0)] += mu * eye
            else:
                b00[s, bsl(StateKind.IDLE, g.bg - 1, 0)] += mu * eye

    m_g = space.repeating_group_count
    a0 = np.kron(np.eye(m_g), d1)
    a1 = np.zeros((m, m))
    a2 = np.zeros((m, m))
    for g in space.repeating_groups:
        s = rsl(g.kind, g.bg)
        a1[s, s] += d0 - mu * eye
        if g.kind is StateKind.FG:
            if g.bg < x_max:
                if p > 0:
                    a1[s, rsl(StateKind.FG, g.bg + 1)] += mu * p * eye
                a2[s, rsl(StateKind.FG, g.bg)] += mu * (1 - p) * eye
            else:
                a2[s, rsl(StateKind.FG, g.bg)] += mu * eye
        else:
            a2[s, rsl(StateKind.FG, g.bg - 1)] += mu * eye

    for g in space.repeating_groups:
        s = rsl(g.kind, g.bg)
        y = x_max + 1 - g.bg
        if g.kind is StateKind.FG:
            if g.bg < x_max:
                b10[s, bsl(StateKind.FG, g.bg, y - 1)] += mu * (1 - p) * eye
            else:
                b10[s, bsl(StateKind.IDLE, x_max, 0)] += mu * eye
        else:
            b10[s, bsl(StateKind.FG, g.bg - 1, y)] += mu * eye
    return {"b00": b00, "b01": b01, "b10": b10, "a0": a0, "a1": a1, "a2": a2}


class TestPatternAssembly:
    """``build_qbd`` scatters values over a cached pattern; its blocks must
    be bit-identical (sign bits included) to the group-by-group assembly."""

    @pytest.mark.parametrize("x", [0, 1, 2, 5, 9, 25])
    @pytest.mark.parametrize(
        "workload", ["email", "software_development", "user_accounts"]
    )
    def test_blocks_match_group_assembly(self, workload, x):
        from repro.workloads.paper import SERVICE_RATE_PER_MS, WORKLOADS

        arrival = WORKLOADS[workload].fit()
        mu = SERVICE_RATE_PER_MS
        for p in (0.0, 1e-10, 0.37, 1.0):
            for mode in BgServiceMode:
                for alpha in (mu, 0.05 * mu):
                    qbd, space = build(arrival, mu=mu, p=p, x=x, alpha=alpha, mode=mode)
                    expected = reference_blocks(arrival, mu, p, x, alpha, mode)
                    for name, block in expected.items():
                        got = getattr(qbd, name)
                        case = (name, p, mode, alpha)
                        assert np.array_equal(got, block), case
                        assert np.array_equal(np.signbit(got), np.signbit(block)), case

    def test_boundary_levels_and_shared_space(self):
        arrival = fit_mmpp2(rate=0.3, scv=2.0, decay=0.9)
        qbd, space = build(arrival, x=3)
        assert qbd.boundary_levels == (2, 6, 10, 14)
        _, again = build(arrival, p=0.6, x=3, alpha=0.2)
        assert again is space
        assert not space.boundary_fg_counts.flags.writeable
