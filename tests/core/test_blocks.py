"""Tests for the QBD block assembly (paper Figures 3-4, Eq. 6)."""

import dataclasses

import numpy as np
import pytest

from repro.contracts.errors import ContractViolation
from repro.core.batched import solve_models_batched
from repro.core.blocks import BgServiceMode, build_qbd
from repro.core.metrics import NEAR_ZERO_BG_PROBABILITY
from repro.core.model import FgBgModel
from repro.core.states import StateKind
from repro.markov import validate_generator
from repro.processes import MMPP, MarkovianArrivalProcess, PoissonProcess, fit_mmpp2
from repro.qbd.structure import QBDProcess
from repro.workloads.paper import SERVICE_RATE_PER_MS, WORKLOADS


def build(arrival, mu=1.0, p=0.3, x=2, alpha=1.0, mode=BgServiceMode.BACK_TO_BACK):
    """One-item build: the item's ``QBDProcess`` and the state space."""
    stack, space = build_qbd([arrival], [mu], [p], x, [alpha], mode)
    return stack.process(0), space


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


def assert_same_bits(got, want, case):
    assert np.array_equal(got, want), case
    assert np.array_equal(np.signbit(got), np.signbit(want)), case


class TestStackedBuild:
    """Item ``i`` of a stacked build is its one-item build, bit for bit,
    and both are the group-by-group assembly."""

    @pytest.mark.parametrize("mode", list(BgServiceMode))
    @pytest.mark.parametrize("x", [0, 1, 5, 25])
    def test_items_match_one_item_builds(self, x, mode):
        mu = SERVICE_RATE_PER_MS
        near = NEAR_ZERO_BG_PROBABILITY
        # Mixed workloads, loads, p on both sides of the near-zero
        # threshold, service rates and idle waits in one stack.
        items = [
            (WORKLOADS["email"].fit().scaled_by(0.5), mu, 0.0, mu),
            (WORKLOADS["software_development"].fit(), 2 * mu, near / 2, 0.05 * mu),
            (WORKLOADS["user_accounts"].fit().scaled_by(1.5), mu / 2, near, 20 * mu),
            (WORKLOADS["software_development"].fit().scaled_by(0.8), mu, 0.37, mu),
            (WORKLOADS["email"].fit(), 3 * mu, 1.0, 0.5 * mu),
        ]
        arrivals, mus, ps, alphas = zip(*items)
        stack, space = build_qbd(arrivals, mus, ps, x, alphas, mode)
        assert stack.size == len(items)
        for i, (arrival, mu_i, p_i, alpha_i) in enumerate(items):
            one, one_space = build_qbd([arrival], [mu_i], [p_i], x, [alpha_i], mode)
            assert one_space is space
            for name in ("a0", "a1", "a2", "band", "b01", "b10"):
                assert_same_bits(getattr(stack, name)[i], getattr(one, name)[0], (i, name))
            process = stack.process(i)
            expected = reference_blocks(arrival, mu_i, p_i, x, alpha_i, mode)
            for name, block in expected.items():
                assert_same_bits(getattr(process, name), block, (i, name))

    def test_stack_takes_over_the_scattered_blocks(self, monkeypatch):
        # No defensive copy: the stack holds, read-only, the very arrays
        # the build scatters.
        import repro.core.blocks as blocks

        scattered = []
        scatter = blocks._scatter

        def recording(*args):
            scattered.append(scatter(*args))
            return scattered[-1]

        monkeypatch.setattr(blocks, "_scatter", recording)
        stack, _ = build_qbd([WORKLOADS["email"].fit()], [1.0], [0.3], 2, [1.0])
        held = (stack.a1, stack.a2, stack.band, stack.b01, stack.b10)
        assert len(scattered) == len(held)
        for array, block in zip(scattered, held):
            assert np.shares_memory(array, block)
            assert not block.flags.writeable


def forged_map(d0, d1):
    """A MAP object that skipped the constructor's checks: no certificate."""
    process = object.__new__(MarkovianArrivalProcess)
    process._d0 = np.array(d0, dtype=float)
    process._d1 = np.array(d1, dtype=float)
    process._d0.setflags(write=False)
    process._d1.setflags(write=False)
    return process


def levels_of(x, phases):
    return tuple((2 * j + 1) * phases for j in range(x + 1))


class TestStackErrors:
    """Bad input fails the stacked path with the exception the one-item
    path (``QBDProcess``, the MAP constructor, ``FgBgModel``) raises."""

    good = fit_mmpp2(rate=0.3, scv=2.0, decay=0.9)

    def dense_error(self, arrival, x=2):
        blocks = reference_blocks(arrival, 1.0, 0.3, x, 1.0, BgServiceMode.BACK_TO_BACK)
        with pytest.raises(ValueError) as excinfo:
            QBDProcess(**blocks, boundary_levels=levels_of(x, arrival.order))
        return excinfo.value

    def stacked_error(self, arrival, x=2):
        with pytest.raises(ValueError) as excinfo:
            build_qbd([self.good, arrival], [1.0] * 2, [0.3] * 2, x, [1.0] * 2)
        return excinfo.value

    def test_negative_service_rate(self):
        with pytest.raises(ValueError) as model:
            FgBgModel(arrival=self.good, service_rate=-1.0, bg_probability=0.3)
        with pytest.raises(ValueError) as stacked:
            build_qbd([self.good] * 2, [1.0, -1.0], [0.3] * 2, 2, [1.0] * 2)
        assert str(stacked.value) == str(model.value)

    def test_negative_arrival_rate(self):
        d0, d1 = [[-1.0, 1.2], [0.5, -0.7]], [[-0.2, 0.0], [0.0, 0.2]]
        with pytest.raises(ValueError, match="D1 must be entrywise non-negative"):
            MarkovianArrivalProcess(d0, d1)
        # D0 + D1 is a generator, so only the block sign check catches it.
        forged = forged_map(d0, d1)
        dense, stacked = self.dense_error(forged), self.stacked_error(forged)
        assert str(dense) == "b01 must be entrywise non-negative"
        assert (type(stacked), str(stacked)) == (type(dense), str(dense))

    def test_non_generator_map(self, monkeypatch):
        d0, d1 = [[-1.0, 0.5], [0.5, -1.0]], [[0.3, 0.0], [0.0, 0.3]]
        with pytest.raises(ValueError, match="sums to"):
            MarkovianArrivalProcess(d0, d1)
        forged = forged_map(d0, d1)
        # Scaling an uncertified MAP runs the constructor's checks.
        with pytest.raises(ValueError) as direct:
            MarkovianArrivalProcess(np.array(d0) * 2, np.array(d1) * 2)
        with pytest.raises(ValueError) as scaled:
            forged.scaled_by(2.0)
        assert str(scaled.value) == str(direct.value)
        with pytest.raises(ContractViolation) as refused:
            FgBgModel(arrival=forged, service_rate=1.0, bg_probability=0.3)
        assert (refused.value.check, refused.value.subject) == (
            "check_generator",
            "arrival D0+D1",
        )
        dense, stacked = self.dense_error(forged), self.stacked_error(forged)
        assert str(dense).startswith("boundary row")
        assert (type(stacked), str(stacked)) == (type(dense), str(dense))
        # Without contracts the model exists; both solve paths refuse it
        # alike, before any block is built.
        monkeypatch.setenv("REPRO_CONTRACTS", "off")
        model = FgBgModel(arrival=forged, service_rate=1.0, bg_probability=0.3)
        fine = FgBgModel(arrival=self.good, service_rate=1.0, bg_probability=0.3)
        with pytest.raises(ValueError) as one:
            model.solve()
        with pytest.raises(ValueError) as many:
            solve_models_batched([fine, model])
        assert (type(many.value), str(many.value)) == (type(one.value), str(one.value))

    def test_malformed_block(self):
        stack, _ = build_qbd([self.good] * 2, [1.0] * 2, [0.3] * 2, 2, [1.0] * 2)
        process = stack.process(1)
        m = stack.a1.shape[1]
        a1 = np.array(stack.a1)
        a1[1, 0, 0] += 0.5  # item 1's first repeating-level row sum
        # A negative off-diagonal B00 rate whose row still sums to zero:
        # only the sign check can catch it.
        layout = stack.layout
        row = layout.edges[-2]  # first row of the last boundary level
        start = layout.row_starts[row]
        width = layout.widths[-1]
        positive = np.flatnonzero(stack.band[1, start : start + width] > 0)
        first, second = start + np.setdiff1d(positive, layout.diagonal[row] - start)[:2]
        band = np.array(stack.band)
        rate = band[1, first]
        band[1, first], band[1, second] = -rate, band[1, second] + 2 * rate
        b00 = process.b00.reshape(-1).copy()
        b00[layout.dense_index[[first, second]]] = band[1, [first, second]]
        b00 = b00.reshape(process.b00.shape)
        # The same in A1: two off-diagonal rates of one row.
        signed = np.array(stack.a1)
        first, second = np.setdiff1d(np.flatnonzero(signed[1, 0] > 0), [0])[:2]
        rate = signed[1, 0, first]
        signed[1, 0, first], signed[1, 0, second] = -rate, signed[1, 0, second] + 2 * rate
        cases = [
            ({"a1": np.zeros((2, m, m + 1))}, {"a1": np.zeros((m, m + 1))}),
            ({"a2": np.zeros((2, m, m - 1))}, {"a2": np.zeros((m, m - 1))}),
            ({"a1": a1}, {"a1": a1[1]}),
            ({"a1": signed}, {"a1": signed[1]}),
            ({"band": band}, {"b00": b00}),
        ]
        for stacked_change, dense_change in cases:
            with pytest.raises(ValueError) as dense:
                dataclasses.replace(process, **dense_change)
            with pytest.raises(ValueError) as stacked:
                dataclasses.replace(stack, **stacked_change)
            assert str(stacked.value) == str(dense.value), stacked_change.keys()

    def test_x25_solve_builds_no_process_for_solved_items(self, monkeypatch):
        built = []
        post_init = QBDProcess.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(QBDProcess, "__post_init__", counted)
        arrival = WORKLOADS["software_development"].fit()
        models = [
            FgBgModel(
                arrival=arrival,
                service_rate=SERVICE_RATE_PER_MS,
                bg_probability=p,
                bg_buffer=25,
            ).at_utilization(load)
            for p, load in ((0.3, 0.5), (0.6, 0.3))
        ]
        solutions, reports = solve_models_batched(models)
        assert all(s is not None for s in solutions)
        assert not any(report.failures for report in reports)
        assert models[0].state_space.bg_buffer == 25
        assert built == []
        # The distribution builds its QBDProcess on first access, once.
        qbd = solutions[1].qbd_solution.qbd
        assert len(built) == 1 and solutions[1].qbd_solution.qbd is qbd
        np.testing.assert_array_equal(qbd.b00, models[1].qbd.b00)
