"""Tests for QBD block validation and truncation."""

import numpy as np
import pytest

from repro.markov import stationary_distribution, validate_generator
from repro.qbd import QBDProcess


def mm1_qbd(lam: float = 1.0, mu: float = 2.0) -> QBDProcess:
    a0 = np.array([[lam]])
    a1 = np.array([[-(lam + mu)]])
    a2 = np.array([[mu]])
    return QBDProcess.homogeneous(a0, a1, a2)


class TestValidation:
    def test_mm1_blocks_accepted(self):
        qbd = mm1_qbd()
        assert qbd.boundary_size == 1
        assert qbd.phase_count == 1

    def test_rejects_negative_offdiagonal(self):
        with pytest.raises(ValueError, match="non-negative"):
            QBDProcess(
                b00=np.array([[-1.0]]),
                b01=np.array([[1.0]]),
                b10=np.array([[-2.0]]),
                a0=np.array([[1.0]]),
                a1=np.array([[-3.0]]),
                a2=np.array([[2.0]]),
            )

    def test_rejects_bad_boundary_row_sums(self):
        with pytest.raises(ValueError, match="boundary row"):
            QBDProcess(
                b00=np.array([[-1.0]]),
                b01=np.array([[2.0]]),
                b10=np.array([[2.0]]),
                a0=np.array([[1.0]]),
                a1=np.array([[-3.0]]),
                a2=np.array([[2.0]]),
            )

    def test_rejects_bad_repeating_row_sums(self):
        with pytest.raises(ValueError, match="repeating-level row"):
            QBDProcess(
                b00=np.array([[-1.0]]),
                b01=np.array([[1.0]]),
                b10=np.array([[2.0]]),
                a0=np.array([[1.0]]),
                a1=np.array([[-4.0]]),
                a2=np.array([[2.0]]),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            QBDProcess(
                b00=np.array([[-1.0]]),
                b01=np.array([[1.0, 0.0]]),
                b10=np.array([[2.0]]),
                a0=np.array([[1.0]]),
                a1=np.array([[-3.0]]),
                a2=np.array([[2.0]]),
            )


def two_level_blocks(x: int = 2) -> dict:
    """Writable blocks and level sizes of the FG/BG chain (Poisson arrivals)."""
    from repro.core.blocks import build_qbd
    from repro.processes import PoissonProcess

    stack, _ = build_qbd([PoissonProcess(0.4)], [1.0], [0.3], x, [0.7])
    qbd = stack.process(0)
    blocks = {
        name: np.array(getattr(qbd, name))
        for name in ("b00", "b01", "b10", "a0", "a1", "a2")
    }
    return {**blocks, "boundary_levels": qbd.boundary_levels}


class TestBoundaryLevels:
    def test_default_is_one_level(self):
        assert mm1_qbd().boundary_levels == (1,)

    def test_fgbg_levels_accepted(self):
        blocks = two_level_blocks()
        assert blocks["boundary_levels"] == (1, 3, 5)
        assert QBDProcess(**blocks).boundary_levels == (1, 3, 5)

    @pytest.mark.parametrize("levels", [(1, 3, 4), (1, 3, 5, 1), (0, 4, 5), (-1, 5, 5)])
    def test_rejects_wrong_sizes(self, levels):
        blocks = two_level_blocks()
        blocks["boundary_levels"] = levels
        with pytest.raises(ValueError, match="boundary_levels"):
            QBDProcess(**blocks)

    def test_rejects_entry_outside_band(self):
        # I(0) (level 0) jumping straight to level 2, row sum kept at zero.
        blocks = two_level_blocks()
        blocks["b00"][0, 8] += 0.1
        blocks["b00"][0, 0] -= 0.1
        with pytest.raises(ValueError, match="band in boundary level 0"):
            QBDProcess(**blocks)

    def test_rejects_up_move_below_last_level(self):
        blocks = two_level_blocks()
        blocks["b01"][1, 0] += 0.1
        blocks["b00"][1, 1] -= 0.1
        with pytest.raises(ValueError, match="b01 must be zero outside"):
            QBDProcess(**blocks)

    def test_rejects_down_move_below_last_level(self):
        blocks = two_level_blocks()
        blocks["b10"][0, 0] += 0.1
        blocks["a1"][0, 0] -= 0.1
        with pytest.raises(ValueError, match="b10 must be zero outside"):
            QBDProcess(**blocks)

    def test_same_blocks_valid_as_one_level(self):
        blocks = two_level_blocks()
        blocks["b00"][0, 8] += 0.1
        blocks["b00"][0, 0] -= 0.1
        del blocks["boundary_levels"]
        assert QBDProcess(**blocks).boundary_levels == (9,)

    def test_copies_the_callers_blocks(self):
        blocks = two_level_blocks()
        qbd = QBDProcess(**blocks)
        for name in ("b00", "b01", "b10", "a0", "a1", "a2"):
            assert blocks[name].flags.writeable
            assert not np.shares_memory(blocks[name], getattr(qbd, name))
            assert not getattr(qbd, name).flags.writeable


def verdict(make) -> str | None:
    """The ``ValueError`` message ``make()`` raises, or None if it passes."""
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


class TestRowSumEdge:
    """At the row-sum tolerance a stack and its item's dense QBD agree."""

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_stack_and_process_agree(self, k):
        # The E-mail chain at load 0.5 (X=5, p=0.3, mu = alpha), with
        # boundary row 2 summing to the tolerance plus k ulps: a sum
        # taken in a different order than the stack's lands on the other
        # side of the limit.
        from repro.core.blocks import build_qbd
        from repro.qbd import QBDStack
        from repro.workloads.paper import SERVICE_RATE_PER_MS, WORKLOADS

        mu = SERVICE_RATE_PER_MS
        arrival = WORKLOADS["email"].fit().scaled_to_utilization(0.5, mu)
        stack, _ = build_qbd([arrival], [mu], [0.3], 5, [mu])
        qbd = stack.process(0)
        dense = {
            name: np.array(getattr(qbd, name))
            for name in ("b00", "b01", "b10", "a0", "a1", "a2")
        }
        diagonal = np.concatenate([np.diag(qbd.b00), np.diag(qbd.a1)])
        limit = 1e-8 * max(np.abs(diagonal).max(), 1.0)
        row = 2
        b00 = dense["b00"]
        others = b00[row].sum() - b00[row, row] + dense["b01"][row].sum()
        b00[row, row] = limit + k * np.spacing(limit) - others
        layout = stack.layout
        band = np.array(stack.band)
        band[0, layout.diagonal[row]] = b00[row, row]
        fields = {
            name: np.array(getattr(stack, name))
            for name in ("a0", "a1", "a2", "b01", "b10")
        }
        stacked = verdict(
            lambda: QBDStack(
                **fields, band=band, boundary_levels=stack.boundary_levels
            )
        )
        one = verdict(
            lambda: QBDProcess(**dense, boundary_levels=stack.boundary_levels)
        )
        assert stacked == one


class TestTruncatedGenerator:
    def test_truncation_is_valid_generator(self):
        q = mm1_qbd().truncated_generator(levels=10)
        validate_generator(q)

    def test_truncation_matches_mm1k(self):
        lam, mu, levels = 1.0, 2.0, 30
        q = mm1_qbd(lam, mu).truncated_generator(levels)
        pi = stationary_distribution(q)
        rho = lam / mu
        expected = rho ** np.arange(levels + 1)
        expected /= expected.sum()
        np.testing.assert_allclose(pi, expected, atol=1e-10)

    def test_levels_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            mm1_qbd().truncated_generator(0)

    def test_repr(self):
        assert "boundary_size=1" in repr(mm1_qbd())
