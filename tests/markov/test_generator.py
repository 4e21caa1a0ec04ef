"""Tests for generator validation and transforms."""

import numpy as np
import pytest

from repro.markov import is_generator, validate_generator

VALID = np.array([[-2.0, 2.0], [3.0, -3.0]])


class TestValidateGenerator:
    def test_accepts_valid_generator(self):
        out = validate_generator(VALID)
        np.testing.assert_array_equal(out, VALID)

    def test_accepts_list_input(self):
        out = validate_generator([[-1.0, 1.0], [0.5, -0.5]])
        assert out.dtype == float

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_generator(np.ones((2, 3)))

    def test_rejects_negative_off_diagonal(self):
        q = np.array([[-1.0, -1.0], [2.0, -2.0]])
        with pytest.raises(ValueError, match="negative off-diagonal"):
            validate_generator(q)

    def test_rejects_positive_diagonal(self):
        q = np.array([[1.0, -1.0], [2.0, -2.0]])
        with pytest.raises(ValueError, match="off-diagonal|diagonal"):
            validate_generator(q)

    def test_rejects_nonzero_row_sums(self):
        q = np.array([[-1.0, 2.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="sums to"):
            validate_generator(q)

    def test_tolerates_tiny_rowsum_roundoff(self):
        q = np.array([[-1.0, 1.0 + 1e-13], [1.0, -1.0]])
        validate_generator(q)

    def test_scales_tolerance_with_rates(self):
        # Row sums off by 1e-7 are fine when rates are ~1e6.
        q = np.array([[-1e6, 1e6 + 1e-7], [1.0, -1.0]])
        validate_generator(q)

    def test_absorbing_state_allowed(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        validate_generator(q)


class TestIsGenerator:
    def test_true_for_valid(self):
        assert is_generator(VALID)

    def test_false_for_invalid(self):
        assert not is_generator(np.array([[1.0, -1.0], [0.0, 0.0]]))
