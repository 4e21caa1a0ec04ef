"""Unit tests of the individual contract validators."""

import numpy as np
import pytest

from repro.contracts import (
    ContractViolation,
    certify_spectral_radius_below_one,
    check_finite,
    check_generator,
    check_nonnegative,
    check_probability_vector,
    check_r_matrix,
    check_readonly,
    check_shape,
    check_stochastic,
    check_substochastic,
    contracted,
    contracts_enabled,
)
from repro.contracts.checks import ENV_SWITCH


class TestErrorType:
    def test_is_a_value_error(self):
        # Call sites that previously raised ValueError keep their catchers.
        assert issubclass(ContractViolation, ValueError)

    def test_carries_structured_fields(self):
        err = ContractViolation("check_generator", "Q", "row 0 sums to 1")
        assert err.check == "check_generator"
        assert err.subject == "Q"
        assert "row 0" in err.detail
        assert str(err) == "[check_generator] Q: row 0 sums to 1"


class TestSwitch:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_SWITCH, raising=False)
        assert contracts_enabled()

    @pytest.mark.parametrize("value", ["off", "0", "false", "no", "OFF", " Off "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_SWITCH, value)
        assert not contracts_enabled()

    @pytest.mark.parametrize("value", ["on", "1", "yes", ""])
    def test_other_values_keep_contracts_on(self, monkeypatch, value):
        monkeypatch.setenv(ENV_SWITCH, value)
        assert contracts_enabled()

    def test_disabled_checks_are_noops(self, monkeypatch):
        monkeypatch.setenv(ENV_SWITCH, "off")
        check_generator(np.array([[1.0, 1.0], [0.0, 5.0]]), "garbage")
        check_r_matrix(np.array([[2.0]]), "sp=2")
        check_probability_vector(np.array([-1.0, 3.0]), "not a pmf")


class TestMatrixChecks:
    def test_finite_rejects_nan(self):
        with pytest.raises(ContractViolation, match=r"\[check_finite\]"):
            check_finite(np.array([1.0, np.nan]), "v")

    def test_nonnegative_rejects_negative(self):
        with pytest.raises(ContractViolation, match="negative entry"):
            check_nonnegative(np.array([[0.0, -1e-3]]), "B")

    def test_nonnegative_tolerates_roundoff(self):
        check_nonnegative(np.array([[0.0, -1e-12]]), "B")

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation, match="expected shape"):
            check_shape(np.zeros((2, 2)), (3, 3), "seed")

    def test_readonly_rejects_writeable(self):
        with pytest.raises(ContractViolation, match="writeable"):
            check_readonly(np.zeros(3), "d0")

    def test_readonly_accepts_flagged(self):
        a = np.zeros(3)
        a.setflags(write=False)
        check_readonly(a, "d0")

    def test_generator_accepts_valid(self):
        check_generator(np.array([[-1.0, 1.0], [2.0, -2.0]]), "Q")

    def test_generator_rejects_nonzero_rows(self):
        q = np.array([[-1.0, 1.0 + 1e-3], [2.0, -2.0]])
        with pytest.raises(ContractViolation, match="sums to"):
            check_generator(q, "Q")

    def test_generator_rejects_negative_off_diagonal(self):
        q = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(ContractViolation, match="off-diagonal"):
            check_generator(q, "Q")

    def test_generator_scales_tolerance_with_rates(self):
        # A fast chain: row-sum residual of 1e-6 against rates of 1e4 is
        # roundoff, not a modelling error.
        q = np.array([[-1e4, 1e4 + 1e-6], [1e4, -1e4]])
        check_generator(q, "fast Q")

    def test_stochastic(self):
        check_stochastic(np.array([[0.5, 0.5]]), "P")
        with pytest.raises(ContractViolation, match="expected 1"):
            check_stochastic(np.array([[0.5, 0.6]]), "P")

    def test_substochastic(self):
        check_substochastic(np.array([[0.5, 0.2]]), "P")
        with pytest.raises(ContractViolation, match="> 1"):
            check_substochastic(np.array([[0.8, 0.7]]), "P")

    def test_probability_vector_total(self):
        check_probability_vector(np.array([0.25, 0.75]), "pi")
        with pytest.raises(ContractViolation, match="mass"):
            check_probability_vector(np.array([0.25, 0.25]), "pi")

    def test_probability_vector_partial_mass(self):
        # total=None: a boundary slice of the stationary vector.
        check_probability_vector(np.array([0.1, 0.2]), "pi_boundary", total=None)
        with pytest.raises(ContractViolation, match="negative"):
            check_probability_vector(np.array([-0.1, 0.2]), "pi", total=None)


class TestRMatrixCheck:
    def test_accepts_contraction(self):
        check_r_matrix(np.array([[0.3, 0.1], [0.0, 0.2]]), "R")

    def test_rejects_spectral_radius_one_or_more(self):
        with pytest.raises(ContractViolation, match="spectral radius"):
            check_r_matrix(np.array([[1.01]]), "R")

    def test_rejects_negative_entries(self):
        with pytest.raises(ContractViolation, match="negative entry"):
            check_r_matrix(np.array([[0.5, -0.2], [0.0, 0.1]]), "R")

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation, match="non-finite"):
            check_r_matrix(np.array([[np.nan]]), "R")

    def test_accepts_norm_exceeding_contraction(self):
        # ||R||_inf > 1 but sp(R) < 1: the Collatz-Wielandt tier must
        # certify it without raising.
        check_r_matrix(np.array([[0.1, 0.95], [0.05, 0.1]]), "R")

    def test_certificate_cache_cannot_false_pass(self):
        # Prime the per-order certificate cache with a stable matrix, then
        # present an unstable one of the same order: for any positive x,
        # max(Rx/x) >= sp(R), so a cached vector can only fail to certify.
        check_r_matrix(np.array([[0.1, 0.95], [0.05, 0.1]]), "R")
        with pytest.raises(ContractViolation, match="spectral radius"):
            check_r_matrix(np.array([[0.1, 1.2], [1.2, 0.1]]), "R")


class TestSpectralRadiusCertificate:
    def test_inf_norm_fast_path(self):
        assert certify_spectral_radius_below_one(
            np.array([[0.3, 0.1], [0.0, 0.2]])
        )

    def test_collatz_wielandt_tier(self):
        # ||R||_inf > 1 but sp(R) < 1: needs a tier beyond the norm.
        assert certify_spectral_radius_below_one(
            np.array([[0.1, 0.95], [0.05, 0.1]])
        )

    def test_rejects_radius_at_least_one(self):
        assert not certify_spectral_radius_below_one(np.array([[1.0]]))
        assert not certify_spectral_radius_below_one(
            np.array([[0.1, 1.2], [1.2, 0.1]])
        )

    def test_matches_eigenvalue_oracle_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 6)
            r = rng.uniform(0.0, 0.6, size=(n, n))
            certified = certify_spectral_radius_below_one(r)
            truth = float(np.max(np.abs(np.linalg.eigvals(r)))) < 1.0
            assert certified == truth

    def test_runs_with_contracts_disabled(self, monkeypatch):
        # A boolean query, not a gated check: it answers regardless of
        # the switch.
        monkeypatch.setenv(ENV_SWITCH, "off")
        assert certify_spectral_radius_below_one(np.array([[0.5]]))
        assert not certify_spectral_radius_below_one(np.array([[2.0]]))


class TestContractedDecorator:
    def test_pre_and_post_run_when_enabled(self):
        calls = []

        @contracted(
            pre=lambda x: calls.append(("pre", x)),
            post=lambda result, x: calls.append(("post", result)),
        )
        def double(x):
            return 2 * x

        assert double(3) == 6
        assert calls == [("pre", 3), ("post", 6)]

    def test_disabled_skips_hooks(self, monkeypatch):
        monkeypatch.setenv(ENV_SWITCH, "off")
        calls = []

        @contracted(pre=lambda x: calls.append("pre"))
        def ident(x):
            return x

        assert ident(7) == 7
        assert calls == []

    def test_pre_violation_blocks_call(self):
        ran = []

        def reject(x):
            raise ContractViolation("check_pre", "x", "rejected")

        @contracted(pre=reject)
        def body(x):
            ran.append(x)

        with pytest.raises(ContractViolation):
            body(1)
        assert ran == []
