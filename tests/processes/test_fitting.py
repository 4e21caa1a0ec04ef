"""Tests for moment/autocorrelation matching."""

import itertools
import math

import numpy as np
import pytest

from repro.processes import (
    MMPP,
    fit_h2_balanced,
    fit_ipp,
    fit_mmpp2_acf,
    fit_mmpp2_paper,
)
from repro.processes.fitting import fit_mmpp2, max_acf1_slow_switching
from repro.workloads.comparators import LOW_ACF_DECAY
from repro.workloads.paper import WORKLOADS


class TestFitH2Balanced:
    def test_matches_mean_and_scv(self):
        p1, mu1, mu2 = fit_h2_balanced(mean=4.0, scv=9.0)
        mean = p1 / mu1 + (1 - p1) / mu2
        m2 = 2 * (p1 / mu1**2 + (1 - p1) / mu2**2)
        assert mean == pytest.approx(4.0)
        assert m2 / mean**2 - 1 == pytest.approx(9.0)

    def test_balanced_means_condition(self):
        p1, mu1, mu2 = fit_h2_balanced(mean=1.0, scv=4.0)
        assert p1 / mu1 == pytest.approx((1 - p1) / mu2)

    def test_rejects_scv_at_most_one(self):
        with pytest.raises(ValueError, match="scv > 1"):
            fit_h2_balanced(1.0, 1.0)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError, match="positive"):
            fit_h2_balanced(0.0, 2.0)


class TestFitIPP:
    def test_matches_targets(self):
        ipp = fit_ipp(mean=75.0, scv=6.0)
        assert ipp.mean_interarrival == pytest.approx(75.0, rel=1e-9)
        assert ipp.scv == pytest.approx(6.0, rel=1e-9)

    def test_result_is_renewal(self):
        assert fit_ipp(mean=10.0, scv=3.0).is_renewal


class TestFitMMPP2:
    def test_matches_all_targets(self):
        m = fit_mmpp2(rate=0.02, scv=2.4, decay=0.99)
        assert m.mean_rate == pytest.approx(0.02, rel=1e-6)
        assert m.scv == pytest.approx(2.4, rel=1e-6)
        acf = m.acf(2)
        assert acf[1] / acf[0] == pytest.approx(0.99, abs=1e-6)

    def test_phase1_share_controls_asymmetry(self):
        a = fit_mmpp2(rate=0.01, scv=2.0, decay=0.95, phase1_share=0.5)
        b = fit_mmpp2(rate=0.01, scv=2.0, decay=0.95, phase1_share=0.8)
        assert a.parameters != b.parameters
        assert a.mean_rate == pytest.approx(b.mean_rate, rel=1e-6)

    def test_acf1_close_to_slow_switching_bound(self):
        m = fit_mmpp2(rate=1.0, scv=3.0, decay=0.995)
        bound = max_acf1_slow_switching(3.0, 0.995)
        assert m.acf_at(1) == pytest.approx(bound, rel=0.1)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(rate=-1.0, scv=2.0, decay=0.9), "rate"),
            (dict(rate=1.0, scv=0.5, decay=0.9), "scv > 1"),
            (dict(rate=1.0, scv=2.0, decay=1.5), "decay"),
            (dict(rate=1.0, scv=2.0, decay=0.9, phase1_share=0.0), "phase1_share"),
        ],
    )
    def test_input_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            fit_mmpp2(**kwargs)


def reference_fit(rate, scv, decay, phase1_share):
    """The bounded least-squares search ``fit_mmpp2`` replaced: four
    log-parameters against four residuals (rate, SCV, decay, share), from
    slow-switching starts and then seeded random restarts.

    Returns ``(mmpp, cost)``, the best fit and its largest residual.
    """
    from scipy.optimize import least_squares

    def slow_switching_start(p1):
        mean = 1.0 / rate
        between_var = (scv - 1.0) * mean**2 / 2.0
        m1 = mean - math.sqrt(between_var * (1.0 - p1) / p1)
        m2 = mean + math.sqrt(between_var * p1 / (1.0 - p1))
        if m1 <= 0:
            return None
        pi1, pi2 = p1 * rate * m1, (1.0 - p1) * rate * m2
        omega = (1.0 - decay) / (pi2 * m1 + pi1 * m2)
        return np.log(np.array([omega * pi2, omega * pi1, 1 / m1, 1 / m2]) / rate)

    def residuals(x):
        v1, v2, l1, l2 = np.exp(x) * rate
        try:
            mmpp = MMPP.two_state(v1, v2, l1, l2)
        except (ValueError, np.linalg.LinAlgError):
            return np.full(4, 1e3)
        acf = mmpp.acf(2)
        observed_decay = acf[1] / acf[0] if abs(acf[0]) > 1e-14 else 0.0
        share = mmpp.phase_stationary[0] * l1 / mmpp.mean_rate
        return np.array(
            [
                mmpp.mean_rate / rate - 1.0,
                (mmpp.scv - scv) / max(scv, 1.0),
                observed_decay - decay,
                share - phase1_share,
            ]
        )

    min_share = (scv - 1.0) / (scv + 1.0)
    shares = [phase1_share]
    shares += [min_share + f * (1.0 - min_share) for f in (0.25, 0.5, 0.75, 0.9)]
    starts = [x for x in map(slow_switching_start, shares) if x is not None]
    rng = np.random.default_rng(20060625)
    while len(starts) < 16:
        starts.append(rng.uniform(np.log(1e-6), np.log(1e2), size=4))
    best, best_cost = None, np.inf
    for x0 in starts:
        result = least_squares(
            residuals, x0, bounds=(np.log(1e-12), np.log(1e6)), xtol=1e-15, ftol=1e-15
        )
        cost = float(np.max(np.abs(result.fun)))
        if cost < best_cost:
            best_cost = cost
            best = MMPP.two_state(*(np.exp(result.x) * rate))
        if best_cost < 1e-8:
            break
    return best, best_cost


def _fit_targets():
    """(rate, scv, decay, share): the paper workloads, their low-ACF
    comparators, and a grid over scv x decay x three shares."""
    targets = []
    for spec in WORKLOADS.values():
        for decay in (spec.acf_decay, LOW_ACF_DECAY):
            share = (1.0 + (spec.scv - 1.0) / (spec.scv + 1.0)) / 2.0
            targets.append((spec.base_rate, spec.scv, decay, share))
    for scv, decay, frac in itertools.product(
        (1.05, 1.4, 2.0, 2.4, 4.0, 10.0), (0.5, 0.8, 0.9, 0.99, 0.995), (0.05, 0.5, 0.9)
    ):
        min_share = (scv - 1.0) / (scv + 1.0)
        targets.append((0.01, scv, decay, min_share + frac * (1.0 - min_share)))
    return targets


def _assert_matches_targets(mmpp, rate, scv, decay, share):
    acf = mmpp.acf(2)
    fitted_share = mmpp.phase_stationary[0] * mmpp.parameters["l1"] / mmpp.mean_rate
    assert mmpp.mean_rate == pytest.approx(rate, rel=1e-12, abs=0)
    assert fitted_share == pytest.approx(share, rel=0, abs=1e-12)
    assert acf[1] / acf[0] == pytest.approx(decay, rel=0, abs=1e-12)
    assert mmpp.scv == pytest.approx(scv, rel=1e-10, abs=0)


class TestFitMMPP2AgainstLeastSquares:
    @pytest.mark.parametrize("rate,scv,decay,share", _fit_targets())
    def test_agrees_with_reference(self, rate, scv, decay, share):
        reference, cost = reference_fit(rate, scv, decay, share)
        try:
            fitted = fit_mmpp2(rate, scv, decay, phase1_share=share)
        except ValueError as exc:
            assert cost > 1e-8, f"reference fits with residual {cost:.3g}"
            assert "could not fit MMPP(2)" in str(exc)
            return
        _assert_matches_targets(fitted, rate, scv, decay, share)
        if cost < 1e-8:
            # Same root: same orientation, and parameters as close as the
            # reference's own residual pins them (at scv=10, decay=0.99 a
            # 9e-9 residual leaves them 2e-6 apart; the new fit is exact).
            new, old = fitted.parameters, reference.parameters
            assert (new["l1"] > new["l2"]) == (old["l1"] > old["l2"])
            for name in ("v1", "v2", "l1", "l2"):
                rel = max(1e-6, 1e3 * cost)
                assert new[name] == pytest.approx(old[name], rel=rel), name

    def test_phase_swapped_fit_near_the_minimum_share(self):
        # (0, share) holds no root here, so the fit comes from (share, 1):
        # phase 1 carries its share of arrivals at the lower rate.
        fitted = fit_mmpp2(rate=0.01, scv=1.4, decay=0.5, phase1_share=0.208)
        _assert_matches_targets(fitted, 0.01, 1.4, 0.5, 0.208)
        assert fitted.parameters["l1"] < fitted.parameters["l2"]

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError, match="could not fit MMPP"):
            fit_mmpp2(rate=0.01, scv=4.0, decay=0.05)


class TestFitMMPP2Acf:
    def test_feasible_target_succeeds(self):
        bound = max_acf1_slow_switching(2.4, 0.99)
        m = fit_mmpp2_acf(rate=0.5, scv=2.4, acf1=bound, decay=0.99)
        assert m.acf_at(1) == pytest.approx(bound, rel=0.05)

    def test_infeasible_target_raises_with_guidance(self):
        with pytest.raises(ValueError, match="out of reach"):
            fit_mmpp2_acf(rate=0.5, scv=9.0, acf1=0.05, decay=0.99)

    def test_rejects_acf1_out_of_range(self):
        with pytest.raises(ValueError, match="0, 0.5"):
            fit_mmpp2_acf(rate=1.0, scv=2.0, acf1=0.7)


class TestFitMMPP2Paper:
    def test_matches_targets_with_fixed_l1(self):
        m = fit_mmpp2_paper(rate=0.0133, scv=2.4, acf1=0.28, l1=0.08)
        assert m.parameters["l1"] == pytest.approx(0.08)
        assert m.mean_rate == pytest.approx(0.0133, rel=1e-4)
        assert m.scv == pytest.approx(2.4, rel=1e-4)
        assert m.acf_at(1) == pytest.approx(0.28, abs=1e-4)

    def test_l1_must_exceed_rate(self):
        with pytest.raises(ValueError, match="must exceed"):
            fit_mmpp2_paper(rate=1.0, scv=2.0, acf1=0.2, l1=0.5)

    def test_rejects_low_scv(self):
        with pytest.raises(ValueError, match="scv > 1"):
            fit_mmpp2_paper(rate=0.01, scv=0.9, acf1=0.2, l1=0.1)
