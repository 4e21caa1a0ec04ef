"""Moment- and autocorrelation-matching of arrival processes.

The paper parameterizes 2-state MMPPs by "a simple moment matching approach"
with one degree of freedom (paper Section 3.1).  This module implements:

* :func:`fit_h2_balanced` -- two-phase hyperexponential matched to a mean
  and an SCV >= 1 (balanced means).
* :func:`fit_ipp` -- interrupted Poisson process with the same renewal
  inter-arrival law (high variability, zero autocorrelation).
* :func:`fit_mmpp2` -- 2-state MMPP matched to (rate, SCV, ACF decay and
  phase-1 share) by one scalar equation in the phase-1 probability.
* :func:`fit_mmpp2_acf` -- :func:`fit_mmpp2` checked against a lag-1 ACF.
* :func:`fit_mmpp2_paper` -- the paper's scheme: ``l1`` is the free
  parameter, the remaining three parameters are solved to match rate, SCV
  and lag-1 ACF.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.contracts.checks import check_generator, check_nonnegative
from repro.contracts.decorator import contracted
from repro.processes.ipp import InterruptedPoissonProcess
from repro.processes.mmpp import MMPP

__all__ = [
    "fit_h2_balanced",
    "fit_ipp",
    "fit_mmpp2",
    "fit_mmpp2_acf",
    "fit_mmpp2_from_trace",
    "fit_mmpp2_paper",
    "max_acf1_slow_switching",
]


def fit_h2_balanced(mean: float, scv: float) -> tuple[float, float, float]:
    """Fit a 2-phase hyperexponential with balanced means.

    Returns ``(p1, mu1, mu2)`` such that the mixture
    ``p1 Exp(mu1) + (1-p1) Exp(mu2)`` has the requested mean and SCV and
    satisfies the balanced-means condition ``p1/mu1 = (1-p1)/mu2``.

    Requires ``scv >= 1`` (strictly > 1 for a genuine 2-phase fit; ``scv == 1``
    degenerates to an exponential and raises).
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if scv <= 1:
        raise ValueError(
            f"a hyperexponential requires scv > 1, got {scv}; use an Erlang or "
            "exponential fit instead"
        )
    p1 = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    mu1 = 2.0 * p1 / mean
    mu2 = 2.0 * (1.0 - p1) / mean
    return p1, mu1, mu2


def fit_ipp(mean: float, scv: float) -> InterruptedPoissonProcess:
    """IPP whose (renewal) inter-arrival times match ``(mean, scv)``.

    This is the paper's Section 5.4 comparator: same first two moments as a
    correlated workload but independent inter-arrival times.
    """
    p1, mu1, mu2 = fit_h2_balanced(mean, scv)
    return InterruptedPoissonProcess.from_hyperexponential(p1, mu1, mu2)


def _mmpp2_residuals(
    mmpp: MMPP, rate: float, scv: float, acf1: float, decay: float | None
) -> np.ndarray:
    acf = mmpp.acf(2)
    res = [
        mmpp.mean_rate / rate - 1.0,
        (mmpp.scv - scv) / max(scv, 1.0),
        acf[0] - acf1,
    ]
    if decay is not None:
        observed_decay = acf[1] / acf[0] if abs(acf[0]) > 1e-14 else 0.0
        res.append(observed_decay - decay)
    return np.asarray(res)


def max_acf1_slow_switching(scv: float, decay: float) -> float:
    """Approximate upper bound on the lag-1 ACF of an MMPP(2).

    In the slow-switching regime the inter-arrival sequence is a mixture of
    long exponential runs and its lag-1 autocorrelation approaches
    ``decay * (scv - 1) / (2 * scv)`` -- the between-phase share of the
    variance times the geometric decay factor.  Useful to pick *feasible*
    fitting targets.
    """
    if scv <= 1:
        return 0.0
    return decay * (scv - 1.0) / (2.0 * scv)


def _check_fitted_mmpp(result: MMPP, *args: object, **kwargs: object) -> None:
    """Postcondition of the MMPP fitters: the returned process must be a
    structurally valid MAP (generator phase process, non-negative D1)."""
    check_generator(result.generator, "fitted MMPP(2) D0+D1")
    check_nonnegative(result.d1, "fitted MMPP(2) D1")


def _mmpp2_at(
    rate: float, share: float, decay: float, pi1: float
) -> tuple[float, float, float, float]:
    """``(v1, v2, l1, l2)`` of the MMPP(2) with time-stationary phase-1
    probability ``pi1`` that has the given rate, phase-1 share and decay.

    The share fixes ``l1 = share rate / pi1`` and
    ``l2 = (1 - share) rate / (1 - pi1)``.  The decay is the non-unit
    eigenvalue of ``P = (-D0)^{-1} D1``, i.e. ``det P =
    l1 l2 / (l1 l2 + (v1 + v2) rate)``, which fixes ``v1 + v2``; and
    ``pi1 = v2 / (v1 + v2)`` splits it.
    """
    l1 = share * rate / pi1
    l2 = (1.0 - share) * rate / (1.0 - pi1)
    switching = l1 * l2 * (1.0 - decay) / (decay * rate)
    return (1.0 - pi1) * switching, pi1 * switching, l1, l2


def _mmpp2_scv(v1: float, v2: float, l1: float, l2: float, share: float) -> float:
    """Inter-arrival SCV of an MMPP(2) whose embedded (arrival-epoch) phase
    distribution is ``(share, 1 - share)``, from
    ``E[X^k] = k! phi (-D0)^{-k} e`` in plain floats."""
    a, d = l1 + v1, l2 + v2  # -D0 = [[a, -v1], [-v2, d]]
    det = a * d - v1 * v2
    u1, u2 = (d + v1) / det, (a + v2) / det  # (-D0)^{-1} e
    w1, w2 = (d * u1 + v1 * u2) / det, (v2 * u1 + a * u2) / det  # (-D0)^{-2} e
    m1 = share * u1 + (1.0 - share) * u2
    m2 = 2.0 * (share * w1 + (1.0 - share) * w2)
    return m2 / (m1 * m1) - 1.0


def _bisect(excess: Callable[[float], float], above: float, below: float) -> float:
    """The root of ``excess`` between ``above`` (where it is positive) and
    ``below`` (where it is not), bisected until the two are adjacent floats."""
    while True:
        mid = 0.5 * (above + below)
        if mid == above or mid == below:
            break
        if excess(mid) > 0:
            above = mid
        else:
            below = mid
    return above if abs(excess(above)) <= abs(excess(below)) else below


#: Relative distance from an open end of a search interval at which the
#: sign of the SCV excess is probed (the end itself is a degenerate MMPP).
_END_PROBE = 2.0**-40


@contracted(post=_check_fitted_mmpp)
def fit_mmpp2(
    rate: float,
    scv: float,
    decay: float,
    phase1_share: float | None = None,
) -> MMPP:
    """Fit a 2-state MMPP to a mean rate, an SCV and a geometric ACF decay.

    For an MMPP(2) the inter-arrival autocorrelation is geometric,
    ``ACF(k) = c * decay**k``, and at a fixed ``(scv, decay)`` the
    coefficient ``c`` is confined to a narrow band near
    ``(scv - 1) / (2 * scv)`` (see :func:`max_acf1_slow_switching`), so
    ``(rate, scv, decay)`` is the natural complete target set.  The leftover
    degree of freedom is fixed by ``phase1_share``, the fraction of arrivals
    produced in the fast phase.

    The fit is parameterized by ``pi1``, the time-stationary probability of
    phase 1: rate, share and decay then hold by construction, and ``pi1``
    solves the one equation ``SCV(pi1) = scv``.  The root is bisected on
    ``(0, share)``, where ``l1 > l2`` (phase 1 is the bursty phase); only if
    that interval holds no root is ``(share, 1)`` searched, which gives a
    fit with the phases swapped (``l1 < l2``).

    Parameters
    ----------
    rate:
        Target mean arrival rate (> 0).
    scv:
        Target squared coefficient of variation of inter-arrival times
        (> 1; an MMPP(2) cannot produce SCV <= 1).
    decay:
        Target ratio ``ACF(2)/ACF(1)`` in (0, 1); values close to 1 give the
        slowly decaying, strongly dependent E-mail-like processes.
    phase1_share:
        Fraction of arrivals produced in phase 1.  Must exceed
        ``(scv - 1) / (scv + 1)``; by default the midpoint of the feasible
        interval is used.  Pass ``None`` explicitly to get the default.

    Raises
    ------
    ValueError
        If an argument is out of range, or no MMPP(2) matches the targets.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if scv <= 1:
        raise ValueError(f"an MMPP(2) requires scv > 1, got {scv}")
    if not 0 < decay < 1:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    min_share = (scv - 1.0) / (scv + 1.0)
    if phase1_share is None:
        phase1_share = (1.0 + min_share) / 2.0
    if not min_share < phase1_share < 1:
        raise ValueError(
            f"phase1_share must lie in ({min_share:.4f}, 1) for scv={scv}, "
            f"got {phase1_share}"
        )
    share = phase1_share

    def excess(pi1: float) -> float:
        return _mmpp2_scv(*_mmpp2_at(rate, share, decay, pi1), share) - scv

    # At pi1 = share both phases run at the mean rate: a Poisson process,
    # SCV 1 < scv.  Each side of it held at most one root over a scan of
    # scv 1.05-20 x decay 0.05-0.999, so a side holds a root iff the
    # excess is positive near its far end.
    for far in (share * _END_PROBE, 1.0 - (1.0 - share) * _END_PROBE):
        if excess(far) > 0:
            pi1 = _bisect(excess, far, share)
            return MMPP.two_state(*_mmpp2_at(rate, share, decay, pi1))
    raise ValueError(
        f"could not fit MMPP(2) to rate={rate}, scv={scv}, decay={decay}, "
        f"phase1_share={phase1_share}: no phase-1 probability attains the SCV"
    )


def fit_mmpp2_acf(
    rate: float,
    scv: float,
    acf1: float,
    decay: float = 0.99,
    acf1_tolerance: float = 0.05,
) -> MMPP:
    """Fit a 2-state MMPP to a mean rate, SCV, lag-1 ACF and ACF decay.

    An MMPP(2) cannot choose its lag-1 ACF freely once ``(scv, decay)`` are
    fixed: the coefficient of its geometric ACF lives in a narrow band near
    ``(scv - 1) / (2 scv)``.  This convenience wrapper fits via
    :func:`fit_mmpp2` and verifies that the achieved lag-1 ACF is within
    ``acf1_tolerance`` (relative) of the requested ``acf1``, raising
    otherwise with the implied feasible value.

    Raises
    ------
    ValueError
        If ``acf1`` is not attainable for the requested ``(scv, decay)``.
    """
    if not 0 < acf1 < 0.5:
        raise ValueError(f"lag-1 ACF of an MMPP(2) must lie in (0, 0.5), got {acf1}")
    mmpp = fit_mmpp2(rate, scv, decay)
    achieved = mmpp.acf_at(1)
    if abs(achieved - acf1) > acf1_tolerance * max(acf1, 1e-12):
        raise ValueError(
            f"an MMPP(2) with scv={scv} and decay={decay} has lag-1 ACF "
            f"~{achieved:.4f} (the feasible band is pinned near "
            f"{max_acf1_slow_switching(scv, decay):.4f}); the requested "
            f"acf1={acf1} is out of reach. Adjust scv or decay: "
            f"acf1 ~ decay * (scv - 1) / (2 * scv)."
        )
    return mmpp


def fit_mmpp2_paper(
    rate: float,
    scv: float,
    acf1: float,
    l1: float,
    max_restarts: int = 16,
) -> MMPP:
    """The paper's moment-matching scheme with ``l1`` as the free parameter.

    Solves for ``(v1, v2, l2)`` so that the resulting MMPP(2) matches the
    target mean rate, SCV and lag-1 ACF; ``l1`` (the high arrival rate of
    the bursty phase) is supplied by the caller, exactly as in the paper
    where it is "adjusted to let the analytic model have the same mean
    response time as the real system".
    """
    if l1 <= rate:
        raise ValueError(
            f"the bursty-phase rate l1 ({l1}) must exceed the mean rate ({rate})"
        )
    if scv <= 1:
        raise ValueError(f"an MMPP(2) requires scv > 1, got {scv}")
    # The only scipy.optimize use in the package, so imported here rather
    # than on the figure path, which fits with fit_mmpp2.
    from scipy.optimize import least_squares

    rng = np.random.default_rng(1251)  # 1251 Waterfront Place

    def residuals(x: np.ndarray) -> np.ndarray:
        v1, v2, l2 = np.exp(x) * rate
        try:
            mmpp = MMPP.two_state(v1, v2, l1, l2)
            return _mmpp2_residuals(mmpp, rate, scv, acf1, None)
        except (ValueError, np.linalg.LinAlgError):
            return np.full(3, 1e3)

    best_x: np.ndarray | None = None
    best_cost = np.inf
    for attempt in range(max_restarts):
        if attempt == 0:
            x0 = np.log(np.array([1e-3, 1e-3, 0.5]))
        else:
            x0 = rng.uniform(np.log(1e-6), np.log(1e1), size=3)
        result = least_squares(
            residuals, x0, bounds=(np.log(1e-9), np.log(1e5)), xtol=1e-14, ftol=1e-14
        )
        cost = float(np.max(np.abs(result.fun)))
        if cost < best_cost:
            best_cost = cost
            best_x = result.x
        if best_cost < 1e-8:
            break
    if best_x is None or best_cost > 1e-4:
        raise ValueError(
            f"could not fit MMPP(2) with fixed l1={l1} to rate={rate}, "
            f"scv={scv}, acf1={acf1}: best residual {best_cost:.3g}"
        )
    v1, v2, l2 = np.exp(best_x) * rate
    return MMPP.two_state(v1, v2, l1, l2)


def fit_mmpp2_from_trace(
    interarrivals: np.ndarray,
    decay_lags: int = 10,
    min_acf1: float = 0.005,
) -> MMPP:
    """Fit a 2-state MMPP to a measured inter-arrival trace.

    The paper's workflow (Figures 1 -> 2) end to end: estimate the mean
    rate, the SCV and the geometric ACF decay from the sample, then match
    them with :func:`fit_mmpp2`.  The decay factor is estimated by a
    least-squares line through ``log ACF(k)`` over the first ``decay_lags``
    positive-ACF lags, which is robust to the noise of individual lag
    estimates.

    Parameters
    ----------
    interarrivals:
        1-D sample of inter-arrival times (a few thousand at minimum for a
        usable ACF estimate).
    decay_lags:
        Number of leading lags used for the decay regression.
    min_acf1:
        Below this estimated lag-1 ACF the sample is treated as
        uncorrelated and a ValueError suggests :func:`fit_ipp` (or a
        Poisson process) instead.

    Raises
    ------
    ValueError
        If the sample is too short, effectively uncorrelated, or has
        SCV <= 1 (no MMPP(2) exists).
    """
    from repro.processes.statistics import autocorrelation

    x = np.asarray(interarrivals, dtype=float)
    if x.ndim != 1 or x.shape[0] < 10 * decay_lags:
        raise ValueError(
            f"need a 1-D trace of at least {10 * decay_lags} inter-arrivals, "
            f"got shape {x.shape}"
        )
    mean = float(x.mean())
    if mean <= 0:
        raise ValueError("inter-arrival times must have a positive mean")
    scv = float(x.var() / mean**2)
    if scv <= 1.0:
        raise ValueError(
            f"sample SCV {scv:.3f} <= 1: an MMPP(2) cannot match it; fit a "
            "(shifted) Erlang renewal process instead"
        )
    acf = autocorrelation(x, decay_lags)
    if acf[0] < min_acf1:
        raise ValueError(
            f"sample lag-1 ACF {acf[0]:.4f} is below {min_acf1}: the trace "
            "looks uncorrelated; use fit_ipp(mean, scv) or a Poisson process"
        )
    usable = acf > 0
    k_max = int(np.argmin(usable)) if not usable.all() else decay_lags
    if k_max < 2:
        raise ValueError("ACF turns non-positive at lag 2; cannot estimate decay")
    lags = np.arange(1, k_max + 1)
    slope, _ = np.polyfit(lags, np.log(acf[:k_max]), deg=1)
    decay = float(np.exp(slope))
    decay = min(max(decay, 1e-3), 1.0 - 1e-6)
    return fit_mmpp2(rate=1.0 / mean, scv=scv, decay=decay)
