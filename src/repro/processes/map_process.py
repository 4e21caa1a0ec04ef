"""Markovian Arrival Processes (MAPs).

A MAP of order ``A`` is described by two ``A x A`` matrices ``(D0, D1)``:
``D0`` holds the transition rates that do *not* produce an arrival (its
diagonal is negative and makes ``D0 + D1`` a proper CTMC generator), while
``D1`` holds the rates of transitions that produce one arrival.  MMPPs,
Poisson processes and interrupted Poisson processes are all special cases.

The closed-form descriptors implemented here (mean rate, squared coefficient
of variation and lag-k autocorrelation of the inter-arrival times) follow the
standard matrix-analytic formulas, e.g. Neuts (1989) and the paper's
Eqs. (1)-(3).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.markov.generator import validate_generator
from repro.markov.stationary import stationary_distribution, stationary_of_validated

__all__ = ["MarkovianArrivalProcess"]


def _freeze(*arrays: np.ndarray) -> None:
    """Make every array read-only before a construction certificate.

    Must stay unconditional and directly called: reprolint's freeze
    oracle (RL002/RL006) recognizes one level of same-module helpers,
    no deeper and never behind a data-dependent branch.
    """
    for array in arrays:
        array.setflags(write=False)


class MarkovianArrivalProcess:
    """A Markovian Arrival Process characterised by matrices ``(D0, D1)``.

    Parameters
    ----------
    d0:
        Square matrix of phase transitions without arrivals.  Off-diagonal
        entries must be non-negative; diagonal entries must be negative
        enough that ``D0 + D1`` has zero row sums.
    d1:
        Square matrix (same order) of phase transitions that produce an
        arrival.  All entries must be non-negative.

    Raises
    ------
    ValueError
        If the matrices do not describe a valid, irreducible MAP.
    """

    def __init__(self, d0: np.ndarray, d1: np.ndarray) -> None:
        d0 = np.asarray(d0, dtype=float)
        d1 = np.asarray(d1, dtype=float)
        if d0.ndim != 2 or d0.shape[0] != d0.shape[1]:
            raise ValueError(f"D0 must be square, got shape {d0.shape}")
        if d1.shape != d0.shape:
            raise ValueError(
                f"D0 and D1 must have the same shape, got {d0.shape} and {d1.shape}"
            )
        if np.any(d1 < 0):
            raise ValueError("D1 must be entrywise non-negative")
        off_diag = d0 - np.diag(np.diag(d0))
        if np.any(off_diag < 0):
            raise ValueError("off-diagonal entries of D0 must be non-negative")
        validate_generator(d0 + d1)
        if np.all(d1 == 0):
            raise ValueError("D1 is identically zero: the process never produces arrivals")
        _freeze(d0, d1)
        self._d0 = d0
        self._d1 = d1
        #: Construction certificate consumed by the contract layer: D0+D1
        #: passed validate_generator above and both matrices are frozen,
        #: so downstream models need not re-validate the phase process.
        self._generator_validated = True

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def d0(self) -> np.ndarray:
        """Phase-transition matrix without arrivals."""
        return self._d0

    @property
    def d1(self) -> np.ndarray:
        """Phase-transition matrix with arrivals."""
        return self._d1

    @property
    def order(self) -> int:
        """Number of phases of the underlying Markov chain."""
        return self._d0.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """Generator ``D0 + D1`` of the phase process."""
        return self._d0 + self._d1

    @cached_property
    def phase_stationary(self) -> np.ndarray:
        """Stationary distribution ``pi`` of the phase process (time average)."""
        if self._certified():
            return stationary_of_validated(self.generator)
        return stationary_distribution(self.generator)

    @cached_property
    def mean_rate(self) -> float:
        """Long-run arrival rate ``lambda = pi D1 e`` (paper Eq. 1)."""
        return float(self.phase_stationary @ self._d1 @ np.ones(self.order))

    @cached_property
    def _inv_neg_d0(self) -> np.ndarray:
        """``(-D0)^{-1}``, the expected sojourn matrix between arrivals."""
        return np.linalg.inv(-self._d0)

    @cached_property
    def embedded_transition(self) -> np.ndarray:
        """Transition matrix ``P = (-D0)^{-1} D1`` of the phase chain embedded
        at arrival epochs."""
        return self._inv_neg_d0 @ self._d1

    @cached_property
    def embedded_stationary(self) -> np.ndarray:
        """Stationary phase distribution just after an arrival.

        Equals ``pi D1 / lambda`` and is the left Perron vector of
        :attr:`embedded_transition`.
        """
        return self.phase_stationary @ self._d1 / self.mean_rate

    # ------------------------------------------------------------------
    # Inter-arrival time descriptors
    # ------------------------------------------------------------------
    def interarrival_moment(self, n: int) -> float:
        """Return the n-th moment of the stationary inter-arrival time.

        ``E[X^n] = n! * pi_e (-D0)^{-n} e``.
        """
        if n < 1:
            raise ValueError(f"moment order must be >= 1, got {n}")
        vec = np.ones(self.order)
        for _ in range(n):
            vec = self._inv_neg_d0 @ vec
        return float(math.factorial(n) * self.embedded_stationary @ vec)

    @cached_property
    def mean_interarrival(self) -> float:
        """Mean inter-arrival time (equals ``1 / mean_rate``)."""
        return self.interarrival_moment(1)

    @cached_property
    def scv(self) -> float:
        """Squared coefficient of variation of inter-arrival times (Eq. 2)."""
        m1 = self.interarrival_moment(1)
        m2 = self.interarrival_moment(2)
        return m2 / m1**2 - 1.0

    @property
    def cv(self) -> float:
        """Coefficient of variation of inter-arrival times."""
        return float(np.sqrt(self.scv))

    def acf(self, lags: int) -> np.ndarray:
        """Lag-k autocorrelation of inter-arrival times for k = 1..lags.

        Implements the paper's Eq. (3) with the embedded (arrival-epoch)
        stationary vector: ``ACF(k) = (E[X_0 X_k] - E[X]^2) / Var[X]`` with
        ``E[X_0 X_k] = pi_e M P^k M e`` and ``M = (-D0)^{-1}``.
        """
        if lags < 1:
            raise ValueError(f"lags must be >= 1, got {lags}")
        m = self._inv_neg_d0
        p = self.embedded_transition
        pi_e = self.embedded_stationary
        mean = self.interarrival_moment(1)
        var = self.interarrival_moment(2) - mean**2
        if var <= 0:
            # Deterministic inter-arrivals cannot happen for a MAP, but a
            # Poisson process has var > 0 always; guard division anyway.
            return np.zeros(lags)
        ones = np.ones(self.order)
        out = np.empty(lags)
        # Iteratively apply P to (M e) to avoid forming P^k explicitly.
        vec = m @ ones
        for k in range(1, lags + 1):
            vec = p @ vec
            joint = float(pi_e @ m @ vec)
            out[k - 1] = (joint - mean**2) / var
        return out

    def acf_at(self, lag: int) -> float:
        """Lag-``lag`` autocorrelation of inter-arrival times."""
        return float(self.acf(lag)[-1])

    @cached_property
    def is_renewal(self) -> bool:
        """True when inter-arrival times are independent (ACF identically 0).

        A MAP is a renewal process iff the embedded phase distribution after
        an arrival does not depend on the pre-arrival phase, i.e. every row
        of ``P = (-D0)^{-1} D1`` equals the embedded stationary vector.
        """
        p = self.embedded_transition
        return bool(np.allclose(p, np.tile(self.embedded_stationary, (self.order, 1)), atol=1e-12))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled_by(self, factor: float) -> "MarkovianArrivalProcess":
        """Return a time-rescaled copy whose mean rate is multiplied by
        ``factor``.

        Both matrices are multiplied by ``factor``; the CV and the lag-k ACF
        are invariant under this transformation, which is exactly how the
        paper sweeps foreground load while keeping the dependence structure
        fixed.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        d0, d1 = self._d0 * factor, self._d1 * factor
        if type(self) is MarkovianArrivalProcess and self._certified():
            # A positive multiple of a valid MAP is a valid MAP: carry the
            # certificate instead of re-validating (same matrices as the
            # constructor would store).
            copy = object.__new__(MarkovianArrivalProcess)
            copy._adopt_validated(d0, d1)
            return copy
        return type(self)._from_matrices(d0, d1)

    def _certified(self) -> bool:
        """Does this instance carry the construction certificate over
        read-only matrices?"""
        return (
            getattr(self, "_generator_validated", False)
            and not self._d0.flags.writeable
            and not self._d1.flags.writeable
        )

    def _adopt_validated(self, d0: np.ndarray, d1: np.ndarray) -> None:
        """Store matrices derived from a certified MAP by an operation that
        keeps ``D0 + D1`` a generator: freeze them and carry the
        certificate, as the constructor does after its checks."""
        _freeze(d0, d1)
        self._d0 = d0
        self._d1 = d1
        self._generator_validated = True

    def scaled_to_rate(self, rate: float) -> "MarkovianArrivalProcess":
        """Return a copy rescaled to the given mean arrival rate."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self.scaled_by(rate / self.mean_rate)

    def scaled_to_utilization(
        self, utilization: float, service_rate: float
    ) -> "MarkovianArrivalProcess":
        """Return a copy rescaled so that ``lambda / service_rate`` equals
        ``utilization``."""
        if not 0 < utilization:
            raise ValueError(f"utilization must be positive, got {utilization}")
        if service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {service_rate}")
        return self.scaled_to_rate(utilization * service_rate)

    @classmethod
    def _from_matrices(cls, d0: np.ndarray, d1: np.ndarray) -> "MarkovianArrivalProcess":
        """Construct bypassing subclass-specific constructors.

        Subclasses with richer constructors (e.g. :class:`MMPP`) override
        this so that scaling preserves their type where possible.
        """
        return MarkovianArrivalProcess(d0, d1)

    def superpose(self, other: "MarkovianArrivalProcess") -> "MarkovianArrivalProcess":
        """Superposition of two independent MAPs (Kronecker-sum construction)."""
        ia = np.eye(self.order)
        ib = np.eye(other.order)
        d0 = np.kron(self._d0, ib) + np.kron(ia, other._d0)
        d1 = np.kron(self._d1, ib) + np.kron(ia, other._d1)
        return MarkovianArrivalProcess(d0, d1)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(order={self.order}, rate={self.mean_rate:.6g}, "
            f"scv={self.scv:.4g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovianArrivalProcess):
            return NotImplemented
        return np.array_equal(self._d0, other._d0) and np.array_equal(self._d1, other._d1)

    def __hash__(self) -> int:
        return hash((self._d0.tobytes(), self._d1.tobytes()))
