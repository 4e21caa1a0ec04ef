"""Continuous phase-type (PH) distributions.

A PH distribution is the absorption time of a CTMC with transient generator
``T`` started from distribution ``alpha``.  The library uses PH distributions
for service and idle-wait processes (the paper's footnote 3 notes that the
model lifts to MAP/PH service via Kronecker products) and as analytic forms
for the simulator's random variates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property

import numpy as np

__all__ = ["PhaseType"]


class PhaseType:
    """Phase-type distribution ``PH(alpha, T)``.

    Parameters
    ----------
    alpha:
        Initial probability vector over the transient phases.  Mass may be
        deliberately sub-stochastic only by a point mass at zero, which this
        implementation disallows: ``alpha`` must sum to 1.
    t:
        Transient generator; row sums must be non-positive with at least one
        strictly negative exit path so absorption is certain.
    """

    def __init__(self, alpha: np.ndarray, t: np.ndarray) -> None:
        alpha = np.asarray(alpha, dtype=float)
        t = np.asarray(t, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"T must be square, got shape {t.shape}")
        if alpha.shape != (t.shape[0],):
            raise ValueError(
                f"alpha has shape {alpha.shape}, expected ({t.shape[0]},)"
            )
        if np.any(alpha < 0) or not math.isclose(alpha.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("alpha must be a probability vector")
        off = t - np.diag(np.diag(t))
        if np.any(off < 0):
            raise ValueError("off-diagonal entries of T must be non-negative")
        exit_rates = -t.sum(axis=1)
        if np.any(exit_rates < -1e-9):
            raise ValueError("row sums of T must be non-positive")
        # Absorption must be certain: T must be invertible (all eigenvalues
        # in the open left half-plane).
        if np.linalg.matrix_rank(t) < t.shape[0]:
            raise ValueError("T is singular: absorption is not certain")
        self._alpha = alpha
        self._alpha.setflags(write=False)
        self._t = t
        self._t.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors for classical families
    # ------------------------------------------------------------------
    @classmethod
    def exponential(cls, rate: float) -> "PhaseType":
        """Exponential distribution with the given rate."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return cls(np.array([1.0]), np.array([[-rate]]))

    @classmethod
    def erlang(cls, stages: int, rate: float) -> "PhaseType":
        """Erlang-``stages`` distribution; each stage has the given rate."""
        if stages < 1:
            raise ValueError(f"stages must be >= 1, got {stages}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        t = -rate * np.eye(stages)
        for i in range(stages - 1):
            t[i, i + 1] = rate
        alpha = np.zeros(stages)
        alpha[0] = 1.0
        return cls(alpha, t)

    @classmethod
    def hyperexponential(cls, probabilities: np.ndarray, rates: np.ndarray) -> "PhaseType":
        """Mixture of exponentials ``sum_i p_i Exp(mu_i)``."""
        p = np.asarray(probabilities, dtype=float)
        mu = np.asarray(rates, dtype=float)
        if p.shape != mu.shape or p.ndim != 1:
            raise ValueError("probabilities and rates must be 1-D with equal length")
        if np.any(mu <= 0):
            raise ValueError("rates must be positive")
        if np.any(p < 0) or not math.isclose(p.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("probabilities must form a probability vector")
        return cls(p, -np.diag(mu))

    @classmethod
    def h2_balanced(cls, mean: float, scv: float) -> "PhaseType":
        """Two-phase hyperexponential with balanced means matching
        ``(mean, scv)``; requires ``scv >= 1``."""
        from repro.processes.fitting import fit_h2_balanced

        p1, mu1, mu2 = fit_h2_balanced(mean, scv)
        return cls.hyperexponential(np.array([p1, 1 - p1]), np.array([mu1, mu2]))

    # ------------------------------------------------------------------
    # Descriptors
    # ------------------------------------------------------------------
    @property
    def alpha(self) -> np.ndarray:
        """Initial phase distribution."""
        return self._alpha

    @property
    def t(self) -> np.ndarray:
        """Transient generator."""
        return self._t

    @property
    def order(self) -> int:
        """Number of transient phases."""
        return self._t.shape[0]

    @cached_property
    def exit_vector(self) -> np.ndarray:
        """Absorption rates ``t0 = -T e``."""
        return -self._t.sum(axis=1)

    @cached_property
    def _inv_neg_t(self) -> np.ndarray:
        return np.linalg.inv(-self._t)

    def moment(self, n: int) -> float:
        """n-th raw moment: ``E[X^n] = n! alpha (-T)^{-n} e``."""
        if n < 1:
            raise ValueError(f"moment order must be >= 1, got {n}")
        vec = np.ones(self.order)
        for _ in range(n):
            vec = self._inv_neg_t @ vec
        return float(math.factorial(n) * self._alpha @ vec)

    @cached_property
    def mean(self) -> float:
        """Expected value."""
        return self.moment(1)

    @cached_property
    def variance(self) -> float:
        """Variance."""
        return self.moment(2) - self.mean**2

    @property
    def scv(self) -> float:
        """Squared coefficient of variation."""
        return self.variance / self.mean**2

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Cumulative distribution function ``1 - alpha exp(Tx) e``."""
        from scipy.linalg import expm  # off the import path: nothing hot calls it

        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            if xi <= 0:
                out[i] = 0.0
            else:
                out[i] = 1.0 - float(self._alpha @ expm(self._t * xi) @ np.ones(self.order))
        return float(out[0]) if scalar else out

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Probability density ``alpha exp(Tx) t0``."""
        from scipy.linalg import expm  # off the import path: nothing hot calls it

        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            if xi < 0:
                out[i] = 0.0
            else:
                out[i] = float(self._alpha @ expm(self._t * xi) @ self.exit_vector)
        return float(out[0]) if scalar else out

    @cached_property
    def _sampling_tables(self) -> tuple[list[float], list[list[float]], list[float]]:
        """Cumulative initial and jump distributions (jump rows over next
        phases then absorption), normalized the way ``Generator.choice``
        normalizes ``p``, and each phase's mean holding time."""
        total_rates = -np.diag(self._t)
        off_diagonal = self._t - np.diag(np.diag(self._t))
        jump_probs = np.hstack([off_diagonal, self.exit_vector[:, None]])
        jump_cdf = (jump_probs / total_rates[:, None]).cumsum(axis=1)
        jump_cdf /= jump_cdf[:, -1:]
        start_cdf = self._alpha.cumsum()
        start_cdf /= start_cdf[-1]
        return start_cdf.tolist(), jump_cdf.tolist(), (1.0 / total_rates).tolist()

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` variates by simulating the absorbing chain.

        Each phase choice is one uniform looked up with ``bisect_right`` in
        a cumulative row: the draw ``Generator.choice`` makes given ``p``.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        start, jumps, hold = self._sampling_tables
        absorbed = self.order
        out = np.empty(size)
        for k in range(size):
            phase = bisect_right(start, rng.random())
            elapsed = 0.0
            while phase != absorbed:
                elapsed += rng.exponential(hold[phase])
                phase = bisect_right(jumps[phase], rng.random())
            out[k] = elapsed
        return out

    def __repr__(self) -> str:
        return f"PhaseType(order={self.order}, mean={self.mean:.6g}, scv={self.scv:.4g})"
