"""Markov-Modulated Poisson Processes.

An MMPP is a MAP whose arrival matrix ``D1`` is diagonal: arrivals are
Poisson with a rate ``l_i`` that depends on the current phase ``i`` of a
modulating CTMC.  The paper uses 2-state MMPPs (paper Eq. 4) fitted to disk
traces as its arrival model.
"""

from __future__ import annotations

import numpy as np

from repro.markov.generator import validate_generator
from repro.processes.map_process import MarkovianArrivalProcess

__all__ = ["MMPP"]


class MMPP(MarkovianArrivalProcess):
    """An MMPP defined by a modulating generator and per-phase arrival rates.

    Parameters
    ----------
    modulating_generator:
        Generator ``R`` of the environment CTMC (order ``A``).
    arrival_rates:
        Per-phase Poisson rates ``l_1 .. l_A`` (non-negative, at least one
        positive).
    """

    def __init__(self, modulating_generator: np.ndarray, arrival_rates: np.ndarray) -> None:
        r = validate_generator(modulating_generator)
        rates = np.asarray(arrival_rates, dtype=float)
        if rates.ndim != 1 or rates.shape[0] != r.shape[0]:
            raise ValueError(
                f"need one arrival rate per phase: got {rates.shape} rates for "
                f"order {r.shape[0]}"
            )
        if np.any(rates < 0):
            raise ValueError("arrival rates must be non-negative")
        d1 = np.diag(rates)
        d0 = r - d1
        super().__init__(d0, d1)
        self._modulating_generator = r
        self._arrival_rates = rates

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def two_state(cls, v1: float, v2: float, l1: float, l2: float) -> "MMPP":
        """The paper's 2-state parameterization (Eq. 4).

        ``v1`` is the rate from phase 1 to phase 2, ``v2`` from phase 2 to
        phase 1; ``l1``/``l2`` are the per-phase arrival rates, giving

        ``D0 = [[-(l1+v1), v1], [v2, -(l2+v2)]]``, ``D1 = diag(l1, l2)``.
        """
        for name, value in (("v1", v1), ("v2", v2)):
            if value <= 0:
                raise ValueError(f"{name} must be positive for an irreducible MMPP(2), got {value}")
        generator = np.array([[-v1, v1], [v2, -v2]], dtype=float)
        return cls(generator, np.array([l1, l2], dtype=float))

    @classmethod
    def from_map_matrices(cls, d0: np.ndarray, d1: np.ndarray) -> "MMPP":
        """Build an MMPP from MAP matrices, verifying ``D1`` is diagonal."""
        d1 = np.asarray(d1, dtype=float)
        if not np.allclose(d1, np.diag(np.diag(d1))):
            raise ValueError("D1 of an MMPP must be diagonal")
        d0 = np.asarray(d0, dtype=float)
        return cls(d0 + d1, np.diag(d1).copy())

    @classmethod
    def _from_matrices(cls, d0: np.ndarray, d1: np.ndarray) -> "MMPP":
        return cls.from_map_matrices(d0, d1)

    def scaled_by(self, factor: float) -> "MarkovianArrivalProcess":
        """Time-rescaled copy; a certified MMPP's copy is certified too.

        The copy holds exactly the matrices :meth:`from_map_matrices`
        builds from the scaled pair, without its checks: scaling by a
        positive factor keeps a valid MMPP valid.
        """
        if factor <= 0 or type(self) is not MMPP or not self._certified():
            return super().scaled_by(factor)
        scaled_d1 = self._d1 * factor
        generator = self._d0 * factor + scaled_d1
        rates = np.diag(scaled_d1).copy()
        d1 = np.diag(rates)
        copy = object.__new__(MMPP)
        copy._adopt_validated(generator - d1, d1)
        copy._modulating_generator = generator
        copy._arrival_rates = rates
        return copy

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def modulating_generator(self) -> np.ndarray:
        """Generator of the environment CTMC."""
        return self._modulating_generator

    @property
    def arrival_rates(self) -> np.ndarray:
        """Per-phase Poisson arrival rates."""
        return self._arrival_rates

    @property
    def parameters(self) -> dict[str, float]:
        """For 2-state MMPPs, the ``(v1, v2, l1, l2)`` of the paper's Eq. 4."""
        if self.order != 2:
            raise ValueError(f"parameters is defined for MMPP(2), this is MMPP({self.order})")
        return {
            "v1": float(self._modulating_generator[0, 1]),
            "v2": float(self._modulating_generator[1, 0]),
            "l1": float(self._arrival_rates[0]),
            "l2": float(self._arrival_rates[1]),
        }

    def __repr__(self) -> str:
        if self.order == 2:
            p = self.parameters
            return (
                f"MMPP.two_state(v1={p['v1']:.6g}, v2={p['v2']:.6g}, "
                f"l1={p['l1']:.6g}, l2={p['l2']:.6g})"
            )
        return super().__repr__()
