"""The user-facing foreground/background performability model.

``FgBgModel`` assembles the QBD of the paper's Section 4 from an arrival
MAP, exponential service, the background-spawn probability ``p``, the finite
background buffer and the idle-wait timer; ``solve()`` runs the
matrix-geometric method and returns every metric of Section 5.

Example
-------
>>> from repro.core import FgBgModel
>>> from repro.processes import PoissonProcess
>>> model = FgBgModel(
...     arrival=PoissonProcess(0.05),
...     service_rate=1 / 6.0,
...     bg_probability=0.3,
... )
>>> solution = model.solve()
>>> 0 < solution.bg_completion_rate <= 1
True
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.contracts.checks import (
    check_generator,
    check_readonly,
    contracts_enabled,
)
from repro.core.blocks import BgServiceMode, _block_pattern, build_qbd
from repro.core.metrics import NEAR_ZERO_BG_PROBABILITY
from repro.core.result import FgBgSolution
from repro.core.states import StateSpace
from repro.processes.map_process import MarkovianArrivalProcess
from repro.qbd.rmatrix import raise_first_failure
from repro.qbd.structure import QBDProcess

__all__ = ["FgBgModel", "BgServiceMode"]

#: Background buffer size used throughout the paper ("a buffer that stores a
#: maximum of 5 background jobs").
DEFAULT_BG_BUFFER = 5


@dataclass(frozen=True)
class FgBgModel:
    """Analytic model of a storage server with background jobs.

    Parameters
    ----------
    arrival:
        Arrival MAP/MMPP of foreground jobs.
    service_rate:
        Exponential service rate ``mu`` shared by foreground and background
        jobs (the paper's WRITE-verification scenario: identical demands).
    bg_probability:
        Probability ``p`` that a completing foreground job spawns a
        background job.
    bg_buffer:
        Background buffer size ``X``; spawned jobs finding it full are
        dropped.  Default 5 as in the paper.
    idle_wait_rate:
        Rate ``alpha`` of the exponential idle wait before background
        service starts.  ``None`` (default) sets the *mean* idle wait equal
        to the mean service time, the paper's default.
    bg_mode:
        Background scheduling within an idle period; see
        :class:`BgServiceMode`.
    """

    arrival: MarkovianArrivalProcess
    service_rate: float
    bg_probability: float
    bg_buffer: int = DEFAULT_BG_BUFFER
    idle_wait_rate: float | None = None
    bg_mode: BgServiceMode = BgServiceMode.BACK_TO_BACK

    def __post_init__(self) -> None:
        if not isinstance(self.arrival, MarkovianArrivalProcess):
            raise TypeError(
                f"arrival must be a MarkovianArrivalProcess, got {type(self.arrival).__name__}"
            )
        if self.service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {self.service_rate}")
        if not 0 <= self.bg_probability <= 1:
            raise ValueError(
                f"bg_probability must lie in [0, 1], got {self.bg_probability}"
            )
        if self.bg_buffer < 0:
            raise ValueError(f"bg_buffer must be >= 0, got {self.bg_buffer}")
        if self.idle_wait_rate is not None and self.idle_wait_rate <= 0:
            raise ValueError(
                f"idle_wait_rate must be positive, got {self.idle_wait_rate}"
            )
        if contracts_enabled():
            # The arrival MAP is the only externally supplied matrix data;
            # its phase process must be a generator and its matrices must
            # be frozen (the fingerprint/caching machinery assumes both).
            check_readonly(self.arrival.d0, "arrival.d0")
            check_readonly(self.arrival.d1, "arrival.d1")
            # A MAP constructed through MarkovianArrivalProcess certifies
            # D0+D1 at construction; with both matrices read-only the
            # certificate cannot go stale, so a sweep deriving thousands
            # of models from one arrival validates it once, not per model.
            if not getattr(self.arrival, "_generator_validated", False):
                check_generator(
                    self.arrival.d0 + self.arrival.d1, "arrival D0+D1"
                )

    # ------------------------------------------------------------------
    # Derived parameters
    # ------------------------------------------------------------------
    @property
    def effective_idle_wait_rate(self) -> float:
        """The idle-wait rate actually used (defaults to ``service_rate``)."""
        return self.service_rate if self.idle_wait_rate is None else self.idle_wait_rate

    @property
    def fg_utilization(self) -> float:
        """Offered foreground load ``lambda / mu``."""
        return self.arrival.mean_rate / self.service_rate

    @property
    def is_stable(self) -> bool:
        """True when the foreground load is below 1 (positive recurrence)."""
        return self.fg_utilization < 1.0

    #: Below this spawn probability the background states are numerically
    #: unreachable (rates underflow in the linear algebra), so the chain is
    #: built without them; ``bg_completion_rate`` is then a deliberate NaN
    #: (see :mod:`repro.core.metrics`), all other metrics stay consistent.
    _NEAR_ZERO_P = NEAR_ZERO_BG_PROBABILITY

    @cached_property
    def _effective_bg_buffer(self) -> int:
        # With p ~ 0 no background job is (numerically) ever spawned;
        # building the chain with X = 0 removes the unreachable background
        # states and keeps the phase process irreducible.
        return 0 if self.bg_probability < self._NEAR_ZERO_P else self.bg_buffer

    @cached_property
    def qbd(self) -> QBDProcess:
        """The assembled QBD blocks (for inspection or custom solvers)."""
        stack, _ = build_qbd(
            [self.arrival],
            [self.service_rate],
            [self.bg_probability],
            self._effective_bg_buffer,
            [self.effective_idle_wait_rate],
            self.bg_mode,
        )
        return stack.process(0)

    @property
    def state_space(self) -> StateSpace:
        """The state-space indexing of the chain (shared by every model of
        its structure; building it builds no blocks)."""
        return _block_pattern(
            self._effective_bg_buffer, self.arrival.order, self.bg_mode
        ).space

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, escalate: bool = False) -> FgBgSolution:
        """Solve the model and return all stationary metrics.

        The one-item call of :func:`repro.core.batched.solve_models_batched`;
        the item's failure, if any, is raised.

        Parameters
        ----------
        escalate:
            Enable the truncated dense-chain rung of the escalation
            ladder (see :func:`repro.qbd.stationary.solve_qbd`): when
            every R iteration fails, the metrics come from an adaptively
            truncated dense solve and
            ``solution.qbd_solution.solve_stats.degraded`` is True.

        Raises
        ------
        ValueError
            If the model is unstable (``fg_utilization >= 1``) -- with or
            without ``escalate``; degradation never fabricates a
            stationary regime.
        """
        # Imported lazily: repro.core.batched imports this module.
        from repro.core.batched import solve_models_batched

        (solution,), reports = solve_models_batched([self], escalate=escalate)
        raise_first_failure(reports)
        assert solution is not None  # a failed item raised above
        return solution

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the frozen model fields (hex SHA-256).

        Two models with identical solve-relevant content -- arrival
        matrices, service rate, background probability, buffer size,
        *effective* idle-wait rate and scheduling mode -- share a
        fingerprint, which makes it usable as a content-addressed cache
        key for solves (see :mod:`repro.engine`).
        """
        h = hashlib.sha256()
        h.update(b"FgBgModel/v1")
        d0 = np.ascontiguousarray(self.arrival.d0)
        d1 = np.ascontiguousarray(self.arrival.d1)
        h.update(repr(d0.shape).encode())
        h.update(d0.tobytes())
        h.update(d1.tobytes())
        for value in (
            self.service_rate,
            self.bg_probability,
            self.effective_idle_wait_rate,
        ):
            h.update(float(value).hex().encode())
        h.update(str(self.bg_buffer).encode())
        h.update(self.bg_mode.value.encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Convenience sweep constructors
    # ------------------------------------------------------------------
    def at_utilization(self, utilization: float) -> "FgBgModel":
        """Copy of this model with the arrival process rescaled to the given
        foreground utilization (ACF and CV preserved)."""
        scaled = self.arrival.scaled_to_utilization(utilization, self.service_rate)
        return replace(self, arrival=scaled)

    def with_bg_probability(self, p: float) -> "FgBgModel":
        """Copy of this model with a different background probability."""
        return replace(self, bg_probability=p)

    def with_idle_wait_multiple(self, multiple: float) -> "FgBgModel":
        """Copy whose *mean* idle wait is ``multiple`` mean service times.

        ``multiple = 2`` waits twice the mean service time, i.e. the rate is
        ``service_rate / 2`` (the x-axis of the paper's Figures 9-10).
        """
        if multiple <= 0:
            raise ValueError(f"multiple must be positive, got {multiple}")
        return replace(self, idle_wait_rate=self.service_rate / multiple)

    def __repr__(self) -> str:
        return (
            f"FgBgModel(arrival={self.arrival!r}, service_rate={self.service_rate:.6g}, "
            f"bg_probability={self.bg_probability}, bg_buffer={self.bg_buffer}, "
            f"idle_wait_rate={self.effective_idle_wait_rate:.6g}, "
            f"bg_mode={self.bg_mode.value!r})"
        )
