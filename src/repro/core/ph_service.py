"""Extension: phase-type service and idle wait (the paper's footnote 3).

The paper assumes exponential service but notes that "a similar method and
Kronecker products can be used to generate the auxiliary matrices F, B, W,
and L when [using] a MMPP (or MAP) for the service and idle waiting
processes".  This module implements exactly that lifting: serving states
carry the product phase (arrival phase x service phase), idle-wait states
with buffered background work carry (arrival phase x wait phase), and the
empty state carries only the arrival phase.

With ``PhaseType.exponential(...)`` for both the model reduces to
:class:`~repro.core.model.FgBgModel` (verified in the test-suite).  Erlang
services model the low-variability disks of the paper's trace table
(service CV < 1), hyperexponential ones stress the opposite regime, and an
Erlang idle wait approximates the *deterministic* timers real firmware
uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.blocks import BgServiceMode
from repro.core.states import StateKind, StateSpace
from repro.processes.map_process import MarkovianArrivalProcess
from repro.processes.ph import PhaseType
from repro.qbd.stationary import QBDStationaryDistribution, solve_qbd
from repro.qbd.structure import QBDProcess

__all__ = ["PhServiceFgBgModel", "PhServiceSolution"]


@dataclass(frozen=True)
class PhServiceSolution:
    """Stationary metrics of the PH-service model."""

    #: Mean number of foreground jobs in system.
    fg_queue_length: float
    #: Mean number of background jobs in system.
    bg_queue_length: float
    #: P(background job in service | foreground present).
    fg_delayed_fraction: float
    #: Fraction of spawned background jobs admitted.
    bg_completion_rate: float
    #: Fraction of time the server works on foreground jobs.
    fg_server_share: float
    #: Fraction of time the server works on background jobs.
    bg_server_share: float
    #: Mean foreground response time (Little's law).
    fg_response_time: float
    #: The underlying QBD solution.
    qbd_solution: QBDStationaryDistribution


@dataclass(frozen=True)
class PhServiceFgBgModel:
    """FG/BG model with phase-type service times.

    Parameters
    ----------
    arrival:
        Foreground arrival MAP.
    service:
        PH distribution of the (shared) service time.
    bg_probability:
        Probability that a completing foreground job spawns a background
        job.
    bg_buffer:
        Background buffer size ``X >= 1``.
    idle_wait_rate:
        Rate of an *exponential* idle wait; ``None`` uses
        ``1 / service.mean`` (the paper's "mean idle wait equals the mean
        service time").  Mutually exclusive with ``idle_wait_ph``.
    idle_wait_ph:
        PH distribution of the idle wait, samples in ms (e.g.
        ``PhaseType.erlang(8, ...)`` for a near-deterministic firmware
        timer).  Mutually exclusive with ``idle_wait_rate``.
    bg_mode:
        Background scheduling within an idle period.
    """

    arrival: MarkovianArrivalProcess
    service: PhaseType
    bg_probability: float
    bg_buffer: int = 5
    idle_wait_rate: float | None = None
    idle_wait_ph: PhaseType | None = None
    bg_mode: BgServiceMode = BgServiceMode.BACK_TO_BACK

    def __post_init__(self) -> None:
        if not isinstance(self.arrival, MarkovianArrivalProcess):
            raise TypeError(
                f"arrival must be a MarkovianArrivalProcess, got {type(self.arrival).__name__}"
            )
        if not isinstance(self.service, PhaseType):
            raise TypeError(
                f"service must be a PhaseType, got {type(self.service).__name__}"
            )
        if not 0 < self.bg_probability <= 1:
            raise ValueError(
                "bg_probability must lie in (0, 1] for the PH-service model "
                f"(use FgBgModel with p = 0), got {self.bg_probability}"
            )
        if self.bg_buffer < 1:
            raise ValueError(f"bg_buffer must be >= 1, got {self.bg_buffer}")
        if self.idle_wait_rate is not None and self.idle_wait_rate <= 0:
            raise ValueError(
                f"idle_wait_rate must be positive, got {self.idle_wait_rate}"
            )
        if self.idle_wait_rate is not None and self.idle_wait_ph is not None:
            raise ValueError("pass idle_wait_rate or idle_wait_ph, not both")
        if self.idle_wait_ph is not None and not isinstance(self.idle_wait_ph, PhaseType):
            raise TypeError(
                f"idle_wait_ph must be a PhaseType, got {type(self.idle_wait_ph).__name__}"
            )

    @property
    def wait_distribution(self) -> PhaseType:
        """The idle-wait distribution actually used.

        Defaults to an exponential whose mean equals the mean service time
        (the paper's choice).
        """
        if self.idle_wait_ph is not None:
            return self.idle_wait_ph
        if self.idle_wait_rate is not None:
            return PhaseType.exponential(self.idle_wait_rate)
        return PhaseType.exponential(1.0 / self.service.mean)

    @property
    def fg_utilization(self) -> float:
        """Offered foreground load ``lambda * E[S]``."""
        return self.arrival.mean_rate * self.service.mean

    # ------------------------------------------------------------------
    # State layout: same groups as the exponential model, but serving
    # groups are A*S wide and idle groups A wide.
    # ------------------------------------------------------------------
    @cached_property
    def _space(self) -> StateSpace:
        return StateSpace(self.bg_buffer, self.arrival.order)

    def _group_width(self, kind: StateKind, bg: int) -> int:
        a = self.arrival.order
        if kind is StateKind.IDLE:
            # The empty state has no timer; waiting states carry its phase.
            return a if bg == 0 else a * self.wait_distribution.order
        return a * self.service.order

    @cached_property
    def _boundary_offsets(self) -> list[int]:
        offsets = []
        pos = 0
        for g in self._space.boundary_groups:
            offsets.append(pos)
            pos += self._group_width(g.kind, g.bg)
        offsets.append(pos)
        return offsets

    @cached_property
    def _qbd(self) -> QBDProcess:
        space = self._space
        a = self.arrival.order
        s = self.service.order
        d0, d1 = self.arrival.d0, self.arrival.d1
        t = self.service.t
        t0 = self.service.exit_vector  # column of absorption rates
        alpha_vec = self.service.alpha  # row: initial service phase
        wait_dist = self.wait_distribution
        w = wait_dist.order
        t_w = wait_dist.t
        t0_w = wait_dist.exit_vector
        alpha_w = wait_dist.alpha
        eye_s = np.eye(s)
        eye_a = np.eye(a)
        eye_w = np.eye(w)
        p = self.bg_probability
        x_max = space.bg_buffer
        back_to_back = self.bg_mode is BgServiceMode.BACK_TO_BACK

        # Building blocks of the Kronecker lifting.
        local_serving = np.kron(d0, eye_s) + np.kron(eye_a, t)
        arrive_serving = np.kron(d1, eye_s)
        arrive_idle_start = np.kron(d1, np.atleast_2d(alpha_vec))  # A x AS
        restart = np.kron(eye_a, np.outer(t0, alpha_vec))  # AS x AS
        finish = np.kron(eye_a, t0.reshape(-1, 1))  # AS x A (into the empty state)
        finish_wait = np.kron(eye_a, np.outer(t0, alpha_w))  # AS x AW
        local_waiting = np.kron(d0, eye_w) + np.kron(eye_a, t_w)  # AW x AW
        wait_start = np.kron(eye_a, np.outer(t0_w, alpha_vec))  # AW x AS
        # An arrival during the wait cancels the timer and starts service.
        arrive_cancel_wait = np.kron(
            d1, np.ones((w, 1)) @ np.atleast_2d(alpha_vec)
        )  # AW x AS

        offsets = self._boundary_offsets
        n_b = offsets[-1]
        m_groups = space.repeating_groups
        width = a * s
        m = len(m_groups) * width

        b00 = np.zeros((n_b, n_b))
        b01 = np.zeros((n_b, m))
        b10 = np.zeros((m, n_b))

        def bsl(kind: StateKind, bg: int, fg: int) -> slice:
            i = space.boundary_group_index(kind, bg, fg)
            return slice(offsets[i], offsets[i] + self._group_width(kind, bg))

        def rsl(kind: StateKind, bg: int) -> slice:
            i = space.repeating_group_index(kind, bg)
            return slice(i * width, (i + 1) * width)

        for g in space.boundary_groups:
            sl = bsl(g.kind, g.bg, g.fg)
            if g.kind is StateKind.IDLE:
                if g.bg == 0:
                    b00[sl, sl] += d0
                    arrive = arrive_idle_start
                else:
                    b00[sl, sl] += local_waiting
                    b00[sl, bsl(StateKind.BG, g.bg, 0)] += wait_start
                    arrive = arrive_cancel_wait
                if g.level + 1 <= x_max:
                    b00[sl, bsl(StateKind.FG, g.bg, 1)] += arrive
                else:
                    b01[sl, rsl(StateKind.FG, g.bg)] += arrive
            elif g.kind is StateKind.FG:
                b00[sl, sl] += local_serving
                if g.level + 1 <= x_max:
                    b00[sl, bsl(StateKind.FG, g.bg, g.fg + 1)] += arrive_serving
                else:
                    b01[sl, rsl(StateKind.FG, g.bg)] += arrive_serving
                x_up = min(g.bg + 1, x_max)
                if g.fg >= 2:
                    b00[sl, bsl(StateKind.FG, g.bg, g.fg - 1)] += (1 - p) * restart
                    b00[sl, bsl(StateKind.FG, x_up, g.fg - 1)] += p * restart
                else:
                    into_here = finish if g.bg == 0 else finish_wait
                    b00[sl, bsl(StateKind.IDLE, g.bg, 0)] += (1 - p) * into_here
                    # x_up >= 1 always: the spawn lands on a waiting state.
                    b00[sl, bsl(StateKind.IDLE, x_up, 0)] += p * finish_wait
            else:  # BG serving
                b00[sl, sl] += local_serving
                if g.level + 1 <= x_max:
                    b00[sl, bsl(StateKind.BG, g.bg, g.fg + 1)] += arrive_serving
                else:
                    b01[sl, rsl(StateKind.BG, g.bg)] += arrive_serving
                if g.fg >= 1:
                    b00[sl, bsl(StateKind.FG, g.bg - 1, g.fg)] += restart
                elif back_to_back and g.bg >= 2:
                    b00[sl, bsl(StateKind.BG, g.bg - 1, 0)] += restart
                elif g.bg == 1:
                    b00[sl, bsl(StateKind.IDLE, 0, 0)] += finish
                else:  # rewait mode with work left: draw a fresh timer
                    b00[sl, bsl(StateKind.IDLE, g.bg - 1, 0)] += finish_wait

        a0 = np.kron(np.eye(len(m_groups)), arrive_serving)
        a1 = np.zeros((m, m))
        a2 = np.zeros((m, m))
        for g in m_groups:
            sl = rsl(g.kind, g.bg)
            a1[sl, sl] += local_serving
            if g.kind is StateKind.FG:
                if g.bg < x_max:
                    a1[sl, rsl(StateKind.FG, g.bg + 1)] += p * restart
                    a2[sl, rsl(StateKind.FG, g.bg)] += (1 - p) * restart
                else:
                    a2[sl, rsl(StateKind.FG, g.bg)] += restart
            else:
                a2[sl, rsl(StateKind.FG, g.bg - 1)] += restart

        for g in m_groups:
            sl = rsl(g.kind, g.bg)
            y = x_max + 1 - g.bg
            if g.kind is StateKind.FG:
                if g.bg < x_max:
                    b10[sl, bsl(StateKind.FG, g.bg, y - 1)] += (1 - p) * restart
                else:
                    # bg_buffer >= 1, so I(X) is a waiting state.
                    b10[sl, bsl(StateKind.IDLE, x_max, 0)] += finish_wait
            else:
                b10[sl, bsl(StateKind.FG, g.bg - 1, y)] += restart

        return QBDProcess(b00=b00, b01=b01, b10=b10, a0=a0, a1=a1, a2=a2)

    # ------------------------------------------------------------------
    def solve(self) -> PhServiceSolution:
        """Solve the PH-service model and return its stationary metrics."""
        if self.fg_utilization >= 1.0:
            raise ValueError(
                f"model is unstable: foreground utilization "
                f"{self.fg_utilization:.4g} >= 1"
            )
        sol = solve_qbd(self._qbd)
        return self._metrics(sol)

    def _metrics(self, sol: QBDStationaryDistribution) -> PhServiceSolution:
        space = self._space
        lam = self.arrival.mean_rate
        x_max = space.bg_buffer
        groups_b = space.boundary_groups
        groups_r = space.repeating_groups

        def expand_b(values_per_group: Sequence[float]) -> np.ndarray:
            parts = [
                np.full(self._group_width(g.kind, g.bg), float(v))
                for g, v in zip(groups_b, values_per_group)
            ]
            return np.concatenate(parts)

        def expand_r(values_per_group: Sequence[float] | np.ndarray) -> np.ndarray:
            width = self.arrival.order * self.service.order
            return np.repeat(np.asarray(values_per_group, dtype=float), width)

        pi_b = sol.boundary
        rep_mass = sol.repeating_mass
        rep_weighted = sol.repeating_level_weighted

        fg_b = expand_b([1.0 if g.kind is StateKind.FG else 0.0 for g in groups_b])
        bg_b = expand_b([1.0 if g.kind is StateKind.BG else 0.0 for g in groups_b])
        blocked_b = expand_b(
            [1.0 if (g.kind is StateKind.BG and g.fg >= 1) else 0.0 for g in groups_b]
        )
        fg_r = expand_r([1.0 if g.kind is StateKind.FG else 0.0 for g in groups_r])
        bg_r = expand_r([1.0 if g.kind is StateKind.BG else 0.0 for g in groups_r])
        full_r = expand_r(
            [
                1.0 if (g.kind is StateKind.FG and g.bg == x_max) else 0.0
                for g in groups_r
            ]
        )

        prob_fg = float(pi_b @ fg_b + rep_mass @ fg_r)
        prob_bg = float(pi_b @ bg_b + rep_mass @ bg_r)
        prob_full = float(rep_mass @ full_r)

        y_b = expand_b([g.fg for g in groups_b])
        x_b = expand_b([g.bg for g in groups_b])
        x_r = expand_r([g.bg for g in groups_r])
        fg_qlen = float(pi_b @ y_b + rep_mass @ (x_max - x_r) + rep_weighted.sum())
        bg_qlen = float(pi_b @ x_b + rep_mass @ x_r)

        fg_present = float(pi_b @ (fg_b + blocked_b) + rep_mass.sum())
        delayed = float(pi_b @ blocked_b + rep_mass @ bg_r)

        return PhServiceSolution(
            fg_queue_length=fg_qlen,
            bg_queue_length=bg_qlen,
            fg_delayed_fraction=delayed / fg_present if fg_present > 0 else 0.0,
            bg_completion_rate=1.0 - prob_full / prob_fg if prob_fg > 0 else float("nan"),
            fg_server_share=prob_fg,
            bg_server_share=prob_bg,
            fg_response_time=fg_qlen / lam,
            qbd_solution=sol,
        )
