"""Extension: multiple background job classes (the paper's future work).

The paper closes with "we are working on model extensions that capture more
than one job priority level, i.e., different classes of background jobs".
This module implements that extension: ``K`` background classes share the
finite buffer; class ``c`` is spawned by a completing foreground job with
probability ``p_c``; within the background work, lower class index means
higher priority (class 1 is served before class 2, and so on).  Foreground
work retains absolute (non-preemptive) priority and the idle-wait rule is
unchanged.

The chain is still a QBD: levels are the total number of jobs, boundary
levels ``0..X`` are tree-like and the repeating level has one group per
buffer occupancy vector and serving class.  With ``K = 1`` the model
coincides exactly with :class:`~repro.core.model.FgBgModel` (verified in
the test-suite).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.blocks import BgServiceMode
from repro.processes.map_process import MarkovianArrivalProcess
from repro.qbd.stationary import QBDStationaryDistribution, solve_qbd
from repro.qbd.structure import QBDProcess

__all__ = ["MulticlassFgBgModel", "MulticlassSolution"]

_FG = -1  # serving marker: foreground
_IDLE = -2  # serving marker: nobody (idle / idle-wait)


def _occupancies(x_max: int, classes: int) -> list[tuple[int, ...]]:
    """All buffer occupancy vectors with total at most ``x_max``."""
    out = []
    for total in range(x_max + 1):
        for combo in itertools.combinations_with_replacement(range(classes), total):
            vec = [0] * classes
            for c in combo:
                vec[c] += 1
            out.append(tuple(vec))
    # Deterministic order: by total, then lexicographic.
    return sorted(set(out), key=lambda v: (sum(v), v))


@dataclass(frozen=True)
class MulticlassSolution:
    """Stationary metrics of the multiclass model."""

    #: Mean number of foreground jobs in system.
    fg_queue_length: float
    #: Mean number of background jobs in system, per class.
    bg_queue_lengths: tuple[float, ...]
    #: P(any background job in service | foreground present).
    fg_delayed_fraction: float
    #: Fraction of spawned background jobs admitted (shared buffer: the
    #: admission probability is class-independent).
    bg_completion_rate: float
    #: Background service completions per unit time, per class.
    bg_throughputs: tuple[float, ...]
    #: Mean background response time (admission to completion), per class.
    bg_response_times: tuple[float, ...]
    #: Fraction of time the server works on foreground jobs.
    fg_server_share: float
    #: Fraction of time the server works on each background class.
    bg_server_shares: tuple[float, ...]
    #: The underlying QBD solution.
    qbd_solution: QBDStationaryDistribution

    @property
    def bg_queue_length(self) -> float:
        """Total background queue length over all classes."""
        return float(sum(self.bg_queue_lengths))


@dataclass(frozen=True)
class MulticlassFgBgModel:
    """FG/BG model with ``K`` prioritized background classes.

    Parameters
    ----------
    arrival:
        Foreground arrival MAP.
    service_rate:
        Exponential service rate shared by all job types.
    bg_probabilities:
        ``(p_1, ..., p_K)``: a completing foreground job spawns a class-c
        background job with probability ``p_c`` (at most one spawn per
        completion; the probabilities must sum to at most 1).  Class 1 has
        the highest background priority.
    bg_buffer:
        Shared background buffer size ``X``.
    idle_wait_rate:
        Idle-wait rate; ``None`` uses the service rate (paper default).
    bg_mode:
        Background scheduling within an idle period (see
        :class:`~repro.core.blocks.BgServiceMode`).
    """

    arrival: MarkovianArrivalProcess
    service_rate: float
    bg_probabilities: tuple[float, ...]
    bg_buffer: int = 5
    idle_wait_rate: float | None = None
    bg_mode: BgServiceMode = BgServiceMode.BACK_TO_BACK

    def __post_init__(self) -> None:
        if not isinstance(self.arrival, MarkovianArrivalProcess):
            raise TypeError(
                f"arrival must be a MarkovianArrivalProcess, got {type(self.arrival).__name__}"
            )
        if self.service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {self.service_rate}")
        probs = tuple(float(p) for p in self.bg_probabilities)
        if not probs:
            raise ValueError("need at least one background class")
        if any(p < 0 for p in probs):
            raise ValueError(f"spawn probabilities must be >= 0, got {probs}")
        if sum(probs) > 1.0 + 1e-12:
            raise ValueError(
                f"spawn probabilities sum to {sum(probs)} > 1"
            )
        object.__setattr__(self, "bg_probabilities", probs)
        if self.bg_buffer < 1:
            raise ValueError(f"bg_buffer must be >= 1, got {self.bg_buffer}")
        if self.idle_wait_rate is not None and self.idle_wait_rate <= 0:
            raise ValueError(
                f"idle_wait_rate must be positive, got {self.idle_wait_rate}"
            )

    # ------------------------------------------------------------------
    @property
    def classes(self) -> int:
        """Number of background classes K."""
        return len(self.bg_probabilities)

    @property
    def effective_idle_wait_rate(self) -> float:
        """The idle-wait rate actually used (defaults to ``service_rate``)."""
        return self.service_rate if self.idle_wait_rate is None else self.idle_wait_rate

    @property
    def fg_utilization(self) -> float:
        """Offered foreground load ``lambda / mu``."""
        return self.arrival.mean_rate / self.service_rate

    # ------------------------------------------------------------------
    # State space: (serving, occupancy vector[, fg count])
    # serving is _FG, _IDLE, or a class index 0..K-1.
    # ------------------------------------------------------------------
    @cached_property
    def _boundary_groups(self) -> list[tuple[int, tuple[int, ...], int]]:
        """(serving, x_vec, y) triples for levels 0..X, level by level."""
        x_max = self.bg_buffer
        groups: list[tuple[int, tuple[int, ...], int]] = []
        occupancies = _occupancies(x_max, self.classes)
        for level in range(x_max + 1):
            for x_vec in occupancies:
                total = sum(x_vec)
                if total > level:
                    continue
                y = level - total
                if y >= 1:
                    groups.append((_FG, x_vec, y))
                if y == 0:
                    groups.append((_IDLE, x_vec, 0))
                for c in range(self.classes):
                    if x_vec[c] >= 1:
                        groups.append((c, x_vec, y))
        return groups

    @cached_property
    def _repeating_groups(self) -> list[tuple[int, tuple[int, ...]]]:
        """(serving, x_vec) pairs of one repeating level (y = level - |x|)."""
        groups: list[tuple[int, tuple[int, ...]]] = []
        for x_vec in _occupancies(self.bg_buffer, self.classes):
            groups.append((_FG, x_vec))
            for c in range(self.classes):
                if x_vec[c] >= 1:
                    groups.append((c, x_vec))
        return groups

    @cached_property
    def _maps(self) -> tuple[dict, dict]:
        bmap = {g: i for i, g in enumerate(self._boundary_groups)}
        rmap = {g: i for i, g in enumerate(self._repeating_groups)}
        return bmap, rmap

    def _highest_priority(self, x_vec: tuple[int, ...]) -> int:
        for c in range(self.classes):
            if x_vec[c] >= 1:
                return c
        raise ValueError(f"no background job buffered in {x_vec}")

    # ------------------------------------------------------------------
    # Block assembly
    # ------------------------------------------------------------------
    @cached_property
    def _qbd(self) -> QBDProcess:
        arrival = self.arrival
        a = arrival.order
        d0, d1 = arrival.d0, arrival.d1
        eye = np.eye(a)
        mu = self.service_rate
        alpha = self.effective_idle_wait_rate
        probs = self.bg_probabilities
        p0 = 1.0 - sum(probs)
        x_max = self.bg_buffer
        back_to_back = self.bg_mode is BgServiceMode.BACK_TO_BACK

        bmap, rmap = self._maps
        n_b = len(self._boundary_groups) * a
        m = len(self._repeating_groups) * a
        b00 = np.zeros((n_b, n_b))
        b01 = np.zeros((n_b, m))
        b10 = np.zeros((m, n_b))
        a0 = np.kron(np.eye(len(self._repeating_groups)), d1)
        a1 = np.zeros((m, m))
        a2 = np.zeros((m, m))

        def bsl(serving: int, x_vec: tuple[int, ...], y: int) -> slice:
            i = bmap[(serving, x_vec, y)]
            return slice(i * a, (i + 1) * a)

        def rsl(serving: int, x_vec: tuple[int, ...]) -> slice:
            i = rmap[(serving, x_vec)]
            return slice(i * a, (i + 1) * a)

        def spawn_targets(
            x_vec: tuple[int, ...],
        ) -> list[tuple[float, tuple[int, ...]]]:
            """(probability, new occupancy) outcomes of one FG completion."""
            outcomes = [(p0, x_vec)]
            for c, p_c in enumerate(probs):
                if p_c == 0:
                    continue
                if sum(x_vec) < x_max:
                    new = list(x_vec)
                    new[c] += 1
                    outcomes.append((p_c, tuple(new)))
                else:
                    outcomes.append((p_c, x_vec))  # dropped
            return outcomes

        # Boundary.
        for serving, x_vec, y in self._boundary_groups:
            s = bsl(serving, x_vec, y)
            b00[s, s] += d0
            level = sum(x_vec) + y
            if serving == _IDLE:
                if sum(x_vec) >= 1:
                    c = self._highest_priority(x_vec)
                    b00[s, s] -= alpha * eye
                    b00[s, bsl(c, x_vec, 0)] += alpha * eye
                if level + 1 <= x_max:
                    b00[s, bsl(_FG, x_vec, 1)] += d1
                else:
                    b01[s, rsl(_FG, x_vec)] += d1
            elif serving == _FG:
                b00[s, s] -= mu * eye
                if level + 1 <= x_max:
                    b00[s, bsl(_FG, x_vec, y + 1)] += d1
                else:
                    b01[s, rsl(_FG, x_vec)] += d1
                for weight, new_vec in spawn_targets(x_vec):
                    if weight == 0:
                        continue
                    if y >= 2:
                        b00[s, bsl(_FG, new_vec, y - 1)] += mu * weight * eye
                    else:
                        b00[s, bsl(_IDLE, new_vec, 0)] += mu * weight * eye
            else:  # serving background class `serving`
                b00[s, s] -= mu * eye
                if level + 1 <= x_max:
                    b00[s, bsl(serving, x_vec, y + 1)] += d1
                else:
                    b01[s, rsl(serving, x_vec)] += d1
                done = list(x_vec)
                done[serving] -= 1
                done_vec = tuple(done)
                if y >= 1:
                    b00[s, bsl(_FG, done_vec, y)] += mu * eye
                elif back_to_back and sum(done_vec) >= 1:
                    nxt = self._highest_priority(done_vec)
                    b00[s, bsl(nxt, done_vec, 0)] += mu * eye
                else:
                    b00[s, bsl(_IDLE, done_vec, 0)] += mu * eye

        # Repeating level (y = level - |x| >= 1 everywhere).
        for serving, x_vec in self._repeating_groups:
            s = rsl(serving, x_vec)
            a1[s, s] += d0 - mu * eye
            if serving == _FG:
                for weight, new_vec in spawn_targets(x_vec):
                    if weight == 0:
                        continue
                    if new_vec == x_vec:
                        a2[s, rsl(_FG, x_vec)] += mu * weight * eye
                    else:
                        a1[s, rsl(_FG, new_vec)] += mu * weight * eye
            else:
                done = list(x_vec)
                done[serving] -= 1
                a2[s, rsl(_FG, tuple(done))] += mu * eye

        # Special down-block into boundary level X.
        for serving, x_vec in self._repeating_groups:
            s = rsl(serving, x_vec)
            y = x_max + 1 - sum(x_vec)
            if serving == _FG:
                for weight, new_vec in spawn_targets(x_vec):
                    if weight == 0:
                        continue
                    if new_vec != x_vec:
                        continue  # stays within level X+1: already in a1
                    if y >= 2:
                        b10[s, bsl(_FG, x_vec, y - 1)] += mu * weight * eye
                    else:
                        b10[s, bsl(_IDLE, x_vec, 0)] += mu * weight * eye
            else:
                done = list(x_vec)
                done[serving] -= 1
                b10[s, bsl(_FG, tuple(done), y)] += mu * eye

        return QBDProcess(b00=b00, b01=b01, b10=b10, a0=a0, a1=a1, a2=a2)

    # ------------------------------------------------------------------
    # Solving and metrics
    # ------------------------------------------------------------------
    def solve(self) -> MulticlassSolution:
        """Solve the multiclass model and return its stationary metrics."""
        if self.fg_utilization >= 1.0:
            raise ValueError(
                f"model is unstable: foreground utilization "
                f"{self.fg_utilization:.4g} >= 1"
            )
        sol = solve_qbd(self._qbd)
        return self._metrics(sol)

    def _metrics(self, sol: QBDStationaryDistribution) -> MulticlassSolution:
        a = self.arrival.order
        mu = self.service_rate
        x_max = self.bg_buffer
        probs = self.bg_probabilities
        k = self.classes

        def expand(values: Sequence[float] | np.ndarray) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=float), a)

        bg = self._boundary_groups
        rg = self._repeating_groups
        pi_b = sol.boundary
        rep_mass = sol.repeating_mass
        rep_weighted = sol.repeating_level_weighted

        fg_mask_b = expand([1.0 if g[0] == _FG else 0.0 for g in bg])
        fg_mask_r = expand([1.0 if g[0] == _FG else 0.0 for g in rg])
        prob_fg = float(pi_b @ fg_mask_b + rep_mass @ fg_mask_r)

        bg_serving_masks_b = [
            expand([1.0 if g[0] == c else 0.0 for g in bg]) for c in range(k)
        ]
        bg_serving_masks_r = [
            expand([1.0 if g[0] == c else 0.0 for g in rg]) for c in range(k)
        ]
        bg_shares = tuple(
            float(pi_b @ mb + rep_mass @ mr)
            for mb, mr in zip(bg_serving_masks_b, bg_serving_masks_r)
        )

        y_b = expand([g[2] for g in bg])
        x_total_r = expand([sum(g[1]) for g in rg])
        fg_qlen = float(
            pi_b @ y_b + rep_mass @ (x_max - x_total_r) + rep_weighted.sum()
        )

        bg_qlens = []
        for c in range(k):
            xc_b = expand([g[1][c] for g in bg])
            xc_r = expand([g[1][c] for g in rg])
            bg_qlens.append(float(pi_b @ xc_b + rep_mass @ xc_r))

        blocked_b = expand(
            [1.0 if (g[0] >= 0 and g[2] >= 1) else 0.0 for g in bg]
        )
        any_bg_r = expand([1.0 if g[0] >= 0 else 0.0 for g in rg])
        fg_present = float(pi_b @ (fg_mask_b + blocked_b) + rep_mass.sum())
        delayed = float(pi_b @ blocked_b + rep_mass @ any_bg_r)

        full_fg_r = expand(
            [1.0 if (g[0] == _FG and sum(g[1]) == x_max) else 0.0 for g in rg]
        )
        prob_fg_full = float(rep_mass @ full_fg_r)
        total_p = sum(probs)
        completion = (
            1.0 - prob_fg_full / prob_fg if (total_p > 0 and prob_fg > 0) else float("nan")
        )

        throughputs = tuple(mu * share for share in bg_shares)
        admit_rates = tuple(
            mu * p_c * (prob_fg - prob_fg_full) for p_c in probs
        )
        response_times = tuple(
            q / r if r > 0 else float("nan") for q, r in zip(bg_qlens, admit_rates)
        )

        return MulticlassSolution(
            fg_queue_length=fg_qlen,
            bg_queue_lengths=tuple(bg_qlens),
            fg_delayed_fraction=delayed / fg_present if fg_present > 0 else 0.0,
            bg_completion_rate=completion,
            bg_throughputs=throughputs,
            bg_response_times=response_times,
            fg_server_share=prob_fg,
            bg_server_shares=bg_shares,
            qbd_solution=sol,
        )
