"""Random sample-path generation for MAPs.

Generates arrival streams by simulating the underlying phase process.  Used
to create the synthetic traces behind Figure 1 and to drive the
discrete-event simulator.

A :class:`MAPSampler` builds one table per MAP: each phase's cumulative
distribution over its next event (a hidden phase change or an arrival, and
the phase it leads to) and each phase's mean holding time.  Its two paths
draw from the same distribution through different random streams:

* :meth:`MAPSampler.next_interarrival` draws one event at a time: an
  exponential holding time, then one uniform looked up in the phase's row
  with :func:`bisect.bisect_right`.  That is the draw, and the index,
  ``Generator.choice`` makes given ``p=row``, so its stream is that of a
  per-event ``choice`` loop; seeded simulations depend on it.
* :meth:`MAPSampler.interarrival_times` draws blocks of uniforms and
  standard exponentials, maps the uniforms to events for every possible
  current phase at once, resolves the phase path with :func:`phase_path`
  and sums the holding times between arrivals.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.processes.map_process import MarkovianArrivalProcess

__all__ = ["BLOCK_EVENTS", "MAPSampler", "phase_path"]

#: Most events one block of :meth:`MAPSampler.interarrival_times` draws.
#: Bounds the bulk path's working memory (a few MB) whatever ``n`` is.
BLOCK_EVENTS = 65_536


def phase_path(next_phase: np.ndarray, start: int) -> np.ndarray:
    """Phases of the recurrence ``phase[t + 1] = next_phase[phase[t], t]``.

    ``next_phase`` has shape ``(order, steps)``; the result holds the
    ``steps + 1`` phases from ``phase[0] = start``.  Rather than stepping
    through time, a doubling scan composes the per-step phase maps: after
    the pass with stride ``s``, row ``t`` of ``maps`` is the composition of
    the maps of steps ``max(0, t - 2s + 1) .. t``, so after ``log2(steps)``
    passes row ``t`` maps any phase before step 0 to the phase after step
    ``t``.
    """
    maps = np.ascontiguousarray(next_phase.T)
    steps = maps.shape[0]
    stride = 1
    while stride < steps:
        maps[stride:] = np.take_along_axis(maps[stride:], maps[:-stride], axis=1)
        stride *= 2
    path = np.empty(steps + 1, dtype=maps.dtype)
    path[0] = start
    path[1:] = maps[:, start]
    return path


class MAPSampler:
    """Stateful generator of arrivals from a MAP.

    Parameters
    ----------
    process:
        The MAP to sample from.
    rng:
        A numpy random generator.
    initial_phase:
        Starting phase; by default drawn from the embedded (post-arrival)
        stationary distribution so that the generated inter-arrival sequence
        is stationary from the first sample.
    """

    def __init__(
        self,
        process: MarkovianArrivalProcess,
        rng: np.random.Generator,
        initial_phase: int | None = None,
    ) -> None:
        self._rng = rng
        order = process.order
        d0 = process.d0
        exit_rates = -np.diag(d0)
        if np.any(exit_rates <= 0):
            raise ValueError("every phase must have a positive total event rate")
        # Event kind/target distribution per phase. Events are encoded as
        # columns [0, order): phase change without arrival (to that phase),
        # [order, 2*order): arrival moving to phase (column - order).
        probs = np.hstack([d0 - np.diag(np.diag(d0)), process.d1]) / exit_rates[:, None]
        # Normalize defensively against round-off.
        probs /= probs.sum(axis=1, keepdims=True)
        # Cumulative rows, normalized the way Generator.choice normalizes p.
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        self._order = order
        self._cdf = cdf
        self._cdf_rows = cdf.tolist()
        self._hold = 1.0 / exit_rates
        self._hold_list = self._hold.tolist()
        self._events_per_arrival = (
            float(process.phase_stationary @ exit_rates) / process.mean_rate
        )
        if initial_phase is None:
            self._phase = int(rng.choice(order, p=process.embedded_stationary))
        else:
            if not 0 <= initial_phase < order:
                raise ValueError(f"initial_phase {initial_phase} out of range 0..{order - 1}")
            self._phase = initial_phase

    @property
    def phase(self) -> int:
        """Current phase of the modulating chain."""
        return self._phase

    def next_interarrival(self) -> float:
        """Time until the next arrival from the current state."""
        rng, rows, hold, order = self._rng, self._cdf_rows, self._hold_list, self._order
        phase = self._phase
        elapsed = 0.0
        while True:
            elapsed += rng.exponential(hold[phase])
            event = bisect_right(rows[phase], rng.random())
            if event < order:
                phase = event
            else:
                self._phase = event - order
                return elapsed

    def interarrival_times(self, n: int) -> np.ndarray:
        """Generate ``n`` consecutive inter-arrival times.

        Continues from the current phase and leaves the sampler in the
        phase entered by the ``n``-th arrival.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng, order = self._rng, self._order
        out = np.empty(n)
        filled = 0
        carry = 0.0  # holding time since the last arrival of earlier blocks
        phase = self._phase
        while True:
            # Enough events for the arrivals still missing, on average.
            wanted = (n - filled) * self._events_per_arrival
            size = min(BLOCK_EVENTS, int(1.25 * wanted) + 64)
            uniforms = rng.random(size)
            holds = rng.standard_exponential(size)
            events = np.stack(
                [row.searchsorted(uniforms, side="right") for row in self._cdf]
            )
            path = phase_path(events % order, phase)
            phases = path[:-1]
            holds *= self._hold[phases]
            arrivals = np.flatnonzero(events[phases, np.arange(size)] >= order)
            if arrivals.size == 0:
                carry += holds.sum()
                phase = path[-1]
                continue
            ends = arrivals[: n - filled]
            starts = np.empty_like(ends)
            starts[0] = 0
            starts[1:] = ends[:-1] + 1
            gaps = np.add.reduceat(holds[: ends[-1] + 1], starts)
            gaps[0] += carry
            out[filled : filled + ends.size] = gaps
            filled += ends.size
            if filled == n:
                self._phase = int(path[ends[-1] + 1])
                return out
            carry = holds[ends[-1] + 1 :].sum()
            phase = path[-1]

    def arrival_times(self, n: int) -> np.ndarray:
        """Generate the first ``n`` absolute arrival epochs (starting at 0)."""
        return np.cumsum(self.interarrival_times(n))
