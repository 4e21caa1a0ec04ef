"""Solved metrics of the foreground/background model."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.qbd.rmatrix import SolveStats
from repro.qbd.stationary import QBDStationaryDistribution

__all__ = ["FgBgSolution"]


@dataclass(frozen=True)
class FgBgSolution:
    """All stationary metrics of one solved model instance.

    The four headline metrics of the paper:

    * :attr:`fg_queue_length` -- mean number of foreground jobs in system
      (paper's ``QLEN_FG``, Figures 5, 9, 11);
    * :attr:`fg_delayed_fraction` -- the paper's ``WaitP_FG`` (Figures 6,
      13): the probability that a background job holds the server given
      foreground work is present;
    * :attr:`bg_completion_rate` -- the paper's ``Comp_BG`` (Figures 7, 10,
      12): the fraction of spawned background jobs that are admitted (and
      hence eventually served); a deliberate ``nan`` when
      ``bg_probability`` is below ``NEAR_ZERO_BG_PROBABILITY`` (including
      exactly 0), where the chain is built without background states;
    * :attr:`bg_queue_length` -- mean number of background jobs in system
      (Figure 8).
    """

    #: Mean number of foreground jobs in system (waiting or in service).
    fg_queue_length: float
    #: Mean number of background jobs in system (waiting or in service).
    bg_queue_length: float
    #: P(background job in service | >= 1 foreground job in system).
    fg_delayed_fraction: float
    #: Fraction of foreground *arrivals* that find a background job holding
    #: the server (an arrival-average variant of ``fg_delayed_fraction``).
    fg_arrival_delayed_fraction: float
    #: Fraction of spawned background jobs admitted to the buffer.
    bg_completion_rate: float
    #: Long-run fraction of time the server works on foreground jobs.
    fg_server_share: float
    #: Long-run fraction of time the server works on background jobs.
    bg_server_share: float
    #: Long-run fraction of time the server is idle (incl. idle-wait).
    idle_probability: float
    #: Foreground throughput (jobs per unit time); equals the arrival rate.
    fg_throughput: float
    #: Background service completions per unit time.
    bg_throughput: float
    #: Background jobs spawned per unit time (admitted or not).
    bg_spawn_rate: float
    #: Background jobs dropped (buffer full) per unit time.
    bg_drop_rate: float
    #: Mean foreground response time (Little's law).
    fg_response_time: float
    #: Mean background response time, from admission to completion
    #: (Little's law over admitted jobs); ``nan`` when no job is admitted.
    bg_response_time: float
    #: Offered foreground utilization ``lambda / mu``.
    fg_utilization: float
    #: The underlying QBD stationary distribution, for power users.
    qbd_solution: QBDStationaryDistribution

    @property
    def solve_stats(self) -> SolveStats | None:
        """Diagnostics of the R-matrix solve behind this solution
        (iterations, wall time, algorithm, ``sp(R)``, fallbacks)."""
        return self.qbd_solution.solve_stats

    def as_dict(self) -> dict[str, float]:
        """Scalar metrics as a plain dictionary (omits the QBD solution)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "qbd_solution"
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = ["FgBgSolution"]
        for name, value in self.as_dict().items():
            rendered = "nan" if isinstance(value, float) and math.isnan(value) else f"{value:.6g}"
            lines.append(f"  {name:<28s} {rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"FgBgSolution(fg_queue_length={self.fg_queue_length:.6g}, "
            f"bg_completion_rate={self.bg_completion_rate:.6g}, "
            f"fg_delayed_fraction={self.fg_delayed_fraction:.6g}, "
            f"bg_queue_length={self.bg_queue_length:.6g})"
        )
