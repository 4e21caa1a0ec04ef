"""The stale-job sweeper: requeue RUNNING jobs whose worker died.

A worker that is SIGKILLed (or whose machine vanishes) cannot transition
its job anywhere -- the record stays RUNNING with a heartbeat that
stops advancing.  :class:`StaleJobSweeper` detects those orphans and
puts them back on the queue (``RUNNING -> PENDING``, one retry
consumed), where the next worker picks them up and -- because the job's
engine cache outlives the dead worker -- finishes them byte-identical
to an uninterrupted run.  The requeue bumps the record's version, and
the next claim bumps its fencing epoch, so the old owner (if it was
merely asleep) finds every later write rejected with ``StaleJobError``.

Staleness has two independent signals:

* *dead owner*: the worker id is ``"<pid>@<host>"``; for owners on this
  host, a pid that no longer exists is conclusive (no lease wait);
* *stale heartbeat*: for remote or unverifiable owners, a heartbeat
  older than the lease (solving emits a heartbeat per stacked solve --
  one :meth:`~repro.engine.SweepEngine.solve_batch` call, often a whole
  sweep -- so the lease must exceed the slowest stacked solve, not just
  the slowest single point).

Heartbeat evidence is weaker than a dead pid: a lease shorter than the
slowest stacked solve *steals* jobs from live workers (the documented
gotcha).  The sweeper defends itself: when a job's own progress implies a
heartbeat interval within 2x of the configured lease, the effective
lease for that job is clamped to 2x the observed interval (with a
:class:`LeaseClampWarning`), and every heartbeat-evidence requeue is
counted as a *steal* in :class:`SweeperStats` -- a high steal count
with no dead pids is the operational signature of a lease set too
short.

Two escalations beyond the plain requeue:

* a job whose retry budget is spent is recorded FAILED (a poisoned job
  must eventually surface, not loop);
* a job whose workers *die* on ``quarantine_after`` consecutive
  attempts trips the poison-job circuit breaker first: it is moved to
  QUARANTINED with its attempt forensics attached, for an operator to
  inspect and deliberately release (``admin quarantine-release``).
  Worker-side failure requeues (exceptions, outcome ``"failed"``) do
  not count toward the breaker -- only deaths do.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from repro.jobs.lifecycle import RUNNING, Job
from repro.jobs.repository import JobRepository, StaleJobError, now_ms

__all__ = ["LeaseClampWarning", "StaleJobSweeper", "SweeperStats"]


class LeaseClampWarning(UserWarning):
    """The configured lease is dangerously short for an observed job.

    Emitted when a RUNNING job's own progress rate implies a heartbeat
    interval the configured ``lease_ms`` does not cover with a 2x
    margin; the sweeper clamps its effective lease for that job rather
    than steal it from a live worker.
    """


def _local_pid_dead(worker_id: str | None) -> bool:
    """Conclusively dead: a local worker whose pid is gone."""
    if not worker_id or "@" not in worker_id:
        return False
    pid_part, _, host = worker_id.partition("@")
    if host != os.uname().nodename:
        return False
    try:
        pid = int(pid_part)
    except ValueError:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False  # exists, owned by someone else
    return False


@dataclass
class SweeperStats:
    """Counters accumulated across :meth:`StaleJobSweeper.sweep` passes.

    ``steals`` counts requeues/quarantines justified by heartbeat age
    alone (the owner was not provably dead) -- with a sane lease this
    stays at zero, so a growing count means the lease is too short or a
    worker's clock is skewed.  ``lease_clamps`` counts the times the
    per-job lease clamp saved a live worker from being stolen from.
    """

    swept: int = 0
    requeued: int = 0
    failed: int = 0
    quarantined: int = 0
    steals: int = 0
    lease_clamps: int = 0

    def as_dict(self) -> dict:
        return {
            "swept": self.swept,
            "requeued": self.requeued,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "steals": self.steals,
            "lease_clamps": self.lease_clamps,
        }


class StaleJobSweeper:
    """Requeues (or fails, or quarantines) RUNNING jobs owned by dead workers.

    Parameters
    ----------
    repository:
        The queue to sweep.
    lease_ms:
        Heartbeat age beyond which an owner that is not provably dead is
        presumed dead.  Heartbeats tick once per stacked solve, so this
        must exceed the slowest one -- the per-job clamp (see
        module docstring) papers over a misconfiguration but is not a
        substitute for setting it right.
    quarantine_after:
        Consecutive worker *deaths* (not failures, not cancels) that
        trip the poison-job circuit breaker.  ``None`` disables it.
    clock:
        Millisecond clock used for staleness decisions; injectable so
        the chaos soak can drive the sweeper on logical time.
    """

    def __init__(
        self,
        repository: JobRepository,
        lease_ms: float = 30_000.0,
        quarantine_after: int | None = 3,
        clock: Callable[[], float] = now_ms,
    ) -> None:
        if lease_ms <= 0:
            raise ValueError(f"lease_ms must be positive, got {lease_ms}")
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1 or None, got {quarantine_after}"
            )
        self.repository = repository
        self.lease_ms = float(lease_ms)
        self.quarantine_after = quarantine_after
        self.clock = clock
        self.stats = SweeperStats()

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    def observed_heartbeat_interval_ms(self, job: Job) -> float | None:
        """Mean time between this job's heartbeats, from its own progress.

        ``None`` when the job has not reported progress yet (nothing to
        observe).
        """
        if job.points_done <= 0:
            return None
        if job.heartbeat_ms is None or job.started_ms is None:
            return None
        # points_done counts the *current* attempt only (requeues reset
        # it), so the window must start at the current attempt's claim,
        # not the first one -- ``started_ms`` survives requeues, and
        # measuring a fresh attempt's few points against the whole job
        # age would inflate the estimate (and the clamp) without bound.
        attempt_start_ms = job.started_ms
        if job.attempts:
            attempt_start_ms = max(attempt_start_ms, job.attempts[-1].ended_ms)
        elapsed_ms = job.heartbeat_ms - attempt_start_ms
        if elapsed_ms <= 0:
            return None
        return elapsed_ms / job.points_done

    def effective_lease_ms(self, job: Job) -> float:
        """The lease actually applied to ``job``: configured, or clamped.

        When the configured lease is shorter than 2x the job's observed
        heartbeat interval, stealing on heartbeat age would take the job
        from a live-but-slow worker; the lease is clamped to 2x the
        observed interval and a :class:`LeaseClampWarning` is emitted.
        """
        observed_ms = self.observed_heartbeat_interval_ms(job)
        if observed_ms is None:
            return self.lease_ms
        clamped_ms = 2.0 * observed_ms
        if self.lease_ms >= clamped_ms:
            return self.lease_ms
        self.stats.lease_clamps += 1
        warnings.warn(
            f"job {job.job_id}: configured lease {self.lease_ms:g} ms is "
            f"shorter than 2x the observed heartbeat interval "
            f"({observed_ms:g} ms); clamping the effective lease to "
            f"{clamped_ms:g} ms to avoid stealing from a live worker",
            LeaseClampWarning,
            stacklevel=2,
        )
        return clamped_ms

    def is_stale(self, job: Job, at_ms: float) -> bool:
        """Should this RUNNING job be taken from its owner?"""
        if job.state != RUNNING:
            return False
        if _local_pid_dead(job.worker_id):
            return True
        last_ms = job.heartbeat_ms if job.heartbeat_ms is not None else job.updated_ms
        return (at_ms - last_ms) > self.effective_lease_ms(job)

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def sweep(self) -> list[Job]:
        """One pass over RUNNING jobs; returns the records it rewrote.

        Stale jobs go, in order of precedence: QUARANTINED when the
        consecutive-death breaker trips, back to PENDING while retry
        budget remains, FAILED otherwise.  Concurrent updates (the owner
        was alive after all, another sweeper won the race) make that job
        a no-op.
        """
        at_ms = self.clock()
        touched: list[Job] = []
        for job in self.repository.list_jobs(state=RUNNING):
            if not self.is_stale(job, at_ms):
                continue
            pid_dead = _local_pid_dead(job.worker_id)
            detail = (
                f"worker {job.worker_id} pid is gone"
                if pid_dead
                else f"worker {job.worker_id} heartbeat outlived the lease"
            )
            deaths_with_this_one = job.consecutive_worker_deaths + 1
            if (
                self.quarantine_after is not None
                and deaths_with_this_one >= self.quarantine_after
            ):
                evolved = job.quarantined(self.clock(), detail=detail)
                outcome = "quarantined"
            elif job.retries < job.max_retries:
                evolved = job.requeued(self.clock(), detail=detail)
                outcome = "requeued"
            else:
                evolved = job.failed(
                    f"worker {job.worker_id} died and the requeue budget "
                    f"is exhausted ({job.retries}/{job.max_retries})",
                    self.clock(),
                )
                outcome = "failed"
            try:
                touched.append(self.repository.update(evolved))
            except StaleJobError:
                continue  # someone else already handled it
            self.stats.swept += 1
            setattr(self.stats, outcome, getattr(self.stats, outcome) + 1)
            if not pid_dead:
                self.stats.steals += 1
        return touched
