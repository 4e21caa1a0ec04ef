"""Durable background jobs over the sweep engine ("solver as a service").

The paper this repository reproduces studies systems that interleave
foreground work with background jobs; this package gives the repository
the same shape.  A figure/sweep run becomes a durable *job* record --
submitted to a queue, executed by a worker through the ordinary
:class:`~repro.engine.SweepEngine`, observable while it runs, and
recoverable when the worker dies:

* :mod:`~repro.jobs.lifecycle` -- the :class:`Job` aggregate and its
  PENDING -> RUNNING -> COMPLETED/FAILED/CANCELLED state machine
  (including the RUNNING -> PENDING requeue edge, the fencing
  :attr:`Job.epoch`, and the QUARANTINED poison-job circuit breaker with
  its operator-release exit).
* :mod:`~repro.jobs.spec` -- :class:`JobSpec`, the serializable work
  description (figure + :class:`~repro.engine.EngineConfig`).
* :mod:`~repro.jobs.store` -- :class:`SqliteJobStore`, the durable
  records: one WAL-mode SQLite database with single-statement
  compare-and-swap (``:memory:`` when opened without a root).
* :mod:`~repro.jobs.repository` -- :class:`JobRepository`, the queue
  protocol (optimistic concurrency, fencing epochs, claims) over the
  store; :func:`open_repository` opens the durable queue in a directory.
* :mod:`~repro.jobs.worker` -- :class:`JobWorker`, claim + execute with
  progress/heartbeat and cooperative cancellation.
* :mod:`~repro.jobs.sweeper` -- :class:`StaleJobSweeper`, requeues jobs
  whose worker was SIGKILLed and quarantines jobs that keep killing
  their workers.
* :mod:`~repro.jobs.service` / :mod:`~repro.jobs.admin` -- the
  submission-side and queue-wide facades the CLI
  (``python -m repro.jobs``) and the HTTP front end
  (:mod:`~repro.jobs.http`) both drive.
* :mod:`~repro.jobs.soak` -- the deterministic chaos soak harness:
  seeded submit/worker/sweeper interleavings with injected kills,
  checked against the queue's safety invariants.

The durability guarantee worth remembering: a job whose worker dies
mid-sweep is requeued and *resumes* through the queue's shared solve
cache, finishing byte-identical to an uninterrupted run -- and the dead
worker, should it turn out to be merely asleep, is fenced off by its
stale lease epoch rather than allowed to clobber the new owner.
"""

from repro.jobs.admin import AdminService
from repro.jobs.lifecycle import (
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    QUARANTINED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    Attempt,
    InvalidTransition,
    Job,
)
from repro.jobs.repository import (
    JobRepository,
    StaleJobError,
    UnknownJobError,
    open_repository,
)
from repro.jobs.service import JobNotFinished, JobService
from repro.jobs.spec import JobSpec
from repro.jobs.store import SqliteJobStore
from repro.jobs.sweeper import StaleJobSweeper, SweeperStats
from repro.jobs.worker import JobWorker, default_worker_id

__all__ = [
    "CANCELLED",
    "COMPLETED",
    "FAILED",
    "PENDING",
    "QUARANTINED",
    "RUNNING",
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "AdminService",
    "Attempt",
    "InvalidTransition",
    "Job",
    "JobNotFinished",
    "JobRepository",
    "JobService",
    "JobSpec",
    "JobWorker",
    "SqliteJobStore",
    "StaleJobError",
    "StaleJobSweeper",
    "SweeperStats",
    "UnknownJobError",
    "default_worker_id",
    "open_repository",
]
