"""The queue protocol over the SQLite :class:`~repro.jobs.store.SqliteJobStore`.

:class:`JobRepository` implements the claim/update protocol --
optimistic-concurrency updates, fencing-epoch stamping on claims,
oldest-first claim scans -- over the store's five primitives.
``JobRepository(root)`` (or :func:`open_repository`) opens the durable
queue at ``root``; ``JobRepository()`` opens a private ``:memory:``
queue for unit tests and the thread-based HTTP front end.

Every stored job carries a ``version``, every update requires the
writer's copy to match it, and a mismatch raises
:class:`StaleJobError`.  Claims additionally stamp a monotonically
increasing *fencing epoch* on the lease, so a zombie worker -- one
whose job was requeued under it and claimed by someone else -- is
rejected by version *and* identifiable by epoch: the error says whether
the writer merely raced another update (re-read and re-apply) or
provably lost its lease (stand down).
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.jobs.lifecycle import PENDING, Job
from repro.jobs.store import SqliteJobStore, StaleJobError, UnknownJobError, now_ms

__all__ = [
    "JobRepository",
    "StaleJobError",
    "UnknownJobError",
    "open_repository",
]


class JobRepository:
    """The queue protocol over the job store at ``root``.

    ``root=None`` opens a private in-memory queue (no shared cache).
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.store = SqliteJobStore(root)

    @property
    def cache_dir(self) -> str | None:
        """The queue's shared on-disk solve cache directory, if durable.

        Pointing every job's engine here is what makes requeues resume:
        solves a dead worker finished are already on disk, so the next
        worker replays them as cache hits and the final result is
        byte-identical to an uninterrupted run.
        """
        return self.store.cache_dir

    def close(self) -> None:
        """Release the store's connection.  Idempotent."""
        self.store.close()

    def submit(self, job: Job) -> Job:
        """Store a fresh job; returns the stored copy (version 0)."""
        stored = replace(job, version=0)
        self.store.insert(stored)
        return stored

    def get(self, job_id: str) -> Job:
        """The current stored copy; raises :class:`UnknownJobError`."""
        return self.store.read(job_id)

    def update(self, job: Job) -> Job:
        """Store an evolved copy.

        ``job.version`` must equal the stored version; the returned copy
        carries ``version + 1``.  Raises :class:`StaleJobError` on a
        mismatch (annotated with the lease epochs when the writer's
        fencing token is stale -- the zombie-worker signature) and
        :class:`UnknownJobError` for a vanished job.
        """
        stored = replace(job, version=job.version + 1)
        try:
            self.store.replace(stored, expected_version=job.version)
        except StaleJobError as exc:
            current = self.store.read(job.job_id)
            if current.epoch != job.epoch:
                raise StaleJobError(
                    f"job {job.job_id}: write fenced off -- writer holds "
                    f"lease epoch {job.epoch}, stored is {current.epoch} "
                    f"(the job was requeued and re-claimed; stand down)"
                ) from None
            raise exc
        return stored

    def claim(self, worker_id: str, claim_now_ms: float) -> Job | None:
        """Atomically claim the oldest PENDING job, or ``None``.

        The claimed job is stored as RUNNING under ``worker_id`` with a
        freshly stamped fencing epoch (``stored.epoch + 1``) before it
        is returned; the store's compare-and-swap guarantees no two
        workers can win the same claim, and the epoch bump guarantees
        any previous leaseholder's copy is now provably stale.
        """
        for job in self.list_jobs(state=PENDING):
            if job.cancel_requested:
                continue
            try:
                current = self.store.read(job.job_id)
                if current.state != PENDING or current.cancel_requested:
                    continue
                claimed = current.claimed(
                    worker_id, claim_now_ms, epoch=current.epoch + 1
                )
                return self.update(claimed)
            except (UnknownJobError, StaleJobError):
                continue  # purged or raced underneath us
        return None

    def list_jobs(self, state: str | None = None) -> list[Job]:
        """All jobs (optionally filtered by state), oldest first."""
        jobs = self.store.scan()
        if state is not None:
            jobs = [j for j in jobs if j.state == state]
        return sorted(jobs, key=lambda j: (j.created_ms, j.job_id))

    def delete(self, job_id: str) -> None:
        """Remove a job record; raises :class:`UnknownJobError`."""
        self.store.remove(job_id)


def open_repository(root: str | os.PathLike) -> JobRepository:
    """Open the durable queue at ``root``, creating it if needed.

    Raises ``ValueError`` for a root holding a queue written by the
    JSON-dir store of earlier releases (a ``jobs/`` directory and no
    ``jobs.sqlite3``).
    """
    return JobRepository(root)
