"""The job store: durable job records in one WAL-mode SQLite database.

A store is the *durable record* layer under
:class:`~repro.jobs.repository.JobRepository`: five primitive
operations -- insert, read, compare-and-swap replace, scan, remove --
each atomic and crash-consistent on its own.  All queue semantics
(claim ordering, fencing epochs, requeue, quarantine) are built on top
of the CAS in the repository; the conformance suite
(``tests/jobs/test_store_conformance.py``) checks the five primitives.

WAL gives crash-atomic commits (a reader never sees a half-written
record; a process killed mid-transaction rolls back on the next open)
and lets readers proceed while a writer commits.  The
optimistic-concurrency primitive is a *single-statement*
compare-and-swap::

    UPDATE jobs SET ... WHERE job_id = ? AND version = ?

whose rowcount tells the writer whether it held the current version --
no read-modify-write window, hence no lock files.  Cross-process
serialization is SQLite's own (``busy_timeout`` retries writer
collisions); in-process threads share one connection behind an
``RLock``.  A store opened with ``root=None`` lives on ``:memory:`` --
the same code on a private database, for tests and single-process use.

Chaos hooks, driven by :mod:`repro.faults`: the write paths carry the
``disk_full`` (ENOSPC before any byte lands) and ``torn_write``
(simulated death inside the transaction, before commit, so the rollback
must preserve the old record) fault points, and :func:`now_ms` honours
``clock_skew`` (per-process heartbeat clock offset).
"""

from __future__ import annotations

import errno
import json
import os
import sqlite3
import threading
import time
from pathlib import Path

from repro.faults import InjectedKill, fire as _fault_fire, fire_value as _fault_value
from repro.jobs.lifecycle import Job

__all__ = ["SqliteJobStore", "StaleJobError", "UnknownJobError", "now_ms"]

#: How long a writer waits on another process's write lock (ms).
BUSY_TIMEOUT_MS = 10_000

_SCHEMA = """\
CREATE TABLE IF NOT EXISTS jobs (
    job_id     TEXT PRIMARY KEY,
    version    INTEGER NOT NULL,
    state      TEXT NOT NULL,
    created_ms REAL NOT NULL,
    payload    TEXT NOT NULL
)
"""


class UnknownJobError(KeyError):
    """No job with the requested id exists in the store."""


class StaleJobError(RuntimeError):
    """An update was based on an outdated copy (version or lease epoch).

    The canonical recovery is read-decide-retry: re-fetch the job, check
    whether the concurrent change (requeue, new lease epoch,
    cancellation) makes the update moot, and either re-apply or stand
    down.  A *zombie* worker -- one whose lease epoch has been
    superseded -- must always stand down: a rejected late write is
    fencing working as designed, not a solve failure.
    """


def now_ms() -> float:
    """Wall-clock milliseconds since the epoch (heartbeats, timestamps).

    Chaos hook: with a ``clock_skew`` fault armed, the reading is offset
    by the rule's ``param`` milliseconds -- the deterministic stand-in
    for a worker whose clock drifts from the fleet's.
    """
    skew_ms = _fault_value("clock_skew")
    return time.time() * 1000.0 + (skew_ms or 0.0)


class SqliteJobStore:
    """Durable job records in a single WAL-mode SQLite database.

    Layout under ``root``::

        root/jobs.sqlite3   the database (plus SQLite's -wal/-shm)
        root/cache/         the queue's shared solve cache

    With ``root=None`` the database is ``:memory:`` and there is no
    shared cache directory.  The full record is stored as its JSON
    document in ``payload``; ``version``/``state``/``created_ms`` are
    mirrored into columns so the CAS is a single statement.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = None if root is None else Path(root)
        self.db_path = None if root is None else self.root / "jobs.sqlite3"
        if self.root is not None:
            legacy = self.root / "jobs"
            if legacy.is_dir() and not self.db_path.exists():
                raise ValueError(
                    f"{legacy} holds a queue written by the JSON-dir job "
                    "store, which this release no longer reads; drain it "
                    "with the previous release first, then remove it"
                )
            self.root.mkdir(parents=True, exist_ok=True)
        # One connection shared by all threads of this process, guarded
        # by an RLock (sqlite3 objects are not thread-safe by default);
        # cross-process writers are serialized by SQLite itself.
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            ":memory:" if self.db_path is None else str(self.db_path),
            check_same_thread=False,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        with self._lock, self._conn:
            self._conn.execute(_SCHEMA)

    @property
    def cache_dir(self) -> str | None:
        """The queue's shared on-disk solve cache directory, if durable."""
        return None if self.root is None else str(self.root / "cache")

    def close(self) -> None:
        """Release the connection.  Idempotent."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Fault hooks shared by the write statements
    # ------------------------------------------------------------------
    @staticmethod
    def _pre_write_faults() -> None:
        """Fires ``disk_full`` before any byte lands."""
        if _fault_fire("disk_full"):
            raise OSError(
                errno.ENOSPC, "database or disk is full (injected)"
            )

    @staticmethod
    def _in_transaction_faults(job_id: str) -> None:
        """Fires ``torn_write`` inside the open transaction.

        The ``with conn`` block rolls the statement back, so the durable
        record keeps its pre-transaction value -- exactly what a SIGKILL
        before the commit leaves behind.
        """
        if _fault_fire("torn_write"):
            raise InjectedKill(
                f"torn_write: killed inside transaction for job {job_id}"
            )

    # ------------------------------------------------------------------
    # The five primitives
    # ------------------------------------------------------------------
    def insert(self, job: Job) -> None:
        """Store a fresh record; raises ``ValueError`` if the id exists."""
        self._pre_write_faults()
        try:
            with self._lock, self._conn:
                self._conn.execute(
                    "INSERT INTO jobs (job_id, version, state, created_ms, payload) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        job.job_id,
                        job.version,
                        job.state,
                        job.created_ms,
                        json.dumps(job.as_dict()),
                    ),
                )
                self._in_transaction_faults(job.job_id)
        except sqlite3.IntegrityError:
            raise ValueError(f"job {job.job_id} already exists") from None

    def read(self, job_id: str) -> Job:
        """The current stored copy; raises :class:`UnknownJobError`."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJobError(job_id)
        return Job.from_dict(json.loads(row[0]))

    def replace(self, job: Job, expected_version: int) -> None:
        """Atomic CAS: store ``job`` iff the stored version equals
        ``expected_version``; raises :class:`StaleJobError` on a
        mismatch and :class:`UnknownJobError` for a vanished job."""
        self._pre_write_faults()
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET version = ?, state = ?, payload = ? "
                "WHERE job_id = ? AND version = ?",
                (
                    job.version,
                    job.state,
                    json.dumps(job.as_dict()),
                    job.job_id,
                    expected_version,
                ),
            )
            self._in_transaction_faults(job.job_id)
            if cursor.rowcount == 0:
                # Lost the CAS: distinguish a vanished job from a stale
                # copy inside the same transaction for a coherent error.
                row = self._conn.execute(
                    "SELECT version FROM jobs WHERE job_id = ?",
                    (job.job_id,),
                ).fetchone()
                if row is None:
                    raise UnknownJobError(job.job_id)
                raise StaleJobError(
                    f"job {job.job_id}: update based on version "
                    f"{expected_version}, stored is {row[0]}"
                )

    def scan(self) -> list[Job]:
        """Every stored record (order unspecified; the repository sorts)."""
        with self._lock:
            rows = self._conn.execute("SELECT payload FROM jobs").fetchall()
        return [Job.from_dict(json.loads(row[0])) for row in rows]

    def remove(self, job_id: str) -> None:
        """Remove a record; raises :class:`UnknownJobError`."""
        self._pre_write_faults()
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "DELETE FROM jobs WHERE job_id = ?", (job_id,)
            )
            if cursor.rowcount == 0:
                raise UnknownJobError(job_id)
