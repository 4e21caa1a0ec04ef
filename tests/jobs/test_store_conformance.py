"""Conformance suite of the job store's five primitives.

The whole queue protocol (claims, fencing, requeues) is built on
atomic insert, read, CAS replace, scan and remove, so each is checked
on SQLite ``:memory:`` and on disk, together with the crash-consistency
cases: an injected ``torn_write`` or ``disk_full`` must leave the old
record intact and readable.
"""

import pytest

from repro.faults import InjectedKill, inject, reset as faults_reset
from repro.jobs import (
    Job,
    JobSpec,
    SqliteJobStore,
    StaleJobError,
    UnknownJobError,
)
from repro.jobs.repository import now_ms


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    store = SqliteJobStore(None if request.param == "memory" else tmp_path / "queue")
    yield store
    store.close()


def fresh(figure="fig2", created_ms=None) -> Job:
    return Job.new(JobSpec(figure=figure), now_ms=created_ms or now_ms())


class TestPrimitives:
    def test_insert_then_read_round_trips(self, store):
        job = fresh()
        store.insert(job)
        assert store.read(job.job_id) == job

    def test_insert_duplicate_rejected(self, store):
        job = fresh()
        store.insert(job)
        with pytest.raises(ValueError, match="already exists"):
            store.insert(job)

    def test_read_unknown_raises(self, store):
        with pytest.raises(UnknownJobError):
            store.read("nope")

    def test_scan_returns_every_record(self, store):
        jobs = [fresh(created_ms=float(i)) for i in range(3)]
        for job in jobs:
            store.insert(job)
        assert {j.job_id for j in store.scan()} == {j.job_id for j in jobs}

    def test_scan_empty_store(self, store):
        assert store.scan() == []

    def test_remove(self, store):
        job = fresh()
        store.insert(job)
        store.remove(job.job_id)
        with pytest.raises(UnknownJobError):
            store.read(job.job_id)
        with pytest.raises(UnknownJobError):
            store.remove(job.job_id)


class TestCompareAndSwap:
    def test_replace_with_matching_version_wins(self, store):
        job = fresh()
        store.insert(job)
        evolved = job.claimed("w@h", now_ms(), epoch=1)
        from dataclasses import replace as _replace

        store.replace(_replace(evolved, version=1), expected_version=0)
        assert store.read(job.job_id).version == 1

    def test_replace_with_stale_version_rejected(self, store):
        from dataclasses import replace as _replace

        job = fresh()
        store.insert(job)
        winner = _replace(job.claimed("w1@h", now_ms(), epoch=1), version=1)
        store.replace(winner, expected_version=0)
        loser = _replace(job.claimed("w2@h", now_ms(), epoch=1), version=1)
        with pytest.raises(StaleJobError, match="version"):
            store.replace(loser, expected_version=0)
        # The winner's record is untouched by the losing attempt.
        assert store.read(job.job_id).worker_id == "w1@h"

    def test_replace_vanished_job_raises_unknown(self, store):
        job = fresh()
        with pytest.raises(UnknownJobError):
            store.replace(job, expected_version=0)

    def test_exactly_one_of_n_sequential_casers_wins(self, store):
        """N writers all holding version 0: exactly one replace lands."""
        from dataclasses import replace as _replace

        job = fresh()
        store.insert(job)
        wins = 0
        for i in range(8):
            contender = _replace(
                job.claimed(f"w{i}@h", now_ms(), epoch=1), version=1
            )
            try:
                store.replace(contender, expected_version=0)
                wins += 1
            except StaleJobError:
                pass
        assert wins == 1


class TestDurability:
    def test_records_survive_reopening(self, tmp_path):
        job = fresh()
        store = SqliteJobStore(tmp_path / "queue")
        store.insert(job)
        store.close()
        reopened = SqliteJobStore(tmp_path / "queue")
        try:
            assert reopened.read(job.job_id) == job
        finally:
            reopened.close()

    def test_torn_write_preserves_the_old_record(self, store):
        """A simulated death mid-write must leave the previous value."""
        from dataclasses import replace as _replace

        job = fresh()
        store.insert(job)
        evolved = _replace(job.claimed("w@h", now_ms(), epoch=1), version=1)
        with inject("torn_write"):
            with pytest.raises(InjectedKill):
                store.replace(evolved, expected_version=0)
        faults_reset()
        stored = store.read(job.job_id)
        assert stored.version == 0
        assert stored.state == job.state

    def test_disk_full_raises_enospc_and_preserves_record(self, store):
        import errno
        from dataclasses import replace as _replace

        job = fresh()
        store.insert(job)
        evolved = _replace(job.claimed("w@h", now_ms(), epoch=1), version=1)
        with inject("disk_full"):
            with pytest.raises(OSError) as excinfo:
                store.replace(evolved, expected_version=0)
        assert excinfo.value.errno == errno.ENOSPC
        faults_reset()
        assert store.read(job.job_id).version == 0

    def test_torn_insert_leaves_no_record(self, store):
        job = fresh()
        with inject("torn_write"):
            with pytest.raises(InjectedKill):
                store.insert(job)
        faults_reset()
        with pytest.raises(UnknownJobError):
            store.read(job.job_id)

    def test_cache_dir_is_stable(self, tmp_path):
        store = SqliteJobStore(tmp_path / "queue")
        try:
            assert store.cache_dir == str(tmp_path / "queue" / "cache")
        finally:
            store.close()
