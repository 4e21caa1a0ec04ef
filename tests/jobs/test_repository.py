"""Repository contract tests, on SQLite ``:memory:`` and on disk."""

import pytest

from repro.jobs import (
    Job,
    JobRepository,
    JobSpec,
    PENDING,
    RUNNING,
    StaleJobError,
    UnknownJobError,
)
from repro.jobs.repository import now_ms, open_repository


@pytest.fixture(params=["memory", "sqlite"])
def repo(request, tmp_path):
    repo = JobRepository(None if request.param == "memory" else tmp_path / "queue")
    yield repo
    repo.close()


def submit(repo, figure="fig2", created_ms=None) -> Job:
    job = Job.new(JobSpec(figure=figure), now_ms=created_ms or now_ms())
    return repo.submit(job)


class TestContract:
    def test_submit_and_get(self, repo):
        job = submit(repo)
        assert repo.get(job.job_id) == job
        assert job.version == 0

    def test_get_unknown_raises(self, repo):
        with pytest.raises(UnknownJobError):
            repo.get("nope")

    def test_duplicate_submit_rejected(self, repo):
        job = submit(repo)
        with pytest.raises(ValueError, match="already exists"):
            repo.submit(job)

    def test_update_bumps_version(self, repo):
        job = submit(repo)
        updated = repo.update(job.claimed("w@h", now_ms()))
        assert updated.version == 1
        assert repo.get(job.job_id).state == RUNNING

    def test_stale_update_rejected(self, repo):
        job = submit(repo)
        repo.update(job.claimed("w@h", now_ms()))
        # A second writer still holding version 0:
        with pytest.raises(StaleJobError, match="version"):
            repo.update(job.cancelled(now_ms()))

    def test_claim_takes_oldest_pending(self, repo):
        first = submit(repo, created_ms=1_000.0)
        submit(repo, created_ms=2_000.0)
        claimed = repo.claim("w@h", now_ms())
        assert claimed.job_id == first.job_id
        assert claimed.state == RUNNING
        assert claimed.worker_id == "w@h"

    def test_claim_skips_cancel_requested(self, repo):
        job = submit(repo)
        repo.update(job.cancel_requested_now(now_ms()))
        assert repo.claim("w@h", now_ms()) is None

    def test_claim_empty_queue_returns_none(self, repo):
        assert repo.claim("w@h", now_ms()) is None

    def test_claimed_job_is_not_claimable_again(self, repo):
        submit(repo)
        assert repo.claim("w1@h", now_ms()) is not None
        assert repo.claim("w2@h", now_ms()) is None

    def test_list_filters_by_state(self, repo):
        a = submit(repo, created_ms=1_000.0)
        submit(repo, created_ms=2_000.0)
        repo.update(a.claimed("w@h", now_ms()))
        assert [j.job_id for j in repo.list_jobs(state=RUNNING)] == [a.job_id]
        assert len(repo.list_jobs(state=PENDING)) == 1
        assert len(repo.list_jobs()) == 2

    def test_delete(self, repo):
        job = submit(repo)
        repo.delete(job.job_id)
        with pytest.raises(UnknownJobError):
            repo.get(job.job_id)
        with pytest.raises(UnknownJobError):
            repo.delete(job.job_id)


class TestClaimStampsEpoch:
    def test_each_claim_bumps_the_fencing_epoch(self, repo):
        job = submit(repo)
        first = repo.claim("w1@h", now_ms())
        assert first.epoch == 1
        requeued = repo.update(first.requeued(now_ms()))
        second = repo.claim("w2@h", now_ms())
        assert second.job_id == requeued.job_id
        assert second.epoch == 2

    def test_epoch_survives_serialization(self, repo):
        job = submit(repo)
        claimed = repo.claim("w@h", now_ms())
        assert repo.get(job.job_id).epoch == claimed.epoch == 1


class TestSqliteRepository:
    def test_records_live_in_one_database(self, tmp_path):
        repo = JobRepository(tmp_path / "q")
        job = submit(repo)
        assert repo.store.db_path.exists()
        assert repo.get(job.job_id) == job

    def test_two_handles_share_state(self, tmp_path):
        writer = JobRepository(tmp_path / "q")
        reader = JobRepository(tmp_path / "q")
        job = submit(writer)
        assert reader.get(job.job_id) == job
        writer.update(job.claimed("w@h", now_ms()))
        assert reader.get(job.job_id).state == RUNNING

    def test_cache_dir_is_inside_the_queue(self, tmp_path):
        repo = JobRepository(tmp_path / "q")
        assert repo.cache_dir == str(tmp_path / "q" / "cache")

    def test_memory_queue_has_no_disk_footprint(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        repo = JobRepository()
        submit(repo)
        assert repo.cache_dir is None
        assert list(tmp_path.iterdir()) == []


class TestOpenRepository:
    def test_auto_reopens_an_existing_sqlite_queue(self, tmp_path):
        job = submit(JobRepository(tmp_path / "q"))
        repo = open_repository(tmp_path / "q")
        assert repo.get(job.job_id) == job

    def test_fresh_root_is_created(self, tmp_path):
        repo = open_repository(tmp_path / "a" / "q")
        assert repo.store.db_path == tmp_path / "a" / "q" / "jobs.sqlite3"
        assert repo.store.db_path.exists()

    def test_legacy_json_dir_queue_is_refused(self, tmp_path):
        """A queue the JSON-dir store wrote must not be shadowed by a
        fresh, empty SQLite queue next to it."""
        legacy = tmp_path / "q" / "jobs"
        legacy.mkdir(parents=True)
        (legacy / "0123.json").write_text("{}\n")
        with pytest.raises(ValueError, match="previous release") as excinfo:
            open_repository(tmp_path / "q")
        assert str(legacy) in str(excinfo.value)
        assert not (tmp_path / "q" / "jobs.sqlite3").exists()

    def test_jobs_dir_next_to_a_database_is_ignored(self, tmp_path):
        job = submit(JobRepository(tmp_path / "q"))
        (tmp_path / "q" / "jobs").mkdir()
        assert open_repository(tmp_path / "q").get(job.job_id) == job
