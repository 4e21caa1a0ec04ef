"""Submission-facade tests: submit, wait, result, reuse, cache wiring."""

import pytest

from repro.engine import EngineConfig
from repro.jobs import (
    COMPLETED,
    FileJobRepository,
    JobNotFinished,
    JobService,
)


class TestSubmit:
    def test_submit_stores_a_pending_job(self, service, tiny_figure):
        job = service.submit_figure(tiny_figure, max_retries=5)
        stored = service.status(job.job_id)
        assert stored.spec.figure == tiny_figure
        assert stored.max_retries == 5

    def test_memory_repo_keeps_config_untouched(self, service, tiny_figure):
        job = service.submit_figure(tiny_figure)
        assert job.spec.engine == EngineConfig()

    def test_file_repo_wires_the_shared_cache(self, tmp_path, tiny_figure):
        repo = FileJobRepository(tmp_path / "q")
        job = JobService(repo).submit_figure(tiny_figure)
        assert job.spec.engine.cache_dir == repo.cache_dir

    def test_explicit_cache_config_wins(self, tmp_path, tiny_figure):
        repo = FileJobRepository(tmp_path / "q")
        job = JobService(repo).submit_figure(
            tiny_figure, config=EngineConfig(cache_dir=str(tmp_path / "mine"))
        )
        assert job.spec.engine.cache_dir == str(tmp_path / "mine")

    def test_reuse_completed_returns_the_finished_job(
        self, service, memory_repo, worker, tiny_figure
    ):
        first = service.submit_figure(tiny_figure)
        worker.run_once()
        again = service.submit_figure(tiny_figure, reuse_completed=True)
        assert again.job_id == first.job_id
        assert again.state == COMPLETED

    def test_reuse_requires_an_identical_spec(
        self, service, worker, tiny_figure
    ):
        first = service.submit_figure(tiny_figure)
        worker.run_once()
        other = service.submit_figure(
            tiny_figure, config=EngineConfig(batched=True), reuse_completed=True
        )
        assert other.job_id != first.job_id

    def test_without_reuse_a_duplicate_is_enqueued(
        self, service, worker, tiny_figure
    ):
        first = service.submit_figure(tiny_figure)
        worker.run_once()
        second = service.submit_figure(tiny_figure)
        assert second.job_id != first.job_id


class TestObservation:
    def test_result_of_unfinished_job_raises(self, service, tiny_figure):
        job = service.submit_figure(tiny_figure)
        with pytest.raises(JobNotFinished, match="pending"):
            service.result(job.job_id)

    def test_result_of_failed_job_raises_with_error(self, service, worker):
        job = service.submit_figure("not-a-figure", max_retries=0)
        worker.run_once()
        with pytest.raises(JobNotFinished, match="not-a-figure"):
            service.result(job.job_id)

    def test_wait_returns_terminal_job(self, service, worker, tiny_figure):
        job = service.submit_figure(tiny_figure)
        worker.run_once()
        final = service.wait(job.job_id, timeout_ms=1_000.0)
        assert final.state == COMPLETED

    def test_wait_times_out_on_stuck_job(self, service, tiny_figure):
        job = service.submit_figure(tiny_figure)
        with pytest.raises(TimeoutError, match="still pending"):
            service.wait(job.job_id, timeout_ms=50.0, poll_interval_ms=10.0)


class TestCancel:
    def test_cancel_is_idempotent_on_terminal_jobs(
        self, service, worker, tiny_figure
    ):
        job = service.submit_figure(tiny_figure)
        worker.run_once()
        final = service.cancel(job.job_id)
        assert final.state == COMPLETED  # unchanged
