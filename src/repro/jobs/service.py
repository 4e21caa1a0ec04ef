"""The submission-side facade: submit, status, result, cancel, wait.

:class:`JobService` is the one API the CLI, the HTTP front end and
``python -m repro.experiments --via-jobs`` all drive.  It owns the two
policies that make the queue durable *and* deterministic:

* every figure job submitted against a durable queue gets its engine
  cache pointed at the queue's shared ``cache/`` directory (unless the
  caller configured a cache explicitly), so a requeued job resumes
  through the dead worker's completed solves;
* ``reuse_completed=True`` recognizes an already COMPLETED job with the
  same spec fingerprint and returns it instead of re-submitting -- the
  job-queue form of the blocking CLI's ``--resume``.
"""

from __future__ import annotations

import time

from repro.engine.config import EngineConfig
from repro.jobs.lifecycle import (
    COMPLETED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    Job,
)
from repro.jobs.repository import JobRepository, StaleJobError, now_ms
from repro.jobs.spec import JobSpec

__all__ = ["JobNotFinished", "JobService"]


class JobNotFinished(RuntimeError):
    """The result of a job that has not COMPLETED was requested."""


class JobService:
    """Submission-side operations over a :class:`JobRepository`."""

    def __init__(self, repository: JobRepository) -> None:
        self.repository = repository

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_figure(
        self,
        figure: str,
        *,
        config: EngineConfig | None = None,
        max_retries: int = 3,
        reuse_completed: bool = False,
    ) -> Job:
        """Submit one figure job; returns the stored (or reused) record."""
        spec = JobSpec(
            figure=figure,
            engine=self._effective_config(config),
        )
        if reuse_completed:
            fingerprint = spec.fingerprint()
            for job in self.repository.list_jobs(state=COMPLETED):
                if job.spec.fingerprint() == fingerprint:
                    return job
        return self.repository.submit(
            Job.new(spec, now_ms(), max_retries=max_retries)
        )

    def _effective_config(self, config: EngineConfig | None) -> EngineConfig:
        """The engine config a job is stored with.

        A durable repository contributes its shared solve-cache
        directory when the caller did not configure a cache -- that
        cache is what turns a requeue into a resume.
        """
        config = config if config is not None else EngineConfig()
        cache_dir = self.repository.cache_dir
        if cache_dir is not None and config.cache_dir is None and not config.cache_memory:
            config = config.replace(cache_dir=cache_dir)
        return config

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> Job:
        """The current record (raises UnknownJobError)."""
        return self.repository.get(job_id)

    def result(self, job_id: str) -> str:
        """The rendered result of a COMPLETED job.

        Raises
        ------
        JobNotFinished
            While the job is still PENDING/RUNNING, or when it ended
            FAILED/CANCELLED (the message says which, with the error).
        """
        job = self.repository.get(job_id)
        if job.state != COMPLETED:
            detail = f": {job.error}" if job.error else ""
            raise JobNotFinished(
                f"job {job_id} is {job.state}, not {COMPLETED}{detail}"
            )
        return job.result_text or ""

    def wait(
        self,
        job_id: str,
        timeout_ms: float = 300_000.0,
        poll_interval_ms: float = 100.0,
    ) -> Job:
        """Poll until the job is terminal; returns the terminal record.

        Raises
        ------
        TimeoutError
            When ``timeout_ms`` elapses first (the job keeps running).
        """
        deadline_ms = now_ms() + timeout_ms
        while True:
            job = self.repository.get(job_id)
            if job.is_terminal:
                return job
            if now_ms() >= deadline_ms:
                raise TimeoutError(
                    f"job {job_id} still {job.state} after {timeout_ms:g} ms"
                )
            time.sleep(poll_interval_ms / 1000.0)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediately when PENDING, cooperatively when RUNNING.

        A PENDING job is transitioned to CANCELLED on the spot.  A
        RUNNING job gets its ``cancel_requested`` flag set; the owning
        worker observes it at the next sweep point, stops, and records
        the CANCELLED terminal state.  Terminal jobs are returned
        unchanged (cancellation is idempotent).
        """
        while True:
            job = self.repository.get(job_id)
            if job.is_terminal:
                return job
            try:
                if job.state == PENDING:
                    return self.repository.update(job.cancelled(now_ms()))
                if job.state == RUNNING:
                    return self.repository.update(
                        job.cancel_requested_now(now_ms())
                    )
            except StaleJobError:
                continue  # raced with the worker; re-read and retry
            raise AssertionError(  # pragma: no cover - states are exhaustive
                f"unhandled state {job.state!r}"
            )

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def list_jobs(self, state: str | None = None) -> list[Job]:
        return self.repository.list_jobs(state=state)

    @staticmethod
    def is_terminal_state(state: str) -> bool:
        return state in TERMINAL_STATES
