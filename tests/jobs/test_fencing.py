"""Zombie-worker fencing: stale lease epochs cannot clobber the new owner.

The regression the tentpole demands: a worker requeued by the sweeper
(presumed dead) that later wakes up holds a provably stale lease --
every write it attempts (heartbeat, progress, result, terminal
transition) must be rejected with ``StaleJobError``, in memory and on
disk, and the worker-side preemption check must stand down even when the
new owner reuses the zombie's worker id (pid reuse).
"""

import pytest

from repro.jobs import (
    COMPLETED,
    RUNNING,
    JobRepository,
    JobSpec,
    JobWorker,
    StaleJobError,
)
from repro.jobs.lifecycle import Job
from repro.jobs.repository import now_ms


@pytest.fixture(params=["memory", "sqlite"])
def repo(request, tmp_path):
    """The job store on SQLite ``:memory:`` and on disk."""
    repo = JobRepository(None if request.param == "memory" else tmp_path / "queue")
    yield repo
    repo.close()


def zombie_scenario(repo):
    """Claim by A, sweeper requeue, claim by B; returns A's stale copy."""
    repo.submit(Job.new(JobSpec(figure="fig2"), now_ms=now_ms()))
    zombie_copy = repo.claim("zombie@h", now_ms())
    assert zombie_copy.epoch == 1
    # The sweeper decides A is dead and requeues; B picks the job up.
    requeued = repo.update(zombie_copy.requeued(now_ms()))
    new_owner = repo.claim("owner@h", now_ms())
    assert new_owner.job_id == requeued.job_id
    assert new_owner.epoch == 2
    return zombie_copy, new_owner


class TestZombieWritesAreFenced:
    def test_heartbeat_rejected(self, repo):
        zombie, _ = zombie_scenario(repo)
        with pytest.raises(StaleJobError, match="fenced"):
            repo.update(zombie.heartbeat(now_ms()))

    def test_progress_rejected(self, repo):
        zombie, _ = zombie_scenario(repo)
        with pytest.raises(StaleJobError, match="epoch"):
            repo.update(zombie.progressed(1, now_ms()))

    def test_result_rejected(self, repo):
        zombie, _ = zombie_scenario(repo)
        with pytest.raises(StaleJobError, match="stand down"):
            repo.update(zombie.completed("late result", now_ms()))

    def test_terminal_transition_rejected(self, repo):
        zombie, _ = zombie_scenario(repo)
        with pytest.raises(StaleJobError):
            repo.update(zombie.failed("late failure", now_ms()))

    def test_new_owner_record_is_untouched(self, repo):
        zombie, new_owner = zombie_scenario(repo)
        for late_write in (
            zombie.heartbeat(now_ms()),
            zombie.completed("late", now_ms()),
        ):
            with pytest.raises(StaleJobError):
                repo.update(late_write)
        stored = repo.get(new_owner.job_id)
        assert stored.worker_id == "owner@h"
        assert stored.epoch == 2
        assert stored.state == RUNNING
        assert stored.result_text is None

    def test_new_owner_still_writes_freely(self, repo):
        _, new_owner = zombie_scenario(repo)
        done = repo.update(new_owner.completed("real result", now_ms()))
        assert done.state == COMPLETED
        assert repo.get(done.job_id).result_text == "real result"


class TestWorkerStandsDownOnEpochChange:
    def test_pid_reuse_zombie_is_preempted_by_epoch(
        self, memory_repo, service, tiny_figure, monkeypatch
    ):
        """The new owner reuses the zombie's worker id: the id check alone
        would pass, but the epoch check must still stand the zombie down."""
        service.submit_figure(tiny_figure)
        worker = JobWorker(memory_repo, worker_id="reused@unit")

        original_update = memory_repo.update
        fired = {"done": False}

        def update_then_steal_with_same_id(evolved):
            stored = original_update(evolved)
            if stored.state == RUNNING and stored.points_done and not fired["done"]:
                fired["done"] = True
                requeued = original_update(stored.requeued(now_ms()))
                # A different process with the *same* worker id (pid
                # reuse) claims the requeued job -- only the epoch betrays
                # the steal.
                memory_repo.claim("reused@unit", now_ms())
            return stored

        monkeypatch.setattr(memory_repo, "update", update_then_steal_with_same_id)
        result = worker.run_once()
        final = memory_repo.get(result.job_id)
        assert final.state == RUNNING
        assert final.epoch == 2
        assert final.result_text is None  # the zombie wrote nothing
