"""Property-based tests of job-store optimistic concurrency.

Two layers, on SQLite ``:memory:`` and on disk:

* Hypothesis drives randomly *interleaved* ``update()`` calls from a
  cast of writers, some holding the current record and some holding
  stale copies: an update must be accepted exactly when the writer's
  copy carries the stored version, the version counter must advance by
  exactly one per accepted write and never regress, and a rejected
  writer must leave the stored record untouched.

* A real ``multiprocessing`` stampede hammers one job with concurrent
  read-modify-update rounds through the on-disk store: no update may
  be lost (the final progress counter equals the number of accepted
  writes), which is the lost-update freedom the sweep/worker/zombie
  machinery is built on.
"""

import multiprocessing
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.jobs import Job, JobRepository, JobSpec, StaleJobError

BACKENDS = ("memory", "sqlite")


def make_repo(backend: str, root: Path):
    return JobRepository(None if backend == "memory" else root / "q")


def running_job(repo) -> Job:
    repo.submit(Job.new(JobSpec(figure="fig2"), now_ms=1_000.0))
    return repo.claim("w@h", 1_500.0)


#: One interleaving step: which writer acts, and whether it refreshes
#: its copy from the store first (a writer that does not refresh is
#: acting on a stale snapshot whenever someone else wrote in between).
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("backend", BACKENDS)
@given(schedule=steps)
@settings(max_examples=30, deadline=None)
def test_update_accepts_exactly_the_current_version(backend, schedule):
    with tempfile.TemporaryDirectory() as td:
        repo = make_repo(backend, Path(td))
        try:
            job = running_job(repo)
            copies = {w: job for w in range(4)}  # every writer starts current
            clock_ms = 2_000.0
            for writer, refresh in schedule:
                clock_ms += 1.0
                stored_before = repo.get(job.job_id)
                if refresh:
                    copies[writer] = stored_before
                copy = copies[writer]
                was_current = copy.version == stored_before.version
                try:
                    accepted = repo.update(copy.progressed(1, clock_ms))
                except StaleJobError:
                    # Rejections happen exactly on stale copies, and the
                    # stored record is untouched by the attempt.
                    assert not was_current
                    assert repo.get(job.job_id) == stored_before
                else:
                    assert was_current
                    assert accepted.version == stored_before.version + 1
                    assert accepted.points_done == copy.points_done + 1
                    copies[writer] = accepted
                # The counter never regresses, with or without a win.
                assert repo.get(job.job_id).version >= stored_before.version
        finally:
            repo.close()


@pytest.mark.parametrize("backend", BACKENDS)
@given(winner=st.integers(min_value=0, max_value=3))
@settings(max_examples=10, deadline=None)
def test_exactly_one_writer_wins_each_round(backend, winner):
    """All writers hold the same version; whoever goes first wins, every
    other contender is rejected -- no silent last-writer-wins."""
    with tempfile.TemporaryDirectory() as td:
        repo = make_repo(backend, Path(td))
        try:
            job = running_job(repo)
            order = [winner] + [w for w in range(4) if w != winner]
            outcomes = []
            for w in order:
                try:
                    repo.update(job.progressed(w + 1, 2_000.0))
                    outcomes.append(w)
                except StaleJobError:
                    pass
            assert outcomes == [winner]
            assert repo.get(job.job_id).points_done == winner + 1
        finally:
            repo.close()


# ----------------------------------------------------------------------
# Real processes, real contention
# ----------------------------------------------------------------------


def _stampede(args) -> int:
    """One contender process: ``rounds`` read-modify-update cycles."""
    root, job_id, rounds = args
    repo = JobRepository(root)
    accepted = 0
    try:
        for _ in range(rounds):
            while True:
                current = repo.get(job_id)
                evolved = current.progressed(1, 2_000.0)
                try:
                    repo.update(evolved)
                except StaleJobError:
                    continue  # somebody else won the round; retry on fresh
                accepted += 1
                break
    finally:
        repo.close()
    return accepted


def test_no_update_is_lost_under_process_contention(tmp_path):
    root = tmp_path / "q"
    repo = JobRepository(root)
    running = running_job(repo)
    processes, rounds = 4, 12
    with multiprocessing.Pool(processes) as pool:
        wins = pool.map(
            _stampede,
            [(root, running.job_id, rounds)] * processes,
        )
    final = repo.get(running.job_id)
    repo.close()
    assert wins == [rounds] * processes
    # Every accepted write advanced the counter by exactly one: none
    # were lost, none double-counted.
    assert final.points_done == processes * rounds
    assert final.version == running.version + processes * rounds
