"""Chaos tests: the job layer must survive SIGKILLed workers.

Two kill points, both driven by the deterministic fault injector
(``REPRO_FAULTS`` is inherited by the worker subprocess):

* ``worker_kill`` fires at the top of ``JobWorker.execute`` -- the
  worker dies the instant it claims the job, before any progress;
* ``kill_run`` fires inside ``SolveCache.put`` -- the worker dies
  mid-sweep with part of the figure already solved *and cached*.

In both cases the contract is the same: the job is left RUNNING by the
dead worker, the sweeper requeues it, a second (fault-free) worker
finishes it, and the final result is byte-identical to a blocking run
of the same figure -- for the mid-sweep kill precisely because the
second worker resumes through the queue's shared solve cache.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import execute_figure

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def queue_dir(tmp_path):
    return str(tmp_path / "queue")


def cli(queue_dir, *args, faults=None, check=True):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    result = subprocess.run(  # noqa: RL003 -- subprocess timeout is seconds by stdlib contract
        [sys.executable, "-m", "repro.jobs", "--dir", queue_dir, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if check:
        assert result.returncode == 0, (result.stdout, result.stderr)
    return result


def status(queue_dir, job_id) -> dict:
    return json.loads(cli(queue_dir, "status", job_id).stdout)


class TestWorkerKill:
    def test_killed_worker_job_is_requeued_and_completes_identically(
        self, queue_dir
    ):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        assert (Path(queue_dir) / "jobs.sqlite3").exists()

        # Worker 1 claims the job and is SIGKILLed at the execute hook.
        killed = cli(
            queue_dir, "worker", faults="worker_kill:limit=1", check=False
        )
        assert killed.returncode == -9

        orphan = status(queue_dir, job_id)
        assert orphan["state"] == "running"  # dead owner, record orphaned

        # The sweeper notices the dead pid (same host) and requeues.
        swept = cli(queue_dir, "sweep").stdout
        assert job_id in swept
        requeued = status(queue_dir, job_id)
        assert requeued["state"] == "pending"
        assert requeued["retries"] == 1

        # Worker 2 (fault-free) finishes; result matches the blocking path.
        cli(queue_dir, "worker")
        final = status(queue_dir, job_id)
        assert final["state"] == "completed"
        result = cli(queue_dir, "result", job_id).stdout
        assert result == execute_figure("fig2") + "\n"


class TestMidSweepKill:
    def test_mid_sweep_kill_resumes_through_cache_byte_identical(
        self, queue_dir
    ):
        """The acceptance scenario: fig9's idle-wait sweeps, worker killed
        after 40 solves have landed in the queue cache (the first panel's
        32-point stacked solve and 8 of the second's), requeued, resumed,
        byte-identical to an uninterrupted blocking run."""
        job_id = cli(queue_dir, "submit", "fig9").stdout.strip()

        killed = cli(
            queue_dir,
            "worker",
            faults="kill_run:after=40:limit=1",
            check=False,
        )
        assert killed.returncode == -9

        orphan = status(queue_dir, job_id)
        assert orphan["state"] == "running"
        assert orphan["points_done"] > 0  # died mid-sweep, not at the start

        swept = cli(queue_dir, "sweep").stdout
        assert job_id in swept

        cli(queue_dir, "worker")
        final = status(queue_dir, job_id)
        assert final["state"] == "completed"
        assert final["retries"] == 1

        result = cli(queue_dir, "result", job_id).stdout
        assert result == execute_figure("fig9") + "\n"


def experiments_cli(*args, faults=None, check=True):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    result = subprocess.run(  # noqa: RL003 -- subprocess timeout is seconds by stdlib contract
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if check:
        assert result.returncode == 0, (result.stdout, result.stderr)
    return result


class TestViaJobsByteIdentity:
    def test_via_jobs_survives_a_mid_sweep_kill_byte_identical(self, queue_dir):
        """The soak acceptance scenario, end to end through the public
        CLI: ``--via-jobs`` fig9 with the worker killed mid-sweep, the
        orphan swept and re-run, and the final output byte-identical to
        a blocking run."""
        killed = experiments_cli(
            "fig9",
            "--via-jobs",
            queue_dir,
            faults="kill_run:after=10:limit=1",
            check=False,
        )
        assert killed.returncode == -9

        swept = cli(queue_dir, "sweep").stdout
        assert swept.strip()  # the orphaned figure job was requeued

        rerun = experiments_cli("fig9", "--via-jobs", queue_dir)
        assert rerun.stdout == execute_figure("fig9") + "\n\n"
