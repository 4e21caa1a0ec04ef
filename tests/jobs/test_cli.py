"""CLI tests: ``python -m repro.jobs`` drives a durable queue end to end.

Subprocess-based on purpose: the CLI is the cross-process interface, so
these tests exercise real process boundaries (submit in one process,
execute in another) against one queue directory.
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


def cli(queue_dir, *args, env_extra=None, check=True):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
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


class TestRoundTrip:
    def test_submit_worker_result(self, queue_dir):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        assert job_id

        status = json.loads(cli(queue_dir, "status", job_id).stdout)
        assert status["state"] == "pending"

        worker_out = cli(queue_dir, "worker").stdout
        assert "completed" in worker_out

        result = cli(queue_dir, "result", job_id).stdout
        assert result == execute_figure("fig2") + "\n"

    def test_watch_returns_when_terminal(self, queue_dir):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        cli(queue_dir, "worker")
        watch = cli(queue_dir, "watch", job_id, "--timeout-ms", "1000")
        assert "completed" in watch.stdout

    def test_cancel_pending_job(self, queue_dir):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        cancel = cli(queue_dir, "cancel", job_id)
        assert "cancelled" in cancel.stdout
        # A cancelled job yields no work.
        assert cli(queue_dir, "worker").stdout == ""

    def test_list_and_admin_stats(self, queue_dir):
        cli(queue_dir, "submit", "fig2")
        listing = cli(queue_dir, "list").stdout
        assert "pending" in listing and "fig2" in listing
        stats = json.loads(cli(queue_dir, "admin", "stats").stdout)
        assert stats["jobs"] == 1
        assert stats["states"]["pending"] == 1

    def test_engine_json_reaches_the_spec(self, queue_dir):
        job_id = cli(
            queue_dir, "submit", "fig2", "--engine-json", '{"on_error": "collect"}'
        ).stdout.strip()
        status = json.loads(cli(queue_dir, "status", job_id).stdout)
        assert status["spec"]["engine"]["on_error"] == "collect"
        # The queue's shared cache is still wired in.
        assert status["spec"]["engine"]["cache_dir"].endswith("cache")

    def test_result_of_pending_job_exits_nonzero(self, queue_dir):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        result = cli(queue_dir, "result", job_id, check=False)
        assert result.returncode == 3
        assert "pending" in result.stderr

    def test_unknown_job_exits_nonzero(self, queue_dir):
        result = cli(queue_dir, "status", "nope", check=False)
        assert result.returncode == 2


class TestBackendSelection:
    def test_sqlite_round_trip(self, queue_dir):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        assert (Path(queue_dir) / "jobs.sqlite3").exists()
        cli(queue_dir, "worker")
        result = cli(queue_dir, "result", job_id).stdout
        assert result == execute_figure("fig2") + "\n"

    def test_legacy_json_dir_queue_is_refused(self, queue_dir):
        legacy = Path(queue_dir) / "jobs"
        legacy.mkdir(parents=True)
        result = cli(queue_dir, "list", check=False)
        assert result.returncode == 2
        assert str(legacy) in result.stderr
        assert "previous release" in result.stderr
        assert not (Path(queue_dir) / "jobs.sqlite3").exists()


class TestQuarantineCommands:
    def test_quarantine_list_empty(self, queue_dir):
        cli(queue_dir, "submit", "fig2")
        assert cli(queue_dir, "admin", "quarantine-list").stdout == ""

    def test_release_requires_a_job_id(self, queue_dir):
        cli(queue_dir, "submit", "fig2")
        result = cli(queue_dir, "admin", "quarantine-release", check=False)
        assert result.returncode == 2
        assert "needs a job id" in result.stderr

    def test_release_of_non_quarantined_job_exits_nonzero(self, queue_dir):
        job_id = cli(queue_dir, "submit", "fig2").stdout.strip()
        result = cli(
            queue_dir, "admin", "quarantine-release", job_id, check=False
        )
        assert result.returncode == 4
        assert "illegal transition" in result.stderr
