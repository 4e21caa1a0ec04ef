"""Crash-safe resume and CLI resilience flags, end to end.

The acceptance test of the resilience work: a run SIGKILLed mid-sweep by
the ``kill_run`` fault, resumed with ``--resume``, must print output
byte-identical to an uninterrupted run.  The kill arrives *inside* the
solve loop (after a cache put), so resuming exercises both layers: the
manifest replays completed figures verbatim, and the solve cache lets the
interrupted figure pick up mid-sweep.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.experiments.manifest import MANIFEST_NAME, MANIFEST_VERSION, RunManifest
from repro.experiments.runner import main

#: A manifest as the previous format wrote it: a config dict recording the
#: removed reduced-sample option, and a stored fig1 made under it.
STALE_FIG1 = "fig1 rendered from 20000 samples"
PARENT_FORMAT_MANIFEST = {
    "version": 1,
    "config": {"fast": True},
    "figures": {"fig1": STALE_FIG1},
}


def run_cli(args, env_faults=None, cwd=None):
    """Run ``python -m repro.experiments`` in a subprocess."""
    env = dict(os.environ)
    env.pop(faults.ENV_FAULTS, None)
    if env_faults is not None:
        env[faults.ENV_FAULTS] = env_faults
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=600,  # noqa: RL003 -- subprocess.run timeout is seconds by stdlib contract
    )


class TestKillAndResume:
    def test_killed_run_resumes_byte_identical(self, tmp_path):
        reference = run_cli(["fig9", "--cache", str(tmp_path / "ref")])
        assert reference.returncode == 0

        cache_dir = str(tmp_path / "killed")
        # SIGKILL the run after 25 cache puts -- mid-way through the
        # 44-point email-trace idle-wait sweep of fig9.
        killed = run_cli(
            ["fig9", "--cache", cache_dir],
            env_faults="kill_run:after=25:limit=1",
        )
        assert killed.returncode == -9
        partial = [
            f for f in os.listdir(cache_dir) if f.endswith(".pkl")
        ]
        assert 0 < len(partial) < 44

        resumed = run_cli(["fig9", "--cache", cache_dir, "--resume"])
        assert resumed.returncode == 0
        assert resumed.stdout == reference.stdout

    def test_resume_replays_completed_figures_verbatim(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_cli(["fig9", "--cache", cache_dir])
        assert first.returncode == 0
        manifest = RunManifest.in_cache_dir(cache_dir)
        assert manifest.figures == ("fig9",)
        again = run_cli(["fig9", "--cache", cache_dir, "--resume"])
        assert again.returncode == 0
        assert again.stdout == first.stdout

    def test_resume_requires_disk_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig9", "--resume"])
        assert "--cache DIR" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fig9", "--resume", "--cache"])


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest.in_cache_dir(tmp_path)
        assert manifest.completed("fig9") is None
        manifest.record("fig9", "rendered text\n")
        reloaded = RunManifest.in_cache_dir(tmp_path)
        assert reloaded.completed("fig9") == "rendered text\n"

    def test_record_carries_format_number(self, tmp_path):
        RunManifest.in_cache_dir(tmp_path).record("fig9", "text\n")
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert payload == {"version": MANIFEST_VERSION, "figures": {"fig9": "text\n"}}

    def test_other_format_starts_fresh(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(PARENT_FORMAT_MANIFEST))
        assert RunManifest.in_cache_dir(tmp_path).figures == ()

    def test_parent_format_fig1_not_replayed(self, tmp_path, capsys):
        # A manifest of the previous format, recorded under the removed
        # reduced-sample option: its fig1 text must not come back.
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(PARENT_FORMAT_MANIFEST))
        assert main(["fig1", "--cache", str(tmp_path), "--resume"]) == 0
        out = capsys.readouterr().out
        assert STALE_FIG1 not in out
        assert "200000 synthetic inter-arrivals" in out
        assert RunManifest.in_cache_dir(tmp_path).completed("fig1") + "\n\n" == out

    def test_torn_manifest_is_ignored(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"version": 1, "fig')
        manifest = RunManifest.in_cache_dir(tmp_path)
        assert manifest.figures == ()


class TestKeepGoing:
    def test_failing_figure_reported_and_run_continues(
        self, monkeypatch, capsys
    ):
        # Every boundary solve fails -> fig9 raises; --keep-going reports
        # it, still runs fig2 (no QBD solves), and exits nonzero.
        monkeypatch.setenv(faults.ENV_FAULTS, "singular_boundary")
        faults.reset()
        code = main(["fig9", "fig2", "--keep-going"])
        monkeypatch.delenv(faults.ENV_FAULTS)
        faults.reset()
        assert code == 1
        captured = capsys.readouterr()
        assert "FIGURE fig9 FAILED" in captured.err
        assert "LinAlgError" in captured.err
        assert "fig2" in captured.out
        assert "fig9" not in captured.out

    def test_without_keep_going_failure_propagates(self, monkeypatch):
        import numpy as np

        monkeypatch.setenv(faults.ENV_FAULTS, "singular_boundary:limit=1")
        faults.reset()
        try:
            with pytest.raises(np.linalg.LinAlgError):
                main(["fig9"])
        finally:
            monkeypatch.delenv(faults.ENV_FAULTS)
            faults.reset()

    def test_keep_going_with_collect_renders_nan_and_succeeds(self, capsys):
        # on_error=collect turns the injected failure into a NaN point
        # instead of a figure failure: exit code 0, sweep completes.
        with faults.inject("singular_boundary:after=2:limit=1"):
            code = main(["fig9", "--on-error", "collect", "--keep-going"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "nan" in out
