"""Tests for the CLI runner."""

import argparse

import pytest

from repro.engine import EngineConfig
from repro.experiments.runner import build_config, execute_figure, main


class TestRunner:
    def test_runs_single_figure(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "E-mail" in out

    def test_removed_fast_flag_errors(self, capsys):
        # fig1 samples its full traces in well under a second, so the
        # reduced-sample option is gone; argparse rejects it.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--fast"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err

    def test_unknown_figure_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
        assert "unknown figure" in capsys.readouterr().err

    def test_multiple_figures(self, capsys):
        assert main(["fig2", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig9" in out


class TestEngineFlags:
    def test_batched_output_identical_to_serial(self, capsys):
        assert main(["fig9"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig9", "--batched"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_flag_in_memory(self, capsys):
        assert main(["fig9", "fig9", "--cache"]) == 0
        assert "fig9" in capsys.readouterr().out

    def test_cache_flag_with_directory(self, tmp_path, capsys):
        cache_dir = tmp_path / "solves"
        assert main(["fig9", "--cache", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert any(cache_dir.iterdir())
        # A second run is served from disk and renders identically.
        assert main(["fig9", "--cache", str(cache_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_removed_jobs_flag_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig9", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_engine_flags_ignored_for_table_figures(self, capsys):
        # fig2 takes no engine; the flags must not break it.
        assert main(["fig2", "--batched", "--cache"]) == 0
        assert "fig2" in capsys.readouterr().out


def parsed(*flags) -> argparse.Namespace:
    """A parsed namespace with the runner's engine-flag defaults."""
    defaults = dict(
        cache=None,
        batched=False,
        on_error="raise",
        escalate=False,
    )
    namespace = argparse.Namespace(**defaults)
    for key, value in flags:
        setattr(namespace, key, value)
    return namespace


class TestBuildConfig:
    def test_all_defaults_is_none(self):
        # None keeps figures on the historical no-engine path.
        assert build_config(parsed()) is None

    def test_any_flag_builds_a_config(self):
        config = build_config(parsed(("batched", True)))
        assert config == EngineConfig(batched=True)

    def test_memory_cache_spelling(self):
        config = build_config(parsed(("cache", "")))
        assert config.cache_memory and config.cache_dir is None

    def test_disk_cache_spelling(self, tmp_path):
        config = build_config(parsed(("cache", str(tmp_path))))
        assert config.cache_dir == str(tmp_path) and not config.cache_memory


class TestExecuteFigure:
    def test_matches_the_cli_output(self, capsys):
        rendered = execute_figure("fig2")
        assert main(["fig2"]) == 0
        assert capsys.readouterr().out == rendered + "\n\n"

    def test_engine_reaches_sweep_figures(self):
        config = EngineConfig(cache_memory=True)
        engine = config.build_engine()
        rendered = execute_figure("fig9", engine=engine)
        assert rendered == execute_figure("fig9")
        assert engine.stats.solves > 0


class TestViaJobs:
    def test_output_identical_to_blocking_run(self, tmp_path, capsys):
        assert main(["fig2"]) == 0
        blocking = capsys.readouterr().out
        assert main(["fig2", "--via-jobs", str(tmp_path / "q")]) == 0
        assert capsys.readouterr().out == blocking

    def test_completed_jobs_are_replayed(self, tmp_path, capsys):
        queue = str(tmp_path / "q")
        assert main(["fig2", "--via-jobs", queue]) == 0
        first = capsys.readouterr().out
        assert main(["fig2", "--via-jobs", queue]) == 0
        assert capsys.readouterr().out == first
        # The rerun reused the COMPLETED job instead of submitting a new one.
        from repro.jobs import open_repository

        assert len(open_repository(queue).list_jobs()) == 1

    def test_via_jobs_rejects_resume(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--via-jobs", str(tmp_path), "--resume"])
        assert "--via-jobs" in capsys.readouterr().err
