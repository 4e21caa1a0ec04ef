"""The chaos soak: seeded kill/torn-write/skew storms must leave no scars.

Each soak iteration replays a randomized-but-deterministic interleaving
of submitters, workers, the sweeper and waking zombies against a real
on-disk repository (see :mod:`repro.jobs.soak`), auditing the safety
invariants after every action.  ``REPRO_SOAK_ITERATIONS`` scales the
iteration count (the CI ``jobs-soak`` job raises it to 240); the default
keeps the regular suite quick.

The via-jobs byte-identity leg lives with the other subprocess chaos
tests in ``test_chaos.py`` -- killing a worker needs a process to kill.
"""

from repro._env import repro_env
from repro.jobs.soak import SoakHarness, soak


def iterations(default: int = 8) -> int:
    raw = repro_env("REPRO_SOAK_ITERATIONS")
    return int(raw) if raw else default


class TestChaosSoak:
    def test_no_invariant_violated_under_chaos(self, tmp_path):
        report = soak(tmp_path, iterations=iterations(), seed=2006)
        assert report.violations == (), "\n".join(report.violations)
        # The run must have been an actual storm, not a calm pass.
        assert report.kills_injected > 0
        assert report.torn_writes > 0
        assert report.requeues > 0
        # Every job ends in exactly one terminal bucket.
        assert report.jobs_submitted == (
            report.completed
            + report.failed
            + report.cancelled
            + report.quarantined
        )

    def test_every_zombie_write_is_rejected(self, tmp_path):
        report = soak(tmp_path, iterations=iterations(), seed=77)
        assert report.violations == (), "\n".join(report.violations)
        assert report.zombie_writes_attempted > 0
        assert (
            report.zombie_writes_rejected == report.zombie_writes_attempted
        )


class TestDeterminism:
    def test_same_seed_same_report(self, tmp_path):
        a = soak(tmp_path / "a", iterations=4, seed=9)
        b = soak(tmp_path / "b", iterations=4, seed=9)
        assert a == b

    def test_summary_reads_ok_when_clean(self, tmp_path):
        report = soak(tmp_path, iterations=2, seed=1)
        assert "OK" in report.summary()
        assert "seed=1" in report.summary()


class TestHarnessIsNotVacuous:
    def test_broken_cas_is_detected(self, tmp_path, monkeypatch):
        """Sabotage the store's compare-and-swap; the soak must light up
        (accepted zombie writes, mutated terminal records, ...) rather
        than pass vacuously."""
        import json

        from repro.jobs.store import SqliteJobStore

        def last_writer_wins(self, job, expected_version):
            with self._lock, self._conn:
                self._conn.execute(
                    "UPDATE jobs SET version = version + 1, state = ?, "
                    "payload = ? WHERE job_id = ?",
                    (job.state, json.dumps(job.as_dict()), job.job_id),
                )

        monkeypatch.setattr(SqliteJobStore, "replace", last_writer_wins)
        report = soak(tmp_path, iterations=10, seed=42)
        assert report.violations
        assert any("zombie write accepted" in v for v in report.violations)


class TestHarnessKnobs:
    def test_kill_rate_zero_completes_everything(self, tmp_path):
        report = soak(
            tmp_path,
            iterations=3,
            seed=5,
            kill_rate=0.0,
            torn_write_rate=0.0,
            disk_full_rate=0.0,
        )
        assert report.violations == ()
        assert report.completed == report.jobs_submitted
        assert report.kills_injected == 0
        assert report.quarantined == 0

    def test_certain_death_quarantines_not_loops(self, tmp_path):
        """kill_rate=1: no attempt ever finishes, so every job must end
        QUARANTINED (the breaker trips before the retry budget cycles)."""
        report = soak(
            tmp_path,
            iterations=2,
            seed=3,
            kill_rate=1.0,
            torn_write_rate=0.0,
            disk_full_rate=0.0,
        )
        assert report.violations == ()
        assert report.quarantined == report.jobs_submitted
        assert report.completed == 0

    def test_harness_runs_directly(self, tmp_path):
        """SoakHarness is usable standalone for debugging one seed."""
        from repro.jobs.repository import JobRepository
        from repro.jobs.soak import _Tally

        tally = _Tally()
        harness = SoakHarness(JobRepository(), seed=123, tally=tally)
        harness.run()
        assert tally.jobs_submitted == 3
        assert tally.violations == []
