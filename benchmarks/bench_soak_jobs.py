"""Scale run of the job-queue chaos soak, with its report on record.

The unit suite (``tests/jobs/test_soak.py``) keeps its iteration count
small; this driver is the "hundreds of seeded iterations" form: it
storms the job store with worker kills, torn writes, full disks and
clock skew, asserts that *no* safety invariant was violated across the
whole run, and writes the tallies to ``BENCH_soak.json`` at the
repository root so regressions in recovery behaviour (more quarantines,
fewer rejected zombie writes) are visible in review diffs.

``REPRO_SOAK_ITERATIONS`` overrides the iteration count (default 240,
which is what the CI ``jobs-soak`` job runs).
"""

import json
from pathlib import Path

from repro._env import repro_env
from repro.jobs.soak import soak

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_soak.json"


def iterations(default: int = 240) -> int:
    raw = repro_env("REPRO_SOAK_ITERATIONS")
    return int(raw) if raw else default


def bench_soak(benchmark, tmp_path):
    count = iterations()

    def storm():
        return soak(tmp_path, iterations=count, seed=2006)

    report = benchmark.pedantic(storm, rounds=1, iterations=1)

    assert report.violations == (), "\n".join(report.violations)
    assert report.kills_injected > 0
    assert report.torn_writes > 0
    assert report.zombie_writes_rejected == report.zombie_writes_attempted
    assert report.jobs_submitted == (
        report.completed + report.failed + report.cancelled + report.quarantined
    )

    OUTPUT.write_text(
        json.dumps(
            {
                "iterations": count,
                "report": {
                    "summary": report.summary(),
                    "jobs_submitted": report.jobs_submitted,
                    "completed": report.completed,
                    "failed": report.failed,
                    "cancelled": report.cancelled,
                    "quarantined": report.quarantined,
                    "kills_injected": report.kills_injected,
                    "torn_writes": report.torn_writes,
                    "disk_fulls": report.disk_fulls,
                    "sweeps": report.sweeps,
                    "requeues": report.requeues,
                    "zombie_writes_attempted": report.zombie_writes_attempted,
                    "zombie_writes_rejected": report.zombie_writes_rejected,
                    "releases": report.releases,
                    "violations": len(report.violations),
                },
            },
            indent=2,
        )
        + "\n"
    )
