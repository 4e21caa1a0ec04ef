"""Self-tests of tools.reprolint against its seeded fixtures.

Every rule has a ``bad`` fixture with known violations and a corrected
``good`` twin that must be clean; the suite also exercises noqa
suppression, syntax-error reporting, the CLI exit codes, and -- the
acceptance criterion -- that the repo's own ``src`` and ``tests`` trees
lint clean.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import lint_file, lint_paths, lint_source, render
from tools.reprolint.baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
)
from tools.reprolint.core import iter_python_files
from tools.reprolint.project import Project

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tools" / "reprolint" / "fixtures"


def codes(violations):
    return [v.code for v in violations]


# ---------------------------------------------------------------------------
# Fixtures: every rule fires on its bad twin, stays quiet on its good twin.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("rl001", ["RL001", "RL001"]),
        ("rl002", ["RL002", "RL002"]),
        ("rl003", ["RL003", "RL003", "RL003"]),
        ("rl004", ["RL004", "RL004"]),
        ("rl005", ["RL005", "RL005"]),
        ("rl006", ["RL006", "RL006", "RL006"]),
        ("rl012", ["RL012", "RL012", "RL012"]),
        ("rl013", ["RL013", "RL013", "RL013"]),
        ("rl014", ["RL014", "RL014", "RL014"]),
        ("rl015", ["RL015", "RL015", "RL015"]),
        ("rl016", ["RL016", "RL016", "RL016", "RL016"]),
        ("rl017", ["RL017", "RL017", "RL017"]),
        ("rl018", ["RL018", "RL018", "RL018"]),
        ("rl019", ["RL019", "RL019"]),
        ("rl020", ["RL020", "RL020", "RL020", "RL020"]),
    ],
)
def test_bad_fixture_fires(name, expected):
    violations = lint_file(FIXTURES / f"{name}_bad.py")
    assert codes(violations) == expected


@pytest.mark.parametrize(
    "name",
    [
        "rl001",
        "rl002",
        "rl003",
        "rl004",
        "rl005",
        "rl006",
        "rl012",
        "rl013",
        "rl014",
        "rl015",
        "rl016",
        "rl017",
        "rl018",
        "rl019",
        "rl020",
    ],
)
def test_good_fixture_is_clean(name):
    assert lint_file(FIXTURES / f"{name}_good.py") == []


# The project-level rules (RL007-RL009) need the cross-file analyzer.


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("rl008", ["RL008", "RL008"]),
        ("rl009", ["RL009", "RL009"]),
    ],
)
def test_project_rule_bad_fixture_fires(name, expected):
    project = Project([FIXTURES / f"{name}_bad.py"])
    assert codes(project.lint()) == expected


@pytest.mark.parametrize("name", ["rl008", "rl009"])
def test_project_rule_good_fixture_is_clean(name):
    assert Project([FIXTURES / f"{name}_good.py"]).lint() == []


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("rl007_bad_pkg", ["RL007", "RL007"]),
        ("rl007_good_pkg", []),
    ],
)
def test_rl007_package_fixtures(name, expected):
    project = Project(
        [FIXTURES / name / "__init__.py"],
        root=REPO_ROOT,
        contract_packages=(f"tools.reprolint.fixtures.{name}",),
    )
    assert codes(project.lint()) == expected


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("rl011_bad_pkg", ["RL011", "RL011"]),
        ("rl011_good_pkg", []),
    ],
)
def test_rl011_package_fixtures(name, expected):
    # Explicit file paths: the linter's own fixtures dir is exempt from
    # directory discovery, just like the rl007 package fixtures above.
    project = Project(
        sorted((FIXTURES / name).glob("*.py")),
        root=REPO_ROOT,
        contract_packages=(),
        purity_packages=(f"tools.reprolint.fixtures.{name}",),
    )
    assert codes(project.lint()) == expected


def test_violations_carry_location_and_render():
    violations = lint_file(FIXTURES / "rl001_bad.py")
    first = violations[0]
    assert first.line == 11  # the plain self.rate assignment
    rendered = first.render()
    assert rendered.startswith(str(FIXTURES / "rl001_bad.py"))
    assert ":11:" in rendered
    assert "RL001" in rendered


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------


def test_bare_noqa_silences_line():
    source = "def f(timeout):  # noqa\n    return timeout\n"
    assert lint_source(source) == []


def test_coded_noqa_silences_matching_rule():
    source = "def f(timeout):  # noqa: RL003\n    return timeout\n"
    assert lint_source(source) == []


def test_coded_noqa_for_other_rule_does_not_silence():
    source = "def f(timeout):  # noqa: RL001\n    return timeout\n"
    assert codes(lint_source(source)) == ["RL003"]


def test_mixed_ruff_and_reprolint_codes():
    source = "def f(timeout):  # noqa: E501, RL003\n    return timeout\n"
    assert lint_source(source) == []


# ---------------------------------------------------------------------------
# Rule-specific edge cases (beyond the fixture twins)
# ---------------------------------------------------------------------------


def test_rl001_non_frozen_dataclass_is_quiet():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Mutable:\n"
        "    x: int = 0\n"
        "    def bump(self):\n"
        "        self.x += 1\n"
    )
    assert lint_source(source) == []


def test_rl002_plain_class_is_quiet():
    source = (
        "import numpy as np\n"
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self.a = np.zeros(3)\n"
    )
    assert lint_source(source) == []


def test_rl003_ms_suffix_is_quiet():
    assert lint_source("def f(timeout_ms):\n    return timeout_ms\n") == []


def test_rl003_flags_wrong_unit_suffix():
    assert codes(lint_source("def f(delay_sec):\n    return delay_sec\n")) == [
        "RL003"
    ]


def test_rl004_suppression_without_bg_metric_is_quiet():
    source = (
        "import numpy as np\n"
        "def safe_ratio(a, b):\n"
        "    with np.errstate(divide='ignore'):\n"
        "        return a / b\n"
    )
    assert lint_source(source) == []


def test_rl005_ignores_two_term_sums():
    source = (
        "def f(a0, a1):\n"
        "    return stationary_distribution(a0 + a1)\n"
    )
    assert lint_source(source) == []


def test_syntax_error_reports_rl000():
    violations = lint_source("def broken(:\n")
    assert codes(violations) == ["RL000"]


# ---------------------------------------------------------------------------
# Injected bugs in the real protocol modules (RL012-RL015)
# ---------------------------------------------------------------------------


def _real_source(rel: str) -> tuple[str, str]:
    path = REPO_ROOT / rel
    return path.read_text(encoding="utf-8"), str(path)


def test_injected_lifecycle_bypass_in_worker_is_caught_by_rl012():
    source, path = _real_source("src/repro/jobs/worker.py")
    assert [v for v in lint_source(source, path) if v.code == "RL012"] == []
    mutated = source + (
        "\n\ndef _force_done(record, now_ms):\n"
        "    return dataclasses.replace(\n"
        "        record, state=COMPLETED, finished_ms=now_ms\n"
        "    )\n"
    )
    assert "RL012" in codes(lint_source(mutated, path))


def test_injected_transition_outside_table_is_caught_by_rl012():
    source, path = _real_source("src/repro/jobs/lifecycle.py")
    assert [v for v in lint_source(source, path) if v.code == "RL012"] == []
    mutated = source + (
        "\n\nARCHIVED = \"archived\"\n"
        "\n\ndef archive(job, now_ms):\n"
        "    return job._to(ARCHIVED, now_ms)\n"
    )
    assert "RL012" in codes(lint_source(mutated, path))


def test_injected_torn_write_in_store_is_caught_by_rl013():
    """Dropping the run manifest's os.replace leaves it written in place
    -- RL013(a) must fire."""
    source, path = _real_source("src/repro/experiments/manifest.py")
    assert [v for v in lint_source(source, path) if v.code == "RL013"] == []
    mutated = source.replace("        os.replace(tmp, self.path)\n", "")
    assert mutated != source
    rl013 = [v for v in lint_source(mutated, path) if v.code == "RL013"]
    assert rl013 and "atomic-write idiom" in rl013[0].message


def test_injected_autocommit_mutation_in_sqlite_store_is_caught_by_rl013():
    """Stripping the connection from the transaction context leaves the
    mutating statements in autocommit mode -- RL013(b) must fire."""
    source, path = _real_source("src/repro/jobs/store.py")
    assert [v for v in lint_source(source, path) if v.code == "RL013"] == []
    mutated = source.replace(
        "with self._lock, self._conn:", "with self._lock:"
    )
    assert mutated != source
    rl013 = [v for v in lint_source(mutated, path) if v.code == "RL013"]
    assert rl013 and "autocommit" in rl013[0].message


def test_injected_swallowed_contract_violation_is_caught_by_rl014():
    source, path = _real_source("src/repro/engine/resilience.py")
    assert [v for v in lint_source(source, path) if v.code == "RL014"] == []
    mutated = source + (
        "\n\ndef _swallow(thunk):\n"
        "    try:\n"
        "        return thunk()\n"
        "    except ContractViolation:\n"
        "        return None\n"
    )
    assert "RL014" in codes(lint_source(mutated, path))


def test_injected_laundered_cancellation_is_caught_by_rl014():
    source, path = _real_source("src/repro/jobs/worker.py")
    mutated = source + (
        "\n\ndef _swallow_cancel(thunk, index):\n"
        "    try:\n"
        "        return thunk()\n"
        "    except SweepCancelled as exc:\n"
        "        return FailedSolve(index=index, error=str(exc))\n"
    )
    assert "RL014" in codes(lint_source(mutated, path))


def test_injected_env_backdoor_is_caught_by_rl015():
    source, path = _real_source("src/repro/jobs/worker.py")
    assert [v for v in lint_source(source, path) if v.code == "RL015"] == []
    mutated = source + (
        "\n\ndef _debug_tag():\n"
        "    return os.environ.get(\"REPRO_JOBS_DEBUG\", \"\")\n"
    )
    assert "RL015" in codes(lint_source(mutated, path))


# ---------------------------------------------------------------------------
# Discovery and the repo-wide acceptance criterion
# ---------------------------------------------------------------------------


def test_iter_python_files_skips_fixture_dirs():
    found = list(iter_python_files([REPO_ROOT / "tools"]))
    assert all("fixtures" not in p.parts for p in found)
    assert any(p.name == "rules.py" for p in found)


def test_explicit_fixture_path_is_still_linted():
    assert lint_paths([FIXTURES / "rl003_bad.py"]) != []


def test_non_reprolint_fixtures_dir_is_linted(tmp_path):
    # Only the linter's own seeded fixtures are exempt; a user-code
    # tests/fixtures directory must still be discovered.
    user_fixtures = tmp_path / "tests" / "fixtures"
    user_fixtures.mkdir(parents=True)
    (user_fixtures / "sample.py").write_text(
        "def f(timeout):\n    return timeout\n", encoding="utf-8"
    )
    seeded = tmp_path / "tools" / "reprolint" / "fixtures"
    seeded.mkdir(parents=True)
    (seeded / "seeded.py").write_text(
        "def f(timeout):\n    return timeout\n", encoding="utf-8"
    )
    found = list(iter_python_files([tmp_path]))
    assert user_fixtures / "sample.py" in found
    assert seeded / "seeded.py" not in found
    assert codes(lint_paths([tmp_path])) == ["RL003"]


def test_repo_is_clean_modulo_committed_baseline(monkeypatch):
    # Relative paths so violation paths match the committed baseline keys.
    monkeypatch.chdir(REPO_ROOT)
    violations = lint_paths(
        [Path("src"), Path("tests"), Path("benchmarks"), Path("examples"), Path("tools")]
    )
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE_NAME)
    kept, _ = apply_baseline(violations, baseline)
    assert kept == [], render(kept)


def test_committed_baseline_is_rl007_only():
    # The accepted debt is contract coverage; anything else must be fixed,
    # not baselined.
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE_NAME)
    assert baseline, "committed baseline missing or unreadable"
    assert {code for by_code in baseline.values() for code in by_code} == {"RL007"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,  # noqa: RL003 -- subprocess API, seconds by contract
    )


def test_cli_exits_zero_on_clean_tree():
    result = run_cli("src", "tests")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 violations" in result.stdout


def test_cli_exits_one_on_violations():
    result = run_cli(str(FIXTURES / "rl001_bad.py"))
    assert result.returncode == 1
    assert "RL001" in result.stdout


def test_cli_exits_two_on_missing_path():
    result = run_cli("no/such/dir")
    assert result.returncode == 2
    assert "no such path" in result.stderr


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for number in range(1, 21):
        # Rule 10 (deprecated sweep calls) was retired; numbers are not reused.
        assert (f"RL{number:03d}" in result.stdout) == (number != 10)


def test_cli_explain_prints_rationale_example_and_fix():
    result = run_cli("--explain", "rl016")
    assert result.returncode == 0
    out = result.stdout
    assert "RL016" in out
    for section in ("Why", "Example", "Fix"):
        assert section in out, out


def test_cli_explain_unknown_rule_exits_two():
    result = run_cli("--explain", "RL999")
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


def test_cli_no_baseline_surfaces_accepted_debt():
    result = run_cli("--no-baseline", "src", "tests")
    assert result.returncode == 1
    assert "RL007" in result.stdout


def test_cli_applies_committed_baseline_by_default():
    result = run_cli("src", "tests")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "baselined violation(s) not shown" in result.stdout
