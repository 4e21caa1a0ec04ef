"""Autofix tests: stale-noqa surgery, RL015 rewrite, idempotence, behavior."""

from __future__ import annotations

from pathlib import Path

from tools.reprolint.fix import fix_paths, fixable
from tools.reprolint.project import Project


def codes(violations):
    return [v.code for v in violations]


def write(tmp_path: Path, name: str, source: str) -> Path:
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# Stale-noqa surgery (RL009)
# ---------------------------------------------------------------------------


def test_fully_stale_comment_is_removed(tmp_path):
    target = write(
        tmp_path, "mod.py", "x = 1  # noqa: RL005 -- stale reason\ny = 2\n"
    )
    outcome = fix_paths([target], root=tmp_path)
    assert outcome.fixes == {str(target): 1}
    assert target.read_text(encoding="utf-8") == "x = 1\ny = 2\n"


def test_partially_stale_comment_keeps_live_codes_and_reason(tmp_path):
    target = write(
        tmp_path,
        "mod.py",
        "def f(timeout):  # noqa: RL003, RL005 -- timeout is seconds here\n"
        "    return timeout\n",
    )
    fix_paths([target], root=tmp_path)
    first_line = target.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == (
        "def f(timeout):  # noqa: RL003 -- timeout is seconds here"
    )


def test_non_rl_codes_survive_surgery(tmp_path):
    target = write(
        tmp_path, "mod.py", "import os  # noqa: F401, RL005 -- keep F401\n"
    )
    fix_paths([target], root=tmp_path)
    assert (
        target.read_text(encoding="utf-8")
        == "import os  # noqa: F401 -- keep F401\n"
    )


def test_missing_reason_is_not_autofixed(tmp_path):
    source = "def f(timeout):  # noqa: RL003\n    return timeout\n"
    target = write(tmp_path, "mod.py", source)
    outcome = fix_paths([target], root=tmp_path)
    assert outcome.fixes == {}
    assert target.read_text(encoding="utf-8") == source
    violations = Project([target], root=tmp_path).lint()
    assert codes(violations) == ["RL009"]
    assert not any(fixable(v) for v in violations)


def test_fix_is_idempotent(tmp_path):
    write(tmp_path, "noqa_mod.py", "x = 1  # noqa: RL005 -- stale\n")
    write(tmp_path, "clean.py", "y = 2\n")
    first = fix_paths([tmp_path], root=tmp_path)
    assert first.total == 1
    snapshot = {
        p.name: p.read_text(encoding="utf-8") for p in tmp_path.glob("*.py")
    }
    second = fix_paths([tmp_path], root=tmp_path)
    assert second.total == 0
    assert snapshot == {
        p.name: p.read_text(encoding="utf-8") for p in tmp_path.glob("*.py")
    }


# ---------------------------------------------------------------------------
# RL015: rewriting literal env reads to the repro._env accessors
# ---------------------------------------------------------------------------

ENVY = """\
import os

_ENV_SHARDS = "REPRO_SWEEP_SHARDS"


def shard_count():
    return int(os.environ.get(_ENV_SHARDS, "1"))


def worker_tag():
    return os.getenv("REPRO_WORKER_TAG", "")


def queue_root():
    return os.environ["REPRO_QUEUE_ROOT"]
"""


def load_module(target: Path) -> dict:
    namespace: dict = {}
    source = target.read_text(encoding="utf-8")
    exec(compile(source, str(target), "exec"), namespace)
    return namespace


def test_rl015_reads_are_rewritten_to_accessors(tmp_path):
    target = write(tmp_path, "mod.py", ENVY)
    outcome = fix_paths([target], root=tmp_path)
    assert outcome.fixes == {str(target): 3}
    fixed = target.read_text(encoding="utf-8")
    assert "from repro._env import repro_env, repro_env_required" in fixed
    assert 'repro_env(_ENV_SHARDS, "1")' in fixed
    assert 'repro_env("REPRO_WORKER_TAG", "")' in fixed
    assert 'repro_env_required("REPRO_QUEUE_ROOT")' in fixed
    assert "os.environ" not in fixed.replace("import os", "")
    assert Project([target], root=tmp_path).lint() == []


def test_rl015_rewrite_preserves_behavior(tmp_path, monkeypatch):
    import pytest

    target = write(tmp_path, "mod.py", ENVY)
    fix_paths([target], root=tmp_path)
    module = load_module(target)

    monkeypatch.setenv("REPRO_SWEEP_SHARDS", "7")
    monkeypatch.setenv("REPRO_WORKER_TAG", "w-3")
    monkeypatch.setenv("REPRO_QUEUE_ROOT", "/tmp/q")
    assert module["shard_count"]() == 7
    assert module["worker_tag"]() == "w-3"
    assert module["queue_root"]() == "/tmp/q"

    monkeypatch.delenv("REPRO_SWEEP_SHARDS")
    monkeypatch.delenv("REPRO_QUEUE_ROOT")
    assert module["shard_count"]() == 1  # default survives the rewrite
    with pytest.raises(KeyError):
        module["queue_root"]()  # required read still raises


def test_rl015_accessor_module_itself_is_not_rewritten(tmp_path):
    accessor = tmp_path / "repro" / "_env.py"
    accessor.parent.mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("", encoding="utf-8")
    source = (
        "import os\n"
        "\n"
        "def repro_env(name, default=None):\n"
        "    return os.environ.get(name, default)\n"
    )
    accessor.write_text(source, encoding="utf-8")
    outcome = fix_paths([tmp_path / "repro"], root=tmp_path)
    assert outcome.fixes == {}
    assert accessor.read_text(encoding="utf-8") == source


def test_rl015_waived_read_is_not_rewritten(tmp_path):
    source = (
        "import os\n"
        "\n"
        "def tag():\n"
        "    return os.getenv('REPRO_TAG')"
        "  # noqa: RL015 -- bootstrap read before repro imports\n"
    )
    target = write(tmp_path, "mod.py", source)
    outcome = fix_paths([target], root=tmp_path)
    assert outcome.fixes == {}
    assert target.read_text(encoding="utf-8") == source


def test_new_fixes_are_idempotent(tmp_path):
    write(tmp_path, "envy.py", ENVY)
    first = fix_paths([tmp_path], root=tmp_path)
    assert first.total == 3
    snapshot = {
        p.name: p.read_text(encoding="utf-8") for p in tmp_path.glob("*.py")
    }
    second = fix_paths([tmp_path], root=tmp_path)
    assert second.total == 0
    assert snapshot == {
        p.name: p.read_text(encoding="utf-8") for p in tmp_path.glob("*.py")
    }
