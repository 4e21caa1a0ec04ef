"""Mechanical fixes: RL009 noqa surgery, RL015 rewrites.

``fix_paths`` runs the project analysis, applies every mechanical fix,
and re-lints until nothing fixable remains -- so a second invocation is
always a no-op (idempotence is guaranteed by construction, and the CLI
asserts it).  Two fix classes exist, both behavior-preserving:

* **stale noqa codes** (RL009) are removed from their comment (the whole
  comment goes when no codes remain and nothing else was suppressed);
  missing-``-- reason`` findings are *not* auto-fixed -- a tool cannot
  write the reason;
* **literal REPRO_* env reads** (RL015: ``os.environ[...]``,
  ``os.environ.get``, ``os.getenv``) are rewritten to the designated
  accessors ``repro_env`` / ``repro_env_required`` from ``repro._env``,
  which delegate to the exact same ``os.environ`` operations; the
  import is added when missing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from tools.reprolint import rules
from tools.reprolint.core import NoqaComment, Violation, noqa_map
from tools.reprolint.project import Project

__all__ = ["FixOutcome", "fix_paths", "fixable"]

_MAX_PASSES = 4


def fixable(violation: Violation) -> bool:
    """True when ``--fix`` can mechanically resolve this violation."""
    return violation.code == "RL015" or (
        violation.code == "RL009" and "stale" in violation.message
    )


@dataclass
class FixOutcome:
    """What one ``--fix`` run did."""

    passes: int = 0
    #: path -> number of individual fixes applied there.
    fixes: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.fixes.values())


# ---------------------------------------------------------------------------
# RL009: noqa comment surgery
# ---------------------------------------------------------------------------


def _stale_noqa_codes(
    project: Project, path: str
) -> dict[int, tuple[NoqaComment, list[str]]]:
    """Per line: the noqa comment and its provably stale RL codes."""
    raw = project.raw_violations().get(path, [])
    anchored: dict[int, set[str]] = {}
    for violation in raw:
        if violation.code == "RL009":
            continue  # the audit itself does not anchor suppressions
        for line in (violation.line, *violation.extra_noqa_lines):
            anchored.setdefault(line, set()).add(violation.code)
    analysis = project.files.get(path)
    if analysis is None:
        return {}
    out: dict[int, tuple[NoqaComment, list[str]]] = {}
    for comment in analysis.noqa.values():
        rl_codes = comment.rl_codes
        if not rl_codes or "RL009" in rl_codes:
            continue  # opted out of the audit on this line
        present = anchored.get(comment.line, set())
        stale = [code for code in rl_codes if code not in present]
        if stale:
            out[comment.line] = (comment, stale)
    return out


def _rewrite_noqa_line(line: str, comment: NoqaComment, stale: list[str]) -> str:
    assert comment.codes is not None
    keep = [code for code in comment.codes if code not in stale]
    head = line[: comment.col].rstrip()
    if not keep:
        return head
    tail = line[comment.end_col :]
    reason = ""
    if comment.has_reason:
        trailer = line[comment.col : comment.end_col]
        marker = trailer.find("--")
        if marker != -1:
            reason = " " + trailer[marker:].rstrip()
    rebuilt = f"# noqa: {', '.join(keep)}{reason}"
    spacer = "  " if head else ""
    return f"{head}{spacer}{rebuilt}{tail.rstrip()}"


def _apply_noqa_fixes(
    source: str, stale_map: dict[int, tuple[NoqaComment, list[str]]]
) -> tuple[str, int]:
    if not stale_map:
        return source, 0
    lines = source.splitlines(keepends=True)
    applied = 0
    for line_number, (comment, stale) in stale_map.items():
        index = line_number - 1
        if not 0 <= index < len(lines):
            continue
        text = lines[index]
        ending = "\n" if text.endswith("\n") else ""
        rewritten = _rewrite_noqa_line(text.rstrip("\n"), comment, stale)
        lines[index] = rewritten.rstrip() + ending if rewritten.strip() else ending
        applied += len(stale)
    return "".join(lines), applied


# ---------------------------------------------------------------------------
# Source-editing helpers
# ---------------------------------------------------------------------------


def _offsets(source: str) -> list[int]:
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _abs_offset(starts: list[int], line: int, col: int) -> int:
    return starts[line - 1] + col


def _bound_names(tree: ast.Module) -> set[str]:
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".", maxsplit=1)[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


def _ensure_imports(source: str, path: str, needed: set[str]) -> str:
    if not needed:
        return source
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return source
    env_names = [
        name
        for name in ("repro_env", "repro_env_required")
        if name in needed - _bound_names(tree)
    ]
    if not env_names:
        return source
    insertion = f"from repro._env import {', '.join(env_names)}\n"
    last_import_end = 0
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            last_import_end = stmt.end_lineno or stmt.lineno
    source_lines = source.splitlines(keepends=True)
    if last_import_end == 0:
        # No imports yet: insert after a module docstring if present.
        docstring_end = 0
        if (
            tree.body
            and isinstance(tree.body[0], ast.Expr)
            and isinstance(tree.body[0].value, ast.Constant)
            and isinstance(tree.body[0].value.value, str)
        ):
            docstring_end = tree.body[0].end_lineno or 0
        prefix = "".join(source_lines[:docstring_end])
        suffix = "".join(source_lines[docstring_end:])
        separator = "\n" if docstring_end else ""
        return f"{prefix}{separator}{insertion}{suffix}"
    prefix = "".join(source_lines[:last_import_end])
    suffix = "".join(source_lines[last_import_end:])
    return f"{prefix}{insertion}{suffix}"


# ---------------------------------------------------------------------------
# RL015: rewrite literal env reads to the repro._env accessors
# ---------------------------------------------------------------------------


def _rewrite_env_reads(source: str, path: str) -> tuple[str, int]:
    normalized = str(path).replace("\\", "/")
    if any(
        normalized.endswith(suffix) for suffix in rules.ENV_ACCESSOR_MODULES
    ):
        return source, 0
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return source, 0
    comments = noqa_map(source)
    constants = rules._module_env_constants(tree)
    starts = _offsets(source)
    edits: list[tuple[int, int, str]] = []
    needed: set[str] = set()

    def key_source(expr: ast.expr | None) -> str | None:
        if (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, str)
            and expr.value.startswith("REPRO_")
        ):
            return ast.get_source_segment(source, expr)
        if isinstance(expr, ast.Name) and expr.id in constants:
            return expr.id
        return None

    for node in ast.walk(tree):
        replacement: str | None = None
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and rules._is_environ_expr(node.value)
        ):
            key = key_source(node.slice)
            if key is not None:
                replacement = f"repro_env_required({key})"
                needed.add("repro_env_required")
        elif isinstance(node, ast.Call):
            fn = node.func
            is_env_get = (
                (isinstance(fn, ast.Name) and fn.id == "getenv")
                or (
                    isinstance(fn, ast.Attribute)
                    and fn.attr == "getenv"
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == "os"
                )
                or (
                    isinstance(fn, ast.Attribute)
                    and fn.attr == "get"
                    and rules._is_environ_expr(fn.value)
                )
            )
            if is_env_get and node.args and len(node.args) <= 2 and not node.keywords:
                key = key_source(node.args[0])
                if key is not None:
                    default = (
                        ast.get_source_segment(source, node.args[1])
                        if len(node.args) == 2
                        else None
                    )
                    arguments = key if default is None else f"{key}, {default}"
                    replacement = f"repro_env({arguments})"
                    needed.add("repro_env")
        if replacement is None:
            continue
        comment = comments.get(node.lineno)
        if comment is not None and comment.suppresses("RL015"):
            continue
        begin = _abs_offset(starts, node.lineno, node.col_offset)
        end = _abs_offset(
            starts, node.end_lineno or node.lineno, node.end_col_offset or 0
        )
        edits.append((begin, end, replacement))
    if not edits:
        return source, 0
    edits.sort()
    pruned: list[tuple[int, int, str]] = []
    last_end = -1
    for begin, end, replacement in edits:
        if begin < last_end:
            continue  # nested inside an outer rewrite: the outer one wins
        pruned.append((begin, end, replacement))
        last_end = end
    for begin, end, replacement in sorted(pruned, reverse=True):
        source = source[:begin] + replacement + source[end:]
    source = _ensure_imports(source, path, needed)
    return source, len(pruned)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def fix_paths(
    paths: list[Path],
    *,
    root: Path | None = None,
    jobs: int = 1,
) -> FixOutcome:
    """Apply every mechanical fix under ``paths`` until none remain."""
    outcome = FixOutcome()
    for _ in range(_MAX_PASSES):
        project = Project(paths, root=root, jobs=jobs)
        project.analyze()
        changed = False
        for path in sorted(project.files):
            source = Path(path).read_text(encoding="utf-8")
            new_source, n_noqa = _apply_noqa_fixes(
                source, _stale_noqa_codes(project, path)
            )
            new_source, n_env = _rewrite_env_reads(new_source, path)
            if new_source != source:
                Path(path).write_text(new_source, encoding="utf-8")
                outcome.fixes[path] = outcome.fixes.get(path, 0) + n_noqa + n_env
                changed = True
        outcome.passes += 1
        if not changed:
            break
    return outcome
