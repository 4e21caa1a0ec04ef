"""Core machinery of reprolint: file discovery, noqa handling, reporting.

reprolint is a repo-specific static analyzer for invariants a generic
linter cannot know: frozen-model mutation discipline, read-only numpy
storage, millisecond units, the deliberate-NaN policy around
``bg_completion_rate``, the SCC-aware stationary solve of reducible
phase processes, and -- project-wide -- the soundness of construction
certificates, contract coverage of public entry points and unit flow
across call sites.

Per-file rules live in :mod:`tools.reprolint.rules`; the project-level
analysis (cross-file symbol table, call graph, dataflow-backed rules and
the result cache) lives in :mod:`tools.reprolint.project`.

Suppression: a violation is dropped when its source line (or one of the
logical-line anchors the rule attaches, e.g. the ``def`` line of a
multi-line signature) carries a ``# noqa`` comment, either bare or
naming the rule (``# noqa: RL003`` -- comma-separated lists, lowercase
codes and mixed ruff/reprolint codes are fine, unknown codes are
ignored).  CLAUDE.md mandates a trailing ``-- reason`` on reprolint
suppressions; RL009 audits both stale suppressions and missing reasons.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "NoqaComment",
    "Violation",
    "find_noqa",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "noqa_map",
    "raw_lint_source",
    "render",
    "suppressed",
]

#: Directory parts never descended into during discovery.
EXCLUDED_PARTS = {"__pycache__", ".git", ".hypothesis"}

#: The linter's own seeded-violation fixtures: a ``fixtures`` directory
#: is skipped only when it sits directly under ``reprolint`` (a plain
#: ``tests/fixtures`` of user code must still be linted).
_FIXTURE_PARENT = "reprolint"

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
_RL_CODE = re.compile(r"^RL\d{3}$")


@dataclass(frozen=True)
class NoqaComment:
    """One parsed ``# noqa`` comment on a physical source line."""

    line: int
    #: Column of the ``#`` that opens the comment.
    col: int
    #: End column of the full noqa comment (codes and reason included).
    end_col: int
    #: None for a bare ``# noqa``; uppercased codes otherwise.
    codes: tuple[str, ...] | None
    #: True when a ``-- reason`` trailer follows the codes.
    has_reason: bool

    @property
    def rl_codes(self) -> tuple[str, ...]:
        if self.codes is None:
            return ()
        return tuple(c for c in self.codes if _RL_CODE.match(c))

    def suppresses(self, code: str) -> bool:
        if self.codes is None:
            return True  # bare "# noqa" silences everything on the line
        return code.upper() in self.codes


def find_noqa(line_text: str, line_number: int = 0) -> NoqaComment | None:
    """Parse the ``# noqa`` comment on one physical line, if present."""
    match = _NOQA.search(line_text)
    if match is None:
        return None
    codes_raw = match.group("codes")
    end = match.end()
    has_reason = False
    if codes_raw is not None:
        trailer = line_text[match.end():]
        reason_match = re.match(r"\s*--\s*\S", trailer)
        if reason_match is not None:
            has_reason = True
            end = len(line_text.rstrip())
        codes = tuple(
            c.strip().upper() for c in codes_raw.split(",") if c.strip()
        )
    else:
        codes = None
    return NoqaComment(
        line=line_number,
        col=match.start(),
        end_col=end,
        codes=codes,
        has_reason=has_reason,
    )


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Additional physical lines where a ``# noqa`` also suppresses this
    #: violation (e.g. the ``def`` line for a parameter reported inside a
    #: multi-line signature, or the first line of a multi-line call).
    extra_noqa_lines: tuple[int, ...] = field(default=())

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


def noqa_map(source: str) -> dict[int, NoqaComment]:
    """All ``# noqa`` comments in ``source``, keyed by physical line.

    Comments are located with :mod:`tokenize`, so a ``# noqa`` *inside a
    string literal* (common in linter tests) is not mistaken for a
    suppression.  Falls back to a line-regex scan when the source does
    not tokenize (it still parses line-wise well enough to honour
    suppressions next to a syntax error).
    """
    import io
    import tokenize

    comments: dict[int, NoqaComment] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            line_number = token.start[0]
            parsed = find_noqa(token.string, line_number)
            if parsed is not None:
                col = token.start[1] + parsed.col
                comments[line_number] = NoqaComment(
                    line=line_number,
                    col=col,
                    end_col=token.start[1] + parsed.end_col,
                    codes=parsed.codes,
                    has_reason=parsed.has_reason,
                )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for line_number, text in enumerate(source.splitlines(), start=1):
            parsed = find_noqa(text, line_number)
            if parsed is not None:
                comments[line_number] = parsed
    return comments


def suppressed(
    violation: Violation, comments: dict[int, NoqaComment]
) -> bool:
    """True when a noqa comment on an anchor line silences the violation."""
    for line in (violation.line, *violation.extra_noqa_lines):
        comment = comments.get(line)
        if comment is not None and comment.suppresses(violation.code):
            return True
    return False


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Run the per-file rules on one source string.

    Returns the unsuppressed violations of the single-file rules
    (RL001-RL006, RL012-RL020).  The project-level rules (RL007-RL009,
    RL011) need cross-file context and run through
    :class:`tools.reprolint.project.Project` / :func:`lint_paths`.
    """
    violations = raw_lint_source(source, path)
    comments = noqa_map(source)
    return sorted(
        (v for v in violations if not suppressed(v, comments)),
        key=lambda v: (v.line, v.col, v.code),
    )


def raw_lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Per-file rule violations *before* noqa suppression."""
    from tools.reprolint.rules import FILE_RULES

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        col = (exc.offset or 1) - 1
        return [Violation(path, line, col, "RL000", f"syntax error: {exc.msg}")]
    violations: list[Violation] = []
    for rule in FILE_RULES:
        violations.extend(rule(tree, path))
    return violations


def lint_file(path: Path) -> list[Violation]:
    """Lint one file on disk with the per-file rules."""
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path))


def _is_reprolint_fixture(path: Path) -> bool:
    parts = path.parts
    return any(
        part == "fixtures" and index > 0 and parts[index - 1] == _FIXTURE_PARENT
        for index, part in enumerate(parts)
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the set of Python files to lint.

    Directories are walked recursively, skipping :data:`EXCLUDED_PARTS`
    and the linter's own seeded-violation fixtures under
    ``tools/reprolint/fixtures`` (any *other* ``fixtures`` directory --
    e.g. ``tests/fixtures`` -- is real code and is linted).  Explicitly
    named files are always linted.
    """
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if EXCLUDED_PARTS.intersection(candidate.parts):
                    continue
                if _is_reprolint_fixture(candidate):
                    continue
                yield candidate
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[Path]) -> list[Violation]:
    """Run the full analysis (file + project rules) under ``paths``.

    Convenience wrapper over :class:`tools.reprolint.project.Project`
    with caching disabled; returns the unsuppressed violations.
    """
    from tools.reprolint.project import Project

    return Project(list(paths)).lint()


def render(violations: Sequence[Violation]) -> str:
    """Human-readable report, one line per violation plus a summary."""
    lines = [v.render() for v in violations]
    noun = "violation" if len(violations) == 1 else "violations"
    lines.append(f"reprolint: {len(violations)} {noun}")
    return "\n".join(lines)
