"""Command-line entry point: ``python -m tools.reprolint src tests``.

Exit status: 0 when clean (modulo an applied baseline), 1 when
violations were found, 2 on usage errors (e.g. a named path that does
not exist).

Common invocations::

    python -m tools.reprolint src tests tools benchmarks examples
    python -m tools.reprolint --format sarif --output reprolint.sarif src
    python -m tools.reprolint --update-baseline src tests
    python -m tools.reprolint --fix tests
    python -m tools.reprolint --cache --jobs 4 src tests

A committed ``.reprolint-baseline.json`` in the working directory is
applied automatically; pass ``--no-baseline`` to see the full debt.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint.baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    update_baseline,
)
from tools.reprolint.fix import fix_paths
from tools.reprolint.formats import FORMATS, render_report
from tools.reprolint.project import Project
from tools.reprolint.rules import RULE_SUMMARIES

DEFAULT_CACHE_NAME = ".reprolint-cache.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=(
            "Repo-specific linter for repro invariants (RL001-RL020): "
            "per-file AST rules (including the shape/stochastic-kind "
            "abstract interpreter) plus project-wide certificate-"
            "soundness, contract-coverage, unit-flow, noqa-audit and "
            "shape-flow analyses."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=sorted(FORMATS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "baseline file of accepted violations "
            f"(default: {DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file and report the full debt",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept the current violations, then exit",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply mechanical fixes (stale noqa removal, RL015 rewrite) first",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=f"cache per-file results in {DEFAULT_CACHE_NAME} across runs",
    )
    parser.add_argument(
        "--cache-file",
        type=Path,
        default=None,
        metavar="FILE",
        help="cache location (implies --cache)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse/analyze files with N worker processes (default: 1)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RLxxx",
        default=None,
        help="print one rule's rationale, example and fix, then exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress output when there are no violations",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for code in sorted(RULE_SUMMARIES):
            print(f"{code}  {RULE_SUMMARIES[code]}")
        return 0

    if options.explain is not None:
        from tools.reprolint.docs import explain

        code = options.explain.upper()
        text = explain(code)
        if text is None:
            print(
                f"reprolint: unknown rule {options.explain!r} "
                "(see --list-rules)",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    paths = [Path(p) for p in options.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"reprolint: no such path: {p}", file=sys.stderr)
        return 2
    if options.jobs < 1:
        print("reprolint: --jobs must be >= 1", file=sys.stderr)
        return 2

    if options.fix:
        outcome = fix_paths(paths, jobs=options.jobs)
        if not options.quiet and outcome.total:
            for path, count in sorted(outcome.fixes.items()):
                noun = "fix" if count == 1 else "fixes"
                print(f"reprolint: applied {count} {noun} in {path}")

    cache_path = options.cache_file
    if cache_path is None and options.cache:
        cache_path = Path(DEFAULT_CACHE_NAME)
    project = Project(paths, cache_path=cache_path, jobs=options.jobs)
    violations = project.lint()

    baseline_path = options.baseline
    if baseline_path is None:
        default = Path(DEFAULT_BASELINE_NAME)
        if default.exists():
            baseline_path = default

    if options.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        update_baseline(target, violations, linted_paths=paths)
        if not options.quiet:
            noun = "violation" if len(violations) == 1 else "violations"
            print(
                f"reprolint: baseline {target} now accepts "
                f"{len(violations)} {noun}"
            )
        return 0

    dropped = 0
    if baseline_path is not None and not options.no_baseline:
        violations, dropped = apply_baseline(
            violations, load_baseline(baseline_path)
        )

    report = render_report(violations, options.fmt)
    if options.output is not None:
        options.output.write_text(report + "\n", encoding="utf-8")
        if not options.quiet:
            print(f"reprolint: report written to {options.output}")
    elif violations or not options.quiet or options.fmt == "sarif":
        print(report)
    if dropped and not options.quiet and options.fmt == "text":
        print(f"reprolint: {dropped} baselined violation(s) not shown")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
