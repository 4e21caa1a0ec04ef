"""One registry of per-rule documentation: rationale, example, fix.

Feeds both ``python -m tools.reprolint --explain RLxxx`` and the SARIF
``help`` metadata (``reportingDescriptor.help.text``), so the console
explanation and the code-scanning UI always tell the same story.
"""

from __future__ import annotations

from dataclasses import dataclass

from tools.reprolint.rules import RULE_SUMMARIES

__all__ = ["RULE_DOCS", "RuleDoc", "explain", "help_text"]


@dataclass(frozen=True)
class RuleDoc:
    """Documentation of one rule beyond its one-line summary."""

    rationale: str
    example: str
    fix: str


RULE_DOCS: dict[str, RuleDoc] = {
    "RL001": RuleDoc(
        rationale=(
            "Models are frozen dataclasses: every solver relies on inputs "
            "that cannot change under it.  An attribute assignment outside "
            "__post_init__ (even via object.__setattr__) breaks that "
            "contract and silently invalidates cached solutions."
        ),
        example="model.bg_buffer = 10  # on a frozen FgBgModel",
        fix=(
            "Build a new instance (dataclasses.replace(model, "
            "bg_buffer=10)) instead of mutating the existing one."
        ),
    ),
    "RL002": RuleDoc(
        rationale=(
            "A numpy array stored on a (frozen) dataclass is still mutable "
            "through its buffer; read-only flags are what make the freeze "
            "real and the construction certificates sound."
        ),
        example="object.__setattr__(self, 'd0', d0)  # d0 still writable",
        fix="Call d0.setflags(write=False) before storing the array.",
    ),
    "RL003": RuleDoc(
        rationale=(
            "Time is milliseconds everywhere in this repo; a time-like "
            "parameter without the _ms suffix invites second/microsecond "
            "confusion at call sites."
        ),
        example="def solve(timeout): ...  # ms? s?",
        fix="Rename to timeout_ms (rates are per-ms for the same reason).",
    ),
    "RL004": RuleDoc(
        rationale=(
            "bg_completion_rate is a deliberate NaN below "
            "NEAR_ZERO_BG_PROBABILITY and never a RuntimeWarning; "
            "suppressing warnings near it hides genuine numerical faults."
        ),
        example="with np.errstate(invalid='ignore'): rate = ...",
        fix=(
            "Remove the suppression; guard the near-zero-p case explicitly "
            "instead."
        ),
    ),
    "RL005": RuleDoc(
        rationale=(
            "The phase process A0+A1+A2 of the FG/BG chain is reducible "
            "(background groups are transient), so a plain stationary "
            "solve is singular or wrong; drift() does the SCC-aware "
            "decomposition."
        ),
        example="pi = stationary_distribution(a0 + a1 + a2)",
        fix="Use repro.qbd.rmatrix.drift(a0, a1, a2) instead.",
    ),
    "RL006": RuleDoc(
        rationale=(
            "Construction certificates (_generator_validated) let the "
            "contract layer skip re-validation -- which is only sound when the "
            "certified arrays were frozen on every path reaching the "
            "certificate."
        ),
        example="self._generator_validated = True  # d0 never frozen",
        fix=(
            "Freeze with setflags(write=False) on all paths before "
            "issuing the certificate; keep freeze helpers flat, "
            "same-module and unconditional so the checker can see them."
        ),
    ),
    "RL007": RuleDoc(
        rationale=(
            "Public entry points of repro.{core,engine,processes,qbd} "
            "carry runtime contracts by convention; an unguarded export "
            "is a hole in the validated surface."
        ),
        example="def solve_qbd(process): return _impl(process)",
        fix=(
            "Add @contracted, a check_*/validate_* call, or a raising "
            "guard; waive deliberate exceptions with a reasoned noqa or "
            "the baseline."
        ),
    ),
    "RL008": RuleDoc(
        rationale=(
            "A _ms value flowing into a non-_ms parameter (or vice versa) "
            "across a call site is a unit error the type system cannot "
            "catch."
        ),
        example="wait(seconds=timeout_ms)",
        fix="Convert explicitly (timeout_ms / 1000.0) or fix the name.",
    ),
    "RL009": RuleDoc(
        rationale=(
            "A noqa that no longer suppresses anything is debt pretending "
            "to be documentation, and one without a reason is "
            "unreviewable."
        ),
        example="x = 1  # noqa: RL001",
        fix=(
            "Delete stale suppressions (--fix does it); live ones need "
            "'# noqa: RLxxx -- reason'."
        ),
    ),
    "RL011": RuleDoc(
        rationale=(
            "Solvers never mutate inputs: a parameter array written in "
            "place -- directly or through a callee's effect summary -- "
            "corrupts caller state and cache keys."
        ),
        example="def solve(a1): a1 += np.eye(len(a1))",
        fix="Copy first (a1 = a1.copy()) or build a new array.",
    ),
    "RL012": RuleDoc(
        rationale=(
            "Job state and terminal timestamps move only through the "
            "lifecycle._to() gate, which enforces the transition table; a "
            "raw write can fabricate impossible histories (DONE without "
            "finished_at_ms, RUNNING after CANCELLED)."
        ),
        example="job.state = JobState.DONE",
        fix="Go through lifecycle._to(job, JobState.DONE, ...).",
    ),
    "RL013": RuleDoc(
        rationale=(
            "Durable cache/manifest/job-store writes must be "
            "crash-atomic (tmp.<pid> + os.replace for files; a 'with "
            "conn:' transaction for SQLite, which commits or rolls back "
            "as one unit), or a SIGKILL leaves torn files and "
            "half-applied updates."
        ),
        example="path.write_text(payload)  # torn on crash",
        fix=(
            "Write to a tmp.<pid> sibling and os.replace it; run "
            "mutating SQL inside 'with conn:'."
        ),
    ),
    "RL014": RuleDoc(
        rationale=(
            "A swallowed ContractViolation hides corruption; a "
            "SweepCancelled converted into a FailedSolve/NaN point turns "
            "deliberate cancellation into fake solver failure."
        ),
        example="except ContractViolation: pass",
        fix=(
            "Re-raise, record with details, or quarantine; cancellation "
            "must propagate as cancellation."
        ),
    ),
    "RL015": RuleDoc(
        rationale=(
            "REPRO_* environment reads live in repro._env and friends so "
            "configuration has one audited surface; scattered literal "
            "reads grow divergent backdoors in distributed workers."
        ),
        example="budget = os.environ.get('REPRO_SOLVER_BUDGET_MS')",
        fix=(
            "Use repro_env/repro_env_required (--fix rewrites simple "
            "reads)."
        ),
    ),
    "RL016": RuleDoc(
        rationale=(
            "QBD blocks follow the row convention (rows index the "
            "from-state) and must be square and mutually conformable; a "
            "transposed kron operand or a boundary block with a swapped "
            "row split assembles a structurally wrong chain that often "
            "still solves -- to the wrong answer."
        ),
        example="QBDProcess(b00=b00, b01=np.zeros((m, n_b)), ...)",
        fix=(
            "Match the declarations: b01 is (boundary, repeating), b10 "
            "the reverse, a0/a1/a2 square and same-shape; drop stray .T."
        ),
    ),
    "RL017": RuleDoc(
        rationale=(
            "Generators (rows sum to 0), stochastic matrices (rows sum "
            "to 1), probability vectors and rates are different algebraic "
            "objects; D0 alone is a *sub*generator and a per-ms rate is "
            "not a probability.  Confusing them passes shape checks and "
            "fails silently."
        ),
        example="pi = stationary_distribution(d0)  # needs d0 + d1",
        fix=(
            "Assemble the full object first (d0 + d1 for the phase "
            "generator; normalize rates to ratios before probability "
            "slots)."
        ),
    ),
    "RL018": RuleDoc(
        rationale=(
            "The batched kernel stacks blocks on a leading N axis; numpy "
            "aligns shapes from the *right*, so a reduction without an "
            "axis aggregates across items and a per-item (N,) operand "
            "broadcasts onto a matrix axis.  Both are silent."
        ),
        example="residuals = np.abs(stack).max()  # one scalar for all items",
        fix=(
            "Reduce over trailing axes (axis=(1, 2)); give per-item "
            "operands explicit trailing axes ([:, None, None]); keep "
            "stacked-solve RHS 3-D ((N, m, 1))."
        ),
    ),
    "RL019": RuleDoc(
        rationale=(
            "bg_completion_rate is a deliberate NaN below "
            "NEAR_ZERO_BG_PROBABILITY (including exactly p = 0).  NaN "
            "comparisons are silently False and NaN poisons aggregates, "
            "so an unguarded consumer quietly drops or corrupts the "
            "near-zero-p regime."
        ),
        example="if s.bg_completion_rate >= floor: accept(s)",
        fix=(
            "Test math.isnan()/np.isfinite() first, or gate on "
            "bg_probability >= NEAR_ZERO_BG_PROBABILITY (test code is "
            "exempt: assertions pin exact scenarios)."
        ),
    ),
    "RL020": RuleDoc(
        rationale=(
            "Rates, probabilities and _ms durations are float64 "
            "repo-wide; a float32/half downcast loses ~9 significant "
            "digits inside the matrix-geometric iterations, np.float_ "
            "was removed in numpy 2.0, and floor division truncates "
            "continuous quantities."
        ),
        example="np.zeros((m, m), dtype=np.float32)",
        fix=(
            "Spell float64 (or plain float); use true division on "
            "rate/_ms values and round explicitly where an integer is "
            "really meant."
        ),
    ),
}


def explain(code: str) -> str | None:
    """The full console explanation for ``code`` (None if unknown)."""
    doc = RULE_DOCS.get(code)
    summary = RULE_SUMMARIES.get(code)
    if doc is None or summary is None:
        return None
    return (
        f"{code}: {summary}\n"
        f"\n"
        f"Why\n  {doc.rationale}\n"
        f"\n"
        f"Example\n  {doc.example}\n"
        f"\n"
        f"Fix\n  {doc.fix}"
    )


def help_text(code: str) -> str | None:
    """Single-paragraph help string for SARIF ``help.text``."""
    doc = RULE_DOCS.get(code)
    if doc is None:
        return None
    return f"{doc.rationale} Example: {doc.example} Fix: {doc.fix}"
