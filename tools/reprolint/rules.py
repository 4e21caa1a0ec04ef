"""The reprolint rules.

Per-file rules are callables ``(tree, path) -> Iterator[Violation]``
collected in :data:`FILE_RULES`; the cross-file rules (RL007-RL009)
run inside :mod:`tools.reprolint.project` where the symbol table and
raw-violation map exist.  The rules encode repo-specific invariants
(see DESIGN.md and the gotchas in CLAUDE.md):

RL001
    Mutation of a frozen-dataclass attribute outside the
    ``__post_init__`` / ``object.__setattr__`` idiom.  Plain
    ``self.attr = ...`` in a frozen dataclass raises at runtime; an
    ``object.__setattr__`` outside ``__post_init__`` silently breaks the
    immutability the solve cache and fingerprinting rely on.
RL002
    A numpy array stored on a dataclass without a read-only guard
    (``.setflags(write=False)`` or ``.flags.writeable = False``).
    Models are frozen and content-addressed; a writable array makes the
    frozen dataclass silently mutable and the fingerprint stale.
RL003
    A time-like parameter or keyword argument crossing a function
    boundary without a ``_ms`` unit (bare ``timeout``/``idle_wait``/... or
    a ``_sec``-style suffix).  Time is milliseconds repo-wide; unit bugs
    produce plausible numbers, not errors.
RL004
    A blanket ``np.errstate(...="ignore")`` / ``warnings.simplefilter``
    suppression inside a scope that touches ``bg_completion_rate``.  The
    NaN there is deliberate and guarded (``NEAR_ZERO_BG_PROBABILITY``);
    suppression hides genuine numerical failures.
RL005
    A plain stationary solve of the phase-process sum ``A0+A1+A2``.  The
    FG/BG phase process is *reducible*; use the SCC-aware
    ``repro.qbd.rmatrix.drift`` instead.
RL006
    Certificate soundness.  A construction certificate
    (``self._generator_validated = True``) claims the certified arrays
    are validated *and frozen*; issuing one where the arrays are not provably
    read-only on all paths (``setflags(write=False)``) makes the
    contract layer skip re-validation of data that can still mutate --
    the exact bug class CLAUDE.md warns silently corrupts every solve.
RL012
    Lifecycle-gate bypass.  ``_to()`` is the *only* place a job's state
    may change (that is what makes :data:`TRANSITIONS` unbypassable);
    a ``replace(..., state=...)``/``finished_ms=...`` or a direct
    ``job.state = ...`` outside ``_to`` reintroduces the unchecked
    writes the gate exists to prevent.  A ``_to()`` call targeting a
    state no declared transition reaches is flagged too (the table is
    extracted statically from the module, so the rule tracks the code).
RL013
    Durable-write discipline.  Writes landing in cache/manifest paths
    (paths derived from ``self``) must use the ``tmp.<pid>`` +
    ``os.replace`` idiom, or a SIGKILL mid-write leaves a torn file;
    mutating SQL must run inside ``with conn:``, or a crash between
    statements durably applies half an update.
RL014
    Exception laundering.  The failure-semantics contract forbids two
    conversions outright: silently dropping a ``ContractViolation``
    (the record must keep its details), and turning a
    ``SweepCancelled`` into a ``FailedSolve``/NaN point (cancellation
    is *not* a solve failure).
RL015
    Env-var hygiene.  Literal ``REPRO_*`` reads of ``os.environ`` /
    ``os.getenv`` outside the designated accessor modules (contracts,
    faults, solver budget, ``repro._env``) grow divergent config
    backdoors that distributed workers then disagree on (``--fix``
    rewrites to the ``repro._env`` accessors).

RL011 (solver purity: a public entry point of the solver packages
mutating a parameter array, directly or through a callee) needs the
project-wide call graph and effect summaries, so it runs inside
:mod:`tools.reprolint.project` next to RL007-RL009.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint import dataflow, effects
from tools.reprolint.core import Violation, walk_tree
from tools.reprolint.shapes import shape_rules

__all__ = ["ALL_RULES", "FILE_RULES", "RULE_SUMMARIES"]

RULE_SUMMARIES = {
    "RL001": "frozen-dataclass attribute mutated outside __post_init__",
    "RL002": "numpy array stored on a dataclass without a read-only guard",
    "RL003": "time-like name crosses a function boundary without a _ms unit",
    "RL004": "error/warning suppression around bg_completion_rate",
    "RL005": "plain stationary solve on the reducible phase sum A0+A1+A2",
    "RL006": "construction certificate issued over arrays not provably frozen",
    "RL007": "public entry point without contract coverage or waiver",
    "RL008": "unit mismatch between argument and parameter across a call site",
    "RL009": "stale # noqa suppression, or one missing its '-- reason' trailer",
    "RL011": "solver entry point mutates a parameter array (possibly via a callee)",
    "RL012": "job state/terminal timestamp written outside the _to() lifecycle gate",
    "RL013": "durable write without tmp+os.replace, or mutating SQL in autocommit",
    "RL014": "ContractViolation dropped, or SweepCancelled laundered into a failure",
    "RL015": "literal REPRO_* env read outside the designated accessor modules",
    "RL016": "non-conformable or non-square block assembly reaching a QBD sink",
    "RL017": "stochastic-kind confusion (generator vs stochastic vs probability)",
    "RL018": "batched-axis hazard: op aggregates/broadcasts across the item axis",
    "RL019": "bg_completion_rate compared/aggregated outside the NaN guard",
    "RL020": "precision hazard: narrowing float dtype or floor-divided rate/_ms",
}

_NUMPY_MODULES = {"np", "numpy"}
_ARRAY_FACTORIES = {
    "array",
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "copy",
    "empty",
    "empty_like",
    "eye",
    "full",
    "full_like",
    "ones",
    "ones_like",
    "zeros",
    "zeros_like",
}

# RL003 vocabulary: bare names that are times without saying so, and
# suffixes that say so in the wrong unit.
_BARE_TIME_NAMES = {
    "timeout",
    "idle_wait",
    "delay",
    "interval",
    "duration",
    "wait_time",
    "sleep_time",
}
_BAD_UNIT_SUFFIXES = (
    "_sec",
    "_secs",
    "_seconds",
    "_minutes",
    "_hours",
    "_us",
    "_micros",
    "_ns",
    "_nanos",
)


def _dataclass_decoration(node: ast.ClassDef) -> tuple[bool, bool]:
    """``(is_dataclass, is_frozen)`` from the class's decorator list."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    frozen = bool(
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    )
        return True, frozen
    return False, False


def _is_object_setattr_on_self(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
        and bool(node.args)
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
    )


def _methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def rl001_frozen_mutation(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL001: frozen-dataclass mutation outside the sanctioned idiom."""
    for class_node in walk_tree(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        is_dc, frozen = _dataclass_decoration(class_node)
        if not (is_dc and frozen):
            continue
        for method in _methods(class_node):
            in_post_init = method.name == "__post_init__"
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            yield Violation(
                                path,
                                node.lineno,
                                node.col_offset,
                                "RL001",
                                f"assignment to frozen attribute "
                                f"'self.{target.attr}' in "
                                f"{class_node.name}.{method.name}; frozen "
                                "dataclasses are initialised via "
                                "object.__setattr__ in __post_init__ only",
                            )
                elif isinstance(node, ast.Call) and _is_object_setattr_on_self(node):
                    if not in_post_init:
                        attr = "?"
                        if len(node.args) > 1 and isinstance(
                            node.args[1], ast.Constant
                        ):
                            attr = str(node.args[1].value)
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            "RL001",
                            f"object.__setattr__ on frozen attribute {attr!r} "
                            f"outside __post_init__ (in "
                            f"{class_node.name}.{method.name}); frozen models "
                            "must stay immutable after construction",
                        )


def _is_array_factory_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _ARRAY_FACTORIES
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in _NUMPY_MODULES
    )


def _oracle_protected_names(
    call: ast.Call, oracle: dict[str, dict]
) -> Iterator[str]:
    """Names frozen by a call to an unconditionally-freezing helper."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id in oracle):
        return
    info = oracle[func.id]
    params: list[str] = info.get("params", [])
    frozen = set(info.get("freezes", ()))
    all_args = bool(info.get("all_args", False))
    for index, arg in enumerate(call.args):
        if not isinstance(arg, ast.Name):
            continue
        if all_args or (index < len(params) and params[index] in frozen):
            yield arg.id
    for kw in call.keywords:
        if kw.arg in frozen and isinstance(kw.value, ast.Name):
            yield kw.value.id


def rl002_writable_array_on_dataclass(
    tree: ast.AST, path: str
) -> Iterator[Violation]:
    """RL002: numpy array stored on a dataclass while still writeable.

    Freezing through a directly-called, unconditionally-freezing helper
    defined in the same module counts (the one-level helper contract;
    see :func:`tools.reprolint.effects.freeze_oracle`).
    """
    oracle = (
        effects.freeze_oracle(tree) if isinstance(tree, ast.Module) else {}
    )
    for class_node in walk_tree(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        is_dc, _ = _dataclass_decoration(class_node)
        if not is_dc:
            continue
        for method in _methods(class_node):
            if method.name not in {"__post_init__", "__init__"}:
                continue
            array_names: set[str] = set()
            protected: set[str] = set()
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and _is_array_factory_call(
                    node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            array_names.add(target.id)
                elif isinstance(node, ast.Call):
                    protected.update(_oracle_protected_names(node, oracle))
                    # x.setflags(write=False)
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "setflags"
                        and isinstance(func.value, ast.Name)
                    ):
                        protected.add(func.value.id)
                elif isinstance(node, ast.Assign):
                    # x.flags.writeable = False
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "writeable"
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr == "flags"
                            and isinstance(target.value.value, ast.Name)
                        ):
                            protected.add(target.value.value.id)

            def unprotected(value: ast.expr) -> bool:
                if _is_array_factory_call(value):
                    return True
                return (
                    isinstance(value, ast.Name)
                    and value.id in array_names
                    and value.id not in protected
                )

            for node in ast.walk(method):
                attr: str | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Call) and _is_object_setattr_on_self(node):
                    if len(node.args) == 3 and isinstance(
                        node.args[1], ast.Constant
                    ):
                        attr = str(node.args[1].value)
                        value = node.args[2]
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attr = target.attr
                            value = node.value
                if attr is not None and value is not None and unprotected(value):
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "RL002",
                        f"numpy array stored on dataclass attribute "
                        f"{class_node.name}.{attr} without a read-only guard; "
                        "call .setflags(write=False) before storing",
                    )


def _time_name_problem(name: str) -> str | None:
    if name in _BARE_TIME_NAMES:
        return (
            f"time-like name {name!r} has no unit; time is milliseconds "
            f"repo-wide -- rename to '{name}_ms' or convert explicitly"
        )
    for suffix in _BAD_UNIT_SUFFIXES:
        if name.endswith(suffix):
            return (
                f"time-like name {name!r} is not in milliseconds; convert "
                "at the boundary and pass a '_ms' name"
            )
    return None


def rl003_unitless_time(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL003: time-like names crossing function boundaries without _ms."""
    for node in walk_tree(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ]:
                if arg.arg in {"self", "cls"}:
                    continue
                problem = _time_name_problem(arg.arg)
                if problem is not None:
                    # A noqa on the `def` line also suppresses, so a
                    # multi-line signature can be waived in one place.
                    anchors = (node.lineno,) if node.lineno != arg.lineno else ()
                    yield Violation(
                        path,
                        arg.lineno,
                        arg.col_offset,
                        "RL003",
                        f"parameter of {node.name}(): {problem}",
                        extra_noqa_lines=anchors,
                    )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                problem = _time_name_problem(keyword.arg)
                if problem is not None:
                    # Anchor multi-line calls at the call's first line too.
                    anchors = (
                        (node.lineno,)
                        if node.lineno != keyword.value.lineno
                        else ()
                    )
                    yield Violation(
                        path,
                        keyword.value.lineno,
                        keyword.value.col_offset,
                        "RL003",
                        f"keyword argument: {problem}",
                        extra_noqa_lines=anchors,
                    )


def _mentions_bg_completion_rate(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and node.id == "bg_completion_rate":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "bg_completion_rate":
            return True
        if isinstance(node, ast.keyword) and node.arg == "bg_completion_rate":
            return True
    return False


def _suppression_nodes(scope: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(scope):
        if isinstance(node, ast.withitem):
            expr = node.context_expr
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "errstate"
                and isinstance(expr.func.value, ast.Name)
                and expr.func.value.id in _NUMPY_MODULES
                and any(
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value == "ignore"
                    for kw in expr.keywords
                )
            ):
                yield expr, "np.errstate(...='ignore')"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in {"simplefilter", "filterwarnings"}
                and isinstance(func.value, ast.Name)
                and func.value.id == "warnings"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "ignore"
            ):
                yield node, f"warnings.{func.attr}('ignore')"


def rl004_suppression_near_nan_guard(
    tree: ast.AST, path: str
) -> Iterator[Violation]:
    """RL004: blanket suppression in scopes touching bg_completion_rate."""
    scopes: list[ast.AST] = [tree]
    scopes.extend(
        node
        for node in walk_tree(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    seen: set[tuple[int, int]] = set()
    for scope in scopes:
        if isinstance(scope, ast.Module):
            # Only consider module-level statements outside functions, or
            # every function would be double-reported via the module scope.
            continue
        if not _mentions_bg_completion_rate(scope):
            continue
        for node, what in _suppression_nodes(scope):
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                "RL004",
                f"{what} in a scope computing bg_completion_rate; the NaN "
                "there is deliberate (NEAR_ZERO_BG_PROBABILITY guard) -- "
                "do not blanket-suppress numerical errors around it",
            )


def _phase_sum_leaves(expr: ast.expr) -> list[str] | None:
    """Leaf names of a ``+`` chain, looking through ``np.asarray(...)``."""
    if isinstance(expr, ast.BinOp):
        if not isinstance(expr.op, ast.Add):
            return None
        left = _phase_sum_leaves(expr.left)
        right = _phase_sum_leaves(expr.right)
        if left is None or right is None:
            return None
        return left + right
    if _is_array_factory_call(expr):
        call = expr  # type: ignore[assignment]
        if isinstance(call, ast.Call) and call.args:
            return _phase_sum_leaves(call.args[0])
        return None
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, ast.Attribute):
        return [expr.attr]
    return None


def _is_phase_process_sum(expr: ast.expr) -> bool:
    leaves = _phase_sum_leaves(expr)
    if leaves is None or len(leaves) != 3:
        return False
    return {leaf.lower() for leaf in leaves} == {"a0", "a1", "a2"}


def rl005_stationary_on_phase_sum(
    tree: ast.AST, path: str
) -> Iterator[Violation]:
    """RL005: stationary solve on A0+A1+A2 instead of the SCC-aware drift."""
    # Most modules never call stationary_distribution: skip the per-scope
    # walks below for them.
    if not any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "stationary_distribution")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "stationary_distribution"
            )
        )
        for node in walk_tree(tree)
    ):
        return
    # Track names assigned from a phase-process sum, per enclosing scope.
    # A function body is walked both as its own scope and as part of the
    # module scope; dedupe by source location.
    seen: set[tuple[int, int]] = set()
    for scope in walk_tree(tree):
        if not isinstance(
            scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        summed: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and _is_phase_process_sum(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        summed.add(target.id)
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name != "stationary_distribution" or not node.args:
                continue
            arg = node.args[0]
            direct = _is_phase_process_sum(arg)
            via_name = isinstance(arg, ast.Name) and arg.id in summed
            key = (node.lineno, node.col_offset)
            if (direct or via_name) and key not in seen:
                seen.add(key)
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "RL005",
                    "stationary solve on the phase sum A0+A1+A2: the FG/BG "
                    "phase process is reducible (transient BG groups, one "
                    "closed class per full-buffer occupancy); use the "
                    "SCC-aware repro.qbd.rmatrix.drift instead",
                )


def _function_nodes(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in walk_tree(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def rl006_certificate_soundness(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL006: certificates issued over arrays that may still be writable.

    A freeze performed by a directly-called helper in the same module is
    recognized through the freeze oracle -- but only when the helper
    freezes *unconditionally*; a data-dependent freeze leaves the helper
    out of the oracle and the certificate stays flagged.
    """
    oracle = (
        effects.freeze_oracle(tree) if isinstance(tree, ast.Module) else {}
    )
    for func in _function_nodes(tree):
        analysis = dataflow.analyze_function(func, oracle)

        if analysis.certificates:
            unfrozen = analysis.unfrozen_self_arrays()
            if unfrozen:
                event = analysis.certificates[0]
                attrs = ", ".join(unfrozen)
                yield Violation(
                    path,
                    event.node.lineno,
                    event.node.col_offset,
                    "RL006",
                    f"_generator_validated certificate set in {func.name}() "
                    f"while {attrs} is not provably frozen on all paths; "
                    "call .setflags(write=False) before certifying -- a "
                    "writable certified array silently invalidates every "
                    "downstream solve",
                )


# ---------------------------------------------------------------------------
# RL012: lifecycle-gate bypass
# ---------------------------------------------------------------------------

_GATED_JOB_KEYWORDS = ("state", "finished_ms")


def _transition_table(tree: ast.Module) -> tuple[set[str], set[str]] | None:
    """``(destination_names, destination_strings)`` of a TRANSITIONS table.

    The table is extracted statically from the module (``TRANSITIONS =
    {FROM: frozenset({TO, ...}), ...}``) so the rule tracks the code; a
    module without one gets no destination checking.
    """
    constants: dict[str, str] = {}
    table: ast.expr | None = None
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "TRANSITIONS":
                table = value
            elif isinstance(value, ast.Constant) and isinstance(value.value, str):
                constants[target.id] = value.value
    if not isinstance(table, ast.Dict):
        return None
    dest_names: set[str] = set()
    dest_strings: set[str] = set()

    def collect(element: ast.expr) -> None:
        if isinstance(element, ast.Name):
            dest_names.add(element.id)
            if element.id in constants:
                dest_strings.add(constants[element.id])
        elif isinstance(element, ast.Constant) and isinstance(element.value, str):
            dest_strings.add(element.value)

    for value in table.values:
        elements: list[ast.expr] = []
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            elements = list(value.elts)
        elif isinstance(value, ast.Call) and value.args:
            # frozenset({...}) / set((...)): look inside the literal.
            inner = value.args[0]
            if isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
                elements = list(inner.elts)
        for element in elements:
            collect(element)
    return dest_names, dest_strings


def _is_replace_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "replace"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "replace"
        and isinstance(func.value, ast.Name)
        and func.value.id == "dataclasses"
    )


def rl012_lifecycle_gate_bypass(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL012: job state written outside _to(), or _to() off the table."""
    if not isinstance(tree, ast.Module):
        return
    destinations = _transition_table(tree)
    for func in _function_nodes(tree):
        in_gate = func.name == "_to"
        for node in effects.walk_scope(func):
            if isinstance(node, ast.Call) and _is_replace_call(node) and not in_gate:
                gated = sorted(
                    kw.arg
                    for kw in node.keywords
                    if kw.arg in _GATED_JOB_KEYWORDS
                )
                if gated:
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "RL012",
                        f"replace(..., {', '.join(f'{k}=...' for k in gated)}) "
                        f"in {func.name}() bypasses the _to() lifecycle gate; "
                        "state and terminal timestamps may only change through "
                        "_to(), which enforces the TRANSITIONS table",
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not in_gate:
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _GATED_JOB_KEYWORDS
                        and isinstance(target.value, ast.Name)
                        and target.value.id not in {"self"}
                    ):
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            "RL012",
                            f"direct write to .{target.attr} bypasses the "
                            "_to() lifecycle gate (and raises on the frozen "
                            "Job dataclass); evolve jobs through the "
                            "transition helpers",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in _GATED_JOB_KEYWORDS
            ):
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "RL012",
                    f"object.__setattr__(..., {node.args[1].value!r}, ...) "
                    "bypasses the _to() lifecycle gate; state and terminal "
                    "timestamps may only change through _to()",
                )
            if (
                destinations is not None
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_to"
                and node.args
            ):
                dest_names, dest_strings = destinations
                target_state = node.args[0]
                bad: str | None = None
                if isinstance(target_state, ast.Name):
                    if (
                        target_state.id not in dest_names
                        and target_state.id.isupper()
                    ):
                        bad = target_state.id
                elif isinstance(target_state, ast.Constant) and isinstance(
                    target_state.value, str
                ):
                    if target_state.value not in dest_strings:
                        bad = repr(target_state.value)
                if bad is not None:
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "RL012",
                        f"_to({bad}, ...) targets a state no declared "
                        "transition reaches; add the edge to TRANSITIONS or "
                        "fix the call",
                    )


# ---------------------------------------------------------------------------
# RL013: durable-write discipline
# ---------------------------------------------------------------------------


def _chain_root(expr: ast.expr) -> ast.Name | None:
    """The root Name of an attribute/call/subscript chain, if any."""
    while True:
        if isinstance(expr, ast.Call):
            expr = expr.func
        elif isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        else:
            break
    return expr if isinstance(expr, ast.Name) else None


def _self_derived_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names whose value derives from ``self`` (paths the instance
    owns -- repository roots, manifest paths, cache dirs)."""
    derived: set[str] = set()
    for _ in range(2):  # two passes reach p = self.x; q = p.with_name(...)
        for node in effects.walk_scope(func):
            value: ast.expr | None = None
            names: list[str] = []
            if isinstance(node, ast.Assign):
                value = node.value
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                if isinstance(node.target, ast.Name):
                    names = [node.target.id]
            if value is None or not names:
                continue
            root = _chain_root(value)
            if root is not None and (root.id == "self" or root.id in derived):
                derived.update(names)
    return derived


def _is_self_derived(expr: ast.expr, derived: set[str]) -> bool:
    root = _chain_root(expr)
    return root is not None and (root.id == "self" or root.id in derived)


def _open_write_mode(call: ast.Call, position: int) -> bool:
    """Does this ``open`` call write?  ``position`` is where its mode sits
    among the positional arguments: 1 for ``open(path, mode)``, 0 for the
    method form ``path.open(mode)``."""
    mode: ast.expr | None = (
        call.args[position] if len(call.args) > position else None
    )
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in ("w", "a", "x"))
    )


def rl013_durable_write_discipline(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL013: non-atomic durable writes, mutating SQL in autocommit."""
    for func in _function_nodes(tree):
        # One pass collects the candidates; the costlier self-derivation
        # and transaction analyses run only for functions that have some.
        replaced: set[str] = set()
        writes: list[tuple[ast.Call, ast.expr, str]] = []
        executes = False
        for node in effects.walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Name):
                if fn.id == "open" and node.args and _open_write_mode(node, 1):
                    writes.append((node, node.args[0], "open(..., 'w')"))
            elif isinstance(fn, ast.Attribute):
                if (
                    fn.attr == "replace"
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == "os"
                    and node.args
                ):
                    replaced.add(ast.unparse(node.args[0]))
                elif fn.attr in {"write_text", "write_bytes"}:
                    writes.append((node, fn.value, f".{fn.attr}()"))
                elif fn.attr == "open" and _open_write_mode(node, 0):
                    writes.append((node, fn.value, ".open('w')"))
                elif fn.attr in _SQLITE_EXECUTE:
                    executes = True

        # (a) durable writes without the tmp.<pid> + os.replace idiom
        derived = _self_derived_names(func) if writes else set()
        for node, target, what in writes:
            if not _is_self_derived(target, derived):
                continue
            target_repr = ast.unparse(target)
            if target_repr not in replaced:
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "RL013",
                    f"{what} on durable path {target_repr!r} without the "
                    "atomic-write idiom; write to a sibling "
                    "'<name>.tmp.<pid>' and os.replace() it into place, "
                    "or a mid-write kill leaves a torn file",
                )
        # (b) mutating SQL in autocommit mode (outside ``with conn:``)
        if executes:
            yield from _rl013_sqlite_autocommit(func, path)


#: SQL verbs that mutate durable state.  SELECT/PRAGMA/CREATE are exempt:
#: reads are harmless and idempotent schema setup is a single statement.
_SQLITE_MUTATING = frozenset({"insert", "update", "delete", "replace"})
_SQLITE_EXECUTE = frozenset({"execute", "executemany", "executescript"})


def _looks_like_connection(expr: ast.expr) -> bool:
    """Name-seeded detection, like the shape layer: a receiver whose
    final segment is ``conn``-ish (``self._conn``, ``conn``,
    ``connection``) is taken to be a sqlite connection."""
    if isinstance(expr, ast.Attribute):
        segment = expr.attr
    elif isinstance(expr, ast.Name):
        segment = expr.id
    else:
        return False
    return "conn" in segment.lower()


def _rl013_sqlite_autocommit(
    func: ast.FunctionDef | ast.AsyncFunctionDef, path: str
) -> Iterator[Violation]:
    """RL013(b): mutating SQL executed outside the connection's own
    transaction context.

    ``with conn:`` wraps the enclosed statements in one transaction --
    committed together, rolled back together on an exception -- which is
    the SQLite analogue of the ``tmp.<pid>`` + ``os.replace`` idiom and
    therefore *satisfies* the durable-write discipline.  A mutating
    ``conn.execute(...)`` in autocommit mode leaves no rollback point: a
    crash between statements durably applies half an update, the
    transactional form of a torn file.
    """

    def visit(node: ast.AST, active: tuple[str, ...]) -> Iterator[Violation]:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and node is not func
        ):
            return  # nested scopes are linted on their own
        if isinstance(node, (ast.With, ast.AsyncWith)):
            grown = active + tuple(
                ast.unparse(item.context_expr) for item in node.items
            )
            for child in node.body:
                yield from visit(child, grown)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SQLITE_EXECUTE
            and node.args
            and _looks_like_connection(node.func.value)
        ):
            sql = node.args[0]
            if isinstance(sql, ast.Constant) and isinstance(sql.value, str):
                words = sql.value.split()
                head = words[0].lower() if words else ""
                if (
                    head in _SQLITE_MUTATING
                    and ast.unparse(node.func.value) not in active
                ):
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "RL013",
                        f"mutating SQL ({head.upper()}) on "
                        f"{ast.unparse(node.func.value)!r} in autocommit "
                        "mode; run it inside 'with "
                        f"{ast.unparse(node.func.value)}:' so the write "
                        "commits or rolls back as one transaction (the "
                        "SQLite form of the atomic-write idiom)",
                    )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, active)

    for stmt in func.body:
        yield from visit(stmt, ())


# ---------------------------------------------------------------------------
# RL014: exception laundering
# ---------------------------------------------------------------------------


def _handler_catches(handler: ast.ExceptHandler, name: str) -> bool:
    if handler.type is None:
        return False
    candidates: list[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        candidates = list(handler.type.elts)
    else:
        candidates = [handler.type]
    for candidate in candidates:
        leaf = (
            candidate.id
            if isinstance(candidate, ast.Name)
            else candidate.attr
            if isinstance(candidate, ast.Attribute)
            else None
        )
        if leaf == name:
            return True
    return False


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _handler_uses_exception(handler: ast.ExceptHandler) -> bool:
    if handler.name is None:
        return False
    return any(
        isinstance(node, ast.Name) and node.id == handler.name
        for stmt in handler.body
        for node in ast.walk(stmt)
    )


def _handler_builds_failure(handler: ast.ExceptHandler) -> str | None:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
            ):
                leaf = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else node.func.attr
                )
                if leaf == "FailedSolve":
                    return "a FailedSolve record"
                if leaf == "float" and any(
                    isinstance(a, ast.Constant) and a.value == "nan"
                    for a in node.args
                ):
                    return "a NaN point"
            if isinstance(node, ast.Attribute) and node.attr == "nan":
                return "a NaN point"
    return None


def rl014_exception_laundering(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL014: dropped ContractViolations, laundered cancellations."""
    for node in walk_tree(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _handler_catches(node, "ContractViolation"):
            if not _handler_reraises(node) and not _handler_uses_exception(node):
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "RL014",
                    "ContractViolation caught and dropped; the failure "
                    "semantics require its details to be re-raised or "
                    "recorded (a silently swallowed contract breach hides "
                    "corrupt data from every downstream consumer)",
                )
        if _handler_catches(node, "SweepCancelled"):
            laundered = _handler_builds_failure(node)
            if laundered is not None:
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "RL014",
                    f"SweepCancelled converted into {laundered}; "
                    "cancellation is deliberately NOT a solve failure -- "
                    "stand down or record the CANCELLED state instead",
                )


# ---------------------------------------------------------------------------
# RL015: env-var hygiene
# ---------------------------------------------------------------------------

#: Modules allowed to read REPRO_* directly (path suffixes, '/'-normal).
ENV_ACCESSOR_MODULES = (
    "repro/_env.py",
    "repro/contracts/checks.py",
    "repro/faults/injector.py",
    "repro/qbd/rmatrix.py",
)

_ENV_PREFIX = "REPRO_"


def _module_env_constants(tree: ast.Module) -> set[str]:
    constants: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if (
            isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            and value.value.startswith(_ENV_PREFIX)
        ):
            constants.update(
                t.id for t in targets if isinstance(t, ast.Name)
            )
    return constants


def _env_key_expr(call_or_sub: ast.Call | ast.Subscript) -> ast.expr | None:
    if isinstance(call_or_sub, ast.Call):
        return call_or_sub.args[0] if call_or_sub.args else None
    key = call_or_sub.slice
    return key


def _is_environ_expr(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id == "environ"
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "environ"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "os"
    )


def rl015_env_hygiene(tree: ast.AST, path: str) -> Iterator[Violation]:
    """RL015: REPRO_* env reads outside the designated accessor modules."""
    normalized = str(path).replace("\\", "/")
    if any(normalized.endswith(suffix) for suffix in ENV_ACCESSOR_MODULES):
        return
    constants = (
        _module_env_constants(tree) if isinstance(tree, ast.Module) else set()
    )

    def is_repro_key(expr: ast.expr | None) -> str | None:
        if (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, str)
            and expr.value.startswith(_ENV_PREFIX)
        ):
            return expr.value
        if isinstance(expr, ast.Name) and expr.id in constants:
            return expr.id
        return None

    for node in walk_tree(tree):
        key: str | None = None
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "getenv":
                key = is_repro_key(_env_key_expr(node))
            elif isinstance(fn, ast.Attribute) and fn.attr in {"getenv", "get"}:
                if fn.attr == "getenv":
                    if isinstance(fn.value, ast.Name) and fn.value.id == "os":
                        key = is_repro_key(_env_key_expr(node))
                elif _is_environ_expr(fn.value):
                    key = is_repro_key(_env_key_expr(node))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _is_environ_expr(node.value):
                key = is_repro_key(_env_key_expr(node))
        if key is not None:
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                "RL015",
                f"literal read of {key} outside the designated accessor "
                "modules; route it through repro._env (repro_env / "
                "repro_env_required) so distributed workers cannot grow "
                "divergent config backdoors (--fix rewrites simple reads)",
            )


#: Single-file rules, runnable without cross-module context.
FILE_RULES = (
    rl001_frozen_mutation,
    rl002_writable_array_on_dataclass,
    rl003_unitless_time,
    rl004_suppression_near_nan_guard,
    rl005_stationary_on_phase_sum,
    rl006_certificate_soundness,
    rl012_lifecycle_gate_bypass,
    rl013_durable_write_discipline,
    rl014_exception_laundering,
    rl015_env_hygiene,
    shape_rules,
)

#: Backwards-compatible alias (pre-project-analyzer name).
ALL_RULES = FILE_RULES
