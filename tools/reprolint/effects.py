"""Per-function effect summaries and the interprocedural fixpoint.

The interprocedural layer works in two stages:

1. **Local extraction** (:func:`extract_defs`) runs per file, so its
   output is cacheable alongside the file's other summary data: every
   top-level function and every method gets a JSON record of its *local*
   effects -- which parameters it may mutate in place (augmented
   assignment, subscript/attribute stores, ``setflags(write=True)``,
   in-place ndarray methods, ``out=`` aliasing, including through
   ``np.asarray``-style aliases of a parameter), which parameters it
   provably freezes on every non-raising path, whether it writes files,
   may raise, and whether it carries
   *strong* contract evidence (an ``@contracted`` decorator or a
   ``validate_*``/``check_*`` call) -- plus its outgoing call sites with
   argument name bindings.

2. **Propagation** (:func:`propagate`) runs in the always-recomputed
   project pass: a bottom-up walk over the SCCs of the call graph unions
   callee effects into callers, with a per-SCC fixpoint for recursion.
   ``solve()`` calling ``_step(x)`` that does ``x *= 2`` thereby reports
   ``solve`` as mutating its own argument.

May-facts (mutation, file writes, raising) only ever
*grow* during propagation, so the fixpoint terminates.  Must-facts (the
freeze set) are deliberately **not** propagated interprocedurally:
inside a cycle a freeze cannot be certified bottom-up, and cross-module
must-facts would make the per-file result cache unsound (a caller's
cached verdict would have to be invalidated by an edit to another
module).  The freeze oracle consumed by RL002/RL006
(:func:`freeze_oracle`) is therefore restricted to *directly called,
same-module, unconditionally freezing helpers* -- one level, no
transitivity -- which is also the contract CLAUDE.md documents.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from typing import Any

from tools.reprolint import dataflow
from tools.reprolint.callgraph import CallGraph, Node

__all__ = [
    "extract_defs",
    "freeze_oracle",
    "local_effects",
    "propagate",
    "walk_scope",
]

_NUMPY_MODULES = {"np", "numpy"}

#: numpy calls that may *alias* their first argument (no copy guarantee).
_ALIASING_FACTORIES = {"asarray", "ascontiguousarray", "asfortranarray", "atleast_1d", "atleast_2d"}

#: ndarray methods that mutate the receiver in place.
_INPLACE_METHODS = {"fill", "sort", "partition", "put", "itemset", "resize", "setfield", "byteswap"}

_VALIDATION_PREFIXES = ("check_", "validate_")
_VALIDATION_NAMES = {"contracts_enabled"}
_CONTRACT_DECORATOR = "contracted"

_WRITE_MODES = ("w", "a", "x")


def walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` restricted to one scope: nested defs are not entered."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if node is not root and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node is root:
                continue
            stack.append(child)


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[list[str], list[str], str | None]:
    args = func.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if positional and positional[0] in {"self", "cls"}:
        positional = positional[1:]
    kwonly = [a.arg for a in args.kwonlyargs]
    vararg = args.vararg.arg if args.vararg is not None else None
    return positional, kwonly, vararg


def _leaf_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_aliasing_factory(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _ALIASING_FACTORIES
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_MODULES
    )


def _alias_map(func: ast.FunctionDef | ast.AsyncFunctionDef, params: set[str]) -> dict[str, str]:
    """Local name -> the parameter it may alias (identity-preserving flows).

    Tracks ``x = p`` and ``x = np.asarray(p, ...)`` (the asarray family
    returns its input unchanged when it is already a matching ndarray,
    so mutating the result mutates the caller's array).  Conservative:
    reassignments never *remove* an alias.
    """
    aliases: dict[str, str] = {p: p for p in params}
    # Two passes reach x = p; y = x chains regardless of walk order.
    for _ in range(2):
        for node in walk_scope(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            source: str | None = None
            if isinstance(value, ast.Name):
                source = value.id
            elif (
                isinstance(value, ast.Call)
                and _is_aliasing_factory(value)
                and value.args
                and isinstance(value.args[0], ast.Name)
            ):
                source = value.args[0].id
            if source is None or source not in aliases:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.setdefault(target.id, aliases[source])
    return aliases


def _mutation_events(
    func: ast.FunctionDef | ast.AsyncFunctionDef, aliases: dict[str, str]
) -> dict[str, str]:
    """Parameter name -> human-readable reason it may be mutated in place."""

    def root_of(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return root_of(expr.value)
        return None

    mutated: dict[str, str] = {}

    def record(param: str | None, what: str, line: int) -> None:
        if param is not None and param not in mutated:
            mutated[param] = f"{what} in {func.name}() at line {line}"

    for node in walk_scope(func):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name):
                record(aliases.get(target.id), "augmented assignment", node.lineno)
            elif isinstance(target, ast.Subscript):
                record(root_of(target.value), "augmented subscript store", node.lineno)
            elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                record(aliases.get(target.value.id), "augmented attribute store", node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    record(root_of(target.value), "subscript store", node.lineno)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.attr != "writeable"  # x.flags.writeable=False is a freeze
                ):
                    record(aliases.get(target.value.id), "attribute store", node.lineno)
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
                receiver = aliases.get(fn.value.id)
                if fn.attr == "setflags" and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                ):
                    record(receiver, "setflags(write=True)", node.lineno)
                elif fn.attr in _INPLACE_METHODS:
                    record(receiver, f"in-place .{fn.attr}()", node.lineno)
            for kw in node.keywords:
                if kw.arg == "out" and isinstance(kw.value, ast.Name):
                    record(aliases.get(kw.value.id), "out= target", node.lineno)
    return mutated


def _freezes(func: ast.FunctionDef | ast.AsyncFunctionDef, params: list[str]) -> list[str]:
    """Parameters provably read-only at every non-raising exit."""
    analysis = dataflow.analyze_function(func)
    return [
        p
        for p in params
        if dataflow.READONLY in analysis.exit_state.get(p, frozenset())
    ]


def _freezes_all_varargs(
    func: ast.FunctionDef | ast.AsyncFunctionDef, vararg: str | None
) -> bool:
    """``for a in <vararg>: a.setflags(write=False)`` as a top-level stmt.

    Vacuously sound: every member of the vararg tuple goes through the
    loop body, so each positional argument at a call site ends frozen.
    """
    if vararg is None:
        return False
    for stmt in func.body:
        if not isinstance(stmt, ast.For):
            continue
        if not (isinstance(stmt.iter, ast.Name) and stmt.iter.id == vararg):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        item = stmt.target.id
        for inner in stmt.body:
            if not isinstance(inner, ast.Expr) or not isinstance(inner.value, ast.Call):
                continue
            call = inner.value
            fn = call.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "setflags"
                and isinstance(fn.value, ast.Name)
                and fn.value.id == item
                and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in call.keywords
                )
            ):
                return True
    return False


def _open_mode_writes(call: ast.Call) -> bool:
    mode: ast.expr | None = None
    if len(call.args) > 1:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in _WRITE_MODES)
    )


def _booleans(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, bool]:
    writes_file = may_raise = strong = False
    for decorator in func.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _leaf_name(target) == _CONTRACT_DECORATOR:
            strong = True
    for node in walk_scope(func):
        if isinstance(node, (ast.Raise, ast.Assert)):
            may_raise = True
        elif isinstance(node, ast.Call):
            fn = node.func
            leaf = _leaf_name(fn)
            if leaf is None:
                continue
            if leaf in _VALIDATION_NAMES or leaf.startswith(_VALIDATION_PREFIXES):
                strong = True
            if isinstance(fn, ast.Name):
                if leaf == "open" and _open_mode_writes(node):
                    writes_file = True
            elif isinstance(fn, ast.Attribute):
                base = fn.value
                base_name = base.id if isinstance(base, ast.Name) else None
                if leaf in {"write_text", "write_bytes"}:
                    writes_file = True
                elif leaf == "open" and _open_mode_writes(node):
                    writes_file = True
                elif leaf == "dump" and base_name in {"json", "pickle", "marshal"}:
                    writes_file = True
    return {
        "writes_file": writes_file,
        "may_raise": may_raise,
        "strong_evidence": strong,
    }


def _call_records(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[dict[str, Any]]:
    records: list[dict[str, Any]] = []
    for node in walk_scope(func):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name):
            target: list[str] = ["name", fn.id]
        elif isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            if fn.value.id == "self":
                target = ["self", fn.attr]
            else:
                target = ["attr", fn.value.id, fn.attr]
        else:
            continue
        pos_names = [
            arg.id if isinstance(arg, ast.Name) else None
            for arg in node.args
            if not isinstance(arg, ast.Starred)
        ]
        kw_names = {
            kw.arg: (kw.value.id if isinstance(kw.value, ast.Name) else None)
            for kw in node.keywords
            if kw.arg is not None
        }
        records.append(
            {
                "line": node.lineno,
                "col": node.col_offset,
                "target": target,
                "pos_names": pos_names,
                "kw_names": kw_names,
            }
        )
    return records


def local_effects(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, Any]:
    """The JSON-able local effect record of one function body."""
    positional, kwonly, vararg = _param_names(func)
    params = set(positional) | set(kwonly)
    aliases = _alias_map(func, params)
    effects = {
        "mutates": _mutation_events(func, aliases),
        "freezes": _freezes(func, [*positional, *kwonly]),
        "freezes_all_args": _freezes_all_varargs(func, vararg),
        **_booleans(func),
    }
    return effects


def extract_defs(tree: ast.Module) -> dict[str, dict[str, Any]]:
    """Qualname -> definition record for every function/method in a module.

    Qualnames are top-level function names and ``Class.method``; nested
    functions and deeper class nesting are out of scope (the effect
    analysis treats them as part of their enclosing definition's body
    only insofar as their *calls* are not attributed -- conservative for
    must-facts, and may-facts of nested defs rarely matter in this
    codebase's idiom).
    """
    defs: dict[str, dict[str, Any]] = {}

    def record(func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str) -> None:
        positional, kwonly, vararg = _param_names(func)
        defs[qualname] = {
            "line": func.lineno,
            "col": func.col_offset,
            "params": positional,
            "kwonly": kwonly,
            "vararg": vararg is not None,
            "effects": local_effects(func),
            "calls": _call_records(func),
        }

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record(stmt, stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    record(item, f"{stmt.name}.{item.name}")
    return defs


def freeze_oracle(tree: ast.Module) -> dict[str, dict[str, Any]]:
    """Same-module helper functions that *unconditionally* freeze arguments.

    Returns ``{helper_name: {"params": [...], "freezes": [...],
    "all_args": bool}}`` for every top-level function that provably
    freezes at least one of its parameters on all non-raising paths, or
    freezes its whole vararg tuple via the
    ``for a in arrays: a.setflags(write=False)`` idiom.  This is the
    one-level helper contract RL002/RL006 honour: the oracle is built
    from the helper's *own* body only (no transitivity), so a freeze
    hidden two helpers deep -- or behind a condition -- stays invisible
    and the certificate is still flagged.
    """
    oracle: dict[str, dict[str, Any]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional, kwonly, vararg = _param_names(stmt)
        frozen = _freezes(stmt, [*positional, *kwonly])
        all_args = _freezes_all_varargs(stmt, vararg)
        if frozen or all_args:
            oracle[stmt.name] = {
                "params": positional,
                "freezes": frozen,
                "all_args": all_args,
            }
    return oracle


# ---------------------------------------------------------------------------
# Interprocedural propagation
# ---------------------------------------------------------------------------


def _bindings(
    call: dict[str, Any], callee: dict[str, Any]
) -> Iterator[tuple[str, str]]:
    """``(caller_arg_name, callee_param_name)`` pairs of one call site."""
    params = callee["params"]
    for index, name in enumerate(call["pos_names"]):
        if name is None:
            continue
        if index < len(params):
            yield name, params[index]
    for kw, name in call["kw_names"].items():
        if name is None:
            continue
        if kw in params or kw in callee["kwonly"]:
            yield name, kw


_BOOL_EFFECTS = ("writes_file", "may_raise")


def propagate(
    defs: dict[Node, dict[str, Any]],
    resolve: Callable[[str, str, dict[str, Any]], Node | None],
    *,
    graph: CallGraph | None = None,
) -> dict[Node, dict[str, Any]]:
    """Transitive effect summaries, bottom-up over call-graph SCCs.

    ``defs`` maps ``(module, qualname)`` to the records of
    :func:`extract_defs`; ``resolve`` maps a call record to its callee
    node (or ``None`` for external/dynamic targets).  Returns a summary
    per node: the local effects plus everything reachable through
    resolved calls.  Within an SCC the union iterates to a fixpoint;
    effects only grow, so termination is bounded by the SCC's total
    effect count.
    """
    if graph is None:
        from tools.reprolint.callgraph import build_call_graph

        graph = build_call_graph(defs, resolve)
    summaries: dict[Node, dict[str, Any]] = {}
    for component in graph.sccs():
        members = [node for node in component if node in defs]
        for node in members:
            local = defs[node]["effects"]
            summaries[node] = {
                "mutates": dict(local["mutates"]),
                **{flag: bool(local[flag]) for flag in _BOOL_EFFECTS},
                "strong_evidence": bool(local["strong_evidence"]),
            }
        changed = True
        while changed:
            changed = False
            for node in members:
                mine = summaries[node]
                record = defs[node]
                own_params = set(record["params"]) | set(record["kwonly"])
                for callee, call in graph.callees(node):
                    theirs = summaries.get(callee)
                    if theirs is None:
                        continue  # callee outside defs (should not happen)
                    for flag in _BOOL_EFFECTS:
                        if theirs[flag] and not mine[flag]:
                            mine[flag] = True
                            changed = True
                    if not theirs["mutates"]:
                        continue
                    for arg_name, param in _bindings(call, defs[callee]):
                        if (
                            param in theirs["mutates"]
                            and arg_name in own_params
                            and arg_name not in mine["mutates"]
                        ):
                            mine["mutates"][arg_name] = (
                                f"via call to {callee[1]}() at line {call['line']} "
                                f"({theirs['mutates'][param]})"
                            )
                            changed = True
    return summaries
