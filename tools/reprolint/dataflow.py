"""Intraprocedural dataflow analysis for reprolint's project rules.

A small forward pass per function body tracking three kinds of facts
about local names (and ``self.<attr>`` pseudo-names):

``array``
    The value is a locally constructed numpy array (factory call,
    ``.copy()``, arithmetic on arrays) -- i.e. "hand-assembled", with no
    external validation certificate attached.
``readonly``
    ``.setflags(write=False)`` or ``.flags.writeable = False`` has run
    on the value **on every path** reaching the program point.
``validated``
    The value passed through ``validate_generator``/``check_generator``
    on every path.
``ms`` / ``otherunit`` / ``baretime``
    Unit evidence: the value is milliseconds-valued (``*_ms`` origin),
    carries a non-millisecond unit suffix (``*_sec``, ...), or is a bare
    time-like name (``timeout``, ``delay``, ...).  Evidence propagates
    through plain assignments, so ``t = timeout_ms; f(t)`` still knows
    ``t`` is milliseconds.

Branches meet by *intersection* (a fact holds only if it holds on all
branches); loop bodies are analysed once and merged with the skip path,
which is conservative for generated facts and sound for kills.  The pass
is deliberately flow-insensitive about aliasing: storing a name on
``self`` links the two (freezing either freezes the stored value).

The analysis reports *events* consumed by the rules:

* certificate assignments (``self._generator_validated = True`` directly
  or via ``object.__setattr__``), with the function's exit-state used to
  decide whether every array stored on ``self`` ends up frozen;
* every call with the unit evidence of each argument, for the
  cross-module unit-flow rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "ARRAY",
    "BARETIME",
    "CallEvent",
    "CertificateEvent",
    "FunctionAnalysis",
    "MS",
    "OTHERUNIT",
    "READONLY",
    "VALIDATED",
    "analyze_function",
    "unit_evidence_of_name",
]

ARRAY = "array"
READONLY = "readonly"
VALIDATED = "validated"
MS = "ms"
OTHERUNIT = "otherunit"
BARETIME = "baretime"

_UNIT_FACTS = frozenset({MS, OTHERUNIT, BARETIME})

_NUMPY_MODULES = {"np", "numpy"}
_ARRAY_FACTORIES = {
    "array",
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "copy",
    "diag",
    "empty",
    "empty_like",
    "eye",
    "full",
    "full_like",
    "kron",
    "ones",
    "ones_like",
    "zeros",
    "zeros_like",
}
_VALIDATION_CALLS = {"validate_generator", "check_generator"}

# Shared with rules.RL003; duplicated here to keep dataflow import-free
# of the rules module (rules imports dataflow, not vice versa).
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

State = dict[str, frozenset[str]]


def unit_evidence_of_name(name: str) -> str | None:
    """Unit evidence carried by a bare identifier, if any."""
    if name.endswith("_ms"):
        return MS
    for suffix in _BAD_UNIT_SUFFIXES:
        if name.endswith(suffix):
            return OTHERUNIT
    if name in _BARE_TIME_NAMES:
        return BARETIME
    return None


def _intrinsic(name: str) -> frozenset[str]:
    evidence = unit_evidence_of_name(name)
    return frozenset((evidence,)) if evidence else frozenset()


@dataclass
class CertificateEvent:
    """``_generator_validated = True`` (or equivalent) in a function."""

    node: ast.stmt
    attr: str


@dataclass
class CallEvent:
    """One call site, with the fact-state evidence of its arguments."""

    node: ast.Call
    #: Unit/array evidence per positional argument (None when the
    #: argument is an expression the pass has no facts for).
    pos_facts: list[frozenset[str] | None]
    #: Same, per keyword argument.
    kw_facts: dict[str, frozenset[str] | None]
    #: Names of positional / keyword args that are plain identifiers
    #: (for messages); parallel to the fact lists, None otherwise.
    pos_names: list[str | None]
    kw_names: dict[str, str | None]


@dataclass
class FunctionAnalysis:
    """Result of the forward pass over one function body."""

    certificates: list[CertificateEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    #: Fact state merged over every exit path of the function.
    exit_state: State = field(default_factory=dict)

    def unfrozen_self_arrays(self) -> list[str]:
        """``self.<attr>`` names holding arrays not read-only at exit."""
        return sorted(
            name
            for name, facts in self.exit_state.items()
            if name.startswith("self.")
            and ARRAY in facts
            and READONLY not in facts
        )


def _merge(a: State, b: State) -> State:
    return {name: a[name] & b[name] for name in a.keys() & b.keys()}


def _merge_all(states: list[State]) -> State:
    if not states:
        return {}
    merged = states[0]
    for other in states[1:]:
        merged = _merge(merged, other)
    return merged


def _is_numpy_factory(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _ARRAY_FACTORIES
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_MODULES
    )


def _self_attr(expr: ast.expr) -> str | None:
    """``self.x`` -> ``"self.x"``; anything else -> None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return f"self.{expr.attr}"
    return None


class _Walker:
    """Executes a function body statement-by-statement over a fact state."""

    def __init__(
        self, helper_freezes: dict[str, dict] | None = None
    ) -> None:
        self.analysis = FunctionAnalysis()
        self._exit_states: list[State] = []
        #: Same-module freeze oracle (``effects.freeze_oracle``): helper
        #: name -> {"params": [...], "freezes": [...], "all_args": bool}.
        #: A call to an oracle helper marks the bound arguments READONLY,
        #: which is what lets RL002/RL006 accept helper-based freezing.
        self._helper_freezes = helper_freezes or {}

    # -- expression evaluation -----------------------------------------
    def eval_expr(self, expr: ast.expr, state: State) -> frozenset[str]:
        if isinstance(expr, ast.Name):
            return state.get(expr.id, _intrinsic(expr.id))
        self_name = _self_attr(expr)
        if self_name is not None:
            return state.get(self_name, _intrinsic(expr.attr))  # type: ignore[union-attr]
        if isinstance(expr, ast.Attribute):
            return _intrinsic(expr.attr)
        if isinstance(expr, ast.Call):
            if _is_numpy_factory(expr):
                return frozenset((ARRAY,))
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "copy":
                # x.copy() is a fresh, writable array when x is one.
                base = self.eval_expr(func.value, state)
                if ARRAY in base:
                    return frozenset((ARRAY,))
            return frozenset()
        if isinstance(expr, ast.BinOp):
            left = self.eval_expr(expr.left, state)
            right = self.eval_expr(expr.right, state)
            # Arithmetic on arrays yields a fresh (writable) array; unit
            # evidence does not survive arbitrary arithmetic.
            if ARRAY in left or ARRAY in right:
                return frozenset((ARRAY,))
            return frozenset()
        if isinstance(expr, ast.UnaryOp):
            inner = self.eval_expr(expr.operand, state)
            return frozenset((ARRAY,)) if ARRAY in inner else frozenset()
        if isinstance(expr, (ast.IfExp,)):
            return self.eval_expr(expr.body, state) & self.eval_expr(
                expr.orelse, state
            )
        return frozenset()

    def _arg_observation(
        self, expr: ast.expr, state: State
    ) -> tuple[frozenset[str] | None, str | None]:
        if isinstance(expr, ast.Name):
            return self.eval_expr(expr, state), expr.id
        self_name = _self_attr(expr)
        if self_name is not None:
            return self.eval_expr(expr, state), self_name
        if isinstance(expr, ast.Attribute):
            return self.eval_expr(expr, state), expr.attr
        facts = self.eval_expr(expr, state)
        return (facts or None), None

    # -- effects of calls ----------------------------------------------
    def _apply_call_effects(self, call: ast.Call, state: State) -> None:
        func = call.func
        # x.setflags(write=False) / self.x.setflags(write=False)
        if isinstance(func, ast.Attribute) and func.attr == "setflags":
            receiver = func.value
            target = None
            if isinstance(receiver, ast.Name):
                target = receiver.id
            else:
                target = _self_attr(receiver)
            if target is not None and any(
                kw.arg == "write"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in call.keywords
            ):
                state[target] = state.get(target, frozenset()) | {READONLY}
            return
        # _freeze(a, b) where _freeze is an unconditionally freezing
        # same-module helper (one level: the oracle is built from helper
        # bodies only, so transitive or conditional freezing stays out).
        if isinstance(func, ast.Name) and func.id in self._helper_freezes:
            info = self._helper_freezes[func.id]
            params: list[str] = info.get("params", [])
            frozen = set(info.get("freezes", ()))
            all_args = bool(info.get("all_args", False))
            for index, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    continue
                covered = all_args or (
                    index < len(params) and params[index] in frozen
                )
                if not covered:
                    continue
                target = (
                    arg.id if isinstance(arg, ast.Name) else _self_attr(arg)
                )
                if target is not None:
                    state[target] = state.get(target, frozenset()) | {READONLY}
            for kw in call.keywords:
                if kw.arg is None or kw.arg not in frozen:
                    continue
                target = (
                    kw.value.id
                    if isinstance(kw.value, ast.Name)
                    else _self_attr(kw.value)
                )
                if target is not None:
                    state[target] = state.get(target, frozenset()) | {READONLY}
        # validate_generator(x) / check_generator(x, ...)
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in _VALIDATION_CALLS and call.args:
            arg = call.args[0]
            target = (
                arg.id if isinstance(arg, ast.Name) else _self_attr(arg)
            )
            if target is not None:
                state[target] = state.get(target, frozenset()) | {VALIDATED}

    def _record_calls_in(self, expr: ast.expr, state: State) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            self._apply_call_effects(node, state)
            pos_facts: list[frozenset[str] | None] = []
            pos_names: list[str | None] = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    pos_facts.append(None)
                    pos_names.append(None)
                    continue
                facts, name = self._arg_observation(arg, state)
                pos_facts.append(facts)
                pos_names.append(name)
            kw_facts: dict[str, frozenset[str] | None] = {}
            kw_names: dict[str, str | None] = {}
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                facts, name = self._arg_observation(kw.value, state)
                kw_facts[kw.arg] = facts
                kw_names[kw.arg] = name
            self.analysis.calls.append(
                CallEvent(node, pos_facts, kw_facts, pos_names, kw_names)
            )

    # -- statement execution -------------------------------------------
    def exec_block(self, stmts: list[ast.stmt], state: State) -> State | None:
        """Run ``stmts`` over ``state``; None means the path terminated."""
        current: State | None = state
        for stmt in stmts:
            if current is None:
                break
            current = self.exec_stmt(stmt, current)
        return current

    def _assign_target(
        self, target: ast.expr, facts: frozenset[str], state: State, node: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            state[target.id] = facts
            return
        self_name = _self_attr(target)
        if self_name is not None:
            if self_name == "self._generator_validated":
                self.analysis.certificates.append(
                    CertificateEvent(node, "_generator_validated")
                )
            state[self_name] = facts
            return
        # x.flags.writeable = False
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
        ):
            receiver = target.value.value
            name = (
                receiver.id
                if isinstance(receiver, ast.Name)
                else _self_attr(receiver)
            )
            if name is not None:
                state[name] = state.get(name, frozenset()) | {READONLY}

    def _maybe_object_setattr(self, call: ast.Call, state: State, node: ast.stmt) -> bool:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and len(call.args) == 3
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id == "self"
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[1].value, str)
        ):
            return False
        attr = call.args[1].value
        facts = self.eval_expr(call.args[2], state)
        if attr == "_generator_validated":
            self.analysis.certificates.append(
                CertificateEvent(node, "_generator_validated")
            )
        state[f"self.{attr}"] = facts
        return True

    def exec_stmt(self, stmt: ast.stmt, state: State) -> State | None:
        if isinstance(stmt, ast.Assign):
            self._record_calls_in(stmt.value, state)
            facts = self.eval_expr(stmt.value, state)
            for target in stmt.targets:
                self._assign_target(target, facts, state, stmt)
            return state
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._record_calls_in(stmt.value, state)
            facts = self.eval_expr(stmt.value, state)
            self._assign_target(stmt.target, facts, state, stmt)
            return state
        if isinstance(stmt, ast.AugAssign):
            self._record_calls_in(stmt.value, state)
            # In-place arithmetic keeps identity but not read-onlyness
            # facts we could certify (x += 1 on a frozen array raises,
            # so a reachable AugAssign means the array was writable).
            if isinstance(stmt.target, ast.Name):
                old = state.get(stmt.target.id, frozenset())
                state[stmt.target.id] = old - {READONLY, VALIDATED}
            return state
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Call) and self._maybe_object_setattr(
                stmt.value, state, stmt
            ):
                # Still scan nested calls inside the stored value.
                for arg in stmt.value.args[2:]:
                    self._record_calls_in(arg, state)
                return state
            self._record_calls_in(stmt.value, state)
            return state
        if isinstance(stmt, ast.If):
            self._record_calls_in(stmt.test, state)
            then_state = self.exec_block(stmt.body, dict(state))
            else_state = self.exec_block(stmt.orelse, dict(state))
            live = [s for s in (then_state, else_state) if s is not None]
            if not live:
                return None
            return _merge_all(live)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record_calls_in(stmt.iter, state)
            body_state = self.exec_block(stmt.body, dict(state))
            after = [dict(state)]
            if body_state is not None:
                after.append(body_state)
            merged = _merge_all(after)
            if stmt.orelse:
                else_state = self.exec_block(stmt.orelse, merged)
                return else_state
            return merged
        if isinstance(stmt, ast.While):
            self._record_calls_in(stmt.test, state)
            body_state = self.exec_block(stmt.body, dict(state))
            after = [dict(state)]
            if body_state is not None:
                after.append(body_state)
            return _merge_all(after)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._record_calls_in(item.context_expr, state)
            return self.exec_block(stmt.body, state)
        if isinstance(stmt, ast.Try):
            body_state = self.exec_block(stmt.body, dict(state))
            paths = []
            if body_state is not None:
                else_state = (
                    self.exec_block(stmt.orelse, dict(body_state))
                    if stmt.orelse
                    else body_state
                )
                if else_state is not None:
                    paths.append(else_state)
            for handler in stmt.handlers:
                # A handler may run after any prefix of the body; start
                # from the pre-try state for soundness.
                handler_state = self.exec_block(handler.body, dict(state))
                if handler_state is not None:
                    paths.append(handler_state)
            if not paths:
                merged: State | None = None
            else:
                merged = _merge_all(paths)
            if stmt.finalbody:
                merged = self.exec_block(stmt.finalbody, merged or dict(state))
            return merged
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._record_calls_in(stmt.value, state)
            self._exit_states.append(dict(state))
            return None
        if isinstance(stmt, ast.Raise):
            # Exceptional exits do not certify anything; ignore them in
            # the exit merge (the certificate never becomes observable).
            return None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested scopes are analysed separately.
            return state
        if isinstance(stmt, (ast.Assert, ast.Delete, ast.Global, ast.Nonlocal, ast.Pass)):
            return state
        # Fallback: scan expressions for calls, keep state unchanged.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._record_calls_in(child, state)
        return state

    def run(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionAnalysis:
        state: State = {}
        fallthrough = self.exec_block(list(func.body), state)
        exits = list(self._exit_states)
        if fallthrough is not None:
            exits.append(fallthrough)
        self.analysis.exit_state = _merge_all(exits) if exits else {}
        return self.analysis


def analyze_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    helper_freezes: dict[str, dict] | None = None,
) -> FunctionAnalysis:
    """Run the forward fact pass over one function body.

    ``helper_freezes`` is the same-module freeze oracle produced by
    :func:`tools.reprolint.effects.freeze_oracle`; when given, a call to
    an oracle helper marks the frozen-bound arguments READONLY.
    """
    return _Walker(helper_freezes).run(func)


def analyze_module_level(tree: ast.Module) -> FunctionAnalysis:
    """Run the pass over module-level statements (calls only)."""
    walker = _Walker()
    state: State = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        result = walker.exec_stmt(stmt, state)
        if result is None:
            break
        state = result
    walker.analysis.exit_state = state
    return walker.analysis
