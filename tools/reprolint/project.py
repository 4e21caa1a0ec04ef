"""Project-level analysis: one parse of every file, cross-file rules.

:class:`Project` turns a set of paths into

* per-file results -- the single-file rule violations plus a
  JSON-serializable *module summary* (definitions, imports, ``__all__``,
  call sites with dataflow-derived unit evidence, noqa comments);
* a cross-file **symbol table** mapping dotted module names to their
  summaries, through which exported names and call targets resolve
  (following re-export chains such as ``repro.qbd.__init__``);
* the project rules that need that context:

  RL007
      Public entry points of the contract packages (``repro.qbd``,
      ``repro.core``, ``repro.engine``, ``repro.processes``) must show
      contract coverage -- ``@contracted``, validation calls or raising
      guards in the body / ``__init__`` / ``__post_init__`` (inherited
      coverage counts) -- or carry a ``# noqa: RL007 -- reason`` waiver
      on the ``def``/``class`` line.
  RL008
      Unit flow across call sites: a milliseconds-valued argument
      (``*_ms`` name, or proven milliseconds by the dataflow pass)
      passed to a parameter whose name claims another unit (``*_sec``,
      bare ``timeout``/``delay``/...), and vice versa.
  RL009
      Noqa audit: a reprolint suppression whose rule does not actually
      fire on that line (stale), or one without the mandated
      ``-- reason`` trailer.
  RL011
      Solver purity: a public entry point of the solver packages
      (``repro.core``, ``repro.processes``, ``repro.qbd``) whose
      interprocedural effect summary says a parameter array may be
      mutated in place -- directly or through any chain of callees.

The interprocedural layer lives on top of the same summaries: each
file's cached entry carries per-function *definition records* (params,
local effects, outgoing calls); the project pass wires them into a call
graph (:mod:`tools.reprolint.callgraph`) and runs the bottom-up effect
fixpoint (:mod:`tools.reprolint.effects`).  RL007's evidence search
reuses the graph (a one-hop call into a strongly-evidenced callee --
``@contracted`` or a validation call -- counts as coverage).

Results are cached per file keyed by content hash (with an
``mtime_ns``/size fast path that avoids re-reading unchanged files), so
warm re-runs skip parsing and the dataflow pass entirely; the cheap
cross-file passes always run from the summaries.  Parsing/analysis of
cold files fans out over a process pool when ``jobs > 1``.
"""

from __future__ import annotations

import ast
import concurrent.futures
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tools.reprolint import dataflow, effects
from tools.reprolint.callgraph import CallGraph, Node, build_call_graph
from tools.reprolint.core import (
    NoqaComment,
    Violation,
    iter_python_files,
    noqa_map,
    raw_lint_source,
    suppressed,
)
from tools.reprolint.shapes import (
    GENERATOR,
    ORIENTED_KINDS,
    PROB_VECTOR,
    RATE_BLOCK,
    SINK_NAMES,
    STOCHASTIC,
    SUBGENERATOR,
    ArrayFact,
    extract_shape_summary,
)

__all__ = [
    "FileAnalysis",
    "Project",
    "DEFAULT_CONTRACT_PACKAGES",
    "DEFAULT_PURITY_PACKAGES",
]

#: Bump to invalidate every cache entry (rule or summary format changes).
ENGINE_VERSION = "reprolint-4.1"

#: Packages whose exports RL007 holds to contract coverage.
DEFAULT_CONTRACT_PACKAGES = (
    "repro.core",
    "repro.engine",
    "repro.processes",
    "repro.qbd",
)

#: Packages whose exports RL011 holds to solver purity (solvers never
#: mutate inputs; repro.engine is excluded -- its objects own mutable
#: run state by design).
DEFAULT_PURITY_PACKAGES = (
    "repro.core",
    "repro.processes",
    "repro.qbd",
)

_VALIDATION_PREFIXES = ("check_", "validate_")
_VALIDATION_NAMES = {"contracts_enabled"}
_CONTRACT_DECORATOR = "contracted"

Summary = dict[str, Any]


@dataclass
class FileAnalysis:
    """Everything the project pass knows about one file."""

    path: str
    module: str
    #: Single-file rule violations, *before* noqa suppression.
    raw: list[Violation]
    summary: Summary
    noqa: dict[int, NoqaComment]


# ---------------------------------------------------------------------------
# Per-file summarization (runs in worker processes; JSON-only output)
# ---------------------------------------------------------------------------


def _dotted(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return f"{base}.{expr.attr}" if base else None
    return None


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> list[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = _dotted(target)
        if name:
            names.append(name.rsplit(".", maxsplit=1)[-1])
    return names


def _body_has_validation_evidence(node: ast.AST) -> bool:
    """Raising guards or validation calls anywhere in a body."""
    for child in ast.walk(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            return True
        if isinstance(child, ast.Call):
            name = _dotted(child.func)
            if name is None:
                continue
            leaf = name.rsplit(".", maxsplit=1)[-1]
            if leaf in _VALIDATION_NAMES or leaf.startswith(_VALIDATION_PREFIXES):
                return True
    return False


def _function_evidence(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    if _CONTRACT_DECORATOR in _decorator_names(node):
        return True
    return _body_has_validation_evidence(node)


def _param_lists(
    args: ast.arguments,
) -> tuple[list[str], list[str], bool, bool]:
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if positional and positional[0] in {"self", "cls"}:
        positional = positional[1:]
    kwonly = [a.arg for a in args.kwonlyargs]
    return positional, kwonly, args.vararg is not None, args.kwarg is not None


def _call_record(event: dataflow.CallEvent, in_function: str | None) -> Summary | None:
    func = event.node.func
    if isinstance(func, ast.Name):
        target: list[str] = ["name", func.id]
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target = ["attr", func.value.id, func.attr]
    else:
        return None
    return {
        "line": event.node.lineno,
        "col": event.node.col_offset,
        "target": target,
        "pos": [sorted(f) if f else None for f in event.pos_facts],
        "pos_names": event.pos_names,
        "kw": {k: (sorted(f) if f else None) for k, f in event.kw_facts.items()},
        "kw_names": event.kw_names,
        "in_function": in_function,
    }


def _extract_all(tree: ast.Module) -> list[str] | None:
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            names = [
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            return names
    return None


def summarize_module(
    tree: ast.Module, module: str, *, is_package: bool = False
) -> Summary:
    """The cross-file-relevant facts of one parsed module."""
    imports: dict[str, str] = {}
    functions: dict[str, Summary] = {}
    classes: dict[str, Summary] = {}
    calls: list[Summary] = []

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".", maxsplit=1)[0]
                    imports[top] = top
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                # Relative import: resolve against this module's package.
                package_parts = module.split(".")
                # level 1 = the containing package; __init__ module names
                # are already the package, plain modules drop their leaf.
                cut = len(package_parts) - (stmt.level - 1)
                if not is_package:
                    cut -= 1
                base = ".".join(package_parts[: max(cut, 0)])
                if stmt.module:
                    prefix = f"{base}.{stmt.module}" if base else stmt.module
                else:
                    prefix = base
            elif stmt.module is not None:
                prefix = stmt.module
            else:
                continue
            if not prefix:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{prefix}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional, kwonly, has_vararg, has_kwarg = _param_lists(stmt.args)
            functions[stmt.name] = {
                "line": stmt.lineno,
                "col": stmt.col_offset,
                "params": positional,
                "kwonly": kwonly,
                "has_vararg": has_vararg,
                "has_kwarg": has_kwarg,
                "evidence": _function_evidence(stmt),
            }
        elif isinstance(stmt, ast.ClassDef):
            init_params: list[str] | None = None
            init_kwonly: list[str] = []
            has_vararg = has_kwarg = False
            evidence = False
            is_dataclass = "dataclass" in _decorator_names(stmt)
            for item in stmt.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    init_params, init_kwonly, has_vararg, has_kwarg = _param_lists(
                        item.args
                    )
                if item.name in {"__init__", "__post_init__"}:
                    evidence = evidence or _body_has_validation_evidence(item)
            if is_dataclass and init_params is None:
                # Synthesized __init__: field order is the param order.
                init_params = [
                    t.target.id
                    for t in stmt.body
                    if isinstance(t, ast.AnnAssign) and isinstance(t.target, ast.Name)
                ]
            classes[stmt.name] = {
                "line": stmt.lineno,
                "col": stmt.col_offset,
                "bases": [b for b in map(_dotted, stmt.bases) if b],
                "init_params": init_params,
                "init_kwonly": init_kwonly,
                "has_vararg": has_vararg,
                "has_kwarg": has_kwarg,
                "evidence": evidence,
            }

    # Call sites with dataflow facts: module level plus every function
    # and method body.
    module_analysis = dataflow.analyze_module_level(tree)
    for event in module_analysis.calls:
        record = _call_record(event, None)
        if record:
            calls.append(record)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analysis = dataflow.analyze_function(node)
            for event in analysis.calls:
                record = _call_record(event, node.name)
                if record:
                    calls.append(record)

    return {
        "module": module,
        "all": _extract_all(tree),
        "imports": imports,
        "functions": functions,
        "classes": classes,
        "calls": calls,
        # Definition records for the interprocedural layer: per-function
        # params, local effects and outgoing call sites (JSON-only, so
        # they cache with the file like everything else).
        "defs": effects.extract_defs(tree),
    }


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the project root."""
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = Path(path.name)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def _violation_to_json(v: Violation) -> Summary:
    return {
        "path": v.path,
        "line": v.line,
        "col": v.col,
        "code": v.code,
        "message": v.message,
        "extra": list(v.extra_noqa_lines),
    }


def _violation_from_json(data: Summary) -> Violation:
    return Violation(
        path=data["path"],
        line=data["line"],
        col=data["col"],
        code=data["code"],
        message=data["message"],
        extra_noqa_lines=tuple(data.get("extra", ())),
    )


def _noqa_to_json(comments: dict[int, NoqaComment]) -> list[Summary]:
    return [
        {
            "line": c.line,
            "col": c.col,
            "end_col": c.end_col,
            "codes": list(c.codes) if c.codes is not None else None,
            "has_reason": c.has_reason,
        }
        for c in comments.values()
    ]


def _noqa_from_json(data: list[Summary]) -> dict[int, NoqaComment]:
    return {
        entry["line"]: NoqaComment(
            line=entry["line"],
            col=entry["col"],
            end_col=entry["end_col"],
            codes=tuple(entry["codes"]) if entry["codes"] is not None else None,
            has_reason=entry["has_reason"],
        )
        for entry in data
    }


def analyze_source(source: str, path: str, module: str) -> Summary:
    """Parse + lint + summarize one source string (JSON-only result)."""
    raw = raw_lint_source(source, path)
    is_package = Path(path).name == "__init__.py"
    try:
        tree = ast.parse(source, filename=path)
        summary = summarize_module(tree, module, is_package=is_package)
        # Shape/kind facts for the cross-file RL016/RL017 pass; JSON-only
        # so they ride the result cache with everything else.
        summary["shapes"] = extract_shape_summary(tree, path)
    except SyntaxError:
        summary = {
            "module": module,
            "all": None,
            "imports": {},
            "functions": {},
            "classes": {},
            "calls": [],
            "defs": {},
            "shapes": {"functions": {}, "calls": []},
        }
    return {
        "raw": [_violation_to_json(v) for v in raw],
        "summary": summary,
        "noqa": _noqa_to_json(noqa_map(source)),
    }


def _analyze_path_worker(args: tuple[str, str]) -> tuple[str, str, Summary]:
    path, module = args
    source = Path(path).read_text(encoding="utf-8")
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return path, digest, analyze_source(source, path, module)


# ---------------------------------------------------------------------------
# The project
# ---------------------------------------------------------------------------


class Project:
    """Cross-file analyzer over a set of files/directories."""

    def __init__(
        self,
        paths: list[Path],
        *,
        root: Path | None = None,
        cache_path: Path | None = None,
        jobs: int = 1,
        contract_packages: tuple[str, ...] = DEFAULT_CONTRACT_PACKAGES,
        purity_packages: tuple[str, ...] = DEFAULT_PURITY_PACKAGES,
    ) -> None:
        self.paths = [Path(p) for p in paths]
        self.root = Path(root) if root is not None else Path.cwd()
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self.jobs = max(jobs, 1)
        self.contract_packages = contract_packages
        self.purity_packages = purity_packages
        self.files: dict[str, FileAnalysis] = {}
        #: Cold/warm accounting for the cache (exposed for tests/CLI -q).
        self.stats = {"analyzed": 0, "cache_hits": 0}
        self._graph: CallGraph | None = None
        self._summaries: dict[Node, Summary] | None = None

    # -- cache ----------------------------------------------------------
    def _load_cache(self) -> Summary:
        if self.cache_path is None or not self.cache_path.exists():
            return {}
        try:
            data = json.loads(self.cache_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        if data.get("version") != ENGINE_VERSION:
            return {}
        files = data.get("files")
        return files if isinstance(files, dict) else {}

    def _save_cache(self, entries: Summary) -> None:
        if self.cache_path is None:
            return
        payload = {"version": ENGINE_VERSION, "files": entries}
        try:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.cache_path.with_name(
                f"{self.cache_path.name}.tmp.{os.getpid()}"
            )
            tmp.write_text(
                json.dumps(payload, separators=(",", ":")), encoding="utf-8"
            )
            os.replace(tmp, self.cache_path)
        except OSError:
            pass  # a read-only checkout must not break linting

    # -- analysis -------------------------------------------------------
    def analyze(self) -> dict[str, FileAnalysis]:
        """Populate :attr:`files` (cached, parallel where requested)."""
        discovered = list(dict.fromkeys(iter_python_files(self.paths)))
        cache = self._load_cache()
        next_cache: Summary = {}
        pending: list[tuple[str, str]] = []
        self.files = {}
        self.stats = {"analyzed": 0, "cache_hits": 0}
        self._graph = None
        self._summaries = None

        for file_path in discovered:
            key = str(file_path)
            module = module_name_for(file_path, self.root)
            entry = cache.get(key)
            if entry is not None and entry.get("module") == module:
                try:
                    stat = file_path.stat()
                except OSError:
                    continue
                if (
                    entry.get("mtime_ns") == stat.st_mtime_ns
                    and entry.get("size") == stat.st_size
                ):
                    self._accept(key, module, entry["result"])
                    next_cache[key] = entry
                    self.stats["cache_hits"] += 1
                    continue
                source = file_path.read_text(encoding="utf-8")
                digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
                if entry.get("sha256") == digest:
                    refreshed = dict(entry)
                    refreshed["mtime_ns"] = stat.st_mtime_ns
                    refreshed["size"] = stat.st_size
                    self._accept(key, module, entry["result"])
                    next_cache[key] = refreshed
                    self.stats["cache_hits"] += 1
                    continue
            pending.append((key, module))

        for key, digest, result in self._run_pending(pending):
            module = result["summary"]["module"]
            self._accept(key, module, result)
            stat = Path(key).stat()
            next_cache[key] = {
                "module": module,
                "mtime_ns": stat.st_mtime_ns,
                "size": stat.st_size,
                "sha256": digest,
                "result": result,
            }
            self.stats["analyzed"] += 1

        self._save_cache(next_cache)
        return self.files

    def _run_pending(
        self, pending: list[tuple[str, str]]
    ) -> list[tuple[str, str, Summary]]:
        if not pending:
            return []
        if self.jobs == 1 or len(pending) < 4:
            return [_analyze_path_worker(item) for item in pending]
        workers = min(self.jobs, len(pending), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_analyze_path_worker, pending, chunksize=8))

    def _accept(self, path: str, module: str, result: Summary) -> None:
        self.files[path] = FileAnalysis(
            path=path,
            module=module,
            raw=[_violation_from_json(v) for v in result["raw"]],
            summary=result["summary"],
            noqa=_noqa_from_json(result["noqa"]),
        )

    # -- symbol table ----------------------------------------------------
    def _modules(self) -> dict[str, FileAnalysis]:
        return {analysis.module: analysis for analysis in self.files.values()}

    def resolve(
        self,
        module: str,
        name: str,
        modules: dict[str, FileAnalysis],
        depth: int = 8,
    ) -> tuple[str, str, str] | None:
        """Resolve ``name`` in ``module`` to ``(kind, module, name)``.

        Follows import/re-export chains (``repro.qbd`` ->
        ``repro.qbd.rmatrix``); kind is ``"function"`` or ``"class"``.
        Returns None for unresolvable names (external modules,
        constants, dynamic exports).
        """
        if depth <= 0:
            return None
        analysis = modules.get(module)
        if analysis is None:
            return None
        summary = analysis.summary
        if name in summary["functions"]:
            return "function", module, name
        if name in summary["classes"]:
            return "class", module, name
        target = summary["imports"].get(name)
        if target is None or "." not in target:
            return None
        parent, leaf = target.rsplit(".", maxsplit=1)
        return self.resolve(parent, leaf, modules, depth - 1)

    # -- interprocedural layer --------------------------------------------
    def _defs_table(self) -> dict[Node, Summary]:
        """``(module, qualname) -> definition record`` over every file."""
        defs: dict[Node, Summary] = {}
        for analysis in self.files.values():
            for qualname, record in analysis.summary.get("defs", {}).items():
                defs[(analysis.module, qualname)] = record
        return defs

    def _resolve_def(
        self,
        module: str,
        name: str,
        modules: dict[str, FileAnalysis],
        defs: dict[Node, Summary],
    ) -> Node | None:
        """A name in a module -> the definition node it calls into.

        Functions map to themselves; classes map to their ``__init__``
        (the body a constructor call actually runs).
        """
        resolved = self.resolve(module, name, modules)
        if resolved is None:
            return None
        kind, target_module, target_name = resolved
        if kind == "function":
            node = (target_module, target_name)
            return node if node in defs else None
        node = (target_module, f"{target_name}.__init__")
        return node if node in defs else None

    def _resolve_call(
        self,
        module: str,
        qualname: str,
        call: Summary,
        modules: dict[str, FileAnalysis],
        defs: dict[Node, Summary],
    ) -> Node | None:
        """One call record -> its callee node (None for external/dynamic)."""
        target = call["target"]
        if target[0] == "name":
            return self._resolve_def(module, target[1], modules, defs)
        if target[0] == "self":
            # Method call on the caller's own class.
            if "." not in qualname:
                return None
            cls = qualname.split(".", maxsplit=1)[0]
            node = (module, f"{cls}.{target[1]}")
            return node if node in defs else None
        # ["attr", base, attr]: resolvable when base is an imported module.
        base, attr = target[1], target[2]
        analysis = modules.get(module)
        if analysis is None:
            return None
        base_target = analysis.summary["imports"].get(base)
        if base_target is None:
            return None
        return self._resolve_def(base_target, attr, modules, defs)

    def call_graph(self) -> CallGraph:
        """The project-wide call graph (built lazily, after analyze)."""
        if self._graph is None:
            if not self.files:
                self.analyze()
            modules = self._modules()
            defs = self._defs_table()
            self._graph = build_call_graph(
                defs,
                lambda m, q, call: self._resolve_call(m, q, call, modules, defs),
            )
        return self._graph

    def effect_summaries(self) -> dict[Node, Summary]:
        """Transitive per-definition effect summaries (lazy, memoized)."""
        if self._summaries is None:
            if not self.files:
                self.analyze()
            modules = self._modules()
            defs = self._defs_table()
            self._summaries = effects.propagate(
                defs,
                lambda m, q, call: self._resolve_call(m, q, call, modules, defs),
                graph=self.call_graph(),
            )
        return self._summaries

    # -- project rules ----------------------------------------------------
    def _rl011_solver_purity(
        self,
        modules: dict[str, FileAnalysis],
        defs: dict[Node, Summary],
        summaries: dict[Node, Summary],
    ) -> list[Violation]:
        violations: list[Violation] = []
        seen: set[Node] = set()
        for package in self.purity_packages:
            package_analysis = modules.get(package)
            if package_analysis is None:
                continue
            for export in package_analysis.summary["all"] or []:
                resolved = self.resolve(package, export, modules)
                if resolved is None:
                    continue
                kind, module, name = resolved
                if kind == "function":
                    quals = [name]
                else:
                    quals = [f"{name}.__init__", f"{name}.__post_init__"]
                for qualname in quals:
                    node = (module, qualname)
                    record = defs.get(node)
                    summary = summaries.get(node)
                    if record is None or summary is None or node in seen:
                        continue
                    seen.add(node)
                    params = set(record["params"]) | set(record["kwonly"])
                    mutated = {
                        param: reason
                        for param, reason in summary["mutates"].items()
                        if param in params
                    }
                    for param, reason in sorted(mutated.items()):
                        violations.append(
                            Violation(
                                modules[module].path,
                                record["line"],
                                record["col"],
                                "RL011",
                                f"public entry point {package}.{export} may "
                                f"mutate its parameter {param!r} ({reason}); "
                                "solvers never mutate inputs -- copy before "
                                "writing, or freeze and fix the callee",
                            )
                        )
        return violations

    def _rl007_contract_coverage(
        self,
        modules: dict[str, FileAnalysis],
        defs: dict[Node, Summary] | None = None,
    ) -> list[Violation]:
        violations: list[Violation] = []
        seen: set[tuple[str, str]] = set()
        for package in self.contract_packages:
            package_analysis = modules.get(package)
            if package_analysis is None:
                continue
            exports = package_analysis.summary["all"] or []
            for export in exports:
                resolved = self.resolve(package, export, modules)
                if resolved is None:
                    continue  # constants / external names are not entry points
                kind, module, name = resolved
                if (module, name) in seen:
                    continue
                seen.add((module, name))
                definition = modules[module]
                table = definition.summary[
                    "functions" if kind == "function" else "classes"
                ]
                info = table[name]
                if self._has_contract_evidence(kind, module, name, modules):
                    continue
                if defs is not None and self._one_hop_strong_evidence(
                    kind, module, name, modules, defs
                ):
                    continue
                violations.append(
                    Violation(
                        definition.path,
                        info["line"],
                        info["col"],
                        "RL007",
                        f"public entry point {package}.{export} "
                        f"({kind} {module}.{name}) has no contract coverage: "
                        "no @contracted decorator and no validation call or "
                        "raising guard in its body/__init__/__post_init__; "
                        "add checks or waive with '# noqa: RL007 -- reason'",
                    )
                )
        return violations

    def _has_contract_evidence(
        self,
        kind: str,
        module: str,
        name: str,
        modules: dict[str, FileAnalysis],
        depth: int = 5,
    ) -> bool:
        if depth <= 0:
            return False
        analysis = modules.get(module)
        if analysis is None:
            # Unresolvable base class: assume covered rather than guess.
            return True
        table = analysis.summary["functions" if kind == "function" else "classes"]
        info = table.get(name)
        if info is None:
            return False
        if info["evidence"]:
            return True
        if kind == "class":
            for base in info["bases"]:
                leaf = base.rsplit(".", maxsplit=1)[-1]
                resolved = self.resolve(module, leaf, modules)
                if resolved is None:
                    continue
                base_kind, base_module, base_name = resolved
                if base_kind == "class" and self._has_contract_evidence(
                    base_kind, base_module, base_name, modules, depth - 1
                ):
                    return True
        return False

    def _one_hop_strong_evidence(
        self,
        kind: str,
        module: str,
        name: str,
        modules: dict[str, FileAnalysis],
        defs: dict[Node, Summary],
    ) -> bool:
        """Coverage via the call graph: one direct call into a callee with
        *strong* evidence (``@contracted`` or a validation call -- mere
        raising in the callee does not count, so delegated coverage stays
        deliberate rather than accidental)."""
        if kind == "function":
            qualnames = [name]
        else:
            qualnames = [f"{name}.__init__", f"{name}.__post_init__"]
        for qualname in qualnames:
            record = defs.get((module, qualname))
            if record is None:
                continue
            for call in record["calls"]:
                callee = self._resolve_call(module, qualname, call, modules, defs)
                if callee is None:
                    continue
                if defs[callee]["effects"]["strong_evidence"]:
                    return True
        return False

    @staticmethod
    def _unit_of(facts: list[str] | None) -> str | None:
        if not facts:
            return None
        for unit in (dataflow.MS, dataflow.OTHERUNIT, dataflow.BARETIME):
            if unit in facts:
                return unit
        return None

    def _rl008_unit_flow(self, modules: dict[str, FileAnalysis]) -> list[Violation]:
        violations: list[Violation] = []
        for analysis in self.files.values():
            summary = analysis.summary
            for call in summary["calls"]:
                resolved = self._resolve_call_target(call, analysis, modules)
                if resolved is None:
                    continue
                params, kwonly, has_vararg, has_kwarg, callee_label = resolved
                checks: list[tuple[str, list[str] | None, str | None]] = []
                for index, facts in enumerate(call["pos"]):
                    if index >= len(params):
                        break  # *args or miscounted -- stay quiet
                    checks.append(
                        (params[index], facts, call["pos_names"][index])
                    )
                for kw, facts in call["kw"].items():
                    if kw in params or kw in kwonly:
                        checks.append((kw, facts, call["kw_names"].get(kw)))
                for param, facts, arg_name in checks:
                    message = self._unit_mismatch(
                        param, facts, arg_name, callee_label
                    )
                    if message is not None:
                        violations.append(
                            Violation(
                                analysis.path,
                                call["line"],
                                call["col"],
                                "RL008",
                                message,
                            )
                        )
        return violations

    def _resolve_call_target(
        self,
        call: Summary,
        analysis: FileAnalysis,
        modules: dict[str, FileAnalysis],
    ) -> tuple[list[str], list[str], bool, bool, str] | None:
        target = call["target"]
        if target[0] == "name":
            resolved = self.resolve(analysis.module, target[1], modules)
            label = target[1]
        else:
            base, attr = target[1], target[2]
            base_target = analysis.summary["imports"].get(base)
            if base_target is None:
                return None
            resolved = self.resolve(base_target, attr, modules)
            label = f"{base}.{attr}"
        if resolved is None:
            return None
        kind, module, name = resolved
        info = modules[module].summary[
            "functions" if kind == "function" else "classes"
        ]
        entry = info[name]
        if kind == "function":
            return (
                entry["params"],
                entry["kwonly"],
                entry["has_vararg"],
                entry["has_kwarg"],
                label,
            )
        if entry["init_params"] is None:
            return None
        return (
            entry["init_params"],
            entry.get("init_kwonly", []),
            entry["has_vararg"],
            entry["has_kwarg"],
            label,
        )

    def _unit_mismatch(
        self,
        param: str,
        facts: list[str] | None,
        arg_name: str | None,
        callee: str,
    ) -> str | None:
        arg_unit = self._unit_of(facts)
        param_unit = dataflow.unit_evidence_of_name(param)
        if arg_unit is None or param_unit is None:
            return None
        described = arg_name or "argument"
        if arg_unit == dataflow.MS and param_unit != dataflow.MS:
            return (
                f"milliseconds value {described!r} flows into parameter "
                f"{param!r} of {callee}(), which is not a '_ms' name; "
                "convert at the boundary or fix the parameter's unit"
            )
        if arg_unit != dataflow.MS and param_unit == dataflow.MS:
            return (
                f"non-milliseconds value {described!r} flows into "
                f"milliseconds parameter {param!r} of {callee}(); time is "
                "milliseconds repo-wide -- convert before the call"
            )
        return None

    def _rl009_noqa_audit(self, raw_by_file: dict[str, list[Violation]]) -> list[Violation]:
        violations: list[Violation] = []
        for analysis in self.files.values():
            anchored: dict[int, set[str]] = {}
            for violation in raw_by_file.get(analysis.path, ()):
                for line in (violation.line, *violation.extra_noqa_lines):
                    anchored.setdefault(line, set()).add(violation.code)
            for comment in analysis.noqa.values():
                rl_codes = comment.rl_codes
                if not rl_codes:
                    continue
                present = anchored.get(comment.line, set())
                stale = [c for c in rl_codes if c not in present]
                live = [c for c in rl_codes if c in present]
                for code in stale:
                    violations.append(
                        Violation(
                            analysis.path,
                            comment.line,
                            comment.col,
                            "RL009",
                            f"# noqa suppresses {code} but no {code} "
                            "violation fires on this line; remove the stale "
                            "suppression (--fix does this mechanically)",
                        )
                    )
                if live and not comment.has_reason:
                    violations.append(
                        Violation(
                            analysis.path,
                            comment.line,
                            comment.col,
                            "RL009",
                            "reprolint suppression without the mandated "
                            "'-- reason' trailer; write "
                            f"'# noqa: {', '.join(live)} -- <why>'",
                        )
                    )
        return violations

    # -- RL016/RL017 interprocedural: facts through project wrappers -------
    _SHAPE_KIND_CONFLICTS = {
        GENERATOR: frozenset({SUBGENERATOR, RATE_BLOCK, STOCHASTIC}),
        STOCHASTIC: frozenset({GENERATOR, SUBGENERATOR}),
        PROB_VECTOR: frozenset({GENERATOR, SUBGENERATOR}),
    }

    def _rl016_rl017_shape_flow(
        self, modules: dict[str, FileAnalysis]
    ) -> list[Violation]:
        """Shape/kind facts flowing into project wrappers.

        The per-file layer checks direct calls to the known sinks
        (``r_matrix``, ``stationary_distribution``, ...).  This pass
        follows one level further: a project function that *forwards* a
        parameter into such a sink inherits that slot's expectation, and
        every cross-file call site with a conflicting fact is flagged at
        the caller.
        """
        violations: list[Violation] = []
        for analysis in self.files.values():
            shapes = analysis.summary.get("shapes") or {}
            for call in shapes.get("calls", []):
                target = call["target"]
                if target[0] == "name":
                    name = target[1]
                    resolved = self.resolve(analysis.module, name, modules)
                elif target[0] == "attr":
                    name = target[2]
                    base_target = analysis.summary["imports"].get(target[1])
                    resolved = (
                        self.resolve(base_target, name, modules)
                        if base_target
                        else None
                    )
                else:
                    continue
                if name in SINK_NAMES:
                    continue  # already checked by the per-file layer
                if resolved is None or resolved[0] != "function":
                    continue
                _, callee_module, callee_name = resolved
                callee = modules.get(callee_module)
                if callee is None:
                    continue
                callee_shapes = callee.summary.get("shapes") or {}
                expect = (
                    callee_shapes.get("functions", {})
                    .get(callee_name, {})
                    .get("expect")
                )
                if not expect:
                    continue
                signature = callee.summary["functions"].get(callee_name, {})
                params = signature.get("params", [])
                bound: list[tuple[str, ArrayFact]] = []
                for index, fact_json in enumerate(call.get("pos", [])):
                    if fact_json is not None and index < len(params):
                        bound.append(
                            (params[index], ArrayFact.from_json(fact_json))
                        )
                for kw_name, fact_json in call.get("kw", {}).items():
                    if fact_json is not None:
                        bound.append((kw_name, ArrayFact.from_json(fact_json)))
                for param, fact in bound:
                    slot = expect.get(param)
                    if not slot:
                        continue
                    violations.extend(
                        self._shape_slot_conflicts(
                            analysis.path, call, callee_name, param, slot, fact
                        )
                    )
        return violations

    def _shape_slot_conflicts(
        self,
        path: str,
        call: Summary,
        callee_name: str,
        param: str,
        slot: Summary,
        fact: ArrayFact,
    ) -> list[Violation]:
        violations: list[Violation] = []
        expected_kind = slot.get("kind")
        if (
            expected_kind
            and fact.kind in self._SHAPE_KIND_CONFLICTS.get(expected_kind, ())
        ):
            violations.append(
                Violation(
                    path,
                    call["line"],
                    call["col"],
                    "RL017",
                    f"{callee_name}() forwards parameter {param!r} into a "
                    f"{expected_kind}-expecting sink, but this call passes "
                    f"a {fact.kind} value -- convert it (e.g. d0 + d1 for "
                    "the full phase generator) before the call",
                )
            )
        if slot.get("square"):
            if fact.transposed and fact.kind in ORIENTED_KINDS:
                violations.append(
                    Violation(
                        path,
                        call["line"],
                        call["col"],
                        "RL016",
                        f"{callee_name}() forwards parameter {param!r} "
                        "into a square-block sink, but this call passes a "
                        f"transposed {fact.kind}: QBD blocks follow the "
                        "row convention -- drop the .T",
                    )
                )
            elif (
                fact.shape is not None
                and len(fact.shape) == 2
                and all(d.isdigit() for d in fact.shape)
                and fact.shape[0] != fact.shape[1]
            ):
                violations.append(
                    Violation(
                        path,
                        call["line"],
                        call["col"],
                        "RL016",
                        f"{callee_name}() forwards parameter {param!r} "
                        "into a square-block sink, but this call passes "
                        f"shape ({fact.shape[0]}, {fact.shape[1]})",
                    )
                )
        return violations

    # -- entry points ------------------------------------------------------
    def raw_violations(self) -> dict[str, list[Violation]]:
        """All violations before noqa suppression, keyed by file path."""
        if not self.files:
            self.analyze()
        modules = self._modules()
        defs = self._defs_table()
        summaries = self.effect_summaries()
        by_file: dict[str, list[Violation]] = {
            path: list(analysis.raw) for path, analysis in self.files.items()
        }
        for violation in (
            *self._rl007_contract_coverage(modules, defs),
            *self._rl008_unit_flow(modules),
            *self._rl011_solver_purity(modules, defs, summaries),
            *self._rl016_rl017_shape_flow(modules),
        ):
            by_file.setdefault(violation.path, []).append(violation)
        for violation in self._rl009_noqa_audit(by_file):
            by_file.setdefault(violation.path, []).append(violation)
        return by_file

    def lint(self) -> list[Violation]:
        """The unsuppressed violations of the whole project, sorted."""
        by_file = self.raw_violations()
        result: list[Violation] = []
        for path, violations in by_file.items():
            analysis = self.files.get(path)
            comments = analysis.noqa if analysis is not None else {}
            result.extend(
                v for v in violations if not suppressed(v, comments)
            )
        return sorted(result, key=lambda v: (v.path, v.line, v.col, v.code))
