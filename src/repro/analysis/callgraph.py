"""Interprocedural facts: per-file symbol/call extraction + the project call graph.

The per-file checkers (PR 8) are deliberately blind across call
boundaries — and that is exactly where the repo's plumbing bugs lived:
a ``conflict_budget`` accepted by a caller and silently not forwarded to
the callee that also accepts it (PR 4), shims drifting away from the
code they claim to wrap, and mutable module state reached from code the
thread/process dispatch layer runs concurrently.  This module adds the
interprocedural layer those checks need, in the same two-phase shape as
everything else in :mod:`repro.analysis`:

* :func:`extract_callgraph_facts` — a single per-file AST pass producing
  JSON-able *symbol facts*: the module's import alias table, its
  module-level mutable state and ``SHARED_STATE`` declarations, and one
  record per function/method (parameters, annotations, call sites with
  argument descriptors, global/class-attribute mutations with their
  lock-guard status, deprecation warnings, control-flow summary).  The
  engine stores these under the reserved :data:`CALLGRAPH_KEY` facts key
  so they ride the existing digest-keyed fact cache; bump
  :data:`CALLGRAPH_VERSION` whenever the fact shape changes.

* :func:`build_call_graph` — composes every file's symbol facts into a
  :class:`CallGraph`: function nodes indexed by ``module:qualname`` and
  call edges with *parameter-flow summaries* (which callee parameters
  received a value, and which were forwarded verbatim from a caller
  parameter).  Exposed to checkers as ``project.call_graph()`` and built
  at most once per engine run.

Call resolution is static and deliberately modest — no type inference,
just the cases the repo actually uses:

* bare names: module-level functions/classes of the same module, or
  names bound by ``import``/``from ... import`` (relative imports are
  resolved against the file's package);
* ``self.method(...)``: the enclosing class, then project-resolved base
  classes (a static MRO walk);
* ``param.method(...)`` / ``var.method(...)`` where the receiver carries
  a resolvable class annotation (``check: LocalCheck``);
* ``Class(...)`` instantiation: an edge to ``Class.__init__``;
* ``Class(...).method(...)``: constructor-chained method calls;
* higher-order *may-call* edges: a bare-name argument resolving to a
  project function (``pool.map(_run_threaded, ...)``, a transfer
  function passed as a parameter) links the caller to that function with
  no argument information.

Unresolvable calls are dropped, so the graph under-approximates — the
right failure mode for lint: every edge it reports is real.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:
    from repro.analysis.registry import Project

#: Reserved facts key the engine stores symbol facts under (like the
#: suppression index, these are engine-level facts, not a checker's).
CALLGRAPH_KEY = "__callgraph__"

#: Bump when the extracted fact shape changes; invalidates cached facts.
CALLGRAPH_VERSION = 1

#: Module/class-level tuple declaring names as deliberately shared
#: mutable state (the concurrency checker's analogue of PICKLE_ROOTS).
SHARED_STATE_DECL = "SHARED_STATE"

_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "sort",
    }
)

#: A module *declares itself* a shim with this phrase in its docstring's
#: first line ("Compatibility shim — ...", "now a deprecated shim over
#: ...").  A bare "shim" is not enough: modules *about* shims (this
#: checker suite) would self-match.
_SHIM_MODULE_PHRASE = re.compile(
    r"(compatibility|deprecated|deprecation)\s+shim", re.IGNORECASE
)

_CONTROL_FLOW = {
    ast.If: "if",
    ast.For: "for",
    ast.While: "while",
    ast.Try: "try",
    ast.With: "with",
    ast.Match: "match",
}


def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/core/safety.py`` -> ``repro.core.safety``;
    ``fixtures/caller.py`` -> ``fixtures.caller``; ``pkg/__init__.py``
    -> ``pkg``.  A leading ``src/`` component is dropped so repo paths
    match their import names.
    """
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def _dotted(expr: ast.expr) -> str | None:
    """A dotted rendering of a call target, or ``None`` if not dotted.

    Constructor chains render with a ``()`` marker:
    ``SerialBackend(x).run`` -> ``SerialBackend().run``.
    """
    parts: list[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        elif isinstance(node, ast.Call):
            inner = _dotted(node.func)
            if inner is None or "." in inner or not parts:
                return None
            parts.append(inner + "()")
            return ".".join(reversed(parts))
        else:
            return None


def _string_names(node: ast.expr) -> list[str]:
    """Elements of a literal tuple/list of strings (declaration syntax)."""
    names: list[str] = []
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
    return names


def _mutable_kind(value: ast.expr) -> str | None:
    """'dict'/'list'/'set'/... when ``value`` builds mutable state."""
    if isinstance(value, ast.Dict):
        return "dict"
    if isinstance(value, ast.List):
        return "list"
    if isinstance(value, ast.Set):
        return "set"
    if isinstance(value, ast.ListComp):
        return "list"
    if isinstance(value, ast.DictComp):
        return "dict"
    if isinstance(value, ast.SetComp):
        return "set"
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        if name in ("dict", "list", "set", "collections.defaultdict",
                    "defaultdict", "collections.deque", "deque",
                    "collections.Counter", "Counter", "bytearray"):
            return name.split(".")[-1]
    return None


def _annotation_name(node: ast.expr | None) -> str | None:
    """The dotted class name an annotation resolves the receiver to.

    Handles ``LocalCheck``, ``mod.LocalCheck``, ``"LocalCheck"`` (string
    annotations), and ``Optional[X]`` / ``X | None`` by unwrapping to the
    single non-``None`` operand.  Anything more elaborate returns None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            return None
        return _annotation_name(parsed.body)
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        operands = [node.left, node.right]
        names = []
        for operand in operands:
            if isinstance(operand, ast.Constant) and operand.value is None:
                continue
            names.append(_annotation_name(operand))
        if len(names) == 1:
            return names[0]
        return None
    if isinstance(node, ast.Subscript):
        outer = _dotted(node.value)
        if outer in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
    return None


class _FunctionCollector(ast.NodeVisitor):
    """Collects one function's calls, mutations, and statement summary."""

    def __init__(self, self_name: str | None) -> None:
        self.self_name = self_name
        self.calls: list[dict[str, Any]] = []
        self.global_writes: list[dict[str, Any]] = []
        self.self_writes: list[dict[str, Any]] = []
        self.self_assigned: list[str] = []
        self.control_flow: list[list[Any]] = []
        self.nested_defs: list[list[Any]] = []
        self.warns_deprecation = False
        self.annotations: dict[str, str] = {}
        self._with_lock_depth = 0

    # -- helpers -------------------------------------------------------

    def _guarded(self) -> bool:
        return self._with_lock_depth > 0

    def _record_name_mutation(self, name: str, line: int) -> None:
        self.global_writes.append(
            {"name": name, "line": line, "guarded": self._guarded()}
        )

    def _record_self_mutation(self, attr: str, line: int) -> None:
        self.self_writes.append(
            {"attr": attr, "line": line, "guarded": self._guarded()}
        )

    def _mutation_target(self, target: ast.expr, line: int) -> None:
        """A store through a subscript/attribute mutates its receiver."""
        if isinstance(target, ast.Subscript):
            receiver = target.value
            if isinstance(receiver, ast.Name):
                self._record_name_mutation(receiver.id, line)
            elif (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == self.self_name
            ):
                self._record_self_mutation(receiver.attr, line)

    # -- statement visitors --------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        lock_like = any(
            (lambda name: name is not None and "lock" in name.lower())(
                _dotted(item.context_expr.func)
                if isinstance(item.context_expr, ast.Call)
                else _dotted(item.context_expr)
            )
            for item in node.items
        )
        self._note_control_flow(node)
        if lock_like:
            self._with_lock_depth += 1
            self.generic_visit(node)
            self._with_lock_depth -= 1
        else:
            self.generic_visit(node)

    def _note_control_flow(self, node: ast.stmt) -> None:
        kind = _CONTROL_FLOW.get(type(node))
        if kind is not None:
            self.control_flow.append([kind, node.lineno])

    def visit_If(self, node: ast.If) -> None:
        self._note_control_flow(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._note_control_flow(node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._note_control_flow(node)
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        self._note_control_flow(node)
        self.generic_visit(node)

    def visit_Match(self, node: ast.Match) -> None:
        self._note_control_flow(node)
        self.generic_visit(node)

    def _visit_nested(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # Nested definitions are folded into the enclosing function: the
        # dispatch idiom wraps the real work in a local closure
        # (``_dispatch`` inside ``WorkerPool.run``), and the
        # closure's calls and writes happen whenever the encloser runs
        # it.  Nested parameter annotations join the receiver table
        # (without shadowing the encloser's) so ``check: LocalCheck``
        # still resolves ``check.run``.
        self.nested_defs.append([node.name, node.lineno])
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            annotation = _annotation_name(a.annotation)
            if annotation is not None:
                self.annotations.setdefault(a.arg, annotation)
        for stmt in node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.nested_defs.append([node.name, node.lineno])

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # opaque; do not collect its internals

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mutation_target(target, node.lineno)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self.self_name
            ):
                self.self_assigned.append(target.attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            annotation = _annotation_name(node.annotation)
            if annotation is not None:
                self.annotations[node.target.id] = annotation
        self._mutation_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mutation_target(node.target, node.lineno)
        if isinstance(node.target, ast.Name):
            self._record_name_mutation(node.target.id, node.lineno)
        elif (
            isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == self.self_name
        ):
            self._record_self_mutation(node.target.attr, node.lineno)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self._record_name_mutation(name, node.lineno)

    def visit_Call(self, node: ast.Call) -> None:
        self._collect_call(node)
        self.generic_visit(node)

    def _collect_call(self, node: ast.Call) -> None:
        target = _dotted(node.func)
        # Mutating method call on a module-level name or self attribute.
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATING_METHODS:
            receiver = node.func.value
            if isinstance(receiver, ast.Name):
                self._record_name_mutation(receiver.id, node.lineno)
            elif (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == self.self_name
            ):
                self._record_self_mutation(receiver.attr, node.lineno)
        if target in ("warnings.warn", "warn"):
            if any(
                isinstance(arg, ast.Name) and arg.id == "DeprecationWarning"
                for arg in node.args
            ) or any(
                isinstance(kw.value, ast.Name)
                and kw.value.id == "DeprecationWarning"
                for kw in node.keywords
            ):
                self.warns_deprecation = True
        if target is None:
            return
        pos: list[str | None] = []
        passed: list[str] = []
        star = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                star = True
                continue
            if isinstance(arg, ast.Name):
                pos.append(arg.id)
                passed.append(arg.id)
            else:
                pos.append(None)
        kw: dict[str, str | None] = {}
        dstar = False
        for keyword in node.keywords:
            if keyword.arg is None:
                dstar = True
            elif isinstance(keyword.value, ast.Name):
                kw[keyword.arg] = keyword.value.id
                passed.append(keyword.value.id)
            else:
                kw[keyword.arg] = None
        self.calls.append(
            {
                "target": target,
                "line": node.lineno,
                "pos": pos,
                "kw": kw,
                "star": star,
                "dstar": dstar,
                "passed": passed,
            }
        )


def _function_facts(
    node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
) -> dict[str, Any]:
    args = node.args
    params = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    kwonly = [a.arg for a in args.kwonlyargs]
    num_pos_defaults = len(args.defaults)
    defaulted = params[len(params) - num_pos_defaults :] if num_pos_defaults else []
    defaulted = list(defaulted) + [
        a.arg
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    self_name = params[0] if cls is not None and params else None
    collector = _FunctionCollector(self_name)
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        annotation = _annotation_name(a.annotation)
        if annotation is not None:
            collector.annotations[a.arg] = annotation
    for stmt in node.body:
        collector.visit(stmt)
    docstring = ast.get_docstring(node) or ""
    return {
        "name": node.name,
        "qualname": f"{cls}.{node.name}" if cls else node.name,
        "cls": cls,
        "line": node.lineno,
        "params": params,
        "kwonly": kwonly,
        "defaulted": defaulted,
        "vararg": args.vararg is not None,
        "kwarg": args.kwarg is not None,
        "annotations": collector.annotations,
        "calls": collector.calls,
        "global_writes": collector.global_writes,
        "self_writes": collector.self_writes,
        "self_assigned": collector.self_assigned,
        "control_flow": collector.control_flow,
        "nested_defs": collector.nested_defs,
        "warns_deprecation": collector.warns_deprecation,
        "doc_deprecated": ".. deprecated::" in docstring,
    }


def extract_callgraph_facts(tree: ast.AST, source: str, path: str) -> dict[str, Any]:
    """The per-file symbol facts (JSON-able; cached by content digest)."""
    module = module_name_for(path)
    package = module.rsplit(".", 1)[0] if "." in module else ""
    imports: dict[str, str] = {}
    module_state: dict[str, dict[str, Any]] = {}
    shared: list[str] = []
    functions: list[dict[str, Any]] = []
    classes: list[dict[str, Any]] = []
    module_symbols: list[str] = []

    body = tree.body if isinstance(tree, ast.Module) else []
    docstring = ast.get_docstring(tree) if isinstance(tree, ast.Module) else None
    first_doc_line = (docstring or "").strip().splitlines()[0] if docstring else ""
    module_control_flow: list[list[Any]] = []

    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = module.split(".")
                # level 1 = current package; each extra level climbs one.
                climb = node.level if module.endswith("__init__") else node.level
                base = ".".join(base_parts[: len(base_parts) - climb + 0] or [])
                # For a module `pkg.mod`, level 1 -> `pkg`.
                base = ".".join(base_parts[:-node.level]) if len(base_parts) >= node.level else ""
                prefix = f"{base}.{node.module}" if node.module and base else (node.module or base)
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_function_facts(node, None))
            module_symbols.append(node.name)
        elif isinstance(node, ast.ClassDef):
            cls_shared: list[str] = []
            attrs: dict[str, int] = {}
            methods: list[str] = []
            init_assigned: list[str] = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            if target.id == SHARED_STATE_DECL:
                                cls_shared.extend(_string_names(stmt.value))
                            elif _mutable_kind(stmt.value) is not None:
                                attrs[target.id] = stmt.lineno
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    if stmt.value is not None and _mutable_kind(stmt.value) is not None:
                        if "ClassVar" in ast.dump(stmt.annotation):
                            attrs[stmt.target.id] = stmt.lineno
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    facts = _function_facts(stmt, node.name)
                    functions.append(facts)
                    methods.append(stmt.name)
                    if stmt.name == "__init__":
                        init_assigned = facts["self_assigned"]
            cls_doc = ast.get_docstring(node) or ""
            cls_doc_first = cls_doc.strip().splitlines()[0] if cls_doc.strip() else ""
            classes.append(
                {
                    "name": node.name,
                    "line": node.lineno,
                    "bases": [
                        name
                        for name in (_dotted(base) for base in node.bases)
                        if name is not None
                    ],
                    "methods": methods,
                    "mutable_attrs": attrs,
                    "shared": cls_shared,
                    "init_assigned": init_assigned,
                    "warns_deprecation": any(
                        f["warns_deprecation"]
                        for f in functions
                        if f["cls"] == node.name
                    ),
                    # Self-declared deprecation only: the summary line or
                    # an explicit directive.  A class whose docstring
                    # merely *mentions* deprecated callers is not a shim.
                    "doc_deprecated": (
                        ".. deprecated::" in cls_doc
                        or "deprecated" in cls_doc_first.lower()
                    ),
                }
            )
            module_symbols.append(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_symbols.append(target.id)
                    if target.id == SHARED_STATE_DECL:
                        shared.extend(_string_names(node.value))
                    else:
                        kind = _mutable_kind(node.value)
                        if kind is not None and not target.id.startswith("__"):
                            module_state[target.id] = {
                                "line": node.lineno,
                                "kind": kind,
                            }
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            module_symbols.append(node.target.id)
            if node.value is not None:
                kind = _mutable_kind(node.value)
                if kind is not None and not node.target.id.startswith("__"):
                    module_state[node.target.id] = {
                        "line": node.lineno,
                        "kind": kind,
                    }
        elif type(node) in _CONTROL_FLOW and not isinstance(node, (ast.If,)):
            module_control_flow.append([_CONTROL_FLOW[type(node)], node.lineno])
        elif isinstance(node, ast.If):
            # `if TYPE_CHECKING:` / `__name__ == "__main__"` guards are
            # module idiom, not logic; record others.
            test = node.test
            idiomatic = (
                isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            ) or (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "__name__"
            )
            if not idiomatic:
                module_control_flow.append(["if", node.lineno])
            else:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.ImportFrom) and not sub.level:
                        prefix = sub.module or ""
                        for alias in sub.names:
                            if alias.name == "*":
                                continue
                            bound = alias.asname or alias.name
                            imports.setdefault(
                                bound,
                                f"{prefix}.{alias.name}" if prefix else alias.name,
                            )

    return {
        "module": module,
        "package": package,
        "is_shim_module": bool(_SHIM_MODULE_PHRASE.search(first_doc_line)),
        "imports": imports,
        "module_state": module_state,
        "shared": shared,
        "module_symbols": module_symbols,
        "module_control_flow": module_control_flow,
        "functions": functions,
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# Composition: facts -> CallGraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionNode:
    """One project function/method in the composed graph."""

    fqid: str  # "module:qualname"
    module: str
    qualname: str
    name: str
    cls: str | None
    path: str
    line: int
    params: tuple[str, ...]
    kwonly: tuple[str, ...]
    defaulted: frozenset[str]
    has_vararg: bool
    has_kwarg: bool

    def named_params(self) -> tuple[str, ...]:
        """All parameters addressable by keyword, ``self`` excluded."""
        names = self.params + self.kwonly
        if self.cls is not None and self.params:
            names = tuple(n for n in names if n != self.params[0])
        return names

    def positional_params(self) -> tuple[str, ...]:
        if self.cls is not None and self.params:
            return self.params[1:]
        return self.params


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site, with its parameter-flow summary.

    ``received`` holds the callee parameter names that were given a value
    at this site; ``forwarded`` maps callee parameter name -> the caller
    parameter passed verbatim.  ``uncertain`` marks sites using ``*args``
    / ``**kwargs`` expansion, where the received set is a lower bound.
    ``kind`` is ``"call"`` for a direct call or ``"maycall"`` for a
    function object passed as an argument (no parameter flow known).
    """

    caller: str
    callee: str
    path: str
    line: int
    kind: str = "call"
    received: frozenset[str] = frozenset()
    forwarded: tuple[tuple[str, str], ...] = ()
    uncertain: bool = False


@dataclass
class ClassInfo:
    fqid: str  # "module:Class"
    module: str
    name: str
    path: str
    line: int
    bases: tuple[str, ...]
    methods: frozenset[str]
    mutable_attrs: dict[str, int] = field(default_factory=dict)
    shared: frozenset[str] = frozenset()
    init_assigned: frozenset[str] = frozenset()
    warns_deprecation: bool = False
    doc_deprecated: bool = False


class CallGraph:
    """The composed project call graph with parameter-flow summaries."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: list[CallEdge] = []
        self._edges_from: dict[str, list[CallEdge]] = {}
        self._modules: dict[str, str] = {}  # module -> path

    def edges_from(self, fqid: str) -> list[CallEdge]:
        return self._edges_from.get(fqid, [])

    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._edges_from.setdefault(edge.caller, []).append(edge)

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Functions transitively callable from ``roots`` (roots included)."""
        seen: set[str] = set()
        frontier = [fqid for fqid in roots if fqid in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.edges_from(current):
                if edge.callee not in seen:
                    frontier.append(edge.callee)
        return seen

    def iter_methods(self, class_fqid: str) -> Iterator[FunctionNode]:
        info = self.classes.get(class_fqid)
        if info is None:
            return
        for method in sorted(info.methods):
            node = self.functions.get(f"{info.module}:{info.name}.{method}")
            if node is not None:
                yield node

    # -- resolution helpers (used during build) -------------------------

    def resolve_class(self, module: str, dotted: str,
                      imports: dict[str, str]) -> ClassInfo | None:
        """Resolve a dotted class reference appearing in ``module``."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        candidates: list[str] = []
        if not rest:
            candidates.append(f"{module}:{head}")
            if head in imports:
                fq = imports[head]
                mod, _, cname = fq.rpartition(".")
                candidates.append(f"{mod}:{cname}")
        else:
            base = imports.get(head)
            if base is not None:
                candidates.append(f"{base}:{rest}")
                mod, _, cname = (base + "." + rest).rpartition(".")
                candidates.append(f"{mod}:{cname}")
        for candidate in candidates:
            info = self.classes.get(candidate)
            if info is not None:
                return info
        return None

    def method_on(self, info: ClassInfo, method: str,
                  imports_by_module: dict[str, dict[str, str]]) -> FunctionNode | None:
        """Look ``method`` up on a class, walking project-resolved bases."""
        seen: set[str] = set()
        queue: list[ClassInfo] = [info]
        while queue:
            current = queue.pop(0)
            if current.fqid in seen:
                continue
            seen.add(current.fqid)
            node = self.functions.get(f"{current.module}:{current.name}.{method}")
            if node is not None:
                return node
            for base in current.bases:
                base_info = self.resolve_class(
                    current.module, base, imports_by_module.get(current.module, {})
                )
                if base_info is not None:
                    queue.append(base_info)
        return None


def _edge_from_call(
    graph: CallGraph,
    caller: FunctionNode,
    callee: FunctionNode,
    call: dict[str, Any],
    caller_params: set[str],
    skip_self: bool,
) -> CallEdge:
    received: set[str] = set()
    forwarded: list[tuple[str, str]] = []
    positional = callee.positional_params() if skip_self else callee.params
    for index, descriptor in enumerate(call["pos"]):
        if index < len(positional):
            param = positional[index]
            received.add(param)
            if descriptor is not None and descriptor in caller_params:
                forwarded.append((param, descriptor))
    named = set(callee.named_params() if skip_self else callee.params + callee.kwonly)
    for kw_name, descriptor in call["kw"].items():
        if kw_name in named or callee.has_kwarg:
            received.add(kw_name)
            if descriptor is not None and descriptor in caller_params:
                forwarded.append((kw_name, descriptor))
    return CallEdge(
        caller=caller.fqid,
        callee=callee.fqid,
        path=caller.path,
        line=int(call["line"]),
        kind="call",
        received=frozenset(received),
        forwarded=tuple(sorted(forwarded)),
        uncertain=bool(call["star"] or call["dstar"]),
    )


def build_call_graph(project: "Project") -> CallGraph:
    """Compose every file's symbol facts into one :class:`CallGraph`."""
    graph = CallGraph()
    facts_by_path: dict[str, dict[str, Any]] = {}
    for path in sorted(project.facts):
        facts = project.facts[path].get(CALLGRAPH_KEY)
        if isinstance(facts, dict):
            facts_by_path[path] = facts

    imports_by_module: dict[str, dict[str, str]] = {}
    symbols_by_module: dict[str, set[str]] = {}

    # Pass 1: index functions, classes, imports, module symbols.
    for path, facts in facts_by_path.items():
        module = str(facts["module"])
        graph._modules[module] = path
        imports_by_module[module] = dict(facts.get("imports", {}))
        symbols_by_module[module] = set(facts.get("module_symbols", ()))
        for func in facts.get("functions", ()):
            node = FunctionNode(
                fqid=f"{module}:{func['qualname']}",
                module=module,
                qualname=str(func["qualname"]),
                name=str(func["name"]),
                cls=func["cls"],
                path=path,
                line=int(func["line"]),
                params=tuple(func["params"]),
                kwonly=tuple(func["kwonly"]),
                defaulted=frozenset(func["defaulted"]),
                has_vararg=bool(func["vararg"]),
                has_kwarg=bool(func["kwarg"]),
            )
            graph.functions[node.fqid] = node
        for cls in facts.get("classes", ()):
            info = ClassInfo(
                fqid=f"{module}:{cls['name']}",
                module=module,
                name=str(cls["name"]),
                path=path,
                line=int(cls["line"]),
                bases=tuple(cls["bases"]),
                methods=frozenset(cls["methods"]),
                mutable_attrs=dict(cls["mutable_attrs"]),
                shared=frozenset(cls["shared"]),
                init_assigned=frozenset(cls["init_assigned"]),
                warns_deprecation=bool(cls["warns_deprecation"]),
                doc_deprecated=bool(cls["doc_deprecated"]),
            )
            graph.classes[info.fqid] = info

    def resolve_function(module: str, dotted: str) -> tuple[FunctionNode | None, bool]:
        """(node, skip_self) for a dotted reference in ``module``."""
        imports = imports_by_module.get(module, {})
        head, _, rest = dotted.partition(".")
        # Constructor-chained method: Class().method
        if head.endswith("()"):
            info = graph.resolve_class(module, head[:-2], imports)
            if info is not None and rest:
                node = graph.method_on(info, rest, imports_by_module)
                return node, True
            return None, False
        if not rest:
            # Bare name: same-module function, imported function, or class.
            node = graph.functions.get(f"{module}:{head}")
            if node is not None and node.cls is None:
                return node, False
            info = graph.resolve_class(module, head, imports)
            if info is not None:
                init = graph.method_on(info, "__init__", imports_by_module)
                return init, True
            fq = imports.get(head)
            if fq is not None:
                mod, _, name = fq.rpartition(".")
                node = graph.functions.get(f"{mod}:{name}")
                if node is not None and node.cls is None:
                    return node, False
                info2 = graph.resolve_class(module, head, imports)
                if info2 is not None:
                    init = graph.method_on(info2, "__init__", imports_by_module)
                    return init, True
            return None, False
        # Dotted: mod.func / mod.Class / Class.method via import table.
        base_fq = imports.get(head)
        if base_fq is not None:
            full = f"{base_fq}.{rest}"
            mod, _, name = full.rpartition(".")
            node = graph.functions.get(f"{mod}:{name}")
            if node is not None and node.cls is None:
                return node, False
            cls_mod, _, tail = full.rpartition(".")
            # mod.Class -> constructor
            info = graph.classes.get(f"{cls_mod}:{tail}")
            if info is not None:
                init = graph.method_on(info, "__init__", imports_by_module)
                return init, True
            # mod.Class.method
            if "." in rest:
                cname, _, mname = rest.rpartition(".")
                info = graph.resolve_class(module, f"{head}.{cname}", imports)
                if info is not None:
                    return graph.method_on(info, mname, imports_by_module), True
        # Class.method with a same-module or imported class.
        cname, _, mname = dotted.rpartition(".")
        info = graph.resolve_class(module, cname, imports)
        if info is not None:
            return graph.method_on(info, mname, imports_by_module), True
        return None, False

    # Pass 2: edges.
    for path, facts in facts_by_path.items():
        module = str(facts["module"])
        imports = imports_by_module.get(module, {})
        for func in facts.get("functions", ()):
            caller = graph.functions[f"{module}:{func['qualname']}"]
            caller_params = set(func["params"]) | set(func["kwonly"])
            annotations: dict[str, str] = dict(func.get("annotations", {}))
            self_name = func["params"][0] if func["cls"] and func["params"] else None
            enclosing = (
                graph.classes.get(f"{module}:{func['cls']}") if func["cls"] else None
            )
            for call in func.get("calls", ()):
                target = str(call["target"])
                head, _, rest = target.partition(".")
                node: FunctionNode | None = None
                skip_self = False
                if self_name is not None and head == self_name and rest:
                    if "." not in rest and enclosing is not None:
                        node = graph.method_on(enclosing, rest, imports_by_module)
                        skip_self = True
                elif rest and "." not in rest and head in annotations:
                    info = graph.resolve_class(module, annotations[head], imports)
                    if info is not None:
                        node = graph.method_on(info, rest, imports_by_module)
                        skip_self = True
                else:
                    node, skip_self = resolve_function(module, target)
                if node is not None:
                    graph.add_edge(
                        _edge_from_call(
                            graph, caller, node, call, caller_params, skip_self
                        )
                    )
                # Higher-order: project functions passed as arguments.
                for descriptor in call["pos"] + list(call["kw"].values()):
                    if descriptor is None or descriptor == self_name:
                        continue
                    passed_node, _ = resolve_function(module, descriptor)
                    if passed_node is not None:
                        graph.add_edge(
                            CallEdge(
                                caller=caller.fqid,
                                callee=passed_node.fqid,
                                path=path,
                                line=int(call["line"]),
                                kind="maycall",
                                uncertain=True,
                            )
                        )
    return graph
