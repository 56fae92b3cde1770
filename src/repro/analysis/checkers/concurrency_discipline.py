"""concurrency-discipline: shared mutable state on dispatch paths.

Real work runs on the dispatchers — :class:`Scheduler` and
:class:`WorkerPool` (whose dispatcher threads feed the workers) — and the
failure mode is latent wherever they meet shared state: module-level
memo caches (``transfer._transfer_cache``, the term interner) mutated
from code that may run on several threads at once.  Today the GIL and
idempotent values make those benign; the moment one stops being benign
it corrupts verification results, not a test.

The invariant, stated mechanically over the project call graph: any
write to module-level mutable state (or to a class-level mutable
attribute that ``__init__`` does not shadow) from a function reachable
from a dispatcher method must be either

* **lock-guarded** — inside a ``with <something named *lock*>:`` block, or
* **declared** — named in a module/class-level ``SHARED_STATE`` tuple,
  the concurrency analogue of ``PICKLE_ROOTS``: an explicit, auditable
  opt-in that states the discipline the code relies on instead of
  leaving it implicit.

Dispatchers are found by class name and by inheritance (a subclass of
``Scheduler`` dispatches too); reachability walks resolved call edges
*and* may-call edges (a function object handed to ``pool.map`` runs on
the pool's threads).  The graph under-approximates calls, so findings
are real writes on real dispatch paths; state it cannot prove reachable
is simply not flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CALLGRAPH_KEY
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

#: Class names whose methods run caller-supplied work concurrently.
DISPATCH_CLASSES = ("Scheduler", "WorkerPool")


def _is_dispatcher(name: str, bases_by_class: dict[str, tuple[str, ...]]) -> bool:
    """``name`` is a dispatch class or transitively subclasses one.

    Base references are matched by their last dotted component, so
    ``LintScheduler(Scheduler)`` and ``X(exec.Scheduler)`` both count.
    """
    seen: set[str] = set()
    frontier = [name]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        if current in DISPATCH_CLASSES:
            return True
        for base in bases_by_class.get(current, ()):
            frontier.append(base.rsplit(".", 1)[-1].removesuffix("()"))
    return False


@register
class ConcurrencyDisciplineChecker(Checker):
    id = "concurrency-discipline"
    description = (
        "mutable module/class state written on a path reachable from the "
        "concurrent dispatchers (Scheduler/WorkerPool) must "
        "be lock-guarded or declared in SHARED_STATE"
    )
    version = 1

    def extract(self, tree: ast.AST, source: str, path: str):
        # Interprocedural: works off the engine's call-graph symbol facts.
        return None

    def analyze(self, project: Project) -> list[Finding]:
        graph = project.call_graph()

        # Simple-name -> base simple-names, for inheritance-aware
        # dispatcher matching across modules.
        bases_by_class: dict[str, tuple[str, ...]] = {}
        for info in graph.classes.values():
            bases_by_class.setdefault(info.name, info.bases)

        roots = [
            f"{info.module}:{info.name}.{method}"
            for info in graph.classes.values()
            if _is_dispatcher(info.name, bases_by_class)
            for method in info.methods
        ]
        reachable = graph.reachable(roots)
        if not reachable:
            return []

        findings: list[Finding] = []
        for path_ in sorted(project.facts):
            facts = project.facts[path_].get(CALLGRAPH_KEY)
            if not isinstance(facts, dict):
                continue
            module = str(facts["module"])
            module_state = facts.get("module_state", {})
            declared = set(facts.get("shared", ()))
            classes = {cls["name"]: cls for cls in facts.get("classes", ())}
            for func in facts.get("functions", ()):
                fqid = f"{module}:{func['qualname']}"
                if fqid not in reachable:
                    continue
                for write in func.get("global_writes", ()):
                    name = str(write["name"])
                    if name not in module_state or write["guarded"]:
                        continue
                    if name in declared:
                        continue
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=path_,
                            line=int(write["line"]),
                            message=(
                                f"{func['qualname']} writes module state "
                                f"{name!r} on a dispatch-reachable path "
                                f"without a lock guard or SHARED_STATE "
                                f"declaration"
                            ),
                            hint=(
                                f"guard the write with a lock, or add "
                                f"{name!r} to a module-level SHARED_STATE "
                                f"tuple with a comment stating why unguarded "
                                f"mutation is safe"
                            ),
                            symbol=f"{func['qualname']}:{name}",
                        )
                    )
                cls = classes.get(func["cls"]) if func["cls"] else None
                if cls is None:
                    continue
                cls_declared = declared | set(cls.get("shared", ()))
                mutable_attrs = cls.get("mutable_attrs", {})
                shadowed = set(cls.get("init_assigned", ()))
                for write in func.get("self_writes", ()):
                    attr = str(write["attr"])
                    if attr not in mutable_attrs or attr in shadowed:
                        continue
                    if write["guarded"] or attr in cls_declared:
                        continue
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=path_,
                            line=int(write["line"]),
                            message=(
                                f"{func['qualname']} writes class-level "
                                f"mutable attribute {attr!r} (shared by every "
                                f"instance) on a dispatch-reachable path "
                                f"without a lock guard or SHARED_STATE "
                                f"declaration"
                            ),
                            hint=(
                                f"move {attr!r} into __init__, guard the "
                                f"write with a lock, or declare it in the "
                                f"class's SHARED_STATE tuple with a reason"
                            ),
                            symbol=f"{func['qualname']}:{attr}",
                        )
                    )
        return findings
