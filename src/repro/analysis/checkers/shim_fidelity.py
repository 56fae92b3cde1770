"""shim-fidelity: a shim must be pure delegation.

The repo keeps old entry points alive while the real implementation
moves: the ``Lightyear`` facade forwards to ``Workspace``, and the
``IncrementalVerifier`` / ``IncrementalLivenessVerifier`` classes wrap
workspace trackers.  A shim is a *promise* — calling the old name
behaves exactly like calling the new one — and the promise breaks
silently the moment someone patches a bug or adds a branch in the shim
instead of the real code: the two paths drift, and which behaviour you
get depends on which import the caller happened to use.

The invariant, stated mechanically over the call-graph symbol facts: in
a shim (a module whose docstring's first line says "shim", a class that
warns ``DeprecationWarning``, is documented deprecated, is named like a
shim, or subclasses one), every function must be *pure delegation* —
straight-line code with no branches, loops, try blocks, or nested
definitions.  Assignments, ``warnings.warn`` calls, and delegating
calls/returns are all fine; control flow is logic, and logic belongs on
the real path.

A shim that legitimately needs a branch (a ``__getattr__`` dispatching
over two tracker types) states so with an inline suppression — the
reason string is the documentation of why the drift risk is accepted.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CALLGRAPH_KEY
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

def _named_like_shim(name: str) -> bool:
    """Only the unambiguous spellings: ``FooShim`` / ``DeprecatedFoo``.

    A substring match would capture this checker's own class (and any
    helper *about* shims); the naming convention the repo actually uses
    is suffix/prefix.
    """
    return name.endswith("Shim") or name.startswith("Deprecated")


@register
class ShimFidelityChecker(Checker):
    id = "shim-fidelity"
    description = (
        "deprecation shims (shim modules, DeprecationWarning classes) must "
        "be pure delegation: no branches, loops, or nested definitions"
    )
    version = 1

    def extract(self, tree: ast.AST, source: str, path: str):
        # Interprocedural: works off the engine's call-graph symbol facts.
        return None

    def analyze(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        # First pass: the set of shim classes, project-wide, so
        # subclassing a shim in another module still counts.
        shim_classes: set[str] = set()
        all_classes: dict[str, dict] = {}
        for path in sorted(project.facts):
            facts = project.facts[path].get(CALLGRAPH_KEY)
            if not isinstance(facts, dict):
                continue
            module_is_shim = bool(facts.get("is_shim_module"))
            for cls in facts.get("classes", ()):
                name = str(cls["name"])
                all_classes.setdefault(name, cls)
                if (
                    module_is_shim
                    or cls.get("warns_deprecation")
                    or cls.get("doc_deprecated")
                    or _named_like_shim(name)
                ):
                    shim_classes.add(name)
        # Propagate through inheritance to a fixed point (base names are
        # matched by last dotted component).
        changed = True
        while changed:
            changed = False
            for name, cls in all_classes.items():
                if name in shim_classes:
                    continue
                for base in cls.get("bases", ()):
                    if base.rsplit(".", 1)[-1] in shim_classes:
                        shim_classes.add(name)
                        changed = True
                        break

        for path in sorted(project.facts):
            facts = project.facts[path].get(CALLGRAPH_KEY)
            if not isinstance(facts, dict):
                continue
            module_is_shim = bool(facts.get("is_shim_module"))
            if module_is_shim:
                # Symbols use per-kind ordinals, not line numbers, so
                # baseline/suppression keys survive unrelated edits.
                ordinals: dict[str, int] = {}
                for kind, line in facts.get("module_control_flow", ()):
                    ordinals[kind] = ordinals.get(kind, 0) + 1
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=path,
                            line=int(line),
                            message=(
                                f"shim module has module-level `{kind}` "
                                f"logic; a compatibility shim must only "
                                f"re-export and delegate"
                            ),
                            hint=(
                                "move the logic to the real module and "
                                "re-export the result, or suppress with a "
                                "reason"
                            ),
                            symbol=f"module:{kind}#{ordinals[kind]}",
                        )
                    )
            for func in facts.get("functions", ()):
                in_shim = module_is_shim or (
                    func["cls"] is not None and func["cls"] in shim_classes
                )
                if not in_shim:
                    continue
                offences = [
                    (str(kind), int(line))
                    for kind, line in func.get("control_flow", ())
                ] + [
                    ("nested def", int(line))
                    for _name, line in func.get("nested_defs", ())
                ]
                func_ordinals: dict[str, int] = {}
                for kind, line in sorted(offences, key=lambda item: item[1]):
                    func_ordinals[kind] = func_ordinals.get(kind, 0) + 1
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=path,
                            line=line,
                            message=(
                                f"shim {func['qualname']} contains `{kind}` "
                                f"logic; shims must be pure delegation so "
                                f"the old and new entry points cannot drift"
                            ),
                            hint=(
                                "move the logic behind the delegated call "
                                "(the real implementation), or suppress "
                                "with a reason stating why the shim must "
                                "branch"
                            ),
                            symbol=(
                                f"{func['qualname']}:{kind}"
                                f"#{func_ordinals[kind]}"
                            ),
                        )
                    )
        return findings
