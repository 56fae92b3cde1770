"""digest-coverage: every field of a digest-bearing class is fingerprinted.

The bug class (PR 4): ``NetworkConfig.external_asns`` existed, mattered
to verification (external ASNs enter the attribute universe), but
appeared in no digest — so digest-based change detection declared an
edited network unchanged and ``reverify`` reused stale outcomes.

The invariant, stated mechanically: for any class that computes a
content digest of itself (a *digest-bearing* class), every public field
must be consumed by **some** digest computation — either the class's own
digest method, or a digest-like function elsewhere in the project that
reads the field (the repo legitimately splits coverage: ``topology`` and
``external_asns`` are covered by ``network_digest``/``_topology_fp``,
not by ``NetworkConfig`` itself).  The cross-file union is class-blind
(it matches attribute *names*), which trades a little precision for
zero-configuration coverage of exactly the historical failure shape: a
field nobody's digest reads anywhere.

A class is digest-bearing when it defines a method whose name looks like
a digest (``digest``/``fingerprint``/``canonical``/``_fp``) *and* that
method reads at least one public ``self`` attribute — a property
hashing only private state is not a content fingerprint of the object's
fields.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

_DIGEST_NAME = re.compile(r"(?:^|_)(digest|digests|fingerprint|fp|canonical|canon)(?:_|$)")


def is_digest_name(name: str) -> bool:
    return bool(_DIGEST_NAME.search(name))


def _attribute_reads(node: ast.AST) -> set[str]:
    """Names of every attribute access anywhere under ``node``."""
    return {
        child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute)
    }


def _self_reads(func: ast.FunctionDef) -> set[str]:
    """Attributes read off the function's first parameter (``self``)."""
    if not func.args.args:
        return set()
    self_name = func.args.args[0].arg
    return {
        child.attr
        for child in ast.walk(func)
        if isinstance(child, ast.Attribute)
        and isinstance(child.value, ast.Name)
        and child.value.id == self_name
    }


def _is_staticmethod(func: ast.FunctionDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod"
        for dec in func.decorator_list
    )


def _class_fields(cls: ast.ClassDef) -> dict[str, int]:
    """Public data fields -> definition line.

    Dataclass-style annotated assignments in the class body (``x: int``),
    skipping ``ClassVar``; plus ``self.x = ...`` assignments in
    ``__init__`` for plain classes.
    """
    fields: dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if "ClassVar" in ast.dump(stmt.annotation):
                continue
            fields.setdefault(stmt.target.id, stmt.lineno)
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            self_name = stmt.args.args[0].arg if stmt.args.args else "self"
            for child in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(child, ast.Assign):
                    targets = child.targets
                elif isinstance(child, ast.AnnAssign):
                    targets = [child.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        fields.setdefault(target.attr, child.lineno)
    return {name: line for name, line in fields.items() if not name.startswith("_")}


@register
class DigestCoverageChecker(Checker):
    id = "digest-coverage"
    description = (
        "every public field of a digest-bearing class must be consumed by "
        "some digest computation (the external_asns bug class)"
    )
    version = 1

    def extract(self, tree: ast.AST, source: str, path: str):
        classes = []
        covered_everywhere: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and is_digest_name(node.name):
                # Any digest-like callable, module-level or method,
                # contributes its attribute reads to the project-wide
                # coverage union.
                covered_everywhere |= _attribute_reads(node)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            digest_methods = [
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
                and is_digest_name(stmt.name)
                and not _is_staticmethod(stmt)
            ]
            self_covered: set[str] = set()
            bearing_methods: list[str] = []
            for method in digest_methods:
                reads = _self_reads(method)
                if any(not attr.startswith("_") for attr in reads):
                    bearing_methods.append(method.name)
                    self_covered |= reads
            if not bearing_methods:
                continue
            classes.append(
                {
                    "name": node.name,
                    "line": node.lineno,
                    "methods": bearing_methods,
                    "fields": _class_fields(node),
                    "self_covered": sorted(self_covered),
                }
            )
        if not classes and not covered_everywhere:
            return None
        return {"classes": classes, "covered": sorted(covered_everywhere)}

    def analyze(self, project: Project) -> list[Finding]:
        global_union: set[str] = set()
        for __, facts in project.facts_for(self.id):
            global_union |= set(facts.get("covered", ()))
        findings: list[Finding] = []
        for path, facts in project.facts_for(self.id):
            for cls in facts.get("classes", ()):
                self_covered = set(cls["self_covered"])
                for field_name, line in sorted(cls["fields"].items()):
                    if field_name in self_covered or field_name in global_union:
                        continue
                    methods = "/".join(cls["methods"])
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=path,
                            line=line,
                            message=(
                                f"field {cls['name']}.{field_name} is not consumed "
                                f"by any digest computation ({methods} on the "
                                f"class, nor any digest-like function project-wide)"
                            ),
                            hint=(
                                f"include {field_name!r} in {cls['name']}."
                                f"{cls['methods'][0]} (or a covering digest "
                                f"function), or suppress with a reason if the "
                                f"field truly cannot change verification results"
                            ),
                            symbol=f"{cls['name']}.{field_name}",
                        )
                    )
        return findings
