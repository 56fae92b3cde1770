"""The benchmark's span recorder: per-layer timing from outside the program.

The program has no spans of its own yet, so this module wraps the public
functions each layer exposes.  Every wrapper records one span — name,
start, end, parent span — into an in-memory list; the list is written out
once, when the traced process ends.  A layer's *self time* is the sum of
its spans' durations minus the part their child spans cover.

A function imported by name into another module (``from x import f``)
is bound there too, so :meth:`Tracer.install` patches every module under
``repro`` that holds the original object, not just the defining module.
Methods and classmethods are patched on their class.

Forked worker processes inherit the wrappers; :func:`os.register_at_fork`
switches recording off in the child, so workers pay one extra call per
wrapped function and record nothing.  Their work reaches the benchmark
through the per-check solver statistics returned in outcomes instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

# (span name, dotted owner, attribute).  The owner is a module, or a class
# given as "module:Class".  Span names carry their layer as a prefix.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "repro.cli", "main"),
    ("bgp.parse", "repro.bgp.configjson", "config_from_json"),
    ("bgp.diff", "repro.bgp.configdiff", "diff_configs"),
    ("lang.spec", "repro.lang.specjson", "spec_from_json"),
    ("lang.universe", "repro.lang.universe:AttributeUniverse", "from_config"),
    ("lang.transfer", "repro.lang.transfer", "transfer_import"),
    ("lang.transfer", "repro.lang.transfer", "transfer_export"),
    ("lang.transfer", "repro.lang.transfer", "symbolic_originated"),
    ("lang.predicate", "repro.lang.predicates", "predicate_term"),
    ("core.checkgen", "repro.core.checks", "generate_safety_checks"),
    ("core.checkgen", "repro.core.liveness", "generate_liveness_checks"),
    ("core.checkgen", "repro.core.liveness", "generate_propagation_checks"),
    ("core.check_run", "repro.core.checks:LocalCheck", "run"),
    ("core.verify", "repro.core.workspace:Workspace", "verify"),
    ("core.apply", "repro.core.workspace:Workspace", "apply"),
    ("core.reverify", "repro.core.workspace:Workspace", "reverify"),
    ("core.cache_load", "repro.core.workspace:Workspace", "load"),
    ("core.cache_save", "repro.core.workspace:Workspace", "save"),
    ("core.report", "repro.core.report", "format_report"),
    ("smt.check", "repro.smt.solver:CheckSession", "check"),
    ("smt.model", "repro.smt.solver:CheckSession", "model"),
    ("exec.scheduler", "repro.core.exec.scheduler:Scheduler", "run"),
    ("exec.pool_run", "repro.core.exec.pool:WorkerPool", "run"),
)

# Modules imported before patching, so that every binding of a target
# exists by then (some are otherwise imported lazily inside functions).
PRELOAD = (
    "repro.cli",
    "repro.bgp.configdiff",
    "repro.core.workspace",
    "repro.core.liveness",
    "repro.core.incremental_liveness",
    "repro.core.exec.pool",
)


class Tracer:
    """In-memory span recorder plus the few objects metrics read afterwards."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.recording = True
        # Distinct SMT queries: hash-consed terms make equal queries equal
        # tuples, so a set of assertion tuples counts them exactly.
        self.queries: set[tuple] = set()
        self.worker_pools: list = []
        self.workspaces: list = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _hook_for(self, name: str):
        if name == "smt.check":
            return lambda args: self.queries.add(tuple(args[1]))
        if name == "exec.pool_run":
            return lambda args: _remember(self.worker_pools, args[0])
        if name in ("core.verify", "core.reverify"):
            return lambda args: _remember(self.workspaces, args[0])
        return None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Patch every target where its callers look it up."""
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for name, owner, attr in TARGETS:
            module_name, __, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, self._hook_for(name)))
                else:
                    wrapped = self._wrap(name, raw, self._hook_for(name))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, self._hook_for(name))
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self.recording = False

    # -- output --------------------------------------------------------

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans and the run's counters once, at the end."""
        self.recording = False
        doc = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": extra,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _remember(seen: list, obj) -> None:
    if not any(item is obj for item in seen):
        seen.append(obj)


def layer_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed self time, summed outermost wall time, count.

    Self time is a span's duration minus its children's durations (spans
    nest strictly in one thread, so the children never overlap).  The
    outermost wall time sums only spans with no ancestor of the same name,
    so a recursive or re-entrant layer is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    wall: dict[str, float] = {}
    count: dict[str, int] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[index]
        count[name] = count.get(name, 0) + 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            wall[name] = wall.get(name, 0.0) + duration
    return self_time, wall, count
