"""Execution context: the bundled substrate every verification path shares.

An :class:`ExecutionContext` carries what used to travel as a ~10-argument
caravan (``parallel, conflict_budget, backend, sessions, workers,
deadline_s, wall_budget_s``): the owner-keyed :class:`SessionPool`, an
optional persistent :class:`WorkerPool` (owned, borrowed, or lazily
supplied), the budgets, and the run-deadline bookkeeping.  It is the
class formerly known as ``IncrementalSubstrate`` (still importable under
that name from :mod:`repro.core.incremental`);
:class:`repro.core.workspace.Workspace` inherits it, so pool-lifecycle
fixes land in exactly one place.

Backend selection also lives here: :meth:`resolved_backend` applies the
``REPRO_BACKEND`` environment override, which CI uses to run the whole
tier-1 suite over the non-default backend.  The override only applies to
contexts that asked for ``"auto"`` *and* hold no worker pool — an
explicitly borrowed pool is an explicit choice of the process path.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable, Union

from repro.core.exec.pool import WorkerPool
from repro.core.report import DegradationReport
from repro.smt.solver import SessionPool

#: The recognised execution backends, in documentation order.
BACKENDS = ("auto", "serial", "process")

#: Environment variable overriding backend selection for ``"auto"``
#: contexts with no explicit worker pool (unknown values are ignored;
#: ``auto`` is the no-op override).
ENV_BACKEND = "REPRO_BACKEND"

WorkerSupplier = Union[WorkerPool, Callable[[], "WorkerPool | None"], None]


def _available_cpus() -> int:
    """CPUs actually available to this process, not the machine total.

    Containerized and cgroup-limited hosts expose fewer schedulable CPUs
    than ``os.cpu_count()`` reports; oversubscribing spawns workers that
    fight for the same cores.  Preference order: ``os.process_cpu_count``
    (Python 3.13+), the scheduling affinity mask, then ``os.cpu_count``.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return int(count)
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            mask = affinity(0)
        except OSError:
            mask = None
        if mask:
            return len(mask)
    return os.cpu_count() or 1


def resolve_jobs(parallel: int | str | None) -> int:
    """Normalise a ``parallel`` request to a worker count (1 = serial).

    Accepts ``None``, an integer >= 0, or the string ``"auto"`` meaning one
    worker per *available* core (see :func:`_available_cpus`).  ``0`` is an
    explicit "no parallelism" request and resolves to 1 (serial), exactly
    like ``None`` and ``1``; only negative counts are rejected.
    """
    if parallel is None:
        return 1
    if parallel == "auto":
        return _available_cpus()
    jobs = int(parallel)
    if jobs < 0:
        raise ValueError(
            f"parallel must be >= 0 (0 and 1 both mean serial), got {parallel!r}"
        )
    if jobs == 0:
        return 1
    return jobs


class ExecutionContext:
    """Shared pool plumbing for workspaces, trackers, and the scheduler.

    Owns (or borrows) the persistent reuse substrate: an owner-keyed
    :class:`SessionPool` and an optional :class:`WorkerPool` (or a lazy
    supplier of one, like ``Workspace._workers``).

    ``autopool`` controls whether the context may *create* a persistent
    pool when the backend allows processes and ``parallel`` >= 2.
    Long-lived contexts (a :class:`~repro.core.workspace.Workspace`) want
    that; the ephemeral context a single ``run_checks`` call builds must
    not — the one-shot process pool already covers it, and a per-call
    persistent pool would leak worker processes.
    """

    def __init__(
        self,
        parallel: int | str | None,
        backend: str,
        conflict_budget: int | None,
        sessions: SessionPool | None,
        workers: WorkerSupplier,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
        autopool: bool = True,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        resolve_jobs(parallel)  # reject negative counts at construction
        self.parallel = parallel
        self.backend = backend
        self.conflict_budget = conflict_budget
        self.deadline_s = deadline_s
        self.wall_budget_s = wall_budget_s
        # An absolute time.monotonic() deadline for the run in flight.
        # Normally derived per run from ``wall_budget_s``; callers that
        # want one budget to span several runs (the CLI spanning every
        # spec property) pin it with :meth:`set_run_deadline`.
        self._run_deadline: float | None = None
        self._external_deadline = False
        self.sessions = sessions if sessions is not None else SessionPool()
        self._owns_sessions = sessions is None
        # ``workers`` lends an externally owned pool; the context then
        # never creates or closes worker processes itself.
        self._borrowed_workers = workers
        self._worker_pool: WorkerPool | None = None
        self._autopool = autopool
        self._fallback_warned = False

    # -- backend selection ---------------------------------------------

    def resolved_backend(self) -> str:
        """The backend this context actually dispatches on.

        Honors the :data:`ENV_BACKEND` override, but only for ``"auto"``
        contexts with no explicit worker pool: a caller that lends a
        :class:`WorkerPool` (or already created one) has chosen the
        process path, and the environment must not silently bypass it.
        """
        if self.backend != "auto":
            return self.backend
        if self._borrowed_workers is not None or self._worker_pool is not None:
            return self.backend
        override = os.environ.get(ENV_BACKEND, "").strip().lower()
        if override in BACKENDS and override != "auto":
            return override
        return self.backend

    # -- degradation reporting -----------------------------------------

    def record_fallback(
        self, reason: str, degradation: DegradationReport | None
    ) -> None:
        """Record a degradation to the serial path, warning once.

        Every fallback event is counted on ``degradation`` (so a
        multi-stage run carries the full count), but the
        :class:`RuntimeWarning` fires once per context — a liveness
        pipeline that cannot create a pool degrades identically at every
        stage, and repeating the warning per stage is spam, not signal.
        """
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"parallel check execution degraded to the serial path: {reason}",
                RuntimeWarning,
                stacklevel=4,
            )
        if degradation is not None:
            degradation.record_fallback(reason)

    # -- run deadlines --------------------------------------------------

    def set_run_deadline(self, deadline: float | None) -> None:
        """Pin an absolute ``time.monotonic()`` deadline across runs.

        Until cleared (pass ``None``), every tracker run checks against
        this single deadline instead of deriving a fresh one from
        ``wall_budget_s`` — how one ``--wall-budget`` spans all the
        properties of one CLI invocation.
        """
        self._run_deadline = deadline
        self._external_deadline = deadline is not None

    def _begin_run_deadline(self) -> float | None:
        """The run deadline a tracker run should enforce, refreshed.

        With an externally pinned deadline, that; otherwise a fresh
        ``now + wall_budget_s`` per run (or ``None`` without a budget).
        """
        if self._external_deadline:
            return self._run_deadline
        self._run_deadline = (
            None
            if self.wall_budget_s is None
            else time.monotonic() + self.wall_budget_s
        )
        return self._run_deadline

    # -- worker pool lifecycle -----------------------------------------

    def _workers(self) -> WorkerPool | None:
        if self._borrowed_workers is not None:
            if callable(self._borrowed_workers):
                return self._borrowed_workers()
            return self._borrowed_workers
        if self.resolved_backend() not in ("auto", "process"):
            return None
        if not self._autopool:
            return None
        if resolve_jobs(self.parallel) < 2:
            return None
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(resolve_jobs(self.parallel))
        return self._worker_pool

    def close(self) -> None:
        """Release the owned worker pool (borrowed pools stay untouched)."""
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None

    def _reset_substrate(self) -> None:
        """Drop cached encodings after a topology change.

        Session reuse is always *sound* (databases are definitional and
        checks solve under assumptions), so this is purely a memory
        measure — and therefore must not touch a **borrowed** pool, whose
        other users (the engine, sibling verifiers) still want their
        encodings.  An owned worker pool is released outright; a borrowed
        one keeps running — its contexts are content-fingerprinted, so the
        new topology simply ships as a new context.
        """
        if self._owns_sessions:
            self.sessions.clear()
        self.close()
