"""Execution backends: how one batch of check groups actually runs.

A :class:`Backend` turns a :class:`BatchRequest` — the flattened checks
of the groups a :class:`~repro.core.exec.scheduler.Scheduler` round found
ready — into outcomes, in request order.  Two strategies exist:

* :class:`SerialBackend` — in-process, one shared
  :class:`~repro.smt.solver.CheckSession` per owner router.  This is the
  path the process strategy degrades to, and the only one that can stop
  *between* checks when a run deadline expires.
* :class:`ProcessBackend` — the paper's deployment model: checks chunked
  by owner router and discharged by worker *processes*.  Wraps either a
  persistent :class:`~repro.core.exec.pool.WorkerPool` (sessions live in
  the workers across calls) or the one-shot pool.

Returning ``None`` from a process strategy means "machinery unavailable"
— the scheduler records the degradation and tries the next strategy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.checks import (
    CheckOutcome,
    LocalCheck,
    check_owner,
    prepare_session,
    skipped_outcome,
)
from repro.core.exec.plan import CheckGroup
from repro.core.exec.pool import WorkerPool, run_checks_in_processes
from repro.smt.solver import SessionPool

if TYPE_CHECKING:
    from repro.bgp.config import NetworkConfig
    from repro.core.report import DegradationReport
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse


@dataclass
class BatchRequest:
    """One scheduler dispatch: the ready groups, flattened, plus context.

    ``checks`` is the concatenation of ``groups``' checks in group order;
    a backend returns outcomes positionally aligned with it.
    """

    groups: tuple[CheckGroup, ...]
    checks: list[LocalCheck]
    config: "NetworkConfig"
    universe: "AttributeUniverse"
    ghosts: tuple["GhostAttribute", ...]
    conflict_budget: int | None
    deadline_s: float | None
    run_deadline: float | None

    def effective_deadline(self) -> float | None:
        """Per-check deadline honoring both budgets, sampled now."""
        effective = self.deadline_s
        if self.run_deadline is not None:
            remaining = self.run_deadline - time.monotonic()
            if remaining <= 0.0:
                # Callers check expired() first; this guards the race
                # between that sample and this one, so a negative
                # remainder never flows into a solve as "no deadline".
                remaining = 0.0
            effective = remaining if effective is None else min(effective, remaining)
        return effective

    def expired(self) -> bool:
        return (
            self.run_deadline is not None
            and time.monotonic() >= self.run_deadline
        )


class Backend(Protocol):
    """The strategy interface the scheduler dispatches through."""

    name: str

    def run(self, request: BatchRequest) -> list[CheckOutcome] | None:
        """Outcomes in ``request.checks`` order, or ``None`` if unusable."""
        ...


class SerialBackend:
    """In-process execution over shared per-owner sessions."""

    name = "serial"

    def __init__(self, sessions: SessionPool) -> None:
        self.sessions = sessions

    def run(self, request: BatchRequest) -> list[CheckOutcome]:
        outcomes: list[CheckOutcome] = []
        for group in request.groups:
            outcomes.extend(self.run_group(request, group))
        return outcomes

    def run_group(
        self, request: BatchRequest, group: CheckGroup
    ) -> list[CheckOutcome]:
        """Discharge one group serially; sessions persist on the pool.

        The first touch of an owner's session within a group pre-asserts
        the owner route's well-formedness (idempotent across groups).
        """
        checks = list(group.checks)
        prepared: set[int] = set()
        outcomes: list[CheckOutcome] = []
        for check in checks:
            if request.expired():
                outcomes.append(skipped_outcome(check, "wall-budget"))
                continue
            effective = request.effective_deadline()
            owner = check_owner(check)
            session = self.sessions.get(owner)
            if id(session) not in prepared:
                prepared.add(id(session))
                prepare_session(session, request.universe)
            outcomes.append(
                check.run(
                    request.config,
                    request.universe,
                    request.ghosts,
                    request.conflict_budget,
                    session=session,
                    deadline_s=effective,
                )
            )
        return outcomes


class ProcessBackend:
    """Worker processes, one chunk per owner router — the paper's model.

    ``workers`` (a persistent :class:`WorkerPool`) is preferred: its
    worker processes keep owner-keyed sessions alive across calls, the
    process-side analogue of a :class:`SessionPool`.  Without one, the
    one-shot pool forks per batch.  Either path returns ``None`` when the
    process machinery is unavailable, letting the scheduler degrade.
    """

    name = "process"

    def __init__(self, jobs: int, workers: WorkerPool | None = None) -> None:
        self.jobs = jobs
        self.workers = workers

    def run(self, request: BatchRequest) -> list[CheckOutcome] | None:
        if self.workers is not None:
            return self.run_persistent(request, None)
        return self.run_oneshot(request)

    def run_persistent(
        self, request: BatchRequest, degradation: "DegradationReport | None"
    ) -> list[CheckOutcome] | None:
        """Dispatch on the persistent pool, recording recovery counters."""
        workers = self.workers
        assert workers is not None
        respawns = workers.worker_respawns
        redispatched = workers.chunks_redispatched
        quarantined = workers.checks_quarantined
        outcomes = workers.run(
            request.checks,
            request.config,
            request.universe,
            request.ghosts,
            request.conflict_budget,
            deadline_s=request.deadline_s,
            run_deadline=request.run_deadline,
        )
        if degradation is not None:
            degradation.worker_respawns += workers.worker_respawns - respawns
            degradation.chunks_redispatched += (
                workers.chunks_redispatched - redispatched
            )
            degradation.checks_quarantined += (
                workers.checks_quarantined - quarantined
            )
        return outcomes

    def run_oneshot(self, request: BatchRequest) -> list[CheckOutcome] | None:
        """Fork a per-batch pool; ``None`` if process machinery is absent."""
        return run_checks_in_processes(
            request.checks,
            request.config,
            request.universe,
            request.ghosts,
            request.conflict_budget,
            self.jobs,
            deadline_s=request.deadline_s,
        )
