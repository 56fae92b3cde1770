"""The scheduler: one dispatch loop for every verification path.

# repro: hot-path

:class:`Scheduler` executes a :class:`~repro.core.exec.plan.CheckPlan`
against an :class:`~repro.core.exec.context.ExecutionContext`.  It owns
everything the four pre-refactor dispatch sites each re-implemented:

* **the verdict memo** — every check of a batch is looked up in the
  context's :class:`~repro.smt.solver.SessionPool` before any backend
  sees it; repeats are answered in this process, and only one
  representative per distinct miss is solved (see :meth:`Scheduler.
  _dispatch`), so no backend keeps a memo of its own;
* **strategy selection and degradation** — persistent worker pool, then
  the one-shot process pool, then the serial session path,
  recording every fallback on the :class:`DegradationReport` (and
  warning once per context, see
  :meth:`ExecutionContext.record_fallback`);
* **deadlines** — the per-check ``deadline_s`` and the absolute
  ``run_deadline`` wall budget; groups scheduled after expiry resolve to
  UNKNOWN/``wall-budget`` without touching a solver;
* **outcome ordering** — outcomes are routed back to their group keys,
  and flat iteration follows plan order regardless of execution order;
* **stage pipelining** — each round dispatches *every* group whose
  stage dependencies are met, in plan order, so independent stages run
  in the same batch instead of barriering (liveness interference
  sub-proofs ride along with propagation; only the implication waits).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

from repro.core.checks import CheckOutcome, rebind, recall, verdict_key
from repro.core.exec.backends import BatchRequest, ProcessBackend, SerialBackend
from repro.core.exec.context import ExecutionContext, resolve_jobs
from repro.core.exec.plan import CheckGroup, CheckPlan, GroupKey

if TYPE_CHECKING:
    from repro.bgp.config import NetworkConfig
    from repro.core.report import DegradationReport
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse


@dataclass
class GroupResult:
    """One group's outcomes plus the wall time of the batch that ran it.

    ``wall_time_s`` is the elapsed time of the *dispatch batch* the group
    was part of; groups pipelined into the same batch share (overlap) it.
    """

    group: CheckGroup
    outcomes: list[CheckOutcome]
    wall_time_s: float


@dataclass
class PlanResult:
    """Everything a plan execution produced, keyed and in plan order."""

    results: dict[GroupKey, GroupResult] = field(default_factory=dict)
    order: list[GroupKey] = field(default_factory=list)

    def group(self, key: GroupKey) -> list[CheckOutcome]:
        return self.results[key].outcomes

    def wall_time_s(self, key: GroupKey) -> float:
        return self.results[key].wall_time_s

    @property
    def outcomes(self) -> list[CheckOutcome]:
        """All outcomes, flattened in plan (not execution) order."""
        flat: list[CheckOutcome] = []
        for key in self.order:
            flat.extend(self.results[key].outcomes)
        return flat


class Scheduler:
    """Executes check plans on a context's backend — the one dispatch loop."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context

    def run(
        self,
        plan: CheckPlan,
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...] = (),
        conflict_budget: int | None = None,
        run_deadline: float | None = None,
        degradation: "DegradationReport | None" = None,
    ) -> PlanResult:
        """Execute ``plan`` to completion; see :meth:`stream` for the loop."""
        result = PlanResult()
        for group_result in self.stream(
            plan,
            config,
            universe,
            ghosts,
            conflict_budget=conflict_budget,
            run_deadline=run_deadline,
            degradation=degradation,
        ):
            result.results[group_result.group.key] = group_result
        result.order = [group.key for group in plan.groups]
        return result

    def stream(
        self,
        plan: CheckPlan,
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...] = (),
        conflict_budget: int | None = None,
        run_deadline: float | None = None,
        degradation: "DegradationReport | None" = None,
    ) -> Iterator[GroupResult]:
        """Yield group results as scheduling rounds complete.

        Each round gathers every not-yet-run group whose stage
        dependencies are fully satisfied (in plan order), dispatches them
        as one batch through the strategy chain, and yields their
        results.  A stage counts as satisfied once all of its groups have
        run; stages with no groups are satisfied immediately.
        """
        stages = plan.stage_map()
        remaining_per_stage: dict[str, int] = {name: 0 for name in stages}
        for group in plan.groups:
            remaining_per_stage[group.stage] += 1
        pending = list(range(len(plan.groups)))

        while pending:
            done_stages = {
                name for name, left in remaining_per_stage.items() if left == 0
            }
            ready_indexes = [
                index
                for index in pending
                if all(
                    dep in done_stages
                    for dep in stages[plan.groups[index].stage].after
                )
            ]
            # Plan validation rejects dependency cycles, so some group is
            # always ready while any are pending.
            assert ready_indexes, "no schedulable group in a non-empty plan"
            taken = set(ready_indexes)
            pending = [index for index in pending if index not in taken]
            ready = [plan.groups[index] for index in ready_indexes]

            batch = BatchRequest(
                groups=tuple(ready),
                checks=[check for group in ready for check in group.checks],
                config=config,
                universe=universe,
                ghosts=tuple(ghosts),
                conflict_budget=conflict_budget,
                deadline_s=self.context.deadline_s,
                run_deadline=run_deadline,
            )
            batch_start = time.perf_counter()
            outcomes = self._dispatch(batch, degradation)
            elapsed = time.perf_counter() - batch_start

            cursor = 0
            for group in ready:
                size = len(group.checks)
                yield GroupResult(
                    group=group,
                    outcomes=outcomes[cursor : cursor + size],
                    wall_time_s=elapsed,
                )
                cursor += size
                remaining_per_stage[group.stage] -= 1

    def _dispatch(
        self, batch: BatchRequest, degradation: "DegradationReport | None"
    ) -> list[CheckOutcome]:
        """Answer a batch from the verdict memo; solve each distinct miss once.

        Every check's :func:`~repro.core.checks.verdict_key` is computed
        here, once.  A key the context's :class:`SessionPool` already holds
        is answered in this process (:func:`~repro.core.checks.recall`).
        The misses collapse to one representative per key, and only those
        reach a backend; their decided outcomes are remembered, which turns
        the rest of the batch into hits.  A duplicate whose representative
        came back UNKNOWN is not answered from it: UNKNOWN depends on
        budgets, not on the query, so such duplicates are solved themselves
        in a second, undeduplicated round.
        """
        checks = batch.checks
        if not checks:
            return []
        sessions = self.context.sessions
        outcomes: list[CheckOutcome | None] = [None] * len(checks)
        # Keys are kept per distinct miss only, and repeats as machine ints,
        # so a batch of tens of thousands of repeats stays small.
        representatives: dict[tuple, int] = {}
        duplicates: dict[tuple, array[int]] = {}
        for index, check in enumerate(checks):
            key = verdict_key(check, batch.config, batch.universe, batch.ghosts)
            answer = recall(check, key, sessions, batch.deadline_s, batch.run_deadline)
            if answer is not None:
                outcomes[index] = answer
            elif representatives.setdefault(key, index) != index:
                duplicates.setdefault(key, array("q")).append(index)
        self._solve(
            batch, [(index, key) for key, index in representatives.items()],
            outcomes, degradation,
        )
        unanswered = []
        for key, indexes in duplicates.items():
            for index in indexes:
                answer = recall(
                    checks[index], key, sessions, batch.deadline_s, batch.run_deadline
                )
                if answer is None:
                    unanswered.append((index, key))
                else:
                    outcomes[index] = answer
        self._solve(batch, unanswered, outcomes, degradation)
        return outcomes  # type: ignore[return-value]

    def _solve(
        self,
        batch: BatchRequest,
        misses: list[tuple[int, tuple]],
        outcomes: "list[CheckOutcome | None]",
        degradation: "DegradationReport | None",
    ) -> None:
        """Solve each ``(index, key)`` miss on a backend; remember decided ones."""
        if not misses:
            return
        checks = batch.checks
        solved = self._run(
            replace(batch, checks=[checks[index] for index, __ in misses]), degradation
        )
        for (index, key), outcome in zip(misses, solved):
            check = checks[index]
            if outcome.check is not check:  # a worker's unpickled copy
                outcome = rebind(outcome, check, outcome.stats)
            outcomes[index] = outcome
            if not outcome.unknown:
                self.context.sessions.remember(key, outcome)

    def _run(
        self, batch: BatchRequest, degradation: "DegradationReport | None"
    ) -> list[CheckOutcome]:
        """Run one batch through the strategy chain, degrading in order.

        The chain and its quirks are load-bearing compatibility: a failed
        persistent-pool dispatch *falls through* to the one-shot pool (one
        batch can record two fallbacks); the one-shot pool is skipped for
        single-check batches and under a run deadline (its blocking map()
        cannot return partial results); everything lands on the serial path.
        """
        context = self.context
        backend = context.resolved_backend()
        jobs = resolve_jobs(context.parallel)
        workers = (
            context._workers() if backend in ("auto", "process") else None
        )
        if workers is not None and backend in ("auto", "process"):
            process = ProcessBackend(jobs, workers=workers)
            outcomes = process.run_persistent(batch, degradation)
            if outcomes is not None:
                return outcomes
            context.record_fallback(
                workers.last_fallback_reason or "worker pool unavailable",
                degradation,
            )
        # A single check cannot parallelise; forking a one-shot pool for it
        # (e.g. the liveness implication with parallel > 1 and no
        # WorkerPool) would be pure overhead, so it takes the serial
        # session path below.  The one-shot pool is also skipped under a
        # run deadline: its blocking map() cannot return partial results,
        # so the serial path below (which can stop between checks) honours
        # the wall budget instead.
        if (
            jobs > 1
            and len(batch.checks) > 1
            and backend in ("auto", "process")
            and batch.run_deadline is None
        ):
            outcomes = ProcessBackend(jobs).run_oneshot(batch)
            if outcomes is not None:
                return outcomes
            context.record_fallback("one-shot process pool unavailable", degradation)
        return SerialBackend(context.sessions).run(batch)
