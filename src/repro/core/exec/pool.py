"""Process-parallel local-check execution.

The paper's deployment discharges local checks as separate processes, one
per device; this module is the reproduction of that execution model.  The
driver chunks a check list by owner router (:func:`repro.core.checks.
check_owner`), ships the immutable problem context — configuration,
attribute universe, ghosts, conflict budget — to each worker exactly once,
and runs every chunk against a per-owner :class:`repro.smt.CheckSession`
so the shared encoding stays hot within a worker.  Outcomes (including
counterexamples) are plain picklable dataclasses and stream back tagged
with their original index, so callers see results in input order
regardless of scheduling.

Two execution models share that chunking:

* :func:`run_checks_in_processes` — a one-shot ``ProcessPoolExecutor``
  whose workers die with the call; sessions live for one chunk.
* :class:`WorkerPool` — *persistent* worker processes that survive across
  ``run_checks`` calls.  Each worker keeps an owner-keyed
  :class:`repro.smt.SessionPool` for its whole life and caches every
  problem context it has ever been shipped, and the parent routes each
  owner's chunks to a fixed worker (size-aware affinity: unseen owners are
  assigned largest-first to the least-loaded worker, weighted by their
  check counts, and then stay pinned so their sessions keep paying off),
  so a repeated invocation — incremental re-verification, a multi-family
  WAN sweep, the liveness sub-proof loop — re-solves against the clause
  databases earlier calls already built instead of re-encoding from
  scratch.  This is the process-backend analogue of passing one
  ``SessionPool`` through the serial path; ``stats()`` reports the
  resulting owner→worker load balance.

Process pools are not universally available (sandboxes without semaphores,
restricted spawn semantics); both models degrade gracefully — ``None`` is
returned and the caller falls back to the serial session path, which
computes identical outcomes.  A ``WorkerPool`` additionally *recovers*
from individual worker deaths mid-run: the dead worker is respawned into
its slot, only the chunks whose replies never arrived are re-dispatched,
and a chunk that kills its worker twice is quarantined to in-parent
serial execution — completed work is never thrown away, and one poison
check cannot sink the pool.  Every degradation (serial fallback, respawn,
redispatch, quarantine) is counted in ``stats()``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.checks import check_owner, prepare_session, skipped_outcome
from repro.lang.transfer import set_transfer_cache_enabled, transfer_cache_enabled
from repro.smt.solver import CheckSession, SessionPool
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.bgp.config import NetworkConfig
    from repro.core.checks import CheckOutcome, LocalCheck
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse


# Per-worker problem context, installed once by the pool initializer so the
# (comparatively large) config/universe payload is not re-pickled per task.
_WORKER_CONTEXT: tuple | None = None


def _init_worker(
    config: "NetworkConfig",
    universe: "AttributeUniverse",
    ghosts: tuple["GhostAttribute", ...],
    conflict_budget: int | None,
    cache_enabled: bool = True,
    deadline_s: float | None = None,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (config, universe, ghosts, conflict_budget, deadline_s)
    # Mirror the parent's transfer-memoisation switch: workers rebuild
    # their own caches from the shipped config/universe (term graphs don't
    # pickle usefully), but a cache-off differential run must stay cache-off
    # end to end.
    set_transfer_cache_enabled(cache_enabled)


def _run_chunk(
    indexed_checks: list[tuple[int, "LocalCheck"]],
) -> list[tuple[int, "CheckOutcome"]]:
    """Discharge one owner's checks in this worker, sharing one session."""
    assert _WORKER_CONTEXT is not None, "worker initializer did not run"
    config, universe, ghosts, conflict_budget, deadline_s = _WORKER_CONTEXT
    session = CheckSession()
    prepare_session(session, universe)
    return [
        (
            index,
            check.run(
                config, universe, ghosts, conflict_budget,
                session=session, deadline_s=deadline_s,
            ),
        )
        for index, check in indexed_checks
    ]


def chunk_by_owner(
    checks: Sequence["LocalCheck"],
) -> list[list[tuple[int, "LocalCheck"]]]:
    """Group (index, check) pairs by owner router, preserving first-seen order."""
    groups: dict[str | None, list[tuple[int, "LocalCheck"]]] = {}
    for index, check in enumerate(checks):
        groups.setdefault(check_owner(check), []).append((index, check))
    return list(groups.values())


def run_checks_in_processes(
    checks: Sequence["LocalCheck"],
    config: "NetworkConfig",
    universe: "AttributeUniverse",
    ghosts: tuple["GhostAttribute", ...],
    conflict_budget: int | None,
    jobs: int,
    deadline_s: float | None = None,
) -> "list[CheckOutcome] | None":
    """Run checks on a process pool; None if no pool could be used.

    Results come back in input order.  Failures of the *pool machinery*
    (no semaphore support, broken workers, unpicklable payloads) degrade to
    ``None`` so the caller can rerun serially; genuine exceptions raised by
    a check itself still propagate.  ``deadline_s`` is a per-check
    wall-clock budget applied inside the workers.
    """
    chunks = chunk_by_owner(checks)
    if not chunks:
        return []
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)),
            initializer=_init_worker,
            initargs=(
                config, universe, ghosts, conflict_budget,
                transfer_cache_enabled(), deadline_s,
            ),
        ) as pool:
            outcomes: list["CheckOutcome | None"] = [None] * len(checks)
            for pairs in pool.map(_run_chunk, chunks):
                for index, outcome in pairs:
                    outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]
    except (OSError, BrokenProcessPool, pickle.PicklingError, EOFError, ImportError):
        return None


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------


def _persistent_worker_main(
    task_queue: Any,
    result_queue: Any,
    worker_index: int = 0,
    fault_plan: Any = None,
) -> None:
    """The loop a persistent worker runs for its whole life.

    Contexts arrive once per (worker, problem) and are cached by token;
    sessions are drawn from one owner-keyed pool that is never discarded,
    so a chunk for an owner this worker has seen before re-solves against
    the clause database the earlier chunk built.

    ``fault_plan`` is this worker's slice of the parent's fault-injection
    plan (see :mod:`repro.testing.faults`): the kill fault crashes the
    process with ``os._exit`` on receipt of its Nth chunk, *before*
    replying, and check-level faults are installed process-wide so the
    hook inside ``LocalCheck.run`` sees them.  The parent ships the slice
    explicitly (rather than letting the child re-read the environment) so
    a respawned worker can be handed a plan with the kill already
    consumed — that is what makes kill-N-times scenarios terminate.
    """
    faults.install(fault_plan)
    kill_after = None if fault_plan is None else fault_plan.kill_worker_after_chunks
    chunks_received = 0
    contexts: dict[int, tuple] = {}
    sessions = SessionPool()
    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError):  # parent went away mid-read
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "context":
            __, token, payload = message
            contexts[token] = payload
            continue
        if kind == "drop":
            contexts.pop(message[1], None)
            continue
        (
            __, run_id, chunk_index, token, indexed_checks,
            deadline_s, run_deadline,
        ) = message
        chunks_received += 1
        if kill_after is not None and chunks_received >= kill_after:
            # Simulated hard crash: no reply, no cleanup, no exit handlers.
            os._exit(1)
        try:
            config, universe, ghosts, conflict_budget, cache_enabled = contexts[token]
            # Re-apply per chunk, not just at context arrival: chunks for an
            # earlier context may follow a context with the other setting.
            set_transfer_cache_enabled(cache_enabled)
            owner = check_owner(indexed_checks[0][1])
            session = sessions.get(owner)
            prepare_session(session, universe)
            vars_before = session.total_vars
            clauses_before = session.total_clauses
            pairs = []
            for index, check in indexed_checks:
                # Effective per-check deadline: the tighter of the check
                # budget and what is left of the run's wall budget
                # (``run_deadline`` is absolute CLOCK_MONOTONIC, which is
                # system-wide on Linux, so the parent's timestamp is
                # directly comparable here).  An already-expired budget
                # short-circuits before encoding: without this, every
                # remaining check in the chunk still paid its full setup
                # cost only for the solve to time out instantly.
                if run_deadline is not None and time.monotonic() >= run_deadline:
                    pairs.append((index, skipped_outcome(check, "wall-budget")))
                    continue
                effective = deadline_s
                if run_deadline is not None:
                    remaining = run_deadline - time.monotonic()
                    effective = remaining if effective is None else min(effective, remaining)
                pairs.append(
                    (
                        index,
                        check.run(
                            config, universe, ghosts, conflict_budget,
                            session=session, deadline_s=effective,
                        ),
                    )
                )
            grew = (
                session.total_vars - vars_before,
                session.total_clauses - clauses_before,
            )
            reply = (run_id, chunk_index, "ok", owner, pairs, grew)
        except Exception as exc:  # genuine check failure: ship it back
            reply = (run_id, chunk_index, "error", exc)
        try:
            result_queue.put(reply)
        except Exception:
            # The reply failed to serialise (an unpicklable outcome or
            # exception).  That is pool machinery failing, not the check:
            # report it as such so the parent degrades to the serial path,
            # matching run_checks_in_processes's PicklingError behaviour.
            result_queue.put((run_id, chunk_index, "machinery"))


class WorkerPool:
    """Persistent worker processes with per-worker owner-keyed sessions.

    Unlike :func:`run_checks_in_processes`, whose workers (and therefore
    encodings) die with each call, a ``WorkerPool`` is an object the caller
    keeps: :class:`repro.core.workspace.Workspace` (and through it the
    deprecated engine/incremental facades) and the WAN sweep runners hold
    one across ``run_checks`` calls.  Three mechanisms make repeat calls
    cheap:

    * **owner affinity** — each owner router is pinned to one worker on
      first sight and stays pinned, so all of an owner's chunks, across
      all calls, hit the same worker's session for that owner.  Assignment
      is *size-aware*: within a call, unseen owners are placed largest
      chunk first onto the currently least-loaded worker (load = total
      checks assigned so far), so heterogeneous networks don't pile their
      big routers onto one process the way first-seen round-robin did;
    * **context caching** — the (config, universe, ghosts, budget) payload
      is shipped to a worker at most once per distinct problem, identified
      by a content fingerprint (policy digests + topology + universe), and
      cached worker-side by token;
    * **persistent sessions** — workers never drop their
      :class:`repro.smt.SessionPool`, so re-solving a chunk adds zero
      encoding (``last_encoding_growth`` is the witness).

    ``run`` returns outcomes in input order, or ``None`` when the pool
    machinery is unavailable or broke beyond repair (no semaphore support,
    unpicklable payloads) — the caller then falls back to the serial path,
    which computes identical outcomes.  Genuine exceptions raised by a
    check itself still propagate.

    A worker *death* mid-run is recovered, not abandoned: the parent
    quiesces dispatch, respawns the dead process into the same slot
    (bounded retries with backoff; owner pinning stays valid), and
    re-dispatches only the chunks whose replies never arrived — completed
    outcomes are kept.  The first still-pending chunk in the dead worker's
    dispatch order is blamed for the crash; an owner blamed twice is
    quarantined and its checks run serially in the parent from then on, so
    a reproducibly poisonous check cannot crash-loop the pool.  All of it
    is observable: ``worker_respawns``, ``chunks_redispatched``,
    ``checks_quarantined``, ``serial_fallbacks`` and
    ``last_fallback_reason`` appear in ``stats()``.

    ``run`` also takes wall-clock bounds: ``deadline_s`` caps each check's
    solve, and ``run_deadline`` (absolute ``time.monotonic()``) caps the
    whole call — on expiry the still-unfinished checks resolve to UNKNOWN
    with reason ``wall-budget`` and the run returns partial results.
    """

    def __init__(self, jobs: int, max_contexts: int = 8) -> None:
        if jobs < 1:
            raise ValueError(f"WorkerPool needs at least one worker, got {jobs}")
        self.jobs = jobs
        # Bound on retained problem contexts: a long-lived pool serving many
        # successive config edits would otherwise accumulate a full
        # config+universe payload per edit, parent- and worker-side.  Oldest
        # contexts are evicted FIFO (workers are told to drop them too);
        # worker sessions stay, they are keyed by owner and always sound.
        self.max_contexts = max(1, max_contexts)
        self._workers: list[tuple] = []  # (Process, task SimpleQueue)
        self._results = None
        self._shipped: list[set[int]] = []  # per-worker shipped context tokens
        self._tokens: dict[tuple, int] = {}  # fingerprint -> context token
        self._payloads: dict[int, tuple] = {}  # token -> context payload
        self._token_fingerprints: dict[int, tuple] = {}
        self._token_order: list[int] = []  # FIFO for eviction
        self._next_token = 0
        self._owner_assignment: dict[object, int] = {}
        self._owner_weight: dict[object, int] = {}  # checks seen per owner
        self._worker_load: dict[int, int] = {}  # summed weight per worker
        self._run_counter = 0
        self._broken = False
        self._closed = False
        # Fault-recovery state.  Blame counts and quarantined owners are
        # pool-lifetime: an owner that crashed two workers stays serial.
        self._kill_blame: dict[object, int] = {}
        self._quarantined: set[object] = set()
        self._retired: set[int] = set()  # worker slots given up on
        self._parent_sessions: SessionPool | None = None  # for quarantined checks
        self._fault_plan = None  # injected FaultPlan, if any (testing)
        # Reuse telemetry (tests and benchmarks read these).
        self.contexts_shipped = 0
        self.chunks_run = 0
        self.last_encoding_growth: dict[object, tuple[int, int]] = {}
        # Degradation telemetry (see stats()).
        self.worker_respawns = 0
        self.chunks_redispatched = 0
        self.checks_quarantined = 0
        self.serial_fallbacks = 0
        self.last_fallback_reason: str | None = None

    # -- lifecycle -----------------------------------------------------

    def _start(self) -> bool:
        if self._broken or self._closed:
            return False
        if self._workers:
            return True
        self._fault_plan = faults.active_plan()
        try:
            ctx = multiprocessing.get_context()
            self._results = ctx.SimpleQueue()
            for index in range(self.jobs):
                task_queue = ctx.SimpleQueue()
                plan = (
                    None
                    if self._fault_plan is None
                    else self._fault_plan.worker_faults(index)
                )
                process = ctx.Process(
                    target=_persistent_worker_main,
                    args=(task_queue, self._results, index, plan),
                    daemon=True,
                )
                process.start()
                self._workers.append((process, task_queue))
                self._shipped.append(set())
        except (OSError, ImportError, ValueError):
            self._abandon()
            return False
        return True

    @staticmethod
    def _reap(process: multiprocessing.process.BaseProcess, grace: float = 1.0) -> None:
        """terminate → kill escalation so no error path leaks a child."""
        try:
            process.terminate()
            process.join(timeout=grace)
            if process.is_alive():
                process.kill()
                process.join(timeout=grace)
        except (OSError, ValueError):
            pass

    def _abandon(self) -> None:
        """Tear the pool down after a machinery failure; callers go serial."""
        for process, __ in self._workers:
            self._reap(process)
        self._workers = []
        self._shipped = []
        self._results = None
        self._broken = True

    def _fallback(self, reason: str) -> None:
        """Record an impending serial fallback; returned as run()'s None."""
        self.serial_fallbacks += 1
        self.last_fallback_reason = reason
        return None

    def close(self) -> None:
        """Stop the workers gracefully.  The pool cannot be restarted.

        A worker that ignores its stop message (wedged in a solve, or a
        zombie from an injected crash) is terminated and, failing that,
        killed — close() never leaks a child process.
        """
        for __, task_queue in self._workers:
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process, __ in self._workers:
            process.join(timeout=5)
            if process.is_alive():
                self._reap(process)
        self._workers = []
        self._shipped = []
        self._results = None
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- fault recovery ------------------------------------------------

    _RESPAWN_ATTEMPTS = 3
    _MAX_RESPAWNS_PER_WORKER_PER_RUN = 3

    def _respawn(self, worker_index: int) -> bool:
        """Start a fresh worker in a dead worker's slot.

        The slot keeps its owner assignments (pinning maps index, not
        process identity), but its context cache died with the process, so
        ``_shipped`` is cleared and the next dispatch re-ships the context.
        Spawn failures retry with backoff; False means the slot is lost.
        """
        ctx = multiprocessing.get_context()
        plan = (
            None
            if self._fault_plan is None
            else self._fault_plan.worker_faults(worker_index)
        )
        for attempt in range(1, self._RESPAWN_ATTEMPTS + 1):
            try:
                task_queue = ctx.SimpleQueue()
                process = ctx.Process(
                    target=_persistent_worker_main,
                    args=(task_queue, self._results, worker_index, plan),
                    daemon=True,
                )
                process.start()
            except (OSError, ImportError, ValueError):
                time.sleep(0.05 * attempt)
                continue
            self._workers[worker_index][0].join(timeout=1)  # reap the corpse
            self._workers[worker_index] = (process, task_queue)
            self._shipped[worker_index] = set()
            self.worker_respawns += 1
            return True
        return False

    def _drain_task_queue(self, worker_index: int) -> None:
        """Throw away a dead worker's queued messages.

        The parent holds both ends of every task pipe, so this cannot
        raise EPIPE — and it is what unblocks a dispatcher thread stuck
        writing a large payload into the dead worker's full pipe.  The
        drained chunks are exactly the "lost" ones recovery re-dispatches.
        """
        try:
            reader = self._workers[worker_index][1]._reader
            while reader.poll():
                reader.recv_bytes()
        except (OSError, EOFError, ValueError, IndexError):
            pass

    def _drain_results(self, buffered: list[Any]) -> None:
        """Move any queued replies into ``buffered`` without blocking."""
        try:
            while self._results._reader.poll():
                buffered.append(self._results.get())
        except (OSError, EOFError, AttributeError):
            pass

    def _quiesce(
        self,
        dispatchers: list[threading.Thread],
        buffered: list[Any],
        timeout: float = 10.0,
    ) -> bool:
        """Wait for every dispatcher thread to finish, keeping pipes moving.

        A dispatcher can be blocked on a dead worker's full task pipe, or
        on an alive worker that is itself blocked writing a reply; drain
        both directions until the threads run out of work.  Returns False
        on timeout (the pool is then unusable and must be abandoned).
        """
        deadline = time.monotonic() + timeout
        while any(thread.is_alive() for thread in dispatchers):
            for worker_index, (process, __) in enumerate(self._workers):
                if not process.is_alive():
                    self._drain_task_queue(worker_index)
            self._drain_results(buffered)
            for thread in dispatchers:
                thread.join(timeout=0.05)
            if time.monotonic() > deadline:
                return False
        return True

    def _run_chunks_serially(
        self,
        chunk_indices: "Iterable[int]",
        chunks: "list[list[tuple[int, LocalCheck]]]",
        outcomes: "list[CheckOutcome | None]",
        pending: set[int],
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: "tuple[GhostAttribute, ...]",
        conflict_budget: int | None,
        deadline_s: float | None,
        run_deadline: float | None,
    ) -> None:
        """Discharge chunks in-parent (quarantined owners, lost causes).

        Sessions come from a parent-side owner-keyed pool that persists
        across runs, so quarantined owners keep their encoding reuse; the
        run's wall budget still applies, and genuine check exceptions
        propagate exactly as they do on the worker path.
        """
        if self._parent_sessions is None:
            self._parent_sessions = SessionPool()
        for chunk_index in chunk_indices:
            chunk = chunks[chunk_index]
            owner = check_owner(chunk[0][1])
            session = self._parent_sessions.get(owner)
            prepare_session(session, universe)
            for index, check in chunk:
                if outcomes[index] is not None:
                    continue
                if run_deadline is not None and time.monotonic() >= run_deadline:
                    outcomes[index] = skipped_outcome(check, "wall-budget")
                    continue
                effective = deadline_s
                if run_deadline is not None:
                    remaining = run_deadline - time.monotonic()
                    effective = remaining if effective is None else min(effective, remaining)
                outcomes[index] = check.run(
                    config, universe, ghosts, conflict_budget,
                    session=session, deadline_s=effective,
                )
            pending.discard(chunk_index)

    # -- dispatch ------------------------------------------------------

    @staticmethod
    def _fingerprint(
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...],
        conflict_budget: int | None,
    ) -> tuple[object, ...]:
        """A hashable content identity for one problem context.

        Callers routinely rebuild equal configs (or edit one in place), so
        identity has to come from content: per-router policy digests plus
        topology, not object ids — an id-keyed shortcut would serve stale
        contexts after an in-place edit.  Recomputing is cheap: route-map
        digests are memoised by content, leaving one small sha256 per
        router per call.  Ghosts are flattened to sorted tuples because
        their dict fields make them unhashable as-is.
        """
        frozen_ghosts = tuple(
            (
                g.name,
                g.originated_value,
                tuple(sorted(g.import_updates.items())),
                tuple(sorted(g.export_updates.items())),
            )
            for g in ghosts
        )
        return (
            tuple(sorted(config.policy_digests().items())),
            tuple(sorted(config.topology.routers)),
            tuple(sorted(config.topology.edges)),
            tuple(sorted(config.external_asns.items())),
            universe,
            frozen_ghosts,
            conflict_budget,
            transfer_cache_enabled(),
        )

    def _evict_oldest_context(self) -> None:
        """Forget the oldest context, parent- and worker-side.

        Stale chunks still queued for the dropped token belong to abandoned
        runs; their error replies carry an old run id and are filtered out.
        """
        token = self._token_order.pop(0)
        del self._payloads[token]
        fingerprint = self._token_fingerprints.pop(token)
        del self._tokens[fingerprint]
        for worker_index, shipped in enumerate(self._shipped):
            if token in shipped:
                shipped.discard(token)
                try:
                    self._workers[worker_index][1].put(("drop", token))
                except (OSError, ValueError):
                    pass

    def _assign_owners(
        self, chunks: "list[list[tuple[int, LocalCheck]]]", worker_count: int
    ) -> None:
        """Pin any unseen owners to workers, size-aware and largest-first.

        Owners already assigned keep their worker — moving one would strand
        its session encoding.  New owners are sorted by chunk size
        (descending; owner key breaks ties deterministically) and each goes
        to the worker with the least total assigned weight, so a
        heterogeneous network's one giant router no longer lands wherever
        round-robin happened to point.  Runs in the dispatching thread's
        caller (not the dispatcher itself) so the assignment maps are never
        mutated concurrently.
        """
        fresh = []
        for chunk in chunks:
            owner = check_owner(chunk[0][1])
            if owner in self._owner_assignment:
                # Track cumulative per-owner weight for stats/balance.
                self._owner_weight[owner] = self._owner_weight.get(owner, 0) + len(
                    chunk
                )
                self._worker_load[self._owner_assignment[owner]] += len(chunk)
            else:
                fresh.append((owner, len(chunk)))
        fresh.sort(key=lambda pair: (-pair[1], str(pair[0])))
        for owner, size in fresh:
            worker_index = min(
                range(worker_count), key=lambda w: self._worker_load.get(w, 0)
            )
            self._owner_assignment[owner] = worker_index
            self._owner_weight[owner] = size
            self._worker_load[worker_index] = (
                self._worker_load.get(worker_index, 0) + size
            )

    def stats(self) -> dict[str, object]:
        """Owner→worker load-balance telemetry (plus reuse counters).

        ``per_worker_weight`` is the total number of checks routed to each
        worker over the pool's lifetime; ``imbalance`` is max/mean of that
        distribution (1.0 = perfectly balanced), the number the ROADMAP's
        multi-core scaling item wants recorded next to per-core curves.
        """
        loads = [self._worker_load.get(w, 0) for w in range(self.jobs)]
        owners_per_worker: dict[int, list[str | None]] = {
            w: [] for w in range(self.jobs)
        }
        for owner, worker_index in self._owner_assignment.items():
            owners_per_worker[worker_index].append(owner)
        mean_load = sum(loads) / len(loads) if loads else 0.0
        return {
            "jobs": self.jobs,
            "owners_assigned": len(self._owner_assignment),
            "per_worker_weight": loads,
            "per_worker_owners": {
                w: sorted(owners, key=str) for w, owners in owners_per_worker.items()
            },
            "owner_weight": dict(self._owner_weight),
            "imbalance": (max(loads) / mean_load) if mean_load else 1.0,
            "contexts_shipped": self.contexts_shipped,
            "chunks_run": self.chunks_run,
            "learnts_seeded": 0,  # no learnt clauses ship; lybench/counters.py reads it
            "serial_fallbacks": self.serial_fallbacks,
            "last_fallback_reason": self.last_fallback_reason,
            "worker_respawns": self.worker_respawns,
            "chunks_redispatched": self.chunks_redispatched,
            "checks_quarantined": self.checks_quarantined,
            "quarantined_owners": sorted(self._quarantined, key=str),
        }

    def run(
        self,
        checks: Sequence["LocalCheck"],
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...] = (),
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
        run_deadline: float | None = None,
    ) -> "list[CheckOutcome] | None":
        """Run checks on the persistent workers; None if the pool is unusable.

        ``deadline_s`` bounds each check's solve in wall-clock seconds;
        ``run_deadline`` (absolute ``time.monotonic()``) bounds the whole
        call — on expiry, still-unfinished checks resolve to UNKNOWN with
        reason ``wall-budget`` and partial results are returned.  Worker
        deaths are recovered chunk-granularly (see the class docstring);
        only unrecoverable machinery failures return ``None``.
        """
        chunks = chunk_by_owner(checks)
        if not chunks:
            return []
        if not self._start():
            return self._fallback("worker pool unavailable (broken, closed, or failed to start)")
        fingerprint = self._fingerprint(config, universe, ghosts, conflict_budget)
        token = self._tokens.get(fingerprint)
        if token is None:
            while len(self._token_order) >= self.max_contexts:
                self._evict_oldest_context()
            token = self._next_token
            self._next_token += 1
            self._tokens[fingerprint] = token
            self._token_fingerprints[token] = fingerprint
            self._token_order.append(token)
            self._payloads[token] = (
                config, universe, tuple(ghosts), conflict_budget,
                transfer_cache_enabled(),
            )
        payload = self._payloads[token]
        self._run_counter += 1
        run_id = self._run_counter
        # Pin owners to workers up front (size-aware, largest-first) so the
        # dispatcher threads below only read the assignment map.
        self._assign_owners(chunks, len(self._workers))

        pending = set(range(len(chunks)))
        outcomes: list["CheckOutcome | None"] = [None] * len(checks)
        growth: dict[object, tuple[int, int]] = {}

        # Owners quarantined by earlier crashes never reach a worker again:
        # their chunks are partitioned out up front and run in-parent
        # (below, after dispatch starts, so workers chew in parallel).
        quarantined_now = [
            chunk_index
            for chunk_index in sorted(pending)
            if check_owner(chunks[chunk_index][0][1]) in self._quarantined
        ]
        pending -= set(quarantined_now)
        to_dispatch = [ci for ci in range(len(chunks)) if ci in pending]

        # Dispatch from side threads while this thread drains results —
        # the same decoupling ProcessPoolExecutor's feeder threads provide.
        # Blocking puts must never share a thread with the result drain: a
        # worker blocked writing a reply into a full results pipe stops
        # reading its task queue, and a parent blocked writing into that
        # task queue would then never drain the replies — a deadlock on
        # counterexample-heavy runs.
        dispatched: dict[int, int] = {}  # chunk_index -> worker_index
        dispatch_seq: dict[int, list[int]] = {}  # worker -> chunks, send order
        dispatch_errors: list[BaseException] = []
        dispatchers: list[threading.Thread] = []
        respawns_this_run: dict[int, int] = {}
        buffered: list[tuple] = []  # replies drained while quiescing

        def _ship(chunk_indices: list[int]) -> None:
            def _dispatch() -> None:
                try:
                    for chunk_index in chunk_indices:
                        chunk = chunks[chunk_index]
                        owner = check_owner(chunk[0][1])
                        worker_index = self._owner_assignment[owner]
                        __, task_queue = self._workers[worker_index]
                        if token not in self._shipped[worker_index]:
                            # SimpleQueue.put serialises synchronously, so an
                            # unpicklable payload surfaces here, observable.
                            task_queue.put(("context", token, payload))
                            self._shipped[worker_index].add(token)
                            self.contexts_shipped += 1
                        task_queue.put(
                            ("chunk", run_id, chunk_index, token, chunk,
                             deadline_s, run_deadline)
                        )
                        dispatch_seq.setdefault(worker_index, []).append(chunk_index)
                        dispatched[chunk_index] = worker_index
                except (OSError, ValueError, pickle.PicklingError, AttributeError,
                        TypeError, IndexError) as exc:
                    dispatch_errors.append(exc)

            thread = threading.Thread(target=_dispatch, daemon=True)
            thread.start()
            dispatchers.append(thread)

        _ship(to_dispatch)
        if quarantined_now:
            self.checks_quarantined += sum(len(chunks[ci]) for ci in quarantined_now)
            self._run_chunks_serially(
                quarantined_now, chunks, outcomes, pending,
                config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
            )

        def _apply_reply(reply: tuple[Any, ...]) -> "tuple[str, BaseException | None] | None":
            """Fold one worker reply into the run state.

            Returns None normally, or a terminal condition: ("machinery",
            None) for an unserialisable reply, ("error", exc) for a genuine
            check exception.
            """
            if reply[0] != run_id:
                return None  # stale reply from an earlier run
            __, chunk_index, status, *rest = reply
            if chunk_index not in pending:
                return None  # duplicate (chunk already recovered elsewhere)
            if status == "machinery":
                return ("machinery", None)
            if status == "error":
                return ("error", rest[0])
            owner, pairs, grew = rest
            for index, outcome in pairs:
                outcomes[index] = outcome
            old = growth.get(owner, (0, 0))
            growth[owner] = (old[0] + grew[0], old[1] + grew[1])
            pending.discard(chunk_index)
            return None

        def _recover(dead: list[int]) -> "tuple[str, BaseException | None] | None":
            """Chunk-granular recovery from one or more worker deaths."""
            # 1. Quiesce dispatch.  Dispatcher threads can be blocked on a
            # dead worker's full pipe; draining it (and the results pipe)
            # lets them run to completion, after which the dispatch maps
            # are stable and respawning cannot race a concurrent put.
            if not self._quiesce(dispatchers, buffered):
                self._abandon()
                return ("machinery", None)
            for worker_index in dead:
                self._drain_task_queue(worker_index)
            self._drain_results(buffered)
            # 2. Fold in every reply that did arrive, so ``pending`` is
            # exactly the set of chunks whose results are genuinely lost.
            while buffered:
                terminal = _apply_reply(buffered.pop(0))
                if terminal is not None:
                    return terminal
            # 3. Per dead worker: blame, respawn, collect lost chunks.
            lost_all: list[int] = []
            serial_now: list[int] = []
            for worker_index in dead:
                lost = [
                    ci for ci in dispatch_seq.get(worker_index, [])
                    if ci in pending
                ]
                if lost:
                    # The first unanswered chunk in send order is the one
                    # the worker was holding when it died.
                    culprit = check_owner(chunks[lost[0]][0][1])
                    self._kill_blame[culprit] = self._kill_blame.get(culprit, 0) + 1
                    if self._kill_blame[culprit] >= 2:
                        self._quarantined.add(culprit)
                if (
                    self._fault_plan is not None
                    and self._fault_plan.kill_worker_after_chunks is not None
                    and self._fault_plan.kill_worker_index == worker_index
                ):
                    # The injected crash fired; the respawned worker gets a
                    # plan with one fewer firing, so kill-N-times scenarios
                    # terminate deterministically.
                    self._fault_plan = self._fault_plan.consume_kill()
                respawns_this_run[worker_index] = (
                    respawns_this_run.get(worker_index, 0) + 1
                )
                gave_up = (
                    respawns_this_run[worker_index]
                    > self._MAX_RESPAWNS_PER_WORKER_PER_RUN
                    or not self._respawn(worker_index)
                )
                if gave_up:
                    # The slot is unrecoverable: finish its lost chunks
                    # in-parent and refuse to start future runs.
                    self._retired.add(worker_index)
                    self._broken = True
                    self.last_fallback_reason = (
                        f"worker {worker_index} unrecoverable after "
                        f"{respawns_this_run[worker_index] - 1} respawns"
                    )
                    serial_now.extend(lost)
                else:
                    lost_all.extend(lost)
            # 4. Lost chunks: quarantined owners go serial, the rest are
            # re-dispatched to their (respawned) workers — and only they
            # are, which is the chunk-granular part.
            redispatch: list[int] = []
            for chunk_index in lost_all:
                owner = check_owner(chunks[chunk_index][0][1])
                if owner in self._quarantined:
                    serial_now.append(chunk_index)
                else:
                    redispatch.append(chunk_index)
            if serial_now:
                serial_now = sorted(set(serial_now))
                self.checks_quarantined += sum(len(chunks[ci]) for ci in serial_now)
                self._run_chunks_serially(
                    serial_now, chunks, outcomes, pending,
                    config, universe, ghosts, conflict_budget,
                    deadline_s, run_deadline,
                )
            if redispatch:
                redispatch.sort()
                self.chunks_redispatched += len(redispatch)
                _ship(redispatch)
            return None

        reader = self._results._reader  # Connection: the only timeout-capable probe
        terminal: "tuple[str, BaseException | None] | None" = None
        while pending and terminal is None:
            if run_deadline is not None and time.monotonic() >= run_deadline:
                # Wall budget exhausted: account for every unfinished check
                # explicitly and complete with partial results.  Workers may
                # still reply to this run's chunks; those replies carry this
                # run_id but arrive after we stop listening and are filtered
                # as stale by the next run.
                for chunk_index in sorted(pending):
                    for index, check in chunks[chunk_index]:
                        if outcomes[index] is None:
                            outcomes[index] = skipped_outcome(check, "wall-budget")
                pending.clear()
                break
            try:
                if not reader.poll(0.1):
                    if dispatch_errors and not any(t.is_alive() for t in dispatchers):
                        # Some chunks were never sent; their replies will
                        # never come.  Fall back to the serial path.
                        self._abandon()
                        return self._fallback(
                            f"dispatch failed: {dispatch_errors[0]!r}"
                        )
                    dead = [
                        worker_index
                        for worker_index, (process, __) in enumerate(self._workers)
                        if worker_index not in self._retired
                        and not process.is_alive()
                    ]
                    if dead:
                        terminal = _recover(dead)
                    continue
                terminal = _apply_reply(self._results.get())
            except (OSError, EOFError) as exc:
                self._abandon()
                return self._fallback(f"results channel failed: {exc!r}")
        if terminal is not None:
            kind, exc = terminal
            if kind == "error":
                # Quiesce dispatch (workers keep consuming, so this
                # converges) before handing the check's exception up.
                if not self._quiesce(dispatchers, buffered):
                    self._abandon()
                raise exc
            # An unserialisable reply: pool machinery, not the check.
            self._abandon()
            return self._fallback("worker reply failed to serialise")
        if not self._quiesce(dispatchers, buffered):
            self._abandon()
            return self._fallback("dispatcher failed to quiesce")
        self.chunks_run += len(chunks)
        self.last_encoding_growth = growth
        return outcomes  # type: ignore[return-value]
