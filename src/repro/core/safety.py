"""Safety verification (§4): run the generated local checks.

``verify_safety`` implements the paper's safety pipeline: build the
attribute universe, generate one Import/Export/Originate check per edge
plus the final ``I_l ⊆ P`` implication, discharge each independently, and
aggregate results.  By the §4.3 theorem, if every check passes the property
holds on all valid traces — for arbitrary external announcements and
arbitrary node/link failures.

Execution backends (:func:`run_checks`): the default serial path discharges
checks through one shared :class:`repro.smt.CheckSession` per owner router,
so the transfer-function encoding is built once per router instead of once
per check.  With ``parallel`` > 1 the ``process`` backend mirrors the
paper's deployment — checks chunked by owner router and discharged by a
pool of worker *processes* (real cores, no GIL), with the problem context
shipped once per worker — degrading to the serial path wherever process
pools are unavailable.  A legacy ``thread`` backend remains for callers
that want concurrent I/O without process semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bgp.config import NetworkConfig
from repro.core.checks import (
    CheckKind,
    CheckOutcome,
    LocalCheck,
    generate_safety_checks,
)
from repro.core.exec import (  # noqa: F401  (re-exported compatibility names)
    BACKENDS,
    CheckPlan,
    ExecutionContext,
    Scheduler,
    WorkerPool,
    resolve_jobs,
)
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import (  # noqa: F401
    DegradationReport,
    VerificationReport,
    failure_status,
)
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import predicate_atoms
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import SessionPool


@dataclass
class SafetyReport(VerificationReport):
    """Everything ``verify_safety`` learned.

    All outcome accounting (``passed``/``failures``/``unknowns``/size
    maxima/solve time) is inherited from the shared
    :class:`repro.core.report.VerificationReport` protocol.
    """

    property: SafetyProperty
    outcomes: list[CheckOutcome]
    wall_time_s: float
    degradation: DegradationReport | None = None

    def iter_outcomes(self):
        return iter(self.outcomes)

    @property
    def num_checks(self) -> int:
        return len(self.outcomes)

    def summary(self) -> str:
        return (
            f"{self.property}: {self.status()} — {self.num_checks} local checks, "
            f"max {self.max_vars} vars / {self.max_clauses} constraints per check, "
            f"{self.wall_time_s:.2f}s total ({self.solve_time_s:.2f}s solving)"
        )


def build_universe(
    config: NetworkConfig,
    invariants: InvariantMap | None,
    predicates,
    ghosts: tuple[GhostAttribute, ...],
) -> AttributeUniverse:
    """The universe covering config, invariants, properties, and ghosts."""
    communities = set()
    asns = set()
    ghost_names = {g.name for g in ghosts}
    preds = list(predicates)
    if invariants is not None:
        preds.append(invariants.default)
        preds.extend(invariants.get(loc) for loc in invariants.overridden_locations())
    for pred in preds:
        c, a, g = predicate_atoms(pred)
        communities |= c
        asns |= a
        ghost_names |= g
    return AttributeUniverse.from_config(
        config,
        extra_communities=tuple(communities),
        extra_asns=tuple(asns),
        ghosts=tuple(ghost_names),
    )


def run_checks(
    checks: list[LocalCheck],
    config: NetworkConfig,
    universe: AttributeUniverse,
    ghosts: tuple[GhostAttribute, ...] = (),
    parallel: int | str | None = None,
    conflict_budget: int | None = None,
    backend: str = "auto",
    sessions: SessionPool | None = None,
    workers: WorkerPool | None = None,
    deadline_s: float | None = None,
    run_deadline: float | None = None,
    degradation: DegradationReport | None = None,
) -> list[CheckOutcome]:
    """Discharge a list of checks; outcomes come back in input order.

    Checks are independent, so they parallelise trivially.  ``parallel``
    is the worker count (``"auto"`` = cpu count; ``None``/``0``/``1`` =
    serial); ``backend`` picks the execution strategy:

    * ``"auto"``/``"process"`` — worker processes, one chunk per owner
      router, the paper's per-device model.  Falls back to serial (same
      outcomes, deterministically ordered) if no pool can be created.
    * ``"serial"`` — in-process, one shared :class:`CheckSession` per
      owner router.

    Two handles make encodings persistent across calls:

    * ``sessions`` — an owner-keyed :class:`SessionPool` the serial path
      draws each owner's session from (and leaves populated), so
      incremental re-verification and multi-family sweeps pass one pool
      repeatedly and pay only marginal encoding.
    * ``workers`` — a persistent :class:`repro.core.exec.WorkerPool`
      used whenever the backend allows processes; its workers keep their
      own owner-keyed sessions alive across calls, the process-side
      analogue of ``sessions``.  If the pool machinery is unavailable the
      call degrades through the remaining strategies unchanged.

    The one-shot process path (``parallel`` > 1 without ``workers``) keeps
    per-call workers, so a supplied ``sessions`` pool is simply unused
    there (outcomes are identical either way).

    Fault-tolerance knobs: ``deadline_s`` bounds each check's solve in
    wall-clock seconds; ``run_deadline`` (absolute ``time.monotonic()``)
    bounds the whole call, resolving still-unrun checks to UNKNOWN with
    reason ``wall-budget``.  ``degradation`` is an optional
    :class:`DegradationReport` collector: serial fallbacks (also announced
    via ``warnings.warn`` so they are never invisible) and the worker
    pool's recovery counters are recorded on it.

    Since PR 9 this is a thin compatibility wrapper: it builds a
    one-group :class:`~repro.core.exec.plan.CheckPlan` plus an ephemeral
    :class:`~repro.core.exec.context.ExecutionContext` and lets the
    :class:`~repro.core.exec.scheduler.Scheduler` dispatch it.  Callers
    with staged or multi-group work should build plans directly.
    """
    context = ExecutionContext(
        parallel,
        backend,
        conflict_budget,
        sessions,
        workers,
        deadline_s=deadline_s,
        autopool=False,
    )
    plan = CheckPlan.single(list(checks))
    result = Scheduler(context).run(
        plan,
        config,
        universe,
        tuple(ghosts),
        conflict_budget=conflict_budget,
        run_deadline=run_deadline,
        degradation=degradation,
    )
    return result.outcomes


def verify_safety(
    config: NetworkConfig,
    prop: SafetyProperty,
    invariants: InvariantMap,
    ghosts: tuple[GhostAttribute, ...] = (),
    universe: AttributeUniverse | None = None,
    parallel: int | str | None = None,
    conflict_budget: int | None = None,
    backend: str = "auto",
    sessions: SessionPool | None = None,
    workers: WorkerPool | None = None,
    deadline_s: float | None = None,
    wall_budget_s: float | None = None,
) -> SafetyReport:
    """Verify a safety property via local checks (the §4 pipeline).

    ``deadline_s`` caps each check's solve; ``wall_budget_s`` caps the
    whole verification — both in wall-clock seconds, both resolving to
    UNKNOWN (reason ``timeout`` / ``wall-budget``) rather than hanging.
    """
    start = time.perf_counter()
    run_deadline = (
        None if wall_budget_s is None else time.monotonic() + wall_budget_s
    )
    degradation = DegradationReport()
    if universe is None:
        universe = build_universe(config, invariants, [prop.predicate], ghosts)
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    outcomes = run_checks(
        checks,
        config,
        universe,
        ghosts,
        parallel=parallel,
        conflict_budget=conflict_budget,
        backend=backend,
        sessions=sessions,
        workers=workers,
        deadline_s=deadline_s,
        run_deadline=run_deadline,
        degradation=degradation,
    )
    return SafetyReport(
        property=prop,
        outcomes=outcomes,
        wall_time_s=time.perf_counter() - start,
        degradation=degradation,
    )


def verify_safety_family(
    config: NetworkConfig,
    props: list[SafetyProperty],
    invariants: InvariantMap,
    ghosts: tuple[GhostAttribute, ...] = (),
    parallel: int | str | None = None,
    conflict_budget: int | None = None,
    backend: str = "auto",
    universe: AttributeUniverse | None = None,
    sessions: SessionPool | None = None,
    workers: WorkerPool | None = None,
    deadline_s: float | None = None,
    wall_budget_s: float | None = None,
) -> SafetyReport:
    """Verify a family of safety properties sharing one invariant map.

    Properties like Table 4a hold "at any router R": the same predicate at
    many locations.  The Import/Export/Originate checks depend only on the
    invariants, so they run once; only the cheap ``I_l ⊆ P`` implication
    check repeats per property.

    ``universe``, ``sessions``, and ``workers`` let a caller hoist
    encoding reuse one level further: Table-4 sweeps run many families
    over the same network, so they build one covering universe and one
    :class:`SessionPool` (or one persistent worker pool) and pass them to
    every family (see
    :func:`repro.workloads.wan_properties.verify_peering_problems`).
    """
    if not props:
        raise ValueError("empty property family")
    start = time.perf_counter()
    run_deadline = (
        None if wall_budget_s is None else time.monotonic() + wall_budget_s
    )
    degradation = DegradationReport()
    if universe is None:
        universe = build_universe(
            config, invariants, [p.predicate for p in props], ghosts
        )
    checks = generate_safety_checks(
        config, invariants, props[0].location, props[0].predicate
    )
    checks = [c for c in checks if c.kind is not CheckKind.IMPLICATION]
    for prop in props:
        checks.append(
            LocalCheck(
                kind=CheckKind.IMPLICATION,
                edge=None,
                location=prop.location,
                assumption=invariants.get(prop.location),
                goal=prop.predicate,
                description=(
                    f"implication check at {prop.location}: "
                    f"I[{prop.location}] implies {prop.name or 'the property'}"
                ),
            )
        )
    outcomes = run_checks(
        checks,
        config,
        universe,
        ghosts,
        parallel=parallel,
        conflict_budget=conflict_budget,
        backend=backend,
        sessions=sessions,
        workers=workers,
        deadline_s=deadline_s,
        run_deadline=run_deadline,
        degradation=degradation,
    )
    family_name = props[0].name or "family"
    summary_prop = SafetyProperty(
        location=props[0].location,
        predicate=props[0].predicate,
        name=f"{family_name} (x{len(props)} locations)",
    )
    return SafetyReport(
        property=summary_prop,
        outcomes=outcomes,
        wall_time_s=time.perf_counter() - start,
        degradation=degradation,
    )
