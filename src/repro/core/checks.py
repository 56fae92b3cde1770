"""Local check generation and execution (§4.2, §5.2).

Each :class:`LocalCheck` is one SMT query about a single filter on a single
edge — the unit of Lightyear's scalability claim.  Checks carry enough
metadata to localise a failure to the exact router, direction, and route
map, and to render the violated implication.

A check can be discharged hermetically (a fresh :class:`repro.smt.Solver`
per query) or against a shared :class:`repro.smt.CheckSession`, which
reuses the bit-blasted, Tseitin-encoded transfer-function fragments across
the checks that share them — see :func:`repro.core.safety.run_checks`,
which routes checks to one session per owner router (drawn from a
persistent :class:`repro.smt.SessionPool` when the caller supplies one).
Term construction itself is also reused: the transfer functions called
from ``run`` are memoised by policy content in :mod:`repro.lang.transfer`,
so two edges running the same filter build their symbolic relation once.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro import smt
from repro.bgp.config import NetworkConfig
from repro.bgp.route import Route
from repro.bgp.topology import Edge
from repro.core.counterexample import CheckFailure
from repro.core.properties import Location
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate, predicate_term
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import symbolic_originated, transfer_export, transfer_import
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import SolverStats
from repro.testing import faults


class CheckKind(enum.Enum):
    """What a local check establishes."""

    IMPORT = "import"  # edge invariant => node invariant, through Import
    EXPORT = "export"  # node invariant => edge invariant, through Export
    ORIGINATE = "originate"  # originated routes satisfy the edge invariant
    IMPLICATION = "implication"  # I_l subset-of P
    PROPAGATE_EXPORT = "propagate-export"  # C_i survives Export and is accepted
    PROPAGATE_IMPORT = "propagate-import"  # C_i survives Import and is accepted


@dataclass(frozen=True)
class LocalCheck:
    """A single generated check, ready to run."""

    kind: CheckKind
    edge: Edge | None
    assumption: Predicate
    goal: Predicate
    description: str
    route_map_name: str | None = None
    location: Location | None = None

    def run(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...] = (),
        conflict_budget: int | None = None,
        session: "smt.CheckSession | None" = None,
        deadline_s: float | None = None,
    ) -> "CheckOutcome":
        """Discharge the check with the SMT solver.

        With ``session`` the query is solved under assumptions against the
        session's shared clause database instead of a fresh encoding; the
        outcome is identical either way.  ``deadline_s`` is a wall-clock
        budget in seconds for the whole check — multi-query checks
        (originate) spread it across their discharges — after which the
        outcome is UNKNOWN with ``unknown_reason == "timeout"``.
        """
        # Pin the deadline once, up front, so encoding time and every
        # discharge of a multi-query check draw from the same budget.
        deadline_abs = None if deadline_s is None else time.monotonic() + deadline_s
        faults.on_check_start(self, deadline_abs)
        if self.kind in (CheckKind.IMPORT, CheckKind.PROPAGATE_IMPORT):
            return self._run_filter(
                config, universe, ghosts, transfer_import, conflict_budget, session,
                deadline_abs,
            )
        if self.kind in (CheckKind.EXPORT, CheckKind.PROPAGATE_EXPORT):
            return self._run_filter(
                config, universe, ghosts, transfer_export, conflict_budget, session,
                deadline_abs,
            )
        if self.kind is CheckKind.ORIGINATE:
            return self._run_originate(
                config, universe, ghosts, conflict_budget, session, deadline_abs
            )
        if self.kind is CheckKind.IMPLICATION:
            return self._run_implication(universe, conflict_budget, session, deadline_abs)
        raise AssertionError(f"unhandled check kind {self.kind}")

    # ------------------------------------------------------------------

    @staticmethod
    def _discharge(
        assertions: list,
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None = None,
    ) -> tuple["smt.Result", SolverStats, "smt.Model | None"]:
        """Decide a conjunction; returns (result, stats, model-if-SAT)."""
        deadline_s = (
            None if deadline_abs is None else deadline_abs - time.monotonic()
        )
        if session is not None:
            result = session.check(
                assertions, conflict_budget=conflict_budget, deadline_s=deadline_s
            )
            model = session.model() if result is smt.Result.SAT else None
            return result, session.stats, model
        solver = smt.Solver()
        for assertion in assertions:
            solver.add(assertion)
        result = solver.check(conflict_budget=conflict_budget, deadline_s=deadline_s)
        model = solver.model() if result is smt.Result.SAT else None
        return result, solver.stats, model

    def _run_filter(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...],
        transfer,
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        assert self.edge is not None
        route_in = SymbolicRoute.fresh("r", universe)
        accepted, route_out = transfer(config, self.edge, route_in, ghosts)

        assertions = [route_in.well_formed(), predicate_term(self.assumption, route_in)]
        if self.kind in (CheckKind.PROPAGATE_IMPORT, CheckKind.PROPAGATE_EXPORT):
            # Propagation checks must prove acceptance: refute
            #   assumption(r) and (rejected or not goal(r')).
            assertions.append(
                smt.or_(smt.not_(accepted), smt.not_(predicate_term(self.goal, route_out)))
            )
        else:
            # Safety checks only constrain accepted routes: refute
            #   assumption(r) and accepted and not goal(r').
            assertions.append(accepted)
            assertions.append(smt.not_(predicate_term(self.goal, route_out)))
        result, stats, model = self._discharge(
            assertions, conflict_budget, session, deadline_abs
        )

        if result is smt.Result.UNSAT:
            return CheckOutcome(check=self, passed=True, stats=stats)
        if result is smt.Result.UNKNOWN:
            return CheckOutcome(
                check=self,
                passed=False,
                stats=stats,
                unknown=True,
                unknown_reason=stats.unknown_reason,
            )
        assert model is not None
        input_route = route_in.evaluate(model)
        rejected = not model.eval_bool(accepted)
        output_route = None if rejected else route_out.evaluate(model)
        failure = CheckFailure(
            check=self,
            input_route=input_route,
            output_route=output_route,
            rejected=rejected,
        )
        return CheckOutcome(check=self, passed=False, stats=stats, failure=failure)

    def _run_originate(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...],
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        assert self.edge is not None
        combined = SolverStats()
        for sym in symbolic_originated(config, self.edge, universe, ghosts):
            result, stats, model = self._discharge(
                [smt.not_(predicate_term(self.goal, sym))],
                conflict_budget,
                session,
                deadline_abs,
            )
            combined = _merge_stats(combined, stats)
            if result is smt.Result.UNKNOWN:
                return CheckOutcome(
                    check=self,
                    passed=False,
                    stats=combined,
                    unknown=True,
                    unknown_reason=stats.unknown_reason,
                )
            if result is smt.Result.SAT:
                assert model is not None
                failure = CheckFailure(
                    check=self,
                    input_route=sym.evaluate(model),
                    output_route=None,
                    rejected=False,
                )
                return CheckOutcome(
                    check=self, passed=False, stats=combined, failure=failure
                )
        return CheckOutcome(check=self, passed=True, stats=combined)

    def _run_implication(
        self,
        universe: AttributeUniverse,
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        route = SymbolicRoute.fresh("r", universe)
        assertions = [
            route.well_formed(),
            predicate_term(self.assumption, route),
            smt.not_(predicate_term(self.goal, route)),
        ]
        result, stats, model = self._discharge(
            assertions, conflict_budget, session, deadline_abs
        )
        if result is smt.Result.UNSAT:
            return CheckOutcome(check=self, passed=True, stats=stats)
        if result is smt.Result.UNKNOWN:
            return CheckOutcome(
                check=self,
                passed=False,
                stats=stats,
                unknown=True,
                unknown_reason=stats.unknown_reason,
            )
        assert model is not None
        failure = CheckFailure(
            check=self,
            input_route=route.evaluate(model),
            output_route=None,
            rejected=False,
        )
        return CheckOutcome(check=self, passed=False, stats=stats, failure=failure)

    def __str__(self) -> str:
        return self.description


@dataclass
class CheckOutcome:
    """The result of running one local check."""

    check: LocalCheck
    passed: bool
    stats: SolverStats
    failure: CheckFailure | None = None
    unknown: bool = False
    # Why the check is UNKNOWN: "conflicts" (conflict budget), "timeout"
    # (per-check deadline), or "wall-budget" (the run's wall budget ran
    # out before this check started).  None when the check was decided.
    unknown_reason: str | None = None


def skipped_outcome(check: LocalCheck, reason: str) -> CheckOutcome:
    """An UNKNOWN outcome for a check that was never run.

    Used when the run's wall budget expires with checks still queued: the
    run completes with partial results, and each unexecuted check is
    accounted for explicitly instead of silently missing from the report.
    """
    return CheckOutcome(
        check=check,
        passed=False,
        stats=SolverStats(),
        unknown=True,
        unknown_reason=reason,
    )


def check_owner(check: LocalCheck) -> str | None:
    """The router whose configuration the check's transfer function reads.

    This is the unit of both incremental re-verification (a config edit to
    router ``R`` invalidates exactly the checks owned by ``R``) and
    parallel execution (the paper's deployment runs one process per device;
    chunking by owner keeps each worker's shared encoding hot).
    ``None`` marks checks that read only the invariants (implications).
    """
    if check.edge is None:
        return None
    if check.kind in (CheckKind.IMPORT, CheckKind.PROPAGATE_IMPORT):
        return check.edge.dst
    return check.edge.src


def group_checks_by_owner(
    checks: "list[LocalCheck]",
) -> "dict[str | None, list[LocalCheck]]":
    """Group checks by owner router, preserving first-seen group order.

    This is the owner index both reuse mechanisms are built on: the
    incremental verifier re-runs exactly one group per edited router, and
    the worker pool routes each group to a fixed worker so that worker's
    per-owner session encoding stays hot.
    """
    groups: dict[str | None, list[LocalCheck]] = {}
    for check in checks:
        groups.setdefault(check_owner(check), []).append(check)
    return groups


def prepare_session(session: "smt.CheckSession", universe: AttributeUniverse) -> None:
    """Pre-assert the owner route's well-formedness into ``session``.

    Every filter and implication check includes the symbolic route's
    well-formedness constraint, so it is sound to assert it once into the
    session's clause DB; each check then skips it as an assumption
    (originate checks use constant, variable-disjoint routes and are
    unaffected).
    """
    route = SymbolicRoute.fresh("r", universe)
    session.prepare(shared=(route.well_formed(),))


def _merge_stats(a: SolverStats, b: SolverStats) -> SolverStats:
    merged = SolverStats(
        num_vars=max(a.num_vars, b.num_vars),
        num_clauses=max(a.num_clauses, b.num_clauses),
        build_time_s=a.build_time_s + b.build_time_s,
        solve_time_s=a.solve_time_s + b.solve_time_s,
    )
    return merged


# ---------------------------------------------------------------------------
# Check generation (§4.2)
# ---------------------------------------------------------------------------


def generate_safety_checks(
    config: NetworkConfig,
    invariants,
    property_location: Location,
    property_predicate: Predicate,
    owners: "set[str] | None" = None,
) -> list[LocalCheck]:
    """The Import/Export/Originate checks for every edge, plus ``I_l ⊆ P``.

    With ``owners``, only checks owned by those routers are generated (and
    the owner-less implication check is skipped) — the incremental verifier
    uses this to refresh just the edited routers' checks instead of
    rebuilding the whole list.
    """
    checks: list[LocalCheck] = []
    topo = config.topology
    if owners is None:
        edges = sorted(topo.edges)
    else:
        edges = sorted(
            e for e in topo.edges if e.src in owners or e.dst in owners
        )
    for edge in edges:
        if topo.is_router(edge.dst) and (owners is None or edge.dst in owners):
            route_map = config.import_map(edge)
            checks.append(
                LocalCheck(
                    kind=CheckKind.IMPORT,
                    edge=edge,
                    assumption=invariants.get(edge),
                    goal=invariants.get(edge.dst),
                    route_map_name=None if route_map is None else route_map.name,
                    description=(
                        f"import check at {edge.dst} on {edge}: "
                        f"I[{edge}] routes surviving import satisfy I[{edge.dst}]"
                    ),
                )
            )
        if topo.is_router(edge.src) and (owners is None or edge.src in owners):
            route_map = config.export_map(edge)
            checks.append(
                LocalCheck(
                    kind=CheckKind.EXPORT,
                    edge=edge,
                    assumption=invariants.get(edge.src),
                    goal=invariants.get(edge),
                    route_map_name=None if route_map is None else route_map.name,
                    description=(
                        f"export check at {edge.src} on {edge}: "
                        f"I[{edge.src}] routes surviving export satisfy I[{edge}]"
                    ),
                )
            )
            if config.originate(edge):
                checks.append(
                    LocalCheck(
                        kind=CheckKind.ORIGINATE,
                        edge=edge,
                        assumption=invariants.get(edge),  # unused
                        goal=invariants.get(edge),
                        description=(
                            f"originate check on {edge}: originated routes satisfy I[{edge}]"
                        ),
                    )
                )
    if owners is None:
        checks.append(
            LocalCheck(
                kind=CheckKind.IMPLICATION,
                edge=None,
                location=property_location,
                assumption=invariants.get(property_location),
                goal=property_predicate,
                description=(
                    f"implication check at {property_location}: "
                    f"I[{property_location}] implies the property"
                ),
            )
        )
    return checks
