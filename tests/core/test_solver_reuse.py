"""Session reuse: shared sessions answer exactly like hermetic solvers.

A :class:`CheckSession` pre-asserts the owner route's well-formedness
into its clause DB and keeps every learnt clause for the rest of its
life, across checks and across properties.  Three layers are pinned here:

* **SatSolver / CheckSession mechanics** — the learnt-DB cap persists
  across ``solve`` calls, learnt clauses survive between solves, and the
  pre-asserted fragment is skipped as a per-check assumption;
* **Differential equivalence** — the same checks discharged through one
  shared :class:`SessionPool` and through a hermetic
  :class:`repro.smt.Solver` per check (``LocalCheck.run(...,
  session=None)``) yield identical outcome fingerprints on randomized
  safety configs, fullmesh liveness, and the WAN families whose checks
  actually conflict and learn.  Reuse is a performance policy; it must
  never change an answer;
* **The verdict memo** — the pool's memo (consulted by the scheduler
  before any backend runs) against the same hermetic reference on
  networks with planted bugs, on the serial and the process backend:
  same verdicts, same failing checks, and every failure answered from the
  memo, or shipped back from a worker, still names its own check object
  and router and carries a genuine witness.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.core.checks import (
    CheckKind,
    check_owner,
    generate_safety_checks,
    verdict_key,
)
from repro.core.exec import WorkerPool
from repro.core.liveness import liveness_universe, verify_liveness
from repro.core.safety import build_universe, run_checks, verify_safety
from repro.smt.sat import SatSolver
from repro.smt.solver import SessionPool
from repro.workloads.fullmesh import (
    TRANSIT_COMMUNITY,
    build_full_mesh,
    full_mesh_liveness_property,
)
from repro.workloads.randomnet import build_random_network
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    all_peering_problems,
    ip_reuse_safety_problem,
    verify_ip_reuse_safety_problems,
    verify_peering_problems,
)

from tests.core.conftest import e1_no_transit_problem


# ---------------------------------------------------------------------------
# SatSolver / CheckSession mechanics
# ---------------------------------------------------------------------------


class TestSatWarmStart:
    def test_learnt_cap_persists_across_solve_calls(self):
        # The fixed bug: solve() used to reset the cap to max_learnts_base
        # every call, so a grown DB was re-truncated by each later check.
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver._max_learnts = 123456
        assert solver.solve() is True
        assert solver._max_learnts == 123456

    @staticmethod
    def _pigeonhole(pigeons: int, guarded: bool = False) -> SatSolver:
        """``pigeons`` into ``pigeons - 1`` holes.  ``guarded`` relaxes
        every at-least-one-hole clause by a fresh guard variable (the last
        one), so the formula is unsat only under the assumption ``guard``."""
        solver = SatSolver()
        holes = pigeons - 1
        p = [[solver.new_var() for __ in range(holes)] for __ in range(pigeons)]
        guard = solver.new_var() if guarded else None
        for pigeon in p:
            solver.add_clause(list(pigeon) + ([] if guard is None else [-guard]))
        for hole in range(holes):
            for i in range(pigeons):
                for j in range(i + 1, pigeons):
                    solver.add_clause([-p[i][hole], -p[j][hole]])
        return solver

    def test_solve_keeps_every_learnt_clause(self):
        # Pigeonhole 5-into-4 under a guard assumption is refuted only
        # through conflicts, so the first solve learns; the next solve
        # (guard lifted) starts from the same learnt DB.
        solver = self._pigeonhole(5, guarded=True)
        guard = solver.num_vars
        assert solver.solve([guard]) is False
        learnt = {tuple(sorted(c)) for c in solver.learnts}
        assert learnt, "pigeonhole must learn at least one clause"
        assert solver.solve([-guard]) is True
        assert learnt <= {tuple(sorted(c)) for c in solver.learnts}

    def test_root_conflict_is_remembered(self):
        # Unsat without assumptions: the refutation ends in a root-level
        # conflict, and every later solve must stay UNSAT.
        solver = self._pigeonhole(4)
        assert solver.solve() is False
        assert solver.ok is False
        assert solver.solve() is False


def _wan_pool():
    wan = build_wan(regions=2, routers_per_region=3)
    pool = SessionPool()
    verify_ip_reuse_safety_problems(wan, sessions=pool)
    return wan, pool


class TestSessionReuse:
    def test_shared_fragments_skip_per_check_assumptions(self):
        wan, pool = _wan_pool()
        stats = pool.stats()
        # Every discharged check skipped at least the well-formedness
        # fragment it used to ship as an assumption.
        assert stats["shared_skips"] >= stats["checks_discharged"] > 0


# ---------------------------------------------------------------------------
# Differential: shared sessions vs. a hermetic solver per check
# ---------------------------------------------------------------------------


def _fingerprint(outcome):
    return (str(outcome.check), outcome.passed, outcome.unknown, outcome.unknown_reason)


def _outcome_fingerprint(report):
    return sorted(_fingerprint(o) for o in report.iter_outcomes())


def _hermetic_fingerprint(report, config, universe, ghosts):
    """Re-discharge every check of ``report`` on a fresh solver each."""
    return sorted(
        _fingerprint(o.check.run(config, universe, ghosts))
        for o in report.iter_outcomes()
    )


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
@pytest.mark.parametrize("seed", [0, 1])
def test_differential_safety_random_networks(model, seed):
    config = build_random_network(8, model=model, seed=seed)
    ghost, prop, invariants = e1_no_transit_problem(config)
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    report = verify_safety(
        config, prop, invariants, ghosts=(ghost,), universe=universe,
        sessions=SessionPool(),
    )
    hermetic = _hermetic_fingerprint(report, config, universe, (ghost,))
    assert _outcome_fingerprint(report) == hermetic


@pytest.mark.parametrize("n", [6, 10])
def test_differential_liveness_fullmesh(n):
    config = build_full_mesh(n)
    prop = full_mesh_liveness_property(n)
    universe = liveness_universe(config, prop)
    pool = SessionPool()
    report = verify_liveness(config, prop, universe=universe, sessions=pool)
    assert report.passed
    assert _outcome_fingerprint(report) == _hermetic_fingerprint(
        report, config, universe, ()
    )
    _assert_memo_matches_hermetic([report], pool, config, [universe], [()])


def test_differential_wan_with_learnt_traffic():
    # The workload that actually learns (and retains) clauses: one pool
    # across both property families, so later checks solve against every
    # clause earlier ones learned — and must still answer like fresh
    # solvers.
    wan = build_wan(regions=2, routers_per_region=3)
    pool = SessionPool()
    results = verify_ip_reuse_safety_problems(wan, sessions=pool)
    results += verify_peering_problems(wan, sessions=pool)
    assert pool.stats()["learnts_kept"] > 0

    # The runners hoist one universe over each sweep's families; rebuild
    # the same universes for the hermetic side.
    def sweep_universe(problems):
        preds = []
        for prob in problems:
            preds.extend(p.predicate for p in prob.properties)
            preds.append(prob.invariants.default)
            preds.extend(
                prob.invariants.get(loc)
                for loc in prob.invariants.overridden_locations()
            )
        ghosts = tuple(prob.ghost for prob in problems)
        return build_universe(wan.config, None, preds, ghosts)

    ip_reuse = [ip_reuse_safety_problem(wan, r) for r in range(wan.regions)]
    universes = [sweep_universe(ip_reuse)] * len(ip_reuse)
    universes += [sweep_universe(all_peering_problems(wan))] * (
        len(results) - len(ip_reuse)
    )
    for (problem, report), universe in zip(results, universes):
        assert _outcome_fingerprint(report) == _hermetic_fingerprint(
            report, wan.config, universe, (problem.ghost,)
        )


# ---------------------------------------------------------------------------
# Differential: the verdict memo vs. a hermetic solver per check
# ---------------------------------------------------------------------------


def _plant_strip(config, count=2):
    """Strip the transit tag on internal imports at ``count`` routers.

    Every planted map has the same clauses under its own name, so all the
    planted import checks pose one failing query: the first is solved, the
    rest are answered from the memo and must still blame their own edge.
    """
    topo = config.topology
    chosen = []
    for edge in sorted(topo.edges):
        if topo.is_router(edge.src) and topo.is_router(edge.dst) and all(
            edge.dst != e.dst for e in chosen
        ):
            chosen.append(edge)
        if len(chosen) == count:
            break
    for i, edge in enumerate(chosen):
        config.routers[edge.dst].neighbors[edge.src].import_map = RouteMap(
            f"STRIP-{i}",
            (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
        )
    return chosen


def _assert_genuine_witness(outcome):
    check, failure = outcome.check, outcome.failure
    assert failure.check is check
    assert failure.blamed_router == check_owner(check)
    route = failure.input_route
    if check.kind is CheckKind.ORIGINATE:
        assert not check.goal.holds(route)
        return
    assert check.assumption.holds(route)
    if check.kind is CheckKind.IMPLICATION:
        assert not check.goal.holds(route)
    elif check.kind in (CheckKind.PROPAGATE_IMPORT, CheckKind.PROPAGATE_EXPORT):
        assert failure.rejected or not check.goal.holds(failure.output_route)
    else:
        assert not failure.rejected
        assert not check.goal.holds(failure.output_route)


def _assert_memo_matches_hermetic(reports, pool, config, universes, ghosts):
    """Same verdicts and failing checks as hermetic runs; genuine witnesses."""
    for report, universe, ghost_set in zip(reports, universes, ghosts):
        outcomes = list(report.iter_outcomes())
        hermetic = [o.check.run(config, universe, ghost_set) for o in outcomes]
        assert [(o.passed, o.unknown) for o in outcomes] == [
            (h.passed, h.unknown) for h in hermetic
        ]
        assert sorted(str(o.check) for o in outcomes if o.failure) == sorted(
            str(h.check) for h in hermetic if h.failure
        )
        for outcome in outcomes:
            if outcome.failure is not None:
                _assert_genuine_witness(outcome)
    assert pool.stats()["memo_hits"] > 0


@contextmanager
def _backend(name):
    """Run keyword arguments for ``name``: serial, or a two-worker pool.

    The process variant checks on exit that the workers really ran (and
    skips where process pools are unavailable).
    """
    if name == "serial":
        yield {}
        return
    with WorkerPool(2) as workers:
        yield {"workers": workers, "backend": "process"}
        if workers.chunks_run == 0:
            pytest.skip("process pools unavailable in this environment")
        assert workers.serial_fallbacks == 0


def _planted_strip_case(model, backend):
    config = build_random_network(8, model=model, seed=0)
    planted = _plant_strip(config)
    ghost, prop, invariants = e1_no_transit_problem(config)
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    pool = SessionPool()
    with _backend(backend) as run:
        report = verify_safety(
            config, prop, invariants, ghosts=(ghost,), universe=universe,
            sessions=pool, **run,
        )
    assert not report.passed
    _assert_memo_matches_hermetic([report], pool, config, [universe], [(ghost,)])
    # Two edges, two owners, one failing query: one entry answers both.
    failed = {o.check.edge: o for o in report.iter_outcomes() if o.failure}
    strip_failures = [
        failed[edge] for edge in planted
        if edge in failed and failed[edge].check.kind is CheckKind.IMPORT
    ]
    assert len(strip_failures) == 2
    keys = {verdict_key(o.check, config, universe, (ghost,)) for o in strip_failures}
    assert len(keys) == 1
    assert {o.failure.blamed_router for o in strip_failures} == {e.dst for e in planted}
    assert {o.failure.blamed_policy for o in strip_failures} == {
        "route-map 'STRIP-0'", "route-map 'STRIP-1'"
    }
    # Every outcome belongs to the caller's own check object, including
    # those a worker process solved and shipped back.
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    with _backend(backend) as run:
        outcomes = run_checks(
            checks, config, universe, (ghost,), sessions=SessionPool(), **run
        )
    assert all(o.check is c for o, c in zip(outcomes, checks))
    assert all(o.failure.check is c for o, c in zip(outcomes, checks) if o.failure)


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
def test_memo_matches_hermetic_on_planted_strip_bug(model):
    _planted_strip_case(model, "serial")


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
def test_process_memo_matches_hermetic_on_planted_strip_bug(model):
    _planted_strip_case(model, "process")


def _buggy_wan_case(backend):
    clean = build_wan(regions=2, routers_per_region=3)
    wan = build_wan(
        regions=2,
        routers_per_region=3,
        buggy_edge_router=clean.edge_routers[0],
        adhoc_aspath_router=clean.edge_routers[1],
        wrong_community_region=1,
    )
    pool = SessionPool()
    with _backend(backend) as run:
        ip_reuse = verify_ip_reuse_safety_problems(wan, sessions=pool, **run)
        peering = verify_peering_problems(wan, sessions=pool, **run)
    results = ip_reuse + peering
    assert not all(report.passed for __, report in results)

    def sweep_universe(problems):
        preds = []
        for prob in problems:
            preds.extend(p.predicate for p in prob.properties)
            preds.append(prob.invariants.default)
            preds.extend(
                prob.invariants.get(loc)
                for loc in prob.invariants.overridden_locations()
            )
        return build_universe(wan.config, None, preds, tuple(p.ghost for p in problems))

    universes = [sweep_universe([p for p, __ in ip_reuse])] * len(ip_reuse)
    universes += [sweep_universe([p for p, __ in peering])] * len(peering)
    _assert_memo_matches_hermetic(
        [r for __, r in results], pool, wan.config, universes,
        [(p.ghost,) for p, __ in results],
    )


def test_memo_matches_hermetic_on_buggy_wan():
    _buggy_wan_case("serial")


def test_process_memo_matches_hermetic_on_buggy_wan():
    _buggy_wan_case("process")
