"""Session reuse: shared sessions answer exactly like hermetic solvers.

A :class:`CheckSession` pre-asserts the owner route's well-formedness
into its clause DB and keeps every learnt clause for the rest of its
life, across checks and across properties.  Two layers are pinned here:

* **SatSolver / CheckSession mechanics** — the learnt-DB cap persists
  across ``solve`` calls, learnt clauses survive between solves, and the
  pre-asserted fragment is skipped as a per-check assumption;
* **Differential equivalence** — the same checks discharged through one
  shared :class:`SessionPool` and through a hermetic
  :class:`repro.smt.Solver` per check (``LocalCheck.run(...,
  session=None)``) yield identical outcome fingerprints on randomized
  safety configs, fullmesh liveness, and the WAN families whose checks
  actually conflict and learn.  Reuse is a performance policy; it must
  never change an answer.
"""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.liveness import liveness_universe, verify_liveness
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import build_universe, verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
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


def _no_transit_problem(config):
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromE1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    return ghost, prop, invariants


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
    ghost, prop, invariants = _no_transit_problem(config)
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
    report = verify_liveness(config, prop, universe=universe, sessions=SessionPool())
    assert report.passed
    assert _outcome_fingerprint(report) == _hermetic_fingerprint(
        report, config, universe, ()
    )


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
