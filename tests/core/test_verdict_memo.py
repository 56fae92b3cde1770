"""The verdict memo: what its key holds, what it never stores, what it counts.

A :class:`SessionPool` answers a check from its verdict memo when an
earlier check posed the same query, keyed by
:func:`repro.core.checks.verdict_key` before any term is built.  The
scheduler consults the memo of the run's pool for every check before any
backend sees it, so worker processes receive one check per distinct key.
Each
key-soundness test below pairs two checks that differ in exactly one
ingredient of the key and would get a *wrong* answer (or a wrong count)
from a key that left that ingredient out; the name test is the converse,
two checks a name-sensitive key would keep apart.
"""

from __future__ import annotations

import pytest

from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.checks import (
    CheckKind,
    LocalCheck,
    check_owner,
    verdict_key,
)
from repro.core.exec import WorkerPool
from repro.core.safety import build_universe, run_checks, verify_safety_family
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import AsPathHas, GhostIs, HasCommunity, Not
from repro.lang.transfer import transfer_key
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import SessionPool
from repro.workloads.fullmesh import INTERNAL_AS, TRANSIT_COMMUNITY, build_full_mesh
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import ip_reuse_safety_problem

from tests.core.conftest import e1_no_transit_problem

_STRIP = RouteMapClause(5, actions=(DeleteCommunity(TRANSIT_COMMUNITY),))
_PERMIT = RouteMapClause(10)


def _set_import(config, edge: Edge, route_map: RouteMap | None) -> None:
    config.routers[edge.dst].neighbors[edge.src].import_map = route_map


def _filter_check(kind: CheckKind, edge: Edge, assumption, goal, config) -> LocalCheck:
    route_map = config.import_map(edge) if kind is CheckKind.IMPORT else config.export_map(edge)
    return LocalCheck(
        kind=kind,
        edge=edge,
        assumption=assumption,
        goal=goal,
        description=f"{kind.value} check on {edge}",
        route_map_name=None if route_map is None else route_map.name,
    )


def _through(pool, checks, config, universe, ghosts=(), **kwargs):
    """Run ``checks`` as one serial batch against ``pool``'s memo."""
    return run_checks(
        checks, config, universe, ghosts, backend="serial", sessions=pool, **kwargs
    )


def _pooled_and_hermetic(checks, config, universe, ghosts=()):
    """Run ``checks`` through one pool, and each hermetically."""
    pool = SessionPool()
    pooled = _through(pool, checks, config, universe, ghosts)
    hermetic = [c.run(config, universe, ghosts) for c in checks]
    return pool, pooled, hermetic


def _verdicts(outcomes):
    return [(o.passed, o.unknown) for o in outcomes]


def test_maps_differing_only_in_name_share_an_entry():
    config = build_full_mesh(4)
    a, b = Edge("R1", "R3"), Edge("R1", "R4")
    _set_import(config, a, RouteMap("STRIP-A", (_STRIP, _PERMIT)))
    _set_import(config, b, RouteMap("STRIP-B", (_STRIP, _PERMIT)))
    keep = HasCommunity(TRANSIT_COMMUNITY)
    checks = [_filter_check(CheckKind.IMPORT, e, keep, keep, config) for e in (a, b)]
    universe = AttributeUniverse.from_config(config)

    pool, pooled, hermetic = _pooled_and_hermetic(checks, config, universe)
    assert _verdicts(pooled) == _verdicts(hermetic) == [(False, False)] * 2
    assert pool.stats()["memo_hits"] == 1
    assert pool.stats()["memo_entries"] == 1
    assert pool.checks_discharged == 1
    # The hit never touched R4's session, and its failure is R4's own.
    assert set(pool.keys()) == {"R3"}
    failure = pooled[1].failure
    assert failure is not None and failure.check is checks[1]
    assert failure.blamed_router == "R4"
    assert "STRIP-B" in failure.blamed_policy


def test_one_clause_difference_misses():
    config = build_full_mesh(4)
    a, b = Edge("R1", "R3"), Edge("R1", "R4")
    _set_import(config, a, RouteMap("M", (_PERMIT,)))
    _set_import(config, b, RouteMap("M", (_STRIP, _PERMIT)))
    keep = HasCommunity(TRANSIT_COMMUNITY)
    checks = [_filter_check(CheckKind.IMPORT, e, keep, keep, config) for e in (a, b)]
    universe = AttributeUniverse.from_config(config)

    pool, pooled, hermetic = _pooled_and_hermetic(checks, config, universe)
    assert _verdicts(pooled) == _verdicts(hermetic) == [(True, False), (False, False)]
    assert pool.stats()["memo_hits"] == 0


def test_ebgp_and_ibgp_export_of_the_same_map_miss():
    # R3 has no export filter toward R1 (iBGP) or E3 (eBGP): the same map,
    # but only the eBGP export prepends R3's own ASN.
    config = build_full_mesh(4)
    ibgp, ebgp = Edge("R3", "R1"), Edge("R3", "E3")
    assert config.export_map(ibgp) is None and config.export_map(ebgp) is None
    no_own_asn = Not(AsPathHas(INTERNAL_AS))
    checks = [
        _filter_check(CheckKind.EXPORT, e, no_own_asn, no_own_asn, config)
        for e in (ibgp, ebgp)
    ]
    universe = AttributeUniverse.from_config(config)

    pool, pooled, hermetic = _pooled_and_hermetic(checks, config, universe)
    assert _verdicts(pooled) == _verdicts(hermetic) == [(True, False), (False, False)]
    assert pool.stats()["memo_hits"] == 0


def test_different_ghost_update_misses():
    # R3 imports from R1 and from R2 with no filter; only the R1 edge
    # writes the ghost.
    config = build_full_mesh(4)
    tagged, plain = Edge("R1", "R3"), Edge("R2", "R3")
    ghost = GhostAttribute("G", import_updates={tagged: True})
    untagged = Not(GhostIs("G"))
    checks = [
        _filter_check(CheckKind.IMPORT, e, untagged, untagged, config)
        for e in (plain, tagged)
    ]
    universe = AttributeUniverse.from_config(config, ghosts=("G",))

    pool, pooled, hermetic = _pooled_and_hermetic(checks, config, universe, (ghost,))
    assert _verdicts(pooled) == _verdicts(hermetic) == [(True, False), (False, False)]
    assert pool.stats()["memo_hits"] == 0


def test_universe_extended_by_an_edit_misses():
    """An edit that mentions a new community grows the universe; the edited
    owner's re-run checks then pose new queries (their fresh input route
    has one more field), even where its policy is unchanged, and must not
    be answered from entries made under the old universe."""
    config = build_full_mesh(5)
    ghost, prop, invariants = e1_no_transit_problem(config)
    pool = SessionPool()
    with Workspace(config, ghosts=(ghost,), sessions=pool) as ws:
        assert ws.verify(prop, invariants).passed
        edited = build_full_mesh(5)
        edge = Edge("E5", "R5")
        new_clause = RouteMapClause(5, actions=(DeleteCommunity(Community(777, 7)),))
        clauses = (new_clause,) + edited.import_map(edge).clauses
        _set_import(edited, edge, RouteMap("EXT-IN", clauses))
        ws.apply(edited)
        hits_before = pool.memo_hits
        (entry,) = ws.reverify()
    result = entry.last_result
    assert result.report.passed
    rerun = list(result.report.iter_outcomes())[-result.rerun_checks:]
    assert {check_owner(o.check) for o in rerun} == {"R5"}
    # Distinct queries among the re-run checks, universe aside: each is
    # solved once under the new universe, every other re-run check is a
    # hit on one of those.  A universe-blind key would also hit the entries
    # the first verify made for R5's unchanged filters.
    def query(check):
        direction = "import" if check.kind is CheckKind.IMPORT else "export"
        source = transfer_key(edited, check.edge, (ghost,), direction)
        return (check.kind, source, check.assumption, check.goal)

    distinct = {query(o.check) for o in rerun}
    assert pool.memo_hits - hits_before == len(rerun) - len(distinct)


def test_unknown_is_never_stored():
    wan = build_wan(regions=2, routers_per_region=3)
    problem = ip_reuse_safety_problem(wan, 0)
    pool = SessionPool()
    budgeted = verify_safety_family(
        wan.config, problem.properties, problem.invariants,
        ghosts=(problem.ghost,), conflict_budget=0, sessions=pool,
    )
    assert budgeted.unknown_reason_counts.get("conflicts", 0) > 0
    decided = verify_safety_family(
        wan.config, problem.properties, problem.invariants,
        ghosts=(problem.ghost,), sessions=pool,
    )
    assert not decided.unknowns
    assert decided.passed


def test_expired_deadline_on_a_hit_is_a_timeout():
    config = build_full_mesh(4)
    keep = HasCommunity(TRANSIT_COMMUNITY)
    checks = [
        _filter_check(CheckKind.IMPORT, Edge(f"R{i}", "R3"), keep, keep, config)
        for i in (1, 2)
    ]
    universe = AttributeUniverse.from_config(config)
    assert verdict_key(checks[0], config, universe, ()) == verdict_key(
        checks[1], config, universe, ()
    )
    pool = SessionPool()
    assert _through(pool, checks[:1], config, universe)[0].passed
    (late,) = _through(pool, checks[1:], config, universe, deadline_s=0.0)
    assert late.unknown and late.unknown_reason == "timeout"
    assert _through(pool, checks[1:], config, universe)[0].passed


def test_clear_empties_the_memo_and_drop_does_not():
    config = build_full_mesh(4)
    keep = HasCommunity(TRANSIT_COMMUNITY)
    check = _filter_check(CheckKind.IMPORT, Edge("R1", "R3"), keep, keep, config)
    universe = AttributeUniverse.from_config(config)
    pool = SessionPool()
    _through(pool, [check], config, universe)
    pool.drop("R3")
    _through(pool, [check], config, universe)
    assert pool.stats()["memo_hits"] == 1
    pool.clear()
    assert pool.stats()["memo_entries"] == 0
    _through(pool, [check], config, universe)
    assert pool.stats()["memo_hits"] == 1
    assert pool.stats()["memo_entries"] == 1


def test_workers_receive_one_check_per_distinct_verdict_key():
    config = build_full_mesh(6)
    ghost, prop, invariants = e1_no_transit_problem(config)
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    reference = verify_safety_family(config, [prop], invariants, ghosts=(ghost,))
    pool = SessionPool()
    with WorkerPool(2) as workers:
        report = verify_safety_family(
            config, [prop], invariants, ghosts=(ghost,), universe=universe,
            sessions=pool, workers=workers, backend="process",
        )
        if workers.chunks_run == 0:
            pytest.skip("process pools unavailable in this environment")
        shipped = sum(workers.stats()["per_worker_weight"])
    assert report.passed == reference.passed
    keys = {
        verdict_key(o.check, config, universe, (ghost,)) for o in report.iter_outcomes()
    }
    assert shipped == len(keys) < report.num_checks
    # Everything else was answered in this process; nothing was solved here.
    assert pool.stats()["memo_hits"] == report.num_checks - shipped
    assert pool.checks_discharged == 0
