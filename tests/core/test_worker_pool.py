"""Tests for the persistent process-backend :class:`WorkerPool`.

The PR-3 claim mirrors the serial ``SessionPool`` one at the process
level: a pool of long-lived worker processes, each holding owner-keyed
sessions and cached problem contexts, discharges repeated ``run_checks``
calls without re-encoding — the per-owner encoding growth counters are the
witnesses.  Outcomes must be indistinguishable from the serial path, the
context must be shipped once per worker per problem, and a dead pool must
degrade to the serial fallback.
"""

from __future__ import annotations

import pytest

from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.topology import Edge
from repro.core.checks import generate_safety_checks
from repro.core.incremental import IncrementalVerifier
from repro.core.exec import WorkerPool
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import build_universe, run_checks, verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh


def _fullmesh_problem(n: int):
    config = build_full_mesh(n)
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromE1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    return config, ghost, prop, invariants


def _pieces(config, ghost, prop, invariants):
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    return universe, checks


def _fingerprint(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        None
        if failure is None
        else (str(failure.input_route), str(failure.output_route), failure.rejected),
    )


def _pool_or_skip(pool: WorkerPool, outcomes):
    if outcomes is None:
        pool.close()
        pytest.skip("process pools unavailable in this environment")
    return outcomes


def test_worker_pool_matches_serial_outcomes():
    config, ghost, prop, invariants = _fullmesh_problem(5)
    universe, checks = _pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,))
    with WorkerPool(2) as pool:
        pooled = _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        assert [_fingerprint(o) for o in pooled] == [_fingerprint(o) for o in serial]


def test_worker_pool_ships_counterexamples_back():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    strip = RouteMap(
        "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),)
    )
    config.routers["R3"].neighbors["R1"].import_map = strip
    universe, checks = _pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,))
    with WorkerPool(2) as pool:
        pooled = _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        assert [_fingerprint(o) for o in pooled] == [_fingerprint(o) for o in serial]
        assert any(o.failure is not None for o in pooled)


def test_worker_pool_persists_encodings_across_runs():
    config, ghost, prop, invariants = _fullmesh_problem(5)
    universe, checks = _pieces(config, ghost, prop, invariants)
    with WorkerPool(2) as pool:
        _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        # First run builds encodings and ships the context to each worker
        # that received a chunk — at most once per worker.
        assert sum(v for v, __ in pool.last_encoding_growth.values()) > 0
        assert 0 < pool.contexts_shipped <= pool.jobs
        shipped_once = pool.contexts_shipped

        second = pool.run(checks, config, universe, (ghost,))
        assert second is not None
        # Owner affinity + persistent sessions: the rerun re-solves against
        # the existing clause databases and encodes nothing new anywhere.
        assert all(g == (0, 0) for g in pool.last_encoding_growth.values()), (
            pool.last_encoding_growth
        )
        # Same problem, same workers: no context re-shipment either.
        assert pool.contexts_shipped == shipped_once


def test_worker_pool_reships_context_for_edited_config():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    universe, checks = _pieces(config, ghost, prop, invariants)
    with WorkerPool(2) as pool:
        _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        shipped_before = pool.contexts_shipped

        edited, ghost2, prop2, invariants2 = _fullmesh_problem(4)
        strip = RouteMap(
            "STRIP",
            (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
        )
        edited.routers["R3"].neighbors["R1"].import_map = strip
        universe2, checks2 = _pieces(edited, ghost2, prop2, invariants2)
        serial = run_checks(checks2, edited, universe2, (ghost2,))
        pooled = pool.run(checks2, edited, universe2, (ghost2,))
        assert pooled is not None
        # The edit changes the policy digests, so this is a new context.
        assert pool.contexts_shipped > shipped_before
        assert [_fingerprint(o) for o in pooled] == [_fingerprint(o) for o in serial]


def test_run_checks_uses_worker_pool_and_falls_back_when_closed():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    universe, checks = _pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,))

    pool = WorkerPool(2)
    try:
        via_pool = run_checks(checks, config, universe, (ghost,), workers=pool)
        assert [_fingerprint(o) for o in via_pool] == [_fingerprint(o) for o in serial]
    finally:
        pool.close()
    # A closed pool refuses work; run_checks silently takes the serial path.
    after_close = run_checks(checks, config, universe, (ghost,), workers=pool)
    assert [_fingerprint(o) for o in after_close] == [_fingerprint(o) for o in serial]


def test_verify_safety_with_persistent_workers():
    config, ghost, prop, invariants = _fullmesh_problem(5)
    with WorkerPool(2) as pool:
        first = verify_safety(
            config, prop, invariants, ghosts=(ghost,), workers=pool
        )
        assert first.passed
        if pool.chunks_run == 0:
            pytest.skip("process pools unavailable in this environment")
        second = verify_safety(
            config, prop, invariants, ghosts=(ghost,), workers=pool
        )
        assert second.passed
        assert all(g == (0, 0) for g in pool.last_encoding_growth.values())


def _distinct_problem(i: int):
    """A fullmesh problem whose policy digests differ per ``i``."""
    from repro.bgp.policy import Disposition, MatchPrefix
    from repro.bgp.prefix import PrefixRange

    config, ghost, prop, invariants = _fullmesh_problem(4)
    if i:
        neighbor = config.routers["R3"].neighbors["E3"]
        deny = RouteMapClause(
            1,
            Disposition.DENY,
            matches=(MatchPrefix((PrefixRange.parse(f"10.{i}.0.0/16 le 32"),)),),
        )
        neighbor.import_map = RouteMap(
            f"EXT-IN-{i}", (deny,) + neighbor.import_map.clauses
        )
    return config, ghost, prop, invariants


def test_worker_pool_evicts_oldest_context_and_stays_correct():
    """Driving a small ``max_contexts`` pool through more distinct configs
    than it retains must bound the parent-side payloads (workers are told
    to drop theirs too) while every run still matches the serial path."""
    with WorkerPool(2, max_contexts=2) as pool:
        for i in range(4):
            config, ghost, prop, invariants = _distinct_problem(i)
            universe, checks = _pieces(config, ghost, prop, invariants)
            serial = run_checks(checks, config, universe, (ghost,))
            pooled = _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
            assert [_fingerprint(o) for o in pooled] == [
                _fingerprint(o) for o in serial
            ]
            # Bounded retention, parent-side: payloads, fingerprints, and
            # the FIFO order never exceed the configured maximum.
            assert len(pool._payloads) <= pool.max_contexts
            assert len(pool._tokens) <= pool.max_contexts
            assert len(pool._token_order) <= pool.max_contexts
            # Workers may only hold tokens the parent still knows about.
            live = set(pool._token_order)
            for shipped in pool._shipped:
                assert shipped <= live
        # Four distinct problems crossed a 2-context pool: evictions
        # happened (tokens 0 and 1 are gone) and each context was shipped
        # to at least one worker.
        assert pool._next_token == 4
        assert min(pool._token_order) >= 2
        assert pool.contexts_shipped >= 4


def test_worker_pool_reships_evicted_context_on_reuse():
    """Re-running an evicted problem is correct (the worker re-receives the
    context) and costs exactly one fresh shipment per worker touched."""
    with WorkerPool(1, max_contexts=1) as pool:
        config0, ghost0, prop0, invariants0 = _distinct_problem(0)
        universe0, checks0 = _pieces(config0, ghost0, prop0, invariants0)
        serial0 = run_checks(checks0, config0, universe0, (ghost0,))
        _pool_or_skip(pool, pool.run(checks0, config0, universe0, (ghost0,)))
        shipped_first = pool.contexts_shipped

        config1, ghost1, prop1, invariants1 = _distinct_problem(1)
        universe1, checks1 = _pieces(config1, ghost1, prop1, invariants1)
        pool.run(checks1, config1, universe1, (ghost1,))  # evicts problem 0
        assert pool.contexts_shipped > shipped_first

        shipped_before_rerun = pool.contexts_shipped
        again = pool.run(checks0, config0, universe0, (ghost0,))
        assert again is not None
        assert [_fingerprint(o) for o in again] == [
            _fingerprint(o) for o in serial0
        ]
        # The context had been dropped worker-side as well, so it was
        # shipped again — a new token, not a stale-reply hazard.
        assert pool.contexts_shipped == shipped_before_rerun + 1
        assert len(pool._payloads) == 1


def test_incremental_verifier_keeps_workers_across_reverify():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    v = IncrementalVerifier(
        config, prop, invariants, ghosts=(ghost,), parallel=2, backend="process"
    )
    try:
        assert v.verify().report.passed
        pool = v._worker_pool
        if pool is None or pool.chunks_run == 0:
            pytest.skip("process pools unavailable in this environment")

        edited, __, ___, ____ = _fullmesh_problem(4)
        strip = RouteMap(
            "STRIP",
            (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
        )
        edited.routers["R3"].neighbors["R1"].import_map = strip
        result = v.reverify(edited)
        assert not result.report.passed
        # Same WorkerPool object across verify/reverify — workers survived.
        assert v._worker_pool is pool
        assert {f.blamed_router for f in result.report.failures} == {"R3"}
    finally:
        v.close()


# ---------------------------------------------------------------------------
# Size-aware owner->worker assignment (PR 5)
# ---------------------------------------------------------------------------


def _chunk(owner: str, size: int, start: int = 0):
    """A synthetic (index, check) chunk of ``size`` checks owned by ``owner``."""
    from repro.lang.predicates import TruePred

    checks = [
        LocalCheck(
            kind=CheckKind.EXPORT,
            edge=Edge(owner, "EXT"),
            assumption=TruePred(),
            goal=TruePred(),
            description=f"synthetic {owner} #{i}",
        )
        for i in range(size)
    ]
    return [(start + i, c) for i, c in enumerate(checks)]


from repro.core.checks import CheckKind, LocalCheck  # noqa: E402


def test_assignment_is_size_aware_largest_first():
    """Unseen owners go largest-first to the least-loaded worker, so a
    heterogeneous owner mix balances by check weight, not arrival order."""
    pool = WorkerPool(2)
    chunks = [_chunk("tiny", 1), _chunk("huge", 10), _chunk("mid", 6), _chunk("small", 3)]
    pool._assign_owners(chunks, 2)
    a = pool._owner_assignment
    # largest-first: huge(10)->w0, mid(6)->w1, small(3)->w1 (6<10), tiny(1)->w1? no:
    # after small, loads are {0:10, 1:9}; tiny -> w1 (9<10) -> {0:10, 1:10}.
    assert a["huge"] != a["mid"]
    loads = pool.stats()["per_worker_weight"]
    assert sorted(loads) == [10, 10]  # perfectly balanced by weight
    assert pool.stats()["imbalance"] == 1.0
    # First-seen round-robin would have paired huge with small: [13, 7].


def test_assignment_is_sticky_across_runs():
    """An owner never moves once pinned — its worker's session encoding is
    the whole point — even if later runs change the size picture."""
    pool = WorkerPool(2)
    pool._assign_owners([_chunk("a", 5), _chunk("b", 4)], 2)
    first = dict(pool._owner_assignment)
    pool._assign_owners([_chunk("a", 1), _chunk("b", 50), _chunk("c", 2)], 2)
    assert {k: v for k, v in pool._owner_assignment.items() if k in first} == first
    assert "c" in pool._owner_assignment


def test_stats_reports_load_balance_shape():
    pool = WorkerPool(3)
    pool._assign_owners([_chunk("a", 9), _chunk("b", 5), _chunk("c", 4)], 3)
    stats = pool.stats()
    assert stats["jobs"] == 3
    assert stats["owners_assigned"] == 3
    assert sum(stats["per_worker_weight"]) == 18
    assert set(stats["owner_weight"]) == {"a", "b", "c"}
    assert stats["imbalance"] >= 1.0
    owners = [o for owner_list in stats["per_worker_owners"].values() for o in owner_list]
    assert sorted(owners) == ["a", "b", "c"]


def test_size_aware_pool_still_matches_serial_outcomes():
    """End-to-end: the new assignment changes scheduling only — outcomes
    and order are untouched."""
    config, ghost, prop, invariants = _fullmesh_problem(6)
    universe, checks = _pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,))
    with WorkerPool(3) as pool:
        pooled = _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        assert [_fingerprint(o) for o in pooled] == [_fingerprint(o) for o in serial]
        stats = pool.stats()
        assert stats["owners_assigned"] == len(pool._owner_assignment)
        assert sum(stats["per_worker_weight"]) == len(checks)
