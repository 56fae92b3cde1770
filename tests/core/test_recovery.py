"""Chunk-granular recovery tests: killed workers, redispatch, quarantine.

The fault-tolerance claim is precise: when a worker process dies mid-run,
the pool respawns it and re-dispatches *only the lost chunks* — never the
whole run, and never by silently falling back to a full serial rerun.
These tests kill workers at deterministic points via the fault-injection
harness and counter-assert exactly that.

``REPRO_CHAOS_SEED`` (set by the CI chaos job) varies the mesh size and
the targeted worker so repeated runs walk different schedules.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import check_owner, generate_safety_checks
from repro.core.exec import WorkerPool
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import build_universe, run_checks, verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.testing import faults
from repro.testing.faults import FaultPlan
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
MESH_SIZE = 4 + CHAOS_SEED % 3
KILL_INDEX = CHAOS_SEED % 2


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


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


def _assert_no_leaked_children():
    # Every worker the pool (or a recovery) spawned must be reaped by
    # close(); a leaked child here would outlive the test session.
    assert multiprocessing.active_children() == []


def test_killed_worker_recovers_with_only_lost_chunks_redispatched():
    config, ghost, prop, invariants = _fullmesh_problem(MESH_SIZE)
    universe, checks = _pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,))

    # The targeted worker dies on receipt of its 2nd chunk: it has acked
    # exactly one, so the lost set is its remaining assignment.
    faults.install(
        FaultPlan(kill_worker_after_chunks=2, kill_worker_index=KILL_INDEX)
    )
    pool = WorkerPool(2)
    try:
        pooled = _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        stats = pool.stats()

        # Identical outcomes to the serial path, in order.
        assert [_fingerprint(o) for o in pooled] == [_fingerprint(o) for o in serial]

        # Exactly one death, exactly the lost chunks redispatched: the
        # dead worker acked 1 chunk of its assignment, so lost = rest.
        assigned = len(stats["per_worker_owners"][KILL_INDEX])
        assert assigned >= 2, stats  # the kill actually fired
        assert stats["worker_respawns"] == 1
        assert stats["chunks_redispatched"] == assigned - 1

        # NOT a full serial rerun: the pool produced the result itself,
        # nothing fell back and nothing was quarantined.
        assert stats["serial_fallbacks"] == 0
        assert stats["checks_quarantined"] == 0
        assert stats["quarantined_owners"] == []

        # The respawned worker is a full citizen: a second run is clean.
        second = pool.run(checks, config, universe, (ghost,))
        assert second is not None
        assert pool.worker_respawns == 1  # unchanged
        assert [_fingerprint(o) for o in second] == [_fingerprint(o) for o in serial]
    finally:
        pool.close()
    _assert_no_leaked_children()


def test_chunk_that_kills_twice_is_quarantined():
    config, ghost, prop, invariants = _fullmesh_problem(MESH_SIZE)
    universe, checks = _pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,))

    # Worker 0 dies on its *first* chunk, twice: the same chunk is blamed
    # for both deaths and must be quarantined to in-process execution
    # rather than killing a third incarnation.
    faults.install(
        FaultPlan(kill_worker_after_chunks=1, kill_worker_index=0, kill_times=2)
    )
    pool = WorkerPool(2)
    try:
        pooled = _pool_or_skip(pool, pool.run(checks, config, universe, (ghost,)))
        stats = pool.stats()
        assert [_fingerprint(o) for o in pooled] == [_fingerprint(o) for o in serial]
        assert stats["worker_respawns"] == 2
        assert stats["checks_quarantined"] > 0
        assert len(stats["quarantined_owners"]) == 1
        assert stats["serial_fallbacks"] == 0

        # The quarantine is sticky: the next run partitions the owner out
        # before dispatch (more quarantined checks, no new deaths).
        quarantined_before = stats["checks_quarantined"]
        second = pool.run(checks, config, universe, (ghost,))
        assert second is not None
        assert [_fingerprint(o) for o in second] == [_fingerprint(o) for o in serial]
        assert pool.worker_respawns == 2  # unchanged
        assert pool.checks_quarantined > quarantined_before
    finally:
        pool.close()
    _assert_no_leaked_children()


def test_verify_safety_reports_recovery_as_degradation():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    faults.install(FaultPlan(kill_worker_after_chunks=2, kill_worker_index=0))
    pool = WorkerPool(2)
    try:
        report = verify_safety(config, prop, invariants, ghosts=(ghost,), workers=pool)
        if pool.chunks_run == 0:
            pytest.skip("process pools unavailable in this environment")
        assert report.passed
        assert report.degradation is not None
        assert report.degradation.worker_respawns == 1
        assert report.degradation.chunks_redispatched >= 1
        assert report.degradation.degraded()
    finally:
        pool.close()
    _assert_no_leaked_children()


def test_clean_run_reports_no_degradation():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    with WorkerPool(2) as pool:
        report = verify_safety(config, prop, invariants, ghosts=(ghost,), workers=pool)
        if pool.chunks_run == 0:
            pytest.skip("process pools unavailable in this environment")
        assert report.passed
        assert report.degradation is not None
        assert not report.degradation.degraded()
    _assert_no_leaked_children()


def test_serial_fallback_is_observable_not_silent():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    pool = WorkerPool(2)
    pool.close()  # a closed pool refuses work: run_checks must fall back
    with pytest.warns(RuntimeWarning, match="degraded to the serial path"):
        report = verify_safety(config, prop, invariants, ghosts=(ghost,), workers=pool)
    assert report.passed
    assert report.degradation is not None
    assert report.degradation.serial_fallbacks == 1
    assert report.degradation.reasons
    _assert_no_leaked_children()


def test_exception_in_check_propagates_and_pool_survives():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    universe, checks = _pieces(config, ghost, prop, invariants)
    victim = next(c for c in checks if check_owner(c) == "R1")
    faults.install(FaultPlan(raise_in_check_match=str(victim)))
    pool = WorkerPool(2)
    try:
        with pytest.raises(faults.FaultInjected):
            outcomes = pool.run(checks, config, universe, (ghost,))
            if outcomes is None:
                pytest.skip("process pools unavailable in this environment")
        # A genuine check exception is not a crash: no respawn happened,
        # and the pool still serves later runs.  (Workers keep their
        # spawn-time fault plan by design, so steer clear of the victim.)
        faults.reset()
        rest = [c for c in checks if check_owner(c) != "R1"]
        serial = run_checks(rest, config, universe, (ghost,))
        again = pool.run(rest, config, universe, (ghost,))
        assert again is not None
        assert [_fingerprint(o) for o in again] == [_fingerprint(o) for o in serial]
        assert pool.worker_respawns == 0
        assert pool.serial_fallbacks == 0
    finally:
        pool.close()
    _assert_no_leaked_children()
