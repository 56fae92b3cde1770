"""The verification execution backends must be interchangeable.

Three pillars:

* shared-encoding :class:`CheckSession` reuse (the serial default) returns
  outcomes identical to hermetic fresh-solver checks on the fullmesh
  workload — including counterexample witnesses on broken networks;
* the process backend returns the same outcomes in the same order as the
  serial path (or falls back to it where process pools are unavailable);
* job-count resolution (``auto``, integers, serial forcing) behaves as the
  CLI contract promises.
"""

from __future__ import annotations

import os

import pytest

from repro.bgp.policy import RouteMap, RouteMapClause, DeleteCommunity
from repro.bgp.topology import Edge
from repro.core.checks import check_owner, generate_safety_checks
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import build_universe, resolve_jobs, run_checks, verify_safety
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


def _outcome_fingerprint(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        None
        if failure is None
        else (str(failure.input_route), str(failure.output_route), failure.rejected),
    )


def _problem_pieces(config, ghost, prop, invariants):
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    return universe, checks


def test_session_reuse_matches_fresh_solvers_on_fullmesh():
    config, ghost, prop, invariants = _fullmesh_problem(6)
    universe, checks = _problem_pieces(config, ghost, prop, invariants)
    # Reference: hermetic solver per check (no session).
    reference = [check.run(config, universe, (ghost,)) for check in checks]
    # Default serial path: one shared session per owner router.
    shared = run_checks(checks, config, universe, (ghost,))
    assert [_outcome_fingerprint(o) for o in shared] == [
        _outcome_fingerprint(o) for o in reference
    ]
    assert all(o.passed for o in shared)


def test_session_reuse_matches_fresh_solvers_on_broken_fullmesh():
    # Strip the transit tag inside the mesh: checks must fail identically,
    # with the same localisation, under both discharge strategies.
    config, ghost, prop, invariants = _fullmesh_problem(4)
    strip = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),))
    config.routers["R3"].neighbors["R1"].import_map = strip
    universe, checks = _problem_pieces(config, ghost, prop, invariants)
    reference = [check.run(config, universe, (ghost,)) for check in checks]
    shared = run_checks(checks, config, universe, (ghost,))
    assert [_outcome_fingerprint(o) for o in shared] == [
        _outcome_fingerprint(o) for o in reference
    ]
    assert any(not o.passed for o in shared)


def test_process_backend_agrees_with_serial():
    config, ghost, prop, invariants = _fullmesh_problem(5)
    universe, checks = _problem_pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,), parallel=1)
    parallel = run_checks(
        checks, config, universe, (ghost,), parallel=2, backend="process"
    )
    assert [_outcome_fingerprint(o) for o in parallel] == [
        _outcome_fingerprint(o) for o in serial
    ]


def test_process_backend_ships_counterexamples_back():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    strip = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),))
    config.routers["R3"].neighbors["R1"].import_map = strip
    report = verify_safety(
        config, prop, invariants, ghosts=(ghost,), parallel=2, backend="process"
    )
    assert not report.passed
    assert report.failures, "counterexamples must survive the process boundary"
    assert any(f.blamed_router == "R3" for f in report.failures)


def test_verify_safety_parallel_auto_passes():
    config, ghost, prop, invariants = _fullmesh_problem(5)
    report = verify_safety(config, prop, invariants, ghosts=(ghost,), parallel="auto")
    assert report.passed


def test_thread_backend_is_rejected():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    with pytest.raises(ValueError, match="unknown backend"):
        verify_safety(
            config, prop, invariants, ghosts=(ghost,), parallel=2, backend="thread"
        )


def test_resolve_jobs_contract():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    # "auto" means the CPUs actually *available* to this process — the
    # process CPU count (3.13+) or the affinity mask where supported —
    # never more than the machine total.  (The per-source preference
    # order is pinned by the monkeypatched tests in test_exec_runtime.)
    auto = resolve_jobs("auto")
    assert auto >= 1
    assert auto <= (os.cpu_count() or auto)
    if getattr(os, "process_cpu_count", lambda: None)():
        assert auto == os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        assert auto == len(os.sched_getaffinity(0))
    else:
        assert auto == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_unknown_backend_rejected():
    config, ghost, prop, invariants = _fullmesh_problem(3)
    universe, checks = _problem_pieces(config, ghost, prop, invariants)
    with pytest.raises(ValueError):
        run_checks(checks, config, universe, (ghost,), backend="gpu")


def test_chunking_is_complete_and_owner_pure():
    from repro.core.exec import chunk_by_owner

    config, ghost, prop, invariants = _fullmesh_problem(5)
    __, checks = _problem_pieces(config, ghost, prop, invariants)
    chunks = chunk_by_owner(checks)
    indices = sorted(i for chunk in chunks for i, __ in chunk)
    assert indices == list(range(len(checks)))
    for chunk in chunks:
        owners = {check_owner(check) for __, check in chunk}
        assert len(owners) == 1
