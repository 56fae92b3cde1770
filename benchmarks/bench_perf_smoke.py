"""Quick verification-throughput smoke benchmark (PR 1 trajectory anchor).

One fullmesh N=25 no-transit safety sweep, discharged two ways:

* ``serial`` — the default path: shared :class:`CheckSession` per owner
  router, flattened SAT core;
* ``jobs2``  — the process backend with two workers (falls back to the
  serial path on hosts without process-pool support, so the number is a
  lower bound on parallel benefit, never a failure).

Run: ``pytest benchmarks/bench_perf_smoke.py --benchmark-only -s``

``benchmarks/collect_results.py --json BENCH_PR1.json`` records the same
sweep (plus the Figure 3d N=50 configuration) with seed-baseline
comparisons for cross-PR tracking.
"""

from __future__ import annotations

import pytest

from repro.core.safety import verify_safety
from repro.lang.predicates import predicate_term_cache_stats
from repro.lang.transfer import reset_transfer_cache, transfer_cache_stats
from repro.smt.solver import SessionPool

from benchmarks.conftest import fullmesh_problem

SMOKE_N = 25


def _sweep(parallel=None, backend="auto", sessions=None):
    config, ghost, prop, invariants = fullmesh_problem(SMOKE_N)
    report = verify_safety(
        config,
        prop,
        invariants,
        ghosts=(ghost,),
        parallel=parallel,
        backend=backend,
        sessions=sessions,
    )
    assert report.passed
    return report


@pytest.mark.parametrize(
    "mode,parallel,backend",
    [
        ("serial", None, "auto"),
        ("jobs2", 2, "process"),
    ],
)
def test_perf_smoke_fullmesh(benchmark, mode, parallel, backend):
    reset_transfer_cache()
    pool = SessionPool()
    report = benchmark.pedantic(
        lambda: _sweep(parallel=parallel, backend=backend, sessions=pool),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["routers"] = SMOKE_N
    benchmark.extra_info["num_checks"] = report.num_checks
    benchmark.extra_info["solve_time_s"] = round(report.solve_time_s, 3)
    benchmark.extra_info["total_time_s"] = round(report.wall_time_s, 3)
    # Term-construction cache effectiveness (PR 2): transfer outputs and
    # predicate lowering.  Note the counters are in-process — the process
    # backend's workers keep their own caches, so jobs2 may read as 0/0.
    transfer = transfer_cache_stats()
    predicates = predicate_term_cache_stats()
    benchmark.extra_info["transfer_cache"] = {
        "hits": transfer.hits,
        "misses": transfer.misses,
        "hit_rate": round(transfer.hit_rate, 4),
    }
    benchmark.extra_info["predicate_term_cache"] = {
        "hits": predicates.hits,
        "misses": predicates.misses,
        "hit_rate": round(predicates.hit_rate, 4),
    }
    # Pre-asserted well-formedness: conjuncts skipped as per-check
    # assumptions.  In-process like the term caches — the process
    # backend's per-worker pools keep their own counters, so jobs2 may
    # read 0.
    benchmark.extra_info["shared_skips"] = pool.stats()["shared_skips"]
