"""Counters read from the program's own objects at the end of a traced run.

Everything here is public state the program already keeps: the memo
statistics of :mod:`repro.lang.transfer` and :mod:`repro.lang.predicates`,
each workspace entry's last result (checks consulted, per-check
:class:`SolverStats` in its outcomes) and :meth:`WorkerPool.stats`.
Per-check solver statistics travel back from worker processes inside
outcomes, so the ``smt`` sums here cover the process backend too.
"""

from __future__ import annotations


def _fresh_outcomes(result) -> list:
    """The outcomes a run computed, as opposed to ones reused from its cache.

    A safety report lists cached outcomes first and fresh ones last; a run
    with nothing cached (a cold verify) computed all of them.
    """
    outcomes = list(result.report.iter_outcomes())
    if result.cached_checks == 0:
        return outcomes
    return outcomes[len(outcomes) - result.rerun_checks :]


def program_counters(tracer) -> dict:
    from repro.lang.predicates import predicate_term_cache_stats
    from repro.lang.transfer import transfer_cache_stats

    transfer = transfer_cache_stats()
    predicate = predicate_term_cache_stats()
    counters: dict = {
        "lang.transfer_calls": transfer.lookups,
        "lang.transfer_hit_ratio": transfer.hit_rate,
        "lang.predicate_calls": predicate.lookups,
        "lang.predicate_hit_ratio": predicate.hit_rate,
        "smt.distinct_queries": len(tracer.queries),
    }
    checks = consulted = 0
    smt = {
        "smt.encode_s": 0.0,
        "smt.solve_s": 0.0,
        "smt.conflicts": 0,
        "smt.decisions": 0,
        "smt.propagations": 0,
        "smt.vars": 0,
        "smt.clauses": 0,
    }
    for workspace in tracer.workspaces:
        for entry in workspace.entries:
            result = entry.last_result
            if result is None:
                continue
            checks += result.rerun_checks + result.cached_checks
            consulted += result.checks_consulted
            for outcome in _fresh_outcomes(result):
                stats = outcome.stats
                smt["smt.encode_s"] += stats.build_time_s
                smt["smt.solve_s"] += stats.solve_time_s
                smt["smt.conflicts"] += stats.sat.conflicts
                smt["smt.decisions"] += stats.sat.decisions
                smt["smt.propagations"] += stats.sat.propagations
                smt["smt.vars"] += stats.num_vars
                smt["smt.clauses"] += stats.num_clauses
    counters.update(smt)
    counters["core.checks"] = checks
    counters["core.checks_consulted"] = consulted
    counters["core.consulted_share"] = consulted / checks if checks else 0.0

    pool = {
        "exec.chunks_run": 0,
        "exec.contexts_shipped": 0,
        "exec.learnts_seeded": 0,
        "exec.imbalance": 0.0,
        "exec.serial_fallbacks": 0,
        "exec.worker_respawns": 0,
    }
    for workers in tracer.worker_pools:
        stats = workers.stats()
        for key in ("chunks_run", "contexts_shipped", "learnts_seeded", "serial_fallbacks",
                    "worker_respawns"):
            pool[f"exec.{key}"] += stats[key]
        pool["exec.imbalance"] = max(pool["exec.imbalance"], stats["imbalance"])
    counters.update(pool)
    return counters
