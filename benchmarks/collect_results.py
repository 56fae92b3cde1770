#!/usr/bin/env python3
"""Regenerate the EXPERIMENTS.md measurement tables.

Runs the Figure 3 sweeps and the Table 4 verification problems once each
and prints markdown tables with the measured values.  Slower and more
thorough than the pytest-benchmark suite; intended to be run manually:

    python benchmarks/collect_results.py

``--json PATH`` instead records the verification-throughput trajectory (the
fullmesh N=50 Figure 3d configuration plus the N=25 smoke sweep, serial
and process-parallel, with term-cache counters, plus a single-router
reverify micro-benchmark) as a JSON file — ``BENCH_PR1.json`` holds the
PR 1 numbers against the seed, ``BENCH_PR2.json`` the PR 2 numbers against
both, so later PRs have a trajectory to compare.  ``BENCH_PR3.json`` adds
a liveness sweep (cold vs. warm session pool on the fullmesh liveness
property) and a reverify-by-owner micro-benchmark (checks consulted via
the owner index vs. the full check list).  ``BENCH_PR4.json`` adds the
incremental-liveness section: cold verify vs. warm single-router-edit
reverify (owner-index consultation counters plus the zero-re-encoding
witness for unchanged owners).  ``BENCH_PR5.json`` adds the
cross-process warm-start section: a cold ``lightyear verify --cache``
(verify + save) against a fresh-process ``lightyear reverify --cache``
that loads the on-disk outcome cache, skips the base run, and consults
only the edited owner's checks.  ``BENCH_PR9.json`` adds two
execution-runtime sections: ``scheduler_overhead`` (the one-group-plan
scheduler path vs. a hand-rolled pre-refactor serial loop; flagged if
the overhead exceeds 5%) and ``liveness_pipelining`` (the staged §5 plan
with the interference barrier removed vs. the legacy barriered order).
``BENCH_PR10.json`` adds the ``lint`` section: wall time of the repo's
own static-analysis pass over ``src/repro`` — cold serial, cold
``--jobs N`` through the process extraction backend, and a warm
fact-cache run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import fullmesh_problem

from repro.baselines.minesweeper import MinesweeperVerifier
from repro.core.liveness import verify_liveness
from repro.core.safety import verify_safety
from repro.core.workspace import Workspace
from repro.lang.predicates import predicate_term_cache_stats
from repro.lang.transfer import reset_transfer_cache, transfer_cache_stats
from repro.smt.solver import SessionPool
from repro.workloads.fullmesh import (
    build_full_mesh,
    full_mesh_liveness_property,
    full_mesh_single_router_edit,
)
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    verify_ip_reuse_liveness_problems,
    verify_ip_reuse_safety_problems,
    verify_peering_problems,
)

# Wall-clock seconds for the same sweeps at the seed commit (b218447,
# per-check fresh encodings, no shared sessions, flat-dataclass SAT core),
# measured on the PR 1 build machine (1 core, Python 3.11) as best-of-3.
# Re-measure when moving to different hardware before comparing.
SEED_BASELINE_WALL_S = {25: 0.271, 50: 1.187}


def fig3a(sizes=(2, 4, 8, 12, 16)) -> None:
    print("\n### Figure 3a — Minesweeper encoding size\n")
    print("| routers | SMT variables | SMT constraints |")
    print("|---:|---:|---:|")
    for n in sizes:
        config, ghost, prop, __ = fullmesh_problem(n)
        num_vars, num_clauses = MinesweeperVerifier(
            config, ghosts=(ghost,)
        ).encoding_size(prop)
        print(f"| {n} | {num_vars} | {num_clauses} |")


def fig3b_3d(sizes=(10, 25, 50, 100)) -> None:
    print("\n### Figures 3b and 3d — Lightyear per-check size and runtime\n")
    print("| routers | local checks | max vars/check | max constraints/check "
          "| solve time (s) | total time (s) |")
    print("|---:|---:|---:|---:|---:|---:|")
    for n in sizes:
        config, ghost, prop, invariants = fullmesh_problem(n)
        report = verify_safety(config, prop, invariants, ghosts=(ghost,))
        assert report.passed
        print(
            f"| {n} | {report.num_checks} | {report.max_vars} | "
            f"{report.max_clauses} | {report.solve_time_s:.2f} | "
            f"{report.wall_time_s:.2f} |"
        )


def fig3c(sizes=(2, 3, 4, 5, 6, 7), budget=8000) -> None:
    print("\n### Figure 3c — Minesweeper runtime (conflict budget "
          f"{budget} ≙ the paper's 2h timeout)\n")
    print("| routers | outcome | solve time (s) | total time (s) |")
    print("|---:|---|---:|---:|")
    for n in sizes:
        config, ghost, prop, __ = fullmesh_problem(n)
        result = MinesweeperVerifier(config, ghosts=(ghost,)).verify(
            prop, conflict_budget=budget
        )
        outcome = (
            "verified" if result.verified
            else ("TIMEOUT" if result.timed_out else "violated?!")
        )
        print(
            f"| {n} | {outcome} | {result.stats.solve_time_s:.1f} | "
            f"{result.wall_time_s:.1f} |"
        )
        if result.timed_out:
            break


def table4(regions=6, routers_per_region=5, peers=3) -> None:
    wan = build_wan(
        regions=regions, routers_per_region=routers_per_region, peers_per_edge=peers
    )
    topo = wan.config.topology
    print(
        f"\n### Table 4 — WAN use cases "
        f"({len(topo.routers)} routers, {len(topo.edges)} directed edges, "
        f"{regions} regions)\n"
    )
    print("| use case | properties | local checks | time (s) | result |")
    print("|---|---:|---:|---:|---|")

    # One workspace lends its session pool to all three sweeps, so the
    # 4b/4c rows re-solve against encodings the 4a row already built.
    workspace = Workspace(wan.config)

    start = time.perf_counter()
    results = verify_peering_problems(wan, workspace=workspace)
    total_checks = sum(report.num_checks for __, report in results)
    ok = all(report.passed for __, report in results)
    print(
        f"| 4a: 11 peering policies | 11×{len(topo.routers)} | {total_checks} "
        f"| {time.perf_counter() - start:.1f} | {'PASS' if ok else 'FAIL'} |"
    )

    start = time.perf_counter()
    results = verify_ip_reuse_safety_problems(wan, workspace=workspace)
    total_checks = sum(report.num_checks for __, report in results)
    ok = all(report.passed for __, report in results)
    print(
        f"| 4b: IP-reuse safety, all regions | {wan.regions} | {total_checks} "
        f"| {time.perf_counter() - start:.1f} | {'PASS' if ok else 'FAIL'} |"
    )

    start = time.perf_counter()
    # One covering universe + one session pool across all regions (PR 3).
    results = verify_ip_reuse_liveness_problems(wan, workspace=workspace)
    total_checks = sum(report.num_checks for __, report in results)
    ok = all(report.passed for __, report in results)
    print(
        f"| 4c: IP-reuse liveness, all regions | {wan.regions} | {total_checks} "
        f"| {time.perf_counter() - start:.1f} | {'PASS' if ok else 'FAIL'} |"
    )


def _prior_baselines(json_path: str) -> dict[int, dict[str, dict[str, float]]]:
    """Per-size, per-mode wall times from every earlier BENCH_*.json record.

    All modes are kept (not just serial) so the regression check can
    compare like with like against the *best* prior result per mode — a
    regression must not hide behind one already-slow predecessor record.
    """
    baselines: dict[int, dict[str, dict[str, float]]] = {}
    here = Path(json_path).resolve().parent
    for prior in sorted(here.glob("BENCH_*.json")):
        if prior.name == Path(json_path).name:
            continue
        try:
            data = json.loads(prior.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        label = prior.stem.lower()  # e.g. "bench_pr1" -> "pr1"
        label = label.replace("bench_", "")
        for sweep in data.get("sweeps", []):
            walls = sweep.get("wall_time_s")
            if not isinstance(walls, dict):
                continue
            per_mode = {
                mode: float(wall)
                for mode, wall in walls.items()
                if isinstance(wall, (int, float))
            }
            if per_mode:
                baselines.setdefault(sweep["routers"], {})[label] = per_mode
    return baselines


def liveness_microbench(n: int = 12, rounds: int = 3) -> dict:
    """Cold vs. warm-pool ``verify_liveness`` on the fullmesh property.

    The property's two no-interference sub-proofs generate checks on every
    mesh edge, so the pipeline scales like the Figure 3d safety sweep.
    Cold runs give each call a fresh :class:`SessionPool`; the warm run
    re-verifies against a pool an earlier call already populated — the
    marginal encoding is zero (asserted) and the wall time is the pure
    re-solve cost.
    """
    prop = full_mesh_liveness_property(n)
    best_cold = best_warm = None
    num_checks = 0
    for __ in range(rounds):
        reset_transfer_cache()
        config = build_full_mesh(n)
        pool = SessionPool()
        start = time.perf_counter()
        cold = verify_liveness(config, prop, sessions=pool)
        t_cold = time.perf_counter() - start
        assert cold.passed
        encoded = pool.total_encoding()
        start = time.perf_counter()
        warm = verify_liveness(config, prop, sessions=pool)
        t_warm = time.perf_counter() - start
        assert warm.passed
        assert pool.total_encoding() == encoded, "warm run re-encoded something"
        num_checks = cold.num_checks
        best_cold = t_cold if best_cold is None else min(best_cold, t_cold)
        best_warm = t_warm if best_warm is None else min(best_warm, t_warm)
    return {
        "workload": (
            f"fullmesh N={n} short-prefix liveness "
            f"(2 no-interference sub-proofs over the whole mesh)"
        ),
        "routers": n,
        "num_checks": num_checks,
        "cold_pool_wall_time_s": round(best_cold, 4),
        "warm_pool_wall_time_s": round(best_warm, 4),
        "warm_speedup": round(best_cold / best_warm, 2),
    }


def liveness_reverify_microbench(n: int = 12, rounds: int = 3) -> dict:
    """Cold incremental-liveness verification vs. a single-router reverify.

    The edit touches a router *off* the witness path, so the reverify
    re-runs only that owner's group inside each no-interference sub-proof
    — no propagation checks, never the implication.  The session pool's
    per-owner encoding sizes witness that unchanged owners were not
    re-encoded at all.
    """
    prop = full_mesh_liveness_property(n)
    best_cold = best_warm = None
    result = None
    reencoded = 0
    total = 0
    for __ in range(rounds):
        reset_transfer_cache()
        config = build_full_mesh(n)
        workspace = Workspace(config)
        start = time.perf_counter()
        initial = workspace.verify(prop)
        t_cold = time.perf_counter() - start
        assert initial.passed
        sizes_before = workspace.sessions.encoding_sizes()
        workspace.apply(full_mesh_single_router_edit(n))
        start = time.perf_counter()
        (entry,) = workspace.reverify()
        t_warm = time.perf_counter() - start
        result = entry.last_result
        assert result.report.passed
        sizes_after = workspace.sessions.encoding_sizes()
        grown = [k for k, v in sizes_after.items() if v != sizes_before.get(k)]
        assert grown == [f"R{n}"], f"unexpected re-encoding: {grown}"
        reencoded = len(grown)
        total = result.rerun_checks + result.cached_checks
        best_cold = t_cold if best_cold is None else min(best_cold, t_cold)
        best_warm = t_warm if best_warm is None else min(best_warm, t_warm)
    return {
        "workload": (
            f"fullmesh N={n} short-prefix liveness, one benign edit on R{n} "
            f"(off the witness path)"
        ),
        "routers": n,
        "edit": "one extra deny clause on one router's external import",
        "cold_verify_wall_time_s": round(best_cold, 4),
        "reverify_wall_time_s": round(best_warm, 4),
        "reverify_fraction_of_cold": round(best_warm / best_cold, 4),
        "rerun_checks": result.rerun_checks,
        "cached_checks": result.cached_checks,
        "checks_consulted": result.checks_consulted,
        "checks_total": total,
        "consulted_fraction": round(result.checks_consulted / total, 4),
        # Zero re-encoding for unchanged owners: only the edited router's
        # session grew during the reverify.
        "owners_reencoded": reencoded,
        "unchanged_owners_reencoded": 0,
    }


def reverify_microbench(n: int = 25, rounds: int = 3) -> dict:
    """Initial verification vs. a single-router reverify on fullmesh N.

    The edit is a benign extra deny on one router's external import — the
    exact workload the §4.2 locality argument promises is cheap
    (:func:`repro.workloads.fullmesh.full_mesh_single_router_edit`).
    """
    best_initial = best_reverify = None
    result = None
    for __ in range(rounds):
        config, ghost, prop, invariants = fullmesh_problem(n)
        workspace = Workspace(config, ghosts=(ghost,))
        start = time.perf_counter()
        initial = workspace.verify(prop, invariants)
        t_initial = time.perf_counter() - start
        assert initial.passed
        workspace.apply(full_mesh_single_router_edit(n))
        start = time.perf_counter()
        (entry,) = workspace.reverify()
        t_reverify = time.perf_counter() - start
        result = entry.last_result
        assert result.report.passed
        best_initial = t_initial if best_initial is None else min(best_initial, t_initial)
        best_reverify = t_reverify if best_reverify is None else min(best_reverify, t_reverify)
    total_checks = result.rerun_checks + result.cached_checks
    return {
        "routers": n,
        "edit": "one extra deny clause on one router's external import",
        "initial_wall_time_s": round(best_initial, 4),
        "reverify_wall_time_s": round(best_reverify, 4),
        "reverify_fraction_of_initial": round(best_reverify / best_initial, 4),
        "rerun_checks": result.rerun_checks,
        "cached_checks": result.cached_checks,
        # Owner-index witness: how many checks the reverify examined vs.
        # the full cache a digest walk would have touched.
        "checks_consulted": result.checks_consulted,
        "checks_total": total_checks,
        "consulted_fraction": round(result.checks_consulted / total_checks, 4),
    }


def workspace_warm_start(n: int = 25, rounds: int = 2) -> dict:
    """Cross-process warm start via the on-disk workspace cache.

    Three *separate CLI process* invocations on the fullmesh no-transit
    problem:

    1. **cold** — ``lightyear verify --cache DIR``: full base verification
       plus saving the outcome cache;
    2. **warm** — ``lightyear reverify BASE EDITED SPEC --cache DIR`` in a
       fresh process: loads the cache, skips the base run, and consults
       only the edited router's owner group (counters parsed from the CLI
       output and recorded);
    3. **no-cache** — the same reverify without ``--cache``: pays the full
       base run in-process, the pre-PR-5 behavior.

    Subprocess wall times include interpreter/import startup (recorded
    separately as ``python_floor_wall_time_s``), exactly what a CI hook or
    editor integration invoking the CLI per edit would pay.
    """
    from repro.bgp.configjson import config_to_json
    from repro.bgp.topology import Edge
    from repro.lang.predicates import Not, GhostIs
    from repro.lang.specjson import SafetySpec, VerificationSpec, spec_to_json

    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def cli(args, cwd):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return elapsed, proc.stdout

    config, ghost, prop, invariants = fullmesh_problem(n)
    spec = VerificationSpec(
        ghost_docs=[{"name": ghost.name, "kind": "source", "sources": ["E1->R1"]}],
        safety=[
            SafetySpec(
                property=prop,
                invariants_default=invariants.default,
                invariants_overrides={Edge("R2", "E2"): Not(GhostIs(ghost.name))},
            )
        ],
    )
    best = {"cold": None, "warm": None, "nocache": None, "floor": None}
    consulted = total = None
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base.json"
        edited = Path(tmp) / "edited.json"
        spec_path = Path(tmp) / "spec.json"
        base.write_text(config_to_json(config))
        edited.write_text(config_to_json(full_mesh_single_router_edit(n)))
        spec_path.write_text(spec_to_json(spec))
        for __ in range(rounds):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.cli"],
                env=env, capture_output=True, check=True,
            )
            floor = time.perf_counter() - start
            cache = Path(tmp) / "cache"
            if cache.exists():
                for piece in cache.iterdir():
                    piece.unlink()
            t_cold, __out = cli(
                ["verify", "base.json", "spec.json", "--cache", "cache"], tmp
            )
            t_warm, out = cli(
                ["reverify", "base.json", "edited.json", "spec.json",
                 "--cache", "cache"], tmp,
            )
            assert "base run skipped" in out
            match = re.search(r"consulted (\d+) of (\d+) checks", out)
            assert match is not None, out
            consulted, total = int(match.group(1)), int(match.group(2))
            t_nocache, __out = cli(
                ["reverify", "base.json", "edited.json", "spec.json"], tmp
            )
            for key, value in (("cold", t_cold), ("warm", t_warm),
                               ("nocache", t_nocache), ("floor", floor)):
                best[key] = value if best[key] is None else min(best[key], value)
    return {
        "workload": (
            f"fullmesh N={n} no-transit via the CLI, one benign edit on R{n}; "
            f"each phase is a separate process invocation"
        ),
        "routers": n,
        "cold_verify_save_wall_time_s": round(best["cold"], 4),
        "warm_load_reverify_wall_time_s": round(best["warm"], 4),
        "reverify_without_cache_wall_time_s": round(best["nocache"], 4),
        "python_floor_wall_time_s": round(best["floor"], 4),
        "warm_speedup_vs_no_cache": round(best["nocache"] / best["warm"], 2),
        # Owner-index witness across processes: the loaded cache consulted
        # only the edited router's checks.
        "checks_consulted": consulted,
        "checks_total": total,
        "consulted_fraction": round(consulted / total, 4),
    }


def scheduler_overhead_microbench(n: int = 50, rounds: int = 7) -> dict:
    """PR 9: the plan/scheduler layer vs. a hand-rolled serial loop.

    ``run_checks`` is now a one-group :class:`CheckPlan` dispatched by the
    :class:`Scheduler`; this measures what that indirection costs on the
    fullmesh N no-transit sweep against a direct re-implementation of the
    pre-refactor serial path (owner-grouped shared sessions, per-owner
    preamble preparation, hermetically identical outcomes).  Both sides
    run cold (fresh :class:`SessionPool` per round); the recorded
    ``overhead_fraction`` is flagged as a regression above 5%.
    """
    from repro.core.checks import check_owner, generate_safety_checks, prepare_session
    from repro.core.safety import build_universe, run_checks

    def direct_reference(checks, config, universe, ghosts, sessions):
        # The pre-refactor serial path, verbatim: shared per-owner
        # sessions, pre-asserted well-formedness, input order.
        prepared: set[int] = set()
        outcomes = []
        for check in checks:
            owner = check_owner(check)
            session = sessions.get(owner)
            if id(session) not in prepared:
                prepared.add(id(session))
                prepare_session(session, universe)
            outcomes.append(
                check.run(config, universe, ghosts, None, session=session)
            )
        return outcomes

    best_direct = best_scheduler = None
    num_checks = 0
    for __ in range(rounds):
        reset_transfer_cache()
        config, ghost, prop, invariants = fullmesh_problem(n)
        universe = build_universe(config, invariants, [prop.predicate], (ghost,))
        checks = generate_safety_checks(
            config, invariants, prop.location, prop.predicate
        )
        num_checks = len(checks)

        start = time.perf_counter()
        reference = direct_reference(checks, config, universe, (ghost,), SessionPool())
        t_direct = time.perf_counter() - start
        assert all(o.passed for o in reference)

        start = time.perf_counter()
        outcomes = run_checks(
            checks, config, universe, (ghost,), sessions=SessionPool()
        )
        t_scheduler = time.perf_counter() - start
        assert [str(o.check) for o in outcomes] == [
            str(o.check) for o in reference
        ]
        assert all(o.passed for o in outcomes)

        best_direct = t_direct if best_direct is None else min(best_direct, t_direct)
        best_scheduler = (
            t_scheduler
            if best_scheduler is None
            else min(best_scheduler, t_scheduler)
        )
    return {
        "workload": f"fullmesh N={n} no-transit safety (one-group plan, serial)",
        "routers": n,
        "num_checks": num_checks,
        "direct_loop_wall_time_s": round(best_direct, 4),
        "scheduler_wall_time_s": round(best_scheduler, 4),
        "overhead_fraction": round(best_scheduler / best_direct - 1.0, 4),
    }


def liveness_pipelining_microbench(n: int = 12, rounds: int = 3) -> dict:
    """PR 9: the §5 stage barrier removed vs. the legacy barriered order.

    ``liveness_plan(pipelined=True)`` schedules the no-interference
    sub-proofs in the same dispatch round as the propagation checks (only
    the implication waits on propagation), where the pre-PR-9 order
    barriered them behind the implication.  Outcomes are identical — the
    differential suite pins that — so this records the structural change
    (dispatch rounds 3 → 2) and the wall-clock delta.  On a serial or
    single-core host the delta is expected to be ~1.0: the win is
    batch-level parallelism headroom, not less work.
    """
    from repro.core.exec import ExecutionContext, Scheduler
    from repro.core.liveness import (
        generate_liveness_checks,
        liveness_plan,
        liveness_universe,
    )

    class CountingScheduler(Scheduler):
        def __init__(self, context):
            super().__init__(context)
            self.batches = 0

        def _dispatch(self, batch, degradation):
            self.batches += 1
            return super()._dispatch(batch, degradation)

    prop = full_mesh_liveness_property(n)
    walls: dict[str, float] = {}
    batches: dict[str, int] = {}
    num_checks = 0
    for label, pipelined in (("pipelined", True), ("barriered", False)):
        best = None
        for __ in range(rounds):
            reset_transfer_cache()
            config = build_full_mesh(n)
            universe = liveness_universe(config, prop)
            checks = generate_liveness_checks(config, prop)
            plan = liveness_plan(checks, pipelined=pipelined)
            context = ExecutionContext(None, "auto", None, None, None, autopool=False)
            scheduler = CountingScheduler(context)
            start = time.perf_counter()
            result = scheduler.run(plan, config, universe)
            elapsed = time.perf_counter() - start
            assert all(o.passed for o in result.outcomes)
            num_checks = len(result.outcomes)
            batches[label] = scheduler.batches
            best = elapsed if best is None else min(best, elapsed)
        walls[label] = round(best, 4)
    return {
        "workload": f"fullmesh N={n} short-prefix liveness (staged §5 plan)",
        "routers": n,
        "num_checks": num_checks,
        "wall_time_s": walls,
        "dispatch_rounds": batches,
        "barrier_removal_speedup": round(
            walls["barriered"] / walls["pipelined"], 2
        ),
    }


def lint_walltime_microbench(rounds: int = 3) -> dict:
    """PR 10: the static-analysis pass over ``src/repro`` itself.

    Three measurements, best-of-``rounds`` each:

    1. **cold serial** — no cache, ``jobs=None``: every file parsed and
       fact-extracted in process;
    2. **cold parallel** — no cache, ``jobs=cpu_count``: the same work
       fanned out through the process extraction backend (on a
       single-core host this times the serial fallback);
    3. **warm** — a populated fact cache: discovery plus digest lookups
       only, the cost a CI run with a restored ``.lint-cache`` pays.

    Findings are asserted identical across all three — the differential
    contract, measured rather than mocked.
    """
    from repro.analysis.engine import LintOptions, run_lint

    repo_root = Path(__file__).resolve().parent.parent
    src = repo_root / "src" / "repro"
    jobs = os.cpu_count() or 1

    def run(cache_file, n_jobs):
        options = LintOptions(
            root=repo_root,
            paths=[src],
            cache_file=cache_file,
            baseline_file=repo_root / "lint-baseline.json",
            manifest_file=repo_root / "cache-shape.json",
            jobs=n_jobs,
        )
        start = time.perf_counter()
        result = run_lint(options)
        return time.perf_counter() - start, result

    best = {"cold_serial": None, f"cold_process_jobs{jobs}": None, "warm": None}
    keys = {}
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        warm_cache = Path(tmp) / "warm" / "lint-cache.json"
        run(warm_cache, None)  # populate once; warm rounds reuse it
        for __ in range(rounds):
            t_serial, serial = run(None, None)
            t_process, process = run(None, jobs)
            t_warm, warm = run(warm_cache, None)
            for result in (serial, process, warm):
                assert not result.failed, "lint found fresh errors mid-benchmark"
            keys = {
                label: [f.key() for f in result.fresh]
                for label, result in (
                    ("serial", serial), ("process", process), ("warm", warm),
                )
            }
            assert keys["serial"] == keys["process"] == keys["warm"]
            files = serial.files_analyzed
            for key, value in (
                ("cold_serial", t_serial),
                (f"cold_process_jobs{jobs}", t_process),
                ("warm", t_warm),
            ):
                best[key] = value if best[key] is None else min(best[key], value)
    return {
        "workload": "lightyear lint over src/repro (the repo's own gate)",
        "files": files,
        "wall_time_s": {k: round(v, 4) for k, v in best.items()},
        "parallel_speedup": round(
            best["cold_serial"] / best[f"cold_process_jobs{jobs}"], 2
        ),
        "warm_speedup": round(best["cold_serial"] / best["warm"], 2),
        "findings_identical_across_modes": True,
    }


#: A prior-PR speedup below this ratio is called out as a regression in
#: the recorded JSON and on stderr.
REGRESSION_FLOOR = 0.95

#: Scheduler indirection above this fraction of the direct-loop wall time
#: is called out as a regression.
SCHEDULER_OVERHEAD_CEILING = 0.05


def _flag_regressions(record: dict) -> list[str]:
    """Collect ``speedup_vs_*`` entries below :data:`REGRESSION_FLOOR`."""
    flagged = []
    for sweep in record.get("sweeps", []):
        for key, per_mode in sweep.items():
            if not key.startswith("speedup_vs_") or not isinstance(per_mode, dict):
                continue
            for mode, ratio in per_mode.items():
                if ratio < REGRESSION_FLOOR:
                    flagged.append(
                        f"routers={sweep['routers']} {mode}: {key} = {ratio} "
                        f"(< {REGRESSION_FLOOR})"
                    )
    overhead = record.get("scheduler_overhead", {}).get("overhead_fraction")
    if overhead is not None and overhead > SCHEDULER_OVERHEAD_CEILING:
        flagged.append(
            f"scheduler overhead_fraction = {overhead} "
            f"(> {SCHEDULER_OVERHEAD_CEILING})"
        )
    return flagged


def perf_baseline(json_path: str, sizes=(25, 50), rounds: int = 5) -> dict:
    """Measure the fullmesh safety sweeps and write a JSON trajectory record.

    For each network size the sweep runs ``rounds`` times serially (shared
    sessions) and once per extra backend (best-of-5 since PR 9 — the
    recording host's VM timing jitter swings single runs by 10-30%, and
    three rounds were not reliably finding the quiet-window minimum);
    best-of wall times are compared
    against :data:`SEED_BASELINE_WALL_S` and any earlier ``BENCH_PR*.json``
    records next to ``json_path``.  Term-construction cache counters and a
    reverify micro-benchmark ride along.
    """
    jobs = os.cpu_count() or 1
    record: dict = {
        "benchmark": "fullmesh no-transit safety sweep (Fig. 3d configuration)",
        "recorded_by": "benchmarks/collect_results.py --json",
        "cpu_count": jobs,
        "rounds": rounds,
        "sweeps": [],
    }
    prior = _prior_baselines(json_path)
    modes = [("serial", None, "auto")]
    if jobs > 1:
        # Only claim a process-backend measurement when one can actually
        # run; with a single core run_checks takes the serial path and the
        # number would misrepresent the backend.  (On restricted hosts the
        # pool may still silently fall back to serial — then the two modes
        # simply time the same path.)
        modes.append((f"process_jobs{jobs}", jobs, "process"))
    else:
        record["note"] = (
            "single-CPU host: process backend omitted (it would resolve to "
            "the serial path); re-record on multi-core hardware for scaling"
        )
    for n in sizes:
        timings: dict[str, float] = {}
        caches: dict[str, dict] = {}
        for mode, parallel, backend in modes:
            best = None
            for __ in range(rounds):
                # Reset per round: each sweep is a cold-cache measurement,
                # comparable to the (cache-less) seed and PR 1 baselines,
                # and the recorded counters describe exactly one sweep.
                reset_transfer_cache()
                config, ghost, prop, invariants = fullmesh_problem(n)
                start = time.perf_counter()
                report = verify_safety(
                    config,
                    prop,
                    invariants,
                    ghosts=(ghost,),
                    parallel=parallel,
                    backend=backend,
                )
                elapsed = time.perf_counter() - start
                assert report.passed
                best = elapsed if best is None else min(best, elapsed)
            timings[mode] = round(best, 4)
            transfer = transfer_cache_stats()
            predicates = predicate_term_cache_stats()
            caches[mode] = {
                "transfer": {
                    "hits": transfer.hits,
                    "misses": transfer.misses,
                    "hit_rate": round(transfer.hit_rate, 4),
                },
                "predicate_terms": {
                    "hits": predicates.hits,
                    "misses": predicates.misses,
                    "hit_rate": round(predicates.hit_rate, 4),
                },
            }
        seed_wall = SEED_BASELINE_WALL_S.get(n)
        entry = {
            "routers": n,
            "num_checks": report.num_checks,
            "wall_time_s": timings,
            "seed_wall_time_s": seed_wall,
            "term_cache": caches,
        }
        if seed_wall is not None:
            entry["speedup_vs_seed"] = {
                mode: round(seed_wall / wall, 2) for mode, wall in timings.items()
            }
        for label, walls in sorted(prior.get(n, {}).items()):
            serial_wall = walls.get("serial")
            if serial_wall is None:
                continue
            entry[f"speedup_vs_{label}"] = {
                mode: round(serial_wall / t, 2) for mode, t in timings.items()
            }
        # The regression-proof comparison: per mode, the fastest any
        # prior record ever ran this size.  Flagging keys off this entry,
        # so one slow predecessor cannot mask a real slowdown.
        best_prior: dict[str, tuple[str, float]] = {}
        for label, walls in prior.get(n, {}).items():
            for mode, wall in walls.items():
                if mode not in best_prior or wall < best_prior[mode][1]:
                    best_prior[mode] = (label, wall)
        comparable = {
            mode: best_prior[mode] for mode in timings if mode in best_prior
        }
        if comparable:
            entry["best_prior"] = {
                mode: {"record": label, "wall_time_s": wall}
                for mode, (label, wall) in sorted(comparable.items())
            }
            entry["speedup_vs_best"] = {
                mode: round(wall / timings[mode], 2)
                for mode, (__, wall) in sorted(comparable.items())
            }
        record["sweeps"].append(entry)
    record["reverify"] = reverify_microbench()
    record["liveness"] = liveness_microbench()
    record["liveness_reverify"] = liveness_reverify_microbench()
    record["workspace_cache"] = workspace_warm_start()
    record["scheduler_overhead"] = scheduler_overhead_microbench()
    record["liveness_pipelining"] = liveness_pipelining_microbench()
    record["lint"] = lint_walltime_microbench()
    regressions = _flag_regressions(record)
    if regressions:
        record["regressions"] = regressions
        for line in regressions:
            print(f"WARNING: perf regression vs. prior PR: {line}", file=sys.stderr)
    Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="record the verification-throughput baseline as JSON "
        "instead of printing the EXPERIMENTS.md tables",
    )
    args = parser.parse_args()
    if args.json:
        record = perf_baseline(args.json)
        print(json.dumps(record, indent=2))
        return
    print("# Measured results (regenerate with benchmarks/collect_results.py)")
    fig3a()
    fig3c()
    fig3b_3d()
    table4()


if __name__ == "__main__":
    main()
