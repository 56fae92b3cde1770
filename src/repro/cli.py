"""The ``lightyear`` command-line interface.

Subcommands:

* ``lightyear parse CONFIG``
  Parse a configuration (text dialect or ``.json``) and print a topology
  summary; ``--dump-json`` re-emits the normalised JSON form.

* ``lightyear verify CONFIG SPEC``
  Run every safety and liveness problem in a JSON spec file (see
  :mod:`repro.lang.specjson`) against the configuration.  Exits non-zero
  if any property fails, printing localised counterexamples.
  ``--jobs N`` (or ``--jobs auto``) discharges independent local checks on
  ``N`` worker processes, one chunk per router — the paper's per-device
  deployment model; ``--jobs 1`` forces the serial path.
  ``--cache DIR`` persists the workspace's outcome cache: a second
  ``verify`` against the same configuration and spec loads it and re-runs
  nothing.

* ``lightyear diff OLD NEW``
  Structurally compare two configurations and report which routers
  changed — the input to incremental re-verification.

* ``lightyear lint [PATHS]``
  Run the repo's own static-analysis pass (:mod:`repro.analysis`): four
  checkers enforcing the verifier's soundness invariants — digest
  coverage, pickle safety, deadline discipline, cache-format discipline
  — with per-file caching, inline suppressions, and a committed
  baseline ratchet.  Exits non-zero on any fresh finding.

* ``lightyear reverify BASE EDITED SPEC``
  The incremental pipeline end to end: verify every property in the spec
  against ``BASE``, then re-verify against ``EDITED`` reusing everything
  the edit did not invalidate — per-owner check groups, solver sessions,
  the attribute universe, and (with ``--jobs``) worker processes.  Prints
  the structural diff and, per property, how many checks the re-run
  consulted versus reused.  Exits non-zero if the edited configuration
  fails a property.  With ``--cache DIR`` the base run's outcomes are
  persisted across *process* invocations: the first call verifies BASE
  and saves, later calls load the cache, skip the base run entirely, and
  consult only the edited owners' checks.  A cache saved for a different
  configuration, ghost set, or spec is rejected with a non-zero exit.

Exit codes (``verify``/``reverify``): 0 every property proved; 1 a
property has a counterexample; 2 usage, configuration, or cache errors;
3 nothing failed outright but some checks are UNKNOWN (``--budget``,
``--deadline``, ``--wall-budget``) or execution degraded (worker
crashes, serial fallbacks) — see the README's "Failure modes &
degradation" section.  ``lint`` exits 0 clean, 1 on fresh findings (or
resolved baseline entries pending a ratchet), 2 on usage errors.

Every subcommand executes through the unified runtime in
:mod:`repro.core.exec`: the workspace's trackers build staged
``CheckPlan``\\ s and one ``Scheduler`` dispatches them on the selected
backend.  The ``REPRO_BACKEND`` environment variable overrides backend
selection for ``auto`` runs with no explicit worker pool (CI uses
``REPRO_BACKEND=serial`` to run the suite without worker processes).

Example::

    lightyear verify network.cfg properties.json --jobs auto --verbose
    lightyear reverify network.cfg edited.cfg properties.json --deadline 5 --wall-budget 300
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import parse_config
from repro.core.report import format_report
from repro.core.workspace import Workspace, WorkspaceCacheMismatch
from repro.lang.specjson import spec_from_json

CACHE_FILENAME = "workspace.lyc"

# Exit codes: 0 every property proved cleanly; 1 a property has a real
# counterexample; 2 usage/config/cache errors; EXIT_DEGRADED when nothing
# failed outright but the answer is weaker than asked — some checks came
# back UNKNOWN (budget, deadline, wall budget) or execution degraded
# (worker deaths, serial fallbacks).  Scripts must not read a degraded
# run as a clean pass.
EXIT_DEGRADED = 3


def _load_config(path: str):
    """Load a configuration: JSON file, dialect file, or a directory.

    A directory is treated the way production repositories are laid out —
    one dialect file per device (plus shared route-map files); the pieces
    are concatenated (sorted by name) and parsed as one network.
    """
    target = Path(path)
    if target.is_dir():
        pieces = sorted(
            p for p in target.iterdir() if p.suffix in (".cfg", ".txt", ".conf")
        )
        if not pieces:
            raise ValueError(f"{path}: no .cfg/.txt/.conf files in directory")
        return parse_config("\n".join(p.read_text() for p in pieces))
    text = target.read_text()
    if target.suffix == ".json":
        return config_from_json(text)
    return parse_config(text)


def _cmd_parse(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    problems = config.validate()
    topo = config.topology
    print(
        f"{args.config}: {len(topo.routers)} routers, "
        f"{len(topo.externals)} external neighbors, {len(topo.edges)} directed edges"
    )
    for name in sorted(topo.routers):
        rc = config.routers[name]
        print(f"  router {name} (AS {rc.asn}): {len(rc.neighbors)} sessions")
    if problems:
        print("problems:")
        for p in problems:
            print(f"  ! {p}")
        return 1
    if args.dump_json:
        print(config_to_json(config))
    return 0


def _parse_jobs(value: str) -> int | str:
    """``--jobs`` argument: a positive integer or the word ``auto``."""
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _parse_seconds(value: str) -> float:
    """``--deadline``/``--wall-budget`` argument: a positive number of seconds."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {value!r}"
        ) from None
    if not math.isfinite(seconds) or seconds <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive, finite duration, got {value}"
        )
    return seconds


def _resolve_backend(args: argparse.Namespace) -> tuple[int | str | None, str]:
    """Map the --jobs flag to (parallel, backend).

    Without it, the backend stays ``"auto"`` and the execution
    context applies the ``REPRO_BACKEND`` environment override (if any)
    at dispatch time — see :meth:`repro.core.exec.ExecutionContext.
    resolved_backend`.
    """
    if args.jobs is not None:
        return args.jobs, "process"
    return None, "auto"


def _spec_problems(spec, topology) -> list[tuple]:
    """The spec's problems as (prop, invariants, interference) triples."""
    problems: list[tuple] = []
    for sspec in spec.safety:
        problems.append((sspec.property, sspec.build_invariants(topology), None))
    for prop in spec.liveness:
        problems.append((prop, None, None))
    return problems


def _cache_file(cache_dir: str | None) -> Path | None:
    return None if cache_dir is None else Path(cache_dir) / CACHE_FILENAME


def _open_workspace(
    cache_path: Path | None,
    config,
    ghosts,
    parallel,
    backend,
    problems,
    budget,
    deadline_s=None,
) -> tuple[Workspace, bool]:
    """A workspace for ``config``: loaded from the cache when one exists.

    A loadable cache must cover exactly this spec (same properties,
    invariants, and budget) — a stale or foreign cache raises
    :class:`WorkspaceCacheMismatch` rather than silently answering for
    the wrong problem.  ``deadline_s`` is an execution parameter, not
    part of the cache identity.
    """
    if cache_path is None or not cache_path.exists():
        workspace = Workspace(
            config,
            ghosts=ghosts,
            parallel=parallel,
            backend=backend,
            deadline_s=deadline_s,
        )
        return workspace, False
    workspace = Workspace.load(
        cache_path,
        config=config,
        ghosts=ghosts,
        parallel=parallel,
        backend=backend,
        deadline_s=deadline_s,
    )
    for prop, invariants, interference in problems:
        if not workspace.has_entry(
            prop,
            invariants,
            interference_invariants=interference,
            conflict_budget=budget,
        ):
            raise WorkspaceCacheMismatch(
                f"workspace cache at {cache_path} does not cover this spec "
                f"(no cached outcomes for {prop}); delete the cache or rerun "
                f"without --cache"
            )
    return workspace, True


def _reports_exit_code(reports) -> int:
    """Map a run's reports to the exit-code contract in the module header.

    A real counterexample dominates (1); otherwise any UNKNOWN outcome or
    degraded execution demotes a "pass" to :data:`EXIT_DEGRADED`.
    """
    if any(report.failures for report in reports):
        return 1
    for report in reports:
        degradation = getattr(report, "degradation", None)
        if report.unknowns or (degradation is not None and degradation.degraded()):
            return EXIT_DEGRADED
    return 0


def _consulted_line(result, label: str = "reverify") -> str:
    total = result.rerun_checks + result.cached_checks
    return (
        f"  {label}: consulted {result.checks_consulted} of {total} checks "
        f"({result.rerun_checks} re-run, {result.cached_checks} reused)"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = spec_from_json(Path(args.spec).read_text())
    ghosts = spec.build_ghosts(config.topology)
    # With --jobs: the process backend, real cores chunked per owner router.
    parallel, backend = _resolve_backend(args)
    problems = _spec_problems(spec, config.topology)
    cache_path = _cache_file(args.cache)
    # The workspace keeps one session pool (and, with --jobs, one persistent
    # worker pool) alive across every property in the spec, so encodings
    # built for the first property are reused by all later ones; with
    # --cache the outcome store additionally persists across invocations.
    workspace, loaded = _open_workspace(
        cache_path,
        config,
        ghosts,
        parallel,
        backend,
        problems,
        args.budget,
        deadline_s=args.deadline,
    )
    if loaded:
        print(f"cache: loaded outcomes from {cache_path}")
    if args.wall_budget is not None:
        # One budget for the whole invocation: pin a single absolute
        # deadline so it spans every property, not each run separately.
        workspace.set_run_deadline(time.monotonic() + args.wall_budget)
    reports = []
    with workspace:
        for prop, invariants, interference in problems:
            report = workspace.verify(
                prop,
                invariants,
                interference_invariants=interference,
                conflict_budget=args.budget,
            )
            print(format_report(report, verbose=args.verbose))
            if loaded:
                entry = workspace.entry(
                    prop,
                    invariants,
                    interference_invariants=interference,
                    conflict_budget=args.budget,
                )
                print(_consulted_line(entry.last_result, "cache"))
            print()
            reports.append(report)
        if cache_path is not None and not loaded:
            workspace.save(cache_path)

    print(
        f"totals: {workspace.stats.num_checks} local checks, "
        f"largest {workspace.stats.max_vars} vars / {workspace.stats.max_clauses} "
        f"constraints, {workspace.stats.wall_time_s:.2f}s "
        f"({workspace.stats.solve_time_s:.2f}s solving)"
    )
    return _reports_exit_code(reports)


def _cmd_reverify(args: argparse.Namespace) -> int:
    from repro.bgp.configdiff import diff_configs

    base = _load_config(args.base)
    edited = _load_config(args.edited)
    problems_found = edited.validate()
    if problems_found:
        print(
            f"error: edited configuration is invalid: {'; '.join(problems_found)}",
            file=sys.stderr,
        )
        return 2
    spec = spec_from_json(Path(args.spec).read_text())
    ghosts = spec.build_ghosts(base.topology)
    diff = diff_configs(base, edited)
    print(f"config diff: {diff.summary()}")

    parallel, backend = _resolve_backend(args)
    problems = _spec_problems(spec, base.topology)
    cache_path = _cache_file(args.cache)
    # One workspace over the base config: the base run's per-owner sessions
    # (or, cache-loaded, its persisted outcomes) are what the reverify
    # re-solves against.
    workspace, loaded = _open_workspace(
        cache_path,
        base,
        ghosts,
        parallel,
        backend,
        problems,
        args.budget,
        deadline_s=args.deadline,
    )
    if args.wall_budget is not None:
        # The budget covers the whole invocation (base run + reverify).
        workspace.set_run_deadline(time.monotonic() + args.wall_budget)
    reports = []
    with workspace:
        if loaded:
            print(f"cache: loaded base outcomes from {cache_path} (base run skipped)")
        else:
            for prop, invariants, interference in problems:
                report = workspace.verify(
                    prop,
                    invariants,
                    interference_invariants=interference,
                    conflict_budget=args.budget,
                )
                if args.verbose:
                    print(f"base: {report.summary()}")
            if cache_path is not None:
                # Persist the *base* outcomes: later invocations (each a
                # fresh process) load them and skip the base run — the
                # daemonless amortization the cache exists for.
                workspace.save(cache_path)

        # Only the spec's entries: a loaded cache may hold more properties
        # than this invocation asked about, and those must not leak into
        # the output or the exit code.
        selected = [
            workspace.entry(
                prop,
                invariants,
                interference_invariants=interference,
                conflict_budget=args.budget,
            )
            for prop, invariants, interference in problems
        ]
        workspace.apply(edited)
        for entry in workspace.reverify(selected):
            result = entry.last_result
            print(format_report(result.report, verbose=args.verbose))
            print(_consulted_line(result))
            print()
            reports.append(result.report)
    return _reports_exit_code(reports)


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.bgp.configdiff import diff_configs

    old = _load_config(args.old)
    new = _load_config(args.new)
    diff = diff_configs(old, new)
    print(diff.summary())
    for router in diff.changed_routers:
        for change in diff.details[router]:
            print(f"  {router}: {change}")
    return 0 if diff.is_empty else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightyear",
        description="Modular BGP control-plane verification (SIGCOMM 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and validate a configuration")
    p_parse.add_argument("config", help="configuration file (.txt dialect or .json)")
    p_parse.add_argument(
        "--dump-json", action="store_true", help="print the normalised JSON form"
    )
    p_parse.set_defaults(func=_cmd_parse)

    p_verify = sub.add_parser("verify", help="verify properties from a spec file")
    p_verify.add_argument("config", help="configuration file (.txt dialect or .json)")
    p_verify.add_argument("spec", help="JSON verification spec")
    p_verify.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=None,
        metavar="N",
        help="worker processes for checks: a count or 'auto' (= cpu count); "
        "1 forces the serial path",
    )
    p_verify.add_argument(
        "--budget", type=int, default=None, help="per-check SAT conflict budget"
    )
    p_verify.add_argument(
        "--deadline",
        type=_parse_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap per check; a check that exceeds it is reported "
        "UNKNOWN (deadline exceeded) instead of hanging the run",
    )
    p_verify.add_argument(
        "--wall-budget",
        type=_parse_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap for the whole invocation; once spent, remaining "
        "checks are reported UNKNOWN (wall budget exhausted) and the partial "
        "results are printed",
    )
    p_verify.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist the outcome cache in DIR; a later verify/reverify of "
        "the same config+spec loads it instead of re-verifying",
    )
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_diff = sub.add_parser("diff", help="compare two configurations")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.set_defaults(func=_cmd_diff)

    p_rev = sub.add_parser(
        "reverify",
        help="verify a base config, then incrementally re-verify an edit",
    )
    p_rev.add_argument("base", help="base configuration (.txt dialect or .json)")
    p_rev.add_argument("edited", help="edited configuration (same topology)")
    p_rev.add_argument("spec", help="JSON verification spec")
    p_rev.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=None,
        metavar="N",
        help="worker processes kept alive across the base run and the "
        "reverify: a count or 'auto' (= cpu count); 1 forces the serial path",
    )
    p_rev.add_argument(
        "--budget", type=int, default=None, help="per-check SAT conflict budget"
    )
    p_rev.add_argument(
        "--deadline",
        type=_parse_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap per check; a check that exceeds it is reported "
        "UNKNOWN (deadline exceeded) instead of hanging the run",
    )
    p_rev.add_argument(
        "--wall-budget",
        type=_parse_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap for the whole invocation (base run plus "
        "reverify); once spent, remaining checks are reported UNKNOWN",
    )
    p_rev.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist the BASE outcome cache in DIR; later invocations load "
        "it, skip the base run, and consult only the edited owners' checks",
    )
    p_rev.add_argument("--verbose", action="store_true")
    p_rev.set_defaults(func=_cmd_reverify)

    p_lint = sub.add_parser(
        "lint",
        help="run the static-analysis pass over the repo's own sources",
    )
    from repro.analysis.cli import add_lint_arguments, run_from_args

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=run_from_args)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
