"""The repository benchmark: three known-answer workloads, timed end to end.

Usage (from the root of a checkout)::

    python3 lybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in ``BENCHMARK.json``; what
every metric is measured from, and which per-layer metric should move
which end-to-end metric on which workload, in ``metrics.json``):

* ``fullmesh-nt100`` - Fig. 3d no-transit on a 100-router full mesh, one
  cold ``Workspace.verify`` on the serial backend per fresh interpreter.
* ``wan-t4-jobs2`` - the Table-4 families (4a, 4b, 4c) on WAN 10x8x3 in one
  ``Workspace`` with two worker processes, three planted bugs.
* ``wan-edit-cli`` - ``lightyear verify --cache`` on a clean WAN 6x5x3, then
  a closed loop (one client, next request after the previous exits) of
  fresh-process ``lightyear reverify --cache`` invocations, one seeded
  single-router edit each, in whole passes over the 16 edits.

The seed only shapes the generated inputs (:mod:`inputs`); every verdict
is checked against the hand-derived table in :mod:`answers`.  Every
measured program run is a fresh interpreter with ``src`` on its path,
``REPRO_BACKEND``/``REPRO_FAULTS`` removed, and bytecode cached under
``.lybench/pycache`` (warmed before timing).  Times are scaled to a
reference host speed measured while each child runs (:class:`SpeedProbe`),
so that the shared host's drift does not read as a change in the program.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a separate traced
run (:mod:`tracer`), whose invocations alternate with untraced ones so
that ``trace.overhead_share`` compares like with like.  The line before
it is a JSON record of the run: seed, Python version, CPU count, sample
counts, raw times, speed factors and any verdict mismatches.  The command
exits 1 when a verdict disagrees with the known answers, 2 when it cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".lybench"
PYCACHE = WORK / "pycache"

WORKLOADS = ("fullmesh-nt100", "wan-t4-jobs2", "wan-edit-cli")
# Fewest measured units per untraced run, whatever --seconds says: verify
# invocations, or for wan-edit-cli whole passes over every seeded edit
# (three passes of 16 leave twelve samples beyond the 75th percentile).
MIN_UNITS = {"fullmesh-nt100": 5, "wan-t4-jobs2": 2, "wan-edit-cli": 3}
# Traced runs alternate untraced and traced units; at least this many pairs.
MIN_TRACED_PAIRS = {"fullmesh-nt100": 2, "wan-t4-jobs2": 1, "wan-edit-cli": 1}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
FLOOR_SAMPLES = 5
# Host-speed probe (see SpeedProbe): a fixed pure-Python loop that fills a
# dict with small objects, timed every PROBE_PERIOD_S while a measured
# child runs.  REFERENCE_PROBE_S is about its median on the host the
# benchmark was defined on (2-vCPU VM, Python 3.11.7); reported times are
# scaled to that speed.  The children of these workloads run one process
# each; they and the probe share one pinned CPU, so the probe measures the
# CPU the child runs on.  wan-t4-jobs2 uses every CPU, and so does its probe.
SINGLE_CPU_WORKLOADS = ("fullmesh-nt100", "wan-edit-cli")
PROBE_LOOPS = 6000
PROBE_PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.002


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, child crashed)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment of every measured process: pinned, not inherited.

    The backend is fixed per workload on the command line, so the CI
    ``REPRO_BACKEND`` axis and fault-injection plans must not leak in.
    Bytecode is written to and read from the benchmark's own cache, which
    separates real import cost from recompilation under
    ``PYTHONDONTWRITEBYTECODE``.
    """
    env = dict(os.environ)
    for key in ("REPRO_BACKEND", "REPRO_FAULTS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


ENV = child_env()


class SpeedProbe:
    """How fast this host runs Python right now, sampled in the background.

    The host's speed drifts by tens of percent over seconds and minutes
    (other tenants share its cores), and the measured programs slow down
    with it: their times are about proportional to the time of a fixed
    interpreter loop run at the same moment.  The loop allocates small
    objects, as the measured programs do; on this host it tracked their
    slow phases better than pure arithmetic, which the allocator and
    memory hierarchy barely touch.  While active, a daemon thread runs
    that loop every :data:`PROBE_PERIOD_S` (a few percent of one CPU) and
    records its thread CPU time, which waiting for a CPU the measured
    processes hold does not count.  :meth:`scale` turns the
    samples taken while one child ran into the factor that maps the
    child's times to the reference speed.  The loop uses nothing from the
    program under test.
    """

    def __init__(self, cpus: set[int]) -> None:
        self.cpus = cpus
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, self.cpus)  # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            table = {}
            for i in range(PROBE_LOOPS):
                table[str(i)] = [i]
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the median probe time in [start, end].

        A child shorter than three probe periods uses the three samples
        nearest its midpoint instead; with no samples (probe inactive)
        times stay as measured.
        """
        samples = list(self.samples)
        inside = [dt for t, dt in samples if start <= t <= end]
        if len(inside) < 3:
            mid = (start + end) / 2
            inside = [dt for __, dt in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
        return REFERENCE_PROBE_S / statistics.median(inside) if inside else 1.0


PROBE = SpeedProbe(os.sched_getaffinity(0))


@dataclass
class Spawned:
    """One finished child: spawn-to-exit seconds, exit code, peak RSS, output.

    ``scale`` maps this child's times to the reference host speed
    (:class:`SpeedProbe`); ``seconds`` itself is as measured.
    """

    seconds: float
    code: int
    rss_kb: int
    stdout: str
    stderr: str
    scale: float

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def spawn(argv: list[str], rundir: Path) -> Spawned:
    """Run one child to completion, timing it from spawn to exit.

    ``os.wait4`` returns the child's peak RSS including every descendant
    it waited for, so worker processes count toward it.  A child that
    outlives :data:`CHILD_TIMEOUT_S` is killed and reported by its code.
    """
    out_path = rundir / "child.out"
    err_path = rundir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out, stderr=err)
        try:
            os.sched_setaffinity(proc.pid, PROBE.cpus)
        except ProcessLookupError:  # already gone; its exit code tells why
            pass
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Spawned(
        end - start, code, usage.ru_maxrss, out_path.read_text(), err_path.read_text()[-1000:],
        PROBE.scale(start, end),
    )


def warm_bytecode() -> None:
    """Compile ``src`` and the benchmark into the pinned bytecode cache and
    import the modules the measured runs use, so no timed run compiles."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        cwd=ROOT, env=ENV, check=True, stdout=subprocess.DEVNULL,
    )
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import argparse, json, concurrent.futures.process, multiprocessing.queues, "
            "multiprocessing.synchronize, multiprocessing.popen_fork, repro.cli, "
            "repro.core.exec.pool, repro.core.liveness, repro.bgp.configdiff, "
            "tracer, counters",
        ],
        cwd=HERE, env=ENV, check=True,
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def floor_metrics(rundir: Path) -> dict[str, float]:
    """Bare interpreter start and ``import repro.cli``, each in a fresh process."""
    interp = [spawn([sys.executable, "-c", "pass"], rundir).seconds for __ in range(FLOOR_SAMPLES)]
    probe = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = [
        float(spawn([sys.executable, "-c", probe], rundir).stdout)
        for __ in range(FLOOR_SAMPLES)
    ]
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def src_loc() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def layer_metrics(trace_path: Path) -> dict[str, float]:
    """Per-layer values from one traced process's spans and counters."""
    from tracer import layer_times

    doc = json.loads(trace_path.read_text())
    self_time, wall, count = layer_times(doc["spans"])
    values = dict(doc["counters"])
    for name in ("core.checkgen", "lang.transfer", "lang.predicate", "core.check_run", "exec.scheduler"):
        values[f"{name}_s"] = self_time.get(name, 0.0)
    for name in ("bgp.parse", "lang.spec", "bgp.diff", "lang.universe", "exec.pool_run",
                 "core.cache_load", "core.cache_save", "core.report"):
        values[f"{name}_s"] = wall.get(name, 0.0)
    values["core.reverify_s"] = wall.get("core.apply", 0.0) + wall.get("core.reverify", 0.0)
    calls = count.get("smt.check", 0)
    values["smt.sat_calls"] = calls
    values["smt.models"] = count.get("smt.model", 0)
    values["smt.useful_query_ratio"] = values["smt.distinct_queries"] / calls if calls else 0.0
    return values


def median_layers(samples: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over traced processes; counts stay whole numbers."""
    medians = {}
    for key in samples[0]:
        values = [sample[key] for sample in samples]
        if all(isinstance(value, int) for value in values):
            medians[key] = statistics.median_low(values)
        else:
            medians[key] = statistics.median(values)
    return medians


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, ops: int, problems: list[str], failed: int | None = None) -> None:
        """``ops`` operations ran; by default each problem line is one failed op."""
        self.attempted += ops
        self.failed += min(ops, len(problems) if failed is None else failed)
        self.problems.extend(f"{label}: {p}" for p in problems[:5])


def _keep_going(started: float, count: int, minimum: int, seconds: float) -> bool:
    """Start another unit while it fits in the budget (or below the minimum)."""
    if count < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / count <= seconds


def run_verify_workload(workload: str, seed: int, seconds: float, trace: bool, rundir: Path, tally: Tally):
    """fullmesh-nt100 / wan-t4-jobs2: one fresh-process verify per invocation."""
    import answers
    import inputs

    if workload == "fullmesh-nt100":
        made = inputs.make_fullmesh(seed, rundir)
        expected = answers.fullmesh_expected(made.bugs)
        backend = ["--backend", "serial", "--jobs", "1"]
    else:
        made = inputs.make_wan_t4(seed, rundir)
        expected = answers.wan_t4_expected(made.bugs, made.facts)
        backend = ["--backend", "process", "--jobs", "2", "--interference", str(made.interference)]
    out = rundir / "verdicts.json"

    def invoke(traced_index: int | None) -> tuple[Spawned, dict] | None:
        argv = [sys.executable, str(HERE / "verifyproc.py"), str(made.config), str(made.spec), str(out), *backend]
        if traced_index is not None:
            argv += ["--trace", str(rundir / f"trace-{traced_index}.json")]
        out.unlink(missing_ok=True)
        child = spawn(argv, rundir)
        label = "traced invocation" if traced_index is not None else "invocation"
        if child.code != 0 or not out.exists():
            problem = f"verify process exited {child.code}: {child.stderr}"
            tally.record(label, len(expected), [problem], failed=len(expected))
            return None
        result = json.loads(out.read_text())
        tally.record(label, len(expected), answers.mismatches(expected, result["verdicts"]))
        return child, result

    runs: list[tuple[Spawned, dict]] = []
    traced_runs: list[tuple[Spawned, dict]] = []
    started = time.perf_counter()
    minimum = MIN_TRACED_PAIRS[workload] if trace else MIN_UNITS[workload]
    attempts = 0
    while _keep_going(started, attempts, minimum, seconds):
        attempts += 1
        runs.append(invoke(None))
        if trace:
            traced_runs.append(invoke(len(traced_runs)))
    runs = [r for r in runs if r is not None]
    traced_runs = [r for r in traced_runs if r is not None]
    if not runs or (trace and not traced_runs):
        raise BenchError(f"no invocation succeeded: {tally.problems[-1:]}")
    record = {
        "invocations": len(runs),
        "traced_invocations": len(traced_runs),
        "verdict_s": [round(r["verdict_s"], 4) for __, r in runs],
        "spawn_s": [round(child.seconds, 4) for child, __ in runs],
        "scale": [round(child.scale, 4) for child, __ in runs],
    }
    if not trace:
        spawned = [child.scaled for child, __ in runs]
        return {
            "setup_s": statistics.median(r["setup_s"] * child.scale for child, r in runs),
            "verdict_s": statistics.median(r["verdict_s"] * child.scale for child, r in runs),
            "edit_p50_s": statistics.median(spawned),
            "edit_p75_s": p75(spawned),
            "peak_rss_mb": max(child.rss_kb for child, __ in runs) / 1024,
        }, record
    layers = median_layers(
        [layer_metrics(path) for path in sorted(rundir.glob("trace-*.json"))]
    )
    layers["core.cache_bytes"] = 0  # these workloads keep no on-disk cache
    untraced = statistics.median(r["verdict_s"] * child.scale for child, r in runs)
    traced = statistics.median(r["verdict_s"] * child.scale for child, r in traced_runs)
    layers["trace.overhead_share"] = traced / untraced - 1
    return layers, record


def run_edit_workload(seed: int, seconds: float, trace: bool, rundir: Path, tally: Tally):
    """wan-edit-cli: ``verify --cache`` set-up, then a closed reverify loop."""
    import answers
    import inputs

    made = inputs.make_wan_edit(seed, rundir)
    clean = answers.clean_expected(made.facts)
    timing = rundir / "timing.json"

    def cli(argv: list[str], expected: dict, label: str, trace_path: Path | None = None):
        own = [str(timing)] + (["--trace", str(trace_path)] if trace_path else [])
        timing.unlink(missing_ok=True)
        child = spawn([sys.executable, str(HERE / "cliboot.py"), *own, "--", *argv], rundir)
        problems = answers.mismatches(expected, answers.parse_cli_verdicts(child.stdout))
        if child.code != answers.expected_exit(expected):
            problems.append(
                f"exit {child.code}, expected {answers.expected_exit(expected)}: {child.stderr}"
            )
        tally.record(label, 1, problems)
        if not timing.exists():
            raise BenchError(f"{label} exited {child.code}: {child.stderr}")
        return child, json.loads(timing.read_text())

    def setup(index: int, trace_path: Path | None = None):
        cache = rundir / f"cache-{index}"
        shutil.rmtree(cache, ignore_errors=True)
        argv = ["verify", "--cache", str(cache), str(made.config), str(made.spec)]
        return cli(argv, clean, f"setup {index}", trace_path), cache

    def reverify(index: int, cache: Path, trace_path: Path | None = None):
        path, kind, router, knob = made.edits[index % len(made.edits)]
        expected = answers.edit_expected(kind, router, knob, made.facts)
        argv = ["reverify", "--cache", str(cache), str(made.config), str(path), str(made.spec)]
        return cli(argv, expected, f"edit {index} ({kind} {router})", trace_path)

    if not trace:
        started = time.perf_counter()
        setups = [setup(i)[0] for i in range(SETUP_REPEATS)]
        cache = rundir / f"cache-{SETUP_REPEATS - 1}"
        budget = seconds - (time.perf_counter() - started)
        edits = []
        passes = 0
        started = time.perf_counter()
        # Whole passes only, so every run weighs the 16 edits equally.
        while _keep_going(started, passes, MIN_UNITS["wan-edit-cli"], budget):
            edits += [reverify(i, cache) for i in range(len(made.edits))]
            passes += 1
        spawned = [child.scaled for child, __ in edits]
        children = [child for child, __ in setups] + [child for child, __ in edits]
        return {
            "setup_s": statistics.median(child.scaled for child, __ in setups),
            "verdict_s": statistics.median(t["main_s"] * child.scale for child, t in edits),
            "edit_p50_s": statistics.median(spawned),
            "edit_p75_s": p75(spawned),
            "peak_rss_mb": max(child.rss_kb for child in children) / 1024,
        }, {
            "setups": len(setups),
            "passes": passes,
            "invocations": len(edits),
            "setup_s": [round(child.seconds, 4) for child, __ in setups],
            "spawn_s": [round(child.seconds, 4) for child, __ in edits],
            "scale": [round(child.scale, 4) for child in children],
        }

    save_trace = rundir / "trace-setup.json"
    __, cache = setup(0, save_trace)
    saved = layer_metrics(save_trace)
    untraced: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    passes = 0
    started = time.perf_counter()
    while _keep_going(started, passes, MIN_TRACED_PAIRS["wan-edit-cli"], seconds):
        for i in range(len(made.edits)):
            untraced.append(reverify(i, cache)[0].scaled)
            trace_path = rundir / f"trace-{passes}-{i}.json"
            traced.append(reverify(i, cache, trace_path)[0].scaled)
            samples.append(layer_metrics(trace_path))
        passes += 1
    layers = median_layers(samples)
    layers["core.cache_save_s"] = saved["core.cache_save_s"]
    layers["core.cache_bytes"] = (cache / "workspace.lyc").stat().st_size
    layers["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    return layers, {"passes": passes, "invocations": len(untraced) + len(traced)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_units()

    # The parent generates inputs with the same sources and bytecode cache.
    sys.path[:0] = [str(SRC)]
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    rundir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    tally = Tally()
    try:
        warm_bytecode()
        trace = bool(args.trace)
        if args.workload in SINGLE_CPU_WORKLOADS:
            PROBE.cpus = {max(PROBE.cpus)}
        with PROBE:
            if args.workload == "wan-edit-cli":
                values, record = run_edit_workload(args.seed, args.seconds, trace, rundir, tally)
            else:
                values, record = run_verify_workload(
                    args.workload, args.seed, args.seconds, trace, rundir, tally
                )
        if trace:
            values.update(floor_metrics(rundir))
            values["src_loc"] = src_loc()
        units = layer_units if trace else e2e_units
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        mismatches=tally.problems,
    )
    print(json.dumps({"record": record}))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
