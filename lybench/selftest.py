"""The benchmark's own test: exact counters repeat, verdicts hold on a new seed.

Usage (from the root of a checkout; takes a few minutes)::

    python3 lybench/selftest.py

For each workload it makes two traced runs with :data:`SEED` and requires
every per-layer metric marked ``exact`` in ``metrics.json`` to be
identical between them, so those counters can be compared across commits
exactly.  A third traced run with :data:`OTHER_SEED` must agree with the
known-answer table too, which guards against inputs tuned to one seed.
It also checks that ``BENCHMARK.json`` and ``metrics.json`` name the same
metrics.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fullmesh-nt100", "wan-t4-jobs2", "wan-edit-cli")
SEED = 1
OTHER_SEED = 2


def traced_run(workload: str, seed: int) -> dict:
    """One ``run.py --trace 1`` at its minimum length; its result line.

    Exit 1 still carries a result (verdicts disagreed); the caller checks it.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise AssertionError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main() -> int:
    documented = json.loads((HERE / "metrics.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for kind in ("end_to_end", "per_layer"):
        if [m["name"] for m in declared[kind]] != [m["name"] for m in documented[kind]]:
            failures.append(f"BENCHMARK.json and metrics.json list different {kind} metrics")
    exact = [m["name"] for m in documented["per_layer"] if m["exact"]]

    for workload in WORKLOADS:
        first = traced_run(workload, SEED)
        second = traced_run(workload, SEED)
        for name in exact:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} differs between two runs of seed {SEED}: {a} vs {b}")
        other = traced_run(workload, OTHER_SEED)
        for label, result in (("first", first), ("second", second), ("other-seed", other)):
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: {label} run disagrees with the known answers")
        counts = {name: first["metrics"][name]["value"] for name in exact}
        print(f"{workload}: {json.dumps(counts)}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
