"""One measured verification in a fresh interpreter (fullmesh-nt100, wan-t4-jobs2).

Usage::

    python3 lybench/verifyproc.py CONFIG SPEC OUT --backend serial|process --jobs N
        [--interference FILE] [--trace SPANS]

Reads only the generated files, drives the public :class:`Workspace`
surface, and writes its timings and per-property verdicts to ``OUT`` as
JSON.  ``setup_s`` runs from the top of this script (before ``repro`` is
imported) to a constructed workspace; ``verdict_s`` from the first
``verify`` to the last formatted report, worker-pool start included.

``--interference`` names a sidecar mapping each liveness property to the
interference invariants of its path routers; the spec format has no
field for them.  With ``--trace`` the benchmark's tracer is installed
first, and its spans and counters are written to ``SPANS`` at the end.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402


def _verdict(name: str, report) -> dict:
    degradation = report.degradation
    return {
        "name": name,
        "passed": report.passed,
        "failures": len(report.failures),
        "unknowns": len(report.unknowns),
        "degraded": bool(degradation is not None and degradation.degraded()),
        "blamed": sorted({str(f.blamed_router) for f in report.failures}),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--backend", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--interference")
    parser.add_argument("--trace")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=Path(args.trace).stem)
        tracer.install()

    # Imported after the tracer so these names bind to the traced wrappers.
    from repro.bgp.configjson import config_from_json
    from repro.core.properties import InvariantMap
    from repro.core.report import format_report
    from repro.core.workspace import Workspace
    from repro.lang.specjson import location_from_str, predicate_from_json, spec_from_json

    config = config_from_json(Path(args.config).read_text())
    spec = spec_from_json(Path(args.spec).read_text())
    ghosts = spec.build_ghosts(config.topology)
    problems = [
        (s.property, s.build_invariants(config.topology), None) for s in spec.safety
    ]
    sidecar = json.loads(Path(args.interference).read_text()) if args.interference else {}
    for prop in spec.liveness:
        doc = sidecar[prop.name]
        inv = InvariantMap(config.topology, default=predicate_from_json(doc["default"]))
        for location, pred in doc["overrides"].items():
            inv.set(location_from_str(location), predicate_from_json(pred))
        problems.append((prop, None, {router: inv for router in doc["routers"]}))
    workspace = Workspace(config, ghosts=ghosts, parallel=args.jobs, backend=args.backend)
    setup_s = time.perf_counter() - T0

    verdicts = []
    rendered_chars = 0  # rendering is part of the timed work, like the CLI's
    with workspace:
        start = time.perf_counter()
        for prop, invariants, interference in problems:
            report = workspace.verify(prop, invariants, interference_invariants=interference)
            rendered_chars += len(format_report(report))
            verdicts.append(_verdict(prop.name, report))
        verdict_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "report_chars": rendered_chars,
        "verdicts": verdicts,
    }
    Path(args.out).write_text(json.dumps(result))
    if tracer is not None:
        from counters import program_counters

        tracer.dump(Path(args.trace), program_counters(tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
