"""Wall-clock deadline tests: hung checks, run budgets, and exit codes.

A verification run must never hang on one pathological check: with
``deadline_s`` a hung check comes back UNKNOWN with reason ``timeout``
inside the budget, and with a wall budget the run returns partial
results (remaining checks UNKNOWN with reason ``wall-budget``) instead
of running forever.  The hang is injected, so these tests are fast and
deterministic — no real runaway SAT search needed.
"""

from __future__ import annotations

import time

import pytest

from repro.bgp.topology import Edge
from repro.cli import EXIT_DEGRADED, main
from repro.core.checks import generate_safety_checks
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import build_universe, run_checks, verify_safety
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.smt.solver import Solver
from repro.smt.terms import BoolVar
from repro.testing import faults
from repro.testing.faults import FaultPlan
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh


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


# ---------------------------------------------------------------------------
# Solver-level deadlines
# ---------------------------------------------------------------------------


def test_solver_expired_deadline_returns_unknown_with_timeout_reason():
    solver = Solver()
    x = BoolVar("x")
    solver.add(x)
    result = solver.check(deadline_s=-1.0)
    assert result.name == "UNKNOWN"
    assert solver.stats.unknown_reason == "timeout"
    # The session is not poisoned: the same solver decides normally next.
    assert solver.check().name == "SAT"
    assert solver.stats.unknown_reason is None


# ---------------------------------------------------------------------------
# Hung checks under a per-check deadline
# ---------------------------------------------------------------------------


def test_hung_check_times_out_within_budget_and_rest_completes():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    victim = str(checks[0])
    faults.install(FaultPlan(hang_check_match=victim))

    start = time.monotonic()
    outcomes = run_checks(checks, config, universe, (ghost,), deadline_s=0.2)
    elapsed = time.monotonic() - start

    # The hung check came back UNKNOWN with the precise reason, well
    # inside its budget (the injected hang sleeps only to the deadline).
    assert elapsed < 5.0
    hung = outcomes[0]
    assert hung.unknown
    assert hung.unknown_reason == "timeout"
    # Every other check was unaffected.
    assert all(o.passed for o in outcomes[1:])


def test_verify_safety_deadline_produces_timeout_unknowns():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    faults.install(FaultPlan(hang_check_match="import check at R3"))
    report = verify_safety(config, prop, invariants, ghosts=(ghost,), deadline_s=0.2)
    assert not report.passed
    assert report.unknowns
    assert report.unknown_reason_counts.get("timeout", 0) >= 1
    assert not report.failures  # undecided, not refuted


# ---------------------------------------------------------------------------
# Wall budget: partial results, never a hang
# ---------------------------------------------------------------------------


def test_exhausted_wall_budget_returns_partial_results():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    # Delay every check slightly so a tiny budget expires mid-run.
    faults.install(FaultPlan(delay_check_s=0.05))
    report = verify_safety(
        config, prop, invariants, ghosts=(ghost,), wall_budget_s=0.12
    )
    reasons = report.unknown_reason_counts
    assert reasons.get("wall-budget", 0) >= 1
    # Partial, not empty: the checks that ran before expiry are decided.
    decided = [o for o in report.iter_outcomes() if not o.unknown]
    assert decided
    assert all(o.passed for o in decided)


def test_workspace_wall_budget_spans_a_run():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    ws = Workspace(config, ghosts=(ghost,), wall_budget_s=1e-6)
    with ws:
        report = ws.verify(prop, invariants)
    assert not report.passed
    assert set(report.unknown_reason_counts) == {"wall-budget"}


def test_workspace_pinned_run_deadline_wins_over_budget():
    config, ghost, prop, invariants = _fullmesh_problem(4)
    ws = Workspace(config, ghosts=(ghost,), wall_budget_s=1e-6)
    # An externally pinned (generous) deadline overrides the per-run
    # budget — the CLI uses this to span one budget over many properties.
    ws.set_run_deadline(time.monotonic() + 60.0)
    with ws:
        report = ws.verify(prop, invariants)
    assert report.passed


# ---------------------------------------------------------------------------
# CLI: flags parse, degraded runs exit EXIT_DEGRADED
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
external ISP1 as 100
external ISP2 as 200
router R1 as 65000
  neighbor ISP1 as 100
    import route-map ISP1-IN
  neighbor R2 as 65000
router R2 as 65000
  neighbor ISP2 as 200
    export route-map ISP2-OUT
  neighbor R1 as 65000
route-map ISP1-IN
  clause 10 permit
    add community 100:1
route-map ISP2-OUT
  clause 10 deny
    match community 100:1
  clause 20 permit
"""

SPEC_JSON = """{
  "ghosts": [{"name": "FromISP1", "kind": "source", "sources": ["ISP1->R1"]}],
  "safety": [{
    "name": "no-transit",
    "location": "R2->ISP2",
    "predicate": {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}},
    "invariants": {
      "default": {
        "kind": "implies",
        "antecedent": {"kind": "ghost", "name": "FromISP1"},
        "consequent": {"kind": "community", "community": "100:1"}
      },
      "overrides": {
        "R2->ISP2": {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}}
      }
    }
  }]
}"""


@pytest.fixture
def cli_inputs(tmp_path):
    config = tmp_path / "network.cfg"
    config.write_text(CONFIG_TEXT)
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_JSON)
    return str(config), str(spec)


def test_cli_passes_cleanly_with_generous_deadlines(cli_inputs):
    config, spec = cli_inputs
    assert main(
        ["verify", config, spec, "--deadline", "30", "--wall-budget", "300"]
    ) == 0


def test_cli_exhausted_wall_budget_exits_degraded(cli_inputs, capsys):
    config, spec = cli_inputs
    code = main(["verify", config, spec, "--wall-budget", "0.000001"])
    assert code == EXIT_DEGRADED
    out = capsys.readouterr().out
    assert "UNKNOWN (wall budget exhausted)" in out


def test_cli_hung_check_under_deadline_exits_degraded(cli_inputs, capsys):
    config, spec = cli_inputs
    faults.install(FaultPlan(hang_check_match="import check at R1"))
    start = time.monotonic()
    code = main(["verify", config, spec, "--deadline", "0.2"])
    assert time.monotonic() - start < 10.0
    assert code == EXIT_DEGRADED
    assert "UNKNOWN (deadline exceeded)" in capsys.readouterr().out


def test_cli_rejects_nonpositive_durations(cli_inputs):
    config, spec = cli_inputs
    with pytest.raises(SystemExit):
        main(["verify", config, spec, "--deadline", "0"])
    with pytest.raises(SystemExit):
        main(["verify", config, spec, "--wall-budget", "-5"])


@pytest.mark.parametrize("flag", ["--deadline", "--wall-budget"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_durations(cli_inputs, capsys, flag, value):
    # NaN compares False against everything, so a NaN budget used to be
    # accepted and never expire; reject it (and inf) at parse time.
    config, spec = cli_inputs
    with pytest.raises(SystemExit) as exc:
        main(["verify", config, spec, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a positive, finite duration, got {value}" in err
    assert "Traceback" not in err
