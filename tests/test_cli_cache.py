"""CLI tests for the on-disk workspace cache and the error paths (PR 5).

Pinned claims:

* ``lightyear reverify --cache DIR`` saves the base outcomes on first
  use, and a **fresh process** invocation loads them, skips the base run,
  and consults only the edited owner's checks (counters asserted from the
  CLI output);
* a cache whose config or spec fingerprint mismatches is rejected with a
  non-zero exit and a readable message — never silently reused, never a
  traceback;
* malformed specs, missing files, and corrupt caches all exit non-zero
  with ``error: ...`` messages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bgp.configjson import config_to_json
from repro.cli import main
from repro.workloads.figure1 import build_figure1

SPEC = {
    "ghosts": [{"name": "FromISP1", "kind": "source", "sources": ["ISP1->R1"]}],
    "safety": [
        {
            "name": "no-transit",
            "location": "R2->ISP2",
            "predicate": {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}},
            "invariants": {
                "default": {
                    "kind": "implies",
                    "antecedent": {"kind": "ghost", "name": "FromISP1"},
                    "consequent": {"kind": "community", "community": "100:1"},
                },
                "overrides": {
                    "R2->ISP2": {
                        "kind": "not",
                        "inner": {"kind": "ghost", "name": "FromISP1"},
                    }
                },
            },
        }
    ],
}


def _benign_r3_edit(config):
    from repro.bgp.policy import Disposition, MatchPrefix, RouteMap, RouteMapClause
    from repro.bgp.prefix import PrefixRange

    neighbor = config.routers["R3"].neighbors["Customer"]
    deny = RouteMapClause(
        1,
        Disposition.DENY,
        matches=(MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
    )
    neighbor.import_map = RouteMap("CUST-IN", (deny,) + neighbor.import_map.clauses)


@pytest.fixture
def cache_setup(tmp_path):
    """base.json, edited.json (benign R3 edit), spec.json, cache dir."""
    base = build_figure1()
    (tmp_path / "base.json").write_text(config_to_json(base))
    edited = build_figure1()
    _benign_r3_edit(edited)
    (tmp_path / "edited.json").write_text(config_to_json(edited))
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    return {
        "base": str(tmp_path / "base.json"),
        "edited": str(tmp_path / "edited.json"),
        "spec": str(tmp_path / "spec.json"),
        "cache": str(tmp_path / "cachedir"),
    }


# ---------------------------------------------------------------------------
# Cache round-trip
# ---------------------------------------------------------------------------


def test_reverify_cache_cold_then_warm(cache_setup, capsys):
    s = cache_setup
    # Cold: base run happens, cache is written.
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    out = capsys.readouterr().out
    assert "base run skipped" not in out
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in out
    assert (Path(s["cache"]) / "workspace.lyc").exists()

    # Warm: the base run is skipped, only R3's owner group is consulted.
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    out = capsys.readouterr().out
    assert "base run skipped" in out
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in out
    assert "PASSED" in out


def test_reverify_cache_fresh_process_round_trip(cache_setup):
    """The acceptance claim verbatim: a *fresh process* after a
    single-router edit loads the cache, skips the base run, and consults
    only that owner's checks."""
    s = cache_setup
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    args = [sys.executable, "-m", "repro.cli", "reverify",
            s["base"], s["edited"], s["spec"], "--cache", s["cache"]]
    first = subprocess.run(args, env=env, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert "base run skipped" not in first.stdout
    second = subprocess.run(args, env=env, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    assert "base run skipped" in second.stdout
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in second.stdout


def _wan_spec_json(wan, region: int = 0) -> str:
    """The region-0 ip-reuse safety family as a public spec document."""
    from repro.bgp.topology import Edge
    from repro.lang.specjson import (
        SafetySpec,
        VerificationSpec,
        location_to_str,
        spec_to_json,
    )
    from repro.workloads.wan_properties import ip_reuse_safety_problem

    problem = ip_reuse_safety_problem(wan, region)
    dc_edges = [
        Edge(dc, router)
        for dc, (dc_region, router) in wan.datacenters.items()
        if dc_region == region
    ]
    spec = VerificationSpec(
        ghost_docs=[
            {
                "name": f"FromRegion{region}",
                "kind": "source",
                "sources": [location_to_str(e) for e in dc_edges],
            }
        ],
        safety=[
            SafetySpec(
                property=prop,
                invariants_default=problem.invariants.default,
                invariants_overrides=dict(problem.invariants._overrides),
            )
            for prop in problem.properties
        ],
    )
    return spec_to_json(spec)


def _benign_wan_edit(config) -> None:
    """Prepend a no-effect deny (unused prefix) to one router's import."""
    from repro.bgp.policy import Disposition, MatchPrefix, RouteMap, RouteMapClause
    from repro.bgp.prefix import PrefixRange

    router = sorted(config.routers)[0]
    neighbor_name = sorted(config.routers[router].neighbors)[0]
    neighbor = config.routers[router].neighbors[neighbor_name]
    deny = RouteMapClause(
        1,
        Disposition.DENY,
        matches=(MatchPrefix((PrefixRange.parse("203.0.113.0/24 le 32"),)),),
    )
    if neighbor.import_map is None:
        neighbor.import_map = RouteMap("EDIT-IN", (deny,))
    else:
        neighbor.import_map = RouteMap(
            neighbor.import_map.name, (deny,) + neighbor.import_map.clauses
        )


def test_wan_reverify_cold_and_warm_reports_identical(tmp_path, capsys):
    # The WAN ip-reuse family is the stock workload whose checks conflict
    # and learn clauses: a cold reverify (base run in this process) and a
    # warm one (base outcomes from the cache) must print the same verdicts.
    from repro.workloads.wan import build_wan

    wan = build_wan(regions=2, routers_per_region=3)
    (tmp_path / "base.json").write_text(config_to_json(wan.config))
    edited = build_wan(regions=2, routers_per_region=3).config
    _benign_wan_edit(edited)
    (tmp_path / "edited.json").write_text(config_to_json(edited))
    (tmp_path / "spec.json").write_text(_wan_spec_json(wan))
    args = ["reverify", str(tmp_path / "base.json"), str(tmp_path / "edited.json"),
            str(tmp_path / "spec.json"), "--cache", str(tmp_path / "cachedir")]

    assert main(args) == 0
    cold_out = capsys.readouterr().out
    assert "base run skipped" not in cold_out
    assert main(args) == 0
    warm_out = capsys.readouterr().out
    assert "base run skipped" in warm_out

    def reports(text):
        # Keep the verdicts and consultation counters, drop the timings.
        return [
            line.split(" — ")[0] for line in text.splitlines()
            if "safety at" in line or "reverify: consulted" in line
        ]

    assert reports(warm_out) == reports(cold_out)
    assert any("PASSED" in line for line in reports(warm_out))


def test_verify_cache_cold_then_warm_consults_nothing(cache_setup, capsys):
    s = cache_setup
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    out = capsys.readouterr().out
    assert "cache: loaded outcomes" in out
    assert "cache: consulted 0 of 19 checks (0 re-run, 19 reused)" in out


def test_warm_cache_still_detects_breaking_edit(cache_setup, tmp_path, capsys):
    from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
    from repro.workloads.figure1 import TRANSIT_COMMUNITY

    s = cache_setup
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    broken = build_figure1()
    broken.routers["R2"].neighbors["R1"].import_map = RouteMap(
        "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),)
    )
    (tmp_path / "broken.json").write_text(config_to_json(broken))
    code = main(
        ["reverify", s["base"], str(tmp_path / "broken.json"), s["spec"],
         "--cache", s["cache"]]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "base run skipped" in out
    assert "FAILED" in out
    assert "blamed router: R2" in out


# ---------------------------------------------------------------------------
# Mismatch rejection
# ---------------------------------------------------------------------------


def test_cache_rejects_spec_mismatch(cache_setup, tmp_path, capsys):
    s = cache_setup
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    other = json.loads(json.dumps(SPEC))
    other["safety"][0]["invariants"]["default"] = {"kind": "true"}
    (tmp_path / "other.json").write_text(json.dumps(other))
    code = main(
        ["reverify", s["base"], s["edited"], str(tmp_path / "other.json"),
         "--cache", s["cache"]]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "does not cover this spec" in err


def test_cache_rejects_config_digest_mismatch(cache_setup, capsys):
    s = cache_setup
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    # Re-run with the *edited* config as the base: digests differ.
    code = main(["reverify", s["edited"], s["base"], s["spec"], "--cache", s["cache"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "different configuration" in err


def test_cache_rejects_previous_format(cache_setup, capsys):
    # A cache written by a format-3 build (a flat state dict carrying a
    # learnt-clause section) must be refused with a readable instruction.
    import hashlib
    import pickle

    from repro.core.workspace import CACHE_FORMAT

    s = cache_setup
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    cache_file = Path(s["cache"]) / "workspace.lyc"
    with open(cache_file, "rb") as handle:
        header = pickle.load(handle)
        state = pickle.load(handle)
    assert header["format"] == CACHE_FORMAT == 4
    solver_blob = pickle.dumps({})
    state.update(
        format=3,
        solver_state=solver_blob,
        solver_state_sha=hashlib.sha256(solver_blob).hexdigest(),
    )
    cache_file.write_bytes(pickle.dumps(state))

    code = main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "has format 3" in err
    assert "delete it and rerun" in err
    assert "Traceback" not in err


def test_cache_rejects_corrupt_file(cache_setup, capsys):
    s = cache_setup
    cache_dir = Path(s["cache"])
    cache_dir.mkdir()
    (cache_dir / "workspace.lyc").write_bytes(b"garbage bytes")
    code = main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err


# ---------------------------------------------------------------------------
# Spec/file error paths (no tracebacks, readable messages)
# ---------------------------------------------------------------------------


def test_malformed_json_spec_exits_readably(cache_setup, tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    code = main(["verify", cache_setup["base"], str(tmp_path / "bad.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: spec is not valid JSON" in err


def test_spec_missing_key_exits_readably(cache_setup, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"safety": [{"location": "R1"}]}))
    code = main(["verify", cache_setup["base"], str(tmp_path / "bad.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: malformed spec: missing required key 'predicate'" in err


def test_spec_wrong_shape_exits_readably(cache_setup, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps(["not", "an", "object"]))
    code = main(["verify", cache_setup["base"], str(tmp_path / "bad.json")])
    assert code == 2
    assert "error: spec must be a JSON object" in capsys.readouterr().err


def test_reverify_missing_file_exits_readably(cache_setup, capsys):
    code = main(["reverify", cache_setup["base"], cache_setup["edited"], "/nope.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_superset_cache_answers_only_for_the_requested_spec(
    cache_setup, tmp_path, capsys
):
    """A cache may hold more properties than the spec being run; the extra
    entries must not leak into the reverify output or the exit code."""
    s = cache_setup
    # Cache a two-property spec whose second property FAILS on Figure 1
    # (it claims every route at the property edge carries 100:1).
    two = json.loads(json.dumps(SPEC))
    two["safety"].append(
        {
            "name": "always-tagged",
            "location": "R2->ISP2",
            "predicate": {"kind": "community", "community": "100:1"},
            "invariants": {"default": {"kind": "true"}, "overrides": {}},
        }
    )
    (tmp_path / "two.json").write_text(json.dumps(two))
    assert (
        main(["verify", s["base"], str(tmp_path / "two.json"), "--cache", s["cache"]])
        == 1
    )
    capsys.readouterr()

    # Reverifying with only the passing property must load the cache, run
    # just that property, and exit 0 — the failing cached extra stays out.
    code = main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "base run skipped" in out
    assert "always-tagged" not in out
    assert out.count("reverify: consulted") == 1
