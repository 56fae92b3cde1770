"""Seeded input generation for the three benchmark workloads.

Everything here runs in the benchmark's parent process, before any timed
work: it builds networks with the :mod:`repro.workloads` generators,
plants the seed-chosen bugs or edits, and writes the configuration and
spec JSON files the measured program reads.  The measured processes never
see the seed or the generator objects, only these files.

Each ``make_*`` function returns a :class:`Inputs` record: the files
written, the planted bugs (what the known-answer table in
:mod:`answers` reasons from), and the network facts that table needs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.bgp.configjson import config_to_json
from repro.bgp.policy import (
    ClearCommunities,
    Disposition,
    MatchPrefix,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import PrefixRange
from repro.bgp.topology import Edge
from repro.core.properties import SafetyProperty
from repro.lang.specjson import (
    SafetySpec,
    VerificationSpec,
    location_to_str,
    predicate_to_json,
    spec_to_json,
)
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh
from repro.workloads.wan import WanNetwork, build_wan
from repro.workloads.wan_properties import (
    ip_reuse_liveness_problem,
    ip_reuse_safety_problem,
    peering_problem,
    peering_quality_predicates,
)

FULLMESH_ROUTERS = 100
WAN_T4_SHAPE = dict(regions=10, routers_per_region=8, peers_per_edge=3)
WAN_EDIT_SHAPE = dict(regions=6, routers_per_region=5, peers_per_edge=3)
# Distinct edit files per run; the invocation loop cycles through them.
EDITS_PER_RUN = 16
EDIT_KINDS = (
    "benign-deny",
    "drop-bogon-filter",
    "drop-aspath-filter",
    "wrong-dc-community",
)


@dataclass
class Inputs:
    """The files one workload run reads, plus what the answers derive from."""

    config: Path
    spec: Path
    # name -> JSON sidecar with liveness interference invariants (W2 only).
    interference: Path | None = None
    # Planted bugs in the verified config: knob name -> router or region.
    bugs: dict = field(default_factory=dict)
    # Network facts the known-answer table needs (edge routers, DC attach
    # routers per region, property names by family).
    facts: dict = field(default_factory=dict)
    # W3 only: (edit file, edit kind, mutated router, knob value) per edit.
    edits: list = field(default_factory=list)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# fullmesh-nt100: Fig. 3d no-transit with one community-clearing router
# ---------------------------------------------------------------------------


def make_fullmesh(seed: int, workdir: Path) -> Inputs:
    """The 100-router mesh; the seed picks ``Rk`` (k >= 3) whose iBGP export
    to R2 clears communities, so the transit tag can be lost on that edge."""
    rng = random.Random(seed)
    k = rng.randint(3, FULLMESH_ROUTERS)
    bad = f"R{k}"
    config = build_full_mesh(FULLMESH_ROUTERS)
    config.routers[bad].neighbors["R2"].export_map = RouteMap(
        "CLEAR-TO-R2", (RouteMapClause(10, actions=(ClearCommunities(),)),)
    )
    from_e1 = GhostIs("FromE1")
    spec = VerificationSpec(
        ghost_docs=[{"name": "FromE1", "kind": "source", "sources": ["E1->R1"]}],
        safety=[
            SafetySpec(
                property=SafetyProperty(
                    location=Edge("R2", "E2"), predicate=Not(from_e1), name="no-transit"
                ),
                invariants_default=Implies(from_e1, HasCommunity(TRANSIT_COMMUNITY)),
                invariants_overrides={Edge("R2", "E2"): Not(from_e1)},
            )
        ],
    )
    return Inputs(
        config=_write(workdir / "config.json", config_to_json(config)),
        spec=_write(workdir / "spec.json", spec_to_json(spec)),
        bugs={"clear_communities_router": bad},
    )


# ---------------------------------------------------------------------------
# Shared WAN spec pieces (Table 4a / 4b / 4c)
# ---------------------------------------------------------------------------


def _ghost_doc(ghost) -> dict:
    """A source-tracker ghost as a spec document (its true-setting imports)."""
    sources = sorted(str(edge) for edge, value in ghost.import_updates.items() if value)
    return {"name": ghost.name, "kind": "source", "sources": sources}


def _invariant_spec(prop, invariants) -> SafetySpec:
    return SafetySpec(
        property=prop,
        invariants_default=invariants.default,
        invariants_overrides={
            loc: invariants.get(loc) for loc in invariants.overridden_locations()
        },
    )


def _wan_spec(wan: WanNetwork, liveness: bool) -> tuple[VerificationSpec, dict, dict]:
    """Spec for 4a (+ 4b, + 4c when ``liveness``), its interference sidecar,
    and the property names per family.

    A Table-4 family states one predicate "at every router" under invariants
    equal to that predicate everywhere, so every per-location implication
    is ``I => I``.  One location per family therefore generates the same
    import/export/originate checks as the whole family; the spec names the
    family once, at its first location.
    """
    ghosts: dict[str, dict] = {}
    safety: list[SafetySpec] = []
    names: dict[str, list[str]] = {"4a": [], "4b": [], "4c": []}
    for name, quality in peering_quality_predicates(wan).items():
        problem = peering_problem(wan, name, quality)
        ghosts[problem.ghost.name] = _ghost_doc(problem.ghost)
        safety.append(_invariant_spec(problem.properties[0], problem.invariants))
        names["4a"].append(name)
    for region in range(wan.regions):
        problem = ip_reuse_safety_problem(wan, region)
        ghosts[problem.ghost.name] = _ghost_doc(problem.ghost)
        safety.append(_invariant_spec(problem.properties[0], problem.invariants))
        names["4b"].append(problem.properties[0].name)
    live = []
    sidecar: dict = {}
    if liveness:
        for region in range(wan.regions):
            problem = ip_reuse_liveness_problem(wan, region)
            live.append(problem.property)
            names["4c"].append(problem.property.name)
            # Every path router shares one invariant map in the generator.
            maps = {id(inv): inv for inv in problem.interference_invariants.values()}
            if len(maps) != 1:
                raise ValueError(f"{problem.property.name}: expected one shared interference map")
            inv = next(iter(maps.values()))
            sidecar[problem.property.name] = {
                "routers": sorted(problem.interference_invariants),
                "default": predicate_to_json(inv.default),
                "overrides": {
                    location_to_str(loc): predicate_to_json(inv.get(loc))
                    for loc in inv.overridden_locations()
                },
            }
    spec = VerificationSpec(
        ghost_docs=[ghosts[name] for name in sorted(ghosts)],
        safety=safety,
        liveness=live,
    )
    return spec, sidecar, names


def _wan_facts(wan: WanNetwork, names: dict) -> dict:
    return {
        "regions": wan.regions,
        "edge_routers": list(wan.edge_routers),
        "dc_attach": {
            str(region): router for __, (region, router) in sorted(wan.datacenters.items())
        },
        "families": names,
    }


# ---------------------------------------------------------------------------
# wan-t4-jobs2: Table 4 with three planted bugs
# ---------------------------------------------------------------------------


def make_wan_t4(seed: int, workdir: Path) -> Inputs:
    """WAN 10x8x3; the seed places the three §6.1 bugs on distinct routers."""
    rng = random.Random(seed)
    probe = build_wan(**WAN_T4_SHAPE)
    bogon_router, aspath_router = rng.sample(probe.edge_routers, 2)
    region = rng.randrange(probe.regions)
    bugs = {
        "buggy_edge_router": bogon_router,
        "adhoc_aspath_router": aspath_router,
        "wrong_community_region": region,
    }
    wan = build_wan(**WAN_T4_SHAPE, **bugs)
    spec, sidecar, names = _wan_spec(wan, liveness=True)
    return Inputs(
        config=_write(workdir / "config.json", config_to_json(wan.config)),
        spec=_write(workdir / "spec.json", spec_to_json(spec)),
        interference=_write(workdir / "interference.json", json.dumps(sidecar)),
        bugs=bugs,
        facts=_wan_facts(wan, names),
    )


# ---------------------------------------------------------------------------
# wan-edit-cli: single-router edits of a clean WAN 6x5x3
# ---------------------------------------------------------------------------

_BENIGN_DENY = RouteMapClause(
    1,
    Disposition.DENY,
    matches=(MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
)


def _benign_edit(wan: WanNetwork, router: str, peer: str) -> None:
    """Prepend a deny clause to one import policy (permit-all if it had none).

    Denying more routes can only shrink what reaches any location, so no
    safety property can start failing.
    """
    neighbor = wan.config.routers[router].neighbors[peer]
    old = neighbor.import_map
    clauses = (RouteMapClause(2),) if old is None else old.clauses
    name = "BENIGN-IN" if old is None else f"{old.name}-EDIT"
    neighbor.import_map = RouteMap(name, (_BENIGN_DENY,) + clauses)


def make_wan_edit(seed: int, workdir: Path) -> Inputs:
    """Clean WAN 6x5x3 with 4a + 4b, plus seeded single-router edits.

    Edit kinds rotate in a seeded order so each appears about equally; the
    router (or region) each edit touches is drawn from the seed.
    """
    rng = random.Random(seed)
    base = build_wan(**WAN_EDIT_SHAPE)
    spec, __, names = _wan_spec(base, liveness=False)
    inputs = Inputs(
        config=_write(workdir / "base.json", config_to_json(base.config)),
        spec=_write(workdir / "spec.json", spec_to_json(spec)),
        facts=_wan_facts(base, names),
    )
    kinds = list(EDIT_KINDS) * (EDITS_PER_RUN // len(EDIT_KINDS))
    rng.shuffle(kinds)
    routers = sorted(base.config.topology.routers)
    for index, kind in enumerate(kinds):
        if kind == "benign-deny":
            router = rng.choice(routers)
            peer = rng.choice(sorted(base.config.routers[router].neighbors))
            wan = build_wan(**WAN_EDIT_SHAPE)
            _benign_edit(wan, router, peer)
            knob = f"{router}<-{peer}"
        elif kind == "drop-bogon-filter":
            router = rng.choice(base.edge_routers)
            wan = build_wan(**WAN_EDIT_SHAPE, buggy_edge_router=router)
            knob = router
        elif kind == "drop-aspath-filter":
            router = rng.choice(base.edge_routers)
            wan = build_wan(**WAN_EDIT_SHAPE, adhoc_aspath_router=router)
            knob = router
        else:
            region = rng.randrange(base.regions)
            router = inputs.facts["dc_attach"][str(region)]
            wan = build_wan(**WAN_EDIT_SHAPE, wrong_community_region=region)
            knob = region
        path = _write(workdir / f"edit_{index:02d}.json", config_to_json(wan.config))
        inputs.edits.append((path, kind, router, knob))
    return inputs
