"""Differential tests: memoised vs cache-disabled term construction.

Caching layers are where soundness bugs hide, so the lang-layer caches get
the same treatment the CDCL core gets against the reference DPLL
(``tests/smt/test_sat_differential.py``): run both paths on randomized
inputs and demand *identical* results.  Identity here is strong — terms are
hash-consed, so the memoised transfer outputs must be the very same interned
objects the uncached symbolic execution constructs, and whole verification
runs must produce outcome-for-outcome equal reports, failures included.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    MatchAsPathLength,
    MatchCommunity,
    MatchMedRange,
    MatchNot,
    MatchPrefix,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    route_map_digest,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import build_universe, verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import (
    HasCommunity,
    Implies,
    Not,
    predicate_term_cache_stats,
)
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import (
    reset_transfer_cache,
    symbolic_originated,
    transfer_cache_disabled,
    transfer_cache_stats,
    transfer_export,
    transfer_import,
    transfer_key,
)
from repro.smt.terms import clear_intern_cache
from repro.workloads.randomnet import build_random_network

SEED = 20260726

_POOL_COMMUNITIES = [Community(100, v) for v in range(1, 5)]
_POOL_PREFIXES = [
    PrefixRange(Prefix.parse("10.0.0.0/8"), 8, 24),
    PrefixRange(Prefix.parse("192.168.0.0/16"), 16, 32),
    PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 8),
]


def _random_match(rng: random.Random, depth: int = 0):
    kinds = ["community", "prefix", "med", "pathlen"]
    if depth == 0:
        kinds.append("not")
    kind = rng.choice(kinds)
    if kind == "community":
        return MatchCommunity(rng.choice(_POOL_COMMUNITIES))
    if kind == "prefix":
        return MatchPrefix((rng.choice(_POOL_PREFIXES),))
    if kind == "med":
        low = rng.randint(0, 50)
        return MatchMedRange(low, low + rng.randint(0, 100))
    if kind == "pathlen":
        low = rng.randint(0, 3)
        return MatchAsPathLength(low, low + rng.randint(0, 5))
    return MatchNot(_random_match(rng, depth + 1))


def _random_action(rng: random.Random):
    kind = rng.choice(["lp", "med", "add", "del", "clear", "prepend"])
    if kind == "lp":
        return SetLocalPref(rng.randint(0, 300))
    if kind == "med":
        return SetMed(rng.randint(0, 100))
    if kind == "add":
        return AddCommunity(rng.choice(_POOL_COMMUNITIES))
    if kind == "del":
        return DeleteCommunity(rng.choice(_POOL_COMMUNITIES))
    if kind == "clear":
        return ClearCommunities()
    return PrependAsPath(65000 + rng.randint(0, 3), rng.randint(1, 2))


def _random_route_map(rng: random.Random, name: str) -> RouteMap | None:
    if rng.random() < 0.2:
        return None  # no filter on this session
    clauses = []
    for i in range(rng.randint(1, 4)):
        deny = rng.random() < 0.3
        matches = tuple(_random_match(rng) for _ in range(rng.randint(0, 2)))
        actions = (
            ()
            if deny
            else tuple(_random_action(rng) for _ in range(rng.randint(0, 3)))
        )
        clauses.append(
            RouteMapClause(
                seq=(i + 1) * 10,
                disposition=Disposition.DENY if deny else Disposition.PERMIT,
                matches=matches,
                actions=actions,
            )
        )
    return RouteMap(name, tuple(clauses))


def _random_problem(seed: int):
    """A 3-router iBGP triangle with random filters on the external edges."""
    rng = random.Random(SEED + seed)
    from repro.bgp.topology import Topology

    topo = Topology()
    routers = ["R1", "R2", "R3"]
    externals = ["E1", "E2", "E3"]
    for r in routers:
        topo.add_router(r)
    for e in externals:
        topo.add_external(e)
    for i in range(3):
        topo.add_peering(routers[i], externals[i])
    topo.add_peering("R1", "R2")
    topo.add_peering("R2", "R3")
    topo.add_peering("R1", "R3")

    # A deliberately arbitrary invariant — random maps may well violate it,
    # which is the point: failing outcomes must also be identical.  Even
    # seeds guard the tracked community at the border (external imports
    # deny it, and it is outside the random action pool), so those configs
    # verify; odd seeds leave the border open and generally fail.
    tracked = Community(100, 9) if seed % 2 == 0 else Community(100, 1)
    guard = RouteMapClause(
        seq=1, disposition=Disposition.DENY, matches=(MatchCommunity(tracked),)
    )

    def _external_import(name: str) -> RouteMap:
        inner = _random_route_map(rng, f"{name}-EXT-IN")
        clauses = (guard,) + (inner.clauses if inner is not None else (RouteMapClause(5),))
        if seed % 2 == 0:
            return RouteMap(f"{name}-EXT-IN", clauses)
        return inner if inner is not None else RouteMap(f"{name}-EXT-IN", (RouteMapClause(5),))

    config = NetworkConfig(topo)
    for i, e in enumerate(externals):
        config.set_external_asn(e, 65100 + i)
    for i, name in enumerate(routers):
        rc = RouterConfig(name, 65000)
        rc.add_neighbor(
            NeighborConfig(
                externals[i],
                65100 + i,
                import_map=_external_import(name),
                export_map=_random_route_map(rng, f"{name}-EXT-OUT"),
            )
        )
        for peer in routers:
            if peer != name:
                rc.add_neighbor(
                    NeighborConfig(
                        peer,
                        65000,
                        import_map=_random_route_map(rng, f"{name}-{peer}-IN"),
                    )
                )
        config.add_router_config(rc)

    invariants = InvariantMap(topo, default=Not(HasCommunity(tracked)))
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(HasCommunity(tracked)), name="diff"
    )
    return config, prop, invariants


def _outcome_signature(report):
    sig = []
    for o in report.outcomes:
        failure = None
        if o.failure is not None:
            failure = (o.failure.input_route, o.failure.output_route, o.failure.rejected)
        sig.append((o.check.description, o.passed, o.unknown, failure))
    return sig


@pytest.mark.parametrize("seed", range(10))
def test_check_outcomes_identical_cache_on_vs_off(seed):
    """Full verification agrees outcome-for-outcome with caching disabled."""
    config, prop, invariants = _random_problem(seed)
    reset_transfer_cache()
    report_on = verify_safety(config, prop, invariants)
    with transfer_cache_disabled():
        report_off = verify_safety(config, prop, invariants)
    assert _outcome_signature(report_on) == _outcome_signature(report_off)


def test_differential_suite_exercises_both_verdicts():
    """Guard against a skewed generator silently weakening the suite."""
    passed = set()
    for seed in range(10):
        config, prop, invariants = _random_problem(seed)
        passed.add(verify_safety(config, prop, invariants).passed)
    assert passed == {True, False}


@pytest.mark.parametrize("model,seed", [("gnp", 1), ("ba", 2), ("ring", 3)])
def test_transfer_terms_identical_on_randomnets(model, seed):
    """Memoised transfer outputs are the same interned terms as uncached ones."""
    config = build_random_network(8, model=model, seed=seed)
    ghost = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E1", "R1")]
    )
    universe = build_universe(config, None, [], (ghost,))
    route = SymbolicRoute.fresh("r", universe)
    reset_transfer_cache()
    for edge in sorted(config.topology.edges):
        for transfer in (transfer_import, transfer_export):
            acc_on, out_on = transfer(config, edge, route, (ghost,))
            with transfer_cache_disabled():
                acc_off, out_off = transfer(config, edge, route, (ghost,))
            assert acc_on is acc_off, f"accepted differs on {edge}"
            _assert_routes_identical(out_on, out_off, edge)
        syms_on = symbolic_originated(config, edge, universe, (ghost,))
        with transfer_cache_disabled():
            syms_off = symbolic_originated(config, edge, universe, (ghost,))
        assert len(syms_on) == len(syms_off)
        for a, b in zip(syms_on, syms_off):
            _assert_routes_identical(a, b, edge)
    stats = transfer_cache_stats()
    assert stats.misses > 0  # the cache actually engaged


def _assert_routes_identical(a: SymbolicRoute, b: SymbolicRoute, edge) -> None:
    for field in (
        "prefix_addr",
        "prefix_len",
        "local_pref",
        "med",
        "next_hop",
        "origin",
        "as_path_len",
    ):
        assert getattr(a, field) is getattr(b, field), f"{field} differs on {edge}"
    assert dict(a.communities) == dict(b.communities)
    assert dict(a.as_path_members) == dict(b.as_path_members)
    assert dict(a.ghosts) == dict(b.ghosts)
    for mapping_a, mapping_b in (
        (a.communities, b.communities),
        (a.as_path_members, b.as_path_members),
        (a.ghosts, b.ghosts),
    ):
        for key in mapping_a:
            assert mapping_a[key] is mapping_b[key], f"{key} term differs on {edge}"


def test_edges_with_equal_policy_share_one_cache_entry():
    """Same filter content on different edges = one symbolic execution."""
    config = build_random_network(6, model="ring", seed=0)
    ghost = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E1", "R1")]
    )
    universe = build_universe(config, None, [], (ghost,))
    route = SymbolicRoute.fresh("r", universe)
    reset_transfer_cache()
    # E3->R3 and E4->R4 run the same generic prefix filter with the same
    # (non-source) ghost discipline; their outputs must be one cache entry.
    r3 = transfer_import(config, Edge("E3", "R3"), route, (ghost,))
    r4 = transfer_import(config, Edge("E4", "R4"), route, (ghost,))
    assert r3 is r4
    stats = transfer_cache_stats()
    assert stats.hits >= 1


def test_ghost_update_key_follows_the_ghost_set():
    """The per-edge ghost-update memo answers for one ghost tuple at a time:
    alternating between two sets that write different values on the same
    edge must give each set its own key."""
    config = build_random_network(4, model="ring", seed=0)
    edge = Edge("E1", "R1")
    tagged = (GhostAttribute("G", import_updates={edge: True}),)
    untagged = (GhostAttribute("G", import_updates={edge: False}),)
    keys = [
        transfer_key(config, edge, ghosts, "import")
        for ghosts in (tagged, untagged, tagged, list(untagged))
    ]
    assert keys[0] == keys[2] != keys[1] == keys[3]


def test_cache_stats_and_toggle():
    config = build_random_network(4, model="ring", seed=7)
    universe = build_universe(config, None, [], ())
    route = SymbolicRoute.fresh("r", universe)
    edge = Edge("E2", "R2")
    reset_transfer_cache()
    transfer_import(config, edge, route)
    transfer_import(config, edge, route)
    stats = transfer_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.hit_rate == 0.5
    with transfer_cache_disabled():
        transfer_import(config, edge, route)
    assert transfer_cache_stats().lookups == 2  # cache-off calls don't count
    # Predicate-term lowering shares the master toggle.
    pred = Not(HasCommunity(Community(100, 1)))
    from repro.lang.predicates import predicate_term

    before = predicate_term_cache_stats().lookups
    with transfer_cache_disabled():
        predicate_term(pred, route)
    assert predicate_term_cache_stats().lookups == before


def test_intern_table_clear_drops_cache_entries():
    """Cached term graphs must die with the intern table (like fresh())."""
    config = build_random_network(4, model="ring", seed=9)
    universe = build_universe(config, None, [], ())
    route = SymbolicRoute.fresh("r", universe)
    edge = Edge("E2", "R2")
    reset_transfer_cache()
    transfer_import(config, edge, route)
    clear_intern_cache()
    try:
        route2 = SymbolicRoute.fresh("r", universe)
        acc, out = transfer_import(config, edge, route2)
        # A post-clear call must rebuild from the new intern table, not hand
        # back a stale graph: the accepted term is interned *now*.
        with transfer_cache_disabled():
            acc_ref, __ = transfer_import(config, edge, route2)
        assert acc is acc_ref
    finally:
        clear_intern_cache()
        reset_transfer_cache()


def test_route_map_digest_is_content_based():
    rm1 = RouteMap("A", (RouteMapClause(10, matches=(MatchCommunity(Community(1, 2)),)),))
    rm2 = RouteMap("A", (RouteMapClause(10, matches=(MatchCommunity(Community(1, 2)),)),))
    rm3 = RouteMap("B", rm1.clauses)
    assert route_map_digest(rm1) == route_map_digest(rm2)
    assert route_map_digest(rm1) != route_map_digest(rm3)  # name is content here
    assert route_map_digest(None) == "-"
