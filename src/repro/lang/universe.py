"""The finite attribute universe a verification problem ranges over.

BGP communities and AS numbers are drawn from huge spaces, but any single
verification problem only *distinguishes* the finitely many values mentioned
in the configurations, properties, and ghost definitions.  The universe
collects those values so a symbolic route can carry one boolean per
community ("is this community present?") and per ASN ("does the AS path
mention this ASN?").  Values outside the universe behave uniformly, so this
is the standard finite-abstraction used by SMT-based control-plane
verifiers (Minesweeper makes the same move).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.config import NetworkConfig
from repro.bgp.policy import (
    Action,
    AddCommunity,
    DeleteCommunity,
    Match,
    MatchAll,
    MatchAny,
    MatchAsPathContains,
    MatchCommunity,
    MatchNot,
    PrependAsPath,
    RouteMap,
)
from repro.bgp.route import Community
from repro.hashing import cache_hash


@cache_hash
@dataclass(frozen=True)
class AttributeUniverse:
    """The distinguishable communities, ASNs, and ghost attribute names."""

    communities: tuple[Community, ...]
    asns: tuple[int, ...]
    ghosts: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "communities", tuple(sorted(set(self.communities))))
        object.__setattr__(self, "asns", tuple(sorted(set(self.asns))))
        object.__setattr__(self, "ghosts", tuple(sorted(set(self.ghosts))))

    def require_community(self, comm: Community) -> None:
        if comm not in self.communities:
            raise KeyError(
                f"community {comm} is not in the attribute universe; "
                f"rebuild the universe with it included"
            )

    def require_asn(self, asn: int) -> None:
        if asn not in self.asns:
            raise KeyError(f"ASN {asn} is not in the attribute universe")

    def require_ghost(self, name: str) -> None:
        if name not in self.ghosts:
            raise KeyError(f"ghost attribute {name!r} is not in the attribute universe")

    def extended(
        self,
        communities: tuple[Community, ...] = (),
        asns: tuple[int, ...] = (),
        ghosts: tuple[str, ...] = (),
    ) -> "AttributeUniverse":
        return AttributeUniverse(
            self.communities + tuple(communities),
            self.asns + tuple(asns),
            self.ghosts + tuple(ghosts),
        )

    @classmethod
    def from_config(
        cls,
        config: NetworkConfig,
        extra_communities: tuple[Community, ...] = (),
        extra_asns: tuple[int, ...] = (),
        ghosts: tuple[str, ...] = (),
    ) -> "AttributeUniverse":
        """Scan every route map and session for mentioned values."""
        communities: set[Community] = set(extra_communities)
        asns: set[int] = set(extra_asns)
        for rc in config.routers.values():
            asns.add(rc.asn)
            for ncfg in rc.neighbors.values():
                asns.add(ncfg.remote_asn)
                for route_map in (ncfg.import_map, ncfg.export_map):
                    if route_map is not None:
                        _scan_route_map(route_map, communities, asns)
                for route in ncfg.originated:
                    communities.update(route.communities)
                    asns.update(route.as_path)
        asns.update(config.external_asns.values())
        return cls(tuple(communities), tuple(asns), tuple(ghosts))


def _scan_route_map(route_map: RouteMap, communities: set[Community], asns: set[int]) -> None:
    for clause in route_map.clauses:
        for match in clause.matches:
            _scan_match(match, communities, asns)
        for action in clause.actions:
            _scan_action(action, communities, asns)


def _scan_match(match: Match, communities: set[Community], asns: set[int]) -> None:
    if isinstance(match, MatchCommunity):
        communities.add(match.community)
    elif isinstance(match, MatchAsPathContains):
        asns.add(match.asn)
    elif isinstance(match, MatchNot):
        _scan_match(match.inner, communities, asns)
    elif isinstance(match, (MatchAny, MatchAll)):
        for inner in match.inners:
            _scan_match(inner, communities, asns)


def _scan_action(action: Action, communities: set[Community], asns: set[int]) -> None:
    if isinstance(action, (AddCommunity, DeleteCommunity)):
        communities.add(action.community)
    elif isinstance(action, PrependAsPath):
        asns.add(action.asn)
