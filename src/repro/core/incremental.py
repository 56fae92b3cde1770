"""Incremental re-verification: only re-check what a config change touches.

Because every local check depends on a single router's policy (§4.2), a
configuration change to router ``R`` invalidates only:

* import checks on edges into ``R`` (they run R's import maps);
* export and originate checks on edges out of ``R``;

Everything else — including the property-implication check, which depends
only on the user's invariants — is reused from the previous run.  This is
the incremental benefit §2 and §7 claim; the ablation benchmark measures
the saving.

The cache is an **owner index**: checks and their outcomes are stored
grouped by owner router (:func:`repro.core.checks.group_checks_by_owner`),
so a reverify compares per-router digests (O(routers)) and then touches
only the changed owners' groups — it never walks, hashes, or re-keys the
unchanged owners' checks.  ``IncrementalResult.checks_consulted`` counts
the checks a run actually examined; a single-router edit consults exactly
that router's group.

Change detection covers more than router policies: the digest map carries
one extra **network-level** entry (:data:`NETWORK_DIGEST_KEY`) derived
from ``NetworkConfig.external_asns``.  External ASNs never belong to any
router's policy digest, yet they feed ``AttributeUniverse.from_config``
and AS-path reasoning, so an ``set_external_asn`` edit on an unchanged
topology must invalidate every cached outcome — keying exclusively on
router digests used to reuse a stale universe and stale outcomes.

Since the :class:`repro.core.workspace.Workspace` redesign, the machinery
lives in :class:`SafetyTracker` — the per-property owner-indexed cache a
workspace drives (and persists to disk).  The public
:class:`IncrementalVerifier` remains as a deprecated shim over a
single-property workspace.  The §5 liveness pipeline has the same
owner-granular tracker in :mod:`repro.core.incremental_liveness`; it
shares the digest helpers defined here (:func:`config_digests` /
:func:`diff_digests`).
"""

from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass
from typing import Callable

from repro.bgp.config import NetworkConfig
from repro.core.checks import (
    CheckOutcome,
    LocalCheck,
    generate_safety_checks,
    group_checks_by_owner,
)
from repro.core.exec import (
    CheckGroup,
    CheckPlan,
    ExecutionContext,
    Scheduler,
    WorkerPool,
)
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import DegradationReport
from repro.core.safety import SafetyReport, build_universe
from repro.lang.ghost import GhostAttribute
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import SessionPool


# The reserved key carrying network-level identity (external ASNs) in a
# digest map.  A non-string sentinel: router names are strings (JSON
# configs accept arbitrary ones), so only a different type truly cannot
# collide — a router literally named "__network__" must not shadow it.
NETWORK_DIGEST_KEY = ("network",)


def network_digest(config: NetworkConfig) -> str:
    """Digest of network-level verification inputs owned by no router.

    Today that is exactly ``external_asns``: external neighbors' AS numbers
    enter the attribute universe (``AttributeUniverse.from_config``) and
    AS-path reasoning, but appear in no :meth:`RouterConfig.digest`.
    (:meth:`repro.core.exec.WorkerPool._fingerprint` includes them for
    the same reason.)
    """
    canon = tuple(sorted(config.external_asns.items()))
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def config_digests(config: NetworkConfig) -> dict:
    """Per-router policy digests plus the :data:`NETWORK_DIGEST_KEY` entry.

    This is the change-detection snapshot the trackers diff: every input
    that can alter a cached outcome without altering the topology object
    graph is covered by some key.
    """
    digests: dict = config.policy_digests()
    digests[NETWORK_DIGEST_KEY] = network_digest(config)
    return digests


def diff_digests(old: dict, new: dict) -> set:
    """Keys whose digest differs between two snapshots (edits, adds, drops)."""
    changed = {key for key, digest in new.items() if old.get(key) != digest}
    changed.update(key for key in old if key not in new)
    return changed


def diff_config_snapshot(
    old_digests: dict, config: NetworkConfig
) -> tuple[dict, set, bool]:
    """Digest snapshot diff: (new digests, changed routers, network edit?).

    The single change-detection routine both trackers run — PR 4 had to
    fix it once (external ASNs were invisible to router digests), so it
    must not exist in two copies.
    """
    new_digests = config_digests(config)
    changed = diff_digests(old_digests, new_digests)
    network_changed = NETWORK_DIGEST_KEY in changed
    changed.discard(NETWORK_DIGEST_KEY)
    return new_digests, changed, network_changed


def topology_changed(old: NetworkConfig, new: NetworkConfig) -> bool:
    """Whether two configs differ in routers or edges (check-set identity)."""
    return (
        new.topology.routers != old.topology.routers
        or new.topology.edges != old.topology.edges
    )


# The shared pool plumbing formerly defined here as IncrementalSubstrate
# now lives in :class:`repro.core.exec.context.ExecutionContext`; the old
# name remains importable for existing callers and pickled references.
IncrementalSubstrate = ExecutionContext


@dataclass
class IncrementalResult:
    """A re-verification outcome plus cache accounting."""

    report: SafetyReport
    rerun_checks: int
    cached_checks: int
    # Checks whose cache entries this run individually examined or wrote.
    # In the owner-indexed implementation this equals ``rerun_checks`` *by
    # design* — cached groups are reused wholesale, never inspected
    # per-check — and that equality is the O(changed-owner) claim: the
    # pre-index digest walk examined every cached check on every run.
    checks_consulted: int = 0

    @property
    def reuse_fraction(self) -> float:
        total = self.rerun_checks + self.cached_checks
        return self.cached_checks / total if total else 0.0


class SafetyTracker:
    """The owner-indexed §4 cache for one safety property.

    This is the unit a :class:`repro.core.workspace.Workspace` keeps per
    verified property: the generated check list and every outcome stored
    grouped by owner router, keyed by that router's configuration digest.
    ``run`` with an updated :class:`NetworkConfig` (same topology) re-runs
    only the groups whose owner digest changed — cost is O(changed owner),
    not a walk over the full outcome cache.  Changing the property or
    invariants requires a new tracker — those inputs touch every check.

    Between runs the tracker also keeps the expensive state alive:

    * the substrate's ``sessions`` — one persistent :class:`SessionPool`
      keyed by owner router.  A rerun check is discharged against its
      owner's existing clause database, so only the *changed* transfer
      terms are encoded; owners whose digest is unchanged see no solver
      activity at all.
    * the attribute universe and generated check list, which are rebuilt
      only when a digest actually changed (and the universe object is
      swapped only when its *content* changed, keeping the symbolic-route
      and transfer caches hot).  ``universe_builds`` counts adoptions.

    The outcome index (but not the solver state) is what
    ``Workspace.save`` persists, which is why the tracker's whole cache is
    a few plain picklable dicts.
    """

    kind = "safety"

    def __init__(
        self,
        substrate: IncrementalSubstrate,
        config: NetworkConfig,
        prop: SafetyProperty,
        invariants: InvariantMap,
        ghosts: tuple[GhostAttribute, ...] = (),
        conflict_budget: int | None = None,
    ) -> None:
        self.substrate = substrate
        self.prop = prop
        self.invariants = invariants
        self.ghosts = tuple(ghosts)
        self.conflict_budget = conflict_budget
        self._config = config
        self._digests: dict = {}
        self._universe: AttributeUniverse | None = None
        self._checks_by_owner: dict[str | None, list[LocalCheck]] | None = None
        self._outcomes_by_owner: dict[str | None, list[CheckOutcome]] = {}
        self.universe_builds = 0
        self._ran = False

    # Kept for introspection/tests: the flat check list, in group order.
    @property
    def _checks(self) -> list[LocalCheck] | None:
        if self._checks_by_owner is None:
            return None
        return [c for group in self._checks_by_owner.values() for c in group]

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict:
        """The picklable cache state ``Workspace.save`` persists."""
        return {
            "prop": self.prop,
            "invariants": self.invariants,
            "conflict_budget": self.conflict_budget,
            "config": self._config,
            "digests": self._digests,
            "checks_by_owner": self._checks_by_owner,
            "outcomes_by_owner": self._outcomes_by_owner,
        }

    @classmethod
    def from_state(
        cls,
        substrate: IncrementalSubstrate,
        state: dict,
        ghosts: tuple[GhostAttribute, ...],
    ) -> "SafetyTracker":
        tracker = cls(
            substrate,
            state["config"],
            state["prop"],
            state["invariants"],
            ghosts,
            state["conflict_budget"],
        )
        tracker._digests = state["digests"]
        tracker._checks_by_owner = state["checks_by_owner"]
        tracker._outcomes_by_owner = state["outcomes_by_owner"]
        # The universe is deliberately not persisted (it is cheap to rescan
        # and references the live term graph); the first run after a load
        # rebuilds it, which does not touch any cached outcome.
        tracker._ran = True
        return tracker

    # -- the incremental run -------------------------------------------

    def run(self, config: NetworkConfig, full: bool = False) -> IncrementalResult:
        """(Re-)verify against ``config``, reusing everything still valid."""
        if topology_changed(self._config, config):
            # Topology changes regenerate the check set; start over.
            self._outcomes_by_owner.clear()
            self._universe = None
            self._checks_by_owner = None
            self._digests = {}
            self.substrate._reset_substrate()
        self._config = config
        return self._run(config, full=full or not self._ran)

    def _refresh_problem(
        self, config: NetworkConfig, changed: set[str], network_changed: bool
    ) -> None:
        """Rebuild universe/checks only when some verification input changed.

        ``changed`` holds edited router names; ``network_changed`` flags a
        network-level edit (external ASNs), which rescans the universe but
        leaves the check list alone — checks carry predicates and route-map
        names, never ASNs.
        """
        if self._universe is not None and not changed and not network_changed:
            return
        universe = build_universe(
            config, self.invariants, [self.prop.predicate], self.ghosts
        )
        if universe != self._universe:
            # Adopt only on content change; an equal universe keeps the
            # existing object so downstream value-keyed caches stay warm.
            self._universe = universe
            self.universe_builds += 1
        if self._checks_by_owner is None:
            self._checks_by_owner = group_checks_by_owner(
                generate_safety_checks(
                    config, self.invariants, self.prop.location, self.prop.predicate
                )
            )
        else:
            # Refresh only the edited owners' groups (their route-map
            # metadata or originations may have changed); everything else —
            # including the owner-less implication group — carries over.
            fresh_groups = group_checks_by_owner(
                generate_safety_checks(
                    config,
                    self.invariants,
                    self.prop.location,
                    self.prop.predicate,
                    owners=changed,
                )
            )
            for owner in changed:
                self._checks_by_owner[owner] = fresh_groups.get(owner, [])

    def _run(self, config: NetworkConfig, full: bool) -> IncrementalResult:
        start = time.perf_counter()
        new_digests, changed, network_changed = diff_config_snapshot(
            self._digests, config
        )
        self._refresh_problem(config, changed, network_changed)
        universe = self._universe
        groups = self._checks_by_owner
        assert universe is not None and groups is not None

        if full or network_changed:
            # A network-level edit (external ASNs) changes the universe and
            # AS-path semantics under every cached outcome: rerun everything.
            rerun_owners = set(groups)
        else:
            # O(changed owner): only edited routers' groups, plus any group
            # with no cached outcomes yet (first run after a topology reset).
            rerun_owners = {owner for owner in changed if owner in groups}
            rerun_owners |= {
                owner for owner in groups if owner not in self._outcomes_by_owner
            }

        # The reverify plan: one group per invalidated owner, in group
        # order — "reverify after an edit" is just a smaller plan than
        # "full verify", and the scheduler does not care which it got.
        plan = CheckPlan(
            groups=tuple(
                CheckGroup(("safety", owner), tuple(groups[owner]), "reverify")
                for owner in groups
                if owner in rerun_owners
            ),
        )
        cached: list[CheckOutcome] = []
        for owner in groups:
            if owner not in rerun_owners:
                cached.extend(self._outcomes_by_owner[owner])

        substrate = self.substrate
        degradation = DegradationReport()
        result = Scheduler(substrate).run(
            plan,
            config,
            universe,
            self.ghosts,
            conflict_budget=self.conflict_budget,
            run_deadline=substrate._begin_run_deadline(),
            degradation=degradation,
        )
        fresh = result.outcomes
        for owner in rerun_owners:
            key = ("safety", owner)
            self._outcomes_by_owner[owner] = (
                result.group(key) if key in result.results else []
            )
        self._digests = new_digests
        self._ran = True

        report = SafetyReport(
            property=self.prop,
            outcomes=cached + fresh,
            wall_time_s=time.perf_counter() - start,
            degradation=degradation,
        )
        return IncrementalResult(
            report=report,
            rerun_checks=len(fresh),
            cached_checks=len(cached),
            checks_consulted=plan.num_checks,
        )


class DeprecatedVerifierShim:
    """Shared delegation plumbing for the deprecated verifier facades.

    A subclass's ``__init__`` warns, builds the single-property
    ``_workspace``, and registers ``_entry``; everything else — running,
    re-verifying, closing, and resolving legacy introspection attributes
    against the tracker and then the workspace — lives here once.
    """

    _workspace = None  # set by subclass __init__
    _entry = None

    def verify(self):
        """Initial full verification (populates the cache)."""
        self._workspace._run_entry(self._entry)
        return self._entry.last_result

    def reverify(self, new_config: NetworkConfig):
        """Re-verify after a configuration change."""
        self._workspace.apply(new_config)
        self._workspace._run_entry(self._entry)
        return self._entry.last_result

    def close(self) -> None:
        self._workspace.close()

    def __getattr__(self, name: str):
        # Delegate introspection attributes (sessions, _universe,
        # _checks_by_owner, _impl_outcome, universe_builds, _worker_pool,
        # ...) to the tracker first, then the workspace.
        entry = object.__getattribute__(self, "_entry")
        # repro: ignore[shim-fidelity] -- __getattr__ must branch: pre-init
        # access (pickle/copy) has no _entry yet and must raise, not recurse
        if entry is None:
            raise AttributeError(name)
        # repro: ignore[shim-fidelity] -- the tracker-then-workspace probe IS
        # the delegation; there is no single real target to forward to
        if hasattr(entry.tracker, name):
            return getattr(entry.tracker, name)
        return getattr(object.__getattribute__(self, "_workspace"), name)


class IncrementalVerifier(DeprecatedVerifierShim):
    """Deprecated: verify once, then re-verify cheaply after config edits.

    .. deprecated::
        Use :class:`repro.core.workspace.Workspace` — ``verify(prop,
        invariants)`` then ``apply(edited)`` / ``reverify()`` — which
        additionally handles liveness properties, many properties per
        session, and an on-disk outcome cache (``save``/``load``).

    This shim builds a single-property workspace and delegates everything
    to it; results, counters, and session/worker-pool behavior are
    identical to the pre-workspace implementation, and internal attributes
    (``sessions``, ``_universe``, ``_checks_by_owner``, ...) resolve
    against the underlying tracker and workspace.
    """

    def __init__(
        self,
        config: NetworkConfig,
        prop: SafetyProperty,
        invariants: InvariantMap,
        ghosts: tuple[GhostAttribute, ...] = (),
        parallel: int | str | None = None,
        backend: str = "auto",
        conflict_budget: int | None = None,
        sessions: SessionPool | None = None,
        workers: "WorkerPool | Callable[[], WorkerPool | None] | None" = None,
    ) -> None:
        warnings.warn(
            "IncrementalVerifier is deprecated; use repro.core.workspace."
            "Workspace (verify/apply/reverify) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.core.workspace import Workspace

        self._workspace = Workspace(
            config,
            ghosts=ghosts,
            parallel=parallel,
            backend=backend,
            conflict_budget=conflict_budget,
            sessions=sessions,
            workers=workers,
        )
        self.prop = prop
        self.invariants = invariants
        self.ghosts = tuple(ghosts)
        self._entry = self._workspace._ensure_entry(prop, invariants)
