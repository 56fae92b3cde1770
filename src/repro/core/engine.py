"""The Lightyear engine facade — now a deprecated shim over ``Workspace``.

``Lightyear`` predates :class:`repro.core.workspace.Workspace`, which
owns the same substrate (one engine-wide :class:`repro.smt.SessionPool`,
one persistent :class:`repro.core.exec.WorkerPool` when the process
backend is active) and adds property-polymorphic ``verify``, incremental
``apply``/``reverify``, and an on-disk outcome cache.  The facade remains
so existing callers keep working: every method delegates to an internal
workspace, ``verify_safety``/``verify_liveness`` emit a
:class:`DeprecationWarning`, and the measurement surface
(:class:`EngineStats`, ``sessions``, context-manager lifecycle) is the
workspace's own.

``incremental_safety`` / ``incremental_liveness`` still hand out the
(deprecated) incremental verifiers, borrowing the engine's pools — the
modern equivalent is simply more ``verify`` calls on one workspace.
"""

from __future__ import annotations

import warnings

from repro.bgp.config import NetworkConfig
from repro.core.incremental import IncrementalVerifier
from repro.core.incremental_liveness import IncrementalLivenessVerifier
from repro.core.liveness import LivenessReport
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.safety import SafetyReport
from repro.core.workspace import Workspace, WorkspaceStats
from repro.lang.ghost import GhostAttribute

# The historical name; the stats object itself now lives with Workspace.
EngineStats = WorkspaceStats


class Lightyear:
    """Deprecated facade: verify end-to-end BGP properties via local checks.

    .. deprecated::
        Use :class:`repro.core.workspace.Workspace`; its ``verify`` method
        accepts safety and liveness properties alike, and
        ``apply``/``reverify``/``save``/``load`` subsume the incremental
        verifier factories.

    Parameters mirror :class:`Workspace` (config, ghosts, parallel,
    backend); ``verify_safety``/``verify_liveness`` delegate to the
    workspace's polymorphic ``verify`` and warn.
    """

    def __init__(
        self,
        config: NetworkConfig,
        ghosts: tuple[GhostAttribute, ...] = (),
        parallel: int | str | None = None,
        backend: str = "auto",
    ) -> None:
        self._workspace = Workspace(
            config, ghosts=ghosts, parallel=parallel, backend=backend
        )
        self.config = config
        self.ghosts = tuple(ghosts)
        self.parallel = parallel
        self.backend = backend

    @property
    def stats(self) -> WorkspaceStats:
        return self._workspace.stats

    @property
    def sessions(self):
        return self._workspace.sessions

    @property
    def workspace(self) -> Workspace:
        """The underlying workspace (migration escape hatch)."""
        return self._workspace

    def _workers(self):
        """The engine's persistent worker pool, created on first use."""
        return self._workspace._workers()

    def close(self) -> None:
        """Release the persistent worker processes, if any."""
        self._workspace.close()

    def __enter__(self) -> "Lightyear":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def invariants(self, default=None) -> InvariantMap:
        """A fresh invariant map over this network's topology."""
        return self._workspace.invariants(default=default)

    def verify_safety(
        self,
        prop: SafetyProperty,
        invariants: InvariantMap,
        conflict_budget: int | None = None,
    ) -> SafetyReport:
        """Run the §4 pipeline for one safety property (deprecated)."""
        warnings.warn(
            "Lightyear.verify_safety is deprecated; use Workspace.verify",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._workspace.verify(
            prop, invariants, conflict_budget=conflict_budget
        )

    def verify_liveness(
        self,
        prop: LivenessProperty,
        interference_invariants: dict[str, InvariantMap] | None = None,
        conflict_budget: int | None = None,
    ) -> LivenessReport:
        """Run the §5 pipeline for one liveness property (deprecated)."""
        warnings.warn(
            "Lightyear.verify_liveness is deprecated; use Workspace.verify",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._workspace.verify(
            prop,
            interference_invariants=interference_invariants,
            conflict_budget=conflict_budget,
        )

    def incremental_safety(
        self,
        prop: SafetyProperty,
        invariants: InvariantMap,
        conflict_budget: int | None = None,
    ) -> IncrementalVerifier:
        """An incremental §4 verifier borrowing this engine's pools.

        The verifier shares the engine's ``SessionPool`` (encodings built
        by earlier ``verify_*`` calls are reused) and draws workers from
        the engine's persistent pool lazily, so it never spawns or owns
        processes of its own — the engine's ``close()`` remains the single
        release point.
        """
        return IncrementalVerifier(
            self.config,
            prop,
            invariants,
            ghosts=self.ghosts,
            parallel=self.parallel,
            backend=self.backend,
            conflict_budget=conflict_budget,
            sessions=self.sessions,
            workers=self._workspace._workers,
        )

    def incremental_liveness(
        self,
        prop: LivenessProperty,
        interference_invariants: dict[str, InvariantMap] | None = None,
        conflict_budget: int | None = None,
    ) -> IncrementalLivenessVerifier:
        """An incremental §5 verifier borrowing this engine's pools."""
        return IncrementalLivenessVerifier(
            self.config,
            prop,
            interference_invariants=interference_invariants,
            ghosts=self.ghosts,
            parallel=self.parallel,
            backend=self.backend,
            conflict_budget=conflict_budget,
            sessions=self.sessions,
            workers=self._workspace._workers,
        )
