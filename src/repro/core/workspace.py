"""The session-oriented verification workspace — Lightyear's public API.

Four PRs of performance work converged on one architecture: every entry
point (safety, liveness, incremental safety, incremental liveness) wants
the same persistent substrate — an owner-keyed :class:`SessionPool`, an
optional process-backend :class:`WorkerPool`, per-router policy digests,
one covering attribute universe, and an owner-indexed outcome store.
:class:`Workspace` owns all of it once, the way an incremental SAT solver
exposes one long-lived solver object instead of per-call functions:

    ws = Workspace(config, ghosts=(ghost,))
    report = ws.verify(prop, invariants)        # safety or liveness
    ws.apply(edited_config)
    for entry in ws.reverify():                 # O(changed owner) each
        print(entry.last_result.report.summary())

``verify`` is property-polymorphic: a :class:`SafetyProperty` runs the §4
pipeline, a :class:`LivenessProperty` the §5 pipeline, both against the
workspace's shared pools.  Each verified property gets a persistent
*tracker* (:class:`repro.core.incremental.SafetyTracker` /
:class:`repro.core.incremental_liveness.LivenessTracker`) holding its
owner-indexed check/outcome cache, so re-verifying after ``apply`` —
or simply calling ``verify`` again — consults only the checks a config
edit invalidated.

**On-disk outcome cache.**  ``save(path)`` persists the digests, check
lists, and outcomes of every tracker in a versioned file keyed by a
config+spec fingerprint; ``Workspace.load(path, config=...)`` restores
them in a fresh process.  A second ``lightyear reverify --cache DIR``
invocation thus skips the base run entirely and consults only the edited
owners' checks.  Solver sessions are process-local and never persisted.
A cache whose fingerprint does not match the offered configuration or
spec is rejected with :class:`WorkspaceCacheMismatch`.

The legacy entry points — ``verify_safety``/``verify_liveness`` free
functions, the :class:`repro.core.engine.Lightyear` facade, and the two
``Incremental*Verifier`` classes — remain as thin deprecation shims over
this class.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.bgp.config import NetworkConfig
from repro.core.exec import ExecutionContext
from repro.core.incremental import (
    SafetyTracker,
    config_digests,
    diff_digests,
)
from repro.core.incremental_liveness import LivenessTracker
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import VerificationReport
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from typing import Callable

    from repro.core.exec import WorkerPool
    from repro.core.liveness import LivenessReport
    from repro.core.safety import SafetyReport
    from repro.smt.solver import SessionPool


# Bump whenever the pickled cache layout changes; a loader never guesses.
# Format 2: CheckOutcome records ``unknown_reason`` (deadline/budget
# attribution), so format-1 outcomes would deserialize incompletely.
# Format 3 added a per-owner learnt-clause section; format 4 drops it
# again and prefixes the pickled state with a header holding its sha256.
CACHE_FORMAT = 4


class WorkspaceCacheError(ValueError):
    """An on-disk workspace cache could not be used (unreadable, wrong
    format version, corrupt payload)."""


class WorkspaceCacheMismatch(WorkspaceCacheError):
    """The cache exists and parses, but was saved for a different
    configuration, ghost set, or spec (fingerprint mismatch)."""


# Placeholder digest save() writes before the real one is known; the
# header pickles to the same length either way.
_NO_DIGEST = "0" * 64


def _cache_header(sha256: str) -> bytes:
    return pickle.dumps(
        {"format": CACHE_FORMAT, "sha256": sha256}, protocol=pickle.HIGHEST_PROTOCOL
    )


class _HashingWriter:
    """A write-only file wrapper that hashes everything written through it."""

    def __init__(self, handle: BinaryIO) -> None:
        self.handle = handle
        self.sha = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.sha.update(data)
        return self.handle.write(data)


def _read_cache_state(handle: BinaryIO, path: object) -> Any:
    """Check a cache file's header and digest, then unpickle its state.

    The digest covers every byte after the header, so a flipped byte
    anywhere fails here instead of unpickling into valid-looking but wrong
    outcomes.  Hashing streams the file in chunks, as does the unpickling.
    """
    try:
        header = pickle.load(handle)
    except Exception as exc:  # unpickling garbage
        raise WorkspaceCacheError(
            f"workspace cache at {path} is corrupt or not a cache: {exc}"
        ) from exc
    if not isinstance(header, dict) or "format" not in header:
        raise WorkspaceCacheError(f"workspace cache at {path} is not a workspace cache")
    if header["format"] != CACHE_FORMAT:
        raise WorkspaceCacheError(
            f"workspace cache at {path} has format {header['format']}, "
            f"this build reads format {CACHE_FORMAT}; delete it and rerun"
        )
    start = handle.tell()
    sha = hashlib.sha256()
    for chunk in iter(lambda: handle.read(1 << 20), b""):
        sha.update(chunk)
    if sha.hexdigest() != header.get("sha256"):
        raise WorkspaceCacheError(
            f"workspace cache at {path} is corrupt: integrity check failed"
        )
    handle.seek(start)
    try:
        return pickle.load(handle)
    except Exception as exc:
        raise WorkspaceCacheError(
            f"workspace cache at {path} is corrupt: {exc!r}"
        ) from exc


@dataclass
class WorkspaceStats:
    """Aggregated measurements across one or more verification runs."""

    num_checks: int = 0
    max_vars: int = 0
    max_clauses: int = 0
    wall_time_s: float = 0.0
    solve_time_s: float = 0.0

    def absorb(self, report: VerificationReport) -> None:
        self.num_checks += report.num_checks
        self.max_vars = max(self.max_vars, report.max_vars)
        self.max_clauses = max(self.max_clauses, report.max_clauses)
        self.wall_time_s += report.wall_time_s
        self.solve_time_s += report.solve_time_s


@dataclass
class WorkspaceEntry:
    """One property registered with a workspace: its tracker plus the most
    recent run's result (report + consultation counters)."""

    kind: str  # "safety" | "liveness"
    property: SafetyProperty | LivenessProperty
    fingerprint: str
    tracker: SafetyTracker | LivenessTracker
    # IncrementalResult | IncrementalLivenessResult (typed dynamically:
    # the two result families share only their report attribute).
    last_result: Any = None

    @property
    def report(self) -> Any:
        """The most recent run's report, if any."""
        return None if self.last_result is None else self.last_result.report


# ---------------------------------------------------------------------------
# Content fingerprints (cache identity)
# ---------------------------------------------------------------------------


def _invariant_map_fp(
    invariants: InvariantMap | None,
) -> tuple[str, tuple[tuple[str, str], ...]] | None:
    """Canonical content of an invariant map (order-insensitive).

    Predicate ``repr``\\ s are content-determined dataclass renderings, so
    this is stable across processes — the property pickled cache
    fingerprints need.
    """
    if invariants is None:
        return None
    return (
        repr(invariants.default),
        tuple(
            sorted(
                (str(loc), repr(invariants.get(loc)))
                for loc in invariants.overridden_locations()
            )
        ),
    )


def _ghosts_fp(ghosts: tuple[GhostAttribute, ...]) -> tuple[object, ...]:
    """Canonical, order-insensitive content of a ghost-attribute set."""
    return tuple(
        sorted(
            (
                g.name,
                g.originated_value,
                tuple(sorted(g.import_updates.items())),
                tuple(sorted(g.export_updates.items())),
            )
            for g in ghosts
        )
    )


def _entry_fingerprint(
    kind: str,
    prop: SafetyProperty | LivenessProperty,
    invariants: InvariantMap | None,
    interference_invariants: dict[str, InvariantMap] | None,
    conflict_budget: int | None,
) -> str:
    interference_fp = None
    if interference_invariants is not None:
        interference_fp = tuple(
            sorted(
                (router, _invariant_map_fp(inv))
                for router, inv in interference_invariants.items()
            )
        )
    payload = (
        kind,
        repr(prop),
        _invariant_map_fp(invariants),
        interference_fp,
        conflict_budget,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _topology_fp(config: NetworkConfig) -> tuple[object, ...]:
    return (
        tuple(sorted(config.topology.routers)),
        tuple(sorted(config.topology.edges)),
    )


# ---------------------------------------------------------------------------
# The workspace
# ---------------------------------------------------------------------------


class Workspace(ExecutionContext):
    """One verification session over one network configuration.

    Parameters
    ----------
    config:
        The parsed network (topology + per-router policies).  Validated on
        construction.
    ghosts:
        Ghost-attribute definitions available to properties and invariants.
    parallel:
        Worker count for independent local checks: an integer, ``"auto"``
        (one per core), or ``None``/``1`` for the serial path.
    backend:
        Execution strategy: ``"auto"``/``"process"`` run checks as worker
        *processes* chunked by owner router (the paper's per-device model,
        with a serial fallback), ``"serial"`` forces in-process execution.
    conflict_budget:
        Default per-check SAT conflict budget for every ``verify`` call
        (overridable per call).
    deadline_s:
        Wall-clock cap, in seconds, for each individual check's solve;
        a check that exceeds it comes back UNKNOWN with reason
        ``timeout`` instead of hanging the run.
    wall_budget_s:
        Wall-clock cap for each ``verify``/``reverify`` run; once spent,
        the remaining checks come back UNKNOWN with reason
        ``wall-budget`` and the report carries the partial results.
        :meth:`ExecutionContext.set_run_deadline` instead pins one
        absolute deadline across several runs.  Neither deadline is part
        of a cache fingerprint — they bound execution, not the problem.
    sessions / workers:
        Borrow an externally owned :class:`SessionPool` / persistent
        :class:`WorkerPool` (or a lazy supplier of one) instead of owning
        fresh pools; the workspace then never clears or closes them.

    The workspace is a context manager; ``close()`` releases the owned
    worker processes (sessions need no teardown).
    """

    def __init__(
        self,
        config: NetworkConfig,
        ghosts: tuple[GhostAttribute, ...] = (),
        parallel: int | str | None = None,
        backend: str = "auto",
        conflict_budget: int | None = None,
        sessions: "SessionPool | None" = None,
        workers: "WorkerPool | Callable[[], WorkerPool | None] | None" = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> None:
        problems = config.validate()
        if problems:
            raise ValueError("invalid network configuration: " + "; ".join(problems))
        super().__init__(
            parallel,
            backend,
            conflict_budget,
            sessions,
            workers,
            deadline_s=deadline_s,
            wall_budget_s=wall_budget_s,
        )
        self.config = config
        self.ghosts = tuple(ghosts)
        self.stats = WorkspaceStats()
        self._entries: list[WorkspaceEntry] = []

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- registration --------------------------------------------------

    @property
    def entries(self) -> tuple[WorkspaceEntry, ...]:
        """Every property registered so far, in registration order."""
        return tuple(self._entries)

    def invariants(self, default: Predicate | None = None) -> InvariantMap:
        """A fresh invariant map over this network's topology."""
        return InvariantMap(self.config.topology, default=default)

    def _normalize(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None,
        interference_invariants: dict[str, InvariantMap] | None,
        conflict_budget: int | None,
    ) -> tuple[
        str,
        InvariantMap | None,
        dict[str, InvariantMap] | None,
        int | None,
        str,
    ]:
        """(kind, invariants, interference, budget, fingerprint) for a request."""
        budget = (
            conflict_budget if conflict_budget is not None else self.conflict_budget
        )
        if isinstance(prop, SafetyProperty):
            if interference_invariants is not None:
                raise TypeError(
                    "interference_invariants only applies to liveness properties"
                )
            inv = (
                invariants
                if invariants is not None
                else InvariantMap(self.config.topology)
            )
            fingerprint = _entry_fingerprint("safety", prop, inv, None, budget)
            return "safety", inv, None, budget, fingerprint
        if isinstance(prop, LivenessProperty):
            if interference_invariants is None and isinstance(invariants, dict):
                # Positional convenience: ws.verify(liveness_prop, {...}).
                interference_invariants = invariants
            elif invariants is not None:
                raise TypeError(
                    "liveness properties take interference_invariants, not an "
                    "invariant map"
                )
            fingerprint = _entry_fingerprint(
                "liveness", prop, None, interference_invariants, budget
            )
            return "liveness", None, interference_invariants, budget, fingerprint
        raise TypeError(
            f"expected a SafetyProperty or LivenessProperty, got {prop!r}"
        )

    def _ensure_entry(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
        *,
        interference_invariants: dict[str, InvariantMap] | None = None,
        conflict_budget: int | None = None,
    ) -> WorkspaceEntry:
        """The entry for a property, registered (not run) on first sight."""
        kind, inv, interference, budget, fingerprint = self._normalize(
            prop, invariants, interference_invariants, conflict_budget
        )
        for entry in self._entries:
            if entry.fingerprint == fingerprint:
                return entry
        if kind == "safety":
            tracker: SafetyTracker | LivenessTracker = SafetyTracker(
                self, self.config, prop, inv, self.ghosts, budget
            )
        else:
            tracker = LivenessTracker(
                self, self.config, prop, interference, self.ghosts, budget
            )
        entry = WorkspaceEntry(
            kind=kind, property=prop, fingerprint=fingerprint, tracker=tracker
        )
        self._entries.append(entry)
        return entry

    def entry(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
        *,
        interference_invariants: dict[str, InvariantMap] | None = None,
        conflict_budget: int | None = None,
    ) -> WorkspaceEntry | None:
        """The registered entry matching this exact problem, if any.

        Matching is by content fingerprint (property, invariants, budget),
        so it finds cache-loaded entries for freshly parsed, equal
        problems — object identity plays no part.
        """
        __, ___, ____, _____, fingerprint = self._normalize(
            prop, invariants, interference_invariants, conflict_budget
        )
        for entry in self._entries:
            if entry.fingerprint == fingerprint:
                return entry
        return None

    def has_entry(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
        *,
        interference_invariants: dict[str, InvariantMap] | None = None,
        conflict_budget: int | None = None,
    ) -> bool:
        """Whether this exact property (same invariants/budget) is registered.

        Used by the CLI to check that a loaded cache covers the spec it is
        about to run.
        """
        return (
            self.entry(
                prop,
                invariants,
                interference_invariants=interference_invariants,
                conflict_budget=conflict_budget,
            )
            is not None
        )

    # -- verification --------------------------------------------------

    def _run_entry(self, entry: WorkspaceEntry, full: bool = False) -> Any:
        """Run one entry's tracker against the current config."""
        result = entry.tracker.run(self.config, full=full)
        entry.last_result = result
        self.stats.absorb(result.report)
        return result

    def verify(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
        *,
        interference_invariants: dict[str, InvariantMap] | None = None,
        conflict_budget: int | None = None,
    ) -> "SafetyReport | LivenessReport":
        """Verify a property against the current configuration.

        Dispatches on the property type: a :class:`SafetyProperty` runs
        the §4 pipeline (``invariants`` supplies the user's network
        invariants, defaulting to ``True`` everywhere), a
        :class:`LivenessProperty` the §5 pipeline
        (``interference_invariants`` optionally maps path routers to the
        invariant maps proving their no-interference sub-proofs).

        The first ``verify`` of a property runs every generated check and
        caches the outcomes in an owner index; any later ``verify`` of the
        same property — including after :meth:`apply` — re-runs only what
        changed, exactly like :meth:`reverify`.  Changing the invariants
        or budget registers a separate entry (those inputs touch every
        check).  Returns the pipeline's report; the consultation counters
        live on the matching :attr:`entries` element's ``last_result``.
        """
        entry = self._ensure_entry(
            prop,
            invariants,
            interference_invariants=interference_invariants,
            conflict_budget=conflict_budget,
        )
        return self._run_entry(entry).report

    def apply(self, edit: NetworkConfig) -> set[str]:
        """Stage an edited configuration for subsequent runs.

        Returns the set of changed digest keys (router names, plus the
        network-level key if external ASNs changed).  The edit is *not*
        re-validated — real incident configs are routinely inconsistent in
        ways the symbolic pipeline tolerates (e.g. a stale ``remote-as``
        after :meth:`NetworkConfig.set_external_asn`); callers that want
        strict checking run ``edit.validate()`` themselves, as the CLI
        does.  Topology changes are allowed and reset the affected
        trackers' caches on their next run.
        """
        changed = diff_digests(config_digests(self.config), config_digests(edit))
        self.config = edit
        return changed

    def reverify(
        self, entries: "list[WorkspaceEntry] | None" = None
    ) -> list[WorkspaceEntry]:
        """Re-verify registered properties against the current config.

        Each entry re-runs only the owner groups its tracker's digest diff
        invalidated (O(changed owner)); the returned entries carry the new
        reports and consultation counters in ``last_result``.  By default
        every registered property runs; pass ``entries`` (from
        :meth:`entry`/:attr:`entries`) to re-verify a subset — the CLI
        uses this so a cache holding more properties than the requested
        spec answers only for the spec.
        """
        selected = list(self._entries) if entries is None else list(entries)
        for entry in selected:
            self._run_entry(entry)
        return selected

    # -- persistence ---------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> None:
        """Persist digests, check lists, and outcomes to ``path``.

        The file is versioned and fingerprinted by configuration digests,
        ghost definitions, and the registered spec; :meth:`load` refuses a
        mismatch.  Solver sessions are not persisted (their encodings are
        process-local).  A header carrying the state's sha256 precedes
        it, so :meth:`load` rejects a file damaged anywhere.
        """
        state = {
            "config_digests": config_digests(self.config),
            "topology": _topology_fp(self.config),
            "ghosts_fp": _ghosts_fp(self.ghosts),
            "config": self.config,
            "ghosts": self.ghosts,
            "entries": [
                {"kind": entry.kind, "state": entry.tracker.state_dict()}
                for entry in self._entries
            ],
        }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so a crashed save never leaves a truncated
        # cache for the next invocation to trip over.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                # Header first with a placeholder digest, then the state
                # streamed through the hash (never held as one bytes
                # object), then the real header over the placeholder.
                handle.write(_cache_header(_NO_DIGEST))
                writer = _HashingWriter(handle)
                pickle.dump(state, writer, protocol=pickle.HIGHEST_PROTOCOL)
                handle.seek(0)
                handle.write(_cache_header(writer.sha.hexdigest()))
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load(
        cls,
        path: str | os.PathLike[str],
        config: NetworkConfig | None = None,
        ghosts: tuple[GhostAttribute, ...] | None = None,
        parallel: int | str | None = None,
        backend: str = "auto",
        conflict_budget: int | None = None,
        sessions: "SessionPool | None" = None,
        workers: "WorkerPool | Callable[[], WorkerPool | None] | None" = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> "Workspace":
        """Restore a workspace (outcome caches included) from :meth:`save`.

        ``config``/``ghosts`` default to the saved objects; when supplied
        (the CLI passes the freshly parsed base configuration), their
        content fingerprints must match the saved ones —
        :class:`WorkspaceCacheMismatch` otherwise, so a cache can never
        silently answer for a different network or ghost set.  Execution
        parameters (``parallel``/``backend``/pools) are not part of the
        fingerprint; pass whatever this process should use.
        """
        try:
            with open(path, "rb") as handle:
                state = _read_cache_state(handle, path)
        except OSError as exc:
            raise WorkspaceCacheError(f"cannot read workspace cache: {exc}") from exc
        # The payload passed its integrity check, but it may still come from
        # a buggy or hand-built writer: a wrong shape must surface as
        # WorkspaceCacheError, never a raw KeyError/TypeError.
        try:
            if config is None:
                config = state["config"]
            elif (
                config_digests(config) != state["config_digests"]
                or _topology_fp(config) != state["topology"]
            ):
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} was saved for a different "
                    f"configuration (policy digests differ); delete it or rerun "
                    f"without the cache"
                )
            if ghosts is None:
                ghosts = state["ghosts"]
            elif _ghosts_fp(tuple(ghosts)) != state["ghosts_fp"]:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} was saved with different ghost "
                    f"definitions; delete it or rerun without the cache"
                )
            workspace = cls(
                config,
                ghosts=tuple(ghosts),
                parallel=parallel,
                backend=backend,
                conflict_budget=conflict_budget,
                sessions=sessions,
                workers=workers,
                deadline_s=deadline_s,
                wall_budget_s=wall_budget_s,
            )
            for doc in state["entries"]:
                kind = doc["kind"]
                tracker_state = doc["state"]
                if kind == "safety":
                    tracker: SafetyTracker | LivenessTracker = SafetyTracker.from_state(
                        workspace, tracker_state, workspace.ghosts
                    )
                    fingerprint = _entry_fingerprint(
                        kind,
                        tracker.prop,
                        tracker.invariants,
                        None,
                        tracker.conflict_budget,
                    )
                elif kind == "liveness":
                    tracker = LivenessTracker.from_state(
                        workspace, tracker_state, workspace.ghosts
                    )
                    fingerprint = _entry_fingerprint(
                        kind,
                        tracker.prop,
                        None,
                        tracker.interference_invariants,
                        tracker.conflict_budget,
                    )
                else:
                    raise WorkspaceCacheError(
                        f"workspace cache at {path} holds an unknown entry kind "
                        f"{kind!r}"
                    )
                # Trackers carry their own config snapshot for topology-change
                # detection; point them at this process's (content-equal) one.
                tracker._config = workspace.config
                workspace._entries.append(
                    WorkspaceEntry(
                        kind=kind,
                        property=tracker.prop,
                        fingerprint=fingerprint,
                        tracker=tracker,
                    )
                )
        except WorkspaceCacheError:
            raise
        except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
            raise WorkspaceCacheError(
                f"workspace cache at {path} is corrupt: {exc!r}"
            ) from exc
        return workspace
