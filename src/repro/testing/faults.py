"""Deterministic fault injection for the verification runtime.

The fault-tolerant execution layer (worker respawn, chunk redispatch,
quarantine, deadlines) is only trustworthy if its recovery paths are
exercised on demand.  This module plants failures at fixed points:

* **kill worker after N chunks** — a :class:`repro.core.exec.WorkerPool`
  worker calls ``os._exit(1)`` on receipt of its Nth chunk,
  before replying, simulating a hard crash mid-run.  ``times`` bounds how
  many worker incarnations die (the parent strips one firing per respawn),
  so "the same chunk kills its worker twice" is a reproducible scenario,
  not a race.
* **delay check by T** — :meth:`repro.core.checks.LocalCheck.run` sleeps
  ``T`` seconds before solving, for checks whose description matches.
* **hang check** — the matching check sleeps until its wall-clock
  deadline has passed (capped, so a forgotten fault cannot stall CI),
  which makes the solver return UNKNOWN with reason ``timeout`` —
  exactly what a pathological SAT instance would do, minus the CPU burn.
* **raise in check** — the matching check raises :class:`FaultInjected`,
  exercising the genuine-exception path (which must propagate, not
  degrade).
* **corrupt cache byte at offset** — :func:`corrupt_file` /
  :func:`truncate_file` damage an on-disk workspace cache so loader
  hardening can be asserted against every byte position, not just "the
  file is missing".

Faults are installed process-wide with :func:`install` (tests) or via the
``REPRO_FAULTS`` environment variable (CLI/subprocess chaos runs), e.g.::

    REPRO_FAULTS="kill_worker_after_chunks=2,kill_times=1,kill_worker_index=0"
    REPRO_FAULTS="delay_check_s=0.5,delay_check_match=import check at R3"

Worker processes do not re-read the environment: the parent pool ships
each worker its :meth:`FaultPlan.worker_faults` slice at spawn time, so a
respawned worker can be handed a plan with the kill fault already
consumed — the property that makes kill-twice scenarios terminate.

Everything here is inert unless a plan is active; the hooks cost one
``None`` check on the hot path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace


class FaultInjected(RuntimeError):
    """The exception the ``raise_in_check`` fault throws."""


# Sleep cap for the hang fault when no deadline bounds it: a hang is
# supposed to be "forever", but an unbounded sleep in a test process that
# forgot to set a deadline would stall the suite instead of failing it.
HANG_CAP_S = 10.0


@dataclass(frozen=True)
class FaultPlan:
    """A declarative set of faults to inject, picklable so pools can ship
    per-worker slices to worker processes."""

    # Kill the targeted worker on receipt of its Nth chunk (1-based),
    # before it replies.  ``kill_times`` incarnations die in total.
    kill_worker_after_chunks: int | None = None
    kill_worker_index: int = 0
    kill_times: int = 1
    # Sleep before solving any check whose description contains the match
    # substring (empty string matches every check).
    delay_check_s: float = 0.0
    delay_check_match: str = ""
    # Sleep past the check's deadline (see HANG_CAP_S) for matching checks.
    hang_check_match: str | None = None
    # Raise FaultInjected from matching checks.
    raise_in_check_match: str | None = None

    @classmethod
    def from_env(cls, env: str | None = None) -> "FaultPlan | None":
        """Parse ``REPRO_FAULTS`` (or ``env``): comma-separated key=value.

        Unknown keys are rejected loudly — a typoed chaos spec silently
        injecting nothing would defeat the point of the harness.
        """
        spec = os.environ.get("REPRO_FAULTS") if env is None else env
        if not spec:
            return None
        fields = {f.name: f.type for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        kwargs: dict = {}
        for item in spec.split(","):
            if not item.strip():
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in fields:
                raise ValueError(
                    f"REPRO_FAULTS: unknown or malformed entry {item!r} "
                    f"(known keys: {', '.join(sorted(fields))})"
                )
            annotation = str(fields[key])
            if "float" in annotation:
                kwargs[key] = float(value)
            elif "int" in annotation:
                kwargs[key] = int(value)
            else:
                kwargs[key] = value
        return cls(**kwargs)

    # -- pool-side helpers ---------------------------------------------

    def worker_faults(self, worker_index: int) -> "FaultPlan | None":
        """The slice of this plan a given worker process should enforce.

        Only the kill fault is worker-scoped; check-level faults travel to
        every worker (they key on check descriptions, not workers).
        Returns ``None`` when nothing applies, so workers skip the hook
        entirely.
        """
        plan = self
        if (
            plan.kill_worker_after_chunks is not None
            and (plan.kill_worker_index != worker_index or plan.kill_times <= 0)
        ):
            plan = replace(plan, kill_worker_after_chunks=None)
        if (
            plan.kill_worker_after_chunks is None
            and not plan.delay_check_s
            and plan.hang_check_match is None
            and plan.raise_in_check_match is None
        ):
            return None
        return plan

    def consume_kill(self) -> "FaultPlan":
        """One worker incarnation died: arm one fewer future firing."""
        if self.kill_worker_after_chunks is None:
            return self
        remaining = self.kill_times - 1
        if remaining <= 0:
            return replace(self, kill_worker_after_chunks=None, kill_times=0)
        return replace(self, kill_times=remaining)

    # -- check-level hooks ---------------------------------------------

    def _matches(self, pattern: str | None, check) -> bool:
        return pattern is not None and pattern in str(check)

    def on_check_start(self, check, deadline_abs: float | None) -> None:
        """Apply check-level faults before a check starts solving."""
        if self._matches(self.raise_in_check_match, check):
            raise FaultInjected(f"injected failure in check: {check}")
        if self.delay_check_s and (
            not self.delay_check_match or self.delay_check_match in str(check)
        ):
            time.sleep(self.delay_check_s)
        if self._matches(self.hang_check_match, check):
            # Sleep until the deadline has definitely passed: the solver
            # then observes the expiry on entry and returns UNKNOWN with
            # reason "timeout", just like a real runaway search.
            if deadline_abs is None:
                time.sleep(HANG_CAP_S)
            else:
                remaining = deadline_abs - time.monotonic()
                if remaining > 0:
                    time.sleep(min(remaining + 0.01, HANG_CAP_S))


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_READ = False


def install(plan: FaultPlan | None) -> None:
    """Install a fault plan process-wide (``None`` clears it)."""
    global _ACTIVE, _ENV_READ
    _ACTIVE = plan
    _ENV_READ = True  # an explicit install wins over the environment


def reset() -> None:
    """Remove any installed plan and re-enable environment lookup."""
    global _ACTIVE, _ENV_READ
    _ACTIVE = None
    _ENV_READ = False


def active_plan() -> FaultPlan | None:
    """The installed plan, else one parsed from ``REPRO_FAULTS`` (cached)."""
    global _ACTIVE, _ENV_READ
    if not _ENV_READ:
        _ACTIVE = FaultPlan.from_env()
        _ENV_READ = True
    return _ACTIVE


def on_check_start(check, deadline_abs: float | None = None) -> None:
    """Hot-path hook called by :meth:`LocalCheck.run`; no-op when inert."""
    plan = active_plan()
    if plan is not None:
        plan.on_check_start(check, deadline_abs)


# ---------------------------------------------------------------------------
# Cache corruption helpers
# ---------------------------------------------------------------------------


def corrupt_file(path, offset: int, flip: int = 0xFF) -> None:
    """XOR the byte at ``offset`` (negative = from the end) with ``flip``.

    Used by the cache-resilience tests to assert that a damaged workspace
    cache is rejected with a readable error at *every* byte position, not
    just when the header happens to be hit.
    """
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            raise ValueError(f"{path} is empty; nothing to corrupt")
        position = offset % size
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ (flip & 0xFF)]))


def truncate_file(path, keep_bytes: int) -> None:
    """Truncate a file to its first ``keep_bytes`` bytes."""
    with open(path, "r+b") as handle:
        handle.truncate(max(0, keep_bytes))
