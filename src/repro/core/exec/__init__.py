"""The unified execution runtime: plan → scheduler → backend.

Every verification path — ``verify_safety``/``run_checks``, the §5
liveness pipeline, the incremental trackers, and the workspace — builds
a :class:`CheckPlan` and hands it to a :class:`Scheduler` bound to an
:class:`ExecutionContext`.  The three layers:

* :mod:`repro.core.exec.plan` — *what* to run: keyed, stage-aware check
  groups (property-agnostic; "full verify", "reverify after edit", and
  "one sub-proof" are all just plans);
* :mod:`repro.core.exec.scheduler` — *when*: one dispatch loop owning
  deadlines, budgets, degradation recording, outcome ordering, and
  cross-stage pipelining;
* :mod:`repro.core.exec.backends` — *how*: serial sessions or worker
  processes (:mod:`repro.core.exec.pool`), behind one protocol.

This is the seam a future ``lightyear serve`` daemon (queueing and
interleaving plans across requests) and host-level owner-sharding (a
coordinator partitioning one plan across backends) plug into.
"""

from repro.core.exec.backends import (
    Backend,
    BatchRequest,
    ProcessBackend,
    SerialBackend,
)
from repro.core.exec.context import (
    BACKENDS,
    ENV_BACKEND,
    ExecutionContext,
    resolve_jobs,
)
from repro.core.exec.plan import CheckGroup, CheckPlan, GroupKey, Stage
from repro.core.exec.pool import WorkerPool, chunk_by_owner, run_checks_in_processes
from repro.core.exec.scheduler import GroupResult, PlanResult, Scheduler

__all__ = [
    "BACKENDS",
    "Backend",
    "BatchRequest",
    "CheckGroup",
    "CheckPlan",
    "ENV_BACKEND",
    "ExecutionContext",
    "GroupKey",
    "GroupResult",
    "PlanResult",
    "ProcessBackend",
    "Scheduler",
    "SerialBackend",
    "Stage",
    "WorkerPool",
    "chunk_by_owner",
    "resolve_jobs",
    "run_checks_in_processes",
]
