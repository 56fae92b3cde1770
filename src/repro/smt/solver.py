"""Public solver facade: assertions in, SAT/UNSAT plus models out.

Two entry points share the same bit-blast → Tseitin → CDCL pipeline:

* :class:`Solver` is the one-shot interface — collect assertions, build a
  fresh encoding, decide it.  Simple and hermetic; used by the monolithic
  Minesweeper baseline and anywhere a single query is discharged.
* :class:`CheckSession` is the reusable interface Lightyear's local checks
  go through.  A session keeps one SAT solver, one bit-blaster, and one
  Tseitin encoder alive across many checks: the hash-consed term DAG means
  structurally shared fragments (the symbolic route, the well-formedness
  constraint, repeated transfer functions) are lowered and clause-encoded
  exactly once, and each individual check is discharged with
  ``solve(assumptions=...)`` against the accumulated clause database.
  Soundness: the session never *asserts* a check's constraints — they enter
  as assumption literals scoped to one solve — and every clause in the
  database is a definitional Tseitin equivalence (plus the owner route's
  well-formedness, which every check of the session assumes anyway), so
  learnt clauses carry over between checks without affecting any later
  answer.

``Model`` evaluates *original* terms (including bit-vectors) against the
SAT assignment so callers never see the bit-level encoding.  ``prove``
wraps the refutation idiom used throughout Lightyear: a check ``A => B``
passes iff ``A and not B`` is unsatisfiable.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, KeysView, Sequence

from repro.smt import terms as T
from repro.smt.bitblast import Bitblaster
from repro.smt.sat import SatSolver, SatStats
from repro.smt.terms import Term
from repro.smt.tseitin import Tseitin


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Size and timing data for one ``check()`` call.

    For a :class:`CheckSession` these are *marginal* figures: the variables
    and clauses a check added on top of the session's shared encoding, and
    the search effort of its own solve call.  That keeps the paper's
    per-check-size claim (Fig. 3b) measurable under encoding reuse.
    """

    num_vars: int = 0
    num_clauses: int = 0
    build_time_s: float = 0.0
    solve_time_s: float = 0.0
    sat: SatStats = field(default_factory=SatStats)
    # Why the answer was UNKNOWN: "conflicts" (budget) or "timeout"
    # (wall-clock deadline).  None for decided answers.
    unknown_reason: str | None = None
    # Conjuncts this check skipped because the session pre-asserted them
    # into the clause DB.
    shared_skipped: int = 0

    @property
    def total_time_s(self) -> float:
        return self.build_time_s + self.solve_time_s


class Model:
    """A satisfying assignment, queried at the term level."""

    def __init__(
        self, bool_values: dict[Term, bool], bv_values: dict[Term, int]
    ) -> None:
        self._bools = bool_values
        self._bvs = bv_values
        self._memo: dict[Term, bool | int] = {}

    def eval_bool(self, term: Term) -> bool:
        value = self._eval(term)
        if not isinstance(value, bool):
            raise TypeError(f"{term!r} is not boolean-sorted")
        return value

    def eval_bv(self, term: Term) -> int:
        value = self._eval(term)
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{term!r} is not bit-vector-sorted")
        return value

    def _eval(self, term: Term) -> bool | int:
        """Evaluate a term, memoised over the DAG.

        Recursion is the fast path; if the DAG is deep enough to exhaust
        the interpreter stack (counterexamples from very large policies),
        evaluation restarts on an explicit worklist, reusing whatever the
        recursive attempt already memoised.
        """
        memo = self._memo
        if term in memo:
            return memo[term]
        try:
            return self._eval_rec(term)
        except RecursionError:
            self._eval_iter(term)
            return memo[term]

    def _eval_iter(self, term: Term) -> None:
        memo = self._memo
        stack = [term]
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            missing = [k for k in t.children() if k not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[t] = self._eval_node(t)
            stack.pop()

    def _eval_node(self, term: Term) -> bool | int:
        """Evaluate one node whose children are already in the memo."""
        memo = self._memo
        if isinstance(term, T.BoolConst):
            return term.value
        if isinstance(term, T.BoolVar):
            return self._bools.get(term, False)
        if isinstance(term, T.Not):
            return not memo[term.arg]
        if isinstance(term, T.And):
            return all(memo[a] for a in term.args)
        if isinstance(term, T.Or):
            return any(memo[a] for a in term.args)
        if isinstance(term, T.Ite):
            return memo[term.then] if memo[term.cond] else memo[term.els]
        if isinstance(term, T.BvVar):
            return self._bvs.get(term, 0)
        if isinstance(term, T.BvConst):
            return term.value
        if isinstance(term, T.BvEq):
            return memo[term.lhs] == memo[term.rhs]
        if isinstance(term, T.BvUlt):
            return memo[term.lhs] < memo[term.rhs]
        if isinstance(term, T.BvUle):
            return memo[term.lhs] <= memo[term.rhs]
        if isinstance(term, T.BvAnd):
            return memo[term.lhs] & memo[term.rhs]
        if isinstance(term, T.BvOr):
            return memo[term.lhs] | memo[term.rhs]
        if isinstance(term, T.BvXor):
            return memo[term.lhs] ^ memo[term.rhs]
        if isinstance(term, T.BvNot):
            mask = (1 << term.width) - 1
            return ~memo[term.arg] & mask
        if isinstance(term, T.BvAdd):
            mask = (1 << term.width) - 1
            return (memo[term.lhs] + memo[term.rhs]) & mask
        if isinstance(term, T.BvIte):
            return memo[term.then] if memo[term.cond] else memo[term.els]
        raise TypeError(f"cannot evaluate {term!r}")

    def _eval_rec(self, term: Term) -> bool | int:
        memo = self._memo
        if term in memo:
            return memo[term]
        value = self._eval_rec_uncached(term)
        memo[term] = value
        return value

    def _eval_rec_uncached(self, term: Term) -> bool | int:
        if isinstance(term, T.BoolConst):
            return term.value
        if isinstance(term, T.BoolVar):
            return self._bools.get(term, False)
        if isinstance(term, T.Not):
            return not self._eval_rec(term.arg)
        if isinstance(term, T.And):
            return all(self._eval_rec(a) for a in term.args)
        if isinstance(term, T.Or):
            return any(self._eval_rec(a) for a in term.args)
        if isinstance(term, T.Ite):
            return (
                self._eval_rec(term.then)
                if self._eval_rec(term.cond)
                else self._eval_rec(term.els)
            )
        if isinstance(term, T.BvVar):
            return self._bvs.get(term, 0)
        if isinstance(term, T.BvConst):
            return term.value
        if isinstance(term, T.BvEq):
            return self._eval_rec(term.lhs) == self._eval_rec(term.rhs)
        if isinstance(term, T.BvUlt):
            return self._eval_rec(term.lhs) < self._eval_rec(term.rhs)
        if isinstance(term, T.BvUle):
            return self._eval_rec(term.lhs) <= self._eval_rec(term.rhs)
        if isinstance(term, T.BvAnd):
            return self._eval_rec(term.lhs) & self._eval_rec(term.rhs)
        if isinstance(term, T.BvOr):
            return self._eval_rec(term.lhs) | self._eval_rec(term.rhs)
        if isinstance(term, T.BvXor):
            return self._eval_rec(term.lhs) ^ self._eval_rec(term.rhs)
        if isinstance(term, T.BvNot):
            mask = (1 << term.width) - 1
            return ~self._eval_rec(term.arg) & mask
        if isinstance(term, T.BvAdd):
            mask = (1 << term.width) - 1
            return (self._eval_rec(term.lhs) + self._eval_rec(term.rhs)) & mask
        if isinstance(term, T.BvIte):
            return (
                self._eval_rec(term.then)
                if self._eval_rec(term.cond)
                else self._eval_rec(term.els)
            )
        raise TypeError(f"cannot evaluate {term!r}")


def _extract_model(sat: SatSolver, tseitin: Tseitin, blaster: Bitblaster) -> Model:
    """Read a term-level model out of the SAT assignment."""
    assignment = sat.model()
    bool_values: dict[Term, bool] = {}
    for term, lit in tseitin._lit_memo.items():
        if isinstance(term, T.BoolVar):
            bool_values[term] = assignment.get(abs(lit), False) == (lit > 0)
    bv_values: dict[Term, int] = {}
    for bv, bits in blaster.bv_bits.items():
        value = 0
        for i, bit in enumerate(bits):
            lit = tseitin._lit_memo.get(bit)
            if lit is None:
                continue
            if assignment.get(abs(lit), False) == (lit > 0):
                value |= 1 << i
        bv_values[bv] = value
    return Model(bool_values, bv_values)


def _conjuncts(term: Term) -> Iterable[Term]:
    """Split (possibly nested) top-level conjunctions, iteratively."""
    if not isinstance(term, T.And):
        yield term
        return
    stack: list[Term] = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, T.And):
            stack.extend(t.args)
        else:
            yield t


class Solver:
    """Collects assertions and decides their conjunction.

    A fresh encoding is built per ``check()`` call, which keeps one-shot
    queries hermetic.  Lightyear's own local checks go through
    :class:`CheckSession` instead, which shares the encoding across checks.
    """

    def __init__(self) -> None:
        self._assertions: list[Term] = []
        self._model: Model | None = None
        self.stats = SolverStats()

    def add(self, term: Term) -> None:
        """Assert a boolean term."""
        if not term.is_bool:
            raise TypeError(f"assertions must be boolean, got {term!r}")
        self._assertions.append(term)

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    def _build(self) -> tuple[SatSolver, Bitblaster, Tseitin]:
        build_start = time.perf_counter()
        sat = SatSolver()
        blaster = Bitblaster()
        tseitin = Tseitin(sat)
        lowered = [blaster.blast_bool(a) for a in self._assertions]
        for term in lowered:
            tseitin.assert_true(term)
        build_end = time.perf_counter()
        self.stats = SolverStats(
            num_vars=sat.num_vars,
            num_clauses=sat.num_clauses_added,
            build_time_s=build_end - build_start,
        )
        return sat, blaster, tseitin

    def encode_only(self) -> SolverStats:
        """Build the CNF encoding without running SAT search.

        Used by the scaling experiments to measure encoding sizes at
        network sizes where actually solving would exceed the time budget.
        """
        self._model = None
        self._build()
        return self.stats

    def check(
        self,
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
    ) -> Result:
        """Decide the conjunction of all added assertions.

        ``deadline_s`` is a wall-clock budget in seconds for the SAT
        search; on expiry the answer is UNKNOWN with
        ``stats.unknown_reason == "timeout"``.
        """
        self._model = None
        self.stats.unknown_reason = None
        sat, blaster, tseitin = self._build()
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        solve_start = time.perf_counter()
        answer = sat.solve(conflict_budget=conflict_budget, deadline=deadline)
        self.stats.solve_time_s = time.perf_counter() - solve_start
        self.stats.sat = sat.stats

        if answer is None:
            self.stats.unknown_reason = sat.stop_reason
            return Result.UNKNOWN
        if not answer:
            return Result.UNSAT
        self._model = _extract_model(sat, tseitin, blaster)
        return Result.SAT

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() is only available after a SAT check()")
        return self._model


class CheckSession:
    """A reusable encoding context for discharging many related checks.

    Where :class:`Solver` rebuilds the term → Tseitin → CDCL pipeline per
    query, a session keeps all three layers alive.  Each ``check(...)``
    call lowers its assertions through the *shared* bit-blaster and Tseitin
    encoder — hash-consed subterms that earlier checks already encoded cost
    a dictionary hit, not fresh clauses — and then runs CDCL with the
    top-level conjunct literals as assumptions.

    The intended granularity is one session per owner router: all checks
    reading one router's transfer functions share most of their encoding
    (the symbolic input route, well-formedness, invariant predicates, and
    frequently the transfer terms themselves).

    ``stats`` after each ``check`` holds the marginal encoding size and the
    solve effort of that check alone, mirroring ``Solver.stats``.
    """

    def __init__(self) -> None:
        self._sat = SatSolver()
        self._blaster = Bitblaster()
        self._tseitin = Tseitin(self._sat)
        self._model: Model | None = None
        self.stats = SolverStats()
        self.checks_discharged = 0
        # Lowered conjuncts asserted into the clause DB by prepare();
        # check() skips these instead of shipping them as assumptions.
        self._asserted: set[Term] = set()
        self.shared_skips = 0

    def prepare(self, shared: Sequence[Term] = ()) -> None:
        """Assert ``shared`` fragments into the clause DB once.

        Their conjuncts then skip the per-check assumption list.  Sound
        only when every future check in this session includes each shared
        term among its assertions (the owner route's well-formedness
        constraint qualifies; check-specific goals do not).  Idempotent per
        term.
        """
        # Assertions and their unit propagation must land at level 0.
        self._sat.reset_trail()
        for term in shared:
            if not term.is_bool:
                raise TypeError(f"shared fragments must be boolean, got {term!r}")
            lowered = self._blaster.blast_bool(term)
            for conjunct in _conjuncts(lowered):
                if conjunct is T.TRUE or conjunct in self._asserted:
                    continue
                if conjunct is T.FALSE:
                    raise ValueError("shared fragment is unsatisfiable")
                self._tseitin.assert_true(conjunct)
                self._asserted.add(conjunct)

    def check(
        self,
        assertions: Sequence[Term],
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
    ) -> Result:
        """Decide the conjunction of ``assertions`` under encoding reuse.

        ``deadline_s`` bounds this check's SAT search in wall-clock
        seconds; expiry yields UNKNOWN with ``stats.unknown_reason ==
        "timeout"``.  The session stays usable afterwards.
        """
        self._model = None
        sat = self._sat
        # Encoding must happen at decision level 0; a previous SAT answer
        # leaves the trail fully assigned.
        sat.reset_trail()
        build_start = time.perf_counter()
        vars_before = sat.num_vars
        clauses_before = sat.num_clauses_added
        assumptions: list[int] = []
        infeasible = False
        asserted = self._asserted
        shared_skipped = 0
        for assertion in assertions:
            if not assertion.is_bool:
                raise TypeError(f"assertions must be boolean, got {assertion!r}")
            lowered = self._blaster.blast_bool(assertion)
            for conjunct in _conjuncts(lowered):
                if conjunct is T.TRUE:
                    continue
                if conjunct is T.FALSE:
                    infeasible = True
                    continue
                if conjunct in asserted:
                    # Pre-asserted by prepare(): already a clause in the
                    # DB, no assumption literal needed.
                    shared_skipped += 1
                    continue
                assumptions.append(self._tseitin.literal(conjunct))
        build_time = time.perf_counter() - build_start
        if not sat.ok:
            # The clause database is purely definitional; it can only go
            # unsat through API misuse.  Fail loudly rather than letting
            # every subsequent check "pass" vacuously.
            raise RuntimeError("CheckSession clause database became unsat")
        self.stats = SolverStats(
            num_vars=sat.num_vars - vars_before,
            num_clauses=sat.num_clauses_added - clauses_before,
            build_time_s=build_time,
            shared_skipped=shared_skipped,
        )
        self.shared_skips += shared_skipped
        self.checks_discharged += 1
        if infeasible:
            return Result.UNSAT
        sat_before = replace(sat.stats)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        solve_start = time.perf_counter()
        answer = sat.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            deadline=deadline,
        )
        self.stats.solve_time_s = time.perf_counter() - solve_start
        self.stats.sat = SatStats(
            decisions=sat.stats.decisions - sat_before.decisions,
            propagations=sat.stats.propagations - sat_before.propagations,
            conflicts=sat.stats.conflicts - sat_before.conflicts,
            restarts=sat.stats.restarts - sat_before.restarts,
            learned=sat.stats.learned - sat_before.learned,
            max_learnt_len=sat.stats.max_learnt_len,
        )
        if answer is None:
            self.stats.unknown_reason = sat.stop_reason
            return Result.UNKNOWN
        if not answer:
            return Result.UNSAT
        self._model = _extract_model(sat, self._tseitin, self._blaster)
        return Result.SAT

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() is only available after a SAT check()")
        return self._model

    @property
    def total_vars(self) -> int:
        """SAT variables in the session's accumulated encoding."""
        return self._sat.num_vars

    @property
    def total_clauses(self) -> int:
        """Clauses ever added to the session's shared database."""
        return self._sat.num_clauses_added


class SessionPool:
    """A keyed pool of long-lived :class:`CheckSession` instances.

    The intended key is the owner router of a check group
    (:func:`repro.core.checks.check_owner`; ``None`` for invariant-only
    checks).  Passing one pool across many ``run_checks`` calls makes the
    per-owner encodings persistent: a re-verification or a later property
    family re-uses the clauses an earlier call already built and pays only
    the marginal encoding of genuinely new terms.  Reuse is always sound —
    session databases are purely definitional and every check is discharged
    under assumptions — so a pool never needs invalidation for correctness;
    ``drop`` exists to bound memory when an owner's policy is gone for good.

    Pools live wherever reuse pays: a :class:`repro.core.workspace.
    Workspace` keeps one across ``reverify`` calls, the Table-4 sweeps
    hoist one above their property-family loops, ``verify_liveness``
    shares one across propagation, implication, and every no-interference
    sub-proof, and each :class:`repro.core.exec.WorkerPool` worker process
    holds its own pool for the checks routed to it.  Sessions are never
    shipped between processes or persisted: only outcomes are.
    """

    def __init__(self) -> None:
        self._sessions: dict[object, CheckSession] = {}
        self.created = 0

    def stats(self) -> dict[str, int]:
        """Aggregated session counters across the pool."""
        sessions = list(self._sessions.values())
        return {
            "sessions": len(sessions),
            "checks_discharged": self.checks_discharged,
            "shared_skips": sum(s.shared_skips for s in sessions),
            "learnts_kept": sum(len(s._sat._learnts) for s in sessions),
        }

    def get(self, key: object) -> CheckSession:
        """The session for ``key``, created on first use."""
        session = self._sessions.get(key)
        if session is None:
            session = self._sessions[key] = CheckSession()
            self.created += 1
        return session

    def peek(self, key: object) -> CheckSession | None:
        return self._sessions.get(key)

    def drop(self, key: object) -> None:
        self._sessions.pop(key, None)

    def clear(self) -> None:
        self._sessions.clear()

    def keys(self) -> KeysView[object]:
        return self._sessions.keys()

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def checks_discharged(self) -> int:
        return sum(s.checks_discharged for s in self._sessions.values())

    def encoding_sizes(self) -> dict[object, tuple[int, int]]:
        """Per-key ``(total_vars, total_clauses)`` — the re-encoding witness.

        Tests diff two snapshots to prove which owners' encodings grew
        during an operation (e.g. only the edited router's on a reverify).
        """
        return {
            key: (s.total_vars, s.total_clauses)
            for key, s in self._sessions.items()
        }

    def total_encoding(self) -> tuple[int, int]:
        """Summed ``(vars, clauses)`` across all sessions — cheap growth probe.

        Diffing this before/after an operation answers "did anything get
        re-encoded?" without keying on individual owners; warm-pool
        benchmarks and tests use it to assert zero marginal encoding.
        """
        total_vars = sum(s.total_vars for s in self._sessions.values())
        total_clauses = sum(s.total_clauses for s in self._sessions.values())
        return (total_vars, total_clauses)


@dataclass
class Counterexample:
    """A failed ``prove`` call: the model witnesses the violated implication."""

    model: Model
    stats: SolverStats


def prove(
    goal: Term,
    assumptions: list[Term] | None = None,
    conflict_budget: int | None = None,
) -> tuple[Counterexample | None, SolverStats]:
    """Prove ``assumptions => goal`` by refutation.

    Returns ``(None, stats)`` when the implication is valid and
    ``(Counterexample, stats)`` when it is not.  Raises ``TimeoutError`` if
    the conflict budget runs out.
    """
    solver = Solver()
    for a in assumptions or []:
        solver.add(a)
    solver.add(T.not_(goal))
    result = solver.check(conflict_budget=conflict_budget)
    if result is Result.UNKNOWN:
        raise TimeoutError("conflict budget exhausted")
    if result is Result.UNSAT:
        return None, solver.stats
    return Counterexample(solver.model(), solver.stats), solver.stats
