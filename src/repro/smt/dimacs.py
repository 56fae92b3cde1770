"""DIMACS CNF import/export for the SAT core.

Lets the bundled solver interoperate with standard SAT tooling: encodings
can be dumped for cross-checking against a reference solver, and standard
``.cnf`` benchmark files can be fed to :class:`repro.smt.sat.SatSolver`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smt.sat import SatSolver


@dataclass
class DimacsProblem:
    """A parsed DIMACS instance."""

    num_vars: int
    clauses: list[list[int]]

    def to_solver(self) -> SatSolver:
        """Load the instance into a fresh solver."""
        solver = SatSolver()
        for __ in range(self.num_vars):
            solver.new_var()
        for clause in self.clauses:
            solver.add_clause(list(clause))
        return solver

    def solve(self) -> tuple[bool, dict[int, bool] | None]:
        """Decide the instance; returns (sat, model-or-None)."""
        solver = self.to_solver()
        answer = solver.solve()
        if answer:
            return True, solver.model()
        return False, None


def parse_dimacs(text: str) -> DimacsProblem:
    """Parse DIMACS CNF text (comments, a ``p cnf`` header, clauses)."""
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {line_no}: malformed problem line {line!r}")
            num_vars = int(parts[2])
            declared_clauses = int(parts[3])
            continue
        if num_vars is None:
            raise ValueError(f"line {line_no}: clause before 'p cnf' header")
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ValueError(
                        f"line {line_no}: literal {lit} exceeds declared "
                        f"variable count {num_vars}"
                    )
                current.append(lit)
    if current:
        clauses.append(current)  # tolerate a missing trailing 0
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    if declared_clauses is not None and len(clauses) != declared_clauses:
        # Tolerated (many generators get the count wrong) but normalised.
        pass
    return DimacsProblem(num_vars=num_vars, clauses=clauses)


def to_dimacs(num_vars: int, clauses: list[list[int]], comment: str = "") -> str:
    """Render clauses as DIMACS CNF text."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def export_solver(solver: SatSolver, comment: str = "") -> str:
    """Dump a solver's original (non-learnt) clause database.

    Unit clauses propagated at construction time are recovered from the
    level-0 trail so the export is equisatisfiable with what was added.
    """
    clauses = [list(c) for c in solver.clauses]
    for lit in solver.trail:
        if solver.levels[abs(lit)] == 0 and solver.reasons[abs(lit)] is None:
            clauses.append([lit])
    return to_dimacs(solver.num_vars, clauses, comment=comment)
