"""3-SAT formulas with clauses of one to three signed literals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Cnf3Formula:
    """Variables are 1..num_vars; a literal is +v or -v."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise FormulaError("formula needs at least one variable")
        if not self.clauses:
            raise FormulaError("formula needs at least one clause")
        for cl in self.clauses:
            if not (1 <= len(cl) <= 3):
                raise FormulaError(f"clause {cl} must have 1..3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise FormulaError(f"literal {lit} out of range in clause {cl}")

    def satisfies(self, assignment: Mapping[int, bool]) -> bool:
        for cl in self.clauses:
            if not any(assignment[abs(l)] == (l > 0) for l in cl):
                return False
        return True


def make_formula(num_vars: int, clauses: Iterable[Sequence[int]]) -> Cnf3Formula:
    return Cnf3Formula(num_vars, tuple(tuple(cl) for cl in clauses))
