"""Small complete SAT solver used to verify encodings.

DPLL with unit propagation; branching picks the lowest-indexed unassigned
variable and tries true first, so runs are deterministic.  This is a
verification tool for desk-scale formulas, not a competitive solver: on
circuit-shaped CNFs with the inputs given as assumptions it decides by
propagation alone.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class SolverBudgetExceeded(RuntimeError):
    """Raised when the step budget runs out; never silently undecided."""


class Solver:
    """Reusable solver for one clause set; `solve` may be called with many
    different assumption sets."""

    def __init__(self, clauses: Sequence[Sequence[int]], num_vars: int):
        self.num_vars = num_vars
        self.clauses = [list(cl) for cl in clauses]
        self.has_empty = any(not cl for cl in self.clauses)
        # occurrence lists: for every literal, the clauses containing it
        self.occur: dict[int, list[int]] = {}
        for ci, cl in enumerate(self.clauses):
            for lit in cl:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} outside variable range")
                self.occur.setdefault(lit, []).append(ci)

    def solve(self, assumptions: Iterable[int] = (),
              max_steps: int = 20_000_000) -> Optional[dict[int, bool]]:
        """A model extending the assumptions, or None if unsatisfiable."""
        if self.has_empty:
            return None
        assign = [0] * (self.num_vars + 1)  # 0 free, +1 true, -1 false
        trail: list[int] = []
        head = 0
        steps = 0
        occur = self.occur
        clauses = self.clauses

        def enqueue(lit: int) -> bool:
            v = assign[abs(lit)]
            if v != 0:
                return (v > 0) == (lit > 0)
            assign[abs(lit)] = 1 if lit > 0 else -1
            trail.append(lit)
            return True

        def propagate() -> bool:
            nonlocal head, steps
            while head < len(trail):
                lit = trail[head]
                head += 1
                for ci in occur.get(-lit, ()):
                    cl = clauses[ci]
                    steps += len(cl)
                    if steps > max_steps:
                        raise SolverBudgetExceeded(
                            f"undecided after {max_steps} propagation steps")
                    unit = 0
                    open_lits = 0
                    satisfied = False
                    for other in cl:
                        v = assign[abs(other)]
                        if other < 0:
                            v = -v
                        if v > 0:
                            satisfied = True
                            break
                        if v == 0:
                            open_lits += 1
                            unit = other
                            if open_lits > 1:
                                break
                    if satisfied or open_lits > 1:
                        continue
                    if open_lits == 0:
                        return False
                    if not enqueue(unit):
                        return False
            return True

        for lit in assumptions:
            if not enqueue(lit):
                return None
        if not propagate():
            return None

        # chronological backtracking; flipped decisions become forced
        decisions: list[tuple[int, int, bool]] = []  # (trail mark, var, flipped)
        while True:
            var = 1
            while var <= self.num_vars and assign[var] != 0:
                var += 1
            if var > self.num_vars:
                return {v: assign[v] > 0 for v in range(1, self.num_vars + 1)}
            decisions.append((len(trail), var, False))
            enqueue(var)
            while not propagate():
                # flipped decisions above sit past the unflipped one's mark
                while decisions and decisions[-1][2]:
                    decisions.pop()
                if not decisions:
                    return None
                mark, dvar, _ = decisions.pop()
                for undone in trail[mark:]:
                    assign[abs(undone)] = 0
                del trail[mark:]
                head = mark
                decisions.append((mark, dvar, True))
                enqueue(-dvar)
