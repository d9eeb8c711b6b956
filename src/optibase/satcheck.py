"""Small complete SAT solver used to verify encodings.

DPLL with unit propagation; branching picks the lowest-indexed unassigned
variable and tries true first, so runs are deterministic.  This is a
verification tool for desk-scale formulas, not a competitive solver: on
circuit-shaped CNFs with the inputs given as assumptions it decides by
propagation alone.

Clauses of four or more literals are watched on two distinct literals
(Chaff; Moskewicz et al., DAC 2001).  A three-literal clause sits in the
occurrence list of each of its literals as the pair of the other two, read
without moving anything when that literal turns false (Lingeling's ternary
lists; Biere, SAT Competition 2013).  Two-literal clauses are implication
lists and unit clauses are permanent first assumptions.  Each assumption is
a trail level kept after the call (trail reuse; van der Tak, Ramos & Heule,
JSAT 2011): the next call keeps the longest prefix of levels it still
assumes and re-assumes the rest fewest sign changes first, ties in the
caller's order.  A sign change is an assumption of the other sign from the
variable's last one, so a level dropped on a conflict and assumed again is
none.  A sweep's slowest inputs thus settle lowest in any listing order
(Nadel & Ryvchin, SAT 2012).  Decisions are undone on every return.  A SAT
answer is a read-only mapping over a copy of the values taken just before,
as MiniSat copies its model (Eén & Sörensson, SAT 2003).  Answers equal a
fresh solver's: chronological true-first DPLL returns the lexicographically
first model extending the assumptions, and propagation reaches the same
fixpoint, or a conflict, in any order.  `steps` counts the clause literals
propagation reads in a call: two per pair in the implication and ternary
lists of each literal it takes off the trail, and for a watched clause both
watches and the literals scanned for a new one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import islice


class SolverBudgetExceeded(RuntimeError):
    """Raised when the step budget runs out; never silently undecided."""


class _Model(Mapping[int, bool]):
    """One answer: variable v is true when signs[v - 1] > 0, for v in 1..n."""

    def __init__(self, signs: list[int]):
        self.signs = signs

    def __getitem__(self, var: int) -> bool:
        if var in range(1, len(self.signs) + 1):
            return self.signs[var - 1] > 0
        raise KeyError(var)

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self.signs) + 1))

    def __len__(self) -> int:
        return len(self.signs)


class Solver:
    """Reusable solver for one clause set, asked many assumption sets."""

    def __init__(self, clauses: Sequence[Sequence[int]], num_vars: int):
        self.num_vars = n = num_vars
        self.val = [0] * (2 * n + 1)  # by literal (-v wraps): +1 true, -1 false
        # bins[l]: literals implied when l turns false; terns[l]: the other
        # two literals of each three-literal clause holding l; watches[l]:
        # longer clauses whose first two positions hold l
        self.bins: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.terns: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 1)]
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.trail: list[int] = []
        self.levels: list[tuple[int, int]] = []  # (assumption, trail mark)
        self.steps = 0
        # per variable: the literal last assumed and how often its sign changed
        self.last, self.flips = [0] * (n + 1), [0] * (n + 1)
        used = set().union(*clauses)  # n+1..2n would alias negative slots
        if 0 in used or max(map(abs, used), default=0) > n:
            bad = 0 if 0 in used else max(used, key=abs)
            raise ValueError(f"literal {bad} out of range 1..{n}")
        units = []
        for cl in clauses:
            lits = list(dict.fromkeys(cl))  # a copy: the caller's order stays
            if len(lits) > 3:
                self.watches[lits[0]].append(lits)
                self.watches[lits[1]].append(lits)
            elif len(lits) == 3:
                a, b, c = lits
                self.terns[a].append((b, c))
                self.terns[b].append((a, c))
                self.terns[c].append((a, b))
            elif len(lits) == 2:
                self.bins[lits[0]].append(lits[1])
                self.bins[lits[1]].append(lits[0])
            else:
                units.append(lits)  # [] for an empty clause
        # clause literals read when l turns false, watched clauses aside
        self.weight = [2 * (len(b) + len(t)) for b, t in zip(self.bins, self.terns)]
        self.unsat = [] in units or not self._assume(
            [cl[0] for cl in units], float("inf"))
        self.levels.clear()
        self.root = len(self.trail)

    def _undo(self, mark: int) -> None:
        val, trail = self.val, self.trail
        for lit in trail[mark:]:
            val[lit] = val[-lit] = 0
        del trail[mark:]

    def _assume(self, lits: Sequence[int], max_steps: float) -> bool:
        """Assume each literal on a level of its own; False on a conflict."""
        for lit in lits:
            if self.val[lit] < 0:
                return False
            self.levels.append((lit, len(self.trail)))
            if not self.val[lit] and not self._set(lit, max_steps):
                self._undo(self.levels.pop()[1])
                return False
        return True

    def _set(self, lit: int, max_steps: float) -> bool:
        """Assign the free `lit` and propagate; False on a conflict."""
        val, bins, terns, trail = self.val, self.bins, self.terns, self.trail
        watches, weight = self.watches, self.weight
        val[lit], val[-lit] = 1, -1
        steps = self.steps
        trail.append(lit)
        for true in islice(trail, len(trail) - 1, None):
            if steps > max_steps:
                raise SolverBudgetExceeded(
                    f"undecided after {max_steps} propagation steps")
            false = -true
            steps += weight[false]
            for lit in bins[false]:
                v = val[lit]
                if not v:
                    val[lit], val[-lit] = 1, -1
                    trail.append(lit)
                elif v < 0:
                    self.steps = steps
                    return False
            for a, b in terns[false]:
                # values are +1/0/-1: the sum is -1 only for one false and
                # one free literal, -2 only for two false ones
                v = val[a] + val[b]
                if v < 0:
                    if v < -1:
                        self.steps = steps
                        return False
                    if val[a]:
                        a = b
                    val[a], val[-a] = 1, -1
                    trail.append(a)
            ws = watches[false]
            if not ws:
                continue
            steps += 2 * len(ws)  # both watches of every visited clause
            keep = watches[false] = []
            rest = iter(ws)
            for cl in rest:
                if cl[0] == false:
                    cl[0], cl[1] = cl[1], false
                other = cl[0]
                if val[other] > 0:
                    keep.append(cl)
                    continue
                for k in range(2, len(cl)):
                    lit = cl[k]
                    if val[lit] >= 0:
                        cl[1], cl[k] = lit, false
                        watches[lit].append(cl)
                        break
                else:
                    keep.append(cl)
                    if val[other]:
                        keep.extend(rest)
                        self.steps = steps + k - 1
                        return False
                    val[other], val[-other] = 1, -1
                    trail.append(other)
                steps += k - 1  # literals scanned for a new watch
        self.steps = steps
        return True

    def solve(self, assumptions: Iterable[int] = (),
              max_steps: int = 20_000_000) -> Mapping[int, bool] | None:
        """A model extending the assumptions, or None if unsatisfiable; the
        model is a read-only mapping over its own copy of the values."""
        if self.unsat:
            return None
        wanted = dict.fromkeys(assumptions)
        levels, last, flips = self.levels, self.last, self.flips
        kept = next((i for i, (lit, _) in enumerate(levels)
                     if lit not in wanted), len(levels))
        for lit, _ in levels[:kept]:
            del wanted[lit]
        bad = [lit for lit in wanted if not 0 < abs(lit) <= self.num_vars]
        if bad:
            raise ValueError(f"literal {bad[0]} outside variable range")
        for lit in wanted:
            flips[abs(lit)] += last[abs(lit)] == -lit
            last[abs(lit)] = lit
        order = sorted(wanted, key=lambda lit: flips[abs(lit)])
        if kept < len(levels):
            self._undo(levels[kept][1])
            del levels[kept:]
        self.steps = 0
        try:
            return self._decide(max_steps) if self._assume(order, max_steps) else None
        except SolverBudgetExceeded:
            self._undo(self.root)
            levels.clear()
            raise

    def _decide(self, max_steps: int) -> Mapping[int, bool] | None:
        """Chronological DPLL above the assumption levels; a flipped
        decision stays as a forced literal.  Undoes every decision."""
        val, n, trail, start = self.val, self.num_vars, self.trail, len(self.trail)
        unflipped: list[tuple[int, int]] = []  # (trail mark, var)
        var = 1  # every variable below the newest decision is assigned
        while True:
            if len(trail) == n:  # each variable is on the trail once
                model = _Model(val[1:n + 1])
                self._undo(start)
                return model
            while val[var]:  # stops at a free variable, so at most at n
                var += 1
            unflipped.append((len(trail), var))
            lit = var
            while not self._set(lit, max_steps):
                if not unflipped:
                    self._undo(start)
                    return None
                mark, var = unflipped.pop()
                self._undo(mark)
                lit = -var
