"""Search for a minimum-cost base.  ``find_base(s, cfg)`` is the one driver,
and ``cfg.algorithm`` names the visiting order: pruned depth-first search
("dfs"), best-first branch and bound ("bnb"), best-first search that
expands each product once ("hashbnb"), or exhaustive traversal ("brute"),
the ground-truth oracle.  The driver owns the start, the clock, the node
counts, the best base so far and the verdict: optimal unless it timed out.

The search space is the tree of non-redundant bases for a multiset S: the
root is the empty base and a node B has one child B+(p,) for every
extender p with product(B) * p <= max(S), optionally restricted to primes
and to elements no larger than a configured limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import isqrt

import numpy as np

from .cost import BaseEval, CostKind, cost_of
from .mixedradix import Base, Multiset

BRUTE_FORCE_MAX = 10_000

# The comp cost is batch-evaluated in int64.  No network has more inputs n
# than sum(S), and all networks together have at most 2*sum(S).  Below
# sum(S) = 2**51, L = bit_length(n - 1) <= 51, so n*L*(L-1) < 2**63 and a
# whole comp cost, at most 639 comparators per input, stays under 2**62.
COMP_SUM_LIMIT = 1 << 51

@dataclass
class SearchConfig:
    kind: CostKind
    max_elem: int = 10_000
    primes_only: bool | None = None  # None: primes for digits only
    algorithm: str = "hashbnb"  # a key of ALGORITHMS: dfs, bnb, hashbnb, brute
    timeout: float | None = None

    def __post_init__(self):
        self.kind = CostKind(self.kind)  # a value string names its member
        if self.max_elem < 2:
            raise ValueError("max_elem must be at least 2")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (self.timeout is None or self.timeout >= 0):  # NaN fails too
            raise ValueError(f"timeout must be at least 0, got {self.timeout}")
        if self.primes_only is None:
            self.primes_only = self.kind is CostKind.SUM_DIGITS


@dataclass
class SearchResult:
    best_base: Base
    best_cost: int
    nodes_expanded: int
    nodes_pruned: int
    elapsed: float
    optimal_guaranteed: bool
    timed_out: bool
    algorithm: str


@lru_cache(maxsize=64)
def primes_up_to(limit: int) -> np.ndarray:
    """Ascending primes <= limit, by sieve: a cached read-only int64 array."""
    flags = np.ones(max(limit + 1, 2), dtype=bool)
    flags[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i:: i] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    primes.flags.writeable = False
    return primes


def radix_array(s: Multiset, cfg: SearchConfig) -> np.ndarray:
    """Ascending primes (or all integers, if not ``primes_only``) from 2 to
    min(max_elem, max(S)): the radices of one search, built at its start."""
    limit = min(cfg.max_elem, s.max)
    if cfg.primes_only:
        return primes_up_to(limit)
    return np.arange(2, limit + 1, dtype=np.int64)


def extenders(radices: np.ndarray, prod: int, s: Multiset) -> np.ndarray:
    """The prefix of ``radices`` by which a base of product ``prod`` extends
    to a non-redundant base for ``s``: a view, never a copy."""
    return radices[: radices.searchsorted(s.max // prod, side="right")]


def initial_best(s: Multiset) -> Base:
    """The binary base of length floor(log2 max(S)), the starting upper bound."""
    return (2,) * (s.max.bit_length() - 1)


def _children(state: BaseEval, radices: np.ndarray, bound: int):
    """(p, alpha, cost) for each extension of ``state`` whose alpha is within
    ``bound`` (``BaseEval.within`` cuts first), and how many the bound cut."""
    ps = extenders(radices, state.prod, state.multiset)
    live = state.within(ps, bound)
    if len(live) == 0:
        return (), len(ps)
    costs, alphas = state.child_metrics(live)
    keep = (alphas <= bound).nonzero()[0]
    return (zip(live[keep].tolist(), alphas[keep].tolist(),
                costs[keep].tolist()),
            len(ps) - len(keep))


class _Timeout(Exception):
    """The search's clock ran out before an expansion."""


class _Run:
    """One search's start, clock, node counts and best base so far.  Its
    start refuses before it builds the radix array; its first bound is the
    binary base, or the root if a carry-aware cost makes that cheaper."""

    def __init__(self, s: Multiset, cfg: SearchConfig):
        if cfg.algorithm == "brute" and s.max > BRUTE_FORCE_MAX:
            raise ValueError(
                f"brute-force search is limited to multisets with max <= "
                f"{BRUTE_FORCE_MAX}, got {s.max}")
        self.cfg = cfg
        self.t0 = time.monotonic()
        self.root = BaseEval.root(s, cfg.kind)
        if cfg.kind is CostKind.NUM_COMP and self.root.msd_sum >= COMP_SUM_LIMIT:
            raise ValueError(
                f"the comp cost is limited to multisets with sum < 2**51, "
                f"got {self.root.msd_sum}")
        binary = initial_best(s)
        self.best_base, self.best_cost = binary, cost_of(cfg.kind, s, binary)
        self.offer((), self.root.cost())
        self.radices = radix_array(s, cfg)
        self.expanded = self.pruned = 0

    def expand(self) -> None:
        """Count one expansion, unless the clock has run out."""
        timeout = self.cfg.timeout
        if timeout is not None and time.monotonic() - self.t0 > timeout:
            raise _Timeout
        self.expanded += 1

    def offer(self, base: Base, cost: int) -> None:
        """Keep ``base`` if it is cheaper than the best so far."""
        if cost < self.best_cost:
            self.best_base, self.best_cost = base, cost

    def children(self, state: BaseEval):
        """(p, alpha, cost) for each child of ``state`` with alpha within the
        best cost, the others counted as pruned.  Offers may lower it later:
        the caller drops, and counts, a child whose alpha is then above it."""
        children, cut = _children(state, self.radices, self.best_cost)
        self.pruned += cut
        return children


def _dfs(run: _Run) -> None:
    """Depth-first traversal with heuristic pruning: a child is cut when
    its cost underestimate already exceeds the best cost seen."""
    def visit(state: BaseEval) -> None:
        run.expand()
        for p, alpha, cost in run.children(state):
            if alpha > run.best_cost:
                run.pruned += 1
                continue
            child = state.extend(p)
            run.offer(child.base, cost)
            visit(child)

    visit(run.root)


def _queue_search(run: _Run) -> None:
    """Best-first branch and bound over a heap of entries (alpha, product,
    length, base, parent, p), where the child ``parent.extend(p)`` is built
    only on pop; the first four fields are unique and order the heap.  One
    loop per expansion counts as pruned each child of ``run.children`` (its
    cut is counted there) whose alpha is above the best cost, lowered since,
    or that loses to a resident; it pushes the rest and keeps the cheapest.
    Under hashbnb each product keeps its resident entry after the pop: a
    push loses to a resident of no larger alpha, a popped entry no longer
    resident is skipped, and each product is expanded once.  bnb keeps no
    such map: its slot would be the base, which the tree never repeats."""
    hashed = run.cfg.algorithm == "hashbnb"
    entry = (run.root.alpha(), 1, 0, (), run.root, None)
    heap, resident = [entry], {1: entry}

    while heap and heap[0][0] < run.best_cost:
        entry = heappop(heap)
        _, prod, length, base, parent, p = entry
        if hashed and resident[prod] is not entry:
            continue
        run.expand()
        state = parent if p is None else parent.extend(p)
        length += 1
        best = run.best_cost
        for p, alpha, cost in run.children(state):
            child_base, child_prod = base + (p,), prod * p
            old = resident.get(child_prod) if hashed else None
            if alpha > best or old is not None and old[0] <= alpha:
                run.pruned += 1
            else:
                entry = (alpha, child_prod, length, child_base, state, p)
                if hashed:
                    resident[child_prod] = entry
                heappush(heap, entry)
            if cost < best:
                best = run.best_cost = cost
                run.best_base = child_base


def _brute_force(run: _Run) -> None:
    """Exhaustive traversal of the configured base tree; no pruning.  It
    starts from the root, not the binary base, as an independent oracle."""
    run.best_base, run.best_cost = (), run.root.cost()

    def visit(state: BaseEval) -> None:
        run.expand()
        run.offer(state.base, state.cost())
        for p in extenders(run.radices, state.prod, state.multiset):
            visit(state.extend(int(p)))

    visit(run.root)


ALGORITHMS = {"dfs": _dfs, "bnb": _queue_search,
              "hashbnb": _queue_search, "brute": _brute_force}


def find_base(s: Multiset, cfg: SearchConfig) -> SearchResult:
    """Run the configured algorithm from the shared start."""
    run = _Run(s, cfg)
    try:
        ALGORITHMS[cfg.algorithm](run)
        timed_out = False
    except _Timeout:
        timed_out = True
    return SearchResult(run.best_base, run.best_cost, run.expanded,
                        run.pruned, time.monotonic() - run.t0,
                        not timed_out, timed_out, cfg.algorithm)
