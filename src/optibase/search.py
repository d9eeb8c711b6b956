"""Search for a minimum-cost base.  ``find_base(s, cfg)`` is the one entry
point, and ``cfg.algorithm`` names the way: pruned depth-first search
("dfs"), best-first branch and bound ("bnb"), branch and bound keeping one
frontier base per product ("hashbnb"), or exhaustive traversal ("brute"),
the ground-truth oracle.  bnb and hashbnb share one frontier: a heap of
unbuilt children and a dict from each slot to the key resident in it.

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
    return radices[: int(np.searchsorted(radices, s.max // prod, side="right"))]


def initial_best(s: Multiset) -> Base:
    """The binary base of length floor(log2 max(S)), the starting upper bound."""
    return (2,) * (s.max.bit_length() - 1)


def _initial_candidates(root: BaseEval, kind: CostKind) -> tuple[Base, int]:
    """Upper bound to start from: the binary base, or the root itself when
    the empty base is already cheaper (possible under the carry-aware
    costs, where extending can add more carry bits than it saves).
    Refuses comp searches whose costs could leave int64."""
    if kind is CostKind.NUM_COMP and root.msd_sum >= COMP_SUM_LIMIT:
        raise ValueError(
            f"the comp cost is limited to multisets with sum < 2**51, "
            f"got {root.msd_sum}")
    best = initial_best(root.multiset)
    best_cost = cost_of(kind, root.multiset, best)
    root_cost = root.cost(kind)
    if root_cost < best_cost:
        return (), root_cost
    return best, best_cost


def _children(state: BaseEval, radices: np.ndarray, kind: CostKind,
              bound: int):
    """(p, alpha, cost) for each extension of ``state`` whose alpha is within
    ``bound`` (``BaseEval.within`` cuts first), and how many the bound cut."""
    ps = extenders(radices, state.prod, state.multiset)
    live = state.within(ps, kind, bound)
    if len(live) == 0:
        return (), len(ps)
    costs, alphas = state.child_metrics(live, kind)
    keep = np.flatnonzero(alphas <= bound)
    return (zip(live[keep].tolist(), alphas[keep].tolist(),
                costs[keep].tolist()),
            len(ps) - len(keep))


def _expired(t0: float, timeout: float | None) -> bool:
    return timeout is not None and time.monotonic() - t0 > timeout


def _dfs(s: Multiset, cfg: SearchConfig) -> SearchResult:
    """Depth-first traversal with heuristic pruning: a child is cut when
    its cost underestimate already exceeds the best cost seen."""
    kind = cfg.kind
    t0 = time.monotonic()
    root = BaseEval.root(s)
    best_base, best_cost = _initial_candidates(root, kind)
    radices = radix_array(s, cfg)
    expanded = 0
    pruned = 0
    timed_out = False

    def visit(state: BaseEval) -> None:
        nonlocal best_base, best_cost, expanded, pruned, timed_out
        if timed_out or _expired(t0, cfg.timeout):
            timed_out = True
            return
        expanded += 1
        # children over the entry bound stay over any tightened bound
        children, cut = _children(state, radices, kind, best_cost)
        pruned += cut
        for p, alpha, cost in children:
            if timed_out:
                return
            if alpha > best_cost:
                pruned += 1
                continue
            child = state.extend(p)
            if cost < best_cost:
                best_base, best_cost = child.base, cost
            visit(child)

    visit(root)
    return SearchResult(best_base, best_cost, expanded, pruned,
                        time.monotonic() - t0, not timed_out, timed_out, "dfs")


def _queue_search(s: Multiset, cfg: SearchConfig) -> SearchResult:
    """Best-first branch and bound over a heap of (key, parent, p), where
    the child ``parent.extend(p)`` is built only on pop.  The key (alpha,
    product, length, base) orders the heap and is unique.  Each slot, the
    product under hashbnb and the base under bnb, holds one resident key: a
    push loses to a resident of no larger alpha, and a popped entry that is
    no longer resident is skipped.  hashbnb is optimal for digits only."""
    kind = cfg.kind
    hashed = cfg.algorithm == "hashbnb"
    t0 = time.monotonic()
    root = BaseEval.root(s)
    best_base, best_cost = _initial_candidates(root, kind)
    radices = radix_array(s, cfg)
    root_key = (root.alpha(kind), 1, 0, ())
    heap = [(root_key, root, None)]
    resident = {1 if hashed else (): root_key}
    expanded = 0
    pruned = 0
    timed_out = False

    while heap and heap[0][0][0] < best_cost:
        key, parent, p = heappop(heap)
        slot = key[1] if hashed else key[3]
        if resident.get(slot) is not key:
            continue
        del resident[slot]
        if _expired(t0, cfg.timeout):
            timed_out = True
            break
        state = parent if p is None else parent.extend(p)
        expanded += 1
        children, cut = _children(state, radices, kind, best_cost)
        pruned += cut
        base, prod, length = state.base, state.prod, len(state.base) + 1
        for p, alpha, cost in children:
            if alpha > best_cost:
                pruned += 1
                continue
            child_base = base + (p,)
            child_prod = prod * p
            slot = child_prod if hashed else child_base
            old = resident.get(slot)
            if old is not None and old[0] <= alpha:
                pruned += 1
            else:
                key = (alpha, child_prod, length, child_base)
                resident[slot] = key
                heappush(heap, (key, state, p))
            if cost < best_cost:
                best_base, best_cost = child_base, cost

    guaranteed = not timed_out and (not hashed or kind is CostKind.SUM_DIGITS)
    return SearchResult(best_base, best_cost, expanded, pruned,
                        time.monotonic() - t0, guaranteed, timed_out,
                        cfg.algorithm)


def _brute_force(s: Multiset, cfg: SearchConfig) -> SearchResult:
    """Exhaustive traversal of the configured base tree; no pruning."""
    if s.max > BRUTE_FORCE_MAX:
        raise ValueError(
            f"brute-force search is limited to multisets with max <= "
            f"{BRUTE_FORCE_MAX}, got {s.max}")
    kind = cfg.kind
    t0 = time.monotonic()
    root = BaseEval.root(s)
    best_base, best_cost = (), root.cost(kind)
    radices = radix_array(s, cfg)
    expanded = 0
    timed_out = False

    def visit(state: BaseEval) -> None:
        nonlocal best_base, best_cost, expanded, timed_out
        if timed_out or _expired(t0, cfg.timeout):
            timed_out = True
            return
        expanded += 1
        c = state.cost(kind)
        if c < best_cost:
            best_base, best_cost = state.base, c
        for p in extenders(radices, state.prod, s):
            visit(state.extend(int(p)))

    visit(root)
    return SearchResult(best_base, best_cost, expanded, 0,
                        time.monotonic() - t0, not timed_out, timed_out, "brute")


ALGORITHMS = {"dfs": _dfs, "bnb": _queue_search,
              "hashbnb": _queue_search, "brute": _brute_force}


def find_base(s: Multiset, cfg: SearchConfig) -> SearchResult:
    """Run the configured algorithm."""
    return ALGORITHMS[cfg.algorithm](s, cfg)
