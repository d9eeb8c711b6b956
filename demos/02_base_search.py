"""Finding a minimum-cost base: the three search algorithms side by side.

The search space is the tree of non-redundant bases (product bounded by
the largest element).  Depth-first search with heuristic pruning, plain
best-first branch and bound, and the product-hashed variant all find the
same optimum; they differ in how much of the tree they touch.
"""

import time

from optibase import CostKind, Multiset, SearchConfig, find_base

S = Multiset.of([16, 30, 54, 60])
print("multiset:", list(S.elements))
full = SearchConfig(kind=CostKind.SUM_DIGITS, max_elem=S.max, primes_only=False,
                    algorithm="brute")
print("full base tree size:", find_base(S, full).nodes_expanded, "nodes")
print()

print(f"{'algorithm':10} {'base':18} {'cost':>4} {'expanded':>9} {'pruned':>7}")
for name in ("brute", "dfs", "bnb", "hashbnb"):
    cfg = SearchConfig(kind=CostKind.SUM_DIGITS, max_elem=60, primes_only=True,
                       algorithm=name)
    r = find_base(S, cfg)
    print(f"{r.algorithm:10} {str(list(r.best_base)):18} {r.best_cost:4} "
          f"{r.nodes_expanded:9} {r.nodes_pruned:7}")
print()
print("All four agree on cost 9; pruning and the hashed frontier shrink")
print("the explored tree.")

print()
print("=" * 72)
print()
S2 = Multiset.of([2, 2, 2, 2, 5, 18])
print("Under the carry-aware cost, prime bases are not enough.")
print("multiset:", list(S2.elements))
for primes in (True, False):
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=18,
                       primes_only=primes, algorithm="brute")
    r = find_base(S2, cfg)
    world = "primes only " if primes else "all integers"
    print(f"  {world}: optimum {r.best_cost} at {list(r.best_base)}")
print("The non-prime base <2,9> saves two carry bits.")

print()
print("=" * 72)
print()
print("The hashed frontier keeps one base per product value, which is what")
print("lets the search scale to coefficients in the billions:")
big = Multiset.of([2**31 - 1, 1_876_543_211, 999_999_937, 123_456_789_0])
cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=10_000, primes_only=True,
                   algorithm="hashbnb")
t0 = time.monotonic()
r = find_base(big, cfg)
print(f"  max element {big.max}: cost {r.best_cost}, base length "
      f"{len(r.best_base)}, {r.nodes_expanded} expansions, "
      f"{time.monotonic() - t0:.2f}s")
