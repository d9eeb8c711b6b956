"""How mixed radix bases change the size of a number's representation.

Walks through the digit matrices and the three cost functions on two
small multisets, reproducing the kind of table you would build by hand
when comparing candidate bases.
"""

from optibase import (CostKind, Multiset, comparator_count, cost_of,
                      digits_of, weights)


def columns_and_carries(s, base):
    """Column sums of the digit matrix, and the carries that ripple
    between positions when the columns are added up."""
    sums = [0] * (len(base) + 1)
    for v in s:
        for j, d in enumerate(digits_of(v, base)):
            sums[j] += d
    carries = [0]
    for j, r in enumerate(base):
        carries.append((sums[j] + carries[j]) // r)
    return sums, carries


S = Multiset.of([16, 30, 54, 60])

print("multiset:", list(S.elements))
print()
print("The same numbers, written in different bases (least significant")
print("digit first), have very different digit sums:")
print()
for label, base in [
    ("decimal  <10,10>", (10, 10)),
    ("binary   <2,2,2,2,2>", (2,) * 5),
    ("ternary  <3,3,3>", (3,) * 3),
    ("mixed    <3,5,2,2>", (3, 5, 2, 2)),
    ("unary    <>", ()),
]:
    rows = [digits_of(v, base) for v in S]
    digit_sum = cost_of(CostKind.SUM_DIGITS, S, base)
    print(f"  {label:24} digit sum {digit_sum:3}   rows: "
          + "  ".join(str(list(r)) for r in rows))
print()
print("The mixed base <3,5,2,2> (weights", list(weights((3, 5, 2, 2))),
      ") is the cheapest possible: 9 digits.")

print()
print("=" * 72)
S2 = Multiset.of([1, 3, 4, 8, 18, 18])
print()
print("Digit counting alone can be too coarse.  For", list(S2.elements))
print("three bases tie at 9 digits, but differ once carries and the size")
print("of the sorting networks they induce are counted:")
print()
print(f"{'base':14} {'column sums':16} {'carries':16} "
      f"{'digits':>6} {'+carry':>6} {'comps':>6}")
for base in [(2, 3, 3), (3, 2, 3), (2, 2, 2, 2)]:
    sums, carries = columns_and_carries(S2, base)
    costs = [cost_of(kind, S2, base) for kind in CostKind]
    print(f"{str(base):14} {str(sums):16} {str(carries):16} "
          + " ".join(f"{c:6}" for c in costs))
print()
print("Comparator counts per position come from the n-input network sizes:")
print("  f(n) for n = 0..8:", [comparator_count(n) for n in range(9)])
print("  beyond 8 inputs the odd-even mergesort formula takes over,")
print("  e.g. f(16) =", comparator_count(16))
