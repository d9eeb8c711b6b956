"""Cost functions over (multiset, base) pairs, and the pruning machinery.

Three measures of how expensive a base makes the sorter construction:

* ``digits`` - total number of digits of the multiset in the base, i.e.
  the number of inputs fed to the sorting networks.
* ``carry``  - digits plus the carry bits that ripple between digit
  positions when the columns are summed.
* ``comp``   - total comparators of the sorting networks sized by the
  per-position input counts.

One engine computes all three: ``BaseEval`` holds the state of a base and
re-costs an extension from its parent's state.  ``cost_of`` folds
``BaseEval.extend`` from the root over a whole base.  Each state also
gives a partial cost (the part every extension of the base must pay) and
an admissible bound ``alpha`` (partial cost plus a heuristic) that never
overestimates the cost of any extension.  All values are integers; the
only float is the bit length of a comp network size, which is exact.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .mixedradix import Multiset

_SMALL_NETWORK_SIZES = (0, 0, 1, 3, 5, 9, 12, 16, 19)


class CostKind(enum.Enum):
    SUM_DIGITS = "digits"
    SUM_CARRY = "carry"
    NUM_COMP = "comp"


def comparator_count(n: int) -> int:
    """Comparators in an n-input sorting network.

    Sizes of the known optimal networks up to 8 inputs; the odd-even
    mergesort formula n*ceil(log2 n)*(ceil(log2 n)-1)/4 + n - 1 beyond
    (evaluated in integers, rounding the rare fractional case down).
    """
    if n < 0:
        raise ValueError("network size cannot be negative")
    if n <= 8:
        return _SMALL_NETWORK_SIZES[n]
    levels = (n - 1).bit_length()
    return n * levels * (levels - 1) // 4 + n - 1


def _bit_length(a: np.ndarray) -> np.ndarray:
    """Vectorized int bit length: the binary exponent of each value as a
    float64, exact below 2**53.  Its one caller, the comp cost, only sees
    network sizes below sum(S) < 2**51 (``search.COMP_SUM_LIMIT``)."""
    return np.frexp(a.astype(np.float64))[1]


_SMALL_SIZES_ARR = np.array(_SMALL_NETWORK_SIZES, dtype=np.int64)


def _comparator_count_vec(n: np.ndarray) -> np.ndarray:
    small = n <= 8
    out = np.empty_like(n)
    out[small] = _SMALL_SIZES_ARR[n[small]]
    big = n[~small]
    levels = _bit_length(big - 1)
    out[~small] = big * levels * (levels - 1) // 4 + big - 1
    return out


class BaseEval:
    """Incremental cost evaluation of one base over a fixed multiset.

    Extending a base only changes the former most significant digit
    column, so a child is re-costed from the parent's cached state in time
    proportional to the number of distinct values.  ``child_metrics``
    evaluates a whole batch of candidate extensions at once.
    """

    __slots__ = (
        "multiset", "values", "mults", "suffix_counts", "base", "prod",
        "cur", "prefix_digits", "prefix_carries", "prefix_comp",
        "msd_sum", "carry_in",
    )

    def __init__(self, multiset, values, mults, suffix_counts, base, prod,
                 cur, prefix_digits, prefix_carries, prefix_comp,
                 msd_sum, carry_in):
        self.multiset = multiset
        self.values = values
        self.mults = mults
        self.suffix_counts = suffix_counts
        self.base = base
        self.prod = prod
        self.cur = cur
        self.prefix_digits = prefix_digits
        self.prefix_carries = prefix_carries
        self.prefix_comp = prefix_comp
        self.msd_sum = msd_sum
        self.carry_in = carry_in

    @staticmethod
    def root(s: Multiset) -> "BaseEval":
        values, mults = np.unique(np.array(s.elements, dtype=np.int64),
                                  return_counts=True)
        mults = mults.astype(np.int64, copy=False)
        suffix = np.zeros(len(values) + 1, dtype=np.int64)
        suffix[:-1] = mults[::-1].cumsum()[::-1]
        return BaseEval(
            s, values, mults, suffix, (), 1, values.copy(),
            0, 0, 0, int(values @ mults), 0,
        )

    @staticmethod
    def of(s: Multiset, base: Sequence[int]) -> "BaseEval":
        """The state of ``base``: ``extend`` folded from the root."""
        ev = BaseEval.root(s)
        for p in base:
            ev = ev.extend(p)
        return ev

    def extend(self, p: int) -> "BaseEval":
        newcur = self.cur // p
        msd_sum = int(newcur @ self.mults)
        # the column sum by the identity child_metrics uses
        col = self.msd_sum - p * msd_sum
        carry_out = (col + self.carry_in) // p
        return BaseEval(
            self.multiset, self.values, self.mults, self.suffix_counts,
            self.base + (p,), self.prod * p, newcur,
            self.prefix_digits + col,
            self.prefix_carries + self.carry_in,
            self.prefix_comp + comparator_count(col + self.carry_in),
            msd_sum,
            carry_out,
        )

    def heuristic_count(self) -> int:
        """Elements (with multiplicity) at least the base product."""
        # a redundant base's product can pass 2**63; any product past
        # max(S) counts the same as max(S) + 1, which fits in int64
        prod = min(self.prod, self.multiset.max + 1)
        return int(self.suffix_counts[np.searchsorted(self.values, prod)])

    def cost(self, kind: CostKind) -> int:
        if kind is CostKind.SUM_DIGITS:
            return self.prefix_digits + self.msd_sum
        if kind is CostKind.SUM_CARRY:
            return (self.prefix_digits + self.prefix_carries
                    + self.msd_sum + self.carry_in)
        return self.prefix_comp + comparator_count(self.msd_sum + self.carry_in)

    def partial(self, kind: CostKind) -> int:
        if kind is CostKind.SUM_DIGITS:
            return self.prefix_digits
        if kind is CostKind.SUM_CARRY:
            return self.prefix_digits + self.prefix_carries + self.carry_in
        return self.prefix_comp

    def alpha(self, kind: CostKind) -> int:
        if kind is CostKind.NUM_COMP:
            return self.prefix_comp
        return self.partial(kind) + self.heuristic_count()

    def child_metrics(self, ps: np.ndarray, kind: CostKind):
        """(cost, alpha) arrays for extending by each candidate in ``ps``.

        Candidates must already satisfy prod * p <= max(S) so that all
        intermediate products stay within 64 bits.
        """
        msd = (self.cur[None, :] // ps[:, None]) @ self.mults
        # sum m*(c mod p) = sum m*c - p * sum m*floor(c/p), where sum m*c
        # is msd_sum; p*msd <= msd_sum < 2**63, so nothing overflows
        cols = self.msd_sum - ps * msd
        net_in = cols + self.carry_in
        carry_out = net_in // ps
        if kind is CostKind.NUM_COMP:
            part = self.prefix_comp + _comparator_count_vec(net_in)
            cost = part + _comparator_count_vec(msd + carry_out)
            return cost, part
        if kind is CostKind.SUM_DIGITS:
            part = self.prefix_digits + cols
            cost = part + msd
        else:
            part = (self.prefix_digits + self.prefix_carries
                    + cols + self.carry_in + carry_out)
            cost = part + msd
        idx = np.searchsorted(self.values, self.prod * ps, side="left")
        alpha = part + self.suffix_counts[idx]
        return cost, alpha


def cost_of(kind: CostKind, s: Multiset, base: Sequence[int]) -> int:
    return BaseEval.of(s, base).cost(kind)
