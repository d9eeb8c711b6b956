"""Cost functions over (multiset, base) pairs, and the pruning machinery.

Three measures of how expensive a base makes the sorter construction:

* ``digits`` - total number of digits of the multiset in the base, i.e.
  the number of inputs fed to the sorting networks.
* ``carry``  - digits plus the carry bits that ripple between digit
  positions when the columns are summed.
* ``comp``   - total comparators of the sorting networks sized by the
  per-position input counts.

One engine computes all three.  A ``BaseEval``, built for one kind,
holds the state of a base and re-costs an extension from its parent's;
``cost_of`` folds ``BaseEval.extend`` from the root over a base.  One
column rule, ``BaseEval._column``, says what closing a digit column adds:
its digits; under carry, plus its carry out; under comp, the comparators
of a network over the column and its carry in.  ``extend``, ``cost`` (the
top column, no carry out) and ``child_metrics`` (a batch) all close
columns by it.  The closed columns sum to the partial cost, which every
extension pays; ``alpha`` (partial cost plus a heuristic) never
overestimates the cost of any extension.  All values are integers.

A state depends on its base's product P alone but for its partial cost:
with L(P) = sum m_j * (v_j mod P), L(P * p) = L(P) + P * col and carry_in
is L(P) // P.  Alpha less the partial cost is fixed by P under every kind:
of two bases with one product, the lower alpha is cheaper when extended.

``within`` cuts candidates before ``child_metrics`` divides, in two steps
that drop only children whose alpha is above the bound.  Both read one
column budget: the new column may hold ``room`` digits, and the values
left above it add ``above[i]``.  For digits and carry, room is the bound
less the partial cost and above = suffix_counts (a digit per value left
above).  For comp, room is the largest n with partial +
comparator_count(n) <= bound, less carry_in, and above = 0 (the count is
monotone).  With cur = values // prod, a radix p takes the i =
searchsorted(cur, p) values with cur < p whole into the column, W[i] =
sum_{j<i} m_j * cur_j digits, so the prefix cut keeps p while W[i] +
above[i] <= room; past i0 = #{cur < 2} that sum never falls, so it keeps
a prefix of the ascending candidates.  As p <= cur_top = max(S) // prod,
the top value puts m_top * (cur_top mod p) into the column and stays
above it, so the residue sieve keeps p where that + above[n - 1] <= room.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

from .mixedradix import Multiset

# Sizes of the known optimal sorting networks up to 8 inputs.
OPTIMAL_SIZES = (0, 0, 1, 3, 5, 9, 12, 16, 19)


class CostKind(enum.Enum):
    SUM_DIGITS = "digits"
    SUM_CARRY = "carry"
    NUM_COMP = "comp"


def comparator_count(n: int) -> int:
    """Comparators in an n-input sorting network: the paper's model.

    Sizes of the known optimal networks up to 8 inputs; the odd-even
    mergesort formula n*ceil(log2 n)*(ceil(log2 n)-1)/4 + n - 1 beyond
    (evaluated in integers, rounding the rare fractional case down).
    On distinct inputs, the encoder's pairwise network matches it up to 8
    and at powers of two, has fewer at most other sizes and more at 54 in
    9..1099 (by at most 35, n = 1013).  What the encoder emits falls below
    it where a bus repeats a literal and where outputs go unread.
    """
    if n < 0:
        raise ValueError("network size cannot be negative")
    if n <= 8:
        return OPTIMAL_SIZES[n]
    levels = (n - 1).bit_length()
    return n * levels * (levels - 1) // 4 + n - 1


# A bucket per size up to 8, then per L >= 4 for sizes in (2**(L-1), 2**L]:
# as L * (L - 1) is even, n * L * (L - 1) // 4 + n - 1 = n * slope // 2 - 1.
_EDGES = np.array([*range(9), *(1 << L for L in range(4, 63))], dtype=np.int64)
_SLOPES = np.array([0] * 9 + [L * (L - 1) // 2 + 2 for L in range(4, 63)],
                   dtype=np.int64)
_OFFSETS = np.array(OPTIMAL_SIZES + (-1,) * 59, dtype=np.int64)


def _comparator_count_vec(n: np.ndarray) -> np.ndarray:
    """``comparator_count`` of each size.  Sizes stay below sum(S) < 2**51
    (``search.COMP_SUM_LIMIT``), so n * slope < 2**62 does not overflow."""
    k = _EDGES.searchsorted(n)
    return n * _SLOPES[k] // 2 + _OFFSETS[k]


@dataclass(slots=True, eq=False)
class BaseEval:
    """Incremental cost evaluation of one base over a fixed multiset, under
    the one cost kind it is built for.

    Extending a base only changes the former most significant digit
    column, so a child is re-costed from the parent's cached state in time
    proportional to the number of distinct values.  ``child_metrics``
    evaluates a whole batch of candidate extensions at once.
    """

    multiset: Multiset
    kind: CostKind
    mults: np.ndarray  # multiplicities of the distinct elements, ascending
    suffix_counts: np.ndarray  # suffix_counts[i] = sum(mults[i:])
    mult_list: list[int]  # mults and suffix_counts as lists, for ``within``
    suffix_list: list[int]
    base: tuple[int, ...]
    prod: int
    cur: np.ndarray  # the distinct elements // prod
    partial: int  # what the closed columns cost
    msd_sum: int  # sum(mults * cur)
    carry_in: int  # carry into the most significant column

    @staticmethod
    def root(s: Multiset, kind: CostKind) -> "BaseEval":
        values, mults = np.unique(np.array(s.elements, dtype=np.int64),
                                  return_counts=True)
        mults = mults.astype(np.int64, copy=False)
        suffix = np.zeros(len(values) + 1, dtype=np.int64)
        suffix[:-1] = mults[::-1].cumsum()[::-1]
        return BaseEval(s, CostKind(kind), mults, suffix, mults.tolist(),
                        suffix.tolist(), (), 1, values, 0,
                        int(values @ mults), 0)

    @staticmethod
    def of(s: Multiset, base: Sequence[int], kind: CostKind) -> "BaseEval":
        """The state of ``base``: ``extend`` folded from the root."""
        return reduce(BaseEval.extend, base, BaseEval.root(s, kind))

    def _column(self, col, carry_in, carry_out, count=comparator_count):
        """What closing a column of ``col`` digits adds: the one rule per
        kind.  ``count`` is ``comparator_count`` or its array form."""
        if self.kind is CostKind.NUM_COMP:
            return count(col + carry_in)
        if self.kind is CostKind.SUM_CARRY:
            return col + carry_out
        return col

    def extend(self, p: int) -> "BaseEval":
        newcur = self.cur // p
        msd_sum = int(newcur @ self.mults)
        # the column sum by the identity child_metrics uses
        col = self.msd_sum - p * msd_sum
        carry_out = (col + self.carry_in) // p
        return BaseEval(
            self.multiset, self.kind, self.mults, self.suffix_counts,
            self.mult_list, self.suffix_list,
            self.base + (p,), self.prod * p, newcur,
            self.partial + self._column(col, self.carry_in, carry_out),
            msd_sum, carry_out,
        )

    def cost(self) -> int:
        """The partial cost and the top column, closed with no carry out."""
        return self.partial + self._column(self.msd_sum, self.carry_in, 0)

    def alpha(self) -> int:
        """Partial cost plus, but for comp, a digit per element >= prod."""
        if self.kind is CostKind.NUM_COMP:
            return self.partial
        # an element is >= prod exactly when its cur is >= 1
        return self.partial + int(self.suffix_counts[self.cur.searchsorted(1)])

    def within(self, ps: np.ndarray, bound: int) -> np.ndarray:
        """``ps`` (ascending, each <= max(S) // prod) less candidates with
        alpha > bound: the prefix cut and the residue sieve, no division,
        both on the column budget ``room`` and ``above`` set here."""
        cur = self.cur.tolist()
        n = len(cur)
        slack = bound - self.partial
        if self.kind is CostKind.NUM_COMP:
            # the largest network within slack; comparator_count(k) >= k - 1
            fits = bisect_right(range(slack + 2), slack, key=comparator_count)
            room, above = fits - 1 - self.carry_in, [0] * (n + 1)
        else:
            room, above = slack, self.suffix_list
        need = [w + a for w, a in zip(
            accumulate(map(mul, self.mult_list, cur), initial=0), above)]
        i0 = bisect_left(cur, 2)  # need is non-decreasing from i0 on
        last = bisect_right(need, room, i0, n) - 1
        top = cur[last] if last >= i0 else 0
        ps = ps[: ps.searchsorted(top, side="right")]
        # the sieve: m_top * (cur_top mod p) + above[n - 1] <= room
        most = (room - above[n - 1]) // self.mult_list[-1]
        if most >= cur[-1]:  # no remainder exceeds cur_top itself
            return ps
        return ps[cur[-1] % ps <= most]

    def child_metrics(self, ps: np.ndarray):
        """(cost, alpha) arrays for extending by each candidate in ``ps``.

        Candidates must already satisfy prod * p <= max(S) so that all
        intermediate products stay within 64 bits.
        """
        msd = (self.cur // ps[:, None]) @ self.mults
        # sum m*(c mod p) = sum m*c - p * sum m*floor(c/p), where sum m*c
        # is msd_sum; p*msd <= msd_sum < 2**63, so nothing overflows
        cols = self.msd_sum - ps * msd
        carry_out = (cols + self.carry_in) // ps
        vec = _comparator_count_vec
        part = self.partial + self._column(cols, self.carry_in, carry_out, vec)
        cost = part + self._column(msd, carry_out, 0, vec)
        if self.kind is CostKind.NUM_COMP:
            return cost, part
        # a value is >= prod * p exactly when its cur is >= p
        return cost, part + self.suffix_counts[self.cur.searchsorted(ps)]


def cost_of(kind: CostKind, s: Multiset, base: Sequence[int]) -> int:
    return BaseEval.of(s, base, kind).cost()
