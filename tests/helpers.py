"""Independent oracles the tests check the library against.

The oracles recompute results from first principles (explicit digit
chains, full matrices, exhaustive enumeration) without touching the
library's incremental or pruned code paths.  Two readers at the end
expose the library's own per-position view, from the cost engine and
from the emitted encoding, so tests can set it against the oracles, and
``normalize_bus`` lists every remainder line of one sorted bus.
"""

from __future__ import annotations

import itertools

from optibase.cost import BaseEval, CostKind
from optibase.encoder import (CnfBuilder, PbConstraint, decompose, encode_constraint,
                              normalizer)

F_TABLE = (0, 0, 1, 3, 5, 9, 12, 16, 19)


def digits_oracle(v: int, base) -> list[int]:
    ds = []
    for r in base:
        ds.append(v % r)
        v //= r
    ds.append(v)
    return ds


def breakdown_oracle(elements, base):
    """Column sums and carries, summed over every element individually."""
    k = len(base)
    sums = [0] * (k + 1)
    for v in elements:
        for j, d in enumerate(digits_oracle(v, base)):
            sums[j] += d
    carries = [0] * (k + 1)
    for j in range(k):
        carries[j + 1] = (sums[j] + carries[j]) // base[j]
    return sums, carries


def f_oracle(n: int) -> int:
    if n <= 8:
        return F_TABLE[n]
    levels = (n - 1).bit_length()
    return n * levels * (levels - 1) // 4 + n - 1


def cost_oracle(kind: str, elements, base) -> int:
    sums, carries = breakdown_oracle(elements, base)
    if kind == "digits":
        return sum(sums)
    if kind == "carry":
        return sum(sums) + sum(carries)
    return sum(f_oracle(s + c) for s, c in zip(sums, carries))


def partial_oracle(kind: str, elements, base) -> int:
    """The cost every extension of ``base`` keeps paying: the cost without
    the most significant column, or without the last network for comp."""
    sums, carries = breakdown_oracle(elements, base)
    k = len(base)
    if kind == "comp":
        return sum(f_oracle(s + c) for s, c in zip(sums[:k], carries[:k]))
    if kind == "carry":
        return sum(sums[:k]) + sum(carries)
    return sum(sums[:k])


def heuristic_oracle(kind: str, elements, base) -> int:
    """Elements (with multiplicity) at least the base product, each of
    which still owes a digit to any extension; zero for comp."""
    if kind == "comp":
        return 0
    prod = 1
    for r in base:
        prod *= r
    return sum(1 for v in elements if v >= prod)


def enumerate_bases(max_value: int, limit: int | None = None,
                    primes: set[int] | None = None) -> list[tuple[int, ...]]:
    """Every base with product <= max_value, elements <= limit, optionally
    prime elements only.  Includes the empty base."""
    limit = max_value if limit is None else min(limit, max_value)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], prod: int) -> None:
        out.append(tuple(prefix))
        for p in range(2, limit + 1):
            if prod * p > max_value:
                break
            if primes is not None and p not in primes:
                continue
            prefix.append(p)
            rec(prefix, prod * p)
            prefix.pop()

    rec([], 1)
    return out


def count_bases(s) -> int:
    """Size of the full non-redundant base tree for multiset S: the bases
    enumerate_bases(max(S)) lists, counted without building them."""
    top = s.max

    def count(prod: int) -> int:
        return 1 + sum(count(prod * p) for p in range(2, top // prod + 1))

    return count(1)


def optimum_oracle(kind: str, elements, limit=None, primes=None) -> int:
    m = max(elements)
    return min(cost_oracle(kind, elements, b)
               for b in enumerate_bases(m, limit, primes))


def sieve_set(n: int) -> set[int]:
    flags = [True] * (n + 1)
    out = set()
    for i in range(2, n + 1):
        if flags[i]:
            out.add(i)
            for j in range(i * i, n + 1, i):
                flags[j] = False
    return out


def constraint_value(terms, assignment: dict[int, bool]) -> int:
    """Left-hand side value of a normal-form constraint: terms are
    (coefficient, signed literal) pairs."""
    total = 0
    for coef, lit in terms:
        v = assignment[abs(lit)]
        if lit < 0:
            v = not v
        if v:
            total += coef
    return total


def all_assignments(var_ids):
    var_ids = list(var_ids)
    for bits in itertools.product([False, True], repeat=len(var_ids)):
        yield dict(zip(var_ids, bits))


def first_model_oracle(clauses, num_vars, assumptions=()):
    """The first model extending the assumptions when the assignments are
    listed with variable 1 most significant and true before false; None if
    there is none (tiny CNFs only)."""
    units = [[lit] for lit in assumptions]
    for bits in itertools.product([True, False], repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
               for cl in list(clauses) + units):
            return dict(enumerate(bits, start=1))
    return None


def engine_columns(s, base):
    """Column sums and carries as the library's BaseEval fold holds them:
    each column sum is what closing it adds to a digits state's partial."""
    ev = BaseEval.root(s, CostKind.SUM_DIGITS)
    sums, carries = [], [0]
    for p in base:
        child = ev.extend(p)
        sums.append(child.partial - ev.partial)
        carries.append(child.carry_in)
        ev = child
    sums.append(ev.msd_sum)
    return sums, carries


def emitted_columns(elements, base):
    """Column sums and carries read off the encoder: the decomposed bus
    lengths, and what each emitted network takes in on top of its bus."""
    c = PbConstraint(tuple((v, i + 1) for i, v in enumerate(elements)), 1)
    bld = CnfBuilder(len(c.terms))
    encode_constraint(c, base, bld)
    sums = [len(bus) for bus in decompose(c, base)]
    return sums, [n - m for n, m in zip(bld.network_sizes, sums)]


def normalize_bus(sorted_bus, radix, bld):
    """Every remainder line the encoder's normalizer gives a sorted bus,
    R_1 up to the last one not constant FALSE, and the bus's carries."""
    rem = tuple(normalizer(sorted_bus, radix, i, bld)
                for i in range(1, min(radix, len(sorted_bus) + 1)))
    return rem, sorted_bus[radix - 1::radix]
