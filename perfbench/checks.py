"""Output checks that do not rely on the code under test.

Every function here is written from the definitions in the paper and the
DIMACS format, with plain integer arithmetic (numpy only to scan DIMACS
bodies), and imports nothing from ``optibase``.  Each check returns a
list of problems; an empty list means the output is correct.
``self_test`` feeds every checker a known-good and a known-bad output and
reports any checker that cannot tell them apart.
"""

from __future__ import annotations

import re
from math import isqrt

import numpy as np

_SMALL_NETWORKS = (0, 0, 1, 3, 5, 9, 12, 16, 19)


def digits(value: int, base) -> list[int]:
    """Mixed radix digits of ``value``, least significant first, with the
    unbounded most significant digit last."""
    out = []
    for radix in base:
        value, d = divmod(value, radix)
        out.append(d)
    out.append(value)
    return out


def network_size(n: int) -> int:
    """Comparators of an n-input sorter: optimal networks up to 8 inputs,
    odd-even mergesort n*L*(L-1)/4 + n - 1 with L = ceil(log2 n) beyond."""
    if n <= 8:
        return _SMALL_NETWORKS[n]
    levels = (n - 1).bit_length()
    return n * levels * (levels - 1) // 4 + n - 1


def base_cost(kind: str, values, base) -> int:
    """The digits, carry or comp cost of ``base`` for the multiset ``values``."""
    columns = [0] * (len(base) + 1)
    for v in values:
        for j, d in enumerate(digits(v, base)):
            columns[j] += d
    carries = [0]
    for j, radix in enumerate(base):
        carries.append((columns[j] + carries[j]) // radix)
    if kind == "digits":
        return sum(columns)
    if kind == "carry":
        return sum(columns) + sum(carries)
    if kind == "comp":
        return sum(network_size(c + k) for c, k in zip(columns, carries))
    raise ValueError(f"unknown cost {kind!r}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def check_search(values, kind: str, base, cost: int, max_elem: int,
                 primes_only: bool) -> list[str]:
    """A returned base is a valid non-redundant base under the search
    limits, its reported cost is its true cost, and it is no worse than
    the binary base the search starts from."""
    problems = []
    base = tuple(base)
    top = max(values)
    prod = 1
    for radix in base:
        prod *= radix
        if not 2 <= radix <= max_elem:
            problems.append(f"radix {radix} outside 2..{max_elem}")
        if primes_only and not is_prime(radix):
            problems.append(f"radix {radix} is not prime")
    if prod > top:
        problems.append(f"product {prod} exceeds max(S) = {top}")
    true_cost = base_cost(kind, values, base)
    if true_cost != cost:
        problems.append(f"reported {kind} cost {cost}, recomputed {true_cost}")
    binary = (2,) * (top.bit_length() - 1)
    if true_cost > min(base_cost(kind, values, binary), base_cost(kind, values, ())):
        problems.append(f"{kind} cost {true_cost} worse than the starting bound")
    return problems


def parse_dimacs(data: bytes) -> dict:
    """Header and body facts of a DIMACS CNF file.

    Raises ValueError on anything that is not well-formed DIMACS: no
    header or a second one, a comment after the header, a token that is
    not an integer, a last clause not closed by 0, or a file that does
    not end with a newline."""
    if not data.endswith(b"\n"):
        raise ValueError("file does not end with a newline")
    pos = 0
    while data.startswith(b"c", pos):
        pos = data.index(b"\n", pos) + 1
    eol = data.find(b"\n", pos)
    parts = data[pos:eol].split()
    if len(parts) != 4 or parts[:2] != [b"p", b"cnf"]:
        raise ValueError(f"bad header {data[pos:eol][:40]!r}")
    body = data[eol + 1:]
    if re.search(rb"^[cp]", body, re.MULTILINE):
        raise ValueError("comment or second header after the header")
    lits = np.array(body.split(), dtype=np.int64)  # raises on a non-integer
    ends = np.flatnonzero(lits == 0)
    if len(lits) and (len(ends) == 0 or ends[-1] != len(lits) - 1):
        raise ValueError("last clause not closed by 0")
    return {
        "vars": int(parts[2]), "clauses": int(parts[3]), "body_clauses": len(ends),
        "max_var": int(np.abs(lits).max()) if len(lits) else 0,
        "empty_clauses": int(len(ends) and (ends[0] == 0) + np.sum(np.diff(ends) == 1)),
    }


def check_dimacs(data: bytes, totals: dict, constraint_stats: list,
                 input_vars: int, expect_constraints: int) -> list[str]:
    """The written DIMACS is well-formed, its header matches both its body
    and the stats JSON totals, every literal is in range, and the
    per-constraint stats add up to the totals."""
    try:
        d = parse_dimacs(data)
    except ValueError as e:
        return [f"malformed DIMACS: {e}"]
    problems = []
    if d["clauses"] != d["body_clauses"]:
        problems.append(f"header declares {d['clauses']} clauses, body has {d['body_clauses']}")
    if d["vars"] != totals.get("vars"):
        problems.append(f"header vars {d['vars']} != stats vars {totals.get('vars')}")
    if d["clauses"] != totals.get("clauses"):
        problems.append(f"header clauses {d['clauses']} != stats clauses {totals.get('clauses')}")
    if d["vars"] < input_vars:
        problems.append(f"{d['vars']} vars cannot hold {input_vars} inputs")
    if d["max_var"] > d["vars"]:
        problems.append(f"literal {d['max_var']} outside 1..{d['vars']}")
    if d["empty_clauses"]:
        problems.append("empty clause in an instance satisfiable by construction")
    if len(constraint_stats) != expect_constraints:
        problems.append(f"{len(constraint_stats)} constraints encoded, "
                        f"expected {expect_constraints}")
    if sum(st["clauses"] for st in constraint_stats) != d["clauses"]:
        problems.append("per-constraint clauses do not add up to the total")
    if totals.get("statically_unsat"):
        problems.append("instance reported statically unsatisfiable")
    return problems


def check_verdicts(terms, threshold: int, verdicts) -> list[str]:
    """Each verdict (satisfiable under one full assignment of the inputs)
    equals the constraint evaluated in integers.  Assignment number a sets
    variable i (1-based, in term order) true when bit i-1 of a is set."""
    problems = []
    n = len(terms)
    if len(verdicts) != 1 << n:
        return [f"{len(verdicts)} verdicts for {1 << n} assignments"]
    for a, got in enumerate(verdicts):
        total = 0
        for i, (coef, lit) in enumerate(terms):
            value = bool(a >> i & 1)
            if lit < 0:
                value = not value
            if value:
                total += coef
        if got != (total >= threshold):
            problems.append(f"assignment {a:0{n}b}: verdict {got}, "
                            f"arithmetic says {total} >= {threshold} is {total >= threshold}")
    return problems


def self_test() -> list[str]:
    """Problems with the checkers themselves; empty when each checker
    accepts a known-good output and rejects a known-bad one."""
    failures = []
    values = (16, 30, 54, 60)
    # digits cost of <3,5,2,2> on {16,30,54,60} is 9 (the paper's example)
    if check_search(values, "digits", (3, 5, 2, 2), 9, 10_000, True):
        failures.append("search checker rejects a correct base")
    if not check_search(values, "digits", (3, 5, 2, 2), 8, 10_000, True):
        failures.append("search checker accepts a wrong base cost")
    composite = (3, 5, 4)
    if not check_search(values, "digits", composite,
                        base_cost("digits", values, composite), 10_000, True):
        failures.append("search checker accepts a non-prime radix")

    good = b"c demo\np cnf 3 2\n1 -3 0\n2 3 0\n"
    totals = {"vars": 3, "clauses": 2, "statically_unsat": False}
    per = [{"clauses": 2}]
    if check_dimacs(good, totals, per, 2, 1):
        failures.append("DIMACS checker rejects a correct file")
    truncated = good[: good.rindex(b"3 0")]
    if not check_dimacs(truncated, totals, per, 2, 1):
        failures.append("DIMACS checker accepts a truncated file")
    if not check_dimacs(good.replace(b"2 3 0", b"2 4 0"), totals, per, 2, 1):
        failures.append("DIMACS checker accepts an out-of-range literal")

    terms = ((2, 1), (3, -2))
    right = [(2 * (a & 1) + 3 * (1 - (a >> 1 & 1))) >= 3 for a in range(4)]
    if check_verdicts(terms, 3, right):
        failures.append("verdict checker rejects correct verdicts")
    flipped = list(right)
    flipped[2] = not flipped[2]
    if not check_verdicts(terms, 3, flipped):
        failures.append("verdict checker accepts a flipped verdict")
    return failures
