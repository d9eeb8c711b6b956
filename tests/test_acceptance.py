"""End-to-end acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them inline).
"""

import itertools
import random
import time
from contextlib import contextmanager
from functools import lru_cache
from math import prod as product

from optibase.cost import (OPTIMAL_NETWORKS, BaseEval, CostKind,
                           comparator_count, cost_of)
from optibase.encoder import (CnfBuilder, PbConstraint, _merge_exchange_pairs,
                              decompose, encode_constraint, sorting_network)
from optibase.mixedradix import Multiset, digits_of
from optibase.satcheck import Solver
from optibase.search import SearchConfig, find_base, initial_best

from helpers import (breakdown_oracle, constraint_value, count_bases,
                     emitted_columns, engine_columns, heuristic_oracle,
                     partial_oracle)

KINDS = (CostKind.SUM_DIGITS, CostKind.SUM_CARRY, CostKind.NUM_COMP)
DIGITS, CARRY, COMP = KINDS


@contextmanager
def criterion(name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - t0:.1f}s)")


def cfg(kind, max_elem, primes, algo="hashbnb", timeout=None):
    return SearchConfig(kind=kind, max_elem=max_elem, primes_only=primes,
                        algorithm=algo, timeout=timeout)


def test_01_motivating_digit_sums():
    with criterion("01 motivating example digit sums"):
        t0 = time.monotonic()
        s = Multiset.of([16, 30, 54, 60])
        assert cost_of(DIGITS, s, (10, 10)) == 25
        assert cost_of(DIGITS, s, (2, 2, 2, 2, 2)) == 13
        assert cost_of(DIGITS, s, (3, 3, 3)) == 12
        assert cost_of(DIGITS, s, (3, 5, 2, 2)) == 9
        assert cost_of(DIGITS, s, ()) == 160
        res = find_base(s, cfg(CostKind.SUM_DIGITS, 60, True))
        assert res.best_cost == 9 and res.optimal_guaranteed
        assert time.monotonic() - t0 < 1.0


def test_02_golden_cost_table():
    with criterion("02 golden sums/carries/comparators table"):
        s = Multiset.of([1, 3, 4, 8, 18, 18])
        expected = {
            (2, 3, 3): ((2, 4, 1, 2), (0, 1, 1, 0), (1, 9, 1, 1), (9, 2, 12)),
            (3, 2, 3): ((4, 2, 1, 2), (0, 1, 1, 0), (5, 3, 1, 1), (9, 2, 10)),
            (2, 2, 2, 2): ((2, 3, 1, 1, 2), (0, 1, 2, 1, 1), (1, 5, 3, 1, 3),
                           (9, 5, 13)),
        }
        for base, (sums, carries, comps, totals) in expected.items():
            got_sums, got_carries = emitted_columns(s.elements, base)
            assert tuple(got_sums) == sums
            assert tuple(got_carries) == carries
            assert engine_columns(s, base) == (list(sums), list(carries))
            got_comps = tuple(comparator_count(n + c)
                              for n, c in zip(got_sums, got_carries))
            assert got_comps == comps
            digits = cost_of(DIGITS, s, base)
            assert (digits, cost_of(CARRY, s, base) - digits,
                    cost_of(COMP, s, base)) == totals


def test_03_carry_optimum_needs_non_primes():
    with criterion("03 carry-cost optimum is non-prime"):
        t0 = time.monotonic()
        s = Multiset.of([2, 2, 2, 2, 5, 18])
        allint = find_base(s, cfg(CostKind.SUM_CARRY, 18, False, "brute"))
        primes = find_base(s, cfg(CostKind.SUM_CARRY, 18, True, "brute"))
        assert allint.best_cost < primes.best_cost
        assert cost_of(CARRY, s, (2, 9)) == allint.best_cost
        assert time.monotonic() - t0 < 5.0


@lru_cache(maxsize=1)
def _agreement_sweep():
    """200 seeded multisets: optimal costs from every algorithm, per cost
    kind and primality setting."""
    rng = random.Random(20240)
    multisets = []
    for _ in range(200):
        size = rng.randint(1, 6)
        multisets.append(tuple(rng.randint(1, 200) for _ in range(size)))
    records = []
    for elems in multisets:
        s = Multiset.of(elems)
        per = {}
        for kind in KINDS:
            for primes in (False, True):
                per[(kind.value, primes)] = {
                    algo: find_base(s, cfg(kind, s.max + 1, primes, algo)
                                    ).best_cost
                    for algo in ("dfs", "bnb", "brute", "hashbnb")}
        records.append((elems, per))
    return records


def test_04_algorithm_agreement():
    with criterion("04 search algorithm agreement (200 multisets)"):
        t0 = time.monotonic()
        for elems, per in _agreement_sweep():
            for (kind, primes), got in per.items():
                reference = got["brute"]
                assert got["dfs"] == reference, (elems, kind, primes)
                assert got["bnb"] == reference, (elems, kind, primes)
                assert got["hashbnb"] == reference, (elems, kind, primes)
        assert time.monotonic() - t0 < 120.0


def test_08_prime_bases_suffice_for_digit_cost():
    with criterion("08 prime bases match unrestricted optima (digits)"):
        for elems, per in _agreement_sweep():
            assert per[("digits", True)]["brute"] == per[("digits", False)]["brute"], elems


def _random_constraint(rng):
    n = rng.randint(1, 6)
    terms = tuple((rng.randint(1, 30), v if rng.random() < 0.5 else -v)
                  for v in range(1, n + 1))
    total = sum(c for c, _ in terms)
    return PbConstraint(terms, rng.randint(1, total + 2))


@lru_cache(maxsize=1)
def _equisat_sweep():
    """500 seeded constraints, three bases each: satisfiability under every
    full assignment vs constraint arithmetic, plus network statistics."""
    rng = random.Random(20241)
    mismatches = []
    networks = []       # (size, emitted, replayed new pairs, any pair folded)
    per_constraint = []  # (regular and unfolded, comparators, comp cost, replayed)
    for _ in range(500):
        c = _random_constraint(rng)
        s = Multiset.of([coef for coef, _ in c.terms])
        bases = [
            initial_best(s),
            find_base(s, cfg(CostKind.SUM_CARRY, s.max, False)).best_base
            if s.max > 1 else (),
            (),
        ]
        ids = sorted(abs(lit) for _, lit in c.terms)
        for base in bases:
            bld = CnfBuilder(max(ids), polarity="full")
            encode_constraint(c, base, bld)
            if c.coefficient_sum >= c.threshold:
                per = _per_network(c, base)
                networks.extend(per)
                regular = all((n <= 8 or (n & (n - 1)) == 0) and not folded
                              for n, _, _, folded in per)
                per_constraint.append((regular, bld.comparators,
                                       cost_of(COMP, s, base),
                                       sum(new for _, _, new, _ in per)))
            solver = Solver(bld.clauses, bld.num_vars)
            for bits in itertools.product([False, True], repeat=len(ids)):
                assignment = dict(zip(ids, bits))
                assumptions = [v if assignment[v] else -v for v in ids]
                got = solver.solve(assumptions) is not None
                want = constraint_value(c.terms, assignment) >= c.threshold
                if got != want:
                    mismatches.append((c, base, assignment))
    return mismatches, networks, per_constraint


def _per_network(c, base):
    """Re-encode network by network to attribute comparators to sizes, and
    replay each network's pairs on symbolic wires: a pair of equal wires
    passes them through, and only a pair no earlier network of the
    constraint sorted is new.  Per network: (size, comparators emitted,
    new pairs in the replay, whether any pair was equal or repeated)."""
    out = []
    probe = CnfBuilder(10**6)
    buses = decompose(c, base)
    carries = replay_carries = ()
    sorted_pairs = set()
    for j in range(len(base) + 1):
        before = probe.comparators
        sorted_bus = sorting_network(buses[j] + carries, probe)
        wires = list(buses[j] + replay_carries)
        n = len(wires)
        pairs = OPTIMAL_NETWORKS[n] if n <= 8 else _merge_exchange_pairs(n)
        new = 0
        for i, k in pairs:
            if wires[i] != wires[k]:
                pair = frozenset((wires[i], wires[k]))
                new += pair not in sorted_pairs
                sorted_pairs.add(pair)
                wires[i], wires[k] = ("or", pair), ("and", pair)
        out.append((n, probe.comparators - before, new, new < len(pairs)))
        if j < len(base):
            carries = sorted_bus[base[j] - 1::base[j]]
            replay_carries = tuple(wires[base[j] - 1::base[j]])
    return out


def test_05_encoding_equisatisfiability():
    with criterion("05 encoding equisatisfiability (500 constraints x 3 bases)"):
        t0 = time.monotonic()
        mismatches, _, _ = _equisat_sweep()
        assert mismatches == [], mismatches[:3]
        assert time.monotonic() - t0 < 300.0


def test_06_comparator_accounting():
    with criterion("06 comparator accounting"):
        _, networks, per_constraint = _equisat_sweep()
        assert networks, "sweep produced no networks"
        exact = folded_networks = 0
        for size, emitted, new, folded in networks:
            assert emitted == new, (size, emitted, new)
            folded_networks += folded
            if not folded and (size <= 8 or (size & (size - 1)) == 0):
                assert emitted == comparator_count(size), (size, emitted)
                exact += 1
        assert exact > 0 and folded_networks > 0
        checked = 0
        for regular, emitted_total, model_total, replayed_total in per_constraint:
            assert emitted_total == replayed_total
            if regular:
                assert emitted_total == model_total
                checked += 1
        assert checked > 0


def test_07_base_count_bound():
    with criterion("07 base-tree size bound (m <= 300)"):
        t0 = time.monotonic()
        for m in range(1, 301):
            assert count_bases(Multiset.of([m])) <= m ** 2.73
        assert time.monotonic() - t0 < 30.0


def test_09_scaling_smoke():
    with criterion("09 scaling smoke test (20 multisets up to 2^31-1)"):
        rng = random.Random(20242)
        worst = 0.0
        for i in range(20):
            size = rng.randint(4, 8)
            elems = [rng.randint(1, 2**31 - 1) for _ in range(size)]
            if i == 0:
                elems[0] = 2**31 - 1
            s = Multiset.of(elems)
            res = find_base(s, cfg(CostKind.SUM_CARRY, 10_000, True))
            assert not res.timed_out
            assert res.elapsed < 140.0, (elems, res.elapsed)
            worst = max(worst, res.elapsed)
        print(f"scaling smoke worst case {worst:.2f}s (budget 140s per multiset)")


def test_10_property_suites():
    with criterion("10 property suites (>= 10^4 cases)"):
        cases = 0
        rng = random.Random(20243)

        # unique representation round-trip
        for _ in range(2700):
            v = rng.randint(0, 10**6)
            base = tuple(rng.randint(2, 10) for _ in range(rng.randint(0, 6)))
            d = digits_of(v, base)
            assert sum(dd * w for dd, w in zip(
                d, _weights(base))) == v
            for i, r in enumerate(base):
                assert 0 <= d[i] < r
            cases += 1

        # base factoring: merging adjacent radices never lowers digit sums
        for _ in range(1500):
            k = rng.randint(2, 6)
            base = tuple(rng.randint(2, 9) for _ in range(k))
            p = rng.randrange(k - 1)
            merged = base[:p] + (base[p] * base[p + 1],) + base[p + 2:]
            v = rng.randint(0, 10**6)
            assert sum(digits_of(v, merged)) >= sum(digits_of(v, base))
            cases += 1

        # div/mod identities
        for _ in range(2000):
            a = rng.randint(0, 10**9)
            b = rng.randint(1, 10**4)
            c = rng.randint(1, 10**4)
            assert a // (b * c) == (a // b) // c
            assert a % (b * c) == a % b + ((a // b) % c) * b
            cases += 1

        # inputs invariance under extension
        for _ in range(1200):
            s, base, ext = _extension_pair(rng)
            (s1, c1), (s2, c2) = engine_columns(s, base), engine_columns(s, ext)
            assert (s1, c1) == breakdown_oracle(s.elements, base)
            assert (s2, c2) == breakdown_oracle(s.elements, ext)
            for j in range(len(base)):
                assert s1[j] + c1[j] == s2[j] + c2[j]
            cases += 1

        # admissibility chain for all three costs, on the search's bound
        for _ in range(2000):
            s, base, ext = _extension_pair(rng)
            for kind in KINDS:
                ev = BaseEval.of(s, base, kind)
                ev_ext = BaseEval.of(s, ext, kind)
                assert ev_ext.alpha() == (
                    partial_oracle(kind.value, s.elements, ext)
                    + heuristic_oracle(kind.value, s.elements, ext))
                assert cost_of(kind, s, ext) >= ev_ext.alpha()
                assert ev_ext.alpha() >= ev.alpha()
            cases += 1

        # equal products order extensions under the digit cost
        done = 0
        while done < 800:
            elems = tuple(rng.randint(1, 200) for _ in range(rng.randint(1, 5)))
            s = Multiset.of(elems)
            pair = _equal_product_pair(rng, s.max)
            if pair is None:
                continue
            b1, b2 = pair
            if BaseEval.of(s, b1, DIGITS).alpha() > \
               BaseEval.of(s, b2, DIGITS).alpha():
                b1, b2 = b2, b1
            ext = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 2)))
            if product(b1 + ext) > s.max:
                continue
            assert cost_of(DIGITS, s, b1 + ext) <= cost_of(DIGITS, s, b2 + ext)
            done += 1
            cases += 1

        assert cases >= 10_000
        print(f"property suites ran {cases} cases")


def _weights(base):
    out = [1]
    for r in base:
        out.append(out[-1] * r)
    return out


def _extension_pair(rng):
    elems = [rng.randint(1, 200) for _ in range(rng.randint(1, 6))]
    s = Multiset.of(elems)
    base = []
    prod = 1
    for _ in range(rng.randint(0, 4)):
        p = rng.randint(2, 9)
        if prod * p > s.max:
            break
        base.append(p)
        prod *= p
    ext = list(base)
    for _ in range(rng.randint(1, 3)):
        p = rng.randint(2, 9)
        if prod * p > s.max:
            break
        ext.append(p)
        prod *= p
    return s, tuple(base), tuple(ext)


def _equal_product_pair(rng, max_value):
    """Two distinct bases with the same product, if the draw allows."""
    factors = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
    prod = 1
    for f in factors:
        prod *= f
    if prod > max_value:
        return None
    b1 = tuple(factors)
    b2 = tuple(sorted(factors, reverse=True))
    if b1 == b2:
        merged = (factors[0] * factors[1],) + tuple(factors[2:])
        b2 = merged
    return b1, b2
