import itertools
import random
import types
from math import prod as product

import numpy as np
import pytest

from optibase import search
from optibase.cost import BaseEval, CostKind, cost_of
from optibase.mixedradix import Multiset
from optibase.search import (ALGORITHMS, SearchConfig, extenders, find_base,
                             initial_best, primes_up_to, radix_array)

from helpers import (cost_oracle, count_bases, enumerate_bases, optimum_oracle,
                     sieve_set)

KINDS = {"digits": CostKind.SUM_DIGITS, "carry": CostKind.SUM_CARRY,
         "comp": CostKind.NUM_COMP}


def cfg_for(kind="digits", max_elem=10_000, primes=True, algo="hashbnb",
            timeout=None):
    return SearchConfig(kind=KINDS[kind], max_elem=max_elem,
                        primes_only=primes, algorithm=algo, timeout=timeout)


def test_primes_up_to():
    assert primes_up_to(17).tolist() == [2, 3, 5, 7, 11, 13, 17]
    assert primes_up_to(1).tolist() == []
    assert set(primes_up_to(100).tolist()) == sieve_set(100)
    # one cached table, shared by every search: callers cannot write it
    assert primes_up_to(100) is primes_up_to(100)
    assert primes_up_to(100).dtype == np.int64
    assert not primes_up_to(100).flags.writeable


def test_extenders_examples():
    s = Multiset.of([16, 30, 54, 60])
    radices = radix_array(s, cfg_for(max_elem=17, primes=True))
    assert extenders(radices, product(()), s).tolist() == [2, 3, 5, 7, 11, 13, 17]
    assert extenders(radices, product((3, 5)), s).tolist() == [2, 3]
    # product 60 = max
    assert extenders(radices, product((2, 2, 3, 5)), s).tolist() == []
    radices = radix_array(s, cfg_for(max_elem=7, primes=False))
    assert extenders(radices, product(()), s).tolist() == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("primes", [True, False])
def test_extenders_slice_the_search_radix_array(primes):
    s = Multiset.of([16, 30, 54, 60])
    radices = radix_array(s, cfg_for(max_elem=1000, primes=primes))
    # the array stops at max(S) when max_elem is larger, and each
    # expansion's candidates are a view of it
    assert radices[-1] == (59 if primes else 60)
    ps = extenders(radices, 6, s)
    assert len(ps) and np.shares_memory(ps, radices)
    # empty once max(S) // prod < 2
    assert len(extenders(radices, 31, s)) == 0
    assert len(extenders(radices, 61, s)) == 0
    # it stops at max_elem when max_elem < max(S)
    radices = radix_array(s, cfg_for(max_elem=20, primes=primes))
    assert extenders(radices, 1, s).tolist() == (
        [2, 3, 5, 7, 11, 13, 17, 19] if primes else list(range(2, 21)))


def test_initial_best_examples():
    assert initial_best(Multiset.of([16, 30, 54, 60])) == (2,) * 5
    assert initial_best(Multiset.of([1])) == ()
    assert initial_best(Multiset.of([1, 3, 4, 8, 18, 18])) == (2,) * 4


def test_dfs_examples():
    r = find_base(Multiset.of([16, 30, 54, 60]),
                  cfg_for(max_elem=60, primes=False, algo="dfs"))
    assert r.best_cost == 9 and r.algorithm == "dfs"
    r = find_base(Multiset.of([1]), cfg_for(primes=False, max_elem=2, algo="dfs"))
    assert r.best_base == () and r.best_cost == 1
    r = find_base(Multiset.of([1, 3, 4, 8, 18, 18]),
                  cfg_for("carry", max_elem=18, primes=True, algo="dfs"))
    assert r.best_cost == 11


def test_bnb_matches_dfs_on_examples():
    for elems, kind, primes in (
        ([16, 30, 54, 60], "digits", False),
        ([1], "digits", False),
        ([1, 3, 4, 8, 18, 18], "carry", True),
    ):
        s = Multiset.of(elems)
        a, b = (find_base(s, cfg_for(kind, max_elem=s.max + 1, primes=primes,
                                     algo=algo)) for algo in ("dfs", "bnb"))
        assert a.best_cost == b.best_cost


def test_hash_bnb_examples():
    r = find_base(Multiset.of([16, 30, 54, 60]), cfg_for(max_elem=60, primes=True))
    assert r.best_cost == 9 and r.optimal_guaranteed
    assert r.algorithm == "hashbnb"
    r = find_base(Multiset.of([2, 2, 2, 2, 5, 18]),
                  cfg_for("carry", max_elem=18, primes=False))
    assert r.best_cost == 8
    assert r.optimal_guaranteed  # under every cost, unless it timed out
    assert cost_of(CostKind.SUM_CARRY, Multiset.of([2, 2, 2, 2, 5, 18]),
                   (2, 9)) == 8
    r = find_base(Multiset.of([1]), cfg_for(primes=False, max_elem=2))
    assert r.best_base == ()


def test_brute_force_examples():
    def brute(s, kind="digits", **kw):
        return find_base(s, cfg_for(kind, primes=False, algo="brute", **kw))

    r = brute(Multiset.of([16, 30, 54, 60]), max_elem=60)
    assert r.best_cost == 9 and r.algorithm == "brute"
    assert brute(Multiset.of([1, 3, 4, 8, 18, 18]), "comp",
                 max_elem=18).best_cost == 10
    assert brute(Multiset.of([1]), max_elem=2).best_cost == 1


def test_brute_force_guard():
    with pytest.raises(ValueError, match="max <= 10000"):
        find_base(Multiset.of([10_001]), cfg_for(algo="brute"))


def test_count_bases():
    assert count_bases(Multiset.of([1])) == 1
    # product <= 4 admits (), (2), (3), (4), (2,2)
    assert count_bases(Multiset.of([4])) == 5
    assert count_bases(Multiset.of([4])) == len(enumerate_bases(4))
    n60 = count_bases(Multiset.of([60]))
    assert n60 == len(enumerate_bases(60))
    assert n60 <= 60 ** 2.73


def test_empty_base_can_win_under_carry():
    # extending (1,1,1,1,2) by 2 adds more carries than it saves
    s = Multiset.of([1, 1, 1, 1, 2])
    for algo in ALGORITHMS:
        r = find_base(s, cfg_for("carry", max_elem=2, primes=False, algo=algo))
        assert r.best_base == () and r.best_cost == 6


def test_oracle_agreement_small():
    rng = random.Random(20)
    for trial in range(60):
        elems = [rng.randint(1, 120) for _ in range(rng.randint(1, 5))]
        s = Multiset.of(elems)
        primes = rng.random() < 0.5
        prime_set = sieve_set(s.max) if primes else None
        for kind in ("digits", "carry", "comp"):
            want = optimum_oracle(kind, s.elements, primes=prime_set)
            got = {algo: find_base(s, cfg_for(kind, max_elem=s.max + 1,
                                              primes=primes, algo=algo)
                                   ).best_cost
                   for algo in ALGORITHMS}
            assert got == {k: want for k in got}, (elems, kind, primes, got, want)


def test_prime_optimum_matches_integer_optimum_for_digits():
    rng = random.Random(21)
    for _ in range(40):
        elems = [rng.randint(1, 150) for _ in range(rng.randint(1, 5))]
        s = Multiset.of(elems)
        a, b = (find_base(s, cfg_for("digits", max_elem=s.max + 1,
                                     primes=primes, algo="brute"))
                for primes in (False, True))
        assert a.best_cost == b.best_cost


def test_carry_needs_non_primes():
    s = Multiset.of([2, 2, 2, 2, 5, 18])
    allint, primes = (find_base(s, cfg_for("carry", max_elem=18, primes=p,
                                           algo="brute"))
                      for p in (False, True))
    assert allint.best_cost == 8 < primes.best_cost == 10


def test_property1_for_digit_cost():
    # equal products and alpha(B1) <= alpha(B2) order every common extension
    rng = random.Random(22)
    checked = 0
    while checked < 800:
        elems = [rng.randint(1, 200) for _ in range(rng.randint(1, 5))]
        s = Multiset.of(elems)
        bases = enumerate_bases(s.max, limit=12)
        by_prod: dict[int, list] = {}
        for b in bases:
            prod = 1
            for r in b:
                prod *= r
            by_prod.setdefault(prod, []).append(b)
        groups = [g for g in by_prod.values() if len(g) > 1]
        if not groups:
            continue
        group = rng.choice(groups)
        b1, b2 = rng.sample(group, 2)
        ev1 = ev2 = BaseEval.root(s, CostKind.SUM_DIGITS)
        for p in b1:
            ev1 = ev1.extend(p)
        for p in b2:
            ev2 = ev2.extend(p)
        a1, a2 = ev1.alpha(), ev2.alpha()
        if a1 > a2:
            b1, b2 = b2, b1
        ext = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 2)))
        prod = 1
        for r in b1 + ext:
            prod *= r
        if prod > s.max:
            continue
        assert cost_oracle("digits", s.elements, b1 + ext) <= \
            cost_oracle("digits", s.elements, b2 + ext)
        checked += 1


def test_extension_order_scan_for_other_costs():
    # bases with one product keep their cost order under every common
    # extension: a product fixes carry_in and every later column
    rng = random.Random(23)
    found = {"carry": 0, "comp": 0}
    for _ in range(300):
        elems = [rng.randint(1, 60) for _ in range(rng.randint(1, 4))]
        s = Multiset.of(elems)
        bases = enumerate_bases(s.max, limit=10)
        by_prod: dict[int, list] = {}
        for b in bases:
            prod = 1
            for r in b:
                prod *= r
            by_prod.setdefault(prod, []).append(b)
        for kind in ("carry", "comp"):
            for group in by_prod.values():
                for i, b1 in enumerate(group):
                    for b2 in group[i + 1:]:
                        for ext in ((2,), (3,), (2, 2)):
                            prod = 1
                            for r in b1 + ext:
                                prod *= r
                            if prod > s.max:
                                continue
                            s1 = cost_oracle(kind, s.elements, b1)
                            s2 = cost_oracle(kind, s.elements, b2)
                            e1 = cost_oracle(kind, s.elements, b1 + ext)
                            e2 = cost_oracle(kind, s.elements, b2 + ext)
                            if (s1 - s2) * (e1 - e2) < 0:
                                found[kind] += 1
    assert found == {"carry": 0, "comp": 0}


def test_find_base_dispatch_and_determinism():
    s = Multiset.of([16, 30, 54, 60])
    for algo in ("dfs", "bnb", "hashbnb", "brute"):
        cfg = cfg_for(max_elem=60, primes=True, algo=algo)
        r1, r2 = find_base(s, cfg), find_base(s, cfg)
        assert (r1.best_base, r1.best_cost, r1.nodes_expanded, r1.nodes_pruned) \
            == (r2.best_base, r2.best_cost, r2.nodes_expanded, r2.nodes_pruned)
        assert r1.best_cost == cost_of(cfg.kind, s, r1.best_base)


def test_search_config_primes_default_follows_the_cost():
    # None, the default, means primes for digits only; a choice stands
    for kind in CostKind:
        assert SearchConfig(kind=kind).primes_only is (kind is CostKind.SUM_DIGITS)
        for chosen in (True, False):
            assert SearchConfig(kind=kind, primes_only=chosen).primes_only is chosen
    assert set(ALGORITHMS) == {"dfs", "bnb", "hashbnb", "brute"}
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        SearchConfig(kind=CostKind.SUM_DIGITS, algorithm="nope")
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="timeout must be at least 0"):
            SearchConfig(kind=CostKind.SUM_DIGITS, timeout=bad)
    assert SearchConfig(kind=CostKind.SUM_DIGITS, timeout=0.0).timeout == 0.0


def test_cost_kind_is_coerced_from_its_value():
    # "comp" used to search and cost as digits: (2, 3, 2, 2, 2) at cost 9
    s = Multiset.of([16, 30, 54, 60])
    cfg = SearchConfig(kind="comp")
    assert cfg.kind is CostKind.NUM_COMP and cfg.primes_only is False
    assert SearchConfig(kind="digits").primes_only is True
    r, member = find_base(s, cfg), find_base(s, SearchConfig(kind=CostKind.NUM_COMP))
    assert (r.best_base, r.best_cost) == (member.best_base, member.best_cost) \
        == ((3, 2, 2, 2, 2), 8)
    assert cost_of("comp", s, (3, 2, 2, 2, 2)) == 8
    assert BaseEval.root(s, "carry").kind is CostKind.SUM_CARRY
    for bad in ("bogus", "NUM_COMP", None):
        with pytest.raises(ValueError):
            SearchConfig(kind=bad)
        with pytest.raises(ValueError):
            cost_of(bad, s, (2,))


def test_timeout_returns_best_so_far():
    rng = random.Random(17)
    s = Multiset.of([rng.randint(1, 2**31 - 1) for _ in range(8)])
    for algo in ("dfs", "bnb", "hashbnb"):
        r = find_base(s, cfg_for("carry", max_elem=10_000, primes=True,
                                 algo=algo, timeout=0.02))
        assert r.timed_out and not r.optimal_guaranteed
        assert r.best_cost == cost_of(CostKind.SUM_CARRY, s, r.best_base)
        assert r.elapsed < 5.0


def test_pruned_plus_expanded_accounts_for_brute_tree():
    # dfs with pruning sees every node the brute tree has, one way or another
    rng = random.Random(25)
    for _ in range(30):
        elems = [rng.randint(1, 80) for _ in range(rng.randint(1, 4))]
        s = Multiset.of(elems)
        cfg = cfg_for("digits", max_elem=s.max + 1, primes=False, algo="brute")
        total = find_base(s, cfg).nodes_expanded
        assert total == count_bases(s)


def test_find_base_refuses_sums_past_int64():
    # sum(S) is the cost of the empty base and must fit in int64; exactly
    # at the bound every cost is still exact
    with pytest.raises(ValueError, match="sum"):
        find_base(Multiset.of([2**62, 2**62, 2**62 - 1]), cfg_for())
    s = Multiset.of([2**62, 2**62 - 1])
    for kind in ("digits", "carry", "comp"):
        assert cost_of(KINDS[kind], s, ()) == cost_oracle(kind, s.elements, ())
        assert cost_of(KINDS[kind], s, (2, 3)) == \
            cost_oracle(kind, s.elements, (2, 3))


def test_comp_search_refuses_sums_past_its_int64_bound():
    # the sum fits in int64, but comparator counts over it would not
    s = Multiset.of([2**61, 2**61 - 12345, 3**38])
    for algo in ("hashbnb", "bnb", "dfs"):
        with pytest.raises(ValueError, match="comp"):
            find_base(s, cfg_for("comp", primes=False, algo=algo))
    assert cost_of(CostKind.NUM_COMP, s, (5,)) == 1092336913253587352582
    # just below the bound the search's costs are still exact
    s = Multiset.of([2**50, 2**49 + 12345, 3**30])
    for algo in ("hashbnb", "bnb", "dfs"):
        r = find_base(s, cfg_for("comp", max_elem=16, algo=algo))
        assert r.best_cost == cost_oracle("comp", s.elements, r.best_base)


# A fake clock reads 0, 1, 2, ... so a search with timeout t expands t nodes
# and stops at the next expansion: (base, cost, expanded, pruned, timed_out,
# optimal_guaranteed) for [16, 30, 54, 60, 97, 1000, 4321], max_elem 5000.
BIN12 = (2,) * 12
CLOCK_STOPPED = {
    ("dfs", "digits", 0): (BIN12, 27, 0, 0, True, False),
    ("dfs", "digits", 3): (BIN12, 27, 3, 7541, True, False),
    ("dfs", "digits", 10): (BIN12, 27, 10, 8569, True, False),
    ("dfs", "carry", 0): (BIN12, 47, 0, 0, True, False),
    ("dfs", "carry", 3): (BIN12, 47, 3, 7524, True, False),
    ("dfs", "carry", 10): (BIN12, 47, 10, 8502, True, False),
    ("dfs", "comp", 0): (BIN12, 78, 0, 0, True, False),
    ("dfs", "comp", 3): (BIN12, 78, 3, 7543, True, False),
    ("dfs", "comp", 10): (BIN12, 78, 10, 8579, True, False),
    ("bnb", "digits", 0): (BIN12, 27, 0, 0, True, False),
    ("bnb", "digits", 3): (BIN12, 27, 3, 7900, True, False),
    ("bnb", "digits", 10): (BIN12, 27, 10, 13223, True, False),
    ("bnb", "carry", 0): (BIN12, 47, 0, 0, True, False),
    ("bnb", "carry", 3): (BIN12, 47, 3, 7884, True, False),
    ("bnb", "carry", 10): (BIN12, 47, 10, 13527, True, False),
    ("bnb", "comp", 0): (BIN12, 78, 0, 0, True, False),
    ("bnb", "comp", 3): (BIN12, 78, 3, 7543, True, False),
    ("bnb", "comp", 10): (BIN12, 78, 10, 12723, True, False),
    ("hashbnb", "digits", 0): (BIN12, 27, 0, 0, True, False),
    ("hashbnb", "digits", 3): (BIN12, 27, 3, 7901, True, False),
    ("hashbnb", "digits", 10): (BIN12, 27, 10, 12134, True, False),
    ("hashbnb", "carry", 0): (BIN12, 47, 0, 0, True, False),
    ("hashbnb", "carry", 3): (BIN12, 47, 3, 7885, True, False),
    ("hashbnb", "carry", 10): ((2, 2, 3, 40), 45, 10, 12285, True, False),
    ("hashbnb", "comp", 0): (BIN12, 78, 0, 0, True, False),
    ("hashbnb", "comp", 3): (BIN12, 78, 3, 7543, True, False),
    ("hashbnb", "comp", 10): (BIN12, 78, 10, 11881, True, False),
    ("brute", "digits", 0): ((), 5578, 0, 0, True, False),
    ("brute", "digits", 3): ((2, 2), 1397, 3, 0, True, False),
    ("brute", "digits", 10): ((2, 2, 2, 2, 2, 2, 2, 2, 2), 34, 10, 0, True, False),
    ("brute", "carry", 0): ((), 5578, 0, 0, True, False),
    ("brute", "carry", 3): ((2, 2), 1399, 3, 0, True, False),
    ("brute", "carry", 10): ((2, 2, 2, 2, 2, 2, 2, 2, 2), 53, 10, 0, True, False),
    ("brute", "comp", 0): ((), 223119, 0, 0, True, False),
    ("brute", "comp", 3): ((2, 2), 39732, 3, 0, True, False),
    ("brute", "comp", 10): ((2, 2, 2, 2, 2, 2, 2, 2, 2), 116, 10, 0, True, False),
}


@pytest.mark.parametrize("algo,kind,timeout", sorted(CLOCK_STOPPED))
def test_search_stopped_by_its_clock(monkeypatch, algo, kind, timeout):
    ticks = itertools.count()
    monkeypatch.setattr(search, "time", types.SimpleNamespace(
        monotonic=lambda: float(next(ticks))))
    r = find_base(Multiset.of([16, 30, 54, 60, 97, 1000, 4321]),
                  cfg_for(kind, max_elem=5000, primes=False, algo=algo,
                          timeout=timeout))
    assert (r.best_base, r.best_cost, r.nodes_expanded, r.nodes_pruned,
            r.timed_out, r.optimal_guaranteed) \
        == CLOCK_STOPPED[algo, kind, timeout]
