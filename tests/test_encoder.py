import itertools
import random
from dataclasses import asdict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optibase import encoder
from optibase.cost import CostKind, comparator_count, cost_of
from optibase.encoder import (FALSE, MAX_VARIABLES, TRUE, CnfBuilder,
                              PbConstraint, Cnf, _and2, _disjuncts,
                              _merge_exchange_pairs, _or_many, comparator,
                              decompose, encode_constraint, encode_geq,
                              encode_instance, sorting_network, to_dimacs)
from optibase.mixedradix import Multiset, digits_of
from optibase.opb import load_instance
from optibase.satcheck import Solver
from optibase.search import SearchConfig, find_base

from helpers import constraint_value, normalize_bus

PSI = PbConstraint(tuple((c, i + 1) for i, c in enumerate([2, 2, 2, 2, 5, 18])), 23)


def lit_value(lit, model):
    if lit == TRUE:
        return True
    if lit == FALSE:
        return False
    v = model[abs(lit)]
    return v if lit > 0 else not v


def eval_bus(bus, model):
    return [lit_value(lit, model) for lit in bus]


def test_comparator_folding_and_clauses():
    bld = CnfBuilder(2)
    assert comparator(TRUE, 1, bld) == (TRUE, 1)
    assert comparator(1, FALSE, bld) == (1, FALSE)
    assert comparator(FALSE, 2, bld) == (2, FALSE)
    assert comparator(2, TRUE, bld) == (TRUE, 2)
    assert not bld.clauses and bld.comparators == 0 and bld.num_vars == 2
    hi, lo = comparator(1, 2, bld)
    assert (hi, lo) == (3, 4)
    assert len(bld.clauses) == 6 and bld.comparators == 1
    # a literal with digit 2 meets itself: the pair passes through
    assert comparator(1, 1, bld) == (1, 1)
    assert len(bld.clauses) == 6 and bld.comparators == 1


@pytest.mark.parametrize("polarity", ["full", "monotone"])
def test_comparator_equal_or_complementary_inputs_emit_nothing(polarity):
    bld = CnfBuilder(2, polarity)
    assert comparator(1, 1, bld) == (1, 1)
    assert comparator(-2, -2, bld) == (-2, -2)
    assert comparator(1, -1, bld) == (TRUE, FALSE)
    assert comparator(-2, 2, bld) == (TRUE, FALSE)
    assert (bld.clauses, bld.num_vars, bld.comparators) == ([], 2, 0)


@pytest.mark.parametrize("polarity", ["full", "monotone"])
def test_comparator_repeated_pair_returns_its_outputs(polarity):
    bld = CnfBuilder(3, polarity)
    out = comparator(1, -2, bld)
    emitted = (list(bld.clauses), bld.num_vars, bld.comparators)
    assert comparator(1, -2, bld) == out and comparator(-2, 1, bld) == out
    assert (bld.clauses, bld.num_vars, bld.comparators) == emitted
    # another pair over the same variables is a new comparator
    assert comparator(1, 2, bld) != out and bld.comparators == 2


def test_comparator_semantics_exhaustive():
    bld = CnfBuilder(2)
    hi, lo = comparator(1, 2, bld)
    solver = Solver(bld.clauses, bld.num_vars)
    for a, b in itertools.product([False, True], repeat=2):
        model = solver.solve([1 if a else -1, 2 if b else -2])
        assert model is not None
        assert model[hi] == (a or b)
        assert model[lo] == (a and b)


def test_comparator_monotone_polarity_halves_clauses():
    bld = CnfBuilder(2, polarity="monotone")
    comparator(1, 2, bld)
    assert len(bld.clauses) == 3 and bld.comparators == 1
    comparator(-1, 2, bld)
    assert len(bld.clauses) == 6 and bld.comparators == 2


def _folded(clauses):
    """The clauses as ``add_clause`` keeps them, one after another, with a
    clause equal to an earlier one of the same gate dropped."""
    kept = []
    for cl in clauses:
        out = _disjuncts(cl)
        if out is not None and out not in kept:
            kept.append(out)
    return kept


def _reference_comparator(a, b, bld):
    if a == TRUE or b == FALSE:
        return a, b
    if b == TRUE or a == FALSE:
        return b, a
    if a == b:
        return a, a
    if a == -b:
        return TRUE, FALSE
    key = frozenset((a, b))
    if key not in bld.gates:
        hi, lo = bld.gates[key] = bld.fresh(), bld.fresh()
        six = [[-hi, a, b], [-lo, a], [-lo, b], [-a, hi], [-b, hi], [-a, -b, lo]]
        bld.clauses += _folded(six if bld.polarity == "full" else six[:3])
        bld.comparators += 1
    return bld.gates[key]


@pytest.mark.parametrize("polarity", ["full", "monotone"])
def test_comparator_matches_the_folded_six_clauses(polarity):
    # one builder for every pair, so repeated pairs in either order share
    lits = (TRUE, FALSE, 1, -1, 2, -2)
    got, ref = CnfBuilder(2, polarity), CnfBuilder(2, polarity)
    for a, b in itertools.product(lits, repeat=2):
        assert comparator(a, b, got) == _reference_comparator(a, b, ref), (a, b)
        assert got.clauses == ref.clauses, (a, b)
        assert (got.num_vars, got.comparators) == (ref.num_vars, ref.comparators)
    assert got.comparators == 4  # {1, 2}, {1, -2}, {-1, 2}, {-1, -2}


def _reference_and2(a, b, bld):
    return -_reference_or_many([-a, -b], bld)


def _reference_or_many(lits, bld):
    kept = _disjuncts(lits)
    if kept is None:
        return TRUE
    if len(kept) < 2:
        return kept[0] if kept else FALSE
    key = ("or", *sorted(kept))
    if key not in bld.gates:
        v = bld.gates[key] = bld.fresh()
        bld.clauses += _folded([[-v] + kept] + [[-lit, v] for lit in kept])
    return bld.gates[key]


def test_gates_match_their_folded_clauses():
    # repeated calls share a gate; (1, -1) is a complementary pair
    lits = (TRUE, FALSE, 1, -1, 2, 3)
    calls = [(_and2, _reference_and2, pair)
             for pair in itertools.product(lits, repeat=2)]
    calls += [(_or_many, _reference_or_many, (ins,))
              for n in range(4) for ins in itertools.product(lits, repeat=n)]
    got, ref = CnfBuilder(3), CnfBuilder(3)
    for gate, reference, args in calls:
        assert gate(*args, got) == reference(*args, ref), (gate.__name__, args)
        assert got.clauses == ref.clauses and got.gates == ref.gates
        assert got.num_vars == ref.num_vars
    # the and-gates are or-gates over {-1, 1, -2, -3}, the or-gates over {1, -1, 2, 3}
    assert len(got.gates) == 5 + 7


def test_and_gate_is_the_negated_or_gate():
    bld = CnfBuilder(2)
    v = _or_many([-1, -2], bld)
    emitted = (list(bld.clauses), bld.num_vars)
    assert _and2(1, 2, bld) == -v and _and2(2, 1, bld) == -v
    assert (bld.clauses, bld.num_vars) == emitted


@pytest.mark.parametrize("n", list(range(0, 15)))
def test_sorting_network_small_counts_and_sortedness(n):
    bld = CnfBuilder(n)
    out = sorting_network(tuple(range(1, n + 1)), bld)
    assert len(out) == n
    if n <= 8:
        assert bld.comparators == comparator_count(n)
    assert bld.network_sizes == [n]
    if n == 2:
        assert len(bld.clauses) == 6
    if n == 0:
        return
    solver = Solver(bld.clauses, bld.num_vars)
    for bits in itertools.product([False, True], repeat=n):
        model = solver.solve([i + 1 if b else -(i + 1) for i, b in enumerate(bits)])
        assert model is not None
        got = eval_bus(out, model)
        assert got == sorted(bits, reverse=True)


# comparators of Batcher's merge exchange on n distinct inputs
MERGE_EXCHANGE_COMPARATORS = {9: 26, 16: 63, 17: 74, 33: 207, 65: 565,
                              129: 1500, 257: 3876, 500: 9505, 1000: 23499}


@pytest.mark.parametrize("n", [9, 11, 13, 16, 17, 33, 65, 129, 257, 500, 1000])
def test_sorting_network_large(n):
    bld = CnfBuilder(n)
    out = sorting_network(tuple(range(1, n + 1)), bld)
    assert len(out) == n
    if n in MERGE_EXCHANGE_COMPARATORS:
        assert bld.comparators == MERGE_EXCHANGE_COMPARATORS[n]
    if n & (n - 1) == 0:
        assert bld.comparators == comparator_count(n)
    solver = Solver(bld.clauses, bld.num_vars)
    rng = random.Random(30)
    for _ in range(150 if n <= 64 else 20):
        bits = [rng.random() < 0.5 for _ in range(n)]
        model = solver.solve([i + 1 if b else -(i + 1) for i, b in enumerate(bits)])
        assert model is not None
        assert eval_bus(out, model) == sorted(bits, reverse=True)


def test_batcher_pair_counts_match_formula():
    for k in range(1, 9):
        n = 1 << k
        assert len(_merge_exchange_pairs(n)) == n * k * (k - 1) // 4 + n - 1


def test_normalizer_shapes():
    # a 6-output network normalized by 3: carries y3, y6 and two remainder lines
    bld = CnfBuilder(6)
    bus = tuple(range(1, 7))
    rem, carries = normalize_bus(bus, 3, bld)
    assert carries == (3, 6)
    assert len(rem) == 2
    # shorter than the radix: the identity, no clauses
    bld = CnfBuilder(2)
    rem, carries = normalize_bus((1, 2), 5, bld)
    assert carries == ()
    assert rem == (1, 2)
    assert not bld.clauses
    # exactly the radix: one carry, remainder gated by its negation
    bld = CnfBuilder(3)
    rem, carries = normalize_bus((1, 2, 3), 3, bld)
    assert carries == (3,)
    assert len(rem) == 2 and len(bld.clauses) == 6
    # a radix far past the bus: remainder lines beyond the bus would be
    # constant FALSE, so the work is bounded by the bus, not the radix
    bld = CnfBuilder(3)
    rem, carries = normalize_bus((1, 2, 3), 10**6, bld)
    assert rem == (1, 2, 3) and carries == ()
    assert not bld.clauses and bld.num_vars == 3


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("m", list(range(0, 10)))
def test_normalizer_semantics_exhaustive(m, r):
    # feed every sorted input pattern through a real network + normalizer
    bld = CnfBuilder(m)
    sorted_bus = sorting_network(tuple(range(1, m + 1)), bld)
    rem, carries = normalize_bus(sorted_bus, r, bld)
    assert len(rem) == min(r - 1, m)
    assert len(carries) == m // r
    solver = Solver(bld.clauses, bld.num_vars)
    for true_count in range(m + 1):
        bits = [True] * true_count + [False] * (m - true_count)
        model = solver.solve([i + 1 if b else -(i + 1) for i, b in enumerate(bits)])
        assert model is not None
        got_rem = eval_bus(rem, model)
        got_car = eval_bus(carries, model)
        assert got_rem == sorted(got_rem, reverse=True)  # unary shape
        assert sum(got_rem) == true_count % r
        assert sum(got_car) == true_count // r


def test_decompose_running_example():
    buses = decompose(PSI, (2, 3, 3))
    assert [len(b) for b in buses] == [1, 6, 0, 1]
    assert buses[0] == (5,)
    assert buses[1] == (1, 2, 3, 4, 5, 5)
    assert buses[3] == (6,)


def test_decompose_trivial_cases():
    assert decompose(PbConstraint(((1, 1),), 1), ()) == [(1,)]
    buses = decompose(PbConstraint(((5, 7),), 1), (2, 3, 3))
    assert buses == [(7,), (7, 7), (), ()]


def test_decompose_refuses_digit_sums_past_the_bus_limit():
    limit = encoder.MAX_BUS_INPUTS
    buses = decompose(PbConstraint(((limit - 1, 1), (1, 2)), 1), ())
    assert [len(b) for b in buses] == [limit]
    with pytest.raises(ValueError, match="unary digit inputs"):
        decompose(PbConstraint(((limit, 1), (1, 2)), 1), ())
    # the digit count, not the coefficient, decides: 2**40 in binary is 1
    assert decompose(PbConstraint(((1 << 40, 1),), 1), (2,) * 40)[40] == (1,)


def test_encode_geq_zero_digits_emits_nothing():
    bld = CnfBuilder(4)
    encode_geq([(1, 2), (3, 4)], (3,), (0, 0), bld)
    assert not bld.clauses and bld.num_vars == 4


def test_encode_geq_unary_threshold_is_unit_clause():
    bld = CnfBuilder(8)
    bus = tuple(range(1, 9))
    encode_geq([bus], (), (4,), bld)
    assert bld.clauses == [[4]]


def test_encode_geq_unreachable_digit_is_empty_clause():
    bld = CnfBuilder(2)
    encode_geq([(1, 2)], (), (3,), bld)
    assert bld.clauses == [[]]
    assert [] in bld.clauses


def test_encode_geq_repeated_comparison_reuses_its_gates():
    # the lines and gates it reads already exist, so only its unit clause is new
    bld = CnfBuilder(6)
    base = (2, 3, 3)
    buses = encode_constraint(PSI, base, bld)
    clauses, num_vars = len(bld.clauses), bld.num_vars
    encode_geq(buses, base, digits_of(PSI.threshold, base), bld)
    assert len(bld.clauses) == clauses + 1 and bld.num_vars == num_vars
    assert bld.clauses[-1] == bld.clauses[clauses - 1]


@pytest.mark.parametrize("polarity", ["full", "monotone"])
def test_one_builder_shares_networks(polarity):
    terms = ((3, 1), (5, -2), (6, 3), (7, 4))
    flipped = tuple((c, -lit) for c, lit in terms)
    cons = [PbConstraint(terms, 9), PbConstraint(terms, 14), PbConstraint(flipped, 10)]
    base = (2, 3)
    bld = CnfBuilder(4, polarity=polarity)
    grown, units = [], []
    for c in cons:
        encode_constraint(c, base, bld)
        grown.append((bld.comparators, len(bld.network_sizes)))
        units.append(len(bld.clauses) - 1)
    assert grown[1] == grown[0]
    # a monotone comparator cannot back the negated comparison: own network
    assert (grown[2] == grown[0]) == (polarity == "full")
    # the combined CNF, each comparison's unit clause held out and assumed
    assert all(len(bld.clauses[u]) == 1 for u in units)
    solver = Solver([cl for i, cl in enumerate(bld.clauses) if i not in units],
                    bld.num_vars)
    for bits in itertools.product([False, True], repeat=4):
        inputs = [v if b else -v for v, b in zip(range(1, 5), bits)]
        model = dict(zip(range(1, 5), bits))
        for c, u in zip(cons, units):
            want = constraint_value(c.terms, model) >= c.threshold
            assert (solver.solve(inputs + bld.clauses[u]) is not None) == want


@pytest.mark.parametrize("polarity", ["full", "monotone"])
def test_constraints_sharing_one_builder_agree_with_arithmetic(polarity):
    # two constraints over the same six variables in one builder: the second
    # reads comparator pairs and gates the first built, and each
    # comparison's unit clause is held out and assumed on its own
    rng = random.Random(71)
    reused = 0
    for _ in range(150):
        lits, cons = [v if rng.random() < 0.5 else -v for v in range(1, 7)], []
        for _ in range(2):
            terms = tuple((rng.randint(1, 12), lit if rng.random() < 0.8 else -lit)
                          for lit in lits)
            cons.append(PbConstraint(terms, rng.randint(1, sum(c for c, _ in terms))))
        base = rng.choice([(), (2,), (2, 2), (2, 3), (3,), (3, 2, 2)])
        bld, units, grown = CnfBuilder(6, polarity), [], []
        for c in cons:
            encode_constraint(c, base, bld)
            units.append(len(bld.clauses) - 1)
            grown.append((bld.comparators, len(bld.network_sizes)))
        alone = CnfBuilder(6, polarity)
        encode_constraint(cons[1], base, alone)
        if grown[1][1] > grown[0][1]:  # the second built its own network
            reused += alone.comparators - (grown[1][0] - grown[0][0])
        assert all(len(bld.clauses[u]) == 1 for u in units)
        solver = Solver([cl for i, cl in enumerate(bld.clauses) if i not in units],
                        bld.num_vars)
        for bits in itertools.product([False, True], repeat=6):
            inputs = [v if b else -v for v, b in zip(range(1, 7), bits)]
            model = dict(zip(range(1, 7), bits))
            for c, u in zip(cons, units):
                want = constraint_value(c.terms, model) >= c.threshold
                assert (solver.solve(inputs + bld.clauses[u]) is not None) == want
    assert reused > 0


def test_encode_constraint_running_example_structure():
    bld = CnfBuilder(6)
    encode_constraint(PSI, (2, 3, 3), bld)
    assert bld.network_sizes == [1, 6, 2, 1]
    assert [] not in bld.clauses


def test_encode_constraint_unreachable_threshold():
    bld = CnfBuilder(2)
    encode_constraint(PbConstraint(((1, 1), (2, 2)), 4), (2,), bld)
    assert bld.clauses == [[]]


def test_encode_constraint_pure_cardinality():
    # all-unit coefficients over the empty base: one network, one unit clause
    c = PbConstraint(tuple((1, i + 1) for i in range(5)), 3)
    bld = CnfBuilder(5)
    encode_constraint(c, (), bld)
    assert bld.network_sizes == [5]
    assert bld.comparators == comparator_count(5)
    units = [cl for cl in bld.clauses if len(cl) == 1]
    assert len(units) == 1


def _equisat_check(c: PbConstraint, base, polarity="full"):
    ids = sorted(abs(lit) for _, lit in c.terms)
    bld = CnfBuilder(max(ids, default=0), polarity=polarity)
    encode_constraint(c, base, bld)
    solver = Solver(bld.clauses, bld.num_vars)
    for bits in itertools.product([False, True], repeat=len(ids)):
        assignment = dict(zip(ids, bits))
        assumptions = [v if assignment[v] else -v for v in ids]
        got = solver.solve(assumptions) is not None
        want = constraint_value(c.terms, assignment) >= c.threshold
        assert got == want, (c, base, assignment)


def test_encode_constraint_equisat_running_example():
    for base in ((2, 3, 3), (2, 9), (), (2, 2, 2, 2)):
        _equisat_check(PSI, base)


@pytest.mark.parametrize("base", [(-2,), (0,), (1,)])
def test_radices_below_two_are_refused(base):
    # (-2,) used to give a CNF wrong on 4 of the 8 assignments, (0,) a
    # ZeroDivisionError; the forced base of encode_instance goes the same way
    c = PbConstraint(((3, 1), (5, 2), (6, 3)), 8)
    with pytest.raises(ValueError, match="invalid radix"):
        encode_constraint(c, base, CnfBuilder(3))
    with pytest.raises(ValueError, match="invalid radix"):
        encode_instance([c], 3, SearchConfig(kind=CostKind.SUM_DIGITS),
                        forced_base=base)
    _equisat_check(c, (2,))


def _random_constraint(rng, max_vars=5, max_coef=20):
    n = rng.randint(1, max_vars)
    terms = []
    for v in range(1, n + 1):
        lit = v if rng.random() < 0.5 else -v
        terms.append((rng.randint(1, max_coef), lit))
    total = sum(c for c, _ in terms)
    k = rng.randint(1, total + 2)
    return PbConstraint(tuple(terms), k)


def test_encode_constraint_equisat_random():
    rng = random.Random(31)
    for _ in range(60):
        c = _random_constraint(rng)
        m = max(coef for coef, _ in c.terms)
        bases = [(), (2,) * max(0, m.bit_length() - 1)]
        bases.append(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
        for base in bases:
            _equisat_check(c, base)


def test_encode_constraint_equisat_monotone_polarity():
    rng = random.Random(32)
    for _ in range(25):
        c = _random_constraint(rng, max_vars=4, max_coef=12)
        _equisat_check(c, (2, 3), polarity="monotone")
        _equisat_check(c, (), polarity="monotone")


def test_sortedness_of_all_buses_in_models():
    # in every model the network outputs and remainders are thermometer-shaped
    rng = random.Random(33)
    for _ in range(20):
        c = _random_constraint(rng, max_vars=4, max_coef=15)
        base = (2, 3)
        ids = sorted(abs(lit) for _, lit in c.terms)
        bld = CnfBuilder(max(ids), polarity="full")
        if c.coefficient_sum < c.threshold:
            continue
        buses = decompose(c, base)
        carries = ()
        out_buses = []
        for j in range(len(base) + 1):
            sorted_bus = sorting_network(buses[j] + carries, bld)
            out_buses.append(sorted_bus)
            if j < len(base):
                rem, carries = normalize_bus(sorted_bus, base[j], bld)
                out_buses.append(rem)
        solver = Solver(bld.clauses, bld.num_vars)
        for bits in itertools.product([False, True], repeat=len(ids)):
            assumptions = [v if b else -v for v, b in zip(ids, bits)]
            model = solver.solve(assumptions)
            assert model is not None  # no threshold asserted yet
            for bus in out_buses:
                vals = eval_bus(bus, model)
                assert vals == sorted(vals, reverse=True)


def test_encode_instance_empty():
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    cnf, stats = encode_instance([], 0, cfg)
    assert cnf.num_vars == 0 and cnf.clauses == [] and stats == []


def test_encode_instance_shared_variable_space():
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    c1 = PbConstraint(((3, 1), (5, 2)), 4)
    c2 = PbConstraint(((2, 1), (7, 3)), 2)
    cnf, stats = encode_instance([c1, c2], 3, cfg)
    assert len(stats) == 2
    assert stats[0].index == 0 and stats[1].index == 1
    assert not cnf.has_empty_clause
    # every model satisfies the conjunction; x1 is one shared variable
    solver = Solver(cnf.clauses, cnf.num_vars)
    for bits in itertools.product([False, True], repeat=3):
        assumptions = [i + 1 if b else -(i + 1) for i, b in enumerate(bits)]
        got = solver.solve(assumptions) is not None
        a = dict(enumerate(bits, start=1))
        want = (constraint_value(c1.terms, a) >= 4
                and constraint_value(c2.terms, a) >= 2)
        assert got == want


def test_encode_instance_statically_unsat_and_fallback():
    cfg = SearchConfig(kind=CostKind.SUM_DIGITS, max_elem=50,
                       primes_only=True, timeout=0.0)
    bad = PbConstraint(((1, 1),), 5)
    ok = PbConstraint(((9, 2), (9, 3)), 9)
    unsat_entry = dict(
        index=0, base=(), cost_kind="digits", cost_value=None, clauses=1,
        vars=0, comparators=0, network_sizes=(), statically_unsat=True,
        fallback_binary=False, network_of=None)
    cnf, stats = encode_instance([bad, ok], 3, cfg)
    assert asdict(stats[0]) == unsat_entry
    assert cnf.has_empty_clause
    # zero-second search budget forces the binary fallback
    assert stats[1].fallback_binary
    assert stats[1].base == (2, 2, 2)
    # a forced base leaves the unsatisfiable entry as it is
    cnf, stats = encode_instance([bad, ok], 3, cfg, forced_base=(2, 3))
    assert asdict(stats[0]) == unsat_entry
    assert cnf.has_empty_clause
    assert stats[1].base == (2, 3) and not stats[1].fallback_binary


def test_forced_base_is_checked_without_a_satisfiable_constraint():
    # every constraint is statically unsatisfiable, so none reaches
    # encode_constraint; the forced base is still refused
    cfg = SearchConfig(kind=CostKind.SUM_DIGITS)
    unsat = PbConstraint(((1, 1), (1, 2)), 5)
    for base in ((1,), (0,), (2, 2.5)):
        with pytest.raises(ValueError):
            encode_instance([unsat], 2, cfg, forced_base=base)
    cnf, stats = encode_instance([unsat], 2, cfg, forced_base=[2])
    assert cnf.clauses == [[]] and stats[0].statically_unsat


def test_encode_instance_forced_base_stats():
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    cnf, stats = encode_instance([PSI], 6, cfg, forced_base=(2, 3, 3))
    st = stats[0]
    assert st.base == (2, 3, 3)
    assert st.network_sizes == (1, 6, 2, 1)
    assert st.cost_value == 10
    # the middle bus holds x5 twice, and comparator(x5, x5) folds: comp
    # counts one comparator more than is emitted
    assert st.comparators == 12 and st.clauses == 91
    assert cost_of(CostKind.NUM_COMP, Multiset.of([2, 2, 2, 2, 5, 18]), (2, 3, 3)) == 13


def test_dimacs_format_and_determinism():
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    outs = []
    for _ in range(2):
        cnf, _ = encode_instance([PSI], 6, cfg, forced_base=(2, 3, 3))
        cnf.comments = ["demo"]
        outs.append(to_dimacs(cnf))
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0] == "c demo"
    assert lines[1] == f"p cnf {cnf.num_vars} {len(cnf.clauses)}"
    assert all(line.endswith(" 0") for line in lines[2:])


def test_dimacs_empty_clause_line():
    cnf = Cnf(1, [[1], []])
    assert to_dimacs(cnf).splitlines() == ["p cnf 1 2", "1 0", "0"]
    assert to_dimacs(Cnf(0, [[]], ["x"])) == "c x\np cnf 0 1\n0\n"


def test_dimacs_clause_lines_are_literals_then_zero():
    # short clauses, the last cached clause length, the first and a long one
    # past it, and literals at the ends of the variable range
    rng = random.Random(41)
    big = 2**31 - 1
    clauses = [[rng.choice([-1, 1]) * rng.choice([1, 2, big - 1, big,
                                                  rng.randint(1, big)])
                for _ in range(rng.randint(0, 8))] for _ in range(300)]
    cached = len(encoder._CLAUSE_FORMATS)
    for n in (cached - 1, cached, 200):
        clauses.insert(n, [rng.choice([-big, big, -1, 7]) for _ in range(n)])
    comments = ["", "var 1 x1", "", "stats {}"]
    lines = to_dimacs(Cnf(big, clauses, comments)).split("\n")
    assert lines[:4] == ["c", "c var 1 x1", "c", "c stats {}"]
    assert lines[4] == f"p cnf {big} 303" and lines[-1] == ""
    assert lines[5:-1] == [" ".join(map(str, [*cl, 0])) for cl in clauses]
    assert {len(cl) for cl in clauses} == set(range(9)) | {cached - 1, cached, 200}


# an = constraint (two halves over one multiset) and two constraints
# over another: four constraints, two distinct coefficient multisets
MEMO_OPB = """+3 x1 +5 x2 +7 x3 +11 x4 +13 x5 +17 x6 +19 x7 = 30 ;
+12 x1 +20 x2 +30 x3 >= 31 ;
+20 x4 +30 x5 +12 x6 >= 25 ;
"""


class _Unshared(Multiset):
    """A multiset equal only to itself: no two constraints share a search."""
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _encode_counting(monkeypatch, cfg, shared_search=True):
    inst = load_instance(MEMO_OPB)
    calls = []

    def counting_find_base(s, cfg):
        calls.append(s.elements)
        return find_base(s, cfg)

    with monkeypatch.context() as m:
        m.setattr(encoder, "find_base", counting_find_base)
        if not shared_search:
            m.setattr(encoder, "Multiset", SimpleNamespace(
                of=lambda values: _Unshared(Multiset.of(values).elements)))
        cnf, stats = encode_instance(inst.constraints, len(inst.names), cfg)
    return inst, to_dimacs(cnf), [asdict(st) for st in stats], calls


def test_encode_instance_searches_each_multiset_once(monkeypatch):
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    inst, dimacs, stats, calls = _encode_counting(monkeypatch, cfg)
    multisets = [tuple(sorted(c for c, _ in pc.terms))
                 for pc in inst.constraints]
    assert len(multisets) == 4 and len(set(multisets)) == 2
    assert sorted(calls) == sorted(set(multisets))
    _, dimacs_unshared, stats_unshared, calls_unshared = _encode_counting(
        monkeypatch, cfg, shared_search=False)
    assert calls_unshared == multisets
    assert stats == stats_unshared
    assert dimacs == dimacs_unshared


def test_encode_instance_equality_halves_share_the_fallback(monkeypatch):
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50,
                       primes_only=False, timeout=1e-9)
    _, _, stats, calls = _encode_counting(monkeypatch, cfg)
    assert len(calls) == 2
    assert stats[0]["fallback_binary"] == stats[1]["fallback_binary"]
    assert stats[0]["base"] == stats[1]["base"]


def test_encode_instance_readers_name_the_network_they_read():
    # constraint 1 is the complemented half of the =, constraint 2 repeats
    # constraint 0's term vector, constraint 3 has a vector of its own
    inst = load_instance("+3 x1 +5 x2 +7 x3 = 8 ;\n+3 x1 +5 x2 +7 x3 >= 4 ;\n"
                         "+2 x1 +2 x2 >= 1 ;\n")
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    for polarity, want in (("full", [None, 0, 0, None]),
                           ("monotone", [None, None, 0, None])):
        cnf, stats = encode_instance(inst.constraints, len(inst.names), cfg,
                                     polarity=polarity)
        assert [st.network_of for st in stats] == want
        for st in stats:
            if st.network_of is None:
                assert st.network_sizes
            else:
                assert st.comparators == 0 and st.network_sizes == ()
                assert st.cost_value == stats[st.network_of].cost_value
        assert sum(st.clauses for st in stats) == len(cnf.clauses)


def test_encode_instance_equality_halves_share_remainder_lines():
    # the second half of each = reads the first half's network, and the
    # remainder lines both comparisons read are built once
    rng = random.Random(7)
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50, primes_only=False)
    clauses = num_vars = 0
    for _ in range(40):
        coefs = [rng.randint(1, 60) for _ in range(rng.randint(4, 9))]
        rhs = rng.randint(1, sum(coefs) - 1)
        inst = load_instance(" ".join(f"+{c} x{i}" for i, c in enumerate(coefs, 1))
                             + f" = {rhs} ;\n")
        cnf, stats = encode_instance(inst.constraints, len(inst.names), cfg)
        assert [st.network_of for st in stats] == [None, 0]
        clauses += len(cnf.clauses)
        num_vars += cnf.num_vars
    assert clauses <= 11_598 and num_vars <= 4_123


def test_encode_instance_without_fallback_keeps_best_so_far(monkeypatch):
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=50,
                       primes_only=False, timeout=1e-9)
    inst = load_instance(MEMO_OPB)
    results = []

    def recording_find_base(s, cfg):
        results.append(find_base(s, cfg))
        return results[-1]

    monkeypatch.setattr(encoder, "find_base", recording_find_base)
    _, stats = encode_instance(inst.constraints, len(inst.names), cfg,
                               fallback_binary=False)
    multisets = [tuple(sorted(c for c, _ in pc.terms))
                 for pc in inst.constraints]
    searched = dict(zip(dict.fromkeys(multisets), results))
    assert len(results) == 2 and all(r.timed_out for r in results)
    for st, m in zip(stats, multisets):
        assert st.base == searched[m].best_base
        assert not st.fallback_binary


def test_fresh_variable_budget_guard():
    bld = CnfBuilder(0)
    bld.num_vars = 2**31 - 1
    with pytest.raises(OverflowError):
        bld.fresh()


def test_neg_and_clause_folding():
    assert -TRUE == FALSE and TRUE > MAX_VARIABLES
    # the solver's range check refuses a constant that leaked into a clause
    with pytest.raises(ValueError):
        Solver([[1, TRUE]], 1)
    bld = CnfBuilder(2)
    bld.add_clause([1, TRUE, 2])      # satisfied, dropped
    bld.add_clause([1, FALSE, 2])     # FALSE drops out
    bld.add_clause([1, -1])           # tautology, dropped
    bld.add_clause([1, 1, 2])         # duplicate literal collapses
    assert bld.clauses == [[1, 2], [1, 2]]


def _opb_line(terms, relation, rhs):
    body = " ".join(f"{c:+d} {'~' if negated else ''}x{v}"
                    for c, v, negated in terms)
    return f"{body} {relation} {rhs} ;\n"


def test_encode_instance_emits_no_repeated_clause(monkeypatch):
    # coefficients with digits of 2 or more under small radices, and the
    # halves of = reading one network: no clause may be written twice
    equal_inputs = []

    def counting_comparator(a, b, bld):
        equal_inputs.append(a == b)
        return comparator(a, b, bld)

    monkeypatch.setattr(encoder, "comparator", counting_comparator)
    rng = random.Random(61)
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=60, primes_only=False)
    for _ in range(30):
        lines = []
        for _ in range(rng.randint(2, 4)):
            vs = rng.sample(range(1, 13), rng.randint(3, 8))
            terms = [(rng.randint(1, 60), v, rng.random() < 0.3) for v in vs]
            total = sum(c for c, _, _ in terms)
            lines.append(_opb_line(terms, rng.choice(["=", "<=", ">="]),
                                   rng.randint(1, total)))
        inst = load_instance("".join(lines))
        for forced in (None, (2, 2, 2), (3, 3)):
            for polarity in ("full", "monotone"):
                cnf, _ = encode_instance(inst.constraints, len(inst.names), cfg,
                                         forced_base=forced, polarity=polarity)
                keys = [tuple(sorted(cl)) for cl in cnf.clauses]
                assert len(set(keys)) == len(keys)
    assert sum(equal_inputs) > 100


_ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True,
                       database=None)


@st.composite
def _instances(draw):
    """OPB text over at most four variables: a few term vectors, each used
    by constraints with any relation, as written or complemented, in any
    order."""
    n = draw(st.integers(1, 4))
    vectors = draw(st.lists(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, n), st.booleans()),
                 min_size=1, max_size=4, unique_by=lambda t: t[1]),
        min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(st.sampled_from(vectors))
        if draw(st.booleans()):
            terms = [(c, v, not negated) for c, v, negated in terms]
        total = sum(c for c, _, _ in terms)
        lines.append(_opb_line(terms, draw(st.sampled_from(["=", "<=", ">="])),
                               draw(st.integers(-1, total + 1))))
    return "".join(lines)


@_ROUND_TRIP
@given(_instances(), st.sampled_from(["full", "monotone"]), st.booleans(),
       st.sampled_from([None, (), (2,), (2, 3), (3, 2, 2)]))
def test_instance_round_trip_agrees_with_arithmetic(text, polarity, saturate,
                                                    forced):
    inst = load_instance(text, saturate=saturate)
    cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=9, primes_only=False)
    cnf, stats = encode_instance(inst.constraints, len(inst.names), cfg,
                                 forced_base=forced, polarity=polarity)
    assert sum(st.clauses for st in stats) == len(cnf.clauses)
    solver = Solver(cnf.clauses, cnf.num_vars)
    for bits in itertools.product([False, True], repeat=len(inst.names)):
        assignment = dict(zip(inst.names, bits))
        assumptions = [v if b else -v for v, b in enumerate(bits, start=1)]
        got = solver.solve(assumptions) is not None
        assert got == all(rc.holds(assignment) for rc in inst.raws), assignment
