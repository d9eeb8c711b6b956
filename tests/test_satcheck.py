import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optibase.encoder import CnfBuilder, PbConstraint, encode_constraint
from optibase.satcheck import Solver, SolverBudgetExceeded

from helpers import first_model_oracle


def test_empty_cnf_is_sat():
    assert Solver([], 0).solve() == {}
    # unconstrained variables follow the true-first branching order
    assert Solver([], 3).solve() == {1: True, 2: True, 3: True}


def test_unit_contradiction_is_unsat():
    assert Solver([[1], [-1]], 1).solve() is None


def test_empty_clause_is_unsat():
    assert Solver([[1], []], 1).solve() is None


def test_running_example_assumption():
    psi = PbConstraint(tuple((c, i + 1) for i, c in enumerate([2, 2, 2, 2, 5, 18])), 23)
    bld = CnfBuilder(6)
    encode_constraint(psi, (2, 3, 3), bld)
    model = Solver(bld.clauses, bld.num_vars).solve([-1, -2, -3, -4, 5, 6])
    assert model is not None  # 5 + 18 = 23 >= 23
    model = Solver(bld.clauses, bld.num_vars).solve([-1, -2, -3, -4, 5, -6])
    assert model is None      # 5 < 23


def test_model_satisfies_all_clauses():
    rng = random.Random(50)
    for _ in range(200):
        num_vars = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(1, 25)):
            width = rng.randint(1, 4)
            clause = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                      for _ in range(width)]
            clauses.append(clause)
        model = Solver(clauses, num_vars).solve()
        if model is not None:
            for cl in clauses:
                assert any(model[abs(l)] == (l > 0) for l in cl)


def test_agreement_with_truth_tables():
    rng = random.Random(51)
    for _ in range(300):
        num_vars = rng.randint(1, 12)
        clauses = []
        for _ in range(rng.randint(0, 30)):
            width = rng.randint(1, 3)
            clauses.append([rng.choice([1, -1]) * rng.randint(1, num_vars)
                            for _ in range(width)])
        got = Solver(clauses, num_vars).solve() is not None
        want = first_model_oracle(clauses, num_vars) is not None
        assert got == want, (num_vars, clauses)


def test_assumptions_equal_unit_clauses():
    rng = random.Random(52)
    for _ in range(200):
        num_vars = rng.randint(1, 9)
        clauses = [[rng.choice([1, -1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(0, 20))]
        assumptions = []
        for v in range(1, num_vars + 1):
            if rng.random() < 0.4:
                assumptions.append(v if rng.random() < 0.5 else -v)
        a = Solver(clauses, num_vars).solve(assumptions) is not None
        b = Solver(clauses + [[l] for l in assumptions],
                   num_vars).solve() is not None
        assert a == b


def test_conflicting_assumptions():
    assert Solver([[1, 2]], 2).solve([1, -1]) is None


def test_deterministic_model_choice():
    # branching is lowest index, true first
    assert Solver([[1, 2]], 2).solve() == {1: True, 2: True}
    assert Solver([[-1, 2]], 2).solve() == {1: True, 2: True}
    assert Solver([[-1], [1, 2]], 2).solve() == {1: False, 2: True}


def test_budget_exceeded_is_loud():
    rng = random.Random(53)
    num_vars = 24
    clauses = [[rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(3)] for _ in range(110)]
    solver = Solver(clauses, num_vars)
    with pytest.raises(SolverBudgetExceeded):
        solver.solve(max_steps=50)


def test_solver_reuse_across_assumption_sets():
    clauses = [[1, 2], [-1, 3], [-2, -3]]
    solver = Solver(clauses, 3)
    results = []
    want = []
    for bits in itertools.product([False, True], repeat=3):
        units = [(i + 1) if b else -(i + 1) for i, b in enumerate(bits)]
        results.append(solver.solve(units) is not None)
        want.append(first_model_oracle(clauses, 3, units) is not None)
    assert results == want


def test_literal_out_of_range_rejected():
    # 0 and n+1..2n (which would alias negative slots) are rejected too
    for clauses in ([[5]], [[3]], [[-3]], [[1, 0]]):
        with pytest.raises(ValueError):
            Solver(clauses, 2)
    with pytest.raises(ValueError):
        Solver([[1]], 2).solve([1, 3])
    with pytest.raises(ValueError):
        Solver([[1]], 2).solve([0])


def test_rejected_assumptions_change_nothing():
    clauses = [[1, 2], [-1, -2]]
    solver = Solver(clauses, 2)
    assert solver.solve([-2, 1]) == {1: True, 2: False}
    before = (list(solver.levels), list(solver.trail), list(solver.last),
              list(solver.flips))
    for bad in ([1, 3], [-3], [2, 0]):
        with pytest.raises(ValueError):
            solver.solve(bad)
        assert (solver.levels, solver.trail, solver.last, solver.flips) == before
    for assumptions in ([1], [2], [-1, -2], [], [-2, 1], [2, -1]):
        assert solver.solve(assumptions) == Solver(clauses, 2).solve(assumptions)


_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


def _lit(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def _clause_sets(draw):
    # small variable counts make repeated literals and tautologies common
    n = draw(st.integers(1, 6))
    clauses = draw(st.lists(st.lists(_lit(n), min_size=1, max_size=5),
                            max_size=14))
    if draw(st.integers(0, 19)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    return n, clauses


def _sweeps(draw, n):
    """Assumption sets in the orders the checks use, and random ones."""
    counting = [[v if a >> (v - 1) & 1 else -v for v in range(1, n + 1)]
                for a in range(1 << n)]  # verify-sweep's order
    product = [[v if b else -v for v, b in enumerate(bits, start=1)]
               for bits in itertools.product([False, True], repeat=n)]
    gray = [[v if (a ^ a >> 1) >> (v - 1) & 1 else -v for v in range(1, n + 1)]
            for a in range(1 << n)]  # one flip per call
    partial = draw(st.lists(st.lists(_lit(n), max_size=n + 2), max_size=12))
    parts = [counting, product, gray, partial]
    return [a for i in draw(st.permutations(range(4))) for a in parts[i]]


@_PROPERTY
@given(_clause_sets(), st.data())
def test_reused_solver_answers_as_a_fresh_one(cnf, data):
    n, clauses = cnf
    solver = Solver(clauses, n)
    for assumptions in _sweeps(data.draw, n):
        assert solver.solve(assumptions) == Solver(clauses, n).solve(assumptions)


@_PROPERTY
@given(_clause_sets(), st.data())
def test_model_is_the_first_in_branching_order(cnf, data):
    # lowest variable first, true before false: the order every answer
    # follows, whatever the solver kept from earlier calls
    n, clauses = cnf
    assumptions = data.draw(st.lists(_lit(n), max_size=n + 1))
    want = first_model_oracle(clauses, n, assumptions)
    assert Solver(clauses, n).solve(assumptions) == want


class _Snapshots(Solver):
    """Keeps the values each undo starts from: after a SAT answer, the last
    are the answer's own, read before its decisions were undone."""

    def _undo(self, mark):
        self.before_undo = self.val[1:self.num_vars + 1]
        super()._undo(mark)


@_PROPERTY
@given(_clause_sets(), st.data())
def test_every_answer_equals_a_dict_of_the_solvers_values(cnf, data):
    # answers read as dicts of the values they were found with, and keep
    # reading so while the same solver answers later calls
    n, clauses = cnf
    solver = _Snapshots(clauses, n)
    answers = []
    for assumptions in _sweeps(data.draw, n):
        model = solver.solve(assumptions)
        if model is not None:
            want = {v: sign > 0 for v, sign in
                    enumerate(solver.before_undo, start=1)}
            assert model == want and want == model
            answers.append((model, want))
    for model, want in answers:
        assert dict(model) == want and list(model) == list(range(1, n + 1))


def test_model_from_an_earlier_call_is_unchanged():
    solver = Solver([[1, 2], [-1, -2]], 3)
    first = solver.solve([1])
    want = {1: True, 2: False, 3: True}
    assert first == want
    # the call keeps the level of 1 (and 2 false) but frees the decision on
    # 3; later calls change all three
    for assumptions in ([2, -3], [1, 2], [-3], [-1]):
        solver.solve(assumptions)
    assert first == want and dict(first) == want


def test_model_reads_as_a_mapping():
    model = Solver([[-1], [1, 2]], 3).solve()
    assert list(model) == [1, 2, 3] and len(model) == 3
    assert model[1] is False and model[2] is True and model[3] is True
    assert model.get(2) is True and model.get(4, "free") == "free"
    assert model.get(0) is None and model.get(-1, False) is False
    for missing in (0, 4, -1, "x1"):
        with pytest.raises(KeyError):
            model[missing]
    assert 3 in model and 0 not in model and 4 not in model
    assert list(model.items()) == [(1, False), (2, True), (3, True)]
    with pytest.raises(TypeError):
        model[1] = True
    assert len(Solver([], 0).solve()) == 0  # == {}: test_empty_cnf_is_sat


def test_three_literal_clauses_agree_with_the_oracle():
    cases = [
        # a tautology never forces 2, even with 1 and 2 false
        ([[1, -1, 2]], 2),
        # a repeated literal leaves the binary clause [1, 2]; [3, 1, 3, 2]
        # leaves the three-literal clause [3, 1, 2]
        ([[1, 1, 2], [3, 1, 3, 2], [-3, -2, -1, 4]], 4),
        # 1 implies 2 by a binary clause, which makes [-1, -2, 3] unit in
        # the same propagation; 3 then meets [-3, 4, 5] and [-3, -4, 5]
        ([[-1, 2], [-1, -2, 3], [-3, 4, 5], [-3, -4, 5], [1, 4, 5, 6]], 6),
        # 4 forces 5 and 6 by binaries; only [-4, -5, -6] refutes it
        ([[-4, 5], [-4, 6], [-4, -5, -6], [1, 2, 3], [-1, -2, 3]], 6),
    ]
    for clauses, n in cases:
        counting = [[v if a >> (v - 1) & 1 else -v for v in range(1, n + 1)]
                    for a in range(1 << n)]
        calls = counting + [[]] + [[lit] for v in range(1, n + 1)
                                   for lit in (v, -v)]
        reused = Solver(clauses, n)
        for assumptions in calls:
            want = first_model_oracle(clauses, n, assumptions)
            assert Solver(clauses, n).solve(assumptions) == want
            assert reused.solve(assumptions) == want
    assert Solver([[1, -1, 2]], 2).solve([-1, -2]) == {1: False, 2: False}
    # the conflict is found while assuming 4, on a level above 1, 2, 3
    solver = Solver(cases[3][0], 6)
    assert solver.solve([1, 2, 3, 4]) is None
    assert solver.solve([1, 2, 3, -4]) == {1: True, 2: True, 3: True,
                                           4: False, 5: True, 6: True}


def test_solver_recovers_after_budget_and_unsat_levels():
    rng = random.Random(55)
    num_vars = 24
    clauses = [[rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(3)] for _ in range(90)]
    calls = [[-2, -1], [1, 2], [1, 2, 3], [4, -5], [-1]]
    want = [Solver(clauses, num_vars).solve(a) for a in calls]
    assert None in want and any(want)
    for budget in (20, 100, 200):
        solver = Solver(clauses, num_vars)
        solver.solve([-2, -1, 3])
        with pytest.raises(SolverBudgetExceeded):
            solver.solve([-2, -1], max_steps=budget)
        assert [solver.solve(a) for a in calls] == want
    # 1 forces 2 and 3, which clash whatever 4 is: the level of 1 fails
    small = [[-1, 2], [-1, 3], [-2, -3, -4], [-2, -3, 4], [5, 6]]
    solver = Solver(small, 6)
    for assumptions in ([5, 4, 1], [5, 4], [4, 1, 5], [-1, 5], [4, 2, 3], [6]):
        assert solver.solve(assumptions) == Solver(small, 6).solve(assumptions)
    assert solver.solve([5, 4, 1]) is None
    assert solver.solve([5, 4]) == {1: False, 2: True, 3: False, 4: True,
                                    5: True, 6: True}


def test_solver_leaves_the_callers_clauses_unchanged():
    psi = PbConstraint(((2, 1), (2, 2), (3, -3), (5, 4), (7, 5)), 9)
    bld = CnfBuilder(5)
    encode_constraint(psi, (2, 3), bld)
    clauses = bld.clauses + [[1, 1, -2], [3, -3, 4], [2]]
    before = copy.deepcopy(clauses)
    solver = Solver(clauses, bld.num_vars)
    for bits in itertools.product([False, True], repeat=5):
        solver.solve([v if b else -v for v, b in enumerate(bits, start=1)])
    assert clauses == before


def test_levels_keep_the_least_changed_assumptions_lowest():
    psi = PbConstraint(((2, 1), (2, 2), (3, -3), (5, 4), (7, 5)), 9)
    bld = CnfBuilder(5)
    encode_constraint(psi, (2, 3), bld)
    counting = [[v if a >> (v - 1) & 1 else -v for v in range(1, 6)]
                for a in range(32)]
    product = [[v if b else -v for v, b in enumerate(bits, start=1)]
               for bits in itertools.product([False, True], repeat=5)]
    # from the slowest input's first change on, the variables on the levels
    # run from the least changed up; each sweep ends on all five inputs
    # true, which satisfies psi, so all five levels stay
    for sweep, slowest_first in ((counting, True), (product, False)):
        solver = Solver(bld.clauses, bld.num_vars)
        for i, assumptions in enumerate(sweep):
            solver.solve(assumptions)
            got = [abs(lit) for lit, _ in solver.levels]
            assert i < 16 or got == sorted(got, reverse=slowest_first)
        want = [5, 4, 3, 2, 1] if slowest_first else [1, 2, 3, 4, 5]
        assert [lit for lit, _ in solver.levels] == want
    # 1 forces 2 and 3, which clash: the level of 1 is dropped, and assuming
    # 1 again is no sign change; assuming -1 is one
    solver = Solver([[-1, 2], [-1, 3], [-2, -3, -4], [-2, -3, 4], [5, 6]], 6)
    for _ in range(2):
        assert solver.solve([5, 4, 1]) is None
        assert [lit for lit, _ in solver.levels] == [5, 4]
        assert solver.flips[1] == 0 and solver.last[1] == 1
    assert solver.solve([5, 4, -1]) is not None
    assert solver.flips[1] == 1 and solver.last[1] == -1
