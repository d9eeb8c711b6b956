import itertools
import random

import pytest

from optibase.encoder import CnfBuilder, PbConstraint, encode_constraint
from optibase.satcheck import Solver, SolverBudgetExceeded

from helpers import brute_truth_table_sat


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
        want = brute_truth_table_sat(clauses, num_vars)
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
        want.append(brute_truth_table_sat(clauses + [[u] for u in units], 3))
    assert results == want


def test_literal_out_of_range_rejected():
    with pytest.raises(ValueError):
        Solver([[5]], 2)
