import random
from math import prod as product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optibase.cost import (BaseEval, CostKind, _comparator_count_vec,
                           comparator_count, cost_of)
from optibase.encoder import PbConstraint, _merge_exchange_pairs, decompose
from optibase.mixedradix import Multiset
from optibase.search import (COMP_SUM_LIMIT, SearchConfig, _children,
                             extenders, initial_best, radix_array)

from helpers import (breakdown_oracle, cost_oracle, emitted_columns,
                     engine_columns, heuristic_oracle, partial_oracle)

S_FIG = Multiset.of([1, 3, 4, 8, 18, 18])
S_INTRO = Multiset.of([16, 30, 54, 60])
S_PSI = Multiset.of([2, 2, 2, 2, 5, 18])


def test_breakdown_golden_tables():
    for s, base, sums, carries in (
        (S_FIG, (2, 3, 3), [2, 4, 1, 2], [0, 1, 1, 0]),
        (S_FIG, (2, 2, 2, 2), [2, 3, 1, 1, 2], [0, 1, 2, 1, 1]),
        (Multiset.of([7]), (), [7], [0]),
    ):
        assert engine_columns(s, base) == (sums, carries)
        assert emitted_columns(s.elements, base) == (sums, carries)
        assert breakdown_oracle(s.elements, base) == (sums, carries)


def test_breakdown_matches_elementwise_oracle():
    rng = random.Random(10)
    for _ in range(500):
        elems = [rng.randint(1, 500) for _ in range(rng.randint(1, 7))]
        base = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 5)))
        s = Multiset.of(elems)
        sums, carries = breakdown_oracle(s.elements, base)
        assert engine_columns(s, base) == (sums, carries)
        c = PbConstraint(tuple((v, i + 1) for i, v in enumerate(elems)), 1)
        assert [len(bus) for bus in decompose(c, base)] == sums


def test_sum_digits_examples():
    assert cost_of(CostKind.SUM_DIGITS, S_INTRO, (2, 2, 2, 2, 2)) == 13
    assert cost_of(CostKind.SUM_DIGITS, S_INTRO, (3, 5, 2, 2)) == 9
    assert cost_of(CostKind.SUM_DIGITS, S_INTRO, ()) == 160


def test_sum_carry_examples():
    assert cost_of(CostKind.SUM_CARRY, S_FIG, (2, 3, 3)) == 11
    assert cost_of(CostKind.SUM_CARRY, S_FIG, (2, 2, 2, 2)) == 14
    assert emitted_columns(S_PSI.elements, (2, 9)) == ([1, 6, 1], [0, 0, 0])
    assert engine_columns(S_PSI, (2, 9)) == ([1, 6, 1], [0, 0, 0])
    assert cost_of(CostKind.SUM_CARRY, S_PSI, (2, 9)) == 8


def test_comparator_count_table_and_formula():
    assert [comparator_count(n) for n in range(9)] == [0, 0, 1, 3, 5, 9, 12, 16, 19]
    assert comparator_count(5) == 9
    assert comparator_count(16) == 63
    with pytest.raises(ValueError):
        comparator_count(-1)


def test_comparator_count_matches_generated_networks():
    # for powers of two the formula counts the merge exchange exactly
    for k in range(1, 9):
        n = 1 << k
        assert comparator_count(n) == len(_merge_exchange_pairs(n))


def test_comparator_count_monotone_and_superadditive():
    values = [comparator_count(n) for n in range(10_001)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    rng = random.Random(11)
    for _ in range(2000):
        x, y = rng.randint(0, 5000), rng.randint(0, 5000)
        assert comparator_count(x + y) >= comparator_count(x) + y


def test_num_comp_examples():
    assert cost_of(CostKind.NUM_COMP, S_FIG, (3, 2, 3)) == 10
    assert cost_of(CostKind.NUM_COMP, S_FIG, (2, 3, 3)) == 12
    assert cost_of(CostKind.NUM_COMP, S_FIG, (2, 2, 2, 2)) == 13


def test_partial_cost_examples():
    for kind, s, base, want in (
        (CostKind.SUM_DIGITS, S_INTRO, (), 0),
        (CostKind.SUM_CARRY, S_FIG, (2, 3, 3), 11 - 2),
        (CostKind.NUM_COMP, S_FIG, (2, 3, 3), 12 - comparator_count(2)),
    ):
        assert BaseEval.of(s, base, kind).partial == want
        assert partial_oracle(kind.value, s.elements, base) == want


def _heuristic(kind, s, base):
    """What alpha adds to the partial cost of ``base`` under ``kind``."""
    ev = BaseEval.of(s, base, kind)
    return ev.alpha() - ev.partial


def test_heuristic_examples():
    assert _heuristic(CostKind.SUM_DIGITS, S_INTRO, (3, 5)) == 4
    assert heuristic_oracle("digits", S_INTRO.elements, (3, 5)) == 4
    # the comparator bound carries no heuristic term
    assert _heuristic(CostKind.NUM_COMP, S_FIG, (2, 3)) == 0
    assert heuristic_oracle("comp", S_FIG.elements, (2, 3)) == 0
    assert _heuristic(CostKind.SUM_CARRY, S_PSI, (2, 3, 3)) == 1
    assert heuristic_oracle("carry", S_PSI.elements, (2, 3, 3)) == 1
    # redundant bases whose products reach 2**63 and pass it count nothing
    for base in ((2**62, 2), (2**62, 2**62)):
        assert _heuristic(CostKind.SUM_DIGITS, S_PSI, base) == 0
        assert heuristic_oracle("digits", S_PSI.elements, base) == 0


def test_cost_alpha_is_partial_plus_heuristic():
    for kind, s, base in (
        (CostKind.SUM_DIGITS, S_INTRO, (3, 5)),
        (CostKind.SUM_CARRY, S_FIG, (2, 3, 3)),
        (CostKind.NUM_COMP, S_FIG, (2, 3, 3)),
    ):
        assert BaseEval.of(s, base, kind).alpha() == (
            partial_oracle(kind.value, s.elements, base)
            + heuristic_oracle(kind.value, s.elements, base))


def test_sum_relations():
    rng = random.Random(12)
    for _ in range(400):
        elems = [rng.randint(1, 200) for _ in range(rng.randint(1, 6))]
        base = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 4)))
        s = Multiset.of(elems)
        digits = cost_of(CostKind.SUM_DIGITS, s, base)
        carry = cost_of(CostKind.SUM_CARRY, s, base)
        _, carries = engine_columns(s, base)
        assert carry >= digits
        assert (carry == digits) == all(c == 0 for c in carries)
        # independent per-element summation agrees with the column view
        assert digits == cost_oracle("digits", s.elements, base)


def _random_pair(rng):
    """A non-redundant base and a longer extension of it."""
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


def _alpha_oracle(kind, s, base):
    return (partial_oracle(kind.value, s.elements, base)
            + heuristic_oracle(kind.value, s.elements, base))


def test_admissibility_chain():
    # cost(B') >= alpha(B') >= alpha(B) for B' extending B, with alpha the
    # bound the search prunes with
    rng = random.Random(13)
    for _ in range(1500):
        s, base, ext = _random_pair(rng)
        for kind in CostKind:
            ev, ev_ext = BaseEval.of(s, base, kind), BaseEval.of(s, ext, kind)
            assert ev_ext.alpha() == _alpha_oracle(kind, s, ext)
            assert cost_of(kind, s, ext) >= ev_ext.alpha()
            assert ev_ext.alpha() >= ev.alpha()


def test_inputs_invariance():
    # network sizes below the shorter base's msd do not change on extension
    rng = random.Random(14)
    for _ in range(1000):
        s, base, ext = _random_pair(rng)
        cols1, cols2 = engine_columns(s, base), engine_columns(s, ext)
        assert cols1 == breakdown_oracle(s.elements, base)
        assert cols2 == breakdown_oracle(s.elements, ext)
        for j in range(len(base)):
            assert cols1[0][j] + cols1[1][j] == cols2[0][j] + cols2[1][j]


def test_base_eval_matches_functional_costs():
    rng = random.Random(15)
    for _ in range(1000):
        elems = [rng.randint(1, 10**6) for _ in range(rng.randint(1, 8))]
        s = Multiset.of(elems)
        evs = [BaseEval.root(s, kind) for kind in CostKind]
        base = ()
        while True:
            for ev in evs:
                kind = ev.kind
                want = cost_oracle(kind.value, s.elements, base)
                assert ev.cost() == cost_of(kind, s, base) == want
                assert ev.partial == partial_oracle(kind.value, s.elements,
                                                    base)
                assert ev.alpha() == _alpha_oracle(kind, s, base)
            p = rng.randint(2, 9)
            if product(base) * p > s.max:
                break
            base += (p,)
            evs = [ev.extend(p) for ev in evs]


def test_child_metrics_match_scalar_extend():
    rng = random.Random(16)
    for _ in range(150):
        elems = [rng.randint(1, 10**5) for _ in range(rng.randint(1, 8))]
        s = Multiset.of(elems)
        base, prod = (), 1
        depth = rng.randint(0, 3)
        for _ in range(depth):
            cap = s.max // prod
            if cap < 2:
                break
            base += (rng.randint(2, min(9, cap)),)
            prod *= base[-1]
        cap = s.max // prod
        if cap < 2:
            continue
        ps = np.arange(2, cap + 1, dtype=np.int64)
        for kind in CostKind:
            ev = BaseEval.of(s, base, kind)
            costs, alphas = ev.child_metrics(ps)
            for idx in {0, len(ps) - 1, rng.randrange(len(ps))}:
                child = ev.extend(int(ps[idx]))
                assert int(costs[idx]) == child.cost()
                assert int(alphas[idx]) == child.alpha()


def _random_state(rng, s):
    """The digits state of a random non-redundant base for s, up to three
    long."""
    ev = BaseEval.root(s, CostKind.SUM_DIGITS)
    for _ in range(rng.randint(0, 3)):
        cap = s.max // ev.prod
        if cap < 2:
            break
        ev = ev.extend(rng.choice((2, 3, rng.randint(2, cap))))
    return ev


def _edge_extenders(rng, ev):
    """Valid extenders of ev: a dense run from 2, the largest two, each
    value's quotient by the product (where the heuristic count steps) and
    its neighbours, and a random sample."""
    cap = ev.multiset.max // ev.prod
    ps = set(range(2, min(cap, 40) + 1)) | {cap - 1, cap}
    for v in ev.multiset.elements:
        q = v // ev.prod
        ps |= {q - 1, q, q + 1}
    ps |= {rng.randint(2, cap) for _ in range(40)}
    return np.array(sorted(p for p in ps if 2 <= p <= cap), dtype=np.int64)


def _near_sum_bound(rng, bound, n):
    """n >= 3 positive values, none above 2**62, whose sum is within 1001
    of bound and below it."""
    vals = [rng.randint(bound // n - bound // (4 * n), bound // n - 1)
            for _ in range(n - 1)]
    vals.append(bound - 1 - sum(vals) - rng.randint(0, 1000))
    return vals


def _edge_multisets(rng):
    """Small multisets, elements near 2**62 with sums near 2**63 (for
    digits and carry), and sums just below the comp limit."""
    small = [[rng.randint(1, 10**4) for _ in range(rng.randint(1, 8))]
             for _ in range(60)]
    top = [[(1 << 62), (1 << 62) - 1], [(1 << 62) - 3, (1 << 62) - 5, 7],
           [1 << 61] * 3 + [(1 << 61) - 1], [(1 << 58) - 1] * 15 + [1 << 62]]
    top += [_near_sum_bound(rng, 1 << 63, rng.randint(3, 4)) for _ in range(12)]
    comp = [[1 << 50, (1 << 50) - 1], [1 << 49] * 3 + [(1 << 49) - 1]]
    comp += [_near_sum_bound(rng, COMP_SUM_LIMIT, rng.randint(3, 5))
             for _ in range(12)]
    return small, top, comp


def test_child_metrics_every_candidate_at_int64_edges():
    # every index of ps, not a sample
    rng = random.Random(17)
    small, top, comp = _edge_multisets(rng)
    digits_carry = [CostKind.SUM_DIGITS, CostKind.SUM_CARRY]
    for group, kinds in ((small, list(CostKind)), (top, digits_carry),
                         (comp, list(CostKind))):
        for elems in group:
            s = Multiset.of(elems)
            assert s.max <= 1 << 62 and sum(elems) < 1 << 63
            for _ in range(3):
                ev = _random_state(rng, s)
                if s.max // ev.prod < 2:
                    continue
                ps = _edge_extenders(rng, ev)
                for kind in kinds:
                    ev_k = _bound_to(ev, kind)
                    children = [ev_k.extend(p) for p in ps.tolist()]
                    costs, alphas = ev_k.child_metrics(ps)
                    assert costs.tolist() == [c.cost() for c in children]
                    assert alphas.tolist() == [c.alpha() for c in children]


_, _EDGE_TOP, _EDGE_COMP = _edge_multisets(random.Random(18))


def _bound_to(ev, kind):
    """The state of ev's base under ``kind``."""
    return BaseEval.of(ev.multiset, ev.base, kind)


def _kinds(s):
    if sum(s.elements) < COMP_SUM_LIMIT:
        return list(CostKind)
    return [CostKind.SUM_DIGITS, CostKind.SUM_CARRY]


@st.composite
def _states(draw):
    """The digits state of a random non-redundant base, with at least one
    extender, for a small multiset (small values and repeats included) or
    one at the int64 edges."""
    if draw(st.booleans()):
        value = st.integers(1, 12) | st.integers(1, 10**4)
        elems = draw(st.lists(value, min_size=1, max_size=8))
    else:
        elems = draw(st.sampled_from(_EDGE_TOP + _EDGE_COMP))
    s = Multiset.of(elems)
    ev = BaseEval.root(s, CostKind.SUM_DIGITS)
    for _ in range(draw(st.integers(0, 3))):
        cap = s.max // ev.prod
        if cap < 2:
            break
        ev = ev.extend(draw(st.integers(2, min(cap, 9)) | st.integers(2, cap)))
    assume(s.max // ev.prod >= 2)
    return ev


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def _prefix_bounds(ev):
    """lb[i] <= alpha of each child of ev whose radix has i values of cur
    below it: partial + W[i] + suffix_counts[i], or for comp partial +
    comparator_count(W[i] + carry_in), W[i] = sum_{j<i} m_j * cur_j."""
    whole = [0]
    for m, c in zip(ev.mults.tolist(), ev.cur.tolist()):
        whole.append(whole[-1] + m * c)
    if ev.kind is CostKind.NUM_COMP:
        return [ev.partial + comparator_count(w + ev.carry_in)
                for w in whole]
    return [ev.partial + w + n
            for w, n in zip(whole, ev.suffix_counts.tolist())]


@_PROPERTY
@given(_states(), st.randoms(use_true_random=False))
def test_prefix_bounds_admissible_and_tight(ev, rng):
    # lb[i] <= alpha for every candidate p, i = #{cur < p}; equal when p
    # leaves no remainder in the new column and, under carry, no carry;
    # ``within`` keeps p at the bound alpha and drops it at lb[i] - 1
    cur, mults = ev.cur.tolist(), ev.mults.tolist()
    i0 = sum(1 for c in cur if c < 2)
    for kind in _kinds(ev.multiset):
        ev_k = _bound_to(ev, kind)
        lb = _prefix_bounds(ev_k)
        assert len(lb) == len(cur) + 1
        for p in _edge_extenders(rng, ev).tolist():
            i = sum(1 for c in cur if c < p)
            child = ev_k.extend(p)
            assert lb[i] <= child.alpha()
            whole = sum(m * c for m, c in zip(mults, cur) if c < p)
            exact = (ev.extend(p).partial - ev.partial == whole
                     and (kind is not CostKind.SUM_CARRY or child.carry_in == 0))
            if exact:
                assert lb[i] == child.alpha()
            one = np.array([p], dtype=np.int64)
            assert ev_k.within(one, child.alpha()).tolist() == [p]
            assert i >= i0  # p >= 2, and lb is non-decreasing from i0 on
            assert len(ev_k.within(one, lb[i] - 1)) == 0


@_PROPERTY
@given(_states(), st.randoms(use_true_random=False))
def test_residue_sieve_admissible(ev, rng):
    # p <= cur_top, so the top value adds m_top * (cur_top mod p) to the new
    # column and keeps a digit above it: lb(p) <= alpha, and ``within``
    # keeps p at the bound alpha and drops it at lb(p) - 1
    top, m = int(ev.cur[-1]), int(ev.mults[-1])
    for kind in _kinds(ev.multiset):
        ev_k = _bound_to(ev, kind)
        for p in _edge_extenders(rng, ev).tolist():
            rest = m * (top % p)
            if kind is CostKind.NUM_COMP:
                lb = ev_k.partial + comparator_count(rest + ev.carry_in)
            else:
                lb = ev_k.partial + rest + m
            alpha = ev_k.extend(p).alpha()
            assert lb <= alpha
            one = np.array([p], dtype=np.int64)
            assert ev_k.within(one, alpha).tolist() == [p]
            assert len(ev_k.within(one, lb - 1)) == 0


def test_within_sieves_by_the_top_remainder():
    # at the root of four values from U[1, 2**31 - 1] under the starting
    # bound, the prefix cut alone keeps every candidate
    s = Multiset.of([1337671203, 548563997, 1592975437, 769949151])
    for kind, want in ((CostKind.SUM_DIGITS, (1229, 68)),
                       (CostKind.SUM_CARRY, (9999, 669)),
                       (CostKind.NUM_COMP, (9999, 192))):
        ev = BaseEval.root(s, kind)
        ps = extenders(radix_array(s, SearchConfig(kind)), 1, s)
        bound = cost_of(kind, s, initial_best(s))
        assert (len(ps), len(ev.within(ps, bound))) == want


@_PROPERTY
@given(_states(), st.randoms(use_true_random=False), st.integers(2, 2000),
       st.booleans())
def test_children_cut_matches_uncut_kernel(ev, rng, max_elem, primes):
    # for a sweep of bounds, the cut changes neither the surviving
    # (p, alpha, cost) triples nor the count of cut children; on the edge
    # candidates (up to max(S) // prod) every one ``within`` drops has
    # alpha above the bound
    s = ev.multiset
    edge = _edge_extenders(rng, ev)
    for kind in _kinds(s):
        ev_k = _bound_to(ev, kind)
        radices = radix_array(
            s, SearchConfig(kind, max_elem=max_elem, primes_only=primes))
        ps = extenders(radices, ev.prod, s)
        costs, alphas = ev_k.child_metrics(ps)
        _, edge_alphas = ev_k.child_metrics(edge)
        marks = _prefix_bounds(ev_k)
        for a in (alphas, edge_alphas):
            if len(a):
                marks += [int(a.min()), int(a.max()), rng.choice(a.tolist())]
        for bound in sorted({m + d for m in marks for d in (-1, 0, 1)}):
            keep = alphas <= bound
            want = list(zip(ps[keep].tolist(), alphas[keep].tolist(),
                            costs[keep].tolist()))
            children, cut = _children(ev_k, radices, bound)
            assert list(children) == want
            assert cut == len(ps) - len(want)
            kept = np.isin(edge, ev_k.within(edge, bound))
            assert (edge_alphas[~kept] > bound).all()


@st.composite
def _bases_of_one_product(draw):
    """A multiset (small, or at the int64 edges) and two non-redundant bases
    with one product: a base, and a reordering of it with two neighbouring
    radices possibly merged into one."""
    if draw(st.booleans()):
        elems = draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=8))
    else:
        elems = draw(st.sampled_from(_EDGE_TOP + _EDGE_COMP))
    s = Multiset.of(elems)
    base, prod = [], 1
    for _ in range(draw(st.integers(2, 5))):
        cap = s.max // prod
        if cap < 2:
            break
        p = draw(st.integers(2, min(cap, 9)) | st.integers(2, cap))
        base.append(p)
        prod *= p
    other = draw(st.permutations(base))
    if len(other) >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, len(other) - 2))
        other[i:i + 2] = [other[i] * other[i + 1]]
    return s, tuple(base), tuple(other)


@_PROPERTY
@given(_bases_of_one_product())
def test_one_product_fixes_the_state_but_for_the_partial_cost(case):
    # L(P) = sum m_j * (v_j mod P) gives L(P * p) = L(P) + P * col, so
    # carry_in = L(P) // P; what alpha and the cost add to the partial
    # cost then depends on P alone, under every kind
    s, b1, b2 = case
    prod = product(b1)
    for kind in CostKind:
        ev1, ev2 = BaseEval.of(s, b1, kind), BaseEval.of(s, b2, kind)
        assert ev1.prod == ev2.prod == prod
        assert ev1.carry_in == ev2.carry_in == sum(v % prod for v in s) // prod
        assert ev1.cur.tolist() == ev2.cur.tolist()
        a1, a2 = ((ev.alpha() - ev.partial, ev.cost() - ev.partial)
                  for ev in (ev1, ev2))
        assert a1 == a2, kind


def test_comparator_count_vec_matches_scalar():
    # every size up to 5,000, and each side of every power of two up to
    # COMP_SUM_LIMIT, where the buckets of network sizes change
    sizes = list(range(5001))
    for k in range(51):
        sizes += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    got = _comparator_count_vec(np.array(sizes, dtype=np.int64))
    assert got.tolist() == [comparator_count(n) for n in sizes]
