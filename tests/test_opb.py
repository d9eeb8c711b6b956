import itertools
import random

import pytest

from optibase.encoder import PbConstraint
from optibase.opb import (OpbParseError, RawConstraint, coefficient_multiset,
                          instance_to_opb, load_instance, normalize, parse)

from helpers import constraint_value


def test_parse_basic_constraint():
    raws, obj = parse("+2 x1 +3 x2 >= 5 ;\n")
    assert obj is None
    assert raws == [RawConstraint(((2, "x1", False), (3, "x2", False)),
                                  ">=", 5, line=1)]


def test_parse_comments_and_blank_lines():
    text = "* a comment\n\n* another\n+1 x1 >= 1 ;\n"
    raws, _ = parse(text)
    assert len(raws) == 1 and raws[0].line == 4


def test_parse_objective_flagged_and_skipped():
    inst = load_instance("min: +1 x1 ;\n+1 x1 +1 x2 >= 1 ;\n")
    assert inst.skipped_objective
    assert inst.objective == ((1, "x1", False),)
    assert len(inst.constraints) == 1
    assert not load_instance("+1 x1 >= 1 ;\n").skipped_objective


def test_parse_negated_literals_and_relations():
    raws, _ = parse("-3 ~x2 <= -1 ;\n+1 x1 = 1 ;\n")
    assert raws[0].terms == ((-3, "x2", True),)
    assert raws[0].relation == "<="
    assert raws[1].relation == "="


def test_parse_errors_carry_location():
    with pytest.raises(OpbParseError) as e:
        parse("+2 x1 >= ; \n")
    assert e.value.line == 1
    with pytest.raises(OpbParseError):
        parse("+2 y9 >= 1 ;\n")
    with pytest.raises(OpbParseError):
        parse("+2 x1 >= 1\n")  # missing terminator
    with pytest.raises(OpbParseError):
        parse("+2 x1 +3 >= 1 ;\n")


# every kind of parse error, with its message, line and column; the end
# of input has no line and reports -1, -1
@pytest.mark.parametrize("text,message,line,col", [
    ("min: +1 x1 ;\n* c\nmin: +2 x2 ;\n", "second objective line", 3, 1),
    ("+1 x1 >= 1 ;\n+1 x1 >=\n", "unexpected end of input", -1, -1),
    ("+1 x1 +2 x2", "unexpected end of input", -1, -1),
    ("+1 x1 >= 1 ;\n  +1 x2 >= one ;\n", "expected an integer, got 'one'", 2, 12),
    ("+1 x1 >= 1 ;\nx1 >= 1 ;\n", "expected an integer, got 'x1'", 2, 1),
    ("+1 x1 >= 1 2 ;\n", "expected ';', got '2'", 1, 12),
    ("+1 x1 >= 1\n", "expected ';', got None", -1, -1),
    ("* c\n  >= 1 ;\n", "constraint without terms", 2, 3),
    ("min: +1 x1\n>= 1 ;\n", "relation inside objective", 2, 1),
    ("+1 x1 >= 1 ;\n+1 x1 ;\n", "constraint without relation", 2, 7),
    ("+2 y9 >= 1 ;\n", "expected a variable, got 'y9'", 1, 4),
    ("+1 x1 >= 1 ;\n+2", "expected a variable, got None", -1, -1),
    # str.isdigit and \d accept non-ASCII digits; OPB integers do not
    ("+\u00b2 x1 >= 1 ;\n", "expected an integer, got '+\u00b2'", 1, 1),
    ("+1 x\u0661 >= 1 ;\n", "expected a variable, got 'x\u0661'", 1, 4),
])
def test_parse_error_kinds(text, message, line, col):
    with pytest.raises(OpbParseError) as e:
        parse(text)
    assert str(e.value) == f"line {line}, column {col}: {message}"
    assert (e.value.line, e.value.col) == (line, col)


def test_normalize_negative_coefficient():
    ids = {}
    out = normalize(RawConstraint(((-3, "x1", False), (2, "x2", False)), ">=", -1),
                    ids)
    assert out == [PbConstraint(((3, -1), (2, 2)), 2)]


def test_normalize_gcd_reduction():
    out = normalize(RawConstraint(((4, "x1", False), (4, "x2", False)), ">=", 6), {})
    assert out == [PbConstraint(((2, 1), (2, 2)), 3)]


def test_normalize_drops_trivially_true():
    assert normalize(RawConstraint(((1, "x1", False),), ">=", 0), {}) == []
    assert normalize(RawConstraint(((1, "x1", False),), ">=", -3), {}) == []


def test_normalize_equality_splits():
    out = normalize(RawConstraint(((2, "x1", False), (1, "x2", False)), "=", 2), {})
    assert len(out) == 2
    for bits in itertools.product([False, True], repeat=2):
        a = {1: bits[0], 2: bits[1]}
        want = 2 * bits[0] + bits[1] == 2
        got = all(constraint_value(pc.terms, a) >= pc.threshold for pc in out)
        assert got == want


def test_normalize_merges_duplicate_occurrences():
    # x and ~x on the same variable cancel into the threshold: the pair
    # 3x + 2~x contributes x + 2, so >= 3 becomes x1 + x2 >= 1
    raw = RawConstraint(((3, "x1", False), (2, "x1", True), (1, "x2", False)),
                        ">=", 3)
    assert normalize(raw, {}) == [PbConstraint(((1, 1), (1, 2)), 1)]
    # and >= 2 is trivially true after the cancellation
    raw = RawConstraint(((3, "x1", False), (2, "x1", True), (1, "x2", False)),
                        ">=", 2)
    assert normalize(raw, {}) == []
    # same-polarity repeats merge additively
    raw = RawConstraint(((2, "x1", False), (3, "x1", False)), ">=", 4)
    assert normalize(raw, {}) == [PbConstraint(((5, 1),), 4)]


def test_normalize_keeps_unreachable_threshold():
    out = normalize(RawConstraint(((1, "x1", False),), ">=", 5), {})
    assert out == [PbConstraint(((1, 1),), 5)]


def test_normalize_saturation_flag():
    raw = RawConstraint(((9, "x1", False), (2, "x2", False)), ">=", 3)
    plain = normalize(raw, {})
    assert plain == [PbConstraint(((9, 1), (2, 2)), 3)]
    clamped = normalize(raw, {}, saturate=True)
    assert clamped == [PbConstraint(((3, 1), (2, 2)), 3)]


def test_normalize_soundness_random():
    rng = random.Random(40)
    names = [f"x{i}" for i in range(1, 6)]
    for _ in range(800):
        n = rng.randint(1, 5)
        terms = tuple((rng.randint(-20, 20), names[i], rng.random() < 0.3)
                      for i in range(n))
        terms = tuple(t for t in terms if t[0] != 0)
        if not terms:
            continue
        rel = rng.choice([">=", "<=", "="])
        rhs = rng.randint(-25, 25)
        raw = RawConstraint(terms, rel, rhs)
        ids = {}
        out = normalize(raw, ids)
        id_by_name = dict(ids)
        for bits in itertools.product([False, True], repeat=n):
            named = dict(zip(names[:n], bits))
            want = raw.holds(named)
            by_id = {id_by_name[nm]: v for nm, v in named.items()
                     if nm in id_by_name}
            got = all(constraint_value(pc.terms, by_id) >= pc.threshold
                      for pc in out)
            assert got == want, (raw, out)


def test_normalize_idempotent():
    rng = random.Random(41)
    names = [f"x{i}" for i in range(1, 6)]
    for _ in range(300):
        n = rng.randint(1, 5)
        terms = tuple((rng.randint(1, 20), names[i], rng.random() < 0.3)
                      for i in range(n))
        raw = RawConstraint(terms, ">=", rng.randint(1, 30))
        ids = {}
        out = normalize(raw, ids)
        if not out:
            continue
        pc = out[0]
        back = tuple((c, f"x{abs(l)}", l < 0) for c, l in pc.terms)
        again = normalize(RawConstraint(back, ">=", pc.threshold),
                          {f"x{i}": i for i in range(1, 6)})
        assert again == [pc]


def test_round_trip_parse_print_parse():
    text = ("min: +1 x1 ;\n"
            "+2 x1 +3 ~x2 >= 2 ;\n"
            "-1 x3 +4 x1 <= 3 ;\n"
            "+2 x2 +2 x4 = 2 ;\n")
    inst = load_instance(text)
    printed = instance_to_opb(inst)
    again = load_instance(printed)
    assert again.names == inst.names
    assert again.constraints == inst.constraints
    assert again.objective == inst.objective


def test_coefficient_multiset():
    inst = load_instance("+2 x1 +2 x2 +2 x3 +2 x4 +5 x5 +18 x6 >= 23 ;\n")
    ms = coefficient_multiset(inst.constraints[0])
    assert ms.elements == (2, 2, 2, 2, 5, 18)
    inst = load_instance("+1 x1 +1 x2 >= 1 ;\n")
    assert coefficient_multiset(inst.constraints[0]).elements == (1, 1)
    inst = load_instance("+16 x1 +30 x2 +54 x3 +60 x4 >= 87 ;\n")
    assert coefficient_multiset(inst.constraints[0]).elements == (16, 30, 54, 60)


def test_ids_dense_in_first_appearance_order():
    inst = load_instance("+1 x7 +1 x3 >= 1 ;\n+1 x3 +1 x9 >= 1 ;\n")
    assert inst.names == ["x7", "x3", "x9"]
    # names[i - 1] names variable id i, as the constraints use it
    assert [inst.names[lit - 1] for pc in inst.constraints
            for _, lit in pc.terms] == ["x7", "x3", "x3", "x9"]
    assert [rc.line for rc in inst.raws] == [1, 2]
