import random
from math import prod as product

import numpy as np
import pytest

from optibase.mixedradix import Multiset, digits_of, validate_base, weights

from helpers import digits_oracle, enumerate_bases


def test_weights_examples():
    assert weights((2, 3, 3)) == (1, 2, 6, 18)
    assert weights(()) == (1,)
    assert weights((3, 5, 2, 2)) == (1, 3, 15, 30, 60)


def test_weights_recurrence():
    rng = random.Random(1)
    for _ in range(300):
        base = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 6)))
        w = weights(base)
        assert w[0] == 1
        assert len(w) == len(base) + 1
        for i, r in enumerate(base):
            assert w[i + 1] == w[i] * r


def test_digits_of_examples():
    assert digits_of(5, (2, 3, 3)) == (1, 2, 0, 0)
    assert digits_of(18, (2, 3, 3)) == (0, 0, 0, 1)
    assert digits_of(7, ()) == (7,)
    assert digits_of(23, (2, 3, 3)) == (1, 2, 0, 1)
    assert digits_of(0, (2, 3)) == (0, 0, 0)


def test_digits_of_rejects_negative():
    with pytest.raises(ValueError):
        digits_of(-1, (2,))


def _value(digits, base):
    """The weighted sum of a digit vector: the inverse of digits_of."""
    assert len(digits) == len(base) + 1
    return sum(d * w for d, w in zip(digits, weights(base)))


def test_value_of_examples():
    assert _value((1, 2, 0, 1), (2, 3, 3)) == 23
    assert _value((0, 0, 0, 0), (2, 3, 3)) == 0
    assert _value((1, 0, 0, 0), (2, 3, 3)) == 1


def test_round_trip_and_digit_ranges():
    rng = random.Random(2)
    for _ in range(3000):
        v = rng.randint(0, 10**6)
        base = tuple(rng.randint(2, 10) for _ in range(rng.randint(0, 6)))
        d = digits_of(v, base)
        assert len(d) == len(base) + 1
        for i, r in enumerate(base):
            assert 0 <= d[i] < r
        assert _value(d, base) == v
        assert list(d) == digits_oracle(v, base)


def _rows(s, base):
    """The digit matrix of S in a base: one digit vector per element."""
    return tuple(digits_of(v, base) for v in s)


def test_digit_matrix_running_example():
    rows = _rows(Multiset.of([2, 2, 2, 2, 5, 18]), (2, 3, 3))
    assert rows == (
        (0, 1, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0),
        (1, 2, 0, 0), (0, 0, 0, 1),
    )
    assert tuple(row[3] for row in rows) == (0, 0, 0, 0, 0, 1)  # MSD column


def test_digit_matrix_unary_and_digit_sum():
    assert _rows(Multiset.of([1]), ()) == ((1,),)
    rows = _rows(Multiset.of([16, 30, 54, 60]), (3, 5, 2, 2))
    assert sum(sum(row) for row in rows) == 9


def test_is_redundant_examples():
    # a base is redundant for S when its product exceeds max(S)
    s = Multiset.of([16, 30, 54, 60])
    assert product((2,) * 6) > s.max          # 64 > 60
    assert not product((2, 3, 3)) > Multiset.of([2, 2, 2, 2, 5, 18]).max
    assert not product(()) > s.max


def test_redundancy_equivalence():
    # product test matches the all-zero msd column test
    rng = random.Random(3)
    for max_val in range(1, 65):
        bases = enumerate_bases(max_val)
        bases += [b + (2,) for b in bases[-10:]]  # a few redundant ones
        for _ in range(3):
            elems = [rng.randint(1, max_val) for _ in range(rng.randint(1, 5))]
            elems[0] = max_val
            s = Multiset.of(elems)
            for b in bases:
                msd_zero = all(row[-1] == 0 for row in _rows(s, b))
                assert msd_zero == (product(b) > s.max)


def test_prefix_stability():
    rng = random.Random(4)
    for _ in range(1000):
        v = rng.randint(0, 10**6)
        base = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 5)))
        ext = base + tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3)))
        d1, d2 = digits_of(v, base), digits_of(v, ext)
        assert d1[: len(base)] == d2[: len(base)]


def test_base_factoring_monotonicity():
    # merging two adjacent radices never lowers the digit sum
    rng = random.Random(5)
    for _ in range(1500):
        k = rng.randint(2, 6)
        base = tuple(rng.randint(2, 9) for _ in range(k))
        p = rng.randrange(k - 1)
        merged = base[:p] + (base[p] * base[p + 1],) + base[p + 2:]
        v = rng.randint(0, 10**6)
        assert sum(digits_of(v, merged)) >= sum(digits_of(v, base))


def test_redundant_tail_removal_keeps_digit_sum():
    rng = random.Random(6)
    for _ in range(800):
        elems = [rng.randint(1, 300) for _ in range(rng.randint(1, 6))]
        s = Multiset.of(elems)
        base = []
        prod = 1
        while True:
            p = rng.randint(2, 9)
            base.append(p)
            prod *= p
            if prod > s.max:
                break
        redundant = tuple(base)
        trimmed = redundant[:-1]
        assert product(redundant) > s.max
        total = lambda b: sum(sum(digits_of(v, b)) for v in s)  # noqa: E731
        assert total(redundant) == total(trimmed)


def test_divmod_identities():
    assert 23 // 6 == (23 // 2) // 3
    assert 17 % 15 == 17 % 3 + ((17 // 3) % 5) * 3
    rng = random.Random(7)
    for _ in range(2000):
        a = rng.randint(0, 10**9)
        b = rng.randint(1, 10**4)
        c = rng.randint(1, 10**4)
        assert a // (b * c) == (a // b) // c
        assert a % (b * c) == a % b + ((a // b) % c) * b


def test_multiset_validation_and_views():
    s = Multiset.of([5, 2, 2, 18, 2, 2])
    assert s.elements == (2, 2, 2, 2, 5, 18)
    assert s.max == 18
    assert len(s) == 6
    with pytest.raises(ValueError):
        Multiset.of([])
    with pytest.raises(ValueError):
        Multiset.of([0, 3])
    with pytest.raises(ValueError):
        Multiset.of([1 << 63])
    # each element is within 2**62, but the sum does not fit in int64
    with pytest.raises(ValueError, match="sum"):
        Multiset.of([2**62, 2**62, 2**62 - 1])
    assert Multiset.of([2**62, 2**62 - 1]).max == 2**62  # sum 2**63 - 1


def test_validate_base():
    assert validate_base([2, 3]) == (2, 3)
    with pytest.raises(ValueError):
        validate_base([2, 1])
    assert validate_base([2, 2**62]) == (2, 2**62)
    with pytest.raises(ValueError):
        validate_base([2, 2**62 + 1])
    with pytest.raises(ValueError):
        validate_base([2**64])


def test_non_integral_values_are_refused():
    # int() used to truncate these to (2, 3) and (2, 5); a ValueError, not a
    # TypeError, keeps the CLI's exit code 1
    with pytest.raises(ValueError, match="integer"):
        validate_base([2.7, 3.9])
    with pytest.raises(ValueError, match="integer"):
        Multiset.of([2.7, 5.9])
    for bad in ("3", None):
        with pytest.raises(ValueError):
            validate_base([2, bad])
        with pytest.raises(ValueError):
            Multiset.of([2, bad])
    # numpy integers are integers, and come back as Python ints
    base = validate_base(np.array([3, 2], dtype=np.int64))
    assert base == (3, 2) and all(type(r) is int for r in base)
    s = Multiset.of(np.array([5, 2], dtype=np.int32))
    assert s.elements == (2, 5) and all(type(v) is int for v in s)
