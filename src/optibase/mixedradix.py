"""Mixed radix bases: weights, digit extraction, and coefficient multisets.

A base is a finite sequence of radices, each at least 2.  A number written
in a base of length k always has k+1 digits (least significant first); the
most significant digit is unbounded.  The empty base is the unary base,
where every number is a single digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import index, mul
from typing import Iterable, Sequence

Base = tuple[int, ...]
DigitVector = tuple[int, ...]

# Values are arbitrary-width in contract but kept 64-bit safe in practice:
# every weight and product used on a non-redundant base is bounded by max(S),
# and every column sum and carry by sum(S), which must stay below 2**63.
MAX_ELEMENT = 1 << 62
MAX_SUM = 1 << 63


def _integers(values: Iterable[int]) -> tuple[int, ...]:
    """Python ints of ints and numpy integers; a ValueError for 2.7 or "3"."""
    try:
        return tuple(map(index, values))
    except TypeError as e:
        raise ValueError(str(e)) from None


def validate_base(radices: Iterable[int]) -> Base:
    base = _integers(radices)
    for r in base:
        if not 2 <= r <= MAX_ELEMENT:
            raise ValueError(
                f"invalid radix {r}: every radix must be in 2..2**62")
    return base


def weights(base: Sequence[int]) -> tuple[int, ...]:
    """Positional weights: w[0] = 1 and w[i+1] = w[i] * base[i]."""
    return tuple(accumulate(base, mul, initial=1))


def digits_of(value: int, base: Sequence[int]) -> DigitVector:
    """Digits of ``value`` in ``base``, least significant first.

    Always returns len(base) + 1 digits; value 0 yields the all-zero vector.
    """
    if value < 0:
        raise ValueError("cannot take digits of a negative value")
    digits = []
    rest = value
    for r in base:
        rest, d = divmod(rest, r)
        digits.append(d)
    digits.append(rest)
    return tuple(digits)


@dataclass(frozen=True)
class Multiset:
    """Sorted multiset of positive integers; ``of`` keeps it 64-bit safe:
    every element at most 2**62 and the sum below 2**63."""

    elements: tuple[int, ...]

    @staticmethod
    def of(values: Iterable[int]) -> "Multiset":
        elems = tuple(sorted(_integers(values)))
        if not elems:
            raise ValueError("multiset must be non-empty")
        if elems[0] < 1:
            raise ValueError(f"multiset elements must be positive, got {elems[0]}")
        if elems[-1] > MAX_ELEMENT:
            raise ValueError(f"element {elems[-1]} exceeds the supported bound 2**62")
        if sum(elems) >= MAX_SUM:
            raise ValueError("multiset sum exceeds the supported bound 2**63 - 1")
        return Multiset(elems)

    @property
    def max(self) -> int:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)
