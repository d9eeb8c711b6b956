"""Compile Pseudo-Boolean constraints to CNF through sorting networks.

A normal-form constraint (positive coefficients, each variable once,
relation >=, positive threshold) is encoded against a mixed radix base in
four steps: the coefficients are decomposed into per-position digit buses,
each bus is sorted into a unary number, a normalizer reduces each sorted
bus modulo its radix and forwards every radix-th output as a carry into
the next position, and finally the resulting mixed radix number is
compared lexicographically against the threshold.  Each comparison
builds only the remainder lines it reads: R_d and, above the lowest
nonzero threshold digit, R_{d+1} for threshold digit d.  Every gate
follows one rule: constant, equal and complementary inputs fold, and the
builder keeps one output per distinct comparator pair and or-gate (an
and-gate is a negated or-gate).  So comparisons share the lines they both
read, no pair is sorted twice, and ``bld.comparators`` counts what is
emitted: fewer than the ``comp`` model wherever a bus repeats a literal.

A builder keeps one sorter network per term vector and base, and every
later constraint over them reads it through its own comparison.  A
constraint over the complemented vector, sum c*~l >= T as the second half
of every ``=`` is, says not (sum c*l >= sum c - T + 1), so it asserts the
negated comparison on the same network.  That reading is sound only under
full polarity: a monotone comparator only justifies a true output, so a
false comparison does not mean a small sum, and a complemented vector
builds its own network there.

Literals are DIMACS-style signed integers, the constants too: TRUE is
2**31, one past the last variable ``fresh`` gives, and FALSE is -TRUE, so
negation is ``-`` throughout.  Every gate folds a constant input, and
``add_clause`` drops FALSE and a clause holding TRUE, so neither is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .cost import OPTIMAL_NETWORKS, cost_of
from .mixedradix import Multiset, digits_of, validate_base
from .search import SearchConfig, find_base, initial_best

MAX_VARIABLES = 2**31 - 1

# Unary digit inputs ``decompose`` builds for one constraint: a network on
# 2**20 (10**8 comparators) could never be emitted; searched bases stay far below.
MAX_BUS_INPUTS = 1 << 20

TRUE = MAX_VARIABLES + 1
FALSE = -TRUE

Lit = int

UnaryBus = tuple  # ordered literals of a unary (sorted) number


@dataclass(frozen=True)
class PbConstraint:
    """Normal form: terms (coefficient, literal) with every coefficient
    positive and every variable in at most one term; threshold >= 1."""

    terms: tuple[tuple[int, int], ...]
    threshold: int

    def __post_init__(self):
        seen = set()
        for coef, lit in self.terms:
            if coef < 1:
                raise ValueError(f"coefficient {coef} is not positive")
            if lit == 0:
                raise ValueError("literal 0 is reserved")
            if abs(lit) in seen:
                raise ValueError(f"variable {abs(lit)} occurs twice")
            seen.add(abs(lit))
        if self.threshold < 1:
            raise ValueError("threshold must be positive")

    @property
    def coefficient_sum(self) -> int:
        return sum(c for c, _ in self.terms)


class CnfBuilder:
    """Fresh-variable allocator and clause sink with emission statistics.

    ``num_vars`` starts at the number of pre-reserved input variables;
    fresh ids continue above it.  ``add_clause`` folds constants on the
    way in: a TRUE literal satisfies the clause, FALSE literals drop out,
    and a clause holding complementary literals is discarded.  An empty
    clause (unsatisfiable) is kept and marks the formula statically false.
    """

    def __init__(self, num_input_vars: int = 0, polarity: str = "full"):
        if polarity not in ("full", "monotone"):
            raise ValueError(f"unknown polarity {polarity!r}")
        self.num_vars = num_input_vars
        self.clauses: list[list[int]] = []
        self.comparators = 0
        self.network_sizes: list[int] = []
        self.gates: dict[tuple, int | tuple[int, int]] = {}  # gate inputs -> outputs
        self.networks: dict[tuple, list[UnaryBus]] = {}  # (terms, base) -> sorted buses
        self.polarity = polarity

    def fresh(self) -> int:
        if self.num_vars >= MAX_VARIABLES:
            raise OverflowError("fresh-variable budget of 2**31 exhausted")
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[Lit]) -> None:
        out = _disjuncts(lits)
        if out is not None:
            self.clauses.append(out)


def _disjuncts(lits: Iterable[Lit]) -> list[int] | None:
    """The literals of a disjunction with FALSE and repeats dropped, or None
    when it is true: it holds TRUE or a complementary pair."""
    out: list[int] = []
    seen = {FALSE}  # so FALSE drops out and TRUE, its complement, answers None
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


def comparator(a: Lit, b: Lit, bld: CnfBuilder) -> tuple[Lit, Lit]:
    """Two-input sorter: returns (a or b, a and b).

    Constant, equal and complementary inputs fold, and a pair the builder
    already sorted, in either order, returns its outputs.  Only a new pair
    allocates two variables and counts toward ``bld.comparators``; it
    appends [-hi,a,b], [-lo,a], [-lo,b], [-a,hi], [-b,hi], [-a,-b,lo], or
    the first three justification clauses under monotone polarity.
    """
    if a == TRUE or b == FALSE or a == b:
        return a, b
    if b == TRUE or a == FALSE:
        return b, a
    if a == -b:
        return TRUE, FALSE
    key = (a, b) if a < b else (b, a)
    if key not in bld.gates:
        hi, lo = bld.gates[key] = bld.fresh(), bld.fresh()
        cls = ([-hi, a, b], [-lo, a], [-lo, b], [-a, hi], [-b, hi], [-a, -b, lo])
        bld.clauses += cls if bld.polarity == "full" else cls[:3]
        bld.comparators += 1
    return bld.gates[key]


def _and2(a: Lit, b: Lit, bld: CnfBuilder) -> Lit:
    """Literal equivalent to a and b: the negated or-gate of ~a and ~b."""
    return -_or_many([-a, -b], bld)


def _or_many(lits: Sequence[Lit], bld: CnfBuilder) -> Lit:
    """Literal equivalent to the disjunction, folded and shared as a comparator is."""
    kept = _disjuncts(lits)
    if kept is None:
        return TRUE
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    key = ("or", *sorted(kept))
    if key in bld.gates:
        return bld.gates[key]
    v = bld.gates[key] = bld.fresh()
    bld.clauses.append([-v, *kept])
    bld.clauses += [[-lit, v] for lit in kept]
    return v


@lru_cache(maxsize=None)
def _merge_exchange_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's merge exchange for any n (Knuth, TAOCP vol. 3, 5.2.2,
    Algorithm M): the pairs (i, i + d) with i & p == r of each pass."""
    pairs: list[tuple[int, int]] = []
    p = top = 1 << (n - 1).bit_length() >> 1
    while p:
        q, r, d = top, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def sorting_network(inputs: Sequence[Lit], bld: CnfBuilder) -> UnaryBus:
    """Sort a bus of literals descending (true values first).

    Known optimal networks up to 8 inputs; Batcher's merge exchange,
    which sorts any number of inputs, beyond.
    """
    n = len(inputs)
    bld.network_sizes.append(n)
    wires = list(inputs)
    pairs = OPTIMAL_NETWORKS[n] if n <= 8 else _merge_exchange_pairs(n)
    for i, j in pairs:
        wires[i], wires[j] = comparator(wires[i], wires[j], bld)
    return tuple(wires)


def decompose(c: PbConstraint, base: Sequence[int]) -> list[UnaryBus]:
    """Per-position input buses: each term's literal repeats as many times
    as its coefficient digit at that position.  Refuses, before building
    any bus, a base that gives more than ``MAX_BUS_INPUTS`` digits."""
    terms = [(digits_of(coef, base), lit) for coef, lit in c.terms]
    total = sum(sum(ds) for ds, _ in terms)
    if total > MAX_BUS_INPUTS:
        raise ValueError(f"the base gives one constraint {total} unary digit "
                         f"inputs, past the limit {MAX_BUS_INPUTS}")
    buses: list[list[Lit]] = [[] for _ in range(len(base) + 1)]
    for ds, lit in terms:
        for j, d in enumerate(ds):
            if d:
                buses[j].extend([lit] * d)
    return [tuple(b) for b in buses]


def normalizer(sorted_bus: UnaryBus, radix: int, i: int, bld: CnfBuilder) -> Lit:
    """The remainder line R_i of a sorted bus: true exactly when the bus
    value modulo ``radix`` is at least i, realized as the disjunction over
    t of (value >= t*radix + i) and not (value >= (t+1)*radix).  It is
    TRUE for i <= 0 and FALSE for i >= min(radix, m + 1) on a bus of m,
    so a radix past the bus costs nothing, and radix m + 1 reads the bus
    line itself.  Every radix-th output of the bus is a carry.
    """
    m, r = len(sorted_bus), radix
    if i <= 0:
        return TRUE
    if i >= min(r, m + 1):
        return FALSE
    return _or_many([_and2(sorted_bus[t * r + i - 1],
                           -sorted_bus[(t + 1) * r - 1] if (t + 1) * r <= m else TRUE,
                           bld) for t in range((m - i) // r + 1)], bld)


def encode_geq(sorted_buses: Sequence[UnaryBus], base: Sequence[int],
               threshold_digits: Sequence[int], bld: CnfBuilder,
               negated: bool = False) -> None:
    """Assert that the mixed radix number on a network's sorted buses is at
    least the number with the given digits, or below it when ``negated``:
    geq_j = (D_j > c_j) or (D_j >= c_j and geq_below_j), with D_j bus j
    modulo base[j] below the top.  Each D_j is read only at the lines
    needed: c_j and, above the lowest nonzero digit, c_j + 1."""
    geq: Lit = TRUE
    for j, (bus, c) in enumerate(zip(sorted_buses, threshold_digits)):
        r = base[j] if j < len(base) else len(bus) + 1
        ge = normalizer(bus, r, c, bld)
        if geq != TRUE:
            ge = _or_many([normalizer(bus, r, c + 1, bld), _and2(ge, geq, bld)], bld)
        geq = ge
    bld.add_clause([-geq if negated else geq])


def encode_constraint(c: PbConstraint, base: Sequence[int],
                      bld: CnfBuilder) -> list[UnaryBus] | None:
    """Full pipeline for one constraint: decompose, sort each position
    (the carries of the previous position join its inputs), then compare
    against the threshold.  A network the builder already holds for the
    term vector and base is read instead, or under full polarity the one
    for the complemented vector, through the negated comparison.  Returns
    the sorted buses, or None for a constraint whose coefficients cannot
    reach the threshold: it emits a single empty clause."""
    base = validate_base(base)
    if c.coefficient_sum < c.threshold:
        bld.add_clause([])
        return None
    key, threshold, negated = (c.terms, base), c.threshold, False
    flipped = (tuple((k, -lit) for k, lit in c.terms), base)
    if key not in bld.networks and bld.polarity == "full" and flipped in bld.networks:
        key, threshold, negated = flipped, c.coefficient_sum - c.threshold + 1, True
    if key not in bld.networks:
        carries: tuple[Lit, ...] = ()
        sorted_buses: list[UnaryBus] = []
        for j, bus in enumerate(decompose(c, base)):
            sorted_buses.append(sorting_network(bus + carries, bld))
            if j < len(base):
                carries = sorted_buses[j][base[j] - 1::base[j]]
        bld.networks[key] = sorted_buses
    encode_geq(bld.networks[key], base, digits_of(threshold, base), bld, negated)
    return bld.networks[key]


@dataclass
class ConstraintStats:
    index: int
    base: tuple[int, ...]
    cost_kind: str
    cost_value: int | None
    clauses: int
    vars: int  # fresh variables
    comparators: int
    network_sizes: tuple[int, ...]
    statically_unsat: bool
    fallback_binary: bool
    network_of: int | None  # the constraint whose network it reads


@dataclass
class Cnf:
    num_vars: int
    clauses: list[list[int]]
    comments: list[str] = field(default_factory=list)

    @property
    def has_empty_clause(self) -> bool:
        return [] in self.clauses


# One "%d ... %d 0" format per clause length below 32, which covers the
# comparator and gate clauses; longer or-gate clauses join their literals.
_CLAUSE_FORMATS = tuple("%d " * n + "0" for n in range(32))


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"c {c}" if c else "c" for c in cnf.comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    fmts, short = _CLAUSE_FORMATS, len(_CLAUSE_FORMATS)
    lines += [fmts[len(cl)] % tuple(cl) if len(cl) < short
              else " ".join(map(str, [*cl, 0])) for cl in cnf.clauses]
    return "\n".join(lines) + "\n"


def encode_instance(
    constraints: Sequence[PbConstraint],
    num_input_vars: int,
    cfg: SearchConfig,
    forced_base: Sequence[int] | None = None,
    fallback_binary: bool = True,
    polarity: str = "full",
) -> tuple[Cnf, list[ConstraintStats]]:
    """Encode a conjunction of constraints into one variable space.

    The base is found per constraint's coefficient multiset unless
    ``forced_base`` pins one base for everything.  Each distinct multiset is
    searched once: the halves of an ``=`` constraint and repeated
    constraints share the result.  A search that times out falls back to
    the binary base (flagged in the stats) when ``fallback_binary`` is
    set, and otherwise keeps the best base found.  Constraints over one
    term vector and base read one sorter network, built by the first of
    them; under full polarity so do those over its complement (see
    ``encode_constraint``).  A reader's stats count its comparison and the
    remainder lines it reads that no earlier comparison built.
    """
    bld = CnfBuilder(num_input_vars, polarity=polarity)
    searched: dict[Multiset, tuple[tuple[int, ...], bool]] = {}
    forced = validate_base(forced_base) if forced_base is not None else None
    first: dict[int, int] = {}  # id of a network's sorted buses -> who built it
    stats: list[ConstraintStats] = []
    for idx, pc in enumerate(constraints):
        c0, v0, n0 = len(bld.clauses), bld.num_vars, bld.comparators
        s0 = len(bld.network_sizes)
        if pc.coefficient_sum < pc.threshold:  # no multiset: the sum may pass 2**63
            s, base, fellback = None, (), False
        else:
            s = Multiset.of(c for c, _ in pc.terms)
            if forced is None and s not in searched:
                res = find_base(s, cfg)
                searched[s] = ((initial_best(s), True)
                               if res.timed_out and fallback_binary
                               else (res.best_base, False))
            base, fellback = searched[s] if forced is None else (forced, False)
        buses = encode_constraint(pc, base, bld)
        owner = idx if buses is None else first.setdefault(id(buses), idx)
        stats.append(ConstraintStats(
            idx, base, cfg.kind.value,
            None if s is None else cost_of(cfg.kind, s, base),
            len(bld.clauses) - c0, bld.num_vars - v0, bld.comparators - n0,
            tuple(bld.network_sizes[s0:]), s is None, fellback,
            None if owner == idx else owner))
    return Cnf(bld.num_vars, bld.clauses), stats
