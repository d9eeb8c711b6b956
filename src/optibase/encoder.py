"""Compile Pseudo-Boolean constraints to CNF through sorting networks.

A normal-form constraint (positive coefficients, each variable once,
relation >=, positive threshold) is encoded against a mixed radix base:
its coefficients decompose into per-position digit buses, a pairwise
sorting network sorts each bus with the carries (every radix-th line) of
the position below, and the remainders of the sorted buses modulo their
radices are compared against the threshold.  The comparison is planned
first: from the top position down, the lines it reads and the carries
read above mark the comparator outputs they need, and only those are
built, bottom position first.  Every gate folds constant, equal and
complementary inputs, and the builder keeps one gate per comparator pair
and or-gate (an and-gate is a negated or-gate), so ``bld.comparators``
counts the pairs emitted: fewer than the ``comp`` model where a bus
repeats a literal and where outputs go unread.

A builder keeps one network per term vector and base, and each later
constraint over them builds only the lines its comparison newly reads.
A constraint over the complemented vector, sum c*~l >= T as the second
half of every ``=`` is, says not (sum c*l >= sum c - T + 1), so it
asserts the negated comparison on the same network.  Only under full
polarity: a monotone comparator justifies only a true output.

Literals are DIMACS-style signed integers, the constants too: TRUE is
2**31, one past the last variable ``fresh`` gives, and FALSE is -TRUE, so
negation is ``-`` throughout.  Every gate folds a constant input, and
``add_clause`` drops FALSE and a clause holding TRUE, so neither is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .cost import cost_of
from .mixedradix import Multiset, _integers, digits_of, validate_base
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
        _integers([self.threshold, *(v for term in self.terms for v in term)])
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
    ``num_vars`` starts at ``inputs``, the pre-reserved input variables, and
    fresh ids continue above it.  ``add_clause`` drops FALSE literals and a
    clause holding TRUE or complementary literals; an empty clause is kept."""

    def __init__(self, num_input_vars: int = 0, polarity: str = "full"):
        if polarity not in ("full", "monotone"):
            raise ValueError(f"unknown polarity {polarity!r}")
        if num_input_vars < 0:
            raise ValueError("the number of input variables cannot be negative")
        self.inputs = self.num_vars = num_input_vars
        self.clauses: list[list[int]] = []
        self.comparators = 0
        self.network_sizes: list[int] = []
        self.gates: dict[tuple, int | tuple] = {}  # gate inputs -> outputs
        self.networks: set[tuple] = set()  # (terms, base) of each network
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


def comparator(a: Lit, b: Lit, bld: CnfBuilder, want: int = 3) -> tuple[Lit, Lit]:
    """Two-input sorter: returns (a or b, a and b).  Constant, equal and
    complementary inputs fold.  Otherwise the builder keeps one output pair
    per input pair, in either order, counted once in ``bld.comparators``.
    Each output ``want`` asks for (bit 1 hi, bit 2 lo) and the pair lacks
    gets a variable, hi before lo, and its clauses [-hi,a,b], [-a,hi],
    [-b,hi] or [-lo,a], [-lo,b], [-a,-b,lo], of which monotone polarity
    keeps the one or two that justify it.  An output not built is None."""
    if a == TRUE or b == FALSE or a == b:
        return a, b
    if b == TRUE or a == FALSE:
        return b, a
    if a == -b:
        return TRUE, FALSE
    key = (a, b) if a < b else (b, a)
    out = bld.gates.get(key)
    if out is None:
        out = bld.gates[key] = (None, None)
        bld.comparators += 1
    full = bld.polarity == "full"
    if want & 1 and out[0] is None:
        out = bld.gates[key] = (hi := bld.fresh()), out[1]
        bld.clauses += ([-hi, a, b], [-a, hi], [-b, hi]) if full else ([-hi, a, b],)
    if want & 2 and out[1] is None:
        out = bld.gates[key] = out[0], (lo := bld.fresh())
        bld.clauses += ([-lo, a], [-lo, b], [-a, -b, lo]) if full else ([-lo, a], [-lo, b])
    return out


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
def _pairwise_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Parberry's pairwise sorting network (Parallel Processing Letters
    1992) on the power of two a >= n, less the pairs past wire n - 1: the
    pairs (b - h, b) with bit h of b set, for h = 1, 2, 4, ..., a / 2; then
    for s = a / 4, a / 8, ..., 1, the k-th, and d = 2**k - 1, ..., 3, 1,
    the pairs (b - d*s, b) with b >= (d + 1) * s and bit s of b clear."""
    pairs: list[tuple[int, int]] = []
    a = 1
    while a < n:
        pairs += [(b - a, b) for b in range(a, n) if b & a]
        a *= 2
    for k in range(1, a.bit_length() - 1):
        s = a >> k + 1
        for d in [(1 << q) - 1 for q in range(k, 0, -1)]:
            pairs += [(b - d * s, b) for b in range((d + 1) * s, n) if not b & s]
    return tuple(pairs)


@lru_cache(maxsize=4096)
def _cone(n: int, outputs: bytes) -> tuple[bytes, bytes]:
    """For the marked outputs (1 or 0 per line) of the n-input pairwise
    network, what each comparator builds, as ``comparator``'s ``want`` (0
    for none), and the marked inputs.  Going back, a comparator builds its
    marked outputs, and one that builds any marks its inputs."""
    need, wants = bytearray(outputs), bytearray()
    for i, k in reversed(_pairwise_pairs(n)):
        wants.append(want := need[i] | need[k] << 1)
        if want:
            need[i] = need[k] = 1
    return bytes(wants[::-1]), bytes(need)


def sorting_network(inputs: Sequence[Lit], bld: CnfBuilder,
                    plan: tuple[bytes, bytes] | None = None) -> UnaryBus:
    """Sort a bus of literals descending (true values first) through the
    pairwise network, of optimal size up to 8 inputs.  A ``_plans`` plan builds
    the lines it marks, None at the other outputs; without one, all are built."""
    n = len(inputs)
    bld.network_sizes.append(n)
    pairs = _pairwise_pairs(n)
    wants, outputs = plan or (b"\3" * len(pairs), b"\1" * n)
    wires = list(inputs)
    for (i, j), want in zip(pairs, wants):
        if want:
            wires[i], wires[j] = comparator(wires[i], wires[j], bld, want)
    return tuple(w if keep else None for w, keep in zip(wires, outputs))


def decompose(c: PbConstraint, base: Sequence[int]) -> list[UnaryBus]:
    """Per-position input buses: each term's literal repeats as many times
    as its coefficient digit at that position.  Refuses, before building
    any bus, a base that gives more than ``MAX_BUS_INPUTS`` digits."""
    terms = [(digits_of(coef, base), lit) for coef, lit in c.terms]
    total = sum(sum(ds) for ds, _ in terms)
    if total > MAX_BUS_INPUTS:
        raise ValueError(f"the base gives one constraint {total} unary digit "
                         f"inputs, past the limit {MAX_BUS_INPUTS}")
    return [tuple(x for ds, lit in terms for x in (lit,) * ds[j])
            for j in range(len(base) + 1)]


def _lines(m: int, radix: int, i: int) -> list[tuple[int, int]]:
    """The lines R_i reads on a sorted bus of m, for each t: t*radix + i - 1
    and (t+1)*radix - 1, or m past the bus; none for i <= 0 or i >= radix."""
    return [(t * radix + i - 1, min((t + 1) * radix - 1, m))
            for t in range((m - i) // radix + 1 if 0 < i < radix else 0)]


def normalizer(sorted_bus: UnaryBus, radix: int, i: int, bld: CnfBuilder) -> Lit:
    """The remainder line R_i of a sorted bus: true exactly when its value
    modulo ``radix`` is at least i, the disjunction over t of (value >=
    t*radix + i) and not (value >= (t+1)*radix).  TRUE for i <= 0, FALSE for
    i >= min(radix, m + 1) on a bus of m; radix m + 1 reads line i - 1."""
    if i <= 0:
        return TRUE
    m = len(sorted_bus)
    return _or_many([_and2(sorted_bus[lo], -sorted_bus[hi] if hi < m else TRUE, bld)
                     for lo, hi in _lines(m, radix, i)], bld)


def _reads(threshold_digits: Sequence[int], sizes: Sequence[int],
           base: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Each position's radix and the R_i a comparison of sorted buses of
    these sizes reads there.  For digit c, geq_j is R_c while geq_{j-1} is
    TRUE, R_{c+1} while it is FALSE, else R_{c+1} or (R_c and geq_{j-1});
    it is FALSE when its lowest R_i is, and then nothing below is read."""
    out, geq = [], TRUE
    for j, (c, m) in enumerate(zip(threshold_digits, sizes)):
        r = base[j] if j < len(base) else m + 1
        read = (c,) if geq == TRUE else (c + 1,) if geq == FALSE else (c, c + 1)
        geq = FALSE if read[0] >= min(r, m + 1) else TRUE if read == (0,) else None
        if geq == FALSE:
            out = [(q, ()) for q, _ in out]
        out.append((r, read))
    return out


def encode_geq(sorted_buses: Sequence[UnaryBus], base: Sequence[int],
               threshold_digits: Sequence[int], bld: CnfBuilder,
               negated: bool = False) -> None:
    """Assert that the mixed radix number on a network's sorted buses is at
    least the number with the given digits, or below it when ``negated``:
    geq_j = (D_j > c_j) or (D_j >= c_j and geq_below_j), with D_j bus j
    modulo base[j] below the top, read only where ``_reads`` says."""
    geq, sizes = TRUE, [len(bus) for bus in sorted_buses]
    for bus, (r, read) in zip(sorted_buses, _reads(threshold_digits, sizes, base)):
        ge = [normalizer(bus, r, i, bld) for i in read]
        if ge:
            geq = ge[0] if len(ge) == 1 else _or_many([ge[1], _and2(ge[0], geq, bld)], bld)
    bld.add_clause([-geq if negated else geq])


def _plans(buses: Sequence[UnaryBus], base: Sequence[int],
           digits: Sequence[int]) -> list[tuple[bytes, bytes]]:
    """Each position's plan: its ``_cone`` wants and the output lines to
    build, marked from the top position down where the comparison or a
    carry into the position above reads them."""
    sizes = [len(buses[0])]
    for bus, r in zip(buses[1:], base):
        sizes.append(len(bus) + sizes[-1] // r)
    plans, carried = [], b""
    for bus, n, (r, read) in reversed(list(zip(buses, sizes, _reads(digits, sizes, base)))):
        need = bytearray(n + 1)  # need[n] stands for the line past the bus
        need[r - 1:n:r] = carried
        for lo, hi in (line for i in read for line in _lines(n, r, i)):
            need[lo] = need[hi] = 1
        wants, inputs = _cone(n, outputs := bytes(need[:n]))
        plans.append((wants, outputs))
        carried = inputs[len(bus):]
    return plans[::-1]


def _network_of(c: PbConstraint, base: tuple[int, ...], bld: CnfBuilder) -> tuple:
    """The network (terms, base) a constraint reads, its threshold and sense."""
    key, flipped = (c.terms, base), (tuple((k, -lit) for k, lit in c.terms), base)
    if key not in bld.networks and bld.polarity == "full" and flipped in bld.networks:
        return flipped, c.coefficient_sum - c.threshold + 1, True
    return key, c.threshold, False


def encode_constraint(c: PbConstraint, base: Sequence[int],
                      bld: CnfBuilder) -> list[UnaryBus] | None:
    """Full pipeline for one constraint: decompose, plan, sort each
    position (the carries of the one below join its inputs), then compare
    against the threshold.  A network built for the term vector and base,
    or under full polarity for the complemented one (read through the
    negated comparison), is planned again and its built lines come back
    from ``bld.gates``.  Returns the sorted buses, None at each line not
    built, or None for a constraint whose coefficients cannot reach the
    threshold: it emits one empty clause.  Refuses a literal past the inputs."""
    base = validate_base(base)
    top = max((abs(lit) for _, lit in c.terms), default=0)
    if top > bld.inputs:
        raise ValueError(f"variable {top} is past the {bld.inputs} inputs")
    if c.coefficient_sum < c.threshold:
        bld.add_clause([])
        return None
    key, threshold, negated = _network_of(c, base, bld)
    digits, built = digits_of(threshold, base), len(bld.network_sizes)
    buses = decompose(PbConstraint(key[0], threshold), base)
    carries, sorted_buses = (), []
    for bus, plan, r in zip(buses, _plans(buses, base, digits), (*base, None)):
        sorted_buses.append(sorting_network(bus + carries, bld, plan))
        carries = sorted_buses[-1][r - 1::r] if r else ()
    if key in bld.networks:  # the sizes stay with the constraint that built it
        del bld.network_sizes[built:]
    bld.networks.add(key)
    encode_geq(sorted_buses, base, digits, bld, negated)
    return sorted_buses


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
    ``forced_base`` pins one base for everything.  Each distinct multiset
    is searched once, so the halves of an ``=`` constraint and repeated
    constraints share the result.  A search that times out falls back to
    the binary base (flagged in the stats) when ``fallback_binary`` is
    set, and otherwise keeps the best base found.  Constraints over one
    term vector and base, and under full polarity its complement, read one
    network, built by the first; a reader's stats count what it adds.
    """
    bld = CnfBuilder(num_input_vars, polarity=polarity)
    searched: dict[Multiset, tuple[tuple[int, ...], bool]] = {}
    forced = validate_base(forced_base) if forced_base is not None else None
    first: dict[tuple, int] = {}  # network key -> the constraint that built it
    stats: list[ConstraintStats] = []
    for idx, pc in enumerate(constraints):
        c0, v0, n0, s0 = len(bld.clauses), bld.num_vars, bld.comparators, len(bld.network_sizes)
        if pc.coefficient_sum < pc.threshold:  # no multiset: the sum may pass 2**63
            s, base, fellback = None, (), False
        else:
            s = Multiset.of(c for c, _ in pc.terms)
            if forced is None and s not in searched:
                res = find_base(s, cfg)
                searched[s] = ((initial_best(s), True) if res.timed_out and fallback_binary
                               else (res.best_base, False))
            base, fellback = searched[s] if forced is None else (forced, False)
        buses = encode_constraint(pc, base, bld)
        owner = idx if buses is None else first.setdefault(_network_of(pc, base, bld)[0], idx)
        stats.append(ConstraintStats(
            idx, base, cfg.kind.value,
            None if s is None else cost_of(cfg.kind, s, base),
            len(bld.clauses) - c0, bld.num_vars - v0, bld.comparators - n0,
            tuple(bld.network_sizes[s0:]), s is None, fellback,
            None if owner == idx else owner))
    return Cnf(bld.num_vars, bld.clauses), stats
