"""Parser and normalizer for Pseudo-Boolean competition (OPB) files.

Supported surface: `*` comment lines, an optional `min:` objective line
(parsed, flagged and otherwise ignored; encoding is decision-only), and
constraints of the form

    +2 x1 +3 ~x2 >= 5 ;

with relations >=, <= and =.  Every constraint is rewritten into
Pseudo-Boolean normal form: positive coefficients, each variable at most
once, relation >= with a positive threshold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from operator import eq, ge, le

from .encoder import PbConstraint
from .mixedradix import Multiset


class OpbParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_RELATIONS = {">=": ge, "<=": le, "=": eq}  # relation -> test of (lhs, rhs)


@dataclass(frozen=True)
class RawConstraint:
    """One constraint as written: signed coefficients on possibly negated
    named variables."""

    terms: tuple[tuple[int, str, bool], ...]  # (coefficient, name, negated)
    relation: str  # ">=", "<=" or "="
    rhs: int
    line: int = 0

    def holds(self, assignment: dict[str, bool]) -> bool:
        total = sum(c for c, name, neg in self.terms if assignment[name] != neg)
        return _RELATIONS[self.relation](total, self.rhs)


@dataclass
class PbInstance:
    names: list[str]                      # index i holds the name of id i+1
    constraints: list[PbConstraint]
    raws: list[RawConstraint]             # the constraints as written
    objective: tuple[tuple[int, str, bool], ...] | None = None

    @property
    def skipped_objective(self) -> bool:
        """The objective is parsed but not encoded (decision-only)."""
        return self.objective is not None


_TOKEN = re.compile(r"\S+")
_VAR = re.compile(r"~?x[0-9]+$")


def _tokens(text: str) -> list[tuple[str | None, int, int]]:
    """(token, line, column) triples, closed by (None, -1, -1)."""
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("*"):
            toks += [(m.group(0), lineno, m.start() + 1)
                     for m in _TOKEN.finditer(line)]
    toks.append((None, -1, -1))
    return toks


def parse(text: str) -> tuple[list[RawConstraint], tuple | None]:
    """Raw constraints plus the objective term list, if one is present."""
    constraints: list[RawConstraint] = []
    objective: tuple | None = None
    toks = _tokens(text)
    i, head, terms = 0, None, []  # head: the statement's first token
    while True:
        tok, line, col = toks[i]
        if head is None:
            if tok is None:
                return constraints, objective
            head = toks[i]
            if tok == "min:":
                if objective is not None:
                    raise OpbParseError("second objective line", line, col)
                i += 1
                continue
        if tok in _RELATIONS:
            if head[0] == "min:":
                raise OpbParseError("relation inside objective", line, col)
            rhs = _parse_int(*toks[i + 1])
            semi, sline, scol = toks[i + 2]
            if semi != ";":
                raise OpbParseError(f"expected ';', got {semi!r}", sline, scol)
            if not terms:
                raise OpbParseError("constraint without terms", line, col)
            constraints.append(RawConstraint(tuple(terms), tok, rhs, head[1]))
            i += 3
        elif tok == ";":
            if head[0] != "min:":
                raise OpbParseError("constraint without relation", line, col)
            objective = tuple(terms)
            i += 1
        else:  # a term; _parse_int reports the end of input
            coef = _parse_int(tok, line, col)
            vtok, vline, vcol = toks[i + 1]
            if vtok is None or not _VAR.match(vtok):
                raise OpbParseError(f"expected a variable, got {vtok!r}",
                                    vline, vcol)
            negated = vtok.startswith("~")
            terms.append((coef, vtok[1:] if negated else vtok, negated))
            i += 2
            continue
        head, terms = None, []


def _parse_int(tok, line, col) -> int:
    if tok is None:
        raise OpbParseError("unexpected end of input", line, col)
    body = tok[1:] if tok[0] in "+-" else tok
    if not (body.isascii() and body.isdigit()):
        raise OpbParseError(f"expected an integer, got {tok!r}", line, col)
    return int(tok)


def normalize(rc: RawConstraint, ids: dict[str, int],
              saturate: bool = False) -> list[PbConstraint]:
    """Rewrite one raw constraint into zero, one or two normal-form
    constraints over dense variable ids (registering new names in `ids`).

    `=` splits into a >= and a negated >=; `<=` negates through.  Negative
    coefficients flip the literal, duplicate occurrences of a variable
    merge, coefficients and threshold are reduced by their common gcd
    (threshold rounded up), and a constraint with a non-positive threshold
    is dropped as trivially true.  A constraint whose coefficients cannot
    reach the threshold is kept; it encodes to the empty clause.

    Saturation (clamping coefficients to the threshold) is available but
    off by default, since it changes the multisets the base search sees.
    """
    if rc.relation == "=":
        ge = RawConstraint(rc.terms, ">=", rc.rhs, rc.line)
        neg_terms = tuple((-c, n, neg) for c, n, neg in rc.terms)
        le = RawConstraint(neg_terms, ">=", -rc.rhs, rc.line)
        return normalize(ge, ids, saturate) + normalize(le, ids, saturate)
    if rc.relation == "<=":
        flipped = RawConstraint(tuple((-c, n, neg) for c, n, neg in rc.terms),
                                ">=", -rc.rhs, rc.line)
        return normalize(flipped, ids, saturate)

    # fold negated literals into coefficients on the positive variable
    rhs = rc.rhs
    net: dict[int, int] = {}
    for coef, name, negated in rc.terms:
        var = ids.setdefault(name, len(ids) + 1)
        if negated:
            rhs -= coef
            coef = -coef
        net[var] = net.get(var, 0) + coef

    # a negative net coefficient flips onto the complement: -c*x = c*~x - c
    terms = [(c, var) if c > 0 else (-c, -var) for var, c in sorted(net.items()) if c]
    rhs -= sum(c for c in net.values() if c < 0)
    if rhs <= 0:
        return []

    while True:
        if saturate:
            terms = [(min(c, rhs), lit) for c, lit in terms]
        g = gcd(rhs, *[c for c, _ in terms]) if terms else rhs
        if g <= 1:
            break
        terms = [(c // g, lit) for c, lit in terms]
        rhs = -(-rhs // g)  # ceiling division
        if not saturate:
            break

    return [PbConstraint(tuple(terms), rhs)]


def load_instance(text: str, saturate: bool = False) -> PbInstance:
    raws, objective = parse(text)
    ids: dict[str, int] = {}
    constraints = [pc for rc in raws for pc in normalize(rc, ids, saturate)]
    # ids are dense and assigned in insertion order
    return PbInstance(list(ids), constraints, raws, objective=objective)


def coefficient_multiset(c: PbConstraint) -> Multiset:
    """The multiset of coefficients, duplicates preserved."""
    return Multiset.of(coef for coef, _ in c.terms)


def instance_to_opb(inst: PbInstance) -> str:
    """Render an instance back to OPB text (normalized constraints)."""
    lines = [f"* #variable= {len(inst.names)} #constraint= {len(inst.constraints)}"]
    if inst.objective is not None:
        parts = [f"{c:+d} {'~' if neg else ''}{n}" for c, n, neg in inst.objective]
        lines.append("min: " + " ".join(parts) + " ;")
    for pc in inst.constraints:
        parts = []
        for coef, lit in pc.terms:
            name = inst.names[abs(lit) - 1]
            parts.append(f"+{coef} {'~' if lit < 0 else ''}{name}")
        parts.append(f">= {pc.threshold} ;")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
