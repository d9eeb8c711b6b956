"""The two workloads: inputs, the timed operation, its checks and its
contribution to the counts and the fingerprint.

Each workload holds a list of items.  The first ``fixed`` items form a
reference set drawn from a stream that does not depend on the seed; every
run does them first, and the counts and the fingerprint cover exactly
them, so they repeat for every seed and at any speed.  The items after
them come from the seed and keep the timed loop fed with fresh inputs
until the run ends.  Input shapes (sizes, term counts) follow a fixed
schedule and only the values are random, so that two seeds differ in
values, not in how much work a run holds.

All calls into optibase go through module attributes looked up at call
time, so the tracer's replacements take effect.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import optibase
import optibase.cli
import optibase.encoder
import optibase.satcheck
from optibase import CostKind, Multiset, SearchConfig

import checks

SEARCH_TIMEOUT_S = 60.0


def _schedule(rng: random.Random, index: int, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread evenly over lo..hi, in random order.  Their
    common offset within lo..hi steps with the instance index, not the
    seed, so every seed holds the same sizes at the same positions."""
    u = index * 0.6180339887 % 1
    sizes = [lo + int((hi - lo + 1) * (j + u) / count) for j in range(count)]
    rng.shuffle(sizes)
    return sizes


def _item_rngs(name: str, seed: int) -> tuple[random.Random, random.Random]:
    """The stream of the fixed reference items, and that of the seeded ones."""
    return random.Random(f"{name}:reference"), random.Random(f"{name}:{seed}")


def _dimacs_sha256(num_vars: int, clauses) -> str:
    cnf = optibase.encoder.Cnf(num_vars, clauses)
    return hashlib.sha256(optibase.encoder.to_dimacs(cnf).encode()).hexdigest()


@dataclass
class Outcome:
    """Result of one operation after its checks: operations attempted
    (searches, instance encodes or verdicts), the problems found, and
    what it adds to the counts and the fingerprint."""

    attempted: int
    problems: list
    base_cost: int = 0
    clauses: int = 0
    num_vars: int = 0
    fingerprint: list | None = None


def _constraint_line(rng, variables, coefs, relation, rhs, negated_share):
    parts = [f"+{c} {'~' if rng.random() < negated_share else ''}x{v}"
             for c, v in zip(coefs, variables)]
    return " ".join(parts) + f" {relation} {rhs} ;"


def _normalized_multisets(raw) -> list[tuple[int, ...]]:
    """Coefficient multisets after OPB normal form, for constraints whose
    variables are distinct and whose coefficients are positive: `=` splits
    into two `>=` halves with thresholds rhs and sum - rhs, and each half
    is divided by the gcd of its coefficients and threshold."""
    out = []
    for coefs, relation, rhs in raw:
        halves = [rhs] if relation == ">=" else [rhs, sum(coefs) - rhs]
        for threshold in halves:
            g = gcd(threshold, *coefs)
            out.append(tuple(sorted(c // g for c in coefs)))
    return out


class SearchEncodeWorkload:
    """Instances of four constraints of 5-30 terms, the second shortest of
    them `=`, coefficients U[1, 10^5].  Costs carry, comp and digits take
    turns, each with the CLI's default primality: off for carry and comp,
    so their candidate arrays span 2..10^4, and on for digits.  A digits
    instance holds a fifth constraint of four coefficients from
    U[1, 2^31-1], the paper's scaling regime; with eight, digits encodes
    were the slowest operations and the tail time followed how hard each
    seed's 2^31 searches happened to be.  One operation is
    `optibase encode` of one instance, in-process through
    optibase.cli.main, writing DIMACS and the stats JSON."""

    name = "encode-search"
    items_per_run = 160
    fixed = 12
    costs = ("carry", "comp", "digits")
    max_elem = 10_000
    layer_span = "cli.main"

    def __init__(self, seed: int):
        streams = _item_rngs(self.name, seed)
        self.items = []
        for i in range(self.items_per_run):
            cost = self.costs[i % len(self.costs)]
            text, raw, used = self.instance(streams[i >= self.fixed], i, cost)
            self.items.append({"index": i, "text": text, "raw": raw,
                               "inputs": used, "cost": cost})

    def instance(self, rng, index, cost):
        sizes = sorted(_schedule(rng, index, 4, 5, 30))
        shapes = [(k, 100_000, "=" if j == 1 else ">=") for j, k in enumerate(sizes)]
        if cost == "digits":
            shapes.append((4, 2**31 - 1, ">="))
        rng.shuffle(shapes)
        lines, raw, used = [], [], set()
        for k, top, relation in shapes:
            variables = rng.sample(range(1, 61), k)
            coefs = [rng.randint(1, top) for _ in variables]
            if relation == "=":
                rhs = rng.randint(1, sum(coefs) - 1)
            else:
                rhs = rng.randint(1, sum(coefs) // 2)
            lines.append(_constraint_line(rng, variables, coefs, relation, rhs, 0.3))
            raw.append((coefs, relation, rhs))
            used.update(variables)
        return "\n".join(lines) + "\n", raw, len(used)

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir
        for item in self.items:
            item["opb"] = str(workdir / f"i{item['index']}.opb")
            item["cnf"] = str(workdir / f"i{item['index']}.cnf")
            Path(item["opb"]).write_text(item["text"])

    def warm_up(self) -> None:
        # Batcher exchange lists for every padded network size that occurs
        for k in range(4, 10):
            n = 1 << k
            optibase.encoder.sorting_network(list(range(1, n + 1)),
                                             optibase.encoder.CnfBuilder(n))
        path = self.workdir / "warm.opb"
        path.write_text("+3 x1 +5 x2 +7 ~x3 >= 8 ;\n+2 x1 +2 x3 = 2 ;\n")
        for cost in self.costs:
            self._encode(str(path), str(path) + ".cnf", cost)

    def _encode(self, opb: str, cnf: str, cost: str) -> int:
        return optibase.cli.main(["encode", opb, "-o", cnf, "--cost", cost,
                                  "--timeout", str(SEARCH_TIMEOUT_S)])

    def run(self, item):
        return self._encode(item["opb"], item["cnf"], item["cost"])

    def check(self, item, status) -> Outcome:
        cnf = Path(item["cnf"])
        stats_path = Path(item["cnf"] + ".stats.json")
        if status != 0:
            return Outcome(1, [f"encode exited with status {status}"])
        data = cnf.read_bytes()
        stats = json.loads(stats_path.read_text())
        cnf.unlink()
        stats_path.unlink()
        per, totals = stats["constraints"], stats["totals"]
        multisets = _normalized_multisets(item["raw"])
        problems = checks.check_dimacs(data, totals, per,
                                       item["inputs"], len(multisets))
        primes = item["cost"] == "digits"
        for st, values in zip(per, multisets):
            if st["fallback_binary"]:
                problems.append(f"constraint {st['index']}: search timed out")
            problems += [f"constraint {st['index']}: {p}" for p in checks.check_search(
                values, item["cost"], st["base"], st["cost_value"], self.max_elem, primes)]
        return Outcome(1, problems,
                       base_cost=sum(st["cost_value"] for st in per),
                       clauses=totals["clauses"], num_vars=totals["vars"],
                       fingerprint=[[st["base"] for st in per],
                                    [st["cost_value"] for st in per],
                                    totals["vars"], totals["clauses"],
                                    hashlib.sha256(data).hexdigest()])


class VerifyWorkload:
    """Groups of three constraints, of 7, 8 and 9 terms, with coefficients
    U[1, 1000].  One operation checks each constraint of a group under two
    bases, the binary base and the base hashbnb finds for the carry cost:
    each is encoded and the built-in solver decides every full input
    assignment."""

    name = "verify-sweep"
    layer_span = "bench.op"
    items_per_run = 200
    fixed = 12

    def __init__(self, seed: int):
        streams = _item_rngs(self.name, seed)
        self.items = []
        for i in range(self.items_per_run):
            rng = streams[i >= self.fixed]
            group = []
            for n in (7, 8, 9):
                coefs = [rng.randint(1, 1000) for _ in range(n)]
                terms = tuple((c, v if rng.random() < 0.7 else -v)
                              for c, v in zip(coefs, range(1, n + 1)))
                group.append((terms, rng.randint(1, sum(coefs))))
            self.items.append(tuple(group))

    def prepare(self, workdir: Path) -> None:
        pass

    def warm_up(self) -> None:
        self.run([(((3, 1), (5, -2), (6, 3)), 7)])

    @staticmethod
    def _sweep(terms, threshold, base):
        n = len(terms)
        bld = optibase.encoder.CnfBuilder(n)
        optibase.encoder.encode_constraint(
            optibase.encoder.PbConstraint(terms, threshold), base, bld)
        solver = optibase.satcheck.Solver(bld.clauses, bld.num_vars)
        verdicts = []
        for a in range(1 << n):
            assumptions = [v if a >> (v - 1) & 1 else -v for v in range(1, n + 1)]
            verdicts.append(solver.solve(assumptions) is not None)
        return bld, verdicts

    def run(self, group):
        out = []
        for terms, threshold in group:
            coefs = [c for c, _ in terms]
            cfg = SearchConfig(kind=CostKind.SUM_CARRY, max_elem=max(2, max(coefs)),
                               primes_only=False, algorithm="hashbnb",
                               timeout=SEARCH_TIMEOUT_S)
            res = optibase.find_base(Multiset.of(coefs), cfg)
            binary = (2,) * (max(coefs).bit_length() - 1)
            out.append((res, [(base, *self._sweep(terms, threshold, base))
                              for base in (binary, res.best_base)]))
        return out

    def check(self, group, outcome) -> Outcome:
        problems, fp = [], []
        attempted = cost = clauses = num_vars = 0
        for (terms, threshold), (res, sweeps) in zip(group, outcome):
            coefs = [c for c, _ in terms]
            if res.timed_out:
                problems.append("search timed out")
            problems += checks.check_search(coefs, "carry", res.best_base, res.best_cost,
                                            max(2, max(coefs)), False)
            attempted += 1
            cost += res.best_cost
            fp += [res.best_cost, res.nodes_expanded]
            for base, bld, verdicts in sweeps:
                problems += checks.check_verdicts(terms, threshold, verdicts)
                attempted += len(verdicts)
                clauses += len(bld.clauses)
                num_vars += bld.num_vars
                fp += [list(base), len(bld.clauses), bld.num_vars, sum(verdicts),
                       _dimacs_sha256(bld.num_vars, bld.clauses)]
        return Outcome(attempted, problems, base_cost=cost,
                       clauses=clauses, num_vars=num_vars, fingerprint=fp)


WORKLOADS = {w.name: w for w in (SearchEncodeWorkload, VerifyWorkload)}
