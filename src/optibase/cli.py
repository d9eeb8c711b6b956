"""Command line interface: find-base, encode, solve and bench.

Exit codes are a stable contract: 0 success, 1 usage or tool error,
2 parse error, 10 an encoding that is statically unsatisfiable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from .cost import CostKind
from .encoder import Cnf, PbConstraint, encode_instance, to_dimacs
from .mixedradix import Multiset, validate_base
from .opb import (OpbParseError, PbInstance, coefficient_multiset,
                  instance_to_opb, load_instance)
from .satcheck import Solver, SolverBudgetExceeded
from .search import ALGORITHMS, SearchConfig, find_base

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_STATIC_UNSAT = 10

CLUSTER_BASE = 1.9745

# the CLI bounds every base search; SearchConfig's own default is no timeout
SEARCH_TIMEOUT_S = 600.0

class UsageError(Exception):
    pass


class ToolError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _search_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost", choices=sorted(k.value for k in CostKind), default="digits",
                   help="cost function to minimize (default digits)")
    p.add_argument("--algo", choices=list(ALGORITHMS),
                   default=SearchConfig.algorithm)
    p.add_argument("--max-elem", type=int, default=SearchConfig.max_elem,
                   help="largest base element considered (default %(default)s)")
    p.add_argument("--primes-only", action=argparse.BooleanOptionalAction, default=None, help=(
        "restrict base elements to primes (default: on for digits, off for carry/comp)"))
    p.add_argument("--timeout", type=float, default=SEARCH_TIMEOUT_S,
                   help="base-search timeout in seconds (default %(default)g)")


def _search_config(args) -> SearchConfig:
    return SearchConfig(kind=CostKind(args.cost), max_elem=args.max_elem,
                        primes_only=args.primes_only, algorithm=args.algo,
                        timeout=args.timeout)


def _parse_ints(make, what: str, text: str):
    """``make`` (Multiset.of or validate_base) of a comma or space list."""
    try:
        return make(int(t) for t in text.replace(",", " ").split())
    except ValueError as e:
        raise UsageError(f"bad {what} {text!r}: {e}") from None


def _fmt_base(base) -> str:
    return ",".join(str(r) for r in base) if base else "(empty)"


def _result_dict(s: Multiset, res) -> dict:
    return {"multiset": list(s.elements), "base": list(res.best_base),
            "cost": res.best_cost, "algorithm": res.algorithm,
            "optimal_guaranteed": res.optimal_guaranteed, "timed_out": res.timed_out,
            "nodes_expanded": res.nodes_expanded, "nodes_pruned": res.nodes_pruned,
            "elapsed_s": round(res.elapsed, 6)}


def cmd_find_base(args) -> int:
    """Search each multiset; --opb reports a refused constraint and goes on."""
    cfg = _search_config(args)
    results = []  # (label, multiset, result), or (label, None, error text)
    if args.set is not None:
        s = _parse_ints(Multiset.of, "multiset", args.set)
        results.append(("set", s, find_base(s, cfg)))
    else:
        inst = load_instance(Path(args.opb).read_text())
        for i, pc in enumerate(inst.constraints):
            if not pc.terms:
                continue
            label = f"constraint {i}"
            try:
                s = coefficient_multiset(pc)
                results.append((label, s, find_base(s, cfg)))
            except (ValueError, MemoryError) as e:
                print(f"error: {label}: {e}", file=sys.stderr)
                results.append((label, None, str(e)))
    if args.json:
        payload = [dict(_result_dict(s, r), label=label) if s is not None
                   else {"label": label, "error": r}
                   for label, s, r in results]
        print(json.dumps(payload if args.opb else payload[0], indent=2))
    else:
        for label, s, res in results:
            if s is None:
                continue
            prefix = f"{label}: " if args.opb else ""
            print(f"{prefix}base: {_fmt_base(res.best_base)}")
            print(f"{prefix}cost: {res.best_cost} ({args.cost})")
            print(f"{prefix}algorithm: {res.algorithm} optimal-guaranteed: "
                  f"{'yes' if res.optimal_guaranteed else 'no'} expanded: {res.nodes_expanded} "
                  f"pruned: {res.nodes_pruned} elapsed: {res.elapsed:.3f}s")
    return EXIT_USAGE if any(s is None for _, s, _ in results) else EXIT_OK


def _encode_options(p: argparse.ArgumentParser) -> None:
    _search_options(p)
    p.add_argument("--base", default=None,
                   help="force this base for every constraint, e.g. '2,3,3'")
    p.add_argument("--fallback-binary", action=argparse.BooleanOptionalAction, default=True,
                   help="fall back to the binary base when a base search times out (default on)")
    p.add_argument("--polarity", choices=["full", "monotone"], default="full",
                   help="comparator clause scheme (default full, 6 clauses)")
    p.add_argument("--saturate", action="store_true",
                   help="clamp coefficients to the threshold while normalizing")


def _encode(args, text: str):
    inst = load_instance(text, saturate=args.saturate)
    cfg = _search_config(args)
    forced = None if args.base is None else _parse_ints(validate_base, "base", args.base)
    cnf, stats = encode_instance(
        inst.constraints, len(inst.names), cfg,
        forced_base=forced, fallback_binary=args.fallback_binary,
        polarity=args.polarity)
    cnf.comments = [
        f"optibase encode cost={args.cost} algo={args.algo}",
        *(f"var {i} = {name}" for i, name in enumerate(inst.names, start=1)),
        *(f"constraint {st.index}: base={_fmt_base(st.base)} "
          f"cost={st.cost_kind}:{st.cost_value} clauses={st.clauses} "
          f"vars={st.vars} comparators={st.comparators} "
          f"networks={','.join(map(str, st.network_sizes))}" for st in stats),
        f"totals: constraints={len(stats)} vars={cnf.num_vars} clauses={len(cnf.clauses)}"]
    return inst, cnf, stats


def cmd_encode(args) -> int:
    inst, cnf, stats = _encode(args, Path(args.input).read_text())
    unsat = cnf.has_empty_clause
    Path(args.output).write_text(to_dimacs(cnf))
    totals = {"constraints": len(stats), "vars": cnf.num_vars, "clauses": len(cnf.clauses),
              "comparators": sum(st.comparators for st in stats), "statically_unsat": unsat}
    payload = {"constraints": [asdict(st) for st in stats], "totals": totals}
    Path(args.stats or args.output + ".stats.json").write_text(json.dumps(payload, indent=2) + "\n")
    if inst.skipped_objective:
        print("warning: objective line ignored (decision-only encoding)",
              file=sys.stderr)
    return EXIT_STATIC_UNSAT if unsat else EXIT_OK


def _run_external_solver(path: str, cnf: Cnf) -> dict[int, bool] | None:
    f = tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False)
    try:
        with f:
            f.write(to_dimacs(cnf))
        proc = subprocess.run([path, f.name], capture_output=True, text=True)
    finally:
        os.unlink(f.name)
    # competition convention: exit 10 means SAT, 20 means UNSAT
    if proc.returncode not in (0, 10, 20):
        raise ToolError(f"solver exited with status {proc.returncode}: "
                        f"{proc.stderr.strip()[:200]}")
    status, lits = None, []
    for line in proc.stdout.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v "):
            lits.extend(int(t) for t in line[2:].split())
    if status == "UNSATISFIABLE":
        return None
    if status != "SATISFIABLE":
        raise ToolError(f"could not parse solver output (status line {status!r})")
    return {abs(l): l > 0 for l in lits if l != 0}


def cmd_solve(args) -> int:
    inst, cnf, _ = _encode(args, Path(args.input).read_text())
    if cnf.has_empty_clause:
        model = None
    elif args.solver:
        model = _run_external_solver(args.solver, cnf)
    else:
        try:
            model = Solver(cnf.clauses, cnf.num_vars).solve()
        except SolverBudgetExceeded as e:
            raise ToolError(f"builtin solver gave up: {e}") from None
    if model is None:
        print("UNSAT")
        return EXIT_OK
    named = {name: bool(model.get(i + 1, False))
             for i, name in enumerate(inst.names)}
    for rc in inst.raws:
        if not rc.holds(named):
            raise ToolError(
                f"solver model does not satisfy the constraint on line {rc.line}")
    print("SAT")
    print(" ".join(f"{name}={1 if named[name] else 0}" for name in inst.names))
    return EXIT_OK


def cluster_key(max_coefficient: int) -> int:
    """Problems are clustered by ceil(log base 1.9745 of the maximum)."""
    return math.ceil(math.log(max(max_coefficient, 1), CLUSTER_BASE))


def _gen_multisets(n: int, seed: int, gen_max: int, gen_size: int):
    """Seeded corpus; every multiset contains gen_max so the whole corpus
    lands in one cluster."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        size = rng.randint(2, max(2, gen_size))
        elems = [gen_max] + [rng.randint(1, gen_max) for _ in range(size - 1)]
        out.append((f"gen{i}", tuple(sorted(elems))))
    return out


def _amplified_instances(paths, emit_dir: str | None):
    """(name, constraints) for scaled copies of each instance: coefficients
    and thresholds times 31**i for i in 0..5, plus a unit slack term on a
    fresh variable so the scale factor would survive gcd reduction."""
    for path in paths:
        inst = load_instance(Path(path).read_text())
        top = max((int(n[1:]) for n in inst.names), default=0)
        names = inst.names + [f"x{top + 1 + ci}"
                              for ci in range(len(inst.constraints))]
        for i in range(6):
            factor = 31 ** i
            scaled = [PbConstraint(
                tuple((c * factor, lit) for c, lit in pc.terms)
                + ((1, len(inst.names) + 1 + ci),), pc.threshold * factor)
                for ci, pc in enumerate(inst.constraints)]
            name = f"{Path(path).stem}.31pow{i}"
            if emit_dir:
                Path(emit_dir).mkdir(parents=True, exist_ok=True)
                text = instance_to_opb(PbInstance(names, scaled, []))
                (Path(emit_dir) / f"{name}.opb").write_text(text)
            yield name, scaled


def _bench_problems(instances) -> list:
    """(stem:ci, coefficients) for each constraint of each (stem,
    constraints) pair.  Pure cardinality constraints (all coefficients 1)
    carry no base-search content and are dropped from corpora, matching how
    evaluation corpora are prepared."""
    problems = []
    for stem, constraints in instances:
        for ci, pc in enumerate(constraints):
            # unchecked: _bench_one turns a refused multiset into an error row
            elems = tuple(sorted(coef for coef, _ in pc.terms))
            if elems and elems[-1] != 1:
                problems.append((f"{stem}:{ci}", elems))
    return problems


def _config_cells(cfg: SearchConfig) -> dict:
    """The CSV cells that name a bench configuration."""
    return {"algo": cfg.algorithm, "cost": cfg.kind.value,
            "max_elem": cfg.max_elem, "primes": int(cfg.primes_only)}


def _bench_one(name, elems, cfg):
    """One (problem, config) cell; returns a CSV row."""
    row = {
        "row_type": "result", "problem": name, "n": len(elems),
        "max_coeff": max(elems), "cluster": cluster_key(max(elems)),
        **_config_cells(cfg),
    }
    try:
        res = find_base(Multiset.of(elems), cfg)
        row.update(status="timeout" if res.timed_out else "ok", best_cost=res.best_cost,
                   base=" ".join(map(str, res.best_base)), nodes_expanded=res.nodes_expanded,
                   nodes_pruned=res.nodes_pruned, time_s=round(res.elapsed, 6))
    except Exception as e:  # keep going past per-problem failures
        # the writer's restval blanks the result cells
        row.update(status="error", error=str(e)[:120])
    return row


_CSV_FIELDS = ["row_type", "problem", "n", "max_coeff", "cluster", "algo",
               "cost", "max_elem", "primes", "status", "best_cost", "base",
               "nodes_expanded", "nodes_pruned", "time_s", "count", "error"]


def cmd_bench(args) -> int:
    if args.amplify_31 and args.gen is not None:
        raise UsageError("--amplify-31 scales --opb-dir instances, not --gen")
    if args.emit_opb is not None and not args.amplify_31:
        raise UsageError("--emit-opb writes only --amplify-31 instances")
    if args.gen is not None:
        problems = _gen_multisets(args.gen, args.seed, args.gen_max, args.gen_size)
    else:
        if not Path(args.opb_dir).is_dir():
            raise ToolError(f"--opb-dir {args.opb_dir}: not a directory")
        paths = sorted(Path(args.opb_dir).glob("*.opb"))
        if args.amplify_31:
            instances = _amplified_instances(paths, args.emit_opb)
        else:
            instances = ((path.stem, load_instance(path.read_text()).constraints)
                         for path in paths)
        problems = _bench_problems(instances)

    primes = None if args.primes == "auto" else args.primes == "on"
    configs = []
    for algo in args.algos.split(","):
        for cost in args.costs.split(","):
            try:
                kind = CostKind(cost)
            except ValueError:
                raise UsageError(f"unknown cost {cost!r}") from None
            for max_elem in (int(t) for t in args.max_elems.split(",")):
                configs.append(SearchConfig(kind=kind, max_elem=max_elem, primes_only=primes,
                                            algorithm=algo, timeout=args.timeout))

    # config-major: config i owns rows[i * n:(i + 1) * n]
    rows = [_bench_one(name, elems, cfg) for cfg in configs for name, elems in problems]

    # cluster-averaged aggregates per configuration, in config order
    n = len(problems)
    for i, cfg in enumerate(configs):
        mine = rows[i * n:(i + 1) * n]
        for cluster in sorted({r["cluster"] for r in mine}):
            tr = [r for r in mine if r["cluster"] == cluster]
            timed = [r["time_s"] for r in tr if r["status"] == "ok"]
            rows.append({
                "row_type": "aggregate", "cluster": cluster,
                **_config_cells(cfg), "count": len(tr),
                "time_s": round(sum(timed) / len(timed), 6) if timed else "",
            })

    with (nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", newline="")) as out:
        writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="optibase",
                     description="Minimum-cost mixed radix bases and "
                                 "sorter-based Pseudo-Boolean CNF encoding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-base", help="search a minimum-cost base")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--set", help="comma-separated multiset, e.g. '16,30,54,60'")
    src.add_argument("--opb", help="OPB file; searches each constraint's multiset")
    _search_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_find_base)

    p = sub.add_parser("encode", help="compile an OPB file to DIMACS CNF")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--stats", default=None,
                   help="stats JSON path (default OUTPUT.stats.json)")
    _encode_options(p)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("solve", help="encode and decide an OPB instance")
    p.add_argument("input")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--builtin", action="store_true",
                     help="use the built-in desk-scale solver")
    how.add_argument("--solver", default=None,
                     help="external solver command (DIMACS file argument)")
    _encode_options(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="benchmark base searches over a corpus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--opb-dir", help="directory of .opb files")
    src.add_argument("--gen", type=int, help="generate this many multisets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gen-max", type=int, default=10_000,
                   help="largest element of generated multisets")
    p.add_argument("--gen-size", type=int, default=6,
                   help="largest size of generated multisets")
    p.add_argument("--algos", default=SearchConfig.algorithm)
    p.add_argument("--costs", default="digits")
    p.add_argument("--max-elems", default=str(SearchConfig.max_elem))
    p.add_argument("--primes", choices=["auto", "on", "off"], default="auto")
    p.add_argument("--timeout", type=float, default=SEARCH_TIMEOUT_S,
                   help="per-search timeout (default %(default)g)")
    p.add_argument("--out", default="-", help="CSV path or - for stdout")
    p.add_argument("--amplify-31", action="store_true",
                   help="bench scaled copies with coefficients times 31^i, i=0..5")
    p.add_argument("--emit-opb", default=None,
                   help="directory to write amplified instances to")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OpbParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ToolError, OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
