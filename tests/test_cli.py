import argparse
import csv
import io
import json
import os
import stat
import subprocess
import sys
import tempfile

import pytest

from optibase import CostKind, encoder
from optibase.cli import build_parser, cluster_key, main
from optibase.search import ALGORITHMS, find_base

PSI_OPB = "+2 x1 +2 x2 +2 x3 +2 x4 +5 x5 +18 x6 >= 23 ;\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_find_base_motivating_example(capsys):
    code, out, _ = run(capsys, "find-base", "--set", "16,30,54,60",
                       "--cost", "digits", "--algo", "hashbnb",
                       "--max-elem", "60")
    assert code == 0
    assert "cost: 9 (digits)" in out


def test_find_base_comparator_cost_brute(capsys):
    code, out, _ = run(capsys, "find-base", "--set", "1,3,4,8,18,18",
                       "--cost", "comp", "--algo", "brute", "--max-elem", "18")
    assert code == 0
    assert "cost: 10 (comp)" in out


def test_find_base_singleton_empty_base(capsys):
    code, out, _ = run(capsys, "find-base", "--set", "1")
    assert code == 0
    assert "base: (empty)" in out


def test_find_base_json(capsys):
    code, out, _ = run(capsys, "find-base", "--set", "16,30,54,60",
                       "--max-elem", "60", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == 9
    assert payload["optimal_guaranteed"] is True


def test_find_base_usage_errors(capsys):
    assert run(capsys, "find-base", "--set", "")[0] == 1
    assert run(capsys, "find-base", "--set", "0,3")[0] == 1
    assert run(capsys, "find-base", "--set", "3", "--algo", "nope")[0] == 1
    assert run(capsys, "find-base")[0] == 1


def test_find_base_from_opb(capsys, tmp_path):
    path = tmp_path / "a.opb"
    path.write_text(PSI_OPB + "+16 x7 +30 x8 +54 x9 +60 x10 >= 87 ;\n")
    code, out, _ = run(capsys, "find-base", "--opb", str(path),
                       "--cost", "carry", "--max-elem", "60", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[0]["label"] == "constraint 0"


def test_find_base_output_shape_follows_the_source(capsys, tmp_path):
    # --opb gives a list and prefixed lines however many constraints it holds
    path = tmp_path / "a.opb"
    path.write_text(PSI_OPB)
    code, out, _ = run(capsys, "find-base", "--opb", str(path), "--json")
    assert code == 0
    assert [p["label"] for p in json.loads(out)] == ["constraint 0"]
    code, out, _ = run(capsys, "find-base", "--opb", str(path))
    assert code == 0 and out.startswith("constraint 0: base: ")


@pytest.mark.parametrize("text", ["* only a comment\n", "+1 x1 >= 0 ;\n"],
                         ids=["comments-only", "normalized-away"])
def test_find_base_opb_without_terms(capsys, tmp_path, text):
    # no constraint keeps a term after normalizing: nothing to search
    path = tmp_path / "empty.opb"
    path.write_text(text)
    code, out, err = run(capsys, "find-base", "--opb", str(path), "--json")
    assert (code, json.loads(out), err) == (0, [], "")
    code, out, err = run(capsys, "find-base", "--opb", str(path))
    assert (code, out, err) == (0, "", "")


def test_encode_running_example_stats(capsys, tmp_path):
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    out_cnf = tmp_path / "psi.cnf"
    code, _, _ = run(capsys, "encode", str(src), "-o", str(out_cnf),
                     "--base", "2,3,3")
    assert code == 0
    stats = json.loads((tmp_path / "psi.cnf.stats.json").read_text())
    assert stats["constraints"][0]["network_sizes"] == [1, 6, 2, 1]
    assert stats["constraints"][0]["base"] == [2, 3, 3]
    text = out_cnf.read_text()
    assert "p cnf" in text and "c var 1 = x1" in text


def test_encode_deterministic_bytes(capsys, tmp_path):
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    blobs = []
    for name in ("a.cnf", "b.cnf"):
        out_cnf = tmp_path / name
        assert run(capsys, "encode", str(src), "-o", str(out_cnf),
                   "--cost", "carry", "--max-elem", "18")[0] == 0
        blobs.append(out_cnf.read_bytes())
        blobs.append((tmp_path / f"{name}.stats.json").read_bytes())
    assert blobs[0] == blobs[2] and blobs[1] == blobs[3]


def test_encode_statically_unsat_exit_code(capsys, tmp_path):
    src = tmp_path / "bad.opb"
    src.write_text("+1 x1 +1 x2 >= 5 ;\n")
    out_cnf = tmp_path / "bad.cnf"
    code, _, _ = run(capsys, "encode", str(src), "-o", str(out_cnf))
    assert code == 10
    assert "0" in out_cnf.read_text().splitlines()[-1]


def test_encode_statically_unsat_sum_past_int64(capsys, tmp_path):
    # unreachable threshold: no multiset is built, so a coefficient sum
    # past int64 still gets the statically-unsat entry, even with --base
    src = tmp_path / "big.opb"
    src.write_text(f"+{2**62} x1 +{2**62} x2 >= {2**64 + 1} ;\n")
    out_cnf = tmp_path / "big.cnf"
    code, _, _ = run(capsys, "encode", str(src), "-o", str(out_cnf),
                     "--base", "2,3")
    assert code == 10
    stats = json.loads((tmp_path / "big.cnf.stats.json").read_text())
    assert stats["constraints"] == [dict(
        index=0, base=[], cost_kind="digits", cost_value=None, clauses=1,
        vars=0, comparators=0, network_sizes=[], statically_unsat=True,
        fallback_binary=False, network_of=None)]
    assert stats["totals"]["statically_unsat"] is True
    assert out_cnf.read_text().splitlines()[-1] == "0"


def test_encode_refuses_coefficient_sum_past_int64(capsys, tmp_path):
    # a coefficient sum past int64 is refused before any base is costed
    # or any unary bus is built
    src = tmp_path / "big.opb"
    src.write_text(f"+{2**62} x1 +{2**62} x2 +{2**62 - 1} x3 >= 1 ;\n")
    code, _, err = run(capsys, "encode", str(src), "-o",
                       str(tmp_path / "big.cnf"))
    assert code == 1 and "error:" in err


def test_find_base_comp_refuses_sum_past_int64_bound(capsys):
    code, _, err = run(capsys, "find-base", "--set",
                       f"{2**61},{2**61 - 12345},{3**38}", "--cost", "comp")
    assert code == 1 and "error:" in err


def test_encode_rejects_radix_past_2_62(tmp_path):
    # a radix past 2**62 is refused up front; the subprocess timeout turns
    # a normalizer walking 2**64 remainder lines into a failure, not a hang
    src = tmp_path / "t.opb"
    src.write_text("+6 x1 +10 x2 >= 7 ;\n")
    proc = subprocess.run(
        [sys.executable, "-m", "optibase.cli", "encode", str(src),
         "-o", str(tmp_path / "t.cnf"), "--base", str(2**64)],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_encode_refuses_oversized_forced_base_buses(tmp_path):
    # base 2,3 leaves digits near 3.6e8 on each of these coefficients; the
    # buses are refused before any is built.  The 1 GiB address-space cap
    # turns an attempt to build them into a MemoryError, not a host OOM.
    src = tmp_path / "t.opb"
    src.write_text("+2147483000 x1 +2147483001 x2 >= 5 ;\n")
    proc = subprocess.run(
        [sys.executable, "-m", "optibase.cli", "encode", str(src),
         "-o", str(tmp_path / "t.cnf"), "--base", "2,3"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "unary digit inputs" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cost", ["carry", "digits"])
def test_find_base_reports_a_radix_array_too_large(cost):
    # 10^12 candidate radices (or a sieve to 10^12) cannot be allocated
    # under the 1 GiB address-space cap: an error line, not a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "optibase.cli", "find-base",
         "--set", "1000000000000,3", "--max-elem", "1000000000000",
         "--cost", cost],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_find_base_opb_radix_array_too_large_goes_on(tmp_path):
    # constraint 0's radix array up to 10^12 cannot be allocated under the
    # 1 GiB cap; it gets an error entry and constraint 1 is still searched
    path = tmp_path / "a.opb"
    path.write_text("+1000000000000 x1 +3 x2 >= 5 ;\n" + PSI_OPB)
    proc = subprocess.run(
        [sys.executable, "-m", "optibase.cli", "find-base", "--opb",
         str(path), "--json", "--max-elem", "1000000000000", "--cost",
         "carry"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: constraint 0: ")
    payload = json.loads(proc.stdout)
    assert payload[0]["label"] == "constraint 0" and "error" in payload[0]
    assert payload[1]["label"] == "constraint 1" and payload[1]["cost"] == 8


def test_encode_large_radix_counts(capsys, tmp_path):
    src = tmp_path / "t.opb"
    src.write_text("+6 x1 +10 x2 >= 7 ;\n")
    out_cnf = tmp_path / "t.cnf"
    code, _, _ = run(capsys, "encode", str(src), "-o", str(out_cnf),
                     "--base", "2,1000003")
    assert code == 0
    totals = json.loads((tmp_path / "t.cnf.stats.json").read_text())["totals"]
    # the counts follow the buses, not the radix: the comparison reads one
    # line of the one nonempty network, x1 three times and x2 five times
    # (30 vars and 85 clauses with every line of the network built)
    assert (totals["vars"], totals["clauses"]) == (19, 52)
    assert "p cnf 19 52" in out_cnf.read_text().splitlines()


def test_encode_parse_error_exit_code(capsys, tmp_path):
    src = tmp_path / "broken.opb"
    src.write_text("+2 x1 >= ;\n")
    code, _, err = run(capsys, "encode", str(src), "-o", str(tmp_path / "x.cnf"))
    assert code == 2
    assert "parse error" in err


def test_encode_non_ascii_digit_is_parse_error(capsys, tmp_path):
    # str.isdigit() accepts a superscript two that int() then rejects
    src = tmp_path / "superscript.opb"
    src.write_text("+\u00b2 x1 >= 1 ;\n")
    code, _, err = run(capsys, "encode", str(src), "-o", str(tmp_path / "x.cnf"))
    assert code == 2
    assert err.startswith("parse error: line 1, column 1: ")


def test_encode_missing_file_is_tool_error(capsys, tmp_path):
    code, _, err = run(capsys, "encode", str(tmp_path / "nope.opb"),
                       "-o", str(tmp_path / "x.cnf"))
    assert code == 1


def test_solve_builtin_sat_and_verified(capsys, tmp_path):
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    code, out, _ = run(capsys, "solve", str(src), "--builtin",
                       "--base", "2,3,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    model = dict(tok.split("=") for tok in lines[1].split())
    value = sum(c for c, n in zip([2, 2, 2, 2, 5, 18],
                                  ["x1", "x2", "x3", "x4", "x5", "x6"])
                if model[n] == "1")
    assert value >= 23


def test_solve_builtin_unsat(capsys, tmp_path):
    src = tmp_path / "u.opb"
    src.write_text("+1 x1 >= 1 ;\n+1 ~x1 >= 1 ;\n")
    code, out, _ = run(capsys, "solve", str(src), "--builtin")
    assert code == 0 and out.strip() == "UNSAT"


def test_solve_statically_unsat_skips_solver(capsys, tmp_path):
    src = tmp_path / "s.opb"
    src.write_text("+1 x1 >= 9 ;\n")
    # a solver path that does not exist proves the solver is never invoked
    code, out, _ = run(capsys, "solve", str(src), "--solver",
                       str(tmp_path / "missing-solver"))
    assert code == 0 and out.strip() == "UNSAT"


STUB_SOLVER = """#!{python}
import sys
sys.path[:0] = {path!r}
from optibase.satcheck import Solver
clauses, nv = [], 0
for line in open(sys.argv[1]):
    if line.startswith("c"):
        continue
    if line.startswith("p"):
        nv = int(line.split()[2])
        continue
    lits = [int(t) for t in line.split()]
    clauses.append(lits[:-1])
model = Solver(clauses, nv).solve()
if model is None:
    print("s UNSATISFIABLE")
    sys.exit(20)
print("s SATISFIABLE")
print("v " + " ".join(str(v if model[v] else -v) for v in sorted(model)) + " 0")
sys.exit(10)
"""


@pytest.fixture
def stub_solver(tmp_path):
    script = tmp_path / "stub-solver"
    script.write_text(STUB_SOLVER.format(python=sys.executable, path=sys.path))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_solve_external_solver(capsys, tmp_path, stub_solver):
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    code, out, _ = run(capsys, "solve", str(src), "--solver", stub_solver,
                       "--base", "2,3,3")
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_solve_external_solver_garbage_output(capsys, tmp_path):
    script = tmp_path / "garbage"
    script.write_text(f"#!{sys.executable}\nprint('whatever')\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    code, _, err = run(capsys, "solve", str(src), "--solver", str(script),
                       "--base", "2,3,3")
    assert code == 1 and "error" in err


def _script(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(f"#!{sys.executable}\n{body}")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_solve_external_solver_leaves_no_temp_file(capsys, tmp_path,
                                                   stub_solver, monkeypatch):
    tmp_dir = tmp_path / "tmp"
    tmp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_dir))
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    solvers = [
        (stub_solver, 0),
        (_script(tmp_path, "garbage", "print('whatever')\n"), 1),
        (_script(tmp_path, "crash", "import sys\nsys.exit(3)\n"), 1),
        (str(tmp_path / "missing-solver"), 1),
    ]
    for solver, want in solvers:
        code, _, _ = run(capsys, "solve", str(src), "--solver", solver,
                         "--base", "2,3,3")
        assert code == want, solver
        assert list(tmp_dir.iterdir()) == [], solver


# OPB text -> the verdict of solve; the last two are UNSAT without an
# empty clause, and the last one changes when coefficients saturate
KNOB_CASES = {
    PSI_OPB: "SAT",
    "+3 x1 +5 x2 +7 x3 = 8 ;\n": "SAT",
    "+3 x1 +5 x2 +7 x3 >= 8 ;\n+3 ~x1 +5 ~x2 +7 ~x3 >= 8 ;\n": "UNSAT",
    "+9 x1 +2 x2 >= 3 ;\n+9 ~x1 +2 ~x2 >= 3 ;\n": "UNSAT",
}


def _encode_totals(capsys, tmp_path, text, *flags):
    src = tmp_path / "k.opb"
    src.write_text(text)
    out_cnf = tmp_path / "k.cnf"
    code, _, _ = run(capsys, "encode", str(src), "-o", str(out_cnf), *flags)
    assert code == 0
    stats = json.loads((tmp_path / "k.cnf.stats.json").read_text())
    return stats, out_cnf.read_text()


def _verdict(capsys, tmp_path, text, *flags):
    src = tmp_path / "k.opb"
    src.write_text(text)
    code, out, _ = run(capsys, "solve", str(src), "--builtin", *flags)
    assert code == 0
    return out.splitlines()[0]


def test_encode_fallback_binary_flag(capsys, tmp_path, monkeypatch):
    results = []

    def recording_find_base(s, cfg):
        results.append(find_base(s, cfg))
        return results[-1]

    monkeypatch.setattr(encoder, "find_base", recording_find_base)
    for flag, fellback in (("--fallback-binary", True),
                           ("--no-fallback-binary", False)):
        results.clear()
        stats, _ = _encode_totals(capsys, tmp_path, PSI_OPB, "--cost", "carry",
                                  "--timeout", "1e-9", flag)
        st = stats["constraints"][0]
        assert len(results) == 1 and results[0].timed_out
        assert st["fallback_binary"] is fellback
        want = (2, 2, 2, 2) if fellback else results[0].best_base
        assert st["base"] == list(want)


def test_polarity_monotone_fewer_clauses_same_verdicts(capsys, tmp_path):
    with_comparators = with_rebuilt = 0
    for text, verdict in KNOB_CASES.items():
        totals, per = {}, {}
        for polarity in ("full", "monotone"):
            stats, _ = _encode_totals(capsys, tmp_path, text,
                                      "--polarity", polarity)
            totals[polarity] = stats["totals"]
            per[polarity] = stats["constraints"]
            assert _verdict(capsys, tmp_path, text,
                            "--polarity", polarity) == verdict
        full, monotone = totals["full"], totals["monotone"]
        # a complemented term vector reads its owner's network negated under
        # full polarity; under monotone it builds a network of its own
        rebuilt = sum(per["full"][f["network_of"]]["comparators"]
                      for f, m in zip(per["full"], per["monotone"])
                      if f["network_of"] is not None and m["network_of"] is None)
        assert monotone["comparators"] == full["comparators"] + rebuilt
        # monotone drops three of each comparator's six clauses; where it
        # builds more networks, compare the networks both polarities build
        if full["comparators"]:
            with_comparators += 1
        if rebuilt:
            with_rebuilt += 1
            for f, m in zip(per["full"], per["monotone"]):
                if f["network_of"] is None and f["comparators"]:
                    assert m["clauses"] < f["clauses"], text
        elif full["comparators"]:
            assert monotone["clauses"] < full["clauses"], text
        else:
            assert monotone["clauses"] == full["clauses"], text
    assert with_comparators >= 3 and with_rebuilt >= 2


# Under monotone polarity the asserted output unit clause must propagate
# before any branching: a DPLL that only met it at a conflict branched on
# auxiliary variables and gave up here after 20,000,000 propagation steps.
MONOTONE_OPB = """\
+47 x1 +51 x9 +2 x3 +62 ~x5 +67 x11 +59 x6 >= 234 ;
+33 x10 +88 x11 +11 x12 +60 x1 +60 x6 +45 ~x7 >= 22 ;
+14 x9 +50 x8 +83 x10 >= 40 ;
+22 x3 +69 ~x1 +33 x2 +3 ~x7 +6 x10 >= 40 ;
"""


def test_builtin_solver_decides_monotone_like_full(capsys, tmp_path):
    src = tmp_path / "m.opb"
    src.write_text(MONOTONE_OPB)
    outputs = []
    for polarity in ("full", "monotone"):
        code, out, err = run(capsys, "solve", str(src), "--builtin", "--cost",
                             "carry", "--max-elem", "100", "--polarity", polarity)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("SAT\n")


def test_saturate_same_verdict(capsys, tmp_path):
    changed = 0
    for text, verdict in KNOB_CASES.items():
        assert _verdict(capsys, tmp_path, text) == verdict
        assert _verdict(capsys, tmp_path, text, "--saturate") == verdict
        _, plain = _encode_totals(capsys, tmp_path, text)
        _, saturated = _encode_totals(capsys, tmp_path, text, "--saturate")
        changed += plain != saturated
    assert changed >= 1


def test_shared_base_flag_is_gone(capsys, tmp_path):
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    code, _, err = run(capsys, "encode", str(src), "-o",
                       str(tmp_path / "psi.cnf"), "--shared-base")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "solve", str(src), "--builtin", "--shared-base")
    assert code == 1 and "usage error" in err


def test_cluster_key():
    assert cluster_key(60) == 7
    assert cluster_key(1) == 0


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_bench_generated_matrix(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(capsys, "bench", "--gen", "10", "--seed", "7",
                     "--gen-max", "60", "--algos", "dfs,hashbnb",
                     "--costs", "digits", "--max-elems", "60",
                     "--out", str(out_csv))
    assert code == 0
    rows = _read_csv(out_csv.read_text())
    results = [r for r in rows if r["row_type"] == "result"]
    aggregates = [r for r in rows if r["row_type"] == "aggregate"]
    assert len(results) == 20
    assert len(aggregates) == 2
    assert all(r["cluster"] == "7" for r in rows)  # every multiset tops at 60
    assert all(r["status"] == "ok" for r in results)
    # both algorithms found the same optimum per problem
    by_problem = {}
    for r in results:
        by_problem.setdefault(r["problem"], set()).add(r["best_cost"])
    assert all(len(v) == 1 for v in by_problem.values())
    assert all(a["count"] == "10" for a in aggregates)


def test_bench_seed_determinism_modulo_times(capsys, tmp_path):
    texts = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert run(capsys, "bench", "--gen", "6", "--seed", "3",
                   "--gen-max", "40", "--out", str(path))[0] == 0
        texts.append(path.read_text())

    def strip_times(text):
        rows = _read_csv(text)
        for r in rows:
            r.pop("time_s", None)
        return rows

    assert strip_times(texts[0]) == strip_times(texts[1])


def test_bench_empty_dir(capsys, tmp_path):
    empty = tmp_path / "corpus"
    empty.mkdir()
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(capsys, "bench", "--opb-dir", str(empty),
                     "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("row_type,")


@pytest.mark.parametrize("kind", ["missing", "plain-file"])
def test_bench_opb_dir_must_be_a_directory(capsys, tmp_path, kind):
    corpus = tmp_path / "corpus"
    if kind == "plain-file":
        corpus.write_text(PSI_OPB)
    out_csv = tmp_path / "r.csv"
    code, out, err = run(capsys, "bench", "--opb-dir", str(corpus),
                         "--out", str(out_csv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(corpus) in err
    assert not out_csv.exists()


def test_bench_config_errors_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "--gen", "2", "--costs", "digits,foo",
                       "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert err.strip() == "usage error: unknown cost 'foo'"
    # configs are checked before any problem is searched, so an empty
    # corpus does not hide a bad value
    empty = tmp_path / "corpus"
    empty.mkdir()
    for flags in (["--costs", "foo"], ["--algos", "nope"],
                  ["--max-elems", "1"], ["--max-elems", "x"]):
        code, _, err = run(capsys, "bench", "--opb-dir", str(empty), *flags,
                           "--out", str(tmp_path / "r.csv"))
        assert code == 1 and "error:" in err, flags


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_timeout_is_an_error(capsys, tmp_path, value):
    # a NaN timeout would never expire (every comparison with NaN is
    # false), and a negative one would stop the search before it expands
    src = tmp_path / "psi.opb"
    src.write_text(PSI_OPB)
    out_cnf = tmp_path / "psi.cnf"
    for argv in (["find-base", "--set", "100,200"],
                 ["encode", str(src), "-o", str(out_cnf)],
                 ["bench", "--gen", "2", "--out", str(tmp_path / "r.csv")]):
        code, out, err = run(capsys, *argv, "--timeout", value)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and "timeout" in err, argv
    assert not out_cnf.exists()


def test_bench_primes_auto_follows_the_cost(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(capsys, "bench", "--gen", "2", "--gen-max", "30",
                     "--costs", "carry,digits", "--primes", "auto",
                     "--out", str(out_csv))
    assert code == 0
    cells = {(r["cost"], r["primes"]) for r in _read_csv(out_csv.read_text())}
    assert cells == {("carry", "0"), ("digits", "1")}


def test_cost_and_algo_names_come_from_the_library(capsys, tmp_path):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("find-base", "encode", "solve"):
        opts = {a.dest: a for a in sub.choices[command]._actions}
        assert sorted(opts["cost"].choices) == sorted(k.value for k in CostKind)
        assert opts["algo"].choices == list(ALGORITHMS)
    code, _, err = run(capsys, "bench", "--gen", "2", "--costs", "foo",
                       "--out", str(tmp_path / "r.csv"))
    assert code == 1 and err == "usage error: unknown cost 'foo'\n"


def test_bench_opb_dir_and_amplify(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "one.opb").write_text("+6 x1 +10 x2 >= 7 ;\n")
    emit = tmp_path / "amplified"
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(capsys, "bench", "--opb-dir", str(corpus),
                     "--amplify-31", "--emit-opb", str(emit),
                     "--costs", "carry", "--max-elems", "100",
                     "--out", str(out_csv))
    assert code == 0
    written = sorted(p.name for p in emit.glob("*.opb"))
    assert written == [f"one.31pow{i}.opb" for i in range(6)]
    # scaling by 31^i survives normalization thanks to the slack term
    text = (emit / "one.31pow2.opb").read_text()
    assert "+5766 x1" in text and "+9610 x2" in text and "+1 x3" in text
    rows = _read_csv(out_csv.read_text())
    results = [r for r in rows if r["row_type"] == "result"]
    assert len(results) == 6
    maxes = sorted(int(r["max_coeff"]) for r in results)
    assert maxes == [10 * 31**i for i in range(6)]


def test_bench_emit_opb_without_amplify_is_a_usage_error(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "one.opb").write_text("+6 x1 +10 x2 >= 7 ;\n")
    emit, out_csv = tmp_path / "amplified", tmp_path / "r.csv"
    code, out, err = run(capsys, "bench", "--opb-dir", str(corpus),
                         "--emit-opb", str(emit), "--out", str(out_csv))
    assert (code, out) == (1, "")
    assert err == "usage error: --emit-opb writes only --amplify-31 instances\n"
    assert not emit.exists() and not out_csv.exists()


def test_bench_gen_with_amplify_is_a_usage_error(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    code, out, err = run(capsys, "bench", "--gen", "2", "--amplify-31",
                         "--out", str(out_csv))
    assert (code, out) == (1, "")
    assert err == ("usage error: --amplify-31 scales --opb-dir instances, "
                   "not --gen\n")
    assert not out_csv.exists()


OVERSIZED_OPB = f"+{2**62} x1 +{2**62} x2 >= {2**64 + 1} ;\n"


def test_bench_oversized_constraint_is_an_error_row(capsys, tmp_path):
    # coefficients summing to 2**63 refuse one problem, not the run; under
    # --amplify-31 the scaled copies past 2**62 refuse theirs
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "big.opb").write_text(OVERSIZED_OPB)
    (corpus / "one.opb").write_text("+6 x1 +10 x2 >= 7 ;\n")
    out_csv = tmp_path / "r.csv"
    code, _, err = run(capsys, "bench", "--opb-dir", str(corpus),
                       "--costs", "carry", "--max-elems", "100",
                       "--out", str(out_csv))
    assert (code, err) == (0, "")
    results = {r["problem"]: r for r in _read_csv(out_csv.read_text())
               if r["row_type"] == "result"}
    assert results["big:0"]["status"] == "error"
    assert "2**63" in results["big:0"]["error"]
    assert results["big:0"]["max_coeff"] == str(2**62)
    assert results["one:0"]["status"] == "ok"

    (corpus / "big.opb").write_text(f"+{2**40} x1 +7 x2 >= 9 ;\n")
    code, _, _ = run(capsys, "bench", "--opb-dir", str(corpus),
                     "--amplify-31", "--costs", "carry", "--max-elems", "100",
                     "--out", str(out_csv))
    assert code == 0
    status = {r["problem"]: r["status"] for r in _read_csv(out_csv.read_text())
              if r["row_type"] == "result"}
    assert len(status) == 12
    assert status["big.31pow5:0"] == "error"  # 2**40 * 31**5 > 2**62
    assert all(status[f"one.31pow{i}:0"] == "ok" for i in range(6))


def test_find_base_opb_oversized_constraint_goes_on(capsys, tmp_path):
    path = tmp_path / "a.opb"
    path.write_text(OVERSIZED_OPB + PSI_OPB)
    code, out, err = run(capsys, "find-base", "--opb", str(path), "--json")
    payload = json.loads(out)
    assert code == 1 and "error: constraint 0:" in err
    assert payload[0]["label"] == "constraint 0" and "2**63" in payload[0]["error"]
    assert payload[1]["label"] == "constraint 1" and payload[1]["cost"] == 8
    code, out, err = run(capsys, "find-base", "--opb", str(path))
    assert code == 1 and "error: constraint 0:" in err
    assert "constraint 1: cost: 8 (digits)" in out


@pytest.mark.parametrize("argv,message", [
    (["--set", "1000000000000,3", "--algo", "brute"],
     "brute-force search is limited to multisets with max <= 10000"),
    (["--set", f"{2**61},{2**61 - 12345},{3**38}", "--cost", "comp"],
     "the comp cost is limited to multisets with sum < 2**51"),
], ids=["brute", "comp"])
def test_search_refusals_come_before_the_radix_array(argv, message):
    # a radix array up to 10^12 cannot be allocated under the 1 GiB cap;
    # each search's own refusal comes first
    proc = subprocess.run(
        [sys.executable, "-m", "optibase.cli", "find-base", *argv,
         "--max-elem", "1000000000000"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
