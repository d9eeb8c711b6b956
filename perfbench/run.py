"""Benchmark for optibase: base search, CNF emission and verification.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workload runs in a child process
that measures for ``--seconds`` with one client in a closed loop; with
tracing off it also times the set-up of a few fresh processes, spread
over the run, for the set-up time.  With ``--trace 0`` the result holds every
end-to-end metric of BENCHMARK.json, measured with tracing off; with
``--trace 1`` every per-layer metric, from passes with spans around each
module's public functions.

Human-readable lines come first; the last stdout line is the JSON result.
A full record of the run is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("encode-search", "verify-sweep")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
RUN_LIMIT_S = 175.0
# Reported times are at a reference machine speed: each measured time is
# divided by the time of the calibration step (worker.calibrate) taken
# next to it, in the same process, and multiplied by CAL_REF_S.  The
# shared host this was built on changes speed by up to 1.6x from one
# minute to the next; over nine seeds this cut the spread of verify-sweep's
# median operation time from 0.20 to 0.06.  The wall times are printed
# and kept in the run record as well.
CAL_REF_S = 0.005

# Keep numpy's BLAS and OpenMP pools at one thread in the workload process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

OP_NAMES = {"encode-search": "encode", "verify-sweep": "verify"}


class BenchError(Exception):
    pass


def _child(args, mode: str, time_left: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    workdir = HERE / "work" / f"{args.workload}-s{args.seed}-{mode}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir)]
    spawned = time.monotonic()
    # its own process group, so that a timeout also stops its set-up processes
    with subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=time_left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} process ran past the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with status {proc.returncode}:\n"
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    has at least ten samples beyond it, taken as the (n-10)-th smallest.
    Below 21 samples that would not lie above the median, so the maximum
    stands in."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _baseline_print(workload: str) -> str | None:
    path = HERE / "baseline" / "BASELINE.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("fingerprints", {}).get(workload)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "optibase" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not an optibase checkout "
              f"(needs src/optibase/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    broken = checks.self_test()
    if broken:
        print("error: output checkers fail their self-test: " + "; ".join(broken),
              file=sys.stderr)
        return 1

    try:
        rec = _child(args, "trace" if args.trace else "run",
                     RUN_LIMIT_S - (time.monotonic() - started))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups = [rec["setup_s"]] + rec.get("setups", [])
    setup_cals = [rec["setup_cal_s"]] + rec.get("setup_cals", [])

    fingerprint = hashlib.sha256(json.dumps(rec["fingerprint"]).encode()).hexdigest()
    known = _baseline_print(args.workload)
    op = OP_NAMES[args.workload]
    print(f"perfbench {args.workload} seed={args.seed}"
          f"{' (default seed)' if args.seed == DEFAULT_SEED else ''}"
          f"{' (held-out seed)' if args.seed == HELD_OUT_SEED else ''}"
          f" trace={args.trace} seconds={args.seconds:g}")
    print(f"machine: nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
          f"python={rec['python']} numpy={rec['numpy']} {platform.platform()}")
    print("note: no machine-wide tracing or hardware counters are used; peak RSS is "
          "getrusage of the workload process")
    print("note: one client in a closed loop, no concurrency, so no layer waits and "
          "no wait time is reported")

    values: dict[str, float] = {}
    if args.trace:
        values.update(rec["per_layer"])
        names = spec["per_layer"]
    else:
        times, cals = rec["times"], rec["cals"]
        scaled = [t / c * CAL_REF_S for t, c in zip(times, cals)]
        setup_scaled = [t / c * CAL_REF_S for t, c in zip(setups, setup_cals)]
        t_val, t_pct, beyond = tail(scaled)
        values.update({
            "setup_s": statistics.median(setup_scaled),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": t_val,
            "peak_rss_mb": rec["peak_rss_mb"],
            "base_cost_sum": rec["base_cost_sum"],
            "cnf_clauses": rec["cnf_clauses"],
            "cnf_vars": rec["cnf_vars"],
        })
        names = spec["end_to_end"]
        print(f"times at reference speed: the calibration step took a median "
              f"{statistics.median(cals) * 1e3:.2f} ms here, {CAL_REF_S * 1e3:g} ms at reference")
        print(f"{op}_p50_s = op_p50_s: median of {len(times)} operations "
              f"(wall time {statistics.median(times):.4f} s)")
        print(f"{op}_tail_s = op_tail_s: " + (
            f"p{t_pct:.1f} of {len(times)} operations, {beyond} samples beyond it"
            if beyond else f"the maximum: {len(times)} operations leave none beyond")
            + f" (wall time {tail(times)[0]:.4f} s)")
        print(f"setup_s: median of {len(setups)} set-ups (wall times "
              f"[{', '.join(f'{s:.3f}' for s in setups)}] s)")

    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    fail_frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"fail_frac: {fail_frac:.6g} ({rec['failed']} failed of {rec['attempted']} "
          f"attempted searches, instance encodes or verdicts)")
    for p in rec["problems"]:
        print(f"  failure: {p}")
    status = ("no baseline" if known is None else
              "matches the baseline" if known == fingerprint else "DIFFERS from the baseline")
    print(f"fingerprint: {fingerprint} ({status})")

    result = {"correct": rec["failed"] == 0 and rec["attempted"] > 0,
              "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, default_seed=args.seed == DEFAULT_SEED,
                  nproc=os.cpu_count(), python=rec["python"], numpy=rec["numpy"],
                  platform=platform.platform(), setups=setups,
                  fingerprint_sha256=fingerprint, fingerprint=rec["fingerprint"],
                  problems=rec["problems"], times=rec.get("times"), cals=rec.get("cals"),
                  setup_cals=setup_cals)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
