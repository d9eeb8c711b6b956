"""One workload in its own process: set up, then time operations in a
closed loop with a single client until the run ends.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --spawned-at T --workdir DIR

Every mode first sets up and then times one calibration step.
``setup`` stops there and reports both times.  ``run`` times operations
with tracing off, each right after a calibration step (run.py scales
every time by the calibration time next to it), and pauses at even
steps of the measuring time to time the set-up of a fresh ``setup``
process, so that the set-up samples spread over the whole run.
``trace`` alternates passes
over the fixed items without and with spans, for the per-layer split and
the tracing overhead.  The last stdout line is a JSON record.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import numpy  # noqa: E402

import optibase  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
SETUP_LIMIT_S = 60.0


class Loop:
    """Runs items in order, checks each outcome, and keeps per-operation
    times, failures and the outcomes of the fixed items."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fixed: list = []

    def one(self, index: int) -> None:
        item = self.w.items[index % len(self.w.items)]
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                raw = self.w.run(item)
            else:
                raw = self.tracer.operation(index, self.w.layer_span, self.w.run, item)
        except Exception:
            self.times.append(time.perf_counter() - t0)
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"item {index}: {traceback.format_exc(limit=3)}")
            return
        self.times.append(time.perf_counter() - t0)
        out = self.w.check(item, raw)
        self.attempted += out.attempted
        if out.problems:
            # verdicts fail one by one; a search or an encode fails whole
            self.failed += min(out.attempted, len(out.problems))
            self.problems += [f"item {index}: {p}" for p in out.problems[:3]]
        if index < self.w.fixed:
            self.fixed.append(out)

    def counts(self) -> tuple[dict, list]:
        """Counts and fingerprint of the fixed items."""
        base_cost = clauses = num_vars = 0
        prints = []
        for out in self.fixed:
            base_cost += out.base_cost
            clauses += out.clauses
            num_vars += out.num_vars
            prints.append(out.fingerprint)
        return ({"base_cost_sum": base_cost, "cnf_clauses": clauses,
                 "cnf_vars": num_vars}, prints)


def _calibration_step() -> float:
    """Wall time of a fixed piece of pure-Python work of the kind the
    package does (dicts, small lists, sorting), independent of optibase.
    Its working set of about 2 MB makes it slow down with the machine as
    the workloads do; a pure arithmetic loop did not."""
    t0 = time.perf_counter()
    d = {}
    for i in range(20_000):
        d[i * 7919 % 10_007] = [i, i >> 1]
    sorted(d.items(), key=lambda kv: kv[1][1])
    return time.perf_counter() - t0


def calibrate() -> float:
    return min(_calibration_step(), _calibration_step())


def _setup_sample(args, k: int) -> dict:
    """Set-up time of a fresh ``setup`` process for the same workload and
    seed; this process waits for it, so only one process runs at a time."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--mode", "setup", "--workdir", f"{args.workdir}-setup{k}"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], capture_output=True,
                          text=True, timeout=SETUP_LIMIT_S)
    if proc.returncode != 0:
        raise SystemExit(f"set-up process exited with status {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _trace(w, seconds: float, spans_path: Path) -> tuple[Loop, dict]:
    """Passes over the fixed items in which every item runs twice in a
    row, first untraced and then traced, so that both runs of an item see
    the same machine.  Another pass starts only while it is expected to
    end within ``seconds``.  Per-layer figures are medians over passes."""
    total = Loop(w)
    plain_s, traced_s, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() + plain_s[-1] + traced_s[-1] < deadline:
        plain, traced = Loop(w), Loop(w, Tracer())
        for i in range(w.fixed):
            plain.one(i)
            traced.tracer.install()
            try:
                traced.one(i)
            finally:
                traced.tracer.uninstall()
        for run in (plain, traced):
            total.attempted += run.attempted
            total.failed += run.failed
            total.problems += run.problems
        if [o.fingerprint for o in plain.fixed] != [o.fingerprint for o in traced.fixed]:
            total.failed += 1
            total.problems.append("traced runs gave other outputs than untraced ones")
        plain_s.append(sum(plain.times))
        traced_s.append(sum(traced.times))
        m = layer_metrics(traced.tracer)
        m["trace.ops_s"] = traced.tracer.total[w.layer_span]
        layers.append(m)
        if not total.fixed:
            total.fixed = plain.fixed
            traced.tracer.save(spans_path)
    per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    per_layer["trace.untraced_ops_s"] = statistics.median(plain_s)
    per_layer["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced_s, plain_s))
    per_layer["trace.overhead_share"] = (per_layer["trace.overhead_s"]
                                         / per_layer["trace.untraced_ops_s"])
    per_layer["trace.passes"] = len(layers)
    return total, per_layer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    if not Path(optibase.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"optibase was imported from {optibase.__file__}, "
                         f"not from {SRC}")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed)
        w.prepare(workdir)
        w.warm_up()
        record = {"setup_s": time.monotonic() - args.spawned_at, "setup_cal_s": calibrate()}
        if args.mode == "setup":
            print(json.dumps(record))
            return 0

        if args.mode == "run":
            loop = Loop(w)
            setups: list[dict] = []
            cals: list[float] = []
            step = args.seconds / SETUP_SAMPLES
            measured, i = 0.0, 0
            while i < w.fixed or measured < args.seconds:
                cals.append(calibrate())
                t0 = time.perf_counter()
                loop.one(i)
                measured += time.perf_counter() - t0
                i += 1
                if len(setups) < SETUP_SAMPLES and measured >= step * (len(setups) + 0.5):
                    setups.append(_setup_sample(args, len(setups)))
            while len(setups) < SETUP_SAMPLES:
                setups.append(_setup_sample(args, len(setups)))
            record["times"] = loop.times
            record["setups"] = [x["setup_s"] for x in setups]
            record["setup_cals"] = [x["setup_cal_s"] for x in setups]
            record["cals"] = cals
        else:
            spans = HERE / "results" / f"spans-{args.workload}-s{args.seed}.npz"
            spans.parent.mkdir(exist_ok=True)
            loop, record["per_layer"] = _trace(w, args.seconds, spans)
        counts, prints = loop.counts()
        record.update(counts)
        record.update({
            "attempted": loop.attempted, "failed": loop.failed,
            "problems": loop.problems[:10], "fingerprint": prints,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "python": platform.python_version(), "numpy": numpy.__version__,
        })
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
