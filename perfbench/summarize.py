"""Summarize the run records in perfbench/results/ per workload and metric.

    python3 perfbench/summarize.py [--write-baseline]

For every workload and metric it prints the median over runs and the
spread, the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  ``--write-baseline`` stores the medians, the
per-layer figures and each workload's fingerprint in perfbench/baseline/.
The fingerprint covers the fixed reference items, so every run of a
workload must give the same one.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = defaultdict(list)
    for path in sorted((HERE / "results").glob("*-t[01].json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["trace"])].append(rec)

    baseline = {"machine": {}, "end_to_end": {}, "per_layer": {}, "fingerprints": {}}
    for (workload, trace), recs in sorted(runs.items()):
        seeds = sorted(r["seed"] for r in recs)
        print(f"{workload} trace={trace}: {len(recs)} runs, seeds {seeds}, "
              f"{sum(r['failed'] for r in recs)} failed of {sum(r['attempted'] for r in recs)}")
        table = {}
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(vals)
            row = {"median": med, "unit": recs[0]["metrics"][name]["unit"], "runs": len(vals)}
            line = f"  {name:34s} median {med:14.6g} {row['unit']:6s}"
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                row["spread"] = (q[2] - q[0]) / med
                line += f" spread {row['spread']:.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]}, {row['spread'] / bounds[name]:.2f} of it)"
            print(line)
            table[name] = row
        baseline["per_layer" if trace else "end_to_end"][workload] = table
        if not trace:
            prints = {r["fingerprint_sha256"] for r in recs}
            if len(prints) != 1:
                print(f"error: {workload} runs disagree on the fingerprint: {sorted(prints)}")
                return 1
            baseline["fingerprints"][workload] = prints.pop()
        baseline["machine"] = {k: recs[0][k] for k in ("nproc", "python", "numpy", "platform")}

    if args.write_baseline:
        out = HERE / "baseline" / "BASELINE.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
