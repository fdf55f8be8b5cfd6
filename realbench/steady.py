#!/usr/bin/env python3
"""Steadiness tool: repeats each workload N times and summarises the spread.

Run from the repository root:

    python3 realbench/steady.py --runs 10
    python3 realbench/steady.py --runs 5 --workload batch-shared-prefix --seed 100

Each run is the benchmark command from BENCHMARK.json, run for its
`run_seconds` with its own seed (`--seed`, `--seed + 1`, ...).  Every run's description line (git rev, host,
SIMD kernel set, thread settings) and result line are echoed, followed by
the share of the host's CPU time stolen by its hypervisor during the run
(from /proc/stat, where available): on a shared VM it explains most of
the spread.  The summary
gives, per workload and end-to-end metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` computes them, and the quartile spread
as a share of the median next to a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # where guest time is already counted in user.
    return fields[7], sum(fields[:8])


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    ok = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload,
                "--seed", str(args.seed + i),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            before = cpu_ticks()
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            after = cpu_ticks()
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {args.seed + i}: exit {proc.returncode}")
                ok = False
                continue
            for line in lines[-2:]:
                print(line)
            if before and after and after[1] > before[1]:
                print(f"steal {100 * (after[0] - before[0]) / (after[1] - before[1]):.1f} %")
            results.append(json.loads(lines[-1]))
        if not results:
            continue
        failed_share = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares {sorted(failed_share)}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            third = m["bound"] / 3 if "bound" in m else float("nan")
            flag = "" if "bound" not in m or spread < third else "  <-- wide"
            print(f"  {m['name']:<28} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {third:>8.3f}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
