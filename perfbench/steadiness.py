#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 10 [--workloads wire_topk ...] [--out FILE]

Runs ``run.py`` once per seed (1..N) on each workload, seed by seed, with
``BENCHMARK.json``'s ``run_seconds``, and reports for each end-to-end
metric its median and its spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. Exits non-zero if a run fails, an
answer is wrong, or any spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {workload: {name: [] for name in bounds} for workload in args.workloads}
    ok = True
    # seed-major order: a slow spell of the host falls on every workload
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed\n{done.stderr[-2000:]}")
                ok = False
                continue
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds),
                flush=True)
    summary = {}
    for workload, series_by_name in values.items():
        rows = {}
        for name, series in series_by_name.items():
            if len(series) < 2:
                continue
            rows[name] = {"median": statistics.median(series), "spread": spread(series),
                          "bound": bounds[name], "values": series}
            flag = "" if rows[name]["spread"] <= bounds[name] else "  OVER"
            ok = ok and not flag
            print(f"  {workload:14s} {name:12s} median {rows[name]['median']:10.4g}  "
                  f"spread {rows[name]['spread']:.3f}  bound {bounds[name]}{flag}")
        summary[workload] = rows
    if args.out:
        record = {"run_seconds": spec["run_seconds"],
                  "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                  "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
