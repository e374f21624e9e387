#!/usr/bin/env python3
"""Run a benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload classify_fig3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A single workload prints its full record (``record {...}``) and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. ``--workload all`` runs every
workload in its own process, prints each metric by name with its unit,
and exits non-zero if any answer was wrong or any op failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify_fig3", "wire_topk", "churn_serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import spans

    module = importlib.import_module(args.workload)
    workdir = harness.workdir(args.workload)
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
        environment = harness.environment(args.seed)
    except harness.InsufficientSamples as exc:
        raise SystemExit(f"perfbench: {exc}; run longer than {args.seconds:g} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["metrics"]
    if args.trace:
        # spans are written before the gate, so a refused run can be read
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        result["spans"].dump(harness.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
        try:
            spans.check_coverage(metrics["trace.path_coverage_frac"])
        except spans.BrokenWiring as exc:
            raise SystemExit(f"perfbench: {exc}") from None
        # layers this workload does not pass through did no work: 0
        for name in harness.declared_metrics(True):
            metrics.setdefault(name, 0.0)
    harness.emit(args.workload, args.seed, args.trace, result["correct"],
                 result["attempted"], result["failed"], metrics,
                 {"environment": environment, **result["record"]})


def run_all(args):
    ok = True
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exited {done.returncode}\n{done.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
