#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 [--trace] \\
        [--out perfbench/baseline.json]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, for its
``run_seconds``, one process at a time, from the root of the checkout.  For
each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  With ``--out`` it also writes those numbers, the
machine description and every run's metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), None)
    return {"seed": seed, "wall_s": wall, "machine": machine, **result}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s wall",
                  file=sys.stderr)
        report["machine"] = runs[-1]["machine"]
        table = {}
        print(f"\n{workload} ({len(runs)} seeds, {seconds} s each)")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarise(values)
            table[name] = stats
            bound = bounds[name]
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f} ({stats['spread'] / bound:.0%})"
                if name != "setup_s":
                    worst = max(worst, stats["spread"] / bound)
            print(f"  {name:40s} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.3f} {note}")
        report["workloads"][workload] = {
            "summary": table,
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"],
                      "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: v["value"]
                                  for k, v in r["metrics"].items()}}
                     for r in runs]}
    if bounds and not args.trace:
        print(f"\nlargest spread / bound, setup_s aside: {worst:.0%}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
