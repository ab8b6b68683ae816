#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 perfbench/spread.py --workload pretrain --seeds 1-10 [--out FILE]

Runs are sequential, one process each, with `run_seconds` from
BENCHMARK.json. For every end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
With `--out` the summary and the environment of the last run are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    record = None
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                               "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        record = json.loads((ROOT / ".bench_out" / "results" /
                             f"{args.workload}-seed{seed}-trace0.json").read_text())
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        summary[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median, "bound": m["bound"], "unit": m["unit"],
                              "runs": len(v)}
        print(f"{args.workload} {m['name']}: median={median:.5g} {m['unit']} "
              f"q1={q1:.5g} q3={q3:.5g} spread={(q3 - q1) / median:.4f} bound={m['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                              "environment": record["environment"],
                                              "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
