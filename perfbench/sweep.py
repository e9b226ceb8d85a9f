"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads core-heavy,triage] [--trace 0] --out sweep.json

Run from the root of a checkout. For each workload and seed it runs
perfbench/run.py once, with run_seconds from BENCHMARK.json, and records
every metric. Before each run it times a fixed pure-Python loop, so the
machine's own speed drift is recorded next to the benchmark's spread.
The summary gives, per workload and metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median.
perfbench/baseline.json is this script's output at the commit that
added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def cpu_loop_seconds() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="a range such as 1-10, or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    summary: dict = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    loops = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            loops.append(cpu_loop_seconds())
            command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=CHECKOUT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                  f"correct={result['correct']} failed={result['failed']}", file=sys.stderr, flush=True)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
    summary["cpu_loop_s"] = summarise(loops)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
