#!/usr/bin/env python3
"""Run the benchmark as the pipeline does and print each end-to-end
metric's spread next to its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the repo root. Reads the command, workloads, run length and
bounds from BENCHMARK.json; runs each workload `--runs` times, each time
with another seed; prints, per workload and metric, the median and the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`, the acceptance rule). A spread
over a third of its bound is flagged: the benchmark should be steadier
than that before a bound means anything. Every run's result line is
kept in benchmark/out/spread-<first-seed>.jsonl.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = pathlib.Path("benchmark/out")
    out.mkdir(parents=True, exist_ok=True)
    log = (out / f"spread-{args.first_seed}.jsonl").open("a")

    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        wall = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            wall.append(time.monotonic() - t0)
            line = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not line.startswith("{"):
                sys.exit(f"{name} seed {seed}: exit {run.returncode}, last line {line!r}")
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect: {line}")
            log.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            log.flush()
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        print(f"{name}: {args.runs} runs, {max(wall):.1f} s longest")
        for m, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            flag = ""
            if m != "setup_s" and spread > bounds[m] / 3:
                flag = "  <-- over a third of the bound"
                worst = max(worst, spread / bounds[m])
            print(f"  {m:<16} median {q2:<12.6g} spread {spread:.4f}  bound {bounds[m]}{flag}")
    if worst:
        print(f"worst spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
