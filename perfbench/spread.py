"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/spread.py --trace-seed 0 --out perfbench/results/run.json

Runs perfbench/run.py once per workload of BENCHMARK.json and seed 0..9, with
its settings, one process at a time, then prints for each end-to-end metric
the median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound. With --trace-seed it adds one traced run
per workload. The summary, with every run's values and environment stamp,
goes to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return {"seed": seed, "trace": trace, "exit": proc.returncode, "env": env,
            "result": result}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"benchmark": bench, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench["command"], workload, s, bench["run_seconds"], 0)
                for s in SEEDS]
        if args.trace_seed is not None:
            runs.append(run_once(bench["command"], workload, args.trace_seed,
                                 bench["run_seconds"], 1))
        good = [r for r in runs if r["exit"] == 0 and r["result"]["correct"]]
        ok &= len(good) == len(runs)
        stats = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in good if r["trace"] == 0]
            if len(values) >= 2:
                stats[metric["name"]] = {**spread(values), "bound": metric["bound"],
                                         "values": values}
                s = stats[metric["name"]]
                print(f"{workload:11s} {metric['name']:12s} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                      f"bound {metric['bound']}", flush=True)
        print(f"{workload:11s} runs ok {len(good)}/{len(runs)}", flush=True)
        summary["workloads"][workload] = {"stats": stats, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
