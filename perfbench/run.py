"""ssdlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload toy-ssd --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from its src/. Each
run is one process and a closed loop with one caller: the timed section is
repeated, each repetition starting after the last returned, while another
one fits in --seconds (at least one runs). Workloads are listed in
workloads.py.

--trace 0 prints the end-to-end metrics: tokens_per_s (median over the
repetitions), setup_s (the median wall time of a fresh interpreter importing
the package plus the median of several set-ups), peak_rss_mb and ppl.
--trace 1 runs the timed section once untraced and once traced and prints the
per-layer split. Every run checks its outputs; a failed check counts every
operation of that repetition as failed and makes the exit code 1. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def interpreter_start_s() -> list:
    """Wall times of fresh interpreters that import the package and exit."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    from ssdlab import numerics

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "ssdlab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "has_numba": numerics.HAS_NUMBA,
        "ssdlab_threads": os.environ.get("SSDLAB_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


class Run:
    """Tallies operations and correctness checks across repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def judge(self, outcome, label: str) -> None:
        self.attempted += outcome.attempted
        for name, ok, detail in outcome.checks:
            print(f"check {label}: {name}: {'ok' if ok else 'FAILED'} {detail}")
        if outcome.ok:
            self.failed += outcome.failed
        else:
            self.failed += outcome.attempted
            self.correct = False

    def check(self, name: str, ok: bool) -> None:
        """A check over the whole run: failing it fails every operation."""
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
        if not ok:
            self.failed = self.attempted
            self.correct = False


def timed(workload, inputs, workdir: Path):
    start = time.perf_counter()
    outcome = workload.run_timed(inputs, str(workdir))
    return outcome, start, time.perf_counter()


def run_untraced(workload, inputs, workdir: Path, seconds: float, run: Run, metrics: dict):
    first, start, end = timed(workload, inputs, workdir / "rep0")
    run.judge(first, "rep 0")
    rates, durations = [first.tokens / (end - start)], [end - start]
    replays = True
    while sum(durations) + statistics.median(durations) <= seconds:
        outcome, start, end = timed(workload, inputs, workdir / f"rep{len(rates)}")
        run.judge(outcome, f"rep {len(rates)}")
        replays &= first.replays(outcome)
        rates.append(outcome.tokens / (end - start))
        durations.append(end - start)
        # dropped before the next repetition, so peak memory does not depend
        # on how many repetitions fit in the run
        del outcome
    if len(rates) > 1:
        run.check("repetitions replay identically", replays)
    else:
        print("check repetitions replay identically: skipped, one repetition ran")
    metrics["tokens_per_s"] = statistics.median(rates)
    metrics["ppl"] = first.ppl
    print(f"repetitions {len(rates)}: " + " ".join(f"{d:.3f}s" for d in durations))
    return first, metrics["tokens_per_s"]


def run_traced(workload, seed: int, workdir: Path, baseline, baseline_tps: float,
               run: Run, metrics: dict) -> None:
    from tracing import Tracer, default_targets, layer_metrics

    with Tracer(run_id=f"{workload.name}-{seed}-{os.getpid()}") as tracer:
        tracer.install(default_targets())
        inputs = workload.setup(str(workdir / "setup-traced"), seed)
        outcome, start, end = timed(workload, inputs, workdir / "rep-traced")
    run.judge(outcome, "traced")
    run.check("traced run replays the untraced run (records, params)",
              baseline.replays(outcome))
    layers = layer_metrics(tracer.spans, start, end)
    if workload.dense_only:
        bypassed = sum(v for k, v in layers.items()
                       if k.startswith(("moe.", "clustering.", "scheduler.")))
        run.check("no moe/clustering/scheduler work on a dense run", bypassed == 0)
    traced_tps = outcome.tokens / (end - start)
    layers.update(outcome.ledger)
    layers["trace.tokens_per_s"] = traced_tps
    layers["trace.untraced_tokens_per_s"] = baseline_tps
    layers["trace.overhead"] = 1.0 - traced_tps / baseline_tps
    metrics.update(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if not (SRC / "ssdlab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'ssdlab'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["SSDLAB_THREADS"] = "1"
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run = Run()
    metrics = {}
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.setup(str(workdir / f"setup{i}"), args.seed)
            setups.append(time.perf_counter() - start)
        if args.trace:
            baseline, tps = run_untraced(workload, inputs, workdir, 0.0, run, {})
            run_traced(workload, args.seed, workdir, baseline, tps, run, metrics)
        else:
            run_untraced(workload, inputs, workdir, args.seconds, run, metrics)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["setup_s"] = (statistics.median(interpreter_start_s())
                                  + statistics.median(setups))
    except Exception:
        traceback.print_exc()
        run.correct = False
        run.attempted += workload.ops_per_rep  # the repetition that raised
        run.failed = run.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"error_rate {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} failed of {run.attempted} operations)")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
