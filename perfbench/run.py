"""Benchmark of netsaddle's command line: one workload, one run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts one fresh worker process
(worker.py) with OMP/OpenBLAS/MKL pinned to one thread, waits for it, and
prints a readable report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured without tracing and with times scaled to
the reference speed of the machine (see worker.untraced_run), plus the
worker's peak resident memory; with --trace 1 they are the per-layer ones.
The full result, with environment, sample counts, and the times of layers
only some workloads call and of ring16-compare's bare-loop floor, goes to
.perfbench-out/ in the checkout, together with the spans of the last traced
command.

Without netsaddle's sources in src/ it exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER_TIMEOUT_S = 170
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "netsaddle" / "cli.py").is_file():
        print(f"netsaddle sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / tag
    result_path = OUT / f"{tag}.json"
    OUT.mkdir(exist_ok=True)
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path),
               "--work-dir", str(work_dir)]
    try:
        worker = subprocess.run(command, env={**os.environ, **PINNED_THREADS},
                                stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if worker.returncode != 0 or not result_path.is_file():
        print(f"worker failed with exit status {worker.returncode}", file=sys.stderr)
        return worker.returncode or 1

    result = json.loads(result_path.read_text())
    if not args.trace:
        # The worker is this process's only child, so this is its peak.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib * 1024 / 1e6,
                                            "unit": END_TO_END_UNITS["peak_rss_mb"]}
        result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {result['workload']} (seed {result['seed']}, workload seed "
          f"{result['workload_seed']}, trace {result['trace']}): {result['why']}")
    print(f"environment: {json.dumps(result['environment'])}")
    for name, values in result["samples"].items():
        print(f"  {name}: {len(values)} samples, median {statistics.median(values):.6g} s, "
              f"fastest {min(values):.6g} s")
    for name, metric in {**result["metrics"], **result.get("where_called", {})}.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result.get("plain_medians", {}).items():
        print(f"  {name} before scaling to the reference speed = {value:.6g}")
    if "step_us" in result:
        print(f"  algorithms.step_us.tail is the p{result['step_us']['tail_pct']:g} of "
              f"{result['step_us']['samples']} step times")
    print(f"  fail_rate = {result['failed']}/{result['attempted']} command runs")
    for problem in result["problems"]:
        print(f"  output check failed: {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
