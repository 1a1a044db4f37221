"""One benchmark run of one workload, in a fresh process; started by run.py.

run.py pins BLAS to one thread in this process's environment before numpy
is imported here.  All imports and the config file are done before timing
starts.  Untimed work (clearing the output directory, checking outputs)
sits between samples.

Untraced run (``--trace 0``), repeated in rounds until the time is up:
  - one command sample: cli.main([command, --config, cfg, --out, dir]),
    then its outputs are checked against the reference;
  - a speed probe (see untraced_run);
  - set-up samples, cli.load_config + cli.resolve_experiment on the same
    config, repeated until they took SETUP_SHARE of the command sample;
  - a speed probe.
Traced run (``--trace 1``): rounds of one untraced and one traced command
sample, both checked; on ring16-compare first the bare-loop floor.

A timing is reported as the median of its samples; every sample is kept in
the result file beside it.  The end-to-end times are medians of samples
scaled to the reference speed; their plain medians go to the result file
and the report.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import checks
from tracing import Tracer, layer_metrics, traced, write_spans
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WHY, WORKLOADS, workload_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

SETUP_SHARE = 0.25
BARE_LOOP_ITERS = 2000
BARE_LOOP_REPEATS = 7
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

# The workload whose traced run also times the bare-loop floor.
BARE_LOOP_WORKLOAD = "ring16-compare"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--work-dir", required=True, help="scratch directory for outputs")
    return parser.parse_args(argv)


def environment(n: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            cache[int((index / "level").read_text())] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": cache[max(cache)] if cache else None,
        "largest_dense_array_bytes_computed": 8 * n * n,   # one n x n float64 matrix
    }


class Runner:
    """Runs one workload's command and checks every output against the reference."""

    def __init__(self, workload, seed: int, work_dir: Path):
        from netsaddle import cli

        self.cli = cli
        self.workload = workload
        self.wseed = workload_seed(seed)
        self.config = workload.make_config(self.wseed)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = work_dir / "config.yaml"
        self.config_path.write_text(yaml.safe_dump(self.config, sort_keys=False))
        self.out_dir = work_dir / "out"
        reference = checks.read_reference(REFERENCE_DIR / f"{workload.name}.json.gz")
        self.reference = reference["seeds"][str(self.wseed)]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.last_digest = None

    def setup_sample(self) -> float:
        start = time.perf_counter()
        self.cli.resolve_experiment(self.cli.load_config(self.config_path))
        return time.perf_counter() - start

    def command_sample(self, tracer=None) -> float:
        """Time one command (under ``tracer`` when given), then check its outputs."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [self.workload.command, "--config", str(self.config_path),
                "--out", str(self.out_dir)]
        main = self.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(argv) if tracer is None else tracer.call("cli.main", main, (argv,), {})
            except Exception:
                # A crash is a failed command run, as it is for the installed
                # script, which exits with status 1.
                traceback.print_exc()
                code = 1
            elapsed = time.perf_counter() - start
        self.attempted += 1
        digest = checks.summarize(self.out_dir, code)
        problems = checks.compare(digest, self.reference)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.last_digest = digest
        return elapsed

    def iterations(self) -> int:
        return sum(int(m["result.iterations"])
                   for m in self.last_digest["manifests"].values())

    def output_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.out_dir.iterdir())

    def byte_identical(self) -> int:
        return checks.byte_identical(self.last_digest, self.reference)


def rounds(seconds: float, body):
    """Call ``body`` until the time is up; a round starts only if it is expected
    to end by the deadline.  Always one round."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        body()
        took = time.perf_counter() - round_start
        if time.perf_counter() - start + took > seconds:
            return


class BareLoop:
    """The dogt arithmetic of the workload's problem in plain numpy, with no
    library code in the loop: the floor a library step can approach, and the
    untraced run's speed probe."""

    def __init__(self, runner: Runner):
        exp = runner.cli.resolve_experiment(runner.cli.load_config(runner.config_path))
        self.exp = exp
        self.gamma = next(a.gamma for a in exp.algorithms if a.name == "dogt")
        self.W = np.array(exp.W.W)

    def field(self, z):
        problem = self.exp.problem
        x, y = z[:, :problem.p], z[:, problem.p:]
        return np.hstack([y + problem.mu * (x - problem.centers_a),
                          -(x - problem.mu * (y - problem.centers_b))])

    def run(self, iters: int):
        W, gamma = self.W, self.gamma
        z = self.exp.z0.copy()
        g = g_prev = self.field(z)
        r = g.copy()
        for _ in range(iters):
            z = W @ (z - gamma * (r + g - g_prev))
            g_prev, g = g, self.field(z)
            r = W @ (r + g - g_prev)
        return z

    def seconds(self, iters: int) -> float:
        start = time.perf_counter()
        self.run(iters)
        return time.perf_counter() - start


def untraced_run(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics at the reference speed, their plain medians, and the samples.

    The speed of a core on a shared machine drifts by up to 2x over tens of
    seconds, and the median of one run moves with it.  So every round also
    times the workload's bare loop for the speed probe's iterations, once
    after the command and once after the set-up samples.  Each sample is
    multiplied by the probe's reference time over the mean of the two probes
    around it: that is the time the sample would have taken at the reference
    speed.  The metrics are medians of the scaled samples.
    """
    iters, reference_s = runner.workload.speed_probe
    probe = BareLoop(runner)
    probes = [probe.seconds(iters)]
    walls, setups, past_setup = [], [], []
    scaled = {"wall_s": [], "setup_s": [], "past_setup_s": []}

    def probe_scale() -> float:
        """Reference time over the mean of a new probe and the one before."""
        probes.append(probe.seconds(iters))
        return reference_s / (0.5 * (probes[-2] + probes[-1]))

    def one_round():
        wall = runner.command_sample()
        wall_scale = probe_scale()
        round_setups = []
        while sum(round_setups) < SETUP_SHARE * wall:
            round_setups.append(runner.setup_sample())
        setup_scale = probe_scale()
        walls.append(wall)
        setups.extend(round_setups)
        # Wall time minus set-up time, both from this round: samples taken
        # together saw the same speed of the machine.
        past_setup.append(wall - statistics.median(round_setups))
        scaled["wall_s"].append(wall * wall_scale)
        scaled["setup_s"].extend(setup * setup_scale for setup in round_setups)
        scaled["past_setup_s"].append(
            wall * wall_scale - statistics.median(round_setups) * setup_scale)

    rounds(seconds, one_round)
    iterations = runner.iterations()
    metrics = {"wall_s": statistics.median(scaled["wall_s"]),
               "setup_s": statistics.median(scaled["setup_s"]),
               "iters_per_s": iterations / statistics.median(scaled["past_setup_s"])}
    plain = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
             "iters_per_s": iterations / statistics.median(past_setup)}
    samples = {"wall_s": walls, "setup_s": setups, "past_setup_s": past_setup,
               "probe_s": probes, **{f"scaled_{name}": v for name, v in scaled.items()}}
    return metrics, plain, samples


def bare_loop_us(runner: Runner) -> tuple[float, list[str]]:
    """Per-iteration time of the bare loop (n = 16 on ring16-compare), and any
    disagreement with the library's dogt there."""
    from netsaddle import algorithms, metrics

    loop = BareLoop(runner)
    times = [loop.seconds(BARE_LOOP_ITERS) / BARE_LOOP_ITERS * 1e6
             for _ in range(BARE_LOOP_REPEATS)]
    exp = loop.exp
    library = algorithms.run("dogt", exp.problem, exp.W, loop.gamma, exp.z0,
                             max_iters=BARE_LOOP_ITERS, tol=0.0,
                             record_every=BARE_LOOP_ITERS).records[-1].residual
    bare = metrics.residual(loop.run(BARE_LOOP_ITERS), exp.problem.saddle_point())
    problems = [] if abs(bare - library) <= 1e-9 * library else [
        f"bare dogt loop residual {bare!r} != library {library!r}"]
    return statistics.median(times), problems


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile that still has at least ten samples beyond it
    (the median when there are too few samples for any other)."""
    return next((pct for pct in TAIL_PERCENTILES if count * (100.0 - pct) / 100.0 >= 10),
                50.0)


def traced_run(runner: Runner, seconds: float, work_dir: Path):
    """Per-layer metrics, times of layers only this workload calls, the step-time
    percentile notes, the samples, and any problem with the bare loop."""
    floor, problems = {}, []
    if runner.workload.name == BARE_LOOP_WORKLOAD:
        floor["algorithms.bare_loop_us"], problems = bare_loop_us(runner)
    untraced, traced_walls, per_sample, steps_us = [], [], [], []
    last = None

    def one_round():
        nonlocal last
        untraced.append(runner.command_sample())
        tracer = Tracer()
        with traced(tracer):
            traced_walls.append(runner.command_sample(tracer))
        sample, steps = layer_metrics(tracer)
        per_sample.append(sample)
        steps_us.extend(steps)
        last = tracer

    rounds(seconds, one_round)
    write_spans(work_dir.parent / f"{work_dir.name}.spans.csv", last)

    def median_of(name):
        return statistics.median(sample[name] for sample in per_sample)

    every = {name: median_of(name) for name in per_sample[-1]}
    steps_us.sort()
    tail_pct = tail_percentile(len(steps_us))
    every.update(floor)
    every.update({
        "algorithms.step_us.p50": percentile(steps_us, 50.0),
        "algorithms.step_us.tail": percentile(steps_us, tail_pct),
        "cli.output_bytes": runner.output_bytes(),
        "cli.outputs_byte_identical": runner.byte_identical(),
        "trace_overhead_frac": statistics.median(traced_walls) / statistics.median(untraced) - 1.0,
    })
    metrics = {name: every[name] for name in PER_LAYER_UNITS}
    # The other times (accelerated_matrix, fit_linear_rate, the checks, the
    # bare loop) belong to layers or floors only some workloads have.  They
    # would read exactly 0 on the others, so they go to the report and result
    # file of the workloads that have them only; the self-test checks which.
    where_called = {name: value for name, value in every.items()
                    if name not in PER_LAYER_UNITS and value > 0}
    step_us = {"tail_pct": tail_pct, "samples": len(steps_us)}
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced_walls}
    return metrics, where_called, step_us, samples, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netsaddle" / "cli.py").is_file():
        print(f"netsaddle sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netsaddle

    if Path(netsaddle.__file__).resolve().parent != SRC / "netsaddle":
        print(f"imported netsaddle from {netsaddle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    runner = Runner(workload, args.seed, work_dir)
    problems: list[str] = []
    result = {"workload": workload.name, "why": WHY[workload.name], "seed": args.seed,
              "workload_seed": runner.wseed, "trace": args.trace, "config": runner.config,
              "environment": environment(runner.config["graph"]["n"])}
    if args.trace:
        metrics, where_called, step_us, samples, problems = traced_run(
            runner, args.seconds, work_dir)
        units = PER_LAYER_UNITS
        # Every name there is a time, in us if it says so and in s otherwise.
        result["where_called"] = {
            name: {"value": value, "unit": "us" if name.endswith("_us") else "s"}
            for name, value in where_called.items()}
        result["step_us"] = step_us
    else:
        metrics, plain, samples = untraced_run(runner, args.seconds)
        result["plain_medians"] = plain
        units = END_TO_END_UNITS
    shutil.rmtree(runner.out_dir, ignore_errors=True)
    problems = runner.problems + problems
    result.update({
        "samples": samples,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "attempted": runner.attempted, "failed": runner.failed,
        "correct": not problems, "problems": problems[:20],
    })
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
