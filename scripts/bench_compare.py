#!/usr/bin/env python3
"""Time ``compare`` at one lane and at every lane and write BENCH_compare.json.

    python scripts/bench_compare.py [--rounds 15] [--parent CHECKOUT]

``compare`` runs its algorithms in one lane per CPU of its affinity mask, up
to the algorithm count.  This times ``netsaddle compare`` of
``configs/ring16_compare.yaml`` (the in-process ``cli.main`` call, set-up
included) in three settings:

- ``one_lane``: a fresh process pinned to the first CPU of this process's
  mask, so one lane;
- ``all_lanes``: a fresh process on the whole mask;
- ``in_process``: one process on the whole mask, started once and kept for
  every round, which runs the commands back to back, as perfbench's worker
  does.  The scheduler places a forked lane differently in a process that
  has run many commands than in a fresh one.

Each setting's process runs the command REPEATS times a round and reports
the median.  The settings alternate, the order switching every round, for
ROUNDS rounds (at least 7).  With ``--parent``, the sources of CHECKOUT (a
clone of an earlier commit) are timed too, in the same rounds, alternating
with this checkout's.  The file gets, per checkout and setting, the median
over rounds and its interquartile range, and the median and spread of the
per-round ratio of the one-lane time to each setting's time.

Beside the wall time, each process logs every ``run`` call: the lane it ran
in (lane 0 is the process that ``compare`` was called in; a forked lane gets
the next number the first time it logs in a command), its seconds, the CPU
it was on when it returned (field 39 of ``/proc/self/stat``) and its busy
fraction, the lane's ``time.process_time()`` over the wall time.  Two lanes
that share one CPU read about 0.5 each.  Per setting and method, the file
gets the run time's median and spread over rounds and how often the method
ran in each lane; per lane, how many runs ended on each CPU, and the median
and spread over rounds of the lane's busy fraction in a command (the CPU
time of its runs over their wall time).  It also records the lane count,
the core count and the BLAS thread settings (pinned to one thread, as in
perfbench).  The file goes to the root of this checkout.
"""

from __future__ import annotations

from _bench import ROOT, commit, environment, measured_in_fresh_process, spread  # first: pins BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

CONFIG = ROOT / "configs" / "ring16_compare.yaml"
ROUNDS = 15
REPEATS = 5
SETTINGS = ("one_lane", "all_lanes", "in_process")


def current_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def measurer(src: Path, setting: str, tmp: Path):
    """A function that times REPEATS compares in this process, on the sources
    under ``src`` and with outputs under ``tmp``: their median wall time, the
    lane count, each method's lane and run time in the last of them, and each
    lane's CPUs and busy fraction."""
    if setting == "one_lane":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    from netsaddle import algorithms, cli

    names = [algo.name for algo in cli.load_config(CONFIG).algorithms]
    log = tmp / "runs.log"

    def logged_run(kind, *args, **kwargs):
        start, busy = time.perf_counter(), time.process_time()
        trace = algorithms.run(kind, *args, **kwargs)
        seconds, busy = time.perf_counter() - start, time.process_time() - busy
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {kind} {seconds!r} {busy!r} {current_cpu()}\n")
        return trace

    cli.run = logged_run

    def measure() -> dict:
        walls, cpus, busy = [], {}, {}
        for _ in range(REPEATS):
            log.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(["compare", "--config", str(CONFIG), "--out", f"{tmp}/out"])
                walls.append(time.perf_counter() - start)
            if code != cli.EXIT_OK:
                raise SystemExit(f"compare exited with {code}")
            lanes, methods, seconds = {str(os.getpid()): "0"}, {}, Counter()
            for line in log.read_text().splitlines():
                pid, kind, wall, cpu_s, cpu = line.split()
                lane = lanes.setdefault(pid, str(len(lanes)))
                methods[kind] = {"lane": int(lane), "run_s": float(wall)}
                seconds[lane, "wall"] += float(wall)
                seconds[lane, "cpu"] += float(cpu_s)
                cpus.setdefault(lane, Counter())[cpu] += 1
            for lane in lanes.values():
                busy.setdefault(lane, []).append(seconds[lane, "cpu"] / seconds[lane, "wall"])
        return {"wall_s": statistics.median(walls), "lanes": cli._lane_count(len(names)),
                "methods": {name: methods[name] for name in names},
                "lane_cpus": cpus,
                "lane_busy": {lane: statistics.median(fractions)
                              for lane, fractions in busy.items()}}

    return measure


class KeptProcess:
    """The ``in_process`` setting's process, started once: each call sends it
    one line and reads back one measurement."""

    def __init__(self, checkout: Path):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--measure", str(checkout / "src"), "in_process"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise SystemExit(f"the in_process measurement exited with {self.proc.returncode}")


def summary(rows: list[dict]) -> dict:
    """One checkout's measurements of one setting over the rounds."""
    lanes = sorted({lane for row in rows for lane in row["lane_busy"]}, key=int)
    cpus = {lane: Counter() for lane in lanes}
    for row in rows:
        for lane, counts in row["lane_cpus"].items():
            cpus[lane].update(counts)
    return {"lanes": rows[-1]["lanes"],
            "wall_s": spread([row["wall_s"] for row in rows]),
            "methods": {kind: {"run_s": spread([row["methods"][kind]["run_s"] for row in rows]),
                               "runs_per_lane": dict(sorted(Counter(
                                   row["methods"][kind]["lane"] for row in rows).items()))}
                        for kind in rows[0]["methods"]},
            "lane_cpus": {lane: dict(sorted(cpus[lane].items(), key=lambda item: int(item[0])))
                          for lane in lanes},
            "lane_busy": {lane: spread([row["lane_busy"][lane] for row in rows
                                        if lane in row["lane_busy"]])
                          for lane in lanes}}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--measure"]:   # one timing process, started below
        with tempfile.TemporaryDirectory() as tmp:
            measure = measurer(Path(argv[1]), argv[2], Path(tmp))
            if argv[2] != "in_process":
                print(json.dumps(measure()))
                return 0
            for _ in sys.stdin:     # one line a round, until KeptProcess.close
                print(json.dumps(measure()), flush=True)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--parent", type=Path,
                        help="another checkout, such as a clone of an earlier commit, to time too")
    args = parser.parse_args(argv)
    if args.rounds < 7:
        parser.error("--rounds must be at least 7")

    checkouts = {"change": ROOT} if args.parent is None else {"parent": args.parent,
                                                              "change": ROOT}
    kept = {name: KeptProcess(checkout) for name, checkout in checkouts.items()}
    cases = [(name, setting) for name in checkouts for setting in SETTINGS]
    samples = {case: [] for case in cases}
    try:
        for round_ in range(args.rounds):
            for name, setting in cases if round_ % 2 == 0 else cases[::-1]:
                samples[name, setting].append(
                    kept[name]() if setting == "in_process"
                    else measured_in_fresh_process(__file__, checkouts[name], setting))
            print(f"round {round_ + 1}/{args.rounds}: " + ", ".join(
                f"{name} {setting} {samples[name, setting][-1]['wall_s'] * 1e3:.1f} ms"
                for name, setting in cases), flush=True)
    finally:
        for process in kept.values():
            process.close()

    def measured(name: str) -> dict:
        one_lane = samples[name, "one_lane"]
        return {"commit": commit(checkouts[name]),
                "settings": {setting: summary(samples[name, setting]) for setting in SETTINGS},
                "one_lane_over": {setting: spread([one["wall_s"] / other["wall_s"] for one, other
                                                   in zip(one_lane, samples[name, setting])])
                                  for setting in SETTINGS[1:]}}

    result = {
        "environment": environment(),
        "config": "configs/ring16_compare.yaml",
        "rounds": args.rounds,
        "repeats_per_process": REPEATS,
        **{name: measured(name) for name in checkouts},
    }
    (ROOT / "BENCH_compare.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
