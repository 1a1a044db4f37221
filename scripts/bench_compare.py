#!/usr/bin/env python3
"""Time ``compare`` at one lane and at every lane and write BENCH_compare.json.

    python scripts/bench_compare.py [--rounds 15]

``compare`` runs its algorithms in one lane per CPU of its affinity mask, up
to the algorithm count.  This times ``netsaddle compare`` of
``configs/ring16_compare.yaml`` (the in-process ``cli.main`` call, set-up
included) in fresh processes: one pinned to the first CPU of this process's
mask, so one lane, and one on the whole mask.  The two alternate, the order
switching every round, for ROUNDS rounds (at least 7).  Each process runs the
command REPEATS times and reports the median; the file gets, per setting, the
median over rounds and its interquartile range, and the median and spread of
the per-round ratio of the one-lane time to the all-lanes time.

Beside the wall time, each process logs every ``run`` call: the lane it ran
in (lane 0 is the process that ``compare`` was called in; a forked lane gets
the next number the first time it logs) and its seconds.  Per setting and
method, the file gets the run time's median and spread over rounds and how
often the method ran in each lane.  It also records the lane count, the core
count and the BLAS thread settings (pinned to one thread, as in perfbench).
The file goes to the root of this checkout.
"""

from __future__ import annotations

from _bench import ROOT, commit, environment, measured_in_fresh_process, spread  # first: pins BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

CONFIG = ROOT / "configs" / "ring16_compare.yaml"
ROUNDS = 15
REPEATS = 5
SETTINGS = ("one_lane", "all_lanes")


def measure(src: Path, setting: str) -> dict:
    """The median wall time of REPEATS compares in this process, the lane count,
    and each method's lane and run time in the last of them."""
    if setting == "one_lane":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    from netsaddle import algorithms, cli

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "runs.log"

        def logged_run(kind, *args, **kwargs):
            start = time.perf_counter()
            trace = algorithms.run(kind, *args, **kwargs)
            seconds = time.perf_counter() - start
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {kind} {seconds!r}\n")
            return trace

        cli.run = logged_run
        walls = []
        for _ in range(REPEATS):
            log.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(["compare", "--config", str(CONFIG), "--out", f"{tmp}/out"])
                walls.append(time.perf_counter() - start)
            if code != cli.EXIT_OK:
                raise SystemExit(f"compare exited with {code}")
        lanes = {os.getpid(): 0}
        methods = {}
        for line in log.read_text().splitlines():
            pid, kind, seconds = line.split()
            lane = lanes.setdefault(int(pid), len(lanes))
            methods[kind] = {"lane": lane, "run_s": float(seconds)}
    names = [algo.name for algo in cli.load_config(CONFIG).algorithms]
    return {"wall_s": statistics.median(walls), "lanes": cli._lane_count(len(names)),
            "methods": {name: methods[name] for name in names}}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--measure"]:   # one timed process, started below
        print(json.dumps(measure(Path(argv[1]), argv[2])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    args = parser.parse_args(argv)
    if args.rounds < 7:
        parser.error("--rounds must be at least 7")

    samples = {setting: [] for setting in SETTINGS}
    for round_ in range(args.rounds):
        order = SETTINGS if round_ % 2 == 0 else SETTINGS[::-1]
        for setting in order:
            samples[setting].append(measured_in_fresh_process(__file__, ROOT, setting))
        print(f"round {round_ + 1}/{args.rounds}: " + ", ".join(
            f"{s} {samples[s][-1]['wall_s'] * 1e3:.1f} ms" for s in SETTINGS), flush=True)

    def per_setting(rows: list[dict]) -> dict:
        return {"lanes": rows[-1]["lanes"],
                "wall_s": spread([row["wall_s"] for row in rows]),
                "methods": {kind: {"run_s": spread([row["methods"][kind]["run_s"]
                                                    for row in rows]),
                                   "runs_per_lane": dict(sorted(Counter(
                                       row["methods"][kind]["lane"] for row in rows).items()))}
                            for kind in rows[0]["methods"]}}

    ratios = [one["wall_s"] / every["wall_s"]
              for one, every in zip(samples["one_lane"], samples["all_lanes"])]
    result = {
        "environment": environment(),
        "commit": commit(ROOT),
        "config": "configs/ring16_compare.yaml",
        "rounds": args.rounds,
        "repeats_per_process": REPEATS,
        "settings": {setting: per_setting(rows) for setting, rows in samples.items()},
        "one_lane_over_all_lanes": spread(ratios),
    }
    (ROOT / "BENCH_compare.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
