"""The benchmark's workloads: one netsaddle command each, on a config made from a seed.

Every workload is a closed loop of one command at a time.  A run's seed is
reduced modulo REFERENCE_SEEDS to a workload seed ``w``; the stored reference
outputs cover every ``w``, so any seed can be checked.  Workload seed 0 gives
exactly the committed ring-16 configs (problem.seed 7, init.seed 8).

Each workload names its speed probe (see worker.untraced_run): how many
iterations of the dogt arithmetic of its own problem, in plain numpy, to
time between samples, and how long they take at the reference speed.  The
reference times are medians of probes on one core of a shared 2-vCPU Xeon
VM, where the time of the same probe drifted by up to 2x within minutes.

Each workload's one-sentence reason, and the name and unit of every metric,
are read from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
REFERENCE_SEEDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                       # netsaddle subcommand
    make_config: Callable[[int], dict]  # workload seed -> config mapping
    speed_probe: tuple[int, float]     # (iterations, their time in s at the reference speed)


def workload_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _problem(n: int, w: int) -> dict:
    return {"type": "bilinear_quadratic", "n": n, "p": 2, "d": 2, "mu": 0.1,
            "seed": 7 + 2 * w, "zero_sum_centers": True}


def _init(w: int) -> dict:
    return {"kind": "normal", "seed": 8 + 2 * w, "scale": 1.0}


def _ring(n: int) -> dict:
    return {"topology": "ring", "n": n, "weight_scheme": "metropolis"}


def ring16_compare(w: int) -> dict:
    return {
        "problem": _problem(16, w),
        "graph": _ring(16),
        "algorithms": [{"name": "dgda", "gamma": 0.1},
                       {"name": "dogda", "gamma": 0.1},
                       {"name": "dogt", "gamma": 0.1},
                       {"name": "adogt", "gamma": 0.1, "T": 4}],
        "init": _init(w),
        "run": {"max_iters": 10000, "tol": 1.0e-10, "record_every": 10,
                "out_dir": "out/ring16_compare"},
    }


def ring16_verify(w: int) -> dict:
    return {
        "problem": _problem(16, w),
        "graph": _ring(16),
        "algorithm": {"name": "dogt", "gamma": "auto"},
        "init": _init(w),
        "run": {"max_iters": 2000, "tol": 0.0, "record_every": 1,
                "record_states": True, "out_dir": "out/ring16_verify"},
    }


def random1024_dogt(w: int) -> dict:
    # Every seed gets the same graph and the same work, so that a median over
    # a few runs is steady:
    #   - The spectral gap comes from power iteration, whose time depends on
    #     the graph alone.
    #   - dogt needs 546 to 610 iterations to reach the tolerance, depending
    #     on the problem seed; the cap of 500 stops every seed short of it.
    # At n = 2048 the dense products (32 MB of W) ran up to 1.8x slower or
    # faster from one command to the next, and no probe timed between
    # commands followed them; at n = 1024 (8 MB) its own probe does.
    return {
        "problem": _problem(1024, w),
        "graph": {"topology": "random", "n": 1024, "weight_scheme": "metropolis",
                  "edge_probability": 0.01, "seed": 1000},
        "algorithm": {"name": "dogt", "gamma": 0.1},
        "init": _init(w),
        "run": {"max_iters": 500, "tol": 1.0e-10, "record_every": 10,
                "out_dir": "out/random1024_dogt"},
    }


WORKLOADS = {wl.name: wl for wl in (
    Workload("ring16-compare", "compare", ring16_compare, (4000, 0.10)),
    Workload("ring16-verify", "verify", ring16_verify, (4000, 0.10)),
    Workload("random1024-dogt", "run", random1024_dogt, (100, 0.25)),
)}
