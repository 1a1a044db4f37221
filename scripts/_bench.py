"""The harness the bench scripts share: BLAS pinned to one thread, the
environment block of their JSON files, a checkout's commit, one measurement
in a fresh process, the rounds that alternate the checkouts, the summary of
a measurement over those rounds, a module attribute swapped for a block, and
a config written to a YAML file.

Each bench script imports this module before anything that imports numpy:
importing it pins BLAS to one thread, as perfbench does.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)   # before numpy is imported

import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def environment() -> dict:
    """The core count, the pinned BLAS threads and the versions a number was taken with."""
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": PINNED_THREADS,
            "python": sys.version.split()[0], "numpy": np.__version__}


def commit(checkout: Path) -> str | None:
    """The checkout's commit, with "-dirty" when its tracked files differ from it."""
    result = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def measured_in_fresh_process(script: str, checkout: Path, *args) -> dict:
    """The JSON that ``script --measure CHECKOUT/src ARGS...`` prints, run in a new process."""
    out = subprocess.run([sys.executable, script, "--measure", str(checkout / "src"),
                          *map(str, args)], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def in_rounds(rounds: int, keys: list, measure, note=lambda samples: "") -> dict:
    """Every key's list of ``measure(key)``, one a round for ``rounds``
    rounds, the keys taken in their order and in reverse by turns, so that a
    drift of the machine's speed reaches both checkouts alike.  After each
    round it prints a line ended by ``note(samples)``, unless ``note`` is
    None."""
    samples = {key: [] for key in keys}
    for round_ in range(rounds):
        for key in keys if round_ % 2 == 0 else keys[::-1]:
            samples[key].append(measure(key))
        if note is not None:
            print(f"round {round_ + 1}/{rounds} timed{note(samples)}", flush=True)
    return samples


def spread(samples: list[float]) -> dict:
    """The median over rounds of one number and its interquartile range."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "iqr": q3 - q1}


def first(samples: list):
    """The value of the first round, for a number every round gives alike."""
    return samples[0]


def over_rounds(samples: list, leaf=spread, **at):
    """The rounds' nests of dicts, summed up: ``leaf`` of the values over
    rounds of every number in them, except beneath a key named in ``at``,
    whose function takes the list of what the rounds hold there."""
    if not isinstance(samples[0], dict):
        return leaf(samples)
    summary = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        summary[key] = at[key](values) if key in at else over_rounds(values, leaf, **at)
    return summary


@contextlib.contextmanager
def swapped(target, **values):
    """``target``'s attributes set to ``values`` for the ``with`` block, and
    given back their own on every way out."""
    saved = {name: getattr(target, name) for name in values}
    try:
        for name, value in values.items():
            setattr(target, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(target, name, value)


def write_config(path: Path, config: dict) -> Path:
    """``config`` written to ``path`` as YAML, in its own key order."""
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    return path
