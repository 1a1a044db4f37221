"""What the bench scripts share: BLAS pinned to one thread, the environment
block of their JSON files, a checkout's commit, a median over rounds with
its spread, and one measurement in a fresh process.

Each bench script imports this module before anything that imports numpy:
importing it pins BLAS to one thread, as perfbench does.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)   # before numpy is imported

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def environment(python: bool = True) -> dict:
    """The core count, the pinned BLAS threads and the versions a number was taken with."""
    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": PINNED_THREADS}
    if python:
        env["python"] = sys.version.split()[0]
    env["numpy"] = np.__version__
    return env


def commit(checkout: Path) -> str | None:
    """The checkout's commit, with "-dirty" when its tracked files differ from it."""
    result = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def spread(samples: list[float]) -> dict:
    """The median over rounds of one number and its interquartile range."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "iqr": q3 - q1}


def measured_in_fresh_process(script: str, checkout: Path, *args) -> dict:
    """The JSON that ``script --measure CHECKOUT/src ARGS...`` prints, run in a new process."""
    out = subprocess.run([sys.executable, script, "--measure", str(checkout / "src"),
                          *map(str, args)], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)
