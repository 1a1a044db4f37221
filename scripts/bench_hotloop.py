#!/usr/bin/env python3
"""Time the per-step cost of the four methods at n = 16 and write BENCH_hotloop.json.

    python scripts/bench_hotloop.py BASELINE_CHECKOUT

On the ring-16 comparison config (``configs/ring16_compare.yaml``: ring-16,
p = d = 2, gamma 0.1, adogt at T = 4) it records the microseconds per
iteration of each method inside ``algorithms.run``, over ITERS iterations
at tol 0, in two settings: record_every 10, as ``compare`` runs the
methods, and record_every 1, as ``verify`` runs dogt.  Beside them it
records a bare numpy dogt loop (the same arithmetic with no library code
in it), each method's ratio to that loop, and the time of one call of
``gradient_field``, ``W.mix`` and ``metrics.residual`` at the config's
starting iterate, and of ``stacked_gradient_field``, the field as a step
calls it.  Each per-iteration and per-call time, and each ratio, is stored
as its median over rounds with its interquartile range.  Beside the
one-state residual it records the residual's cost per state on a stack of
STACK states, one ring-16 batch of ``run()``, which is what the stop rule
pays.  The bare loop's final residual must equal the library dogt's to
1e-9 relative, or no numbers are written.

It also runs each method as ``compare`` runs it (COMPARE: tol 1e-10 and
10000 iterations, record_every 10) and records the wall time of that
``run`` call, its trace's iterations and the number of steps it actually
took, counted by wrapping the step function on the module.  Those differ
where ``run`` stops stepping at a fixed point (dgda and dogda) or steps
past a tol stop within its last batch (dogt and adogt).

BASELINE_CHECKOUT is another checkout of this repository, such as a clone
at an earlier commit.  It must be at the change that made ``run()`` take
each method's resolved mixing (``ResolvedAlgorithm.mixing``) or later,
since the measuring code calls ``run()`` that way in both checkouts.  The
two are timed in fresh processes, one per checkout in each of ROUNDS
alternating rounds, and the file gets both sets of numbers.  A number is
the median over rounds of each process's median.  The bare loop's speed
has differed by up to 1.5x between the two checkouts' processes, so the
numbers to compare across checkouts are each checkout's ratios to its own
bare loop, not ratios of times taken in different processes.  BLAS is
pinned to one thread, as in perfbench.  The file goes to the root of this
checkout.
"""

from __future__ import annotations

from _bench import ROOT, commit, environment, measured_in_fresh_process, spread  # first: pins BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

CONFIG = ROOT / "configs" / "ring16_compare.yaml"
METHODS = ("dgda", "dogda", "dogt", "adogt")
# name -> keyword arguments of algorithms.run besides max_iters and tol
SETTINGS = {"record_every_10": {"record_every": 10},
            "record_every_1_as_verify": {"record_every": 1}}
ITERS = 2000
COMPARE = {"max_iters": 10000, "tol": 1e-10, "record_every": 10}
REPEATS = 7
ROUNDS = 5
STACK = 51      # states in one batch of run() at ring-16


def call_us(fn) -> float:
    """Median time of one call in microseconds, over REPEATS timed batches.

    A first ``autorange`` only warms the call up (caches, lazily built
    state) and is discarded; the second sizes the batches."""
    timer = timeit.Timer(fn)
    timer.autorange()
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(REPEATS, number)) / number * 1e6


def bare_dogt(problem, W: np.ndarray, gamma: float, z0: np.ndarray, iters: int):
    """dogt in plain numpy: the floor a library step can approach."""
    p, a, b, mu = problem.p, problem.centers_a, problem.centers_b, problem.mu

    def field(z):
        x, y = z[:, :p], z[:, p:]
        return np.concatenate([y + mu * (x - a), -(x - mu * (y - b))], axis=1)

    z = z0.copy()
    g = g_prev = field(z)
    r = g.copy()
    for _ in range(iters):
        z = W @ (z - gamma * (r + g - g_prev))
        g_prev, g = g, field(z)
        r = W @ (r + g - g_prev)
    return z


def steps_taken(algorithms, kind: str, job) -> int:
    """The step calls one call of ``job`` makes, counted by wrapping ``kind``'s
    step function on the module, where ``run`` looks it up."""
    name, calls = f"{kind}_step", []
    original = getattr(algorithms, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    setattr(algorithms, name, counted)
    try:
        job()
    finally:
        setattr(algorithms, name, original)
    return len(calls)


def measure(src: Path) -> dict:
    """The numbers of the netsaddle in ``src``, timed in this process."""
    sys.path.insert(0, str(src))
    from netsaddle import algorithms, cli, metrics

    exp = cli.resolve_experiment(cli.load_config(CONFIG))
    algos = {a.name: a for a in exp.algorithms}
    problem, W, z0 = exp.problem, exp.W, exp.z0
    jobs = {(setting, kind): partial(algorithms.run, kind, problem, algos[kind].mixing,
                                     algos[kind].gamma, z0, max_iters=ITERS, tol=0.0, **kwargs)
            for setting, kwargs in SETTINGS.items() for kind in METHODS}
    jobs.update({("compare", kind): partial(algorithms.run, kind, problem, algos[kind].mixing,
                                            algos[kind].gamma, z0, **COMPARE)
                 for kind in METHODS})
    jobs["bare"] = partial(bare_dogt, problem, np.array(W.W), algos["dogt"].gamma, z0, ITERS)
    z_star = problem.saddle_point()
    bare = metrics.residual(jobs["bare"](), z_star)
    library = jobs["record_every_10", "dogt"]().records[-1].residual
    if abs(bare - library) > 1e-9 * library:
        raise SystemExit(f"bare dogt loop residual {bare!r} != library {library!r}")
    # Repeats outermost, so a drift in core speed reaches every job alike.
    times = {key: [] for key in jobs}
    for _ in range(REPEATS):
        for key, job in jobs.items():
            start = time.perf_counter()
            job()
            times[key].append(time.perf_counter() - start)
    compare = {kind: {"ms_per_run": statistics.median(times.pop(("compare", kind))) * 1e3,
                      "iterations": jobs["compare", kind]().iterations,
                      "steps_taken": steps_taken(algorithms, kind, jobs["compare", kind])}
               for kind in METHODS}
    us = {key: statistics.median(t) / ITERS * 1e6 for key, t in times.items()}
    bare = us.pop("bare")
    per_iter = {setting: {kind: us[setting, kind] for kind in METHODS} for setting in SETTINGS}
    stack = np.repeat(z0[None], STACK, axis=0)
    return {
        "us_per_iteration_in_run": per_iter,
        "compare_runs": compare,
        "bare_dogt_us_per_iteration": bare,
        "ratio_to_bare_dogt": {setting: {kind: us / bare for kind, us in row.items()}
                               for setting, row in per_iter.items()},
        "us_per_call": {"gradient_field": call_us(lambda: problem.gradient_field(z0)),
                        "stacked_gradient_field": call_us(
                            lambda: algorithms.stacked_gradient_field(problem, z0)),
                        "W.mix": call_us(lambda: W.mix(z0)),
                        "metrics.residual": call_us(lambda: metrics.residual(z0, z_star)),
                        f"metrics.residual_per_state_of_{STACK}": call_us(
                            lambda: metrics.residual(stack, z_star)) / STACK},
    }


# The numbers stored with their interquartile range over rounds; the others
# (the compare runs, timed as whole runs) as medians.
WITH_SPREAD = ("us_per_iteration_in_run", "bare_dogt_us_per_iteration", "ratio_to_bare_dogt",
               "us_per_call")


def over_rounds(samples: list, leaf):
    """``leaf`` of the values over rounds of every number in a nest of dicts."""
    if isinstance(samples[0], dict):
        return {key: over_rounds([s[key] for s in samples], leaf) for key in samples[0]}
    return leaf(samples)


def summary(rows: list[dict]) -> dict:
    """One checkout's numbers over rounds: WITH_SPREAD ones as spreads, the rest as medians."""
    return {key: over_rounds([r[key] for r in rows],
                             spread if key in WITH_SPREAD else statistics.median)
            for key in rows[0]}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--measure"]:   # one timed process, started below
        print(json.dumps(measure(Path(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="another checkout to time against this one")
    args = parser.parse_args(argv)

    checkouts = {"baseline": args.baseline.resolve(), "this": ROOT}
    samples = {name: [] for name in checkouts}
    for round_ in range(ROUNDS):
        for name, checkout in checkouts.items():
            samples[name].append(measured_in_fresh_process(__file__, checkout))
            print(f"round {round_ + 1}/{ROUNDS}: {name} timed", flush=True)
    result = {
        "environment": environment(),
        "config": "configs/ring16_compare.yaml, every method run at tol 0, and in "
                  "compare_runs as compare runs it",
        "compare_run": COMPARE,
        "iterations_per_run": ITERS,
        "rounds": ROUNDS,
        "checkouts": {name: {"commit": commit(checkouts[name]), **summary(rows)}
                      for name, rows in samples.items()},
    }
    (ROOT / "BENCH_hotloop.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
