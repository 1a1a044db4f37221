#!/usr/bin/env python3
"""Time the per-step cost of the four methods at n = 16 and write BENCH_hotloop.json.

    python scripts/bench_hotloop.py BASELINE_CHECKOUT

On the ring-16 comparison config (``configs/ring16_compare.yaml``: ring-16,
p = d = 2, gamma 0.1, adogt at T = 4) it records the microseconds per
iteration of each method inside ``algorithms.run``, over ITERS iterations
at tol 0, in two settings: record_every 10, as ``compare`` runs the
methods, and record_every 1, as ``verify`` runs dogt.  Beside each method it
times that method's bare loop: the same arithmetic in plain numpy, with the
library's own whole-row field formula, every result written into a
preallocated array, and no library code in the loop (adogt's loop mixes by
the dense M_T).  Each method's ratio to its own bare loop, the median
over repeats of its run's time over that of the bare loop timed next to
it, is the number to compare across checkouts.  Every
bare loop's final residual must equal its library run's to 1e-9 relative,
or no numbers are written.  It also records the time of one call of
``gradient_field``, ``W.mix`` and ``metrics.residual`` at the config's
starting iterate, and of ``stacked_gradient_field``, the field as a step
calls it; the residual's cost per state on a stack of STACK states, one
ring-16 batch of ``run()``, which is what the stop rule pays; one
``metric_record`` on a stack of STACK consecutive dogt states at the
config's gamma, as ``run()`` fills a batch of rows at record_every 1 (the
states are stepped here in plain numpy, so both checkouts record the same
stack); and ``verify``'s e and E (``verify.field_at_average``) of the
as-verify dogt trace, ITERS + 1 rows.  Each
per-iteration and per-call time, and each ratio, is stored as its median
over rounds with its interquartile range.

It also runs each method as ``compare`` runs it (COMPARE: tol 1e-10 and
10000 iterations, record_every 10) and records the wall time of that
``run`` call, its trace's iterations and the number of steps it actually
took, counted by wrapping the step function on the module.  Those differ
where ``run`` stops stepping at a fixed point (dgda and dogda) or steps
past a tol stop within its last batch (dogt and adogt).  Wrapped the same
way, with a clock read around each step, each run of the two settings also
gives what is left above the steps: its time minus that of its steps, per
step (``us_per_step_outside_steps``), which includes the wrapper's own call
and clock reads.

BASELINE_CHECKOUT is another checkout of this repository, such as a clone
at an earlier commit.  It must be at dcd79a7 (the record layer that takes
the residuals and has ``verify.field_at_average``) or later, since the
measuring code calls ``run()``, ``metric_record`` and ``field_at_average``
that way in both checkouts.  The two are timed in fresh processes, one per
checkout in each of ROUNDS rounds, as ``_bench.in_rounds`` alternates
them, and the file gets both sets of numbers.  A number is the median over
rounds of each process's median.
The core's speed differs by up to 1.5x between processes, so times taken
in different processes are not compared; ratios to a bare loop timed in
the same process are.
BLAS is pinned to one thread, as in perfbench.  The file goes to the root
of this checkout.
"""

from __future__ import annotations

from _bench import (ROOT, commit, environment, in_rounds,  # first: pins BLAS
                    measured_in_fresh_process, over_rounds, swapped)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

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


def bare_loop(kind: str, problem, M: np.ndarray, gamma: float, z0: np.ndarray, iters: int):
    """``kind``'s arithmetic in plain numpy, mixing by the dense M (W, or
    adogt's M_T): the floor a library step of ``kind`` can approach.

    The field is the library's formula on whole rows,
    ([y x] - (z - [a b]) [-mu, +mu]) [+1, -1], every result goes into a
    preallocated array, gamma is a 0-d array and dogda's 2 g is g + g, as in
    the library's steps; the loop calls no library code.  Returns the final z.
    """
    gamma = np.array(gamma, dtype=np.float64)
    n, p, mu = problem.n, problem.p, problem.mu
    centers = np.hstack([problem.centers_a, problem.centers_b])
    slopes = np.tile(np.concatenate([-mu * np.ones(p), mu * np.ones(p)]), (n, 1))
    signs = np.tile(np.concatenate([np.ones(p), -np.ones(p)]), (n, 1))
    swap = np.arange(n)[:, None] * (2 * p) + np.concatenate([np.arange(p, 2 * p), np.arange(p)])

    def field(z, out):
        np.subtract(z, centers, out)
        np.multiply(out, slopes, out)
        np.subtract(z.take(swap), out, out)
        np.multiply(out, signs, out)

    tracking, optimistic = kind in ("dogt", "adogt"), kind == "dogda"
    z, d, g, g_prev, r = z0.copy(), *(np.zeros_like(z0) for _ in range(4))
    field(z, g)
    g_prev[...] = g
    if tracking:
        r[...] = g
    for _ in range(iters):
        if tracking:
            np.add(r, g, d)
            np.subtract(d, g_prev, d)
            np.multiply(gamma, d, d)
        elif optimistic:
            np.add(g, g, d)
            np.subtract(d, g_prev, d)
            np.multiply(gamma, d, d)
        else:
            np.multiply(gamma, g, d)
        np.subtract(z, d, d)
        np.matmul(M, d, z)
        g, g_prev = g_prev, g
        field(z, g)
        if tracking:
            np.add(r, g, d)
            np.subtract(d, g_prev, d)
            np.matmul(M, d, r)
    return z


def dogt_stack(problem, W: np.ndarray, gamma: float, z0: np.ndarray, count: int):
    """``count`` consecutive dogt states from z0, stepped one at a time in
    plain numpy, as one stack of the arrays ``metric_record`` reads."""
    z, g = [z0], [problem.gradient_field(z0)]
    z_prev, g_prev, r = [z0], [g[0]], [g[0]]
    for _ in range(count - 1):
        z_new = W @ (z[-1] - gamma * (r[-1] + g[-1] - g_prev[-1]))
        g_new = problem.gradient_field(z_new)
        r.append(W @ (r[-1] + g_new - g[-1]))
        z_prev.append(z[-1])
        g_prev.append(g[-1])
        z.append(z_new)
        g.append(g_new)
    return SimpleNamespace(z=np.stack(z), z_prev=np.stack(z_prev), grad=np.stack(g),
                           grad_prev=np.stack(g_prev), tracker=np.stack(r),
                           iteration=tuple(range(count)))


def timed_steps(algorithms, kind: str, job) -> tuple[int, float]:
    """The step calls one call of ``job`` makes, and the microseconds per
    step it spends outside them: the run's own work (tests, records, rolls),
    with the cost of the timing wrapper's call and clock reads.  ``kind``'s
    step function is wrapped on the module, where ``run`` looks it up."""
    name, calls, clock = f"{kind}_step", [], time.perf_counter
    step = getattr(algorithms, name)

    def timed(*args):
        start = clock()
        state = step(*args)
        calls.append(clock() - start)
        return state

    with swapped(algorithms, **{name: timed}):
        start = clock()
        job()
        total = clock() - start
    return len(calls), (total - sum(calls)) / len(calls) * 1e6


def record_layer_calls(algorithms, metrics, verify, problem, mixing, gamma, z0) -> dict:
    """Per-call times of the record layer: one ``metric_record`` on STACK
    consecutive dogt states, and ``verify``'s e and E of a trace of every
    step of ITERS."""
    stack = dogt_stack(problem, np.array(mixing.W), gamma, z0, STACK)
    rows = metrics.record_table(STACK, problem.p + problem.d)
    L, z_star = problem.smoothness_constant(), problem.saddle_point()
    residuals = metrics.residual(stack.z, z_star)
    trace = algorithms.run("dogt", problem, mixing, gamma, z0, max_iters=ITERS, tol=0.0)
    return {f"metrics.metric_record_of_{STACK}": call_us(lambda: metrics.metric_record(
                rows, stack, residuals, gamma, L, mixing.rho, z_star)),
            f"verify.field_at_average_of_{ITERS + 1}_rows": call_us(
                lambda: verify.field_at_average(trace))}


def bare_jobs(algorithms, graph, metrics, exp, iters: int) -> dict:
    """Each method's bare loop over ``iters`` iterations as a job, mixing by
    the dense W (adogt's by M_T).  Each loop's final residual must equal that
    of its ``run`` at tol 0 to 1e-9 relative, or no numbers are taken."""
    algos = {a.name: a for a in exp.algorithms}
    problem, z0, z_star = exp.problem, exp.z0, exp.problem.saddle_point()
    adogt = algos["adogt"].mixing
    dense = {kind: np.array(exp.W.W) for kind in METHODS}
    dense["adogt"] = graph.momentum_gossip(partial(np.matmul, exp.W.W), adogt.eta,
                                           adogt.rounds, np.eye(problem.n))
    jobs = {}
    for kind in METHODS:
        a = algos[kind]
        jobs[kind] = partial(bare_loop, kind, problem, dense[kind], a.gamma, z0, iters)
        bare = metrics.residual(jobs[kind](), z_star)
        library = algorithms.run(kind, problem, a.mixing, a.gamma, z0, max_iters=iters,
                                 tol=0.0, record_every=10).records[-1].residual
        if abs(bare - library) > 1e-9 * library:
            raise SystemExit(f"bare {kind} loop residual {bare!r} != library {library!r}")
    return jobs


def measure(src: Path) -> dict:
    """The numbers of the netsaddle in ``src``, timed in this process."""
    sys.path.insert(0, str(src))
    from netsaddle import algorithms, cli, graph, metrics, verify

    exp = cli.resolve_experiment(cli.load_config(CONFIG))
    algos = {a.name: a for a in exp.algorithms}
    problem, W, z0 = exp.problem, exp.W, exp.z0
    z_star = problem.saddle_point()
    jobs = {}
    for kind, job in bare_jobs(algorithms, graph, metrics, exp, ITERS).items():
        a = algos[kind]
        for setting, kwargs in SETTINGS.items():
            jobs[setting, kind] = partial(algorithms.run, kind, problem, a.mixing, a.gamma, z0,
                                          max_iters=ITERS, tol=0.0, **kwargs)
        jobs["bare", kind] = job
    jobs.update({("compare", kind): partial(algorithms.run, kind, problem, algos[kind].mixing,
                                            algos[kind].gamma, z0, **COMPARE)
                 for kind in METHODS})
    # Repeats outermost, so a drift in core speed reaches every job alike;
    # each method's runs and its bare loop are timed one after another.
    times = {key: [] for key in jobs}
    for _ in range(REPEATS):
        for key, job in jobs.items():
            start = time.perf_counter()
            job()
            times[key].append(time.perf_counter() - start)
    compare = {kind: {"ms_per_run": statistics.median(times.pop(("compare", kind))) * 1e3,
                      "iterations": jobs["compare", kind]().iterations,
                      "steps_taken": timed_steps(algorithms, kind, jobs["compare", kind])[0]}
               for kind in METHODS}
    outside = {setting: {kind: statistics.median(
        timed_steps(algorithms, kind, jobs[setting, kind])[1] for _ in range(REPEATS))
        for kind in METHODS} for setting in SETTINGS}
    # A ratio is the median over repeats of the run's time over that of the
    # bare loop timed next to it, which saw about the same speed of the core.
    ratios = {setting: {kind: statistics.median(
        run / bare for run, bare in zip(times[setting, kind], times["bare", kind]))
        for kind in METHODS} for setting in SETTINGS}
    us = {key: statistics.median(t) / ITERS * 1e6 for key, t in times.items()}
    bare = {kind: us.pop(("bare", kind)) for kind in METHODS}
    per_iter = {setting: {kind: us[setting, kind] for kind in METHODS} for setting in SETTINGS}
    stack = np.repeat(z0[None], STACK, axis=0)
    return {
        "us_per_iteration_in_run": per_iter,
        "us_per_step_outside_steps": outside,
        "compare_runs": compare,
        "bare_us_per_iteration": bare,
        "ratio_to_bare": ratios,
        "us_per_call": {"gradient_field": call_us(lambda: problem.gradient_field(z0)),
                        "stacked_gradient_field": call_us(
                            lambda: algorithms.stacked_gradient_field(problem, z0)),
                        "W.mix": call_us(lambda: W.mix(z0)),
                        "metrics.residual": call_us(lambda: metrics.residual(z0, z_star)),
                        f"metrics.residual_per_state_of_{STACK}": call_us(
                            lambda: metrics.residual(stack, z_star)) / STACK,
                        **record_layer_calls(algorithms, metrics, verify, problem,
                                             algos["dogt"].mixing, algos["dogt"].gamma, z0)},
    }


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
    samples = in_rounds(ROUNDS, list(checkouts), lambda name: measured_in_fresh_process(
        __file__, checkouts[name]))
    result = {
        "environment": environment(),
        "config": "configs/ring16_compare.yaml, every method run at tol 0, and in "
                  "compare_runs as compare runs it",
        "compare_run": COMPARE,
        "iterations_per_run": ITERS,
        "rounds": ROUNDS,
        # Each number with its spread over rounds, but the compare runs, timed
        # as whole runs, as medians.
        "checkouts": {name: {"commit": commit(checkouts[name]), **over_rounds(
                          rows, compare_runs=partial(over_rounds, leaf=statistics.median))}
                      for name, rows in samples.items()},
    }
    (ROOT / "BENCH_hotloop.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
