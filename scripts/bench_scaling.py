#!/usr/bin/env python3
"""Time the set-up of each method on a ladder of graph sizes and write BENCH_scaling.json.

    python scripts/bench_scaling.py BASELINE_CHECKOUT

For rings and random graphs (average degree about 10, graph seed 1000)
with n in SIZES, and for each of the four methods (adogt at ``T: auto``,
the others at gamma 0.1 on Metropolis weights), it times the set-up that
``netsaddle run`` makes before its steps, in three phases:

- topology: ``build_topology``;
- weights: the weight builder, which makes W and rho_W: from the spectrum
  in closed form on a ring, and by Lanczos over W's mix on a random graph;
- exchange: the rest of ``cli.resolve_experiment`` (the problem, ``T:
  auto`` and adogt's exchange, built once) plus a one-step
  ``algorithms.run``, which mixes with the resolved mixing; where W mixes
  dense, adogt's first mix builds M_T.  adogt's exchange takes rho_M from
  W's closed-form spectrum on a ring, and on a random graph by Lanczos
  over the exchange, one recurrence per T that ``T: auto`` tries.

Beside them it records the number of ``np.linalg.eigvalsh`` calls in one
set-up (each an n x n eigendecomposition, which a checkout before the
Lanczos route for rho_M made for adogt on a random graph), the most
Lanczos steps one recurrence took (the largest tridiagonal given to
``np.linalg.eigh``, which only ``graph._lanczos_gap`` calls), adogt's T
and the peak RSS of the process.  Every (graph, method) case runs in a
fresh process, which makes the set-up REPEATS times (once from n = 4096
on, where such a checkout's eigendecomposition takes about 6 s) and keeps
the median of each phase; its peak RSS is the process's.  The topology and
weights phases and every set-up (``resolve_experiment``) are timed by the
spans of perfbench's tracer (``perfbench/tracing.py``), which wraps those
calls from outside the package.

The GATES are timed in this checkout alone, whose structured graphs need
no n x n array (a dense W of ring-65536 would take 34 GB): a 100-step
``netsaddle run`` of dogt on ring-65536, its set-up (``resolve_experiment``)
timed, and the ``resolve_experiment`` of adogt at ``T: auto`` on
ring-65536, each in a fresh process per round, with the process's peak RSS.

BASELINE_CHECKOUT is another checkout of this repository, such as a clone
at an earlier commit.  It must be at dcd79a7 or later, the baseline
``scripts/bench_hotloop.py`` needs too; the measuring code calls ``run()``
with each method's resolved mixing (``ResolvedAlgorithm.mixing``) in both
checkouts.  The two are timed in alternating fresh processes, one per
checkout and case in each of ROUNDS rounds, as ``_bench.in_rounds``
alternates them, and the file gets both sets of numbers: for each, the
median over rounds and its interquartile range.  BLAS is pinned
to one thread, as in perfbench, and the core count is recorded.  The file
goes to the root of this checkout.
"""

from __future__ import annotations

from _bench import (ROOT, commit, environment, first, in_rounds,  # first: pins BLAS
                    measured_in_fresh_process, over_rounds, swapped, write_config)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import Tracer, traced  # noqa: E402

SIZES = (16, 256, 1024, 2048, 4096)
KINDS = ("ring", "random")
METHODS = ("dgda", "dogda", "dogt", "adogt")
PHASES = ("topology_s", "weights_s", "exchange_s")
REPEATS = 3
ROUNDS = 5
GATES = {"ring-65536/dogt-run-100": ("ring", 65536, "dogt", 100),
         "ring-65536/adogt-resolve": ("ring", 65536, "adogt", None)}
GATE_ROUNDS = 3


def case_config(kind: str, n: int, method: str, max_iters: int = 1) -> dict:
    algorithm = {"name": method, "gamma": 0.1}
    if method == "adogt":
        algorithm["T"] = "auto"
    graph = {"topology": kind, "n": n}
    if kind == "random":
        graph.update(seed=1000, edge_probability=min(0.5, 10.0 / n))
    return {"problem": {"type": "bilinear_quadratic", "n": n, "p": 2, "d": 2, "mu": 0.1,
                        "seed": 7},
            "graph": graph, "algorithm": algorithm,
            "run": {"max_iters": max_iters, "tol": 0.0}}


def span_s(tracer: Tracer, name: str) -> float:
    """The seconds of every span of ``name`` the tracer holds."""
    return sum(end - start for span, _, start, end in tracer.spans if span == name) / 1e9


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(src: Path, kind: str, n: int, method: str) -> dict:
    """One case's set-up, made REPEATS times with the netsaddle in ``src``."""
    sys.path.insert(0, str(src))
    from netsaddle import algorithms, cli

    decompositions, tridiagonals = [], []
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh

    def counted(*args, **kwargs):
        decompositions.append(None)
        return eigvalsh(*args, **kwargs)

    def sized(a, *args, **kwargs):
        tridiagonals.append(len(a))
        return eigh(a, *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        config = cli.load_config(write_config(Path(tmp) / "config.yaml",
                                              case_config(kind, n, method)))
    samples = {phase: [] for phase in PHASES}
    calls = []
    with swapped(np.linalg, eigvalsh=counted, eigh=sized):
        for _ in range(REPEATS if n < 4096 else 1):
            decompositions.clear()
            tridiagonals.clear()
            with traced(Tracer()) as tracer:
                start = time.perf_counter()
                exp = cli.resolve_experiment(config)
                algo = exp.algorithms[0]
                algorithms.run(algo.name, exp.problem, algo.mixing, algo.gamma, exp.z0,
                               max_iters=1, tol=0.0)
                total = time.perf_counter() - start
            topology = span_s(tracer, "graph.build_topology")
            weights = span_s(tracer, "graph.weights")
            for phase, seconds in zip(PHASES, (topology, weights, total - topology - weights)):
                samples[phase].append(seconds)
            calls.append(len(decompositions))
    return {**{phase: statistics.median(v) for phase, v in samples.items()},
            "peak_rss_mb": peak_rss_mb(),
            "eigvalsh_calls": max(calls),
            "lanczos_steps": max(tridiagonals, default=0),
            "T": algo.mixing.rounds if algo.name == "adogt" else None}


def measure_gate(src: Path, gate: str) -> dict:
    """One gate with the netsaddle in ``src``: the run's set-up and wall time,
    or the set-up alone, and the peak RSS of the process."""
    sys.path.insert(0, str(src))
    from netsaddle import cli

    kind, n, method, steps = GATES[gate]
    numbers = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / "config.yaml", case_config(kind, n, method, steps or 1))
        with traced(Tracer()) as tracer:
            if steps is None:
                numbers["T"] = cli.resolve_experiment(cli.load_config(path)).algorithms[0] \
                    .mixing.rounds
            else:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", str(path),
                                     "--out", str(Path(tmp) / "out")])
                numbers["wall_s"] = time.perf_counter() - start
                if code != 0:
                    raise SystemExit(f"netsaddle run exited {code}")
    return {"setup_s": span_s(tracer, "cli.resolve_experiment"), **numbers,
            "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--measure"]:   # one timed process, started below
        if len(argv) == 3:
            print(json.dumps(measure_gate(Path(argv[1]), argv[2])))
        else:
            src, kind, n, method = argv[1:]
            print(json.dumps(measure(Path(src), kind, int(n), method)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="another checkout to time against this one")
    args = parser.parse_args(argv)

    checkouts = {"baseline": args.baseline.resolve(), "this": ROOT}
    cases = [(kind, n, method) for n in SIZES for kind in KINDS for method in METHODS]
    samples = in_rounds(ROUNDS, [(case, name) for case in cases for name in checkouts],
                        lambda key: measured_in_fresh_process(__file__, checkouts[key[1]],
                                                              *key[0]))
    gates = in_rounds(GATE_ROUNDS, list(GATES),
                      lambda gate: measured_in_fresh_process(__file__, ROOT, gate))
    result = {
        "environment": environment(),
        "phases": {"topology_s": "build_topology",
                   "weights_s": "the weight builder: W and rho_W",
                   "exchange_s": "the rest of resolve_experiment and a one-step run()"},
        "cases": "kind-n/method, configured by case_config in scripts/bench_scaling.py",
        "repeats_per_process": {"n < 4096": REPEATS, "n >= 4096": 1},
        "rounds": ROUNDS,
        "checkouts": {name: {"commit": commit(checkout),
                             "cases": {f"{kind}-{n}/{method}": over_rounds(
                                 samples[(kind, n, method), name],
                                 eigvalsh_calls=max, lanczos_steps=max, T=first)
                                 for kind, n, method in cases}}
                      for name, checkout in checkouts.items()},
        "gates": {"rounds": GATE_ROUNDS,
                  "bounds": {"ring-65536/dogt-run-100": "setup_s < 2, peak_rss_mb < 300",
                             "ring-65536/adogt-resolve": "setup_s < 10"},
                  "this": {gate: over_rounds(rows, T=first) for gate, rows in gates.items()}},
    }
    (ROOT / "BENCH_scaling.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
