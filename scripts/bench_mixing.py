#!/usr/bin/env python3
"""Time one round of mixing, dense and gathered, in two checkouts and write BENCH_mixing.json.

    python scripts/bench_mixing.py BASELINE_CHECKOUT [--max-n 4096]

For Metropolis weights on rings and on random graphs (average degree about
10, graph seed 1000) with n from 16 to max-n (powers of two, and 384 near
the rings' crossover), it records the time of one mix of an n x 4 message
(p + d of every shipped config) as the dense product W @ m and as the CSR
gather, which of the two ``MixingMatrix.mix`` picked, and the time to build
the weights, for this checkout and for BASELINE_CHECKOUT, another checkout
of this repository such as a clone at an earlier commit.

Both checkouts' ``graph`` modules are loaded into this one process, and
their mixes are timed interleaved: in each of ROUNDS rounds, one timed
batch of each path of each checkout in turn, the order reversed every
other round (``_bench.in_rounds``), so that both see the same machine
state; the file gets the median over rounds and its interquartile
range.  The weights are built once per checkout and graph; in this
checkout their rho_W comes from the closed-form spectrum on a ring and
from Lanczos over W's mix on a random graph, so no W is decomposed.  It
also records the wall time of ``netsaddle run`` in this checkout on the
benchmark's random1024-dogt config (workload seed 0), once as shipped and
once with every mix forced dense, plus the core count, the BLAS threads
and the versions.  BLAS is pinned to one thread, as in perfbench.  The
file goes to the root of this checkout.
"""

from __future__ import annotations

from _bench import (ROOT, commit, environment, in_rounds, spread,  # first: pins BLAS
                    swapped, write_config)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from netsaddle import cli, graph  # noqa: E402
from workloads import random1024_dogt  # noqa: E402

SIZES = (16, 32, 64, 128, 256, 384, 512, 1024, 2048, 4096)
WIDTH = 4
ROUNDS = 7
RUN_REPEATS = 5


def graph_module(checkout: Path, name: str):
    """The checkout's ``netsaddle/graph.py``, loaded as a module of its own;
    it imports nothing from the package."""
    spec = importlib.util.spec_from_file_location(name, checkout / "src/netsaddle/graph.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)   # as dataclasses need
    spec.loader.exec_module(module)
    return module


def mixes(module, kind: str, n: int, p: float | None) -> dict:
    """One checkout's weights on the graph: their build time, both mixes and
    the path its ``MixingMatrix`` picked."""
    topology = module.build_topology(kind, n, seed=1000, edge_probability=p)
    start = time.perf_counter()
    W = module.metropolis_weights(topology)
    weights_s = time.perf_counter() - start
    dense = np.array(W.W)
    gathered = isinstance(W.mix, module.CSRMix)
    return {"weights_s": weights_s, "path": "csr" if gathered else "dense",
            "nnz": int(np.count_nonzero(dense)), "dense": dense.__matmul__,
            "csr": W.mix if gathered else module.CSRMix(dense)}


def mixing_rows(modules: dict, max_n: int) -> list[dict]:
    rows = []
    for n in (n for n in SIZES if n <= max_n):
        for kind, p in (("ring", None), ("random", min(0.5, 10.0 / n))):
            built = {name: mixes(module, kind, n, p) for name, module in modules.items()}
            m = np.random.default_rng(0).standard_normal((n, WIDTH))
            timers = {(name, path): timeit.Timer(lambda f=b[path]: f(m))
                      for name, b in built.items() for path in ("dense", "csr")}
            numbers = {key: timer.autorange()[0] for key, timer in timers.items()}
            samples = in_rounds(ROUNDS, list(timers), lambda key: timers[key].timeit(
                numbers[key]) / numbers[key] * 1e6, note=None)
            rows.append({
                "graph": kind, "n": n, "edge_probability": p,
                "nnz": built["this"]["nnz"],
                **{field: {name: built[name][field] for name in built}
                   for field in ("path", "weights_s")},
                **{f"{path}_us": {name: spread(samples[name, path]) for name in built}
                   for path in ("dense", "csr")},
            })
            print(json.dumps(rows[-1]), flush=True)
    return rows


def run_wall_s(config_path: Path, out_dir: Path) -> list[float]:
    times = []
    for _ in range(RUN_REPEATS):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"netsaddle run exited {code}")
    return times


def end_to_end() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config_path = write_config(Path(tmp) / "random1024_dogt.yaml", random1024_dogt(0))
        shipped = run_wall_s(config_path, Path(tmp) / "out")
        # The same command with the cost rule answering "dense" for every W.
        with swapped(graph, _gathers=lambda n, nnz: False):
            dense = run_wall_s(config_path, Path(tmp) / "out")
    return {"config": "perfbench/workloads.py random1024_dogt(0): run, 500 iterations",
            "wall_s": statistics.median(shipped), "wall_s_samples": shipped,
            "wall_s_dense_mix": statistics.median(dense), "wall_s_dense_mix_samples": dense}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="another checkout to time against this one")
    parser.add_argument("--max-n", type=int, default=4096,
                        help="largest graph size (default 4096)")
    args = parser.parse_args(argv)
    checkouts = {"baseline": args.baseline.resolve(), "this": ROOT}
    modules = {name: graph_module(checkout, f"graph_{name}")
               for name, checkout in checkouts.items()}
    result = {
        "environment": environment(),
        "commits": {name: commit(checkout) for name, checkout in checkouts.items()},
        "mix": {"message_width": WIDTH, "rounds": ROUNDS,
                "rows": mixing_rows(modules, args.max_n)},
        "run_random1024_dogt": end_to_end(),
    }
    (ROOT / "BENCH_mixing.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
