#!/usr/bin/env python3
"""Time one round of mixing, dense and gathered, and write BENCH_mixing.json.

    python scripts/bench_mixing.py [--max-n 4096]

For Metropolis weights on rings and on random graphs (average degree about
10, graph seed 1000) with n from 16 to max-n (powers of two, and 384 near
the rings' crossover), it records the time of one mix of an n x 4 message
(p + d of every shipped config) as the dense product W @ m and as the CSR
gather, which of the two ``MixingMatrix.mix`` picked, and the time to build
the weights (dominated by W's one dense eigendecomposition: at n = 4096
about 10 s and a peak RSS of 0.33 GB on a 2-vCPU Xeon VM with one BLAS
thread).  It also records the wall time of ``netsaddle run`` on the
benchmark's random1024-dogt config (workload seed 0), once as shipped and
once with every mix forced dense, plus the core count and the BLAS
threads.  BLAS is pinned to one thread, as in perfbench.  The file goes to
the root of the checkout.
"""

from __future__ import annotations

from _bench import ROOT, environment  # first: pins BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from netsaddle import cli, graph  # noqa: E402
from workloads import random1024_dogt  # noqa: E402

SIZES = (16, 32, 64, 128, 256, 384, 512, 1024, 2048, 4096)
WIDTH = 4
MIX_REPEATS = 5
RUN_REPEATS = 5


def mix_us(fn, m) -> float:
    """Median time of one call in microseconds, over MIX_REPEATS timed batches."""
    timer = timeit.Timer(lambda: fn(m))
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(MIX_REPEATS, number)) / number * 1e6


def mixing_rows(max_n: int) -> list[dict]:
    rows = []
    for n in (n for n in SIZES if n <= max_n):
        for kind, p in (("ring", None), ("random", min(0.5, 10.0 / n))):
            topology = graph.build_topology(kind, n, seed=1000, edge_probability=p)
            start = time.perf_counter()
            W = graph.metropolis_weights(topology)
            weights_s = time.perf_counter() - start
            m = np.random.default_rng(0).standard_normal((n, WIDTH))
            csr = W.mix if isinstance(W.mix, graph.CSRMix) else graph.CSRMix(W.W)
            rows.append({
                "graph": kind, "n": n, "edge_probability": p,
                "nnz": int(np.count_nonzero(W.W)),
                "path": "csr" if W.mix is csr else "dense",
                "dense_us": mix_us(W.W.__matmul__, m),
                "csr_us": mix_us(csr, m),
                "weights_s": weights_s,
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
        config_path = Path(tmp) / "random1024_dogt.yaml"
        config_path.write_text(yaml.safe_dump(random1024_dogt(0), sort_keys=False))
        shipped = run_wall_s(config_path, Path(tmp) / "out")
        # The same command with the cost rule answering "dense" for every W.
        gathers = graph._gathers
        graph._gathers = lambda n, rows: False
        try:
            dense = run_wall_s(config_path, Path(tmp) / "out")
        finally:
            graph._gathers = gathers
    return {"config": "perfbench/workloads.py random1024_dogt(0): run, 500 iterations",
            "wall_s": statistics.median(shipped), "wall_s_samples": shipped,
            "wall_s_dense_mix": statistics.median(dense), "wall_s_dense_mix_samples": dense}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4096,
                        help="largest graph size (default 4096)")
    args = parser.parse_args(argv)
    result = {
        "environment": environment(python=False),
        "mix": {"message_width": WIDTH, "rows": mixing_rows(args.max_n)},
        "run_random1024_dogt": end_to_end(),
    }
    (ROOT / "BENCH_mixing.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
