"""The bench scripts still run on this checkout's package and give the keys
of their committed BENCH files.

Each case runs in a fresh process, so that the BLAS pinning of
``scripts/_bench.py`` stays out of the test process, and at a size that
takes well under a second: one ``--measure`` process of bench_scaling and
bench_compare, bench_hotloop's bare loops (gated on their final residual
against ``run``'s) and bench_mixing's weights and mixes of one graph.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def committed(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def printed(args: list) -> dict:
    """The JSON a fresh Python process prints last, once it exited 0."""
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def script_snippet(code: str) -> list:
    """``python -c`` arguments that run ``code`` with the scripts importable."""
    return ["-c", f"import json, sys\nsys.path[:0] = [{str(SCRIPTS)!r}, {str(ROOT / 'src')!r}]\n"
                  + code]


@pytest.mark.parametrize("kind, n", [("ring", 16), ("random", 64)])
def test_scaling_measures_one_case(kind, n):
    case = printed([SCRIPTS / "bench_scaling.py", "--measure", ROOT / "src", kind, n, "adogt"])
    cases = committed("scaling")["checkouts"]["this"]["cases"]
    assert {tuple(c) for c in cases.values()} == {tuple(case)}
    assert all(case[phase] > 0 for phase in ("topology_s", "weights_s", "exchange_s"))
    assert case["eigvalsh_calls"] == 0 and case["T"] >= 1
    # a ring's rho_W is in closed form; a random W's comes from Lanczos
    assert (case["lanczos_steps"] > 0) == (kind == "random")


def test_compare_measures_one_lane():
    measured = printed([SCRIPTS / "bench_compare.py", "--measure", ROOT / "src", "one_lane"])
    setting = committed("compare")["change"]["settings"]["one_lane"]
    assert list(measured) == list(setting)
    assert measured["lanes"] == 1 and list(measured["lane_busy"]) == ["0"]
    assert {kind: list(m) for kind, m in measured["methods"].items()} == {
        kind: list(m) for kind, m in setting["methods"].items()}


def test_hotloop_bare_loops_match_run():
    # bare_jobs exits unless each loop's final residual equals run()'s to 1e-9.
    kinds = printed(script_snippet(
        "import bench_hotloop\n"
        "from netsaddle import algorithms, cli, graph, metrics\n"
        "exp = cli.resolve_experiment(cli.load_config(bench_hotloop.CONFIG))\n"
        "print(json.dumps(list(bench_hotloop.bare_jobs(algorithms, graph, metrics, exp, 100))))"))
    assert kinds == list(committed("hotloop")["checkouts"]["this"]["bare_us_per_iteration"])


def test_mixing_builds_and_mixes_ring16():
    built = printed(script_snippet(
        "import numpy as np, bench_mixing\n"
        "module = bench_mixing.graph_module(bench_mixing.ROOT, 'graph_this')\n"
        "b = bench_mixing.mixes(module, 'ring', 16, None)\n"
        "m = np.random.default_rng(0).standard_normal((16, bench_mixing.WIDTH))\n"
        "b['mix_difference'] = float(np.abs(b.pop('dense')(m) - b.pop('csr')(m)).max())\n"
        "print(json.dumps(b))"))
    row = committed("mixing")["mix"]["rows"][0]
    assert (row["graph"], row["n"]) == ("ring", 16)
    assert {"path", "weights_s", "nnz"} <= set(row) and built["nnz"] == row["nnz"]
    assert built["path"] == row["path"]["this"]
    assert built["mix_difference"] <= 1e-12
