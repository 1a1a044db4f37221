"""Self-test of the benchmark; not part of the package's test suite.

    python -m pytest perfbench/tests -q

Runs every workload at a tiny length (about a minute in all on two
cores), so it checks the benchmark's plumbing, not its timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from netsaddle.verify import LEMMA_IDS  # noqa: E402
from workloads import SPEC, WORKLOADS, workload_seed  # noqa: E402

# Times reported off the result line, only by the workloads that have them.
WHERE_CALLED = {
    "ring16-compare": {"graph.accelerated_matrix_s", "metrics.fit_linear_rate_s",
                       "algorithms.bare_loop_us"},
    "ring16-verify": {"graph.accelerated_matrix_s"} | {f"verify.check_s.{i}" for i in LEMMA_IDS},
    "random1024-dogt": set(),
}


def run_bench(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name, config", [("ring16-compare", "ring16_compare.yaml"),
                                          ("ring16-verify", "ring16_verify.yaml")])
def test_default_seed_gives_the_committed_configs(name, config):
    committed = yaml.safe_load((ROOT / "configs" / config).read_text())
    assert WORKLOADS[name].make_config(workload_seed(0)) == committed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_appears_with_its_unit(workload, trace):
    seed = 5
    result = last_line(run_bench(ROOT, workload, seed=seed, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        full = json.loads((ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace1.json")
                          .read_text())
        assert set(full["where_called"]) == WHERE_CALLED[workload]
        assert all(m["value"] > 0 for m in full["where_called"].values())


def copy_checkout(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_value_counts_as_failed(tmp_path):
    copy_checkout(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "reference" / "ring16-verify.json.gz"
    reference = checks.read_reference(path)
    row = reference["seeds"]["0"]["csv"]["check_margins.csv"]["rows"][1237]
    row[2] *= 1.0 + 1e-5                                 # a margin, beyond RTOL
    checks.write_reference(path, reference)
    result = last_line(run_bench(tmp_path, "ring16-verify", seed=0, trace=0))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_without_sources_it_fails_without_a_result(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, "ring16-compare", seed=0, trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
