"""The benchmark still finds what it uses of the package.

``perfbench/tracing.py`` swaps module attributes of netsaddle for timing
wrappers, and ``perfbench/workloads.py`` writes the configs it runs.  A
refactor that renames or stops calling a wrap point, or drops a config key
a workload sets, breaks the benchmark; these tests catch that without
running it.
"""

import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from netsaddle import cli  # noqa: E402
from netsaddle.algorithms import run  # noqa: E402
from netsaddle.graph import build_topology, metropolis_weights  # noqa: E402


def test_traced_adogt_run_records_steps_and_accelerated_matrix(ring16_problem, ring16_W,
                                                               z0_16):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        trace = run("adogt", ring16_problem, ring16_W, 0.05, z0_16,
                    max_iters=5, tol=0.0, T=4)
    names = [span[0] for span in tracer.spans]
    assert names.count("algorithms.step") == trace.iterations == 5
    assert names.count("graph.accelerated_matrix") >= 1
    assert names.count("problem.gradient_field") == 6    # init_state + one per step


def test_traced_weights_record_one_spectral_gap():
    topology = build_topology("ring", 16)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        metropolis_weights(topology)
    names = [span[0] for span in tracer.spans]
    assert names.count("graph.spectral_gap") == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_load_and_resolve(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    for seed in range(workloads.REFERENCE_SEEDS):
        path = tmp_path / f"{seed}.yaml"
        config = workload.make_config(seed)
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        exp = cli.resolve_experiment(cli.load_config(path))
        assert exp.record_states == config["run"].get("record_states", False)
