"""The benchmark's traced mode still finds every wrap point in the package.

``perfbench/tracing.py`` swaps module attributes of netsaddle for timing
wrappers.  A refactor that renames or stops calling one of them breaks the
traced benchmark; this test catches that without running the benchmark.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
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
