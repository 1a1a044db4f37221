"""The benchmark still finds what it uses of the package.

``perfbench/tracing.py`` swaps module attributes of netsaddle for timing
wrappers, and ``perfbench/workloads.py`` writes the configs it runs.  A
refactor that renames or stops calling a wrap point, or drops a config key
a workload sets, breaks the benchmark; these tests catch that without
running it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from netsaddle import cli  # noqa: E402
from netsaddle.algorithms import run  # noqa: E402
from netsaddle.graph import CSRMix, build_topology, metropolis_weights  # noqa: E402
from netsaddle.problem import make_bilinear_quadratic  # noqa: E402
from netsaddle.verify import LEMMA_IDS  # noqa: E402


def test_traced_adogt_run_records_steps_and_accelerated_matrix(ring16_problem, ring16_W,
                                                               z0_16):
    # run() mixes with the exchange it is given; cli builds it, as
    # resolve_experiment does, through the name the tracer wraps.
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        exchange = cli.accelerated_matrix(ring16_W, 4)
        trace = run("adogt", ring16_problem, exchange, 0.05, z0_16, max_iters=5, tol=0.0)
    names = [span[0] for span in tracer.spans]
    assert names.count("algorithms.step") == trace.iterations == 5
    assert names.count("graph.accelerated_matrix") == 1
    assert names.count("problem.gradient_field") == 6    # the start's + one per step


def test_traced_auto_T_records_one_accelerated_matrix_per_adogt(tmp_path):
    # T: auto finds its rounds and rho_M in the accelerated_matrix call that
    # builds the exchange: a compare records one span per adogt algorithm, at
    # T: auto as at a fixed T, and verify's T2 on a dogt trace records one.
    common = {"problem": {"type": "bilinear_quadratic", "n": 16, "p": 2, "d": 2, "mu": 0.1,
                          "seed": 7},
              "graph": {"topology": "ring", "n": 16},
              "run": {"max_iters": 20, "tol": 0.0}}
    compare = {**common, "algorithms": [{"name": "dogt", "gamma": 0.1},
                                        {"name": "adogt", "gamma": 0.1, "T": "auto"},
                                        {"name": "adogt", "gamma": "auto", "T": "auto"},
                                        {"name": "adogt", "gamma": 0.1, "T": 7}]}
    verify = {**common, "algorithm": {"name": "dogt", "gamma": "auto"}}
    for command, config, spans in (("compare", compare, 3), ("verify", verify, 1)):
        path = tmp_path / f"{command}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == cli.EXIT_OK
        names = [span[0] for span in tracer.spans]
        assert names.count("graph.accelerated_matrix") == spans, command


@pytest.mark.parametrize("graph", ["ring16", "gathered"])
@pytest.mark.parametrize("kind", ["dgda", "dogda", "dogt", "adogt"])
def test_traced_run_records_a_step_and_a_field_per_iteration(kind, graph, ring16_problem,
                                                             ring16_W, z0_16):
    # perfbench reads its step-time percentiles off the algorithms.step spans
    # (and fails on none) and counts problem.gradient_field calls: every
    # method must call its *_step and stacked_gradient_field through the
    # module, once per iteration, plus the start's field, whether W mixes
    # dense (ring-16) or gathers (a random n = 512 graph), over several batches.
    if graph == "ring16":
        problem, W, z0, max_iters = ring16_problem, ring16_W, z0_16, 120
    else:
        problem = make_bilinear_quadratic(512, 2, 2, 0.1, seed=7)
        W = metropolis_weights(build_topology("random", 512, seed=1000, edge_probability=0.02))
        z0, max_iters = np.random.default_rng(8).standard_normal((512, 4)), 40
        assert isinstance(W.mix, CSRMix)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        mixing = cli.accelerated_matrix(W, 3) if kind == "adogt" else W
        trace = run(kind, problem, mixing, 0.05, z0, max_iters=max_iters, tol=0.0,
                    record_every=7)
    names = [span[0] for span in tracer.spans]
    assert trace.iterations == max_iters
    assert names.count("algorithms.step") == max_iters
    assert names.count("problem.gradient_field") == max_iters + 1


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
        assert exp.config.run.record_states == config["run"].get("record_states")


class _RegisteringTracer(tracing.Tracer):
    """A Tracer that also keeps the name of every wrapper it hands out."""

    def __init__(self):
        super().__init__()
        self.registered = set()

    def wrap(self, name, fn, on_result=None):
        self.registered.add(name)
        return super().wrap(name, fn, on_result)


def test_every_wrap_point_records_a_span(tmp_path):
    # A wrap point whose function is no longer called would read 0 in the
    # per-layer report; compare with all four methods and then verify must
    # reach every one of them.
    common = {"problem": {"type": "bilinear_quadratic", "n": 8, "p": 2, "d": 2, "mu": 0.1,
                          "seed": 7},
              "graph": {"topology": "ring", "n": 8},
              "run": {"max_iters": 30, "tol": 0.0}}
    compare = {**common, "algorithms": [{"name": "dgda", "gamma": 0.1},
                                        {"name": "dogda", "gamma": 0.1},
                                        {"name": "dogt", "gamma": 0.1},
                                        {"name": "adogt", "gamma": 0.1, "T": "auto"}]}
    verify = {**common, "algorithm": {"name": "dogt", "gamma": "auto"}}
    tracer = _RegisteringTracer()
    with tracing.traced(tracer):
        for command, config in (("compare", compare), ("verify", verify)):
            path = tmp_path / f"{command}.yaml"
            path.write_text(yaml.safe_dump(config, sort_keys=False))
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == cli.EXIT_OK
    emitted = {span[0] for span in tracer.spans}
    expected = tracer.registered | {f"verify.check.{i}" for i in LEMMA_IDS}
    assert {"graph.weights", "algorithms.step", "problem.gradient_field"} <= expected
    assert expected - emitted == set()
