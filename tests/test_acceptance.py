"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run pytest with -s to see them
live).  The heavyweight benchmark runs are shared through module-scoped
fixtures; pinned floor values come from the block-form oracle in
reference_impl.py.
"""

import math
from contextlib import contextmanager
from itertools import islice

import numpy as np
import pytest

import reference_impl as ref
from netsaddle.algorithms import run
from netsaddle.graph import (MixingMatrix, accelerated_matrix, acceleration_momentum,
                             build_topology, metropolis_weights)
from netsaddle.metrics import max_stepsize, step_terms, theoretical_contraction
from netsaddle.problem import make_bilinear_quadratic
from netsaddle.verify import check_lemma
from reference_impl import adogt_step, dogt_step, init_state, iterate, mixing_of

GAMMA = 0.1
MAX_ITERS = 10_000

# Pinned from the pre-build oracle run (reference_impl.py, problem seed 7,
# init seed 8): DGDA and D-OGDA share the same non-optimal fixed point.
BASELINE_RESIDUAL_FLOOR = 3.1131091383e-03
BASELINE_CONSENSUS_FLOOR = 1.3948810743e-02


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def benchmark_traces(ring16_problem, ring16_W, z0_16):
    """Full-horizon runs of all four algorithms on the benchmark setup."""
    traces = {}
    for kind, T in (("dgda", None), ("dogda", None), ("dogt", None), ("adogt", 4)):
        traces[kind] = run(kind, ring16_problem, mixing_of(kind, ring16_W, T), GAMMA, z0_16,
                           max_iters=MAX_ITERS, tol=0.0, record_every=1)
    return traces


@pytest.fixture(scope="module")
def compliant_trace(ring16_problem, ring16_W, z0_16):
    gamma = max_stepsize(ring16_problem.smoothness_constant(), ring16_W.rho)
    return run("dogt", ring16_problem, ring16_W, gamma, z0_16,
               max_iters=2000, tol=0.0, record_every=1)


def first_crossing(trace, level):
    return next((rec.iteration for rec in trace.records if rec.residual <= level),
                None)


def test_criterion_1_benchmark_reproduction(benchmark_traces):
    with criterion(1, "benchmark comparison: tracking converges, baselines stall"):
        dogt_hit = first_crossing(benchmark_traces["dogt"], 1e-10)
        adogt_hit = first_crossing(benchmark_traces["adogt"], 1e-10)
        assert dogt_hit is not None and dogt_hit <= MAX_ITERS
        assert adogt_hit is not None and adogt_hit < dogt_hit

        for kind in ("dgda", "dogda"):
            final = benchmark_traces[kind].records[-1]
            assert final.residual > 1e-4
            assert final.residual == pytest.approx(BASELINE_RESIDUAL_FLOOR, rel=0.2)
            assert final.consensus_error > 1e-4
            assert final.consensus_error == pytest.approx(BASELINE_CONSENSUS_FLOOR,
                                                          rel=0.2)
        for kind in ("dogt", "adogt"):
            assert benchmark_traces[kind].records[-1].consensus_error < 1e-10


def test_criterion_2_per_step_contraction(compliant_trace, ring16_problem, ring16_W,
                                          z0_16):
    with criterion(2, "per-step Lyapunov contraction at the guaranteed stepsize"):
        gamma = compliant_trace.gamma
        factor = theoretical_contraction(gamma, ring16_problem.mu, ring16_W.rho)
        L, rho, n = (compliant_trace.problem.smoothness_constant(), compliant_trace.rho,
                     compliant_trace.problem.n)
        z_star = compliant_trace.problem.saddle_point()
        psis = [step_terms(s, gamma, L, rho, n, z_star)["V"] for s in
                islice(iterate("dogt", ring16_problem, ring16_W, gamma, z0_16), 2001)]
        assert len(psis) == 2001
        for k in range(2000):
            assert psis[k + 1] <= factor * psis[k] + 1e-9 * psis[k]


def test_criterion_3_lemma_suite(compliant_trace):
    with criterion(3, "per-step inequality suite under its stepsize conditions"):
        for lemma_id in ("L1_iterate_gap", "L2_consensus", "L3_tracking",
                         "L4_optimality_gap"):
            report = check_lemma(compliant_trace, lemma_id)
            assert report.status == "passed", f"{lemma_id}: {report.status}"


def test_criterion_4_accelerated_consensus_bound():
    with criterion(4, "accelerated gossip halves the gap at the recommended T"):
        for n in (4, 8, 16, 32):
            W = metropolis_weights(build_topology("ring", n))
            rho_M = accelerated_matrix(W).rho
            assert 1.0 - rho_M >= 0.5 - 1e-10
        W16 = metropolis_weights(build_topology("ring", 16))
        assert accelerated_matrix(W16).rounds == 4


def test_criterion_5_tracker_and_averaged_dynamics(ring16_problem, ring16_W, z0_16):
    with criterion(5, "tracker average identity and averaged optimistic dynamics"):
        for kind, T in (("dogt", None), ("adogt", 4)):
            states = list(islice(iterate(kind, ring16_problem, mixing_of(kind, ring16_W, T),
                                         GAMMA, z0_16), 501))
            for state in states:
                gap = np.linalg.norm(state.tracker.mean(axis=0)
                                     - state.grad.mean(axis=0))
                assert gap <= 1e-12 * max(1.0, np.linalg.norm(state.grad))
            for k in range(len(states) - 1):
                s0, s1 = states[k], states[k + 1]
                expected = (s0.z.mean(axis=0)
                            - GAMMA * (2.0 * s0.grad - s0.grad_prev).mean(axis=0))
                err = np.linalg.norm(s1.z.mean(axis=0) - expected)
                assert err <= 1e-12 * max(1.0, np.linalg.norm(expected))


def test_criterion_6_oracle_equivalences(ring16_problem, ring16_W, z0_16):
    with criterion(6, "single-node, accelerated-matrix, and gradient oracles"):
        # (a) one node: the run is centralized optimistic descent ascent.
        prob1 = make_bilinear_quadratic(1, 2, 2, 0.1, seed=21,
                                        zero_sum_centers=False)
        x0, y0 = np.array([0.7, -0.3]), np.array([0.2, 0.9])
        oracle = ref.ogda_centralized(prob1.centers_a[0], prob1.centers_b[0],
                                      prob1.mu, x0, y0, GAMMA, 500)
        from netsaddle.graph import MixingMatrix
        states = list(islice(iterate("dogt", prob1, MixingMatrix(np.eye(1)),
                                     GAMMA, np.concatenate([x0, y0])[np.newaxis, :]), 501))
        for k in range(501):
            assert np.abs(states[k].z[0] - oracle[k]).max() <= 1e-12

        # (b) the accelerated exchange equals the fused matrix step.
        eta = acceleration_momentum(ring16_W.rho)
        MT = ref.dense_mixing(ref.chebyshev_matrix(ring16_W.W, 4, eta), 4)
        exchange = accelerated_matrix(ring16_W, 4)
        state = init_state(ring16_problem, z0_16)
        for _ in range(10):
            fused = dogt_step(state, MT, GAMMA, ring16_problem)
            inloop = adogt_step(state, exchange, GAMMA, ring16_problem)
            assert np.abs(fused.z - inloop.z).max() <= 1e-12
            assert np.abs(fused.tracker - inloop.tracker).max() <= 1e-12
            state = inloop

        # (c) analytic gradients against central differences.
        rng = np.random.default_rng(99)
        for _ in range(100):
            i = int(rng.integers(16))
            z = 2.0 * rng.standard_normal(4)
            exact = ring16_problem.gradient_field(np.tile(z, (16, 1)))[i]
            approx = ref.finite_difference_gradient(ring16_problem, i, z, h=1e-6)
            err = np.abs(approx - exact).max() / max(1.0, np.abs(exact).max())
            assert err <= 1e-6


def test_criterion_7_spectral_correctness(ring16_W):
    with criterion(7, "spectral gap matches the circulant closed form"):
        lam = (1.0 + 2.0 * math.cos(math.pi / 8.0)) / 3.0
        assert abs(ring16_W.rho - lam ** 2) <= 1e-10
        assert abs(ring16_W.rho - 0.9011) <= 5e-5
        assert MixingMatrix(np.full((16, 16), 1.0 / 16)).rho <= 1e-14


def test_criterion_8_compare_determinism(tmp_path):
    with criterion(8, "byte-identical compare outputs for identical configs"):
        from pathlib import Path
        from netsaddle.cli import compare_command
        config = Path(__file__).resolve().parent.parent / "configs" / "ring16_compare.yaml"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert compare_command(config, out1) == 0
        assert compare_command(config, out2) == 0
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names == ["adogt.csv", "dgda.csv", "dogda.csv", "dogt.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert ((out1 / "comparison.txt").read_bytes()
                == (out2 / "comparison.txt").read_bytes())
