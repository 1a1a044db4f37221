from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import reference_impl as ref
from netsaddle.algorithms import (DivergenceError, adogt_step, dgda_step,
                                  dogda_step, dogt_step, init_state, iterate, run)
from netsaddle.cli import load_config, resolve_experiment
from netsaddle.graph import (CSRMix, MixingMatrix, accelerated_matrix,
                             acceleration_momentum, build_topology,
                             metropolis_weights)
from netsaddle.problem import BilinearQuadratic, make_bilinear_quadratic

# Pinned by the straight-line oracle in reference_impl.py on the shared
# benchmark setup (problem seed 7, init seed 8, ring-16, gamma 0.1).
DGDA_RESIDUAL_AT_2000 = 3.1131097678e-03
DOGDA_CONSENSUS_AT_2000 = 1.3948810743e-02
DOGT_ITERS_TO_1E10 = 838

GAMMA = 0.1


def homogeneous_problem(n=4):
    return BilinearQuadratic(centers_a=np.zeros((n, 2)), centers_b=np.zeros((n, 2)),
                             mu=0.1, zero_sum=True)


def single_node_problem(seed=21):
    return make_bilinear_quadratic(1, 2, 2, 0.1, seed=seed, zero_sum_centers=False)


W1 = MixingMatrix.from_weights(np.array([[1.0]]))


def states_to(K, kind, problem, W, z0, T=None):
    """The states of iterations 0..K."""
    return list(islice(iterate(kind, problem, W, GAMMA, z0, T), K + 1))


# ---------------------------------------------------------------------------
# init_state


def test_init_state_fields(ring16_problem, z0_16):
    state = init_state(ring16_problem, z0_16)
    assert np.array_equal(state.z, z0_16)
    assert np.array_equal(state.z_prev, z0_16)
    assert np.array_equal(state.grad, state.grad_prev)
    assert np.array_equal(state.tracker, state.grad)
    assert state.iteration == 0 and state.comm_rounds == 0


def test_init_state_tracker_rows_at_zero(ring16_problem):
    state = init_state(ring16_problem, np.zeros((16, 4)))
    expected = np.hstack([-0.1 * ring16_problem.centers_a,
                          -0.1 * ring16_problem.centers_b])
    assert np.allclose(state.tracker, expected, atol=1e-15)


def test_init_state_homogeneous_fixed_point():
    prob = homogeneous_problem()
    state = init_state(prob, np.zeros((4, 4)))
    assert (state.tracker == 0.0).all()


def test_init_state_dimension_error(ring16_problem):
    with pytest.raises(ValueError):
        init_state(ring16_problem, np.zeros((8, 4)))


# ---------------------------------------------------------------------------
# fixed points and single steps


@pytest.mark.parametrize("step", [dgda_step, dogda_step, dogt_step])
def test_homogeneous_fixed_point_is_invariant(step):
    prob = homogeneous_problem()
    W = metropolis_weights(build_topology("ring", 4))
    state = init_state(prob, np.zeros((4, 4)))
    after = step(state, W, GAMMA, prob)
    assert (after.z == 0.0).all()
    assert (after.tracker == 0.0).all()


def test_adogt_homogeneous_fixed_point():
    prob = homogeneous_problem()
    W = metropolis_weights(build_topology("ring", 4))
    state = init_state(prob, np.zeros((4, 4)))
    after = adogt_step(state, W, acceleration_momentum(W.rho), 3, GAMMA, prob)
    assert (after.z == 0.0).all()
    assert after.comm_rounds == 3


def test_dogt_one_step_from_origin(ring16_problem, ring16_W):
    # z_1 = W (z_0 - gamma G_0) with z_0 = 0; entrywise vs the stacked field.
    state = init_state(ring16_problem, np.zeros((16, 4)))
    after = dogt_step(state, ring16_W, GAMMA, ring16_problem)
    g0 = ring16_problem.gradient_field(np.zeros((16, 4)))
    assert np.allclose(after.z, ring16_W.W @ (-GAMMA * g0), atol=1e-15)


def test_dogt_trajectory_matches_block_form_oracle(ring16_problem, ring16_W, z0_16):
    a, b, mu = ref.make_instance()
    traj = ref.dogt_run(a, b, mu, ring16_W.W, GAMMA,
                        z0_16[:, :2].copy(), z0_16[:, 2:].copy(), 200)
    states = states_to(200, "dogt", ring16_problem, ring16_W, z0_16)
    for k in (0, 1, 2, 50, 200):
        assert np.abs(np.hstack(traj[k]) - states[k].z).max() <= 1e-12


@pytest.mark.parametrize("kind,runner", [("dgda", ref.dgda_run), ("dogda", ref.dogda_run)])
def test_baselines_match_block_form_oracle(kind, runner, ring16_problem, ring16_W, z0_16):
    a, b, mu = ref.make_instance()
    traj = runner(a, b, mu, ring16_W.W, GAMMA,
                  z0_16[:, :2].copy(), z0_16[:, 2:].copy(), 200)
    states = states_to(200, kind, ring16_problem, ring16_W, z0_16)
    for k in (1, 100, 200):
        assert np.abs(np.hstack(traj[k]) - states[k].z).max() <= 1e-12


@pytest.mark.parametrize("kind,T", [("dogt", None), ("adogt", 3)])
def test_gathered_mixing_matches_dense_oracle(kind, T):
    n = 512
    W = metropolis_weights(build_topology("random", n, seed=1000, edge_probability=0.02))
    assert isinstance(W.mix, CSRMix)
    prob = make_bilinear_quadratic(n, 2, 2, 0.1, seed=7, zero_sum_centers=True)
    z0 = np.random.default_rng(8).standard_normal((n, 4))
    a, b, mu = ref.make_instance(n=n)
    x, y = z0[:, :2].copy(), z0[:, 2:].copy()
    traj = (ref.dogt_run(a, b, mu, W.W, GAMMA, x, y, 100) if T is None
            else ref.adogt_run(a, b, mu, W.W, GAMMA, x, y, 100, T))
    states = states_to(100, kind, prob, W, z0, T)
    for k in (1, 2, 50, 100):
        assert np.abs(np.hstack(traj[k]) - states[k].z).max() <= 1e-12


# ---------------------------------------------------------------------------
# single-node reductions


def test_single_node_dogt_is_centralized_ogda():
    prob = single_node_problem()
    a, b = prob.centers_a[0], prob.centers_b[0]
    oracle = ref.ogda_centralized(a, b, prob.mu, np.array([0.7, -0.3]),
                                  np.array([0.2, 0.9]), GAMMA, 500)
    z0 = np.array([[0.7, -0.3, 0.2, 0.9]])
    states = states_to(500, "dogt", prob, W1, z0)
    for k in (0, 1, 250, 500):
        assert np.abs(states[k].z[0] - oracle[k]).max() <= 1e-12


def test_single_node_dogda_is_centralized_ogda():
    prob = single_node_problem()
    a, b = prob.centers_a[0], prob.centers_b[0]
    oracle = ref.ogda_centralized(a, b, prob.mu, np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]), GAMMA, 300)
    z0 = np.array([[1.0, 0.0, 0.0, 1.0]])
    states = states_to(300, "dogda", prob, W1, z0)
    for k in (1, 150, 300):
        assert np.abs(states[k].z[0] - oracle[k]).max() <= 1e-12


def test_single_node_dogt_and_dogda_agree():
    prob = single_node_problem()
    z0 = np.array([[0.5, 0.5, -0.5, 0.5]])
    s1 = states_to(200, "dogt", prob, W1, z0)
    s2 = states_to(200, "dogda", prob, W1, z0)
    assert np.abs(s1[-1].z - s2[-1].z).max() <= 1e-12


def test_single_node_dgda_is_centralized_gda():
    prob = single_node_problem()
    a, b = prob.centers_a[0], prob.centers_b[0]
    oracle = ref.gda_centralized(a, b, prob.mu, np.array([1.0, -1.0]),
                                 np.array([0.5, 0.5]), GAMMA, 300)
    z0 = np.array([[1.0, -1.0, 0.5, 0.5]])
    states = states_to(300, "dgda", prob, W1, z0)
    for k in (1, 300):
        assert np.abs(states[k].z[0] - oracle[k]).max() <= 1e-12


# ---------------------------------------------------------------------------
# adogt equivalences


def test_adogt_eta0_T1_equals_dogt(ring16_problem, ring16_W, z0_16):
    state = init_state(ring16_problem, z0_16)
    plain = dogt_step(state, ring16_W, GAMMA, ring16_problem)
    accel = adogt_step(state, ring16_W, 0.0, 1, GAMMA, ring16_problem)
    assert np.array_equal(plain.z, accel.z)
    assert np.array_equal(plain.tracker, accel.tracker)


def test_adogt_eta0_T3_equals_dogt_with_W_cubed(ring16_problem, ring16_W, z0_16):
    state = init_state(ring16_problem, z0_16)
    W3 = MixingMatrix.from_weights(np.linalg.matrix_power(ring16_W.W, 3), tol=1e-10)
    cubed = dogt_step(state, W3, GAMMA, ring16_problem)
    accel = adogt_step(state, ring16_W, 0.0, 3, GAMMA, ring16_problem)
    assert np.abs(cubed.z - accel.z).max() <= 1e-12
    assert np.abs(cubed.tracker - accel.tracker).max() <= 1e-12
    assert accel.comm_rounds == 3


def test_adogt_equals_dogt_under_accelerated_matrix(ring16_problem, ring16_W, z0_16):
    eta = acceleration_momentum(ring16_W.rho)
    MT = accelerated_matrix(ring16_W, 4)
    state = init_state(ring16_problem, z0_16)
    for _ in range(5):
        fused = dogt_step(state, MT, GAMMA, ring16_problem)
        inloop = adogt_step(state, ring16_W, eta, 4, GAMMA, ring16_problem)
        assert np.abs(fused.z - inloop.z).max() <= 1e-12
        assert np.abs(fused.tracker - inloop.tracker).max() <= 1e-12
        state = inloop


@pytest.mark.parametrize("step", [
    dgda_step, dogda_step, dogt_step,
    lambda s, W, g, p: adogt_step(s, W, acceleration_momentum(W.rho), 3, g, p)])
@pytest.mark.parametrize("gamma", [0.0, -0.1])
def test_steps_reject_nonpositive_gamma(step, gamma, ring16_problem, ring16_W, z0_16):
    state = init_state(ring16_problem, z0_16)
    with pytest.raises(ValueError, match="gamma must be positive"):
        step(state, ring16_W, gamma, ring16_problem)


def test_adogt_rejects_bad_T(ring16_problem, ring16_W, z0_16):
    state = init_state(ring16_problem, z0_16)
    with pytest.raises(ValueError):
        adogt_step(state, ring16_W, 0.5, 0, GAMMA, ring16_problem)


def test_adogt_runs_at_offdesign_T(ring16_problem, ring16_W, z0_16):
    # T=1 leaves the accelerated matrix non-contracting (rho >= 1) on this
    # ring; the run still executes, it just cannot book a Lyapunov value.
    trace = run("adogt", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=20, tol=0.0, T=1)
    assert trace.rho >= 1.0
    assert all(rec.lyapunov is None for rec in trace.records)
    assert all(rec.residual is not None and rec.xi_norm_sq is not None
               for rec in trace.records)


# ---------------------------------------------------------------------------
# identities along runs


def tracker_gap(state):
    diff = state.tracker.mean(axis=0) - state.grad.mean(axis=0)
    return np.linalg.norm(diff) / max(1.0, np.linalg.norm(state.grad))


@pytest.mark.parametrize("kind,T", [("dogt", None), ("adogt", 4)])
def test_tracker_average_identity(kind, T, ring16_problem, ring16_W, z0_16):
    states = states_to(300, kind, ring16_problem, ring16_W, z0_16, T)
    assert max(tracker_gap(s) for s in states) <= 1e-12


@pytest.mark.parametrize("kind,T", [("dogt", None), ("adogt", 4)])
def test_averaged_dynamics_identity(kind, T, ring16_problem, ring16_W, z0_16):
    # zbar_{k+1} = zbar_k - gamma mean(2 G_k - G_{k-1}): the network average
    # follows the centralized optimistic update exactly.
    states = states_to(300, kind, ring16_problem, ring16_W, z0_16, T)
    for k in range(len(states) - 1):
        s0, s1 = states[k], states[k + 1]
        expected = (s0.z.mean(axis=0)
                    - GAMMA * (2.0 * s0.grad - s0.grad_prev).mean(axis=0))
        actual = s1.z.mean(axis=0)
        scale = max(1.0, np.linalg.norm(expected))
        assert np.linalg.norm(actual - expected) <= 1e-12 * scale


def test_baseline_trackers_stay_zero(ring16_problem, ring16_W, z0_16):
    for kind in ("dgda", "dogda"):
        states = states_to(50, kind, ring16_problem, ring16_W, z0_16)
        assert all((s.tracker == 0.0).all() for s in states)
        trace = run(kind, ring16_problem, ring16_W, GAMMA, z0_16, max_iters=50, tol=0.0)
        assert all(rec.tracking_error == 0.0 for rec in trace.records)


# ---------------------------------------------------------------------------
# run() semantics


def test_run_infinite_tol_records_initial_state_only(ring16_problem, ring16_W, z0_16):
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=100, tol=np.inf)
    assert trace.reason == "tol_reached"
    assert trace.iterations == 0
    assert len(trace.records) == 1
    assert trace.records[0].iteration == 0


def test_run_terminates_at_tol(ring16_problem, ring16_W, z0_16):
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=2000, tol=1e-10, record_every=1)
    assert trace.reason == "tol_reached"
    assert trace.records[-1].residual <= 1e-10
    # Crossing iteration pinned by the block-form oracle (+-2 absorbs
    # rounding-order differences right at the threshold).
    assert abs(trace.iterations - DOGT_ITERS_TO_1E10) <= 2


def test_run_max_iters_reason(ring16_problem, ring16_W, z0_16):
    trace = run("dgda", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=50, tol=0.0)
    assert trace.reason == "max_iters"
    assert trace.iterations == 50


def test_run_records_every_and_final(ring16_problem, ring16_W, z0_16):
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=25, tol=0.0, record_every=10)
    assert [rec.iteration for rec in trace.records] == [0, 10, 20, 25]


def test_run_comm_round_accounting(ring16_problem, ring16_W, z0_16):
    dogt = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=30, tol=0.0)
    adogt = run("adogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=30,
                tol=0.0, T=4)
    assert dogt.comm_rounds == 30
    assert adogt.comm_rounds == 120


def test_run_is_deterministic(ring16_problem, ring16_W, z0_16):
    t1 = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=100, tol=0.0)
    t2 = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=100, tol=0.0)
    assert t1.records == t2.records


def test_run_validation_errors(ring16_problem, ring16_W, z0_16):
    with pytest.raises(ValueError):
        run("sgd", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=10, tol=0.0)
    with pytest.raises(ValueError):
        run("dogt", ring16_problem, ring16_W, -0.1, z0_16, max_iters=10, tol=0.0)
    with pytest.raises(ValueError):
        run("adogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=10, tol=0.0)
    with pytest.raises(ValueError):
        run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=10, tol=-1.0)


def test_divergence_raises_with_iteration(ring16_problem, ring16_W, z0_16):
    state = replace(init_state(ring16_problem, z0_16), tracker=np.zeros((16, 4)))
    with pytest.raises(DivergenceError) as by_hand:
        while True:
            state = dgda_step(state, ring16_W, 10.0, ring16_problem)
    assert by_hand.value.iteration == state.iteration + 1
    with pytest.raises(DivergenceError) as err:
        run("dgda", ring16_problem, ring16_W, 10.0, z0_16, max_iters=2000, tol=0.0)
    assert err.value.iteration == by_hand.value.iteration


def test_divergence_inside_a_batch_of_recorded_states(ring16_problem, ring16_W, z0_16,
                                                      batch_sizes):
    # With record_states every state waits in a batch for its terms; a
    # divergence while some wait raises at its own iteration all the same.
    with pytest.raises(DivergenceError) as by_hand:
        for _ in iterate("dogt", ring16_problem, ring16_W, 10.0, z0_16):
            pass
    with pytest.raises(DivergenceError) as err:
        run("dogt", ring16_problem, ring16_W, 10.0, z0_16, max_iters=2000, tol=0.0,
            record_states=True)
    assert err.value.iteration == by_hand.value.iteration
    sizes = batch_sizes
    assert len(sizes) > 1 and set(sizes) == {sizes[0]}
    assert 0 < err.value.iteration - sum(sizes) < sizes[0]     # states left waiting


RING16_DOGT = Path(__file__).resolve().parents[1] / "configs" / "ring16_dogt.yaml"


@pytest.mark.parametrize("build", [
    lambda: build_topology("ring", 16),
    lambda: metropolis_weights(build_topology("ring", 16)),
    lambda: make_bilinear_quadratic(16, 2, 2, 0.1, seed=7),
    lambda: init_state(homogeneous_problem(), np.ones((4, 4))),
    lambda: run("dogt", homogeneous_problem(), metropolis_weights(build_topology("ring", 4)),
                GAMMA, np.ones((4, 4)), max_iters=3, tol=0.0, record_states=True),
    lambda: resolve_experiment(load_config(RING16_DOGT)),
], ids=["Topology", "MixingMatrix", "BilinearQuadratic", "AlgoState", "Trace",
        "ResolvedExperiment"])
def test_array_dataclasses_compare_and_hash(build):
    # Objects holding arrays compare by identity: == gives a bool, not an
    # error about an ambiguous array truth value, and they hash.
    first, second = build(), build()
    assert (first == second) is False and (first == first) is True
    assert hash(first) == hash(first) and isinstance(hash(second), int)


def test_states_are_immutable(ring16_problem, ring16_W, z0_16):
    # States share arrays with their predecessors and are frozen where their
    # arrays are made, not on construction; every one of them, init_state's
    # included, must be read-only float64.
    for kind, T in [("dgda", None), ("dogda", None), ("dogt", None), ("adogt", 3)]:
        for state in states_to(4, kind, ring16_problem, ring16_W, z0_16, T):
            for name in ("z", "z_prev", "grad", "grad_prev", "tracker"):
                assert getattr(state, name).dtype == np.float64
            for name in ("z", "grad", "tracker"):
                with pytest.raises(ValueError):
                    getattr(state, name)[0, 0] = 1.0


# ---------------------------------------------------------------------------
# benchmark behavior (pinned oracle values)


def test_dgda_residual_plateau_at_2000(ring16_problem, ring16_W, z0_16):
    trace = run("dgda", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=2000, tol=0.0, record_every=2000)
    final = trace.records[-1].residual
    assert final > 1e-4
    assert final == pytest.approx(DGDA_RESIDUAL_AT_2000, rel=0.2)


def test_dogda_consensus_plateau_at_2000(ring16_problem, ring16_W, z0_16):
    trace = run("dogda", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=2000, tol=0.0, record_every=2000)
    final = trace.records[-1].consensus_error
    assert final > 1e-4
    assert final == pytest.approx(DOGDA_CONSENSUS_AT_2000, rel=0.2)
