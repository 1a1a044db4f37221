import copy
import pickle
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import reference_impl as ref
from netsaddle import algorithms, metrics
from netsaddle.algorithms import DivergenceError, run
from netsaddle.cli import load_config, resolve_experiment
from netsaddle.graph import (CSRMix, MixingMatrix, accelerated_matrix,
                             acceleration_momentum, build_topology,
                             metropolis_weights)
from netsaddle.metrics import residual
from netsaddle.problem import BilinearQuadratic, make_bilinear_quadratic
from reference_impl import (AlgoState, adogt_step, dgda_step, dogda_step, dogt_step,
                            init_state, iterate, mixing_of, stack_states)

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


W1 = MixingMatrix(np.array([[1.0]]))


def states_to(K, kind, problem, W, z0, T=None):
    """The states of iterations 0..K."""
    return list(islice(iterate(kind, problem, mixing_of(kind, W, T), GAMMA, z0), K + 1))


# ---------------------------------------------------------------------------
# init_state


def test_init_state_fields(ring16_problem, z0_16):
    state = init_state(ring16_problem, z0_16)
    assert np.array_equal(state.z, z0_16)
    assert np.array_equal(state.z_prev, z0_16)
    assert np.array_equal(state.grad, state.grad_prev)
    assert np.array_equal(state.tracker, state.grad)
    assert state.iteration == 0


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
    after = adogt_step(state, accelerated_matrix(W, 3), GAMMA, prob)
    assert (after.z == 0.0).all()


def test_dogt_one_step_from_origin(ring16_problem, ring16_W):
    # z_1 = W (z_0 - gamma G_0) with z_0 = 0; entrywise vs the stacked field.
    state = init_state(ring16_problem, np.zeros((16, 4)))
    after = dogt_step(state, ring16_W, GAMMA, ring16_problem)
    g0 = ring16_problem.gradient_field(np.zeros((16, 4)))
    assert np.allclose(after.z, ring16_W.W @ (-GAMMA * g0), atol=1e-15)


# The library's steps multiply by gamma as a 0-d array, and dogda forms 2 g
# as g + g; each gives the bits of the plain formula.


@pytest.mark.parametrize("kind", algorithms.ALGORITHMS)
def test_a_step_fills_the_same_slot_with_gamma_as_a_float_and_as_an_array(
        kind, ring16_problem, ring16_W):
    # Slots 0 and 1 hold two states, with signed zeros among them; slot 2,
    # NaN to begin with, is the one a step fills.
    rng = np.random.default_rng(3)
    start = rng.standard_normal((3, 3, 16, 4))          # Z, G, R of slots 0..2
    start[:, :2, 0, :2] = [0.0, -0.0]
    start[:, 2] = np.nan
    step = getattr(algorithms, f"{kind}_step")
    mix = mixing_of(kind, ring16_W, 4).mix
    filled = []
    for gamma in (GAMMA, np.array(GAMMA)):
        Z, G, R = stacks = start.copy()
        step(2, list(Z), list(G), list(R), np.empty((16, 4)), mix, gamma, ring16_problem)
        assert np.isfinite(stacks[:2 if kind in ("dgda", "dogda") else 3, 2]).all()
        filled.append(stacks.tobytes())
    assert filled[0] == filled[1]


def test_twice_a_gradient_as_a_sum_is_the_product_bit_for_bit():
    half_max = 2.0 ** 1023          # 2 x overflows from here on
    tiny = np.finfo(np.float64).tiny
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                       5e-324, -5e-324, np.nextafter(tiny, 0.0), -tiny, 1.0, -1 / 3,
                       np.nextafter(half_max, 0.0), -np.nextafter(half_max, 0.0),
                       half_max, -half_max, np.nextafter(half_max, np.inf),
                       np.finfo(np.float64).max])
    with np.errstate(over="ignore"):
        product, total = 2.0 * values, values + values
    assert total.view(np.int64).tolist() == product.view(np.int64).tolist()


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


# The complete graph's Metropolis W is J, with rho_W = 0 exactly, so its
# momentum is 0 and M_T = W^T.
W_COMPLETE_16 = metropolis_weights(build_topology("complete", 16))


def test_adogt_eta0_T1_equals_dogt(ring16_problem, z0_16):
    exchange = accelerated_matrix(W_COMPLETE_16, 1)
    assert exchange.eta == 0.0
    state = init_state(ring16_problem, z0_16)
    plain = dogt_step(state, W_COMPLETE_16, GAMMA, ring16_problem)
    accel = adogt_step(state, exchange, GAMMA, ring16_problem)
    assert np.array_equal(plain.z, accel.z)
    assert np.array_equal(plain.tracker, accel.tracker)


def test_adogt_eta0_T3_equals_dogt_with_W_cubed(ring16_problem, z0_16):
    state = init_state(ring16_problem, z0_16)
    W3 = MixingMatrix(np.linalg.matrix_power(W_COMPLETE_16.W, 3))
    cubed = dogt_step(state, W3, GAMMA, ring16_problem)
    accel = adogt_step(state, accelerated_matrix(W_COMPLETE_16, 3), GAMMA, ring16_problem)
    assert np.abs(cubed.z - accel.z).max() <= 1e-12
    assert np.abs(cubed.tracker - accel.tracker).max() <= 1e-12


def test_adogt_equals_dogt_under_accelerated_matrix(ring16_problem, ring16_W, z0_16):
    # Against the straight-line oracle: dogt in four blocks under the dense M_T.
    a, b, mu = ref.make_instance()
    x, y = z0_16[:, :2], z0_16[:, 2:]
    for T in (1, 3, 4):
        oracle = ref.adogt_run(a, b, mu, ring16_W.W, GAMMA, x, y, 5, T)
        exchange = accelerated_matrix(ring16_W, T)
        state = init_state(ring16_problem, z0_16)
        for k in range(1, 6):
            state = adogt_step(state, exchange, GAMMA, ring16_problem)
            assert np.abs(state.z - np.hstack(oracle[k])).max() <= 1e-12


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("eta", [None, 0.0])
def test_adogt_is_dogt_under_accelerated_matrix_bit_for_bit(T, eta, ring16_problem, ring16_W,
                                                            z0_16):
    # Both W mix dense, so an adogt exchange is one product by the very M_T
    # of the dense recursion: ring-16's at its momentum, and at eta 0 the
    # complete graph's.
    W = ring16_W if eta is None else W_COMPLETE_16
    assert not isinstance(W.mix, CSRMix)
    exchange = accelerated_matrix(W, T)
    if eta is not None:
        assert exchange.eta == eta
    oracle = ref.dense_mixing(ref.chebyshev_matrix(W.W, T, exchange.eta), T)
    fused = inloop = init_state(ring16_problem, z0_16)
    for _ in range(10):
        fused = dogt_step(fused, oracle, GAMMA, ring16_problem)
        inloop = adogt_step(inloop, exchange, GAMMA, ring16_problem)
        for name in ("z", "z_prev", "grad", "grad_prev", "tracker"):
            assert np.array_equal(getattr(fused, name), getattr(inloop, name))
    assert inloop.iteration == 10


def test_gathered_adogt_exchanges_by_2T_rounds(monkeypatch):
    # Where W gathers, a step's two exchanges are T rounds of W.mix each.
    n, T = 512, 3
    W = metropolis_weights(build_topology("random", n, seed=1000, edge_probability=0.02))
    assert isinstance(W.mix, CSRMix)
    prob = make_bilinear_quadratic(n, 2, 2, 0.1, seed=7, zero_sum_centers=True)
    z0 = np.random.default_rng(8).standard_normal((n, 4))
    state = init_state(prob, z0)
    calls = []
    gather = CSRMix.__call__

    def counted(self, m, out=None):
        calls.append(None)
        return gather(self, m, out)

    exchange = accelerated_matrix(W, T)     # its rho_M takes Lanczos over W.mix
    monkeypatch.setattr(CSRMix, "__call__", counted)
    for k in range(1, 4):
        state = adogt_step(state, exchange, GAMMA, prob)
        assert len(calls) == 2 * T * k
    run("adogt", prob, exchange, GAMMA, z0, max_iters=5, tol=0.0)
    assert len(calls) == 2 * T * (3 + 5)


@pytest.mark.parametrize("step", [
    dgda_step, dogda_step, dogt_step,
    lambda s, W, g, p: adogt_step(s, accelerated_matrix(W, 3), g, p)])
@pytest.mark.parametrize("gamma", [0.0, -0.1])
def test_steps_reject_nonpositive_gamma(step, gamma, ring16_problem, ring16_W, z0_16):
    # The oracle's step, and run() of the same method, which checks gamma
    # before its first step.
    state = init_state(ring16_problem, z0_16)
    with pytest.raises(ValueError, match="gamma must be positive"):
        step(state, ring16_W, gamma, ring16_problem)
    kind = "adogt" if step.__name__ == "<lambda>" else step.__name__.removesuffix("_step")
    with pytest.raises(ValueError, match="gamma must be positive"):
        run(kind, ring16_problem, mixing_of(kind, ring16_W, 3), gamma, z0_16, max_iters=5,
            tol=0.0)


def test_adogt_rejects_bad_T(ring16_W):
    # adogt's exchange, which its run mixes with, is where T is checked.
    for T in (0, -1, 2.0):
        with pytest.raises(ValueError, match="T must be a positive integer"):
            accelerated_matrix(ring16_W, T)


def test_adogt_runs_at_offdesign_T(ring16_problem, ring16_W, z0_16):
    # T=1 leaves the accelerated matrix non-contracting (rho >= 1) on this
    # ring; the run still executes, it just cannot book a Lyapunov value.
    trace = run("adogt", ring16_problem, accelerated_matrix(ring16_W, 1), GAMMA, z0_16,
                max_iters=20, tol=0.0)
    assert trace.rho >= 1.0 and trace.T == 1
    assert np.isnan(trace.records.V).all()
    assert np.isfinite(trace.records.residual).all()
    assert np.isfinite(trace.records.xi_sq).all()


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
        assert all(rec.D == 0.0 for rec in trace.records)


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
    adogt = run("adogt", ring16_problem, accelerated_matrix(ring16_W, 4), GAMMA, z0_16,
                max_iters=30, tol=0.0)
    assert dogt.comm_rounds == 30
    assert adogt.comm_rounds == 120


def test_comm_rounds_on_every_row(ring16_problem, ring16_W, z0_16):
    # Every row counts iteration x rounds exchanges: one a step, T for adogt,
    # whether W mixes dense or gathers, from iteration 0 on, on a tol stop
    # and on the rows copied past a fixed point.
    gathered = metropolis_weights(build_topology("random", 512, seed=1000,
                                                 edge_probability=0.02))
    assert isinstance(gathered.mix, CSRMix) and not isinstance(ring16_W.mix, CSRMix)
    z0_512 = np.random.default_rng(8).standard_normal((512, 4))
    prob_512 = make_bilinear_quadratic(512, 2, 2, 0.1, seed=7, zero_sum_centers=True)
    cases = [(kind, ring16_problem, ring16_W, z0_16, None, dict(max_iters=40, tol=0.0,
                                                                record_every=3))
             for kind in ("dgda", "dogda", "dogt")]
    cases += [("adogt", ring16_problem, ring16_W, z0_16, 4, dict(max_iters=40, tol=0.0,
                                                                 record_every=3)),
              ("adogt", prob_512, gathered, z0_512, 3, dict(max_iters=7, tol=0.0)),
              ("dogt", ring16_problem, ring16_W, z0_16, None, dict(max_iters=5000, tol=1e-10,
                                                                   record_every=10)),
              ("dgda", ring16_problem, ring16_W, z0_16, None, dict(max_iters=8000, tol=1e-10,
                                                                   record_every=10))]
    for kind, problem, W, z0, T, args in cases:
        trace = run(kind, problem, mixing_of(kind, W, T), GAMMA, z0, **args)
        records = trace.records
        assert records.comm_rounds.tolist() == (records.iteration * (T or 1)).tolist()
        assert records[0].iteration == records[0].comm_rounds == 0
        assert trace.comm_rounds == records[-1].comm_rounds
        assert trace.iterations == records[-1].iteration
    assert trace.fixed_point == 7439 and trace.comm_rounds == 8000


def test_run_is_deterministic(ring16_problem, ring16_W, z0_16):
    t1 = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=100, tol=0.0)
    t2 = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=100, tol=0.0)
    assert t1.records.tobytes() == t2.records.tobytes()


def test_run_validation_errors(ring16_problem, ring16_W, z0_16):
    with pytest.raises(ValueError):
        run("sgd", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=10, tol=0.0)
    with pytest.raises(ValueError):
        run("dogt", ring16_problem, ring16_W, -0.1, z0_16, max_iters=10, tol=0.0)
    with pytest.raises(ValueError):
        run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=10, tol=-1.0)
    # adogt mixes with its exchange and the others with W; each given the
    # other's raises, in run() and in the state-by-state oracle alike.
    exchange = accelerated_matrix(ring16_W, 4)
    for kind in ("dgda", "dogda", "dogt", "adogt"):
        right, wrong = (exchange, ring16_W) if kind == "adogt" else (ring16_W, exchange)
        with pytest.raises(ValueError, match=f"{kind} mixes with a "):
            run(kind, ring16_problem, wrong, GAMMA, z0_16, max_iters=10, tol=0.0)
        with pytest.raises(ValueError, match=f"{kind} mixes with a "):
            next(iterate(kind, ring16_problem, wrong, GAMMA, z0_16))
        trace = run(kind, ring16_problem, right, GAMMA, z0_16, max_iters=10, tol=0.0)
        assert trace.mixing is right


def test_divergence_raises_with_iteration(ring16_problem, ring16_W, z0_16):
    # A step is arithmetic only and returns a non-finite state like any
    # other; stepped by hand, the first non-finite state is where run() and
    # iterate() raise.
    state = init_state(ring16_problem, z0_16)
    state = AlgoState(state.z, state.z_prev, state.grad, state.grad_prev, np.zeros((16, 4)), 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2000):
            state = dgda_step(state, ring16_W, 10.0, ring16_problem)
            if not np.isfinite(state.z).all():
                break
    assert not np.isfinite(state.z).all() and state.iteration == 309
    with pytest.raises(DivergenceError) as err:
        run("dgda", ring16_problem, ring16_W, 10.0, z0_16, max_iters=2000, tol=0.0)
    assert err.value.iteration == 309
    with pytest.raises(DivergenceError) as err:
        for _ in islice(iterate("dgda", ring16_problem, ring16_W, 10.0, z0_16), 2001):
            pass
    assert err.value.iteration == 309


def test_divergence_error_survives_pickle_and_copy():
    # A compare lane sends an exception to its parent pickled: the copy must
    # keep the iteration and say the message once.
    error = DivergenceError(42)
    message = "non-finite iterate at iteration 42 (stepsize too large for this problem/graph?)"
    for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(clone) is DivergenceError
        assert clone.iteration == 42 and str(clone) == str(error) == message


def test_divergence_inside_a_batch_of_recorded_states(ring16_problem, ring16_W, z0_16,
                                                      batch_sizes):
    # At record_every 1 every state waits in a batch for its row; a
    # divergence while some wait raises at its own iteration all the same.
    with pytest.raises(DivergenceError) as by_hand:
        for _ in iterate("dogt", ring16_problem, ring16_W, 10.0, z0_16):
            pass
    with pytest.raises(DivergenceError) as err:
        run("dogt", ring16_problem, ring16_W, 10.0, z0_16, max_iters=2000, tol=0.0,
            record_every=1)
    assert err.value.iteration == by_hand.value.iteration
    sizes = batch_sizes
    assert len(sizes) > 1 and set(sizes) == {sizes[0]}
    assert 0 < err.value.iteration - sum(sizes) < sizes[0]     # states left waiting


# ---------------------------------------------------------------------------
# run() tests a batch of states at once; each result is that of stepping one
# state at a time


def batch_of(z0):
    """States a batch of run() holds at this size of state, under the budget
    set now: 51 at ring-16 and 8 at n = 1024 by default, one under a budget
    below one state's five arrays."""
    return max(1, min(algorithms._BATCH_STATES, algorithms._BATCH_BYTES // (5 * z0.nbytes)))


def stepwise_final(kind, problem, mixing, gamma, z0, max_iters, tol):
    """The state a run driven one state at a time ends on: iterate() checks
    each state as it is stepped, and the stop rule is applied to each."""
    z_star = problem.saddle_point()
    for state in iterate(kind, problem, mixing, gamma, z0):
        if residual(state.z, z_star) <= tol or state.iteration == max_iters:
            return state


def on_kernel_step(monkeypatch, name, after):
    """Swap the step function ``name`` on the module for one that calls
    ``after(iteration, i, zs, gs, rs)`` once the original has filled slot i
    with that iteration's state.  Iterations are counted from each run's
    first step, which fills iteration 1; a run is told by its slot lists."""
    original = getattr(algorithms, name)
    current = {"zs": None, "iteration": 0}

    def step(i, zs, gs, rs, *args):
        original(i, zs, gs, rs, *args)
        if zs is not current["zs"]:
            current.update(zs=zs, iteration=0)
        current["iteration"] += 1
        after(current["iteration"], i, zs, gs, rs)

    monkeypatch.setattr(algorithms, name, step)


def on_oracle_step(monkeypatch, name, change):
    """Swap the oracle's step function ``name`` for one whose state after
    ``state`` is ``change(state, the original's)``."""
    original = getattr(ref, name)
    monkeypatch.setattr(ref, name, lambda state, *args: change(state, original(state, *args)))


def poisoned(monkeypatch, name, at, field, value):
    """Swap the step function ``name``, of run() and of the oracle, for one
    whose state at iteration ``at`` has ``field`` ("z" or "tracker") filled
    with ``value``: run()'s in the slot the step just filled.  The states
    after it are stepped from there as usual."""
    def fill(iteration, i, zs, gs, rs):
        if iteration == at:
            (zs if field == "z" else rs)[i].fill(value)

    def replaced(_, state):
        if state.iteration != at:
            return state
        bad = np.full_like(getattr(state, field), value)
        bad.setflags(write=False)
        arrays = {a: getattr(state, a) for a in ref.STATE_ARRAYS}
        return AlgoState(**{**arrays, field: bad}, iteration=state.iteration)

    on_kernel_step(monkeypatch, name, fill)
    on_oracle_step(monkeypatch, name, replaced)


def counted_steps(monkeypatch, name):
    """Count the calls of run()'s step function ``name`` in the list returned."""
    calls, original = [], getattr(algorithms, name)

    def step(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(algorithms, name, step)
    return calls


def test_divergence_among_unrecorded_states(ring16_problem, ring16_W, z0_16):
    # dgda at gamma 10 first goes non-finite at 309, inside the batch
    # 306..356 and off the record grid.
    with pytest.raises(DivergenceError) as by_iterate:
        for _ in islice(iterate("dgda", ring16_problem, ring16_W, 10.0, z0_16), 2001):
            pass
    with pytest.raises(DivergenceError) as err:
        run("dgda", ring16_problem, ring16_W, 10.0, z0_16, max_iters=2000, tol=0.0,
            record_every=10)
    batch = batch_of(z0_16)
    assert err.value.iteration == by_iterate.value.iteration == 309
    assert 309 % batch != 0 and 309 % 10 != 0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_divergence_of_the_tracker_alone(value, ring16_problem, ring16_W, z0_16,
                                         monkeypatch):
    # z of state 100 stays finite; its tracker does not, which is a divergence
    # at 100 (z follows at 101).
    poisoned(monkeypatch, "dogt_step", 100, "tracker", value)
    with pytest.raises(DivergenceError) as by_iterate:
        for state in islice(iterate("dogt", ring16_problem, ring16_W, GAMMA, z0_16), 201):
            assert np.isfinite(state.z).all()
    with pytest.raises(DivergenceError) as err:
        run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=200, tol=0.0,
            record_every=10)
    assert err.value.iteration == by_iterate.value.iteration == 100


@pytest.mark.parametrize("every_step", [False, True])
def test_stop_wins_over_a_later_divergence_in_its_batch(every_step, ring16_problem,
                                                        ring16_W, z0_16, monkeypatch):
    # dogt reaches tol 1e-10 at 838, inside the batch 816..866; run() has
    # stepped past it, and a non-finite state 839 must not raise.  With
    # every_step the run records every state, as verify runs it.
    args = dict(max_iters=5000, tol=1e-10, record_every=1 if every_step else 7)
    clean = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, **args)
    assert clean.iterations == 838
    poisoned(monkeypatch, "dogt_step", 839, "z", np.nan)
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, **args)
    final = stepwise_final("dogt", ring16_problem, ring16_W, GAMMA, z0_16, 5000, 1e-10)
    assert trace.reason == "tol_reached"
    assert trace.iterations == final.iteration
    assert trace.records.tobytes() == clean.records.tobytes()
    # The same state poisoned at the stop itself is a divergence there.
    poisoned(monkeypatch, "dogt_step", 838, "z", np.nan)
    with pytest.raises(DivergenceError) as err:
        run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, **args)
    assert err.value.iteration == 838


def test_a_nonfinite_start_raises_at_iteration_1(ring16_problem, ring16_W, z0_16):
    z0 = z0_16.copy()
    z0[3, 1] = np.inf
    with pytest.raises(DivergenceError) as by_iterate:
        for _ in islice(iterate("dogt", ring16_problem, ring16_W, GAMMA, z0), 10):
            pass
    with pytest.raises(DivergenceError) as err:
        run("dogt", ring16_problem, ring16_W, GAMMA, z0, max_iters=100, tol=1e-10)
    assert err.value.iteration == by_iterate.value.iteration == 1


# A batch's residuals come first: finite ones prove its z stack finite, so
# z itself is tested only where a residual is not finite.


@pytest.mark.parametrize("record_every", [1, 10])
def test_an_overflowing_residual_of_a_finite_state_is_no_divergence(
        record_every, ring16_problem, ring16_W, z0_16, monkeypatch):
    # z of state 60 is filled with 1e160: finite, but its squares, and so
    # the residuals from 60 on, overflow to inf.  Testing z then finds it
    # finite, and the rows are those of stepping one state at a time.
    poisoned(monkeypatch, "dogt_step", 60, "z", 1e160)
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16, max_iters=120, tol=0.0,
                record_every=record_every)
    residuals = trace.records.residual
    assert np.isinf(residuals[trace.records.iteration >= 60]).all()
    assert np.isfinite(residuals[trace.records.iteration < 60]).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert_stepwise(trace, "dogt", ring16_problem, z0_16, 120, 0.0, record_every)


@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("kind", ["dogt", "adogt"])
def test_a_nonfinite_tracker_behind_finite_residuals_raises_at_its_iteration(
        kind, record_every, ring16_problem, ring16_W, z0_16, monkeypatch):
    # The tracker of the last state of the second batch is NaN.  Its z, and
    # every residual of that batch, are finite, so only the tracker's own
    # test sees it.
    at = 2 * batch_of(z0_16) - 1
    poisoned(monkeypatch, f"{kind}_step", at, "tracker", np.nan)
    mixing = mixing_of(kind, ring16_W, 4)
    with pytest.raises(DivergenceError) as by_iterate:
        for state in iterate(kind, ring16_problem, mixing, GAMMA, z0_16):
            assert np.isfinite(state.z).all()
    with pytest.raises(DivergenceError) as err:
        run(kind, ring16_problem, mixing, GAMMA, z0_16, max_iters=300, tol=0.0,
            record_every=record_every)
    assert err.value.iteration == by_iterate.value.iteration == at


@pytest.mark.parametrize("kind,T,max_iters,tol", [
    ("dogt", None, 5000, 1e-10),    # a tol stop at 838, inside a batch
    ("dgda", None, 100, 0.0),       # max_iters inside the second batch
    ("dogt", None, 102, 0.0),       # max_iters at the end of a batch
    ("dogt", None, 100, np.inf),    # a tol stop at iteration 0
    ("adogt", 4, 5000, 1e-10),
])
def test_steps_taken_past_a_stop_are_bounded(kind, T, max_iters, tol, ring16_problem,
                                             ring16_W, z0_16, monkeypatch):
    calls = counted_steps(monkeypatch, f"{kind}_step")
    mixing = mixing_of(kind, ring16_W, T)
    trace = run(kind, ring16_problem, mixing, GAMMA, z0_16, max_iters=max_iters,
                tol=tol, record_every=10)
    final = stepwise_final(kind, ring16_problem, mixing, GAMMA, z0_16, max_iters, tol)
    assert trace.iterations == final.iteration
    steps = len(calls)
    assert trace.iterations <= steps <= max_iters
    assert steps - trace.iterations < batch_of(z0_16)
    if trace.reason == "max_iters":
        assert steps == max_iters


def test_steps_taken_past_a_stop_at_n1024_are_bounded(random1024, monkeypatch):
    # At n = 1024 a batch holds 8 states: dogt's stop at tol 1e-3
    # (iteration 50) falls inside the batch 48..55, and the 5 states after
    # it are stepped and dropped.
    problem, W, z0 = random1024
    calls = counted_steps(monkeypatch, "dogt_step")
    trace = run("dogt", problem, W, GAMMA, z0, max_iters=1000, tol=1e-3, record_every=10)
    final = stepwise_final("dogt", problem, W, GAMMA, z0, 1000, 1e-3)
    assert batch_of(z0) == 8
    assert trace.reason == "tol_reached"
    assert trace.iterations == final.iteration
    assert trace.iterations == 50
    steps = len(calls)
    assert steps - trace.iterations == 5 < batch_of(z0)


def test_one_state_batches_step_no_further_than_the_stop(monkeypatch):
    # At a batch of one state (a budget below one state's arrays), run()
    # steps exactly as far as it goes.
    monkeypatch.setattr(algorithms, "_BATCH_BYTES", 1)
    prob = make_bilinear_quadratic(16, 2, 2, 0.1, seed=7, zero_sum_centers=True)
    W = metropolis_weights(build_topology("ring", 16))
    z0 = np.random.default_rng(8).standard_normal((16, 4))
    calls = counted_steps(monkeypatch, "dogt_step")
    trace = run("dogt", prob, W, GAMMA, z0, max_iters=5000, tol=1e-10, record_every=10)
    assert trace.reason == "tol_reached" and len(calls) == trace.iterations == 838


# ---------------------------------------------------------------------------
# run() stops stepping at a fixed point; the rest of its trace is that of
# stepping on, bit for bit


def stepwise_run(kind, problem, mixing, z0, max_iters, tol, record_every):
    """The record table, reason and final state of run(), from iterate() and
    one residual and one metric_record call per state: no slot, no batch and
    no fast-forward.  Each row's comm_rounds is its iteration times the
    mixing's rounds."""
    z_star = problem.saddle_point()
    L = problem.smoothness_constant()
    rows = []
    for state in iterate(kind, problem, mixing, GAMMA, z0):
        res = residual(state.z, z_star)
        final = res <= tol or state.iteration == max_iters
        if state.iteration % record_every == 0 or final:
            row = metrics.record_table(1, problem.p + problem.d)
            metrics.metric_record(row, stack_states([state]), [res], GAMMA, L, mixing.rho,
                                  z_star)
            row["comm_rounds"] = state.iteration * mixing.rounds
            rows.append(row)
        if final:
            return np.concatenate(rows), "tol_reached" if res <= tol else "max_iters", state


def unforwarded(kind, problem, mixing, z0, max_iters, record_every):
    """The record table and final state of a run to max_iters, stepped one
    state at a time (``stepwise_run`` with no tol stop)."""
    table, _, state = stepwise_run(kind, problem, mixing, z0, max_iters, -np.inf, record_every)
    return table, state


@pytest.mark.parametrize("kind,T,max_iters,tol,record_every,every_step,fixed_point", [
    ("dgda", None, 10000, 1e-10, 10, False, 7439),     # as compare runs the baselines
    ("dogda", None, 10000, 1e-10, 10, False, 2466),
    ("dogt", None, 6000, 0.0, 7, True, 4773),          # every row past the fixed point
    # T exchanges a step, one M_T product.  Whether a run reaches a fixed
    # point at all turns on eta's last bit: at the ring-16 rho_W of the
    # closed-form spectrum, T = 2 reaches none within 40000 steps, and T = 3 does.
    ("adogt", 3, 5000, 0.0, 10, False, 2905),
])
def test_fast_forward_equals_stepping_on(kind, T, max_iters, tol, record_every, every_step,
                                         fixed_point, ring16_problem, ring16_W, z0_16,
                                         monkeypatch):
    # With every_step the run records every state, as verify runs it; the
    # rows of its table on the record_every grid, and its last row, are then
    # the table of the run at record_every, as the trace CSV needs.
    calls = counted_steps(monkeypatch, f"{kind}_step")
    mixing = mixing_of(kind, ring16_W, T)
    args = (kind, ring16_problem, mixing, GAMMA, z0_16)
    every = 1 if every_step else record_every
    trace = run(*args, max_iters=max_iters, tol=tol, record_every=every)
    steps = len(calls)
    assert trace.fixed_point == fixed_point
    assert fixed_point <= steps < fixed_point + batch_of(z0_16)
    table, final = unforwarded(kind, ring16_problem, mixing, z0_16, max_iters, every)
    assert trace.reason == "max_iters"
    assert trace.iterations == final.iteration
    assert trace.comm_rounds == max_iters * (T or 1)
    assert trace.records.tobytes() == table.tobytes()     # -0.0 and +0.0 apart
    if every_step:
        on_grid = trace.records.iteration % record_every == 0
        on_grid[-1] = True
        sparse = run(*args, max_iters=max_iters, tol=tol, record_every=record_every)
        assert trace.records[on_grid].tobytes() == sparse.records.tobytes()


def test_fast_forward_at_one_state_batches(ring16_problem, ring16_W, z0_16, monkeypatch):
    # A batch of one state is compared with the last state of the batch
    # before it: run() steps exactly to the fixed point, and the trace is
    # the one of 51-state batches.
    args = (ring16_problem, ring16_W, GAMMA, z0_16)
    wide = run("dgda", *args, max_iters=8000, tol=1e-10, record_every=10)
    monkeypatch.setattr(algorithms, "_BATCH_BYTES", 1)
    calls = counted_steps(monkeypatch, "dgda_step")
    trace = run("dgda", *args, max_iters=8000, tol=1e-10, record_every=10)
    assert trace.fixed_point == wide.fixed_point == len(calls) == 7439
    assert trace.records.tobytes() == wide.records.tobytes()
    assert (trace.iterations, trace.comm_rounds) == (wide.iterations, wide.comm_rounds) == (8000,) * 2


class _FarSaddle(BilinearQuadratic):
    """Claims its saddle point at 1, so a run resting at 0 never meets tol 0."""

    def saddle_point(self):
        return np.ones(self.p + self.d)


def resting_at_zero(cls):
    """dgda from z0 = 0 with every centre at 0: each state is zero."""
    prob = cls(centers_a=np.zeros((4, 2)), centers_b=np.zeros((4, 2)), mu=0.1)
    return prob, metropolis_weights(build_topology("ring", 4)), GAMMA, np.zeros((4, 4))


def test_a_state_differing_in_the_sign_of_a_zero_is_not_a_fixed_point(monkeypatch):
    # run() finds the fixed point of the zero state at once.  With the sign
    # of one zero of z flipped on every other step, successive states have
    # the same residual but differ in that bit, and run() steps on.
    calm = run("dgda", *resting_at_zero(_FarSaddle), max_iters=300, tol=0.0)
    assert calm.fixed_point == 1
    def flip(iteration, i, zs, gs, rs):
        zs[i][0, 0] = -0.0 if iteration % 2 else 0.0

    on_kernel_step(monkeypatch, "dgda_step", flip)
    calls = counted_steps(monkeypatch, "dgda_step")
    trace = run("dgda", *resting_at_zero(_FarSaddle), max_iters=300, tol=0.0)
    assert trace.fixed_point is None and len(calls) == 300
    assert {r.residual for r in trace.records} == {4.0}    # (1/n) ||0 - 1||^2


@pytest.mark.parametrize("batch_bytes", [algorithms._BATCH_BYTES, 1])
def test_fast_forward_inside_the_first_batch(batch_bytes, monkeypatch):
    # The zero state equals state 0 from iteration 1 on: the fixed point is
    # found in the first batch, which has no state before it.
    monkeypatch.setattr(algorithms, "_BATCH_BYTES", batch_bytes)
    prob, W, gamma, z0 = resting_at_zero(_FarSaddle)
    calls = counted_steps(monkeypatch, "dgda_step")
    trace = run("dgda", prob, W, gamma, z0, max_iters=300, tol=0.0, record_every=7)
    batch = batch_of(z0)        # 51 states, or 1
    assert trace.fixed_point == 1
    assert len(calls) == max(batch - 1, 1)      # the first batch's steps, or one
    every_step = run("dgda", prob, W, gamma, z0, max_iters=300, tol=0.0, record_every=1)
    for record_every, traced in ((7, trace), (1, every_step)):
        table, final = unforwarded("dgda", prob, W, z0, 300, record_every)
        assert traced.iterations == final.iteration
        assert traced.records.tobytes() == table.tobytes()


# ---------------------------------------------------------------------------
# run()'s slots at the edges of its batches: the record table, reason, last
# iteration and fixed point of the state-by-state oracle, byte for byte


ONE_STATE = 1       # a _BATCH_BYTES below one state's arrays: batches of one state


def frozen_from(monkeypatch, kind, at):
    """Swap ``kind``'s step, of run() and of the oracle, for one that from
    iteration ``at`` on repeats the state before it (its z, grad and
    tracker), so state at + 1 is the first to equal the one before it."""
    def repeat(iteration, i, zs, gs, rs):
        if iteration >= at:
            for slots in (zs, gs, rs):
                slots[i][...] = slots[i - 1]

    def repeated(before, state):
        if state.iteration < at:
            return state
        return ref.AlgoState(before.z, before.z, before.grad, before.grad, before.tracker,
                             state.iteration)

    on_kernel_step(monkeypatch, f"{kind}_step", repeat)
    on_oracle_step(monkeypatch, f"{kind}_step", repeated)


def assert_stepwise(trace, kind, problem, z0, max_iters, tol, record_every):
    table, reason, final = stepwise_run(kind, problem, trace.mixing, z0, max_iters, tol,
                                        record_every)
    assert (trace.reason, trace.iterations) == (reason, final.iteration)
    assert trace.records.tobytes() == table.tobytes()     # -0.0 and +0.0 apart


@pytest.mark.parametrize("batch_bytes", [algorithms._BATCH_BYTES, ONE_STATE],
                         ids=["K51", "K1"])
@pytest.mark.parametrize("record_every", [1, 3, 10])
@pytest.mark.parametrize("kind", algorithms.ALGORITHMS)
def test_run_is_the_oracle_at_max_iters_around_a_batch(kind, record_every, batch_bytes,
                                                       ring16_problem, ring16_W, z0_16,
                                                       monkeypatch):
    # max_iters one state before the end of the first batch, at it, one
    # after it, and inside the third batch.
    monkeypatch.setattr(algorithms, "_BATCH_BYTES", batch_bytes)
    K = batch_of(z0_16)
    assert K == (1 if batch_bytes == ONE_STATE else 51)
    mixing = mixing_of(kind, ring16_W, 4)
    for max_iters in sorted({K - 1, K, K + 1, 2 * K + 5} - {0}):
        trace = run(kind, ring16_problem, mixing, GAMMA, z0_16, max_iters=max_iters, tol=0.0,
                    record_every=record_every)
        assert_stepwise(trace, kind, ring16_problem, z0_16, max_iters, 0.0, record_every)
        assert trace.fixed_point is None


@pytest.mark.parametrize("batch_bytes", [algorithms._BATCH_BYTES, ONE_STATE],
                         ids=["K51", "K1"])
@pytest.mark.parametrize("stop_at", [20, 130])      # in the first batch of 51, in the third
@pytest.mark.parametrize("kind", algorithms.ALGORITHMS)
def test_run_stops_at_tol_as_the_oracle_does(kind, stop_at, batch_bytes, ring16_problem,
                                             ring16_W, z0_16, monkeypatch):
    monkeypatch.setattr(algorithms, "_BATCH_BYTES", batch_bytes)
    mixing = mixing_of(kind, ring16_W, 4)
    states = list(islice(iterate(kind, ring16_problem, mixing, GAMMA, z0_16), stop_at + 1))
    tol = residual(states[stop_at].z, ring16_problem.saddle_point())
    for record_every in (1, 10):
        trace = run(kind, ring16_problem, mixing, GAMMA, z0_16, max_iters=1000, tol=tol,
                    record_every=record_every)
        assert trace.reason == "tol_reached"
        assert (trace.iterations < 51) == (stop_at < 51)
        assert_stepwise(trace, kind, ring16_problem, z0_16, 1000, tol, record_every)


@pytest.mark.parametrize("batch_bytes", [algorithms._BATCH_BYTES, ONE_STATE],
                         ids=["K51", "K1"])
@pytest.mark.parametrize("kind", algorithms.ALGORITHMS)
def test_a_fixed_point_that_starts_just_after_a_roll(kind, batch_bytes, ring16_problem,
                                                      ring16_W, z0_16, monkeypatch):
    # The first state equal to the one before it is the first of a batch,
    # in slot 2: telling it from its predecessor reads the slots 0 and 1 the
    # roll filled.  With 51-state batches, state 50 repeats 49, so state 51,
    # the second batch's first, is the fixed point; with one-state batches,
    # state 6.
    monkeypatch.setattr(algorithms, "_BATCH_BYTES", batch_bytes)
    K = batch_of(z0_16)
    first_equal = K if K > 1 else 6
    frozen_from(monkeypatch, kind, first_equal - 1)
    calls = counted_steps(monkeypatch, f"{kind}_step")
    trace = run(kind, ring16_problem, mixing_of(kind, ring16_W, 4), GAMMA, z0_16,
                max_iters=3 * K + 40, tol=0.0, record_every=7)
    assert trace.fixed_point == first_equal
    assert len(calls) == (2 * K - 1 if K > 1 else first_equal)   # stepped no further
    assert_stepwise(trace, kind, ring16_problem, z0_16, 3 * K + 40, 0.0, 7)


RING16_DOGT = Path(__file__).resolve().parents[1] / "configs" / "ring16_dogt.yaml"


@pytest.mark.parametrize("build", [
    lambda: build_topology("ring", 16),
    lambda: metropolis_weights(build_topology("ring", 16)),
    lambda: make_bilinear_quadratic(16, 2, 2, 0.1, seed=7),
    lambda: init_state(homogeneous_problem(), np.ones((4, 4))),
    lambda: run("dogt", homogeneous_problem(), metropolis_weights(build_topology("ring", 4)),
                GAMMA, np.ones((4, 4)), max_iters=3, tol=0.0, record_every=1),
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
