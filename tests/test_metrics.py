import math
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netsaddle import algorithms
from netsaddle.algorithms import init_state, run, stack_states
from netsaddle.graph import CSRMix, build_topology, metropolis_weights
from netsaddle.metrics import (consensus_error, deviation_sq,
                               field_at_average_sq, fit_linear_rate,
                               iteration_complexity, lyapunov_coefficients,
                               max_stepsize, metric_record, optimality_gap_xi,
                               record_table, residual, step_terms,
                               theoretical_contraction)
from netsaddle.problem import BilinearQuadratic, make_bilinear_quadratic
from reference_impl import iterate, mixing_of

GAMMA = 0.1


# ---------------------------------------------------------------------------
# basic norms


def test_residual_zero_at_consensus_on_saddle():
    z_star = np.array([0.5, -1.0, 2.0])
    z = np.tile(z_star, (6, 1))
    assert residual(z, z_star) == 0.0


@pytest.mark.parametrize("n", [1, 2, 16, 100, 1024])
def test_residual_of_a_stack_is_the_per_state_residual(n):
    # The stop rule takes one residual per batch, on the stacked z; each
    # value must be that of the state's own call, bit for bit, non-finite
    # states included.
    rng = np.random.default_rng(n)
    z_star = rng.standard_normal(4)
    z = rng.standard_normal((9, n, 4)) * np.logspace(-8, 8, 9)[:, None, None]
    z[0] = z_star                       # on the saddle point
    z[1, 0, 0] = np.inf
    z[2, -1, 3] = np.nan
    z[3] = 1e200                        # finite, but its square overflows
    with np.errstate(over="ignore", invalid="ignore"):
        got = residual(z, z_star)
        each = np.array([residual(zk, z_star) for zk in z])
    assert got.shape == (9,) and got.tobytes() == each.tobytes()
    assert got[0] == 0.0 and got[1] == got[3] == np.inf and np.isnan(got[2])


def test_consensus_error_zero_for_common_row():
    z = np.tile(np.array([3.0, 4.0]), (5, 1))
    assert consensus_error(z) == 0.0


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_consensus_error_zero_property(n, seed):
    v = np.random.default_rng(seed).standard_normal(4)
    assert consensus_error(np.tile(v, (n, 1))) <= 1e-15


def test_consensus_error_is_unsquared():
    z = np.array([[1.0, 0.0], [-1.0, 0.0]])  # zbar = 0, ||z|| = sqrt(2)
    assert consensus_error(z) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert deviation_sq(z) == pytest.approx(2.0, rel=1e-15)  # squared


# ---------------------------------------------------------------------------
# optimality gap


def test_xi_at_iteration_zero_is_zbar_minus_zstar(ring16_problem, z0_16):
    state = init_state(ring16_problem, z0_16)
    xi = optimality_gap_xi(state, GAMMA, np.zeros(4))
    assert np.allclose(xi, z0_16.mean(axis=0), atol=1e-15)


def test_xi_zero_at_homogeneous_fixed_point():
    prob = BilinearQuadratic(centers_a=np.zeros((4, 2)), centers_b=np.zeros((4, 2)),
                             mu=0.1, zero_sum=True)
    state = init_state(prob, np.zeros((4, 4)))
    assert (optimality_gap_xi(state, GAMMA, np.zeros(4)) == 0.0).all()


def test_xi_after_one_step_matches_dense_replay(ring16_problem, ring16_W, z0_16):
    _, s1 = islice(iterate("dogt", ring16_problem, ring16_W, GAMMA, z0_16), 2)
    # Dense replay of the update from raw pieces, then the gap formula.
    g0 = ring16_problem.gradient_field(z0_16)
    z1 = ring16_W.W @ (z0_16 - GAMMA * g0)   # tracker = g0 and grad diff = 0 at k=0
    g1 = ring16_problem.gradient_field(z1)
    xi_expected = z1.mean(axis=0) - GAMMA * (g1 - g0).mean(axis=0)
    assert np.allclose(optimality_gap_xi(s1, GAMMA, np.zeros(4)), xi_expected,
                       atol=1e-14)


# ---------------------------------------------------------------------------
# lyapunov


def test_lyapunov_zero_at_rest_on_saddle():
    prob = BilinearQuadratic(centers_a=np.zeros((4, 2)), centers_b=np.zeros((4, 2)),
                             mu=0.1, zero_sum=True)
    state = init_state(prob, np.zeros((4, 4)))
    assert step_terms(state, GAMMA, 1.0, 0.5, 4, np.zeros(4))["V"] == 0.0


def test_lyapunov_consensus_start_reduces_to_two_terms(ring16_problem, ring16_W):
    # z0 = 1 v: consensus and iterate-difference terms vanish, leaving
    # ||v - z*||^2 + c2 ||r0 - 1 rbar0||^2.
    v = np.array([0.3, -0.7, 1.1, 0.4])
    state = init_state(ring16_problem, np.tile(v, (16, 1)))
    rho = ring16_W.rho
    L = ring16_problem.smoothness_constant()
    _, c2 = lyapunov_coefficients(GAMMA, L, rho, 16)
    expected = float(v @ v) + c2 * deviation_sq(state.tracker)
    got = step_terms(state, GAMMA, L, rho, 16, np.zeros(4))["V"]
    assert got == pytest.approx(expected, rel=1e-12)


def test_lyapunov_matches_literal_reimplementation(ring16_problem, ring16_W, z0_16):
    # Second implementation with explicit loops, evaluated at step 5 of a
    # compliant-stepsize run.
    L = ring16_problem.smoothness_constant()
    gamma = max_stepsize(L, ring16_W.rho)
    *_, s = islice(iterate("dogt", ring16_problem, ring16_W, gamma, z0_16), 6)
    rho, n = ring16_W.rho, 16

    xi = s.z.mean(axis=0) - gamma * (s.grad - s.grad_prev).mean(axis=0)
    total = sum(val * val for val in xi)
    acc = 0.0
    for i in range(n):
        for j in range(4):
            acc += (s.z[i, j] - s.z_prev[i, j]) ** 2
    total += gamma * L / n * acc
    zbar = s.z.mean(axis=0)
    rbar = s.tracker.mean(axis=0)
    c1 = 72.0 * gamma * L / (n * (1.0 - rho))
    c2 = 4608.0 * gamma ** 3 * L / (n * (1.0 - rho) ** 3)
    acc_c = sum((s.z[i, j] - zbar[j]) ** 2 for i in range(n) for j in range(4))
    acc_r = sum((s.tracker[i, j] - rbar[j]) ** 2 for i in range(n) for j in range(4))
    total += c1 * acc_c + c2 * acc_r

    got = step_terms(s, gamma, L, rho, n, np.zeros(4))["V"]
    assert got == pytest.approx(total, rel=1e-12)


def test_terms_on_a_stack_equal_terms_per_state(ring16_problem, ring16_W, z0_16):
    # Every per-step term gives, on a stack of states, exactly the values it
    # gives state by state.
    L = ring16_problem.smoothness_constant()
    gamma = max_stepsize(L, ring16_W.rho)
    states = list(islice(iterate("dogt", ring16_problem, ring16_W, gamma, z0_16), 21))
    stack = SimpleNamespace(**{
        name: np.stack([getattr(s, name) for s in states])
        for name in ("z", "z_prev", "grad", "grad_prev", "tracker")})
    z_star = np.zeros(4)
    stacked = step_terms(stack, gamma, L, ring16_W.rho, 16, z_star)
    assert sorted(stacked) == ["B", "C", "D", "V", "xi_sq"]
    stacked["xi"] = optimality_gap_xi(stack, gamma, z_star)
    stacked["eE"] = np.stack(field_at_average_sq(ring16_problem, stack.z.mean(axis=-2)),
                             axis=-1)
    for k, s in enumerate(states):
        one = step_terms(s, gamma, L, ring16_W.rho, 16, z_star)
        one["xi"] = optimality_gap_xi(s, gamma, z_star)
        one["eE"] = field_at_average_sq(ring16_problem, s.z.mean(axis=0))
        for name, value in one.items():
            assert (stacked[name][k] == np.asarray(value)).all(), (name, k)


def test_lyapunov_validation(ring16_problem, z0_16):
    state = init_state(ring16_problem, z0_16)
    with pytest.raises(ValueError):
        step_terms(state, -0.1, 1.0, 0.5, 16, np.zeros(4))
    with pytest.raises(ValueError):
        lyapunov_coefficients(0.1, 1.0, 1.0, 16)
    # At rho >= 1 the weights are undefined, so there is no Lyapunov value.
    assert "V" not in step_terms(state, 0.1, 1.0, 1.0, 16, np.zeros(4))


# ---------------------------------------------------------------------------
# rate constants


def test_theoretical_contraction_examples():
    assert theoretical_contraction(0.01, 0.1, 0.5) == pytest.approx(0.99925, abs=1e-15)
    # Poorly mixed graph: the (1-rho)/8 branch binds.
    assert theoretical_contraction(1.0, 1.0, 0.99) == pytest.approx(1.0 - 0.00125,
                                                                    abs=1e-15)


def test_theoretical_contraction_ring16(ring16_problem, ring16_W):
    L = ring16_problem.smoothness_constant()
    gamma = max_stepsize(L, ring16_W.rho)
    factor = theoretical_contraction(gamma, 0.1, ring16_W.rho)
    assert factor == pytest.approx(0.99999466, abs=1e-7)
    assert factor == 1.0 - 0.75 * gamma * 0.1  # stepsize branch binds


def test_theoretical_contraction_domain():
    with pytest.raises(ValueError):
        theoretical_contraction(0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        theoretical_contraction(0.1, 0.1, 1.0)


def test_max_stepsize_examples(ring16_problem, ring16_W):
    assert max_stepsize(1.0, 0.0) == pytest.approx(1.0 / 64.0, abs=1e-18)
    assert max_stepsize(1.0, 0.25) == pytest.approx(0.0078125, abs=1e-15)
    L = ring16_problem.smoothness_constant()
    got = max_stepsize(L, ring16_W.rho)
    assert got == pytest.approx(7.12e-5, rel=1e-3)
    # Graph branch binds on the ring: recompute from the circulant oracle.
    lam = (1.0 + 2.0 * math.cos(math.pi / 8.0)) / 3.0
    rho = lam ** 2
    assert got == pytest.approx((1 - rho) ** 2 / (144 * L * math.sqrt(rho)), rel=1e-10)


def test_iteration_complexity_examples():
    assert iteration_complexity(1.0, 0.0) == 2.0  # kappa + 1
    assert iteration_complexity(1.0, 0.75) == pytest.approx(
        1.0 * (1.0 + math.sqrt(0.75) / 0.0625) + 4.0, abs=1e-12)
    assert iteration_complexity(1.0, 0.75) == pytest.approx(18.856, abs=5e-4)


def test_iteration_complexity_ring16_graph_term_dominates(ring16_problem, ring16_W):
    kappa = ring16_problem.smoothness_constant() / 0.1
    rho = ring16_W.rho
    total = iteration_complexity(kappa, rho)
    graph_term = kappa * math.sqrt(rho) / (1.0 - rho) ** 2
    assert graph_term / total > 0.9


def test_iteration_complexity_domain():
    with pytest.raises(ValueError):
        iteration_complexity(0.5, 0.1)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_exact_geometric_series():
    series = [(k, 0.9 ** k) for k in range(100)]
    report = fit_linear_rate(series)
    assert report.fitted_rate == pytest.approx(0.9, abs=1e-10)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert report.window[0] >= 9  # first 10% skipped


@given(rate=st.floats(min_value=0.5, max_value=0.999),
       scale=st.floats(min_value=1e-6, max_value=1e6))
def test_fit_recovers_any_geometric_rate(rate, scale):
    series = [(k, scale * rate ** k) for k in range(60)]
    report = fit_linear_rate(series)
    assert report.fitted_rate == pytest.approx(rate, rel=1e-9)


def test_fit_constant_series():
    report = fit_linear_rate([(k, 2.5) for k in range(50)])
    assert report.fitted_rate == pytest.approx(1.0, abs=1e-14)
    assert report.r_squared == 1.0


def test_fit_insufficient_data():
    with pytest.raises(ValueError):
        fit_linear_rate([(k, 1.0) for k in range(5)])


def test_fit_nonpositive_values():
    series = [(k, 0.0 if k % 2 else 1.0) for k in range(20)]
    with pytest.raises(ValueError):
        fit_linear_rate(series)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fit_rejects_nonfinite_values_in_its_window(bad):
    # An overflowed residual is inf: the series has no rate over its window,
    # which is an error, not a NaN rate and a RuntimeWarning.
    growing = [(k, 10.0 ** k if k < 30 else bad) for k in range(60)]
    with pytest.raises(ValueError, match="non-finite"):
        fit_linear_rate(growing)
    # Before the window, a non-finite value is skipped like the rest.
    series = [(k, bad if k == 0 else 0.9 ** k) for k in range(60)]
    assert fit_linear_rate(series).fitted_rate == pytest.approx(0.9, rel=1e-12)


def test_fitted_lyapunov_rate_below_guarantee(ring16_problem, ring16_W, z0_16):
    L = ring16_problem.smoothness_constant()
    gamma = max_stepsize(L, ring16_W.rho)
    trace = run("dogt", ring16_problem, ring16_W, gamma, z0_16,
                max_iters=2000, tol=0.0)
    factor = theoretical_contraction(gamma, 0.1, ring16_W.rho)
    report = fit_linear_rate([(r.iteration, r.V) for r in trace.records])
    assert 0.0 < report.fitted_rate <= factor


# ---------------------------------------------------------------------------
# record assembly and purity


def test_records_recomputable_from_states(ring16_problem, ring16_W, z0_16):
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=100, tol=0.0, record_every=7)
    states = list(islice(iterate("dogt", ring16_problem, ring16_W, GAMMA, z0_16), 101))
    for rec in trace.records:
        state = stack_states([states[rec.iteration]])
        row = record_table(1, 4)
        metric_record(row, state, ring16_problem, GAMMA, ring16_problem.smoothness_constant(),
                      trace.rho, trace.z_star)
        row["comm_rounds"] = rec.iteration
        assert row.tobytes() == rec.tobytes()


def _per_state(trace, states, record_every):
    """The record table of a run, from each state on its own.

    Every value comes from a per-state call: step_terms, residual and
    consensus_error on one state's arrays, the row mean and e, E of one
    state's zbar; comm_rounds is the iteration times the mixing's rounds.
    """
    z_star, rows, problem = trace.z_star, [], trace.problem
    for s in states:
        if s.iteration % record_every and s.iteration != trace.iterations:
            continue
        terms = step_terms(s, trace.gamma, problem.smoothness_constant(), trace.rho, problem.n,
                           z_star)
        zbar = s.z.mean(axis=0)
        rows.append((s.iteration, s.iteration * trace.mixing.rounds, residual(s.z, z_star),
                     consensus_error(s.z), terms["D"], terms["xi_sq"],
                     terms.get("V", math.nan), terms["B"], terms["C"],
                     *field_at_average_sq(problem, zbar), zbar))
    table = record_table(len(rows), problem.p + problem.d)
    table[:] = rows
    return table


def _random512():
    W = metropolis_weights(build_topology("random", 512, seed=1000, edge_probability=0.02))
    assert isinstance(W.mix, CSRMix)
    prob = make_bilinear_quadratic(512, 2, 2, 0.1, seed=7, zero_sum_centers=True)
    return prob, W, np.random.default_rng(8).standard_normal((512, 4))


def _offset_saddle_ring16(ring16_W, z0_16):
    """The ring-16 setup on centres that do not sum to zero: z* is not the origin."""
    problem = make_bilinear_quadratic(16, 2, 2, 0.1, seed=7, zero_sum_centers=False)
    assert np.abs(problem.saddle_point()).min() > 0.0
    return problem, ring16_W, z0_16


@pytest.mark.parametrize("setup,kind,T,run_args,batches", [
    # several batches, every state recorded; max_iters at the end of a batch
    ("ring16", "dogt", None, dict(max_iters=500, tol=0.0), "several"),
    ("ring16", "dogt", None, dict(max_iters=509, tol=0.0), "several"),
    # the tol stop (iteration 838) falls inside a batch, also off a sparse grid
    ("ring16", "dogt", None, dict(max_iters=5000, tol=1e-10, record_every=3), "cut"),
    ("ring16", "dogt", None, dict(max_iters=5000, tol=1e-10), "cut"),
    # record_every 7 and a last iteration off its grid, in one call or several
    ("ring16", "dogt", None, dict(max_iters=250, tol=0.0, record_every=7), None),
    ("ring16", "dogt", None, dict(max_iters=2500, tol=0.0, record_every=7), "several"),
    # all four methods
    ("ring16", "dgda", None, dict(max_iters=300, tol=0.0), None),
    ("ring16", "dogda", None, dict(max_iters=300, tol=0.0), None),
    ("ring16", "adogt", 3, dict(max_iters=300, tol=0.0), None),
    ("ring16", "adogt", 4, dict(max_iters=300, tol=0.0, record_every=10), None),
    # the gathered mixing of a random n = 512 graph: one state a batch under
    # a budget of one state, and four under a budget of four
    ("random512", "adogt", 3, dict(max_iters=20, tol=0.0), "single"),
    ("random512_wide", "dogt", None, dict(max_iters=20, tol=0.0), "several"),
    ("random512_wide", "adogt", 3, dict(max_iters=20, tol=0.0), "several"),
    # a saddle point away from the origin, in the residual and xi_sq
    ("offset_saddle", "dogt", None, dict(max_iters=300, tol=1e-10), "several"),
    ("offset_saddle", "dgda", None, dict(max_iters=300, tol=1e-10, record_every=7), None),
    # the benchmark's random1024: 8 states a batch under the default budget
    ("random1024", "dogt", None, dict(max_iters=30, tol=0.0), "eight"),
])
def test_run_equals_per_state_evaluation(setup, kind, T, run_args, batches, ring16_problem,
                                         ring16_W, z0_16, batch_sizes, random1024,
                                         monkeypatch):
    # run() evaluates the states it records in batches, on their stack; its
    # record table must be that of per-state calls, bit for bit.
    if setup == "random512":
        problem, W, z0 = _random512()
        monkeypatch.setattr(algorithms, "_BATCH_BYTES", 5 * z0.nbytes)
    elif setup == "random1024":
        problem, W, z0 = random1024
    elif setup == "random512_wide":
        problem, W, z0 = _random512()
        monkeypatch.setattr(algorithms, "_BATCH_BYTES", 4 * 5 * z0.nbytes)
    elif setup == "offset_saddle":
        problem, W, z0 = _offset_saddle_ring16(ring16_W, z0_16)
    else:
        problem, W, z0 = ring16_problem, ring16_W, z0_16
    trace = run(kind, problem, mixing_of(kind, W, T), GAMMA, z0, **run_args)
    sizes = batch_sizes
    if batches == "several":
        assert len(sizes) > 2 and sizes[0] > 1
    elif batches == "single":
        assert set(sizes) == {1}
    elif batches == "eight":
        assert sizes == [8, 8, 8, 7]
    elif batches == "cut":
        assert trace.reason == "tol_reached" and 1 < sizes[-1] < sizes[0] == max(sizes)
        assert len(sizes) > 2
    record_every = run_args.get("record_every", 1)
    states = list(islice(iterate(kind, problem, trace.mixing, GAMMA, z0),
                         trace.iterations + 1))
    table = _per_state(trace, states, record_every)
    assert trace.records.iteration.tolist() == sorted(
        {*range(0, trace.iterations + 1, record_every), trace.iterations})
    assert trace.records.dtype.descr == table.dtype.descr
    for name in table.dtype.names:
        assert np.array_equal(trace.records[name], table[name], equal_nan=True), name
    assert trace.records.tobytes() == table.tobytes()     # -0.0 and +0.0 apart


@pytest.mark.parametrize("n", [1, 2, 16, 1024])
def test_batched_consensus_is_the_per_state_norm(n):
    # On a stack, consensus_error gives each state's own value bit for bit,
    # sqrt(C) / n with C = deviation_sq, as metric_record computes it; the
    # norm of the deviation agrees to rounding.
    rng = np.random.default_rng(n)
    z = rng.standard_normal((9, n, 4)) * np.logspace(-8, 8, 9)[:, None, None]
    z[0] = 0.0
    z[1] = rng.standard_normal(4)       # exact consensus
    got = consensus_error(z)
    assert got.tobytes() == np.array([consensus_error(zk) for zk in z]).tobytes()
    assert got.tobytes() == (np.sqrt(deviation_sq(z)) / n).tobytes()
    norms = [np.linalg.norm(zk - zk.mean(axis=0)) / n for zk in z]
    assert np.allclose(got, norms, rtol=1e-15, atol=0.0)
    assert got[0] == 0.0


def test_term_table_rows_are_the_terms_of_each_state(ring16_problem, ring16_W, z0_16):
    # Row k of a run at record_every 1, as verify runs it, is iteration k:
    # its step_terms, zbar and the field there.
    trace = run("dogt", ring16_problem, ring16_W, GAMMA, z0_16,
                max_iters=100, tol=0.0, record_every=1)
    states = islice(iterate("dogt", ring16_problem, ring16_W, GAMMA, z0_16), 101)
    assert trace.records.iteration.tolist() == list(range(101))
    for row, state in zip(trace.records, states):
        terms = step_terms(state, GAMMA, ring16_problem.smoothness_constant(), trace.rho, 16,
                           trace.z_star)
        assert [row[name] for name in terms] == list(terms.values())
        assert (row["zbar"] == state.z.mean(axis=0)).all()
        assert (row["e"], row["E"]) == field_at_average_sq(ring16_problem, row["zbar"])


def test_term_table_is_trimmed_at_tol(ring16_problem, ring16_W, z0_16):
    args = ("dogt", ring16_problem, ring16_W, GAMMA, z0_16)
    trace = run(*args, max_iters=5000, tol=1e-10, record_every=1)
    assert trace.reason == "tol_reached"
    assert len(trace.records) == trace.iterations + 1
    sparse = run(*args, max_iters=5000, tol=1e-10, record_every=100)
    assert sparse.records.iteration.tolist() == [*range(0, 838, 100), 838]
    assert sparse.records[-1].tobytes() == trace.records[-1].tobytes()


def test_term_table_follows_the_steps_run_not_max_iters(ring16_problem, ring16_W, z0_16):
    # max_iters = 10**13 would be a 1 PiB table allocated up front; this run
    # reaches tol at iteration 838 and keeps only the rows it ran.
    huge = run("dogt", ring16_problem, ring16_W, 0.1, z0_16, max_iters=10**13, tol=1e-10,
               record_every=1)
    plain = run("dogt", ring16_problem, ring16_W, 0.1, z0_16, max_iters=20000, tol=1e-10,
                record_every=1)
    assert huge.reason == "tol_reached" and len(huge.records) == 839
    assert huge.records.tobytes() == plain.records.tobytes()
