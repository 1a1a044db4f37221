from itertools import islice

import numpy as np
import pytest

import reference_impl as ref
from netsaddle.algorithms import Trace, iterate, run, stack_states
from netsaddle.graph import (accelerated_matrix, build_topology,
                             metropolis_weights, recommended_T)
from netsaddle.metrics import (field_at_average_sq, fill_term_rows, max_stepsize,
                               step_terms, term_table)
from netsaddle.problem import BilinearQuadratic
from netsaddle.verify import (LEMMA_IDS, LemmaCheckReport, check_lemma, check_rho_M,
                              margins_csv_rows, run_all_checks, summary_text)

GAMMA_EXPERIMENT = 0.1


@pytest.fixture(scope="module")
def compliant_trace(ring16_problem, ring16_W, z0_16):
    gamma = max_stepsize(ring16_problem.smoothness_constant(), ring16_W.rho)
    return run("dogt", ring16_problem, ring16_W, gamma, z0_16,
               max_iters=500, tol=0.0, record_states=True)


@pytest.fixture(scope="module")
def experiment_trace(ring16_problem, ring16_W, z0_16):
    return run("dogt", ring16_problem, ring16_W, GAMMA_EXPERIMENT, z0_16,
               max_iters=300, tol=0.0, record_states=True)


# ---------------------------------------------------------------------------
# finite differences (the oracle lives in reference_impl)


def test_finite_difference_matches_closed_form(ring16_problem):
    z = np.array([0.4, -1.1, 0.9, 0.2])
    exact = ring16_problem.gradient_field(np.tile(z, (16, 1)))[5]
    approx = ref.finite_difference_gradient(ring16_problem, 5, z, h=1e-6)
    assert np.abs(approx - exact).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_finite_difference_near_zero_at_own_stationary_point():
    prob = BilinearQuadratic(centers_a=np.zeros((2, 2)), centers_b=np.zeros((2, 2)),
                             mu=0.5, zero_sum=True)
    approx = ref.finite_difference_gradient(prob, 0, np.zeros(4), h=1e-6)
    assert np.abs(approx).max() <= 1e-9


def test_finite_difference_rejects_bad_h(ring16_problem):
    with pytest.raises(ValueError):
        ref.finite_difference_gradient(ring16_problem, 0, np.zeros(4), h=0.0)


# ---------------------------------------------------------------------------
# lemma checks


def test_all_checks_pass_on_compliant_run(compliant_trace):
    reports = run_all_checks(compliant_trace)
    assert [rep.lemma_id for rep in reports] == list(LEMMA_IDS)
    for rep in reports:
        assert rep.passed, f"{rep.lemma_id}: {rep.status} min={rep.min_margin}"


def test_shared_terms_give_the_reports_of_each_check_alone(compliant_trace):
    assert run_all_checks(compliant_trace) == [check_lemma(compliant_trace, lemma_id)
                                               for lemma_id in LEMMA_IDS]


def test_margins_cover_every_step(compliant_trace):
    rep = check_lemma(compliant_trace, "L2_consensus")
    assert len(rep.margins) == len(compliant_trace.terms) - 1
    assert [k for k, _ in rep.margins] == list(range(500))


def test_homogeneous_fixed_point_all_margins_zero():
    # Starting exactly at the shared saddle, every update term vanishes; a
    # run() would stop at iteration 0, so drive the steps directly.
    prob = BilinearQuadratic(centers_a=np.zeros((4, 2)), centers_b=np.zeros((4, 2)),
                             mu=0.1, zero_sum=True)
    W = metropolis_weights(build_topology("ring", 4))
    gamma = max_stepsize(prob.smoothness_constant(), W.rho)
    L = prob.smoothness_constant()
    table = term_table(21, 4)
    stack = stack_states(list(islice(iterate("dogt", prob, W, gamma, np.zeros((4, 4))), 21)))
    fill_term_rows(table, stack, step_terms(stack, gamma, L, W.rho, 4, np.zeros(4)))
    table["e"], table["E"] = field_at_average_sq(prob, table["zbar"])
    trace = Trace(kind="dogt", gamma=gamma, mu=prob.mu, smoothness=L, rho=W.rho, n=4,
                  problem=prob, mixing=W, z_star=np.zeros(4), records=(),
                  terms=table, reason="max_iters", iterations=20, comm_rounds=20)
    for lemma_id in ("L1_iterate_gap", "L2_consensus", "L3_tracking",
                     "L4_optimality_gap", "T1_contraction"):
        rep = check_lemma(trace, lemma_id)
        assert rep.passed
        assert all(m == 0.0 for _, m in rep.margins)


def test_experiment_stepsize_violates_tight_preconditions(experiment_trace):
    # gamma = 0.1 satisfies the loose L1/L2 conditions but not L3/L4/T1.
    by_id = {rep.lemma_id: rep for rep in run_all_checks(experiment_trace)}
    assert by_id["L1_iterate_gap"].passed
    assert by_id["L2_consensus"].passed
    for lemma_id in ("L3_tracking", "L4_optimality_gap", "T1_contraction"):
        rep = by_id[lemma_id]
        assert rep.status == "precondition_violated"
        assert rep.margins == ()
        assert "stepsize" in rep.notes[0]
    assert by_id["T2_rho_M"].passed


def test_t1_passes_on_complete_graph_with_stepsize_branch():
    # rho = 0: the contraction factor is 1 - 3 gamma mu / 4.
    prob = BilinearQuadratic(
        centers_a=np.random.default_rng(1).standard_normal((6, 2)),
        centers_b=np.random.default_rng(2).standard_normal((6, 2)), mu=0.1)
    W = metropolis_weights(build_topology("complete", 6))
    assert W.rho <= 1e-14
    gamma = max_stepsize(prob.smoothness_constant(), W.rho)
    trace = run("dogt", prob, W, gamma, np.zeros((6, 4)), max_iters=200,
                tol=0.0, record_states=True)
    rep = check_lemma(trace, "T1_contraction")
    assert rep.passed
    assert 0.75 * gamma * prob.mu < (1.0 - W.rho) / 8.0  # stepsize branch binds


@pytest.mark.parametrize("kind,n,scheme", [
    ("star", 8, "metropolis"),
    ("path", 6, "metropolis"),
    ("complete", 5, "lazy_max_degree"),
    ("random", 10, "metropolis"),
])
def test_all_checks_pass_across_graph_families(kind, n, scheme):
    # The inequalities are graph-agnostic theorems; spot-check beyond rings.
    from netsaddle.graph import lazy_max_degree_weights
    from netsaddle.problem import make_bilinear_quadratic
    topo = build_topology(kind, n, seed=5, edge_probability=0.4)
    W = (metropolis_weights if scheme == "metropolis" else lazy_max_degree_weights)(topo)
    prob = make_bilinear_quadratic(n, 2, 2, 0.1, seed=13)
    gamma = max_stepsize(prob.smoothness_constant(), W.rho)
    z0 = np.random.default_rng(14).standard_normal((n, 4))
    trace = run("dogt", prob, W, gamma, z0, max_iters=200, tol=0.0,
                record_states=True)
    for rep in run_all_checks(trace):
        assert rep.passed, f"{kind}/{scheme} {rep.lemma_id}: {rep.status} " \
                           f"min={rep.min_margin}"


def test_check_lemma_requires_states(ring16_problem, ring16_W, z0_16):
    trace = run("dogt", ring16_problem, ring16_W, GAMMA_EXPERIMENT, z0_16,
                max_iters=10, tol=0.0, record_states=False)
    with pytest.raises(ValueError):
        check_lemma(trace, "L1_iterate_gap")


def test_check_lemma_unknown_id(compliant_trace):
    with pytest.raises(ValueError):
        check_lemma(compliant_trace, "L5_everything")


def test_trajectory_terms_equal_trace_columns(ring16_problem, ring16_W, z0_16):
    # The checks read the trace's term table, and the table and the records
    # share one definition of every term, so they agree bit for bit.
    gamma = max_stepsize(ring16_problem.smoothness_constant(), ring16_W.rho)
    trace = run("dogt", ring16_problem, ring16_W, gamma, z0_16, max_iters=300,
                tol=0.0, record_every=1, record_states=True)
    assert len(trace.records) == len(trace.terms) == 301
    for term, column in (("D", "tracking_error"), ("xi_sq", "xi_norm_sq"),
                         ("V", "lyapunov")):
        recorded = np.array([getattr(rec, column) for rec in trace.records])
        assert (trace.terms[term] == recorded).all(), term


def test_checks_are_rerunnable(compliant_trace):
    first = check_lemma(compliant_trace, "L4_optimality_gap")
    second = check_lemma(compliant_trace, "L4_optimality_gap")
    assert first == second


# ---------------------------------------------------------------------------
# accelerated-matrix check


def test_check_rho_M_on_averaging_matrix():
    W = metropolis_weights(build_topology("complete", 4))  # equals J
    rep = check_rho_M(W, 1)
    assert rep.passed
    assert all(m >= 0.0 for _, m in rep.margins)


def test_check_rho_M_ring16_recommended(ring16_W):
    rep = check_rho_M(ring16_W, 4)
    assert rep.passed
    margins = dict(rep.margins)
    assert margins[1] >= 0.0  # half-gap guarantee
    # The printed envelope 2(1-s)^(2T) is violated here (rho_M = 0.3297 vs
    # 0.2596); pinned so the diagnostic stays visible.
    assert margins[0] == pytest.approx(0.2596 - 0.3297, abs=5e-4)


def test_check_rho_M_ring16_T1_vacuous(ring16_W):
    rep = check_rho_M(ring16_W, 1)
    assert any("vacuous" in note for note in rep.notes)
    # Momentum tuned for 4 rounds overshoots at T=1: rho_M slightly above 1.
    rho_M = accelerated_matrix(ring16_W, 1).rho
    assert rho_M == pytest.approx(1.0581, abs=5e-4)
    assert dict(rep.margins)[0] == pytest.approx(1.0 - rho_M, abs=1e-12)
    assert rep.passed  # no gated claim exists at off-design T


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_check_rho_M_half_gap_all_rings(n):
    W = metropolis_weights(build_topology("ring", n))
    rep = check_rho_M(W, recommended_T(W.rho))
    assert rep.passed
    assert dict(rep.margins)[1] >= -1e-10


# ---------------------------------------------------------------------------
# report plumbing


def test_summary_text_mentions_every_check(compliant_trace):
    text = summary_text(run_all_checks(compliant_trace))
    for lemma_id in LEMMA_IDS:
        assert lemma_id in text
    assert "FAILED" not in text


def test_margins_csv_rows_schema(compliant_trace):
    rows = margins_csv_rows(run_all_checks(compliant_trace))
    assert rows[0] == "lemma_id,iteration,margin"
    lemma_id, iteration, margin = rows[1].split(",")
    assert lemma_id in LEMMA_IDS
    int(iteration)
    float(margin)


def test_report_from_sides_derives_failure():
    rep = LemmaCheckReport.from_sides("L1_iterate_gap", [0, 1], [1.0, 3.0], [2.0, 1.0])
    assert rep.status == "failed"
    assert rep.min_margin == -2.0
    assert not rep.passed
    # an overflowed side fails instead of slipping through as a NaN margin
    nan, inf = float("nan"), float("inf")
    assert LemmaCheckReport.from_sides("L1_iterate_gap", [0, 1], [nan, 1.0],
                                       [1.0, 2.0]).status == "failed"
    assert LemmaCheckReport.from_sides("L1_iterate_gap", [0], [inf], [inf]).status == "failed"
    assert LemmaCheckReport.from_sides("L1_iterate_gap", [0], [inf], [1.0]).status == "failed"


def test_report_tolerates_rounding_noise():
    rep = LemmaCheckReport.from_sides("L1_iterate_gap", [0], [1.0 + 1e-12], [1.0])
    assert rep.passed
