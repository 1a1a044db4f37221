import math
from itertools import islice

import numpy as np
import pytest

import reference_impl as ref
from netsaddle.algorithms import Trace, run
from netsaddle.graph import accelerated_matrix, build_topology, metropolis_weights
from netsaddle import metrics, verify
from netsaddle.metrics import (max_stepsize, metric_record, record_table, residual, step_terms,
                               theoretical_contraction)
from netsaddle.problem import BilinearQuadratic
from netsaddle.verify import (LEMMA_IDS, LemmaCheckReport, check_lemma, check_rho_M,
                              margins_csv_rows, run_all_checks, summary_text)
from reference_impl import iterate, stack_states

GAMMA_EXPERIMENT = 0.1


@pytest.fixture(scope="module")
def compliant_trace(ring16_problem, ring16_W, z0_16):
    gamma = max_stepsize(ring16_problem.smoothness_constant(), ring16_W.rho)
    return run("dogt", ring16_problem, ring16_W, gamma, z0_16,
               max_iters=500, tol=0.0, record_every=1)


@pytest.fixture(scope="module")
def experiment_trace(ring16_problem, ring16_W, z0_16):
    return run("dogt", ring16_problem, ring16_W, GAMMA_EXPERIMENT, z0_16,
               max_iters=300, tol=0.0, record_every=1)


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


def report_key(rep):
    """A report as comparable values; its margins as bytes, so -0.0 and +0.0 differ."""
    return (rep.lemma_id, rep.margins.tobytes(), repr(rep.min_margin), rep.status, rep.notes)


def test_shared_terms_give_the_reports_of_each_check_alone(compliant_trace):
    assert [report_key(rep) for rep in run_all_checks(compliant_trace)] == [
        report_key(check_lemma(compliant_trace, lemma_id)) for lemma_id in LEMMA_IDS]


STEP_LEMMAS = LEMMA_IDS[:5]    # the inequalities of _STEP_INEQUALITIES


@pytest.fixture(scope="module")
def complete7_trace():
    # rho = 0: the limits' rho = 0 branches.  L2 and L3 fail here on rounding
    # residues of about 1e-31 against bounds that are exactly 0.
    problem = BilinearQuadratic(
        centers_a=np.random.default_rng(3).standard_normal((7, 2)),
        centers_b=np.random.default_rng(4).standard_normal((7, 2)), mu=0.1)
    W = metropolis_weights(build_topology("complete", 7))
    assert W.rho == 0.0
    gamma = max_stepsize(problem.smoothness_constant(), W.rho)
    return run("dogt", problem, W, gamma, np.random.default_rng(5).standard_normal((7, 4)),
               max_iters=200, tol=0.0, record_every=1)


@pytest.mark.parametrize("lemma_id", STEP_LEMMAS)
def test_each_check_is_its_inequality_written_out_bit_for_bit(lemma_id, compliant_trace,
                                                               complete7_trace):
    # The table's limit and the margins it gives are those of the inequality
    # written as one expression (reference_impl), to the bit.
    for rho in (0.0, 1e-32, 0.25, 0.9):
        assert (verify._STEP_INEQUALITIES[lemma_id][1](1.3, rho)
                == ref.lemma_stepsize_limit(lemma_id, 1.3, rho))
    for trace in (compliant_trace, complete7_trace):
        problem, records = trace.problem, trace.records
        bounded, rhs = ref.lemma_sides(lemma_id, records[:-1], *verify.field_at_average(trace),
                                       trace.gamma, problem.smoothness_constant(), problem.mu,
                                       trace.rho, problem.n)
        margins = check_lemma(trace, lemma_id).margins["margin"]
        assert margins.tobytes() == (rhs - records[bounded][1:]).tobytes()


@pytest.mark.parametrize("lemma_id", STEP_LEMMAS)
def test_halving_any_coefficient_moves_the_margins(lemma_id, compliant_trace, monkeypatch):
    # Every (coefficient, term) pair of the table is live: halving its
    # coefficient changes the lemma's margins on the compliant ring-16 trace,
    # while the same substitution with the coefficient kept gives them bit
    # for bit.
    bounded, limit, bound = verify._STEP_INEQUALITIES[lemma_id]
    field = verify.field_at_average(compliant_trace)
    want = check_lemma(compliant_trace, lemma_id, field).margins.tobytes()

    def margins(index, factor):
        def scaled(*constants):
            pairs = list(bound(*constants))
            coefficient, term = pairs[index]
            pairs[index] = (coefficient * factor, term)
            return pairs
        monkeypatch.setitem(verify._STEP_INEQUALITIES, lemma_id, (bounded, limit, scaled))
        return check_lemma(compliant_trace, lemma_id, field).margins.tobytes()

    problem = compliant_trace.problem
    terms = [term for _, term in bound(compliant_trace.gamma, problem.smoothness_constant(),
                                       problem.mu, compliant_trace.rho, problem.n)]
    assert len(set(terms)) == len(terms)     # each term has one coefficient
    for index, term in enumerate(terms):
        assert margins(index, 1.0) == want, term
        assert margins(index, 0.5) != want, term


def test_margins_cover_every_step(compliant_trace):
    rep = check_lemma(compliant_trace, "L2_consensus")
    assert len(rep.margins) == len(compliant_trace.records) - 1
    assert rep.margins["iteration"].tolist() == list(range(500))


def test_homogeneous_fixed_point_all_margins_zero():
    # Starting exactly at the shared saddle, every update term vanishes; a
    # run() would stop at iteration 0, so drive the steps directly.
    prob = BilinearQuadratic(centers_a=np.zeros((4, 2)), centers_b=np.zeros((4, 2)),
                             mu=0.1, zero_sum=True)
    W = metropolis_weights(build_topology("ring", 4))
    gamma = max_stepsize(prob.smoothness_constant(), W.rho)
    L = prob.smoothness_constant()
    table = record_table(21, 4)
    stack = stack_states(list(islice(iterate("dogt", prob, W, gamma, np.zeros((4, 4))), 21)))
    metric_record(table, stack, residual(stack.z, np.zeros(4)), gamma, L, W.rho, np.zeros(4))
    table["comm_rounds"] = table["iteration"]
    trace = Trace(gamma=gamma, problem=prob, mixing=W, records=table.view(np.recarray),
                  reason="max_iters")
    assert (trace.iterations, trace.comm_rounds) == (20, 20)
    for lemma_id in ("L1_iterate_gap", "L2_consensus", "L3_tracking",
                     "L4_optimality_gap", "T1_contraction"):
        rep = check_lemma(trace, lemma_id)
        assert rep.passed
        assert (rep.margins["margin"] == 0.0).all()


def test_experiment_stepsize_violates_tight_preconditions(experiment_trace):
    # gamma = 0.1 satisfies the loose L1/L2 conditions but not L3/L4/T1.
    by_id = {rep.lemma_id: rep for rep in run_all_checks(experiment_trace)}
    assert by_id["L1_iterate_gap"].passed
    assert by_id["L2_consensus"].passed
    for lemma_id in ("L3_tracking", "L4_optimality_gap", "T1_contraction"):
        rep = by_id[lemma_id]
        assert rep.status == "precondition_violated"
        assert len(rep.margins) == 0
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
                tol=0.0, record_every=1)
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
                record_every=1)
    for rep in run_all_checks(trace):
        assert rep.passed, f"{kind}/{scheme} {rep.lemma_id}: {rep.status} " \
                           f"min={rep.min_margin}"


def test_check_lemma_requires_states(ring16_problem, ring16_W, z0_16):
    # The checks need a row for every step: a record grid with gaps raises.
    trace = run("dogt", ring16_problem, ring16_W, GAMMA_EXPERIMENT, z0_16,
                max_iters=10, tol=0.0, record_every=3)
    with pytest.raises(ValueError, match="record of every step"):
        check_lemma(trace, "L1_iterate_gap")


def test_check_lemma_on_a_run_with_no_steps(ring16_problem, ring16_W, z0_16):
    trace = run("dogt", ring16_problem, ring16_W, GAMMA_EXPERIMENT, z0_16,
                max_iters=10, tol=np.inf, record_every=1)
    assert trace.iterations == 0 and len(trace.records) == 1
    for lemma_id in LEMMA_IDS[:5]:
        report = check_lemma(trace, lemma_id)
        assert report.status == "precondition_violated", lemma_id
        assert report.notes == ("no steps recorded",) and len(report.margins) == 0


def test_check_lemma_unknown_id(compliant_trace):
    with pytest.raises(ValueError):
        check_lemma(compliant_trace, "L5_everything")


def test_trajectory_terms_equal_trace_columns(ring16_problem, ring16_W, z0_16):
    # The checks read the columns of the trace's records, the table the CSV
    # is written from: its V column is V of each state, and T1's margins are
    # those of that V, bit for bit.
    gamma = max_stepsize(ring16_problem.smoothness_constant(), ring16_W.rho)
    trace = run("dogt", ring16_problem, ring16_W, gamma, z0_16, max_iters=300,
                tol=0.0, record_every=1)
    assert len(trace.records) == 301
    states = islice(iterate("dogt", ring16_problem, ring16_W, gamma, z0_16), 301)
    L = ring16_problem.smoothness_constant()
    z_star = ring16_problem.saddle_point()
    V = np.array([step_terms(s, gamma, L, trace.rho, 16, z_star)["V"] for s in states])
    assert trace.records.V.tobytes() == V.tobytes()
    factor = theoretical_contraction(gamma, ring16_problem.mu, trace.rho)
    rep = check_lemma(trace, "T1_contraction")
    assert rep.margins["margin"].tobytes() == (factor * V[:-1] - V[1:]).tobytes()


def test_e_and_E_are_the_field_at_each_state_average(ring16_problem, ring16_W, z0_16,
                                                      random1024):
    # verify computes e and E from the zbar column, in blocks of rows; each
    # is field_at_average_sq at one state's own row average, bit for bit, on
    # ring-16 over several blocks and on the gathered random n = 1024 graph.
    for problem, W, z0, steps in ((ring16_problem, ring16_W, z0_16, 300), (*random1024, 30)):
        trace = run("dogt", problem, W, GAMMA_EXPERIMENT, z0, max_iters=steps, tol=0.0,
                    record_every=1)
        assert verify._FIELD_BLOCK_BYTES // (8 * 4 * problem.n) < len(trace.records) - 1
        e, E = verify.field_at_average(trace)
        assert len(e) == len(E) == len(trace.records) - 1
        states = iterate("dogt", problem, trace.mixing, trace.gamma, z0)
        for k, state in zip(range(len(e)), states):
            one = metrics.field_at_average_sq(problem, state.z.mean(axis=0))
            assert (e[k].tobytes(), E[k].tobytes()) == (one[0].tobytes(), one[1].tobytes())


def test_e_and_E_memory_stays_flat(ring16_problem, ring16_W, z0_16, random1024):
    # e and E never hold the field of every row at once: K x n x (p+d)
    # floats, 1 MB for the 2000 steps of the ring-16 verify config and 10 MB
    # for 20000; nor more than a few blocks of rows, whatever K.
    import tracemalloc
    for problem, W, z0, steps in ((ring16_problem, ring16_W, z0_16, 2000), (*random1024, 30)):
        trace = run("dogt", problem, W, GAMMA_EXPERIMENT, z0, max_iters=steps, tol=0.0,
                    record_every=1)
        whole = (len(trace.records) - 1) * problem.n * 4 * 8
        tracemalloc.start()
        try:
            verify.field_at_average(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < min(whole / 2, 8 * verify._FIELD_BLOCK_BYTES), (peak, whole)


def test_run_all_checks_computes_e_and_E_once(compliant_trace, monkeypatch):
    calls = []
    field = verify.field_at_average
    monkeypatch.setattr(verify, "field_at_average", lambda trace: calls.append(1) or field(trace))
    run_all_checks(compliant_trace)
    assert len(calls) == 1


@pytest.mark.parametrize("lemma_id,computes", [
    ("L1_iterate_gap", 1), ("L2_consensus", 0), ("L3_tracking", 1),
    ("L4_optimality_gap", 1), ("T1_contraction", 0), ("T2_rho_M", 0)])
def test_a_check_alone_computes_e_and_E_only_where_it_reads_them(lemma_id, computes,
                                                                  compliant_trace,
                                                                  monkeypatch):
    # L1 and L3 read e and L4 reads E; the others read neither, and give the
    # report they give with the field passed in.
    calls = []
    field = verify.field_at_average
    monkeypatch.setattr(verify, "field_at_average", lambda trace: calls.append(1) or field(trace))
    alone = check_lemma(compliant_trace, lemma_id)
    assert len(calls) == computes
    given = check_lemma(compliant_trace, lemma_id, field(compliant_trace))
    assert report_key(alone) == report_key(given)


def test_checks_are_rerunnable(compliant_trace):
    first = check_lemma(compliant_trace, "L4_optimality_gap")
    second = check_lemma(compliant_trace, "L4_optimality_gap")
    assert report_key(first) == report_key(second)


# ---------------------------------------------------------------------------
# accelerated-matrix check


def test_check_rho_M_on_averaging_matrix():
    W = metropolis_weights(build_topology("complete", 4))  # equals J
    rep = check_rho_M(W, 1)
    assert rep.passed
    # rho_W and rho_M are 0 up to the rounding of W's eigenvalues (about
    # 1e-16 each, squared), so the diagnostic envelope of margin 0 is about
    # rho_W / 2, and its sign is rounding's; the gated half-gap margin holds
    # outright.
    rho_M = accelerated_matrix(W, 1).rho
    assert W.rho <= 1e-30 and rho_M <= 1e-30
    envelope = 2.0 * (1.0 - math.sqrt(1.0 - math.sqrt(W.rho))) ** 2
    assert envelope <= 1e-30
    assert dict(rep.margins.tolist()) == {0: envelope - rho_M, 1: 0.5 - rho_M}


def test_check_rho_M_ring16_recommended(ring16_problem, ring16_W, z0_16):
    rep = check_rho_M(ring16_W, 4)
    assert rep.passed
    # An adogt trace's T2 is its exchange's W at its rounds.
    trace = run("adogt", ring16_problem, accelerated_matrix(ring16_W, 4), GAMMA_EXPERIMENT,
                z0_16, max_iters=1, tol=0.0)
    assert check_lemma(trace, "T2_rho_M").margins.tobytes() == rep.margins.tobytes()
    margins = dict(rep.margins.tolist())
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
    assert dict(rep.margins.tolist())[0] == pytest.approx(1.0 - rho_M, abs=1e-12)
    assert rep.passed  # no gated claim exists at off-design T


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_check_rho_M_half_gap_all_rings(n):
    W = metropolis_weights(build_topology("ring", n))
    rep = check_rho_M(W, accelerated_matrix(W).rounds)
    assert rep.passed
    assert dict(rep.margins.tolist())[1] >= -1e-10
    assert check_rho_M(W).margins.tolist() == rep.margins.tolist()  # T defaults to auto


# ---------------------------------------------------------------------------
# report plumbing


def test_summary_text_mentions_every_check(compliant_trace):
    text = summary_text(run_all_checks(compliant_trace))
    for lemma_id in LEMMA_IDS:
        assert lemma_id in text
    assert "FAILED" not in text


def test_margins_csv_rows_schema(compliant_trace):
    rows = "".join(margins_csv_rows(run_all_checks(compliant_trace))).split("\n")
    assert rows[0] == "lemma_id,iteration,margin" and rows[-1] == ""
    lemma_id, iteration, margin = rows[1].split(",")
    assert lemma_id in LEMMA_IDS
    int(iteration)
    float(margin)


def test_margins_csv_rows_are_the_margins_formatted_one_by_one():
    margins = [0.0, -0.0, 1 / 3, -2.5e-300, 5e-324, float("inf"), float("-inf"),
               float("nan")]
    reports = [LemmaCheckReport.from_sides("L1_iterate_gap", range(len(margins)),
                                           [0.0] * len(margins), margins),
               LemmaCheckReport.from_sides("T1_lyapunov", [7], [0.0], [1e16])]
    text = "".join(margins_csv_rows(reports))
    assert text == "\n".join([
        "lemma_id,iteration,margin",
        *(f"L1_iterate_gap,{k},{m:.17g}" for k, m in enumerate(margins)),
        "T1_lyapunov,7,10000000000000000"]) + "\n"


def test_margins_csv_is_written_in_chunks_of_rows(monkeypatch):
    # A report longer than a chunk is written in several strings, which join
    # to the rows of one.
    monkeypatch.setattr(metrics, "_CSV_CHUNK_ROWS", 3)
    margins = np.linspace(-1.0, 1.0, 8)
    report = LemmaCheckReport.from_sides("L2_consensus", range(8), np.zeros(8), margins)
    chunks = list(margins_csv_rows([report]))
    assert len(chunks) == 1 + 3
    assert "".join(chunks).splitlines()[1:] == [f"L2_consensus,{k},{m:.17g}"
                                               for k, m in enumerate(margins)]


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
