import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from netsaddle import graph, verify
from netsaddle.algorithms import run
from netsaddle.cli import load_config, resolve_experiment
from netsaddle.graph import (MAX_T_FACTOR, WEIGHT_BUILDERS, CSRMix, DisconnectedGraphError,
                             MixingMatrix, Nonzeros, Topology, accelerated_matrix,
                             acceleration_momentum, build_topology, lazy_max_degree_weights,
                             metropolis_weights, spectral_gap)
from netsaddle.problem import make_bilinear_quadratic

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def ring_metropolis_eigenvalue(n, k):
    """Circulant closed form for the Metropolis ring: (1 + 2 cos(2 pi k / n)) / 3."""
    return (1.0 + 2.0 * math.cos(2.0 * math.pi * k / n)) / 3.0


# ---------------------------------------------------------------------------
# topologies


def test_complete_graph_adjacency():
    adjacency = ref.adjacency_of(build_topology("complete", 3))
    assert adjacency.sum() == 6  # every ordered pair
    assert not adjacency.diagonal().any()


def test_ring16_every_node_has_two_neighbors():
    topo = build_topology("ring", 16)
    assert (topo.degrees == 2).all()


def test_ring2_degenerates_to_single_edge():
    topo = build_topology("ring", 2)
    adjacency = ref.adjacency_of(topo)
    assert adjacency[0, 1] and adjacency[1, 0]
    assert (topo.degrees == 1).all()


def test_single_node_topologies():
    for kind in ("ring", "path", "star", "complete"):
        topo = build_topology(kind, 1)
        assert topo.n == 1
        assert not ref.adjacency_of(topo).any()
        for builder in WEIGHT_BUILDERS.values():
            W = builder(topo)
            assert W.W.tolist() == [[1.0]] and W.spectrum.size == 0 and W.rho == 0.0


def test_star_shape():
    topo = build_topology("star", 5)
    assert topo.degrees[0] == 4
    assert (topo.degrees[1:] == 1).all()


def test_invalid_node_count():
    with pytest.raises(ValueError):
        build_topology("ring", 0)


def test_unknown_kind():
    # Also at n = 1 and 2, where every structured kind is the complete graph.
    for n in (1, 2, 4):
        with pytest.raises(ValueError, match="unknown topology kind 'torus'"):
            build_topology("torus", n)


def test_random_topology_needs_seed_and_probability():
    with pytest.raises(ValueError):
        build_topology("random", 8, seed=1)
    with pytest.raises(ValueError):
        build_topology("random", 8, edge_probability=0.5)


def test_random_topology_is_connected_and_reproducible():
    t1 = build_topology("random", 12, seed=3, edge_probability=0.3)
    t2 = build_topology("random", 12, seed=3, edge_probability=0.3)
    assert np.array_equal(ref.adjacency_of(t1), ref.adjacency_of(t2))


@pytest.mark.parametrize("n, p, seed, draws", [
    (16, 0.15, 7, 9),           # below one block of rows, connected at the 9th draw
    (37, 0.2, 3, 1),
    (64, 0.3, 1, 1),            # exactly one block
    (130, 0.04, 5, 3),          # three blocks, the last short, and three draws
    (1024, 0.01, 1000, 1),      # random1024-dogt's graph
])
def test_random_topology_equals_one_full_draw(n, p, seed, draws):
    # Drawn block by block, the graph is the one of an n x n draw per attempt.
    adjacency, used = ref.random_adjacency(n, p, seed)
    assert used == draws
    assert np.array_equal(ref.adjacency_of(build_topology("random", n, seed=seed,
                                                          edge_probability=p)), adjacency)


def test_random_topology_disconnected_after_retries():
    # Probability so small that 3+ nodes essentially never connect.
    with pytest.raises(DisconnectedGraphError):
        build_topology("random", 30, seed=0, edge_probability=1e-9)


def test_disconnected_adjacency_rejected():
    with pytest.raises(DisconnectedGraphError):
        Topology(kind="random", n=4, edges=[(0, 1), (2, 3)])


# ---------------------------------------------------------------------------
# weights


def test_metropolis_ring16_all_thirds():
    topo = build_topology("ring", 16)
    W, adjacency = metropolis_weights(topo).W, ref.adjacency_of(topo)
    for i in range(16):
        assert W[i, i] == pytest.approx(1.0 / 3.0, abs=1e-14)
        for j in np.flatnonzero(adjacency[i]):
            assert W[i, j] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert np.count_nonzero(W) == 16 * 3


def test_metropolis_complete4_is_averaging_matrix():
    W = metropolis_weights(build_topology("complete", 4)).W
    assert np.allclose(W, np.full((4, 4), 1.0 / 4), atol=1e-14)


def test_metropolis_star3_by_hand():
    # Center 0 has degree 2, leaves degree 1: w_01 = w_02 = 1/(1+2) = 1/3,
    # w_00 = 1/3, leaf diagonals 2/3.
    W = metropolis_weights(build_topology("star", 3)).W
    expected = np.array([[1/3, 1/3, 1/3],
                         [1/3, 2/3, 0.0],
                         [1/3, 0.0, 2/3]])
    assert np.allclose(W, expected, atol=1e-14)


def test_lazy_max_degree_ring():
    W = lazy_max_degree_weights(build_topology("ring", 8)).W
    assert W[0, 1] == pytest.approx(0.25)
    assert W[0, 0] == pytest.approx(0.5)


def test_support_matches_adjacency():
    topo = build_topology("random", 10, seed=5, edge_probability=0.4)
    for scheme in (metropolis_weights, lazy_max_degree_weights):
        W = scheme(topo).W
        off = ~np.eye(10, dtype=bool)
        assert ((W != 0.0) & off == ref.adjacency_of(topo)).all()


@pytest.mark.parametrize("kind,n,p,seed", [
    ("ring", 1, None, None), ("ring", 2, None, None), ("ring", 3, None, None),
    ("ring", 16, None, None), ("ring", 320, None, None), ("path", 9, None, None),
    ("star", 9, None, None), ("complete", 9, None, None)]
    + [("random", 1024, 0.01, seed) for seed in range(1000, 1004)]
    + [("path", 300, None, None), ("star", 300, None, None), ("complete", 130, None, None),
       ("random", 37, 0.2, 3), ("random", 200, 0.3, 3), ("random", 300, 0.02, 3)])
def test_edge_list_weights_equal_dense_construction(kind, n, p, seed):
    # The edges are those of the oracle's one n x n draw (or of the kind), and
    # the weights built from them are the dense constructions bit for bit:
    # every off-diagonal entry, every lazy W, and every Metropolis row of at
    # most two neighbours, whose sum has one rounding in any order.  The
    # other Metropolis diagonals (star and complete centres, random graphs)
    # are 1 minus the pairwise sum of the row's nonzeros with its zero
    # diagonal in place, bit for bit, and within 1e-15 of the dense rows'.
    topo = build_topology(kind, n, seed=seed, edge_probability=p)
    adjacency = (ref.random_adjacency(n, p, seed)[0] if kind == "random"
                 else ref.adjacency_of(topo))
    assert np.array_equal(topo.edges, np.argwhere(np.triu(adjacency)))
    assert np.array_equal(topo.degrees, adjacency.sum(axis=1))
    W, oracle = metropolis_weights(topo).W, ref.metropolis_dense(adjacency)
    off = ~np.eye(n, dtype=bool)
    assert W[off].tobytes() == oracle[off].tobytes()
    short = topo.degrees <= 2
    assert W[short].tobytes() == oracle[short].tobytes()
    rows, cols = np.nonzero(adjacency | ~off)
    row_sums = np.add.reduceat(np.where(rows == cols, 0.0, oracle[rows, cols]),
                               np.searchsorted(rows, np.arange(n)))
    assert np.diag(W).tobytes() == (1.0 - row_sums).tobytes()
    assert np.abs(np.diag(W) - np.diag(oracle)).max() <= 1e-15
    if n > 1:
        assert (lazy_max_degree_weights(topo).W.tobytes()
                == ref.lazy_max_degree_dense(adjacency).tobytes())


@pytest.mark.parametrize("kind,n", [("star", 300), ("star", 3000), ("star", 10000),
                                    ("random", 1024)])
def test_metropolis_diagonal_is_the_exact_row_sum_to_1e_15(kind, n):
    # The centre row of a star, and the five rows of largest degree of
    # random-1024 (p 0.01, graph seed 1000), against 1 minus the exact
    # rational sum of the row's floating-point weights.  The pairwise sum
    # stays within 1e-15; one weight after another, as np.bincount adds
    # them, drifts by 3.9e-15, 4.4e-14 and 9.4e-14 on the stars.
    topo = build_topology(kind, n, seed=1000, edge_probability=0.01 if kind == "random" else None)
    _, rows, cols, weights = metropolis_weights(topo).nonzeros
    for i in np.argsort(topo.degrees, kind="stable")[-1 if kind == "star" else -5:]:
        exact = 1 - sum(Fraction(float(w)) for w in weights[(rows == i) & (cols != i)])
        diagonal = weights[(rows == i) & (cols == i)][0]
        assert abs(float(Fraction(float(diagonal)) - exact)) <= 1e-15, (i, topo.degrees[i])


CLOSED_FORM_SIZES = [1, 2, 3, 4, 16, 17, 300, 1024]


@pytest.mark.parametrize("n", CLOSED_FORM_SIZES)
@pytest.mark.parametrize("kind", ["ring", "path", "star", "complete"])
def test_closed_form_spectrum_matches_eigvalsh(kind, n, monkeypatch):
    # Both schemes give W = I - L/s on the structured kinds, so their spectra
    # come from the Laplacian's in closed form, with no eigvalsh, and agree
    # with eigvalsh of W to 1e-14.  On star-1024 eigvalsh itself is 1.03e-14
    # off: there Metropolis W = I - L/1024 holds exactly in floating point, so
    # the closed form is exact, and the bound is 2e-14.
    tol = 2e-14 if (kind, n) == ("star", 1024) else 1e-14
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(args))
    topology = build_topology(kind, n)
    built = {scheme: WEIGHT_BUILDERS[scheme](topology) for scheme in WEIGHT_BUILDERS}
    monkeypatch.undo()
    assert calls == []
    for scheme, W in built.items():
        assert W.spectrum.shape == (n - 1,) and (np.diff(W.spectrum) >= 0).all()
        decomposed = np.linalg.eigvalsh(W.W)[:-1]
        assert np.abs(W.spectrum - decomposed).max(initial=0.0) <= tol, scheme
        assert abs(W.rho - spectral_gap(decomposed)) <= 2 * tol, scheme   # rho = lam^2


def test_closed_form_gap_is_zero_where_W_averages_in_one_round():
    # Metropolis W on a complete graph, and on the ring of three (a
    # triangle), is the averaging matrix: rho = 0 exactly.  eigvalsh gives a
    # rounding residue instead, eigenvalues of order n eps whose square is
    # bounded by (n eps)^2; its last bits follow the BLAS thread count
    # (complete-300 gave 2.41e-30 at one thread, under 1e-30 at two).
    for kind, n in (("complete", 2), ("complete", 49), ("complete", 300), ("ring", 3)):
        W = metropolis_weights(build_topology(kind, n))
        residue = spectral_gap(np.linalg.eigvalsh(W.W)[:-1])
        assert W.rho == 0.0 and residue <= (n * np.finfo(float).eps) ** 2


def test_a_structured_kind_has_its_own_edges():
    assert np.array_equal(Topology("ring", 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]).edges,
                          build_topology("ring", 5).edges)
    with pytest.raises(ValueError, match="not those of the ring graph"):
        Topology("ring", 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="unknown topology kind"):
        Topology("torus", 5)
    with pytest.raises(ValueError, match="needs its edges"):
        Topology("random", 5)
    for edges in ([(0, 0), (0, 1)], [(1, 0)], [(0, 5)], [(0, 1), (0, 1)]):
        with pytest.raises(ValueError, match="pairs i < j|each edge once"):
            Topology("random", 5, edges)


def test_ring_65536_weights_take_memory_linear_in_n():
    # The weights of a 65536-node ring are built from its edges: no n x n
    # array (34 GB) is made, the peak of the build stays within 512 bytes a
    # node, and the MixingMatrix, which gathers, holds arrays of O(n) only.
    n = 65536
    topology = build_topology("ring", n)
    tracemalloc.start()
    try:
        W = metropolis_weights(topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * n
    assert isinstance(W.mix, CSRMix)
    held = [*W.nonzeros[1:], W.spectrum, *vars(W.mix).values(), *topology.__dict__.values()]
    assert all(a.size <= 3 * n for a in held if isinstance(a, np.ndarray))
    assert W.rho == pytest.approx(ring_metropolis_eigenvalue(n, 1) ** 2, rel=1e-15)


@given(kind=st.sampled_from(["ring", "path", "star", "complete"]),
       n=st.integers(min_value=1, max_value=24),
       scheme=st.sampled_from(["metropolis", "lazy_max_degree"]))
def test_mixing_matrix_invariants(kind, n, scheme):
    builder = metropolis_weights if scheme == "metropolis" else lazy_max_degree_weights
    mix = builder(build_topology(kind, n))
    W = mix.W
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.array_equal(W, W.T)
    assert (W >= 0.0).all() and (W <= 1.0).all()
    assert 0.0 <= mix.rho < 1.0


@given(n=st.integers(min_value=2, max_value=16), k=st.integers(min_value=1, max_value=5))
def test_spectral_gap_of_matrix_power(n, k):
    # For symmetric doubly stochastic W, rho(W^k) = rho(W)^k exactly (the
    # extreme eigenvalue magnitude is raised to the k-th power).
    W = metropolis_weights(build_topology("ring", n))
    power = MixingMatrix(np.linalg.matrix_power(W.W, k))
    assert power.rho == pytest.approx(W.rho ** k, rel=1e-9, abs=1e-13)
    assert spectral_gap(W.spectrum ** k) == pytest.approx(W.rho ** k, rel=1e-15, abs=0.0)


@given(st.integers(min_value=1, max_value=160), st.integers(min_value=1, max_value=160))
def test_recommended_T_monotone_in_rho(n1, n2):
    # A longer ring mixes more slowly (rho_W grows with n), and never gets
    # fewer rounds.
    lo, hi = sorted((metropolis_weights(build_topology("ring", n)) for n in (n1, n2)),
                    key=lambda W: W.rho)
    assert accelerated_matrix(lo).rounds <= accelerated_matrix(hi).rounds


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ring", "path", "star", "complete", "random"]),
       n=st.integers(min_value=1, max_value=64),
       scheme=st.sampled_from(["metropolis", "lazy_max_degree"]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_rho_is_the_squared_norm_of_W_minus_J(kind, n, scheme, seed):
    # rho, read off W's own eigenvalues but its top one, is the old
    # definition ||W - J||_2^2, computed here by a singular value decomposition.
    topology = build_topology(kind, n, seed=seed,
                              edge_probability=0.3 if kind == "random" else None)
    W = WEIGHT_BUILDERS[scheme](topology)
    assert abs(W.rho - np.linalg.norm(W.W - 1.0 / n, 2) ** 2) <= 1e-13


# ---------------------------------------------------------------------------
# mixing paths


_EDGE_PROBABILITY = {16: 0.5, 300: 0.05, 1024: 0.01}


@pytest.mark.parametrize("n", [16, 300, 1024])
@pytest.mark.parametrize("kind", ["ring", "path", "star", "complete", "random"])
def test_csr_mix_equals_dense_product(kind, n):
    W = metropolis_weights(build_topology(kind, n, seed=1000,
                                          edge_probability=_EDGE_PROBABILITY[n])).W
    csr = CSRMix(W)
    assert csr.indptr[-1] == csr.cols.size == np.count_nonzero(W)
    rng = np.random.default_rng(n)
    for width in (2, 4, 6):
        m = rng.standard_normal((n, width))
        assert np.abs(csr(m) - W @ m).max() <= 1e-15
        assert np.abs(csr(m) - W @ m).max() <= 1e-15   # with the cached weights
    # Two float64 lanes at a time: a message of odd width, or not n x width, is refused.
    for shape in ((n, 1), (n, 3), (n,), (2, n, 4)):
        with pytest.raises(ValueError, match="even width"):
            csr(np.ones(shape))


@pytest.mark.parametrize("n", [16, 300, 1024])
@pytest.mark.parametrize("kind", ["ring", "path"])
def test_csr_mix_equals_one_lane_sum_where_rows_are_short(kind, n):
    # A row of at most 4 nonzeros is summed in the same order on two lanes as
    # on one, so the gather is the one-lane reference bit for bit.
    W = metropolis_weights(build_topology(kind, n)).W
    csr = CSRMix(W)
    m = np.random.default_rng(n).standard_normal((n, 4)) * np.logspace(-8, 8, 4)
    m[0, 0] = -0.0
    assert csr(m).tobytes() == ref.one_lane_gather(W, m).tobytes()
    assert csr(m[:, :2]).tobytes() == ref.one_lane_gather(W, m[:, :2]).tobytes()


@pytest.mark.parametrize("n", [16, 300, 1024])
@pytest.mark.parametrize("kind", ["ring", "random"])
def test_csr_mix_into_out_is_the_mix_bit_for_bit(kind, n):
    # With out, the row sums are written into it and it is returned: the
    # bytes of the call without it, signed zeros included.
    W = metropolis_weights(build_topology(kind, n, seed=1000,
                                          edge_probability=_EDGE_PROBABILITY[n])).W
    csr = CSRMix(W)
    rng = np.random.default_rng(n)
    for width in (2, 4):
        m = rng.standard_normal((n, width)) * np.logspace(-8, 8, width)
        m[0] = -0.0
        out = np.full((n, width), np.nan)
        assert csr(m, out) is out
        assert out.tobytes() == csr(m).tobytes()


def test_cost_rule_picks_the_mixing_path():
    for path in sorted(CONFIGS.glob("ring16_*.yaml")):
        W = resolve_experiment(load_config(path)).W
        assert not isinstance(W.mix, CSRMix), path.name
    assert not isinstance(metropolis_weights(build_topology("complete", 64)).mix, CSRMix)
    random1024 = build_topology("random", 1024, seed=1000, edge_probability=0.01)
    assert isinstance(metropolis_weights(random1024).mix, CSRMix)
    # A row without a nonzero, which would break the segmented sum, never
    # reaches the rule: W is not stochastic.
    empty_row = Nonzeros(3, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.full(4, 0.5))
    with pytest.raises(ValueError, match="not doubly stochastic"):
        MixingMatrix(empty_row)


# ---------------------------------------------------------------------------
# spectral gap


def test_spectral_gap_of_averaging_matrix_is_zero():
    assert MixingMatrix(np.full((16, 16), 1.0 / 16)).rho <= 1e-14
    assert MixingMatrix(np.full((2, 2), 1.0 / 2)).rho <= 1e-14
    assert spectral_gap(np.zeros(15)) == 0.0


def test_spectral_gap_rejects_a_matrix():
    with pytest.raises(ValueError, match="1-D"):
        spectral_gap(np.full((16, 16), 1.0 / 16))


def test_spectral_gap_single_node():
    W = MixingMatrix(np.array([[1.0]]))
    assert W.spectrum is None and W.rho == 0.0
    assert spectral_gap(np.empty(0)) == 0.0


def test_spectral_gap_of_disconnected_matrix_is_rejected():
    # Two consensus eigenvalues: the one kept in the spectrum gives rho = 1.
    assert spectral_gap(np.linalg.eigvalsh(np.eye(2))[:-1]) == 1.0
    with pytest.raises(ValueError, match="spectral gap"):
        MixingMatrix(np.eye(2))
    with pytest.raises(ValueError):
        accelerated_matrix(SimpleNamespace(rho=1.0, spectrum=np.ones(1)))


@pytest.mark.parametrize("n", [2, 3, 8, 64, 300, 1024])
@pytest.mark.parametrize("density", ["threshold", 0.5, 1.0])
def test_lanczos_gap_matches_eigvalsh_on_random_graphs(n, density):
    # rho_W from Lanczos over W's own mix (a random graph's W has no closed
    # form) against spectral_gap of the eigenvalues of the test's own
    # eigvalsh of W: near the connectivity threshold and dense, under
    # both schemes, for three graph seeds.  Given only W's nonzeros, W takes
    # the Lanczos path at n <= 2 too, where the builders pass the complete
    # graph's closed form.  A Metropolis W of the complete graph is J to
    # rounding, and rho its rounding residue (about 1e-30 by eigvalsh); it is
    # 0 exactly where W's entries are all one number, as at n = 8, 64 and
    # 1024, and Lanczos breaks down at its first step.
    p = 1.05 * math.log(n) / n if density == "threshold" else density
    for scheme, builder in WEIGHT_BUILDERS.items():
        for seed in range(3):
            built = builder(build_topology("random", n, seed=seed, edge_probability=min(p, 1.0)))
            W = MixingMatrix(built.nonzeros)
            assert W.spectrum is None
            decomposed = spectral_gap(np.linalg.eigvalsh(W.W)[:-1])
            if density == 1.0 and scheme == "metropolis":
                assert W.rho <= 1e-28 and decomposed <= 1e-28
                if (W.W == W.W[0, 0]).all():
                    assert W.rho == 0.0
            else:
                assert W.rho == pytest.approx(decomposed, rel=1e-13, abs=0.0), (scheme, seed)


def test_lanczos_stops_on_its_residual_and_defers_near_1():
    # Random-512 (p 0.02, graph seed 3) stops on the residual test, well
    # within the step cap, and decomposes nothing; eigvalsh gave rho ...925
    # there at one BLAS thread and ...954 at two.  W = I and the swap
    # [[0, 1], [1, 0]] have an eigenvalue of magnitude 1 off the consensus
    # vector: Lanczos breaks down at its first step with rho at 1 to
    # rounding, which the residual bound cannot tell from 1, so it places
    # no gap, and W is refused.
    W = metropolis_weights(build_topology("random", 512, seed=3, edge_probability=0.02))
    assert W.rho == pytest.approx(0.6353600004108925, rel=1e-14, abs=0.0)
    assert W.spectrum is None

    def gap_within(cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_LANCZOS_MAX_STEPS", cap)
            return graph._lanczos_gap(W.mix, W.n)

    steps = next(cap for cap in count(graph._LANCZOS_TEST_EVERY, graph._LANCZOS_TEST_EVERY)
                 if gap_within(cap) is not None)
    assert 20 <= steps <= graph._LANCZOS_MAX_STEPS // 2
    assert gap_within(steps) == W.rho
    for M in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
        assert graph._lanczos_gap(partial(np.matmul, M), 2) is None
        with pytest.raises(ValueError, match="spectral gap"):
            MixingMatrix(M)


@pytest.mark.parametrize("scheme", sorted(WEIGHT_BUILDERS))
def test_lanczos_out_of_steps_is_refused(scheme, monkeypatch):
    # With one step allowed, Lanczos stops on neither rule and places no
    # gap; no eigendecomposition stands in for it, and W is refused.
    monkeypatch.setattr(graph, "_LANCZOS_MAX_STEPS", 1)
    for n, p in ((30, 0.2), (400, 0.015)):
        topology = build_topology("random", n, seed=5, edge_probability=p)
        with pytest.raises(ValueError, match="spectral gap"):
            WEIGHT_BUILDERS[scheme](topology)


def test_random_W_above_the_draw_bound_runs_adogt():
    # MAX_RANDOM_DRAW_N bounds the CLI's edge draw, not the library: a
    # random W of one node more builds with rho_W from Lanczos, and adogt's
    # exchange (T: auto, rho_M by Lanczos over it) builds and runs on it.
    n = graph.MAX_RANDOM_DRAW_N + 1
    W = metropolis_weights(build_topology("random", n, seed=1, edge_probability=0.01))
    assert 0.0 < W.rho < 1.0 and isinstance(W.mix, CSRMix) and W.spectrum is None
    exchange = accelerated_matrix(W)
    assert 0.0 < exchange.rho <= 0.5
    problem = make_bilinear_quadratic(n, 2, 2, 0.1, seed=7)
    z0 = np.random.default_rng(8).standard_normal((n, 4))
    trace = run("adogt", problem, exchange, 0.01, z0, max_iters=3, tol=0.0)
    assert trace.iterations == 3 and np.isfinite(trace.records["residual"]).all()


@pytest.mark.parametrize("n", [16, 300, 1024])
def test_spectral_gap_ring_matches_circulant_form(n):
    W = metropolis_weights(build_topology("ring", n))
    assert W.rho == pytest.approx(ring_metropolis_eigenvalue(n, 1) ** 2, abs=1e-10)
    # The spectrum is every eigenvalue but the consensus 1, ascending.
    closed_form = np.sort([ring_metropolis_eigenvalue(n, k) for k in range(1, n)])
    assert np.allclose(W.spectrum, closed_form, rtol=0.0, atol=1e-14)
    assert spectral_gap(closed_form) == pytest.approx(W.rho, rel=0.0, abs=1e-14)


def test_spectral_gap_ring16_value(ring16_W):
    assert ring16_W.rho == pytest.approx(0.9011, abs=5e-5)


# ---------------------------------------------------------------------------
# acceleration


def test_momentum_zero_gap():
    assert acceleration_momentum(0.0) == 0.0


def test_momentum_exact_value():
    # sqrt(1 - 0.75) = 0.5 exactly, so eta = (1/2) / (3/2) = 1/3.
    assert acceleration_momentum(0.75) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_momentum_ring16(ring16_W):
    assert acceleration_momentum(ring16_W.rho) == pytest.approx(0.5215, abs=5e-5)


@given(rho=st.floats(min_value=0.0, max_value=0.999999))
def test_momentum_range(rho):
    eta = acceleration_momentum(rho)
    assert 0.0 <= eta < 1.0


@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_momentum_domain(rho):
    with pytest.raises(ValueError):
        acceleration_momentum(rho)


def test_recommended_T_values(ring16_W):
    assert accelerated_matrix(metropolis_weights(build_topology("complete", 5))).rounds == 1
    quarter = MixingMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]))
    assert quarter.rho == pytest.approx(0.25, abs=1e-15)
    assert accelerated_matrix(quarter).rounds == 1  # ln2 / sqrt(1 - 0.5) = 0.980 -> ceil 1
    assert accelerated_matrix(ring16_W).rounds == 4


@pytest.mark.parametrize("rho", [-0.01, 1.0])
def test_recommended_T_domain(rho):
    # Only W.rho and W.spectrum are read; a gap outside [0, 1) is refused.
    with pytest.raises(ValueError):
        accelerated_matrix(SimpleNamespace(rho=rho, spectrum=np.zeros(1)))


@pytest.mark.parametrize("n, T", [(16, 4), (64, 13), (68, 14), (100, 21), (128, 27),
                                  (256, 54), (1024, 215)])
def test_recommended_T_is_the_smallest_with_half_gap(n, T):
    # The formula's T is only a floor: from n = 68 it leaves rho_M above 1/2
    # on Metropolis rings, and T: auto goes on to the first T that meets it.
    W = metropolis_weights(build_topology("ring", n))
    floor = math.ceil(math.log(2.0) / math.sqrt(1.0 - math.sqrt(W.rho)))
    auto = accelerated_matrix(W)
    assert auto.rounds == T >= floor
    assert auto.rho == accelerated_matrix(W, T).rho <= 0.5
    assert all(accelerated_matrix(W, t).rho > 0.5 for t in range(floor, T))
    if n >= 68:
        assert T > floor
    if T <= 24:
        # T: auto's search and rho_M share one recursion, so check
        # rho_M at T against the dense M_T, with eta from ||W - J||_2^2.
        rho = np.linalg.norm(W.W - 1.0 / n, 2) ** 2
        eta = (1.0 - math.sqrt(1.0 - rho)) / (1.0 + math.sqrt(1.0 - rho))
        assert ref.accelerated_gap(W.W, T, eta) == pytest.approx(accelerated_matrix(W, T).rho,
                                                                 rel=1e-10)
        assert ref.accelerated_gap(W.W, T, eta) <= 0.5
        assert T == floor or ref.accelerated_gap(W.W, T - 1, eta) > 0.5


def dense_M(exchange):
    """The exchange's M_T, as its mix of the identity."""
    return exchange.mix(np.eye(exchange.W.n))


def test_accelerated_matrix_T1_closed_form(ring16_W):
    eta = acceleration_momentum(ring16_W.rho)
    M1 = accelerated_matrix(ring16_W, 1)
    assert (M1.eta, M1.rounds) == (eta, 1)
    expected = (1.0 + eta) * ring16_W.W - eta * np.eye(16)
    assert np.allclose(dense_M(M1), expected, atol=1e-14)


@pytest.mark.parametrize("T", [1, 4, 7])
def test_accelerated_matrix_is_the_dense_recursion_bitwise(ring16_W, T):
    eta = acceleration_momentum(ring16_W.rho)
    assert np.array_equal(dense_M(accelerated_matrix(ring16_W, T)),
                          ref.chebyshev_matrix(ring16_W.W, T, eta))


def allocating_gossip(mix, eta, T, message):
    """T rounds of momentum gossip, each round's array a new one."""
    prev = curr = message
    for _ in range(T):
        prev, curr = curr, (1.0 + eta) * mix(curr) - eta * prev
    return curr


@pytest.mark.parametrize("T", [1, 2, 3, 4, 7])
def test_gossip_in_three_buffers_is_the_allocating_recursion_bitwise(T):
    # ring-400 gathers: the gathered rounds, those of the dense W and the
    # pass over W's eigenvalues all give the bits of a recursion that
    # allocates every round, and none writes its message.
    W = metropolis_weights(build_topology("ring", 400))
    assert isinstance(W.mix, CSRMix)
    eta = acceleration_momentum(W.rho)
    message = np.random.default_rng(5).standard_normal((400, 4))
    message[0, :2] = [0.0, -0.0]
    for mix, plain, m in ((W.mix, W.mix, message),
                          (partial(np.matmul, W.W), W.W.__matmul__, message),
                          (partial(np.multiply, W.spectrum), W.spectrum.__mul__,
                           np.ones_like(W.spectrum))):
        m = m.copy()
        m.setflags(write=False)
        assert (graph.momentum_gossip(mix, eta, T, m).tobytes()
                == allocating_gossip(plain, eta, T, m).tobytes())
    exchange = accelerated_matrix(W, T)
    assert exchange.mix(message).tobytes() == allocating_gossip(W.mix, eta, T,
                                                                message).tobytes()


def test_accelerated_matrix_zero_momentum_is_power():
    # Complete graph has rho = 0, eta = 0: recursion degenerates to W^T.
    W = metropolis_weights(build_topology("complete", 5))
    assert W.rho <= 1e-14
    M3 = accelerated_matrix(W, 3)
    assert M3.eta == 0.0
    assert np.allclose(dense_M(M3), np.linalg.matrix_power(W.W, 3), atol=1e-13)


def test_accelerated_matrix_is_kept_where_W_mixes_dense(ring16_W):
    # Where W mixes dense, the exchange's first mix builds M_T and every later
    # mix is one product by that same matrix; a second exchange builds its own.
    exchange = accelerated_matrix(ring16_W, 4)
    assert "matrix" not in vars(exchange)
    m = np.random.default_rng(3).standard_normal((16, 4))
    first = exchange.mix(m)
    M = vars(exchange)["matrix"]
    assert isinstance(M, np.ndarray) and not M.flags.writeable
    assert np.array_equal(M, ref.chebyshev_matrix(ring16_W.W, 4, exchange.eta))
    assert np.array_equal(first, M @ m)
    assert np.array_equal(exchange.mix(m), first)
    assert vars(exchange)["matrix"] is M
    other = accelerated_matrix(ring16_W, 4)
    assert np.array_equal(other.mix(m), first) and vars(other)["matrix"] is not M


EXCHANGES = ["dense W", "gathered W", "dense adogt", "gathered adogt"]


def _exchange(name):
    """One exchange of each kind: ring-16 mixes dense, a random-512 graph gathers."""
    if name.startswith("dense"):
        W = metropolis_weights(build_topology("ring", 16))
    else:
        W = metropolis_weights(build_topology("random", 512, seed=3, edge_probability=0.02))
    assert isinstance(W.mix, CSRMix) == name.startswith("gathered")
    return accelerated_matrix(W, 3) if name.endswith("adogt") else W


@pytest.mark.parametrize("name", EXCHANGES)
def test_every_exchange_mixes_through_one_contract(name):
    # mix(m, out) writes the mix of m into out and returns it, bit for bit
    # what mix(m) returns, signed zeros included, on W and on adogt's M_T,
    # dense or gathered.  Building adogt's exchange builds no M_T.
    exchange = _exchange(name)
    assert "matrix" not in vars(exchange)
    n = 16 if name.startswith("dense") else 512
    rng = np.random.default_rng(n)
    for width in (2, 4):
        m = rng.standard_normal((n, width)) * np.logspace(-8, 8, width)
        m[0] = -0.0
        out = np.full((n, width), np.nan)
        assert exchange.mix(m, out) is out
        assert out.tobytes() == exchange.mix(m).tobytes()
    # M_T exists only where adogt's exchange mixes dense, built by its first mix.
    assert ("matrix" in vars(exchange)) == (name == "dense adogt")


def test_T_is_at_most_a_multiple_of_the_formula(ring16_W):
    # A given T past MAX_T_FACTOR times the formula's T (4 on ring-16) is
    # refused before the pass; T: auto stops far below that bound.
    limit = MAX_T_FACTOR * 4
    assert accelerated_matrix(ring16_W, limit).rounds == limit
    with pytest.raises(ValueError, match="formula's T"):
        accelerated_matrix(ring16_W, limit + 1)
    for kind in ("ring", "path", "star", "complete"):
        for n in (2, 3, 27, 64, 300, 1024):
            for builder in WEIGHT_BUILDERS.values():
                W = builder(build_topology(kind, n))
                formula = math.ceil(math.log(2.0) / math.sqrt(1.0 - math.sqrt(W.rho)))
                assert accelerated_matrix(W).rounds <= 1.17 * formula


def test_accelerated_matrix_rejects_bad_T(ring16_W):
    with pytest.raises(ValueError):
        accelerated_matrix(ring16_W, 0)


@settings(max_examples=30)
@given(n=st.sampled_from([4, 8, 16]), T=st.integers(min_value=1, max_value=32))
def test_accelerated_matrix_double_stochasticity(n, T):
    W = metropolis_weights(build_topology("ring", n))
    M = dense_M(accelerated_matrix(W, T))
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-10
    assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_half_gap_at_recommended_T(n):
    W = metropolis_weights(build_topology("ring", n))
    M = accelerated_matrix(W)
    assert 1.0 - M.rho >= 0.5 - 1e-10


def test_accelerated_matrix_eigenvalues_match_scalar_recursion(ring16_W):
    # M_T shares W's eigenvectors; its eigenvalues follow the same two-term
    # recursion applied to each eigenvalue of W.  Independent spectral oracle.
    eta = acceleration_momentum(ring16_W.rho)
    T = 4
    lams = np.linalg.eigvalsh(ring16_W.W)
    m_prev = np.ones_like(lams)
    m = np.ones_like(lams)
    for _ in range(T):
        m_prev, m = m, (1.0 + eta) * lams * m - eta * m_prev
    MT = accelerated_matrix(ring16_W, T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(dense_M(MT))), np.sort(m), atol=1e-12)
    # rho_M drops the consensus eigenvalue, p_T(1) = 1.
    assert MT.rho == pytest.approx(np.sort(m * m)[-2], abs=1e-15)


ORACLE_GRAPHS = [("ring", 16), ("ring", 128), ("path", 20), ("path", 64), ("star", 9),
                 ("star", 100), ("random", 48), ("random", 128)]


@pytest.mark.parametrize("kind, n", ORACLE_GRAPHS)
def test_rho_M_matches_the_dense_oracle(kind, n):
    # rho_M from W's eigenvalues against the eigenvalues of the dense M_T - J,
    # at every T up to 24, off-design ones (rho_M >= 1) included.
    topology = build_topology(kind, n, seed=5, edge_probability=0.1 if kind == "random" else None)
    W = metropolis_weights(topology)
    gaps = []
    for T in range(1, 25):
        exchange = accelerated_matrix(W, T)
        gaps.append(exchange.rho)
        assert exchange.rho == pytest.approx(ref.accelerated_gap(W.W, T, exchange.eta),
                                             rel=0.0, abs=1e-11)
    if kind in ("ring", "path"):
        assert max(gaps) >= 1.0         # momentum tuned for more rounds overshoots


def max_p_T_sq(lams, eta, T):
    """max p_T(lam)^2 over the eigenvalues lams, by the scalar recursion."""
    prev = curr = np.ones_like(lams)
    for _ in range(T):
        prev, curr = curr, (1.0 + eta) * lams * curr - eta * prev
    return float(np.max(curr * curr, initial=0.0))


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_lanczos_rho_M_matches_eigvalsh_on_random_graphs(n):
    # A random W has no spectrum, and rho_M comes from Lanczos over adogt's
    # own exchange.  Against max p_T(lam)^2 over the test's own eigvalsh of
    # W, near the connectivity threshold and up to p = 0.5, under both
    # schemes: every T up to one past T: auto's agrees to 1e-12 relative,
    # T: auto picks the T that spectrum picks, and a T whose rho_M is 1 or
    # more (random-16 at the threshold, graph seed 1, T = 1: 1.073) is
    # returned, not refused.
    threshold = math.log(n) / n
    overshoots = []
    for p in (threshold, 3.0 * threshold, 0.5):
        for scheme, builder in WEIGHT_BUILDERS.items():
            for seed in range(2 if n < 1024 else 1):
                W = builder(build_topology("random", n, seed=seed, edge_probability=min(p, 0.5)))
                assert W.spectrum is None
                lams = np.linalg.eigvalsh(W.W)[:-1]
                auto = accelerated_matrix(W)
                T = math.ceil(math.log(2.0) / math.sqrt(1.0 - math.sqrt(W.rho)))
                while max_p_T_sq(lams, auto.eta, T) > 0.5:
                    T += 1
                assert auto.rounds == T, (p, scheme, seed)
                for t in range(1, T + 2):
                    rho_M = accelerated_matrix(W, t).rho
                    assert rho_M == pytest.approx(max_p_T_sq(lams, auto.eta, t),
                                                  rel=1e-12, abs=0.0), (p, scheme, seed, t)
                    if rho_M >= 1.0:
                        overshoots.append((p, scheme, seed, t))
    assert bool(overshoots) == (n == 16)


@pytest.mark.parametrize("m", [4, 8, 32, 128])
def test_lanczos_rho_M_where_W_is_most_negative(m):
    # Metropolis W of the complete bipartite graph K_{m,m} is (I + A)/(m + 1),
    # with eigenvalues 1, (1 - m)/(1 + m) and 1/(1 + m): the most negative
    # one sets rho_W, and p_0 = p_{-1} = 1 lifts p_T there far past 1 (17.2
    # at the formula's T = 6 for m = 128).  Given W's nonzeros alone, every
    # gap comes from Lanczos, and agrees with max p_T(lam)^2 over the test's
    # own eigvalsh to 1e-12 relative at every T up to one past T: auto's
    # (2.6e-13 at m = 128, growing with T).  T: auto picks the smallest T
    # from the formula's up with that maximum at most 1/2: 9 where the
    # formula gives 3 (m = 32), and 24 where it gives 6 (m = 128).
    adjacency = np.zeros((2 * m, 2 * m), dtype=bool)
    adjacency[:m, m:] = adjacency[m:, :m] = True
    W = MixingMatrix(Nonzeros.of(ref.metropolis_dense(adjacency)))
    assert W.spectrum is None
    lams = np.linalg.eigvalsh(W.W)[:-1]
    rho_W = spectral_gap(lams)
    assert W.rho == pytest.approx(rho_W, rel=1e-12, abs=0.0)
    auto = accelerated_matrix(W)
    T = formula = math.ceil(math.log(2.0) / math.sqrt(1.0 - math.sqrt(rho_W)))
    while max_p_T_sq(lams, auto.eta, T) > graph.RHO_M_TARGET:
        T += 1
    assert auto.rounds == T
    for t in range(1, T + 2):
        assert accelerated_matrix(W, t).rho == pytest.approx(max_p_T_sq(lams, auto.eta, t),
                                                             rel=1e-12, abs=0.0), t
    if m >= 32:
        assert T >= 3 * formula


@pytest.mark.parametrize("n", [16, 400])
def test_no_eigendecomposition_of_W(n, tmp_path, monkeypatch):
    # Every gap comes from a closed-form spectrum (a ring's) or from Lanczos
    # (a random graph's rho_W and rho_M), which decomposes only its own
    # tridiagonal: resolving and running a compare of all four methods,
    # dogt at gamma: auto and adogt at T: auto, and verify's checks of dogt
    # and adogt, give no n x n array to eigvalsh or eigh.  Ring-16 and
    # random-16 mix dense, and ring-400 and random-400 gather.
    decomposed = []    # the n x n arrays given to eigvalsh or eigh

    def counted(original, a, *args, **kwargs):
        if np.shape(a) == (n, n):
            decomposed.append(a)
        return original(a, *args, **kwargs)

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, partial(counted, getattr(np.linalg, name)))
    for graph in ({"topology": "ring", "n": n},
                  {"topology": "random", "n": n, "seed": 3,
                   "edge_probability": 0.5 if n == 16 else 0.015}):
        config = {"problem": {"type": "bilinear_quadratic", "n": n, "p": 2, "d": 2, "mu": 0.1,
                              "seed": 7, "zero_sum_centers": True},
                  "graph": graph,
                  "algorithms": [{"name": "dgda", "gamma": 0.1}, {"name": "dogda", "gamma": 0.1},
                                 {"name": "dogt", "gamma": "auto"},
                                 {"name": "adogt", "gamma": 0.1, "T": "auto"}],
                  "run": {"max_iters": 20, "tol": 0.0, "record_every": 1}}
        path = tmp_path / "compare.yaml"
        path.write_text(yaml.safe_dump(config))
        exp = resolve_experiment(load_config(path))
        assert isinstance(exp.W.mix, CSRMix) == (n == 400)
        assert (exp.W.spectrum is None) == (graph["topology"] == "random")
        traces = {algo.name: run(algo.name, exp.problem, algo.mixing, algo.gamma, exp.z0,
                                 max_iters=20, tol=0.0, record_every=1)
                  for algo in exp.algorithms}
        assert all(report.passed for report in verify.run_all_checks(traces["dogt"]))
        assert verify.run_all_checks(traces["adogt"])[-1].passed      # T2, at T: auto's T
        assert decomposed == [], graph


def test_mixing_matrix_rejects_non_stochastic():
    with pytest.raises(ValueError, match="not doubly stochastic"):
        MixingMatrix(np.array([[0.5, 0.4], [0.4, 0.5]]))
    # inf rows would fail the row-sum test; non-finite entries are named first.
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(np.array([[np.inf, 0.5], [0.5, 0.5]]))


def test_mixing_matrix_rejects_asymmetric():
    W = np.array([[0.5, 0.5, 0.0],
                  [0.0, 0.5, 0.5],
                  [0.5, 0.0, 0.5]])
    with pytest.raises(ValueError, match="symmetric"):
        MixingMatrix(W)
    # The symmetry test runs over the nonzeros of W.  It still sees an
    # asymmetric zero pattern (W[i, j] != 0 = W[j, i]) and an asymmetry
    # above its tolerance of 1e-12.  W + delta (P - I), with P the cyclic
    # shift i -> i + shift, stays doubly stochastic, and W[i, i + shift]
    # exceeds W[i + shift, i] by delta: on a ring of 6, shift 2 moves a zero
    # of W, and shift 1 an edge.
    ring = metropolis_weights(build_topology("ring", 6)).W
    for shift, delta in ((2, 1e-3), (2, 2e-12), (1, 2e-12)):
        W = ring + delta * (np.roll(np.eye(6), shift, axis=1) - np.eye(6))
        assert W[0, shift] != 0 and (W[shift, 0] != 0) == (shift == 1)
        with pytest.raises(ValueError, match="must be symmetric"):
            MixingMatrix(W)
    W = ring + 5e-13 * (np.roll(np.eye(6), 1, axis=1) - np.eye(6))
    assert MixingMatrix(W).W[0, 1] - W[1, 0] > 4e-13
    # NaN passes every comparison with a tolerance, so it is rejected up front.
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))


def test_mixing_matrix_checks_W_before_its_spectrum():
    # eigvalsh reads one triangle of W: unchecked, this W would get the
    # eigenvalue 0.476 and rho 0.227, where its eigenvalues are 0.4 and 1.
    W = np.array([[0.5, 0.5], [0.1, 0.9]])
    assert np.allclose(np.sort(np.linalg.eigvals(W).real), [0.4, 1.0])
    assert np.linalg.eigvalsh(W)[0] == pytest.approx(0.476, abs=5e-4)
    with pytest.raises(ValueError, match="not doubly stochastic"):
        MixingMatrix(W)
    with pytest.raises(ValueError, match="square"):
        MixingMatrix(np.full((2, 3), 0.5))
