"""Network topologies, doubly stochastic mixing matrices, and consensus acceleration.

A graph is its edge list: ``Topology`` keeps the pairs (i, j), i < j; a
random graph's are checked to join every node, and the structured kinds are
connected by construction.  A mixing matrix W encodes one
round of neighbour averaging.  The weight builders make W from the edges as
its nonzeros row by row (``Nonzeros``, the CSR arrays), diagonal included, and
``MixingMatrix`` checks it on those arrays.  The spectral gap
rho = ||W - J||_2^2 (squared spectral norm off the consensus direction,
J = averaging matrix) is the largest square of W's eigenvalues but the
consensus 1: smaller rho means faster mixing.

On rings, paths, stars and complete graphs both weight schemes give
W = I - L/s, with L = D - A the graph Laplacian and s an integer, so W's
eigenvalues are 1 - lam/s over the Laplacian eigenvalues lam, known in
closed form (k = 0 .. n-1):

  kind       Laplacian eigenvalues lam_k         s: metropolis   lazy_max_degree
  ring       2 - 2 cos(2 pi k / n)               3               4
  path       2 - 2 cos(pi k / n)                 3               4
  star       0, 1 (n - 2 times), n               n               2 (n - 1)
  complete   0, n (n - 1 times)                  n               2 (n - 1)

Each kind is one entry of ``_STRUCTURED``, its edges and its eigenvalues,
and ``_as_built`` holds the one exception: graphs of one or two nodes are
complete, and so is the ring of three.  Metropolis weights are
1/(1 + max(d_i, d_j)), and on these kinds every edge touches a node of the
largest degree d_max, so s = 1 + d_max; lazy max-degree weights are
1/(2 d_max) on every graph (d_max taken as 1 on a single node).  The
builders pass that spectrum.  It agrees with ``eigvalsh`` to about 1e-14
(``tests/test_graph.py``) and gives rho = 0 exactly on complete graphs and
the Metropolis ring of three, where ``eigvalsh`` gives about 1e-32.

A W without a closed-form spectrum, a random graph's, has none here:
each of its gaps comes from one plain Lanczos recurrence off the consensus
vector (``_lanczos_gap``), O(nnz) per step.  Over W's own mix it gives
rho_W: about 100 to 230 steps on random graphs of 1024 to 4096 nodes near
the connectivity threshold, stopped at a residual of 1e-10 on both extreme
Ritz pairs, and agreeing with ``eigvalsh`` to about 1e-14 relative.  Over
adogt's exchange it gives rho_M (``accelerated_matrix``).  The only
eigendecomposition is that of the recurrence's k x k tridiagonal, so every
output has the same bits at any BLAS thread count.

A dense n x n W exists only where W mixes as a dense product, which keeps
it.  ``MixingMatrix.W`` builds it on request where W gathers.  So the
weights of a ring of 65536 nodes keep about 6 MB (196608 nonzeros at 24
bytes each, and the spectrum) and peak at about 17 MB while they are built,
where a dense W would take 34 GB.  A random W builds at any n, and all four
methods run on it; the CLI bounds a random graph by its edge draw
(``MAX_RANDOM_DRAW_N``).

``accelerated_matrix`` defines adogt's exchange: T momentum-boosted gossip
rounds, whose effective matrix M_T has a much smaller gap rho_M.  It reads
rho_M off W's closed-form eigenvalues in O(nT), and for ``T: auto`` finds
the round count in the same pass; on a random W it runs one Lanczos
recurrence over the exchange per T.

Both exchanges, a ``MixingMatrix`` and an ``AcceleratedExchange``, mix
through one contract, ``mix(m, out=None)``: m -> W m (or M_T m), written
into ``out`` and returned when it is given, with the same bits either way.
Each picks its path once, when it is built.  One round of mixing costs
O(n^2) as a dense product and O(nnz) as a gather over the nonzeros of W; a
measured cost rule picks one of the two for each W, and adogt's exchange
follows W's choice.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count, islice
from typing import Callable, ClassVar, NamedTuple

import numpy as np

TOPOLOGY_KINDS = ("ring", "path", "star", "complete", "random")

_RANDOM_GRAPH_RETRIES = 100
# The largest random graph the CLI takes, checked by ``cli.load_config``
# alone: an attempt of ``build_topology`` draws n^2 uniforms, and the
# _RANDOM_GRAPH_RETRIES attempts of a draw that never connects took 6.4 s
# at n = 4096 and 23 s at n = 8192 (one BLAS thread, 2-core Xeon VM).
MAX_RANDOM_DRAW_N = 4096
_RANDOM_BLOCK_ROWS = 64     # rows of the n-column uniform draw held at once
_SUM_BLOCK_ROWS = 64        # dense rows a long row sum is taken over at once

# ``_lanczos_gap``: the residual |beta_k s_k| the Ritz pairs it tests stop
# at (and the beta_k that is breakdown), the steps between two tests of it,
# and the steps after which it places no gap.
_LANCZOS_TOL = 1e-10
_LANCZOS_TEST_EVERY = 10
_LANCZOS_MAX_STEPS = 500

# The largest T ``accelerated_matrix`` takes, as a multiple of the formula's
# T: far past any round count T: auto picks, and a bound on the time of an
# evaluation of rho_M.
MAX_T_FACTOR = 100


class DisconnectedGraphError(ValueError):
    """Random topology stayed disconnected after the bounded retry budget."""


def _is_connected(n: int, edges: np.ndarray) -> bool:
    """Whether the edges join all n nodes.

    Each node points to a node of its component no larger than itself, at
    first itself.  A round follows every pointer to its end (a root), by
    pointer jumping, and hangs the larger root of each edge that joins two
    trees under the smaller; when no edge joins two trees, the roots are the
    components, and the graph is connected iff every node reaches node 0.
    """
    i, j = edges.T
    parent = np.arange(n)
    while True:
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        a, b = parent[i], parent[j]
        joins = a != b
        if not joins.any():
            return not parent.any()
        np.minimum.at(parent, np.maximum(a, b)[joins], np.minimum(a, b)[joins])


class _Kind(NamedTuple):
    """A structured kind's n-node graph, by functions of its nodes k = 0 .. n-1:
    its edges, sorted, and its Laplacian eigenvalues in closed form (above)."""
    edges: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]


_STRUCTURED = {
    # (0, 1), (0, n-1), (1, 2), ..., (n-2, n-1)
    "ring": _Kind(lambda k: np.column_stack([np.concatenate([[0], k[:-1]]),
                                             np.concatenate([[1, k.size - 1], k[2:]])]),
                  lambda k: 2.0 - 2.0 * np.cos(2.0 * np.pi * k / k.size)),
    "path": _Kind(lambda k: np.column_stack([k[:-1], k[1:]]),
                  lambda k: 2.0 - 2.0 * np.cos(np.pi * k / k.size)),
    "star": _Kind(lambda k: np.column_stack([np.zeros_like(k[1:]), k[1:]]),
                  lambda k: np.select([k == 0, k == k.size - 1], [0.0, float(k.size)], 1.0)),
    "complete": _Kind(lambda k: np.column_stack(np.triu_indices(k.size, k=1)),
                      lambda k: np.where(k == 0, 0.0, float(k.size))),
}


def _as_built(kind: str, n: int) -> str:
    """The kind the n-node graph of a kind is: one or two nodes, or a ring
    of three, is complete (a connected random graph of one or two nodes too)."""
    return "complete" if n <= 2 or (kind == "ring" and n == 3) else kind


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected connected communication graph, as its edge list.

    ``edges`` is an m x 2 integer array holding each edge once, as (i, j)
    with i < j, sorted; self-loops are implied (every node always hears
    itself through the mixing diagonal).  A structured kind (ring, path,
    star, complete) has its own edges, given or not, and is connected by
    construction; a random graph's edges are given, and checked to join
    every node.
    """

    kind: str
    n: int
    edges: np.ndarray | None = None

    def __post_init__(self):
        if self.kind in _STRUCTURED:
            edges = _STRUCTURED[_as_built(self.kind, self.n)].edges(np.arange(self.n))
            if self.edges is not None and not np.array_equal(self.edges, edges):
                raise ValueError(f"edges given are not those of the {self.kind} graph "
                                 f"on {self.n} nodes")
        elif self.kind != "random":
            raise ValueError(f"unknown topology kind {self.kind!r}, "
                             f"expected one of {TOPOLOGY_KINDS}")
        elif self.edges is None:
            raise ValueError("a random graph needs its edges")
        else:
            edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
            i, j = edges.T
            if not ((0 <= i) & (i < j) & (j < self.n)).all():
                raise ValueError(f"edges must be pairs i < j of nodes 0..{self.n - 1} "
                                 "(self-loops are implied)")
            key = i * self.n + j
            if (key[1:] <= key[:-1]).any():
                order = np.argsort(key)
                key, edges = key[order], edges[order]
                if (key[1:] == key[:-1]).any():
                    raise ValueError("edges must hold each edge once")
            if not _is_connected(self.n, edges):
                raise DisconnectedGraphError(f"random graph on {self.n} nodes is not connected")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def build_topology(kind: str, n: int, seed: int | None = None,
                   edge_probability: float | None = None) -> Topology:
    """Construct a connected topology of the given kind on n nodes.

    ``random`` draws Erdos-Renyi graphs (requires ``edge_probability`` in
    (0, 1] and a seed) and retries until connected, failing after a bounded
    number of attempts.  An attempt draws an n x n uniform matrix row-major
    and keeps the edges above the diagonal, _RANDOM_BLOCK_ROWS rows at a
    time: successive draws continue one stream, so the graph is the one a
    single n x n draw gives, without its 8 n^2 bytes.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    if kind != "random":
        return Topology(kind=kind, n=n)
    if edge_probability is None or not (0.0 < edge_probability <= 1.0):
        raise ValueError("random topology requires edge_probability in (0, 1]")
    if seed is None:
        raise ValueError("random topology requires a seed")
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_GRAPH_RETRIES):
        blocks = []
        for start in range(0, n, _RANDOM_BLOCK_ROWS):
            block = rng.random((min(_RANDOM_BLOCK_ROWS, n - start), n)) < edge_probability
            i, j = np.divmod(np.flatnonzero(block), n)
            i += start
            above = j > i
            blocks.append(np.column_stack([i[above], j[above]]))
        try:
            return Topology(kind=kind, n=n, edges=np.concatenate(blocks))
        except DisconnectedGraphError:
            pass
    raise DisconnectedGraphError(
        f"no connected graph with edge_probability={edge_probability} "
        f"after {_RANDOM_GRAPH_RETRIES} draws")


class Nonzeros(NamedTuple):
    """An n x n matrix by its nonzeros, row by row: the row and column index
    and the value of each, sorted by row and then by column.  With the row
    pointer (``indptr``) they are the matrix's CSR arrays."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, W: np.ndarray) -> Nonzeros:
        """The nonzeros of a dense W."""
        # np.nonzero(W) gives the same indices; on a boolean mask it is 7x faster.
        flat = np.flatnonzero(W != 0)
        return cls(W.shape[0], *np.divmod(flat, W.shape[1]), W.ravel()[flat])

    def indptr(self) -> np.ndarray:
        """Where each row's nonzeros start, and where the last row's end."""
        return np.searchsorted(self.rows, np.arange(self.n + 1))

    def dense(self) -> np.ndarray:
        W = np.zeros((self.n, self.n))
        W[self.rows, self.cols] = self.weights
        return W


def _on_edges(topology: Topology, w: np.ndarray) -> tuple[Nonzeros, np.ndarray]:
    """The nonzeros of the symmetric matrix with ``w[e]`` at both places of
    edge e and zeros on its diagonal, which they include, and the diagonal's
    positions among them."""
    n = topology.n
    i, j = topology.edges.T
    nodes = np.arange(n)
    key = np.concatenate([i * n + j, j * n + i, nodes * (n + 1)])
    order = np.argsort(key)
    rows, cols = np.divmod(key[order], n)
    weights = np.concatenate([w, w, np.zeros(n)])[order]
    return Nonzeros(n, rows, cols, weights), np.flatnonzero(rows == cols)


def _row_sums(nonzeros: Nonzeros, long: np.ndarray) -> np.ndarray:
    """Each row's sum, bit for bit numpy's sum of the dense row, ``W.sum(axis=1)``.

    A row of at most two nonzeros has one rounding in any order, and is
    summed in order by ``np.bincount``.  The rows marked ``long`` are
    written into dense rows, _SUM_BLOCK_ROWS at a time, and summed by
    numpy: its pairwise summation fixes the order by the columns.
    """
    n, rows, cols, weights = nonzeros
    sums = np.bincount(rows, weights=weights, minlength=n)
    long_rows = np.flatnonzero(long)
    if not long_rows.size:
        return sums
    entries = np.flatnonzero(long[rows])                  # of the long rows, row by row
    which = np.searchsorted(long_rows, rows[entries])     # their row among the long rows
    block = np.empty((min(_SUM_BLOCK_ROWS, long_rows.size), n))
    for start in range(0, long_rows.size, _SUM_BLOCK_ROWS):
        a, b = np.searchsorted(which, [start, start + _SUM_BLOCK_ROWS])
        chunk = long_rows[start:start + _SUM_BLOCK_ROWS]
        block[:chunk.size] = 0.0
        block[which[a:b] - start, cols[entries[a:b]]] = weights[entries[a:b]]
        sums[chunk] = block[:chunk.size].sum(axis=1)
    return sums


class CSRMix:
    """m -> W m as a gather over the nonzeros of W, stored row by row (CSR).

    W is a dense n x n array or its ``Nonzeros``; ``indptr``, ``cols`` and
    ``weights`` are the row pointer, column indices and values of its
    nonzeros.  A mix takes the neighbours' rows of m, scales them and sums
    each row's segment: O(nnz) work where W @ m is O(n^2).  Every row of W
    must hold a nonzero, as every row of a stochastic W does.

    The message must be n x (an even width), as every n x (p+d) message
    with p = d is: each row's products are summed on its complex128 view,
    two float64 lanes per element, so ``np.add.reduceat`` makes n (p+d)/2
    calls of its inner loop instead of n (p+d).  Complex addition adds each
    lane on its own, so every output is a sum of the same products; only
    their order is NumPy's.  It adds a row's first product to the sum of
    the rest, which runs one product after another where the rest holds at
    most 3, and otherwise in four interleaved partial sums (a one-lane sum
    runs one after another up to 7 and keeps eight partial sums past that).
    So a row of at most 4 nonzeros, as on rings and paths, gets the
    one-lane sum bit for bit, and any row can differ from W @ m in the last
    bits.

    With ``out``, an n x width float64 array that does not overlap ``m``,
    the row sums are written into it (on its complex128 view) and ``out``
    is returned, bit for bit what the call without it returns.
    """

    def __init__(self, W: np.ndarray | Nonzeros):
        nonzeros = W if isinstance(W, Nonzeros) else Nonzeros.of(W)
        self.indptr, self.cols, self.weights = nonzeros.indptr(), nonzeros.cols, nonzeros.weights
        self._expanded = {}   # message width -> weights repeated to it

    def __call__(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if m.ndim != 2 or m.shape[1] % 2:
            raise ValueError(f"a gathered mix takes an n x (even width) message, got {m.shape}")
        width = m.shape[1]
        w = self._expanded.get(width)
        if w is None:
            w = np.repeat(self.weights, width).reshape(-1, width)
            self._expanded[width] = w
        gathered = np.ascontiguousarray(m, dtype=np.float64).view(np.complex128).take(
            self.cols, axis=0)
        lanes = gathered.view(np.float64)
        # In place: one nnz-row temporary fewer per mix, which took the peak
        # RSS of the benchmark's random1024-dogt runs from 87.4 to 86.8 MB.
        lanes *= w
        if out is None:
            return np.add.reduceat(gathered, self.indptr[:-1], axis=0).view(np.float64)
        np.add.reduceat(gathered, self.indptr[:-1], axis=0, out=out.view(np.complex128))
        return out


def _gathers(n: int, nnz: int) -> bool:
    """The cost rule for one mix of an n x n W with nnz nonzeros: gather
    (CSRMix) iff 8 nnz + 2**17 < n**2.

    Fitted to the time of one mix of an n x 4 message with one BLAS thread
    (``scripts/bench_mixing.py``, README), before the gather summed two
    lanes at a time: W @ m costs about n**2, with a jump once W outgrows
    the cache, and the gather about nnz plus a cost per row and per call,
    which makes it lose below a few hundred nodes.  Every graph with
    n < 367, rings up to n = 374 and every complete graph stay dense.
    """
    return 8 * nnz + 2 ** 17 < n ** 2


class MixingMatrix:
    """Doubly stochastic symmetric weight matrix with its spectral gap.

    ``MixingMatrix(W, spectrum=None)`` takes W as a dense n x n array or as
    its ``Nonzeros``, and keeps those (``nonzeros``).  It checks on them
    that W is finite, doubly stochastic and symmetric, to 1e-12, before
    anything reads its gap.  ``spectrum`` holds the eigenvalues of W but its
    top one, ascending, where they are given, as the weight builders give
    them in closed form, and is None otherwise: nothing decomposes W.  On a
    connected graph the top eigenvalue is the consensus eigenvalue 1, and
    it is simple.  ``rho`` is ``spectral_gap`` of the given spectrum, and
    without one, Lanczos over ``mix`` (``_lanczos_gap``).  A gap rho >= 1
    (a disconnected graph), or one Lanczos cannot place below 1, is
    refused.

    ``mix(m, out=None)`` is one round of mixing, m -> W m: a CSRMix where
    ``_gathers`` finds the gather cheaper, and otherwise the dense product
    ``np.matmul(W, m, out)``, whose W it keeps.  ``W`` is that dense W, or,
    where W gathers, a new read-only one on each request.  A step counts
    ``rounds`` exchanges per mix, as it does for an ``AcceleratedExchange``.
    """

    rounds: ClassVar[int] = 1

    def __init__(self, W: np.ndarray | Nonzeros, spectrum: np.ndarray | None = None):
        tol = 1e-12
        if isinstance(W, Nonzeros):
            nonzeros, dense = W, None
        else:
            dense = np.asarray(W, dtype=np.float64)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ValueError(f"weight matrix must be square, got shape {dense.shape}")
            nonzeros = Nonzeros.of(dense)
        n, rows, cols, weights = nonzeros
        if not np.isfinite(weights).all():
            raise ValueError("weight matrix has non-finite entries")
        row_err = np.abs(np.bincount(rows, weights=weights, minlength=n) - 1.0).max()
        col_err = np.abs(np.bincount(cols, weights=weights, minlength=n) - 1.0).max()
        if row_err > tol or col_err > tol:
            raise ValueError(
                f"weight matrix is not doubly stochastic: row error {row_err:.3e}, "
                f"column error {col_err:.3e} (tol {tol:.1e})")
        # max |W - W.T| over the nonzeros of W: each is looked up at its
        # transposed place, where a zero of W is not found.
        key, transposed_key = rows * n + cols, cols * n + rows
        at = np.minimum(np.searchsorted(key, transposed_key), key.size - 1)
        transposed = np.where(key[at] == transposed_key, weights[at], 0.0)
        if np.abs(weights - transposed).max(initial=0.0) > tol:
            raise ValueError("weight matrix must be symmetric")
        for array in nonzeros[1:]:
            array.setflags(write=False)
        self.nonzeros = nonzeros
        if _gathers(n, rows.size):
            self._dense, self.mix = None, CSRMix(nonzeros)
        else:
            self._dense = nonzeros.dense() if dense is None else dense
            self._dense.setflags(write=False)
            self.mix = partial(np.matmul, self._dense)
        self.spectrum = spectrum
        if spectrum is not None:
            spectrum.setflags(write=False)
        self.rho = _lanczos_gap(self.mix, n) if spectrum is None else spectral_gap(spectrum)
        if self.rho is None:
            raise ValueError(f"Lanczos places no spectral gap of W below 1 within "
                             f"{_LANCZOS_MAX_STEPS} steps (disconnected graph?)")
        if self.rho >= 1.0:
            raise ValueError(f"spectral gap rho={self.rho} >= 1; matrix does not contract "
                             "off the consensus direction (disconnected graph?)")

    @property
    def n(self) -> int:
        return self.nonzeros.n

    @property
    def W(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        W = self.nonzeros.dense()
        W.setflags(write=False)
        return W


def _lanczos_gap(mix, n: int, *, both_extremes: bool = True,
                 below_1: bool = True) -> float | None:
    """The gap of a symmetric matrix that fixes the consensus vector, from
    the extreme Ritz values of a plain Lanczos recurrence over its product
    ``mix(m)``, off that vector: rho_W over W's own mix, and rho_M over
    adogt's exchange; None where it places no gap.

    The recurrence runs on an n x 2 message, on which the mix is the matrix
    twice over, with its eigenvalues.  It starts from a fixed draw
    (``default_rng(0)``), projected off 1, and projects each product off 1
    again, by its column means.  Every sum is ``np.add.reduce``'s, in
    numpy's order, so the gap has the same bits at any BLAS thread count.
    Every _LANCZOS_TEST_EVERY steps it takes the eigenpairs (theta, s) of
    the tridiagonal T_k, and stops once the residual |beta_k s_k| is at most
    _LANCZOS_TOL for the smallest and the largest theta
    (``both_extremes``, W's rule) or for the theta of largest magnitude
    (adogt's exchange), or at breakdown, beta_k <= _LANCZOS_TOL, where the
    Krylov space is invariant and every pair's residual is that small.
    Each such Ritz value then lies within _LANCZOS_TOL of an eigenvalue
    (Paige 1980), and within _LANCZOS_TOL^2 / gap where it is apart from
    the rest; the gap is max(theta_min^2, theta_max^2).  On a complete
    graph whose W is J bit for bit, W q has equal entries; where the
    projection takes them to 0 exactly (n = 2, 8, 64 and 1024 are tested),
    Lanczos breaks down at k = 1 with rho = 0.  None after
    _LANCZOS_MAX_STEPS steps with no stop, and, with ``below_1`` (W's
    rule), where rho + 2 _LANCZOS_TOL >= 1, which the residual bound cannot
    tell from a disconnected graph's rho = 1; adogt's rho_M may be 1 or
    more at an off-design T, and is returned.
    """
    q = np.random.default_rng(0).standard_normal((n, 2))
    q -= np.add.reduce(q) / n
    norm = math.sqrt(np.add.reduce(q * q, axis=None))
    if norm == 0.0:                 # n = 1: no eigenvalue but the consensus one
        return 0.0
    q /= norm
    prev, beta = np.zeros_like(q), 0.0
    alphas, betas = [], []
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        w = mix(q)
        w -= np.add.reduce(w) / n
        w -= beta * prev
        alpha = float(np.add.reduce(w * q, axis=None))
        w -= alpha * q
        beta = math.sqrt(np.add.reduce(w * w, axis=None))
        alphas.append(alpha)
        if beta <= _LANCZOS_TOL or k % _LANCZOS_TEST_EVERY == 0:
            theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            pairs = [0, -1] if both_extremes else [np.argmax(np.abs(theta))]
            if beta <= _LANCZOS_TOL or (beta * np.abs(s[-1, pairs]) <= _LANCZOS_TOL).all():
                rho = float(max(theta[0] ** 2, theta[-1] ** 2))
                return rho if not below_1 or rho + 2.0 * _LANCZOS_TOL < 1.0 else None
        betas.append(beta)
        prev, q = q, w / beta
    return None


def _with_spectrum(topology: Topology, nonzeros: Nonzeros, scale: int) -> MixingMatrix:
    """The MixingMatrix of W = I - L/scale on the topology, with its spectrum
    in closed form where the kind's Laplacian has one."""
    structured = _STRUCTURED.get(_as_built(topology.kind, topology.n))
    return MixingMatrix(nonzeros, None if structured is None else
                        np.sort(1.0 - structured.laplacian(np.arange(topology.n)) / scale)[:-1])


def metropolis_weights(topology: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1 + max(deg_i, deg_j)) on edges.

    Symmetric and doubly stochastic on any undirected graph; the diagonal
    absorbs the remaining mass, 1 minus the row's sum as numpy sums a dense
    row.  Only the edges are computed, and W is made as its nonzeros.
    """
    deg = topology.degrees
    i, j = topology.edges.T
    nonzeros, diagonal = _on_edges(topology, 1.0 / (1.0 + np.maximum(deg[i], deg[j])))
    nonzeros.weights[diagonal] = 1.0 - _row_sums(nonzeros, deg > 2)
    return _with_spectrum(topology, nonzeros, 1 + int(deg.max()))


def lazy_max_degree_weights(topology: Topology) -> MixingMatrix:
    """Uniform lazy max-degree weights: w_ij = 1/(2 d_max) on edges.

    All eigenvalues are nonnegative (diagonal >= 1/2), which some analyses
    prefer; mixing is generally slower than Metropolis.
    """
    deg = topology.degrees
    d_max = max(1, int(deg.max()))      # a single node's W is [1]
    nonzeros, diagonal = _on_edges(topology, np.full(len(topology.edges), 1.0 / (2.0 * d_max)))
    nonzeros.weights[diagonal] = 1.0 - deg / (2.0 * d_max)
    return _with_spectrum(topology, nonzeros, 2 * d_max)


WEIGHT_BUILDERS = {
    "metropolis": metropolis_weights,
    "lazy_max_degree": lazy_max_degree_weights,
}


def spectral_gap(spectrum: np.ndarray) -> float:
    """rho = max lam^2 over ``spectrum``, the eigenvalues of a symmetric W but
    its consensus eigenvalue 1; that is ||W - J||_2^2, in [0, 1) on a
    connected graph, and 0 for no eigenvalues (a single node).

    It decomposes nothing: it takes eigenvalues, such as the closed form of
    ``MixingMatrix.spectrum``.  A matrix is rejected, not read as eigenvalues.
    """
    if np.ndim(spectrum) != 1:
        raise ValueError(f"spectral_gap takes a 1-D array of eigenvalues, "
                         f"got shape {np.shape(spectrum)}")
    return float(np.max(spectrum * spectrum, initial=0.0))


def acceleration_momentum(rho: float) -> float:
    """Gossip momentum eta = (1 - sqrt(1-rho)) / (1 + sqrt(1-rho)) in [0, 1)."""
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    s = math.sqrt(1.0 - rho)
    return (1.0 - s) / (1.0 + s)


def _momentum_rounds(mix, eta: float, message: np.ndarray) -> Iterator[np.ndarray]:
    """The message after 1, 2, ... rounds of momentum gossip, without end.

    ``mix(m, out)`` is one round, m -> W m written into ``out``; on W's
    eigenvalues, ``partial(np.multiply, lam)``.  A round is
    (1 + eta) mix(curr) - eta prev, in that order of operations, written
    into three buffers in turn, so no round allocates: eta prev goes into
    prev's buffer, which the round frees, or into the spare one while prev
    is the message, which is never written.  A yielded array holds its
    round until the generator has been advanced twice more.
    """
    buffers = [np.empty_like(message) for _ in range(3)]
    prev = curr = message
    for t in count():
        new = buffers[t % 3]
        scaled = buffers[(t + 1) % 3] if prev is message else prev
        mix(curr, new)
        new *= 1.0 + eta
        np.multiply(eta, prev, scaled)
        new -= scaled
        prev, curr = curr, new
        yield curr


def momentum_gossip(mix, eta: float, T: int, message: np.ndarray) -> np.ndarray:
    """T >= 1 rounds of momentum gossip on a message, each a ``mix(m, out)``;
    equals M_T @ message.  The message is not written."""
    return next(islice(_momentum_rounds(mix, eta, message), T - 1, None))


@dataclass(frozen=True, eq=False)
class AcceleratedExchange:
    """adogt's exchange: T rounds of momentum gossip over W at momentum eta.

    ``rho`` is the gap rho_M of their matrix M_T; a step counts ``rounds`` =
    T exchanges per mix.  ``mix(m, out=None)`` is m -> M_T m: where W
    gathers, T rounds of ``W.mix``, copied into ``out``, so no n x n matrix
    is built; where W mixes dense, one product by M_T (``matrix``), which
    the first mix builds and keeps.  They differ in rounding only.
    """

    W: MixingMatrix
    rounds: int
    eta: float
    rho: float
    mix: Callable[..., np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mix", self._gossip if isinstance(self.W.mix, CSRMix)
                           else self._product)

    @cached_property
    def matrix(self) -> np.ndarray:
        """M_T, built on first use from T dense products by W (gathering the
        n x n identity would build an nnz x n temporary) and kept, read-only."""
        M = momentum_gossip(partial(np.matmul, self.W.W), self.eta, self.rounds,
                            np.eye(self.W.n))
        M.setflags(write=False)
        return M

    def _product(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self.matrix, m, out)

    def _gossip(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        mixed = momentum_gossip(self.W.mix, self.eta, self.rounds, m)
        if out is None:
            return mixed
        np.copyto(out, mixed)
        return out


def accelerated_matrix(W: MixingMatrix, T: int | None = None) -> AcceleratedExchange:
    """adogt's exchange of T momentum-gossip rounds over W: the one place it is defined.

    M_T = p_T(W) for the recursion p_{t+1}(lam) = (1+eta) lam p_t(lam) -
    eta p_{t-1}(lam), p_0 = p_{-1} = 1, eta = acceleration_momentum(rho_W).
    M_T keeps row and column sums 1, as p_T(1) = 1; momentum can push rho_M
    past 1 at off-design T, and that rho_M is returned.  rho_M = ||M_T - J||_2^2
    is max p_T(lam)^2 over W's eigenvalues (Liu & Morse 2011; Scaman et al.,
    ICML 2017).  Where W's spectrum is given in closed form, it is read off
    that in O(nT), with no M_T.  A random W has none, and rho_M comes from
    ``_lanczos_gap`` over the exchange's own T rounds of ``W.mix``
    (``momentum_gossip``), stopped on the Ritz pair of largest magnitude:
    O(nnz T) per step.  One that makes no stop within its step cap is
    refused with a ``ValueError``.

    T None is ``T: auto``: the smallest T that is at least
    ceil(ln 2 / sqrt(1 - sqrt(rho_W))) and gives rho_M <= 1/2, so one
    exchange mixes at least as well as a constant-gap network however
    poorly connected the graph is, as the guarantee of adogt's exchange
    assumes.  The formula alone does not ensure it: on Metropolis rings from
    n = 68 it leaves rho_M at 0.53 to 0.55.  rho_M is evaluated at each T in
    turn, from the formula's T up, in one pass of the recursion over a
    closed-form spectrum and by one Lanczos recurrence per T otherwise, and
    the search ends: at eta < 1 every |p_T(lam)| with |lam| < 1 tends to 0.

    A given T may be at most MAX_T_FACTOR times the formula's T, and is
    refused before any evaluation, whose time grows with T.  ``T: auto``
    stays far below that bound: on every ring, path, star and complete
    graph with n < 130, and on a ladder up to n = 4096, under both weight
    schemes, it stops within 1.17 times the formula's T.
    """
    if T is not None and (not isinstance(T, (int, np.integer)) or T < 1):
        raise ValueError(f"T must be a positive integer, got {T!r}")
    eta = acceleration_momentum(W.rho)
    formula = math.ceil(math.log(2.0) / math.sqrt(1.0 - math.sqrt(W.rho)))
    if T is not None and T > MAX_T_FACTOR * formula:
        raise ValueError(f"T = {T} exceeds {MAX_T_FACTOR} times the formula's T, "
                         f"ceil(ln 2 / sqrt(1 - sqrt(rho_W))) = {formula} on this W")
    first = T or formula
    if W.spectrum is not None:
        rounds = _momentum_rounds(partial(np.multiply, W.spectrum), eta,
                                  np.ones_like(W.spectrum))
        gaps = (float(np.max(p * p, initial=0.0)) for p in islice(rounds, first - 1, None))
    else:
        gaps = (_lanczos_gap(partial(momentum_gossip, W.mix, eta, t), W.n,
                             both_extremes=False, below_1=False) for t in count(first))
    for t, rho_M in enumerate(gaps, start=first):
        if rho_M is None:
            raise ValueError(f"Lanczos over adogt's exchange at T = {t} places no rho_M "
                             f"within {_LANCZOS_MAX_STEPS} steps")
        if T or rho_M <= 0.5:
            return AcceleratedExchange(W, t, eta, rho_M)
