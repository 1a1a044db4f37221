"""Network topologies, doubly stochastic mixing matrices, and consensus acceleration.

A mixing matrix W encodes one round of neighbor averaging.  Building a
``MixingMatrix`` makes one dense eigendecomposition of W, and every
spectral quantity is read off the eigenvalues it keeps, all but the
consensus 1.  The spectral gap rho = ||W - J||_2^2 (squared spectral norm
off the consensus direction, J = averaging matrix) is the largest squared
one: smaller rho means faster mixing.  ``accelerated_matrix`` defines
adogt's exchange: T momentum-boosted gossip rounds, whose effective matrix
M_T has a much smaller gap rho_M.  It reads rho_M off the same eigenvalues
in O(nT) and mixes as one product by M_T or as the T rounds;
``recommended_T`` finds the round count of ``T: auto`` on them too.

One round of mixing, m -> W m, costs O(n^2) as a dense product and
O(nnz) as a gather over the nonzeros of W; ``MixingMatrix.mix`` is
whichever of the two a measured cost rule picks for that W.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Callable, ClassVar

import numpy as np

TOPOLOGY_KINDS = ("ring", "path", "star", "complete", "random")

_RANDOM_GRAPH_RETRIES = 100
_RANDOM_BLOCK_ROWS = 64     # rows of the n-column uniform draw held at once


class DisconnectedGraphError(ValueError):
    """Random topology stayed disconnected after the bounded retry budget."""


def _is_connected(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    if n == 1:
        return True
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in np.flatnonzero(adjacency[i]):
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected connected communication graph.

    ``adjacency`` is symmetric boolean with a zero diagonal; self-loops are
    implied (every node always hears itself through the mixing diagonal).
    """

    kind: str
    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}, got {adj.shape}")
        if adj.diagonal().any():
            raise ValueError("adjacency diagonal must be zero (self-loops are implied)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not _is_connected(adj):
            raise DisconnectedGraphError(f"{self.kind} graph on {self.n} nodes is not connected")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


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
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}, expected one of {TOPOLOGY_KINDS}")

    adj = np.zeros((n, n), dtype=bool)
    if kind == "ring":
        for i in range(n):
            j = (i + 1) % n
            if i != j:
                adj[i, j] = adj[j, i] = True
    elif kind == "path":
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = True
    elif kind == "star":
        for i in range(1, n):
            adj[0, i] = adj[i, 0] = True
    elif kind == "complete":
        adj[:] = ~np.eye(n, dtype=bool)
    else:  # random
        if edge_probability is None or not (0.0 < edge_probability <= 1.0):
            raise ValueError("random topology requires edge_probability in (0, 1]")
        if seed is None:
            raise ValueError("random topology requires a seed")
        rng = np.random.default_rng(seed)
        for _ in range(_RANDOM_GRAPH_RETRIES):
            for start in range(0, n, _RANDOM_BLOCK_ROWS):     # overwrites every row of adj
                block = rng.random((min(_RANDOM_BLOCK_ROWS, n - start), n)) < edge_probability
                adj[start:start + len(block)] = np.triu(block, k=start + 1)
            adj |= adj.T
            try:
                return Topology(kind=kind, n=n, adjacency=adj)
            except DisconnectedGraphError:
                pass
        raise DisconnectedGraphError(
            f"no connected graph with edge_probability={edge_probability} "
            f"after {_RANDOM_GRAPH_RETRIES} draws")
    return Topology(kind=kind, n=n, adjacency=adj)


def _nonzeros(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzeros of W, row by row."""
    # np.nonzero(W) gives the same indices; on a boolean mask it is 7x faster.
    return np.divmod(np.flatnonzero(W != 0), W.shape[1])


class CSRMix:
    """m -> W m as a gather over the nonzeros of W, stored row by row (CSR).

    ``indptr``, ``cols`` and ``weights`` are the row pointer, column indices
    and values of the nonzeros; ``nonzeros`` may pass in their indices, as
    ``_nonzeros`` gives them.  A mix takes the neighbours' rows of m,
    scales them and sums each row's segment: O(nnz) work where W @ m is
    O(n^2).  Every row of W must hold a nonzero, as every row of a
    stochastic W does.

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

    def __init__(self, W: np.ndarray, nonzeros: tuple[np.ndarray, np.ndarray] | None = None):
        rows, self.cols = _nonzeros(W) if nonzeros is None else nonzeros
        self.weights = W[rows, self.cols]
        self.indptr = np.searchsorted(rows, np.arange(W.shape[0] + 1))
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


def _gathers(n: int, rows: np.ndarray) -> bool:
    """The cost rule for one mix of an n x n W whose nonzeros lie in ``rows``
    (as ``_nonzeros`` gives them): gather (CSRMix) iff 8 nnz + 2**17 < n**2.

    Fitted to the time of one mix of an n x 4 message with one BLAS thread
    (``scripts/bench_mixing.py``, README), before the gather summed two
    lanes at a time: W @ m costs about n**2, with a jump once W outgrows
    the cache, and the gather about nnz plus a cost per row and per call,
    which makes it lose below a few hundred nodes.  Every graph with
    n < 367, rings up to n = 374 and every complete graph stay dense.  A W
    with an empty row, which no stochastic matrix has, keeps the dense
    product.
    """
    return bool(np.bincount(rows, minlength=n).all()) and 8 * rows.size + 2 ** 17 < n ** 2


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Doubly stochastic symmetric weight matrix with its spectrum and spectral gap.

    Building one checks that W is square, finite, doubly stochastic and
    symmetric, to 1e-12, before its one dense eigendecomposition, which
    reads one triangle of W only; a gap rho >= 1 (a disconnected graph) is
    rejected too.  ``spectrum`` keeps the eigenvalues of W but its top one,
    ascending; on a connected graph the top one is the consensus eigenvalue
    1, and it is simple.  ``rho`` is ``spectral_gap`` of them, so it cannot
    disagree with W.  ``mix`` is one round of mixing, m -> W m: a CSRMix
    where ``_gathers`` finds the gather cheaper, and the dense W @ m
    otherwise.  A step counts ``rounds`` exchanges per mix, as it does for
    an ``AcceleratedExchange``.
    """

    W: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)
    rho: float = field(init=False)
    mix: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    rounds: ClassVar[int] = 1

    def __post_init__(self):
        tol = 1e-12
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {W.shape}")
        # min and max propagate NaN and reach any inf, with no n x n temporary.
        if not (np.isfinite(W.min()) and np.isfinite(W.max())):
            raise ValueError("weight matrix has non-finite entries")
        row_err = np.abs(W.sum(axis=1) - 1.0).max()
        col_err = np.abs(W.sum(axis=0) - 1.0).max()
        if row_err > tol or col_err > tol:
            raise ValueError(
                f"weight matrix is not doubly stochastic: row error {row_err:.3e}, "
                f"column error {col_err:.3e} (tol {tol:.1e})")
        # max |W - W.T| over the nonzeros of W: a pair of zeros adds 0, and
        # the scan is the one the mix is then chosen and built from.
        nonzeros = rows, cols = _nonzeros(W)
        if np.abs(W[rows, cols] - W[cols, rows]).max(initial=0.0) > tol:
            raise ValueError("weight matrix must be symmetric")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)
        spectrum = np.linalg.eigvalsh(W)[:-1]
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "rho", spectral_gap(spectrum))
        if self.rho >= 1.0:
            raise ValueError(f"spectral gap rho={self.rho} >= 1; matrix does not contract "
                             "off the consensus direction (disconnected graph?)")
        object.__setattr__(self, "mix", CSRMix(W, nonzeros)
                           if _gathers(W.shape[0], rows) else W.__matmul__)

    @property
    def n(self) -> int:
        return self.W.shape[0]


def metropolis_weights(topology: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1 + max(deg_i, deg_j)) on edges.

    Symmetric and doubly stochastic on any undirected graph; the diagonal
    absorbs the remaining mass.  Only the edges are computed; the one n x n
    array is W itself.
    """
    deg = topology.degrees
    i, j = np.nonzero(topology.adjacency)
    W = np.zeros((topology.n, topology.n))
    W[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    W[np.diag_indices(topology.n)] = 1.0 - W.sum(axis=1)
    return MixingMatrix(W)


def lazy_max_degree_weights(topology: Topology) -> MixingMatrix:
    """Uniform lazy max-degree weights: w_ij = 1/(2 d_max) on edges.

    All eigenvalues are nonnegative (diagonal >= 1/2), which some analyses
    prefer; mixing is generally slower than Metropolis.
    """
    n = topology.n
    deg = topology.degrees
    d_max = int(deg.max()) if n > 1 else 0
    if d_max == 0:
        return MixingMatrix(np.eye(n))
    W = np.zeros((n, n))
    W[np.nonzero(topology.adjacency)] = 1.0 / (2.0 * d_max)
    W[np.diag_indices(n)] = 1.0 - deg / (2.0 * d_max)
    return MixingMatrix(W)


WEIGHT_BUILDERS = {
    "metropolis": metropolis_weights,
    "lazy_max_degree": lazy_max_degree_weights,
}


def spectral_gap(spectrum: np.ndarray) -> float:
    """rho = max lam^2 over ``spectrum``, the eigenvalues of a symmetric W but
    its consensus eigenvalue 1; that is ||W - J||_2^2, in [0, 1) on a
    connected graph, and 0 for no eigenvalues (a single node).

    It decomposes nothing: ``MixingMatrix`` passes the eigenvalues of its
    one eigendecomposition.  A matrix is rejected, not read as eigenvalues.
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


def recommended_T(W: MixingMatrix) -> int:
    """The gossip rounds of ``T: auto``: the smallest T that is at least
    ceil(ln 2 / sqrt(1 - sqrt(rho_W))) and gives rho_M <= 1/2.

    So one accelerated exchange mixes at least as well as a constant-gap
    network however poorly connected the graph is, as the guarantee of
    adogt's exchange assumes.  The formula alone does not ensure it: on
    Metropolis rings from n = 68 it leaves rho_M at 0.53 to 0.55.  One pass
    of the momentum recursion over ``W.spectrum`` evaluates rho_M at each T
    in turn, with the arithmetic of ``accelerated_matrix``, in O(nT) in
    all.  The pass ends: at eta < 1 every |p_T(lam)| with |lam| < 1 tends
    to 0.
    """
    eta = acceleration_momentum(W.rho)
    floor = math.ceil(math.log(2.0) / math.sqrt(1.0 - math.sqrt(W.rho)))
    rounds = _momentum_rounds(W.spectrum.__mul__, eta, np.ones_like(W.spectrum))
    for T, p in enumerate(rounds, start=1):
        if T >= floor and np.max(p * p, initial=0.0) <= 0.5:
            return T


def _momentum_rounds(mix, eta: float, message: np.ndarray) -> Iterator[np.ndarray]:
    """The message after 1, 2, ... rounds of momentum gossip, without end.

    ``mix`` is one round, m -> W m; on W's eigenvalues, p -> lam * p.
    """
    prev = curr = message
    while True:
        prev, curr = curr, (1.0 + eta) * mix(curr) - eta * prev
        yield curr


def momentum_gossip(mix, eta: float, T: int, message: np.ndarray) -> np.ndarray:
    """T >= 1 rounds of momentum gossip on a message; equals M_T @ message."""
    return next(islice(_momentum_rounds(mix, eta, message), T - 1, None))


@dataclass(frozen=True, eq=False)
class AcceleratedExchange:
    """adogt's exchange: T rounds of momentum gossip over W at momentum eta.

    ``rho`` is the gap rho_M of their matrix M_T; a step counts ``rounds`` =
    T exchanges per mix.  ``mix`` is m -> M_T m: T rounds of ``W.mix`` where
    W gathers, so no n x n matrix is built; where W mixes dense, one product
    by M_T (``matrix``), which the first mix builds and keeps.  They differ
    in rounding only.
    """

    W: MixingMatrix
    rounds: int
    eta: float
    rho: float
    mix: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        mix = (partial(momentum_gossip, self.W.mix, self.eta, self.rounds)
               if isinstance(self.W.mix, CSRMix) else self._first_mix)
        object.__setattr__(self, "mix", mix)

    @cached_property
    def matrix(self) -> np.ndarray:
        """M_T, built on first use from T dense products by W (gathering the
        n x n identity would build an nnz x n temporary) and kept, read-only."""
        M = momentum_gossip(self.W.W.__matmul__, self.eta, self.rounds, np.eye(self.W.n))
        M.setflags(write=False)
        return M

    def _first_mix(self, m: np.ndarray) -> np.ndarray:
        """Make the product by ``matrix`` the mix, and apply it."""
        object.__setattr__(self, "mix", self.matrix.__matmul__)
        return self.mix(m)


def accelerated_matrix(W: MixingMatrix, T: int) -> AcceleratedExchange:
    """adogt's exchange of T momentum-gossip rounds over W: the one place it is defined.

    M_T = p_T(W) for the recursion p_{t+1}(lam) = (1+eta) lam p_t(lam) -
    eta p_{t-1}(lam), p_0 = p_{-1} = 1, eta = acceleration_momentum(rho_W).
    rho_M = ||M_T - J||_2^2 is max p_T(lam)^2 over ``W.spectrum``, in O(nT)
    and with no M_T (Liu & Morse 2011; Scaman et al., ICML 2017).  M_T keeps
    row and column sums 1, as p_T(1) = 1; momentum can push rho_M past 1 at
    off-design T.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    eta = acceleration_momentum(W.rho)
    p = momentum_gossip(W.spectrum.__mul__, eta, T, np.ones_like(W.spectrum))
    return AcceleratedExchange(W, T, eta, float(np.max(p * p, initial=0.0)))
