"""Straight-line reference implementations used as independent test oracles.

Deliberately separate from the package: dense numpy translations of the
update rules written block-by-block (x, y, p, q with explicit descent and
ascent signs) rather than in the library's sign-flipped stacked form.  The
pinned constants in the test suite were produced with these functions.

The one exception is ``iterate``, the state-by-state oracle for
``algorithms.run``: the package's own steps, one state at a time, each
checked as it comes, with none of run's batches, stop rule or fast-forward.
"""

from types import SimpleNamespace

import numpy as np

from netsaddle import algorithms
from netsaddle.graph import accelerated_matrix


def mixing_of(kind, W, T=None):
    """What a step of ``kind`` mixes with: W, or adogt's exchange of T rounds over W."""
    return accelerated_matrix(W, T) if kind == "adogt" else W


def iterate(kind, problem, mixing, gamma, z0):
    """Yield the states of one method from iteration 0 on, without end.

    The steps are the module's ``*_step`` attributes, looked up on every
    call (``algorithms._states``), so a step swapped on the module is used.
    Raises DivergenceError at the first iterate (or tracker) that is not
    finite, and ValueError, as run() does, when ``mixing`` is not the kind's.
    The initial state is not checked: a non-finite z0 raises at iteration 1.
    """
    states = algorithms._states(kind, problem, mixing, gamma, z0)
    tracking = kind in algorithms.TRACKING_ALGORITHMS
    yield next(states)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            state = next(states)
        if algorithms._first_nonfinite(state.z[None],
                                       state.tracker[None] if tracking else None) is not None:
            raise algorithms.DivergenceError(state.iteration)
        yield state


def gradients(a, b, mu, x, y):
    """Per-block gradients of x.y + mu/2 ||x-a||^2 - mu/2 ||y-b||^2."""
    gx = y + mu * (x - a)
    gy = x - mu * (y - b)
    return gx, gy


def local_value(a, b, mu, x, y):
    """x.y + mu/2 ||x-a||^2 - mu/2 ||y-b||^2 at one node's point."""
    dx, dy = x - a, y - b
    return float(x @ y + 0.5 * mu * (dx @ dx) - 0.5 * mu * (dy @ dy))


def finite_difference_gradient(problem, i, z_i, h=1e-6):
    """Central-difference stacked gradient of node i's objective, dual block sign-flipped.

    f_i is evaluated from ``local_value`` above with the problem's centers,
    not through the library, so the difference quotient checks the library's
    field independently; exact for quadratics up to rounding.
    """
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    z_i = np.asarray(z_i, dtype=np.float64)
    a, b, p = problem.centers_a[i], problem.centers_b[i], problem.p
    out = np.empty_like(z_i)
    for j in range(z_i.size):
        step = np.zeros_like(z_i)
        step[j] = h
        hi, lo = z_i + step, z_i - step
        out[j] = (local_value(a, b, problem.mu, hi[:p], hi[p:])
                  - local_value(a, b, problem.mu, lo[:p], lo[p:])) / (2.0 * h)
    out[p:] *= -1.0
    return out


def make_instance(n=16, p=2, d=2, mu=0.1, seed=7):
    """Zero-sum centers drawn exactly like the library's factory."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    b = rng.standard_normal((n, d))
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    return a, b, mu


def ring_metropolis(n):
    """Metropolis weights on a ring: 1/3 on the three diagonals."""
    W = np.zeros((n, n))
    for i in range(n):
        W[i, i] = 1.0 / 3.0
        W[i, (i + 1) % n] = 1.0 / 3.0
        W[i, (i - 1) % n] = 1.0 / 3.0
    return W


def random_adjacency(n, p, seed, retries=100):
    """An Erdos-Renyi graph as one n x n uniform draw per attempt, its part
    above the diagonal kept and mirrored, redrawn until connected:
    (adjacency, number of draws)."""
    rng = np.random.default_rng(seed)
    for draws in range(1, retries + 1):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        adjacency = upper | upper.T
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~seen
            seen |= frontier
        if seen.all():
            return adjacency, draws
    raise ValueError(f"no connected graph after {retries} draws")


def metropolis_dense(adjacency):
    """Metropolis weights over the whole n x n grid with np.where and an
    outer maximum of the degrees, not over the edge list."""
    deg = adjacency.sum(axis=1)
    W = np.where(adjacency, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    W[np.diag_indices(len(W))] = 1.0 - W.sum(axis=1)
    return W


def lazy_max_degree_dense(adjacency):
    """Lazy max-degree weights as a scaled copy of the whole adjacency."""
    deg = adjacency.sum(axis=1)
    d_max = int(deg.max())
    W = adjacency.astype(np.float64) / (2.0 * d_max)
    W[np.diag_indices(len(W))] = 1.0 - deg / (2.0 * d_max)
    return W


def initial_point(n=16, p=2, d=2, seed=8, scale=1.0):
    z0 = scale * np.random.default_rng(seed).standard_normal((n, p + d))
    return z0[:, :p].copy(), z0[:, p:].copy()


def gda_centralized(a, b, mu, x, y, gamma, iters):
    """z_{k+1} = z_k - gamma G(z_k) on the averaged objective of one node."""
    out = [np.concatenate([x, y])]
    for _ in range(iters):
        gx, gy = gradients(a, b, mu, x, y)
        x = x - gamma * gx
        y = y + gamma * gy
        out.append(np.concatenate([x, y]))
    return out


def ogda_centralized(a, b, mu, x, y, gamma, iters):
    """Optimistic update z_{k+1} = z_k - gamma (2 G(z_k) - G(z_{k-1}))."""
    gx, gy = gradients(a, b, mu, x, y)
    gx_prev, gy_prev = gx, gy
    out = [np.concatenate([x, y])]
    for _ in range(iters):
        x = x - gamma * (2.0 * gx - gx_prev)
        y = y + gamma * (2.0 * gy - gy_prev)
        gx_prev, gy_prev = gx, gy
        gx, gy = gradients(a, b, mu, x, y)
        out.append(np.concatenate([x, y]))
    return out


def dgda_run(a, b, mu, W, gamma, x, y, iters):
    out = [(x.copy(), y.copy())]
    for _ in range(iters):
        gx, gy = gradients(a, b, mu, x, y)
        x = W @ (x - gamma * gx)
        y = W @ (y + gamma * gy)
        out.append((x.copy(), y.copy()))
    return out


def dogda_run(a, b, mu, W, gamma, x, y, iters):
    gx, gy = gradients(a, b, mu, x, y)
    gx_prev, gy_prev = gx, gy
    out = [(x.copy(), y.copy())]
    for _ in range(iters):
        x = W @ (x - gamma * (2.0 * gx - gx_prev))
        y = W @ (y + gamma * (2.0 * gy - gy_prev))
        gx_prev, gy_prev = gx, gy
        gx, gy = gradients(a, b, mu, x, y)
        out.append((x.copy(), y.copy()))
    return out


def dogt_run(a, b, mu, W, gamma, x, y, iters):
    """Gradient-tracking optimistic run in explicit four-block form."""
    gx, gy = gradients(a, b, mu, x, y)
    gx_prev, gy_prev = gx.copy(), gy.copy()
    p_trk, q_trk = gx.copy(), gy.copy()
    out = [(x.copy(), y.copy())]
    for _ in range(iters):
        x = W @ (x - gamma * (p_trk + gx - gx_prev))
        y = W @ (y + gamma * (q_trk + gy - gy_prev))
        gx_new, gy_new = gradients(a, b, mu, x, y)
        p_trk = W @ (p_trk + gx_new - gx)
        q_trk = W @ (q_trk + gy_new - gy)
        gx_prev, gy_prev = gx, gy
        gx, gy = gx_new, gy_new
        out.append((x.copy(), y.copy()))
    return out


def chebyshev_matrix(W, T, eta):
    """M_T from the two-term momentum recursion with M_{-1} = M_0 = I."""
    n = W.shape[0]
    M_prev = np.eye(n)
    M = np.eye(n)
    for _ in range(T):
        M_prev, M = M, (1.0 + eta) * (W @ M) - eta * M_prev
    return M


def accelerated_gap(W, T, eta):
    """rho_M = ||M_T - J||_2^2 from the dense M_T: the largest eigenvalue
    magnitude of M_T - J, squared."""
    M = chebyshev_matrix(W, T, eta)
    return float(np.abs(np.linalg.eigvalsh(M - np.ones_like(M) / len(M))).max() ** 2)


def dense_mixing(M, rounds):
    """M as the mixing a library step takes: m -> M @ m, counting ``rounds``
    exchanges per mix."""
    return SimpleNamespace(mix=M.__matmul__, rounds=rounds)


def adogt_run(a, b, mu, W, gamma, x, y, iters, T):
    """dogt under the accelerated effective matrix M_T."""
    rho = np.sort(np.abs(np.linalg.eigvalsh(W - np.ones_like(W) / len(W))))[-1] ** 2
    eta = (1.0 - np.sqrt(1.0 - rho)) / (1.0 + np.sqrt(1.0 - rho))
    return dogt_run(a, b, mu, chebyshev_matrix(W, T, eta), gamma, x, y, iters)


def one_lane_gather(W, m):
    """W @ m as a CSR gather summed one float64 lane at a time: each row's
    products, scaled from the neighbours' rows of m, summed over their
    segment by ``np.add.reduceat``."""
    rows, cols = np.nonzero(W)
    starts = np.searchsorted(rows, np.arange(W.shape[0]))
    return np.add.reduceat(m[cols] * W[rows, cols][:, None], starts, axis=0)


def residual_series(pairs, z_star=None):
    """(1/n) ||z_k - 1 z*||^2 per iterate; z* defaults to the origin."""
    out = []
    for x, y in pairs:
        z = np.hstack([x, y])
        if z_star is not None:
            z = z - z_star
        out.append(float(np.sum(z * z)) / z.shape[0])
    return out


def consensus_series(pairs):
    """(1/n) ||z_k - 1 zbar_k|| (unsquared) per iterate."""
    out = []
    for x, y in pairs:
        z = np.hstack([x, y])
        dev = z - z.mean(axis=0)
        out.append(float(np.linalg.norm(dev)) / z.shape[0])
    return out
