"""The bilinear-quadratic saddle problem: exact smoothness, closed-form saddle point.

Conventions: each of n nodes holds a local objective f_i(x, y) that is
mu-strongly convex in x and mu-strongly concave in y.  Iterates are stacked
row-wise into n x (p+d) matrices, and the gradient field carries a
sign-flipped dual block, G_i(z) = [grad_x f_i, -grad_y f_i], so that the
saddle point is the root of a strongly monotone operator and both the
descent and ascent updates become a single subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# A zero-sum column's sum may be at most this times the sum of its magnitudes.
ZERO_SUM_RTOL = 4.0 * np.finfo(np.float64).eps


def stacked_array(problem: BilinearQuadratic, z, batched: bool = False) -> np.ndarray:
    """Coerce an iterate to a validated n x (p+d) float array.

    With ``batched``, a stack of them shaped (..., n, p+d) is accepted too.
    """
    z = np.asarray(z, dtype=np.float64)
    expected = (problem.n, problem.p + problem.d)
    if (z.shape[-2:] if batched else z.shape) != expected:
        raise ValueError(f"iterate shape {z.shape} does not match problem {expected}")
    return z


@dataclass(frozen=True, eq=False)
class BilinearQuadratic:
    """Per-node objective x.y + mu/2 ||x - a_i||^2 - mu/2 ||y - b_i||^2.

    The centers a_i, b_i differ across nodes, which makes the local saddle
    points disagree; algorithms without gradient tracking stall on this
    heterogeneity.  The stacked field is linear with an exactly known
    smoothness constant sqrt(1 + mu^2) and strong-monotonicity modulus mu.

    Deterministic: identical inputs produce bit-identical outputs.
    """

    centers_a: np.ndarray  # n x p
    centers_b: np.ndarray  # n x d
    mu: float
    seed: int | None = None
    zero_sum: bool = False
    # gradient_field's constants, built once at the full n x (p+d) width, so
    # each elementwise operation is one contiguous loop: the centers [a b],
    # the slopes [-mu, +mu], the signs [+1, -1] on every row, and the flat
    # index of each entry's partner in the column order [y x].
    _centers: np.ndarray = field(init=False, repr=False)
    _slopes: np.ndarray = field(init=False, repr=False)
    _signs: np.ndarray = field(init=False, repr=False)
    _swap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.centers_a, dtype=np.float64)
        b = np.asarray(self.centers_b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
            raise ValueError("centers_a and centers_b must be 2-D with equal row counts")
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"bilinear coupling x.y needs matching primal/dual dimensions, "
                f"got p={a.shape[1]}, d={b.shape[1]}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.zero_sum:
            # Centres made zero-sum by subtracting their mean still sum to
            # rounding, below 0.9 eps sum|c| per column at n = 16 .. 2^20: a
            # bound that scales with the column, not an absolute one, which
            # they exceed from n = 16384 on.
            for name, c in (("centers_a", a), ("centers_b", b)):
                drift = np.abs(c.sum(axis=0))
                bound = ZERO_SUM_RTOL * np.abs(c).sum(axis=0)
                if (drift > bound).any():
                    raise ValueError(f"zero_sum instance has {name} column sum "
                                     f"{drift.max():.3e}")
        n, p = a.shape
        ones = np.ones(p)
        mu = self.mu * ones     # float even for an integer mu, so -mu keeps -0.0
        swap = np.concatenate([np.arange(p, 2 * p), np.arange(p)])
        constants = {"centers_a": a, "centers_b": b,
                     "_centers": np.concatenate([a, b], axis=1),
                     "_slopes": np.tile(np.concatenate([-mu, mu]), (n, 1)),
                     "_signs": np.tile(np.concatenate([ones, -ones]), (n, 1)),
                     "_swap": np.arange(n)[:, None] * (2 * p) + swap}
        for name, value in constants.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.centers_a.shape[0]

    @property
    def p(self) -> int:
        return self.centers_a.shape[1]

    @property
    def d(self) -> int:
        return self.centers_b.shape[1]

    def gradient_field(self, z):
        """Stacked field, row i = [grad_x f_i, -grad_y f_i], also on a stack (..., n, p+d).

        On whole rows z = [x y]: ([y x] - (z - [a b]) [-mu, +mu]) [+1, -1], which
        is [y + mu (x - a), -(x - mu (y - b))] bit for bit, signed zeros
        included (only the sign of a NaN may differ): (x - a)(-mu) is exactly
        -(mu (x - a)), y - (-t) is y + t in IEEE arithmetic, and a product
        with -1 is exact negation.
        """
        return stacked_gradient_field(self, stacked_array(self, z, batched=True))

    def saddle_point(self) -> np.ndarray:
        """The global saddle point as a (p+d,) vector."""
        if self.zero_sum:
            return np.zeros(self.p + self.d)
        # Averaged optimality: y* + mu (x* - a_mean) = 0, x* - mu (y* - b_mean) = 0.
        p, d = self.p, self.d
        a_mean = self.centers_a.mean(axis=0)
        b_mean = self.centers_b.mean(axis=0)
        A = np.zeros((p + d, p + d))
        A[:p, :p] = self.mu * np.eye(p)
        A[:p, p:] = np.eye(p)
        A[p:, :p] = np.eye(d)
        A[p:, p:] = -self.mu * np.eye(d)
        rhs = np.concatenate([self.mu * a_mean, -self.mu * b_mean])
        return np.linalg.solve(A, rhs)

    def smoothness_constant(self) -> float:
        """Joint smoothness bound L = sqrt(1 + mu^2) of each block gradient, exact."""
        return math.sqrt(1.0 + self.mu ** 2)


def make_bilinear_quadratic(n: int, p: int, d: int, mu: float, seed: int,
                            zero_sum_centers: bool = True) -> BilinearQuadratic:
    """Sample a reproducible instance with seeded standard-normal centers.

    With ``zero_sum_centers`` the sample means are subtracted from every row,
    which pins the global saddle point to the origin.
    """
    for name, v in (("n", n), ("p", p), ("d", d)):
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    b = rng.standard_normal((n, d))
    if zero_sum_centers:
        a = a - a.mean(axis=0)
        b = b - b.mean(axis=0)
    return BilinearQuadratic(centers_a=a, centers_b=b, mu=mu, seed=seed,
                             zero_sum=zero_sum_centers)


def stacked_gradient_field(problem: BilinearQuadratic, z: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """The field's arithmetic, defined here once: ``problem.gradient_field``
    without its shape check, of a float64 n x (p+d) array or a stack of them
    (..., n, p+d), as a step makes them; written into ``out``, an array of
    z's shape that does not overlap it, and returned when it is given, bit
    for bit the same."""
    out = np.subtract(z, problem._centers, out)
    out *= problem._slopes
    # [y x]: one flat gather over each state's n (p+d) entries.
    swapped = (z.take(problem._swap) if z.ndim == 2
               else z.reshape(z.shape[:-2] + (-1,)).take(problem._swap, axis=-1))
    np.subtract(swapped, out, out)
    out *= problem._signs
    return out
