"""Saddle-problem oracles and the synthetic bilinear-quadratic instance.

Conventions: each of n nodes holds a local objective f_i(x, y) that is
mu-strongly convex in x and mu-strongly concave in y.  Iterates are stacked
row-wise into n x (p+d) matrices, and the gradient field carries a
sign-flipped dual block, G_i(z) = [grad_x f_i, -grad_y f_i], so that the
saddle point is the root of a strongly monotone operator and both the
descent and ascent updates become a single subtraction.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class StackedIterate:
    """Per-node primal/dual copies, one row per node."""

    primal: np.ndarray  # n x p
    dual: np.ndarray    # n x d

    def __post_init__(self):
        primal = np.asarray(self.primal, dtype=np.float64)
        dual = np.asarray(self.dual, dtype=np.float64)
        if primal.ndim != 2 or dual.ndim != 2:
            raise ValueError("primal and dual must be 2-D (one row per node)")
        if primal.shape[0] != dual.shape[0]:
            raise ValueError(
                f"node counts differ: primal has {primal.shape[0]} rows, "
                f"dual has {dual.shape[0]}")
        primal.setflags(write=False)
        dual.setflags(write=False)
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)

    @property
    def stacked(self) -> np.ndarray:
        return np.hstack([self.primal, self.dual])

    @classmethod
    def from_stacked(cls, z: np.ndarray, p: int) -> "StackedIterate":
        z = np.asarray(z, dtype=np.float64)
        return cls(primal=z[:, :p], dual=z[:, p:])


class SaddleProblem(abc.ABC):
    """Oracle interface for a distributed saddle problem.

    Implementations must be deterministic: identical inputs produce
    bit-identical outputs.  ``smoothness_certified`` distinguishes exact
    constants from sampled estimates; only certified constants should feed
    theorem-verification runs.
    """

    n: int
    p: int
    d: int
    mu: float

    @abc.abstractmethod
    def local_value(self, i: int, x_i: np.ndarray, y_i: np.ndarray) -> float:
        """f_i evaluated at node i's point."""

    @abc.abstractmethod
    def local_gradient(self, i: int, x_i: np.ndarray, y_i: np.ndarray):
        """(grad_x f_i, grad_y f_i) at node i's point."""

    def gradient_field(self, z: np.ndarray) -> np.ndarray:
        """Stacked monotone field: row i = [grad_x f_i, -grad_y f_i].

        Default implementation loops over the per-node oracle; subclasses
        may vectorize.
        """
        z = stacked_array(self, z)
        out = np.empty_like(z)
        for i in range(self.n):
            gx, gy = self.local_gradient(i, z[i, :self.p], z[i, self.p:])
            out[i, :self.p] = gx
            out[i, self.p:] = -gy
        return out

    def saddle_point(self) -> np.ndarray | None:
        """Closed-form saddle point as a (p+d,) vector, or None if unknown."""
        return None

    def smoothness_constant(self) -> float:
        """Joint smoothness bound L for each block gradient."""
        return estimate_smoothness(self)

    @property
    def smoothness_certified(self) -> bool:
        return False

    @property
    def kappa(self) -> float:
        return self.smoothness_constant() / self.mu


def stacked_array(problem: SaddleProblem, z, batched: bool = False) -> np.ndarray:
    """Coerce a StackedIterate or array to a validated n x (p+d) float array.

    With ``batched``, a stack of them shaped (..., n, p+d) is accepted too.
    """
    if isinstance(z, StackedIterate):
        z = z.stacked
    z = np.asarray(z, dtype=np.float64)
    expected = (problem.n, problem.p + problem.d)
    if (z.shape[-2:] if batched else z.shape) != expected:
        raise ValueError(f"iterate shape {z.shape} does not match problem {expected}")
    return z


@dataclass(frozen=True, eq=False)
class BilinearQuadratic(SaddleProblem):
    """Per-node objective x.y + mu/2 ||x - a_i||^2 - mu/2 ||y - b_i||^2.

    The centers a_i, b_i differ across nodes, which makes the local saddle
    points disagree; algorithms without gradient tracking stall on this
    heterogeneity.  The stacked field is linear with an exactly known
    smoothness constant sqrt(1 + mu^2) and strong-monotonicity modulus mu.
    """

    centers_a: np.ndarray  # n x p
    centers_b: np.ndarray  # n x d
    mu: float
    seed: int | None = None
    zero_sum: bool = False

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
            for name, c in (("centers_a", a), ("centers_b", b)):
                drift = np.abs(c.sum(axis=0)).max()
                if drift > 1e-12:
                    raise ValueError(f"zero_sum instance has {name} column sum {drift:.3e}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "centers_a", a)
        object.__setattr__(self, "centers_b", b)

    @property
    def n(self) -> int:
        return self.centers_a.shape[0]

    @property
    def p(self) -> int:
        return self.centers_a.shape[1]

    @property
    def d(self) -> int:
        return self.centers_b.shape[1]

    def local_value(self, i, x_i, y_i):
        x_i = np.asarray(x_i, dtype=np.float64)
        y_i = np.asarray(y_i, dtype=np.float64)
        dx = x_i - self.centers_a[i]
        dy = y_i - self.centers_b[i]
        return float(x_i @ y_i + 0.5 * self.mu * (dx @ dx) - 0.5 * self.mu * (dy @ dy))

    def local_gradient(self, i, x_i, y_i):
        if not (0 <= i < self.n):
            raise IndexError(f"node index {i} out of range for n={self.n}")
        x_i = np.asarray(x_i, dtype=np.float64)
        y_i = np.asarray(y_i, dtype=np.float64)
        if x_i.shape != (self.p,) or y_i.shape != (self.d,):
            raise ValueError(f"expected shapes ({self.p},) and ({self.d},), "
                             f"got {x_i.shape} and {y_i.shape}")
        gx = y_i + self.mu * (x_i - self.centers_a[i])
        gy = x_i - self.mu * (y_i - self.centers_b[i])
        return gx, gy

    def gradient_field(self, z):
        """The stacked field, also on a stack of iterates shaped (..., n, p+d)."""
        z = stacked_array(self, z, batched=True)
        x = z[..., :self.p]
        y = z[..., self.p:]
        gx = y + self.mu * (x - self.centers_a)
        gy = x - self.mu * (y - self.centers_b)
        return np.concatenate([gx, -gy], axis=-1)

    def saddle_point(self):
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

    def smoothness_constant(self):
        return math.sqrt(1.0 + self.mu ** 2)

    @property
    def smoothness_certified(self) -> bool:
        return True

    def to_text(self) -> str:
        """Plain-text record with full float precision for exact replay."""
        lines = [
            "bilinear_quadratic",
            f"n {self.n}",
            f"p {self.p}",
            f"d {self.d}",
            f"mu {self.mu:.17g}",
            f"seed {'none' if self.seed is None else self.seed}",
            f"zero_sum {'true' if self.zero_sum else 'false'}",
        ]
        for i in range(self.n):
            lines.append("a " + " ".join(f"{v:.17g}" for v in self.centers_a[i]))
        for i in range(self.n):
            lines.append("b " + " ".join(f"{v:.17g}" for v in self.centers_b[i]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BilinearQuadratic":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "bilinear_quadratic":
            raise ValueError("not a bilinear_quadratic record")
        header = {}
        for ln in lines[1:7]:
            key, value = ln.split(maxsplit=1)
            header[key] = value
        n = int(header["n"])
        rows = [ln.split() for ln in lines[7:]]
        a = np.array([[float(v) for v in r[1:]] for r in rows[:n]])
        b = np.array([[float(v) for v in r[1:]] for r in rows[n:]])
        seed = None if header["seed"] == "none" else int(header["seed"])
        return cls(centers_a=a, centers_b=b, mu=float(header["mu"]), seed=seed,
                   zero_sum=header["zero_sum"] == "true")


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


def local_gradient(problem: SaddleProblem, i: int, x_i, y_i):
    return problem.local_gradient(i, np.asarray(x_i, dtype=np.float64),
                                  np.asarray(y_i, dtype=np.float64))


def local_value(problem: SaddleProblem, i: int, x_i, y_i) -> float:
    return problem.local_value(i, np.asarray(x_i, dtype=np.float64),
                               np.asarray(y_i, dtype=np.float64))


def stacked_gradient_field(problem: SaddleProblem, z) -> np.ndarray:
    return problem.gradient_field(z)


def saddle_point(problem: SaddleProblem) -> np.ndarray | None:
    return problem.saddle_point()


def smoothness_constant(problem: SaddleProblem) -> float:
    return problem.smoothness_constant()


def estimate_smoothness(problem: SaddleProblem, n_pairs: int = 10_000,
                        seed: int = 0, scale: float = 10.0) -> float:
    """Largest sampled per-block gradient-difference ratio.

    A lower bound on the true smoothness constant; flagged non-certified and
    excluded from theorem-verification runs.
    """
    rng = np.random.default_rng(seed)
    p, d = problem.p, problem.d
    best = 0.0
    for _ in range(n_pairs):
        i = int(rng.integers(problem.n))
        u = scale * rng.standard_normal(p + d)
        v = scale * rng.standard_normal(p + d)
        gap = np.linalg.norm(u - v)
        if gap == 0.0:
            continue
        gux, guy = problem.local_gradient(i, u[:p], u[p:])
        gvx, gvy = problem.local_gradient(i, v[:p], v[p:])
        ratio = max(np.linalg.norm(gux - gvx), np.linalg.norm(guy - gvy)) / gap
        best = max(best, float(ratio))
    return best
