"""Convergence diagnostics: the per-step terms, the record built from them, rates.

Each per-step term (B, C, D, Xi, e, E, Lyapunov value V) is defined here once,
for one state or a stack of states, and gives the same bits on both.  A run
computes the terms of the states it keeps in batches, one stack at a time,
and builds their logged records from them (``metric_record``, on a stack);
with ``record_states`` it also keeps them in a term table (``term_table``,
``fill_term_rows``), which ``verify`` checks.  The field at the averaged
iterate (e, E) enters that table in one evaluation over all steps at the
end of the run.

Two norm conventions coexist on purpose and are spelled out per field:
``consensus_error`` is logged UNSQUARED, (1/n) ||z - 1 zbar||, which is the
plot convention, while the Lyapunov terms use squared norms, which is the
analysis convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The columns of a term table before zbar: the step_terms of each state, then
# e and E, which field_at_average_sq fills for all rows at once.
TERMS = ("B", "C", "D", "xi_sq", "V", "e", "E")

_FIELD_BYTES = 1 << 20  # of field per call in field_at_average_sq


@dataclass(frozen=True)
class MetricRecord:
    """One logged iteration.

    residual        (1/n) ||z - 1 z*||^2          (None when z* unknown)
    consensus_error (1/n) ||z - 1 zbar||          (unsquared)
    tracking_error  ||r - 1 rbar||^2
    xi_norm_sq      squared norm of the averaged optimality gap (None w/o z*)
    lyapunov        weighted sum of gap, iterate-difference, consensus and
                    tracking terms (None when z* unknown)
    """

    iteration: int
    comm_rounds: int
    residual: float | None
    consensus_error: float
    tracking_error: float
    xi_norm_sq: float | None
    lyapunov: float | None


@dataclass(frozen=True)
class RateReport:
    """Log-linear fit of a positive metric series against iteration count."""

    fitted_rate: float
    window: tuple[int, int]
    r_squared: float


# Sums and means call np.add.reduce directly: it is what np.sum and np.mean
# compute, bit for bit, without their Python wrappers, which cost more than
# the arithmetic at n = 16 and run several times per recorded step.


def _sq(a: np.ndarray, axis=(-2, -1)):
    """Sum of squares over ``axis``; on a stack, one value per state."""
    return np.add.reduce(a * a, axis=axis)


def _mean(a: np.ndarray, axis: int = -2, keepdims: bool = False):
    """The mean over ``axis``, row average by default: np.mean, bit for bit."""
    return np.add.reduce(a, axis=axis, keepdims=keepdims) / a.shape[axis]


def residual(z: np.ndarray, z_star: np.ndarray) -> float:
    """(1/n) ||z - 1 z*||^2, squared distance of all rows to the saddle."""
    return float(_sq(z - z_star)) / z.shape[0]


def consensus_error(z: np.ndarray) -> float:
    """(1/n) ||z - 1 zbar||, unsquared deviation from the row average."""
    return float(np.linalg.norm(z - _mean(z))) / z.shape[0]


def deviation_sq(m: np.ndarray):
    """||m - 1 mbar||^2: the consensus term C for m = z, the tracking term D for m = r."""
    return _sq(m - _mean(m, keepdims=True))


def optimality_gap_xi(state, gamma: float, z_star: np.ndarray) -> np.ndarray:
    """Averaged optimality gap zbar - gamma * mean(grad - grad_prev) - z*.

    The correction term anticipates the optimistic update; at iteration 0
    the stored gradients coincide and the gap reduces to zbar - z*.
    """
    if z_star is None:
        raise ValueError("optimality gap requires a known saddle point")
    zbar = _mean(state.z)
    correction = _mean(state.grad - state.grad_prev)
    return zbar - gamma * correction - np.asarray(z_star, dtype=np.float64)


def field_at_average_sq(problem, zbar: np.ndarray):
    """(e, E) = (||mean G(1 zbar)||^2, ||G(1 zbar)||^2) for zbar of shape (p+d,) or (K, p+d).

    The field is evaluated on the broadcast stack 1 zbar, (K, n, p+d), about
    _FIELD_BYTES at a time: in one call for the 2001 steps of ring-16, and in
    1 MB calls instead of one of 164 MB for 5001 steps at n = 1024.
    """
    rows = np.reshape(zbar, (-1, 1, zbar.shape[-1]))
    parts = []
    for block in np.array_split(rows, max(1, -(-rows.nbytes * problem.n // _FIELD_BYTES))):
        stack = np.broadcast_to(block, (len(block), problem.n, rows.shape[-1]))
        field = problem.gradient_field(stack)
        parts.append((_sq(_mean(field), axis=-1), _sq(field)))
    e, E = (np.concatenate(part).reshape(zbar.shape[:-1]) for part in zip(*parts))
    return e, E


def lyapunov_coefficients(gamma: float, L: float, rho: float, n: int) -> tuple[float, float]:
    """Weights (c1, c2) of the consensus and tracking terms."""
    if gamma <= 0.0 or L <= 0.0:
        raise ValueError("gamma and L must be positive")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    c1 = 72.0 * gamma * L / (n * (1.0 - rho))
    c2 = 4608.0 * gamma ** 3 * L / (n * (1.0 - rho) ** 3)
    return c1, c2


def step_terms(state, gamma: float, L: float, rho: float, n: int,
               z_star: np.ndarray | None) -> dict:
    """The per-step terms of one state, or of each state of a stack.

    B = ||z - z_prev||^2, C and D; with a known z* also xi_sq = ||Xi||^2 and,
    for rho in [0, 1) where its weights are defined, the Lyapunov value
    V = ||Xi||^2 + (gamma L / n) B + c1 C + c2 D.
    """
    t = {"B": _sq(state.z - state.z_prev), "C": deviation_sq(state.z),
         "D": deviation_sq(state.tracker)}
    if z_star is not None:
        t["xi_sq"] = _sq(optimality_gap_xi(state, gamma, z_star), axis=-1)
        if 0.0 <= rho < 1.0:
            c1, c2 = lyapunov_coefficients(gamma, L, rho, n)
            t["V"] = t["xi_sq"] + gamma * L / n * t["B"] + c1 * t["C"] + c2 * t["D"]
    return t


def term_table(rows: int, width: int) -> np.ndarray:
    """An unfilled table of ``rows`` steps: a column per name in TERMS and zbar."""
    return np.empty(rows, dtype=[*((name, np.float64) for name in TERMS),
                                 ("zbar", np.float64, (width,))])


def fill_term_rows(rows: np.ndarray, stack, terms: dict) -> None:
    """Fill consecutive rows of a term table from a stack of states and its
    ``step_terms``: NaN where a term is undefined, and zbar; e and E are left
    for ``field_at_average_sq``."""
    for name in TERMS[:5]:
        rows[name] = terms.get(name, math.nan)
    rows["zbar"] = _mean(stack.z)


def theoretical_contraction(gamma: float, mu: float, rho: float) -> float:
    """Guaranteed per-step Lyapunov factor 1 - min(3 gamma mu / 4, (1-rho)/8)."""
    if gamma <= 0.0 or mu <= 0.0:
        raise ValueError("gamma and mu must be positive")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    factor = 1.0 - min(0.75 * gamma * mu, (1.0 - rho) / 8.0)
    if not (0.0 < factor < 1.0):
        raise ValueError(f"contraction factor {factor} lies outside (0, 1); "
                         "stepsize too large for a meaningful guarantee")
    return factor


def max_stepsize(L: float, rho: float) -> float:
    """Largest stepsize with a linear-rate guarantee.

    min(1/(64 L), (1-rho)^2 / (144 L sqrt(rho))); the graph term is vacuous
    at rho = 0.
    """
    if L <= 0.0:
        raise ValueError(f"L must be positive, got {L}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    bound = 1.0 / (64.0 * L)
    if rho > 0.0:
        bound = min(bound, (1.0 - rho) ** 2 / (144.0 * L * math.sqrt(rho)))
    return bound


def iteration_complexity(kappa: float, rho: float) -> float:
    """Iterations per factor-e accuracy gain: kappa (1 + sqrt(rho)/(1-rho)^2) + 1/(1-rho)."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    return kappa * (1.0 + math.sqrt(rho) / (1.0 - rho) ** 2) + 1.0 / (1.0 - rho)


def fit_linear_rate(series, skip_fraction: float = 0.1) -> RateReport:
    """Least-squares geometric rate of an (iteration, value) series.

    The first ``skip_fraction`` of the iteration span is dropped to avoid
    transient contamination; remaining values must be strictly positive.
    """
    ks, values = np.array([(int(k), float(v)) for k, v in series],
                          dtype=np.float64).reshape(-1, 2).T
    if ks.size == 0:
        raise ValueError("insufficient data: empty series")
    window = ks >= ks[0] + skip_fraction * (ks[-1] - ks[0])
    keep = window & (values > 0.0)
    if keep.sum() < 10:
        if keep.sum() < window.sum():
            raise ValueError("nonpositive values leave fewer than 10 usable points")
        raise ValueError(f"insufficient data: {keep.sum()} points in fit window, need 10")
    ks, logs = ks[keep], np.log(values[keep])
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = logs - (slope * ks + intercept)
    ss_res = float(np.sum(fitted ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    # A (near-)constant series has ss_tot at rounding level; call it a
    # perfect fit rather than dividing by noise.
    noise_floor = (1e-14 * max(1.0, abs(float(logs.mean())))) ** 2 * len(logs)
    r_squared = 1.0 if ss_tot <= noise_floor else 1.0 - ss_res / ss_tot
    return RateReport(fitted_rate=float(np.exp(slope)),
                      window=(int(ks[0]), int(ks[-1])),
                      r_squared=r_squared)


def consensus_errors(z: np.ndarray) -> np.ndarray:
    """``consensus_error`` of each state of a stack z (K x n x (p+d)), bit for bit.

    np.linalg.norm squares a state's flattened deviation with one BLAS dot;
    a matmul of the K flattened deviations with themselves makes the same K
    dots in one call.
    """
    d = (z - _mean(z, keepdims=True)).reshape(len(z), 1, -1)
    return np.sqrt(np.matmul(d, d.transpose(0, 2, 1)).ravel()) / z.shape[-2]


def metric_record(stack, terms: dict, residuals) -> list[MetricRecord]:
    """The records of a stack of states from its ``step_terms`` and residuals.

    ``residuals`` holds each state's ``residual``, or None without z*.
    Saddle-dependent fields are None without z*; the Lyapunov value is also
    None when rho >= 1 (an off-design accelerated matrix), where its weights
    are undefined.
    """
    unknown = [None] * len(stack.iteration)
    columns = (stack.iteration, stack.comm_rounds, residuals,
               consensus_errors(stack.z).tolist(), terms["D"].tolist(),
               terms["xi_sq"].tolist() if "xi_sq" in terms else unknown,
               terms["V"].tolist() if "V" in terms else unknown)
    return [MetricRecord(*row) for row in zip(*columns)]
