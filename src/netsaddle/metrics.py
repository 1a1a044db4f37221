"""Convergence diagnostics: the per-step terms, the record table built from them, rates.

Each per-step term (zbar, B, C, D, Xi, Lyapunov value V, and e, E, the
field at the averaged iterate) is defined here once, for one state or a
stack of states, and gives the same bits on both.  A run records its
states in one table (``record_table``): a row per recorded state, a column
per term under its name in ``step_terms``, filled from a stack of states at
a time by ``metric_record`` with the residuals the run's stop rule took.
The trace CSV is written from its columns, and ``verify`` checks them on a
run that records every step; e and E are not columns, since only
``verify`` reads them: it computes them from the zbar column with
``field_at_average_sq``.

Two norm conventions coexist on purpose and are spelled out per field:
``consensus_error`` is logged UNSQUARED, (1/n) ||z - 1 zbar|| = sqrt(C) / n,
which is the plot convention, while the Lyapunov terms use squared norms,
which is the analysis convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

# The float columns of a record table, after iteration and comm_rounds and
# before zbar: the residual (1/n) ||z - 1 z*||^2, the UNSQUARED consensus error,
# and the terms D, xi_sq = ||Xi||^2, V, B, C (see step_terms), each under its
# name in step_terms.  V is NaN at rho >= 1.
RECORD_FLOATS = ("residual", "consensus_error", "D", "xi_sq", "V", "B", "C")

_CSV_CHUNK_ROWS = 1 << 12   # rows formatted per string in csv_chunks


@dataclass(frozen=True)
class RateReport:
    """Log-linear fit of a positive metric series against iteration count."""

    fitted_rate: float
    window: tuple[int, int]
    r_squared: float


# Sums call np.add.reduce directly: it is what np.sum computes, bit for bit,
# without its Python wrapper, which costs more than the arithmetic at n = 16
# and runs several times per recorded step.


def _sq(a: np.ndarray, axis=(-2, -1)):
    """Sum of squares over ``axis``; on a stack, one value per state."""
    return np.add.reduce(a * a, axis=axis)


def row_mean(a: np.ndarray) -> np.ndarray:
    """The row average of an n x w array, or of each in a stack (..., n, w):
    np.mean(a, axis=-2), bit for bit.

    einsum sums the rows in the order np.add.reduce(a, axis=-2) does, to the
    same bits (signed zeros, infinities and NaNs included, as the tests
    check), in about a third of its time on a ring-16 batch."""
    return np.einsum("...ij->...j", a) / a.shape[-2]


def residual(z: np.ndarray, z_star: np.ndarray):
    """(1/n) ||z - 1 z*||^2, squared distance of all rows to the saddle; on a
    stack of iterates (K x n x (p+d)), one value per state."""
    return _sq(z - z_star) / z.shape[-2]


def deviation_sq(m: np.ndarray, mbar: np.ndarray | None = None):
    """||m - 1 mbar||^2: the consensus term C for m = z, the tracking term D for m = r.

    ``mbar`` is ``row_mean(m)``, passed by a caller that has it already."""
    if mbar is None:
        mbar = row_mean(m)
    return _sq(m - mbar[..., None, :])


def consensus_error(z: np.ndarray):
    """(1/n) ||z - 1 zbar|| = sqrt(C) / n, unsquared deviation from the row
    average; on a stack of iterates (K x n x (p+d)), one value per state."""
    return np.sqrt(deviation_sq(z)) / z.shape[-2]


def optimality_gap_xi(state, gamma: float, z_star: np.ndarray,
                      zbar: np.ndarray | None = None) -> np.ndarray:
    """Averaged optimality gap zbar - gamma * mean(grad - grad_prev) - z*.

    The correction term anticipates the optimistic update; at iteration 0
    the stored gradients coincide and the gap reduces to zbar - z*.
    ``zbar`` is ``row_mean(state.z)``, passed by a caller that has it already.
    """
    if zbar is None:
        zbar = row_mean(state.z)
    correction = row_mean(state.grad - state.grad_prev)
    return zbar - gamma * correction - np.asarray(z_star, dtype=np.float64)


def field_at_average_sq(problem, zbar: np.ndarray):
    """(e, E) = (||mean G(1 zbar)||^2, ||G(1 zbar)||^2) for zbar of shape (p+d,) or (K, p+d),
    from the field on the broadcast stack 1 zbar, (K, n, p+d)."""
    rows = np.reshape(zbar, (-1, 1, zbar.shape[-1]))
    field = problem.gradient_field(np.broadcast_to(rows, (len(rows), problem.n, rows.shape[-1])))
    return (_sq(row_mean(field), axis=-1).reshape(zbar.shape[:-1]),
            _sq(field).reshape(zbar.shape[:-1]))


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
               z_star: np.ndarray) -> dict:
    """The per-step terms of one state, or of each state of a stack.

    The averaged iterate zbar, taken once and shared by C and Xi,
    B = ||z - z_prev||^2, C, D, xi_sq = ||Xi||^2 and, for rho in [0, 1)
    where its weights are defined, the Lyapunov value
    V = ||Xi||^2 + (gamma L / n) B + c1 C + c2 D.
    """
    zbar = row_mean(state.z)
    t = {"zbar": zbar, "B": _sq(state.z - state.z_prev), "C": deviation_sq(state.z, zbar),
         "D": deviation_sq(state.tracker),
         "xi_sq": _sq(optimality_gap_xi(state, gamma, z_star, zbar), axis=-1)}
    if 0.0 <= rho < 1.0:
        c1, c2 = lyapunov_coefficients(gamma, L, rho, n)
        t["V"] = t["xi_sq"] + gamma * L / n * t["B"] + c1 * t["C"] + c2 * t["D"]
    return t


def record_table(rows: int, width: int) -> np.ndarray:
    """An unfilled record table of ``rows`` rows for states of ``width`` = p+d
    columns: iteration and comm_rounds, a column per name in RECORD_FLOATS,
    and zbar."""
    return np.empty(rows, dtype=[("iteration", np.int64), ("comm_rounds", np.int64),
                                 *((name, np.float64) for name in RECORD_FLOATS),
                                 ("zbar", np.float64, (width,))])


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

    ``series`` is an iterable of (iteration, value) pairs, or an N x 2 array
    of them, taken as float64 without a pair-by-pair pass.  The first
    ``skip_fraction`` of the iteration span is dropped to avoid transient
    contamination; remaining values must be finite (an overflowed residual
    is inf), and only the strictly positive ones are fitted.
    """
    if not isinstance(series, np.ndarray):
        series = [(int(k), float(v)) for k, v in series]
    ks, values = np.array(series, dtype=np.float64).reshape(-1, 2).T
    if ks.size == 0:
        raise ValueError("insufficient data: empty series")
    window = ks >= ks[0] + skip_fraction * (ks[-1] - ks[0])
    if not np.isfinite(values[window]).all():
        raise ValueError("non-finite values in the fit window")
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


def metric_record(rows: np.ndarray, stack, residuals, gamma: float, L: float,
                  rho: float, z_star: np.ndarray) -> None:
    """Fill consecutive rows of a record table from a stack of states and
    their ``residual`` values, which the caller has taken already, NaN where
    a term is undefined (V at rho >= 1): every column but comm_rounds,
    which counts the run's exchanges and is the caller's to fill."""
    n = stack.z.shape[-2]
    terms = step_terms(stack, gamma, L, rho, n, z_star)
    rows["iteration"] = stack.iteration
    rows["residual"] = residuals
    rows["consensus_error"] = np.sqrt(terms["C"]) / n
    for term in ("zbar", "B", "C", "D", "xi_sq", "V"):
        rows[term] = terms.get(term, math.nan)


def csv_chunks(row: str, table: np.ndarray, names):
    """``row % values`` for each row's values in the columns ``names``, joined
    _CSV_CHUNK_ROWS rows at a time: one %-format of the row repeated for the
    chunk, on the chunk's values in row order.  '%.17g' % x is f"{x:.17g}",
    inf and nan included."""
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        part = table[start:start + _CSV_CHUNK_ROWS]
        columns = [part[name].tolist() for name in names]
        yield (row * len(part)) % tuple(chain.from_iterable(zip(*columns)))
