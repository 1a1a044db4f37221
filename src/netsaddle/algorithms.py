"""The four decentralized saddle-point methods as one update rule.

Every step of every method is one call of the kernel ``_step`` on stacked
n x (p+d) arrays; the methods differ only in the direction d and the mix:

  z+ = mix(z - gamma d),   and for the tracking methods   r+ = mix(r + G(z+) - G(z))

  method  direction d                 mix                          tracking
  dgda    G(z)                        W m                          no
  dogda   2 G(z) - G(z_prev)          W m                          no
  dogt    r + G(z) - G(z_prev)        W m                          yes
  adogt   r + G(z) - G(z_prev)        T rounds of momentum gossip  yes
                                      (= M_T @ m, T exchanges)

G is the sign-flipped stacked gradient field, so primal descent and dual
ascent are the same subtraction.  Gradients are evaluated at the mixed
iterates (the states the averaged dynamics and the energy-decay guarantees
are stated for); the tracker r is seeded with the initial gradients and
therefore keeps the exact column-average identity mean(r) = mean(G).

W m is ``MixingMatrix.mix``: the dense product, or a gather over the
nonzeros of W on sparse graphs.

``iterate`` yields the states of one method, one step at a time; ``run``
drives it, records the metric rows (and, with ``record_states``, every
step's terms for the theory checks) and applies the stop rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import metrics
from .graph import MixingMatrix, acceleration_momentum, accelerated_matrix, momentum_gossip
from .metrics import MetricRecord
from .problem import BilinearQuadratic, stacked_array, stacked_gradient_field

ALGORITHMS = ("dgda", "dogda", "dogt", "adogt")
TRACKING_ALGORITHMS = ("dogt", "adogt")


class DivergenceError(RuntimeError):
    """An iterate became NaN/Inf; carries the iteration where it happened."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration} "
                         "(stepsize too large for this problem/graph?)")
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class AlgoState:
    """Value-semantic snapshot of one algorithm at one iteration.

    Arrays are n x (p+d): current and previous iterates, current and
    previous stacked gradients, and the tracker r = [p, -q].  Baseline
    steps carry the tracker over unchanged; iterate() starts it at zero so
    every state has one schema.

    Successive states share arrays: a step's z_prev and grad_prev are the
    previous state's z and grad, and a baseline step's tracker is the
    previous one.  Every array is float64 and read-only, frozen in place by
    whoever makes it (``init_state``, ``iterate``, ``_step``), so sharing is
    safe and no state copies or re-checks its inputs.
    """

    z: np.ndarray
    z_prev: np.ndarray
    grad: np.ndarray
    grad_prev: np.ndarray
    tracker: np.ndarray
    iteration: int
    comm_rounds: int


@dataclass(frozen=True, eq=False)
class Trace:
    """Recorded run: metric rows, optional per-step terms, and run constants.

    ``terms`` (with ``record_states``) is a ``metrics.term_table`` whose row
    k holds iteration k's B, C, D, ||Xi||^2, V, e, E and zbar, computed with
    the run's own gamma, L and rho; None otherwise.
    """

    kind: str
    gamma: float
    mu: float
    smoothness: float
    rho: float              # spectral gap of the effective mixing matrix
    n: int
    problem: BilinearQuadratic
    mixing: MixingMatrix
    z_star: np.ndarray | None
    records: tuple[MetricRecord, ...]
    terms: np.ndarray | None
    reason: str             # "tol_reached" or "max_iters"
    iterations: int
    comm_rounds: int
    T: int | None = None
    eta: float | None = None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def init_state(problem: BilinearQuadratic, z0) -> AlgoState:
    """Start state: both iterate slots hold z0; both gradient slots and the tracker G(z0)."""
    z = _frozen(stacked_array(problem, z0).copy())
    g = _frozen(stacked_gradient_field(problem, z))
    return AlgoState(z=z, z_prev=z, grad=g, grad_prev=g, tracker=g,
                     iteration=0, comm_rounds=0)


def _check_finite(z: np.ndarray, iteration: int) -> None:
    if not np.isfinite(z).all():
        raise DivergenceError(iteration)


def _step(state: AlgoState, mix, rounds: int, direction, tracking: bool,
          gamma: float, problem: BilinearQuadratic) -> AlgoState:
    """The one update of the family, counting ``rounds`` exchanges.

    z+ = mix(z - gamma direction(state)); tracking methods also update
    r+ = mix(r + G(z+) - G(z)), the others carry r over unchanged.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"T must be a positive integer, got {rounds!r}")
    k = state.iteration + 1
    with np.errstate(over="ignore", invalid="ignore"):
        z_new = _frozen(mix(state.z - gamma * direction(state)))
        _check_finite(z_new, k)
        g_new = _frozen(stacked_gradient_field(problem, z_new))
        r_new = state.tracker
        if tracking:
            r_new = _frozen(mix(state.tracker + g_new - state.grad))
            _check_finite(r_new, k)
    return AlgoState(z=z_new, z_prev=state.z, grad=g_new, grad_prev=state.grad,
                     tracker=r_new, iteration=k, comm_rounds=state.comm_rounds + rounds)


def _tracked(s: AlgoState) -> np.ndarray:
    return s.tracker + s.grad - s.grad_prev


def dgda_step(state: AlgoState, W: MixingMatrix, gamma: float,
              problem: BilinearQuadratic) -> AlgoState:
    """Plain distributed gradient descent ascent (adapt then combine)."""
    return _step(state, W.mix, 1, lambda s: s.grad, False, gamma, problem)


def dogda_step(state: AlgoState, W: MixingMatrix, gamma: float,
               problem: BilinearQuadratic) -> AlgoState:
    """Distributed optimistic gradient descent ascent, no tracking."""
    return _step(state, W.mix, 1, lambda s: 2.0 * s.grad - s.grad_prev, False,
                 gamma, problem)


def dogt_step(state: AlgoState, W: MixingMatrix, gamma: float,
              problem: BilinearQuadratic) -> AlgoState:
    """One optimistic gradient-tracking update.

    The tracker replaces the raw local gradient in the z update, then
    absorbs the new-minus-old gradient difference; mixing both through the
    doubly stochastic W preserves mean(r) = mean(G) exactly.
    """
    return _step(state, W.mix, 1, _tracked, True, gamma, problem)


def adogt_step(state: AlgoState, W: MixingMatrix, eta: float, T: int, gamma: float,
               problem: BilinearQuadratic) -> AlgoState:
    """dogt_step with every exchange run through T momentum-gossip rounds.

    Equivalent to dogt_step under accelerated_matrix(W, T); counts T
    communication rounds per iteration.
    """
    return _step(state, partial(momentum_gossip, W.mix, eta, T), T,
                 _tracked, True, gamma, problem)


def iterate(kind: str, problem: BilinearQuadratic, W: MixingMatrix, gamma: float, z0,
            T: int | None = None):
    """Yield the states of one method from iteration 0 on, without end.

    Raises DivergenceError if an iterate becomes non-finite.
    """
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {kind!r}, expected one of {ALGORITHMS}")
    state = init_state(problem, z0)
    if kind not in TRACKING_ALGORITHMS:
        state = replace(state, tracker=_frozen(np.zeros_like(state.tracker)))
    eta = acceleration_momentum(W.rho) if kind == "adogt" else None
    # Looked up on every call, so a step function swapped on the module is used.
    step = {"dgda": lambda s: dgda_step(s, W, gamma, problem),
            "dogda": lambda s: dogda_step(s, W, gamma, problem),
            "dogt": lambda s: dogt_step(s, W, gamma, problem),
            "adogt": lambda s: adogt_step(s, W, eta, T, gamma, problem)}[kind]
    while True:
        yield state
        state = step(state)


def run(kind: str, problem: BilinearQuadratic, W: MixingMatrix, gamma: float, z0,
        max_iters: int, tol: float, record_every: int = 1,
        T: int | None = None, record_states: bool = False) -> Trace:
    """Drive one algorithm until the residual drops to tol or iterations run out.

    Metrics are recorded at iteration 0, every ``record_every`` iterations,
    and at the final iterate.  ``record_states`` keeps every step's terms in
    ``Trace.terms`` for the theory checks: a few floats per step whatever n
    is, in a table that doubles as steps arrive, so its size follows the
    steps run, not ``max_iters``.  Without a known saddle point the residual
    is unavailable and the run always goes the full ``max_iters``.

    Raises DivergenceError if an iterate becomes non-finite.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    if tol < 0.0 or np.isnan(tol):
        raise ValueError(f"tol must be nonnegative, got {tol}")

    eta = None
    rho_eff = W.rho
    if kind == "adogt":
        if T is None:
            raise ValueError("adogt requires the gossip round count T")
        eta = acceleration_momentum(W.rho)
        rho_eff = accelerated_matrix(W, T).rho
    else:
        T = None

    L = problem.smoothness_constant()
    z_star = problem.saddle_point()
    n = problem.n
    table = metrics.term_table(1, problem.p + problem.d) if record_states else None
    records = []
    reason = "max_iters"
    # Divergence is detected by explicit isfinite checks inside the step
    # functions; float overflow on the way there is expected, not noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for state in iterate(kind, problem, W, gamma, z0, T):
            k = state.iteration
            # Between scheduled records, the residual alone decides whether to stop.
            recorded = (k % record_every == 0 or k == max_iters
                        or z_star is not None and metrics.residual(state.z, z_star) <= tol)
            if recorded or record_states:
                terms = metrics.step_terms(state, gamma, L, rho_eff, n, z_star)
            if record_states:
                if k == len(table):     # full: double it
                    table = np.concatenate([table, np.empty_like(table)])
                table[k] = metrics.term_row(state, terms)
            if recorded:
                records.append(metrics.metric_record(state, terms, z_star))
                if records[-1].residual is not None and records[-1].residual <= tol:
                    reason = "tol_reached"
                    break
            if k == max_iters:
                break

    if record_states:
        table = table[:state.iteration + 1]
        table["e"], table["E"] = metrics.field_at_average_sq(problem, table["zbar"])
    return Trace(kind=kind, gamma=gamma, mu=problem.mu, smoothness=L,
                 rho=rho_eff, n=n, problem=problem, mixing=W, z_star=z_star,
                 records=tuple(records), terms=table,
                 reason=reason, iterations=state.iteration,
                 comm_rounds=state.comm_rounds, T=T, eta=eta)
