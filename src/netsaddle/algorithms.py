"""The four decentralized saddle-point methods as one update rule.

Every step of every method is one call of the kernel ``_step`` on stacked
n x (p+d) arrays; the methods differ only in the direction d and the mix:

  z+ = mix(z - gamma d),   and for the tracking methods   r+ = mix(r + G(z+) - G(z))

  method  direction d                 mix                          tracking
  dgda    G(z)                        W m                          no
  dogda   2 G(z) - G(z_prev)          W m                          no
  dogt    r + G(z) - G(z_prev)        W m                          yes
  adogt   r + G(z) - G(z_prev)        M_T m, T exchanges:          yes
                                      one product by M_T where W
                                      mixes dense, T rounds of
                                      momentum gossip where W gathers

G is the sign-flipped stacked gradient field, so primal descent and dual
ascent are the same subtraction.  Gradients are evaluated at the mixed
iterates (the states the averaged dynamics and the energy-decay guarantees
are stated for); the tracker r is seeded with the initial gradients and
therefore keeps the exact column-average identity mean(r) = mean(G).

A run is given what it mixes with, built once by its caller, and reads the
rounds each mix counts from the same object: for dgda, dogda and dogt a
``MixingMatrix`` (W m, the dense product or a gather over the nonzeros of W
on sparse graphs, one round); for adogt the ``graph.accelerated_matrix``
exchange (M_T m: one product by M_T, built on its first mix, where W mixes
dense, below a few hundred nodes; where W gathers, T rounds, and no n x n
matrix enters a step).  Any other pairing is rejected.

A step is arithmetic only: it neither checks its result nor sets NumPy's
error state, so a step from a non-finite state is an ordinary step.  The
tests of a state (the stop rule and the divergence check) are made on
stacks of states: ``run`` steps a batch of states, tests the whole batch at
once, fills the rows of the states it records into its one record table
(``metrics.record_table``), and stops stepping at a fixed point of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
# Unused here; the benchmark's tracer wraps accelerated_matrix by name in this module.
from .graph import AcceleratedExchange, MixingMatrix, accelerated_matrix  # noqa: F401
from .problem import BilinearQuadratic, stacked_array, stacked_gradient_field

ALGORITHMS = ("dgda", "dogda", "dogt", "adogt")
TRACKING_ALGORITHMS = ("dogt", "adogt")


class DivergenceError(RuntimeError):
    """An iterate became NaN/Inf; carries the iteration where it happened."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration} "
                         "(stepsize too large for this problem/graph?)")
        self.iteration = iteration


@dataclass(eq=False, slots=True)
class AlgoState:
    """Snapshot of one algorithm at one iteration, compared by identity.

    Arrays are n x (p+d): current and previous iterates, current and
    previous stacked gradients, and the tracker r = [p, -q].  Baseline
    steps carry the tracker over unchanged and start it at zero, so every
    state has one schema.  A state does not count its exchanges:
    they are its iteration times the mix's ``rounds``, which ``run`` writes
    into the comm_rounds column of its record table.

    Successive states share arrays: a step's z_prev and grad_prev are the
    previous state's z and grad, and a baseline step's tracker is the
    previous one.  Every array is float64 and read-only, frozen in place by
    whoever makes it (``init_state``, ``_states``, ``_step``), so sharing is
    safe and no state copies or re-checks its inputs.  The class itself is
    a plain slots dataclass, which is built several times faster than a
    frozen one: nothing in the package assigns to a state's fields.
    """

    z: np.ndarray
    z_prev: np.ndarray
    grad: np.ndarray
    grad_prev: np.ndarray
    tracker: np.ndarray
    iteration: int


@dataclass(frozen=True, eq=False)
class Trace:
    """Recorded run: its record table and what it was run with.

    ``mixing`` is what every step mixed with: W, or adogt's exchange.
    ``records`` is a ``metrics.record_table``, as a numpy record array: a
    row per recorded state, computed with the run's own gamma, the mixing's
    rho and the problem's z*, L, mu and n, each read from the object that
    holds it.  ``iterations`` and ``comm_rounds`` are those of its last row,
    the state of the stop or of max_iters.  ``fixed_point`` is the first
    iteration whose state equals the state before it, bit for bit, when
    ``run`` found one and stopped stepping there; None otherwise.  It is not
    written to any output file.
    """

    gamma: float
    problem: BilinearQuadratic
    mixing: MixingMatrix | AcceleratedExchange
    records: np.recarray
    reason: str             # "tol_reached" or "max_iters"
    fixed_point: int | None = None

    @property
    def rho(self) -> float:
        """The spectral gap of the mixing: rho_W, or adogt's rho_M."""
        return self.mixing.rho

    @property
    def T(self) -> int | None:
        """adogt's gossip rounds per exchange; None for a method that mixes with W."""
        return self.mixing.rounds if isinstance(self.mixing, AcceleratedExchange) else None

    @property
    def z_star(self) -> np.ndarray:
        return self.problem.saddle_point()

    @property
    def iterations(self) -> int:
        return int(self.records["iteration"][-1])

    @property
    def comm_rounds(self) -> int:
        return int(self.records["comm_rounds"][-1])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def init_state(problem: BilinearQuadratic, z0) -> AlgoState:
    """Start state: both iterate slots hold z0; both gradient slots and the tracker G(z0)."""
    z = _frozen(stacked_array(problem, z0).copy())
    g = _frozen(stacked_gradient_field(problem, z))
    return AlgoState(z=z, z_prev=z, grad=g, grad_prev=g, tracker=g, iteration=0)


def _step(state: AlgoState, mixing: MixingMatrix | AcceleratedExchange, direction,
          tracking: bool, gamma: float, problem: BilinearQuadratic) -> AlgoState:
    """The one update of the family, with ``mixing``'s mix.

    z+ = mix(z - gamma direction(state)); tracking methods also update
    r+ = mix(r + G(z+) - G(z)), the others carry r over unchanged.  Pure
    arithmetic: a non-finite result is returned like any other, and float
    overflow warns unless the caller set ``np.errstate``.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    mix = mixing.mix
    z_new = _frozen(mix(state.z - gamma * direction(state)))
    g_new = _frozen(stacked_gradient_field(problem, z_new))
    r_new = _frozen(mix(state.tracker + g_new - state.grad)) if tracking else state.tracker
    return AlgoState(z_new, state.z, g_new, state.grad, r_new, state.iteration + 1)


def _tracked(s: AlgoState) -> np.ndarray:
    return s.tracker + s.grad - s.grad_prev


def dgda_step(state: AlgoState, W: MixingMatrix, gamma: float,
              problem: BilinearQuadratic) -> AlgoState:
    """Plain distributed gradient descent ascent (adapt then combine)."""
    return _step(state, W, lambda s: s.grad, False, gamma, problem)


def dogda_step(state: AlgoState, W: MixingMatrix, gamma: float,
               problem: BilinearQuadratic) -> AlgoState:
    """Distributed optimistic gradient descent ascent, no tracking."""
    return _step(state, W, lambda s: 2.0 * s.grad - s.grad_prev, False, gamma, problem)


def dogt_step(state: AlgoState, W: MixingMatrix, gamma: float,
              problem: BilinearQuadratic) -> AlgoState:
    """One optimistic gradient-tracking update.

    The tracker replaces the raw local gradient in the z update, then
    absorbs the new-minus-old gradient difference; mixing both through the
    doubly stochastic W preserves mean(r) = mean(G) exactly.
    """
    return _step(state, W, _tracked, True, gamma, problem)


def adogt_step(state: AlgoState, mixing: AcceleratedExchange, gamma: float,
               problem: BilinearQuadratic) -> AlgoState:
    """dogt_step whose every exchange is ``mixing``, accelerated_matrix(W, T).

    It mixes with M_T and counts T communication rounds per iteration.
    Where W mixes dense, the exchange is one product by M_T; where W
    gathers, it is the T rounds of W.mix, which agree with the product up
    to rounding.
    """
    return _step(state, mixing, _tracked, True, gamma, problem)


def _states(kind: str, problem: BilinearQuadratic, mixing, gamma: float, z0):
    """Yield the states of one method, mixing with ``mixing``, from iteration 0
    on, without end or checks.

    ``mixing`` must be adogt's ``AcceleratedExchange`` for adogt and a
    ``MixingMatrix`` for the others; anything else raises ValueError.  A
    step from a non-finite state is taken like any other; the caller sets
    ``np.errstate`` and tests the states it gets (``_first_nonfinite``).
    """
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {kind!r}, expected one of {ALGORITHMS}")
    wanted = AcceleratedExchange if kind == "adogt" else MixingMatrix
    if not isinstance(mixing, wanted):
        raise ValueError(f"{kind} mixes with a {wanted.__name__}, "
                         f"got a {type(mixing).__name__}")
    state = init_state(problem, z0)
    if kind not in TRACKING_ALGORITHMS:
        state = replace(state, tracker=_frozen(np.zeros_like(state.tracker)))
    # Looked up on every call, so a step function swapped on the module is used.
    step = {"dgda": lambda s: dgda_step(s, mixing, gamma, problem),
            "dogda": lambda s: dogda_step(s, mixing, gamma, problem),
            "dogt": lambda s: dogt_step(s, mixing, gamma, problem),
            "adogt": lambda s: adogt_step(s, mixing, gamma, problem)}[kind]
    while True:
        yield state
        state = step(state)


def _first_nonfinite(z: np.ndarray, tracker: np.ndarray | None = None) -> int | None:
    """Index of the first state of a stack (K x n x (p+d)) whose z, or tracker
    when one is given, holds a NaN or an infinity; None if every state is finite."""
    finite = np.isfinite(z)
    if tracker is not None:
        finite &= np.isfinite(tracker)
    if np.logical_and.reduce(finite, axis=None):     # the common case, in one call
        return None
    return int(np.logical_and.reduce(finite, axis=(-2, -1)).argmin())


def _stacked(arrays) -> np.ndarray:
    """Equal-shaped arrays on a new leading axis, in one copy; a lone array as a view."""
    if len(arrays) == 1:
        return arrays[0][None]
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


_ARRAYS = ("z", "z_prev", "grad", "grad_prev", "tracker")


def stack_states(states) -> AlgoState:
    """Several states as one: each array gains a leading state axis (K x n x (p+d))
    and iteration becomes a tuple.  The metrics take such a stack wherever
    they take a state."""
    return AlgoState(*(_stacked([getattr(s, name) for s in states]) for name in _ARRAYS),
                     iteration=tuple(s.iteration for s in states))


def _record_stack(pending) -> AlgoState:
    """The pending rows of one batch or more, (states, residuals, stacks)
    each, as one stack of states.

    A batch recorded whole brings ``stacks``, the stacks its stop rule made:
    zs, its z after its first state's z_prev (a step's z_prev is the z
    before it, so state i's z_prev is row i of zs and its z row i + 1), and
    its trackers, None where the stop rule did not stack them (the methods
    without tracking).  Its record stack is made of them and of one stack
    of its gradients, shifted by a state as z is.  Rows of batches recorded
    in part (a sparser record grid) are stacked from the states' own arrays,
    once for all the pending batches, so no batch's stacks are held past it.
    """
    states = [s for recorded, _, _ in pending for s in recorded]
    stacks = pending[0][2]
    if len(pending) > 1 or stacks is None:
        return stack_states(states)
    zs, trackers = stacks
    k = len(states)
    grads = _stacked([states[0].grad_prev, *(s.grad for s in states)])
    if trackers is None:
        trackers = _stacked([s.tracker for s in states])
    return AlgoState(zs[1:k + 1], zs[:k], grads[1:], grads[:-1], trackers,
                     iteration=tuple(s.iteration for s in states))


def _same_arrays(a: AlgoState, b: AlgoState) -> bool:
    """Whether two states hold the same five arrays bit for bit, compared as
    int64 so that -0.0 and +0.0 differ."""
    return all(np.array_equal(getattr(a, name).view(np.int64), getattr(b, name).view(np.int64))
               for name in _ARRAYS)


def _fixed_point(states, residuals) -> int | None:
    """The first iteration whose state equals the one before it, when the
    last two of ``states`` (consecutive, each with its residual) are equal;
    None otherwise.  Equal states have equal residuals, so a pair's arrays
    are compared only where its residuals agree."""
    k = len(states) - 1
    while k > 0 and residuals[k] == residuals[k - 1] and _same_arrays(states[k], states[k - 1]):
        k -= 1
    return None if k == len(states) - 1 else states[k].iteration + 1


# run() tests and records its states in batches of at most _BATCH_STATES
# states whose stack of five arrays comes to at most _BATCH_BYTES: few
# enough that the states held stay small, enough to spread each call's fixed
# cost over many states.  That is 51 states at ring-16 and 8 at n = 1024;
# past 51 the per-batch calls are a small share of the steps', and a tol
# stop would only step further past itself.
_BATCH_BYTES = 5 << 18      # 1.25 MiB
_BATCH_STATES = 51


def run(kind: str, problem: BilinearQuadratic, mixing: MixingMatrix | AcceleratedExchange,
        gamma: float, z0, max_iters: int, tol: float, record_every: int = 1) -> Trace:
    """Drive one algorithm until the residual drops to tol or iterations run out.

    ``mixing`` is what each step mixes with: W for dgda, dogda and dogt,
    ``accelerated_matrix(W, T)`` for adogt; another pairing raises
    ValueError.  The record table gets a row for iteration 0, every
    ``record_every`` iterations, and the final iterate; at ``record_every``
    1, as ``verify`` runs, row k is iteration k.  It doubles as rows arrive,
    so a run that stops early does not pay for ``max_iters``.

    The states are stepped in batches of at most _BATCH_STATES states and
    about _BATCH_BYTES (51 at ring-16, 8 at n = 1024), held by reference,
    since they share their arrays.  A full batch, or one that reaches
    ``max_iters``, is tested at once: one ``residual`` call on the stacked z
    for the stop rule, and one finiteness test of the stacked z (and
    tracker) for divergence.  The first state with residual <= tol ends the
    run, and the states stepped after it in its batch, at most batch - 1,
    are dropped.  A non-finite state before that raises.  The rows to
    record, each with the residual the stop rule took, wait until a batch
    of them is full, or the run ends, and are then evaluated on their stack
    in one ``metric_record`` call, so a sparse record grid costs few calls.
    Where every state of a batch is recorded (record_every 1, as ``verify``
    runs), their stack is the stop rule's, with z_prev and grad_prev the z
    and grad stacks shifted by one state (``_record_stack``).  All of it
    gives the values state-by-state calls would, bit for bit.  The
    comm_rounds column is filled once, as the run returns: each row's
    iteration times the mix's ``rounds``.

    A step is a pure function of a state's five arrays (``iteration`` never
    enters it), so once a state equals the one before it, bit for bit,
    every later state holds the same arrays.  After a batch passes both
    tests, ``run`` compares its last state with the one before it: the five
    arrays as int64, and only when their two residuals are equal, so a
    batch that moves costs one float comparison.  At a fixed point it stops
    stepping and finishes the trace from that state:
    the table is sized to its final length at once, and the state's row,
    computed once, is copied to the rest of the record grid and the final
    row, each with its own iteration.  ``reason`` stays "max_iters", and
    ``Trace.fixed_point`` holds the first iteration equal to its
    predecessor.  Limit cycles of a longer period are stepped through.

    Raises DivergenceError at the first non-finite iterate (or tracker)
    before the stop; its initial state is not checked, so a non-finite z0
    raises at iteration 1.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    if tol < 0.0 or np.isnan(tol):
        raise ValueError(f"tol must be nonnegative, got {tol}")

    rho_eff = mixing.rho
    L = problem.smoothness_constant()
    z_star = problem.saddle_point()
    tracking = kind in TRACKING_ALGORITHMS
    n, width = problem.n, problem.p + problem.d
    # z* on every row, so the residual's subtraction is one contiguous loop.
    z_star_rows = np.tile(z_star, (n, 1))
    # Five float64 arrays a state; one state a batch at least.
    batch = max(1, min(_BATCH_STATES, _BATCH_BYTES // (5 * 8 * n * width)))
    table = metrics.record_table(batch, width)
    filled = 0          # rows of the table filled so far
    # (states, residuals, stacks) of each batch's rows to record, not yet
    # evaluated; stacks are the stop rule's, of a batch recorded whole.
    pending = []

    def flush():
        """Evaluate the pending rows into the next rows of the table, in one call."""
        nonlocal table, filled
        if pending:
            residuals = np.concatenate([r for _, r, _ in pending])
            end = filled + len(residuals)
            while end > len(table):
                table = np.concatenate([table, np.empty_like(table)])
            metrics.metric_record(table[filled:end], _record_stack(pending), residuals, gamma, L,
                                  rho_eff, z_star)
            filled = end
            pending.clear()

    def evaluate(kept):
        """Test a batch of consecutive states and queue the rows it records.

        Returns whether one of them met the stop rule, after which ``kept``
        ends with it, and their residuals."""
        # The batch's z after its first state's z_prev: a step's z_prev is the
        # z before it, so state i's z_prev is row i and its z row i + 1.
        zs = _stacked([kept[0].z_prev, *(s.z for s in kept)])
        residuals = metrics.residual(zs[1:], z_star_rows)
        hits = (residuals <= tol).nonzero()[0]
        stop = len(hits) > 0
        if stop:
            del kept[hits[0] + 1:]
        trackers = _stacked([s.tracker for s in kept]) if tracking else None
        first = 1 if kept[0].iteration == 0 else 0      # z0 itself is not checked
        if len(kept) > first:
            bad = _first_nonfinite(zs[1 + first:len(kept) + 1],
                                   None if trackers is None else trackers[first:])
            if bad is not None:
                raise DivergenceError(kept[first + bad].iteration)
        # The record grid, and the final state: the stop or max_iters.
        final = stop or kept[-1].iteration == max_iters
        rows = list(range(-kept[0].iteration % record_every, len(kept), record_every))
        if final and kept[-1].iteration % record_every:
            rows.append(len(kept) - 1)
        if rows:
            pending.append(([kept[i] for i in rows], residuals[rows],
                            (zs, trackers) if len(rows) == len(kept) else None))
        if sum(len(r) for _, r, _ in pending) >= batch or final:
            flush()
        return stop, residuals

    def fast_forward(state, residual) -> None:
        """Record iterations state.iteration + 1 .. max_iters, whose states all
        hold the arrays of ``state``, from its one row."""
        nonlocal table, filled
        flush()
        last = state.iteration
        grid = np.arange(last + record_every - last % record_every, max_iters + 1,
                         record_every)
        if not len(grid) or grid[-1] != max_iters:
            grid = np.append(grid, max_iters)
        # The final length in one allocation: no doubling, no second copy.
        sized = metrics.record_table(filled + len(grid), width)
        sized[:filled] = table[:filled]
        table = sized
        rest = table[filled:]
        metrics.metric_record(rest[:1], stack_states([state]), residual, gamma, L, rho_eff,
                              z_star)
        rest[1:] = rest[0]
        rest["iteration"] = grid
        filled += len(grid)

    reason, fixed_point = "max_iters", None
    # States are tested after they are stepped, so float overflow on the way
    # to a non-finite one is expected, not noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # The last state tested before this batch, and its residual; before
        # the first batch none, with a NaN residual, which equals nothing.
        kept, before, before_residual = [], None, math.nan
        for state in _states(kind, problem, mixing, gamma, z0):
            kept.append(state)
            if len(kept) == batch or state.iteration == max_iters:
                stop, residuals = evaluate(kept)
                if stop:
                    reason = "tol_reached"
                    break
                if state.iteration == max_iters:
                    break
                if residuals[-1] == (residuals[-2] if len(kept) > 1 else before_residual):
                    fixed_point = _fixed_point([before, *kept],
                                               [before_residual, *residuals.tolist()])
                    if fixed_point is not None:
                        fast_forward(state, residuals[-1])
                        break
                before, before_residual = state, residuals[-1]
                kept = []

    records = table[:filled].view(np.recarray)
    records["comm_rounds"] = records["iteration"] * mixing.rounds
    return Trace(gamma=gamma, problem=problem, mixing=mixing, records=records, reason=reason,
                 fixed_point=fixed_point)
