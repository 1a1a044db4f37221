"""The four decentralized saddle-point methods as one update rule, stepped on state buffers.

Every step of every method is one update of n x (p+d) arrays; the methods
differ only in the direction d and the mix:

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
therefore keeps the exact column-average identity mean(r) = mean(G).  The
methods without tracking keep r at zero.

A run is given what it mixes with, built once by its caller, and reads the
rounds each mix counts from the same object: for dgda, dogda and dogt a
``MixingMatrix`` (W m, the dense product or a gather over the nonzeros of W
on sparse graphs, one round); for adogt the ``graph.accelerated_matrix``
exchange (M_T m: one product by M_T, built on its first use, where W mixes
dense, below a few hundred nodes; where W gathers, T rounds, and no n x n
matrix enters a step).  Any other pairing is rejected.

``run`` keeps its states in three stacks allocated once per run, Z, G and R
(iterates, gradients, trackers), of K + 2 slots each, the state axis
leading: (K + 2) x n x (p+d).  A slot holds the z, grad and tracker of one
state, and that state's z_prev and grad_prev are the z and grad of the slot
before it, so no array is held twice.  A batch of K states occupies slots
2..K+1.  Slots 0 and 1 hold the two states before it: slot 1 gives the
batch's first z_prev and grad_prev, and slot 0 those of slot 1, which the
fixed-point test reads.  After a batch a roll copies slots K and K + 1 to 0
and 1.  The first batch starts with iteration 0 in slot 2, and slot 1 holds
z0 and G(z0) as its z_prev and grad_prev.

A step, ``<kind>_step(i, zs, gs, rs, d, mix, gamma, problem)``, fills slot i
from slots i - 1 and i - 2.  zs, gs and rs are lists of the stacks' slots,
made once per run (indexing a list is cheaper than indexing an ndarray), d
is a work n x (p+d) array, and ``mix(m, out)`` writes the mix of m into
``out``.  Every product goes straight into its slot (``out=``).  A step is
arithmetic only: it neither checks its result nor sets NumPy's error state,
so a step from a non-finite state is an ordinary step.  The tests of a state
(the stop rule and the divergence check) are made on a whole batch's slots
at once, the rows ``run`` records are filled from those slots into its one
record table (``metrics.record_table``), and ``run`` stops stepping at a
fixed point of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import metrics
# Unused here; the benchmark's tracer wraps accelerated_matrix by name in this module.
from .graph import AcceleratedExchange, CSRMix, MixingMatrix, accelerated_matrix  # noqa: F401
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
class Trace:
    """Recorded run: its record table and what it was run with.

    ``mixing`` is what every step mixed with: W, or adogt's exchange.
    ``records`` is a ``metrics.record_table``, as a numpy record array: a
    row per recorded state, computed with the run's own gamma, the mixing's
    rho and the problem's z*, L, mu and n, each read from the object that
    holds it.  A row is filled from the state's slot of the run's stacks
    and, for the terms that read z_prev and grad_prev (B and xi_sq), from
    the slot before it, which for a batch's first state is slot 1, filled
    by the roll (or, at iteration 0, holding z0 and G(z0)); no state object
    is kept.  ``iterations`` and ``comm_rounds`` are those of its last row,
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


def _mix_into(mixing: MixingMatrix | AcceleratedExchange):
    """``mixing.mix`` as m, out -> out = mix(m), for a run: the gather itself
    where W gathers, a product into ``out`` by W, or by adogt's M_T, where W
    mixes dense, and adogt's T gathered rounds copied into ``out``."""
    if isinstance(mixing.mix, CSRMix):
        return mixing.mix
    if isinstance(mixing, MixingMatrix):
        return partial(np.matmul, mixing.W)
    if isinstance(mixing.W.mix, CSRMix):
        return lambda m, out: np.copyto(out, mixing.mix(m))
    return partial(np.matmul, mixing.matrix)


def _step(i, zs, gs, rs, d, mix, problem, tracking: bool) -> None:
    """Fill slot i, given gamma times the direction in d, which it overwrites:
    z_i = mix(z_{i-1} - d), g_i = G(z_i) and, for a tracking method,
    r_i = mix(r_{i-1} + g_i - g_{i-1})."""
    z = zs[i]
    np.subtract(zs[i - 1], d, d)
    mix(d, z)
    g = stacked_gradient_field(problem, z, gs[i])
    if tracking:
        np.add(rs[i - 1], g, d)
        np.subtract(d, gs[i - 1], d)
        mix(d, rs[i])


def dgda_step(i, zs, gs, rs, d, mix, gamma: float, problem: BilinearQuadratic) -> None:
    """Plain distributed gradient descent ascent (adapt then combine)."""
    np.multiply(gamma, gs[i - 1], d)
    _step(i, zs, gs, rs, d, mix, problem, False)


def dogda_step(i, zs, gs, rs, d, mix, gamma: float, problem: BilinearQuadratic) -> None:
    """Distributed optimistic gradient descent ascent, no tracking."""
    np.multiply(2.0, gs[i - 1], d)
    np.subtract(d, gs[i - 2], d)
    np.multiply(gamma, d, d)
    _step(i, zs, gs, rs, d, mix, problem, False)


def dogt_step(i, zs, gs, rs, d, mix, gamma: float, problem: BilinearQuadratic) -> None:
    """One optimistic gradient-tracking update.

    The tracker replaces the raw local gradient in the z update, then
    absorbs the new-minus-old gradient difference; mixing both through the
    doubly stochastic W preserves mean(r) = mean(G) exactly.
    """
    np.add(rs[i - 1], gs[i - 1], d)
    np.subtract(d, gs[i - 2], d)
    np.multiply(gamma, d, d)
    _step(i, zs, gs, rs, d, mix, problem, True)


def adogt_step(i, zs, gs, rs, d, mix, gamma: float, problem: BilinearQuadratic) -> None:
    """dogt_step whose every exchange is adogt's, accelerated_matrix(W, T).

    It mixes with M_T and counts T communication rounds per iteration.
    Where W mixes dense, the exchange is one product by M_T; where W
    gathers, it is the T rounds of W.mix, which agree with the product up
    to rounding.
    """
    np.add(rs[i - 1], gs[i - 1], d)
    np.subtract(d, gs[i - 2], d)
    np.multiply(gamma, d, d)
    _step(i, zs, gs, rs, d, mix, problem, True)


def _first_nonfinite(z: np.ndarray, tracker: np.ndarray | None = None) -> int | None:
    """Index of the first state of a stack (K x n x (p+d)) whose z, or tracker
    when one is given, holds a NaN or an infinity; None if every state is finite."""
    finite = np.isfinite(z)
    if tracker is not None:
        finite &= np.isfinite(tracker)
    if np.logical_and.reduce(finite, axis=None):     # the common case, in one call
        return None
    return int(np.logical_and.reduce(finite, axis=(-2, -1)).argmin())


# The arrays of a stack of states, as metrics.metric_record reads them.
_STACK = ("z", "z_prev", "grad", "grad_prev", "tracker", "iteration")


def _slots(Z, G, R, rows, iterations) -> SimpleNamespace:
    """The states in the slots ``rows`` (a slice or an index array) as one stack:
    z, grad and tracker from those slots, z_prev and grad_prev from the slot
    before each.  A slice gives views, an index array copies."""
    prev = slice(rows.start - 1, rows.stop - 1) if isinstance(rows, slice) else rows - 1
    return SimpleNamespace(z=Z[rows], z_prev=Z[prev], grad=G[rows], grad_prev=G[prev],
                           tracker=R[rows], iteration=iterations)


def _equal_since(Z, G, R, residuals, last: int) -> int:
    """The first slot s of the run of states, ending in slot ``last``, each
    equal to the state before it, bit for bit; ``last`` when its state differs
    from the one before.  ``residuals[s]`` is slot s's residual, from slot 1
    on.  A state equals the one before when its z, z_prev, grad and grad_prev
    (two slots of Z and of G) and its tracker equal those, compared as int64 so
    that -0.0 and +0.0 differ, and only where the two residuals are equal.  The
    walk ends at slot 1, the last state of the batch before."""
    def equal(A, s, width):
        return np.array_equal(A[s - width + 1:s + 1].view(np.int64),
                              A[s - width:s].view(np.int64))

    s = last
    while (s > 1 and residuals[s] == residuals[s - 1]
           and equal(Z, s, 2) and equal(G, s, 2) and equal(R, s, 1)):
        s -= 1
    return s


# run() steps and tests its states in batches of at most _BATCH_STATES
# states whose five arrays (z, z_prev, grad, grad_prev and tracker, as a
# record stack holds them) come to at most _BATCH_BYTES: few enough that its
# buffers stay small, enough to spread each call's fixed cost over many
# states.  That is 51 states at ring-16 and 8 at n = 1024; past 51 the
# per-batch calls are a small share of the steps', and a tol stop would only
# step further past itself.
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

    The states are stepped into the slots of the run's stacks (see the
    module docstring) in batches of K = at most _BATCH_STATES states and
    about _BATCH_BYTES (51 at ring-16, 8 at n = 1024), the first batch
    from iteration 0.  The module's ``<kind>_step`` is looked up as the run
    starts and called once per step.  A full batch, or one that reaches
    ``max_iters``, is tested at once: one ``residual`` call on its z slots
    for the stop rule, and one finiteness test of the slots it stepped, z
    and (for dogt and adogt) tracker, for divergence.  The first state with
    residual <= tol ends the run, and the states stepped after it in its
    batch, at most K - 1, are dropped.  A non-finite state before that
    raises.  The rows to record, each with the residual the stop rule took,
    wait until a batch of them is full, or the run ends, and are then
    evaluated on their stack in one ``metric_record`` call, so a sparse
    record grid costs few calls.  A batch recorded whole (record_every 1,
    as ``verify`` runs) is recorded from views of its slots, with z_prev
    and grad_prev the slots shifted by one; the rows of a batch recorded in
    part are copied out of the slots before the next batch overwrites them.
    All of it gives the values state-by-state calls would, bit for bit.
    The comm_rounds column is filled once, as the run returns: each row's
    iteration times the mix's ``rounds``.

    A step is a pure function of a state's five arrays (z, z_prev, grad,
    grad_prev, tracker), so once a state equals the one before it, bit for
    bit, every later state holds the same arrays.  After a batch passes
    both tests and before the roll, ``run`` compares its last state with
    the one before it, only when their two residuals are equal, so a batch
    that moves costs one float comparison.  At a fixed point it stops
    stepping and finishes the trace from that state: the table is sized to
    its final length at once, and the state's row, computed once, is copied
    to the rest of the record grid and the final row, each with its own
    iteration.  ``reason`` stays "max_iters", and ``Trace.fixed_point``
    holds the first iteration equal to its predecessor.  Limit cycles of a
    longer period are stepped through.

    Raises DivergenceError at the first non-finite iterate (or tracker)
    before the stop; its initial state is not checked, so a non-finite z0
    raises at iteration 1.
    """
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {kind!r}, expected one of {ALGORITHMS}")
    wanted = AcceleratedExchange if kind == "adogt" else MixingMatrix
    if not isinstance(mixing, wanted):
        raise ValueError(f"{kind} mixes with a {wanted.__name__}, "
                         f"got a {type(mixing).__name__}")
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
    step = {"dgda": dgda_step, "dogda": dogda_step, "dogt": dogt_step,
            "adogt": adogt_step}[kind]
    mix = _mix_into(mixing)
    n, width = problem.n, problem.p + problem.d
    # z* on every row, so the residual's subtraction is one contiguous loop.
    z_star_rows = np.tile(z_star, (n, 1))
    # Five float64 arrays a state; one state a batch at least.
    batch = max(1, min(_BATCH_STATES, _BATCH_BYTES // (5 * 8 * n * width)))
    Z = np.empty((batch + 2, n, width))
    G = np.empty_like(Z)
    R = np.empty_like(Z) if tracking else np.zeros_like(Z)
    zs, gs, rs = list(Z), list(G), list(R)
    d = np.empty((n, width))
    Z[1] = Z[2] = stacked_array(problem, z0)
    stacked_gradient_field(problem, zs[2], gs[2])
    G[1] = G[2]
    if tracking:
        R[2] = G[2]
    table = metrics.record_table(batch, width)
    filled = 0          # rows of the table filled so far
    pending = []        # (residuals, stack) of each batch's rows to record, not yet evaluated

    def flush():
        """Evaluate the pending rows into the next rows of the table, in one call."""
        nonlocal table, filled
        if pending:
            residuals = np.concatenate([r for r, _ in pending])
            stack = pending[0][1] if len(pending) == 1 else SimpleNamespace(**{
                name: np.concatenate([getattr(s, name) for _, s in pending])
                for name in _STACK})
            end = filled + len(residuals)
            while end > len(table):
                table = np.concatenate([table, np.empty_like(table)])
            metrics.metric_record(table[filled:end], stack, residuals, gamma, L, rho_eff, z_star)
            filled = end
            pending.clear()

    def fast_forward(slot, last, residual) -> None:
        """Record iterations last + 1 .. max_iters, whose states all hold the
        arrays of the state in ``slot``, at iteration ``last``, from its one row."""
        nonlocal table, filled
        flush()
        grid = np.arange(last + record_every - last % record_every, max_iters + 1,
                         record_every)
        if not len(grid) or grid[-1] != max_iters:
            grid = np.append(grid, max_iters)
        # The final length in one allocation: no doubling, no second copy.
        sized = metrics.record_table(filled + len(grid), width)
        sized[:filled] = table[:filled]
        table = sized
        rest = table[filled:]
        metrics.metric_record(rest[:1], _slots(Z, G, R, slice(slot, slot + 1), (last,)),
                              residual, gamma, L, rho_eff, z_star)
        rest[1:] = rest[0]
        rest["iteration"] = grid
        filled += len(grid)

    reason, fixed_point = "max_iters", None
    start, first = 0, 3     # the iteration in slot 2, and the first slot stepped
    before = math.nan       # the residual of slot 1's state, which equals nothing at first
    # States are tested after they are stepped, so float overflow on the way
    # to a non-finite one is expected, not noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k = min(batch, max_iters + 1 - start)       # the batch's states, slots 2..k+1
            for i in range(first, k + 2):
                step(i, zs, gs, rs, d, mix, gamma, problem)
            residuals = metrics.residual(Z[2:k + 2], z_star_rows)
            hits = (residuals <= tol).nonzero()[0]
            stop = len(hits) > 0
            if stop:
                k = int(hits[0]) + 1
            if k + 2 > first:           # z0 itself is not checked
                bad = _first_nonfinite(Z[first:k + 2], R[first:k + 2] if tracking else None)
                if bad is not None:
                    raise DivergenceError(start + first - 2 + bad)
            last = start + k - 1
            # The record grid, and the final state: the stop or max_iters.
            final = stop or last == max_iters
            rows = list(range(-start % record_every, k, record_every))
            if final and last % record_every:
                rows.append(k - 1)
            # A batch recorded whole is flushed in this batch (its k rows fill
            # a batch, or it is the last), so views of its slots suffice.
            if len(rows) == k:
                pending.append((residuals[:k], _slots(Z, G, R, slice(2, k + 2),
                                                      np.arange(start, last + 1))))
            elif rows:
                at = np.array(rows)
                pending.append((residuals[at], _slots(Z, G, R, at + 2, start + at)))
            if sum(len(r) for r, _ in pending) >= batch or final:
                flush()
            if stop:
                reason = "tol_reached"
            if final:
                break
            if residuals[-1] == (residuals[-2] if k > 1 else before):
                s = _equal_since(Z, G, R, [math.nan, before, *residuals.tolist()], k + 1)
                if s < k + 1:
                    fixed_point = start + s - 1
                    fast_forward(k + 1, last, residuals[-1])
                    break
            Z[:2], G[:2], R[:2] = Z[k:], G[k:], R[k:]
            before = residuals[-1]
            start, first = last + 1, 2

    records = table[:filled].view(np.recarray)
    records["comm_rounds"] = records["iteration"] * mixing.rounds
    return Trace(gamma=gamma, problem=problem, mixing=mixing, records=records, reason=reason,
                 fixed_point=fixed_point)
