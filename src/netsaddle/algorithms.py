"""The four decentralized saddle-point methods as one update rule, stepped on state buffers.

Every step of every method is one update of n x (p+d) arrays; the methods
differ only in the direction d and the mix:

  z+ = mix(z - gamma d),   and for the tracking methods   r+ = mix(r + G(z+) - G(z))

  method  direction d                 mix                          tracking
  dgda    G(z)                        W m                          no
  dogda   2 G(z) - G(z_prev)          W m                          no
  dogt    r + G(z) - G(z_prev)        W m                          yes
  adogt   r + G(z) - G(z_prev)        M_T m, T exchanges           yes

adogt is dogt over adogt's exchange: ``adogt_step`` is ``dogt_step``, and
the two differ only in what ``run`` is given to mix with.

G is the sign-flipped stacked gradient field, so primal descent and dual
ascent are the same subtraction.  Gradients are evaluated at the mixed
iterates (the states the averaged dynamics and the energy-decay guarantees
are stated for); the tracker r is seeded with the initial gradients and
therefore keeps the exact column-average identity mean(r) = mean(G).  The
methods without tracking keep r at zero.

A run is given what it mixes with, built once by its caller, and reads the
rounds each mix counts from the same object: for dgda, dogda and dogt a
``MixingMatrix`` (W m, one round); for adogt the ``graph.accelerated_matrix``
exchange (M_T m, T rounds).  Any other pairing is rejected.  Each step
mixes with the object's own ``mix(m, out)`` (see ``graph``).

``run`` keeps its states in three stacks allocated once per run, Z, G and R
(iterates, gradients, trackers), of K + 2 slots each, the state axis
leading: (K + 2) x n x (p+d), held as one 3 x (K + 2) x n x (p+d) array so
that a copy of z, grad and tracker out of some slots is one call.  A slot
holds the z, grad and tracker of one state, and that state's z_prev and
grad_prev are the z and grad of the slot before it, so no array is held
twice.  A batch of K states occupies slots 2..K+1.  Slots 0 and 1 hold the
two states before it: slot 1 gives the batch's first z_prev and grad_prev,
and slot 0 those of slot 1, which the fixed-point test reads.  After a
batch a roll copies slots K and K + 1 to 0 and 1.  The first batch starts
with iteration 0 in slot 2, and slot 1 holds z0 and G(z0) as its z_prev
and grad_prev.

A step, ``<kind>_step(i, zs, gs, rs, d, mix, gamma, problem)``, fills slot i
from slots i - 1 and i - 2 in one function body.  zs, gs and rs are lists of
the stacks' slots, made once per run (indexing a list is cheaper than
indexing an ndarray), d is a work n x (p+d) array, ``mix(m, out)``, the
run's ``mixing.mix``, writes the mix of m into ``out``, and gamma is the
stepsize as a 0-d float64 array: NumPy multiplies by an array operand
faster than by a Python float (about 0.38 against 0.55 us at n = 16), to
the same bits.  A float gamma gives the same slots.  Every product goes
straight into its slot (``out=``), the field through
``stacked_gradient_field``, looked up on this module at each call (the
benchmark's tracer wraps it there, as it wraps the steps).
A step is arithmetic only: it neither checks its result nor sets NumPy's
error state, so a step from a non-finite state is an ordinary step.

The tests of a state (the stop rule and the divergence check) are made on
a whole batch's slots at once.  The stop rule's residuals come first: a
residual is a sum of squares of z - z*, so a finite one proves its z
finite, and the z stack is tested for NaN and infinity only when some
residual is not (an overflow, or a divergence).  The tracker stack of dogt
and adogt is always tested.  The rows ``run`` records are filled from the
slots into its one record table (``metrics.record_table``), and ``run``
stops stepping at a fixed point of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import metrics
# Unused here; the benchmark's tracer wraps accelerated_matrix by name in this module.
from .graph import AcceleratedExchange, MixingMatrix, accelerated_matrix  # noqa: F401
from .problem import BilinearQuadratic, stacked_array, stacked_gradient_field

ALGORITHMS = ("dgda", "dogda", "dogt", "adogt")
TRACKING_ALGORITHMS = ("dogt", "adogt")


class DivergenceError(RuntimeError):
    """An iterate became NaN/Inf; carries the iteration where it happened.

    Its only argument is the iteration, and its message is built from it, so
    it survives ``pickle`` and ``copy`` (which rebuild it from its args)."""

    def __init__(self, iteration: int):
        super().__init__(iteration)
        self.iteration = iteration

    def __str__(self) -> str:
        return (f"non-finite iterate at iteration {self.iteration} "
                "(stepsize too large for this problem/graph?)")


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
    def iterations(self) -> int:
        return int(self.records["iteration"][-1])

    @property
    def comm_rounds(self) -> int:
        return int(self.records["comm_rounds"][-1])


def dgda_step(i, zs, gs, rs, d, mix, gamma: np.ndarray, problem: BilinearQuadratic) -> None:
    """Plain distributed gradient descent ascent (adapt then combine):
    z_i = mix(z_{i-1} - gamma g_{i-1}), g_i = G(z_i)."""
    np.multiply(gamma, gs[i - 1], d)
    np.subtract(zs[i - 1], d, d)
    z = zs[i]
    mix(d, z)
    stacked_gradient_field(problem, z, gs[i])


def dogda_step(i, zs, gs, rs, d, mix, gamma: np.ndarray, problem: BilinearQuadratic) -> None:
    """Distributed optimistic gradient descent ascent, no tracking:
    z_i = mix(z_{i-1} - gamma (2 g_{i-1} - g_{i-2})), g_i = G(z_i).  2 g is
    formed as g + g, the same bits as 2.0 * g for every input."""
    g = gs[i - 1]
    np.add(g, g, d)
    np.subtract(d, gs[i - 2], d)
    np.multiply(gamma, d, d)
    np.subtract(zs[i - 1], d, d)
    z = zs[i]
    mix(d, z)
    stacked_gradient_field(problem, z, gs[i])


def dogt_step(i, zs, gs, rs, d, mix, gamma: np.ndarray, problem: BilinearQuadratic) -> None:
    """One optimistic gradient-tracking update, dogt's over W and adogt's over M_T:
    z_i = mix(z_{i-1} - gamma (r_{i-1} + g_{i-1} - g_{i-2})), g_i = G(z_i),
    r_i = mix(r_{i-1} + g_i - g_{i-1}).

    The tracker replaces the raw local gradient in the z update, then
    absorbs the new-minus-old gradient difference; mixing both through a
    doubly stochastic W or M_T preserves mean(r) = mean(G) exactly.
    """
    r = rs[i - 1]
    g = gs[i - 1]
    np.add(r, g, d)
    np.subtract(d, gs[i - 2], d)
    np.multiply(gamma, d, d)
    np.subtract(zs[i - 1], d, d)
    z = zs[i]
    mix(d, z)
    np.add(r, stacked_gradient_field(problem, z, gs[i]), d)
    np.subtract(d, g, d)
    mix(d, rs[i])


# adogt is dogt whose every exchange is accelerated_matrix(W, T); the name
# stays, since run() looks it up and the benchmark's tracer wraps it.
adogt_step = dogt_step


def _first_nonfinite(*stacks: np.ndarray) -> int | None:
    """Index of the first state at which one of the given stacks (each
    K x n x (p+d)) holds a NaN or an infinity; None if every state is finite."""
    finite = np.isfinite(stacks[0])
    for stack in stacks[1:]:
        finite &= np.isfinite(stack)
    if np.logical_and.reduce(finite, axis=None):     # the common case, in one call
        return None
    return int(np.logical_and.reduce(finite, axis=(-2, -1)).argmin())


def _slots(Z, G, R, rows, iterations) -> SimpleNamespace:
    """The states in the slots ``rows`` (a slice) as one stack of views: z,
    grad and tracker from those slots, z_prev and grad_prev from the slot
    before each."""
    prev = slice(rows.start - 1, rows.stop - 1)
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
    starts and called once per step, with gamma as a 0-d array.  A full
    batch, or one that reaches ``max_iters``, is tested at once: one
    ``residual`` call on its z slots for the stop rule, and a finiteness
    test of the slots it stepped for divergence: of the z slots only when a
    residual is not finite, and for dogt and adogt of the tracker slots.
    The first state with residual <= tol ends the run, and the states
    stepped after it in its batch, at most K - 1, are dropped.  A
    non-finite state before that raises.  At ``record_every`` 1, as
    ``verify`` runs, a batch's rows are evaluated from views of its slots,
    with z_prev and grad_prev the slots shifted by one, in one
    ``metric_record`` call.  At a sparser grid the rows of a batch on it,
    and the final state's, are copied out of the slots, in two copies, into
    a stack of K rows held for the next call, which is made when the next
    batch's rows would not fit or the run ends, so a sparse record grid
    costs few calls.  Each row has the residual the stop rule took.  All of
    it gives the values state-by-state calls would, bit for bit.  The
    comm_rounds column is filled once, as the run returns: each row's
    iteration times the mix's ``rounds``.

    A step is a pure function of a state's five arrays (z, z_prev, grad,
    grad_prev, tracker), so once a state equals the one before it, bit for
    bit, every later state holds the same arrays.  After a batch passes
    both tests and before the roll, ``run`` compares its last state with
    the one before it, only when their two residuals are equal, so a batch
    that moves costs one float comparison.  At a fixed point it stops
    stepping and finishes the trace from that state: its row is evaluated
    once, as the next grid row, like any other, and repeated, in one
    ``np.repeat``, for the rest of the grid and the final row, each with its
    own iteration.  ``reason`` stays "max_iters", and ``Trace.fixed_point``
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
    if not 0.0 < gamma < math.inf:
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
    mix = mixing.mix
    # A step multiplies by gamma as a 0-d array: the same bits as by the
    # float, through NumPy's cheaper path for an array operand.
    step_gamma = np.array(gamma, dtype=np.float64)
    n, width = problem.n, problem.p + problem.d
    # z* on every row, so the residual's subtraction is one contiguous loop.
    z_star_rows = np.tile(z_star, (n, 1))
    # Five float64 arrays a state; one state a batch at least.
    batch = max(1, min(_BATCH_STATES, _BATCH_BYTES // (5 * 8 * n * width)))
    # The three stacks as one array, so that a roll, or a copy of z, grad
    # and tracker out of some slots, is one call.
    ZGR = np.empty((3, batch + 2, n, width))
    Z, G, R = ZGR
    if not tracking:
        R.fill(0.0)
    zs, gs, rs = list(Z), list(G), list(R)
    d = np.empty((n, width))
    Z[1] = Z[2] = stacked_array(problem, z0)
    stacked_gradient_field(problem, zs[2], gs[2])
    G[1] = G[2]
    if tracking:
        R[2] = G[2]
    table = metrics.record_table(batch, width)
    filled = 0          # rows of the table filled so far
    if record_every > 1:
        # The rows of batches recorded in part wait here, copied out of the
        # slots, until the next batch's would not fit or the run ends: z,
        # grad and tracker, then z_prev and grad_prev, of each.
        held = np.empty((5, batch, n, width))
        held_residuals = np.empty(batch)
        held_iterations = np.empty(batch, dtype=np.int64)
    count = 0           # rows held

    def record(stack, residuals) -> None:
        """Evaluate a stack's rows into the next rows of the table, in one call."""
        nonlocal table, filled
        end = filled + len(residuals)
        while end > len(table):
            table = np.concatenate([table, np.empty_like(table)])
        metrics.metric_record(table[filled:end], stack, residuals, gamma, L, rho_eff, z_star)
        filled = end

    def flush() -> None:
        """Evaluate the held rows."""
        nonlocal count
        if count:
            z, grad, tracker, z_prev, grad_prev = held[:, :count]
            record(SimpleNamespace(z=z, z_prev=z_prev, grad=grad, grad_prev=grad_prev,
                                   tracker=tracker, iteration=held_iterations[:count]),
                   held_residuals[:count])
            count = 0

    def fast_forward(slot, last, residuals) -> None:
        """Record iterations last + 1 .. max_iters, whose states all hold the
        arrays of the state in ``slot``, at iteration ``last``, as copies of
        its one row, which ``residuals`` (its residual alone) goes into."""
        nonlocal table, filled
        flush()
        grid = np.arange(last + record_every - last % record_every, max_iters + 1,
                         record_every)
        if not len(grid) or grid[-1] != max_iters:
            grid = np.append(grid, max_iters)
        record(_slots(Z, G, R, slice(slot, slot + 1), grid[:1]), residuals)
        # Every row once and the new one len(grid) times: the final table in
        # one allocation.
        repeats = np.ones(filled, dtype=np.intp)
        repeats[-1] = len(grid)
        table = np.repeat(table[:filled], repeats)
        table["iteration"][filled:] = grid[1:]
        filled = len(table)

    reason, fixed_point = "max_iters", None
    start, first = 0, 3     # the iteration in slot 2, and the first slot stepped
    before = math.nan       # the residual of slot 1's state, which equals nothing at first
    # States are tested after they are stepped, so float overflow on the way
    # to a non-finite one is expected, not noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k = min(batch, max_iters + 1 - start)       # the batch's states, slots 2..k+1
            for i in range(first, k + 2):
                step(i, zs, gs, rs, d, mix, step_gamma, problem)
            residuals = metrics.residual(Z[2:k + 2], z_star_rows)
            hits = (residuals <= tol).nonzero()[0]
            stop = len(hits) > 0
            if stop:
                k = int(hits[0]) + 1
            if k + 2 > first:           # z0 itself is not checked
                # A finite residual is a sum of finite squares, so finite
                # residuals prove the z stack finite: z is tested only
                # otherwise, the tracker always.
                tested = ([] if math.isfinite(np.add.reduce(residuals[first - 2:k]))
                          else [Z[first:k + 2]])
                if tracking:
                    tested.append(R[first:k + 2])
                bad = _first_nonfinite(*tested) if tested else None
                if bad is not None:
                    raise DivergenceError(start + first - 2 + bad)
            last = start + k - 1
            # The record grid, and the final state: the stop or max_iters.
            final = stop or last == max_iters
            if record_every == 1:
                # Every state is recorded, from views of its slots, before
                # the next batch overwrites them.
                record(_slots(Z, G, R, slice(2, k + 2), np.arange(start, last + 1)),
                       residuals[:k])
            else:
                # The batch's states on the grid, and an off-grid final one.
                on_grid = slice(-start % record_every, k, record_every)
                for rows in ((on_grid, slice(k - 1, k)) if final and last % record_every
                             else (on_grid,)):
                    chosen = residuals[rows]
                    if count + len(chosen) > batch:
                        flush()
                    end = count + len(chosen)
                    held[:3, count:end] = ZGR[:, 2:k + 2][:, rows]
                    held[3:, count:end] = ZGR[:2, 1:k + 1][:, rows]
                    held_residuals[count:end] = chosen
                    held_iterations[count:end] = np.arange(start, last + 1)[rows]
                    count = end
                if final:
                    flush()
            if stop:
                reason = "tol_reached"
            if final:
                break
            if residuals[-1] == (residuals[-2] if k > 1 else before):
                s = _equal_since(Z, G, R, [math.nan, before, *residuals.tolist()], k + 1)
                if s < k + 1:
                    fixed_point = start + s - 1
                    fast_forward(k + 1, last, residuals[-1:])
                    break
            ZGR[:, :2] = ZGR[:, k:]
            before = residuals[-1]
            start, first = last + 1, 2

    records = table[:filled].view(np.recarray)
    records["comm_rounds"] = records["iteration"] * mixing.rounds
    return Trace(gamma=gamma, problem=problem, mixing=mixing, records=records, reason=reason,
                 fixed_point=fixed_point)
