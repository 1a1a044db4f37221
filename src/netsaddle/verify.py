"""Numerical checkers for the convergence theory along recorded trajectories.

Each check evaluates one guaranteed inequality over a whole trajectory, as
array arithmetic on the run's own record table of every step (a term at
steps 1..K against a bound from the terms at steps 0..K-1), and reports the
margins rhs - lhs.  Every term is read from that table, which the trace CSV
is written from, except e and E, the field at the averaged iterate: they
are computed here, once per trace, from its zbar column with
``metrics.field_at_average_sq``.  Under their stepsize preconditions
the inequalities are theorems, so a failing check flags an implementation
bug, not a tuning problem.  Checks whose stepsize precondition does not
hold are reported as precondition-violated, never as failed.

Check ids:
  L1_iterate_gap      one-step displacement bounded by lagged energy terms
  L2_consensus        consensus error contracts under mixing
  L3_tracking         tracker deviation contracts under mixing
  L4_optimality_gap   averaged optimality gap contracts at rate 1 - 3*gamma*mu/4
  T1_contraction      the composite Lyapunov value contracts per step
  T2_rho_M            accelerated-matrix gap obeys its analytic bound
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import metrics
from .graph import RHO_M_TARGET, MixingMatrix, accelerated_matrix
from .metrics import max_stepsize, theoretical_contraction

LEMMA_IDS = ("L1_iterate_gap", "L2_consensus", "L3_tracking",
             "L4_optimality_gap", "T1_contraction", "T2_rho_M")

MARGIN_RTOL = 1e-9
# e and E are computed on blocks of zbar rows whose field, n x (p+d) floats a
# row, takes at most this many bytes, so their memory stays flat in the run's
# length: 128 rows at ring-16, 2 at n = 1024.
_FIELD_BLOCK_BYTES = 1 << 16
# One margin of a check: the step it bounds (or T2's index) and rhs - lhs.
MARGIN_DTYPE = np.dtype([("iteration", np.int64), ("margin", np.float64)])


@dataclass(frozen=True, eq=False)
class LemmaCheckReport:
    """Margins of one inequality along a trajectory.

    ``margins`` is a MARGIN_DTYPE array, so reports compare by identity; a
    step passes when lhs is finite and its margin is at least -MARGIN_RTOL
    times the local scale max(|lhs|, |rhs|), which absorbs float noise when
    both sides are near zero.  A NaN margin (an overflowed side) fails.
    ``status`` is one of "passed", "failed", "precondition_violated".
    """

    lemma_id: str
    margins: np.ndarray
    min_margin: float
    status: str
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @classmethod
    def from_sides(cls, lemma_id: str, iterations, lhs, rhs, gated=True,
                   notes=()) -> "LemmaCheckReport":
        """Derive pass/fail from equal-length sequences of both sides.

        Entries whose ``gated`` flag is False are recorded as margins but do not
        affect the status (diagnostic quantities with no guarantee attached).
        """
        lhs = np.asarray(lhs, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        with np.errstate(invalid="ignore"):     # inf - inf is a NaN margin, which fails
            margin = rhs - lhs
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        failed = np.asarray(gated) & ~(np.isfinite(lhs) & (margin >= -MARGIN_RTOL * scale))
        margins = np.empty(len(margin), dtype=MARGIN_DTYPE)
        margins["iteration"], margins["margin"] = iterations, margin
        return cls(lemma_id=lemma_id, margins=margins,
                   min_margin=float(margin.min()) if margin.size else math.nan,
                   status="failed" if failed.any() else "passed",
                   notes=tuple(notes))

    @classmethod
    def precondition_violated(cls, lemma_id: str, note: str) -> "LemmaCheckReport":
        return cls(lemma_id=lemma_id, margins=np.empty(0, MARGIN_DTYPE), min_margin=math.nan,
                   status="precondition_violated", notes=(note,))


# The terms a bound may read that are not record columns, in the order
# field_at_average returns them.
_FIELD_TERMS = ("e", "E")


def field_at_average(trace) -> tuple[np.ndarray, np.ndarray]:
    """(e, E) at the zbar of every recorded row but the last (the steps a
    bound is taken at), by ``metrics.field_at_average_sq`` on blocks of
    rows of at most _FIELD_BLOCK_BYTES of field each."""
    problem, zbar = trace.problem, trace.records["zbar"][:-1]
    block = max(1, _FIELD_BLOCK_BYTES // (8 * zbar.shape[-1] * problem.n))
    e, E = np.empty(len(zbar)), np.empty(len(zbar))
    for start in range(0, len(zbar), block):
        e[start:start + block], E[start:start + block] = metrics.field_at_average_sq(
            problem, zbar[start:start + block])
    return e, E


# lemma id: (the term bounded at step k+1,
#             the largest stepsize the bound holds at, from (L, rho),
#             the bound from the terms at step k: (coefficient, term) pairs
#             from (gamma, L, mu, rho, n), summed in order).
# A term is a record column, or e or E, the field at the average.
_STEP_INEQUALITIES = {
    "L1_iterate_gap": (
        "B", lambda L, rho: math.inf,
        lambda g, L, mu, rho, n: ((4.0 * g * g * L * L, "B"), (4.0 + 8.0 * g * g * L * L, "C"),
                                  (8.0 * g * g, "D"), (8.0 * n * g * g, "e"))),
    "L2_consensus": (
        "C", lambda L, rho: 1.0 / (4.0 * L),
        lambda g, L, mu, rho, n: ((0.5 * (1.0 + rho), "C"),
                                  (2.0 * g * g * (1.0 + rho) * rho / (1.0 - rho), "D"),
                                  (2.0 * g * g * (1.0 + rho) * rho * L * L / (1.0 - rho), "B"))),
    "L3_tracking": (
        "D", lambda L, rho: 1.0 / (4.0 * L) if rho == 0.0 else min(
            1.0 / (4.0 * L), (1.0 - rho) / (8.0 * L * math.sqrt(rho))),
        lambda g, L, mu, rho, n: ((0.25 * (3.0 + rho), "D"),
                                  (8.0 * g * g * L ** 4 * rho / (1.0 - rho), "B"),
                                  (9.0 * L * L * rho / (1.0 - rho), "C"),
                                  (16.0 * n * g * g * L * L * rho / (1.0 - rho), "e"))),
    "L4_optimality_gap": (
        "xi_sq", lambda L, rho: 1.0 / (8.0 * L) if rho == 0.0 else min(
            1.0 / (8.0 * L), (1.0 - rho) / (8.0 * L * rho)),
        lambda g, L, mu, rho, n: ((1.0 - 0.75 * g * mu, "xi_sq"), (1.25 * g * g * L * L / n, "B"),
                                  (4.0 * g * L / n, "C"),
                                  (9.0 * g ** 3 * L * rho / (n * (1.0 - rho)), "D"),
                                  (-(g * g / (4.0 * n)), "E"))),
    "T1_contraction": (
        "V", max_stepsize,
        lambda g, L, mu, rho, n: ((theoretical_contraction(g, mu, rho), "V"),)),
}


def check_lemma(trace, lemma_id: str, field=None) -> LemmaCheckReport:
    """Evaluate one inequality at every step of a trace recorded at every step.

    The terms, and the constants the inequality is stated in, are the run's
    own (``Trace.records``, whose iterations must run 0..K with no gap, and
    ``Trace.problem``); T2_rho_M only needs the trace's mixing.  ``field`` is
    the trace's ``field_at_average``; when it is not given, it is computed
    here for the inequalities whose bound reads e or E (L1, L3 and L4) and
    not for the others (``run_all_checks`` computes it once for all
    checks).  A run that stopped at iteration 0 has no step to check: its
    report is precondition-violated.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}, expected one of {LEMMA_IDS}")
    if lemma_id == "T2_rho_M":
        # adogt's exchange is checked over its W at its rounds; W at T: auto's.
        return check_rho_M(trace.mixing if trace.T is None else trace.mixing.W, trace.T)

    records = trace.records
    if not np.array_equal(records["iteration"], np.arange(len(records))):
        raise ValueError("lemma checks need a record of every step (record_every=1)")
    if len(records) < 2:
        return LemmaCheckReport.precondition_violated(lemma_id, "no steps recorded")
    problem = trace.problem
    gamma, L, rho = trace.gamma, problem.smoothness_constant(), trace.rho
    bounded, stepsize_limit, bound = _STEP_INEQUALITIES[lemma_id]
    limit = stepsize_limit(L, rho)
    if gamma > limit * (1.0 + 1e-12):
        return LemmaCheckReport.precondition_violated(
            lemma_id, f"stepsize {gamma:.6g} exceeds this inequality's limit {limit:.6g}")

    pairs = bound(gamma, L, problem.mu, rho, problem.n)
    if field is None and any(term in _FIELD_TERMS for _, term in pairs):
        field = field_at_average(trace)
    rhs = reduce(np.add, [coefficient * (field[_FIELD_TERMS.index(term)] if term in _FIELD_TERMS
                                         else records[term][:-1])
                          for coefficient, term in pairs])
    return LemmaCheckReport.from_sides(lemma_id, records["iteration"][:-1],
                                       records[bounded][1:], rhs)


def check_rho_M(W: MixingMatrix, T: int | None = None) -> LemmaCheckReport:
    """Check the accelerated matrix's spectral gap at T rounds (default: the
    T of ``T: auto``, ``accelerated_matrix(W).rounds``).

    The operative guarantee is gated: at T: auto's T the gap must satisfy
    1 - rho_M >= 1/2 (margin 1).  That margin holds by construction, since
    ``T: auto`` stops at the first T whose rho_M is at most 1/2; it fails
    only if the search and the gap part ways.  The tests check rho_M at that
    T against a dense M_T.  rho_M is ``accelerated_matrix``'s: from W's
    closed-form spectrum, or on a random W by Lanczos over the exchange
    itself; another T than T: auto's takes one more evaluation of it.
    Margin 0 records the textbook-style envelope
    2 (1 - sqrt(1 - sqrt(rho_W)))^(2T) against
    rho_M, or 1 - rho_M when that envelope is vacuous (>= 1); both are
    diagnostic only, since the envelope's constant belongs to the unsquared
    deviation and the finite-round transient can exceed it (or even push
    rho_M past 1) without anything being wrong.
    """
    auto = accelerated_matrix(W)
    exchange = auto if T in (None, auto.rounds) else accelerated_matrix(W, T)
    T, rho_M = exchange.rounds, exchange.rho
    bound = 2.0 * (1.0 - math.sqrt(1.0 - math.sqrt(W.rho))) ** (2 * T)
    sides = [(0, rho_M, min(bound, 1.0), False)]  # (iteration, lhs, rhs, gated)
    if bound < 1.0:
        notes = [f"margin 0 is diagnostic: envelope {bound:.6g} vs "
                 f"rho_M {rho_M:.6g} (no guarantee at arbitrary T)"]
    else:
        notes = [f"analytic envelope {bound:.6g} >= 1 is vacuous at T={T}; "
                 "margin 0 records 1 - rho_M instead (diagnostic)"]
    if exchange is auto:
        sides.append((1, rho_M, RHO_M_TARGET, True))
        notes.append("T equals the recommended round count; "
                     "margin 1 gates on 1 - rho_M >= 1/2")
    return LemmaCheckReport.from_sides("T2_rho_M", *zip(*sides), notes=notes)


def run_all_checks(trace) -> list[LemmaCheckReport]:
    """All six checks against one trace recorded at every step, in LEMMA_IDS order."""
    field = field_at_average(trace)
    return [check_lemma(trace, lemma_id, field) for lemma_id in LEMMA_IDS]


def summary_text(reports) -> str:
    """Human-readable one-line-per-check summary."""
    lines = []
    for rep in reports:
        if rep.status == "precondition_violated":
            lines.append(f"{rep.lemma_id}: PRECONDITION VIOLATED ({rep.notes[0]})")
        else:
            verdict = "passed" if rep.passed else "FAILED"
            lines.append(f"{rep.lemma_id}: {verdict} "
                         f"(min margin {rep.min_margin:.6g} over {len(rep.margins)} steps)")
            lines.extend(f"  note: {note}" for note in rep.notes)
    return "\n".join(lines) + "\n"


def margins_csv_rows(reports):
    """The text of check_margins.csv in chunks of rows: lemma_id,iteration,margin
    rows, formatted by one %-format per report."""
    yield "lemma_id,iteration,margin\n"
    for rep in reports:
        yield from metrics.csv_chunks(rep.lemma_id + ",%d,%.17g\n", rep.margins,
                                      MARGIN_DTYPE.names)
