"""Spans around calls into netsaddle's public functions, recorded from outside.

``traced(tracer)`` replaces module attributes with timing wrappers for the
duration of a ``with`` block and puts the originals back afterwards; the
package itself is not edited.  The wrap points follow how the package calls
itself: a function imported by name (``accelerated_matrix`` in cli,
algorithms and verify) is wrapped in every module that holds it, and the
weight builders are wrapped inside the shared ``WEIGHT_BUILDERS`` table.

A span is [name, parent index, start ns, end ns].  Spans stay in memory;
``layer_metrics`` turns one command's spans into per-layer totals, where a
span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

STEP_FUNCTIONS = ("dgda_step", "dogda_step", "dogt_step", "adogt_step")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return wrapper


def _count_run(counts, trace):
    counts["algorithms.iterations"] += trace.iterations
    counts["algorithms.comm_rounds"] += trace.comm_rounds


def _wrap_check_lemma(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(trace, lemma_id, *args, **kwargs):
        report = tracer.call(f"verify.check.{lemma_id}", fn, (trace, lemma_id) + args, kwargs)
        if lemma_id != "T2_rho_M":      # T2 checks the mixing matrix, not steps
            tracer.counts["verify.steps_checked"] += len(report.margins)
        return report
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the ``with`` block; always restore the originals."""
    from netsaddle import algorithms, cli, graph, metrics, verify

    points = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "resolve_experiment", "cli.resolve_experiment", None),
        (cli, "write_trace_csv", "cli.write_trace_csv", None),
        (cli, "write_manifest", "cli.write_manifest", None),
        (cli, "make_bilinear_quadratic", "problem.make_bilinear_quadratic", None),
        (cli, "build_topology", "graph.build_topology", None),
        (graph, "spectral_gap", "graph.spectral_gap", None),
        (cli, "accelerated_matrix", "graph.accelerated_matrix", None),
        (algorithms, "accelerated_matrix", "graph.accelerated_matrix", None),
        (verify, "accelerated_matrix", "graph.accelerated_matrix", None),
        (cli, "run", "algorithms.run", _count_run),
        (algorithms, "stacked_gradient_field", "problem.gradient_field", None),
        (metrics, "metric_record", "metrics.metric_record", None),
        (metrics, "residual", "metrics.residual", None),
        (cli, "fit_linear_rate", "metrics.fit_linear_rate", None),
        (verify, "run_all_checks", "verify.run_all_checks", None),
    ] + [(algorithms, step, "algorithms.step", None) for step in STEP_FUNCTIONS]

    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in points]
    saved.append((verify, "check_lemma", verify.check_lemma))
    builders = dict(cli.WEIGHT_BUILDERS)
    try:
        for module, attr, name, on_result in points:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result))
        verify.check_lemma = _wrap_check_lemma(tracer, verify.check_lemma)
        for scheme, builder in builders.items():
            cli.WEIGHT_BUILDERS[scheme] = tracer.wrap("graph.weights", builder)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
        cli.WEIGHT_BUILDERS.update(builders)


def layer_metrics(tracer: Tracer) -> tuple[dict, list[float]]:
    """Per-layer totals of one traced command, and its step durations in us."""
    from netsaddle.verify import LEMMA_IDS

    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = Counter()
    child_ns = [0] * len(tracer.spans)
    for name, parent, start, end in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    steps_us = []
    for (name, _, start, end), children in zip(tracer.spans, child_ns):
        total[name] += end - start
        self_ns[name] += end - start - children
        calls[name] += 1
        if name == "algorithms.step":
            steps_us.append((end - start) / 1e3)

    def s(ns):
        return ns / 1e9

    out = {
        "graph.spectral_gap_s": s(total["graph.spectral_gap"]),
        "graph.spectral_gap_calls": calls["graph.spectral_gap"],
        "graph.accelerated_matrix_s": s(total["graph.accelerated_matrix"]),
        "graph.accelerated_matrix_calls": calls["graph.accelerated_matrix"],
        "graph.build_topology_s": s(total["graph.build_topology"]),
        "graph.weights_self_s": s(self_ns["graph.weights"]),
        "algorithms.step_self_s": s(self_ns["algorithms.step"]),
        "algorithms.run_self_s": s(self_ns["algorithms.run"]),
        "algorithms.iterations": tracer.counts["algorithms.iterations"],
        "algorithms.comm_rounds": tracer.counts["algorithms.comm_rounds"],
        "problem.gradient_field_s": s(total["problem.gradient_field"]),
        "problem.gradient_field_calls": calls["problem.gradient_field"],
        "metrics.residual_s": s(total["metrics.residual"]),
        "metrics.residual_calls": calls["metrics.residual"],
        "metrics.metric_record_s": s(total["metrics.metric_record"]),
        "metrics.metric_record_calls": calls["metrics.metric_record"],
        "metrics.fit_linear_rate_s": s(total["metrics.fit_linear_rate"]),
        "verify.steps_checked": tracer.counts["verify.steps_checked"],
        "cli.load_config_s": s(total["cli.load_config"]),
        "cli.resolve_experiment_self_s": s(self_ns["cli.resolve_experiment"]),
        "cli.write_trace_csv_s": s(total["cli.write_trace_csv"]),
        "cli.write_manifest_s": s(total["cli.write_manifest"]),
    }
    for lemma_id in LEMMA_IDS:
        out[f"verify.check_s.{lemma_id}"] = s(total[f"verify.check.{lemma_id}"])
    return out, steps_us


def write_spans(path, tracer: Tracer) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("index,parent,name,start_ns,end_ns\n")
        for index, (name, parent, start, end) in enumerate(tracer.spans):
            fh.write(f"{index},{parent},{name},{start},{end}\n")
