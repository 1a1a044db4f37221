"""Config-driven experiment harness: run, compare, verify.

Configs are YAML with the blocks problem / graph / algorithm (or a list
under ``algorithms`` for compare) / run, plus an optional ``init`` block for
the starting iterate.  Every resolved value, including "auto" stepsizes and
round counts, is echoed into a per-run manifest so outputs are exactly
replayable.  Trace CSVs use a fixed schema with 17-significant-digit floats
and LF line endings, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import threading
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import verify as verify_mod
from .algorithms import ALGORITHMS, DivergenceError, Trace, run
from .graph import (MAX_DECOMPOSED_N, WEIGHT_BUILDERS, AcceleratedExchange, MixingMatrix,
                    Topology, accelerated_matrix, build_topology)
from .metrics import csv_chunks, fit_linear_rate, max_stepsize, theoretical_contraction
from .problem import BilinearQuadratic, make_bilinear_quadratic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4
EXIT_PRECONDITION = 5
EXIT_CHECK_FAILED = 6

# The columns of a trace CSV: its header name of each, and the record column
# (``metrics.record_table``) it is written from.
CSV_COLUMNS = {"iter": "iteration", "comm_rounds": "comm_rounds", "residual": "residual",
               "consensus_error": "consensus_error", "tracking_error": "D",
               "xi_norm_sq": "xi_sq", "lyapunov": "V"}
CSV_HEADER = ",".join(CSV_COLUMNS)

INIT_KINDS = ("normal", "zeros")

# libyaml's parser where PyYAML was built with it: it builds the same
# mappings as the pure-Python SafeLoader, about 7x faster on these configs.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


# ---------------------------------------------------------------------------
# config model


@dataclass(frozen=True)
class ProblemConfig:
    type: str
    n: int
    p: int
    d: int
    mu: float
    seed: int
    zero_sum_centers: bool


@dataclass(frozen=True)
class GraphConfig:
    topology: str
    n: int
    weight_scheme: str
    edge_probability: float | None
    seed: int | None


@dataclass(frozen=True)
class AlgorithmConfig:
    name: str
    gamma: float | str          # positive float or "auto"
    T: int | str | None         # positive int or "auto"; adogt only


@dataclass(frozen=True)
class InitConfig:
    kind: str
    seed: int | None            # defaults to problem.seed + 1 at resolution
    scale: float


@dataclass(frozen=True)
class RunConfig:
    max_iters: int
    tol: float
    record_every: int
    record_states: bool | None  # None = unset; verify resolves it to True
    out_dir: str


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig
    graph: GraphConfig
    algorithms: tuple[AlgorithmConfig, ...]
    run: RunConfig
    init: InitConfig


def _require_mapping(raw, name):
    """The block as a dict; an absent (None) block is empty."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} block must be a mapping, got {type(raw).__name__}")
    return raw


def _known_keys(raw: dict, allowed, block: str, required=()):
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {block} block")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{block} block is missing {key!r}")


def _optional(raw: dict, key: str, parse, name: str, **kwargs):
    value = raw.get(key)
    return None if value is None else parse(value, name, **kwargs)


def _as_int(value, key, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _as_float(value, key, positive=False, allow_inf=False):
    number = np.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if np.isnan(number) or (np.isinf(number) and not allow_inf):
        raise ConfigError(f"{key} must be a {'number' if allow_inf else 'finite number'}, "
                          f"got {value!r}")
    if positive and number <= 0.0:
        raise ConfigError(f"{key} must be positive, got {number}")
    return number


def _as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be a boolean, got {value!r}")
    return value


def _parse_problem(raw) -> ProblemConfig:
    raw = _require_mapping(raw, "problem")
    _known_keys(raw, ("type", "n", "p", "d", "mu", "seed", "zero_sum_centers"), "problem",
                required=("type", "n", "p", "d", "mu", "seed"))
    if raw["type"] != "bilinear_quadratic":
        raise ConfigError(f"unknown problem type {raw['type']!r}")
    mu = _as_float(raw["mu"], "problem.mu", positive=True)
    p = _as_int(raw["p"], "problem.p", minimum=1)
    d = _as_int(raw["d"], "problem.d", minimum=1)
    if p != d:
        raise ConfigError(f"the coupling x.y needs problem.p ({p}) to equal problem.d ({d})")
    return ProblemConfig(type=raw["type"],
                         n=_as_int(raw["n"], "problem.n", minimum=1),
                         p=p,
                         d=d,
                         mu=mu,
                         seed=_as_int(raw["seed"], "problem.seed", minimum=0),
                         zero_sum_centers=_as_bool(raw.get("zero_sum_centers", True),
                                                   "problem.zero_sum_centers"))


def _parse_graph(raw) -> GraphConfig:
    raw = _require_mapping(raw, "graph")
    _known_keys(raw, ("topology", "n", "weight_scheme", "edge_probability", "seed"), "graph",
                required=("topology", "n"))
    scheme = raw.get("weight_scheme", "metropolis")
    if scheme not in WEIGHT_BUILDERS:
        raise ConfigError(f"unknown weight_scheme {scheme!r}, "
                          f"expected one of {sorted(WEIGHT_BUILDERS)}")
    n = _as_int(raw["n"], "graph.n", minimum=1)
    if raw["topology"] == "random" and n > MAX_DECOMPOSED_N:
        raise ConfigError(
            f"graph.n is {n}, above {MAX_DECOMPOSED_N}, the largest random graph: its "
            f"spectrum takes a dense eigendecomposition, of n x n arrays (8 n^2 bytes each) "
            f"in time growing as n^3, about 11 s at n = {MAX_DECOMPOSED_N}")
    return GraphConfig(topology=raw["topology"],
                       n=n,
                       weight_scheme=scheme,
                       edge_probability=_optional(raw, "edge_probability", _as_float,
                                                  "graph.edge_probability"),
                       seed=_optional(raw, "seed", _as_int, "graph.seed", minimum=0))


def _parse_algorithm(raw, block="algorithm") -> AlgorithmConfig:
    raw = _require_mapping(raw, block)
    _known_keys(raw, ("name", "gamma", "T"), block)
    name = raw.get("name")
    if name not in ALGORITHMS:
        raise ConfigError(f"{block}.name must be one of {ALGORITHMS}, got {name!r}")
    gamma = raw.get("gamma")
    if gamma != "auto":
        gamma = _as_float(gamma, f"{block}.gamma", positive=True)
    T = raw.get("T")
    if name == "adogt":
        if T is None:
            raise ConfigError("adogt requires T (a positive integer or 'auto')")
        if T != "auto":
            T = _as_int(T, f"{block}.T", minimum=1)
    elif T is not None:
        raise ConfigError(f"{block}.T only applies to adogt")
    return AlgorithmConfig(name=name, gamma=gamma, T=T)


def _parse_init(raw) -> InitConfig:
    raw = _require_mapping(raw, "init")
    _known_keys(raw, ("kind", "seed", "scale"), "init")
    kind = raw.get("kind", "normal")
    if kind not in INIT_KINDS:
        raise ConfigError(f"init.kind must be one of {INIT_KINDS}, got {kind!r}")
    return InitConfig(kind=kind, seed=_optional(raw, "seed", _as_int, "init.seed", minimum=0),
                      scale=_as_float(raw.get("scale", 1.0), "init.scale", positive=True))


def _parse_run(raw) -> RunConfig:
    raw = _require_mapping(raw, "run")
    _known_keys(raw, ("max_iters", "tol", "record_every", "record_states", "out_dir"), "run")
    tol = _as_float(raw.get("tol", 1e-10), "run.tol", allow_inf=True)
    if tol < 0.0:
        raise ConfigError(f"run.tol must be nonnegative, got {tol}")
    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"run.out_dir must be a string, got {out_dir!r}")
    record_states = _optional(raw, "record_states", _as_bool, "run.record_states")
    return RunConfig(max_iters=_as_int(raw.get("max_iters", 10_000), "run.max_iters", minimum=1),
                     tol=tol,
                     record_every=_as_int(raw.get("record_every", 1),
                                          "run.record_every", minimum=1),
                     record_states=record_states,
                     out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    raw = _require_mapping(raw, "config")
    _known_keys(raw, ("problem", "graph", "algorithm", "algorithms", "run", "init"), "config",
                required=("problem", "graph"))
    if "algorithm" in raw and "algorithms" in raw:
        raise ConfigError("config must use either 'algorithm' or 'algorithms', not both")
    if "algorithm" in raw:
        algorithms = (_parse_algorithm(raw["algorithm"]),)
    elif "algorithms" in raw:
        entries = raw["algorithms"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("'algorithms' must be a non-empty list")
        algorithms = tuple(_parse_algorithm(entry, f"algorithms[{i}]")
                           for i, entry in enumerate(entries))
    else:
        raise ConfigError("config needs an 'algorithm' or 'algorithms' block")

    config = ExperimentConfig(problem=_parse_problem(raw["problem"]),
                              graph=_parse_graph(raw["graph"]),
                              algorithms=algorithms,
                              run=_parse_run(raw.get("run")),
                              init=_parse_init(raw.get("init")))
    if config.problem.n != config.graph.n:
        raise ConfigError(f"problem.n ({config.problem.n}) must equal "
                          f"graph.n ({config.graph.n})")
    return config


# ---------------------------------------------------------------------------
# resolution


@dataclass(frozen=True)
class ResolvedAlgorithm:
    label: str                  # unique output name (duplicates get a suffix)
    name: str
    gamma: float
    gamma_source: str           # "config" or "auto"
    T_source: str | None        # adogt's: "config" or "auto"
    # What every step mixes with, built once: W, or adogt's exchange, which
    # holds T, eta and rho_M.
    mixing: MixingMatrix | AcceleratedExchange


@dataclass(frozen=True, eq=False)
class ResolvedExperiment:
    config: ExperimentConfig
    problem: BilinearQuadratic
    topology: Topology
    W: MixingMatrix
    z0: np.ndarray
    init_seed: int | None
    algorithms: tuple[ResolvedAlgorithm, ...]


def _make_z0(init: InitConfig, problem, default_seed: int):
    dims = (problem.n, problem.p + problem.d)
    if init.kind == "zeros":
        return np.zeros(dims), None
    seed = init.seed if init.seed is not None else default_seed
    rng = np.random.default_rng(seed)
    return init.scale * rng.standard_normal(dims), seed


def resolve_experiment(config: ExperimentConfig) -> ResolvedExperiment:
    """Build problem/graph objects, resolve every "auto" placeholder, and
    build each algorithm's mixing once: W, or adogt's exchange over W."""
    pc = config.problem
    try:
        problem = make_bilinear_quadratic(pc.n, pc.p, pc.d, pc.mu, pc.seed,
                                          zero_sum_centers=pc.zero_sum_centers)
        L = problem.smoothness_constant()
    except OverflowError as exc:
        raise ConfigError(f"problem.mu {pc.mu!r} is too large: the smoothness constant "
                          "sqrt(1 + mu^2) overflows") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gc = config.graph
    try:
        topology = build_topology(gc.topology, gc.n, seed=gc.seed,
                                  edge_probability=gc.edge_probability)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    W = WEIGHT_BUILDERS[gc.weight_scheme](topology)

    resolved = []
    labels = {}
    for algo in config.algorithms:
        T_source, mixing = None, W
        if algo.name == "adogt":
            T_source = "auto" if algo.T == "auto" else "config"
            try:
                mixing = accelerated_matrix(W, None if algo.T == "auto" else algo.T)
            except ValueError as exc:
                raise ConfigError(f"{algo.name}: {exc}") from exc
        gamma_source = "auto" if algo.gamma == "auto" else "config"
        if algo.gamma == "auto":
            if mixing.rho >= 1.0:
                raise ConfigError(
                    f"gamma: auto needs a contracting mixing matrix, but "
                    f"{algo.name} with T={mixing.rounds} has rho {mixing.rho:.4g} >= 1 on "
                    f"this graph; increase T or set T: auto")
            gamma = max_stepsize(L, mixing.rho)
        else:
            gamma = algo.gamma
        count = labels.get(algo.name, 0) + 1
        labels[algo.name] = count
        label = algo.name if count == 1 else f"{algo.name}-{count}"
        resolved.append(ResolvedAlgorithm(label=label, name=algo.name, gamma=gamma,
                                          gamma_source=gamma_source, T_source=T_source,
                                          mixing=mixing))

    z0, init_seed = _make_z0(config.init, problem, default_seed=pc.seed + 1)
    return ResolvedExperiment(config=config, problem=problem, topology=topology,
                              W=W, z0=z0, init_seed=init_seed, algorithms=tuple(resolved))


# ---------------------------------------------------------------------------
# output files


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _defined(trace: Trace, column: str) -> bool:
    """Whether a record column holds values, by the run's rho: as in
    ``metrics.step_terms``, the Lyapunov weights need rho in [0, 1)."""
    return column != "V" or 0.0 <= trace.rho < 1.0


def write_trace_csv(path: Path, trace: Trace, record_every: int = 1) -> None:
    """The trace's rows on the ``record_every`` grid and its last row, each
    formatted by one %-format string, a chunk of rows at a time; the columns
    that are not ``_defined`` stay empty.

    The rows at the end whose float cells equal the last row's, bit for bit
    (after a fixed point, most of a run's rows), share one format string in
    which those cells are formatted once."""
    records = trace.records
    keep = records["iteration"] % record_every == 0
    keep[-1] = True
    if not keep.all():
        records = records[keep]
    known = [column for column in CSV_COLUMNS.values() if _defined(trace, column)]
    ints = [column for column in known if records.dtype[column].kind == "i"]
    floats = [column for column in known if column not in ints]
    differs = np.zeros(len(records), dtype=bool)
    for column in floats:
        bits = records[column].view(np.int64)
        differs |= bits != bits[-1]
    tail = int(differs.nonzero()[0][-1]) + 1 if differs.any() else 0

    def row(last: bool) -> str:
        """The row format; with ``last``, its float cells hold the last row's values."""
        return ",".join("%d" if column in ints
                        else ("%.17g" % records[column][-1] if last else "%.17g")
                        if column in floats else "" for column in CSV_COLUMNS.values()) + "\n"

    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(csv_chunks(row(False), records[:tail], known))
        fh.writelines(csv_chunks(row(True), records[tail:], ints))


def _manifest_lines(exp: ResolvedExperiment, algo: ResolvedAlgorithm,
                    trace: Trace) -> list[str]:
    pc, gc, rc, ic = (exp.config.problem, exp.config.graph, exp.config.run,
                      exp.config.init)
    final = trace.records[-1]
    L = exp.problem.smoothness_constant()
    try:
        contraction = theoretical_contraction(algo.gamma, pc.mu, trace.rho)
        stepsize_bound = max_stepsize(L, trace.rho)
    except ValueError:
        # Off-design accelerated matrix (rho >= 1): no guarantees attach.
        contraction = stepsize_bound = None
    items = [
        ("problem.type", pc.type), ("problem.n", pc.n), ("problem.p", pc.p),
        ("problem.d", pc.d), ("problem.mu", pc.mu), ("problem.seed", pc.seed),
        ("problem.zero_sum_centers", pc.zero_sum_centers),
        ("graph.topology", gc.topology), ("graph.n", gc.n),
        ("graph.weight_scheme", gc.weight_scheme),
        ("graph.edge_probability", gc.edge_probability),
        ("graph.seed", gc.seed), ("graph.rho_w", exp.W.rho),
        ("init.kind", ic.kind), ("init.seed", exp.init_seed),
        ("init.scale", ic.scale),
        ("algorithm.name", algo.name),
        ("algorithm.gamma", algo.gamma),
        ("algorithm.gamma_source", algo.gamma_source),
        ("algorithm.T", trace.T), ("algorithm.T_source", algo.T_source),
        ("algorithm.eta", None if trace.T is None else trace.mixing.eta),
        ("algorithm.rho_effective", trace.rho),
        ("derived.smoothness_L", L), ("derived.kappa", L / pc.mu),
        ("derived.max_stepsize", stepsize_bound),
        ("derived.theoretical_contraction", contraction),
        ("run.max_iters", rc.max_iters), ("run.tol", rc.tol),
        ("run.record_every", rc.record_every),
        ("run.record_states", bool(rc.record_states)),
        ("result.reason", trace.reason),
        ("result.iterations", trace.iterations),
        ("result.comm_rounds", trace.comm_rounds),
        ("result.final_residual", final.residual),
        ("result.final_consensus_error", final.consensus_error),
    ]
    if trace.rho >= 1.0:
        items.append(("note.lyapunov", "rho_effective >= 1 (T too small for this "
                                       "graph); lyapunov column is empty"))
    return [f"{key} = {_fmt(value) or 'none'}" for key, value in items]


def write_manifest(path: Path, exp: ResolvedExperiment, algo: ResolvedAlgorithm,
                   trace: Trace) -> None:
    path.write_text("\n".join(_manifest_lines(exp, algo, trace)) + "\n", newline="\n")


def _run_and_write(exp: ResolvedExperiment, algo: ResolvedAlgorithm, out: Path,
                   record_every: int | None = None) -> Trace:
    """Run one algorithm and write its trace CSV and manifest.

    The run records on a grid of ``record_every``, the config's by default;
    the CSV holds the rows on the config's grid and the last one."""
    rc = exp.config.run
    trace = run(algo.name, exp.problem, algo.mixing, algo.gamma, exp.z0,
                max_iters=rc.max_iters, tol=rc.tol,
                record_every=record_every or rc.record_every)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / f"{algo.label}.csv", trace, rc.record_every)
    write_manifest(out / f"{algo.label}.manifest.txt", exp, algo, trace)
    return trace


def _out_dir(config: ExperimentConfig, override) -> Path:
    return Path(override if override is not None else config.run.out_dir)


def _summary_line(label: str, trace: Trace) -> str:
    return (f"{label}: {trace.reason} after {trace.iterations} iterations "
            f"(comm_rounds={trace.comm_rounds}, "
            f"final_residual={trace.records[-1].residual:.6g})")


# ---------------------------------------------------------------------------
# commands


def run_command(config_path, out_dir=None) -> int:
    """Execute a single-algorithm config; writes trace CSV and manifest."""
    config = load_config(config_path)
    if len(config.algorithms) != 1:
        raise ConfigError("'run' needs exactly one algorithm; use 'compare' for several")
    exp = resolve_experiment(config)
    trace = _run_and_write(exp, exp.algorithms[0], _out_dir(config, out_dir))
    print(_summary_line(exp.algorithms[0].label, trace))
    return EXIT_OK


def _fitted_rate_cell(trace: Trace) -> str:
    records = trace.records
    try:
        report = fit_linear_rate(np.stack([records["iteration"], records["residual"]], axis=1))
    except ValueError:
        return "n/a"
    return f"{report.fitted_rate:.6g}"


def _compare_result(exp: ResolvedExperiment, algo: ResolvedAlgorithm,
                    out: Path) -> tuple[str, tuple[str, ...]]:
    """Run one algorithm of a compare and write its files; its summary line
    and its row of comparison.txt."""
    try:
        trace = _run_and_write(exp, algo, out)
    except DivergenceError as exc:
        return (f"{algo.label}: diverged at iteration {exc.iteration}",
                (algo.label, "diverged", "diverged", f"diverged@{exc.iteration}", "n/a", "n/a"))
    final = trace.records[-1]
    iters = str(trace.iterations) if trace.reason == "tol_reached" else "not_reached"
    return _summary_line(algo.label, trace), (
        algo.label, _fmt(final.residual), _fmt(final.consensus_error), iters,
        str(trace.comm_rounds), _fitted_rate_cell(trace))


class LaneError(RuntimeError):
    """An algorithm of a compare that no lane reported; or, as the cause of
    an exception that a child lane sent, its traceback in that lane."""


def _lane_count(algorithms: int) -> int:
    """How many lanes run a compare's algorithms: one per CPU this process
    may run on, up to the algorithm count.  One where there is no ``fork``,
    or where another thread runs, which a forked lane would not have."""
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not forkable or threading.active_count() > 1:
        return 1
    return min(algorithms, len(os.sched_getaffinity(0)))


class _WorkQueue:
    """The index of the next algorithm to run, one 4-byte token in a pipe
    that every lane shares.  A lane takes an index by reading the token and
    puts the next index back; the token reads ``count`` once there are none
    left, or once a lane has stopped them all."""

    def __init__(self, count: int):
        self.count = count
        self.read_fd, self.write_fd = os.pipe()
        self._put(0)

    def _put(self, index: int) -> None:
        os.write(self.write_fd, index.to_bytes(4, "little"))

    def take(self) -> int | None:
        index = int.from_bytes(os.read(self.read_fd, 4), "little")
        self._put(min(index + 1, self.count))
        return index if index < self.count else None

    def stop(self) -> None:
        os.read(self.read_fd, 4)
        self._put(self.count)

    def close(self) -> None:
        os.close(self.read_fd)
        os.close(self.write_fd)


def _lane(exp: ResolvedExperiment, out: Path, queue: _WorkQueue, index: int | None):
    """Yield (index, outcome) for ``index`` and each algorithm this lane takes
    after it: its ``_compare_result``, or the exception it raised, after
    which no lane takes another."""
    while index is not None:
        try:
            outcome = _compare_result(exp, exp.algorithms[index], out)
        except Exception as exc:
            queue.stop()
            yield index, exc
            return
        yield index, outcome
        index = queue.take()


def _child_lane(exp: ResolvedExperiment, out: Path, queue: _WorkQueue, write_fd: int):
    """A forked lane: send each outcome up its pipe, pickled, an exception
    with its traceback, then leave by ``os._exit``, so that no code of the
    parent's stack runs here."""
    status = 1
    try:
        with open(write_fd, "wb") as sink:
            for index, outcome in _lane(exp, out, queue, queue.take()):
                tb = None
                if isinstance(outcome, Exception):
                    tb = "".join(traceback.format_exception(outcome))
                    try:
                        pickle.loads(pickle.dumps(outcome))
                    except Exception:
                        outcome = LaneError(f"unpicklable {type(outcome).__name__}: {outcome}")
                pickle.dump((index, outcome, tb), sink)
                sink.flush()
        status = 0
    finally:
        os._exit(status)


def _received(source, pid: int):
    """The (index, outcome) pairs a child lane sent, up to its pipe's end."""
    while True:
        try:
            index, outcome, tb = pickle.load(source)
        except (EOFError, pickle.UnpicklingError):
            return
        if tb is not None:
            outcome.__cause__ = LaneError(f"in compare lane {pid}:\n{tb}")
        yield index, outcome


def _run_in_lanes(exp: ResolvedExperiment, out: Path) -> list:
    """Each algorithm's outcome, in config order: its ``_compare_result`` or
    the exception it raised.

    The algorithms run in ``_lane_count`` lanes, each taking the next index
    off one ``_WorkQueue``.  This process is lane 0: it takes the first
    index, then forks the other lanes, which inherit the experiment, and
    runs its share; then it reads what each child sent and reaps it.  When
    it is unwinding from an error, it kills the children still running.
    An algorithm that no lane reported is a ``LaneError``."""
    count = len(exp.algorithms)
    queue = _WorkQueue(count)
    first = queue.take()
    outcomes, children, statuses = {}, {}, {}
    try:
        for _ in range(_lane_count(count) - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:         # out of processes: the lanes so far run it all
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                _child_lane(exp, out, queue, write_fd)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        outcomes.update(_lane(exp, out, queue, first))
        for pid, source in children.items():
            outcomes.update(_received(source, pid))
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:
        for pid in children.keys() - statuses.keys():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        queue.close()
        for pid, source in children.items():
            source.close()
            if pid not in statuses:
                os.waitpid(pid, 0)
    return [outcomes[index] if index in outcomes else LaneError(
                f"no lane reported {exp.algorithms[index].label}; the child lanes exited "
                f"with status {sorted(statuses.values())}") for index in range(count)]


def compare_command(config_path, out_dir=None) -> int:
    """Run every algorithm in the config on the shared problem and graph, in
    lanes (``_run_in_lanes``); print and write the results in config order."""
    config = load_config(config_path)
    exp = resolve_experiment(config)
    out = _out_dir(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = [("algorithm", "final_residual", "final_consensus_error",
             "iters_to_tol", "comm_rounds", "fitted_rate")]
    for outcome in _run_in_lanes(exp, out):
        if isinstance(outcome, Exception):
            raise outcome
        line, row = outcome
        print(line)
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    table = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                      for row in rows)
    (out / "comparison.txt").write_text(table + "\n", newline="\n")
    print(table)
    return EXIT_OK


def verify_command(config_path, out_dir=None) -> int:
    """Run dogt, recording every step, and evaluate all theory checks."""
    config = load_config(config_path)
    if len(config.algorithms) != 1 or config.algorithms[0].name != "dogt":
        raise ConfigError("'verify' runs the dogt algorithm; set algorithm.name: dogt")
    if config.run.record_states is False:
        raise ConfigError("'verify' needs record_states: true (or leave it unset)")
    exp = resolve_experiment(replace(config, run=replace(config.run, record_states=True)))
    if config.run.record_states is None:
        print("record_states: resolved to true (required for verification)")

    out = _out_dir(config, out_dir)
    trace = _run_and_write(exp, exp.algorithms[0], out, record_every=1)
    print(_summary_line(exp.algorithms[0].label, trace))

    reports = verify_mod.run_all_checks(trace)
    summary = verify_mod.summary_text(reports)
    (out / "checks.txt").write_text(summary, newline="\n")
    with open(out / "check_margins.csv", "w", newline="\n") as fh:
        fh.writelines(verify_mod.margins_csv_rows(reports))
    print(summary, end="")

    if any(rep.status == "failed" for rep in reports):
        return EXIT_CHECK_FAILED
    if any(rep.status == "precondition_violated" for rep in reports):
        return EXIT_PRECONDITION
    return EXIT_OK


COMMANDS = {"run": run_command, "compare": compare_command, "verify": verify_command}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netsaddle",
        description="Decentralized saddle-point optimization benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("run", "run one algorithm and emit its trace"),
                      ("compare", "run several algorithms on a shared setup"),
                      ("verify", "check the convergence theory along a dogt run")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--out", default=None, help="override run.out_dir")
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
