"""Config-driven experiment harness: run, compare, verify.

Configs are YAML with the blocks problem / graph / algorithm (or a list
under ``algorithms`` for compare) / run, plus an optional ``init`` block for
the starting iterate.  Each key of a block is one field of the block's
frozen dataclass (``ProblemConfig``, ``GraphConfig``, ``AlgorithmConfig``,
``InitConfig``, ``RunConfig``), made by ``_key``: the field names the key's
parser and the parser's limits, and holds the key's default, or
``REQUIRED``.  ``_parse_block`` reads every block by these fields alone, and
``load_config`` adds the rules across keys and blocks.  A value of the wrong
type or out of its limits is a ``ConfigError`` (exit 2).

Every resolved value, including "auto" stepsizes and round counts, is
echoed into a per-run manifest, each block's keys in field order, so outputs
are exactly replayable.  Trace CSVs use a fixed schema with
17-significant-digit floats and LF line endings, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import threading
import traceback
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import verify as verify_mod
from .algorithms import ALGORITHMS, DivergenceError, Trace, run
from .graph import (MAX_RANDOM_DRAW_N, TOPOLOGY_KINDS, WEIGHT_BUILDERS, AcceleratedExchange,
                    MixingMatrix, accelerated_matrix, build_topology)
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

# libyaml's parser where PyYAML was built with it: it builds the same
# mappings as the pure-Python SafeLoader, about 7x faster on these configs.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


# ---------------------------------------------------------------------------
# config model


def _as_int(value, key, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _as_float(value, key, positive=False, nonnegative=False, allow_inf=False):
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
    if nonnegative and number < 0.0:
        raise ConfigError(f"{key} must be nonnegative, got {number}")
    return number


def _as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be a boolean, got {value!r}")
    return value


def _as_str(value, key, choices=None):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{key} must be one of {list(choices)}, got {value!r}")
    return value


REQUIRED = MISSING          # the default of a key that every config gives


def _key(parse, default, auto=False, echo=True, **limits):
    """A config key as a dataclass field: ``parse(value, name, **limits)``
    checks a given value, and ``default`` stands for an absent one.  With
    ``auto``, the string "auto" is kept as given, for resolution to replace;
    without ``echo``, no manifest line echoes the key."""
    return field(default=default,
                 metadata={"parse": parse, "limits": limits, "auto": auto, "echo": echo})


@dataclass(frozen=True)
class ProblemConfig:
    type: str = _key(_as_str, REQUIRED, choices=("bilinear_quadratic",))
    n: int = _key(_as_int, REQUIRED, minimum=1)
    p: int = _key(_as_int, REQUIRED, minimum=1)
    d: int = _key(_as_int, REQUIRED, minimum=1)
    mu: float = _key(_as_float, REQUIRED, positive=True)
    seed: int = _key(_as_int, REQUIRED, minimum=0)
    zero_sum_centers: bool = _key(_as_bool, True)


@dataclass(frozen=True)
class GraphConfig:
    topology: str = _key(_as_str, REQUIRED, choices=TOPOLOGY_KINDS)
    n: int = _key(_as_int, REQUIRED, minimum=1)
    weight_scheme: str = _key(_as_str, "metropolis", choices=WEIGHT_BUILDERS)
    edge_probability: float | None = _key(_as_float, None)     # random topology only
    seed: int | None = _key(_as_int, None, minimum=0)           # random topology only


@dataclass(frozen=True)
class AlgorithmConfig:
    name: str = _key(_as_str, REQUIRED, choices=ALGORITHMS)
    gamma: float | str = _key(_as_float, REQUIRED, auto=True, positive=True)
    T: int | str | None = _key(_as_int, None, auto=True, minimum=1)    # adogt only


@dataclass(frozen=True)
class InitConfig:
    kind: str = _key(_as_str, "normal", choices=("normal", "zeros"))
    seed: int | None = _key(_as_int, None, minimum=0)   # None: problem.seed + 1 at resolution
    scale: float = _key(_as_float, 1.0, positive=True)


@dataclass(frozen=True)
class RunConfig:
    max_iters: int = _key(_as_int, 10_000, minimum=1)
    tol: float = _key(_as_float, 1e-10, nonnegative=True, allow_inf=True)
    record_every: int = _key(_as_int, 1, minimum=1)
    out_dir: str = _key(_as_str, "out", echo=False)     # where, not what: --out overrides it


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig
    graph: GraphConfig
    algorithms: tuple[AlgorithmConfig, ...]
    run: RunConfig
    init: InitConfig


def _parse_block(cls, raw, block: str):
    """The config block ``raw`` as a ``cls``, read by its fields: an absent
    (null) block is empty, a key that is no field is refused, an absent key
    takes its default unless it is REQUIRED, and null is a value only where
    the default is None."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{block} block must be a mapping, got {type(raw).__name__}")
    keys = cls.__dataclass_fields__
    unknown = raw.keys() - keys
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {block} block")
    values = {}
    for name, key in keys.items():
        if name not in raw:
            if key.default is REQUIRED:
                raise ConfigError(f"{block} block is missing {name!r}")
            continue
        value, meta = raw[name], key.metadata
        kept = value is None and key.default is None or meta["auto"] and value == "auto"
        values[name] = value if kept else meta["parse"](value, f"{block}.{name}",
                                                        **meta["limits"])
    return cls(**values)


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
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {"problem", "graph", "algorithm", "algorithms", "run", "init"}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in config")

    problem = _parse_block(ProblemConfig, raw.get("problem"), "problem")
    if problem.p != problem.d:
        raise ConfigError(f"the coupling x.y needs problem.p ({problem.p}) to equal "
                          f"problem.d ({problem.d})")
    graph = _parse_block(GraphConfig, raw.get("graph"), "graph")
    if graph.topology == "random" and graph.n > MAX_RANDOM_DRAW_N:
        raise ConfigError(
            f"graph.n is {graph.n}, above {MAX_RANDOM_DRAW_N}, the largest random graph: each "
            f"draw of its edges takes n^2 uniforms, and a graph that does not connect is "
            f"drawn again, in time growing as n^2 per draw")
    if problem.n != graph.n:
        raise ConfigError(f"problem.n ({problem.n}) must equal graph.n ({graph.n})")

    if "algorithm" in raw and "algorithms" in raw:
        raise ConfigError("config must use either 'algorithm' or 'algorithms', not both")
    if "algorithm" in raw:
        blocks = {"algorithm": raw["algorithm"]}
    elif "algorithms" in raw:
        if not isinstance(raw["algorithms"], list) or not raw["algorithms"]:
            raise ConfigError("'algorithms' must be a non-empty list")
        blocks = {f"algorithms[{i}]": entry for i, entry in enumerate(raw["algorithms"])}
    else:
        raise ConfigError("config needs an 'algorithm' or 'algorithms' block")
    algorithms = tuple(_parse_block(AlgorithmConfig, entry, block)
                       for block, entry in blocks.items())
    for block, algo in zip(blocks, algorithms):
        if algo.name == "adogt" and algo.T is None:
            raise ConfigError("adogt requires T (a positive integer or 'auto')")
        if algo.name != "adogt" and algo.T is not None:
            raise ConfigError(f"{block}.T only applies to adogt")

    run_block = raw.get("run")
    if isinstance(run_block, dict) and "record_states" in run_block:
        # Read by nothing: perfbench's ring16-verify workload and its committed config set it.
        run_block = dict(run_block)
        if (record_states := run_block.pop("record_states")) is not None:
            _as_bool(record_states, "run.record_states")
    return ExperimentConfig(problem=problem, graph=graph, algorithms=algorithms,
                            run=_parse_block(RunConfig, run_block, "run"),
                            init=_parse_block(InitConfig, raw.get("init"), "init"))


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
    return ResolvedExperiment(config=config, problem=problem, W=W,
                              z0=z0, init_seed=init_seed, algorithms=tuple(resolved))


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


def _echoed(block: str, config, **used) -> list[tuple[str, object]]:
    """The manifest items of a config block, in field order: each echoed
    key's value, or the value the run used in its place."""
    return [(f"{block}.{key.name}", used.get(key.name, getattr(config, key.name)))
            for key in fields(config) if key.metadata["echo"]]


def _manifest_lines(exp: ResolvedExperiment, algo: ResolvedAlgorithm,
                    trace: Trace) -> list[str]:
    pc, gc, ic = exp.config.problem, exp.config.graph, exp.config.init
    final = trace.records[-1]
    random_graph = gc.topology == "random"
    L = exp.problem.smoothness_constant()
    try:
        contraction = theoretical_contraction(algo.gamma, pc.mu, trace.rho)
        stepsize_bound = max_stepsize(L, trace.rho)
    except ValueError:
        # Off-design accelerated matrix (rho >= 1): no guarantees attach.
        contraction = stepsize_bound = None
    items = [
        *_echoed("problem", pc),
        # A value the run did not use prints as none.
        *_echoed("graph", gc, edge_probability=gc.edge_probability if random_graph else None,
                 seed=gc.seed if random_graph else None), ("graph.rho_w", exp.W.rho),
        *_echoed("init", ic, seed=exp.init_seed, scale=None if ic.kind == "zeros" else ic.scale),
        ("algorithm.name", algo.name),
        ("algorithm.gamma", algo.gamma),
        ("algorithm.gamma_source", algo.gamma_source),
        ("algorithm.T", trace.T), ("algorithm.T_source", algo.T_source),
        ("algorithm.eta", None if trace.T is None else trace.mixing.eta),
        ("algorithm.rho_effective", trace.rho),
        ("derived.smoothness_L", L), ("derived.kappa", L / pc.mu),
        ("derived.max_stepsize", stepsize_bound),
        ("derived.theoretical_contraction", contraction),
        *_echoed("run", exp.config.run),
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
    may run on, up to the algorithm count, each pinned to a CPU of its own
    (``_run_in_lanes``).  One where there is no ``fork``, or where another
    thread runs, which a forked lane would not have."""
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


def _pin(cpus: list[int]) -> None:
    """Run this process on ``cpus`` alone, where the system lets it: a lane
    that cannot be pinned runs where the scheduler puts it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _child_lane(exp: ResolvedExperiment, out: Path, queue: _WorkQueue, write_fd: int,
                cpu: int):
    """A forked lane: pin itself to ``cpu``, send each outcome up its pipe,
    pickled, an exception with its traceback, then leave by ``os._exit``, so
    that no code of the parent's stack runs here."""
    status = 1
    try:
        _pin([cpu])
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
    An algorithm that no lane reported is a ``LaneError``.

    With more than one lane, lane k runs on the k-th CPU of this process's
    mask, in sorted order, alone: lane 0 pins itself before it forks, and
    each child right after its fork.  Left to itself, the scheduler often
    keeps a forked lane on its parent's CPU for the whole command, so that
    two lanes share one CPU while another idles.  A lane that cannot be
    pinned runs unpinned; this process gets its own mask back on every
    way out."""
    count = len(exp.algorithms)
    queue = _WorkQueue(count)
    first = queue.take()
    lanes = _lane_count(count)
    cpus = sorted(os.sched_getaffinity(0)) if lanes > 1 else []
    outcomes, children, statuses = {}, {}, {}
    try:
        if cpus:
            _pin(cpus[:1])
        for lane in range(1, lanes):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:         # out of processes: the lanes so far run it all
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                _child_lane(exp, out, queue, write_fd, cpus[lane])
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
        if cpus:
            _pin(cpus)
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
    exp = resolve_experiment(config)
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
