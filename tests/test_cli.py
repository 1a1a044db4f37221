import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import reference_impl as ref
from netsaddle import algorithms, cli, graph, verify
from netsaddle.cli import (CSV_HEADER, EXIT_CONFIG, EXIT_OK,
                           EXIT_PRECONDITION, ConfigError, compare_command,
                           load_config, main, resolve_experiment, run_command,
                           verify_command)
from netsaddle.graph import AcceleratedExchange, CSRMix
from netsaddle.metrics import max_stepsize

BASE = {
    "problem": {"type": "bilinear_quadratic", "n": 16, "p": 2, "d": 2,
                "mu": 0.1, "seed": 7, "zero_sum_centers": True},
    "graph": {"topology": "ring", "n": 16, "weight_scheme": "metropolis"},
    "algorithm": {"name": "dogt", "gamma": 0.1},
    "init": {"kind": "normal", "seed": 8, "scale": 1.0},
    "run": {"max_iters": 200, "tol": 1.0e-10, "record_every": 10,
            "out_dir": "unused"},
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(BASE))  # deep copy
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
            cfg[key] = {k: v for k, v in cfg[key].items() if v is not None}
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_load_config_happy_path(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.problem.n == 16
    assert config.algorithms[0].name == "dogt"
    assert config.run.record_states is None
    config = load_config(write_config(tmp_path, {"run": {"tol": float("inf")}}))
    assert config.run.tol == float("inf")


def test_node_count_mismatch_rejected(tmp_path):
    path = write_config(tmp_path, {"graph": {"n": 8}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"problem": {"sigma": 2.0}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_algorithm_rejected(tmp_path):
    path = write_config(tmp_path, {"algorithm": {"name": "sgd", "gamma": 0.1}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_T_only_for_adogt(tmp_path):
    path = write_config(tmp_path, {"algorithm": {"name": "dogt", "gamma": 0.1, "T": 4}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_adogt_requires_T(tmp_path):
    path = write_config(tmp_path, {"algorithm": {"name": "adogt", "gamma": 0.1}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG


@pytest.mark.parametrize("text", ["problem: [1, 2", "graph: {n: 16\n", "a: b: c\n",
                                  "\tproblem: 1\n"])
def test_invalid_yaml_exits_2(text, tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "not valid YAML" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_error_writes_no_files(tmp_path):
    out = tmp_path / "out"
    nan, inf = float("nan"), float("inf")
    for overrides in ({"graph": {"n": 8}},
                      {"problem": {"mu": nan}},
                      {"problem": {"mu": inf}},
                      {"algorithm": {"gamma": nan}},
                      {"algorithm": {"gamma": inf}},
                      {"algorithm": None, "algorithms": [{"name": "dogt", "gamma": inf}]},
                      {"init": {"scale": nan}},
                      {"init": {"scale": inf}},
                      {"problem": {"p": 2, "d": 3}},
                      # mu ** 2 overflows in L = sqrt(1 + mu^2), from mu about 1.34e154.
                      {"problem": {"mu": 1e300}},
                      {"problem": {"mu": 1e300}, "algorithm": {"gamma": "auto"}}):
        path = write_config(tmp_path, overrides)
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG, overrides
        assert not out.exists()


def test_a_huge_T_is_refused_before_the_pass(tmp_path, capsys):
    # The pass over the spectrum runs T rounds: at T = 1e9 on ring-16 it would
    # take about 100 minutes.  A T past MAX_T_FACTOR times the formula's T
    # (4 on ring-16) is a config error, and no file is written.
    out = tmp_path / "out"
    path = write_config(tmp_path, {"algorithm": {"name": "adogt", "gamma": 0.1,
                                                 "T": 1_000_000_000}})
    start = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "formula's T" in capsys.readouterr().err
    assert not out.exists()
    limit = graph.MAX_T_FACTOR * 4
    for T, code in ((limit + 1, EXIT_CONFIG), (limit, EXIT_OK)):
        path = write_config(tmp_path, {"algorithm": {"name": "adogt", "gamma": 0.1, "T": T},
                                       "run": {"max_iters": 2}})
        assert main(["run", "--config", str(path), "--out", str(out)]) == code, T


def test_random_graph_size_is_bounded(tmp_path, capsys):
    # A random graph's spectrum takes a dense eigendecomposition, so n above
    # MAX_DECOMPOSED_N is refused when the config loads, before any graph is
    # built; a ring has its spectrum in closed form and no such bound.
    n = graph.MAX_DECOMPOSED_N + 1
    random = {"topology": "random", "n": n, "seed": 1, "edge_probability": 0.01}
    path = write_config(tmp_path, {"problem": {"n": n}, "graph": random})
    with pytest.raises(ConfigError, match=f"above {graph.MAX_DECOMPOSED_N}.*eigendecomposition"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    n = 65536
    path = write_config(tmp_path, {"problem": {"n": n}, "graph": {"topology": "ring", "n": n}})
    assert isinstance(resolve_experiment(load_config(path)).W.mix, CSRMix)
    with pytest.raises(ValueError, match="closed-form"):
        graph.MixingMatrix(graph.Nonzeros(n, np.arange(n), np.arange(n), np.ones(n)))


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Two processes run one ring-256 compare, at one and at two BLAS threads:
    # a ring's spectrum is in closed form, so no eigendecomposition, whose
    # bits follow the thread count, reaches the outputs.
    path = write_config(tmp_path, {
        "problem": {"n": 256}, "graph": {"topology": "ring", "n": 256},
        "algorithm": None,
        "algorithms": [{"name": "dogt", "gamma": 0.1},
                       {"name": "adogt", "gamma": 0.1, "T": "auto"}],
        "run": {"max_iters": 400, "tol": 0.0, "record_every": 10}})
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "netsaddle", "compare", "--config", str(path),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and "adogt.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_problem_p_must_equal_d(tmp_path):
    path = write_config(tmp_path, {"problem": {"p": 2, "d": 3}})
    with pytest.raises(ConfigError, match=r"problem\.p \(2\).*problem\.d \(3\)"):
        load_config(path)


def test_null_out_dir_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = yaml.safe_load(yaml.safe_dump(BASE))
    cfg["run"]["out_dir"] = None
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="out_dir"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "None").exists()


def test_auto_resolution(tmp_path):
    path = write_config(tmp_path, {
        "algorithm": {"name": "adogt", "gamma": "auto", "T": "auto"}})
    exp = resolve_experiment(load_config(path))
    algo = exp.algorithms[0]
    assert isinstance(algo.mixing, AcceleratedExchange) and algo.mixing.W is exp.W
    assert algo.mixing.rounds == 4 and algo.T_source == "auto"
    assert algo.gamma == max_stepsize(exp.problem.smoothness_constant(), algo.mixing.rho)
    assert algo.gamma_source == "auto"


def test_auto_gamma_rejected_at_offdesign_T(tmp_path):
    path = write_config(tmp_path, {
        "algorithm": {"name": "adogt", "gamma": "auto", "T": 1}})
    with pytest.raises(ConfigError):
        resolve_experiment(load_config(path))


def test_offdesign_T_manifest_notes_missing_lyapunov(tmp_path):
    path = write_config(tmp_path, {
        "algorithm": {"name": "adogt", "gamma": 0.1, "T": 1},
        "run": {"max_iters": 20, "tol": 0.0, "record_every": 10,
                "out_dir": "unused"}})
    out = tmp_path / "o"
    assert run_command(path, out) == EXIT_OK
    manifest = (out / "adogt.manifest.txt").read_text()
    assert "derived.max_stepsize = none" in manifest
    assert "note.lyapunov" in manifest
    rows = (out / "adogt.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",") for row in rows)  # empty lyapunov field


def test_init_seed_defaults_to_problem_seed_plus_one(tmp_path):
    path = write_config(tmp_path, {"init": {"kind": "normal", "seed": None}})
    exp = resolve_experiment(load_config(path))
    assert exp.init_seed == 8
    expected = np.random.default_rng(8).standard_normal((16, 4))
    assert np.array_equal(exp.z0, expected)


# ---------------------------------------------------------------------------
# run command


def test_run_command_outputs(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_command(path, out) == EXIT_OK
    csv_path = out / "dogt.csv"
    manifest_path = out / "dogt.manifest.txt"
    assert csv_path.exists() and manifest_path.exists()
    assert "dogt:" in capsys.readouterr().out

    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == CSV_HEADER == ("iter,comm_rounds,residual,consensus_error,"
                                      "tracking_error,xi_norm_sq,lyapunov")
    assert all(not ln.endswith((" ", "\t")) and ln == ln.strip() for ln in lines)
    # 17-significant-digit floats: formatting the parsed value reproduces
    # the cell exactly.
    for cell in lines[1].split(",")[2:]:
        assert cell == f"{float(cell):.17g}"

    manifest = manifest_path.read_text()
    assert "graph.rho_w = 0.90108129915758" in manifest
    assert "algorithm.gamma_source = config" in manifest
    assert "derived.max_stepsize = " in manifest
    assert "result.reason = max_iters" in manifest


def test_run_command_auto_gamma_echoed(tmp_path):
    path = write_config(tmp_path, {"algorithm": {"name": "dogt", "gamma": "auto"}})
    out = tmp_path / "out"
    assert run_command(path, out) == EXIT_OK
    manifest = (out / "dogt.manifest.txt").read_text()
    assert "algorithm.gamma_source = auto" in manifest
    gamma_line = next(ln for ln in manifest.splitlines()
                      if ln.startswith("algorithm.gamma = "))
    stepsize_line = next(ln for ln in manifest.splitlines()
                         if ln.startswith("derived.max_stepsize = "))
    assert gamma_line.split(" = ")[1] == stepsize_line.split(" = ")[1]


def test_run_command_rejects_multi_algorithm_config(tmp_path):
    path = write_config(tmp_path, {
        "algorithm": None,
        "algorithms": [{"name": "dogt", "gamma": 0.1},
                       {"name": "dgda", "gamma": 0.1}]})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_run_command_divergence_exit(tmp_path):
    path = write_config(tmp_path, {"algorithm": {"name": "dgda", "gamma": 10.0},
                                   "run": {"max_iters": 2000, "tol": 0.0,
                                           "record_every": 100, "out_dir": "o"}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def test_verify_command_divergence_exit(tmp_path, capsys):
    # dogt at gamma 10 diverges at iteration 238, while recorded states
    # wait in a batch for their terms.
    overrides = verify_overrides(gamma=10.0, max_iters=2000)
    path = write_config(tmp_path, overrides)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == 3
    assert "non-finite iterate at iteration 238" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare command


@pytest.fixture()
def compare_config(tmp_path):
    return write_config(tmp_path, {
        "algorithm": None,
        "algorithms": [{"name": "dgda", "gamma": 0.1},
                       {"name": "dogda", "gamma": 0.1},
                       {"name": "dogt", "gamma": 0.1},
                       {"name": "adogt", "gamma": 0.1, "T": 4}],
        "run": {"max_iters": 1500, "tol": 1.0e-10, "record_every": 10,
                "out_dir": "unused"},
    })


def test_compare_command_report(compare_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert compare_command(compare_config, out) == EXIT_OK
    report = (out / "comparison.txt").read_text()
    lines = report.splitlines()
    assert lines[0].split() == ["algorithm", "final_residual",
                                "final_consensus_error", "iters_to_tol",
                                "comm_rounds", "fitted_rate"]
    cells = {ln.split()[0]: ln.split() for ln in lines[1:]}
    assert cells["dgda"][3] == "not_reached"
    assert cells["dogda"][3] == "not_reached"
    assert int(cells["dogt"][3]) < 1500
    assert int(cells["adogt"][3]) < int(cells["dogt"][3])
    # adogt pays T=4 rounds per iteration
    assert int(cells["adogt"][4]) == 4 * int(cells["adogt"][3])
    for name in ("dgda", "dogda", "dogt", "adogt"):
        assert (out / f"{name}.csv").exists()
        assert (out / f"{name}.manifest.txt").exists()


def test_compare_byte_identical_across_invocations(compare_config, tmp_path):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert compare_command(compare_config, out1) == EXIT_OK
    assert compare_command(compare_config, out2) == EXIT_OK
    for name in ("dgda", "dogda", "dogt", "adogt"):
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
    assert (out1 / "comparison.txt").read_bytes() == (out2 / "comparison.txt").read_bytes()


def test_compare_fitted_rate_of_an_overflowed_residual_is_na(tmp_path, capsys):
    # dgda at gamma 10 keeps z finite for 300 steps, but its residual
    # overflows to inf from iteration 160: no rate fits that window, so the
    # cell reads n/a, with no RuntimeWarning (an error under this suite).
    path = write_config(tmp_path, {"algorithm": {"name": "dgda", "gamma": 10.0},
                                   "run": {"max_iters": 300, "tol": 1.0e-10}})
    assert compare_command(path, tmp_path / "cmp") == EXIT_OK
    rows = (tmp_path / "cmp" / "comparison.txt").read_text().splitlines()
    assert rows[1].split() == ["dgda", "inf", "inf", "not_reached", "300", "n/a"]
    assert capsys.readouterr().err == ""


@pytest.fixture()
def one_cpu():
    """This process pinned to one CPU for the test, so that compare runs its
    algorithms in one lane, this process; the CPU mask is restored after."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.mark.usefixtures("one_cpu")
def test_compare_builds_each_exchange_once(tmp_path, monkeypatch, capsys):
    # resolve_experiment builds adogt's exchange, and each run mixes with its
    # resolved algorithm's object: one accelerated_matrix call per adogt
    # algorithm, counted wherever the package calls it.  verify's T2 on a
    # dogt trace still builds the exchange of T: auto, in one call.  The run
    # calls are counted in this process, so compare runs in one lane.
    built = []
    for module in (cli, algorithms, verify):
        def counted(W, T=None, original=module.accelerated_matrix):
            built.append(T)
            return original(W, T)
        monkeypatch.setattr(module, "accelerated_matrix", counted)
    resolved, traces = [], []

    def resolving(config, resolve=cli.resolve_experiment):
        resolved.append(resolve(config))
        return resolved[-1]

    def running(*args, **kwargs):
        traces.append(algorithms.run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "resolve_experiment", resolving)
    monkeypatch.setattr(cli, "run", running)
    config = Path(__file__).resolve().parents[1] / "configs" / "ring16_compare.yaml"
    assert compare_command(config, tmp_path / "cmp") == EXIT_OK
    (exp,) = resolved
    assert built == [4] and [a.name for a in exp.algorithms].count("adogt") == 1
    assert len(traces) == len(exp.algorithms) == 4
    for trace, algo in zip(traces, exp.algorithms):
        assert trace.mixing is algo.mixing
        assert (trace.mixing is exp.W) == (algo.name != "adogt")
    dogt = traces[[a.name for a in exp.algorithms].index("dogt")]
    report = verify.check_lemma(dogt, "T2_rho_M")
    assert built == [4, None]
    assert report.passed and report.margins["iteration"].tolist() == [0, 1]   # 1 is gated


SRC = Path(__file__).resolve().parents[1] / "src"
RING16_COMPARE = Path(__file__).resolve().parents[1] / "configs" / "ring16_compare.yaml"
MULTI_CPU = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="compare runs one lane on one CPU")


def diverging_compare_config(tmp_path):
    """dgda diverges at gamma 10 (iteration 309), and two names appear twice."""
    return write_config(tmp_path, {
        "algorithm": None,
        "algorithms": [{"name": "dgda", "gamma": 10.0}, {"name": "dogt", "gamma": 0.1},
                       {"name": "dgda", "gamma": 0.1},
                       {"name": "adogt", "gamma": 0.1, "T": 4},
                       {"name": "dogt", "gamma": 0.05}],
        "run": {"max_iters": 1500}}, name="diverging.yaml")


@MULTI_CPU
@pytest.mark.parametrize("diverging", [False, True])
def test_outputs_do_not_depend_on_the_lane_count(diverging, tmp_path):
    # One compare pinned to one CPU, so in one lane, and one on every CPU of
    # this process's mask: the same files, stdout and exit code.
    config = diverging_compare_config(tmp_path) if diverging else RING16_COMPARE
    cpu = min(os.sched_getaffinity(0))
    results = {}
    for lanes, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        proc = subprocess.run([sys.executable, "-m", "netsaddle", "compare", "--config",
                               str(config), "--out", str(tmp_path / lanes)],
                              env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=pin,
                              capture_output=True, timeout=120)
        results[lanes] = proc.returncode, proc.stdout
    assert results["one"] == results["all"] and results["one"][0] == EXIT_OK
    assert (b"dgda: diverged at iteration 309\n" in results["one"][1]) == diverging
    names = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "all").iterdir())
    assert "comparison.txt" in names and ("dgda-2.csv" in names) == diverging
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


# Runs compare with cli.run replaced as CASE says, counting the lanes forked,
# then reports on stderr whether this process has any child left.
LANE_SCRIPT = """
import os, sys, time
from netsaddle import algorithms, cli

case, config, out = sys.argv[1:]
parent, forks, fork = os.getpid(), [], os.fork

def run(kind, *args, **kwargs):
    if case == "raises" and kind == "dogt":
        raise RuntimeError("lane failure in dogt")
    if case == "exits":
        if os.getpid() != parent:
            os._exit(0)             # a child lane leaves without sending a result
        time.sleep(0.5)             # the parent's runs wait: a child takes one
    return algorithms.run(kind, *args, **kwargs)

def counted_fork():
    forks.append(os.getpid())
    return fork()

cli.run, os.fork = run, counted_fork
try:
    code = cli.main(["compare", "--config", config, "--out", out])
finally:
    print("forked", forks.count(parent), file=sys.stderr)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", file=sys.stderr)
sys.exit(code)
"""


def test_work_queue_hands_out_each_index_once():
    # More takers than CPUs share one queue: each index goes to exactly one
    # of them, as a lost update of the token would break.
    count = 500
    queue, takers = cli._WorkQueue(count), []
    try:
        for _ in range(2 * len(os.sched_getaffinity(0)) + 2):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(write_fd, "w") as sink:
                        while (index := queue.take()) is not None:
                            sink.write(f"{index}\n")
                finally:
                    os._exit(0)
            os.close(write_fd)
            takers.append((pid, open(read_fd)))
        taken = [int(line) for _, source in takers for line in source]
    finally:
        for pid, source in takers:
            source.close()
            assert os.waitpid(pid, 0)[1] == 0
        queue.close()
    assert sorted(taken) == list(range(count))


@MULTI_CPU
@pytest.mark.parametrize("case, exit_code", [("success", 0), ("diverges", 0), ("raises", 1),
                                             ("exits", 1)])
def test_no_lane_outlives_compare(case, exit_code, tmp_path):
    # A divergence is a row of the report; an exception in a lane, or a lane
    # that ends without a result, fails compare as any uncaught error does.
    # In each case compare ends, having forked one lane fewer than it runs,
    # and leaves no child behind.
    config = diverging_compare_config(tmp_path) if case == "diverges" else RING16_COMPARE
    lanes = min(len(os.sched_getaffinity(0)), len(load_config(config).algorithms))
    proc = subprocess.run([sys.executable, "-c", LANE_SCRIPT, case, str(config),
                           str(tmp_path / "out")], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    assert f"forked {lanes - 1}\nno child left\n" in proc.stderr
    if case == "raises":
        assert "RuntimeError: lane failure in dogt" in proc.stderr
    if case == "exits":
        assert "LaneError: no lane reported" in proc.stderr


@pytest.mark.parametrize("T", ["auto", 7])
def test_one_pass_over_the_spectrum_per_exchange(T, tmp_path, monkeypatch):
    # T: auto's search and its rho_M come from one pass of the momentum
    # recursion over W's spectrum, in resolve_experiment and in verify's T2
    # alike; T2 at a T other than T: auto's takes a second pass for it.  A
    # pass on W's 15 eigenvalues builds no M_T, which would show as a pass
    # on the 16 x 16 identity.
    passes = []

    def counted(mix, eta, message, original=graph._momentum_rounds):
        passes.append(message.shape)
        return original(mix, eta, message)

    monkeypatch.setattr(graph, "_momentum_rounds", counted)
    path = write_config(tmp_path, {"algorithm": {"name": "adogt", "gamma": "auto", "T": T}})
    exp = resolve_experiment(load_config(path))
    exchange = exp.algorithms[0].mixing
    assert passes == [(15,)] and "matrix" not in vars(exchange)
    assert exchange.rounds == (4 if T == "auto" else 7)
    for kind, mixing, want in (("dogt", exp.W, 1), ("adogt", exchange, 1 if T == "auto" else 2)):
        trace = algorithms.run(kind, exp.problem, mixing, 0.05, exp.z0, max_iters=3, tol=0.0)
        passes.clear()
        assert verify.check_lemma(trace, "T2_rho_M").passed
        assert passes == [(15,)] * want


def test_compare_homogeneous_from_saddle_terminates_immediately(tmp_path):
    # n=1 zero-sum instance has centers exactly zero; starting at the saddle
    # every algorithm stops at iteration 0 with residual 0.
    path = write_config(tmp_path, {
        "problem": {"n": 1},
        "graph": {"n": 1},
        "algorithm": None,
        "algorithms": [{"name": "dgda", "gamma": 0.1},
                       {"name": "dogda", "gamma": 0.1},
                       {"name": "dogt", "gamma": 0.1},
                       {"name": "adogt", "gamma": 0.1, "T": 2}],
        "init": {"kind": "zeros"},
    })
    out = tmp_path / "cmp"
    assert compare_command(path, out) == EXIT_OK
    for ln in (out / "comparison.txt").read_text().splitlines()[1:]:
        cells = ln.split()
        assert cells[1] == "0"       # final residual exactly zero
        assert cells[3] == "0"       # zero iterations to tol
    csv_lines = (out / "dogt.csv").read_text().splitlines()
    assert len(csv_lines) == 2       # header + initial record only


def test_compare_single_node_dogt_equals_dogda(tmp_path):
    path = write_config(tmp_path, {
        "problem": {"n": 1},
        "graph": {"n": 1},
        "algorithm": None,
        "algorithms": [{"name": "dogda", "gamma": 0.1},
                       {"name": "dogt", "gamma": 0.1}],
        "run": {"max_iters": 500, "tol": 1.0e-12, "record_every": 5,
                "out_dir": "unused"},
    })
    out = tmp_path / "cmp"
    assert compare_command(path, out) == EXIT_OK
    dogda_rows = (out / "dogda.csv").read_text().splitlines()[1:]
    dogt_rows = (out / "dogt.csv").read_text().splitlines()[1:]
    # Tracking is a no-op with one node: same trajectory up to the rounding
    # the tracker recursion accumulates ((g + g_new) - g vs g_new).
    assert len(dogda_rows) == len(dogt_rows)
    for row_a, row_b in zip(dogda_rows, dogt_rows):
        for cell_a, cell_b in zip(row_a.split(","), row_b.split(",")):
            va, vb = float(cell_a or "nan"), float(cell_b or "nan")
            if np.isnan(va) and np.isnan(vb):
                continue
            assert va == pytest.approx(vb, rel=1e-9, abs=1e-15)


def test_compare_reports_divergence_not_fatal(tmp_path, capsys):
    path = write_config(tmp_path, {
        "algorithm": None,
        "algorithms": [{"name": "dgda", "gamma": 10.0},
                       {"name": "dogt", "gamma": 0.1}],
        "run": {"max_iters": 2000, "tol": 1.0e-10, "record_every": 100,
                "out_dir": "unused"},
    })
    out = tmp_path / "cmp"
    assert compare_command(path, out) == EXIT_OK
    report = (out / "comparison.txt").read_text()
    assert "diverged@" in report
    assert (out / "dogt.csv").exists()
    assert not (out / "dgda.csv").exists()


def test_compare_duplicate_names_get_suffixes(tmp_path):
    path = write_config(tmp_path, {
        "algorithm": None,
        "algorithms": [{"name": "dogt", "gamma": 0.1},
                       {"name": "dogt", "gamma": 0.05}],
        "run": {"max_iters": 50, "tol": 0.0, "record_every": 10,
                "out_dir": "unused"},
    })
    out = tmp_path / "cmp"
    assert compare_command(path, out) == EXIT_OK
    assert (out / "dogt.csv").exists()
    assert (out / "dogt-2.csv").exists()


# ---------------------------------------------------------------------------
# verify command


def verify_overrides(gamma="auto", record_states=True, max_iters=400):
    return {
        "algorithm": {"name": "dogt", "gamma": gamma},
        "run": {"max_iters": max_iters, "tol": 0.0, "record_every": 1,
                "record_states": record_states, "out_dir": "unused"},
    }


def test_verify_command_all_checks_pass(tmp_path, capsys):
    path = write_config(tmp_path, verify_overrides())
    out = tmp_path / "ver"
    assert verify_command(path, out) == EXIT_OK
    checks = (out / "checks.txt").read_text()
    assert checks.count("passed") == 6
    assert "FAILED" not in checks
    margins = (out / "check_margins.csv").read_text().splitlines()
    assert margins[0] == "lemma_id,iteration,margin"
    assert len(margins) > 4 * 400  # four per-step checks plus T2 rows


def test_verify_command_checks_every_step_of_a_long_run(tmp_path, capsys):
    # Only a few floats per step are kept, so runs past 5000 steps are checked too.
    path = write_config(tmp_path, verify_overrides(max_iters=6000))
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
    rows = (out / "check_margins.csv").read_text().splitlines()[1:]
    per_check = Counter(row.split(",")[0] for row in rows)
    for lemma_id in ("L1_iterate_gap", "L2_consensus", "L3_tracking",
                     "L4_optimality_gap", "T1_contraction"):
        assert per_check[lemma_id] == 6000, lemma_id


def test_verify_command_noncompliant_gamma_exit(tmp_path, capsys):
    path = write_config(tmp_path, verify_overrides(gamma=0.1))
    out = tmp_path / "ver"
    assert verify_command(path, out) == EXIT_PRECONDITION
    checks = (out / "checks.txt").read_text()
    assert checks.count("PRECONDITION VIOLATED") == 3  # L3, L4, T1
    assert "L1_iterate_gap: passed" in checks
    assert "L2_consensus: passed" in checks


def test_verify_command_run_with_no_steps(tmp_path, capsys):
    # tol 1e9 stops the run at iteration 0: the per-step checks have no step
    # to check, which is their precondition, not a crash.
    overrides = verify_overrides(gamma=0.1)
    overrides["run"]["tol"] = 1.0e9
    path = write_config(tmp_path, overrides)
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_PRECONDITION
    checks = (out / "checks.txt").read_text().splitlines()
    for lemma_id in ("L1_iterate_gap", "L2_consensus", "L3_tracking",
                     "L4_optimality_gap", "T1_contraction"):
        assert f"{lemma_id}: PRECONDITION VIOLATED (no steps recorded)" in checks
    assert checks[5].startswith("T2_rho_M: passed")
    rows = (out / "check_margins.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"T2_rho_M"}
    assert "tol_reached after 0 iterations" in capsys.readouterr().out


@pytest.mark.parametrize("n", [68, 100, 128, 256, 1024])
def test_verify_meets_T2_at_T_auto_on_long_rings(n, tmp_path):
    # The formula's T left rho_M between 0.53 and 0.55 on these rings, and
    # verify exited 6; T: auto now goes on to the first T with rho_M <= 1/2.
    path = write_config(tmp_path, {"problem": {"n": n}, "graph": {"n": n},
                                   "algorithm": {"gamma": "auto"},
                                   "run": {"max_iters": 3, "tol": 0.0, "record_every": 1}})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
    checks = (out / "checks.txt").read_text()
    assert "T2_rho_M: passed" in checks and "margin 1 gates" in checks


def test_ring400_adogt_and_verify_build_no_dense_M_T(tmp_path, monkeypatch, capsys):
    # A 400-node ring gathers.  adogt at T: auto and dogt's verify, whose T2
    # reads rho_M, then need W's eigenvalues only: no momentum gossip runs on
    # an n x n message, so no M_T is built.
    n = 400
    shapes, gossip = [], graph.momentum_gossip

    def spied(mix, eta, T, message):
        shapes.append(message.shape)
        return gossip(mix, eta, T, message)

    monkeypatch.setattr(graph, "momentum_gossip", spied)
    ring = {"problem": {"n": n}, "graph": {"n": n},
            "run": {"max_iters": 5, "tol": 0.0, "record_every": 1}}
    adogt = write_config(tmp_path, {**ring, "algorithm": {"T": "auto", "name": "adogt"}},
                         "adogt.yaml")
    verify = write_config(tmp_path, {**ring, "algorithm": {"gamma": "auto"}}, "verify.yaml")
    assert main(["run", "--config", str(adogt), "--out", str(tmp_path / "run")]) == EXIT_OK
    # T: auto meets T2's half gap here too (T = 84, where the formula gives 77).
    assert main(["verify", "--config", str(verify), "--out", str(tmp_path / "verify")]) == EXIT_OK
    assert (n, 4) in shapes and (n, n) not in shapes

    exp = resolve_experiment(load_config(adogt))
    assert isinstance(exp.W.mix, CSRMix)
    exchange = exp.algorithms[0].mixing
    m = np.random.default_rng(0).standard_normal((n, 4))
    want = ref.chebyshev_matrix(exp.W.W, exchange.rounds, exchange.eta) @ m
    assert np.linalg.norm(exchange.mix(m) - want) <= 1e-12 * np.linalg.norm(want)


def test_verify_command_requires_dogt(tmp_path):
    path = write_config(tmp_path, {
        "algorithm": {"name": "dgda", "gamma": "auto"},
        "run": {"max_iters": 100, "tol": 0.0, "record_every": 1,
                "record_states": True, "out_dir": "unused"}})
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "v")]) == EXIT_CONFIG


def test_verify_command_rejects_record_states_false(tmp_path):
    path = write_config(tmp_path, verify_overrides(record_states=False))
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "v")]) == EXIT_CONFIG


def test_verify_command_resolves_unset_record_states(tmp_path, capsys):
    overrides = verify_overrides()
    overrides["run"]["record_states"] = None
    path = write_config(tmp_path, overrides)
    assert verify_command(path, tmp_path / "v") == EXIT_OK
    assert "record_states: resolved to true" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# trace CSVs


@pytest.mark.parametrize("lyapunov", [True, False])
def test_trace_csv_rows_are_the_fields_formatted_one_by_one(lyapunov, tmp_path):
    # Each row is one %-format string; it must write what formatting each
    # field on its own writes, for every kind of float.  The run's rho, not
    # the cells, decides whether the lyapunov column stays empty: every cell
    # holds a value.
    from netsaddle.cli import _fmt, write_trace_csv
    from netsaddle.metrics import record_table
    values = [0.0, -0.0, 1.0, 1 / 3, 5e-324, 1.7976931348623157e308, 1e16, 1e-5,
              float("inf"), float("-inf"), float("nan"), 2.5e-11]
    table = record_table(len(values), 4)
    for k, v in enumerate(values):
        table[k] = (10 * k, 40 * k, v, -v, v * 3, v / 7, v, 0.0, 0.0, 0.0)
    trace = SimpleNamespace(records=table.view(np.recarray), rho=0.5 if lyapunov else 1.0)
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace)
    expected = [CSV_HEADER, *(",".join([str(10 * k), str(40 * k),
                                        *(_fmt(cell) for cell in (
                                            v, -v, v * 3, v / 7,
                                            v if lyapunov else None))])
                              for k, v in enumerate(values))]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_trace_csv_is_written_in_chunks_of_rows(tmp_path, monkeypatch):
    # A trace longer than a chunk of rows gives the bytes of one chunk.
    from netsaddle import metrics
    from netsaddle.cli import write_trace_csv
    path = write_config(tmp_path, {"run": {"record_every": 1}})
    exp = resolve_experiment(load_config(path))
    trace = algorithms.run("dogt", exp.problem, exp.W, 0.1, exp.z0, max_iters=200, tol=0.0)
    write_trace_csv(tmp_path / "one.csv", trace)
    monkeypatch.setattr(metrics, "_CSV_CHUNK_ROWS", 7)
    write_trace_csv(tmp_path / "chunked.csv", trace)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def trace_csv_row_by_row(trace, record_every):
    """The trace CSV with every row formatted on its own, cell by cell: the
    oracle of write_trace_csv, whose rows at the end may share one format."""
    records = trace.records
    lines = [CSV_HEADER]
    for k, record in enumerate(records):
        if record["iteration"] % record_every == 0 or k == len(records) - 1:
            lines.append(",".join(cli._fmt(record[column]) if cli._defined(trace, column)
                                  else "" for column in cli.CSV_COLUMNS.values()))
    return ("\n".join(lines) + "\n").encode()


COMPARE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ring16_compare.yaml"


@pytest.mark.parametrize("kind,overrides,record_every,fixed_point", [
    # The compare config's dgda: a fixed point at 7439, between two grid
    # rows at record_every 10 and 7; max_iters 10000 is off the grid of 7.
    ("dgda", {}, 10, 7439),
    ("dgda", {}, 7, 7439),
    ("dogt", {}, 10, None),                             # a tol stop at 838, off the grid
    ("adogt", {"T": 1, "max_iters": 300}, 7, None),      # rho_M >= 1: lyapunov stays empty
])
def test_a_trace_csv_is_its_rows_formatted_one_by_one(kind, overrides, record_every,
                                                      fixed_point, tmp_path, monkeypatch):
    exp = resolve_experiment(load_config(COMPARE_CONFIG))
    algo = next(a for a in exp.algorithms if a.name == kind)
    mixing = graph.accelerated_matrix(exp.W, overrides["T"]) if "T" in overrides else algo.mixing
    trace = algorithms.run(kind, exp.problem, mixing, algo.gamma, exp.z0,
                           max_iters=overrides.get("max_iters", 10000), tol=1e-10,
                           record_every=record_every)
    assert trace.fixed_point == fixed_point
    assert (trace.rho >= 1.0) == (kind == "adogt")
    lengths, chunks = [], cli.csv_chunks

    def counted(row, table, names):
        lengths.append(len(table))
        return chunks(row, table, names)

    monkeypatch.setattr(cli, "csv_chunks", counted)
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(path, trace, record_every)
    assert path.read_bytes() == trace_csv_row_by_row(trace, record_every)
    # The rows from the fixed point on share one format: on dgda's grid of
    # 10, 257 of 1001 rows.
    iterations = trace.records.iteration
    written = (iterations % record_every == 0) | (iterations == iterations[-1])
    tail = (written & (iterations >= fixed_point)).sum() if fixed_point else 1
    assert lengths[-1] >= tail and sum(lengths) == written.sum()
    if (kind, record_every) == ("dgda", 10):
        assert lengths == [744, 257]


# ---------------------------------------------------------------------------
# shipped configs and entry point


def test_shipped_configs_parse():
    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("ring16_compare.yaml", "ring16_verify.yaml", "ring16_dogt.yaml"):
        config = load_config(root / name)
        assert config.problem.n == 16


@pytest.mark.parametrize("command,every_step,overrides", [
    (run_command, False, {}),
    (compare_command, False, {"algorithm": None,
                              "algorithms": [{"name": "dgda", "gamma": 0.1},
                                             {"name": "dogt", "gamma": 0.1}]}),
    (verify_command, True, verify_overrides()),
])
def test_only_verify_builds_the_term_table(command, every_step, overrides, tmp_path,
                                           monkeypatch):
    # Only verify's checks need a row for every step, so only verify runs at
    # record_every 1; run and compare record on the config's grid, whatever
    # record_states says, and the manifest still echoes the key.
    overrides = {**overrides, "run": {**overrides.get("run", {}), "record_every": 5,
                                      "record_states": True}}
    seen = []

    def recording_run(*args, record_every, **kwargs):
        seen.append(record_every)
        return algorithms.run(*args, record_every=record_every, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    command(write_config(tmp_path, overrides), tmp_path / "out")
    assert seen and set(seen) == {1 if every_step else 5}
    manifests = sorted((tmp_path / "out").glob("*.manifest.txt"))
    assert manifests
    for path in manifests:
        assert "run.record_states = true" in path.read_text().splitlines()
    for path in (tmp_path / "out").glob("*.csv"):
        if path.name != "check_margins.csv":
            assert {int(line.split(",")[0]) % 5 for line in
                    path.read_text().splitlines()[1:-1]} == {0}


def test_verify_writes_the_trace_csv_of_run(tmp_path, capsys):
    # verify records every step and writes the CSV on the config's grid:
    # record_every 7 and a tol stop at 838, off that grid, give the bytes of
    # run, whose final row is the stop.
    path = write_config(tmp_path, {"run": {"max_iters": 5000, "tol": 1e-10,
                                           "record_every": 7}})
    assert run_command(path, tmp_path / "run") == EXIT_OK
    assert verify_command(path, tmp_path / "verify") == EXIT_PRECONDITION
    csv = (tmp_path / "run" / "dogt.csv").read_bytes()
    assert (tmp_path / "verify" / "dogt.csv").read_bytes() == csv
    assert csv.splitlines()[-1].startswith(b"838,838,")


def test_verify_memory_is_the_record_table(tmp_path, capsys):
    # 20000 steps of ring-16 make a 2.4 MB record table.  Rows built as
    # Python objects, or CSV text joined into one string, would cost several
    # times that.
    import tracemalloc
    path = write_config(tmp_path, verify_overrides(max_iters=20000))
    resolve_experiment(load_config(path))      # imports and caches outside the peak
    tracemalloc.start()
    try:
        assert verify_command(path, tmp_path / "ver") == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_main_dispatches_run(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "dogt.csv").exists()
