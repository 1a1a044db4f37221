from collections import Counter

import numpy as np
import pytest
import yaml

from netsaddle import algorithms, cli
from netsaddle.cli import (CSV_HEADER, EXIT_CONFIG, EXIT_OK,
                           EXIT_PRECONDITION, ConfigError, compare_command,
                           load_config, main, resolve_experiment, run_command,
                           verify_command)
from netsaddle.metrics import max_stepsize
from netsaddle.problem import BilinearQuadratic, make_bilinear_quadratic

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
                      {"init": {"scale": inf}}):
        path = write_config(tmp_path, overrides)
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG, overrides
        assert not out.exists()


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
    assert algo.T == 4 and algo.T_source == "auto"
    assert algo.gamma == max_stepsize(exp.L, algo.rho_effective)
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
    assert lines[0] == CSV_HEADER
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
# traces without a known saddle point


class _NoSaddle(BilinearQuadratic):
    """Same dynamics, but pretends the saddle point is unknown."""

    def saddle_point(self):
        return None


def test_trace_csv_without_saddle_point(tmp_path):
    from netsaddle.algorithms import run as run_algo
    from netsaddle.cli import write_trace_csv
    from netsaddle.graph import build_topology, metropolis_weights
    base = make_bilinear_quadratic(4, 2, 2, 0.1, seed=3)
    prob = _NoSaddle(centers_a=base.centers_a, centers_b=base.centers_b,
                     mu=base.mu, seed=base.seed, zero_sum=base.zero_sum)
    W = metropolis_weights(build_topology("ring", 4))
    trace = run_algo("dogt", prob, W, 0.1, np.zeros((4, 4)), max_iters=30,
                     tol=1e-10, record_every=10)
    # No residual means tol can never fire; the run goes the distance.
    assert trace.reason == "max_iters" and trace.iterations == 30
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[2] == "" and cells[5] == "" and cells[6] == ""  # residual, xi, lyapunov
        assert cells[3] != "" and cells[4] != ""                     # consensus, tracking


# ---------------------------------------------------------------------------
# shipped configs and entry point


def test_shipped_configs_parse():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("ring16_compare.yaml", "ring16_verify.yaml", "ring16_dogt.yaml"):
        config = load_config(root / name)
        assert config.problem.n == 16


@pytest.mark.parametrize("command,record_states,overrides", [
    (run_command, False, {}),
    (compare_command, False, {"algorithm": None,
                              "algorithms": [{"name": "dgda", "gamma": 0.1},
                                             {"name": "dogt", "gamma": 0.1}]}),
    (verify_command, True, verify_overrides()),
])
def test_only_verify_builds_the_term_table(command, record_states, overrides, tmp_path,
                                           monkeypatch):
    # run and compare read nothing from the term table, so they do not build
    # it even with record_states: true; the manifest still echoes the key.
    overrides = {**overrides, "run": {**overrides.get("run", {}), "record_states": True}}
    seen = []

    def recording_run(*args, record_states, **kwargs):
        seen.append(record_states)
        return algorithms.run(*args, record_states=record_states, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    command(write_config(tmp_path, overrides), tmp_path / "out")
    assert seen and set(seen) == {record_states}
    manifests = sorted((tmp_path / "out").glob("*.manifest.txt"))
    assert manifests
    for path in manifests:
        assert "run.record_states = true" in path.read_text().splitlines()


def test_main_dispatches_run(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "dogt.csv").exists()
