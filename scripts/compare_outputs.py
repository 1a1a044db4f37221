#!/usr/bin/env python3
"""Check that two checkouts give byte-identical command outputs.

    python scripts/compare_outputs.py OTHER_CHECKOUT

It runs the committed configs (``configs/ring16_compare.yaml`` with
``compare``, ``ring16_dogt.yaml`` with ``run``, ``ring16_verify.yaml`` with
``verify``), the configs GENERATED from them and the benchmark's workloads
(``perfbench/workloads.py``, each with its own command) at workload seeds 0
to REFERENCE_SEEDS - 1, through ``netsaddle.cli.main``, in this checkout and
in OTHER_CHECKOUT, another checkout of this repository such as a clone at an
earlier commit.  Both run the configs of this checkout, written once to the
same files.  Each command runs in a fresh process on the checkout's
``src/``, with BLAS pinned to one thread as in perfbench.

For every case it prints whether the exit codes, the stdout text and the
bytes of every output file agree, one line each, and it exits 1 on any
difference, 0 when all agree.  Under an output that differs it prints by
how much: for a CSV with the same header and rows, the largest relative
difference |a - b| / max(|a|, |b|) in each column that differs, the row
it is in and the two values there; for the stdout and every other file
(manifests, reports), the lines that ``difflib`` does not match, the
other's after "-" and this checkout's after "+".  perfbench is only
imported, as in ``tests/test_workload_outputs.py``.
"""

from __future__ import annotations

from _bench import ROOT, measured_in_fresh_process  # first: pins BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import difflib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

COMMITTED = {"ring16_compare.yaml": "compare", "ring16_dogt.yaml": "run",
             "ring16_verify.yaml": "verify"}

# label -> (committed config, command, blocks updated in it, replaced where
# given as a list, or removed where given as None): graphs whose kinds have
# their own edges and closed-form spectra, a complete graph's verify (which
# exits 6), the ring of three (a complete graph), one node, adogt's T: auto
# on a long ring, the defaults of the init and run blocks, and random
# graphs, whose gaps come from Lanczos, under all four methods and verify.
GENERATED = {
    "path12-lazy": ("ring16_compare.yaml", "compare", {
        "problem": {"n": 12},
        "graph": {"topology": "path", "n": 12, "weight_scheme": "lazy_max_degree"}}),
    "star9": ("ring16_compare.yaml", "compare", {
        "problem": {"n": 9}, "graph": {"topology": "star", "n": 9}}),
    "complete7-verify": ("ring16_verify.yaml", "verify", {
        "problem": {"n": 7}, "graph": {"topology": "complete", "n": 7},
        "run": {"max_iters": 500}}),
    "ring3": ("ring16_compare.yaml", "compare", {"problem": {"n": 3}, "graph": {"n": 3}}),
    "ring1": ("ring16_compare.yaml", "compare", {"problem": {"n": 1}, "graph": {"n": 1}}),
    "ring400-adogt-auto": ("ring16_dogt.yaml", "run", {
        "problem": {"n": 400}, "graph": {"n": 400},
        "algorithm": {"name": "adogt", "gamma": 0.1, "T": "auto"},
        "run": {"max_iters": 5}}),
    "ring16-dogt-defaults": ("ring16_dogt.yaml", "run", {"init": None, "run": None}),
    "random256-compare": ("ring16_compare.yaml", "compare", {
        "problem": {"n": 256},
        "graph": {"topology": "random", "n": 256, "seed": 3, "edge_probability": 0.05},
        "algorithms": [{"name": "dgda", "gamma": 0.1}, {"name": "dogda", "gamma": 0.1},
                       {"name": "dogt", "gamma": 0.1},
                       {"name": "adogt", "gamma": 0.1, "T": "auto"}],
        "run": {"max_iters": 2000}}),
    "random64-verify": ("ring16_verify.yaml", "verify", {
        "problem": {"n": 64},
        "graph": {"topology": "random", "n": 64, "seed": 3, "edge_probability": 0.15}}),
}


def run_command(src: Path, command: str, config: str, out: str) -> dict:
    """The exit code and stdout of ``netsaddle COMMAND --config CONFIG --out OUT``
    on the package under ``src``, run in this process."""
    sys.path.insert(0, str(src))
    from netsaddle import cli

    if Path(cli.__file__).resolve().parent != src.resolve() / "netsaddle":
        raise SystemExit(f"imported netsaddle from {cli.__file__}, not {src}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, "--config", config, "--out", out])
    return {"exit_code": code, "stdout": stdout.getvalue()}


def cases(configs: Path):
    """(label, command, config file) of every case, each config written under ``configs``."""
    for name, command in COMMITTED.items():
        yield name.removesuffix(".yaml"), command, ROOT / "configs" / name
    for label, (name, command, blocks) in GENERATED.items():
        config = yaml.safe_load((ROOT / "configs" / name).read_text())
        for block, values in blocks.items():
            if values is None:
                del config[block]
            elif isinstance(values, list):
                config[block] = values
            else:
                config[block].update(values)
        path = configs / f"{label}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        yield label, command, path
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for w in range(workloads.REFERENCE_SEEDS):
            path = configs / f"{name}-{w}.yaml"
            path.write_text(yaml.safe_dump(workload.make_config(w), sort_keys=False))
            yield f"{name}-{w}", workload.command, path


def relative_difference(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two CSV fields, 0 where their text agrees,
    and inf where either is not a finite number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_differences(mine: str, other: str) -> list[str] | None:
    """Per column that differs, its largest relative difference, the row it
    is in and the two values there; None where the two CSVs differ in header
    or row count."""
    mine_rows, other_rows = (list(csv.reader(io.StringIO(text))) for text in (mine, other))
    if (not mine_rows or not other_rows or mine_rows[0] != other_rows[0]
            or len(mine_rows) != len(other_rows)
            or any(len(a) != len(b) for a, b in zip(mine_rows, other_rows))):
        return None
    lines = []
    for c, name in enumerate(mine_rows[0]):
        worst, row = max(((relative_difference(a[c], b[c]), r) for r, (a, b)
                          in enumerate(zip(mine_rows[1:], other_rows[1:]), start=1)),
                         default=(0.0, 0))
        if worst:
            lines.append(f"{name}: largest relative difference {worst:.3g}, in row {row} "
                         f"({mine_rows[row][c]} against {other_rows[row][c]})")
    return lines


def line_differences(mine: str, other: str) -> list[str]:
    """The lines of two texts that ``difflib`` does not match between them:
    "-" the other checkout's, "+" this one's, so that a line one text lacks
    is one line here, not a shift of every line after it."""
    theirs, ours = other.splitlines(), mine.splitlines()
    matcher = difflib.SequenceMatcher(None, theirs, ours, autojunk=False)
    return [line for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal"
            for line in [f"- {a}" for a in theirs[i1:i2]] + [f"+ {b}" for b in ours[j1:j2]]]


def differences(name: str, mine: str, other: str) -> list[str]:
    """How two differing texts of one output differ: per column for a CSV
    whose header and rows agree, else line by line."""
    lines = csv_differences(mine, other) if name.endswith(".csv") else None
    return line_differences(mine, other) if lines is None else lines


def compared_outputs(ours: dict, theirs: dict, out: Path, other_out: Path) -> list:
    """(output, whether both checkouts gave its bytes, how they differ) for
    the exit code, stdout and every file either checkout wrote."""
    compared = [("exit code", ours["exit_code"] == theirs["exit_code"],
                 [f"+ {ours['exit_code']}", f"- {theirs['exit_code']}"]),
                ("stdout", ours["stdout"] == theirs["stdout"],
                 line_differences(ours["stdout"], theirs["stdout"]))]
    files = sorted({path.relative_to(root) for root in (out, other_out) if root.is_dir()
                    for path in root.rglob("*") if path.is_file()})
    for rel in files:
        mine, other = out / rel, other_out / rel
        if not (mine.is_file() and other.is_file()):
            compared.append((str(rel), False, ["written by one checkout only"]))
            continue
        same = mine.read_bytes() == other.read_bytes()
        compared.append((str(rel), same, None if same else
                         differences(rel.name, mine.read_text(), other.read_text())))
    return compared


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--measure"]:   # one command in a fresh process, started below
        print(json.dumps(run_command(Path(argv[1]), *argv[2:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="another checkout to compare this one with")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "netsaddle" / "cli.py").is_file():
        parser.error(f"no netsaddle sources under {args.other / 'src'}")

    agreed = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        for label, command, config in cases(tmp / "configs"):
            out, other_out = tmp / "this" / label, tmp / "other" / label
            ours = measured_in_fresh_process(__file__, ROOT, command, config, out)
            theirs = measured_in_fresh_process(__file__, args.other, command, config, other_out)
            for item, same, how in compared_outputs(ours, theirs, out, other_out):
                print(f"{'same' if same else 'DIFFERS':8} {label:20} {item}", flush=True)
                if not same:
                    for line in how:
                        print(f"{'':30}{line}", flush=True)
                agreed.append(same)
    differing = agreed.count(False)
    print(f"{differing} of {len(agreed)} outputs differ" if differing
          else f"all {len(agreed)} outputs are byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
