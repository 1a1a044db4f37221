"""The benchmark's workloads, run through the CLI, still give the reference outputs.

The benchmark checks every command it times against the digests stored in
``perfbench/reference`` (``checks.compare``: exit code, manifest results,
checks.txt, and every CSV cell within RTOL / ATOL).  These tests make the
same check in the test suite, so a change that moves an output past those
tolerances fails here before it reaches the benchmark.  perfbench is only
imported, as in ``test_bench_contract.py``.
"""

import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from netsaddle import cli  # noqa: E402

# ring16-compare runs adogt, whose exchange is the one output that rounding
# of the mixing order moves, so every workload seed of it is checked.
CASES = ([("ring16-compare", w) for w in range(workloads.REFERENCE_SEEDS)]
         + [("ring16-verify", 0), ("random1024-dogt", 0)])


def workload_config_texts():
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for w in range(workloads.REFERENCE_SEEDS):
            yield f"{name}-{w}", yaml.safe_dump(workload.make_config(w), sort_keys=False)


def shipped_config_texts():
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        yield path.name, path.read_text()


def test_both_yaml_loaders_give_equal_mappings():
    texts = list(shipped_config_texts()) + list(workload_config_texts())
    assert len(texts) == 3 + len(workloads.WORKLOADS) * workloads.REFERENCE_SEEDS
    for label, text in texts:
        fast = yaml.load(text, Loader=cli.YAML_LOADER)
        plain = yaml.load(text, Loader=yaml.SafeLoader)
        # repr tells 1 from 1.0 and a string from a number, where == does not.
        assert fast == plain and repr(fast) == repr(plain), label


@pytest.mark.parametrize("name,w", CASES)
def test_workload_outputs_match_the_reference(name, w, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(workload.make_config(w), sort_keys=False))
    out = tmp_path / "out"
    code = cli.main([workload.command, "--config", str(config), "--out", str(out)])
    want = checks.read_reference(ROOT / "perfbench" / "reference" / f"{name}.json.gz")
    assert checks.compare(checks.summarize(out, code), want["seeds"][str(w)]) == []
