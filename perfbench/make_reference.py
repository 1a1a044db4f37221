"""Regenerate the stored reference outputs: reference/<workload>.json.gz.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's command once for every workload seed and stores the
digest of its outputs, numbers cut to checks.REFERENCE_DIGITS significant
digits (see checks.py).  The stored files are the yardstick
every benchmark run is checked against, so regenerate them only at a
commit whose outputs are known to be right, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(ROOT / "src"))

import yaml  # noqa: E402

import checks  # noqa: E402
from netsaddle import cli  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def reference(workload, work_dir: Path) -> dict:
    seeds = {}
    config_path = work_dir / "config.yaml"
    out_dir = work_dir / "out"
    for w in range(REFERENCE_SEEDS):
        shutil.rmtree(out_dir, ignore_errors=True)
        config_path.write_text(yaml.safe_dump(workload.make_config(w), sort_keys=False))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([workload.command, "--config", str(config_path),
                             "--out", str(out_dir)])
        if code != 0:
            raise SystemExit(f"{workload.name} seed {w}: exit {code}, expected 0")
        seeds[str(w)] = checks.rounded(checks.summarize(out_dir, code))
        print(f"{workload.name} seed {w}: done", file=sys.stderr)
    return {"workload": workload.name, "rtol": checks.RTOL, "atol": checks.ATOL,
            "digits": checks.REFERENCE_DIGITS, "seeds": seeds}


def main(names) -> None:
    work_dir = ROOT / ".perfbench-out" / "make-reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    (HERE / "reference").mkdir(exist_ok=True)
    try:
        for name in names or WORKLOADS:
            checks.write_reference(HERE / "reference" / f"{name}.json.gz",
                                   reference(WORKLOADS[name], work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
