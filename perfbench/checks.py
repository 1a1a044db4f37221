"""Output checks: a command's outputs against the reference made at the defining commit.

``summarize`` reduces one command's output directory to a JSON-able digest;
``make_reference.py`` stores the digests of every workload seed and
``compare`` checks a fresh digest against the stored one.

What must agree:
  - the exit code, exactly;
  - result.reason, result.iterations and result.comm_rounds of every manifest;
  - every check in checks.txt: its status and step count exactly, its min
    margin within PRINTED_RTOL (the file prints it to 6 significant digits);
  - every row of every CSV, cell by cell: text cells exactly, numbers within
    |a - b| <= RTOL |b| + ATOL.  ATOL covers quantities that sit at rounding
    level once a run has converged (consensus error ~1e-16).  The reference
    keeps numbers to REFERENCE_DIGITS significant digits, far inside RTOL.
Byte identity of the CSVs and manifests is only counted, never a failure.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

RTOL = 1e-7
ATOL = 1e-13
PRINTED_RTOL = 1e-5
REFERENCE_DIGITS = 10
MANIFEST_RESULT_KEYS = ("result.reason", "result.iterations", "result.comm_rounds")
_MIN_MARGIN = re.compile(r"\(min margin (\S+) over (\d+) steps\)$")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_digest(text: str) -> dict:
    header, *rows = text.splitlines()
    return {"header": header, "rows": [[_cell(c) for c in row.split(",")] for row in rows]}


def _manifest_results(text: str) -> dict:
    fields = dict(line.split(" = ", 1) for line in text.splitlines())
    return {key: fields.get(key) for key in MANIFEST_RESULT_KEYS}


def _checks(text: str) -> dict:
    checks = {}
    for line in text.splitlines():
        if line.startswith(" "):
            continue                   # indented note lines
        lemma_id, rest = line.split(": ", 1)
        found = _MIN_MARGIN.search(rest)
        checks[lemma_id] = {"status": rest.split(" (", 1)[0],
                            "min_margin": float(found[1]) if found else None,
                            "steps": int(found[2]) if found else None}
    return checks


def summarize(out_dir: Path, exit_code: int) -> dict:
    """Digest of one command's outputs, the unit the reference stores."""
    digest = {"exit_code": exit_code, "csv": {}, "manifests": {}, "checks": None,
              "sha256": {}}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        data = path.read_bytes()
        if path.name.endswith(".csv"):
            digest["csv"][path.name] = _csv_digest(data.decode())
        elif path.name.endswith(".manifest.txt"):
            digest["manifests"][path.name] = _manifest_results(data.decode())
        elif path.name == "checks.txt":
            digest["checks"] = _checks(data.decode())
        if path.name.endswith((".csv", ".manifest.txt")):
            digest["sha256"][path.name] = hashlib.sha256(data).hexdigest()
    return digest


def rounded(digest: dict) -> dict:
    """``digest`` with every CSV number cut to REFERENCE_DIGITS significant digits."""
    def cut(cell):
        return float(f"{cell:.{REFERENCE_DIGITS}g}") if isinstance(cell, float) else cell

    csv = {name: {"header": table["header"],
                  "rows": [[cut(cell) for cell in row] for row in table["rows"]]}
           for name, table in digest["csv"].items()}
    return {**digest, "csv": csv}


def _close(got, want, rtol: float) -> bool:
    if got == want:
        return True
    if not (isinstance(got, float) and isinstance(want, float)):
        return False
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want) + ATOL


def _checks_problems(got: dict | None, want: dict | None) -> list[str]:
    if got is None or want is None or sorted(got) != sorted(want):
        return [] if got == want else [f"checks.txt: {got} != {want}"]
    return [f"checks.txt {lemma_id}: {got[lemma_id]} != {w}" for lemma_id, w in want.items()
            if (got[lemma_id]["status"], got[lemma_id]["steps"]) != (w["status"], w["steps"])
            or not _close(got[lemma_id]["min_margin"], w["min_margin"], PRINTED_RTOL)]


def compare(got: dict, want: dict) -> list[str]:
    """Every disagreement between two digests, as readable lines; empty if none."""
    problems = []
    if got["exit_code"] != want["exit_code"]:
        problems.append(f"exit code {got['exit_code']}, expected {want['exit_code']}")
    if got["manifests"] != want["manifests"]:
        problems.append(f"manifests: {got['manifests']} != {want['manifests']}")
    problems += _checks_problems(got["checks"], want["checks"])
    if sorted(got["csv"]) != sorted(want["csv"]):
        problems.append(f"csv files {sorted(got['csv'])} != {sorted(want['csv'])}")
    for name in sorted(set(got["csv"]) & set(want["csv"])):
        g, w = got["csv"][name], want["csv"][name]
        if (g["header"], len(g["rows"])) != (w["header"], len(w["rows"])):
            problems.append(f"{name}: {len(g['rows'])} rows, expected {len(w['rows'])}")
            continue
        for index, (got_row, want_row) in enumerate(zip(g["rows"], w["rows"])):
            if len(got_row) != len(want_row) or not all(
                    _close(a, b, RTOL) for a, b in zip(got_row, want_row)):
                problems.append(f"{name} row {index}: {got_row} != {want_row}")
    return problems


def byte_identical(got: dict, want: dict) -> int:
    """Number of CSVs and manifests whose bytes equal the reference's."""
    return sum(got["sha256"].get(name) == digest for name, digest in want["sha256"].items())


def write_reference(path: Path, data: dict) -> None:
    # mtime=0 makes the compressed bytes depend on the data alone.
    path.write_bytes(gzip.compress(json.dumps(data, sort_keys=True).encode(),
                                   compresslevel=9, mtime=0))


def read_reference(path: Path) -> dict:
    return json.loads(gzip.decompress(path.read_bytes()))
