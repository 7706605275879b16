"""Correctness gate: an op's outputs against the committed reference.

An op fails when it raises, when its exit code differs from the
reference, when its CSV header or its set of rows differs, when a
literal or oracle value present in both is off by more than 1e-8
relative, or when a reference PASS row is no longer PASS. A row that
goes from FLAGGED to ERROR is honest reporting and does not fail.
Seeds without a reference are checked for exit code, header and row set
only; byte identity across the ops of a run is checked for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-8
EXPECTED_EXIT = 2       # every workload has FLAGGED rows by design
REF_DIR = Path(__file__).resolve().parent / "refs"
CSV_HEADER = "T,quantity,literal,oracle,rel_dev,status"
CSV_FILES = {"classical": "classical.csv", "quantum": "quantum.csv"}


def read_table(kind: str, out_dir: Path) -> dict:
    """The rows an op wrote: {"header", "rows": {key: [literal, oracle, status]}}."""
    if kind == "verify":
        lines = (out_dir / "verify_matrix.txt").read_text(encoding="utf-8").splitlines()
        reports = json.loads((out_dir / "verify_reports.json").read_text(encoding="utf-8"))
        rows = {}
        for line, rep in zip(lines, reports, strict=True):
            status, rest = line[1:].split("] ", 1)
            key = rest.rsplit(" rel_dev=", 1)[0]
            rows[key] = [rep["literal"], rep["oracle"], status]
        return {"header": None, "rows": rows}
    lines = (out_dir / CSV_FILES[kind]).read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[1:]:
        t, name, literal, oracle, _rel, status = line.split(",")
        rows[f"{t},{name}"] = [float(literal) if literal else None,
                               float(oracle) if oracle else None, status]
    return {"header": lines[0], "rows": rows}


def digest(out_dir: Path) -> str:
    """Hash of every file an op wrote, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ref_path(kind: str, seed: int) -> Path:
    return REF_DIR / f"{kind}-seed{seed}.json"


def load_reference(kind: str, seed: int) -> dict | None:
    path = ref_path(kind, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_reference(kind: str, seed: int, exit_code: int, table: dict) -> Path:
    path = ref_path(kind, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps({"kind": kind, "seed": seed, "exit_code": exit_code,
                       "header": table["header"]})
    rows = ",\n".join(json.dumps([k, *v]) for k, v in table["rows"].items())
    path.write_text(f'{head[:-1]}, "rows": [\n{rows}\n]}}\n', encoding="utf-8")
    return path


def _off(value, ref) -> bool:
    if value is None or ref is None:
        return False
    if math.isnan(value) and math.isnan(ref):
        return False
    return not abs(value - ref) <= REL_TOL * abs(ref)


def check(exit_code: int, table: dict, expected_keys: list[str] | None,
          header: str | None, reference: dict | None) -> list[str]:
    """Reasons the op failed; empty when it passed."""
    problems = []
    want_exit = reference["exit_code"] if reference else EXPECTED_EXIT
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    want_header = reference["header"] if reference else header
    if table["header"] != want_header:
        problems.append(f"header {table['header']!r}, expected {want_header!r}")
    rows = table["rows"]
    if reference is not None:
        ref_rows = {k: (lit, ora, status) for k, lit, ora, status in reference["rows"]}
        if set(rows) != set(ref_rows):
            problems.append("row set differs from the reference")
        for key in sorted(set(rows) & set(ref_rows)):
            lit, ora, status = rows[key]
            r_lit, r_ora, r_status = ref_rows[key]
            if r_status == "PASS" and status != "PASS":
                problems.append(f"{key}: PASS became {status}")
            if status == "ERROR" and r_status == "FLAGGED":
                continue
            if _off(lit, r_lit) or _off(ora, r_ora):
                problems.append(f"{key}: value off by more than {REL_TOL} relative")
    if expected_keys is not None and set(rows) != set(expected_keys):
        problems.append("row set differs from the generated grid")
    return problems


def statuses(table: dict) -> dict[str, int]:
    counts = {"PASS": 0, "FLAGGED": 0, "ERROR": 0, "SKIPPED": 0}
    for _lit, _ora, status in table["rows"].values():
        counts[status] = counts.get(status, 0) + 1
    return counts
