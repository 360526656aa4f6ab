"""Correctness gate: turns one iteration's outputs into attempted and
failed operation counts.

CLI workloads: an operation is a graded row; it fails when it reads FAIL.
A run that exits with anything but 0 (all consistent) or 2 (FAIL rows
present), writes no summary.json, reports an exit code in summary.json
other than its own, or leaves a set of files or a row count other than
the default grid's counts all expected rows as failed.

oracle_crosscheck: an operation is a cell; it fails when its KS statistic
reaches the limit, when any Jacobian operator norm exceeds its bound, or
when the cell raised.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field

from workloads import (CHECKS, EXPECTED_FILES, EXPECTED_ROWS,
                       JACOBIAN_CELLS, KS_CELLS, KS_LIMIT)


@dataclass
class Grade:
    attempted: int
    failed: int
    inconclusive: int = 0
    digest: str | None = None
    problems: list = field(default_factory=list)


def digest(out_dir: str) -> str:
    """sha256 over every file of out_dir: names in sorted order, then bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def grade_cli(out_dir: str, returncode: int) -> Grade:
    everything = Grade(EXPECTED_ROWS, EXPECTED_ROWS)
    summary_path = os.path.join(out_dir, "summary.json")
    if returncode not in (0, 2):
        everything.problems.append(f"exit code {returncode}")
        return everything
    if not os.path.isfile(summary_path):
        everything.problems.append("no summary.json")
        return everything
    with open(summary_path) as fh:
        summary = json.load(fh)
    if summary.get("exit_code") != returncode:
        everything.problems.append(
            f"summary exit_code {summary.get('exit_code')!r}, "
            f"process exit code {returncode}")
        return everything
    files = tuple(sorted(os.listdir(out_dir)))
    if files != EXPECTED_FILES:
        everything.problems.append(
            f"{len(files)} files, expected {len(EXPECTED_FILES)}")
        return everything
    verdicts = Counter()
    for check in CHECKS:
        with open(os.path.join(out_dir, f"{check}.csv"), newline="") as fh:
            verdicts.update(row["verdict"] for row in csv.DictReader(fh))
    rows = sum(verdicts.values())
    if rows != EXPECTED_ROWS:
        everything.problems.append(f"{rows} rows, expected {EXPECTED_ROWS}")
        return everything
    failed = rows - verdicts["PASS"] - verdicts["INCONCLUSIVE"]
    grade = Grade(EXPECTED_ROWS, failed, verdicts["INCONCLUSIVE"],
                  digest(out_dir))
    if failed:
        grade.problems.append(f"{failed} rows not PASS or INCONCLUSIVE")
    return grade


def cell_failed(cell: dict) -> bool:
    if cell.get("error"):
        return True
    if cell["kind"] == "ks":
        return not cell["statistic"] < KS_LIMIT
    return cell["violations"] != 0


def grade_oracle(cells: list) -> Grade:
    expected = len(KS_CELLS) + len(JACOBIAN_CELLS)
    bad = [c for c in cells if cell_failed(c)]
    grade = Grade(expected, min(expected, len(bad) + max(0, expected - len(cells))))
    grade.problems += [f"{c['kind']} p={c['p']:g} n={c['n']}: "
                       f"{c.get('error') or c.get('statistic', c.get('violations'))}"
                       for c in bad]
    if len(cells) != expected:
        grade.problems.append(f"{len(cells)} cells, expected {expected}")
    return grade
