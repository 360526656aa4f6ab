"""Negative controls for the correctness gate: wrong outputs must count as
failed operations."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
from conftest import ROOT
from workloads import (CHECKS, EXPECTED_ROWS, JACOBIAN_CELLS, KS_CELLS,
                       KS_COUNT)


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "out")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rc = subprocess.run([sys.executable, "-m", "isoplab", "--threads", "1",
                         "--seed", "7", "--out-dir", out],
                        env=env, timeout=300).returncode
    assert rc == 0
    return out


@pytest.fixture
def out_copy(cli_out, tmp_path):
    dst = str(tmp_path / "out")
    shutil.copytree(cli_out, dst)
    return dst


def _set_verdict(out_dir, check, row, verdict):
    path = os.path.join(out_dir, f"{check}.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[-1] = verdict
    lines[row + 1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _set_summary_exit(out_dir, code):
    path = os.path.join(out_dir, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["exit_code"] = code
    with open(path, "w") as fh:
        json.dump(summary, fh)


def test_clean_run_passes(cli_out):
    grade = gate.grade_cli(cli_out, 0)
    assert (grade.attempted, grade.failed) == (EXPECTED_ROWS, 0)
    assert 0 < grade.inconclusive < EXPECTED_ROWS
    assert grade.digest == gate.digest(cli_out)
    assert not grade.problems


@pytest.mark.parametrize("returncode, summary_exit", [(2, 2), (0, 0)])
def test_forced_fail_row_counts(out_copy, returncode, summary_exit):
    _set_verdict(out_copy, "check_coarea", 0, "FAIL")
    _set_summary_exit(out_copy, summary_exit)
    grade = gate.grade_cli(out_copy, returncode)
    assert grade.failed == 1
    assert grade.problems


def test_unknown_verdict_counts(out_copy):
    _set_verdict(out_copy, "check_theorem1", 2, "MAYBE")
    assert gate.grade_cli(out_copy, 0).failed == 1


@pytest.mark.parametrize("damage", ["exit", "summary", "summary_code",
                                    "file", "row"])
def test_broken_run_fails_every_row(out_copy, damage):
    returncode = 0
    if damage == "exit":
        returncode = 1
    elif damage == "summary":
        os.remove(os.path.join(out_copy, "summary.json"))
    elif damage == "summary_code":
        _set_summary_exit(out_copy, 2)
    elif damage == "file":
        os.remove(os.path.join(out_copy, f"{CHECKS[0]}_plot.csv"))
    else:
        path = os.path.join(out_copy, f"{CHECKS[0]}.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
    grade = gate.grade_cli(out_copy, returncode)
    assert (grade.attempted, grade.failed) == (EXPECTED_ROWS, EXPECTED_ROWS)


def test_digest_sees_any_byte(out_copy):
    before = gate.digest(out_copy)
    with open(os.path.join(out_copy, "summary.json"), "a") as fh:
        fh.write(" ")
    assert gate.digest(out_copy) != before


def _good_cells():
    return ([{"kind": "ks", "p": p, "n": n, "statistic": 0.004}
             for p, n in KS_CELLS]
            + [{"kind": "jacobian", "p": p, "n": n, "violations": 0}
               for p, n in JACOBIAN_CELLS])


def test_mismatched_oracle_cell_counts_as_failed():
    import worker
    matched = worker.ks_cell(1.0, 1.0, 4, KS_COUNT, 11, 12)
    mismatched = worker.ks_cell(1.0, 2.0, 4, KS_COUNT, 11, 12)
    assert not gate.cell_failed(matched)
    assert gate.cell_failed(mismatched)
    cells = _good_cells()
    cells[KS_CELLS.index((1.0, 4))] = mismatched
    grade = gate.grade_oracle(cells)
    assert (grade.attempted, grade.failed) == (len(cells), 1)


@pytest.mark.parametrize("bad", [
    {"kind": "jacobian", "p": 1.0, "n": 8, "violations": 3},
    {"kind": "jacobian", "p": 1.0, "n": 8, "error": "RuntimeError()"},
    {"kind": "ks", "p": 1.0, "n": 2, "statistic": 0.015},
])
def test_bad_oracle_cell_counts(bad):
    cells = _good_cells()
    cells[-1] = bad
    assert gate.grade_oracle(cells).failed == 1


def test_missing_oracle_cells_count():
    cells = _good_cells()[:-2]
    assert gate.grade_oracle(cells).failed == 2
