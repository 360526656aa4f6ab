"""Workload settings: what one iteration of each workload runs.

Every workload is a closed loop with one client: an iteration runs in a
fresh interpreter and the next starts after it exits.  The program sees
only the generated CLI flags (CLI workloads) or the cell list
(oracle_crosscheck), never the benchmark's own seed.
"""

from __future__ import annotations

import hashlib

# the sixteen registered checks of the default grid; each writes
# <name>.csv and <name>_plot.csv, plus one summary.json per run
CHECKS = (
    "check_barthe_dimensional",
    "check_bobkov_inequality",
    "check_coarea",
    "check_functional_equivalence",
    "check_kls",
    "check_l2_form",
    "check_lemma4",
    "check_lemma5",
    "check_paouris_tail",
    "check_product_isoperimetry",
    "check_sz_concentration",
    "check_sz_tail",
    "check_theorem1",
    "concentration_from_isoperimetry",
    "isotropy_constants",
    "verify_cutoff_chain",
)
EXPECTED_FILES = tuple(sorted(
    [f"{c}.csv" for c in CHECKS] + [f"{c}_plot.csv" for c in CHECKS]
    + ["summary.json"]))
# default grid: p in {1, 1.5, 2}, n in {2, 4}, a/t/r grids of three and
# lemma5's own n in {4, 16}: 96 jobs and 468 graded rows
EXPECTED_ROWS = 468

CLI = {
    "cli_default": {"samples": None, "threads": 1},
    "cli_heavy": {"samples": 100_000, "threads": 2},
}

# oracle_crosscheck: (a) push-forward against rejection sampler, KS on the
# first marginal; (b) Jacobian operator norms against their bound
KS_CELLS = tuple((p, n) for p in (1.0, 1.5, 2.0) for n in (2, 4, 6))
KS_COUNT = 100_000
KS_LIMIT = 0.015
JACOBIAN_CELLS = tuple((p, n) for p in (1.0, 1.5, 2.0) for n in (8, 64))
JACOBIAN_COUNT = 10_000
JACOBIAN_TOL = 1e-9

WORKLOADS = ("cli_default", "cli_heavy", "oracle_crosscheck")
# iterations a run makes even past --seconds: two to compare CLI outputs,
# three for a median on cli_heavy; one oracle_crosscheck iteration alone
# takes most of a run
MIN_ITERATIONS = {"cli_default": 2, "cli_heavy": 3, "oracle_crosscheck": 1}


def program_seed(workload: str, seed: int) -> int:
    """The seed handed to the program, derived from the benchmark seed.

    Any integer benchmark seed maps to a 32-bit seed, distinct per workload.
    """
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cli_args(workload: str, seed: int, out_dir: str,
             threads: int | None = None) -> list[str]:
    """Flags for ``python -m isoplab`` in one iteration of a CLI workload."""
    spec = CLI[workload]
    args = ["--threads", str(threads or spec["threads"]),
            "--seed", str(program_seed(workload, seed)), "--out-dir", out_dir]
    if spec["samples"] is not None:
        args += ["--samples", str(spec["samples"])]
    return args


def settings(workload: str) -> dict:
    """Every setting of a workload, for the run record."""
    common = {"min_iterations": MIN_ITERATIONS[workload]}
    if workload in CLI:
        return {"kind": "cli", **CLI[workload], **common,
                "expected_rows": EXPECTED_ROWS,
                "expected_files": len(EXPECTED_FILES)}
    return {"kind": "oracle", **common, "ks_cells": KS_CELLS,
            "ks_count": KS_COUNT, "ks_limit": KS_LIMIT,
            "jacobian_cells": JACOBIAN_CELLS, "jacobian_count": JACOBIAN_COUNT,
            "jacobian_tol": JACOBIAN_TOL}
