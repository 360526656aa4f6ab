"""One benchmark iteration in a fresh interpreter.

    python perfbench/worker.py oracle --seed S --out FILE [--trace]
    python perfbench/worker.py cli --out FILE -- <isoplab CLI flags>

``oracle`` runs the oracle_crosscheck cells; ``cli`` runs the isoplab CLI
under the tracer (untraced CLI iterations run ``python -m isoplab``
itself).  The monotonic clock is read right after ``import isoplab`` so
the parent can time set-up from its own spawn timestamp.  Results go to
FILE as JSON.

isoplab functions are looked up on the package at call time, so a traced
run reaches the wrapped versions.
"""

import time

import isoplab

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import isoplab.cli  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, span_records, summarize  # noqa: E402
from workloads import (JACOBIAN_CELLS, JACOBIAN_COUNT,  # noqa: E402
                       JACOBIAN_TOL, KS_CELLS, KS_COUNT)


def ks_cell(p_push: float, p_rejection: float, n: int, count: int,
            seed_push: int, seed_rejection: int) -> dict:
    """KS distance between the first marginals of push-forward and
    rejection samples; p_push == p_rejection for a genuine cross-check."""
    from scipy import stats
    push = isoplab.ball_sampler(isoplab.PBallParams(p_push, n))(count, seed_push)
    rej = isoplab.rejection_sampler(isoplab.PBallParams(p_rejection, n))(
        count, seed_rejection)
    d = stats.ks_2samp(push.points[:, 0], rej.points[:, 0]).statistic
    return {"kind": "ks", "p": p_push, "n": n, "statistic": float(d)}


def jacobian_cell(p: float, n: int, count: int, seed: int) -> dict:
    """Operator norms of DT on product-law rows against their bound."""
    Z = isoplab.sample_product(isoplab.PBallParams(p, n), count, seed).points
    ops, bounds = isoplab.jacobian_op_norms(Z, p)
    return {"kind": "jacobian", "p": p, "n": n,
            "violations": int((ops > bounds + JACOBIAN_TOL).sum())}


def oracle_cells(seed: int) -> list:
    child_seed = isoplab.child_seed
    cells = []
    jobs = [(ks_cell, "ks", p, n, (p, p, n, KS_COUNT, child_seed(seed, 2 * i),
                                  child_seed(seed, 2 * i + 1)))
            for i, (p, n) in enumerate(KS_CELLS)]
    jobs += [(jacobian_cell, "jacobian", p, n,
              (p, n, JACOBIAN_COUNT, child_seed(seed, 2 * len(KS_CELLS) + j)))
             for j, (p, n) in enumerate(JACOBIAN_CELLS)]
    for fn, kind, p, n, args in jobs:
        try:
            cells.append(fn(*args))
        except Exception as exc:  # a raising cell is a failed operation
            cells.append({"kind": kind, "p": p, "n": n, "error": repr(exc)})
    return cells


def _trace_record(tracer: Tracer) -> dict:
    return {"stats": {k: dataclasses.asdict(v)
                      for k, v in summarize(tracer.spans).items()},
            "spans": span_records(tracer.spans)}


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("oracle", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    cli_args = []
    if "--" in argv:
        cli_args = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    args = parser.parse_args(argv)

    tracer = None
    if args.trace or args.mode == "cli":
        tracer = Tracer()
        layers.install(tracer)
    record = {"imported_at": IMPORTED_AT, "isoplab_file": isoplab.__file__}
    if args.mode == "oracle":
        record["cells"] = oracle_cells(args.seed)
        rc = 0
    else:
        rc = isoplab.cli.main(cli_args)
    if tracer is not None:
        record["trace"] = _trace_record(tracer)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
