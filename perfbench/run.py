"""isoplab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an isoplab checkout; the program is imported from
its ``src/``.  Workloads (see BENCHMARK.json and perfbench/README.md):

  cli_default        python -m isoplab --threads 1 on the default grid
  cli_heavy          the same grid with --samples 100000 --threads 2
  oracle_crosscheck  push-forward vs rejection sampler KS cells and
                     Jacobian operator-norm cells, one interpreter

Each is a closed loop with one client: an iteration is a fresh
interpreter, and the next starts when it has exited.  Set-up time is
measured by fresh ``import isoplab`` probes before the iterations (and,
for oracle_crosscheck, also stamped inside each iteration).  Iterations
repeat until the next one would end after --seconds, with a minimum
count per workload (workloads.MIN_ITERATIONS).

--trace 0 prints the end-to-end metrics; --trace 1 additionally runs one
traced iteration, an ``-X importtime`` probe and, for cli_heavy, a
one-thread iteration, and prints the per-layer metrics.  Every output
passes the correctness gate (gate.py); the last stdout line is the JSON
result.  A full record of the run is written to
.bench_run/<workload>-seed<N>-trace<T>/record.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata

import gate
import layers
from workloads import (MIN_ITERATIONS, WORKLOADS, cli_args, program_seed,
                       settings)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PROBES = 4                # fresh-interpreter import probes per run
HARD_LIMIT_S = 170.0      # the whole run, traced phase included
IMPORT_MODULES = {"import.isoplab_s": "isoplab",
                  "import.scipy_integrate_s": "scipy.integrate",
                  "import.scipy_optimize_s": "scipy.optimize"}


class SetupError(RuntimeError):
    """The program could not be found or imported: no result is printed."""


@dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    spawned_at: float


@dataclass
class Iteration:
    kind: str             # untraced | traced | one_thread
    child: Child
    grade: gate.Grade
    setup_s: float | None = None
    trace: dict | None = field(default=None, repr=False)


class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: int,
                 trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.program_seed = program_seed(workload, seed)
        self.seconds = seconds
        self.trace = trace
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.run_dir = os.path.join(
            root, ".bench_run", f"{workload}-seed{seed}-trace{int(trace)}")
        self.started = time.monotonic()
        self.hard_deadline = self.started + HARD_LIMIT_S
        self.children = 0

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[Child, str]:
        """Run argv to completion; returns its measures and its output."""
        self.children += 1
        log_path = os.path.join(self.run_dir, f"child{self.children}.log")
        limit = max(1.0, self.hard_deadline - time.monotonic())
        with open(log_path, "wb") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.monotonic() - spawned_at
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log_path, errors="replace") as fh:
            output = fh.read()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, spawned_at), output

    def probe_setup(self) -> float:
        child, out = self.spawn([
            sys.executable, "-c",
            "import time, isoplab; print(time.monotonic()); "
            "print(isoplab.__file__)"])
        lines = out.split()
        if child.returncode != 0 or len(lines) < 2:
            raise SetupError(f"import isoplab failed:\n{out}")
        self._check_source(lines[1])
        return float(lines[0]) - child.spawned_at

    def _check_source(self, path: str):
        if not os.path.abspath(path).startswith(self.src + os.sep):
            raise SetupError(f"isoplab imported from {path}, not from {self.src}")

    def import_times(self) -> dict[str, float]:
        """Cumulative -X importtime seconds of the traced import modules."""
        child, out = self.spawn([sys.executable, "-X", "importtime", "-c",
                                 "import isoplab"])
        if child.returncode != 0:
            raise SetupError(f"import isoplab failed:\n{out}")
        cumulative = {}
        for line in out.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cumulative.setdefault(parts[2].strip(),
                                          int(parts[1]) / 1e6)
                except ValueError:
                    continue   # the header line
        return {metric: cumulative.get(module, 0.0)
                for metric, module in IMPORT_MODULES.items()}

    # -- iterations --------------------------------------------------------

    def iterate(self, kind: str, threads: int | None = None) -> Iteration:
        traced = kind == "traced"
        out = os.path.join(self.run_dir, f"result{self.children + 1}.json")
        if self.workload == "oracle_crosscheck":
            argv = [sys.executable, WORKER, "oracle", "--seed",
                    str(self.program_seed), "--out", out]
            child, _ = self.spawn(argv + (["--trace"] if traced else []))
            record = _load(out)
            if record is None:
                return Iteration(kind, child, gate.grade_oracle([]))
            self._check_source(record["isoplab_file"])
            grade = gate.grade_oracle(record["cells"])
            if child.returncode != 0:
                grade.failed = grade.attempted
                grade.problems.append(f"exit code {child.returncode}")
            return Iteration(kind, child, grade,
                             record["imported_at"] - child.spawned_at,
                             record.get("trace"))
        out_dir = tempfile.mkdtemp(prefix="out", dir=self.run_dir)
        try:
            flags = cli_args(self.workload, self.seed, out_dir, threads)
            if traced:
                argv = [sys.executable, WORKER, "cli", "--out", out, "--"]
            else:
                argv = [sys.executable, "-m", "isoplab"]
            child, _ = self.spawn(argv + flags)
            grade = gate.grade_cli(out_dir, child.returncode)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        record = _load(out) if traced else None
        return Iteration(kind, child, grade,
                         trace=None if record is None else record.get("trace"))

    def run(self) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        record = {"environment": environment(), "workload": self.workload,
                  "seed": self.seed, "program_seed": self.program_seed,
                  "seconds": self.seconds, "trace": int(self.trace),
                  "settings": settings(self.workload)}
        deadline = self.started + self.seconds
        setup = [self.probe_setup() for _ in range(PROBES)]
        runs: list[Iteration] = []
        minimum = MIN_ITERATIONS[self.workload]
        while True:
            runs.append(self.iterate("untraced"))
            typical = statistics.median(it.child.wall_s for it in runs)
            now = time.monotonic()
            if len(runs) >= minimum and now + typical > deadline:
                break
            if now + typical > self.hard_deadline - 2 * typical:
                break
        setup += [it.setup_s for it in runs if it.setup_s is not None]
        imports = None
        if self.trace:
            runs.append(self.iterate("traced"))
            if self.workload == "cli_heavy":
                runs.append(self.iterate("one_thread", threads=1))
            imports = self.import_times()
        result = self.summarize(record, setup, runs, imports)
        with open(os.path.join(self.run_dir, "record.json"), "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        return result

    # -- results -----------------------------------------------------------

    def summarize(self, record: dict, setup: list, runs: list,
                  imports: dict | None) -> dict:
        untraced = [it for it in runs if it.kind == "untraced"]
        walls = [it.child.wall_s for it in untraced]
        attempted = sum(it.grade.attempted for it in runs)
        failed = sum(it.grade.failed for it in runs)
        problems = [f"{it.kind} #{i}: {p}" for i, it in enumerate(runs)
                    for p in it.grade.problems]
        digests = {kind: sorted({str(it.grade.digest) for it in runs
                                 if it.kind == kind})
                   for kind in ("untraced", "traced", "one_thread")
                   if any(it.kind == kind for it in runs)}
        if self.workload == "oracle_crosscheck":
            digests = {}
        else:
            if len(digests["untraced"]) != 1:
                problems.append("untraced iterations disagree on the output")
            for kind in ("traced", "one_thread"):
                if kind in digests and digests[kind] != digests["untraced"]:
                    problems.append(f"{kind} output differs from untraced")
        graded = sum(it.grade.attempted for it in untraced)
        inconclusive = sum(it.grade.inconclusive for it in untraced)

        e2e = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
               "wall_s": {"value": statistics.median(walls), "unit": "s"},
               "peak_rss_mb": {"value": statistics.median(
                   it.child.rss_mb for it in untraced), "unit": "MB"}}
        quality = {"failed_share": {"value": failed / attempted,
                                    "unit": "share"}}
        if self.workload != "oracle_crosscheck":
            quality["inconclusive_share"] = {"value": inconclusive / graded,
                                             "unit": "share"}
        record.update({
            "setup_samples_s": setup,
            "wall_quartiles_s": _quartiles(walls),
            "iterations": [{"kind": it.kind, **asdict(it.child),
                            "setup_s": it.setup_s,
                            "attempted": it.grade.attempted,
                            "failed": it.grade.failed,
                            "inconclusive": it.grade.inconclusive,
                            "digest": it.grade.digest} for it in runs],
            "digests": digests, "problems": problems,
            "end_to_end": e2e, "quality": quality})
        metrics = e2e
        if imports is not None:
            traced = next(it for it in runs if it.kind == "traced")
            stats = {} if traced.trace is None else {
                name: layers.Stat(**st)
                for name, st in traced.trace["stats"].items()}
            if traced.trace is None:
                problems.append("traced iteration wrote no trace")
            derived = dict(imports)
            derived["process.cpu_s"] = statistics.median(
                it.child.cpu_s for it in untraced)
            derived["trace.overhead_s"] = (traced.child.wall_s
                                           - statistics.median(walls))
            derived["inequality_suite.inconclusive_share"] = (
                inconclusive / graded if self.workload != "oracle_crosscheck"
                else 0.0)
            metrics = layers.layer_metrics(stats, derived)
            record["per_layer"] = metrics
            if traced.trace is not None:
                with open(os.path.join(self.run_dir, "spans.json"), "w") as fh:
                    json.dump(traced.trace["spans"], fh)
        record["correct"] = failed == 0 and not problems
        _print_report(record, walls)
        return {"correct": record["correct"], "attempted": attempted,
                "failed": failed, "metrics": metrics}


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "loadavg_at_start": list(os.getloadavg())}


def _print_report(record: dict, walls: list):
    env = record["environment"]
    print(f"isoplab benchmark: workload {record['workload']}, seed "
          f"{record['seed']} (program seed {record['program_seed']}), "
          f"trace {record['trace']}")
    print(f"  machine: {env['nproc']} x {env['cpu_model']}, Python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"load {env['loadavg_at_start'][0]:.2f}")
    q1, q2, q3 = record["wall_quartiles_s"]
    for name, m in {**record["end_to_end"], **record["quality"]}.items():
        line = f"  {name:<20} {m['value']:.6g} {m['unit']}"
        if name == "wall_s":
            line += f"  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})"
        elif name == "setup_s":
            line += f"  (median of {len(record['setup_samples_s'])})"
        print(line)
    for kind, values in record["digests"].items():
        print(f"  digest {kind:<11} {', '.join(values)}")
    if "per_layer" in record:
        selfs = sorted(((m["value"], name) for name, m in
                        record["per_layer"].items() if name.endswith(".self_s")),
                       reverse=True)
        print("  largest self_s: " + ", ".join(
            f"{name} {value:.3f}" for value, name in selfs[:6]))
        print(f"  trace.overhead_s     "
              f"{record['per_layer']['trace.overhead_s']['value']:.4f} s")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  correct: {record['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isoplab", "__init__.py")):
        print(f"no isoplab source under {root}/src: run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps the iteration it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    try:
        result = bench.run()
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
