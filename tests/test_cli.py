"""Batch runner: config grammar, validation errors, exit codes, output
files, and byte-level determinism of repeated runs."""

import ctypes
import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from isoplab import geometry
from isoplab import inequality_suite as iq
from isoplab.cli import (
    A_GRID,
    R_GRID,
    REGISTRY,
    T_GRID,
    ConfigError,
    RunConfig,
    _jobs,
    _write_check_csv,
    list_checks,
    main,
    parse_config,
    run,
)
from isoplab.geometry import PBallParams, coordinate_half_space


def _run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    # a user's shell: BLAS threads left to isoplab
    env.pop("OPENBLAS_NUM_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "isoplab", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_parse_config_full_grammar():
    cfg = parse_config("""
# a comment line
experiments = check_kls, check_theorem1
p_grid = 1, 2   # trailing comment
n_grid = 2,4,8
samples = 2000
seed = 7
out_dir = somewhere
""")
    assert cfg.experiments == ["check_kls", "check_theorem1"]
    assert cfg.p_grid == [1.0, 2.0]
    assert cfg.n_grid == [2, 4, 8]
    assert cfg.samples == 2000
    assert cfg.seed == 7
    assert cfg.out_dir == "somewhere"


def test_parse_config_error_positions():
    with pytest.raises(ConfigError, match="line 1: unknown key 'bogus_key'"):
        parse_config("bogus_key = 3")
    # every content is estimated on default_eps_ladder, and the chain's C
    # is the constant inequality_suite.CHAIN_C
    for key in ("eps_ladder", "big_c"):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"seed = 1\n{key} = 4\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("no equals sign here")
    with pytest.raises(ConfigError, match="line 2: samples needs an integer"):
        parse_config("seed = 1\nsamples = lots")
    with pytest.raises(ConfigError, match="p_grid needs a number"):
        parse_config("p_grid = 1, x")


def test_readme_config_block_parses_and_validates():
    # README's config example names every key, and each one the parser knows
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block, = [b for b in readme.read_text().split("```")[1::2]
              if b.lstrip().startswith("experiments =")]
    parse_config(block).validate()
    keys = {line.split("#", 1)[0].partition("=")[0].strip()
            for line in block.splitlines() if line.split("#", 1)[0].strip()}
    assert keys == {f.name for f in dataclasses.fields(RunConfig)}


def test_validate_rejects_unknown_check():
    cfg = RunConfig(experiments=["check_nonexistent"])
    with pytest.raises(ConfigError, match="unknown check 'check_nonexistent'"):
        cfg.validate()


def test_validate_rejects_explicit_empty_selection():
    with pytest.raises(ConfigError, match="line 2: experiments has no items"):
        parse_config("seed = 1\nexperiments =\n")
    # so does every other list key
    for key in ("p_grid", "n_grid"):
        with pytest.raises(ConfigError, match=f"line 1: {key} has no items"):
            parse_config(f"{key} = ,\n")
    # an absent key means "run everything" instead
    RunConfig().validate()


def test_validate_grids_and_scalars():
    with pytest.raises(ConfigError, match="p = 2.5 outside"):
        RunConfig(p_grid=[2.5]).validate()
    with pytest.raises(ConfigError, match="must be a positive integer"):
        RunConfig(n_grid=[0]).validate()
    with pytest.raises(ConfigError, match="samples must be at least 1000"):
        RunConfig(samples=10).validate()
    with pytest.raises(ConfigError, match="threads must be at least 1"):
        RunConfig(threads=0).validate()
    with pytest.raises(ConfigError, match="p_grid must not be empty"):
        RunConfig(p_grid=[]).validate()
    with pytest.raises(ConfigError, match="seed must be a non-negative"):
        RunConfig(seed=-1).validate()


def test_selected_defaults_to_every_check():
    assert RunConfig().selected() == sorted(REGISTRY)
    assert len(REGISTRY) == 16


def test_selected_drops_repeats_in_first_seen_order():
    cfg = RunConfig(experiments=["check_kls", "check_coarea", "check_kls"])
    assert cfg.selected() == ["check_kls", "check_coarea"]


def test_list_checks_is_alphabetized():
    pairs = list_checks()
    names = [name for name, _ in pairs]
    assert names == sorted(names)
    assert len(pairs) == 16
    assert all(tag for _, tag in pairs)


def test_jobs_grid_and_lemma5_dimensions():
    cfg = RunConfig(experiments=["check_kls", "check_lemma5"],
                    p_grid=[2.0, 1.0], n_grid=[4, 2])
    jobs = _jobs(cfg)
    assert jobs == sorted(jobs)
    kls = [(p, n) for name, p, n in jobs if name == "check_kls"]
    assert kls == [(1.0, 2), (1.0, 4), (2.0, 2), (2.0, 4)]
    # lemma5 runs on its own summand counts, not the ambient n grid
    l5 = [(p, n) for name, p, n in jobs if name == "check_lemma5"]
    assert l5 == [(1.0, 4), (1.0, 16), (2.0, 4), (2.0, 16)]


# ---------------------------------------------------------------------------
# in-process runs
# ---------------------------------------------------------------------------

def _tiny_cfg(out_dir, **kw):
    base = dict(experiments=["check_kls", "isotropy_constants"],
                p_grid=[1.0, 2.0], n_grid=[2], samples=1000,
                out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base)


def test_run_writes_expected_files(tmp_path):
    cfg = _tiny_cfg(tmp_path / "out")
    assert run(cfg) == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == ["check_kls.csv", "check_kls_plot.csv",
                     "isotropy_constants.csv", "isotropy_constants_plot.csv",
                     "summary.json"]
    head = (tmp_path / "out" / "check_kls.csv").read_text().splitlines()[0]
    assert head == "check,p,n,param1,param2,lhs,lhs_stderr,rhs,ratio,verdict"
    head = (tmp_path / "out" / "check_kls_plot.csv").read_text().splitlines()[0]
    assert head == "x,lhs,rhs,ci_lo,ci_hi"


def test_run_summary_schema(tmp_path):
    cfg = _tiny_cfg(tmp_path / "out")
    run(cfg)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 0
    # the grid, the sample count and the seed set a run; out_dir and
    # threads do not change its rows, and the a, t and r grids are constants
    assert set(summary["config"]) == {"experiments", "n_grid", "p_grid",
                                      "samples", "seed"}
    assert summary["config"]["experiments"] == ["check_kls",
                                                "isotropy_constants"]
    kls = summary["checks"]["check_kls"]
    assert set(kls["verdicts"]) == {"PASS", "FAIL", "INCONCLUSIVE"}
    assert kls["verdicts"]["FAIL"] == 0
    assert "p=1,n=2" in kls["constants"]
    assert kls["constants"]["p=2,n=2"]["c0_hat"] > 0.0


@pytest.mark.parametrize("grid", [
    {},
    {"p_grid": [1.0, 1.25, 1.5, 2.0], "n_grid": [2, 3, 256]},
], ids=["default", "wide"])
def test_summary_holds_only_json_native_values(grid, tmp_path, monkeypatch):
    # every constant, count and config value is a str, int, float, bool or
    # None (or a list or dict of them): the summary dumps, to the bytes
    # the run wrote, with no default hook for numpy scalars
    summaries = []
    real = json.dump

    def spy(obj, fh, **kwargs):
        summaries.append(obj)
        real(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", spy)
    cfg = RunConfig(out_dir=str(tmp_path), **grid)
    assert run(cfg) in (0, 2)
    summary, = summaries
    assert json.dumps(summary, indent=2, sort_keys=True) + "\n" == \
        (tmp_path / "summary.json").read_text()


def test_run_is_byte_deterministic_across_out_dirs(tmp_path):
    run(_tiny_cfg(tmp_path / "one"))
    run(_tiny_cfg(tmp_path / "two"))
    for name in os.listdir(tmp_path / "one"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_run_csv_values_are_plain_decimal(tmp_path):
    cfg = _tiny_cfg(tmp_path / "out")
    run(cfg)
    for name in os.listdir(tmp_path / "out"):
        text = (tmp_path / "out" / name).read_text()
        assert "np.float64" not in text


def test_run_threads_reproduce_serial_bytes(tmp_path):
    run(_tiny_cfg(tmp_path / "serial"))
    run(_tiny_cfg(tmp_path / "pool", threads=2))
    for name in os.listdir(tmp_path / "serial"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes(), name


def test_run_overlaps_cells_on_two_threads(tmp_path, monkeypatch):
    # each of the two cells waits at a two-party barrier before it runs,
    # so the run ends only if both cells run at once; one cell at a time
    # breaks the barrier at its timeout
    barrier = threading.Barrier(2, timeout=10)
    real = iq.run_cell

    def meet(*args, **kw):
        barrier.wait()
        return real(*args, **kw)

    monkeypatch.setattr(iq, "run_cell", meet)
    assert run(_tiny_cfg(tmp_path, experiments=["check_sz_tail"],
                         threads=2)) == 0


def test_run_more_threads_than_cores_reproduce_serial_bytes(tmp_path):
    # six cells on four threads, switching threads every few microseconds,
    # so that cells interleave at fine grain; every file is the serial one
    def cfg(out_dir, threads):
        return RunConfig(p_grid=[1.0, 1.5, 2.0], n_grid=[2, 3],
                         samples=1000, out_dir=str(out_dir), threads=threads)

    run(cfg(tmp_path / "serial", 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run(cfg(tmp_path / "pool", 4))
    finally:
        sys.setswitchinterval(interval)
    names = sorted(os.listdir(tmp_path / "serial"))
    assert names == sorted(os.listdir(tmp_path / "pool"))
    assert len(names) == 33
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes(), name


def test_run_threads_reproduce_serial_bytes_above_one_block(tmp_path):
    # 20000 samples span several row blocks of every blocked pass
    def cfg(out_dir, threads):
        return RunConfig(
            experiments=["verify_cutoff_chain", "check_coarea",
                         "check_functional_equivalence", "check_sz_tail"],
            p_grid=[1.0, 1.5], n_grid=[4], samples=20000,
            out_dir=str(out_dir), threads=threads)

    run(cfg(tmp_path / "serial", 1))
    run(cfg(tmp_path / "pool", 2))
    names = sorted(os.listdir(tmp_path / "serial"))
    assert names == sorted(os.listdir(tmp_path / "pool"))
    assert len(names) == 9
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes(), name


def test_run_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    # every check at n = 2 and 9; BLOCK_ROWS = 97 cuts each 1000-point
    # pass into blocks of at most 97 rows instead of one block
    def cfg(out_dir):
        return RunConfig(n_grid=[2, 9], samples=1000, out_dir=str(out_dir))

    run(cfg(tmp_path / "default"))
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 97)
    run(cfg(tmp_path / "small"))
    names = sorted(os.listdir(tmp_path / "default"))
    assert names == sorted(os.listdir(tmp_path / "small"))
    assert len(names) == 33
    for name in names:
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "small" / name).read_bytes(), name


def test_default_run_draws_two_streams_per_cell(tmp_path, monkeypatch):
    # every sampled check of a (p, n) cell reads the cell's one grading and
    # one held-out stream, seeded by (seed, p, n, role); no check draws a
    # stream of its own (before, every sampled job did: 70 ball and 12
    # product streams)
    streams = []
    real = iq.product_ball_blocks

    def counting(params, count, seed):
        streams.append((params.p, params.n, count, seed))
        return real(params, count, seed)

    def refuse(*args, **kw):
        raise AssertionError("a check drew a stream of its own")

    monkeypatch.setattr(iq, "product_ball_blocks", counting)
    for name in ("ball_blocks", "sample_ball", "sample_product"):
        monkeypatch.setattr(iq, name, refuse, raising=False)
    cfg = RunConfig(out_dir=str(tmp_path))
    assert run(cfg) == 0
    assert len(streams) == 12
    assert sorted(streams) == sorted(
        (p, n, cfg.samples, iq.cell_seed(cfg.seed, p, n, role))
        for p in cfg.p_grid for n in cfg.n_grid
        for role in (iq.GRADING, iq.HELD_OUT))


def test_default_run_seeds_only_the_cell_streams(tmp_path, monkeypatch):
    # count and seed reach a check only through run_cell: a default run
    # seeds the grading and held-out streams of its six cells, and nothing
    # else (the Lipschitz spot check's seeded pairs took six more seeds)
    callers = []
    real = iq.cell_seed

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(iq, "cell_seed", counting)
    assert run(RunConfig(out_dir=str(tmp_path))) == 0
    assert callers == ["_cell_pass"] * 12


def test_no_plan_or_runner_takes_count_or_seed():
    plans = [getattr(iq, name) for name in iq.__all__
             if name.endswith("_plan")]
    assert len(plans) == 11
    # count and seed reach a check only through run_cell; cell_seed maps a
    # seed to a stream's and grades nothing
    for name in iq.__all__:
        fn = getattr(iq, name)
        if not callable(fn) or name in ("run_cell", "cell_seed"):
            continue
        params = inspect.signature(fn).parameters
        assert not {"count", "seed", "samples"} & set(params), name
    for name, (_, runner) in REGISTRY.items():
        assert list(inspect.signature(runner).parameters) == [
            "cfg", "p", "n"], name


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_no_default_lhs_estimates_a_closed_form(p, monkeypatch):
    # every registered plan of a default cell reads the closed-form
    # boundary contents where they exist: the ladder runs only for the
    # co-area radial ramp's 64 superlevel ball complements at p != 2
    cfg, n = RunConfig(), 4
    params = PBallParams(p, n)
    plans = [plan for plan in (runner(cfg, p, n)
                               for _, runner in REGISTRY.values())
             if isinstance(plan, iq.CellPlan)]
    calls = []
    real = iq.content_from_batch

    def spy(source, thresholds, eps):
        calls.append(list(thresholds))
        return real(source, thresholds, eps)

    monkeypatch.setattr(iq, "content_from_batch", spy)
    iq.run_cell(p, n, plans, cfg.samples, cfg.seed)
    if p == 2.0:
        assert calls == []
        return
    held_out = iq.product_ball_blocks(
        params, cfg.samples, iq.cell_seed(cfg.seed, p, n, iq.HELD_OUT))
    radii = np.sort(np.concatenate(
        [geometry.lp_norm(X, 2.0) for _, (_, X, _) in held_out]))
    radial = iq._default_plateau_catalog(params, radii)[1]
    assert calls == [[radial.superlevel((k + 0.5) / 64.0).threshold
                      for k in range(64)]]


SAMPLED_CHECKS = (
    "check_barthe_dimensional", "check_bobkov_inequality", "check_coarea",
    "check_functional_equivalence", "check_l2_form", "check_lemma4",
    "check_paouris_tail", "check_sz_concentration", "check_sz_tail",
    "verify_cutoff_chain")


def _direct_check(name, cfg, p, n):
    """The CLI's job (name, p, n) as a direct cell of its one plan."""
    params = PBallParams(p, n)
    w = n ** (-(2.0 - p) / (2.0 * p))
    sets = [coordinate_half_space(params, a) for a in A_GRID]
    r_grid = [r * w for r in R_GRID]
    plans = {
        "check_barthe_dimensional": lambda: iq.barthe_plan(p, n, sets, r_grid),
        "check_bobkov_inequality": lambda: iq.bobkov_plan(p, n, sets, r_grid),
        "check_coarea": lambda: iq.coarea_plan(p, n, None),
        "check_functional_equivalence":
            lambda: iq.functional_equivalence_plan(
                p, n, coordinate_half_space(params, 0.5), 0.0025 * w,
                0.05 * w),
        "check_l2_form": lambda: iq.l2_form_plan(
            p, n, [a for a in A_GRID if a < 0.5]),
        "check_lemma4": lambda: iq.lemma4_plan(p, n),
        "check_paouris_tail": lambda: iq.paouris_tail_plan(p, n, T_GRID),
        "check_sz_concentration": lambda: iq.sz_concentration_plan(
            p, n, "coordinate", T_GRID),
        "check_sz_tail": lambda: iq.sz_tail_plan(p, n, T_GRID),
        "verify_cutoff_chain": lambda: iq.cutoff_chain_plan(p, n),
    }
    return iq.run_cell(p, n, [plans[name]()], cfg.samples, cfg.seed)[0]


def test_sampled_rows_do_not_depend_on_the_selection(tmp_path):
    # a check's rows depend on (seed, p, n) only: run alone, with the whole
    # default selection, or as a direct call, it writes the same bytes
    # (seeding job i by its place in the selection gave check_sz_tail at
    # p = 1, n = 2 lhs 0.519 alone and 0.4772 in the full run)
    cfg = RunConfig(out_dir=str(tmp_path / "all"))
    assert run(cfg) == 0
    for name in SAMPLED_CHECKS:
        alone = tmp_path / name
        assert run(RunConfig(experiments=[name], out_dir=str(alone))) == 0
        for out in (f"{name}.csv", f"{name}_plot.csv"):
            assert (alone / out).read_bytes() == \
                (tmp_path / "all" / out).read_bytes(), out
        direct = tmp_path / f"{name}.direct.csv"
        _write_check_csv(str(direct), [
            row for p in cfg.p_grid for n in cfg.n_grid
            for row in _direct_check(name, cfg, p, n).reports])
        assert direct.read_bytes() == \
            (tmp_path / "all" / f"{name}.csv").read_bytes(), name


def test_repeated_experiment_writes_the_single_selection_bytes(tmp_path):
    # a check named twice, by flag or in the config's list, runs once: it
    # wrote every row twice, and a sampled check ran its plan twice per cell
    once = ["--experiment", "check_kls", "--experiment", "check_sz_tail"]
    twice = once + once
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("experiments = check_kls, check_sz_tail, check_kls\n")
    for out, args in (("once", once), ("flags", twice),
                      ("config", ["--config", str(cfg)])):
        assert main(args + ["--out-dir", str(tmp_path / out)]) == 0
    names = sorted(os.listdir(tmp_path / "once"))
    assert len(names) == 5
    for out in ("flags", "config"):
        assert sorted(os.listdir(tmp_path / out)) == names
        for name in names:
            assert (tmp_path / out / name).read_bytes() == \
                (tmp_path / "once" / name).read_bytes(), (out, name)


def test_lemma5_rows_do_not_depend_on_seed_or_samples(tmp_path):
    # the rows are the exact Gamma(N/p) law, so no draw is left to differ
    for out, seed, samples in (("a", "1", "5000"), ("b", "2", "100000")):
        assert main(["--experiment", "check_lemma5", "--seed", seed,
                     "--samples", samples,
                     "--out-dir", str(tmp_path / out)]) == 0
    for name in ("check_lemma5.csv", "check_lemma5_plot.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_rejects_unwritable_out_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _tiny_cfg(blocker / "sub")
    with pytest.raises(ConfigError, match="cannot write to out dir"):
        run(cfg)


# ---------------------------------------------------------------------------
# subprocess exit codes
# ---------------------------------------------------------------------------

def test_cli_list_exits_zero():
    res = _run_cli(["--list"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 16
    assert lines == sorted(lines)
    assert lines[0].startswith("check_barthe_dimensional:")


def test_cli_unknown_check_exits_three():
    res = _run_cli(["--experiment", "check_nonexistent"])
    assert res.returncode == 3
    assert "unknown check 'check_nonexistent'" in res.stderr


def test_cli_bad_values_exit_three(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path / "x")]
    res = _run_cli(["--experiment", "check_kls", "--samples", "10"] + out)
    assert res.returncode == 3
    assert "config error: samples must be at least 1000" in res.stderr
    # grid and seed values the checks reject, and keys the parser does not
    # know, through the same main()
    cases = [(["--seed", "-1"], "seed must be a non-negative integer")]
    for line, message in [
            ("p_grid = 1, nan", "p = nan outside [1, 2]"),
            ("experiments =", "line 1: experiments has no items"),
            ("eps_ladder = 0.1, 0.05", "line 1: unknown key 'eps_ladder'"),
            ("big_c = 4", "line 1: unknown key 'big_c'")]:
        cfg = tmp_path / f"bad{len(cases)}.cfg"
        cfg.write_text(line + "\n")
        cases.append((["--config", str(cfg)], message))
    for args, message in cases:
        assert main(args + out) == 3, args
        assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["a_grid", "t_grid", "r_grid"])
def test_cli_constant_grid_keys_exit_three(key, tmp_path, capsys):
    # the set measures, quantile levels and radii are cli.A_GRID, T_GRID
    # and R_GRID, not config keys
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"seed = 1\n{key} = 0.5\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 3
    assert f"config error: line 2: unknown key '{key}'" in \
        capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_missing_config_exits_three(tmp_path):
    res = _run_cli(["--config", str(tmp_path / "absent.cfg")])
    assert res.returncode == 3
    assert "cannot read config" in res.stderr


def test_cli_usage_error_exits_three():
    res = _run_cli(["--bogus-flag"])
    assert res.returncode == 3


@dataclasses.dataclass(frozen=True)
class _HalfSpaceStatedAtAHalf(geometry.HalfSpace):
    # a half-space that states measure 1/2 whatever its threshold
    def analytic_measure(self, params):
        return 0.5


def test_cli_exit_two_on_confident_violation(tmp_path, monkeypatch):
    # the Bobkov runner grades a half-space of measure 0.02 that states 1/2:
    # its content, about 0.17 at p = 1, n = 2, is half the bound's 0.32
    def misstated(cfg, p, n):
        good = coordinate_half_space(PBallParams(p, n), 0.02)
        bad = _HalfSpaceStatedAtAHalf(good.xi, good.t)
        return iq.bobkov_plan(p, n, [bad], [n ** -geometry.kappa(p)])

    name = "check_bobkov_inequality"
    monkeypatch.setitem(REGISTRY, name, (REGISTRY[name][0], misstated))
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(f"experiments = {name}\np_grid = 1\nn_grid = 2\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 2
    assert summary["checks"]["check_bobkov_inequality"]["verdicts"]["FAIL"] > 0


def test_cli_out_dir_precedence(tmp_path):
    # the flag beats the config key, which beats the default; a
    # LAB_OUT_DIR in the environment, once read between them, is ignored
    ignored = {"LAB_OUT_DIR": str(tmp_path / "ignored")}
    config_dir = tmp_path / "from_config"
    cfg = tmp_path / "out.cfg"
    cfg.write_text("experiments = isotropy_constants\n"
                   f"out_dir = {config_dir}\n")
    flag_dir = tmp_path / "from_flag"
    res = _run_cli(["--config", str(cfg), "--out-dir", str(flag_dir)],
                   env_extra=ignored, cwd=tmp_path)
    assert res.returncode == 0
    assert (flag_dir / "summary.json").exists()
    assert not config_dir.exists()
    res = _run_cli(["--config", str(cfg)], env_extra=ignored, cwd=tmp_path)
    assert res.returncode == 0
    assert (config_dir / "summary.json").exists()
    res = _run_cli(["--experiment", "isotropy_constants"],
                   env_extra=ignored, cwd=tmp_path)
    assert res.returncode == 0
    assert (tmp_path / "lab_out" / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_keeps_blas_to_one_thread_unless_set(preset, expected):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, isoplab; "
            "tasks = '/proc/self/task'; "
            "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 0, "
            "os.environ['OPENBLAS_NUM_THREADS'])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    threads, value = res.stdout.split()
    assert value == expected
    if preset is None:
        if threads == "0":
            pytest.skip("no /proc/self/task to count threads in")
        # left to its default, numpy's OpenBLAS starts a worker thread
        # per further core here
        assert threads == "1"


def _numpy_blas_threads():
    """Getter and setter of the thread count of the OpenBLAS that numpy
    loaded into this process; skips where it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and "numpy" in line}
    except OSError:
        pytest.skip("no /proc/self/maps to find numpy's OpenBLAS in")
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    pytest.skip("numpy's OpenBLAS thread controls not found")


def test_cli_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("p_grid = 1.5\nn_grid = 3\nsamples = 2000\n")
    # the process starts with OPENBLAS_NUM_THREADS unset: one BLAS thread
    res = _run_cli(["--config", str(cfg), "--out-dir", str(tmp_path / "sub")])
    get_threads, set_threads = _numpy_blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        assert get_threads() == 2
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "in")])
    finally:
        set_threads(before)
    assert res.returncode == code, res.stderr
    names = sorted(os.listdir(tmp_path / "in"))
    assert len(names) == 2 * len(REGISTRY) + 1
    assert sorted(os.listdir(tmp_path / "sub")) == names
    for name in names:
        assert ((tmp_path / "sub" / name).read_bytes()
                == (tmp_path / "in" / name).read_bytes()), name


def test_a_run_imports_no_scipy(tmp_path):
    # every oracle comes from isoplab._special: a run of every check that
    # imports scipy anywhere, inside a function too, leaves it in sys.modules
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("p_grid = 1.5\nn_grid = 3\nsamples = 2000\n")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    code = ("import sys\n"
            "from isoplab.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, [m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')])\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"
    assert len(os.listdir(tmp_path / "out")) == 2 * len(REGISTRY) + 1


def test_held_out_thresholds_import_no_numpy_ma(tmp_path):
    # the plans read thresholds off the sorted held-out columns; np.quantile
    # and np.median would partition a copy and, through np.unique, import
    # numpy.ma
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("p_grid = 1.5\nn_grid = 3\nsamples = 2000\n")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    for name in ("check_sz_tail", "check_paouris_tail",
                 "check_sz_concentration", "check_coarea"):
        argv += ["--experiment", name]
    code = ("import sys\n"
            "from isoplab.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"
    assert len(os.listdir(tmp_path / "out")) == 2 * 4 + 1
