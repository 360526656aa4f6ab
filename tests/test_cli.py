"""Batch runner: config grammar, validation errors, exit codes, output
files, and byte-level determinism of repeated runs."""

import json
import os
import subprocess
import sys

import pytest

from isoplab import geometry, inequality_suite
from isoplab.cli import (
    REGISTRY,
    ConfigError,
    RunConfig,
    _jobs,
    list_checks,
    main,
    parse_config,
    run,
)


def _run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("LAB_OUT_DIR", None)
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
a_grid = 0.1, 0.5
samples = 2000
seed = 7
out_dir = somewhere
big_c = 3.5
""")
    assert cfg.experiments == ["check_kls", "check_theorem1"]
    assert cfg.p_grid == [1.0, 2.0]
    assert cfg.n_grid == [2, 4, 8]
    assert cfg.a_grid == [0.1, 0.5]
    assert cfg.samples == 2000
    assert cfg.seed == 7
    assert cfg.out_dir == "somewhere"
    assert cfg.big_c == 3.5
    assert "p_grid" in cfg._explicit
    assert "t_grid" not in cfg._explicit


def test_parse_config_error_positions():
    with pytest.raises(ConfigError, match="line 1: unknown key 'bogus_key'"):
        parse_config("bogus_key = 3")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("no equals sign here")
    with pytest.raises(ConfigError, match="line 2: samples needs an integer"):
        parse_config("seed = 1\nsamples = lots")
    with pytest.raises(ConfigError, match="p_grid needs a number"):
        parse_config("p_grid = 1, x")


def test_validate_rejects_unknown_check():
    cfg = RunConfig(experiments=["check_nonexistent"])
    with pytest.raises(ConfigError, match="unknown check 'check_nonexistent'"):
        cfg.validate()


def test_validate_rejects_explicit_empty_selection():
    cfg = parse_config("experiments =\n")
    with pytest.raises(ConfigError, match="no experiments selected"):
        cfg.validate()
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
    with pytest.raises(ConfigError, match="a_grid must not be empty"):
        RunConfig(a_grid=[]).validate()
    # the checks' own rules: levels in (0, 1/2], quantile levels in (0, 1),
    # positive radii, a positive strictly decreasing ladder, a seed >= 0,
    # a finite positive big_c
    for bad, message in [
            (dict(a_grid=[0.7]), "a_grid must be a nonempty subset"),
            (dict(a_grid=[0.5, float("nan")]), "a_grid must be a nonempty"),
            (dict(t_grid=[1.5]), "t_grid entries are quantile levels"),
            (dict(r_grid=[-1.0]), "r_grid entries must be positive"),
            (dict(eps_ladder=[0.01, 0.1]), "eps ladder must be finite"),
            (dict(seed=-1), "seed must be a non-negative integer")] + [
            (dict(big_c=c), "big_c must be finite and positive")
            for c in (-1.0, 0.0, float("nan"), float("inf"))]:
        with pytest.raises(ConfigError, match=message):
            RunConfig(**bad).validate()


def test_selected_defaults_to_every_check():
    assert RunConfig().selected() == sorted(REGISTRY)
    assert len(REGISTRY) == 16


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
    assert "out_dir" not in summary["config"]
    assert "threads" not in summary["config"]
    assert summary["config"]["experiments"] == ["check_kls",
                                                "isotropy_constants"]
    kls = summary["checks"]["check_kls"]
    assert set(kls["verdicts"]) == {"PASS", "FAIL", "INCONCLUSIVE"}
    assert kls["verdicts"]["FAIL"] == 0
    assert "p=1,n=2" in kls["constants"]
    assert kls["constants"]["p=2,n=2"]["c0_hat"] > 0.0


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


def test_default_run_draws_one_grading_batch_per_job(tmp_path, monkeypatch):
    # every job streams one grading batch; only thresholds placed on
    # held-out points (the three tail checks, co-area's radial radii at
    # p != 2) add one more.  Drawing per set, rung, level or field, and a
    # ball batch beside the product batch, took 148 ball and 12 product draws
    job = [None]
    draws = []
    for sampler in ("ball_blocks", "product_blocks"):
        def counting(*args, _real=getattr(inequality_suite, sampler),
                     _sampler=sampler, **kw):
            draws.append((job[0], _sampler))
            return _real(*args, **kw)
        monkeypatch.setattr(inequality_suite, sampler, counting)
    for name, (tag, runner) in list(REGISTRY.items()):
        def tracked(cfg, p, n, seed, _name=name, _runner=runner):
            job[0] = (_name, p, n)
            return _runner(cfg, p, n, seed)
        monkeypatch.setitem(REGISTRY, name, (tag, tracked))
    assert run(RunConfig(out_dir=str(tmp_path))) == 0
    assert sum(s == "ball_blocks" for _, s in draws) == 70
    assert sum(s == "product_blocks" for _, s in draws) == 12
    held_out = {"check_sz_tail", "check_sz_concentration",
                "check_paouris_tail"}
    per_job = {}
    for j, _ in draws:
        per_job[j] = per_job.get(j, 0) + 1
    for (name, p, n), k in per_job.items():
        extra = name in held_out or (name == "check_coarea" and p != 2.0)
        assert k == 1 + extra, (name, p, n, k)


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
    # grid, seed and big_c values the checks reject, through the same main()
    cases = [(["--seed", "-1"], "seed must be a non-negative integer")]
    for line, message in [
            ("a_grid = 0.7", "a_grid must be a nonempty subset"),
            ("a_grid = 0.5, nan", "a_grid must be a nonempty subset"),
            ("t_grid = 1.5", "t_grid entries are quantile levels"),
            ("r_grid = -1", "r_grid entries must be positive"),
            ("eps_ladder = 0.01, 0.1", "eps ladder must be finite"),
            ("eps_ladder = inf, 0.1", "eps ladder must be finite")] + [
            (f"big_c = {c}", "big_c must be finite and positive")
            for c in ("-1", "0", "nan", "inf")]:
        cfg = tmp_path / f"bad{len(cases)}.cfg"
        cfg.write_text(line + "\n")
        cases.append((["--config", str(cfg)], message))
    for args, message in cases:
        assert main(args + out) == 3, args
        assert f"config error: {message}" in capsys.readouterr().err


def test_cli_missing_config_exits_three(tmp_path):
    res = _run_cli(["--config", str(tmp_path / "absent.cfg")])
    assert res.returncode == 3
    assert "cannot read config" in res.stderr


def test_cli_usage_error_exits_three():
    res = _run_cli(["--bogus-flag"])
    assert res.returncode == 3


def test_cli_exit_two_on_confident_violation(tmp_path):
    # a deliberately coarse single-rung enlargement ladder underestimates
    # the boundary content enough to cross the bound: an honest FAIL
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        "experiments = check_bobkov_inequality\n"
        "p_grid = 2\n"
        "n_grid = 2\n"
        "a_grid = 0.5\n"
        "r_grid = 1.0\n"
        "eps_ladder = 2.0\n"
        "samples = 2000\n")
    res = _run_cli(["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert res.returncode == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 2
    assert summary["checks"]["check_bobkov_inequality"]["verdicts"]["FAIL"] > 0


def test_cli_out_dir_precedence(tmp_path):
    env_dir = tmp_path / "from_env"
    res = _run_cli(["--experiment", "isotropy_constants"],
                   env_extra={"LAB_OUT_DIR": str(env_dir)})
    assert res.returncode == 0
    assert (env_dir / "summary.json").exists()
    # an explicit flag beats the environment
    flag_dir = tmp_path / "from_flag"
    res = _run_cli(["--experiment", "isotropy_constants",
                    "--out-dir", str(flag_dir)],
                   env_extra={"LAB_OUT_DIR": str(tmp_path / "ignored")})
    assert res.returncode == 0
    assert (flag_dir / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_import_needs_neither_integrate_nor_optimize():
    code = ("import sys, isoplab, isoplab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
