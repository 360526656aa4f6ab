"""Acceptance gate: eleven criteria, one test and one printed verdict line
each.  Tolerances and runtime budgets are pinned; run with -s to see the
[Cxx] lines as they complete."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy import special, stats

from isoplab import (
    PBallParams,
    ball_sampler,
    bobkov_profile,
    check_lemma5,
    child_seed,
    concentration_from_isoperimetry,
    coordinate_half_space,
    jacobian_T,
    jacobian_op_norms,
    lemma5_constant,
    lp_norm,
    make_mu_p,
    make_nu_p,
    bgmn_map,
    rejection_sampler,
    sample_product,
)
from isoplab.inequality_suite import (
    barthe_plan,
    bobkov_plan,
    coarea_plan,
    cutoff_chain_plan,
    functional_equivalence_plan,
    run_cell,
    sz_concentration_plan,
    sz_tail_plan,
    theorem1_plan,
    theorem1_rhs,
)
from isoplab.montecarlo import FAIL, INCONCLUSIVE, PASS, bernoulli_ci

SEED = 20260817


def _emit(tag, label, ok, detail=""):
    line = f"[{tag}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _verdicts(report):
    return [r.verdict for r in report.reports]


# ---------------------------------------------------------------------------

def test_c01_pushforward_matches_rejection_marginals():
    t0 = time.monotonic()
    worst = 0.0
    for p in (1.0, 1.5, 2.0):
        for n in (2, 4, 8):
            params = PBallParams(p, n)
            push = ball_sampler(params)(10 ** 5, child_seed(SEED, 2 * n))
            rej = rejection_sampler(params)(10 ** 5, child_seed(SEED, 2 * n + 1))
            d = stats.ks_2samp(push.points[:, 0], rej.points[:, 0]).statistic
            worst = max(worst, d)
            assert d < 0.015, (p, n, d)
    elapsed = time.monotonic() - t0
    _emit("C01", "push-forward vs rejection marginals, KS < 0.015",
          worst < 0.015 and elapsed < 120.0,
          f"max KS {worst:.4f}, {elapsed:.1f}s")


def test_c02_exact_profiles():
    grid = np.linspace(0.01, 0.99, 99)
    mu1 = make_mu_p(1.0)
    err_mu = max(abs(bobkov_profile(mu1, a).boundary_mass - min(a, 1.0 - a))
                 for a in grid)
    err_nu = 0.0
    for p in (1.0, 1.5, 2.0):
        nu = make_nu_p(p)
        for a in grid:
            # half-line extremality: profile = density at the level quantile
            def closed(u):
                return p * np.log(1.0 / (1.0 - u)) ** ((p - 1.0) / p) * (1.0 - u)
            want = min(closed(a), closed(1.0 - a))
            err_nu = max(err_nu,
                         abs(bobkov_profile(nu, a).boundary_mass - want))
    _emit("C02", "1-D profiles: mu_1 tent exact, nu_p closed form",
          err_mu < 1e-10 and err_nu < 1e-8,
          f"mu err {err_mu:.2e}, nu err {err_nu:.2e}")


def test_c03_jacobian_bound_and_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    violations = 0
    worst_fd = 0.0
    for p in (1.0, 1.25, 1.5, 2.0):
        for n in (2, 8, 32, 64):
            params = PBallParams(p, n)
            Z = sample_product(params, 10 ** 4, child_seed(SEED, n)).points
            ops, bounds = jacobian_op_norms(Z, p)
            violations += int((ops > bounds + 1e-9).sum())
            sub = Z[rng.choice(10 ** 4, size=100, replace=False)].copy()
            sub[np.abs(sub) < 0.05] = 0.5   # keep clear of the |z_i|^p kinks
            for z in sub:
                res = jacobian_T(z, p)
                fd = _fd_jacobian(z, p)
                rel = np.abs(res.matrix - fd).max() / max(np.abs(fd).max(), 1.0)
                worst_fd = max(worst_fd, rel)
    elapsed = time.monotonic() - t0
    _emit("C03", "operator-norm bound violations = 0, FD error < 1e-6",
          violations == 0 and worst_fd < 1e-6 and elapsed < 60.0,
          f"violations {violations}, fd err {worst_fd:.2e}, {elapsed:.1f}s")


def _fd_jacobian(z, p, h=1e-7):
    n = z.size - 1
    out = np.empty((n, n + 1))
    for i in range(n + 1):
        e = np.zeros(n + 1)
        e[i] = h
        out[:, i] = (bgmn_map(z + e, p) - bgmn_map(z - e, p)) / (2 * h)
    return out


def test_c04_order_sharpness_of_the_rate():
    t0 = time.monotonic()
    a_grid = np.logspace(-3, np.log10(0.5), 25)
    lo, hi = np.inf, 0.0
    for p in (1.0, 1.5, 2.0):
        for n in (4, 16, 64):
            rep = run_cell(p, n, [theorem1_plan(p, n, a_grid)], 10 ** 4, 0)[0]
            assert all(v == PASS for v in _verdicts(rep)), (p, n)
            lo = min(lo, rep.constants["c_hat"])
            hi = max(hi, rep.constants["ratio_max"])
    elapsed = time.monotonic() - t0
    _emit("C04", "half-space ratio positive with global band <= 50",
          lo > 0.0 and hi / lo <= 50.0 and elapsed < 10.0,
          f"band {hi / lo:.2f} = {hi:.3f}/{lo:.3f}, {elapsed:.1f}s")


def test_c05_enlargement_bounds_no_fail():
    t0 = time.monotonic()
    bad = 0
    rows = 0
    for p in (1.0, 2.0):
        for n in (2, 4, 8):
            params = PBallParams(p, n)
            kappa = (2.0 - p) / (2.0 * p)
            r_grid = [m * n ** -kappa for m in (0.5, 1.0, 2.0)]
            sets = [coordinate_half_space(params, a) for a in (0.1, 0.25, 0.5)]
            for plan in (bobkov_plan, barthe_plan):
                rep = run_cell(p, n, [plan(p, n, sets, r_grid)], 10 ** 6,
                               child_seed(SEED, n))[0]
                rows += len(rep.reports)
                bad += sum(v == FAIL for v in _verdicts(rep))
    elapsed = time.monotonic() - t0
    _emit("C05", "log-concave and dimensional enlargement bounds, no FAIL",
          bad == 0 and elapsed < 300.0,
          f"{rows} rows, {bad} FAIL, {elapsed:.1f}s")


def test_c06_norm_tails_and_lipschitz_concentration():
    levels = [0.5, 0.75, 0.9, 0.99]
    min_c, min_c1 = np.inf, np.inf
    cross = 0.0
    for p in (1.0, 1.5, 2.0):
        for n in (2, 4, 8):
            tail = run_cell(p, n, [sz_tail_plan(p, n, levels)], 10 ** 5,
                            child_seed(SEED, 3 * n))[0]
            conc = run_cell(p, n, [sz_concentration_plan(
                p, n, "coordinate", [0.5, 0.75, 0.9])], 10 ** 5,
                child_seed(SEED, 3 * n + 1))[0]
            min_c = min(min_c, tail.constants["c_hat"])
            min_c1 = min(min_c1, conc.constants["c1_hat"])
            if p == 2.0:
                # exact radial tail as a cross-oracle
                for r in tail.reports:
                    t = r.params[2]
                    if r.verdict == INCONCLUSIVE or t <= 0.0:
                        continue
                    exact = 1.0 - min(t, 1.0) ** n
                    gap = abs(r.lhs.mean - exact)
                    assert gap <= 3.0 * r.lhs.std_err + 1e-12, (n, t, gap)
                    cross = max(cross, gap / max(r.lhs.std_err, 1e-300))
    _emit("C06", "fitted tail constants positive, p=2 radial cross-oracle",
          min_c > 0.0 and min_c1 > 0.0,
          f"c_hat >= {min_c:.3f}, c1_hat >= {min_c1:.3f}, "
          f"worst cross-gap {cross:.2f} se")


def test_c07_deviation_curve_under_closed_form():
    u = [0.4, 0.2, 0.1, 0.01, 0.001]
    worst = 0.0
    for p in (1.0, 1.5, 2.0):
        curve = concentration_from_isoperimetry(1.0, p, 4, u)
        ratio = np.max(curve.psi_numeric / curve.psi_closed_form)
        worst = max(worst, ratio)
        if p == 1.0:
            exact = np.max(np.abs(curve.psi_numeric / curve.psi_closed_form
                                  - 1.0))
            assert exact < 1e-10, exact
    _emit("C07", "integrated deviation curve <= closed form (p=1 exact)",
          worst <= 1.0 + 1e-6, f"max numeric/bound {worst:.12f}")


def test_c08_small_sum_bound():
    bad = 0
    worst = 0.0
    trials = 10 ** 5
    for p, alpha in ((1.0, 0.0), (2.0, 0.5)):
        for N in (4, 16):
            rep = check_lemma5(p, N, [0.05, 0.1, 0.2])
            bad += sum(v == FAIL for v in _verdicts(rep))
            # the check draws nothing: its exact rows face a Monte Carlo
            # copy of the Gamma(1/p) sums drawn here
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                entropy=child_seed(SEED, N + int(10 * alpha)),
                spawn_key=(0,))))
            sums = rng.gamma(1.0 / p, 1.0, size=(trials, N)).sum(axis=1)
            for r in rep.reports:
                eps = r.params[2]
                exact = float(special.gammainc(N / p, N * eps))
                assert r.lhs.std_err == 0.0
                assert abs(r.lhs.mean - exact) <= 1e-12 * exact, (p, N, eps)
                mc = bernoulli_ci(int((sums <= N * eps).sum()), trials)
                gap = abs(r.lhs.mean - mc.mean)
                assert gap <= 3.0 * mc.std_err + 1e-12, (p, N, eps)
                worst = max(worst, gap / mc.std_err)
    c_err = abs(lemma5_constant(1.0, 0.0) - math.e)
    _emit("C08", "small-sum probability bound, exact rows vs Monte Carlo",
          bad == 0 and c_err < 1e-12,
          f"0 FAIL, worst gap {worst:.2f} se, |C(1,0)-e| = {c_err:.1e}")


def test_c09_cutoff_chain():
    rep = run_cell(2.0, 4, [cutoff_chain_plan(2.0, 4)], 10 ** 6, SEED)[0]
    verdicts = _verdicts(rep)
    ok_links = all(v in (PASS, INCONCLUSIVE) for v in verdicts)
    a_half = 0.5 * math.exp(-4.0 * 4 ** (2.0 / 2.0))
    row6 = next(r for r in rep.reports if r.params[2] == 6.0)
    hi = row6.lhs.hi
    covered = hi >= a_half and rep.constants["plateau_oracle"] >= a_half
    _emit("C09", "cut-off chain links PASS/INCONCLUSIVE, plateau mass >= a/2",
          ok_links and covered and rep.constants["transfer_violations"] == 0,
          f"verdicts {sorted(set(verdicts))}, plateau CI hi {hi:.2e} "
          f"vs a/2 = {a_half:.2e}")


def test_c10_coarea_and_functional_equivalence():
    coarea_ok = True
    for p, n in ((2.0, 2), (1.0, 4)):
        rep = run_cell(p, n, [coarea_plan(p, n)], 10 ** 4, SEED)[0]
        coarea_ok &= all(v == PASS for v in _verdicts(rep))
    params = PBallParams(2.0, 2)
    eq = run_cell(2.0, 2, [functional_equivalence_plan(
        2.0, 2, coordinate_half_space(params, 0.5), r=0.0025, s=0.05)],
        10 ** 6, SEED)[0]
    no_fail = all(v != FAIL for v in _verdicts(eq))
    ref = eq.constants["reference"]
    rel = abs(eq.constants["limit"] / ref - 1.0)
    _emit("C10", "co-area identity and plateau-gradient limit within 3%",
          coarea_ok and no_fail and abs(ref - 2.0 / math.pi) < 1e-12
          and rel <= 0.03,
          f"limit {eq.constants['limit']:.5f} vs 2/pi, rel err {rel:.2%}")


def test_c11_byte_identical_runs(tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "isoplab", "--threads", "1",
             "--out-dir", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in names)
    n_csv = sum(f.endswith(".csv") for f in names)
    summary = json.loads((outs[0] / "summary.json").read_text())
    _emit("C11", "default config reruns byte-identical",
          same and summary["exit_code"] == 0,
          f"{n_csv} csv files identical, exit 0")
