"""Samplers: determinism, the prefix and block-size invariance of the
per-role streams, the block streams, the factor laws of every mu_p branch,
the ball sampler as the push-forward of the product stream, the norm
guard, distributional correctness against the exact marginal CDF, the
rejection oracle and its grid envelope, and CSV round-trips."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from isoplab import geometry, sampling
from isoplab.geometry import (
    BLOCK_ROWS,
    PBallParams,
    ball_volume,
    bgmn_map,
    block_rows,
    lp_norm,
    marginal_cdf,
    marginal_second_moment,
)
from isoplab.sampling import (
    GRID_SIDE,
    REJECTION_CHUNK,
    _check_ball_norms,
    _chunk_rng,
    _grid_cells,
    _grid_envelope,
    _rejection_chunk,
    SampleBatch,
    ball_blocks,
    ball_sampler,
    child_seed,
    product_ball_blocks,
    rejection_sample_ball,
    rejection_sampler,
    sample_ball,
    sample_product,
    write_batch_csv,
)

PARAMS = PBallParams(1.5, 3)


def test_product_batch_shape_and_tag():
    b = sample_product(PARAMS, 1000, seed=5)
    assert b.measure_tag == "MU_PN"
    assert b.points.shape == (1000, 4)
    assert b.dim == 4 and b.count == 1000 and b.seed == 5
    # first n columns are signed, last is positive
    assert np.any(b.points[:, 0] < 0.0)
    assert np.all(b.points[:, 3] > 0.0)


def test_bit_determinism():
    a = sample_product(PARAMS, 2000, seed=9).points
    b = sample_product(PARAMS, 2000, seed=9).points
    np.testing.assert_array_equal(a, b)
    c = sample_product(PARAMS, 2000, seed=10).points
    assert not np.array_equal(a, c)


def test_full_chunks_are_count_invariant():
    # each draw role fills its rows in order from its own generator, so a
    # shorter batch at the same seed is the start of a longer one, past
    # row 512 and up to its last row
    a = sample_product(PARAMS, 600, seed=1).points
    b = sample_product(PARAMS, 520, seed=1).points
    np.testing.assert_array_equal(a[:512], b[:512])
    np.testing.assert_array_equal(a[512:520], b[512:520])


def test_child_seed_is_stable_and_spread():
    assert child_seed(123, 0) == child_seed(123, 0)
    seen = {child_seed(7, k) for k in range(50)}
    assert len(seen) == 50
    assert all(0 <= s < 2 ** 64 for s in seen)


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        SampleBatch("MU_PN", 3, 10, 0, np.zeros((9, 3)))
    with pytest.raises(ValueError):
        sample_product(PARAMS, 0, seed=1)


# every branch of the factor law: p = 1, p = 2, and the Gamma(1+1/p) one
FACTOR_PS = [1.0, 1.25, 1.5, 1.75, 2.0]


@pytest.mark.parametrize("p", FACTOR_PS)
def test_product_marginals_match_the_one_dim_laws(p):
    from isoplab.measures1d import make_mu_p, make_nu_p
    n = 3
    pts = sample_product(PBallParams(p, n), 20000, seed=17).points
    d_mu = stats.kstest(pts[:, 0], make_mu_p(p).cdf).statistic
    d_nu = stats.kstest(pts[:, n], make_nu_p(p).cdf).statistic
    assert d_mu < 0.015
    assert d_nu < 0.015


@pytest.mark.parametrize("p", FACTOR_PS)
def test_product_powers_follow_gamma_and_exponential_laws(p):
    # |z_j|^p ~ Gamma(1/p) for every mu_p coordinate (the n columns of a row
    # are independent, so they are pooled) and z_{n+1}^p ~ Exp(1)
    n = 3
    pts = sample_product(PBallParams(p, n), 200_000, seed=53).points
    gam = (np.abs(pts[:, :n]) ** p).ravel()
    assert stats.kstest(gam, stats.gamma(1.0 / p).cdf).pvalue > 1e-3
    assert stats.kstest(pts[:, n] ** p, stats.expon.cdf).pvalue > 1e-3


@pytest.mark.parametrize("p", FACTOR_PS)
def test_product_signs_are_fair_and_independent_of_magnitude(p):
    n = 3
    coords = sample_product(PBallParams(p, n), 100_000, seed=59).points[:, :n]
    coords = coords.ravel()
    big = np.abs(coords) > np.median(np.abs(coords))
    for part in (coords, coords[big], coords[~big]):
        share = (part < 0.0).mean()
        assert abs(share - 0.5) < 4.0 * math.sqrt(0.25 / part.size), share


@pytest.mark.parametrize("p", [1.0, 1.25, 2.0])
def test_ball_is_the_push_forward_of_the_product_stream(p):
    # same (params, count, seed): V_PN is T of the MU_PN rows, across the
    # row-block boundaries at rows 8192 and 16384
    params = PBallParams(p, 3)
    count = 2 * block_rows(4) + 100
    ball = sample_ball(params, count, seed=61).points
    prod = sample_product(params, count, seed=61).points
    want = bgmn_map(prod, p)
    rel = np.abs(ball - want) / np.abs(want)
    assert rel.max() <= 1e-14


def _one_shot_roles(p, n, rows, seed):
    # every draw role in one shot from raw generator calls, one generator
    # per role, the children of SeedSequence(seed, spawn_key=(0,)): the
    # whole (rows, n) g block, the whole U or second Exp(1) block, and the
    # E column
    rg, ru, re = (np.random.Generator(np.random.PCG64(child)) for child in
                  np.random.SeedSequence(entropy=seed,
                                         spawn_key=(0,)).spawn(3))
    if p == 2.0:
        g = rg.standard_normal((rows, n))
        g *= math.sqrt(0.5)
    elif p == 1.0:
        g = rg.standard_exponential((rows, n))
        g -= ru.standard_exponential((rows, n))
    else:
        g = rg.standard_gamma(1.0 + 1.0 / p, (rows, n))
        g **= 1.0 / p
        g *= ru.uniform(-1.0, 1.0, (rows, n))
    return g, re.standard_exponential(rows)


def _one_shot_ball(p, n, rows, seed):
    g, e = _one_shot_roles(p, n, rows, seed)
    s = e + np.sum(np.abs(g) ** p, axis=1)
    return g * (s ** (-1.0 / p))[:, None]


def _one_shot_product(p, n, rows, seed):
    g, e = _one_shot_roles(p, n, rows, seed)
    return np.column_stack([g, e ** (1.0 / p)])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_streams_are_one_draw_per_role_past_2_pow_18_rows(p):
    # one generator per role for the whole stream: row 2^18 and beyond
    # continue the same draws, with no restart of the generators there
    params, count = PBallParams(p, 1), (1 << 18) + 17
    assert _same_bits(sample_ball(params, count, 5).points,
                      _one_shot_ball(p, 1, count, 5))
    assert _same_bits(sample_product(params, count, 5).points,
                      _one_shot_product(p, 1, count, 5))


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
def test_ball_is_bit_equal_to_the_one_shot_formula(p):
    # three full row blocks and a partial one: blocked in-place drawing and
    # scaling must not move a bit; every batch is checked only after all of
    # them are drawn, so a buffer shared across calls shows
    count = 3 * BLOCK_ROWS + 117
    drawn = {(n, seed): sample_ball(PBallParams(p, n), count, seed)
             for n in (1, 3, 7) for seed in (71, 72)}
    for (n, seed), batch in drawn.items():
        assert _same_bits(batch.points,
                          _one_shot_ball(p, n, count, seed)), (n, seed)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_wide_ball_is_bit_equal_to_the_one_shot_formula(p):
    # wide rows are drawn and scaled block_rows(n) rows at a time (512 at
    # n = 64, 32 at n = 1024); three full blocks and a partial one
    for n in (64, 1024):
        count = 3 * block_rows(n) + 22
        batch = sample_ball(PBallParams(p, n), count, 73)
        assert _same_bits(batch.points, _one_shot_ball(p, n, count, 73)), n


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sample", [sample_ball, sample_product])
def test_batches_are_prefixes_of_larger_batches(sample, p):
    # each draw role fills its rows in order from its own generator, so k
    # rows are the first k rows of every larger batch, inside the first
    # row block (8192 rows at n = 3) and beyond it
    params = PBallParams(p, 3)
    batches = {k: sample(params, k, 79).points
               for k in (1, 300, 511, 512, 520, 600, 8192, 8193, 16500)}
    for k, pts in batches.items():
        for larger in batches.values():
            if larger.shape[0] > k:
                assert np.array_equal(larger[:k], pts), k


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sample", [sample_ball, sample_product])
def test_bits_do_not_depend_on_the_block_size(sample, p, monkeypatch):
    # blocks of block_rows(n + 1) rows: 8192, 6 and 1 at n = 3, 15 at n = 64
    for n, count in ((3, 20000), (64, 1000)):
        params = PBallParams(p, n)
        want = sample(params, count, 83).points
        for rows in (24, 3):
            monkeypatch.setattr(geometry, "BLOCK_ROWS", rows)
            got = sample(params, count, 83).points
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64)), (n, rows)
        monkeypatch.undo()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_block_streams_are_the_batches_rows(p):
    params = PBallParams(p, 5)
    step = block_rows(params.n + 1)
    count = 3 * step + 50
    def product_half(params, count, seed):
        # the Z half of the product and ball stream
        return ((lo, Z) for lo, (Z, _, _) in
                product_ball_blocks(params, count, seed))

    for stream, sample in ((ball_blocks, sample_ball),
                           (product_half, sample_product)):
        pairs = list(stream(params, count, 89))
        assert [lo for lo, _ in pairs] == [0, step, 2 * step, 3 * step]
        rows = np.concatenate([block for _, block in pairs])
        assert np.array_equal(rows, sample(params, count, 89).points)
    with pytest.raises(ValueError):
        ball_blocks(params, 0, 89)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_product_ball_blocks_are_both_streams_bit_for_bit(p):
    # one draw gives the product rows Z and their ball points X = T(Z): the
    # rows of sample_product and sample_ball at the same seed, across row
    # blocks (8192 rows at n = 3, 512 at n = 64) and as prefixes of larger
    # batches; with them, |z|_p as s^{1/p} of the s that T divides by,
    # within rounding of the norm of Z and T's exact divisor: X zp is Z's
    # first n coordinates
    for n, counts in ((3, (1, 8192, 8193, 2 * block_rows(4) + 17)),
                      (64, (1, 3 * block_rows(65) + 5))):
        params = PBallParams(p, n)
        larger = max(counts) + 300
        Z_all = sample_product(params, larger, 91).points
        X_all = sample_ball(params, larger, 91).points
        for count in counts:
            pairs = list(product_ball_blocks(params, count, 91))
            assert [lo for lo, _ in pairs] == list(
                range(0, count, block_rows(n + 1)))
            Z = np.concatenate([Zb for _, (Zb, _, _) in pairs])
            X = np.concatenate([Xb for _, (_, Xb, _) in pairs])
            zp = np.concatenate([zb for _, (_, _, zb) in pairs])
            assert _same_bits(Z, Z_all[:count]), (n, count)
            assert _same_bits(X, X_all[:count]), (n, count)
            np.testing.assert_allclose(zp, lp_norm(Z, p), rtol=1e-14)
            np.testing.assert_allclose(X * zp[:, None], Z[:, :-1],
                                       rtol=1e-14, atol=1e-300)


def _guarded_rows(stream, monkeypatch) -> list:
    checked = []
    real = sampling._check_ball_norms
    monkeypatch.setattr(sampling, "_check_ball_norms",
                        lambda pts, p: checked.append(len(pts)) or real(pts, p))
    for _ in stream(PBallParams(1.5, 3), 2 * block_rows(4) + 10, 97):
        pass
    return checked


def test_ball_guard_covers_every_streamed_block(monkeypatch):
    assert _guarded_rows(ball_blocks, monkeypatch) == [
        block_rows(4), block_rows(4), 10]


def test_ball_guard_covers_every_product_ball_block(monkeypatch):
    assert _guarded_rows(product_ball_blocks, monkeypatch) == [
        block_rows(4), block_rows(4), 10]


def test_ball_rejects_empty_batches():
    with pytest.raises(ValueError):
        sample_ball(PARAMS, 0, seed=1)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_ball_norm_guard_trips_beyond_its_tolerance(p):
    v = np.array([[0.3, -0.5, 0.2], [0.1, 0.1, 0.1]])
    unit = v / lp_norm(v, p)[:, None]
    _check_ball_norms(unit * (1.0 + 1e-13), p)
    with pytest.raises(RuntimeError):
        _check_ball_norms(unit * (1.0 + 1e-11), p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_ball_marginal_matches_exact_cdf(p):
    params = PBallParams(p, 3)
    pts = sample_ball(params, 20000, seed=19).points
    d = stats.kstest(pts[:, 0], lambda t: marginal_cdf(params, t)).statistic
    assert d < 0.015
    assert np.all(lp_norm(pts, p) <= 1.0 + 1e-12)


def test_rejection_agrees_with_push_forward():
    params = PBallParams(1.5, 2)
    a = sample_ball(params, 20000, seed=23).points
    b = rejection_sample_ball(params, 20000, seed=29).points
    assert np.all(lp_norm(b, params.p) <= 1.0)
    d = stats.ks_2samp(a[:, 0], b[:, 0]).statistic
    assert d < 0.02


def test_rejection_second_moment():
    params = PBallParams(1.0, 2)
    pts = rejection_sample_ball(params, 40000, seed=31).points
    sigma2 = marginal_second_moment(params)
    est = (pts[:, 0] ** 2).mean()
    se = (pts[:, 0] ** 2).std(ddof=1) / np.sqrt(pts.shape[0])
    assert abs(est - sigma2) < 4.0 * se


def test_rejection_refuses_hopeless_cases():
    with pytest.raises(ValueError):
        rejection_sample_ball(PBallParams(1.0, 12), 10, seed=0)
    # n = 10, p = 1: cube acceptance Vol(B_1^10)/2^10 = 1/10! < 1e-6
    with pytest.raises(RuntimeError):
        rejection_sample_ball(PBallParams(1.0, 10), 10, seed=0)


@pytest.mark.parametrize("p, n, m", [(1.0, 2, 4), (1.0, 4, 4), (1.5, 3, 4),
                                     (2.0, 3, 5), (1.5, 4, 3)])
def test_grid_envelope_is_the_cells_meeting_the_ball(p, n, m):
    # brute force over all m^n orthant cells: [k/m, (k+1)/m] meets B_p^n iff
    # the point of the cell nearest the origin, its lower corner, lies in it
    want = {k for k in itertools.product(range(m), repeat=n)
            if sum((ki / m) ** p for ki in k) <= 1.0}
    cells = _grid_cells(p, n, m)
    got = {tuple(c) for c in cells.T.tolist()}
    assert cells.shape[1] == len(got)      # no cell listed twice
    assert got == want
    assert _grid_cells(p, n, m, cap=len(want) - 1) is None


def _ascending_envelope(p, n):
    # reference: every side from 2 up, keeping the last table that fits
    m, cells = 1, np.zeros((n, 1), dtype=np.uint8)
    for side in range(2, GRID_SIDE + 1):
        finer = _grid_cells(p, n, side)
        if finer is None:
            break
        m, cells = side, finer
    return m, cells


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
def test_grid_envelope_is_the_ascending_search(p):
    # the envelope searches from GRID_SIDE down and stops at the first
    # table that fits; that is the table the ascending search ends on at
    # every n the oracle accepts
    accepted = [n for n in range(1, 11)
                if ball_volume(p, n) / 2.0 ** n >= 1e-6]
    assert accepted
    for n in accepted:
        m, cells = _grid_envelope(p, n)
        want_m, want = _ascending_envelope(p, n)
        assert m == want_m, n
        np.testing.assert_array_equal(cells, want)


@pytest.mark.parametrize("p, n", [(1.0, 6), (1.5, 3), (2.0, 4)])
def test_rejection_chunk_is_the_masked_formula(p, n):
    # reference: the chunk with fancy-indexed gathers and the signs flipped
    # by a masked multiply; np.take and copysign give the same bits
    m, cells = _grid_envelope(p, n)
    rng = _chunk_rng(9, 0)
    pick = rng.integers(0, cells.shape[1], size=REJECTION_CHUNK)
    x = rng.random((n, REJECTION_CHUNK))
    x += cells[:, pick]
    x /= m
    s = sum(column ** p for column in x)
    want = x[:, s <= 1.0].T
    sg = rng.random(want.shape)
    want[sg < 0.5] *= -1.0
    got = _rejection_chunk(_chunk_rng(9, 0), p, m, cells)
    assert 0 < got.shape[0] < REJECTION_CHUNK
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rejection_marginal_where_the_envelope_is_loosest():
    # p = 1, n = 8: the envelope is furthest from the ball of all C01 cells;
    # every coordinate has the same marginal, so all n are checked
    params = PBallParams(1.0, 8)
    pts = rejection_sample_ball(params, 40000, seed=41).points
    assert np.all(lp_norm(pts, params.p) <= 1.0)
    for j in range(params.n):
        d = stats.kstest(pts[:, j], lambda t: marginal_cdf(params, t)).statistic
        assert d < 0.015, (j, d)


def _first_chunk_accepts(params, seed):
    m, cells = _grid_envelope(params.p, params.n)
    return _rejection_chunk(_chunk_rng(seed, 0), params.p, m, cells).shape[0]


# a chunk of REJECTION_CHUNK = 2^16 candidates accepts about 8140 points at
# p = 1, n = 6, so 20000 points take three chunks
REJECTION_PARAMS = PBallParams(1.0, 6)


def test_rejection_bit_determinism():
    params = REJECTION_PARAMS
    assert _first_chunk_accepts(params, 43) < 10000
    a = rejection_sample_ball(params, 20000, seed=43)
    b = rejection_sample_ball(params, 20000, seed=43)
    np.testing.assert_array_equal(a.points, b.points)
    c = rejection_sample_ball(params, 20000, seed=44)
    assert not np.array_equal(a.points, c.points)


def test_rejection_batches_are_prefixes_of_larger_batches():
    # every chunk draws REJECTION_CHUNK candidates whatever count is, so a
    # batch of k points is the first k points of a larger one; these counts
    # take one, two and three chunks
    params = REJECTION_PARAMS
    assert _first_chunk_accepts(params, 47) < 10000
    batches = {k: rejection_sample_ball(params, k, seed=47)
               for k in (1, 3000, 10000, 20000)}
    for k, batch in batches.items():
        again = rejection_sample_ball(params, k, seed=47)
        assert again.points.tobytes() == batch.points.tobytes(), k
        for larger in batches.values():
            if larger.count > k:
                assert np.array_equal(larger.points[:k], batch.points), k


def test_sampler_factories_return_the_samplers_bits():
    params = PBallParams(1.5, 3)
    for factory, sample in ((ball_sampler, sample_ball),
                            (rejection_sampler, rejection_sample_ball)):
        got = factory(params)(500, 3)
        want = sample(params, 500, 3)
        assert (got.measure_tag, got.seed) == (want.measure_tag, 3)
        assert got.points.tobytes() == want.points.tobytes()


def test_csv_round_trip(tmp_path):
    batch = sample_ball(PBallParams(1.5, 3), 250, seed=37)
    path = tmp_path / "pts.csv"
    write_batch_csv(batch, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3"
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(back, batch.points)  # repr round-trips exactly
