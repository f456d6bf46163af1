"""Interval discrepancy engines against brute-force oracles."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrperm import (
    QrpermError,
    SizeRefusedError,
    bit_reversal,
    build_report,
    d_exact,
    d_star,
    golden,
    identity_perm,
    invert,
    lambda_inv,
    psi,
    random_perm,
    reversal_perm,
    rho_exp,
    sos_perm,
    sqrt_irr,
)
from qrperm import discrepancy, scan
from qrperm.discrepancy import _d_star_many, _deviation_rows, _pair_bounds
from qrperm.families import Permutation

from conftest import (
    oracle_d_cyclic,
    oracle_d_star,
    oracle_d_star_cubic,
    oracle_real_star,
    real_star_disc,
)


# ----------------------------------------------------------------- d_star

def test_d_star_frozen_values():
    assert d_star(psi(5, 2)) == Fraction(4, 5)
    assert d_star(identity_perm(4)) == Fraction(1)
    assert d_star(identity_perm(1)) == Fraction(0)


def test_d_star_matches_oracle_on_families():
    perms = [psi(13, 5), lambda_inv(13, 2), rho_exp(13, 1, 2),
             sos_perm(21, sqrt_irr(2)), reversal_perm(17)]
    for sigma in perms:
        want = oracle_d_star(sigma)
        assert d_star(sigma) == want
        assert oracle_d_star_cubic(sigma) == want


@pytest.mark.parametrize("make", [
    *(lambda n=n: random_perm(n, n) for n in (1, 2, 31, 32, 33, 63, 64, 65)),
    lambda: random_perm(263, 1),
    lambda: random_perm(263, 2),
    lambda: psi(1031, 5),
    lambda: sos_perm(2048, golden()),
], ids=[*(f"random-{n}" for n in (1, 2, 31, 32, 33, 63, 64, 65)),
        "random-263-1", "random-263-2", "psi-1031", "sos-2048"])
def test_d_star_matches_oracle_across_runs(make):
    # d_star sweeps runs of ceil(n/32) rows: one-row runs below 32, full
    # runs at 32 and 64, an overlapping last run at 33 and 65, long runs
    # above
    sigma = make()
    ds = d_star(sigma)
    assert ds == oracle_d_star(sigma)
    if sigma.n == 2048:
        assert d_star(invert(sigma)) == ds


@given(st.integers(1, 48), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_d_star_matches_oracle_random(n, seed):
    sigma = random_perm(n, seed)
    assert d_star(sigma) == oracle_d_star(sigma)


def _mixed_batch(n):
    """Random, psi, bit-reversal, Sos, identity and reversal rows of
    length n: extreme and typical D* side by side in one kernel call."""
    batch = [random_perm(n, seed) for seed in range(4)]
    batch += [psi(n, k) for k in (1, 2, 3, 5, n - 1)
              if k < n and math.gcd(k, n) == 1]
    if n & (n - 1) == 0:
        batch.append(bit_reversal(n))
    batch += [sos_perm(n, golden()), sos_perm(n, sqrt_irr(2)),
              identity_perm(n), reversal_perm(n)]
    return batch


def _spy_runs(monkeypatch):
    """The run counts _d_star_many asks _run_starts for, call by call."""
    runs_seen = []
    run_starts = discrepancy._run_starts

    def spy(n, runs):
        runs_seen.append(runs)
        return run_starts(n, runs)

    monkeypatch.setattr(discrepancy, "_run_starts", spy)
    return runs_seen


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 101])
def test_d_star_many_matches_d_star_on_mixed_batches(n, monkeypatch):
    # one-row runs below 32, full runs at 32, an overlapping last run at
    # 33 and 101; every prefix of the batch is a batch too.  The batch
    # tiled to _rows_per_call(n) rows fills the block at _MIN_RUNS runs
    # and sweeps exactly that many, whose last one overlaps at 31, 33
    # and 101.
    batch = _mixed_batch(n)
    images = np.array([sigma.image for sigma in batch])
    want = [d_star(sigma) for sigma in batch]
    runs_seen = _spy_runs(monkeypatch)
    for k in (1, 2, len(batch)):
        got = _d_star_many(images[:k], n)
        assert got.dtype == np.int64
        assert [Fraction(int(v), n) for v in got] == want[:k]
    assert runs_seen == [discrepancy._SEGMENTS] * 3
    k = discrepancy._rows_per_call(n)
    tiled = np.resize(images, (k, n))
    got = _d_star_many(tiled, n)
    assert runs_seen[-1] == discrepancy._MIN_RUNS
    assert [Fraction(int(v), n) for v in got] == (want * k)[:k]
    if n <= 12:
        assert want == [oracle_d_star_cubic(sigma) for sigma in batch]
    else:
        assert want == [oracle_d_star(sigma) for sigma in batch]


@pytest.mark.parametrize("p", [101, 251])
def test_psi_scan_kernel_rows_and_chunks(p, monkeypatch):
    # the rows the psi scan hands the kernel are psi_k's images, one per
    # pair representative k <= k^-1, in chunks of _rows_per_call(p)
    seen = []
    kernel = scan._d_star_many

    def spy(images, n):
        seen.append(images.copy())
        return kernel(images, n)

    monkeypatch.setattr(scan, "_d_star_many", spy)
    devs = scan._psi_devs(p)
    reps = [k for k in range(1, p) if pow(k, -1, p) >= k]
    chunk = discrepancy._rows_per_call(p)
    assert [len(rows) for rows in seen] == [
        min(chunk, len(reps) - i) for i in range(0, len(reps), chunk)]
    rows = np.concatenate(seen)
    assert rows.tolist() == [list(psi(p, k).image) for k in reps]
    assert devs == [p * d_star(psi(p, k)) for k in range(1, p)]
    # smaller blocks cut the pair list into chunks of 1, 7, 10, 25 and
    # 32, also mid-list, and the calls sweep _MIN_RUNS runs, 32 (a last
    # chunk of one row) and counts between; every value stays as it was
    runs_seen = _spy_runs(monkeypatch)
    for cells in (4, 28, 40, 100, 128):
        seen.clear()
        monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", cells * (p + 1))
        assert scan._psi_devs(p) == devs
        assert len(seen) > 1
        assert {len(rows) for rows in seen[:-1]} == {
            discrepancy._rows_per_call(p)}
    assert min(runs_seen) == discrepancy._MIN_RUNS
    assert max(runs_seen) == discrepancy._SEGMENTS
    assert any(discrepancy._MIN_RUNS < r < discrepancy._SEGMENTS
               for r in runs_seen)


# ----------------------------------------------------------------- d_exact

def test_d_exact_frozen_values():
    assert d_exact(identity_perm(4)) == Fraction(1)
    assert d_exact(identity_perm(1)) == Fraction(0)


def test_d_exact_matches_cyclic_oracle():
    perms = [psi(13, 5), psi(17, 3), lambda_inv(13, 2), rho_exp(11, 1, 2),
             reversal_perm(12), sos_perm(16, sqrt_irr(3))]
    perms += [random_perm(20, seed) for seed in range(5)]
    for sigma in perms:
        assert d_exact(sigma) == oracle_d_cyclic(sigma)


def test_sandwich_and_inverse_symmetry(small_corpus):
    for sigma in small_corpus:
        ds = d_star(sigma)
        de = d_exact(sigma)
        assert ds <= de <= 4 * ds or (ds == 0 and de == 0)
        assert d_exact(invert(sigma)) == de
        assert d_star(invert(sigma)) == ds


def test_identity_discrepancy_grows_linearly():
    for n in (16, 64, 256):
        assert d_exact(identity_perm(n)) >= Fraction(n, 8)


def test_size_cap_refusal():
    sigma = identity_perm(40)
    with pytest.raises(SizeRefusedError):
        d_exact(sigma, cap=39)


def _d_exact_pairs(sigma):
    """D by one j at a time against all i < j, in int64: the plain pair
    loop that the tiled sweep of d_exact must agree with."""
    n = sigma.n
    inv = np.argsort(sigma.image)[None, :]
    f = _deviation_rows(inv, np.arange(n + 1))[0].astype(np.int64)
    best = max(int(np.ptp(f[j] - f[:j], axis=1).max())
               for j in range(1, n + 1))
    return Fraction(best, n)


def _spy_np_max(monkeypatch, record):
    """Pass every array that discrepancy reduces with np.max to record:
    d_exact calls np.max only on its exact differences F_j - F_i, one
    pair per row of the array's leading axes."""

    class NumpySpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def max(self, a, *args, **kwargs):
            record(a)
            return np.max(a, *args, **kwargs)

    monkeypatch.setattr(discrepancy, "np", NumpySpy())


def _spy_tile_dtypes(monkeypatch):
    """The dtypes of the difference tiles d_exact reduces along b."""
    seen = set()
    _spy_np_max(monkeypatch, lambda a: seen.add(a.dtype))
    return seen


def test_d_exact_int16_tiles_up_to_twice_max_f_of_2_15(monkeypatch):
    # identity and reversal reach max|F| = floor(n^2/4): 2*max|F| is
    # 32512 at n = 255, so int16 holds every difference, and 32768 at
    # n = 256, one past int16
    seen = _spy_tile_dtypes(monkeypatch)
    for n, dtype in ((255, np.int16), (256, np.int32)):
        for sigma in (identity_perm(n), reversal_perm(n)):
            seen.clear()
            assert d_exact(sigma) == Fraction(n * n // 4, n)
            assert seen == {np.dtype(dtype)}


def _block_perm():
    """n = 416 in blocks of 52 placed by an 8-block pattern, identity
    within.  F is 52^2 * C on the block corners, max|C| = 6 and the best
    spread of C_j - C_i is 16, so 2*max|F| = 32448 passes the int16
    gate while n*D = 43264 does not fit int16."""
    m, blocks = 52, (6, 0, 4, 2, 5, 3, 7, 1)
    return Permutation(8 * m, tuple(b * m + t for b in blocks
                                    for t in range(m)))


def test_d_exact_int16_tiles_with_a_spread_past_int16(monkeypatch):
    # the int16 tiles need their spreads taken in int64
    sigma = _block_perm()
    seen = _spy_tile_dtypes(monkeypatch)
    assert d_exact(sigma) == _d_exact_pairs(sigma) == Fraction(43264, 416)
    assert seen == {np.dtype(np.int16)}


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17])
def test_d_exact_partial_tiles_match_cyclic_oracle(n):
    # below, at and past one 8-row j-block, and 17 = two blocks plus one
    perms = [identity_perm(n), reversal_perm(n)]
    perms += [random_perm(n, seed) for seed in range(3)]
    perms += [psi(n, k) for k in (2, 3, 5) if k < n and math.gcd(k, n) == 1]
    for sigma in perms:
        assert d_exact(sigma) == oracle_d_cyclic(sigma)


@pytest.mark.parametrize("n", [256, 263, 300, 512])
def test_d_exact_tiles_match_the_pair_loop(n, monkeypatch):
    # random, psi, reversal and bit-reversal members on both sides of
    # the int16 gate, at sizes whose last i-block and (at 300) last
    # j-block are partial
    perms = [random_perm(n, seed) for seed in (3, 4)]
    perms += [psi(n, k) for k in (2, 7, n - 1) if math.gcd(k, n) == 1]
    perms += [identity_perm(n), reversal_perm(n)]
    if n & (n - 1) == 0:
        perms.append(bit_reversal(n))
    seen = _spy_tile_dtypes(monkeypatch)
    for sigma in perms:
        assert d_exact(sigma) == _d_exact_pairs(sigma)
    assert seen == {np.dtype(np.int16), np.dtype(np.int32)}


def _spreads(f):
    """max_b - min_b of F_j - F_i for every pair (i, j), one row j at a
    time in int64: the brute force the pair bounds must dominate."""
    f = f.astype(np.int64)
    return np.array([np.ptp(f[j] - f, axis=1) for j in range(len(f))])


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_pair_bounds_dominate_every_spread(small_corpus, dtype):
    # blocks of 16 columns, with a partial last block unless 16 | n + 1
    perms = list(small_corpus)
    perms += [random_perm(n, seed) for n in (1, 2, 15, 16, 17, 40, 64)
              for seed in range(3)]
    for sigma in perms:
        n = sigma.n
        inv = np.argsort(sigma.image)[None, :]
        f = _deviation_rows(inv, np.arange(n + 1))[0].astype(dtype)
        bound = _pair_bounds(f).astype(np.int64)
        spreads = _spreads(f)
        assert (bound == bound.T).all() and not bound.diagonal().any()
        assert (spreads <= bound).all(), sigma


def test_pair_bounds_hold_a_spread_past_int16():
    # the int16 gate admits spreads past int16, so the bounds A + A^T
    # must not wrap: uint16 holds them
    sigma = _block_perm()
    inv = np.argsort(sigma.image)[None, :]
    f = _deviation_rows(inv, np.arange(417))[0]
    bound = _pair_bounds(f.astype(np.int16))
    spreads = _spreads(f)
    assert bound.dtype == np.uint16
    assert int(spreads.max()) == 43264
    assert (spreads <= bound.astype(np.int64)).all()


def test_d_exact_is_exact_under_tight_bounds_and_decoys(monkeypatch):
    # any symmetric matrix with a zero diagonal that dominates the
    # spreads is a valid bound.  Here it is the spreads themselves,
    # which leave no slack for an off-by-one in the pruning, raised by
    # n^2 on the pairs (j - 1, j): every tile's bound then tops every
    # spread, so every tile is swept, and only the tight bounds of the
    # other pairs rule rows out
    def tight_with_decoys(f):
        spreads = _spreads(f)
        decoy = np.eye(len(f), k=1, dtype=bool)
        return spreads + len(f) ** 2 * (decoy | decoy.T)

    monkeypatch.setattr(discrepancy, "_pair_bounds", tight_with_decoys)
    for n in (5, 9, 16, 17, 24, 40):
        for seed in range(10):
            sigma = random_perm(n, seed)
            assert d_exact(sigma) == _d_exact_pairs(sigma)


def _stop_rule_case(sigma):
    """Tight bounds under which the sweep holds a best spread of D - 1
    when it meets the one tile with pairs of spread D, or None when
    sigma has no such layout.  A pair belongs to the tile of its larger
    row j, (j - 1) // 8.  One decoy (+n^2) on a pair of spread D - 1
    outside the best pairs' tile puts the decoy's tile first, and that
    tile holds no pair of spread D; the best pairs' tile comes next,
    with bound exactly D."""
    n = sigma.n
    inv = np.argsort(sigma.image)[None, :]
    spreads = _spreads(_deviation_rows(inv, np.arange(n + 1))[0])
    lower = np.tril(spreads)
    top = lower.max()
    tiles = {(j - 1) // discrepancy._J_ROWS
             for j, _ in zip(*np.nonzero(lower == top))}
    if len(tiles) > 1:
        return None
    runner_up = [(j, i) for j, i in zip(*np.nonzero(lower == top - 1))
                 if (j - 1) // discrepancy._J_ROWS not in tiles]
    if not runner_up:
        return None
    j, i = runner_up[0]
    bound = spreads.copy()
    bound[j, i] = bound[i, j] = spreads[j, i] + n * n
    return bound


def test_d_exact_stops_only_below_the_tight_bound_of_the_best_pair(
        monkeypatch):
    # the decoy's tile leaves a best spread of D - 1, and the best pairs'
    # tile has largest bound D: the sweep must not stop there.  Few
    # permutations have a pair of spread D - 1 outside that tile; these do
    for n, seed in ((23, 9), (24, 2), (27, 4), (30, 8), (35, 3), (37, 3)):
        sigma = random_perm(n, seed)
        bound = _stop_rule_case(sigma)
        assert bound is not None
        monkeypatch.setattr(discrepancy, "_pair_bounds", lambda f: bound)
        assert d_exact(sigma) == _d_exact_pairs(sigma)


def test_d_exact_sweeps_few_pairs_of_a_random_member(monkeypatch):
    # a random member's pair bounds mostly fall below D, so the swept
    # tiles cover under 10% of the n(n+1)/2 pairs i < j (5.5% here)
    sigma = random_perm(512, 1)
    pairs = []
    _spy_np_max(monkeypatch, lambda a: pairs.append(a.size // a.shape[-1]))
    assert d_exact(sigma) == _d_exact_pairs(sigma)
    assert 0 < sum(pairs) < 0.1 * 512 * 513 / 2


def test_d_exact_inverse_symmetry_at_the_cap():
    for sigma in (bit_reversal(512), random_perm(512, 5), psi(512, 5)):
        assert d_exact(invert(sigma)) == d_exact(sigma)


def test_deviation_rows_build_needs_no_second_matrix():
    # F plus one chunk of the a*b product, and 128 KiB for numpy's
    # casting buffers and the small vectors
    for sigma in (bit_reversal(512), identity_perm(512), psi(263, 154),
                  random_perm(100, 3)):
        inv = discrepancy._inverses(np.asarray(sigma.image)[None, :])
        tracemalloc.start()
        try:
            f = _deviation_rows(inv, np.arange(sigma.n + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 4 * discrepancy._SEGMENTS * (sigma.n + 1) + 128 * 1024
        assert peak <= f.nbytes + slack, (sigma.family, sigma.n, peak)


def test_d_exact_peak_allocation_stays_within_its_arrays():
    # tracemalloc sees numpy's buffers.  The peak is the largest of three
    # phases: the closed-form build of F (int32, and its int16 copy),
    # the bounds (F, its 16-column block maxima and minima,
    # A and U) and the sweep (F, U and the 2*_BLOCK_CELLS cells of tile
    # buffers), with 256 KiB of slack for the per-row and per-tile
    # vectors.  F is int16 for bit reversal and psi, int32 for identity;
    # A and U are uint16 or int32 to match.
    for sigma, item in ((bit_reversal(512), 2), (identity_perm(512), 4),
                        (psi(263, 154), 2)):
        cells = (sigma.n + 1) ** 2
        phases = (cells * (4 + 2),
                  cells * item * (1 + 1 / 8 + 2),
                  cells * item * 2 + 2 * discrepancy._BLOCK_CELLS * item)
        tracemalloc.start()
        try:
            d_exact(sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(phases) + 256 * 1024, (sigma.family, peak)


def test_deviation_rows_dtype_boundary():
    # n^2 < 2^31 exactly up to n = 46340
    for n, dtype in ((46340, np.int32), (46341, np.int64)):
        inv = np.arange(n)[None, :]
        assert _deviation_rows(inv, np.arange(1)).dtype == dtype


def _spy_sweep_dtypes(monkeypatch):
    """The dtype of each kernel call's step rows, which is its sweep's."""
    seen = []
    window = discrepancy.sliding_window_view

    def spy(steps, width):
        seen.append(steps.dtype)
        return window(steps, width)

    monkeypatch.setattr(discrepancy, "sliding_window_view", spy)
    return seen


def test_d_star_int32_sweep_past_the_row_boundary(monkeypatch):
    # the first n with int64 closed-form rows; d_star casts them to an
    # int32 sweep, whose |F| + n stays below 2^31.  Identity's F(a, a)
    # peaks at (n^2 - 1)/4 near a = n/2, where n*count > 2^31 already.
    seen = _spy_sweep_dtypes(monkeypatch)
    n = 46341
    assert d_star(identity_perm(n)) == Fraction(n * n - 1, 4 * n)
    assert seen == [np.int32]


def test_d_star_int16_sweep_up_to_n_360(monkeypatch):
    # |F| + n <= n^2/4 + n < 2^15 exactly up to n = 360, so the sweep is
    # int16 there and int32 from 361 on, cast from int32 closed-form
    # rows.  Identity and reversal reach |F| = floor(n^2/4), at F(a, a)
    # and F(a, n - a) near a = n/2.
    seen = _spy_sweep_dtypes(monkeypatch)
    for n, dtype in ((360, np.int16), (361, np.int32)):
        for sigma in (identity_perm(n), reversal_perm(n)):
            seen.clear()
            ds = d_star(sigma)
            assert seen == [dtype]
            assert ds == oracle_d_star(sigma) == Fraction(n * n // 4, n)
        batch = _mixed_batch(n)
        seen.clear()
        got = _d_star_many(np.array([sigma.image for sigma in batch]), n)
        assert seen == [dtype]
        assert [Fraction(int(v), n) for v in got] == [
            d_star(sigma) for sigma in batch]


# ------------------------------------------------------------- real star

def test_real_star_disc_examples():
    assert real_star_disc([Fraction(1, 2)]) == Fraction(1, 2)
    assert real_star_disc([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                           Fraction(3, 4)]) == Fraction(1)
    assert real_star_disc([]) == 0
    # evenly shifted points are the low-discrepancy extreme
    assert real_star_disc([Fraction(2 * i + 1, 8)
                           for i in range(4)]) == Fraction(1, 2)
    with pytest.raises(QrpermError, match="\\[0, 1\\)"):
        real_star_disc([Fraction(1)])


def test_real_star_disc_handles_duplicates():
    assert real_star_disc([Fraction(1, 2), Fraction(1, 2)]) == Fraction(1)
    # a run of three equal points: the value is at the run's ends
    assert real_star_disc([Fraction(0), Fraction(1, 4), Fraction(1, 4),
                           Fraction(1, 4)]) == Fraction(3)


@given(st.lists(st.fractions(min_value=0, max_value=Fraction(63, 64),
                             max_denominator=64), max_size=12))
@settings(max_examples=150)
def test_real_star_disc_matches_grid_oracle(points):
    r = float(real_star_disc(points))
    want_closed, want_half = oracle_real_star([float(p) for p in points])
    assert math.isclose(r, want_closed, abs_tol=1e-9)
    assert math.isclose(r, want_half, abs_tol=1e-9)


# ---------------------------------------------------------------- reports

def test_build_report_below_cap():
    rep = build_report(psi(5, 2))
    assert rep.d_star == Fraction(4, 5)
    assert rep.d_exact == rep.d_upper
    assert rep.ratio_log2 == pytest.approx(float(rep.d_upper) / math.log2(5))
    data = json.loads(rep.to_json())
    assert data["d_zero"] == data["d_exact"] == data["d_upper"]
    assert data["d_lower"] == data["d_star"]
    assert data["d_star"] == {"num": 4, "den": 5}
    assert data["d_star_float"] == pytest.approx(0.8)
    assert data["family"] == "psi"


def test_build_report_above_cap_uses_sandwich():
    sigma = random_perm(30, 3)
    rep = build_report(sigma, cap=16)
    assert rep.d_exact is None
    assert rep.d_upper == 4 * rep.d_star
    data = json.loads(rep.to_json())
    assert data["d_exact"] is None and data["d_zero"] is None
    assert data["d_lower"] == data["d_star"]
    assert data["d_upper"]["num"] == (4 * rep.d_star).numerator


def test_build_report_n1_has_no_log_ratios():
    rep = build_report(Permutation(1, (0,)))
    assert rep.ratio_log2 is None and rep.ratio_sqrt_log is None
    assert rep.ratio_sqrt == 0.0
