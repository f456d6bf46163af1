"""Partial-rank sequences, hit sets, gap checks, prefix star discrepancy."""

import dataclasses
import functools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrperm import (
    QrpermError,
    Permutation,
    QuadraticIrrational,
    SizeRefusedError,
    a_set,
    b_sequence,
    d_exact,
    d_star,
    discrelation_holds,
    frac_compare,
    frac_float,
    gap_check,
    golden,
    identity_perm,
    max_prefix_star,
    parse_alpha,
    prefix_star_nums,
    psi,
    random_perm,
    reversal_perm,
    sos_perm,
    sqrt_irr,
)
from qrperm import discrepancy, ranksets

from conftest import b_of_k, real_star_disc


def _oracle_b(sigma, k: int) -> int:
    return sum(1 for q in range(1, k + 1)
               if sigma.image[q - 1] <= sigma.image[k - 1])


# ----------------------------------------------------------- B sequences

def test_b_of_k_frozen_values():
    want = [1, 2, 1, 3, 1, 4, 7, 3, 7, 2, 7, 12]
    assert [b_of_k(sqrt_irr(2), k) for k in range(1, 13)] == want
    assert b_of_k(sqrt_irr(2), 2) == 2
    assert b_of_k(sqrt_irr(2), 3) == 1
    with pytest.raises(QrpermError):
        b_of_k(sqrt_irr(2), 0)


def test_b_of_k_agrees_with_ranking_permutation():
    for alpha in (golden(), sqrt_irr(2), sqrt_irr(3)):
        n = 50
        seq = b_sequence(sos_perm(n, alpha))
        assert seq == [b_of_k(alpha, k) for k in range(1, n + 1)]


def test_b_sequence_frozen_small():
    assert b_sequence(identity_perm(5)) == [1, 2, 3, 4, 5]
    assert b_sequence(reversal_perm(5)) == [1, 1, 1, 1, 1]
    assert b_sequence(psi(5, 2)) == [1, 2, 3, 2, 4]


@given(st.integers(1, 80), st.integers(0, 2**32))
@example(1, 0)  # merge-kernel block boundaries: 2^k - 1, 2^k, 2^k + 1
@example(2, 0)
@example(63, 1)
@example(64, 2)
@example(65, 3)
@settings(max_examples=60, deadline=None)
def test_b_sequence_matches_quadratic_oracle(n, seed):
    sigma = random_perm(n, seed)
    assert b_sequence(sigma) == [_oracle_b(sigma, k)
                                 for k in range(1, n + 1)]


# ---------------------------------------------------------------- A sets

def test_a_set_identity_and_reversal():
    ranks = a_set(identity_perm(8))
    assert ranks.values == tuple(range(1, 9))
    assert ranks.max_gap == 1 and ranks.count == 8
    assert ranks.widest_empty is None

    ranks = a_set(reversal_perm(8))
    assert ranks.values == (1,)
    assert ranks.max_gap == 8  # from 1 up to the sentinel 9
    assert ranks.widest_empty == (2, 8)


def test_a_set_deduplicates_and_sorts():
    sigma = psi(5, 2)  # B = 1 2 3 2 4
    ranks = a_set(sigma)
    assert ranks.values == (1, 2, 3, 4)
    assert ranks.count == 4
    assert ranks.max_gap == 2  # gap from 4 to the sentinel 6


# ------------------------------------------------------------- gap check

def test_gap_check_against_direct_computation():
    sigma = psi(13, 5)
    chk = gap_check(sigma, d_exact(sigma))
    ranks = a_set(sigma)
    assert chk.max_gap == ranks.max_gap
    assert chk.required_length ** 2 >= 32 * 13 * d_exact(sigma)
    assert (chk.required_length - 1) ** 2 < 32 * 13 * d_exact(sigma)
    assert chk.ok == (chk.max_gap <= chk.required_length)
    assert chk.ok


def test_gap_check_edge_bounds():
    sigma = psi(7, 3)
    with pytest.raises(QrpermError, match=">= 0"):
        gap_check(sigma, -1)
    chk = gap_check(sigma, 0)
    assert chk.required_length == 0
    assert not chk.ok  # max_gap is at least 1 for any permutation


def test_gap_check_holds_across_small_families(small_corpus):
    for sigma in small_corpus:
        chk = gap_check(sigma, 4 * d_exact(sigma))
        assert chk.ok, (sigma.family, sigma.params, chk)


# ------------------------------------------------------------ prefix star

def test_max_prefix_star_frozen_golden():
    ps = max_prefix_star(golden(), sos_perm(20, golden()))
    assert ps.value == pytest.approx(1.3769410125094588, abs=1e-9)
    assert ps.argmax_s == 15
    assert ps.final == pytest.approx(1.2291236000336312, abs=1e-9)


def _oracle_prefix_star_float(alpha, n):
    best, best_s, final = -1.0, 1, 0.0
    for s in range(1, n + 1):
        points = [frac_float(alpha, q) for q in range(1, s + 1)]
        here = float(real_star_disc(points))
        if here > best:
            best, best_s = here, s
        if s == n:
            final = here
    return best, best_s, final


def test_max_prefix_star_matches_oracle_irrational():
    for alpha in (golden(), sqrt_irr(2), sqrt_irr(3)):
        n = 48
        want, want_s, want_final = _oracle_prefix_star_float(alpha, n)
        ps = max_prefix_star(alpha, sos_perm(n, alpha))
        assert ps.value == pytest.approx(want, abs=1e-9)
        assert ps.argmax_s == want_s
        assert ps.final == pytest.approx(want_final, abs=1e-9)


def test_prefix_star_nums_matches_oracle_with_ties():
    r, den = [3, 0, 3, 5, 1, 0, 6, 3], 7
    # rank the points, breaking each tie by position in either order
    for tie in (1, -1):
        order = sorted(range(len(r)), key=lambda q: (r[q], tie * q))
        ranks = [0] * len(r)
        for rank, q in enumerate(order):
            ranks[q] = rank
        nums = prefix_star_nums(ranks, r, den)
        for s in range(1, len(r) + 1):
            points = [Fraction(v, den) for v in r[:s]]
            assert Fraction(int(nums[s - 1]), den) == \
                Fraction(real_star_disc(points))


def test_max_prefix_star_matches_oracle_rational():
    for alpha, n in ((Fraction(3, 7), 12), (Fraction(5, 8), 20),
                     (Fraction(1, 2), 5)):
        ps = max_prefix_star(alpha, sos_perm(n, alpha, tie_break=True))
        assert isinstance(ps.value, Fraction)
        best, best_s, final = Fraction(-1), 1, Fraction(0)
        for s in range(1, n + 1):
            points = [Fraction(alpha.numerator * q % alpha.denominator,
                               alpha.denominator) for q in range(1, s + 1)]
            here = Fraction(real_star_disc(points))
            if here > best:
                best, best_s = here, s
            if s == n:
                final = here
        assert ps.value == best
        assert ps.argmax_s == best_s
        assert ps.final == final


def test_max_prefix_star_refuses_huge_denominator():
    alpha = Fraction(1, 2**61)
    with pytest.raises(SizeRefusedError):
        max_prefix_star(alpha, sos_perm(2, alpha))
    # the walk's floors need c*floor(s*alpha) and a*s in int64
    alpha = QuadraticIrrational(2**60, 1, 2, 1)
    with pytest.raises(SizeRefusedError, match="int64 floors"):
        max_prefix_star(alpha, sos_perm(4, alpha))
    with pytest.raises(QrpermError):
        sos_perm(0, golden())


def test_max_prefix_star_refuses_foreign_beta():
    beta = sos_perm(12, golden())
    for alpha in (sqrt_irr(2), -golden(), Fraction(3, 7)):
        with pytest.raises(QrpermError, match="not the Sos ranking"):
            max_prefix_star(alpha, beta)
    for other in (psi(13, 2), random_perm(12, 3)):
        with pytest.raises(QrpermError, match="not the Sos ranking"):
            max_prefix_star(golden(), other)


def test_max_prefix_star_final_consistency():
    ps = max_prefix_star(sqrt_irr(2), sos_perm(30, sqrt_irr(2)))
    assert ps.final <= ps.value
    one = max_prefix_star(golden(), sos_perm(1, golden()))
    # single point {alpha} = golden - 1: the worst box ends just below it
    assert one.argmax_s == 1
    assert one.value == pytest.approx(
        max(abs(1 - frac_float(golden(), 1)), frac_float(golden(), 1)),
        abs=1e-12)


# ------------------------------------------- prefix star: the rank sweep

def _triangle_prefix_star_nums(ranks, r, den):
    """The per-prefix loop that the rank sweep replaced: one counter
    cnt(t) = #{q <= s : rank_q <= rank_t} over the first s points."""
    n = len(r)
    g = np.asarray(ranks, dtype=np.int64)
    r = np.asarray(r)
    cnt = np.zeros(n, dtype=np.int64)
    out = np.empty(n, dtype=r.dtype)
    for s in range(1, n + 1):
        cnt += g >= g[s - 1]
        lin = s * r[:s]
        out[s - 1] = max((den * cnt[:s] - lin).max(),
                         (lin - den * (cnt[:s] - 1)).max())
    return out


def _ranks_with_ties(r, rng):
    """A ranking of r that breaks ties in a random order."""
    order = np.lexsort((rng.random(len(r)), r))
    ranks = np.empty(len(r), dtype=np.int64)
    ranks[order] = np.arange(len(r))
    return ranks


def _assert_same_as_triangle(ranks, r, den):
    want = _triangle_prefix_star_nums(ranks, r, den)
    got = prefix_star_nums(ranks, r, den)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_prefix_star_nums_matches_triangle_on_random_keys(monkeypatch):
    # a block of 1 cell forces _MIN_RUNS runs, 300 gives 4 to 32 by n
    rng = np.random.default_rng(20031)
    for cells in (1, 300, discrepancy._BLOCK_CELLS):
        monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", cells)
        for case in range(120):
            n = int(rng.integers(1, 91))
            if case % 2:   # floats on a coarse grid, so with ties
                r = np.floor(rng.random(n) * rng.integers(2, 40)) / 40
                den = 1
            else:
                den = (7, 97, 10**6)[case // 2 % 3]
                r = rng.integers(0, den, n)
            _assert_same_as_triangle(_ranks_with_ties(r, rng), r, den)


def test_prefix_star_nums_matches_triangle_at_run_and_block_edges():
    # one-row runs below 32, an overlapping last run at 33, and at
    # n = 4097 fewer than 32 runs (from n = 4096 on)
    rng = np.random.default_rng(7)
    for n in (1, 31, 33, 1023, 1025, 2049, 4097):
        r = rng.random(n)
        _assert_same_as_triangle(_ranks_with_ties(r, rng), r, 1)
        r = rng.integers(0, 97, n)
        _assert_same_as_triangle(_ranks_with_ties(r, rng), r, 97)


def test_prefix_star_nums_matches_triangle_on_wide_values():
    # den*(n + 1) past 2^31 (no int32 sweep) and, for floats, past 2^53
    rng = np.random.default_rng(11)
    for n in (1, 40, 77):
        r = rng.integers(0, 2**40, n)
        _assert_same_as_triangle(_ranks_with_ties(r, rng), r, 2**40)
        r = np.floor(rng.random(n) * 8) * 2**47
        _assert_same_as_triangle(_ranks_with_ties(r, rng), r, 2**50)
        r = (np.floor(rng.random(n) * 8) / 8).astype(np.float32)
        _assert_same_as_triangle(_ranks_with_ties(r, rng), r, 1)


def test_prefix_star_nums_matches_triangle_on_permutation_images():
    # scripts/calibrate.py calls it as (img, img, n)
    for sigma in (random_perm(300, 5), psi(101, 3), identity_perm(64),
                  reversal_perm(65)):
        img = np.asarray(sigma.image, dtype=np.int64)
        _assert_same_as_triangle(img, img, sigma.n)


def test_prefix_star_nums_matches_triangle_across_row_groups(monkeypatch):
    # each group of runs reads only the points its rows need: at a block
    # of 1 cell, groups of 4 single rows, so n = 1..9 has one to three
    # groups and a short last one; 4097 and 4099 have 121 runs of 34
    # rows in groups of 31, the last one short
    rng = np.random.default_rng(31)
    for cells, sizes in ((1, range(1, 10)),
                         (discrepancy._BLOCK_CELLS, (*range(1, 10), 4097,
                                                     4099))):
        monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", cells)
        for n in sizes:
            for r, den in ((rng.random(n), 1),
                           (np.floor(rng.random(n) * 5) / 5, 1),
                           (rng.integers(0, 13, n), 13),
                           (rng.integers(0, 2**40, n), 2**40)):
                _assert_same_as_triangle(_ranks_with_ties(r, rng), r, den)


def test_prefix_star_groups_read_only_their_points(monkeypatch):
    # every group of runs steps over exactly its last row + 1 points,
    # and the sweep at n = 4096 stays within 0.7 of n(n + 1) cells
    # (equal groups give (1 + 1/4)/2 of it)
    n = 4096
    rng = np.random.default_rng(3)
    r = rng.random(n)
    ranks = _ranks_with_ties(r, rng)
    calls, points = [], []
    rows_of, step_rows = ranksets._prefix_star_rows, ranksets._step_rows

    def spied_rows(ranks, r, den, rows):
        calls.append(np.asarray(rows))
        return rows_of(ranks, r, den, rows)

    def spied_steps(step, m, dtype):
        points.append(m)
        return step_rows(step, m, dtype)

    monkeypatch.setattr(ranksets, "_prefix_star_rows", spied_rows)
    monkeypatch.setattr(ranksets, "_step_rows", spied_steps)
    got = prefix_star_nums(ranks, r, 1)
    assert len(calls) == 1
    rows = calls[0]
    group = discrepancy._runs(n + 1)
    parts = [rows[:, j:j + group] for j in range(0, rows.shape[1], group)]
    assert len(parts) == ranksets._ROW_GROUPS
    assert points == [int(part.max()) + 1 for part in parts]
    assert points[-1] == n
    cells = sum(part.size * (m + 1) for part, m in zip(parts, points))
    assert cells <= 0.7 * n * (n + 1)
    assert got.tobytes() == _triangle_prefix_star_nums(ranks, r, 1).tobytes()


def test_max_prefix_star_box_attains_value():
    for alpha, n in ((golden(), 200), (sqrt_irr(3), 97),
                     (Fraction(3, 7), 30), (Fraction(5, 8), 20)):
        ps = max_prefix_star(alpha, sos_perm(n, alpha, tie_break=True))
        q, count = ps.box
        s = ps.argmax_s
        assert 1 <= q <= s and 0 <= count <= s
        inside = sum(1 for p in range(1, s + 1)
                     if frac_compare(alpha, p, q) < 0)
        assert count in (inside, inside + sum(
            1 for p in range(1, s + 1)
            if frac_compare(alpha, p, q) == 0))
        if isinstance(alpha, Fraction):
            x = Fraction(alpha.numerator * q % alpha.denominator,
                         alpha.denominator)
            assert abs(count - s * x) == ps.value
        else:
            assert abs(count - s * frac_float(alpha, q)) == pytest.approx(
                ps.value, abs=1e-9)


# ---------------------------- prefix star, irrational: walk keys and rows

WALK_ALPHAS = ("golden", "-golden", "sqrt:2", "sqrt:3", "sqrt:7", "sqrt:23",
               "sqrt:61", "quad:1,3,13,7", "quad:-5,7,2,3")


@pytest.mark.parametrize("label", WALK_ALPHAS)
def test_prefix_points_walk_keys_are_frac_float_bits(label):
    alpha = parse_alpha(label)
    for n in (1, 2, 3, 17, 2048, 4096):
        r, den = ranksets._prefix_points(alpha, sos_perm(n, alpha).image)
        assert den == 1 and r.dtype == np.float64
        assert [x.hex() for x in r.tolist()] == [
            frac_float(alpha, s).hex() for s in range(1, n + 1)]


@pytest.mark.parametrize("a, d, c", [(0, 2, 1), (1, 5, 2), (-5, 7, 3)])
@pytest.mark.parametrize("sign", [1, -1])
def test_prefix_points_keys_are_frac_float_bits_at_int64_edge(a, d, c, sign):
    # |b| as large as the int64 bound of _prefix_points admits at n = 17:
    # each key cancels terms near 2^61, and still equals frac_float.
    # The order comes from a comparator sort: cf_of_quadratic, which
    # sos_perm may call, need not close its period for such alpha.
    n = 17
    k = math.isqrt(d) + 1
    b = ((2**62 - 1) // (n + 1) - abs(a) - c) // k
    with pytest.raises(SizeRefusedError, match="int64"):
        ranksets._prefix_points(QuadraticIrrational(a, sign * (b + 1), d, c),
                                range(n))
    alpha = QuadraticIrrational(a, sign * b, d, c)
    assert (alpha.a, abs(alpha.b), alpha.c) == (a, b, c)
    order = sorted(range(1, n + 1), key=functools.cmp_to_key(
        lambda u, v: frac_compare(alpha, u, v)))
    ranks = [0] * n
    for rank, q in enumerate(order):
        ranks[q - 1] = rank
    r, den = ranksets._prefix_points(alpha, ranks)
    assert den == 1
    assert [x.hex() for x in r.tolist()] == [
        frac_float(alpha, s).hex() for s in range(1, n + 1)]


def test_max_prefix_star_refuses_beta_out_of_order():
    # labelled as the Sos ranking, but two ranks swapped: the floor
    # chain must notice, not return the prefix star of other points
    for alpha in (golden(), sqrt_irr(2), -golden()):
        beta = sos_perm(40, alpha)
        for u, v in ((0, 1), (3, 30), (38, 39)):
            image = list(beta.image)
            image[u], image[v] = image[v], image[u]
            other = Permutation(beta.n, tuple(image), beta.family,
                                beta.params)
            with pytest.raises(QrpermError, match="not ordered"):
                max_prefix_star(alpha, other)


def _full_sweep_prefix_star(alpha, beta):
    """max_prefix_star from one float sweep over every row of the
    frac_float keys, as it was computed before the fixed-point filter."""
    r = np.array([frac_float(alpha, s) for s in range(1, beta.n + 1)])
    nums = prefix_star_nums(beta.image, r, 1)
    best_s = int(np.argmax(nums)) + 1
    vals, qs, counts = ranksets._row_boxes(beta.image, r, 1, best_s)
    i = int(np.argmax(vals))
    return (nums[best_s - 1].item().hex(), best_s, nums[-1].item().hex(),
            (int(qs[i]), int(counts[i])))


def _as_tuple(ps):
    return ps.value.hex(), ps.argmax_s, ps.final.hex(), ps.box


@pytest.mark.parametrize("label", WALK_ALPHAS)
def test_max_prefix_star_equals_full_float_sweep(label):
    # 4097 has fewer than 32 runs, as every n from 4096 on
    alpha = parse_alpha(label)
    larger = (4097,) if label in ("golden", "sqrt:7") else ()
    for n in (1, 2, 3, 4, 12, 17, 300, 2048, *larger):
        beta = sos_perm(n, alpha)
        assert _as_tuple(max_prefix_star(alpha, beta)) == \
            _full_sweep_prefix_star(alpha, beta), n


def test_max_prefix_star_with_hundreds_of_candidates(monkeypatch):
    # a low bit budget widens the slack: at n = 300 some alphas keep 81
    # to 131 rows, several groups of single-row runs, and the others
    # more than half, which one all-rows float sweep replaces; (sqrt:3
    # at n = 4, sqrt:61 at n = 12) rows tied at the maximum, where the
    # first must win
    widest, float_sweeps, sides = [], [], set()
    rows_of = ranksets._prefix_star_rows
    sweep = ranksets.prefix_star_nums

    def spied_rows(ranks, r, den, rows):
        widest.append(np.shape(rows)[1])
        return rows_of(ranks, r, den, rows)

    def spied_sweep(ranks, r, den):
        if np.asarray(r).dtype.kind == "f":
            float_sweeps.append(len(r))
        return sweep(ranks, r, den)

    monkeypatch.setattr(ranksets, "_FIXED_BITS", 18)
    for label in WALK_ALPHAS:
        alpha = parse_alpha(label)
        for n in (4, 12, 300):
            beta = sos_perm(n, alpha)
            want = _full_sweep_prefix_star(alpha, beta)
            r, _ = ranksets._prefix_points(alpha, beta.image)
            fixed, _ = ranksets._fixed_nums(beta.image, r)
            many = 2 * np.sum(fixed >= fixed.max() - 2 * (n + 1)) > n
            monkeypatch.setattr(ranksets, "_prefix_star_rows", spied_rows)
            monkeypatch.setattr(ranksets, "prefix_star_nums", spied_sweep)
            assert _as_tuple(max_prefix_star(alpha, beta)) == want, \
                (label, n)
            monkeypatch.setattr(ranksets, "_prefix_star_rows", rows_of)
            monkeypatch.setattr(ranksets, "prefix_star_nums", sweep)
            assert float_sweeps == ([n] if many else []), (label, n)
            float_sweeps.clear()
            sides.add(bool(many))
    assert sides == {True, False}
    assert max(widest) > 2 * discrepancy._runs(301)
    assert max_prefix_star(sqrt_irr(3), sos_perm(4, sqrt_irr(3))).argmax_s \
        == 2
    alpha = parse_alpha("sqrt:61")
    assert max_prefix_star(alpha, sos_perm(12, alpha)).argmax_s == 8


def test_prefix_star_rows_over_all_rows_is_prefix_star_nums(monkeypatch):
    # a block of 1 cell makes groups of _MIN_RUNS runs: two groups for 7
    # runs, and one per 4 single rows
    rng = np.random.default_rng(5)
    for cells, sizes in ((1, (1, 2, 31, 33)),
                         (discrepancy._BLOCK_CELLS, (1, 300, 1025))):
        monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", cells)
        for n in sizes:
            for r, den in ((rng.random(n), 1),
                           (np.floor(rng.random(n) * 9) / 9, 1),
                           (rng.integers(0, 97, n), 97)):
                ranks = _ranks_with_ties(r, rng)
                want = prefix_star_nums(ranks, r, den)
                single = np.arange(n)[None, :]   # each row its own run
                span, starts = ranksets._run_starts(n, 7)
                runs = starts + np.arange(span)[:, None]
                for rows in (single, runs):
                    got = np.empty_like(want)
                    got[rows] = ranksets._prefix_star_rows(ranks, r, den,
                                                           rows)
                    assert got.tobytes() == want.tobytes(), (n, den, cells)


# -------------------------------------------- discrelation, decided exactly

def _frac_decimal(alpha, q):
    with localcontext() as ctx:
        ctx.prec = 60
        x = (alpha.a + alpha.b * Decimal(alpha.d).sqrt()) * q / alpha.c
        return x - x.to_integral_value(rounding="ROUND_FLOOR")


def _oracle_discrelation(alpha, beta, ds):
    """ds <= 2 * max over prefixes s and boxes of |count - s*{q alpha}|,
    at 60 significant digits over every closed and open box."""
    n = beta.n
    fracs = [_frac_decimal(alpha, q) for q in range(1, n + 1)]
    target = Decimal(ds.numerator) / Decimal(ds.denominator)
    for s in range(1, n + 1):
        head = beta.image[:s]
        for q in range(1, s + 1):
            closed = sum(1 for v in head if v <= beta.image[q - 1])
            for count in (closed, closed - 1):
                if 2 * abs(count - s * fracs[q - 1]) >= target:
                    return True
    return False


def test_discrelation_holds_matches_oracle_near_ties(monkeypatch):
    calls = []
    sweep = ranksets.prefix_star_nums

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    for alpha in (golden(), sqrt_irr(2), -golden(),
                  QuadraticIrrational(3, 1000, 7, 11)):
        for n in (1, 2, 17, 40):
            beta = sos_perm(n, alpha)
            ps = max_prefix_star(alpha, beta)
            # the same value with the other box at the same edge, which
            # does not attain it: the decision may not rest on the box
            q, count = ps.box
            s = ps.argmax_s
            closed = sum(1 for v in beta.image[:s] if v <= beta.image[q - 1])
            other = dataclasses.replace(
                ps, box=(q, closed - 1 if count == closed else closed))
            two = Fraction(2 * ps.value)
            for ds in [d_star(beta)] + [two + Fraction(k, 10**14)
                                        for k in range(-3, 4)]:
                want = _oracle_discrelation(alpha, beta, ds)
                # count only the rerun inside discrelation_holds, not
                # the sweep inside max_prefix_star
                monkeypatch.setattr(ranksets, "prefix_star_nums", counted)
                for prefix in (ps, other):
                    assert discrelation_holds(alpha, beta, ds, prefix) \
                        == want, (alpha, n, ds, prefix.box)
                monkeypatch.setattr(ranksets, "prefix_star_nums", sweep)
    assert calls  # the near-tie path ran


def _discrelation_full_sweep(alpha, beta, ds, prefix):
    """discrelation_holds as decided before the fixed-point filter: the
    rerun reads every row of one float sweep over the frac_float keys."""
    if ranksets._box_reaches(alpha, prefix.argmax_s, *prefix.box, ds):
        return True
    n = beta.n
    tol = 16 * n * sys.float_info.epsilon * (
        abs(alpha.b) * n * math.sqrt(alpha.d) / alpha.c + 1)
    low = float(ds) / 2 - tol
    if prefix.value < low:
        return False
    r = np.array([frac_float(alpha, s) for s in range(1, n + 1)])
    nums = prefix_star_nums(beta.image, r, 1)
    for s in np.flatnonzero(nums >= low) + 1:
        vals, qs, counts = ranksets._row_boxes(beta.image, r, 1, int(s))
        for i in np.flatnonzero(vals >= low):
            if ranksets._box_reaches(alpha, int(s), int(qs[i]),
                                     int(counts[i]), ds):
                return True
    return False


@pytest.mark.parametrize("bits", [31, 18, 14])
def test_discrelation_rerun_matches_full_float_sweep(monkeypatch, bits):
    reruns = []
    fixed_nums = ranksets._fixed_nums

    def spied(ranks, y):
        reruns.append(1)
        return fixed_nums(ranks, y)

    monkeypatch.setattr(ranksets, "_FIXED_BITS", bits)
    decisions = set()
    for alpha, n in ((golden(), 233), (golden(), 300), (sqrt_irr(2), 239),
                     (sqrt_irr(2), 408)):
        beta = sos_perm(n, alpha)
        ps = max_prefix_star(alpha, beta)
        # the other box at the same edge does not attain the value, so
        # it fails and the rerun decides
        q, count = ps.box
        s = ps.argmax_s
        closed = sum(1 for v in beta.image[:s] if v <= beta.image[q - 1])
        other = dataclasses.replace(
            ps, box=(q, closed - 1 if count == closed else closed))
        r = np.array([frac_float(alpha, t) for t in range(1, n + 1)])
        tops = np.unique(prefix_star_nums(beta.image, r, 1))[-6:]
        monkeypatch.setattr(ranksets, "_fixed_nums", spied)
        for v in tops:
            for k in (-3, 0, 3):
                ds = Fraction(2 * v.item()) + Fraction(k, 10**13)
                want = _discrelation_full_sweep(alpha, beta, ds, other)
                before = len(reruns)
                assert discrelation_holds(alpha, beta, ds, other) == want, \
                    (alpha, n, v, k)
                decisions.add(want)
                if not ranksets._box_reaches(alpha, s, *other.box, ds):
                    assert len(reruns) == before + 1
        monkeypatch.setattr(ranksets, "_fixed_nums", fixed_nums)
    assert reruns and decisions == {True, False}


def test_discrelation_holds_compares_fractions_for_rational_alpha():
    alpha = Fraction(3, 7)
    beta = sos_perm(20, alpha, tie_break=True)
    ps = max_prefix_star(alpha, beta)
    assert discrelation_holds(alpha, beta, 2 * ps.value, ps)
    assert not discrelation_holds(
        alpha, beta, 2 * ps.value + Fraction(1, 10**30), ps)
