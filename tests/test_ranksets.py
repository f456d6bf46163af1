"""Partial-rank sequences, hit sets, gap checks, prefix star discrepancy."""

import dataclasses
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrperm import (
    QrpermError,
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
    prefix_star_nums,
    psi,
    random_perm,
    real_star_disc,
    reversal_perm,
    sos_perm,
    sqrt_irr,
)
from qrperm import ranksets

from conftest import b_of_k


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
    rng = np.random.default_rng(20031)
    for block in (1, 3, 1024):
        monkeypatch.setattr(ranksets, "_PREFIX_BLOCK", block)
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
    rng = np.random.default_rng(7)
    for n in (1, 31, 33, 1023, 1025, 2049):
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

    monkeypatch.setattr(ranksets, "prefix_star_nums", counted)
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
                for prefix in (ps, other):
                    assert discrelation_holds(alpha, beta, ds, prefix) \
                        == want, (alpha, n, ds, prefix.box)
    assert calls  # the near-tie path ran


def test_discrelation_holds_compares_fractions_for_rational_alpha():
    alpha = Fraction(3, 7)
    beta = sos_perm(20, alpha, tie_break=True)
    ps = max_prefix_star(alpha, beta)
    assert discrelation_holds(alpha, beta, 2 * ps.value, ps)
    assert not discrelation_holds(
        alpha, beta, 2 * ps.value + Fraction(1, 10**30), ps)
