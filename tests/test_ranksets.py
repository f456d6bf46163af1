"""Partial-rank sequences, hit sets, gap checks, prefix star discrepancy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrperm import (
    QrpermError,
    SizeRefusedError,
    a_set,
    b_of_k,
    b_sequence,
    d_exact,
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
    assert ranks.contains_in_every_window(1)

    ranks = a_set(reversal_perm(8))
    assert ranks.values == (1,)
    assert ranks.max_gap == 8  # from 1 up to the sentinel 9
    assert ranks.widest_empty == (2, 8)
    assert not ranks.contains_in_every_window(7)
    assert ranks.contains_in_every_window(8)


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
        here = float(real_star_disc(points).half_open)
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
                Fraction(real_star_disc(points).half_open)


def test_max_prefix_star_matches_oracle_rational():
    for alpha, n in ((Fraction(3, 7), 12), (Fraction(5, 8), 20),
                     (Fraction(1, 2), 5)):
        ps = max_prefix_star(alpha, sos_perm(n, alpha, tie_break=True))
        assert isinstance(ps.value, Fraction)
        best, best_s, final = Fraction(-1), 1, Fraction(0)
        for s in range(1, n + 1):
            points = [Fraction(alpha.numerator * q % alpha.denominator,
                               alpha.denominator) for q in range(1, s + 1)]
            r = real_star_disc(points)
            here = max(Fraction(r.closed), Fraction(r.half_open))
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
