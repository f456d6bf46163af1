"""Quasirandomness statistics against combinatorial brute force."""

import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrperm import (
    EigenvalueStat,
    Interval,
    QrpermError,
    SizeRefusedError,
    bit_reversal,
    d_star,
    eigenvalue_stat,
    identity_perm,
    pattern_count,
    property_profile,
    psi,
    random_perm,
    restricted_pattern_count,
    restriction,
    reversal_perm,
    translation_stat,
)
from qrperm import qrstats
from qrperm.expsums import _widest_window
from qrperm.families import Permutation

from conftest import ncr2, oracle_pattern

ALL_PATTERNS = [(0,), (0, 1), (1, 0),
                (0, 1, 2), (0, 2, 1), (1, 0, 2),
                (1, 2, 0), (2, 0, 1), (2, 1, 0)]


# ----------------------------------------------------------- full domain

def test_pattern_count_frozen():
    assert pattern_count(Permutation(4, (0, 2, 1, 3)), (0, 1, 2)) == 2
    assert pattern_count(identity_perm(10), (0, 1)) == ncr2(10)
    assert pattern_count(identity_perm(10), (1, 0)) == 0
    assert pattern_count(reversal_perm(10), (1, 0)) == ncr2(10)
    assert pattern_count(identity_perm(6), (0, 1, 2)) == 20  # C(6, 3)


def test_pattern_counts_sum_to_pairs():
    for sigma in (psi(31, 7), random_perm(50, 1), reversal_perm(20)):
        total = pattern_count(sigma, (0, 1)) + pattern_count(sigma, (1, 0))
        assert total == ncr2(sigma.n)


@given(st.integers(1, 30), st.integers(0, 2**32))
@example(1, 0)  # merge-kernel block boundaries: 2^k - 1, 2^k, 2^k + 1
@example(2, 0)
@example(15, 1)
@example(16, 2)
@example(17, 3)
@settings(max_examples=30, deadline=None)
def test_pattern_count_matches_brute_force(n, seed):
    sigma = random_perm(n, seed)
    for tau in ALL_PATTERNS:
        assert pattern_count(sigma, tau) == oracle_pattern(sigma.image, tau)


def test_pattern_validation():
    sigma = psi(7, 2)
    with pytest.raises(QrpermError, match="1..3"):
        pattern_count(sigma, (0, 1, 2, 3))
    with pytest.raises(QrpermError, match="not a pattern"):
        pattern_count(sigma, (0, 2))


def test_pattern_counts_above_2000():
    n = 2001
    c3 = math.comb(n, 3)
    for sigma, tau in ((identity_perm(n), (0, 1, 2)),
                       (reversal_perm(n), (2, 1, 0))):
        for other in ALL_PATTERNS[3:]:
            assert pattern_count(sigma, other) == (c3 if other == tau else 0)
    for seed in (0, 1):
        sigma = random_perm(2500, seed)
        assert sum(pattern_count(sigma, tau)
                   for tau in ALL_PATTERNS[3:]) == math.comb(2500, 3)
    # positions 100..2149 of the identity: 2050 increasing entries
    got = restricted_pattern_count(identity_perm(2400), (0, 1, 2),
                                   Interval(2400, 100, 2100),
                                   Interval(2400, 0, 2150))
    assert (got.size, got.count) == (2050, math.comb(2050, 3))


def test_pattern_counts_int64_refusal(monkeypatch):
    r = 3810780   # the least r with C(r, 3) >= 2^63
    assert math.comb(r - 1, 3) < 2 ** 63 <= math.comb(r, 3)
    calls = []

    def kernel(values):
        calls.append(len(values))
        return np.zeros(len(values), dtype=np.int64)

    monkeypatch.setattr(qrstats, "_earlier_smaller", kernel)
    with pytest.raises(SizeRefusedError, match="overflow int64"):
        qrstats._pattern_counts(range(r), 3)
    assert calls == []
    # length 1 and 2 have no size limit
    counts = qrstats._pattern_counts(range(r), 2)
    assert counts == {(0,): r, (0, 1): 0, (1, 0): math.comb(r, 2)}
    assert calls == [r]


# ----------------------------------------------------------- restrictions

def test_restriction_orders_by_position():
    sigma = psi(7, 3)  # image (0, 3, 6, 2, 5, 1, 4)
    i_int = Interval(7, 5, 4)  # positions {5, 6, 0, 1}
    j_int = Interval(7, 0, 4)  # values {0, 1, 2, 3}
    assert restriction(sigma, i_int, j_int) == [0, 1, 5]
    with pytest.raises(QrpermError, match="mismatch"):
        restriction(sigma, Interval(6, 0, 2), j_int)


def test_restricted_identity_counts_choose_two():
    n = 24
    sigma = identity_perm(n)
    for start, length in ((0, 10), (20, 8), (5, 24)):
        i_int = Interval(n, start, length)
        j_int = Interval(n, 2, 13)
        r = len(set(i_int.members()) & set(j_int.members()))
        got = restricted_pattern_count(sigma, (0, 1), i_int, j_int)
        assert got.size == r
        assert got.count == ncr2(r)
        assert restricted_pattern_count(sigma, (1, 0), i_int,
                                        j_int).count == 0


def test_restricted_counts_match_brute_force():
    sigma = random_perm(20, 13)
    intervals = [Interval(20, 0, 20), Interval(20, 3, 7), Interval(20, 15, 9),
                 Interval(20, 19, 2)]
    for i_int in intervals:
        for j_int in intervals:
            pos = restriction(sigma, i_int, j_int)
            values = [sigma.image[x] for x in pos]
            for tau in ALL_PATTERNS:
                got = restricted_pattern_count(sigma, tau, i_int, j_int)
                assert got.size == len(pos)
                assert got.count == oracle_pattern(values, tau)


# ------------------------------------------------------- 2-subseq signed

def test_two_subseq_extremes_and_negation():
    n = 16
    assert property_profile(identity_perm(n)).two_s == ncr2(n)
    assert property_profile(reversal_perm(n)).two_s == -ncr2(n)
    sigma = random_perm(n, 5)
    # sigma after the reversal: every pair swaps its order
    flipped = Permutation(n, tuple(sigma.image[t]
                                   for t in reversal_perm(n).image))
    assert property_profile(flipped).two_s == -property_profile(sigma).two_s


def test_two_subseq_equals_count_difference():
    sigma = random_perm(30, 2)
    want = (oracle_pattern(sigma.image, (0, 1))
            - oracle_pattern(sigma.image, (1, 0)))
    assert property_profile(sigma).two_s == want


# ----------------------------------------------------------- separability

def _sp_max_by_definition(sigma: Permutation) -> Fraction:
    """max |n*#{x in A : sigma(x) in B} - |A||B|| / n over the four
    pairs of halves, counted with plain sets."""
    n, h = sigma.n, sigma.n // 2
    halves = [set(range(h)), set(range(h, n))]
    return max(Fraction(abs(n * sum(1 for x in a if sigma.image[x] in b)
                            - len(a) * len(b)), n)
               for a in halves for b in halves)


def test_profile_sp_max_matches_four_pair_definition(small_corpus,
                                                     random_pack):
    for sigma in small_corpus + random_pack:
        assert property_profile(sigma).sp_max == \
            _sp_max_by_definition(sigma), sigma


# ------------------------------------------------------------ translation

def test_translation_frozen_value():
    got = translation_stat(psi(5, 2), Interval(5, 0, 1), Interval(5, 0, 1))
    assert got == Fraction(4, 5)


def test_translation_invariances():
    n = 64
    sigma = random_perm(n, 8)
    i_int = Interval(n, 5, 20)
    j_int = Interval(n, 40, 11)
    base = translation_stat(sigma, i_int, j_int)
    # shifting J changes nothing: the statistic already sums over shifts
    for shift in (1, 17, 63):
        shifted = Interval(n, (j_int.start + shift) % n, j_int.length)
        assert translation_stat(sigma, i_int, shifted) == base
    # relabeling positions by a rotation and rotating I to match
    for r in (1, 13):
        rotated = Permutation(
            n, tuple(sigma.image[(x + r) % n] for x in range(n)))
        i_rot = Interval(n, (i_int.start - r) % n, i_int.length)
        assert translation_stat(rotated, i_rot, j_int) == base


def test_translation_matches_definition_brute():
    n = 20
    sigma = random_perm(n, 30)
    i_int = Interval(n, 17, 6)
    j_int = Interval(n, 2, 5)
    image_set = {sigma.image[x] for x in i_int.members()}
    total = Fraction(0)
    for k in range(n):
        shifted = {(y + k) % n for y in j_int.members()}
        c = len(image_set & shifted)
        total += (Fraction(c) - Fraction(i_int.length * j_int.length, n)) ** 2
    assert translation_stat(sigma, i_int, j_int) == total


# ------------------------------------------------------------- eigenvalue

def _probe_eigen(sigma, alpha, k, ivl):
    n = sigma.n
    total = sum(cmath.exp(-2j * math.pi * k * sigma.image[x] / n)
                for x in ivl.members())
    return abs(total) / k ** alpha


def _exhaustive_eigen(sigma, alpha):
    """Max over 1 <= k <= n/2 and every cyclic interval, by a running
    sum over the lengths from each start."""
    n = sigma.n
    best = 0.0
    for k in range(1, n // 2 + 1):
        terms = [cmath.exp(-2j * math.pi * k * v / n) for v in sigma.image]
        for start in range(n):
            acc = 0j
            for length in range(n):
                acc += terms[(start + length) % n]
                best = max(best, abs(acc) / k ** alpha)
    return best


def test_eigenvalue_stat_small_exhaustive():
    # n = 131 puts the prefix walk's 132 rows in three 64-row blocks
    for sigma in (random_perm(12, 0), random_perm(12, 1),
                  random_perm(131, 2)):
        stat = eigenvalue_stat(sigma, 0.5)
        assert stat.value == pytest.approx(_exhaustive_eigen(sigma, 0.5),
                                           abs=1e-9)


def _widest_per_k(sigma):
    """[(k, (mag, u, v))] from a widest-window scan of every k."""
    n = sigma.n
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    img = np.asarray(sigma.image, dtype=np.int64)
    return [(k, _widest_window(np.concatenate(
                ([0j], np.cumsum(roots[(-k * img) % n])))))
            for k in range(1, n // 2 + 1)]


def _full_scan_eigen(sigma, alphas):
    """eigenvalue_stat for each alpha from every k, strict > in
    increasing k."""
    windows = _widest_per_k(sigma)
    out = []
    for alpha in alphas:
        best = None
        for k, (mag, u, v) in windows:
            value = mag / float(k) ** alpha
            if best is None or value > best.value:
                best = EigenvalueStat(value, alpha, k,
                                      Interval(sigma.n, u, v - u), mag)
        out.append(best)
    return out


def test_eigenvalue_stat_pruning_matches_full_scan():
    # alpha = 0.01 prunes almost no k; alpha = 3 prunes nearly every k > 1
    alphas = (0.01, 0.5, 1.0, 3.0)
    perms = [bit_reversal(2), bit_reversal(64), psi(3, 2), psi(64, 7),
             psi(65, 7), psi(257, 7)]
    for n in (2, 3, 64, 65, 257):
        perms += [identity_perm(n), reversal_perm(n), random_perm(n, n)]
    for sigma in perms:
        expected = _full_scan_eigen(sigma, alphas)
        for alpha, want in zip(alphas, expected):
            assert eigenvalue_stat(sigma, alpha) == want, (sigma.family,
                                                           sigma.n, alpha)


def test_eigenvalue_stat_bound_rounded_below_a_tie(monkeypatch):
    # bit_reversal(32) at alpha = 1/2: k = 8 and k = 16 both give 4.0,
    # and k = 16's bound is the larger, so it is scanned first.  Set
    # k = 8's walk maximum to half its widest window, the least the
    # triangle inequality allows, less 1e-12 of rounding: the scan must
    # still reach k = 8 and give it the tie.
    sigma = bit_reversal(32)
    widest8 = dict(_widest_per_k(sigma))[8][0]
    walk_maxima = qrstats._walk_maxima

    def rounded_low(sig, ks):
        mags, ms = walk_maxima(sig, ks)
        return np.where(np.abs(ks) == 8, widest8 / 2 * (1 - 1e-12), mags), ms

    monkeypatch.setattr(qrstats, "_walk_maxima", rounded_low)
    stat = eigenvalue_stat(sigma, 0.5)
    assert (stat.k, stat.value) == (8, 4.0)
    assert stat == _full_scan_eigen(sigma, (0.5,))[0]


def test_eigenvalue_stat_huge_alpha_keeps_k_one():
    # k^alpha overflows for every k >= 2: those k are bounded by 0, and
    # neither an OverflowError nor a numpy overflow warning escapes
    sigma = psi(31, 3)
    _, (mag, u, v) = _widest_per_k(sigma)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stat = eigenvalue_stat(sigma, 5000.0)
    assert stat == EigenvalueStat(mag, 5000.0, 1, Interval(31, u, v - u), mag)


def test_eigenvalue_stat_attained_and_dominates_probes():
    sigma = psi(257, 2)
    stat = eigenvalue_stat(sigma, 0.5)
    assert stat.magnitude == pytest.approx(
        stat.value * stat.k ** stat.alpha, abs=1e-9)
    assert _probe_eigen(sigma, 0.5, stat.k, stat.interval) == \
        pytest.approx(stat.value, abs=1e-9)
    rng = random_perm(257, 99).image  # cheap deterministic index source
    for t in range(20):
        k = rng[t] % 128 + 1
        start = rng[t + 20]
        length = rng[t + 40] % 257 + 1
        probe = _probe_eigen(sigma, 0.5, k, Interval(257, start, length))
        assert probe <= stat.value + 1e-9


def test_eigenvalue_stat_validation(monkeypatch):
    with pytest.raises(QrpermError, match="positive"):
        eigenvalue_stat(psi(13, 5), 0.0)
    with pytest.raises(QrpermError, match=">= 2"):
        eigenvalue_stat(identity_perm(1), 0.5)
    for alpha in (math.nan, math.inf, -1.0):
        for call in (lambda: eigenvalue_stat(psi(13, 5), alpha),
                     lambda: eigenvalue_stat(identity_perm(1), alpha),
                     lambda: property_profile(psi(13, 5), alpha)):
            with pytest.raises(QrpermError, match="positive and finite"):
                call()
    monkeypatch.setattr(qrstats, "EIGEN_CAP", 12)
    with pytest.raises(SizeRefusedError):
        eigenvalue_stat(psi(13, 5), 0.5)
    for alpha in (math.nan, math.inf, -1.0):
        with pytest.raises(QrpermError, match="positive and finite"):
            eigenvalue_stat(psi(13, 5), alpha)


# ---------------------------------------------------------------- profile

def test_property_profile_frozen():
    prof = property_profile(psi(31, 7))
    assert prof.two_s == 69
    assert prof.sp_max == Fraction(23, 31)
    assert prof.t_sum == Fraction(680, 31)
    assert prof.ub == Fraction(68, 31)
    assert prof.e_alpha_max == pytest.approx(3.2906, abs=1e-3)
    counts = dict(prof.pattern_counts)
    assert counts[(0, 1)] == 267
    assert counts[(1, 0)] == 198
    assert counts[(0, 1, 2)] == 1045
    assert counts[(2, 1, 0)] == 444
    data = json.loads(prof.to_json())
    assert data["pattern_counts"]["012"] == 1045
    assert data["sp_max"] == {"num": 23, "den": 31}
    with pytest.raises(QrpermError):
        property_profile(identity_perm(1))


def test_property_profile_above_eigen_cap_writes_null(monkeypatch):
    monkeypatch.setattr(qrstats, "EIGEN_CAP", 16)
    prof = property_profile(psi(31, 7))
    assert prof.e_alpha_max is None
    with pytest.raises(QrpermError, match="positive and finite"):
        property_profile(psi(31, 7), math.nan)

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(prof.to_json(), parse_constant=refuse)
    assert data["e_alpha_max"] is None
    assert data["two_s"] == 69


def test_qualitative_ordering_at_256():
    # the best linear multiplier beats the identity on every statistic
    n = 256
    ks = [k for k in range(3, n, 2)]
    best_k = min(ks, key=lambda k: d_star(psi(n, k)))
    good = property_profile(psi(n, best_k))
    bad = property_profile(identity_perm(n))
    assert abs(good.two_s) < abs(bad.two_s)
    assert good.e_alpha_max < bad.e_alpha_max
    assert good.t_sum < bad.t_sum
    assert good.sp_max < bad.sp_max
    assert good.ub < bad.ub
