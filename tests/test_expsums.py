"""Exponential-sum kernels against direct cmath evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrperm import (
    Interval,
    InvalidGeneratorError,
    NotAUnitError,
    QrpermError,
    SizeRefusedError,
    completion_check,
    erdos_turan_bound,
    find_primitive_root,
    gauss_power_sum,
    identity_perm,
    incomplete_sigma_sum,
    interval_fourier,
    kloosterman,
    lambda_inv,
    max_incomplete_sum,
    psi,
    random_perm,
    rho_exp,
    twisted_full_sum,
    w_sum,
    weyl_sum,
)

from qrperm import expsums
from qrperm.calibration import PV_CONSTANT, W_SUM_CONSTANT
from qrperm.expsums import _walks

from conftest import (PRIMES_TO_200, assert_close, e_direct, real_star_disc,
                      slow_sum)


# ------------------------------------------------------------------- weyl

def test_weyl_sum_on_rational_lattice():
    m = 12
    points = [i / m for i in range(m)]
    assert_close(weyl_sum(points, m).magnitude, m)
    assert_close(weyl_sum(points, 1).magnitude, 0.0)
    assert_close(weyl_sum(points, m - 1).magnitude, 0.0)
    with pytest.raises(QrpermError, match="nonzero"):
        weyl_sum(points, 0)


def test_weyl_sum_matches_direct():
    points = [0.1, 0.25, 0.7, 0.99]
    for k in (1, 2, -3):
        want = sum(e_direct(k * x) for x in points)
        got = weyl_sum(points, k).as_complex()
        assert abs(got - want) <= 1e-9


# ------------------------------------------------------------- incomplete

def test_incomplete_sigma_sum_frozen():
    # psi(5, 2) sends 0, 1 to 0, 2: the first two terms are e(0), e(2/5)
    val = incomplete_sigma_sum(psi(5, 2), 1, 2)
    want = 1 + e_direct(2 / 5)
    assert abs(val.as_complex() - want) <= 1e-9
    assert val.terms == 2
    with pytest.raises(QrpermError, match="outside"):
        incomplete_sigma_sum(psi(5, 2), 1, 6)
    with pytest.raises(QrpermError, match="outside"):
        incomplete_sigma_sum(psi(5, 2), 1, 0)


def test_walks_match_slow_sum():
    p = 13
    squares = [pow(s, 2, p) for s in range(1, p + 1)]  # not a permutation
    for values in (list(random_perm(p, 4).image), squares):
        ks = [1, -3, 0, p, 2 * p + 5, -27]   # k = 0 mod n, k > n, k < 0
        walks = _walks(np.asarray(values, dtype=np.int64), p, ks)
        assert walks.shape == (len(ks), p) and walks.flags.c_contiguous
        for row, k in zip(walks, ks):
            for m in range(1, p + 1):
                want = slow_sum([k * v for v in values[:m]], p)
                assert abs(row[m - 1] - want) <= 1e-9 * m


@given(st.integers(2, 40), st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_incomplete_matches_slow_sum(n, seed, data):
    sigma = random_perm(n, seed)
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(1, n))
    want = slow_sum([k * sigma.image[s] for s in range(m)], n)
    assert abs(incomplete_sigma_sum(sigma, k, m).as_complex() - want) <= 1e-9


# ---------------------------------------------------------------- twisted

def test_twisted_full_sum_identity_is_geometric():
    n = 12
    sigma = identity_perm(n)
    # k + a = 0 mod n gives every term e(0); anything else cancels
    assert_close(twisted_full_sum(sigma, 5, 7).magnitude, n)
    assert_close(twisted_full_sum(sigma, 5, 3).magnitude, 0.0)
    assert_close(twisted_full_sum(sigma, n, n).magnitude, n)


def test_twisted_of_inversion_is_shifted_kloosterman():
    # summing e((k/s + a*s)/p) over units plus the s = 0 term
    p = 13
    for k in (1, 2, 5):
        for a in (1, 3, 12):
            got = twisted_full_sum(lambda_inv(p, 1), k, a).as_complex()
            want = kloosterman(p, a, k).as_complex() + 1
            assert abs(got - want) <= 1e-9
            assert abs(got) <= 2 * math.sqrt(p) + 1 + 1e-9


# ------------------------------------------------------------- kloosterman

def test_kloosterman_frozen_value():
    val = kloosterman(5, 1, 1)
    assert_close(val.magnitude, (3 - math.sqrt(5)) / 2)
    assert abs(val.im) <= 1e-9


def test_kloosterman_is_real_and_symmetric():
    for p in (7, 11, 13):
        for a in range(1, p):
            for b in (1, 2):
                val = kloosterman(p, a, b)
                assert abs(val.im) <= 1e-9
                # K(a, b) depends only on ab through s -> cs scaling
                same = kloosterman(p, 1, a * b % p)
                assert abs(val.re - same.re) <= 1e-9


def test_kloosterman_degenerate_first_argument():
    # a = 0 makes it a pure Ramanujan-style unit sum, exactly -1
    for p in (5, 7, 11, 13, 17):
        for b in (1, 2, p - 1):
            val = kloosterman(p, 0, b)
            assert abs(val.as_complex() - (-1)) <= 1e-9


def test_kloosterman_weil_bound_spot():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for a in range(p):
            for b in (1, p - 1):
                assert kloosterman(p, a, b).magnitude <= 2 * math.sqrt(p) + 1e-9


# ------------------------------------------------------------------ gauss

def test_gauss_power_sum_frozen():
    val = gauss_power_sum(5, 1, 3, 1)
    assert abs(val.as_complex() - e_direct(1 / 5)) <= 1e-9
    assert_close(gauss_power_sum(5, 1, 3, 2).magnitude, 0.618033988749895)


def test_gauss_complete_sum_vanishes():
    for p in (5, 7, 11, 13):
        for k in range(2, p - 1):
            if math.gcd(k, p - 1) != 1:
                continue
            for a in (1, 2, p - 1):
                assert gauss_power_sum(p, a, k, p).magnitude <= 1e-9


def test_gauss_validation():
    with pytest.raises(QrpermError, match="outside"):
        gauss_power_sum(5, 1, 3, 6)
    with pytest.raises(QrpermError, match=">= 1"):
        gauss_power_sum(5, 1, 0, 2)


# ---------------------------------------------------------------------- w

def test_w_sum_frozen_value():
    val = w_sum(5, 0, 1, 2, 4)
    assert_close(val.re, 7.23606797749979)
    assert val.im == 0.0
    assert val.terms == 16


def test_w_sum_validation():
    with pytest.raises(NotAUnitError):
        w_sum(5, 1, 0, 2, 4)
    with pytest.raises(NotAUnitError):
        w_sum(5, 1, 5, 2, 4)
    with pytest.raises(InvalidGeneratorError) as exc:
        w_sum(7, 1, 1, 2, 4)  # order of 2 mod 7 is 3, not 4
    assert exc.value.order == 3
    assert "not 4" in str(exc.value)


def test_w_sum_matches_direct_evaluation():
    p, a, c, theta, t = 11, 1, 2, 3, 5  # 3^5 = 1 mod 11
    want = 0.0
    for k in range(1, t + 1):
        inner = sum(e_direct(((a * pow(theta, x, p)
                               + c * pow(theta, x * k, p)) % p) / p)
                    for x in range(1, t + 1))
        want += abs(inner)
    assert_close(w_sum(p, a, c, theta, t).re, want)


def _w_sum_loop(p, a, c, theta, t):
    """W_{a,c}(t) by the double loop over k and x: one gather per k."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    pow_x = [pow(theta, x, p) for x in range(t + 1)]
    inner_mags = []
    for k in range(1, t + 1):
        base = pow(theta, k, p)
        cur = 1
        idx = np.empty(t, dtype=np.int64)
        for x in range(1, t + 1):
            cur = cur * base % p
            idx[x - 1] = (a * pow_x[x] + c * cur) % p
        inner_mags.append(abs(roots[idx].sum()))
    return math.fsum(inner_mags)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 61, 127, 131, 263, 509])
def test_w_sum_equals_the_double_loop(p):
    # primitive theta (t = p - 1) and every proper order t > 1 that
    # divides p - 1, up to three of them; block edges at t = 64, 65
    g = find_primitive_root(p)
    ts = [p - 1] + [t for t in range(2, p - 1) if (p - 1) % t == 0][-3:]
    for t in ts:
        theta = pow(g, (p - 1) // t, p)
        for a, c in ((1, 1), (0, 3), (-2, p + 2), (p * 7 + 1, -1)):
            got = w_sum(p, a, c, theta, t)
            assert got.re == _w_sum_loop(p, a, c, theta, t), (p, t, a, c)
            assert got.terms == t * t


# --------------------------------------------------------------- interval

def test_interval_fourier_matches_direct():
    for iv in (Interval(16, 3, 5), Interval(16, 14, 6), Interval(16, 0, 16)):
        for k in (1, 2, 7, 8, -3):
            want = sum(e_direct(-k * x / 16) for x in iv.members())
            got = interval_fourier(iv, k).as_complex()
            assert abs(got - want) <= 1e-9


def test_interval_fourier_reduces_k():
    iv = Interval(12, 2, 5)
    a = interval_fourier(iv, 5).as_complex()
    b = interval_fourier(iv, 5 + 12).as_complex()
    assert abs(a - b) <= 1e-12
    with pytest.raises(QrpermError, match="nonzero"):
        interval_fourier(iv, 12)
    with pytest.raises(QrpermError, match="nonzero"):
        interval_fourier(iv, 0)


def test_interval_fourier_bound_spot():
    n = 48
    for start in (0, 10, 40):
        for length in (1, 7, 25, 48):
            iv = Interval(n, start, length)
            for k in range(1, n // 2 + 1):
                mag = interval_fourier(iv, k).magnitude
                assert mag <= n / (2 * k) + 1e-9


# ------------------------------------------------------------ erdos-turan

def test_erdos_turan_bound_examples():
    assert erdos_turan_bound([], 5) == 0.0
    # a single point has |A(k)| = 1 for all k
    assert_close(erdos_turan_bound([0.0], 1), 4.0 * (1.0 + 1.0))
    with pytest.raises(QrpermError):
        erdos_turan_bound([0.0], 0)


def test_erdos_turan_dominates_star_discrepancy_spot():
    sigma = psi(31, 7)
    points = [Fraction(v, 31) for v in sigma.image]
    disc = float(real_star_disc(points))
    for k_max in (1, 4, 16, 31):
        assert disc <= erdos_turan_bound([float(p) for p in points], k_max)


# -------------------------------------------------------------- completion

def test_completion_check_identity():
    rep = completion_check(identity_perm(64), 1)
    assert rep.ok
    assert rep.max_twisted == pytest.approx(64.0)
    assert rep.ratio <= rep.bound


def test_completion_check_exponential_family():
    tau = find_primitive_root(101)
    for k in range(1, 6):
        rep = completion_check(rho_exp(101, 1, tau), k)
        assert rep.ok, f"k={k}: ratio {rep.ratio} vs bound {rep.bound}"


def test_completion_check_random():
    sigma = random_perm(128, 9)
    for k in range(1, 6):
        rep = completion_check(sigma, k)
        assert rep.ok


def _cyclic_window_max(sigma, k):
    """max |sum e(k sigma(x)/n)| over every cyclic (start, length)
    window, wrapping ones included, by a running sum from each start."""
    n = sigma.n
    terms = [e_direct((k * v % n) / n) for v in sigma.image]
    best = 0.0
    for start in range(n):
        acc = 0j
        for length in range(n):
            acc += terms[(start + length) % n]
            best = max(best, abs(acc))
    return best


def test_completion_max_window_matches_brute_force():
    for sigma in (random_perm(12, 4), psi(131, 17), random_perm(200, 5)):
        for k in (1, 2, 5):
            rep = completion_check(sigma, k)
            assert_close(rep.max_window, _cyclic_window_max(sigma, k),
                         tol=1e-9)


def test_completion_check_validation(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(expsums, "COMPLETION_CAP", 9)
        with pytest.raises(SizeRefusedError, match="cap"):
            completion_check(identity_perm(10), 1)
    with pytest.raises(QrpermError, match="nonzero"):
        completion_check(identity_perm(10), 10)


# --------------------------------------------------------------- extremes

def test_max_incomplete_sum_is_attained():
    sigma = psi(31, 12)
    mag, k, m = max_incomplete_sum(sigma)
    assert_close(incomplete_sigma_sum(sigma, k, m).magnitude, mag)
    for probe_k in (1, 7, 30):
        for probe_m in (1, 10, 31):
            assert incomplete_sigma_sum(sigma, probe_k,
                                        probe_m).magnitude <= mag + 1e-9


def _max_incomplete_loop(sigma):
    """One walk per k, strict > in increasing k: the first k, then the
    first m, attaining the maximum."""
    n = sigma.n
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    img = np.asarray(sigma.image, dtype=np.int64)
    best = (0.0, 1, 1)
    for k in range(1, n):
        prefix = np.abs(np.cumsum(roots[(k * img) % n]))
        m = int(np.argmax(prefix))
        if prefix[m] > best[0]:
            best = (float(prefix[m]), k, m + 1)
    return best


def test_max_incomplete_sum_matches_full_loop(mid_corpus):
    extra = [identity_perm(1), identity_perm(2), random_perm(3, 1),
             random_perm(64, 5)]
    for sigma in mid_corpus + extra:
        assert max_incomplete_sum(sigma) == _max_incomplete_loop(sigma)


@given(st.integers(2, 32), st.integers(0, 2**32), st.data())
@settings(max_examples=40, deadline=None)
def test_sum_magnitude_never_exceeds_terms(n, seed, data):
    sigma = random_perm(n, seed)
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(1, n))
    val = incomplete_sigma_sum(sigma, k, m)
    assert val.magnitude <= val.terms + 1e-9
    tw = twisted_full_sum(sigma, k, data.draw(st.integers(0, n - 1)))
    assert tw.magnitude <= tw.terms + 1e-9


# ------------------------------------------------------ calibration fences

def test_incomplete_sums_stay_under_pinned_constant():
    # Exponential-permutation incomplete sums grow like sqrt(p) log p;
    # the pinned multiplier was calibrated over primes to 499, so the
    # cheaper sweep here must clear it with room to spare.
    for p in PRIMES_TO_200:
        if p < 5:
            continue
        theta = find_primitive_root(p)
        mag, _, _ = max_incomplete_sum(rho_exp(p, 1, theta))
        assert mag <= PV_CONSTANT * math.sqrt(p) * math.log(p)


def test_w_sums_stay_under_pinned_constant():
    for p in PRIMES_TO_200:
        if p < 5 or p > 61:
            continue
        theta = find_primitive_root(p)
        t = p - 1
        fence = W_SUM_CONSTANT * t ** (5.0 / 3.0) * p ** 0.25
        for a in (1, 2):
            assert w_sum(p, a, 1, theta, t).magnitude <= fence
