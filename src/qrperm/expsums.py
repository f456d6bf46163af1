"""Exponential-sum kernels: e(x) = exp(2*pi*i*x).

Angles are always derived from exact integer residues (k*sigma(s) mod n
and friends), never from accumulated floats, and scalar kernels sum with
math.fsum, so the only rounding left is the final cos/sin evaluation.
Magnitude comparisons in tests budget 1e-9 per term.

Kernels:

    weyl_sum(points, k)              A(k) = sum e(k*x_i) for reals x_i
    incomplete_sigma_sum(sigma,k,m)  sum_{s<m} e(k*sigma(s)/n)
    twisted_full_sum(sigma, k, a)    sum_s e((k*sigma(s) + a*s)/n)
    kloosterman(p, a, b)             sum over units e((a*s + b*s^-1)/p)
    gauss_power_sum(p, a, k, M)      sum_{s=1..M} e(a*s^k/p)
    w_sum(p, a, c, theta, t)         sum_k |sum_x e((a th^x + c th^xk)/p)|
    interval_fourier(J, k)           sum_{x in J} e(-k*x/n)

plus the Erdos-Turan bound, the completion inequality check (max
window sum vs max twisted full sum times 1 + ln n), and the
incomplete-sum maximum used for the Polya-Vinogradov-style
calibration.

Window sums: with the prefix walk P_m = sum_{s<m} e(k*sigma(s)/n), the
window [u, v) sums to P_v - P_u, and _widest_window's max_{u<v}
|P_v - P_u| serves completion_check and qrstats.eigenvalue_stat.  As
sigma is a permutation and k != 0 mod n, the full-circle sum P_n is 0,
so a wrapping window, the complement of [u, v), sums to -(P_v - P_u).
_walks, the one builder of walks, gives the rows P_1..P_r for a block
of k at once (the window users put P_0 = 0 in front); _walk_maxima
reduces them to max_m |P_m|: max_incomplete_sum's quantity, and
eigenvalue_stat's bound
max_{u<v} |P_v - P_u| <= 2 max_m |P_m| (as P_0 = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calibration import ERDOS_TURAN_C
from .errors import (InvalidGeneratorError, NotAUnitError, QrpermError,
                     SizeRefusedError)
from .families import Permutation, _params
from .intervals import Interval
from .modular import as_prime, mod_inv, multiplicative_order

COMPLETION_CAP = 4096


@dataclass(frozen=True)
class SumValue:
    re: float
    im: float
    terms: int
    params: tuple[tuple[str, str], ...] = ()

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


@lru_cache(maxsize=64)
def _roots(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


_WINDOW_ROWS = 64
_NOT_WINDOW = np.tri(_WINDOW_ROWS, dtype=bool)  # v <= u, leading square


def _widest_window(prefix: np.ndarray) -> tuple[float, int, int]:
    """(max over 0 <= u < v < len(prefix) of |prefix[v] - prefix[u]|,
    u, v) at the first (u, v) in row order attaining it.  Rows u go
    _WINDOW_ROWS at a time against the columns v >= the block's first
    row, the cells with v <= u masked out.  Squared distances from the
    real and imaginary parts are cheaper than a complex abs."""
    re, im = prefix.real, prefix.imag
    best = (-1.0, 0, 1)
    for u0 in range(0, len(prefix) - 1, _WINDOW_ROWS):
        r = min(_WINDOW_ROWS, len(prefix) - 1 - u0)
        sq = (re[None, u0:] - re[u0:u0 + r, None]) ** 2
        sq += (im[None, u0:] - im[u0:u0 + r, None]) ** 2
        sq[:, :r][_NOT_WINDOW[:r, :r]] = -1.0
        u, v = divmod(int(sq.argmax()), sq.shape[1])
        if sq[u, v] > best[0]:
            best = (float(sq[u, v]), u0 + u, u0 + v)
    return math.sqrt(best[0]), best[1], best[2]


def _walks(values: np.ndarray, n: int, ks) -> np.ndarray:
    """Rows P_1..P_r of the prefix walks P_m = sum_{s<m} e(k*values[s]/n)
    of an int64 array of any r integers, one contiguous row per signed
    multiplier k in ks: one gather from _roots(n), one cumsum."""
    ks = np.asarray(ks, dtype=np.int64)
    return np.cumsum(_roots(n)[(ks[:, None] * values) % n], axis=1)


def _walk_maxima(sigma: Permutation,
                 ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each signed multiplier k in ks, (max over 1 <= m <= n of
    |P_m|, the first m attaining it) for the prefix walk
    P_m = sum_{s<m} e(k*sigma(s)/n), from _walks blocks of
    _WINDOW_ROWS multipliers: a row max and argmax of |.|."""
    img = np.asarray(sigma.image, dtype=np.int64)
    mags = np.empty(len(ks))
    ms = np.empty(len(ks), dtype=np.int64)
    for i0 in range(0, len(ks), _WINDOW_ROWS):
        walk = np.abs(_walks(img, sigma.n, ks[i0:i0 + _WINDOW_ROWS]))
        mags[i0:i0 + len(walk)] = walk.max(axis=1)
        ms[i0:i0 + len(walk)] = walk.argmax(axis=1) + 1
    return mags, ms


def _fsum_terms(residues, n: int, terms: int, params) -> SumValue:
    angles = [2 * math.pi * (r % n) / n for r in residues]
    re = math.fsum(math.cos(a) for a in angles)
    im = math.fsum(math.sin(a) for a in angles)
    return SumValue(re, im, terms, params)


def weyl_sum(points, k: int) -> SumValue:
    if k == 0:
        raise QrpermError("k must be nonzero")
    pts = list(points)
    re = math.fsum(math.cos(2 * math.pi * ((k * x) % 1.0)) for x in pts)
    im = math.fsum(math.sin(2 * math.pi * ((k * x) % 1.0)) for x in pts)
    return SumValue(re, im, len(pts), _params(k=k))


def incomplete_sigma_sum(sigma: Permutation, k: int, m: int) -> SumValue:
    """sum_{s=0}^{m-1} e(k*sigma(s)/n)."""
    n = sigma.n
    if not 1 <= m <= n:
        raise QrpermError(f"m = {m} outside [1, {n}]")
    residues = (k * sigma.image[s] for s in range(m))
    return _fsum_terms(residues, n, m, _params(k=k, m=m, family=sigma.family))


def twisted_full_sum(sigma: Permutation, k: int, a: int) -> SumValue:
    """sum_{s=0}^{n-1} e((k*sigma(s) + a*s)/n)."""
    n = sigma.n
    residues = (k * sigma.image[s] + a * s for s in range(n))
    return _fsum_terms(residues, n, n, _params(k=k, a=a, family=sigma.family))


def kloosterman(p, a: int, b: int) -> SumValue:
    """K(a, b; p) = sum over s in Z_p^* of e((a*s + b*s^{-1})/p)."""
    p = as_prime(p)
    residues = (a * s + b * mod_inv(s, p) for s in range(1, p))
    return _fsum_terms(residues, p, p - 1, _params(p=p, a=a, b=b))


def gauss_power_sum(p, a: int, k: int, m_terms: int) -> SumValue:
    """S(a, k, M) = sum_{s=1}^{M} e(a*s^k/p).

    The complete sum M = p vanishes exactly when gcd(k, p-1) = 1 (the
    power map permutes the residues); incomplete sums do not.
    """
    p = as_prime(p)
    if not 1 <= m_terms <= p:
        raise QrpermError(f"M = {m_terms} outside [1, {p}]")
    if k < 1:
        raise QrpermError("exponent k must be >= 1")
    residues = (a * pow(s, k, p) for s in range(1, m_terms + 1))
    return _fsum_terms(residues, p, m_terms, _params(p=p, a=a, k=k, M=m_terms))


def w_sum(p, a: int, c: int, theta: int, t: int) -> SumValue:
    """W_{a,c}(t) = sum_{k=1}^{t} |sum_{x=1}^{t} e((a*th^x + c*th^{xk})/p)|.

    theta must have multiplicative order exactly t.  The value is a
    nonnegative real; it is returned in re with im = 0.  As theta has
    order t, th^{xk} = th^{xk mod t}, so the residues of a block of
    _WINDOW_ROWS values of k are one gather from the t powers of theta.
    """
    p = as_prime(p)
    if c % p == 0:
        raise NotAUnitError(c, p, p)
    order = multiplicative_order(theta, p)
    if order != t:
        raise InvalidGeneratorError(theta, p, order, t)
    powers = [1]                            # theta^j mod p, j = 0..t-1
    for _ in range(t - 1):
        powers.append(powers[-1] * theta % p)
    powers = np.array(powers, dtype=np.int64)
    x = np.arange(1, t + 1)
    outer = (a % p) * powers[x % t]
    inner_mags = []
    for k0 in range(1, t + 1, _WINDOW_ROWS):
        k = np.arange(k0, min(k0 + _WINDOW_ROWS, t + 1))
        idx = (outer + (c % p) * powers[k[:, None] * x % t]) % p
        # abs of each scalar: np.abs over the array rounds some last
        # bits differently
        inner_mags.extend(abs(z) for z in _roots(p)[idx].sum(axis=1))
    total = math.fsum(inner_mags)
    return SumValue(total, 0.0, t * t,
                    _params(p=p, a=a, c=c, theta=theta, t=t))


def interval_fourier(j_int: Interval, k: int) -> SumValue:
    """J~(k) = sum_{x in J} e(-k*x/n) for an interval J of Z_n.

    k is reduced to its representative in (-n/2, n/2]; k = 0 mod n is
    refused.  |J~(k)| <= n / (2|k|) for every interval.
    """
    n = j_int.n
    k %= n
    if k == 0:
        raise QrpermError("k must be nonzero mod n")
    if k > n // 2:
        k -= n
    residues = (-k * x for x in j_int.members())
    return _fsum_terms(residues, n, j_int.length,
                       _params(n=n, k=k, start=j_int.start,
                               length=j_int.length))


def erdos_turan_bound(points, k_max: int) -> float:
    """C * (m/K + sum_{k=1}^{K} |A(k)|/k) for reals in [0, 1), with
    C = ERDOS_TURAN_C."""
    if k_max < 1:
        raise QrpermError("K must be >= 1")
    pts = np.asarray(list(points), dtype=np.float64)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    mags = np.abs(np.exp(2j * np.pi * ks[:, None] * pts[None, :]).sum(axis=1))
    return float(ERDOS_TURAN_C * (len(pts) / ks + np.cumsum(mags / ks))[-1])


@dataclass(frozen=True)
class CompletionReport:
    n: int
    k: int
    max_window: float     # max over cyclic windows of |sum e(k sigma/n)|
    max_twisted: float    # max over a of |twisted full sum|
    ratio: float
    bound: float          # 1 + ln n
    ok: bool


def completion_check(sigma: Permutation, k: int) -> CompletionReport:
    """Completion inequality: every incomplete window sum is at most
    (1 + ln n) times the worst twisted complete sum.  Refuses
    n > COMPLETION_CAP."""
    n = sigma.n
    if n > COMPLETION_CAP:
        raise SizeRefusedError(f"n = {n} exceeds cap {COMPLETION_CAP}")
    if k % n == 0:
        raise QrpermError("k must be nonzero mod n")
    img = np.asarray(sigma.image, dtype=np.int64)
    # max over a of |sum_s e((k sigma(s) + a s)/n)|: a DFT of the terms
    max_twisted = float(np.abs(np.fft.fft(_roots(n)[(k * img) % n])).max())
    walk = _walks(img, n, [k])[0]
    widest, _, _ = _widest_window(np.concatenate(([0j], walk)))
    bound = 1.0 + math.log(n)
    ratio = widest / max_twisted if max_twisted > 0 else math.inf
    return CompletionReport(n, k, widest, max_twisted, ratio, bound,
                            ratio <= bound + 1e-9)


def max_incomplete_sum(sigma: Permutation) -> tuple[float, int, int]:
    """max over k != 0 and prefix lengths m of |incomplete_sigma_sum|,
    returned as (magnitude, k, m) at the first k, then the first m,
    attaining it; (0.0, 1, 1) for n < 2."""
    if sigma.n < 2:
        return 0.0, 1, 1
    mags, ms = _walk_maxima(sigma, np.arange(1, sigma.n))
    i = int(mags.argmax())
    return float(mags[i]), i + 1, int(ms[i])
