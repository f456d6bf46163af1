"""Quasirandomness statistics for permutations of Z_n.

These are the finite-size witnesses behind the equivalence between
low interval discrepancy and the other pseudorandomness properties:
pattern counts on restrictions, the signed 2-subsequence imbalance
(property_profile's two_s), separability deviations, the normalized
interval exponential sum, and the translation-overlap sum.

Separability over the halves [0, h), [h, n), h = n // 2, is one count:
sigma is a bijection, so each of the four half-by-half deviations is
+-F(h, h)/n, where F(h, h) = n*c - h*h with c = #{x < h : sigma(x) < h}
is one cell of the discrepancy module's prefix-deviation matrix.

Pattern conventions: a pattern is a tuple like (0, 1, 2) or (1, 0)
giving the rank order demanded of sigma on an increasing tuple of
positions.  Restrictions take the positions of I whose image lands in
J, ordered by position as plain integers (wrapping intervals enumerate
their members in integer order too), and compare image values.

Counting costs: every pattern count and the 2-subsequence imbalance
of a sequence come from one call of an exact int64 kernel,
ranksets._earlier_smaller, which gives c[j] = #{i < j : v_i < v_j} by
bottom-up merge counting (O(r log^2 r) time, O(r) memory);
_pattern_counts derives all of them at once.  Length-2 counts are
sum c; each length-3 count is a sum over the middle or last entry of
products of c, j - c and the rank - c later entries below.  Each such
sum is at most C(r, 3), so the int64 sums are exact while
C(r, 3) < 2^63 (r up to 3810779); a length-3 count past that is the
one size refused.  Length 1 and 2 have no size limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discrepancy import D_EXACT_CAP, _fraction_json, build_report
from .errors import QrpermError, SizeRefusedError
from .expsums import _walk_maxima, _walks, _widest_window
from .families import Permutation
from .intervals import Interval
from .ranksets import _earlier_smaller

EIGEN_CAP = 4096
_UB_SLACK = 1e-9  # relative rounding room on eigenvalue_stat's bound


def _validate_pattern(tau) -> tuple[int, ...]:
    tau = tuple(tau)
    if not 1 <= len(tau) <= 3:
        raise QrpermError("patterns of length 1..3 only")
    if sorted(tau) != list(range(len(tau))):
        raise QrpermError(f"{tau} is not a pattern (ranks 0..m-1)")
    return tau


def _pattern_counts(values, longest: int) -> dict[tuple[int, ...], int]:
    """Occurrences of every pattern of length 1 and 2, and of length 3
    if longest is 3, in a sequence of distinct integers, all from one
    call of the earlier-smaller kernel: each length-3 sum runs over the
    middle or the last entry of an occurrence.  Length 3 is refused
    unless C(r, 3) < 2^63, the bound on every length-3 sum under which
    the int64 sums are exact."""
    r = len(values)
    if longest == 3 and math.comb(r, 3) >= 2 ** 63:
        raise SizeRefusedError(
            f"length-3 pattern counts of {r} entries overflow int64")
    c = _earlier_smaller(values)
    x01 = int(c.sum())
    counts = {(0,): r, (0, 1): x01, (1, 0): r * (r - 1) // 2 - x01}
    if longest < 3:
        return counts
    j = np.arange(r)
    rank = np.empty(r, dtype=np.int64)
    rank[np.argsort(values)] = j
    l_lt, l_gt = c, j - c                   # earlier entries below, above
    r_lt = rank - c                         # later entries below
    r_gt = (r - 1 - j) - r_lt               # later entries above
    x012 = int((l_lt * r_gt).sum())
    x210 = int((l_gt * r_lt).sum())
    x102 = int((l_lt * (l_lt - 1) // 2).sum()) - x012
    x120 = int((l_gt * (l_gt - 1) // 2).sum()) - x210
    counts.update({(0, 1, 2): x012,
                   (0, 2, 1): int((l_lt * r_lt).sum()) - x120,
                   (1, 0, 2): x102, (1, 2, 0): x120,
                   (2, 0, 1): int((l_gt * r_gt).sum()) - x102,
                   (2, 1, 0): x210})
    return counts


def pattern_count(sigma: Permutation, tau) -> int:
    """X^tau(sigma): occurrences of the pattern on the full domain."""
    tau = _validate_pattern(tau)
    return _pattern_counts(sigma.image, len(tau))[tau]


@dataclass(frozen=True)
class RestrictedCount:
    count: int
    size: int  # |I cap sigma^{-1}(J)|


def restriction(sigma: Permutation, i_int: Interval,
                j_int: Interval) -> list[int]:
    """Positions x in I with sigma(x) in J, in increasing integer order."""
    if i_int.n != sigma.n or j_int.n != sigma.n:
        raise QrpermError("interval modulus mismatch")
    return sorted(x for x in i_int.members()
                  if j_int.contains(sigma.image[x]))


def restricted_pattern_count(sigma: Permutation, tau, i_int: Interval,
                             j_int: Interval) -> RestrictedCount:
    """X^tau on the subsequence of sigma restricted to I cap
    sigma^{-1}(J)."""
    tau = _validate_pattern(tau)
    pos = restriction(sigma, i_int, j_int)
    values = [sigma.image[x] for x in pos]
    return RestrictedCount(_pattern_counts(values, len(tau))[tau], len(pos))


@dataclass(frozen=True)
class EigenvalueStat:
    value: float        # max over k, I of |sum| / |k|^alpha
    alpha: float
    k: int
    interval: Interval
    magnitude: float    # |sum_{s in sigma(I)} e(-k s / n)| at the argmax


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise QrpermError(f"alpha must be positive and finite, got {alpha}")


def eigenvalue_stat(sigma: Permutation, alpha: float) -> EigenvalueStat:
    """max over 1 <= k <= n/2 and cyclic intervals I of
    |sum_{s in sigma(I)} e(-k*s/n)| / k^alpha.

    Negative k duplicate positive k in magnitude, so only positive
    representatives are scanned.  For each k the value is the widest
    window max_{u<v} |P_v - P_u| of the prefix walk P of e(-k*sigma/n),
    won by I = [u, v).  Wrapping intervals need no scan: the full-circle
    sum P_n is 0 (sigma is a permutation, k != 0 mod n), so each has the
    magnitude of its non-wrapping complement.

    As P_0 = 0, the widest window lies between M_k = max_m |P_m| and
    2*M_k (triangle inequality), so ub_k = 2*M_k / k^alpha bounds the
    value for k.  The exact scans run in decreasing order of ub_k and
    stop at the first k whose ub_k, with a relative slack of _UB_SLACK
    for rounding, is below the best value found; every later k is
    bounded below it too.  Among equal values the smallest k wins.
    Refuses n > EIGEN_CAP.
    """
    _check_alpha(alpha)
    n = sigma.n
    if n > EIGEN_CAP:
        raise SizeRefusedError(f"n = {n} exceeds cap {EIGEN_CAP}")
    if n < 2:
        raise QrpermError("n must be >= 2")
    img = np.asarray(sigma.image, dtype=np.int64)
    ks = np.arange(1, n // 2 + 1)
    walk_max, _ = _walk_maxima(sigma, -ks)
    with np.errstate(over="ignore"):  # k^alpha = inf gives ub_k = 0
        ub = 2.0 * walk_max / ks ** alpha
    best = None
    for i in np.argsort(-ub, kind="stable").tolist():
        if best is not None and ub[i] * (1.0 + _UB_SLACK) < best.value:
            break
        k = i + 1
        walk = _walks(img, n, [-k])[0]
        mag, u, v = _widest_window(np.concatenate(([0j], walk)))
        value = mag / float(k) ** alpha
        # among equal values the least k wins, as in a scan by increasing k
        if best is None or (value, -k) > (best.value, -best.k):
            best = EigenvalueStat(value, alpha, k, Interval(n, u, v - u), mag)
    return best


def translation_stat(sigma: Permutation, i_int: Interval,
                     j_int: Interval) -> Fraction:
    """sum over shifts k of (|sigma(I) cap (J + k)| - |I||J|/n)^2, exact.

    J + k is the cyclic interval of length L from (j0 + k) mod n, so
    c_k = cum[s + L] - cum[s] on the cumulative count cum of sigma(I)
    taken twice around the circle."""
    n = sigma.n
    if i_int.n != n or j_int.n != n:
        raise QrpermError("interval modulus mismatch")
    img = np.asarray(sigma.image, dtype=np.int64)
    s_ind = np.zeros(n, dtype=np.int64)
    s_ind[img[i_int.indicator() == 1]] = 1
    cum = np.concatenate(([0], np.cumsum(np.tile(s_ind, 2))))
    starts = (j_int.start + np.arange(n)) % n
    c = cum[starts + j_int.length] - cum[starts]
    ab = i_int.length * j_int.length
    total = sum(d * d for d in (n * c - ab).tolist())
    return Fraction(total, n * n)


@dataclass(frozen=True)
class PropertyProfile:
    """One-permutation summary of the quasirandomness statistics.

    Probes are fixed so profiles are comparable: halves H1 = [0, n/2),
    H2 = [n/2, n) for separability and translation, the full domain for
    the 2-subsequence imbalance, alpha for the eigenvalue statistic.
    sp_max is one count, |F(h, h)|/n: as sigma is a bijection, all four
    half-by-half separability deviations are +-F(h, h)/n.
    """

    n: int
    family: str
    params: tuple[tuple[str, str], ...]
    ub: Fraction                 # discrepancy upper bound used
    two_s: int                   # X^(01) - X^(10), full domain
    sp_max: Fraction             # max separability deviation over halves
    e_alpha: float
    e_alpha_max: float | None    # None above EIGEN_CAP
    t_sum: Fraction              # translation stat on (H1, H1)
    pattern_counts: tuple[tuple[tuple[int, ...], int], ...]

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "family": self.family,
            "params": dict(self.params),
            "ub": _fraction_json(self.ub),
            "two_s": self.two_s,
            "sp_max": _fraction_json(self.sp_max),
            "e_alpha": self.e_alpha,
            "e_alpha_max": self.e_alpha_max,
            "t_sum": _fraction_json(self.t_sum),
            "pattern_counts": {
                "".join(str(t) for t in tau): c
                for tau, c in self.pattern_counts},
        }, sort_keys=True)


def property_profile(sigma: Permutation, alpha: float = 0.5,
                     exact_cap: int = D_EXACT_CAP) -> PropertyProfile:
    _check_alpha(alpha)
    n = sigma.n
    if n < 2:
        raise QrpermError("profiles need n >= 2")
    h = n // 2
    first = Interval(n, 0, h)
    ub = build_report(sigma, exact_cap).d_upper
    c = int(np.count_nonzero(np.asarray(sigma.image[:h]) < h))
    counts = _pattern_counts(sigma.image, 3)
    eig = eigenvalue_stat(sigma, alpha) if n <= EIGEN_CAP else None
    return PropertyProfile(
        n=n, family=sigma.family, params=sigma.params, ub=ub,
        two_s=counts[(0, 1)] - counts[(1, 0)],
        sp_max=Fraction(abs(n * c - h * h), n), e_alpha=alpha,
        e_alpha_max=eig.value if eig else None,
        t_sum=translation_stat(sigma, first, first),
        pattern_counts=tuple((tau, c) for tau, c in counts.items()
                             if len(tau) > 1))
