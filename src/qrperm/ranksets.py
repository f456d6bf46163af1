"""Partial-rank sequences B_sigma(k) and the hit-set A_sigma.

For a permutation sigma of [n] (we keep the 0-indexed Permutation and
shift: sigma(q) below means image[q-1] compared as integers),

    B_sigma(k) = #{1 <= q <= k : sigma(q) <= sigma(k)},   1 <= k <= n
    A_sigma    = {B_sigma(k) : k in [n]}

B_sigma(k) is the rank of sigma(k) among the first k values, so
B_sigma(1) = 1 always.  b_sequence is 1 + the earlier-smaller counts of
_earlier_smaller, the kernel qrstats shares for its pattern counts:
O(n log^2 n) time in about log2 n numpy levels, O(n) memory.  b_of_k
is the same quantity for the ranking of {alpha*q} directly, with exact
comparisons; it agrees with a_set applied to sos_perm.

The gap machinery: max_gap is the largest spacing between consecutive
elements of A (with sentinels 0 and n+1), so "every interval of length L
inside [1, n] meets A" is exactly max_gap <= L.  gap_check verifies that
with L = ceil(sqrt(32*n*D)) for a supplied discrepancy upper bound D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discrepancy import _ceil_sqrt
from .errors import QrpermError, SizeRefusedError
from .families import Permutation
from .quadirr import QuadraticIrrational, alpha_label, frac_compare, frac_float


def b_of_k(alpha, k: int) -> int:
    """#{1 <= q <= k : {q*alpha} <= {k*alpha}}, exact."""
    if k < 1:
        raise QrpermError("k must be >= 1")
    return sum(1 for q in range(1, k + 1) if frac_compare(alpha, q, k) <= 0)


def _earlier_smaller(values) -> np.ndarray:
    """c[j] = #{i < j : values[i] < values[j]} for distinct integers.

    Bottom-up merge counting: at width w = 1, 2, 4, ... each right block
    of w entries counts the entries of its left neighbour below it.  One
    sort of the left keys pair*span + value, pair = pos // 2w, and two
    searchsorted calls do a whole level: O(r log^2 r) time in about
    log2 r levels, O(r) memory, exact int64."""
    v = np.asarray(values, dtype=np.int64)
    r = len(v)
    c = np.zeros(r, dtype=np.int64)
    if r < 2:
        return c
    v = v - v.min()
    span = int(v.max()) + 1
    pos = np.arange(r)
    w = 1
    while w < r:
        block = pos // w
        right = (block & 1) == 1
        base = (block >> 1) * span
        keys = base + v
        left = np.sort(keys[~right])
        c[right] += (np.searchsorted(left, keys[right])
                     - np.searchsorted(left, base[right]))
        w *= 2
    return c


def b_sequence(sigma: Permutation) -> list[int]:
    """B_sigma(k) for k = 1..n."""
    return (_earlier_smaller(sigma.image) + 1).tolist()


@dataclass(frozen=True)
class ASet:
    n: int
    values: tuple[int, ...]  # sorted, duplicates removed
    max_gap: int             # max spacing with sentinels 0 and n+1
    count: int               # |A intersect [1, n]|
    widest_empty: tuple[int, int] | None  # [lo, hi] missing A, or None

    def contains_in_every_window(self, length: int) -> bool:
        return self.max_gap <= length


def a_set(sigma: Permutation) -> ASet:
    values = tuple(sorted(set(b_sequence(sigma))))
    n = sigma.n
    fenced = (0,) + values + (n + 1,)
    max_gap = 0
    widest = None
    for lo, hi in zip(fenced, fenced[1:]):
        if hi - lo > max_gap:
            max_gap = hi - lo
            widest = (lo + 1, hi - 1) if hi - lo > 1 else None
    return ASet(n, values, max_gap, len(values), widest)


@dataclass(frozen=True)
class GapCheck:
    ok: bool
    required_length: int     # ceil(sqrt(32 * n * d_upper))
    max_gap: int
    widest_empty: tuple[int, int] | None


def gap_check(sigma: Permutation, d_upper) -> GapCheck:
    """Does every interval of length ceil(sqrt(32*n*D)) inside [1, n]
    contain an element of A_sigma?  d_upper must dominate D(sigma)."""
    d_upper = Fraction(d_upper)
    if d_upper < 0:
        raise QrpermError("discrepancy bound must be >= 0")
    ranks = a_set(sigma)
    needed = _ceil_sqrt(32 * sigma.n * d_upper)
    return GapCheck(ranks.max_gap <= needed, needed, ranks.max_gap,
                    ranks.widest_empty)


@dataclass(frozen=True)
class PrefixStar:
    """max over s <= n of the star discrepancy (count scale) of the
    first s points {alpha}, {2 alpha}, ..., {s alpha}."""
    value: Fraction | float
    argmax_s: int
    final: Fraction | float   # the s = n value


def max_prefix_star(alpha, beta: Permutation) -> PrefixStar:
    """Star discrepancy of every prefix of ({s*alpha})_{s<=n}, maximised.

    beta is sos_perm(n, alpha), with or without tie_break; any other
    beta is refused.  Its exact order drives one prefix_star_nums sweep
    over the residues (rational alpha: an exact Fraction) or over the
    frac_float keys with den = 1 (irrational alpha: their few-ulp error
    is far below the 1/n**2 gap floor, so ~1e-11 absolute).
    """
    label = alpha_label(alpha)
    if beta.family != "sos" or beta.param_dict().get("alpha") != label:
        raise QrpermError(f"beta is not the Sos ranking of alpha={label}")
    if isinstance(alpha, QuadraticIrrational):
        den, r = 1, [frac_float(alpha, s) for s in range(1, beta.n + 1)]
    else:
        alpha = Fraction(alpha)
        den = alpha.denominator
        r = [alpha.numerator * s % den for s in range(1, beta.n + 1)]
    nums = prefix_star_nums(beta.image, r, den)
    best_s = int(np.argmax(nums)) + 1  # first maximum, smallest s
    value, final = nums[best_s - 1].item(), nums[-1].item()
    if isinstance(alpha, Fraction):
        value, final = Fraction(value, den), Fraction(final, den)
    return PrefixStar(value, best_s, final)


def prefix_star_nums(ranks, r, den: int) -> np.ndarray:
    """Star discrepancy (count scale) of every prefix of the points
    r[q] / den, times den; entry s - 1 covers the first s points.
    ranks orders the points as r does, ties broken either way, so one
    counter cnt(t) = #{q <= s : rank_q <= rank_t} runs over tied points
    from the open count + 1 to the closed one and serves both box
    conventions.  Exact for integer r; float r (den = 1) rounds
    monotonically, so it matches separate counters bit for bit."""
    n = len(r)
    if den * (n + 1) >= 2**62:
        raise SizeRefusedError("denominator too large for the exact "
                               "integer sweep")
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
