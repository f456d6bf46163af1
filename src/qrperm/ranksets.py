"""Partial-rank sequences B_sigma(k) and the hit-set A_sigma.

For a permutation sigma of [n] (we keep the 0-indexed Permutation and
shift: sigma(q) below means image[q-1] compared as integers),

    B_sigma(k) = #{1 <= q <= k : sigma(q) <= sigma(k)},   1 <= k <= n
    A_sigma    = {B_sigma(k) : k in [n]}

B_sigma(k) is the rank of sigma(k) among the first k values, so
B_sigma(1) = 1 always.  b_sequence is 1 + the earlier-smaller counts of
_earlier_smaller, the kernel qrstats shares for its pattern counts:
O(n log^2 n) time in about log2 n numpy levels, O(n) memory.

The gap machinery: max_gap is the largest spacing between consecutive
elements of A (with sentinels 0 and n+1), so "every interval of length L
inside [1, n] meets A" is exactly max_gap <= L.  gap_check verifies that
with L = ceil(sqrt(32*n*D)) for a supplied discrepancy upper bound D.

Prefix star discrepancy: prefix_star_nums gives the star discrepancy of
every prefix of a point sequence in one sweep over the rank-indexed
count matrix G(s, b) = #{q < s : rank_q < b}.  The sweep itself is
_prefix_star_rows, which evaluates any set of rows given as runs of
consecutive rows: prefix_star_nums is its all-rows call.  Entry s - 1
reads only the first s points, so the kernel steps its runs in groups
of d_star's _runs(n + 1) runs, each group over only the points up to
its last row: prefix_star_nums asks for _ROW_GROUPS times as many
runs, and a sweep costs O(n^2) time, about (1 + 1/_ROW_GROUPS)/2 of the
n(n + 1) cells of one sweep over all points, and O(n) memory, at most
3*runs*(n + 1) cells.  Every row has the bits of a per-prefix loop.
max_prefix_star runs it over the Kronecker sequence {s*alpha}, and
discrelation_holds decides D*(beta_alpha) <= 2 * that maximum exactly:
with Fractions for rational alpha, in surd arithmetic at the winning
box for irrational alpha.

Irrational alpha takes two steps, and keeps the bits of one float sweep.

  Keys from the walk.  If s' follows s in the order of {s*alpha}, then
  {s'alpha} = {s alpha} + {(s' - s)alpha} - carry with carry in {0, 1},
  and {s'alpha} > {s alpha} forces carry = 0: floor(s'alpha) =
  floor(s alpha) + floor((s' - s)alpha).  The three-distance theorem
  leaves at most three steps s' - s, so a few exact floor_multiple calls
  and one cumsum give every floor; a wrong order has a carry of 1
  somewhere, which one more floor_multiple at the last point detects.
  The keys are then quadirr's frac_surd and surd_float over the arrays
  s and fl, the functions frac_float itself calls, so they are
  frac_float's bits.

  A fixed-point filter.  With 2^k*(n + 1) < 2^31 and R = floor(y*2^k)
  (exact: the scaling is), prefix_star_nums(ranks, R, 2^k) sweeps in
  int32.  Each of its boxes is 2^k*G - s*R = 2^k*(G - s*y) + s*(2^k*y -
  R), within s <= n of 2^k times the exact box at the keys, and the
  float box is within n*2^-52 of that (two roundings of numbers of size
  at most n), which 2^k scales below 2^-21.  So every fixed entry is
  within n + 1 of 2^k times the float entry, and the float maximum and
  every row tied with it have fixed entries >= max - 2(n + 1).  Those
  candidate rows, each its own run, are evaluated in float64 by the
  same kernel; when they are more than half of all rows (golden keeps
  49256 of 50000), one all-rows float sweep is cheaper and gives the
  same bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discrepancy import _inverses, _run_starts, _runs, _step_rows
from .errors import QrpermError, SizeRefusedError
from .families import Permutation
from .quadirr import (QuadraticIrrational, alpha_label, floor_multiple,
                      frac_surd, sign_of_surd, surd_float)

_FIXED_BITS = 31  # the fixed-point filter sweeps in int32
_ROW_GROUPS = 4   # prefix_star_nums steps its rows in 4 groups (8: about
                  # the same, 16: slower at n <= 4096)


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


def _ceil_sqrt(x) -> int:
    """Smallest integer L >= 0 with L*L >= x, exact for int or Fraction."""
    return math.isqrt(math.ceil(x) - 1) + 1 if x > 0 else 0


def gap_check(sigma: Permutation, d_upper) -> GapCheck:
    """Does every interval of length ceil(sqrt(32*n*D)) inside [1, n]
    contain an element of A_sigma?  d_upper must dominate D(sigma)."""
    return _gap_of(a_set(sigma), d_upper)


def _gap_of(ranks: ASet, d_upper) -> GapCheck:
    """gap_check for the A_sigma already built, ranks = a_set(sigma)."""
    d_upper = Fraction(d_upper)
    if d_upper < 0:
        raise QrpermError("discrepancy bound must be >= 0")
    needed = _ceil_sqrt(32 * ranks.n * d_upper)
    return GapCheck(ranks.max_gap <= needed, needed, ranks.max_gap,
                    ranks.widest_empty)


@dataclass(frozen=True)
class PrefixStar:
    """max over s <= n of the star discrepancy (count scale) of the
    first s points {alpha}, {2 alpha}, ..., {s alpha}.  box = (q, count)
    is a box that attains it: its edge is {q alpha}, and it holds count
    of the first argmax_s points."""
    value: Fraction | float
    argmax_s: int
    final: Fraction | float   # the s = n value
    box: tuple[int, int]


def _refuse_wide(den: int, n: int):
    """The exact integer sweep holds den*(n + 1) below 2^62."""
    if den * (n + 1) >= 2**62:
        raise SizeRefusedError("denominator too large for the exact "
                               "integer sweep")


def _prefix_points(alpha, ranks) -> tuple[np.ndarray, int]:
    """The points {s*alpha}, s = 1..n, as (r, den), where ranks (beta's
    image) orders them: int64 residues ((num mod den)*s) mod den for
    rational alpha; for irrational alpha, frac_float's keys with den = 1,
    from floors chained along the order (see the module docstring).  An
    order that is not that of {s*alpha} raises QrpermError."""
    g = np.asarray(ranks, dtype=np.int64)
    n = len(g)
    s = np.arange(1, n + 1, dtype=np.int64)
    if not isinstance(alpha, QuadraticIrrational):
        alpha = Fraction(alpha)
        den = alpha.denominator
        _refuse_wide(den, n)
        return alpha.numerator % den * s % den, den
    a, b, d, c = alpha.a, alpha.b, alpha.d, alpha.c
    # |a*s|, |b*s|, |c*floor(s*alpha)| and their sums stay below this
    if (abs(a) + abs(b) * (math.isqrt(d) + 1) + c) * (n + 1) >= 2**62:
        raise SizeRefusedError(f"alpha={alpha_label(alpha)}: too large for "
                               f"int64 floors at n = {n}")
    order = np.empty(n, dtype=np.int64)
    order[g] = s
    # the distinct steps without np.unique, which imports numpy.ma
    # (1.7 MB of resident memory)
    diffs = np.diff(order)
    steps = sorted(set(diffs.tolist()))
    fl = np.empty(n, dtype=np.int64)
    fl[0] = floor_multiple(alpha, int(order[0]))
    fl[1:] = np.array([floor_multiple(alpha, t) for t in steps],
                      dtype=np.int64)[np.searchsorted(steps, diffs)]
    np.cumsum(fl, out=fl)
    if fl[-1] != floor_multiple(alpha, int(order[-1])):
        raise QrpermError(f"beta is not ordered by {{s*alpha}} for "
                          f"alpha={alpha_label(alpha)}")
    return surd_float(alpha, *frac_surd(alpha, s, fl[g])), 1


def _row_boxes(ranks, r, den: int, s: int):
    """The 2s boxes of entry s - 1 of prefix_star_nums, closed ones
    first: their values (computed as the sweep computes them), edge
    points q (1-based) and counts of the first s points inside.  One
    O(n) pass."""
    g = np.asarray(ranks[:s], dtype=np.int64)
    seen = np.zeros(len(ranks) + 1, dtype=np.int64)
    seen[g + 1] = 1
    cnt = np.cumsum(seen)[g + 1]  # #{p < s : rank_p <= rank_q}
    lin = s * np.asarray(r[:s])
    vals = np.concatenate((den * cnt - lin, lin - den * (cnt - 1)))
    qs = np.tile(np.arange(1, s + 1), 2)
    return vals, qs, np.concatenate((cnt, cnt - 1))


def _fixed_nums(ranks, y) -> tuple[np.ndarray, int]:
    """(prefix_star_nums(ranks, floor(y * 2^k), 2^k), 2^k) for float
    keys y in [0, 1), k the largest with 2^k*(n + 1) < 2^_FIXED_BITS:
    an int32 sweep whose entries are within n + 1 of 2^k times the
    float sweep's (module docstring)."""
    n = len(y)
    scale = 1 << (((1 << _FIXED_BITS) - 1) // (n + 1)).bit_length() - 1
    return prefix_star_nums(ranks, np.floor(y * scale).astype(np.int64),
                            scale), scale


def _candidate_nums(ranks, y, cut) -> tuple[np.ndarray, np.ndarray]:
    """(rows, nums): the rows s - 1 whose fixed-point entry is at least
    cut(fixed, scale), with row n - 1 always among them, and their
    entries of the float sweep prefix_star_nums(ranks, y, 1), bit for
    bit.  Up to half of all rows, each is its own run; a single-row run
    costs 2-2.5 times a swept row, so above that one all-rows sweep is
    cheaper."""
    fixed, scale = _fixed_nums(ranks, y)
    keep = fixed >= cut(fixed, scale)
    keep[-1] = True
    rows = np.flatnonzero(keep)
    if 2 * len(rows) > len(y):
        return rows, prefix_star_nums(ranks, y, 1)[rows]
    return rows, _prefix_star_rows(ranks, y, 1, rows[None, :])[0]


def max_prefix_star(alpha, beta: Permutation) -> PrefixStar:
    """Star discrepancy of every prefix of ({s*alpha})_{s<=n}, maximised.

    beta is sos_perm(n, alpha), with or without tie_break; any other
    beta is refused.  Rational alpha: one prefix_star_nums sweep over
    the residues, an exact Fraction.  Irrational alpha: the values of a
    float64 sweep over the frac_float keys with den = 1 (their few-ulp
    error is far below the 1/n**2 gap floor, so ~1e-11 absolute), bit
    for bit, from the int32 fixed-point filter and the float rows of
    its candidates plus row n; argmax_s is the first maximum either way.
    """
    label = alpha_label(alpha)
    if beta.family != "sos" or beta.param_dict().get("alpha") != label:
        raise QrpermError(f"beta is not the Sos ranking of alpha={label}")
    n = beta.n
    r, den = _prefix_points(alpha, beta.image)
    if isinstance(alpha, QuadraticIrrational):
        # a row outside the candidates is below the float maximum, so
        # the first maximum over these rows is the sweep's; row n gives
        # final
        rows, nums = _candidate_nums(
            beta.image, r, lambda fixed, _: fixed.max() - 2 * (n + 1))
        i = int(np.argmax(nums))
        best_s, value, final = int(rows[i]) + 1, nums[i].item(), \
            nums[-1].item()
    else:
        nums = prefix_star_nums(beta.image, r, den)
        best_s = int(np.argmax(nums)) + 1  # first maximum, smallest s
        value = Fraction(nums[best_s - 1].item(), den)
        final = Fraction(nums[-1].item(), den)
    vals, qs, counts = _row_boxes(beta.image, r, den, best_s)
    i = int(np.argmax(vals))
    return PrefixStar(value, best_s, final, (int(qs[i]), int(counts[i])))


def _box_reaches(alpha: QuadraticIrrational, s: int, q: int, count: int,
                 ds: Fraction) -> bool:
    """2*|count - s*{q*alpha}| >= ds, decided in surd arithmetic."""
    c, d = alpha.c, alpha.d
    big_a, big_b = frac_surd(alpha, q, floor_multiple(alpha, q))
    # 2*den*(count - s*{q alpha}) = (x + y sqrt(d)) / c, with c > 0
    x = 2 * ds.denominator * (count * c - s * big_a)
    y = -2 * ds.denominator * s * big_b
    t = ds.numerator * c
    return sign_of_surd(x - t, y, d) >= 0 or sign_of_surd(x + t, y, d) <= 0


def discrelation_holds(alpha, beta: Permutation, ds: Fraction,
                       prefix: PrefixStar) -> bool:
    """ds <= 2 * (the exact max prefix star discrepancy), decided exactly.

    prefix is max_prefix_star(alpha, beta).  Rational alpha compares
    Fractions.  For irrational alpha, prefix.box is decided in surd
    arithmetic.  Every float box value is within tol of its exact value
    (frac_float's error, times s, plus rounding); so if that box fails,
    only boxes within tol of ds/2 can pass, and when prefix.value itself
    is that close, each of them is decided exactly.  They lie in the
    rows whose float entry is >= low = ds/2 - tol; those rows have
    fixed-point entries >= 2^k*low - (n + 1), so the rows at or above
    2^k*low - (n + 2) are evaluated in float64, and each box of a row
    at or above low is decided in surd arithmetic.
    """
    if not isinstance(alpha, QuadraticIrrational):
        return ds <= 2 * prefix.value
    if _box_reaches(alpha, prefix.argmax_s, *prefix.box, ds):
        return True
    n = beta.n
    tol = 16 * n * sys.float_info.epsilon * (
        abs(alpha.b) * n * math.sqrt(alpha.d) / alpha.c + 1)
    low = float(ds) / 2 - tol
    if prefix.value < low:
        return False
    r, den = _prefix_points(alpha, beta.image)
    rows, nums = _candidate_nums(beta.image, r,
                                 lambda _, scale: scale * low - (n + 2))
    for s in rows[nums >= low] + 1:
        vals, qs, counts = _row_boxes(beta.image, r, den, int(s))
        for i in np.flatnonzero(vals >= low):
            if _box_reaches(alpha, int(s), int(qs[i]), int(counts[i]), ds):
                return True
    return False


def prefix_star_nums(ranks, r, den: int) -> np.ndarray:
    """Star discrepancy (count scale) of every prefix of the points
    r[q] / den, r[q] in [0, den), times den; entry s - 1 covers the
    first s points.  ranks orders the points as r does, ties broken
    either way.  The all-rows call of _prefix_star_rows, in
    _ROW_GROUPS*_runs(n + 1) runs cut as d_star cuts them: the kernel
    steps them in _ROW_GROUPS groups of consecutive rows, each over
    the points it needs, so about (1 + 1/_ROW_GROUPS)/2 of n(n + 1)
    cells.  int32 wherever den*(n + 1) < 2^31.
    """
    n = len(r)
    _refuse_wide(den, n)
    out = np.empty(n, dtype=np.asarray(r).dtype)
    if n:
        span, starts = _run_starts(n, _ROW_GROUPS * _runs(n + 1))
        rows = starts + np.arange(span)[:, None]  # row a holds a + 1 points
        out[rows] = _prefix_star_rows(ranks, r, den, rows)
    return out


def _prefix_star_rows(ranks, r, den: int, rows) -> np.ndarray:
    """Entries rows of prefix_star_nums(ranks, r, den), in the shape of
    rows: a (span, runs) array whose column j is the run of consecutive
    rows rows[0, j], rows[0, j] + 1, ...; a (1, m) array asks for m
    single rows.

    Indexed by rank: y[b] is the r of the point of rank b and
    G(s, b) = #{q < s : rank_q < b}.  Entry s - 1 is the max over b of
    den*G(s, b+1) - s*y[b] (the closed box at y[b]) and
    s*y[b] - den*G(s, b) (the open one).  A column whose point is not
    among the first s never sets the max: its closed box is dominated by
    the nearest prefix point below it and its open box by the nearest
    one above, and without such a point its value is <= 0.  So one
    counter serves both conventions and tied points.

    Runs go in groups of _runs(n + 1), the rule that sizes d_star's
    runs.  A group whose last row is m - 1 reads only the first m
    points, ranked among themselves in the order ranks gives them: every
    column it keeps has the same s, y[b] and G(s, b) as over all n
    points, and every column it drops is a point outside each of its
    prefixes.  Each run's first row is one cumsum, and the runs step
    together by den*G += den*[b > rank(s)] over whole rows, read from
    d_star's step window, _step_rows.  Each group is one (runs, m + 1)
    block in three reused buffers, so memory is O(n): at most
    3*runs*(n + 1) cells, and a row costs O(m).  s*y is computed afresh
    on every row, and fl(s*y) is monotone in y, so float r (den = 1)
    gives the bits of a per-prefix loop, whatever the runs.
    den*(n + 1) < 2^62, as prefix_star_nums checks.
    """
    n = len(r)
    g = np.asarray(ranks, dtype=np.int64)
    r = np.asarray(r)
    rows = np.asarray(rows, dtype=np.int64)
    # val is the dtype a per-prefix loop gives den*G - s*y.  den*G is
    # held in it where exact, so no step mixes dtypes; integer sweeps
    # narrow to int32 where |den*G - s*y| < den*(n + 1) fits.
    val = np.result_type(np.int64, r.dtype)
    if val.kind == "f":
        pdt, cnt = r.dtype, (val if den * (n + 1) < 2**53 else np.int64)
    else:
        pdt = cnt = val = np.int32 if den * (n + 1) < 2**31 else val
    out = np.empty(rows.shape, dtype=val)
    inv = _inverses(g[None, :])[0]
    span, group = len(rows), _runs(n + 1)
    # reused buffers: fresh MB-sized temporaries page-fault
    hbuf = np.empty(min(group, rows.shape[1]) * (n + 1), dtype=cnt)
    pbuf = np.empty_like(hbuf, dtype=val)
    ubuf = np.empty_like(hbuf, dtype=val)
    for j in range(0, rows.shape[1], group):
        part = rows[:, j:j + group]
        runs = part.shape[1]
        m = int(part.max()) + 1
        pts = inv[inv < m]  # the first m points in rank order
        rank = _inverses(pts[None, :])[0]
        y = np.zeros(m + 1, dtype=pdt)  # y[m] pads the flat closed-box read
        y[:m] = r[pts]
        step_rows = _step_rows(den, m, cnt)  # den*[b > v] at row m - v
        a_col = part[:1].T
        s_col = (a_col + 1).astype(pdt)
        at = m - rank[part]
        # contiguous (runs, m + 1) blocks, also read flat: column m of p
        # is padding, so closed boxes read den*G one cell right
        k = runs * (m + 1)
        hf, pf, uf = hbuf[:k], pbuf[:k], ubuf[:k]
        h, p, u = (f.reshape(runs, m + 1) for f in (hf, pf, uf))
        h[:, 0] = 0  # h = den*G(s, 0..m)
        np.cumsum(pts <= a_col, axis=1, out=h[:, 1:])
        h[:, 1:] *= den
        closed = np.empty((span, runs), dtype=val)
        opened = np.empty((span, runs), dtype=val)
        for t in range(span):
            if t:
                h += step_rows[at[t]]
            np.multiply(s_col + t, y, out=p)
            np.subtract(hf[1:], pf[:-1], out=uf[:-1])  # closed boxes
            np.subtract(pf, hf, out=pf)                # open boxes
            u[:, :m].max(axis=1, out=closed[t])
            p[:, :m].max(axis=1, out=opened[t])
        np.maximum(closed, opened, out=out[:, j:j + group])
    return out
