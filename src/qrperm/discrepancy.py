"""Interval discrepancy of permutations, exactly.

All interval counts are integers, so every discrepancy here is an exact
rational with denominator n.  Both interval quantities read one integer
matrix, the prefix deviation

    F(a, b) = n*|sigma([0,a)) cap [0,b)| - a*b,    0 <= a, b <= n,

and convert to Fraction only at the API boundary.  _deviation_rows
builds any set of rows in closed form,

    F(a, b) = n*#{v < b : sigma^-1(v) < a} - a*b,

from one comparison of sigma^-1 against the row indices and one cumsum
along the contiguous b axis.  Every intermediate (n*count, a*b) is at
most n^2 and |F| <= n^2/4, so the rows are int32 while n^2 < 2^31
(n <= 46340) and int64 above.

    d_star(sigma)   max |F| over initial intervals I = [0,a), J = [0,b).
                    Rows 0..n-1 (row n is zero) are cut into runs of
                    span = ceil(n/runs) rows; the last run starts at
                    n - span and may overlap the one before it, which a
                    max does not notice.  Each run starts from a
                    closed-form row and all runs step together by the
                    recurrence
                        F(a+1, b) = F(a, b) + n*[b > sigma(a)] - b,
                    so the Python loop runs span - 1 times over whole-row
                    vector operations.  The sweep is one kernel,
                    _d_star_many(images, n), which takes a batch of any
                    size K and steps the runs of up to _rows_per_call(n)
                    permutations together, as many as fill the block
                    at _MIN_RUNS runs, chunk after chunk; d_star is its
                    K = 1 call.  One rule, _runs, sets the run count:
                    the most runs, from _MIN_RUNS = 4 to _SEGMENTS = 32,
                    whose (k, runs, n + 1) block for a chunk of k
                    permutations fits in _BLOCK_CELLS, so one
                    permutation gets 32 runs up to n = 4095, and a large
                    chunk gets fewer, longer runs and so fewer
                    closed-form rows.  The step rows n*[b > v] come
                    from _step_rows, the window the prefix-star sweep
                    of ranksets steps by too.  The sweep only needs
                    |F| + n <= n^2/4 + n in range, so it runs in int16
                    up to n = 360, in int32 up to n = 92679 and in int64
                    above; the first rows are built in int32 (int64
                    above n = 46340) and cast.  O(n^2) time, O(n)
                    memory.
    d_exact(sigma)  max over all cyclic interval pairs.  For I = [i,j)
                    and J = [c,d) the signed deviation is
                    F(j,d) - F(i,d) - F(j,c) + F(i,c), so the best J for
                    a given I is the spread max_b - min_b of F_j - F_i.
                    Complementing I or J negates the signed deviation and
                    maps wrapping intervals to non-wrapping ones, so the
                    non-wrapping pairs i < j suffice.  When sigma is
                    affine, sigma(s) = k*s + c mod n, which the O(n)
                    test that image[s + 1] - image[s] is constant mod n
                    detects without a family tag, no pair is swept:
                    sigma([i, j)) is sigma([0, j - i)) translated by
                    k*i, F_j - F_i is the deviation function of
                    sigma([i, j)), and that function is periodic in b,
                    so the translation only shifts it along b and keeps
                    its spread, the spread of row j - i.  D is then the
                    largest row spread, np.ptp(F, axis=1).max(), read
                    off the F already built (psi(263, k) at the analyze
                    benchmark's 16 parameter sets: 0.43-0.45 ms against
                    4.3-8.4 ms for the sweep).  For any other sigma,
                    every |F_j - F_i| is at most 2 max|F| = 2n D*, so
                    when that is at most 32767 the rows are cast to
                    int16 and no difference wraps; each spread is taken
                    in int64.  Otherwise F keeps its dtype.  First
                    every pair is bounded: with the b axis cut into
                    blocks of _BOUND_COLS = 16 columns, A[j, i] = max
                    over blocks of (blockmax F_j - blockmin F_i) >=
                    max_b (F_j - F_i), so the spread of
                    (i, j) is at most A[j, i] + A[i, j].  That takes
                    about a tenth of a full sweep's time and two
                    (n + 1)^2 matrices, A and U = A + A^T (uint16 for
                    int16 rows, else F's dtype).  The exact sweep then
                    goes in tiles of _J_ROWS = 8 rows j, in descending
                    order of the tile's largest bound, from a best
                    spread of 0, and stops at the first tile
                    whose bound the best spread reaches.  Within a tile
                    it takes only the rows i whose bound against one of
                    the tile's rows beats the best spread, gathered in
                    chunks into one reused (8, chunk, n + 1) difference
                    block and one chunk of rows, 2*_BLOCK_CELLS cells in
                    all, and folds each chunk's spreads into the best
                    at once.  A skipped pair's spread is at most its
                    bound, which is at most the best spread, so the
                    value is exactly the full sweep's.  How much is
                    skipped depends on the input: on the analyze
                    benchmark's members (16 parameter sets) the median
                    share of pairs swept is 6-12% for random, lambda,
                    eta and rho and 44% for bit_reversal(512).  The
                    bound rules out few pairs of an input whose spreads
                    crowd near D: 87% of psi's pairs pass it (half the
                    pairs of psi(263, 154) lie above 0.75 D, 8% of a
                    random member's), which is why psi is left to the
                    affine branch.  Cubic for non-affine inputs; the
                    size cap refuses anything above it either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SizeRefusedError
from .families import Permutation

D_EXACT_CAP = 512
_SEGMENTS = 32
_MIN_RUNS = 4
_BLOCK_CELLS = 32 * 4096
_J_ROWS = 8
_BOUND_COLS = 16


def _rows_per_call(n: int) -> int:
    """How many permutations of size n one sweep of _d_star_many takes
    at most: max(1, _BLOCK_CELLS // (_MIN_RUNS * (n + 1))), 130 at
    n = 251 and 65 at n = 499, so the sweep's (k, runs, n + 1) block at
    _MIN_RUNS runs stays within _BLOCK_CELLS (512 KB of int32), inside
    L2."""
    return max(1, _BLOCK_CELLS // (_MIN_RUNS * (n + 1)))


def _inverses(images: np.ndarray) -> np.ndarray:
    """The row-wise inverses of a (K, n) array of permutation images."""
    inv = np.empty_like(images)
    np.put_along_axis(inv, images, np.arange(images.shape[1]), axis=1)
    return inv


def _deviation_rows(inv: np.ndarray, starts) -> np.ndarray:
    """The rows F(a, .) for each a in starts, for each of the K inverses
    in the (K, n) array inv: shape (K, len(starts), n + 1), in closed
    form F(a, b) = n*#{v < b : sigma^-1(v) < a} - a*b, one comparison of
    sigma^-1 against the starts and one cumsum along b.  a*b is formed
    _SEGMENTS rows at a time: in one piece for the D* kernel's run
    starts, and for all n + 1 rows of d_exact as (_SEGMENTS, n + 1)
    pieces, not a second matrix of F's size."""
    k, n = inv.shape
    dtype = np.int32 if n * n < 2**31 else np.int64
    a_col = np.asarray(starts, dtype=dtype)[:, None]
    f = np.zeros((k, len(a_col), n + 1), dtype=dtype)
    counts = f[:, :, 1:]
    # compare straight into the rows: a cumsum that casts bool as it goes
    # takes up to twice as long
    np.less(inv.astype(dtype, copy=False)[:, None, :], a_col, out=counts)
    np.cumsum(counts, axis=2, out=counts)
    f *= n
    b_row = np.arange(n + 1, dtype=dtype)
    for r in range(0, len(a_col), _SEGMENTS):
        f[:, r:r + _SEGMENTS] -= a_col[r:r + _SEGMENTS] * b_row
    return f


def _runs(cells: int) -> int:
    """How many runs an O(n^2) sweep steps together when each run holds
    cells cells: the most, from _MIN_RUNS to _SEGMENTS, whose block
    fits in _BLOCK_CELLS.  _d_star_many passes k * (n + 1) for a chunk
    of k permutations and the prefix-star sweep n + 1, so one
    permutation gets 32 runs up to n = 4095 from either."""
    return min(_SEGMENTS, max(_MIN_RUNS, _BLOCK_CELLS // cells))


def _run_starts(n: int, runs: int) -> tuple[int, np.ndarray]:
    """Cut rows 0..n-1 into runs of span = ceil(n / runs) rows: (span,
    first row of each run).  The last run starts at n - span and may
    overlap the one before it."""
    span = -(-n // runs)
    return span, np.minimum(np.arange(0, n, span), n - span)


def _step_rows(step, n: int, dtype) -> np.ndarray:
    """The step window of both O(n^2) sweeps: an (n + 1, n + 1) view
    whose row n - v is b -> step*[b > v] on columns 0..n, for v in
    0..n.  Every row is a window of one array of length 2n + 1; fancy
    indexing gathers only the rows a step needs, where np.take would
    first copy the whole view."""
    steps = np.zeros(2 * n + 1, dtype=dtype)
    steps[n + 1:] = step
    return sliding_window_view(steps, n + 1)


def _d_star_many(images: np.ndarray, n: int) -> np.ndarray:
    """max |F| of each row of a (K, n) array of permutation images, as
    int64: the D* kernel, count scale.

    Any K: the rows go in consecutive chunks of at most
    _rows_per_call(n), each swept on its own.  Rows 0..n-1 of each F are
    cut into runs of span = ceil(n / runs) rows (row n is zero), where
    runs = _runs(k * (n + 1)) for a chunk of k rows: the most runs
    whose (k, runs, n + 1) block fits in _BLOCK_CELLS, so 32 for one
    permutation up to n = 4095 and fewer, longer runs for a large
    chunk.  So every sweep stays within the block up to n = 32767,
    where one row at _MIN_RUNS runs fills it.  The last run starts at
    n - span and may overlap the one before it; rows seen twice do not
    change a max.  Each run's first row comes from _deviation_rows, and
    then all k * runs runs step forward together by
    F(a+1, b) = F(a, b) + n*[b > sigma(a)] - b, so the Python loop runs
    span - 1 times over whole-block vector operations, with the row
    b -> n*[b > v] from _step_rows.  The sweep needs only
    |F| + n <= n^2/4 + n in range, so it runs in the narrowest of int16
    (n <= 360), int32 (n <= 92679) and int64 that holds that, whatever
    dtype the closed-form rows needed.
    """
    bound = n * n // 4 + n
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if bound <= np.iinfo(t).max)
    step_rows = _step_rows(n, n, dtype)
    b_row = np.arange(n + 1, dtype=dtype)
    per_call = _rows_per_call(n)
    out = []
    for c in range(0, max(1, len(images)), per_call):
        part = images[c:c + per_call]
        span, starts = _run_starts(n, _runs(max(1, len(part)) * (n + 1)))
        f = _deviation_rows(_inverses(part), starts).astype(dtype, copy=False)
        # shifts[t] = n - sigma(starts + t) for every permutation and run
        shifts = (n - part[:, starts + np.arange(span - 1)[:, None]]
                  ).transpose(1, 0, 2)
        his, los = [f.max(axis=(1, 2))], [f.min(axis=(1, 2))]
        for shift in shifts:  # row starts + t becomes starts + t + 1
            f += step_rows[shift]
            f -= b_row
            his.append(f.max(axis=(1, 2)))
            los.append(f.min(axis=(1, 2)))
        out.append(np.maximum(np.max(his, axis=0), -np.min(los, axis=0)))
    return np.concatenate(out).astype(np.int64)


def d_star(sigma: Permutation) -> Fraction:
    """Initial-interval discrepancy max |F| / n, exact: the K = 1 call of
    the kernel _d_star_many."""
    images = np.asarray(sigma.image)[None, :]
    return Fraction(int(_d_star_many(images, sigma.n)[0]), sigma.n)


def _group_reduce(ufunc, x: np.ndarray, width: int) -> np.ndarray:
    """ufunc over each group of width consecutive rows of x (the last
    group may be short), one output row per group: width - 1 whole-array
    calls over strided rows, far faster than ufunc.reduceat here."""
    out = x[::width].copy()
    for k in range(1, width):
        rows = x[k::width]
        ufunc(out[:len(rows)], rows, out=out[:len(rows)])
    return out


def _pair_bounds(f: np.ndarray) -> np.ndarray:
    """A symmetric (n + 1)^2 matrix U with U[i, j] >= max_b - min_b of
    F_j - F_i for i != j, and a zero diagonal.

    With the b axis cut into blocks of _BOUND_COLS columns, A[j, i] =
    max over blocks of (blockmax F_j - blockmin F_i) is at least
    max_b (F_j - F_i), so U = A + A^T bounds every spread.  Column 0 of
    F is 0, so 0 <= A <= 2 max|F|: U fits uint16 when F is int16 (the
    gate keeps 2 max|F| <= 32767), and F's own dtype otherwise, as
    4 max|F| <= n^2.  A is built one block of columns at a time through
    one (n + 1)^2 temporary, which then receives U."""
    # blockmax and blockmin of F, one row per block of columns
    bmax = _group_reduce(np.maximum, f.T, _BOUND_COLS)
    bmin = _group_reduce(np.minimum, f.T, _BOUND_COLS)
    a = np.subtract(bmax[0, :, None], bmin[0])
    u = np.empty_like(a)
    for hi_b, lo_b in zip(bmax[1:], bmin[1:]):
        np.subtract(hi_b[:, None], lo_b, out=u)
        np.maximum(a, u, out=a)
    if a.dtype == np.int16:
        a, u = a.view(np.uint16), u.view(np.uint16)
    np.add(a, a.T, out=u)
    np.fill_diagonal(u, 0)
    return u


def d_exact(sigma: Permutation, cap: int = D_EXACT_CAP) -> Fraction:
    """Discrepancy over all cyclic interval pairs, exact: the max over
    i < j of max_b - min_b of F_j - F_i.  For affine sigma (image[s + 1]
    - image[s] constant mod n) that is the largest spread of one row of
    F, as sigma([i, j)) is sigma([0, j - i)) translated, so no pair is
    swept.  Otherwise only the pairs whose bound from _pair_bounds beats
    the best spread so far are swept, and a skipped pair's spread is at
    most that best.  Refuses n > cap."""
    n = sigma.n
    if n > cap:
        raise SizeRefusedError(
            f"d_exact is cubic; n = {n} exceeds cap {cap}")
    images = np.asarray(sigma.image)[None, :]
    f = _deviation_rows(_inverses(images), np.arange(n + 1))[0]
    # affine sigma: sigma([i, j)) is sigma([0, j - i)) translated, so the
    # spread of F_j - F_i is that of row j - i (int32 or int64 holds
    # every spread, as max - min <= 2 max|F| <= n^2/2)
    steps = np.diff(images[0]) % n
    if (steps == steps[:1]).all():
        return Fraction(int(np.ptp(f, axis=1).max()), n)
    # |F_j - F_i| <= 2 max|F|: when that fits, int16 holds every difference
    if 2 * max(int(f.max()), -int(f.min())) <= np.iinfo(np.int16).max:
        f = f.astype(np.int16)
    bound = _pair_bounds(f)
    # tile t holds the pairs i < j of its rows j: the bound of each row
    # i is its largest against the tile's rows j, and rows i from the
    # tile's last row j on only repeat pairs that the tile's rows hold
    starts = np.arange(1, n + 1, _J_ROWS)
    tile_bound = _group_reduce(np.maximum, bound[1:], _J_ROWS)
    last = np.minimum(starts + _J_ROWS - 1, n)
    tile_bound[np.arange(n + 1) >= last[:, None]] = 0
    tile_max = tile_bound.max(axis=1)
    # one reused (_J_ROWS, i_rows, n + 1) difference block and i_rows
    # gathered rows, within 2*_BLOCK_CELLS cells: fresh MB-sized
    # temporaries page-fault
    i_rows = max(1, 2 * _BLOCK_CELLS // ((_J_ROWS + 1) * (n + 1)))
    diff = np.empty((_J_ROWS, i_rows, n + 1), dtype=f.dtype)
    gathered = np.empty((i_rows, n + 1), dtype=f.dtype)
    # tiles by descending bound: the first one whose bound the best
    # spread reaches ends the sweep, as no later pair can beat it
    best = 0
    for t in np.argsort(tile_max, kind="stable")[::-1]:
        if tile_max[t] <= best:
            break
        f_j = f[starts[t]:last[t] + 1, None]
        live = np.flatnonzero(tile_bound[t] > best)
        for c0 in range(0, len(live), i_rows):
            rows = live[c0:c0 + i_rows]
            f_i = np.take(f, rows, axis=0, mode="clip",
                          out=gathered[:len(rows)])
            tile = np.subtract(f_j, f_i, out=diff[:len(f_j), :len(rows)])
            spread = np.subtract(np.max(tile, axis=2),
                                 np.min(tile, axis=2), dtype=np.int64)
            best = max(best, int(spread.max()))
    return Fraction(best, n)


def _fraction_json(x: Fraction | None) -> dict | None:
    """The JSON form of an exact value: {"num", "den"}, or None."""
    return None if x is None else {"num": x.numerator, "den": x.denominator}


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    family: str
    params: tuple[tuple[str, str], ...]
    d_star: Fraction
    d_exact: Fraction | None   # None when n exceeded the cap
    d_upper: Fraction          # d_exact when known, else 4 * d_star
    ratio_log2: float | None   # d_upper / log2(n), None for n < 2
    ratio_sqrt: float
    ratio_sqrt_log: float | None

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "family": self.family,
            "params": dict(self.params),
            "d_star": _fraction_json(self.d_star),
            "d_exact": _fraction_json(self.d_exact),
            "d_zero": _fraction_json(self.d_exact),   # the same quantity
            "d_lower": _fraction_json(self.d_star),
            "d_upper": _fraction_json(self.d_upper),
            "d_star_float": float(self.d_star),
            "d_upper_float": float(self.d_upper),
            "ratio_log2": self.ratio_log2,
            "ratio_sqrt": self.ratio_sqrt,
            "ratio_sqrt_log": self.ratio_sqrt_log,
        }, sort_keys=True)


def build_report(sigma: Permutation,
                 cap: int = D_EXACT_CAP) -> DiscrepancyReport:
    """Discrepancy report with the sandwich fallback above the cap."""
    n = sigma.n
    ds = d_star(sigma)
    if n <= cap:
        de = d_exact(sigma, cap)
        upper = de
    else:
        de = None
        upper = 4 * ds
    val = float(upper)
    return DiscrepancyReport(
        n=n, family=sigma.family, params=sigma.params,
        d_star=ds, d_exact=de, d_upper=upper,
        ratio_log2=(val / math.log2(n)) if n >= 2 else None,
        ratio_sqrt=val / math.sqrt(n),
        ratio_sqrt_log=(val / math.sqrt(n * math.log(n)))
        if n >= 2 else None,
    )
