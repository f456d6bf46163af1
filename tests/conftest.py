"""Shared fixtures and independent brute-force oracles.

The oracles here recompute everything from definitions, sharing no code
with the library's optimized sweeps: d_star from per-prefix counting,
d_exact from sliding-window counts over every cyclic interval pair
(wrapping included), pattern counts from itertools.combinations, B(k)
for {alpha*q} by exact comparisons, and the star discrepancy of a
finite point set from its sorted points (real_star_disc, the
prefix-star oracle).  The point is that a bug in the engine cannot
hide in its own oracle.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qrperm.corpus import corpus_perms
from qrperm.errors import QrpermError
from qrperm.families import Permutation, random_perm
from qrperm.quadirr import frac_compare


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q::q] = bytearray(len(flags[q * q::q]))
    return [q for q in range(limit + 1) if flags[q]]


PRIMES_TO_200 = _sieve(200)


def oracle_d_star(sigma: Permutation) -> Fraction:
    """Max over initial pairs, recounting each prefix from scratch."""
    n = sigma.n
    img = np.asarray(sigma.image)
    best = 0
    for a in range(1, n + 1):
        cnt = np.zeros(n + 1, dtype=np.int64)
        np.add.at(cnt, img[:a] + 1, 1)
        pref = np.cumsum(cnt)          # pref[b] = |sigma([0,a)) cap [0,b)|
        dev = np.abs(n * pref - a * np.arange(n + 1, dtype=np.int64))
        best = max(best, int(dev.max()))
    return Fraction(best, n)


def oracle_d_star_cubic(sigma: Permutation) -> Fraction:
    """The literal triple loop; only for tiny n (validates the oracle)."""
    n = sigma.n
    best = 0
    for a in range(1, n + 1):
        prefix = sigma.image[:a]
        for b in range(1, n + 1):
            count = sum(1 for v in prefix if v < b)
            best = max(best, abs(n * count - a * b))
    return Fraction(best, n)


def oracle_d_cyclic(sigma: Permutation) -> Fraction:
    """Max over ALL cyclic interval pairs, wrap-around included, via
    sliding-window counts of the image indicator, recomputed per I."""
    n = sigma.n
    img = np.asarray(sigma.image)
    doubled = np.arange(2 * n) % n
    best = 0
    for start in range(n):
        for length in range(1, n + 1):
            if length == n and start:
                continue
            members = img[doubled[start:start + length]]
            ind = np.zeros(2 * n, dtype=np.int64)
            ind[members] = 1
            ind[n:] = ind[:n]
            pref = np.concatenate(([0], np.cumsum(ind)))
            for jlen in range(1, n + 1):
                counts = pref[jlen:jlen + n] - pref[:n]
                dev = np.abs(n * counts - length * jlen)
                best = max(best, int(dev.max()))
    return Fraction(best, n)


def oracle_pattern(values, tau) -> int:
    m = len(tau)
    hits = 0
    for combo in itertools.combinations(values, m):
        if all((combo[i] < combo[j]) == (tau[i] < tau[j])
               for i in range(m) for j in range(i + 1, m)):
            hits += 1
    return hits


def oracle_real_star(points):
    """Grid + jump evaluation of sup |count - m*x| for both conventions."""
    pts = sorted(points)
    m = len(pts)
    if not m:
        return 0.0, 0.0
    closed = 0.0
    half = 0.0
    probes = set(pts)
    probes.update(i / 512 for i in range(513))
    for x in probes:
        le = sum(1 for v in pts if v <= x)
        lt = sum(1 for v in pts if v < x)
        closed = max(closed, abs(le - m * x), abs(lt - m * x))
        half = max(half, abs(lt - m * x), abs(le - m * x))
    return closed, half


def real_star_disc(points):
    """Star discrepancy sup_x |#{p <= x} - m*x| of a finite multiset of
    m points in [0, 1): exact if the points are Fractions, float if they
    are floats, 0 if there are none.  The sup over [0, x) is the same
    number: both are the max over the sorted points v_i of |i - m*v_i|
    and |i + 1 - m*v_i| (within a run of equal points |c - m*v| is
    largest at the run's ends, so every index may serve)."""
    pts = sorted(points)
    m = len(pts)
    if pts and (pts[0] < 0 or pts[-1] >= 1):
        raise QrpermError("points must lie in [0, 1)")
    return max((max(abs(i - m * v), abs(i + 1 - m * v))
                for i, v in enumerate(pts)), default=0)


def b_of_k(alpha, k: int) -> int:
    """#{1 <= q <= k : {q*alpha} <= {k*alpha}}, exact."""
    if k < 1:
        raise QrpermError("k must be >= 1")
    return sum(1 for q in range(1, k + 1) if frac_compare(alpha, q, k) <= 0)


def slow_sum(residues, n) -> complex:
    return sum(cmath.exp(2j * cmath.pi * (r % n) / n) for r in residues)


@pytest.fixture(scope="session")
def small_corpus():
    return corpus_perms(31, include_random=False)


@pytest.fixture(scope="session")
def mid_corpus():
    return corpus_perms(64, include_random=False)


@pytest.fixture(scope="session")
def random_pack():
    return [random_perm(40, seed) for seed in range(20)]


def fraction_eq(x: Fraction, y: Fraction) -> bool:
    return Fraction(x) == Fraction(y)


def assert_close(a: float, b: float, tol: float = 1e-9):
    assert abs(a - b) <= tol, f"{a} vs {b} (tol {tol})"


def ncr2(n: int) -> int:
    return n * (n - 1) // 2


def e_direct(x: float) -> complex:
    return cmath.exp(2j * math.pi * x)
