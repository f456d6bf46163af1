#!/usr/bin/env python3
"""Recompute the pinned calibration constants.

Run from the repository root:

    python3 scripts/calibrate.py

Prints every measured extreme next to the constant pinned in
qrperm/calibration.py, so a drift (new corpus member, changed sweep)
is visible as a diff of this script's output.  The pinned values are
deliberately rounded outward: they are regression fences, not
estimates of the true suprema.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

import numpy as np

from qrperm import (
    bit_reversal,
    build_report,
    d_star,
    find_primitive_root,
    golden,
    max_incomplete_sum,
    max_prefix_star,
    prefix_star_nums,
    random_perm,
    rho_exp,
    sos_perm,
    w_sum,
)
from qrperm import calibration
from qrperm.corpus import corpus_perms, primes_in
from qrperm.expsums import _walks
from qrperm.scan import csv_body, scan_psi


def polya_vinogradov_constant(pmax: int) -> tuple[float, int]:
    """max over primes p <= pmax of the largest incomplete sum of the
    exponential family, divided by sqrt(p) * ln(p)."""
    worst, worst_p = 0.0, 0
    for p in primes_in(5, pmax):
        sigma = rho_exp(p, 1, find_primitive_root(p))
        mag, _, _ = max_incomplete_sum(sigma)
        ratio = mag / (math.sqrt(p) * math.log(p))
        if ratio > worst:
            worst, worst_p = ratio, p
    return worst, worst_p


def w_sum_constant(pmax: int) -> tuple[float, int]:
    """max of W_{a,c}(p - 1) / ((p-1)^(5/3) * p^(1/4)) over p <= pmax,
    a in {1, 2}, c = 1, theta a primitive root."""
    worst, worst_p = 0.0, 0
    for p in primes_in(5, pmax):
        theta = find_primitive_root(p)
        t = p - 1
        denom = t ** (5 / 3) * p ** 0.25
        for a in (1, 2):
            ratio = w_sum(p, a, 1, theta, t).re / denom
            if ratio > worst:
                worst, worst_p = ratio, p
    return worst, worst_p


def erdos_turan_needed_c(max_n: int) -> tuple[float, str]:
    """max over corpus perms, prefixes m, and cutoffs K of
    disc(prefix) / (m/K + sum_{k<=K} |A(k)|/k)."""
    worst, worst_at = 0.0, ""
    for sigma in corpus_perms(max_n):
        n = sigma.n
        img = np.asarray(sigma.image, dtype=np.int64)
        ks = np.arange(1, n + 1, dtype=np.int64)
        mags = np.abs(_walks(img, n, ks))             # (k, m), m = 1..n
        tail = np.cumsum(mags / ks[:, None], axis=0)  # (K, m)
        discs = prefix_star_nums(img, img, n) / n
        ms = np.arange(1, n + 1, dtype=np.float64)
        denom = ms[None, :] / ks[:, None].astype(np.float64) + tail
        needed = (discs[None, :] / denom).max()
        if needed > worst:
            worst = float(needed)
            worst_at = f"{sigma.family} n={n} params={dict(sigma.params)}"
    return worst, worst_at


def psi_scan_pins(workers: int) -> tuple[float, float, str]:
    records = scan_psi(101, 499, workers=workers)
    norms = [r.normalized for r in records if r.statistic == "mean_dstar"]
    digest = hashlib.sha256(csv_body(records).encode()).hexdigest()
    return min(norms), max(norms), digest


def golden_ratio_table() -> list[tuple[int, float, float]]:
    rows = []
    for e in range(6, 14):
        n = 2 ** e
        beta = sos_perm(n, golden())
        ratio = float(d_star(beta)) / math.log2(n)
        prefix = max_prefix_star(golden(), beta).value
        rows.append((n, ratio, prefix))
    return rows


def bitrev_ratio_table() -> list[tuple[int, float]]:
    return [(2 ** e, build_report(bit_reversal(2 ** e)).ratio_log2)
            for e in range(4, 15)]


def random_band_check() -> tuple[float, float, float]:
    n = 1024
    vals = sorted(float(d_star(random_perm(n, seed))) for seed in range(100))
    med = (vals[49] + vals[50]) / 2
    return (calibration.RANDOM_BAND_LO_COEFF * math.sqrt(n), med,
            calibration.RANDOM_BAND_HI_COEFF * math.sqrt(n * math.log(n)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=8)
    args = parser.parse_args()

    t0 = time.perf_counter()
    pv, pv_p = polya_vinogradov_constant(499)
    print(f"polya-vinogradov  max ratio {pv:.6f}  (worst prime {pv_p})"
          f"  [pin {calibration.PV_CONSTANT}]")

    wc, wc_p = w_sum_constant(199)
    print(f"w-sum             max ratio {wc:.6f}  (worst prime {wc_p})"
          f"  [pin {calibration.W_SUM_CONSTANT}]")

    et, et_at = erdos_turan_needed_c(256)
    print(f"erdos-turan       needed C {et:.6f}  ({et_at})"
          f"  [pin {calibration.ERDOS_TURAN_C}]")

    lo, hi, digest = psi_scan_pins(args.workers)
    print(f"psi scan 101..499 mean/ln^2 p in [{lo:.6f}, {hi:.6f}]"
          f"  [pin [{calibration.PSI_MEAN_LN2_LO},"
          f" {calibration.PSI_MEAN_LN2_HI}]]")
    print(f"psi scan digest   {digest}")
    print(f"pinned digest     {calibration.PSI_SCAN_SHA256}")

    print(f"golden ranking    n, D*/log2 n, max prefix star"
          f"  [ratio pin {calibration.GOLDEN_RATIO_BOUND}]:")
    golden_rows = golden_ratio_table()
    for n, ratio, prefix in golden_rows:
        print(f"    {n:6d}  {ratio:.6f}  {prefix:.6f}")
    xs = [math.log2(n) for n, _, _ in golden_rows]
    ys = [ratio for _, ratio, _ in golden_rows]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    print(f"golden trend      slope {slope:.6f}"
          f"  [pin <= {calibration.GOLDEN_TREND_SLOPE_MAX}]")

    print(f"bit reversal      n, D_upper/log2 n"
          f"  [ratio pin {calibration.BITREV_RATIO_BOUND}]:")
    for n, ratio in bitrev_ratio_table():
        print(f"    {n:6d}  {ratio:.6f}")

    lo_band, med, hi_band = random_band_check()
    print(f"random band       {lo_band:.3f} <= median {med:.3f} "
          f"<= {hi_band:.3f}  [pin {calibration.RANDOM_BAND_LO_COEFF} sqrt n,"
          f" {calibration.RANDOM_BAND_HI_COEFF} sqrt(n ln n)]")

    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
