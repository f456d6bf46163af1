"""End-to-end acceptance gate.

Fifteen criteria, one test each, in severity order: exact oracle
equalities first, then analytic bounds, then the pinned regression
numbers from qrperm.calibration.  Every test prints a single checklist
line, so `pytest tests/test_acceptance.py -v` reads as a gate report.
The corpus fixtures are module-scoped because building 900-odd
permutations is not free and three tests share them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qrperm import (
    Interval,
    all_intervals,
    b_sequence,
    bit_reversal,
    build_report,
    completion_check,
    d_exact,
    d_star,
    erdos_turan_bound,
    find_primitive_root,
    floor_multiple,
    frac_float,
    gap_check,
    gauss_power_sum,
    golden,
    identity_perm,
    interval_fourier,
    invert,
    kloosterman,
    lambda_inv,
    max_prefix_star,
    pattern_count,
    psi,
    random_perm,
    restricted_pattern_count,
    restriction,
    rho_exp,
    sign_of_surd,
    sos_perm,
    sqrt_irr,
)
from qrperm.calibration import (
    BITREV_RATIO_BOUND,
    ERDOS_TURAN_C,
    GOLDEN_RATIO_BOUND,
    GOLDEN_TREND_SLOPE_MAX,
    PSI_MEAN_LN2_HI,
    PSI_MEAN_LN2_LO,
    PSI_SCAN_SHA256,
    RANDOM_BAND_HI_COEFF,
    RANDOM_BAND_LO_COEFF,
)
from qrperm.corpus import corpus_perms, primes_in
from qrperm.scan import (
    csv_rows,
    emit,
    scan_gauss,
    scan_obryant,
    scan_psi,
    scan_sos,
    scan_zaremba,
)

from conftest import ncr2, oracle_d_cyclic, oracle_d_star_cubic, oracle_pattern


def _gate(tag: str, ok: bool, detail: str):
    print(f"{'✅' if ok else '❌'} {tag} {detail}")
    assert ok, f"{tag} {detail}"


def _ols_slope(xs, ys) -> float:
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


@pytest.fixture(scope="module")
def corpus127():
    # families at every prime to 127 plus 50 seeded randoms at n = 100
    return corpus_perms(127)


@pytest.fixture(scope="module")
def corpus256():
    return corpus_perms(256)


@pytest.fixture(scope="module")
def corpus512():
    return corpus_perms(512)


# ------------------------------------------------- exact oracle equalities

def test_c01_star_discrepancy_matches_cubic_force():
    t0 = time.perf_counter()
    perms = corpus_perms(64, include_random=False)
    perms += [random_perm(45 + s, 2000 + s) for s in range(20)]
    bad = sum(1 for s in perms if d_star(s) != oracle_d_star_cubic(s))
    elapsed = time.perf_counter() - t0
    _gate("C01", bad == 0 and elapsed < 10.0,
          f"D* sweep == cubic brute force on {len(perms)} permutations, "
          f"exact ({elapsed:.1f}s)")


def test_c02_pair_discrepancy_matches_cyclic_force():
    t0 = time.perf_counter()
    perms = corpus_perms(32, include_random=False)
    perms += [random_perm(32, 3000 + s) for s in range(5)]
    bad = sum(1 for s in perms if d_exact(s) != oracle_d_cyclic(s))
    elapsed = time.perf_counter() - t0
    _gate("C02", bad == 0 and elapsed < 30.0,
          f"D == brute force over all cyclic interval pairs on "
          f"{len(perms)} permutations, exact ({elapsed:.1f}s)")


def test_c03_sandwich_and_inverse_symmetry(corpus127):
    bad = 0
    for s in corpus127:
        ds, de = d_star(s), d_exact(s)
        if not ds <= de <= 4 * ds:
            bad += 1
        if d_exact(invert(s)) != de:
            bad += 1
    _gate("C03", bad == 0,
          f"D* <= D <= 4 D* and D(sigma) = D(sigma^-1) exactly on "
          f"{len(corpus127)} permutations")


# ----------------------------------------------------------- sum bounds

def test_c04_kloosterman_weil_bound():
    t0 = time.perf_counter()
    bad = 0
    worst = 0.0
    # literal grid: every (a, b) pair up to p = 61
    for p in primes_in(2, 61):
        fence = 2 * math.sqrt(p) + 1e-9
        for a in range(p):
            for b in range(1, p):
                m = kloosterman(p, a, b).magnitude
                worst = max(worst, m / (2 * math.sqrt(p)))
                if m > fence:
                    bad += 1
    # larger primes: K(a, b) = K(ab, 1) via x -> b*x, so the p distinct
    # values K(c, 1) cover the whole grid; the substitution itself is
    # spot-checked against direct evaluation
    rng = random.Random(4)
    for p in primes_in(62, 199):
        fence = 2 * math.sqrt(p) + 1e-9
        tab = np.array([kloosterman(p, c, 1).magnitude for c in range(p)])
        worst = max(worst, float(tab.max()) / (2 * math.sqrt(p)))
        prod = (np.arange(p)[:, None] * np.arange(1, p)[None, :]) % p
        bad += int((tab[prod] > fence).sum())
        for _ in range(8):
            a, b = rng.randrange(p), rng.randrange(1, p)
            if abs(kloosterman(p, a, b).magnitude - tab[a * b % p]) > 1e-9:
                bad += 1
    spot = kloosterman(5, 1, 1)
    if abs(spot.magnitude - (3 - math.sqrt(5)) / 2) > 1e-9:
        bad += 1
    elapsed = time.perf_counter() - t0
    _gate("C04", bad == 0 and elapsed < 60.0,
          f"|K(a, b; p)| <= 2 sqrt(p) for all a, all units b, all p <= "
          f"199; worst ratio {worst:.4f} ({elapsed:.1f}s)")


def test_c05_interval_fourier_bound():
    bad = 0
    checked = 0
    # every (length, k) magnitude for every n, via the prefix sums of
    # the character table; translating an interval multiplies its
    # coefficient by a unit, so start positions share the magnitude
    for n in range(2, 65):
        w = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        pref = np.abs(np.cumsum(w, axis=0))       # row L-1: lengths 1..n
        kmax = n // 2
        fence = n / (2.0 * np.arange(1, kmax + 1)) + 1e-9
        bad += int((pref[:, 1:kmax + 1] > fence[None, :]).sum())
        checked += n * kmax
    # dense library leg: every interval, both signs of k, n <= 32
    for n in range(2, 33):
        for iv in all_intervals(n):
            for k in range(1, n // 2 + 1):
                m_pos = interval_fourier(iv, k).magnitude
                m_neg = interval_fourier(iv, -k).magnitude
                if m_pos > n / (2 * k) + 1e-9 or abs(m_pos - m_neg) > 1e-9:
                    bad += 1
                checked += 2
    # sampled library leg for the larger moduli
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randrange(33, 65)
        iv = Interval(n, rng.randrange(n), rng.randrange(1, n + 1))
        k = rng.choice((-1, 1)) * rng.randrange(1, n // 2 + 1)
        mag = interval_fourier(iv, k).magnitude
        direct = abs(sum(np.exp(-2j * np.pi * k * x / n)
                         for x in iv.members()))
        if mag > n / (2 * abs(k)) + 1e-9 or abs(mag - direct) > 1e-9:
            bad += 1
        checked += 1
    _gate("C05", bad == 0,
          f"|J^(k)| <= n/(2|k|) on all intervals and 1 <= |k| <= n/2, "
          f"n <= 64 ({checked} magnitudes)")


def test_c06_complete_power_sums_vanish():
    bad = 0
    lib_calls = 0
    rng = random.Random(6)
    for p in primes_in(5, 199):
        ks = [k for k in range(2, p - 1) if math.gcd(k, p - 1) == 1]
        # gcd(k, p-1) = 1 makes s -> s^k a bijection of Z_p: exact check
        for k in ks:
            if sorted(pow(s, k, p) for s in range(1, p + 1)) \
                    != list(range(p)):
                bad += 1
        # so S(a, k, p) is a reordering of sum_y e(a y / p); that sum
        # is below 1e-9 for every unit a, in float as in exact arithmetic
        mags = np.abs(np.exp(2j * np.pi * np.outer(np.arange(1, p),
                                                   np.arange(p)) / p)
                      .sum(axis=1))
        bad += int((mags > 1e-9).sum())
        # library evaluation: dense to p = 31, sampled beyond
        if p <= 31:
            triples = [(a, k) for a in range(1, p) for k in ks]
        else:
            triples = [(rng.randrange(1, p), rng.choice(ks))
                       for _ in range(4)]
        for a, k in triples:
            if gauss_power_sum(p, a, k, p).magnitude > 1e-9:
                bad += 1
            lib_calls += 1
    _gate("C06", bad == 0,
          f"complete power sums vanish for every unit a and admissible "
          f"k, p <= 199 ({lib_calls} library sums)")


def test_c07_erdos_turan_domination(corpus256):
    worst = 0.0
    lib_gap = 0.0
    for s in corpus256:
        n = s.n
        img = np.asarray(s.image, dtype=np.int64)
        ks = np.arange(1, n + 1)
        unit = np.exp(2j * np.pi * ((ks[:, None] * img[None, :]) % n) / n)
        mags = np.abs(np.cumsum(unit, axis=1))       # |A_m(k)|
        tail = np.cumsum(mags / ks[:, None], axis=0)
        ms = np.arange(1, n + 1)
        denom = ms[None, :] / ks[:, None] + tail     # m/K + sum |A|/k
        cnt = np.zeros(n, dtype=np.int64)
        discs = np.empty(n)
        for m in range(1, n + 1):
            cnt += img >= img[m - 1]
            at = np.abs(n * cnt[:m] - m * img[:m])
            before = np.abs(n * (cnt[:m] - 1) - m * img[:m])
            discs[m - 1] = max(int(at.max()), int(before.max())) / n
        worst = max(worst, float(
            (discs[None, :] / (ERDOS_TURAN_C * denom)).max()))
        # the closed forms above match the library bound
        pts = img / n
        for m, k_max in ((1, 1), (n // 2, 3), (n, max(n // 3, 1))):
            lib = erdos_turan_bound(pts[:m], k_max)
            ours = ERDOS_TURAN_C * float(denom[k_max - 1, m - 1])
            lib_gap = max(lib_gap, abs(lib - ours) / lib)
    _gate("C07", worst <= 1.0 and lib_gap < 1e-9,
          f"prefix discrepancies within the C = {ERDOS_TURAN_C:g} bound "
          f"for every prefix and K on {len(corpus256)} permutations; "
          f"worst disc/bound {worst:.3f}")


def test_c08_completion_inequality(corpus256):
    bad = 0
    runs = 0
    for s in corpus256:
        for k in range(1, 6):
            if k % s.n == 0:
                continue
            rep = completion_check(s, k)
            runs += 1
            if not rep.ok or rep.ratio > 1 + math.log(s.n) + 1e-9:
                bad += 1
    _gate("C08", bad == 0,
          f"window/twisted ratio <= 1 + ln n on {runs} "
          f"(permutation, k) pairs")


# --------------------------------------------------- pinned regressions

def test_c09_psi_scan_regression(tmp_path):
    records = scan_psi(101, 499, workers=4)
    body = "\n".join(csv_rows(records)) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    means = [r for r in records if r.statistic == "mean_dstar"]
    in_band = all(PSI_MEAN_LN2_LO <= r.normalized <= PSI_MEAN_LN2_HI
                  for r in means)
    res = emit(records, str(tmp_path), "psi",
               {"pmin": 101, "pmax": 499, "workers": 4})
    with open(res.summary_path) as fh:
        emitted = json.load(fh)["csv_body_sha256"]
    _gate("C09", digest == PSI_SCAN_SHA256 and emitted == PSI_SCAN_SHA256
          and in_band and len(means) == len(primes_in(101, 499)),
          f"psi scan over {len(means)} primes: mean D*/ln^2 p within "
          f"[{PSI_MEAN_LN2_LO}, {PSI_MEAN_LN2_HI}], body digest pinned")


def _discrelation_certificate(alpha, n: int) -> bool:
    """Exact witness that D*(ranking) <= 2 * max prefix star.

    A float scan picks the best candidate (prefix s, point index i,
    at/before); the claimed inequality at that single candidate is then
    decided in integer surd arithmetic, which certifies the bound
    because any candidate value is a lower bound for the prefix star.
    """
    sigma = sos_perm(n, alpha)
    frac_ds = d_star(sigma)
    num, den = frac_ds.numerator, frac_ds.denominator
    g = np.asarray(sigma.image, dtype=np.int64)
    floors = [floor_multiple(alpha, i) for i in range(1, n + 1)]
    keys = np.array([frac_float(alpha, i) for i in range(1, n + 1)])
    cnt = np.zeros(n, dtype=np.int64)
    best = (-1.0, 1, 1, 0)
    for s in range(1, n + 1):
        cnt += g >= g[s - 1]
        lin = s * keys[:s]
        at = np.abs(cnt[:s] - lin)
        before = np.abs(cnt[:s] - 1 - lin)
        i_at, i_bef = int(at.argmax()), int(before.argmax())
        if at[i_at] > best[0]:
            best = (float(at[i_at]), s, i_at + 1, 0)
        if before[i_bef] > best[0]:
            best = (float(before[i_bef]), s, i_bef + 1, 1)
    _, s, i, delta = best
    cnt_le = int(np.sum(g[:s] <= g[i - 1]))
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    m = floors[i - 1]
    # cnt_le - delta - s*{i alpha} = (A + B sqrt(d)) / c
    big_a = (cnt_le - delta) * c - s * (i * a - m * c)
    big_b = -s * i * b
    # 2 |A + B sqrt(d)| / c >= num / den, decided by surd signs
    x, y, t = 2 * den * big_a, 2 * den * big_b, num * c
    return (sign_of_surd(x - t, y, d) >= 0
            or sign_of_surd(x + t, y, d) <= 0)


def test_c10_golden_ratio_trend_and_discrelation():
    ns = [2 ** e for e in range(6, 14)]
    alphas = (golden(), sqrt_irr(2), sqrt_irr(3))
    ratios = []
    float_bad = 0
    for alpha in alphas:
        for n in ns:
            beta = sos_perm(n, alpha)
            ds = float(d_star(beta))
            if ds > 2 * max_prefix_star(alpha, beta).value + 1e-9:
                float_bad += 1
            if alpha is alphas[0]:
                ratios.append(ds / math.log2(n))
    slope = _ols_slope([math.log2(n) for n in ns], ratios)
    exact_bad = sum(1 for alpha in alphas for n in (64, 128, 256)
                    if not _discrelation_certificate(alpha, n))
    ok = (max(ratios) <= GOLDEN_RATIO_BOUND
          and slope <= GOLDEN_TREND_SLOPE_MAX
          and float_bad == 0 and exact_bad == 0)
    _gate("C10", ok,
          f"golden D*/log2 n <= {GOLDEN_RATIO_BOUND} with trend slope "
          f"{slope:+.4f}; D* <= 2 * prefix star for 3 irrationals "
          f"(float to n = 8192, surd-exact to n = 256)")


def test_c11_gap_theorem(corpus512):
    bad = 0
    for s in corpus512:
        chk = gap_check(s, 4 * d_star(s))
        vals = sorted(set(b_sequence(s)))
        fenced = [0] + vals + [s.n + 1]
        gap = max(hi - lo for lo, hi in zip(fenced, fenced[1:]))
        if not chk.ok or gap != chk.max_gap or gap > chk.required_length:
            bad += 1
    spots = (psi(127, 2), psi(113, 56), lambda_inv(101, 1),
             rho_exp(101, 1, find_primitive_root(101)),
             sos_perm(100, golden()), bit_reversal(64),
             random_perm(100, 77))
    spot_bad = sum(1 for s in spots if not gap_check(s, d_exact(s)).ok)
    _gate("C11", bad == 0 and spot_bad == 0,
          f"every window of the guaranteed length meets the rank set on "
          f"{len(corpus512)} permutations (exact arithmetic, "
          f"{len(spots)} spots with exact D)")


def test_c12_pattern_identities(corpus512):
    id_bad = sum(1 for n in (2, 10, 64, 512, 1000)
                 if pattern_count(identity_perm(n), (0, 1)) != ncr2(n))
    bad = sum(1 for s in corpus512
              if pattern_count(s, (0, 1)) + pattern_count(s, (1, 0))
              != ncr2(s.n))
    sigma = psi(101, 3)
    pairs = ((Interval(101, 0, 50), Interval(101, 25, 60)),
             (Interval(101, 80, 40), Interval(101, 90, 30)))
    restricted_bad = 0
    for i_int, j_int in pairs:
        vals = [sigma.image[x] for x in restriction(sigma, i_int, j_int)]
        for tau in ((0, 1), (1, 0), (0, 1, 2), (2, 1, 0), (1, 0, 2)):
            got = restricted_pattern_count(sigma, tau, i_int, j_int)
            if got.count != oracle_pattern(vals, tau) \
                    or got.size != len(vals):
                restricted_bad += 1
    _gate("C12", id_bad == 0 and bad == 0 and restricted_bad == 0,
          f"X01 + X10 = C(n, 2) on {len(corpus512)} permutations; "
          f"restricted counts match brute force at n = 101")


def test_c13_random_median_band():
    n = 1024
    vals = sorted(float(d_star(random_perm(n, seed))) for seed in range(100))
    med = (vals[49] + vals[50]) / 2
    lo = RANDOM_BAND_LO_COEFF * math.sqrt(n)
    hi = RANDOM_BAND_HI_COEFF * math.sqrt(n * math.log(n))
    _gate("C13", lo <= med <= hi,
          f"median D* over 100 seeds at n = 1024 is {med:.2f}, inside "
          f"[{lo:.2f}, {hi:.2f}]")


def test_c14_bit_reversal_ratio():
    worst = 0.0
    for e in range(4, 15):
        rep = build_report(bit_reversal(2 ** e))
        worst = max(worst, rep.ratio_log2)
    small = corpus_perms(64, include_random=False)
    floor_val, floor_perm = min(
        ((float(d_exact(s)) / math.log(s.n), s) for s in small),
        key=lambda pair: pair[0])
    print(f"   (report: min D/ln n over the n <= 64 corpus is "
          f"{floor_val:.4f}, {floor_perm.family} n = {floor_perm.n})")
    _gate("C14", worst <= BITREV_RATIO_BOUND,
          f"bit-reversal D_upper/log2 n <= {BITREV_RATIO_BOUND} up to "
          f"n = 16384 (worst {worst:.4f})")


def test_c15_scan_worker_determinism():
    def body(records):
        return "\n".join(csv_rows(records)) + "\n"

    mismatches = []
    pooled = (("psi", lambda w: scan_psi(101, 131, workers=w)),
              ("gauss", lambda w: scan_gauss(5, 61, a_values=(1, 2),
                                             workers=w)),
              ("sos", lambda w: scan_sos(("golden", "sqrt:2", "sqrt:3"),
                                         (32, 64, 128), workers=w)))
    for label, run in pooled:
        bodies = [body(run(w)) for w in (1, 4, 8)]
        if not bodies[0] or bodies.count(bodies[0]) != 3:
            mismatches.append(label)
    serial = (("obryant", lambda: scan_obryant("golden", 150)),
              ("zaremba", lambda: scan_zaremba(2, 40, 5)))
    for label, run in serial:
        if body(run()) != body(run()):
            mismatches.append(label)
    _gate("C15", not mismatches,
          f"scan bodies byte-identical at 1/4/8 workers "
          f"(psi, gauss, sos) and across reruns (obryant, zaremba)")
