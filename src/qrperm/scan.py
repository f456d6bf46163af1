"""Parameter scans and their deterministic CSV/JSON emission.

Every scan returns a flat list of ScanRecord rows.  A record's value
is a Fraction when the statistic is exact and a float when it is
inherently float-valued; the CSV writes a Fraction as its numerator
and denominator and a float as its repr.  Emission sorts the rows by a
fixed key and writes the timing column as 0, so a scan re-run with a
different worker count produces a byte-identical CSV body (the
measured wall time goes into the JSON summary instead, where nobody
diffs it).

Workers: the point lists are embarrassingly parallel, so scans fan out
over forked workers when workers > 1 and run inline otherwise.  Points
are plain tuples of ints/strings, listed largest first.  Each worker
claims the next point from one shared counter and sends its records in
one message when no point is left; a worker that dies ends the scan
with a QrpermError (the CLI's "error: ...").  scan_psi, scan_gauss and
scan_sos share one driver, _scan: one _pool_map call over all points,
then the records in emission order.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import (ZarembaResult, _convergents_upto, _parse_bound,
                    cf_of_quadratic, cf_of_rational, zaremba_search)
from .discrepancy import _d_star_many, d_star
from .errors import QrpermError
from .expsums import _walks
from .families import _params, sos_perm
from .modular import is_prime
from .quadirr import QuadraticIrrational, parse_alpha
from .ranksets import _gap_of, a_set, discrelation_holds, max_prefix_star

CSV_COLUMNS = ("family", "n_or_p", "params", "statistic",
               "value_num", "value_den_or_float", "normalized",
               "wall_time_ms")


@dataclass(frozen=True)
class ScanRecord:
    family: str
    n_or_p: int
    params: tuple[tuple[str, str], ...]
    statistic: str
    value: Fraction | float     # a Fraction exactly when the value is exact
    normalized: float | None


def rec_q(family: str, n: int, params: dict, stat: str, value,
          normalized: float | None = None) -> ScanRecord:
    return ScanRecord(family, n, _params(**params), stat, Fraction(value),
                      normalized)


def rec_f(family: str, n: int, params: dict, stat: str, value: float,
          normalized: float | None = None) -> ScanRecord:
    return ScanRecord(family, n, _params(**params), stat, float(value),
                      normalized)


def _params_str(params: tuple[tuple[str, str], ...]) -> str:
    return ";".join(f"{k}={v}" for k, v in params)


def _sort_key(r: ScanRecord):
    return (r.n_or_p, r.family, _params_str(r.params), r.statistic)


def _pool_map(fn, points, workers: int):
    """[fn(pt) for pt in points], inline at one worker or one point, else
    over min(workers, len(points)) forked workers.  Each worker claims
    the next index from one shared counter, so points start in list
    order (the scans list theirs largest first), and sends one message
    through its own pipe: (True, [(index, result), ...]) or (False, exc).
    The parent raises a worker's exception, and QrpermError for a worker
    that died before sending; no child outlives the call."""
    if workers <= 1 or len(points) <= 1:
        return [fn(pt) for pt in points]
    # imported here, not at the top: it loads socket and subprocess,
    # which a scan at one worker and every other command never need
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 0)
    procs, readers = [], []
    try:
        for _ in range(min(workers, len(points))):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(target=_pool_worker, daemon=True,
                               args=(fn, points, counter, writer))
            proc.start()
            procs.append(proc)
            writer.close()    # the child's copy is the only writer
        results = [None] * len(points)
        pending = list(readers)
        while pending:
            for reader in wait(pending):
                pending.remove(reader)
                try:
                    ok, payload = reader.recv()
                except EOFError:
                    dead = procs[readers.index(reader)]
                    dead.join()
                    raise QrpermError(
                        f"a scan worker died (exit code {dead.exitcode}) "
                        "before sending its results") from None
                if not ok:
                    raise payload
                for i, result in payload:
                    results[i] = result
        return results
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()


def _pool_worker(fn, points, counter, writer) -> None:
    """One _pool_map worker: fn over the points it claims, one message."""
    done = []
    try:
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(points):
                break
            done.append((i, fn(points[i])))
        message = (True, done)
    except Exception as exc:
        message = (False, exc)
    writer.send(message)
    writer.close()


def _scan(fn, points, workers: int) -> list[ScanRecord]:
    """The records fn gives for every point, in emission order."""
    chunks = _pool_map(fn, points, workers)
    return sorted(itertools.chain.from_iterable(chunks), key=_sort_key)


# ---------------------------------------------------------------- psi scan

def _psi_devs(p: int) -> list[int]:
    """p * D*(psi_k) at index k - 1, for k = 1..p-1.  Only the pair
    representatives k <= k^-1 go to the kernel; each value serves both
    members of its pair."""
    devs = [0] * (p - 1)
    inverse = {k: pow(k, -1, p) for k in range(1, p)}
    reps = [k for k, inv in inverse.items() if inv >= k]
    images = np.array(reps)[:, None] * np.arange(p) % p   # psi_k
    for k, dev in zip(reps, _d_star_many(images, p).tolist()):
        devs[k - 1] = devs[inverse[k] - 1] = dev
    return devs


def _psi_prime(p: int) -> list[ScanRecord]:
    devs = _psi_devs(p)
    mean = Fraction(sum(devs), p * (p - 1))
    best = Fraction(min(devs), p)
    argmin = 1 + devs.index(min(devs))   # smallest k on ties
    lnp = math.log(p)
    quots = cf_of_rational(argmin, p).quotients
    return [
        rec_q("psi-scan", p, {}, "mean_dstar", mean,
              float(mean) / lnp**2),
        rec_q("psi-scan", p, {}, "mean_dstar_log2sq", mean,
              float(mean) / math.log2(p)**2),
        rec_q("psi-scan", p, {"k": argmin}, "min_dstar", best,
              float(best) / lnp),
        rec_q("psi-scan", p, {"k": argmin}, "min_dstar_log2", best,
              float(best) / math.log2(p)),
        rec_q("psi-scan", p, {"k": argmin}, "argmin_cf_max_quotient",
              max(quots)),
        rec_q("psi-scan", p, {"k": argmin}, "argmin_cf_quotient_sum",
              sum(quots)),
    ]


def scan_psi(pmin: int, pmax: int, workers: int = 1) -> list[ScanRecord]:
    """For every prime p in [pmin, pmax]: mean and min over k of
    D*(psi_k), with log-power normalizations in both bases, and the
    continued fraction shape of the minimising k/p.

    One D* value serves each pair {k, k^-1}.  psi_{k^-1} is the inverse
    of psi_k, and inverting sigma transposes F(a, b) = n*|sigma([0,a))
    cap [0,b)| - a*b, so max |F| is unchanged.  Negation k -> p - k is
    not a D* symmetry.  The images k*s mod p of all (p + 1)/2
    representatives k <= k^-1 are built at once, with no Permutation,
    and go to the D* kernel in one call per prime.  The kernel sweeps
    them in chunks that fit its block: one chunk up to p = 251 and at
    most four below 500, each sweeping a few long runs per permutation.
    Primes are listed largest first, so workers claim them in that
    order, since the cost per prime grows like p^3."""
    points = [p for p in range(pmax, max(pmin, 3) - 1, -1) if is_prime(p)]
    return _scan(_psi_prime, points, workers)


# -------------------------------------------------------------- gauss scan

def _gauss_prime(args: tuple[int, tuple[int, ...]]) -> list[ScanRecord]:
    p, a_values = args
    # distinct nonzero residues in first-occurrence order, so ties in
    # p_max_incomplete break as in a scan of a_values
    residues = list(dict.fromkeys(a % p for a in a_values if a % p))
    scale = float(p) ** 0.75
    out: list[ScanRecord] = []
    best = -1.0
    best_at = (0, 0)
    for k in range(2, p - 1):
        if math.gcd(k, p - 1) != 1:
            continue
        pw = np.array([pow(s, k, p) for s in range(1, p + 1)],
                      dtype=np.int64)
        walks = _walks(pw, p, residues)
        mags = np.abs(walks)
        for a, walk, row in zip(residues, walks, mags):
            m_star = 1 + int(np.argmax(row))
            peak = float(row[m_star - 1])
            out.append(rec_f("gauss-scan", p, {"k": k, "a": a},
                             "max_incomplete", peak, peak / scale))
            out.append(rec_f("gauss-scan", p, {"k": k, "a": a},
                             "argmax_m", float(m_star), m_star / p))
            # abs of the scalar: np.abs over the array rounds the last
            # bit of |P_p| ~ 1e-16 differently (p = 11, k = 3)
            out.append(rec_f("gauss-scan", p, {"k": k, "a": a},
                             "complete_mag", float(abs(walk[-1]))))
            if peak > best:
                best, best_at = peak, (k, a)
    if best >= 0.0:
        out.append(rec_f("gauss-scan", p,
                         {"k": best_at[0], "a": best_at[1]},
                         "p_max_incomplete", best, best / scale))
    return out


def scan_gauss(pmin: int, pmax: int, a_values=(1,),
               workers: int = 1) -> list[ScanRecord]:
    """Incomplete power sums S(a, k, M) = sum_{s<=M} e(a s^k / p) over
    every admissible exponent k (gcd(k, p-1) = 1, 1 < k < p-1), scanned
    over all cut points M, normalized by p^{3/4}; one global-max row
    per prime."""
    a_values = tuple(a_values)
    points = [(p, a_values) for p in range(pmax, max(pmin, 5) - 1, -1)
              if is_prime(p)]    # largest first, as workers claim them
    return _scan(_gauss_prime, points, workers)


# ---------------------------------------------------------------- sos scan

def _scan_sos_perm(n: int, alpha):
    """sos_perm(n, alpha) as every scan ranks it: the honest ties of a
    rational alpha, from n = its denominator on, go to the smaller s."""
    return sos_perm(n, alpha, tie_break=True)


def _cf_profile(alpha, n: int) -> tuple[int, int, int]:
    """(m, sum, max) of the partial quotients a_1..a_m where m is the
    last index whose convergent denominator is still <= n."""
    if isinstance(alpha, QuadraticIrrational):
        cf = cf_of_quadratic(alpha)
    else:
        alpha = Fraction(alpha)
        cf = cf_of_rational(alpha.numerator, alpha.denominator)
    quots = [a for a, _, _ in _convergents_upto(cf, n)]
    return (len(quots), sum(quots), max(quots, default=0))


def _sos_point(args: tuple[str, int]) -> list[ScanRecord]:
    label, n = args
    alpha = parse_alpha(label)
    sigma = _scan_sos_perm(n, alpha)
    ds = d_star(sigma)
    prefix = max_prefix_star(alpha, sigma)
    log2n = math.log2(n) if n > 1 else 1.0
    pm = dict(alpha=label)
    out = [
        rec_q("sos-scan", n, pm, "dstar", ds, float(ds) / log2n),
        rec_f("sos-scan", n, pm, "max_prefix_star", float(prefix.value),
              float(prefix.value) / log2n),
        rec_f("sos-scan", n, pm, "argmax_prefix", float(prefix.argmax_s),
              prefix.argmax_s / n),
        rec_q("sos-scan", n, pm, "discrelation_ok",
              int(discrelation_holds(alpha, sigma, ds, prefix))),
        rec_f("sos-scan", n, pm, "discrelation_ratio",
              float(ds) / (2.0 * float(prefix.value))),
    ]
    m, qsum, qmax = _cf_profile(alpha, n)
    if m:
        out.append(rec_q("sos-scan", n, pm, "cf_quotient_sum", qsum,
                         float(ds) / (qsum + m)))
        out.append(rec_q("sos-scan", n, pm, "cf_max_quotient", qmax))
    return out


def scan_sos(alpha_labels, n_list, workers: int = 1) -> list[ScanRecord]:
    """Sos permutations beta_alpha: exact D*, the prefix star
    discrepancy of ({s*alpha}), and the discrepancy-transfer check
    D*(beta_alpha) <= 2 * max_s d*."""
    for label in alpha_labels:
        parse_alpha(label)          # fail fast on typos, before any fork
    # largest first, as workers claim them
    points = [(label, n) for n in sorted(map(int, n_list), reverse=True)
              for label in alpha_labels]
    if not points:
        raise QrpermError("empty sos scan")
    if points[-1][1] < 1:           # sizes run down; before any work
        raise QrpermError(f"sos scan sizes must be >= 1, got {points[-1][1]}")
    for i, (label, n) in enumerate(points):
        if (label, n) in points[:i]:
            raise QrpermError(f"duplicate sos scan point alpha={label} n={n}")
    return _scan(_sos_point, points, workers)


# ------------------------------------------------- rank-set / target scan

def scan_obryant(alpha_label: str, limit: int,
                 targets=()) -> list[ScanRecord]:
    """Which values does {B_alpha(k) : k <= limit} hit?  Also the density
    |A| against sqrt(n / ln n) and the largest element-free interval
    against the sqrt(32 n D) guarantee.  Repeated targets count once."""
    if limit < 2:
        raise QrpermError(f"obryant needs limit >= 2, got {limit}")
    alpha = parse_alpha(alpha_label)
    sigma = _scan_sos_perm(limit, alpha)
    ranks = a_set(sigma)
    d_up = 4 * d_star(sigma)
    gc = _gap_of(ranks, d_up)
    pm = dict(alpha=alpha_label)
    out = [
        rec_q("obryant", limit, pm, "aset_size", ranks.count,
              ranks.count / math.sqrt(limit / math.log(limit))),
        rec_q("obryant", limit, pm, "max_gap", ranks.max_gap,
              ranks.max_gap / gc.required_length),
        rec_q("obryant", limit, pm, "gap_ok", int(gc.ok)),
    ]
    hit = set(ranks.values)
    for t in dict.fromkeys(map(int, targets)):    # first occurrences
        out.append(rec_q("obryant", limit, dict(alpha=alpha_label, target=t),
                         "target_hit", int(t in hit)))
    return sorted(out, key=_sort_key)


def zaremba_results(nmin: int, nmax: int, bound) -> Iterator[ZarembaResult]:
    """zaremba_search(n, bound) for n = max(nmin, 2)..nmax, one at a time
    in increasing n.  The bound is parsed here, also when the n range is
    empty, so a bad bound fails before any search."""
    bound = _parse_bound(bound)
    return (zaremba_search(n, bound) for n in range(max(nmin, 2), nmax + 1))


def scan_zaremba(nmin: int, nmax: int, bound) -> list[ScanRecord]:
    """Best bounded-quotient numerator for each denominator n."""
    out: list[ScanRecord] = []
    for z in zaremba_results(nmin, nmax, bound):
        pm = {"k": z.k}
        out += [rec_q("zaremba", z.n, pm, "max_quotient", z.max_quotient,
                      float(z.max_quotient / z.bound)),
                rec_q("zaremba", z.n, pm, "max_prefix_avg",
                      z.max_prefix_average),
                rec_q("zaremba", z.n, pm, "certified", int(z.certifies))]
    return sorted(out, key=_sort_key)


# ------------------------------------------------------------- emission

@dataclass(frozen=True)
class EmitResult:
    csv_path: str
    summary_path: str
    body_sha256: str
    rows: int
    plot_path: str | None    # None when no plot statistic was asked for
    plot_rows: int


def _csv_lines(rows) -> list[str]:
    """rows as CSV lines.  The csv module quotes a field that holds a
    comma or a double quote, doubling its double quotes (RFC 4180), as
    a quad: alpha's params field needs; it writes a float as its repr."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().split("\n")[:-1]


def _record_cells(r: ScanRecord) -> tuple:
    if isinstance(r.value, Fraction):
        value = (r.value.numerator, r.value.denominator)
    else:
        value = ("", float(r.value))
    norm = "" if r.normalized is None else float(r.normalized)
    return (r.family, r.n_or_p, _params_str(r.params), r.statistic,
            *value, norm, 0)


def csv_rows(records: list[ScanRecord]) -> list[str]:
    """The CSV header, then one line per record in sort order."""
    return _csv_lines([CSV_COLUMNS, *map(_record_cells,
                                         sorted(records, key=_sort_key))])


def csv_body(records: list[ScanRecord]) -> str:
    """The CSV body, each line of csv_rows ended by a newline: the text
    a summary's csv_body_sha256 covers."""
    return "\n".join(csv_rows(records)) + "\n"


def plot_rows(records: list[ScanRecord], statistic: str) -> list[str]:
    """Tidy (x, y, series) rows for one statistic, header first, ready
    for gnuplot or a notebook; y is the normalized column when present,
    else the value.  Raises QrpermError when no record carries the
    statistic."""
    rows = [(r.n_or_p,
             float(r.value if r.normalized is None else r.normalized),
             _params_str(r.params) or r.family)
            for r in sorted(records, key=_sort_key)
            if r.statistic == statistic]
    if not rows:
        raise QrpermError(f"no rows carry statistic {statistic!r}")
    return _csv_lines([("x", "y", "series"), *rows])


def emit(records: list[ScanRecord], out_dir: str, base: str,
         config_echo: dict, wall_time_ms: float | None = None,
         plot: str | None = None) -> EmitResult:
    """Write <base>.csv and <base>_summary.json under out_dir and, with
    plot, that statistic's plot_rows as <base>_plot_<plot>.csv.

    The summary's sha256 covers csv_body, not the leading config comment,
    which echoes knobs like the worker count that must not perturb the
    digest.  Its statistics block gives the count, min, max and mean of
    float(value) for each statistic; exact values are in the CSV only.
    The summary's plot entry names the plot file and the sha256 of its
    bytes, or is null when the run wrote none, so a plot file left by an
    earlier run is not vouched for.
    A plot statistic no record carries raises before any write.  Every
    file is staged in full in one temporary directory in out_dir, so a
    failed write leaves the old files as they were.  Then the old summary
    is unlinked, the CSV and plot file renamed into place, and the summary
    last: an interruption leaves no summary, so a summary on disk
    certifies the CSV and plot file beside it.
    """
    seen = set()
    for r in records:
        key = (r.family, r.n_or_p, r.params, r.statistic)
        if key in seen:
            raise QrpermError(f"duplicate scan record {key}")
        seen.add(key)
    plot_lines = plot_rows(records, plot) if plot else None
    plot_text = "\n".join(plot_lines) + "\n" if plot else None
    body = csv_body(records)
    digest = hashlib.sha256(body.encode()).hexdigest()
    echo = " ".join(f"{k}={config_echo[k]}" for k in sorted(config_echo))

    per_stat: dict[str, list[float]] = {}
    for r in records:
        per_stat.setdefault(r.statistic, []).append(float(r.value))
    from . import __version__
    summary = {
        "version": __version__,
        "config": {k: str(v) for k, v in sorted(config_echo.items())},
        "rows": len(records),
        "csv_body_sha256": digest,
        "wall_time_ms": None if wall_time_ms is None else round(
            wall_time_ms, 3),
        "statistics": {
            stat: {"count": len(vals), "min": min(vals),
                   "max": max(vals),
                   "mean": math.fsum(vals) / len(vals)}
            for stat, vals in sorted(per_stat.items())
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, base + ".csv")
    summary_path = os.path.join(out_dir, base + "_summary.json")
    plot_path = (os.path.join(out_dir, f"{base}_plot_{plot}.csv")
                 if plot else None)
    summary["plot"] = {
        "file": os.path.basename(plot_path),
        "sha256": hashlib.sha256(plot_text.encode()).hexdigest(),
    } if plot else None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        def staged(path: str) -> str:
            return os.path.join(tmp, os.path.basename(path))

        with open(staged(csv_path), "w") as fh:
            fh.write(f"# config: {echo}\n" + body)
        if plot:
            with open(staged(plot_path), "w") as fh:
                fh.write(plot_text)
        with open(staged(summary_path), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with contextlib.suppress(FileNotFoundError):
            os.unlink(summary_path)
        for path in (csv_path, plot_path, summary_path):   # summary last
            if path:
                os.replace(staged(path), path)
    return EmitResult(csv_path, summary_path, digest, len(records),
                      plot_path, len(plot_lines) - 1 if plot else 0)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1000.0
