"""The benchmark's workloads: what one round invokes and how each output
is checked.

A round is a fixed list of `qrperm` command lines.  The seed picks one
of PARAM_SETS parameter sets (multipliers, exponents, the `sqrt:d`, the
rational, the random-permutation seed); sizes never depend on it, so a
round costs the same at every seed.  Every parameter set has its
outputs recorded in expected.json (see record.py), so every run is
compared exactly with the recorded outputs, and every output must also
hold the invariants the acceptance gate relies on.

Why these three workloads:

psi-scan  `scan-psi` over primes 101..251 with 2 workers (never more
          than the usable CPUs): thousands of small `d_star` calls whose
          128-row blocks fit in L2, fanned out over the fork pool.
sos-scan  `scan-sos` over golden, a `sqrt:d` and a `rat:p/q` (rational
          path with tie-break) at n = 2048 and 4096 with 1 worker: a
          few large `d_star` calls whose blocks spill L2, plus
          `max_prefix_star`, surd-certified `sos_perm` and cfrac.
analyze   `disc`, `stats` and `sums --kind completion` on psi, lambda,
          eta, rho and random members at p = 263 and on bit_reversal(512),
          plus Kloosterman and w sums at p and one `disc` above the exact
          cap (4 * D* fallback): `d_exact` and `eigenvalue_stat` work,
          almost no `d_star`, no pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

PARAM_SETS = 16
PSI_RANGE = (101, 251)
PSI_WORKERS = 2
SOS_SIZES = (2048, 4096)
ANALYZE_P = 263
ANALYZE_BITREV_N = 512
ANALYZE_ABOVE_CAP_P = 1031
DSTAR_BLOCK_ROWS = 128      # qrperm.discrepancy._BLOCK
EXACT_CAP = 512             # the CLI's default --exact-cap

SCAN_BASE = "bench"         # output basename every scan invocation uses
WORKLOADS = ("psi-scan", "sos-scan", "analyze")


class CheckFailed(Exception):
    """An invocation's output is wrong."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]   # without --out/--base; scans get them added
    members: int            # permutations this invocation analyses

    @property
    def is_scan(self) -> bool:
        return self.argv[0].startswith("scan-")

    @property
    def key(self) -> str:
        """The command without execution knobs: the lookup key of its
        recorded output."""
        out, skip = [], False
        for tok in self.argv:
            if skip:
                skip = False
            elif tok == "--workers":
                skip = True
            else:
                out.append(tok)
        return " ".join(out)


@dataclass(frozen=True)
class Round:
    invocations: tuple[Invocation, ...]
    max_dstar_n: int        # largest n any d_star call in the round sees

    @property
    def members(self) -> int:
        return sum(inv.members for inv in self.invocations)

    @property
    def dstar_block_bytes(self) -> int:
        return DSTAR_BLOCK_ROWS * (self.max_dstar_n + 1) * 8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed % PARAM_SETS}")


def make_round(workload: str, seed: int, usable_cpus: int) -> Round:
    from qrperm.modular import find_primitive_root, is_prime
    from qrperm.quadirr import is_square_free

    rng = _rng(workload, seed)
    if workload == "psi-scan":
        pmin, pmax = PSI_RANGE
        primes = [p for p in range(pmin, pmax + 1) if is_prime(p)]
        workers = min(PSI_WORKERS, usable_cpus)
        inv = Invocation(("scan-psi", "--pmin", str(pmin), "--pmax",
                          str(pmax), "--workers", str(workers)),
                         sum(p - 1 for p in primes))
        return Round((inv,), max(primes))
    if workload == "sos-scan":
        d = rng.choice([d for d in range(2, 64)
                        if is_square_free(d) and d != 5])
        q = rng.randrange(1000, 2000)       # below every n: ties occur
        p = rng.randrange(1, q)
        while math.gcd(p, q) != 1:
            p = rng.randrange(1, q)
        alphas = f"golden,sqrt:{d},rat:{p}/{q}"
        inv = Invocation(("scan-sos", "--alphas", alphas, "--n-list",
                          ",".join(map(str, SOS_SIZES)), "--workers", "1"),
                         3 * len(SOS_SIZES))
        return Round((inv,), max(SOS_SIZES))
    if workload == "analyze":
        p = ANALYZE_P
        kc = str(rng.randrange(1, p))
        eta_k = rng.choice([k for k in range(2, p - 1)
                            if math.gcd(k, p - 1) == 1])
        members = (
            ("--family", "psi", "--k", str(rng.randrange(2, p - 1))),
            ("--family", "lambda", "--a", str(rng.randrange(1, p)),
             "--k", kc),
            ("--family", "eta", "--a", str(rng.randrange(1, p)),
             "--k", str(eta_k)),
            ("--family", "rho", "--a", str(rng.randrange(1, p)),
             "--k", kc),
            ("--family", "random", "--seed", str(rng.randrange(2 ** 32)),
             "--k", kc),
        )
        invs = []
        for member in members:
            flags = member + ("--n", str(p))
            invs += [Invocation(("disc",) + flags, 1),
                     Invocation(("stats",) + flags, 0),
                     Invocation(("sums", "--kind", "completion") + flags, 0)]
        bitrev = ("--family", "bitrev", "--n", str(ANALYZE_BITREV_N),
                  "--k", kc)
        invs += [Invocation(("disc",) + bitrev, 1),
                 Invocation(("stats",) + bitrev, 0),
                 Invocation(("sums", "--kind", "completion") + bitrev, 0)]
        g = find_primitive_root(p)
        j = rng.choice([j for j in range(1, p - 1)
                        if math.gcd(j, p - 1) == 1])
        invs += [
            Invocation(("sums", "--kind", "kloosterman", "--n", str(p),
                        "--a", str(rng.randrange(1, p)),
                        "--b", str(rng.randrange(1, p))), 0),
            Invocation(("sums", "--kind", "wsum", "--n", str(p),
                        "--a", str(rng.randrange(1, p)),
                        "--c", str(rng.randrange(1, p)),
                        "--theta", str(pow(g, j, p)), "--t", str(p - 1)), 0),
            Invocation(("disc", "--family", "psi", "--n",
                        str(ANALYZE_ABOVE_CAP_P), "--k",
                        str(rng.randrange(2, ANALYZE_ABOVE_CAP_P - 1))), 1),
        ]
        return Round(tuple(invs), ANALYZE_ABOVE_CAP_P)
    raise ValueError(f"unknown workload {workload!r} (one of {WORKLOADS})")


# ------------------------------------------------------------- checks

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _frac(obj) -> tuple[int, int]:
    return obj["num"], obj["den"]


def _le(x, y) -> bool:
    """x <= y for (num, den) pairs, exactly."""
    return x[0] * y[1] <= y[0] * x[1]


def _canonical(obj):
    """Floats to 10 significant digits, so a last-bit difference in a
    vectorised transcendental does not read as a wrong answer."""
    if isinstance(obj, float):
        return format(obj, ".10g")
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def _row_frac(row: dict) -> tuple[int, int]:
    return int(row["value_num"]), int(row["value_den_or_float"])


def _scan_rows(body: str) -> list[dict]:
    lines = body.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_scan(inv: Invocation, stdout: str, out_dir: str) -> str:
    """Invariants of a scan's CSV and summary; returns the body digest."""
    with open(os.path.join(out_dir, SCAN_BASE + ".csv")) as fh:
        first, _, body = fh.read().partition("\n")
    _require(first.startswith("# config:"), "CSV lacks its config line")
    digest = _sha(body)
    with open(os.path.join(out_dir, SCAN_BASE + "_summary.json")) as fh:
        summary = json.load(fh)
    _require(summary["csv_body_sha256"] == digest,
             "summary digest disagrees with the CSV body")
    _require(f"body sha256 {digest}" in stdout,
             "printed digest disagrees with the CSV body")
    rows = _scan_rows(body)
    _require(summary["rows"] == len(rows), "summary row count is wrong")
    if inv.argv[0] == "scan-psi":
        _check_psi_rows(inv, rows)
    else:
        _check_sos_rows(inv, rows)
    return digest


def _check_psi_rows(inv: Invocation, rows: list[dict]) -> None:
    from qrperm.calibration import PSI_MEAN_LN2_HI, PSI_MEAN_LN2_LO
    from qrperm.modular import is_prime

    pmin, pmax = int(_flag(inv.argv, "--pmin")), int(_flag(inv.argv,
                                                            "--pmax"))
    primes = [p for p in range(pmin, pmax + 1) if is_prime(p)]
    _require(len(rows) == 6 * len(primes), "psi scan row count is wrong")
    by = {(int(r["n_or_p"]), r["statistic"]): r for r in rows}
    for p in primes:
        mean, best = by[(p, "mean_dstar")], by[(p, "min_dstar")]
        _require(PSI_MEAN_LN2_LO <= float(mean["normalized"])
                 <= PSI_MEAN_LN2_HI,
                 f"psi mean D*/ln^2 p outside the pinned band at p = {p}")
        _require(_le(_row_frac(best), _row_frac(mean)),
                 f"psi min D* exceeds the mean at p = {p}")


def _check_sos_rows(inv: Invocation, rows: list[dict]) -> None:
    from qrperm.quadirr import parse_alpha, QuadraticIrrational

    labels = _flag(inv.argv, "--alphas").split(",")
    sizes = [int(n) for n in _flag(inv.argv, "--n-list").split(",")]
    by = {(r["params"], int(r["n_or_p"]), r["statistic"]): r for r in rows}
    for label in labels:
        irrational = isinstance(parse_alpha(label), QuadraticIrrational)
        for n in sizes:
            def get(stat):
                row = by.get((f"alpha={label}", n, stat))
                _require(row is not None, f"sos row {label} n={n} {stat} "
                         "is missing")
                return row
            num, den = _row_frac(get("dstar"))
            _require(0 < num and 4 * num <= n * den,
                     f"sos D* outside (0, n/4] for {label} n={n}")
            prefix = float(get("max_prefix_star")["value_den_or_float"])
            ratio = float(get("discrelation_ratio")["value_den_or_float"])
            _require(math.isclose(ratio, num / den / (2 * prefix),
                                  rel_tol=1e-9),
                     f"sos discrelation ratio inconsistent for {label} "
                     f"n={n}")
            if irrational:
                _require(get("discrelation_ok")["value_num"] == "1",
                         f"D* > 2 * prefix star for {label} n={n}")


def check_json(inv: Invocation, stdout: str) -> str:
    """Invariants of a disc/stats/sums JSON output; returns the digest
    of its canonical form."""
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    _require(isinstance(obj, dict), "output is not a JSON object")
    try:
        _check_json_fields(inv, obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None
    return _sha(json.dumps(_canonical(obj), sort_keys=True))


def _check_json_fields(inv: Invocation, obj: dict) -> None:
    argv = inv.argv
    cmd = argv[0]
    kind = _flag(argv, "--kind") if cmd == "sums" else None
    n = int(_flag(argv, "--n"))
    if cmd == "disc":
        ds, du = _frac(obj["d_star"]), _frac(obj["d_upper"])
        _require(obj["n"] == n, "disc reports the wrong n")
        if n <= EXACT_CAP:
            de = _frac(obj["d_exact"])
            _require(_le(ds, de) and _le(de, (4 * ds[0], ds[1]))
                     and de == du, "D* <= D <= 4 D* fails")
        else:
            _require(obj["d_exact"] is None
                     and du[0] * ds[1] == 4 * ds[0] * du[1],
                     "fallback d_upper is not 4 D*")
    elif cmd == "stats":
        counts = obj["pattern_counts"]
        pairs = n * (n - 1) // 2
        triples = n * (n - 1) * (n - 2) // 6
        _require(counts["01"] + counts["10"] == pairs,
                 "X01 + X10 != C(n, 2)")
        _require(sum(v for k, v in counts.items() if len(k) == 3)
                 == triples, "length-3 pattern counts do not sum to C(n, 3)")
        _require(obj["two_s"] == counts["01"] - counts["10"],
                 "two_s != X01 - X10")
        _require(obj["e_alpha_max"] > 0, "eigenvalue statistic not > 0")
    elif kind == "completion":
        _require(obj["n"] == n and obj["ok"] is True,
                 "completion inequality fails")
    elif kind == "kloosterman":
        _require(obj["magnitude"] <= 2 * math.sqrt(n) + 1e-9
                 and obj["terms"] == n - 1, "Weil bound fails")
    elif kind == "wsum":
        t = int(_flag(argv, "--t"))
        _require(obj["re"] >= 0 and obj["im"] == 0
                 and obj["terms"] == t * t, "w sum shape is wrong")
    else:
        raise CheckFailed(f"no check for {inv.key}")


def expected_digest(expected: dict, workload: str, inv: Invocation) -> str:
    """The digest recorded for this invocation."""
    if inv.key == "scan-psi --pmin 101 --pmax 499":
        from qrperm.calibration import PSI_SCAN_SHA256
        return PSI_SCAN_SHA256
    try:
        return expected[workload][inv.key]
    except KeyError:
        raise CheckFailed(f"no recorded output for {inv.key!r}; rerun "
                          "bench/record.py at a trusted commit") from None


def check(inv: Invocation, workload: str, expected: dict, stdout: str,
          out_dir: str) -> str:
    """All checks on one invocation; returns its output digest."""
    if inv.is_scan:
        digest = check_scan(inv, stdout, out_dir)
    else:
        digest = check_json(inv, stdout)
    want = expected_digest(expected, workload, inv)
    _require(digest == want, f"output digest {digest[:12]} differs from "
             f"the recorded {want[:12]} for {inv.key!r}")
    return digest


def load_expected() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path) as fh:
        return json.load(fh)
