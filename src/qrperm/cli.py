"""Command line front end.

Subcommands mirror the library layers: gen emits a permutation in the
text interchange format, disc/sums/stats analyse one permutation, the
scan-* commands sweep parameter ranges and write CSV + JSON summaries,
zaremba and obryant answer the two search questions directly.

All flags use argparse.SUPPRESS defaults so config-file and environment
values (QRPERM_WORKERS, QRPERM_OUTDIR) only lose to flags the user
actually typed; see config.resolve for the precedence.  A flag that
several subcommands take is declared once, in a parent parser.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict

from . import __version__
from .cfrac import cf_of_rational
from .config import RunConfig, parse_int_list, resolve
from .discrepancy import build_report
from .errors import QrpermError
from .expsums import (completion_check, gauss_power_sum,
                      incomplete_sigma_sum, kloosterman, twisted_full_sum,
                      w_sum, weyl_sum)
from .families import (Permutation, bit_reversal, from_text, identity_perm,
                       invert, lambda_inv, psi, random_perm, reversal_perm,
                       rho_exp, sos_perm, to_text, eta_power)
from .modular import find_primitive_root
from .qrstats import property_profile
from .quadirr import frac_float, parse_alpha
from .ranksets import b_sequence
from .scan import (_scan_sos_perm, emit, scan_gauss, scan_obryant, scan_psi,
                   scan_sos, scan_zaremba, timed, zaremba_results)

FAMILIES = ("psi", "lambda", "eta", "rho", "sos", "bitrev",
            "identity", "reversal", "random")
SUM_KINDS = ("weyl", "incomplete", "twisted", "kloosterman", "gauss",
             "wsum", "completion")


def _need(value, flag: str):
    if value is None:
        raise QrpermError(f"this family needs {flag}")
    return value


def build_perm(cfg: RunConfig) -> Permutation:
    if cfg.from_file:
        try:
            with open(cfg.from_file, encoding="utf-8") as fh:
                return from_text(fh.read())
        except UnicodeDecodeError as exc:
            raise QrpermError(f"cannot read {cfg.from_file}: {exc}") from None
    n = _need(cfg.n, "--n")
    fam = cfg.family
    if fam == "psi":
        return psi(n, _need(cfg.k, "--k"))
    if fam == "lambda":
        return lambda_inv(n, cfg.a)
    if fam == "eta":
        return eta_power(n, cfg.a, _need(cfg.k, "--k"))
    if fam == "rho":
        tau = cfg.tau if cfg.tau is not None else find_primitive_root(n)
        return rho_exp(n, cfg.a, tau)
    if fam == "sos":
        return sos_perm(n, parse_alpha(cfg.alpha), tie_break=cfg.tie_break)
    if fam == "bitrev":
        return bit_reversal(n)
    if fam == "identity":
        return identity_perm(n)
    if fam == "reversal":
        return reversal_perm(n)
    if fam == "random":
        return random_perm(n, cfg.seed)
    raise QrpermError(f"unknown family {fam!r} (one of {FAMILIES})")


def _sum_json(kind: str, sv) -> str:
    return json.dumps({"kind": kind, "re": sv.re, "im": sv.im,
                       "magnitude": sv.magnitude, "terms": sv.terms,
                       "params": dict(sv.params)}, indent=2)


def cmd_gen(cfg: RunConfig) -> int:
    sigma = build_perm(cfg)
    if cfg.invert:
        sigma = invert(sigma)
    text = to_text(sigma)
    if cfg.out_file:
        with open(cfg.out_file, "w") as fh:
            fh.write(text)
        print(f"wrote {cfg.out_file} (n={sigma.n}, family={sigma.family})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_disc(cfg: RunConfig) -> int:
    sigma = build_perm(cfg)
    report = build_report(sigma, cap=cfg.exact_cap)
    print(report.to_json())
    return 0


def cmd_sums(cfg: RunConfig) -> int:
    kind = cfg.kind
    if kind not in SUM_KINDS:       # a config file skips --kind's choices
        raise QrpermError(f"unknown sum kind {kind!r}")
    if kind == "completion":
        rep = completion_check(build_perm(cfg), _need(cfg.k, "--k"))
        print(json.dumps(asdict(rep), indent=2))
        return 0
    if kind == "weyl":
        n = _need(cfg.n, "--n")
        if n < 1:
            raise QrpermError(f"--n must be >= 1, got {n}")
        alpha = parse_alpha(cfg.alpha)
        pts = [frac_float(alpha, s) for s in range(1, n + 1)]
        sv = weyl_sum(pts, _need(cfg.k, "--k"))
    elif kind == "incomplete":
        sv = incomplete_sigma_sum(build_perm(cfg), _need(cfg.k, "--k"),
                                  _need(cfg.m, "--m"))
    elif kind == "twisted":
        sv = twisted_full_sum(build_perm(cfg), _need(cfg.k, "--k"), cfg.a)
    elif kind == "kloosterman":
        sv = kloosterman(_need(cfg.n, "--n"), cfg.a, cfg.b)
    elif kind == "gauss":
        sv = gauss_power_sum(_need(cfg.n, "--n"), cfg.a, _need(cfg.k, "--k"),
                             _need(cfg.m, "--m"))
    else:
        sv = w_sum(_need(cfg.n, "--n"), cfg.a, cfg.c,
                   _need(cfg.theta, "--theta"), _need(cfg.t, "--t"))
    print(_sum_json(kind, sv))
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    sigma = build_perm(cfg)
    profile = property_profile(sigma, alpha=cfg.alpha_exp,
                               exact_cap=cfg.exact_cap)
    print(profile.to_json())
    return 0


def _write_scan(cfg: RunConfig, base: str, echo: tuple[str, ...], scan,
                *args, **kwargs) -> int:
    """Time scan(*args, **kwargs), emit its records under cfg.out as
    cfg.base (else base), echoing the config keys in echo, and print
    where they went: the one path of every command that writes a scan."""
    records, ms = timed(scan, *args, **kwargs)
    pairs = {"command": cfg.command, "version": __version__,
             **{name: getattr(cfg, name) for name in echo}}
    res = emit(records, cfg.out, cfg.base or base, pairs, wall_time_ms=ms,
               plot=cfg.plot)
    print(f"{res.rows} rows -> {res.csv_path}")
    print(f"summary  -> {res.summary_path}")
    print(f"body sha256 {res.body_sha256}")
    if res.plot_path:
        print(f"plot data ({res.plot_rows} rows) -> {res.plot_path}")
    return 0


def cmd_scan_psi(cfg: RunConfig) -> int:
    return _write_scan(cfg, f"psi_{cfg.pmin}_{cfg.pmax}",
                       ("workers", "pmin", "pmax"),
                       scan_psi, cfg.pmin, cfg.pmax, workers=cfg.workers)


def cmd_scan_gauss(cfg: RunConfig) -> int:
    a_values = parse_int_list(cfg.a_values, "--a-values") or [1]
    return _write_scan(cfg, f"gauss_{cfg.pmin}_{cfg.pmax}",
                       ("workers", "pmin", "pmax", "a_values"),
                       scan_gauss, cfg.pmin, cfg.pmax, a_values=a_values,
                       workers=cfg.workers)


def _alpha_labels(text: str) -> list[str]:
    """The alpha handles of a comma list; a quad: or -quad: handle keeps
    the four fields a,b,d,c that follow its colon."""
    toks = (tok.strip() for tok in text.split(","))
    labels = []
    for tok in toks:
        if tok.startswith(("quad:", "-quad:")):
            tok = ",".join([tok, *itertools.islice(toks, 3)])
        if tok:
            labels.append(tok)
    return labels


def cmd_scan_sos(cfg: RunConfig) -> int:
    labels = _alpha_labels(cfg.alphas)
    n_list = parse_int_list(cfg.n_list, "--n-list")
    return _write_scan(cfg, "sos_scan", ("workers", "alphas", "n_list"),
                       scan_sos, labels, n_list, workers=cfg.workers)


def cmd_zaremba(cfg: RunConfig) -> int:
    if cfg.base:
        return _write_scan(cfg, cfg.base, ("nmin", "nmax", "bound"),
                           scan_zaremba, cfg.nmin, cfg.nmax, cfg.bound)
    for z in zaremba_results(cfg.nmin, cfg.nmax, cfg.bound):
        mark = "ok" if z.certifies else "exceeds"
        print(f"n={z.n} k={z.k} cf={cf_of_rational(z.k, z.n)} "
              f"max_quotient={z.max_quotient} "
              f"avg={z.max_prefix_average} [{mark}]")
    return 0


def cmd_obryant(cfg: RunConfig) -> int:
    if cfg.n is not None and cfg.n < 1:
        raise QrpermError(f"--n must be >= 1, got {cfg.n}")
    targets = parse_int_list(cfg.targets, "--targets")
    if cfg.base:
        return _write_scan(cfg, cfg.base, ("alpha", "limit", "targets"),
                           scan_obryant, cfg.alpha, cfg.limit, targets)
    records = scan_obryant(cfg.alpha, cfg.limit, targets)
    by_stat = {(r.statistic, r.params): r for r in records}
    size = by_stat[("aset_size", (("alpha", cfg.alpha),))]
    gap = by_stat[("max_gap", (("alpha", cfg.alpha),))]
    print(f"alpha={cfg.alpha} limit={cfg.limit}")
    print(f"|A| = {size.value}  (|A|/sqrt(n/ln n) = "
          f"{size.normalized:.4f})")
    print(f"max gap = {gap.value}  (vs sqrt(32 n D) bound: "
          f"{gap.normalized:.4f} of allowance)")
    for t in dict.fromkeys(targets):     # one line per distinct target
        r = by_stat[("target_hit",
                     (("alpha", cfg.alpha), ("target", str(t))))]
        print(f"target {t}: {'hit' if r.value else 'missing'}")
    if cfg.n is not None:
        # B(k) depends only on {q*alpha} for q <= k: rank the prefix only
        upto = min(cfg.n, cfg.limit)
        sigma = _scan_sos_perm(upto, parse_alpha(cfg.alpha))
        print("B(1..{}) = {}".format(
            upto, " ".join(str(v) for v in b_sequence(sigma))))
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "disc": cmd_disc,
    "sums": cmd_sums,
    "stats": cmd_stats,
    "scan-psi": cmd_scan_psi,
    "scan-gauss": cmd_scan_gauss,
    "scan-sos": cmd_scan_sos,
    "zaremba": cmd_zaremba,
    "obryant": cmd_obryant,
}


class _Parser(argparse.ArgumentParser):
    """Bad arguments raise QrpermError, so main reports them like any bad
    input; the subparsers inherit the class."""

    def error(self, message):
        raise QrpermError(message)


def _parent() -> argparse.ArgumentParser:
    """A parser whose flags other parsers share through parents=; each
    defaults to SUPPRESS, so only the flags typed reach resolve."""
    return argparse.ArgumentParser(add_help=False,
                                   argument_default=argparse.SUPPRESS)


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each add_argument makes
    a HelpFormatter, so a build takes milliseconds, and nothing changes
    the parser after it is built (parse_args returns a fresh Namespace)."""
    parser = _Parser(
        prog="qrperm",
        description="discrepancy, exponential sums, and quasirandomness "
                    "statistics for arithmetic permutation families")
    parser.add_argument("--version", action="version",
                        version=f"qrperm {__version__}")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    family = _parent()
    family.add_argument("--family", choices=FAMILIES)
    family.add_argument("--n", type=int, help="size (the prime p for "
                        "psi/lambda/eta/rho)")
    for flag in ("--k", "--a", "--tau", "--seed"):
        family.add_argument(flag, type=int)
    family.add_argument("--alpha", help="golden | -golden | sqrt:D | "
                        "quad:a,b,d,c | rat:p/q (a negative one needs =: "
                        "--alpha=-golden)")
    family.add_argument("--tie-break", action="store_true")
    family.add_argument("--from-file", help="read the permutation from a "
                        "gen-format text file instead")
    cap = _parent()
    cap.add_argument("--exact-cap", type=int)
    primes = _parent()
    primes.add_argument("--pmin", type=int)
    primes.add_argument("--pmax", type=int)
    workers = _parent()
    workers.add_argument("--workers", type=int)
    output = _parent()      # every command that writes a scan
    output.add_argument("--out", help="output directory")
    output.add_argument("--base", help="output basename (zaremba and "
                        "obryant print to stdout without it)")
    output.add_argument("--plot", help="also write plot data for this "
                        "statistic")

    def command(name: str, help: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=parents,
                              argument_default=argparse.SUPPRESS)

    sp = command("gen", "emit one permutation as text", family)
    sp.add_argument("--invert", action="store_true")
    sp.add_argument("--out-file")
    command("disc", "discrepancy report (JSON)", family, cap)
    sp = command("sums", "one exponential sum (JSON)", family)
    sp.add_argument("--kind", choices=SUM_KINDS)
    for flag in ("--m", "--b", "--c", "--theta", "--t"):
        sp.add_argument(flag, type=int)
    sp = command("stats", "quasirandomness profile (JSON)", family, cap)
    sp.add_argument("--alpha-exp", type=float,
                    help="exponent alpha for the eigenvalue statistic")
    command("scan-psi", "psi family scan", primes, workers, output)
    sp = command("scan-gauss", "gauss family scan", primes, workers, output)
    sp.add_argument("--a-values", help="comma list, default 1")
    sp = command("scan-sos", "Sos permutation scan", workers, output)
    sp.add_argument("--alphas", help="comma list of alpha handles, as "
                    "for gen, quad:a,b,d,c included (a list that starts "
                    "negative needs =: --alphas=-golden,sqrt:2)")
    sp.add_argument("--n-list", help="comma list of sizes")
    sp = command("zaremba", "bounded-quotient numerators", output)
    sp.add_argument("--nmin", type=int)
    sp.add_argument("--nmax", type=int)
    sp.add_argument("--bound", help="quotient bound B (integer or p/q)")
    sp = command("obryant", "rank sequence hit-set queries", output)
    sp.add_argument("--alpha", help="alpha handle, as for gen (a "
                    "negative one needs =: --alpha=-golden)")
    sp.add_argument("--limit", type=int)
    sp.add_argument("--targets", help="comma list of values to look for "
                    "(a list that starts negative needs =: "
                    "--targets=-3,0)")
    sp.add_argument("--n", type=int, help="also print B(1..n)")
    return parser


def main(argv=None) -> int:
    try:
        pairs = vars(make_parser().parse_args(argv))
        for key, value in pairs.items():    # --flag=-- parses to []
            if isinstance(value, list):
                raise QrpermError(f"argument --{key.replace('_', '-')}: "
                                  "expected one argument")
        command = pairs.pop("command")
        cfg = resolve(command, pairs, pairs.pop("config", None))
        return _COMMANDS[command](cfg)
    except (QrpermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
