"""Command line front end.

Subcommands mirror the library layers: gen emits a permutation in the
text interchange format, disc/sums/stats analyse one permutation, the
scan-* commands sweep parameter ranges and write CSV + JSON summaries,
zaremba and obryant answer the two search questions directly.

All flags use argparse.SUPPRESS defaults so config-file and environment
values (QRPERM_WORKERS, QRPERM_OUTDIR) only lose to flags the user
actually typed; see config.resolve for the precedence.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict

from . import __version__
from .cfrac import _parse_bound, cf_of_rational, zaremba_search
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
                   scan_sos, scan_zaremba, timed)

FAMILIES = ("psi", "lambda", "eta", "rho", "sos", "bitrev",
            "identity", "reversal", "random")


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
    if kind == "weyl":
        n = _need(cfg.n, "--n")
        if n < 1:
            raise QrpermError(f"--n must be >= 1, got {n}")
        alpha = parse_alpha(cfg.alpha)
        pts = [frac_float(alpha, s) for s in range(1, n + 1)]
        print(_sum_json(kind, weyl_sum(pts, _need(cfg.k, "--k"))))
    elif kind == "incomplete":
        sigma = build_perm(cfg)
        sv = incomplete_sigma_sum(sigma, _need(cfg.k, "--k"),
                                  _need(cfg.m, "--m"))
        print(_sum_json(kind, sv))
    elif kind == "twisted":
        sigma = build_perm(cfg)
        print(_sum_json(kind, twisted_full_sum(sigma, _need(cfg.k, "--k"),
                                               cfg.a)))
    elif kind == "kloosterman":
        p = _need(cfg.n, "--n")
        print(_sum_json(kind, kloosterman(p, cfg.a, cfg.b)))
    elif kind == "gauss":
        p = _need(cfg.n, "--n")
        sv = gauss_power_sum(p, cfg.a, _need(cfg.k, "--k"),
                             _need(cfg.m, "--m"))
        print(_sum_json(kind, sv))
    elif kind == "wsum":
        p = _need(cfg.n, "--n")
        sv = w_sum(p, cfg.a, cfg.c, _need(cfg.theta, "--theta"),
                   _need(cfg.t, "--t"))
        print(_sum_json(kind, sv))
    elif kind == "completion":
        sigma = build_perm(cfg)
        rep = completion_check(sigma, _need(cfg.k, "--k"))
        print(json.dumps(asdict(rep), indent=2))
    else:
        raise QrpermError(f"unknown sum kind {kind!r}")
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    sigma = build_perm(cfg)
    profile = property_profile(sigma, alpha=cfg.alpha_exp,
                               exact_cap=cfg.exact_cap)
    print(profile.to_json())
    return 0


def _echo(cfg: RunConfig, *names: str) -> dict:
    pairs = {"command": cfg.command, "version": __version__}
    for name in names:
        pairs[name] = getattr(cfg, name)
    return pairs


def _finish_scan(cfg: RunConfig, records, default_base: str,
                 echo: dict, ms: float) -> int:
    res = emit(records, cfg.out, cfg.base or default_base, echo,
               wall_time_ms=ms, plot=cfg.plot)
    print(f"{res.rows} rows -> {res.csv_path}")
    print(f"summary  -> {res.summary_path}")
    print(f"body sha256 {res.body_sha256}")
    if res.plot_path:
        print(f"plot data ({res.plot_rows} rows) -> {res.plot_path}")
    return 0


def cmd_scan_psi(cfg: RunConfig) -> int:
    records, ms = timed(scan_psi, cfg.pmin, cfg.pmax, workers=cfg.workers)
    return _finish_scan(cfg, records, f"psi_{cfg.pmin}_{cfg.pmax}",
                        _echo(cfg, "workers", "pmin", "pmax"), ms)


def cmd_scan_gauss(cfg: RunConfig) -> int:
    a_values = parse_int_list(cfg.a_values, "--a-values") or [1]
    records, ms = timed(scan_gauss, cfg.pmin, cfg.pmax,
                        a_values=a_values, workers=cfg.workers)
    return _finish_scan(cfg, records, f"gauss_{cfg.pmin}_{cfg.pmax}",
                        _echo(cfg, "workers", "pmin", "pmax", "a_values"), ms)


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
    records, ms = timed(scan_sos, labels, n_list, workers=cfg.workers)
    return _finish_scan(cfg, records, "sos_scan",
                        _echo(cfg, "workers", "alphas", "n_list"), ms)


def cmd_zaremba(cfg: RunConfig) -> int:
    if cfg.base:
        records, ms = timed(scan_zaremba, cfg.nmin, cfg.nmax, cfg.bound)
        return _finish_scan(cfg, records, cfg.base,
                            _echo(cfg, "nmin", "nmax", "bound"), ms)
    bound = _parse_bound(cfg.bound)     # also when the n range is empty
    for n in range(max(cfg.nmin, 2), cfg.nmax + 1):
        z = zaremba_search(n, bound)
        cf = cf_of_rational(z.k, n)
        mark = "ok" if z.certifies else "exceeds"
        print(f"n={n} k={z.k} cf={cf} max_quotient={z.max_quotient} "
              f"avg={z.max_prefix_average} [{mark}]")
    return 0


def cmd_obryant(cfg: RunConfig) -> int:
    if cfg.n is not None and cfg.n < 1:
        raise QrpermError(f"--n must be >= 1, got {cfg.n}")
    targets = parse_int_list(cfg.targets, "--targets")
    if cfg.base:
        records, ms = timed(scan_obryant, cfg.alpha, cfg.limit, targets)
        return _finish_scan(cfg, records, cfg.base,
                            _echo(cfg, "alpha", "limit", "targets"), ms)
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


def _add_family_flags(sp):
    sp.add_argument("--family", choices=FAMILIES)
    sp.add_argument("--n", type=int, help="size (the prime p for "
                    "psi/lambda/eta/rho)")
    sp.add_argument("--k", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--tau", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--alpha", help="golden | -golden | sqrt:D | "
                    "quad:a,b,d,c | rat:p/q (a negative one needs =: "
                    "--alpha=-golden)")
    sp.add_argument("--tie-break", action="store_true")
    sp.add_argument("--from-file", help="read the permutation from a "
                    "gen-format text file instead")


class _Parser(argparse.ArgumentParser):
    """Bad arguments raise QrpermError, so main reports them like any bad
    input; the subparsers inherit the class."""

    def error(self, message):
        raise QrpermError(message)


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

    sp = sub.add_parser("gen", help="emit one permutation as text")
    _add_family_flags(sp)
    sp.add_argument("--invert", action="store_true")
    sp.add_argument("--out-file")

    sp = sub.add_parser("disc", help="discrepancy report (JSON)")
    _add_family_flags(sp)
    sp.add_argument("--exact-cap", type=int)

    sp = sub.add_parser("sums", help="one exponential sum (JSON)")
    _add_family_flags(sp)
    sp.add_argument("--kind", choices=("weyl", "incomplete", "twisted",
                                       "kloosterman", "gauss", "wsum",
                                       "completion"))
    sp.add_argument("--m", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--c", type=int)
    sp.add_argument("--theta", type=int)
    sp.add_argument("--t", type=int)

    sp = sub.add_parser("stats", help="quasirandomness profile (JSON)")
    _add_family_flags(sp)
    sp.add_argument("--alpha-exp", type=float,
                    help="exponent alpha for the eigenvalue statistic")
    sp.add_argument("--exact-cap", type=int)

    for name in ("scan-psi", "scan-gauss"):
        sp = sub.add_parser(name, help=f"{name.split('-')[1]} family scan")
        sp.add_argument("--pmin", type=int)
        sp.add_argument("--pmax", type=int)
        if name == "scan-gauss":
            sp.add_argument("--a-values", help="comma list, default 1")
        sp.add_argument("--workers", type=int)
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--base", help="output basename")
        sp.add_argument("--plot", help="also write plot data for this "
                        "statistic")

    sp = sub.add_parser("scan-sos", help="Sos permutation scan")
    sp.add_argument("--alphas", help="comma list of alpha handles, as "
                    "for gen, quad:a,b,d,c included (a "
                    "list that starts negative needs =: "
                    "--alphas=-golden,sqrt:2)")
    sp.add_argument("--n-list", help="comma list of sizes")
    sp.add_argument("--workers", type=int)
    sp.add_argument("--out")
    sp.add_argument("--base")
    sp.add_argument("--plot")

    sp = sub.add_parser("zaremba", help="bounded-quotient numerators")
    sp.add_argument("--nmin", type=int)
    sp.add_argument("--nmax", type=int)
    sp.add_argument("--bound", help="quotient bound B (integer or p/q)")
    sp.add_argument("--out")
    sp.add_argument("--base", help="write CSV under --out instead of "
                    "printing")

    sp = sub.add_parser("obryant", help="rank sequence hit-set queries")
    sp.add_argument("--alpha", help="alpha handle, as for gen (a "
                    "negative one needs =: --alpha=-golden)")
    sp.add_argument("--limit", type=int)
    sp.add_argument("--targets", help="comma list of values to look for "
                    "(a list that starts negative needs =: "
                    "--targets=-3,0)")
    sp.add_argument("--n", type=int, help="also print B(1..n)")
    sp.add_argument("--out")
    sp.add_argument("--base")

    for sp_action in sub.choices.values():
        for action in sp_action._actions:
            if action.dest not in ("help", "command"):
                action.default = argparse.SUPPRESS
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
