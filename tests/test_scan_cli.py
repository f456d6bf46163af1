"""Scan drivers, CSV emission, config layering, and the CLI surface."""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import multiprocessing.connection
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qrperm
from qrperm import (
    QrpermError,
    a_set,
    b_sequence,
    d_star,
    from_text,
    gap_check,
    gauss_power_sum,
    golden,
    psi,
    sos_perm,
    sqrt_irr,
    zaremba_search,
)
from qrperm.cli import main, make_parser
from qrperm.config import (
    RunConfig,
    env_overrides,
    load_config_file,
    parse_int_list,
    resolve,
)
from qrperm.corpus import corpus_perms
from qrperm.scan import (
    CSV_COLUMNS,
    csv_rows,
    emit,
    plot_rows,
    rec_f,
    rec_q,
    scan_gauss,
    scan_obryant,
    scan_psi,
    scan_sos,
    scan_zaremba,
)


# ----------------------------------------------------------------- corpus

def test_corpus_is_deterministic_and_diverse():
    first = corpus_perms(31)
    second = corpus_perms(31)
    assert [(s.family, s.params, s.image) for s in first] == \
        [(s.family, s.params, s.image) for s in second]
    families = {s.family for s in first}
    assert {"psi", "lambda", "eta", "rho", "sos", "bitrev", "identity",
            "reversal", "random"} <= families
    for sigma in first:
        assert sorted(sigma.image) == list(range(sigma.n))


# ------------------------------------------------------------------ scans

@pytest.mark.parametrize("p", [5, 131])   # 131 spans two 128-row blocks
def test_scan_psi_values_recompute(p):
    records = scan_psi(p, p)
    by_stat = {r.statistic: r for r in records}
    dstars = [d_star(psi(p, k)) for k in range(1, p)]
    mean = sum(dstars, Fraction(0)) / (p - 1)
    r = by_stat["mean_dstar"]
    assert r.value == mean
    assert r.normalized == pytest.approx(float(mean) / math.log(p) ** 2,
                                         rel=1e-12)
    r = by_stat["min_dstar"]
    assert r.value == min(dstars)
    argmin = 1 + dstars.index(min(dstars))
    assert dict(r.params)["k"] == str(argmin)


def test_scan_psi_normalizers():
    for r in scan_psi(5, 19):
        value = float(r.value)
        p = r.n_or_p
        expected = {
            "mean_dstar": math.log(p) ** 2,
            "mean_dstar_log2sq": math.log2(p) ** 2,
            "min_dstar": math.log(p),
            "min_dstar_log2": math.log2(p),
        }
        if r.statistic in expected:
            assert r.normalized == pytest.approx(value / expected[r.statistic],
                                                 rel=1e-12)
        else:
            assert r.normalized is None


def test_scan_psi_worker_counts_agree():
    assert scan_psi(5, 31, workers=1) == scan_psi(5, 31, workers=2)


def test_scan_sos_worker_counts_and_schema():
    records = scan_sos(["golden", "sqrt:2"], [16, 32], workers=2)
    assert records == scan_sos(["golden", "sqrt:2"], [16, 32], workers=1)
    stats = {r.statistic for r in records}
    assert {"dstar", "max_prefix_star", "argmax_prefix", "discrelation_ok",
            "discrelation_ratio", "cf_quotient_sum",
            "cf_max_quotient"} <= stats
    # per (alpha, n) the dstar record is exactly d_star of that ranking
    for r in records:
        if r.statistic == "dstar" and dict(r.params)["alpha"] == "sqrt:2":
            want = d_star(sos_perm(r.n_or_p, sqrt_irr(2)))
            assert r.value == want


def test_sos_point_records_d_star_and_quotients():
    import qrperm.scan as scan_mod
    records = scan_mod._sos_point(("golden", 2048))
    by_stat = {r.statistic: r.value for r in records}
    assert by_stat["dstar"] == d_star(sos_perm(2048, golden()))
    assert by_stat["cf_max_quotient"] == 1


def test_scan_sos_rejects_bad_points_before_any_work(monkeypatch):
    import qrperm.scan as scan_mod
    monkeypatch.setattr(scan_mod, "_sos_point",
                        lambda point: pytest.fail(f"computed {point}"))
    with pytest.raises(QrpermError, match="duplicate sos scan point"):
        scan_sos(["golden"], [4096, 4096])
    with pytest.raises(QrpermError, match="duplicate sos scan point"):
        scan_sos(["sqrt:2", "golden", "sqrt:2"], [16])
    with pytest.raises(QrpermError, match="must be >= 1, got 0"):
        scan_sos(["golden"], [4096, 0])
    with pytest.raises(QrpermError, match="must be >= 1, got -5"):
        scan_sos(["golden"], [-5])


def test_pooled_scans_call_pool_map_once(monkeypatch):
    # the benchmark's tracer wraps scan._pool_map by name: every pooled
    # scan sends all its points through one call, (fn, points, workers)
    # positional, and its records come from the list that call returns
    import qrperm.scan as scan_mod
    cases = [(scan_psi, (5, 31), scan_mod._psi_prime),
             (scan_gauss, (5, 13, (1, 2)), scan_mod._gauss_prime),
             (scan_sos, (["golden", "sqrt:2"], [16, 32]),
              scan_mod._sos_point)]
    wants = [scan(*args, workers=2) for scan, args, _ in cases]
    real, calls = scan_mod._pool_map, []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(scan_mod, "_pool_map", recording)
    for (scan, args, fn), want in zip(cases, wants):
        calls.clear()
        assert scan(*args, workers=2) == want
        assert len(calls) == 1
        (got_fn, points, workers), kwargs = calls[0]
        assert got_fn is fn and workers == 2 and not kwargs
        assert isinstance(points, list) and len(points) > 1


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body after seconds, so a scan that
    hangs fails the test instead of the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _dies_on_7(point):
    if point == 7:
        os._exit(3)
    return point


def test_a_dead_worker_fails_the_scan(tmp_path, monkeypatch, capsys):
    import qrperm.scan as scan_mod
    with _deadline(20):
        with pytest.raises(QrpermError, match=r"worker died \(exit code 3\)"):
            scan_mod._pool_map(_dies_on_7, [5, 7, 11, 13], 2)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(scan_mod, "_psi_prime", _dies_on_7)
        err = _assert_cli_error(["scan-psi", "--pmin", "5", "--pmax", "13",
                                 "--workers", "2", "--out", str(tmp_path),
                                 "--base", "dead"], capsys)
        assert "worker died" in err
    assert not (tmp_path / "dead.csv").exists()


def test_worker_errors_reach_main_as_at_one_worker(tmp_path, monkeypatch,
                                                   capsys):
    import qrperm.scan as scan_mod

    def refuse_11(p):
        if p == 11:
            raise QrpermError(f"no scan at p = {p}")
        return []

    monkeypatch.setattr(scan_mod, "_psi_prime", refuse_11)
    errs = []
    with _deadline(20):
        for workers in ("1", "2"):
            errs.append(_assert_cli_error(
                ["scan-psi", "--pmin", "5", "--pmax", "13", "--workers",
                 workers, "--out", str(tmp_path), "--base", "e"], capsys))
    assert errs == ["error: no scan at p = 11\n"] * 2


def _sleep_then_index(point):
    index, seconds = point
    time.sleep(seconds)
    return index


def test_pool_map_leaves_no_children(monkeypatch):
    import qrperm.scan as scan_mod
    with _deadline(20):
        assert scan_mod._pool_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert multiprocessing.active_children() == []
        with pytest.raises(ZeroDivisionError):
            scan_mod._pool_map(lambda x: 1 // x, [2, 1, 0, 3], 2)
        assert multiprocessing.active_children() == []

        # the parent raising while it collects ends a worker still busy
        def interrupted(self):
            raise KeyboardInterrupt
        monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                            interrupted)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            scan_mod._pool_map(_sleep_then_index, [(0, 0.0), (1, 5.0)], 2)
        assert time.monotonic() - t0 < 4.0
        assert multiprocessing.active_children() == []


def test_pool_map_claims_each_point_once(tmp_path):
    # more workers than cores, all claiming from the one counter: each
    # call appends its point to one file, so a lost update shows as a
    # point written twice.  Enough points that the workers overlap: with
    # the lock taken out, six runs each wrote 27 to 173 thousand repeats
    import qrperm.scan as scan_mod
    log = tmp_path / "claims"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def claim(point):
        os.write(fd, b"%d\n" % point)
        return -point

    points = list(range(100000))
    try:
        with _deadline(30):
            got = scan_mod._pool_map(claim, points, 6)
    finally:
        os.close(fd)
    assert got == [-p for p in points]
    assert sorted(map(int, log.read_bytes().split())) == points


def test_pool_map_keeps_input_order():
    import qrperm.scan as scan_mod
    with _deadline(20):
        # more workers than points
        assert scan_mod._pool_map(lambda x: x * x, [3, 1, 2], 8) == [9, 1, 4]
        # point 0 keeps one worker busy while the other does the rest,
        # so the later points finish, and their message arrives, first
        finish = scan_mod._pool_map(
            lambda pt: (_sleep_then_index(pt), time.monotonic()),
            [(0, 0.5), (1, 0.0), (2, 0.0), (3, 0.0)], 2)
    assert [index for index, _ in finish] == [0, 1, 2, 3]
    assert finish[3][1] < finish[0][1]


def test_scan_gauss_recomputes_from_power_sums():
    records = scan_gauss(13, 13, a_values=(1, 2))
    ks = [k for k in range(2, 12) if math.gcd(k, 12) == 1]
    assert ks == [5, 7, 11]
    for k in ks:
        for a in (1, 2):
            rows = {r.statistic: r for r in records
                    if dict(r.params) == {"k": str(k), "a": str(a)}}
            sweep = [gauss_power_sum(13, a, k, m).magnitude
                     for m in range(1, 14)]
            assert abs(rows["max_incomplete"].value
                       - max(sweep)) < 1e-9
            m_star = int(rows["argmax_m"].value)
            assert abs(sweep[m_star - 1] - max(sweep)) < 1e-9
            # gcd(k, p-1) = 1 makes the complete sum vanish
            assert rows["complete_mag"].value < 1e-9
            assert abs(rows["max_incomplete"].normalized
                       - max(sweep) / 13.0**0.75) < 1e-12
    peaks = [r for r in records if r.statistic == "p_max_incomplete"]
    assert len(peaks) == 1
    assert abs(peaks[0].value
               - max(r.value for r in records
                     if r.statistic == "max_incomplete")) < 1e-12


def test_scan_zaremba_matches_search():
    records = scan_zaremba(2, 12, 5)
    for n in range(2, 13):
        z = zaremba_search(n, 5)
        rows = {r.statistic: r for r in records if r.n_or_p == n}
        assert rows["max_quotient"].value == z.max_quotient
        assert dict(rows["max_quotient"].params)["k"] == str(z.k)
        assert rows["max_prefix_avg"].value == z.max_prefix_average
        assert rows["certified"].value == int(z.certifies)


def test_scan_obryant_frozen_at_200():
    records = scan_obryant("sqrt:2", 200, targets=(1, 10**6))
    by = {(r.statistic, dict(r.params).get("target")): r for r in records}
    assert by[("aset_size", None)].value == 93
    assert by[("max_gap", None)].value == 18
    assert by[("gap_ok", None)].value == 1
    assert by[("target_hit", "1")].value == 1
    assert by[("target_hit", "1000000")].value == 0


def test_scan_obryant_builds_the_rank_set_once(monkeypatch):
    # the gap check reads the A_sigma that aset_size and the targets read
    calls = []
    for module in (qrperm.scan, qrperm.ranksets):
        monkeypatch.setattr(module, "a_set", lambda sigma: calls.append(
            sigma.n) or a_set(sigma))
    for label, alpha, limit in (("sqrt:2", sqrt_irr(2), 300),
                                ("rat:3/7", Fraction(3, 7), 40)):
        calls.clear()
        records = scan_obryant(label, limit, targets=(1, 7, 12))
        assert calls == [limit]
        sigma = sos_perm(limit, alpha, tie_break=True)
        ranks, gc = a_set(sigma), gap_check(sigma, 4 * d_star(sigma))
        pm = {"alpha": label}
        want = [rec_q("obryant", limit, pm, "aset_size", ranks.count,
                      ranks.count / math.sqrt(limit / math.log(limit))),
                rec_q("obryant", limit, pm, "max_gap", ranks.max_gap,
                      ranks.max_gap / gc.required_length),
                rec_q("obryant", limit, pm, "gap_ok", int(gc.ok))]
        want += [rec_q("obryant", limit, {**pm, "target": t}, "target_hit",
                       int(t in ranks.values)) for t in (1, 7, 12)]
        key = lambda rec: (rec.statistic, rec.params)  # noqa: E731
        assert sorted(records, key=key) == sorted(want, key=key)


# pinned CSV body digests; gauss is left out, as numpy's vectorised exp
# may round last bits differently on another CPU
@pytest.mark.parametrize("scan, args, want", [
    (scan_sos, (("golden", "sqrt:2", "rat:5/13", "-sqrt:7"),
                (1, 2, 13, 64, 300)),
     "68edd92b2f66a750eae08c9006b981af3c38816667abbced7cb973f9390238cc"),
    (scan_obryant, ("sqrt:2", 300, (1, 7, 10**6)),
     "cc1d54cc1af3ca3a8065bb41bff1a4cb212274c29f51df134faa037a329b9d37"),
    (scan_zaremba, (2, 60, "7/2"),
     "ef7d9bf92fcb35be53a89a07f0cf51a41aefcef31af53c6f8b860da2983b30f0"),
], ids=["sos", "obryant", "zaremba"])
def test_scan_bodies_pinned(scan, args, want):
    body = "\n".join(csv_rows(scan(*args))) + "\n"
    assert hashlib.sha256(body.encode()).hexdigest() == want


def _ten_digits(obj):
    """obj with every float written to 10 significant digits, so a
    last-bit difference in a vectorised transcendental does not count."""
    if isinstance(obj, float):
        return format(obj, ".10g")
    if isinstance(obj, dict):
        return {k: _ten_digits(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_ten_digits(v) for v in obj]
    return obj


_PINNED_PERMS = [["--family", fam, "--n", n, "--k", "7"] for fam, n in
                 (("psi", "101"), ("lambda", "101"), ("eta", "101"),
                  ("rho", "101"), ("bitrev", "64"))]
_PINNED_ARGVS = [[cmd, *perm] for perm in _PINNED_PERMS
                 for cmd in ("disc", "stats")] + [
    ["sums", "--kind", "completion", *perm] for perm in _PINNED_PERMS] + [
    ["sums", "--kind", "kloosterman", "--n", "101", "--a", "3", "--b", "5"],
    ["sums", "--kind", "wsum", "--n", "101", "--a", "3", "--c", "5",
     "--theta", "14", "--t", "10"]]      # 14 = 2^10 has order 10 mod 101


def test_analysis_outputs_pinned(capsys):
    # the JSON that disc, stats and sums print, floats to 10 digits
    out = []
    for argv in _PINNED_ARGVS:
        assert main(argv) == 0, argv
        out.append([argv, _ten_digits(json.loads(capsys.readouterr().out))])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "c558801d6639421f111864bb159364faf3468c4f7a0ff429cc5e4d9c03a0168a"


def test_record_value_type_says_exact():
    for r in scan_sos(["golden"], [16]):
        exact = r.statistic in ("dstar", "discrelation_ok",
                                "cf_quotient_sum", "cf_max_quotient")
        assert type(r.value) is (Fraction if exact else float)
    assert type(rec_q("f", 3, {}, "s", 2).value) is Fraction
    assert type(rec_f("f", 3, {}, "s", 2).value) is float


def test_scan_gauss_merges_equal_residues(tmp_path):
    records = scan_gauss(11, 13, (1, 14))     # 14 = 1 mod 13
    emit(records, str(tmp_path), "g", {})
    assert [r for r in records if r.n_or_p == 13] == scan_gauss(13, 13, (1,))
    assert {dict(r.params)["a"] for r in records if r.n_or_p == 11} \
        == {"1", "3"}


def test_empty_scans_yield_zero_records():
    assert scan_psi(24, 28) == []
    assert scan_gauss(24, 28) == []
    assert scan_psi(100, 5) == []


# --------------------------------------------------------------- emission

def test_emit_schema_and_sorting(tmp_path):
    records = scan_psi(5, 19)
    res = emit(records, str(tmp_path), "t", {"workers": 1})
    assert res.rows == len(records)
    lines = Path(res.csv_path).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + len(records)
    keys = []
    for line in lines[2:]:
        cells = line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[-1] == "0"  # wall time never lands in the body
        keys.append((int(cells[1]), cells[0], cells[2], cells[3]))
    assert keys == sorted(keys)
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["rows"] == len(records)
    assert summary["csv_body_sha256"] == res.body_sha256
    assert summary["config"] == {"workers": "1"}
    assert set(summary["statistics"]) == {r.statistic for r in records}


def test_emit_digest_ignores_config_echo(tmp_path):
    records = scan_psi(5, 11)
    a = emit(records, str(tmp_path), "a", {"workers": 1})
    b = emit(records, str(tmp_path), "b", {"workers": 8, "note": "x"})
    assert a.body_sha256 == b.body_sha256
    body = Path(a.csv_path).read_text().split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == a.body_sha256
    first_a = Path(a.csv_path).read_text().splitlines()[0]
    first_b = Path(b.csv_path).read_text().splitlines()[0]
    assert first_a != first_b


def test_emit_failure_keeps_existing_pair(tmp_path, monkeypatch):
    first = emit(scan_psi(5, 11), str(tmp_path), "t", {"workers": 1})

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        emit(scan_psi(5, 13), str(tmp_path), "t", {"workers": 1})
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "t_summary.json"]
    body = Path(first.csv_path).read_text().split("\n", 1)[1]
    summary = json.loads(Path(first.summary_path).read_text())
    assert hashlib.sha256(body.encode()).hexdigest() == \
        summary["csv_body_sha256"] == first.body_sha256


@pytest.mark.parametrize("plot, failing_call", [
    pytest.param(None, 1, id="1"), pytest.param(None, 2, id="2"),
    *(pytest.param("mean_dstar", i, id=f"plot-{i}") for i in (1, 2, 3))])
def test_emit_interrupted_rename_never_leaves_a_disagreeing_pair(
        tmp_path, monkeypatch, plot, failing_call):
    old, new = scan_psi(5, 11), scan_psi(5, 13)
    emit(old, str(tmp_path), "t", {"workers": 1}, plot=plot)
    real_replace, calls = os.replace, []

    def flaky_replace(src, dst):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError("killed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)
    with pytest.raises(OSError, match="killed"):
        emit(new, str(tmp_path), "t", {"workers": 1}, plot=plot)
    monkeypatch.undo()
    assert len(calls) == failing_call
    body = (tmp_path / "t.csv").read_text().split("\n", 1)[1]
    summary_path = tmp_path / "t_summary.json"
    assert not summary_path.exists() or \
        json.loads(summary_path.read_text())["csv_body_sha256"] == \
        hashlib.sha256(body.encode()).hexdigest()
    if plot:
        # the plot file is whole, from one run or the other, and no
        # summary is left to vouch for it until the new summary lands
        assert not summary_path.exists()
        assert (tmp_path / f"t_plot_{plot}.csv").read_text() in [
            "\n".join(plot_rows(run, plot)) + "\n" for run in (old, new)]


def test_emit_rejects_duplicate_records(tmp_path):
    rec = rec_q("psi-scan", 5, {}, "mean_dstar", Fraction(1, 2))
    with pytest.raises(QrpermError, match="duplicate"):
        emit([rec, rec], str(tmp_path), "dup", {})


def test_emit_empty_is_header_only(tmp_path):
    res = emit([], str(tmp_path), "empty", {"pmin": 24, "pmax": 28})
    lines = Path(res.csv_path).read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert res.rows == 0


def test_csv_float_and_rational_cells():
    # a quad: alpha holds commas, so its params field is quoted
    records = [
        rec_q("f", 3, {"k": 1}, "ratio", Fraction(2, 3), 0.5),
        rec_f("f", 3, {"k": 2}, "mag", 1.25),
        rec_q("obryant", 20, {"alpha": "quad:1,1,5,2"}, "aset_size", 8),
    ]
    rows = csv_rows(records)
    assert rows[1] == "f,3,k=1,ratio,2,3,0.5,0"
    assert rows[2] == "f,3,k=2,mag,,1.25,,0"
    assert rows[3] == 'obryant,20,"alpha=quad:1,1,5,2",aset_size,8,1,,0'
    (fields,) = csv.reader([rows[3]])
    assert len(fields) == len(CSV_COLUMNS) == 8
    assert fields[2] == "alpha=quad:1,1,5,2"
    (plot,) = csv.reader(plot_rows(records, "aset_size")[1:])
    assert plot == ["20", "8.0", "alpha=quad:1,1,5,2"]


def test_write_plot_data(tmp_path):
    res = emit(scan_psi(5, 19), str(tmp_path), "t", {}, plot="mean_dstar")
    assert res.plot_path == str(tmp_path / "t_plot_mean_dstar.csv")
    lines = Path(res.plot_path).read_text().splitlines()
    assert lines[0] == "x,y,series"
    assert res.plot_rows == len(lines) - 1 == 6  # one per prime in [5, 19]


# ----------------------------------------------------------------- config

def test_config_precedence_file_env_cli(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("workers = 4\npmax = 7  # trailing comment\n")
    monkeypatch.setenv("QRPERM_WORKERS", "2")
    cfg = resolve("scan-psi", {"pmax": 11}, str(cfg_file))
    assert cfg.workers == 2    # env beats file
    assert cfg.pmax == 11      # CLI beats both
    assert cfg.pmin == 5       # untouched default
    monkeypatch.delenv("QRPERM_WORKERS")
    cfg = resolve("scan-psi", {}, str(cfg_file))
    assert cfg.workers == 4 and cfg.pmax == 7


def test_config_env_outdir(monkeypatch):
    monkeypatch.setenv("QRPERM_OUTDIR", "elsewhere")
    assert env_overrides()["out"] == "elsewhere"
    cfg = resolve("scan-psi", {})
    assert cfg.out == "elsewhere"


def test_config_file_validation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    with pytest.raises(QrpermError, match="unknown key 'bogus'"):
        load_config_file(str(bad))
    bad.write_text("command = gen\n")
    with pytest.raises(QrpermError, match="command line"):
        load_config_file(str(bad))
    bad.write_text("workers = soon\n")
    with pytest.raises(QrpermError, match="wants an integer"):
        load_config_file(str(bad))
    bad.write_text("just a line\n")
    with pytest.raises(QrpermError, match="key = value"):
        load_config_file(str(bad))
    with pytest.raises(QrpermError, match="cannot read"):
        load_config_file(str(tmp_path / "absent.cfg"))


@pytest.mark.parametrize("line, want", [
    ("workers = soon", "config key 'workers' wants an integer, got 'soon'"),
    ("alpha_exp = x", "config key 'alpha_exp' wants a float, got 'x'"),
    ("tie-break = maybe", "config key 'tie_break' wants a boolean, "
     "got 'maybe'"),
])
def test_config_file_type_errors_name_file_and_line(tmp_path, line, want):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"# knobs\npmax = 7\n{line}\n")
    with pytest.raises(QrpermError, match="wants a") as exc:
        load_config_file(str(cfg_file))
    assert str(exc.value) == f"{cfg_file}:3: {want}"


def test_config_env_type_error_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("QRPERM_WORKERS", "abc")
    with pytest.raises(QrpermError, match="wants an integer") as exc:
        env_overrides()
    assert str(exc.value) == "QRPERM_WORKERS wants an integer, got 'abc'"
    assert main(["scan-psi", "--pmin", "5", "--pmax", "7"]) == 1
    assert capsys.readouterr().err == \
        "error: QRPERM_WORKERS wants an integer, got 'abc'\n"


def test_config_dashes_and_bools(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tie-break = yes\nn-list = 8,16\n")
    loaded = load_config_file(str(cfg_file))
    assert loaded == {"tie_break": True, "n_list": "8,16"}
    cfg_file.write_text("tie_break = maybe\n")
    with pytest.raises(QrpermError, match="boolean"):
        load_config_file(str(cfg_file))


def test_resolve_rejects_stray_cli_keys():
    with pytest.raises(QrpermError, match="unknown config keys"):
        resolve("gen", {"frobnicate": 1})


def test_parse_int_list():
    assert parse_int_list("1, 2,3", "--x") == [1, 2, 3]
    assert parse_int_list("", "--x") == []
    assert parse_int_list("4;5", "--x") == [4, 5]
    with pytest.raises(QrpermError, match="--targets"):
        parse_int_list("1,x", "--targets")


def test_runconfig_defaults_are_frozen():
    cfg = RunConfig()
    with pytest.raises(Exception):
        cfg.workers = 3


# -------------------------------------------------------------------- CLI

def test_cli_gen_and_disc_round_trip(tmp_path, capsys):
    out_file = str(tmp_path / "perm.txt")
    assert main(["gen", "--family", "psi", "--n", "5", "--k", "2",
                 "--out-file", out_file]) == 0
    capsys.readouterr()
    sigma = from_text(Path(out_file).read_text())
    assert sigma.image == (0, 2, 4, 1, 3)
    assert main(["disc", "--from-file", out_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d_star"] == {"num": 4, "den": 5}
    assert report["d_exact"] == {"num": 4, "den": 5}


def test_cli_gen_stdout_and_invert(capsys):
    assert main(["gen", "--family", "psi", "--n", "5", "--k", "2",
                 "--invert"]) == 0
    sigma = from_text(capsys.readouterr().out)
    assert sigma.image == psi(5, 3).image


def test_cli_sums_kloosterman(capsys):
    assert main(["sums", "--kind", "kloosterman", "--n", "5", "--a", "1",
                 "--b", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["magnitude"] == pytest.approx((3 - math.sqrt(5)) / 2,
                                              abs=1e-9)


def test_cli_rejects_square_alpha(capsys):
    assert main(["gen", "--family", "sos", "--n", "8", "--alpha",
                 "sqrt:4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "square-free" in err


def test_cli_scan_psi_with_plot(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["scan-psi", "--pmin", "5", "--pmax", "19", "--out", out,
                 "--base", "t1", "--plot", "mean_dstar"]) == 0
    msg = capsys.readouterr().out
    assert "rows -> " in msg and "body sha256" in msg
    assert os.path.exists(os.path.join(out, "t1.csv"))
    assert os.path.exists(os.path.join(out, "t1_summary.json"))
    plot = os.path.join(out, "t1_plot_mean_dstar.csv")
    assert len(Path(plot).read_text().splitlines()) == 7


def test_cli_scan_plot_unknown_statistic(tmp_path, capsys):
    assert main(["scan-psi", "--pmin", "5", "--pmax", "7",
                 "--out", str(tmp_path), "--base", "t2",
                 "--plot", "nope"]) == 1
    assert "nope" in capsys.readouterr().err
    assert not (tmp_path / "t2_plot_nope.csv").exists()


def test_cli_bad_plot_leaves_the_previous_pair(tmp_path, capsys):
    argv = ["scan-psi", "--pmin", "5", "--pmax", "13", "--out",
            str(tmp_path), "--base", "demo"]
    assert main(argv + ["--pmax", "7"]) == 0
    paths = [tmp_path / "demo.csv", tmp_path / "demo_summary.json"]
    before = [p.read_bytes() for p in paths]
    capsys.readouterr()
    assert main(argv + ["--plot", "nope"]) == 1
    assert capsys.readouterr().err == \
        "error: no rows carry statistic 'nope'\n"
    assert [p.read_bytes() for p in paths] == before


def test_cli_unwritable_plot_leaves_no_summary_from_the_run(tmp_path,
                                                           capsys):
    argv = ["scan-psi", "--pmin", "5", "--out", str(tmp_path),
            "--base", "t"]
    assert main(argv + ["--pmax", "7"]) == 0
    paths = [tmp_path / "t.csv", tmp_path / "t_summary.json"]
    before = [p.read_bytes() for p in paths]
    (tmp_path / "t_plot_mean_dstar.csv").mkdir()
    capsys.readouterr()
    assert main(argv + ["--pmax", "13", "--plot", "mean_dstar"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not paths[1].exists() or \
        [p.read_bytes() for p in paths] == before
    assert set(os.listdir(tmp_path)) <= {  # no staging directory is left
        "t.csv", "t_summary.json", "t_plot_mean_dstar.csv"}


def test_cli_summary_names_its_plot_file(tmp_path, capsys):
    # a plot file outlives a later run without --plot; only the summary
    # of the run that wrote it names it, with the sha256 of its bytes
    argv = ["scan-psi", "--pmin", "5", "--pmax", "13", "--out",
            str(tmp_path), "--base", "t"]
    summary_path = tmp_path / "t_summary.json"
    plot_path = tmp_path / "t_plot_mean_dstar.csv"
    assert main(argv + ["--plot", "mean_dstar"]) == 0
    assert json.loads(summary_path.read_text())["plot"] == {
        "file": plot_path.name,
        "sha256": hashlib.sha256(plot_path.read_bytes()).hexdigest()}
    assert main(argv) == 0
    assert plot_path.exists()
    assert json.loads(summary_path.read_text())["plot"] is None


def test_cli_config_echo_names_workers_only_where_used(tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setenv("QRPERM_WORKERS", "4")
    runs = {
        "z": (["zaremba", "--nmin", "2", "--nmax", "5"], False),
        "o": (["obryant", "--alpha", "golden", "--limit", "20",
               "--targets", "3"], False),
        "p": (["scan-psi", "--pmin", "5", "--pmax", "7"], True),
        "g": (["scan-gauss", "--pmin", "5", "--pmax", "7"], True),
        "s": (["scan-sos", "--alphas", "golden", "--n-list", "8"], True),
    }
    for base, (argv, pooled) in runs.items():
        assert main(argv + ["--out", str(tmp_path), "--base", base]) == 0
        config = (tmp_path / f"{base}.csv").read_text().splitlines()[0]
        summary = json.loads((tmp_path / f"{base}_summary.json").read_text())
        assert ("workers=4" in config.split()) == pooled, config
        assert summary["config"].get("workers") == ("4" if pooled else None)


def test_cli_zaremba_stdout(capsys):
    assert main(["zaremba", "--nmin", "10", "--nmax", "10",
                 "--bound", "5"]) == 0
    out = capsys.readouterr().out
    assert "n=10 k=7 cf=[0; 1, 2, 3] max_quotient=3 avg=2 [ok]" in out


_ZAREMBA_LINE = re.compile(r"n=(\d+) k=(\d+) cf=\[[^]]*\] "
                           r"max_quotient=(\d+) avg=(\S+) \[(ok|exceeds)\]")


@pytest.mark.parametrize("bound, exceeds", [("7/2", 0), ("2", 3)])
def test_cli_zaremba_stdout_matches_the_scan_records(capsys, bound,
                                                     exceeds):
    # the printed mode and the --base mode report the same searches
    assert main(["zaremba", "--nmin", "2", "--nmax", "40",
                 "--bound", bound]) == 0
    printed = [_ZAREMBA_LINE.fullmatch(line).groups()
               for line in capsys.readouterr().out.splitlines()]
    rows = {}
    for r in scan_zaremba(2, 40, bound):
        rows.setdefault(r.n_or_p, {"k": dict(r.params)["k"]})[
            r.statistic] = r.value
    assert [int(n) for n, *_ in printed] == list(range(2, 41)) == \
        sorted(rows)
    for n, k, max_quotient, avg, mark in printed:
        row = rows[int(n)]
        assert (k, int(max_quotient), Fraction(avg), mark) == (
            row["k"], row["max_quotient"], row["max_prefix_avg"],
            "ok" if row["certified"] else "exceeds")
    assert [mark for *_, mark in printed].count("exceeds") == exceeds


SCAN_WRITERS = ("scan-psi", "scan-gauss", "scan-sos", "zaremba", "obryant")
OUTPUT_DESTS = {"out", "base", "plot"}


def test_cli_scan_writers_share_the_output_flags():
    subparsers = next(a for a in make_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    for name, sp in subparsers.items():
        dests = {a.dest for a in sp._actions} & OUTPUT_DESTS
        assert dests == (OUTPUT_DESTS if name in SCAN_WRITERS else set())
    for name in SCAN_WRITERS:
        pairs = vars(make_parser().parse_args(
            [name, "--out", "o", "--base", "b", "--plot", "s"]))
        assert {k: pairs[k] for k in OUTPUT_DESTS} == \
            {"out": "o", "base": "b", "plot": "s"}


@pytest.mark.parametrize("argv, plot, rows", [
    (["zaremba", "--nmin", "2", "--nmax", "12"], "max_quotient", 11),
    (["obryant", "--alpha", "golden", "--limit", "20"], "max_gap", 1),
])
def test_cli_base_mode_writes_the_plot_its_summary_names(tmp_path, capsys,
                                                         argv, plot, rows):
    assert main([*argv, "--out", str(tmp_path), "--base", "z",
                 "--plot", plot]) == 0
    plot_path = tmp_path / f"z_plot_{plot}.csv"
    assert json.loads((tmp_path / "z_summary.json").read_text())["plot"] \
        == {"file": plot_path.name,
            "sha256": hashlib.sha256(plot_path.read_bytes()).hexdigest()}
    assert capsys.readouterr().out.endswith(
        f"plot data ({rows} rows) -> {plot_path}\n")


def test_cli_zaremba_plot_flag_beats_the_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("plot = certified\n")
    argv = ["--config", str(cfg_file), "zaremba", "--nmin", "2",
            "--nmax", "6", "--out", str(tmp_path)]
    assert main([*argv, "--base", "c"]) == 0
    assert main([*argv, "--base", "f", "--plot", "max_quotient"]) == 0
    plots = sorted(p.name for p in tmp_path.glob("*_plot_*"))
    assert plots == ["c_plot_certified.csv", "f_plot_max_quotient.csv"]


def test_cli_obryant_stdout(capsys):
    assert main(["obryant", "--alpha", "sqrt:2", "--limit", "12",
                 "--targets", "7,5", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert "|A| = " in out
    assert "target 7: hit" in out
    assert "target 5: missing" in out
    assert "B(1..12) = 1 2 1 3 1 4 7 3 7 2 7 12" in out


def test_cli_obryant_breaks_rational_ties_by_position(capsys):
    # {3s/7} ties once the limit reaches 7; scans rank the smaller s first
    assert main(["obryant", "--alpha", "rat:3/7", "--limit", "20",
                 "--n", "9"]) == 0
    assert "B(1..9) = 1 2 1 3 1 4 1 5 9\n" in capsys.readouterr().out


_REPEATED_TARGETS = ["obryant", "--alpha", "golden", "--limit", "20",
                     "--targets", "7,5,7"]


def test_cli_obryant_prints_a_repeated_target_once(capsys):
    assert main(_REPEATED_TARGETS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [s for s in lines if s.startswith("target")] == \
        ["target 7: missing", "target 5: hit"]


def test_cli_obryant_scans_a_repeated_target_once(tmp_path):
    assert main([*_REPEATED_TARGETS, "--out", str(tmp_path),
                 "--base", "t"]) == 0
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert [r.split(",")[2] for r in rows if "target_hit" in r] == \
        ["alpha=golden;target=5", "alpha=golden;target=7"]
    assert scan_obryant("golden", 20, (7, 5, 7)) == \
        scan_obryant("golden", 20, (7, 5))


def test_cli_obryant_rejects_n_below_one(capsys):
    for n in ("-3", "0"):
        assert main(["obryant", "--alpha", "golden", "--limit", "10",
                     "--n", n]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"error: --n must be >= 1, got {n}")


def test_cli_obryant_ranks_only_the_printed_prefix(monkeypatch, capsys):
    import qrperm.scan as scan_mod
    built = []
    real = scan_mod.sos_perm

    def recording(n, alpha, **kw):
        built.append(n)
        return real(n, alpha, **kw)

    # the scan ranks all 30 first, then --n ranks only its prefix
    monkeypatch.setattr(scan_mod, "sos_perm", recording)
    for n, want in (("5", 5), ("40", 30)):
        assert main(["obryant", "--alpha", "golden", "--limit", "30",
                     "--n", n]) == 0
        out = capsys.readouterr().out
        seq = b_sequence(sos_perm(30, golden()))[:want]
        assert f"B(1..{want}) = {' '.join(map(str, seq))}" in out
    assert built == [30, 5, 30, 30]


def test_cli_sums_weyl_rejects_n_below_one(capsys):
    for n in ("0", "-3"):
        err = _assert_cli_error(["sums", "--kind", "weyl", "--n", n,
                                 "--alpha", "golden", "--k", "1"], capsys)
        assert f"--n must be >= 1, got {n}" in err


def test_cli_scan_sos_rejects_bad_points(tmp_path, capsys):
    scan = ["scan-sos", "--alphas", "golden", "--out", str(tmp_path)]
    err = _assert_cli_error([*scan, "--n-list", "64,64"], capsys)
    assert "duplicate sos scan point alpha=golden n=64" in err
    err = _assert_cli_error([*scan, "--n-list", "64,0"], capsys)
    assert "must be >= 1, got 0" in err
    assert os.listdir(tmp_path) == []


def test_cli_scan_sos_keeps_quad_handles_whole(tmp_path, capsys):
    # a quad: handle keeps its four fields, from the flag and the config
    # key alike; a short one still ends in error:
    labels = ["golden", "quad:1,3,5,2"]
    want = csv_rows(scan_sos(labels, [16, 32]))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alphas = golden, quad:1,3,5,2\n")
    scan = ["scan-sos", "--n-list", "16,32", "--out", str(tmp_path)]
    for argv in ([*scan, "--alphas", ",".join(labels), "--base", "a"],
                 ["--config", str(cfg_file), *scan, "--base", "b"]):
        assert main(argv) == 0
        csv_path = tmp_path / f"{argv[-1]}.csv"
        assert csv_path.read_text().splitlines()[1:] == want
    err = _assert_cli_error([*scan, "--alphas", "golden,quad:1,2"], capsys)
    assert "quad needs exactly a,b,d,c" in err


def test_cli_obryant_rejects_short_limit(capsys):
    assert main(["obryant", "--alpha", "golden", "--limit", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limit >= 2" in err


def test_cli_disc_rejects_non_integer_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 x 2\n# family=custom\n")
    assert main(["disc", "--from-file", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _assert_cli_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_cli_negative_alpha_handle_needs_equals(capsys):
    assert main(["disc", "--family", "sos", "--n", "20",
                 "--alpha=-golden"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["alpha"] == \
        "-golden"
    # argparse reads a separate -golden as a flag
    err = _assert_cli_error(["disc", "--family", "sos", "--n", "20",
                             "--alpha", "-golden"], capsys)
    assert err.count("error:") == 1 and err.count("\n") == 1


def test_cli_argparse_errors_keep_the_error_contract(capsys):
    assert "invalid int value: 'abc'" in _assert_cli_error(
        ["disc", "--n", "abc"], capsys)
    assert "invalid choice: 'nope'" in _assert_cli_error(
        ["disc", "--family", "nope", "--n", "7"], capsys)
    assert "invalid choice: 'frobnicate'" in _assert_cli_error(
        ["frobnicate"], capsys)
    for argv in (["--version"], ["disc", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(("qrperm ", "usage: "))


@pytest.mark.parametrize("argv, flag", [
    (["obryant", "--limit", "0", "--n=--"], "--n"),
    (["disc", "--family", "psi", "--n=--", "--k", "2"], "--n"),
    (["disc", "--family", "sos", "--n", "7", "--alpha=--"], "--alpha"),
    (["scan-psi", "--pmin=--", "--pmax", "7"], "--pmin"),
    (["--config=--", "disc", "--family", "psi", "--n", "7", "--k", "2"],
     "--config"),
])
def test_cli_rejects_flag_equals_double_dash(argv, flag, capsys):
    # argparse parses --flag=-- to [], a value no command can use
    assert _assert_cli_error(argv, capsys) == \
        f"error: argument {flag}: expected one argument\n"


def test_cli_builds_one_parser_per_process():
    assert make_parser() is make_parser()


DISC_ARGV = ["disc", "--family", "psi", "--n", "13", "--k", "2"]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports this qrperm."""
    src = str(Path(qrperm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=False)


@pytest.fixture(scope="module")
def fresh_disc_run():
    """stdout and exit code of one disc call in a fresh interpreter."""
    done = _fresh_python("import sys; from qrperm.cli import main; "
                         f"sys.exit(main({DISC_ARGV!r}))")
    return done.stdout, done.returncode


def test_commands_without_a_pool_import_no_heavy_modules(tmp_path):
    # numpy.ma (np.unique imports it) adds about 2 MB of peak RSS, and
    # only a pool needs multiprocessing.connection or subprocess
    out = str(tmp_path)
    runs = [DISC_ARGV,
            ["stats", "--family", "psi", "--n", "13", "--k", "2"],
            ["scan-sos", "--alphas", "golden,rat:5/13", "--n-list", "64",
             "--workers", "1", "--out", out],
            ["scan-psi", "--pmin", "5", "--pmax", "31", "--workers", "1",
             "--out", out]]
    done = _fresh_python(
        "import sys\nfrom qrperm.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "heavy = ('numpy.ma', 'multiprocessing.connection', 'subprocess')\n"
        "print(codes, [m for m in heavy if m in sys.modules])\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


@pytest.mark.parametrize("failing", [
    ["disc", "--family", "psi", "--n", "abc"],
    ["disc", "--family", "psi", "--n=--", "--k", "2"],
    ["disc", "--family", "psi", "--n", "13", "--k", "2", "--bogus"],
    ["disc", "--family", "psi", "--n", "13", "--k", "13"],
    ["--config", "no-such-file.cfg", *DISC_ARGV],
    ["frobnicate"],
])
def test_cli_call_after_a_failed_call_matches_a_fresh_process(
        failing, fresh_disc_run, capsys):
    # the one shared parser keeps nothing from a call that failed in
    # parsing, in the value checks after it, or in the command
    _assert_cli_error(failing, capsys)
    code = main(DISC_ARGV)
    assert (capsys.readouterr().out, code) == fresh_disc_run
    assert fresh_disc_run[1] == 0


def test_cli_zaremba_rejects_non_numeric_bound(capsys):
    err = _assert_cli_error(["zaremba", "--nmin", "5", "--nmax", "6",
                             "--bound", "abc"], capsys)
    assert "'abc'" in err


def test_cli_zaremba_rejects_zero_denominator_bound(capsys):
    err = _assert_cli_error(["zaremba", "--nmin", "5", "--nmax", "6",
                             "--bound", "1/0"], capsys)
    assert "'1/0'" in err


def test_cli_zaremba_rejects_bad_bound_on_empty_range(capsys):
    err = _assert_cli_error(["zaremba", "--nmin", "6", "--nmax", "5",
                             "--bound", "abc"], capsys)
    assert "'abc'" in err


def test_cli_rejects_workers_below_one(tmp_path, monkeypatch, capsys):
    scan = ["scan-psi", "--pmin", "5", "--pmax", "7",
            "--out", str(tmp_path)]
    err = _assert_cli_error([*scan, "--workers", "-2"], capsys)
    assert "workers must be >= 1, got -2" in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("workers = 0\n")
    _assert_cli_error(["--config", str(cfg_file), *scan], capsys)
    monkeypatch.setenv("QRPERM_WORKERS", "0")
    _assert_cli_error(scan, capsys)
    assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


def test_cli_rejects_negative_exact_cap(tmp_path, capsys):
    disc = ["disc", "--family", "psi", "--n", "263", "--k", "2"]
    err = _assert_cli_error([*disc, "--exact-cap=-1"], capsys)
    assert "error: exact_cap must be >= 0, got -1" in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("exact_cap = -1\n")
    err = _assert_cli_error(["--config", str(cfg_file), *disc], capsys)
    assert "error: exact_cap must be >= 0, got -1" in err


def test_cli_disc_rejects_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "perm.bin"
    bad.write_bytes(b"3\n0 \xff 2\n")
    _assert_cli_error(["disc", "--from-file", str(bad)], capsys)


def test_cli_rejects_non_utf8_config(tmp_path, capsys):
    bad = tmp_path / "run.cfg"
    bad.write_bytes(b"workers = \xff\n")
    _assert_cli_error(["--config", str(bad), "disc", "--family", "psi",
                       "--n", "7", "--k", "3"], capsys)


def test_cli_stats_rejects_nan_alpha(capsys):
    err = _assert_cli_error(["stats", "--family", "psi", "--n", "31",
                             "--k", "7", "--alpha-exp", "nan"], capsys)
    assert "positive and finite" in err


def test_cli_stats_honours_exact_cap(capsys):
    flags = ["--family", "random", "--seed", "1", "--n", "520",
             "--exact-cap", "1024"]
    assert main(["stats", *flags]) == 0
    ub = json.loads(capsys.readouterr().out)["ub"]
    assert main(["disc", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d_exact"] is not None
    assert ub == report["d_upper"]


def test_cli_stats_writes_every_pattern_key_above_2000(capsys):
    assert main(["stats", "--family", "psi", "--n", "2003", "--k", "7"]) == 0
    counts = json.loads(capsys.readouterr().out)["pattern_counts"]
    assert sorted(counts) == ["01", "012", "021", "10", "102", "120",
                              "201", "210"]
    assert counts["01"] + counts["10"] == math.comb(2003, 2)
    assert sum(v for key, v in counts.items() if len(key) == 3) \
        == math.comb(2003, 3)


def test_cli_stats_profile(capsys):
    assert main(["stats", "--family", "psi", "--n", "31", "--k", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["two_s"] == 69
    assert data["sp_max"] == {"num": 23, "den": 31}


def test_cli_worker_counts_give_identical_bodies(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["scan-psi", "--pmin", "5", "--pmax", "31", "--out", out,
                 "--base", "w1", "--workers", "1"]) == 0
    assert main(["scan-psi", "--pmin", "5", "--pmax", "31", "--out", out,
                 "--base", "w2", "--workers", "2"]) == 0
    capsys.readouterr()
    body1 = Path(os.path.join(out, "w1.csv")).read_text().split("\n", 1)[1]
    body2 = Path(os.path.join(out, "w2.csv")).read_text().split("\n", 1)[1]
    assert body1 == body2
    s1 = json.loads(Path(os.path.join(out, "w1_summary.json")).read_text())
    s2 = json.loads(Path(os.path.join(out, "w2_summary.json")).read_text())
    assert s1["csv_body_sha256"] == s2["csv_body_sha256"]
    assert s1["config"]["workers"] == "1"
    assert s2["config"]["workers"] == "2"
