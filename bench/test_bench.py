"""Tests of the benchmark itself (not of qrperm).

    python3 -m pytest bench/test_bench.py

The traced-run tests run each workload for two short traced runs, so
the file takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracing
import workloads

CLI = run.import_program()
BENCH = os.path.dirname(os.path.abspath(__file__))


# ------------------------------------------------------- self times

def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, extra]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("b", 30, 60, 0),      # overlaps a: union 10..60
        _span("c", 15, 20, 1),
        _span("d", 90, 120, 0),     # runs past its parent: clipped at 100
    ]
    assert tracing.self_times(spans) == [40, 25, 30, 5, 30]


def test_layer_metrics_are_per_round():
    spans = []
    for r in range(2):
        base = 1000 * r
        spans.append(_span("cli.main", base, base + 500, -1))
        root = len(spans) - 1
        spans.append(_span("discrepancy.d_star", base + 100, base + 300,
                           root, {"cells": 20}))
        spans.append(_span("discrepancy.build_report", base + 300,
                           base + 400, root, {"fallback": r == 0}))
    got = tracing.layer_metrics(spans, {"quadirr.frac_float": 6}, 2, 0.5)
    assert got["cli.main.calls"] == 1
    assert got["cli.main.self_s"] == 200e-9
    assert got["discrepancy.d_star.calls"] == 1
    assert got["discrepancy.d_star.cells"] == 20
    assert got["discrepancy.d_star.ns_per_cell"] == 10
    assert got["discrepancy.build_report.fallback_frac"] == 0.5
    assert got["quadirr.frac_float.calls"] == 3
    assert got["trace.overhead_frac"] == 0.5
    assert list(got) == [name for name, _ in tracing.LAYER_METRICS]


# ---------------------------------------------------- output checks

def test_json_output_checks():
    inv = workloads.Invocation(("disc", "--family", "psi", "--n", "61",
                                "--k", "7"), 1)
    rc, stdout, _, _, _ = run.invoke(CLI, inv.argv)
    assert rc == 0
    digest = workloads.check_json(inv, stdout)
    table = {"analyze": {inv.key: digest}}
    assert workloads.check(inv, "analyze", table, stdout, "") == digest
    with pytest.raises(workloads.CheckFailed):
        workloads.check_json(inv, stdout[:-5])          # truncated JSON
    obj = json.loads(stdout)
    obj["ratio_sqrt"] *= 1.001                          # wrong, still valid
    with pytest.raises(workloads.CheckFailed):
        workloads.check(inv, "analyze", table, json.dumps(obj), "")
    obj = json.loads(stdout)
    obj["d_upper"]["num"] = 5 * obj["d_star"]["num"]    # breaks D <= 4 D*
    with pytest.raises(workloads.CheckFailed):
        workloads.check_json(inv, json.dumps(obj))
    with pytest.raises(workloads.CheckFailed):
        workloads.check(inv, "analyze", {}, stdout, "")  # nothing recorded


def test_scan_output_checks(tmp_path):
    inv = workloads.Invocation(("scan-psi", "--pmin", "101", "--pmax", "113",
                                "--workers", "1"), 0)
    out = str(tmp_path)
    rc, stdout, _, _, _ = run.invoke(
        CLI, inv.argv + ("--out", out, "--base", workloads.SCAN_BASE))
    assert rc == 0
    digest = workloads.check_scan(inv, stdout, out)
    table = {"psi-scan": {inv.key: digest}}
    assert workloads.check(inv, "psi-scan", table, stdout, out) == digest
    with pytest.raises(workloads.CheckFailed):
        workloads.check(inv, "psi-scan", {"psi-scan": {inv.key: "0" * 64}},
                        stdout, out)
    path = os.path.join(out, workloads.SCAN_BASE + ".csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("mean_dstar,", "mean_dstar,1", 1))
    with pytest.raises(workloads.CheckFailed):
        workloads.check(inv, "psi-scan", table, stdout, out)


@pytest.mark.parametrize("main", [
    lambda argv: print("{not json") or 0,               # corrupt output
    lambda argv: 1,                                     # non-zero exit
    lambda argv: 1 // 0,                                # exception
])
def test_round_counts_every_bad_invocation(main, tmp_path):
    rnd = workloads.make_round("analyze", 0, 2)
    expected = workloads.load_expected()
    stub = types.SimpleNamespace(main=main)
    _, _, failed = run.run_round(stub, "analyze", rnd, expected,
                                 str(tmp_path))
    assert failed == len(rnd.invocations)


def test_pool_never_gets_more_workers_than_usable_cpus():
    for cpus in (1, 2, 64):
        inv, = workloads.make_round("psi-scan", 0, cpus).invocations
        workers = int(inv.argv[inv.argv.index("--workers") + 1])
        assert 1 <= workers <= cpus


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------- traced runs

def _traced(workload):
    rnd = workloads.make_round(workload, 3, run.usable_cpus())
    plain, traced, tracer, attempted, failed = run.measure(
        CLI, workload, rnd, workloads.load_expected(), 0, True)
    assert failed == 0 and len(traced) == 1
    return tracing.layer_metrics(tracer.spans, tracer.counts, 1, 0.0)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_twice(request):
    return request.param, _traced(request.param), _traced(request.param)


def test_counts_repeat_exactly(traced_twice):
    _, first, second = traced_twice
    counts = [name for name, unit in tracing.LAYER_METRICS
              if unit == "count"] + [
        "discrepancy.build_report.fallback_frac",
        "families.sos_perm.certified_frac"]
    assert "discrepancy.d_star.cells" in counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_bypass_predictions_hold(traced_twice):
    workload, got, _ = traced_twice
    assert got["cli.main.calls"] >= 1
    assert got["scan.pool.workers_used"] <= run.usable_cpus()
    if workload == "psi-scan":
        assert got["discrepancy.d_star.calls"] > 1000
        assert got["discrepancy.d_exact.calls"] == 0
        assert got["ranksets.max_prefix_star.calls"] == 0
        assert got["quadirr.frac_compare.calls"] == 0
        assert got["scan.pool.workers_used"] == min(2, run.usable_cpus())
    elif workload == "sos-scan":
        assert got["discrepancy.d_exact.calls"] == 0
        assert got["scan.pool.workers_used"] == 1
        assert got["ranksets.max_prefix_star.calls"] == 3 * len(
            workloads.SOS_SIZES)
        assert got["families.sos_perm.certified_frac"] == 1
        assert got["quadirr.frac_compare.calls"] > 0
    else:
        assert got["discrepancy.d_exact.calls"] > 0
        assert got["scan.pool.workers_used"] == 0
        assert got["scan.points"] == 0
        assert 0 < got["discrepancy.build_report.fallback_frac"] < 1
