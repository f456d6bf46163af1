#!/usr/bin/env python3
"""The qrperm benchmark: one command, one workload per run.

    python3 bench/run.py --workload {psi-scan,sos-scan,analyze} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports qrperm from `src/` of
that checkout and calls `qrperm.cli.main(argv)` in process.  The load
is a closed loop with one client: a round of invocations (see
workloads.py) starts only after the previous one returned, and rounds
repeat until S seconds have passed.  Every output is checked.

--trace 0 prints the end-to-end metrics, each a median over rounds
with its sample count, measured with tracing off.  --trace 1
alternates untraced and traced rounds and prints the per-layer
metrics from the traced ones (see tracing.py); it writes the spans to
.bench_out/.  The last line of stdout is always one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("perms_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import qrperm from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "qrperm", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no qrperm sources at {init}")
    # held fixed before numpy loads, so BLAS threads never vary by run
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import qrperm.cli
    if os.path.abspath(qrperm.__file__) != init:
        raise SystemExit(f"error: imported qrperm from {qrperm.__file__}")
    return qrperm.cli


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------ running

def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def invoke(cli, argv) -> tuple[int | None, str, str, float, float]:
    """One closed-loop call of the public entry point."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:           # argparse rejects argv this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:                   # noqa: BLE001 - counted, not fatal
        rc = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def run_round(cli, workload, rnd, expected, work_dir):
    """Run one round; returns (wall_s, cpu_s, failed invocations)."""
    wall = cpu = 0.0
    failed = 0
    for inv in rnd.invocations:
        argv = inv.argv
        if inv.is_scan:
            shutil.rmtree(work_dir, ignore_errors=True)  # no stale outputs
            argv += ("--out", work_dir, "--base", workloads.SCAN_BASE)
        rc, stdout, stderr, dt, dc = invoke(cli, argv)
        wall += dt
        cpu += dc
        try:
            if rc != 0:
                raise workloads.CheckFailed(
                    f"exit code {rc}: {stderr.strip()[-2000:]}")
            workloads.check(inv, workload, expected, stdout, work_dir)
        except Exception as exc:        # noqa: BLE001 - any bad output
            failed += 1
            print(f"FAILED {inv.key}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return wall, cpu, failed


def measure(cli, workload, rnd, expected, seconds, trace):
    """Closed loop of rounds for `seconds`; with trace, alternate
    untraced and traced rounds (both at least once)."""
    work_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []          # (wall, cpu) per round
    attempted = failed = 0
    t_start = time.perf_counter()
    try:
        while (not plain or (trace and not traced)
               or time.perf_counter() - t_start < seconds):
            use_trace = trace and len(traced) < len(plain)
            if use_trace:
                tracer.install()
            try:
                wall, cpu, bad = run_round(cli, workload, rnd, expected,
                                           work_dir)
            finally:
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else plain).append((wall, cpu))
            attempted += len(rnd.invocations)
            failed += bad
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return plain, traced, tracer, attempted, failed


def measure_setup(workload, seed) -> list[float]:
    """Wall time of fresh processes that import qrperm and build the
    workload's inputs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# -------------------------------------------------------- environment

def _blas() -> tuple[str, int | None]:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        version = "unknown"
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return version, fn()
    return version, None


def _cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/"
                                  "index*")):
        with contextlib.suppress(OSError):
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                out[f"l{level}"] = size
    return out


def environment(rnd) -> dict:
    import numpy
    blas_version, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "blas_threads_env": BLAS_THREADS,
        "usable_cpus": usable_cpus(),
        "cpu_model": _cpu_model(),
        **_caches(),
        "dstar_max_n": rnd.max_dstar_n,
        "dstar_block_bytes": rnd.dstar_block_bytes,
    }


# ------------------------------------------------------------ report

def _line(name, value, unit, note):
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    rnd = workloads.make_round(args.workload, args.seed, usable_cpus())
    if args.setup_probe:
        return 0
    expected = workloads.load_expected()

    plain, traced, tracer, attempted, failed = measure(
        cli, args.workload, rnd, expected, args.seconds, bool(args.trace))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    env = environment(rnd)
    walls = [w for w, _ in plain]
    print(f"qrperm benchmark: workload {args.workload}, seed {args.seed}, "
          f"closed loop with 1 client, {len(rnd.invocations)} invocations "
          f"and {rnd.members} permutations per round")
    if args.trace:
        over = (statistics.median(w for w, _ in traced)
                / statistics.median(walls) - 1)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts,
                                        len(traced), over)
        note = f"per round, {len(traced)} traced rounds"
        for name, unit in tracing.LAYER_METRICS:
            _line(name, metrics[name], unit, note)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                                 ".json")
        selfs = tracing.self_times(tracer.spans)
        with open(path, "w") as fh:
            json.dump({"env": env, "rounds": len(traced),
                       "metrics": metrics, "counts": tracer.counts,
                       "spans": [rec + [own] for rec, own
                                 in zip(tracer.spans, selfs)]}, fh)
        print(f"  spans -> {os.path.relpath(path, ROOT)}")
    else:
        setups = measure_setup(args.workload, args.seed)
        rounds = f"median of {len(plain)} rounds"
        values = {
            "wall_s": (statistics.median(walls), rounds),
            "cpu_s": (statistics.median(c for _, c in plain), rounds),
            "perms_per_s": (statistics.median(rnd.members / w
                                              for w in walls), rounds),
            "setup_s": (statistics.median(setups),
                        f"median of {len(setups)} processes"),
            "peak_rss_mb": (rss_kb / 1024, "peak of the run"),
        }
        metrics = {}
        for name, unit in END_TO_END:
            value, note = values[name]
            _line(name, value, unit, note)
            metrics[name] = value
        _line("error_rate", failed / attempted, "",
              f"{failed} failed of {attempted} invocations")
    print("env " + json.dumps(env, sort_keys=True))
    units = dict(tracing.LAYER_METRICS if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
