"""Span tracing for the benchmark's traced run, built outside the program.

`Tracer.install()` replaces every public qrperm function at every module
binding that holds it (`qrperm.scan.d_star` and `qrperm.qrstats.d_star`
are separate bindings of one function) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Functions
of `qrperm.quadirr` run once per element inside sorts and sweeps, so
they get a call count instead of a span.  `uninstall()` puts the
original objects back.

The scan pool is reached through `qrperm.scan._pool_map`, the one
private binding patched: each task runs inside `_traced_task`, which
records into a fresh buffer and ships its spans and counts back with
the result, so spans from fork workers land in the parent's list under
a `scan.pool` span.  Spans stay in memory until the caller writes them.

Timestamps are `time.perf_counter_ns()`, which is CLOCK_MONOTONIC on
Linux and therefore comparable between the parent and its workers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "qrperm"
COUNTED_MODULES = ("qrperm.quadirr",)

# A span is [name, start_ns, end_ns, parent_index, extra]; parent -1 is
# a root.  Lists rather than objects keep the wrapper cheap.
NAME, START, END, PARENT, EXTRA = range(5)

_ACTIVE: "Tracer | None" = None   # read by _traced_task inside workers


def _n_of(args, kwargs, pos: int, key: str) -> int:
    value = args[pos] if len(args) > pos else kwargs[key]
    return value if isinstance(value, int) else value.n


# Extra facts recorded per call, computed from arguments and results
# only.  Cell counts are operation counts computed from n, not measured.
def _d_star_extra(args, kwargs, result, delta):
    n = _n_of(args, kwargs, 0, "sigma")
    return {"cells": n * (n + 1)}


def _d_exact_extra(args, kwargs, result, delta):
    n = _n_of(args, kwargs, 0, "sigma")
    return {"cells": n * (n + 1) ** 2 // 2}


def _report_extra(args, kwargs, result, delta):
    return {"fallback": result.d_exact is None}


def _prefix_extra(args, kwargs, result, delta):
    n = _n_of(args, kwargs, 1, "n")
    return {"cells": n * n}


def _sos_extra(args, kwargs, result, delta):
    # the certified path makes exactly n - 1 adjacent comparisons; any
    # more means the comparator sort ran
    n = _n_of(args, kwargs, 0, "n")
    return {"fallback": delta("quadirr.frac_compare") > n - 1}


def _emit_extra(args, kwargs, result, delta):
    return {"bytes": os.path.getsize(result.csv_path)
            + os.path.getsize(result.summary_path)}


HOOKS = {
    "discrepancy.d_star": _d_star_extra,
    "discrepancy.d_exact": _d_exact_extra,
    "discrepancy.build_report": _report_extra,
    "ranksets.max_prefix_star": _prefix_extra,
    "families.sos_perm": _sos_extra,
    "scan.emit": _emit_extra,
}


class Tracer:
    """In-memory span recorder for the functions of qrperm."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # ------------------------------------------------------- wrappers
    def _span_wrapper(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            before = dict(self.counts) if hook else None
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if hook:
                rec[EXTRA] = hook(
                    args, kwargs, result,
                    lambda key: self.counts[key] - before.get(key, 0))
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1   # not cached: _traced_task swaps it
            return fn(*args, **kwargs)
        return wrapper

    def _pool_wrapper(self, pool_map):
        @functools.wraps(pool_map)
        def wrapper(fn, points, workers):
            rec = ["scan.pool", 0, 0, self.stack[-1] if self.stack else -1,
                   None]
            pool_at = len(self.spans)
            self.spans.append(rec)
            rec[START] = time.perf_counter_ns()
            shipped = pool_map(functools.partial(_traced_task, fn), points,
                               workers)
            rec[END] = time.perf_counter_ns()
            results = []
            last_end: dict[int, int] = {}
            busy = 0
            for result, spans, counts, pid, start, end in shipped:
                self._adopt(spans, counts, pool_at, pid, start, end)
                last_end[pid] = max(last_end.get(pid, 0), end)
                busy += end - start
                results.append(result)
            ends = sorted(last_end.values())
            rec[EXTRA] = {"points": len(points), "workers": len(last_end),
                          "busy_ns": busy,
                          "capacity_ns": len(last_end) * (rec[END]
                                                          - rec[START]),
                          "tail_ns": ends[-1] - ends[0] if ends else 0}
            return results
        return wrapper

    def _adopt(self, spans, counts, parent: int, pid: int, start: int,
              end: int) -> None:
        """Append a worker task's spans under one `scan.task` span."""
        base = len(self.spans)
        self.spans.append(["scan.task", start, end, parent, {"pid": pid}])
        for name, t0, t1, up, extra in spans:
            self.spans.append([name, t0, t1, base if up < 0 else base + 1 + up,
                               extra])
        self.counts.update(counts)

    # ------------------------------------------------ install / remove
    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        wrappers: dict[int, object] = {}
        prefix = PACKAGE + "."
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(prefix)):
                    continue
                if id(obj) not in wrappers:
                    name = (obj.__module__[len(prefix):] + "."
                            + obj.__name__)
                    make = (self._count_wrapper
                            if obj.__module__ in COUNTED_MODULES
                            else self._span_wrapper)
                    wrappers[id(obj)] = make(name, obj)
                self._patch(module, attr, wrappers[id(obj)])
        scan = sys.modules[prefix + "scan"]
        self._patch(scan, "_pool_map", self._pool_wrapper(scan._pool_map))
        _ACTIVE = self

    def _patch(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, old in reversed(self._saved):
            setattr(module, attr, old)
        self._saved.clear()
        _ACTIVE = None



def _traced_task(fn, point):
    """Run one pool task with a fresh span buffer and return the buffer
    with the result; the parent adopts it (see Tracer._adopt)."""
    tracer = _ACTIVE
    saved = tracer.spans, tracer.stack, tracer.counts
    tracer.spans, tracer.stack, tracer.counts = [], [], Counter()
    start = time.perf_counter_ns()
    try:
        result = fn(point)
        end = time.perf_counter_ns()
        return (result, tracer.spans, tracer.counts, os.getpid(), start,
                end)
    finally:
        tracer.spans, tracer.stack, tracer.counts = saved


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may overlap (pool tasks run in parallel), so
    the covered part is the length of the union of their intervals,
    clipped to the parent.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0
        cur_lo = cur_hi = None
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, lo), min(c1, hi)
            if c1 <= c0:
                continue
            if cur_hi is None or c0 > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c0, c1
            else:
                cur_hi = max(cur_hi, c1)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


# ------------------------------------------------- per-layer metrics

# (metric, unit) in report order; every one is reported on every
# workload, as 0 where the workload bypasses the layer.
LAYER_METRICS = (
    ("discrepancy.d_star.calls", "count"),
    ("discrepancy.d_star.self_s", "s"),
    ("discrepancy.d_star.cells", "count"),
    ("discrepancy.d_star.ns_per_cell", "ns"),
    ("discrepancy.d_exact.calls", "count"),
    ("discrepancy.d_exact.self_s", "s"),
    ("discrepancy.d_exact.cells", "count"),
    ("discrepancy.d_exact.ns_per_cell", "ns"),
    ("discrepancy.build_report.fallback_frac", "ratio"),
    ("scan.pool.workers_used", "count"),
    ("scan.pool.busy_frac", "ratio"),
    ("scan.pool.tail_s", "s"),
    ("scan.points", "count"),
    ("scan.emit.self_s", "s"),
    ("scan.emit.bytes", "B"),
    ("ranksets.max_prefix_star.calls", "count"),
    ("ranksets.max_prefix_star.self_s", "s"),
    ("ranksets.max_prefix_star.ns_per_cell", "ns"),
    ("families.sos_perm.self_s", "s"),
    ("families.sos_perm.certified_frac", "ratio"),
    ("quadirr.frac_compare.calls", "count"),
    ("quadirr.frac_float.calls", "count"),
    ("qrstats.eigenvalue_stat.self_s", "s"),
    ("qrstats.pattern_count.self_s", "s"),
    ("qrstats.property_profile.self_s", "s"),
    ("expsums.calls", "count"),
    ("expsums.self_s", "s"),
    ("families.calls", "count"),
    ("families.self_s", "s"),
    ("cfrac.calls", "count"),
    ("cfrac.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, counts, rounds: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-round layer metrics from the spans of `rounds` equal rounds.

    Totals are divided by `rounds`, so counts repeat exactly between
    runs that did a different number of rounds.  Self times sum over
    processes, so on a pooled scan they can exceed wall time.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    extra: dict[str, Counter] = defaultdict(Counter)
    workers_used = 0
    for rec, own in zip(spans, selfs):
        name = rec[NAME]
        calls[name] += 1
        self_ns[name] += own
        module = name.split(".", 1)[0]
        if name not in ("scan.pool", "scan.task"):
            calls[module] += 1
            self_ns[module] += own
        for key, value in (rec[EXTRA] or {}).items():
            extra[name][key] += int(value)
        if name == "scan.pool":
            workers_used = max(workers_used, rec[EXTRA]["workers"])

    def per_round(x):
        return x / rounds

    def secs(name):
        return self_ns[name] / 1e9 / rounds

    out = {}
    for name in ("discrepancy.d_star", "discrepancy.d_exact"):
        cells = extra[name]["cells"]
        out[f"{name}.calls"] = per_round(calls[name])
        out[f"{name}.self_s"] = secs(name)
        out[f"{name}.cells"] = per_round(cells)
        out[f"{name}.ns_per_cell"] = _share(self_ns[name], cells)
    out["discrepancy.build_report.fallback_frac"] = _share(
        extra["discrepancy.build_report"]["fallback"],
        calls["discrepancy.build_report"])
    pool = extra["scan.pool"]
    out["scan.pool.workers_used"] = float(workers_used)
    out["scan.pool.busy_frac"] = _share(pool["busy_ns"], pool["capacity_ns"])
    out["scan.pool.tail_s"] = pool["tail_ns"] / 1e9 / rounds
    out["scan.points"] = per_round(pool["points"])
    out["scan.emit.self_s"] = secs("scan.emit")
    out["scan.emit.bytes"] = per_round(extra["scan.emit"]["bytes"])
    name = "ranksets.max_prefix_star"
    out[f"{name}.calls"] = per_round(calls[name])
    out[f"{name}.self_s"] = secs(name)
    out[f"{name}.ns_per_cell"] = _share(self_ns[name], extra[name]["cells"])
    name = "families.sos_perm"
    out[f"{name}.self_s"] = secs(name)
    out[f"{name}.certified_frac"] = _share(
        calls[name] - extra[name]["fallback"], calls[name])
    for name in ("quadirr.frac_compare", "quadirr.frac_float"):
        out[f"{name}.calls"] = per_round(counts.get(name, 0))
    for fn in ("eigenvalue_stat", "pattern_count", "property_profile"):
        out[f"qrstats.{fn}.self_s"] = secs(f"qrstats.{fn}")
    for name in ("expsums", "families", "cfrac", "cli.main"):
        out[f"{name}.calls"] = per_round(calls[name])
        out[f"{name}.self_s"] = secs(name)
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _ in LAYER_METRICS}
