#!/usr/bin/env python3
"""Record the output digests that the benchmark's checks compare with.

    python3 bench/record.py

Runs every invocation of every workload at every parameter set (seeds
0 .. PARAM_SETS - 1) on the checkout's qrperm, checks each output's
invariants, and writes bench/expected.json.  Run it only at a commit
whose outputs are trusted: from then on the digests stand in for the
exact outputs.  It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    cli = run.import_program()
    work_dir = os.path.join(run.OUT, f"record-{os.getpid()}")
    table: dict[str, dict[str, str]] = {}
    try:
        for workload in workloads.WORKLOADS:
            digests = table.setdefault(workload, {})
            for seed in range(workloads.PARAM_SETS):
                rnd = workloads.make_round(workload, seed, run.usable_cpus())
                for inv in rnd.invocations:
                    if inv.key in digests:
                        continue
                    argv = inv.argv
                    if inv.is_scan:
                        shutil.rmtree(work_dir, ignore_errors=True)
                        argv += ("--out", work_dir, "--base",
                                 workloads.SCAN_BASE)
                    rc, stdout, stderr, _, _ = run.invoke(cli, argv)
                    if rc != 0:
                        print(f"{inv.key}: exit {rc}\n{stderr}",
                              file=sys.stderr)
                        return 1
                    digests[inv.key] = (
                        workloads.check_scan(inv, stdout, work_dir)
                        if inv.is_scan else workloads.check_json(inv, stdout))
                    print(f"{workload} {inv.key} {digests[inv.key][:12]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
