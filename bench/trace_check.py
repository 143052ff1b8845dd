"""Check that per-layer counts repeat exactly between two traced runs of one seed.

    python3 bench/trace_check.py

Runs `bench/run.py --trace 1` twice per workload (seed 1, the minimum of
four passes) and compares every count (calls, entries, windows scanned,
pool items, orbit steps, ...).  Prints each count that differs and exits 1;
exits 0 when all counts repeat.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import tracing
import workloads

SEED = 1
SECONDS = 1


def traced_counts(workload):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"traced run of {workload} failed:\n{proc.stderr}")
    path = os.path.join(run.ROOT, run.WORK, "results", f"{workload}-seed{SEED}-trace1.json")
    with open(path, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    return {k: v for k, v in metrics.items() if tracing.is_count(k)}


def main():
    bad = 0
    for workload in workloads.NAMES:
        a = traced_counts(workload)
        b = traced_counts(workload)
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        for k in diff:
            print(f"COUNT MISMATCH {workload} {k}: {a.get(k)} vs {b.get(k)}")
        print(f"{workload}: {len(a)} counts, {len(diff)} differ")
        bad += len(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
