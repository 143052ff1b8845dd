"""One-off baseline ladder: wall time of the CLI process along doubling sizes.

    python3 bench/ladder.py

Reproduces the "Baseline to beat" table of ROADMAP.md.  Each rung is a
fresh `hyperorbit` process (`--workers 1` unless the row says otherwise)
with a timeout of TIMEOUT_S seconds; a rung that times out is recorded as a
timeout and the larger rungs of its row are skipped.  Every row is run.  For each row the log-log slope of
time against size is fitted over the rungs that finished.  Results, with
the environment block, go to bench/results/ladder.json.  Not part of the
gated runs.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from math import factorial

import run

LAUNCH = "import sys; from hyperorbit.cli import main; sys.exit(main(sys.argv[1:]))"
TABLE = os.path.join(run.WORK, "ladder", "table5000.txt")
TIMEOUT_S = 120

# row -> [(size, argv, workers)]
ROWS = {
    "construct": [(h, ["construct", "--depth", "4", "--horizon", str(h)], 1) for h in (10_000, 20_000, 40_000)],
    "densities-factorial": [(factorial(n), ["densities", "--set", "factorial-blocks", "--horizon", str(factorial(n)),
                                            "--window-grid", str(n - 1)], 1) for n in (10, 11)],
    "series-table": [(h, ["series-tests", "--weights", f"table:{TABLE}", "--horizon", str(h)], 1)
                     for h in (5000, 10_000)],
    "beta": [(h, ["beta", "--set", "evens", "--horizon", str(h)], 1) for h in (2000, 4000, 8000)],
    "verify-counterexample": [(10**6, ["verify-counterexample", "--product-horizon", str(10**6)], 1)],
    "densities-s-set": [(w, ["densities", "--set", "s-set", "--horizon", str(10**7), "--window-grid", "100"], w)
                        for w in (1, 2)],
}


def slope(points):
    """Least-squares slope of log(seconds) against log(size)."""
    if len(points) < 2:
        return None
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else None


def time_rung(argv, workers, out):
    cmd = [sys.executable, "-c", LAUNCH, *argv, "--workers", str(workers), "--out", out]
    env = dict(os.environ, PYTHONPATH=run.SRC)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=run.ROOT, env=env, timeout=TIMEOUT_S, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return "timeout", None
    seconds = time.perf_counter() - start
    return ("ok", seconds) if proc.returncode == 0 else (f"exit {proc.returncode}", seconds)


def main():
    if not os.path.isfile(os.path.join(run.SRC, "hyperorbit", "cli.py")):
        print(f"error: no hyperorbit sources under {run.SRC}", file=sys.stderr)
        return 2
    os.chdir(run.ROOT)
    base = os.path.join(run.WORK, "ladder")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    rng = random.Random("ladder")
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))!r}\n" for _ in range(5000)))

    rows, slopes = [], {}
    for name, rungs in ROWS.items():
        done = []
        for i, (size, argv_, workers) in enumerate(rungs):
            status, seconds = time_rung(argv_, workers, os.path.join(base, f"{name}-{i}"))
            rows.append({"row": name, "size": size, "workers": workers, "status": status, "seconds": seconds})
            shown = f"{seconds:.2f} s" if seconds is not None else f"> {TIMEOUT_S} s"
            print(f"{name:24s} size {size:>10d} workers {workers}  {status:8s} {shown}", flush=True)
            if status == "timeout":
                break
            if status == "ok":
                done.append((size, seconds))
        if len({w for _, _, w in rungs}) == 1:
            slopes[name] = slope(done)
            if slopes[name] is not None:
                print(f"{name:24s} log-log slope {slopes[name]:.2f}")

    env = run.environment(timeout_s=TIMEOUT_S, launcher="fresh process per rung", workers="per row")
    os.makedirs(os.path.join(run.HERE, "results"), exist_ok=True)
    path = os.path.join(run.HERE, "results", "ladder.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "rows": rows, "slopes": slopes}, fh, indent=1)
        fh.write("\n")
    print(f"written {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
