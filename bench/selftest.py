"""Self-test of the output checks: corrupted outputs must count as failed operations.

    python3 bench/selftest.py

Runs the `recurrence` workload once at the default seed, confirms that its
outputs pass, then corrupts copies of them and confirms that each
corruption is reported the way the benchmark reports a failed operation:
an exact cell changed by one character, a float moved by a relative 1e-6, a
density row whose chain is broken, and a missing file.  A float moved by a
relative 1e-12 must still pass.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import speed

SEED = 1


def _edit(path, fn):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = fn(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _set_cell(row, col, value):
    def fn(lines):
        cells = lines[row].split(",")
        cells[col] = value(cells[col])
        lines[row] = ",".join(cells)
        return lines

    return fn


CORRUPTIONS = [
    # (operation, description, file, edit, must fail)
    ("correlate", "exact eta_k cell changed", "correlation.csv", _set_cell(1, 1, lambda v: "1/7"), True),
    ("beta", "float moved by 1e-6", "beta.csv", _set_cell(5, 1, lambda v: repr(float(v) * (1 + 1e-6))), True),
    ("beta", "float moved by 1e-12", "beta.csv", _set_cell(5, 1, lambda v: repr(float(v) * (1 + 1e-12))), False),
    ("orbit.dense", "density chain broken", "hit_densities.csv", _set_cell(1, -5, lambda v: "2"), True),
    ("return-set", "file missing", "return_times.csv", None, True),
]


def main():
    if not os.path.isfile(os.path.join(run.SRC, "hyperorbit", "cli.py")):
        print(f"error: no hyperorbit sources under {run.SRC}", file=sys.stderr)
        return 2
    os.chdir(run.ROOT)
    reference = run.load_reference("recurrence", SEED)
    if reference is None:
        print(f"error: no stored reference for seed {SEED}", file=sys.stderr)
        return 2
    base = os.path.join(run.WORK, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    cli_main, ops = run.setup("recurrence", SEED, os.path.join(base, "in"))
    out_root = os.path.join(base, "out")
    _, results = run.run_pass(cli_main, ops, out_root, speed.HostClock())
    by_name = {op.name: op for op in ops}
    ok = True
    for op, code, err, _ in results:
        errs = run.op_errors(op, code, err, run.op_dir(out_root, op), {}, reference)
        if errs:
            ok = False
            print(f"UNEXPECTED clean output of {op.name} fails: {errs}")
    for name, what, fname, edit, must_fail in CORRUPTIONS:
        op = by_name[name]
        bad = os.path.join(base, "corrupt", f"{name}-{fname}-{must_fail}")
        shutil.copytree(run.op_dir(out_root, op), bad)
        if edit is None:
            os.remove(os.path.join(bad, fname))
        else:
            _edit(os.path.join(bad, fname), edit)
        errs = run.op_errors(op, 0, None, bad, {}, reference)
        verdict = "counted as failed" if errs else "passes"
        good = bool(errs) == must_fail
        ok = ok and good
        print(f"{'ok  ' if good else 'BAD '} {name}: {what} -> {verdict}" + (f" ({errs[0]})" if errs else ""))
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
