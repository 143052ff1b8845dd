"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  Tolerances are pinned here and nowhere else.
"""

import ast
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest

import hyperorbit as h
from hyperorbit.cli import main as cli_main
from hyperorbit.io_text import parse_set_spec
from hyperorbit.shifts import ConstantWeights, RatioPowerWeights, ShiftOperator

from conftest import brute_run_lengths


def _announce(num, name, detail=""):
    print(f"PASS criterion {num} ({name}) {detail}")


# ---------------------------------------------------------------------------
# 1. density chain, 100 generated sets, exact rationals, under 10 s


def test_criterion_1_density_chain():
    rng = random.Random(12001)
    sets = []
    for _ in range(40):  # periodic
        p = rng.randrange(1, 60)
        residues = tuple(rng.sample(range(p), k=rng.randrange(0, min(p, 8) + 1)))
        sets.append(h.PeriodicSet(p, residues))
    sets.append(h.FactorialBlockSet())
    sets.append(h.SquareSet())
    sets.append(h.GeometricSet(2))
    sets.append(h.GeometricSet(3, 1))
    for _ in range(26):  # random interval blocks
        ivs = []
        at = 0
        for _ in range(rng.randrange(1, 12)):
            at += rng.randrange(1, 4000)
            width = rng.randrange(0, 2000)
            ivs.append((at, at + width))
            at += width
        sets.append(parse_set_spec("intervals:" + ",".join(f"{a}-{b}" for a, b in ivs)))
    for _ in range(30):  # prescribed densities
        vals = sorted(Fraction(rng.randrange(0, 11), 10) for _ in range(4))
        sets.append(h.make_prescribed_density_set(*vals, eras=3, window=200))
    assert len(sets) == 100

    started = time.monotonic()
    for A in sets:
        report = h.estimate_densities(A, 10**5, 1000)
        lb, ld, ud, ub = report.as_tuple()
        assert isinstance(lb, Fraction)
        assert 0 <= lb <= ld <= ud <= ub <= 1  # exact rational comparisons
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _announce(1, "density chain", f"100 sets, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. prescribed densities (0, 0.2, 0.5, 1) within 0.05


def test_criterion_2_prescribed_densities():
    targets = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1))
    A = h.make_prescribed_density_set(*targets)
    report = h.estimate_densities(A, A.recommended_horizon, A.recommended_window, A.recommended_tail_factor)
    worst = max(abs(got - want) for got, want in zip(report.as_tuple(), targets))
    assert worst <= Fraction(1, 20), f"worst deviation {float(worst)}"
    _announce(2, "prescribed densities", f"worst deviation {float(worst):.4f}")


# ---------------------------------------------------------------------------
# 3. product law: brute product of w_1..w_n equals 2^c(n), unit iff outside S


def test_criterion_3_counterexample_products():
    weights = h.DoublingResetWeights()
    member = {n for n in h.DigitNeighborhoodSet().members_in(1, 10**5)}  # interval route
    product = Fraction(1)
    mismatches = 0
    run = 0
    for n in range(1, 10**5 + 1):
        in_s = n in member
        # the weight law, evaluated independently of product_exponent
        if in_s:
            w = Fraction(2)
        elif (n - 1) in member:
            w = 1 / product
        else:
            w = Fraction(1)
        assert Fraction(weights.weight(n)).limit_denominator(1 << 62) == w
        product *= w
        run = run + 1 if in_s else 0
        if product != Fraction(2) ** h.product_exponent(n):
            mismatches += 1
        if (product == 1) != (not in_s):
            mismatches += 1
        if run != h.product_exponent(n):
            mismatches += 1
    assert mismatches == 0
    _announce(3, "product law", "n <= 1e5, zero mismatches")


# ---------------------------------------------------------------------------
# 4. exhaustive exclusion sweep, k <= 6, l <= 100, under 60 s


def test_criterion_4_exclusion_sweep():
    started = time.monotonic()
    report = h.verify_scale_exclusion(6, 100)
    elapsed = time.monotonic() - started
    assert report.ok and report.checked == 1200
    assert not report.violations
    assert elapsed < 60.0
    _announce(4, "exclusion sweep", f"{report.checked} checks, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. block family construction: conditions, symbolic gaps, window ratios


def test_criterion_5_block_family():
    family = h.build_block_family(3, 3)
    checks = h.verify_block_conditions(family)
    assert all(c.all_ok() for c in checks)
    assert h.check_gap_family(family.set_family()).ok
    for k in (1, 2):
        ratio = h.banach_window_ratio(family, k)
        assert ratio.ok
        assert ratio.ratio >= Fraction(ratio.count - 1, ratio.count) / Fraction(10 ** (2 * k))
    _announce(5, "block family", "conditions, gaps, window ratios for k=1,2")


# ---------------------------------------------------------------------------
# 6. threshold sets: nesting, monotone prefixes, envelope, decay bound


def test_criterion_6_threshold_scan():
    horizon = 10**6
    runs = brute_run_lengths(horizon)
    prev_mask = None
    prev_counts = None
    js = (1, 2, 5, 31, 61, 91)
    for j in js:
        mask = [c >= j for c in runs]
        if prev_mask is not None:
            assert not any(m and not p for m, p in zip(mask, prev_mask))  # D_{j+} inside D_j, pointwise
        prefix_counts = [sum(mask[: 10**t]) for t in range(2, 7)]
        if prev_counts is not None:
            assert all(a <= b for a, b in zip(prefix_counts, prev_counts))
        report = h.product_threshold_scan(j, horizon)
        assert [r.count for r in report.rows] == prefix_counts
        assert report.bound_respected
        assert report.envelope_ok
        prev_mask, prev_counts = mask, prefix_counts
    _announce(6, "threshold scan", f"j in {js} to 1e6")


# ---------------------------------------------------------------------------
# 7 & 8. constructed vector: certified orbit bounds, hitting densities


@pytest.fixture(scope="module")
def constructed():
    space = h.lp(2.0)
    T = ShiftOperator(ConstantWeights(2.0), space)
    family = h.dyadic_block_family(8)
    plan = h.select_subsequence(T, family, 4, 10**4)
    hc = h.assemble_vector(plan, T, 10**4 + 64)
    return T, plan, hc


def test_criterion_7_orbit_bounds(constructed):
    T, plan, hc = constructed
    report = h.verify_orbit_bounds(hc, T, 10**4)
    assert report.ok, report.violations[:3]
    assert report.rows
    worst_trunc = max(r.truncation_term for r in report.rows)
    assert worst_trunc < 1e-6
    _announce(7, "orbit bounds", f"{len(report.rows)} times, max truncation {worst_trunc:.2e}")


def test_criterion_8_hitting_densities(constructed):
    T, plan, hc = constructed
    targets = []
    for l in range(1, 5):
        radius = float(h.proof_bound(l)) + 1e-6
        targets.append((plan.targets[l - 1], radius))
    reports = h.hitting_times(T, hc.x, targets, 10**4)
    for l, report in enumerate(reports, start=1):
        level_times = plan.level_set(l).members_in(0, 10**4)
        got = set(report.times.members)
        assert all(n in got for n in level_times), f"level {l} not covered"
        g = plan.family.level(plan.selected[l - 1]).period
        assert report.densities.lower_density > Fraction(1, 2 * g)
    _announce(8, "hitting densities", "levels 1..4 covered with density above half design")


# ---------------------------------------------------------------------------
# 9. correlation oracle on multiples of three


def test_criterion_9_correlation():
    A = h.PeriodicSet(3, (0,))
    report = h.correlation_scan(A, Fraction(1, 2), 12, [(0, 3000), (3000, 3000), (6000, 3000)])
    assert abs(report.delta - Fraction(1, 3)) <= Fraction(1, 1000)
    for k in range(1, 13):
        want = Fraction(1, 3) if k % 3 == 0 else Fraction(0)
        assert abs(report.eta[k] - want) <= Fraction(1, 1000)
    assert report.syndetic.syndetic and report.syndetic.gap_bound == 3
    assert report.antichain_bound == 5
    assert len(report.antichain) <= 5
    _announce(9, "correlation oracle", f"delta=1/3, antichain {len(report.antichain)} <= 5")


# ---------------------------------------------------------------------------
# 10. two-sided tail sums bounded by one on the constructed hitting set


def test_criterion_10_tail_sums(constructed):
    T, plan, hc = constructed
    level_one = plan.level_set(1).members_in(1, 10**4)
    A = h.ExplicitSet(tuple(plan.level_set(1).members_in(0, 10**4)))
    w = ConstantWeights(2.0)  # bilateral extension of the doubling weights
    sampled = level_one[:: max(1, len(level_one) // 12)]
    for n in sampled:
        sums = h.bilateral_tail_sums(w, 2.0, A, n, 10**4)
        assert sums.left <= 1.0 and sums.right <= 1.0
    _announce(10, "tail sums", f"{len(sampled)} sampled times, both sums <= 1")


# ---------------------------------------------------------------------------
# 11. series and mixing tests


def test_criterion_11_series_and_mixing():
    geometric = h.reciprocal_product_series(ConstantWeights(2.0), 2.0, 10**4)
    assert abs(geometric.partial_sum - 1 / 3) < 1e-6
    assert geometric.converging()
    slow = h.reciprocal_product_series(RatioPowerWeights(2.0), 2.0, 10**4)
    assert not slow.converging()
    assert h.mixing_test(RatioPowerWeights(2.0), 10**4).tends_to_infinity
    _announce(11, "series and mixing", f"geometric sum {geometric.partial_sum:.9f}")


# ---------------------------------------------------------------------------
# 12. return sets around the first five dense targets


def test_criterion_12_return_sets():
    space = h.lp(2.0)
    T = ShiftOperator(ConstantWeights(2.0), space)
    dense = h.DenseDyadicSequence(space)
    worst_gap = 0
    for i in range(1, 6):
        for j in range(1, 6):
            U = (dense.item(i), 0.25)
            V = (dense.item(j), 0.25)
            report = h.return_set(T, U, V, 10**4, probe_grid=4, witness_stride=50)
            ev = report.syndetic
            assert ev is not None and ev.syndetic, (i, j)
            assert ev.gap_bound <= 64, (i, j, ev.gap_bound)
            worst_gap = max(worst_gap, ev.gap_bound)
    _announce(12, "return sets", f"25 ball pairs, worst gap {worst_gap} <= 64")


# ---------------------------------------------------------------------------
# 13. CLI determinism across worker counts


CLI_MATRIX = [
    ("densities", ["--set", "evens", "--horizon", "100000", "--window-grid", "10,100"]),
    ("make-set", ["--targets", "0,1/5,1/2,1", "--eras", "3", "--window", "200"]),
    ("check-family", ["--family", "dyadic-block:4", "--horizon", "20000"]),
    # 600 exclusion cells, all in this process: --workers is ignored, so 1 and 8 give the same bytes
    (
        "verify-counterexample",
        ["--kmax", "6", "--lmax", "100", "--product-horizon", "2000", "--family-levels", "2", "--family-reps", "2"],
    ),
    ("dj-scan", ["--j", "1,5", "--horizon", "10000"]),
    ("construct", ["--depth", "3", "--horizon", "2000", "--family", "dyadic-block:6"]),
    ("orbit", ["--vector", "e:0", "--targets", "zero:@0.5", "--horizon", "2000"]),
    ("classify", ["--vector", "e:0", "--targets", "zero:@0.5", "--horizon", "2000"]),
    # a zero-centred c0 ball under a power-of-two constant: read off the suffix maxima, no scan
    (
        "classify",
        ["--space", "c0", "--operator", "constant:1/2", "--vector", "ones:0-300", "--targets", "zero:@1/1000",
         "--horizon", "400"],
    ),
    (
        "orbit",
        ["--operator", "ratio-power:2", "--vector", "ones:0-300", "--targets", "zero:@8;e:0@1/2", "--horizon", "400"],
    ),
    ("return-set", ["--u", "dense:1@0.25", "--v", "dense:2@0.25", "--horizon", "2000", "--stride", "40"]),
    ("correlate", ["--set", "arith:3:0"]),
    ("beta", ["--set", "evens", "--horizon", "400"]),
    ("eqbeta", ["--set", "explicit:0,10,20", "--n", "10", "--horizon", "100"]),
    ("series-tests", ["--horizon", "2000"]),
    # difference_set's routes, one row each: an arithmetic run is one slice for all its diagonals
    ("diff-set", ["--set", "arith:128:64", "--horizon", "20000"]),
    # one quadratic run of 501 squares, 500 diagonal slices, across 25 decimal blocks of difference.txt
    ("diff-set", ["--set", "squares", "--horizon", "250000"]),
    # two residues mod 7 make no run longer than three members, so the shift-OR bitset
    ("diff-set", ["--set", "periodic:7:0,3", "--horizon", "20000"]),
    # one run's slice, and 4003 loose pairs from the two lone members, written one by one
    ("diff-set", ["--set", "intervals:0-2000,9000-9000,9500-9500", "--horizon", "10000"]),
    # 21 members up to 2**20: top + 1 > 21**2, so the pairs are listed into an explicit set
    ("diff-set", ["--set", "powers:2", "--horizon", "1048576"]),
    # the block family's tower members through the gap check
    ("check-family", ["--family", "counterexample:3:3"]),
    # the c0 norm and a non-dyadic weight through the block scan
    (
        "orbit",
        ["--space", "c0", "--operator", "ratio-power:2", "--vector", "ones:0-300", "--targets",
         "zero:@1/1000;e:0@2", "--horizon", "400"],
    ),
    # float paths that differ by interpreter if a rule changes: lp with p != 2, a bilateral space,
    # a signed table on an lp orbit, harmonic beta, and --p other than 2
    (
        "orbit",
        ["--operator", "ratio-power:2", "--space", "lp:3", "--vector", "ones:0-300", "--targets",
         "zero:@8;e:0@1/2;ones:0-5@3", "--horizon", "400"],
    ),
    (
        "classify",
        ["--operator", "constant:0.75", "--space", "lp:1.5:bilateral", "--vector", "ones:0-300", "--targets",
         "zero:@1;e:0@1/2", "--horizon", "400"],
    ),
    (
        "orbit",
        ["--operator", "table-values:1.5,-2,0.75,3,-0.5", "--space", "lp:2.5", "--vector", "ones:0-300",
         "--targets", "zero:@10;e:0@1/2", "--horizon", "400"],
    ),
    ("return-set", ["--space", "lp:3", "--u", "dense:1@0.25", "--v", "dense:2@0.25", "--horizon", "3000",
                    "--stride", "40"]),
    ("beta", ["--set", "evens", "--alpha", "harmonic", "--horizon", "400"]),
    ("eqbeta", ["--set", "explicit:0,10,20", "--n", "10", "--horizon", "100", "--p", "3/2"]),
    ("series-tests", ["--p", "1.5", "--horizon", "2000"]),
    # at n = 1 the lp:3 terms are one near 1 and 64 of 2**-54: the left-to-right sum (the norm rule)
    # stays in the ball, one ulp inside, and a compensated sum (builtin sum from 3.12) leaves it
    (
        "orbit",
        ["--operator", "constant:1/262144", "--space", "lp:3", "--vector", "ones:0-64", "--targets",
         "e:0@0.9999961853027345", "--horizon", "100"],
    ),
]


def _snapshot(out):
    data = {}
    for fn in sorted(os.listdir(out)):
        if fn == "manifest.txt":
            continue
        with open(os.path.join(out, fn), "rb") as fh:
            data[fn] = fh.read()
    return data


# the sha256 of every non-manifest file of each CLI_MATRIX row, taken from a tree whose bytes are
# known good; a change that moves bytes on purpose regenerates it (README, Tests) and names the files
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_matrix.json")


def _digests(snapshot):
    return {fn: hashlib.sha256(data).hexdigest() for fn, data in snapshot.items()}


def write_golden():
    """Run every CLI_MATRIX row once and write its file digests to GOLDEN."""
    rows = []
    with tempfile.TemporaryDirectory() as directory:
        for row, (name, argv) in enumerate(CLI_MATRIX):
            out = os.path.join(directory, f"{row}-{name}")
            assert cli_main([name, *argv, "--workers", "1", "--out", out]) == 0, name
            rows.append({"command": [name, *argv], "files": _digests(_snapshot(out))})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


def test_criterion_13_cli_determinism(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [g["command"] for g in golden] == [[name, *argv] for name, argv in CLI_MATRIX], "regenerate GOLDEN"
    for row, (name, argv) in enumerate(CLI_MATRIX):
        outs = []
        for tag, workers in (("a", 1), ("b", 8)):
            out = tmp_path / f"{row}-{name}-{tag}"
            code = cli_main([name, *argv, "--workers", str(workers), "--out", str(out)])
            assert code == 0, (name, workers, code)
            outs.append(_snapshot(out))
        assert outs[0] == outs[1], f"{name}: outputs differ between worker counts"
        assert outs[0], f"{name}: produced no outputs"
        assert _digests(outs[0]) == golden[row]["files"], f"{name}: outputs differ from {GOLDEN}"
    _announce(13, "CLI determinism", f"{len(CLI_MATRIX)} commands, workers 1 vs 8, against the stored digests")


# the GOLDEN digests recomputed from the golden file alone: the package imports only the standard
# library, so a child interpreter runs it with PYTHONPATH=src and neither pytest nor hypothesis
_GOLDEN_CHILD = """
import hashlib, json, os, sys, tempfile
from hyperorbit.cli import main
with open(sys.argv[1], encoding="utf-8") as fh:
    golden = json.load(fh)
differ = []
with tempfile.TemporaryDirectory() as directory:
    for row, g in enumerate(golden):
        out = os.path.join(directory, str(row))
        code = main([*g["command"], "--workers", "1", "--out", out])
        files = {}
        for fn in sorted(os.listdir(out)):
            if fn != "manifest.txt":
                with open(os.path.join(out, fn), "rb") as fh:
                    files[fn] = hashlib.sha256(fh.read()).hexdigest()
        if code != 0 or files != g["files"]:
            differ.append(" ".join(g["command"]))
assert "pytest" not in sys.modules and "hypothesis" not in sys.modules
print("differ:", differ)
sys.exit(1 if differ else 0)
"""


def _other_interpreters():
    """(path, version) of each `python3.X` on PATH, X >= 10 and not this interpreter's X, that starts;
    a pyenv shim with no version selected exits 127 and counts as not starting."""
    found = []
    for minor in range(10, 30):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            probe = subprocess.run([exe, "-c", "import sys; print(sys.version.split()[0])"], capture_output=True,
                                   text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0:
            found.append((exe, probe.stdout.strip()))
    return found


def test_criterion_13_digests_under_every_other_interpreter(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no python3.X (X >= 10) other than this one on PATH starts")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for exe, version in interpreters:
        proc = subprocess.run([exe, "-c", _GOLDEN_CHILD, GOLDEN], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, f"{exe} ({version}): {proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    ran = ", ".join(f"{exe} ({version})" for exe, version in interpreters)
    _announce(13, "CLI determinism across interpreters", f"{len(CLI_MATRIX)} commands under {ran}")


def test_the_package_imports_only_the_standard_library():
    # README: the package runs on the Python standard library alone
    package = os.path.dirname(h.__file__)
    outside = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "hyperorbit" and top not in sys.stdlib_module_names:
                    outside.append(f"{name}: {module}")
    assert not outside, outside
