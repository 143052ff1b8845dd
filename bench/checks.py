"""Output checks that do not use the hyperorbit package.

Each check is a callable taking an operation's output directory and
returning a list of error strings (empty when the output is right).  The
brute-force oracles below recompute from definitions by direct scanning,
in the style of `tests/conftest.py`.  `compare_reference` compares a whole
output directory against a stored reference: exact columns byte for byte,
float columns to a relative 1e-9.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import random
from fractions import Fraction

FLOAT_REL = 1e-9
SKIP_FILES = ("manifest.txt",)


def read_csv(path):
    """Header and rows.  The CLI does not quote fields, and only a leading
    free-text column (a set or weight spec) can hold commas, so surplus
    fields are folded back into the first column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        extra = len(cells) - len(header)
        if extra > 0:
            cells = [",".join(cells[: extra + 1])] + cells[extra + 1 :]
        rows.append(cells)
    return header, rows


def _column(path, col):
    header, rows = read_csv(path)
    i = header.index(col)
    return [r[i] for r in rows]


def _rows_as_dicts(path):
    header, rows = read_csv(path)
    return [dict(zip(header, r)) for r in rows]


def _num(text):
    return Fraction(text) if "/" in text or text.lstrip("-").isdigit() else float(text)


# ---------------------------------------------------------------------------
# generic checks


def all_true(fname, col):
    def check(out):
        bad = [i for i, v in enumerate(_column(os.path.join(out, fname), col)) if v != "true"]
        return [f"{fname}: column {col} is not true on rows {bad[:5]}"] if bad else []

    return check


def density_chain(fname):
    """lower_banach <= lower_density <= upper_density <= upper_banach, inside [0, 1], exactly."""

    def check(out):
        errs = []
        for row in _rows_as_dicts(os.path.join(out, fname)):
            vals = [Fraction(row[k]) for k in ("lower_banach", "lower_density", "upper_density", "upper_banach")]
            if not 0 <= vals[0] <= vals[1] <= vals[2] <= vals[3] <= 1:
                errs.append(f"{fname}: density chain broken for {row['target'][:40]}: {vals}")
        return errs

    return check


# ---------------------------------------------------------------------------
# index sets


def factorial_member(n):
    j, f = 1, 1
    while f <= n:
        if n <= f + j:
            return True
        j += 1
        f *= j
    return False


def s_member(m):
    """m in S = union of ]l*10^j - j, l*10^j + j[ (j, l >= 1), from the definition."""
    j, scale = 1, 10
    while scale < m + j:
        for l in (m // scale, m // scale + 1):
            if l >= 1 and abs(m - l * scale) < j:
                return True
        j += 1
        scale *= 10
    return False


def intervals_member(intervals):
    starts = [a for a, _ in intervals]

    def member(n):
        i = bisect.bisect_right(starts, n) - 1
        return i >= 0 and n <= intervals[i][1]

    return member


def _brute_count(member, a, b):
    return sum(1 for n in range(a, b + 1) if member(n))


def window_counts(member, seed, samples=20):
    """Window counts by membership scan.

    The windows at banach_argmin/argmax must hold exactly lower/upper_banach * s
    members; every aligned window ]i*s, i*s + s] lies between the two.
    """

    def check(out):
        row = _rows_as_dicts(os.path.join(out, "densities.csv"))[0]
        s, eff = int(row["window"]), int(row["effective_horizon"])
        lo, hi = Fraction(row["lower_banach"]) * s, Fraction(row["upper_banach"]) * s
        errs = []
        for key, want in (("banach_argmin", lo), ("banach_argmax", hi)):
            k = int(row[key])
            got = _brute_count(member, k + 1, k + s)
            if got != want:
                errs.append(f"densities.csv: window at {key}={k} holds {got} members, CSV says {want}")
        rng = random.Random(seed)
        for i in sorted(rng.randrange(eff // s) for _ in range(samples)):
            got = _brute_count(member, i * s + 1, i * s + s)
            if not lo <= got <= hi:
                errs.append(f"densities.csv: aligned window {i} holds {got}, outside [{lo}, {hi}]")
        return errs

    return check


def prescribed_close(targets):
    want = [Fraction(t) for t in targets.split(",")]

    def check(out):
        row = _rows_as_dicts(os.path.join(out, "self_check.csv"))[0]
        got = [Fraction(row[k]) for k in ("lower_banach", "lower_density", "upper_density", "upper_banach")]
        worst = max(abs(a - b) for a, b in zip(got, want))
        return [f"self_check.csv: deviation {float(worst):.4f} from {targets} exceeds 0.05"] if worst > Fraction(1, 20) else []

    return check


def square_differences(horizon, seed, samples=200):
    """Sampled d: d is in difference.txt iff d = a^2 - b^2 with b <= a, a^2 <= horizon."""

    def brute(d):
        b = 0
        while b * b + d <= horizon:
            a = math.isqrt(b * b + d)
            if a * a == b * b + d:
                return True
            b += 1
        return False

    top = math.isqrt(horizon) ** 2  # the largest difference, a^2 - 0^2

    def check(out):
        # one streaming pass, so the check's memory does not show in peak_rss_mb
        rng = random.Random(seed)
        sampled = {rng.randrange(top + 1) for _ in range(samples)} | {0, 1, 2, top}
        listed, count, largest = set(), 0, None
        with open(os.path.join(out, "difference.txt"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    d = int(line)
                    count += 1
                    largest = d if largest is None else max(largest, d)
                    if d in sampled:
                        listed.add(d)
        errs = [f"difference.txt: {d} listed as {d in listed}, brute says {d not in listed}"
                for d in sorted(sampled) if (d in listed) != brute(d)]
        if largest != top:
            errs.append(f"difference.txt: largest member {largest}, expected {top}")
        summary = int(_rows_as_dicts(os.path.join(out, "difference_summary.csv"))[0]["members"])
        if summary != count:
            errs.append(f"difference_summary.csv says {summary} members, difference.txt holds {count}")
        return errs

    return check


# ---------------------------------------------------------------------------
# constructor, recurrence


def orbit_bounds_hold(out):
    rows = _rows_as_dicts(os.path.join(out, "orbit_bounds.csv"))
    bad = [r["n"] for r in rows if not _num(r["achieved"]) <= _num(r["bound"])]
    errs = [f"orbit_bounds.csv: achieved exceeds bound at n={bad[:5]}"] if bad else []
    return errs + ([] if rows else ["orbit_bounds.csv has no rows"])


LEVELS = ("frequent", "u-frequent", "reiterative", "none")


def classification_sane(out):
    errs = []
    for row in _rows_as_dicts(os.path.join(out, "classification.csv")):
        if row["level"] not in LEVELS:
            errs.append(f"classification.csv: unknown level {row['level']!r}")
        if row["target"] != "overall":
            lo, up, ub = (Fraction(row[k]) for k in ("lower_density", "upper_density", "upper_banach"))
            if not 0 <= lo <= up <= ub <= 1:
                errs.append(f"classification.csv: target {row['target']} densities out of order")
    return errs


def halving_hits(target, length, radius, horizon):
    """x = ones on [0, length) under the constant weight 1/2 on l2: after n steps the
    orbit is 2^-n on [0, length - n), so it lies in the open ball of `radius` about
    zero iff 2^-n * sqrt(length - n) < radius."""

    def check(out):
        want = [n for n in range(horizon + 1) if n >= length or 2.0 ** -n * math.sqrt(length - n) < radius]
        got = [int(r["n"]) for r in _rows_as_dicts(os.path.join(out, "hits.csv")) if r["target"] == str(target)]
        return [] if got == want else [f"hits.csv: target {target} hit at {got[:5]}..., brute {want[:5]}..."]

    return check


def correlation_multiples(g):
    """eta_k for the multiples of g is 1/g when g divides k, else 0."""

    def check(out):
        errs = []
        for row in _rows_as_dicts(os.path.join(out, "correlation.csv")):
            k = int(row["k"])
            want = Fraction(1, g) if k % g == 0 else Fraction(0)
            if Fraction(row["eta_k"]) != want:
                errs.append(f"correlation.csv: eta_{k} = {row['eta_k']}, want {want}")
        return errs

    return check


def harmonic_betas(horizon, seed, samples=20):
    """beta_n = sum over even m in (n, horizon] of 1/(m - n), on a sample of n."""

    def check(out):
        rows = _rows_as_dicts(os.path.join(out, "beta.csv"))
        if [int(r["n"]) for r in rows] != list(range(0, horizon + 1, 2)):
            return ["beta.csv: rows are not the even numbers up to the horizon"]
        rng = random.Random(seed)
        errs = []
        for r in rng.sample(rows, samples):
            n = int(r["n"])
            want = math.fsum(1.0 / (m - n) for m in range(n + 2, horizon + 1, 2))
            if not math.isclose(float(r["beta"]), want, rel_tol=FLOAT_REL):
                errs.append(f"beta.csv: beta_{n} = {r['beta']}, brute {want!r}")
        return errs

    return check


# ---------------------------------------------------------------------------
# counterexample


def _run_lengths(horizon):
    """c(0..horizon): length of the S-run ending at n."""
    c = [0] * (horizon + 1)
    for n in range(1, horizon + 1):
        c[n] = c[n - 1] + 1 if s_member(n) else 0
    return c


def product_law(out):
    """Sampled rows of products.csv: run_exponent is c(n), and the log2 weights sum to c(n).

    w_k is 2 on S, 2^-c(k-1) on leaving S, 1 elsewhere.
    """
    rows = _rows_as_dicts(os.path.join(out, "products.csv"))
    if not rows:
        return ["products.csv has no rows"]
    top = max(int(r["n"]) for r in rows)
    c = _run_lengths(top)
    log2_prod = [0] * (top + 1)
    for k in range(1, top + 1):
        log2_prod[k] = log2_prod[k - 1] + (1 if c[k] else -c[k - 1])
    errs = []
    for r in rows:
        n = int(r["n"])
        if int(r["run_exponent"]) != c[n] or log2_prod[n] != c[n]:
            errs.append(f"products.csv: n={n} run_exponent {r['run_exponent']}, brute c(n)={c[n]}, "
                        f"sum of log2 weights {log2_prod[n]}")
    return errs


def series_partial_sums(table):
    """Partial sums of 1/(w_1 ... w_n)^2 recomputed per weight family, to a relative 1e-9."""

    def partial_sum(log2_products):
        return math.fsum(0.0 if x <= -1074 else 2.0 ** x for x in (-2.0 * e for e in log2_products))

    def check(out):
        rows = {r["weights"].split(":")[0]: r for r in _rows_as_dicts(os.path.join(out, "series.csv"))}
        horizon = int(rows["ratio-power"]["horizon"])
        table_log2 = []
        acc = 0.0
        for n in range(1, horizon + 1):
            acc += math.log2(table[n - 1]) if n <= len(table) else 0.0
            table_log2.append(acc)
        c = _run_lengths(horizon)
        want = {
            "table": partial_sum(table_log2),
            "counterexample-c0": partial_sum(c[1:]),
            "ratio-power": math.fsum(1.0 / (n + 1) for n in range(1, horizon + 1)),
        }
        errs = []
        for key, value in want.items():
            got = float(rows[key]["partial_sum"])
            if not math.isclose(got, value, rel_tol=FLOAT_REL):
                errs.append(f"series.csv: {key} partial sum {got!r}, brute {value!r}")
        return errs

    return check


# ---------------------------------------------------------------------------
# stored references


def _cell_kind(text):
    if text == "" or "/" in text or text.lstrip("-").isdigit():
        return "exact"
    try:
        float(text)
    except ValueError:
        return "exact"
    return "float"


def digest(path):
    """Reference record of one output file: exact parts hashed, float columns kept as values."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".csv"):
        return {"sha256": hashlib.sha256(data).hexdigest()}
    header, rows = read_csv(path)
    floats = [i for i in range(len(header)) if any(_cell_kind(r[i]) == "float" for r in rows if i < len(r))]
    exact = "\n".join(",".join(c for i, c in enumerate(r) if i not in floats) for r in [header] + rows)
    return {
        "rows": len(rows),
        "exact_sha256": hashlib.sha256(exact.encode("utf-8")).hexdigest(),
        "floats": {header[i]: [r[i] for r in rows] for i in floats},
    }


def snapshot(out):
    return {fn: digest(os.path.join(out, fn)) for fn in sorted(os.listdir(out)) if fn not in SKIP_FILES}


def _floats_close(a, b):
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=FLOAT_REL, abs_tol=0.0)


def compare_reference(out, ref):
    """Errors between an output directory and its stored reference snapshot."""
    got = snapshot(out)
    errs = []
    if sorted(got) != sorted(ref):
        errs.append(f"output files {sorted(got)} differ from reference {sorted(ref)}")
    for fn in sorted(set(got) & set(ref)):
        g, r = got[fn], ref[fn]
        if "sha256" in r or "sha256" in g:
            if g != r:
                errs.append(f"{fn}: bytes differ from reference")
            continue
        if g["rows"] != r["rows"] or g["exact_sha256"] != r["exact_sha256"] or sorted(g["floats"]) != sorted(r["floats"]):
            errs.append(f"{fn}: exact columns differ from reference")
            continue
        for col, want in r["floats"].items():
            bad = [i for i, (a, b) in enumerate(zip(g["floats"][col], want)) if not _floats_close(a, b)]
            if bad:
                i = bad[0]
                errs.append(f"{fn}: column {col} row {i + 1} reads {g['floats'][col][i]}, reference {want[i]}")
    return errs
