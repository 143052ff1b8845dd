"""Shared brute-force oracles.

Every oracle recomputes from definitions by direct scanning, independent of
the closed forms in the package, so frozen expected values in the tests can
be traced to these.
"""

import itertools
import sys
from fractions import Fraction
from math import frexp, inf, lcm, ldexp, log2, nextafter, sqrt

import pytest

from hyperorbit import (
    SparseVec,
    apply_backward,
    apply_right_inverse,
    ball_contains,
    norm_sq_exact,
    proof_bound,
    s_contains,
)
from hyperorbit.constructor import (
    OrbitBoundReport,
    OrbitBoundRow,
    _first_member_at_least,
    _geom_tail,
    _pow2_rate,
    _progression,
)
from hyperorbit.counterexample import _int_lt_pow10
from hyperorbit.errors import WindowGridError
from hyperorbit.indexsets import DensityReport
from hyperorbit.io_text import format_fraction, parse_fraction, parse_int, parse_real, parse_space_spec
from hyperorbit.spaces import _power_sum


def brute_count(A, a, b):
    return sum(1 for n in range(a, b + 1) if A.contains(n))


def brute_lower_density(A, horizon, s, tail_factor):
    """(lower density, its checkpoint) of estimate_densities: Fraction prefix ratios over ]0, t*s],
    counted by scanning, for t from ceil(q / tail_factor) to q = horizon // s; the first strict
    minimum below the full-prefix ratio wins, else the full prefix."""
    q = horizon // s
    prefix = [0]
    for n in range(1, q * s + 1):
        prefix.append(prefix[-1] + (1 if A.contains(n) else 0))
    lower, at = Fraction(prefix[q * s], q * s), q * s
    for t in range(max(1, -(-q // tail_factor)), q + 1):
        r = Fraction(prefix[t * s], t * s)
        if r < lower:
            lower, at = r, t * s
    return lower, at


def brute_estimate_densities(A, horizon, window=None, tail_factor=8):
    """The scan estimator: one `count_upto` per aligned window up to the horizon, on every set kind.

    This is `estimate_densities` before sets gave it their periodic pieces,
    kept as it was but for its one window, so the piece path can be held to
    it field for field.
    """
    if tail_factor < 1:
        raise WindowGridError(f"the tail factor must be >= 1, got {tail_factor}")
    if window is None:
        s = ([w for w in (10, 100, 1000, 10000) if w <= max(1, horizon // 4)] or [1])[-1]
    elif window < 1 or horizon < window:
        raise WindowGridError(f"window {window} does not fit in [1, {horizon}]")
    else:
        s = window
    q = horizon // s
    if q < 1:
        raise WindowGridError(f"horizon {horizon} holds no window of length {s}")

    upto = [A.count_upto(i * s) for i in range(q + 1)]
    counts = [b - a for a, b in itertools.pairwise(upto)]

    best_max, argmax = counts[0], 0
    best_min, argmin = counts[0], 0
    for i, c in enumerate(counts):
        if c > best_max:
            best_max, argmax = c, i * s
        if c < best_min:
            best_min, argmin = c, i * s

    for k in _brute_anchor_positions(A, horizon, s):
        c = A.count_in(k + 1, k + s)
        if c > best_max:
            best_max, argmax = c, k
        if c < best_min:
            best_min, argmin = c, k

    upper_banach = Fraction(best_max, s)
    lower_banach = Fraction(best_min, s)

    upper_density = Fraction(upto[q] - upto[0], q * s)
    t0 = max(1, -(-q // tail_factor))  # ceil(q / tail_factor)
    # the lowest checkpoint ratio best_num / best_at, compared by cross-multiplication
    best_num, best_at = upto[q] - upto[0], q * s
    for t in range(t0, q + 1):
        c = upto[t] - upto[0]
        if c * best_at < best_num * (t * s):
            best_num, best_at = c, t * s
    lower_density, lower_at = Fraction(best_num, best_at), best_at

    return DensityReport(
        lower_banach=lower_banach,
        lower_density=lower_density,
        upper_density=upper_density,
        upper_banach=upper_banach,
        horizon=horizon,
        effective_horizon=q * s,
        window=s,
        tail_factor=tail_factor,
        banach_argmin=argmin,
        banach_argmax=argmax,
        lower_density_at=lower_at,
    )


def _brute_anchor_positions(A, horizon, s):
    out = set()
    for a in A.anchors(horizon):
        if not isinstance(a, int):
            continue
        for k in (a - 1, a):
            if 0 <= k <= horizon - s:
                out.add(k)
    stride = max(1, (horizon - s) // 64)
    for k in range(0, horizon - s + 1, stride):
        out.add(k)
    return sorted(out)


def brute_window_extremes(A, horizon, s):
    """(min, max) of |A ∩ ]k, k+s]| over every position k in [0, horizon-s]."""
    counts = [brute_count(A, k + 1, k + s) for k in range(0, horizon - s + 1)]
    return min(counts), max(counts)


def brute_log2_range(w, a, b):
    """log2|w_a ... w_b| summed one weight at a time: an exact int while every
    weight is a power of two (frexp mantissa 1/2), a float sum otherwise."""
    total = 0
    for k in range(a, b + 1):
        wk = abs(w.weight(k))
        mantissa, e = frexp(wk)
        total += e - 1 if mantissa == 0.5 else log2(wk)
    return total


def brute_gap_ok(tagged_members):
    """Pairwise scan of (value, level) pairs for the gap property."""
    for i, (v1, k1) in enumerate(tagged_members):
        for v2, k2 in tagged_members[i + 1 :]:
            if v1 == v2 or abs(v2 - v1) < max(k1, k2):
                return False
    return True


def brute_min_distance(A, B, period):
    """Least b - a > 0 over members a of A and b of B, for periodic A and B whose periods divide `period`:
    every a in one period, every b up to two periods past it."""
    return min(b - a for a in A.members_in(0, period - 1) for b in B.members_in(a + 1, a + 2 * period))


def brute_s_member(m, j_cap=12, l_factor=2):
    """Membership in the digit-neighborhood set by scanning (j, l) directly."""
    for j in range(1, j_cap + 1):
        step = 10**j
        for l in range(1, m // step + l_factor):
            if l * step - j < m < l * step + j:
                return True
    return False


def brute_hit_scale(m, last=None, width=1, first=1):
    """The smallest scale j in [first, last] with some l >= 1 and l*10^j - width*j < m < l*10^j + width*j,
    by scanning (j, l) directly; with no `last`, up to two scales past the digits of m, beyond
    which every interval lies above m."""
    top = len(str(abs(m))) + 2 if last is None else last
    for j in range(first, top + 1):
        step = 10**j
        for l in range(1, (m + width * j) // step + 1):
            if l * step - width * j < m < l * step + width * j:
                return j
    return None


def brute_tower_cmp(a, b):
    """Three-way compare of int | HugeInt values, recursing one frame per tower level: a tower
    orders as its exponent, and on equal exponents as its offset."""
    if isinstance(a, int) and isinstance(b, int):
        return (a > b) - (a < b)
    if isinstance(a, int):
        return -brute_tower_cmp(b, a)
    if isinstance(b, int):
        if a._materializable():
            av = a.to_int()
            return (av > b) - (av < b)
        return 1 if _int_lt_pow10(b, a.exponent) else -1
    ce = brute_tower_cmp(a.exponent, b.exponent)
    if ce != 0:
        return ce
    return (a.offset > b.offset) - (a.offset < b.offset)


def brute_s_intervals(lo, hi):
    """Maximal runs of S ∩ [lo, hi], from the defining intervals ]l*10^j - j, l*10^j + j[ walked scale by
    scale (every l whose interval can meet the window), clipped, sorted and merged."""
    lo = max(lo, 0)
    raw = []
    scale, j = 10, 1
    while scale <= hi + j:
        for l in range(max(1, (lo - j) // scale), (hi + j) // scale + 1):
            a, b = max(l * scale - j + 1, lo), min(l * scale + j - 1, hi)
            if a <= b:
                raw.append((a, b))
        scale *= 10
        j += 1
    merged = []
    for a, b in sorted(raw):
        if merged and a <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def brute_profile_has_late_mass(profile, horizon):
    """Whether `AlphaProfile.validate` accepts the horizon, by the float sums it once took: the late half
    (horizon // 2, horizon] must carry more than 1e-12 of the profile's mass in [1, horizon]."""
    total = sum(profile.value(n) for n in range(1, horizon + 1))
    late = sum(profile.value(n) for n in range(horizon // 2 + 1, horizon + 1))
    return late > 1e-12 * max(total, 1.0)


def brute_difference(members):
    out = set()
    for a in members:
        for b in members:
            if a >= b:
                out.add(a - b)
    return sorted(out)


def brute_syndetic(A, horizon):
    """is_syndetic's fields by the list of (gap, start) pairs, each gap ending at a member or the horizon."""
    members = A.members_in(0, horizon)
    gaps = []
    prev = 0
    for m in members:
        gaps.append((m - prev, prev))
        prev = m
    gaps.append((horizon - members[-1], members[-1]))
    mid = horizon // 2
    g1 = max((g for g, at in gaps if at < mid), default=0)
    g2 = max((g for g, at in gaps if at >= mid), default=0)
    largest, at = max(gaps, key=lambda t: (t[0], t[1]))
    verdict = members[-1] >= mid and g2 <= g1
    return verdict, largest if verdict else 0, largest, at, len(members)


def brute_run_lengths(horizon):
    """c(1..horizon), the S-run length ending at each n, by one s_contains test per n."""
    runs = []
    run = 0
    for n in range(1, horizon + 1):
        run = run + 1 if s_contains(n) else 0
        runs.append(run)
    return runs


def brute_product_law(runs, in_s, weights):
    """(the reason the product law first fails, or None; the n where it holds), from exact products.

    At n the law asks three things: w_n is a power of two, P_n = 2**runs[n - 1], and P_n = 1
    exactly when in_s[n - 1] is 0.  P_n is the exact `Fraction` product of the powers of two
    2**k_i <= |w_i| < 2**(k_i + 1), i <= n, so P_n is the product of the weights while they are
    powers of two, and a weight that is not one fails at its own n only.  Every n up to the
    longest of the three sequences that is missing from one of them fails.
    """
    held, why, product = set(), None, Fraction(1)
    for n, (run, flag, w) in enumerate(zip(runs, in_s, weights), 1):
        exact = Fraction(w)
        k = abs(exact).numerator.bit_length() - abs(exact).denominator.bit_length()
        if Fraction(2) ** k > abs(exact):
            k -= 1
        product *= Fraction(2) ** k
        total = product.numerator.bit_length() - product.denominator.bit_length()  # log2 P_n
        if exact != Fraction(2) ** k:
            fault = f"weight {w!r} is not a power of two"
        elif product != Fraction(2) ** run:
            fault = f"exponent sum {total}, run length {run}"
        elif (product == 1) == bool(flag):
            fault = f"exponent sum {total} with n {'in' if flag else 'outside'} S"
        else:
            held.add(n)
            continue
        why = why or f"n = {n}: {fault}"
    if why is None and not len(runs) == len(in_s) == len(weights):
        n = min(len(runs), len(in_s), len(weights)) + 1
        why = f"n = {n}: the stream has {len(weights)} weights and {len(in_s)} membership flags for {len(runs)} run lengths"
    return why, held


def brute_correlation(member, k_max, windows):
    """(delta, {k: eta_k}) of correlation_scan by scanning: the best window density of the n with
    member(n), and for each shift k of the n with member(n) and member(n + k), over windows (m, s)
    = [m, m + s - 1]."""
    delta = max(Fraction(sum(1 for n in range(m, m + s) if member(n)), s) for m, s in windows)
    eta = {
        k: max(Fraction(sum(1 for n in range(m, m + s) if member(n) and member(n + k)), s) for m, s in windows)
        for k in range(1, k_max + 1)
    }
    return delta, eta


def periodic_eta(period, residues, k):
    """Exact density of {n : n in A and n + k in A} for a periodic set."""
    hits = sum(1 for r in range(period) if (r % period) in residues and ((r + k) % period) in residues)
    return Fraction(hits, period)


def brute_orbit_bounds(hc, T, horizon):
    """verify_orbit_bounds by definition: at every level time n, shift the
    whole vector with apply_backward and sum the squared error with
    norm_sq_exact; the truncation term is summed level by level at each n."""
    plan = hc.plan
    rate = _pow2_rate(T)
    rows, violations, worst = [], [], {}
    for l, k in enumerate(plan.selected, start=1):
        y = plan.targets[l - 1]
        bound = proof_bound(l)
        for n in plan.family.level(k).members_in(0, horizon):
            trunc_sq = Fraction(0)
            for j, kj in enumerate(plan.selected, start=1):
                g, o = _progression(plan.family.level(kj))
                first = _first_member_at_least(g, o, hc.truncation + 1)
                trunc_sq += _geom_tail(rate, 2, first - n, g, _power_sum(plan.targets[j - 1], 2))
            err_sq = norm_sq_exact(apply_backward(T, hc.x, n) - y)
            ok = err_sq <= bound * bound + trunc_sq
            try:
                achieved = float(err_sq) ** 0.5
            except OverflowError:
                achieved = float("inf")
            trunc = float(trunc_sq) ** 0.5
            row = OrbitBoundRow(l, n, achieved, float(bound), trunc, ok)
            rows.append(row)
            slack = float(bound) + trunc - achieved
            if l not in worst or slack < worst[l]:
                worst[l] = slack
            if not ok:
                violations.append(row)
    return OrbitBoundReport(tuple(rows), worst, tuple(violations), horizon)


def _brute_split(value):
    """(mantissa, exp) with value = mantissa * 2**exp, exact for Fractions far outside float range."""
    if isinstance(value, Fraction):
        shift = value.numerator.bit_length() - value.denominator.bit_length()
        m, e = frexp(float(value * Fraction(2) ** (-shift)))
        return m, e + shift
    return frexp(float(value))


def _brute_materialize(m, e):
    if e >= 1024:
        raise OverflowError("entry beyond float range")
    return 0.0 if e < -1100 else ldexp(m, e)


def brute_norm(v):
    """Norm as a float, by the rule `spaces.norm` had before its float size rule was shared:
    plain float arithmetic, recomputed with the entries scaled by their largest magnitude in
    exact rationals when the float sum or maximum leaves the normal range."""
    if not v.entries:
        return 0.0
    inf = float("inf")
    if v.space.kind == "c0":
        try:
            best = max(abs(float(x)) for x in v.entries.values())
        except OverflowError:
            return inf
        return best if best > 0.0 else _brute_saturated(max(abs(Fraction(x)) for x in v.entries.values()))
    p = v.space.p
    total = 0.0
    try:
        if p == 2.0:
            for val in v.entries.values():
                f = float(val)
                total += f * f
        else:
            for val in v.entries.values():
                total += _brute_pow(abs(float(val)), p)
    except OverflowError:
        total = inf
    if 1e-290 < total < inf:
        return sqrt(total) if p == 2.0 else _brute_pow(total, 1.0 / p)
    m = max(abs(Fraction(x)) for x in v.entries.values())
    scale = _brute_saturated(m)
    if scale == inf:
        return scale
    if p == int(p):
        root = float(sum((abs(Fraction(x)) / m) ** int(p) for x in v.entries.values())) ** (1.0 / int(p))
    else:
        scaled_total = 0.0
        for x in v.entries.values():
            scaled_total += float(abs(Fraction(x)) / m) ** p
        root = scaled_total ** (1.0 / p)
    return scale * root if scale * root > 0.0 else scale


def _brute_saturated(f):
    try:
        val = float(f)
    except OverflowError:
        return float("inf")
    return 5e-324 if val == 0.0 and f != 0 else val


def _brute_pow(x, p):
    try:
        return x**p
    except OverflowError:
        return float("inf")


def brute_stop_threshold(radius, space):
    """The smallest float total whose size by the rule of `spaces.norm` is at least `radius`
    (any real radius whose float is finite): on c0 the smallest float >= radius; on lp the
    smallest total above 1e-290, where `norm` roots without rescaling, whose root reaches it,
    found by stepping with `nextafter` from the float radius**p."""
    r = float(radius)
    if r < radius:
        r = nextafter(r, inf)
    if space.kind == "c0":
        return r
    p, low = space.p, nextafter(1e-290, inf)

    def size(total):
        return sqrt(total) if p == 2.0 else _brute_pow(total, 1.0 / p)

    total = max(_brute_pow(r, p), low)
    while size(total) < radius:
        total = nextafter(total, inf)
    while total > low and size(nextafter(total, 0.0)) >= radius:
        total = nextafter(total, 0.0)
    return total


def brute_common_denominator(values):
    """(den, numerators): the lcm of the exact denominators of `values` (1 for none), and each value times it."""
    exact = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in exact))
    return den, [f * den for f in exact]


def brute_orbit(T, x, horizon, overflow_log2):
    """Yield (n, B^n x as floats) for n = 0..horizon, stepping an index -> (mantissa, exponent)
    dict one weight at a time; stops before the first step with an exponent past the cap and
    yields (n, None) for it."""
    state = {idx: _brute_split(val) for idx, val in x.entries.items() if val != 0}
    for n in range(horizon + 1):
        if any(e > overflow_log2 for _, e in state.values()):
            yield n, None
            return
        yield n, SparseVec({i: _brute_materialize(m, e) for i, (m, e) in state.items()}, x.space)
        new = {}
        for idx, (m, e) in state.items():
            if idx - 1 < 0 and not x.space.bilateral:
                continue
            m, de = frexp(m * T.weights.weight(idx))
            new[idx - 1] = (m, e + de)
        state = new


def brute_hitting_times(T, x, targets, horizon, overflow_log2=996):
    """(times per target, truncation step or None): one ball_contains per target and step."""
    times = [[] for _ in targets]
    for n, v in brute_orbit(T, x, horizon, overflow_log2):
        if v is None:
            return times, n
        for t, (center, radius) in enumerate(targets):
            if ball_contains(center, radius, v):
                times[t].append(n)
    return times, None


def brute_return_times(T, U, V, horizon, probe_grid=8, witness_stride=50):
    """Sorted return times of return_set: the hitting times of every probe inside U,
    then the pulled-back witnesses."""
    (uc, ur), (vc, vr) = U, V
    found = set()
    probes = [uc]
    for i in range(probe_grid):
        bump = SparseVec.basis(uc.space, i, Fraction(1, 2) * Fraction(int(ur * 2**20), 2**20) / (i + 2))
        probes.append(uc + bump)
    for probe in probes:
        if ball_contains(uc, ur, probe):
            (times,), _ = brute_hitting_times(T, probe, [(vc, vr)], horizon)
            found.update(times)
    for t in range(0, horizon + 1, witness_stride):
        witness = uc + apply_right_inverse(T, vc - apply_backward(T, uc, t), t)
        if ball_contains(uc, ur, witness) and ball_contains(vc, vr, apply_backward(T, witness, t)):
            found.add(t)
    return sorted(found)


def brute_return_weight_sums(A, alpha, horizon):
    """(betas, growth curve) of return_weight_sums by the double loop over members: each sum is
    the exact `Fraction` sum of the alpha floats, rounded once by `float()`, per member and per cut."""
    members = A.members_in(0, horizon)
    cuts = sorted({max(1, horizon // 100), max(1, horizon // 10), horizon})
    exact = {
        c: [sum((Fraction(alpha.value(m - n)) for m in members if n < m <= c), Fraction(0)) for n in members if n <= c]
        for c in cuts
    }
    betas = {n: float(s) for n, s in zip(members, exact[horizon])}
    return betas, tuple((c, float(max(exact[c], default=0))) for c in cuts)


def _with_unlimited_int_text(fn):
    """fn() with the interpreter's int <-> str digit limit lifted, then restored: the limit is
    process-wide, which the package must not touch and test code may."""
    before = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def brute_vector_text(v):
    """The text of a vector file by int <-> str: a space header, then per index in increasing order
    `format_fraction` of an int or Fraction entry and repr of a float."""
    return _with_unlimited_int_text(lambda: f"# space {v.space.describe()}\n" + "".join(
        f"{i} {format_fraction(x) if isinstance(x, (int, Fraction)) else repr(x)}\n" for i, x in sorted(v.entries.items())
    ))


def brute_read_vector_text(text):
    """The vector a file's text spells, by int <-> str: each entry by `parse_fraction` when it holds a
    '/' or is a (minus-signed) digit string, else by `parse_real`; each index by `parse_int`."""

    def read():
        space, entries = None, {}
        for line in text.split("\n"):
            line = line.strip()
            if line.startswith("# space"):
                space = parse_space_spec(line.removeprefix("# space"))
            elif line:
                idx, _, val = line.partition(" ")
                entries[parse_int(idx)] = (
                    parse_fraction(val) if "/" in val or val.lstrip("-").isdigit() else parse_real(val)
                )
        return SparseVec(entries, space)

    return _with_unlimited_int_text(read)


@pytest.fixture
def rng_seed():
    return 20240811
