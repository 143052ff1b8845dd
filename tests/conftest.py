"""Shared brute-force oracles.

Every oracle recomputes from definitions by direct scanning, independent of
the closed forms in the package, so frozen expected values in the tests can
be traced to these.
"""

from fractions import Fraction
from math import frexp, log2

import pytest

from hyperorbit import apply_backward, norm_sq_exact, proof_bound
from hyperorbit.constructor import (
    OrbitBoundReport,
    OrbitBoundRow,
    _first_member_at_least,
    _geom_tail,
    _norm_pow,
    _pow2_rate,
    _progression,
)


def brute_count(A, a, b):
    return sum(1 for n in range(a, b + 1) if A.contains(n))


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


def brute_s_member(m, j_cap=12, l_factor=2):
    """Membership in the digit-neighborhood set by scanning (j, l) directly."""
    for j in range(1, j_cap + 1):
        step = 10**j
        for l in range(1, m // step + l_factor):
            if l * step - j < m < l * step + j:
                return True
    return False


def brute_difference(members):
    out = set()
    for a in members:
        for b in members:
            if a >= b:
                out.add(a - b)
    return sorted(out)


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
                trunc_sq += _geom_tail(rate, 2, first - n, g, _norm_pow(plan.targets[j - 1], 2))
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


@pytest.fixture
def rng_seed():
    return 20240811
