"""Orbit hitting times, recurrence classification, return sets, and
correlation machinery over integer time sets.

Orbits are stepped once per time unit.  Internally each entry is carried
as (mantissa, power-of-two exponent) so that dyadic data stays exact far
beyond double range in both directions; a step multiplies the mantissa by
the weight and renormalizes it with one `frexp`, which is exact for
power-of-two weights.  Entries are materialized to floats only for ball
tests.  Magnitudes past the overflow cap truncate the orbit with the
truncation recorded on every report.

Classification labels are evidence at a horizon, never proofs, and the
threshold they use is always carried in the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import frexp, ldexp

from .errors import NoDataError, UsageError
from .indexsets import (
    DensityReport,
    ExplicitSet,
    IndexSet,
    SyndeticEvidence,
    estimate_densities,
    is_syndetic,
)
from .shifts import ShiftOperator, _pow2_clamped, apply_backward, apply_right_inverse
from .spaces import SparseVec, ball_contains

OVERFLOW_LOG2 = 996  # float materialization cap, about 1e300


# ---------------------------------------------------------------------------
# scaled-pair orbit stepping


def _split(value):
    """(mantissa, exp) with value = mantissa * 2**exp, mantissa in [0.5, 1)."""
    if isinstance(value, Fraction):
        shift = value.numerator.bit_length() - value.denominator.bit_length()
        scaled = value * Fraction(2) ** (-shift)
        m, e = frexp(float(scaled))
        return m, e + shift
    m, e = frexp(float(value))
    return m, e


def _materialize(m, e):
    if e >= 1024:
        raise OverflowError("entry beyond float range")
    if e < -1100:
        return 0.0
    return ldexp(m, e)


class _Orbit:
    """Backward-shift orbit with per-entry (mantissa, exponent) state."""

    def __init__(self, T: ShiftOperator, x: SparseVec, overflow_log2: float = OVERFLOW_LOG2):
        self.T = T
        self.space = x.space
        self.overflow_log2 = overflow_log2
        self.state = {}
        for idx, val in x.entries.items():
            if val != 0:
                self.state[idx] = _split(val)

    def vector(self) -> SparseVec:
        return SparseVec({i: _materialize(m, e) for i, (m, e) in self.state.items()}, self.space)

    def overflowed(self) -> bool:
        return any(e > self.overflow_log2 for _, (m, e) in self.state.items())

    def step(self):
        w = self.T.weights
        new = {}
        for idx, (m, e) in self.state.items():
            tgt = idx - 1
            if tgt < 0 and not self.space.bilateral:
                continue
            m, de = frexp(m * w.weight(idx))
            new[tgt] = (m, e + de)
        self.state = new


# ---------------------------------------------------------------------------
# hitting times


@dataclass(frozen=True)
class HittingReport:
    target_index: int
    center: SparseVec
    radius: float
    times: ExplicitSet
    densities: DensityReport | None
    horizon: int
    truncated_at: int | None

    @property
    def truncated(self):
        return self.truncated_at is not None


def hitting_times(
    T: ShiftOperator,
    x: SparseVec,
    targets,
    horizon: int,
    window_grid=None,
    tail_factor: int = 8,
    overflow_log2: float = OVERFLOW_LOG2,
) -> list:
    """Times n <= horizon with B^n x inside each target ball, plus densities.

    `targets` is a list of (center, radius).  The orbit is stepped once per
    time unit; an entry past the overflow cap (log2 scale, default about
    1e300) truncates the scan and the truncation point is recorded on every
    report.
    """
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    for _, r in targets:
        if r <= 0:
            raise UsageError("target radii must be positive")
    orbit = _Orbit(T, x, overflow_log2)
    times = [[] for _ in targets]
    truncated_at = None
    for n in range(horizon + 1):
        if orbit.overflowed():
            truncated_at = n
            break
        v = orbit.vector()
        for t, (center, radius) in enumerate(targets):
            if ball_contains(center, radius, v):
                times[t].append(n)
        if n < horizon:
            orbit.step()
    reports = []
    grid = _fitting_grid(window_grid, horizon)
    for t, (center, radius) in enumerate(targets):
        tset = ExplicitSet(tuple(times[t]))
        dens = estimate_densities(tset, horizon, grid, tail_factor) if grid else None
        reports.append(
            HittingReport(
                target_index=t,
                center=center,
                radius=radius,
                times=tset,
                densities=dens,
                horizon=horizon,
                truncated_at=truncated_at,
            )
        )
    return reports


def _fitting_grid(window_grid, horizon):
    if window_grid is not None:
        return window_grid
    grid = tuple(s for s in (10, 100, 1000) if s <= horizon)
    return grid or None


# ---------------------------------------------------------------------------
# classification


LEVELS = ("none", "reiterative", "u-frequent", "frequent")


@dataclass(frozen=True)
class TargetLabel:
    target_index: int
    level: str
    lower_density: Fraction
    upper_density: Fraction
    upper_banach: Fraction


@dataclass(frozen=True)
class Classification:
    per_target: tuple
    overall: str
    theta: Fraction
    horizon: int
    note: str = "evidence at horizon"


def classify(reports, theta=Fraction(1, 100)) -> Classification:
    """Strongest density level per target, weakest across targets.

    frequent: lower density > theta; u-frequent: upper density > theta;
    reiterative: upper Banach > theta.  The chain property of the density
    report makes the levels nested.
    """
    if not reports:
        raise NoDataError("no hitting reports to classify")
    labels = []
    for r in reports:
        d = r.densities
        if d is None:
            raise UsageError("reports must carry density estimates")
        if d.lower_density > theta:
            level = "frequent"
        elif d.upper_density > theta:
            level = "u-frequent"
        elif d.upper_banach > theta:
            level = "reiterative"
        else:
            level = "none"
        labels.append(
            TargetLabel(r.target_index, level, d.lower_density, d.upper_density, d.upper_banach)
        )
    overall = min((lab.level for lab in labels), key=LEVELS.index)
    horizon = reports[0].horizon
    return Classification(tuple(labels), overall, theta, horizon)


# ---------------------------------------------------------------------------
# return sets N(U, V)


@dataclass(frozen=True)
class ReturnSetReport:
    times: ExplicitSet
    syndetic: SyndeticEvidence | None
    horizon: int
    probes: int
    witness_stride: int
    subset_only: bool = True  # always an under-approximation of N(U, V)


def return_set(
    T: ShiftOperator,
    U,
    V,
    horizon: int,
    probe_grid: int = 8,
    witness_stride: int = 50,
) -> ReturnSetReport:
    """Verified subset of {n : B^n(U) meets V} from finitely many points of U.

    Probes are the center of U, small coordinate perturbations of it, and
    pulled-back witnesses center + S^t(V_center - B^t center) on a stride-t
    grid; each recorded time is individually verified (probe in U and its
    image in V).  The result is a subset, so a syndetic verdict means a
    syndetic subset was found.
    """
    (uc, ur), (vc, vr) = U, V
    if ur <= 0 or vr <= 0:
        raise UsageError("ball radii must be positive")
    found = set()

    probes = [uc]
    for i in range(probe_grid):
        bump = SparseVec.basis(uc.space, i, Fraction(1, 2) * Fraction(int(ur * 2**20), 2**20) / (i + 2))
        probes.append(uc + bump)
    for probe in probes:
        if not ball_contains(uc, ur, probe):
            continue
        orbit = _Orbit(T, probe)
        dead_from = None
        for n in range(horizon + 1):
            if orbit.overflowed():
                break
            v = orbit.vector()
            if not v.entries and not probe.space.bilateral:
                dead_from = n
                break
            if ball_contains(vc, vr, v):
                found.add(n)
            if n < horizon:
                orbit.step()
        if dead_from is not None and ball_contains(vc, vr, SparseVec.zero(probe.space)):
            found.update(range(dead_from, horizon + 1))

    for t in range(0, horizon + 1, witness_stride):
        drift = vc - apply_backward(T, uc, t)
        witness = uc + apply_right_inverse(T, drift, t)
        if not ball_contains(uc, ur, witness):
            continue
        if ball_contains(vc, vr, apply_backward(T, witness, t)):
            found.add(t)

    times = ExplicitSet(tuple(sorted(found)))
    evidence = None
    if times.members:
        evidence = is_syndetic(times, horizon)
    return ReturnSetReport(times, evidence, horizon, len(probes), witness_stride)


# ---------------------------------------------------------------------------
# correlation scans


@dataclass(frozen=True)
class CorrelationReport:
    delta: Fraction
    eta: dict  # k -> Fraction
    levels_in_f: ExplicitSet
    syndetic: SyndeticEvidence | None
    antichain: tuple
    antichain_bound: Fraction
    epsilon: Fraction
    windows: tuple

    @property
    def antichain_ok(self):
        return len(self.antichain) <= self.antichain_bound


def correlation_scan(A: IndexSet, epsilon, k_max: int, windows) -> CorrelationReport:
    """Shift-correlation densities over supplied windows.

    delta is the best window density of A; eta_k the best window density of
    A ∩ (A - k).  F collects the k with eta_k > (1 - eps) * delta**2 and is
    tested for bounded gaps.  A greedy antichain (pairwise differences
    outside F) is compared against the bound (1 - delta(1-eps)) / (delta eps).
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise UsageError("epsilon must lie strictly between 0 and 1")
    windows = tuple((int(m), int(s)) for m, s in windows)
    if not windows:
        raise UsageError("at least one window is required")
    delta = Fraction(0)
    cached_members = []
    for m, s in windows:
        if s < 1:
            raise UsageError("window lengths must be >= 1")
        members = A.members_in(m, m + s - 1)
        cached_members.append(members)
        delta = max(delta, Fraction(len(members), s))
    if delta == 0:
        raise NoDataError("the set has no mass on the supplied windows")

    eta = {}
    for k in range(1, k_max + 1):
        best = Fraction(0)
        for (m, s), members in zip(windows, cached_members):
            hits = sum(1 for x in members if A.contains(x + k))
            best = max(best, Fraction(hits, s))
        eta[k] = best

    threshold = (1 - epsilon) * delta * delta
    f_levels = tuple(k for k in range(1, k_max + 1) if eta[k] > threshold)
    f_set = ExplicitSet(f_levels)
    evidence = is_syndetic(f_set, k_max) if f_levels else None

    antichain = []
    f_lookup = set(f_levels)
    for k in range(1, k_max + 1):
        if all((k - r) not in f_lookup for r in antichain):
            antichain.append(k)
    bound = (1 - delta * (1 - epsilon)) / (delta * epsilon)
    return CorrelationReport(
        delta=delta,
        eta=eta,
        levels_in_f=f_set,
        syndetic=evidence,
        antichain=tuple(antichain),
        antichain_bound=bound,
        epsilon=epsilon,
        windows=windows,
    )


# ---------------------------------------------------------------------------
# weighted return sums


@dataclass(frozen=True)
class AlphaProfile:
    """Non-negative weights with a one-sided ratio floor.

    kinds: "constant" (alpha_n = 1 for 1 <= n < cutoff) with ratio floor 1,
    "harmonic" (alpha_n = 1/n for 1 <= n < cutoff) with ratio floor 1/2,
    "table" (explicit values from n = 1).  cutoff None means no cutoff.
    """

    kind: str
    cutoff: int | None = None
    table: tuple = ()

    def value(self, n: int) -> float:
        if n < 1:
            return 0.0
        if self.cutoff is not None and n >= self.cutoff:
            return 0.0
        if self.kind == "constant":
            return 1.0
        if self.kind == "harmonic":
            return 1.0 / n
        if self.kind == "table":
            return self.table[n - 1] if n <= len(self.table) else 0.0
        raise UsageError(f"unknown profile kind {self.kind!r}")

    def ratio_floor(self) -> float:
        return {"constant": 1.0, "harmonic": 0.5, "table": 0.0}.get(self.kind, 0.0)

    def validate(self, horizon: int):
        c = self.ratio_floor()
        upper = min(horizon, 512)
        for n in range(2, upper):
            if self.value(n) + 1e-15 < c * self.value(n - 1) and (
                self.cutoff is None or n < self.cutoff
            ):
                raise UsageError(f"profile violates the ratio floor at n={n}")
        total = sum(self.value(n) for n in range(1, horizon + 1))
        late = sum(self.value(n) for n in range(horizon // 2 + 1, horizon + 1))
        if late <= 1e-12 * max(total, 1.0):
            raise UsageError("profile mass dies out; divergence evidence fails at this horizon")


@dataclass(frozen=True)
class ReturnSumReport:
    betas: dict  # n -> float, at the full horizon
    growth_curve: tuple  # (cut, max beta) per cutoff
    growing: bool
    horizon: int


def return_weight_sums(A: IndexSet, alpha: AlphaProfile, horizon: int) -> ReturnSumReport:
    """beta_n = sum over m in A of alpha(m - n), truncated to the horizon.

    The growth curve re-evaluates max beta at nested sub-horizons; strictly
    increasing maxima are unboundedness evidence.
    """
    alpha.validate(horizon)
    members = A.members_in(0, horizon)
    if not members:
        raise NoDataError("the set is empty below the horizon")
    cuts = sorted({max(1, horizon // 100), max(1, horizon // 10), horizon})
    betas_full = {}
    curve = {c: 0.0 for c in cuts}
    for n in members:
        partial = {c: 0.0 for c in cuts}
        for m in members:
            a = alpha.value(m - n)
            if a:
                for c in cuts:
                    if m <= c:
                        partial[c] += a
        betas_full[n] = partial[horizon]
        for c in cuts:
            if n <= c and partial[c] > curve[c]:
                curve[c] = partial[c]
    seq = [curve[c] for c in cuts]
    growing = all(a < b for a, b in zip(seq, seq[1:])) and seq[-1] >= seq[0] * 1.02
    return ReturnSumReport(betas_full, tuple(zip(cuts, seq)), growing, horizon)


# ---------------------------------------------------------------------------
# two-sided tail sums around a hitting time


@dataclass(frozen=True)
class TailSums:
    left: float
    right: float
    left_terms: int
    right_terms: int
    time: int

    def both_within(self, cap: float = 1.0) -> bool:
        return self.left <= cap and self.right <= cap


def bilateral_tail_sums(w, p: float, A: IndexSet, n: int, horizon: int) -> TailSums:
    """Reciprocal-product sums over A on both sides of a hitting time n.

    left: members m < n weighted by 1 / |w_{m-n+1} ... w_0|**p;
    right: members m > n weighted by 1 / |w_1 ... w_{m-n}|**p.
    Requires bilateral weights (the left products reach indices <= 0).
    """
    if p < 1:
        raise UsageError("p must be >= 1")
    if not w.bilateral:
        raise UsageError("left sums need bilateral weights")
    if not A.contains(n):
        raise UsageError(f"n={n} is not a member of the set")
    left = 0.0
    left_terms = 0
    for m in A.members_in(0, n - 1) if n > 0 else []:
        e = w.log2_product_range(m - n + 1, 0)
        left += _pow2_clamped(-p * float(e))
        left_terms += 1
    right = 0.0
    right_terms = 0
    for m in A.members_in(n + 1, horizon):
        e = w.log2_product_range(1, m - n)
        right += _pow2_clamped(-p * float(e))
        right_terms += 1
    return TailSums(left, right, left_terms, right_terms, n)
