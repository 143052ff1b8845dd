"""Constructive assembly of vectors with prescribed recurrent orbits.

Given a backward shift whose right inverse contracts fast enough and a
family of disjoint progressions A_1, A_2, ... with the pairwise-gap
property, the vector

    x = sum over selected levels l, n in A_{k_l} of S^n y_l

returns close to y_l at every time n in A_{k_l}.  Level selection is
greedy (smallest admissible k each round) and every choice is backed by a
certificate: a closed-form geometric tail bound, exact in rational
arithmetic for power-of-two weights.  Disjoint supports make the lp-power
of a block sum equal the sum of term powers, so the certificates bound
every finite sub-sum at once.

Assembly keeps entries as exact dyadic fractions; bound verification
compares squared norms exactly, as integers over one common denominator,
with the truncation contribution reported as a separate additive term.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import FamilyExhaustedError, UsageError
from .indexsets import GeometricSet, PeriodicSet, SetFamily, check_gap_family
from .shifts import ConstantWeights, ShiftOperator, _constant_pow2_rate, apply_backward, apply_right_inverse
from .spaces import _EXACT_P, SparseVec, SpaceSpec, _common_denominator, _power_sum, _root_ratio, norm


# ---------------------------------------------------------------------------
# built-in families

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def dyadic_block_family(k_max: int, spread: int = 6) -> SetFamily:
    """A_k = {n >= 0 : n = 2**(k+spread-1) mod 2**(k+spread)}.

    Distinct levels occupy distinct dyadic valuations, so the sets are
    disjoint with pairwise gaps >= 2**spread; level k has density
    2**-(k+spread).  The gap property is machine-verified by callers.
    """
    if k_max < 1:
        raise UsageError("k_max must be >= 1")
    if spread < 0:
        raise UsageError("spread must be >= 0")
    sets = tuple(
        PeriodicSet(2 ** (k + spread), (2 ** (k + spread - 1),)) for k in range(1, k_max + 1)
    )
    return SetFamily(label=f"dyadic-block:{k_max}:{spread}", sets=sets)


def prime_power_family(k_max: int, min_exponent: int = 5) -> SetFamily:
    """A_k = {p_k**j : j >= min_exponent} for the k-th prime.

    Low exponents are excluded so that desk-scale members keep the pairwise
    gap property (8 and 9 would violate it); verify with check_gap_family.
    """
    if k_max < 1 or k_max > len(_PRIMES):
        raise UsageError(f"k_max must be in 1..{len(_PRIMES)}")
    sets = tuple(GeometricSet(_PRIMES[k - 1], min_exponent) for k in range(1, k_max + 1))
    return SetFamily(label=f"prime-power:{k_max}:{min_exponent}", sets=sets)


# ---------------------------------------------------------------------------
# dense sequence of dyadic vectors


class DenseDyadicSequence:
    """Deterministic enumeration of all finitely supported dyadic vectors.

    Stage t covers support within [0, t) and coordinates m / 2**t with
    0 < |m| <= t * 2**t; a vector is emitted at the first stage containing
    it, so each one appears exactly once.  Within a stage, coordinates are
    ordered simplest-first (integers, then halves, quarters, ...), which
    puts e_0 first overall.
    """

    def __init__(self, space: SpaceSpec):
        if space.bilateral:
            raise UsageError("the dense enumeration is unilateral")
        self.space = space
        self._cache = []
        self._gen = self._generate()

    def item(self, l: int) -> SparseVec:
        """1-based deterministic enumeration."""
        if l < 1:
            raise UsageError("items are 1-based")
        while len(self._cache) < l:
            self._cache.append(next(self._gen))
        return self._cache[l - 1]

    @staticmethod
    def _stage_coords(t: int):
        vals = []
        for m in range(1, t * 2**t + 1):
            v = Fraction(m, 2**t)
            vals.append(v)
            vals.append(-v)
        vals.sort(key=lambda v: (v.denominator, abs(v), v < 0))
        return vals

    @staticmethod
    def _belongs_to_earlier(coords, t: int) -> bool:
        if t == 1:
            return False
        prev = t - 1
        if any(i >= prev for i, c in enumerate(coords) if c != 0):
            return False
        for c in coords:
            if c == 0:
                continue
            if (c * 2**prev).denominator != 1 or abs(c) > prev:
                return False
        return True

    def _generate(self):
        for t in itertools.count(1):
            options = [Fraction(0)] + self._stage_coords(t)
            for tup in itertools.product(options, repeat=t):
                if all(c == 0 for c in tup):
                    continue
                if self._belongs_to_earlier(tup, t):
                    continue
                yield SparseVec({i: c for i, c in enumerate(tup) if c != 0}, self.space)


# ---------------------------------------------------------------------------
# certificates and plan selection


@dataclass(frozen=True)
class Certificate:
    condition: str  # "i" | "ii" | "iii" | "iv" | "support-gap"
    level: int
    against_level: int | None
    bound: float
    required: float
    ok: bool  # decided in exact arithmetic, not from the float fields
    detail: str


@dataclass(frozen=True)
class ConstructionPlan:
    family: SetFamily
    selected: tuple  # level indices k_1 < k_2 < ...
    targets: tuple  # y_1, ..., y_depth
    certificates: tuple
    horizon: int
    operator: str

    def level_set(self, l: int):
        return self.family.level(self.selected[l - 1])

    def serialize(self) -> str:
        lines = [
            f"family {self.family.label}",
            f"operator {self.operator}",
            f"selected {','.join(str(k) for k in self.selected)}",
            f"horizon {self.horizon}",
        ]
        for c in self.certificates:
            against = "-" if c.against_level is None else str(c.against_level)
            lines.append(
                f"cert {c.condition} l={c.level} j={against} bound={c.bound!r}"
                f" required={c.required!r} {c.detail}"
            )
        return "\n".join(lines) + "\n"


def _progression(s) -> tuple:
    """(gap, offset) for a single-residue periodic set."""
    if isinstance(s, PeriodicSet) and len(s.residues) == 1:
        return s.period, s.residues[0]
    raise UsageError("certificates need single-residue periodic levels")


def _pow2_rate(T: ShiftOperator):
    """Exact per-step log2 growth of partial products: constant power-of-two weights above 1.

    Negative constants raise UsageError: the orbit-bound verifier takes every
    partial product to be the positive power 2**(rate*n).
    """
    w = T.weights
    if isinstance(w, ConstantWeights) and w.value < 0:
        raise UsageError("orbit-bound certificates need positive weights")
    rate = _constant_pow2_rate(w)
    return rate if rate is not None and rate > 0 else None


def _int_p(space: SpaceSpec):
    """The int exponent q of the exact certificate powers (None on c0): p itself up to
    `spaces._EXACT_P`, and `_EXACT_P` above it.  The lp norm of a sequence is at most its
    lq norm for p >= q, so a bound in lq bounds it too; the exact powers 2**(-rate*q*n)
    then stay as small as the exact norm's, where with q = p they grow with p."""
    if space.kind == "c0":
        return None
    if space.p > _EXACT_P:
        return _EXACT_P
    if space.p == int(space.p):
        return int(space.p)
    raise UsageError("certificates need an integer lp exponent or c0")


def _geom_tail(rate_bits: int, ip, first_exp: int, gap: int, weight: Fraction) -> Fraction:
    """Bound for sums/maxima of 2**(-rate*p*n) over n = first, first+gap, ...

    lp: geometric series; c0: the first term.
    """
    if ip is None:
        return weight * Fraction(2) ** (-rate_bits * first_exp)
    r = Fraction(2) ** (-rate_bits * ip)
    return weight * r**first_exp / (1 - r**gap)


def _first_member_at_least(gap: int, offset: int, cutoff: int) -> int:
    if offset >= cutoff:
        return offset
    return offset + -((offset - cutoff) // gap) * gap


def _support_width(targets) -> int:
    width = 0
    for y in targets:
        sup = y.support()
        if sup:
            width = max(width, sup[-1] + 1)
    return width


def select_subsequence(T: ShiftOperator, family: SetFamily, depth: int, horizon: int) -> ConstructionPlan:
    """Greedy level selection with certified tail bounds.

    The targets y_1..y_depth are the first items of the dense dyadic
    sequence on T's space.  For each l = 1..depth the smallest unused
    level k is taken whose certificates all hold:

      i   the full right-inverse tail over each chosen progression is below
          1/(l*2**l) in norm,
      ii  block sums of S-terms hit by any shifted family time stay below
          1/2**l,
      iii cross-level block sums stay below 1/(l*2**l),
      iv  the exact right-inverse identity B**n S**n y = y (zero error),

    plus a support-gap certificate making all backward cross-terms vanish.
    Certificates are closed geometric forms; weights without a positive
    exact growth rate cannot be certified and exhaust the family.  On lp
    with p above `spaces._EXACT_P` they bound the l64 norm, which bounds
    the lp norm.  Levels that are not single-residue periodic sets with
    nested periods, and non-integer lp exponents up to 64, raise UsageError.
    """
    dense = DenseDyadicSequence(T.space)
    if depth < 1:
        raise UsageError("depth must be >= 1")
    gaps = check_gap_family(family, horizon)
    if not gaps.ok:
        raise UsageError(f"family fails the pairwise gap property: {gaps.violation}")
    rate = _pow2_rate(T)
    if rate is None:
        raise FamilyExhaustedError(
            "i",
            1,
            "condition i: no positive exact growth rate, right-inverse tails do not shrink",
        )
    ip = _int_p(T.space)
    targets = tuple(dense.item(l) for l in range(1, depth + 1))
    width = _support_width(targets)
    min_gap = min(_progression(s)[0] for _, s in family.enumerate_levels())
    if min_gap <= width:
        raise FamilyExhaustedError(
            "support-gap", 1, f"family gap {min_gap} does not clear support width {width}"
        )

    certificates = [
        Certificate(
            "support-gap",
            0,
            None,
            float(width),
            float(min_gap),
            min_gap > width,
            f"backward cross-terms vanish: min gap {min_gap} > support width {width}",
        )
    ]
    selected: list[int] = []
    for l in range(1, depth + 1):
        placed = False
        first_failure = None
        for k in range((selected[-1] + 1) if selected else 1, len(family) + 1):
            certs = _certify_level(T, family, selected, k, l, targets, rate, ip)
            bad = next((c for c in certs if not c.ok), None)
            if bad is None:
                selected.append(k)
                certificates.extend(certs)
                placed = True
                break
            if first_failure is None:
                first_failure = bad
        if not placed:
            cond = first_failure.condition if first_failure else "i"
            raise FamilyExhaustedError(
                cond, l, f"no admissible level for l={l}; condition {cond} failed last"
            )
    return ConstructionPlan(
        family=family,
        selected=tuple(selected),
        targets=targets,
        certificates=tuple(certificates),
        horizon=horizon,
        operator=T.describe(),
    )


def _certify_level(T, family, selected, k, l, targets, rate, ip):
    need_i = Fraction(1, l * 2**l)
    need_ii = Fraction(1, 2**l)

    def tail_cert(condition, j, start, gap, y, need, detail):
        """The geometric tail of y's terms from `start` on, every `gap`, against need (to the p-th power)."""
        weight = _power_sum(y, ip)
        tail = _geom_tail(rate, ip, start, gap, weight)
        ok = tail <= (need if ip is None else need**ip)
        bound = _root_ratio(*tail.as_integer_ratio(), ip)
        if not bound and tail:  # below the floats: the root of the tail from 0, times 2**(-rate*start)
            head = _geom_tail(rate, ip, 0, gap, weight)
            bound = math.ldexp(_root_ratio(*head.as_integer_ratio(), ip), -rate * start)
        return Certificate(condition, l, j, bound, float(need), ok, detail)

    # condition i: full tails of earlier levels past position k, and of level
    # k itself, must stay below 1/(l 2^l)
    certs = []
    for j in range(1, l + 1):
        kj = selected[j - 1] if j < l else k
        gj, oj = _progression(family.level(kj))
        n0 = _first_member_at_least(gj, oj, k)
        detail = f"tail over level {kj} from n={n0}, gap {gj}"
        certs.append(tail_cert("i", j, n0, gj, targets[j - 1], need_i, detail))

    # condition ii: sums over the candidate level seen from any family time
    gk, okr = _progression(family.level(k))
    d0 = min(_min_distance_between(family, m, k) for m in range(1, len(family) + 1))
    certs.append(tail_cert("ii", None, d0, gk, targets[l - 1], need_ii, f"forward terms from distance {d0}, gap {gk}"))

    # condition iii: sums over earlier chosen levels seen from level-k times
    for j in range(1, l):
        kj = selected[j - 1]
        gj, oj = _progression(family.level(kj))
        dj = _min_distance_between(family, k, kj)
        detail = f"level {kj} seen from level {k}, distance {dj}"
        certs.append(tail_cert("iii", j, dj, gj, targets[j - 1], need_i, detail))

    # condition iv: the right inverse is exact, checked on the first time
    n0 = _first_member_at_least(gk, okr, 0)
    y = targets[l - 1]
    back = apply_backward(T, apply_right_inverse(T, y, n0), n0)
    iv_err = norm(back - y)
    certs.append(
        Certificate("iv", l, None, iv_err, float(need_ii), iv_err <= float(need_ii), f"identity at n={n0}")
    )
    return certs


def _min_distance_between(family, k_from, k_to) -> int:
    """Min positive distance from a level-k_from member to a later level-k_to member.

    With nested periods the distances are ot - of plus the multiples of the smaller period.
    """
    gf, of = _progression(family.level(k_from))
    gt, ot = _progression(family.level(k_to))
    if max(gf, gt) % min(gf, gt):
        raise UsageError("periods must be nested")
    return (ot - of - 1) % min(gf, gt) + 1


# ---------------------------------------------------------------------------
# assembly and verification


@dataclass(frozen=True)
class HCVector:
    x: SparseVec
    plan: ConstructionPlan
    truncation: int


def assemble_vector(plan: ConstructionPlan, T: ShiftOperator, truncation: int) -> HCVector:
    """x = sum of S^n y_l over n in A_{k_l} ∩ [0, truncation], exact dyadic entries."""
    if truncation < 0:
        raise UsageError("truncation must be >= 0")
    entries: dict = {}
    for l, k in enumerate(plan.selected, start=1):
        y = plan.targets[l - 1]
        for n in plan.family.level(k).members_in(0, truncation):
            piece = apply_right_inverse(T, y, n)
            for idx, val in piece.entries.items():
                entries[idx] = entries.get(idx, 0) + val
    return HCVector(SparseVec(entries, T.space), plan, truncation)


@dataclass(frozen=True)
class OrbitBoundRow:
    level: int
    time: int
    achieved: float
    bound: float
    truncation_term: float
    ok: bool


@dataclass(frozen=True)
class OrbitBoundReport:
    rows: tuple
    worst_slack: dict  # level -> smallest (bound + trunc - achieved)
    violations: tuple
    horizon: int

    @property
    def ok(self):
        return not self.violations


def proof_bound(l: int) -> Fraction:
    """Certified orbit-error bound at level l: 2/2**(l-2) + 1/2**l."""
    return Fraction(2) ** (2 - l) + Fraction(2) ** (2 - l) + Fraction(2) ** (-l)


def verify_orbit_bounds(hc: HCVector, T: ShiftOperator, horizon: int) -> OrbitBoundReport:
    """Check ‖B^n x - y_l‖ against the certified bound at every level time n.

    The comparison is exact and conservative: the squared l2 error, in
    rational arithmetic, must not exceed bound**2 + truncation**2, which is
    at most (bound + truncation)**2.  The truncation term covers members
    beyond the assembly cutoff and is reported separately per row.

    The check needs a constant weight 2**rate with an integer rate > 0, the
    only weights `_pow2_rate` accepts, on l2, and plan levels that are
    single-residue periodic sets; anything else raises UsageError.  Then
    B^n scales every entry by 2**(rate*n), so the orbit point is never built:

        ‖B^n x - y‖² = 4^{rate·n} Σ_{j >= n} x_j²
                       - 2^{rate·n+1} Σ_{m in supp y} x_{n+m} y_m + ‖y‖²

    with the first sum over the entries live at n (`SpaceSpec.last_step`).  Entries become
    integer numerators over one common denominator, one backward pass gives
    the suffix sums of x_j², and each level time costs one bisect plus
    O(|supp y|) integer products and shifts, with no gcd.  The truncation
    term is K·4^{rate·n} for a constant K of the plan.
    """
    plan = hc.plan
    rate = _pow2_rate(T)
    if rate is None:
        raise UsageError("exact verification needs constant power-of-two weights 2**r with r >= 1")
    if T.space.kind != "lp" or T.space.p != 2.0:
        raise UsageError("exact verification is implemented for the l2 norm")
    xs, ys, den = _integer_entries(hc.x, plan.targets)
    keys = sorted(xs)
    last_steps = [T.space.last_step(k) for k in keys]  # ascending with the keys
    suffix = [0] * (len(keys) + 1)
    for i in range(len(keys) - 1, -1, -1):
        X = xs[keys[i]]
        t = (X & -X).bit_length() - 1  # X = odd << t: only the odd part is squared
        suffix[i] = suffix[i + 1] + ((X >> t) ** 2 << 2 * t)
    den_sq = den * den
    kn, kd = _truncation_constant(plan, rate, hc.truncation).as_integer_ratio()
    rows = []
    violations = []
    worst: dict = {}
    for l, k in enumerate(plan.selected, start=1):
        y = ys[l - 1]
        y_sq = sum(v * v for v in y.values())
        bound = proof_bound(l)
        bn, bd = (bound * bound).as_integer_ratio()
        # err/den² <= bn/bd + kn·4^s/kd, cross-multiplied
        err_scale, fixed, per_row = bd * kd, den_sq * bn * kd, den_sq * bd * kn
        for n in plan.family.level(k).members_in(0, horizon):
            s = rate * n
            tail = suffix[bisect_left(last_steps, n)]  # the entries still live at n
            dot = sum(xs.get(n + m, 0) * v for m, v in y.items())
            err = (tail << (2 * s)) - (dot << (s + 1)) + y_sq
            ok = err * err_scale <= fixed + (per_row << (2 * s))
            achieved = _root_ratio(err, den_sq, 2)
            trunc = _root_ratio(kn << (2 * s), kd, 2)
            row = OrbitBoundRow(l, n, achieved, float(bound), trunc, ok)
            rows.append(row)
            slack = float(bound) + trunc - achieved
            if l not in worst or slack < worst[l]:
                worst[l] = slack
            if not ok:
                violations.append(row)
    return OrbitBoundReport(tuple(rows), worst, tuple(violations), horizon)


def _integer_entries(x: SparseVec, targets):
    """Numerators of x and of the targets over one common denominator.

    Returns ({index: X_j}, [{index: Y_m} per target], den) with x_j = X_j / den
    and y_m = Y_m / den, exactly, den the lcm of the denominators
    (`spaces._common_denominator`), which assembled vectors, with only
    power-of-two denominators, reach with no gcd on long numbers.
    """
    den, nums = _common_denominator(lambda: itertools.chain(x.entries.values(), *(y.entries.values() for y in targets)))
    return dict(zip(x.entries, nums)), [dict(zip(y.entries, nums)) for y in targets], den


def _truncation_constant(plan, rate, truncation) -> Fraction:
    """K such that K·4**(rate*n) bounds the squared l2 norm of the orbit
    contribution, seen at time n, of members beyond the truncation cutoff."""
    total = Fraction(0)
    for l, k in enumerate(plan.selected, start=1):
        g, o = _progression(plan.family.level(k))
        first = _first_member_at_least(g, o, truncation + 1)
        total += _geom_tail(rate, 2, first, g, _power_sum(plan.targets[l - 1], 2))
    return total
