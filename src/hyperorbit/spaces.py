"""Finitely supported vectors over lp / c0 sequence spaces.

Scalars are reals; dyadic rationals may be carried as `fractions.Fraction`
so that shift orbits built from powers of two stay exact far below the
double-precision underflow threshold.  Norm values are floats; the exact
bound checks work on power sums of their own, and `norm_sq_exact` (the
rational square of the l2 norm) serves only the API, tests and bench
tracer.  Ball tests compare `norm(v - center) < radius` strictly, with the
norm and the comparison in floats, so a point within rounding of the
sphere can fall on either side.  Tolerance policy belongs to callers.

One float rule serves every space, in two halves the orbit scan shares:
`_float_terms` turns entries into terms, lazily, and `_float_size` turns
terms into the norm, or says that `norm` must rescale; the rescaled norm
of a p that is not an integer up to 64 goes through the same two halves.
A ball test may hand `_float_size` the stop total of its radius
(`_stop_total`: r on c0, (r * (1 + 2**-40))**p on every lp): the size
rule then reads terms only until their running maximum or sum reaches it,
which already settles `size < radius` as False, since the terms are
non-negative and a rounded sum never falls.  `norm` and `ball_contains`
pass no stop.  An entry's lifetime under the backward shift has one rule,
`SpaceSpec.last_step`, and exact int arithmetic one common denominator,
`_common_denominator`.
One exact power sum, `_power_sum`, serves the rescaled norm,
`norm_sq_exact` and the certificates, and one root rule, `_root_ratio`,
takes the float root of an exact ratio for the rescaled norm, the
certificates and the orbit-bound check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, tee
from math import inf, lcm, nextafter, sqrt
from operator import add, mul, sub

from .errors import SpaceMismatchError, UsageError


@dataclass(frozen=True)
class SpaceSpec:
    kind: str  # "lp" or "c0"
    p: float | None = None
    bilateral: bool = False

    def __post_init__(self):
        if self.kind == "lp":
            if self.p is None or self.p < 1:
                raise UsageError("lp spaces need an exponent p >= 1")
        elif self.kind == "c0":
            if self.p is not None:
                raise UsageError("c0 takes no exponent")
        else:
            raise UsageError(f"unknown space kind {self.kind!r}")

    def describe(self) -> str:
        base = f"lp:{self.p}" if self.kind == "lp" else "c0"
        return base + (":bilateral" if self.bilateral else "")

    def last_step(self, index: int):
        """The last step n at which B^n keeps the entry at `index` (moved to index - n):
        its index on a unilateral space, no bound (inf) on a bilateral one."""
        return inf if self.bilateral else index


def lp(p: float = 2.0, bilateral: bool = False) -> SpaceSpec:
    return SpaceSpec("lp", float(p), bilateral)


def c0(bilateral: bool = False) -> SpaceSpec:
    return SpaceSpec("c0", None, bilateral)


class SparseVec:
    """Immutable finitely supported vector: index -> nonzero scalar."""

    __slots__ = ("entries", "space")

    def __init__(self, entries, space: SpaceSpec):
        cleaned = {}
        for idx, val in dict(entries).items():
            if val == 0:
                continue
            if idx < 0 and not space.bilateral:
                raise UsageError(f"negative index {idx} in a unilateral space")
            cleaned[int(idx)] = val
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "space", space)

    def __setattr__(self, *_):
        raise AttributeError("SparseVec is immutable")

    @classmethod
    def basis(cls, space: SpaceSpec, k: int, value=1) -> "SparseVec":
        return cls({k: value}, space)

    @classmethod
    def zero(cls, space: SpaceSpec) -> "SparseVec":
        return cls({}, space)

    def support(self):
        return sorted(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, SparseVec)
            and self.space == other.space
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.entries.items()))))

    def _combine(self, other, op):
        """self op other, entry by entry: self's indices first, then other's new ones."""
        _same_space(self.space, other.space)
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[idx] = op(out.get(idx, 0), val)
        return SparseVec(out, self.space)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def scale(self, factor) -> "SparseVec":
        return SparseVec({i: factor * v for i, v in self.entries.items()}, self.space)

    def __repr__(self):
        items = ", ".join(f"{i}:{v}" for i, v in sorted(self.entries.items())[:8])
        more = "" if len(self.entries) <= 8 else f", ... ({len(self.entries)} entries)"
        return f"SparseVec({{{items}{more}}}, {self.space.describe()})"


def _same_space(a: SpaceSpec, b: SpaceSpec):
    if a != b:
        raise SpaceMismatchError(f"{a.describe()} vs {b.describe()}")


def norm_sq_exact(v: SparseVec) -> Fraction:
    """Exact sum of squared entries; only meaningful for the l2 norm."""
    if v.space.kind != "lp" or v.space.p != 2.0:
        raise UsageError("norm_sq_exact is an l2 helper")
    return _power_sum(v, 2)


def _power_sum(v: SparseVec, ip) -> Fraction:
    """The exact sum of |v_i|**ip, or the largest |v_i| for ip None (c0); 0 with no entry."""
    if ip is None:
        return max((abs(Fraction(x)) for x in v.entries.values()), default=Fraction(0))
    return sum((abs(Fraction(x)) ** ip for x in v.entries.values()), Fraction(0))


def _common_denominator(values):
    """(den, numerators) for the float, int and `Fraction` values `values()` yields:
    den = 2**(max a) * lcm(odd parts) of their denominators 2**a * odd, their lcm
    (1 for none), and the exact ints v * den, yielded in order.  `values` is called
    twice, for the denominators and then the numerators, so no list is held; each
    lift is one factor and one shift, so power-of-two denominators cost no gcd."""
    twos = {d: (d & -d).bit_length() - 1 for d in {v.as_integer_ratio()[1] for v in values()}}
    top = max(twos.values(), default=0)
    odd = lcm(*(d >> a for d, a in twos.items()))
    lift = {d: (odd // (d >> a), top - a) for d, a in twos.items()}

    def numerators():
        for v in values():
            num, d = v.as_integer_ratio()
            factor, shift = lift[d]
            yield num * factor << shift

    return odd << top, numerators()


def _root_ratio(num: int, den: int, ip) -> float:
    """The float ip-th root of num / den, taken from the correctly rounded quotient;
    the quotient itself for c0 (ip None), inf past the float range."""
    try:
        q = num / den
    except OverflowError:
        return float("inf")
    return q if ip is None else q ** (1.0 / ip)


def norm(v: SparseVec) -> float:
    """Norm as a float.

    The fast path is plain float arithmetic.  When it overflows or
    underflows despite nonzero entries, the norm is recomputed with the
    entries scaled by their largest magnitude in exact rationals, so the
    result stays positive for every nonzero vector (saturating at the
    float range boundaries when the true value falls outside them).  The
    rescaled sum is exact for an integer p up to 64; a larger p, whose exact
    powers would not finish, or a non-integer one sums float terms.
    """
    if not v.entries:
        return 0.0
    try:
        values = [float(x) for x in v.entries.values()]
    except OverflowError:  # an entry, so the largest magnitude too, is beyond float range
        return float("inf")
    size = _float_size(_float_terms(values, v.space), v.space)
    return _scaled_norm(v) if size is None else size


_TINY = 1e-290  # lp sums at or below it have lost bits, so `norm` rescales them
_STOP_CAP = 2.0**1000  # ball tests stop below it: an lp sum that overflows later lies past every stop's radius
_EXACT_P = 64  # the largest p whose rescaled norm takes the exact power sum
_MARGIN = 1 + 2.0**-40  # widens r before r**p: covers the rounding of 1/p and of libm's pow


def _float_terms(values, space: SpaceSpec):
    """The float terms of a norm, lazily, in the order of `values` (any iterable):
    |v| (c0), v * v (l2) or |v|**p (other lp)."""
    if space.kind == "c0":
        return map(abs, values)
    if space.p == 2.0:
        return map(mul, *tee(values))
    return map(_safe_pow, map(abs, values), repeat(space.p))


def _float_size(terms, space: SpaceSpec, stop=None):
    """The norm from its `_float_terms`: their maximum (c0) or the root of their
    sum, left to right (lp); None where `norm` must rescale: a c0 maximum of 0,
    or an lp sum outside (1e-290, inf), where it loses bits.

    With a `stop` total from `_stop_total`, inf as soon as the maximum or the
    running sum of the terms read so far reaches it, and no further term is
    read.  The terms are non-negative and rounding is monotone, so the running
    sum never falls, and every total from the stop on has a size of at least
    the radius the stop was taken for: the verdict `size < radius` is the one
    the whole sum gives.  A sum that is never stopped is the same additions in
    the same order as without a stop."""
    total = 0.0
    if space.kind == "c0":
        for t in terms:
            if t > total:
                total = t
                if stop is not None and t >= stop:
                    return inf
        return total if total > 0.0 else None
    for t in terms:
        total += t
        if stop is not None and total >= stop:
            return inf
    if not _TINY < total < inf:
        return None
    return sqrt(total) if space.p == 2.0 else _safe_pow(total, 1.0 / space.p)


def _stop_total(radius, space: SpaceSpec):
    """The total from which `_float_size` may stop for a ball of this radius,
    or None where no total is safe.

    With r the smallest float >= radius, the stop is r on c0 and, on every lp,
    l2 included, (r * (1 + 2**-40))**p above 1e-290, whose margin outweighs the
    rounding of r * (1 + 2**-40), of 1/p and of a pow or sqrt within 2**-42: every
    float total from it on has a size of at least `radius`, even a `Fraction` or
    `int` one, and is rooted without rescaling.  A stop at or past `_STOP_CAP` is
    None: below it, a sum that overflows later has a true size of at least
    2**(1023/p) > radius, under the rescaled norm as well."""
    try:
        r = float(radius)
    except OverflowError:
        return None
    if r < radius:
        r = nextafter(r, inf)
    if space.kind == "c0":
        return r
    stop = max(_safe_pow(r * _MARGIN, space.p), nextafter(_TINY, inf))
    return stop if stop < _STOP_CAP else None


def _scaled_norm(v: SparseVec) -> float:
    m, p = _power_sum(v, None), v.space.p
    scale = _float_saturated(m)
    if p is None or scale == float("inf"):  # c0: the largest magnitude is the norm
        return scale
    if p <= _EXACT_P and p == int(p):
        ip = int(p)
        (a, b), (c, d) = _power_sum(v, ip).as_integer_ratio(), m.as_integer_ratio()
        root = _root_ratio(a * d**ip, b * c**ip, ip)
    else:  # the scaled terms lie in [0, 1] with a largest of 1, so the size rule has a value
        scaled = [float(abs(Fraction(x)) / m) for x in v.entries.values()]
        root = _float_size(_float_terms(scaled, v.space), v.space)
    return scale * root if scale * root > 0.0 else scale


def _float_saturated(f: Fraction) -> float:
    try:
        val = float(f)
    except OverflowError:
        return float("inf")
    if val == 0.0 and f != 0:
        return 5e-324  # smallest positive subnormal: keeps nonzero vectors nonzero
    return val


def _safe_pow(x: float, p: float) -> float:
    try:
        return x**p
    except OverflowError:
        return float("inf")


def ball_contains(center: SparseVec, radius: float, v: SparseVec) -> bool:
    """Open-ball test: norm(v - center) < radius, strict, with no tolerance added.

    Not exact: the float norm is compared with the float radius, so a
    point within rounding of the sphere can be misjudged.
    """
    _same_space(center.space, v.space)
    if radius <= 0:
        return False
    return norm(v - center) < radius
