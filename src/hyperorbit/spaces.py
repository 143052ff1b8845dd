"""Finitely supported vectors over lp / c0 sequence spaces.

Scalars are reals; dyadic rationals may be carried as `fractions.Fraction`
so that shift orbits built from powers of two stay exact far below the
double-precision underflow threshold.  Norm values are floats; where a
bound check must be exact, `norm_sq_exact` exposes the rational square of
the l2 norm.  Ball tests compare `norm(v - center) < radius` strictly, with
the norm and the comparison in floats, so a point within rounding of the
sphere can fall on either side.  Tolerance policy belongs to callers, not
to this module.

One size rule, `_float_size`, says when the float c0 maximum or l2 sum is
the norm and when `norm` must rescale; the orbit scan shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

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

    def __add__(self, other):
        _same_space(self, other)
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[idx] = out.get(idx, 0) + val
        return SparseVec(out, self.space)

    def __sub__(self, other):
        _same_space(self, other)
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[idx] = out.get(idx, 0) - val
        return SparseVec(out, self.space)

    def scale(self, factor) -> "SparseVec":
        return SparseVec({i: factor * v for i, v in self.entries.items()}, self.space)

    def __repr__(self):
        items = ", ".join(f"{i}:{v}" for i, v in sorted(self.entries.items())[:8])
        more = "" if len(self.entries) <= 8 else f", ... ({len(self.entries)} entries)"
        return f"SparseVec({{{items}{more}}}, {self.space.describe()})"


def _same_space(u: SparseVec, v: SparseVec):
    if u.space != v.space:
        raise SpaceMismatchError(f"{u.space.describe()} vs {v.space.describe()}")


def norm_sq_exact(v: SparseVec) -> Fraction:
    """Exact sum of squared entries; only meaningful for the l2 norm."""
    if v.space.kind != "lp" or v.space.p != 2.0:
        raise UsageError("norm_sq_exact is an l2 helper")
    total = Fraction(0)
    for val in v.entries.values():
        f = Fraction(val) if not isinstance(val, Fraction) else val
        total += f * f
    return total


def norm(v: SparseVec) -> float:
    """Norm as a float.

    The fast path is plain float arithmetic.  When it overflows or
    underflows despite nonzero entries, the norm is recomputed with the
    entries scaled by their largest magnitude in exact rationals, so the
    result stays positive for every nonzero vector (saturating at the
    float range boundaries when the true value falls outside them).
    """
    if not v.entries:
        return 0.0
    try:
        magnitudes = [abs(float(x)) for x in v.entries.values()]
    except OverflowError:  # an entry, so the largest magnitude too, is beyond float range
        return float("inf")
    c0, p = v.space.kind == "c0", v.space.p
    if c0 or p == 2.0:
        size = _float_size(magnitudes if c0 else [f * f for f in magnitudes], c0)
        if size is not None:
            return size
        return _float_saturated(_max_magnitude(v)) if c0 else _scaled_norm(v, p)
    total = 0.0
    for f in magnitudes:
        total += _safe_pow(f, p)
    # below the normal float range the power sum loses precision: recompute scaled
    if 1e-290 < total < float("inf"):
        return _safe_pow(total, 1.0 / p)
    return _scaled_norm(v, p)


def _float_size(terms, c0: bool):
    """The largest of the magnitudes `terms` (c0), or the root of the squares
    `terms` summed left to right (l2); None where `norm` must rescale: a c0
    maximum of 0, or an l2 sum outside (1e-290, inf), where it loses bits."""
    if c0:
        best = max(terms)
        return best if best > 0.0 else None
    total = 0.0
    for t in terms:
        total += t
    return sqrt(total) if 1e-290 < total < float("inf") else None


def _max_magnitude(v: SparseVec) -> Fraction:
    return max(abs(Fraction(x)) for x in v.entries.values())


def _scaled_norm(v: SparseVec, p: float) -> float:
    m = _max_magnitude(v)
    scale = _float_saturated(m)
    if scale == float("inf"):
        return scale
    if p == int(p):
        ip = int(p)
        total = sum((abs(Fraction(x)) / m) ** ip for x in v.entries.values())
        root = float(total) ** (1.0 / ip)
    else:
        total = sum(float(abs(Fraction(x)) / m) ** p for x in v.entries.values())
        root = total ** (1.0 / p)
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
    _same_space(center, v)
    if radius <= 0:
        return False
    return norm(v - center) < radius
