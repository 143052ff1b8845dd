"""Weighted backward shifts, their right inverses, and product-based tests.

Weight sequences are function-backed and never materialized to a horizon.
A weight kind provides `weight(k)` and one log2-domain primitive,
`log2_product(n)`, the log2 of the partial product |w_1 ... w_n| in closed
form or from a prefix table; every other product question is a difference
of two prefix values.  A weight's log2 is an int exactly when the weight
is ±2**k (`_log2_abs`, read off `frexp`), so constants and tables of
powers of two have exact integer exponents, and products like 2**600
neither overflow nor lose precision.  A product's sign is (-1) to the
number of negative weights in its range, counted by `negatives(n)`, a
second prefix primitive that only kinds with negative weights override.
B^n and S^n share one loop, `_move`.  Under integer exponents every entry,
float, int or `Fraction`, is scaled as an exact `Fraction`.  Under any other
exponent an entry is scaled as a float while the product is a normal float,
and carried as an exact `Fraction` past the float range or below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import floor, frexp, inf, isfinite, log2

from .errors import UsageError, ZeroWeightError
from .spaces import SparseVec, SpaceSpec


class WeightSequence:
    """Base: nonzero bounded weights w_k, k >= 1 (all k when bilateral).

    A kind provides `weight(k)` and the primitive `log2_product(n)`:
    log2|w_1 ... w_n| for n >= 0 (0 for n = 0) and, on bilateral kinds,
    -log2|w_{n+1} ... w_0| for n < 0.  A kind with negative weights also
    provides `negatives(n)`, their count in the same prefix ranges.
    """

    bilateral = False

    def weight(self, k: int) -> float:
        raise NotImplementedError

    def log2_product(self, n: int):
        raise NotImplementedError

    def log2_product_range(self, a: int, b: int):
        """log2 of |w_a ... w_b| (empty product when a > b)."""
        if a > b:
            return 0
        if a < 1 and not self.bilateral:
            raise UsageError("weights are unilateral but the range reaches k <= 0")
        return self.log2_product(b) - self.log2_product(a - 1)

    def negatives(self, n: int) -> int:
        """Negative weights among w_1 ... w_n (minus those among w_{n+1} ... w_0 for n < 0)."""
        return 0

    def describe(self) -> str:
        raise NotImplementedError


def _log2_abs(w: float):
    """log2|w| for a nonzero finite w: the int k exactly when |w| = 2**k, else the float `log2`."""
    mantissa, e = frexp(w)
    return e - 1 if abs(mantissa) == 0.5 else log2(abs(w))


@dataclass(frozen=True)
class ConstantWeights(WeightSequence):
    value: float
    bilateral = True

    def __post_init__(self):
        if self.value == 0:
            raise UsageError("constant weight must be nonzero")
        object.__setattr__(self, "_log2", _log2_abs(self.value))

    def weight(self, k):
        return self.value

    def log2_product(self, n):
        return n * self._log2

    def negatives(self, n):
        return n if self.value < 0 else 0

    def describe(self):
        v = self.value
        return f"constant:{int(v) if v == int(v) else v}"


def _constant_pow2_rate(w: WeightSequence):
    """k when every weight is the constant c = ±2**k with an int k, else None.

    Then w_a ... w_b is c**(b - a + 1) = ±2**(k * (b - a + 1)) exactly, so an
    entry's float mantissa keeps its bits along the whole orbit.
    """
    if isinstance(w, ConstantWeights):
        k = w.log2_product(1)
        if isinstance(k, int):
            return k
    return None


@dataclass(frozen=True)
class RatioPowerWeights(WeightSequence):
    """w_k = ((k+1)/k)**(1/p): partial products grow like n**(1/p)."""

    p: float

    def __post_init__(self):
        if self.p < 1:
            raise UsageError("exponent must be >= 1")

    def weight(self, k):
        if k < 1:
            raise UsageError("ratio-power weights are unilateral")
        return ((k + 1) / k) ** (1.0 / self.p)

    def log2_product(self, n):
        if n < 0:
            raise UsageError("ratio-power weights are unilateral")
        return log2(n + 1) / self.p

    def describe(self):
        p = self.p
        return f"ratio-power:{int(p) if p == int(p) else p}"


class TableWeights(WeightSequence):
    """Explicit finite table of finite nonzero weights for k = 1..len(values); 1 beyond it."""

    def __init__(self, values):
        self.values = tuple(float(v) for v in values)
        if not self.values:  # an empty table would act as the all-ones weight
            raise UsageError("a weight table needs at least one weight")
        if 0.0 in self.values:
            raise ZeroWeightError(self.values.index(0.0) + 1)
        for k, v in enumerate(self.values, start=1):
            if not isfinite(v):
                raise UsageError(f"table weight at index {k} is not finite")
        # summed left to right from the int 0: an int while the weights are powers of two, and
        # past the first other weight the float a loop over w_1..w_n gives (ints below 2**53 add exactly)
        self._prefix = tuple(accumulate(map(_log2_abs, self.values), initial=0))
        self._negatives = tuple(accumulate((v < 0 for v in self.values), initial=0))

    def weight(self, k):
        if k < 1:
            raise UsageError("table weights are unilateral")
        if k <= len(self.values):
            return self.values[k - 1]
        return 1.0

    def log2_product(self, n):
        if n < 0:
            raise UsageError("table weights are unilateral")
        return self._prefix[min(n, len(self.values))]

    def negatives(self, n):
        if n < 0:
            raise UsageError("table weights are unilateral")
        return self._negatives[min(n, len(self.values))]

    def describe(self):
        return "table-values:" + ",".join(repr(v) for v in self.values)


@dataclass(frozen=True)
class ShiftOperator:
    """Backward shift (B x)_m = w_{m+1} x_{m+1} on the given space."""

    weights: WeightSequence
    space: SpaceSpec

    def __post_init__(self):
        if self.space.bilateral and not self.weights.bilateral:
            raise UsageError("bilateral space needs a bilateral weight sequence")

    def describe(self):
        return f"{self.weights.describe()} on {self.space.describe()}"


def _scale_pow2(value, exponent):
    """value * 2**exponent, an exact `Fraction` under an int exponent for float, int and Fraction values.

    A float exponent scales the float of `value` by the float 2.0**exponent
    while that product is a normal float; any other product is the exact
    `Fraction` value * 2**floor(exponent) * 2.0**(exponent - floor(exponent)).
    """
    if isinstance(exponent, int):
        return Fraction(value) * Fraction(2) ** exponent
    try:
        scaled = float(value) * 2.0**exponent
    except OverflowError:
        scaled = inf
    if 2.0**-1022 <= abs(scaled) < inf:  # normal: no bit lost below, no overflow above
        return scaled
    whole = floor(exponent)
    return Fraction(value) * Fraction(2) ** whole * Fraction(2.0 ** (exponent - whole))


def _pow2_clamped(x: float) -> float:
    """2.0**x, saturating to 0.0 at or below -1074 and to inf at or above 1024."""
    if x <= -1074:
        return 0.0
    if x >= 1024:
        return float("inf")
    return 2.0 ** x


def _move(T: ShiftOperator, v: SparseVec, n: int, inverse: bool) -> SparseVec:
    """B^n v, or S^n v when `inverse`: entry i moves to j = i - n (i + n), scaled by
    w_{min(i,j)+1} ... w_{max(i,j)} (divided by it when `inverse`) with its sign."""
    if n < 0:
        raise UsageError("n must be >= 0")
    if n == 0:
        return v
    w, out = T.weights, {}
    for i, val in v.entries.items():
        if not inverse and n > T.space.last_step(i):
            continue  # B^n moves the entry out of the space
        j = i + n if inverse else i - n
        a, b = min(i, j) + 1, max(i, j)
        e = w.log2_product_range(a, b)
        scaled = _scale_pow2(val, -e if inverse else e)
        out[j] = -scaled if (w.negatives(b) - w.negatives(a - 1)) % 2 else scaled
    return SparseVec(out, T.space)


def apply_backward(T: ShiftOperator, v: SparseVec, n: int) -> SparseVec:
    """B^n v: entry m picks up v_{m+n} times the product of w_{m+1}..w_{m+n}."""
    return _move(T, v, n, inverse=False)


def apply_right_inverse(T: ShiftOperator, v: SparseVec, n: int) -> SparseVec:
    """S^n v: entry m moves to m + n divided by the product of w_{m+1}..w_{m+n}.

    Exact right inverse, apply_backward(T, apply_right_inverse(T, v, n), n) == v,
    for every entry type where the products are powers of two (constants and
    tables of ±2**k, the doubling/reset weights).
    """
    return _move(T, v, n, inverse=True)


# ---------------------------------------------------------------------------
# series and growth evidence


@dataclass(frozen=True)
class SeriesReport:
    partial_sum: float
    verdict: str  # "converging-evidence" | "diverging-evidence"
    horizon: int
    increment_ratio: float | None

    def converging(self) -> bool:
        return self.verdict == "converging-evidence"


def reciprocal_product_series(w: WeightSequence, p: float, horizon: int) -> SeriesReport:
    """Partial sum of 1 / (w_1 ... w_n)**p up to the horizon, with a verdict.

    The verdict compares the mass added over (horizon/2, horizon] with the
    mass over (horizon/4, horizon/2]: a geometric-style drop reads as
    converging evidence, anything flat or growing as diverging.  Evidence
    only; no tail is certified.
    """
    if not 1 <= p < inf:
        raise UsageError("p must be a finite number >= 1")
    if horizon < 8:
        raise UsageError("horizon too small to split into comparison blocks")
    h2, h4 = horizon // 2, horizon // 4
    total = 0.0
    inc_mid = 0.0
    inc_last = 0.0
    for n in range(1, horizon + 1):
        term = _pow2_clamped(-p * float(w.log2_product(n)))
        total += term
        if h4 < n <= h2:
            inc_mid += term
        elif n > h2:
            inc_last += term
    if inc_last == 0.0 or inc_last <= 1e-14 * max(total, 1.0):
        verdict = "converging-evidence"
        ratio = 0.0 if inc_mid == 0 else inc_last / inc_mid
    else:
        ratio = inc_last / inc_mid if inc_mid > 0 else float("inf")
        verdict = "converging-evidence" if ratio <= 0.75 else "diverging-evidence"
    return SeriesReport(total, verdict, horizon, ratio)


@dataclass(frozen=True)
class MixingReport:
    tends_to_infinity: bool
    block_minima: tuple
    horizon: int


def mixing_test(w: WeightSequence, horizon: int) -> MixingReport:
    """Evidence that the partial products tend to infinity.

    Splits (0, horizon] into the five dyadic blocks (0, horizon/16], ...,
    (horizon/2, horizon] and records the minimum log2-product on each;
    verdict true when the minima increase from block to block and gain at
    least 1/2 overall.  Products that return to 1 infinitely often keep a
    block minimum at 0 and read as not mixing.
    """
    if horizon < 32:
        raise UsageError(f"the mixing test needs a horizon of at least 32, got {horizon}")
    edges = [0] + [horizon >> t for t in (4, 3, 2, 1, 0)]  # strictly ascending, since horizon >> 4 >= 2
    minima = [min(float(w.log2_product(n)) for n in range(lo + 1, hi + 1)) for lo, hi in zip(edges, edges[1:])]
    ascending = all(a < b for a, b in zip(minima, minima[1:]))
    grew = minima[-1] - minima[0] >= 0.5
    return MixingReport(ascending and grew, tuple(minima), horizon)
