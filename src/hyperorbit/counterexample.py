"""A c0 weighted shift whose products double inside a structured set and reset outside.

The driving set is

    S = union over j, l >= 1 of the open intervals ]l*10^j - j, l*10^j + j[,

i.e. radius-j digit neighborhoods of multiples of 10^j.  The weights are 2
inside S, reset the running product back to 1 on leaving S, and are 1
elsewhere, so the partial product at n is exactly 2**c(n) where c(n) is
the length of the maximal S-run ending at n.  Everything here is exact:
membership by one digit-scale scan (`_hit_scale`, which also serves the
tower integers, the exclusion sweep and the envelope of the threshold
sets) and, over any window [lo, hi], as flag bytes filled in from the
definition with one strided slice per scale and offset (`s_flags`, which
also gives S's prefix counts at short windows in bulk); S's maximal runs
read off the valuations of the centres 10k, each the middle of one
interval whose radius is the number of trailing zeros of k; run lengths
filled in from those runs; the weights of 1..horizon built from the runs
of the flags, one slice per run (the product law checks them against the
valuation runs, so it compares two routes to S that share no code); and
the block family by lazy power-tower integers, since the construction
forces each block's exponent past the largest previously built element.
Those integers (`HugeInt`) order, hash and print themselves in loops over
their levels, at any depth, so the family's levels are plain
`ExplicitSet`s, checked with the ordinary operators.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from ._parallel import pmap
from .errors import HyperorbitError, UsageError
from .indexsets import ExplicitSet, IndexSet, SetFamily
from .shifts import WeightSequence


# ---------------------------------------------------------------------------
# the set S


def _hit_scale(m: int, last=None, width: int = 1, first: int = 1):
    """The smallest scale j in [first, last] whose intervals ]l*10^j - width*j, l*10^j + width*j[,
    l >= 1, hold m (no upper end when `last` is None), by digit arithmetic; None when there is none.

    Only the multiples l*10^j next to m, below and above, can be the nearest; the
    scan stops at the first scale whose lowest interval starts past m.
    """
    scale, j = 10**first, first
    while scale < m + width * j and (last is None or j <= last):
        r = m % scale
        if (r < width * j and m >= scale) or scale - r < width * j:
            return j
        scale *= 10
        j += 1
    return None


def s_contains(m: int) -> bool:
    """Exact membership of m in S by per-scale digit arithmetic."""
    return _hit_scale(m) is not None


def s_flags(lo: int, hi: int) -> bytes:
    """The indicator of S over lo..hi, one byte per index (byte i for lo + i), built from the definition.

    Every interval ]l*10^j - j, l*10^j + j[ of scale j is one offset
    |d| < j from a multiple l*10^j, l >= 1, so each scale j and offset d is
    one strided slice assignment, from the first such index in the window.
    Independent of `s_contains` and of the centre valuations of `s_intervals_in`.
    """
    flags = bytearray(max(hi - lo + 1, 0))
    p, j = 10, 1
    while p - j < hi:  # the smallest member of scale j is 10^j - j + 1
        for d in range(1 - j, j):
            first = max(p + d, lo + (d - lo) % p)  # the first index >= lo that is l*10^j + d with l >= 1
            if first <= hi:
                flags[first - lo :: p] = b"\x01" * ((hi - first) // p + 1)
        p *= 10
        j += 1
    return bytes(flags)


def s_intervals_in(lo: int, hi: int) -> list:
    """Maximal runs of S ∩ [lo, hi] as closed intervals (a, b), in order, read off the centre valuations.

    S is the union, over the centres c = 10k (k >= 1), of I_c = [c - r, c + r]
    with r = v(k) the number of trailing zeros of k (the scales j <= r + 1
    all nest inside I_c).  The radii of the window's centres are filled in
    with one strided slice per power of ten, and the pairs (c - r, c + r)
    are built at C level.  Centres 10 apart meet or touch only when
    r + r' >= 9, so at a multiple of 10^10; intervals are merged only around
    those centres, in one left-to-right pass.  Independent of `s_contains`:
    no membership is tested.
    """
    lo = max(lo, 0)
    if lo > hi:
        return []
    # a centre c <= hi + reach has radius below digits(hi) + 1 <= reach
    reach = hi.bit_length() * 31 // 100 + 2
    k0 = max(1, -(-(lo - reach) // 10))
    k1 = (hi + reach) // 10
    n = k1 - k0 + 1
    if n <= 0:
        return []
    radii = [0] * n  # a list, not bytes: past 10^256 a radius exceeds 255
    p, j = 10, 1
    while p <= k1:
        first = -k0 % p
        if first < n:
            radii[first::p] = [j] * ((n - 1 - first) // p + 1)
        p *= 10
        j += 1
    centres = range(10 * k0, 10 * k1 + 1, 10)
    pairs = list(zip(map(sub, centres, radii), map(add, centres, radii)))

    # Between the centres with r >= 9 the pairs are disjoint, apart and in
    # order.  Around one, walk out while neighbours touch the run (the first
    # neighbour that does not touch is followed only by ones farther away):
    # leftwards through the runs already emitted, then rightwards.
    out = []
    done = 0  # pairs[:done] are in out
    for i in range(-k0 % 10**9, n, 10**9):
        if i < done:
            continue  # swallowed by the run of an earlier centre
        a, b = pairs[i]
        out += pairs[done:i]
        while out and out[-1][1] >= a - 1:
            a = min(a, out.pop()[0])
        done = i + 1
        while done < n and pairs[done][0] <= b + 1:
            b = max(b, pairs[done][1])
            done += 1
        out.append((a, b))
    out += pairs[done:]

    # clip to the window: drop the runs outside it, cut the first and last
    first, last = 0, len(out)
    while first < last and out[first][1] < lo:
        first += 1
    while last > first and out[last - 1][0] > hi:
        last -= 1
    del out[last:], out[:first]
    if out:
        out[0] = (max(out[0][0], lo), out[0][1])
        out[-1] = (out[-1][0], min(out[-1][1], hi))
    return out


def _trailing_zeros(c: int) -> int:
    """10-adic valuation of c > 0."""
    v = 0
    while c % 10 == 0:
        c //= 10
        v += 1
    return v


@functools.lru_cache(maxsize=4096)
def _s_overlap(v: int, cut: int) -> int:
    """Points of ]-inf, c + cut] that lie in I_c and in a neighbour's interval,
    for a centre c with v(c) = v >= 11 (I_c as in `DigitNeighborhoodSet.count_upto`).

    Within distance 10**v of c the centre c + 10k has valuation 1 + v(k), so
    the result depends on v and the cut only.  Only centres with v >= 11 have
    a radius (>= 10) that reaches a neighbouring centre, and the neighbours'
    own intervals do not meet, so no point lies in three intervals.
    """
    r = v - 1
    total = 0
    for k in range(1, r // 10 + 2):  # farther neighbours cannot reach I_c
        w = 1 + _trailing_zeros(k)
        for m in (10 * k, -10 * k):
            lo, hi = max(-r, m - w + 1), min(r, m + w - 1, cut)
            if lo <= hi:
                total += hi - lo + 1
    return total


# S's prefix counts are read off its indicator for windows up to this length,
# and counted in closed form past it (the crossover measured near 2000)
_INDICATOR_MAX_STEP = 2000
_INDICATOR_BLOCK = 1 << 18  # bytes of indicator built at once


class DigitNeighborhoodSet(IndexSet):
    """S as an index set: digit-scale neighborhoods of multiples of 10^j."""

    def contains(self, n):
        if isinstance(n, HugeInt):
            return n.in_digit_neighborhoods()
        return s_contains(n)

    def members_in(self, lo, hi):
        return [m for a, b in s_intervals_in(lo, hi) for m in range(a, b + 1)]

    def count_upto(self, n):
        """|S ∩ [0, n]| in closed form, with O(digits(n)) big-int steps.

        S is the union, over the centres c = 10, 20, 30, ..., of the
        intervals I_c = [c - v + 1, c + v - 1], v = v(c) the number of
        trailing zeros of c (the scales j <= v(c) all nest inside I_c).
        The count is
        * the lengths 2v(c) - 1 of the I_c with c <= n, summed with
          multiplicity: 2 * sum_j floor(n / 10^j) - floor(n / 10);
        * minus the points counted twice, which lie only around centres
          with v >= 11; the overlap depends on v alone (`_s_overlap`), and
          floor(n / 10^v) - floor(n / 10^(v+1)) centres up to n have v(c) = v;
        * corrected at the centres whose interval crosses n, all within
          digits(n) of it: their length and overlap cut at n replace the
          full ones counted above for c <= n, and are added for c > n.
        """
        if n < 10:
            return 0
        total = -(n // 10)
        p, j = 10, 1
        while p <= n:
            at_least = n // p
            total += 2 * at_least
            if j >= 11:
                total -= (at_least - n // (10 * p)) * _s_overlap(j, j - 1)
            p *= 10
            j += 1
        # j is now the number of digits of n; intervals of radius 0 (v = 1) cross nothing
        reach = j + 2
        for c in range(max(100, -(-(n - reach) // 100) * 100), n + reach + 1, 100):
            v = _trailing_zeros(c)
            a = c - v + 1
            if a <= n < c + v - 1:
                full = c <= n
                total += n - a + 1 - (2 * v - 1 if full else 0)
                if v >= 11:
                    total -= _s_overlap(v, n - c) - (_s_overlap(v, v - 1) if full else 0)
        return total

    def prefix_counts(self, step, q, start=0):
        """[count_upto(i * step) for i in start..q], read off S's indicator for windows up to `_INDICATOR_MAX_STEP`.

        The indicator over ]start * step, q * step] is built by `s_flags` in
        blocks of at most `_INDICATOR_BLOCK` bytes, each a whole number of
        windows, so memory does not grow with the range; each window is one
        `bytes.count`, and the prefix sums are taken at C level.  That costs
        about 1 ns per index against about 2.5 us per closed-form count, so
        longer windows keep the closed form.
        """
        if step > _INDICATOR_MAX_STEP:
            return super().prefix_counts(step, q, start)
        block = _INDICATOR_BLOCK // step * step
        end = q * step + 1

        def window_counts(lo):
            flags = s_flags(lo, min(lo + block, end) - 1)
            starts = range(0, len(flags), step)
            return map(flags.count, itertools.repeat(1), starts, range(step, len(flags) + 1, step))

        counts = itertools.chain.from_iterable(map(window_counts, range(start * step + 1, end, block)))
        return list(itertools.accumulate(counts, initial=self.count_upto(start * step)))

    def anchors(self, horizon):
        out = []
        scale = 10
        j = 1
        while scale <= horizon:
            out.append(scale - j)
            scale *= 10
            j += 1
        return out

    def describe(self):
        return "s-set"


def product_exponent(n: int) -> int:
    """Length of the maximal S-run ending at n (0 when n is outside S)."""
    if n < 0:
        raise UsageError("indices are non-negative")
    run = 0
    m = n
    while m >= 1 and s_contains(m):
        run += 1
        m -= 1
    return run


def run_length_array(horizon: int) -> list:
    """Run lengths c(1..horizon) as a list, runs[i] == c(i + 1), filled in from S's merged runs.

    On a merged run [a, b] of S (so a - 1 lies outside S), c(n) = n - a + 1.
    """
    runs = [0] * max(horizon, 0)
    for a, b in s_intervals_in(1, horizon):
        runs[a - 1 : b] = range(1, b - a + 2)
    return runs


class DoublingResetWeights(WeightSequence):
    """Weights 2 on S, product-reset on leaving S, 1 elsewhere.

    The partial product of w_1..w_n is exactly 2**c(n) with c the run
    length; log2-domain values are exact integers.  `weight(k)` is the
    random-access path (it tests membership digit by digit and walks back
    through the run before k); `stream` gives w_1..w_horizon at once, from
    the runs of `s_flags`, so it shares no code with `run_length_array`.
    """

    bilateral = False

    def weight(self, k):
        if k < 1:
            raise UsageError("weights are unilateral")
        if s_contains(k):
            return 2.0
        c = product_exponent(k - 1)
        return 1.0 if c == 0 else 2.0 ** (-c)

    def stream(self, horizon):
        """(in_s, weights) for k = 1..horizon: the flag bytes of S and the list of w_k.

        The weights start at 1; each run of flags, found with `bytes.find`,
        gets its 2s in one slice, and the index after it the reset 2**-run.
        """
        in_s = s_flags(1, horizon)
        weights = [1.0] * len(in_s)
        a = in_s.find(1)
        while a >= 0:
            b = in_s.find(0, a)
            if b < 0:
                b = len(in_s)
            else:
                weights[b] = 2.0 ** (a - b)
            weights[a:b] = [2.0] * (b - a)
            a = in_s.find(1, b)
        return in_s, weights

    def log2_product(self, n):
        if n < 0:
            raise UsageError("prefix products need n >= 0")
        return product_exponent(n)

    def describe(self):
        return "counterexample-c0"


# ---------------------------------------------------------------------------
# lazy power-tower integers


_MATERIAL_EXP_LIMIT = 20000  # 10**e is materialized only up to this many digits
_OFFSET_LIMIT = 10**18
_OFFSET_SCALES = len(str(_OFFSET_LIMIT))  # 19: each scale past it exceeds every offset


def _int_lt_pow10(x: int, e) -> bool:
    """x < 10**e, with e an int or HugeInt."""
    if isinstance(e, HugeInt):
        return True  # 10**e has astronomically many digits
    if x < 0:
        return True
    if e <= _MATERIAL_EXP_LIMIT:
        return x < 10**e
    if x.bit_length() <= 3 * e:  # x < 8**e < 10**e
        return True
    raise UsageError("comparison of a huge plain int against a lazy power is out of range")


def _cmp_values(a, b) -> int:
    """Three-way compare of int | HugeInt values, walking both exponent chains in one loop.

    Two towers order as their exponents do, and on equal exponents as their
    offsets do; so where the chains meet, or their ends compare equal, the
    innermost offsets that differ on the way down decide.  The walk stops at
    once on a shared exponent object, as the members of one block have.
    """
    tie = 0
    while a is not b and isinstance(a, HugeInt) and isinstance(b, HugeInt):
        if a.offset != b.offset:
            tie = 1 if a.offset > b.offset else -1
        a, b = a.exponent, b.exponent
    if a is b:
        return tie
    if isinstance(a, int) and isinstance(b, int):
        c = (a > b) - (a < b)
    elif isinstance(a, int):
        c = -_cmp_values(b, a)  # one call with the HugeInt first, not one per level
    elif a._materializable():
        av = a.to_int()
        c = (av > b) - (av < b)
    else:
        c = 1 if _int_lt_pow10(b, a.exponent) else -1
    return c or tie


@functools.total_ordering
class HugeInt:
    """Exact value 10**exponent + offset with |offset| tiny against 10**exponent.

    `exponent` may itself be a HugeInt, so iterated-exponential values are
    representable and comparable without materialization.  One comparator orders HugeInt and int
    values together, so `sorted`, `max`, `bisect` and the operators work on mixed data.
    """

    __slots__ = ("exponent", "offset", "_hash")

    def __init__(self, exponent, offset=0):
        if isinstance(exponent, int):
            if exponent < 19:
                raise UsageError("materialize small values as plain ints instead")
        elif not isinstance(exponent, HugeInt):
            raise UsageError("exponent must be an int or HugeInt")
        if abs(offset) > _OFFSET_LIMIT:
            raise UsageError("offset out of the supported range")
        self.exponent = exponent
        self.offset = offset
        # equal to an int only when materializable, and then it hashes as that int
        self._hash = hash(self.to_int()) if self._materializable() else hash((exponent, offset))

    def _materializable(self) -> bool:
        return isinstance(self.exponent, int) and self.exponent <= _MATERIAL_EXP_LIMIT

    def to_int(self) -> int:
        if self._materializable():
            return 10**self.exponent + self.offset
        raise UsageError("value too large to materialize")

    def __add__(self, k: int):
        return HugeInt(self.exponent, self.offset + k)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return HugeInt(self.exponent, self.offset - other)
        if self.exponent == other.exponent:
            return self.offset - other.offset
        raise UsageError("difference of values at different magnitudes is not representable")

    def in_digit_neighborhoods(self) -> bool:
        """Membership of 10**E + r in S by the one digit-scale scan: as 0 <= r <= `_OFFSET_LIMIT`
        and E >= 19, the scales up to 19 see 10**E + r as they see 10**19 + r, a scale j in
        (19, E] holds it iff r < j, so one does iff r < E, and no scale past E holds it.
        """
        r = self.offset
        if r < 0:
            raise UsageError("negative offsets unsupported here")
        return r < self.exponent or _hit_scale(10**_OFFSET_SCALES + r, _OFFSET_SCALES) is not None

    def __eq__(self, other):
        if isinstance(other, (int, HugeInt)):
            return _cmp_values(self, other) == 0
        return NotImplemented

    def __lt__(self, other):
        return _cmp_values(self, other) < 0

    def __hash__(self):
        return self._hash

    def __repr__(self):
        suffixes = []  # each level's offset, outermost first
        e = self
        while isinstance(e, HugeInt):
            suffixes.append(f"{e.offset:+d}" if e.offset else "")
            e = e.exponent
        inner = f"10^{e}{suffixes.pop()}"
        return "10^(" * len(suffixes) + inner + "".join(")" + k for k in reversed(suffixes))


def pow10_ceil_exponent(value) -> object:
    """Minimal e with 10**e >= value (value an int or HugeInt)."""
    if isinstance(value, HugeInt):
        return value.exponent + (value.offset > 0)
    e = 0
    p = 1
    while p < value:
        p *= 10
        e += 1
    return e


# ---------------------------------------------------------------------------
# the block family


@dataclass(frozen=True)
class Block:
    index: int  # build order, 1-based
    level: int  # assigned level k
    exponent: object  # j0: members are 10**j0 + step*l
    step: int  # 10**(2k)
    count: int  # l0

    def members(self):
        return tuple(HugeInt(self.exponent, self.step * l) for l in range(self.count))


@dataclass(frozen=True)
class BlockFamily:
    levels: int
    reps: int
    blocks: tuple  # Block, in build order

    def level_blocks(self, k: int):
        return [b for b in self.blocks if b.level == k]

    def set_family(self) -> SetFamily:
        # blocks are built in increasing order, so each level's members arrive sorted
        sets = tuple(
            ExplicitSet(tuple(m for b in self.level_blocks(k) for m in b.members())) for k in range(1, self.levels + 1)
        )
        return SetFamily(label=f"counterexample:{self.levels}:{self.reps}", sets=sets)


def build_block_family(k_max: int, reps: int) -> BlockFamily:
    """Recursive block construction with minimal admissible parameters.

    Block index i (level k cycling 1..k_max) is {10**j0 + 10**(2k)*l : 0 <= l < l0}
    where (l0, j0) is lexicographically minimal subject to

        1) l0 >= i,
        2) 10**j0 >= k + (max level so far) + (max element so far),
        3) j0 >= i and j0 - k > 10**(2k) * l0,
        4) j0 > (max element so far) + (max level so far) + 2k.

    Condition 4 forces j0 past the largest already-built element, so values
    grow as a power tower; members are HugeInt.
    """
    if k_max < 1 or reps < 1:
        raise UsageError("k_max and reps must be >= 1")
    blocks = []
    max_elem = 0  # includes the seed block {0}
    max_level_seen = 0
    for index in range(1, k_max * reps + 1):
        k = (index - 1) % k_max + 1
        l0 = index
        step = 10 ** (2 * k)
        lb2 = pow10_ceil_exponent(max_elem + k + max_level_seen)
        lb3 = max(index, step * l0 + k + 1)
        lb4 = max_elem + max_level_seen + 2 * k + 1
        j0 = max(lb2, lb3, lb4)
        # condition 3 keeps j0 >= 10**(2k)*l0 + k + 1 >= 102, so members are HugeInt
        blocks.append(Block(index=index, level=k, exponent=j0, step=step, count=l0))
        max_elem = HugeInt(j0, step * (l0 - 1))
        max_level_seen = max(max_level_seen, k)
    return BlockFamily(levels=k_max, reps=reps, blocks=tuple(blocks))


@dataclass(frozen=True)
class ConditionCheck:
    index: int
    ok: tuple  # four booleans

    def all_ok(self):
        return all(self.ok)


def verify_block_conditions(family: BlockFamily) -> list:
    """Re-verify conditions 1)-4) for every block from scratch."""
    out = []
    max_elem = 0
    max_level_seen = 0
    for b in family.blocks:
        k, l0, j0, step = b.level, b.count, b.exponent, b.step
        c1 = l0 >= b.index
        c2 = _pow10(j0) >= max_elem + k + max_level_seen
        c3 = j0 >= b.index and j0 > step * l0 + k
        c4 = j0 > max_elem + max_level_seen + 2 * k
        out.append(ConditionCheck(b.index, (c1, c2, c3, c4)))
        members = b.members()
        max_elem = members[-1]
        max_level_seen = max(max_level_seen, k)
    return out


def _pow10(e):
    """10**e as an int (small e) or HugeInt."""
    if isinstance(e, int) and e <= 18:
        return 10**e
    return HugeInt(e, 0)


class InsufficientBlockError(HyperorbitError):
    pass


@dataclass(frozen=True)
class WindowRatioCheck:
    level: int
    block_index: int
    window: int
    count: int
    ratio: Fraction
    required: Fraction
    ok: bool


def banach_window_ratio(family: BlockFamily, k: int) -> WindowRatioCheck:
    """Members of level k in the window [min, min + s) of its first block with l0 >= 2,
    s = 10**(2k) * l0, counted on the level set: the block alone puts l0 there,
    giving ratio 1 / 10**(2k) >= (1 - 1/l0) / 10**(2k).
    """
    candidates = [b for b in family.level_blocks(k) if b.count >= 2]
    if not candidates:
        raise InsufficientBlockError(f"level {k} has no block with l0 >= 2")
    b = candidates[0]
    s = b.step * b.count
    lo = b.members()[0]
    count = family.set_family().level(k).count_in(lo, lo + (s - 1))
    ratio = Fraction(count, s)
    required = Fraction(b.count - 1, b.count) / Fraction(b.step)
    return WindowRatioCheck(k, b.index, s, count, ratio, required, ratio >= required)


# ---------------------------------------------------------------------------
# exclusion sweep: repunit-perturbed multiples avoid all small scales


@dataclass(frozen=True)
class ExclusionRow:
    k: int
    l: int
    m: int
    hit_scale: int | None

    @property
    def ok(self):
        return self.hit_scale is None


@dataclass(frozen=True)
class ExclusionReport:
    ok: bool
    checked: int
    violations: tuple
    rows: tuple


def _exclusion_cell(args):
    k, l = args
    n = pow10_ceil_exponent(k)
    repunit = (10 ** (n + 1) - 1) // 9
    base = l * 10**k
    return [ExclusionRow(k, l, m, _hit_scale(m, k)) for m in (base - repunit, base + repunit)]


def verify_scale_exclusion(k_max: int, l_max: int) -> ExclusionReport:
    """For every k <= k_max, l <= l_max, both repunit perturbations of l*10^k
    avoid every digit neighborhood of scale <= k (so any S-witness they admit
    must live at a scale above k).  Exhaustive over the requested ranges.
    """
    if k_max < 1 or l_max < 1:
        raise UsageError("k_max and l_max must be >= 1")
    cells = [(k, l) for k in range(1, k_max + 1) for l in range(1, l_max + 1)]
    rows = [r for chunk in pmap(_exclusion_cell, cells) for r in chunk]
    violations = tuple(r for r in rows if not r.ok)
    return ExclusionReport(
        ok=not violations,
        checked=len(rows),
        violations=violations,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# threshold sets D_j = {n : product >= 2^j} and their envelope


def envelope_contains(n: int, j: int) -> bool:
    """Membership in the union over k >= ceil(j/30) of ]l*10^k - 31k, l*10^k + 31k[."""
    return n >= 0 and _hit_scale(n, width=31, first=-(-j // 30)) is not None


def threshold_bound(j: int) -> Fraction:
    """Decay bound 8 * (9*ceil(j/30) + 1) * 10**(1 - ceil(j/30)) on prefix ratios."""
    c = -(-j // 30)
    return Fraction(8 * (9 * c + 1)) * Fraction(10) ** (1 - c)


@dataclass(frozen=True)
class ThresholdScanRow:
    prefix: int
    count: int
    ratio: Fraction
    bound: Fraction


@dataclass(frozen=True)
class ThresholdScanReport:
    j: int
    horizon: int
    rows: tuple
    bound_respected: bool  # wherever bound < 1
    envelope_ok: bool
    envelope_samples: int


_ENVELOPE_SAMPLES = 500  # about this many members of D_j, evenly strided, are checked against the envelope


def product_threshold_scan(j: int, horizon: int, runs=None) -> ThresholdScanReport:
    """Prefix densities of D_j at powers of ten, against the decay bound,
    plus sampled containment of D_j in its envelope set.

    D_j is read off S's merged runs, `s_intervals_in(1, horizon)` (pass
    them as `runs` to share them between scans): on a run [a, b] the run
    length reaches j from a + j - 1 on, so D_j ∩ [a, b] = [a + j - 1, b].
    """
    if horizon < 100:
        raise UsageError("horizon must be at least 100")
    if j < 1:
        raise UsageError("j must be >= 1")
    if runs is None:
        runs = s_intervals_in(1, horizon)
    # the runs of length >= j, their parts in D_j, and the counts before each
    long = [r for r in runs if r[1] - r[0] >= j - 1]
    starts = [a + j - 1 for a, b in long]
    ends = [b for a, b in long]
    before = list(itertools.accumulate((b - a + 1 for a, b in zip(starts, ends)), initial=0))

    def count_upto(n):
        """|D_j ∩ [1, n]|: whole runs before n, less the part of the last one past n."""
        i = bisect.bisect_right(starts, n)
        return before[i] - max(ends[i - 1] - n, 0) if i else 0

    bound = threshold_bound(j)
    prefixes = []
    prefix = 100
    while prefix <= horizon:
        prefixes.append(prefix)
        prefix *= 10
    if prefix // 10 != horizon:
        prefixes.append(horizon)
    rows = []
    for prefix in prefixes:
        count = count_upto(prefix)
        rows.append(ThresholdScanRow(prefix, count, Fraction(count, prefix), bound))
    ok = bound >= 1 or all(r.ratio <= bound for r in rows)

    # every stride-th member of D_j ∩ [1, horizon], the t-th found by bisecting the run counts
    total = count_upto(horizon)
    picks = range(0, total, max(1, total // _ENVELOPE_SAMPLES))
    samples = []
    for t in picks:
        i = bisect.bisect_right(before, t) - 1
        samples.append(starts[i] + t - before[i])
    env_ok = all(envelope_contains(n, j) for n in samples)
    return ThresholdScanReport(
        j=j,
        horizon=horizon,
        rows=tuple(rows),
        bound_respected=ok,
        envelope_ok=env_ok,
        envelope_samples=len(samples),
    )
