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
interval whose radius is the number of trailing zeros of k, merged around
the multiples of 10^10 by one rule that depends on the valuation alone
(`_run_shape`), so the counts of S and of the threshold sets D_j are sums
over valuation classes (`threshold_count`); run lengths filled in from
those runs; the weights of 1..horizon built from the runs
of the flags, one slice per run (the product law checks them against the
valuation runs, so it compares two routes to S that share no code); and
the block family by lazy power-tower integers, since the construction
forces each block's exponent past the largest previously built element.
Those integers (`HugeInt`) order, hash and print themselves in loops over
their levels, at any depth, so the family's levels are plain
`ExplicitSet`s, checked with the ordinary operators.
"""

from __future__ import annotations

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


def _trailing_zeros(c: int) -> int:
    """10-adic valuation of c > 0."""
    v = 0
    while c % 10 == 0:
        c //= 10
        v += 1
    return v


@functools.lru_cache(maxsize=4096)
def _run_shape(v: int) -> tuple:
    """(R, held) for a centre c = 10k with v(c) = v: S's run through c is [c - R, c + R], and on each side
    it holds the intervals of the neighbours c +- 10m, m = 1..len(held), of radii held[m - 1] = v(m).

    This is the one statement of how S's intervals merge.  I_c = [c - v + 1, c + v - 1] (the scales
    j <= v nest inside it), and within distance 10^v of c the neighbour c + 10m has valuation 1 + v(m),
    so the shape depends on v alone.  A neighbour joins while its interval meets or touches the run,
    10m - v(m) <= R + 1; that left side grows with m (for m < 10^9, so R < 10^10: any v that an int in
    memory has), so the first neighbour that fails ends the walk.  Only v >= 10 holds a neighbour.  Two
    neighbours in a row cannot both reach past the bare radius v - 1, so R(v) <= v + 2 * (digits(v) - 1),
    as at R(998) = 1002.
    """
    reach, held, m = v - 1, [], 1
    while 10 * m - (r := _trailing_zeros(m)) <= reach + 1:
        held.append(r)
        reach = max(reach, 10 * m + r)
        m += 1
    return reach, tuple(held)


def _reach(n: int) -> int:
    """A bound on the radius R of every run that meets [0, n]: its centre has at most
    d >= digits(n) + 1 digits, so v < d, and `_run_shape` bounds R by v."""
    d = n.bit_length() * 31 // 100 + 2
    return d + 2 * len(str(d))


def s_intervals_in(lo: int, hi: int) -> list:
    """Maximal runs of S ∩ [lo, hi] as closed intervals (a, b), in order, read off the centre valuations.

    S is the union, over the centres c = 10k (k >= 1), of I_c = [c - r, c + r]
    with r = v(k) the number of trailing zeros of k.  The radii of the
    window's centres are filled in with one strided slice per power of ten,
    and the pairs (c - r, c + r) are built at C level.  Intervals meet or
    touch only around the centres with r >= 9, the multiples of 10^10; each
    of those replaces its own pair and its held neighbours' pairs with its
    run (`_run_shape`).  Independent of `s_contains`: no membership is
    tested.
    """
    lo = max(lo, 0)
    if lo > hi:
        return []
    reach = _reach(hi)
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
    out = list(zip(map(sub, centres, radii), map(add, centres, radii)))
    for i in reversed(range(-k0 % 10**9, n, 10**9)):  # from the right, so the indices before stay put
        run, held = _run_shape(radii[i] + 1)
        c = centres[i]
        out[max(i - len(held), 0) : i + len(held) + 1] = [(c - run, c + run)]

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


@functools.lru_cache(maxsize=4096)
def _class_count(v: int, j: int) -> int:
    """What one centre of valuation v adds to |D_j|: the members of its run, less those of its held
    neighbours' intervals, which their own valuation classes count as runs."""
    reach, held = _run_shape(v)
    return max(0, 2 * reach + 2 - j) - 2 * sum(max(0, 2 * r + 2 - j) for r in held)


def _run_start(n: int) -> int:
    """The first index of the run of S through n, or n + 1 when n lies outside S.

    A run of more than one index is that of a centre of radius >= 1, a
    multiple of 100 within `_reach(n)` of n; the other members of S are the
    centres 10k, k not a multiple of 10, each a run of its own.
    """
    start = n if n % 100 and not n % 10 else n + 1
    reach = _reach(n)
    for c in range(max(100, -(-(n - reach) // 100) * 100), n + reach + 1, 100):
        run = _run_shape(_trailing_zeros(c))[0]
        if c - run <= n <= c + run:
            start = min(start, c - run)
    return start


def threshold_count(n: int, j: int) -> int:
    """|D_j ∩ [0, n]| for D_j = {n : c(n) >= j} (D_1 is S), with O(digits(n)) big-int steps.

    A run of length L holds max(0, L - j + 1) members of D_j.  With m one
    less than the start of n's run (m = n outside S), [0, m] is a union of
    whole runs, and floor(m / 10^v) - floor(m / 10^(v+1)) of its centres
    have valuation v; each adds `_class_count(v, j)`.  n's own run adds its
    members from its j-th on, up to n.
    """
    if n < 10:
        return 0
    m = _run_start(n) - 1
    total = max(0, n - m - j + 1)
    v, at_least = 1, m // 10
    while at_least:
        above = at_least // 10
        total += (at_least - above) * _class_count(v, j)
        at_least = above
        v += 1
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
        """|S ∩ [0, n]| in closed form: `threshold_count(n, 1)`, off the valuation classes of S's centres."""
        return threshold_count(n, 1)

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


def product_threshold_scan(j: int, horizon: int) -> ThresholdScanReport:
    """Prefix densities of D_j at powers of ten, against the decay bound,
    plus containment of D_j in its envelope set, both from S's valuation classes.

    The counts are `threshold_count`.  The envelope verdict is a rule
    checked per class: each class v whose first run, around 10^v, starts by
    the horizon and is long enough to reach D_j (2R + 1 >= j) needs R < 31v
    and v >= ceil(j/30); then each of the class's runs [c - R, c + R] lies in
    ]c - 31v, c + 31v[, an envelope interval of scale v.  The rule is
    sufficient, and it holds for every class (R <= v + 2 * (digits(v) - 1)),
    so a True is a proof at any horizon, not evidence.
    """
    if horizon < 100:
        raise UsageError("horizon must be at least 100")
    if j < 1:
        raise UsageError("j must be >= 1")
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
        count = threshold_count(prefix, j)
        rows.append(ThresholdScanRow(prefix, count, Fraction(count, prefix), bound))
    ok = bound >= 1 or all(r.ratio <= bound for r in rows)

    env_ok, v = True, 1
    while 10**v - (reach := _run_shape(v)[0]) <= horizon:  # class v's first run starts by the horizon
        env_ok = env_ok and (2 * reach + 1 < j or (reach < 31 * v and v >= -(-j // 30)))
        v += 1
    return ThresholdScanReport(
        j=j,
        horizon=horizon,
        rows=tuple(rows),
        bound_respected=ok,
        envelope_ok=env_ok,
    )
