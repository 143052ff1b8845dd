"""Exact integer index sets, window counts, and density estimation.

A set of non-negative integers is exposed through a member listing over
closed windows [a, b], `members_in`, and one counting primitive,
`count_upto(n)`: the number of members in [0, n].  Membership of n is the
listing of the one-point window [n, n], and every window count is a
difference of two prefix counts.  Structured sets answer
`count_upto` in closed form, never by scanning from zero, so sets whose
interesting members sit near 10**100 remain usable.

Sets that are periodic piece by piece also say so through `pieces(n)`:
segment sets (and so `intervals:` and `prescribed:` sets), periodic sets
and the factorial blocks.  The estimator then counts a period's worth of
windows per piece instead of one per aligned window, so it does not scan
from zero either, and its time is set by the structure, not the horizon.
Every other kind (S, explicit lists, bitmaps, squares, powers) has no
pieces and is scanned window by window, and so is a set with more pieces
than windows, where one count per window costs less.  The scan takes the
prefix counts at the window boundaries one chunk of windows at a time,
one `prefix_counts` call per chunk: each kind answers it with one
`count_upto` per boundary, except S, which reads windows of up to 2000
off its indicator, built block by block.

Density estimates are `fractions.Fraction` ratios.  The estimator is
designed so that the chain

    lower_banach <= lower_density <= upper_density <= upper_banach

holds exactly, not merely up to rounding:

* the Banach bounds are the min/max count over every aligned window
  ]i*s, (i+1)*s] of the one window length s (plus structural anchor
  and uniformly sampled positions, which only widen the bracket);
* the upper density estimate is the prefix ratio over ]0, q*s] with
  q = horizon // s, and the lower density estimate is the minimum prefix
  ratio over tail checkpoints t*s (t within a configurable factor of q).
  Every such prefix is a disjoint union of aligned windows, hence its
  ratio is trapped between the scanned window minimum and maximum.

Finite-horizon numbers are evidence, never proofs; reports carry the
horizon and the positions that achieved each extreme.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt

from .errors import NoDataError, UsageError, WindowGridError

# ---------------------------------------------------------------------------
# set kinds


class IndexSet:
    """Base class: a subset of the non-negative integers.

    Subclasses implement `members_in`.  `contains(n)` is defined here
    once, as the listing of [n, n], not as `count_in(n, n)`, which must
    form n - 1 (a tower member at the lowest offset has none); only S
    overrides it, with the digit-scale scan that also serves tower
    integers.  `count_upto` is the one counting
    primitive: the generic version counts the listed members, and
    structured kinds override it with closed forms.  `count_in` is
    defined here once, from `count_upto`, and no kind overrides it;
    `prefix_counts` is too, and only S overrides it, with a bulk read of
    its indicator.  All instances are immutable (up to caches) and safe to
    share.
    """

    def contains(self, n) -> bool:
        return bool(self.members_in(n, n))

    def __contains__(self, n) -> bool:
        return self.contains(n)

    def members_in(self, lo, hi) -> list:
        """Sorted members in the closed range [lo, hi]."""
        raise NotImplementedError

    def count_upto(self, n) -> int:
        """Number of members in [0, n]; 0 for n < 0."""
        if n < 0:
            return 0
        return len(self.members_in(0, n))

    def count_in(self, lo, hi) -> int:
        """Number of members in the closed window [lo, hi]."""
        if lo > hi:
            return 0
        return self.count_upto(hi) - self.count_upto(lo - 1)

    def prefix_counts(self, step, q, start=0) -> list:
        """[count_upto(i * step) for i in start..q]: the prefix counts that bound aligned windows start..q - 1 of length step.

        Defined here once, from `count_upto`; a kind overrides it only where
        reading the windows in bulk is cheaper than one count per window.
        """
        return list(map(self.count_upto, range(start * step, q * step + 1, step)))

    def anchors(self, horizon) -> list:
        """Structural window-anchor candidates (block starts and the like)."""
        return self.members_in(0, horizon)[:32]

    def pieces(self, n) -> list | None:
        """The periodic pieces of [0, n], or None for a set without that structure.

        Pieces are contiguous half-open ranges (start, end, period), the
        first starting at 0 and the last ending past n, such that inside
        a piece membership of m depends only on (m - start) % period.
        """
        return None

    def all_members(self):
        """All members, for finite sets only."""
        raise UsageError(f"{type(self).__name__} is not finitely enumerable")

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitSet(IndexSet):
    members: tuple

    def __post_init__(self):
        ms = tuple(self.members)
        if not all(map(operator.lt, ms, itertools.islice(ms, 1, None))):
            ms = tuple(sorted(set(ms)))
        if ms and ms[0] < 0:
            raise UsageError("explicit sets live in the non-negative integers")
        object.__setattr__(self, "members", ms)

    def members_in(self, lo, hi):
        i = bisect.bisect_left(self.members, lo)
        j = bisect.bisect_right(self.members, hi)
        return list(self.members[i:j])

    def count_upto(self, n):
        return bisect.bisect_right(self.members, n)

    def all_members(self):
        return list(self.members)

    def anchors(self, horizon):
        ms = self.members_in(0, horizon)
        if len(ms) <= 48:
            return ms
        step = len(ms) // 48
        return ms[::step]

    def describe(self):
        return "explicit:" + ",".join(str(m) for m in self.members)

    @property
    def top(self):
        """The largest member; -1 for the empty set."""
        return self.members[-1] if self.members else -1


class BitmapSet(IndexSet):
    """A finite set held as one flag byte per integer 0..top: `flags[n]` is 1 for a member, else 0.

    Counting is `bytes.count` over a prefix and listing is one
    `itertools.compress`, so no Python int is made per member until a
    caller asks for the members themselves.  It describes itself in the
    `explicit:` form, which parses back to an `ExplicitSet` with the same
    members.  The set keeps the buffer it is given, `bytes` or
    `bytearray`, without a copy: a caller hands over a buffer that it no
    longer writes.
    """

    def __init__(self, flags: bytes | bytearray):
        self.flags = flags

    @property
    def top(self):
        """The largest member; -1 for the empty set."""
        return self.flags.rfind(1)

    def count_upto(self, n):
        return self.flags.count(1, 0, n + 1) if n >= 0 else 0

    def members_in(self, lo, hi):
        lo = max(lo, 0)
        return list(itertools.compress(range(lo, hi + 1), self.flags[lo : hi + 1]))

    def all_members(self):
        return self.members_in(0, len(self.flags) - 1)

    def describe(self):
        return "explicit:" + ",".join(map(str, self.all_members()))


@dataclass(frozen=True)
class PeriodicSet(IndexSet):
    """Members n >= 0 with n % period in residues, kept sorted.

    Counting is whole periods plus one bisect of the residues, and
    listing lists whole periods in one comprehension, trimmed in place to
    the window by two bisects.  Membership is the base class's one-point
    listing, which costs a period's residues; no loop asks for it.
    """

    period: int
    residues: tuple

    def __post_init__(self):
        if self.period < 1:
            raise UsageError("period must be >= 1")
        rs = tuple(sorted({r % self.period for r in self.residues}))
        object.__setattr__(self, "residues", rs)

    def count_upto(self, n):
        if n < 0:
            return 0
        q, rem = divmod(n + 1, self.period)
        return q * len(self.residues) + bisect.bisect_left(self.residues, rem)

    def members_in(self, lo, hi):
        lo, p = max(lo, 0), self.period
        out = [b + r for b in range(lo - lo % p, hi + 1, p) for r in self.residues]
        del out[bisect.bisect_right(out, hi) :]
        del out[: bisect.bisect_left(out, lo)]
        return out

    def anchors(self, horizon):
        return [r for r in self.residues if r <= horizon][:8]

    def pieces(self, n):
        return [(0, n + 1, self.period)]

    def describe(self):
        return f"periodic:{self.period}:" + ",".join(str(r) for r in self.residues)


def _pattern_upto(x, num, den):
    """Offsets in 0..x with offset % den < num."""
    q, r = divmod(x + 1, den)
    return q * num + min(r, num)


@dataclass(frozen=True)
class SegmentPatternSet(IndexSet):
    """Piecewise-periodic set: on [start, end) membership is (n - start) % den < num.

    Segments are sorted and disjoint (adjacent ones allowed), and the set is
    empty beyond the last one.  This is the output shape of the
    prescribed-density generator; a closed interval [a, b] is the full
    segment (a, b + 1, 1, 1), which is what `intervals:` specs build.
    """

    segments: tuple  # tuple of (start, end, num, den)

    def __post_init__(self):
        prev_end = 0
        before = [0]
        for seg in self.segments:
            start, end, num, den = seg
            if not 0 <= start < end:
                raise UsageError(f"segment {seg} needs 0 <= start < end")
            if not (den >= 1 and 0 <= num <= den):
                raise UsageError(f"segment {seg} needs den >= 1 and 0 <= num <= den")
            if start < prev_end:
                raise UsageError(f"segment {seg} overlaps or precedes the segment before it")
            prev_end = end
            before.append(before[-1] + _pattern_upto(end - start - 1, num, den))
        # segment starts, and the members before each segment, for bisection
        object.__setattr__(self, "_starts", tuple(seg[0] for seg in self.segments))
        object.__setattr__(self, "_before", tuple(before))

    def count_upto(self, n):
        i = bisect.bisect_right(self._starts, n) - 1
        if i < 0:
            return 0
        start, end, num, den = self.segments[i]
        return self._before[i] + _pattern_upto(min(n, end - 1) - start, num, den)

    def members_in(self, lo, hi):
        out = []
        first = max(bisect.bisect_right(self._starts, lo) - 1, 0)
        for start, end, num, den in self.segments[first:]:
            if start > hi:
                break
            span = range(max(start, lo), min(end - 1, hi) + 1)
            if num == den:
                out.extend(span)
            else:
                out.extend(n for n in span if (n - start) % den < num)
        return out

    def all_members(self):
        return self.members_in(0, self.segments[-1][1] - 1) if self.segments else []

    def anchors(self, horizon):
        return [s for s in self._starts if s <= horizon][:64]

    def pieces(self, n):
        """Each segment, cut at n + 1, with the gaps between them and the tail as period-1 pieces."""
        out, at = [], 0
        for start, end, num, den in self.segments[: bisect.bisect_right(self._starts, n)]:
            if start > at:
                out.append((at, start, 1))
            out.append((start, min(end, n + 1), den))
            at = end
        if at <= n:
            out.append((at, n + 1, 1))
        return out

    def describe(self):
        parts = [f"{s}:{e}:{n}:{d}" for s, e, n, d in self.segments]
        return "segments:" + ";".join(parts)


def intervals_set(intervals) -> SegmentPatternSet:
    """The union of closed intervals [a, b], a <= b, as full segments."""
    for a, b in intervals:
        if a > b:
            raise UsageError(f"interval {a}-{b} runs backwards")
    merged = merge_intervals(intervals)
    if merged and merged[0][0] < 0:
        raise UsageError("intervals live in the non-negative integers")
    return SegmentPatternSet(tuple((a, b + 1, 1, 1) for a, b in merged))


class FactorialBlockSet(IndexSet):
    """Union of blocks [j!, j! + j], j >= 1: density zero along prefixes, full windows at j!.

    The blocks built so far are kept, merged, as full segments of a
    `SegmentPatternSet`, which answers every query; it is rebuilt only when
    a query reaches past the last built start, and then built on to twice
    that start, so a scan up to n rebuilds it O(log n) times.
    """

    def __init__(self):
        self._built = []  # (j!, j! + j) of blocks j = 1, 2, ...
        self._cover = SegmentPatternSet(())

    def _upto(self, n) -> SegmentPatternSet:
        """The built blocks, once some block starts after n (so all members <= n are in)."""
        built = self._built
        if built and built[-1][0] > n:
            return self._cover
        target = max(n, 2 * built[-1][0]) if built else n
        while not built or built[-1][0] <= target:
            j = len(built) + 1
            built.append((factorial(j), factorial(j) + j))
        self._cover = intervals_set(built)
        return self._cover

    def count_upto(self, n):
        return self._upto(n).count_upto(n)

    def members_in(self, lo, hi):
        return self._upto(hi).members_in(lo, hi)

    def anchors(self, horizon):
        return self._upto(horizon).anchors(horizon)

    def pieces(self, n):
        return self._upto(n).pieces(n)

    def describe(self):
        return "factorial-blocks"


class GeometricSet(IndexSet):
    """Powers base**j, j >= min_exponent."""

    def __init__(self, base, min_exponent=0):
        if base < 2:
            raise UsageError("base must be >= 2")
        if min_exponent < 0:
            raise UsageError("the minimum exponent must be >= 0")
        self.base = base
        self.min_exponent = min_exponent

    def members_in(self, lo, hi):
        out = []
        p = self.base ** self.min_exponent
        while p <= hi:
            if p >= lo:
                out.append(p)
            p *= self.base
        return out

    def anchors(self, horizon):
        return self.members_in(0, horizon)

    def describe(self):
        if self.min_exponent:
            return f"powers:{self.base}:{self.min_exponent}"
        return f"powers:{self.base}"


class SquareSet(IndexSet):
    """Perfect squares k*k, k >= 0."""

    def members_in(self, lo, hi):
        if hi < 0:
            return []
        return [k * k for k in range(isqrt(lo - 1) + 1 if lo > 0 else 0, isqrt(hi) + 1)]

    def count_upto(self, n):
        return isqrt(n) + 1 if n >= 0 else 0

    def describe(self):
        return "squares"


def merge_intervals(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class SetFamily:
    """An ordered family A_1, ..., A_K of index sets."""

    label: str
    sets: tuple

    def __len__(self):
        return len(self.sets)

    def level(self, k) -> IndexSet:
        return self.sets[k - 1]

    def enumerate_levels(self):
        return [(k + 1, s) for k, s in enumerate(self.sets)]


@dataclass(frozen=True)
class GapCheckResult:
    ok: bool
    pairs_checked: int
    violation: tuple | None = None  # (value, k, value', k', required)

    def __bool__(self):
        return self.ok


def check_gap_family(family: SetFamily, horizon=None) -> GapCheckResult:
    """Verify |j - j'| >= max(k, k') for distinct members across all levels.

    Checking consecutive members of the merged sorted list suffices: gaps of
    non-adjacent members are sums of consecutive gaps, and each consecutive
    gap already dominates the larger of its two level indices.  Members may be
    ints or lazy tower integers (`HugeInt`): both sort together, and `v2 - need < v1` is exact.
    """
    tagged = []
    for k, s in family.enumerate_levels():
        members = s.all_members() if horizon is None else s.members_in(0, horizon)
        tagged.extend((m, k) for m in members)
    tagged.sort(key=lambda t: t[0])
    for (v1, k1), (v2, k2) in itertools.pairwise(tagged):
        need = max(k1, k2)
        if v1 == v2 or v2 - need < v1:
            return GapCheckResult(False, len(tagged), (v1, k1, v2, k2, need))
    return GapCheckResult(True, len(tagged))


# ---------------------------------------------------------------------------
# window counts and densities


@dataclass(frozen=True)
class DensityReport:
    lower_banach: Fraction
    lower_density: Fraction
    upper_density: Fraction
    upper_banach: Fraction
    horizon: int
    effective_horizon: int
    window: int
    tail_factor: int
    banach_argmin: int
    banach_argmax: int
    lower_density_at: int

    def __post_init__(self):
        chain = (self.lower_banach, self.lower_density, self.upper_density, self.upper_banach)
        for x in chain:
            if not 0 <= x <= 1:
                raise AssertionError(f"density estimate {x} outside [0, 1]")
        if not (chain[0] <= chain[1] <= chain[2] <= chain[3]):
            raise AssertionError(f"density chain violated: {chain}")

    def as_tuple(self):
        return (self.lower_banach, self.lower_density, self.upper_density, self.upper_banach)


# The scan takes its prefix counts this many windows at a time, so its memory
# does not grow with horizon / window; the bench's longest scan, S at 10^7
# with windows of 100, is one chunk.
_SCAN_WINDOWS = 1 << 17


def estimate_densities(A: IndexSet, horizon: int, window: int | None = None, tail_factor: int = 8) -> DensityReport:
    """Four finite-horizon density estimates with the exact chain property.

    See the module docstring for the estimator definition.  `window` is
    the window length s; None takes the largest of 10, 100, 1000 and
    10000 that is at most horizon / 4, else 1.  `tail_factor` bounds how
    deep into the prefix the lower-density checkpoints reach: checkpoints
    are the multiples of s inside [effective_horizon / tail_factor,
    effective_horizon].  The aligned window counts are differences of the
    prefix counts `A.count_upto(i * s)`.

    A set without pieces (`IndexSet.pieces` is None: S, explicit lists,
    bitmaps, squares, powers), or with more pieces up to q * s than there
    are windows, is scanned window by window, in chunks of
    `_SCAN_WINDOWS` windows whose prefix counts one `A.prefix_counts`
    call takes, so only one chunk's counts are held at a time.  Otherwise
    (segment sets, and so `intervals:` and `prescribed:` sets, periodic
    sets and the factorial blocks) only the windows and checkpoints that
    `_piece_positions` picks are counted, O(pieces * period) of them,
    and the report is the same: both paths list their windows in
    increasing order from window 0 and walk their checkpoints in
    increasing order, so the earliest extreme window wins (a later chunk
    replaces an extreme only when it beats it), and the full-prefix
    checkpoint wins a tie for the lowest ratio, else the earliest
    checkpoint.
    """
    if tail_factor < 1:
        raise WindowGridError(f"the tail factor must be >= 1, got {tail_factor}")
    if window is None:
        window = max((s for s in (10, 100, 1000, 10000) if s <= horizon // 4), default=1)
    elif window < 1:
        raise WindowGridError(f"the window must be >= 1, got {window}")
    elif horizon < window:
        raise WindowGridError(
            f"horizon {horizon} is smaller than the window {window}; shrink the window or extend the horizon"
        )
    s = window
    q = horizon // s
    if q < 1:
        raise WindowGridError(f"horizon {horizon} holds no window of length {s}")

    t0 = max(1, -(-q // tail_factor))  # ceil(q / tail_factor)
    pieces = A.pieces(q * s)
    if pieces is None or len(pieces) > q:  # past one piece per window the scan's counts cost less
        chunks = _scan_chunks(A, s, q, t0)
    else:
        windows, checkpoints = _piece_positions(pieces, s, q, t0)
        needed = {*checkpoints, *windows, *(i + 1 for i in windows)}
        upto = {i: A.count_upto(i * s) for i in sorted(needed)}
        counts = [upto[i + 1] - upto[i] for i in windows]
        chunks = [(windows, counts, ((t, upto[t]) for t in checkpoints))]

    # Both paths list their windows and checkpoints in increasing order from
    # window 0, and a later chunk replaces an extreme only when it beats it,
    # so `index` finds the earliest window with each extreme count and the
    # earliest checkpoint with the lowest ratio wins.  The start (1, 1) is
    # above every ratio but 1, and the full prefix takes a ratio of 1 anyway.
    base = A.count_upto(0)
    best_max, best_min = -1, s + 1
    low, low_at = 1, 1
    for windows, counts, marks in chunks:
        most, least = max(counts), min(counts)
        if most > best_max:
            best_max, argmax = most, windows[counts.index(most)] * s
        if least < best_min:
            best_min, argmin = least, windows[counts.index(least)] * s
        for t, c in marks:
            if (c - base) * low_at < low * (t * s):
                low, low_at = c - base, t * s
    full = A.count_upto(q * s) - base

    for k in _anchor_positions(A, horizon, s):
        c = A.count_in(k + 1, k + s)
        if c > best_max:
            best_max, argmax = c, k
        if c < best_min:
            best_min, argmin = c, k

    upper_banach = Fraction(best_max, s)
    lower_banach = Fraction(best_min, s)

    upper_density = Fraction(full, q * s)
    # the full prefix wins a tie with the lowest checkpoint ratio
    if full * low_at <= low * (q * s):
        low, low_at = full, q * s
    lower_density, lower_at = Fraction(low, low_at), low_at

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


def _scan_chunks(A, s, q, t0):
    """The scan's chunks of up to `_SCAN_WINDOWS` windows: (windows, counts, marks).

    counts holds the counts of the chunk's windows lo..hi - 1, and marks
    the (checkpoint t, count_upto(t * s)) pairs of its checkpoints in
    ]lo, hi], all read off one `prefix_counts` call.
    """
    for lo in range(0, q, _SCAN_WINDOWS):
        hi = min(lo + _SCAN_WINDOWS, q)
        upto = A.prefix_counts(s, hi, lo)
        counts = list(map(operator.sub, upto[1:], upto))
        first = max(t0, lo + 1)
        yield range(lo, hi), counts, zip(range(first, hi + 1), upto[first - lo :])


def _piece_positions(pieces, s, q, t0):
    """The windows i < q and checkpoints t in [t0, q] whose counts settle the scan, in increasing order.

    The windows start at window 0: it lies inside the first piece, which
    starts at 0, or reaches over the start of a later one.

    Inside a piece (start, end, period) the prefix count C(m) = count_upto(m),
    for start <= m + 1 <= end, is C(start - 1) plus an affine function of
    (m - start + 1) // period, with a term that depends on (m - start + 1) % period.
    Moving i or t on by `step` = period / gcd(s, period) moves i * s on by
    lcm(s, period), so within one residue class of i (or t) modulo `step`:

    * a window ]i*s, (i+1)*s] that lies inside the piece has one count, and
      the earliest window of the class gives it;
    * the checkpoint ratio C(t*s) - C(0) over t*s is a ratio of two affine
      functions of the class index with a positive denominator, hence
      monotone, and it is lowest at the class's first or last checkpoint.

    So each piece gives its first `step` windows and the first and last
    checkpoint of each class, and every window that reaches over a piece
    start is taken as it is.  The earliest window with the extreme count,
    and the earliest checkpoint with the lowest ratio, are always among
    these, which is all the scan's tie rules look at.
    """
    windows, checkpoints = [], []
    nxt = 0  # the first window not yet taken or passed over
    for start, end, period in pieces:
        step = period // gcd(s, period)
        lo = max(0, -((1 - start) // s))  # the first window inside the piece: i * s >= start - 1
        hi = min(q - 1, (end - 1) // s - 1)  # the last: (i + 1) * s <= end - 1
        windows.extend(range(nxt, lo))  # these reach over the piece's start
        windows.extend(range(lo, min(hi + 1, lo + step)))
        nxt = max(lo, hi + 1)
        first, last = max(t0, -(-start // s)), min(q, (end - 1) // s)  # checkpoints t*s in [start, end)
        for t in range(first, min(last + 1, first + step)):
            checkpoints.extend((t, t + (last - t) // step * step))
    return windows, sorted(set(checkpoints))


def _anchor_positions(A, horizon, s):
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


# ---------------------------------------------------------------------------
# syndeticity evidence


@dataclass(frozen=True)
class SyndeticEvidence:
    syndetic: bool
    gap_bound: int
    largest_gap: int
    largest_gap_at: int
    horizon: int
    members: int

    def __bool__(self):
        return self.syndetic


def is_syndetic(A: IndexSet, horizon: int) -> SyndeticEvidence:
    """Bounded-gap evidence over [0, horizon].

    The gaps run from 0 to the first member, between consecutive members,
    and from the last member to the horizon; a gap's start is 0 or the
    member it leaves.  Verdict true means the gap pattern is not growing:
    the maximum gap whose start lies in the second half of the range
    (at or after horizon // 2) does not exceed the maximum over the first
    half, and the second half is populated at all; the gap bound is then
    the largest gap, else 0.  The largest gap is reported at its latest
    start.  This is evidence at the horizon, never a proof, and a horizon
    below 1 holds no gap to judge (`NoDataError`).

    A `BitmapSet` has its gaps read off the zero runs of its flag bytes
    (`_bitmap_gaps`); every other kind lists its members (`_listed_gaps`).
    """
    if horizon < 1:
        raise NoDataError(f"horizon {horizon} holds no gap: syndeticity needs a horizon >= 1")
    gaps = _bitmap_gaps if isinstance(A, BitmapSet) else _listed_gaps
    g1, g2, largest_at, populated, members = gaps(A, horizon)
    largest = max(g1, g2)
    verdict = populated and g2 <= g1
    return SyndeticEvidence(
        syndetic=verdict,
        gap_bound=largest if verdict else 0,
        largest_gap=largest,
        largest_gap_at=largest_at,
        horizon=horizon,
        members=members,
    )


def _listed_gaps(A: IndexSet, horizon: int):
    """(first-half gap, second-half gap, latest start of the largest, second half populated, members) from the listing."""
    members = A.members_in(0, horizon)
    if not members:
        raise NoDataError(f"no members of the set in [0, {horizon}]")
    # gap i starts at 0 (i = 0) or at members[i - 1], and ends at members[i] or the horizon
    gaps = list(map(operator.sub, itertools.chain(members, (horizon,)), itertools.chain((0,), members)))
    mid = horizon // 2
    first_half = bisect.bisect_left(members, mid) + 1 if mid > 0 else 0  # gaps starting below mid
    g1 = max(itertools.islice(gaps, first_half), default=0)
    g2 = max(itertools.islice(gaps, first_half, None), default=0)
    gaps.reverse()
    last = len(gaps) - 1 - gaps.index(max(g1, g2))
    return g1, g2, members[last - 1] if last else 0, members[-1] >= mid, len(members)


def _bitmap_gaps(A: BitmapSet, horizon: int):
    """`_listed_gaps` of a bitmap, read off its zero runs with no int per member.

    `bounds` is the flags over [0, horizon], zero bytes past their end,
    with a 1 put at 0 and at the horizon, built by one join of a view of
    the flags.  So its 1 bytes are exactly the starts and ends of the
    gaps: a gap of length at least g starts at s when b"\\x01" and g - 1
    zero bytes occur at s.  The two halves' longest gaps come from
    `_longest_gap`, and the latest start of the largest gap L from one
    `rfind` of that pattern closed by the 1 that ends it.  Zero-length
    gaps, which a member at 0 or at the horizon adds to the list form,
    change neither maximum, since the gaps of a horizon >= 1 sum to it.
    """
    count = A.count_upto(horizon)
    if not count:
        raise NoDataError(f"no members of the set in [0, {horizon}]")
    flags = A.flags
    bounds = b"".join((b"\x01", memoryview(flags)[1:horizon], bytes(max(horizon - len(flags), 0)), b"\x01"))
    mid = horizon // 2
    g1 = _longest_gap(bounds, 0, mid) if mid > 0 else 0
    g2 = _longest_gap(bounds, mid, horizon)
    largest_at = bounds.rfind(b"\x01" + bytes(max(g1, g2) - 1) + b"\x01")
    return g1, g2, largest_at, flags.find(1, mid, horizon + 1) >= 0, count


def _longest_gap(bounds: bytes, lo: int, hi: int) -> int:
    """The largest g >= 1 such that a gap of length >= g starts in [lo, hi).

    A search for b"\\x01" + (g - 1) zero bytes finds such a gap; g doubles
    until it fails and is then bisected, O(log g) `bytes.find` calls.
    """

    def found(g):
        return bounds.find(b"\x01" + bytes(g - 1), lo, hi + g - 1) >= 0

    good = 1
    while found(2 * good):
        good *= 2
    bad = 2 * good
    while bad - good > 1:
        g = (good + bad) // 2
        if found(g):
            good = g
        else:
            bad = g
    return good


# ---------------------------------------------------------------------------
# difference sets


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
# One bitset row, the shift and OR of top + 1 bits, costs about as much as
# top // _ROW_PAIRS flag writes, a loose pair or a diagonal slice each: on
# Python 3.11 and a 2-vCPU x86-64 host this picks the faster route on each
# of the 52 inputs of BENCH_34.json's k_sweep but one, whose two routes
# were within 2 % of each other.
_ROW_PAIRS = 2670


def _bitset_cheaper(row_bits: int, writes: int) -> bool:
    """Whether `difference_set` takes the bitset, whose n rows hold row_bits = n * top bits in all.

    The bitset costs about row_bits // _ROW_PAIRS writes; the flag route
    costs `writes`, one per loose pair and one per diagonal slice.  So
    sparse sets and sets made of long quadratic runs take the flags, and
    dense sets without such runs (periodic sets of several residues) the
    bitset.
    """
    return row_bits <= writes * _ROW_PAIRS


def _quadratic_runs(members: list) -> tuple:
    """(runs, reach): the maximal runs of more than three members with one second difference, and the rows with a loose pair.

    Each run is a (first, last, bend) triple: members[first..last], every
    second difference equal to bend; runs come in increasing order, and
    two of them share at most two members.  reach[i] is the last index of
    a run that holds member i, else i; it never decreases, so the rows
    with a loose pair, reach[i] < n - 1, come first, and only they are
    listed.  A set that is one run (squares, evens) lists none.  The
    second differences are compared at C level, streamed off the members,
    and a Python step is taken per run, so a set with no run (a periodic
    set of two residues) costs O(n) C-level work and n bytes.
    """
    n = len(members)
    # flat[i]: members i..i + 3 have a third difference of 0, m[i + 3] - m[i] = 3 * (m[i + 2] - m[i + 1])
    outer = map(operator.sub, itertools.islice(members, 3, None), members)
    inner = map(operator.sub, itertools.islice(members, 2, None), itertools.islice(members, 1, None))
    flat = bytes(map(operator.eq, outer, map(operator.mul, inner, itertools.repeat(3))))
    runs, reach = [], []
    i = flat.find(1)
    while i >= 0:
        j = flat.find(0, i)
        last = j + 2 if j >= 0 else n - 1
        runs.append((i, last, members[i + 2] - 2 * members[i + 1] + members[i]))
        del reach[i:]  # a run's first two members may close the one before it
        reach += range(len(reach), i)
        if j < 0:  # this run holds the last member, so its rows have no loose pair
            return runs, reach
        reach += itertools.repeat(last, last + 1 - i)
        i = flat.find(1, j)
    if not runs:  # no list of n ints for the dense sets that keep the bitset
        return runs, range(n - 1)
    reach += range(len(reach), n - 1)
    return runs, reach


def difference_set(A: IndexSet, horizon: int) -> IndexSet:
    """{a - a' : a, a' in A ∩ [0, horizon], a >= a'}, a `BitmapSet` or an `ExplicitSet`.

    D becomes the flag bytes of a `BitmapSet`, one byte per integer
    0..max D, so no int is made per member of D.  The members are split
    once into maximal quadratic runs (`_quadratic_runs`): inside a run of
    constant second difference c, each diagonal g, the differences
    members[i + g] - members[i], is an arithmetic progression of step g * c,
    so it is one extended-slice write, and an arithmetic progression
    (c = 0) is one slice for all its diagonals.  The loose pairs, those
    that no run holds, are written one by one: row i starts past reach[i],
    the last index of a run that holds i, and only the rows with a loose
    pair are listed.  `_bitset_cheaper` weighs the
    loose pairs plus the slices against the bitset, one Python int
    whose binary digits, lowest first, are the flags: the OR over members
    a of the member mask shifted down by a.  Pairs are enumerated instead,
    into an `ExplicitSet`, only when top member + 1 is above n**2, so that
    the flags could be larger than the pairs; the input alone decides.
    """
    members = A.members_in(0, horizon)
    if not members:
        return ExplicitSet(())
    top = members[-1]
    n = len(members)
    if top + 1 > n**2:
        return ExplicitSet(tuple(sorted({a - b for i, a in enumerate(members) for b in members[: i + 1]})))
    runs, reach = _quadratic_runs(members)
    loose = (n - 1) * len(reach) - sum(reach)
    slices = sum(1 if bend == 0 else last - first for first, last, bend in runs)
    if not _bitset_cheaper(n * top, loose + slices):
        flags = bytearray(top - members[0] + 1)
        flags[0] = 1
        ones = memoryview(b"\x01" * n)
        for first, last, bend in runs:
            if bend == 0:
                step = members[first + 1] - members[first]
                flags[step : members[last] - members[first] + 1 : step] = ones[: last - first]
                continue
            for g in range(1, last - first + 1):
                ends = members[first + g] - members[first], members[last] - members[last - g]
                flags[min(ends) : max(ends) + 1 : g * abs(bend)] = ones[: last - first + 1 - g]
        for a, r in zip(members, reach):
            for d in map(operator.sub, members[r + 1 :], itertools.repeat(a)):
                flags[d] = 1
        return BitmapSet(flags)
    bits = bytearray((top >> 3) + 1)
    for m in members:
        bits[m >> 3] |= 1 << (m & 7)
    mask = int.from_bytes(bits, "little")
    diffs = 0
    for a in members:
        diffs |= mask >> a
    # bit d of diffs, for d = 0, 1, ..., as byte d
    return BitmapSet(format(diffs, "b")[::-1].encode("ascii").translate(_BINARY_DIGITS))


# ---------------------------------------------------------------------------
# prescribed-density generator


def make_prescribed_density_set(r1, r2, r3, r4, eras: int = 6, window: int = 1000):
    """Build a set whose four density estimates converge to (r1, r2, r3, r4).

    Construction: alternate long stretches of local density r4 (pushing the
    prefix ratio up to a peak near r3) with long stretches of local density
    r1 (pulling it down to a trough near r2).  Stretch lengths at least
    4 * window guarantee that aligned windows of the recommended length sit
    fully inside both extremes, so the Banach estimates see r1 and r4; the
    prefix ratio oscillates between r2 and r3 with per-era tolerance 2**-(e+2).

    The returned set carries `recommended_horizon` (the final peak, where
    the full-prefix ratio sits at r3), `recommended_window`, and
    `recommended_tail_factor` (large enough that the final trough lies
    inside the lower-density checkpoint range).  Convergence speed is a
    property of this construction, not of anything it models.
    """
    if window < 1 or eras < 1:
        raise UsageError(f"window and eras must be >= 1, got window {window} and eras {eras}")

    def _rat(r):
        if isinstance(r, float):
            return Fraction(r).limit_denominator(10**6)
        return Fraction(r)

    r1, r2, r3, r4 = rs = tuple(_rat(r) for r in (r1, r2, r3, r4))
    if not (0 <= r1 <= r2 <= r3 <= r4 <= 1):
        raise UsageError(f"need 0 <= r1 <= r2 <= r3 <= r4 <= 1, got {','.join(map(str, rs))}")

    if r1 == r4:
        # constant density: a plain periodic pattern realizes all four at once
        out = PeriodicSet(r1.denominator, tuple(range(r1.numerator)))
        return _recommend(out, max(100 * r1.denominator, 16 * window), window, 8)

    hi_num, hi_den = r4.numerator, r4.denominator
    lo_num, lo_den = r1.numerator, r1.denominator
    min_len = 4 * window

    segments = []
    pos = 0
    cnt = 0
    trough_pos = 1

    def run(num, den, length):
        nonlocal pos, cnt
        length = -(-length // den) * den  # round up to a full pattern cycle
        segments.append((pos, pos + length, num, den))
        pos += length
        cnt += (length // den) * num

    for era in range(1, eras + 1):
        tol = Fraction(1, 2 ** (era + 2))
        # rise: local density r4 until the prefix ratio reaches the peak target
        peak = r3 if r4 > r3 else r3 - min(tol, r3 / 2 if r3 > 0 else tol)
        length = min_len
        if r4 > peak and peak * (pos + min_len) > cnt + min_len * r4:
            need = (peak * pos - cnt) / (r4 - peak)
            length = max(min_len, int(need) + hi_den)
        run(hi_num, hi_den, length)
        if era == eras:
            break
        # fall: local density r1 until the prefix ratio reaches the trough target
        trough = r2 if r1 < r2 else r2 + min(tol, Fraction(1, 4))
        if trough <= r1:
            trough = r1 + tol
        length = min_len
        cur = Fraction(cnt, pos)
        if cur > trough and r1 < trough:
            need = (cnt - trough * pos) / (trough - r1)
            length = max(min_len, int(need) + lo_den)
        run(lo_num, lo_den, length)
        trough_pos = pos

    tail = max(8, -(-pos // max(trough_pos, 1)) + 1)
    return _recommend(SegmentPatternSet(tuple(segments)), pos, window, tail)


def _recommend(out, horizon, window, tail_factor):
    """`out` with its recommended_horizon, recommended_window and recommended_tail_factor set."""
    object.__setattr__(out, "recommended_horizon", horizon)
    object.__setattr__(out, "recommended_window", window)
    object.__setattr__(out, "recommended_tail_factor", tail_factor)
    return out
