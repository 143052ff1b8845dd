"""Orbit hitting times, recurrence classification, return sets, and
correlation machinery over integer time sets.

An orbit is held as lists in the insertion order of x: each entry's
original index and last live step, a float mantissa and an int power-of-two
exponent, so that dyadic data stays exact far beyond double range in both
directions.  A step multiplies each mantissa by the weight at its position
and renormalizes with one `frexp`, exact for power-of-two weights.  The
weights come from a table built once for the orbit's horizon, past which no
step reads.  Magnitudes past the overflow cap truncate the orbit with the
truncation recorded on every report.

`hitting_times` and the probes of `return_set` go through one selector,
`_hit_sets`, which decides each target ball by one of three routes.  Each
route gives the verdicts of one `ball_contains` per step, bit for bit, and
the same truncation step.

1. Zero-centred c0 balls under a constant weight c = ±2**k with an int k
   (`shifts._constant_pow2_rate`).  Entry j of B^n x is then
   ±ldexp(m_j, e_j + n*k): one correctly rounded `ldexp` of the exact
   value, the bits the scan's rows hold.  Rounding is monotone, so the
   largest rounded entry is the rounded largest entry, and
   ‖B^n x‖ = fl(2**(n*k) * max |x_j| over the entries still live at n):
   a suffix maximum over the entries in index order.  Between the steps
   at which an entry leaves a unilateral space that norm is monotone in n,
   so each stretch hits on a prefix or a suffix, found by bisection.  The
   first step at which a live entry passes the overflow cap is a closed
   form in the exponents.
2. Balls with r <= ‖y‖ under the same weights (`_Ball.misses_off_support`
   gives the exact rule).  A point whose support misses supp y lies
   outside such a ball, so only the steps i - j, i in supp x and j in
   supp y, can hit.  Each such row is built directly and decided as the
   scan decides it.
3. Every other ball: the scan, which runs only when some ball needs it,
   and then only for those balls.

The scan moves the orbit a block of about 2**15 entry-steps at a time.
Within a block each row is the previous row times the weights, one product
per entry, started from each entry's value (or, far from 1, its mantissa)
and renormalized with `frexp` once at the end of the block; the block is
short enough that every running product stays a normal float, where
rounding commutes with powers of two, so the rows have the bits of
stepping with `frexp` one step at a time.  Each row is tested against every target by
the rule of `spaces.norm`, so each verdict is the one `ball_contains` gives
on every space: `spaces._float_terms` turns v - c into terms, taken in the
order of `spaces.norm` (v's nonzero entries in x order, then the centre
entries no nonzero entry meets at that step, in centre order), and
`spaces._float_size` turns them into the norm.  The terms are formed
lazily, and each test stops at the first prefix whose running maximum or
sum reaches the ball's stop total (`spaces._stop_total`), from which every
total has a size of at least r.  The terms are non-negative and rounding
is monotone, so the running sum never falls: a stopped row lies outside
the ball by the whole sum too, and, with the stop below its cap on lp, by
the rescaled norm of a sum that would overflow.  A row that is never
stopped is summed with the same additions in the same order, so every
verdict keeps its bits.  Rows for which that rule asks to rescale, and
centres without a float value, go through `ball_contains` itself.  Every
route reads each entry's lifetime from `SpaceSpec.last_step` (its index
on a unilateral space, no bound on a bilateral one).  An orbit whose
entries have all left is zero from then on, and the remaining times are
decided by one ball test of the zero vector.

The orbit steps and the direct routes run on the standard library's C
iterators (`map`, `zip`, `compress`), like the rest of the package, which
depends on nothing outside it; the size rule is a Python loop over the
terms, and stops early for that reason.

`return_weight_sums` gives each beta_n as the correctly rounded exact sum
of the tabulated alpha floats.  Each float is a dyadic rational, so over
the largest of their denominators, 2**F, every alpha(d) is an exact int;
the int sums are exact, and each is rounded once by one int division by
2**F.  Two routes give the same ints, and one comparison on the input
picks one (`_pairs_cost_less`): one product per cut of two long decimal
numbers holding the member indicator and the reversed alpha table in
slots wide enough that none carries (Kronecker substitution, for dense
sets), or the sum over the pairs of members within alpha's reach (sparse
sets), which takes alpha only at the differences that occur.

Classification labels are evidence at a horizon, never proofs, and the
threshold they use is always carried in the result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from math import floor, frexp, inf, ldexp, log2
from operator import add, le, mul, neg, sub

from .errors import NoDataError, UsageError
from .indexsets import (
    DensityReport,
    ExplicitSet,
    IndexSet,
    SyndeticEvidence,
    estimate_densities,
    is_syndetic,
    merge_intervals,
)
from .shifts import ShiftOperator, _constant_pow2_rate, _pow2_clamped, apply_backward, apply_right_inverse
from .spaces import SparseVec, _common_denominator, _float_size, _float_terms, _same_space, _stop_total, ball_contains

OVERFLOW_LOG2 = 996  # float materialization cap, about 1e300
DENSITY_WINDOWS = (10, 100, 1000)  # hitting-set density windows; the largest that fits in the horizon is used
_BLOCK = 2**15  # orbit cells (entries plus centre entries, times steps) per block
_DRIFT = 500  # most bits a running product may move within one block


# ---------------------------------------------------------------------------
# scaled-pair orbit stepping


def _split(value):
    """(mantissa, exp) with value = mantissa * 2**exp, mantissa in [0.5, 1)."""
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        shift = num.bit_length() - den.bit_length()
        # value / 2**shift, of magnitude in [1/4, 2), as one correctly rounded int division
        m, e = frexp(num / (den << shift) if shift >= 0 else (num << -shift) / den)
        return m, e + shift
    m, e = frexp(float(value))
    return m, e


def _split_entries(x: SparseVec):
    """x's indices, last live steps (`SpaceSpec.last_step`), mantissas and exponents (`_split`), in x order."""
    split = [_split(val) for val in x.entries.values()]
    return list(x.entries), list(map(x.space.last_step, x.entries)), [m for m, _ in split], [e for _, e in split]


class _Orbit:
    """Backward-shift orbit as four lists in the insertion order of x.

    `index` is each entry's original index, `last_steps` its last live step,
    `mantissa` and `exponent` its value m * 2**e; after `steps` steps entry j
    stands at index[j] - steps.
    `step(count)` moves the state on by a block of `count` steps and returns
    the orbit points it passed.  On a unilateral space an entry that steps
    past index 0 meets a table weight of 0.0, so its mantissa is 0 from then
    on, and `prune()` drops it.  The weight table is built once: from each
    entry's index downwards it holds the weights at every index the entry
    stands on up to step `reach`, the horizon (on a unilateral space at most
    the step at which the last entry has left; 0.0 for k < 1, never fetched).
    Magnitudes past `OVERFLOW_LOG2`, read at each step, end a block.
    """

    def __init__(self, T: ShiftOperator, x: SparseVec, horizon: int):
        self.space = x.space
        self.index, self.last_steps, self.mantissa, self.exponent = _split_entries(x)
        self.steps = 0
        w, bilateral = T.weights, self.space.bilateral
        self.reach = reach = max(min(horizon, max(self.last_steps, default=inf) + 1), 1)
        # tabulate w_k for k from i down to i - reach around every original index i, over merged runs
        runs = merge_intervals((i - reach, i) for i in self.index)
        table, top = [], {}
        for low, high in runs:
            first = low if bilateral else max(low, 1)
            top[high] = len(table) + high  # w_k sits at top[high] - k
            table.extend(w.weight(k) for k in range(high, first - 1, -1))
            table.extend([0.0] * (min(first, high + 1) - low))
        highs = [high for _, high in runs]
        # entry j's weight at step s sits at base[j] + s
        self._base = [top[highs[bisect_right(highs, i - 1)]] - i for i in self.index]
        self._table = table
        self._steepest = max((abs(log2(abs(v))) for v in table if v), default=0.0)
        # rows per block that keep every running product within 2**±_DRIFT of its start
        self.stride = max(1, floor(_DRIFT / self._steepest)) if self._steepest else _BLOCK

    def step(self, count):
        """Move on by `count` steps; return the orbit points at steps `steps` ..
        `steps + count - 1` (before the move), as rows of values in x order, and
        the first of those rows with an exponent past the overflow cap (None if
        there is none).  A block longer than `stride`, or one whose last step
        lies past `reach`, the end of the weight table, raises ValueError.

        Each row is the previous one times the weights, one product per entry,
        from a start row of values (or of mantissas, for entries far from 1);
        the state is renormalized with `frexp` only at the end.  Within `stride`
        rows every running product stays a normal float, where rounding commutes
        with powers of two, so the rows have the bits of `count` single steps.
        """
        if count > self.stride:
            raise ValueError(f"a block holds at most {self.stride} rows")
        start = self.steps
        if start + count - 1 > self.reach:
            raise ValueError(f"the weight table ends at step {self.reach}")
        drift = count * self._steepest  # most bits a running product moves in this block
        room = 1000 - drift  # values within 2**±room stay normal floats through the block
        scales = [0 if m and -room <= e <= room else e for m, e in zip(self.mantissa, self.exponent)]
        row = tuple(m if s else ldexp(m, e) for m, e, s in zip(self.mantissa, self.exponent, scales))
        rows = [row]
        for weights in zip(*[self._table[b + start : b + start + count] for b in self._base]):
            row = tuple(map(mul, row, weights))
            rows.append(row)
        over = count
        for j, (last, e, s) in enumerate(zip(self.last_steps, self.exponent, scales)):
            if e + drift + 2 > OVERFLOW_LOG2:  # the entry may pass the cap: find the row
                live = min(count, last - start + 1)
                over = next((r for r in range(min(live, over)) if frexp(rows[r][j])[1] + s > OVERFLOW_LOG2), over)
        ends = [frexp(c) for c in rows.pop()]
        self.mantissa = [m for m, _ in ends]
        self.exponent = [de + s for (_, de), s in zip(ends, scales)]
        self.steps += count
        del rows[over:]
        if any(scales):
            rows = [tuple(map(ldexp, row, scales)) for row in rows]
        return rows, (over if over < count else None)

    def prune(self):
        """Drop the entries that have left the space."""
        live = list(map(le, repeat(self.steps), self.last_steps))
        if not all(live):
            kept = (list(compress(s, live)) for s in (self.index, self.last_steps, self.mantissa, self.exponent, self._base))
            self.index, self.last_steps, self.mantissa, self.exponent, self._base = kept


class _Ball:
    """One target ball, prepared to test orbit rows: the scan's and the candidate route's."""

    def __init__(self, center: SparseVec, radius, space):
        _same_space(center.space, space)
        self.center = center
        self.radius = radius
        self.space = space
        self.index = list(center.entries)
        try:
            self.values = [float(val) for val in center.entries.values()]
        except OverflowError:  # no float value: every row goes through ball_contains
            self.values = None
        # ‖c‖ where spaces.norm takes it from the float terms, else None
        self.size = _float_size(_float_terms(self.values, space), space) if self.values else None
        self.stop = _stop_total(radius, space)

    @property
    def misses_off_support(self):
        """Whether no orbit point whose support misses the centre's lies in the ball.

        True when r <= ‖c‖, with ‖c‖ from the float terms and a stop total
        (`spaces._stop_total`, so below its cap on lp).  Such a point's terms
        are its own followed by the centre's, and the maximum, or the sum left
        to right, is monotone in each non-negative term, so its size is at
        least ‖c‖.  A sum that overflows goes to the rescaled norm, which is
        then at least about 2**(1023/p), far past ‖c‖.
        """
        size = self.size
        return size is not None and self.radius <= size and _stop_total(size, self.space) is not None

    def norm(self, row, at, n):
        """‖v - c‖ by the rule of `spaces.norm`, inf as soon as the terms read so
        far put v outside the ball (`spaces._stop_total`), or None where
        `spaces.norm` rescales or the centre has no float value.

        `row` holds the orbit point's entries in x order at step n, and `at`
        maps an original index to its place in the row.  The terms are formed
        lazily, in the order of `spaces.norm`: the row's nonzero entries, with
        the centre subtracted from those it meets, then the centre entries no
        nonzero entry meets, in centre order."""
        if self.values is None:
            return None
        met, rest = [], []
        for k, c in zip(self.index, self.values):
            j = at.get(k + n)
            if j is None or row[j] == 0:
                rest.append(c)  # the term of -c is the term of c
            else:
                met.append((j, row[j] - c))
        values = row
        if met:
            met.sort()
            parts, start = [], 0
            for j, diff in met:
                parts += (islice(row, start, j), (diff,))
                start = j + 1
            values = chain(*parts, islice(row, start, None))
        if rest:
            values = chain(values, rest)
        # zeros (entries that left within the block) add nothing, and spaces.norm never sees them
        return _float_size(_float_terms(filter(None, values), self.space), self.space, self.stop)

    def contains(self, row, index, at, n):
        """Whether the orbit point at step n lies in the ball: by `norm`, or by
        `ball_contains` where that has no value.  `index` holds the original
        indices of the row's entries."""
        size = self.norm(row, at, n)
        if size is None:
            point = SparseVec({idx - n: v for idx, v in zip(index, row) if v != 0}, self.space)
            return ball_contains(self.center, self.radius, point)
        return size < self.radius


def _scan(orbit: _Orbit, balls, horizon: int):
    """Hit times n <= horizon of the orbit in each `_Ball`, and the truncation step.

    The orbit moves a block of rows at a time, never past the horizon it was
    built for; a row with an exponent past `OVERFLOW_LOG2` (read by each
    block) ends the scan (its step is returned, None if no row overflows).
    From the step at which a unilateral orbit has no entry left every row
    is the zero vector, decided by one `ball_contains`.
    """
    space = orbit.space
    widest = max((len(b.index) for b in balls), default=0)
    found = [[] for _ in balls]
    truncated_at = None
    dead_from = None
    start = 0
    while start <= horizon:
        orbit.prune()
        index = orbit.index
        if not index:
            dead_from = start
            break
        count = min(horizon + 1 - start, orbit.stride, max(1, _BLOCK // (len(index) + widest)),
                    max(orbit.last_steps) + 1 - start)
        rows, over = orbit.step(count)
        if over is not None:
            truncated_at = start + over
        at = {idx: j for j, idx in enumerate(index)}
        for n, row in enumerate(rows, start):
            for times, ball in zip(found, balls):
                if ball.contains(row, index, at, n):
                    times.append(n)
        if truncated_at is not None:
            break
        start += count
    if dead_from is not None:
        zero = SparseVec.zero(space)
        for times, ball in zip(found, balls):
            if ball_contains(ball.center, ball.radius, zero):
                times.extend(range(dead_from, horizon + 1))
    return found, truncated_at


class _Pow2Orbit:
    """The orbit under a constant weight c = ±2**k, read at any step without stepping.

    Entry j of B^n x is (sign c)**n * ldexp(m_j, e_j + n*k), with (m_j, e_j)
    from `_split`: one correctly rounded `ldexp` of the exact value, which is
    what the scan's rows hold.  Entry j is live while n is at most its last
    step (`SpaceSpec.last_step`).  `truncated_at` is the first step
    n <= horizon at which a live entry has e_j + n*k > `OVERFLOW_LOG2` (None
    if there is none), and `end` the first step left undecided:
    `truncated_at`, else horizon + 1.
    """

    def __init__(self, x: SparseVec, k: int, negative: bool, horizon: int):
        self.space = x.space
        self.k, self.negative = k, negative
        self.index, self.last_steps, self.mantissa, self.exponent = _split_entries(x)
        cap = OVERFLOW_LOG2
        # each entry's first step past the cap, None if it never passes it
        over = [0 if e > cap else (cap - e) // k + 1 if k > 0 else None for e in self.exponent]
        first = min((n for n, last in zip(over, self.last_steps) if n is not None and n <= last), default=horizon + 1)
        self.truncated_at = first if first <= horizon else None
        self.end = min(first, horizon + 1)

    def hit_times(self, ball: _Ball):
        """The ball's hit times by a direct route, or None for a ball that needs the scan."""
        if self.space.kind == "c0" and not ball.index:
            return self._zero_c0_times(ball.radius)
        if ball.misses_off_support:
            return self._candidate_times(ball)
        return None

    def _zero_c0_times(self, radius):
        """Hit times of the c0 ball of the given radius around 0.

        Rounding is monotone, so the largest rounded live entry is the rounded
        largest: ‖B^n x‖ = ldexp(M, E + n*k) for the largest live M * 2**E, and
        0.0, inside every ball, with no live entry.  The largest live entry
        changes only where an entry leaves a unilateral space, and between
        those steps the norm is monotone in n, so each stretch of steps hits
        on a prefix (k >= 0) or a suffix (k < 0) found by bisection.
        """
        k = self.k
        times = []
        for lo, hi, top in self._live_maxima():
            span = range(lo, hi + 1)
            if top is None:
                times.extend(span)
                continue
            e, m = top

            def inside(n):
                return ldexp(m, e + n * k) < radius

            if k >= 0:
                times.extend(span[: bisect_left(span, True, key=lambda n: not inside(n))])
            else:
                times.extend(span[bisect_left(span, True, key=inside) :])
        return times

    def _live_maxima(self):
        """(lo, hi, (E, M)) over the steps 0 .. end - 1: the largest live entry
        M * 2**E on steps lo .. hi, None where no entry is live."""
        last = self.end - 1
        scales = [(e, abs(m)) for m, e in zip(self.mantissa, self.exponent)]
        order = sorted(range(len(scales)), key=self.last_steps.__getitem__)
        tops = list(accumulate((scales[j] for j in reversed(order)), max))[::-1]  # over the entries that live as long
        lo = 0
        for j, top in zip(order, tops):
            if lo <= min(self.last_steps[j], last):
                yield lo, min(self.last_steps[j], last), top
            lo = self.last_steps[j] + 1
        if lo <= last:
            yield lo, last, None

    def _candidate_times(self, ball: _Ball):
        """Hit times of a ball that misses every point off its centre's support
        (`_Ball.misses_off_support`): only the steps i - j, i in supp x and j in
        supp c, can hit, and each row is built and decided as `_scan` decides it."""
        steps = sorted({i - j for i in self.index for j in ball.index if 0 <= i - j < self.end})
        times = []
        for n in steps:
            index, row = self.row(n)
            at = dict(zip(index, range(len(index))))
            if ball.contains(row, index, at, n):
                times.append(n)
        return times

    def row(self, n):
        """(original indices, values) of the entries live at step n, in x order."""
        live = list(map(le, repeat(n), self.last_steps))
        index, mantissa, exponent = (list(compress(s, live)) for s in (self.index, self.mantissa, self.exponent))
        if self.negative and n % 2:
            mantissa = map(neg, mantissa)
        return index, tuple(map(ldexp, mantissa, map(add, exponent, repeat(n * self.k))))


def _hit_sets(T: ShiftOperator, x: SparseVec, targets, horizon: int):
    """Hit times n <= horizon of x's orbit in each (center, radius) ball, and
    the truncation step: under a constant power-of-two weight each ball by a
    direct route where one applies, every other ball by one scan."""
    _same_space(x.space, T.space)
    balls = [_Ball(center, radius, x.space) for center, radius in targets]
    k = _constant_pow2_rate(T.weights)
    if k is None:
        return _scan(_Orbit(T, x, horizon), balls, horizon)
    orbit = _Pow2Orbit(x, k, T.weights.value < 0, horizon)
    found = [orbit.hit_times(ball) for ball in balls]
    rest = [ball for ball, times in zip(balls, found) if times is None]
    if rest:
        scanned = iter(_scan(_Orbit(T, x, horizon), rest, horizon)[0])
        found = [next(scanned) if times is None else times for times in found]
    return found, orbit.truncated_at


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


def hitting_times(T: ShiftOperator, x: SparseVec, targets, horizon: int) -> list:
    """Times n <= horizon with B^n x inside each target ball, plus densities.

    `targets` is a list of (center, radius).  Each ball takes its route
    (module docstring): read off the orbit's closed form under a constant
    power-of-two weight where one applies, else the scan in blocks of
    steps up to the horizon.  An entry past the fixed overflow cap
    `OVERFLOW_LOG2` (log2 scale, about 1e300) truncates the scan and the
    truncation point is recorded on every report.  The densities are
    estimated over the largest of the fixed windows `DENSITY_WINDOWS`
    that fits in the horizon, and are None below the smallest.
    """
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if not targets:
        raise NoDataError("no target ball to hit")
    for _, r in targets:
        if r <= 0:
            raise UsageError("target radii must be positive")
    found, truncated_at = _hit_sets(T, x, targets, horizon)
    reports = []
    window = max((s for s in DENSITY_WINDOWS if s <= horizon), default=None)
    for t, (center, radius) in enumerate(targets):
        tset = ExplicitSet(tuple(found[t]))
        dens = estimate_densities(tset, horizon, window) if window else None
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
    report makes the levels nested.  theta must lie in [0, 1): below 0 a
    target never hit would be frequent, from 1 on no target could be.
    """
    if not 0 <= theta < 1:
        raise UsageError(f"theta must lie in [0, 1), got {theta}")
    if not reports:
        raise NoDataError("no hitting reports to classify")
    labels = []
    for r in reports:
        d = r.densities
        if d is None:
            smallest = DENSITY_WINDOWS[0]
            raise UsageError(f"classify needs a horizon of at least {smallest}, the smallest density window; got {r.horizon}")
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
    _same_space(uc.space, T.space)
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if ur <= 0 or vr <= 0:
        raise UsageError("ball radii must be positive")
    if witness_stride < 1:
        raise UsageError("the witness stride must be >= 1")
    if probe_grid < 0:
        raise UsageError("the probe grid must be >= 0")
    found = set()

    probes = [uc]
    for i in range(probe_grid):
        bump = SparseVec.basis(uc.space, i, Fraction(1, 2) * Fraction(int(ur * 2**20), 2**20) / (i + 2))
        probes.append(uc + bump)
    for probe in probes:
        if not ball_contains(uc, ur, probe):
            continue
        (times,), _ = _hit_sets(T, probe, [(vc, vr)], horizon)
        found.update(times)

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

    Each window [m, m + s - 1] is listed once, with `members_in`, up to
    m + s - 1 + k_max: its members are the listing's head up to one
    bisect, and the hits of shift k are the members x with x + k in the
    listing, counted by lookups in a `set` of it.  `A.contains` is never
    called.
    """
    if k_max < 1:
        raise UsageError("k_max must be >= 1")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise UsageError("epsilon must lie strictly between 0 and 1")
    windows = tuple((int(m), int(s)) for m, s in windows)
    if not windows:
        raise UsageError("at least one window is required")
    delta = Fraction(0)
    listings = []  # (s, the window's members, the members up to k_max past it)
    for m, s in windows:
        if s < 1:
            raise UsageError("window lengths must be >= 1")
        listed = A.members_in(m, m + s - 1 + k_max)
        members = listed[: bisect_right(listed, m + s - 1)]
        listings.append((s, members, set(listed)))
        delta = max(delta, Fraction(len(members), s))
    if delta == 0:
        raise NoDataError("the set has no mass on the supplied windows")

    eta = {
        k: max(Fraction(sum(map(found.__contains__, map(add, members, repeat(k)))), s) for s, members, found in listings)
        for k in range(1, k_max + 1)
    }

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
    "harmonic" (alpha_n = 1/n for 1 <= n < cutoff) with ratio floor 1/2;
    each meets its floor, alpha_n >= floor * alpha_{n-1}, by construction.
    cutoff None means no cutoff; a cutoff below 2 would leave every alpha_n
    at 0 and is rejected.
    """

    kind: str
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "harmonic"):
            raise UsageError(f"unknown profile kind {self.kind!r}")
        if self.cutoff is not None and self.cutoff < 2:
            raise UsageError(f"the cutoff must be >= 2, got {self.cutoff}: below 2 every alpha_n is 0")

    def value(self, n: int) -> float:
        if n < 1 or (self.cutoff is not None and n >= self.cutoff):
            return 0.0
        return 1.0 if self.kind == "constant" else 1.0 / n

    def validate(self, horizon: int):
        """Require mass in (h, horizon], h = horizon // 2: both kinds are positive on [1, cutoff),
        so there is mass exactly when there is no cutoff or it exceeds h + 1."""
        h = horizon // 2
        if self.cutoff is not None and self.cutoff <= h + 1:
            raise UsageError(
                f"cutoff {self.cutoff} leaves no profile mass in ({h}, {horizon}]:"
                f" at horizon {horizon} the cutoff must exceed horizon // 2 + 1 = {h + 1}"
            )


@dataclass(frozen=True)
class ReturnSumReport:
    betas: dict  # n -> float, at the full horizon
    growth_curve: tuple  # (cut, max beta) per cutoff
    growing: bool
    horizon: int


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)  # integer products never round


def _pairs_cost_less(alpha: AlphaProfile, span: int, reach: int, count: int, pairs: int) -> bool:
    """Whether `_pair_sums` is estimated to take less time than `_kronecker_sums`.

    One comparison in the product's unit, a digit of its operands: the pairs
    plus 30 a member against a quarter of the (span + reach) * w operand
    digits, with the slot width w set by the smallest nonzero alpha, alpha(reach).
    """
    w = len(str(count * alpha.value(reach).as_integer_ratio()[1])) if reach else 1
    return 4 * (pairs + 30 * count) < (span + reach) * w


def _fixed_point(alpha: AlphaProfile, ds) -> tuple:
    """(den, ints) with ints yielding alpha(d) * den exactly for each d in the re-iterable ds:
    every float is a dyadic rational, so den (`spaces._common_denominator`) is 2**F, the
    largest of their denominators (1 when ds is empty)."""
    return _common_denominator(lambda: map(alpha.value, ds))


def _differences(members, far) -> list:
    """The distinct m - n over members n < m within reach of n (members[i + 1 : far[i]])."""
    ds = set()
    for i, (n, stop) in enumerate(zip(members, far)):
        ds.update(map(sub, members[i + 1 : stop], repeat(n)))
    return list(ds)


def _pair_sums(members, ends, table, far) -> list:
    """Per cut, the exact sum over members n < m <= cut within reach of n (before far[i]) of
    table[m - n], for each member up to the cut (table: a dict of ints by the differences that occur)."""
    rows = [[] for _ in ends]
    for i, (n, reach_end) in enumerate(zip(members, far)):
        total, at = 0, i + 1
        for row, end in zip(rows, ends):
            stop = min(end, reach_end)
            total += sum(map(table.__getitem__, map(sub, members[at:stop], repeat(n))))
            at = max(at, stop)
            if i < end:
                row.append(total)
    return rows


def _kronecker_sums(members, ends, table, peak) -> list:
    """The sums of `_pair_sums`, over the ints table[d] of every difference d from 0 on
    (an iterable read once, each int at most `peak`), by one product per cut.

    Slot k of a number is its decimal digits k*w .. k*w + w - 1, with w wide
    enough for len(members) * peak, so no slot of a product carries into the
    next.  P has 1 in slot m - members[0] for each member m up to the cut and
    Q has table[L - k] in slot k, with L the largest difference within the
    cut, so slot L + n - members[0] of P*Q is the sum for n.  Each operand is
    built as one digit string, and the products are taken by `decimal`,
    which multiplies long operands by a number-theoretic transform, so no
    int is made per pair.
    """
    first, last = members[0], members[-1]
    w = len(str(len(members) * peak))
    indicator = bytearray(b"0" * ((last - first + 1) * w))
    for m in members:
        indicator[(last - m + 1) * w - 1] = 49  # ord("1"), at the low digit of slot m - first
    indicator = indicator.decode("ascii")
    weights = "".join(map(f"{{:0{w}d}}".format, table))  # table[0] leads, so Q is read highest slot first
    rows = []
    for k, end in enumerate(ends):
        if end == 0:
            rows.append([])
            continue
        top = members[end - 1]
        L = min(len(weights) // w - 1, top - first)
        P = Decimal(indicator[(last - top) * w :])  # slots 0 .. top - first
        Q = Decimal(weights[: (L + 1) * w])
        if k == len(ends) - 1:  # the last cut by position, since ends may repeat
            del indicator, weights  # freed before its product, the largest
        digits = str(_EXACT.multiply(P, Q)).zfill((top - first + L + 1) * w)
        # slot L + n - first, counted from the top slot top - first + L, starts at digit (top - n) * w
        rows.append([int(digits[(top - n) * w : (top - n + 1) * w]) for n in members[:end]])
    return rows


def return_weight_sums(A: IndexSet, alpha: AlphaProfile, horizon: int) -> ReturnSumReport:
    """beta_n = sum over m in A of alpha(m - n), truncated to the horizon.

    Each beta_n is the exact sum of the tabulated alpha floats, rounded
    once: every float is a dyadic rational, so over the largest
    denominator 2**F among them each alpha(d) is an exact int, their sum
    S_n is exact, and beta_n = S_n / 2**F is one correctly rounded int
    division.  The exact sums come by one of two routes, which give the
    same ints: one product of two long numbers per cut (`_kronecker_sums`),
    or the sum over the pairs within alpha's reach (`_pair_sums`), taken when
    the pair count plus 30 a member is below a quarter of the product's
    operand digits (`_pairs_cost_less`).

    The growth curve takes max beta at nested sub-horizons; strictly
    increasing maxima are unboundedness evidence.
    """
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    alpha.validate(horizon)
    members = A.members_in(0, horizon)
    if not members:
        raise NoDataError("the set is empty below the horizon")
    cuts = sorted({max(1, horizon // 100), max(1, horizon // 10), horizon})
    ends = [bisect_right(members, c) for c in cuts]  # members <= each cut
    span, count = members[-1] - members[0], len(members)
    reach = span if alpha.cutoff is None else min(span, alpha.cutoff - 1)  # alpha(d) = 0 past it
    far = list(map(bisect_right, repeat(members), map(add, members, repeat(reach))))  # past each member's reach
    # the pairs of members within reach: for each member, the later ones within reach
    if _pairs_cost_less(alpha, span, reach, count, sum(far) - count * (count + 1) // 2):
        ds = _differences(members, far)  # alpha only at the differences that occur
        den, ints = _fixed_point(alpha, ds)
        rows = _pair_sums(members, ends, dict(zip(ds, ints)), far)
    else:
        del far  # freed before the product's operands are built
        den, ints = _fixed_point(alpha, range(reach + 1))
        rows = _kronecker_sums(members, ends, ints, den)  # alpha <= 1, so no int exceeds den
    betas_full = {n: s / den for n, s in zip(members, rows[-1])}
    seq = [max(row, default=0) / den for row in rows]  # rounding is monotone: the max rounds to the max
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

    def both_within(self) -> bool:
        return self.left <= 1.0 and self.right <= 1.0


def bilateral_tail_sums(w, p: float, A: IndexSet, n: int, horizon: int) -> TailSums:
    """Reciprocal-product sums over A on both sides of a hitting time n.

    left: members m < n weighted by 1 / |w_{m-n+1} ... w_0|**p;
    right: members m > n weighted by 1 / |w_1 ... w_{m-n}|**p.
    Requires bilateral weights (the left products reach indices <= 0).
    """
    if not 1 <= p < inf:
        raise UsageError("p must be a finite number >= 1")
    if not w.bilateral:
        raise UsageError("left sums need bilateral weights")
    if not A.contains(n):
        raise UsageError(f"n={n} is not a member of the set")
    if n > horizon:
        raise UsageError(f"n={n} lies past the horizon {horizon}")
    sides = []
    # the ranges [a, b] of the left members' products, then the right's, each side summed left to right:
    # not by sum(), which compensates from Python 3.12 on and would move the last bit between interpreters
    for ranges in (
        [(m - n + 1, 0) for m in (A.members_in(0, n - 1) if n > 0 else ())],
        [(1, m - n) for m in A.members_in(n + 1, horizon)],
    ):
        total = 0.0
        for a, b in ranges:
            total += _pow2_clamped(-p * float(w.log2_product_range(a, b)))
        sides.append((total, len(ranges)))
    (left, left_terms), (right, right_terms) = sides
    return TailSums(left, right, left_terms, right_terms, n)
