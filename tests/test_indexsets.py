import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperorbit import (
    BitmapSet,
    ExplicitSet,
    FactorialBlockSet,
    GeometricSet,
    PeriodicSet,
    SegmentPatternSet,
    SetFamily,
    SquareSet,
    check_gap_family,
    difference_set,
    estimate_densities,
    indexsets,
    is_syndetic,
    make_prescribed_density_set,
)
from hyperorbit.counterexample import DigitNeighborhoodSet, HugeInt
from hyperorbit.errors import NoDataError, UsageError, WindowGridError
from hyperorbit.indexsets import IndexSet, _anchor_positions
from hyperorbit.io_text import parse_set_spec

from conftest import (
    brute_count,
    brute_difference,
    brute_estimate_densities,
    brute_gap_ok,
    brute_lower_density,
    brute_syndetic,
    brute_window_extremes,
)


# ---------------------------------------------------------------------------
# window counting against the scanning oracle


def test_count_in_evens():
    assert PeriodicSet(2, (0,)).count_in(0, 9) == 5


def test_count_in_empty_point():
    assert PeriodicSet(2, (0,)).count_in(3, 3) == 0


INTERVALS = "intervals:2-6,10-10,50-70"
ZOO = [
    PeriodicSet(2, (0,)),
    PeriodicSet(7, (1, 3, 4)),
    PeriodicSet(1, (0,)),
    PeriodicSet(3, ()),
    ExplicitSet((0, 1, 5, 9, 40, 41, 42, 1000)),
    parse_set_spec(INTERVALS),
    SquareSet(),
    GeometricSet(2),
    GeometricSet(3, 1),
    FactorialBlockSet(),
]
# an intervals set describes itself as full segments; its id stays the spec it came from
ZOO_IDS = [INTERVALS if A.describe().startswith("segments:") else A.describe() for A in ZOO]


@pytest.mark.parametrize("A", ZOO, ids=ZOO_IDS)
def test_counts_match_scanning_oracle(A):
    rng = random.Random(7)
    for _ in range(25):
        a = rng.randrange(0, 500)
        b = a + rng.randrange(0, 300)
        assert A.count_in(a, b) == brute_count(A, a, b)
        assert A.members_in(a, b) == [n for n in range(a, b + 1) if A.contains(n)]


# ---------------------------------------------------------------------------
# membership against each kind's definition


def _definition(A):
    """Membership in A by the kind's own definition, apart from its members_in and count_upto."""
    if isinstance(A, PeriodicSet):
        return lambda n: n >= 0 and n % A.period in A.residues
    if isinstance(A, SegmentPatternSet):
        return lambda n: any(s <= n < e and (n - s) % d < k for s, e, k, d in A.segments)
    if isinstance(A, ExplicitSet):
        return lambda n: any(m == n for m in A.members)
    if isinstance(A, BitmapSet):
        return lambda n: 0 <= n < len(A.flags) and A.flags[n] == 1
    if isinstance(A, SquareSet):
        return lambda n: n >= 0 and math.isqrt(n) ** 2 == n
    if isinstance(A, FactorialBlockSet):
        return lambda n: any(math.factorial(j) <= n <= math.factorial(j) + j for j in range(1, 9))
    if isinstance(A, GeometricSet):  # n = base**j, j >= min_exponent, and base**j > n past j = bit_length(n)
        return lambda n: any(A.base**j == n for j in range(A.min_exponent, n.bit_length() + 1))
    raise AssertionError(f"no definition for {A!r}")


PAST_LAST = 5100  # past 7! + 7 and past the last member of every finite set below
MEMBERSHIP_SETS = ZOO + [
    parse_set_spec("segments:0:10:1:1;10:40:1:3;100:300:2:5"),
    make_prescribed_density_set(0, Fraction(1, 5), Fraction(1, 2), 1, eras=3, window=20),
    GeometricSet(10),
    BitmapSet(bytes(n * n % 7 < 3 for n in range(3000))),
]
bitmaps = st.binary(max_size=80).map(lambda b: BitmapSet(bytes(x & 1 for x in b)))


@given(A=st.one_of(st.sampled_from(MEMBERSHIP_SETS), bitmaps), n=st.integers(-3, PAST_LAST))
@settings(max_examples=600, deadline=None)
def test_membership_matches_each_kinds_definition(A, n):
    assert A.contains(n) == _definition(A)(n)


# an explicit set of tower integers, one at the lowest offset 10^30 - 10^18, which has no n - 1
TOWER_SET = ExplicitSet((5, HugeInt(30, -(10**18)), HugeInt(30, 0), HugeInt(HugeInt(30, 0), 7)))
TOWER_PROBES = [HugeInt(30, 1 - 10**18), HugeInt(30, 1), HugeInt(31, -(10**18)), HugeInt(HugeInt(30, 0), 6)]


@given(n=st.one_of(st.integers(-3, 12), st.sampled_from([*TOWER_SET.members, *TOWER_PROBES])))
@settings(max_examples=60, deadline=None)
def test_tower_membership_matches_the_definition(n):
    assert TOWER_SET.contains(n) == _definition(TOWER_SET)(n)


def _kinds(cls=IndexSet):
    for sub in cls.__subclasses__():
        yield sub
        yield from _kinds(sub)


def test_membership_has_its_own_rule_only_where_the_listing_costs_more():
    # every other kind answers contains(n) from members_in(n, n)
    own = {c.__name__ for c in (IndexSet, *_kinds()) if c.__module__.startswith("hyperorbit") and "contains" in vars(c)}
    assert own == {"IndexSet", "DigitNeighborhoodSet"}


@given(
    period=st.integers(1, 40),
    res=st.sets(st.integers(0, 39), max_size=6),
    a=st.integers(0, 3000),
    width=st.integers(0, 400),
)
@settings(max_examples=60, deadline=None)
def test_periodic_counts_property(period, res, a, width):
    A = PeriodicSet(period, tuple(r for r in res if r < period))
    assert A.count_in(a, a + width) == brute_count(A, a, a + width)


@given(
    A=st.one_of(
        st.builds(PeriodicSet, st.integers(1, 30), st.sets(st.integers(0, 45), max_size=8).map(tuple)),
        st.just(SquareSet()),
    ),
    lo=st.integers(-40, 2500),
    width=st.integers(-6, 300),
)
@example(A=PeriodicSet(5, ()), lo=0, width=40)  # no residues
@example(A=PeriodicSet(10, tuple(range(9))), lo=1009, width=0)  # a one-point window on a non-member
@example(A=PeriodicSet(10, tuple(range(9))), lo=1008, width=0)  # and on a member
@example(A=SquareSet(), lo=1024, width=0)
@example(A=SquareSet(), lo=1025, width=0)
@example(A=PeriodicSet(4, (1, 3)), lo=9, width=-3)  # lo > hi
@example(A=SquareSet(), lo=50, width=-1)
@example(A=PeriodicSet(3, (0,)), lo=-7, width=4)  # negative lo, and hi < 0
@example(A=SquareSet(), lo=-7, width=4)
@example(A=SquareSet(), lo=-7, width=20)
@settings(max_examples=300, deadline=None)
def test_periodic_and_square_listings_match_the_definition(A, lo, width):
    member = _definition(A)
    hi = lo + width
    listing = A.members_in(lo, hi)
    assert listing == [n for n in range(lo, hi + 1) if member(n)]
    assert A.count_in(lo, hi) == len(listing)
    for n in (lo - 1, hi):
        assert A.count_upto(n) == sum(1 for m in range(0, n + 1) if member(m))


PREFIX_SETS = ZOO + [
    DigitNeighborhoodSet(),
    make_prescribed_density_set(0, Fraction(1, 5), Fraction(1, 2), 1, eras=3, window=20),
    parse_set_spec("intervals:0-0,3-9,10-12,40-40,300-420"),
]


@given(
    A=st.sampled_from(PREFIX_SETS),
    n=st.integers(-3, 1500),
    start=st.integers(0, 1500),
    s=st.integers(1, 60),
    q=st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_prefix_counts_match_scanning_oracle(A, n, start, s, q):
    assert A.count_upto(n) == (brute_count(A, 0, n) if n >= 0 else 0)
    # the estimator's aligned windows ]i*s, (i+1)*s] are differences of prefix counts
    upto = [A.count_upto(start + i * s) for i in range(q + 1)]
    for i in range(q):
        lo = start + i * s
        assert upto[i + 1] - upto[i] == brute_count(A, lo + 1, lo + s)


def test_segment_specs_validated():
    # the CLI exit-code test covers the zero denominator, num > den and overlap; these are boundary cases
    for spec in ("segments:0:10:1:1;9:12:1:1", "segments:5:5:1:1", "segments:-1:5:1:1",
                 "segments:20:30:1:1;0:10:1:1"):
        with pytest.raises(UsageError):
            parse_set_spec(spec)
    A = parse_set_spec("segments:0:10:1:1;10:20:1:2")  # adjacent segments are allowed
    assert A.count_in(0, 19) == len(A.members_in(0, 19)) == 15


# ---------------------------------------------------------------------------
# density estimation


def test_evens_densities_near_half():
    r = estimate_densities(PeriodicSet(2, (0,)), 100000, 1000)
    for x in r.as_tuple():
        assert abs(x - Fraction(1, 2)) <= Fraction(1, 1000)


def test_single_residue_periodic_within_window_tolerance():
    # one residue: every window of length s carries count within 1 of s/p
    for p in (2, 3, 7, 11):
        A = PeriodicSet(p, (0,))
        r = estimate_densities(A, 50000, 500)
        for x in r.as_tuple():
            assert abs(x - Fraction(1, p)) <= Fraction(1, 500)


def test_multi_residue_periodic_within_m_over_s():
    A = PeriodicSet(6, (0, 1, 2))
    r = estimate_densities(A, 30000, 300)
    for x in r.as_tuple():
        assert abs(x - Fraction(1, 2)) <= Fraction(3, 300)


def test_factorial_blocks_profile():
    # full window at 9!, negligible prefix mass
    r = estimate_densities(FactorialBlockSet(), math.factorial(10), 9)
    assert r.upper_banach == 1
    assert r.banach_argmax in (math.factorial(9) - 1, math.factorial(9))
    assert r.upper_density < Fraction(1, 100)
    assert r.lower_banach == 0


def test_powers_of_two_upper_density():
    # |{2^k <= 1e6}| = 20: the oracle is the explicit count
    count = len(GeometricSet(2).members_in(0, 10**6))
    assert count == 20
    r = estimate_densities(GeometricSet(2), 10**6, 1000)
    assert r.upper_density <= Fraction(20, 10**6)


def test_window_grid_validation():
    with pytest.raises(WindowGridError):
        estimate_densities(PeriodicSet(2, (0,)), 50, 100)


def test_banach_bracket_matches_full_scan():
    # the scanned max/min window counts must bracket the exhaustive scan
    A = ExplicitSet(tuple(sorted(random.Random(3).sample(range(400), 120))))
    s = 40
    r = estimate_densities(A, 400, s)
    lo, hi = brute_window_extremes(A, 400, s)
    assert r.upper_banach <= Fraction(hi, s)
    assert r.lower_banach >= Fraction(lo, s)
    # aligned positions are always scanned, so the bracket is attained there
    assert r.upper_banach >= Fraction(lo, s)


@given(
    period=st.integers(1, 30),
    res=st.sets(st.integers(0, 29), min_size=0, max_size=8),
    horizon=st.integers(200, 4000),
)
@settings(max_examples=50, deadline=None)
def test_density_chain_property(period, res, horizon):
    A = PeriodicSet(period, tuple(r for r in res if r < period))
    r = estimate_densities(A, horizon, max(20, horizon // 20))
    lb, ld, ud, ub = r.as_tuple()
    assert 0 <= lb <= ld <= ud <= ub <= 1


@given(
    members=st.lists(st.integers(0, 3000), max_size=300),
    horizon=st.integers(100, 3000),
    s=st.sampled_from([1, 7, 10, 50]),
    tail_factor=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_lower_density_and_checkpoint_match_fraction_oracle(members, horizon, s, tail_factor):
    A = ExplicitSet(tuple(members))
    r = estimate_densities(A, horizon, s, tail_factor)
    assert (r.lower_density, r.lower_density_at) == brute_lower_density(A, horizon, s, tail_factor)


@st.composite
def _piece_cases(draw):
    """A set with periodic pieces, a window (1-12), a horizon and a tail factor.

    Segment sets have up to 5 segments of period 1-8, and their horizons
    end inside a segment, inside a gap (or before the first segment), or
    past the last segment.
    """
    s = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["segments", "periodic", "factorial"]))
    if kind == "segments":
        segments, at = [], draw(st.integers(0, 40))
        for _ in range(draw(st.integers(0, 5))):
            den = draw(st.integers(1, 8))
            end = at + draw(st.integers(1, 90))
            segments.append((at, end, draw(st.integers(0, den)), den))
            at = end + draw(st.sampled_from([0, 1, draw(st.integers(2, 60))]))
        A = SegmentPatternSet(tuple(segments))
        ends = [0] + [e for _, e, _, _ in segments]
        where = draw(st.sampled_from(["segment", "gap", "past"]) if segments else st.just("past"))
        if where == "segment":
            start, end, _, _ = draw(st.sampled_from(segments))
            horizon = draw(st.integers(start, end - 1))
        elif where == "gap":
            i = draw(st.integers(0, len(segments) - 1))
            horizon = draw(st.integers(ends[i], segments[i][0]))
        else:
            horizon = draw(st.integers(ends[-1], ends[-1] + 200))
    elif kind == "periodic":
        period = draw(st.integers(1, 40))
        A = PeriodicSet(period, tuple(draw(st.sets(st.integers(0, period - 1), max_size=period))))
        horizon = draw(st.integers(1, 2000))
    else:
        A = FactorialBlockSet()
        j = draw(st.integers(1, 7))
        horizon = draw(st.one_of(st.integers(1, 6000), st.integers(math.factorial(j) - j, math.factorial(j) + 2 * j)))
    assume(horizon >= s)
    return A, horizon, s, draw(st.integers(1, 128))


@given(_piece_cases())
@settings(max_examples=400, deadline=None)
def test_piece_path_matches_the_scan_oracle(case):
    # about one draw in twenty has more pieces than windows and takes the scan itself
    A, horizon, s, tail_factor = case
    assert A.pieces(horizon // s * s) is not None
    got = estimate_densities(A, horizon, s, tail_factor)
    assert dataclasses.asdict(got) == dataclasses.asdict(brute_estimate_densities(A, horizon, s, tail_factor))


@given(_piece_cases())
@settings(max_examples=200, deadline=None)
def test_pieces_cover_the_range_and_repeat_by_their_period(case):
    A, n, _, _ = case
    pieces = A.pieces(n)
    assert pieces[0][0] == 0 and pieces[-1][1] > n
    for (_, end, _), (start, _, _) in zip(pieces, pieces[1:]):
        assert end == start
    for start, end, period in pieces:
        assert start < end and period >= 1
        for m in range(start, min(end, n + 1) - period):
            assert A.contains(m) == A.contains(m + period)


@given(
    s=st.one_of(st.integers(20, 300), st.integers(1990, 2010), st.integers(2001, 12000)),
    horizon=st.one_of(st.integers(1, 20000), st.integers(10**5, 3 * 10**5)),
    tail_factor=st.integers(1, 64),
)
@example(s=100, horizon=10**5, tail_factor=8)
@example(s=2000, horizon=3 * 10**5, tail_factor=8)
@example(s=2001, horizon=3 * 10**5, tail_factor=8)
@settings(max_examples=40, deadline=None)
def test_s_scan_matches_the_scan_oracle(s, horizon, tail_factor):
    # S reads windows up to the step rule off its indicator and counts longer ones in closed form
    assume(horizon >= s)
    A = DigitNeighborhoodSet()
    got = estimate_densities(A, horizon, s, tail_factor)
    assert dataclasses.asdict(got) == dataclasses.asdict(brute_estimate_densities(A, horizon, s, tail_factor))


@given(
    A=st.sampled_from([SquareSet(), GeometricSet(2), DigitNeighborhoodSet(), ExplicitSet((0, 1, 5, 9, 40, 41, 42, 1000)),
                       BitmapSet(bytes([1, 0, 0, 1, 1] * 60)), parse_set_spec("intervals:0-0,3-9,10-12,40-40,300-420")]),
    horizon=st.integers(1, 3000),
    s=st.integers(1, 40),
    tail_factor=st.integers(1, 16),
    chunk=st.integers(1, 9),
)
@settings(max_examples=150, deadline=None)
def test_scan_in_chunks_matches_the_scan_oracle(A, horizon, s, tail_factor, chunk):
    # chunks of a few windows, so that extremes and checkpoints tie across chunk boundaries
    assume(horizon >= s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexsets, "_SCAN_WINDOWS", chunk)
        got = estimate_densities(A, horizon, s, tail_factor)
    assert dataclasses.asdict(got) == dataclasses.asdict(brute_estimate_densities(A, horizon, s, tail_factor))


def test_scan_holds_one_chunk_of_counts_at_a_time():
    # powers of 2 to 1e9: 10^5 windows of 10^4, whose counts in one chunk are two lists of 0.8 MB
    whole = estimate_densities(GeometricSet(2), 10**9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexsets, "_SCAN_WINDOWS", 1000)
        tracemalloc.start()
        try:
            got = estimate_densities(GeometricSet(2), 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert got == whole
    assert peak < 2**18, f"peak {peak} B"


@given(A=st.sampled_from(PREFIX_SETS), s=st.integers(1, 60), start=st.integers(0, 12), more=st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_prefix_counts_from_a_start_index(A, s, start, more):
    q = start + more
    assert A.prefix_counts(s, q, start) == [A.count_upto(i * s) for i in range(start, q + 1)]


def test_kinds_without_pieces_keep_the_scan():
    for A in (ExplicitSet((1, 5)), BitmapSet(b"\x01\x00\x01"), SquareSet(), GeometricSet(2), DigitNeighborhoodSet()):
        assert A.pieces(100) is None


@pytest.mark.parametrize("case", ["prescribed-0,0,1/2,1/2", "factorial-blocks-1e12"])
def test_piece_path_counts_stay_within_pieces_times_period(case, monkeypatch):
    if case.startswith("prescribed"):
        A = make_prescribed_density_set(0, 0, Fraction(1, 2), Fraction(1, 2))
        horizon, window, tail_factor = A.recommended_horizon, A.recommended_window, A.recommended_tail_factor
    else:
        A, horizon, window, tail_factor = FactorialBlockSet(), 10**12, None, 8
    s = 10000 if window is None else window
    pieces = A.pieces(horizon // s * s)
    # per piece: the windows reaching over its start (2 counts), a period of windows (period + 1) and the
    # first and last checkpoint of each class (2 * period); then 0 and q, and 2 per anchor window
    bound = sum(2 + 3 * period + 1 for *_, period in pieces) + 2 + 2 * len(_anchor_positions(A, horizon, s))
    assert bound < 2000
    calls = 0
    count_upto = type(A).count_upto

    def counted(self, n):
        nonlocal calls
        calls += 1
        assert calls <= bound, "the estimator counts more than its pieces need"
        return count_upto(self, n)

    monkeypatch.setattr(type(A), "count_upto", counted)
    estimate_densities(A, horizon, window, tail_factor)
    assert 0 < calls <= bound


# ---------------------------------------------------------------------------
# syndeticity evidence


def test_evens_syndetic():
    ev = is_syndetic(PeriodicSet(2, (0,)), 100000)
    assert ev.syndetic and ev.gap_bound == 2


def test_squares_not_syndetic():
    ev = is_syndetic(SquareSet(), 10**4)
    assert not ev.syndetic
    assert ev.largest_gap == 199  # gap before 100^2 = 10000


def test_syndetic_needs_data():
    with pytest.raises(NoDataError):
        is_syndetic(ExplicitSet(()), 100)


def test_progression_difference_set_syndetic():
    # single-residue progressions have syndetic difference sets at any horizon
    A = PeriodicSet(128, (64,))
    D = difference_set(A, 100000)
    ev = is_syndetic(D, 50000)
    assert ev.syndetic and ev.gap_bound == 128


def test_dying_set_not_syndetic():
    ev = is_syndetic(ExplicitSet(tuple(range(0, 11))), 10000)
    assert not ev.syndetic


@given(st.sets(st.integers(0, 400), min_size=1, max_size=60), st.integers(0, 500))
@settings(max_examples=200, deadline=None)
def test_syndetic_matches_gap_list_oracle(members, horizon):
    A = ExplicitSet(tuple(members))
    if horizon < 1 or not A.members_in(0, horizon):
        with pytest.raises(NoDataError):
            is_syndetic(A, horizon)
        return
    ev = is_syndetic(A, horizon)
    got = (ev.syndetic, ev.gap_bound, ev.largest_gap, ev.largest_gap_at, ev.members)
    assert got == brute_syndetic(A, horizon)
    assert ev.horizon == horizon


def test_syndetic_largest_gap_ties_go_to_the_latest_start():
    ev = is_syndetic(ExplicitSet((3, 6, 9, 12)), 15)
    assert (ev.largest_gap, ev.largest_gap_at) == (3, 12)
    assert (ev.syndetic, ev.gap_bound) == (True, 3)
    ev = is_syndetic(ExplicitSet((0,)), 1)  # horizon 1: no gap starts below mid = 0
    assert (ev.syndetic, ev.largest_gap, ev.largest_gap_at) == (False, 1, 0)


def _bitmap(members, length):
    flags = bytearray(length)
    for m in members:
        flags[m] = 1
    return BitmapSet(bytes(flags))


@st.composite
def _bitmaps(draw):
    """(members, flag length, horizon): dense coin flips, or a few members with long zero runs between them."""
    if draw(st.booleans()):
        flags = draw(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=300))
        members, length = [i for i, f in enumerate(flags) if f], len(flags)
    else:
        length = draw(st.integers(1, 3000))
        members = sorted(draw(st.sets(st.integers(0, length - 1), max_size=12)))
    return members, length, draw(st.integers(1, length + 40))


@given(_bitmaps())
@settings(max_examples=300, deadline=None)
def test_bitmap_syndetic_matches_gap_list_oracle(case):
    members, length, horizon = case
    A = _bitmap(members, length)
    if not any(m <= horizon for m in members):
        with pytest.raises(NoDataError):
            is_syndetic(A, horizon)
        return
    ev = is_syndetic(A, horizon)
    got = (ev.syndetic, ev.gap_bound, ev.largest_gap, ev.largest_gap_at, ev.members)
    assert got == brute_syndetic(ExplicitSet(tuple(members)), horizon)


@pytest.mark.parametrize("horizon", [1, 9, 39, 40, 41, 75])
def test_bitmap_keeps_a_bytearray_and_reads_it_like_bytes(horizon):
    # difference_set hands its pair route's bytearray over without a copy
    members = (0, 3, 17, 18, 40)
    flags = bytearray(41)
    for m in members:
        flags[m] = 1
    A = BitmapSet(flags)
    assert A.flags is flags
    ev = is_syndetic(A, horizon)
    assert ev == is_syndetic(BitmapSet(bytes(flags)), horizon)
    assert (ev.syndetic, ev.gap_bound, ev.largest_gap, ev.largest_gap_at, ev.members) == brute_syndetic(
        ExplicitSet(members), horizon
    )
    assert A.members_in(0, horizon) == [m for m in members if m <= horizon] and A.top == 40


@pytest.mark.parametrize(
    "members, horizon",
    [
        ((0, 3, 40, 44, 50), 50),  # the largest gap, 3 -> 40, starts below mid = 25 and ends above it
        ((1, 30, 31, 60), 60),  # a gap of 29 from 1 and from 31: the tie goes to the later start
        ((3, 6, 9, 12), 15),  # gaps of 3 everywhere, the last one running to the horizon
        ((0, 5000, 9998, 10000), 10000),  # the top on a 10**4 block edge
        ((0, 9999, 10000, 10001, 19999, 20000), 20000),
        ((0,), 1),
        ((1,), 1),
        ((0, 1), 1),
        ((7,), 7),  # one member at the horizon: a single gap from 0
        ((2,), 9),  # the largest gap runs from the last member to the horizon
    ],
)
def test_bitmap_syndetic_edge_cases(members, horizon):
    ev = is_syndetic(_bitmap(members, members[-1] + 1), horizon)
    got = (ev.syndetic, ev.gap_bound, ev.largest_gap, ev.largest_gap_at, ev.members)
    assert got == brute_syndetic(ExplicitSet(members), horizon)


def test_syndetic_rejects_a_horizon_below_one():
    for A in (ExplicitSet((0,)), _bitmap((0,), 1)):
        for horizon in (0, -3):
            with pytest.raises(NoDataError):
                is_syndetic(A, horizon)


# ---------------------------------------------------------------------------
# difference sets


def test_difference_examples():
    assert difference_set(ExplicitSet((0, 3, 6)), 10).all_members() == [0, 3, 6]
    assert difference_set(ExplicitSet((1, 4)), 10).all_members() == [0, 3]


def test_difference_multiples_of_three():
    D = difference_set(PeriodicSet(3, (0,)), 30)
    assert D.all_members() == list(range(0, 31, 3))


def test_difference_contains_zero_when_nonempty():
    assert 0 in difference_set(ExplicitSet((17,)), 100)


@given(st.sets(st.integers(0, 200), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_difference_matches_pair_oracle(members):
    A = ExplicitSet(tuple(members))
    D = difference_set(A, 200)
    assert D.all_members() == brute_difference(sorted(members))


def test_difference_bitset_path_matches_oracle():
    A = PeriodicSet(2, (0,))  # 2001 members below 4000: one arithmetic run
    D = difference_set(A, 4000)
    assert D.all_members() == list(range(0, 4001, 2))


@st.composite
def _difference_inputs(draw, bitset):
    """n distinct members whose top member + 1 is at most n**2 (bitset side) or above it (pair side)."""
    n = draw(st.integers(1, 60 if bitset else 30))
    if bitset:
        return sorted(draw(st.sets(st.integers(0, n * n - 1), min_size=n, max_size=n)))
    rest = draw(st.sets(st.integers(0, 10**7), min_size=n - 1, max_size=n - 1))
    return sorted(rest) + [draw(st.integers(max(n * n, max(rest, default=0) + 1), 2 * 10**7))]


@pytest.mark.parametrize("bitset", [True, False], ids=["bitset", "pairs"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_difference_both_paths_match_pair_oracle(bitset, data):
    members = data.draw(_difference_inputs(bitset))
    assert (members[-1] + 1 <= len(members) ** 2) == bitset
    D = difference_set(ExplicitSet(tuple(members)), members[-1])
    assert D.all_members() == brute_difference(members)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_bitmap_difference_set_counts_like_the_pair_oracle(data):
    members = data.draw(_difference_inputs(True))
    D = difference_set(ExplicitSet(tuple(members)), members[-1])
    assert isinstance(D, BitmapSet)
    want = brute_difference(members)
    span = range(-2, want[-1] + 3)
    assert [D.count_upto(n) for n in span] == [sum(1 for d in want if d <= n) for n in span]
    assert [n for n in span if D.contains(n)] == want
    lo, hi = data.draw(st.integers(-3, want[-1] + 3)), data.draw(st.integers(-3, want[-1] + 3))
    assert D.members_in(lo, hi) == [d for d in want if lo <= d <= hi]
    assert D.top == want[-1]


@pytest.mark.parametrize("members", [(0, 3), (0, 4), (5, 9), (1, 2, 8), (1, 2, 9)])
def test_difference_at_the_path_switch(members):
    # top + 1 == n**2 takes the bitset, top + 1 == n**2 + 1 the pairs
    assert difference_set(ExplicitSet(members), 100).all_members() == brute_difference(members)


@pytest.mark.parametrize("bitset", [False, True], ids=["pairs", "bitset"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_difference_either_route_matches_pair_oracle(bitset, data):
    # members from lo up, so the flags' length top - members[0] + 1 is tested too
    n = data.draw(st.integers(2, 50))
    lo = data.draw(st.integers(0, n * n - n))
    members = sorted(data.draw(st.sets(st.integers(lo, n * n - 1), min_size=n, max_size=n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexsets, "_bitset_cheaper", lambda n, top: bitset)
        D = difference_set(ExplicitSet(tuple(members)), members[-1])
    want = brute_difference(members)
    assert isinstance(D, BitmapSet) and len(D.flags) == want[-1] + 1
    assert D.all_members() == want


def test_difference_route_takes_runs_to_slices_and_periodic_sets_to_the_bitset(monkeypatch):
    rule = indexsets._bitset_cheaper
    picks = []

    def spy(row_bits, writes):
        picks.append(rule(row_bits, writes))
        return picks[-1]

    def route(A, horizon):
        picks.clear()
        difference_set(A, horizon)
        assert len(picks) == 1
        return "bitset" if picks[0] else "flags"

    monkeypatch.setattr(indexsets, "_bitset_cheaper", spy)
    # one-run inputs take the slices: squares at 1e6, at the densities bench's 4e6 +- 1 % and at 16e6, evens
    for h in (1_000_000, 3_960_000, 4_000_000, 4_040_000, 16_000_000):
        assert route(SquareSet(), h) == "flags"
    for h in (1000, 3999, 100_000):
        assert route(PeriodicSet(2, (0,)), h) == "flags"
    # a periodic set of two residues has no run and keeps the bitset
    for h in (20_000, 200_000):
        assert route(parse_set_spec("periodic:7:0,3"), h) == "bitset"
    # random sets: sparse ones keep the pairs, dense ones the bitset
    rng = random.Random(34)
    sparse = ExplicitSet((0, 4_000_000, *rng.sample(range(1, 4_000_000), 1999)))
    dense = ExplicitSet((0, 1_000_000, *rng.sample(range(1, 1_000_000), 3998)))
    assert route(sparse, 4_000_000) == "flags"
    assert route(dense, 1_000_000) == "bitset"


@st.composite
def _run_joined_members(draw):
    """Members joined from convex, concave and linear runs, runs that share two members, and single members."""
    members = [draw(st.integers(0, 40))]  # the first member may be above 0
    last_step = None  # the step into the last member, when a run put it there
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(["convex", "concave", "linear", "overlap", "single"]))
        if kind == "single" or (kind == "overlap" and last_step is None):
            members.append(members[-1] + draw(st.integers(1, 12)))
            last_step = None
            continue
        length = draw(st.integers(2, 9))
        if kind == "overlap":  # the last run's last two members start this one
            bend = draw(st.integers(-2, 3))
            step = last_step + bend
        elif kind == "convex":  # shifted squares
            bend, step = 2, 2 * draw(st.integers(0, 6)) + 1
        elif kind == "concave":  # gaps that shrink, to 1 at least
            bend = -draw(st.integers(1, 3))
            step = 1 - bend * (length - 1) + draw(st.integers(0, 3))
        else:
            bend, step = 0, draw(st.integers(1, 6))
        for _ in range(length):
            if step < 1:
                break
            members.append(members[-1] + step)
            last_step, step = step, step + bend
    return members


def _brute_quadratic_runs(members):
    bends = [c - 2 * b + a for a, b, c in zip(members, members[1:], members[2:])]
    runs, i = [], 0
    for bend, group in itertools.groupby(bends):
        k = len(list(group))
        if k >= 2:
            runs.append((i, i + k + 1, bend))
        i += k
    n = len(members)
    reach = [max([i] + [last for first, last, _ in runs if first <= i <= last]) for i in range(n)]
    return runs, [r for r in reach if r < n - 1]  # the rows with a loose pair


_RUN_EXAMPLES = [
    [5 + k * k for k in range(3, 14)],  # convex, from above 0
    [0, 20, 38, 54, 68, 80, 90, 98, 104, 108, 110, 111],  # concave to a gap of 1
    [7, 10, 13, 16, 19, 21, 25, 31, 39, 49, 61],  # linear, then convex from its last two members
    [0, 1, 4, 9, 16, 17, 30, 33, 36, 39, 42, 43],  # two runs around single members
]


def _with_run_examples(test):
    for members in _RUN_EXAMPLES:
        test = example(members=members)(test)
    return test


@given(members=_run_joined_members())
@_with_run_examples
@settings(max_examples=200, deadline=None)
def test_quadratic_runs_match_their_definition(members):
    runs, reach = indexsets._quadratic_runs(members)
    assert (runs, list(reach)) == _brute_quadratic_runs(members)


@pytest.mark.parametrize("bitset", [False, True], ids=["flags", "bitset"])
@given(members=_run_joined_members())
@_with_run_examples
@settings(max_examples=150, deadline=None)
def test_run_route_matches_pair_oracle(bitset, members):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexsets, "_bitset_cheaper", lambda row_bits, writes: bitset)
        D = difference_set(ExplicitSet(tuple(members)), members[-1])
    want = brute_difference(members)
    if members[-1] + 1 <= len(members) ** 2:
        assert isinstance(D, BitmapSet) and len(D.flags) == want[-1] + 1
    assert D.all_members() == want


def test_quadratic_runs_split_squares_and_evens_whole_and_leave_two_residues_loose():
    for A, horizon, bend in ((SquareSet(), 10**6, 2), (PeriodicSet(2, (0,)), 10**5, 0)):
        members = A.members_in(0, horizon)
        n = len(members)
        runs, reach = indexsets._quadratic_runs(members)
        assert runs == [(0, n - 1, bend)]
        assert list(reach) == []  # no loose pair
    members = parse_set_spec("periodic:7:0,3").members_in(0, 2 * 10**5)
    runs, reach = indexsets._quadratic_runs(members)
    assert runs == [] and list(reach) == list(range(len(members) - 1))


def test_explicit_set_sorts_only_unsorted_input():
    assert ExplicitSet((5, 1, 5, 3)).members == (1, 3, 5)
    assert ExplicitSet((1, 3, 3)).members == (1, 3)
    assert ExplicitSet([1, 3, 5]).members == (1, 3, 5)
    with pytest.raises(UsageError):
        ExplicitSet((-1, 2))


# ---------------------------------------------------------------------------
# gap families


def test_gap_family_single_full_set():
    fam = SetFamily("full", (PeriodicSet(1, (0,)),))
    assert check_gap_family(fam, 200).ok


def test_gap_family_detects_collision():
    fam = SetFamily(
        "clash", (ExplicitSet((10, 20, 30)), ExplicitSet((21,)))
    )  # |21 - 20| = 1 < max(1, 2)
    res = check_gap_family(fam, 100)
    assert not res.ok
    assert res.violation[4] == 2


def test_gap_family_decade_progressions_overlap():
    # multiples of 100 and of 10000 share 10000 itself
    fam = SetFamily(
        "decades",
        (PeriodicSet(100, (0,)), PeriodicSet(10000, (0,))),
    )
    res = check_gap_family(fam, 20000)
    assert not res.ok
    v1, k1, v2, k2, _ = res.violation
    assert v1 == v2  # the shared member, reported as the witnessing pair


@given(
    st.lists(st.sets(st.integers(0, 300), max_size=12), min_size=1, max_size=4)
)
@settings(max_examples=60, deadline=None)
def test_gap_family_matches_pair_oracle(level_sets):
    fam = SetFamily("rand", tuple(ExplicitSet(tuple(s)) for s in level_sets))
    tagged = []
    for k, s in fam.enumerate_levels():
        tagged.extend((m, k) for m in s.members)
    got = check_gap_family(fam, 300).ok
    assert got == brute_gap_ok(sorted(tagged))


# ---------------------------------------------------------------------------
# prescribed densities


def test_prescribed_constant_half_is_periodic():
    A = make_prescribed_density_set(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert isinstance(A, PeriodicSet)
    r = estimate_densities(A, A.recommended_horizon, A.recommended_window)
    for x in r.as_tuple():
        assert abs(x - Fraction(1, 2)) <= Fraction(1, 100)


def test_prescribed_block_extremes():
    A = make_prescribed_density_set(0, 0, 0, 1)
    r = estimate_densities(A, A.recommended_horizon, A.recommended_window, A.recommended_tail_factor)
    lb, ld, ud, ub = r.as_tuple()
    assert lb == 0 and ub == 1
    assert ud <= Fraction(1, 20)


def test_prescribed_mixed_targets():
    targets = (0, Fraction(1, 5), Fraction(1, 2), 1)
    A = make_prescribed_density_set(*targets)
    r = estimate_densities(A, A.recommended_horizon, A.recommended_window, A.recommended_tail_factor)
    for got, want in zip(r.as_tuple(), targets):
        assert abs(got - Fraction(want)) <= Fraction(1, 20)


def test_prescribed_rejects_bad_order():
    with pytest.raises(UsageError):
        make_prescribed_density_set(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), 1)


# ---------------------------------------------------------------------------
# serialization round trips


@pytest.mark.parametrize("A", ZOO, ids=ZOO_IDS)
def test_describe_round_trip(A):
    from hyperorbit.io_text import parse_set_spec

    B = parse_set_spec(A.describe())
    for n in list(range(0, 60)) + [720, 5040, 1024]:
        assert A.contains(n) == B.contains(n)
