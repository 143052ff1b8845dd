import bisect
import itertools
import sys
import tracemalloc
from fractions import Fraction
from math import frexp
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperorbit import (
    DigitNeighborhoodSet,
    DoublingResetWeights,
    HugeInt,
    banach_window_ratio,
    build_block_family,
    check_gap_family,
    envelope_contains,
    product_exponent,
    product_threshold_scan,
    run_length_array,
    s_contains,
    s_flags,
    s_intervals_in,
    threshold_bound,
    verify_block_conditions,
    verify_scale_exclusion,
)
from hyperorbit import counterexample as cx
from hyperorbit.counterexample import InsufficientBlockError, Block
from hyperorbit.errors import UsageError
from hyperorbit.indexsets import ExplicitSet
from hyperorbit.io_text import parse_set_spec

from conftest import brute_hit_scale, brute_run_lengths, brute_s_intervals, brute_s_member, brute_tower_cmp


# ---------------------------------------------------------------------------
# membership in S


def test_s_examples():
    assert s_contains(10)  # ]9, 11[ at scale 1
    assert not s_contains(11)
    assert s_contains(99)  # ]98, 102[ at scale 2


def test_s_matches_brute_interval_scan():
    for m in range(0, 3000):
        assert s_contains(m) == brute_s_member(m), m


def test_interval_enumeration_matches_membership():
    S = DigitNeighborhoodSet()
    got = set(S.members_in(0, 12000))
    want = {n for n in range(12001) if s_contains(n)}
    assert got == want
    assert S.count_in(1, 12000) == len(want - {0})


def test_interval_enumeration_far_window():
    # symbolic window far from zero
    lo = 10**9 - 50
    hi = 10**9 + 50
    S = DigitNeighborhoodSet()
    assert S.members_in(lo, hi) == [n for n in range(lo, hi + 1) if s_contains(n)]


def test_count_window_first_120():
    # frozen against the (j, l) double-loop oracle
    S = DigitNeighborhoodSet()
    want = sum(1 for n in range(1, 121) if brute_s_member(n))
    assert S.count_in(1, 120) == want == 14


@pytest.mark.parametrize("e", [10, 11, 12, 100])
def test_closed_form_counts_near_overlapping_scales(e):
    # from scale 10 on, a centre's interval touches its neighbours' intervals, and from 11 on it swallows
    # them; the closed form must agree with the scale-by-scale oracle's merged intervals
    S = DigitNeighborhoodSet()
    for l in (1, 3, 10):
        c = l * 10**e
        for lo, hi in ((c - 2 * e, c + 2 * e), (c - e, c), (c, c + 15), (c - 25, c - 3), (c + 9, c + 11),
                       (c - 2 * e, c - e)):
            assert S.count_in(lo, hi) == sum(b - a + 1 for a, b in brute_s_intervals(lo, hi)), (l, lo - c, hi - c)


def _closed_form_prefix_counts(step, q):
    S = DigitNeighborhoodSet()
    return [S.count_upto(i * step) for i in range(q + 1)]


@given(
    step=st.one_of(st.integers(1, 60), st.integers(cx._INDICATOR_MAX_STEP - 3, cx._INDICATOR_MAX_STEP + 3),
                   st.integers(1, 3 * cx._INDICATOR_MAX_STEP)),
    q=st.integers(0, 400),
    windows_per_block=st.integers(1, 50),
)
@settings(max_examples=150, deadline=None)
def test_s_prefix_counts_match_the_closed_form(step, q, windows_per_block):
    # small blocks, so that most draws cross block boundaries
    with mock.patch.object(cx, "_INDICATOR_BLOCK", step * windows_per_block + step // 2):
        assert DigitNeighborhoodSet().prefix_counts(step, q) == _closed_form_prefix_counts(step, q)


@pytest.mark.parametrize("step, q", [(100, 6000), (7, 80000), (cx._INDICATOR_MAX_STEP, 400)])
def test_s_prefix_counts_across_full_blocks(step, q):
    assert DigitNeighborhoodSet().prefix_counts(step, q) == _closed_form_prefix_counts(step, q)


def test_s_prefix_counts_keep_the_closed_form_past_the_step_rule(monkeypatch):
    def refuse(lo, hi):
        raise AssertionError("the indicator was built for a window past the step rule")

    monkeypatch.setattr(cx, "s_flags", refuse)
    step = cx._INDICATOR_MAX_STEP + 1
    assert DigitNeighborhoodSet().prefix_counts(step, 300) == _closed_form_prefix_counts(step, 300)


def test_s_prefix_counts_build_the_indicator_block_by_block():
    # the indicator over ]0, 10^7] is 10 MB at once; block by block it stays below 1 MB
    tracemalloc.start()
    try:
        counts = DigitNeighborhoodSet().prefix_counts(100, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == 10**5 + 1
    result = sys.getsizeof(counts) + sum(map(sys.getsizeof, counts))
    assert peak - result < 3 * 2**20, f"peak {peak} B for a result of {result} B"


def _runs_from_intervals(intervals, horizon):
    """c(1..horizon) from the maximal runs of S ∩ [1, horizon]: n - a + 1 on a run [a, b]."""
    runs = [0] * horizon
    for a, b in intervals:
        for n in range(a, b + 1):
            runs[n - 1] = n - a + 1
    return runs


# windows around centres whose intervals touch a neighbour (l*10^10, radius 9) or swallow several
# (l*10^11, l*10^100; past 10^256 a radius no longer fits a byte), besides plain windows near zero
_S_WINDOWS = st.one_of(
    st.tuples(st.integers(-20, 30000), st.integers(-20, 2000)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(
        st.sampled_from([10, 11, 12, 100, 300]),
        st.sampled_from([1, 2, 7, 10, 11, 99, 10**5 + 1]),
        st.integers(-350, 350),
        st.integers(-5, 500),
    ).map(lambda t: (t[1] * 10 ** t[0] + t[2], t[1] * 10 ** t[0] + t[2] + t[3])),
)


@given(window=_S_WINDOWS)
@settings(max_examples=300, deadline=None)
def test_s_runs_match_the_scale_by_scale_oracle(window):
    lo, hi = window
    want = brute_s_intervals(lo, hi)
    assert s_intervals_in(lo, hi) == want
    assert DigitNeighborhoodSet().members_in(lo, hi) == [n for a, b in want for n in range(a, b + 1)]


@given(horizon=st.integers(-3, 25000))
@settings(max_examples=40, deadline=None)
def test_run_length_array_matches_the_scale_by_scale_oracle(horizon):
    assert run_length_array(horizon) == _runs_from_intervals(brute_s_intervals(1, horizon), max(horizon, 0))


@given(horizon=st.integers(-3, 3000))
@settings(max_examples=40, deadline=None)
def test_s_flags_match_the_brute_scan(horizon):
    assert s_flags(0, horizon) == bytes(brute_s_member(m) for m in range(horizon + 1))


@given(lo=st.integers(0, 30000), length=st.integers(-2, 400))
@settings(max_examples=60, deadline=None)
def test_s_flags_over_a_window_match_the_brute_scan(lo, length):
    hi = lo + length
    assert s_flags(lo, hi) == bytes(brute_s_member(m) for m in range(lo, hi + 1))


def _flags_from_intervals(lo, hi):
    """S's indicator over [lo, hi] from the defining intervals, walked scale by scale (`brute_s_intervals`)."""
    want = bytearray(max(hi - lo + 1, 0))
    for a, b in brute_s_intervals(lo, hi):
        want[a - lo : b - lo + 1] = b"\x01" * (b - a + 1)
    return bytes(want)


@pytest.mark.parametrize("j", range(1, 12))
def test_s_flags_over_windows_at_each_scale_edge(j):
    # lo before, at and past the first interval of scale j, 10^j - j + 1, and 10^j +- (j + 3);
    # brute_s_member tries every multiple below m, so past 10^5 the intervals near the window stand in
    for lo in (10**j - j - 3, 10**j - j, 10**j - j + 1, 10**j - j + 2, 10**j + j + 3, 10**j + 7):
        hi = lo + 2 * j + 9
        flags = s_flags(lo, hi)
        if hi < 10**5:
            assert flags == bytes(brute_s_member(m) for m in range(lo, hi + 1)), lo
        assert flags == _flags_from_intervals(lo, hi), lo


@pytest.mark.parametrize("c", [10**10, 7 * 10**10, 10**11, 3 * 10**11])
def test_s_flags_where_neighbouring_intervals_merge(c):
    # the interval of l*10^10 (radius 9) touches its neighbours' intervals; that of l*10^11 (radius 10) meets them
    for lo, hi in ((c - 60, c + 60), (c - 11, c + 11), (c + 9, c + 10), (c - 1, c - 1)):
        assert s_flags(lo, hi) == _flags_from_intervals(lo, hi), (lo - c, hi - c)


@pytest.mark.parametrize("j", range(1, 7))
def test_s_flags_at_horizons_around_each_scale(j):
    # the slices of scale j start at 10^j - j + 1: horizons before, at and past each of them
    top = 10**j + j
    want = _flags_from_intervals(0, top)
    for horizon in range(10**j - j, top + 1):
        flags = s_flags(0, horizon)
        assert flags == want[: horizon + 1]
        assert flags[horizon] == brute_s_member(horizon)


def test_weight_stream_uses_neither_digit_membership_nor_the_valuation_runs(monkeypatch):
    # the product law checks the stream against run_length_array (through s_intervals_in),
    # so the stream must not reach S through that route, nor through s_contains
    want = DoublingResetWeights().stream(123457)

    def refuse(*args):
        raise AssertionError("the weight stream borrowed a membership route")

    monkeypatch.setattr(cx, "s_contains", refuse)
    monkeypatch.setattr(cx, "s_intervals_in", refuse)
    assert DoublingResetWeights().stream(123457) == want


def test_s_runs_test_no_membership(monkeypatch):
    def refuse(m):
        raise AssertionError("s_intervals_in tested membership")

    monkeypatch.setattr(cx, "s_contains", refuse)
    runs = s_intervals_in(1, 10**6)
    assert runs[0] == (10, 10) and runs[-1] == (999995, 10**6)  # 10^6's interval is cut at the window
    assert sum(b - a + 1 for a, b in runs) == DigitNeighborhoodSet().count_in(1, 10**6)


# ---------------------------------------------------------------------------
# run-length exponents and the weight law


def test_product_exponent_examples():
    assert product_exponent(10) == 1
    assert product_exponent(11) == 0
    assert product_exponent(101) == 3  # run {99, 100, 101}


def test_products_match_brute_multiplication():
    w = DoublingResetWeights()
    prod = Fraction(1)
    for n in range(1, 20001):
        prod *= Fraction(w.weight(n)).limit_denominator(1 << 60)
        c = product_exponent(n)
        assert prod == Fraction(2) ** c
        assert (c == 0) == (not s_contains(n))


def test_run_characterization():
    for n in range(1, 20001):
        c = product_exponent(n)
        if c:
            assert all(s_contains(m) for m in range(n - c + 1, n + 1))
        assert not s_contains(n - c)


def test_run_length_array_matches_pointwise():
    assert run_length_array(20000) == [product_exponent(n) for n in range(1, 20001)]
    assert run_length_array(123457) == brute_run_lengths(123457)
    assert run_length_array(0) == [] and run_length_array(-5) == []


def _stream_matches_oracles(horizon):
    w = DoublingResetWeights()
    in_s, weights = w.stream(horizon)
    assert len(in_s) == len(weights) == horizon
    assert list(zip(map(bool, in_s), weights)) == [(s_contains(k), w.weight(k)) for k in range(1, horizon + 1)]
    assert list(itertools.accumulate(frexp(wk)[1] - 1 for wk in weights)) == brute_run_lengths(horizon)


@given(horizon=st.integers(1, 30000))
@settings(max_examples=30, deadline=None)
def test_weight_stream_matches_the_oracles(horizon):
    _stream_matches_oracles(horizon)


@pytest.mark.parametrize("horizon", [*range(99, 102), *range(9990, 10011)])
def test_weight_stream_at_run_ends(horizon):
    # the runs {99, 100, 101} and {9997, ..., 10003}: horizons inside, at and past their ends
    _stream_matches_oracles(horizon)


# ---------------------------------------------------------------------------
# lazy power-tower integers


def test_hugeint_ordering_and_arithmetic():
    a = HugeInt(102, 0)
    b = HugeInt(102, 400)
    c = HugeInt(HugeInt(102, 6), 0)
    assert a < b < c
    assert a + 400 == b
    assert b - a == 400
    assert a.to_int() == 10**102
    assert a < 10**103 and a > 10**101


def test_hugeint_gap_decisions():
    a = HugeInt(102, 0)
    b = HugeInt(102, 100)
    c = HugeInt(HugeInt(102, 6), 0)
    assert b - 100 >= a
    assert not b - 101 >= a
    assert c - 10**9 >= a
    assert a - 10**9 >= 0


def test_hugeint_hash_agrees_with_equality():
    assert HugeInt(19, 0) == 10**19
    assert hash(HugeInt(19, 0)) == hash(10**19)
    assert len({HugeInt(19, 0), 10**19}) == 1
    assert ExplicitSet((10**19, HugeInt(19, 0), 5)).members == (5, 10**19)
    tower = HugeInt(HugeInt(102, 6), 3)
    assert len({tower, HugeInt(HugeInt(102, 6), 3), HugeInt(HugeInt(102, 6), 4)}) == 2


_materializable = st.builds(HugeInt, st.integers(19, 40), st.integers(-(10**6), 10**6))
_towers = st.builds(HugeInt, st.builds(HugeInt, st.integers(19, 40), st.integers(0, 10**6)), st.integers(-(10**6), 10**6))


@settings(max_examples=200, deadline=None)
@given(_materializable, st.one_of(_materializable, st.integers(-(10**41), 10**41)))
def test_hugeint_order_matches_the_materialized_ints(a, b):
    x, y = a.to_int(), b.to_int() if isinstance(b, HugeInt) else b
    assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (x < y, x <= y, x == y, x != y, x >= y, x > y)
    assert (b < a, b == a, b > a) == (y < x, y == x, y > x)


@settings(max_examples=100, deadline=None)
@given(_towers, st.one_of(_materializable, st.integers(-(10**41), 10**41)))
def test_towers_compare_above_every_materializable_value(t, v):
    assert t > v and v < t and t != v and max(v, t) is t


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_materializable, _towers, st.integers(-(10**41), 10**41)), max_size=12), st.data())
def test_builtins_on_mixed_values_agree_with_the_comparator(values, data):
    ordered = sorted(values)
    assert all(cx._cmp_values(p, q) <= 0 for p, q in itertools.pairwise(ordered))
    if values:
        top = max(values)
        assert all(cx._cmp_values(top, v) >= 0 for v in values)
        probe = data.draw(st.sampled_from(values))
        assert bisect.bisect_left(ordered, probe) == sum(cx._cmp_values(v, probe) < 0 for v in values)
        assert bisect.bisect_right(ordered, probe) == sum(cx._cmp_values(v, probe) <= 0 for v in values)


# towers as the block family builds them: each level an exponent for the next, with the
# second tower often built on one of the first's level objects or rebuilt from its parts
_LEVEL_OFFSETS = st.one_of(st.sampled_from([-1, 0, 1, 7]), st.integers(-(10**18), 10**18))
_BOTTOMS = st.one_of(st.sampled_from([19, 20, 102, 20000, 20001]), st.integers(19, 10**30))


def _levels(bottom, offsets):
    """[bottom, HugeInt(bottom, o1), HugeInt(HugeInt(bottom, o1), o2), ...]"""
    out = [bottom]
    for off in offsets:
        out.append(HugeInt(out[-1], off))
    return out


@st.composite
def _tower_pairs(draw):
    bottom, offsets = draw(_BOTTOMS), draw(st.lists(_LEVEL_OFFSETS, max_size=8))
    a = _levels(bottom, offsets)
    how = draw(st.sampled_from(["apart", "shared", "rebuilt"]))
    if how == "apart":
        b = _levels(draw(_BOTTOMS), draw(st.lists(_LEVEL_OFFSETS, max_size=8)))
    elif how == "shared":
        i = draw(st.integers(0, len(a) - 1))
        b = _levels(a[i], draw(st.lists(_LEVEL_OFFSETS, max_size=8 - i)))[1:] or [a[i]]
    else:
        changed = list(offsets)
        if changed and draw(st.booleans()):
            changed[draw(st.integers(0, len(changed) - 1))] = draw(_LEVEL_OFFSETS)
        b = _levels(bottom, changed)
    return a[-1], b[-1]


@settings(max_examples=300, deadline=None)
@given(_tower_pairs())
def test_tower_comparator_matches_the_recursive_oracle(pair):
    a, b = pair
    want = brute_tower_cmp(a, b)
    assert (cx._cmp_values(a, b), cx._cmp_values(b, a)) == (want, -want)
    if want == 0:
        assert hash(a) == hash(b)


def test_towers_of_1200_levels_compare_hash_and_read_back():
    # far past the default recursion limit: ordering, hashing and printing walk the levels in loops
    def tower(top_offset):
        t = 19
        for i in range(1199):
            t = HugeInt(t, i % 3)
        return HugeInt(t, top_offset)

    t, u = tower(7), tower(8)  # built apart, so no level object is shared
    assert t < u and t == tower(7) and t != tower(6)
    assert ExplicitSet((u, t, 5)).members == (5, t, u)
    assert len({t, u, tower(7)}) == 2
    (back,) = parse_set_spec("explicit:" + repr(t)).members
    assert back == t and repr(back) == repr(t)


def test_hugeint_membership_in_s():
    assert HugeInt(102, 0).in_digit_neighborhoods()  # the radius-102 window at 10^102
    assert HugeInt(102, 10).in_digit_neighborhoods()  # scale-1 window at a multiple of 10
    # offset 11 misses every small scale but 11 < 102 keeps it inside the top window
    assert HugeInt(102, 11).in_digit_neighborhoods()
    # offset 151 > 102 misses small scales and falls off the top window
    assert not HugeInt(102, 151).in_digit_neighborhoods()


def _offsets_near_powers_of_ten():
    # r just around 10^j, within j + 2 of it, inside the offset limit 10^18
    return st.integers(1, 18).flatmap(lambda j: st.integers(-j - 2, j + 2).map(lambda d: 10**j + d)).filter(
        lambda r: r <= 10**18
    )


@settings(max_examples=600, deadline=None)
@given(st.integers(19, 40), st.integers(0, 59) | _offsets_near_powers_of_ten() | st.integers(0, 10**18))
def test_hugeint_membership_matches_the_defining_intervals(exponent, offset):
    m = 10**exponent + offset
    assert HugeInt(exponent, offset).in_digit_neighborhoods() == bool(brute_s_intervals(m, m))


def test_hugeint_membership_at_every_scale_edge():
    # 10^j - (j - 1) lies in S through scale j alone, so each scale up to 18 is needed
    for exponent in (19, 20, 40):
        for j in range(1, 19):
            for offset in range(10**j - j - 1, min(10**j + j + 2, 10**18 + 1)):
                m = 10**exponent + offset
                assert HugeInt(exponent, offset).in_digit_neighborhoods() == bool(brute_s_intervals(m, m))


def test_hugeint_membership_top_scale():
    # 10^E + r with r < E is within the radius-E window of 10^E
    assert HugeInt(200, 199).in_digit_neighborhoods()


def test_hugeint_rejects_small_exponent():
    with pytest.raises(UsageError):
        HugeInt(5, 0)


# ---------------------------------------------------------------------------
# block family


def test_first_block_is_minimal():
    fam = build_block_family(1, 1)
    b = fam.blocks[0]
    assert b.count == 1
    assert b.exponent == 102
    assert b.members()[0].to_int() == 10**102


def test_conditions_reverify():
    fam = build_block_family(3, 3)
    checks = verify_block_conditions(fam)
    assert len(checks) == 9
    assert all(c.all_ok() for c in checks)


def test_family_gap_property_symbolic():
    fam = build_block_family(3, 3)
    assert check_gap_family(fam.set_family()).ok


def test_block_level_counts_match_a_linear_filter():
    fam = build_block_family(3, 3)
    level = fam.set_family().level(2)
    members = [m for b in fam.level_blocks(2) for m in b.members()]
    assert level.all_members() == members
    probes = [0, 10**150, *members, *(m + 1 for m in members), *(m - 1 for m in members), HugeInt(HugeInt(HugeInt(5000), 0))]
    for lo, hi in itertools.product(probes, repeat=2):
        inside = [m for m in members if lo <= m <= hi]
        assert level.members_in(lo, hi) == inside
        assert level.count_in(lo, hi) == len(inside)


def test_block_members_lie_in_s_after_shift():
    # members are 10^{j0} + offset with offset small: inside S at the top scale,
    # and still inside after small shifts k' < level
    fam = build_block_family(2, 2)
    for b in fam.blocks:
        for m in b.members():
            for shift in range(0, b.level):
                assert (m + shift).in_digit_neighborhoods()


def test_banach_window_ratio_spec_example():
    # synthetic block: level 1, ten members, window 1000 -> ratio 1/100
    block = Block(index=10, level=1, exponent=HugeInt(200, 0), step=100, count=10)
    fam = build_block_family(1, 1)
    fam = type(fam)(levels=1, reps=1, blocks=(block,))
    r = banach_window_ratio(fam, 1)
    assert r.window == 1000
    assert r.count == 10
    assert r.ratio == Fraction(1, 100)
    assert r.required == Fraction(9, 10) / 100
    assert r.ok


def test_banach_window_ratio_counts_the_level_in_the_window():
    # the window [10^200, 10^200 + 199] of the first block also holds members of the second:
    # the level puts 0, 50, 100 and 150 past 10^200 there, where the first block alone puts 2
    first = Block(index=2, level=1, exponent=200, step=100, count=2)
    second = Block(index=3, level=1, exponent=200, step=50, count=4)
    fam = cx.BlockFamily(levels=1, reps=2, blocks=(first, second))
    r = banach_window_ratio(fam, 1)
    assert (r.window, r.count, r.ratio) == (200, 4, Fraction(4, 200))
    # on the built family each window holds its own block alone
    fam = build_block_family(3, 3)
    assert [banach_window_ratio(fam, k).count for k in (1, 2, 3)] == [4, 2, 3]


def test_banach_window_ratio_degenerate():
    fam = build_block_family(1, 1)  # single block with l0 = 1
    with pytest.raises(InsufficientBlockError):
        banach_window_ratio(fam, 1)


def test_banach_window_ratio_k2():
    block = Block(index=5, level=2, exponent=HugeInt(300, 0), step=10**4, count=5)
    fam = build_block_family(1, 1)
    fam = type(fam)(levels=2, reps=1, blocks=(block,))
    r = banach_window_ratio(fam, 2)
    assert r.ratio == Fraction(1, 10**4)


# ---------------------------------------------------------------------------
# exclusion sweep


def test_exclusion_small_cases():
    rep = verify_scale_exclusion(2, 1)
    by_m = {r.m: r for r in rep.rows}
    assert set(by_m) == {9, 11, 89, 111}
    assert rep.ok
    for m in (9, 11, 89, 111):
        assert not s_contains(m)


# m drawn anywhere in 0..10^7, and also near the multiples l*10^j, where the intervals end
_NEAR_MULTIPLES = st.builds(
    lambda l, j, d: max(0, l * 10**j + d), st.integers(1, 99), st.integers(1, 5), st.integers(-40, 40)
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.integers(0, 10**7), _NEAR_MULTIPLES),
    st.one_of(st.none(), st.integers(1, 7)),
    st.sampled_from([1, 31]),
    st.integers(1, 3),
)
def test_hit_scale_matches_the_scale_scan(m, last, width, first):
    assert cx._hit_scale(m, last, width, first) == brute_hit_scale(m, last, width, first)


def test_exclusion_sweep_medium():
    assert verify_scale_exclusion(3, 30).ok


def test_exclusion_catches_planted_violation():
    # sanity for the checker itself: 10 is inside the scale-1 window of 10
    assert cx._hit_scale(10, 1) == 1
    assert cx._hit_scale(11, 1) is None


# ---------------------------------------------------------------------------
# threshold sets and their envelope


def test_threshold_level_one_is_s():
    rep = product_threshold_scan(1, 10**4)
    S = DigitNeighborhoodSet()
    assert rep.rows[-1].count == S.count_in(1, 10**4)
    assert rep.bound_respected and rep.envelope_ok


def test_threshold_monotone_in_j():
    runs = brute_run_lengths(10**5)
    prev = None
    for j in (1, 2, 3, 5, 8, 13):
        cur = [c >= j for c in runs]
        if prev is not None:
            assert not any(c and not p for c, p in zip(cur, prev))  # D_j shrinks as j grows
        prev = cur


def test_threshold_empty_when_j_exceeds_runs():
    runs = brute_run_lengths(10**5)
    jmax = max(runs)
    rep = product_threshold_scan(jmax + 1, 10**5)
    assert all(r.count == 0 for r in rep.rows)


def test_threshold_mass_at_longest_run():
    # the longest full run below 1e5 is the radius-4 window at 10^4:
    # {9997..10003}, length 7, ending at 10003
    runs = brute_run_lengths(10**5)
    assert max(runs) == 7
    assert runs.index(7) + 1 == 10003
    assert product_exponent(10003) == 7
    rep = product_threshold_scan(7, 10**5)
    assert rep.rows[-1].count > 0


@given(
    j=st.one_of(st.integers(1, 9), st.sampled_from([30, 31, 61])),
    horizon=st.integers(100, 40000),
    samples=st.integers(1, 700),
)
@settings(max_examples=60, deadline=None)
def test_threshold_scan_matches_brute_run_lengths(j, horizon, samples):
    runs = brute_run_lengths(horizon)
    members = [n for n, c in enumerate(runs, start=1) if c >= j]  # D_j ∩ [1, horizon]
    prefixes = [10**t for t in range(2, 6) if 10**t <= horizon]
    if prefixes[-1] != horizon:
        prefixes.append(horizon)
    picked = members[:: max(1, len(members) // samples)] if len(members) > samples else members
    for runs in (None, s_intervals_in(1, horizon)):
        with mock.patch.object(cx, "_ENVELOPE_SAMPLES", samples):
            rep = product_threshold_scan(j, horizon, runs=runs)
        assert [(r.prefix, r.count) for r in rep.rows] == [(p, sum(1 for n in members if n <= p)) for p in prefixes]
        assert all(r.ratio == Fraction(r.count, r.prefix) and r.bound == threshold_bound(j) for r in rep.rows)
        assert rep.bound_respected == all(r.ratio <= r.bound for r in rep.rows if r.bound < 1)
        assert rep.envelope_samples == len(picked)
        assert rep.envelope_ok == all(envelope_contains(n, j) for n in picked)
        tested = []
        with mock.patch.object(cx, "envelope_contains", lambda n, jj: tested.append((n, jj)) or True), \
                mock.patch.object(cx, "_ENVELOPE_SAMPLES", samples):
            product_threshold_scan(j, horizon, runs=runs)
        assert tested == [(n, j) for n in picked]  # the samples are these members, in order


def test_threshold_bound_values():
    # 8 * (9 * ceil(j/30) + 1) * 10^(1 - ceil(j/30))
    assert threshold_bound(1) == Fraction(80)
    assert threshold_bound(31) == Fraction(152, 10)
    assert threshold_bound(91) == Fraction(8 * 37, 1000)


def test_envelope_covers_even_small_scales():
    # scale 1 windows have radius 31 > 10: everything is enveloped for j <= 30
    for n in (0, 5, 77, 1234):
        assert envelope_contains(n, 1)


def test_envelope_scale_three():
    # j = 61 -> scales k >= 3, radius 93 around multiples of 1000
    assert envelope_contains(1050, 61)
    assert not envelope_contains(1500, 61)
    assert envelope_contains(2999 - 80, 61)
