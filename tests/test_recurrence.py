from bisect import bisect_right
from fractions import Fraction
from math import ceil, floor, inf, isqrt, ldexp, nextafter, sqrt
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperorbit import (
    AlphaProfile,
    ConstantWeights,
    DenseDyadicSequence,
    DoublingResetWeights,
    ExplicitSet,
    FactorialBlockSet,
    PeriodicSet,
    RatioPowerWeights,
    ShiftOperator,
    SparseVec,
    SquareSet,
    TableWeights,
    apply_backward,
    ball_contains,
    bilateral_tail_sums,
    c0,
    classify,
    correlation_scan,
    hitting_times,
    lp,
    norm,
    return_set,
    return_weight_sums,
)
from hyperorbit.counterexample import DigitNeighborhoodSet
from hyperorbit.errors import NoDataError, SpaceMismatchError, UsageError
from hyperorbit.indexsets import IndexSet, estimate_densities
from hyperorbit.io_text import parse_set_spec
from hyperorbit import recurrence
from hyperorbit.recurrence import _Orbit
from hyperorbit.spaces import SpaceSpec, _float_terms, _stop_total

from conftest import (
    brute_correlation,
    brute_hitting_times,
    brute_orbit,
    brute_profile_has_late_mass,
    brute_return_times,
    brute_return_weight_sums,
    brute_s_member,
    brute_stop_threshold,
    periodic_eta,
)

L2 = lp(2.0)
DOUBLING = ShiftOperator(ConstantWeights(2.0), L2)


# ---------------------------------------------------------------------------
# orbit stepping


@pytest.mark.parametrize(
    "w,space",
    [
        (ConstantWeights(2.0), lp(2.0, bilateral=True)),
        (ConstantWeights(0.5), lp(2.0, bilateral=True)),
        (ConstantWeights(-2.0), lp(2.0, bilateral=True)),
        (ConstantWeights(2.0), L2),
        (DoublingResetWeights(), L2),
        (TableWeights([(-1) ** k * 2.0 ** (k % 5 - 2) for k in range(60)]), L2),
    ],
    ids=["2-bilateral", "1/2-bilateral", "-2-bilateral", "2", "reset", "signed-table"],
)
@given(
    entries=st.dictionaries(
        st.integers(0, 400),
        st.integers(-(2**40), 2**40).filter(bool).flatmap(
            lambda num: st.integers(-30, 30).map(lambda e: Fraction(num) * Fraction(2) ** e)
        ),
        min_size=1,
        max_size=8,
    ),
    n=st.integers(0, 120),
)
@settings(max_examples=40, deadline=None)
def test_orbit_steps_match_apply_backward(w, space, entries, n):
    T = ShiftOperator(w, space)
    x = SparseVec(entries, space)
    if not space.bilateral:
        n = min(n, max(x.entries))  # a unilateral orbit stops at its last entry, as _scan does
    orbit = _Orbit(T, x, n)
    for _ in range(n + 1):
        (row,), over = orbit.step(1)
    exact = apply_backward(T, x, n)
    assert {idx - n: val for idx, val in zip(orbit.index, row) if val != 0} == {
        k: float(v) for k, v in exact.entries.items()
    }


# ---------------------------------------------------------------------------
# hitting times


def test_collapsing_orbit_hits_zero_ball():
    e0 = SparseVec.basis(L2, 0)
    reports = hitting_times(DOUBLING, e0, [(SparseVec.zero(L2), 0.5)], 500)
    assert reports[0].times.members == tuple(range(1, 501))  # n = 0 misses: ||e0|| = 1


def test_zero_vector_hits_everywhere():
    reports = hitting_times(DOUBLING, SparseVec.zero(L2), [(SparseVec.zero(L2), 0.1)], 200)
    assert reports[0].times.members == tuple(range(0, 201))


def test_hitting_times_reverify_ball_membership():
    x = SparseVec({3: Fraction(1, 8), 9: Fraction(1, 2)}, L2)
    target = (SparseVec.basis(L2, 0), 1.2)
    reports = hitting_times(DOUBLING, x, [target], 40)
    for n in reports[0].times.members:
        assert ball_contains(target[0], target[1], apply_backward(DOUBLING, x, n))


def test_orbit_overflow_truncates():
    x = SparseVec({i: 1.0 for i in range(0, 1100)}, L2)
    reports = hitting_times(DOUBLING, x, [(SparseVec.zero(L2), 0.5)], 2000)
    assert reports[0].truncated
    assert reports[0].truncated_at is not None


def test_overflow_cap_beyond_float_range_rejected():
    x = SparseVec.basis(L2, 3)
    with patch.object(recurrence, "OVERFLOW_LOG2", 1023):
        reports = hitting_times(DOUBLING, x, [(SparseVec.zero(L2), 0.5)], 10)
    assert reports[0].times.members == (4, 5, 6, 7, 8, 9, 10)  # e_3 reaches index 0 at n = 3, then leaves


# Orbit cases for the oracle properties: every space kind, signed, non-dyadic and
# doubling/reset weights, entries far below the float range, unsorted insertion order.
UNILATERAL_WEIGHTS = [
    RatioPowerWeights(2.0),
    DoublingResetWeights(),
    TableWeights([1.5, -2.0, 0.75, 3.0, -0.5, 1.25, 2.0, -1.0, 0.3, 4.0] * 4),
]
CONSTANTS = [ConstantWeights(c) for c in (2.0, -2.0, 0.5, -0.5, 1.5, 3.0)]
SPACES = [
    lp(2.0), c0(), lp(3.0), lp(1.0), lp(1.5),
    lp(2.0, bilateral=True), lp(3.0, bilateral=True), c0(bilateral=True),
]

scalars = st.one_of(
    st.builds(lambda num, e: Fraction(num) * Fraction(2) ** e, st.integers(-(2**20), 2**20).filter(bool),
              st.integers(-1200, 30)),
    st.builds(lambda num, den: Fraction(num, den), st.integers(-50, 50).filter(bool), st.sampled_from([3, 7, 10])),
    st.floats(-1e6, 1e6).filter(lambda f: abs(f) > 1e-6),
    st.integers(-5, 5).filter(bool),
)


@st.composite
def orbit_cases(draw):
    space = draw(st.sampled_from(SPACES))
    w = draw(st.sampled_from(CONSTANTS + ([] if space.bilateral else UNILATERAL_WEIGHTS)))
    low = -30 if space.bilateral else 0
    pairs = draw(st.lists(st.tuples(st.integers(low, 80), scalars), max_size=8, unique_by=lambda p: p[0]))
    x = SparseVec(dict(pairs), space)  # dict keeps the drawn (unsorted) order
    centres = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(low, 40), scalars, min_size=1, max_size=3),
        st.dictionaries(st.integers(500, 600), scalars, min_size=1, max_size=2),  # never met
        st.just(dict(pairs[:2])),  # overlaps the support at n = 0
    )
    radii = st.sampled_from([1e-3, 0.5, 1.0, 2.0, 10.0, 1e6, Fraction(1, 3), 1])
    targets = draw(st.lists(st.tuples(centres.map(lambda c: SparseVec(c, space)), radii), min_size=1, max_size=3))
    return ShiftOperator(w, space), x, targets


@given(
    case=orbit_cases(),
    horizon=st.integers(1, 300),
    block=st.sampled_from([8, 64, recurrence._BLOCK]),
    cap=st.sampled_from([996, 200, 40, -3]),
)
@settings(max_examples=150, deadline=None)
def test_hitting_times_match_brute_oracle(case, horizon, block, cap):
    T, x, targets = case
    with patch.object(recurrence, "_BLOCK", block), patch.object(recurrence, "OVERFLOW_LOG2", cap):
        reports = hitting_times(T, x, targets, horizon)
    times, truncated_at = brute_hitting_times(T, x, targets, horizon, cap)
    assert [list(r.times.members) for r in reports] == times
    assert all(r.truncated_at == truncated_at for r in reports)


def _check_rows_and_norms(T, x, targets, horizon):
    points = [v for _, v in brute_orbit(T, x, horizon, recurrence.OVERFLOW_LOG2)]
    if points[-1] is None:
        points.pop()
    if not x.space.bilateral:
        del points[max(x.entries) + 1 :]  # a unilateral orbit stops at its last entry, as _scan does
    orbit = _Orbit(T, x, horizon)
    rows = []
    while len(rows) < len(points):
        block, over = orbit.step(min(orbit.stride, len(points) - len(rows)))
        assert over is None
        rows.extend(block)
    at = {idx: j for j, idx in enumerate(orbit.index)}
    for n, (row, v) in enumerate(zip(rows, points)):
        assert {idx - n: val for idx, val in zip(orbit.index, row) if val != 0} == v.entries
        for center, radius in targets:
            ball = recurrence._Ball(center, radius, x.space)
            size = ball.norm(row, at, n)
            ball.stop = None  # every term read
            whole = ball.norm(row, at, n)
            if whole is not None:
                assert whole == norm(v - center)
            if size != whole:  # stopped: the terms read put v outside the ball
                assert size == inf and not ball_contains(center, radius, v)


@given(case=orbit_cases(), horizon=st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_block_rows_and_norms_have_the_bits_of_spaces_norm(case, horizon):
    T, x, targets = case
    assume(x.entries)
    _check_rows_and_norms(T, x, targets, horizon)


@pytest.mark.parametrize(
    "w,value",
    [
        (ConstantWeights(2.0), Fraction(2**20 - 1, 2**1080)),  # subnormal range: 14 of 20 bits would survive
        (ConstantWeights(3.0), Fraction(2**20 - 3, 2**1050)),
        (ConstantWeights(0.5), Fraction(2**20 - 1, 2**920)),  # sinks through the subnormal range
        (ConstantWeights(0.7), Fraction(2**20 - 1, 2**1000)),  # sinks into it within one block
        (ConstantWeights(2.0), Fraction(2**40 + 1, 2**40) * 2**900),  # climbs to the overflow cap
    ],
    ids=["2-below-normal", "3-below-normal", "1/2-sinking", "0.7-sinking", "2-climbing"],
)
def test_rows_near_the_edges_of_the_float_range(w, value):
    x = SparseVec({150: value, 3: Fraction(1, 3)}, L2)
    _check_rows_and_norms(ShiftOperator(w, L2), x, [(SparseVec.zero(L2), 1e-300), (SparseVec.basis(L2, 0), 1.0)], 160)


def test_underflowed_entry_leaves_its_centre_term_to_the_end():
    # at n = 0 the entry at index 3 reads 0.0, so spaces.norm sums 0.11², 0.61², 0.7² and then
    # the centre's 0.61²; summing the centre term first gives 1.1163780721601442, not ...144
    x = SparseVec({3: Fraction(1, 2**1150), 0: 0.11, 1: 0.61, 2: 0.7}, L2)
    target = (SparseVec.basis(L2, 3, 0.61), 1.1163780721601442)
    reports = hitting_times(DOUBLING, x, [target], 2)
    assert 0 in reports[0].times.members
    assert brute_hitting_times(DOUBLING, x, [target], 2)[0] == [list(reports[0].times.members)]


def test_sums_below_the_normal_range_are_left_to_spaces_norm():
    row = (ldexp(1.1, -530), ldexp(1.3, -531))
    ball = recurrence._Ball(SparseVec.zero(L2), 1.0, L2)
    assert ball.norm(row, {0: 0, 1: 1}, 0) is None
    # the subnormal sum lost bits, which spaces.norm avoids by rescaling
    assert sqrt(row[0] ** 2 + row[1] ** 2) != norm(SparseVec(dict(enumerate(row)), L2))


def test_lp_rows_take_the_direct_ball_test():
    # every row of an lp:3 scan is decided from its float terms; only the dead orbit's zero
    # vector, once per target, goes through ball_contains
    space = lp(3.0)
    T = ShiftOperator(RatioPowerWeights(2.0), space)
    x = SparseVec({i: 1 for i in range(51)}, space)
    targets = [(SparseVec.zero(space), 8), (SparseVec.basis(space, 0), Fraction(1, 2))]
    calls = []

    def counted(center, radius, v):
        calls.append(v)
        return ball_contains(center, radius, v)

    with patch.object(recurrence, "ball_contains", counted):
        reports = hitting_times(T, x, targets, 200)
    assert calls == [SparseVec.zero(space)] * 2
    assert [list(r.times.members) for r in reports] == brute_hitting_times(T, x, targets, 200)[0]


# ---------------------------------------------------------------------------
# direct routes under constant power-of-two weights


def _scan_free(T, x, targets, horizon):
    """hitting_times with every ball on the scan, as if no direct route applied."""
    with patch.object(recurrence, "_constant_pow2_rate", lambda w: None):
        return hitting_times(T, x, targets, horizon)


def test_zero_centred_c0_balls_build_no_orbit():
    space = c0()
    T = ShiftOperator(ConstantWeights(0.5), space)
    x = SparseVec({i: (-1) ** i * Fraction(i + 1, 64) for i in range(301)}, space)
    targets = [(SparseVec.zero(space), Fraction(1, 1000)), (SparseVec.zero(space), 4)]
    with patch.object(recurrence, "_Orbit", wraps=_Orbit) as built:
        reports = hitting_times(T, x, targets, 400)
    assert built.call_count == 0
    assert reports == _scan_free(T, x, targets, 400)
    assert [list(r.times.members) for r in reports] == brute_hitting_times(T, x, targets, 400)[0]


def test_narrow_balls_build_only_candidate_rows():
    # r <= ‖y‖: only the steps i - j with i in supp x and j in supp y can hit
    space = lp(2.0)
    T = ShiftOperator(ConstantWeights(2.0), space)
    x = SparseVec({3: Fraction(1, 8), 40: Fraction(1, 2**40), 41: -Fraction(1, 2**42)}, space)
    y = SparseVec({0: 1, 2: Fraction(1, 2)}, space)
    targets = [(y, norm(y)), (y, Fraction(3, 5))]
    steps = []
    row = recurrence._Pow2Orbit.row

    def counted(self, n):
        steps.append(n)
        return row(self, n)

    with patch.object(recurrence._Pow2Orbit, "row", counted), patch.object(recurrence, "_Orbit", wraps=_Orbit) as built:
        reports = hitting_times(T, x, targets, 100)
    assert built.call_count == 0
    assert sorted(set(steps)) == sorted({i - j for i in x.entries for j in y.entries if 0 <= i - j <= 100})
    assert len(steps) == 2 * len(set(steps))  # one row per candidate and target
    assert [list(r.times.members) for r in reports] == brute_hitting_times(T, x, targets, 100)[0]
    assert [r.times.members for r in reports] == [(1, 3, 38, 40), (3, 40)]


def test_mixed_targets_scan_only_the_balls_that_need_it():
    space = c0()
    T = ShiftOperator(ConstantWeights(-2.0), space)
    x = SparseVec({5: Fraction(1, 32), 7: Fraction(-3, 256), 0: 0.25}, space)
    e0 = SparseVec.basis(space, 0)
    targets = [(SparseVec.zero(space), 0.5), (e0, 2), (e0, Fraction(1, 2)), (e0 + e0, 2)]
    scanned = []
    scan = recurrence._scan

    def counted(orbit, balls, horizon):
        scanned.extend((ball.center, ball.radius) for ball in balls)
        return scan(orbit, balls, horizon)

    with patch.object(recurrence, "_scan", counted):
        reports = hitting_times(T, x, targets, 60)
    assert scanned == [targets[1]]  # r > ‖y‖: the one ball no direct route decides
    assert reports == _scan_free(T, x, targets, 60)
    assert [list(r.times.members) for r in reports] == brute_hitting_times(T, x, targets, 60)[0]


@pytest.mark.parametrize(
    "space,entries,radius,direct",
    [
        (L2, {0: 3, 1: 4}, 5, True),  # the tie r = ‖y‖
        (L2, {0: 3, 1: 4}, Fraction(5) + Fraction(1, 10**30), False),
        (c0(), {0: -2}, 2.0, True),
        (L2, {0: Fraction(1, 2**600)}, 1e-300, False),  # ‖y‖ comes from the rescaled norm
        (L2, {0: Fraction(2**2000)}, 1, False),  # no float value
        (L2, {0: 2.0**500}, 1, False),  # ‖y‖**2 past 2**1000: an overflowing row may land near ‖y‖
        (lp(3.0), {0: 2.0**300}, 1, True),
        (c0(), {0: 2.0**1000}, 1, True),  # a c0 maximum never rescales
    ],
)
def test_only_balls_within_their_centre_norm_take_the_candidates(space, entries, radius, direct):
    ball = recurrence._Ball(SparseVec(entries, space), radius, space)
    assert ball.misses_off_support == direct


POW2_CONSTANTS = [ConstantWeights(sign * 2.0**k) for sign in (1, -1) for k in range(-3, 4)]
# the float neighbours of ±2**k are no powers of two, so they take the scan
NEAR_POW2_CONSTANTS = [
    ConstantWeights(nextafter(sign * 2.0**k, toward)) for sign in (1, -1) for k in (-3, 0, 3) for toward in (-inf, inf)
]
POW2_SPACES = [lp(1.0), lp(2.0), lp(3.0), c0()]
POW2_SPACES += [SpaceSpec(s.kind, s.p, True) for s in POW2_SPACES]

edge_scalars = st.one_of(
    scalars,
    st.builds(  # near the overflow cap, and deep in or below the subnormal range
        lambda num, e: Fraction(num) * Fraction(2) ** e,
        st.integers(-(2**20), 2**20).filter(bool),
        st.one_of(st.integers(960, 1000), st.integers(-1130, -1030)),
    ),
)


@st.composite
def pow2_cases(draw):
    space = draw(st.sampled_from(POW2_SPACES))
    low = -30 if space.bilateral else 0
    pairs = draw(st.lists(st.tuples(st.integers(low, 80), edge_scalars), max_size=8, unique_by=lambda p: p[0]))
    x = SparseVec(dict(pairs), space)
    centres = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(low, 40), edge_scalars, min_size=1, max_size=3),
        st.just(dict(pairs[:2])),
    )
    targets = []
    for center in draw(st.lists(centres.map(lambda c: SparseVec(c, space)), min_size=1, max_size=3)):
        size = norm(center)
        radii = [1e-3, 1.0, 1e6, Fraction(1, 3), 5e-324]
        if 0 < size < inf:  # both sides of ‖y‖, the tie and a Fraction radius below it
            radii += [size, nextafter(size, 0), nextafter(size, inf), size / 2, 2 * size, Fraction(size) * Fraction(2, 3)]
        targets.append((center, draw(st.sampled_from([r for r in radii if r > 0]))))
    return ShiftOperator(draw(st.sampled_from(POW2_CONSTANTS + NEAR_POW2_CONSTANTS)), space), x, targets


@given(case=pow2_cases(), horizon=st.integers(1, 300), cap=st.sampled_from([996, 200, -3]))
@settings(max_examples=150, deadline=None)
def test_direct_routes_match_the_brute_oracle(case, horizon, cap):
    T, x, targets = case
    with patch.object(recurrence, "OVERFLOW_LOG2", cap):
        reports = hitting_times(T, x, targets, horizon)
        scanned = _scan_free(T, x, targets, horizon)
    times, truncated_at = brute_hitting_times(T, x, targets, horizon, cap)
    assert [list(r.times.members) for r in reports] == times
    assert all(r.truncated_at == truncated_at for r in reports)
    assert reports == scanned  # every field, densities included


# ---------------------------------------------------------------------------
# ball tests that stop at the first prefix of terms that settles them

STOP_SPACES = [c0(), lp(1.0), lp(2.0), lp(1.5), lp(3.0), lp(2.0, bilateral=True), lp(1.5, bilateral=True),
               c0(bilateral=True)]


def _radii_around(size):
    """Float, Fraction and int radii on a prefix size and just either side of it."""
    if not 0 < size < inf:
        return [1.0]
    exact = Fraction(size)
    radii = [size, nextafter(size, 0), nextafter(size, inf), exact, exact * (1 + Fraction(1, 2**70)),
             exact * (1 - Fraction(1, 2**70)), floor(size), ceil(size)]
    return [r for r in radii if r > 0]


@st.composite
def stop_radii(draw):
    """A space of STOP_SPACES and a float, Fraction, int or on-sphere radius (the norm of a
    vector in that space, and just either side of it)."""
    space = draw(st.sampled_from(STOP_SPACES))
    on_sphere = st.lists(edge_scalars, min_size=1, max_size=6).flatmap(
        lambda entries: st.sampled_from(_radii_around(norm(SparseVec(dict(enumerate(entries)), space))))
    )
    radius = draw(st.one_of(
        st.floats(min_value=5e-324, max_value=1e300),
        st.fractions(min_value=Fraction(1, 10**320), max_value=10**300).filter(bool),
        st.integers(1, 10**310),
        on_sphere,
    ))
    return space, radius


@given(case=stop_radii())
@settings(max_examples=400, deadline=None)
def test_no_stop_total_lies_below_the_exact_threshold(case):
    space, radius = case
    # every total from the stop on has a size of at least the radius, so a stopped row lies outside the ball
    stop = _stop_total(radius, space)
    if stop is not None:
        assert stop >= brute_stop_threshold(radius, space)


@st.composite
def stop_cases(draw):
    """Orbit cases whose radii are the size of a prefix of the terms of one orbit point
    (in x order, so the scan's sum reaches the radius exactly there) or of the centre
    (so r <= ‖c‖ and power-of-two constants take the candidate route)."""
    space = draw(st.sampled_from(STOP_SPACES))
    w = draw(st.sampled_from(CONSTANTS + POW2_CONSTANTS + ([] if space.bilateral else UNILATERAL_WEIGHTS)))
    T = ShiftOperator(w, space)
    low = -30 if space.bilateral else 0
    pairs = draw(st.lists(st.tuples(st.integers(low, 80), edge_scalars), min_size=1, max_size=8,
                          unique_by=lambda p: p[0]))
    x = SparseVec(dict(pairs), space)
    horizon, cap = draw(st.integers(1, 120)), draw(st.sampled_from([996, 200, -3]))
    points = [list(v.entries.items()) for _, v in brute_orbit(T, x, horizon, cap) if v]
    centres = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(low, 40), edge_scalars, min_size=1, max_size=3),
        st.just(dict(pairs[:2])),
    )
    targets = []
    for centre in draw(st.lists(centres, min_size=1, max_size=3)):
        sources = points + ([list(centre.items())] if centre else [])
        entries = draw(st.sampled_from(sources or [[]]))
        prefix = SparseVec(dict(entries[: draw(st.integers(1, max(1, len(entries))))]), space)
        targets.append((SparseVec(centre, space), draw(st.sampled_from(_radii_around(norm(prefix))))))
    return T, x, targets, horizon, cap


@given(case=stop_cases())
@settings(max_examples=200, deadline=None)
def test_hitting_times_on_the_stop_match_brute_oracle(case):
    T, x, targets, horizon, cap = case
    with patch.object(recurrence, "OVERFLOW_LOG2", cap):
        reports = hitting_times(T, x, targets, horizon)
    times, truncated_at = brute_hitting_times(T, x, targets, horizon, cap)
    assert [list(r.times.members) for r in reports] == times
    assert all(r.truncated_at == truncated_at for r in reports)
    _check_rows_and_norms(T, x, targets, horizon)


def test_ball_tests_read_a_fraction_of_the_terms():
    # the CLI_MATRIX ratio-power row: every live entry is at least 1, so at most 64 terms
    # settle zero:@8 and two settle e:0@1/2, and the zeros of entries that left are skipped
    space = L2
    T = ShiftOperator(RatioPowerWeights(2.0), space)
    x = SparseVec({i: 1 for i in range(301)}, space)
    targets = [(SparseVec.zero(space), 8), (SparseVec.basis(space, 0), Fraction(1, 2))]
    formed = 0

    def counted(values, space):
        nonlocal formed
        for term in _float_terms(values, space):
            formed += 1
            yield term

    with patch.object(recurrence, "_float_terms", counted):
        reports = hitting_times(T, x, targets, 400)
    cells = sum(301 - n for n in range(301)) * len(targets)  # live entries x rows x targets
    assert formed <= cells // 2
    assert [list(r.times.members) for r in reports] == brute_hitting_times(T, x, targets, 400)[0]


def test_a_near_power_of_two_is_scanned():
    # 7.999999999999999**60 * 2**-180 is 0.9999999999999933, outside the ball of radius 1e-15 around e_0
    T = ShiftOperator(ConstantWeights(7.999999999999999), L2)
    x = SparseVec({60: Fraction(1, 2**180)}, L2)
    targets = [(SparseVec.basis(L2, 0), 1e-15)]
    reports = hitting_times(T, x, targets, 60)
    assert [list(r.times.members) for r in reports] == brute_hitting_times(T, x, targets, 60)[0] == [[]]


def test_blocks_stay_within_their_stride():
    T = ShiftOperator(ConstantWeights(2.0**300), lp(2.0, bilateral=True))
    orbit = _Orbit(T, SparseVec.basis(T.space, 0, 3), 10)
    assert orbit.stride == 1
    with pytest.raises(ValueError):
        orbit.step(2)
    rows, over = orbit.step(1)
    assert rows == [(3.0,)] and over is None
    assert orbit.step(1) == ([(3 * 2.0**300,)], None)


@pytest.mark.parametrize(
    "space,horizon,reach",
    [(L2, 3, 3), (lp(2.0, bilateral=True), 3, 3), (L2, 50, 6)],  # e_5 has left a unilateral space by step 6
)
def test_steps_past_the_weight_table_are_refused(space, horizon, reach):
    orbit = _Orbit(ShiftOperator(ConstantWeights(2.0), space), SparseVec.basis(space, 5), horizon)
    assert orbit.reach == reach
    rows, over = orbit.step(reach + 1)
    assert len(rows) == reach + 1 and over is None
    with pytest.raises(ValueError):
        orbit.step(1)


def test_fraction_radius_compared_exactly():
    # float(1/3) < 1/3 < nextafter(float(1/3), 1) and float(1/10) > 1/10
    for value, radius, inside in ((1 / 3, Fraction(1, 3), True), (0.1, Fraction(1, 10), False)):
        x = SparseVec.basis(L2, 0, value)
        reports = hitting_times(DOUBLING, x, [(SparseVec.zero(L2), radius)], 1)
        assert reports[0].times.members == ((0, 1) if inside else (1,))
        assert brute_hitting_times(DOUBLING, x, [(SparseVec.zero(L2), radius)], 1)[0] == [list(reports[0].times.members)]


def test_entries_that_left_never_reach_the_cap():
    # with a cap of -3 only entries of magnitude >= 1/8 truncate; e_2 = 1/16 leaves at n = 3,
    # inside the first block, and must not count as an entry at scale 2**0 from then on
    x = SparseVec({2: Fraction(1, 16), 40: Fraction(1, 1024)}, L2)
    T = ShiftOperator(ConstantWeights(0.5), L2)
    targets = [(SparseVec.zero(L2), 0.01)]
    with patch.object(recurrence, "OVERFLOW_LOG2", -3):
        reports = hitting_times(T, x, targets, 60)
    assert reports[0].truncated_at is None
    assert brute_hitting_times(T, x, targets, 60, -3) == ([list(reports[0].times.members)], None)


def test_hitting_times_cross_a_full_block():
    # 8 entries and a 2-entry centre: 2**15 // 10 rows per block, so the horizon spans two blocks
    space = lp(2.0, bilateral=True)
    T = ShiftOperator(ConstantWeights(-0.5), space)
    x = SparseVec({i * 7 - 20: Fraction(3 * i + 1, 2 ** (i + 1)) for i in range(8)}, space)
    targets = [(SparseVec({0: 1, -5: Fraction(1, 4)}, space), 1.2), (SparseVec.zero(space), 1e-3)]
    rows = recurrence._BLOCK // 10
    horizon = 2 * rows + 17
    reports = hitting_times(T, x, targets, horizon)
    times, truncated_at = brute_hitting_times(T, x, targets, horizon)
    assert [list(r.times.members) for r in reports] == times
    assert truncated_at is None and reports[0].truncated_at is None
    assert min(times[0]) < rows < 2 * rows < max(times[0]) and times[1][-1] == horizon


@given(
    case=orbit_cases(),
    horizon=st.integers(1, 200),
    probes=st.integers(0, 3),
    stride=st.integers(7, 60),
    block=st.sampled_from([8, recurrence._BLOCK]),
)
@settings(max_examples=60, deadline=None)
def test_return_set_matches_brute_oracle(case, horizon, probes, stride, block):
    T, x, targets = case
    U, V = (x, 1.0), targets[0]
    with patch.object(recurrence, "_BLOCK", block):
        rep = return_set(T, U, V, horizon, probe_grid=probes, witness_stride=stride)
    assert list(rep.times.members) == brute_return_times(T, U, V, horizon, probes, stride)


def test_return_set_probe_below_float_range_keeps_only_true_returns():
    # every entry of the probe materializes to 0.0 at n = 0, but the orbit is alive:
    # the orbit point is 2**(n - 1150) at index 1200 - n, outside from n = 1149 until it leaves at 1201
    x = SparseVec({1200: Fraction(1, 2**1150)}, L2)
    U, V = (x, 0.5), (SparseVec.zero(L2), 0.5)
    rep = return_set(DOUBLING, U, V, 1300, probe_grid=0, witness_stride=5000)
    hits = hitting_times(DOUBLING, x, [V], 1300)[0].times.members
    assert hits == tuple(range(1149)) + tuple(range(1201, 1301))
    assert rep.times.members == hits == tuple(brute_return_times(DOUBLING, U, V, 1300, 0, 5000))


def test_return_set_probe_below_float_range_finds_a_late_return():
    # the orbit point 2**(n - 1200) at index 1200 - n is e_0 at n = 1200
    x = SparseVec({1200: Fraction(1, 2**1200)}, L2)
    U, V = (x, 0.5), (SparseVec.basis(L2, 0), 0.5)
    rep = return_set(DOUBLING, U, V, 1300, probe_grid=0, witness_stride=5000)
    hits = hitting_times(DOUBLING, x, [V], 1300)[0].times.members
    assert rep.times.members == hits == tuple(brute_return_times(DOUBLING, U, V, 1300, 0, 5000)) == (1200,)


# ---------------------------------------------------------------------------
# classification


def _report_for(times, horizon=10000):
    tset = ExplicitSet(tuple(times))
    dens = estimate_densities(tset, horizon, 1000)
    from hyperorbit.recurrence import HittingReport

    return HittingReport(0, SparseVec.zero(L2), 1.0, tset, dens, horizon, None)


def test_classify_full_times_frequent():
    c = classify([_report_for(range(0, 10001))])
    assert c.overall == "frequent"


def test_classify_factorial_blocks_reiterative_only():
    times = FactorialBlockSet().members_in(0, 3628800)
    tset = ExplicitSet(tuple(times))
    dens = estimate_densities(tset, 3628800, 9)
    from hyperorbit.recurrence import HittingReport

    rep = HittingReport(0, SparseVec.zero(L2), 1.0, tset, dens, 3628800, None)
    c = classify([rep])
    assert c.per_target[0].level == "reiterative"


def test_classify_empty_times_none():
    c = classify([_report_for([])])
    assert c.overall == "none"


def test_classify_overall_is_weakest():
    c = classify([_report_for(range(0, 10001)), _report_for([])])
    assert c.overall == "none"
    assert c.per_target[0].level == "frequent"


def test_classify_respects_chain():
    # levels are nested: a frequent report is also u-frequent and reiterative
    rep = _report_for(range(0, 10001))
    d = rep.densities
    assert d.lower_density <= d.upper_density <= d.upper_banach


# ---------------------------------------------------------------------------
# return sets


def test_return_set_identity_time_zero():
    dense = DenseDyadicSequence(L2)
    U = (dense.item(1), 0.5)
    rep = return_set(DOUBLING, U, U, 200, probe_grid=2, witness_stride=50)
    assert 0 in rep.times.members


def test_return_set_syndetic_for_doubling():
    dense = DenseDyadicSequence(L2)
    U = (dense.item(2), 0.25)
    V = (dense.item(3), 0.25)
    rep = return_set(DOUBLING, U, V, 5000, probe_grid=4, witness_stride=40)
    assert rep.syndetic is not None and rep.syndetic.syndetic
    assert rep.syndetic.gap_bound <= 64
    assert rep.subset_only


def test_return_set_times_are_verified():
    # every reported time carries an explicit witness: re-derive one and check
    dense = DenseDyadicSequence(L2)
    U = (dense.item(1), 0.25)
    V = (dense.item(4), 0.25)
    rep = return_set(DOUBLING, U, V, 1000, probe_grid=2, witness_stride=100)
    from hyperorbit.shifts import apply_right_inverse

    for t in rep.times.members[:5]:
        drift = V[0] - apply_backward(DOUBLING, U[0], t)
        witness = U[0] + apply_right_inverse(DOUBLING, drift, t)
        if ball_contains(U[0], U[1], witness):
            assert ball_contains(V[0], V[1], apply_backward(DOUBLING, witness, t))


def test_return_set_difference_inclusion():
    # s1, s2 in N(x, U ∩ T^-n V) makes s1 - s2 + n a return time of (U, V),
    # witnessed by the orbit point T^{s2} x itself
    n = 64
    x = SparseVec({0: Fraction(1), 64: Fraction(1, 2**64), 128: Fraction(1, 2**128)}, L2)
    U = (x, 0.75)
    V = (apply_backward(DOUBLING, x, n), 0.75)
    hits = []
    for s in range(0, 129):
        here = apply_backward(DOUBLING, x, s)
        ahead = apply_backward(DOUBLING, x, s + n)
        if ball_contains(U[0], U[1], here) and ball_contains(V[0], V[1], ahead):
            hits.append(s)
    assert {0, 64} <= set(hits)
    for s1 in hits:
        for s2 in hits:
            if s1 < s2:
                continue
            witness = apply_backward(DOUBLING, x, s2)
            image = apply_backward(DOUBLING, witness, s1 - s2 + n)
            assert ball_contains(U[0], U[1], witness)
            assert ball_contains(V[0], V[1], image)


# ---------------------------------------------------------------------------
# correlation


def test_correlation_multiples_of_three():
    A = PeriodicSet(3, (0,))
    rep = correlation_scan(A, Fraction(1, 2), 12, [(0, 3000), (3000, 3000), (6000, 3000)])
    assert rep.delta == Fraction(1, 3)
    for k in range(1, 13):
        want = periodic_eta(3, (0,), k)
        assert rep.eta[k] == want
    assert rep.levels_in_f.members == (3, 6, 9, 12)
    assert rep.syndetic.syndetic and rep.syndetic.gap_bound == 3
    assert rep.antichain_bound == 5
    assert len(rep.antichain) <= 5


def test_correlation_full_set():
    A = PeriodicSet(1, (0,))
    rep = correlation_scan(A, Fraction(1, 2), 6, [(0, 1000)])
    assert rep.delta == 1
    assert all(rep.eta[k] == 1 for k in range(1, 7))
    assert rep.levels_in_f.members == (1, 2, 3, 4, 5, 6)


def test_correlation_eta_bounded_by_delta():
    A = PeriodicSet(7, (0, 2))
    rep = correlation_scan(A, Fraction(1, 4), 10, [(0, 700), (700, 1400)])
    assert all(rep.eta[k] <= rep.delta for k in rep.eta)


def test_correlation_matches_period_arithmetic_oracle():
    # aligned whole-period windows make the scan agree with the exact
    # residue-counting oracle
    residues = (0, 2)
    A = PeriodicSet(7, residues)
    rep = correlation_scan(A, Fraction(1, 4), 10, [(0, 700)])
    assert rep.delta == Fraction(len(residues), 7)
    for k in range(1, 11):
        assert rep.eta[k] == periodic_eta(7, residues, k)


_EXPLICIT = ExplicitSet(tuple(sorted({(n * n * 7 + 3 * n) % 613 for n in range(160)})))
_SEGMENTS = parse_set_spec("segments:0:10:1:1;10:40:1:3;100:300:2:5")
# (set, its membership by definition, k_max, windows with m > 0 that k_max reaches past)
CORRELATION_CASES = [
    (_EXPLICIT, set(_EXPLICIT.members).__contains__, 25, [(3, 40), (200, 90), (580, 30)]),
    (SquareSet(), lambda n: n >= 0 and isqrt(n) ** 2 == n, 40, [(90, 50), (1000, 80), (3, 2)]),
    (DigitNeighborhoodSet(), brute_s_member, 30, [(95, 20), (985, 30), (9990, 25)]),
    (_SEGMENTS, lambda n: any(a <= n < b and (n - a) % d < c for a, b, c, d in _SEGMENTS.segments), 25,
     [(5, 20), (120, 33), (290, 15), (35, 70)]),
]
CORRELATION_IDS = ["explicit", "squares", "s-set", "segments"]


@pytest.mark.parametrize("A,member,k_max,windows", CORRELATION_CASES, ids=CORRELATION_IDS)
def test_correlation_matches_scanning_oracle(A, member, k_max, windows):
    delta, eta = brute_correlation(member, k_max, windows)
    epsilon = Fraction(1, 3)
    rep = correlation_scan(A, epsilon, k_max, windows)
    assert rep.delta == delta
    assert rep.eta == eta
    assert rep.levels_in_f.members == tuple(k for k in eta if eta[k] > (1 - epsilon) * delta**2)


def test_correlation_scan_asks_no_single_point(monkeypatch):
    def refuse(self, n):
        raise AssertionError(f"correlation_scan asked {type(self).__name__} about the point {n}")

    for cls in (IndexSet, PeriodicSet, DigitNeighborhoodSet):
        monkeypatch.setattr(cls, "contains", refuse)
    for A, _, k_max, windows in CORRELATION_CASES + [(PeriodicSet(7, (0, 2)), None, 10, [(0, 700), (5, 30)])]:
        correlation_scan(A, Fraction(1, 3), k_max, windows)


def test_correlation_requires_mass():
    with pytest.raises(NoDataError):
        correlation_scan(ExplicitSet(()), Fraction(1, 2), 3, [(0, 100)])


# ---------------------------------------------------------------------------
# weighted return sums


def test_beta_evens_constant_profile():
    A = PeriodicSet(2, (0,))
    rep = return_weight_sums(A, AlphaProfile("constant"), 2000)
    for n in (0, 100, 1000):
        want = len(A.members_in(n + 1, 2000))
        assert rep.betas[n] == want
    assert rep.growing


def test_beta_finite_set_flat():
    A = ExplicitSet((5, 10, 15))
    rep = return_weight_sums(A, AlphaProfile("constant"), 4000)
    assert not rep.growing
    assert max(rep.betas.values()) == 2.0  # alpha(5) + alpha(10) at n = 5


def test_beta_factorial_blocks_grow():
    A = FactorialBlockSet()
    rep = return_weight_sums(A, AlphaProfile("harmonic"), 40320)
    curve = [v for _, v in rep.growth_curve]
    assert curve[0] < curve[-1]


# (members, alpha, horizon) landing on each route of return_weight_sums: the product per cut,
# and the pairs over the differences that occur, with more pairs than alpha's reach and with fewer
_ROUTE_EXAMPLES = {
    "kronecker": (list(range(60)), AlphaProfile("harmonic"), 300),
    "kronecker-cutoff": (list(range(40)), AlphaProfile("constant", 30), 40),
    "pairs": (list(range(0, 300, 10)), AlphaProfile("harmonic", 200), 300),
    "pairs-long-span": ([3, 290], AlphaProfile("constant"), 300),
}


@pytest.mark.parametrize("route", sorted(_ROUTE_EXAMPLES))
def test_return_sum_examples_land_on_their_routes(route):
    members, alpha, horizon = _ROUTE_EXAMPLES[route]
    with (
        patch.object(recurrence, "_kronecker_sums", wraps=recurrence._kronecker_sums) as product,
        patch.object(recurrence, "_pair_sums", wraps=recurrence._pair_sums) as pairs,
    ):
        return_weight_sums(ExplicitSet(tuple(members)), alpha, horizon)
    assert product.called == route.startswith("kronecker")
    assert pairs.called == (not product.called)


@given(
    members=st.lists(st.integers(0, 300), max_size=60),
    alpha=st.builds(AlphaProfile, st.sampled_from(["constant", "harmonic"]), st.none() | st.integers(2, 200)),
    horizon=st.integers(20, 300),
)
@settings(max_examples=80, deadline=None)
@example(*_ROUTE_EXAMPLES["kronecker"])
@example(*_ROUTE_EXAMPLES["kronecker-cutoff"])
@example(*_ROUTE_EXAMPLES["pairs"])
@example(*_ROUTE_EXAMPLES["pairs-long-span"])
@example([0, 12], AlphaProfile("constant", 12), 20)  # no pair within reach: no differences to tabulate
def test_return_weight_sums_match_brute_oracle(members, alpha, horizon):
    A = ExplicitSet(tuple(members))
    try:
        rep = return_weight_sums(A, alpha, horizon)
    except (UsageError, NoDataError):
        assume(False)
    betas, curve = brute_return_weight_sums(A, alpha, horizon)
    assert list(rep.betas.items()) == list(betas.items())
    assert rep.growth_curve == curve
    assert all(type(b) is float for b in rep.betas.values())
    assert all(type(b) is float for _, b in rep.growth_curve)


@given(
    members=st.lists(st.integers(0, 400), min_size=1, max_size=80, unique=True).map(sorted),
    alpha=st.builds(AlphaProfile, st.sampled_from(["constant", "harmonic"]), st.none() | st.integers(2, 400)),
    cuts=st.lists(st.integers(0, 400), min_size=1, max_size=3).map(sorted),
)
@settings(max_examples=80, deadline=None)
def test_return_sum_routes_give_the_same_ints(members, alpha, cuts):
    # both routes sum one fixed-point table of alpha, the pairs only its occurring differences:
    # their exact ints agree, cut by cut
    ends = [bisect_right(members, c) for c in cuts]
    span = members[-1] - members[0]
    reach = span if alpha.cutoff is None else min(span, alpha.cutoff - 1)
    far = [bisect_right(members, n + reach) for n in members]
    den, table = recurrence._fixed_point(alpha, range(reach + 1))
    table = list(table)
    rows = recurrence._kronecker_sums(members, ends, table, den)
    assert [len(row) for row in rows] == ends
    occurring = {d: table[d] for d in recurrence._differences(members, far)}
    assert recurrence._pair_sums(members, ends, occurring, far) == rows


@pytest.mark.parametrize("kind", ["constant", "harmonic"])
def test_beta_long_span_sums_its_one_pair(kind):
    # two members 10**7 apart: alpha is taken at their one difference, not tabulated over the span
    A, alpha = ExplicitSet((0, 10**7)), AlphaProfile(kind)
    with patch.object(recurrence, "_fixed_point", wraps=recurrence._fixed_point) as fixed:
        rep = return_weight_sums(A, alpha, 10**7)
    assert [list(call.args[1]) for call in fixed.call_args_list] == [[10**7]]
    betas, curve = brute_return_weight_sums(A, alpha, 10**7)
    assert rep.betas == betas and rep.growth_curve == curve
    assert rep.betas[0] == alpha.value(10**7)


def test_alpha_profile_validation():
    # below a cutoff of 2 every alpha_n is 0: the cutoff is named, not the dying mass
    for cutoff in (1, 0, -1):
        with pytest.raises(UsageError, match=f"the cutoff must be >= 2, got {cutoff}"):
            AlphaProfile("constant", cutoff)
    assert AlphaProfile("harmonic", 2).value(1) == 1.0
    # the late half (1000, 2000] needs mass: alpha_1001 is nonzero only for a cutoff above 1001
    with pytest.raises(UsageError, match=r"cutoff 1001 leaves no profile mass in \(1000, 2000\]"):
        AlphaProfile("harmonic", 1001).validate(2000)
    AlphaProfile("harmonic", 1002).validate(2000)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(("constant", "harmonic")),
    st.integers(1, 3000).flatmap(
        lambda horizon: st.tuples(st.just(horizon), st.none() | st.integers(max(2, horizon // 2 - 2), horizon // 2 + 4))
    ),
)
@example("harmonic", (2000, 1001))
@example("harmonic", (2000, 1002))
@example("constant", (1, 2))
@example("constant", (3, 2))
@example("constant", (3000, None))
def test_profile_check_matches_the_float_sums(kind, case):
    # the closed form (a cutoff past horizon // 2 + 1, or none) against the late-half sums it replaced
    horizon, cutoff = case
    profile = AlphaProfile(kind, cutoff)
    try:
        profile.validate(horizon)
        accepted = True
    except UsageError:
        accepted = False
    assert accepted == brute_profile_has_late_mass(profile, horizon)


# ---------------------------------------------------------------------------
# two-sided tail sums


def test_tail_sums_example():
    A = ExplicitSet((0, 10, 20))
    s = bilateral_tail_sums(ConstantWeights(2.0), 2.0, A, 10, 100)
    assert s.left == 2.0**-20
    assert s.right == 2.0**-20
    assert s.left_terms == 1 and s.right_terms == 1


def test_tail_sums_singleton():
    A = ExplicitSet((7,))
    s = bilateral_tail_sums(ConstantWeights(2.0), 2.0, A, 7, 100)
    assert s.left == 0.0 and s.right == 0.0


def test_tail_sums_need_membership():
    with pytest.raises(UsageError):
        bilateral_tail_sums(ConstantWeights(2.0), 2.0, ExplicitSet((1,)), 2, 10)


def test_tail_sums_need_bilateral():
    with pytest.raises(UsageError):
        bilateral_tail_sums(RatioPowerWeights(2.0), 2.0, ExplicitSet((1,)), 1, 10)


@pytest.mark.parametrize("weights", [ConstantWeights(2.0), RatioPowerWeights(2.0)], ids=["pow2-route", "scan"])
def test_a_vector_off_the_operators_space_is_refused(weights):
    # x on the bilateral l2 space against an operator on the unilateral one: before the check the
    # orbit ran on x's space and found no hit, and return_set reported time 0
    T = ShiftOperator(weights, lp(2.0))
    x = SparseVec({-3: 1}, lp(2.0, bilateral=True))
    with pytest.raises(SpaceMismatchError):
        hitting_times(T, x, [(SparseVec.zero(x.space), 0.5)], 5)
    with pytest.raises(SpaceMismatchError):
        return_set(T, (x, 0.5), (x, 0.5), 5)
