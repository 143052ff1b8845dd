import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperorbit import (
    ConstantWeights,
    DenseDyadicSequence,
    RatioPowerWeights,
    SetFamily,
    ShiftOperator,
    SparseVec,
    assemble_vector,
    c0,
    check_gap_family,
    dyadic_block_family,
    lp,
    norm,
    prime_power_family,
    proof_bound,
    select_subsequence,
    verify_orbit_bounds,
)
from hyperorbit.constructor import ConstructionPlan, HCVector, _min_distance_between
from hyperorbit.errors import FamilyExhaustedError, UsageError
from hyperorbit.indexsets import ExplicitSet, PeriodicSet

from conftest import brute_gap_ok, brute_min_distance, brute_orbit_bounds

L2 = lp(2.0)
DOUBLING = ShiftOperator(ConstantWeights(2.0), L2)


# ---------------------------------------------------------------------------
# dense sequence


def test_dense_sequence_head():
    dense = DenseDyadicSequence(L2)
    assert dense.item(1) == SparseVec({0: Fraction(1)}, L2)
    assert dense.item(2) == SparseVec({0: Fraction(-1)}, L2)
    assert dense.item(3) == SparseVec({0: Fraction(1, 2)}, L2)
    assert dense.item(4) == SparseVec({0: Fraction(-1, 2)}, L2)
    assert dense.item(5) == SparseVec({1: Fraction(1)}, L2)


def test_dense_sequence_no_repeats():
    dense = DenseDyadicSequence(L2)
    seen = [dense.item(l) for l in range(1, 200)]
    assert len(set(seen)) == len(seen)


def test_dense_sequence_deterministic():
    a = DenseDyadicSequence(L2)
    b = DenseDyadicSequence(L2)
    for l in range(1, 60):
        assert a.item(l) == b.item(l)


# ---------------------------------------------------------------------------
# built-in families


def test_dyadic_family_gap_property():
    fam = dyadic_block_family(6)
    assert check_gap_family(fam, 100000).ok
    tagged = []
    for k, s in fam.enumerate_levels():
        tagged.extend((m, k) for m in s.members_in(0, 3000))
    assert brute_gap_ok(sorted(tagged))


def test_prime_power_family_gap_property():
    fam = prime_power_family(4)
    assert check_gap_family(fam, 10**6).ok


def test_prime_power_family_raw_would_fail():
    fam = prime_power_family(2, min_exponent=1)
    assert not check_gap_family(fam, 100).ok  # 8 and 9 collide


# ---------------------------------------------------------------------------
# plan selection


def test_select_doubling_depth_four():
    fam = dyadic_block_family(8)
    plan = select_subsequence(DOUBLING, fam, 4, 10000)
    assert plan.selected == (1, 2, 3, 4)
    assert all(c.ok for c in plan.certificates)
    kinds = {c.condition for c in plan.certificates}
    assert kinds == {"support-gap", "i", "ii", "iii", "iv"}


def test_certificates_match_numeric_tails():
    # oracle: directly sum ||S^n y||^2 = 4^-n ||y||^2 over the progression members
    fam = dyadic_block_family(8)
    plan = select_subsequence(DOUBLING, fam, 2, 10000)
    for c in plan.certificates:
        if c.condition != "i" or c.against_level is None:
            continue
        k = plan.selected[c.against_level - 1]
        y = plan.targets[c.against_level - 1]
        members = plan.family.level(k).members_in(k, 4000)
        numeric = sum(
            sum(float(v) ** 2 for v in y.entries.values()) * 4.0 ** (-n) for n in members
        )
        assert numeric**0.5 <= c.bound + 1e-12


@pytest.mark.parametrize("space", [c0(), lp(3.0)], ids=["c0", "lp-3"])
def test_certificate_bounds_are_roots_of_direct_tail_sums(space):
    # condition i bounds level j's target seen from the certified level's times on: the p-th root
    # of the sum over those times n of ||S^n y||^p = 2**(-p n) ||y||^p, or on c0 their maximum
    T = ShiftOperator(ConstantWeights(2.0), space)
    plan = select_subsequence(T, dyadic_block_family(8), 2, 10000)
    checked = 0
    for c in plan.certificates:
        if c.condition != "i":
            continue
        y = plan.targets[c.against_level - 1]
        start = plan.selected[c.level - 1]
        times = plan.family.level(plan.selected[c.against_level - 1]).members_in(start, 4000)
        sizes = [float(abs(Fraction(v))) for v in y.entries.values()]
        if space.kind == "c0":
            numeric = max(sizes) * 2.0 ** -times[0]
        else:
            numeric = (sum(t**3 for t in sizes) * sum(8.0**-n for n in times)) ** (1 / 3)
        assert c.bound == pytest.approx(numeric, rel=1e-9)
        checked += 1
    assert checked == 3


@pytest.mark.parametrize("p", [65.0, 1000.0, 1e20])
def test_certificates_past_the_exact_exponent_bound_the_lp_tails(p):
    # past p = 64 the certificates are taken in l64, whose norm bounds every lp norm with p >= 64:
    # the plan is the l64 plan, found at once, and each condition-i bound covers the direct lp tail,
    # summed in log2 around its largest term so that no power of a term underflows
    start = time.perf_counter()
    plan = select_subsequence(ShiftOperator(ConstantWeights(2.0), lp(p)), dyadic_block_family(8), 2, 10000)
    assert time.perf_counter() - start < 1.0
    at_64 = select_subsequence(ShiftOperator(ConstantWeights(2.0), lp(64.0)), dyadic_block_family(8), 2, 10000)
    assert plan.selected == at_64.selected
    assert [c.bound for c in plan.certificates] == [c.bound for c in at_64.certificates]
    checked = 0
    for c in plan.certificates:
        if c.condition != "i":
            continue
        y = plan.targets[c.against_level - 1]
        start = plan.selected[c.level - 1]
        times = plan.family.level(plan.selected[c.against_level - 1]).members_in(start, 4000)
        logs = [math.log2(abs(Fraction(v))) - n for v in y.entries.values() for n in times]
        top = max(logs)
        direct = top + math.log2(sum(2.0 ** (p * (x - top)) for x in logs)) / p
        assert direct <= math.log2(c.bound) + 1e-9
        checked += 1
    assert checked == 3


def test_select_rejects_gap_violating_family():
    fam = SetFamily("clash", (ExplicitSet((10, 11)), ExplicitSet((12,))))
    with pytest.raises(UsageError):
        select_subsequence(DOUBLING, fam, 1, 100)


def test_unit_weights_exhaust_family():
    T = ShiftOperator(ConstantWeights(1.0), L2)
    fam = dyadic_block_family(4)
    with pytest.raises(FamilyExhaustedError) as err:
        select_subsequence(T, fam, 2, 5000)
    assert err.value.condition == "i"


def test_slow_growth_weights_exhaust_family():
    T = ShiftOperator(RatioPowerWeights(2.0), L2)
    fam = dyadic_block_family(4)
    with pytest.raises(FamilyExhaustedError):
        select_subsequence(T, fam, 1, 5000)


def test_plans_deterministic():
    fam = dyadic_block_family(8)
    p1 = select_subsequence(DOUBLING, fam, 3, 8000)
    p2 = select_subsequence(DOUBLING, fam, 3, 8000)
    assert p1.serialize() == p2.serialize()


# ---------------------------------------------------------------------------
# assembly


def test_assemble_small_explicit_plan():
    fam = SetFamily("two-times", (ExplicitSet((4, 8)),))
    dense = DenseDyadicSequence(L2)
    plan = ConstructionPlan(
        family=fam,
        selected=(1,),
        targets=(dense.item(1),),
        certificates=(),
        horizon=8,
        operator=DOUBLING.describe(),
    )
    hc = assemble_vector(plan, DOUBLING, 8)
    assert hc.x.entries == {4: Fraction(1, 16), 8: Fraction(1, 256)}


def test_assemble_empty_plan_is_zero():
    fam = SetFamily("empty", (ExplicitSet(()),))
    dense = DenseDyadicSequence(L2)
    plan = ConstructionPlan(fam, (1,), (dense.item(1),), (), 10, DOUBLING.describe())
    hc = assemble_vector(plan, DOUBLING, 10)
    assert not hc.x


def test_assembled_norm_below_level_tail_sums():
    # triangle inequality across levels: ||x|| is at most the sum over levels
    # of the full geometric tail sqrt(sum 4^-n) ||y_l||
    fam = dyadic_block_family(8)
    plan = select_subsequence(DOUBLING, fam, 3, 4000)
    hc = assemble_vector(plan, DOUBLING, 4000)
    cap = 0.0
    for l, k in enumerate(plan.selected, start=1):
        members = plan.family.level(k).members_in(0, 4000)
        cap += (sum(4.0 ** (-n) for n in members)) ** 0.5 * norm(plan.targets[l - 1])
    assert norm(hc.x) <= cap + 1e-12


# ---------------------------------------------------------------------------
# orbit bounds


@pytest.fixture(scope="module")
def verified_run():
    fam = dyadic_block_family(8)
    plan = select_subsequence(DOUBLING, fam, 4, 6000)
    hc = assemble_vector(plan, DOUBLING, 6064)
    report = verify_orbit_bounds(hc, DOUBLING, 6000)
    return plan, hc, report


def test_orbit_bounds_hold(verified_run):
    plan, hc, report = verified_run
    assert report.ok
    assert all(r.truncation_term < 1e-6 for r in report.rows)
    assert all(slack > 0 for slack in report.worst_slack.values())


def test_orbit_bound_values(verified_run):
    _, _, report = verified_run
    for r in report.rows:
        assert r.bound == float(proof_bound(r.level))


def test_corrupted_vector_reported(verified_run):
    plan, hc, _ = verified_run
    entries = dict(hc.x.entries)
    victim = plan.level_set(4).members_in(0, 6000)[0]  # a level-4 recovery time
    entries[victim] = entries[victim] + 1  # blown up to ~2^victim after recovery
    bad = HCVector(SparseVec(entries, L2), plan, hc.truncation)
    report = verify_orbit_bounds(bad, DOUBLING, 6000)
    assert not report.ok
    assert any(r.level == 4 and r.time == victim for r in report.violations)


def test_doubling_truncation_keeps_certificates(verified_run):
    plan, hc, report = verified_run
    bigger = assemble_vector(plan, DOUBLING, 2 * hc.truncation)
    report2 = verify_orbit_bounds(bigger, DOUBLING, 6000)
    assert report2.ok
    assert max(r.truncation_term for r in report2.rows) <= max(
        r.truncation_term for r in report.rows
    )


# ---------------------------------------------------------------------------
# the incremental verifier against the brute-force oracle


def _assert_matches_oracle(hc, T, horizon):
    report = verify_orbit_bounds(hc, T, horizon)
    oracle = brute_orbit_bounds(hc, T, horizon)
    assert report.rows == oracle.rows
    assert report.worst_slack == oracle.worst_slack
    assert report.violations == oracle.violations
    return report


def test_verifier_matches_oracle_on_constructed_vector(verified_run):
    _, hc, _ = verified_run
    assert _assert_matches_oracle(hc, DOUBLING, 6000).ok


def test_verifier_matches_oracle_on_corrupted_vector(verified_run):
    plan, hc, _ = verified_run
    entries = dict(hc.x.entries)
    victim = plan.level_set(4).members_in(0, 6000)[0]
    entries[victim] = entries[victim] + 1
    bad = HCVector(SparseVec(entries, L2), plan, hc.truncation)
    assert not _assert_matches_oracle(bad, DOUBLING, 6000).ok


def test_verifier_matches_oracle_past_the_support(verified_run):
    # times far beyond the assembly cutoff: n + W passes the last entry of x
    plan, _, _ = verified_run
    short = assemble_vector(plan, DOUBLING, 300)
    _assert_matches_oracle(short, DOUBLING, 700)


def test_truncation_term_saturates_past_the_float_range(verified_run):
    # the oracle's float conversion overflows here; the verifier reports inf
    plan, _, _ = verified_run
    report = verify_orbit_bounds(assemble_vector(plan, DOUBLING, 300), DOUBLING, 1200)
    assert max(r.truncation_term for r in report.rows) == float("inf")
    assert report.ok  # the exact comparison still decides every row


def _two_level_plan():
    fam = SetFamily("fours", (PeriodicSet(4, (1,)), PeriodicSet(8, (3,))))
    targets = (
        SparseVec({0: Fraction(1, 2), 2: Fraction(-3, 4)}, L2),  # a gap at index 1
        SparseVec({1: Fraction(5, 8)}, L2),
    )
    return ConstructionPlan(fam, (1, 2), targets, (), 20, DOUBLING.describe())


def test_verifier_matches_oracle_on_mixed_entries():
    plan = _two_level_plan()
    x = SparseVec({1: Fraction(1, 3), 3: 0.375, 4: Fraction(5, 64), 5: -1.25, 7: Fraction(2, 7)}, L2)
    _assert_matches_oracle(HCVector(x, plan, 8), DOUBLING, 20)


def test_truncation_term_matches_a_direct_tail_sum():
    # sum 4**(n - m)·‖y_l‖² over every member m past the cutoff of every
    # level, up to a limit whose remainder is below 4**-300 of the total
    plan = _two_level_plan()
    cutoff, limit = 8, 400
    report = verify_orbit_bounds(assemble_vector(plan, DOUBLING, cutoff), DOUBLING, 20)
    assert len(report.rows) == 8
    for row in report.rows:
        total = Fraction(0)
        for k, y in zip(plan.selected, plan.targets):
            y_sq = sum(Fraction(v) ** 2 for v in y.entries.values())
            for m in plan.family.level(k).members_in(cutoff + 1, limit):
                total += Fraction(4) ** (row.time - m) * y_sq
        assert row.truncation_term == pytest.approx(math.sqrt(total), rel=1e-14)
    # by hand at n = 1: members 9, 13, ... and 11, 19, ...
    first = report.rows[0]
    assert first.time == 1
    by_hand = Fraction(13, 16) * Fraction(256, 255) / 4**8 + Fraction(25, 64) * Fraction(65536, 65535) / 4**10
    assert first.truncation_term == pytest.approx(math.sqrt(by_hand), rel=1e-14)


_DYADIC = st.builds(lambda m, k: Fraction(m, 2**k), st.integers(-64, 64).filter(bool), st.integers(0, 12))
_NON_DYADIC = st.builds(
    lambda m, d, k: Fraction(m, d * 2**k),
    st.integers(-64, 64).filter(bool),
    st.sampled_from((3, 5, 7, 9)),
    st.integers(0, 6),
)
# small dyadic floats: at shifts up to 2**24 the oracle's float - Fraction
# subtraction against these targets stays exact
_FLOAT = st.builds(lambda m, k: m / 2**k, st.integers(-255, 255).filter(bool), st.integers(0, 10))


@st.composite
def _orbit_cases(draw):
    space = lp(2.0, bilateral=draw(st.booleans()))
    T = ShiftOperator(ConstantWeights(draw(st.sampled_from((2.0, 4.0)))), space)
    lo = -4 if space.bilateral else 0
    sets, targets = [], []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.integers(1, 6))
        sets.append(PeriodicSet(g, (draw(st.integers(0, g - 1)),)))
        targets.append(SparseVec(draw(st.dictionaries(st.integers(lo, 5), _DYADIC, min_size=1, max_size=3)), space))
    selected = tuple(range(1, len(sets) + 1))
    plan = ConstructionPlan(SetFamily("random", tuple(sets)), selected, tuple(targets), (), 12, T.describe())
    truncation = draw(st.integers(0, 30))
    if draw(st.booleans()):
        noise = draw(st.dictionaries(st.integers(lo, 24), _DYADIC, max_size=4))
        x = assemble_vector(plan, T, truncation).x + SparseVec(noise, space)
    else:
        entries = st.one_of(_DYADIC, _NON_DYADIC, _FLOAT)
        x = SparseVec(draw(st.dictionaries(st.integers(lo, 24), entries, max_size=10)), space)
    return HCVector(x, plan, truncation), T


@settings(max_examples=200, deadline=None)
@given(_orbit_cases(), st.integers(0, 12))
def test_verifier_matches_oracle(case, horizon):
    hc, T = case
    _assert_matches_oracle(hc, T, horizon)


def test_verifier_needs_single_residue_periodic_levels():
    fam = SetFamily("two-times", (ExplicitSet((4, 8)),))
    plan = ConstructionPlan(fam, (1,), (DenseDyadicSequence(L2).item(1),), (), 8, DOUBLING.describe())
    with pytest.raises(UsageError):
        verify_orbit_bounds(assemble_vector(plan, DOUBLING, 8), DOUBLING, 8)


@pytest.mark.parametrize(
    "weights, space",
    [
        (RatioPowerWeights(2.0), L2),
        (ConstantWeights(3.0), L2),
        (ConstantWeights(1.0), L2),
        (ConstantWeights(2.0), lp(1.5)),
        (ConstantWeights(2.0), lp(1.0)),
        (ConstantWeights(2.0), c0()),
    ],
    ids=["ratio-power", "constant-3", "constant-1", "lp-1.5", "l1", "c0"],
)
def test_verifier_needs_a_dyadic_rate_on_l2(verified_run, weights, space):
    _, hc, _ = verified_run
    with pytest.raises(UsageError):
        verify_orbit_bounds(hc, ShiftOperator(weights, space), 6000)


@st.composite
def _nested_families(draw):
    """Single-residue periodic levels whose periods divide one another, in shuffled order."""
    periods = [1]
    for factor in draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)):
        periods.append(periods[-1] * factor)
    periods = draw(st.permutations(periods[1:]))
    sets = tuple(PeriodicSet(p, (draw(st.integers(0, p - 1)),)) for p in periods)
    return SetFamily("nested", sets)


@settings(max_examples=300, deadline=None)
@given(_nested_families(), st.data())
def test_min_distance_between_matches_a_scan_of_members(family, data):
    k_from = data.draw(st.integers(1, len(family)))
    k_to = data.draw(st.integers(1, len(family)))
    period = max(s.period for s in family.sets)
    expected = brute_min_distance(family.level(k_from), family.level(k_to), period)
    assert _min_distance_between(family, k_from, k_to) == expected
