from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperorbit import (
    AlphaProfile,
    ConstantWeights,
    DenseDyadicSequence,
    DoublingResetWeights,
    ExplicitSet,
    FactorialBlockSet,
    PeriodicSet,
    ShiftOperator,
    SparseVec,
    apply_backward,
    ball_contains,
    bilateral_tail_sums,
    classify,
    correlation_scan,
    hitting_times,
    lp,
    return_set,
    return_weight_sums,
)
from hyperorbit.errors import NoDataError, UsageError
from hyperorbit.indexsets import estimate_densities
from hyperorbit.recurrence import _Orbit

from conftest import periodic_eta

L2 = lp(2.0)
DOUBLING = ShiftOperator(ConstantWeights(2.0), L2)


# ---------------------------------------------------------------------------
# orbit stepping


@pytest.mark.parametrize(
    "w,space",
    [
        (ConstantWeights(2.0), lp(2.0, bilateral=True)),
        (ConstantWeights(0.5), lp(2.0, bilateral=True)),
        (ConstantWeights(2.0), L2),
        (DoublingResetWeights(), L2),
    ],
    ids=["2-bilateral", "1/2-bilateral", "2", "reset"],
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
    orbit = _Orbit(T, x)
    for _ in range(n):
        orbit.step()
    exact = apply_backward(T, x, n)
    assert orbit.vector().entries == {k: float(v) for k, v in exact.entries.items()}


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


# ---------------------------------------------------------------------------
# classification


def _report_for(times, horizon=10000):
    tset = ExplicitSet(tuple(times))
    dens = estimate_densities(tset, horizon, [10, 100, 1000])
    from hyperorbit.recurrence import HittingReport

    return HittingReport(0, SparseVec.zero(L2), 1.0, tset, dens, horizon, None)


def test_classify_full_times_frequent():
    c = classify([_report_for(range(0, 10001))])
    assert c.overall == "frequent"


def test_classify_factorial_blocks_reiterative_only():
    times = FactorialBlockSet().members_in(0, 3628800)
    tset = ExplicitSet(tuple(times))
    dens = estimate_densities(tset, 3628800, [9])
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
        assert abs(rep.betas[n] - want) <= 1
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


def test_alpha_profile_validation():
    bad = AlphaProfile("table", table=tuple([1.0, 0.0, 1.0]))
    with pytest.raises(UsageError):
        bad.validate(100)


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
    from hyperorbit import RatioPowerWeights

    with pytest.raises(UsageError):
        bilateral_tail_sums(RatioPowerWeights(2.0), 2.0, ExplicitSet((1,)), 1, 10)
