from fractions import Fraction
from math import ldexp, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperorbit import SparseVec, ball_contains, c0, lp, norm, norm_sq_exact
from hyperorbit.errors import SpaceMismatchError, UsageError
from hyperorbit.spaces import _common_denominator, _power_sum

from conftest import brute_common_denominator, brute_norm

L2 = lp(2.0)
L1 = lp(1.0)
SUP = c0()


def test_basis_norm_one():
    for space in (L2, L1, SUP):
        assert norm(SparseVec.basis(space, 0)) == 1.0


def test_pythagorean():
    v = SparseVec({0: 3.0, 1: 4.0}, L2)
    assert norm(v) == 5.0


def test_sup_norm():
    v = SparseVec({0: 1.0, 3: 1.0, 7: 1.0}, SUP)
    assert norm(v) == 1.0


def test_zero_norm_iff_zero():
    assert norm(SparseVec.zero(L2)) == 0.0
    assert norm(SparseVec({5: 1e-200}, L2)) > 0.0


def test_no_stored_zeros_and_support():
    v = SparseVec({0: 0.0, 2: 1.5}, L2)
    assert v.support() == [2]


def test_unilateral_rejects_negative_indices():
    with pytest.raises(UsageError):
        SparseVec({-1: 1.0}, L2)
    SparseVec({-1: 1.0}, lp(2.0, bilateral=True))  # fine


def test_ball_examples():
    e0 = SparseVec.basis(L2, 0)
    e1 = SparseVec.basis(L2, 1)
    assert ball_contains(e0, 1.0, e0)
    assert not ball_contains(e0, 1.0, e1)  # distance sqrt(2)
    assert abs(norm(e0 - e1) - sqrt(2)) < 1e-15
    small = SparseVec({2: 0.49}, SUP)
    assert ball_contains(SparseVec.zero(SUP), 0.5, small)


def test_ball_strictness():
    e0 = SparseVec.basis(L2, 0)
    assert not ball_contains(SparseVec.zero(L2), 1.0, e0)  # open ball


@pytest.mark.xfail(strict=True, reason="ball tests compare a float norm with a float radius")
def test_ball_contains_exact_near_the_sphere():
    # sqrt(2.0) as a float is slightly above sqrt(2), so {0: 1, 1: 1} lies
    # strictly inside; the float norm rounds to the radius and reads as outside
    assert Fraction(sqrt(2.0)) ** 2 > 2
    assert ball_contains(SparseVec.zero(L2), sqrt(2.0), SparseVec({0: 1, 1: 1}, L2))


def test_ball_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        ball_contains(SparseVec.basis(L2, 0), 1.0, SparseVec.basis(L1, 0))


def test_exact_norm_square():
    v = SparseVec({0: Fraction(1, 2), 10: Fraction(1, 3)}, L2)
    assert norm_sq_exact(v) == Fraction(1, 4) + Fraction(1, 9)


def test_exact_tiny_entries_survive():
    v = SparseVec({0: Fraction(1, 2**8000)}, L2)
    assert norm_sq_exact(v) == Fraction(1, 2**16000)


sparse_floats = st.dictionaries(
    st.integers(0, 30),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).filter(
        lambda x: x == 0.0 or abs(x) > 1e-100  # keep squares inside the normal range
    ),
    max_size=8,
)


@given(sparse_floats, sparse_floats)
@settings(max_examples=80, deadline=None)
def test_triangle_inequality(a, b):
    for space in (L2, L1, SUP):
        u, v = SparseVec(a, space), SparseVec(b, space)
        lhs = norm(u + v)
        rhs = norm(u) + norm(v)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@given(sparse_floats, st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_power_of_two_homogeneity_exact(a, e):
    lam = 2.0**e
    for space in (L2, SUP):
        v = SparseVec(a, space)
        assert norm(v.scale(lam)) == abs(lam) * norm(v)


@given(sparse_floats)
@settings(max_examples=40, deadline=None)
def test_scaling_never_exceeds_f_norm_bound(a):
    # |lambda| + 1 dominates the scaling of any norm we expose
    for lam in (-2.5, -1.0, 0.25, 3.0):
        v = SparseVec(a, L2)
        assert norm(v.scale(lam)) <= (abs(lam) + 1) * norm(v) + 1e-9


@st.composite
def wide_entries(draw):
    """Entries from 2**-1100 to 2**1100: up to 12 at one shared scale, so that their float sums
    and maxima underflow, overflow, fall just below 1e-290 or stay normal, with rounding to
    order, and up to 2 anywhere in that range."""
    scale = draw(st.sampled_from([-1074, -1050, -600, -530, -495, -485, 0, 500, 1000]))
    mantissas = st.builds(lambda i, sign: sign * i, st.integers(2**52, 2**53 - 1), st.sampled_from([1, -1]))
    shared = mantissas.map(lambda i: ldexp(i, scale - 52))
    anywhere = st.one_of(
        st.builds(lambda num, e: Fraction(num) * Fraction(2) ** e, st.integers(-(2**53), 2**53).filter(bool),
                  st.integers(-1100, 1047)),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    entries = draw(st.dictionaries(st.integers(0, 50), shared, max_size=12))
    return {**entries, **draw(st.dictionaries(st.integers(51, 60), anywhere, max_size=2))}


@given(space=st.sampled_from([L1, L2, lp(1.5), lp(3.0), SUP]), entries=wide_entries())
@settings(max_examples=400, deadline=None)
def test_norm_matches_the_brute_oracle_bit_for_bit(space, entries):
    v = SparseVec(entries, space)
    assert norm(v) == brute_norm(v)


def test_norm_matches_the_brute_oracle_at_the_edges_of_the_float_range():
    tiny, huge = Fraction(1, 2**1100), Fraction(2**1100)
    for space in (L1, L2, lp(1.5), lp(3.0), SUP):
        for entries in (
            {0: tiny}, {0: tiny, 3: tiny * 3}, {0: huge}, {0: 1.0, 1: huge}, {0: 2.0**-540, 1: 2.0**-541},
            {0: 1e300, 1: 1e300}, {0: 2.0**-1074}, {0: 0.5, 2: tiny},
            # an l2 sum just below 1e-290: the float root and the rescaled one differ in the last bit
            {0: float.fromhex("0x1.8b33277560eafp-495"), 1: float.fromhex("0x1.cc8ab80544914p-496")},
        ):
            v = SparseVec(entries, space)
            assert norm(v) == brute_norm(v), (space, entries)


def test_the_rescaled_norm_of_a_non_integer_p_sums_left_to_right():
    # after the term 1, each scaled term of about 1e-16 rounds away when summed left to right; a
    # compensated sum (the builtin sum from Python 3.12 on) or a reversed one lifts the last bit
    r = Fraction(2.1544346900318843e-11)
    big = 10**250
    v = SparseVec({0: big, 1: big * r, 2: big * r, 3: big * r}, lp(1.5))
    assert norm(v) == brute_norm(v) == 1e250


def test_the_rescaled_norm_of_a_huge_p_takes_the_float_terms():
    # exact power sums to the power 1e20 or 100000 would not finish; the scaled float terms give the norm at once
    assert norm(SparseVec({0: 0.5}, lp(1e20))) == 0.5
    assert norm(SparseVec({0: Fraction(1, 2**400), 1: Fraction(3, 2**402)}, lp(100000))) == 2.0**-400
    assert norm(SparseVec({0: 2.0**-400, 1: 2.0**-401}, lp(100000))) == 2.0**-400


exact_scalars = st.one_of(
    st.builds(lambda num, e: Fraction(num) * Fraction(2) ** e, st.integers(-(2**40), 2**40).filter(bool),
              st.integers(-16000, 100)),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.dictionaries(st.integers(0, 40), exact_scalars, max_size=8), st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_power_sum_matches_the_brute_sum_and_maximum(entries, ip):
    magnitudes = [abs(Fraction(x)) for x in entries.values() if x != 0]
    v = SparseVec(entries, L2)
    if ip is None:
        expected = max(magnitudes, default=Fraction(0))
    else:
        expected = Fraction(0)
        for m in magnitudes:
            expected += m**ip
    assert _power_sum(v, ip) == expected
    assert norm_sq_exact(v) == _power_sum(v, 2)


def test_ball_translation_invariance():
    center = SparseVec({0: Fraction(1, 4), 2: Fraction(-3, 8)}, L2)
    v = SparseVec({0: Fraction(1, 2)}, L2)
    shift = SparseVec({1: Fraction(7, 16), 2: Fraction(1, 8)}, L2)
    for r in (0.1, 0.5, 1.0):
        assert ball_contains(center, r, v) == ball_contains(center + shift, r, v + shift)


# floats of every binade, the subnormals and the largest included, ints, and dyadic and other Fractions
exact_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.0**-1060 * 3, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
    st.integers(-(10**30), 10**30),
    st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-(2**70), 2**70), st.integers(0, 1200)),
    st.fractions(max_denominator=10**12),
)


@given(st.lists(exact_values, max_size=12))
@example([])  # den = 1
@example([0.1, Fraction(1, 3), 2**-1074, 7])
@settings(max_examples=300, deadline=None)
def test_common_denominator_matches_the_lcm_oracle(values):
    den, nums = _common_denominator(lambda: iter(values))
    nums = list(nums)
    assert (den, nums) == brute_common_denominator(values)
    assert all(type(n) is int for n in nums)
