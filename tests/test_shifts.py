import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperorbit import (
    ConstantWeights,
    DoublingResetWeights,
    RatioPowerWeights,
    ShiftOperator,
    SparseVec,
    TableWeights,
    apply_backward,
    apply_right_inverse,
    c0,
    lp,
    mixing_test,
    norm,
    product_exponent,
    reciprocal_product_series,
)
from hyperorbit.errors import UsageError, ZeroWeightError
from hyperorbit.shifts import _log2_abs

from conftest import brute_log2_range

L2 = lp(2.0)
DOUBLING = ShiftOperator(ConstantWeights(2.0), L2)


def test_constant_shift_example():
    v = SparseVec.basis(L2, 5)
    out = apply_backward(DOUBLING, v, 5)
    assert out.entries == {0: 32.0}


def test_annihilates_low_entries():
    out = apply_backward(DOUBLING, SparseVec.basis(L2, 0), 1)
    assert not out


def test_reset_weights_shift_matches_brute_product():
    # product of w_1..w_101 computed by direct multiplication
    w = DoublingResetWeights()
    prod = Fraction(1)
    for k in range(1, 102):
        prod *= Fraction(w.weight(k)).limit_denominator(1 << 60)
    assert prod == Fraction(8)
    T = ShiftOperator(w, lp(2.0))
    out = apply_backward(T, SparseVec.basis(lp(2.0), 101, Fraction(1)), 101)
    assert out.entries == {0: Fraction(8)}
    assert product_exponent(101) == 3


def test_right_inverse_examples():
    out = apply_right_inverse(DOUBLING, SparseVec.basis(L2, 0, Fraction(1)), 3)
    assert out.entries == {3: Fraction(1, 8)}
    v = SparseVec({2: 0.75}, L2)
    assert apply_right_inverse(DOUBLING, v, 0) is v
    # float entries move exactly as well, far past the float range: not the empty vector
    assert apply_right_inverse(DOUBLING, SparseVec({0: 0.5}, L2), 1100).entries == {1100: Fraction(1, 2**1101)}
    assert apply_backward(DOUBLING, SparseVec({1500: 0.5}, L2), 1500).entries == {0: 2**1499}


def test_zero_weight_rejected():
    with pytest.raises(ZeroWeightError) as err:
        TableWeights([1.0, 0.0, 1.0])
    assert err.value.index == 2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_table_weight_rejected(bad):
    with pytest.raises(UsageError, match="index 3"):
        TableWeights([1.0, 2.0, bad])


dyadic_vec = st.dictionaries(
    st.integers(0, 40),
    st.fractions(min_value=-8, max_value=8).map(lambda f: f.limit_denominator(64)),
    min_size=1,
    max_size=6,
)


@given(dyadic_vec, st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_round_trip_identity(entries, n):
    v = SparseVec(entries, L2)
    assert apply_backward(DOUBLING, apply_right_inverse(DOUBLING, v, n), n) == v


POW2_KINDS = [
    *(ShiftOperator(ConstantWeights(sign * 2.0**k), lp(2.0, bilateral=True)) for k in range(-3, 4) for sign in (1, -1)),
    ShiftOperator(TableWeights([(-1) ** (k // 3) * 2.0 ** (k % 7 - 3) for k in range(60)]), L2),
    ShiftOperator(DoublingResetWeights(), c0()),
]

# floats of every size (subnormals and values near 1e308 drawn outright as well), ints and dyadic Fractions
exact_scalar = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.0**-1060, 2.0**-1022, 1.7976931348623157e308, -1e308]),
    st.integers(-(2**80), 2**80),
    st.builds(lambda num, e: Fraction(num, 2**e), st.integers(-(2**60), 2**60), st.integers(0, 1200)),
)


@pytest.mark.parametrize("T", POW2_KINDS, ids=lambda T: "signed-table" if isinstance(T.weights, TableWeights)
                         else T.weights.describe())
@given(data=st.data(), n=st.integers(0, 2500))
@settings(max_examples=40, deadline=None)
def test_right_inverse_is_exact_for_every_entry_type(T, data, n):
    low = -40 if T.space.bilateral else 0
    v = SparseVec(data.draw(st.dictionaries(st.integers(low, 40), exact_scalar, max_size=5)), T.space)
    moved = apply_right_inverse(T, v, n)
    assert sorted(moved.entries) == [i + n for i in sorted(v.entries)]  # S^n keeps every entry
    assert apply_backward(T, moved, n) == v  # as exact values: Fraction == float compares exactly


SIGNED = [
    ShiftOperator(ConstantWeights(-2.0), lp(2.0, bilateral=True)),
    ShiftOperator(TableWeights([(-1) ** k * 2.0 ** (k % 3 - 1) for k in range(30)]), L2),
]


def test_negative_weights_keep_their_sign():
    neg, table = SIGNED
    assert apply_backward(neg, SparseVec.basis(neg.space, 1), 1).entries == {0: -2}
    assert apply_backward(neg, SparseVec.basis(neg.space, 2), 2).entries == {0: 4}
    # table weights w_1..w_4 = 0.5, -1, 2, -0.5
    assert apply_backward(table, SparseVec.basis(L2, 3), 3).entries == {0: -1.0}
    assert apply_backward(table, SparseVec.basis(L2, 4), 2).entries == {2: -1.0}
    assert apply_right_inverse(table, SparseVec.basis(L2, 1), 2).entries == {3: -0.5}


@pytest.mark.parametrize("T", SIGNED, ids=["-2-bilateral", "signed-table"])
@given(dyadic_vec, st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_round_trip_identity_with_negative_weights(T, entries, n):
    v = SparseVec(entries, T.space)
    back = apply_backward(T, apply_right_inverse(T, v, n), n)
    assert {k: float(x) for k, x in back.entries.items()} == {k: float(x) for k, x in v.entries.items()}
    if isinstance(T.weights, ConstantWeights):
        assert back == v  # exact rationals


@given(dyadic_vec, dyadic_vec, st.integers(0, 12))
@settings(max_examples=50, deadline=None)
def test_linearity_exact_on_dyadics(a, b, n):
    u, v = SparseVec(a, L2), SparseVec(b, L2)
    lhs = apply_backward(DOUBLING, u + v, n)
    rhs = apply_backward(DOUBLING, u, n) + apply_backward(DOUBLING, v, n)
    assert lhs == rhs


@given(dyadic_vec, st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=50, deadline=None)
def test_semigroup_property(entries, m, n):
    v = SparseVec(entries, L2)
    two_step = apply_backward(DOUBLING, apply_backward(DOUBLING, v, m), n)
    assert two_step == apply_backward(DOUBLING, v, m + n)


@pytest.mark.parametrize("w", [ConstantWeights(2.0), DoublingResetWeights()])
@pytest.mark.parametrize("m,n", [(0, 3), (2, 5), (7, 11)])
def test_basis_norm_matches_log_product(w, m, n):
    T = ShiftOperator(w, L2)
    out = apply_backward(T, SparseVec.basis(L2, m + n, Fraction(1)), n)
    got = norm(out)
    expo = w.log2_product_range(m + 1, m + n)
    assert got == float(2.0**expo)


# ---------------------------------------------------------------------------
# the log2_product primitive against the one-weight-at-a-time oracle


@pytest.mark.parametrize(
    "w,lo,hi",
    [
        (ConstantWeights(2.0), -60, 60),
        (ConstantWeights(0.5), -60, 60),
        (DoublingResetWeights(), 1, 12000),
        (TableWeights([2.0, -0.5, 4.0, 1.0, -2.0**-40] * 20), 1, 120),
    ],
    ids=["2", "1/2", "reset", "table-pow2"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dyadic_ranges_exact(w, lo, hi, data):
    a = data.draw(st.integers(lo, hi))
    b = a + data.draw(st.integers(-3, 300))
    got = w.log2_product_range(a, b)
    assert isinstance(got, int)
    assert got == brute_log2_range(w, a, b)


@pytest.mark.parametrize(
    "w,lo,hi",
    # a <= 100 keeps the closed form's cancellation, log2(b+1) - log2(a), well inside 1e-12
    [(ConstantWeights(3.0), -60, 60), (RatioPowerWeights(2.0), 1, 100)],
    ids=["3", "ratio-power"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_float_ranges_close(w, lo, hi, data):
    a = data.draw(st.integers(lo, hi))
    b = a + data.draw(st.integers(-3, 300))
    assert math.isclose(w.log2_product_range(a, b), brute_log2_range(w, a, b), rel_tol=1e-12)


@given(
    st.lists(st.floats(2.0, 4.0), min_size=1, max_size=40),
    st.integers(1, 100),
    st.integers(-2, 100),
)
@settings(max_examples=60, deadline=None)
def test_table_ranges_close_past_the_end(values, a, length):
    # weights >= 2 keep every nonempty range >= 1, so prefix rounding stays far below 1e-12 of it
    w = TableWeights(values)
    b = a + length - 1
    assert math.isclose(w.log2_product_range(a, b), brute_log2_range(w, a, b), rel_tol=1e-12)
    assert w.log2_product(len(values) + 50) == w.log2_product(len(values))


def _is_pow2(q: Fraction) -> bool:
    return q.numerator & (q.numerator - 1) == 0 and q.denominator & (q.denominator - 1) == 0


pow2_floats = st.builds(lambda sign, k: sign * 2.0**k, st.sampled_from([1, -1]), st.integers(-1074, 1023))
nonzero_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0**-1022, 2.0**-1022),  # subnormals
    pow2_floats,
    st.builds(math.nextafter, pow2_floats, st.sampled_from([-math.inf, 0.0, math.inf])),
).filter(bool)


@given(nonzero_floats)
@settings(max_examples=300, deadline=None)
def test_log2_abs_is_an_int_exactly_on_powers_of_two(w):
    q = abs(Fraction(w))
    got = _log2_abs(w)
    if _is_pow2(q):
        assert type(got) is int and Fraction(2) ** got == q
    else:
        assert type(got) is float and got == math.log2(abs(w))


@given(st.lists(nonzero_floats, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_table_prefixes_keep_the_float_sums_bits(values):
    # past the first weight that is no power of two, each prefix is the all-float left-to-right sum
    w = TableWeights(values)
    floats = list(accumulate((math.log2(abs(v)) for v in values), initial=0))
    for n, want in enumerate(floats):
        got = w.log2_product(n)
        assert got == want
        assert isinstance(got, int) == all(_is_pow2(abs(Fraction(v))) for v in values[:n])


def test_near_powers_of_two_are_not_exact():
    for c in (7.999999999999999, 16.000000000000004, 1024.0000000000002, -math.nextafter(0.5, 1)):
        assert isinstance(ConstantWeights(c).log2_product(1), float)
    assert ConstantWeights(-8.0).log2_product(3) == 9 and isinstance(ConstantWeights(-8.0).log2_product(3), int)


def test_table_of_twos_carries_entries_exactly():
    # a table of 2000 twos acts like the constant 2 on its range: 1/3 moved by 1100 steps is 1/(3 * 2**1100)
    T = ShiftOperator(TableWeights([2.0] * 2000), L2)
    moved = apply_right_inverse(T, SparseVec.basis(L2, 0, Fraction(1, 3)), 1100)
    assert moved.entries == {1100: Fraction(1, 3 * 2**1100)}
    assert moved == apply_right_inverse(DOUBLING, SparseVec.basis(L2, 0, Fraction(1, 3)), 1100)


def test_products_past_the_float_range_stay_exact():
    # 3**700 is past the float range: the product is carried as a Fraction, not an OverflowError
    T = ShiftOperator(ConstantWeights(3.0), L2)
    e = 700 * math.log2(3.0)
    whole = math.floor(e)
    far = apply_backward(T, SparseVec.basis(L2, 700, Fraction(1, 3)), 700).entries[0]
    assert far == Fraction(1, 3) * 2**whole * Fraction(2.0 ** (e - whole))
    assert norm(SparseVec.basis(L2, 0, far)) == math.inf
    # inside the range the product keeps the float bits it had
    assert apply_backward(T, SparseVec.basis(L2, 600, Fraction(1, 3)), 600).entries[0] == (1 / 3) * 2.0 ** (600 * math.log2(3.0))
    # below the range, among the subnormals or under them, the product is carried exactly too, not dropped
    for n in (660, 700):
        e = -n * math.log2(3.0)
        whole = math.floor(e)
        tiny = apply_right_inverse(T, SparseVec.basis(L2, 0, 0.5), n).entries[n]
        assert tiny == Fraction(1, 2) * Fraction(2) ** whole * Fraction(2.0 ** (e - whole))


@pytest.mark.parametrize("w", [RatioPowerWeights(2.0), TableWeights([2.0, 3.0]), DoublingResetWeights()])
def test_unilateral_products_reject_nonpositive_indices(w):
    assert w.log2_product_range(5, 4) == 0
    with pytest.raises(UsageError):
        w.log2_product_range(0, 3)
    with pytest.raises(UsageError):
        w.log2_product(-1)


# ---------------------------------------------------------------------------
# series and mixing


def test_geometric_series_to_one_third():
    rep = reciprocal_product_series(ConstantWeights(2.0), 2.0, 2000)
    assert abs(rep.partial_sum - 1 / 3) < 1e-6
    assert rep.converging()


def test_slow_growth_series_diverges():
    # products (n+1)^(1/p): terms 1/(n+1), the tail never settles
    rep = reciprocal_product_series(RatioPowerWeights(2.0), 2.0, 5000)
    harmonic = sum(1.0 / (n + 1) for n in range(1, 5001))
    assert abs(rep.partial_sum - harmonic) < 1e-9
    assert not rep.converging()


def test_unit_weights_series_diverges():
    rep = reciprocal_product_series(ConstantWeights(1.0), 2.0, 500)
    assert rep.partial_sum == 500.0
    assert not rep.converging()


def test_mixing_verdicts():
    assert mixing_test(RatioPowerWeights(2.0), 10000).tends_to_infinity
    assert mixing_test(ConstantWeights(2.0), 1000).tends_to_infinity
    assert not mixing_test(ConstantWeights(1.0), 1000).tends_to_infinity


def test_reset_weights_not_mixing():
    # the partial product returns to 1 at every index outside the driving set
    rep = mixing_test(DoublingResetWeights(), 10000)
    assert not rep.tends_to_infinity
    assert min(rep.block_minima) == 0.0
