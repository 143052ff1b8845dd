import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperorbit import SparseVec, c0, lp
from hyperorbit import counterexample as cx
from hyperorbit.cli import main as cli_main
from hyperorbit.constructor import dyadic_block_family, prime_power_family
from hyperorbit.indexsets import (
    BitmapSet,
    ExplicitSet,
    FactorialBlockSet,
    GeometricSet,
    PeriodicSet,
    SegmentPatternSet,
    SquareSet,
    intervals_set,
)
from hyperorbit.io_text import (
    _int_of_digits,
    format_value,
    parse_family_spec,
    parse_set_spec,
    parse_space_spec,
    parse_weight_spec,
    read_vector,
    write_explicit_set,
    write_vector,
)
from hyperorbit.shifts import ConstantWeights, RatioPowerWeights, TableWeights

from conftest import brute_read_vector_text, brute_vector_text

needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="no int digit limit before 3.11")


@needs_digit_limit
def test_import_leaves_the_int_digit_limit_alone():
    script = (
        "import sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import hyperorbit, hyperorbit.cli\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@needs_digit_limit
def test_long_numerators_round_trip_and_the_limit_is_restored(tmp_path):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = Fraction(10**5000 + 1, 2**40)
        v = SparseVec({0: big, 3: Fraction(-1, 2), 7: 0.25}, lp(2.0))
        path = tmp_path / "vector.txt"
        write_vector(path, v)
        assert sys.get_int_max_str_digits() == 4300
        back = read_vector(path)
        assert sys.get_int_max_str_digits() == 4300
        assert back.entries == v.entries and back.space == v.space
    finally:
        sys.set_int_max_str_digits(before)


@given(
    entries=st.dictionaries(
        st.integers(0, 10**6),
        st.tuples(
            st.integers(-(2**70), 2**70).filter(bool),
            st.integers(1300, 6000),  # denominators of 392 to 1806 digits
            st.sampled_from([0, 1, -1, 3, 10**30]),  # added to 2**e: powers of two and their near misses
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_long_denominators_read_back_exactly(tmp_path_factory, entries):
    # denominators 2**e, in any order and with any gap, are recognised without an int parse;
    # the near misses fall back to it, and every entry reads back as Fraction(text) does
    values = {i: Fraction(num, 2**e + off) for i, (num, e, off) in entries.items()}
    path = tmp_path_factory.mktemp("vec") / "vector.txt"
    write_vector(path, SparseVec(values, lp(2.0)))
    back = read_vector(path)
    assert back.entries == values
    assert list(back.entries) == sorted(values)


_EXPONENTS = st.integers(0, 200_000)  # denominators 2**e of 1 to 60 206 digits
_LONG_INTS = st.builds(lambda k, m: m * 3**k + 1, st.integers(0, 12_000), st.integers(-(2**64), 2**64))  # to 5 746 digits
_ENTRY_VALUES = st.one_of(
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: Fraction(m, 2**e), st.integers(-(2**70), 2**70), _EXPONENTS),
    st.builds(lambda m, e: Fraction(m, 2**e), _LONG_INTS, _EXPONENTS),  # past 4300 digits both ways
    st.builds(lambda m, e, off: Fraction(m, 2**e + off), st.integers(-(2**70), 2**70), st.integers(2, 200_000),
              st.sampled_from([-1, 1])),  # the near misses 2**e +- 1
    st.builds(lambda m, k, d: Fraction(m, 3**k * d), _LONG_INTS, st.integers(800, 12_000), st.integers(1, 2**64)),
    # non-dyadic denominators of about 60 000 digits, read in blocks
    st.builds(lambda m, k, d: Fraction(m, 3**k * d), st.integers(-(2**70), 2**70), st.integers(125_000, 126_000),
              st.integers(1, 2**64)),
)


def _typed(v):
    """A vector's entries with their types (an int entry reads back as a Fraction, a float as a float)."""
    return {i: (type(x), x) for i, x in v.entries.items()}, v.space


def _matches_the_int_text_oracle(path, entries):
    # the same bytes as format_fraction / repr by int <-> str, and the same vector back as the
    # Fraction(text) reader, where the oracle needs the digit limit lifted and the package does not
    v = SparseVec(entries, lp(2.0, bilateral=True))
    write_vector(path, v)
    text = path.read_bytes()
    assert text == brute_vector_text(v).encode()
    back = read_vector(path)
    assert _typed(back) == _typed(brute_read_vector_text(text.decode()))
    assert back.entries == v.entries


@given(entries=st.dictionaries(st.integers(-50, 10**6), _ENTRY_VALUES, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_vector_text_matches_the_int_text_oracle(tmp_path_factory, entries):
    _matches_the_int_text_oracle(tmp_path_factory.mktemp("vec") / "vector.txt", entries)


def test_vector_text_matches_the_int_text_oracle_at_the_long_ends(tmp_path):
    # fixed, since hypothesis cannot print an example past the digit limit: a long numerator over
    # 2**199999, 2**200000 + 1, 2**150000 - 1 and a 5 726-digit odd denominator
    _matches_the_int_text_oracle(tmp_path / "vector.txt", {
        -7: Fraction(10**5000 + 1, 2**199_999), 0: Fraction(-3, 2**200_000 + 1),
        5: Fraction(7, 2**150_000 - 1), 9: Fraction(-(10**5000) - 3, 3**12_000), 10: -0.0,
    })


@given(length=st.sampled_from([1, 639, 640, 641, 1280, 1281, 2560, 2561, 20_000]), sign=st.sampled_from(["", "-", "+"]),
       seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_block_reads_match_the_decimal_int(length, sign, seed):
    # splits at 640 * 2**j digits keep their leading zeros and their sign; Decimal needs no digit limit
    digits = "".join(random.Random(seed).choices("0123456789", k=length))
    assert _int_of_digits(sign + digits) == int(Decimal(sign + digits))


@pytest.mark.parametrize("text", ["3", "-3", "+3", "+3/4", "-3/4", "-0", "0/5", "1e3", "0.5", "-0.0", "1_000",
                                  "\u0663", "1/\u0663", "007/0010", "+0/8", "5e-324"])
def test_hand_written_entries_read_as_the_oracle_reads_them(tmp_path, text):
    # a bare "+3" is a float and "+3/4" a Fraction; digits outside ASCII and underscores take the
    # Fraction(text) reader
    body = f"# space lp:2.0\n1 {text}\n"
    path = tmp_path / "vector.txt"
    path.write_text(body, encoding="utf-8")
    assert _typed(read_vector(path)) == _typed(brute_read_vector_text(body))


def test_a_denominator_of_two_to_the_700000_round_trips(tmp_path):
    # a 210 721-digit denominator, written and read with the int <-> str digit limit left as it is
    v = SparseVec({0: Fraction(3, 2**700_000), 5: Fraction(-1, 2**699_999)}, lp(2.0))
    path = tmp_path / "vector.txt"
    write_vector(path, v)
    assert read_vector(path).entries == v.entries


def test_a_zero_denominator_in_a_vector_file_exits_2_in_one_line(tmp_path, capsys):
    path = tmp_path / "vector.txt"
    path.write_text("# space lp:2.0\n3 1/0\n")
    code = cli_main(["orbit", "--vector", f"file:{path}", "--targets", "e:3@1/2", "--horizon", "10",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "usage error: cannot parse '1/0' as a rational\n"


# ---------------------------------------------------------------------------
# every spec kind reads back from its describe()


@st.composite
def _segment_sets(draw):
    segs, at = [], 0
    for _ in range(draw(st.integers(0, 5))):
        start = at + draw(st.integers(0, 50))
        end = start + draw(st.integers(1, 80))
        den = draw(st.integers(1, 7))
        segs.append((start, end, draw(st.integers(0, den)), den))
        at = end
    return SegmentPatternSet(tuple(segs))


# tower integers as the block family builds them: int exponents from 19 up, nested a few levels
_TOWER_INTS = st.recursive(
    st.builds(cx.HugeInt, st.integers(19, 10**30), st.integers(-(10**18), 10**18)),
    lambda inner: st.builds(cx.HugeInt, inner, st.integers(-(10**18), 10**18)),
    max_leaves=4,
)

_SETS = st.one_of(
    st.sampled_from([SquareSet(), cx.DigitNeighborhoodSet(), FactorialBlockSet(), parse_set_spec("evens"),
                     parse_set_spec("prescribed:0,1/5,1/2,1")]),
    st.builds(lambda p, rs: PeriodicSet(p, tuple(rs)), st.integers(1, 40), st.lists(st.integers(0, 100), max_size=6)),
    st.builds(lambda ms: ExplicitSet(tuple(ms)), st.lists(st.integers(0, 600), max_size=30)),
    st.builds(lambda ms: ExplicitSet(tuple(ms)), st.lists(st.one_of(st.integers(0, 600), _TOWER_INTS), max_size=8)),
    st.builds(lambda fl: BitmapSet(bytes(fl)), st.lists(st.sampled_from((0, 1)), max_size=600)),
    st.builds(GeometricSet, st.integers(2, 12), st.integers(0, 6)),
    _segment_sets(),
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 60)), max_size=6).map(
        lambda ivs: intervals_set([(a, a + w) for a, w in ivs])
    ),
)

_FINITE_NONZERO = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0)

_WEIGHTS = st.one_of(
    st.builds(ConstantWeights, _FINITE_NONZERO),
    st.builds(RatioPowerWeights, st.floats(min_value=1, allow_infinity=False)),
    st.builds(TableWeights, st.lists(_FINITE_NONZERO, min_size=1, max_size=60)),
    st.just(cx.DoublingResetWeights()),
    st.just(parse_weight_spec("rolewicz2")),
)

_SPACES = st.one_of(
    st.builds(lp, st.floats(min_value=1, allow_infinity=False), st.booleans()),
    st.builds(c0, st.booleans()),
)

_FAMILIES = st.one_of(
    st.builds(dyadic_block_family, st.integers(1, 8), st.integers(0, 8)),
    st.builds(prime_power_family, st.integers(1, 12), st.integers(0, 8)),
    st.builds(lambda k, reps: cx.build_block_family(k, reps).set_family(), st.integers(1, 3), st.integers(1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(_SETS)
def test_set_specs_read_back_from_describe(A):
    back = parse_set_spec(A.describe())
    assert back.describe() == A.describe()
    assert back.members_in(0, 500) == A.members_in(0, 500)


@settings(max_examples=200, deadline=None)
@given(_TOWER_INTS)
def test_tower_members_read_back_from_their_repr(t):
    (back,) = parse_set_spec(f"explicit:{t!r}").members
    assert repr(back) == repr(t) and back == t


def test_the_deepest_accepted_tower_reads_back():
    # no depth cap: 1200 levels, far past the default recursion limit, still compare and print
    spec = "explicit:5," + "10^(" * 1200 + "10^19" + ")" * 1200 + "+7"
    back = parse_set_spec(spec)
    assert back.describe() == spec and parse_set_spec(back.describe()) == back


def test_block_family_levels_read_back_from_describe():
    family = cx.build_block_family(2, 1).set_family()
    assert [family.level(k).describe() for k in (1, 2)] == [
        "explicit:10^102",
        "explicit:10^(10^102+6),10^(10^102+6)+10000",
    ]
    for k in (1, 2):
        back = parse_set_spec(family.level(k).describe())
        assert back == family.level(k) and back.describe() == family.level(k).describe()


@settings(max_examples=300, deadline=None)
@given(_WEIGHTS)
def test_weight_specs_read_back_from_describe(w):
    back = parse_weight_spec(w.describe())
    assert type(back) is type(w)
    assert [back.weight(k) for k in range(1, 51)] == [w.weight(k) for k in range(1, 51)]
    assert [back.log2_product(n) for n in range(51)] == [w.log2_product(n) for n in range(51)]


@settings(max_examples=200, deadline=None)
@given(_SPACES)
def test_space_specs_read_back_from_describe(space):
    assert parse_space_spec(space.describe()) == space


@settings(max_examples=100, deadline=None)
@given(_FAMILIES)
def test_family_specs_read_back_from_their_label(family):
    back = parse_family_spec(family.label)
    assert back.label == family.label and len(back) == len(family)
    for k in range(1, len(family) + 1):
        assert back.level(k).describe() == family.level(k).describe()
        assert back.level(k).members_in(0, 5000) == family.level(k).members_in(0, 5000)


def test_explicit_file_skips_blank_lines(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("5\n\n  \n 3 \r\n0\t\n12")  # no newline after the last member
    assert parse_set_spec(f"explicit-file:{path}").members == (0, 3, 5, 12)


@pytest.mark.parametrize(
    "text, bad",
    [("1\n2\nx7\n8\n", "'x7\\n'"), ("1\n2\n1 2\n", "'1 2\\n'"), ("4\n1.5", "'1.5'")],
    ids=["letter", "two-members-on-a-line", "last-line"],
)
def test_explicit_file_bad_line_exits_2_in_one_line(tmp_path, capsys, text, bad):
    path = tmp_path / "set.txt"
    path.write_text(text)
    code = cli_main(["diff-set", "--set", f"explicit-file:{path}", "--horizon", "10", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: cannot parse {bad} as an integer\n"


def test_inline_table_weights_are_not_a_path(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("0.5\n2.0\n")
    from_file = parse_weight_spec(f"table:{table}")
    assert from_file.describe() == "table-values:0.5,2.0"
    assert parse_weight_spec(from_file.describe()).values == (0.5, 2.0)


def _flags(members, length):
    flags = bytearray(length)
    for m in members:
        flags[m] = 1
    return bytes(flags)


@pytest.mark.parametrize(
    "members, length",
    [
        ((0, 9999, 10000, 10001, 19999), 20000),  # both edges of blocks 0 and 1
        ((0, 9999, 10000, 10001, 19999, 50000), 50001),  # blocks 2 to 4 empty, the top at exactly 5 * 10**4
        ((10000,), 10001),  # block 0 empty
        ((3, 123456, 1000000), 1000001),
        ((5, 17), 30017),  # trailing zero flags, one whole empty block among them
        ((), 0),
    ],
)
def test_bitmap_writer_matches_one_line_per_member(tmp_path, members, length):
    bitmap, listed = tmp_path / "bitmap.txt", tmp_path / "listed.txt"
    write_explicit_set(bitmap, BitmapSet(_flags(members, length)))
    write_explicit_set(listed, ExplicitSet(members))
    expected = "".join(f"{m}\n" for m in members)
    assert bitmap.read_text() == expected
    assert listed.read_text() == expected


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 70000), max_size=200), st.integers(0, 20000))
def test_bitmap_writer_matches_one_line_per_member_at_random(tmp_path_factory, members, pad):
    members = sorted(members)
    path = tmp_path_factory.mktemp("bitmap") / "d.txt"
    write_explicit_set(path, BitmapSet(_flags(members, (members[-1] + 1 if members else 0) + pad)))
    assert path.read_text() == "".join(f"{m}\n" for m in members)


class _Count(int):
    pass


class _Ratio(Fraction):
    pass


@pytest.mark.parametrize(
    "value, text",
    [
        (0, "0"),
        (-12, "-12"),
        (10**30, "1" + "0" * 30),
        (0.1, "0.1"),
        (-0.0, "-0.0"),
        (1e300, "1e+300"),
        (float("inf"), "inf"),
        (True, "true"),
        (False, "false"),
        (Fraction(3, 4), "3/4"),
        (Fraction(-4, 2), "-2"),
        ("s-set", "s-set"),
        ("", ""),
        (None, "None"),
        (_Count(7), "7"),
        (_Ratio(1, 3), "1/3"),
    ],
)
def test_csv_field_text_per_type(value, text):
    assert format_value(value) == text
