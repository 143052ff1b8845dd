"""Text formats: set/weight/space/family/target specs, vector files, CSV, manifests.

This is the one module that turns command-line text into values.  Every
real number has one reader (`parse_real`: a rational inside the float
range, `--p` included), every list one rule (`_items`: comma lists and the
`;` lists of targets, weights and segments alike: the empty text is the
empty list, an empty item is an error), and every spec kind's `describe()`
parses back to the same object, so configurations hash stably and outputs
stay byte-identical across runs.  Vector files hold exact entries with
denominators 2**e of any length; their ints are written through `decimal`
and read in blocks of at most 640 digits (`_PowersOfTwo`, `_int_of_digits`),
so no process-wide state, such as the interpreter's int <-> str digit
limit, is touched.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
from decimal import MAX_EMAX, Context, Decimal
from fractions import Fraction
from math import log2

from . import counterexample as cx
from .constructor import DenseDyadicSequence, dyadic_block_family, prime_power_family
from .errors import UsageError
from .indexsets import (
    BitmapSet,
    ExplicitSet,
    FactorialBlockSet,
    GeometricSet,
    PeriodicSet,
    SegmentPatternSet,
    SetFamily,
    SquareSet,
    intervals_set,
    make_prescribed_density_set,
)
from .shifts import ConstantWeights, RatioPowerWeights, ShiftOperator, TableWeights
from .spaces import SparseVec, SpaceSpec, c0, lp


# ---------------------------------------------------------------------------
# numbers and lists


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a rational") from exc


def parse_real(text: str) -> float:
    """A rational inside the float range, as its nearest float; a nonzero one that rounds to 0 lies outside it."""
    q = parse_fraction(text)
    try:
        f = float(q)
    except OverflowError:
        f = None
    if f is None or (f == 0.0 and q != 0):
        raise UsageError(f"{text.strip()!r} lies outside the float range")
    return f


def parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as an integer") from exc


# a tower integer as `HugeInt.__repr__` prints it: 10^e, 10^e±k, 10^(tower)±k
_TOWER = r"(?P<open>(?:10\^\()*)10\^(?P<exp>\d+)(?P<off>[+-]\d+)?(?P<close>(?:\)(?:[+-]\d+)?)*)"
_TOWER_CLOSE = r"\)([+-]\d+)?"


def _explicit_member(text: str):
    """An `explicit:` item: a plain integer, or, when it starts with 10^, the `HugeInt` written
    10^e, 10^e±k or 10^(...)±k (as its repr prints it), nested to any depth: it is parsed,
    compared and printed without recursion."""
    token = text.strip()
    if not token.startswith("10^"):
        return parse_int(text)
    m = re.fullmatch(_TOWER, token)
    closers = re.findall(_TOWER_CLOSE, m["close"]) if m else ()
    if not m or len(closers) != len(m["open"]) // 4:
        raise UsageError(f"cannot parse {token!r} as a tower integer 10^e, 10^e+k or 10^(...)+k")
    try:
        value = cx.HugeInt(parse_int(m["exp"]), parse_int(m["off"] or "0"))
        for off in closers:
            value = cx.HugeInt(value, parse_int(off or "0"))
    except UsageError as exc:
        raise UsageError(f"cannot parse {token!r} as a tower integer: {exc}") from exc
    return value


def _items(text: str, sep: str = ",") -> list:
    """The items of a `sep` list: none for the empty text; an empty item is kept for its reader to reject."""
    return text.split(sep) if text.strip() else []


def parse_int_pair(text: str, sep: str) -> tuple:
    """`<int><sep><int>`, split at the first `sep` after the first character, so the first int may be negative."""
    a, found, b = text[1:].partition(sep)
    if not found:
        raise UsageError(f"{text!r} needs the form <int>{sep}<int>")
    return parse_int(text[:1] + a), parse_int(b)


def parse_int_list(text: str, sep: str | None = None) -> list:
    """A comma list of integers, or of `<int><sep><int>` pairs when `sep` is given."""
    return [parse_int(x) if sep is None else parse_int_pair(x, sep) for x in _items(text)]


def parse_densities(text: str) -> list:
    """The four target densities r1,r2,r3,r4 of a prescribed-density set."""
    rs = [parse_fraction(x) for x in _items(text)]
    if len(rs) != 4:
        raise UsageError(f"{text!r} needs four target densities r1,r2,r3,r4")
    return rs


def _one_or_two_ints(spec: str, rest: str, second: int) -> tuple:
    """The one or two ':'-separated integer fields after a spec's head, `second` standing in for a missing one."""
    fields = rest.split(":")
    if len(fields) > 2 or "" in fields:
        raise UsageError(f"spec {spec!r} takes one or two non-empty ':' fields")
    first, *more = map(parse_int, fields)
    return first, (more[0] if more else second)


def format_fraction(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# ---------------------------------------------------------------------------
# set specs


def parse_set_spec(spec: str):
    spec = spec.strip()
    if spec == "evens":
        return PeriodicSet(2, (0,))
    if spec == "squares":
        return SquareSet()
    if spec == "s-set":
        return cx.DigitNeighborhoodSet()
    if spec == "factorial-blocks":
        return FactorialBlockSet()
    head, _, rest = spec.partition(":")
    if head == "periodic":
        p, _, residues = rest.partition(":")
        return PeriodicSet(parse_int(p), tuple(parse_int_list(residues)))
    if head == "arith":
        gap, offset = _one_or_two_ints(spec, rest, 0)
        return PeriodicSet(gap, (offset,))
    if head == "explicit":
        return ExplicitSet(tuple(map(_explicit_member, _items(rest))))
    if head == "explicit-file":
        with open(rest, "r", encoding="utf-8") as fh:
            return ExplicitSet(tuple(parse_int(line) for line in fh if line.strip()))
    if head == "intervals":
        return intervals_set(parse_int_list(rest, "-"))
    if head == "powers":
        return GeometricSet(*_one_or_two_ints(spec, rest, 0))
    if head == "segments":
        segs = []
        for part in _items(rest, ";"):
            fields = part.split(":")
            if len(fields) != 4:
                raise UsageError(f"segment {part!r} needs the form <start>:<end>:<num>:<den>")
            segs.append(tuple(parse_int(x) for x in fields))
        return SegmentPatternSet(tuple(segs))
    if head == "prescribed":
        return make_prescribed_density_set(*parse_densities(rest))
    raise UsageError(f"unknown set spec {spec!r}")


_BLOCK = 10_000


@functools.cache
def _block_lines():
    """The lines `f"{j}\\n"` of block 0 and the suffixes `f"{j:04d}\\n"` of blocks k >= 1, for j < 10**4.

    Built on the first bitmap written, not at import, so that commands
    writing none do not pay for the 2 * 10**4 strings.
    """
    return tuple(f"{j}\n" for j in range(_BLOCK)), tuple(f"{j:04d}\n" for j in range(_BLOCK))


def write_explicit_set(path, s: ExplicitSet | BitmapSet):
    """The members of a finite set, one decimal line each, in increasing order.

    A `BitmapSet` is written in blocks of 10**4 flag bytes: every member
    of block k >= 1 starts with the digits of k, so the block's text is
    `str(k)` joined with the suffixes its flags select, and no int or
    str is made per member.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if not isinstance(s, BitmapSet):
            fh.write("".join(f"{m}\n" for m in s.all_members()))
            return
        flags = s.flags
        heads, tails = _block_lines()
        fh.write("".join(itertools.compress(heads, flags[:_BLOCK])))
        for k in range(1, -(-len(flags) // _BLOCK)):
            text = str(k).join(itertools.compress(tails, flags[k * _BLOCK : (k + 1) * _BLOCK]))
            if text:
                fh.write(str(k) + text)


# ---------------------------------------------------------------------------
# weight, space, operator and family specs


def parse_weight_spec(spec: str):
    spec = spec.strip()
    if spec == "rolewicz2":  # the doubling shift, by its usual name
        return ConstantWeights(2.0)
    if spec == "counterexample-c0":
        return cx.DoublingResetWeights()
    head, _, rest = spec.partition(":")
    if head == "constant":
        return ConstantWeights(parse_real(rest))
    if head == "ratio-power":
        return RatioPowerWeights(parse_real(rest))
    if head == "table":
        with open(rest, "r", encoding="utf-8") as fh:
            return TableWeights([parse_real(line) for line in fh if line.strip()])
    if head == "table-values":
        return TableWeights([parse_real(x) for x in _items(rest)])
    raise UsageError(f"unknown weight spec {spec!r}")


def parse_space_spec(spec: str) -> SpaceSpec:
    spec = spec.strip()
    bilateral = spec.endswith(":bilateral")
    if bilateral:
        spec = spec[: -len(":bilateral")]
    if spec == "c0":
        return c0(bilateral)
    if spec in ("l1", "l2"):
        return lp(float(spec[1]), bilateral)
    head, _, rest = spec.partition(":")
    if head == "lp":
        return lp(parse_real(rest), bilateral)
    raise UsageError(f"unknown space spec {spec!r}")


def parse_operator_spec(weights: str, space: str) -> ShiftOperator:
    return ShiftOperator(parse_weight_spec(weights), parse_space_spec(space))


def parse_family_spec(spec: str) -> SetFamily:
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    second_default = {"dyadic-block": 6, "prime-power": 5, "counterexample": 3}
    if head not in second_default:
        raise UsageError(f"unknown family spec {spec!r}")
    k_max, second = _one_or_two_ints(spec, rest, second_default[head])
    if head == "dyadic-block":
        return dyadic_block_family(k_max, second)
    if head == "prime-power":
        return prime_power_family(k_max, second)
    return cx.build_block_family(k_max, second).set_family()


# ---------------------------------------------------------------------------
# vectors and targets


def write_vector(path, v: SparseVec):
    powers = _PowersOfTwo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# space {v.space.describe()}\n")
        for idx in v.support():
            val = v.entries[idx]
            fh.write(f"{Decimal(idx)} {powers.text(val) if isinstance(val, (int, Fraction)) else repr(val)}\n")


class _PowersOfTwo:
    """The decimal text of 2**e in vector files, both ways, through `decimal` alone.

    `construct`'s entries carry denominators 2**e of tens of thousands of
    digits.  An int turns into decimal text, or back, in time quadratic in
    its length, and past 4300 digits the interpreter's process-wide
    int <-> str digit limit refuses it.  `decimal` works outside that
    limit, so no process-wide state is read or set.  The last power built
    is kept as an exact `Decimal`; the next is one product by a small power
    of two away, as files list entries by increasing index, or else is
    built afresh.  `text(x)` is `format_fraction(x)` with a power-of-two
    denominator written from that power, and `int_of(digits)` matches
    digits past `_SHORT` against it.  Every other int is written as
    `str(Decimal(n))` and read by `_int_of_digits`.
    """

    _SHORT = 400  # digits read as fast directly as by a 2**e match
    _STEP = 4096  # largest e - e' built by one product

    def __init__(self):
        self.e, self.power = 0, Decimal(1)

    def _power(self, e: int) -> Decimal:
        context = Context(prec=int(e * 0.30103) + 2, Emax=MAX_EMAX)  # more digits than 2**e has
        step = e - self.e
        self.power = context.multiply(self.power, 1 << step) if 0 <= step <= self._STEP else context.power(2, e)
        self.e = e
        return self.power

    def text(self, x) -> str:
        f = Fraction(x)
        num, den = str(Decimal(f.numerator)), f.denominator
        e = den.bit_length() - 1
        return num if den == 1 else f"{num}/{self._power(e) if den == 1 << e else Decimal(den)}"

    def int_of(self, digits: str) -> int:
        if len(digits) > self._SHORT and digits[0] != "0":
            e = round(log2(int(digits[:17])) + (len(digits) - 17) * log2(10))
            if Decimal(digits) == self._power(e):
                return 1 << e
        return _int_of_digits(digits)


_INT_BLOCK = 640  # the least int <-> str digit limit the interpreter admits: int() of this many is never refused


def _int_of_digits(text: str) -> int:
    """The int of an optional sign and ASCII digits, in time below quadratic in their number.

    Past `_INT_BLOCK` digits the text splits into a low part of
    k = `_INT_BLOCK` * 2**j digits, the most below its length, and a high
    part no longer than that, recursively down to blocks that `int` reads,
    so the digit limit never applies; the parts join as high * 10**k + low,
    each 10**k the square of the one before.
    """
    if len(text) <= _INT_BLOCK:
        return int(text)
    if text[0] in "-+":
        value = _int_of_digits(text[1:])
        return -value if text[0] == "-" else value
    k, tens = _INT_BLOCK, {_INT_BLOCK: 10**_INT_BLOCK}
    while 2 * k < len(text):
        tens[2 * k] = tens[k] ** 2
        k *= 2

    def join(digits):
        if len(digits) <= _INT_BLOCK:
            return int(digits)
        k = max(k for k in tens if k < len(digits))
        return join(digits[:-k]) * tens[k] + join(digits[-k:])

    return join(text)


_SIGNED_DIGITS = re.compile(r"[-+]?\d+", re.ASCII)
# an int or n/d, read exactly; a bare `+n` is left to `parse_real`, as it always was
_RATIONAL = re.compile(r"(-?\d+|[-+]\d+(?=/))(?:/(\d+))?", re.ASCII)


def read_vector(path) -> SparseVec:
    space = None
    entries = {}
    powers = _PowersOfTwo()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# space"):
                space = parse_space_spec(line.removeprefix("# space").strip())
                continue
            idx, _, val = line.partition(" ")
            exact = _RATIONAL.fullmatch(val)
            if exact is None:
                value = parse_fraction(val) if "/" in val or val.lstrip("-").isdigit() else parse_real(val)
            elif not (den := powers.int_of(exact[2]) if exact[2] else 1):
                raise UsageError(f"cannot parse {val!r} as a rational")
            else:
                value = Fraction(_int_of_digits(exact[1]), den)
            index = _int_of_digits(idx) if _SIGNED_DIGITS.fullmatch(idx) else parse_int(idx)
            if index in entries:
                raise UsageError(f"{path} lists index {idx} twice")
            entries[index] = value
    if space is None:
        raise UsageError(f"{path} is missing its space header")
    return SparseVec(entries, space)


def parse_vector_spec(spec: str, space: SpaceSpec) -> SparseVec:
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head == "e":
        return SparseVec.basis(space, parse_int(rest))
    if head == "zero":
        if rest:
            raise UsageError(f"vector spec {spec!r}: zero takes no argument")
        return SparseVec.zero(space)
    if head == "dense":
        return DenseDyadicSequence(space).item(parse_int(rest))
    if head == "ones":
        a, b = parse_int_pair(rest, "-")
        if b < a:
            raise UsageError(f"vector spec {spec!r}: the range runs backwards")
        return SparseVec({i: 1 for i in range(a, b + 1)}, space)
    if head == "file":
        return read_vector(rest)
    raise UsageError(f"unknown vector spec {spec!r}")


def parse_target_spec(spec: str, space: SpaceSpec):
    """`<vector-spec>@<radius>` -> (center, radius)."""
    body, _, radius = spec.rpartition("@")
    if not body:
        raise UsageError(f"target spec {spec!r} needs the form <vector>@<radius>")
    return parse_vector_spec(body, space), parse_real(radius)

# ---------------------------------------------------------------------------
# CSV and manifests


def format_value(x) -> str:
    """One CSV field.  Fraction is tested last: `isinstance(x, Fraction)` goes
    through `ABCMeta.__instancecheck__`, which every int and float would pay."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (int, str)):
        return str(x)
    if isinstance(x, Fraction):
        return format_fraction(x)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")


def config_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_manifest(path, command: str, params: dict, wall_time: float):
    from . import __version__

    lines = [
        f"command: {command}",
        f"config_hash: {config_hash(params)}",
        f"package_version: {__version__}",
        f"wall_time_s: {wall_time:.3f}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
