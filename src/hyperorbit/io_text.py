"""Text formats: set/weight/family/target specs, vector files, CSV, manifests.

Everything round-trips through plain strings so configurations hash stably
and outputs stay byte-identical across runs and worker counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from fractions import Fraction

from . import counterexample as cx
from .constructor import dyadic_block_family, prime_power_family
from .errors import UsageError
from .indexsets import (
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
from .shifts import ConstantWeights, RatioPowerWeights, TableWeights
from .spaces import SparseVec, SpaceSpec, c0, lp


# ---------------------------------------------------------------------------
# fractions and numbers


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a rational") from exc


def parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as an integer") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as a number") from exc


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
        rs = tuple(parse_int(r) for r in residues.split(",") if r != "")
        return PeriodicSet(parse_int(p), rs)
    if head == "arith":
        g, _, o = rest.partition(":")
        return PeriodicSet(parse_int(g), (parse_int(o or 0),))
    if head == "explicit":
        return ExplicitSet(tuple(parse_int(x) for x in rest.split(",") if x != ""))
    if head == "explicit-file":
        with open(rest, "r", encoding="utf-8") as fh:
            return ExplicitSet(tuple(parse_int(line) for line in fh if line.strip()))
    if head == "intervals":
        ivs = []
        for part in rest.split(","):
            a, _, b = part.partition("-")
            ivs.append((parse_int(a), parse_int(b)))
        return intervals_set(ivs)
    if head == "powers":
        parts = rest.split(":")
        base = parse_int(parts[0])
        min_exp = parse_int(parts[1]) if len(parts) > 1 else 0
        return GeometricSet(base, min_exp)
    if head == "segments":
        segs = []
        for part in rest.split(";"):
            fields = part.split(":")
            if len(fields) != 4:
                raise UsageError(f"segment {part!r} needs the form <start>:<end>:<num>:<den>")
            segs.append(tuple(parse_int(x) for x in fields))
        return SegmentPatternSet(tuple(segs))
    if head == "prescribed":
        rs = [parse_fraction(x) for x in rest.split(",")]
        if len(rs) != 4:
            raise UsageError("prescribed sets take four target densities")
        return make_prescribed_density_set(*rs)
    raise UsageError(f"unknown set spec {spec!r}")


def write_explicit_set(path, s: ExplicitSet):
    with open(path, "w", encoding="utf-8") as fh:
        for m in s.members:
            fh.write(f"{m}\n")


# ---------------------------------------------------------------------------
# weight and operator specs


def parse_weight_spec(spec: str):
    spec = spec.strip()
    if spec == "rolewicz2":  # the doubling shift, by its usual name
        return ConstantWeights(2.0)
    if spec == "counterexample-c0":
        return cx.DoublingResetWeights()
    head, _, rest = spec.partition(":")
    if head == "constant":
        return ConstantWeights(float(parse_fraction(rest)))
    if head == "ratio-power":
        return RatioPowerWeights(float(parse_fraction(rest)))
    if head == "table":
        with open(rest, "r", encoding="utf-8") as fh:
            values = [_parse_float(line) for line in fh if line.strip()]
        return TableWeights(values)
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
        return lp(float(parse_fraction(rest)), bilateral)
    raise UsageError(f"unknown space spec {spec!r}")


def parse_family_spec(spec: str) -> SetFamily:
    head, _, rest = spec.strip().partition(":")
    parts = [p for p in rest.split(":") if p != ""]
    second_default = {"dyadic-block": 6, "prime-power": 5, "counterexample": 3}
    if head not in second_default:
        raise UsageError(f"unknown family spec {spec!r}")
    if not parts:
        raise UsageError(f"family spec {spec!r} needs a level count")
    k_max = parse_int(parts[0])
    second = parse_int(parts[1]) if len(parts) > 1 else second_default[head]
    if head == "dyadic-block":
        return dyadic_block_family(k_max, second)
    if head == "prime-power":
        return prime_power_family(k_max, second)
    return cx.build_block_family(k_max, second).set_family()


# ---------------------------------------------------------------------------
# vectors and targets


@contextlib.contextmanager
def _long_int_text():
    """Lift the interpreter's int <-> str digit guard to 200 000 digits inside the block, then restore it.

    Exact dyadic vector entries can carry denominators with tens of
    thousands of decimal digits.  The guard is process-wide, so it is
    raised only around vector files, never for the library user at large.
    """
    before = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if not 0 < before < 200_000:
        yield
        return
    sys.set_int_max_str_digits(200_000)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def write_vector(path, v: SparseVec):
    with _long_int_text(), open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# space {v.space.describe()}\n")
        for idx in v.support():
            val = v.entries[idx]
            fh.write(f"{idx} {format_fraction(val) if isinstance(val, (int, Fraction)) else repr(val)}\n")


def read_vector(path) -> SparseVec:
    space = None
    entries = {}
    with _long_int_text(), open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# space"):
                space = parse_space_spec(line.removeprefix("# space").strip())
                continue
            idx, _, val = line.partition(" ")
            exact = "/" in val or val.lstrip("-").isdigit()
            entries[parse_int(idx)] = parse_fraction(val) if exact else _parse_float(val)
    if space is None:
        raise UsageError(f"{path} is missing its space header")
    return SparseVec(entries, space)


def parse_vector_spec(spec: str, space: SpaceSpec, dense=None) -> SparseVec:
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head == "e":
        return SparseVec.basis(space, parse_int(rest))
    if head == "zero":
        if rest:
            raise UsageError(f"vector spec {spec!r}: zero takes no argument")
        return SparseVec.zero(space)
    if head == "dense":
        if dense is None:
            raise UsageError("dense targets need a dense sequence")
        return dense.item(parse_int(rest))
    if head == "ones":
        a, _, b = rest.partition("-")
        return SparseVec({i: 1 for i in range(parse_int(a), parse_int(b) + 1)}, space)
    if head == "file":
        return read_vector(rest)
    raise UsageError(f"unknown vector spec {spec!r}")


def parse_target_spec(spec: str, space: SpaceSpec, dense=None):
    """`<vector-spec>@<radius>` -> (center, radius)."""
    body, _, radius = spec.rpartition("@")
    if not body:
        raise UsageError(f"target spec {spec!r} needs the form <vector>@<radius>")
    return parse_vector_spec(body, space, dense), float(parse_fraction(radius))


# ---------------------------------------------------------------------------
# CSV and manifests


def format_value(x) -> str:
    if isinstance(x, Fraction):
        return format_fraction(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(x) for x in row) + "\n")


def config_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_manifest(path, command: str, params: dict, wall_time: float, workers: int):
    from . import __version__

    lines = [
        f"command: {command}",
        f"config_hash: {config_hash(params)}",
        f"package_version: {__version__}",
        f"workers: {workers}",
        f"wall_time_s: {wall_time:.3f}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
