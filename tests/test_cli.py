import argparse
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import brute_product_law
from hypothesis import HealthCheck, given, settings, strategies as st

import hyperorbit as h
from hyperorbit import cli, counterexample as cx
from hyperorbit.cli import build_parser, main
from hyperorbit.io_text import parse_set_spec, parse_vector_spec

from test_acceptance import CLI_MATRIX


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_files(out):
    data = {}
    for fn in sorted(os.listdir(out)):
        if fn == "manifest.txt":
            continue
        data[fn] = (out / fn).read_bytes()
    return data


def test_densities_basic(tmp_path):
    code, out = run(tmp_path, "d", "densities", "--set", "evens", "--horizon", "20000")
    assert code == 0
    text = (out / "densities.csv").read_text()
    assert "1/2,1/2,1/2,1/2" in text
    assert (out / "manifest.txt").exists()


def test_make_set(tmp_path):
    code, out = run(tmp_path, "m", "make-set", "--targets", "0,1/5,1/2,1", "--eras", "4", "--window", "200")
    assert code == 0
    assert (out / "set.txt").read_text().startswith("segments:")


@pytest.mark.parametrize("targets", ["0,0,1/2,1/2", "1/4,1/4,3/4,3/4", "0,0,1/2,1"])
def test_make_set_checks_the_class_separating_targets(tmp_path, capsys, targets):
    # recommended horizons of 2.1e11 to 6.5e16: the self-check reads the set's periodic pieces
    code, out = run(tmp_path, "m", "make-set", "--targets", targets)
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 3 and err.startswith("make-set: worst deviation") and err.count("\n") == 1)
    assert (out / "self_check.csv").read_text().splitlines()[1].startswith(targets + ",")


def test_factorial_blocks_densities_at_a_trillion(tmp_path):
    code, out = run(tmp_path, "f", "densities", "--set", "factorial-blocks", "--horizon", "1000000000000")
    assert code == 0
    assert (out / "densities.csv").read_text().splitlines()[1] == (
        "factorial-blocks,0,59/500000000000,59/500000000000,17/5000,1000000000000,10000,10000,0"
    )


def test_make_set_spec_reads_back_to_its_self_check(tmp_path):
    targets, eras, window = "0,1/5,1/2,1", 4, 200
    code, out = run(tmp_path, "m", "make-set", "--targets", targets, "--eras", str(eras), "--window", str(window))
    assert code == 0
    made = h.make_prescribed_density_set(*(Fraction(t) for t in targets.split(",")), eras=eras, window=window)
    spec = (out / "set.txt").read_text().strip()
    code, back = run(tmp_path, "d", "densities", "--set", spec, "--horizon", str(made.recommended_horizon),
                     "--window-grid", str(made.recommended_window),
                     "--tail-factor", str(made.recommended_tail_factor))
    assert code == 0

    def columns(path):  # the four densities, counted from the end: make-set's target tag holds commas
        return path.read_text().splitlines()[1].split(",")[-8:-4]

    assert columns(back / "densities.csv") == columns(out / "self_check.csv")


def test_check_family(tmp_path):
    code, _ = run(tmp_path, "f", "check-family", "--family", "dyadic-block:4", "--horizon", "20000")
    assert code == 0
    code, _ = run(tmp_path, "f2", "check-family", "--family", "counterexample:2:2")
    assert code == 0
    code, _ = run(tmp_path, "f3", "check-family", "--family", "prime-power:2:1", "--horizon", "100")
    assert code == 3  # 8 and 9 collide


def test_verify_counterexample(tmp_path):
    code, out = run(
        tmp_path,
        "v",
        "verify-counterexample",
        "--kmax",
        "3",
        "--lmax",
        "20",
        "--product-horizon",
        "3000",
        "--family-levels",
        "2",
        "--family-reps",
        "2",
    )
    assert code == 0
    assert (out / "exclusion.csv").exists()
    assert (out / "products.csv").exists()
    assert (out / "blocks.csv").exists()


@pytest.mark.parametrize(
    "bad, why, failed_at",
    [
        ({99: (1, 3.0)}, "n = 99: weight 3.0 is not a power of two", ()),
        ({99: (1, 4.0)}, "n = 99: exponent sum 2, run length 1", range(100, 201, 10)),
        ({99: (0, 1.0)}, "n = 99: exponent sum 0, run length 1", range(100, 201, 10)),
        ({99: (0, 2.0)}, "n = 99: exponent sum 1 with n outside S", ()),
        ({99: (1, 4.0), 102: (0, 2.0**-4)}, "n = 99: exponent sum 2, run length 1", (100,)),
        ({200: None}, "n = 200: the stream has 199 weights and 199 membership flags for 200 run lengths", (200,)),
    ],
    ids=["not-a-power-of-two", "wrong-power", "outside-s", "wrong-membership-bit", "wrong-power-reset-to-match",
         "one-entry-short"],
)
def test_product_law_rejects_a_wrong_weight(tmp_path, monkeypatch, capsys, bad, why, failed_at):
    # w_99 is 2 (99 starts the run {99, 100, 101} of S, and w_102 = 2**-3 resets it);
    # 3 has no exact exponent, 4 shifts every later partial product, 1 says 99 lies
    # outside S, so the run is one short, and the right weight under a wrong membership
    # bit is caught only by comparing the bit with the runs.  The fifth stream is 0
    # exactly off S but one too high on the run: only the run lengths catch it.  The
    # last stream lacks its final entry, which zip or map would drop without a word.
    stream = cx.DoublingResetWeights.stream

    def bad_stream(self, horizon):
        in_s, weights = stream(self, horizon)
        in_s = bytearray(in_s)
        for k, item in sorted(bad.items(), reverse=True):
            if item is None:
                del in_s[k - 1], weights[k - 1]
            else:
                in_s[k - 1], weights[k - 1] = item
        return bytes(in_s), weights

    monkeypatch.setattr(cx.DoublingResetWeights, "stream", bad_stream)
    code, out = run(
        tmp_path, "v", "verify-counterexample", "--kmax", "2", "--lmax", "5", "--product-horizon", "200",
        "--family-levels", "2", "--family-reps", "2",
    )
    assert code == 3
    # the failure names itself in one line, and the rows sampled at n = 10, 20, ..., 200
    # fail at `failed_at` (w_99 = 3 and the wrong bit fail at 99 alone, which is not sampled)
    assert capsys.readouterr().err == f"verification failure: product law fails at {why}\n"
    lines = (out / "products.csv").read_text().splitlines()
    assert lines[0] == "n,run_exponent,ok" and len(lines) == 21
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [
        "false" if n in failed_at else "true" for n in range(10, 201, 10)
    ]
    assert (out / "blocks.csv").exists()


_NON_POWERS = st.floats(-(2.0**30), 2.0**30).filter(lambda x: x != 0 and math.frexp(x)[0] != 0.5)
_CORRUPTIONS = st.one_of(
    st.tuples(st.just("power"), st.floats(0, 1), st.integers(-40, 40)),  # w_k becomes another power of two
    st.tuples(st.just("non-power"), st.floats(0, 1), _NON_POWERS),
    st.tuples(st.just("flag"), st.floats(0, 1), st.none()),  # one membership flag flipped
    st.tuples(st.just("drop"), st.sampled_from(("weights", "flags", "both")), st.integers(1, 3)),  # off the end
)


@given(horizon=st.integers(1, 3000), corruptions=st.lists(_CORRUPTIONS, max_size=3))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_product_law_verdict_matches_exact_products(tmp_path, capsys, horizon, corruptions):
    # the exit code, the stderr line and the 20 sampled rows agree with brute_product_law on
    # the true stream and on streams with up to three corruptions at random indices
    in_s, weights = cx.DoublingResetWeights().stream(horizon)
    in_s = bytearray(in_s)
    for kind, at, value in corruptions:
        if kind == "drop":
            if at != "flags":
                del weights[max(len(weights) - value, 0) :]
            if at != "weights":
                del in_s[max(len(in_s) - value, 0) :]
        elif kind == "flag":
            if in_s:
                in_s[min(int(at * len(in_s)), len(in_s) - 1)] ^= 1
        elif weights:
            k = min(int(at * len(weights)), len(weights) - 1)
            if kind == "non-power":
                weights[k] = value
            else:
                weights[k] = 2.0**value if 2.0**value != weights[k] else 2.0 ** (value + 1)
    why, held = brute_product_law(cx.run_length_array(horizon), bytes(in_s), weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.DoublingResetWeights, "stream", lambda self, n: (bytes(in_s), list(weights)))
        code, out = run(
            tmp_path, "v", "verify-counterexample", "--kmax", "2", "--lmax", "5", "--product-horizon", str(horizon),
            "--family-levels", "2", "--family-reps", "2",
        )
    assert code == (3 if why else 0)
    assert capsys.readouterr().err == (f"verification failure: product law fails at {why}\n" if why else "")
    stride = max(1, horizon // 20)
    lines = (out / "products.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [
        "true" if n in held else "false" for n in range(stride, horizon + 1, stride)
    ]


def test_a_holding_product_law_does_no_per_index_python_work(tmp_path, monkeypatch):
    # reading weights[n] calls __getitem__ on a list subclass, C-level iteration does not; and a
    # Python loop over the indices would run thousands of lines of cli.py, not a few dozen
    class CountingList(list):
        reads = 0

        def __getitem__(self, i):
            CountingList.reads += 1
            return super().__getitem__(i)

    stream = cx.DoublingResetWeights.stream

    def counted_stream(self, horizon):
        in_s, weights = stream(self, horizon)
        return in_s, CountingList(weights)

    monkeypatch.setattr(cx.DoublingResetWeights, "stream", counted_stream)
    cli_file = main.__code__.co_filename
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != cli_file:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        code, out = run(
            tmp_path, "v", "verify-counterexample", "--kmax", "2", "--lmax", "5", "--product-horizon", "5000",
            "--family-levels", "2", "--family-reps", "2",
        )
    finally:
        sys.settrace(previous)
    assert code == 0
    assert (out / "products.csv").read_text().count(",true") == 20
    assert CountingList.reads == 0
    assert 0 < lines < 5000  # one line per index would reach the horizon
    CountingList([1.0])[0]
    assert CountingList.reads == 1  # the counter counts


def test_dj_scan(tmp_path):
    code, out = run(tmp_path, "dj", "dj-scan", "--j", "1,5", "--horizon", "10000")
    assert code == 0
    assert "ratio" in (out / "threshold_scan.csv").read_text()


def test_dj_scan_at_a_horizon_of_ten_to_the_sixty(tmp_path):
    # D_91 is empty below about 10^47, and its bound 37/125 is the first below 1
    started = time.monotonic()
    code, out = run(tmp_path, "dj", "dj-scan", "--j", "61,91", "--horizon", str(10**60))
    assert time.monotonic() - started < 1
    assert code == 0
    rows = [line.split(",") for line in (out / "threshold_scan.csv").read_text().splitlines()[1:]]
    j, n, count, ratio, bound, envelope_ok = rows[-1]
    assert (j, n, envelope_ok) == ("91", str(10**60), "true") and int(count) > 0
    assert Fraction(ratio) <= Fraction(bound) == Fraction(37, 125)
    assert cx.product_threshold_scan(91, 10**60).bound_respected


def test_dj_scan_at_a_horizon_of_ten_to_the_thirty(tmp_path):
    code, out = run(tmp_path, "dj", "dj-scan", "--horizon", str(10**30))
    assert code == 0
    rows = [line.split(",") for line in (out / "threshold_scan.csv").read_text().splitlines()[1:]]
    assert [j for j, n, *_ in rows if n == str(10**30)] == ["1", "5", "31", "61", "91"]


def test_threshold_scans_list_no_runs(tmp_path, monkeypatch):
    want = cx.product_threshold_scan(7, 10**6)

    def refuse(*args):
        raise AssertionError("the threshold scan listed S's runs")

    monkeypatch.setattr(cx, "s_intervals_in", refuse)
    assert cx.product_threshold_scan(7, 10**6) == want
    code, out = run(tmp_path, "dj", "dj-scan", "--horizon", "1000000")
    assert code == 0


def test_out_below_a_regular_file_is_a_usage_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    code, _ = run(tmp_path, "afile/sub", "densities", "--set", "evens", "--horizon", "100")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1 and "Traceback" not in err


def test_construct_and_orbit(tmp_path):
    code, out = run(
        tmp_path, "c", "construct", "--depth", "3", "--horizon", "2000", "--family", "dyadic-block:6"
    )
    assert code == 0
    vec = out / "vector.txt"
    assert vec.exists()
    code, out2 = run(
        tmp_path,
        "o",
        "orbit",
        "--vector",
        f"file:{vec}",
        "--targets",
        "dense:1@4.5;dense:2@2.5",
        "--horizon",
        "2000",
    )
    assert code == 0
    assert (out2 / "hits.csv").exists()


def test_classify_command(tmp_path):
    code, out = run(
        tmp_path,
        "cl",
        "classify",
        "--vector",
        "e:0",
        "--targets",
        "zero:@0.5",
        "--horizon",
        "2000",
    )
    assert code == 0
    body = (out / "classification.csv").read_text()
    assert "frequent" in body


def test_orbit_on_a_bilateral_space(tmp_path):
    # no dense: spec, so no dense enumeration (which is unilateral) is built
    code, _ = run(tmp_path, "bo", "orbit", "--space", "l2:bilateral", "--operator", "constant:1/2",
                  "--vector", "ones:0-40", "--targets", "e:0@1/2", "--horizon", "3000")
    assert code == 0
    code, out = run(tmp_path, "bz", "orbit", "--space", "l2:bilateral", "--operator", "constant:1/2",
                    "--vector", "ones:0-40", "--targets", "zero:@1/1000;e:-5@1", "--horizon", "300")
    assert code == 0
    space = h.lp(2.0, True)
    T = h.ShiftOperator(h.ConstantWeights(0.5), space)
    x = h.SparseVec({i: 1 for i in range(41)}, space)
    reports = h.hitting_times(T, x, [(h.SparseVec.zero(space), 0.001), (h.SparseVec.basis(space, -5), 1.0)], 300)
    want = "target,n\n" + "".join(f"{r.target_index},{n}\n" for r in reports for n in r.times.members)
    assert (out / "hits.csv").read_text() == want
    assert all(r.times.members for r in reports)


def test_classify_on_a_bilateral_space(tmp_path):
    code, out = run(tmp_path, "bc", "classify", "--space", "l2:bilateral", "--operator", "constant:1/2",
                    "--vector", "ones:0-40", "--targets", "e:0@1/2;zero:@1/1000", "--horizon", "3000")
    assert code == 0
    rows = (out / "classification.csv").read_text().splitlines()
    assert rows[1].startswith("0,none,") and rows[2].startswith("1,frequent,")


def test_dense_target_on_a_bilateral_space_is_a_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "bd", "orbit", "--space", "l2:bilateral", "--vector", "e:0", "--targets", "dense:1@1/2")
    assert code == 2
    assert capsys.readouterr().err == "usage error: the dense enumeration is unilateral\n"


def test_return_set_command(tmp_path):
    code, out = run(
        tmp_path,
        "r",
        "return-set",
        "--u",
        "dense:1@0.25",
        "--v",
        "dense:2@0.25",
        "--horizon",
        "2000",
        "--stride",
        "40",
    )
    assert code == 0
    assert (out / "return_summary.csv").exists()


def test_correlate_command(tmp_path):
    code, out = run(tmp_path, "co", "correlate", "--set", "arith:3:0")
    assert code == 0
    assert "1/3" in (out / "correlation_summary.csv").read_text()


def test_beta_command(tmp_path):
    code, out = run(tmp_path, "b", "beta", "--set", "evens", "--horizon", "500")
    assert code == 0
    assert (out / "beta_growth.csv").exists()


def test_eqbeta_command(tmp_path):
    code, out = run(
        tmp_path, "eq", "eqbeta", "--set", "explicit:0,10,20", "--n", "10", "--horizon", "100"
    )
    assert code == 0
    body = (out / "tail_sums.csv").read_text()
    assert "9.5367431640625e-07" in body


def test_eqbeta_reads_p_as_a_rational(tmp_path):
    argv = ["eqbeta", "--set", "explicit:0,10,20", "--n", "10", "--horizon", "100"]
    code, decimal = run(tmp_path, "decimal", *argv, "--p", "1.5")
    assert code == 0
    code, rational = run(tmp_path, "rational", *argv, "--p", "3/2")
    assert code == 0
    assert read_files(rational) == read_files(decimal)


def test_series_command(tmp_path):
    code, out = run(tmp_path, "s", "series-tests", "--horizon", "2000")
    assert code == 0
    body = (out / "series.csv").read_text()
    assert "converging-evidence" in body and "diverging-evidence" in body


def test_diff_set_command(tmp_path):
    code, out = run(tmp_path, "ds", "diff-set", "--set", "arith:128:64", "--horizon", "20000")
    assert code == 0
    assert "true" in (out / "difference_summary.csv").read_text()


def test_set_and_counterexample_commands_run_without_numpy(tmp_path):
    script = (
        "import sys\n"
        "from hyperorbit.cli import main\n"
        "for argv in (['diff-set', '--set', 'squares', '--horizon', '40000'],\n"
        "             ['dj-scan', '--horizon', '20000'],\n"
        "             ['verify-counterexample', '--kmax', '3', '--lmax', '10', '--product-horizon', '5000']):\n"
        "    assert main(argv + ['--workers', '1', '--out', 'out-' + argv[0]]) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_starts_no_process_machinery():
    script = (
        "import sys\n"
        "import hyperorbit.cli\n"
        "loaded = sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_only_the_package_and_the_standard_library():
    # pyproject.toml declares no dependency: a third-party import would also raise every bench peak RSS
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hyperorbit.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "hyperorbit.cli" in loaded
    roots = {name.partition(".")[0] for name in loaded}
    assert sorted(roots - {"hyperorbit"} - sys.stdlib_module_names) == []


def test_bench_tracer_finds_every_traced_name():
    # install() raises LookupError when a name in bench/tracing.py's tables is gone from the package
    script = (
        "import tracing\n"
        "from hyperorbit import indexsets\n"
        "before = indexsets.check_gap_family\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "assert indexsets.check_gap_family is not before\n"
        "tracer.uninstall()\n"
        "assert indexsets.check_gap_family is before\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = (os.path.join(root, "bench"), os.path.join(root, "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_code(tmp_path):
    code, _ = run(tmp_path, "bad", "densities", "--set", "nonsense-spec")
    assert code == 2


# a vector file that gives index 3 two values
DUPLICATE_INDEX_VECTOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "duplicate_index_vector.txt")
# a weight table file with no weight, only a blank line
EMPTY_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "empty_table.txt")


# each of these exits 2 with a one-line usage error
REJECTED = {
    "set-spec": ["densities", "--set", "periodic:x:1"],
    "window-grid": ["densities", "--set", "evens", "--window-grid", "a"],
    "windows": ["correlate", "--set", "evens", "--windows", "0-10"],
    "target-radius": ["orbit", "--vector", "e:0", "--targets", "e:0@abc"],
    "segment-den-0": ["densities", "--set", "segments:0:10:1:0"],
    "segment-num-over-den": ["densities", "--set", "segments:0:10:3:2"],
    "segment-overlap": ["densities", "--set", "segments:0:10:1:1;5:15:1:1"],
    "nullary-weight-junk": ["series-tests", "--weights", "counterexample-c0:junk"],
    "zero-vector-junk": ["orbit", "--vector", "e:0", "--targets", "zero:junk@1/2"],
    "construct-lp-1.5": ["construct", "--space", "lp:1.5", "--depth", "2", "--horizon", "200"],
    "construct-c0": ["construct", "--space", "c0", "--depth", "2", "--horizon", "200"],
    "construct-prime-power": ["construct", "--family", "prime-power:3", "--depth", "2", "--horizon", "200"],
    "beta-no-members": ["beta", "--set", "explicit:5", "--horizon", "1"],
    "diff-set-no-members": ["diff-set", "--set", "explicit:500", "--horizon", "10"],
    "return-set-stride-0": ["return-set", "--u", "e:0@1/2", "--v", "e:0@1/2", "--horizon", "10", "--stride", "0"],
    "constant-overflow": ["series-tests", "--weights", "constant:1e400"],
    "radius-overflow": ["orbit", "--vector", "e:0", "--targets", "e:0@1e400"],
    "prime-power-negative-exponent": ["check-family", "--family", "prime-power:2:-1", "--horizon", "1000"],
    "dyadic-block-negative-spread": ["check-family", "--family", "dyadic-block:2:-1", "--horizon", "1000"],
    "powers-negative-exponent": ["densities", "--set", "powers:2:-1", "--horizon", "100"],
    "family-empty-field": ["check-family", "--family", "dyadic-block::3", "--horizon", "1000"],
    "powers-extra-field": ["densities", "--set", "powers:2:3:junk", "--horizon", "100"],
    "family-extra-field": ["check-family", "--family", "dyadic-block:3:6:junk", "--horizon", "1000"],
    "series-p-nan": ["series-tests", "--p", "nan"],
    "series-p-inf": ["series-tests", "--p", "inf"],
    "eqbeta-p-nan": ["eqbeta", "--set", "explicit:0,10,20", "--n", "10", "--horizon", "100", "--p", "nan"],
    "explicit-empty-item": ["densities", "--set", "explicit:1,,3", "--horizon", "100"],
    "periodic-empty-item": ["densities", "--set", "periodic:5:1,,3", "--horizon", "100"],
    "ratio-power-overflow": ["series-tests", "--weights", "ratio-power:1e400"],
    "lp-overflow": ["orbit", "--vector", "e:0", "--space", "lp:1e400", "--targets", "zero:@1"],
    "arith-empty-offset": ["densities", "--set", "arith:3:", "--horizon", "100"],
    "classify-theta-negative": ["classify", "--vector", "e:0", "--targets", "e:5@1/1000", "--horizon", "200", "--theta", "-1"],
    "classify-theta-one": ["classify", "--vector", "e:0", "--targets", "e:5@1/1000", "--horizon", "200", "--theta", "1"],
    "product-horizon-negative": ["verify-counterexample", "--kmax", "2", "--lmax", "5", "--product-horizon", "-5"],
    "product-horizon-0": ["verify-counterexample", "--kmax", "2", "--lmax", "5", "--product-horizon", "0"],
    "kmax-0": ["verify-counterexample", "--kmax", "0", "--lmax", "5", "--product-horizon", "200"],
    "lmax-0": ["verify-counterexample", "--kmax", "2", "--lmax", "0", "--product-horizon", "200"],
    "dj-scan-no-j": ["dj-scan", "--j=", "--horizon", "10000"],
    "return-set-horizon-0": ["return-set", "--u", "e:0@1/2", "--v", "e:0@1/2", "--horizon", "0"],
    "correlate-kmax-0": ["correlate", "--set", "arith:3:0", "--kmax", "0"],
    "construct-depth-0": ["construct", "--depth", "0", "--horizon", "200"],
    "diff-set-difference-zero-only": ["diff-set", "--set", "explicit:5"],
    "eqbeta-horizon-0": ["eqbeta", "--set", "explicit:3,5", "--horizon", "0"],
    "eqbeta-horizon-negative": ["eqbeta", "--set", "explicit:3,5", "--horizon", "-1"],
    "eqbeta-no-member-sampled": ["eqbeta", "--set", "explicit:3,5", "--horizon", "2"],
    "beta-horizon-0": ["beta", "--set", "evens", "--horizon", "0"],
    "explicit-tower-no-exponent": ["densities", "--set", "explicit:5,10^", "--horizon", "100"],
    "explicit-tower-unclosed": ["densities", "--set", "explicit:10^(5", "--horizon", "100"],
    "explicit-tower-unclosed-nested": ["densities", "--set", "explicit:10^(10^102+6", "--horizon", "100"],
    "explicit-tower-not-digits": ["densities", "--set", "explicit:10^x", "--horizon", "100"],
    "explicit-tower-below-minimum": ["densities", "--set", "explicit:10^5", "--horizon", "100"],
    "explicit-tower-offset-out-of-range": ["densities", "--set", "explicit:10^19+10000000000000000000", "--horizon", "100"],
    "densities-tail-factor-0": ["densities", "--set", "evens", "--horizon", "100", "--tail-factor", "0"],
    "densities-tail-factor-negative": ["densities", "--set", "evens", "--horizon", "100", "--tail-factor", "-3"],
    "make-set-window-0": ["make-set", "--targets", "0,1/5,1/2,1", "--window", "0"],
    "make-set-eras-0": ["make-set", "--targets", "0,1/5,1/2,1", "--eras", "0"],
    "return-set-probes-negative": ["return-set", "--u", "e:0@1", "--v", "e:0@1", "--horizon", "10", "--probes", "-1"],
    "intervals-reversed": ["densities", "--set", "intervals:5-3", "--horizon", "100"],
    "ones-reversed": ["orbit", "--vector", "ones:5-2", "--targets", "e:0@1", "--horizon", "10"],
    "orbit-no-target": ["orbit", "--vector", "e:0", "--targets", "", "--horizon", "10"],
    "eqbeta-sample-negative": ["eqbeta", "--set", "explicit:3,5,7", "--horizon", "100", "--sample", "-2"],
    "eqbeta-sample-0": ["eqbeta", "--set", "explicit:3,5,7", "--horizon", "100", "--sample", "0"],
    "eqbeta-n-past-horizon": ["eqbeta", "--set", "explicit:3,5", "--n", "3", "--horizon", "2"],
    "beta-cutoff-1": ["beta", "--set", "evens", "--horizon", "100", "--cutoff", "1"],
    "beta-cutoff-0": ["beta", "--set", "evens", "--horizon", "100", "--cutoff", "0"],
    "beta-cutoff-negative": ["beta", "--set", "evens", "--horizon", "100", "--cutoff", "-1"],
    "construct-horizon-0": ["construct", "--horizon", "0", "--depth", "2"],
    "classify-horizon-below-a-window": ["classify", "--vector", "e:0", "--targets", "zero:@0.5", "--horizon", "9"],
    # `;` lists follow the comma rule: the empty text is no item, an empty item is an error
    "orbit-empty-target": ["orbit", "--vector", "e:0", "--targets", "e:0@1;;e:1@1", "--horizon", "10"],
    "classify-trailing-semicolon": ["classify", "--vector", "e:0", "--targets", "zero:@0.5;", "--horizon", "2000"],
    "series-empty-weight": ["series-tests", "--weights", "constant:2;;ratio-power:2"],
    "series-no-weights": ["series-tests", "--weights", ""],
    "check-family-horizon-negative": ["check-family", "--family", "counterexample:2:2", "--horizon", "-5"],
    # a nonzero real that rounds to 0 lies outside the float range, like one that overflows
    "constant-underflow": ["series-tests", "--weights", "constant:1e-400"],
    "table-values-underflow": ["series-tests", "--weights", "table-values:1e-400"],
    "radius-underflow": ["orbit", "--vector", "e:0", "--targets", "e:0@1e-400"],
    # the empty text is the empty list, and these lists need an item
    "densities-empty-window-grid": ["densities", "--set", "evens", "--window-grid", ""],
    "eqbeta-empty-n": ["eqbeta", "--set", "explicit:3,5", "--n", "", "--horizon", "100"],
    "table-values-empty": ["orbit", "--vector", "ones:0-10", "--targets", "zero:@1", "--operator", "table-values:",
                           "--horizon", "20"],
    "table-file-empty": ["series-tests", "--weights", f"table:{EMPTY_TABLE}"],
    "vector-file-duplicate-index": ["orbit", "--vector", f"file:{DUPLICATE_INDEX_VECTOR}", "--targets", "e:3@1/2",
                                    "--horizon", "10"],
}

# exit 2 only after the runner has written some of its files
REJECTED_AFTER_WRITING = {
    "family-levels-0": ["verify-counterexample", "--family-levels", "0", "--product-horizon", "1000"],
    "construct-c0-certified": ["construct", "--space", "c0", "--horizon", "500", "--depth", "2"],
    "construct-lp-3-certified": ["construct", "--space", "lp:3", "--horizon", "500", "--depth", "2"],
}


@pytest.mark.parametrize("argv", list(REJECTED.values()), ids=list(REJECTED))
def test_malformed_numbers_exit_code(tmp_path, capsys, argv):
    code, _ = run(tmp_path, "bad", *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [*REJECTED.values(), *REJECTED_AFTER_WRITING.values()],
    ids=[*REJECTED, *REJECTED_AFTER_WRITING],
)
def test_empty_ranges_are_rejected_before_any_csv(tmp_path, argv):
    code, out = run(tmp_path, "empty", *argv)
    assert code == 2
    assert not list(out.iterdir())


def test_make_set_names_the_eras_bound(tmp_path, capsys):
    code, _ = run(tmp_path, "e0", "make-set", "--targets", "0,1/5,1/2,1", "--eras", "0")
    assert code == 2
    assert capsys.readouterr().err == "usage error: window and eras must be >= 1, got window 1000 and eras 0\n"


@pytest.mark.parametrize("spec,first,last", [("ones:-5-5", -5, 5), ("ones:-9--3", -9, -3)])
def test_ones_ranges_may_start_below_zero_on_a_bilateral_space(tmp_path, spec, first, last):
    # the pair splits at the first '-' after its first character, so a leading minus is a sign
    space = h.lp(2.0, bilateral=True)
    assert parse_vector_spec(spec, space) == h.SparseVec({i: 1 for i in range(first, last + 1)}, space)
    code, _ = run(tmp_path, "o", "orbit", "--space", "lp:2:bilateral", "--vector", spec, "--operator", "constant:2",
                  "--targets", "e:0@1/2", "--horizon", "10")
    assert code == 0


def test_a_ones_range_below_zero_is_refused_on_a_unilateral_space(tmp_path, capsys):
    code, _ = run(tmp_path, "o", "orbit", "--vector", "ones:-5-5", "--targets", "e:0@1/2", "--horizon", "10")
    assert code == 2
    assert capsys.readouterr().err == "usage error: negative index -5 in a unilateral space\n"


def test_intervals_below_zero_reach_their_own_message(tmp_path, capsys):
    code, _ = run(tmp_path, "i", "densities", "--set", "intervals:-3-5", "--horizon", "100")
    assert code == 2
    assert capsys.readouterr().err == "usage error: intervals live in the non-negative integers\n"


def test_a_301_level_tower_reads_back(tmp_path):
    # towers nest to any depth
    spec = "explicit:" + "10^(" * 301 + "10^19" + ")" * 301
    code, _ = run(tmp_path, "deep", "densities", "--set", spec, "--horizon", "100")
    assert code == 0
    assert parse_set_spec(spec).describe() == spec


def test_check_family_on_deep_towers_needs_no_recursion(tmp_path):
    # block i of counterexample:1:600 nests about i levels deep; a recursion limit of 120 leaves
    # no room for a frame per level
    script = (
        "import sys\n"
        "sys.setrecursionlimit(120)\n"
        "from hyperorbit.cli import main\n"
        "sys.exit(main(['check-family', '--family', 'counterexample:1:600', '--out', 'out']))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "true,180300" in (tmp_path / "out" / "gap_check.csv").read_text()


# the construct margin is a constant now, so a config that sets it is refused by name
TRUNCATION_MARGIN_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "truncation_margin.json")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["classify", "--vector", "e:0", "--targets", "zero:@0.5", "--horizon", "9"],
         "classify needs a horizon of at least 10, the smallest density window; got 9"),
        (["beta", "--set", "evens", "--horizon", "100", "--cutoff", "0"],
         "the cutoff must be >= 2, got 0: below 2 every alpha_n is 0"),
        (["eqbeta", "--set", "explicit:3,5,7", "--horizon", "100", "--sample", "-2"], "--sample must be >= 1, got -2"),
        (["eqbeta", "--set", "explicit:3,5", "--n", "3", "--horizon", "2"], "n=3 lies past the horizon 2"),
        (["construct", "--horizon", "0", "--depth", "2"],
         "no level time lies in [0, 0]: the orbit bounds check nothing"),
        (["beta", "--set", "evens", "--cutoff", "500"],
         "cutoff 500 leaves no profile mass in (1000, 2000]: at horizon 2000 the cutoff must exceed"
         " horizon // 2 + 1 = 1001"),
        (["construct", "--config", TRUNCATION_MARGIN_CONFIG],
         f"config {TRUNCATION_MARGIN_CONFIG}: construct takes no truncation_margin"),
        (["check-family", "--family", "dyadic-block:3", "--horizon", "-5"],
         "--horizon must be >= 0 (0 checks every member of a finite family), got -5"),
        (["series-tests", "--weights", "constant:1e-400"], "'1e-400' lies outside the float range"),
        (["series-tests", "--weights", "table-values:1e-400"], "'1e-400' lies outside the float range"),
        (["orbit", "--vector", "e:0", "--targets", "e:0@1e-400"], "'1e-400' lies outside the float range"),
        (["densities", "--set", "evens", "--window-grid", ""], "--window-grid needs at least one window length"),
        (["densities", "--set", "evens", "--window-grid", "0,100"], "window lengths must be >= 1"),
        (["eqbeta", "--set", "explicit:3,5", "--n", "", "--horizon", "100"], "--n needs at least one time"),
        (["make-set", "--targets", "1/2,1/4,3/4,1"], "need 0 <= r1 <= r2 <= r3 <= r4 <= 1, got 1/2,1/4,3/4,1"),
        (["orbit", "--vector", f"file:{DUPLICATE_INDEX_VECTOR}", "--targets", "e:3@1/2", "--horizon", "10"],
         f"{DUPLICATE_INDEX_VECTOR} lists index 3 twice"),
    ],
    ids=["classify-horizon", "beta-cutoff", "eqbeta-sample", "eqbeta-n", "construct-horizon", "beta-cutoff-late",
         "construct-truncation-margin", "check-family-horizon", "constant-underflow", "table-values-underflow",
         "radius-underflow", "empty-window-grid", "window-grid-entry-0", "empty-n", "make-set-order",
         "vector-duplicate-index"],
)
def test_rejections_name_their_cause(tmp_path, capsys, argv, message):
    code, _ = run(tmp_path, "r", *argv)
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_manifest_records_no_worker_count(tmp_path, monkeypatch):
    # --workers is accepted and ignored, and HYPERORBIT_WORKERS is not read: no manifest line names workers
    monkeypatch.setenv("HYPERORBIT_WORKERS", "5")
    for name, workers in (("auto", []), ("eight", ["--workers", "8"])):
        code, out = run(tmp_path, name, "densities", "--set", "evens", "--horizon", "2000", *workers)
        assert code == 0
        keys = [line.partition(":")[0] for line in (out / "manifest.txt").read_text().splitlines()]
        assert keys == ["command", "config_hash", "package_version", "wall_time_s"]


def test_window_grid_hands_on_its_largest_entry(tmp_path):
    argv = ["densities", "--set", "evens", "--horizon", "100000"]
    _, grid = run(tmp_path, "grid", *argv, "--window-grid", "10,100")
    _, largest = run(tmp_path, "largest", *argv, "--window-grid", "100")
    assert (grid / "densities.csv").read_bytes() == (largest / "densities.csv").read_bytes()


def test_construct_refuses_a_near_power_of_two(tmp_path, capsys):
    code, _ = run(tmp_path, "c", "construct", "--operator", "constant:7.999999999999999", "--depth", "2",
                  "--horizon", "200")
    assert code == 3
    assert capsys.readouterr().err == (
        "verification failure: condition i: no positive exact growth rate, right-inverse tails do not shrink\n"
    )


@pytest.mark.parametrize("probes", [[], ["--probes", "0"]], ids=["probes", "no-probes"])
def test_a_table_of_twos_returns_like_the_constant_two(tmp_path, probes):
    table = tmp_path / "twos.txt"
    table.write_text("2\n" * 2000)
    argv = ["return-set", "--u", "dense:1@1/4", "--v", "dense:2@1/4", "--horizon", "1500", "--stride", "50", *probes]
    code, twos = run(tmp_path, "twos", *argv, "--operator", f"table:{table}")
    assert code == 0
    code, constant = run(tmp_path, "constant", *argv, "--operator", "constant:2")
    assert code == 0
    assert read_files(twos) == read_files(constant)


def test_return_set_carries_products_past_the_float_range(tmp_path):
    # the witness at t scales by 3**t and 3**-t: past the float range and below it from t = 650 on,
    # where both products are carried as exact Fractions
    argv = ["return-set", "--operator", "constant:3", "--u", "dense:1@1/4", "--v", "dense:2@1/4"]
    for horizon, last in ((600, 600), (1500, 1500)):
        code, out = run(tmp_path, str(horizon), *argv, "--horizon", str(horizon))
        assert code == 0
        times = [int(n) for n in (out / "return_times.csv").read_text().split()[1:]]
        assert times == list(range(50, last + 1, 50))


# a float vector with the one entry 0.5 at index 1500
FAR_FLOAT_VECTOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "far_float_vector.txt")


def test_return_set_moves_a_far_float_entry_exactly(tmp_path):
    # B^t scales the float 0.5 by 2**t, past the float range from t = 1024 on; from t = 1501 on the
    # witness 0.5 e_1500 + 2**-t e_t lies in U and returns to e_0
    argv = ["return-set", "--u", f"file:{FAR_FLOAT_VECTOR}@0.25", "--v", "e:0@0.25", "--horizon", "2000"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hyperorbit.cli", *argv, "--out", "far"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    times = [int(n) for n in (tmp_path / "far" / "return_times.csv").read_text().split()[1:]]
    assert times == list(range(1550, 2001, 50))


def test_beta_names_the_horizon_bound(tmp_path, capsys):
    code, _ = run(tmp_path, "b0", "beta", "--set", "evens", "--horizon", "0")
    assert code == 2
    assert capsys.readouterr().err == "usage error: horizon must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [["diff-set", "--set", "explicit:5"], ["diff-set", "--set", "explicit:500", "--horizon", "10"]],
    ids=["difference-zero-only", "no-members"],
)
def test_rejected_diff_set_leaves_no_difference_file(tmp_path, argv):
    code, out = run(tmp_path, "ds", *argv)
    assert code == 2
    assert not list(out.iterdir())


def test_diff_set_of_one_member_names_the_single_member(tmp_path, capsys):
    code, out = run(tmp_path, "ds1", "diff-set", "--set", "explicit:5", "--horizon", "10")
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: the difference set is {0}: one member of the set lies in [0, 10], and a gap needs two\n"
    )
    assert not list(out.iterdir())


def test_zero_table_weight_exit_code(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("1.0\n0\n2.0\n")
    code, _ = run(tmp_path, "zt", "series-tests", "--weights", f"table:{table}")
    assert code == 2
    assert capsys.readouterr().err == "usage error: zero weight at index 2\n"


def test_verification_failure_exit_code(tmp_path):
    code, _ = run(
        tmp_path, "vf", "construct", "--operator", "constant:1", "--depth", "2", "--horizon", "1000"
    )
    assert code == 3


def test_negative_weights_rejected_by_construct(tmp_path, capsys):
    code, _ = run(tmp_path, "neg", "construct", "--operator", "constant:-2", "--depth", "2", "--horizon", "200")
    assert code == 2
    assert capsys.readouterr().err == "usage error: orbit-bound certificates need positive weights\n"


def test_construct_on_a_huge_lp_exponent_ends_at_once(tmp_path, capsys):
    # the certificate powers are taken at p = 64, whose norm bounds the l^(1e20) norm, so the plan
    # is found at once and the run stops at the verifier, which is implemented for l2 only
    start = time.perf_counter()
    code, _ = run(tmp_path, "huge-p", "construct", "--space", "lp:1e20", "--depth", "2", "--horizon", "200")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == "usage error: exact verification is implemented for the l2 norm\n"


def test_overflow_exit_code(tmp_path):
    vec = tmp_path / "big.txt"
    lines = ["# space lp:2.0"] + [f"{i} 1" for i in range(0, 1100)]
    vec.write_text("\n".join(lines) + "\n")
    code, out = run(
        tmp_path,
        "of",
        "orbit",
        "--vector",
        f"file:{vec}",
        "--targets",
        "zero:@0.5",
        "--horizon",
        "2000",
    )
    assert code == 4
    assert (out / "hits.csv").exists()  # partial outputs kept


def test_classify_overflow_names_the_truncation(tmp_path, capsys):
    code, out = run(tmp_path, "of", "classify", "--vector", "e:1500", "--targets", "zero:@1", "--horizon", "2000")
    assert code == 4
    assert capsys.readouterr().err == "classify: overflow truncation at n=996\n"
    assert (out / "classification.csv").exists()  # partial outputs kept


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"set": "evens", "horizon": 5000}))
    out = tmp_path / "cfgout"
    code = main(["densities", "--config", str(cfg), "--set", "arith:3:0", "--out", str(out)])
    assert code == 0
    body = (out / "densities.csv").read_text()
    assert "arith:3:0," in body  # the explicit flag overrides the config value
    assert ",5000," in body  # the config horizon is used
    assert "333/1000" in body  # one third, up to the window rounding


def _config_hash(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return next(line for line in lines if line.startswith("config_hash:"))


def test_config_hash_ignores_out_and_workers(tmp_path):
    argv = ["densities", "--set", "evens", "--horizon", "2000"]
    hashes = set()
    for name, workers in (("one", "1"), ("two", "2")):
        code, out = run(tmp_path, name, *argv, "--workers", workers)
        assert code == 0
        hashes.add(_config_hash(out))
    assert len(hashes) == 1
    _, other = run(tmp_path, "other", "densities", "--set", "evens", "--horizon", "3000")
    assert _config_hash(other) not in hashes  # a different computation


def _config(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    return str(cfg)


@pytest.mark.parametrize(
    "flag", [["--hor", "500"], ["--horizon=500"], ["--hor=500"]], ids=["abbreviated", "joined", "both"]
)
def test_config_loses_to_every_form_of_an_explicit_flag(tmp_path, flag):
    cfg = _config(tmp_path, {"horizon": 1000})
    code, out = run(tmp_path, "d", "densities", "--set", "evens", *flag, "--config", cfg)
    assert code == 0
    assert (out / "densities.csv").read_text().splitlines()[1] == "evens,1/2,1/2,1/2,1/2,500,100,0,0"


def test_config_string_converts_like_a_flag(tmp_path):
    cfg = _config(tmp_path, {"horizon": "1000"})
    code, out = run(tmp_path, "d", "densities", "--set", "evens", "--config", cfg)
    assert code == 0
    assert ",1000," in (out / "densities.csv").read_text()


@pytest.mark.parametrize(
    "data, named",
    [
        ({"command": "diff-set"}, "command"),
        ({"sett": "squares"}, "sett"),
        ({"config": "x", "help": True}, "config, help"),
    ],
    ids=["command", "misspelled", "config-and-help"],
)
def test_config_key_the_subcommand_lacks_exit_code(tmp_path, capsys, data, named):
    code, out = run(tmp_path, "d", "densities", "--set", "evens", "--config", _config(tmp_path, data))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.endswith(f"densities takes no {named}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data, key",
    [({"window_grid": [10, 100]}, "window_grid"), ({"set": True}, "set"), ({"horizon": {"n": 5}}, "horizon")],
    ids=["array", "boolean", "object"],
)
def test_config_value_that_is_no_flag_text_is_refused_by_key(tmp_path, capsys, data, key):
    cfg = _config(tmp_path, {"set": "evens", **data})
    code, out = run(tmp_path, "d", "densities", "--config", cfg)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"usage error: config {cfg}: {key} must be a JSON string or number\n"


def test_config_null_keeps_the_default(tmp_path):
    _, plain = run(tmp_path, "plain", "beta", "--set", "evens", "--horizon", "400")
    cfg = _config(tmp_path, {"cutoff": None, "workers": None})
    code, nulled = run(tmp_path, "null", "beta", "--set", "evens", "--horizon", "400", "--config", cfg)
    assert code == 0
    assert read_files(nulled) == read_files(plain)


def _as_config(argv):
    """A flag list as a config object: dest names as keys, numbers as JSON numbers."""
    data = {}
    for flag, value in zip(argv[::2], argv[1::2]):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        data[flag[2:].replace("-", "_")] = value
    return data


@pytest.mark.parametrize(
    "row, extra",
    [(0, []), (8, []), (10, []), (13, ["--p", "1.5"])],
    ids=["densities-window-grid", "classify-c0", "return-set", "eqbeta-float-p"],
)
def test_config_gives_the_bytes_of_the_same_flags(tmp_path, row, extra):
    name, argv = CLI_MATRIX[row]
    argv = [*argv, *extra]
    code, flags = run(tmp_path, "flags", name, *argv)
    assert code == 0
    code, config = run(tmp_path, "config", name, "--config", _config(tmp_path, _as_config(argv)))
    assert code == 0
    assert read_files(config) == read_files(flags)
    assert _config_hash(config) == _config_hash(flags)


def test_a_config_value_meets_the_flags_choices(tmp_path, capsys):
    # a config entry is flag text, so argparse checks it against --alpha's choices as it does the typed flag
    lines = []
    for source in (["--alpha", "bogus"], ["--config", _config(tmp_path, {"alpha": "bogus"})]):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "b", "beta", "--set", "evens", *source)
        assert exc.value.code == 2
        lines.append(capsys.readouterr().err.splitlines()[-1])
    assert lines[0] == lines[1]
    assert lines[0].endswith("argument --alpha: invalid choice: 'bogus' (choose from 'constant', 'harmonic')")


def test_a_config_value_does_not_outlive_its_call(tmp_path):
    code, _ = run(tmp_path, "cfg", "densities", "--set", "evens", "--config", _config(tmp_path, {"horizon": 5000}))
    assert code == 0
    code, out = run(tmp_path, "plain", "densities", "--set", "evens")
    assert code == 0
    assert (out / "densities.csv").read_text().splitlines()[1].split(",")[5] == "100000"  # the default horizon


def test_a_second_call_builds_no_parser(tmp_path, monkeypatch):
    cfg = _config(tmp_path, {"horizon": 1000})
    run(tmp_path, "first", "densities", "--set", "evens", "--config", cfg)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    code, _ = run(tmp_path, "second", "densities", "--set", "evens", "--config", cfg)
    assert code == 0 and built == []


def test_every_flag_is_its_dest_typed_out_and_every_subcommand_has_a_runner():
    # config entries become --<dest, - for _>=<value>, and main runs subcommand c with run_<c, _ for ->
    for strict in (False, True):
        (subs,) = [a for a in build_parser(strict)._actions if isinstance(a, argparse._SubParsersAction)]
        for name, parser in subs.choices.items():
            assert callable(getattr(cli, "run_" + name.replace("-", "_")))
            for action in parser._actions:
                if action.dest != "help":
                    assert action.option_strings[0] == "--" + action.dest.replace("_", "-"), (name, action.dest)


def test_a_runner_wrapped_after_the_first_call_is_the_one_that_runs(tmp_path, monkeypatch):
    # the bench tracer wraps cli.run_* after its warm-up pass has built the parsers
    run(tmp_path, "first", "densities", "--set", "evens", "--horizon", "1000")
    calls = []
    runner = cli.run_densities
    monkeypatch.setattr(cli, "run_densities", lambda args, out: calls.append(args.set) or runner(args, out))
    code, _ = run(tmp_path, "second", "densities", "--set", "evens", "--horizon", "1000")
    assert code == 0 and calls == ["evens"]
