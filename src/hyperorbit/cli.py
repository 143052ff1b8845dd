"""Reproducible experiment runner.

Every analysis is a subcommand writing CSV tables plus a manifest into an
output directory.  Identical configurations produce byte-identical CSVs;
run variability (wall time) lives only in the manifest.  Exit codes:
0 success, 2 usage (malformed flags or config, unsupported structures,
empty data), 3 a verification check failed, 4 numeric overflow forced
truncation (partial outputs are kept).  Files reach the output directory
only when the runner returns, so an exit 2 leaves none.

The two parsers are built once per process and never written to.  A
`--config` file's entries become flag text right after the subcommand, so
argparse checks them as typed flags and the command line's own flags win.
Runners are looked up by name at each call, so wrapping a `run_*` still works.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from itertools import accumulate
from math import frexp
from operator import eq

from . import constructor, counterexample as cx, recurrence
from .errors import FamilyExhaustedError, HyperorbitError, NoDataError, UsageError
from .indexsets import (
    check_gap_family,
    difference_set,
    estimate_densities,
    is_syndetic,
    make_prescribed_density_set,
)
from .io_text import (
    _items,
    parse_densities,
    parse_family_spec,
    parse_fraction,
    parse_int_list,
    parse_operator_spec,
    parse_real,
    parse_set_spec,
    parse_target_spec,
    parse_vector_spec,
    parse_weight_spec,
    write_csv,
    write_explicit_set,
    write_manifest,
    write_vector,
)
from .shifts import mixing_test, reciprocal_product_series

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_OVERFLOW = 4


def _density_rows(tag, report):
    return [
        (
            tag,
            *report.as_tuple(),
            report.effective_horizon,
            report.window,
            report.banach_argmin,
            report.banach_argmax,
        )
    ]


DENSITY_HEADER = (
    "target",
    "lower_banach",
    "lower_density",
    "upper_density",
    "upper_banach",
    "effective_horizon",
    "window",
    "banach_argmin",
    "banach_argmax",
)


def run_densities(args, out):
    A = parse_set_spec(args.set)
    window = None
    if args.window_grid is not None:  # a comma list, of which the estimator takes the largest
        grid = parse_int_list(args.window_grid)
        if not grid:
            raise UsageError("--window-grid needs at least one window length")
        if min(grid) < 1:
            raise UsageError("window lengths must be >= 1")
        window = max(grid)
    report = estimate_densities(A, args.horizon, window, args.tail_factor)
    write_csv(os.path.join(out, "densities.csv"), DENSITY_HEADER, _density_rows(args.set, report))
    return EXIT_OK


def run_make_set(args, out):
    targets = parse_densities(args.targets)
    A = make_prescribed_density_set(*targets, eras=args.eras, window=args.window)
    with open(os.path.join(out, "set.txt"), "w", encoding="utf-8") as fh:
        fh.write(A.describe() + "\n")
    report = estimate_densities(A, A.recommended_horizon, A.recommended_window, A.recommended_tail_factor)
    rows = _density_rows(args.targets, report)
    write_csv(os.path.join(out, "self_check.csv"), DENSITY_HEADER, rows)
    achieved = report.as_tuple()
    bad = [abs(a - t) for a, t in zip(achieved, targets)]
    if max(bad) > Fraction(1, 20):
        print(f"make-set: worst deviation {float(max(bad)):.4f} exceeds 0.05", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def run_check_family(args, out):
    family = parse_family_spec(args.family)
    if args.horizon < 0:
        raise UsageError(f"--horizon must be >= 0 (0 checks every member of a finite family), got {args.horizon}")
    horizon = args.horizon or None
    result = check_gap_family(family, horizon)
    rows = [(family.label, result.ok, result.pairs_checked, repr(result.violation))]
    write_csv(
        os.path.join(out, "gap_check.csv"),
        ("family", "ok", "members_checked", "violation"),
        rows,
    )
    return EXIT_OK if result.ok else EXIT_VERIFICATION


def _walk_product_law(runs, in_s, weights, pow2, exps):
    """One pass over a product law that fails: its first failing n and conjunct, and a flag byte per n, 1 where it holds."""
    law, why, total = bytearray(max(len(runs), len(in_s), len(weights))), None, 0
    for n, (run, flag, w) in enumerate(zip(runs, in_s, weights), 1):
        total += exps[w]
        if not pow2[w]:
            fault = f"weight {w!r} is not a power of two"
        elif total != run:
            fault = f"exponent sum {total}, run length {run}"
        elif bool(total) != flag:
            fault = f"exponent sum {total} with n {'in' if flag else 'outside'} S"
        else:
            law[n - 1] = 1
            continue
        why = why or f"n = {n}: {fault}"
    if why is None:  # zip stops at the shortest sequence: the first index missing from one of them fails
        n = min(len(runs), len(in_s), len(weights)) + 1
        why = f"n = {n}: the stream has {len(weights)} weights and {len(in_s)} membership flags for {len(runs)} run lengths"
    return why, law


def run_verify_counterexample(args, out):
    if args.product_horizon < 1:
        raise UsageError("--product-horizon must be >= 1")
    report = cx.verify_scale_exclusion(args.kmax, args.lmax)
    write_csv(
        os.path.join(out, "exclusion.csv"),
        ("k", "l", "m", "hit_scale", "ok"),
        [(r.k, r.l, r.m, "" if r.hit_scale is None else r.hit_scale, r.ok) for r in report.rows],
    )

    # product law, per index n: w_n is an exact power of two, the exponents
    # sum to the run length read off S's merged runs, and the sum is 0
    # exactly off S (the flags are 0 or 1); it holds when four whole-sequence
    # equalities do, each one C-level pass, and only a failing law is walked
    horizon = args.product_horizon
    runs = cx.run_length_array(horizon)
    in_s, weights = cx.DoublingResetWeights().stream(horizon)
    # mantissa and exponent depend on the value alone: one frexp per distinct weight
    pow2, exps = {}, {}
    for w in set(weights):
        mantissa, e = frexp(w)
        pow2[w], exps[w] = mantissa == 0.5, e - 1
    # the prefix sums are taken twice, as iterators, so no list of them is held
    holds = (
        all(pow2.values())
        and len(runs) == len(in_s) == len(weights)
        and all(map(eq, accumulate(map(exps.__getitem__, weights)), runs))
        and bytes(map(bool, accumulate(map(exps.__getitem__, weights)))) == in_s
    )
    stride = max(1, horizon // 20)
    law = b""
    if not holds:
        why, law = _walk_product_law(runs, in_s, weights, pow2, exps)
        print(f"verification failure: product law fails at {why}", file=sys.stderr)
    rows = [(n, runs[n - 1], holds or law[n - 1] == 1) for n in range(stride, horizon + 1, stride)]
    write_csv(os.path.join(out, "products.csv"), ("n", "run_exponent", "ok"), rows)

    family = cx.build_block_family(args.family_levels, args.family_reps)
    conds = cx.verify_block_conditions(family)
    gap = check_gap_family(family.set_family())
    write_csv(
        os.path.join(out, "blocks.csv"),
        ("block", "level", "count", "cond1", "cond2", "cond3", "cond4"),
        [(c.index, family.blocks[c.index - 1].level, family.blocks[c.index - 1].count, *c.ok) for c in conds],
    )

    ok = report.ok and holds and all(c.all_ok() for c in conds) and gap.ok
    return EXIT_OK if ok else EXIT_VERIFICATION


def run_dj_scan(args, out):
    rows = []
    all_ok = True
    js = parse_int_list(args.j)
    if not js:
        raise UsageError("--j needs at least one threshold")
    runs = cx.s_intervals_in(1, args.horizon)
    for j in js:
        rep = cx.product_threshold_scan(j, args.horizon, runs=runs)
        all_ok = all_ok and rep.bound_respected and rep.envelope_ok
        for r in rep.rows:
            rows.append((j, r.prefix, r.count, r.ratio, r.bound, rep.envelope_ok))
    write_csv(
        os.path.join(out, "threshold_scan.csv"),
        ("j", "N", "count", "ratio", "bound", "envelope_ok"),
        rows,
    )
    return EXIT_OK if all_ok else EXIT_VERIFICATION


TRUNCATION_MARGIN = 64  # the vector sums its pieces S^n y_l this many steps past the verified horizon


def run_construct(args, out):
    T = parse_operator_spec(args.operator, args.space)
    family = parse_family_spec(args.family)
    plan = constructor.select_subsequence(T, family, args.depth, args.horizon)
    with open(os.path.join(out, "plan.txt"), "w", encoding="utf-8") as fh:
        fh.write(plan.serialize())
    write_csv(
        os.path.join(out, "certificates.csv"),
        ("condition", "level", "against", "bound", "required", "ok"),
        [
            (c.condition, c.level, "" if c.against_level is None else c.against_level, c.bound, c.required, c.ok)
            for c in plan.certificates
        ],
    )
    hc = constructor.assemble_vector(plan, T, args.horizon + TRUNCATION_MARGIN)
    write_vector(os.path.join(out, "vector.txt"), hc.x)
    report = constructor.verify_orbit_bounds(hc, T, args.horizon)
    if not report.rows:
        raise NoDataError(f"no level time lies in [0, {args.horizon}]: the orbit bounds check nothing")
    write_csv(
        os.path.join(out, "orbit_bounds.csv"),
        ("level", "n", "achieved", "bound", "truncation_term", "ok"),
        [(r.level, r.time, r.achieved, r.bound, r.truncation_term, r.ok) for r in report.rows],
    )
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def _hitting_reports(args):
    """`hitting_times` of the parsed operator, vector and targets, for `orbit` and `classify`."""
    T = parse_operator_spec(args.operator, args.space)
    x = parse_vector_spec(args.vector, T.space)
    targets = [parse_target_spec(t, T.space) for t in _items(args.targets, ";")]
    return recurrence.hitting_times(T, x, targets, args.horizon)


def _truncation_exit(command, reports):
    if any(rep.truncated for rep in reports):
        print(f"{command}: overflow truncation at n={reports[0].truncated_at}", file=sys.stderr)
        return EXIT_OVERFLOW
    return EXIT_OK


def run_orbit(args, out):
    reports = _hitting_reports(args)
    hit_rows = []
    dens_rows = []
    for rep in reports:
        for n in rep.times.members:
            hit_rows.append((rep.target_index, n))
        if rep.densities:
            dens_rows.extend(_density_rows(str(rep.target_index), rep.densities))
    write_csv(os.path.join(out, "hits.csv"), ("target", "n"), hit_rows)
    write_csv(os.path.join(out, "hit_densities.csv"), DENSITY_HEADER, dens_rows)
    return _truncation_exit("orbit", reports)


def run_classify(args, out):
    reports = _hitting_reports(args)
    label = recurrence.classify(reports, parse_fraction(args.theta))
    rows = [
        (
            t.target_index,
            t.level,
            t.lower_density,
            t.upper_density,
            t.upper_banach,
            label.theta,
            label.horizon,
        )
        for t in label.per_target
    ]
    rows.append(("overall", label.overall, "", "", "", label.theta, label.horizon))
    write_csv(
        os.path.join(out, "classification.csv"),
        ("target", "level", "lower_density", "upper_density", "upper_banach", "theta", "horizon"),
        rows,
    )
    return _truncation_exit("classify", reports)


def run_return_set(args, out):
    T = parse_operator_spec(args.operator, args.space)
    U = parse_target_spec(args.u, T.space)
    V = parse_target_spec(args.v, T.space)
    rep = recurrence.return_set(T, U, V, args.horizon, args.probes, args.stride)
    write_csv(os.path.join(out, "return_times.csv"), ("n",), [(n,) for n in rep.times.members])
    synd = rep.syndetic
    write_csv(
        os.path.join(out, "return_summary.csv"),
        ("times_found", "syndetic_subset", "gap_bound", "largest_gap", "horizon"),
        [
            (
                len(rep.times.members),
                bool(synd),
                synd.gap_bound if synd else "",
                synd.largest_gap if synd else "",
                rep.horizon,
            )
        ],
    )
    return EXIT_OK


def run_correlate(args, out):
    A = parse_set_spec(args.set)
    windows = parse_int_list(args.windows, ":")
    rep = recurrence.correlation_scan(A, parse_fraction(args.epsilon), args.kmax, windows)
    write_csv(
        os.path.join(out, "correlation.csv"),
        ("k", "eta_k", "in_f"),
        [(k, rep.eta[k], k in rep.levels_in_f.members) for k in sorted(rep.eta)],
    )
    synd = rep.syndetic
    write_csv(
        os.path.join(out, "correlation_summary.csv"),
        ("delta", "f_syndetic", "f_gap", "antichain_size", "antichain_bound"),
        [
            (
                rep.delta,
                bool(synd),
                synd.gap_bound if synd else "",
                len(rep.antichain),
                rep.antichain_bound,
            )
        ],
    )
    return EXIT_OK if rep.antichain_ok else EXIT_VERIFICATION


def run_beta(args, out):
    A = parse_set_spec(args.set)
    profile = recurrence.AlphaProfile(kind=args.alpha, cutoff=args.cutoff)
    rep = recurrence.return_weight_sums(A, profile, args.horizon)
    write_csv(
        os.path.join(out, "beta.csv"),
        ("n", "beta"),
        sorted(rep.betas.items()),
    )
    write_csv(
        os.path.join(out, "beta_growth.csv"),
        ("cut", "max_beta", "growing"),
        [(c, b, rep.growing) for c, b in rep.growth_curve],
    )
    return EXIT_OK


def run_eqbeta(args, out):
    w = parse_weight_spec(args.operator)
    A = parse_set_spec(args.set)
    if args.sample < 1:
        raise UsageError(f"--sample must be >= 1, got {args.sample}")
    if args.n is not None:
        ns = parse_int_list(args.n)
        if not ns:
            raise UsageError("--n needs at least one time")
    else:
        ns = A.members_in(1, args.horizon)[: args.sample]
    if not ns:
        raise NoDataError(f"no time n to check: the sample of members in [1, {args.horizon}] is empty")
    p = parse_real(args.p)
    rows = []
    ok = True
    for n in ns:
        sums = recurrence.bilateral_tail_sums(w, p, A, n, args.horizon)
        ok = ok and sums.both_within()
        rows.append((n, sums.left, sums.right, sums.left_terms, sums.right_terms))
    write_csv(
        os.path.join(out, "tail_sums.csv"),
        ("n", "left", "right", "left_terms", "right_terms"),
        rows,
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def run_series_tests(args, out):
    weights = [(spec, parse_weight_spec(spec)) for spec in _items(args.weights, ";")]
    if not weights:
        raise UsageError("--weights needs at least one weight spec")
    p = parse_real(args.p)
    rows = []
    for spec, w in weights:
        series = reciprocal_product_series(w, p, args.horizon)
        mixing = mixing_test(w, args.horizon)
        rows.append(
            (
                spec,
                series.partial_sum,
                series.verdict,
                mixing.tends_to_infinity,
                args.horizon,
            )
        )
    write_csv(
        os.path.join(out, "series.csv"),
        ("weights", "partial_sum", "series_verdict", "mixing", "horizon"),
        rows,
    )
    return EXIT_OK


def run_diff_set(args, out):
    A = parse_set_spec(args.set)
    D = difference_set(A, args.horizon)
    if D.top == 0:
        raise NoDataError(
            f"the difference set is {{0}}: one member of the set lies in [0, {args.horizon}], and a gap needs two"
        )
    # gaps are judged over the realizable difference range: beyond the largest
    # member every gap is a truncation artifact (an empty D, judged at --horizon, has no members)
    evidence = is_syndetic(D, D.top if D.top >= 0 else args.horizon)
    write_explicit_set(os.path.join(out, "difference.txt"), D)
    write_csv(
        os.path.join(out, "difference_summary.csv"),
        ("members", "syndetic", "gap_bound", "largest_gap"),
        [(evidence.members, evidence.syndetic, evidence.gap_bound, evidence.largest_gap)],
    )
    return EXIT_OK


def _run_staged(runner, args, out):
    """Run `runner` on a staging directory inside `out`; its files move to `out` only if it returns."""
    stage = tempfile.mkdtemp(dir=out)
    try:
        code = runner(args, stage)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
        return code
    finally:
        shutil.rmtree(stage)


def _sub(subparsers, name, **kwargs):
    """Subcommand `name` with the three flags every one has; `main` runs it with `run_<name>`, `-` as `_`."""
    p = subparsers.add_parser(name, **kwargs)
    p.add_argument("--out", default=f"out-{name}", help="output directory")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted and ignored: every subcommand runs in one process",
    )
    p.add_argument(
        "--config", default=None, help="JSON file of flag defaults keyed by dest name (window_grid); flags win"
    )
    return p


@functools.cache
def build_parser(strict: bool) -> argparse.ArgumentParser:
    """The parser, built once per process.  `strict=False` requires no flag, so that
    `main` can find the subcommand and its `--config`, which may supply required flags."""
    ap = argparse.ArgumentParser(
        prog="hyperorbit",
        description="Exact desk-scale experiments on orbit recurrence of weighted backward shifts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _sub(sub, "densities", help="four density estimates for a set")
    p.add_argument("--set", required=strict)
    p.add_argument("--horizon", type=int, default=100000)
    p.add_argument("--window-grid", default=None)
    p.add_argument("--tail-factor", type=int, default=8)

    p = _sub(sub, "make-set", help="build a set with prescribed densities")
    p.add_argument("--targets", required=strict, help="r1,r2,r3,r4 as rationals")
    p.add_argument("--eras", type=int, default=6)
    p.add_argument("--window", type=int, default=1000)

    p = _sub(sub, "check-family", help="pairwise gap check for a family")
    p.add_argument("--family", required=strict)
    p.add_argument("--horizon", type=int, default=0, help="0 checks all members of finite families")

    p = _sub(sub, "verify-counterexample", help="exclusion sweep, product law, block conditions")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--lmax", type=int, default=100)
    p.add_argument("--product-horizon", type=int, default=100000)
    p.add_argument("--family-levels", type=int, default=3)
    p.add_argument("--family-reps", type=int, default=3)

    p = _sub(sub, "dj-scan", help="prefix densities of product-threshold sets")
    p.add_argument("--j", default="1,5,31,61,91")
    p.add_argument("--horizon", type=int, default=1000000)

    p = _sub(sub, "construct", help="plan, assemble, and verify a recurrent vector")
    p.add_argument("--operator", default="constant:2")
    p.add_argument("--space", default="l2")
    p.add_argument("--family", default="dyadic-block:8")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--horizon", type=int, default=10000)

    p = _sub(sub, "orbit", help="hitting times of an orbit against target balls")
    p.add_argument("--operator", default="constant:2")
    p.add_argument("--space", default="l2")
    p.add_argument("--vector", required=strict)
    p.add_argument("--targets", required=strict, help="semicolon-separated <vector>@<radius>")
    p.add_argument("--horizon", type=int, default=10000)

    p = _sub(sub, "classify", help="recurrence classification of hitting sets")
    p.add_argument("--operator", default="constant:2")
    p.add_argument("--space", default="l2")
    p.add_argument("--vector", required=strict)
    p.add_argument("--targets", required=strict)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--theta", default="1/100")

    p = _sub(sub, "return-set", help="verified subset of a return-time set")
    p.add_argument("--operator", default="constant:2")
    p.add_argument("--space", default="l2")
    p.add_argument("--u", required=strict)
    p.add_argument("--v", required=strict)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--stride", type=int, default=50)

    p = _sub(sub, "correlate", help="shift-correlation scan over windows")
    p.add_argument("--set", required=strict)
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--windows", default="0:3000,3000:3000,6000:3000")

    p = _sub(sub, "beta", help="weighted return sums over a set")
    p.add_argument("--set", required=strict)
    p.add_argument("--alpha", choices=("constant", "harmonic"), default="constant")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--horizon", type=int, default=2000)

    p = _sub(sub, "eqbeta", help="two-sided reciprocal-product tail sums")
    p.add_argument("--operator", default="constant:2")
    p.add_argument("--p", default="2")
    p.add_argument("--set", required=strict)
    p.add_argument("--n", default=None, help="comma-separated times; default samples members")
    p.add_argument("--sample", type=int, default=5)
    p.add_argument("--horizon", type=int, default=10000)

    p = _sub(sub, "series-tests", help="reciprocal-product series and mixing evidence")
    p.add_argument("--weights", default="constant:2;ratio-power:2;counterexample-c0")
    p.add_argument("--p", default="2")
    p.add_argument("--horizon", type=int, default=10000)

    p = _sub(sub, "diff-set", help="difference set with syndeticity evidence")
    p.add_argument("--set", required=strict)
    p.add_argument("--horizon", type=int, default=10000)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the lenient pass finds the subcommand and its config file, which may hold required flags
    args = build_parser(False).parse_args(argv)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"usage error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(stored, dict):
            print(f"usage error: config {args.config} must hold a JSON object", file=sys.stderr)
            return EXIT_USAGE
        # the lenient namespace holds every flag of the subcommand, and no help
        unknown = sorted(set(stored) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            print(f"usage error: config {args.config}: {args.command} takes no {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        for key, val in stored.items():
            if isinstance(val, (bool, list, dict)):
                print(f"usage error: config {args.config}: {key} must be a JSON string or number", file=sys.stderr)
                return EXIT_USAGE
        # each entry is typed out as its flag (--dest with - for _) right after the subcommand, so argparse
        # converts and checks it, and the command line's own flags come later and win; null keeps the default
        at = argv.index(args.command) + 1
        argv[at:at] = [f"--{key.replace('_', '-')}={val}" for key, val in stored.items() if val is not None]
    args = build_parser(True).parse_args(argv)
    out = args.out
    os.makedirs(out, exist_ok=True)
    # the hash names the computation: where it is written and the ignored --workers do not count
    params = {k: v for k, v in vars(args).items() if k not in ("config", "out", "workers")}
    started = time.monotonic()
    try:
        code = _run_staged(globals()["run_" + args.command.replace("-", "_")], args, out)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FamilyExhaustedError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except HyperorbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    write_manifest(os.path.join(out, "manifest.txt"), args.command, params, time.monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
