"""Seeded end-to-end benchmark of the hyperorbit CLI.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
`src/`.  One run is one process.  It times the set-up of fresh
interpreters, builds the workload's inputs from the seed, then repeats the
workload's CLI commands (each through `hyperorbit.cli.main`, in-process,
with `--workers 2`) for `--seconds` seconds.  Every output is checked; the
last line of standard output is one JSON object with the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT, ignored by git
SETUP_SAMPLES = 15

sys.path.insert(0, HERE)
import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="run one pass and store its outputs as the reference for this seed")
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload, seed, indir):
    """The work setup_s measures: import the CLI and generate the seeded inputs."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from hyperorbit.cli import main

    return main, workloads.build(workload, seed, indir)


def time_setup(workload, seed, indir):
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    The child reads the system-wide monotonic clock when its set-up is done
    and reports the time since the parent's spawn request.
    """
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only", indir, "--spawned-at", repr(spawned)]
    proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def op_dir(out_root, op):
    return os.path.join(out_root, op.name)


def _plain_time(fn, *args):
    """Call fn(*args) without speed sampling (traced passes); returns (its result, Timing)."""
    timing = speed.Timing()
    cpu0 = speed.cpu_seconds()
    t0 = time.perf_counter()
    try:
        return fn(*args), timing
    finally:
        timing.wall_s = time.perf_counter() - t0
        timing.cpu_s = speed.cpu_seconds() - cpu0


def run_pass(cli_main, ops, out_root, clock, tracer=None, pass_no=0):
    """Run every operation once; returns (the pass's summed Timing, [(op, exit code, error, Timing)]).

    Untraced passes are timed by `clock` (a speed.HostClock), traced passes without speed sampling.
    """
    for op in ops:
        shutil.rmtree(op_dir(out_root, op), ignore_errors=True)
    gc.collect()  # every pass starts from a collected heap, not from the previous pass's garbage
    results = []
    total = speed.Timing()
    if tracer is not None:
        tracer.reset_stats()
        tracer.install()
    try:
        for k, op in enumerate(ops):
            argv = [*op.argv, "--workers", str(workloads.WORKERS), "--out", op_dir(out_root, op)]
            timing = speed.Timing()
            try:
                if tracer is None:
                    code, timing = clock.time(cli_main, argv)
                else:
                    tracer.run = f"{pass_no}.{k}"
                    code, timing = _plain_time(tracer.span, "cli.main", cli_main, argv)
                err = None
            except (Exception, SystemExit) as exc:  # one failed operation must not end the run
                code, err = None, f"{type(exc).__name__}: {exc}"
            total.add(timing)
            results.append((op, code, err, timing))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return total, results


def op_errors(op, code, err, out, first, reference):
    """Errors of one operation; the first pass runs every check, later passes compare with it."""
    if err is not None:
        return [err]
    if code != 0:
        return [f"exit code {code}"]
    if op.name in first:
        return [] if checks.snapshot(out) == first[op.name] else ["outputs differ from the first pass of this run"]
    errs = []
    for check in op.checks:
        try:
            errs += check(out)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            errs.append(f"check {getattr(check, '__qualname__', check)} could not read the output: {exc!r}")
    if reference is not None:
        if op.name in reference:
            errs += checks.compare_reference(out, reference[op.name])
        else:
            errs.append("no reference output stored for this operation")
    first[op.name] = checks.snapshot(out)
    return errs


def reference_path(seed):
    return os.path.join(HERE, "reference", f"seed-{seed}.json")


def load_reference(workload, seed):
    path = reference_path(seed)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def store_reference(workload, seed, snapshots):
    path = reference_path(seed)
    data = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = snapshots
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def environment(**fields):
    """The environment block recorded with every results file, plus the run's own fields."""
    rev = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=30, check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            rev = dirty = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    import numpy

    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "workers": workloads.WORKERS,
        **fields,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def per_layer_metrics(traced, untraced_walls, traced_walls, construct_points):
    """Per-layer values: times are medians over traced passes, counts come from the first traced pass."""
    names = set().union(*traced)
    out = {}
    mismatched = []
    for name in sorted(names):
        values = [stats.get(name, 0.0) for stats in traced]
        if tracing.is_count(name):
            if any(v != values[0] for v in values):
                mismatched.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    layers = [tracing.layer_self_times(stats) for stats in traced]
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.self_s"] = statistics.median(ls.get(layer, 0.0) for ls in layers)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    out["cli.construct.growth_exp"] = tracing.growth_exponent(construct_points) if len(construct_points) > 1 else 0.0
    return out, mismatched


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperorbit", "cli.py")):
        print(f"error: no hyperorbit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        print(time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at)
        return 0
    spec = load_spec()
    base = os.path.join(WORK, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    setup_times = [time_setup(args.workload, args.seed, os.path.join(base, f"setup{i}", "in"))
                   for i in range(SETUP_SAMPLES)]
    cli_main, ops = setup(args.workload, args.seed, os.path.join(base, "in"))
    out_root = os.path.join(base, "out")
    reference = None if args.write_reference else load_reference(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    first = {}
    attempted = failed = 0
    clock = speed.HostClock()
    walls, cpus, wall_refs, cpu_refs, traced_walls, traced_stats = [], [], [], [], [], []
    op_seconds, op_ref_seconds = {}, {}
    # a traced run starts with a warm-up pass, then alternates traced and untraced passes,
    # so trace.overhead_s compares passes that ran under the same conditions
    min_passes = 4 if args.trace else 1
    started = time.perf_counter()
    pass_no = 0
    while pass_no < min_passes or (not args.write_reference and time.perf_counter() - started < args.seconds):
        traced = tracer is not None and pass_no % 2 == 1
        warm_up = tracer is not None and pass_no == 0
        total, results = run_pass(cli_main, ops, out_root, clock, tracer if traced else None, pass_no)
        if traced:
            traced_walls.append(total.wall_s)
            traced_stats.append(dict(tracer.stats))
        elif not warm_up:
            walls.append(total.wall_s)
            cpus.append(total.cpu_s)
            wall_refs.append(total.ref_s)
            cpu_refs.append(total.cpu_ref_s)
            for op, _, _, timing in results:
                op_seconds.setdefault(op.name, []).append(timing.wall_s)
                op_ref_seconds.setdefault(op.name, []).append(timing.ref_s)
        for op, code, err, _ in results:
            attempted += 1
            errs = op_errors(op, code, err, op_dir(out_root, op), first, reference)
            if errs:
                failed += 1
                for e in errs:
                    print(f"FAILED {args.workload}/{op.name} (pass {pass_no}): {e}", file=sys.stderr)
        pass_no += 1

    env = environment(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.write_reference:
        if failed:
            print("error: outputs failed their checks; reference not written", file=sys.stderr)
            return 1
        store_reference(args.workload, args.seed, first)
        print(f"reference for {args.workload} seed {args.seed} written to {reference_path(args.seed)}")

    q1, q3 = _quartiles(wall_refs)
    kernel_ms = 1000 * statistics.median(clock.kernel_samples)
    summary = {
        "wall_ref_s": statistics.median(wall_refs),
        "cpu_ref_s": statistics.median(cpu_refs),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (attempted - failed) / attempted,
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(walls)} untraced passes of {len(ops)} operations, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"  wall_ref_s  {summary['wall_ref_s']:.4f} s  (median of {len(walls)} passes; q1 {q1:.4f}, q3 {q3:.4f}; "
          f"at the reference host speed)")
    print(f"  cpu_ref_s   {summary['cpu_ref_s']:.4f} s  (self plus pool workers, median; at the reference host speed)")
    print(f"  wall_s      {summary['wall_s']:.4f} s  (as measured, median)")
    print(f"  cpu_s       {summary['cpu_s']:.4f} s  (as measured, median)")
    print(f"  host speed  kernel median {kernel_ms:.3f} ms over {len(clock.kernel_samples)} samples "
          f"(reference {1000 * speed.KERNEL_REF_S:.3f} ms)")
    print(f"  setup_s     {summary['setup_s']:.4f} s  (median of {len(setup_times)} fresh interpreters)")
    print(f"  peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio  {failed / attempted:.4f}  (ok_ratio {summary['ok_ratio']:.4f})")

    for op in ops:
        print(f"    {op.name:24s} {statistics.median(op_ref_seconds[op.name]):.4f} s at reference speed, "
              f"{statistics.median(op_seconds[op.name]):.4f} s as measured")

    mismatched = []
    metrics = summary
    if args.trace:
        construct_points = [(op.horizon, statistics.median(op_ref_seconds[op.name]))
                            for op in ops if op.argv[0] == "construct"]
        metrics, mismatched = per_layer_metrics(traced_stats, walls, traced_walls, construct_points)
        os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
        trace_path = os.path.join(WORK, "trace", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path, args.workload, args.seed)
        print(f"self time per layer (median of {len(traced_stats)} traced passes; pool workers count only as "
              f"parallel.pmap time); spans in {trace_path}")
        for layer in tracing.LAYERS:
            print(f"  {layer:15s} {metrics[f'layer.{layer}.self_s']:.4f} s")
        print(f"  trace.overhead_s {metrics['trace.overhead_s']:.4f} s")
        for name in mismatched:
            print(f"FAILED per-layer count {name} differs between traced passes", file=sys.stderr)

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": metrics, "summary": summary, "setup_s_samples": setup_times,
                   "wall_s_samples": walls, "cpu_s_samples": cpus, "wall_ref_s_samples": wall_refs,
                   "cpu_ref_s_samples": cpu_refs, "traced_wall_s_samples": traced_walls,
                   "op_seconds_samples": op_seconds, "op_ref_seconds_samples": op_ref_seconds,
                   "kernel_ms_median": kernel_ms,
                   "attempted": attempted, "failed": failed}, fh, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
