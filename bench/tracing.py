"""Per-layer tracing by wrapping the package's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper,
both in the module that defines it and in every hyperorbit module that
imported it by name; methods are wrapped on each class that defines them.
`uninstall()` puts the originals back.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time of the frames nested in it.  Calls of cold
functions are kept as spans (name, start, end, parent, run id); calls of
hot functions (those made thousands of times per run) are folded into one
record per (parent span, name), so memory stays bounded.  Call counts and
`.s` totals count outermost calls only, so a recursive or nested call of
the same group is not counted twice.

Work done inside pool worker processes is invisible here: it shows up
only as `parallel.pmap` time in the calling process.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

PKG = "hyperorbit"
LAYERS = ("cli", "io_text", "indexsets", "parallel", "spaces", "shifts", "constructor", "recurrence",
          "counterexample")

# (module, function, metric name, hot); hot calls are aggregated instead of kept as spans
FUNCTIONS = [
    ("io_text", "parse_set_spec", "io_text.parse", False),
    ("io_text", "parse_weight_spec", "io_text.parse", False),
    ("io_text", "parse_space_spec", "io_text.parse", False),
    ("io_text", "parse_family_spec", "io_text.parse", False),
    ("io_text", "parse_vector_spec", "io_text.parse", False),
    ("io_text", "parse_target_spec", "io_text.parse", False),
    ("io_text", "parse_fraction", "io_text.parse", True),
    ("io_text", "read_vector", "io_text.parse", False),
    ("io_text", "write_csv", "io_text.write", False),
    ("io_text", "write_vector", "io_text.write", False),
    ("io_text", "write_explicit_set", "io_text.write", False),
    ("io_text", "write_manifest", "io_text.write", False),
    ("indexsets", "estimate_densities", "indexsets.estimate_densities", False),
    ("indexsets", "difference_set", "indexsets.difference_set", False),
    ("indexsets", "is_syndetic", "indexsets.is_syndetic", False),
    ("indexsets", "check_gap_family", "indexsets.check_gap_family", False),
    ("_parallel", "pmap", "parallel.pmap", False),
    ("spaces", "norm_sq_exact", "spaces.norm_sq_exact", True),
    ("spaces", "norm", "spaces.norm", True),
    ("spaces", "ball_contains", "spaces.ball_contains", True),
    ("shifts", "apply_backward", "shifts.apply_backward", True),
    ("shifts", "apply_right_inverse", "shifts.apply_right_inverse", True),
    ("shifts", "reciprocal_product_series", "shifts.reciprocal_product_series", False),
    ("shifts", "mixing_test", "shifts.mixing_test", False),
    ("constructor", "select_subsequence", "constructor.select_subsequence", False),
    ("constructor", "assemble_vector", "constructor.assemble_vector", False),
    ("constructor", "verify_orbit_bounds", "constructor.verify_orbit_bounds", False),
    ("recurrence", "hitting_times", "recurrence.hitting_times", False),
    ("recurrence", "return_set", "recurrence.return_set", False),
    ("recurrence", "correlation_scan", "recurrence.correlation_scan", False),
    ("recurrence", "return_weight_sums", "recurrence.return_weight_sums", False),
    ("recurrence", "bilateral_tail_sums", "recurrence.bilateral_tail_sums", True),
    ("counterexample", "verify_scale_exclusion", "counterexample.verify_scale_exclusion", False),
    ("counterexample", "product_exponent", "counterexample.product_exponent", True),
    ("counterexample", "run_length_array", "counterexample.run_length_array", False),
    ("counterexample", "product_threshold_scan", "counterexample.product_threshold_scan", False),
    ("counterexample", "build_block_family", "counterexample.build_block_family", False),
    ("counterexample", "verify_block_conditions", "counterexample.verify_block_conditions", False),
    ("counterexample", "s_intervals_in", "counterexample.s_intervals_in", True),
]

# (module, base class, method, metric name or None for per-class names, hot)
METHODS = [
    ("indexsets", "IndexSet", "count_in", None, True),
    ("indexsets", "IndexSet", "members_in", "indexsets.members_in", True),
    ("shifts", "WeightSequence", "log2_product", "shifts.log2_product", True),
    ("counterexample", "DoublingResetWeights", "weight", "counterexample.weight", True),
]

# per-layer counts that must repeat exactly between runs of one seed
COUNT_SUFFIXES = (".calls", ".entries", ".items", ".pooled")
COUNT_NAMES = ("indexsets.windows_scanned", "recurrence.orbit_steps", "constructor.orbit_rows",
               "constructor.certificates", "constructor.vector_entries", "io_text.bytes_written")


def _module(name):
    return importlib.import_module(f"{PKG}.{name}")


def _missing(name):
    return LookupError(f"traced name {PKG}.{name} is missing from the package; update the tables in bench/tracing.py")


def _lookup(obj, name, where):
    """`obj.name`, or a LookupError naming what the tables expect and the package lacks."""
    try:
        return getattr(obj, name)
    except AttributeError:
        raise _missing(f"{where}.{name}") from None


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.folded = {}
        self.run = None
        self._patches = []
        self._stack = []  # one [child_time] per open call
        self._span_ids = [None]
        self._active = defaultdict(int)
        self._next_id = 0
        self.reset_stats()

    def reset_stats(self):
        self.stats = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, group, hot, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                args = before(tracer, args, kwargs)
            outer = tracer._active[group] == 0
            tracer._active[group] += 1
            span_id = None
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = tracer._span_ids[-1]
            frame = [0.0]
            tracer._stack.append(frame)
            if span_id is not None:
                tracer._span_ids.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if span_id is not None:
                    tracer._span_ids.pop()
                tracer._active[group] -= 1
                tracer._record(label, span_id, parent, start, end, frame[0], outer)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _record(self, name, span_id, parent, start, end, child, outer):
        dur = end - start
        if self._stack:
            self._stack[-1][0] += dur
        stats = self.stats
        stats[name + ".self_s"] += dur - child
        if outer:
            stats[name + ".s"] += dur
            stats[name + ".calls"] += 1
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent, self.run, dur - child))
        else:
            rec = self.folded.setdefault((parent, self.run, name), [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name` (the benchmark's own boundary)."""
        return self._wrap(fn, name, name, False)(*args, **kwargs)

    # -- installing --------------------------------------------------------

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, obj.__dict__[key] if isinstance(obj, type) else getattr(obj, key)))
        setattr(obj, key, value)

    def install(self):
        """Wrap every traced function; raise LookupError if one is missing, so its metrics cannot read 0."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == PKG or n.startswith(PKG + ".")]
        for modname, fname, metric, hot in FUNCTIONS:
            orig = _lookup(_module(modname), fname, modname)
            before, after = _HOOKS.get(fname, (None, None))
            wrapper = self._wrap(orig, metric, metric, hot, before, after)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper)
        cli = _module("cli")
        runners = [key for key, val in vars(cli).items() if key.startswith("run_") and callable(val)]
        if not runners:
            raise _missing("cli.run_<subcommand>")
        for key in runners:
            sub = key[4:].replace("_", "-")
            self._patch(cli, key, self._wrap(getattr(cli, key), f"cli.{sub}", f"cli.{sub}", False))
        for modname, base, method, metric, hot in METHODS:
            root = _lookup(_module(modname), base, modname)
            group = f"{modname}.{method}"
            owners = [cls for cls in _subclasses(root) if method in cls.__dict__]
            if not owners:
                raise _missing(f"{modname}.{base}.{method}")
            for cls in owners:
                if metric is None:
                    name = lambda args, g=group: f"{g}.{type(args[0]).__name__}"
                else:
                    name = metric
                before, after = _HOOKS.get(method, (None, None))
                self._patch(cls, method, self._wrap(cls.__dict__[method], name, group, hot, before, after))
        orbit = _lookup(_module("recurrence"), "_Orbit", "recurrence")
        step = _lookup(orbit, "step", "recurrence._Orbit")
        tracer = self

        @functools.wraps(step)
        def counted_step(*args, **kwargs):
            tracer.stats["recurrence.orbit_steps"] += 1
            return step(*args, **kwargs)

        self._patch(orbit, "step", counted_step)

    def uninstall(self):
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path, workload, seed):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, run, self_s in self.spans:
                fh.write(json.dumps({"workload": workload, "seed": seed, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent, "run": run,
                                     "self_s": self_s}) + "\n")
            for (parent, run, name), (calls, total, self_s) in self.folded.items():
                fh.write(json.dumps({"workload": workload, "seed": seed, "name": name, "parent": parent,
                                     "run": run, "calls": calls, "total_s": total, "self_s": self_s,
                                     "folded": True}) + "\n")


def layer_of(name):
    head = name.split(".")[0]
    return "bench" if head not in LAYERS else head


def layer_self_times(stats):
    out = defaultdict(float)
    for key, val in stats.items():
        if key.endswith(".self_s"):
            out[layer_of(key)] += val
    return dict(out)


def is_count(name):
    return name in COUNT_NAMES or name.endswith(COUNT_SUFFIXES)


# -- hooks that add counts at a call ------------------------------------------


def _size(v):
    return len(getattr(v, "entries", ()))


def _count_entries(metric, pos):
    def after(tracer, args, kwargs, result):
        tracer.stats[metric + ".entries"] += _size(args[pos])

    return None, after


def _pmap_before(tracer, args, kwargs):
    fn, items = args[0], list(args[1])
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    tracer.stats["parallel.pmap.items"] += len(items)
    par = sys.modules.get("hyperorbit._parallel")
    pooled = workers > 1 and len(items) >= getattr(par, "_MIN_PARALLEL_ITEMS", 512)
    if pooled:
        tracer.stats["parallel.pmap.pooled"] += 1
        if getattr(fn, "__name__", "") == "_count_one_window" and tracer._active["indexsets.estimate_densities"]:
            tracer.stats["indexsets.windows_scanned"] += len(items)
    return (fn, items, *args[2:])


def _count_in_before(tracer, args, kwargs):
    if tracer._active["indexsets.count_in"] == 0 and tracer._active["indexsets.estimate_densities"]:
        tracer.stats["indexsets.windows_scanned"] += 1
    return args


def _written(tracer, args, kwargs, result):
    tracer.stats["io_text.bytes_written"] += os.path.getsize(args[0])


def _counted(metric, measure):
    def after(tracer, args, kwargs, result):
        tracer.stats[metric] += measure(result)

    return None, after


_HOOKS = {
    "norm_sq_exact": _count_entries("spaces.norm_sq_exact", 0),
    "apply_backward": _count_entries("shifts.apply_backward", 1),
    "pmap": (_pmap_before, None),
    "count_in": (_count_in_before, None),
    "write_csv": (None, _written),
    "write_vector": (None, _written),
    "write_explicit_set": (None, _written),
    "select_subsequence": _counted("constructor.certificates", lambda r: len(r.certificates)),
    "assemble_vector": _counted("constructor.vector_entries", lambda r: len(r.x.entries)),
    "verify_orbit_bounds": _counted("constructor.orbit_rows", lambda r: len(r.rows)),
}


def growth_exponent(points):
    """Log-log slope between the two largest (size, seconds) points."""
    (h1, t1), (h2, t2) = sorted(points)[-2:]
    if t1 <= 0 or t2 <= 0 or h1 == h2:
        return 0.0
    return math.log(t2 / t1) / math.log(h2 / h1)
