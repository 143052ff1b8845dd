"""Seeded workloads: the CLI commands each one runs and the checks on their outputs.

A workload is a list of operations.  One operation is one subcommand
invocation with its own output directory.  `build(name, seed, indir)`
writes the generated input files into `indir` and returns the operations;
the same seed always gives the same commands and the same input bytes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import checks

WORKERS = 2
NAMES = ("construct", "densities", "recurrence", "sweeps")


@dataclass
class Op:
    name: str
    argv: list
    checks: list = field(default_factory=list)
    horizon: int = 0  # construct rungs only: the size axis of cli.construct.growth_exp


def _jitter(rng, base, share=0.01):
    return int(round(base * (1 + rng.uniform(-share, share))))


def build(name, seed, indir):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(indir, exist_ok=True)
    return globals()[f"_{name}"](rng, indir)


def _construct(rng, indir):
    ops = []
    for base in (2500, 5000, 10000):
        h = _jitter(rng, base)
        argv = ["construct", "--depth", "4", "--family", "dyadic-block:8", "--operator", "constant:2",
                "--space", "l2", "--horizon", str(h)]
        ops.append(Op(f"construct.h{base}", argv, [checks.all_true("certificates.csv", "ok"),
                                                  checks.all_true("orbit_bounds.csv", "ok"),
                                                  checks.orbit_bounds_hold], horizon=h))
    return ops


# (r1, r2, r3, r4) targets that make-set reaches within 0.05, each in well under a second
# (some others, such as 1/4,1/4,3/4,3/4, run for minutes)
_PRESCRIBED = ("0,1/5,1/2,1", "0,1/4,1/2,3/4", "1/10,1/5,2/5,9/10", "1/10,1/4,1/2,1")


def _densities(rng, indir):
    members = sorted(rng.sample(range(1, 3_000_000), 60_000))
    path = os.path.join(indir, "explicit.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{m}\n" for m in members))

    intervals = []
    at = 0
    for _ in range(400):
        at += rng.randrange(1, 3000)
        width = rng.randrange(0, 1500)
        intervals.append((at, at + width))
        at += width
    period = rng.randrange(20, 60)
    residues = sorted(rng.sample(range(period), rng.randrange(1, 9)))
    prescribed = rng.choice(_PRESCRIBED)
    made = rng.choice(_PRESCRIBED)

    def dens(tag, spec, horizon, grid=None, member=None):
        argv = ["densities", "--set", spec, "--horizon", str(horizon)]
        if grid:
            argv += ["--window-grid", grid]
        cs = [checks.density_chain("densities.csv")]
        if member is not None:
            cs.append(checks.window_counts(member, rng.randrange(1 << 30)))
        return Op(f"densities.{tag}", argv, cs)

    member_set = frozenset(members)
    ops = [
        dens("factorial", "factorial-blocks", _jitter(rng, 362880), "8", checks.factorial_member),
        dens("s-set", "s-set", _jitter(rng, 10_000_000), "100", checks.s_member),
        dens("prescribed", f"prescribed:{prescribed}", _jitter(rng, 200_000)),
        dens("intervals", "intervals:" + ",".join(f"{a}-{b}" for a, b in intervals), at,
             member=checks.intervals_member(intervals)),
        dens("explicit", f"explicit-file:{path}", 3_000_000, member=member_set.__contains__),
        dens("periodic", f"periodic:{period}:{','.join(map(str, residues))}", _jitter(rng, 1_000_000),
             member=lambda n, p=period, r=frozenset(residues): n % p in r),
        Op("make-set", ["make-set", "--targets", made], [checks.density_chain("self_check.csv"),
                                                         checks.prescribed_close(made)]),
    ]
    h = _jitter(rng, 4_000_000)
    ops.append(Op("diff-set", ["diff-set", "--set", "squares", "--horizon", str(h)],
                  [checks.square_differences(h, rng.randrange(1 << 30))]))
    return ops


def _recurrence(rng, indir):
    r1 = rng.choice(("8", "12", "16"))
    r2 = rng.choice(("1/1000", "1/10000", "1/100000"))
    g = rng.choice((3, 4, 5))
    evens_h = _jitter(rng, 3000)
    tail_set = sorted(rng.sample(range(10, 400), 4))
    return [
        Op("orbit.ratio-power", ["orbit", "--vector", "ones:0-1200", "--operator", "ratio-power:2",
                                 "--space", "l2", "--targets", f"zero:@{r1};e:0@1/2", "--horizon", "1200"],
           [checks.density_chain("hit_densities.csv")]),
        Op("classify.c0", ["classify", "--vector", "ones:0-1500", "--operator", "constant:1/2", "--space", "c0",
                           "--targets", f"zero:@{r2}", "--horizon", "1500"],
           [checks.classification_sane]),
        Op("orbit.dense", ["orbit", "--vector", "ones:0-60", "--operator", "constant:1/2", "--space", "l2",
                           "--targets", "dense:1@1/2;dense:2@1/2;zero:@1/1000", "--horizon", "20000"],
           [checks.density_chain("hit_densities.csv"), checks.halving_hits(2, 61, 1 / 1000, 20000)]),
        Op("return-set", ["return-set", "--u", "dense:1@1/4", "--v", "dense:2@1/4", "--horizon", "5000"]),
        Op("correlate", ["correlate", "--set", f"arith:{g}:0", "--kmax", "64"],
           [checks.correlation_multiples(g)]),
        Op("beta", ["beta", "--set", "evens", "--alpha", "harmonic", "--horizon", str(evens_h)],
           [checks.harmonic_betas(evens_h, rng.randrange(1 << 30))]),
        Op("eqbeta", ["eqbeta", "--set", "explicit:" + ",".join(map(str, tail_set)), "--horizon", "10000"]),
    ]


def _sweeps(rng, indir):
    values = [rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)) for _ in range(3000)]
    path = os.path.join(indir, "table.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in values))
    product_h = _jitter(rng, 200_000)
    return [
        Op("verify-counterexample", ["verify-counterexample", "--product-horizon", str(product_h)],
           [checks.all_true("exclusion.csv", "ok"), checks.all_true("products.csv", "ok"),
            checks.product_law, *(checks.all_true("blocks.csv", f"cond{i}") for i in (1, 2, 3, 4))]),
        Op("dj-scan", ["dj-scan", "--horizon", str(_jitter(rng, 1_000_000))],
           [checks.all_true("threshold_scan.csv", "envelope_ok")]),
        Op("check-family", ["check-family", "--family", "counterexample:3:3"],
           [checks.all_true("gap_check.csv", "ok")]),
        Op("series-tests", ["series-tests", "--weights", f"table:{path};counterexample-c0;ratio-power:2",
                            "--horizon", "2000"], [checks.series_partial_sums(values)]),
    ]
