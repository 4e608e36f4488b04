"""The three benchmark workloads, as seeded lists of tasks.

A workload is a list of slots.  Each slot offers a few variants of one task
(bound jitter of at most 1%, threshold sets, fiber widths, cutoffs) or, for
Gram matrices and curves, a fixed pool of seeded inputs.  A run's seed picks
one variant per slot, or k distinct pool entries, so every seed gives other
inputs while the work per run stays close to constant.  Because the variants
and pools are finite, `reference.json` holds the expected output of every
input any seed can produce.

A task instance is a dict:
  id     name of the task within the pass, e.g. "count.pn1" or "slopes.r4.07"
  argv   command line for `heightlab.cli.main`, or
  lib    [function name, args, kwargs] for a public library call
  files  {relative name: text} input files the task reads
  key    canonical input, used to look up the reference output
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Jitter factors; pick one per slot.  Work grows at most like B^3.3
# (the boxed blow-up window), so the 1% range moves a task by <= 3.3%.  They
# never lower a bound, so an integer sup-height bound below 100 keeps its
# floor and its point set.
JITTER = (Fraction(1), Fraction(401, 400), Fraction(201, 200),
          Fraction(403, 400), Fraction(101, 100))

THRESHOLDS = ("1/5,1/2,4/5", "1/4,1/2,3/4", "1/10,1/3,2/3",
              "3/10,3/5,9/10", "1/6,2/5,5/6")

CUTOFFS = (20, 30, 40, 50, 60)

CACHE = "<cache>"   # replaced by the worker with its fresh cache directory

WORKLOADS = ("counts", "freeness", "slopes")


def _bounds(base: int) -> list:
    """Jittered bounds: integers for large bases, exact rationals otherwise."""
    out = []
    for f in JITTER:
        b = Fraction(base) * f
        text = str(round(b)) if base >= 200 else str(b)
        if text not in out:
            out.append(text)
    return out


def _inst(argv, files=None, tag=""):
    files = dict(files or {})
    key = " ".join(argv)
    key += "".join(f" |{name}={files[name]}" for name in sorted(files))
    return {"argv": list(argv), "files": files, "key": key, "tag": tag}


def _lib(name, args, kwargs):
    key = f"lib:{name}:{json.dumps([args, kwargs], sort_keys=True)}"
    return {"lib": [name, args, kwargs], "files": {}, "key": key, "tag": ""}


# ---------------------------------------------------------------------------
# seeded input pools (fixed: the pool seed is part of the benchmark)

def gram_pool(rank: int, size: int) -> list:
    """Gram matrices R R^T + I, entries of R in [-3, 3], over a denominator
    in 1..4, written as JSON with "p/q" entries."""
    rng = random.Random(f"gram-pool-{rank}")
    pool = []
    for _ in range(size):
        r = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        den = rng.randint(1, 4)
        rows = [[str(Fraction(sum(r[i][k] * r[j][k] for k in range(rank))
                              + (i == j), den)) for j in range(rank)]
                for i in range(rank)]
        pool.append(json.dumps({"gram": rows}))
    return pool


def curve_pool(n: int, d: int, size: int) -> list:
    """Curves P^1 -> P^n of degree d with coefficients in [-3, 3] whose
    forms have nonzero leading and trailing coefficients somewhere, so
    neither s nor t is a base point."""
    rng = random.Random(f"curve-pool-{n}-{d}")
    pool = []
    while len(pool) < size:
        forms = [[rng.randint(-3, 3) for _ in range(d + 1)]
                 for _ in range(n + 1)]
        if all(f[0] == 0 for f in forms) or all(f[-1] == 0 for f in forms):
            continue
        pool.append(json.dumps({"n": n, "d": d, "forms": forms}))
    return pool


TWISTED_CUBIC = json.dumps({"n": 3, "d": 3, "forms": [
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]})

HEIGHTS = ("10,100,1000,10000", "20,200,2000,20000", "10,1000,100000",
           "50,500,5000", "30,300,3000,30000")


def _sizer(tiny: bool):
    """s(full, small): the size of a task at full or at smoke size."""
    return lambda full, small: small if tiny else full


# ---------------------------------------------------------------------------
# workloads: lists of (slot id, k, variants); each variant is a list of
# instances that run together (k > 1 draws k distinct variants)

def _counts(tiny: bool) -> list:
    s = _sizer(tiny)
    box3 = "0,1;-1,1;0,1"
    classes = ("1:1:1", "1:2:0", "1:0:2", "0:1:1", "1:1:2")
    return [
        ("count.pn1", 1, [[_inst(["count", "--variety", "pn", "--dim", "1",
                                  "--bound", b])]
                          for b in _bounds(s(400_000, 5_000))]),
        ("count.p1n2", 1, [[_inst(["count", "--variety", "p1n", "--dim", "2",
                                   "--bound", b])]
                           for b in _bounds(s(2_000_000, 20_000))]),
        ("count.blowup", 1, [[_inst(["count", "--variety", "blowup",
                                     "--dim", "2", "--bound", b])]
                             for b in _bounds(s(15_000, 500))]),
        ("count.blowup_euclid", 1, [[_inst(
            ["count", "--variety", "blowup", "--dim", "2",
             "--metric", "euclid", "--bound", b])]
            for b in _bounds(s(1_400, 100))]),
        ("count.pn2_euclid", 1, [[_inst(
            ["count", "--variety", "pn", "--dim", "2", "--metric", "euclid",
             "--bound", b])] for b in _bounds(s(150, 20))]),
        ("equidist.mod7", 1, [[_inst(["equidist", "--dim", "2",
                                      "--modulus", "7", "--bound", b])]
                              for b in _bounds(s(3_500, 300))]),
        ("equidist.mod3_box", 1, [[_inst(
            ["equidist", "--dim", "2", "--modulus", "3", "--bound", b,
             "--class", c, "--box", box3])]
            for b, c in zip(_bounds(s(85, 20)), classes)]),
        ("window.p1n2", 1, [[_inst(["window", "--variety", "p1n", "--dim",
                                    "2", "--d1", "1,2;1,2", "--u", "1,2",
                                    "--bound", b])]
                            for b in _bounds(s(300, 40))]),
        ("window.blowup", 1, [[_inst(["window", "--variety", "blowup",
                                      "--dim", "2", "--d1", "1,2;1,2",
                                      "--u", "2,1", "--bound", b])]
                              for b in _bounds(s(35, 8))]),
    ]


def _freeness(tiny: bool) -> list:
    s = _sizer(tiny)

    def stats(variety, dim, base, metric="sup"):
        return [[_inst(["freeness", "--variety", variety, "--dim", dim,
                        "--metric", metric, "--bound", b,
                        "--thresholds", t])]
                for b, t in zip(_bounds(base), THRESHOLDS)]

    deltas = ("1/10", "1/9", "1/11", "1/8", "1/12")

    def enum_pair(b):
        argv = ["enumerate", "--variety", "pn", "--dim", "2", "--bound", b,
                "--format", "csv", "--cache-dir", CACHE]
        return [_inst(argv, tag="cold"), _inst(argv, tag="warm")]

    return [
        ("freeness.pn2", 1, stats("pn", "2", s(7, 3))),
        ("freeness.pn3", 1, stats("pn", "3", s(3, 2))),
        ("freeness.p1n2", 1, stats("p1n", "2", s(650, 40))),
        ("freeness.p1n2_euclid", 1, stats("p1n", "2", s(500, 40), "euclid")),
        ("zoom.p1n2", 1, [[_inst(
            ["zoom", "--variety", "p1n", "--dim", "2", "--center", "1:2,1:2",
             "--alpha", "1", "--radius", "40", "--bound", b,
             "--metric", "euclid", "--overlay-freeness", "--delta", delta])]
            for b, delta in zip(_bounds(s(370, 60)), deltas)]),
        ("zoom.pn2", 1, [[_inst(
            ["zoom", "--variety", "pn", "--dim", "2", "--center", "1:2:3",
             "--alpha", "1/2", "--bound", b, "--overlay-freeness"])]
            for b in _bounds(s(30, 8))]),
        ("enumerate.pn2", 1, [enum_pair(b) for b in _bounds(s(18, 5))]),
        ("enumerate.p1n2_workers", 1, [[_inst(
            ["enumerate", "--variety", "p1n", "--dim", "2", "--bound", b,
             "--workers", "<workers>"])] for b in _bounds(s(500, 40))]),
        ("sweep.pn2", 1, [[_lib("freeness_sweep", [2, s(14, 4)],
                                {"thresholds": [float(Fraction(x)) for x in
                                                t.split(",")]})]
                          for t in THRESHOLDS]),
    ]


def _slopes(tiny: bool) -> list:
    s = _sizer(tiny)
    slots = []
    # Each run draws most of a small pool, so that two seeds share most
    # Grams and the run-to-run spread of the work stays small.
    for rank, pool_size, k in ((2, 40, s(15, 2)), (3, 40, s(15, 2)),
                               (4, 60, s(40, 2))):
        variants = [[_inst(["slopes", "--gram", f"g{rank}_{i:03d}.json"],
                           {f"g{rank}_{i:03d}.json": text})]
                    for i, text in enumerate(gram_pool(rank, pool_size))]
        slots.append((f"slopes.r{rank}", k, variants))
    for n, d in ((2, 10), (3, 12), (4, 16), (3, 24))[:s(4, 2)]:
        variants = [[_inst(["curve", "--file", f"c{n}_{d}_{i}.json",
                            "--op", "splitting"],
                           {f"c{n}_{d}_{i}.json": text})]
                    for i, text in enumerate(curve_pool(n, d, 6))]
        slots.append((f"curve.splitting.{n}_{d}", 1, variants))
    slots.append(("curve.limit", 1, [[_inst(
        ["curve", "--file", "cubic.json", "--op", "limit", "--heights", h],
        {"cubic.json": TWISTED_CUBIC})] for h in HEIGHTS]))
    slots += [
        ("motivic.recurrence", 1, [[_inst(["motivic", "--op", "recurrence",
                                           "--n", "2", "--dmax", str(c)])]
                                   for c in CUTOFFS]),
        ("motivic.euler", 1, [[_inst(["motivic", "--op", "euler", "--n", n,
                                      "--cutoff", str(c)])]
                              for n, c in zip("23232", CUTOFFS)]),
        ("motivic.stabilize", 1, [[_inst(["motivic", "--op", "stabilize",
                                          "--n", "2", "--cutoff", str(c),
                                          "--dmax", "8"])]
                                  for c in CUTOFFS]),
        ("motivic.residue", 1, [[_inst(["motivic", "--op", "residue",
                                        "--cutoff", str(c)])]
                                for c in CUTOFFS]),
    ]
    return slots


_BUILDERS = {"counts": _counts, "freeness": _freeness, "slopes": _slopes}


def slots(workload: str, tiny: bool = False) -> list:
    return _BUILDERS[workload](tiny)


def plan(workload: str, seed: int, tiny: bool = False) -> list:
    """The seeded task list of one run, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = []
    for slot_id, k, variants in slots(workload, tiny):
        if k == 1:
            picks = [(slot_id, rng.choice(variants))]
        else:
            picks = [(f"{slot_id}.{j:02d}", v) for j, v in
                     enumerate(rng.sample(variants, k))]
        for task_id, variant in picks:
            for inst in variant:
                tid = f"{task_id}.{inst['tag']}" if inst["tag"] else task_id
                tasks.append(dict(inst, id=tid))
    return tasks


def all_instances(workload: str, tiny: bool = False) -> list:
    """Every instance any seed can produce, each key once."""
    seen = {}
    for slot_id, _, variants in slots(workload, tiny):
        for variant in variants:
            for inst in variant:
                seen.setdefault(inst["key"], dict(inst, id=slot_id))
    return list(seen.values())
