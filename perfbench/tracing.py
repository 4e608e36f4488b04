"""Per-layer tracing for the traced benchmark pass.

Hooks wrap public names of the ten `heightlab` modules from the outside;
no file of the program changes.  A hooked function records a span: its
calls and its self time, which is its duration minus the spans of hooked
functions it called.  A generator is timed only inside its `next()` calls.
Class hooks count instances (and time `__post_init__` where named).

Every module is resolved through `sys.modules["heightlab.<name>"]` (the
package attribute `heightlab.freeness` is the function, not the module),
and a wrapper replaces the original in every `heightlab` namespace that
binds it, since `cli` and others import by name.  A hooked name that no
longer exists is reported as missing and its metrics are left out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MODULES = ("cli", "counting", "exactnum", "projpoint", "tamagawa", "lattice",
           "freeness", "zoomlab", "geomcurve", "motivic")

# (module, name) of functions recorded as spans
SPANS = [
    ("cli", "main"),
    ("counting", "count_pn_sieved"), ("counting", "count_pn"),
    ("counting", "count_p1n"), ("counting", "count_blowup"),
    ("counting", "count_classes_pn"), ("counting", "joint_class_box_counts"),
    ("counting", "count_window"), ("counting", "partition_leading_ranges"),
    ("exactnum", "build_sieve"), ("exactnum", "factorize"),
    ("projpoint", "blowup_from_plane"), ("projpoint", "normalize"),
    ("tamagawa", "assemble_constant"), ("tamagawa", "uniform_class_share"),
    ("tamagawa", "nu_window"),
    ("lattice", "newton_polygon"), ("lattice", "max_deg_rank"),
    ("lattice", "successive_minima"), ("lattice", "degree"),
    ("lattice", "is_semistable"),
    ("freeness", "pn_freeness_data"), ("freeness", "freeness_statistics"),
    ("freeness", "freeness_product"), ("freeness", "freeness_sweep"),
    ("zoomlab", "zoom_cloud"), ("zoomlab", "zoom_freeness_overlay"),
    ("zoomlab", "fiber_share"),
    ("geomcurve", "splitting_type"), ("geomcurve", "h0_twist"),
    ("geomcurve", "limit_experiment"),
    ("motivic", "verify_recurrence"), ("motivic", "euler_product_inverse"),
    ("motivic", "geometric_double_inverse"), ("motivic", "kapranov_residue"),
    ("motivic", "normalized_symbol"), ("motivic", "filtration_level"),
]
GENERATORS = [("counting", "enum_points")]
# (module, class, method, timed): method spans and instance counters
CLASS_HOOKS = [
    ("exactnum", "LogLin", "sign", True),
    ("exactnum", "LogLin", "__init__", False),
    ("projpoint", "PrimPoint", "__post_init__", False),
    ("lattice", "EucLattice", "__post_init__", True),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.grams: set = set()
        self.missing: list = []
        self.enum_depth = 0
        self._stack: list = []   # [child time] per open span
        self._clock = time.perf_counter

    # -- spans ------------------------------------------------------------
    def _open(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, self._clock()

    def _close(self, key, frame, t0):
        dt = self._clock() - t0
        self._stack.pop()
        self.self_s[key] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    def _span(self, key, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            frame, t0 = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(key, frame, t0)
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def _generator(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            it = fn(*args, **kwargs)
            while True:
                frame, t0 = tracer._open()
                tracer.enum_depth += 1
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.enum_depth -= 1
                    tracer._close(key, frame, t0)
                tracer.extra[f"{key}.items"] += 1
                yield item
        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            if tracer.enum_depth:
                tracer.extra[f"{key}.in_enum"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------
    def _post(self, key):
        if key == "exactnum.build_sieve":
            def post(args, result):
                self.extra[key + ".entries"] += args[0]
        elif key == "lattice.newton_polygon":
            def post(args, result):
                self.grams.add(args[0].gram)
        elif key == "zoomlab.zoom_cloud":
            def post(args, result):
                self.extra[key + ".points"] += result.size
        elif key == "freeness.freeness_sweep":
            def post(args, result):
                self.extra[key + ".points"] += result.total
        else:
            post = None
        return post

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "heightlab" or name.startswith("heightlab.")]
        for mod_name, attr in SPANS + GENERATORS:
            key = f"{mod_name}.{attr}"
            mod = sys.modules.get(f"heightlab.{mod_name}")
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(key)
                continue
            if (mod_name, attr) in GENERATORS:
                wrapper = self._generator(key, orig)
            else:
                wrapper = self._span(key, orig, self._post(key))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)
        for mod_name, cls_name, meth, timed in CLASS_HOOKS:
            mod = sys.modules.get(f"heightlab.{mod_name}")
            cls = getattr(mod, cls_name, None)
            orig = getattr(cls, meth, None) if cls is not None else None
            if meth.startswith("__"):
                key = f"{mod_name}.{cls_name}"
            else:
                key = f"{mod_name}.{cls_name}.{meth}"
            if orig is None or (meth.startswith("__")
                                and meth not in vars(cls)):
                self.missing.append(key)
                continue
            wrapper = (self._span(key, orig) if timed
                       else self._counter(key, orig))
            setattr(cls, meth, wrapper)

    # -- report -----------------------------------------------------------
    def metrics(self) -> dict:
        """Every per-layer value this pass recorded, by metric name."""
        out = {}
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
        for key, s in self.self_s.items():
            out[f"{key}.self_s"] = s
        out.update(self.extra)
        for cls in ("projpoint.PrimPoint", "exactnum.LogLin",
                    "lattice.EucLattice"):
            out[f"{cls}.created"] = self.calls.get(cls, 0)
        out["lattice.EucLattice.init_s"] = self.self_s.get(
            "lattice.EucLattice", 0.0)
        calls = self.calls.get("lattice.newton_polygon", 0)
        out["lattice.newton_polygon.distinct_share"] = (
            len(self.grams) / calls if calls else 0.0)
        items = self.extra.get("counting.enum_points.items", 0)
        built = self.extra.get("projpoint.PrimPoint.in_enum", 0)
        out["counting.enum_points.yield_share"] = items / built if built else 0.0
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                s for key, s in self.self_s.items()
                if key.startswith(mod + "."))
        return out


def missing_metrics(missing, names) -> list:
    """Names among `names` that belong to a hook listed in `missing`."""
    return [n for n in names
            if any(n == m or n.startswith(m + ".") for m in missing)]


def _metric(name):
    quantity = name.rsplit(".", 1)[1]
    unit = {"self_s": "s", "init_s": "s", "out_bytes": "B",
            "distinct_share": "ratio", "yield_share": "ratio",
            "overhead_ratio": "ratio"}.get(quantity, "count")
    better = "higher" if quantity in ("distinct_share", "yield_share") \
        else "lower"
    return name, unit, better


# The per-layer metrics of BENCHMARK.json, (name, unit, better).  Counts of
# points and items are fixed by the input; they sit here to give each time
# its base.
PER_LAYER = [_metric(n) for n in (
    "counting.count_pn_sieved.calls", "counting.count_pn_sieved.self_s",
    "exactnum.build_sieve.calls", "exactnum.build_sieve.self_s",
    "exactnum.build_sieve.entries",
    "counting.count_pn.self_s", "counting.count_p1n.self_s",
    "counting.count_blowup.self_s", "counting.count_classes_pn.self_s",
    "counting.joint_class_box_counts.self_s", "counting.count_window.self_s",
    "exactnum.factorize.calls",
    "tamagawa.assemble_constant.calls", "tamagawa.assemble_constant.self_s",
    "counting.enum_points.self_s", "counting.enum_points.items",
    "counting.enum_points.yield_share", "projpoint.PrimPoint.created",
    "projpoint.blowup_from_plane.calls",
    "counting.partition_leading_ranges.calls",
    "freeness.pn_freeness_data.calls", "freeness.pn_freeness_data.self_s",
    "freeness.freeness_statistics.self_s",
    "freeness.freeness_product.calls", "freeness.freeness_product.self_s",
    "freeness.freeness_sweep.self_s", "freeness.freeness_sweep.points",
    "zoomlab.zoom_cloud.self_s", "zoomlab.zoom_cloud.points",
    "zoomlab.zoom_freeness_overlay.self_s", "zoomlab.fiber_share.self_s",
    "cli.main.self_s", "cli.main.calls", "cli.main.out_bytes",
    "lattice.newton_polygon.calls", "lattice.newton_polygon.self_s",
    "lattice.newton_polygon.distinct_share",
    "lattice.max_deg_rank.calls", "lattice.max_deg_rank.self_s",
    "lattice.successive_minima.calls", "lattice.successive_minima.self_s",
    "lattice.degree.calls", "lattice.EucLattice.created",
    "lattice.EucLattice.init_s",
    "exactnum.LogLin.created", "exactnum.LogLin.sign.calls",
    "exactnum.LogLin.sign.self_s",
    "geomcurve.splitting_type.calls", "geomcurve.splitting_type.self_s",
    "geomcurve.h0_twist.calls", "geomcurve.limit_experiment.self_s",
    *(f"{m}.self_s" for m in MODULES),
    "trace.overhead_ratio",
)]
