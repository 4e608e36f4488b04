"""Command line front end.

One subcommand per experiment family.  Outputs are deterministic: the
provenance header carries the canonical command line, the seed and the
package version, never timestamps, so identical configurations produce
byte-identical files no matter how many workers run the enumeration.
Rational flags are read as p/q strings and stay exact all the way down.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__ as VERSION
from .counting import (
    HeightWindow,
    bounded_window,
    count_blowup,
    count_classes_pn,
    count_points,
    count_window,
    enum_points,
    joint_class_box_counts,
    partition_leading_ranges,
    sup_box_measure,
)
from .freeness import UndefinedHeight, freeness_statistics
from .geomcurve import (
    BranchData,
    ConstantMap,
    NotAMorphism,
    approx_exponent,
    curve_from_json,
    geometric_freeness,
    is_very_free,
    limit_experiment,
    mckinnon_roth_alpha,
    splitting_type,
)
from .lattice import (
    EucLattice,
    NotPositiveDefinite,
    UnsupportedRank,
    newton_polygon,
    successive_minima,
)
from .motivic import (
    class_homd,
    class_pn,
    class_wd,
    euler_product_inverse,
    filtration_level,
    geometric_double_inverse,
    kapranov_residue,
    lpoly_to_json,
    lseries_to_json,
    normalized_symbol,
    verify_recurrence,
)
from .motivic import LSeries
from .projpoint import (
    IncompatibleModulus,
    InvalidPoint,
    Metric,
    ModPoint,
    _canonical_mod,
    variety,
)
from .tamagawa import assemble_constant, uniform_class_share
from .zoomlab import ZoomConfig, fiber_share, zoom_cloud, zoom_freeness_overlay

COMPUTE_ERRORS = (
    InvalidPoint, IncompatibleModulus, UnsupportedRank, NotPositiveDefinite,
    NotAMorphism, ConstantMap, UndefinedHeight, ValueError,
    ZeroDivisionError, OverflowError, OSError, json.JSONDecodeError,
)


class UsageError(ValueError):
    """Flag combination or flag value that cannot be interpreted."""


# ---------------------------------------------------------------------------
# flag parsing helpers

def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _metric(args) -> Metric:
    return Metric.EUCLID if args.metric == "euclid" else Metric.SUP


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"{what} must be colon-separated integers: {text!r}")


def _parse_box(text: str, what: str) -> tuple:
    out = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise UsageError(f"{what} needs lo,hi pairs separated by ';'")
        try:
            out.append((Fraction(pieces[0]), Fraction(pieces[1])))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{what} bounds must be rational: {part!r}")
    return tuple(out)


def _parse_fracs(text: str, what: str) -> tuple:
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be comma-separated rationals: {text!r}")


def _parse_center(text: str) -> tuple:
    factors = tuple(_parse_ints(part, "center") for part in text.split(","))
    return factors[0] if len(factors) == 1 else factors


def _ratio(num, den):
    """num / den, or None (JSON null) when the ratio is undefined."""
    return num / den if den else None


def _num(x):
    """Exact JSON-friendly number: int when integral, else a p/q string."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# run configuration and output plumbing

PLUMBING = {"handler", "command", "format", "out", "cache_dir", "workers",
            "seed"}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: tuple       # canonical (flag, value) pairs, sorted by flag
    format: str
    out: Path | None
    cache_dir: Path | None
    workers: int
    seed: int

    def command_line(self) -> str:
        bits = [self.command]
        for key, val in self.params:
            if val == "true":
                bits.append(f"--{key}")
            else:
                bits.append(f"--{key} {val}")
        return " ".join(bits)


def _config_from(args: argparse.Namespace) -> RunConfig:
    params = []
    for key, val in sorted(vars(args).items()):
        if key in PLUMBING or val is None or val is False:
            continue
        name = "class" if key == "cls" else key.replace("_", "-")
        if isinstance(val, Fraction):
            text = str(_num(val))
        elif val is True:
            text = "true"
        else:
            text = str(val)
        params.append((name, text))
    cache = os.environ.get("HEIGHTLAB_CACHE")
    cache_dir = Path(cache) if cache else args.cache_dir
    return RunConfig(command=args.command, params=tuple(params),
                     format=args.format, out=args.out, cache_dir=cache_dir,
                     workers=max(1, args.workers), seed=args.seed)


def _render(cfg: RunConfig, data: dict, table) -> str:
    if cfg.format == "json":
        doc = {"provenance": {"command": cfg.command_line(),
                              "seed": cfg.seed, "version": VERSION}}
        doc.update(data)
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if table is None:
        cols = [k for k, v in data.items()
                if not isinstance(v, (dict, list, tuple))]
        table = (cols, [[data[c] for c in cols]])
    cols, rows = table
    buf = io.StringIO()
    buf.write(f"# heightlab {VERSION} | seed {cfg.seed} | "
              f"{cfg.command_line()}\n")
    buf.write("# columns v1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    return buf.getvalue()


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out is not None:
        cfg.out.write_text(text)
    else:
        sys.stdout.write(text)


def _point_token(pt) -> str:
    if hasattr(pt, "coords"):  # single projective point
        return ":".join(str(c) for c in pt.coords)
    if pt and hasattr(pt[0], "coords"):  # product of factors
        return ",".join(":".join(str(c) for c in f.coords) for f in pt)
    return ",".join(":".join(str(c) for c in f) for f in pt)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_count(cfg: RunConfig, args) -> tuple:
    v = variety(args.variety, args.dim)
    metric = _metric(args)
    b = float(args.bound)
    if v.kind == "blowup":
        count_e, count_u = count_blowup(args.bound, metric)
        fit_u = count_u / (b * math.log(b)) if b > 1 else None
        ref_e = assemble_constant(variety("pn", 1), metric).closed_form(
            variety("pn", 1))
        ref_u = assemble_constant(v, metric).closed_form(v)
        data = {
            "variety": args.variety, "dim": args.dim,
            "metric": args.metric, "bound": _num(args.bound),
            "count": count_e + count_u,
            "exceptional": {"count": count_e, "fit": count_e / b ** 2,
                            "reference": ref_e},
            "off_exceptional": {"count": count_u, "fit": fit_u,
                                "reference": ref_u},
        }
        table = (["piece", "count", "fit", "reference"],
                 [["exceptional", count_e, count_e / b ** 2, ref_e],
                  ["off_exceptional", count_u, fit_u, ref_u]])
        return data, table
    count = count_points(v, args.bound, metric)
    const = assemble_constant(v, metric)
    reference = const.closed_form(v)
    if v.kind == "pn":
        growth = b ** (v.n + 1)
    else:
        growth = b * math.log(b) ** const.log_power if b > 1 else 1.0
    fit = count / growth
    data = {"variety": args.variety, "dim": args.dim, "metric": args.metric,
            "bound": _num(args.bound), "count": count, "fit": fit,
            "reference": reference}
    return data, None


def _enum_chunk(window: HeightWindow, rng) -> list:
    return [_point_token(p) for p in enum_points(window, rng)]


def _cache_key(args) -> str:
    bound = Fraction(args.bound)
    tag = str(bound.numerator) if bound.denominator == 1 else \
        f"{bound.numerator}-{bound.denominator}"
    return f"{args.variety}{args.dim}_{args.metric}_B{tag}_v{VERSION}.csv"


_CACHE_HEADER = "# points "


def _read_cache(path: Path) -> list | None:
    """The cached tokens, or None when the file is missing or its row count
    disagrees with its header."""
    if not path.exists():
        return None
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(_CACHE_HEADER):
        return None
    tokens = [line for line in lines[1:] if line and line != "point"]
    return tokens if lines[0] == f"{_CACHE_HEADER}{len(tokens)}" else None


def _cmd_enumerate(cfg: RunConfig, args) -> tuple:
    v = variety(args.variety, args.dim)
    w = bounded_window(v, args.bound, _metric(args))
    cache_file = None
    if cfg.cache_dir is not None:
        cache_file = cfg.cache_dir / _cache_key(args)
    tokens = _read_cache(cache_file) if cache_file is not None else None
    if tokens is None:
        if cfg.workers > 1:
            ranges = partition_leading_ranges(w, cfg.workers)
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                chunks = list(pool.map(_enum_chunk, [w] * len(ranges),
                                       ranges))
            tokens = [t for chunk in chunks for t in chunk]
        else:
            tokens = _enum_chunk(w, None)
        if cache_file is not None:
            cfg.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cfg.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{_CACHE_HEADER}{len(tokens)}\n")
                fh.write("point\n")
                fh.write("".join(t + "\n" for t in tokens))
            os.replace(tmp, cache_file)
    data = {"variety": args.variety, "dim": args.dim, "metric": args.metric,
            "bound": _num(args.bound), "count": len(tokens),
            "points": tokens}
    return data, (["point"], [[t] for t in tokens])


def _cmd_constant(cfg: RunConfig, args) -> tuple:
    v = variety(args.variety, args.dim)
    const = assemble_constant(v, _metric(args), prime_limit=args.primes_up_to)
    beta = args.beta
    data = {
        "variety": args.variety, "dim": args.dim, "metric": args.metric,
        "alpha": _num(const.alpha), "beta": _num(beta),
        "tau_inf": const.tau_inf, "tau_finite": const.tau_finite,
        "tau": const.tau,
        "value": float(const.alpha) * float(beta) * const.tau,
        "closed_form": float(beta) * const.closed_form(v),
        "tail_rel_bound": const.tail_rel_bound,
        "primes_up_to": const.prime_limit, "log_power": const.log_power,
    }
    return data, None


def _cmd_equidist(cfg: RunConfig, args) -> tuple:
    v = variety("pn", args.dim)
    counts = count_classes_pn(args.dim, args.modulus, int(args.bound))
    total = sum(counts.values())
    uniform = uniform_class_share(v, args.modulus)
    rows = [[":".join(map(str, cls.coords)), counts[cls],
             _ratio(counts[cls], total)]
            for cls in sorted(counts, key=lambda c: c.coords)]
    max_gap = max((abs(r[2] - float(uniform)) for r in rows),
                  default=0.0) if total else None
    data = {
        "dim": args.dim, "modulus": args.modulus, "bound": _num(args.bound),
        "classes": len(counts), "total": total,
        "uniform_share": float(uniform), "max_gap": max_gap,
        "per_class": [{"class": r[0], "count": r[1], "share": r[2]}
                      for r in rows],
    }
    if args.cls is not None:
        target = _canonical_mod(_parse_ints(args.cls, "--class"),
                                args.modulus)
        key = ModPoint(args.modulus, target)
        if key not in counts:
            raise UsageError(f"class {args.cls!r} is not primitive "
                             f"mod {args.modulus}")
        data["class"] = ":".join(map(str, target))
        data["class_share"] = _ratio(counts[key], total)
    if args.box is not None:
        box = _parse_box(args.box, "--box")
        if len(box) != args.dim + 1:
            raise UsageError("--box needs one interval per coordinate")
        joint = joint_class_box_counts(args.dim, args.modulus,
                                       int(args.bound), box)
        vec_total = sum(joint.values())
        inside = sum(c for (_, ib), c in joint.items() if ib)
        mu = sup_box_measure(box, args.dim)
        data["mu_box"] = float(mu)
        data["box_share"] = _ratio(inside, vec_total)
        if args.cls is not None:
            target = _canonical_mod(_parse_ints(args.cls, "--class"),
                                    args.modulus)
            hit = 0
            for sign in (1, -1):
                vec = tuple((sign * x) % args.modulus for x in target)
                hit += joint.get((vec, True), 0)
            data["joint_share"] = _ratio(hit, vec_total)
            data["predicted_joint"] = float(uniform) * float(mu)
    table = (["class", "count", "share"], rows)
    return data, table


def _cmd_window(cfg: RunConfig, args) -> tuple:
    v = variety(args.variety, args.dim)
    box = _parse_box(args.d1, "--d1")
    direction = _parse_fracs(args.u, "--u") if args.u else None
    try:
        w = HeightWindow(variety=v, metric=_metric(args), box=box,
                         direction=direction, scale=args.bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = count_window(w)
    data = {
        "variety": args.variety, "dim": args.dim, "metric": args.metric,
        "bound": _num(args.bound), "count": report.count,
        "fitted": report.fitted, "reference": report.reference,
        "rel_error": report.rel_error,
    }
    return data, None


def _read_gram(path: Path):
    doc = json.loads(path.read_text())
    rows = doc["gram"] if isinstance(doc, dict) else doc
    return tuple(tuple(Fraction(str(x)) for x in row) for row in rows)


def _cmd_slopes(cfg: RunConfig, args) -> tuple:
    lat = EucLattice(_read_gram(args.gram))
    poly = newton_polygon(lat)
    minima = successive_minima(lat)
    data = {
        "rank": lat.rank,
        "slopes": [s.to_float() for s in poly.slopes],
        "degrees": [d.to_float() for d in poly.d],
        "semistable": poly.is_semistable,
        "minima": [m.to_float() for m in minima],
    }
    table = (["index", "slope"],
             [[i + 1, s.to_float()] for i, s in enumerate(poly.slopes)])
    return data, table


def _cmd_freeness(cfg: RunConfig, args) -> tuple:
    v = variety(args.variety, args.dim)
    thresholds = tuple(float(t) for t in
                       _parse_fracs(args.thresholds, "--thresholds"))
    stats = freeness_statistics(v, args.bound, _metric(args),
                                thresholds=thresholds, bins=args.bins)
    width = 1.0 / stats.bins
    data = {
        "variety": args.variety, "dim": args.dim, "metric": args.metric,
        "bound": _num(args.bound), "total": stats.total,
        "below": {str(t): c for t, c in sorted(stats.threshold_counts.items())},
        "bins": stats.bins, "histogram": list(stats.histogram),
    }
    table = (["bin_lo", "bin_hi", "count"],
             [[i * width, (i + 1) * width, c]
              for i, c in enumerate(stats.histogram)])
    return data, table


def _cmd_curve(cfg: RunConfig, args) -> tuple:
    text = args.file.read_text()
    if args.op == "alpha":
        doc = json.loads(text)
        if "branches" not in doc:
            raise UsageError("--op alpha needs a file with 'branches' "
                             "[[r,m],...] and 'd'")
        branch = BranchData(tuple((int(r), int(m))
                                  for r, m in doc["branches"]),
                            int(doc["d"]))
        alpha = mckinnon_roth_alpha(branch)
        data = {"op": "alpha", "d": branch.d,
                "branches": [list(b) for b in branch.branches],
                "alpha": str(_num(alpha)), "alpha_float": float(alpha)}
        return data, None
    c = curve_from_json(text)
    if args.op == "splitting":
        st = splitting_type(c)
        data = {"op": "splitting", "n": c.n, "d": c.d,
                "splitting": list(st.a), "degree_sum": st.degree,
                "very_free": is_very_free(c)}
        table = (["index", "twist"],
                 [[i + 1, a] for i, a in enumerate(st.a)])
        return data, table
    if args.op == "freeness":
        l = geometric_freeness(c)
        data = {"op": "freeness", "n": c.n, "d": c.d,
                "freeness": str(_num(l)), "freeness_float": float(l),
                "very_free": is_very_free(c)}
        return data, None
    if args.op == "limit":
        heights = [float(h) for h in
                   _parse_fracs(args.heights, "--heights")]
        rows = limit_experiment(c, heights)
        limit = float(geometric_freeness(c))
        out_rows = [[r.param[0], r.param[1], r.h_param, r.h_image, r.l,
                     r.gap] for r in rows]
        data = {"op": "limit", "n": c.n, "d": c.d,
                "geometric_freeness": limit,
                "rows": [{"param": list(r.param), "h_param": r.h_param,
                          "h_image": r.h_image, "l": r.l, "gap": r.gap}
                         for r in rows]}
        try:
            data["fit_exponent"] = approx_exponent(rows)
        except ValueError:
            data["fit_exponent"] = None
        table = (["param_s", "param_t", "h_param", "h_image", "l", "gap"],
                 out_rows)
        return data, table
    raise UsageError(f"unknown curve op {args.op!r}")


def _cmd_zoom(cfg: RunConfig, args) -> tuple:
    v = variety(args.variety, args.dim)
    try:
        zc = ZoomConfig(variety=v, center=_parse_center(args.center),
                        alpha=args.alpha, R=args.radius, B=args.bound,
                        metric=_metric(args))
    except ValueError as exc:
        raise UsageError(str(exc))
    cloud = zoom_cloud(zc)
    tokens = [_point_token(p) for p in cloud.points]
    data = {
        "variety": args.variety, "dim": args.dim, "metric": args.metric,
        "center": args.center, "alpha": str(_num(zc.alpha)),
        "radius": str(_num(zc.R)), "bound": _num(zc.B),
        "window": zc.window, "size": cloud.size,
        "points": tokens,
        "chart": [[str(_num(y)) for y in ys] for ys in cloud.chart],
        "rescaled": [list(ys) for ys in cloud.rescaled],
        "heights": list(cloud.heights),
    }
    cols = ["point", "height"]
    rows = [[t, h] for t, h in zip(tokens, cloud.heights)]
    if args.overlay_freeness:
        overlay = zoom_freeness_overlay(cloud)
        data["freeness"] = [r.l for r in overlay]
        cols.append("freeness")
        for row, r in zip(rows, overlay):
            row.append(r.l)
    if args.delta is not None:
        if v.kind != "p1n":
            raise UsageError("--delta asks for a fiber share, which needs "
                             "a product variety")
        data["delta"] = str(_num(args.delta))
        data["fiber_share"] = fiber_share(cloud, args.delta)
    return data, (cols, rows)


def _cmd_motivic(cfg: RunConfig, args) -> tuple:
    op = args.op
    data = {"op": op}

    def need(flag, value):
        if value is None:
            raise UsageError(f"--op {op} needs --{flag}")
        return value

    if op == "pn":
        p = class_pn(need("n", args.n))
        data.update(lpoly_to_json(p))
    elif op == "homd":
        p = class_homd(need("n", args.n), need("d", args.d))
        data.update(lpoly_to_json(p))
    elif op == "wd":
        p = class_wd(need("n", args.n), need("d", args.d))
        data.update(lpoly_to_json(p))
    elif op == "recurrence":
        data["holds"] = verify_recurrence(need("n", args.n),
                                          need("dmax", args.dmax))
    elif op == "residue":
        data.update(lseries_to_json(kapranov_residue(
            need("cutoff", args.cutoff))))
    elif op == "euler":
        n = need("n", args.n)
        cutoff = need("cutoff", args.cutoff)
        lhs = euler_product_inverse(n, cutoff)
        rhs = geometric_double_inverse(n, cutoff)
        data["sum"] = lseries_to_json(lhs)
        data["closed_form"] = lseries_to_json(rhs)
        data["agree"] = lhs == rhs
    elif op == "stabilize":
        n = need("n", args.n)
        cutoff = need("cutoff", args.cutoff)
        dmax = need("dmax", args.dmax)
        series = [LSeries.from_poly(normalized_symbol(n, d), cutoff)
                  for d in range(1, dmax + 1)]
        levels = [filtration_level(a, b)
                  for a, b in zip(series, series[1:])]
        data["levels"] = levels
        data["stable"] = all(lv == cutoff for lv in levels)
    else:
        raise UsageError(f"unknown motivic op {op!r}")
    if "terms" in data:
        table = (["exponent", "coefficient"],
                 [[e, c] for e, c in data["terms"]])
    else:
        table = None
    return data, table


# ---------------------------------------------------------------------------
# parser

def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--cache-dir", type=Path, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def _add_variety(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variety", choices=["pn", "p1n", "blowup"],
                   default="pn")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--metric", choices=["sup", "euclid"], default="sup")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heightlab",
        description="Exact height experiments on simple rational varieties")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="height-bounded point counts")
    _add_variety(p)
    p.add_argument("--bound", type=_frac, required=True)
    _add_shared(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="list the points of a height ball")
    _add_variety(p)
    p.add_argument("--bound", type=_frac, required=True)
    _add_shared(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("constant", help="leading-constant assembly")
    _add_variety(p)
    p.add_argument("--primes-up-to", type=int, default=10_000)
    p.add_argument("--beta", type=_frac, default=Fraction(1))
    _add_shared(p)
    p.set_defaults(handler=_cmd_constant)

    p = sub.add_parser("equidist", help="congruence class and box shares")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--bound", type=_frac, required=True)
    p.add_argument("--class", dest="cls", default=None,
                   help="a0:a1:...:an residue class")
    p.add_argument("--box", default=None, help="lo1,hi1;lo2,hi2;...")
    _add_shared(p)
    p.set_defaults(handler=_cmd_equidist)

    p = sub.add_parser("window", help="multiheight box-window counts")
    _add_variety(p)
    p.add_argument("--d1", required=True, help="lo1,hi1;lo2,hi2;...")
    p.add_argument("--u", default=None, help="u1,u2,...")
    p.add_argument("--bound", type=_frac, required=True)
    _add_shared(p)
    p.set_defaults(handler=_cmd_window)

    p = sub.add_parser("slopes", help="slope profile of a Gram matrix")
    p.add_argument("--gram", type=Path, required=True)
    _add_shared(p)
    p.set_defaults(handler=_cmd_slopes)

    p = sub.add_parser("freeness", help="freeness statistics over a ball")
    _add_variety(p)
    p.add_argument("--bound", type=_frac, required=True)
    p.add_argument("--thresholds", default="1/5,1/2,4/5")
    p.add_argument("--bins", type=int, default=20)
    _add_shared(p)
    p.set_defaults(handler=_cmd_freeness)

    p = sub.add_parser("curve", help="splitting type and limit experiments")
    p.add_argument("--file", type=Path, required=True)
    p.add_argument("--op", choices=["splitting", "freeness", "limit",
                                    "alpha"], required=True)
    p.add_argument("--heights", default="10,100,1000,10000")
    _add_shared(p)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("zoom", help="rescaled point clouds near a center")
    _add_variety(p)
    p.add_argument("--center", required=True, help="c0:c1[,c0:c1]")
    p.add_argument("--alpha", type=_frac, required=True)
    p.add_argument("--radius", type=_frac, default=Fraction(1))
    p.add_argument("--bound", type=_frac, required=True)
    p.add_argument("--overlay-freeness", action="store_true")
    p.add_argument("--delta", type=_frac, default=None)
    _add_shared(p)
    p.set_defaults(handler=_cmd_zoom)

    p = sub.add_parser("motivic", help="Grothendieck ring identities")
    p.add_argument("--op", choices=["pn", "homd", "wd", "recurrence",
                                    "residue", "euler", "stabilize"],
                   required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None)
    _add_shared(p)
    p.set_defaults(handler=_cmd_motivic)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cfg = _config_from(args)
    try:
        if getattr(args, "bound", None) is not None and args.bound <= 0:
            raise UsageError(f"--bound must be positive, got {_num(args.bound)}")
        data, table = args.handler(cfg, args)
        text = _render(cfg, data, table)
    except UsageError as exc:
        print(f"heightlab: {exc}", file=sys.stderr)
        return 2
    except COMPUTE_ERRORS as exc:
        print(f"heightlab: computation failed: {exc}", file=sys.stderr)
        return 3
    _write(cfg, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
