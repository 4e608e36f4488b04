"""Command line front end.

One subcommand per experiment family.  Outputs are deterministic: the
provenance header carries the canonical command line, the seed and the
package version, never timestamps, so identical configurations produce
byte-identical files.  Every command runs in one process.
Rational flags are read as p/q strings and stay exact all the way down.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import re
import sys
import tempfile
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

from . import __version__ as VERSION
from .counting import (
    BOX_WALK_LIMIT,
    CLASS_LIMIT,
    CLASS_WORK_LIMIT,
    P1_SHELL_LIMIT,
    HeightWindow,
    _p1n_points,
    _pn_coords,
    _shell_spec,
    bounded_window,
    box_walk_cost,
    class_count_cost,
    count_blowup,
    count_classes_pn,
    count_points,
    count_window,
    enum_points,
    joint_class_box_counts,
    sup_box_measure,
)
from .exactnum import Frozen
from .freeness import freeness_statistics
from .geomcurve import (
    BranchData,
    approx_exponent,
    curve_from_json,
    limit_experiment,
    mckinnon_roth_alpha,
    splitting_type,
)
from .lattice import (
    EucLattice,
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
    Metric,
    ModPoint,
    VarietyId,
    _canonical_mod,
    card_projective_mod,
    variety,
)
from .tamagawa import assemble_constant, closed_form, uniform_class_share
from .zoomlab import (
    ZoomConfig, _gather, fiber_share, zoom_cloud, zoom_freeness_overlay)

# every exception class of the package, and json.JSONDecodeError, is a
# ValueError, so a failed computation exits 3 whichever layer raised it
COMPUTE_ERRORS = (ValueError, ZeroDivisionError, OverflowError, OSError)


class UsageError(ValueError):
    """Flag combination or flag value that cannot be interpreted."""


# ---------------------------------------------------------------------------
# flag parsing helpers

def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _variety(args) -> VarietyId:
    try:
        return variety(args.variety, args.dim)
    except ValueError as exc:
        raise UsageError(f"--dim {args.dim}: {exc}")


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


def _parse_center(text: str, kind: str) -> tuple:
    """The center as `ZoomConfig` reads it: one coordinate tuple on P^n, a
    tuple of factors on (P^1)^n, even when there is one factor."""
    factors = tuple(_parse_ints(part, "center") for part in text.split(","))
    return factors[0] if kind != "p1n" and len(factors) == 1 else factors


def _ratio(num, den):
    """num / den, or None (JSON null) when the ratio is undefined."""
    return num / den if den else None


def _num(x):
    """Exact JSON-friendly number: int when integral, else a p/q string."""
    if type(x) is int:
        return x
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# run configuration and output plumbing

PLUMBING = {"handler", "command", "format", "out", "cache_dir", "workers",
            "seed"}


class RunConfig(Frozen):
    command: str
    params: tuple       # canonical (flag, value) pairs, sorted by flag
    format: str
    out: Path | None
    cache_dir: Path | None
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
                     seed=args.seed)


class Gathered(Frozen):
    """A list that the JSON renderer writes from per-factor columns, each
    value encoded once.

    columns, one or more, are lists of scalars indexed by factor position.
    Item k is the row of the values of every column at each position of
    index[k] in turn, as `ZoomCloud.gather` lists it; every index[k] has
    as many positions.
    """

    index: Sequence
    columns: Sequence

    def items(self) -> list:
        """The items the value stands for: the rows, or as many empty rows
        as index has items where those hold no position."""
        rows = list(_gather(self.index, self.columns))
        return rows or [()] * len(self.index)


# json.dumps(indent=2) runs the pure-Python encoder; the C encoder writes a
# list of scalars with "\n" between the items, and an encoded token never
# holds a raw newline, so one call and a split give every token of the list
_ENCODE = json.JSONEncoder(separators=("\n", ": "), allow_nan=False).encode
_NESTED = (dict, list, tuple, Gathered)


def _tokens(values) -> list:
    """The JSON token of each scalar in values (the key part '"k": 0' of
    each key of a dict), by one C encoder call."""
    return _ENCODE(values)[1:-1].split("\n") if values else []


def _nested(kinds) -> bool:
    """Whether a set of types holds a dict, list, tuple or Gathered type."""
    return any(issubclass(k, _NESTED) for k in kinds)


def _items(values, pad: str) -> list:
    """Each of values as json.dumps(indent=2) writes it on a line that
    starts with pad.  Scalars take one C encoder call; so do the items of
    rows that hold only scalars, which are flattened and regrouped by one
    Python step per row.  Rows gathered from per-factor columns come as a
    Gathered value instead, which `_dump` writes with no step per row and
    each value formatted once per factor."""
    kinds = set(map(type, values))
    if not _nested(kinds):
        return _tokens(values)
    if all(issubclass(k, (list, tuple)) for k in kinds):
        flat = list(itertools.chain.from_iterable(values))
        if not _nested(set(map(type, flat))):
            toks, inner, out, i = _tokens(flat), pad + "  ", [], 0
            for row in values:
                j = i + len(row)
                out.append("[" + inner + ("," + inner).join(toks[i:j]) + pad
                           + "]" if row else "[]")
                i = j
            return out
    toks = iter(_tokens([v for v in values if not isinstance(v, _NESTED)]))
    return [_dump(v, pad) if isinstance(v, _NESTED) else next(toks)
            for v in values]


def _dump_gathered(g: Gathered, pad: str) -> str:
    """_dump of the items g stands for: one C encoder call per column, the
    values of each factor joined once, and each item one C-level join of
    its factors' texts."""
    if not g.index:
        return "[]"
    inner = pad + "  "
    if not g.index[0]:
        items = ["[]"] * len(g.index)
    else:
        row, last = inner + "  ", len(g.index[0]) - 1
        sep = "," + row
        cells = list(map(sep.join, zip(*map(_tokens, g.columns))))
        # a factor's text at each position: the row's head before the
        # first, a separator before the others, the row's tail after the last
        heads = ["[" + row] + [sep] * last
        tails = [""] * last + [inner + "]"]
        parts = [[h + c + t for c in cells] for h, t in zip(heads, tails)]
        items = map("".join, zip(*(map(p.__getitem__, c)
                                   for p, c in zip(parts, zip(*g.index)))))
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _dump(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, allow_nan=False) for a dict, list, tuple
    or Gathered whose first line starts with pad ("\n" and its indent)."""
    if type(obj) is Gathered:
        return _dump_gathered(obj, pad)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    if isinstance(obj, dict):
        # the C encoder coerces keys as json.dumps does: '"k": 0' less "0"
        items = [k[:-1] + v for k, v in zip(_tokens(dict.fromkeys(obj, 0)),
                                            _items(list(obj.values()), inner))]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join(_items(obj, inner)) + pad + "]"


def _expand(obj):
    """json.dumps's default: a Gathered value's items, else the TypeError
    json.dumps raises."""
    if type(obj) is Gathered:
        return obj.items()
    return json.JSONEncoder().default(obj)


def _render(cfg: RunConfig, data: dict, table) -> str:
    if cfg.format == "json":
        doc = {"provenance": {"command": cfg.command_line(),
                              "seed": cfg.seed, "version": VERSION}}
        doc.update(data)
        try:
            return _dump(doc, "\n") + "\n"
        except ValueError:
            # NaN or inf: the C encoder's message names no value, so let
            # json.dumps raise the same error with the value named
            return json.dumps(doc, indent=2, allow_nan=False,
                              default=_expand) + "\n"
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


def _coords_token(coords) -> str:
    return ":".join(map(str, coords))


def _pair_text(num: int, den: int) -> str:
    """str(_num(Fraction(num, den))) for num/den in lowest terms, den > 0,
    with no Fraction built."""
    return f"{num}/{den}" if den != 1 else str(num)


def _enum_tokens(w: HeightWindow) -> list:
    """The tokens of `enum_points(w)`, in its order.  The P^n walk yields
    tuples of coordinate strings, each value formatted once, and each P^1
    factor of a product is formatted once, so neither builds a `PrimPoint`
    per point."""
    shells, joint = _shell_spec(w)
    if w.variety.kind == "pn":
        return list(map(":".join, _pn_coords(w.variety.n, *shells[0],
                                             w.metric, label=str)))
    if w.variety.kind == "p1n":
        return list(map(",".join, _p1n_points(shells, joint, w.metric,
                                              factor=_coords_token)))
    return [",".join(_coords_token(f.coords) for f in pair)
            for pair in enum_points(w)]


# ---------------------------------------------------------------------------
# subcommands

def _check_shell_cap(w: HeightWindow, bound,
                     limit: int | None = None) -> None:
    # the counts tabulate every shell value up to the largest component cap
    cap = max(hi for _, hi in _shell_spec(w)[0])
    if cap >= sys.maxsize:
        raise UsageError(f"--bound {_num(bound)} is too large: the window "
                         f"reaches shell value {cap}, past the largest table "
                         f"size {sys.maxsize}")
    if limit is not None and cap > limit:
        raise UsageError(f"--bound {_num(bound)} is too large: the window "
                         f"reaches shell value {cap}, past the shell table "
                         f"limit {limit}")


def _cmd_count(cfg: RunConfig, args) -> tuple:
    v = _variety(args)
    metric = _metric(args)
    # a (P^1)^n count lists the sizes of its cap + 1 shells in Python
    _check_shell_cap(bounded_window(v, args.bound, metric), args.bound,
                     P1_SHELL_LIMIT if v.kind == "p1n" else None)
    b = float(args.bound)
    if v.kind == "blowup":
        count_e, count_u = count_blowup(args.bound, metric)
        fit_u = count_u / (b * math.log(b)) if b > 1 else None
        ref_e = closed_form(variety("pn", 1), metric)
        ref_u = closed_form(v, metric)
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
    reference = closed_form(v, metric)
    if v.kind == "pn":
        growth = b ** (v.n + 1)
    else:
        growth = b * math.log(b) ** (v.picard_rank - 1) if b > 1 else 1.0
    fit = count / growth
    data = {"variety": args.variety, "dim": args.dim, "metric": args.metric,
            "bound": _num(args.bound), "count": count, "fit": fit,
            "reference": reference}
    return data, None


def _cache_key(args) -> str:
    bound = Fraction(args.bound)
    tag = str(bound.numerator) if bound.denominator == 1 else \
        f"{bound.numerator}-{bound.denominator}"
    return f"{args.variety}{args.dim}_{args.metric}_B{tag}_v{VERSION}.csv"


_CACHE_HEADER = "# points "


def _read_cache(path: Path) -> list | None:
    """The cached tokens, or None when the file is missing, its head is not
    the point count and the column name, or its lines after the head are
    not that many tokens, each ended by a newline."""
    if not path.exists():
        return None
    lines = path.read_text().split("\n")
    # a whole file splits into the head, the column, the tokens and a last ""
    tokens = lines[2:-1]
    if (lines[0] != f"{_CACHE_HEADER}{len(tokens)}" or lines[1:2] != ["point"]
            or lines[-1] != "" or "" in tokens):
        return None
    return tokens


def _cmd_enumerate(cfg: RunConfig, args) -> tuple:
    v = _variety(args)
    w = bounded_window(v, args.bound, _metric(args))
    cache_file = None
    if cfg.cache_dir is not None:
        cache_file = cfg.cache_dir / _cache_key(args)
    tokens = _read_cache(cache_file) if cache_file is not None else None
    if tokens is None:
        tokens = _enum_tokens(w)
        if cache_file is not None:
            cfg.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cfg.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write("\n".join([f"{_CACHE_HEADER}{len(tokens)}",
                                         "point", *tokens, ""]))
                os.replace(tmp, cache_file)
            except BaseException:
                # a failed write (a full disk, say) leaves no partial file
                os.unlink(tmp)
                raise
    data = {"variety": args.variety, "dim": args.dim, "metric": args.metric,
            "bound": _num(args.bound), "count": len(tokens),
            "points": tokens}
    # csv takes any iterable of rows, so the table holds no second list
    return data, (["point"], zip(tokens))


def _cmd_constant(cfg: RunConfig, args) -> tuple:
    if args.primes_up_to < 2:
        raise UsageError(f"--primes-up-to must be at least 2, got {args.primes_up_to}")
    v = _variety(args)
    metric = _metric(args)
    const = assemble_constant(v, metric, prime_limit=args.primes_up_to)
    beta = args.beta
    data = {
        "variety": args.variety, "dim": args.dim, "metric": args.metric,
        "alpha": _num(const.alpha), "beta": _num(beta),
        "tau_inf": const.tau_inf, "tau_finite": const.tau_finite,
        "tau": const.tau,
        "value": float(const.alpha) * float(beta) * const.tau,
        "closed_form": float(beta) * closed_form(v, metric),
        "tail_rel_bound": const.tail_rel_bound,
        "primes_up_to": const.prime_limit, "log_power": const.log_power,
    }
    return data, None


def _cmd_equidist(cfg: RunConfig, args) -> tuple:
    if args.modulus < 2:
        raise UsageError(f"--modulus must be at least 2, got {args.modulus}")
    if args.dim < 1:
        raise UsageError(f"--dim must be at least 1, got {args.dim}")
    v = variety("pn", args.dim)
    _check_shell_cap(bounded_window(v, args.bound), args.bound)
    bound = int(args.bound)
    target = None
    if args.cls is not None:
        coords = _parse_ints(args.cls, "--class")
        if len(coords) != args.dim + 1:
            raise UsageError(f"--class needs n + 1 = {args.dim + 1} "
                             f"coordinates on P^{args.dim}, got {len(coords)}")
        target = _canonical_mod(coords, args.modulus)
    box = None if args.box is None else _parse_box(args.box, "--box")
    if box is not None:
        if len(box) != args.dim + 1:
            raise UsageError("--box needs one interval per coordinate")
        try:
            mu = sup_box_measure(box, args.dim)
        except ValueError as exc:
            raise UsageError(f"--box {args.box!r}: {exc}")
        cost = box_walk_cost(args.dim, args.modulus, bound)
        if cost > BOX_WALK_LIMIT:
            raise UsageError(
                f"--box at --bound {_num(args.bound)} mod {args.modulus} on "
                f"P^{args.dim} is too large: the box walk covers about {cost} "
                f"residue entries, past the limit {BOX_WALK_LIMIT}")
    # |P^n(Z/M)| >= M^n >= 2^n, so a large M or n is refused unfactored
    if (args.dim >= CLASS_LIMIT.bit_length()
            or args.modulus ** args.dim > CLASS_LIMIT
            or card_projective_mod(args.dim, args.modulus) > CLASS_LIMIT):
        raise UsageError(
            f"--modulus {args.modulus} on P^{args.dim} is too large: "
            f"P^{args.dim}(Z/{args.modulus}) has more than {CLASS_LIMIT} "
            f"classes")
    cost = class_count_cost(args.dim, args.modulus, bound)
    if cost > CLASS_WORK_LIMIT:
        raise UsageError(
            f"--modulus {args.modulus} at --bound {_num(args.bound)} on "
            f"P^{args.dim} is too large: the class counts take about {cost} "
            f"products, past the limit {CLASS_WORK_LIMIT}")
    counts = count_classes_pn(args.dim, args.modulus, bound)
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
    if target is not None:
        key = ModPoint(args.modulus, target)
        if key not in counts:
            raise UsageError(f"class {args.cls!r} is not primitive "
                             f"mod {args.modulus}")
        data["class"] = ":".join(map(str, target))
        data["class_share"] = _ratio(counts[key], total)
    if box is not None:
        # a point of height <= B has two primitive vectors, +-y
        joint = joint_class_box_counts(args.dim, args.modulus, bound, box)
        data["mu_box"] = float(mu)
        data["box_share"] = _ratio(sum(joint.values()), 2 * total)
        if target is not None:
            data["joint_share"] = _ratio(joint[key], 2 * total)
            data["predicted_joint"] = float(uniform) * float(mu)
    table = (["class", "count", "share"], rows)
    return data, table


def _cmd_window(cfg: RunConfig, args) -> tuple:
    v = _variety(args)
    box = _parse_box(args.d1, "--d1")
    direction = _parse_fracs(args.u, "--u") if args.u else None
    try:
        w = HeightWindow(variety=v, metric=_metric(args), box=box,
                         direction=direction, scale=args.bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_shell_cap(w, args.bound)
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
    rows = doc.get("gram") if isinstance(doc, dict) else doc
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError("a gram file holds a list of rows, bare or "
                         "under 'gram'")
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
        # a unit minimum is LogLin's zero, whose to_float is the int 0
        "minima": [float(m.to_float()) for m in minima],
    }
    table = (["index", "slope"],
             [[i + 1, s.to_float()] for i, s in enumerate(poly.slopes)])
    return data, table


def _cmd_freeness(cfg: RunConfig, args) -> tuple:
    v = _variety(args)
    if v.kind == "blowup":
        raise UsageError("freeness statistics cover P^n and (P^1)^n, "
                         "not the blown-up plane")
    if args.bins < 1:
        raise UsageError(f"--bins must be at least 1, got {args.bins}")
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
        if not isinstance(doc, dict) or "branches" not in doc:
            raise UsageError("--op alpha needs a file with 'branches' "
                             "[[r,m],...] and 'd'")
        try:
            branches = tuple((operator.index(r), operator.index(m))
                             for r, m in doc["branches"])
            d = operator.index(doc["d"])
        except (KeyError, TypeError, ValueError):
            # ValueError: a branch that is not a pair
            raise ValueError("--op alpha needs 'branches' as integer pairs "
                             "[[r,m],...] and an integer 'd'") from None
        branch = BranchData(branches, d)
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
                "very_free": st.is_very_free}
        table = (["index", "twist"],
                 [[i + 1, a] for i, a in enumerate(st.a)])
        return data, table
    if args.op == "freeness":
        st = splitting_type(c)
        l = st.freeness
        data = {"op": "freeness", "n": c.n, "d": c.d,
                "freeness": str(_num(l)), "freeness_float": float(l),
                "very_free": st.is_very_free}
        return data, None
    if args.op == "limit":
        heights = [float(h) for h in
                   _parse_fracs(args.heights, "--heights")]
        result = limit_experiment(c, heights)
        rows = result.rows
        limit = float(result.geometric_freeness)
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
    v = _variety(args)
    if args.delta is not None:
        if v.kind != "p1n":
            raise UsageError("--delta asks for a fiber share, which needs "
                             "a product variety")
        if args.delta <= 0:
            raise UsageError(f"--delta must be positive, got {_num(args.delta)}")
    try:
        zc = ZoomConfig(variety=v, center=_parse_center(args.center, v.kind),
                        alpha=args.alpha, R=args.radius, B=args.bound,
                        metric=_metric(args))
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        window = zc.window
    except OverflowError:
        raise UsageError("--radius and --bound give a window R B^-alpha "
                         "past the float range")
    cloud = zoom_cloud(zc)
    try:
        rescaled = cloud.rescaled_columns()
    except OverflowError:
        raise UsageError(f"--alpha {_num(zc.alpha)} and --bound "
                         f"{_num(zc.B)}: the rescaling factor B^alpha is "
                         f"past the float range")
    # the strings of each factor once, gathered into each point's row; the
    # renderer encodes the chart and rescaled values once per factor
    names = [_coords_token(x) for x, _ in cloud.factors]
    tokens = list(map(",".join, cloud.gather([names])))
    data = {
        "variety": args.variety, "dim": args.dim, "metric": args.metric,
        "center": args.center, "alpha": str(_num(zc.alpha)),
        "radius": str(_num(zc.R)), "bound": _num(zc.B),
        "window": window, "size": cloud.size,
        "points": tokens,
        "chart": Gathered(cloud.index, cloud.chart_columns(_pair_text)),
        "rescaled": Gathered(cloud.index, rescaled),
        "heights": cloud.heights,
    }
    cols = ["point", "height"]
    columns = [tokens, cloud.heights]
    if args.overlay_freeness:
        overlay = zoom_freeness_overlay(cloud)
        data["freeness"] = overlay
        cols.append("freeness")
        columns.append(overlay)
    if args.delta is not None:
        data["delta"] = str(_num(args.delta))
        # an empty cloud has no share, as `_ratio` reports 0/0
        data["fiber_share"] = (fiber_share(cloud, args.delta) if cloud.size
                               else None)
    # csv takes any iterable of rows, so the table holds no row lists
    return data, (cols, zip(*columns))


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

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any token of '-', an optional '.' and
    a digit as a flag value, so that `--center -2:-4:6` and `--u -1,3`
    parse like their `--flag=value` spellings.

    Plain argparse does so only for a token that is a whole negative
    number.  No flag here starts with '-' and a digit, so the wider rule
    shadows none.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


class _Command(_Parser):
    """A subcommand's parser, whose `add_argument` calls wait for its first
    parse: a run parses one subcommand, and `heightlab --help` lists the
    subcommands without their arguments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._waiting = []

    def add_argument(self, *args, **kwargs):
        if "_waiting" not in vars(self):  # -h, added by __init__
            return super().add_argument(*args, **kwargs)
        self._waiting.append((args, kwargs))

    def parse_known_args(self, args=None, namespace=None):
        for a, k in self.__dict__.pop("_waiting", ()):
            super().add_argument(*a, **k)
        return super().parse_known_args(args, namespace)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--cache-dir", type=Path, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for old command lines; must be at least 1, "
                        "and changes neither the work nor the output")
    p.add_argument("--seed", type=int, default=0)


# --dim defaults to the variety's only dimension where it has one, else 1
ONLY_DIM = {"blowup": 2}


def _add_variety(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variety", choices=["pn", "p1n", "blowup"],
                   default="pn")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--metric", choices=["sup", "euclid"], default="sup")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared afterwards.

    Parsing reads the tree and fills a fresh namespace each time, so every
    `main` call of a process can reuse one tree; importing the module does
    not build it, and a subcommand's arguments wait for its first parse.
    """
    ap = _Parser(
        prog="heightlab",
        description="Exact height experiments on simple rational varieties")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Command)

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
    if getattr(args, "variety", None) is not None and args.dim is None:
        args.dim = ONLY_DIM.get(args.variety, 1)
    cfg = _config_from(args)
    try:
        if getattr(args, "bound", None) is not None and args.bound <= 0:
            raise UsageError(f"--bound must be positive, got {_num(args.bound)}")
        if args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        data, table = args.handler(cfg, args)
        text = _render(cfg, data, table)
    except UsageError as exc:
        print(f"heightlab: {exc}", file=sys.stderr)
        return 2
    except COMPUTE_ERRORS as exc:
        print(f"heightlab: computation failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("heightlab: computation failed: out of memory", file=sys.stderr)
        return 3
    _write(cfg, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
