"""Zoomed point clouds around a rational center.

A zoom at center P_0 collects the rational points of height at most B
whose chart coordinates land in the shrinking box ||y||_inf <= R B^(-alpha),
then rescales by B^alpha.  Heights are O(1)-normalized (sup or euclidean
on each factor, products over factors), so the critical exponent of P^1
sits at alpha = 1; anticanonical conventions would halve it.

Membership is decided exactly: for alpha = p/q the condition
|y| <= R B^(-alpha) is the integer-exponent comparison |y|^q B^p <= R^q
between rationals.  Rescaled coordinates are floats for display only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Sequence

from .freeness import point_freeness
from .projpoint import Metric, PrimPoint, VarietyId


def _in_ball(y: Fraction, radius: Fraction, b: Fraction, alpha: Fraction) -> bool:
    """Exact test |y| <= radius * b^(-alpha) for rational alpha >= 0."""
    p, q = alpha.numerator, alpha.denominator
    return abs(y) ** q * b ** p <= radius ** q


@dataclass(frozen=True)
class ZoomConfig:
    variety: VarietyId
    center: tuple
    alpha: Fraction
    R: Fraction
    B: Fraction
    metric: Metric = Metric.SUP

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "R", Fraction(self.R))
        object.__setattr__(self, "B", Fraction(self.B))
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.R <= 0:
            raise ValueError("window radius must be positive")
        if self.B <= 1:
            raise ValueError("height bound must exceed 1")
        if self.variety.kind == "pn":
            center = _normalize_vector(self.center)
            if len(center) != self.variety.n + 1:
                raise ValueError("center has the wrong number of coordinates")
        elif self.variety.kind == "p1n":
            if len(self.center) != self.variety.n:
                raise ValueError("center needs one point per factor")
            center = tuple(_normalize_vector(c) for c in self.center)
            if any(len(c) != 2 for c in center):
                raise ValueError("factors of a product center are P^1 points")
        else:
            raise ValueError("zoom supports pn and p1n varieties")
        object.__setattr__(self, "center", center)

    @property
    def window(self) -> float:
        return float(self.R) * float(self.B) ** (-float(self.alpha))


def _normalize_vector(coords) -> tuple:
    vec = [int(c) for c in coords]
    g = math.gcd(*[abs(c) for c in vec])
    if g == 0:
        raise ValueError("center must be a nonzero point")
    vec = [c // g for c in vec]
    if next(c for c in vec if c != 0) < 0:
        vec = [-c for c in vec]
    return tuple(vec)


@dataclass(frozen=True)
class ZoomCloud:
    """Points of the window, their exact chart coordinates, and heights."""

    config: ZoomConfig
    points: tuple
    chart: tuple    # tuples of Fractions, one per point
    heights: tuple  # exponential heights, floats for reporting

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def rescaled(self) -> tuple:
        scale = float(self.B_pow_alpha())
        return tuple(tuple(float(y) * scale for y in ys) for ys in self.chart)

    def B_pow_alpha(self) -> float:
        return float(self.config.B) ** float(self.config.alpha)


def _candidate_range(center_times_q: float, q: int, window: float, clamp: int):
    lo = math.floor(center_times_q - q * window) - 1
    hi = math.ceil(center_times_q + q * window) + 1
    return range(max(lo, -clamp), min(hi, clamp) + 1)


def _pn_cloud(cfg: ZoomConfig) -> ZoomCloud:
    n = cfg.variety.n
    center = cfg.center
    j = max(i for i, c in enumerate(center) if c != 0)
    cf = [Fraction(center[i], center[j]) for i in range(n + 1)]
    clamp = int(cfg.B)
    window = cfg.window
    b2 = cfg.B * cfg.B
    rows = []
    others = [i for i in range(n + 1) if i != j]
    for q in range(1, clamp + 1):
        ranges = [_candidate_range(float(cf[i]) * q, q, window, clamp)
                  for i in others]
        for combo in iproduct(*ranges):
            x = [0] * (n + 1)
            x[j] = q
            for i, v in zip(others, combo):
                x[i] = v
            if math.gcd(*[abs(c) for c in x]) != 1:
                continue
            ys = tuple(Fraction(x[i], q) - cf[i] for i in others)
            if not all(_in_ball(y, cfg.R, cfg.B, cfg.alpha) for y in ys):
                continue
            if cfg.metric is Metric.SUP:
                h_sq = max(abs(c) for c in x) ** 2
            else:
                h_sq = sum(c * c for c in x)
            if h_sq > b2:
                continue
            rows.append((PrimPoint(_normalize_vector(x)), ys, math.sqrt(h_sq)))
    points, chart, heights = zip(*rows) if rows else ((), (), ())
    return ZoomCloud(config=cfg, points=tuple(points), chart=tuple(chart),
                     heights=tuple(heights))


def _p1_factor_candidates(cfg: ZoomConfig, center: tuple):
    """P^1 points near one center coordinate: (pair, chart value, height key).

    The height key is the exponential factor height for the sup metric and
    its square for the euclidean one, so product caps stay integral.
    """
    j = 1 if center[1] != 0 else 0
    cf = Fraction(center[1 - j], center[j])
    clamp = int(cfg.B)
    window = cfg.window
    out = []
    for q in range(1, clamp + 1):
        for a in _candidate_range(float(cf) * q, q, window, clamp):
            if math.gcd(a, q) != 1:
                continue
            y = Fraction(a, q) - cf
            if not _in_ball(y, cfg.R, cfg.B, cfg.alpha):
                continue
            pair = (a, q) if j == 1 else (q, a)
            key = max(abs(a), q) if cfg.metric is Metric.SUP else a * a + q * q
            out.append((_normalize_vector(pair), y, key))
    out.sort(key=lambda row: row[2])
    return out


def _p1n_cloud(cfg: ZoomConfig) -> ZoomCloud:
    n = cfg.variety.n
    factors = [_p1_factor_candidates(cfg, c) for c in cfg.center]
    keys = [[row[2] for row in f] for f in factors]
    if cfg.metric is Metric.SUP:
        cap0 = cfg.B
    else:
        cap0 = cfg.B * cfg.B  # keys are squared heights
    rows = []

    def descend(idx, cap, pts, ys, hkey):
        if idx == n:
            h = float(hkey)
            rows.append((tuple(pts), tuple(ys), math.sqrt(h) if
                         cfg.metric is Metric.EUCLID else h))
            return
        limit = bisect_right(keys[idx], cap)
        for pair, y, key in factors[idx][:limit]:
            descend(idx + 1, cap / key, pts + [pair], ys + [y], hkey * key)

    descend(0, cap0, [], [], 1)
    points, chart, heights = zip(*rows) if rows else ((), (), ())
    return ZoomCloud(config=cfg, points=tuple(points), chart=tuple(chart),
                     heights=tuple(heights))


def zoom_cloud(cfg: ZoomConfig) -> ZoomCloud:
    """All height-at-most-B points with chart coordinates in the window."""
    if cfg.variety.kind == "pn":
        return _pn_cloud(cfg)
    return _p1n_cloud(cfg)


@dataclass(frozen=True)
class ScanResult:
    rows: tuple           # (alpha, B, cloud size)
    critical_alpha: Fraction  # largest alpha with a nontrivial cloud at max B


def critical_scan(variety: VarietyId, center, alphas: Sequence, bs: Sequence,
                  radius=1, metric: Metric = Metric.SUP) -> ScanResult:
    """Cloud sizes over an (alpha, B) grid.

    The reported critical exponent is the largest grid alpha whose cloud
    at the largest B still contains more than the center.
    """
    if not alphas or not bs:
        raise ValueError("grids must be nonempty")
    alphas = sorted(Fraction(a) for a in alphas)
    bs = sorted(Fraction(b) for b in bs)
    rows = []
    sizes_at_bmax = {}
    for alpha in alphas:
        for b in bs:
            cfg = ZoomConfig(variety=variety, center=center, alpha=alpha,
                             R=radius, B=b, metric=metric)
            size = zoom_cloud(cfg).size
            rows.append((alpha, b, size))
            if b == bs[-1]:
                sizes_at_bmax[alpha] = size
    nontrivial = [a for a, s in sizes_at_bmax.items() if s > 1]
    critical = max(nontrivial) if nontrivial else Fraction(0)
    return ScanResult(rows=tuple(rows), critical_alpha=critical)


def fiber_share(cloud: ZoomCloud, delta) -> float:
    """Fraction of the cloud within rescaled sup-distance delta of an axis.

    A rescaled coordinate Y_i = B^alpha y_i is within delta of the axis
    {Y_i = 0} iff |y_i| <= delta B^(-alpha), tested exactly.
    """
    if cloud.config.variety.kind != "p1n":
        raise ValueError("fiber share needs a product variety")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("band width must be positive")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    cfg = cloud.config
    hits = sum(
        1 for ys in cloud.chart
        if any(_in_ball(y, delta, cfg.B, cfg.alpha) for y in ys)
    )
    return hits / cloud.size


@dataclass(frozen=True)
class OverlayRow:
    point: tuple
    rescaled: tuple
    h: float   # logarithmic height of the source point
    l: float


def zoom_freeness_overlay(cloud: ZoomCloud) -> tuple:
    """Cloud rows joined with the arithmetic freeness of each source point."""
    v = cloud.config.variety
    out = []
    for point, rescaled, height in zip(cloud.points, cloud.rescaled,
                                       cloud.heights):
        if v.kind == "p1n":
            _, _, l = point_freeness(v, [PrimPoint(p) for p in point])
        else:
            _, _, l = point_freeness(v, point)
            point = point.coords
        out.append(OverlayRow(point=point, rescaled=rescaled,
                              h=math.log(height), l=l))
    return tuple(out)
