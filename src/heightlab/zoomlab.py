"""Zoomed point clouds around a rational center.

A zoom at center P_0 collects the rational points of height at most B
whose chart coordinates land in the shrinking box ||y||_inf <= R B^(-alpha),
then rescales by B^alpha.  Heights are O(1)-normalized (sup or euclidean
on each factor, products over factors), so the critical exponent of P^1
sits at alpha = 1; anticanonical conventions would halve it.

Membership is decided exactly, in integers.  For alpha = p/r the
condition |y| <= R B^(-alpha) reads |y|^r <= R^r / B^p.  For a chart
coordinate y = a/q - cn/cd that is |a cd - cn q| <= K(q) with
K(q) = floor(((q cd R)^r / B^p)^(1/r)), an exact integer root, so for each
denominator q the window is the integer range of a between
ceil((cn q - K)/cd) and floor((cn q + K)/cd), clamped to |a| <= B.  No
candidate outside the window is ever built, and no q below the least
one with some K(q) >= 1 is visited but the center's own.  Rescaled
coordinates are floats for display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from typing import Iterator, Sequence

from .counting import _capped_tuples, _shell_cap, _shell_value, int_nth_root
from .freeness import point_freeness
from .projpoint import Metric, VarietyId, normalize


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
            center = normalize(self.center).coords
            if len(center) != self.variety.n + 1:
                raise ValueError("center has the wrong number of coordinates")
        elif self.variety.kind == "p1n":
            if len(self.center) != self.variety.n:
                raise ValueError("center needs one point per factor")
            center = tuple(normalize(c).coords for c in self.center)
            if any(len(c) != 2 for c in center):
                raise ValueError("factors of a product center are P^1 points")
        else:
            raise ValueError("zoom supports pn and p1n varieties")
        object.__setattr__(self, "center", center)

    @property
    def window(self) -> float:
        return float(self.R) * float(self.B) ** (-float(self.alpha))


@dataclass(frozen=True)
class ZoomCloud:
    """Points of the window, their exact chart coordinates, and heights.

    A product cloud also lists each distinct factor once, as a row
    (pair, chart value) of `factors`, and each point's factors as positions
    in that list, in `index`; the work that depends on one factor alone
    (rescaling, the band test of `fiber_share`, the norms of the overlay,
    the command line's strings) reads them once per factor.  A P^n cloud
    leaves both empty.
    """

    config: ZoomConfig
    points: tuple
    chart: tuple    # tuples of Fractions, one per point
    heights: tuple  # exponential heights, floats for reporting
    factors: tuple = ()
    index: tuple = ()

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def rescaled(self) -> tuple:
        scale = float(self.B_pow_alpha())
        if self.index:
            per = [float(y) * scale for _, y in self.factors]
            return tuple(tuple(map(per.__getitem__, t)) for t in self.index)
        return tuple(tuple(float(y) * scale for y in ys) for ys in self.chart)

    def B_pow_alpha(self) -> float:
        return float(self.config.B) ** float(self.config.alpha)


def _radius_power(radius: Fraction, cfg: ZoomConfig) -> tuple:
    """(tn, td, r) with |y| <= radius B^(-alpha) iff |y|^r td <= tn, where
    alpha = p/r and tn/td = radius^r / B^p in lowest terms."""
    p, r = cfg.alpha.numerator, cfg.alpha.denominator
    t = radius ** r / cfg.B ** p
    return t.numerator, t.denominator, r


def _window_ranges(cfg: ZoomConfig, c: Fraction, qs) -> Iterator[range]:
    """For each q of qs, the range of integers a with |a| <= B and
    |a/q - c| <= R B^(-alpha), exactly."""
    tn, td, r = _radius_power(cfg.R, cfg)
    cn, cd = c.numerator, c.denominator
    clamp = int(cfg.B)
    for q in qs:
        k = int_nth_root((q * cd) ** r * tn // td, r)
        lo = -((k - cn * q) // cd)
        hi = (cn * q + k) // cd
        yield range(max(lo, -clamp), min(hi, clamp) + 1)


def _first_open_q(cfg: ZoomConfig, c: Fraction) -> int:
    """The least q with K(q) >= 1 in the window about chart value c.

    K(q) >= 1 iff (q cd)^r tn >= td, the test `_window_ranges` makes, iff
    q cd >= z for the least z with z^r >= ceil(td / tn).
    """
    tn, td, r = _radius_power(cfg.R, cfg)
    need = -(-td // tn)
    z = int_nth_root(need, r)
    if z ** r < need:
        z += 1
    return -(-z // c.denominator)


def _windows(cfg: ZoomConfig, cf: list, own: int) -> Iterator[tuple]:
    """(q, one window range per chart value of cf) for q = 1..floor(B).

    Below the least q at which some chart value has K(q) >= 1, each window
    is a single a = c q or empty, so the only primitive point there is the
    center, at its own denominator own; every other such q is skipped.
    """
    clamp = int(cfg.B)
    q0 = min(_first_open_q(cfg, c) for c in cf)
    for qs in ([own] if own < q0 and own <= clamp else [],
               range(q0, clamp + 1)):
        yield from zip(qs, zip(*(_window_ranges(cfg, c, qs) for c in cf)))


def _pn_cloud(cfg: ZoomConfig) -> ZoomCloud:
    n = cfg.variety.n
    center = cfg.center
    j = max(i for i, c in enumerate(center) if c != 0)
    others = [i for i in range(n + 1) if i != j]
    cf = [Fraction(center[i], center[j]) for i in others]
    cap = _shell_cap(cfg.B ** 2, cfg.metric)
    rows = []
    for q, ranges in _windows(cfg, cf, abs(center[j])):
        for combo in iproduct(*ranges):
            x = [0] * (n + 1)
            x[j] = q
            for i, v in zip(others, combo):
                x[i] = v
            if math.gcd(*x) != 1:
                continue
            s = _shell_value(x, cfg.metric)
            if s > cap:
                continue
            ys = tuple(Fraction(v, q) - c for v, c in zip(combo, cf))
            height = float(s) if cfg.metric is Metric.SUP else math.sqrt(s)
            rows.append((normalize(x), ys, height))
    points, chart, heights = zip(*rows) if rows else ((), (), ())
    return ZoomCloud(config=cfg, points=tuple(points), chart=tuple(chart),
                     heights=tuple(heights))


def _chart_center(center: tuple) -> tuple:
    """(j, c): the chart of a P^1 center is that of its last nonzero
    coordinate j, where the center reads c."""
    j = 1 if center[1] != 0 else 0
    return j, Fraction(center[1 - j], center[j])


def _factor_windows(cfg: ZoomConfig, center: tuple, cap: int) -> Iterator[tuple]:
    """(q, range of a) for the P^1 points a/q near one center in its chart:
    the window of q cut to the a whose pair has height key at most cap, for
    each q that `_windows` visits while q alone keeps the key within cap.

    The height key is the exponential factor height for the sup metric and
    its square for the euclidean one, so product caps stay integral: at
    least q resp. q^2, and at most cap iff |a| <= cap resp. a^2 <= cap - q^2.
    """
    euclid = cfg.metric is Metric.EUCLID
    j, c = _chart_center(center)
    for q, (window,) in _windows(cfg, [c], abs(center[j])):
        if _shell_value((0, q), cfg.metric) > cap:
            return
        t = math.isqrt(cap - q * q) if euclid else cap
        yield q, range(max(window.start, -t), min(window.stop, t + 1))


def _least_key(cfg: ZoomConfig, center: tuple, cap: int):
    """The least height key at most cap of a P^1 point in the window of one
    center, or None.  The scan over q stops once q alone puts the key past
    the best so far."""
    best = None
    for q, window in _factor_windows(cfg, center, cap):
        if best is not None and _shell_value((0, q), cfg.metric) > best:
            break
        for a in window:
            if math.gcd(a, q) == 1:
                key = _shell_value((a, q), cfg.metric)
                if best is None or key < best:
                    best = key
    return best


def _p1_factor_candidates(cfg: ZoomConfig, center: tuple, cap: int) -> list:
    """P^1 points near one center coordinate with height key at most cap:
    rows (pair, chart value, height key), sorted by height key."""
    j, cf = _chart_center(center)
    cn, cd = cf.numerator, cf.denominator
    out = []
    for q, window in _factor_windows(cfg, center, cap):
        for a in window:
            if math.gcd(a, q) != 1:
                continue
            # gcd(a, q) = 1 and q > 0, so only the sign of (a, q) can need fixing
            pair = (q, a) if j == 0 else (a, q) if a >= 0 else (-a, -q)
            y = Fraction(a * cd - cn * q, q * cd)  # a/q - cf
            out.append((pair, y, _shell_value(pair, cfg.metric)))
    out.sort(key=lambda row: row[2])
    return out


def _p1n_cloud(cfg: ZoomConfig) -> ZoomCloud:
    """The capped products of the factor candidates: the cloud lists them
    by first-factor height key, then by second, and so on.

    A candidate of one factor enters a product iff its key is at most the
    cap over the product of the other factors' least keys, so only those
    candidates are built, once per distinct center, and each enters.
    """
    cap = _shell_cap(cfg.B ** 2, cfg.metric)
    least = {c: _least_key(cfg, c, cap) for c in dict.fromkeys(cfg.center)}
    if None in least.values():
        return ZoomCloud(config=cfg, points=(), chart=(), heights=())
    floor = math.prod(least[c] for c in cfg.center)
    factors, keys, rows = [], [], {}
    for c in least:
        found = _p1_factor_candidates(cfg, c, cap // (floor // least[c]))
        # the walk's rows are (position in factors, height key)
        rows[c] = [(len(factors) + i, row[2]) for i, row in enumerate(found)]
        factors += [row[:2] for row in found]
        keys += [row[2] for row in found]
    index = tuple(_capped_tuples([rows[c] for c in cfg.center], cap))
    pairs = [row[0] for row in factors]
    ys = [row[1] for row in factors]
    euclid = cfg.metric is Metric.EUCLID
    heights = []
    for t in index:
        # keys are factor heights (sup) or squared heights (euclid)
        h = float(math.prod(map(keys.__getitem__, t)))
        heights.append(math.sqrt(h) if euclid else h)
    return ZoomCloud(
        config=cfg,
        points=tuple(tuple(map(pairs.__getitem__, t)) for t in index),
        chart=tuple(tuple(map(ys.__getitem__, t)) for t in index),
        heights=tuple(heights), factors=tuple(factors), index=index)


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
    {Y_i = 0} iff |y_i| <= delta B^(-alpha), i.e. |y_i|^r <= delta^r / B^p
    for alpha = p/r: one integer comparison per distinct factor.
    """
    if cloud.config.variety.kind != "p1n":
        raise ValueError("fiber share needs a product variety")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("band width must be positive")
    if cloud.size == 0:
        raise ValueError("empty cloud")
    tn, td, r = _radius_power(delta, cloud.config)
    near = [abs(y.numerator) ** r * td <= tn * y.denominator ** r
            for _, y in cloud.factors]
    hits = sum(1 for t in cloud.index if any(map(near.__getitem__, t)))
    return hits / cloud.size


def zoom_freeness_overlay(cloud: ZoomCloud) -> tuple:
    """The arithmetic freeness l of each source point, in cloud order.

    The point, its rescaled coordinates and its height are the cloud's
    own rows, so only l is returned.  A product cloud reads the euclid
    norm of each distinct factor once.
    """
    v = cloud.config.variety
    if v.kind != "p1n":
        return tuple(point_freeness(v, point)[2] for point in cloud.points)
    # `_p1n_freeness` of each point, from the half-log of the euclid norm
    # of each distinct factor, taken once per factor (a unit factor's is 0)
    logs = [math.log(_shell_value(pair, Metric.EUCLID)) / 2
            for pair, _ in cloud.factors]
    out = []
    for t in cloud.index:
        hs = list(map(logs.__getitem__, t))
        low = min(hs)
        out.append(0.0 if low == 0 else v.n * low / sum(hs))
    return tuple(out)
