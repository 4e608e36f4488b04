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

One walk, `_near`, lists the points of P^k near a center, for P^n clouds
and for each P^1 factor of a product cloud alike, and every cloud has one
shape: distinct factors (whole points on P^n) and each point's positions
among them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from operator import itemgetter

from .counting import _capped_tuples, _shell_cap, _shell_value, int_nth_root
from .exactnum import Frozen
from .freeness import _p1n_l, _pn_freeness
from .projpoint import Metric, PrimPoint, VarietyId, normalize


class ZoomConfig(Frozen):
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


class ZoomCloud(Frozen):
    """Points of the window, their exact chart coordinates, and heights.

    Each row of `factors` is (coordinates, tuple of chart values): a whole
    point on P^n, one P^1 factor on (P^1)^n, each distinct factor listed
    once.  A chart value is a pair (num, den) of integers in lowest terms,
    den > 0.  `index` gives each point's factors as positions in `factors`,
    ((0,), (1,), ...) on P^n.  The work that depends on one factor alone
    (rescaling, the band test of `fiber_share`, the norms of the overlay,
    the command line's strings) reads it once per factor, into a list by
    factor position, and `gather` hands each point its entries.  The
    command line hands the renderer the index and the columns of
    `chart_columns` and `rescaled_columns` themselves, so each chart
    string and rescaled float is also formatted once per factor.
    """

    config: ZoomConfig
    factors: tuple
    index: tuple
    heights: tuple  # exponential heights, floats for reporting

    @property
    def size(self) -> int:
        return len(self.index)

    def gather(self, columns: Sequence) -> Iterator[tuple]:
        """Each point's row, in cloud order: the entries of columns, lists
        indexed by factor position, of its first factor, then of its
        second, and so on."""
        return _gather(self.index, columns)

    def chart_columns(self, f) -> list:
        """f(num, den) of each chart value, one list per chart coordinate
        of a factor, indexed by factor position."""
        return [[f(*y) for y in col]
                for col in zip(*(ys for _, ys in self.factors))]

    @cached_property
    def points(self) -> tuple:
        """A PrimPoint per point of P^n, a tuple of pairs per point of
        (P^1)^n."""
        coords = [x for x, _ in self.factors]
        if self.config.variety.kind == "pn":
            return tuple(PrimPoint(coords[i]) for (i,) in self.index)
        return tuple(self.gather([coords]))

    @cached_property
    def chart(self) -> tuple:
        """The chart values of each point, Fractions."""
        return tuple(self.gather(self.chart_columns(Fraction)))

    @cached_property
    def rescaled(self) -> tuple:
        """The chart values of each point times B^alpha, floats."""
        return tuple(self.gather(self.rescaled_columns()))

    def rescaled_columns(self) -> list:
        """`chart_columns` of the chart values times B^alpha, floats: num /
        den is the float nearest the value, as float(Fraction) gives it."""
        scale = self.B_pow_alpha()
        return self.chart_columns(lambda num, den: num / den * scale)

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


def _near(cfg: ZoomConfig, center: tuple, cap: int) -> Iterator[tuple]:
    """(q, rows) for each q that `_windows` visits about a P^k center, up to
    the first q whose own shell value exceeds cap: rows (x, chart values,
    shell value) for each primitive x with shell value at most cap whose
    coordinate j, the center's last nonzero one, is q.  x is normalized,
    and the chart values are x_i / q - center_i / center_j, i != j, each a
    pair (num, den) in lowest terms with den > 0.

    The shell value is the sup height, or the squared euclid one, so caps
    stay integral: it is at least that of q, and at most cap only if each
    other coordinate a has |a| <= cap resp. a^2 <= cap - q^2, the cut of
    each window.
    """
    euclid = cfg.metric is Metric.EUCLID
    j = max(i for i, c in enumerate(center) if c != 0)
    cf = [Fraction(c, center[j]) for i, c in enumerate(center) if i != j]
    for q, windows in _windows(cfg, cf, abs(center[j])):
        own = _shell_value((q,), cfg.metric)
        if own > cap:
            return
        t = math.isqrt(cap - own) if euclid else cap
        # a/q - cn/cd = (a cd - cn q) / (q cd)
        dens = [(c.numerator * q, q * c.denominator, c.denominator) for c in cf]
        rows = []
        for combo in iproduct(*(range(max(w.start, -t), min(w.stop, t + 1))
                                for w in windows)):
            x = [*combo[:j], q, *combo[j:]]
            if math.gcd(*x) != 1:
                continue
            s = _shell_value(x, cfg.metric)
            if s > cap:
                continue
            ys = []
            for a, (cq, den, cd) in zip(combo, dens):
                num = a * cd - cq
                g = math.gcd(num, den)
                ys.append((num // g, den // g))
            if next(v for v in x if v) < 0:  # first nonzero made positive
                x = [-v for v in x]
            rows.append((tuple(x), tuple(ys), s))
        yield q, rows


def _gather(index: tuple, columns: Sequence) -> Iterator[tuple]:
    # per position in the points' factor tuples, one C-level map per column
    return zip(*(map(col.__getitem__, c) for c in zip(*index)
                 for col in columns))


def _cloud(cfg: ZoomConfig, rows: list, index) -> ZoomCloud:
    """The cloud of the points index over factor rows (x, chart values,
    shell value); a point's height is read from its shell values' product,
    the sup height or the squared euclid one."""
    index = tuple(index)
    keys = [row[2] for row in rows]
    heights = map(float, map(math.prod, _gather(index, [keys])))
    if cfg.metric is Metric.EUCLID:
        heights = map(math.sqrt, heights)
    return ZoomCloud(config=cfg, factors=tuple(row[:2] for row in rows),
                     index=index, heights=tuple(heights))


def _pn_cloud(cfg: ZoomConfig) -> ZoomCloud:
    cap = _shell_cap(cfg.B ** 2, cfg.metric)
    rows = [row for _, found in _near(cfg, cfg.center, cap) for row in found]
    return _cloud(cfg, rows, ((i,) for i in range(len(rows))))


def _least_key(cfg: ZoomConfig, center: tuple, cap: int):
    """The least height key at most cap of a P^1 point in the window of one
    center, or None.  The walk stops once q alone puts the key past the
    best so far."""
    best = None
    for q, rows in _near(cfg, center, cap):
        if best is not None and _shell_value((q,), cfg.metric) > best:
            break
        for _, _, key in rows:
            if best is None or key < best:
                best = key
    return best


def _p1n_cloud(cfg: ZoomConfig) -> ZoomCloud:
    """The capped products of the factors near each center coordinate: the
    cloud lists them by first-factor height key, then by second, and so on.

    A factor enters a product iff its key is at most the cap over the
    product of the other factors' least keys, so `_near` walks each
    distinct center only that far, and every factor it yields enters.
    """
    cap = _shell_cap(cfg.B ** 2, cfg.metric)
    least = {c: _least_key(cfg, c, cap) for c in dict.fromkeys(cfg.center)}
    if None in least.values():
        return _cloud(cfg, [], ())
    floor = math.prod(least[c] for c in cfg.center)
    factors, keyed = [], {}
    for c in least:
        found = sorted((row for _, rows in
                        _near(cfg, c, cap // (floor // least[c]))
                        for row in rows), key=itemgetter(2))
        # the capped walk's rows are (position in factors, height key)
        keyed[c] = [(len(factors) + i, row[2]) for i, row in enumerate(found)]
        factors += found
    return _cloud(cfg, factors,
                  _capped_tuples([keyed[c] for c in cfg.center], cap))


def zoom_cloud(cfg: ZoomConfig) -> ZoomCloud:
    """All height-at-most-B points with chart coordinates in the window."""
    if cfg.variety.kind == "pn":
        return _pn_cloud(cfg)
    return _p1n_cloud(cfg)


class ScanResult(Frozen):
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
    near = [abs(num) ** r * td <= tn * den ** r
            for _, ((num, den),) in cloud.factors]
    return sum(map(any, cloud.gather([near]))) / cloud.size


def zoom_freeness_overlay(cloud: ZoomCloud) -> tuple:
    """The arithmetic freeness l of each source point, in cloud order.

    The point, its rescaled coordinates and its height are the cloud's
    own rows, so only l is returned.  A P^n cloud hands the freeness
    kernel its coordinate rows; a product cloud reads the euclid norm of
    each distinct factor once.
    """
    v = cloud.config.variety
    if v.kind == "pn":
        return tuple(_pn_freeness(v.n, y)[2] for y, _ in cloud.factors)
    # the half-log of the euclid norm of each distinct factor, once
    logs = [math.log(_shell_value(pair, Metric.EUCLID)) / 2
            for pair, _ in cloud.factors]
    return tuple(map(_p1n_l, cloud.gather([logs])))
