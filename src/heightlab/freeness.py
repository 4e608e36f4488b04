"""Freeness of rational points via tangent-lattice slopes.

The tangent space at a point P = [y] of P^n carries the lattice
Hom(D, E/D) = D^v (x) E/D, with D = Zy inside E = Z^(n+1) and the metric
induced from the euclidean one (slope theory needs a classical adelic
norm, so the euclid metric is used throughout; windows may still be cut
by sup-height).  Its degree equals the anticanonical log-height
(n+1) log|y|, and the freeness invariant is

    l(P) = n mu_min / h   if mu_min > 0 and h > 0, else 0,

which lands in [0, 1] because mu_min is at most the average slope.

One kernel, `point_freeness`, computes (h, mu_min, l) for every caller;
its P^n part, `_pn_freeness`, reads the coordinates alone, so the
statistics and the zoom overlay pass coordinate rows.
On P^2 and P^3 it takes the integer minima of the quotient form, picks
the minimal slope term by exact integer power comparisons, and rounds
that single term to a float; P^1 and (P^1)^n use their closed forms and
P^n with n >= 4 the Newton polygon.  The minima are lambda_1^2 of the
integer quotient form (and, on P^3, of its adjugate).  On P^2 that form
is |v x y|^2, so `lagrange_gauss` reduces the Gram of a closed-form basis
of the plane lattice y^perp meet Z^3 (`_pn_minima`), with no unimodular
completion.  `lattice.int_min_norm2` gives the rank-3 ones from the
lattice layer's LLL and Fincke-Pohst walk, so this module runs no
short-vector search of its own.  `pn_freeness_data` assembles
the same minima as exact `LogLin`s, and `freeness(tangent_lattice_pn(p))`
is the generic slope route on the tangent Gram.  The returned l is a
float, rounded through n * mu / h: a point whose exact l equals a
threshold t may come out on either side of t.  `freeness_sweep` audits
whole balls with its own float assembly of the same minima.

On every P^n `freeness_statistics`, and on P^2 and P^3 `freeness_sweep`,
pay once per orbit of the signed permutations, not once per point.  Such
a permutation is an isometry of Z^(n+1) that preserves the sup and
euclid balls and carries the tangent lattice and the quotient form of y
to those of its image.  So m = |y|^2, lam2 and lam2_adj are orbit
invariants, and so are the exact minimal covolumes that the Newton
polygon reads for n >= 4; `point_freeness` and the sweep's assembly are
functions of these alone, so every float is the same on the whole
orbit.  Each orbit is visited at its sorted representative
0 <= y_0 <= ... <= y_n and counts with weight (n+1)!/prod(mult!) *
2^#nonzero / 2, its number of projective points.

On (P^1)^n l = n min log m_i / sum log m_i reads only the factor norms
m_i = a_i^2 + b_i^2, and the height window reads only the factor shell
values.  `freeness_statistics` therefore groups each factor's P^1 points
into classes, one per (shell value, norm) pair, and pays once per tuple
of classes (`counting._capped_tuples`, the walk that also lists the
points), weighted by the product of the class sizes; the overlay of
`zoomlab` reads one norm per distinct factor.  Both call the same kernel
`_p1n_freeness` as `point_freeness`.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .counting import (_capped_tuples, _pn_coords, _pn_orbits, _shell_spec, _shell_value,
                       bounded_window)
from .exactnum import Frozen, LogLin, int_adjugate
from .lattice import EucLattice, degree, int_min_norm2, lagrange_gauss, newton_polygon
from .projpoint import Metric, PrimPoint, VarietyId


# ---------------------------------------------------------------------------
# integral linear algebra for the tangent construction


def _xgcd(a: int, b: int) -> tuple:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def unimodular_completion(y: Sequence[int]) -> list:
    """Rows of a GL_{n+1}(Z) matrix whose first row is the primitive y.

    Column operations send y to e_0; the tracked inverse has y as its top
    row and the remaining rows descend to a basis of Z^(n+1)/Zy.
    """
    y = [int(c) for c in y]
    n1 = len(y)
    c = list(y)
    w = [[1 if i == j else 0 for j in range(n1)] for i in range(n1)]
    for k in range(1, n1):
        a, b = c[0], c[k]
        if b == 0:
            continue
        g, u, v = _xgcd(a, b)
        aa, bb = a // g, b // g
        c[0], c[k] = g, 0
        r0 = [aa * x0 + bb * xk for x0, xk in zip(w[0], w[k])]
        rk = [-v * x0 + u * xk for x0, xk in zip(w[0], w[k])]
        w[0], w[k] = r0, rk
    if c[0] == -1:
        c[0] = 1
        w[0] = [-x for x in w[0]]
    if c[0] != 1:
        raise ValueError("vector is not primitive")
    assert w[0] == y
    return w


def _quotient_int_gram(y: Sequence[int]) -> tuple:
    """(Gq, m): integer Gram of m * (orthogonal projection of Z^(n+1)/Zy),
    where m = <y, y>.  The quotient metric Gram is Gq/m; det Gq = m^(n-1) m."""
    w = unimodular_completion(y)
    basis = w[1:]
    m = sum(c * c for c in y)
    dots = [sum(a * b for a, b in zip(bi, y)) for bi in basis]
    gq = [[m * sum(a * b for a, b in zip(basis[i], basis[j])) - dots[i] * dots[j]
           for j in range(len(basis))] for i in range(len(basis))]
    return gq, m


# ---------------------------------------------------------------------------
# certified integer minima (rank 2 by `lagrange_gauss`, rank 3 by the
# lattice layer's LLL and Fincke-Pohst walk)


def _pn_minima(y: Sequence[int]) -> tuple:
    """(m, lam2, lam2_adj) for a primitive y of length 3 or 4: m = <y, y>,
    lam2 = lambda_1^2 of the integer quotient form Gq, lam2_adj that of its
    adjugate (None on P^2).

    On P^2 no completion is built.  Gq(v) = m<v, v> - <v, y>^2 = |v x y|^2,
    and v -> v x y maps Z^3 onto y^perp meet Z^3, so lam2 is lambda_1^2 of
    that plane lattice.  For y = (a, b, c) with g = gcd(a, b) = s a + t b,
    u = (b/g, -a/g, 0) and w = (s c, t c, -g) lie in it and u x w = y:
    their parallelogram has area |y|, the covolume of the plane lattice, so
    they are a basis, and `lagrange_gauss` reduces their Gram.
    """
    if len(y) == 3:
        a, b, c = y
        m = a * a + b * b + c * c
        g, s, t = _xgcd(a, b)
        if g == 0:  # y = (0, 0, +-1): the plane lattice is Z^2
            return m, 1, None
        uu = (a * a + b * b) // (g * g)
        uw = c * (b * s - a * t) // g
        ww = (s * s + t * t) * c * c + g * g
        return m, lagrange_gauss(((uu, uw), (uw, ww)))[0], None
    gq, m = _quotient_int_gram(y)
    return m, int_min_norm2(gq), int_min_norm2(int_adjugate(gq))


# ---------------------------------------------------------------------------
# tangent lattices


class TangentLattice(Frozen):
    """Tangent space T_P of P^n as a euclidean lattice; degree = log-height."""

    point: PrimPoint
    lattice: EucLattice
    h: LogLin


def tangent_lattice_pn(p: PrimPoint) -> TangentLattice:
    """Tangent lattice D^v (x) E/D at [y], Gram = (projection Gram)/<y,y>."""
    gq, m = _quotient_int_gram(p.coords)
    lat = EucLattice(tuple(tuple(Fraction(x, m * m) for x in row) for row in gq))
    h = degree(lat)
    assert h == LogLin.from_log(m ** (p.n + 1), Fraction(1, 2))
    return TangentLattice(point=p, lattice=lat, h=h)


class FreenessReport(Frozen):
    slopes: tuple      # LogLin, non-increasing
    h: LogLin
    mu_min: LogLin
    l: float


def _l_value(n: int, mu_min: LogLin, h: LogLin) -> float:
    if h.sign() <= 0 or mu_min.sign() <= 0:
        return 0.0
    return min(1.0, n * mu_min.to_float() / h.to_float())


def freeness(t: TangentLattice) -> FreenessReport:
    """Generic route: Newton polygon of the tangent lattice."""
    poly = newton_polygon(t.lattice)
    mu = poly.slopes[-1]
    return FreenessReport(slopes=poly.slopes, h=t.h, mu_min=mu,
                          l=_l_value(t.lattice.rank, mu, t.h))


# ---------------------------------------------------------------------------
# exact LogLin assembly of the integer minima (oracle)


class PnFreeness(Frozen):
    """Exact freeness data for one point of P^2 or P^3, the test oracle of
    `point_freeness`.

    lam2 is lambda_1^2 of the integer quotient form Gq (det m^(n-1)),
    lam2_adj its adjugate's (rank 3 only).  mu_closed and mu_generic are
    the two exact assemblies; they must agree, and the lower bound
    l >= n/(n+1) amounts to lam2 >= 1 and lam2_adj >= m.
    """

    point: PrimPoint
    n: int
    m: int
    lam2: int
    lam2_adj: int | None
    h: LogLin
    mu_closed: LogLin
    mu_generic: LogLin
    l: float


def pn_freeness_data(p: PrimPoint) -> PnFreeness:
    n = p.n
    if n not in (2, 3):
        raise ValueError("fast path covers P^2 and P^3")
    m, lam2, lam2_adj = _pn_minima(p.coords)
    if n == 2:
        maxdeg_quot = [LogLin.zero(), LogLin.from_log(Fraction(m, lam2), Fraction(1, 2))]
        maxdeg_tan = [LogLin.zero(), LogLin.from_log(Fraction(m * m, lam2), Fraction(1, 2))]
    else:
        maxdeg_quot = [
            LogLin.zero(),
            LogLin.from_log(Fraction(m, lam2), Fraction(1, 2)),
            LogLin.from_log(Fraction(m * m, lam2_adj), Fraction(1, 2)),
        ]
        maxdeg_tan = [
            LogLin.zero(),
            LogLin.from_log(Fraction(m * m, lam2), Fraction(1, 2)),
            LogLin.from_log(Fraction(m ** 4, lam2_adj), Fraction(1, 2)),
        ]
    logy = LogLin.from_log(m, Fraction(1, 2))
    mu_closed = None
    for k in range(n):
        term = logy + (logy - maxdeg_quot[k]).scale(Fraction(1, n - k))
        if mu_closed is None or term < mu_closed:
            mu_closed = term
    deg_tan = logy.scale(n + 1)
    mu_generic = None
    for k in range(n):
        term = (deg_tan - maxdeg_tan[k]).scale(Fraction(1, n - k))
        if mu_generic is None or term < mu_generic:
            mu_generic = term
    h = LogLin.from_log(m ** (n + 1), Fraction(1, 2))
    return PnFreeness(point=p, n=n, m=m, lam2=lam2, lam2_adj=lam2_adj, h=h,
                      mu_closed=mu_closed, mu_generic=mu_generic,
                      l=_l_value(n, mu_generic, h))


# ---------------------------------------------------------------------------
# products of lines


def freeness_product(points: Sequence[PrimPoint]) -> float:
    """l of a point of (P^1)^n: n min h_i / sum h_i, heights euclid."""
    pts = list(points)
    if not pts or any(p.n != 1 for p in pts):
        raise ValueError("expected a tuple of P^1 points")
    return _p1n_freeness(_factor_norms(pts))[2]


def _factor_norms(points: Sequence[PrimPoint]) -> list:
    return [sum(c * c for c in p.coords) for p in points]


def _p1n_freeness(norms: Sequence[int]) -> tuple:
    """(h, mu_min, l) of a point of (P^1)^n from its factor norms
    m_i = a_i^2 + b_i^2 alone, through h_i = (1/2) log m_i."""
    logs = [math.log(m) / 2 for m in norms]
    return 2 * sum(logs), 2 * min(logs), _p1n_l(logs)


def _p1n_l(logs: Sequence[float]) -> float:
    """l of a point of (P^1)^n from the half-logs h_i of its factor norms:
    n min h_i / sum h_i, or 0 when some factor is a unit point, whose
    half-log is exactly 0."""
    low = min(logs)
    return 0.0 if low == 0 else len(logs) * low / sum(logs)


# ---------------------------------------------------------------------------
# the freeness kernel


# mu_k = c_m log m + c_a log(m^(2k) / L_k) is the generic tangent term
# (deg T - maxdeg_k T)/(n - k), with deg T = ((n+1)/2) log m, maxdeg_k T =
# (1/2) log(m^(2k) / L_k), L_1 = lam2 and L_2 = lam2_adj.  Per k this holds
# (c_m, c_a, c_m + c_a); the sum is the coefficient once the two logarithms
# merge (m^(2k) / L_k == m).
_TERM_FLOATS = {n: tuple(((n + 1) / (2 * (n - k)), -1 / (2 * (n - k)), n / (2 * (n - k)))
                         for k in range(n))
                for n in (2, 3)}


def _term_float(n: int, k: int, m: int, big_l: int) -> float:
    """mu_k as `LogLin.to_float` rounds it: arguments equal to 1 dropped,
    equal arguments merged, log of a reduced fraction as log num - log den."""
    cm, ca, merged = _TERM_FLOATS[n][k]
    if k == 0:
        return cm * math.log(m)
    num, den = m ** (2 * k), big_l
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if num == den:
        return cm * math.log(m)
    if den == 1 and num == m:
        return merged * math.log(m)
    return cm * math.log(m) + ca * (math.log(num) - math.log(den))


def point_freeness(v: VarietyId, point) -> tuple:
    """(h, mu_min, l) as floats for a point of P^n (a PrimPoint) or of
    (P^1)^n (a tuple of PrimPoints); h is the euclid anticanonical
    log-height.

    On P^2 and P^3 the minimal term of mu_min is chosen exactly, ties
    keeping the lower k: on P^2, k = 1 wins iff lam2^2 < m; on P^3, k = 1
    beats k = 0 iff lam2^3 < m^2, k = 2 beats k = 0 iff lam2_adj^3 < m^4
    and beats k = 1 iff lam2_adj^2 < m^2 lam2.  The float values equal
    those of `pn_freeness_data` bit for bit.
    """
    if v.kind == "p1n":
        return _p1n_freeness(_factor_norms(point))
    if v.kind != "pn":
        raise ValueError("freeness covers P^n and (P^1)^n")
    return _pn_freeness(v.n, point.coords)


def _pn_freeness(n: int, y: Sequence[int]) -> tuple:
    """`point_freeness` of the point of P^n with primitive coordinates y,
    first nonzero one positive; only n >= 4 builds a `PrimPoint`, for the
    tangent lattice."""
    if n >= 4:
        t = tangent_lattice_pn(PrimPoint(y))
        r = freeness(t)
        # float(): at a unit point both are LogLin's zero, whose to_float is 0
        return float(t.h.to_float()), float(r.mu_min.to_float()), r.l
    m = sum(c * c for c in y)
    h = 0.5 * math.log(m ** (n + 1))
    if m == 1:
        return h, 0.0, 0.0
    if n == 1:
        return h, h, 1.0
    _, lam2, lam2_adj = _pn_minima(y)
    if n == 2:
        k = 1 if lam2 * lam2 < m else 0
    else:
        k = 1 if lam2 ** 3 < m * m else 0
        if (lam2_adj ** 2 < m * m * lam2) if k else (lam2_adj ** 3 < m ** 4):
            k = 2
    mu = _term_float(n, k, m, lam2 if k == 1 else lam2_adj)
    # mu_0 and mu_1 are positive once m > 1; mu_2 = (1/2) log lam2_adj
    if k == 2 and lam2_adj <= 1:
        return h, mu, 0.0
    return h, mu, min(1.0, n * mu / h)


# ---------------------------------------------------------------------------
# statistics over height windows


class FreenessStats(Frozen):
    total: int
    threshold_counts: dict  # threshold -> #points with l < threshold
    histogram: tuple        # bin counts of l over [0, 1]
    bins: int


def _p1n_classes(v: VarietyId, bound, metric: Metric) -> Iterator[tuple]:
    """(norms, weight) over the tuples of factor classes of the (P^1)^n
    window: a class is a (shell value, euclid norm) pair, norms holds one
    norm per factor, and weight is the number of window points whose
    factors lie in those classes, the product of the class sizes."""
    shells, joint = _shell_spec(bounded_window(v, bound, metric))
    # a bounded window gives every factor the same shell interval
    sizes = Counter((_shell_value(x, metric), sum(c * c for c in x))
                    for x in _pn_coords(1, *shells[0], metric))
    classes = [((m, size), s) for (s, m), size in sorted(sizes.items())]
    for t in _capped_tuples([classes] * v.n, joint):
        norms, counts = zip(*t)
        yield norms, math.prod(counts)


def freeness_statistics(v: VarietyId, bound, metric: Metric = Metric.SUP,
                        thresholds: Sequence[float] = (), bins: int = 20) -> FreenessStats:
    """Threshold counts and histogram of l over the height-bound window.

    Every statistic is a weighted sum.  On P^n l is read once per
    signed-permutation orbit, weighted by its size (see the module
    docstring).  On (P^1)^n it is read once per tuple of factor classes,
    weighted by the number of points in it: l depends only on the factor
    norms and the window only on the factor shells, so every point of a
    tuple has the same l and the same membership.
    """
    if v.kind not in ("pn", "p1n"):
        raise ValueError("freeness statistics cover P^n and (P^1)^n")
    if v.kind == "pn":
        weighted = ((_pn_freeness(v.n, y)[2], w)
                    for y, w in _pn_orbits(v.n, bound, metric))
    else:
        weighted = ((_p1n_freeness(norms)[2], w)
                    for norms, w in _p1n_classes(v, bound, metric))
    thr = list(thresholds)
    counts = {t: 0 for t in thr}
    hist = [0] * bins
    total = 0
    for l, w in weighted:
        total += w
        for t in thr:
            if l < t:
                counts[t] += w
        hist[min(bins - 1, int(l * bins))] += w
    return FreenessStats(total=total, threshold_counts=counts,
                         histogram=tuple(hist), bins=bins)


def _term_coeffs_closed(n: int) -> tuple:
    """Per-k coefficients of (log m, log lam2, log lam2_adj) in the closed
    form mu = log|y| + (log|y| - maxdeg_k(E/D))/(n - k), using
    maxdeg_1 = (1/2) log(m/lam2) and maxdeg_2 = (1/2) log(m^2/lam2_adj)."""
    logy = (Fraction(1, 2), Fraction(0), Fraction(0))
    maxdeg = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(-1, 2), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(-1, 2)),
    ]
    out = []
    for k in range(n):
        c = tuple(ly + (ly - md) / (n - k) for ly, md in zip(logy, maxdeg[k]))
        out.append(c)
    return tuple(out)


def _term_coeffs_generic(n: int) -> tuple:
    """Per-k coefficients in mu_min = min_k (deg T - maxdeg_k(T))/(n - k) on
    the tangent lattice T = (E/D) (x) D^v, where deg T = (n+1) log|y|,
    maxdeg_1(T) = (1/2) log(m^2/lam2), maxdeg_2(T) = (1/2) log(m^4/lam2_adj)."""
    deg = (Fraction(n + 1, 2), Fraction(0), Fraction(0))
    maxdeg = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(-1, 2), Fraction(0)),
        (Fraction(2), Fraction(0), Fraction(-1, 2)),
    ]
    out = []
    for k in range(n):
        c = tuple((d - md) / (n - k) for d, md in zip(deg, maxdeg[k]))
        out.append(c)
    return tuple(out)


# the one dataclass left: perfbench/worker.py serializes it with
# dataclasses.asdict
@dataclass(frozen=True)
class SweepResult:
    """Exhaustive freeness audit of a sup-height ball in P^n.

    Only `bound_holds` is decided exactly; `min_l` and `below_counts` read
    the float l = n mu / h, so a point with l exactly at a threshold can
    land on either side of it.
    """

    n: int
    bound: int
    total: int
    bound_holds: bool           # l >= n/(n+1) via integer minima, every point
    coeffs_match: bool          # closed-form and generic term coefficients
    min_l: float
    below_counts: dict          # threshold -> count of l < threshold


def freeness_sweep(n: int, bound: int, thresholds: Sequence[float] = ()) -> SweepResult:
    """Audit every point of P^n (sup-height <= bound), n in {2, 3}.

    Per point: certified lambda_1^2 of the integer quotient form (and of
    its adjugate for n = 3); the bound l >= n/(n+1) amounts to lam2 >= 1
    and lam2_adj >= m, checked in exact integer arithmetic; that verdict
    (`bound_holds`) is the only exact one.  `min_l` and the threshold
    counts use the float l = n mu / h, so at a tie l = t the count can be
    wrong.  The closed and generic assemblies share these minima; their
    coefficient lists are compared exactly once (they are
    point-independent), and the machinery-level equality is covered by
    tests on subsamples.

    A signed permutation of coordinates is an isometry of Z^(n+1) that
    maps the sup ball to itself, so it carries the quotient form of y to
    that of its image: m, lam2 and lam2_adj, hence l and every per-point
    quantity here, are constant on orbits.  The sweep visits each orbit
    once, at its sorted representative 0 <= y_0 <= ... <= y_n, and weights
    it by its number of projective points (n+1)!/prod(mult!) *
    2^#nonzero / 2 (`counting._pn_orbits`).  `tests/freeness_reference.py`
    keeps the per-point loop as the oracle.
    """
    if n not in (2, 3):
        raise ValueError("sweep covers P^2 and P^3")
    cc, cg = _term_coeffs_closed(n), _term_coeffs_generic(n)
    coeffs_match = cc == cg
    thr = sorted(thresholds)
    below = {t: 0 for t in thr}
    total = 0
    holds = True
    min_l = 1.0
    for y, w in _pn_orbits(n, bound, Metric.SUP):
        total += w
        m, lam2, lam2_adj = _pn_minima(y)
        if m == 1:
            min_l = 0.0
            for t in thr:
                below[t] += w
            continue
        if n == 2:
            if lam2 < 1:
                holds = False
            logs = (math.log(m), math.log(lam2), 0.0)
        else:
            if lam2 < 1 or lam2_adj < m:
                holds = False
            logs = (math.log(m), math.log(lam2), math.log(lam2_adj))
        mu = min(sum(float(a) * v for a, v in zip(c, logs)) for c in cg)
        h = (n + 1) / 2 * logs[0]
        l = 0.0 if mu <= 0 else min(1.0, n * mu / h)
        if l < min_l:
            min_l = l
        for t in thr:
            if l < t:
                below[t] += w
    return SweepResult(n=n, bound=bound, total=total, bound_holds=holds,
                       coeffs_match=coeffs_match, min_l=min_l, below_counts=below)
