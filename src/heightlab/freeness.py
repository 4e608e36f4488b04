"""Freeness of rational points via tangent-lattice slopes.

The tangent space at a point P = [y] of P^n carries the lattice
Hom(D, E/D) = D^v (x) E/D, with D = Zy inside E = Z^(n+1) and the metric
induced from the euclidean one (slope theory needs a classical adelic
norm, so the euclid metric is used throughout; windows may still be cut
by sup-height).  Its degree equals the anticanonical log-height
(n+1) log|y|, and the freeness invariant is

    l(P) = n mu_min / h   if mu_min > 0 and h > 0, else 0,

which lands in [0, 1] because mu_min is at most the average slope.

One kernel, `point_freeness`, computes (h, mu_min, l) for every caller.
On P^2 and P^3 it takes the integer minima of the quotient form, picks
the minimal slope term by exact integer power comparisons, and rounds
that single term to a float; P^1 and (P^1)^n use their closed forms and
P^n with n >= 4 the Newton polygon.  Two slower routes stay as test
oracles: the generic slope machinery on the tangent Gram
(`freeness(tangent_lattice_pn(p))`), and the closed form minimizing over
intermediate subspaces D <= F < E (`closed_form_mu`, and
`pn_freeness_data`, which assembles both as exact `LogLin`s).  All agree
exactly on mu_min.  The returned l is a float, rounded through
n * mu / h: a point whose exact l equals a threshold t may come out on
either side of t.  `freeness_sweep` audits whole balls with its own
float assembly of the same minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactnum import LogLin, LogRat
from .lattice import EucLattice, degree, max_deg_rank, newton_polygon
from .projpoint import Metric, PrimPoint, VarietyId


class UndefinedHeight(ValueError):
    """Raised where a formula needs h > 0 but the point has height zero."""


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
# fast certified integer minima (ranks 2 and 3)


def _min2(a: int, b: int, c: int) -> int:
    """lambda_1^2 of the integer form [[a, b], [b, c]] by Lagrange-Gauss."""
    if a > c:
        a, c = c, a
    while True:
        q = (2 * b + a) // (2 * a) if b >= 0 else -((2 * (-b) + a) // (2 * a))
        if q:
            c += q * q * a - 2 * q * b
            b -= q * a
        if c < a:
            a, c = c, a
        else:
            return a


def _adj3(g):
    (a, b, c), (_, d, e), (_, _, f) = (g[0], g[1], g[2])
    return [
        [d * f - e * e, c * e - b * f, b * e - c * d],
        [c * e - b * f, a * f - c * c, b * c - a * e],
        [b * e - c * d, b * c - a * e, a * d - b * b],
    ]


def _min3(g) -> int:
    """lambda_1^2 of an integer PD 3x3 form: greedy pair reduction, then a
    complete box scan with radii from the exact Minkowski-style bound."""
    g = [list(row) for row in g]
    for _ in range(10000):
        changed = False
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                gij, gjj = g[i][j], g[j][j]
                q = (2 * gij + gjj) // (2 * gjj) if gij >= 0 else -((2 * -gij + gjj) // (2 * gjj))
                if q:
                    # row_i <- row_i - q row_j, symmetrically
                    new_ii = g[i][i] - 2 * q * gij + q * q * gjj
                    if new_ii < g[i][i]:
                        changed = True
                    for k in range(3):
                        g[i][k] -= q * g[j][k]
                    for k in range(3):
                        g[k][i] -= q * g[k][j]
        if not changed:
            break
    else:
        raise RuntimeError("reduction did not stabilize")
    adj = _adj3(g)
    det = sum(g[0][k] * adj[k][0] for k in range(3))
    bound = min(g[0][0], g[1][1], g[2][2])
    radii = [math.isqrt(bound * adj[k][k] // det) for k in range(3)]
    best = bound
    for x0 in range(radii[0] + 1):
        for x1 in range(-radii[1], radii[1] + 1):
            if x0 == 0 and x1 < 0:
                continue
            for x2 in range(-radii[2], radii[2] + 1):
                if x0 == 0 and x1 == 0 and x2 <= 0:
                    continue
                q = (g[0][0] * x0 * x0 + g[1][1] * x1 * x1 + g[2][2] * x2 * x2
                     + 2 * (g[0][1] * x0 * x1 + g[0][2] * x0 * x2 + g[1][2] * x1 * x2))
                if q < best:
                    best = q
    return best


def _pn_minima(y: Sequence[int]) -> tuple:
    """(m, lam2, lam2_adj) for a primitive y of length 3 or 4: m = <y, y>,
    lam2 = lambda_1^2 of the integer quotient form Gq, lam2_adj that of its
    adjugate (None on P^2)."""
    gq, m = _quotient_int_gram(y)
    if len(gq) == 2:
        return m, _min2(gq[0][0], gq[0][1], gq[1][1]), None
    return m, _min3(gq), _min3(_adj3(gq))


# ---------------------------------------------------------------------------
# tangent lattices


@dataclass(frozen=True)
class TangentLattice:
    """Tangent space T_P of P^n as a euclidean lattice; degree = log-height."""

    point: PrimPoint
    lattice: EucLattice
    h: LogRat


def tangent_lattice_pn(p: PrimPoint, weights: Sequence | None = None) -> TangentLattice:
    """Tangent lattice D^v (x) E/D at [y], Gram = (projection Gram)/<y,y>.

    `weights` replaces the standard inner product by sum d_i x_i y_i
    (a diagonal metric change); the degree then comes from the exact
    determinant rather than the closed form (n+1) log|y|.
    """
    y = p.coords
    n = p.n
    w = unimodular_completion(y)
    basis = w[1:]
    if weights is None:
        d = [Fraction(1)] * (n + 1)
    else:
        d = [Fraction(x) for x in weights]
        if len(d) != n + 1 or any(x <= 0 for x in d):
            raise ValueError("weights must be n+1 positive rationals")
    m = sum(di * c * c for di, c in zip(d, y))
    dots = [sum(di * a * b for di, a, b in zip(d, bi, y)) for bi in basis]
    gram = tuple(
        tuple((sum(di * a * b for di, a, b in zip(d, basis[i], basis[j]))
               - dots[i] * dots[j] / m) / m for j in range(n))
        for i in range(n))
    lat = EucLattice(gram)
    h = degree(lat)
    if weights is None:
        assert h == LogRat(m) * (n + 1)
    return TangentLattice(point=p, lattice=lat, h=h)


@dataclass(frozen=True)
class FreenessReport:
    slopes: tuple      # LogLin, non-increasing
    h: LogRat
    mu_min: LogLin
    l: float


def _l_value(n: int, mu_min: LogLin, h: LogRat) -> float:
    if h.arg <= 1 or mu_min.sign() <= 0:
        return 0.0
    return min(1.0, n * mu_min.to_float() / h.to_float())


def freeness(t: TangentLattice) -> FreenessReport:
    """Generic route: Newton polygon of the tangent lattice."""
    poly = newton_polygon(t.lattice)
    mu = poly.slopes[-1]
    return FreenessReport(slopes=poly.slopes, h=t.h, mu_min=mu,
                          l=_l_value(t.lattice.rank, mu, t.h))


def quotient_lattice_pn(p: PrimPoint) -> EucLattice:
    """E/D with the projection metric (the untwisted quotient)."""
    gq, m = _quotient_int_gram(p.coords)
    return EucLattice(tuple(tuple(Fraction(x, m) for x in row) for row in gq))


def closed_form_mu(p: PrimPoint) -> LogLin:
    """mu_min via the subspace formula: over D <= F < E of rank k+1,

        mu_min = log|y| + min_k (log|y| - maxdeg_k(E/D)) / (n - k),

    the inner maximum running over saturated rank-k sublattices of the
    quotient, certified by the bounded covolume search."""
    n = p.n
    m = sum(c * c for c in p.coords)
    logy = LogLin.from_log(m, Fraction(1, 2))
    q = quotient_lattice_pn(p) if n > 1 else None
    best = None
    for k in range(0, n):
        d = LogLin.zero() if k == 0 else max_deg_rank(q, k).as_lin()
        term = (logy - d).scale(Fraction(1, n - k))
        if best is None or term < best:
            best = term
    return logy + best


def freeness_pn_closed(p: PrimPoint) -> float:
    """Closed form l = n/(n+1) + min_F (-n deg F)/(codim F * h)."""
    m = sum(c * c for c in p.coords)
    if m == 1:
        raise UndefinedHeight("closed form needs h > 0")
    h = LogRat(m) * (p.n + 1)
    return _l_value(p.n, closed_form_mu(p), h)


# ---------------------------------------------------------------------------
# exact LogLin assembly of the integer minima (oracle)


@dataclass(frozen=True)
class PnFreeness:
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
    h: LogRat
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
    h = LogRat(m) * (n + 1)
    return PnFreeness(point=p, n=n, m=m, lam2=lam2, lam2_adj=lam2_adj, h=h,
                      mu_closed=mu_closed, mu_generic=mu_generic,
                      l=_l_value(n, mu_generic, h))


# ---------------------------------------------------------------------------
# products of lines and the surface shortcut


def freeness_product(points: Sequence[PrimPoint]) -> float:
    """l of a point of (P^1)^n: n min h_i / sum h_i, heights euclid."""
    pts = list(points)
    if not pts or any(p.n != 1 for p in pts):
        raise ValueError("expected a tuple of P^1 points")
    return _p1n_freeness(pts)[2]


def _p1n_freeness(points: Sequence[PrimPoint]) -> tuple:
    args = [sum(c * c for c in p.coords) for p in points]
    logs = [math.log(a) / 2 for a in args]
    l = 0.0 if min(args) == 1 else len(args) * min(logs) / sum(logs)
    return 2 * sum(logs), 2 * min(logs), l


def product_tangent_lattice(points: Sequence[PrimPoint]) -> TangentLattice:
    """Direct sum of the factor tangent lattices (block diagonal Gram)."""
    pts = tuple(points)
    blocks = [tangent_lattice_pn(p) for p in pts]
    n = len(pts)
    gram = [[Fraction(0)] * n for _ in range(n)]
    h = LogRat.zero()
    for i, b in enumerate(blocks):
        gram[i][i] = b.lattice.gram[0][0]
        h = h + b.h
    return TangentLattice(point=pts, lattice=EucLattice(tuple(tuple(r) for r in gram)), h=h)


def freeness_surface_tau(t: TangentLattice) -> float:
    """Surface shortcut: l = 1 if Im tau <= 1, else max(0, 1 - log(Im tau)/h).

    Equivalent to the generic value: log Im tau = 2 mu_1 - h, so
    1 - log(Im tau)/h = 2 mu_2 / h.  The branch condition is taken on
    log(Im tau) < h; the literal reading Im tau < h would allow negative
    values, so the log form is used.
    """
    from .lattice import tau_invariant

    if t.lattice.rank != 2:
        raise ValueError("surface formula needs a rank-2 tangent lattice")
    if t.h.arg <= 1:
        return 0.0
    tau = tau_invariant(t.lattice)
    if tau.y2 <= 1:
        return 1.0
    val = 1 - math.log(float(tau.y2)) / 2 / t.h.to_float()
    return max(0.0, val)


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
        return _p1n_freeness(point)
    if v.kind != "pn":
        raise ValueError("freeness covers P^n and (P^1)^n")
    n = v.n
    if n >= 4:
        t = tangent_lattice_pn(point)
        r = freeness(t)
        return t.h.to_float(), r.mu_min.to_float(), r.l
    m = sum(c * c for c in point.coords)
    h = 0.5 * math.log(m ** (n + 1))
    if m == 1:
        return h, 0.0, 0.0
    if n == 1:
        return h, h, 1.0
    _, lam2, lam2_adj = _pn_minima(point.coords)
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


@dataclass(frozen=True)
class FreenessStats:
    total: int
    threshold_counts: dict  # threshold -> #points with l < threshold
    histogram: tuple        # bin counts of l over [0, 1]
    bins: int


def freeness_rows(v: VarietyId, bound, metric: Metric = Metric.SUP) -> Iterator[tuple]:
    """(point, h, mu_min, l) over the height-bound window, euclid slopes.

    The window metric only selects points; the slope theory stays euclid.
    """
    from .counting import bounded_window, enum_points

    if v.kind not in ("pn", "p1n"):
        raise ValueError("freeness statistics cover P^n and (P^1)^n")
    for p in enum_points(bounded_window(v, bound, metric)):
        yield (p, *point_freeness(v, p))


def freeness_statistics(v: VarietyId, bound, metric: Metric = Metric.SUP,
                        thresholds: Sequence[float] = (), bins: int = 20) -> FreenessStats:
    thr = list(thresholds)
    counts = {t: 0 for t in thr}
    hist = [0] * bins
    total = 0
    for _, _, _, l in freeness_rows(v, bound, metric):
        total += 1
        for t in thr:
            if l < t:
                counts[t] += 1
        hist[min(bins - 1, int(l * bins))] += 1
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


@dataclass(frozen=True)
class SweepResult:
    """Exhaustive exact freeness audit of a sup-height ball in P^n."""

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
    and lam2_adj >= m, checked in exact integer arithmetic.  The closed
    and generic assemblies share these minima; their coefficient lists
    are compared exactly once (they are point-independent), and the
    machinery-level equality is covered by tests on subsamples.
    """
    from .counting import _iter_coords

    if n not in (2, 3):
        raise ValueError("sweep covers P^2 and P^3")
    cc, cg = _term_coeffs_closed(n), _term_coeffs_generic(n)
    coeffs_match = cc == cg
    thr = sorted(thresholds)
    below = {t: 0 for t in thr}
    total = 0
    holds = True
    min_l = 1.0
    ratio = n / (n + 1)
    for y in _iter_coords(n + 1, bound):
        total += 1
        m, lam2, lam2_adj = _pn_minima(y)
        if m == 1:
            min_l = 0.0
            for t in thr:
                below[t] += 1
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
                below[t] += 1
    return SweepResult(n=n, bound=bound, total=total, bound_holds=holds,
                       coeffs_match=coeffs_match, min_l=min_l, below_counts=below)


def metric_change_rows(n: int, bound, weights: Sequence) -> list:
    """(h, l, l_weighted) over P^n points, the second metric a diagonal
    rescaling; |l - l_weighted| * h stays bounded (slope shift is O(1))."""
    from .counting import bounded_window, enum_points

    out = []
    v_id = VarietyId("pn", n)
    for p in enum_points(bounded_window(v_id, bound, Metric.SUP)):
        t0 = tangent_lattice_pn(p)
        r0 = freeness(t0)
        t1 = tangent_lattice_pn(p, weights)
        r1 = freeness(t1)
        out.append((r0.h.to_float(), r0.l, r1.l))
    return out
