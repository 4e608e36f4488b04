"""Reference routes for the freeness kernel, kept out of the package.

`freeness_sweep` (P^2, P^3) and `freeness_statistics` on P^n visit one
sorted representative per signed-permutation orbit and weight it by the
orbit size, and on (P^1)^n the statistics visit one tuple of factor
classes.  The loops here (`freeness_rows`) visit every point of the
ball instead: slow, but with nothing to argue.  The tests compare both
results with ==.

`_min3` is an independent certified lambda_1^2 of a 3x3 integer form (a
greedy pair reduction, then a box scan), with `_adj3` the 3x3 adjugate
written out; the P^3 kernel reads its minima from the lattice layer, and
the tests hold it to these.  `closed_form_mu` and `freeness_pn_closed`
give mu_min and l through the subspace formula on the quotient lattice;
`product_tangent_lattice` and `freeness_surface_tau` are the direct-sum
and the tau routes for (P^1)^2.  Last comes the diagonal metric change
of the tangent lattice.
"""

import math
from fractions import Fraction
from typing import Iterator, Sequence

from heightlab.counting import _iter_coords, bounded_window, enum_points
from heightlab.exactnum import LogLin
from heightlab.freeness import (
    FreenessStats,
    SweepResult,
    TangentLattice,
    _l_value,
    _pn_minima,
    _quotient_int_gram,
    _term_coeffs_closed,
    _term_coeffs_generic,
    freeness,
    point_freeness,
    tangent_lattice_pn,
    unimodular_completion,
)
from heightlab.lattice import EucLattice, degree, max_deg_rank, tau_invariant
from heightlab.projpoint import Metric, PrimPoint, VarietyId


class UndefinedHeight(ValueError):
    """Raised where a formula needs h > 0 but the point has height zero."""


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
        d = LogLin.zero() if k == 0 else max_deg_rank(q, k)
        term = (logy - d).scale(Fraction(1, n - k))
        if best is None or term < best:
            best = term
    return logy + best


def freeness_pn_closed(p: PrimPoint) -> float:
    """Closed form l = n/(n+1) + min_F (-n deg F)/(codim F * h)."""
    m = sum(c * c for c in p.coords)
    if m == 1:
        raise UndefinedHeight("closed form needs h > 0")
    h = LogLin.from_log(m ** (p.n + 1), Fraction(1, 2))
    return _l_value(p.n, closed_form_mu(p), h)



def product_tangent_lattice(points: Sequence[PrimPoint]) -> TangentLattice:
    """Direct sum of the factor tangent lattices (block diagonal Gram)."""
    pts = tuple(points)
    blocks = [tangent_lattice_pn(p) for p in pts]
    n = len(pts)
    gram = [[Fraction(0)] * n for _ in range(n)]
    h = LogLin.zero()
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
    if t.lattice.rank != 2:
        raise ValueError("surface formula needs a rank-2 tangent lattice")
    if t.h.sign() <= 0:
        return 0.0
    tau = tau_invariant(t.lattice)
    if tau.y2 <= 1:
        return 1.0
    val = 1 - math.log(float(tau.y2)) / 2 / t.h.to_float()
    return max(0.0, val)


def reference_sweep(n: int, bound: int, thresholds=()) -> SweepResult:
    """`freeness_sweep` with one step per point of the sup ball."""
    cc, cg = _term_coeffs_closed(n), _term_coeffs_generic(n)
    thr = sorted(thresholds)
    below = {t: 0 for t in thr}
    total = 0
    holds = True
    min_l = 1.0
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
                       coeffs_match=cc == cg, min_l=min_l, below_counts=below)


def freeness_rows(v: VarietyId, bound, metric: Metric = Metric.SUP) -> Iterator[tuple]:
    """(point, h, mu_min, l) over the height-bound window, euclid slopes.

    The window metric only selects points; the slope theory stays euclid.
    """
    if v.kind not in ("pn", "p1n"):
        raise ValueError("freeness statistics cover P^n and (P^1)^n")
    for p in enum_points(bounded_window(v, bound, metric)):
        yield (p, *point_freeness(v, p))


def reference_statistics(v, bound, metric, thresholds=(), bins=20) -> FreenessStats:
    """`freeness_statistics` as a plain sum over `freeness_rows`."""
    counts = {t: 0 for t in thresholds}
    hist = [0] * bins
    total = 0
    for _, _, _, l in freeness_rows(v, bound, metric):
        total += 1
        for t in thresholds:
            if l < t:
                counts[t] += 1
        hist[min(bins - 1, int(l * bins))] += 1
    return FreenessStats(total=total, threshold_counts=counts,
                         histogram=tuple(hist), bins=bins)


def weighted_tangent_lattice(p, weights) -> TangentLattice:
    """The tangent lattice of `tangent_lattice_pn` with the inner product
    sum d_i x_i y_i in place of the standard one (a diagonal metric
    change); the degree comes from the exact determinant."""
    y = p.coords
    d = [Fraction(x) for x in weights]
    if len(d) != p.n + 1 or any(x <= 0 for x in d):
        raise ValueError("weights must be n+1 positive rationals")
    basis = unimodular_completion(y)[1:]
    m = sum(di * c * c for di, c in zip(d, y))
    dots = [sum(di * a * b for di, a, b in zip(d, bi, y)) for bi in basis]
    gram = tuple(
        tuple((sum(di * a * b for di, a, b in zip(d, bi, bj))
               - dots[i] * dots[j] / m) / m for j, bj in enumerate(basis))
        for i, bi in enumerate(basis))
    lat = EucLattice(gram)
    return TangentLattice(point=p, lattice=lat, h=degree(lat))


def metric_change_rows(n: int, bound, weights) -> list:
    """(h, l, l_weighted) over P^n points, the second metric a diagonal
    rescaling; |l - l_weighted| * h stays bounded (slope shift is O(1))."""
    out = []
    for p in enum_points(bounded_window(VarietyId("pn", n), bound, Metric.SUP)):
        r0 = freeness(tangent_lattice_pn(p))
        r1 = freeness(weighted_tangent_lattice(p, weights))
        out.append((r0.h.to_float(), r0.l, r1.l))
    return out
