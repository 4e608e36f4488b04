"""Per-point reference routes for the orbit-weighted freeness statistics,
and the diagonal metric change of the tangent lattice.

`freeness_sweep` and `freeness_statistics` on P^n (n <= 3) visit one
sorted representative per signed-permutation orbit and weight it by the
orbit size.  The loops here visit every point of the ball instead: slow,
but with nothing to argue.  The tests compare both results with ==.
"""

import math
from fractions import Fraction

from heightlab.counting import _iter_coords, bounded_window, enum_points
from heightlab.freeness import (
    FreenessStats,
    SweepResult,
    TangentLattice,
    _pn_minima,
    _term_coeffs_closed,
    _term_coeffs_generic,
    freeness,
    freeness_rows,
    tangent_lattice_pn,
    unimodular_completion,
)
from heightlab.lattice import EucLattice, degree
from heightlab.projpoint import Metric, VarietyId


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
