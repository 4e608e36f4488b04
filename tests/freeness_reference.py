"""Per-point reference routes for the orbit-weighted freeness statistics.

`freeness_sweep` and `freeness_statistics` on P^n (n <= 3) visit one
sorted representative per signed-permutation orbit and weight it by the
orbit size.  The loops here visit every point of the ball instead: slow,
but with nothing to argue.  The tests compare both results with ==.
"""

import math

from heightlab.counting import _iter_coords
from heightlab.freeness import (
    FreenessStats,
    SweepResult,
    _pn_minima,
    _term_coeffs_closed,
    _term_coeffs_generic,
    freeness_rows,
)


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
