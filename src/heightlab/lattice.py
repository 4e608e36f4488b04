"""Euclidean lattices with exact rational Gram matrices.

The central computation is the degree profile d(i) = max over rank-i
primitive sublattices of -log covol, its concave hull (the Newton polygon)
and the slope vector.  Everything is exact: covolumes squared are rational,
so degrees are `LogRat` values and hull ordinates are `LogLin` combinations.

Searches are certified.  Shortest vectors come from a full scan of an
integer coordinate box that provably contains every vector below the bound
(the box radii use the adjugate of the Gram matrix, after LLL reduction to
keep them small).  Intermediate-rank minimal covolumes enumerate all vectors
below a Minkowski-type bound and take the best saturated span; ranks r-1 and
r reduce to the dual and the determinant.  The rank cap is 6.

Each integer Gram is LLL-reduced once, with exact Gram-Schmidt data updated
incrementally, and the reduction is kept on the lattice: the Newton polygon,
the successive minima and every certified search on that lattice reuse it
(one reduction for the Gram, one for its adjugate).

A rational Gram enters the integer routines of `exactnum` (determinant,
rank, adjugate) as den * gram, with den the common denominator: the
positivity check, the dual lattice and every covolume go through them.
Rank 2 has its own reduction, `lagrange_gauss`, which the P^2 freeness
kernel shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import LogLin, LogRat, int_adjugate, int_det, int_rank

RANK_CAP = 6


class UnsupportedRank(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


@dataclass(frozen=True)
class EucLattice:
    """Free Z-lattice described by a symmetric positive-definite Gram matrix."""

    gram: tuple

    def __post_init__(self):
        g = tuple(tuple(Fraction(x) for x in row) for row in self.gram)
        r = len(g)
        if r == 0 or any(len(row) != r for row in g):
            raise ValueError("gram must be square")
        if r > RANK_CAP:
            raise UnsupportedRank(f"rank {r} exceeds the cap {RANK_CAP}")
        for i in range(r):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", g)
        # leading principal minors must be positive; scaling by den^k keeps
        # the sign of each
        m, _ = _int_gram(self)
        if any(int_det([row[:k] for row in m[:k]]) <= 0 for k in range(1, r + 1)):
            raise NotPositiveDefinite("gram is not positive definite")

    @property
    def rank(self) -> int:
        return len(self.gram)


def lattice_from_basis(rows: Sequence[Sequence]) -> EucLattice:
    """Lattice spanned by the given row vectors with the standard inner product."""
    rows = [list(map(Fraction, r)) for r in rows]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    return EucLattice(tuple(tuple(row) for row in gram))


# ---------------------------------------------------------------------------
# integer Grams


def _matmul_int(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _int_gram(lat: EucLattice):
    """(G, den) with G integral and gram = G / den."""
    den = 1
    for row in lat.gram:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    g = [[int(x * den) for x in row] for row in lat.gram]
    return g, den


# ---------------------------------------------------------------------------
# reduction and certified vector enumeration (integer Gram matrices)


def _gram_of_transform(u, g):
    return _matmul_int(_matmul_int(u, g), [list(r) for r in zip(*u)])


def _lll_transform(g, delta=Fraction(99, 100)):
    """Exact LLL on an integer Gram matrix; returns the unimodular rows U.

    The Gram-Schmidt data (mu, bstar) is computed once and then updated in
    place: a size-reduction step b_k -= q b_j changes only row k of mu, and
    a swap of b_{k-1}, b_k changes bstar[k-1], bstar[k], two rows of mu and
    columns k-1, k below them (Cohen, Algorithm 2.6.3).  All values are
    exact, so every rounding and Lovasz test sees what a from-scratch
    orthogonalisation would give.
    """
    r = len(g)
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    mu = [[Fraction(0)] * r for _ in range(r)]
    bstar = [Fraction(0)] * r
    for i in range(r):
        bstar[i] = Fraction(g[i][i])
        for j in range(i):
            mu[i][j] = (Fraction(g[i][j]) - sum(mu[i][k] * mu[j][k] * bstar[k] for k in range(j))) / bstar[j]
            bstar[i] -= mu[i][j] ** 2 * bstar[j]
    k = 1
    guard = 0
    while k < r:
        guard += 1
        if guard > 10000:
            break  # defensive; reduction quality only affects speed
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mk[j])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                mj = mu[j]
                for l in range(j):
                    mk[l] -= q * mj[l]
                mk[j] -= q
        m = mk[k - 1]
        if bstar[k] >= (delta - m ** 2) * bstar[k - 1]:
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], u[k]
        big = bstar[k] + m ** 2 * bstar[k - 1]
        mk[k - 1] = m * bstar[k - 1] / big
        bstar[k] = bstar[k - 1] * bstar[k] / big
        bstar[k - 1] = big
        for j in range(k - 1):
            mu[k - 1][j], mk[j] = mk[j], mu[k - 1][j]
        for i in range(k + 1, r):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mk[k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return u


@dataclass(frozen=True)
class _Reduction:
    """An integer Gram g after LLL: the rows U, the reduced Gram U g U^T,
    its determinant and its adjugate.  Every search over g starts here."""

    g: list
    u: list
    gg: list
    det: int
    adj: list


def _reduction(lat: EucLattice, dual: bool = False) -> _Reduction:
    """Reduction of the lattice's integer Gram G, or of adj(G) when `dual`.

    Computed on first use and kept on the instance (outside the dataclass
    fields, so equality, hashing and repr ignore it).
    """
    attr = "_dual_reduction" if dual else "_reduction"
    red = lat.__dict__.get(attr)
    if red is None:
        g, _ = _int_gram(lat)
        if dual:
            g = int_adjugate(g)
        u = _lll_transform(g)
        gg = _gram_of_transform(u, g)
        det = int_det(gg)
        if det <= 0:
            raise NotPositiveDefinite("degenerate gram in enumeration")
        red = _Reduction(g, u, gg, det, int_adjugate(gg))
        object.__setattr__(lat, attr, red)
    return red


def _vectors_within(red: _Reduction, bound):
    """All nonzero x in Z^r with x g x^T <= bound, up to sign.

    Scans the integer box |x_i| <= sqrt(bound * adj_ii / det) in reduced
    coordinates; any vector below the bound satisfies these inequalities,
    so the scan is complete.  Sign normalisation keeps the first nonzero
    coordinate positive.
    """
    u, gg, det, adj = red.u, red.gg, red.det, red.adj
    r = len(gg)
    radii = []
    for i in range(r):
        num = bound * adj[i][i]
        radii.append(math.isqrt(num // det) + 1 if num >= 0 else 0)
    out = []
    rng = [range(-rad, rad + 1) for rad in radii]
    # first nonzero coordinate positive: iterate first axis over >= 0 only
    rng[0] = range(0, radii[0] + 1)
    for x in itertools.product(*rng):
        if x[0] == 0:
            lead = next((v for v in x if v != 0), 0)
            if lead <= 0:
                continue
        elif all(v == 0 for v in x):
            continue
        q = 0
        for i in range(r):
            xi = x[i]
            if xi:
                q += gg[i][i] * xi * xi
                for j in range(i):
                    q += 2 * gg[i][j] * xi * x[j]
        if 0 < q <= bound:
            orig = tuple(sum(x[i] * u[i][j] for i in range(r)) for j in range(r))
            for v in orig:
                if v != 0:
                    if v < 0:
                        orig = tuple(-w for w in orig)
                    break
            out.append((q, orig))
    out.sort()
    return out


def _svp_int(red: _Reduction):
    """(min norm^2, witness) of a reduced integer Gram, certified."""
    bound = min(red.gg[i][i] for i in range(len(red.gg)))
    # bound is attained by a basis vector, so the list is nonempty
    return _vectors_within(red, bound)[0]


def _content_of_minors(x_rows):
    """gcd of all maximal minors of an i x r integer matrix."""
    i = len(x_rows)
    r = len(x_rows[0])
    gcd = 0
    for cols in itertools.combinations(range(r), i):
        minor = int_det([[row[c] for c in cols] for row in x_rows])
        gcd = math.gcd(gcd, abs(minor))
        if gcd == 1:
            return 1
    return gcd


def _subset_covol2(g, rows):
    """covol^2 of the saturation of the span of the given coefficient rows."""
    gram = [[sum(rows[a][i] * g[i][j] * rows[b][j] for i in range(len(g)) for j in range(len(g)))
             for b in range(len(rows))] for a in range(len(rows))]
    d = int_det(gram)
    if d == 0:
        return None
    c = _content_of_minors(rows)
    num, den = d, c * c
    return Fraction(num, den)


def _min_covol2_int(lat: EucLattice, i: int) -> Fraction:
    """Minimal covol^2 over rank-i primitive sublattices, for the integer Gram."""
    r = lat.rank
    if i == r:
        g, _ = _int_gram(lat)
        return Fraction(int_det(g))
    if i == 1:
        q, _ = _svp_int(_reduction(lat))
        return Fraction(q)
    if i == r - 1:
        # minimal covol = covol(L) * lambda_1(dual); dual gram is adj/det, so
        # covol^2 = det * (lambda_1^2(adj)/det) = lambda_1^2(adj)
        q, _ = _svp_int(_reduction(lat, dual=True))
        return Fraction(q)
    # 1 < i < r-1 (so r >= 4, i <= 4): search spans of certified short vectors
    red = _reduction(lat)
    g = red.g
    m1, _ = _svp_int(red)
    rows = sorted((red.gg[a][a], red.u[a]) for a in range(r))
    seed = _subset_covol2(g, [rows[k][1] for k in range(i)])
    assert seed is not None
    best = seed
    # Minkowski: prod lambda_j(S)^2 <= gamma_i^i covol(S)^2 and lambda_j(S) >= lambda_1,
    # with gamma_i^i <= (4/3)^(i(i-1)/2); a rank <= 4 lattice has a basis realising
    # its minima, so the optimum is spanned by vectors below this bound.
    c2 = Fraction(4, 3) ** (i * (i - 1) // 2) * best / Fraction(m1) ** (i - 1)
    vecs = _vectors_within(red, math.floor(c2))
    coords = [v for _, v in vecs]
    for combo in itertools.combinations(range(len(coords)), i):
        cv = _subset_covol2(g, [coords[k] for k in combo])
        if cv is not None and cv < best:
            best = cv
    return best


# ---------------------------------------------------------------------------
# public lattice invariants


def degree(lat: EucLattice) -> LogRat:
    """Arakelov-style degree -(1/2) log det(gram)."""
    g, den = _int_gram(lat)
    d = Fraction(int_det(g), den ** lat.rank)
    return LogRat(1 / d)


def max_deg_rank(lat: EucLattice, i: int) -> LogRat:
    """Largest degree of a rank-i primitive sublattice (min covolume)."""
    if not 1 <= i <= lat.rank:
        raise ValueError("need 1 <= i <= rank")
    _, den = _int_gram(lat)
    covol2 = _min_covol2_int(lat, i) / den ** i
    return LogRat(1 / covol2)


@dataclass(frozen=True)
class NewtonPolygon:
    """Degree profile d, concave hull ordinates m, and slope vector."""

    d: tuple       # LogLin, indices 1..r (d[0] corresponds to rank 1)
    m: tuple       # LogLin, indices 0..r, m[0] = 0
    slopes: tuple  # LogLin, length r, non-increasing

    @property
    def rank(self) -> int:
        return len(self.slopes)

    @property
    def is_semistable(self) -> bool:
        """All slopes equal, i.e. the polygon is a straight segment."""
        return self.slopes[0].compare(self.slopes[-1]) == 0


def newton_polygon(lat: EucLattice) -> NewtonPolygon:
    r = lat.rank
    d = [max_deg_rank(lat, i).as_lin() for i in range(1, r + 1)]
    pts = [(0, LogLin.zero())] + [(i + 1, d[i]) for i in range(r)]
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            xc, yc = p
            # pop b when slope(a,b) <= slope(b,c): b is under the chord a-c
            left = (yb - ya) * (xc - xb)
            right = (yc - yb) * (xb - xa)
            if left.compare(right) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    m = [LogLin.zero()] * (r + 1)
    seg = 0
    for i in range(r + 1):
        while hull[seg + 1][0] < i:
            seg += 1
        (xa, ya), (xb, yb) = hull[seg], hull[seg + 1]
        if i == xa:
            m[i] = ya
        elif i == xb:
            m[i] = yb
        else:
            t = Fraction(i - xa, xb - xa)
            m[i] = ya.scale(1 - t) + yb.scale(t)
    slopes = tuple(m[i] - m[i - 1] for i in range(1, r + 1))
    return NewtonPolygon(tuple(d), tuple(m), slopes)


def slopes(lat: EucLattice) -> tuple:
    return newton_polygon(lat).slopes


def min_slope(lat: EucLattice) -> LogLin:
    return newton_polygon(lat).slopes[-1]


def is_semistable(lat: EucLattice) -> bool:
    """All slopes equal, i.e. the polygon is a straight segment."""
    return newton_polygon(lat).is_semistable


def successive_minima(lat: EucLattice) -> tuple:
    """log lambda_i as LogRat values, via certified enumeration."""
    _, den = _int_gram(lat)
    r = lat.rank
    red = _reduction(lat)
    bound = max(red.gg[i][i] for i in range(r))
    vecs = _vectors_within(red, bound)
    norms = []
    chosen: list = []
    for q, x in vecs:
        if int_rank(chosen + [list(x)]) > len(chosen):
            chosen.append(list(x))
            norms.append(q)
            if len(chosen) == r:
                break
    assert len(norms) == r
    return tuple(LogRat(Fraction(q, den)) for q in norms)


def dual_lattice(lat: EucLattice) -> EucLattice:
    """Dual metric structure: the inverse Gram matrix, den adj(G) / det(G)
    for gram = G / den."""
    g, den = _int_gram(lat)
    det = int_det(g)
    return EucLattice(tuple(tuple(Fraction(den * x, det) for x in row)
                            for row in int_adjugate(g)))


# ---------------------------------------------------------------------------
# rank-2 reduction and the shape invariant


@dataclass(frozen=True)
class TauInvariant:
    """Shape of a rank-2 lattice in the fundamental domain.

    tau = x + i*y with x = |g12|/g11 in [0, 1/2] and y^2 = det/g11^2 rational,
    computed from a Lagrange-Gauss reduced basis.  Semistable iff y <= 1.
    """

    x: Fraction
    y2: Fraction

    @property
    def y(self) -> float:
        return math.sqrt(float(self.y2))

    @property
    def im_le_one(self) -> bool:
        return self.y2 <= 1


def lagrange_gauss(gram) -> tuple:
    """Reduced form (a, b, c) of [[a, b], [b, c]], with 2|b| <= a <= c.

    Exact for int and Fraction entries alike; a is lambda_1^2.
    """
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    if a > c:
        a, c = c, a
    while True:
        # nearest integer to b/a, ties toward zero for determinism
        q = (2 * b + a) // (2 * a) if b >= 0 else -((2 * (-b) + a) // (2 * a))
        if q:
            c = c - 2 * q * b + q * q * a
            b = b - q * a
        if c < a:
            a, c = c, a
        else:
            return a, b, c


def tau_invariant(lat: EucLattice) -> TauInvariant:
    if lat.rank != 2:
        raise UnsupportedRank("tau invariant needs rank 2")
    a, b, c = lagrange_gauss(lat.gram)
    det = a * c - b * b
    return TauInvariant(x=abs(b) / a, y2=det / (a * a))


# ---------------------------------------------------------------------------
# minima vs slopes comparison


def minima_slope_bound(r: int) -> LogLin:
    """Rank bound C_r with |log lambda_i + mu_i| <= C_r.

    From Minkowski's second theorem and lambda_j(S) >= lambda_j(L) for
    sublattices: every d(i) sits between -sum_{j<=i} log lambda_j and that
    value plus (i/2) log gamma_i.  The first function is already concave in
    i, so the hull stays within the same band and each slope differs from
    -log lambda_i by at most C_r = (r/2) log gamma_r <= r(r-1)/4 * log(4/3).
    """
    return LogLin.from_log(Fraction(4, 3), Fraction(r * (r - 1), 4))


def check_minima_slope_gaps(lat: EucLattice):
    """Per-index gaps log lambda_i + mu_i with exact bound verdicts.

    Returns a list of (i, gap, within_two_sided, nonnegative); the two-sided
    bound |gap| <= C_r is the provable one, nonnegativity is only flagged.
    """
    mins = successive_minima(lat)
    mus = slopes(lat)
    c_r = minima_slope_bound(lat.rank)
    out = []
    for i, (lam, mu) in enumerate(zip(mins, mus), start=1):
        gap = lam.as_lin() + mu
        within = gap.compare(c_r) <= 0 and gap.compare(-c_r) >= 0
        out.append((i, gap, within, gap.sign() >= 0))
    return out
