"""Euclidean lattices with exact rational Gram matrices.

The central computation is the degree profile d(i) = max over rank-i
primitive sublattices of -log covol, its concave hull (the Newton polygon)
and the slope vector.  Everything is exact: covolumes squared are rational,
so the hull is decided by comparing products of their powers, and only the
printed values are built as `LogLin`s: one-term half-logs for the degrees,
one combination per hull segment for the slopes.

All the lattice work is in integers.  A rational Gram enters as the integer
Gram G = den * gram, kept on the lattice.  One integral Gram-Schmidt
(Cohen, Algorithm 2.6.7) carries the data of a Gram: the leading minors
d_k (so d_r is the determinant) and lam_ij = d_{j+1} mu_ij, all integers.
It checks positivity (every d_k > 0, Sylvester), and it drives the LLL
reduction (delta = 99/100), which keeps (d, lam) up to date through each
size reduction and swap.  Each integer Gram is reduced once, and the
reduction keeps LLL's own (d, lam) of the reduced Gram and, once asked
for, its first minimum.  The reduction is kept on the lattice: the Newton
polygon, the successive minima and every certified search on that lattice
reuse it (one reduction for G, one for its adjugate).

Short vectors come from a Fincke-Pohst walk of the ellipsoid x gg x^T <=
bound in reduced coordinates.  With the budget scaled by the lcm of the
d_k d_{k+1}, every level's range is an exact integer square root, so no
vector below the bound is ever pruned and the list is certified.

A minimal covolume of rank i <= r/2 is the least nonzero i x i minor of
the Gram table of the vectors below a Minkowski bound, walked over index
subsets of the norm-sorted list.  No saturation is needed: the optimum S
has a basis realising its minima (true in rank <= 4, and every searched i
is at most r/2 <= 3 under the rank cap of 6), so its plain determinant is
in the table, and any other determinant is at least the covolume squared
of its saturation.  Minkowski's second theorem prunes the walk with a
certificate: a subset whose norms multiply past (4/3)^(i(i-1)/2) times the
best so far cannot span the optimum.  A rank i > r/2 goes to the dual:
S -> S^perp is a bijection from primitive rank-i sublattices of G to
primitive rank-(r-i) sublattices of adj(G), with
covol^2_G(S) = covol^2_adj(G)(S^perp) / det(G)^(r-i-1).
Rank r is the determinant itself.

The same reduction and walk answer the first minimum of a bare integer
Gram, `int_min_norm2`, without building a lattice: the P^3 freeness
kernel takes lambda_1^2 of its quotient form and of the adjugate there.
Rank 2 has its own reduction, `lagrange_gauss`, which the P^2 freeness
kernel and `tau_invariant` share.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from .exactnum import Frozen, IntEchelon, LogLin, int_adjugate, int_det

RANK_CAP = 6


class UnsupportedRank(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


class EucLattice(Frozen):
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
        # the leading minors d_k of den * gram have the signs of those of gram
        _gram_schmidt(_int_gram(self)[0])

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
    """(G, den) with G integral and gram = G / den.

    Computed on first use and kept on the instance, like `_reduction`.
    """
    cached = lat.__dict__.get("_int_gram")
    if cached is None:
        den = 1
        for row in lat.gram:
            for x in row:
                den = den * x.denominator // math.gcd(den, x.denominator)
        g = tuple(tuple(int(x * den) for x in row) for row in lat.gram)
        cached = (g, den)
        object.__setattr__(lat, "_int_gram", cached)
    return cached


def _gram_schmidt(g):
    """Integral Gram-Schmidt data (d, lam) of an integer Gram g.

    d[k] is the leading k x k minor of g (d[0] = 1, d[r] = det g) and, for
    j < i, lam[i][j] = d[j+1] mu_ij; both are integers, and every division
    below is exact (Cohen, Algorithm 2.6.7, step 2).  Raises
    `NotPositiveDefinite` at the first d[k] <= 0, before it is divided by.
    """
    r = len(g)
    d = [1] * (r + 1)
    lam = [[0] * r for _ in range(r)]
    for i in range(r):
        li = lam[i]
        for j in range(i + 1):
            lj = lam[j]
            u = g[i][j]
            for k in range(j):
                u = (d[k + 1] * u - li[k] * lj[k]) // d[k]
            if j < i:
                li[j] = u
            elif u <= 0:
                raise NotPositiveDefinite("gram is not positive definite")
            else:
                d[i + 1] = u
    return d, lam


# ---------------------------------------------------------------------------
# reduction and certified vector enumeration (integer Gram matrices)


def _gram_of_transform(u, g):
    return _matmul_int(_matmul_int(u, g), [list(r) for r in zip(*u)])


def _round_div(a: int, b: int) -> int:
    """round(Fraction(a, b)) for b > 0: nearest integer, ties to even."""
    q, rem = divmod(2 * a + b, 2 * b)
    if rem == 0 and q & 1:
        q -= 1
    return q


def _lll_transform(g):
    """Exact LLL (delta = 99/100) on an integer Gram matrix; returns the
    unimodular rows U with the data (d, lam) of the reduced Gram U g U^T.

    Cohen's integral LLL (Algorithm 2.6.7): the data (d, lam) of
    `_gram_schmidt` is computed once and then updated in place.  A size
    reduction b_k -= q b_j changes only row k of lam; a swap of b_{k-1},
    b_k changes d[k], two rows of lam and columns k-1, k below them.  The
    quotient q = round(mu_kj) and the Lovasz test
    100 (d[k+1] d[k-1] + lam_k,k-1^2) >= 99 d[k]^2 are exact integer
    decisions, the same ones a rational Gram-Schmidt makes.
    """
    r = len(g)
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    d, lam = _gram_schmidt(g)
    k = 1
    guard = 0
    while k < r:
        guard += 1
        if guard > 10000:
            break  # defensive; reduction quality only affects speed
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_div(lk[j], d[j + 1])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                lj = lam[j]
                for l in range(j):
                    lk[l] -= q * lj[l]
                lk[j] -= q * d[j + 1]
        m = lk[k - 1]
        if 100 * (d[k + 1] * d[k - 1] + m * m) >= 99 * d[k] * d[k]:
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], u[k]
        lp = lam[k - 1]
        for j in range(k - 1):
            lp[j], lk[j] = lk[j], lp[j]
        big = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, r):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (big * t + m * li[k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)
    return u, d, lam


class _Reduction(Frozen):
    """An integer Gram g after LLL: the rows U, the reduced Gram
    gg = U g U^T and its integral Gram-Schmidt data (d, lam), as LLL left
    them.  Every search over g starts here."""

    g: list
    u: list
    gg: list
    d: list
    lam: list

    @property
    def det(self) -> int:
        return self.d[-1]

    @functools.cached_property
    def svp(self):
        """(lambda_1^2, witness), certified; computed on first use and kept."""
        bound = min(self.gg[i][i] for i in range(len(self.gg)))
        # bound is attained by a basis vector, so the list is nonempty
        return _vectors_within(self, bound)[0]


def _reduce(g) -> _Reduction:
    """LLL reduction of an integer Gram g, with the data of the reduced Gram."""
    u, d, lam = _lll_transform(g)
    return _Reduction(g, u, _gram_of_transform(u, g), d, lam)


def _reduction(lat: EucLattice, dual: bool = False) -> _Reduction:
    """Reduction of the lattice's integer Gram G, or of adj(G) when `dual`.

    Computed on first use and kept on the instance (outside the fields, so
    equality, hashing and repr ignore it).
    """
    attr = "_dual_reduction" if dual else "_reduction"
    red = lat.__dict__.get(attr)
    if red is None:
        g, _ = _int_gram(lat)
        red = _reduce(int_adjugate(g) if dual else g)
        object.__setattr__(lat, attr, red)
    return red


def _vectors_within(red: _Reduction, bound):
    """All nonzero x in Z^r with x g x^T <= bound, up to sign, as a sorted
    list of (x g x^T, x).

    A depth-first Fincke-Pohst walk in reduced coordinates y, from y_{r-1}
    down to y_0.  With N_k = y_k d[k+1] + sum_{j>k} lam[j][k] y_j the form
    is sum_k N_k^2 / (d[k] d[k+1]); scaled by the lcm L of the d[k] d[k+1],
    level k needs c_k N_k^2 <= rem with c_k = L / (d[k] d[k+1]) and rem
    the scaled budget left by the higher levels.  As N_k is an integer
    that holds exactly when |N_k| <= isqrt(rem // c_k), so each level's
    range of y_k is exact and the walk visits every lattice point of the
    ellipsoid and nothing else.  One of each pair +-y is kept: y_k >= 0
    while every higher coordinate is 0.  x = y U is then sign-normalised
    so that its first nonzero coordinate is positive.
    """
    u, d, lam = red.u, red.d, red.lam
    r = len(u)
    bound = math.floor(bound)
    if bound <= 0:
        return []
    scale = math.lcm(*(d[k] * d[k + 1] for k in range(r)))
    c = [scale // (d[k] * d[k + 1]) for k in range(r)]
    y = [0] * r
    out = []

    def walk(k, rem, top):
        s = 0
        for j in range(k + 1, r):
            s += lam[j][k] * y[j]
        t = math.isqrt(rem // c[k])
        dk, ck = d[k + 1], c[k]
        lo = 0 if top else -((t + s) // dk)
        for yk in range(lo, (t - s) // dk + 1):
            n = yk * dk + s
            left = rem - ck * n * n
            y[k] = yk
            if k:
                walk(k - 1, left, top and not yk)
            elif yk or not top:
                x = [sum(y[i] * u[i][j] for i in range(r)) for j in range(r)]
                if next(v for v in x if v) < 0:
                    x = [-v for v in x]
                out.append((bound - left // scale, tuple(x)))
        y[k] = 0

    walk(r - 1, bound * scale, True)
    out.sort()
    return out


def int_min_norm2(g) -> int:
    """lambda_1^2 of a positive-definite integer Gram g: the least x g x^T
    over nonzero integer x, certified by LLL and the Fincke-Pohst walk.

    The P^3 freeness kernel reads its quotient-form minima here.
    """
    return _reduce(g).svp[0]


def _min_covol2_red(red: _Reduction, i: int) -> Fraction:
    """Minimal covol^2 over rank-i primitive sublattices of red.g, certified
    for i <= 4; `_min_covol2_int` asks only for i <= r/2 <= 3.

    The least nonzero Gram determinant of i vectors of one certified list;
    the plain determinant needs no saturation.  The optimum S has a basis
    realising its minima (rank <= 4), its vectors are in the list and their
    determinant is covol^2(S); any other independent i vectors span a
    sublattice of their saturation, so their determinant is at least
    covol^2 of that, which is at least the optimum.  Minkowski's second
    theorem, prod lambda_j(S)^2 <= gamma_i^i covol^2(S) with
    gamma_i^i <= K = (4/3)^(i(i-1)/2), bounds the list (lambda_j(S) >=
    lambda_1, so lambda_i(S)^2 <= K best / lambda_1^(2(i-1))) and prunes
    the walk: the list is sorted by norm, so once the norms chosen so far
    times q_c^left exceed K best, no later candidate helps.
    """
    m1 = red.svp[0]
    if i == 1:
        return Fraction(m1)
    gg = red.gg
    first = sorted(range(len(gg)), key=lambda a: gg[a][a])[:i]
    best = int_det([[gg[a][b] for b in first] for a in first])
    kn, kd = 4 ** (i * (i - 1) // 2), 3 ** (i * (i - 1) // 2)
    vecs = [x for _, x in _vectors_within(red, Fraction(kn * best, kd * m1 ** (i - 1)))]
    t = _gram_of_transform(vecs, red.g)
    n = len(vecs)
    picked = []

    def walk(start, prod):
        nonlocal best
        left = i - len(picked)
        for c in range(start, n - left + 1):
            q = t[c][c]
            if kd * prod * q ** left > kn * best:
                break
            picked.append(c)
            if left > 1:
                walk(c + 1, prod * q)
            else:
                det = int_det([[t[a][b] for b in picked] for a in picked])
                if 0 < det < best:
                    best = det
            picked.pop()

    walk(0, 1)
    return Fraction(best)


def _min_covol2_int(lat: EucLattice, i: int) -> Fraction:
    """Minimal covol^2 over rank-i primitive sublattices, for the integer Gram."""
    r = lat.rank
    red = _reduction(lat)
    if i == r:
        return Fraction(red.det)
    if 2 * i <= r:
        return _min_covol2_red(red, i)
    # duality: covol^2_G(S) = covol^2_adj(G)(S^perp) / det(G)^(r-i-1), S^perp
    # running over the primitive rank-(r-i) sublattices of adj(G)
    j = r - i
    return _min_covol2_red(_reduction(lat, dual=True), j) / red.det ** (j - 1)


# ---------------------------------------------------------------------------
# public lattice invariants


def degree(lat: EucLattice) -> LogLin:
    """Arakelov-style degree -(1/2) log det(gram)."""
    g, den = _int_gram(lat)
    d = Fraction(int_det(g), den ** lat.rank)
    return LogLin.from_log(1 / d, Fraction(1, 2))


def _half_log_inverse(den: int, i: int, c: Fraction) -> LogLin:
    """The degree -(1/2) log(c / den^i) of a rank-i sublattice whose
    integer Gram den * gram gives it covol^2 c."""
    return LogLin.from_log(den ** i / c, Fraction(1, 2))


def max_deg_rank(lat: EucLattice, i: int) -> LogLin:
    """Largest degree of a rank-i primitive sublattice (min covolume)."""
    if not 1 <= i <= lat.rank:
        raise ValueError("need 1 <= i <= rank")
    _, den = _int_gram(lat)
    return _half_log_inverse(den, i, _min_covol2_int(lat, i))


class NewtonPolygon(Frozen):
    """Degree profile d, slope vector and the hull's vertices; the concave
    hull ordinates m are derived."""

    d: tuple       # LogLin, indices 1..r (d[0] corresponds to rank 1)
    slopes: tuple  # LogLin, length r, non-increasing
    vertices: tuple  # abscissae of the hull's vertices, 0 .. r

    @property
    def rank(self) -> int:
        return len(self.slopes)

    @functools.cached_property
    def m(self) -> tuple:
        """Hull ordinates, indices 0..r with m[0] = 0: the partial sums of
        the slopes, built on first read."""
        m = [LogLin.zero()]
        for s in self.slopes:
            m.append(m[-1] + s)
        return tuple(m)

    @property
    def is_semistable(self) -> bool:
        """All slopes equal, i.e. the polygon is a straight segment."""
        return len(self.vertices) == 2


def newton_polygon(lat: EucLattice) -> NewtonPolygon:
    """Degree profile d, its concave hull through (0, 0) and the slopes.

    The hull is decided on the minimal covolumes squared c_i of the
    integer Gram den * gram, with c_0 = 1, so d_i = -(1/2) log(c_i / den^i).
    A vertex b between a and c is popped when it lies on or under the
    chord a-c, that is when c_a^(c-b) c_c^(b-a) <= c_b^(c-a): the den^i
    cancel, as a(c-b) + c(b-a) = b(c-a), and the test is one comparison
    of rationals.  On a tie b is popped, so consecutive hull slopes differ
    and the polygon is semistable exactly when the hull is one segment.
    Each segment (a, y_a)-(b, y_b) gives one `LogLin` slope
    (y_b - y_a) / (b - a), repeated b - a times.
    """
    r = lat.rank
    _, den = _int_gram(lat)
    c = [Fraction(1)] + [_min_covol2_int(lat, i) for i in range(1, r + 1)]
    hull = [0]
    for x in range(1, r + 1):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if c[a] ** (x - b) * c[x] ** (b - a) <= c[b] ** (x - a):
                hull.pop()
            else:
                break
        hull.append(x)
    d = [_half_log_inverse(den, i, c[i]) for i in range(1, r + 1)]
    y = [LogLin.zero()] + d
    slopes = []
    for a, b in zip(hull, hull[1:]):
        slopes += [(y[b] - y[a]).scale(Fraction(1, b - a))] * (b - a)
    return NewtonPolygon(tuple(d), tuple(slopes), tuple(hull))


def slopes(lat: EucLattice) -> tuple:
    return newton_polygon(lat).slopes


def min_slope(lat: EucLattice) -> LogLin:
    return newton_polygon(lat).slopes[-1]


def is_semistable(lat: EucLattice) -> bool:
    """All slopes equal, i.e. the polygon is a straight segment."""
    return newton_polygon(lat).is_semistable


def successive_minima(lat: EucLattice) -> tuple:
    """log lambda_i = (1/2) log lambda_i^2 as `LogLin` half-logs, via
    certified enumeration."""
    _, den = _int_gram(lat)
    r = lat.rank
    red = _reduction(lat)
    bound = max(red.gg[i][i] for i in range(r))
    vecs = _vectors_within(red, bound)
    norms = []
    chosen = IntEchelon()
    for q, x in vecs:
        if chosen.add(x):
            norms.append(q)
            if len(norms) == r:
                break
    assert len(norms) == r
    return tuple(LogLin.from_log(Fraction(q, den), Fraction(1, 2)) for q in norms)


def dual_lattice(lat: EucLattice) -> EucLattice:
    """Dual metric structure: the inverse Gram matrix, den adj(G) / det(G)
    for gram = G / den."""
    g, den = _int_gram(lat)
    det = int_det(g)
    return EucLattice(tuple(tuple(Fraction(den * x, det) for x in row)
                            for row in int_adjugate(g)))


# ---------------------------------------------------------------------------
# rank-2 reduction and the shape invariant


class TauInvariant(Frozen):
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
