import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab import lattice
from heightlab.exactnum import LogLin, int_adjugate, int_det
from heightlab.lattice import (
    EucLattice,
    _vectors_within,
    NotPositiveDefinite,
    UnsupportedRank,
    degree,
    dual_lattice,
    is_semistable,
    lagrange_gauss,
    lattice_from_basis,
    max_deg_rank,
    min_slope,
    newton_polygon,
    slopes,
    successive_minima,
    tau_invariant,
)
from linalg_reference import reference_det, reference_inverse
from test_exactnum import half_log


def random_gram(rng, rank, spread=2):
    """Random integer PD Gram via R R^T + I with entries in [-spread, spread]."""
    while True:
        r = rng.integers(-spread, spread + 1, size=(rank, rank))
        g = r @ r.T + np.eye(rank, dtype=np.int64)
        if round(np.linalg.det(g.astype(float))) > 0:
            return tuple(tuple(int(x) for x in row) for row in g)


@functools.cache
def _box_vectors(r, box):
    """Nonzero coefficient vectors of the box [-box, box]^r, one per +/- pair."""
    axes = np.meshgrid(*([np.arange(-box, box + 1)] * r), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1).astype(np.int64)
    nz = np.any(pts != 0, axis=1)
    pts = pts[nz]
    lead = pts[np.arange(len(pts)), np.argmax(pts != 0, axis=1)]
    return pts[lead > 0]


@functools.cache
def _pair_contents(box):
    """Every non-parallel pair a < b of rank-3 box vectors, as flat indices
    a * N + b into an N x N table, with the squared content of the pair:
    the gcd of its 2x2 minors, i.e. of its cross product components."""
    pts = _box_vectors(3, box)
    a, b = np.triu_indices(len(pts), 1)
    pa, pb = pts[a], pts[b]
    cont = np.gcd.reduce(np.abs(np.cross(pa, pb)), axis=1)
    keep = cont > 0
    return a[keep] * len(pts) + b[keep], cont[keep] ** 2


def oracle_min_covol2(gram, i, box=6):
    """Exhaustive saturated-covolume minimum over a coefficient box (rank <= 3)."""
    g = np.array(gram, dtype=np.int64)
    r = g.shape[0]
    pts = _box_vectors(r, box)
    if i == 1:
        content = np.gcd.reduce(np.abs(pts), axis=1)
        prim = pts[content == 1]
        return Fraction(int(np.einsum("ij,jk,ik->i", prim, g, prim).min()))
    assert i == 2 and r == 3
    # Gram determinants of every pair at once, from one N x N table
    dots = pts @ g @ pts.T
    norms = np.diagonal(dots)
    flat, cont2 = _pair_contents(box)
    covol2 = (np.outer(norms, norms) - dots ** 2).ravel()[flat]
    vals = covol2 // cont2
    assert np.all(vals * cont2 == covol2)  # saturation is exact
    return Fraction(int(vals.min()))


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
        gap = lam + mu
        within = gap.compare(c_r) <= 0 and gap.compare(-c_r) >= 0
        out.append((i, gap, within, gap.sign() >= 0))
    return out


@st.composite
def symmetric_grams(draw):
    """Symmetric Fraction Grams of rank 1-6: R R^T + I (definite), R R^T with
    R of fewer columns (semidefinite, singular), or arbitrary symmetric
    entries (mostly indefinite), each conjugated by a diagonal of unit
    fractions so that entries carry varied denominators."""
    r = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["definite", "semidefinite", "indefinite"]))
    small = st.integers(-4, 4)
    if kind == "indefinite":
        upper = {(i, j): draw(small) for i in range(r) for j in range(i, r)}
        g = [[upper[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]
    else:
        k = r if kind == "definite" else draw(st.integers(0, r - 1))
        rows = [[draw(small) for _ in range(k)] for _ in range(r)]
        g = [[sum(a * b for a, b in zip(u, v)) + (kind == "definite" and u is v)
              for v in rows] for u in rows]
    d = [Fraction(1, draw(st.integers(1, 9))) for _ in range(r)]
    return tuple(tuple(d[i] * g[i][j] * d[j] for j in range(r)) for i in range(r))


def reference_lll_transform(g, delta=Fraction(99, 100)):
    """Exact LLL that rebuilds the Gram-Schmidt data after every step."""
    r = len(g)
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def gso(cur):
        mu = [[Fraction(0)] * r for _ in range(r)]
        bstar = [Fraction(0)] * r
        for i in range(r):
            bstar[i] = Fraction(cur[i][i])
            for j in range(i):
                mu[i][j] = (Fraction(cur[i][j]) - sum(mu[i][k] * mu[j][k] * bstar[k] for k in range(j))) / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    cur = [list(row) for row in g]
    k = 1
    while k < r:
        mu, bstar = gso(cur)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                cur = lattice._gram_of_transform(u, g)
                mu, bstar = gso(cur)
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            cur = lattice._gram_of_transform(u, g)
            k = max(k - 1, 1)
    return u


def reference_vectors_within(red, bound):
    """Box scan: every x with |x_i| <= sqrt(bound adj_ii / det) in reduced
    coordinates (the bounding box of the ellipsoid), with the first nonzero
    coordinate positive; same output as `lattice._vectors_within`."""
    u, gg = red.u, red.gg
    det, adj = int_det(gg), int_adjugate(gg)
    r = len(gg)
    radii = []
    for i in range(r):
        num = bound * adj[i][i]
        radii.append(math.isqrt(num // det) + 1 if num >= 0 else 0)
    out = []
    rng = [range(-rad, rad + 1) for rad in radii]
    rng[0] = range(0, radii[0] + 1)
    for x in itertools.product(*rng):
        if x[0] == 0:
            lead = next((v for v in x if v != 0), 0)
            if lead <= 0:
                continue
        q = sum(gg[i][j] * x[i] * x[j] for i in range(r) for j in range(r))
        if 0 < q <= bound:
            orig = tuple(sum(x[i] * u[i][j] for i in range(r)) for j in range(r))
            if next(v for v in orig if v) < 0:
                orig = tuple(-w for w in orig)
            out.append((q, orig))
    out.sort()
    return out


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


def reference_min_covol2_red(red, i):
    """Minimal covol^2 over rank-i primitive sublattices of red.g: the best
    saturated span of i certified short vectors, every i-subset tried.
    Certified for i <= 4; the plain-determinant search replaced it."""
    m1 = red.svp[0]
    if i == 1:
        return Fraction(m1)
    r = len(red.gg)
    rows = sorted((red.gg[a][a], red.u[a]) for a in range(r))
    best = _subset_covol2(red.g, [rows[k][1] for k in range(i)])
    assert best is not None
    # Minkowski: prod lambda_j(S)^2 <= gamma_i^i covol(S)^2 and lambda_j(S) >= lambda_1,
    # with gamma_i^i <= (4/3)^(i(i-1)/2); a rank <= 4 lattice has a basis realising
    # its minima, so the optimum is spanned by vectors below this bound.
    c2 = Fraction(4, 3) ** (i * (i - 1) // 2) * best / Fraction(m1) ** (i - 1)
    coords = [v for _, v in _vectors_within(red, c2)]
    for combo in itertools.combinations(coords, i):
        cv = _subset_covol2(red.g, combo)
        if cv is not None and cv < best:
            best = cv
    return best


def reference_polygon(lat):
    """(d, m, slopes) of the Newton polygon with every ordinate m[i]
    interpolated on its hull segment and the slopes taken as differences
    m[i] - m[i-1]; the slope-per-segment construction replaced it."""
    r = lat.rank
    d = [max_deg_rank(lat, i) for i in range(1, r + 1)]
    pts = [(0, LogLin.zero())] + [(i + 1, d[i]) for i in range(r)]
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            xc, yc = p
            if ((yb - ya) * (xc - xb)).compare((yc - yb) * (xb - xa)) <= 0:
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
    slopes = [m[i] - m[i - 1] for i in range(1, r + 1)]
    return d, m, slopes


# gram_pool(6, 10)[2] and [3] of the benchmark: every triple below the
# Minkowski bound of Gram 2 is 3.0e6 saturated spans, about 300 s for the
# reference search
RANK6_GRAMS = (
    ((19, -2, -10, -4, 8, -1), (-2, 25, -10, 23, -6, 16), (-10, -10, 17, -10, -8, -8),
     (-4, 23, -10, 26, 0, 14), (8, -6, -8, 0, 32, -4), (-1, 16, -8, 14, -4, 17)),
    ((29, 3, -17, -30, 1, -3), (3, 22, 3, -13, -2, 4), (-17, 3, 15, 14, -5, 2),
     (-30, -13, 14, 42, 0, 3), (1, -2, -5, 0, 13, -3), (-3, 4, 2, 3, -3, 6)),
)


@st.composite
def reduced_grams(draw):
    """A reduction of R R^T + I (rank 1-6, entries of R in [-3, 3]) or of
    its adjugate, optionally scaled by 2^55 and shifted on the diagonal so
    that entries pass 2^53."""
    r = draw(st.integers(1, 6))
    rows = [[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(r)]
    g = [[sum(a * b for a, b in zip(x, y)) + (x is y) for y in rows] for x in rows]
    if draw(st.booleans()):
        g = int_adjugate(g)
    if draw(st.booleans()):
        g = [[(g[i][j] << 55) + (i == j) * draw(st.integers(0, 3)) for j in range(r)]
             for i in range(r)]
    return lattice._reduction(EucLattice(tuple(map(tuple, g))))


class TestReduction:
    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_incremental_lll_matches_reference(self, seed, rank):
        rng = np.random.default_rng(seed)
        g = [list(row) for row in random_gram(rng, rank, spread=3)]
        for h in (g, int_adjugate(g)):
            u, d, lam = lattice._lll_transform(h)
            assert u == reference_lll_transform(h), h
            # LLL hands back the data of the reduced Gram it kept current
            assert (d, lam) == lattice._gram_schmidt(lattice._gram_of_transform(u, h)), h

    def test_polygon_and_minima_reduce_two_grams_once(self, monkeypatch):
        counts = {}
        orig = lattice._lll_transform

        def counting(g, *args, **kwargs):
            key = tuple(map(tuple, g))
            counts[key] = counts.get(key, 0) + 1
            return orig(g, *args, **kwargs)

        monkeypatch.setattr(lattice, "_lll_transform", counting)
        g = random_gram(np.random.default_rng(3), 4)
        lat = EucLattice(g)
        newton_polygon(lat)
        successive_minima(lat)
        adj = tuple(map(tuple, int_adjugate(g)))
        assert counts == {g: 1, adj: 1}

    def test_one_first_minimum_per_reduction(self, monkeypatch):
        # a search at the least reduced diagonal entry is a first-minimum
        # search; the polygon needs lambda_1 of G and of adj(G) once each
        counts = {}
        orig = lattice._vectors_within

        def recording(red, bound):
            if bound == min(red.gg[i][i] for i in range(len(red.gg))):
                key = tuple(map(tuple, red.g))
                counts[key] = counts.get(key, 0) + 1
            return orig(red, bound)

        monkeypatch.setattr(lattice, "_vectors_within", recording)
        g = RANK6_GRAMS[0]
        lat = EucLattice(g)
        newton_polygon(lat)
        successive_minima(lat)
        assert counts == {g: 1, tuple(map(tuple, int_adjugate(g))): 1}

    def test_cached_reduction_leaves_identity_alone(self):
        g = ((2, 1), (1, 3))
        lat = EucLattice(g)
        before = (repr(lat), hash(lat))
        newton_polygon(lat)
        assert (repr(lat), hash(lat)) == before
        assert lat == EucLattice(g)


class TestEnumeration:
    @given(reduced_grams(), st.sampled_from(["below", "attained", "large"]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_ellipsoid_walk_matches_box_scan(self, red, kind, data):
        r = len(red.gg)
        top = max(red.gg[i][i] for i in range(r))
        lam1 = reference_vectors_within(red, min(red.gg[i][i] for i in range(r)))[0][0]
        if kind == "below":
            bound = lam1 - 1
        elif kind == "attained":
            norms = sorted({q for q, _ in reference_vectors_within(red, top)})
            bound = data.draw(st.sampled_from(norms))
        else:
            bound = top * (3 if r <= 4 else 1) + data.draw(st.integers(0, 5))
        got = lattice._vectors_within(red, bound)
        assert got == reference_vectors_within(red, bound)
        if kind == "below":
            assert got == []
        elif kind == "attained":
            assert got[-1][0] == bound

    def test_beyond_two_to_the_53(self):
        # norms 2^60 + 1 on (1, 0) and 2^60 + 2 on (2, -1), the next one
        # 2^61 + 1: a float budget cannot tell the first two apart
        k = 1 << 60
        lat = EucLattice(((k + 1, 2 * k + 3), (2 * k + 3, 5 * k + 10)))
        red = lattice._reduction(lat)
        assert lattice._vectors_within(red, k + 1) == [(k + 1, (1, 0))]
        got = lattice._vectors_within(red, k + 2)
        assert got == reference_vectors_within(red, k + 2)
        assert got == [(k + 1, (1, 0)), (k + 2, (2, -1))]

    @given(reduced_grams())
    @settings(max_examples=60, deadline=None)
    def test_stored_gram_schmidt_data_are_minors_of_the_reduced_gram(self, red):
        gg, d, lam = red.gg, red.d, red.lam
        r = len(gg)
        assert red.det == d[r] == int_det(gg)
        for k in range(r + 1):
            assert d[k] == int_det([row[:k] for row in gg[:k]])
        # lam_ij = d_{j+1} mu_ij is the minor on rows 0..j-1, i and columns 0..j
        for i in range(r):
            for j in range(i):
                rows = [gg[a][:j + 1] for a in list(range(j)) + [i]]
                assert lam[i][j] == int_det(rows)

    @given(st.integers(-10**6, 10**6), st.integers(1, 400))
    def test_rounding_is_half_to_even(self, a, b):
        assert lattice._round_div(a, b) == round(Fraction(a, b))
        assert lattice._round_div(2 * a + 1, 2) == round(Fraction(2 * a + 1, 2))


RANK5_GRAMS = (
    ((6, Fraction(-1, 3), Fraction(17, 3), Fraction(1, 3), Fraction(-1, 3)),
     (Fraction(-1, 3), Fraction(14, 3), Fraction(-8, 3), 2, Fraction(11, 3)),
     (Fraction(17, 3), Fraction(-8, 3), 11, Fraction(-8, 3), -1),
     (Fraction(1, 3), 2, Fraction(-8, 3), Fraction(11, 3), Fraction(8, 3)),
     (Fraction(-1, 3), Fraction(11, 3), -1, Fraction(8, 3), 8)),
    ((23, -9, 18, -13, 16), (-9, 13, -7, 11, -10), (18, -7, 22, -11, 11),
     (-13, 11, -11, 25, -20), (16, -10, 11, -20, 30)),
)

A5 = tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5))
           for i in range(5))
D5 = lattice_from_basis([[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0],
                         [0, 0, 0, 1, -1], [0, 0, 0, 1, 1]]).gram


class TestDuality:
    @pytest.mark.parametrize("gram, want", [
        (RANK5_GRAMS[0], (Fraction(3, 10), Fraction(9, 106), Fraction(3, 121),
                          Fraction(81, 11306), Fraction(243, 199441))),
        (RANK5_GRAMS[1], (Fraction(1, 9), Fraction(1, 113), Fraction(1, 1557),
                          Fraction(1, 22360), Fraction(1, 276208))),
    ])
    def test_rank_five_degrees_are_frozen(self, gram, want):
        # recorded with the box scan and a direct span search at every i
        lat = EucLattice(gram)
        assert tuple(max_deg_rank(lat, i) for i in range(1, 6)) == tuple(map(half_log, want))

    @pytest.mark.parametrize("gram, ranks", [
        *[(random_gram(np.random.default_rng(seed), 4, 1), (3,)) for seed in range(4)],
        *[(random_gram(np.random.default_rng(seed), 4, 2), (3,)) for seed in range(2)],
        *[(random_gram(np.random.default_rng(seed), 5, 1), (3,)) for seed in (0, 6, 7)],
        (A5, (3, 4)), (D5, (3, 4)),
        (((2, 0, 0, 1, 1), (0, 2, 0, 1, 0), (0, 0, 2, 1, 0), (1, 1, 1, 2, 0),
          (1, 0, 0, 0, 3)), (3, 4)),
    ])
    def test_dual_matches_direct_search(self, gram, ranks):
        # the span search is certified up to i = 4, so it can check the
        # dual route where the product no longer runs it
        lat = EucLattice(gram)
        for i in ranks:
            direct = lattice._min_covol2_red(lattice._reduction(lat), i)
            assert lattice._min_covol2_int(lat, i) == direct, i

    @pytest.mark.parametrize("rank, seeds", [(4, range(3)), (5, range(3)), (6, (1,))])
    def test_span_search_sees_at_most_half_the_rank(self, rank, seeds, monkeypatch):
        widths = []
        orig = lattice._min_covol2_red

        def recording(red, i):
            widths.append(i)
            return orig(red, i)

        monkeypatch.setattr(lattice, "_min_covol2_red", recording)
        for seed in seeds:
            newton_polygon(EucLattice(random_gram(np.random.default_rng(seed), rank, 1)))
        assert widths and max(widths) <= rank // 2

    def test_one_integer_gram_per_lattice(self):
        lat = EucLattice(RANK5_GRAMS[0])
        g, den = lattice._int_gram(lat)
        assert den == 3 and g[0][:2] == (18, -1)
        newton_polygon(lat)
        successive_minima(lat)
        assert lattice._int_gram(lat)[0] is g
        assert lattice._reduction(lat).g is g


class TestSpanSearch:
    # rank 6 takes seeds whose saturating reference runs in under a second;
    # RANK6_GRAMS stand for the slow ones
    @pytest.mark.parametrize("rank, spread, seed", [
        *[(rank, spread, seed) for rank in range(2, 6) for spread in (1, 2)
          for seed in range(6)],
        (6, 1, 17), (6, 2, 0), (6, 2, 15),
    ])
    def test_matches_saturating_reference(self, rank, spread, seed):
        lat = EucLattice(random_gram(np.random.default_rng(seed), rank, spread))
        for dual in (False, True):
            red = lattice._reduction(lat, dual=dual)
            for i in range(1, rank // 2 + 1):
                assert lattice._min_covol2_red(red, i) == reference_min_covol2_red(red, i), (dual, i)

    @pytest.mark.parametrize("gram, want", [(RANK6_GRAMS[0], 510), (RANK6_GRAMS[1], 553)])
    def test_rank_six_minima_are_frozen(self, gram, want):
        # recorded with the saturating reference (300 s and 100 s)
        assert lattice._min_covol2_red(lattice._reduction(EucLattice(gram)), 3) == want

    def test_minkowski_prune_keeps_rank_six_walk_short(self, monkeypatch):
        # 61 determinants; the Minkowski bound alone leaves 3.0e6 triples
        calls = []
        orig = lattice.int_det

        def counting(m):
            calls.append(len(m))
            return orig(m)

        monkeypatch.setattr(lattice, "int_det", counting)
        red = lattice._reduction(EucLattice(RANK6_GRAMS[0]))
        assert lattice._min_covol2_red(red, 3) == 510
        assert len(calls) <= 1000


class TestDegreesAndPolygon:
    def test_rank_one(self):
        lat = EucLattice(((4,),))
        assert degree(lat) == half_log(Fraction(1, 4))
        assert successive_minima(lat) == (half_log(4),)
        assert slopes(lat)[0] == LogLin.from_log(4, Fraction(-1, 2))

    def test_diag_1_4(self):
        lat = EucLattice(((1, 0), (0, 4)))
        np_ = newton_polygon(lat)
        assert np_.d[0].is_zero()
        assert np_.d[1] == LogLin.from_log(4, Fraction(-1, 2))
        assert np_.slopes[0].is_zero()
        assert np_.slopes[1] == LogLin.from_log(2, -1)
        assert not is_semistable(lat)
        mins = successive_minima(lat)
        assert mins == (half_log(1), half_log(4))

    def test_hexagonal_semistable(self):
        lat = EucLattice(((2, 1), (1, 2)))
        np_ = newton_polygon(lat)
        # d(1) = -1/2 log 2 lies strictly under the chord to (2, -1/2 log 3)
        assert np_.d[0] == LogLin.from_log(2, Fraction(-1, 2))
        assert np_.slopes[0] == np_.slopes[1] == LogLin.from_log(3, Fraction(-1, 4))
        assert is_semistable(lat)
        assert min_slope(lat) == LogLin.from_log(3, Fraction(-1, 4))

    @pytest.mark.parametrize("gram", [
        *[random_gram(np.random.default_rng(seed), rank) for rank in range(1, 7)
          for seed in range(4)],
        *RANK5_GRAMS, A5, D5, *RANK6_GRAMS,
    ])
    def test_polygon_matches_interpolating_reference(self, gram):
        got = newton_polygon(EucLattice(gram))
        want = reference_polygon(EucLattice(gram))
        for a, b in zip((got.d, got.m, got.slopes), want):
            assert [x.terms for x in a] == [x.terms for x in b]

    @pytest.mark.parametrize("gram, vertices", [
        # (0, 0), (1, 0), (2, 0) are collinear: vertex 1 is popped on the tie
        (((1, 0, 0), (0, 1, 0), (0, 0, 4)), (0, 2, 3)),
        (((4, 0, 0), (0, 4, 0), (0, 0, 4)), (0, 3)),
        (((2, -1), (-1, 2)), (0, 2)),                                  # A2
        (((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 2)), (0, 4)),  # D4
        # Z^r with scaled rows: every covol^2 a power of the scale
        (tuple(tuple(Fraction(1, 4) if i == j else 0 for j in range(3)) for i in range(3)), (0, 3)),
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)), (0, 2, 4)),
        (tuple(tuple((1, 1, 9, 9, 9)[i] if i == j else 0 for j in range(5)) for i in range(5)),
         (0, 2, 5)),
    ])
    def test_collinear_degree_points_pop_on_the_tie(self, gram, vertices):
        got = newton_polygon(EucLattice(gram))
        want = reference_polygon(EucLattice(gram))
        for a, b in zip((got.d, got.m, got.slopes), want):
            assert [x.terms for x in a] == [x.terms for x in b]
        assert got.vertices == vertices
        assert got.is_semistable == (len(vertices) == 2)
        assert got.is_semistable == (want[2][0].compare(want[2][-1]) == 0)

    def test_rank3_diag(self):
        lat = EucLattice(((1, 0, 0), (0, 1, 0), (0, 0, 4)))
        np_ = newton_polygon(lat)
        assert [s.to_float() for s in np_.slopes] == pytest.approx([0.0, 0.0, -math.log(2)])
        assert max_deg_rank(lat, 2) == half_log(1)

    def test_unimodular_basis(self):
        lat = lattice_from_basis([[1, 1], [0, 1]])
        assert degree(lat) == LogLin.zero()

    def test_middle_rank_search(self):
        # D4-style gram: rank 4, i = 2 goes through the certified search
        g = ((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 2))
        lat = EucLattice(g)
        d2 = max_deg_rank(lat, 2)
        # two roots at sixty degrees: covol^2 = 3
        assert d2 == half_log(Fraction(1, 3))

    def test_scaled_gram_entries(self):
        lat = EucLattice(((Fraction(1, 2), 0), (0, Fraction(9, 2))))
        assert degree(lat) == half_log(Fraction(4, 9))

    @given(symmetric_grams())
    @settings(max_examples=120, deadline=None)
    def test_not_positive_definite_exactly_when_a_leading_minor_is_not_positive(self, g):
        r = len(g)
        if any(reference_det([row[:k] for row in g[:k]]) <= 0 for k in range(1, r + 1)):
            with pytest.raises(NotPositiveDefinite):
                EucLattice(g)
        else:
            assert EucLattice(g).gram == g

    @given(symmetric_grams())
    @settings(max_examples=60, deadline=None)
    def test_dual_lattice_matches_reference_inverse(self, g):
        try:
            lat = EucLattice(g)
        except NotPositiveDefinite:
            return
        want = tuple(map(tuple, reference_inverse(g)))
        assert dual_lattice(lat).gram == want
        assert dual_lattice(dual_lattice(lat)) == lat

    def test_validation(self):
        with pytest.raises(UnsupportedRank):
            EucLattice(tuple(tuple(int(i == j) for j in range(7)) for i in range(7)))
        with pytest.raises(NotPositiveDefinite):
            EucLattice(((1, 2), (2, 1)))
        with pytest.raises(ValueError):
            EucLattice(((1, 2), (3, 1)))


class TestInvariants:
    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_slopes_nonincreasing_and_sum(self, seed, rank):
        rng = np.random.default_rng(seed)
        lat = EucLattice(random_gram(rng, rank))
        np_ = newton_polygon(lat)
        for a, b in zip(np_.slopes, np_.slopes[1:]):
            assert a.compare(b) >= 0
        total = LogLin.zero()
        for s in np_.slopes:
            total = total + s
        assert total == degree(lat)

    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_duality(self, seed, rank):
        rng = np.random.default_rng(seed)
        lat = EucLattice(random_gram(rng, rank))
        mu = slopes(lat)
        mu_dual = slopes(dual_lattice(lat))
        for i in range(rank):
            assert mu_dual[i] == -mu[rank - 1 - i]

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_scaling_shifts_slopes(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 3)
        lat = EucLattice(g)
        scaled = EucLattice(tuple(tuple(4 * x for x in row) for row in g))
        shift = LogLin.from_log(4, Fraction(-1, 2))
        for a, b in zip(slopes(lat), slopes(scaled)):
            assert b == a + shift

    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_minima_slope_band(self, seed, rank):
        rng = np.random.default_rng(seed)
        lat = EucLattice(random_gram(rng, rank))
        for _, _, within, _ in check_minima_slope_gaps(lat):
            assert within

    def test_bound_value(self):
        assert minima_slope_bound(3) == LogLin.from_log(Fraction(4, 3), Fraction(3, 2))


class TestAgainstOracle:
    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_rank3_all_ranks(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 3)
        lat = EucLattice(g)
        for i in (1, 2):
            got = max_deg_rank(lat, i)
            want = oracle_min_covol2(g, i)
            assert got == half_log(1 / Fraction(want)), (g, i)

    def test_minima_match_oracle_norms(self):
        rng = np.random.default_rng(7)
        g = random_gram(rng, 3)
        lat = EucLattice(g)
        lam1 = successive_minima(lat)[0]
        assert lam1 == half_log(Fraction(oracle_min_covol2(g, 1)))


class TestRankTwoShape:
    def test_lagrange_gauss_unimodular(self):
        assert lagrange_gauss(((5, 3), (3, 2))) == (1, 0, 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lagrange_gauss_int_and_fraction_agree(self, seed):
        g = random_gram(np.random.default_rng(seed), 2, spread=6)
        a, b, c = lagrange_gauss(g)
        assert all(type(x) is int for x in (a, b, c))
        assert lagrange_gauss(EucLattice(g).gram) == (a, b, c)
        assert 2 * abs(b) <= a <= c
        assert a * c - b * b == g[0][0] * g[1][1] - g[0][1] ** 2
        assert half_log(a) == successive_minima(EucLattice(g))[0]

    def test_tau_diag(self):
        t = tau_invariant(EucLattice(((1, 0), (0, 4))))
        assert (t.x, t.y2) == (0, 4)
        assert not t.im_le_one

    def test_tau_hexagonal(self):
        t = tau_invariant(EucLattice(((2, 1), (1, 2))))
        assert (t.x, t.y2) == (Fraction(1, 2), Fraction(3, 4))
        assert t.im_le_one

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_tau_fundamental_domain_and_stability(self, seed):
        rng = np.random.default_rng(seed)
        lat = EucLattice(random_gram(rng, 2, spread=4))
        t = tau_invariant(lat)
        assert 0 <= t.x <= Fraction(1, 2)
        # norm form x^2 + y^2 >= 1 on the reduced shape
        assert t.x * t.x + t.y2 >= 1
        assert t.im_le_one == is_semistable(lat)

    def test_rank_guard(self):
        with pytest.raises(UnsupportedRank):
            tau_invariant(EucLattice(((1,),)))
