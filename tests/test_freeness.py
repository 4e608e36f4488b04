import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab.counting import (
    _pn_orbits,
    bounded_window,
    count_pn,
    count_pn_sieved,
    enum_points,
)
from heightlab.exactnum import LogLin
from heightlab.freeness import (
    FreenessReport,
    SweepResult,
    TangentLattice,
    _pn_minima,
    _quotient_int_gram,
    freeness,
    freeness_product,
    freeness_statistics,
    freeness_sweep,
    pn_freeness_data,
    point_freeness,
    tangent_lattice_pn,
    unimodular_completion,
)
from heightlab.lattice import EucLattice, degree, lagrange_gauss, max_deg_rank
from heightlab.projpoint import Metric, PrimPoint, normalize, variety

from curve_examples import twisted_cubic
from freeness_reference import (
    UndefinedHeight,
    _adj3,
    _min3,
    closed_form_mu,
    freeness_pn_closed,
    freeness_rows,
    freeness_surface_tau,
    metric_change_rows,
    product_tangent_lattice,
    quotient_lattice_pn,
    reference_statistics,
    reference_sweep,
)
from test_exactnum import half_log

V2 = variety("pn", 2)
V3 = variety("pn", 3)
VP2 = variety("p1n", 2)
VB = variety("blowup", 2)


def canon(coords):
    g = math.gcd(*[abs(c) for c in coords])
    v = [c // g for c in coords]
    lead = next(c for c in v if c != 0)
    if lead < 0:
        v = [-c for c in v]
    return PrimPoint(tuple(v))


def det_sign(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


class TestCompletion:
    @pytest.mark.parametrize("y", [(1, 0, 0), (3, 4), (2, 3, 5), (6, 10, 15),
                                   (0, 0, 1), (4, -6, 9, 1), (0, -5, 3)])
    def test_unimodular_with_first_row(self, y):
        w = unimodular_completion(y)
        assert w[0] == list(y)
        assert abs(det_sign(w)) == 1

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            unimodular_completion((2, 4))

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=5))
    def test_random_primitive(self, coords):
        g = math.gcd(*[abs(c) for c in coords])
        if g == 0:
            return
        y = [c // g for c in coords]
        w = unimodular_completion(y)
        assert w[0] == y
        assert abs(det_sign(w)) == 1


class TestTangentLattice:
    def test_unit_vector_gives_standard_lattice(self):
        t = tangent_lattice_pn(PrimPoint((1, 0, 0)))
        assert t.h == LogLin.zero()
        assert t.lattice.gram == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert freeness(t).l == 0.0

    def test_symmetric_plane_point(self):
        p = PrimPoint((1, 1, 1))
        t = tangent_lattice_pn(p)
        assert t.h == half_log(3) * 3  # (3/2) log 3
        r = freeness(t)
        assert r.slopes[0] == r.slopes[1]
        assert r.l == 1.0
        # quotient E/D: covolume 3^{-1/2}, shortest vector sqrt(2/3)
        q = quotient_lattice_pn(p)
        assert degree(q) == half_log(3)
        assert max_deg_rank(q, 1) == half_log(Fraction(3, 2))

    def test_curve_point(self):
        t = tangent_lattice_pn(PrimPoint((3, 4)))
        assert t.lattice.rank == 1
        assert t.h == half_log(25) * 2  # log 25
        assert freeness(t).l == 1.0

    def test_degree_equals_height_invariant(self):
        for coords in [(1, 2, 3), (5, -7, 11), (1, 0, 2, 3), (9, 4)]:
            t = tangent_lattice_pn(PrimPoint(coords))
            assert degree(t.lattice) == t.h


class TestFreenessBranches:
    def test_zero_height_is_zero(self):
        t = TangentLattice(point=PrimPoint((1, 0, 0)),
                           lattice=EucLattice(((1, 0), (0, 1))), h=LogLin.zero())
        assert freeness(t).l == 0.0

    def test_semistable_positive_mu_is_one(self):
        lat = EucLattice(((Fraction(1, 4), 0), (0, Fraction(1, 4))))
        t = TangentLattice(point=PrimPoint((1, 1)), lattice=lat, h=degree(lat))
        assert freeness(t).l == 1.0

    def test_negative_mu_is_zero(self):
        lat = EucLattice(((4, 0), (0, 4)))
        t = TangentLattice(point=PrimPoint((1, 1)), lattice=lat, h=degree(lat))
        assert freeness(t).l == 0.0


class TestClosedForm:
    def test_needs_positive_height(self):
        with pytest.raises(UndefinedHeight):
            freeness_pn_closed(PrimPoint((0, 1, 0)))

    def test_symmetric_point_is_free(self):
        assert freeness_pn_closed(PrimPoint((1, 1, 1))) == 1.0

    def test_all_routes_agree_plane(self):
        n_checked = 0
        for p in enum_points(bounded_window(V2, 6)):
            t = tangent_lattice_pn(p)
            r = freeness(t)
            f = pn_freeness_data(p)
            assert f.mu_closed == f.mu_generic
            assert f.mu_generic == r.mu_min
            assert abs(freeness_surface_tau(t) - r.l) < 1e-9
            if f.m > 1:
                assert closed_form_mu(p) == r.mu_min
                assert abs(freeness_pn_closed(p) - r.l) < 1e-12
            assert f.lam2 >= 1  # exact form of l >= 2/3
            n_checked += 1
        assert n_checked == count_pn_sieved(2, 6)

    def test_all_routes_agree_space(self):
        n_checked = 0
        for p in enum_points(bounded_window(V3, 2)):
            r = freeness(tangent_lattice_pn(p))
            f = pn_freeness_data(p)
            assert f.mu_closed == f.mu_generic == r.mu_min
            if f.m > 1:
                assert closed_form_mu(p) == r.mu_min
            assert f.lam2 >= 1 and f.lam2_adj >= f.m  # exact form of l >= 3/4
            n_checked += 1
        assert n_checked == count_pn_sieved(3, 2)


class TestProductFormula:
    def test_worked_example(self):
        l = freeness_product([PrimPoint((1, 2)), PrimPoint((1, 3))])
        assert abs(l - 2 * math.log(5) / (math.log(5) + math.log(10))) < 1e-12

    def test_zero_height_factor(self):
        assert freeness_product([PrimPoint((1, 0)), PrimPoint((1, 2))]) == 0.0
        assert freeness_product([PrimPoint((0, 1)), PrimPoint((1, 0))]) == 0.0

    def test_equal_heights(self):
        assert freeness_product([PrimPoint((1, 2)), PrimPoint((2, 1))]) == 1.0

    def test_matches_direct_sum_machinery(self):
        import random

        rng = random.Random(7)
        pairs = 0
        while pairs < 60:
            a = (rng.randint(-9, 9), rng.randint(-9, 9))
            b = (rng.randint(-9, 9), rng.randint(-9, 9))
            if a == (0, 0) or b == (0, 0):
                continue
            pa, pb = canon(a), canon(b)
            t = product_tangent_lattice([pa, pb])
            assert abs(freeness(t).l - freeness_product([pa, pb])) < 1e-9
            pairs += 1

    def test_fibration_projection_inequality(self):
        # slopes of the product dominate the projected factor: min h <= h_1
        for a, b in [((1, 2), (1, 5)), ((2, 3), (1, 1)), ((1, 7), (1, 2))]:
            ha = half_log(sum(c * c for c in PrimPoint(a).coords))
            hb = half_log(sum(c * c for c in PrimPoint(b).coords))
            assert min(ha, hb) <= ha


class TestSurfaceTau:
    def test_semistable_branch(self):
        lat = EucLattice(((Fraction(1, 4), 0), (0, Fraction(1, 4))))
        t = TangentLattice(point=PrimPoint((1, 1)), lattice=lat, h=degree(lat))
        assert freeness_surface_tau(t) == 1.0

    def test_middle_branch_half(self):
        # tau = 2i with h = 2 log 2: l = 1 - log(2)/(2 log 2) = 1/2
        lat = EucLattice(((Fraction(1, 8), 0), (0, Fraction(1, 2))))
        t = TangentLattice(point=PrimPoint((1, 1)), lattice=lat, h=degree(lat))
        assert abs(degree(lat).to_float() - 2 * math.log(2)) < 1e-12
        assert abs(freeness_surface_tau(t) - 0.5) < 1e-12
        assert abs(freeness(t).l - 0.5) < 1e-12

    def test_clamp_branch(self):
        lat = EucLattice(((Fraction(1, 64), 0), (0, Fraction(16))))
        t = TangentLattice(point=PrimPoint((1, 1)), lattice=lat, h=degree(lat))
        assert freeness_surface_tau(t) == 0.0
        assert freeness(t).l == 0.0

    def test_rank_guard(self):
        lat = EucLattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        t = TangentLattice(point=PrimPoint((1, 0, 0, 0)), lattice=lat, h=LogLin.zero())
        with pytest.raises(ValueError):
            freeness_surface_tau(t)


class TestStatisticsAndSweep:
    def test_curve_all_free(self):
        rows = list(freeness_rows(variety("pn", 1), 20, Metric.SUP))
        zero_h = [r for r in rows if r[1] == 0]
        assert len(zero_h) == 2  # (1, 0) and (0, 1)
        assert all(r[3] == 1.0 for r in rows if r[1] > 0)

    def test_product_share_identity(self):
        # at B <= 2^9 every l < 0.2 point has a height-zero factor
        stats = freeness_statistics(VP2, 100, Metric.EUCLID, thresholds=[0.2])
        cum = count_pn(1, 10, Metric.EUCLID)
        assert stats.threshold_counts[0.2] == 4 * cum - 4

    def test_sweep_matches_statistics(self):
        sweep = freeness_sweep(2, 10, thresholds=[0.51, 0.773])
        stats = freeness_statistics(V2, 10, Metric.SUP, thresholds=[0.51, 0.773])
        assert sweep.total == stats.total == count_pn_sieved(2, 10)
        assert sweep.below_counts == stats.threshold_counts
        assert sweep.bound_holds and sweep.coeffs_match

    def test_sweep_histogram_total(self):
        stats = freeness_statistics(V2, 8, Metric.SUP, bins=10)
        assert sum(stats.histogram) == stats.total

    def test_plane_share_trend(self):
        # share below 0.7 decays roughly like B^(-0.3): check monotone decay
        shares = []
        for bound in (10, 20, 40):
            s = freeness_sweep(2, bound, thresholds=[0.7])
            shares.append(s.below_counts[0.7] / s.total)
        assert shares[2] < shares[1] < shares[0]

    def test_metric_change_product_bounded(self):
        rows = metric_change_rows(2, 8, (1, 1, 4))
        prods = [abs(l0 - l1) * h for h, l0, l1 in rows if h > 0]
        assert max(prods) < 2 * math.log(4) * 3
        # the gap itself shrinks for the highest points
        top = [abs(l0 - l1) for h, l0, l1 in rows if h > 0.9 * max(r[0] for r in rows)]
        assert max(top) <= max(prods) / (0.9 * max(r[0] for r in rows))


# the threshold sets of the benchmark's freeness tasks, as floats
BENCH_THRESHOLDS = sorted({float(Fraction(x)) for t in (
    "1/5,1/2,4/5", "1/4,1/2,3/4", "1/10,1/3,2/3", "3/10,3/5,9/10",
    "1/6,2/5,5/6") for x in t.split(",")})


class TestOrbitWeighting:
    """Orbit sums against the per-point loops of `freeness_reference`."""

    @pytest.mark.parametrize("n,bounds", [(2, range(1, 13)), (3, range(1, 6))],
                             ids=["p2", "p3"])
    def test_sweep_equals_per_point_oracle(self, n, bounds):
        for bound in bounds:
            got = freeness_sweep(n, bound, BENCH_THRESHOLDS)
            assert got == reference_sweep(n, bound, BENCH_THRESHOLDS), bound

    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                             ids=["sup", "euclid"])
    @pytest.mark.parametrize("kind,n,bounds", [
        ("pn", 1, [7, Fraction(707, 100)]),
        ("pn", 2, [1, 6, Fraction(707, 100), Fraction(9, 2)]),
        ("pn", 3, [2, Fraction(603, 200), Fraction(9, 2)]),
        ("pn", 4, [1, 2]),
        # (P^1)^n: B = 1 holds only unit factors.  At sup B = 200 the cap
        # is 14 and the norm-65 points [4:7] and [1:8] have shells 7 and
        # 8, so a shell-2 factor fits beside the first but not the second
        ("p1n", 2, [1, 2, 60, 200, Fraction(707, 100), Fraction(9, 2)]),
        ("p1n", 3, [1, 12, 40, Fraction(707, 100), Fraction(9, 2)])],
        ids=["p1", "p2", "p3", "p4", "p1n2", "p1n3"])
    def test_statistics_equal_per_point_sum(self, kind, n, bounds, metric):
        v = variety(kind, n)
        for bound in bounds:
            got = freeness_statistics(v, bound, metric, BENCH_THRESHOLDS,
                                      bins=20)
            assert got == reference_statistics(v, bound, metric,
                                               BENCH_THRESHOLDS, 20), bound


@settings(deadline=None, max_examples=30)
@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)))
def test_fast_path_matches_machinery(coords):
    if coords == (0, 0, 0):
        return
    p = canon(coords)
    f = pn_freeness_data(p)
    r = freeness(tangent_lattice_pn(p))
    assert f.mu_closed == f.mu_generic == r.mu_min
    assert abs(f.l - r.l) < 1e-9


def oracle_triple(p):
    d = pn_freeness_data(p)
    return d.h.to_float(), d.mu_generic.to_float(), d.l


class TestKernel:
    """`point_freeness` against the exact LogLin assembly, compared with ==."""

    @pytest.mark.parametrize("v,bound,metric", [
        (V2, 12, Metric.SUP), (V3, 4, Metric.SUP),
        (V2, 10, Metric.EUCLID), (V3, 5, Metric.EUCLID)],
        ids=["p2-sup12", "p3-sup4", "p2-euclid10", "p3-euclid5"])
    def test_bit_equal_on_balls(self, v, bound, metric):
        n_checked = 0
        for p in enum_points(bounded_window(v, bound, metric)):
            assert point_freeness(v, p) == oracle_triple(p), p
            n_checked += 1
        assert n_checked > 1000

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-10**4, 10**4), min_size=3, max_size=4))
    def test_bit_equal_on_large_vectors(self, coords):
        if not any(coords):
            return
        p = canon(coords)
        assert point_freeness(variety("pn", p.n), p) == oracle_triple(p)

    @pytest.mark.parametrize("n,points", [
        (1, list(enum_points(bounded_window(variety("pn", 1), 40)))),
        (4, [PrimPoint(c) for c in [(1, 0, 0, 0, 0), (1, 1, 1, 1, 1),
                                    (1, 2, 0, -1, 3), (3, -1, 4, 1, 5)]])])
    def test_other_dimensions_match_newton_polygon(self, n, points):
        v = variety("pn", n)
        for p in points:
            t = tangent_lattice_pn(p)
            r = freeness(t)
            assert point_freeness(v, p) == (t.h.to_float(), r.mu_min.to_float(), r.l)
            assert all(type(x) is float for x in point_freeness(v, p)), p

    def test_product_matches_formula(self):
        pts = (PrimPoint((1, 2)), PrimPoint((1, 3)))
        h, mu, l = point_freeness(VP2, pts)
        assert l == freeness_product(pts)
        assert h == pytest.approx(math.log(50)) and mu == math.log(5)

    def test_blowup_rejected(self):
        with pytest.raises(ValueError):
            point_freeness(VB, (PrimPoint((0, 0, 1)), PrimPoint((1, 0))))

    def test_rows_go_through_the_kernel(self, monkeypatch):
        import sys

        fr = sys.modules["heightlab.freeness"]

        def forbidden(p):
            raise AssertionError("oracle route called")

        monkeypatch.setattr(fr, "pn_freeness_data", forbidden)
        rows = list(freeness_rows(V3, 2))
        assert len(rows) == count_pn_sieved(3, 2)
        assert rows[-1][1:] == point_freeness(V3, rows[-1][0])


class TestRankThreeMinima:
    """`_pn_minima` on P^3, read from the lattice layer, against the
    independent greedy reduction and box scan `_min3`, compared with ==."""

    @staticmethod
    def check(y):
        gq, m = _quotient_int_gram(y)
        assert _pn_minima(y) == (m, _min3(gq), _min3(_adj3(gq))), y

    def test_every_orbit_to_sup_height_8(self):
        orbits = [y for y, _ in _pn_orbits(3, 8, Metric.SUP)]
        for y in orbits:
            self.check(y)
        assert len(orbits) == 407

    def test_twisted_cubic_limit_points(self):
        # the points [k : k+1], k = H - 1, that `limit_experiment` maps to
        # the twisted cubic at sup heights H from 10 to 100,000
        cubic = twisted_cubic()
        heights = {*range(10, 100_001, 500), 100_000,
                   *(a * 10 ** e for a in (1, 2, 3, 5) for e in range(1, 5))}
        for h in sorted(heights):
            self.check(normalize(cubic.evaluate(h - 1, h)).coords)

    def test_point_where_reduction_alone_misses_the_minimum(self):
        # the LLL-reduced adjugate has least diagonal entry 27431596500, so
        # only the short-vector walk finds lambda_1^2 here
        y = (4983, -2498, -3921, -3596)
        self.check(y)
        assert _pn_minima(y)[2] == 25828451250


class TestPlaneMinima:
    """`_pn_minima` on P^2, the closed-form basis of y^perp meet Z^3,
    against `lagrange_gauss` of the completion's quotient form."""

    @staticmethod
    def check(y):
        gq, m = _quotient_int_gram(y)
        assert _pn_minima(y) == (m, lagrange_gauss(gq)[0], None), y

    def test_every_primitive_vector_in_a_box(self):
        box = [y for y in itertools.product(range(-12, 13), repeat=3)
               if math.gcd(*y) == 1]
        for y in box:
            self.check(y)
        assert len(box) == 12674

    @pytest.mark.parametrize("y", [(0, 0, 1), (0, 0, -1), (0, 1, 0),
                                   (1, 0, 0), (0, -5, 7), (6, 0, -5)])
    def test_axis_and_coordinate_plane_points(self, y):
        self.check(y)

    def test_first_two_coordinates_sharing_a_factor(self):
        # g = gcd(a, b) > 1 makes u = (b/g, -a/g, 0) shorter than (b, -a, 0)
        for a, b in ((6, 10), (-12, 18), (30, 0), (0, -14), (2 ** 40, 6 ** 20)):
            for c in (1, -1, 7, -11, 3 ** 25 + 2):
                if math.gcd(a, b, c) == 1:
                    self.check((a, b, c))
                    self.check((b, c, a))

    def test_random_80_bit_points(self):
        rng = random.Random(80)
        for _ in range(2000):
            y = [rng.randint(-2 ** 80, 2 ** 80) for _ in range(3)]
            g = math.gcd(*y)
            self.check(tuple(v // g for v in y))


@pytest.mark.xfail(strict=True, reason=(
    "freeness_statistics decides l < t on the float l = n mu / h; at l "
    "exactly n/(n+1) the rounding lands below the threshold, so the "
    "statistics count 51 (P^2, B = 7, t = 2/3) and 148 (P^3, B = 3, "
    "t = 3/4) where l >= n/(n+1) leaves only the height-zero points, as "
    "freeness_sweep reports; exact l < t decisions would fix it"))
def test_threshold_at_lower_bound_counts_only_height_zero():
    c2 = freeness_statistics(V2, 7, thresholds=(2 / 3,)).threshold_counts
    c3 = freeness_statistics(V3, 3, thresholds=(3 / 4,)).threshold_counts
    assert freeness_sweep(2, 7, [2 / 3]).below_counts[2 / 3] == 3
    assert freeness_sweep(3, 3, [3 / 4]).below_counts[3 / 4] == 4
    assert (c2[2 / 3], c3[3 / 4]) == (3, 4)


@pytest.mark.xfail(strict=True, reason=(
    "freeness_sweep counts l < t on the float l = n mu / h; on P^3 at "
    "B = 4 the rounding puts 144 points of positive height below t = 3/4 "
    "(148 counted, 292 at B = 6), although bound_holds certifies l >= 3/4 "
    "for each of them; exact l < t decisions would fix it"))
def test_sweep_tie_at_lower_bound_counts_only_height_zero():
    sweep = freeness_sweep(3, 4, [3 / 4])
    assert sweep.bound_holds
    assert sweep.below_counts[3 / 4] == 4


@pytest.mark.xfail(strict=True, reason=(
    "freeness_statistics decides l < t on (P^1)^n on the float l = n min "
    "h_i / sum h_i; a factor of norm m paired with one of norm m^3 has l = "
    "1/2 exactly, but the float reads 0.49999999999999994, so the "
    "statistics count 5180 (sup, B = 484) and 4108 (euclid, B = 700) where "
    "5148 and 4076 points have l < 1/2; exact l < t decisions would fix it"))
@pytest.mark.parametrize("bound, metric, exact", [
    (484, Metric.SUP, 5148), (700, Metric.EUCLID, 4076)])
def test_p1n_tie_at_one_half_is_not_below(bound, metric, exact):
    v = variety("p1n", 2)
    below = 0
    for point in enum_points(bounded_window(v, bound, metric)):
        # l = 2 log m_lo / log(m_lo m_hi) < 1/2 exactly when m_lo^3 < m_hi,
        # and l = 0 on a unit factor
        lo, hi = sorted(sum(c * c for c in f.coords) for f in point)
        below += lo == 1 or lo ** 3 < hi
    assert below == exact
    stats = freeness_statistics(v, bound, metric, thresholds=(0.5,))
    assert stats.threshold_counts[0.5] == exact
