import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab.counting import bounded_window, enum_points
from heightlab.freeness import freeness_rows
from heightlab.projpoint import Metric, variety
from heightlab.zoomlab import (
    OverlayRow,
    ScanResult,
    ZoomCloud,
    ZoomConfig,
    critical_scan,
    fiber_share,
    zoom_cloud,
    zoom_freeness_overlay,
)

V1 = variety("pn", 1)
V2 = variety("pn", 2)
VP2 = variety("p1n", 2)

LOG5 = math.log(5)


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestConfig:
    def test_center_normalized(self):
        cfg = ZoomConfig(variety=V1, center=(0, 2), alpha=1, R=1, B=10)
        assert cfg.center == (0, 1)
        cfg = ZoomConfig(variety=V1, center=(-2, 4), alpha=1, R=1, B=10)
        assert cfg.center == (1, -2)

    def test_product_center_per_factor(self):
        cfg = ZoomConfig(variety=VP2, center=((2, 4), (-3, 9)), alpha=0,
                         R=1, B=5)
        assert cfg.center == ((1, 2), (1, -3))

    def test_window_value(self):
        cfg = ZoomConfig(variety=V1, center=(0, 1), alpha=Fraction(1, 2),
                         R=2, B=100)
        assert cfg.window == pytest.approx(0.2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZoomConfig(variety=V1, center=(0, 1), alpha=-1, R=1, B=10)
        with pytest.raises(ValueError):
            ZoomConfig(variety=V1, center=(0, 1), alpha=1, R=0, B=10)
        with pytest.raises(ValueError):
            ZoomConfig(variety=V1, center=(0, 1), alpha=1, R=1, B=1)
        with pytest.raises(ValueError):
            ZoomConfig(variety=V1, center=(0, 0), alpha=1, R=1, B=10)
        with pytest.raises(ValueError):
            ZoomConfig(variety=V1, center=(0, 1, 1), alpha=1, R=1, B=10)
        with pytest.raises(ValueError):
            ZoomConfig(variety=VP2, center=((0, 1),), alpha=1, R=1, B=10)
        with pytest.raises(ValueError):
            ZoomConfig(variety=VP2, center=((0, 1), (0, 1, 1)), alpha=1,
                       R=1, B=10)
        with pytest.raises(ValueError):
            ZoomConfig(variety=variety("blowup", 2), center=(0, 1),
                       alpha=1, R=1, B=10)


class TestRationalCenterCollapse:
    # Above the critical exponent a rational center is alone in its own
    # window: any other a/q differs from c by at least 1/(q den(c)).

    @pytest.mark.parametrize("bound", [2, 3, 5, 10, 100, 1000])
    def test_origin_center_is_alone_at_alpha_two(self, bound):
        cfg = ZoomConfig(variety=V1, center=(0, 1), alpha=2, R=1, B=bound)
        cloud = zoom_cloud(cfg)
        assert cloud.size == 1
        assert cloud.points[0].coords == (0, 1)
        assert cloud.chart[0] == (Fraction(0),)
        assert cloud.heights[0] == 1.0

    @pytest.mark.parametrize("bound", [4, 10, 50])
    def test_general_rational_center(self, bound):
        cfg = ZoomConfig(variety=V1, center=(1, 3), alpha=2, R=1, B=bound)
        cloud = zoom_cloud(cfg)
        assert cloud.size == 1
        assert cloud.points[0].coords == (1, 3)


class TestCriticalScan:
    def test_p1_critical_alpha(self):
        alphas = [Fraction(1, 2), Fraction(3, 4), Fraction(1),
                  Fraction(5, 4), Fraction(3, 2)]
        scan = critical_scan(V1, (0, 1), alphas, [10, 100, 1000])
        assert scan.critical_alpha == 1
        sizes = {(a, int(b)): s for a, b, s in scan.rows}
        assert sizes == {
            (Fraction(1, 2), 10): 21, (Fraction(1, 2), 100): 609,
            (Fraction(1, 2), 1000): 19225,
            (Fraction(3, 4), 10): 11, (Fraction(3, 4), 100): 183,
            (Fraction(3, 4), 1000): 3377,
            (Fraction(1), 10): 3, (Fraction(1), 100): 3,
            (Fraction(1), 1000): 3,
            (Fraction(5, 4), 10): 1, (Fraction(5, 4), 100): 1,
            (Fraction(5, 4), 1000): 1,
            (Fraction(3, 2), 10): 1, (Fraction(3, 2), 100): 1,
            (Fraction(3, 2), 1000): 1,
        }
        # below critical the cloud grows with B, above it never does
        for a in alphas:
            row = [sizes[(a, b)] for b in (10, 100, 1000)]
            if a < 1:
                assert row[0] < row[1] < row[2]
            else:
                assert row[0] == row[1] == row[2]

    def test_at_critical_cloud_is_center_and_extremes(self):
        # at alpha = 1, R = 1 only |a| <= q/B survives: a = 0 or q = B
        for bound in (7, 31):
            cfg = ZoomConfig(variety=V1, center=(0, 1), alpha=1, R=1,
                             B=bound)
            cloud = zoom_cloud(cfg)
            got = {p.coords for p in cloud.points}
            assert got == {(0, 1), (1, bound), (1, -bound)}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            critical_scan(V1, (0, 1), [], [10])
        with pytest.raises(ValueError):
            critical_scan(V1, (0, 1), [1], [])

    def test_no_nontrivial_cloud_reports_zero(self):
        scan = critical_scan(V1, (0, 1), [2, 3], [5, 11])
        assert scan.critical_alpha == 0


class TestCloudMembership:
    def test_p1_full_window_count_matches_totient_formula(self):
        # alpha=0, R=1 keeps every [a:q] with |a| <= q <= B
        cloud = zoom_cloud(ZoomConfig(variety=V1, center=(0, 1), alpha=0,
                                      R=1, B=10))
        assert cloud.size == 3 + sum(2 * euler_phi(q) for q in range(2, 11))

    def test_p2_cloud_equals_chart_ball_enumeration(self):
        cfg = ZoomConfig(variety=V2, center=(1, 1, 1), alpha=0,
                         R=Fraction(1, 2), B=8)
        cloud = zoom_cloud(cfg)
        oracle = set()
        for p in enum_points(bounded_window(V2, 8)):
            x = p.coords
            if x[2] == 0:
                continue
            ys = [Fraction(x[i], x[2]) - 1 for i in (0, 1)]
            if all(abs(y) <= Fraction(1, 2) for y in ys):
                oracle.add(p)
        assert len(oracle) == 121
        assert set(cloud.points) == oracle

    def test_p2_euclid_cloud_equals_chart_ball_enumeration(self):
        cfg = ZoomConfig(variety=V2, center=(0, 0, 1), alpha=Fraction(1, 2),
                         R=2, B=20, metric=Metric.EUCLID)
        cloud = zoom_cloud(cfg)
        oracle = set()
        for p in enum_points(bounded_window(V2, 20, Metric.EUCLID)):
            x = p.coords
            if x[2] == 0:
                continue
            ys = [Fraction(x[i], x[2]) for i in (0, 1)]
            # |y|^2 B <= R^2 is the exact alpha = 1/2 membership test
            if all(y * y * 20 <= 4 for y in ys):
                oracle.add(p)
        assert len(oracle) == 1501
        assert set(cloud.points) == oracle
        for p, h in zip(cloud.points, cloud.heights):
            norm = math.sqrt(sum(c * c for c in p.coords))
            assert h == pytest.approx(norm, abs=1e-12)

    def test_alpha_nesting(self):
        base = ZoomConfig(variety=VP2, center=((0, 1), (0, 1)), alpha=0,
                          R=1, B=50)
        mid = ZoomConfig(variety=VP2, center=((0, 1), (0, 1)),
                         alpha=Fraction(1, 2), R=1, B=50)
        top = ZoomConfig(variety=VP2, center=((0, 1), (0, 1)), alpha=1,
                         R=1, B=50)
        s0 = set(zoom_cloud(base).points)
        s1 = set(zoom_cloud(mid).points)
        s2 = set(zoom_cloud(top).points)
        assert s2 <= s1 <= s0
        assert len(s2) < len(s1) < len(s0)

    def test_product_heights_multiply(self):
        cfg = ZoomConfig(variety=VP2, center=((0, 1), (0, 1)),
                         alpha=Fraction(1, 2), R=1, B=30)
        cloud = zoom_cloud(cfg)
        assert cloud.size > 1
        for pt, h in zip(cloud.points, cloud.heights):
            expect = 1
            for pair in pt:
                expect *= max(abs(c) for c in pair)
            assert h == float(expect)
            assert expect <= 30

    def test_rescaled_scales_chart(self):
        cfg = ZoomConfig(variety=V1, center=(0, 1), alpha=Fraction(1, 2),
                         R=1, B=25)
        cloud = zoom_cloud(cfg)
        assert cloud.B_pow_alpha() == pytest.approx(5.0)
        for ys, zs in zip(cloud.chart, cloud.rescaled):
            for y, z in zip(ys, zs):
                assert z == pytest.approx(float(y) * 5.0)
                assert abs(z) <= 1.0 + 1e-12


class TestFiberShare:
    def test_needs_product_variety(self):
        cloud = zoom_cloud(ZoomConfig(variety=V1, center=(0, 1), alpha=0,
                                      R=1, B=5))
        with pytest.raises(ValueError):
            fiber_share(cloud, Fraction(1, 10))

    def test_rejects_bad_band(self):
        cloud = zoom_cloud(ZoomConfig(variety=VP2, center=((0, 1), (0, 1)),
                                      alpha=1, R=1, B=10))
        with pytest.raises(ValueError):
            fiber_share(cloud, 0)

    def test_empty_cloud(self):
        # center [3:4] has height 4 > B and nothing else fits the window
        cloud = zoom_cloud(ZoomConfig(variety=VP2, center=((3, 4), (0, 1)),
                                      alpha=3, R=1, B=2))
        assert cloud.size == 0
        with pytest.raises(ValueError):
            fiber_share(cloud, 1)

    def test_pure_fiber_cloud(self):
        cloud = zoom_cloud(ZoomConfig(variety=VP2, center=((0, 1), (0, 1)),
                                      alpha=1, R=1, B=30))
        assert sorted(cloud.points) == [
            ((0, 1), (0, 1)), ((0, 1), (1, -30)), ((0, 1), (1, 30)),
            ((1, -30), (0, 1)), ((1, 30), (0, 1)),
        ]
        assert fiber_share(cloud, 1) == 1.0

    def test_zoom_concentrates_on_fibers(self):
        delta = Fraction(1, 10)
        baseline = fiber_share(zoom_cloud(ZoomConfig(
            variety=VP2, center=((0, 1), (0, 1)), alpha=0, R=40, B=40)),
            delta)
        share_small = fiber_share(zoom_cloud(ZoomConfig(
            variety=VP2, center=((0, 1), (0, 1)), alpha=1, R=40, B=40)),
            delta)
        share_big = fiber_share(zoom_cloud(ZoomConfig(
            variety=VP2, center=((0, 1), (0, 1)), alpha=1, R=40, B=200)),
            delta)
        assert baseline < share_small < share_big
        assert share_big > 0.75


class TestOverlay:
    def test_p1_rows(self):
        cloud = zoom_cloud(ZoomConfig(variety=V1, center=(0, 1),
                                      alpha=Fraction(1, 2), R=1, B=50))
        rows = zoom_freeness_overlay(cloud)
        assert len(rows) == cloud.size > 1
        for row, pt, h in zip(rows, cloud.points, cloud.heights):
            assert row.point == pt.coords
            assert row.h == pytest.approx(math.log(h))
            assert row.l == (1.0 if h > 1 else 0.0)
        assert any(row.l == 0.0 for row in rows)  # the center itself

    def test_p1_sup_window_uses_euclid_freeness(self):
        # [1:1] has sup height 1 but euclid height sqrt 2, so l = 1, as in
        # freeness_rows; only [0:1] and [1:0] have l = 0
        cloud = zoom_cloud(ZoomConfig(variety=V1, center=(1, 1), alpha=0,
                                      R=1, B=3))
        rows = zoom_freeness_overlay(cloud)
        expect = {p.coords: l for p, _, _, l in freeness_rows(V1, 3)}
        assert (1, 1) in [r.point for r in rows]
        for r in rows:
            assert r.l == expect[r.point]
        assert [r.point for r in rows if r.l == 0.0] == [(0, 1)]

    def test_fiber_points_follow_exact_height_law(self):
        # euclid heights make l a function of height alone on each fiber:
        # l * log H = log 5 for points ([1:2], [a:b]) away from the center
        cfg = ZoomConfig(variety=VP2, center=((1, 2), (1, 2)), alpha=1,
                         R=40, B=100, metric=Metric.EUCLID)
        cloud = zoom_cloud(cfg)
        rows = zoom_freeness_overlay(cloud)
        fiber = [(cloud.heights[i], rows[i].l)
                 for i, ys in enumerate(cloud.chart)
                 if any(y == 0 for y in ys)]
        assert len(fiber) > 500
        off_center = [(h, l) for h, l in fiber if h > math.sqrt(5) + 1e-9]
        assert off_center
        for h, l in off_center:
            assert abs(l * math.log(h) - LOG5) < 1e-12

    def test_fiber_freeness_decreases_with_height(self):
        cfg = ZoomConfig(variety=VP2, center=((1, 2), (1, 2)), alpha=1,
                         R=40, B=100, metric=Metric.EUCLID)
        cloud = zoom_cloud(cfg)
        rows = zoom_freeness_overlay(cloud)
        by_height = {}
        for i, ys in enumerate(cloud.chart):
            if any(y == 0 for y in ys):
                h = round(cloud.heights[i], 9)
                by_height.setdefault(h, set()).add(round(rows[i].l, 12))
        assert all(len(v) == 1 for v in by_height.values())
        levels = sorted(by_height)
        values = [max(by_height[h]) for h in levels]
        assert all(b < a for a, b in zip(values, values[1:]))


@settings(deadline=None, max_examples=30)
@given(st.integers(-8, 8), st.integers(1, 8), st.sampled_from([0, 1, 2]),
       st.integers(9, 30))
def test_window_membership_is_exact(a, b, alpha_num, bound):
    alpha = Fraction(alpha_num, 2)
    cfg = ZoomConfig(variety=V1, center=(a, b), alpha=alpha, R=1, B=bound)
    cloud = zoom_cloud(cfg)
    c0, c1 = cfg.center
    cf = Fraction(c0, c1)
    radius_q = Fraction(1)
    p, q = alpha.numerator, alpha.denominator
    for pt, ys, h in zip(cloud.points, cloud.chart, cloud.heights):
        u, v = pt.coords
        assert math.gcd(u, v) == 1
        assert max(abs(u), abs(v)) <= bound
        assert h == float(max(abs(u), abs(v)))
        y = ys[0]
        assert abs(y) ** q * Fraction(bound) ** p <= radius_q
        # chart value really is the distance to the center
        assert v != 0 and Fraction(u, v) - cf == y
    # the center has height max(|a|,|b|)/gcd <= 8 <= B, so it is present
    assert any(pt.coords == cfg.center for pt in cloud.points)
