import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab.counting import (_capped_tuples, _shell_cap, _shell_value,
                                bounded_window, enum_points)
from heightlab.freeness import _p1n_freeness, point_freeness
from heightlab.projpoint import Metric, PrimPoint, normalize, variety
from heightlab.zoomlab import (
    _window_ranges,
    ScanResult,
    ZoomCloud,
    ZoomConfig,
    critical_scan,
    fiber_share,
    zoom_cloud,
    zoom_freeness_overlay,
)

from freeness_reference import freeness_rows

V1 = variety("pn", 1)
V2 = variety("pn", 2)
VP2 = variety("p1n", 2)
VP3 = variety("p1n", 3)

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

    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                             ids=["sup", "euclid"])
    def test_p1n_cloud_order(self, metric):
        # by first-factor height key, then, within a run of the same first
        # factor, by second-factor key
        cloud = zoom_cloud(ZoomConfig(variety=VP2, center=((1, 2), (1, 2)),
                                      alpha=1, R=40, B=200, metric=metric))
        keys = [tuple(_shell_value(f, metric) for f in pt) for pt in cloud.points]
        assert cloud.size > 100
        for i in range(1, cloud.size):
            assert keys[i - 1][0] <= keys[i][0], cloud.points[i]
            if cloud.points[i - 1][0] == cloud.points[i][0]:
                assert keys[i - 1][1] <= keys[i][1], cloud.points[i]

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
        overlay = zoom_freeness_overlay(cloud)
        assert len(overlay) == cloud.size > 1
        for pt, h, l in zip(cloud.points, cloud.heights, overlay):
            assert l == (1.0 if h > 1 else 0.0), pt
        assert 0.0 in overlay  # the center itself

    def test_p1_sup_window_uses_euclid_freeness(self):
        # [1:1] has sup height 1 but euclid height sqrt 2, so l = 1, as in
        # freeness_rows; only [0:1] and [1:0] have l = 0
        cloud = zoom_cloud(ZoomConfig(variety=V1, center=(1, 1), alpha=0,
                                      R=1, B=3))
        overlay = zoom_freeness_overlay(cloud)
        expect = {p.coords: l for p, _, _, l in freeness_rows(V1, 3)}
        points = [p.coords for p in cloud.points]
        assert (1, 1) in points
        for point, l in zip(points, overlay):
            assert l == expect[point]
        assert [p for p, l in zip(points, overlay) if l == 0.0] == [(0, 1)]

    @pytest.mark.parametrize("v,center,bound,metric", [
        (VP2, ((1, 2), (1, 2)), 200, Metric.SUP),
        (VP2, ((1, 2), (1, 2)), 150, Metric.EUCLID),
        (VP3, ((0, 1), (1, 1), (2, 3)), 60, Metric.SUP)],
        ids=["p1n2-sup", "p1n2-euclid", "p1n3-sup"])
    def test_product_rows_equal_point_freeness(self, v, center, bound, metric):
        cloud = zoom_cloud(ZoomConfig(variety=v, center=center, alpha=1,
                                      R=40, B=bound, metric=metric))
        overlay = zoom_freeness_overlay(cloud)
        assert len(overlay) == cloud.size > 100
        assert len(set(overlay)) > 10
        for point, l in zip(cloud.points, overlay):
            expect = point_freeness(v, [PrimPoint(p) for p in point])[2]
            assert l == expect, point

    def test_fiber_points_follow_exact_height_law(self):
        # euclid heights make l a function of height alone on each fiber:
        # l * log H = log 5 for points ([1:2], [a:b]) away from the center
        cfg = ZoomConfig(variety=VP2, center=((1, 2), (1, 2)), alpha=1,
                         R=40, B=100, metric=Metric.EUCLID)
        cloud = zoom_cloud(cfg)
        overlay = zoom_freeness_overlay(cloud)
        fiber = [(cloud.heights[i], overlay[i])
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
        overlay = zoom_freeness_overlay(cloud)
        by_height = {}
        for i, ys in enumerate(cloud.chart):
            if any(y == 0 for y in ys):
                h = round(cloud.heights[i], 9)
                by_height.setdefault(h, set()).add(round(overlay[i], 12))
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


def zoom_oracle(cfg):
    """Brute-force zoom: every point of the height ball, kept when each of
    its chart coordinates passes the exact Fraction test
    |y|^r B^p <= R^r (alpha = p/r).  Returns {point: (chart, height)}."""
    p, r = cfg.alpha.numerator, cfg.alpha.denominator

    def inside(y):
        return abs(y) ** r * cfg.B ** p <= cfg.R ** r

    def chart(x, c):
        j = max(i for i, ci in enumerate(c) if ci != 0)
        if x[j] == 0:
            return None
        return tuple(Fraction(x[i], x[j]) - Fraction(c[i], c[j])
                     for i in range(len(c)) if i != j)

    out = {}
    v, sup = cfg.variety, cfg.metric is Metric.SUP
    if v.kind == "pn":
        for pt in enum_points(bounded_window(v, cfg.B, cfg.metric)):
            ys = chart(pt.coords, cfg.center)
            if ys is not None and all(inside(y) for y in ys):
                x = pt.coords
                h_sq = max(abs(c) for c in x) ** 2 if sup else \
                    sum(c * c for c in x)
                out[pt] = (ys, math.sqrt(h_sq))
        return out
    # (P^1)^n: the anticanonical bound B^2 caps the product of factor
    # heights (sup) resp. squared heights (euclid) by B resp. B^2
    for pts in enum_points(bounded_window(v, cfg.B ** 2, cfg.metric)):
        ys = [chart(f.coords, c) for f, c in zip(pts, cfg.center)]
        if any(y is None for y in ys) or not all(inside(y[0]) for y in ys):
            continue
        key = 1
        for f in pts:
            a, b = f.coords
            key *= max(abs(a), abs(b)) if sup else a * a + b * b
        height = float(key) if sup else math.sqrt(float(key))
        out[tuple(f.coords for f in pts)] = (tuple(y[0] for y in ys), height)
    return out


_ALPHAS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
           Fraction(1), Fraction(3, 2)]
_RADII = st.fractions(min_value=Fraction(1, 4), max_value=3,
                      max_denominator=5).filter(lambda x: x > 0)


@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
@pytest.mark.parametrize("kind", ["p1", "p2", "p1n2"])
@settings(deadline=None, max_examples=20)
@given(data=st.data(), alpha=st.sampled_from(_ALPHAS), radius=_RADII,
       bound=st.fractions(min_value=2, max_value=14, max_denominator=3))
def test_exact_windows_match_brute_force(kind, metric, data, alpha, radius,
                                         bound):
    coord = st.integers(-3, 3)
    if kind == "p1":
        v, center = V1, data.draw(st.tuples(coord, coord))
    elif kind == "p2":
        v, center = V2, data.draw(st.tuples(coord, coord, coord))
    else:
        v = VP2
        center = data.draw(st.tuples(st.tuples(coord, coord),
                                     st.tuples(coord, coord)))
    parts = center if kind == "p1n2" else (center,)
    if any(not any(c) for c in parts):
        return
    bound = max(bound, Fraction(2))
    cfg = ZoomConfig(variety=v, center=center, alpha=alpha, R=radius,
                     B=bound, metric=metric)
    cloud = zoom_cloud(cfg)
    oracle = zoom_oracle(cfg)
    got = dict(zip(cloud.points, zip(cloud.chart, cloud.heights)))
    assert len(got) == cloud.size
    assert got == oracle
    if kind == "p1n2" and cloud.size:
        p, r = alpha.numerator, alpha.denominator
        for delta in (Fraction(1, 10), Fraction(1, 2), Fraction(7, 3)):
            hits = sum(1 for ys, _ in oracle.values()
                       if any(abs(y) ** r * bound ** p <= delta ** r
                              for y in ys))
            assert fiber_share(cloud, delta) == hits / len(oracle)


def reference_pn_cloud(cfg):
    """(points, chart, heights) of a P^n zoom by the walk over every
    q = 1..floor(B), as `_pn_cloud` formed them before it skipped the q
    whose windows can hold only the center."""
    n, center = cfg.variety.n, cfg.center
    j = max(i for i, c in enumerate(center) if c != 0)
    others = [i for i in range(n + 1) if i != j]
    cf = [Fraction(center[i], center[j]) for i in others]
    cap = _shell_cap(cfg.B ** 2, cfg.metric)
    rows = []
    qs = range(1, int(cfg.B) + 1)
    for q, ranges in zip(qs, zip(*(_window_ranges(cfg, c, qs) for c in cf))):
        for combo in itertools.product(*ranges):
            x = [0] * (n + 1)
            x[j] = q
            for i, v in zip(others, combo):
                x[i] = v
            s = _shell_value(x, cfg.metric)
            if math.gcd(*x) != 1 or s > cap:
                continue
            ys = tuple(Fraction(v, q) - c for v, c in zip(combo, cf))
            height = float(s) if cfg.metric is Metric.SUP else math.sqrt(s)
            rows.append((normalize(x), ys, height))
    return tuple(tuple(col) for col in zip(*rows)) if rows else ((), (), ())


@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
@pytest.mark.parametrize("center", [(0, 1), (1, 2), (-1, 2), (1, 2, 3)],
                         ids=str)
def test_pn_cloud_equals_the_walk_over_every_q(center, metric):
    sizes = []
    for alpha in (1, 2, 3, Fraction(1, 2), Fraction(3, 2)):
        for radius in (Fraction(1), Fraction(3), Fraction(1, 2)):
            for bound in (Fraction(2), Fraction(7), Fraction(31, 2),
                          Fraction(40)):
                cfg = ZoomConfig(variety=variety("pn", len(center) - 1),
                                 center=center, alpha=alpha, R=radius,
                                 B=bound, metric=metric)
                cloud = zoom_cloud(cfg)
                assert (cloud.points, cloud.chart, cloud.heights) == \
                    reference_pn_cloud(cfg), cfg
                sizes.append(cloud.size)
    assert 1 in sizes and max(sizes) > 1


@pytest.mark.parametrize("v,center", [
    (V1, (0, 1)), (V2, (1, 2, 3)), (variety("p1n", 1), ((0, 1),)),
    (VP2, ((0, 1), (1, 2)))], ids=["p1", "p2", "p1n1", "p1n2"])
@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
def test_cloud_of_the_center_alone_skips_the_empty_windows(v, center, metric):
    # K(q) = floor(q cd / B^2) is 0 for every q <= B = 1e9: the walk over
    # every q took longer than 10 s, the cloud is the center alone
    cfg = ZoomConfig(variety=v, center=center, alpha=2, R=1, B=10 ** 9,
                     metric=metric)
    start = time.perf_counter()
    cloud = zoom_cloud(cfg)
    assert time.perf_counter() - start < 1.0
    assert cloud.size == 1
    assert all(y == 0 for y in cloud.chart[0])


def reference_factor_candidates(cfg, center):
    """Every P^1 point in the window of one center, unpruned: rows
    ((pair, chart value, height key), height key) sorted by key.  The
    product zoom built these before it cut each factor at the cap over the
    other factors' least keys."""
    j = 1 if center[1] != 0 else 0
    cf = Fraction(center[1 - j], center[j])
    cn, cd = cf.numerator, cf.denominator
    out = []
    qs = range(1, int(cfg.B) + 1)
    for q, window in zip(qs, _window_ranges(cfg, cf, qs)):
        for a in window:
            if math.gcd(a, q) != 1:
                continue
            pair = (q, a) if j == 0 else (a, q) if a >= 0 else (-a, -q)
            key = _shell_value(pair, cfg.metric)
            out.append(((pair, Fraction(a * cd - cn * q, q * cd), key), key))
    out.sort(key=lambda row: row[1])
    return out


def reference_product_zoom(cfg, deltas):
    """(points, chart, heights, rescaled, overlay, fiber shares) of a
    product zoom, every value formed point by point from the unpruned
    candidates, as the product zoom formed them before it read each
    distinct factor once."""
    candidates = {c: reference_factor_candidates(cfg, c)
                  for c in set(cfg.center)}
    combos = list(_capped_tuples([candidates[c] for c in cfg.center],
                                 _shell_cap(cfg.B ** 2, cfg.metric)))
    points = tuple(tuple(row[0] for row in combo) for combo in combos)
    chart = tuple(tuple(row[1] for row in combo) for combo in combos)
    heights = []
    for combo in combos:
        h = float(math.prod(row[2] for row in combo))
        heights.append(math.sqrt(h) if cfg.metric is Metric.EUCLID else h)
    scale = float(cfg.B) ** float(cfg.alpha)
    rescaled = tuple(tuple(float(y) * scale for y in ys) for ys in chart)
    overlay = tuple(_p1n_freeness([_shell_value(p, Metric.EUCLID)
                                   for p in point])[2] for point in points)
    p, r = cfg.alpha.numerator, cfg.alpha.denominator
    shares = [sum(1 for ys in chart
                  if any(abs(y) ** r * cfg.B ** p <= d ** r for y in ys))
              / len(chart) if chart else None for d in deltas]
    return points, chart, tuple(heights), rescaled, overlay, shares


_CENTERS = [(1, 2), (0, 1), (1, 0), (-1, 2)]
_PRODUCT_CENTERS = (
    [(c,) for c in _CENTERS]
    + [(a, b) for a in _CENTERS for b in _CENTERS]
    + [(c,) * 3 for c in _CENTERS]
    + [((1, 2), (0, 1), (1, 0)), ((-1, 2), (1, 0), (-1, 2)),
       ((1, 0), (1, 2), (1, 2))])


@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(2)], ids=str)
def test_pruned_product_zoom_matches_unpruned_listing(metric, alpha):
    deltas = (Fraction(1, 10), Fraction(1), Fraction(7, 3))
    sizes = []
    for center in _PRODUCT_CENTERS:
        small = len(center) == 3
        for radius, bound in ((Fraction(2), Fraction(6 if small else 12)),
                              (Fraction(1, 3), Fraction(8 if small else 31, 2))):
            cfg = ZoomConfig(variety=variety("p1n", len(center)),
                             center=center, alpha=alpha, R=radius, B=bound,
                             metric=metric)
            cloud = zoom_cloud(cfg)
            points, chart, heights, rescaled, overlay, shares = \
                reference_product_zoom(cfg, deltas)
            assert cloud.points == points, cfg
            assert cloud.chart == chart
            assert cloud.heights == heights
            assert cloud.rescaled == rescaled
            assert zoom_freeness_overlay(cloud) == overlay
            # each factor is built once, and only if some point holds it
            assert {i for t in cloud.index for i in t} == \
                set(range(len(cloud.factors)))
            if cloud.size:
                assert [fiber_share(cloud, d) for d in deltas] == shares
            sizes.append(cloud.size)
    assert 0 in sizes and max(sizes) >= 1


def test_empty_product_cloud_from_one_empty_factor():
    # [7:9] has no point of height <= 3 near it at alpha 3; the cloud is
    # empty though [0:1] alone would fill its own window
    cfg = ZoomConfig(variety=VP2, center=((0, 1), (7, 9)), alpha=3, R=1,
                     B=3)
    cloud = zoom_cloud(cfg)
    assert cloud.size == 0 and cloud.factors == () and cloud.index == ()
    assert reference_product_zoom(cfg, ())[0] == ()


def test_product_zoom_builds_only_candidates_that_can_enter():
    # least key 5 ([1:2] itself) on each factor, cap 100^2: a candidate
    # enters only with key <= 2000, so q <= 44 is scanned, not q <= 100
    cfg = ZoomConfig(variety=VP2, center=((1, 2), (1, 2)), alpha=1, R=40,
                     B=100, metric=Metric.EUCLID)
    cloud = zoom_cloud(cfg)
    unpruned = reference_factor_candidates(cfg, (1, 2))
    assert len(cloud.factors) == sum(1 for _, key in unpruned if key <= 2000)
    assert len(cloud.factors) < len(unpruned) / 2


@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
def test_least_key_walk_stops_past_the_best_key(metric):
    # the center's denominator 1001e7 is past the cap, and every window
    # below q = 1e7 holds at most one a: only the stop at the first q past
    # the least key, 1001 of [1000:1001], keeps the walk short
    c = (1000 * 10 ** 7 + 1, 1001 * 10 ** 7)
    cfg = ZoomConfig(variety=VP2, center=(c, c), alpha=1, R=1, B=10 ** 7,
                     metric=metric)
    start = time.perf_counter()
    cloud = zoom_cloud(cfg)
    assert time.perf_counter() - start < 1.0
    assert cloud.size == 1
    assert cloud.points == (((1000, 1001), (1000, 1001)),)


@pytest.mark.parametrize("v,center", [
    (V1, (1, 2)), (V2, (1, 2, 3)), (V2, (0, 1, 0)),
    (variety("p1n", 1), ((1, 2),)), (VP2, ((1, 2), (0, 1))),
    (VP3, ((1, 2), (1, 2), (1, 0)))],
    ids=["p1", "p2", "p2-axis", "p1n1", "p1n2", "p1n3"])
@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
def test_cloud_rows_and_index_agree(v, center, metric):
    sizes = []
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        cfg = ZoomConfig(variety=v, center=center, alpha=alpha, R=2, B=9,
                         metric=metric)
        cloud = zoom_cloud(cfg)
        assert cloud.size == len(cloud.index) == len(cloud.heights)
        assert cloud.size == len(cloud.points) == len(cloud.chart)
        # every factor row is some point's
        assert {i for t in cloud.index for i in t} == \
            set(range(len(cloud.factors)))
        if v.kind == "pn":
            assert cloud.index == tuple((i,) for i in range(cloud.size))
            assert [p.coords for p in cloud.points] == \
                [x for x, _ in cloud.factors]
        else:
            assert all(len(t) == v.n for t in cloud.index)
        sizes.append(cloud.size)
    assert max(sizes) > 1


@pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                         ids=["sup", "euclid"])
def test_one_factor_product_cloud_is_the_p1_cloud(metric):
    sizes = []
    for center in ((0, 1), (1, 2), (-1, 2), (1, 0), (3, 7), (5, 2),
                   (13, 41)):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
            for radius, bound in ((Fraction(1), Fraction(12)),
                                  (Fraction(5, 2), Fraction(31, 2)),
                                  (Fraction(1, 3), Fraction(40))):
                def cloud(v, c):
                    return zoom_cloud(ZoomConfig(
                        variety=v, center=c, alpha=alpha, R=radius, B=bound,
                        metric=metric))

                p1 = cloud(V1, center)
                p1n1 = cloud(variety("p1n", 1), (center,))
                assert {p.coords: row for p, row in
                        zip(p1.points, zip(p1.chart, p1.heights))} == \
                    {pair: row for (pair,), row in
                     zip(p1n1.points, zip(p1n1.chart, p1n1.heights))}
                sizes.append(p1.size)
    assert 0 in sizes and 1 in sizes and max(sizes) > 20
