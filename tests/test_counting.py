import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heightlab.counting import (
    CountReport,
    HeightWindow,
    bounded_window,
    count_blowup,
    count_classes_pn,
    count_p1n,
    count_pn,
    count_pn_sieved,
    count_points,
    count_window,
    enum_points,
    int_nth_root,
    joint_class_box_counts,
    partition_leading_ranges,
    rational_power_floor,
    sup_box_measure,
)
from heightlab.exactnum import LogRat
from heightlab.projpoint import Metric, anticanonical_height, reduce_mod, variety

V1 = variety("pn", 1)
V2 = variety("pn", 2)
VP2 = variety("p1n", 2)
VB = variety("blowup", 2)


class TestRoots:
    def test_nth_root_edges(self):
        assert int_nth_root(0, 3) == 0
        assert int_nth_root(26, 3) == 2
        assert int_nth_root(27, 3) == 3
        assert int_nth_root(28, 3) == 3
        assert int_nth_root(10**30, 2) == 10**15

    def test_rational_power_floor(self):
        assert rational_power_floor(Fraction(27), Fraction(1, 3)) == 3
        assert rational_power_floor(Fraction(26), Fraction(1, 3)) == 2
        assert rational_power_floor(Fraction(9, 4), Fraction(1, 2)) == 1
        assert rational_power_floor(Fraction(4), Fraction(3, 2)) == 8

    # Exact past 2^53 and past float range; the examples defeated a
    # float-seeded Newton step (root one too small, or OverflowError).
    @given(st.one_of(st.integers(0, 10**6), st.integers(0, 10**600)),
           st.integers(1, 6))
    @example((3**40 + 7) ** 3, 2)
    @example((3**40 + 7) ** 3, 3)
    @example(2**200, 3)
    @example(10**400, 3)
    def test_nth_root_defining_property(self, x, k):
        t = int_nth_root(x, k)
        assert t**k <= x < (t + 1) ** k


class TestProjectiveCounts:
    def test_line_small_shells(self):
        # heights 1, 2, 3 contribute 4 + 4 + 8 points
        assert [count_pn_sieved(1, t) for t in (1, 2, 3)] == [4, 8, 16]

    def test_plane_unit_ball(self):
        assert count_pn_sieved(2, 1) == 13

    def test_euclid_unit_ball(self):
        assert count_pn(1, 1, Metric.EUCLID) == 2
        assert count_pn(2, 1, Metric.EUCLID) == 3

    def test_sieve_against_box_scan_line(self):
        # brute force all bounds at once: bincount of sup norms of
        # primitive vectors, cumulated, halved
        r = 100
        y0, y1 = np.meshgrid(*[np.arange(-r, r + 1)] * 2, indexing="ij")
        prim = np.gcd(np.abs(y0), np.abs(y1)) == 1
        sup = np.maximum(np.abs(y0), np.abs(y1))[prim]
        cum = np.cumsum(np.bincount(sup, minlength=r + 1))
        for bound in range(1, r + 1):
            assert count_pn_sieved(1, bound) == int(cum[bound]) // 2

    def test_sieve_against_box_scan_plane(self):
        r = 40
        axes = np.meshgrid(*[np.arange(-r, r + 1)] * 3, indexing="ij")
        g = np.zeros((), dtype=np.int64)
        mx = np.zeros((), dtype=np.int64)
        for a in axes:
            g = np.gcd(g, np.abs(a))
            mx = np.maximum(mx, np.abs(a))
        sup = mx[g == 1]
        cum = np.cumsum(np.bincount(sup, minlength=r + 1))
        for bound in range(1, r + 1):
            assert count_pn_sieved(2, bound) == int(cum[bound]) // 2

    def test_enum_matches_sieve(self):
        for bound in (1, 3, 10, 37):
            w = bounded_window(V1, bound)
            assert sum(1 for _ in enum_points(w)) == count_pn_sieved(1, bound)
        w = bounded_window(V2, 12)
        assert sum(1 for _ in enum_points(w)) == count_pn_sieved(2, 12)

    def test_enum_matches_euclid_count(self):
        for bound in (1, 5, Fraction(17, 3)):
            w = bounded_window(V2, bound, Metric.EUCLID)
            assert sum(1 for _ in enum_points(w)) == count_pn(2, bound, Metric.EUCLID)

    def test_enum_no_duplicates_and_heights(self):
        w = bounded_window(V2, 7)
        pts = list(enum_points(w))
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert anticanonical_height(V2, p) <= LogRat(Fraction(7**2)) * 3

    def test_rational_bound_truncates(self):
        assert count_pn(1, Fraction(7, 2)) == count_pn_sieved(1, 3)


class TestClassCounts:
    def test_class_sum_is_total(self):
        counts = count_classes_pn(1, 3, 50)
        assert sum(counts.values()) == count_pn_sieved(1, 50)
        assert len(counts) == 4

    def test_classes_match_enumeration(self):
        bound, modulus = 50, 3
        sieved = count_classes_pn(1, modulus, bound)
        brute: dict = {}
        for p in enum_points(bounded_window(V1, bound)):
            cls = reduce_mod(p, modulus)
            brute[cls] = brute.get(cls, 0) + 1
        assert {k: v for k, v in sieved.items() if v} == brute

    def test_plane_classes_mod_two(self):
        counts = count_classes_pn(2, 2, 20)
        assert len(counts) == 7
        assert sum(counts.values()) == count_pn_sieved(2, 20)


class TestProducts:
    def test_rank_one_product_is_projective_line(self):
        for bound in (1, 4, 50, 200):
            assert count_p1n(1, bound) == count_pn_sieved(1, math.isqrt(bound))

    def test_square_product_small(self):
        # B = 1 forces both factors to height one: 4 * 4
        assert count_p1n(2, 1) == 16
        assert count_p1n(2, 4) == 48

    def test_enum_matches_count(self):
        for bound in (1, 4, 9, 30):
            for metric in (Metric.SUP, Metric.EUCLID):
                w = bounded_window(VP2, bound, metric)
                assert sum(1 for _ in enum_points(w)) == count_p1n(2, bound, metric)

    def test_anticanonical_membership(self):
        bound = 9
        for pts in enum_points(bounded_window(VP2, bound)):
            assert anticanonical_height(VP2, pts) <= LogRat(Fraction(bound**2))


def reference_enum_p1n(n, bound, metric, first_range=None):
    """The quadratic (P^1)^n enumerator, kept as an oracle: it rescans the
    whole factor list at every level, in lexicographic order."""
    from heightlab.counting import _p1_points_shell, _shell_cap, _shell_value

    cap = _shell_cap(Fraction(bound), metric)
    factors = _p1_points_shell(cap, metric)

    def rec(level, cap_left, rng):
        for p in (factors if rng is None else
                  (q for q in factors if q.coords[0] in rng)):
            s = _shell_value(p, metric)
            if s > cap_left:
                continue
            if level == n - 1:
                yield (p,)
            else:
                for rest in rec(level + 1, cap_left // s, None):
                    yield (p,) + rest

    return list(rec(0, cap, first_range))


class TestProductEnumeration:
    @pytest.mark.parametrize("n,bound", [
        (2, 1), (2, 30), (2, Fraction(241, 3)), (2, 200),
        (3, 1), (3, 50), (3, Fraction(401, 4))])
    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID])
    def test_matches_reference_with_every_split(self, n, bound, metric):
        w = bounded_window(variety("p1n", n), bound, metric)
        whole = list(enum_points(w))
        assert whole == reference_enum_p1n(n, bound, metric)
        assert len(whole) == count_p1n(n, bound, metric)
        for workers in (2, 3, 5, 8):
            for r in partition_leading_ranges(w, workers):
                assert list(enum_points(w, r)) == \
                    reference_enum_p1n(n, bound, metric, r)


class TestBlowup:
    def test_unit_ball_split(self):
        assert count_blowup(1, Metric.SUP) == (4, 12)

    def test_enum_matches_count(self):
        for bound in (1, 4, 10):
            for metric in (Metric.SUP, Metric.EUCLID):
                w = bounded_window(VB, bound, metric)
                ce, cu = count_blowup(bound, metric)
                assert sum(1 for _ in enum_points(w)) == ce + cu

    def test_exceptional_points_come_first(self):
        pts = list(enum_points(bounded_window(VB, 4)))
        on_e = [pair[0].coords == (0, 0, 1) for pair in pts]
        ce, _ = count_blowup(4, Metric.SUP)
        assert all(on_e[:ce]) and not any(on_e[ce:])

    def test_count_points_dispatch(self):
        assert count_points(VB, 1) == 16
        assert count_points(V2, 1) == 13
        assert count_points(VP2, 1) == 16


class TestPartitions:
    @pytest.mark.parametrize("v,bound", [(V1, 40), (V2, 8), (VP2, 9), (VB, 9)])
    def test_concatenation_invariance(self, v, bound):
        w = bounded_window(v, bound)
        whole = list(enum_points(w))
        for workers in (1, 2, 3, 5):
            ranges = partition_leading_ranges(w, workers)
            pieces = [p for r in ranges for p in enum_points(w, r)]
            assert pieces == whole

    def test_boxed_partition(self):
        w = HeightWindow(variety=VP2, metric=Metric.SUP,
                         box=((Fraction(1), Fraction(3)), (Fraction(1), Fraction(2))),
                         direction=(Fraction(1), Fraction(1)), scale=Fraction(4))
        whole = list(enum_points(w))
        ranges = partition_leading_ranges(w, 3)
        assert [p for r in ranges for p in enum_points(w, r)] == whole


class TestWindows:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeightWindow(variety=V1, bound=Fraction(2), box=((Fraction(1), Fraction(2)),))
        with pytest.raises(ValueError):
            HeightWindow(variety=V1)
        with pytest.raises(ValueError):
            HeightWindow(variety=V1, box=((Fraction(2), Fraction(1)),))
        with pytest.raises(ValueError):
            HeightWindow(variety=V1, box=((Fraction(1), Fraction(2)),), scale=Fraction(1, 2))
        with pytest.raises(ValueError):
            # boundary of the dual effective cone is rejected
            HeightWindow(variety=VB, box=((Fraction(1), Fraction(2)),) * 2,
                         direction=(Fraction(1), Fraction(1)), scale=Fraction(2))

    def test_box_recovers_plain_bound(self):
        bound = 20
        w = HeightWindow(variety=V1, metric=Metric.SUP,
                         box=((Fraction(1, bound), Fraction(1)),), scale=Fraction(bound))
        assert count_window(w).count == count_pn_sieved(1, bound)

    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID])
    def test_boxed_count_matches_enum(self, metric):
        cases = [
            HeightWindow(variety=V2, metric=metric,
                         box=((Fraction(1, 2), Fraction(2)),), scale=Fraction(5)),
            HeightWindow(variety=VP2, metric=metric,
                         box=((Fraction(1), Fraction(3)), (Fraction(1, 2), Fraction(2))),
                         direction=(Fraction(1), Fraction(2)), scale=Fraction(3)),
            HeightWindow(variety=VB, metric=metric,
                         box=((Fraction(1), Fraction(4)), (Fraction(1), Fraction(3))),
                         direction=(Fraction(2), Fraction(1)), scale=Fraction(2)),
        ]
        for w in cases:
            assert count_window(w).count == sum(1 for _ in enum_points(w))

    def test_line_window_is_sieve_difference(self):
        bound = 37
        w = HeightWindow(variety=V1, metric=Metric.SUP,
                         box=((Fraction(1, 2), Fraction(1)),), scale=Fraction(bound))
        expect = count_pn_sieved(1, 37) - count_pn_sieved(1, 18)
        assert count_window(w).count == expect

    def test_reference_constant_agreement(self):
        r = count_window(HeightWindow(
            variety=V1, metric=Metric.SUP,
            box=((Fraction(1, 2), Fraction(1)),), scale=Fraction(800)))
        assert isinstance(r, CountReport)
        assert r.rel_error < 0.01
        r = count_window(HeightWindow(
            variety=VP2, metric=Metric.SUP,
            box=((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))),
            direction=(Fraction(1), Fraction(2)), scale=Fraction(64)))
        assert r.rel_error < 0.04
        r = count_window(HeightWindow(
            variety=VB, metric=Metric.SUP,
            box=((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))),
            direction=(Fraction(2), Fraction(1)), scale=Fraction(40)))
        assert r.rel_error < 0.06

    def test_window_error_shrinks_with_scale(self):
        rels = []
        for scale in (50, 200, 800):
            w = HeightWindow(variety=V1, metric=Metric.SUP,
                             box=((Fraction(1, 2), Fraction(1)),), scale=Fraction(scale))
            rels.append(count_window(w).rel_error)
        assert rels[2] < rels[0]


class TestEquidistribution:
    def test_full_box_measure_is_one(self):
        assert sup_box_measure([(-1, 1)] * 3, 2) == 1

    def test_half_space_measure(self):
        assert sup_box_measure([(0, 1), (-1, 1)], 1) == Fraction(1, 2)
        assert sup_box_measure([(Fraction(1, 2), 1), (-1, 1)], 1) == Fraction(3, 8)

    def test_box_measure_additivity(self):
        whole = sup_box_measure([(-1, 1), (-1, 1)], 1)
        left = sup_box_measure([(-1, 0), (-1, 1)], 1)
        right = sup_box_measure([(0, 1), (-1, 1)], 1)
        middle = sup_box_measure([(0, 0), (-1, 1)], 1)
        assert left + right - middle == whole

    def test_joint_counts_total(self):
        box = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1))]
        jc = joint_class_box_counts(1, 3, 20, box)
        assert sum(jc.values()) == 2 * count_pn_sieved(1, 20)

    def test_joint_box_share_approaches_measure(self):
        box = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1))]
        jc = joint_class_box_counts(1, 1, 150, box)
        total = sum(jc.values())
        inside = sum(c for (_, ib), c in jc.items() if ib)
        measure = float(sup_box_measure(box, 1))
        assert abs(inside / total - measure) < 0.01

    def test_joint_classes_match_sieve(self):
        box = [(Fraction(-1), Fraction(1))] * 2
        jc = joint_class_box_counts(1, 3, 50, box)
        per_class: dict = {}
        for (cls, _), c in jc.items():
            per_class[cls] = per_class.get(cls, 0) + c
        sieved = count_classes_pn(1, 3, 50)
        # vectors vs points: each point contributes its two sign vectors
        total_from_sieve: dict = {}
        for mp, c in sieved.items():
            for sign in (1, -1):
                key = tuple((sign * x) % 3 for x in mp.coords)
                total_from_sieve[key] = total_from_sieve.get(key, 0) + c
        assert per_class == {k: v for k, v in total_from_sieve.items() if v}


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 60), st.integers(2, 5))
def test_sieve_monotone_in_bound(bound, n):
    assert count_pn_sieved(n, bound) <= count_pn_sieved(n, bound + 1)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 30), st.integers(1, 6))
def test_partition_concatenates(bound, workers):
    w = bounded_window(V1, bound)
    ranges = partition_leading_ranges(w, workers)
    pieces = [p for r in ranges for p in enum_points(w, r)]
    assert pieces == list(enum_points(w))
