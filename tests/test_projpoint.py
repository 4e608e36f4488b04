import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heightlab.projpoint import (
    InvalidPoint,
    Metric,
    PrimPoint,
    blowup_from_plane,
    blowup_point,
    card_projective_mod,
    enum_projective_mod,
    height_o1,
    anticanonical_height,
    multiheight,
    normalize,
    reduce_mod,
    _canonical_mod,
    variety,
)

from test_exactnum import half_log

class IncompatibleModulus(ValueError):
    pass


coords_strategy = st.lists(st.integers(-40, 40), min_size=2, max_size=5).filter(
    lambda c: any(x != 0 for x in c)
)


def mod_compat_check(p: PrimPoint, m_small: int, m_big: int) -> bool:
    """reduce_mod(p, M') is the image of reduce_mod(p, M) when M' | M."""
    if m_big % m_small != 0:
        raise IncompatibleModulus("M' must divide M")
    big = reduce_mod(p, m_big)
    projected = _canonical_mod([c % m_small for c in big.coords], m_small)
    return projected == reduce_mod(p, m_small).coords


class TestNormalize:
    def test_examples(self):
        assert normalize((6, -4)).coords == (3, -2)
        assert normalize((0, -3)).coords == (0, 1)
        assert normalize((-2, -4, -6)).coords == (1, 2, 3)

    def test_rejects_zero(self):
        with pytest.raises(InvalidPoint):
            normalize((0, 0))

    @given(coords_strategy, st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_scaling_invariance(self, c, k):
        assert normalize(c) == normalize([k * x for x in c])
        assert normalize(c) == normalize([-x for x in c])

    @given(coords_strategy)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, c):
        p = normalize(c)
        assert normalize(p.coords) == p

    def test_primpoint_validates(self):
        with pytest.raises(InvalidPoint):
            PrimPoint((2, 4))
        with pytest.raises(InvalidPoint):
            PrimPoint((-1, 2))

    @pytest.mark.parametrize("coords,message", [
        ((1,), "need >= 2 coordinates, not all zero"),
        ((), "need >= 2 coordinates, not all zero"),
        ((0, 0, 0), "need >= 2 coordinates, not all zero"),
        ((0, 2, -4), "coordinates not primitive; use normalize()"),
        ((0, -1, 2), "first nonzero coordinate must be positive"),
    ], ids=["one-coordinate", "no-coordinate", "all-zero", "not-primitive",
            "negative-lead"])
    def test_primpoint_messages(self, coords, message):
        with pytest.raises(InvalidPoint) as exc:
            PrimPoint(coords)
        assert str(exc.value) == message

    def test_primpoint_keeps_int_coordinates(self):
        p = PrimPoint([0, 3, True, -7])
        assert p.coords == (0, 3, 1, -7)
        assert all(type(c) is int for c in p.coords)


    @pytest.mark.parametrize("make", [
        lambda: normalize([1.5, 3]),
        lambda: normalize([Fraction(1, 2), 1]),
        lambda: PrimPoint((1.5, 2)),
        lambda: PrimPoint((1.0, 2)),
    ], ids=["normalize-float", "normalize-fraction", "primpoint-float",
            "primpoint-integral-float"])
    def test_non_integers_are_refused_not_truncated(self, make):
        with pytest.raises(InvalidPoint, match="coordinates must be integers"):
            make()

    def test_numpy_integers_pass(self):
        p = PrimPoint((np.int64(3), np.int32(-5)))
        assert p.coords == (3, -5)
        assert all(type(c) is int for c in p.coords)
        assert normalize(np.array([6, -4])).coords == (3, -2)


class TestHeights:
    def test_sup_and_euclid(self):
        p = normalize((3, 4))
        assert height_o1(p, Metric.SUP) == half_log(16)   # log 4
        assert height_o1(p, Metric.EUCLID) == half_log(25)  # (1/2) log 25 = log 5

    def test_unit_point_height_zero(self):
        p = normalize((1, 0, 0))
        assert height_o1(p, Metric.SUP).is_zero()
        assert height_o1(p, Metric.EUCLID).is_zero()

    @given(coords_strategy)
    @settings(max_examples=100, deadline=None)
    def test_comparability(self, c):
        # 0 <= h_euclid - h_sup <= (1/2) log(n+1), all exact
        p = normalize(c)
        gap = height_o1(p, Metric.EUCLID) - height_o1(p, Metric.SUP)
        assert gap.sign() >= 0
        assert gap <= half_log(len(p.coords))

    def test_multiheight_pn(self):
        v = variety("pn", 1)
        (h,) = multiheight(v, normalize((3, 4)), Metric.SUP)
        assert h == half_log(16)

    def test_multiheight_product(self):
        v = variety("p1n", 2)
        pt = (normalize((1, 2)), normalize((1, 3)))
        h1, h2 = multiheight(v, pt, Metric.EUCLID)
        assert (h1, h2) == (half_log(5), half_log(10))
        # anticanonical pairing with (2, 2): value log 50
        total = anticanonical_height(v, pt, Metric.EUCLID)
        assert total == half_log(2500)
        assert math.isclose(total.to_float(), math.log(50))

    def test_anticanonical_pn(self):
        v = variety("pn", 2)
        h = anticanonical_height(v, normalize((1, 1, 1)), Metric.EUCLID)
        assert h == half_log(27)  # (3/2) log 3
        assert math.isclose(h.to_float(), 1.5 * math.log(3))


class TestBlowup:
    def test_incidence_checked(self):
        p = normalize((1, 2, 5))
        blowup_point(p, normalize((1, 2)))
        with pytest.raises(InvalidPoint):
            blowup_point(p, normalize((1, 3)))

    def test_fibre_over_centre(self):
        centre = normalize((0, 0, 1))
        for q in [(1, 0), (2, 3), (1, -7)]:
            blowup_point(centre, normalize(q))

    def test_heights_on_fibre(self):
        v = variety("blowup", 2)
        pt = blowup_point(normalize((0, 0, 1)), normalize((2, 3)))
        h = anticanonical_height(v, pt, Metric.SUP)
        # H = H(P)^2 H(Q) = 1 * 3, so the height is log 3
        assert math.isclose(h.to_float(), math.log(3))
        assert h == half_log(9)

    def test_lift_from_plane(self):
        p, q = blowup_from_plane(normalize((4, 6, 1)))
        assert q.coords == (2, 3)
        with pytest.raises(InvalidPoint):
            blowup_from_plane(normalize((0, 0, 1)))

    def test_height_off_fibre(self):
        v = variety("blowup", 2)
        pt = blowup_from_plane(normalize((1, 2, 5)))
        h = anticanonical_height(v, pt, Metric.SUP)
        # H(P)^2 H(Q) = 25 * 2
        assert math.isclose(h.to_float(), math.log(50))


class TestModPoints:
    def test_reduce_examples(self):
        # [2:3] mod 3 -> (2,0) -> scale by 2^{-1} = 2 -> (1,0)
        assert reduce_mod(normalize((2, 3)), 3).coords == (1, 0)
        assert reduce_mod(normalize((1, 0)), 2).coords == (1, 0)

    def test_counts_small(self):
        assert card_projective_mod(1, 2) == 3
        assert card_projective_mod(1, 3) == 4
        assert card_projective_mod(1, 4) == 6
        assert card_projective_mod(2, 2) == 7
        assert card_projective_mod(2, 3) == 13

    def test_enum_matches_closed_form(self):
        for n in (1, 2):
            for m in (2, 3, 4, 6, 8, 9, 12):
                assert len(enum_projective_mod(n, m)) == card_projective_mod(n, m)
        assert len(enum_projective_mod(3, 6)) == card_projective_mod(3, 6)

    @pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2) for m in range(2, 31)]
                             + [(3, m) for m in range(2, 13)] + [(4, 6), (5, 6)])
    def test_enum_is_the_image_of_the_canonical_map(self, n, m):
        # every primitive vector of (Z/m)^(n+1), canonicalised one at a time
        oracle = sorted({_canonical_mod(v, m) for v in product(range(m), repeat=n + 1)
                         if math.gcd(m, *v) == 1})
        assert [p.coords for p in enum_projective_mod(n, m)] == oracle

    def test_enum_reps_are_canonical_and_sorted(self):
        pts = enum_projective_mod(1, 4)
        seen = [p.coords for p in pts]
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        # each representative starts with 1 at its first unit coordinate
        for p in pts:
            for c in p.coords:
                if math.gcd(c, 4) == 1:
                    assert c == 1
                    break

    @given(coords_strategy, st.sampled_from([2, 3, 4, 5, 6, 10, 12]))
    @settings(max_examples=80, deadline=None)
    def test_compat_with_divisor_modulus(self, c, m_small):
        p = normalize(c)
        assert mod_compat_check(p, m_small, m_small * 3)

    def test_reduction_lands_in_enum(self):
        pts = {q.coords for q in enum_projective_mod(2, 4)}
        for c in [(1, 2, 3), (5, 1, 7), (2, 3, 4), (10, 5, 3)]:
            assert reduce_mod(normalize(c), 4).coords in pts
