import collections
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab.geomcurve import (
    BranchData,
    ConstantMap,
    CurveMap,
    NotAMorphism,
    approx_exponent,
    conic_p2,
    coordinate_line_p2,
    curve_from_json,
    curve_to_json,
    double_cover_line,
    expected_dim,
    geometric_freeness,
    h0_twist,
    identity_p1,
    is_very_free,
    limit_experiment,
    line_p2,
    mckinnon_roth_alpha,
    splitting_type,
    twisted_cubic,
)
from heightlab.exactnum import IntEchelon

from linalg_reference import int_rank, reference_rank


def change_coordinates(c: CurveMap, mat) -> CurveMap:
    """Compose with the linear map `mat` on the ambient coordinates."""
    if len(mat) != c.n + 1 or any(len(row) != c.n + 1 for row in mat):
        raise ValueError("matrix must be square of size n+1")
    forms = tuple(
        tuple(sum(mat[i][j] * c.forms[j][pos] for j in range(c.n + 1))
              for pos in range(c.d + 1))
        for i in range(c.n + 1)
    )
    return CurveMap(n=c.n, d=c.d, forms=forms)


def _form_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def change_parameter(c: CurveMap, mat) -> CurveMap:
    """Precompose with (s, t) -> (a s + b t, c s + d t), mat = ((a,b),(c,d))."""
    (pa, pb), (pc, pd) = mat
    spow = [[1]]
    tpow = [[1]]
    for _ in range(c.d):
        spow.append(_form_mul(spow[-1], [pa, pb]))
        tpow.append(_form_mul(tpow[-1], [pc, pd]))
    forms = []
    for f in c.forms:
        acc = [0] * (c.d + 1)
        for j, coeff in enumerate(f):
            if coeff:
                term = _form_mul(spow[c.d - j], tpow[j])
                for pos, val in enumerate(term):
                    acc[pos] += coeff * val
        forms.append(tuple(acc))
    return CurveMap(n=c.n, d=c.d, forms=tuple(forms))


def reference_mult_rank(c: CurveMap, e: int) -> int:
    """Rank of (g_0..g_n) -> sum f_i g_i from degree e-d forms to degree e."""
    k = e - c.d
    if k < 0:
        return 0
    rows = []
    for f in c.forms:
        for j in range(k + 1):
            # multiply f by s^(k-j) t^j: shifts the t-exponent by j
            row = [0] * (e + 1)
            for i, coeff in enumerate(f):
                row[i + j] = coeff
            rows.append(row)
    return int_rank(rows)


def reference_h0_twist(c: CurveMap, m: int) -> int:
    """h^0 of f*(T P^n)(m), from the long exact sequence of the Euler twist

        0 -> O(m) -> O(d+m)^{n+1} -> f*(T)(m) -> 0.

    For m <= -2 the connecting map lands in H^1(O(m)); its rank equals,
    by duality, the rank of the multiplication pairing of
    `reference_mult_rank`.
    """
    n, d = c.n, c.d
    h = (n + 1) * max(0, d + m + 1) - max(0, m + 1)
    if m <= -2:
        h += (-m - 1) - reference_mult_rank(c, -m - 2)
    return h


def reference_splitting_type(c: CurveMap) -> tuple:
    """Splitting degrees from the h^0 step function, one fresh rank per
    twist: h^0(E(m)) = sum_i max(0, a_i + m + 1), so consecutive
    differences count the a_i above each level.  `splitting_type` used
    this scan before the mu-basis walk replaced it."""
    h_prev = reference_h0_twist(c, 0)
    counts = []  # counts[v-1] = #{i : a_i >= v}
    m = -1
    while True:
        h = reference_h0_twist(c, m)
        counts.append(h_prev - h)
        if h == 0:
            break
        assert m > -(c.n + 1) * c.d - 2, "h^0 failed to vanish"
        h_prev = h
        m -= 1
    a = []
    for v in range(len(counts) - 1, 0, -1):
        a.extend([v] * (counts[v] - (counts[v + 1] if v + 1 < len(counts) else 0)))
    a.extend([0] * (counts[0] - len(a)))
    return tuple(sorted(a, reverse=True))


def seeded_curves(seed=3, count=1000):
    """Curves with n = 1..4 and d <= 10: random small forms, a third of
    them with f_n = f_0 or f_n = f_0 + 2 f_1 planted, and some pulled back
    through the double cover t -> t^2, so that unbalanced types occur."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, d = rng.randint(1, 4), rng.randint(1, 10)
        cover = d % 2 == 0 and rng.random() < 0.25
        k = d // 2 if cover else d
        forms = [[rng.randint(-4, 4) for _ in range(k + 1)] for _ in range(n + 1)]
        plant = rng.random()
        if plant < 0.2:
            forms[n] = list(forms[0])
        elif plant < 0.35 and n >= 2:
            forms[n] = [x + 2 * y for x, y in zip(forms[0], forms[1])]
        if cover:
            forms = [[0 if j % 2 else f[j // 2] for j in range(d + 1)]
                     for f in forms]
        try:
            out.append(CurveMap(n=n, d=d, forms=tuple(map(tuple, forms))))
        except ValueError:
            continue
    return out


@pytest.fixture
def echelon_rows(monkeypatch):
    """A list that grows by one entry per `IntEchelon.add` call."""
    calls = []
    add = IntEchelon.add

    def counted(self, row):
        calls.append(1)
        return add(self, row)

    monkeypatch.setattr(IntEchelon, "add", counted)
    return calls


class TestAgainstTheTwistScan:
    def test_splitting_type_matches_the_scan(self):
        unbalanced = 0
        for c in seeded_curves():
            a = splitting_type(c).a
            assert a == reference_splitting_type(c), c
            unbalanced += a[0] - a[-1] > 1
        assert unbalanced > 200

    def test_h0_twist_matches_the_scan(self):
        for c in seeded_curves(seed=4, count=60) + [conic_p2(), double_cover_line()]:
            for m in range(-2 * c.d - 2, 1):
                assert h0_twist(c, m) == reference_h0_twist(c, m), (c, m)

    def test_the_walk_adds_rows_only_up_to_the_largest_mu(self, echelon_rows):
        # one row per live form and degree j <= max mu: a scan that ranks
        # a matrix per twist would add far more
        for c in seeded_curves(seed=5, count=150):
            echelon_rows.clear()
            CurveMap(n=c.n, d=c.d, forms=c.forms)
            max_mu = splitting_type(c).a[0] - c.d
            assert len(echelon_rows) <= (c.n + 1) * (max_mu + 1), c
            assert len(echelon_rows) <= (c.n + 1) * (c.d + 1), c

    def test_one_walk_per_curve(self, echelon_rows):
        # the walk runs when the curve is built; every later question reads
        # its degrees.  Form i adds a row for j = 0..mu_i and the form that
        # never retires one for j = 0..max mu.
        named = [line_p2(), coordinate_line_p2(), conic_p2(), twisted_cubic(),
                 double_cover_line(), identity_p1()]
        # limit_experiment's point freeness adds no echelon rows for n <= 3
        seeded = [c for c in seeded_curves(seed=6, count=60) if c.n <= 3]
        for c in named + seeded:
            echelon_rows.clear()
            c = CurveMap(n=c.n, d=c.d, forms=c.forms)
            splitting_type(c)
            for m in range(-3, 4):
                h0_twist(c, m)
            geometric_freeness(c)
            is_very_free(c)
            limit_experiment(c, [10, 100])
            mu = [a - c.d for a in splitting_type(c).a]
            assert len(echelon_rows) == sum(m + 1 for m in mu) + max(mu) + 1, c


class TestSplittingType:
    def test_line(self):
        assert splitting_type(line_p2()).a == (2, 1)
        assert splitting_type(coordinate_line_p2()).a == (2, 1)

    def test_conic_is_balanced(self):
        # the Euler extension 0 -> O(2) -> E -> O(4) -> 0 does not split:
        # h^0(E(-4)) = 0, so there is no O(4) summand
        assert h0_twist(conic_p2(), -4) == 0
        assert splitting_type(conic_p2()).a == (3, 3)

    def test_twisted_cubic_is_balanced(self):
        assert h0_twist(twisted_cubic(), -5) == 0
        assert splitting_type(twisted_cubic()).a == (4, 4, 4)

    def test_double_cover_of_line(self):
        # pull-back of the split restriction (2,1) under a degree 2 cover
        assert splitting_type(double_cover_line()).a == (4, 2)

    def test_identity(self):
        assert splitting_type(identity_p1()).a == (2,)

    def test_degree_sum(self):
        for c in (line_p2(), conic_p2(), twisted_cubic(), double_cover_line()):
            assert splitting_type(c).degree == (c.n + 1) * c.d

    def test_h0_at_zero_counts_global_deformations(self):
        # h^0(f* T) = sum (a_i + 1) when all a_i >= 0
        for c in (line_p2(), conic_p2(), twisted_cubic()):
            st_ = splitting_type(c)
            assert h0_twist(c, 0) == sum(a + 1 for a in st_.a)

    def test_coordinate_invariance(self):
        u = ((1, 1, 0), (0, 1, 0), (2, 0, 1))
        assert splitting_type(change_coordinates(conic_p2(), u)).a == (3, 3)
        u4 = ((1, 0, 0, 3), (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))
        assert splitting_type(change_coordinates(twisted_cubic(), u4)).a == (4, 4, 4)

    def test_parameter_invariance(self):
        g = ((2, 1), (1, 1))
        assert splitting_type(change_parameter(conic_p2(), g)).a == (3, 3)
        assert splitting_type(change_parameter(line_p2(), g)).a == (2, 1)

    def test_reparametrized_map_agrees_pointwise(self):
        g = ((1, 2), (0, 1))
        c = conic_p2()
        cg = change_parameter(c, g)
        for u, v in [(1, 0), (0, 1), (3, 2), (-1, 4)]:
            su, sv = u + 2 * v, v
            assert cg.evaluate(u, v) == c.evaluate(su, sv)


def reference_poly_gcd(p: list, q: list) -> list:
    """Gcd of univariate polynomials with Fraction coefficients, ascending,
    by plain Euclid; the base-point test used it before the integer
    primitive remainder sequence replaced it."""

    def trim(r):
        while r and r[-1] == 0:
            r.pop()
        return r

    a = trim([Fraction(c) for c in p])
    b = trim([Fraction(c) for c in q])
    while b:
        while len(a) >= len(b):
            lead = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= lead * c
            trim(a)
            if not a:
                break
        a, b = b, a
    return a


# primitive non-monic common factors, ascending in t: 2t + 3,
# 3t^2 - t + 5, 4t^3 + 6t - 9
PLANTED = ([3, 2], [5, -1, 3], [-9, 6, 0, 4])


def _random_poly(rng, degree, size=5):
    """A polynomial of the given degree, neither of whose end coefficients is 0."""
    if degree == 0:
        return [rng.choice([-2, -1, 1, 3])]
    return ([rng.choice([-2, -1, 1, 3])] + [rng.randint(-size, size) for _ in range(degree - 1)]
            + [rng.choice([-2, -1, 1, 3])])


class TestPolyGcd:
    @pytest.mark.parametrize("factor", PLANTED)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_planted_factor_is_a_base_point(self, factor, n):
        rng = random.Random(10 * n + len(factor))
        for _ in range(20):
            k = rng.randint(1, 5)
            forms = [tuple(_form_mul(factor, _random_poly(rng, k))) for _ in range(n + 1)]
            with pytest.raises(NotAMorphism, match="nonconstant factor"):
                CurveMap(n=n, d=len(factor) - 1 + k, forms=tuple(forms))

    def test_curve_maps_accepted_exactly_when_the_oracle_finds_no_factor(self):
        # n <= 5, d <= 12; half the maps with a common factor (s^k, t^k or
        # a random one), some forms zero and some maps constant
        rng = random.Random(5)
        seen = collections.Counter()
        for _ in range(1500):
            n, d = rng.randint(1, 5), rng.randint(1, 12)
            k = rng.randint(1, d) if rng.random() < 0.5 else 0
            kind = rng.random()
            if kind < 0.15:
                common = [0] * k + [1]
            elif kind < 0.3:
                common = [1] + [0] * k
            else:
                common = [rng.randint(-2, 2) for _ in range(k)] + [rng.choice([-2, -1, 1, 2])]
            cofactors = [[rng.randint(-2, 2) for _ in range(d - k + 1)]
                         for _ in range(n + 1)]
            if rng.random() < 0.1:
                cofactors = [[rng.randint(-2, 2) * x for x in cofactors[0]]
                             for _ in range(n + 1)]
            forms = tuple(tuple(_form_mul(common, g)) if rng.random() >= 0.1
                          else (0,) * (d + 1) for g in cofactors)
            nonzero = [f for f in forms if any(f)]
            if not nonzero:
                want = ValueError
            elif reference_rank(forms) < 2:
                want = ConstantMap
            else:
                g = list(nonzero[0])
                for f in nonzero[1:]:
                    g = reference_poly_gcd(g, list(f))
                # a gcd in t misses a power of s, the forms' vanishing top
                # coefficients
                s_divides = all(f[-1] == 0 for f in nonzero)
                t_divides = all(f[0] == 0 for f in nonzero)
                shared = len(g) > 1 or s_divides or t_divides
                want = NotAMorphism if shared else None
                seen["s"] += s_divides and not t_divides
                seen["t"] += t_divides and not s_divides
            try:
                CurveMap(n=n, d=d, forms=forms)
            except ValueError as exc:
                got = type(exc)
            else:
                got = None
            assert got is want, forms
            seen[want] += 1
            seen["zero form"] += want is not ConstantMap and len(nonzero) <= n
        assert seen[None] > 500 and seen[NotAMorphism] > 400, seen
        assert seen[ConstantMap] > 150 and seen[ValueError] > 0, seen
        assert seen["zero form"] > 250 and seen["s"] > 50 and seen["t"] > 100, seen


class TestValidation:
    def test_degree_zero_is_constant(self):
        with pytest.raises(ConstantMap):
            CurveMap(n=2, d=0, forms=((1,), (2,), (3,)))

    def test_proportional_forms_are_constant(self):
        with pytest.raises(ConstantMap):
            CurveMap(n=2, d=2, forms=((1, 0, 0), (2, 0, 0), (0, 0, 0)))

    def test_common_factor_rejected(self):
        with pytest.raises(NotAMorphism):
            CurveMap(n=2, d=2, forms=((1, 1, 0), (0, 1, 1), (1, 2, 1)))

    def test_common_s_rejected(self):
        with pytest.raises(NotAMorphism):
            CurveMap(n=1, d=2, forms=((1, 1, 0), (0, 1, 0)))

    def test_common_t_rejected(self):
        with pytest.raises(NotAMorphism):
            CurveMap(n=1, d=2, forms=((0, 1, 1), (0, 0, 1)))

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            CurveMap(n=1, d=2, forms=((1, 0), (0, 1)))

    @pytest.mark.parametrize("forms", [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1.5)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1.0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1))),
        ((1, 0, 0), (0, 1, 0), (0, 0, "1")),
    ], ids=["float", "integral-float", "fraction", "string"])
    def test_non_integer_coefficients_refused(self, forms):
        with pytest.raises(ValueError, match="integers"):
            CurveMap(n=2, d=2, forms=forms)

    def test_non_integer_degree_refused(self):
        with pytest.raises(ValueError, match="integers"):
            CurveMap(n=2.0, d=2, forms=((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @pytest.mark.parametrize("text", [
        '{"n": 2, "d": 2, "forms": [[1,0,0],[0,1,0],[0,0,1.5]]}',
        '{"d": 2, "forms": [[1,0,0],[0,1,0],[0,0,1]]}',
        '[[1,0,0],[0,1,0],[0,0,1]]',
        '{"n": 2, "d": 2, "forms": 5}',
        '{"n": 2, "d": 2, "forms": [[1,0,0],[0,1,0],7]}',
        '{"n": "2", "d": 2, "forms": [[1,0,0],[0,1,0],[0,0,1]]}',
    ], ids=["float", "no-n", "list", "forms-int", "form-int", "n-string"])
    def test_malformed_json_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            curve_from_json(text)

    def test_evaluate_scaling(self):
        c = conic_p2()
        base = c.evaluate(3, 2)
        scaled = c.evaluate(6, 4)
        assert scaled == tuple(4 * x for x in base)


class TestFreeness:
    def test_values(self):
        assert geometric_freeness(line_p2()) == Fraction(2, 3)
        assert geometric_freeness(conic_p2()) == Fraction(1)
        assert geometric_freeness(twisted_cubic()) == Fraction(1)
        assert geometric_freeness(double_cover_line()) == Fraction(2, 3)
        assert geometric_freeness(identity_p1()) == Fraction(1)

    def test_always_very_free_into_pn(self):
        # dual Euler sequence forces a_n >= d >= 1 for any morphism to P^n
        for c in (line_p2(), conic_p2(), twisted_cubic(),
                  double_cover_line(), identity_p1()):
            assert is_very_free(c)
            assert splitting_type(c).a[-1] >= c.d


class TestBranches:
    def test_single_rational_branch(self):
        assert mckinnon_roth_alpha(BranchData(((1, 1),), 3)) == Fraction(1, 3)
        assert mckinnon_roth_alpha(BranchData(((1, 1),), 2)) == Fraction(1, 2)

    def test_complex_branch_contributes_zero(self):
        assert mckinnon_roth_alpha(BranchData(((0, 5),), 4)) == 0

    def test_max_over_branches(self):
        b = BranchData(((1, 2), (2, 1), (0, 7)), 4)
        assert mckinnon_roth_alpha(b) == Fraction(1, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BranchData((), 3)
        with pytest.raises(ValueError):
            BranchData(((3, 1),), 3)
        with pytest.raises(ValueError):
            BranchData(((1, 0),), 3)


class TestExpectedDim:
    def test_values(self):
        assert expected_dim(2, 1, 0) == 5
        assert expected_dim(1, 1, 0) == 3
        assert expected_dim(2, 1, 2) == 1
        assert expected_dim(3, 3, 0) == 15

    def test_invalid(self):
        with pytest.raises(ValueError):
            expected_dim(0, 1, 0)
        with pytest.raises(ValueError):
            expected_dim(2, 1, -1)


class TestLimitExperiment:
    def test_line_gap_law(self):
        # image points (k, k+1, k+1) satisfy |l - 2/3| * h = log 2 exactly
        rows = limit_experiment(line_p2(), [10, 100, 1000, 10000]).rows
        assert len(rows) == 4
        for r in rows:
            assert abs(r.gap * r.h_image - math.log(2)) < 1e-9
        gaps = [r.gap for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert rows[2].gap <= 0.05  # parameter height 10^3

    def test_line_fit_exponent(self):
        rows = limit_experiment(line_p2(), [10, 32, 100, 316, 1000]).rows
        assert abs(approx_exponent(rows) + 1.0) < 1e-6

    def test_identity_all_free(self):
        rows = limit_experiment(identity_p1(), [5, 50, 500]).rows
        assert all(r.l == 1.0 for r in rows)
        with pytest.raises(ValueError):
            approx_exponent(rows)  # every gap is zero

    def test_zero_height_image_skipped(self):
        c = CurveMap(n=1, d=1, forms=((2, -1), (-1, 1)))
        rows = limit_experiment(c, [2, 3]).rows
        assert [r.param for r in rows] == [(2, 3)]

    def test_double_cover_converges_to_two_thirds(self):
        # image points sit on the coordinate line, where l = 2/3 exactly
        rows = limit_experiment(double_cover_line(), [10, 100]).rows
        for r in rows:
            assert abs(r.l - 2 / 3) < 1e-12
            assert r.gap < 1e-12


class TestSerialization:
    def test_roundtrip(self):
        c = twisted_cubic()
        assert curve_from_json(curve_to_json(c)) == c

    def test_format(self):
        text = curve_to_json(line_p2())
        assert '"n": 2' in text and '"d": 1' in text


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_random_conics_sum_rule(coeffs):
    try:
        c = CurveMap(n=2, d=2, forms=tuple(tuple(f) for f in coeffs))
    except ValueError:
        return
    st_ = splitting_type(c)
    assert st_.degree == 6
    assert st_.a[0] >= 2
    assert st_.a[-1] >= c.d
    g = ((1, 1), (0, 1))
    assert splitting_type(change_parameter(c, g)).a == st_.a
