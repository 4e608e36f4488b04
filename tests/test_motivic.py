import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab import motivic
from heightlab.motivic import (
    L,
    ONE,
    LPoly,
    LSeries,
    class_homd,
    class_pn,
    class_wd,
    euler_product_inverse,
    filtration_level,
    geometric_double_inverse,
    kapranov_residue,
    lpoly_to_json,
    lseries_to_json,
    normalized_symbol,
    substitute_tate_inverse,
    u_convolve,
    verify_recurrence,
)


def poly(d):
    return LPoly.of(d)


class TestLPoly:
    def test_construction_drops_zeros(self):
        assert poly({3: 0, 1: 2}).terms == ((1, 2),)
        assert poly({}).is_zero

    def test_arithmetic(self):
        a = poly({0: 1, 1: 1})
        b = poly({0: -1, 1: 1})
        assert a * b == poly({2: 1, 0: -1})
        assert a + b == poly({1: 2})
        assert a - a == LPoly()
        assert (-a) + a == LPoly()
        assert a ** 2 == poly({0: 1, 1: 2, 2: 1})
        assert a ** 0 == ONE

    def test_laurent_shift(self):
        assert L.shift(-3) == LPoly.tate(-2)
        assert poly({0: 1, 2: 5}).shift(-2) == poly({-2: 1, 0: 5})

    def test_exponent_range(self):
        p = poly({-2: 1, 5: 3})
        assert p.min_exp == -2 and p.max_exp == 5
        with pytest.raises(ValueError):
            _ = LPoly().max_exp

    def test_exact_division(self):
        for n in range(5):
            num = LPoly.tate(n + 1) - ONE
            assert num.exact_div(L - ONE) == class_pn(n)
        q = poly({3: 2, -1: 6})
        d = poly({2: 1, -2: 3})
        assert (q * d).exact_div(d) == q

    def test_division_failures(self):
        with pytest.raises(ValueError):
            (L * L + ONE).exact_div(L - ONE)
        with pytest.raises(ValueError):
            ONE.exact_div(L - ONE)  # would need an infinite series
        with pytest.raises(ValueError):
            L.exact_div(LPoly.const(2))
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(LPoly())

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            (L + ONE) ** -1


class TestLSeries:
    def test_truncation(self):
        s = LSeries.from_poly(poly({2: 1, -3: 4, -9: 7}), 5)
        assert s.terms == ((-3, 4), (2, 1))
        assert s.coeff(-3) == 4 and s.coeff(0) == 0
        with pytest.raises(ValueError):
            s.coeff(-6)
        with pytest.raises(ValueError):
            LSeries(cutoff=-1)

    def test_level(self):
        assert LSeries.from_poly(LPoly.tate(-3), 10).level() == 3
        assert LSeries.from_poly(LPoly(), 10).level() == 11
        assert LSeries.from_poly(L, 10).level() == -1

    def test_product_tracks_cutoff(self):
        a = LSeries.from_poly(poly({0: 1, -1: 1}), 10)
        b = LSeries.from_poly(L, 10)
        prod = a * b
        # multiplying by L shifts what is knowable by one level
        assert prod.cutoff == 9
        assert prod.terms == ((0, 1), (1, 1))

    def test_product_level_superadditive(self):
        a = LSeries.from_poly(LPoly.tate(-2) + LPoly.tate(-5), 12)
        b = LSeries.from_poly(LPoly.tate(-3), 12)
        assert (a * b).level() >= a.level() + b.level()


class TestProjectiveClasses:
    def test_small_projective_spaces(self):
        assert class_pn(0) == ONE
        assert class_pn(1) == poly({0: 1, 1: 1})
        assert class_pn(2) == poly({0: 1, 1: 1, 2: 1})

    def test_morphism_space_small_degrees(self):
        # degree 1 self-maps of the line form its automorphism group
        assert class_homd(1, 1) == poly({3: 1, 1: -1})
        assert class_homd(1, 2) == poly({5: 1, 3: -1})

    def test_morphism_space_validation(self):
        with pytest.raises(ValueError):
            class_homd(1, 0)
        with pytest.raises(ValueError):
            class_homd(0, 1)

    def test_normalized_symbol_stabilizes(self):
        for n in (1, 2, 3):
            limit = class_pn(n) * (ONE - LPoly.tate(-n))
            for d in range(1, 11):
                assert normalized_symbol(n, d) == limit

    def test_gcd_one_tuples(self):
        assert class_wd(1, 0) == poly({2: 1, 0: -1})
        assert class_wd(2, 0) == poly({3: 1, 0: -1})
        assert class_wd(1, 1) == poly({4: 1, 3: -1, 2: -1, 1: 1})
        assert class_wd(1, 1) == (L - ONE) * class_homd(1, 1)

    def test_degree_one_recurrence_by_hand(self):
        lhs = LPoly.tate(4) - LPoly.tate(2)
        rhs = class_wd(1, 1) + class_wd(1, 0).shift(1)
        assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recurrence(self, n):
        assert verify_recurrence(n, 10)

    def test_torsor_identity(self):
        for n in (1, 2, 3):
            for d in (1, 2, 5, 10):
                assert (L - ONE) * class_homd(n, d) == class_wd(n, d)


def reference_recurrence_rhs(n, d):
    """sum_k L^k [W_{d-k}] as a double sum, every [W_j] built afresh; the
    one-pass recurrence of `verify_recurrence` replaced it."""
    rhs = LPoly()
    for k in range(d + 1):
        rhs = rhs + class_wd(n, d - k).shift(k)
    return rhs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_incremental_rhs_equals_the_double_sum(n):
    rhs = LPoly()
    for d in range(16):
        rhs = class_wd(n, d) + rhs.shift(1)
        assert rhs == reference_recurrence_rhs(n, d)
        assert rhs == LPoly.tate((n + 1) * (d + 1)) - LPoly.tate((n + 1) * d)


@pytest.mark.parametrize("bad_d", [0, 3, 9])
def test_recurrence_fails_on_a_wrong_class(monkeypatch, bad_d):
    # [W_bad_d] off by one term: the recurrence breaks at bad_d
    true_wd = motivic.class_wd

    def off_by_one(n, d):
        return true_wd(n, d) + (LPoly.tate(1) if d == bad_d else LPoly())

    monkeypatch.setattr(motivic, "class_wd", off_by_one)
    assert not verify_recurrence(2, 10)
    assert not verify_recurrence(2, bad_d)
    assert verify_recurrence(2, bad_d - 1)


class TestZetaResidue:
    def test_closed_form(self):
        r = kapranov_residue(5)
        assert r.terms == tuple((e, 1) for e in range(-5, 1))
        assert r.cutoff == 5

    def test_truncations_agree(self):
        r5 = kapranov_residue(5)
        r10 = kapranov_residue(10)
        deep = [(e, c) for e, c in r10.terms if e >= -5]
        assert tuple(deep) == r5.terms

    def test_substitution_order_matters(self):
        # the bare factor 1 - L U vanishes at U = 1/L ...
        bare = substitute_tate_inverse([ONE, -L], 8)
        assert bare.is_zero
        # ... yet the residue, formed as a product first, does not
        assert not kapranov_residue(8).is_zero

    def test_convolution(self):
        zeta = [class_pn(d) for d in range(4)]
        prod = u_convolve([ONE, -L], zeta)
        assert prod[0] == ONE
        for c in prod[1:4]:
            assert c == ONE  # [P^d] - L [P^{d-1}] = 1

    def test_substitution_commutes_with_truncation(self):
        coeffs = [class_pn(d) for d in range(7)]
        narrow = substitute_tate_inverse(coeffs, 4)
        wide = substitute_tate_inverse(coeffs, 12)
        shallow = [(e, c) for e, c in wide.terms if e >= -4]
        assert tuple(shallow) == narrow.terms

    def test_validation(self):
        with pytest.raises(ValueError):
            kapranov_residue(0)
        with pytest.raises(ValueError):
            substitute_tate_inverse([ONE], -1)


class TestEulerProduct:
    @pytest.mark.parametrize("n,cutoff", [(1, 6), (2, 6), (1, 20), (2, 20),
                                          (3, 20)])
    def test_sum_matches_double_geometric_series(self, n, cutoff):
        assert euler_product_inverse(n, cutoff) == \
            geometric_double_inverse(n, cutoff)

    def test_small_case_by_hand(self):
        # n=1: sum_m [P^m] L^{-2m} = 1 + (L+1)L^{-2} + ... has coefficient
        # at L^{-k} equal to the number of ways k = i + 2j
        s = euler_product_inverse(1, 6)
        assert [s.coeff(-k) for k in range(7)] == [1, 1, 2, 2, 3, 3, 4]

    def test_combines_to_residue_times_power(self):
        # multiplying back by the stable symbol leaves L^n/(1 - L^{-1})
        for n in (1, 2, 3):
            constant = class_pn(n) * (ONE - LPoly.tate(-n))
            prod = LSeries.from_poly(constant, 20) * \
                euler_product_inverse(n, 20)
            assert prod.cutoff == 20 - n
            expect = {e: 1 for e in range(-(20 - n), n + 1)}
            assert prod == LSeries(cutoff=20 - n,
                                   terms=tuple(sorted(expect.items())))

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_product_inverse(0, 5)
        with pytest.raises(ValueError):
            euler_product_inverse(1, 0)


class TestFiltrationLevel:
    def test_equal_series_reach_cutoff(self):
        a = LSeries.from_poly(class_pn(3), 9)
        assert filtration_level(a, a) == 9

    def test_single_deep_term(self):
        a = LSeries.from_poly(LPoly.tate(-3), 7)
        b = LSeries.from_poly(LPoly(), 7)
        assert filtration_level(a, b) == 3

    def test_requires_common_cutoff(self):
        a = LSeries.from_poly(ONE, 5)
        b = LSeries.from_poly(ONE, 6)
        with pytest.raises(ValueError):
            filtration_level(a, b)

    def test_normalized_symbols_indistinguishable(self):
        cutoff = 20
        series = [LSeries.from_poly(normalized_symbol(2, d), cutoff)
                  for d in range(1, 11)]
        for a in series:
            for b in series:
                assert filtration_level(a, b) == cutoff


class TestJson:
    def test_poly_terms_top_first(self):
        assert lpoly_to_json(class_homd(1, 1)) == {"terms": [[3, 1], [1, -1]]}

    def test_series_carries_cutoff(self):
        out = lseries_to_json(kapranov_residue(2))
        assert out == {"terms": [[0, 1], [-1, 1], [-2, 1]], "cutoff": 2}


small_polys = st.dictionaries(st.integers(-5, 5), st.integers(-9, 9),
                              max_size=5).map(LPoly.of)


@settings(deadline=None, max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero and not b.is_zero:
        # no zero divisors, so top exponents add
        assert (a * b).max_exp == a.max_exp + b.max_exp
