import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from heightlab.exactnum import (
    IntEchelon,
    LogLin,
    build_sieve,
    factorize,
    int_adjugate,
    int_det,
    zeta,
)
from linalg_reference import int_rank, reference_adjugate, reference_det, reference_rank


def half_log(q) -> LogLin:
    """(1/2) log q, the exact form of heights and lattice degrees."""
    return LogLin.from_log(q, Fraction(1, 2))


class TestLogRat:
    """Half-logarithms (1/2) log q of positive rationals q, held as
    one-term `LogLin` values."""

    def test_add_multiplies_arguments(self):
        assert half_log(2) + half_log(3) == half_log(6)

    def test_int_scaling_is_power(self):
        assert half_log(2) * 3 == half_log(8)
        assert 3 * half_log(2) == half_log(8)

    def test_neg_and_sub(self):
        assert -half_log(4) == half_log(Fraction(1, 4))
        assert half_log(8) - half_log(2) == half_log(4)

    def test_compare_exact(self):
        # the float filter sees no gap; the exact fallback decides
        assert half_log(10 ** 60 + 1) > half_log(10 ** 60)
        assert half_log(5).compare(half_log(5)) == 0

    def test_zero_and_float(self):
        assert LogLin.zero().is_zero()
        assert half_log(1).is_zero()
        assert LogLin.zero().to_float() == 0
        assert math.isclose(half_log(16).to_float(), math.log(4))
        # one term rounds as 0.5 * (log num - log den), bit for bit
        assert half_log(Fraction(16, 9)).to_float() == 0.5 * (math.log(16) - math.log(9))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            half_log(Fraction(0))
        with pytest.raises(ValueError):
            half_log(Fraction(-2))

    def test_rejects_float_scaling(self):
        with pytest.raises(TypeError):
            half_log(2) * 0.5


class TestLogLin:
    def test_merge_and_zero(self):
        x = LogLin.from_log(2, Fraction(1, 2)) + LogLin.from_log(2, Fraction(-1, 2))
        assert x.is_zero()

    def test_exact_tie(self):
        # (1/2) log 4 == log 2 exactly, float gap is zero
        a = LogLin.from_log(4, Fraction(1, 2))
        b = LogLin.from_log(2, 1)
        assert a.compare(b) == 0

    def test_close_call_decided_exactly(self):
        # log(2^64) vs 64*log(2) + log(1 + tiny): filter gap ~ 1e-19
        tiny = Fraction(10 ** 19 + 1, 10 ** 19)
        a = LogLin.from_log(Fraction(2) ** 64, 1) + LogLin.from_log(tiny, 1)
        b = LogLin.from_log(2, 64)
        assert a.compare(b) == 1

    @given(st.lists(st.tuples(st.fractions(Fraction(1, 50), 50, max_denominator=50),
                              st.fractions(-5, 5, max_denominator=6)), max_size=5),
           st.fractions(-4, 4, max_denominator=5))
    @settings(max_examples=120, deadline=None)
    def test_neg_and_scale_terms_equal_the_merged_ones(self, terms, k):
        x = LogLin(terms)
        assert (-x).terms == LogLin([(a, -c) for a, c in x.terms]).terms
        assert x.scale(k).terms == LogLin([(a, c * k) for a, c in x.terms]).terms

    def test_scaling_by_zero_gives_the_zero_element(self):
        x = LogLin.from_log(Fraction(9, 2), Fraction(1, 2)).scale(0)
        assert x.terms == () and x.is_zero()
        assert type(x.to_float()) is int

    def test_rational_coefficients(self):
        # (1/4) log(4/3) pair sums to (1/2) log(4/3)
        mu = LogLin.from_log(Fraction(4, 3), Fraction(1, 4))
        assert (mu + mu).compare(LogLin.from_log(Fraction(4, 3), Fraction(1, 2))) == 0

    @given(
        st.integers(1, 400), st.integers(1, 400),
        st.integers(1, 400), st.integers(1, 400),
    )
    @settings(max_examples=80, deadline=None)
    def test_compare_matches_float_on_clear_gaps(self, p, q, r, s):
        a = LogLin.from_log(Fraction(p, q), 1)
        b = LogLin.from_log(Fraction(r, s), 1)
        fa, fb = a.to_float(), b.to_float()
        if abs(fa - fb) > 1e-9:
            assert a.compare(b) == (1 if fa > fb else -1)


entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12))


@st.composite
def int_matrices(draw, square=True):
    """Integer matrices up to 7 x 7: full, of forced low rank (a product
    through k < min(rows, cols) columns), or with zeroed rows."""
    rows = draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["full", "low_rank", "zero_rows"]))

    def mat(r, c):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if shape == "low_rank":
        k = draw(st.integers(0, min(rows, cols) - 1))
        left, right = mat(rows, k), mat(k, cols)
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
                for i in range(rows)]
    m = mat(rows, cols)
    if shape == "zero_rows":
        for i in draw(st.sets(st.integers(0, rows - 1), min_size=1)):
            m[i] = [0] * cols
    return m


class TestIntLinearAlgebra:
    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_det_matches_reference(self, m):
        assert int_det(m) == reference_det(m)

    @given(int_matrices(square=False))
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_reference(self, m):
        rank = int_rank(m)
        assert rank == reference_rank(m)
        assert int_rank([list(col) for col in zip(*m)]) == rank

    @given(int_matrices(square=False))
    @settings(max_examples=150, deadline=None)
    def test_echelon_keeps_the_rank_of_every_prefix(self, m):
        ech = IntEchelon()
        for k, row in enumerate(m, 1):
            before = len(ech)
            kept = ech.add(row)
            assert len(ech) == reference_rank(m[:k])
            assert kept == (len(ech) == before + 1)

    def test_echelon_rows_are_primitive_and_filed_by_last_entry(self):
        ech = IntEchelon()
        assert ech.add([6, 4, 2])
        # (3, 0, 9) - 9 (3, 2, 1) = (-24, -18), whose content is 6
        assert ech.add([3, 0, 9, 0])
        assert not ech.add([0, 0, 0, 0, 0])
        assert not ech.add([9, 8, -5])  # 2 (6, 4, 2) - (3, 0, 9)
        assert ech.rows == {2: [3, 2, 1], 1: [-4, -3]}
        assert len(ech) == 2

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_adjugate_matches_reference(self, m):
        adj = int_adjugate(m)
        assert adj == reference_adjugate(m)
        det = int_det(m)
        n = len(m)
        for i in range(n):
            for j in range(n):
                assert sum(adj[i][k] * m[k][j] for k in range(n)) == (det if i == j else 0)

    def test_small_and_degenerate_inputs(self):
        assert int_det([]) == 1
        assert int_det([[-4]]) == -4
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_rank([]) == 0
        assert int_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert int_rank([[0, 2, 4], [0, 1, 2], [0, 0, 0]]) == 1
        # rows with a zero in the pivot column must still be scaled, or the
        # next exact division floors [0, 0, 1] // 2 to a zero row
        assert int_rank([[2, 0, 0], [0, 1, 1], [0, 1, 2]]) == 3
        assert int_adjugate([[7]]) == [[1]]
        assert int_adjugate([[1, 2], [2, 4]]) == [[4, -2], [-2, 1]]


def reference_sieve(limit):
    """mu and phi for 0..limit from the linear sieve `build_sieve` ran
    before its byte table, kept as an oracle: every composite is reached
    once, from its smallest prime factor."""
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    spf = [0] * (limit + 1)
    primes = []
    mu[1] = 1
    phi[1] = 1
    for n in range(2, limit + 1):
        if spf[n] == 0:
            spf[n] = n
            primes.append(n)
            mu[n] = -1
            phi[n] = n - 1
        for p in primes:
            m = n * p
            if p > spf[n] or m > limit:
                break
            spf[m] = p
            if n % p == 0:
                mu[m] = 0
                phi[m] = phi[n] * p
            else:
                mu[m] = -mu[n]
                phi[m] = phi[n] * (p - 1)
    return mu, phi


def mobius_by_factoring(n):
    fac = factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


class TestSieve:
    def test_small_values(self):
        t = build_sieve(60)
        assert [t.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        assert [t.totient(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    @given(st.integers(2, 3000))
    @settings(max_examples=60, deadline=None)
    def test_mobius_sum_over_divisors(self, n):
        t = build_sieve(n)
        total = sum(t.mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)

    @given(st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_multiplicativity_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) != 1:
            return
        t = build_sieve(a * b)
        assert t.mobius(a * b) == t.mobius(a) * t.mobius(b)
        assert t.totient(a * b) == t.totient(a) * t.totient(b)

    @given(st.integers(1, 10 ** 4))
    @settings(max_examples=60, deadline=None)
    @example(1)
    @example(2)
    @example(4095)
    @example(4096)
    @example(4097)
    @example(10 ** 4)
    def test_matches_linear_sieve(self, limit):
        mu, phi = reference_sieve(limit)
        t = build_sieve(limit)
        assert list(t.mu) == mu
        assert list(t.phi) == phi

    # past 4096^2 the sieving primes run to sqrt(limit), and the log byte
    # decides the one prime above them
    def test_past_the_fixed_prime_bound(self):
        limit = 2 ** 24 + 3000
        mu = build_sieve(limit).mu
        rng = random.Random(3)
        picks = [*range(limit - 3000, limit + 1),
                 *(rng.randrange(1, limit) for _ in range(2000)),
                 4093 * 4099, 2 * 4099, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19]
        assert [mu[n] for n in picks] == [mobius_by_factoring(n) for n in picks]

    def test_factorize(self):
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(1) == []
        assert factorize(97) == [(97, 1)]


class TestZeta:
    def test_against_closed_forms(self):
        assert abs(zeta(2, 1e-10) - math.pi ** 2 / 6) <= 1e-10
        assert abs(zeta(4, 1e-10) - math.pi ** 4 / 90) <= 1e-10

    def test_zeta3_frozen(self):
        # reference value from an independent high-precision evaluation
        assert abs(zeta(3, 1e-10) - 1.2020569031595943) <= 1e-10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zeta(1)
        with pytest.raises(ValueError):
            zeta(3, 0.0)
