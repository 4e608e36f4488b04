import math
from fractions import Fraction

import numpy as np
import pytest

from heightlab import exactnum, tamagawa
from heightlab.exactnum import int_adjugate, int_det, zeta
from heightlab.projpoint import Metric, VarietyId, variety
from heightlab.tamagawa import (
    assemble_constant,
    closed_form,
    cone_alpha,
    convergence_factor,
    density_inf,
    local_density,
    uniform_class_share,
    nu_window,
)
from linalg_reference import reference_det, reference_solve


def cone_alpha_montecarlo(variety: VarietyId, samples: int = 200_000, seed: int = 0):
    """Monte Carlo estimate of (t-1)! alpha = int_{dual cone} exp(-<w, x>) dx.

    Importance sampling with independent Exp(w_i/2) coordinates, so the
    weight e^(-sum w_i x_i / 2) is bounded and the variance finite.  Valid
    because each standard basis vector lies in the effective cone, hence the
    dual cone sits inside the positive orthant; this is checked exactly.
    Returns (estimate_of_alpha, standard_error_of_alpha).
    """
    t = variety.picard_rank
    gens = variety.effective_cone
    # e_i = sum_j c_j g_j has c = row i of G^-1 = adj(G) / det(G)
    det = int_det(gens)
    if any(x * det < 0 for row in int_adjugate(gens) for x in row):
        raise ValueError("dual cone is not contained in the positive orthant")
    rng = np.random.default_rng(seed)
    w = np.array(variety.anticanonical, dtype=float)
    rates = w / 2.0
    x = rng.exponential(1.0 / rates, size=(samples, t))
    garr = np.array(variety.effective_cone, dtype=float)
    inside = np.all(x @ garr.T >= -1e-12, axis=1)
    weights = np.where(inside, np.exp(-x @ (w - rates)) / np.prod(rates), 0.0)
    fact = math.factorial(t - 1)
    est = float(weights.mean()) / fact
    err = float(weights.std(ddof=1)) / math.sqrt(samples) / fact
    return est, err


class TestLocalDensities:
    def test_projective_line_at_two(self):
        assert local_density(variety("pn", 1), 2) == Fraction(3, 2)

    def test_plane_at_three(self):
        assert local_density(variety("pn", 2), 3) == Fraction(13, 9)

    def test_blowup_is_squared_line_count(self):
        # (p+1)^2 points on the blown-up plane over F_p
        assert local_density(variety("blowup", 2), 2) == Fraction(9, 4)
        assert local_density(variety("p1n", 2), 2) == Fraction(9, 4)

    def test_damped_factor_shape(self):
        v = variety("blowup", 2)
        for p in (2, 3, 5, 7):
            got = convergence_factor(v, p) * local_density(v, p)
            assert got == (1 - Fraction(1, p * p)) ** 2


class TestArchimedean:
    def test_sup_values(self):
        assert density_inf(variety("pn", 1), Metric.SUP) == 4
        assert density_inf(variety("pn", 2), Metric.SUP) == 12
        assert density_inf(variety("pn", 3), Metric.SUP) == 32
        assert density_inf(variety("blowup", 2), Metric.SUP) == 16
        assert density_inf(variety("p1n", 3), Metric.SUP) == 64

    def test_euclid_values(self):
        assert density_inf(variety("pn", 1), Metric.EUCLID) == pytest.approx(math.pi)
        assert density_inf(variety("pn", 2), Metric.EUCLID) == pytest.approx(2 * math.pi)
        assert density_inf(variety("p1n", 2), Metric.EUCLID) == pytest.approx(math.pi ** 2)


class TestConeAlpha:
    def test_projective_spaces(self):
        for n in range(1, 5):
            assert cone_alpha(variety("pn", n)) == Fraction(1, n + 1)

    def test_products(self):
        assert cone_alpha(variety("p1n", 2)) == Fraction(1, 4)
        assert cone_alpha(variety("p1n", 3)) == Fraction(1, 16)

    def test_blowup(self):
        assert cone_alpha(variety("blowup", 2)) == Fraction(1, 6)

    @pytest.mark.parametrize("kind,n", [("pn", 1), ("pn", 4), ("p1n", 1),
                                        ("p1n", 3), ("blowup", 2)])
    def test_matches_reference_solve(self, kind, n):
        v = variety(kind, n)
        gens = v.effective_cone
        coeffs = reference_solve(gens, v.anticanonical)
        prod = Fraction(1)
        for c in coeffs:
            prod *= c
        want = Fraction(1, math.factorial(v.picard_rank - 1)) / (abs(reference_det(gens)) * prod)
        assert cone_alpha(v) == want

    @pytest.mark.parametrize("kind,n", [("blowup", 2), ("p1n", 2), ("pn", 2)])
    def test_montecarlo_agrees(self, kind, n):
        v = variety(kind, n)
        est, err = cone_alpha_montecarlo(v, samples=120_000, seed=11)
        assert err < 0.01
        assert abs(est - float(cone_alpha(v))) <= 5 * err


class TestAssembledConstants:
    def test_line_constant_is_twelve_over_pi_squared(self):
        c = assemble_constant(variety("pn", 1), Metric.SUP)
        target = 12 / math.pi ** 2
        assert closed_form(variety("pn", 1), Metric.SUP) == \
            pytest.approx(target, rel=1e-9)
        assert c.value == pytest.approx(target, rel=2 * c.tail_rel_bound)
        assert c.log_power == 0

    def test_blowup_constant(self):
        v = variety("blowup", 2)
        c = assemble_constant(v, Metric.SUP)
        target = 96 / math.pi ** 4
        assert closed_form(v, Metric.SUP) == pytest.approx(target, rel=1e-9)
        assert c.value == pytest.approx(target, rel=2 * c.tail_rel_bound)
        assert c.log_power == 1

    def test_plane_constant(self):
        v = variety("pn", 2)
        c = assemble_constant(v, Metric.SUP)
        assert closed_form(v, Metric.SUP) == pytest.approx(4 / zeta(3), rel=1e-9)
        assert c.value == pytest.approx(4 / zeta(3), rel=2 * c.tail_rel_bound)

    def test_tail_bound_shrinks(self):
        v = variety("pn", 2)
        small = assemble_constant(v, Metric.SUP, prime_limit=100)
        big = assemble_constant(v, Metric.SUP, prime_limit=10_000)
        assert big.tail_rel_bound < small.tail_rel_bound
        assert abs(small.value - big.value) <= abs(big.value) * 2 * small.tail_rel_bound

    # recorded while the product tested each p < prime_limit for
    # mu(p) = -1 and phi(p) = p - 1 on a full sieve table
    @pytest.mark.parametrize("kind, prime_limit, tau_finite", [
        ("pn", 50, 0.8319415766559043),
        ("pn", 10_000, 0.8319073730064341),
        ("p1n", 50, 0.37245266081697675),
        ("p1n", 10_000, 0.369582616522434),
        ("blowup", 50, 0.37245266081697675),
        ("blowup", 10_000, 0.369582616522434),
    ])
    def test_tau_finite_is_frozen(self, kind, prime_limit, tau_finite):
        c = assemble_constant(variety(kind, 2), Metric.SUP, prime_limit)
        assert c.tau_finite == tau_finite

    def test_builds_no_mu_or_phi_table(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("table built")

        for mod in (exactnum, tamagawa):
            for name in ("build_sieve", "totients"):
                monkeypatch.setattr(mod, name, refuse, raising=False)
        c = assemble_constant(variety("pn", 2), Metric.SUP, 10_000)
        assert c.tau_finite == 0.8319073730064341

    @pytest.mark.parametrize("prime_limit", [1, 0, -5])
    def test_prime_limit_below_two_is_refused(self, prime_limit):
        with pytest.raises(ValueError, match="at least 2"):
            assemble_constant(variety("pn", 2), Metric.SUP, prime_limit)


class TestWindows:
    def test_full_window(self):
        assert nu_window((2, 1), (0, 0), (1, 1)) == pytest.approx(0.5)

    def test_half_window(self):
        assert nu_window((2,), (Fraction(1, 2),), (1,)) == pytest.approx(0.375)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            nu_window((2,), (1,), (0,))

    def test_class_share(self):
        assert uniform_class_share(variety("pn", 1), 3) == Fraction(1, 4)
        assert uniform_class_share(variety("pn", 2), 2) == Fraction(1, 7)
