"""Leading constants for rational point counts of anticanonical height <= B.

The expected asymptotic is N(B) ~ alpha * beta * tau * B * (log B)^(t-1)
with t the Picard rank.  alpha is the rational cone volume, beta = 1 for
all varieties here (trivial Galois action, no Brauer obstruction), and tau
is a product of an archimedean density with p-adic densities damped by the
convergence factors (1 - 1/p)^t.

For the built-in families every damped Euler factor is of the shape
(1 - p^-s)^k, so the full product has a zeta closed form, and
`closed_form` reads the constant from it alone.  `assemble_constant`
still computes the truncated product, so that the truncation error can
be certified against the closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import Frozen, build_sieve, int_adjugate, int_det, zeta
from .projpoint import Metric, VarietyId, card_projective_mod


def local_density(variety: VarietyId, p: int) -> Fraction:
    """#V(F_p) / p^dim, the unconvergenced p-adic density."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = variety.n
    if variety.kind == "pn":
        return Fraction(p ** (n + 1) - 1, (p - 1) * p ** n)
    if variety.kind == "p1n":
        return Fraction(p + 1, p) ** n
    # plane blown up in one rational point: #X(F_p) = #P^2 + #P^1 - 1 = (p+1)^2
    return Fraction((p + 1) ** 2, p ** 2)


def convergence_factor(variety: VarietyId, p: int) -> Fraction:
    return Fraction(p - 1, p) ** variety.picard_rank


def density_inf(variety: VarietyId, metric: Metric) -> float:
    """Archimedean density: (n+1)/2 * vol{norm <= 1} per factor.

    Chosen so that the number of primitive integer representatives with
    O(1)-norm <= T, counted up to sign, is ~ vol/(2 zeta(n+1)) T^(n+1)
    and the assembled constant matches that count.  Sup-norm values are
    integers; euclidean ones involve ball volumes.
    """
    n = variety.n
    if variety.kind == "pn":
        if metric is Metric.SUP:
            return float((n + 1) * 2 ** n)
        return (n + 1) / 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 3) / 2)
    if variety.kind == "p1n":
        one = 4.0 if metric is Metric.SUP else math.pi
        return one ** n
    # blow-up: heights multiply along the two projections, and the factor
    # densities multiply in the limit (P^1-fibration over the line of Q)
    return 16.0 if metric is Metric.SUP else math.pi ** 2


def cone_alpha(variety: VarietyId) -> Fraction:
    """Effective-cone volume factor, exact.

    For a simplicial effective cone with generator matrix G and
    anticanonical class sum(c_i g_i) this is 1/((t-1)! |det G| prod c_i);
    the normalisation is the one entering N(B) ~ alpha beta tau B log^(t-1) B.
    """
    gens = variety.effective_cone
    t = variety.picard_rank
    det = int_det(gens)
    adj = int_adjugate(gens)
    # the coefficients c with c^T G = anticanonical are anticanonical adj(G) / det(G)
    prod = Fraction(1)
    for j in range(t):
        c = Fraction(sum(w * adj[i][j] for i, w in enumerate(variety.anticanonical)), det)
        if c <= 0:
            raise ValueError("anticanonical class not interior to the cone")
        prod *= c
    return Fraction(1, math.factorial(t - 1)) / (abs(det) * prod)


def _euler_shape(variety: VarietyId) -> tuple[int, int]:
    """(s, k) with damped local factor (1 - p^-s)^k for the family."""
    if variety.kind == "pn":
        return variety.n + 1, 1
    if variety.kind == "p1n":
        return 2, variety.n
    return 2, 2


def closed_form(variety: VarietyId, metric: Metric) -> float:
    """The leading constant alpha beta tau with the full Euler product in
    closed form, tau_inf / zeta(s)^k; beta = 1."""
    s, k = _euler_shape(variety)
    return float(cone_alpha(variety)) * density_inf(variety, metric) / zeta(s) ** k


class CountConstant(Frozen):
    """Assembled leading constant with a certified finite-product tail."""

    alpha: Fraction
    beta: Fraction
    tau_inf: float
    tau_finite: float       # truncated Euler product over p < prime_limit
    tail_rel_bound: float   # |log(full/truncated)| is at most this
    prime_limit: int
    log_power: int          # count grows like value * B * (log B)^log_power

    @property
    def tau(self) -> float:
        return self.tau_inf * self.tau_finite

    @property
    def value(self) -> float:
        return float(self.alpha) * float(self.beta) * self.tau


def assemble_constant(variety: VarietyId, metric: Metric, prime_limit: int = 10_000) -> CountConstant:
    s, k = _euler_shape(variety)
    table = build_sieve(prime_limit)
    prod = 1.0
    for p in range(2, prime_limit):
        if table.mobius(p) == -1 and table.totient(p) == p - 1:
            prod *= float(convergence_factor(variety, p) * local_density(variety, p))
    # sum_{p >= P} |log(1-p^-s)| <= sum_{n >= P} 2 n^-s <= 2 (P-1)^(1-s)/(s-1)
    tail = 2.0 * k * (prime_limit - 1) ** (1 - s) / (s - 1)
    return CountConstant(
        alpha=cone_alpha(variety),
        beta=Fraction(1),
        tau_inf=density_inf(variety, metric),
        tau_finite=prod,
        tail_rel_bound=tail,
        prime_limit=prime_limit,
        log_power=variety.picard_rank - 1,
    )


def nu_window(weights, lo, hi) -> float:
    """Window factor nu = prod_i (hi_i^w_i - lo_i^w_i) / w_i.

    Normalized so that the count of points with component heights in
    [lo_i B^(u_i), hi_i B^(u_i)] is asymptotically beta nu tau B^<w,u>:
    each component contributes the integral of w-adapted scale density
    t^(w-1) dt over its interval.
    """
    out = 1.0
    for w, a, b in zip(weights, lo, hi):
        if not 0 <= a <= b:
            raise ValueError("window bounds must satisfy 0 <= lo <= hi")
        out *= (float(b) ** w - float(a) ** w) / w
    return out


def uniform_class_share(variety: VarietyId, modulus: int) -> Fraction:
    """Expected share of each residue class for equidistributed reductions."""
    if variety.kind != "pn":
        raise ValueError("class shares are implemented for projective space")
    return Fraction(1, card_projective_mod(variety.n, modulus))
