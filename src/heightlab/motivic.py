"""Truncated arithmetic in a localized Grothendieck ring of varieties.

Classes are represented as Laurent polynomials in the Tate class L (the
class of the affine line), which is enough for every identity checked
here: morphism spaces P^1 -> P^n, their gcd-one polynomial models, the
zeta residue, and the two-factor Euler product.  The dimension filtration
F^i is generated by symbols [V] L^{-n} with dim V - n <= -i, so a pure
power L^e sits at level -e and a finite sum sits at the level of its top
exponent.  Series keep exponents >= -cutoff and every operation reports
the worst-case level to which the result is still exact.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .exactnum import Frozen


def _clean(terms: Mapping[int, int]) -> tuple:
    return tuple(sorted((e, c) for e, c in terms.items() if c != 0))


class LPoly(Frozen):
    """Laurent polynomial in the Tate class with integer coefficients."""

    terms: tuple = ()

    @staticmethod
    def of(terms: Mapping[int, int]) -> "LPoly":
        return LPoly(_clean(terms))

    @staticmethod
    def tate(e: int = 1) -> "LPoly":
        return LPoly(((e, 1),))

    @staticmethod
    def const(c: int) -> "LPoly":
        return LPoly.of({0: c})

    def coeff(self, e: int) -> int:
        return dict(self.terms).get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero class has no top exponent")
        return self.terms[-1][0]

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero class has no bottom exponent")
        return self.terms[0][0]

    def __add__(self, other: "LPoly") -> "LPoly":
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LPoly(_clean(out))

    def __neg__(self) -> "LPoly":
        return LPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LPoly") -> "LPoly":
        return self + (-other)

    def __mul__(self, other: "LPoly") -> "LPoly":
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LPoly(_clean(out))

    def __pow__(self, k: int) -> "LPoly":
        if k < 0:
            raise ValueError("negative powers only for pure Tate monomials")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def shift(self, e: int) -> "LPoly":
        """Multiplication by L^e, exact for any integer e."""
        return LPoly(tuple((exp + e, c) for exp, c in self.terms))

    def exact_div(self, other: "LPoly") -> "LPoly":
        """Exact division; raises if the quotient is not a Laurent polynomial."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero class")
        rem = dict(self.terms)
        lead_e, lead_c = other.terms[-1]
        # an exact quotient has no exponent below min(self) - min(other)
        floor = self.min_exp - other.min_exp if self.terms else 0
        quot = {}
        while rem:
            e = max(rem)
            c = rem[e]
            if c % lead_c != 0 or e - lead_e < floor:
                raise ValueError("class is not divisible")
            q = c // lead_c
            quot[e - lead_e] = quot.get(e - lead_e, 0) + q
            for e2, c2 in other.terms:
                key = e - lead_e + e2
                val = rem.get(key, 0) - q * c2
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return LPoly(_clean(quot))

    def __repr__(self):
        if not self.terms:
            return "LPoly(0)"
        bits = " + ".join(f"{c}*L^{e}" for e, c in reversed(self.terms))
        return f"LPoly({bits})"


ONE = LPoly.const(1)
L = LPoly.tate()


class LSeries(Frozen):
    """A class known modulo the filtration level beyond the cutoff.

    Stores the coefficients at exponents >= -cutoff; everything deeper
    is unknown.  Arithmetic propagates the worst-case cutoff: adding
    keeps the weaker one, multiplying shifts each cutoff by the other
    factor's level.
    """

    cutoff: int
    terms: tuple = ()

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        kept = {e: c for e, c in self.terms if e >= -self.cutoff and c != 0}
        object.__setattr__(self, "terms", _clean(kept))

    @staticmethod
    def from_poly(p: LPoly, cutoff: int) -> "LSeries":
        return LSeries(cutoff=cutoff, terms=p.terms)

    def coeff(self, e: int) -> int:
        if e < -self.cutoff:
            raise ValueError("exponent below the cutoff")
        return dict(self.terms).get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def level(self) -> int:
        """Filtration level: the truncation level for 0, else -top exponent."""
        if not self.terms:
            return self.cutoff + 1
        return -self.terms[-1][0]

    def __add__(self, other: "LSeries") -> "LSeries":
        return LSeries(cutoff=min(self.cutoff, other.cutoff),
                       terms=(LPoly(self.terms) + LPoly(other.terms)).terms)

    def __neg__(self) -> "LSeries":
        return LSeries(cutoff=self.cutoff, terms=(-LPoly(self.terms)).terms)

    def __sub__(self, other: "LSeries") -> "LSeries":
        return self + (-other)

    def __mul__(self, other: "LSeries") -> "LSeries":
        # error of one factor is multiplied by the other, so each cutoff
        # is protected by the other factor's level
        cutoff = min(self.cutoff + other.level(),
                     other.cutoff + self.level())
        return LSeries(cutoff=cutoff,
                       terms=(LPoly(self.terms) * LPoly(other.terms)).terms)

    def __repr__(self):
        if not self.terms:
            return f"LSeries(0; cutoff={self.cutoff})"
        bits = " + ".join(f"{c}*L^{e}" for e, c in reversed(self.terms))
        return f"LSeries({bits}; cutoff={self.cutoff})"


def class_pn(n: int) -> LPoly:
    """[P^n] = 1 + L + ... + L^n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LPoly.of({i: 1 for i in range(n + 1)})


def class_homd(n: int, d: int) -> LPoly:
    """Class of the degree-d morphism space P^1 -> P^n.

    Equals L^{(n+1)d} [P^n] (1 - L^{-n}); the normalized symbol
    [Hom^d] L^{-(n+1)d} is independent of d >= 1.
    """
    if n < 1:
        raise ValueError("target dimension must be at least 1")
    if d < 1:
        raise ValueError("the closed form starts at degree 1")
    return (class_pn(n) * (ONE - LPoly.tate(-n))).shift((n + 1) * d)


def class_wd(n: int, d: int) -> LPoly:
    """Class of gcd-one (n+1)-tuples of polynomials with top degree d.

    W_d is a G_m torsor over the morphism space, so (L-1)[Hom^d] = [W_d]
    for d >= 1; degree 0 leaves the nonzero constant tuples.
    """
    if n < 1:
        raise ValueError("target dimension must be at least 1")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return LPoly.tate(n + 1) - ONE
    return (L - ONE) * class_homd(n, d)


def verify_recurrence(n: int, dmax: int) -> bool:
    """Check L^{(n+1)(d+1)} - L^{(n+1)d} = sum_k L^k [W_{d-k}] for d <= dmax.

    The left side counts tuples with top degree exactly d; the right side
    stratifies them by the degree of the monic gcd.  The right side is
    built in one pass, rhs_d = [W_d] + L rhs_{d-1} from rhs_{-1} = 0, so
    each [W_d] is computed once.
    """
    rhs = LPoly(())
    for d in range(dmax + 1):
        rhs = class_wd(n, d) + rhs.shift(1)
        lhs = LPoly.tate((n + 1) * (d + 1)) - LPoly.tate((n + 1) * d)
        if lhs != rhs:
            return False
    return True


def normalized_symbol(n: int, d: int) -> LPoly:
    """[Hom^d] L^{-(n+1)d}, the quantity that stabilizes as d grows."""
    return class_homd(n, d).shift(-(n + 1) * d)


def u_convolve(a: Sequence[LPoly], b: Sequence[LPoly]) -> list:
    """Product of two polynomials in U with Laurent coefficients."""
    out = [LPoly(()) for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def substitute_tate_inverse(coeffs: Sequence[LPoly], cutoff: int) -> LSeries:
    """Evaluate a U-polynomial at U = L^{-1}, truncated at the cutoff."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    total = LPoly(())
    for d, c in enumerate(coeffs):
        total = total + c.shift(-d)
    return LSeries.from_poly(total, cutoff)


def kapranov_residue(cutoff: int) -> LSeries:
    """Zeta residue of the rational function field at the Tate point.

    The zeta series has U-coefficients [Sym^d P^1] = [P^d].  The product
    with (1 - L U) is formed first (its coefficients collapse to 1), and
    only then is U = L^{-1} substituted; substituting into the bare
    factor alone would give 0.  The result is 1/(1 - L^{-1}) truncated.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    zeta = [class_pn(d) for d in range(cutoff + 2)]
    residue = u_convolve([ONE, -L], zeta)
    return substitute_tate_inverse(residue[:cutoff + 1], cutoff)


def euler_product_inverse(n: int, cutoff: int) -> LSeries:
    """Inverted local product over the points of the line, truncated.

    Expanding the inverse product gives sum_m [P^m] L^{-(n+1)m}; the
    closed form is 1/((1 - L^{-n})(1 - L^{-n-1})).
    """
    if n < 1:
        raise ValueError("target dimension must be at least 1")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    total = LPoly(())
    m = 0
    while n * m <= cutoff:  # term m has top exponent -nm
        total = total + class_pn(m).shift(-(n + 1) * m)
        m += 1
    return LSeries.from_poly(total, cutoff)


def geometric_double_inverse(n: int, cutoff: int) -> LSeries:
    """Truncated expansion of 1/((1 - L^{-n})(1 - L^{-n-1}))."""
    if n < 1:
        raise ValueError("target dimension must be at least 1")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    out = {}
    i = 0
    while n * i <= cutoff:
        j = 0
        while n * i + (n + 1) * j <= cutoff:
            e = -(n * i + (n + 1) * j)
            out[e] = out.get(e, 0) + 1
            j += 1
        i += 1
    return LSeries(cutoff=cutoff, terms=_clean(out))


def filtration_level(a: LSeries, b: LSeries) -> int:
    """Largest i <= cutoff with a - b in F^i."""
    if a.cutoff != b.cutoff:
        raise ValueError("series must share a cutoff")
    diff = a - b
    if diff.is_zero:
        return a.cutoff
    return min(diff.level(), a.cutoff)


def lpoly_to_json(p: LPoly) -> dict:
    """Sparse exponent:coefficient list, top exponent first."""
    return {"terms": [[e, c] for e, c in reversed(p.terms)]}


def lseries_to_json(s: LSeries) -> dict:
    return {"terms": [[e, c] for e, c in reversed(s.terms)],
            "cutoff": s.cutoff}
