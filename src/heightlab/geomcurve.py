"""Rational curves in P^n and the geometric side of freeness.

A morphism f: P^1 -> P^n of degree d is given by n+1 binary forms of
degree d without a common factor.  The pull-back of the tangent bundle
splits as a direct sum of line bundles O(a_1) >= ... >= O(a_n).  Dualising
the pulled-back Euler sequence gives a_i = d + mu_i, where mu_1..mu_n are
the degrees of a mu-basis of the syzygies of (f_0, ..., f_n).  One integer
echelon of the rows t^j f_i, walked once when a `CurveMap` is built, reads
off the mu_i; their sum is d less the degree of the forms' gcd, so the same
walk decides whether f is a morphism at all.

The geometric freeness n*a_n / sum(a_i) is the limit of the arithmetic
freeness l(f(t)) as the parameter height grows; `limit_experiment`
measures that convergence on a deterministic family of parameters.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .exactnum import Frozen, IntEchelon
from .freeness import point_freeness
from .projpoint import VarietyId, normalize


class NotAMorphism(ValueError):
    """The forms share a nonconstant factor, so the map has base points:
    the mu-basis degrees sum to less than d."""


class ConstantMap(ValueError):
    """Degree zero or all forms proportional: no tangent data to split."""


def _mu_basis_degrees(d: int, forms: tuple) -> list:
    """Degrees mu_1..mu_n of a mu-basis of the syzygies sum h_i f_i = 0.

    The syzygies are free on n generators whose degrees sum to d less the
    degree of gcd(f_i) (Cox-Sederberg-Chen, 1998).  The rows t^j f_i enter
    one `IntEchelon` in (j, i) order; the first j at which t^j f_i depends
    on the rows before it is a mu_i (Hong-Hough-Kogan, 2017), and f_i then
    retires, since t times a relation is again a relation.  The j = 0 pass
    keeps rank(f_0..f_n) rows, and fewer than two mean a constant map.  As
    the mu_i sum to at most d, j never passes d, and the walk stops once n
    forms have retired; a sum below d means a common factor, s^k and t^k
    included.
    """
    ech = IntEchelon()
    live = list(range(len(forms)))
    mu = []
    for j in range(d + 1):
        for i in tuple(live):
            if not ech.add([0] * j + list(forms[i])):
                mu.append(j)
                live.remove(i)
        if len(ech) < 2:
            raise ConstantMap("all forms proportional: image is a point")
        if len(live) == 1:
            break
    if sum(mu) < d:
        raise NotAMorphism("forms share a nonconstant factor")
    return mu


class CurveMap(Frozen):
    """Morphism P^1 -> P^n given by integer binary forms.

    `forms[i][j]` is the coefficient of s^(d-j) t^j in f_i, so each form
    is listed with ascending powers of t.
    """

    n: int
    d: int
    forms: tuple

    def __post_init__(self):
        try:
            n, d = operator.index(self.n), operator.index(self.d)
            forms = tuple(tuple(map(operator.index, f)) for f in self.forms)
        except TypeError:
            # a float or a Fraction is refused, even when integral, rather
            # than truncated
            raise ValueError("n, d and every form coefficient must be "
                             "integers") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "forms", forms)
        if n < 1:
            raise ValueError("ambient dimension must be at least 1")
        if len(forms) != n + 1:
            raise ValueError("need n+1 coordinate forms")
        if any(len(f) != self.d + 1 for f in forms):
            raise ValueError("every form must be homogeneous of degree d")
        if all(all(c == 0 for c in f) for f in forms):
            raise ValueError("zero map")
        if self.d == 0:
            raise ConstantMap("degree zero map is constant")
        mu = _mu_basis_degrees(d, forms)
        # the splitting type, from the one mu-basis walk that also accepted
        # the forms; an attribute outside the fields, so ==, hash and repr
        # ignore it
        object.__setattr__(self, "_splitting", SplittingType(
            tuple(sorted((d + m for m in mu), reverse=True))))

    def evaluate(self, u: int, v: int) -> tuple:
        """Value (f_0(u,v), ..., f_n(u,v)), not reduced to a primitive vector."""
        if u == 0 and v == 0:
            raise ValueError("(0, 0) is not a point of P^1")
        powu = [1]
        powv = [1]
        for _ in range(self.d):
            powu.append(powu[-1] * u)
            powv.append(powv[-1] * v)
        return tuple(
            sum(c * powu[self.d - j] * powv[j] for j, c in enumerate(f))
            for f in self.forms
        )


class SplittingType(Frozen):
    """Degrees a_1 >= ... >= a_n of the pulled-back tangent bundle."""

    a: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        object.__setattr__(self, "a", a)
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("splitting degrees must be non-increasing")

    @property
    def degree(self) -> int:
        return sum(self.a)

    @property
    def is_very_free(self) -> bool:
        """True when the smallest splitting degree is positive."""
        return self.a[-1] > 0

    @property
    def freeness(self) -> Fraction:
        """l = n a_n / sum(a_i), an exact rational in [0, 1]; 0 unless very free."""
        if not self.is_very_free:
            return Fraction(0)
        return Fraction(len(self.a) * self.a[-1], self.degree)


class BranchData(Frozen):
    """Branches (r, m) of a rational curve through a fixed point.

    r is the Roth exponent of the branch point on P^1: 0 for a complex
    place, 1 for a rational point, 2 for a real quadratic one.  d is the
    anticanonical degree of the curve.
    """

    branches: tuple
    d: int

    def __post_init__(self):
        if not self.branches:
            raise ValueError("need at least one branch")
        if self.d < 1:
            raise ValueError("anticanonical degree must be positive")
        for r, m in self.branches:
            if r not in (0, 1, 2):
                raise ValueError("branch exponent must be 0, 1 or 2")
            if m < 1:
                raise ValueError("branch multiplicity must be positive")


def splitting_type(c: CurveMap) -> SplittingType:
    """Splitting degrees a_i = d + mu_i of f*(T P^n) = sum O(a_i), kept from
    the mu-basis walk that built `c`."""
    return c._splitting


def h0_twist(c: CurveMap, m: int) -> int:
    """h^0 of f*(T P^n)(m) = sum_i max(0, a_i + m + 1), from the
    splitting type."""
    return sum(max(0, a + m + 1) for a in splitting_type(c).a)


def geometric_freeness(c: CurveMap) -> Fraction:
    """l(f) = n a_n / sum(a_i), an exact rational in [0, 1]."""
    return splitting_type(c).freeness


def is_very_free(c: CurveMap) -> bool:
    """True when the smallest splitting degree is positive.

    For maps to P^n the dual Euler sequence embeds E^dual(d) into the
    trivial bundle, so a_n >= d >= 1 and this always holds; the check is
    kept explicit because freeness is defined through it.
    """
    return splitting_type(c).is_very_free


def mckinnon_roth_alpha(b: BranchData) -> Fraction:
    """Best approximation constant max_Q r_Q m_Q / d over the branches."""
    return max(Fraction(r * m, b.d) for r, m in b.branches)


def expected_dim(n: int, d: int, s: int = 0) -> int:
    """Expected dimension n(1-s) + (n+1)d of maps through an s-point scheme."""
    if n < 1 or d < 1 or s < 0:
        raise ValueError("need n, d >= 1 and s >= 0")
    return n * (1 - s) + (n + 1) * d


# deterministic parameter family: t = [k : k+1] is always primitive and
# its sup height is exactly k+1
class LimitRow(Frozen):
    param: tuple     # (k, k+1)
    h_param: float   # log sup-height of the parameter
    h_image: float   # log anticanonical-normalized O(1) height of f(t)
    l: float
    gap: float       # |l(f(t)) - l(f)|


def _point_l(coords: Sequence[int]):
    p = normalize(coords)
    h, _, l = point_freeness(VarietyId("pn", p.n), p)
    return p, h, l


class LimitExperiment(Frozen):
    rows: tuple                  # LimitRow per kept parameter height
    geometric_freeness: Fraction  # l(f), the limit the rows approach


def limit_experiment(c: CurveMap, t_heights: Sequence[int]) -> LimitExperiment:
    """Arithmetic freeness along the curve at prescribed parameter heights.

    Parameters are t = [k : k+1] with k = H - 1 for each requested sup
    height H >= 2.  Rows with image height zero are skipped.  The result
    also carries l(f), so that callers need not build the splitting type
    a second time.
    """
    geo = geometric_freeness(c)
    lf = float(geo)
    rows = []
    for height in t_heights:
        k = max(1, int(height) - 1)
        coords = c.evaluate(k, k + 1)
        point, h_img, l = _point_l(coords)
        if h_img == 0.0:
            continue
        rows.append(LimitRow(param=(k, k + 1), h_param=math.log(k + 1),
                             h_image=h_img, l=l, gap=abs(l - lf)))
    return LimitExperiment(rows=tuple(rows), geometric_freeness=geo)


def approx_exponent(rows: Sequence[LimitRow]) -> float:
    """Least-squares slope of log(gap) against log(image height)."""
    pts = [(math.log(r.h_image), math.log(r.gap)) for r in rows
           if r.gap > 0 and r.h_image > 0]
    if len(pts) < 2:
        raise ValueError("need at least two rows with a positive gap")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def curve_to_json(c: CurveMap) -> str:
    return json.dumps({"n": c.n, "d": c.d, "forms": [list(f) for f in c.forms]})


def curve_from_json(text: str) -> CurveMap:
    data = json.loads(text)
    if not (isinstance(data, dict) and {"n", "d", "forms"} <= data.keys()):
        raise ValueError("a curve is an object with 'n', 'd' and 'forms'")
    forms = data["forms"]
    if not (isinstance(forms, list) and all(isinstance(f, list) for f in forms)):
        raise ValueError("'forms' must be a list of coefficient lists")
    return CurveMap(n=data["n"], d=data["d"], forms=tuple(map(tuple, forms)))

