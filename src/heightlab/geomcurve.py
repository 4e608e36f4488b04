"""Rational curves in P^n and the geometric side of freeness.

A morphism f: P^1 -> P^n of degree d is given by n+1 binary forms of
degree d without a common factor.  The pull-back of the tangent bundle
splits as a direct sum of line bundles O(a_1) >= ... >= O(a_n), and the
splitting type is computed here by exact linear algebra on the twisted
Euler sequence

    0 -> O(m) -> O(d+m)^{n+1} -> f*(T)(m) -> 0.

The geometric freeness n*a_n / sum(a_i) is the limit of the arithmetic
freeness l(f(t)) as the parameter height grows; `limit_experiment`
measures that convergence on a deterministic family of parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .freeness import point_freeness
from .projpoint import PrimPoint, VarietyId


class NotAMorphism(ValueError):
    """The forms share a nonconstant factor, so the map has base points."""


class ConstantMap(ValueError):
    """Degree zero or all forms proportional: no tangent data to split."""


def _poly_gcd(p: list, q: list) -> list:
    """Gcd of univariate polynomials with Fraction coefficients, ascending."""

    def trim(r):
        while r and r[-1] == 0:
            r.pop()
        return r

    a, b = trim(list(p)), trim(list(q))
    while b:
        # plain Euclid; degrees here never exceed a few dozen
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


@dataclass(frozen=True)
class CurveMap:
    """Morphism P^1 -> P^n given by integer binary forms.

    `forms[i][j]` is the coefficient of s^(d-j) t^j in f_i, so each form
    is listed with ascending powers of t.
    """

    n: int
    d: int
    forms: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be at least 1")
        if len(self.forms) != self.n + 1:
            raise ValueError("need n+1 coordinate forms")
        forms = tuple(tuple(int(c) for c in f) for f in self.forms)
        object.__setattr__(self, "forms", forms)
        if any(len(f) != self.d + 1 for f in forms):
            raise ValueError("every form must be homogeneous of degree d")
        if all(all(c == 0 for c in f) for f in forms):
            raise ValueError("zero map")
        if self.d == 0:
            raise ConstantMap("degree zero map is constant")
        if _coeff_rank(forms) < 2:
            raise ConstantMap("all forms proportional: image is a point")
        self._check_base_point_free()

    def _check_base_point_free(self):
        forms = [f for f in self.forms if any(c != 0 for c in f)]
        if all(f[-1] == 0 for f in forms):
            raise NotAMorphism("s divides every form")
        if all(f[0] == 0 for f in forms):
            raise NotAMorphism("t divides every form")
        g = [Fraction(c) for c in forms[0]]
        for f in forms[1:]:
            g = _poly_gcd(g, [Fraction(c) for c in f])
            if len(g) <= 1:
                return
        raise NotAMorphism("forms share a nonconstant factor")

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


def _coeff_rank(rows) -> int:
    mat = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class SplittingType:
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


@dataclass(frozen=True)
class BranchData:
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


def _mult_rank(c: CurveMap, e: int) -> int:
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
    return _coeff_rank(rows)


def h0_twist(c: CurveMap, m: int) -> int:
    """h^0 of f*(T P^n)(m), from the long exact sequence of the Euler twist.

    For m <= -2 the connecting map lands in H^1(O(m)); its rank equals,
    by duality, the rank of the multiplication pairing computed in
    `_mult_rank`.
    """
    n, d = c.n, c.d
    h = (n + 1) * max(0, d + m + 1) - max(0, m + 1)
    if m <= -2:
        h += (-m - 1) - _mult_rank(c, -m - 2)
    return h


def splitting_type(c: CurveMap) -> SplittingType:
    """Splitting degrees of f*(T P^n), recovered from the h^0 step function.

    h^0(E(m)) = sum_i max(0, a_i + m + 1), so consecutive differences
    count the a_i above each level; the scan stops once h^0 vanishes.
    """
    h_prev = h0_twist(c, 0)
    counts = []  # counts[v-1] = #{i : a_i >= v}
    m = -1
    floor = -(c.n + 1) * c.d - 2
    while True:
        h = h0_twist(c, m)
        counts.append(h_prev - h)
        if h == 0:
            break
        if m <= floor:
            raise RuntimeError("h^0 failed to terminate; map is degenerate")
        h_prev = h
        m -= 1
    # counts[0] = #{a_i >= 0} = n; higher levels peel off the positive part
    a = []
    for v in range(len(counts) - 1, 0, -1):
        a.extend([v] * (counts[v] - (counts[v + 1] if v + 1 < len(counts) else 0)))
    a.extend([0] * (counts[0] - len(a)))
    st = SplittingType(tuple(sorted(a, reverse=True)))
    assert st.degree == (c.n + 1) * c.d
    assert st.a[0] >= 2
    return st


def geometric_freeness(c: CurveMap) -> Fraction:
    """l(f) = n a_n / sum(a_i), an exact rational in [0, 1]."""
    st = splitting_type(c)
    if st.a[-1] <= 0:
        return Fraction(0)
    return Fraction(c.n * st.a[-1], st.degree)


def is_very_free(c: CurveMap) -> bool:
    """True when the smallest splitting degree is positive.

    For maps to P^n the dual Euler sequence embeds E^dual(d) into the
    trivial bundle, so a_n >= d >= 1 and this always holds; the check is
    kept explicit because freeness is defined through it.
    """
    return splitting_type(c).a[-1] > 0


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
@dataclass(frozen=True)
class LimitRow:
    param: tuple     # (k, k+1)
    h_param: float   # log sup-height of the parameter
    h_image: float   # log anticanonical-normalized O(1) height of f(t)
    l: float
    gap: float       # |l(f(t)) - l(f)|


def _point_l(coords: Sequence[int]):
    g = math.gcd(*[abs(c) for c in coords])
    if g == 0:
        raise ValueError("map evaluated to zero")
    vec = [c // g for c in coords]
    lead = next(c for c in vec if c != 0)
    if lead < 0:
        vec = [-c for c in vec]
    p = PrimPoint(tuple(vec))
    h, _, l = point_freeness(VarietyId("pn", p.n), p)
    return p, h, l


def limit_experiment(c: CurveMap, t_heights: Sequence[int]):
    """Arithmetic freeness along the curve at prescribed parameter heights.

    Parameters are t = [k : k+1] with k = H - 1 for each requested sup
    height H >= 2.  Rows with image height zero are skipped.
    """
    lf = float(geometric_freeness(c))
    rows = []
    for height in t_heights:
        k = max(1, int(height) - 1)
        coords = c.evaluate(k, k + 1)
        point, h_img, l = _point_l(coords)
        if h_img == 0.0:
            continue
        rows.append(LimitRow(param=(k, k + 1), h_param=math.log(k + 1),
                             h_image=h_img, l=l, gap=abs(l - lf)))
    return rows


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


def curve_to_json(c: CurveMap) -> str:
    return json.dumps({"n": c.n, "d": c.d, "forms": [list(f) for f in c.forms]})


def curve_from_json(text: str) -> CurveMap:
    data = json.loads(text)
    return CurveMap(n=data["n"], d=data["d"],
                    forms=tuple(tuple(f) for f in data["forms"]))


def line_p2() -> CurveMap:
    """The line x = y embedded off the coordinate axes: [s : t : t]."""
    return CurveMap(n=2, d=1, forms=((1, 0), (0, 1), (0, 1)))


def coordinate_line_p2() -> CurveMap:
    return CurveMap(n=2, d=1, forms=((1, 0), (0, 1), (0, 0)))


def conic_p2() -> CurveMap:
    return CurveMap(n=2, d=2, forms=((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def twisted_cubic() -> CurveMap:
    return CurveMap(n=3, d=3, forms=((1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1)))


def double_cover_line() -> CurveMap:
    return CurveMap(n=2, d=2, forms=((1, 0, 0), (0, 0, 1), (0, 0, 0)))


def identity_p1() -> CurveMap:
    return CurveMap(n=1, d=1, forms=((1, 0), (0, 1)))
