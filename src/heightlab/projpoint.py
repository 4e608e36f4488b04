"""Primitive-integer projective points, their heights, and reductions mod M.

A point of P^n(Q) is stored as the unique primitive integer vector whose
first nonzero coordinate is positive.  Heights are exact `LogLin` half-logs:
the sup height is log max|y_i| and the euclidean height is (1/2) log sum
y_i^2, i.e. arguments max^2 and sum of squares.

A point of P^n(Z/M) is the orbit of a primitive vector under the units of
Z/M, stored as the representative `_canonical_mod` picks;
`enum_projective_mod` generates those representatives from the same rule.

Three ambient varieties are supported: P^n, a product (P^1)^n, and the
plane blown up at [0:0:1] realised as the incidence X*V = Y*U inside
P^2 x P^1.  Multiheights are per-factor O(1) heights against a fixed basis
of the Picard group; the anticanonical degree vector and the generators of
the effective cone are stored in the same basis.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from itertools import product

from .exactnum import Frozen, LogLin, factorize


class Metric(Enum):
    SUP = "sup"
    EUCLID = "euclid"


class InvalidPoint(ValueError):
    pass


def _integers(coords) -> tuple:
    """The coordinates as Python ints; a float or a Fraction is refused,
    even when integral, rather than truncated."""
    try:
        return tuple(map(operator.index, coords))
    except TypeError:
        raise InvalidPoint(f"coordinates must be integers: {coords!r}")


class PrimPoint(Frozen):
    """Primitive integer coordinates, first nonzero coordinate positive."""

    coords: tuple

    def __post_init__(self):
        c = _integers(self.coords)
        g = math.gcd(*c)  # 0 iff every coordinate is 0
        if len(c) < 2 or g == 0:
            raise InvalidPoint("need >= 2 coordinates, not all zero")
        if g != 1:
            raise InvalidPoint("coordinates not primitive; use normalize()")
        for x in c:
            if x != 0:
                if x < 0:
                    raise InvalidPoint("first nonzero coordinate must be positive")
                break
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def normalize(coords: Sequence[int]) -> PrimPoint:
    """Divide by the gcd and fix the sign of the first nonzero coordinate."""
    c = _integers(coords)
    if len(c) < 2 or all(x == 0 for x in c):
        raise InvalidPoint("need >= 2 coordinates, not all zero")
    g = math.gcd(*c)
    c = [x // g for x in c]
    for x in c:
        if x != 0:
            if x < 0:
                c = [-v for v in c]
            break
    return PrimPoint(tuple(c))


# ---------------------------------------------------------------------------
# Varieties


class VarietyId(Frozen):
    """Ambient variety: kind in {"pn", "p1n", "blowup"} plus dimension.

    picard_rank, anticanonical vector and effective-cone generators are all
    expressed in the multiheight basis used by `multiheight`.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("pn", "p1n", "blowup"):
            raise ValueError(f"unknown variety kind {self.kind!r}")
        if self.kind == "blowup":
            if self.n != 2:
                raise ValueError("blowup is a surface; n must be 2")
        elif self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def picard_rank(self) -> int:
        if self.kind == "pn":
            return 1
        if self.kind == "p1n":
            return self.n
        return 2

    @property
    def anticanonical(self) -> tuple:
        if self.kind == "pn":
            return (self.n + 1,)
        if self.kind == "p1n":
            return (2,) * self.n
        return (2, 1)

    @property
    def effective_cone(self) -> tuple:
        """Generators of the cone of effective classes, multiheight basis."""
        if self.kind == "pn":
            return ((1,),)
        if self.kind == "p1n":
            return tuple(tuple(1 if j == i else 0 for j in range(self.n)) for i in range(self.n))
        # exceptional curve and the fibre class of the ruling
        return ((1, -1), (0, 1))


def variety(kind: str, n: int) -> VarietyId:
    return VarietyId(kind, n)


def blowup_point(p: PrimPoint, q: PrimPoint) -> tuple:
    """Validate the incidence X*V = Y*U and return the pair (p, q)."""
    if p.n != 2 or q.n != 1:
        raise InvalidPoint("blowup point is a (P^2, P^1) pair")
    x, y, _ = p.coords
    u, v = q.coords
    if x * v != y * u:
        raise InvalidPoint("pair violates the incidence X*V = Y*U")
    if x == 0 and y == 0:
        return (p, q)
    if normalize((x, y)).coords != q.coords:
        # same condition as the incidence for primitive q, kept as a guard
        raise InvalidPoint("second factor must be the ratio [X:Y]")
    return (p, q)


def blowup_from_plane(p: PrimPoint) -> tuple:
    """Lift a plane point other than the centre [0:0:1] to the blowup."""
    x, y, _ = p.coords
    if x == 0 and y == 0:
        raise InvalidPoint("the centre has no canonical lift; choose a fibre point")
    return (p, normalize((x, y)))


# ---------------------------------------------------------------------------
# Heights


def height_o1(p: PrimPoint, metric: Metric = Metric.SUP) -> LogLin:
    """Height against O(1): log max|y_i| (sup) or (1/2) log sum y_i^2."""
    if metric == Metric.SUP:
        m = max(abs(c) for c in p.coords)
        return LogLin.from_log(m * m, Fraction(1, 2))
    s = sum(c * c for c in p.coords)
    return LogLin.from_log(s, Fraction(1, 2))


def multiheight(v: VarietyId, point, metric: Metric = Metric.SUP) -> tuple:
    """Vector of O(1) heights against the multiheight basis of Pic."""
    if v.kind == "pn":
        if not isinstance(point, PrimPoint) or point.n != v.n:
            raise InvalidPoint(f"expected a point of P^{v.n}")
        return (height_o1(point, metric),)
    if v.kind == "p1n":
        pts = tuple(point)
        if len(pts) != v.n or any(p.n != 1 for p in pts):
            raise InvalidPoint(f"expected an {v.n}-tuple of P^1 points")
        return tuple(height_o1(p, metric) for p in pts)
    p, q = blowup_point(*point)
    return (height_o1(p, metric), height_o1(q, metric))


def anticanonical_height(v: VarietyId, point, metric: Metric = Metric.SUP) -> LogLin:
    """Pairing of the multiheight with the anticanonical degree vector."""
    mh = multiheight(v, point, metric)
    acc = LogLin.zero()
    for h, w in zip(mh, v.anticanonical):
        acc = acc + h * w
    return acc


# ---------------------------------------------------------------------------
# Reduction mod M


class ModPoint(Frozen):
    """Canonical orbit representative of a primitive vector over Z/M."""

    modulus: int
    coords: tuple

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + f" mod {self.modulus}]"


def _canonical_mod(coords: Sequence[int], m: int) -> tuple:
    """Scale by the unit taking the first unit coordinate to 1; if no
    coordinate is a unit, take the lexicographically smallest orbit element."""
    c = [x % m for x in coords]
    for x in c:
        if math.gcd(x, m) == 1:
            inv = pow(x, -1, m)
            return tuple((inv * y) % m for y in c)
    best = None
    for lam in range(1, m):
        if math.gcd(lam, m) != 1:
            continue
        cand = tuple((lam * y) % m for y in c)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def reduce_mod(p: PrimPoint, m: int) -> ModPoint:
    if m < 2:
        raise ValueError("modulus must be >= 2")
    c = [x % m for x in p.coords]
    g = math.gcd(m, *c)
    if g != 1:
        # cannot happen for primitive p: gcd(coords) = 1 already
        raise InvalidPoint("reduction is not primitive mod m")
    return ModPoint(m, _canonical_mod(c, m))


def card_projective_mod(n: int, m: int) -> int:
    """|P^n(Z/M)| = M^(n+1) prod_{p|M} (1 - p^-(n+1)) / phi(M), exactly."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2, n >= 1")
    num = m ** (n + 1)
    phi = m
    for p, _ in factorize(m):
        num = num // p ** (n + 1) * (p ** (n + 1) - 1)
        phi = phi // p * (p - 1)
    assert num % phi == 0
    return num // phi


def enum_projective_mod(n: int, m: int) -> list:
    """All points of P^n(Z/M) as canonical representatives, lex-sorted.

    Generates the fixed points of `_canonical_mod` directly.  A vector with
    a unit coordinate is canonical when its first unit coordinate is 1 and
    only non-units come before it; those are products, listed without a
    test.  A primitive vector without a unit coordinate is canonical when
    no other unit multiple is lexicographically smaller.  Its first nonzero
    coordinate x has g = gcd(x, M) a proper divisor of M, and u*x runs over
    every residue whose gcd with M is g as u runs over the units; the least
    of those residues is g itself.  So only vectors that lead, after their
    zeros, with a proper divisor g are tested, and only against the units
    that fix g: every other unit sends g to a larger residue.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2, n >= 1")
    k = n + 1
    nonunits = [x for x in range(m) if math.gcd(x, m) != 1]
    reps = []
    for i in range(k):
        reps.extend(product(*[nonunits] * i, (1,), *[range(m)] * (k - 1 - i)))
    for g in range(2, m):
        if m % g:
            continue
        fix = [u for u in range(2, m) if u * g % m == g and math.gcd(u, m) == 1]
        for z in range(k):
            for v in product(*[(0,)] * z, (g,), *[nonunits] * (k - 1 - z)):
                if math.gcd(m, *v) == 1 and all(
                        v <= tuple(u * x % m for x in v) for u in fix):
                    reps.append(v)
    reps.sort()
    return [ModPoint(m, r) for r in reps]
