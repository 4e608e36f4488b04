"""Height-bounded enumeration and exact sieved counting.

Height conventions per family: on P^n the bound B caps the O(1) height
(max |y_i| for sup, euclidean norm for euclid), so counts grow like
C B^(n+1).  On (P^1)^n and the blown-up plane B caps the anticanonical
height (product of squared factor heights, resp. H_P^2 H_Q), growing like
C B (log B)^(t-1).  All counts are exact integers: a Mobius sieve on P^n
(sup), chunked numpy box scans on euclid P^n, one per-shell table of P^1
counts for (P^1)^n, and on the blown-up plane a sum over the shells of
Q = [a : b] of coprime lattice counts in the fibres, shared by bounded
counts and boxed windows.

Windows follow the shifted-box convention: per-component height intervals
[a_i, b_i] scaled by B^(u_i) for a direction u strictly inside the dual of
the effective cone.  Membership tests compare rational powers exactly, so
window counts are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .exactnum import build_sieve
from .projpoint import Metric, PrimPoint, VarietyId

CENTER = (0, 0, 1)  # blow-up center in P^2


def int_nth_root(x: int, k: int) -> int:
    """Largest t >= 0 with t^k <= x, in exact integer arithmetic."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0, k >= 1")
    if k == 2:
        return math.isqrt(x)
    if x == 0:
        return 0
    # Integer Newton from a power of two above the root: the iterates fall
    # strictly until the first one that does not, which is floor(x^(1/k)).
    t = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * t + x // t ** (k - 1)) // k
        if s >= t:
            return t
        t = s


def rational_power_floor(base: Fraction, expo: Fraction) -> int:
    """Largest integer t >= 0 with t <= base^expo, compared exactly."""
    base = Fraction(base)
    if base < 0:
        raise ValueError("base must be nonnegative")
    p, q = Fraction(expo).numerator, Fraction(expo).denominator
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    num, den = base.numerator ** p, base.denominator ** p
    return int_nth_root(num // den, q)


# ---------------------------------------------------------------------------
# sieved counts on P^n


def count_pn_sieved(n: int, bound: int) -> int:
    """#P^n(Q) with sup height <= bound: (1/2) sum mu(d) ((2 floor(B/d)+1)^(n+1) - 1)."""
    if bound < 1:
        return 0
    table = build_sieve(bound + 1)
    total = 0
    for d in range(1, bound + 1):
        mu = table.mobius(d)
        if mu:
            total += mu * ((2 * (bound // d) + 1) ** (n + 1) - 1)
    assert total % 2 == 0
    return total // 2


def _cnt_residue(r: int, m: int, t: int) -> int:
    # integers z = r (mod m) with |z| <= t, for 0 <= r < m
    return (t - r) // m + (t + r) // m + 1 if t >= 0 else 0


def count_classes_pn(n: int, modulus: int, bound: int) -> dict:
    """Exact per-class counts of sup-height <= B points by reduction mod M.

    Congruence-restricted Mobius sieve.  Only d coprime to M contribute:
    every class representative has a unit coordinate mod M, hence mod every
    prime dividing both d and M, which contradicts d | gcd(y).  Each point
    has representatives t*rep mod M over units t, in both global signs.
    """
    from .projpoint import enum_projective_mod

    classes = enum_projective_mod(n, modulus)
    table = build_sieve(bound + 1)
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    out = {}
    for cls in classes:
        rep = cls.coords
        total = 0
        for d in range(1, bound + 1):
            mu = table.mobius(d)
            if not mu or math.gcd(d, modulus) != 1:
                continue
            dinv = pow(d, -1, modulus)
            t_box = bound // d
            for t in units:
                scale = (dinv * t) % modulus
                prod = 1
                for c in rep:
                    prod *= _cnt_residue((scale * c) % modulus, modulus, t_box)
                    if prod == 0:
                        break
                total += mu * prod
        assert total % 2 == 0 and total >= 0
        out[cls] = total // 2
    return out


# ---------------------------------------------------------------------------
# vectorized box scans


def _axis_coords(n_coords: int, radius: int, chunk: np.ndarray) -> list:
    """Coordinate grids, shape (len(chunk), 2r+1, ..., 2r+1) by broadcasting."""
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = []
    for i in range(n_coords):
        shape = [1] * n_coords
        shape[i] = -1
        grids.append((chunk.astype(np.int64) if i == 0 else rng).reshape(shape))
    return grids


def _chunk_step(n_inner: int, radius: int) -> int:
    width = max(1, (2 * radius + 1) ** n_inner)
    return max(1, 2 * 10 ** 6 // width)


def _count_pn_euclid_vectors(n: int, norm_bound: int, norm_lo: int = 1) -> int:
    """Primitive integer vectors (all signs) with sum of squares in
    [norm_lo, norm_bound]."""
    radius = math.isqrt(norm_bound)
    if radius == 0:
        return 0
    total = 0
    full = np.arange(-radius, radius + 1, dtype=np.int64)
    step = _chunk_step(n, radius)
    for lo in range(0, len(full), step):
        grids = _axis_coords(n + 1, radius, full[lo:lo + step])
        norm = sum(g * g for g in grids)
        g = np.zeros((), dtype=np.int64)
        for gr in grids:
            g = np.gcd(g, np.abs(gr))
        inside = (norm <= norm_bound) & (g == 1)
        if norm_lo > 1:
            inside &= norm >= norm_lo
        total += int(np.count_nonzero(inside))
    return total


def count_pn(n: int, bound, metric: Metric = Metric.SUP) -> int:
    """#P^n(Q) with O(1) height <= bound (exact; bound may be rational)."""
    b = Fraction(bound)
    if b < 1:
        return 0
    if metric is Metric.SUP:
        return count_pn_sieved(n, int(b))
    norm_bound = (b.numerator ** 2) // (b.denominator ** 2)
    vecs = _count_pn_euclid_vectors(n, norm_bound)
    assert vecs % 2 == 0
    return vecs // 2


# ---------------------------------------------------------------------------
# products of lines and the blown-up plane

# Factor heights enter through the integer "shell value": the sup height
# itself, or the squared euclidean norm.  Anticanonical height <= B becomes
# prod shell_i <= cap with cap = floor(sqrt(B)) resp. floor(B).


def _shell_cap(bound: Fraction, metric: Metric) -> int:
    if metric is Metric.SUP:
        return rational_power_floor(bound, Fraction(1, 2))
    return int(bound)


def _p1_shells(cap: int, metric: Metric) -> list:
    """shells[t] = #P^1 points with shell value t, for t = 0..cap (cap >= 1)."""
    if metric is Metric.SUP:
        # max(|a|, |b|) = t holds 4 phi(t) points: [t : c] and [c : t] with
        # gcd(c, t) = 1 and |c| < t for t >= 2; [1:0], [0:1], [1:1], [1:-1]
        # at t = 1
        return [0] + [4 * f for f in build_sieve(cap).phi[1:]]
    # [0 : 1] has norm 1; every other point has one vector [a : b] with a >= 1,
    # collected row by row so that memory stays O(cap)
    radius = math.isqrt(cap)
    b = np.arange(-radius, radius + 1, dtype=np.int64)
    norms = [np.ones(1, dtype=np.int64)]
    for a in range(1, radius + 1):
        norm = a * a + b * b
        norms.append(norm[(np.gcd(a, np.abs(b)) == 1) & (norm <= cap)])
    return np.bincount(np.concatenate(norms), minlength=cap + 1).tolist()


def count_p1n(n: int, bound, metric: Metric = Metric.SUP) -> int:
    """#((P^1)^n)(Q) with anticanonical height prod H_i^2 <= bound, exact."""
    b = Fraction(bound)
    if b < 1:
        return 0
    cap = _shell_cap(b, metric)
    if cap < 1:
        return 0
    shell = _p1_shells(cap, metric)
    cum = list(itertools.accumulate(shell))

    def rec(factors_left: int, cap_left: int) -> int:
        if cap_left < 1:
            return 0
        if factors_left == 1:
            return cum[cap_left]
        return sum(shell[h] * rec(factors_left - 1, cap_left // h)
                   for h in range(1, cap_left + 1) if shell[h])

    return rec(n, cap)


def count_blowup(bound, metric: Metric = Metric.SUP) -> tuple:
    """(countE, countU) for the blown-up plane, anticanonical height <= bound.

    E is the fiber over the center: heights there reduce to the P^1 height
    of the second component.  U-points are primitive triples off the center
    with H_P^2 H_Q <= bound, H_Q taken on the primitive image (x, y).
    """
    b = Fraction(bound)
    if b < 1:
        return 0, 0
    count_e = count_pn(1, b, metric)
    # With s the shell value of Q, H_P^2 H_Q <= B caps the P-shell at
    # R_s = isqrt(floor(B / s)) (sup: max(g s, |z|)^2 s <= B) or at
    # R_s = isqrt(floor(B^2 / s)) (euclid: (g^2 s + z^2)^2 s <= B^2).
    # A fibre is nonempty only while s <= R_s, that is s^3 <= B resp. B^2.
    e = 1 if metric is Metric.SUP else 2
    num, den = b.numerator ** e, b.denominator ** e
    count_u = _count_off_center(metric, 1, int_nth_root(num // den, 3),
                                lambda s: (1, math.isqrt(num // (den * s))))
    return count_e, count_u


def count_points(v: VarietyId, bound, metric: Metric = Metric.SUP) -> int:
    if v.kind == "pn":
        return count_pn(v.n, bound, metric)
    if v.kind == "p1n":
        return count_p1n(v.n, bound, metric)
    count_e, count_u = count_blowup(bound, metric)
    return count_e + count_u


# ---------------------------------------------------------------------------
# joint congruence/box equidistribution


def sup_box_measure(box: Sequence, n: int) -> Fraction:
    """Cone measure of a coordinate box under sup normalization.

    Share of y uniform in [-1,1]^(n+1) with y/max|y_i| inside the box,
    decomposed over which coordinate attains the max and with which sign.
    """
    if len(box) != n + 1:
        raise ValueError("box must have n+1 coordinate intervals")
    iv = [(Fraction(a), Fraction(b)) for a, b in box]
    if any(a > b for a, b in iv):
        raise ValueError("empty interval")
    lens = [max(Fraction(0), min(b, Fraction(1)) - max(a, Fraction(-1))) for a, b in iv]
    total = Fraction(0)
    for j in range(n + 1):
        for s in (1, -1):
            if iv[j][0] <= s <= iv[j][1]:
                prod = Fraction(1)
                for i in range(n + 1):
                    if i != j:
                        prod *= lens[i]
                total += prod
    return total / ((n + 1) * 2 ** (n + 1))


def joint_class_box_counts(n: int, modulus: int, bound: int, box: Sequence) -> dict:
    """Primitive vector counts split by (residue vector mod M, inside box).

    Counts integer vectors with both signs, so shares refer to the uniform
    measure on primitive vectors of the sup ball.  Box membership is the
    exact rational test a_i * max <= y_i <= b_i * max.  Returns a dict
    {(class_tuple, in_box_bool): count}.
    """
    iv = [(Fraction(a), Fraction(b)) for a, b in box]
    if len(iv) != n + 1:
        raise ValueError("box must have n+1 coordinate intervals")
    out: dict = {}
    full = np.arange(-bound, bound + 1, dtype=np.int64)
    step = _chunk_step(n, bound)
    for lo in range(0, len(full), step):
        grids = _axis_coords(n + 1, bound, full[lo:lo + step])
        g = np.zeros((), dtype=np.int64)
        mx = np.zeros((), dtype=np.int64)
        for gr in grids:
            g = np.gcd(g, np.abs(gr))
            mx = np.maximum(mx, np.abs(gr))
        prim = g == 1
        inside = prim.copy()
        for (a, b), gr in zip(iv, grids):
            inside &= (a.numerator * mx <= gr * a.denominator) & (gr * b.denominator <= b.numerator * mx)
        flat = np.zeros((), dtype=np.int64)
        for gr in grids:
            flat = flat * modulus + np.mod(gr, modulus)
        flat = np.broadcast_to(flat, prim.shape)
        for in_box, sel in ((True, prim & inside), (False, prim & ~inside)):
            codes, counts = np.unique(flat[sel], return_counts=True)
            for code, cnt in zip(codes.tolist(), counts.tolist()):
                digits = []
                c = int(code)
                for _ in range(n + 1):
                    digits.append(c % modulus)
                    c //= modulus
                key = (tuple(reversed(digits)), in_box)
                out[key] = out.get(key, 0) + int(cnt)
    return out


# ---------------------------------------------------------------------------
# enumeration: lexicographic, exact, partitionable by leading coordinate


def _iter_coords(n_coords: int, radius: int, first_range=None) -> Iterator:
    """Canonical primitive integer tuples in lexicographic order, sup box."""
    first = range(0, radius + 1) if first_range is None else first_range
    for y0 in first:
        if y0 == 0:
            if n_coords > 1:
                for rest in _iter_coords(n_coords - 1, radius):
                    yield (0,) + rest
        elif y0 <= radius:
            if n_coords == 1:
                if y0 == 1:
                    yield (1,)
                continue
            for rest in itertools.product(range(-radius, radius + 1), repeat=n_coords - 1):
                if math.gcd(y0, *[abs(r) for r in rest]) == 1:
                    yield (y0,) + rest


def _pn_orbits(n: int, o1_bound: Fraction, metric: Metric) -> Iterator[tuple]:
    """(y, weight) over the sorted primitive 0 <= y_0 <= ... <= y_n of the
    P^n ball that `_pn_points` enumerates (sup box of radius int(B), or
    euclid ball |y|^2 <= floor(B^2)).

    Both balls are invariant under the signed permutations of coordinates,
    and every orbit holds exactly one sorted nonnegative y.  The weight is
    the orbit's number of projective points, (n+1)!/prod(mult!) *
    2^#nonzero / 2: distinct permutations times sign choices on the
    nonzero coordinates, over the global sign.
    """
    o1_bound = Fraction(o1_bound)
    if metric is Metric.SUP:
        radius, norm_bound = int(o1_bound), None
    else:
        norm_bound = (o1_bound.numerator ** 2) // (o1_bound.denominator ** 2)
        radius = math.isqrt(norm_bound)
    perms = math.factorial(n + 1)
    for y in itertools.combinations_with_replacement(range(radius + 1), n + 1):
        if norm_bound is not None and sum(c * c for c in y) > norm_bound:
            continue
        if math.gcd(*y) != 1:
            continue
        weight = perms << sum(1 for c in y if c)
        for _, run in itertools.groupby(y):
            weight //= math.factorial(len(tuple(run)))
        yield y, weight // 2


def _pn_points_sup(n: int, radius: int, first_range=None) -> Iterator[PrimPoint]:
    for t in _iter_coords(n + 1, radius, first_range):
        yield PrimPoint(t)


def _pn_points_norm(n: int, norm_bound: int, first_range=None) -> Iterator[PrimPoint]:
    radius = math.isqrt(norm_bound)
    for t in _iter_coords(n + 1, radius, first_range):
        if sum(c * c for c in t) <= norm_bound:
            yield PrimPoint(t)


def _pn_points(n: int, o1_bound: Fraction, metric: Metric, first_range=None) -> Iterator[PrimPoint]:
    if metric is Metric.SUP:
        yield from _pn_points_sup(n, int(o1_bound), first_range)
    else:
        yield from _pn_points_norm(n, (o1_bound.numerator ** 2) // (o1_bound.denominator ** 2), first_range)


def _shell_value(p: PrimPoint, metric: Metric) -> int:
    # sup height for SUP, squared norm for EUCLID: the integer the product
    # conditions are expressed in
    if metric is Metric.SUP:
        return max(abs(c) for c in p.coords)
    return sum(c * c for c in p.coords)


def _sq_height_arg(p: PrimPoint, metric: Metric) -> Fraction:
    # argument of the squared O(1) height
    s = _shell_value(p, metric)
    return Fraction(s * s if metric is Metric.SUP else s)


def _p1_points_shell(cap: int, metric: Metric) -> list:
    """P^1 points with shell value <= cap, lexicographic order."""
    if metric is Metric.SUP:
        return list(_pn_points_sup(1, cap))
    return list(_pn_points_norm(1, cap))


@dataclass(frozen=True)
class HeightWindow:
    """Either a plain height bound, or a box of scaled multiheight intervals.

    Boxed windows hold per-component intervals [a_i, b_i] of exponential
    heights, a direction u strictly inside the dual effective cone, and the
    scale B; membership means H_i in [a_i B^(u_i), b_i B^(u_i)] for all i.
    """

    variety: VarietyId
    metric: Metric = Metric.SUP
    bound: Fraction | None = None
    box: tuple | None = None
    direction: tuple | None = None
    scale: Fraction | None = None

    def __post_init__(self):
        if (self.bound is None) == (self.box is None):
            raise ValueError("specify exactly one of bound or box")
        if self.bound is not None:
            object.__setattr__(self, "bound", Fraction(self.bound))
            if self.bound < 0:
                raise ValueError("bound must be nonnegative")
            return
        t = self.variety.picard_rank
        box = tuple((Fraction(a), Fraction(b)) for a, b in self.box)
        if len(box) != t:
            raise ValueError("box needs one interval per Picard component")
        if any(not 0 < a < b for a, b in box):
            raise ValueError("need 0 < lo < hi in each component")
        u = tuple(Fraction(x) for x in (self.direction if self.direction is not None else (1,) * t))
        if len(u) != t:
            raise ValueError("direction dimension mismatch")
        if not _inside_dual_cone(self.variety, u):
            raise ValueError("direction not strictly inside the dual effective cone")
        scale = Fraction(self.scale if self.scale is not None else 1)
        if scale < 1:
            raise ValueError("scale must be >= 1")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "direction", u)
        object.__setattr__(self, "scale", scale)

    def height_in_component(self, i: int, sq_height_arg: Fraction) -> bool:
        """Exact membership of a height (given by its squared value) in the
        scaled interval [a_i B^u_i, b_i B^u_i]: compares 2q-th powers."""
        a, b = self.box[i]
        p, q = self.direction[i].numerator, self.direction[i].denominator
        lhs = Fraction(sq_height_arg) ** q
        scale_pow = self.scale ** (2 * p)
        return (a ** (2 * q)) * scale_pow <= lhs <= (b ** (2 * q)) * scale_pow

    def component_cap(self, i: int) -> int:
        """Largest integer shell value possibly inside component i."""
        return _shell_interval(self, i)[1]


def _inside_dual_cone(v: VarietyId, u: tuple) -> bool:
    return all(sum(Fraction(g) * x for g, x in zip(gen, u)) > 0 for gen in v.effective_cone)


def _floor_scaled(b: Fraction, scale: Fraction, u: Fraction) -> int:
    # largest integer h with h <= b * scale^u
    p, q = u.numerator, u.denominator
    val = (b ** q) * (scale ** p)
    return int_nth_root(val.numerator // val.denominator, q)


def _ceil_scaled(a: Fraction, scale: Fraction, u: Fraction) -> int:
    # smallest integer h with h >= a * scale^u
    p, q = u.numerator, u.denominator
    val = (a ** q) * (scale ** p)
    f = int_nth_root(val.numerator // val.denominator, q)
    return f if Fraction(f) ** q == val else f + 1


def _shell_interval(w: "HeightWindow", i: int) -> tuple:
    """Integer interval [lo, hi] of shell values inside component i."""
    a, b = w.box[i]
    scale, u = w.scale, w.direction[i]
    if w.metric is Metric.EUCLID:  # the shell value is the squared height
        a, b, scale = a * a, b * b, scale * scale
    return _ceil_scaled(a, scale, u), _floor_scaled(b, scale, u)


def _count_pn_shell_range(n: int, lo: int, hi: int, metric: Metric) -> int:
    """#P^n points with shell value in [lo, hi]."""
    lo = max(lo, 1)
    if hi < lo:
        return 0
    if metric is Metric.EUCLID:
        # one scan of the shell, in chunks: a table indexed by the squared
        # norm would need O(hi) memory
        total = _count_pn_euclid_vectors(n, hi, lo)
        assert total % 2 == 0
        return total // 2
    if n == 1:
        return sum(_p1_shells(hi, metric)[lo:hi + 1])
    return count_pn_sieved(n, hi) - (count_pn_sieved(n, lo - 1) if lo > 1 else 0)


def bounded_window(v: VarietyId, bound, metric: Metric = Metric.SUP) -> HeightWindow:
    return HeightWindow(variety=v, metric=metric, bound=Fraction(bound))


def enum_points(w: HeightWindow, first_range=None) -> Iterator:
    """Points of the window, each exactly once, lexicographic by coordinates.

    P^n yields PrimPoint; (P^1)^n yields tuples of PrimPoint; the blow-up
    yields incidence pairs (P, Q) with all exceptional-fiber points first
    (their P-component is lexicographically least).  `first_range`
    restricts the leading coordinate of the first factor; the ranges from
    `partition_leading_ranges` concatenate to the full enumeration.
    """
    if w.bound is not None:
        yield from _enum_bounded(w.variety, w.metric, w.bound, first_range)
    else:
        yield from _enum_boxed(w, first_range)


def _enum_bounded(v: VarietyId, metric: Metric, bound: Fraction, first_range=None) -> Iterator:
    if v.kind == "pn":
        yield from _pn_points(v.n, bound, metric, first_range)
        return
    if v.kind == "p1n":
        cap = _shell_cap(bound, metric)
        factors = [(p, _shell_value(p, metric)) for p in _p1_points_shell(cap, metric)]
        by_shell = sorted(range(len(factors)), key=lambda i: factors[i][1])
        shells = [factors[i][1] for i in by_shell]
        below = {}

        def within(c: int) -> list:
            # factors with shell value <= c in lexicographic order, built
            # once per distinct c from a prefix of the shell-sorted order
            if c not in below:
                k = bisect_right(shells, c)
                below[c] = [factors[i] for i in sorted(by_shell[:k])]
            return below[c]

        def rec(level: int, prefix: tuple, cap_left: int, items: list) -> Iterator:
            if level == v.n - 1:
                for p, _ in items:
                    yield prefix + (p,)
                return
            for p, s in items:
                c = cap_left // s
                yield from rec(level + 1, prefix + (p,), c, within(c))

        top = factors if first_range is None else \
            [f for f in factors if f[0].coords[0] in first_range]
        yield from rec(0, (), cap, top)
        return
    yield from _enum_blowup(bound, metric, first_range)


def _enum_blowup(bound: Fraction, metric: Metric, first_range=None) -> Iterator:
    from .projpoint import blowup_from_plane, blowup_point

    center = PrimPoint(CENTER)
    if first_range is None or 0 in first_range:
        for q in _pn_points(1, bound, metric):
            yield blowup_point(center, q)
    # U-points: H_P^2 <= bound caps the P coordinates
    radius = rational_power_floor(bound, Fraction(1, 2))
    b2 = bound ** 2
    for t in _iter_coords(3, radius, first_range):
        if t == CENTER:
            continue
        p = PrimPoint(t)
        if metric is Metric.EUCLID and sum(c * c for c in t) > int(bound):
            continue
        pair = blowup_from_plane(p)
        hp2 = _sq_height_arg(p, metric)
        hq2 = _sq_height_arg(pair[1], metric)
        if hp2 ** 2 * hq2 <= b2:
            yield pair


def _enum_boxed(w: HeightWindow, first_range=None) -> Iterator:
    from .projpoint import blowup_from_plane, blowup_point

    v, metric = w.variety, w.metric
    if v.kind == "pn":
        cap = w.component_cap(0)
        it = _pn_points_sup(v.n, cap, first_range) if metric is Metric.SUP \
            else _pn_points_norm(v.n, cap, first_range)
        for p in it:
            if w.height_in_component(0, _sq_height_arg(p, metric)):
                yield p
        return
    if v.kind == "p1n":
        per_factor = []
        for i in range(v.n):
            pts = [p for p in _p1_points_shell(w.component_cap(i), metric)
                   if w.height_in_component(i, _sq_height_arg(p, metric))]
            per_factor.append(pts)
        if first_range is not None:
            per_factor[0] = [p for p in per_factor[0] if p.coords[0] in first_range]
        yield from itertools.product(*per_factor)
        return
    center = PrimPoint(CENTER)
    if (first_range is None or 0 in first_range) and w.height_in_component(0, Fraction(1)):
        for q in _p1_points_shell(w.component_cap(1), metric):
            if w.height_in_component(1, _sq_height_arg(q, metric)):
                yield blowup_point(center, q)
    cap = w.component_cap(0)
    it = _pn_points_sup(2, cap, first_range) if metric is Metric.SUP else _pn_points_norm(2, cap, first_range)
    for p in it:
        if p.coords == CENTER:
            continue
        pair = blowup_from_plane(p)
        if w.height_in_component(0, _sq_height_arg(p, metric)) and \
           w.height_in_component(1, _sq_height_arg(pair[1], metric)):
            yield pair


def partition_leading_ranges(w: HeightWindow, workers: int) -> list:
    """Split of the leading coordinate into ranges; enum_points over them,
    concatenated in order, equals the single-range enumeration."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    v, metric = w.variety, w.metric
    if w.bound is not None:
        if v.kind == "pn":
            radius = int(w.bound) if metric is Metric.SUP else math.isqrt(
                (w.bound.numerator ** 2) // (w.bound.denominator ** 2))
        elif v.kind == "p1n":
            cap = _shell_cap(w.bound, metric)
            radius = cap if metric is Metric.SUP else math.isqrt(cap)
        else:
            radius = rational_power_floor(w.bound, Fraction(1, 2))
    else:
        cap = w.component_cap(0)
        radius = cap if metric is Metric.SUP else math.isqrt(cap)
    edges = sorted({round(i * (radius + 1) / workers) for i in range(workers + 1)})
    return [range(edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i] < edges[i + 1]]


# ---------------------------------------------------------------------------
# window counts with reference constants


@dataclass(frozen=True)
class CountReport:
    count: int
    scale: Fraction
    fitted: float      # count / B^<anticanonical, u>
    reference: float   # beta * nu(D_1) * tau
    rel_error: float


def count_window(w: HeightWindow) -> CountReport:
    """Exact boxed-window count against beta nu(D_1) tau B^<w,u>."""
    from .tamagawa import assemble_constant, nu_window

    if w.box is None:
        raise ValueError("count_window needs a boxed window")
    v = w.variety
    count = _count_boxed(w)
    weights = v.anticanonical
    deg = float(sum(Fraction(wt) * u for wt, u in zip(weights, w.direction)))
    const = assemble_constant(v, w.metric)
    tau = const.closed_form(v) / float(const.alpha)  # beta = 1 included
    reference = tau * nu_window(weights, [a for a, _ in w.box], [b for _, b in w.box])
    fitted = count / float(w.scale) ** deg
    rel = abs(fitted - reference) / reference if reference > 0 else math.inf
    return CountReport(count=count, scale=w.scale, fitted=fitted,
                       reference=reference, rel_error=rel)


def _count_boxed(w: HeightWindow) -> int:
    v, metric = w.variety, w.metric
    if v.kind == "pn":
        lo, hi = _shell_interval(w, 0)
        return _count_pn_shell_range(v.n, lo, hi, metric)
    if v.kind == "p1n":
        total = 1
        for i in range(v.n):
            lo, hi = _shell_interval(w, i)
            total *= _count_pn_shell_range(1, lo, hi, metric)
            if total == 0:
                return 0
        return total
    return _count_boxed_blowup(w)


def _squarefree_divisors(g: int, cache: dict) -> list:
    if g not in cache:
        from .exactnum import factorize

        divs = [(1, 1)]
        for p, _ in factorize(g):
            divs += [(d * p, -s) for d, s in divs]
        cache[g] = divs
    return cache[g]


def _coprime_signed_count(g: int, zlo: int, zhi: int, cache: dict) -> int:
    """#{z integer, gcd(g, z) = 1, zlo <= |z| <= zhi}; zlo = 0 admits z = 0."""
    if zhi < zlo:
        return 0
    lo = max(zlo, 1)
    total = 0
    for d, s in _squarefree_divisors(g, cache):
        m = 2 * (zhi // d - (lo - 1) // d)
        if zlo <= 0:
            m += 1  # z = 0 is a multiple of every d
        total += s * m
    return total


def _count_off_center(metric: Metric, s_lo: int, s_hi: int, p_shells) -> int:
    """Points of the blown-up plane off the center, fibred over Q = [a : b].

    Off the center P = (g a, g b, z) with Q primitive, g >= 1 and
    gcd(g, z) = 1.  The P-shell is max(g s, |z|) (sup) or g^2 s + z^2
    (euclid), s the shell value of Q, so the N_1(s) points Q of one shell
    share their fibre: a coprime lattice count of the (g, z) whose P-shell
    lies in p_shells(s) = (lo, hi), lo >= 1.  Sums over s in [s_lo, s_hi].
    """
    if s_hi < s_lo:
        return 0
    n1 = _p1_shells(s_hi, metric)
    cache: dict = {}
    total = 0
    for s in range(s_lo, s_hi + 1):
        if not n1[s]:
            continue
        lo, hi = p_shells(s)
        fibre = 0
        if metric is Metric.SUP:
            # H_P = max(g s, |z|)
            for g in range(1, hi // s + 1):
                fibre += _coprime_signed_count(g, 0 if g * s >= lo else lo, hi, cache)
        else:
            # k_P = g^2 s + z^2
            g = 1
            while g * g * s <= hi:
                zmax = math.isqrt(hi - g * g * s)
                need = lo - g * g * s
                zmin = 0 if need <= 0 else math.isqrt(need - 1) + 1
                fibre += _coprime_signed_count(g, zmin, zmax, cache)
                g += 1
        total += n1[s] * fibre
    return total


def _count_boxed_blowup(w: HeightWindow) -> int:
    lo0, hi0 = _shell_interval(w, 0)
    lo1, hi1 = _shell_interval(w, 1)
    lo0, lo1 = max(lo0, 1), max(lo1, 1)
    total = 0
    if lo0 <= 1 <= hi0:  # exceptional fiber: H_P = 1 at the center
        total += _count_pn_shell_range(1, lo1, hi1, w.metric)
    if hi0 < lo0:
        return total
    # the fibre over a Q of shell s has P-shells >= s
    return total + _count_off_center(w.metric, lo1, min(hi1, hi0),
                                     lambda s: (lo0, hi0))
