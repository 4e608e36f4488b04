"""Height-bounded enumeration and exact sieved counting.

Height conventions per family: on P^n the bound B caps the O(1) height
(max |y_i| for sup, euclidean norm for euclid), so counts grow like
C B^(n+1).  On (P^1)^n and the blown-up plane B caps the anticanonical
height (product of squared factor heights, resp. H_P^2 H_Q), growing like
C B (log B)^(t-1).  All counts are exact integers.  One walk over the
runs of d sharing floor(x/d^e) evaluates every divisor sum: P^n shell
ranges (Mobius weights on box or ball counts), their classes mod M,
(P^1)^n (P^1 counts, read at the quotients of its cap, as weights), and
the fibres of the blown-up plane.  The Mobius weights are sums of mu(d)
over d prime to M, read at run ends from `_CoprimeMertens`: byte counts
over a sieve table of one byte an entry to about x^(2/3), and above it
the Mertens identity split at sqrt(v), whose sums over j and q each run
as one C-level `sum(map(...))`.  So no count on P^n or (P^1)^n builds a
table of size B, nor a list of Python ints the size of its table.

The blown-up plane fibres over the shells s of Q = [a : b]: off the
center P = (g a, g b, z) with gcd(g, z) = 1, and Mobius inversion over
d = gcd(g, z) makes a fibre sum_d mu(d) (F_s(floor(hi/d^e)) -
F_s(floor((lo-1)/d^e))), where F_s(x) counts all (g >= 1, z) of P-shell
at most x: floor(x/s) (2x + 1) under sup, the sum over g <= sqrt(x/s) of
2 isqrt(x - g^2 s) + 1 under euclid.  F_s vanishes below s, which cuts
each walk at floor(x/s) resp. isqrt(x // s), and one Mertens table serves
every s.  Counts by residue class on P^n, in all of the sup ball or in a
cone box, are Mobius inversions over the d prime to M with those runs: a
class is closed under the units mod M, so y -> y/d keeps it, and the box
counts walk the sup shells of the one cone.  No kernel builds arrays: ball
counts sum integer square roots over sorted coordinates, and the box walk
adds a few differences a shell.

Windows follow the shifted-box convention: per-component height intervals
[a_i, b_i] scaled by B^(u_i) for a direction u strictly inside the dual of
the effective cone.  Every window, bounded or boxed, decides membership by
integer shell intervals, one per component, and a cap on their joint
product; counts and enumeration read the same intervals, so window counts
are exact and reproducible bit for bit.  The tuples of factor rows whose
integer keys multiply to at most a cap come from one walk,
`_capped_tuples`: it lists the (P^1)^n points here, the freeness classes
and the product zoom clouds.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import add, floordiv, getitem, mul, sub

from .exactnum import Frozen, build_sieve, factorize, totients
from .projpoint import (Metric, PrimPoint, VarietyId, blowup_from_plane, blowup_point,
                        card_projective_mod, enum_projective_mod)
from .tamagawa import closed_form, cone_alpha, nu_window

CENTER = (0, 0, 1)  # blow-up center in P^2


def int_nth_root(x: int, k: int) -> int:
    """Largest t >= 0 with t^k <= x, in exact integer arithmetic."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0, k >= 1")
    if k == 1:
        return x
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


# ---------------------------------------------------------------------------
# shell values

# Heights enter through the integer "shell value" of a primitive vector: the
# sup height itself, or the squared euclidean norm.  Every height condition
# becomes an integer interval of shell values, or a cap on a product of them.


def _shell_value(coords: Sequence[int], metric: Metric) -> int:
    if metric is Metric.SUP:
        return max(abs(c) for c in coords)
    return sum(c * c for c in coords)


def _shell_cap(sq_bound: Fraction, metric: Metric) -> int:
    """Largest shell value of a height H with H^2 <= sq_bound: floor(sqrt)
    for sup, where the shell is H, and floor for euclid, where it is H^2."""
    floor = sq_bound.numerator // sq_bound.denominator
    return math.isqrt(floor) if metric is Metric.SUP else floor


def _shell_radius(cap: int, metric: Metric) -> int:
    """Largest coordinate of a vector with shell value <= cap."""
    return cap if metric is Metric.SUP else math.isqrt(cap)


# ---------------------------------------------------------------------------
# counts on P^n by Mobius inversion


def count_pn(n: int, bound, metric: Metric = Metric.SUP) -> int:
    """#P^n(Q) with O(1) height <= bound (exact; bound may be rational)."""
    b = Fraction(bound)
    if b < 1:
        return 0
    return _count_pn_range(n, 1, _shell_cap(b * b, metric), metric)


def count_pn_sieved(n: int, bound: int) -> int:
    """#P^n(Q) with sup height <= bound: (1/2) sum mu(d) ((2 floor(B/d)+1)^(n+1) - 1)."""
    return _count_pn_range(n, 1, bound, Metric.SUP)


def _count_pn_range(n: int, lo: int, hi: int, metric: Metric) -> int:
    """#P^n points with shell value in [lo, hi]: half the primitive vectors
    of shell value <= hi less those <= lo - 1, each count a
    `_primitive_upto` over d <= top = hi^(1/e) on one Mertens table, as
    y, -y are one point.

    Under sup that is O(hi^(2/3)) work in all (`_mertens_for`); under
    euclid the ball counts dominate."""
    lo = max(lo, 1)
    if hi < lo:
        return 0
    e = 1 if metric is Metric.SUP else 2
    top = int_nth_root(hi, e)
    mertens = _mertens_for(top, e)
    nonzero = functools.partial(_nonzero_vectors, n, e)
    total = (_primitive_upto(hi, top, mertens, e, nonzero)
             - _primitive_upto(lo - 1, top, mertens, e, nonzero))
    assert total % 2 == 0
    return total // 2


def _nonzero_vectors(n: int, e: int, q: int) -> int:
    """G(q), the nonzero vectors of Z^(n+1) of shell value <= q:
    (2q + 1)^(n+1) - 1 under sup (e = 1), V_(n+1)(q) - 1 under euclid."""
    return ((2 * q + 1) ** (n + 1) if e == 1 else _ball_count(n + 1, q)) - 1


def _primitive_upto(x: int, top: int, mertens, e: int, nonzero) -> int:
    """The primitive vectors of shell value <= x, for any top >= x^(1/e):
    sum_(d <= top) mu(d) nonzero(floor(x/d^e)), nonzero(q) the nonzero
    vectors of shell value <= q, as a nonzero y is d z for one primitive z
    and d >= 1.  The sum runs over `_quotient_runs`, weighted by the
    Mertens function."""
    return sum(w * nonzero(q) for q, w in _quotient_runs(x, top, mertens, e))


class _CoprimeMertens:
    """M_M(v) = sum of mu(d) over d <= v with gcd(d, M) = 1, at any v >= 0,
    read as `sums[v]`.

    Up to `limit` it counts the +1 and -1 bytes of a `build_sieve` table,
    mu zeroed where gcd(d, M) > 1, from the last read (a run walk reads in
    increasing order).  Above, with chi(k) = [gcd(k, M) = 1], (mu chi) * chi
    = [n = 1] gives sum_(j <= v, chi(j)) M_M(floor(v/j)) = 1; split at
    u = max(isqrt(v), floor(v/(limit+1))), Q = floor(v/(u+1)) <= limit, and
    summed by Abel over j > u: M_M(v) = 1 - sum_(2 <= j <= u, chi(j))
    M_M(floor(v/j)) - sum_(q <= Q) mu chi(q) C(floor(v/q)) + M_M(Q) C(u),
    C(y) = #{k <= y : chi(k)} = sum_(e | M) mu(e) floor(y/e).  As
    floor(floor(x/m)/j) = floor(x/(mj)), a read above the table evaluates
    every quotient x // m of its x in increasing order, and each sum is one
    C-level `sum(map(...))` over big[mj] = M_M(x // (mj)) by a strided
    slice, or short[v] = M_M(v), v <= sqrt(x).  A table to about x^(2/3)
    leaves 2 x^(2/3) terms (Deleglise-Rivat), and no Python step a term.
    """

    def __init__(self, modulus: int, limit: int):
        self.limit = limit = max(1, limit)
        self.modulus = modulus
        self.mu = build_sieve(limit)
        self.table = table = self.mu.obj
        self.divisors = [(1, 1)]  # (e, mu(e)) over the squarefree e | M
        for p, _ in factorize(modulus) if modulus > 1 else ():
            # the view pins the buffer's size, and even an empty slice
            # assignment checks it
            if p <= limit:
                table[p::p] = bytes(len(range(p, limit + 1, p)))
            self.divisors += [(e * p, -s) for e, s in self.divisors]
        self.units = [math.gcd(j, modulus) == 1 for j in range(modulus)]
        # short[v] = M_M(v) to the largest isqrt(x) read
        self.short, self.cursor, self.memo = [0], (0, 0), {}
        self._grow(math.isqrt(limit))

    def __getitem__(self, v: int) -> int:
        if v < len(self.short):
            return self.short[v]
        if v > self.limit:
            total = self.memo.get(v)
            return self._solve(v) if total is None else total
        at, total = self.cursor
        if at > v:
            at, total = len(self.short) - 1, self.short[-1]
        count = self.table.count
        self.cursor = (v, total + count(1, at + 1, v + 1) - count(255, at + 1, v + 1))
        return self.cursor[1]

    def _grow(self, s: int) -> None:
        short, n = self.short, len(self.short)
        top = min(s, self.limit) + 1
        if n < top:
            short += itertools.accumulate(self.mu[n:top], initial=short.pop())
        for v in range(len(short), s + 1):  # above a short table
            short.append(self._value(v, [], 1, 0))

    def _solve(self, x: int) -> int:
        """M_M(x), after M_M(x // m) for every m, those above the table into
        the memo."""
        s = math.isqrt(x)
        self._grow(s)
        big = [0] * (s + 1)  # big[m] = M_M(x // m)
        for m in range(s, 0, -1):
            w = x // m
            total = self.memo.get(w) if w > self.limit else self[w]
            if total is None:
                total = self.memo[w] = self._value(w, big, m, s // m)
            big[m] = total
        return big[1]

    def _value(self, w: int, big: list, m: int, most: int) -> int:
        """M_M(w) by the identity, w = x // m: M_M(w // j) is big[m j] for
        j <= most and short[w // j] above."""
        short = self.short
        u = max(math.isqrt(w), w // (self.limit + 1))
        q, most = w // (u + 1), min(most, u)
        quots = [w]  # quots[j] = w // j
        quots += map(floordiv, itertools.repeat(w, u), range(1, u + 1))
        terms = itertools.chain(big[2 * m:m * most + 1:m],
                                map(short.__getitem__, quots[max(most, 1) + 1:]))
        if self.modulus > 1:
            terms = itertools.compress(terms, itertools.islice(
                itertools.cycle(self.units), 2, None))
        total = 1 - sum(terms) - sum(map(mul, self.mu[1:q + 1], quots[1:q + 1]))
        for e, s in self.divisors[1:]:
            total -= s * sum(map(mul, self.mu[1:q + 1], map(
                floordiv, itertools.repeat(w // e), range(1, q + 1))))
        return total + short[q] * sum(s * (u // e) for e, s in self.divisors)


def _mertens_for(top: int, e: int) -> _CoprimeMertens:
    """Mertens sums for walks over d <= top of floor(x/d^e).  Under e = 1
    the runs end at quotients floor(x/k), where `_CoprimeMertens` recurses
    above a table of about top^(2/3) entries; under e = 2 they end at
    isqrt(x // q), arbitrary integers up to top, so the table covers them."""
    return _CoprimeMertens(1, top if e == 2 else int_nth_root(top * top, 3))


def _quotient_runs(x: int, top: int, cum, e: int) -> Iterator[tuple]:
    """(q, cum[end] - cum[d - 1]) for each run d..end <= top of the d sharing
    q = floor(x/d^e), the last (q = 0) ending at top: the O(x^(1/(e+1)))
    terms of sum_(d <= top) f(d) F(floor(x/d^e)), cum the prefix sums of f
    (a list, or `_CoprimeMertens`).  Under e = 1 the run ends are the
    quotients floor(x/q), which the read of cum[x] evaluates at once."""
    if e == 1:
        cum[x]
    d, below = 1, cum[0]
    while d <= top:
        q = x // d ** e
        end = top if q == 0 else min(top, x // q if e == 1 else math.isqrt(x // q))
        at = cum[end]
        yield q, at - below
        d, below = end + 1, at


def _root_sum(rem: int, lo: int, hi: int) -> int:
    """sum of isqrt(rem - y^2) over 1 <= lo <= y <= hi, hi^2 <= rem: the
    points (y, z), z >= 1, under the circle, counted by rows z.  Near the
    diagonal, where the callers sum, the arc is steep, so there are fewer
    rows than columns.  The t = isqrt(rem - hi^2) lowest rows are full; a
    row z <= isqrt(rem - lo^2) above them holds isqrt(rem - z^2) - lo + 1."""
    if hi < lo:
        return 0
    t, top = math.isqrt(rem - hi * hi), math.isqrt(rem - lo * lo)
    total = t * (hi - lo + 1) - (top - t) * (lo - 1)
    if top > t:
        total += sum(map(math.isqrt, itertools.accumulate(
            range(-2 * t - 3, -2 * top - 1, -2), initial=rem - (t + 1) ** 2)))
    return total


def _ball_count(k: int, n: int) -> int:
    """V_k(n) = #{x in Z^k : x_1^2 + ... + x_k^2 <= n}, k >= 2, exactly.

    Each x is a signed permutation of one sorted 0 <= y_1 <= ... <= y_k,
    which stands for k!/prod(mult!) 2^#nonzero vectors."""
    return _sorted_ball(k, n, 0, 0, math.factorial(k), 0)


def _sorted_ball(left: int, rem: int, v: int, run: int, weight: int, nz: int) -> int:
    """Vectors of `_ball_count` with sorted tail v <= y_1 <= ... <= y_left,
    sum y_i^2 <= rem, after a prefix that ends in `run` copies of v (none
    at the start), has nz nonzero entries, and leaves weight = k!/prod(mult!)
    over its closed runs.  The last two entries y <= z are counted in closed
    form: y > v with z > y or z = y, then y = v (the run grows) with z > v
    or z = v; 2 v^2 <= rem, as the prefix chose v with room for them."""
    if left > 2:
        return sum(_sorted_ball(left - 1, rem - u * u, u, run + 1 if u == v else 1,
                                weight if u == v else weight // math.factorial(run),
                                nz + (u > 0))
                   for u in range(v, math.isqrt(rem // left) + 1))
    top, w = math.isqrt(rem // 2), weight // math.factorial(run)
    above = _root_sum(rem, v + 1, top) - (top * (top + 1) - v * (v + 1)) // 2
    return ((w << nz + 2) * above + (w << nz + 1) * (top - v)
            + (weight // math.factorial(run + 1) << nz + (v > 0) + 1)
            * (math.isqrt(rem - v * v) - v)
            + (weight // math.factorial(run + 2) << nz + 2 * (v > 0)))


def count_classes_pn(n: int, modulus: int, bound: int) -> dict:
    """Exact per-class counts of sup-height <= B points by reduction mod M.

    Congruence-restricted Mobius sieve.  A point of class [c] has two
    primitive vectors, +-y, and y = t c (mod M) for one unit t, as c is
    primitive mod M.  So no prime of M divides all of y, and twice the
    count is sum_t sum_d mu(d) prod_i #{|z| <= floor(B/d) : z = t c_i} over
    d prime to M: `_quotient_runs` of q = floor(B/d), weighted by sums of
    mu(d) from `_CoprimeMertens` (O(B^(2/3)) work, no table of size B).

    For q = M a + rho, 0 <= rho < M, a factor is 2a + v with v = [s <= rho]
    + [M - s <= rho], s = min(r, M - r) the distance of the residue r to 0.
    As s <= M/2 <= M - s, rho meets the compositions (i1, i2), i_j the
    coordinates with v = j, in one order, (0, 0) .. (n+1, 0), (n, 1) ..
    (0, n+1), cut at the sorted distances s_1 .. s_(n+1) and then at
    M - s_(n+1) .. M - s_1.  So one pass over the runs fills, per
    composition, prefix sums over rho of the sums of w (2a)^i0 (2a+1)^i1
    (2a+2)^i2 over the runs with q = rho (mod M), and the sum over rho for
    a unit t is the last composition's total plus, per coordinate of t c,
    the steps between neighbouring prefix sums at its two cuts (`rank`).
    The distance tuples of one class share its count, as do classes that
    differ by permuting or negating coordinates.  Work:
    runs x (2n+3) products plus keys x phi(M) x (n+1) steps, no factor of
    B, and the Mertens O(B^(2/3)).
    """
    prime_to_m = _CoprimeMertens(modulus, int_nth_root(bound * bound, 3))
    k = n + 1
    walk = [(i1, 0) for i1 in range(k)] + [(k - i2, i2) for i2 in range(k + 1)]
    prefix = [[0] * (modulus + 1) for _ in walk]
    for q, w in _quotient_runs(bound, bound, prime_to_m, 1):
        x = 2 * (q // modulus)
        for (i1, i2), col in zip(walk, prefix):
            col[q % modulus + 1] += w * x ** (k - i1 - i2) * (x + 1) ** i1 * (x + 2) ** i2
    prefix = [list(itertools.accumulate(col)) for col in prefix]
    step = [list(map(sub, before, after)) for before, after in itertools.pairwise(prefix)]
    # rank[i][s]: the steps at s and at M - s of the i-th smallest distance s
    rank = [list(map(add, step[i][:modulus // 2 + 1], step[~i][::-1])) for i in range(k)]

    dist = [min(r, modulus - r) for r in range(modulus)]
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    keys = {cls: tuple(sorted(dist[c] for c in cls.coords))
            for cls in enum_projective_mod(n, modulus)}
    counts = {}
    for key in keys.values():
        if key not in counts:
            orbit = [tuple(sorted(dist[t * s % modulus] for s in key)) for t in units]
            total = prefix[-1][modulus] * len(units) + sum(
                sum(map(getitem, rank, sigma)) for sigma in orbit)
            assert total % 2 == 0 and total >= 0
            counts.update(dict.fromkeys(orbit, total // 2))
    return {cls: counts[key] for cls, key in keys.items()}


# ---------------------------------------------------------------------------
# products of lines and the blown-up plane

# Anticanonical height <= B is prod H_i^2 <= B on (P^1)^n, so the shells
# multiply to at most _shell_cap(B); on the blown-up plane it is
# H_P^2 H_Q <= B, so s_P^2 s_Q <= _shell_cap(B^2) in both metrics.


def _p1_shells(cap: int, metric: Metric) -> list:
    """shells[t] = #P^1 points with shell value t, for t = 0..cap (cap >= 1),
    read by the blow-up fibres up to B^(1/3) (sup) or B^(2/3) (euclid)."""
    if metric is Metric.SUP:
        # max(|a|, |b|) = t holds 4 phi(t) points: [t : c] and [c : t] with
        # gcd(c, t) = 1 and |c| < t for t >= 2; [1:0], [0:1], [1:1], [1:-1]
        # at t = 1
        return [4 * f for f in totients(cap)]
    shells = [0] * (cap + 1)
    for a, b in _pn_coords(1, 1, cap, metric):  # the primitive pairs in the disc
        shells[a * a + b * b] += 1
    return shells


def count_p1n(n: int, bound, metric: Metric = Metric.SUP) -> int:
    """#((P^1)^n)(Q) with anticanonical height prod H_i^2 <= bound, exact.

    N_k(x), the points of (P^1)^k whose shells multiply to at most x, is the
    sum over the shells h of the first factor of #{P^1 points of shell h}
    N_(k-1)(floor(x/h)): a walk over the runs of h sharing floor(x/h),
    weighted by differences of N_1.  The walk from the cap c reads N_k only
    at quotients floor(c/m), and so do the walks from those, as
    floor(floor(c/a)/b) = floor(c/(ab)).  So each level is counted once at
    each of the O(sqrt(c)) quotients, from the level below, and N_1(x) is
    half the `_primitive_upto` of P^1 at x, all read from one Mertens
    table: O(c^(3/4)) steps a level, and no list of length c."""
    if n < 1:
        raise ValueError("need n >= 1")
    b = Fraction(bound)
    if b < 1:
        return 0
    cap = _shell_cap(b, metric)
    e = 1 if metric is Metric.SUP else 2
    mertens = _mertens_for(int_nth_root(cap, e), e)
    r = math.isqrt(cap)
    quotients = [*range(r + 1), *(cap // m for m in range(cap // (r + 1), 0, -1))]
    # floor(x/d^e) is a quotient too, so the vector counts are read there
    nonzero = {x: _nonzero_vectors(1, e, x) for x in quotients}.__getitem__
    # largest first: under sup the read at c fills the Mertens memo above
    # its table with every quotient
    points = level = {x: _primitive_upto(x, int_nth_root(x, e), mertens, e, nonzero) // 2
                      for x in reversed(quotients)}
    for k in range(2, n + 1):
        below = level
        level = {x: sum(w * below[q] for q, w in _quotient_runs(x, x, points, 1))
                 for x in (quotients if k < n else [cap])}
    return level[cap]


def count_blowup(bound, metric: Metric = Metric.SUP) -> tuple:
    """(countE, countU) for the blown-up plane, anticanonical height <= bound.

    E is the fiber over the center: heights there reduce to the P^1 height
    of the second component.  U-points are primitive triples off the center
    with H_P^2 H_Q <= bound, H_Q taken on the primitive image (x, y).
    """
    b = Fraction(bound)
    if b < 1:
        return 0, 0
    w = HeightWindow(variety=VarietyId("blowup", 2), metric=metric, bound=b)
    return _count_blowup_window(*_shell_spec(w), metric)


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
    """Primitive vectors y with max|y| <= B and a_i max|y| <= y_i <= b_i
    max|y| (exact rational test), counted by class mod M >= 2 under the
    `ModPoint` keys of `count_classes_pn`.  Both signs count, so the full
    box gives twice the class counts.

    The cone is invariant under y -> d y, and a class under the units mod M.
    If y = d z with z primitive lies in the class [c], d is prime to M (a
    common prime would divide c), and z lies in it too.  Mobius inversion
    over those d gives count([c]) = sum_d mu(d) O(c, floor(B/d)), where
    O(c, q) counts the nonzero cone vectors of max|y| <= q with residue in
    the orbit {t c}.  A vector of sup shell m is in O(c, floor(B/d)) for
    each d <= floor(B/m), so it weighs M_M(floor(B/m)) from the
    `_CoprimeMertens` of `count_classes_pn`.  With max|y| = m the cone is
    the box [ceil(a_i m), floor(b_i m)], so a shell holds the vectors of
    that box in [-m, m]^(n+1) less those in [-(m-1), m-1]^(n+1), each a
    product of per-coordinate residue counts.  As differences over the
    residue such a count has at most three nonzero entries
    (`_residue_steps`), so a shell adds at most 2 * 3^(n+1) terms to one
    table; prefix sums along its n + 1 axes turn it into counts by residue,
    and one gather per unit sums those over the orbits of the class
    representatives, the only residues where the inversion holds.  That is
    O(B 3^(n+1) + (n+1) M^(n+1)) exact work, where a scan of the box is
    O(B^(n+1))."""
    iv = [(Fraction(a), Fraction(b)) for a, b in box]
    if len(iv) != n + 1:
        raise ValueError("box must have n+1 coordinate intervals")
    prime_to_m = _CoprimeMertens(modulus, int_nth_root(bound * bound, 3))
    strides = [modulus ** (n - i) for i in range(n + 1)]  # residues row-major
    cone = [(a.numerator, a.denominator, b.numerator, b.denominator, stride)
            for (a, b), stride in zip(iv, strides)]
    size = modulus ** (n + 1)
    steps = [0] * size
    for m in range(1, bound + 1):
        w = prime_to_m[bound // m]
        for r, sign in ((m, w), (m - 1, -w)) if w else ():
            terms = [(0, sign)]
            for an, ad, bn, bd, stride in cone:
                factor = _residue_steps(modulus, max(-(-an * m // ad), -r),
                                        min(bn * m // bd, r), stride)
                terms = [(k + j, x * y) for k, x in terms for j, y in factor]
            for k, x in terms:
                steps[k] += x
    for stride in strides:
        span = stride * modulus
        for start in (b + i for b in range(0, size, span) for i in range(stride)):
            line = slice(start, start + span, stride)
            steps[line] = itertools.accumulate(steps[line])
    classes = enum_projective_mod(n, modulus)
    columns = list(zip(*(cls.coords for cls in classes)))
    orbits = [0] * len(classes)
    for t in range(1, modulus):
        if math.gcd(t, modulus) == 1:
            at = [0] * len(classes)
            for column, stride in zip(columns, strides):
                at = list(map(add, at, [t * c % modulus * stride for c in column]))
            orbits = list(map(add, orbits, map(steps.__getitem__, at)))
    return dict(zip(classes, orbits))


def _residue_steps(modulus: int, lo: int, hi: int, stride: int) -> list:
    """#{y in [lo, hi] : y = c (mod M)} over c = 0..M-1 as differences, the
    count at c less that at c - 1 (none below 0), in (c * stride, step)
    pairs: floor((hi+1)/M) - floor(lo/M) at c = 0, plus 1 at lo mod M,
    less 1 at (hi + 1) mod M; nothing for an empty interval."""
    if hi < lo:
        return []
    steps = {0: (hi + 1) // modulus - lo // modulus}
    for c, x in ((lo % modulus, 1), ((hi + 1) % modulus, -1)):
        steps[c * stride] = steps.get(c * stride, 0) + x
    return [(k, x) for k, x in steps.items() if x]


# `box_walk_cost` counts the residue entries of a full table per shell,
# more than the walk's differences: at the limit it took 0.05 s (P^2 mod 31,
# B = 649) to 1.7 s (P^5 mod 2, B = 18,796) on a 2-core VM
BOX_WALK_LIMIT = 2 * 10 ** 7

# Classes of P^n(Z/M) past which `count_classes_pn` is refused: it lists
# every class in Python, and 88,741 classes (P^4 mod 17) took 2.3 s and
# 94 MB, 101,556 (P^2 mod 180) 5 s on a 2-core VM.
CLASS_LIMIT = 10 ** 5

# `class_count_cost` past which `count_classes_pn` is refused: a product
# takes about 250 ns on a 2-core VM (P^1 mod 2310 at B = 10, 2.0 10^7 of
# them, 5 s), so the limit is about 1 s.
CLASS_WORK_LIMIT = 4 * 10 ** 6

# Shell cap past which a (P^1)^n count is refused, a guard on time:
# `count_p1n` takes O(c^(3/4)) steps a factor at cap c.  At cap 10^7 sup
# (P^1)^2 (B = 1e14) took 0.7-1.3 s, (P^1)^4 1.4-2.8 s and euclid
# (P^1)^2 (B = 1e7) 0.1-0.3 s, each in under 20 MB on a 2-core VM; cap
# 10^15 (sup B = 1e30) would take days.  The value is kept from when the
# count listed every shell size, which took 6.4 s and 1.26 GB at 10^7.
P1_SHELL_LIMIT = 10 ** 7


def box_walk_cost(n: int, modulus: int, bound: int) -> int:
    """A-priori work of `joint_class_box_counts`, in residue entries: one
    step per sup shell m <= B (at least one), each over the M^(n+1)
    residues plus an overhead worth 1000 of them."""
    return max(bound, 1) * (modulus ** (n + 1) + 1000)


def class_count_cost(n: int, modulus: int, bound: int) -> int:
    """A-priori work of `count_classes_pn`, in products: |P^n(Z/M)|
    classes times phi(M) units times 2 sqrt(B) quotient runs, the cost of a
    walk over every run per class.  The prefix sums by residue take no
    factor of sqrt(B) per class, so this is now an upper bound on the work;
    `CLASS_WORK_LIMIT` is unchanged."""
    units = sum(math.gcd(t, modulus) == 1 for t in range(1, modulus))
    return card_projective_mod(n, modulus) * units * 2 * math.isqrt(bound)


# ---------------------------------------------------------------------------
# enumeration: lexicographic, exact, partitionable by leading coordinate


def _iter_coords(n_coords: int, radius: int, first_range=None, cells=None) -> Iterator:
    """Canonical primitive integer tuples in lexicographic order, sup box.

    cells, when given, holds a label for each value -radius..radius in
    turn, and each tuple then holds the labels of its coordinates in their
    place; the gcd is still taken on the values.
    """
    first = range(0, radius + 1) if first_range is None else first_range
    full = range(-radius, radius + 1)
    cells = full if cells is None else cells
    for y0 in first:
        if y0 == 0:
            if n_coords > 1:
                yield from map((cells[radius],).__add__,
                               _iter_coords(n_coords - 1, radius, None, cells))
        elif y0 <= radius:
            if n_coords == 1:
                if y0 == 1:
                    yield (cells[radius + 1],)
                continue
            yield from _coprime_tails((cells[radius + y0],), y0, n_coords - 1,
                                      full, cells)


def _coprime_tails(prefix: tuple, g: int, k: int, full: range, cells) -> Iterator:
    """prefix + t for the tails t in full^k with gcd(g, *t) = 1, where g is
    the gcd of the prefix, in lexicographic order; cells[i] stands in the
    tuples for the value full[i].

    The walk carries the gcd down: once it is 1 every tail is primitive and
    none is tested, and while it is g > 1 the next coordinate y only needs
    gcd(g, y).
    """
    if g == 1:
        yield from itertools.product(*[(c,) for c in prefix], *[cells] * k)
    elif k == 1:
        for y, c in zip(full, cells):
            if math.gcd(g, y) == 1:
                yield prefix + (c,)
    else:
        for y, c in zip(full, cells):
            yield from _coprime_tails(prefix + (c,), math.gcd(g, y), k - 1,
                                      full, cells)


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
    cap = _shell_cap(Fraction(o1_bound) ** 2, metric)
    euclid = metric is Metric.EUCLID
    perms = math.factorial(n + 1)
    for y in itertools.combinations_with_replacement(
            range(_shell_radius(cap, metric) + 1), n + 1):
        if euclid and sum(c * c for c in y) > cap:
            continue
        if math.gcd(*y) != 1:
            continue
        weight = perms << sum(1 for c in y if c)
        for _, run in itertools.groupby(y):
            weight //= math.factorial(len(tuple(run)))
        yield y, weight // 2


class HeightWindow(Frozen):
    """Either a plain height bound, or a box of scaled multiheight intervals.

    Boxed windows hold per-component intervals [a_i, b_i] of exponential
    heights, a direction u strictly inside the dual effective cone, and the
    scale B; membership means H_i in [a_i B^(u_i), b_i B^(u_i)] for all i.
    Both kinds reduce to one integer shell spec (`_shell_spec`), which
    enumeration, the leading-range split and the counts all read.
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


def _shell_spec(w: HeightWindow) -> tuple:
    """(shells, joint): the window's points are those whose shell values
    s_i lie in shells[i] = (lo_i, hi_i) and whose joint shell, s_1 ... s_n
    on (P^1)^n and s_P^2 s_Q on the blown-up plane, is at most joint.

    A bounded window caps the joint shell, and each factor only as far as
    that cap implies.  A boxed window caps each factor; its joint cap is
    the joint shell of the interval tops, which the whole box meets.  On
    P^n joint is unused.
    """
    if w.box is not None:
        shells = [_shell_interval(w, i) for i in range(len(w.box))]
        joint = math.prod(hi for _, hi in shells)
        if w.variety.kind == "blowup":
            joint *= shells[0][1]
        return shells, joint
    if w.variety.kind == "p1n":
        cap = _shell_cap(w.bound, w.metric)
        return [(1, cap)] * w.variety.n, cap
    cap = _shell_cap(w.bound * w.bound, w.metric)
    if w.variety.kind == "pn":
        return [(1, cap)], cap
    # s_P^2 s_Q <= cap with s_P, s_Q >= 1
    return [(1, math.isqrt(cap)), (1, cap)], cap


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
    shells, joint = _shell_spec(w)
    if w.variety.kind == "pn":
        yield from _pn_points(w.variety.n, *shells[0], w.metric, first_range)
    elif w.variety.kind == "p1n":
        yield from _p1n_points(shells, joint, w.metric, first_range)
    else:
        yield from _blowup_points(shells, joint, w.metric, first_range)


def _pn_points(n: int, lo: int, hi: int, metric: Metric, first_range=None) -> Iterator[PrimPoint]:
    """P^n points with shell value in [lo, hi], lexicographic."""
    return map(PrimPoint, _pn_coords(n, lo, hi, metric, first_range))


def _pn_coords(n: int, lo: int, hi: int, metric: Metric, first_range=None,
               label=None) -> Iterator[tuple]:
    """The coordinate tuples of `_pn_points`, in its order, or with label
    the tuples of label(y) for their coordinates y, label called once per
    value of the walk."""
    radius = _shell_radius(hi, metric)
    cells = None if label is None else list(map(label, range(-radius, radius + 1)))
    if metric is Metric.SUP and lo <= 1:
        # the sup box is the whole range
        return _iter_coords(n + 1, radius, first_range, cells)
    coords = (t for t in _iter_coords(n + 1, radius, first_range)
              if lo <= _shell_value(t, metric) <= hi)
    if cells is None:
        return coords
    table = cells[radius:] + cells[:radius]  # table[y] labels y, y < 0 too
    return (tuple(map(table.__getitem__, t)) for t in coords)


def _p1n_points(shells: list, joint: int, metric: Metric, first_range=None,
                factor=PrimPoint) -> Iterator[tuple]:
    """Tuples of P^1 points, factor i of shell value in shells[i], whose
    shells multiply to at most joint, in lexicographic order: the capped
    products of one (point, shell) table per distinct interval.  Each
    table maps a P^1 point's coordinate pair to `factor` once."""
    def table(s, first=None):
        return [(factor(c), _shell_value(c, metric))
                for c in _pn_coords(1, *s, metric, first)]

    tables = {s: table(s) for s in set(shells)}
    factors = [tables[s] for s in shells]
    if first_range is not None:
        factors[0] = table(shells[0], first_range)
    return _capped_tuples(factors, joint)


def _capped_tuples(factors: Sequence[list], cap: int) -> Iterator[tuple]:
    """Tuples (x_1, ..., x_n), x_i from the rows (x, key) of factors[i],
    whose positive integer keys multiply to at most cap, in the
    lexicographic order of the factor lists (n >= 1).

    Keys multiply to at most cap iff each key is at most the floor of cap
    over the product of those before it, so every cap stays an integer.
    Each list is cut once per distinct cap, from its key-sorted order and
    kept in list order; a list object passed for several factors shares
    its cuts.
    """
    cuts: dict = {}

    def within(rows: list, c: int) -> list:
        if id(rows) not in cuts:
            order = sorted(range(len(rows)), key=lambda k: rows[k][1])
            cuts[id(rows)] = (order, [rows[k][1] for k in order], {})
        order, keys, cut = cuts[id(rows)]
        if not keys or c >= keys[-1]:
            return rows
        if c not in cut:
            cut[c] = [rows[k] for k in sorted(order[:bisect_right(keys, c)])]
        return cut[c]

    return _capped_walk(factors, within, 0, (), cap)


def _capped_walk(factors: Sequence[list], within, i: int, prefix: tuple, c: int) -> Iterator[tuple]:
    # The walk of `_capped_tuples` from factor i on.  It is not nested in
    # `_capped_tuples`: a nested recursive generator refers to itself, and
    # that cycle would keep the factor lists and their cuts alive until
    # the next garbage collection.
    if i == len(factors) - 1:
        for x, _ in within(factors[i], c):
            yield prefix + (x,)
        return
    for x, key in within(factors[i], c):
        yield from _capped_walk(factors, within, i + 1, prefix + (x,), c // key)


def _blowup_points(shells: list, joint: int, metric: Metric, first_range=None) -> Iterator[tuple]:
    """Pairs (P, Q) of the window: the exceptional fibre, then off it."""
    (lo0, hi0), (lo1, hi1) = shells
    if (first_range is None or 0 in first_range) and lo0 <= 1 <= hi0:
        # P is the center, of shell value 1, so s_Q <= joint
        center = PrimPoint(CENTER)
        for q in _pn_points(1, lo1, min(hi1, joint), metric):
            yield blowup_point(center, q)
    for p in _pn_points(2, lo0, hi0, metric, first_range):
        if p.coords == CENTER:
            continue
        pair = blowup_from_plane(p)
        s_p = _shell_value(p.coords, metric)
        s_q = _shell_value(pair[1].coords, metric)
        if lo1 <= s_q <= hi1 and s_p * s_p * s_q <= joint:
            yield pair


def partition_leading_ranges(w: HeightWindow, workers: int) -> list:
    """Split of the leading coordinate into ranges; enum_points over them,
    concatenated in order, equals the single-range enumeration."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shells, _ = _shell_spec(w)
    radius = _shell_radius(shells[0][1], w.metric)
    # exact edges: a float quotient stops covering the radius past 2^53
    edges = sorted({round(Fraction(i * (radius + 1), workers))
                    for i in range(workers + 1)})
    return [range(edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i] < edges[i + 1]]


# ---------------------------------------------------------------------------
# window counts with reference constants


class CountReport(Frozen):
    count: int
    scale: Fraction
    fitted: float      # count / B^<anticanonical, u>
    reference: float   # beta * nu(D_1) * tau
    rel_error: float


def count_window(w: HeightWindow) -> CountReport:
    """Exact boxed-window count against beta nu(D_1) tau B^<w,u>."""
    if w.box is None:
        raise ValueError("count_window needs a boxed window")
    v = w.variety
    count = _count_boxed(w)
    weights = v.anticanonical
    deg = float(sum(Fraction(wt) * u for wt, u in zip(weights, w.direction)))
    tau = closed_form(v, w.metric) / float(cone_alpha(v))  # beta = 1
    reference = tau * nu_window(weights, [a for a, _ in w.box], [b for _, b in w.box])
    fitted = count / float(w.scale) ** deg
    rel = abs(fitted - reference) / reference if reference > 0 else math.inf
    return CountReport(count=count, scale=w.scale, fitted=fitted,
                       reference=reference, rel_error=rel)


def _count_boxed(w: HeightWindow) -> int:
    shells, joint = _shell_spec(w)
    if w.variety.kind == "blowup":
        return sum(_count_blowup_window(shells, joint, w.metric))
    # a boxed (P^1)^n window is a product of P^1 shell ranges
    n = w.variety.n if w.variety.kind == "pn" else 1
    return math.prod(_count_pn_range(n, lo, hi, w.metric) for lo, hi in shells)


def _fibre_count(s: int, x: int, metric: Metric) -> int:
    """F_s(x) = #{(g, z) : g >= 1, P-shell <= x} over a Q of shell value s,
    gcd(g, z) not required: floor(x/s) (2x + 1) under sup, where the
    P-shell is max(g s, |z|), and sum over g <= sqrt(x/s) of
    2 isqrt(x - g^2 s) + 1 under euclid, where it is g^2 s + z^2."""
    if metric is Metric.SUP:
        return x // s * (2 * x + 1)
    top = math.isqrt(x // s)
    return top + 2 * sum(math.isqrt(x - g * g * s) for g in range(1, top + 1))


def _count_off_center(metric: Metric, s_lo: int, s_hi: int, p_shells) -> int:
    """Points of the blown-up plane off the center, fibred over Q = [a : b].

    Off the center P = (g a, g b, z) with Q primitive, g >= 1 and
    gcd(g, z) = 1, so the N_1(s) points Q of shell value s share their
    fibre: the coprime (g, z) whose P-shell lies in p_shells(s) = (lo, hi),
    lo >= 1.  Mobius inversion over d = gcd(g, z) gives
    fibre(s) = sum_d mu(d) (F_s(floor(hi/d^e)) - F_s(floor((lo-1)/d^e)))
    with `_fibre_count` F_s, e = 1 (sup) or 2 (euclid).  F_s(x) = 0 for
    x < s, so each walk over `_quotient_runs` stops at floor(x/s) resp.
    isqrt(x // s).  One Mertens table serves every s in [s_lo, s_hi]; it
    is sized for s_lo, whose walk is the longest, as hi does not grow
    with s.
    """
    if s_hi < s_lo:
        return 0
    n1 = _p1_shells(s_hi, metric)
    e = 1 if metric is Metric.SUP else 2
    mertens = _mertens_for(int_nth_root(p_shells(s_lo)[1] // s_lo, e), e)
    total = 0
    for s in range(s_lo, s_hi + 1):
        if not n1[s]:
            continue
        lo, hi = p_shells(s)
        fibre = 0
        for x, sign in ((hi, 1), (lo - 1, -1)):
            for q, w in _quotient_runs(x, int_nth_root(x // s, e), mertens, e):
                fibre += sign * w * _fibre_count(s, q, metric)
        total += n1[s] * fibre
    return total


def _count_blowup_window(shells: list, joint: int, metric: Metric) -> tuple:
    """(E, U) counts of a blown-up plane window given by its shell spec."""
    (lo0, hi0), (lo1, hi1) = shells
    count_e = _count_pn_range(1, lo1, min(hi1, joint), metric) \
        if lo0 <= 1 <= hi0 else 0
    # The fibre over a Q of shell value s has P-shells >= s, and s_P^2 s
    # <= joint caps them at isqrt(joint // s); so s^3 <= joint.
    count_u = _count_off_center(
        metric, lo1, min(hi1, hi0, int_nth_root(joint, 3)),
        lambda s: (lo0, min(hi0, math.isqrt(joint // s))))
    return count_e, count_u
