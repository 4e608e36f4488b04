"""Height-bounded enumeration and exact sieved counting.

Height conventions per family: on P^n the bound B caps the O(1) height
(max |y_i| for sup, euclidean norm for euclid), so counts grow like
C B^(n+1).  On (P^1)^n and the blown-up plane B caps the anticanonical
height (product of squared factor heights, resp. H_P^2 H_Q), growing like
C B (log B)^(t-1).  All counts are exact integers.  One walk over the
runs of d sharing floor(x/d^e) evaluates every divisor sum: P^n shell
ranges (Mobius weights on box or ball counts), their classes mod M,
(P^1)^n (P^1 shell counts as weights), and the fibres of the blown-up
plane.  The Mobius weights are sums of mu(d) over d prime to M, read at
run ends from `_CoprimeMertens`: a sieve table to about x^(2/3) and the
Mertens recursion above it, so no count on P^n builds a table of size B.

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
counts walk the sup shells of the one cone.

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

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .exactnum import build_sieve
from .projpoint import (Metric, PrimPoint, VarietyId, blowup_from_plane, blowup_point,
                        enum_projective_mod)
from .tamagawa import closed_form, cone_alpha, nu_window

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
    """#P^n points with shell value in [lo, hi]: (1/2) sum_d mu(d)
    (F(hi, d) - F(lo - 1, d)), where F(x, d) counts the vectors of Z^(n+1),
    zero included, of shell value <= x after division by d:
    (2 floor(x/d) + 1)^(n+1) under sup, V_(n+1)(floor(x/d^2)) under euclid.
    The zero vector cancels and y, -y are one point.  F depends on d only
    through q = floor(x/d^e), so the sum runs over `_quotient_runs`,
    weighted by the Mertens function; terms with d^e > hi vanish.

    Under sup that is O(hi^(2/3)) work in all (`_mertens_for`); under
    euclid the ball counts dominate."""
    lo = max(lo, 1)
    if hi < lo:
        return 0
    e = 1 if metric is Metric.SUP else 2
    top = int_nth_root(hi, e)
    mertens = _mertens_for(top, e)
    total = 0
    for x, sign in ((hi, 1), (lo - 1, -1)):
        for q, w in _quotient_runs(x, top, mertens, e):
            ball = (2 * q + 1) ** (n + 1) if e == 1 else _ball_count(n + 1, q)
            total += sign * w * ball
    assert total % 2 == 0
    return total // 2


class _CoprimeMertens:
    """M_M(v) = sum of mu(d) over d <= v with gcd(d, M) = 1, at any v >= 0,
    read as `sums[v]`.

    Up to `limit` it reads prefix sums of a `build_sieve` table.  Above,
    with chi the indicator of gcd(k, M) = 1, (mu chi) * chi = [n = 1] as
    Dirichlet series (chi is completely multiplicative), so summing over
    n <= v gives M_M(v) = 1 - sum_(2 <= k <= v, chi(k)) M_M(floor(v/k)).
    The k sharing floor(v/k) form O(sqrt v) runs; the coprime k in a run
    are counted by period M.  Values are memoized, and floor(floor(v/a)/b)
    = floor(v/(ab)), so the quotients of one v share their recursion:
    with limit about v^(2/3) that is O(v^(2/3)) work (Deleglise-Rivat).
    """

    def __init__(self, modulus: int, limit: int):
        self.limit = max(1, limit)
        self.modulus = modulus
        mu = build_sieve(self.limit).mu
        self.table = list(itertools.accumulate(
            m if math.gcd(d, modulus) == 1 else 0 for d, m in enumerate(mu)))
        # coprime[r] = #{1 <= k <= r : gcd(k, M) = 1}, for 0 <= r <= M
        self.coprime = list(itertools.accumulate(
            (math.gcd(k, modulus) == 1 for k in range(1, modulus + 1)),
            initial=0))
        self.memo: dict = {}

    def __getitem__(self, v: int) -> int:
        limit, table = self.limit, self.table
        if v <= limit:
            return table[v]
        if v not in self.memo:
            m, coprime = self.modulus, self.coprime
            total, k, below = 1, 2, 1  # below: coprime k' < k
            while k <= v:
                q = v // k
                end = v // q
                upto = (end // m) * coprime[m] + coprime[end % m]
                total -= (upto - below) * (table[q] if q <= limit else self[q])
                k, below = end + 1, upto
            self.memo[v] = total
        return self.memo[v]


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
    (a list, or `_CoprimeMertens`)."""
    d = 1
    while d <= top:
        q = x // d ** e
        end = top if q == 0 else min(top, int_nth_root(x // q, e))
        yield q, cum[end] - cum[d - 1]
        d = end + 1


def _isqrt_array(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) for an int64 array with 0 <= m < 2^63, exactly.  The
    float root is at most one off and at most floor(sqrt(2^63)), so s * s
    cannot overflow; nor can m - s^2 > 2 s, the test for (s + 1)^2 <= m."""
    s = np.sqrt(m.astype(np.float64)).astype(np.int64)
    s -= s * s > m
    s += m - s * s > 2 * s
    return s


def _chunk_step(n_inner: int, radius: int) -> int:
    width = max(1, (2 * radius + 1) ** n_inner)
    return max(1, 2 * 10 ** 6 // width)


def _ball_count(k: int, n: int) -> int:
    """V_k(n) = #{x in Z^k : x_1^2 + ... + x_k^2 <= n}, k >= 2, exactly.

    The first k - 1 coordinates run over nonnegative values, in chunks of
    the first one, pruned to the ball; j nonzero entries stand for 2^j
    sign choices.  The last coordinate takes 2 isqrt(rest) + 1 values.
    Each int64 sum is at most len(rest) 2^33, far below 2^63."""
    r = math.isqrt(n)
    axis = np.arange(r + 1, dtype=np.int64)
    sq, nonzero = axis * axis, (axis > 0).astype(np.int64)
    step = _chunk_step(k - 2, r)
    total = 0
    for a in range(0, r + 1, step):
        rest, signs = n - sq[a:a + step], nonzero[a:a + step]
        for _ in range(k - 2):
            rest = (rest[:, None] - sq).ravel()
            signs = (signs[:, None] + nonzero).ravel()
            inside = rest >= 0
            rest, signs = rest[inside], signs[inside]
        last = 2 * _isqrt_array(rest) + 1
        total += sum(int(last[signs == j].sum()) << j for j in range(k))
    return total


def _residue_counts(modulus: int, lo: int, hi: int) -> list:
    """[#{z in [lo, hi] : z = c (mod M)} for c in 0..M-1]."""
    if hi < lo:
        return [0] * modulus
    return [(hi - c) // modulus - (lo - 1 - c) // modulus for c in range(modulus)]


def count_classes_pn(n: int, modulus: int, bound: int) -> dict:
    """Exact per-class counts of sup-height <= B points by reduction mod M.

    Congruence-restricted Mobius sieve.  A point of class [c] has two
    primitive vectors, +-y, and y = t c (mod M) for one unit t, as c is
    primitive mod M.  So no prime of M divides all of y, only d prime to M
    contribute, and for those y/d = (t/d) c with t/d running over the
    units: the term of d depends on q = floor(B/d) alone, summed over
    `_quotient_runs` with the sums of mu(d) over d prime to M from
    `_CoprimeMertens` (O(B^(2/3)) work, no table of size B).  As z and -z
    are equally often in |z| <= q, classes that differ by permuting or
    negating coordinates share their count.
    """
    prime_to_m = _CoprimeMertens(modulus, int_nth_root(bound * bound, 3))
    runs = [(_residue_counts(modulus, -q, q), w)
            for q, w in _quotient_runs(bound, bound, prime_to_m, 1)]
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    keys = {cls: tuple(sorted(min(c, modulus - c) for c in cls.coords))
            for cls in enum_projective_mod(n, modulus)}
    counts = {}
    for key in set(keys.values()):
        total = sum(w * sum(math.prod(row[t * c % modulus] for c in key)
                            for t in units)
                    for row, w in runs)
        assert total % 2 == 0 and total >= 0
        counts[key] = total // 2
    return {cls: counts[key] for cls, key in keys.items()}


# ---------------------------------------------------------------------------
# products of lines and the blown-up plane

# Anticanonical height <= B is prod H_i^2 <= B on (P^1)^n, so the shells
# multiply to at most _shell_cap(B); on the blown-up plane it is
# H_P^2 H_Q <= B, so s_P^2 s_Q <= _shell_cap(B^2) in both metrics.


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
    """#((P^1)^n)(Q) with anticanonical height prod H_i^2 <= bound, exact:
    k factors under a shell cap c are the sum over shells h of the first
    of #{P^1 points of shell h} times k - 1 factors under floor(c/h)."""
    b = Fraction(bound)
    if b < 1:
        return 0
    cap = _shell_cap(b, metric)
    cum = list(itertools.accumulate(_p1_shells(cap, metric)))

    def rec(factors_left: int, cap_left: int) -> int:
        if factors_left == 1:
            return cum[cap_left]
        return sum(w * rec(factors_left - 1, q)
                   for q, w in _quotient_runs(cap_left, cap_left, cum, 1))

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
    the orbit {t c}: the weights are the runs of `count_classes_pn`.  The
    walk goes up the sup shells m <= B: with max|y| = m the cone is the box
    [ceil(a_i m), floor(b_i m)], so a shell holds the vectors of that box in
    [-m, m]^(n+1) less those in [-(m-1), m-1]^(n+1), each a product of
    per-coordinate residue counts.  It adds w times these counts by residue
    at each run's quotient; one gather per unit sums them over the orbits of
    the class representatives, the only residues where the inversion holds.
    That is O(B M^(n+1)) exact work in numpy (`box_walk_cost`; int64 while
    the counts fit, Python ints beyond), where a scan of the box is
    O(B^(n+1))."""
    iv = [(Fraction(a), Fraction(b)) for a, b in box]
    if len(iv) != n + 1:
        raise ValueError("box must have n+1 coordinate intervals")
    prime_to_m = _CoprimeMertens(modulus, int_nth_root(bound * bound, 3))
    weights = dict(_quotient_runs(bound, bound, prime_to_m, 1))
    # every partial sum is at most 2 (2B+1)^(n+1) in absolute value
    dtype = np.int64 if (2 * bound + 1) ** (n + 1) < 2 ** 61 else object
    run = np.zeros(modulus ** (n + 1), dtype=dtype)  # nonzero, max|y| <= m
    count = np.zeros_like(run)                       # sum of weight * run
    for m in range(1, bound + 1):
        run += _cone_residue_counts(modulus, iv, m, m, dtype) \
            - _cone_residue_counts(modulus, iv, m, m - 1, dtype)
        if weights.get(m):
            count += weights[m] * run
    classes = enum_projective_mod(n, modulus)
    reps = np.array([cls.coords for cls in classes], dtype=np.int64).T
    shape = (modulus,) * (n + 1)
    orbits = sum(count[np.ravel_multi_index(t * reps % modulus, shape)]
                 for t in range(1, modulus) if math.gcd(t, modulus) == 1)
    return {cls: int(c) for cls, c in zip(classes, orbits.tolist())}


# a walk step costs about 17 ns per residue plus 18 us (2-core VM, numpy
# 2.4): the limit is about 0.4 s, and 160 MB per array at B <= 1
BOX_WALK_LIMIT = 2 * 10 ** 7

# Classes of P^n(Z/M) past which `count_classes_pn` is refused: it lists
# every class in Python, and 88,741 classes (P^4 mod 17) took 2.3 s and
# 94 MB, 101,556 (P^2 mod 180) 5 s on a 2-core VM.
CLASS_LIMIT = 10 ** 5


def box_walk_cost(n: int, modulus: int, bound: int) -> int:
    """A-priori work of `joint_class_box_counts`, in residue entries: one
    step per sup shell m <= B (at least one), each over the M^(n+1)
    residues plus an overhead worth 1000 of them."""
    return max(bound, 1) * (modulus ** (n + 1) + 1000)


def _cone_residue_counts(modulus: int, cone: list, m: int, r: int, dtype) -> np.ndarray:
    """Vectors y with ceil(a_i m) <= y_i <= floor(b_i m) and max|y| <= r,
    counted by residue y mod M (flattened, as `np.indices`)."""
    counts = np.ones((), dtype=dtype)
    for a, b in cone:
        lo = -(-a.numerator * m // a.denominator)
        hi = b.numerator * m // b.denominator
        counts = np.multiply.outer(
            counts, _residue_counts(modulus, max(lo, -r), min(hi, r)))
    return counts.ravel()


# ---------------------------------------------------------------------------
# enumeration: lexicographic, exact, partitionable by leading coordinate


def _iter_coords(n_coords: int, radius: int, first_range=None) -> Iterator:
    """Canonical primitive integer tuples in lexicographic order, sup box."""
    first = range(0, radius + 1) if first_range is None else first_range
    full = range(-radius, radius + 1)
    for y0 in first:
        if y0 == 0:
            if n_coords > 1:
                yield from map((0,).__add__, _iter_coords(n_coords - 1, radius))
        elif y0 <= radius:
            if n_coords == 1:
                if y0 == 1:
                    yield (1,)
                continue
            yield from _coprime_tails((y0,), y0, n_coords - 1, full)


def _coprime_tails(prefix: tuple, g: int, k: int, full: range) -> Iterator:
    """prefix + t for the tails t in full^k with gcd(g, *t) = 1, where g is
    the gcd of the prefix, in lexicographic order.

    The walk carries the gcd down: once it is 1 every tail is primitive and
    none is tested, and while it is g > 1 the next coordinate y only needs
    gcd(g, y).
    """
    if g == 1:
        yield from itertools.product(*[(v,) for v in prefix], *[full] * k)
    elif k == 1:
        for y in full:
            if math.gcd(g, y) == 1:
                yield prefix + (y,)
    else:
        for y in full:
            yield from _coprime_tails(prefix + (y,), math.gcd(g, y), k - 1, full)


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


@dataclass(frozen=True)
class HeightWindow:
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


def _pn_coords(n: int, lo: int, hi: int, metric: Metric, first_range=None) -> Iterator[tuple]:
    """The coordinate tuples of `_pn_points`, in its order."""
    coords = _iter_coords(n + 1, _shell_radius(hi, metric), first_range)
    if metric is Metric.SUP and lo <= 1:
        return coords  # the sup box is the whole range
    return (t for t in coords if lo <= _shell_value(t, metric) <= hi)


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


@dataclass(frozen=True)
class CountReport:
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
