import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heightlab import counting, exactnum
from heightlab.cli import main
from heightlab.counting import (
    CountReport,
    HeightWindow,
    _capped_tuples,
    bounded_window,
    count_blowup,
    count_classes_pn,
    count_p1n,
    count_pn,
    count_pn_sieved,
    count_points,
    count_window,
    enum_points,
    int_nth_root,
    joint_class_box_counts,
    partition_leading_ranges,
    sup_box_measure,
)
from heightlab.exactnum import LogLin, build_sieve
from heightlab.projpoint import (
    Metric,
    ModPoint,
    PrimPoint,
    anticanonical_height,
    enum_projective_mod,
    normalize,
    reduce_mod,
    variety,
)

V1 = variety("pn", 1)
V2 = variety("pn", 2)
VP2 = variety("p1n", 2)
VB = variety("blowup", 2)


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


class TestRoots:
    def test_nth_root_edges(self):
        assert int_nth_root(0, 3) == 0
        assert int_nth_root(26, 3) == 2
        assert int_nth_root(27, 3) == 3
        assert int_nth_root(28, 3) == 3
        assert int_nth_root(10**30, 2) == 10**15

    def test_nth_root_of_degree_one_is_x(self):
        for x in (0, 1, 2, 10 ** 12, 3 ** 4000):
            assert int_nth_root(x, 1) == x
        with pytest.raises(ValueError):
            int_nth_root(-1, 1)

    def test_rational_power_floor(self):
        assert rational_power_floor(Fraction(27), Fraction(1, 3)) == 3
        assert rational_power_floor(Fraction(26), Fraction(1, 3)) == 2
        assert rational_power_floor(Fraction(9, 4), Fraction(1, 2)) == 1
        assert rational_power_floor(Fraction(4), Fraction(3, 2)) == 8

    # Exact past 2^53 and past float range; the examples defeated a
    # float-seeded Newton step (root one too small, or OverflowError).
    @given(st.one_of(st.integers(0, 10**6), st.integers(0, 10**600)),
           st.integers(1, 6))
    @example((3**40 + 7) ** 3, 2)
    @example((3**40 + 7) ** 3, 3)
    @example(2**200, 3)
    @example(10**400, 3)
    def test_nth_root_defining_property(self, x, k):
        t = int_nth_root(x, k)
        assert t**k <= x < (t + 1) ** k


class TestProjectiveCounts:
    def test_line_small_shells(self):
        # heights 1, 2, 3 contribute 4 + 4 + 8 points
        assert [count_pn_sieved(1, t) for t in (1, 2, 3)] == [4, 8, 16]

    def test_plane_unit_ball(self):
        assert count_pn_sieved(2, 1) == 13

    def test_euclid_unit_ball(self):
        assert count_pn(1, 1, Metric.EUCLID) == 2
        assert count_pn(2, 1, Metric.EUCLID) == 3

    def test_sieve_against_box_scan_line(self):
        # brute force all bounds at once: bincount of sup norms of
        # primitive vectors, cumulated, halved
        r = 100
        y0, y1 = np.meshgrid(*[np.arange(-r, r + 1)] * 2, indexing="ij")
        prim = np.gcd(np.abs(y0), np.abs(y1)) == 1
        sup = np.maximum(np.abs(y0), np.abs(y1))[prim]
        cum = np.cumsum(np.bincount(sup, minlength=r + 1))
        for bound in range(1, r + 1):
            assert count_pn_sieved(1, bound) == int(cum[bound]) // 2

    def test_sieve_against_box_scan_plane(self):
        r = 40
        axes = np.meshgrid(*[np.arange(-r, r + 1)] * 3, indexing="ij")
        g = np.zeros((), dtype=np.int64)
        mx = np.zeros((), dtype=np.int64)
        for a in axes:
            g = np.gcd(g, np.abs(a))
            mx = np.maximum(mx, np.abs(a))
        sup = mx[g == 1]
        cum = np.cumsum(np.bincount(sup, minlength=r + 1))
        for bound in range(1, r + 1):
            assert count_pn_sieved(2, bound) == int(cum[bound]) // 2

    def test_enum_matches_sieve(self):
        for bound in (1, 3, 10, 37):
            w = bounded_window(V1, bound)
            assert sum(1 for _ in enum_points(w)) == count_pn_sieved(1, bound)
        w = bounded_window(V2, 12)
        assert sum(1 for _ in enum_points(w)) == count_pn_sieved(2, 12)

    def test_enum_matches_euclid_count(self):
        for bound in (1, 5, Fraction(17, 3)):
            w = bounded_window(V2, bound, Metric.EUCLID)
            assert sum(1 for _ in enum_points(w)) == count_pn(2, bound, Metric.EUCLID)

    def test_enum_no_duplicates_and_heights(self):
        w = bounded_window(V2, 7)
        pts = list(enum_points(w))
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert anticanonical_height(V2, p) <= LogLin.from_log(7**2, Fraction(1, 2)) * 3

    def test_rational_bound_truncates(self):
        assert count_pn(1, Fraction(7, 2)) == count_pn_sieved(1, 3)

    def test_frozen_euclid_counts(self):
        # recorded from the box scan that counted euclid P^n before the
        # Mobius sum over ball counts replaced it
        assert count_pn(2, 1000, Metric.EUCLID) == 1742341561
        assert count_pn(1, 3000, Metric.EUCLID) == 8594304
        assert count_pn(3, 60, Metric.EUCLID) == 29546896

    def test_frozen_sup_line_count(self):
        # recorded from the sieve of mu to B that counted sup P^n before the
        # Mertens recursion (5.9 s and 746 MB there)
        assert count_pn(1, 10**7) == 121585425708968

    # the float root is corrected in int64 up to the top of its range
    @pytest.mark.parametrize("s", [2**26, 2**31, 3 * 10**9])
    def test_isqrt_array_is_exact(self, s):
        m = [t * t + e for t in range(s - 2, s + 3) for e in (-1, 0, 2 * t)]
        m.append(2**63 - 1)
        got = _isqrt_array(np.array(m, dtype=np.int64)).tolist()
        assert got == [math.isqrt(x) for x in m]


# ---------------------------------------------------------------------------
# The numpy kernels that `counting` ran before the package dropped numpy,
# kept as oracles of the integer kernels that replaced them.


def _isqrt_array(m):
    """floor(sqrt(m)) for an int64 array with 0 <= m < 2^63, exactly.  The
    float root is at most one off and at most floor(sqrt(2^63)), so s * s
    cannot overflow; nor can m - s^2 > 2 s, the test for (s + 1)^2 <= m."""
    s = np.sqrt(m.astype(np.float64)).astype(np.int64)
    s -= s * s > m
    s += m - s * s > 2 * s
    return s


def _chunk_step(n_inner, radius):
    width = max(1, (2 * radius + 1) ** n_inner)
    return max(1, 2 * 10 ** 6 // width)


def reference_ball_count(k, n):
    """V_k(n) by arrays: the first k - 1 coordinates run over nonnegative
    values, in chunks of the first one, pruned to the ball; j nonzero
    entries stand for 2^j sign choices, and the last coordinate takes
    2 isqrt(rest) + 1 values."""
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


def reference_p1_shells_euclid(cap):
    """#P^1 points of each squared norm t <= cap, by a bincount of the
    norms of the vectors [a : b] with a >= 1, plus [0 : 1], row by row."""
    radius = math.isqrt(cap)
    b = np.arange(-radius, radius + 1, dtype=np.int64)
    norms = [np.ones(1, dtype=np.int64)]
    for a in range(1, radius + 1):
        norm = a * a + b * b
        norms.append(norm[(np.gcd(a, np.abs(b)) == 1) & (norm <= cap)])
    return np.bincount(np.concatenate(norms), minlength=cap + 1).tolist()


def residue_counts(modulus, lo, hi):
    """[#{z in [lo, hi] : z = c (mod M)} for c in 0..M-1]."""
    if hi < lo:
        return [0] * modulus
    return [(hi - c) // modulus - (lo - 1 - c) // modulus for c in range(modulus)]


def reference_box_walk(n, modulus, bound, box):
    """The numpy walk of `joint_class_box_counts`: a full table of residue
    counts per sup shell, the run weights of `count_classes_pn` at each
    run's quotient, and one gather per unit."""
    iv = [(Fraction(a), Fraction(b)) for a, b in box]
    prime_to_m = counting._CoprimeMertens(modulus, int_nth_root(bound * bound, 3))
    weights = dict(counting._quotient_runs(bound, bound, prime_to_m, 1))
    dtype = np.int64 if (2 * bound + 1) ** (n + 1) < 2 ** 61 else object

    def cone_counts(m, r):
        counts = np.ones((), dtype=dtype)
        for a, b in iv:
            lo = -(-a.numerator * m // a.denominator)
            hi = b.numerator * m // b.denominator
            counts = np.multiply.outer(counts, residue_counts(
                modulus, max(lo, -r), min(hi, r)))
        return counts.ravel()

    run = np.zeros(modulus ** (n + 1), dtype=dtype)
    count = np.zeros_like(run)
    for m in range(1, bound + 1):
        run += cone_counts(m, m) - cone_counts(m, m - 1)
        if weights.get(m):
            count += weights[m] * run
    classes = enum_projective_mod(n, modulus)
    reps = np.array([cls.coords for cls in classes], dtype=np.int64).T
    shape = (modulus,) * (n + 1)
    orbits = sum(count[np.ravel_multi_index(t * reps % modulus, shape)]
                 for t in range(1, modulus) if math.gcd(t, modulus) == 1)
    return {cls: int(c) for cls, c in zip(classes, orbits.tolist())}


BALL_SIZES = {2: 10 ** 8, 3: 10 ** 5, 4: 4000, 5: 500}


@st.composite
def ball_inputs(draw):
    k = draw(st.integers(2, 5))
    top = BALL_SIZES[k]
    n = draw(st.one_of(st.integers(0, top),
                       st.integers(0, math.isqrt(top)).map(lambda r: r * r)))
    return k, n


@settings(deadline=None, max_examples=60)
@given(ball_inputs())
@example((2, 0))
@example((3, 0))
@example((4, 0))
@example((5, 0))
@example((2, 10 ** 8))
@example((3, 99856))
@example((5, 484))
def test_ball_count_matches_array_oracle(case):
    k, n = case
    assert counting._ball_count(k, n) == reference_ball_count(k, n)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 2 * 10 ** 4))
@example(1)
@example(2)
@example(3)
@example(4)
@example(5)
@example(2 * 10 ** 4)
def test_euclid_p1_shells_match_bincount(cap):
    assert counting._p1_shells(cap, Metric.EUCLID) == reference_p1_shells_euclid(cap)


def reference_coprime_mertens(modulus, top):
    """The full-sieve prefix sums of mu(d) [gcd(d, M) = 1], d <= top, that
    the P^n and class counts read before the Mertens recursion, kept as an
    oracle."""
    mu = build_sieve(top)
    return list(itertools.accumulate(
        m if math.gcd(d, modulus) == 1 else 0 for d, m in enumerate(mu)))


class TestCoprimeMertens:
    # a table of 16 entries, so every v > 16 goes through the recursion
    @pytest.mark.parametrize("modulus", [1, 2, 6, 7, 30])
    def test_recursion_matches_sieve(self, modulus):
        want = reference_coprime_mertens(modulus, 5000)
        sums = counting._CoprimeMertens(modulus, 16)
        assert [sums[v] for v in range(5001)] == want
        for v in (17, 2310, 4999, 5000):
            assert counting._CoprimeMertens(modulus, 1)[v] == want[v]

    # The guard against an O(B) table coming back: every sieve the sup
    # counts ask for stays within about 2 v^(2/3) entries.
    @pytest.mark.parametrize("count, bound", [
        (lambda b: count_pn(1, b), 10**8),
        (lambda b: count_classes_pn(2, 7, b), 10**6),
        (lambda b: joint_class_box_counts(2, 3, b, [(0, 1), (-1, 1), (-1, 1)]),
         10**4),
        pytest.param(lambda b: count_classes_pn(2, 7, b), 10**8, id="classes-10**8")])
    def test_sieve_work_is_sublinear(self, monkeypatch, count, bound):
        asked = []

        def recording(limit):
            asked.append(limit)
            return build_sieve(limit)

        for name, mod in list(sys.modules.items()):
            if name.startswith("heightlab") and \
                    getattr(mod, "build_sieve", None) is build_sieve:
                monkeypatch.setattr(mod, "build_sieve", recording)
        count(bound)
        assert asked and sum(asked) <= 2 * int_nth_root(bound * bound, 3)


class ReferenceCoprimeMertens:
    """The Python-level recursion the counts ran before the identity split
    at sqrt(v), kept as an oracle: a full prefix list to `limit`, and above
    it M_M(v) = 1 - sum_(2 <= k <= v, gcd(k, M) = 1) M_M(floor(v/k)), one
    Python step per run of k sharing floor(v/k)."""

    def __init__(self, modulus, limit):
        self.limit = max(1, limit)
        self.modulus = modulus
        self.table = reference_coprime_mertens(modulus, self.limit)
        self.coprime = list(itertools.accumulate(
            (math.gcd(k, modulus) == 1 for k in range(1, modulus + 1)),
            initial=0))
        self.memo = {}

    def __getitem__(self, v):
        if v <= self.limit:
            return self.table[v]
        if v not in self.memo:
            m, coprime = self.modulus, self.coprime
            total, k, below = 1, 2, 1
            while k <= v:
                q = v // k
                end = v // q
                upto = (end // m) * coprime[m] + coprime[end % m]
                total -= (upto - below) * self[q]
                k, below = end + 1, upto
            self.memo[v] = total
        return self.memo[v]


class TestMertensIdentity:
    # OEIS A084237: M(10^k), k = 1..10, each from a table to 10^(2k/3)
    @pytest.mark.parametrize("k, want", enumerate(
        [-1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722], start=1))
    def test_published_values(self, k, want):
        v = 10 ** k
        assert counting._CoprimeMertens(1, int_nth_root(v * v, 3))[v] == want

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([1, 2, 6, 7, 30]), st.integers(1, 3000),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=20))
    @example(1, 1, [10 ** 6])
    @example(30, 16, [0, 1, 17, 4096, 4097, 10 ** 6])
    @example(7, 3000, [2310, 3000, 3001, 9 * 10 ** 5])
    def test_matches_the_run_recursion(self, modulus, limit, values):
        sums = counting._CoprimeMertens(modulus, limit)
        oracle = ReferenceCoprimeMertens(modulus, limit)
        assert [sums[v] for v in values] == [oracle[v] for v in values]

    def test_reads_in_any_order_agree(self):
        want = reference_coprime_mertens(7, 20000)
        sums = counting._CoprimeMertens(7, 900)
        order = list(range(20001))
        random.Random(5).shuffle(order)
        assert {v: sums[v] for v in order} == dict(enumerate(want))


class TestByteTable:
    def test_mu_is_one_byte_an_entry(self):
        # the view's own size is about 200 B, so measure the buffer under it
        mu = build_sieve(10 ** 6)
        assert sys.getsizeof(mu.obj) < 1.1 * 10 ** 6
        assert mu[1] == 1 and mu[2] == -1 and mu[4] == 0

    def test_sup_counts_never_read_phi(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("phi read")

        monkeypatch.setattr(exactnum, "totients", refuse)
        monkeypatch.setattr(counting, "totients", refuse)
        assert count_pn(1, 10 ** 8) == 12158542065463632

    # recorded from the parent's linear sieve and run recursion, which
    # took 8 s and 349 MB at B = 10^10
    def test_frozen_counts_at_1e10(self):
        assert count_pn(1, 10 ** 10) == 121585420371544865464
        assert count_blowup(10 ** 10) == (121585420371544865464, 263765181768)


def reference_count_classes_pn(n, modulus, bound):
    """The per-d Mobius loop that count_classes_pn ran before it walked the
    runs of floor(B/d), kept as an oracle: every d <= B prime to M, every
    unit t, each class rescaled by t/d."""
    classes = enum_projective_mod(n, modulus)
    table = build_sieve(bound + 1)
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    out = {}
    for cls in classes:
        rep = cls.coords
        total = 0
        for d in range(1, bound + 1):
            mu = table[d]
            if not mu or math.gcd(d, modulus) != 1:
                continue
            dinv = pow(d, -1, modulus)
            t_box = bound // d
            for t in units:
                scale = (dinv * t) % modulus
                prod = 1
                for c in rep:
                    r = (scale * c) % modulus
                    prod *= (t_box - r) // modulus + (t_box + r) // modulus + 1
                    if prod == 0:
                        break
                total += mu * prod
        assert total % 2 == 0 and total >= 0
        out[cls] = total // 2
    return out


def reference_count_classes_runs(n, modulus, bound):
    """The walk over the runs of floor(B/d) that count_classes_pn ran before
    it folded them into prefix sums by floor(q/M) and q mod M, kept as an
    oracle: per class key, unit and run, the product of the residue counts
    of |z| <= q."""
    prime_to_m = counting._CoprimeMertens(modulus, int_nth_root(bound * bound, 3))
    runs = [(residue_counts(modulus, -q, q), w)
            for q, w in counting._quotient_runs(bound, bound, prime_to_m, 1)]
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


def brute_class_counts(n, modulus, bound):
    brute: dict = {}
    for p in enum_points(bounded_window(variety("pn", n), bound)):
        cls = reduce_mod(p, modulus)
        brute[cls] = brute.get(cls, 0) + 1
    return brute


class TestClassCounts:
    def test_class_sum_is_total(self):
        counts = count_classes_pn(1, 3, 50)
        assert sum(counts.values()) == count_pn_sieved(1, 50)
        assert len(counts) == 4

    def test_classes_match_enumeration(self):
        sieved = count_classes_pn(1, 3, 50)
        assert {k: v for k, v in sieved.items() if v} == \
            brute_class_counts(1, 3, 50)

    def test_plane_classes_mod_two(self):
        counts = count_classes_pn(2, 2, 20)
        assert len(counts) == 7
        assert sum(counts.values()) == count_pn_sieved(2, 20)

    # P^1(Z/6) holds [2:3] and [3:2], and P^2(Z/6) classes like [2:3:0],
    # without a unit coordinate
    @pytest.mark.parametrize("n,bound", [(1, 60), (2, 12)])
    def test_composite_modulus_matches_enumeration(self, n, bound):
        sieved = count_classes_pn(n, 6, bound)
        brute = brute_class_counts(n, 6, bound)
        assert {k: v for k, v in sieved.items() if v} == brute
        if n == 1:
            assert brute[ModPoint(6, (2, 3))] > 0
            assert brute[ModPoint(6, (3, 2))] > 0

    # P^3(Z/30) has 93,600 classes, which the per-d oracle rescales for
    # every d: there it runs at B = 2 only (about a minute at B = 300).
    @pytest.mark.parametrize("modulus,n,bound", [
        (m, n, b) for m in (2, 4, 6, 7, 12, 30) for n in (1, 2, 3)
        for b in (0, 1, 2, 37, 300) if (m, n) != (30, 3) or b == 2])
    def test_matches_per_d_reference(self, modulus, n, bound):
        got = count_classes_pn(n, modulus, bound)
        want = reference_count_classes_pn(n, modulus, bound)
        assert list(got.items()) == list(want.items())

    # recorded from the per-d loop on the benchmark's largest class input
    def test_frozen_mod_seven_plane(self):
        counts = count_classes_pn(2, 7, 3500)
        assert len(counts) == 57
        assert sum(counts.values()) == 142726961953
        assert counts[ModPoint(7, (0, 0, 1))] == 2507606897
        assert counts[ModPoint(7, (1, 1, 1))] == 2503014955
        assert counts[ModPoint(7, (1, 2, 3))] == 2503015545

    # recorded from the sieve of mu to B that the class counts read before
    # the Mertens recursion
    def test_frozen_mod_seven_plane_large(self):
        counts = count_classes_pn(2, 7, 10**5)
        assert sum(counts.values()) == 3327670384236577
        assert counts[ModPoint(7, (0, 0, 1))] == 58378813934097
        assert counts[ModPoint(7, (1, 1, 1))] == 58380547085299
        assert counts[ModPoint(7, (1, 2, 3))] == 58380547011285


class TestClassBreakpoints:
    # the runs folded by floor(q/M) and q mod M against the walk over them:
    # fewer runs than residues (M = 37, B = 5), no runs (B = 0), one (B = 1),
    # and the jittered bounds of the benchmark's mod-7 plane
    @given(st.integers(1, 3), st.integers(2, 40), st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    @example(1, 37, 5)
    @example(2, 37, 5)
    @example(2, 7, 0)
    @example(3, 6, 1)
    @example(2, 7, 3500)
    @example(2, 7, 3517)
    @example(2, 7, 3535)
    def test_matches_run_walk(self, n, modulus, bound):
        got = count_classes_pn(n, modulus, bound)
        want = reference_count_classes_runs(n, modulus, bound)
        assert list(got.items()) == list(want.items())

    # past the reach of the oracles, the classes still add up to P^n
    @pytest.mark.parametrize("n,modulus", [(2, 7), (3, 5)])
    def test_classes_sum_to_the_count_at_1e7(self, n, modulus):
        assert sum(count_classes_pn(n, modulus, 10 ** 7).values()) == count_pn(n, 10 ** 7)


class TestProducts:
    def test_rank_one_product_is_projective_line(self):
        for bound in (1, 4, 50, 200, 10**4, 10**6 + 1, 2 * 10**6,
                      Fraction(241, 3), Fraction(10001, 7)):
            assert count_p1n(1, bound) == \
                count_pn_sieved(1, math.isqrt(math.floor(bound)))

    # Regression oracles recorded from the implementation that built one
    # sieve per shell value: (n, bound) -> (sup count, euclid count).
    FROZEN = {
        (1, 10**4): (12176, 9544), (2, 10**4): (192448, 110496),
        (3, 10**4): (1985280, 817712), (1, 10**5): (121616, 95520),
        (2, 10**5): (2235584, 1317712), (3, 10**5): (26226048, 11249456),
        (1, Fraction(241, 3)): (88, 76), (2, Fraction(241, 3)): (832, 528),
        (3, Fraction(241, 3)): (5888, 2560),
        (1, Fraction(10001, 7)): (1728, 1368),
        (2, Fraction(10001, 7)): (22592, 13168),
        (3, Fraction(10001, 7)): (203008, 83616),
        (2, 2_000_000): (53528640, 31791472),
    }

    @pytest.mark.parametrize("n,bound", list(FROZEN))
    def test_frozen_counts(self, n, bound):
        assert (count_p1n(n, bound, Metric.SUP),
                count_p1n(n, bound, Metric.EUCLID)) == self.FROZEN[n, bound]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID])
    @pytest.mark.parametrize("bound", [Fraction(1, 2), 1, 4, 9,
                                       Fraction(241, 3), Fraction(10001, 7),
                                       10**4, 10**5 + 1])
    def test_matches_per_shell_reference(self, n, metric, bound):
        assert count_p1n(n, bound, metric) == \
            reference_count_p1n(n, bound, metric)

    # recorded from the list of every shell size up to the cap, which took
    # 6.3 s and 1.25 GB at sup B = 10^14 (cap 10^7); none is listed now
    def test_frozen_counts_read_no_shell_list(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("shell list read")

        monkeypatch.setattr(counting, "totients", refuse)
        monkeypatch.setattr(counting, "_p1_shells", refuse)
        assert count_p1n(2, 10 ** 14) == 5296001093379968
        assert count_p1n(2, 10 ** 7, Metric.EUCLID) == 173650912
        assert count_p1n(4, 10 ** 10) == 105388244303872

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_factor(self, n):
        with pytest.raises(ValueError):
            count_p1n(n, 10)

    def test_square_product_small(self):
        # B = 1 forces both factors to height one: 4 * 4
        assert count_p1n(2, 1) == 16
        assert count_p1n(2, 4) == 48

    def test_enum_matches_count(self):
        for bound in (1, 4, 9, 30):
            for metric in (Metric.SUP, Metric.EUCLID):
                w = bounded_window(VP2, bound, metric)
                assert sum(1 for _ in enum_points(w)) == count_p1n(2, bound, metric)

    def test_anticanonical_membership(self):
        bound = 9
        for pts in enum_points(bounded_window(VP2, bound)):
            assert anticanonical_height(VP2, pts) <= LogLin.from_log(bound**2, Fraction(1, 2))


def reference_count_p1n(n, bound, metric):
    """The per-shell recursion that count_p1n ran before it walked the runs
    of floor(c/h), kept as an oracle: every first shell h <= c in turn."""
    b = Fraction(bound)
    if b < 1:
        return 0
    cap = counting._shell_cap(b, metric)
    shell = counting._p1_shells(cap, metric)
    cum = list(itertools.accumulate(shell))

    def rec(factors_left, cap_left):
        if cap_left < 1:
            return 0
        if factors_left == 1:
            return cum[cap_left]
        return sum(shell[h] * rec(factors_left - 1, cap_left // h)
                   for h in range(1, cap_left + 1) if shell[h])

    return rec(n, cap)


def reference_enum_p1n(n, bound, metric, first_range=None):
    """The quadratic (P^1)^n enumerator, kept as an oracle: it rescans the
    whole factor list at every level, in lexicographic order."""
    def shell(p):  # sup height, or squared norm
        a, c = p.coords
        return max(abs(a), abs(c)) if metric is Metric.SUP else a * a + c * c

    # prod H_i^2 <= B: the shells multiply to at most floor(sqrt(B)) (sup)
    # resp. floor(B) (euclid)
    cap = math.floor(Fraction(bound))
    if metric is Metric.SUP:
        cap = math.isqrt(cap)
    radius = cap if metric is Metric.SUP else math.isqrt(cap)
    factors = [p for p in (PrimPoint((a, c))
                           for a in range(radius + 1)
                           for c in range(-radius, radius + 1)
                           if math.gcd(a, c) == 1 and (a > 0 or c == 1))
               if shell(p) <= cap]

    def rec(level, cap_left, rng):
        for p in (factors if rng is None else
                  (q for q in factors if q.coords[0] in rng)):
            s = shell(p)
            if s > cap_left:
                continue
            if level == n - 1:
                yield (p,)
            else:
                for rest in rec(level + 1, cap_left // s, None):
                    yield (p,) + rest

    return list(rec(0, cap, first_range))


class TestProductEnumeration:
    @pytest.mark.parametrize("n,bound", [
        (2, 1), (2, 30), (2, Fraction(241, 3)), (2, 200),
        (3, 1), (3, 50), (3, Fraction(401, 4))])
    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID])
    def test_matches_reference_with_every_split(self, n, bound, metric):
        w = bounded_window(variety("p1n", n), bound, metric)
        whole = list(enum_points(w))
        assert whole == reference_enum_p1n(n, bound, metric)
        assert len(whole) == count_p1n(n, bound, metric)
        for workers in (2, 3, 5, 8):
            for r in partition_leading_ranges(w, workers):
                assert list(enum_points(w, r)) == \
                    reference_enum_p1n(n, bound, metric, r)


# the keys of one factor list, unsorted and with repeats
FACTOR_KEYS = st.lists(st.integers(1, 6), max_size=6)


@settings(deadline=None, max_examples=300)
@given(st.lists(FACTOR_KEYS, min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.integers(0, 80))
@example([[1, 3, 1, 2]], [0, 0, 0], 0)
@example([[1, 3, 1, 2]], [0, 0, 0], 1)
@example([[2, 1, 1, 3], []], [0, 1, 0], 12)
@example([[5, 1, 2, 1, 4], [3, 1]], [0, 1, 0], 9)
def test_capped_tuples_match_filtered_product(key_lists, picks, cap):
    # factor i is the list object pool[picks[i] % len(pool)], so one object
    # can serve several factors and share its cuts
    pool = [[((t, j), k) for j, k in enumerate(keys)]
            for t, keys in enumerate(key_lists)]
    factors = [pool[i % len(pool)] for i in picks]
    expect = [tuple(x for x, _ in combo)
              for combo in itertools.product(*factors)
              if math.prod(k for _, k in combo) <= cap]
    assert list(_capped_tuples(factors, cap)) == expect


def axis_coords(n_coords, radius, chunk):
    """Coordinate grids, shape (len(chunk), 2r+1, ..., 2r+1) by broadcasting."""
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = []
    for i in range(n_coords):
        shape = [1] * n_coords
        shape[i] = -1
        grids.append((chunk.astype(np.int64) if i == 0 else rng).reshape(shape))
    return grids


def reference_count_pn_euclid_vectors(n, norm_bound):
    """The chunked box scan that count_pn used on euclid P^n before the
    Mobius sum, kept as an oracle: primitive integer vectors (all signs)
    with sum of squares at most norm_bound."""
    radius = math.isqrt(norm_bound)
    if radius == 0:
        return 0
    total = 0
    full = np.arange(-radius, radius + 1, dtype=np.int64)
    step = _chunk_step(n, radius)
    for lo in range(0, len(full), step):
        grids = axis_coords(n + 1, radius, full[lo:lo + step])
        norm = sum(g * g for g in grids)
        g = np.zeros((), dtype=np.int64)
        for gr in grids:
            g = np.gcd(g, np.abs(gr))
        total += int(np.count_nonzero((norm <= norm_bound) & (g == 1)))
    return total


def reference_count_blowup(bound, metric):
    """The O(B^1.5) box scan that count_blowup used before the fibred sum,
    kept as an oracle: every primitive (x, y, z) off the center with
    coordinates at most sqrt(B), tested against H_P^2 H_Q <= B exactly."""
    b = Fraction(bound)
    bn, bd = b.numerator, b.denominator
    radius = rational_power_floor(b, Fraction(1, 2))
    y = np.arange(-radius, radius + 1, dtype=np.int64)[:, None]
    z = np.arange(-radius, radius + 1, dtype=np.int64)[None, :]
    total = 0
    for x in range(-radius, radius + 1):
        g2 = np.gcd(abs(x), np.abs(y))
        prim = np.gcd(g2, np.abs(z)) == 1
        off_center = g2 > 0
        g2safe = np.where(off_center, g2, 1)
        if metric is Metric.SUP:
            hp = np.maximum(np.maximum(abs(x), np.abs(y)), np.abs(z))
            hq = np.maximum(abs(x), np.abs(y)) // g2safe
            ok = hp * hp * hq * bd <= bn
        else:
            kp = x * x + y * y + z * z
            kq = (x * x + y * y) // (g2safe * g2safe)
            # H_P^2 H_Q = kp sqrt(kq) <= b  <=>  kp^2 kq bd^2 <= bn^2
            ok = kp * kp * kq * bd * bd <= bn * bn
        total += int(np.count_nonzero(prim & off_center & ok))
    assert total % 2 == 0
    return count_pn(1, b, metric), total // 2


def _squarefree_divisors(g, cache):
    """[(d, mu(d))] over the squarefree divisors d of g."""
    if g not in cache:
        divs = [(1, 1)]
        for p, _ in exactnum.factorize(g):
            divs += [(d * p, -s) for d, s in divs]
        cache[g] = divs
    return cache[g]


def _coprime_signed_count(g, zlo, zhi, cache):
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


def reference_count_off_center(metric, s_lo, s_hi, p_shells):
    """The per-g divisor-list sum that `_count_off_center` used before the
    Mobius walk over d = gcd(g, z), kept as an oracle with its signature:
    for each Q shell s and each g, the z prime to g with P-shell in
    p_shells(s), counted by inclusion-exclusion over the primes of g."""
    if s_hi < s_lo:
        return 0
    n1 = counting._p1_shells(s_hi, metric)
    cache = {}
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


def blowup_box(metric, box, direction, scale):
    return HeightWindow(variety=VB, metric=metric,
                        box=tuple((Fraction(a), Fraction(b)) for a, b in box),
                        direction=tuple(Fraction(u) for u in direction),
                        scale=Fraction(scale))


class TestBlowup:
    def test_unit_ball_split(self):
        assert count_blowup(1, Metric.SUP) == (4, 12)

    # The euclid list stops at 1400, the bound of the benchmark's euclid
    # blow-up count.
    @pytest.mark.parametrize("metric,top", [(Metric.SUP, 15000),
                                            (Metric.EUCLID, 1400)])
    def test_matches_box_scan(self, metric, top):
        for bound in [*range(1, 41), Fraction(241, 3), Fraction(10001, 7),
                      1000, top]:
            assert count_blowup(bound, metric) == \
                reference_count_blowup(bound, metric), bound

    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID],
                             ids=["sup", "euclid"])
    def test_fibres_match_divisor_lists(self, metric, monkeypatch):
        windows = [bounded_window(VB, b, metric) for b in [
            *range(1, 61), Fraction(241, 3), Fraction(10001, 7),
            Fraction(59, 2)]]
        windows += [blowup_box(metric, *case) for case in [
            (((1, 3), (1, 2)), (2, 1), 5),
            (((1, 4), (1, 3)), (2, 1), 2),
            ((("1/2", "7/3"), ("2/3", "5/2")), ("3/2", 1), 4),
            ((("3/2", "9/4"), ("1/5", "1/2")), ("3/2", 1), 4),
            (((2, 5), (1, 4)), ("3/2", 1), 7),
            (((1, 5), (2, 3)), (3, 1), 6),
            # the P-component holds no integer shell: lo = hi + 1
            ((("6/5", "7/5"), (1, 5)), (2, 1), 1),
        ]]
        assert any(counting._shell_spec(w)[0][0][0] > 1 for w in windows)

        def counts():
            return [counting._count_blowup_window(*counting._shell_spec(w),
                                                  metric) for w in windows]

        got = counts()
        monkeypatch.setattr(counting, "_count_off_center",
                            reference_count_off_center)
        assert got == counts()

    # recorded from the per-g divisor-list fibre sum
    def test_frozen_large_counts(self):
        assert count_blowup(10 ** 9) == (1215854204692033656, 24103403288)
        assert count_blowup(10 ** 5, Metric.EUCLID) == (9549296960, 873376)

    def test_counts_factor_nothing(self, monkeypatch, capsys):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(exactnum, "factorize", refuse)
        for metric in (Metric.SUP, Metric.EUCLID):
            assert count_blowup(1000, metric) == \
                reference_count_blowup(1000, metric)
        assert main(["window", "--variety", "blowup", "--d1", "1,2;1,2",
                     "--u", "2,1", "--bound", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 976816

    def test_enum_matches_count(self):
        for bound in (1, 4, 10):
            for metric in (Metric.SUP, Metric.EUCLID):
                w = bounded_window(VB, bound, metric)
                ce, cu = count_blowup(bound, metric)
                assert sum(1 for _ in enum_points(w)) == ce + cu

    def test_exceptional_points_come_first(self):
        pts = list(enum_points(bounded_window(VB, 4)))
        on_e = [pair[0].coords == (0, 0, 1) for pair in pts]
        ce, _ = count_blowup(4, Metric.SUP)
        assert all(on_e[:ce]) and not any(on_e[ce:])

    def test_count_points_dispatch(self):
        assert count_points(VB, 1) == 16
        assert count_points(V2, 1) == 13
        assert count_points(VP2, 1) == 16


class TestPartitions:
    @pytest.mark.parametrize("v,bound", [(V1, 40), (V2, 8), (VP2, 9), (VB, 9)])
    def test_concatenation_invariance(self, v, bound):
        w = bounded_window(v, bound)
        whole = list(enum_points(w))
        for workers in (1, 2, 3, 5):
            ranges = partition_leading_ranges(w, workers)
            pieces = [p for r in ranges for p in enum_points(w, r)]
            assert pieces == whole

    def test_boxed_partition(self):
        w = HeightWindow(variety=VP2, metric=Metric.SUP,
                         box=((Fraction(1), Fraction(3)), (Fraction(1), Fraction(2))),
                         direction=(Fraction(1), Fraction(1)), scale=Fraction(4))
        whole = list(enum_points(w))
        ranges = partition_leading_ranges(w, 3)
        assert [p for r in ranges for p in enum_points(w, r)] == whole

    def test_ranges_cover_a_radius_past_2_53(self):
        # P^1 under sup: the leading coordinate runs over 0..B
        top = 2 ** 60 + 3
        w = bounded_window(V1, top - 1)
        for workers in range(1, 9):
            ranges = partition_leading_ranges(w, workers)
            assert ranges[0].start == 0 and ranges[-1].stop == top
            assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))


def reference_iter_coords(n_coords, radius, first_range=None):
    """Canonical primitive tuples of the sup box, lexicographic: the walk
    over every tuple with the gcd of all its coordinates tested, which the
    prefix-gcd walk of `counting._iter_coords` replaced."""
    first = range(0, radius + 1) if first_range is None else first_range
    for y0 in first:
        if y0 == 0:
            if n_coords > 1:
                for rest in reference_iter_coords(n_coords - 1, radius):
                    yield (0,) + rest
        elif y0 <= radius:
            if n_coords == 1:
                if y0 == 1:
                    yield (1,)
                continue
            for rest in itertools.product(range(-radius, radius + 1),
                                          repeat=n_coords - 1):
                if math.gcd(y0, *[abs(r) for r in rest]) == 1:
                    yield (y0,) + rest


class TestCoordinateWalk:
    @pytest.mark.parametrize("n_coords", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", range(8))
    def test_prefix_gcd_walk_equals_full_gcd_filter(self, n_coords, radius):
        whole = list(counting._iter_coords(n_coords, radius))
        assert whole == list(reference_iter_coords(n_coords, radius))
        assert len(set(whole)) == len(whole)
        cuts = sorted({0, 1, (radius + 1) // 2, radius, radius + 1})
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            part = list(counting._iter_coords(n_coords, radius, range(lo, hi)))
            assert part == list(reference_iter_coords(n_coords, radius,
                                                      range(lo, hi)))
            pieces += part
        assert pieces == whole
        # a range past the radius adds nothing
        assert list(counting._iter_coords(n_coords, radius,
                                          range(2, radius + 3))) == \
            list(reference_iter_coords(n_coords, radius, range(2, radius + 3)))


class TestWindows:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeightWindow(variety=V1, bound=Fraction(2), box=((Fraction(1), Fraction(2)),))
        with pytest.raises(ValueError):
            HeightWindow(variety=V1)
        with pytest.raises(ValueError):
            HeightWindow(variety=V1, box=((Fraction(2), Fraction(1)),))
        with pytest.raises(ValueError):
            HeightWindow(variety=V1, box=((Fraction(1), Fraction(2)),), scale=Fraction(1, 2))
        with pytest.raises(ValueError):
            # boundary of the dual effective cone is rejected
            HeightWindow(variety=VB, box=((Fraction(1), Fraction(2)),) * 2,
                         direction=(Fraction(1), Fraction(1)), scale=Fraction(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID])
    def test_shell_range_is_difference_of_counts(self, metric, n):
        def upto(k):
            if k < 1:
                return 0
            if metric is Metric.SUP:
                return count_pn_sieved(n, k)
            return reference_count_pn_euclid_vectors(n, k) // 2

        for lo, hi in [(1, 1), (1, 50), (0, 13), (-3, 2), (2, 2), (5, 4), (9, 3),
                       (7, 97), (50, 50), (64, 65), (100, 400), (399, 1000)]:
            got = counting._count_pn_range(n, lo, hi, metric)
            lo1 = max(lo, 1)
            want = upto(hi) - upto(lo1 - 1) if hi >= lo1 else 0
            assert got == want, (lo, hi)

    # recorded from the per-factor box scans that counted boxed euclid
    # (P^1)^n windows before the Mobius sum over ball counts
    def test_frozen_euclid_product_windows(self):
        for scale, count in [(20, 526211056), (40, 33501839904),
                             (60, 382713279936)]:
            w = HeightWindow(variety=VP2, metric=Metric.EUCLID,
                             box=((Fraction(1), Fraction(2)),) * 2,
                             direction=(Fraction(1), Fraction(2)),
                             scale=Fraction(scale))
            assert count_window(w).count == count, scale

    def test_box_recovers_plain_bound(self):
        bound = 20
        w = HeightWindow(variety=V1, metric=Metric.SUP,
                         box=((Fraction(1, bound), Fraction(1)),), scale=Fraction(bound))
        assert count_window(w).count == count_pn_sieved(1, bound)

    @pytest.mark.parametrize("metric", [Metric.SUP, Metric.EUCLID])
    def test_boxed_count_matches_enum(self, metric):
        cases = [
            HeightWindow(variety=V2, metric=metric,
                         box=((Fraction(1, 2), Fraction(2)),), scale=Fraction(5)),
            HeightWindow(variety=VP2, metric=metric,
                         box=((Fraction(1), Fraction(3)), (Fraction(1, 2), Fraction(2))),
                         direction=(Fraction(1), Fraction(2)), scale=Fraction(3)),
            HeightWindow(variety=VB, metric=metric,
                         box=((Fraction(1), Fraction(4)), (Fraction(1), Fraction(3))),
                         direction=(Fraction(2), Fraction(1)), scale=Fraction(2)),
            HeightWindow(variety=VB, metric=metric,
                         box=((Fraction(1, 2), Fraction(7, 3)), (Fraction(2, 3), Fraction(5, 2))),
                         direction=(Fraction(3, 2), Fraction(1)), scale=Fraction(4)),
            HeightWindow(variety=VB, metric=metric,
                         box=((Fraction(3, 2), Fraction(9, 4)), (Fraction(1, 5), Fraction(1, 2))),
                         direction=(Fraction(3, 2), Fraction(1)), scale=Fraction(4)),
        ]
        for w in cases:
            assert count_window(w).count == sum(1 for _ in enum_points(w))

    def test_line_window_is_sieve_difference(self):
        bound = 37
        w = HeightWindow(variety=V1, metric=Metric.SUP,
                         box=((Fraction(1, 2), Fraction(1)),), scale=Fraction(bound))
        expect = count_pn_sieved(1, 37) - count_pn_sieved(1, 18)
        assert count_window(w).count == expect

    def test_reference_constant_agreement(self):
        r = count_window(HeightWindow(
            variety=V1, metric=Metric.SUP,
            box=((Fraction(1, 2), Fraction(1)),), scale=Fraction(800)))
        assert isinstance(r, CountReport)
        assert r.rel_error < 0.01
        r = count_window(HeightWindow(
            variety=VP2, metric=Metric.SUP,
            box=((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))),
            direction=(Fraction(1), Fraction(2)), scale=Fraction(64)))
        assert r.rel_error < 0.04
        r = count_window(HeightWindow(
            variety=VB, metric=Metric.SUP,
            box=((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))),
            direction=(Fraction(2), Fraction(1)), scale=Fraction(40)))
        assert r.rel_error < 0.06

    def test_window_error_shrinks_with_scale(self):
        rels = []
        for scale in (50, 200, 800):
            w = HeightWindow(variety=V1, metric=Metric.SUP,
                             box=((Fraction(1, 2), Fraction(1)),), scale=Fraction(scale))
            rels.append(count_window(w).rel_error)
        assert rels[2] < rels[0]


def reference_in_component(w, i, sq_height):
    """Exact membership of a height, given by its square, in the scaled
    interval [a_i B^u_i, b_i B^u_i] by comparing 2q-th powers of rationals:
    the decision windows made before they read integer shell intervals,
    kept as an oracle."""
    a, b = w.box[i]
    p, q = w.direction[i].numerator, w.direction[i].denominator
    lhs = Fraction(sq_height) ** q
    scale_pow = w.scale ** (2 * p)
    return a ** (2 * q) * scale_pow <= lhs <= b ** (2 * q) * scale_pow


def reference_enum_boxed(w):
    """Every canonical point of a box that holds the window, in
    lexicographic order, filtered by `reference_in_component`."""
    def sq_height(p):
        if w.metric is Metric.SUP:
            return max(abs(c) for c in p.coords) ** 2
        return sum(c * c for c in p.coords)

    def candidates(n_coords, i):
        b = w.box[i][1]  # coordinates are at most b_i B^u_i
        r = math.floor(float(b) * float(w.scale) ** float(w.direction[i])) + 1
        return [PrimPoint(t) for t in itertools.product(range(-r, r + 1), repeat=n_coords)
                if math.gcd(*t) == 1 and next(c for c in t if c) > 0]

    v = w.variety
    if v.kind == "pn":
        return [p for p in candidates(v.n + 1, 0)
                if reference_in_component(w, 0, sq_height(p))]
    if v.kind == "p1n":
        factors = [[p for p in candidates(2, i)
                    if reference_in_component(w, i, sq_height(p))]
                   for i in range(v.n)]
        return list(itertools.product(*factors))
    center = PrimPoint((0, 0, 1))
    out = []
    if reference_in_component(w, 0, 1):
        out += [(center, q) for q in candidates(2, 1)
                if reference_in_component(w, 1, sq_height(q))]
    for p in candidates(3, 0):
        if p == center:
            continue
        q = normalize(p.coords[:2])
        if reference_in_component(w, 0, sq_height(p)) and \
                reference_in_component(w, 1, sq_height(q)):
            out.append((p, q))
    return out


@st.composite
def boxed_windows(draw):
    """Small boxed windows: every coordinate inside is at most
    (5/2) 3^(3/2) < 13, so the reference box scan stays quick."""
    kind, n = draw(st.sampled_from([("pn", 1), ("pn", 2), ("p1n", 2),
                                    ("blowup", 2)]))
    v = variety(kind, n)

    def frac(lo, hi):
        return st.fractions(Fraction(lo), Fraction(hi), max_denominator=4)

    if kind == "blowup":  # the dual effective cone is u_0 > u_1 > 0
        u1 = draw(frac(Fraction(1, 4), Fraction(3, 4)))
        u = (u1 + draw(frac(Fraction(1, 4), Fraction(3, 4))), u1)
    else:
        u = tuple(draw(frac(Fraction(1, 4), Fraction(3, 2)))
                  for _ in range(v.picard_rank))
    box = []
    for _ in range(v.picard_rank):
        a = draw(frac(Fraction(1, 4), Fraction(3, 2)))
        box.append((a, a + draw(frac(Fraction(1, 4), 1))))
    return HeightWindow(variety=v, metric=draw(st.sampled_from(list(Metric))),
                        box=tuple(box), direction=u,
                        scale=draw(frac(1, 3)))


@settings(deadline=None, max_examples=60)
@given(boxed_windows())
def test_boxed_window_matches_rational_power_membership(w):
    points = list(enum_points(w))
    assert points == reference_enum_boxed(w)
    assert count_window(w).count == len(points)


class TestEquidistribution:
    def test_full_box_measure_is_one(self):
        assert sup_box_measure([(-1, 1)] * 3, 2) == 1

    def test_half_space_measure(self):
        assert sup_box_measure([(0, 1), (-1, 1)], 1) == Fraction(1, 2)
        assert sup_box_measure([(Fraction(1, 2), 1), (-1, 1)], 1) == Fraction(3, 8)

    def test_box_measure_additivity(self):
        whole = sup_box_measure([(-1, 1), (-1, 1)], 1)
        left = sup_box_measure([(-1, 0), (-1, 1)], 1)
        right = sup_box_measure([(0, 1), (-1, 1)], 1)
        middle = sup_box_measure([(0, 0), (-1, 1)], 1)
        assert left + right - middle == whole

    # the first coordinate in [0, 1] and in [-1, 0] covers every primitive
    # vector, [0, 0] twice
    @staticmethod
    def halves_partition(n, modulus, bound):
        rest = [(Fraction(-1), Fraction(1))] * n
        right, left, middle = (
            joint_class_box_counts(n, modulus, bound, [(lo, hi)] + rest)
            for lo, hi in ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)),
                           (Fraction(0), Fraction(0))))
        assert right.keys() == left.keys() == middle.keys()
        return {cls: right[cls] + left[cls] - middle[cls] for cls in right}

    def test_joint_counts_total(self):
        whole = self.halves_partition(1, 3, 20)
        assert sum(whole.values()) == 2 * count_pn_sieved(1, 20)

    def test_joint_box_share_approaches_measure(self):
        box = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1))]
        jc = joint_class_box_counts(1, 2, 150, box)
        total = 2 * count_pn_sieved(1, 150)
        inside = sum(jc.values())
        measure = float(sup_box_measure(box, 1))
        assert abs(inside / total - measure) < 0.01

    def test_joint_classes_match_sieve(self):
        box = [(Fraction(-1), Fraction(1))] * 2
        jc = joint_class_box_counts(1, 3, 50, box)
        # vectors vs points: each point contributes its two sign vectors
        assert jc == {cls: 2 * c for cls, c in count_classes_pn(1, 3, 50).items()}

    # P^5 at B = 800 has more than 2^63 primitive vectors: no int64 count
    # holds them
    def test_joint_counts_exact_beyond_int64(self):
        assert 2 * count_pn_sieved(5, 800) > 2**63
        want = {cls: 2 * c for cls, c in count_classes_pn(5, 2, 800).items()}
        full = [(Fraction(-1), Fraction(1))] * 6
        assert joint_class_box_counts(5, 2, 800, full) == want
        assert self.halves_partition(5, 2, 800) == want


def reference_joint_class_box_counts(n, modulus, bound, box):
    """The numpy scan of the whole (2B+1)^(n+1) box that
    joint_class_box_counts ran before the shell sums, kept as an oracle."""
    iv = [(Fraction(a), Fraction(b)) for a, b in box]
    out = {}
    full = np.arange(-bound, bound + 1, dtype=np.int64)
    step = _chunk_step(n, bound)
    for lo in range(0, len(full), step):
        grids = axis_coords(n + 1, bound, full[lo:lo + step])
        g = np.zeros((), dtype=np.int64)
        mx = np.zeros((), dtype=np.int64)
        for gr in grids:
            g = np.gcd(g, np.abs(gr))
            mx = np.maximum(mx, np.abs(gr))
        prim = g == 1
        inside = prim.copy()
        for (a, b), gr in zip(iv, grids):
            inside &= (a.numerator * mx <= gr * a.denominator) & \
                (gr * b.denominator <= b.numerator * mx)
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


@st.composite
def class_box_inputs(draw):
    n = draw(st.integers(1, 3))
    modulus = draw(st.integers(2, 12))
    bound = draw(st.integers(0, 60))
    end = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    interval = st.one_of(st.just((Fraction(0), Fraction(0))),
                         st.tuples(end, end).map(lambda t: tuple(sorted(t))))
    box = draw(st.lists(interval, min_size=n + 1, max_size=n + 1))
    return n, modulus, bound, box


@settings(deadline=None, max_examples=40)
@given(class_box_inputs())
@example((2, 3, 30, [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)),
                     (Fraction(0), Fraction(1))]))
@example((1, 7, 30, [(Fraction(0), Fraction(0)), (Fraction(-3), Fraction(3))]))
@example((3, 6, 30, [(Fraction(-2, 3), Fraction(5, 2)), (Fraction(1, 3), Fraction(1)),
                     (Fraction(-3), Fraction(-1, 2)), (Fraction(0), Fraction(0))]))
@example((2, 2, 0, [(Fraction(-1), Fraction(1))] * 3))
@example((2, 9, 30, [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)),
                     (Fraction(0), Fraction(1))]))
@example((3, 12, 20, [(Fraction(-1, 2), Fraction(1)), (Fraction(0), Fraction(1)),
                      (Fraction(-1), Fraction(1, 3)), (Fraction(-1), Fraction(1))]))
@example((3, 12, 60, [(Fraction(-1), Fraction(1))] * 4))
@example((2, 7, 60, [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)),
                     (Fraction(0), Fraction(1))]))
@example((1, 2, 60, [(Fraction(1, 2), Fraction(3)), (Fraction(-3), Fraction(-1, 6))]))
def test_joint_counts_match_box_scan(case):
    n, modulus, bound, box = case
    got = joint_class_box_counts(n, modulus, bound, box)
    assert got == reference_box_walk(n, modulus, bound, box)
    # the scan covers (2B + 1)^(n+1) vectors, so on P^3 it stops at B = 30
    if n == 3 and bound > 30:
        return
    scan = reference_joint_class_box_counts(n, modulus, bound, box)
    units = [t for t in range(1, modulus) if math.gcd(t, modulus) == 1]
    # the class [c] holds the vectors t c for every unit t mod M
    assert got == {
        cls: sum(scan.get((tuple(t * c % modulus for c in cls.coords), True), 0)
                 for t in units)
        for cls in enum_projective_mod(n, modulus)}


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 60), st.integers(2, 5))
def test_sieve_monotone_in_bound(bound, n):
    assert count_pn_sieved(n, bound) <= count_pn_sieved(n, bound + 1)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 30), st.integers(1, 6))
def test_partition_concatenates(bound, workers):
    w = bounded_window(V1, bound)
    ranges = partition_leading_ranges(w, workers)
    pieces = [p for r in ranges for p in enum_points(w, r)]
    assert pieces == list(enum_points(w))
