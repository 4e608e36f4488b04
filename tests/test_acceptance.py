"""End-to-end acceptance suite.

One test per headline claim, eleven in all, each printing a single summary
line on success.  Tolerances are pinned here and nowhere else; the frozen
integer counts double as regression oracles.  Three companion tests are
marked strict-xfail: they pin targets that the exact computations show to be
unreachable (a raw B log B ratio still polluted by its secondary term at
B = 1e4, and two unbalanced splitting types that cohomology rules out).
The slowest test is the exhaustive freeness audit at ~30s; everything else
is seconds.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heightlab.counting import (
    bounded_window,
    count_blowup,
    count_classes_pn,
    count_pn,
    count_pn_sieved,
    enum_points,
    joint_class_box_counts,
    sup_box_measure,
)
from heightlab.exactnum import LogLin
from heightlab.freeness import (
    freeness,
    freeness_product,
    freeness_sweep,
    pn_freeness_data,
)
from heightlab.geomcurve import (
    CurveMap,
    approx_exponent,
    limit_experiment,
    splitting_type,
)
from heightlab.lattice import (
    EucLattice,
    degree,
    dual_lattice,
    is_semistable,
    max_deg_rank,
    newton_polygon,
    slopes,
    tau_invariant,
)
from heightlab.motivic import (
    L,
    ONE,
    LPoly,
    LSeries,
    class_homd,
    class_wd,
    euler_product_inverse,
    filtration_level,
    geometric_double_inverse,
    kapranov_residue,
    normalized_symbol,
    verify_recurrence,
)
from heightlab.projpoint import Metric, card_projective_mod, enum_projective_mod, variety
from heightlab.tamagawa import assemble_constant, closed_form, uniform_class_share
from heightlab.zoomlab import ZoomConfig, fiber_share, zoom_cloud, zoom_freeness_overlay

from curve_examples import (
    conic_p2,
    coordinate_line_p2,
    double_cover_line,
    identity_p1,
    line_p2,
    twisted_cubic,
)
from freeness_reference import product_tangent_lattice
from test_lattice import oracle_min_covol2, random_gram

SEED = 20240811
P1 = variety("pn", 1)
P2 = variety("pn", 2)
P1N2 = variety("p1n", 2)


def test_01_line_count_and_sieve():
    n = count_pn(1, 1000)
    assert n == 1216768
    ref = 12 / math.pi ** 2
    rel = abs(n / 1000 ** 2 - ref) / ref
    assert rel <= 0.02
    for b in range(1, 101):
        exhaustive = sum(1 for _ in enum_points(bounded_window(P1, b)))
        assert count_pn_sieved(1, b) == exhaustive, b
    print(f"criterion 1: PASS  N(1000)={n}, rel err {rel:.5f} <= 0.02, "
          f"sieve == exhaustive for B <= 100")


def test_02_plane_count_vs_constant():
    n = count_pn(2, 300)
    fit = n / 300 ** 3
    # zeta(3) partial sum to 400 terms; the tail is < 1/(2*399^2) ~ 3e-6
    zeta3 = float(sum(Fraction(1, k ** 3) for k in range(1, 400)))
    ref = 4 / zeta3
    rel = abs(fit - ref) / ref
    assert rel <= 0.03
    const = assemble_constant(P2, Metric.SUP, prime_limit=10_000)
    assembled = float(const.alpha) * const.tau
    closed = closed_form(P2, Metric.SUP)
    assert abs(assembled - closed) <= const.tail_rel_bound * abs(closed)
    assert const.tail_rel_bound < 1e-6
    assert abs(fit - assembled) / assembled <= 0.03
    print(f"criterion 2: PASS  fit {fit:.5f} vs 4/zeta(3) {ref:.5f} "
          f"(rel {rel:.4f} <= 0.03); assembled constant within certified "
          f"Euler tail {const.tail_rel_bound:.1e} of the closed form")


def _primitive_vector_card(n: int, m: int) -> int:
    """|P^n(Z/M)| counted from scratch: unit-content vectors over phi(M)."""
    k = n + 1
    total = m ** k
    out = 0
    chunk = max(1, total // m)
    for lead in range(m):
        idx = np.arange(lead * chunk, (lead + 1) * chunk, dtype=np.int64)
        g = np.zeros(idx.size, dtype=np.int64)
        rem = idx.copy()
        for _ in range(k):
            g = np.gcd(g, rem % m)
            rem //= m
        out += int(np.count_nonzero(np.gcd(g, m) == 1))
    phi = sum(1 for u in range(1, m) if math.gcd(u, m) == 1)
    assert out % phi == 0
    return out // phi


def test_03_projective_mod_cardinality():
    for n in (1, 2, 3):
        for m in range(2, 51):
            assert _primitive_vector_card(n, m) == card_projective_mod(n, m), (n, m)
    # the canonical-representative enumeration agrees as well
    for n in (1, 2):
        for m in range(2, 51):
            assert len(enum_projective_mod(n, m)) == card_projective_mod(n, m)
    for m in range(2, 17):
        assert len(enum_projective_mod(3, m)) == card_projective_mod(3, m)
    print("criterion 3: PASS  |P^n(Z/M)| matches the multiplicative closed "
          "form exactly for n <= 3, M <= 50 (vector count and enumeration)")


def test_04_equidistribution_mod_3():
    counts = count_classes_pn(2, 3, 1000)
    assert len(counts) == 13
    total = sum(counts.values())
    worst = max(abs(c / total - 1 / 13) for c in counts.values())
    assert worst <= 0.005

    box = ((0, 1), (-1, 1), (0, 1))
    joint = joint_class_box_counts(2, 3, 200, box)
    # each point of height <= 200 has two primitive vectors, +-y
    vec_total = 2 * sum(count_classes_pn(2, 3, 200).values())
    mu = float(sup_box_measure(box, 2))
    uni = float(uniform_class_share(P2, 3))
    predicted = uni * mu
    worst_joint = 0.0
    for cls in counts:
        hit = joint[cls]
        worst_joint = max(worst_joint, abs(hit / vec_total - predicted) / predicted)
    assert worst_joint <= 0.05
    print(f"criterion 4: PASS  13 classes, max |share - 1/13| = {worst:.6f} "
          f"<= 0.005 at B=1000; joint class+box worst rel {worst_joint:.4f} "
          f"<= 0.05 against mu_box = {mu}")


REF_E = 12 / math.pi ** 2
REF_U = 96 / math.pi ** 4


def test_05_blowup_counts():
    count_e3, count_u3 = count_blowup(1000)
    count_e4, count_u4 = count_blowup(10_000)
    _, count_u5 = count_blowup(100_000)
    rel_e = abs(count_e3 / 1000 ** 2 - REF_E) / REF_E
    assert rel_e <= 0.02
    fit = {b: u / (b * math.log(b))
           for b, u in ((1000, count_u3), (10_000, count_u4), (100_000, count_u5))}
    rel4 = abs(fit[10_000] - REF_U) / REF_U
    rel3 = abs(fit[1000] - REF_U) / REF_U
    assert rel4 < rel3  # the trend toward 96/pi^4
    # the raw ratio carries a c*B secondary term; differencing two decades
    # cancels it and isolates the B log B coefficient
    slope = (count_u5 / 100_000 - count_u4 / 10_000) / (math.log(100_000) - math.log(10_000))
    rel_slope = abs(slope - REF_U) / REF_U
    assert rel_slope <= 0.25
    print(f"criterion 5: PASS  exceptional fit rel {rel_e:.4f} <= 0.02; "
          f"off-exceptional raw fit {fit[1000]:.3f} -> {fit[10_000]:.3f} "
          f"(approaching {REF_U:.3f}); differenced coefficient {slope:.5f} "
          f"within {rel_slope:.4f} of 96/pi^4")


@pytest.mark.xfail(strict=True, reason=(
    "countU(B)/(B log B) converges like C + c/log(B) with c ~ 4.2 from the "
    "secondary B-term, so the raw ratio at B = 1e4 sits ~40% above 96/pi^4 "
    "and enters the 25% window only around B ~ 1e7, far past desk scale; "
    "the differenced estimate in the main test isolates C itself"))
def test_05x_raw_off_exceptional_ratio_at_1e4():
    _, count_u = count_blowup(10_000)
    fit = count_u / (10_000 * math.log(10_000))
    assert abs(fit - REF_U) / REF_U <= 0.25


def test_06_freeness_lower_bound():
    r2 = freeness_sweep(2, 50)
    assert r2.total == 427393
    assert r2.bound_holds and r2.coeffs_match
    r3 = freeness_sweep(3, 15)
    assert r3.total == 427968
    assert r3.bound_holds and r3.coeffs_match
    # machinery-level audit on subsamples: exact slope inequalities and the
    # closed/generic agreement point by point
    checked = 0
    for v, sub in ((P2, 10), (variety("pn", 3), 4)):
        for p in enum_points(bounded_window(v, sub)):
            if sum(c * c for c in p.coords) == 1:
                continue
            d = pn_freeness_data(p)
            assert (d.mu_closed - d.mu_generic).sign() == 0
            # l >= n/(n+1)  <=>  (n+1) mu >= h, exactly
            assert (d.mu_generic.scale(v.n + 1) - d.h).sign() >= 0
            checked += 1
    print(f"criterion 6: PASS  l >= n/(n+1) exactly on all {r2.total} P^2 "
          f"vectors (sup <= 50) and {r3.total} P^3 vectors (sup <= 15); "
          f"closed == generic exactly ({checked} points at machinery level)")


def test_07_product_freeness():
    rng = random.Random(SEED)

    def rand_pt():
        from heightlab.projpoint import normalize
        while True:
            a, b = rng.randint(-60, 60), rng.randint(-60, 60)
            if (a, b) != (0, 0):
                return normalize((a, b))

    for _ in range(1000):
        pa, pb = rand_pt(), rand_pt()
        rep = freeness(product_tangent_lattice([pa, pb]))
        m1, m2 = (sum(c * c for c in p.coords) for p in (pa, pb))
        assert (rep.mu_min - LogLin.from_log(Fraction(min(m1, m2)), Fraction(1))).sign() == 0
        assert (rep.h - LogLin.from_log(Fraction(m1 * m2), Fraction(1))).sign() == 0
        assert abs(rep.l - freeness_product([pa, pb])) < 1e-12

    def share_below(bound):
        below = total = 0
        for pts in enum_points(bounded_window(P1N2, bound, Metric.EUCLID)):
            total += 1
            below += freeness_product(pts) < 0.2
        return below, total

    b100, t100 = share_below(100)
    b1000, t1000 = share_below(1000)
    assert (b100, t100, b1000, t1000) == (380, 688, 3820, 9040)
    s100, s1000 = b100 / t100, b1000 / t1000
    assert max(s100, s1000) <= 2 * min(s100, s1000)
    assert min(s100, s1000) > 0.01
    print(f"criterion 7: PASS  product formula == direct-sum slopes exactly "
          f"on 1000 seeded pairs; share(l < 0.2) = {s100:.4f} at B=100 vs "
          f"{s1000:.4f} at B=1000 (factor {max(s100, s1000) / min(s100, s1000):.2f} <= 2)")


def test_08_lattice_suite():
    rng = np.random.default_rng(SEED)
    for k in range(1000):
        rank = 2 + k % 3
        g = random_gram(rng, rank)
        den = int(rng.integers(1, 5))
        lat = EucLattice(tuple(tuple(Fraction(x, den) for x in row) for row in g))
        mu = newton_polygon(lat).slopes
        total = LogLin.zero()
        for s in mu:
            total = total + s
        assert (total - degree(lat)).sign() == 0
        mu_dual = slopes(dual_lattice(lat))
        assert all(mu_dual[i] == -mu[rank - 1 - i] for i in range(rank))

    # rank-2 shape: semistable exactly when the upper-half-plane parameter
    # tau = x + iy, gram [[1, x], [x, x^2 + y^2]], has y <= 1
    grid = []
    for x in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
        for y2 in (Fraction(3, 4), Fraction(25, 32), Fraction(1),
                   Fraction(3, 2), Fraction(2), Fraction(4)):
            if x * x + y2 >= 1:
                grid.append((x, y2))
    for x in (Fraction(1, 4), Fraction(-1, 4)):
        grid.append((x, Fraction(15, 16)))
        grid.append((x, Fraction(2)))
    assert len(grid) == 20
    for x, y2 in grid:
        lat = EucLattice(((Fraction(1), x), (x, x * x + y2)))
        assert is_semistable(lat) == (y2 <= 1), (x, y2)
        assert tau_invariant(lat).y2 == y2

    for _ in range(100):
        g = random_gram(rng, 3)
        lat = EucLattice(g)
        for i in (1, 2):
            want = 1 / Fraction(oracle_min_covol2(g, i))
            assert max_deg_rank(lat, i) == LogLin.from_log(want, Fraction(1, 2))
    print("criterion 8: PASS  sum(mu_i) == deg and dual symmetry exact on "
          "1000 rational Grams of rank <= 4; semistable <=> Im(tau) <= 1 on "
          "a 20-point grid; certified search == brute oracle on 100 rank-3 "
          "instances")


def test_09_rational_curve_splitting_and_limit():
    named = {
        "line": (line_p2(), (2, 1)),
        "coordinate line": (coordinate_line_p2(), (2, 1)),
        "conic": (conic_p2(), (3, 3)),
        "twisted cubic": (twisted_cubic(), (4, 4, 4)),
    }
    extras = [
        identity_p1(),
        double_cover_line(),
        CurveMap(n=2, d=5, forms=((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                                  (0, 0, 0, 0, 0, 1))),
        CurveMap(n=3, d=4, forms=((1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                                  (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
    ]
    for name, (c, expected) in named.items():
        st = splitting_type(c)
        assert st.a == expected, name
        assert sum(st.a) == (c.n + 1) * c.d
    for c in extras:
        st = splitting_type(c)
        assert sum(st.a) == (c.n + 1) * c.d

    rows = limit_experiment(line_p2(), [10, 100, 1000, 10_000]).rows
    by_h = {round(r.h_param / math.log(10)): r for r in rows}
    assert by_h[3].gap <= 0.05  # parameter height 1e3
    assert by_h[4].gap <= 0.05
    for r in rows:
        assert r.l >= 2 / 3
        assert abs(r.gap * r.h_image - math.log(2)) < 1e-9  # bounded, constant
    gaps = [r.gap for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    exponent = approx_exponent(rows)
    assert abs(exponent - (-1.0)) < 1e-6
    print(f"criterion 9: PASS  splitting (2,1)/(3,3)/(4,4,4) for line/conic/"
          f"twisted cubic, sum a_i == (n+1)d on all 8 curves; along the line "
          f"gap(1e3) = {by_h[3].gap:.5f} <= 0.05, gap*h == log 2, fit "
          f"exponent {exponent:+.6f}")


@pytest.mark.xfail(strict=True, reason=(
    "the restricted tangent bundle of the smooth conic is balanced: a (4,2) "
    "split would make h0(E(-4)) > 0, but the exact Cech-matrix rank "
    "computation gives h0(E(-4)) = 0, so the type is (3,3)"))
def test_09x_conic_type_4_2():
    assert splitting_type(conic_p2()).a == (4, 2)


@pytest.mark.xfail(strict=True, reason=(
    "the twisted cubic restricts the tangent bundle to the balanced type "
    "(4,4,4): a (5,5,2) split would need h0(E(-5)) > 0, ruled out by the "
    "exact rank computation"))
def test_09x_twisted_cubic_type_5_5_2():
    assert splitting_type(twisted_cubic()).a == (5, 5, 2)


def test_10_motivic_identities():
    for n in (1, 2, 3):
        assert verify_recurrence(n, 10)
        for d in range(1, 11):
            assert (L - ONE) * class_homd(n, d) == class_wd(n, d)
    all_ones = ONE
    for k in range(1, 21):
        all_ones = all_ones + LPoly.tate(-k)
    assert kapranov_residue(20) == LSeries.from_poly(all_ones, 20)
    for n in (1, 2, 3):
        assert euler_product_inverse(n, 20) == geometric_double_inverse(n, 20)
        for d in range(1, 10):
            a = LSeries.from_poly(normalized_symbol(n, d), 20)
            b = LSeries.from_poly(normalized_symbol(n, d + 1), 20)
            assert filtration_level(a, b) == 20
    print("criterion 10: PASS  (L-1)[Hom^d] == [W_d] and the counting "
          "recurrence hold for n <= 3, d <= 10; residue of the zeta series "
          "== sum L^-k and the Euler-product inversion match to cutoff 20; "
          "the normalized symbol stabilizes in d")


def test_11_zoom_experiments():
    # a rational center at window exponent 2 traps only itself, exactly
    for center, bs in (((0, 1), (2, 3, 5, 10, 100, 1000)),
                       ((1, 3), (4, 10, 50, 1000))):
        for b in bs:
            cloud = zoom_cloud(ZoomConfig(variety=P1, center=center,
                                          alpha=Fraction(2), R=Fraction(1),
                                          B=Fraction(b)))
            assert cloud.size == 1 and cloud.points[0].coords == center

    # fiber concentration on (P^1)^2 under the critical zoom
    def share(alpha, b):
        cloud = zoom_cloud(ZoomConfig(variety=P1N2, center=((0, 1), (0, 1)),
                                      alpha=Fraction(alpha), R=Fraction(40),
                                      B=Fraction(b)))
        return fiber_share(cloud, Fraction(1, 10))

    baseline = share(0, 100)
    s100, s1000 = share(1, 100), share(1, 1000)
    assert s1000 > baseline
    assert s1000 > s100
    assert abs(baseline - 0.1868) < 0.001 and abs(s1000 - 0.9908) < 0.001

    # freeness overlay along the fiber through an exact rational center
    cloud = zoom_cloud(ZoomConfig(variety=P1N2, center=((1, 2), (1, 2)),
                                  alpha=Fraction(1), R=Fraction(40),
                                  B=Fraction(1000), metric=Metric.EUCLID))
    # (log height, l) of each point on the fiber
    fiber_rows = [(math.log(height), l) for point, height, l in
                  zip(cloud.points, cloud.heights, zoom_freeness_overlay(cloud))
                  if point[0] == (1, 2)]
    assert len(fiber_rows) > 3000
    by_h = {}
    for h, l in fiber_rows:
        assert abs(l * h - math.log(5)) < 1e-12  # l = log(5)/h exactly
        by_h.setdefault(h, set()).add(l)
    hs = sorted(by_h)
    assert all(len(by_h[h]) == 1 for h in hs)
    assert all(max(by_h[a]) > max(by_h[b]) for a, b in zip(hs, hs[1:]))
    print(f"criterion 11: PASS  window exponent 2 isolates rational centers "
          f"exactly; fiber share {baseline:.4f} (flat) -> {s100:.4f} -> "
          f"{s1000:.4f} under the critical zoom; fiber freeness l = log5/h "
          f"strictly decreasing over {len(hs)} height levels")
