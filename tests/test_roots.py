"""Square-free decomposition and certified root disks."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from wenum import polyx
from wenum.algebra import macwilliams
from wenum.catalog import catalog, rm2_closed_form
from conftest import gcd_distinct_roots, random_code, seeded
from wenum.codes import (
    WeightEnumerator,
    direct_sum,
    enumerate_weights,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from wenum.errors import PrecisionFailureError
from wenum.fields import GF
from wenum.reedmuller import projective_reed_muller, reed_muller
from wenum.roots import (
    ROOT_EPS,
    _aberth,
    _disks_disjoint,
    _SWEEP_CAP,
    _dyadic,
    _powers,
    _scaled_values,
    _sqrt_up,
    _start,
    certified_radii,
    find_roots,
    roots_of,
    square_free,
)
from wenum.stabilizer import Verdict, certify_trivial, compute_stabilizer

GLEASON = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))


def squarefree_part(sf):
    """The primitive product of the Yun factors, whose roots are the
    distinct roots of W."""
    out = (1,)
    for f, _ in sf:
        out = polyx.mul(out, f)
    return polyx.primitive_int(out)


def test_square_free_repeated_pair():
    w = pair_sum_enumerator(4, 4)  # (x^2+3)^2
    sf = square_free(w)
    assert gcd_distinct_roots(w) == 2
    assert sf == (((3, 0, 1), 2),)


def test_square_free_gleason_is_squarefree():
    sf = square_free(GLEASON)
    assert gcd_distinct_roots(GLEASON) == 8
    assert sf == ((GLEASON.coeffs, 1),)
    d = polyx.monic_gcd(GLEASON.coeffs, polyx.derivative(GLEASON.coeffs))
    assert polyx.degree(d) == 0


def test_square_free_x_cubed():
    w = zero_code_enumerator(3)
    sf = square_free(w)
    assert gcd_distinct_roots(w) == 1
    assert sf == (((0, 1), 3),)


def test_square_free_reconstruction():
    # product of f^j rebuilds W up to a positive rational constant
    for w in (GLEASON, pair_sum_enumerator(8, 3), zero_code_enumerator(5)):
        sf = square_free(w)
        prod = (1,)
        for f, m in sf:
            for _ in range(m):
                prod = polyx.mul(prod, f)
        ratio = Fraction(w.coeffs[-1], prod[-1])
        assert ratio > 0
        assert tuple(ratio * c for c in prod) == tuple(Fraction(c) for c in w.coeffs)


def test_simple_quadratic_roots():
    rs = find_roots(square_free(WeightEnumerator((3, 0, 1))))
    got = sorted(rs.centers(), key=lambda z: z.imag)
    s3 = math.sqrt(3)
    assert abs(got[0] + 1j * s3) <= 1e-12
    assert abs(got[1] - 1j * s3) <= 1e-12
    assert all(r.radius <= 1e-12 for r in rs.roots)


def test_integer_root_is_exact():
    rs = roots_of(WeightEnumerator((4, 1)))  # x + 4
    assert rs.roots[0].center == -4
    assert rs.roots[0].radius == 0.0


def test_multiplicities_multi_factor():
    # (x^2+1)(x^2+4)^2 = x^6 + 9x^4 + 24x^2 + 16
    w = WeightEnumerator((16, 0, 24, 0, 9, 0, 1))
    rs = roots_of(w)
    by_mult = {}
    for r in rs.roots:
        by_mult.setdefault(r.multiplicity, []).append(r.center)
    assert sorted(abs(z) for z in by_mult[1]) == pytest.approx([1.0, 1.0])
    assert sorted(abs(z) for z in by_mult[2]) == pytest.approx([2.0, 2.0])
    # (x+1)(x+2)^2(x^2+3)^3: three Yun factors with roots of modulus 1, 2
    # and sqrt(3)
    w = WeightEnumerator((108, 216, 243, 243, 171, 99, 49, 17, 5, 1))
    assert len(square_free(w)) == 3
    rs = roots_of(w)
    got = sorted((round(z.real), round(z.imag * z.imag), r.multiplicity)
                 for r in rs.roots for z in [r.center])
    assert got == [(-2, 0, 2), (-1, 0, 1), (0, 3, 3), (0, 3, 3)]
    # every radius is the Fraction oracle's against the disk's own Yun
    # factor, rounded up, and none is above 4.94e-16
    for f, m in square_free(w):
        mine = [r for r in rs.roots if r.multiplicity == m]
        want = reference_radii(f, [r.center for r in mine])
        assert [r.radius for r in mine] == [_float_up(r) for r in want]
    assert rs.eps <= float.fromhex("0x1.1cd16c62d8c9dp-51")
    assert rs.N == 2.0
    for r in rs.roots:
        if r.multiplicity < 3:
            assert r.radius == 0.0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_direct_sum_doubles_multiplicities(q):
    # W of a + a is W_a squared: the same distinct roots, each of twice
    # the multiplicity, and multiplicities summing to n
    rng = seeded(f"roots-sum-{q}")
    for _ in range(3):
        n = rng.randint(3, 7)
        a = random_code(rng, q, n, rng.randint(1, n - 1))
        single = roots_of(enumerate_weights(a))
        rs = roots_of(enumerate_weights(direct_sum(a, a)))
        assert sum(r.multiplicity for r in rs.roots) == 2 * n
        assert len(rs) == len(single)
        for r in rs.roots:
            near = min(single.roots, key=lambda s: abs(s.center - r.center))
            assert abs(near.center - r.center) <= near.radius + r.radius
            assert r.multiplicity == 2 * near.multiplicity


def _enumerator(code):
    from wenum.codes import enumerate_weights

    return enumerate_weights(code)


def test_rm4_2_2_certified_disks():
    from wenum.reedmuller import reed_muller

    w = _enumerator(reed_muller(4, 2, 2))
    sf = square_free(w)
    rs = find_roots(sf)
    assert len(rs) == gcd_distinct_roots(w)
    # pairwise disjoint disks
    roots = rs.roots
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            sep = abs(roots[i].center - roots[j].center)
            assert sep > roots[i].radius + roots[j].radius
    # Vieta: sum and product of the (simple) roots against the coefficients
    d = gcd_distinct_roots(w)
    poly = squarefree_part(sf)
    lead = poly[-1]
    total = sum(rs.centers())
    want = -poly[-2] / lead
    assert abs(total - want) <= d * rs.eps + 1e-9
    prod = 1
    for z in rs.centers():
        prod *= z
    want = (-1) ** d * poly[0] / lead
    assert abs(prod - want) <= d * rs.N ** (d - 1) * rs.eps + 1e-6 * abs(want)


def test_conjugate_symmetry():
    rs = roots_of(GLEASON)
    centers = rs.centers()
    for z in centers:
        assert min(abs(z.conjugate() - c) for c in centers) <= 2 * rs.eps


def test_certified_containment_independent_check():
    # recompute the residual bound at high precision; the stored radius
    # must dominate it (it was derived by exact outward rounding)
    w = GLEASON
    sf = square_free(w)
    rs = find_roots(sf)
    poly = squarefree_part(sf)
    d = len(poly) - 1
    with mpmath.workdps(120):
        for j, root in enumerate(rs.roots):
            z = mpmath.mpc(root.center)
            num = mpmath.polyval([mpmath.mpf(c) for c in reversed(poly)], z)
            den = mpmath.mpf(poly[-1])
            for k, other in enumerate(rs.roots):
                if k != j:
                    den *= z - mpmath.mpc(other.center)
            bound = d * abs(num) / abs(den)
            assert bound <= root.radius * (1 + 1e-12) + 1e-300


def _fraction_sqrt_up(fr):
    s = math.isqrt(fr.numerator * fr.denominator)
    if s * s < fr.numerator * fr.denominator:
        s += 1
    return Fraction(s, fr.denominator)


def _float_up(fr):
    """The smallest double >= the fraction fr."""
    x = float(fr)
    while Fraction(x) < fr:
        x = math.nextafter(x, math.inf)
    return x


def exact_squared_radii(poly, centers):
    """(d * |p(z_j)| / (|lc| * prod_k |z_j - z_k|))^2, term by term in
    Fractions."""
    d = len(poly) - 1
    exact = [(Fraction(z.real), Fraction(z.imag)) for z in centers]
    out = []
    for j, (re, im) in enumerate(exact):
        pre, pim = Fraction(0), Fraction(0)
        for c in reversed(poly):
            pre, pim = pre * re - pim * im + c, pre * im + pim * re
        r2 = (pre * pre + pim * pim) * d * d / poly[-1] ** 2
        for k, (re2, im2) in enumerate(exact):
            if k != j:
                r2 /= (re - re2) ** 2 + (im - im2) ** 2
        out.append(r2)
    return out


def reference_radii(poly, centers):
    """The exact radii, each square root rounded up over the reduced
    denominator of the squared radius."""
    return [_fraction_sqrt_up(r2) for r2 in exact_squared_radii(poly, centers)]


def assert_smallest_double_above(radii, poly, centers):
    """Each radius is a double, at least the exact radius, its predecessor
    is below it, and it is the old reference rounded up."""
    for r, r2, old in zip(radii, exact_squared_radii(poly, centers),
                          reference_radii(poly, centers), strict=True):
        assert isinstance(r, float)
        assert Fraction(r) ** 2 >= r2
        assert Fraction(math.nextafter(r, 0)) ** 2 < r2 or r == 0 == r2
        assert r == _float_up(old)


def _random_centers(rng, m, scales):
    return [complex(rng.choice((-1, 1)) * rng.random() * rng.choice(scales),
                    rng.choice((-1, 1)) * rng.random() * rng.choice(scales))
            for _ in range(m)]


@pytest.mark.parametrize("d, tiny", [(1, 1e-200), (2, 1e-200), (5, 1e-200),
                                     (17, 1e-200), (40, 1e-20)])
def test_certified_radii_match_fraction_oracle(d, tiny):
    rng = random.Random(d)
    poly = tuple(rng.randint(-10**6, 10**6) for _ in range(d)) + (rng.randint(1, 99),)
    # binary exponents from about -665 (1e-200) or -66 (1e-20) to +20
    centers = _random_centers(rng, d, (tiny, 1e-3, 1.0, 1e6))
    assert_smallest_double_above(certified_radii(poly, centers), poly, centers)
    # zero and negative real and imaginary parts
    centers = [0j, -2.5 + 0j, 3j, -1e-200j, -7.25 - 1e6j][:d]
    centers += _random_centers(rng, d - len(centers), (1e-3, 1.0))
    assert_smallest_double_above(certified_radii(poly, centers), poly, centers)


def test_certified_radii_count_differs_from_degree():
    rng = random.Random(3)
    poly = (5, -3, 0, 2, 7, 1)
    for m in (2, 3, 8):
        centers = _random_centers(rng, m, (1e-5, 1.0, 1e3))
        assert_smallest_double_above(certified_radii(poly, centers), poly, centers)


def test_certified_radii_match_oracle_on_factors():
    # every Yun factor of (x+1)(x+2)^2(x^2+3)^3 at its own certified roots,
    # and prm5_3_2's degree-31 square-free part at its roots
    from wenum.codes import enumerate_weights
    from wenum.reedmuller import projective_reed_muller

    w = WeightEnumerator((108, 216, 243, 243, 171, 99, 49, 17, 5, 1))
    sf = square_free(w)
    centers = find_roots(sf).centers()

    def horner(f, z):
        acc = 0
        for c in reversed(f):
            acc = acc * z + c
        return acc

    for f, _ in sf:
        mine = sorted(centers, key=lambda z: abs(horner(f, z)))[: len(f) - 1]
        assert_smallest_double_above(certified_radii(f, mine), f, mine)
    poly = squarefree_part(sf)
    assert_smallest_double_above(certified_radii(poly, centers), poly, centers)
    sf = square_free(enumerate_weights(projective_reed_muller(5, 3, 2)))
    rs = find_roots(sf)
    poly = squarefree_part(sf)
    want = reference_radii(poly, rs.centers())
    assert_smallest_double_above(certified_radii(poly, rs.centers()), poly, rs.centers())
    # the stored double radius is the exact one rounded up, never down
    assert all(0 <= Fraction(r.radius) - w <= Fraction(r.radius) * 2.0**-52
               for r, w in zip(rs.roots, want))


def _evaluated(monkeypatch):
    """The number of points of each _scaled_values call, as a list that
    grows as certified_radii runs."""
    counts = []

    def counting(poly, e, points):
        counts.append(len(points))
        return _scaled_values(poly, e, points)

    monkeypatch.setattr("wenum.roots._scaled_values", counting)
    return counts


def _assert_mirrors_equal(radii, centers):
    """radius(conj z) == radius(z), to the bit, for every center whose
    conjugate is a center too."""
    by_center = dict(zip(centers, radii))
    for z, r in by_center.items():
        if z.conjugate() in by_center:
            assert by_center[z.conjugate()].hex() == r.hex()


# a square-free integer polynomial with 3 real roots and 2 conjugate pairs
_MIXED = (-1, 0, 5, 0, -5, 1, 0, 1)


def test_certified_radii_conjugate_pairs(monkeypatch):
    # the iteration leaves the centers of an integer polynomial closed
    # under conjugation, so only the 5 with Im >= 0 are evaluated
    centers, _ = _aberth(_MIXED, 1e-14)
    assert sum(z.imag != 0 for z in centers) == 4
    assert sorted(centers, key=lambda z: (z.real, z.imag)) == sorted(
        (z.conjugate() for z in centers), key=lambda z: (z.real, z.imag))
    counts = _evaluated(monkeypatch)
    radii = certified_radii(_MIXED, centers)
    assert counts == [5]
    assert_smallest_double_above(radii, _MIXED, centers)
    _assert_mirrors_equal(radii, centers)


def test_certified_radii_with_a_partner_gone(monkeypatch):
    # one non-real center nudged by an ulp: its mirror is no longer a
    # center, so every center is evaluated, the other pairs included
    centers, _ = _aberth(_MIXED, 1e-14)
    j = next(j for j, z in enumerate(centers) if z.imag > 0)
    centers[j] = complex(centers[j].real, math.nextafter(centers[j].imag, math.inf))
    counts = _evaluated(monkeypatch)
    radii = certified_radii(_MIXED, centers)
    assert counts == [len(centers)]
    assert_smallest_double_above(radii, _MIXED, centers)


def test_certified_radii_mixed_real_and_complex(monkeypatch):
    # real centers at both signs and zero, pairs on and off the axes, at
    # binary exponents from about -66 to +20, any order
    rng = random.Random(11)
    poly = tuple(rng.randint(-10**6, 10**6) for _ in range(12)) + (7,)
    pairs = _random_centers(rng, 4, (1e-20, 1.0, 1e6)) + [2.5j]
    reals = [complex(v.real) for v in _random_centers(rng, 3, (1e-3, 1.0))] + [0j]
    centers = reals + pairs + [z.conjugate() for z in pairs]
    rng.shuffle(centers)
    counts = _evaluated(monkeypatch)
    radii = certified_radii(poly, centers)
    assert counts == [len(reals) + len(pairs)]
    assert_smallest_double_above(radii, poly, centers)
    _assert_mirrors_equal(radii, centers)


def test_certified_radii_coinciding_conjugates():
    # -1j twice: the numerators repeat, so nothing is paired, and the two
    # coinciding centers still read inf
    radii = certified_radii((1, 0, 1), [1j, -1j, -1j])
    assert radii == [0.0, math.inf, math.inf]


def test_tangent_disks_are_not_disjoint():
    below = math.nextafter(0.5, 0.0)
    assert not _disks_disjoint([0j, 1 + 0j], [0.5, 0.5])
    assert _disks_disjoint([0j, 1 + 0j], [0.5, below])
    assert not _disks_disjoint([0j, 5 + 0j, 1 + 0j], [0.5, 0.1, 0.5])
    # the same at a binary exponent near -1000, across the imaginary axis
    t = 3e-300
    assert not _disks_disjoint([complex(0, -t), complex(0, t)], [t, t])
    assert _disks_disjoint([complex(0, -t), complex(0, t)], [t, math.nextafter(t, 0)])
    # rounding radii up never turns an exact overlap into "disjoint"
    exact = (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**80))
    up = [_float_up(r) for r in exact]
    assert all(Fraction(u) >= r for u, r in zip(up, exact))
    assert not _disks_disjoint([0j, 1 + 0j], up)


def _fraction_horner(poly, x, y):
    """poly(x + i*y) as a pair of Fractions, by Horner's rule."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(poly):
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


def test_scaled_values_match_fraction_horner():
    rng = random.Random(38)
    for d in range(13):
        for e in range(71):
            poly = tuple(rng.choice((0, rng.randint(-10**9, 10**9))) for _ in range(d))
            poly += (rng.choice((-1, 1)) * rng.randint(1, 99),)
            big = rng.randint(1, 2**70)
            points = [(0, 0), (big, 0), (-big, 0), (0, big), (0, -big),
                      (-rng.randint(1, 2**70), -rng.randint(1, 2**70)),
                      (rng.randint(-2**40, 2**40), rng.randint(-2**40, 2**40))]
            got = _scaled_values(poly, e, points)
            assert len(got) == len(points)
            for (x, y), (re, im) in zip(points, got):
                want = _fraction_horner(poly, Fraction(x, 2**e), Fraction(y, 2**e))
                assert (re, im) == tuple(part * 2 ** (e * d) for part in want)


def _pair_gaps(centers, radii):
    """For every pair of disks, in Fractions, the squared distance of the
    centers minus the squared sum of the radii: the closed disks are
    disjoint when it is positive and tangent when it is 0."""
    disks = [(Fraction(z.real), Fraction(z.imag), Fraction(r))
             for z, r in zip(centers, radii)]
    return [(x - u) ** 2 + (y - v) ** 2 - (r + s) ** 2
            for j, (x, y, r) in enumerate(disks) for u, v, s in disks[j + 1:]]


def test_disks_disjoint_matches_all_pairs_oracle():
    # disks on a half-integer grid touch often (3-4-5 triangles, shared
    # real parts); conjugate pairs share a real part; the grid is also
    # scaled to binary exponent -1000, and some disks are off the grid
    rng = random.Random(1000)
    outcomes, tangent = [], 0
    for _ in range(600):
        scale = 2.0 ** rng.choice((-1000, -1000, -8, 0, 30))
        centers, radii = [], []
        for _ in range(rng.randint(1, 9)):
            x, y = rng.randint(-8, 8) * scale, rng.randint(0, 8) * scale
            if rng.random() < 0.2:
                x += rng.random() * scale
            centers.append(complex(x, y))
            radii.append(rng.randint(0, 8) * scale / 2)
            if y and rng.random() < 0.4:
                centers.append(complex(x, -y))
                radii.append(rng.randint(0, 8) * scale / 2)
        order = list(range(len(centers)))
        rng.shuffle(order)
        centers = [centers[j] for j in order]
        radii = [radii[j] for j in order]
        gaps = _pair_gaps(centers, radii)
        want = all(g > 0 for g in gaps)
        assert _disks_disjoint(centers, radii) is want
        outcomes.append(want)
        tangent += 0 in gaps
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100
    assert tangent >= 50


def test_exact_radius_formula_matches_module():
    poly = (3, 0, 1)
    centers = [-1.7320508075688772j, 1.7320508075688772j]
    radii = certified_radii(poly, centers)
    for r in radii:
        assert isinstance(r, float)
        assert r < 1e-12


def test_sqrt_up_is_the_smallest_double_above():
    rng = random.Random(7)
    cases = [(0, 1), (4, 1), (2, 1), (1, 2), (9, 4), (1, 1 << 2100), (3, 1 << 2100),
             (1, 1 << 2200), (1, 1 << 2148), (5, 1 << 2148),
             (int(1.7976931348623157e308) ** 2, 1)]
    cases += [(rng.getrandbits(rng.randint(1, 3000)) + 1,
               rng.getrandbits(rng.randint(1, 3000)) + 1) for _ in range(400)]
    cases += [(v * v, 1) for v in (3, 2**53 + 1, 10**40)]
    # exact divisions whose root lies just above a double
    cases += [(v * v + 1, 1) for v in (2**50, 2**59, 3 * 2**40)]
    for num, den in cases:
        r = _sqrt_up(num, den)
        if math.isinf(r):
            assert Fraction(num, den) > Fraction(1.7976931348623157e308) ** 2
            continue
        assert Fraction(r) ** 2 >= Fraction(num, den)
        assert Fraction(math.nextafter(r, 0)) ** 2 < Fraction(num, den) or r == 0 == num
    assert _sqrt_up(4, 1) == 2.0 and _sqrt_up(1, 1 << 2100) == 2.0**-1050
    assert _sqrt_up(1, 1 << 2200) == _sqrt_up(1, 1 << 2148) == math.ulp(0.0)
    assert _sqrt_up(1 << 2100, 1) == math.inf
    assert _sqrt_up(1, 0) == math.inf


def _centers_from(monkeypatch, centers):
    """find_roots takes `centers` as the iteration's output for every factor."""
    monkeypatch.setattr("wenum.roots._aberth", lambda poly, tol: (centers, 1))


def test_coinciding_centers_give_infinite_radius(monkeypatch):
    poly = (1, 0, 1)
    assert certified_radii(poly, [1j, 1j]) == [math.inf, math.inf]
    assert certified_radii(poly, [1j, 1j, 2j]) == [math.inf, math.inf, 6.0]
    _centers_from(monkeypatch, [1j, 1j])
    with pytest.raises(PrecisionFailureError, match="above eps"):
        find_roots(((poly, 1),))


def test_radius_beyond_doubles_is_infinite(monkeypatch):
    # x^5 + 1 at five centers near 1e300, 1e290 apart: |p(z)| ~ 1e1500
    # against differences ~ 1e1160, so each exact radius is ~ 1e339
    poly = (1, 0, 0, 0, 0, 1)
    centers = [complex(1e300 + k * 1e290) for k in range(5)]
    assert all(r2 > Fraction(1.7976931348623157e308) ** 2
               for r2 in exact_squared_radii(poly, centers))
    assert certified_radii(poly, centers) == [math.inf] * 5
    _centers_from(monkeypatch, centers)
    with pytest.raises(PrecisionFailureError, match="above eps"):
        find_roots(((poly, 1),))


def test_sweeps_per_factor():
    prm = enumerate_weights(projective_reed_muller(5, 3, 2))
    for w in (GLEASON, prm):
        rs = roots_of(w)
        assert len(rs.sweeps) == len(square_free(w)) == 1
        assert 1 <= rs.sweeps[0] <= _SWEEP_CAP
    w = WeightEnumerator((108, 216, 243, 243, 171, 99, 49, 17, 5, 1))
    rs = roots_of(w)
    assert len(rs.sweeps) == 3
    assert all(1 <= s <= _SWEEP_CAP for s in rs.sweeps)


def test_start_circles_match_root_moduli():
    # (1000x - 1)(x - 3)(x - 1000)(x^2 + 1): moduli 1e-3, 1, 1, 3, 1000.
    # The points of each hull edge share one circle; sorted by modulus
    # they pair with the sorted root moduli, each within a factor 4.
    poly = (1,)
    for f in ((-1, 1000), (-3, 1), (-1000, 1), (1, 0, 1)):
        poly = polyx.mul(poly, f)
    z = _start(poly)
    assert len(z) == 5 and (z.imag != 0).all()
    radii = sorted(np.abs(z))
    assert len({round(r, 9) for r in radii}) == 4  # four hull edges
    for r, want in zip(radii, (1e-3, 1, 1, 3, 1000)):
        assert want / 4 <= r <= 4 * want


@pytest.mark.parametrize("coeffs", [(0, 8, 8, 4, 4, 0, 0, 0, 1), (8, 8, 4, 4, 0, 0, 0, 1)])
def test_collinear_newton_points_start_apart(coeffs):
    # three Newton points lie on one line: (2, log 8), (4, log 4), (8, 0)
    # for the first W and (1, log 8), (3, log 4), (7, 0) for the second.
    # Decided in doubles they made two edges of one radius and phase, two
    # pairs of start points coincided and the iteration diverged.  The
    # exact hull gives one edge, and the orders of W and its MacWilliams
    # partner (|C| = 25 over GF(5)) agree.
    w = WeightEnumerator(coeffs)
    (f, _), = square_free(w)
    z = _start(f).tolist()
    assert len(z) == polyx.degree(f) == len(set(z))
    order = compute_stabilizer(w, 5).size
    assert order == compute_stabilizer(macwilliams(w, 5, 25), 5).size == w.n


def _premise_factors():
    """The Yun factors of the catalog enumerators, of rm2_1_5, rm2_1_6 and
    of their duals."""
    ws = [e.expected or enumerate_weights(e.code) for e in catalog()]
    for m in (5, 6):
        ws += [rm2_closed_form(m), macwilliams(rm2_closed_form(m), 2, 2 ** (m + 1))]
    return {f for w in ws for f, _ in square_free(w)}


def test_power_table_values_within_the_stop_bound():
    # the stop rule takes |p(z)| <= 2 d u sum_k |a_k| |z|^k, u = 2^-53, as
    # the rounding of p(z) in doubles: at the start points and at the
    # final centers, the power table's p(z) is that close to the exact
    # value (at z = 0 with a_0 = 0 both sides are 0)
    for f in _premise_factors():
        d = polyx.degree(f)
        a = np.array(f, dtype=float)
        start = _start(f)
        final = np.array(_aberth(f, 0.25 * ROOT_EPS / d)[0])
        for z in (start, final):
            values = (_powers(z, d) * a).sum(axis=1)
            for zj, pz in zip(z.tolist(), values.tolist()):
                re, im = _fraction_horner(f, Fraction(zj.real), Fraction(zj.imag))
                err2 = (Fraction(pz.real) - re) ** 2 + (Fraction(pz.imag) - im) ** 2
                bound = 2 * d * 2.0**-53 * math.fsum(
                    abs(c) * abs(zj) ** k for k, c in enumerate(f))
                assert err2 <= Fraction(bound) ** 2


def test_zero_root_starts_at_zero_and_certifies_exactly():
    w = WeightEnumerator((0, 3, 0, 1))  # x (x^2 + 3)
    z = _start(w.coeffs)
    assert z[0] == 0 and (z[1:] != 0).all()
    rs = roots_of(w)
    zero = [r for r in rs.roots if r.center == 0]
    assert len(zero) == 1 and zero[0].radius == 0.0


@pytest.mark.parametrize("m, cap", [(5, 15), (6, 25)])
def test_dual_sweeps(m, cap):
    # MacWilliams duals start on the Newton polygon's circles and stop at
    # the rounding level of doubles; one circle of radius
    # min(Cauchy, Fujiwara) and a 40-sweep stall window took 48 and 157
    w = macwilliams(rm2_closed_form(m), 2, 2 ** (m + 1))
    rs = roots_of(w)
    assert len(rs) == 2**m and len(rs.sweeps) == 1
    assert rs.sweeps[0] <= cap


def test_diverged_iteration_raises(monkeypatch):
    def nan_step(z, pz, dpz):
        return np.full_like(z, np.nan)

    monkeypatch.setattr("wenum.roots._aberth_step", nan_step)
    with pytest.raises(PrecisionFailureError, match="diverged"):
        roots_of(GLEASON)


def test_roots_beyond_cauchy_bound_raise(monkeypatch):
    monkeypatch.setattr("wenum.roots._cauchy_bound", lambda poly: 0.5)
    with pytest.raises(PrecisionFailureError, match="Cauchy bound"):
        roots_of(GLEASON)


def test_precision_failure_at_unreachable_eps(monkeypatch):
    monkeypatch.setattr("wenum.roots.ROOT_EPS", 1e-40)
    with pytest.raises(PrecisionFailureError, match="above eps"):
        roots_of(WeightEnumerator((3, 0, 1)))


def test_close_root_pair_is_unresolved(monkeypatch):
    # Mignotte-type x^8 - 2(100x - 1)^2: two real roots about 1.4e-10 apart
    # near 1/100.  ROOT_EPS is below what the double centers can certify;
    # radii within 1e-6 give overlapping disks.
    p = (-2, 400, -20000, 0, 0, 0, 0, 0, 1)
    sf = ((p, 1),)
    with pytest.raises(PrecisionFailureError, match="above eps"):
        find_roots(sf)
    monkeypatch.setattr("wenum.roots.ROOT_EPS", 1e-6)
    with pytest.raises(PrecisionFailureError, match="overlap"):
        find_roots(sf)


def test_root_count_matches_squarefree_degree():
    from wenum.codes import enumerate_weights
    from wenum.reedmuller import projective_reed_muller

    w = enumerate_weights(projective_reed_muller(5, 3, 2))
    sf = square_free(w)
    rs = find_roots(sf)
    assert len(rs) == gcd_distinct_roots(w) == 31
    assert rs.eps <= 1e-12


def test_coefficients_beyond_doubles_raise_precision_failure():
    with pytest.raises(PrecisionFailureError):
        roots_of(WeightEnumerator((1, 10**400, 1)))
    # so the certificate reports instead of crashing, proved by its fixed
    # points, which need no roots
    rep = certify_trivial(WeightEnumerator((1, 3, 10**400, 7, 5, 11, 1)), 2)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED
    assert rep.fixed_points == (2, 3, 5)
    assert rep.eps is None


def test_rm2_1_6_dual_disks():
    # coefficients up to 2^57: doubles alone stall far from the roots, and
    # the step against the exact residual reaches the double-precision floor
    rs = roots_of(macwilliams(rm2_closed_form(6), 2, 2**7))
    assert len(rs) == 64
    assert rs.eps <= 4.74e-14
    exact = [(Fraction(r.center.real), Fraction(r.center.imag), Fraction(r.radius))
             for r in rs.roots]
    for j, (x, y, r) in enumerate(exact):
        for u, v, s in exact[j + 1:]:
            assert (x - u) ** 2 + (y - v) ** 2 > (r + s) ** 2


def sturm_real_roots(poly):
    """Number of distinct real roots of poly (ascending integer
    coefficients): sign changes of its Sturm sequence, in Fractions, at
    -infinity minus those at +infinity."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i, c in enumerate(b):
                a[len(a) - len(b) + i] -= q * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    seq = [[Fraction(c) for c in poly],
           [Fraction(i * c) for i, c in enumerate(poly)][1:]]
    while len(seq[-1]) > 1:
        r = rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [p[-1] > 0 for p in seq]
    at_minus = [(p[-1] > 0) == (len(p) % 2 == 1) for p in seq]
    return changes(at_minus) - changes(at_plus)


def test_sturm_oracle():
    assert sturm_real_roots((3, 0, 1)) == 0
    assert sturm_real_roots((-6, 11, -6, 1)) == 3  # (x-1)(x-2)(x-3)
    assert sturm_real_roots((-2, 0, 0, 1)) == 1


@pytest.mark.parametrize("code", [
    lambda: reed_muller(4, 2, 2),
    lambda: reed_muller(5, 2, 2),
    lambda: projective_reed_muller(5, 3, 2),
], ids=["rm4_2_2", "rm5_2_2", "prm5_3_2"])
def test_real_roots_on_the_real_axis(code):
    sf = square_free(enumerate_weights(code()))
    rs = find_roots(sf)
    centers = rs.centers()
    # no imaginary part of 1e-34 left on a real root to widen the common
    # power of two of the exact certificate
    assert _dyadic(centers)[0] <= 64
    assert sum(z.imag == 0 for z in centers) == sturm_real_roots(squarefree_part(sf))


def test_imaginary_roots_on_the_imaginary_axis():
    # (x + y)(x + 2y)(x + 3y)(x^2 + 2y^2): the last factor's roots are
    # purely imaginary, and the iteration leaves real parts of about 1e-33
    # on them unless they are snapped to 0
    w = WeightEnumerator((1, 6, 13, 18, 22, 12))
    rs = roots_of(w)
    imaginary = [z for z in rs.centers() if abs(abs(z.imag) - 0.5**0.5) < 1e-9]
    assert len(imaginary) == 2
    assert all(z.real == 0 for z in imaginary)
    assert _dyadic(rs.centers())[0] <= 64
