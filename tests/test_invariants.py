"""Transvectants and the fixed-point proof of triviality, against hand
values, the covariance identities and the stabilizer's group order."""

import pytest

from conftest import certify_enumerators, random_code, seeded
from wenum.algebra import classify, macwilliams, substitute_linear
from wenum.catalog import catalog, get_entry, rm2_closed_form
from wenum.codes import (
    WeightEnumerator,
    enumerate_weights,
    full_space_enumerator,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from wenum.invariants import _covariants, fixed_points
from wenum import polyx
from wenum.stabilizer import compute_stabilizer

GLEASON = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))


def test_covariants_of_a_cubic():
    # Q = x^3 + y^3: H = 2 (Q_xx Q_yy - Q_xy^2) = 72 x y,
    # T = Q_x H_y - Q_y H_x = 216 (x^3 - y^3), V = Q_xx H_yy - 2 Q_xy H_xy
    # + Q_yy H_xx = 0
    h, t, v = _covariants((1, 0, 0, 1), 3)
    assert h == (0, 72)
    assert t == (-216, 0, 0, 216)
    assert v == ()


def _padded(p, deg):
    """The coefficient list of a form of formal degree deg, x^i at index i."""
    return list(p) + [0] * (deg + 1 - len(p))


def _covariance_cases():
    rng = seeded("covariance")
    out = [GLEASON, rm2_closed_form(4), enumerate_weights(get_entry("rm4_2_2").code)]
    out += [enumerate_weights(random_code(rng, q, n, k)) for q, n, k in ((2, 11, 4), (3, 9, 3))]
    return [pytest.param(w, id=f"n{w.n}_{i}") for i, w in enumerate(out)]


@pytest.mark.parametrize("w", _covariance_cases())
def test_covariance_under_integer_matrices(w):
    # (W o g, W o g)^(2) = det(g)^2 H o g, and T and V likewise with
    # det(g)^3 and det(g)^4, exactly; W o g by the ring-generic Horner
    n = w.n
    degrees = (2 * n - 4, 3 * n - 6, 3 * n - 8)
    covariants = _covariants(polyx.normalize(w.coeffs), n)
    rng = seeded(f"covariance:{w.coeffs}")
    tried = 0
    while tried < 3:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            continue
        tried += 1
        moved = _covariants(polyx.normalize(substitute_linear(w.coeffs, a, b, c, d)), n)
        for k, (got, form, deg) in enumerate(zip(moved, covariants, degrees), start=2):
            want = substitute_linear(_padded(form, deg), a, b, c, d)
            assert got == polyx.normalize(det**k * v for v in want)


@pytest.mark.parametrize("name", ["rm4_2_2", "rm4_3_2", "rm5_2_2", "prm5_3_2"])
def test_fixed_points_of_trivial_catalog_codes(name):
    w = enumerate_weights(get_entry(name).code)
    assert fixed_points(w.coeffs) == (2, 3, 5)


@pytest.mark.parametrize(
    "w",
    [
        pytest.param(GLEASON, id="gleason"),
        pytest.param(rm2_closed_form(3), id="rm2_1_3"),
        pytest.param(rm2_closed_form(4), id="rm2_1_4"),
        pytest.param(rm2_closed_form(5), id="rm2_1_5"),
        pytest.param(macwilliams(rm2_closed_form(5), 2, 2**6), id="rm2_1_5_dual"),
        pytest.param(macwilliams(rm2_closed_form(6), 2, 2**7), id="rm2_1_6_dual"),
    ],
)
def test_no_fixed_points_for_nontrivial_groups(w):
    assert fixed_points(w.coeffs) is None


@pytest.mark.parametrize(
    "w",
    [
        pytest.param(zero_code_enumerator(3) * full_space_enumerator(5, 2), id="subspace"),
        pytest.param(pair_sum_enumerator(6, 3), id="pair_sum"),
        pytest.param(zero_code_enumerator(6), id="x6"),
    ],
)
def test_constant_invariants_prove_nothing(w):
    # with at most two roots J is constant, so A = 0 at every point (and
    # H = 0 for a single root): nothing is proved, and nothing loops
    assert fixed_points(w.coeffs) is None


def test_a_point_whose_orbit_holds_infinity_proves_nothing(monkeypatch):
    # the roots 0, 3/2, -1, 5/3, 4, 5/2 of Q are swapped in pairs by the
    # involution g(x) = (2x - 3) / (x - 2), which fixes 1 and 3 and swaps
    # 2 with (1 : 0); so 1 and 3 prove, 2 must not, and (1, 2, 3) is no
    # proof
    q = (1,)
    for factor in ((0, 1), (-3, 2), (1, 1), (-5, 3), (-4, 1), (-5, 2)):
        q = polyx.mul(q, factor)
    monkeypatch.setattr("wenum.invariants._POINTS", (1, 3, 1))  # g fixes two points
    assert fixed_points(q) == (1, 3, 1)
    monkeypatch.setattr("wenum.invariants._POINTS", (1, 2, 3))
    assert fixed_points(q) is None


def _agreement_cases():
    """The certify tests' enumerators, then the rest of the catalog with a
    finite group."""
    out = certify_enumerators()
    seen = {param.values[0] for param in out}
    for e in catalog():
        w = e.expected or enumerate_weights(e.code)
        q = e.code.q if e.code else 2
        if w not in seen and not classify(w, q).infinite_stabilizer:
            out.append(pytest.param(w, q, id=e.name))
    return out


@pytest.mark.parametrize("w, q", _agreement_cases())
def test_fixed_points_agree_with_the_group(w, q):
    # a proof exactly where the verified group is the n scalars
    assert (fixed_points(w.coeffs) is not None) == (compute_stabilizer(w, q).size == w.n)
