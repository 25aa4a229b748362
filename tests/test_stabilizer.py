"""Cross ratios, Moebius interpolation, stabilizer groups, certificates."""

import cmath
import math
from itertools import product

import pytest

from conftest import seeded
from wenum.algebra import d_delta_matrix, macwilliams, self_dual_matrix
from wenum.codes import (
    WeightEnumerator,
    enumerate_weights,
    full_space_enumerator,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from wenum.errors import (
    DegenerateInputError,
    DomainError,
    HypothesisViolationError,
    PrecisionFailureError,
)
from wenum.reedmuller import reed_muller
from wenum.roots import Root, RootSet, roots_of
from wenum.stabilizer import (
    ROOT_EPS,
    Verdict,
    _check_group,
    _match_permutation,
    certify_distinct_cross_ratios,
    certify_trivial,
    compute_stabilizer,
    cross_ratio,
    find_element,
    matrix_distance,
    phase_normalize,
    rm2_closed_form,
    rm2_dual_invariant_matrix,
    solve_moebius,
)

GLEASON = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))
V4_PERMS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _rand_complex(rng, scale=2.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_inv(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def _near_cells(m, h, tol):
    """Keys of the grid cells (side h, per real coordinate) holding every
    matrix within entrywise distance tol of m."""
    options = []
    for v in (complex(x) for row in m for x in row):
        for x in (v.real, v.imag):
            k = math.floor(x / h)
            near = [k]
            if x - k * h <= tol:
                near.append(k - 1)
            if (k + 1) * h - x <= tol:
                near.append(k + 1)
            options.append(near)
    return product(*options)


def mulclose(generators, tol=1e-6, cap=100000, h=1e-3):
    """Brute-force closure of a matrix set under products, with numeric
    deduplication hashed on a grid of side h.  Independent oracle for the
    group computation."""
    els = []
    cells = {}

    def seen(m):
        return any(
            matrix_distance(m, e) <= tol
            for key in _near_cells(m, h, tol)
            for e in cells.get(key, ())
        )

    def add(m):
        els.append(m)
        own = next(_near_cells(m, h, 0.0))  # the first key is m's own cell
        cells.setdefault(own, []).append(m)

    frontier = []
    for g in generators:
        if not seen(g):
            add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for f in frontier:
            for g in list(els):
                for prod in (mat_mul(f, g), mat_mul(g, f)):
                    if not seen(prod):
                        add(prod)
                        nxt.append(prod)
                        if len(els) > cap:
                            raise AssertionError("closure did not terminate")
        frontier = nxt
    return els


# --- cross ratio ------------------------------------------------------------


def test_cross_ratio_basic():
    assert abs(cross_ratio(0, 1, 2, 3) - 4 / 3) < 1e-15


def test_cross_ratio_v4_invariance():
    rng = seeded("v4")
    for _ in range(50):
        z = [_rand_complex(rng) for _ in range(4)]
        if len({v for v in z}) < 4:
            continue
        base = cross_ratio(*z)
        for sigma in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            assert abs(cross_ratio(*(z[i] for i in sigma)) - base) < 1e-9


def test_cross_ratio_moebius_invariance():
    rng = seeded("moebius-inv")
    for _ in range(50):
        z = [_rand_complex(rng) for _ in range(4)]
        a, b, c, d = (_rand_complex(rng) for _ in range(4))
        if abs(a * d - b * c) < 1e-2:
            continue
        try:
            base = cross_ratio(*z)
        except DegenerateInputError:
            continue
        img = [(a * v + b) / (c * v + d) for v in z]
        assert abs(cross_ratio(*img) - base) <= 1e-6 * (1 + abs(base))


def test_cross_ratio_degenerate():
    with pytest.raises(DegenerateInputError):
        cross_ratio(1, 1, 2, 3)


# --- Moebius interpolation -----------------------------------------------------


def test_solve_moebius_identity():
    (a, b), (c, d) = solve_moebius((0, 1, 2), (0, 1, 2))
    assert abs(a - d) < 1e-9 and abs(b) < 1e-9 and abs(c) < 1e-9


def test_solve_moebius_translation():
    (a, b), (c, d) = solve_moebius((0, 1, 2), (1, 2, 3))
    assert abs(a - b) < 1e-9 and abs(a - d) < 1e-9 and abs(c) < 1e-9


def test_solve_moebius_interpolates():
    rng = seeded("interp")
    for _ in range(100):
        z = tuple(_rand_complex(rng) for _ in range(3))
        w = tuple(_rand_complex(rng) for _ in range(3))
        if len(set(z)) < 3 or len(set(w)) < 3:
            continue
        (a, b), (c, d) = solve_moebius(z, w)
        for zi, wi in zip(z, w):
            assert abs((a * zi + b) / (c * zi + d) - wi) <= 1e-9 * (1 + abs(wi))


def test_solve_moebius_degenerate():
    with pytest.raises(DegenerateInputError):
        solve_moebius((0, 0, 1), (1, 2, 3))


# --- stabilizer groups -----------------------------------------------------------


def test_gleason_group():
    rep = compute_stabilizer(GLEASON, 2)
    assert rep.verdict is Verdict.FINITE_GROUP
    els = rep.elements
    assert all(e.residual <= 1e-8 for e in els)
    # contains D_4 and S_2
    d4 = d_delta_matrix(4).as_complex()
    s2 = self_dual_matrix(2).as_complex()
    assert find_element(els, d4) is not None
    assert find_element(els, s2) is not None
    # group axioms under numeric matching
    ident = ((1, 0), (0, 1))
    assert find_element(els, ident) is not None
    assert len(els) <= math.factorial(8) * 8 == rep.bound
    sample = els[:: max(1, len(els) // 12)]
    for e1 in sample:
        assert find_element(els, mat_inv(e1.matrix)) is not None
        for e2 in sample:
            assert find_element(els, mat_mul(e1.matrix, e2.matrix)) is not None
    # order equals the brute-force closure of <D_4, S_2>
    oracle = mulclose([d4, s2])
    assert len(els) == len(oracle) == 192


def test_scalar_twist_structure():
    rep = compute_stabilizer(GLEASON, 2)
    n = GLEASON.n
    assert rep.size % n == 0
    zeta = cmath.exp(2j * cmath.pi / n)
    for e in rep.elements[:: max(1, rep.size // 10)]:
        (a, b), (c, d) = e.matrix
        twisted = ((zeta * a, zeta * b), (zeta * c, zeta * d))
        assert find_element(rep.elements, twisted) is not None


def test_match_permutation_ambiguous_image_raises():
    # disks at 0 and 1e-10 overlap, so the identity's image of 0 lands in both
    rs = RootSet(
        roots=tuple(Root(z, 1e-9, 1) for z in (0j, 1e-10 + 0j, 1 + 0j)),
        eps=1e-9,
        N=2.0,
    )
    with pytest.raises(PrecisionFailureError):
        _match_permutation(((1, 0), (0, 1)), rs)


def test_group_check_rejects_non_groups():
    ident, cycle = (0, 1, 2), (1, 2, 0)
    _check_group([ident, cycle, (2, 0, 1)])
    with pytest.raises(PrecisionFailureError):
        _check_group([ident, cycle])  # cycle twice is missing
    with pytest.raises(PrecisionFailureError):
        _check_group([cycle, (2, 0, 1)])  # no identity
    with pytest.raises(PrecisionFailureError):
        _check_group([])


@pytest.mark.parametrize("m, order", [(3, 192), (4, 256), (5, 1024)])
def test_macwilliams_dual_same_order(m, order):
    # the stabilizers of W and of its MacWilliams transform are conjugate
    w = rm2_closed_form(m)
    w_dual = macwilliams(w, 2, 2 ** (m + 1))
    for v in (w, w_dual):
        rep = compute_stabilizer(v, 2)
        assert rep.verdict is Verdict.FINITE_GROUP
        assert rep.size == order


def test_infinite_verdicts():
    for q in (2, 3, 4, 5):
        for w in (
            zero_code_enumerator(6),
            full_space_enumerator(5, q),
            pair_sum_enumerator(8, q),
        ):
            assert compute_stabilizer(w, q).verdict is Verdict.INFINITE


def test_trivial_stabilizer_rm4_2_2():
    w = enumerate_weights(reed_muller(4, 2, 2))
    rep = compute_stabilizer(w, 4)
    assert rep.verdict is Verdict.FINITE_GROUP
    assert rep.size == w.n  # scalar matrices only
    for e in rep.elements:
        (a, b), (c, d) = e.matrix
        assert abs(b) < 1e-9 and abs(c) < 1e-9 and abs(a - d) < 1e-9
        assert abs(a**w.n - 1) < 1e-6


# --- certificates ------------------------------------------------------------------


def test_certify_distinct_exact_case():
    x = (0, 1, 2, 3, 0, 1, 2, 4)
    assert certify_distinct_cross_ratios(x, 1e-15, 4.0)


def test_certify_distinct_v4_permuted_false():
    x = (0, 1, 2, 3, 1, 0, 3, 2)  # second quadruple is a V4 copy
    assert not certify_distinct_cross_ratios(x, 1e-15, 4.0)


def test_certify_distinct_hypotheses():
    x = (0, 1, 2, 3, 0, 1, 2, 4)
    with pytest.raises(HypothesisViolationError):
        certify_distinct_cross_ratios(x, 0.6, 4.0)
    with pytest.raises(HypothesisViolationError):
        certify_distinct_cross_ratios(x, 1e-15, 2.0)


def test_perturbation_bound_random():
    # |a~ - a| <= 60 N^3 eps on random data (generic configurations)
    rng = seeded("bound-60")
    for _ in range(500):
        n_scale = rng.uniform(0.5, 3.0)
        x = [_rand_complex(rng, n_scale) for _ in range(8)]
        big_n = max(abs(v) for v in x)
        eps = rng.uniform(1e-12, 0.4)
        xt = [
            v + eps * cmath.exp(2j * cmath.pi * rng.random()) * rng.random()
            for v in x
        ]
        a = (x[0] - x[2]) * (x[1] - x[3]) * (x[4] - x[7]) * (x[5] - x[6])
        at = (xt[0] - xt[2]) * (xt[1] - xt[3]) * (xt[4] - xt[7]) * (xt[5] - xt[6])
        assert abs(at - a) <= 60 * big_n**3 * eps + 1e-12


def test_certify_trivial_rm4_2_2():
    w = enumerate_weights(reed_muller(4, 2, 2))
    rep = certify_trivial(w, 4)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED
    t1, t2 = rep.certificate
    assert t1.indices[:3] == t2.indices[:3]
    assert t1.indices[3] != t2.indices[3]
    rs = roots_of(w, ROOT_EPS)
    assert rep.eps == rs.eps
    assert min(t1.gap, t2.gap) > 120 * rs.N**3 * rs.eps  # certified gaps
    centers = rs.centers()
    for t in (t1, t2):
        assert t.cross_ratio == cross_ratio(*(centers[i] for i in t.indices))
    assert rep.size == w.n  # the scalar subgroup


def test_certify_trivial_needs_five_roots():
    # two infinite shapes, and rm2_closed_form(2): finite stabilizer, 4 roots
    for w, q in (
        (pair_sum_enumerator(4, 4), 4),
        (zero_code_enumerator(5), 2),
        (rm2_closed_form(2), 2),
    ):
        with pytest.raises(DomainError):
            certify_trivial(w, q)


def test_certify_trivial_gleason_inconclusive(monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args)
        return roots_of(*args)

    monkeypatch.setattr("wenum.stabilizer.roots_of", counted)
    # symmetric root set: coinciding cross ratios, certificate impossible
    rep = certify_trivial(GLEASON, 2)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.offending is not None
    assert rep.eps == roots_of(GLEASON, ROOT_EPS).eps  # the accuracy scanned
    assert len(solves) == 1
    compute_stabilizer(GLEASON, 2)
    assert len(solves) == 2


def test_certify_trivial_rm2_1_4_inconclusive():
    # nontrivial group (order 256), so no certificate exists at d = 16
    w = rm2_closed_form(4)
    rep = certify_trivial(w, 2)
    assert rep.verdict is Verdict.INCONCLUSIVE
    rs = roots_of(w, ROOT_EPS)
    assert rep.eps == rs.eps
    z = rs.centers()
    t, s = rep.offending
    assert s not in {tuple(t[i] for i in sigma) for sigma in V4_PERMS}
    p_t = (z[t[0]] - z[t[2]]) * (z[t[1]] - z[t[3]])
    q_t = (z[t[0]] - z[t[3]]) * (z[t[1]] - z[t[2]])
    p_s = (z[s[0]] - z[s[2]]) * (z[s[1]] - z[s[3]])
    q_s = (z[s[0]] - z[s[3]]) * (z[s[1]] - z[s[2]])
    assert abs(p_t * q_s - q_t * p_s) <= 120 * rs.N**3 * rs.eps


def test_agreement_trivial_vs_group():
    w = enumerate_weights(reed_muller(4, 2, 2))
    cert = certify_trivial(w, 4)
    group = compute_stabilizer(w, 4)
    assert cert.verdict is Verdict.TRIVIAL_CERTIFIED
    assert group.size == w.n


def test_group_action_preserves_cross_ratio():
    rep = compute_stabilizer(GLEASON, 2)
    centers = roots_of(GLEASON, 1e-12).centers()
    z = centers[:4]
    base = cross_ratio(*z)
    for e in rep.elements[:: max(1, rep.size // 8)]:
        (a, b), (c, d) = e.matrix
        img = [(a * v + b) / (c * v + d) for v in z]
        got = cross_ratio(*img)
        assert abs(got - base) <= 1e-6 * (1 + abs(base))


# --- the dual Reed-Muller invariant ------------------------------------------------


def test_rm2_closed_form():
    assert rm2_closed_form(3).coeffs == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    w4 = rm2_closed_form(4)
    assert w4.coeffs[0] == w4.coeffs[16] == 1
    assert w4.coeffs[8] == 2 * 15


def test_rm2_dual_invariant_matrix():
    for m in (3, 4):
        el = rm2_dual_invariant_matrix(m)
        assert el.residual <= 1e-9


def test_rm2_dual_invariant_nonscalar():
    el = rm2_dual_invariant_matrix(3)
    (a, b), (c, d) = el.matrix
    assert abs(b) > 0.1  # genuinely off-diagonal
    for other in (d_delta_matrix(4).as_complex(), self_dual_matrix(2).as_complex()):
        assert matrix_distance(phase_normalize(el.matrix), phase_normalize(other)) > 0.1


def test_rm2_dual_invariant_domain():
    with pytest.raises(DomainError):
        rm2_dual_invariant_matrix(2)


def test_rm2_dual_invariant_in_gleason_group():
    rep = compute_stabilizer(GLEASON, 2)
    el = rm2_dual_invariant_matrix(3)
    assert find_element(rep.elements, el.matrix) is not None
