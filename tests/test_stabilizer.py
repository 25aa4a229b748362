"""Cross ratios, Moebius interpolation, stabilizer groups, certificates."""

import cmath
import dataclasses
import functools
import json
import math
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from conftest import d_delta_matrix, random_code, seeded, self_dual_matrix
from wenum.algebra import (
    classify,
    divisibility,
    is_formally_self_dual,
    macwilliams,
    substitute_linear,
)
from wenum.catalog import catalog, rm2_closed_form
from wenum.codes import (
    LinearCode,
    WeightEnumerator,
    enumerate_weights,
    full_space_enumerator,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from wenum.errors import DegenerateInputError, DomainError, PrecisionFailureError
from wenum.fields import GF
from wenum.invariants import fixed_points
from wenum.reedmuller import projective_reed_muller, reed_muller
from wenum.roots import Root, RootSet, roots_of, square_free
from wenum.stabilizer import (
    VERIFY_TOL,
    StabilizerElement,
    Verdict,
    _closure,
    _fixing,
    _opening_pair,
    _screen,
    _substitute_columns,
    certify_trivial,
    compute_stabilizer,
    cross_ratio,
    solve_moebius,
)

GLEASON = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))
V4_PERMS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _rand_complex(rng, scale=2.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


DEDUP_TOL = 1e-6  # entrywise distance identifying two numeric matrices


def phase_normalize(matrix):
    """Divide out the phase of the largest-modulus entry (first on ties)."""
    flat = [matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1]]
    mags = [abs(v) for v in flat]
    pivot = flat[mags.index(max(mags))]
    ph = pivot / abs(pivot)
    a, b, c, d = (v / ph for v in flat)
    return ((a, b), (c, d))


def matrix_distance(m1, m2) -> float:
    return max(abs(m1[i][j] - m2[i][j]) for i in range(2) for j in range(2))


def find_element(elements, matrix, tol=DEDUP_TOL):
    """Index of a listed element entrywise-close to `matrix`, or None."""
    for i, el in enumerate(elements):
        if matrix_distance(el.matrix, matrix) <= tol:
            return i
    return None


class HypothesisViolationError(DomainError):
    """Input violates the hypotheses of a certified error bound."""


def certify_distinct_cross_ratios(x, eps: float, N: float) -> bool:
    """Certify [x1..x4] != [x5..x8] from approximations.

    True when |a~ - b~| > 120 N^3 eps for the cross-multiplied products,
    which guarantees the true cross ratios differ.  One-directional: False
    means "could not certify", never "equal".
    """
    if eps >= 0.5:
        raise HypothesisViolationError("error bound needs eps < 1/2")
    if len(x) != 8:
        raise DomainError("need exactly 8 points")
    if any(abs(v) > N for v in x):
        raise HypothesisViolationError("all approximations must have |x| <= N")
    a = (x[0] - x[2]) * (x[1] - x[3]) * (x[4] - x[7]) * (x[5] - x[6])
    b = (x[0] - x[3]) * (x[1] - x[2]) * (x[4] - x[6]) * (x[5] - x[7])
    return abs(a - b) > 120 * N**3 * eps


def rm2_dual_invariant_matrix(m: int) -> StabilizerElement:
    """The non-scalar invariant [[u, u-1], [u-1, u]] of the dual of the
    first-order code of length 2^m, with u = (zeta + 1)/2 for a 2^m-th
    root of unity zeta, verified numerically.

    The substitution maps x+y to zeta(x+y) and x-y to itself, and the dual
    enumerator is a polynomial in (x+y)^(2^(m-1)) and (x-y), so invariance
    holds exactly when zeta^(2^(m-1)) = 1; zeta is therefore taken of
    order 2^(m-1), the largest that works.  The dual enumerator comes
    exactly from the MacWilliams transform of the closed form; residual is
    the relative coefficient defect of the substitution.
    """
    if m < 3:
        raise DomainError("invariant matrix needs m >= 3")
    w_dual = macwilliams(rm2_closed_form(m), 2, 2 ** (m + 1))
    u = (cmath.exp(2j * cmath.pi / 2 ** (m - 1)) + 1) / 2
    got = substitute_linear(w_dual.coeffs, u, u - 1, u - 1, u)
    residual = max(abs(g - v) for g, v in zip(got, w_dual.coeffs)) / max(
        w_dual.coeffs
    )
    if residual > 1e-9:
        raise PrecisionFailureError(
            f"invariant matrix residual {residual:.3e} above 1e-9"
        )
    return StabilizerElement(matrix=((u, u - 1), (u - 1, u)), residual=residual)


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
    matrix within entrywise distance tol of m.  Cell k spans
    [(k - 1/2)h, (k + 1/2)h), so exact entries such as 0 and 1 sit at a
    centre and only a coordinate within tol of an edge adds a neighbour."""
    options = []
    for v in (complex(x) for row in m for x in row):
        for x in (v.real, v.imag):
            k = round(x / h)
            near = [k]
            if x - (k - 0.5) * h <= tol:
                near.append(k - 1)
            if (k + 0.5) * h - x <= tol:
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
    d4 = d_delta_matrix(4)
    s2 = self_dual_matrix(2)
    assert find_element(els, d4) is not None
    assert find_element(els, s2) is not None
    # group axioms under numeric matching
    ident = ((1, 0), (0, 1))
    assert find_element(els, ident) is not None
    assert len(els) <= 8 * max(2 * 8, 60) == rep.classification.stabilizer_bound
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
    els = rep.elements
    for e in els[:: max(1, rep.size // 10)]:
        (a, b), (c, d) = e.matrix
        twisted = ((zeta * a, zeta * b), (zeta * c, zeta * d))
        assert find_element(els, twisted) is not None


@pytest.mark.parametrize("make, verdict, stored", [
    pytest.param(lambda: compute_stabilizer(pair_sum_enumerator(8, 3), 3),
                 Verdict.INFINITE, 0, id="infinite"),
    pytest.param(lambda: compute_stabilizer(GLEASON, 2),
                 Verdict.FINITE_GROUP, 24, id="finite-gleason"),
    pytest.param(lambda: certify_trivial(enumerate_weights(reed_muller(4, 2, 2)), 4),
                 Verdict.TRIVIAL_CERTIFIED, 1, id="trivial-rm4_2_2"),
    pytest.param(lambda: certify_trivial(GLEASON, 2),
                 Verdict.INCONCLUSIVE, 0, id="witness-gleason"),
])
def test_report_stores_one_matrix_per_permutation(make, verdict, stored):
    rep = make()
    assert rep.verdict is verdict
    fields = {f.name for f in dataclasses.fields(rep)}
    assert not fields & {"degree", "bound", "elements"}
    n = rep.classification.n
    assert len(rep.projective) == stored
    assert rep.size == n * len(rep.projective)
    if verdict is Verdict.TRIVIAL_CERTIFIED:
        assert rep.projective[0].matrix == ((1, 0), (0, 1))
    # elements: the n twists of each projective element, permutation-major
    els = rep.elements
    assert len(els) == rep.size
    for i, e in enumerate(rep.projective):
        assert els[i * n] == e
        scale = max(abs(v) for row in e.matrix for v in row)
        for k in range(n):
            got = els[i * n + k]
            twist = cmath.rect(1, 2 * math.pi * k / n)
            want = tuple(tuple(twist * v for v in row) for row in e.matrix)
            assert got.residual == e.residual
            assert matrix_distance(got.matrix, want) <= 1e-12 * scale


@pytest.mark.parametrize(
    "coeffs, order",
    [
        ((1, 0, 0, 1), 18),  # x^3 + y^3, the binary [3, 1] repetition code
        ((0, 0, 3, 0, 1), 8),  # x^4 + 3x^2y^2: a double root at 0
    ],
)
def test_three_roots(coeffs, order):
    w = WeightEnumerator(coeffs)
    assert len(roots_of(w)) == 3
    rep = compute_stabilizer(w, 2)
    assert rep.verdict is Verdict.FINITE_GROUP
    assert rep.size == order
    assert all(e.residual <= 1e-8 for e in rep.elements)


def test_screen_ambiguous_image_raises():
    # disks at 0 and 1e-10 overlap, so under the identity triple root 3
    # matches both
    rs = RootSet(
        roots=tuple(Root(z, 1e-9, 1) for z in (1 + 0j, 2 + 0j, 3 + 0j, 0j, 1e-10 + 0j)),
        eps=1e-9,
        N=4.0,
    )
    with pytest.raises(PrecisionFailureError):
        _screen(rs)
    # with eps >= 1/2 the certified gap decides nothing
    with pytest.raises(PrecisionFailureError):
        _screen(dataclasses.replace(rs, eps=0.5))


def test_screen_ambiguous_past_root_4_raises():
    # under the image triple (1, 0, 5) roots 3 and 4 each match one root,
    # so the triple passes roots 3 and 4, and root 5 matches two: the
    # full rows that follow must still see it
    z = (-1.6 + 1.8j, -0.9 + 1.6j, 2.9 - 2.8j, -2.4 + 2.5j, 2.4 + 1j, -2.4 + 2.8j)
    eps = 1e-3
    N = max(map(abs, z)) + eps
    threshold = 120 * N**3 * eps

    def parts(a, b, c, x):
        return (z[a] - z[c]) * (z[b] - z[x]), (z[a] - z[x]) * (z[b] - z[c])

    def matched(k):
        pk, qk = parts(0, 1, 2, k)
        return [x for x in (2, 3, 4)
                if abs(pk * parts(1, 0, 5, x)[1] - qk * parts(1, 0, 5, x)[0]) <= threshold]

    assert [matched(k) for k in (3, 4, 5)] == [[4], [3], [2, 4]]
    rs = RootSet(roots=tuple(Root(v, eps, 1) for v in z), eps=eps, N=N)
    with pytest.raises(PrecisionFailureError, match="matches 2 roots"):
        _screen(rs)


def reference_screen(rootset):
    """{root permutation: Moebius matrix} by brute force: every ordered
    image triple from itertools, the map from the null space of its 3 x 4
    linear system (one stacked SVD per block of triples), each image
    matched to the nearest center."""
    z = np.array(rootset.centers())
    mult = np.array([r.multiplicity for r in rootset.roots])
    d = len(z)
    triples = list(permutations(range(d), 3))
    found = {}
    for start in range(0, len(triples), 1024):
        w = z[np.array(triples[start : start + 1024])]
        ref = np.broadcast_to(z[:3], w.shape)
        # a z + b - c z w - d w = 0 at the three reference roots
        system = np.stack([ref, np.ones_like(w), -ref * w, -w], axis=2)
        a, b, c, e = np.linalg.svd(system)[2][:, -1].conj().T[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            images = (a * z + b) / (c * z + e)
        dist = np.abs(images[:, :, None] - z)
        perm = np.argmin(dist, axis=2)
        near = np.take_along_axis(dist, perm[:, :, None], axis=2)[:, :, 0]
        ok = (
            (near <= 1e-6 * (1 + np.abs(z[perm]))).all(axis=1)
            & (np.sort(perm, axis=1) == np.arange(d)).all(axis=1)
            & (mult[perm] == mult).all(axis=1)
        )
        for i in np.flatnonzero(ok):
            found[tuple(int(m) for m in perm[i])] = np.array(
                [a[i, 0], b[i, 0], c[i, 0], e[i, 0]]
            )
    return found


def broadcast_screen(rootset):
    """The permutation screen as it was before the screen solved for each
    image root: every image triple that keeps multiplicities against
    every fourth root at once, with the same gap and threshold."""
    if rootset.eps >= 0.5:
        raise PrecisionFailureError("the cross-ratio test needs eps < 1/2")
    centers = rootset.centers()
    d = len(centers)
    z = np.array(centers)
    mult = np.array([r.multiplicity for r in rootset.roots])
    threshold = 120 * rootset.N**3 * rootset.eps
    triples = np.array(list(permutations(range(d), 3)), dtype=int).reshape(-1, 3)
    triples = triples[(mult[triples] == mult[:3]).all(axis=1)]
    x = np.arange(d)

    def cross_parts(a, b, c, x):
        return (z[a] - z[c]) * (z[b] - z[x]), (z[a] - z[x]) * (z[b] - z[c])

    ref_p, ref_q = cross_parts(0, 1, 2, x[3:])
    perms = []
    for start in range(0, len(triples), 256):
        block = triples[start : start + 256]
        p, q = cross_parts(*block.T[:, :, None], x)
        outside = (x != block[:, :, None]).all(axis=1)

        def hits(rows, ks):
            gap = ref_p[ks, None] * q[rows, None] - ref_q[ks, None] * p[rows, None]
            return (np.abs(gap) <= threshold) & outside[rows, None]

        cand = np.flatnonzero(hits(slice(None), slice(1)).any(axis=2).all(axis=1))
        found = hits(cand, slice(None))
        counts = found.sum(axis=2)
        full = (counts > 0).all(axis=1)
        if (counts[full] > 1).any():
            raise PrecisionFailureError(
                f"a root matches {counts[full].max()} roots under one triple"
            )
        for perm in np.hstack((block[cand[full]], found[full].argmax(axis=2))):
            if (mult[perm] == mult).all() and len(set(perm)) == d:
                perms.append(tuple(int(i) for i in perm))
    ref = tuple(centers[:3])
    return {p: solve_moebius(ref, tuple(centers[i] for i in p[:3])) for p in perms}


def screen_or_error(screen, rootset):
    """screen(rootset), or PrecisionFailureError when it raises that."""
    try:
        return screen(rootset)
    except PrecisionFailureError:
        return PrecisionFailureError


def test_screen_keeps_multiplicities():
    # a regular pentagon's Moebius stabilizer is D5; a double root at
    # index 4 leaves the identity and the reflection through that root
    z = [cmath.exp(2j * cmath.pi * j / 5) for j in range(5)]
    rs = RootSet(
        roots=tuple(Root(v, 1e-15, m) for v, m in zip(z, (1, 1, 1, 1, 2))),
        eps=1e-15,
        N=1 + 1e-15,
    )
    want = [(0, 1, 2, 3, 4), (3, 2, 1, 0, 4)]
    assert list(_screen(rs)) == list(reference_screen(rs)) == want
    simple = tuple(dataclasses.replace(r, multiplicity=1) for r in rs.roots)
    assert len(_screen(dataclasses.replace(rs, roots=simple))) == 10  # all of D5


@pytest.mark.parametrize("double", range(5))
def test_screen_keeps_multiplicities_at_every_index(double):
    # the root-3 pass searches one representative (a, b, c, x) per V4
    # orbit, a least, and expands it to (b, a, x), (c, x, a) and (x, c, b),
    # which put the double root in other places: the multiplicity mask
    # acts on those images, and D5 keeps the identity and the reflection
    # through the double root wherever it is
    z = [cmath.exp(2j * cmath.pi * j / 5) for j in range(5)]
    mult = [2 if j == double else 1 for j in range(5)]
    rs = RootSet(
        roots=tuple(Root(v, 1e-15, m) for v, m in zip(z, mult)),
        eps=1e-15,
        N=1 + 1e-15,
    )
    got = _screen(rs)
    assert len(got) == 2
    assert list(got.items()) == list(broadcast_screen(rs).items())


@pytest.mark.parametrize("dual", [False, True], ids=["prm3_1_3", "prm3_1_3_dual"])
def test_screen_v4_images_keep_the_repeated_root(dual):
    # PRM_3(1,3)'s root of multiplicity 13 among 27 simple ones: every
    # representative holding it maps it to each position by one of its
    # images, and only the images that fix it may pass
    code = projective_reed_muller(3, 1, 3)
    w = enumerate_weights(code)
    if dual:
        w = macwilliams(w, 3, 3**code.k)
    rs = roots_of(w)
    assert sorted(r.multiplicity for r in rs.roots)[-2:] == [1, 13]
    got = _screen(rs)
    assert len(got) == 27
    assert list(got.items()) == list(broadcast_screen(rs).items())


def _screen_enumerators():
    """(name, W): catalog enumerators, the two of test_three_roots, and
    seeded random codes with a finite stabilizer and their MacWilliams
    duals."""
    out = [
        ("gleason", GLEASON),
        ("rm2_1_3", rm2_closed_form(3)),
        ("rm2_1_4", rm2_closed_form(4)),
        ("rm4_2_2", enumerate_weights(reed_muller(4, 2, 2))),
        ("rm5_2_2", enumerate_weights(reed_muller(5, 2, 2))),
        ("rm2_1_5", rm2_closed_form(5)),  # d = 32: more than one block
        ("x3_y3", WeightEnumerator((1, 0, 0, 1))),
        ("x4_3x2y2", WeightEnumerator((0, 0, 3, 0, 1))),
    ]
    for slot, (q, n, k) in enumerate([(2, 12, 5), (3, 10, 4), (4, 9, 3), (5, 8, 3)]):
        rng = seeded(f"screen:{slot}")
        while True:
            code = random_code(rng, q, n, k)
            w = enumerate_weights(code)
            if not classify(w, q).infinite_stabilizer:
                break
        name = f"rand_q{q}_{n}_{k}"
        out += [(name, w), (name + "_dual", macwilliams(w, q, q**k))]
    return [pytest.param(w, id=name) for name, w in out]


@pytest.mark.parametrize("w", _screen_enumerators())
def test_screen_matches_reference(w):
    rootset = roots_of(w)
    got = _screen(rootset)
    expected = reference_screen(rootset)
    assert list(got) == list(expected)  # the same permutations, in order
    for perm, mat in got.items():
        ours = np.array(mat).ravel()
        pivot = np.argmax(np.abs(ours))
        theirs = expected[perm]
        assert np.allclose(ours / ours[pivot], theirs / theirs[pivot], atol=1e-8)


def test_screen_block_size(monkeypatch):
    # one first index a block, as at d >= 46, and the whole grid at once;
    # PRM_3(1,3)'s root of multiplicity 13 exercises the multiplicity mask
    for w in (
        rm2_closed_form(5),
        macwilliams(rm2_closed_form(5), 2, 2**6),
        enumerate_weights(projective_reed_muller(3, 1, 3)),
    ):
        rootset = roots_of(w)
        default = list(_screen(rootset).items())
        for cells in (1, 2**30):
            monkeypatch.setattr("wenum.stabilizer._CELLS", cells)
            assert list(_screen(rootset).items()) == default
            monkeypatch.undo()


def test_screen_memory_rm2_1_6_dual():
    # d = 64: one first index a grid bounds the screen's arrays, where one
    # grid of all 64^3 cells peaks at about 15 MiB
    w_dual = macwilliams(rm2_closed_form(6), 2, 2**7)
    rootset = roots_of(w_dual)
    assert len(rootset.roots) == 64
    tracemalloc.start()
    try:
        found = _screen(rootset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 64
    assert peak <= 8 * 2**20


def test_screen_on_unsorted_roots():
    # the screen bisects on real parts it sorts itself, not on the order
    # of the RootSet, which callers may build in any order
    rootset = roots_of(rm2_closed_form(4))
    order = np.random.default_rng(7).permutation(len(rootset))
    shuffled = dataclasses.replace(
        rootset, roots=tuple(rootset.roots[i] for i in order)
    )
    got = _screen(shuffled)
    assert len(got) == 16  # order 256 over n = 16 scalar twists
    assert list(got.items()) == list(broadcast_screen(shuffled).items())


def test_screen_at_a_pole():
    # z -> 1/(z - 3) sends the reference roots 0, 1, 2 to -1/3, -1/2, -1
    # and root 3 to infinity: for the image triple (4, 5, 6) the gap does
    # not depend on the fourth root (beta = 0), so the row gets every root
    z = (0, 1, 2, 3, -1 / 3, -1 / 2, -1)
    rs = RootSet(
        roots=tuple(Root(complex(v), 1e-15, 1) for v in z), eps=1e-15, N=3.1
    )
    got = _screen(rs)
    assert (0, 1, 2, 3, 4, 5, 6) in got
    assert list(got.items()) == list(broadcast_screen(rs).items())


def test_screen_image_at_infinity():
    # z -> 2 / (z + 1) sends the reference roots -3, -2, 1 to -1, -2, 1 and
    # root 3, at -1, to infinity: for the image triple (3, 1, 2) beta is 0
    # and the gap is the constant alpha = -12, within the threshold of
    # these wide disks (13.0), so root 3 matches root 0.  -alpha / beta is
    # +inf, whose window holds no root, so the row must get every root.
    z = (-3, -2, 1, -1)
    eps = 0.004
    rs = RootSet(
        roots=tuple(Root(complex(v), eps, 1) for v in z), eps=eps, N=3 + eps
    )
    got = _screen(rs)
    assert (3, 1, 2, 0) in got
    assert list(got.items()) == list(broadcast_screen(rs).items())


def test_screen_on_jittered_polygons():
    # wide disks make many cross ratios ambiguous: both screens return the
    # same dict or both raise
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 9))
        jitter = rng.normal(scale=1e-3, size=(d, 2)) @ [1, 1j]
        z = np.exp(2j * np.pi * np.arange(d) / d) + jitter
        eps = float(10.0 ** rng.uniform(-6, -1.5))
        rs = RootSet(
            roots=tuple(Root(complex(v), eps, 1) for v in z),
            eps=eps,
            N=float(np.abs(z).max()) + eps,
        )
        got = screen_or_error(_screen, rs)
        want = screen_or_error(broadcast_screen, rs)
        if got is PrecisionFailureError or want is PrecisionFailureError:
            assert got is want
            outcomes.add("raised")
        else:
            assert list(got.items()) == list(want.items())
            outcomes.add("nontrivial" if len(got) > 1 else "identity")
    assert outcomes == {"raised", "nontrivial", "identity"}


def test_closure():
    assert _closure([(1, 2, 0)], 3) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    # a 4-cycle and a reflection of the square generate D_4
    group = _closure([(1, 2, 3, 0), (0, 3, 2, 1)], 4)
    assert len(group) == 8
    assert all(tuple(p[i] for i in r) in group for p in group for r in group)
    assert _closure([], 5) == {(0, 1, 2, 3, 4)}


def _closure_oracle(gens, d):
    """The fixed point of adding every product of two members, from the
    identity and the generators; p[r] composes each pair at once, and
    each permutation is keyed by its digits in base d."""
    group = np.unique(np.array([tuple(range(d)), *gens]).reshape(-1, d), axis=0)
    digits = d ** np.arange(d)
    while True:
        rows = np.vstack([group, group[:, group].reshape(-1, d)])
        _, first = np.unique(rows @ digits, return_index=True)
        if len(first) == len(group):
            return {tuple(int(i) for i in p) for p in group}
        group = rows[first]


def test_closure_matches_product_fixed_point():
    rng = seeded("closure")
    perms = list(permutations(range(6)))
    identity = tuple(range(6))
    for _ in range(16):
        gens = [perms[i] for i in rng.sample(range(len(perms)), rng.randint(0, 3))]
        group = _closure_oracle(gens, 6)
        assert _closure(gens, 6) == group
        # generators already in the group, repeated and mixed in
        extra = rng.sample(sorted(group), min(2, len(group)))
        assert _closure([identity, *gens, *extra, *gens], 6) == group
        if len(group) > 2:
            limit = rng.randrange(1, len(group))
            early = _closure(gens, 6, limit=limit)
            assert limit < len(early) <= len(group) and early <= group
        assert _closure(gens, 6, limit=len(group)) == group
    # a transposition and a 6-cycle generate S_6; the search ends soon
    # after passing the limit
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    assert len(_closure(gens, 6)) == 720
    assert 10 < len(_closure(gens, 6, limit=10)) < 100
    for w in (GLEASON, rm2_closed_form(5)):
        rs = roots_of(w)
        screened = _screen(rs)
        verified = [p for p, f in zip(screened, _fixing(w, list(screened.values())))
                    if f.residual <= VERIFY_TOL]
        group = _closure(verified, len(rs))
        assert group == _closure_oracle(verified, len(rs))
        assert len(group) == len(verified) == len(screened)


def test_one_substitution_per_screened_permutation(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _substitute_columns(*args)

    monkeypatch.setattr("wenum.stabilizer._substitute_columns", counted)
    rep = compute_stabilizer(GLEASON, 2)
    assert rep.size == 192
    # one call carrying the 23 non-identity permutations, none per twist;
    # the identity's element is exact
    assert len(calls) == 1
    assert all(len(entry) == 23 for entry in calls[0][1:])
    assert rep.projective[0] == StabilizerElement(((1, 0), (0, 1)), 0.0)


def test_closure_accepts_unverified_element(monkeypatch):
    # a defect forced on the first column of the batch (the first
    # non-identity screened permutation) fails verification; closure under
    # the others restores it.  It sits where W's coefficient is 0, so the
    # scalar read off W's largest coefficient does not change.
    calls = []

    def defective(coeffs, a, b, c, d):
        calls.append(((a[0], b[0]), (c[0], d[0])))
        got = _substitute_columns(coeffs, a, b, c, d)
        got[coeffs.index(0)][0] += got[coeffs.index(max(coeffs))][0] / 2
        return got

    monkeypatch.setattr("wenum.stabilizer._substitute_columns", defective)
    rep = compute_stabilizer(GLEASON, 2)
    assert rep.size == 192
    forced = [e for e in rep.elements if abs(e.residual - 0.5) <= 1e-9]
    assert len(forced) == GLEASON.n
    assert all(e.residual <= 1e-8 for e in rep.elements if e not in forced)
    assert len(calls) == 1
    mat = calls[0]
    (a, b), (c, d) = mat
    assert abs(b) > 1e-6 or abs(c) > 1e-6 or abs(a - d) > 1e-6  # non-identity
    # the forced elements are zeta^k mu M, and mu M fixes W
    zeta = cmath.exp(2j * cmath.pi / GLEASON.n)
    i, j = max(product(range(2), repeat=2), key=lambda ij: abs(mat[ij[0]][ij[1]]))
    mu = forced[0].matrix[i][j] / mat[i][j]
    got = substitute_linear(GLEASON.coeffs, mu * a, mu * b, mu * c, mu * d)
    assert max(abs(g - v) for g, v in zip(got, GLEASON.coeffs)) <= 1e-8 * 14
    for k, e in enumerate(forced):
        scaled = tuple(tuple(zeta**k * mu * v for v in row) for row in mat)
        assert matrix_distance(e.matrix, scaled) <= 1e-12


def test_unverified_permutations_left_ungenerated_raise(monkeypatch):
    # the defect above forced on every column of the batch: every
    # non-identity screened permutation fails verification, and the
    # identity alone generates none of them, so no group is reported
    def defective(coeffs, a, b, c, d):
        got = _substitute_columns(coeffs, a, b, c, d)
        got[coeffs.index(0)] += got[coeffs.index(max(coeffs))] / 2
        return got

    monkeypatch.setattr("wenum.stabilizer._substitute_columns", defective)
    with pytest.raises(PrecisionFailureError, match="1 verified of 24 screened"):
        compute_stabilizer(GLEASON, 2)


def test_unscreened_closure_element_raises(monkeypatch):
    # the screen misses one non-identity permutation; the others generate it
    dropped = []

    def screen(rootset):
        found = _screen(rootset)
        dropped.append(list(found)[1])  # the first is the identity
        del found[dropped[0]]
        return found

    monkeypatch.setattr("wenum.stabilizer._screen", screen)
    with pytest.raises(PrecisionFailureError):
        compute_stabilizer(GLEASON, 2)
    assert dropped[0] != tuple(range(8))


def test_order_above_klein_bound_raises(monkeypatch):
    def tight(w, q):
        return dataclasses.replace(classify(w, q), stabilizer_bound=191)

    monkeypatch.setattr("wenum.stabilizer.classify", tight)
    with pytest.raises(PrecisionFailureError):
        compute_stabilizer(GLEASON, 2)  # order 192


@functools.cache
def _stabilizer(w, q):
    """compute_stabilizer once per enumerator for this module: the 4096-element
    group of the rm2_1_6 dual is checked by two tests."""
    return compute_stabilizer(w, q)


@pytest.mark.parametrize("m, order", [(3, 192), (4, 256), (5, 1024), (6, 4096)])
def test_macwilliams_dual_same_order(m, order):
    # the stabilizers of W and of its MacWilliams transform are conjugate
    w = rm2_closed_form(m)
    w_dual = macwilliams(w, 2, 2 ** (m + 1))
    for v in (w, w_dual):
        rep = _stabilizer(v, 2)
        assert rep.verdict is Verdict.FINITE_GROUP
        assert rep.size == order


@pytest.mark.parametrize("dual", [False, True], ids=["prm3_1_3", "prm3_1_3_dual"])
def test_repeated_root_prm3_1_3(dual):
    # PRM_3(1,3), n = 40, and its MacWilliams dual: 27 simple roots and one
    # root of multiplicity 13, which every element must fix
    code = projective_reed_muller(3, 1, 3)
    w = enumerate_weights(code)
    if dual:
        w = macwilliams(w, 3, 3**code.k)
    assert [(len(f) - 1, i) for f, i in square_free(w)] == [(27, 1), (1, 13)]
    rep = compute_stabilizer(w, 3)
    assert rep.verdict is Verdict.FINITE_GROUP
    assert rep.size == 1080
    assert len(rep.projective) == 27


@pytest.mark.parametrize(
    "r",
    [
        2,
        pytest.param(
            3,
            marks=pytest.mark.xfail(
                strict=True,
                raises=PrecisionFailureError,
                reason="ROADMAP item 1: four of the 8 screened permutations "
                "miss VERIFY_TOL, and the other four do not generate them",
            ),
        ),
    ],
    ids=["rm2_2_6", "rm2_3_6"],
)
def test_rm2_second_order_6_order_512(r):
    # RM_2(2,6) and its dual RM_2(3,6) have conjugate stabilizers, of
    # projective order 8 and 64 scalar twists each
    rep = compute_stabilizer(enumerate_weights(reed_muller(2, r, 6)), 2)
    assert rep.verdict is Verdict.FINITE_GROUP
    assert rep.size == 512


def _invariant_enumerators():
    """(W, q, |C|): gleason (its own MacWilliams transform) and the
    first-order binary Reed-Muller codes with m = 3, 4, 5 and their duals."""
    out = [pytest.param(GLEASON, 2, 16, id="gleason")]
    for m in (3, 4, 5):
        w, size = rm2_closed_form(m), 2 ** (m + 1)
        out.append(pytest.param(w, 2, size, id=f"rm2_1_{m}"))
        dual, dual_size = macwilliams(w, 2, size), 2**w.n // size
        out.append(pytest.param(dual, 2, dual_size, id=f"rm2_1_{m}_dual"))
    return out


def test_rm2_1_6_dual_stores_64_matrices():
    w_dual = macwilliams(rm2_closed_form(6), 2, 2**7)
    rep = _stabilizer(w_dual, 2)
    assert len(rep.projective) == 64
    assert rep.size == 4096


@pytest.mark.parametrize("w, q, size", _invariant_enumerators())
def test_paper_invariants_in_group(w, q, size):
    # D_Delta fixes W when every weight is divisible by Delta > 1, and
    # S_q fixes a formally self-dual W
    els = compute_stabilizer(w, q).elements
    delta = divisibility(w)
    if delta > 1:
        assert find_element(els, d_delta_matrix(delta)) is not None
    if is_formally_self_dual(w, q, size):
        assert find_element(els, self_dual_matrix(q)) is not None


@pytest.mark.parametrize("name", ["rm4_2_2", "rm4_3_2", "rm5_2_2", "prm5_3_2"])
def test_certified_trivial_targets_lack_invariants(name):
    # either invariant would be a nonscalar element of a trivial stabilizer
    ref = json.loads(REFERENCE.read_text())[name]
    w = WeightEnumerator(ref["coeffs"])
    assert divisibility(w) == 1
    assert not is_formally_self_dual(w, ref["q"], ref["q"] ** ref["k"])


def test_infinite_verdicts():
    for q in (2, 3, 4, 5):
        for w in (
            zero_code_enumerator(6),
            full_space_enumerator(5, q),
            pair_sum_enumerator(8, q),
        ):
            assert compute_stabilizer(w, q).verdict is Verdict.INFINITE


def test_coordinate_subspace_is_infinite():
    # GF(5) + 0 has W = x (x + 4y): two distinct roots, a zero coordinate
    w = enumerate_weights(LinearCode(GF(5), [[1, 0]]))
    assert w.coeffs == (0, 4, 1)
    assert compute_stabilizer(w, 5).verdict is Verdict.INFINITE
    with pytest.raises(DomainError, match=">= 5 distinct roots"):
        certify_trivial(w, 5)


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
    rs = roots_of(w)
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
    assert rep.witness is not None and rep.fixed_points is None
    rs = roots_of(GLEASON)
    assert rep.eps == rs.eps  # the accuracy screened
    assert len(solves) == 1
    assert _opening_pair(rs) is None and fixed_points(GLEASON.coeffs) is None
    compute_stabilizer(GLEASON, 2)
    assert len(solves) == 2


def test_certify_trivial_rm2_1_4_inconclusive():
    # nontrivial group (order 256), so no certificate exists at d = 16
    w = rm2_closed_form(4)
    rep = certify_trivial(w, 2)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.witness is not None and rep.fixed_points is None
    rs = roots_of(w)
    assert rep.eps == rs.eps
    assert _opening_pair(rs) is None and fixed_points(w.coeffs) is None
    # (0, 1, 2, 3) meets the representative (4, 10, 6, 8) of another orbit
    z = rs.centers()
    t, s = (0, 1, 2, 3), (4, 10, 6, 8)
    assert s not in {tuple(t[i] for i in sigma) for sigma in V4_PERMS}
    p_t = (z[t[0]] - z[t[2]]) * (z[t[1]] - z[t[3]])
    q_t = (z[t[0]] - z[t[3]]) * (z[t[1]] - z[t[2]])
    p_s = (z[s[0]] - z[s[2]]) * (z[s[1]] - z[s[3]])
    q_s = (z[s[0]] - z[s[3]]) * (z[s[1]] - z[s[2]])
    assert abs(p_t * q_s - q_t * p_s) <= 120 * rs.N**3 * rs.eps


def test_certify_trivial_when_the_screen_fails(monkeypatch):
    # the fixed points decide alone when the screen raises
    # PrecisionFailureError
    prm = enumerate_weights(projective_reed_muller(5, 3, 2))
    rm = rm2_closed_form(4)
    want = certify_trivial(prm, 5)
    calls = []

    def failing(rootset):
        calls.append(len(rootset))
        raise PrecisionFailureError("screen cannot tell images apart")

    monkeypatch.setattr("wenum.stabilizer._screen", failing)
    rep = certify_trivial(prm, 5)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED
    assert rep.certificate == want.certificate and rep.eps == want.eps
    # rm2_1_4: no screen witness, and no fixed points prove a group of
    # order 256 trivial
    rep = certify_trivial(rm, 2)
    rs = roots_of(rm)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.witness is None and rep.size == 0 and rep.eps == rs.eps
    assert rep.certificate is None and rep.fixed_points is None
    # prm5_3_2's opening rows certify before the screen would run
    assert calls == [16]


def test_fixing_rejects_zero_and_infinite_scales():
    identity, zero, infinite = _fixing(
        GLEASON, [((1, 0), (0, 1)), ((0, 0), (0, 0)), ((math.inf, 0), (0, 1))]
    )
    assert identity is not None and identity.residual == 0
    assert zero is None  # lambda = 0
    assert infinite is None
    assert _fixing(GLEASON, []) == []


def _scalar_fixing(w, mat, got):
    """mu M and its residual from the substitution `got` of M, in Python
    complex arithmetic."""
    top = max(w.coeffs)
    lam = got[w.coeffs.index(top)] / top
    mu = cmath.exp(-cmath.log(lam) / w.n)
    residual = max(abs(g / lam - v) for g, v in zip(got, w.coeffs)) / top
    return tuple(tuple(mu * v for v in row) for row in mat), residual


def test_fixing_with_coefficients_above_int64():
    # RM_2(1,7)^perp: n = 128, coefficients up to 1.9e35.  The batch holds
    # Python ints above 2^63 against complex arrays, which NumPy 2 promotes
    # as weak scalars.
    w = macwilliams(rm2_closed_form(7), 2, 2**8)
    assert max(w.coeffs) > 2**63
    r = 2**-0.5
    mats = [
        ((1 + 0j, 0j), (0j, -1 + 0j)),  # every weight is even: fixes W
        ((r + 0j, r + 0j), (r + 0j, -r + 0j)),
        ((0.9 + 0.2j, -0.1j), (0.05 + 0j, 1.1 - 0.3j)),
        ((cmath.exp(0.3j), 0j), (0.2 + 0j, cmath.exp(-0.1j))),
    ]
    a, b, c, d = np.array([[v for row in m for v in row] for m in mats]).T
    batch = substitute_linear(w.coeffs, a, b, c, d)
    elements = _fixing(w, mats)
    for j, mat in enumerate(mats):
        # each column against one scalar substitution, relative to the
        # same Horner expansion taken in absolute values (Higham, ch. 5):
        # the two differ only in the rounding of complex products
        want = substitute_linear(w.coeffs, *(v for row in mat for v in row))
        size = max(substitute_linear(w.coeffs, *(abs(v) for row in mat for v in row)))
        column = [complex(col[j]) for col in batch]
        assert max(abs(g - v) for g, v in zip(column, want)) <= 1e-15 * size
        want_mat, want_res = _scalar_fixing(w, mat, column)
        assert matrix_distance(elements[j].matrix, want_mat) <= 1e-15
        assert abs(elements[j].residual - want_res) <= 1e-15 * max(1.0, want_res)
    assert elements[0].residual == 0


@pytest.mark.parametrize("name", ["gleason", "rm2_1_5", "rm2_1_7_dual"])
def test_substitute_columns_equals_substitute_linear_bitwise(name):
    # the batch Horner against the exact path run on the same complex
    # arrays, compared as raw bits, so signed zeros count too.  The
    # matrices are the screen's (rm2_1_7_dual's roots do not solve), a
    # sign flip, the Hadamard matrix and seeded random ones.
    w = {
        "gleason": GLEASON,
        "rm2_1_5": rm2_closed_form(5),
        "rm2_1_7_dual": macwilliams(rm2_closed_form(7), 2, 2**8),
    }[name]
    r = 2**-0.5
    mats = [((1 + 0j, 0j), (0j, -1 + 0j)), ((r + 0j, r + 0j), (r + 0j, -r + 0j))]
    if name != "rm2_1_7_dual":
        mats += list(_screen(roots_of(w)).values())
    else:
        assert max(w.coeffs) > 2**63
    rng = np.random.default_rng(17)
    mats += [tuple(map(tuple, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
             for _ in range(8)]
    a, b, c, d = np.array([[v for row in m for v in row] for m in mats], dtype=complex).T
    want = np.array(substitute_linear(w.coeffs, a, b, c, d))
    got = _substitute_columns(w.coeffs, a, b, c, d)
    assert got.shape == want.shape == (w.n + 1, len(mats))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_certify_witness_is_first_verified_in_screen_order():
    rs = roots_of(GLEASON)
    first = list(_screen(rs))[1]  # the first is the identity
    assert certify_trivial(GLEASON, 2).witness == first


def test_scan_gives_up_at_wide_disks(monkeypatch):
    # no gap is certified at eps = 1/2, so the opening pair and the screen
    # raise, and rm4_2_2's fixed points decide, with no use of the roots
    roots = tuple(Root(center=complex(k), radius=0.5, multiplicity=1)
                  for k in range(5))
    rootset = RootSet(roots=roots, eps=0.5, N=5.0)
    with pytest.raises(PrecisionFailureError):
        _opening_pair(rootset)
    with pytest.raises(PrecisionFailureError):
        _screen(rootset)
    monkeypatch.setattr("wenum.stabilizer.roots_of", lambda w: rootset)
    rep = certify_trivial(enumerate_weights(reed_muller(4, 2, 2)), 4)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.eps == 0.5
    assert rep.certificate is None and rep.fixed_points == (2, 3, 5)


def test_certify_trivial_proves_past_a_failed_root_solve():
    # RM_7(2,2)'s dual: roots_of raises, and the fixed points prove it
    code = reed_muller(7, 2, 2)
    dual = macwilliams(enumerate_weights(code), 7, code.size)
    with pytest.raises(PrecisionFailureError):
        roots_of(dual)
    rep = certify_trivial(dual, 7)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.fixed_points == (2, 3, 5)
    assert rep.certificate is None and rep.witness is None and rep.eps is None
    assert rep.size == rep.classification.n


def test_certify_trivial_without_roots_keeps_the_proof(monkeypatch):
    def fail(w):
        raise PrecisionFailureError("no roots")

    monkeypatch.setattr("wenum.stabilizer.roots_of", fail)
    rep = certify_trivial(enumerate_weights(reed_muller(4, 2, 2)), 4)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.fixed_points == (2, 3, 5)
    assert rep.certificate is None and rep.witness is None and rep.eps is None


def test_overlapping_disks_fail_like_every_root_solve(monkeypatch):
    # disks that meet raise the root solve's one failure, so the
    # certificate goes on to rm4_2_2's fixed points
    monkeypatch.setattr("wenum.roots._disks_disjoint", lambda centers, radii: False)
    w = enumerate_weights(reed_muller(4, 2, 2))
    rep = certify_trivial(w, 4)
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.fixed_points == (2, 3, 5)
    assert rep.certificate is None and rep.witness is None and rep.eps is None
    with pytest.raises(PrecisionFailureError, match="overlap"):
        compute_stabilizer(w, 4)


def test_certify_trivial_without_roots_or_proof():
    # x^8 + 10^400 x^4 y^4 + y^8: too wide for doubles, and its
    # x -> ix symmetry leaves no fixed-point proof
    w = WeightEnumerator((1, 0, 0, 0, 10**400, 0, 0, 0, 1))
    rep = certify_trivial(w, 2)
    assert rep.verdict is Verdict.INCONCLUSIVE and rep.projective == ()
    assert rep.eps is None and rep.witness is None and rep.fixed_points is None


def test_certify_trivial_rm2_1_6_witness():
    rep = certify_trivial(rm2_closed_form(6), 2)  # d = 64, order 4096
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.witness is not None and rep.fixed_points is None
    assert rep.witness != tuple(range(64))


def induced_permutations(elements, centers):
    """The root permutation of each element: the image of every center
    matched to the nearest center."""
    z = np.array(centers)
    found = set()
    for e in elements:
        (a, b), (c, d) = e.matrix
        images = (a * z + b) / (c * z + d)
        found.add(tuple(int(k) for k in np.abs(images[:, None] - z).argmin(axis=1)))
    return found


def _catalog_enumerators():
    """(name, W, q) for the catalog entries with at least five roots."""
    out = []
    for e in catalog():
        w = e.expected or enumerate_weights(e.code)
        q = e.code.q if e.code else 2
        cls = classify(w, q)
        if not cls.infinite_stabilizer and cls.distinct_roots >= 5:
            out.append(pytest.param(w, q, id=e.name))
    return out


def test_rm2_1_6_dual_witness_in_group():
    w_dual = macwilliams(rm2_closed_form(6), 2, 2**7)
    group = _stabilizer(w_dual, 2)
    assert group.size == 4096
    rep = certify_trivial(w_dual, 2)
    assert rep.verdict is Verdict.INCONCLUSIVE
    centers = roots_of(w_dual).centers()
    assert rep.witness in induced_permutations(group.elements, centers)


@pytest.mark.parametrize("w, q", _catalog_enumerators())
def test_certificate_agrees_with_screen_and_group(w, q):
    rep = certify_trivial(w, q)
    rs = roots_of(w)
    group = compute_stabilizer(w, q)
    if rep.verdict is Verdict.TRIVIAL_CERTIFIED:
        assert list(_screen(rs)) == [tuple(range(len(rs)))]
        assert group.size == w.n
        assert (rep.certificate is None) != (rep.fixed_points is None)
    else:
        assert rep.witness in induced_permutations(group.elements, rs.centers())
        assert rep.fixed_points is None and fixed_points(w.coeffs) is None


def test_agreement_trivial_vs_group():
    w = enumerate_weights(reed_muller(4, 2, 2))
    cert = certify_trivial(w, 4)
    group = compute_stabilizer(w, 4)
    assert cert.verdict is Verdict.TRIVIAL_CERTIFIED
    assert group.size == w.n


def test_group_action_preserves_cross_ratio():
    rep = compute_stabilizer(GLEASON, 2)
    centers = roots_of(GLEASON).centers()
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
    for other in (d_delta_matrix(4), self_dual_matrix(2)):
        assert matrix_distance(phase_normalize(el.matrix), phase_normalize(other)) > 0.1


def test_rm2_dual_invariant_domain():
    with pytest.raises(DomainError):
        rm2_dual_invariant_matrix(2)


def test_rm2_dual_invariant_in_gleason_group():
    rep = compute_stabilizer(GLEASON, 2)
    el = rm2_dual_invariant_matrix(3)
    assert find_element(rep.elements, el.matrix) is not None
