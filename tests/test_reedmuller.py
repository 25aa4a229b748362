"""Reed-Muller constructors: dimensions, known enumerators, orderings."""

import math

import numpy as np
import pytest

from conftest import seeded
from wenum.codes import enumerate_weights, rref
from wenum.errors import DomainError
from wenum.fields import GF
from wenum.reedmuller import (
    projective_points,
    projective_reed_muller,
    reed_muller,
)


def rm2_1_closed_form(m):
    n = 2**m
    cs = [0] * (n + 1)
    cs[n] = 1
    cs[0] = 1
    cs[n // 2] = 2 * (2**m - 1)
    return tuple(cs)


def test_rm2_1_3_closed_form():
    code = reed_muller(2, 1, 3)
    assert (code.n, code.k) == (8, 4)
    assert enumerate_weights(code).coeffs == rm2_1_closed_form(3)


def test_rm_degree_zero_is_repetition():
    for q, m in ((2, 3), (3, 2), (5, 1)):
        code = reed_muller(q, 0, m)
        assert (code.n, code.k) == (q**m, 1)
        assert all(v == 1 for v in code.generator[0])


def test_rm4_2_2_dimension():
    code = reed_muller(4, 2, 2)
    assert (code.n, code.k) == (16, 6)
    # dimension equals the count of exponent pairs with i+j <= 2
    assert code.k == len([(i, j) for i in range(3) for j in range(3) if i + j <= 2])


def test_rm_monotone_in_r():
    f = GF(3)
    prev = reed_muller(3, 0, 2)
    for r in range(1, 5):
        cur = reed_muller(3, r, 2)
        stacked = list(prev.generator) + list(cur.generator)
        assert len(rref(f, np.array(stacked))[1]) == cur.k
        prev = cur


def test_prm5_3_2_shape():
    code = projective_reed_muller(5, 3, 2)
    assert (code.n, code.k) == (31, 10)


def test_projective_points_normalized():
    pts = projective_points(3, 2)
    assert len(pts) == 13
    for p in pts:
        nz = [x for x in p if x]
        assert nz[0] == 1
    assert pts == sorted(pts)
    # no two representatives are scalar multiples
    f = GF(3)
    reps = set()
    for p in pts:
        orbit = frozenset(tuple(f.mul(s, x) for x in p) for s in range(1, 3))
        assert orbit not in reps
        reps.add(orbit)


def test_prm_alternative_representatives_same_enumerator():
    # scaling each representative by a random unit gives an equivalent code
    rng = seeded("prm-reps")
    q, r, m = 3, 2, 2
    code = projective_reed_muller(q, r, m)
    f = GF(q)
    gen = np.array(code.generator, copy=True)
    for j in range(code.n):
        gen[:, j] = f.mul_table[rng.randrange(1, q), gen[:, j]]
    from wenum.codes import LinearCode

    other = LinearCode(f, gen)
    assert enumerate_weights(other) == enumerate_weights(code)


def _rank_mod(rows, p):
    """Rank over GF(p), p prime, by Gauss-Jordan elimination on lists."""
    rows = [list(r) for r in rows]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        inv = pow(rows[found][c], -1, p)
        for i in range(len(rows)):
            if i != found and rows[i][c]:
                t = rows[i][c] * inv % p
                rows[i] = [(a - t * b) % p for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


@pytest.mark.parametrize("q, r, m", [(2, 3, 2), (3, 4, 2), (2, 2, 3), (5, 3, 2)])
def test_prm_keeps_rows_independent_of_earlier_ones(q, r, m):
    # PRM_2(3, 2): 10 monomials on 7 points, so rows must be dropped; the
    # kept rows are those that raise the rank of the rows kept before them,
    # in monomial order
    from itertools import product

    pts = projective_points(q, m)
    rows = [[math.prod(x**e for x, e in zip(pt, ex)) % q for pt in pts]
            for ex in product(range(r + 1), repeat=m + 1) if sum(ex) == r]
    kept = []
    for row in rows:
        if _rank_mod(kept + [row], q) > len(kept):
            kept.append(row)
    if (q, r, m) == (2, 3, 2):
        assert (len(rows), len(pts), len(kept)) == (10, 7, 7)
    code = projective_reed_muller(q, r, m)
    assert code.generator.tolist() == kept


def _evaluations(f, exponents, points):
    """Rows of monomial values at the points, by repeated scalar f.mul."""
    rows = []
    for ex in exponents:
        row = []
        for pt in points:
            acc = 1
            for x, k in zip(pt, ex):
                for _ in range(k):
                    acc = f.mul(acc, x)
            row.append(acc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("q, r, m", [(4, 2, 2), (4, 3, 2), (8, 2, 2), (9, 2, 2), (16, 3, 2)])
def test_rm_matches_scalar_evaluation(q, r, m):
    from itertools import product

    exponents = [ex for ex in product(range(min(r, q - 1) + 1), repeat=m) if sum(ex) <= r]
    points = list(product(range(q), repeat=m))
    code = reed_muller(q, r, m)
    assert code.generator.tolist() == _evaluations(GF(q), exponents, points)
    # x^0 = 1 also at x = 0: the constant row is 1 at the origin
    assert (exponents[0], points[0], code.generator[0, 0]) == ((0,) * m, (0,) * m, 1)


def test_prm_matches_scalar_evaluation():
    # degree 3 < q: no homogeneous cubic vanishes on P^3(GF(4)), so every
    # row is kept
    from itertools import product

    q, r, m = 4, 3, 3
    exponents = [ex for ex in product(range(r + 1), repeat=m + 1) if sum(ex) == r]
    points = projective_points(q, m)
    code = projective_reed_muller(q, r, m)
    assert code.generator.tolist() == _evaluations(GF(q), exponents, points)
    # x0^0 * x1^0 * x2^0 * x3^3 at (0, 0, 0, 1)
    assert (exponents[0], points[0], code.generator[0, 0]) == ((0, 0, 0, 3), (0, 0, 0, 1), 1)


def test_parameter_validation():
    with pytest.raises(DomainError):
        reed_muller(2, -1, 3)
    with pytest.raises(DomainError):
        projective_reed_muller(5, 0, 2)
    with pytest.raises(DomainError):
        reed_muller(2, 1, 25)
