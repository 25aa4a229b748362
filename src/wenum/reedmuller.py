"""Affine and projective Reed-Muller codes as evaluation codes.

Affine RM_q(r, m): evaluations of the reduced monomial basis (exponents
capped at q-1 coordinate-wise, since x^q = x on GF(q)) at all points of
GF(q)^m.  The cap makes the generator rows linearly independent, so the
dimension is the basis size.

Projective PRM_q(r, m): evaluations of all degree-r monomials in m+1
variables at the lexicographically ordered representatives of P^m(GF(q))
whose first nonzero coordinate is 1.  For large r the evaluation rows can
be dependent; a maximal independent subset is kept in monomial order so
the dimension equals the rank of the full evaluation matrix.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .codes import LinearCode, rref
from .errors import DomainError
from .fields import GF

MAX_LENGTH = 1 << 20


def _monomials(nvars, r, cap):
    """Exponent tuples e in [0, cap]^nvars with sum(e) <= r, lexicographic."""
    return [e for e in product(range(min(r, cap) + 1), repeat=nvars) if sum(e) <= r]


def _evaluate(field, exponents, points):
    """Rows of prod_c point[c]^exponent[c], with x^0 = 1 also at x = 0."""
    exponents = np.array(exponents, dtype=np.intp)
    points = np.array(points, dtype=np.intp)
    powers = np.ones((exponents.max() + 1, field.q), dtype=np.uint8)
    for k in range(1, len(powers)):
        powers[k] = field.mul_table[powers[k - 1], np.arange(field.q)]
    rows = np.ones((len(exponents), len(points)), dtype=np.uint8)
    for c in range(exponents.shape[1]):
        rows = field.mul_table[rows, powers[exponents[:, c, None], points[:, c]]]
    return rows


def reed_muller(q: int, r: int, m: int) -> LinearCode:
    """RM_q(r, m): length q^m, rows indexed by reduced monomials of degree <= r."""
    if r < 0 or m < 1:
        raise DomainError("reed_muller needs r >= 0 and m >= 1")
    field = GF(q)
    n = q**m
    if n > MAX_LENGTH:
        raise DomainError(f"RM_{q}({r},{m}) length {n} exceeds cap {MAX_LENGTH}")
    points = list(product(range(q), repeat=m))
    exponents = _monomials(m, r, q - 1)
    gen = _evaluate(field, exponents, points)
    return LinearCode(field, gen, n=n)


def projective_points(q: int, m: int):
    """Representatives of P^m(GF(q)); first nonzero coordinate 1, lex order."""
    pts = []
    for lead in range(m + 1):
        for tail in product(range(q), repeat=m - lead):
            pts.append((0,) * lead + (1,) + tail)
    return sorted(pts)


def projective_reed_muller(q: int, r: int, m: int) -> LinearCode:
    """PRM_q(r, m): length (q^(m+1)-1)/(q-1), degree-r homogeneous evaluations."""
    if r < 1 or m < 1:
        raise DomainError("projective_reed_muller needs r >= 1 and m >= 1")
    field = GF(q)
    n = (q ** (m + 1) - 1) // (q - 1)
    if n > MAX_LENGTH:
        raise DomainError(
            f"PRM_{q}({r},{m}) length {n} exceeds cap {MAX_LENGTH}"
        )
    points = projective_points(q, m)
    exponents = [e for e in _monomials(m + 1, r, r) if sum(e) == r]
    gen = _evaluate(field, exponents, points)
    # row i is independent of rows 0..i-1 exactly when column i of gen^T
    # holds a pivot
    _, keep = rref(field, gen.T)
    return LinearCode(field, gen[keep], n=n)
