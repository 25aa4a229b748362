"""Algebra of weight enumerators: MacWilliams transform, divisibility,
formal self-duality, and the at-most-two-distinct-roots classification.

Everything here is exact integer/rational arithmetic.  The distinct-root
count is the total degree of W's Yun square-free factors, the
decomposition roots.square_free solves on; an enumerator with at
most two distinct roots is matched by direct coefficient comparison
against the binomial expansions of its two shapes, x^b (x+(q-1))^(n-b)
and (x^2+(q-1))^(n/2).  Floating point lives only in the roots/stabilizer
modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import polyx
from .codes import (
    WeightEnumerator,
    full_space_enumerator,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from .errors import DomainError, NotACodeEnumeratorError


def _times_linear(coeffs, u, v):
    """Coefficients of (u*x + v*y) * H for H homogeneous with `coeffs`."""
    return [v * h + u * g for g, h in zip([0, *coeffs], [*coeffs, 0])]


def substitute_linear(coeffs, a, b, c, d):
    """Coefficients of W(a*x + b*y, c*x + d*y) for W given by `coeffs`.

    Homogeneous Horner in X = a*x + b*y and Y = c*x + d*y: T_n = w_n and
    T_k = w_k Y^(n-k) + X T_(k+1), so W(X, Y) = T_0, with Y^(n-k) kept from
    the step before.  Each step is O(n) ring operations, O(n^2) in all.
    This is the exact scalar path, which macwilliams and the enumerators
    use: ring-generic, exact over ints/fractions, and numeric over
    complex, where arrays broadcast through it entrywise.  Index i of the
    result holds the x^i y^(n-i) coefficient.  The stabilizer's twist
    check runs the same recurrence on 2-d arrays instead
    (stabilizer._substitute_columns), one numpy operation per step rather
    than one per coefficient; on Python ints that form is slower.
    """
    n = len(coeffs) - 1
    total, power = [coeffs[n]], [1]
    for w in reversed(coeffs[:n]):
        power = _times_linear(power, c, d)
        total = _times_linear(total, a, b)
        if w:
            total = [t + w * p for t, p in zip(total, power)]
    return total


def macwilliams(w: WeightEnumerator, q: int, code_size: int) -> WeightEnumerator:
    """Weight enumerator of the dual code: W(x+(q-1)y, x-y) / code_size.

    Exact; raises if the division is not exact (then the input was not the
    enumerator of a code of the stated size).
    """
    if code_size < 1:
        raise DomainError("code size must be >= 1")
    raw = substitute_linear(w.coeffs, 1, q - 1, 1, -1)
    out = []
    for i, v in enumerate(raw):
        quo, rem = divmod(v, code_size)
        if rem:
            raise NotACodeEnumeratorError(
                f"MacWilliams transform coefficient of x^{i} is {v}, "
                f"not divisible by #C = {code_size}"
            )
        if quo < 0:
            raise NotACodeEnumeratorError(
                f"MacWilliams transform gives negative coefficient at x^{i}"
            )
        out.append(quo)
    return WeightEnumerator(out)


def divisibility(w: WeightEnumerator) -> int:
    """Largest Delta dividing every weight that occurs.

    Delta > 1 exactly when D_Delta stabilizes the homogeneous enumerator.
    Returns 0 for x^n (only the zero weight occurs, so every Delta works
    and no largest one exists).
    """
    if w.coeffs[-1] != 1:
        raise NotACodeEnumeratorError("a_n != 1: not derived from a code")
    g = 0
    n = w.n
    for i, a in enumerate(w.coeffs):
        if a and n - i:
            g = math.gcd(g, n - i)
    return g


def is_formally_self_dual(w: WeightEnumerator, q: int, code_size: int) -> bool:
    """True iff the MacWilliams transform fixes w and code_size^2 = q^n."""
    if code_size**2 != q**w.n:
        return False
    try:
        return macwilliams(w, q, code_size) == w
    except NotACodeEnumeratorError:
        return False


class Shape(Enum):
    COORDINATE_SUBSPACE = "CoordinateSubspace"
    PAIR_SUM = "PairSum"
    THREE_PLUS_ROOTS = "ThreePlusRoots"


@dataclass(frozen=True)
class ClassificationResult:
    shape: Shape
    n: int
    distinct_roots: int | None = None  # ThreePlusRoots only
    stabilizer_bound: int | None = None  # n * max(2d, 60): Klein's finite cap

    @property
    def infinite_stabilizer(self) -> bool:
        return self.shape is not Shape.THREE_PLUS_ROOTS


def classify(w: WeightEnumerator, q: int) -> ClassificationResult:
    """Sort a code enumerator into the two two-root shapes or ThreePlusRoots.

    It implements this statement: the enumerator of a linear code over
    GF(q) has at most two distinct roots exactly when it is a
    coordinate-subspace enumerator x^b (x + (q-1)y)^a, a + b = n (the code
    GF(q)^a + 0^b up to monomial equivalence; the zero code is a = 0 and
    the full space b = 0), or (x^2 + (q-1)y^2)^(n/2).  Codes with zero
    coordinates are included; the paper's abstract (PAPER.md) does not say
    whether the paper excludes them.  For either shape the maps that fix
    both roots and W form a torus, so the stabilizer is infinite; at most
    two distinct roots and neither shape raises NotACodeEnumeratorError.

    With d >= 3 distinct roots the stabilizer is finite.  Its image in
    PGL2(C) acts faithfully on the d roots, so by Klein it is C_k or D_k
    with k <= d (a rotation moves all but its two fixed points in orbits
    of size k), or A4, S4 or A5 of order <= 60; with the n scalar
    matrices the order is at most n * max(2d, 60).
    """
    if w.coeffs[-1] != 1:
        raise NotACodeEnumeratorError("a_n != 1: not derived from a code")
    n = w.n
    # the Yun factors are square-free and coprime: their degrees add up to
    # the number of distinct roots
    d = sum(polyx.degree(f) for f, _ in polyx.yun_squarefree(tuple(w.coeffs)))
    if d >= 3:
        return ClassificationResult(
            Shape.THREE_PLUS_ROOTS, n,
            distinct_roots=d,
            stabilizer_bound=n * max(2 * d, 60),
        )
    b = next(i for i, c in enumerate(w.coeffs) if c)  # the power of x
    if w == zero_code_enumerator(b) * full_space_enumerator(n - b, q):
        return ClassificationResult(Shape.COORDINATE_SUBSPACE, n)
    if n % 2 == 0 and w == pair_sum_enumerator(n, q):
        return ClassificationResult(Shape.PAIR_SUM, n)
    raise NotACodeEnumeratorError(
        f"{d} distinct roots but no admissible two-root shape for q={q}"
    )
