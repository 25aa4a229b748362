"""The GL2(C) stabilizer of a homogeneous weight enumerator.

Finite/infinite dichotomy: the stabilizer is infinite exactly when the
enumerator has at most two distinct roots (the three classified shapes);
otherwise it is finite of order at most d! * n.

Finite case: PGL2(C) acts simply 3-transitively, so every stabilizing
Moebius map is determined by the images of a fixed reference triple of
roots.  For every ordered triple of distinct roots we interpolate the
unique Moebius candidate in closed form (the map sending the reference
triple to (0, 1, inf), followed by the inverse of the one sending the
image triple there), screen it by whether it permutes the certified
root disks (respecting multiplicities), recover the scalar on a probe
point, rescale so the polynomial is fixed on the nose, and finally verify
each of the n scalar twists by direct coefficient comparison.  Screening
is heuristic; acceptance is only ever by the coefficient residual.  The
accepted root permutations must form a group, which is checked exactly.

Triviality certificates: two critical 4-tuples of roots sharing their
first three entries force the projective stabilizer to be trivial.  A
tuple is certified critical when for every competing ordered 4-tuple
outside its V4 orbit the cross-multiplied cross-ratio gap exceeds
120 N^3 eps, which guarantees the true cross ratios differ.  Failure to
certify is reported as inconclusive, never as "not trivial".

Each verb solves for roots once, at ROOT_EPS; the working-precision
escalation inside roots.find_roots is the only precision ladder.  Disks
too coarse to match an image uniquely raise PrecisionFailureError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .algebra import ClassificationResult, classify, macwilliams, substitute_linear
from .codes import WeightEnumerator
from .errors import (
    DegenerateInputError,
    DomainError,
    HypothesisViolationError,
    PrecisionFailureError,
)
from .roots import RootSet, roots_of

VERIFY_TOL = 1e-8  # relative coefficient residual for accepting an element
DEDUP_TOL = 1e-6  # entrywise distance identifying two numeric matrices
ROOT_EPS = 1e-12  # root accuracy requested by both verbs
_V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def cross_ratio(z1: complex, z2: complex, z3: complex, z4: complex) -> complex:
    """[z1, z2, z3, z4] = (z1-z3)(z2-z4) / ((z1-z4)(z2-z3))."""
    pts = (z1, z2, z3, z4)
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise DegenerateInputError(
                    "cross ratio needs pairwise distinct points"
                )
    return ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))


def _to_zero_one_inf(z):
    """The matrix of the Moebius map sending (z1, z2, z3) to (0, 1, inf)."""
    z1, z2, z3 = z
    return ((z2 - z3, -z1 * (z2 - z3)), (z2 - z1, -z3 * (z2 - z1)))


def solve_moebius(z, w):
    """The Moebius map sending z_i to w_i, i = 1..3, as ((a, b), (c, d)).

    It is adj(M_w) M_z, where M_t sends the triple t to (0, 1, inf); the
    adjugate is the inverse up to a scalar, which the normalization
    removes.  The returned matrix has largest-modulus entry 1.
    """
    if len(set(z)) != 3 or len(set(w)) != 3:
        raise DegenerateInputError("triples must be pairwise distinct")
    (p, q), (r, s) = _to_zero_one_inf(z)
    (e, f), (g, h) = _to_zero_one_inf(w)
    m = (h * p - f * r, h * q - f * s, e * r - g * p, e * s - g * q)
    pivot = max(m, key=abs)
    a, b, c, d = (v / pivot for v in m)
    return ((a, b), (c, d))


class Verdict(Enum):
    INFINITE = "Infinite"
    FINITE_GROUP = "FiniteGroup"
    TRIVIAL_CERTIFIED = "TrivialCertified"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class StabilizerElement:
    """A verified group element: applying `matrix` to W reproduces W
    coefficient-wise within `residual` (relative to max |a_i|)."""

    matrix: tuple
    scalar_lambda: complex
    residual: float


@dataclass(frozen=True)
class CriticalTuple:
    indices: tuple
    cross_ratio: complex
    gap: float  # smallest certified |a - b| margin over competing tuples


@dataclass(frozen=True)
class StabilizerReport:
    verdict: Verdict
    classification: ClassificationResult
    degree: int
    elements: tuple = ()
    bound: int | None = None  # d! * n for the finite case
    certificate: tuple | None = None  # two CriticalTuples, shared 3-prefix
    eps: float | None = None  # accuracy achieved by the disks (None: solve failed)
    offending: tuple | None = None  # uncertifiable tuple pair (inconclusive)

    @property
    def size(self) -> int:
        return len(self.elements)


# --- matrix utilities -------------------------------------------------------


def phase_normalize(matrix):
    """Divide out the phase of the largest-modulus entry (first on ties)."""
    flat = [matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1]]
    mags = [abs(v) for v in flat]
    pivot = flat[mags.index(max(mags))]
    ph = pivot / abs(pivot)
    a, b, c, d = (v / ph for v in flat)
    return ((a, b), (c, d))


def matrix_distance(m1, m2) -> float:
    return max(
        abs(m1[i][j] - m2[i][j]) for i in range(2) for j in range(2)
    )


def find_element(elements, matrix, tol=DEDUP_TOL):
    """Index of a listed element entrywise-close to `matrix`, or None."""
    for i, el in enumerate(elements):
        if matrix_distance(el.matrix, matrix) <= tol:
            return i
    return None


# --- finite-group computation ------------------------------------------------


def _match_permutation(mat, rootset: RootSet):
    """The root permutation induced by the Moebius matrix, or None.

    Each image of a disk center must land in exactly one disk, inflated by
    the propagated first-order error; the matched disk must carry the same
    multiplicity, and the matches must form a bijection.  An image in two
    disks raises PrecisionFailureError: the disks are too coarse.
    """
    centers = rootset.centers()
    mults = [r.multiplicity for r in rootset.roots]
    (a, b), (c, d) = mat
    det = a * d - b * c
    perm = []
    for k, (z, rk) in enumerate(zip(centers, rootset.roots)):
        den = c * z + d
        if abs(den) < 1e-9 * (abs(c) * abs(z) + abs(d) + 1e-30):
            return None  # pole at a root: cannot permute a finite root set
        image = (a * z + b) / den
        prop = abs(det) / (abs(den) ** 2) * rk.radius
        hits = []
        for m, zm in enumerate(centers):
            tol = prop + rootset.roots[m].radius + 1e-9 * (1 + abs(image))
            if abs(image - zm) <= tol:
                hits.append(m)
        if not hits:
            return None
        if len(hits) > 1:
            raise PrecisionFailureError(
                f"image of root {k} lies in {len(hits)} root disks"
            )
        m = hits[0]
        if mults[m] != mults[k]:
            return None
        perm.append(m)
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm)


_PROBES = [(0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]


def _probe_point(w: WeightEnumerator):
    """First probe with W(x0, y0) != 0, decided in exact integer arithmetic.

    The textbook probe (0, 1) reads off a_0, which vanishes whenever the
    code has no full-weight codeword, so a fixed fallback list is scanned.
    """
    for x0, y0 in _PROBES:
        if w.evaluate(x0, y0) != 0:
            return x0, y0
    raise PrecisionFailureError("no nonzero probe point found")


def _residual(coeffs, mat) -> float:
    """Relative coefficient defect of substituting `mat` into the form."""
    got = substitute_linear(coeffs, mat[0][0], mat[0][1], mat[1][0], mat[1][1])
    return max(abs(g - v) for g, v in zip(got, coeffs)) / max(abs(v) for v in coeffs)


def _verified_twists(w: WeightEnumerator, mat):
    """Rescale the Moebius matrix so it fixes W and verify all n scalar twists.

    Returns a list of n StabilizerElements, or None when verification
    fails (the candidate survived screening but is not an invariant).
    """
    n = w.n
    x0, y0 = _probe_point(w)
    (a, b), (c, d) = mat
    lam = w.evaluate(a * x0 + b * y0, c * x0 + d * y0) / w.evaluate(x0, y0)
    if lam == 0 or not cmath.isfinite(lam):
        return None
    mu = cmath.exp(-cmath.log(lam) / n)
    zeta = cmath.exp(2j * cmath.pi / n)
    out = []
    twist = mu
    for _ in range(n):
        twisted = ((twist * a, twist * b), (twist * c, twist * d))
        residual = _residual(w.coeffs, twisted)
        if residual > VERIFY_TOL:
            return None
        out.append(
            StabilizerElement(matrix=twisted, scalar_lambda=lam, residual=residual)
        )
        twist *= zeta
    return out


def _check_group(perms):
    """Raise unless the root permutations contain the identity and are
    closed under composition.  They are integer tuples, so the check is
    exact; a finite set with both properties is a group."""
    perms = set(perms)
    d = len(next(iter(perms), ()))
    closed = tuple(range(d)) in perms and all(
        tuple(p[i] for i in r) in perms for p in perms for r in perms
    )
    if not closed:
        raise PrecisionFailureError(
            f"accepted root permutations ({len(perms)}) do not form a group"
        )


def _finite_group(w, rootset, cls):
    centers = rootset.centers()
    d = len(centers)
    ref = tuple(centers[:3])
    classes = {}
    for idx in permutations(range(d), 3):
        images = tuple(centers[i] for i in idx)
        try:
            mat = solve_moebius(ref, images)
        except DegenerateInputError:
            continue
        perm = _match_permutation(mat, rootset)
        if perm is None or perm in classes:
            continue
        classes[perm] = mat
    elements = []
    accepted = []
    for perm, mat in classes.items():
        twists = _verified_twists(w, mat)
        if twists:
            elements.extend(twists)
            accepted.append(perm)
    _check_group(accepted)
    return StabilizerReport(
        verdict=Verdict.FINITE_GROUP,
        classification=cls,
        degree=w.n,
        elements=tuple(elements),
        bound=cls.stabilizer_bound,
        eps=rootset.eps,
    )


def compute_stabilizer(w: WeightEnumerator, q: int) -> StabilizerReport:
    """Full stabilizer of the homogeneous enumerator.

    Infinite verdict for the three two-root shapes; otherwise the verified
    finite element list from one root solve at ROOT_EPS.  Raises
    PrecisionFailureError when those disks cannot separate candidate images.
    """
    cls = classify(w, q)
    if cls.infinite_stabilizer:
        return StabilizerReport(
            verdict=Verdict.INFINITE, classification=cls, degree=w.n
        )
    return _finite_group(w, roots_of(w, ROOT_EPS), cls)


# --- triviality certificates --------------------------------------------------


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


def _tuple_products(centers):
    """P, Q with cross-ratio(T) = P/Q for every ordered 4-tuple of
    distinct indices, plus the index of each tuple."""
    d = len(centers)
    tuples = list(permutations(range(d), 4))
    z = np.array(centers)
    idx = np.array(tuples)
    p = (z[idx[:, 0]] - z[idx[:, 2]]) * (z[idx[:, 1]] - z[idx[:, 3]])
    q = (z[idx[:, 0]] - z[idx[:, 3]]) * (z[idx[:, 1]] - z[idx[:, 2]])
    where = {t: i for i, t in enumerate(tuples)}
    return tuples, p, q, where


def _certify_tuple(t, p, q, where, threshold):
    """Smallest |a - b| against tuples outside the V4 orbit, or the first
    offending competitor when the tuple cannot be certified."""
    row = where[t]
    diffs = np.abs(p[row] * q - q[row] * p)
    orbit = [where[tuple(t[i] for i in sigma)] for sigma in _V4]
    diffs[orbit] = np.inf
    best = int(np.argmin(diffs))
    gap = float(diffs[best])
    if gap > threshold:
        return gap, None
    return gap, best


def certify_trivial(w: WeightEnumerator, q: int) -> StabilizerReport:
    """Certified-trivial stabilizer via two critical tuples.

    Solves for roots once, at ROOT_EPS, and scans ordered 4-tuples
    lexicographically; the first two certifiable tuples sharing a 3-prefix
    prove the projective stabilizer trivial, so the full GL2 stabilizer is
    the n scalar matrices zeta_n^t I.  When some needed comparison stays
    below the certified threshold the verdict is Inconclusive, with the
    offending pair and the accuracy scanned (None when the root solve
    failed), which is weaker than and distinct from "not trivial".
    """
    cls = classify(w, q)
    if cls.infinite_stabilizer or cls.distinct_roots < 5:
        raise DomainError(
            f"triviality certificate needs >= 5 distinct roots, "
            f"found {cls.distinct_roots or 'at most 2'}"
        )
    try:
        rootset = roots_of(w, ROOT_EPS)
    except PrecisionFailureError:
        # accuracy exhausted; report what we know, never "not trivial"
        return StabilizerReport(
            verdict=Verdict.INCONCLUSIVE, classification=cls, degree=w.n
        )
    found, offending = _scan_for_certificate(rootset)
    if not found:
        return StabilizerReport(
            verdict=Verdict.INCONCLUSIVE,
            classification=cls,
            degree=w.n,
            offending=offending,
            eps=rootset.eps,
        )
    n = w.n
    zeta = cmath.exp(2j * cmath.pi / n)
    elements = tuple(
        StabilizerElement(
            matrix=((zeta**t, 0j), (0j, zeta**t)),
            scalar_lambda=1 + 0j,
            residual=0.0,
        )
        for t in range(n)
    )
    return StabilizerReport(
        verdict=Verdict.TRIVIAL_CERTIFIED,
        classification=cls,
        degree=n,
        elements=elements,
        bound=cls.stabilizer_bound,
        certificate=found,
        eps=rootset.eps,
    )


def _scan_for_certificate(rootset: RootSet):
    centers = rootset.centers()
    d = len(centers)
    eps, bigN = rootset.eps, rootset.N
    if eps >= 0.5:
        return None, None
    threshold = 120 * bigN**3 * eps
    tuples, p, q, where = _tuple_products(centers)
    first_offender = None
    for prefix in permutations(range(d), 3):
        certified = []
        rest = [i for i in range(d) if i not in prefix]
        for i4 in rest:
            t = prefix + (i4,)
            gap, bad = _certify_tuple(t, p, q, where, threshold)
            if bad is None:
                certified.append(
                    CriticalTuple(
                        indices=t,
                        cross_ratio=cross_ratio(*(centers[i] for i in t)),
                        gap=gap,
                    )
                )
                if len(certified) == 2:
                    return tuple(certified), None
            elif first_offender is None:
                first_offender = (t, tuples[bad])
    return None, first_offender


# --- the dual Reed-Muller invariant ------------------------------------------


def rm2_closed_form(m: int) -> WeightEnumerator:
    """x^(2^m) + 2(2^m - 1) x^(2^(m-1)) y^(2^(m-1)) + y^(2^m), the weight
    enumerator of the evaluation code of affine-linear binary forms."""
    n = 2**m
    cs = [0] * (n + 1)
    cs[0] = 1
    cs[n] = 1
    cs[n // 2] = 2 * (2**m - 1)
    return WeightEnumerator(cs)


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
    w_first = rm2_closed_form(m)
    w_dual = macwilliams(w_first, 2, 2 ** (m + 1))
    u = (cmath.exp(2j * cmath.pi / 2 ** (m - 1)) + 1) / 2
    mat = ((u, u - 1), (u - 1, u))
    residual = _residual(w_dual.coeffs, mat)
    if residual > 1e-9:
        raise PrecisionFailureError(
            f"invariant matrix residual {residual:.3e} above 1e-9"
        )
    return StabilizerElement(matrix=mat, scalar_lambda=1 + 0j, residual=residual)
