"""The GL2(C) stabilizer of a homogeneous weight enumerator.

Finite/infinite dichotomy: the stabilizer is infinite exactly when the
enumerator has at most two distinct roots (the coordinate-subspace and
pair-sum shapes of algebra.classify); otherwise it is finite, and by
Klein's classification of the finite subgroups of PGL2(C) (C_k and D_k
with k <= d, A4, S4, A5) its order is at most n * max(2d, 60).

Finite case: PGL2(C) acts simply 3-transitively, so every stabilizing
Moebius map is determined by the images (a, b, c) of the reference roots
0, 1, 2, and with d >= 3 roots the projective stabilizer acts faithfully
on them.  A Moebius map keeps cross ratios, so (a, b, c) induces the root
permutation sigma exactly when [a, b, c, sigma(k)] = [0, 1, 2, k] for
every k >= 3; sigma must also keep multiplicities.  Each equality is
tested with the certificate's gap and threshold (below), which true-equal
cross ratios always meet, so no stabilizing map is missed.  The gap of
[a, b, c, x] against [0, 1, 2, k] is affine in z_x and vanishes only at
the image of root k under the triple's map, so only the roots whose real
part lies in a window around that image, wide enough for the threshold
and every rounding, are compared (the scan's expression for the tuple
(a, b, c, x)).  Root 3 is matched on broadcast grids of image triples,
every (a, b, c) for a run of consecutive first indices a, with no index
array: the cells with a repeated index or a multiplicity unlike the
reference roots' are masked out, and only the few cells whose window
holds a root are expanded and compared.  Only the triples under which
root 3 matches are compared in full, every root k >= 3 at once.  Each
screened permutation gets its matrix M in closed form (the map sending
the reference triple to (0, 1, inf), followed by the inverse of the one
sending the image triple there) and is measured once.  One
substitution, on arrays of the entries of every non-identity M, gives
each W(M) = lambda W, with lambda read at W's largest coefficient, and
the relative coefficient residual of mu M, mu = lambda^(-1/n), which
fixes W on the nose.  The identity
permutation's map fixes three roots, so it is exactly I, with residual
0, and needs no substitution.  The n scalar twists zeta^k of mu M need
no check of their own, since W has degree n and zeta^n = 1; the report
stores mu M alone, one per root permutation, and derives the twists
when they are asked for (StabilizerReport.elements).  The group is the
exact closure, over integer tuples, of the permutations whose residual
is within VERIFY_TOL; a closure is a group by construction.  It is
built breadth first over the kept generators only: a verified
permutation already in the group generated so far adds nothing.  Every
permutation of the closure must have been screened and rescaled, and n
times the closure's order must stay within Klein's bound; otherwise
PrecisionFailureError is raised.  A screened permutation outside the
closure failed verification and is rejected.

Triviality certificates: the paper's witness is two critical 4-tuples
of roots sharing their first three entries, which force the projective
stabilizer to be trivial.  With cross-ratio(T) = P_T / Q_T, a tuple t is
certified critical when for every V4 orbit other than its own the
cross-multiplied gap |P_r Q_s - Q_r P_s| exceeds 120 N^3 eps, which
guarantees the true cross ratios differ; here r and s are the orbits'
representatives, the members that start with their smallest index.
This is sound because V4 keeps the cross ratio, so t and r share their
true cross ratio, and the threshold bounds the computed gap of any
ordered tuple, r included; so competitors are one row per orbit, a
quarter of the ordered tuples.  Failure to certify is reported as
inconclusive, never as "not trivial".  P and Q of the representatives
are built by one broadcast product per first index (_cross_blocks), with
no index array.

certify_trivial first decides the first two tuples in lexicographic
order, (0, 1, 2, 3) and (0, 1, 2, 4) (_opening_pair): each is compared
with every representative, one first index at a time, so no table is
built, and the pass stops at the first competitor within the threshold.
When both are critical they are the certificate, and nothing else runs;
a full row decides its orbit exactly as the walk below does, so this is
the walk's own answer.  Otherwise the roots are screened.  Every
stabilizing map passes the screen; when the map of a screened
non-identity permutation fixes W within VERIFY_TOL, the stabilizer is
numerically nontrivial, so the verdict is Inconclusive with that
permutation as witness, and nothing is walked.  Otherwise the walk
(_walk) builds the table (_cross_table) and compares each
representative r only with nearby representatives: the gap is
|Q_r| |Q_s| |lambda_r - lambda_s|, so a competitor within the threshold
has its cross ratio within 120 N^3 eps / (|Q_r| min|Q|) of lambda_r.
The representatives are sorted by a projection of lambda (which
lengthens no distance), and r is compared with every one whose
projection lies within that radius, widened by the relative slack 2^-40
in the radius and 2^-40 |lambda_r| besides.  The rounding of the
products, the quotient and the projection is a few units of 2^-53, so
the slack covers it many times over and no competitor within the
threshold is missed; each gap compared is the same elementwise
expression as a full row, so the verdict, the certificate and the
offending pair are those of comparing all pairs of representatives.
The tuples are walked in blocks of whole 3-prefixes in lexicographic
order; each tuple's orbit row is computed in closed form from its
entries (_orbit_rows), each orbit is decided once, when first reached,
and an early certificate ends the walk early.  The certificate's gaps
and the offending competitor come from one full row each, and the
representatives themselves (_reps) are built only to name the
offending competitor.

Each verb solves for roots once, at ROOT_EPS, through roots.roots_of:
roots.find_roots certifies, one Yun factor at a time, the centers of one
double-precision iteration on that factor, with no higher working
precision to fall back on, and tags each disk with the factor's
multiplicity.  Roots too coarse to match an image uniquely raise
PrecisionFailureError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import ClassificationResult, classify, substitute_linear
from .codes import WeightEnumerator
from .errors import DegenerateInputError, DomainError, PrecisionFailureError
from .roots import RootSet, roots_of

VERIFY_TOL = 1e-8  # relative coefficient residual for accepting an element
ROOT_EPS = 1e-12  # root accuracy requested by both verbs
_SLACK = 2.0**-40  # relative widening of a candidate radius for rounding
_PREFIXES = 256  # 3-prefixes scanned per block
_PAIRS = 1 << 16  # candidate pairs compared at once: 1 MiB per complex array
_CELLS = 4096  # screen grid cells (a, b, c) a block, but one first index at least
_IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))


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
    removes.  The returned matrix has largest-modulus entry 1; a triple
    sent to itself gives exactly I, the only map fixing three points.
    """
    if len(set(z)) != 3 or len(set(w)) != 3:
        raise DegenerateInputError("triples must be pairwise distinct")
    if tuple(z) == tuple(w):
        return _IDENTITY
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
    """A group element: applying `matrix` to W reproduces W coefficient-wise
    within `residual` (relative to max |a_i|), as measured once for its
    root permutation and shared by the n scalar twists.  An element
    accepted through closure under verified ones may carry a residual
    above VERIFY_TOL.  INFINITE and INCONCLUSIVE reports hold none (size 0)."""

    matrix: tuple
    residual: float


@dataclass(frozen=True)
class CriticalTuple:
    indices: tuple
    cross_ratio: complex
    gap: float  # smallest |a - b| over other V4 orbits, at representatives


@dataclass(frozen=True)
class StabilizerReport:
    """`projective` holds mu M for each root permutation of the group, in
    screen order (the identity alone when TRIVIAL_CERTIFIED); `size` and
    `elements` count and list its n scalar twists, with n read from
    `classification`.  size is 0 for INFINITE and INCONCLUSIVE."""

    verdict: Verdict
    classification: ClassificationResult
    projective: tuple = ()  # StabilizerElements, one per root permutation
    certificate: tuple | None = None  # two CriticalTuples, shared 3-prefix
    eps: float | None = None  # accuracy achieved by the disks (None: solve failed)
    offending: tuple | None = None  # uncertifiable tuple, competitor's representative
    witness: tuple | None = None  # verified non-identity permutation (inconclusive)

    @property
    def size(self) -> int:
        return self.classification.n * len(self.projective)

    @property
    def elements(self) -> tuple:
        """zeta^k mu M for each projective element mu M, then k = 0..n-1,
        with zeta = exp(2 pi i / n); built anew on each access."""
        n = self.classification.n
        zeta = cmath.exp(2j * cmath.pi / n)
        return tuple(
            StabilizerElement(
                matrix=tuple(tuple(zeta**k * v for v in row) for row in e.matrix),
                residual=e.residual,
            )
            for e in self.projective
            for k in range(n)
        )


# --- finite-group computation ------------------------------------------------


def _screen(rootset: RootSet):
    """{root permutation: Moebius matrix} for every permutation whose
    cross ratios pass the certificate's test, in the lexicographic order of
    its first three images; a root that matches two roots under a triple
    matching every root raises PrecisionFailureError.

    For reference root k >= 3 and image triple (a, b, c) the test's gap
    P_k Q(a, b, c, x) - Q_k P(a, b, c, x) is affine in z_x: it is
    alpha + beta z_x with beta = Q_k (z_a - z_c) - P_k (z_b - z_c) and
    alpha = P_k z_a (z_b - z_c) - Q_k (z_a - z_c) z_b, so it vanishes only
    at y = -alpha / beta, the image of root k under the triple's map, and
    only roots near y can pass.  With M = max |z| and u = 2^-53, every
    |P|, |Q| is at most (2M)^2; the computed gap is within
    2^-50 (|P_k| + |Q_k|) (2M)^2 of the gap taken exactly on the doubles
    z, P_k and Q_k (each difference and product adds at most u and
    sqrt(5) u of relative error, 7.5 u in all), the computed alpha within
    2^-50 (|P_k| + |Q_k|) 2M^2 and the computed beta within
    2^-50 (|P_k| + |Q_k|) 2M.  A root x whose computed gap is within the
    threshold T therefore has |alpha_fl + beta_fl z_x| at most
    T + 2^-47 (|P_k| + |Q_k|) M^2, and alpha_fl + beta_fl z_x is exactly
    beta_fl (z_x - y) for y = -alpha_fl / beta_fl: z_x lies within that
    bound over |beta_fl| of y, so its real part does too.  The window
    around the computed y is widened by the relative slack 2^-40 and by
    2^-40 |y|, which covers the rounding of |gap|, M, the quotient, the
    window and its ends many times over.  The roots whose real part lies
    in it are found by bisection on the sorted real parts (RootSet's order
    is not relied on); a row whose beta_fl is 0, or whose window is not
    finite, gets every root.  Only these pairs are decided, each with the
    same gap expression and threshold as comparing root k with every
    root, so no match is missed and none is added.

    Root 3 is matched for every image triple that keeps multiplicities.
    One broadcast product, with the same elementwise expressions and
    P_3 and Q_3 as scalars, gives the grid of every (a, b, c) for a run
    of max(1, _CELLS // d^2) consecutive first indices a; the cells with
    a repeated index or a multiplicity unlike roots 0, 1 and 2 are
    masked out, and only the cells whose window holds a root get index
    arrays.  Every root k >= 3 is then matched for the few triples under
    which root 3 matched some root, up to _CELLS triples against all the
    rows in one broadcast; the grid is flattened in lexicographic order,
    so the triples are too.
    """
    if rootset.eps >= 0.5:
        raise PrecisionFailureError("the cross-ratio test needs eps < 1/2")
    centers = rootset.centers()
    d = len(centers)
    z = np.array(centers)
    diff = z[:, None] - z
    mult = np.array([r.multiplicity for r in rootset.roots])
    threshold = 120 * rootset.N**3 * rootset.eps
    rounding = 2.0**-47 * np.abs(z).max() ** 2  # times |P_k| + |Q_k|
    by_real = np.argsort(z.real)
    keys = z.real[by_real]
    ref_p, ref_q = _cross_parts(diff, 0, 1, 2, np.arange(3, d))  # rows (0, 1, 2, k)
    m = d - 3

    def windows(pk, qk, ac, bc, za, zb):
        """For broadcasting operands, the flattened ends of the window
        around the image y of root k under each image triple, and where
        the window is not finite."""
        with np.errstate(all="ignore"):
            qa = qk * ac
            beta = qa - pk * bc
            y = (qa * zb - pk * za * bc) / beta  # -alpha / beta
            h = (threshold + rounding * (np.abs(pk) + np.abs(qk))) / np.abs(beta)
            h = h * (1 + _SLACK) + _SLACK * np.abs(y)
            return (y.real - h).ravel(), (y.real + h).ravel(), ~np.isfinite(h).ravel()

    def hits(a, b, c, width, lo, hi, wide):
        """(t, k, x) for each root x that root 3 + k matches under the
        image triple (a[t], b[t], c[t]), from the bounds into keys of the
        windows of the flattened (triple, k) rows, width rows a triple;
        a row whose window is not finite gets every root."""
        lo[wide], hi[wide] = 0, d
        counts = hi - lo
        i = np.repeat(np.arange(len(counts)), counts)
        starts = np.cumsum(counts) - counts
        x = by_real[np.arange(counts.sum()) + np.repeat(lo - starts, counts)]
        t, k = np.divmod(i, width)
        a, b, c = a[t], b[t], c[t]
        p, q = _cross_parts(diff, a, b, c, x)
        gap = ref_p[k] * q - ref_q[k] * p
        keep = (np.abs(gap) <= threshold) & (x != a) & (x != b) & (x != c)
        return t[keep], k[keep], x[keep]

    ends = np.append(keys, np.nan)  # ends[lo] <= top: a key lies in [bottom, top]
    idx = np.arange(d)
    pair_ok = (idx[:, None] != idx) & (mult[:, None] == mult[1]) & (mult == mult[2])
    run = max(1, _CELLS // d**2)  # first indices a block
    found = []
    for a0 in range(0, d, run):
        a1 = min(a0 + run, d)
        # b, c != a, and a keeps root 0's multiplicity
        ok = (idx != idx[a0:a1, None]) & (mult[a0:a1, None] == mult[0])
        near = (pair_ok & ok[:, :, None] & ok[:, None, :]).ravel()
        if not near.any():  # no first index here keeps root 0's multiplicity
            continue
        if m:  # the triples under which root 3 matches some root
            bottom, top, wide = windows(
                ref_p[0],
                ref_q[0],
                diff[a0:a1, None, :],  # z_a - z_c
                diff[None],  # z_b - z_c
                z[a0:a1, None, None],
                z[None, :, None],
            )
            lo = np.searchsorted(keys, bottom, "left")
            near &= wide | (ends[lo] <= top)
        cells = np.flatnonzero(near)
        if m:
            a, b, c = a0 + cells // d**2, cells // d % d, cells % d
            hi = np.searchsorted(keys, top[cells], "right")
            t = hits(a, b, c, 1, lo[cells], hi, wide[cells])[0]
            cells = cells[np.flatnonzero(np.bincount(t, minlength=len(cells)))]
        found.append(a0 * d**2 + cells)
    found = np.concatenate(found)

    perms = []
    for start in range(0, len(found), _CELLS):  # every root k >= 3 for these
        a, bc = np.divmod(found[start : start + _CELLS], d**2)
        b, c = np.divmod(bc, d)
        bottom, top, wide = windows(
            ref_p, ref_q, diff[a, c][:, None], diff[b, c][:, None], z[a][:, None], z[b][:, None]
        )
        lo = np.searchsorted(keys, bottom, "left")
        hi = np.searchsorted(keys, top, "right")
        t, k, x = hits(a, b, c, m, lo, hi, wide)
        counts = np.bincount(t * m + k, minlength=len(a) * m).reshape(len(a), m)
        full = (counts > 0).all(axis=1)
        if (counts[full] > 1).any():
            raise PrecisionFailureError(
                f"a root matches {counts[full].max()} roots under one triple"
            )
        images = np.zeros((len(a), m), dtype=int)
        images[t, k] = x
        rows = np.column_stack((a, b, c, images))[full]
        keep = (mult[rows] == mult).all(axis=1) & (np.sort(rows, axis=1) == idx).all(axis=1)
        perms += map(tuple, rows[keep].tolist())
    ref = tuple(centers[:3])
    return {p: solve_moebius(ref, tuple(centers[i] for i in p[:3])) for p in perms}


def _fixing(w: WeightEnumerator, mats):
    """For each matrix M of `mats`, mu M with mu = lambda^(-1/n) for
    W(M) = lambda W read at W's largest coefficient, as a
    StabilizerElement with its relative coefficient residual; None where
    lambda is zero or not finite.

    One substitution carries all the matrices, as arrays of their entries;
    the exact identity is W(I) = W, so it is passed through with residual 0.
    """
    out = [StabilizerElement(mat, 0.0) if mat == _IDENTITY else None for mat in mats]
    todo = [i for i, e in enumerate(out) if e is None]
    if not todo:
        return out
    flat = [[v for row in mats[i] for v in row] for i in todo]
    entries = np.array(flat, dtype=complex).T  # rows a, b, c, d
    top = max(w.coeffs)
    with np.errstate(all="ignore"):
        got = np.array(substitute_linear(w.coeffs, *entries))
        lam = got[w.coeffs.index(top)] / top
        mu = np.exp(-np.log(lam) / w.n)
        coeffs = np.array(w.coeffs, dtype=float)[:, None]
        residual = np.abs(got / lam - coeffs).max(axis=0) / top
        scaled = (mu * entries).T.tolist()
    ok = (lam != 0) & np.isfinite(lam)
    for i, good, (a, b, c, d), r in zip(todo, ok, scaled, residual.tolist()):
        if good:
            out[i] = StabilizerElement(((a, b), (c, d)), r)
    return out


def _closure(gens, d, limit=math.inf):
    """The group of permutations of range(d) generated by `gens`, as a set
    of integer tuples.  A generator already in the group is skipped; each
    other one is kept, and the group is extended breadth first,
    right-multiplying every member and every new one by each kept
    generator.  A finite group needs no inverses.  The search stops early
    once it holds more than `limit` permutations."""
    group, kept = {tuple(range(d))}, []
    for g in gens:
        if len(group) > limit:
            break
        if g in group:
            continue
        kept.append(g)
        frontier = list(group)
        while frontier and len(group) <= limit:
            found = []
            for p in frontier:
                for h in kept:
                    r = tuple(p[i] for i in h)
                    if r not in group:
                        group.add(r)
                        found.append(r)
            frontier = found
    return group


def _finite_group(w, rootset, cls):
    d = len(rootset.roots)
    screened = _screen(rootset)
    fixing = dict(zip(screened, _fixing(w, list(screened.values()))))
    verified = [p for p, f in fixing.items() if f and f.residual <= VERIFY_TOL]
    # a group larger than the screened set cannot lie inside it
    group = _closure(verified, d, limit=len(fixing))
    unmeasured = sum(fixing.get(p) is None for p in group)
    if unmeasured:
        raise PrecisionFailureError(
            f"{unmeasured} root permutations generated by the verified ones "
            f"were not screened or not rescaled"
        )
    report = StabilizerReport(
        verdict=Verdict.FINITE_GROUP,
        classification=cls,
        projective=tuple(f for p, f in fixing.items() if p in group),
        eps=rootset.eps,
    )
    if report.size > cls.stabilizer_bound:
        raise PrecisionFailureError(
            f"group order {report.size} above Klein's bound {cls.stabilizer_bound}"
        )
    return report


def compute_stabilizer(w: WeightEnumerator, q: int) -> StabilizerReport:
    """Full stabilizer of the homogeneous enumerator.

    Infinite verdict for the two two-root shapes; otherwise the verified
    finite group from one root solve at ROOT_EPS.  Raises
    PrecisionFailureError when those roots cannot tell candidate images
    apart.
    """
    cls = classify(w, q)
    if cls.infinite_stabilizer:
        return StabilizerReport(verdict=Verdict.INFINITE, classification=cls)
    return _finite_group(w, roots_of(w, ROOT_EPS), cls)


# --- triviality certificates --------------------------------------------------


def _distinct(d):
    """Which cells of the flattened d x d x d grid of index triples, in
    lexicographic order, hold three distinct indices."""
    ne = np.arange(d)[:, None] != np.arange(d)
    return (ne[:, :, None] & ne[:, None, :] & ne).reshape(-1)  # i != j, i != k, j != k


def _triples(d):
    """The ordered triples of distinct indices below d, one per row, in
    the order of permutations(range(d), 3), in the narrowest unsigned
    dtype that holds d."""
    t = np.indices((d,) * 3, dtype=np.min_scalar_type(d)).reshape(3, -1).T
    return t[np.flatnonzero(_distinct(d))]  # faster than a boolean index here


def _reps(d):
    """Each V4 orbit's member that starts with its smallest index, for the
    4-tuples of distinct indices below d, in lexicographic order: the
    members starting with a are a and the triples of distinct indices
    above a."""
    dtype = np.min_scalar_type(d)
    blocks = []
    for a in range(d):
        t = _triples(d - 1 - a).astype(dtype) + a + 1
        blocks.append(np.column_stack([np.full(len(t), a, dtype), t]))
    return np.concatenate(blocks)


def _orbit_rows(d, u0, u1, u2, u3):
    """The row in _reps(d) of the V4 orbit of each 4-tuple (u0, u1, u2, u3),
    for index arrays that broadcast together, and -1 for a tuple that
    repeats an index.

    V4 moves position j to j xor g, so two swaps bring the smallest index
    a to the front: of the pairs (u0, u1) and (u2, u3) when it lies in
    the second, then of the entries within each pair when it is second
    in its pair.  That gives the orbit's representative (a, b, c, x).
    The representatives starting below a number the sum over a' < a of
    P(d - 1 - a'), P(m) = m (m - 1) (m - 2) being the count of ordered
    triples of m indices, which is S(d - 1) - S(d - 1 - a) for
    S(n) = (n + 1) n (n - 1) (n - 2) / 4.  Then (b, c, x) has its
    lexicographic rank among the ordered triples of the m = d - 1 - a
    indices above a: with i, j, k their offsets above a, j drops one
    place when it lies above i, and k one for each of i, j below it.
    """
    u0, u1, u2, u3 = (np.asarray(v, dtype=np.int64) for v in (u0, u1, u2, u3))
    swap = np.minimum(u2, u3) < np.minimum(u0, u1)
    u0, u1, u2, u3 = (
        np.where(swap, v, w) for v, w in ((u2, u0), (u3, u1), (u0, u2), (u1, u3))
    )
    swap = u1 < u0
    a, b, c, x = (
        np.where(swap, v, w) for v, w in ((u1, u0), (u0, u1), (u3, u2), (u2, u3))
    )
    m = d - 1 - a
    i, j, k = b - a - 1, c - a - 1, x - a - 1
    rank = (i * (m - 1) + j - (j > i)) * (m - 2) + k - (k > i) - (k > j)
    start = (d * (d - 1) * (d - 2) * (d - 3) - (m + 1) * m * (m - 1) * (m - 2)) // 4
    distinct = (a < b) & (a < c) & (a < x) & (b != c) & (b != x) & (c != x)
    return np.where(distinct, start + rank, -1)


def _cross_parts(diff, a, b, c, x):
    """P and Q of the cross ratio P / Q of [z_a, z_b, z_c, z_x], for index
    arrays that broadcast together, from diff[i, j] = z_i - z_j."""
    return diff[a, c] * diff[b, x], diff[a, x] * diff[b, c]


def _cross_blocks(z):
    """P and Q of the V4 representatives (a, b, c, x) of the centers z that
    start with a, for each first index a < d - 3 in turn, in the order of
    _reps.

    One broadcast product over the grid of the triples (b, c, x) of
    indices above a gives the same elementwise products as _cross_parts,
    operands in the same order; the cells with a repeated index are
    dropped, which leaves the triples in lexicographic order, as in
    _reps."""
    d = len(z)
    diff = z[:, None] - z
    for a in range(d - 3):  # a representative has three indices above a
        keep = _distinct(d - 1 - a)
        rest = diff[a + 1 :, a + 1 :]  # diff[b, x] for b, x above a
        head = diff[a, a + 1 :]  # diff[a, c] for c above a
        yield (
            (head[None, :, None] * rest[:, None, :]).reshape(-1)[keep],
            (head[None, None, :] * rest[:, :, None]).reshape(-1)[keep],
        )


def _cross_table(z):
    """P and Q of every V4 representative of the centers z, in the order
    of _reps(len(z)), without building the representatives."""
    p, q = zip(*_cross_blocks(z))
    return np.concatenate(p), np.concatenate(q)


def _threshold(rootset: RootSet):
    """The certified gap bound 120 N^3 eps, or None when eps >= 1/2, where
    no gap is certified.  Raises DomainError below 5 roots."""
    d = len(rootset.roots)
    if d < 5:
        raise DomainError(f"triviality certificate needs >= 5 roots, found {d}")
    return 120 * rootset.N**3 * rootset.eps if rootset.eps < 0.5 else None


def _critical(centers, t, gap):
    return CriticalTuple(t, cross_ratio(*(centers[i] for i in t)), gap)


def certify_trivial(w: WeightEnumerator, q: int) -> StabilizerReport:
    """Certified-trivial stabilizer via two critical tuples.

    Solves for roots once, at ROOT_EPS, then decides the first two
    ordered 4-tuples, (0, 1, 2, 3) and (0, 1, 2, 4) (_opening_pair): when
    both are critical they are the certificate, and nothing else runs.
    Otherwise the roots are screened: the first screened non-identity
    permutation whose map fixes W within VERIFY_TOL gives an Inconclusive
    verdict with that permutation as `witness`.  Otherwise (also when the
    screen cannot decide) the ordered 4-tuples are walked
    lexicographically (_walk); each is mapped to its V4 orbit, decided
    once against every other orbit, both measured at the member that
    starts with its smallest index (cross ratios are V4-invariant, and the
    threshold bounds the computed gap of every member).  The first two
    certifiable tuples sharing a 3-prefix prove the projective stabilizer
    trivial, so the full GL2 stabilizer is the n scalar matrices
    zeta_n^t I.  A certificate is a proof, while a screen witness is a
    residual within VERIFY_TOL, so should the screen also have found a
    witness, the certificate is reported; no catalog, bench or tested
    enumerator has both.  When some needed comparison stays below the
    certified threshold the verdict is Inconclusive, with the offending
    tuple, the representative of its competitor's orbit and the accuracy
    scanned (None when the root solve failed), which is weaker than and
    distinct from "not trivial".
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
        return StabilizerReport(verdict=Verdict.INCONCLUSIVE, classification=cls)
    found, offending = _opening_pair(rootset), None
    if found is None:
        try:
            screened = _screen(rootset)
        except PrecisionFailureError:
            screened = {}  # the walk below decides on its own
        identity = tuple(range(len(rootset.roots)))
        perms = [p for p in screened if p != identity]
        for perm, fixing in zip(perms, _fixing(w, [screened[p] for p in perms])):
            if fixing and fixing.residual <= VERIFY_TOL:
                return StabilizerReport(
                    verdict=Verdict.INCONCLUSIVE,
                    classification=cls,
                    eps=rootset.eps,
                    witness=perm,
                )
        found, offending = _walk(rootset)
    if not found:
        return StabilizerReport(
            verdict=Verdict.INCONCLUSIVE,
            classification=cls,
            offending=offending,
            eps=rootset.eps,
        )
    return StabilizerReport(
        verdict=Verdict.TRIVIAL_CERTIFIED,
        classification=cls,
        projective=(StabilizerElement(_IDENTITY, 0.0),),
        certificate=found,
        eps=rootset.eps,
    )


def _scan_for_certificate(rootset: RootSet):
    """(certificate, None) for the first two critical 4-tuples sharing a
    3-prefix, in lexicographic order, as CriticalTuples; otherwise
    (None, offending), the first tuple that meets a competitor and the
    representative of that competitor's orbit; (None, None) when
    eps >= 1/2, where no gap is certified.  Raises DomainError below 5
    roots.

    The scan opens with _opening_pair, which streams the rows of
    (0, 1, 2, 3) and (0, 1, 2, 4) one first index at a time and builds no
    table; only when it does not certify does _walk build the table and
    walk the tuples.
    """
    found = _opening_pair(rootset)
    return (found, None) if found else _walk(rootset)


def _opening_pair(rootset: RootSet):
    """(0, 1, 2, 3) and (0, 1, 2, 4), rows 0 and 1 of the representatives,
    as CriticalTuples when both are critical; otherwise None.

    P and Q come one first index a at a time from _cross_blocks, and each
    row keeps the running minimum of its gaps over the blocks, its own
    cell excluded; the pass ends as soon as either minimum is within the
    threshold.  P_r and Q_r are elements of the a = 0 block's arrays (a
    product of numpy scalars may round differently from the array
    loops), and each gap is the walk's full-row expression, so the gaps
    are the full rows' to the bit."""
    threshold = _threshold(rootset)
    if threshold is None:
        return None
    centers = rootset.centers()
    best = [math.inf, math.inf]
    for a, (p, q) in enumerate(_cross_blocks(np.array(centers))):
        if a == 0:
            pr, qr = p[:2], q[:2]
        for r in range(2):  # one row at a time: 1-D products are faster
            gaps = np.abs(pr[r] * q - qr[r] * p)
            if a == 0:
                gaps[r] = np.inf  # the row's own cell
            gap = gaps.min()
            if not gap > threshold:  # NaN included, as in a full row
                return None
            best[r] = min(best[r], gap)
    return tuple(_critical(centers, (0, 1, 2, x), float(g)) for x, g in zip((3, 4), best))


def _walk(rootset: RootSet):
    """_scan_for_certificate's result by walking every 4-tuple in
    lexicographic order, its opening pair included.

    The competitors are the V4 representatives, with P and Q from
    _cross_table; the tuples are walked in blocks of prefixes, and each
    orbit is decided once against the nearby representatives only (see
    the module docstring)."""
    threshold = _threshold(rootset)
    if threshold is None:
        return None, None
    centers = rootset.centers()
    d = len(centers)
    p, q = _cross_table(np.array(centers))  # the competitors, one per V4 orbit

    def full_rows(rs):
        """For each representative in rs, the smallest |a - b| against
        every other representative, and the first one attaining it.  The
        rows share one complex block, reduced a row at a time, so only one
        row's temporary lives beside it."""
        rs, at = np.asarray(rs), np.arange(len(rs))
        diffs = p[rs, None] * q
        for row, r in zip(diffs, rs):
            row -= q[r] * p
        diffs = np.abs(diffs)
        diffs[at, rs] = np.inf
        best = diffs.argmin(axis=1)
        return diffs[at, best].tolist(), best.tolist()

    lam = p / q
    abs_q = np.abs(q)
    q_min = abs_q.min()
    # projection on a direction off both axes: a real W has conjugate
    # roots, so a cross ratio and its conjugate share their real part
    x = 0.6 * lam.real + 0.8 * lam.imag
    order = np.argsort(x)
    keys = x[order]

    def uncertifiable(rows):
        """Whether each representative in rows has another representative
        with |a - b| <= threshold; only those whose projection lies within
        the row's candidate radius are compared."""
        radius = (
            threshold / (abs_q[rows] * q_min) + _SLACK * np.abs(lam[rows])
        ) * (1 + _SLACK)
        lo = np.searchsorted(keys, x[rows] - radius, "left")
        counts = np.searchsorted(keys, x[rows] + radius, "right") - lo
        edges = np.concatenate(([0], np.cumsum(counts)))
        bad = np.zeros(len(rows), dtype=bool)
        i = 0
        while i < len(counts):  # pieces of at most _PAIRS pairs, or one row
            j = int(np.searchsorted(edges, edges[i] + _PAIRS, "right")) - 1
            j = max(j, i + 1)
            k = np.repeat(np.arange(i, j), counts[i:j])
            t = rows[k]
            s = order[
                np.repeat(lo[i:j] - edges[i:j], counts[i:j])
                + np.arange(edges[i], edges[j])
            ]
            diffs = np.abs(p[t] * q[s] - q[t] * p[s])
            bad[k[(diffs <= threshold) & (s != t)]] = True
            i = j
        return bad

    triples = _triples(d)
    known = np.zeros(len(p), dtype=np.int8)  # 1 uncertifiable, 2 critical
    first_bad = None
    for start in range(0, len(triples), _PREFIXES):
        block = triples[start : start + _PREFIXES]
        # prefix by x; -1 where x is in the prefix
        rows = _orbit_rows(d, *block.T[:, :, None], np.arange(d))
        new = np.sort(rows[(rows >= 0) & (known[rows] == 0)])
        new = new[np.diff(new, prepend=-1) != 0]
        known[new] = np.where(uncertifiable(new), 1, 2)
        verdict = np.where(rows < 0, 0, known[rows])
        good = verdict == 2
        done = np.flatnonzero(good.sum(axis=1) >= 2)
        if len(done):
            k = done[0]
            prefix = tuple(int(i) for i in block[k])
            js = np.flatnonzero(good[k])[:2]
            gaps = full_rows(rows[k, js])[0]
            return tuple(_critical(centers, (*prefix, int(j)), g) for j, g in zip(js, gaps)), None
        bad = verdict == 1
        if first_bad is None and bad.any():
            k, j = np.unravel_index(np.argmax(bad), bad.shape)
            first_bad = (*(int(i) for i in block[k]), int(j)), rows[k, j]
    t, r = first_bad
    return None, (t, tuple(int(i) for i in _reps(d)[full_rows([r])[1][0]]))
