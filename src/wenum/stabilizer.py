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
(a, b, c, x)).  Root 3 is matched once per V4 orbit (V4 keeps the cross
ratio; see the certificates below), on broadcast grids of the triples
(a, b, c) with a < b, a < c, for a run of first indices a, with no index
array: a match x > a stands for the image triples (a, b, c), (b, a, x),
(c, x, a) and (x, c, b), less those with a multiplicity unlike the
reference roots'.  Root 4 alone is then matched on those triples, with
the same windows and threshold, and only the triples that pass it too
are compared in full, every root k >= 3 at once; a triple dropped there
could never match every root.  Each screened permutation
gets its matrix M in closed form (the map sending the reference triple
to (0, 1, inf), followed by the inverse of the one sending the image
triple there) and is measured once.  One column-batched Horner
substitution (_substitute_columns), on arrays of the entries of every
non-identity M, gives each W(M) = lambda W, with lambda read at W's
largest coefficient, and the relative coefficient residual of mu M,
mu = lambda^(-1/n), which fixes W on the nose.  The identity
permutation's map fixes three roots, so it is exactly I, with residual
0, and needs no substitution.  The n scalar twists zeta^k of mu M need
no check of their own, since W has degree n and zeta^n = 1; the report
stores mu M alone, one per root permutation, and derives the twists
when they are asked for (StabilizerReport.elements).  The group is the
exact closure, over integer tuples, of the permutations whose residual
is within VERIFY_TOL; a closure is a group by construction.  It is
built breadth first over the kept generators only: a verified
permutation already in the group generated so far adds nothing.  The
closure must be exactly the screened set, each member rescaled, and n
times its order within Klein's bound; otherwise PrecisionFailureError
is raised, so no screened permutation is dropped.

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
quarter of the ordered tuples.  With M = max |z| every |P|, |Q| is at
most (2M)^2, so while 2 (2M)^4 is below the largest double no gap
overflows and none is NaN.

certify_trivial first decides the first two tuples in lexicographic
order, (0, 1, 2, 3) and (0, 1, 2, 4) (_opening_pair), rows 0 and 1 of
the representatives.  Those that start with 0 are built by one
broadcast product and compared in full: a row's minimum there, U, is a
gap that some representative has, and a U within the threshold refuses
at once.  Against (a, b, c, x) with a >= 1 the gap is affine in z_x, as
in the screen, so only the roots in the windows that hold every gap up
to U are compared, with the same expression: the minimum of U and
theirs is the row's minimum over every representative, bit for bit.
When both are critical they are the certificate, and nothing else runs.
Otherwise the roots are screened.  Every stabilizing map passes the
screen; when the map of a screened non-identity permutation fixes W
within VERIFY_TOL, the stabilizer is numerically nontrivial, so the
verdict is Inconclusive with that permutation as witness.  Otherwise,
a failed root solve and roots too coarse to decide included, the proof
is exact: invariants.fixed_points looks for three integer points whose
fibre of W's absolute invariants is the point itself, which the whole
stabilizer must then fix, and uses neither roots nor eps.  Failure to
certify either way is reported as inconclusive, never as "not trivial";
on either verdict eps is None exactly when the root solve failed.

Each verb solves for roots once, at roots.ROOT_EPS, through roots.roots_of:
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

from .algebra import ClassificationResult, classify
from .codes import WeightEnumerator
from .errors import DegenerateInputError, DomainError, PrecisionFailureError
from .invariants import fixed_points
from .roots import RootSet, roots_of

VERIFY_TOL = 1e-8  # relative coefficient residual for accepting an element
_SLACK = 2.0**-40  # relative widening of a screen window for rounding
_CELLS = 4096  # screen triples a block, and root-3 grid cells (d^2 a first index at least)
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
    `classification`.  size is 0 for INFINITE and INCONCLUSIVE.  A
    TRIVIAL_CERTIFIED report holds its proof: either `certificate`, the
    paper's two critical tuples, or `fixed_points`, three points that the
    whole stabilizer fixes (invariants.fixed_points)."""

    verdict: Verdict
    classification: ClassificationResult
    projective: tuple = ()  # StabilizerElements, one per root permutation
    certificate: tuple | None = None  # two CriticalTuples, shared 3-prefix
    fixed_points: tuple | None = None  # three integers x0, points (x0 : 1)
    eps: float | None = None  # accuracy of the disks; None exactly when the solve failed
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


def _windows(pk, qk, pad, ac, bc, za, zb):
    """For broadcasting operands, with ac = z_a - z_c and bc = z_b - z_c,
    the flattened ends of the window around the real part of the root y
    of alpha + beta z = P_k Q(a, b, c, z) - Q_k P(a, b, c, z) that holds
    every root x with |alpha_fl + beta_fl z_x| within pad, and where the
    window is not finite (_screen)."""
    with np.errstate(all="ignore"):
        qa = qk * ac
        beta = qa - pk * bc
        y = (qa * zb - pk * za * bc) / beta  # -alpha / beta
        h = pad / np.abs(beta)
        h = h * (1 + _SLACK) + _SLACK * np.abs(y)
        return (y.real - h).ravel(), (y.real + h).ravel(), ~np.isfinite(h).ravel()


def _in_windows(by_real, keys, lo, top, wide):
    """(i, x) for each root x in flattened window i, from the insertion
    point lo of the window's bottom end into keys, the real parts sorted
    by by_real, and its top end, searched here; a window in `wide` gets
    every root."""
    hi = np.searchsorted(keys, top, "right")
    lo[wide], hi[wide] = 0, len(by_real)
    counts = hi - lo
    i = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return i, by_real[np.arange(counts.sum()) + np.repeat(lo - starts, counts)]


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
    finite, gets every root (_windows, _in_windows).  Only these pairs are
    decided, each with the same gap expression and threshold as comparing
    root k with every root, so no match is missed and none is added.

    Root 3 is matched once per V4 orbit: (a, b, c, x) shares its true
    cross ratio with (b, a, x, c), (c, x, a, b) and (x, c, b, a), and a
    stabilizing map's tuple meets the threshold in every ordering, so
    only the representatives, a least, are searched.  One broadcast
    product, with the same elementwise expressions and P_3 and Q_3 as
    scalars, gives the grid of the (a, b, c) with b, c > a0 for a run of
    max(1, _CELLS // d^2) first indices a from a0; the cells with
    a >= b, a >= c or b = c are masked out, only the cells whose window
    holds a root get index arrays, and a match x counts when x > a.  It
    stands for (a, b, c) -> x, (b, a, x) -> c, (c, x, a) -> b and
    (x, c, b) -> a; those that keep the multiplicities of roots 0, 1, 2
    are marked in a mask over the codes (a d + b) d + c, which lists each
    once, in lexicographic order.  The pass only
    filters, as later passes recompute every row on the triple's own
    ordering; a non-element whose own root-3 gap is within the threshold
    but whose representative's is not is no longer carried forward.
    With d = 3 every ordering goes on.  Root 4 alone is then matched for
    the few triples under which root 3 matched some root, and every root
    k >= 3 for the triples under which root 4 matched some root too, up
    to _CELLS triples a block against all the rows in one broadcast.  A
    triple that fails root 4 fails the full match, whose rows for root 4
    are the same expressions on the same operands, so the gate changes
    no result and no raise.
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
    pad = threshold + rounding * (np.abs(ref_p) + np.abs(ref_q))
    m = d - 3

    def hits(a, b, c, first, width, lo, top, wide):
        """(t, k, x) for each root x that root 3 + k matches under the
        image triple (a[t], b[t], c[t]), from the windows of the flattened
        (triple, k) rows, width rows a triple for k = first, ...,
        first + width - 1 (_in_windows)."""
        i, x = _in_windows(by_real, keys, lo, top, wide)
        t, k = np.divmod(i, width)
        k += first
        a, b, c = a[t], b[t], c[t]
        p, q = _cross_parts(diff, a, b, c, x)
        gap = ref_p[k] * q - ref_q[k] * p
        keep = (np.abs(gap) <= threshold) & (x != a) & (x != b) & (x != c)
        return t[keep], k[keep], x[keep]

    ends = np.append(keys, np.nan)  # ends[lo] <= top: a key lies in [bottom, top]
    idx = np.arange(d)
    if m:  # the V4 representatives (a, b, c, x), a least, that match [0, 1, 2, 3]
        run = max(1, _CELLS // d**2)  # first indices a block
        reps = []
        for a0 in range(0, d - 3, run):
            a1, up = min(a0 + run, d - 3), slice(a0 + 1, d)
            first, rest = idx[a0:a1, None, None], idx[up]
            near = (first < rest[:, None]) & (first < rest) & (rest[:, None] != rest)
            bottom, top, wide = _windows(  # operands z_a - z_c, z_b - z_c, z_a, z_b
                ref_p[0], ref_q[0], pad[0], diff[a0:a1, None, up], diff[None, up, up],
                z[a0:a1, None, None], z[None, up, None],
            )
            lo = np.searchsorted(keys, bottom, "left")
            cells = np.flatnonzero(near.ravel() & (wide | (ends[lo] <= top)))
            w = d - a0 - 1
            a, b, c = a0 + cells // w**2, a0 + 1 + cells // w % w, a0 + 1 + cells % w
            t, _, x = hits(a, b, c, 0, 1, lo[cells], top[cells], wide[cells])
            keep = x > a[t]
            t = t[keep]
            reps.append((a[t], b[t], c[t], x[keep]))
        a, b, c, x = map(np.concatenate, zip(*reps))
        # the images (a, b, c) -> x, (b, a, x) -> c, (c, x, a) -> b, (x, c, b) -> a
        t0, t1, t2 = np.concatenate(((a, b, c), (b, a, x), (c, x, a), (x, c, b)), axis=1)
    else:  # d = 3: no root 3 to match, so every ordering of the roots
        t0, t1, t2 = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]).T
    keep = (mult[t0] == mult[0]) & (mult[t1] == mult[1]) & (mult[t2] == mult[2])
    seen = np.zeros(d**3, dtype=bool)  # a first 1-d np.sort maps 64 KiB more of numpy's code
    seen[((t0 * d + t1) * d + t2)[keep]] = True
    found = np.flatnonzero(seen)  # each triple once, in lexicographic order

    perms = []
    for start in range(0, len(found), _CELLS):  # every root k >= 3 for these
        a, bc = np.divmod(found[start : start + _CELLS], d**2)
        b, c = np.divmod(bc, d)
        if m > 1:  # only the triples under which root 4 matches some root
            bottom, top, wide = _windows(
                ref_p[1], ref_q[1], pad[1], diff[a, c], diff[b, c], z[a], z[b]
            )
            lo = np.searchsorted(keys, bottom, "left")
            t = hits(a, b, c, 1, 1, lo, top, wide)[0]
            keep = np.flatnonzero(np.bincount(t, minlength=len(a)))
            a, b, c = a[keep], b[keep], c[keep]
        ops = diff[a, c][:, None], diff[b, c][:, None], z[a][:, None], z[b][:, None]
        bottom, top, wide = _windows(ref_p, ref_q, pad, *ops)
        lo = np.searchsorted(keys, bottom, "left")
        t, k, x = hits(a, b, c, 0, m, lo, top, wide)
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


def _substitute_columns(coeffs, a, b, c, d):
    """The (n + 1, M) array whose column j holds the coefficients of
    W(a_j x + b_j y, c_j x + d_j y), for complex arrays a, b, c, d of
    length M.

    algebra.substitute_linear's Horner recurrence, with its list of
    per-coefficient arrays held as the rows of two 2-d arrays, total and
    power: each step is a few slice updates, not n numpy operations.  Row
    0 stays zero and stands for the recurrence's zero padding, so every
    entry takes the same operations, operands in the same order, and each
    column equals substitute_linear on that column bit for bit.
    """
    n = len(coeffs) - 1
    total = np.zeros((n + 2, len(a)), dtype=complex)
    power = np.zeros_like(total)
    total[1], power[1] = coeffs[n], 1
    for s, w in enumerate(reversed(coeffs[:n]), 1):
        power[1 : s + 2] = d * power[1 : s + 2] + c * power[: s + 1]
        total[1 : s + 2] = b * total[1 : s + 2] + a * total[: s + 1]
        if w:
            total[1 : s + 2] += w * power[1 : s + 2]
    return total[1:]


def _fixing(w: WeightEnumerator, mats):
    """For each matrix M of `mats`, mu M with mu = lambda^(-1/n) for
    W(M) = lambda W read at W's largest coefficient, as a
    StabilizerElement with its relative coefficient residual; None where
    lambda is zero or not finite.

    One column-batched substitution (_substitute_columns) carries all the
    matrices, as arrays of their entries; the exact identity is W(I) = W,
    so it is passed through with residual 0.
    """
    out = [StabilizerElement(mat, 0.0) if mat == _IDENTITY else None for mat in mats]
    todo = [i for i, e in enumerate(out) if e is None]
    if not todo:
        return out
    flat = [[v for row in mats[i] for v in row] for i in todo]
    entries = np.array(flat, dtype=complex).T  # rows a, b, c, d
    top = max(w.coeffs)
    with np.errstate(all="ignore"):
        got = _substitute_columns(w.coeffs, *entries)
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


def _measured(w: WeightEnumerator, rootset: RootSet):
    """The screen's {root permutation: element} (_screen, _fixing), in
    screen order, with None where no scale was found, and the permutations
    whose element fixes W within VERIFY_TOL, in the same order."""
    screened = _screen(rootset)
    measured = dict(zip(screened, _fixing(w, list(screened.values()))))
    verified = [p for p, e in measured.items() if e and e.residual <= VERIFY_TOL]
    return measured, verified


def compute_stabilizer(w: WeightEnumerator, q: int) -> StabilizerReport:
    """Full stabilizer of the homogeneous enumerator.

    Infinite verdict for the two two-root shapes; otherwise, from one root
    solve, the group of every screened root permutation.  Raises
    PrecisionFailureError when those roots cannot tell candidate images
    apart or the verified permutations do not generate the screened ones.
    """
    cls = classify(w, q)
    if cls.infinite_stabilizer:
        return StabilizerReport(verdict=Verdict.INFINITE, classification=cls)
    rootset = roots_of(w)
    measured, verified = _measured(w, rootset)
    # a group larger than the screened set cannot be it
    group = _closure(verified, len(rootset.roots), limit=len(measured))
    if group != measured.keys() or None in measured.values():
        raise PrecisionFailureError(
            f"{len(verified)} verified of {len(measured)} screened root permutations "
            f"do not generate exactly the screened ones, each rescaled"
        )
    report = StabilizerReport(
        verdict=Verdict.FINITE_GROUP,
        classification=cls,
        projective=tuple(measured.values()),
        eps=rootset.eps,
    )
    if report.size > cls.stabilizer_bound:
        raise PrecisionFailureError(
            f"group order {report.size} above Klein's bound {cls.stabilizer_bound}"
        )
    return report


# --- triviality certificates --------------------------------------------------


def _cross_parts(diff, a, b, c, x):
    """P and Q of the cross ratio P / Q of [z_a, z_b, z_c, z_x], for index
    arrays that broadcast together, from diff[i, j] = z_i - z_j."""
    return diff[a, c] * diff[b, x], diff[a, x] * diff[b, c]


def _first_block(diff):
    """P and Q of the V4 representatives (0, b, c, x), in lexicographic
    order, from diff[i, j] = z_i - z_j: one broadcast product over the
    grid of the triples (b, c, x) of indices above 0 gives the same
    elementwise products as _cross_parts, operands in the same order, and
    the cells with a repeated index are dropped."""
    ne = np.arange(len(diff) - 1)[:, None] != np.arange(len(diff) - 1)
    keep = (ne[:, :, None] & ne[:, None, :] & ne).reshape(-1)  # b != c, b != x, c != x
    rest, head = diff[1:, 1:], diff[0, 1:]  # diff[b, x] and diff[0, c]
    return (
        (head[None, :, None] * rest[:, None, :]).reshape(-1)[keep],
        (head[None, None, :] * rest[:, :, None]).reshape(-1)[keep],
    )


def _least_gaps(z, rows, threshold):
    """The smallest |P_r Q_s - Q_r P_s| over every other representative s
    of the centers z, for each representative r at `rows` of _first_block,
    as a list; None when a minimum is not above `threshold` (NaN
    included).

    Each row's minimum over the first block, its own cell set to inf, is
    U.  With the block freed, only the roots x > a, other than b and c,
    that the windows (_windows, _in_windows) hold for U and each triple
    (a, b, c), a >= 1, are compared: by _screen's argument, with P_r, Q_r
    and U for P_k, Q_k and the threshold, no gap below U is missed.  P_r
    and Q_r are elements of the block's arrays, and each gap is one
    expression on the same doubles as in the block, so the minimum is the
    same double."""
    diff = z[:, None] - z
    p, q = _first_block(diff)
    heads, least = [(p[r], q[r]) for r in rows], []
    for (pr, qr), r in zip(heads, rows):
        gaps = np.abs(pr * q - qr * p)
        gaps[r] = np.inf  # the row's own cell
        least.append(gaps.min())
        if not least[-1] > threshold:
            return None
    del p, q, gaps  # kept alive, the block would raise the peak below
    g = np.arange(len(z))
    above = (0 < g[:, None, None]) & (g[:, None, None] < g[:, None]) & (g[:, None, None] < g)
    a, b, c = np.nonzero(above & (g[:, None] != g))  # the triples with a >= 1
    ops = diff[a, c], diff[b, c], z[a], z[b]
    by_real = np.argsort(z.real)
    keys = z.real[by_real]
    ends = np.append(keys, np.nan)  # ends[lo] <= top: the window holds a root
    rounding = 2.0**-47 * np.abs(z).max() ** 2  # times |P_r| + |Q_r|
    for i, ((pr, qr), u) in enumerate(zip(heads, least)):
        bottom, top, wide = _windows(pr, qr, u + rounding * (abs(pr) + abs(qr)), *ops)
        lo = np.searchsorted(keys, bottom, "left")
        near = np.flatnonzero(wide | (ends[lo] <= top))
        t, x = _in_windows(by_real, keys, lo[near], top[near], wide[near])
        t = near[t]
        keep = (x > a[t]) & (x != b[t]) & (x != c[t])
        t, x = t[keep], x[keep]
        ps, qs = _cross_parts(diff, a[t], b[t], c[t], x)
        least[i] = min(u, np.abs(pr * qs - qr * ps).min(initial=np.inf))
        if not least[i] > threshold:
            return None
    return [float(u) for u in least]


def certify_trivial(w: WeightEnumerator, q: int) -> StabilizerReport:
    """Certified-trivial stabilizer, by the paper's two critical tuples or
    by three fixed points.

    Solves for roots once, then decides the full rows
    (_least_gaps) of the first two ordered 4-tuples, (0, 1, 2, 3) and
    (0, 1, 2, 4) (_opening_pair): when both are critical they are the
    `certificate`, and nothing else runs.  Otherwise the roots are
    screened: the first screened non-identity permutation whose map fixes
    W within VERIFY_TOL gives an Inconclusive verdict with that
    permutation as `witness`.  Every input left with neither, a failed
    root solve and roots too coarse to decide included, goes to
    invariants.fixed_points, which looks for three points that the whole
    stabilizer fixes, exactly, from W's coefficients alone; found, they
    are the proof, as `fixed_points`.  Either proof makes the projective
    stabilizer trivial, so the full GL2 stabilizer is the n scalar
    matrices zeta_n^t I.  A certificate is a proof, while a screen
    witness is a residual within VERIFY_TOL, so the certificate is
    decided first; no catalog, bench or tested enumerator has both.
    With neither a proof nor a witness the verdict is Inconclusive,
    which is weaker than and distinct from "not trivial".  On either
    verdict `eps` is the accuracy of the roots, None exactly when the
    root solve failed.
    """
    cls = classify(w, q)
    if cls.infinite_stabilizer or cls.distinct_roots < 5:
        raise DomainError(
            f"triviality certificate needs >= 5 distinct roots, "
            f"found {cls.distinct_roots or 'at most 2'}"
        )
    rootset = found = witness = points = None
    try:
        rootset = roots_of(w)
        found = _opening_pair(rootset)
        if found is None:
            identity = tuple(range(len(rootset.roots)))
            verified = _measured(w, rootset)[1]
            witness = next((p for p in verified if p != identity), None)
    except PrecisionFailureError:
        pass  # the roots cannot decide; the fixed points below use none
    if found is None and witness is None:
        points = fixed_points(w.coeffs)
    proof = found or points
    return StabilizerReport(
        verdict=Verdict.TRIVIAL_CERTIFIED if proof else Verdict.INCONCLUSIVE,
        classification=cls,
        projective=(StabilizerElement(_IDENTITY, 0.0),) if proof else (),
        certificate=found,
        fixed_points=points,
        eps=None if rootset is None else rootset.eps,
        witness=witness,
    )


def _opening_pair(rootset: RootSet):
    """(0, 1, 2, 3) and (0, 1, 2, 4), rows 0 and 1 of the representatives,
    as CriticalTuples when both are critical; otherwise None.  Raises
    DomainError below 5 roots and, as _screen does, PrecisionFailureError
    at eps >= 1/2, where no gap is certified.

    Their minima over every other representative (_least_gaps) end the
    pass as soon as either is within the certified bound 120 N^3 eps."""
    centers = rootset.centers()
    if len(centers) < 5:
        raise DomainError(f"triviality certificate needs >= 5 roots, found {len(centers)}")
    if rootset.eps >= 0.5:
        raise PrecisionFailureError("the cross-ratio test needs eps < 1/2")
    threshold = 120 * rootset.N**3 * rootset.eps
    gaps = _least_gaps(np.array(centers), (0, 1), threshold)
    return gaps and tuple(
        CriticalTuple(t, cross_ratio(*(centers[i] for i in t)), g)
        for t, g in zip(((0, 1, 2, 3), (0, 1, 2, 4)), gaps)
    )
