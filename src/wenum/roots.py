"""Certified complex roots of W(x, 1).

Pipeline: the exact Yun decomposition W = c * prod f_m^m over Q, as the
(f_m, m) pairs of `square_free`; then `find_roots`, for each f_m: the
Aberth-Ehrlich iteration on f_m and an a-posteriori certificate in exact
integer arithmetic, whose disks carry the multiplicity m.  The factors
are coprime, so once the disks of all factors are pairwise disjoint each
holds exactly one distinct root of W, and its multiplicity is known by
construction.

The iteration runs in numpy on the coefficients rounded to doubles and
corrects all d approximations of a sweep at once:

    z_j -= r_j / (1 - r_j * sum_{k != j} 1 / (z_j - z_k)),  r_j = p(z_j) / p'(z_j).

It starts from the Newton polygon of p (Bini, "Numerical computation of
polynomial zeros by means of Aberth's method", Numer. Algorithms 13,
1996): each edge of the upper convex hull of the points (k, log|a_k|)
puts as many points as it is long on a circle of the radius its slope
gives, close to the moduli of that many roots, and a root at 0 starts
at 0, where it stays.  The hull is decided exactly on the integer
coefficients.  A sweep evaluates p and p' as row sums of one table of
powers z_j^k.  It stops when the largest correction is within the
tolerance, or when the corrections stop falling while every |p(z_j)|
lies within 2 d u sum_k |a_k| |z_j|^k, the size of the rounding of an
evaluation in doubles (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 5).  That rule is only a heuristic for "doubles can
resolve no more"; the exact step and the certificate decide.  The exact
step takes p(z_j) at the double centers by an integer recurrence
(`_scaled_values`); p' stays in doubles, as it only scales an already
small correction.  Around that step, imaginary parts at most
2^-52 |Re z| are set to 0: real roots leave the iteration with imaginary
parts of 1e-34 and below, which would widen every exact integer through
the common power of two below.

For monic p of degree d and pairwise-distinct approximations z_1..z_d,
every root of p lies in the union of the disks

    D(z_j, d * |p(z_j)| / prod_{k != j} |z_j - z_k|),

and if the disks are pairwise disjoint each one contains exactly one
root.  Every double center is a dyadic rational, so all of them are
written over one common power of two with Gaussian-integer numerators;
p(z_j) and the differences z_j - z_k are then exact integers at a known
scale, and each squared radius is a quotient of two exact integers.  One
integer division and one integer square root round its root once, up,
to the next double (`_sqrt_up`); no Fraction is used.  A reported disk
is a proof, not an estimate.  The disks are tested for disjointness in
integers too, in one sweep along the real axis.

One accuracy, ROOT_EPS, for every solve: a radius above it or disks that
meet raise PrecisionFailureError.  No radius falls below the rounding of
the double centers, about d * ulp(max |z|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyx
from .codes import WeightEnumerator
from .errors import DomainError, PrecisionFailureError

ROOT_EPS = 1e-12  # the largest certified radius a solve accepts
_SWEEP_CAP = 1000


def square_free(w: WeightEnumerator) -> tuple:
    """Exact repeated-gcd (Yun) decomposition of W(x, 1): the (primitive
    integer factor, multiplicity) pairs of `polyx.yun_squarefree`.  The
    factors are square-free and coprime; their roots are W's distinct roots.
    """
    p = tuple(w.coeffs)
    if polyx.degree(p) < 0:
        raise DomainError("zero polynomial has no square-free part")
    return tuple(polyx.yun_squarefree(p))


@dataclass(frozen=True)
class Root:
    center: complex
    radius: float
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    """Certified, pairwise-disjoint disks, one per distinct root of W.

    Each disk carries the multiplicity of the Yun factor whose iteration
    gave its center; the disks are sorted by (real, imag) of the center.
    """

    roots: tuple
    eps: float  # max radius
    N: float  # upper bound on the modulus of every true root
    # sweeps: per Yun factor, in factor order, the Aberth corrections applied
    # in doubles; the final step with the exact residual is not counted
    sweeps: tuple = ()

    def centers(self):
        return [r.center for r in self.roots]

    def __len__(self):
        return len(self.roots)


# --- exact certification helpers -------------------------------------------


def _sqrt_up(num: int, den: int) -> float:
    """The smallest double >= sqrt(num / den), for integers num, den >= 0;
    inf when den is 0 or the root is beyond the doubles.

    m = floor(num 4^k / den) has about 120 bits and s = isqrt(m) about 60,
    so sqrt(num / den) is s 2^-k when the division and the root are exact
    and lies strictly between s 2^-k and (s + 1) 2^-k otherwise, where no
    double lies.  That integer is rounded up to 53 bits (fewer below the
    normal range) and scaled by ldexp, exactly.
    """
    if not den:
        return math.inf
    if not num:
        return 0.0
    k = (120 - num.bit_length() + den.bit_length()) // 2
    m, rem = divmod(num << 2 * k, den) if k >= 0 else divmod(num, den << -2 * k)
    s = math.isqrt(m)
    s += rem != 0 or s * s != m
    drop = max(s.bit_length() - 53, k - 1074)
    top, exp = -(-s >> drop), drop - k
    return math.ldexp(top, exp) if top.bit_length() + exp <= 1024 else math.inf


def _dyadic(centers):
    """(e, [(x_j, y_j)]) with z_j = (x_j + i*y_j) / 2**e exactly.

    Every finite double is a dyadic rational, so one power of two (the
    largest denominator of any component, whose bit length gives e) puts
    all of them over integer numerators.
    """
    parts = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio())
             for z in centers]
    e = max([den for pair in parts for _, den in pair], default=1).bit_length() - 1
    return e, [
        (xn << (e + 1 - xd.bit_length()), yn << (e + 1 - yd.bit_length()))
        for (xn, xd), (yn, yd) in parts
    ]


def _scaled_values(poly, e, points):
    """S^d * poly(z) as a Gaussian integer (re, im) for each
    z = (x + i*y) / S, S = 2**e, d = deg poly.

    Z = x + i*y is a root of the real quadratic w^2 - s w + t with s = 2x,
    t = x^2 + y^2, so with c_k = a_k S^(d - k) the recurrence
    b_k = c_k + s b_(k+1) - t b_(k+2), k = d down to 1, gives
    S^d poly(z) = (b_1 x + c_0 - t b_2) + i (b_1 y): two integer products
    per coefficient, every intermediate exact.
    """
    d = polyx.degree(poly)
    c = [a << (e * (d - k)) for k, a in enumerate(poly)]
    c0, down = c[0], c[:0:-1]  # c_0, then c_d down to c_1
    out = []
    for x, y in points:
        s, t = 2 * x, x * x + y * y
        b1 = b2 = 0
        for ck in down:
            b1, b2 = ck + s * b1 - t * b2, b1
        out.append((b1 * x + c0 - t * b2, b1 * y))
    return out


def certified_radii(poly, centers):
    """Per-center inclusion radii for `poly`, each the smallest double >=
    the exact radius; inf where two centers coincide.

    poly must have integer coefficients; centers are complex doubles.  All
    centers are written over one power of two S = 2**e with Gaussian-integer
    numerators (`_dyadic`), so |S^d p(z_j)|^2 (`_scaled_values`) and every
    |S (z_j - z_k)|^2 are integers and each squared radius
    d^2 |p(z_j)|^2 / (lc^2 prod_k |z_j - z_k|^2) is a quotient of two exact
    integers.  Each squared distance is taken once and multiplied into
    the denominators of both of its centers.
    """
    d = polyx.degree(poly)
    e, pts = _dyadic(centers)
    # S^(2(m-1)) from the m-1 differences against S^(2d) from p(z_j)
    shift = 2 * e * (len(pts) - 1 - d)
    den2 = [poly[-1] ** 2] * len(pts)
    for j, (x, y) in enumerate(pts):
        for k in range(j + 1, len(pts)):
            u, v = pts[k]
            dist2 = (x - u) * (x - u) + (y - v) * (y - v)
            den2[j] *= dist2
            den2[k] *= dist2
    return [_sqrt_up(d * d * (are * are + aim * aim) << max(shift, 0),
                     den << max(-shift, 0))
            for (are, aim), den in zip(_scaled_values(poly, e, pts), den2)]


def _disks_disjoint(centers, radii):
    """Whether the closed disks D(centers[j], radii[j]) are pairwise disjoint.

    radii are doubles (rounded up from the exact ones, which only makes the
    test stricter); centers and radii go over one power of two, so the
    comparison is exact in integers.  The disks are swept in order of the
    real part x: once u - x > r_j + max r, no later disk can meet disk j.
    Tangent disks count as overlapping.
    """
    m = len(centers)
    _, pts = _dyadic([*centers, *map(complex, radii)])
    disks = sorted((x, y, r) for (x, y), (r, _) in zip(pts, pts[m:]))
    reach = max((r for _, _, r in disks), default=0)
    for j, (x, y, r) in enumerate(disks):
        for k in range(j + 1, m):
            u, v, s = disks[k]
            if u - x > r + reach:
                break
            if (x - u) * (x - u) + (y - v) * (y - v) <= (r + s) * (r + s):
                return False
    return True


# --- iteration --------------------------------------------------------------


def _cauchy_bound(poly) -> float:
    d = polyx.degree(poly)
    lc = abs(poly[-1])
    top = max(abs(c) for c in poly[:-1]) if d else 0
    return 1.0 + _sqrt_up(top * top, lc * lc)


def _start(poly):
    """Initial approximations for the roots of the integer polynomial
    `poly`, lowest degree first (Bini 1996).

    For each edge (i, j) of the upper convex hull of the points
    (k, log|a_k|) with a_k != 0, j - i points on the circle of radius
    (|a_i| / |a_j|)^(1/(j - i)), at angles 2 pi t / (j - i) + 0.4, off the
    real axis; with a_0 = 0, one point at 0 for the root there.  The hull
    is decided exactly on the integers: for i < j < k, point j stays above
    the chord from i to k when |a_j|^(k-i) > |a_i|^(k-j) |a_k|^(j-i).  So
    collinear points join one edge, where float logs could leave two edges
    of one radius and phase, whose points coincide.
    """
    a = [abs(c) for c in poly]
    hull = []
    for k in (k for k, ak in enumerate(a) if ak):
        while len(hull) >= 2:
            i, j = hull[-2:]
            if a[j] ** (k - i) > a[i] ** (k - j) * a[k] ** (j - i):
                break
            hull.pop()
        hull.append(k)
    logs = np.log(np.array([a[k] for k in hull], dtype=float))
    z = [np.zeros(hull[0])]
    for i, j, li, lj in zip(hull, hull[1:], logs, logs[1:]):
        m = j - i
        z.append(np.exp((li - lj) / m + 1j * (2 * np.pi * np.arange(m) / m + 0.4)))
    return np.concatenate(z).astype(complex)


def _powers(z, d):
    """The table of z_j^k, one row per z_j, columns k = 0..d."""
    t = np.ones((len(z), d + 1), dtype=complex)
    t[:, 1:] = z[:, None]
    return t.cumprod(axis=1)


def _aberth_step(z, pz, dpz):
    """The Aberth correction of every z_j at once, given p(z) and p'(z)."""
    r = pz / dpz
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1)
    inv = 1 / diff
    np.fill_diagonal(inv, 0)
    return r / (1 - r * inv.sum(axis=1))


def _snap_real(z):
    """Set each imaginary part at most 2^-52 |Re z| to 0, and each real
    part at most 2^-52 |Im z|, in place."""
    re, im = np.abs(z.real), np.abs(z.imag)
    z.imag[im <= 2.0**-52 * re] = 0
    z.real[re <= 2.0**-52 * im] = 0


def _aberth(poly, tol):
    """Centers for the d roots of poly, as a list of complex doubles, and
    the number of sweeps in doubles.

    Aberth sweeps in doubles from the Newton-polygon start (`_start`).
    Each sweep builds one table of z_j^k (`_powers`) and takes p(z_j),
    p'(z_j) and the stop rule's sum_k |a_k| |z_j|^k as its row sums
    against the coefficient vectors.  The sweeps stop when the largest
    correction is at most tol, or when it stops falling while every
    |p(z_j)| is within 2 d u sum_k |a_k| |z_j|^k, u = 2^-53 (doubles
    exhausted).  Then one step with the exact residual p(z_j).  The stop
    rule is a heuristic only: the exact step and the certificate decide.
    """
    d = polyx.degree(poly)
    a = np.array(poly, dtype=float)
    da = a[1:] * np.arange(1, d + 1)
    rounding = 2 * d * 2.0**-53 * np.abs(a)  # the stop rule's weights
    z = _start(poly)
    prev = math.inf
    with np.errstate(all="ignore"):
        for sweeps in range(1, _SWEEP_CAP + 1):
            t = _powers(z, d)
            pz = (t * a).sum(axis=1)
            w = _aberth_step(z, pz, (t[:, :-1] * da).sum(axis=1))
            corr_max = np.abs(w).max()
            stalled = corr_max >= prev and (
                np.abs(pz) <= (np.abs(t) * rounding).sum(axis=1)
            ).all()
            z = z - w
            if stalled or not corr_max > tol:  # also when not a number
                break
            prev = corr_max
        if np.isfinite(z).all():
            _snap_real(z)
            e, pts = _dyadic(z.tolist())
            scale = 1 << (e * d)
            pz = np.array([complex(are / scale, aim / scale)
                           for are, aim in _scaled_values(poly, e, pts)])
            dpz = (_powers(z, d)[:, :-1] * da).sum(axis=1)
            z = z - _aberth_step(z, pz, dpz)
    if not np.isfinite(z).all():
        raise PrecisionFailureError("Aberth iteration diverged")
    _snap_real(z)
    return z.tolist(), sweeps


def find_roots(factors: tuple) -> RootSet:
    """Certified disks for the distinct roots of W, one Yun factor at a time.

    Each `square_free` pair (f, m) gets centers from one Aberth iteration on f
    (`_aberth`), certified once against f and tagged with m; the merged
    disks are checked for disjointness once.  Raises PrecisionFailureError
    when a certified radius is above ROOT_EPS, when the disks overlap, or
    when the coefficients or the iteration leave the range of doubles.
    """
    disks, sweeps = [], []
    n_val = 0.0
    for f, m in factors:
        d = polyx.degree(f)
        try:
            cauchy = _cauchy_bound(f)
            centers, count = _aberth(f, 0.25 * ROOT_EPS / d)
        except OverflowError as exc:
            raise PrecisionFailureError(
                "coefficients or iterates beyond the range of doubles"
            ) from exc
        radii = certified_radii(f, centers)
        if max(radii) > ROOT_EPS:
            raise PrecisionFailureError(f"certified radius {max(radii)} above eps={ROOT_EPS}")
        # max_j |z_j| + r_j <= top / 2^(e+64), each |S z_j| rounded up at 2^-64
        e, pts = _dyadic([*centers, *map(complex, radii)])
        top = 0
        for (x, y), (r, _) in zip(pts, pts[d:]):
            a2 = (x * x + y * y) << 128
            s = math.isqrt(a2)
            top = max(top, s + (s * s < a2) + (r << 64))
        n_f = _sqrt_up(top * top, 1 << 2 * (e + 64))
        # every certified disk of f must sit inside f's Cauchy bound
        if n_f > cauchy + 2 * max(radii):
            raise PrecisionFailureError(
                "certified root bound exceeds the Cauchy bound"
            )
        n_val = max(n_val, n_f)
        disks += [Root(center=z, radius=r, multiplicity=m)
                  for z, r in zip(centers, radii)]
        sweeps.append(count)
    disks.sort(key=lambda r: (r.center.real, r.center.imag))
    if not _disks_disjoint([r.center for r in disks],
                           [r.radius for r in disks]):
        raise PrecisionFailureError(f"certified disks overlap at eps={ROOT_EPS}")
    eps = max((r.radius for r in disks), default=0.0)
    return RootSet(roots=tuple(disks), eps=eps, N=n_val, sweeps=tuple(sweeps))


def roots_of(w: WeightEnumerator) -> RootSet:
    """Square-free decomposition and certified roots in one step."""
    return find_roots(square_free(w))
