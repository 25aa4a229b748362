"""Certified complex roots of W(x, 1).

Pipeline: the exact Yun decomposition W = c * prod f_m^m over Q, as the
(f_m, m) pairs of `square_free`; then `find_roots`, for each f_m: the
Aberth-Ehrlich iteration on f_m and an a-posteriori certificate in exact
integer arithmetic, whose disks carry the multiplicity m.  The factors
are coprime, so once the disks of all factors are pairwise disjoint each
holds exactly one distinct root of W, and its multiplicity is known by
construction.

The iteration runs in numpy on the coefficients rounded to doubles and
corrects all d approximations of a sweep at once, from a circle that
encloses every root:

    z_j -= r_j / (1 - r_j * sum_{k != j} 1 / (z_j - z_k)),  r_j = p(z_j) / p'(z_j).

Once doubles stall, one more step takes p(z_j) exactly at the double
centers; p' stays in doubles, as it only scales an already small
correction.  Around that step, imaginary parts at most 2^-52 |Re z| are
set to 0: real roots leave the iteration with imaginary parts of 1e-34
and below, which would widen every exact integer through the common
power of two below.

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
is a proof, not an estimate.

Certified radii cannot fall below the rounding of the double centers
(about d * ulp(max |z|)); a finer target raises PrecisionFailureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyx
from .codes import WeightEnumerator
from .errors import (
    ClusterUnresolvedError,
    DomainError,
    PrecisionFailureError,
)

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
    sweeps: tuple = ()  # Aberth sweeps of each Yun factor, in factor order

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
    largest denominator of any component) puts all of them over integer
    numerators.
    """
    parts = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio())
             for z in centers]
    e = max((den.bit_length() - 1 for pair in parts for _, den in pair),
            default=0)
    return e, [
        (xn << (e + 1 - xd.bit_length()), yn << (e + 1 - yd.bit_length()))
        for (xn, xd), (yn, yd) in parts
    ]


def _scaled_values(poly, e, points):
    """S^d * poly(z) as a Gaussian integer (re, im) for each
    z = (x + i*y) / S, S = 2**e, d = deg poly.

    Horner over the Gaussian integers, with coefficient i scaled by
    S^(d - i): every intermediate is an exact integer.
    """
    d = polyx.degree(poly)
    coeffs = [c << (e * (d - i)) for i, c in enumerate(poly)][::-1]
    out = []
    for x, y in points:
        are, aim = 0, 0
        for c in coeffs:
            are, aim = are * x - aim * y + c, are * y + aim * x
        out.append((are, aim))
    return out


def certified_radii(poly, centers):
    """Per-center inclusion radii for `poly`, each the smallest double >=
    the exact radius; inf where two centers coincide.

    poly must have integer coefficients; centers are complex doubles.  All
    centers are written over one power of two S = 2**e with Gaussian-integer
    numerators (`_dyadic`), so |S^d p(z_j)|^2 and every |S (z_j - z_k)|^2
    are integers and each squared radius
    d^2 |p(z_j)|^2 / (lc^2 prod_k |z_j - z_k|^2) is a quotient of two exact
    integers.
    """
    d = polyx.degree(poly)
    lc = poly[-1]
    e, pts = _dyadic(centers)
    # S^(2(m-1)) from the m-1 differences against S^(2d) from p(z_j)
    shift = 2 * e * (len(pts) - 1 - d)
    radii = []
    for j, (are, aim) in enumerate(_scaled_values(poly, e, pts)):
        x, y = pts[j]
        den2 = lc * lc
        for k, (u, v) in enumerate(pts):
            if k != j:
                den2 *= (x - u) * (x - u) + (y - v) * (y - v)
        num2 = d * d * (are * are + aim * aim)
        radii.append(_sqrt_up(num2 << max(shift, 0), den2 << max(-shift, 0)))
    return radii


def _disks_disjoint(centers, radii):
    """Whether the closed disks D(centers[j], radii[j]) are pairwise disjoint.

    radii are doubles (rounded up from the exact ones, which only makes the
    test stricter); centers and radii go over one power of two, so the
    comparison is exact in integers.
    """
    m = len(centers)
    _, pts = _dyadic([*centers, *map(complex, radii)])
    rs = [r for r, _ in pts[m:]]
    for j in range(m):
        x, y = pts[j]
        for k in range(j + 1, m):
            u, v = pts[k]
            lim = rs[j] + rs[k]
            if (x - u) * (x - u) + (y - v) * (y - v) <= lim * lim:
                return False
    return True


# --- iteration --------------------------------------------------------------


def _cauchy_bound(poly) -> float:
    d = polyx.degree(poly)
    lc = abs(poly[-1])
    top = max(abs(c) for c in poly[:-1]) if d else 0
    return 1.0 + _sqrt_up(top * top, lc * lc)


def _fujiwara_bound(poly) -> float:
    """2 * max_i (|a_(d-i)|/|a_d|)^(1/i), another all-roots enclosure.

    Far tighter than the Cauchy bound when the middle coefficients are
    huge (MacWilliams duals reach ~q^n scale); starting the iteration on
    the Cauchy circle would overflow doubles there, since |z|^d can pass
    1e308 already at degree ~30.
    """
    d = polyx.degree(poly)
    lc = abs(poly[-1])
    best = 0.0
    for i in range(1, d + 1):
        c = abs(poly[d - i])
        if not c:
            continue
        # log via bit lengths stays safe for arbitrarily big ints
        lg = (c.bit_length() - lc.bit_length() + 1) * math.log(2)
        best = max(best, math.exp(lg / i))
    return 2.0 * best if best else 1.0


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


def _aberth(poly, radius, tol):
    """Centers for the d roots of poly, as a list of complex doubles, and
    the number of sweeps in doubles.

    Aberth sweeps in doubles from the circle of the given radius, until
    the largest correction is at most tol or no sweep in a 40-sweep window
    beat the running best by a factor 1.5 (doubles exhausted); then one
    step with the exact residual p(z_j).
    """
    d = polyx.degree(poly)
    coeffs = np.array(poly[::-1], dtype=float)
    dcoeffs = np.polyder(coeffs)
    z = radius * np.exp(1j * (2 * np.pi * np.arange(d) / d + 0.4))
    best = math.inf
    since_best = 0
    with np.errstate(all="ignore"):
        for sweeps in range(1, _SWEEP_CAP + 1):
            w = _aberth_step(z, np.polyval(coeffs, z), np.polyval(dcoeffs, z))
            z = z - w
            corr_max = np.abs(w).max()
            if corr_max <= tol:
                break
            if corr_max * 1.5 <= best:
                best = corr_max
                since_best = 0
            else:
                since_best += 1
                if since_best >= 40:
                    break
        if np.isfinite(z).all():
            _snap_real(z)
            e, pts = _dyadic(z.tolist())
            scale = 1 << (e * d)
            pz = np.array([complex(are / scale, aim / scale)
                           for are, aim in _scaled_values(poly, e, pts)])
            z = z - _aberth_step(z, pz, np.polyval(dcoeffs, z))
    if not np.isfinite(z).all():
        raise PrecisionFailureError("Aberth iteration diverged")
    _snap_real(z)
    return z.tolist(), sweeps


def find_roots(factors: tuple, target_eps: float) -> RootSet:
    """Certified disks for the distinct roots of W, one Yun factor at a time.

    Each `square_free` pair (f, m) gets centers from one Aberth iteration on f
    (`_aberth`), certified once against f and tagged with m; the merged
    disks are checked for disjointness once.  Raises PrecisionFailureError
    when a certified radius is above target_eps, or when the coefficients
    or the iteration leave the range of doubles; ClusterUnresolvedError
    when radii within target_eps give overlapping disks.
    """
    if target_eps <= 0:
        raise DomainError("target_eps must be positive")
    disks, sweeps = [], []
    n_val = 0.0
    for f, m in factors:
        d = polyx.degree(f)
        try:
            cauchy = _cauchy_bound(f)
            centers, count = _aberth(f, min(cauchy, _fujiwara_bound(f)),
                                     0.25 * target_eps / d)
        except OverflowError as exc:
            raise PrecisionFailureError(
                "coefficients or iterates beyond the range of doubles"
            ) from exc
        radii = certified_radii(f, centers)
        if max(radii) > target_eps:
            raise PrecisionFailureError(
                f"certified radius {max(radii)} above eps={target_eps}"
            )
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
        raise ClusterUnresolvedError(
            f"certified disks overlap at eps={target_eps}"
        )
    eps = max((r.radius for r in disks), default=0.0)
    return RootSet(roots=tuple(disks), eps=eps, N=n_val, sweeps=tuple(sweeps))


def roots_of(w: WeightEnumerator, target_eps: float) -> RootSet:
    """Square-free decomposition and certified roots in one step."""
    return find_roots(square_free(w), target_eps)
