"""Exact invariants of an enumerator's stabilizer, and the points they fix.

W of degree n is the binary form Q(x, y) = sum_i w_i x^i y^(n-i); each
form is held as its value at y = 1, a polyx polynomial, together with its
formal degree (the dehomogenized polynomial may have a lower one).  The
transvectants H = (Q, Q)^(2), T = (Q, H)^(1) and V = (Q, H)^(2) are
covariants: for g in GL2(C), (Q o g, Q o g)^(2) = det(g)^2 H o g, and
likewise T with det(g)^3 and V with det(g)^4.  So for every g with
Q o g = lambda Q, the GL2 stabilizer G up to scalars, J = T^2 / H^3 and
K = Q V / H^2 are absolute invariants, and the zero set of H is G-stable
(Olver, Classical Invariant Theory, 1999; Berchenko & Olver, "Symmetries
of polynomials", J. Symbolic Comput. 29, 2000).

Fixed points: for a point x0 with H(x0) != 0, the orbit G x0 lies in the
fibre of (J, K) through x0 and misses the zeros of H.  When that fibre is
{x0}, every element of G fixes x0, and three such points leave only the
identity of PGL2(C): G is the n scalar matrices.  The affine fibre off
H = 0 is the common zeros of A = T^2 H(x0)^3 - H^3 T(x0)^2 and
B = Q V H(x0)^2 - H^2 (Q V)(x0) there; (1 : 0) lies in it when
H(1, 0) != 0 and the formal top coefficients of A and B both vanish.  At a
zero of H, A vanishes exactly where T does, so every such zero of A is one
of R = gcd(H, T), computed once per W.  With every factor x - x0 divided
out of A and every factor it shares with R stripped, what is left, a,
holds the rest of the fibre among its zeros, so a coprime to B
(polyx.coprime) proves the fibre is {x0}.  All of it is exact arithmetic
in Z[x]: no roots and no eps.  A point that does not prove (A = 0 when J is
constant, (1 : 0) in the fibre, or a modular gcd that is not 1) proves
nothing either way.
"""

from __future__ import annotations

from math import comb

from .polyx import coprime, degree, derivative, div_exact, monic_gcd, mul, normalize, sub

_POINTS = (2, 3, 5, 7)  # the candidate fixed points (x0 : 1), in the order tried


def _at(p, x):
    """p(x), by Horner."""
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _top(p, deg):
    """The x^deg coefficient of p: at a form's formal degree, its value at (1 : 0)."""
    return p[deg] if deg < len(p) else 0


def _partial(f, m, i, j):
    """d^(i+j) F / dx^i dy^j at y = 1, for the form F of degree m with
    F(x, 1) = f; at y = 1 Euler's identity x F_x + y F_y = m F gives
    F_y = m f - x f'."""
    for _ in range(j):
        f, m = sub(mul((m,), f), mul((0, 1), derivative(f))), m - 1
    for _ in range(i):
        f = derivative(f)
    return f


def _transvectant(f, m, g, p, k):
    """(F, G)^(k) = sum_i (-1)^i C(k, i) F_(x^(k-i) y^i) G_(x^i y^(k-i)) at
    y = 1, for the forms of degrees m and p with F(x, 1) = f and
    G(x, 1) = g; it has formal degree m + p - 2k."""
    out = ()
    for i in range(k + 1):
        term = mul(_partial(f, m, k - i, i), _partial(g, p, i, k - i))
        out = sub(out, mul(((-1) ** (i + 1) * comb(k, i),), term))
    return out


def _covariants(q, n):
    """H, T and V of the form of degree n with Q(x, 1) = q, of formal
    degrees 2n - 4, 3n - 6 and 3n - 8."""
    h = _transvectant(q, n, q, n, 2)
    return h, _transvectant(q, n, h, 2 * n - 4, 1), _transvectant(q, n, h, 2 * n - 4, 2)


def fixed_points(coeffs):
    """The first three points x0 of _POINTS whose (J, K) fibre is {x0}, as
    a tuple: a proof that the stabilizer of the enumerator with `coeffs`
    is the n scalar matrices.  None when fewer than three prove, which
    says nothing about the stabilizer."""
    n = len(coeffs) - 1
    q = normalize(coeffs)
    h, t, v = _covariants(q, n)
    qv, h2, t2 = mul(q, v), mul(h, h), mul(t, t)
    h3 = mul(h2, h)
    r = monic_gcd(h, t)
    proved = []
    for x0 in _POINTS:
        h0 = _at(h, x0)
        if h0 == 0:
            continue
        a = sub(mul(t2, (h0**3,)), mul(h3, (_at(t, x0) ** 2,)))
        b = sub(mul(qv, (h0**2,)), mul(h2, (_at(qv, x0),)))
        if not a:  # J is constant
            continue
        if _top(h, 2 * n - 4) and not _top(a, 6 * n - 12) and not _top(b, 4 * n - 8):
            continue  # (1 : 0) lies in the fibre
        while _at(a, x0) == 0:
            a = div_exact(a, (-x0, 1))
        g = monic_gcd(a, r)
        while degree(g) > 0:  # strip the zeros of H
            a = div_exact(a, g)
            g = monic_gcd(a, g)
        if coprime(a, b):
            proved.append(x0)
            if len(proved) == 3:
                return tuple(proved)
    return None
