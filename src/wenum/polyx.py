"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are tuples of coefficients in ascending order (index i holds
the x^i coefficient), with no trailing zeros.  Coefficients are ints or
fractions.Fraction; all operations are exact.  Degrees stay small here
(weight enumerators have degree = code length), so the gcd is plain
Euclid over Q, after one early exit for integer inputs: their images
modulo the prime _P go through Euclid over GF(_P) first, and a nonzero
constant gcd there proves them coprime over Q.  The exit is one-sided
and sound: let g be the primitive integer gcd of p and q.  By Gauss's
lemma g divides p and q in Z[x], so lc(g) divides lc(p); when _P does
not divide lc(p), g modulo _P keeps its degree and divides both images,
so deg gcd over Q <= deg gcd over GF(_P).  A nonconstant gcd modulo _P
proves nothing, and Euclid over Q decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

Poly = tuple
_P = 2**61 - 1  # a Mersenne prime


def normalize(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return normalize(
        (p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
        for i in range(n)
    )


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def divmod_exact(p: Poly, q: Poly):
    """Quotient and remainder over Q.  q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(a) for a in p]
    lead = Fraction(q[-1])
    dq = len(q) - 1
    quo = [Fraction(0)] * max(len(p) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] / lead
        if c == 0:
            continue
        quo[i - dq] = c
        for j, b in enumerate(q):
            rem[i - dq + j] -= c * b
    return normalize(quo), normalize(rem)


def div_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = divmod_exact(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return quo


def derivative(p: Poly) -> Poly:
    return normalize(i * p[i] for i in range(1, len(p)))


def _coprime_mod_p(p: Poly, q: Poly) -> bool:
    """Whether integer p and q have a nonzero constant gcd modulo _P, and
    _P does not divide lc(p): then they are coprime over Q."""
    if not p or p[-1] % _P == 0:
        return False
    a, b = [c % _P for c in p], list(normalize(c % _P for c in q))
    while b:
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):  # a -= c x^shift b, which clears lc(a)
            c, shift = a[-1] * inv % _P, len(a) - len(b)
            a[shift:-1] = [(u - c * v) % _P for u, v in zip(a[shift:-1], b)]
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def monic_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q (1-tuple for coprime inputs, () only if both zero)."""
    if all(type(c) is int for c in p + q) and _coprime_mod_p(p, q):
        return (Fraction(1),)
    a, b = p, q
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if not a:
        return ()
    return normalize(Fraction(c) / Fraction(a[-1]) for c in a)


def primitive_int(p: Poly) -> Poly:
    """Integer form with content 1 and positive leading coefficient."""
    if not p:
        return ()
    fracs = [Fraction(c) for c in p]
    den = 1
    for f in fracs:
        den = den * f.denominator // int_gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for v in ints:
        g = int_gcd(g, v)
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def yun_squarefree(p: Poly):
    """Yun decomposition p = const * prod f_i^i with f_i square-free, coprime.

    Returns a list of (factor, multiplicity) with factor in primitive integer
    form and deg(factor) > 0, in increasing multiplicity order.
    """
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = monic_gcd(p, dp)
    if degree(g) == 0:
        return [(primitive_int(p), 1)]
    out = []
    c = div_exact(p, g)
    d = sub(div_exact(dp, g), derivative(c))
    i = 1
    while degree(c) > 0:
        f = monic_gcd(c, d)
        if degree(f) > 0:
            out.append((primitive_int(f), i))
        c2 = div_exact(c, f)
        d = sub(div_exact(d, f), derivative(c2))
        c = c2
        i += 1
    return out

