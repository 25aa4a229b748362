"""Exact univariate polynomial arithmetic over the integers.

Polynomials are tuples of int coefficients in ascending order (index i
holds the x^i coefficient), with no trailing zeros.  A nonzero polynomial
is primitive when its coefficients have gcd 1 and its leading coefficient
is positive; each nonzero polynomial over Q has one rational multiple in
that form, and a gcd over Q is returned in it.  Degrees stay small here
(weight enumerators have degree = code length), so the gcd is a primitive
pseudo-remainder sequence (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 6): each remainder is lc(b)^k a mod b, which stays in Z[x],
with its content divided out.  One early exit comes first: coprime, a
gcd modulo the prime _P, can prove p and q coprime and never does so
wrongly; when it cannot, the sequence decides.  Gauss's lemma also keeps
Yun's divisions in Z[x]: a primitive gcd divides its integer multiples
there.
"""

from __future__ import annotations

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


def div_exact(p: Poly, q: Poly) -> Poly:
    """p / q; ValueError unless the quotient lies in Z[x]."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem, dq = list(p), len(q) - 1
    quo = [0] * max(len(p) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c, r = divmod(rem[i], q[-1])
        if r:
            raise ValueError("inexact polynomial division")
        quo[i - dq] = c
        rem[i - dq:i] = [u - c * v for u, v in zip(rem[i - dq:i], q)]
    if any(rem[:dq]):
        raise ValueError("inexact polynomial division")
    return normalize(quo)


def derivative(p: Poly) -> Poly:
    return normalize(i * p[i] for i in range(1, len(p)))


def coprime(p: Poly, q: Poly) -> bool:
    """Whether p and q have a nonzero constant gcd modulo _P, and _P does
    not divide lc(p): then they are coprime over Q.

    The images of p and q go through Euclid over GF(_P).  The test is
    one-sided and sound: let g be the primitive gcd of p and q.  By
    Gauss's lemma g divides p and q in Z[x], so lc(g) divides lc(p); when
    _P does not divide lc(p), g modulo _P keeps its degree and divides
    both images, so deg g <= deg gcd over GF(_P).  False proves nothing:
    a nonconstant gcd modulo _P may come from an unlucky prime."""
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


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder lc(b)^k a mod b in Z[x], k <= deg a - deg b + 1."""
    a = list(a)
    while len(a) >= len(b):  # a = lc(b) a - lc(a) x^shift b
        c, shift = a[-1], len(a) - len(b)
        a[:shift] = [b[-1] * u for u in a[:shift]]
        a[shift:-1] = [b[-1] * u - c * v for u, v in zip(a[shift:-1], b)]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def monic_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd over Q in primitive form ((1,) for coprime inputs, () only if
    both are zero).  perfbench/trace.py patches it by this name."""
    if coprime(p, q):
        return (1,)
    a, b = p, q
    while b:
        a, b = b, primitive_int(_prem(a, b))
    return primitive_int(a)


def primitive_int(p: Poly) -> Poly:
    """The primitive form: content 1 and positive leading coefficient."""
    if not p:
        return ()
    g = int_gcd(*p) if p[-1] > 0 else -int_gcd(*p)
    return tuple(v // g for v in p)


def yun_squarefree(p: Poly):
    """Yun decomposition p = const * prod f_i^i with f_i square-free, coprime.

    Returns a list of (factor, multiplicity) with factor in primitive
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
            out.append((f, i))
        c2 = div_exact(c, f)
        d = sub(div_exact(d, f), derivative(c2))
        c = c2
        i += 1
    return out
