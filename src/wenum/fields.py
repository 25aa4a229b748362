"""Arithmetic in small finite fields GF(q), q = p^e.

Elements are integer indices in [0, q).  For prime q the index is the
residue itself; for q = p^e the base-p digits of the index are the
coefficients of the polynomial-basis representation (digit i multiplies
x^i), so index 0 is the zero element and index 1 the multiplicative
identity.  The modulus is the canonical irreducible polynomial for q
(see below), which makes indices deterministic across runs: files only
need to record q.

Add/mul/inv tables are precomputed at construction; codeword enumeration
does all its field arithmetic through numpy lookups into these tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_Q = 256  # table memory is trivial up to here; paper targets use q <= 5


def _factor_prime_power(q: int):
    """Return (p, e) with q = p^e, or raise if q is not a prime power."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise DomainError(f"{q} is not a prime power")
    return p, e


def _poly_mod_mul(a, b, modulus, p):
    """Multiply coefficient lists over GF(p) and reduce mod `modulus`."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # modulus is monic of degree e; reduce from the top
    e = len(modulus) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            for j in range(e + 1):
                out[i - e + j] = (out[i - e + j] - c * modulus[j]) % p
    return out[:e]


def _is_irreducible(poly, p):
    """Trial division of a monic poly over GF(p) by all lower-degree monics."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for idx in range(p**d):
            div = _digits(idx, p, d) + [1]
            if not _poly_divmod_rem(poly, div, p):
                return False
    return True


def _poly_divmod_rem(num, den, p):
    rem = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = (rem[i] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _digits(value, p, width):
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _canonical_irreducible(p, e):
    """First monic degree-e irreducible, scanning the low coefficients as a
    base-p counter.  Fixed scan order keeps element indices reproducible."""
    for idx in range(p**e):
        poly = _digits(idx, p, e) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class FiniteField:
    """GF(q) with precomputed operation tables.

    Immutable after construction (tables are read-only numpy arrays), so
    instances are safe to share across threads.
    """

    def __init__(self, q: int):
        if q > MAX_Q:
            raise DomainError(f"field size {q} exceeds supported cap {MAX_Q}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.irreducible = _canonical_irreducible(p, e) if e > 1 else (0, 1)
        self._build_tables()

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        if e == 1:
            for a in range(q):
                for b in range(q):
                    add[a, b] = (a + b) % p
                    mul[a, b] = (a * b) % p
        else:
            mod = list(self.irreducible)
            vecs = [_digits(v, p, e) for v in range(q)]
            for a in range(q):
                for b in range(q):
                    s = [(x + y) % p for x, y in zip(vecs[a], vecs[b])]
                    add[a, b] = _value(s, p)
                    m = _poly_mod_mul(vecs[a], vecs[b], mod, p)
                    mul[a, b] = _value(m, p)
        neg = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                if add[a, b] == 0:
                    neg[a] = b
                    break
        sub = add[:, neg]  # a - b = a + (-b)
        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            hits = np.nonzero(mul[a] == 1)[0]
            if len(hits) != 1:
                raise AssertionError("multiplication table is not a field")
            inv[a] = hits[0]
        for t in (add, mul, sub, neg, inv):
            t.setflags(write=False)
        self.add_table = add
        self.mul_table = mul
        self.sub_table = sub
        self.neg_table = neg
        self.inv_table = inv

    # scalar operations on element indices
    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        acc = 1
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.q == other.q

    def __hash__(self):
        return hash(("FiniteField", self.q))

    def __repr__(self):
        return f"GF({self.q})"


def _value(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


@lru_cache(maxsize=None)
def GF(q: int) -> FiniteField:
    """Cached canonical field of size q."""
    return FiniteField(q)
