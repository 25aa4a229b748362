"""Arithmetic in small finite fields GF(q), q = p^e.

Elements are integer indices in [0, q) whose base-p digits are the
coefficients of the polynomial-basis representation (digit i multiplies
x^i): index 0 is zero, index 1 is one, and for prime q the index is the
residue.  The field is GF(p)[x] / (x^e + low) for a canonical `low`, so
indices are deterministic across runs: files only need to record q.

One numpy construction serves every q.  Sums and scalar multiples act
digit by digit; multiplying by x shifts an index up one digit and
subtracts (top digit) * low, an x-times table; each row of the product
table then follows by Horner over the digits of one factor.  The
canonical `low` is the first, counting its digits as a base-p number,
for which no nonzero element of degree <= e/2 is a zero divisor.  That
is the first irreducible x^e + low, as trial division finds it: a
reducible monic polynomial has a monic factor of degree 1..e/2, whose
residue is a nonzero zero divisor, and a field has none.

Codeword enumeration does all its field arithmetic through numpy lookups
into the read-only tables built here.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_Q = 256  # the tables are uint8


def _factor_prime_power(q: int):
    """Return (p, e) with q = p^e, or raise if q is not a prime power."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    p = next(c for c in range(2, q + 1) if q % c == 0)
    e = 1
    while p**e < q:
        e += 1
    if p**e != q:
        raise DomainError(f"{q} is not a prime power")
    return p, e


class FiniteField:
    """GF(q) with precomputed operation tables.

    Immutable after construction (tables are read-only numpy arrays), so
    instances are safe to share across threads.
    """

    def __init__(self, q: int):
        try:
            q = operator.index(q)  # a numpy integer would overflow q**k
        except TypeError:
            raise DomainError(f"field size must be an integer, got {q!r}") from None
        if q > MAX_Q:
            raise DomainError(f"field size {q} exceeds supported cap {MAX_Q}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self._build_tables()

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        place = p ** np.arange(e)
        index = np.arange(q)
        digits = index[:, None] // place % p
        add = (digits[:, None] + digits) % p @ place
        scal = np.arange(p)[:, None, None] * digits % p @ place  # [c, a] = c*a
        shifted = digits[index % (q // p) * p]  # digits of x*a before reduction

        def times(xtimes, rows):
            """Products rows[i] * a for every element a, by Horner."""
            out = np.zeros((len(rows), q), dtype=np.intp)
            for i in reversed(range(e)):
                out = add[xtimes[out], scal[digits[rows, i]]]
            return out

        # the nonzero elements of degree <= e/2
        small = np.arange(1, p ** (e // 2 + 1))
        for low in range(q):
            xtimes = (shifted - digits[:, -1:] * digits[low]) % p @ place
            if not (times(xtimes, small)[:, 1:] == 0).any():
                break
        self.irreducible = tuple(digits[low].tolist()) + (1,)
        mul = times(xtimes, index)
        neg = (add == 0).argmax(axis=1)
        inv = (mul == 1).argmax(axis=1)  # 0 at 0
        tables = [t.astype(np.uint8)  # sub: a - b = a + (-b)
                  for t in (add, mul, add[:, neg], neg, inv)]
        for t in tables:
            t.setflags(write=False)
        (self.add_table, self.mul_table, self.sub_table, self.neg_table,
         self.inv_table) = tables

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

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.q == other.q

    def __hash__(self):
        return hash(("FiniteField", self.q))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def GF(q: int) -> FiniteField:
    """Cached canonical field of size q."""
    return FiniteField(q)
