"""Shared test helpers: independent oracles, random code generation and
the paper's invariant matrices D_Delta and S_q."""

import cmath
import math
import random
from itertools import product

import numpy as np

from wenum import polyx
from wenum.codes import LinearCode
from wenum.errors import DomainError
from wenum.fields import GF


def gcd_distinct_roots(w):
    """Number of distinct complex roots of W(x, 1) as n - deg gcd(W, W'),
    a route that classify's Yun factors do not take."""
    p = tuple(w.coeffs)
    return w.n - polyx.degree(polyx.monic_gcd(p, polyx.derivative(p)))


def oracle_weight_coeffs(code):
    """Weight enumerator by the naive double loop: every message vector,
    codeword built with scalar field ops, weights recounted from scratch.
    Deliberately shares no code with the fast enumeration path."""
    f = code.field
    gen = code.generator
    counts = [0] * (code.n + 1)
    for msg in product(range(f.q), repeat=code.k):
        word = [0] * code.n
        for m, row in zip(msg, gen):
            for i in range(code.n):
                word[i] = f.add(word[i], f.mul(m, int(row[i])))
        counts[sum(1 for x in word if x)] += 1
    return tuple(counts[code.n - i] for i in range(code.n + 1))


def all_combinations(field, rows):
    """Every GF(q)-combination of the rows, one per message in the order of
    itertools.product (the first row takes the leading symbol), each built
    with the field's add and mul tables."""
    k = len(rows)
    msgs = np.array(list(product(range(field.q), repeat=k)), dtype=np.uint8)
    words = np.zeros((field.q**k, rows.shape[1]), dtype=np.uint8)
    for m, row in zip(msgs.reshape(field.q**k, k).T, rows):
        words = field.add_table[words, field.mul_table[m[:, None], row]]
    return words


def random_code(rng, q, n, k):
    """Random [n, k] code over GF(q), k >= 0 (rejection sampling for full
    rank)."""
    f = GF(q)
    while True:
        gen = np.array(
            [[rng.randrange(q) for _ in range(n)] for _ in range(k)],
            dtype=np.uint8,
        )
        try:
            return LinearCode(f, gen, n)
        except DomainError as exc:
            if "full row rank" not in str(exc):
                raise


def monomial_transform(rng, code):
    """Random column permutation plus nonzero column scaling of a code."""
    f = code.field
    perm = list(range(code.n))
    rng.shuffle(perm)
    scales = [rng.randrange(1, f.q) for _ in range(code.n)]
    gen = np.zeros_like(code.generator)
    for j in range(code.n):
        gen[:, perm[j]] = f.mul_table[scales[j], code.generator[:, j]]
    return LinearCode(f, gen)


def seeded(name):
    return random.Random(f"wenum:{name}")


def d_delta_matrix(delta):
    """diag(1, zeta_Delta), the divisibility invariant."""
    return ((1, 0), (0, cmath.exp(2j * cmath.pi / delta)))


def self_dual_matrix(q):
    """q^(-1/2) [[1, q-1], [1, -1]], the formal self-duality invariant."""
    s = 1.0 / math.sqrt(q)
    return ((s, s * (q - 1)), (s, -s))
