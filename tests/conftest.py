"""Shared test helpers: independent oracles, random code generation, the
certificate tests' enumerators and the paper's invariant matrices D_Delta
and S_q."""

import cmath
import math
import random
from itertools import product

import numpy as np
import pytest

from wenum import polyx
from wenum.algebra import classify, macwilliams
from wenum.catalog import rm2_closed_form
from wenum.codes import LinearCode, WeightEnumerator, enumerate_weights
from wenum.errors import DomainError
from wenum.fields import GF
from wenum.reedmuller import reed_muller


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


def monomial_transform(rng, code, perm=None):
    """Column permutation (column j moves to perm[j]; random if None) plus
    random nonzero column scaling of a code."""
    f = code.field
    if perm is None:
        perm = list(range(code.n))
        rng.shuffle(perm)
    scales = [rng.randrange(1, f.q) for _ in range(code.n)]
    gen = np.zeros_like(code.generator)
    for j in range(code.n):
        gen[:, perm[j]] = f.mul_table[scales[j], code.generator[:, j]]
    return LinearCode(f, gen)


def seeded(name):
    return random.Random(f"wenum:{name}")


def certify_enumerators():
    """(name, W, q): catalog enumerators, seeded random codes with at
    least five distinct roots, binary codes holding the all-ones word
    (palindromic W, so no certificate exists), and all their duals."""
    out = [
        ("gleason", WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1)), 2),
        ("rm2_1_3", rm2_closed_form(3), 2),
        ("rm4_2_2", enumerate_weights(reed_muller(4, 2, 2)), 4),
        ("rm4_3_2", enumerate_weights(reed_muller(4, 3, 2)), 4),
    ]
    shapes = [(2, 12, 5), (3, 11, 4), (4, 10, 4), (5, 12, 4)] * 5
    shapes += [(2, 10, 4, "ones")] * 3
    for slot, (q, n, k, *ones) in enumerate(shapes):
        rng = seeded(f"scan:{slot}")
        while True:
            code = random_code(rng, q, n, k)
            if ones:
                gen = np.vstack([code.generator, np.ones(n, np.uint8)])
                code = LinearCode(code.field, gen)
            w = enumerate_weights(code)
            cls = classify(w, q)
            if not cls.infinite_stabilizer and cls.distinct_roots >= 5:
                break
        size = q**code.k
        out.append((f"rand{slot}_q{q}_{n}_{code.k}", w, q))
        out.append((f"rand{slot}_q{q}_{n}_{code.k}_dual", macwilliams(w, q, size), q))
    return [pytest.param(w, q, id=name) for name, w, q in out]


def d_delta_matrix(delta):
    """diag(1, zeta_Delta), the divisibility invariant."""
    return ((1, 0), (0, cmath.exp(2j * cmath.pi / delta)))


def self_dual_matrix(q):
    """q^(-1/2) [[1, q-1], [1, -1]], the formal self-duality invariant."""
    s = 1.0 / math.sqrt(q)
    return ((s, s * (q - 1)), (s, -s))
