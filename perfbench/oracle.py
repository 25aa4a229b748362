"""Correctness oracles for the benchmark.

Nothing here imports wenum: field arithmetic, brute-force enumeration,
the MacWilliams transform (through Krawtchouk polynomials) and the
first-order Reed-Muller closed form are written out again so that a
defect in the program cannot also hide in its own check.

Weight distributions here are indexed by weight (A[w] = number of
codewords of weight w).  wenum stores the reverse (a_i counts weight
n - i), so `to_dist` / `to_coeffs` convert at the boundary.

Run `python3 perfbench/oracle.py` to recompute the stored enumerators in
reference.json by brute force and compare them with the file
(`--write` rewrites it).
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
_MOD = (1 << 61) - 1  # prime modulus for the square-free test


def to_dist(coeffs):
    return list(coeffs)[::-1]


def to_coeffs(dist):
    return tuple(dist[::-1])


# --- GF(q), q in {2, 3, 4, 5}, with wenum's element indices -----------------


@lru_cache(maxsize=None)
def field_tables(q):
    """(add, mul, neg, inv) lookup tables for GF(q).

    Prime q uses residues.  GF(4) uses index a0 + 2*a1 for a0 + a1*x
    modulo x^2 + x + 1, the only irreducible quadratic over GF(2).
    """
    if q in (2, 3, 5):
        r = np.arange(q)
        add = (r[:, None] + r) % q
        mul = (r[:, None] * r) % q
    elif q == 4:
        add = np.array([[a ^ b for b in range(4)] for a in range(4)])

        def gf4_mul(a, b):
            p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
            return p ^ 0b111 if p & 0b100 else p

        mul = np.array([[gf4_mul(a, b) for b in range(4)] for a in range(4)])
    else:
        raise ValueError(f"oracle supports q in 2..5, got {q}")
    neg = [int(np.flatnonzero(add[a] == 0)[0]) for a in range(q)]
    inv = [0] + [int(np.flatnonzero(mul[a] == 1)[0]) for a in range(1, q)]
    return add.astype(np.uint8), mul.astype(np.uint8), neg, inv


def row_reduce(q, mat):
    """Reduced row-echelon form over GF(q); returns (matrix, pivots)."""
    add, mul, neg, inv = field_tables(q)
    m = np.array(mat, dtype=np.uint8)
    pivots = []
    r = 0
    for c in range(m.shape[1]):
        rows = [i for i in range(r, m.shape[0]) if m[i, c]]
        if not rows:
            continue
        m[[r, rows[0]]] = m[[rows[0], r]]
        m[r] = mul[inv[m[r, c]], m[r]]
        for i in range(m.shape[0]):
            if i != r and m[i, c]:
                m[i] = add[m[i], mul[neg[m[i, c]], m[r]]]
        pivots.append(c)
        r += 1
        if r == m.shape[0]:
            break
    return m, pivots


def rank(q, mat):
    return len(row_reduce(q, mat)[1])


def dual_generator(q, gen):
    """A basis of the orthogonal complement of the row space of gen."""
    _, _, neg, _ = field_tables(q)
    red, pivots = row_reduce(q, gen)
    n = red.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for r, c in enumerate(pivots):
            basis[row, c] = neg[red[r, f]]
    return basis


def weight_distribution(q, gen, chunk=1 << 15):
    """Weight distribution of the row space of gen by listing every
    message vector and forming its codeword from scratch."""
    add, mul, _, _ = field_tables(q)
    gen = np.asarray(gen, dtype=np.uint8)
    k, n = gen.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    place = q ** np.arange(k, dtype=np.int64)
    for start in range(0, q**k, chunk):
        idx = np.arange(start, min(start + chunk, q**k), dtype=np.int64)
        digits = (idx[:, None] // place) % q
        words = np.zeros((len(idx), n), dtype=np.uint8)
        for i in range(k):
            words = add[words, mul[digits[:, i : i + 1], gen[i]]]
        counts += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    return [int(c) for c in counts]


# --- MacWilliams through Krawtchouk polynomials ------------------------------


def krawtchouk(j, w, n, q):
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s)
        for s in range(j + 1)
    )


def dual_distribution(dist, q, size):
    """Weight distribution of the dual code, or None when some entry is
    not a nonnegative integer (then `dist` is not that of a code of
    `size` words)."""
    n = len(dist) - 1
    out = []
    for j in range(n + 1):
        total = sum(a * krawtchouk(j, w, n, q) for w, a in enumerate(dist) if a)
        quo, rem = divmod(total, size)
        if rem or quo < 0:
            return None
        out.append(quo)
    return out


def rm1_distribution(m):
    """First-order binary Reed-Muller code of length 2^m: weights 0,
    2^(m-1) (2^(m+1) - 2 words) and 2^m."""
    n = 2**m
    dist = [0] * (n + 1)
    dist[0] = dist[n] = 1
    dist[n // 2] = 2 ** (m + 1) - 2
    return dist


# --- polynomial square-freeness over GF(_MOD) --------------------------------


def _poly_mod(a, b):
    a = list(a)
    inv_lead = pow(b[-1], -1, _MOD)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % _MOD
        shift = len(a) - len(b)
        for i, v in enumerate(b):
            a[shift + i] = (a[shift + i] - c * v) % _MOD
        while a and a[-1] == 0:
            a.pop()
    return a


def has_n_distinct_roots(dist):
    """True when W(x, 1) = sum_w A[w] x^(n-w) is square-free of degree n,
    so it has n distinct roots.  The test runs modulo a large prime,
    which can only err towards "not square-free"."""
    p = [a % _MOD for a in dist[::-1]]
    dp = [i * p[i] % _MOD for i in range(1, len(p))]
    while dp and dp[-1] == 0:
        dp.pop()
    a, b = p, dp
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) == 1


# --- reference enumerators ----------------------------------------------------


def load_reference():
    """{name: (q, coeffs)} for the catalog codes in reference.json."""
    with open(REFERENCE) as fh:
        data = json.load(fh)
    return {name: (e["q"], tuple(e["coeffs"])) for name, e in data.items()}


def _reference_codes():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from wenum.reedmuller import projective_reed_muller, reed_muller

    return {
        "rm4_2_2": (4, reed_muller(4, 2, 2)),
        "rm4_3_2": (4, reed_muller(4, 3, 2)),
        "rm5_2_2": (5, reed_muller(5, 2, 2)),
        "prm5_3_2": (5, projective_reed_muller(5, 3, 2)),
    }


def main(argv):
    """Brute-force the catalog codes that state no enumerator and compare
    with (or, given --write, rewrite) reference.json.  The generator
    matrices come from wenum's Reed-Muller constructors; only the
    enumeration is independent."""
    fresh = {}
    for name, (q, code) in _reference_codes().items():
        dist = weight_distribution(q, code.generator)
        fresh[name] = {"q": q, "n": code.n, "k": code.k, "coeffs": list(to_coeffs(dist))}
    if "--write" in argv:
        REFERENCE.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    stored = load_reference()
    bad = [n for n in fresh if (fresh[n]["q"], tuple(fresh[n]["coeffs"])) != stored.get(n)]
    print("reference.json matches brute force" if not bad else f"MISMATCH: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
