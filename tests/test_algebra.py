"""MacWilliams transform, divisibility, FSD, and shape classification."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np
import pytest

from conftest import (
    d_delta_matrix,
    oracle_weight_coeffs,
    random_code,
    seeded,
    self_dual_matrix,
)
from wenum.algebra import (
    Shape,
    classify,
    distinct_root_count,
    divisibility,
    is_formally_self_dual,
    macwilliams,
    substitute_linear,
)
from wenum.catalog import catalog, rm2_closed_form
from wenum.codes import (
    LinearCode,
    WeightEnumerator,
    decompose_case_c,
    direct_sum,
    dual,
    enumerate_weights,
    full_space_enumerator,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from wenum.errors import ClassificationError, NotACodeEnumeratorError
from wenum.fields import GF
from wenum.reedmuller import projective_reed_muller, reed_muller
from wenum.roots import roots_of
from wenum.stabilizer import ROOT_EPS, _screen

GLEASON = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))


def test_gleason_fixed_point():
    assert macwilliams(GLEASON, 2, 16) == GLEASON


def test_macwilliams_of_zero_code():
    for q in (2, 3, 5):
        for n in (1, 4, 7):
            assert macwilliams(zero_code_enumerator(n), q, 1) == (
                full_space_enumerator(n, q)
            )


def test_macwilliams_matches_dual_enumeration():
    # enumerate_weights transforms the smaller side, so both sides are
    # counted by the naive oracle instead
    rng = seeded("macwilliams")
    for q in (2, 3, 4, 5):
        for _ in range(4):
            n = rng.randrange(4, 10)
            k = rng.randrange(1, n)
            if q ** max(k, n - k) > 1000:
                continue
            code = random_code(rng, q, n, k)
            w = WeightEnumerator(oracle_weight_coeffs(code))
            want = WeightEnumerator(oracle_weight_coeffs(dual(code)))
            assert macwilliams(w, q, code.size) == want


def test_macwilliams_involution_prm():
    prm = projective_reed_muller(5, 3, 2)
    w = enumerate_weights(prm)
    wd = macwilliams(w, 5, 5**10)
    assert sum(wd.coeffs) == 5**21
    assert macwilliams(wd, 5, 5**21) == w


def test_macwilliams_rejects_non_enumerator():
    bogus = WeightEnumerator((0, 1, 1))
    with pytest.raises(NotACodeEnumeratorError):
        macwilliams(bogus, 2, 16)


def test_divisibility_gleason_doubly_even():
    assert divisibility(GLEASON) == 4


def test_divisibility_pair():
    for q in (2, 3, 4, 5):
        assert divisibility(pair_sum_enumerator(2, q)) == 2


def test_divisibility_enumerated_code():
    w = enumerate_weights(reed_muller(4, 2, 2))
    import math

    g = 0
    for i, a in enumerate(w.coeffs):
        if a and w.n - i:
            g = math.gcd(g, w.n - i)
    assert divisibility(w) == g


def test_divisibility_matches_d_delta_symbolically():
    # a_i != 0 implies Delta | (n - i)
    rng = seeded("divis")
    for q in (2, 3, 4):
        code = random_code(rng, q, 8, 3)
        w = enumerate_weights(code)
        delta = divisibility(w)
        if delta:
            for i, a in enumerate(w.coeffs):
                if a:
                    assert (w.n - i) % delta == 0


def test_fsd_pair_sums():
    for n in (2, 4, 8):
        w = pair_sum_enumerator(n, 2)
        assert is_formally_self_dual(w, 2, 2 ** (n // 2))


def test_fsd_zero_code_false():
    assert not is_formally_self_dual(zero_code_enumerator(4), 2, 1)


def test_fsd_x2_code():
    # the [6,3,2] catalog code is formally self-dual but not self-dual
    code = LinearCode(
        GF(2),
        [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1]],
    )
    w = enumerate_weights(code)
    assert is_formally_self_dual(w, 2, 8)
    assert not dual(code).row_space_equal(code)


def test_classify_shapes():
    coordinate = Shape.COORDINATE_SUBSPACE
    assert classify(zero_code_enumerator(5), 3).shape is coordinate
    assert classify(full_space_enumerator(3, 5), 5).shape is coordinate
    # GF(5)^2 + 0^3: x^3 (x + 4y)^2
    w = zero_code_enumerator(3) * full_space_enumerator(2, 5)
    assert classify(w, 5).shape is coordinate
    assert classify(pair_sum_enumerator(4, 4), 4).shape is Shape.PAIR_SUM
    res = classify(GLEASON, 2)
    assert res.shape is Shape.THREE_PLUS_ROOTS
    assert res.distinct_roots == 8
    assert res.stabilizer_bound == 8 * 60  # n * max(2d, 60)


def test_classify_rejects_non_enumerator():
    with pytest.raises(NotACodeEnumeratorError):
        classify(WeightEnumerator((1, 1, 2)), 2)
    # two distinct roots but wrong shape for the stated q
    with pytest.raises(NotACodeEnumeratorError):
        classify(WeightEnumerator((4, 4, 1)), 5)  # (x+2)^2 over GF(5)


def _rref_generators(q, n):
    """Every generator matrix over GF(q) of length n in reduced row-echelon
    form, k = 0..n: one per subspace of GF(q)^n."""
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, n) if j not in pivots]
            for values in product(range(q), repeat=len(free)):
                gen = np.zeros((k, n), dtype=np.uint8)
                gen[list(range(k)), list(pivots)] = 1
                for (i, j), v in zip(free, values):
                    gen[i, j] = v
                yield gen


@pytest.mark.parametrize("q, subspaces", [(3, 248), (4, 582), (5, 1194)])
def test_classify_every_small_subspace(q, subspaces):
    # the stabilizer is infinite exactly for the coordinate subspaces (every
    # RREF row has weight 1; the zero code and the full space included) and
    # for the codes that decompose_case_c splits into weight-2 blocks
    count = 0
    for n in range(1, 5):
        for gen in _rref_generators(q, n):
            code = LinearCode(GF(q), gen, n)
            try:
                decompose_case_c(code)
                pairs = True
            except ClassificationError:
                pairs = False
            if (np.count_nonzero(gen, axis=1) == 1).all():
                want = Shape.COORDINATE_SUBSPACE
            else:
                want = Shape.PAIR_SUM if pairs else Shape.THREE_PLUS_ROOTS
            assert classify(enumerate_weights(code), q).shape is want, gen
            count += 1
    assert count == subspaces  # 2024 for the three fields


def test_classify_pair_sum_implies_decomposition():
    rng = seeded("gp")
    f5 = GF(5)
    pair = LinearCode(f5, [[1, 1]])
    code = direct_sum(pair, pair)
    w = enumerate_weights(code)
    assert classify(w, 5).shape is Shape.PAIR_SUM
    assert len(decompose_case_c(code)) == 2


def test_gleason_pierce_consistency():
    # q > 4: formally self-dual + divisible forces the pair-sum shape
    rng = seeded("gleason-pierce")
    f5 = GF(5)
    pair = LinearCode(f5, [[1, 1]])
    seen_pair_sum = 0
    codes = [direct_sum(pair, pair), direct_sum(direct_sum(pair, pair), pair)]
    for _ in range(20):
        n = rng.randrange(2, 9, 2)
        codes.append(random_code(rng, 5, n, n // 2))
    for code in codes:
        w = enumerate_weights(code)
        if is_formally_self_dual(w, 5, code.size) and divisibility(w) > 1:
            assert classify(w, 5).shape is Shape.PAIR_SUM
            seen_pair_sum += 1
    assert seen_pair_sum >= 2  # the constructed block sums at least


def test_distinct_root_count_exact():
    assert distinct_root_count(WeightEnumerator((3, 0, 1))) == 2  # x^2 + 3
    assert distinct_root_count(pair_sum_enumerator(8, 4)) == 2
    assert distinct_root_count(GLEASON) == 8
    assert distinct_root_count(zero_code_enumerator(6)) == 1


def test_substitute_linear_exact_identity():
    coeffs = (3, 1, 4, 1, 5)
    assert substitute_linear(coeffs, 1, 0, 0, 1) == list(coeffs)


def naive_substitute(coeffs, a, b, c, d):
    """W(a x + b y, c x + d y): each monomial X^i Y^(n-i) multiplied out one
    linear factor at a time, as a dict {x-degree: coefficient}."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for i, w in enumerate(coeffs):
        terms = {0: w}
        for u, v in [(a, b)] * i + [(c, d)] * (n - i):
            grown = {}
            for s, t in terms.items():
                grown[s + 1] = grown.get(s + 1, 0) + u * t
                grown[s] = grown.get(s, 0) + v * t
            terms = grown
        for s, t in terms.items():
            out[s] += t
    return out


def test_substitute_linear_matches_naive_expansion():
    rng = seeded("substitute-naive")

    def entry(exact):
        v = rng.choice((0, rng.randint(-7, -1), rng.randint(1, 7)))
        return Fraction(v, rng.randint(1, 5)) if exact else v

    assert substitute_linear((5,), 2, -1, 0, 3) == [5]
    for trial in range(200):
        fractions = trial % 2 == 1
        n = rng.randint(0, 14)
        coeffs = [entry(fractions) * rng.randint(0, 10**6) for _ in range(n + 1)]
        mat = [entry(fractions) for _ in range(4)]
        got = substitute_linear(coeffs, *mat)
        assert got == naive_substitute(coeffs, *mat)
        assert len(got) == n + 1


def mp_substitute(coeffs, a, b, c, d):
    """The binomial expansion of W(a x + b y, c x + d y), in the arithmetic
    of a, b, c, d."""
    n = len(coeffs) - 1
    pa, pb, pc, pd = ([v**k for k in range(n + 1)] for v in (a, b, c, d))
    out = [0] * (n + 1)
    for i, w in enumerate(coeffs):
        if not w:
            continue
        second = [math.comb(n - i, t) * pc[t] * pd[n - i - t] for t in range(n - i + 1)]
        for s in range(i + 1):
            first = w * math.comb(i, s) * pa[s] * pb[i - s]
            for t, v in enumerate(second):
                out[s + t] += first * v
    return out


@pytest.mark.parametrize("w", [
    lambda: enumerate_weights(projective_reed_muller(5, 3, 2)),
    lambda: macwilliams(rm2_closed_form(5), 2, 2**6),
    lambda: rm2_closed_form(5),
], ids=["prm5_3_2", "rm2_1_5_dual", "rm2_1_5"])
def test_substitute_linear_complex_matches_mpmath(w):
    # every screened matrix; the error of each coefficient is measured
    # against the same expansion with |w|, |a|, |b|, |c|, |d|, the scale of
    # a running error bound (the matrices are not normalized, so W(M) can
    # be far larger than W)
    w = w()
    mats = _screen(roots_of(w, ROOT_EPS))
    assert mats
    with mpmath.workdps(50):
        for mat in mats.values():
            entries = [v for row in mat for v in row]
            want = mp_substitute(w.coeffs, *map(mpmath.mpc, entries))
            scale = mp_substitute(w.coeffs, *map(abs, entries))
            got = substitute_linear(w.coeffs, *entries)
            for g, v, e in zip(got, want, scale, strict=True):
                assert abs(g - v) <= 1e-13 * e


def krawtchouk_dual(w, q, size):
    """B_j = sum_i A_i K_j(i) / |C|, K_j(i) = sum_s (-1)^s (q-1)^(j-s)
    C(i, s) C(n-i, j-s), with A_i the coefficient of x^(n-i) y^i."""
    n = w.n
    a = w.coeffs[::-1]
    b = [sum(a[i] * sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s)
                        * math.comb(n - i, j - s) for s in range(j + 1))
             for i in range(n + 1)) for j in range(n + 1)]
    assert all(v % size == 0 for v in b)
    return tuple(v // size for v in b[::-1])


def test_macwilliams_on_catalog_codes():
    # Krawtchouk's formula per code, and a digest of every transform
    # recorded with the binomial double loop this module used before Horner
    rows = []
    for e in catalog():
        if e.code is not None:
            w = enumerate_weights(e.code)
            got = macwilliams(w, e.code.q, e.code.size).coeffs
            assert got == krawtchouk_dual(w, e.code.q, e.code.size)
            rows.append((e.name, got))
    assert len(rows) == 11
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "2785e5c64932e5dbdd25c8ef70e2781efb7d376fe08abda7e1794ba2fd4fb6b6")


def test_invariant_matrices():
    d4 = d_delta_matrix(4)
    assert d4[0][0] == 1 and abs(d4[1][1] - 1j) < 1e-15
    s2 = self_dual_matrix(2)
    assert abs(s2[0][0] - 2**-0.5) < 1e-15
    assert abs(s2[1][1] + 2**-0.5) < 1e-15
    # both stabilize the Gleason polynomial
    for mat in (d4, s2):
        (a, b), (c, d) = mat
        out = substitute_linear(GLEASON.coeffs, a, b, c, d)
        for got, want in zip(out, GLEASON.coeffs):
            assert abs(got - want) < 1e-9
