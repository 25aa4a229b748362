"""Enumeration against the naive oracle, duals, direct sums, case (c)."""

import gc
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    all_combinations,
    monomial_transform,
    oracle_weight_coeffs,
    random_code,
    seeded,
)
from wenum import codes
from wenum.algebra import macwilliams
from wenum.catalog import catalog, get_entry, rm2_closed_form
from wenum.codes import (
    LinearCode,
    WeightEnumerator,
    codewords_of_weight,
    decompose_case_c,
    direct_sum,
    dual,
    enumerate_weights,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from wenum.errors import (
    ClassificationError,
    DomainError,
    EnumerationBudgetError,
    FieldMismatchError,
)
from wenum.fields import GF
from wenum.reedmuller import reed_muller

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_zero_code_length5():
    c = LinearCode(GF(3), [], n=5)
    assert enumerate_weights(c) == zero_code_enumerator(5)


def test_pair_over_gf3():
    c = LinearCode(GF(3), [[1, 1]])
    assert enumerate_weights(c).coeffs == (2, 0, 1)  # x^2 + 2


def test_weight_count_outside_the_length():
    w = WeightEnumerator((1, 0, 3))  # n = 2: one word of weight 2, three of 0
    assert [w.weight_count(i) for i in range(-2, 6)] == [0, 0, 3, 0, 1, 0, 0, 0]
    c = LinearCode(GF(3), [[1, 1]])
    w = enumerate_weights(c)
    for weight in (-1, 3, 4):
        assert w.weight_count(weight) == len(codewords_of_weight(c, weight)) == 0


def test_random_codes_match_oracle(monkeypatch):
    rng = seeded("oracle")
    for q in (2, 3, 4, 5):
        for i in range(7):
            if i == 6:
                n, k = 5, 0  # the zero code, which draws nothing from rng
            else:
                n = rng.randrange(3, 9)
                k = rng.randrange(1, min(n, 5) + 1)
            code = random_code(rng, q, n, k)
            want = oracle_weight_coeffs(code)
            assert enumerate_weights(code).coeffs == want
            # a one-row suffix table: q^(k-1) prefixes
            with monkeypatch.context() as m:
                m.setattr("wenum.codes._BLOCK_CAP", q)
                for workers in (1, 3):
                    assert enumerate_weights(code, workers=workers).coeffs == want


@pytest.mark.parametrize("m", [6, 7, 8])  # n = 64, 128, 256: 7 to 9 planes
def test_first_order_rm_matches_closed_form(m, monkeypatch):
    code = reed_muller(2, 1, m)
    want = rm2_closed_form(m)
    assert enumerate_weights(code) == want
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", 2)  # 2^m prefixes
    assert enumerate_weights(code) == want


def test_long_random_code_matches_oracle(monkeypatch):
    code = random_code(seeded("long"), 3, 70, 4)  # 70 coordinates, 7 planes
    want = oracle_weight_coeffs(code)
    assert enumerate_weights(code).coeffs == want
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", 3)
    assert enumerate_weights(code).coeffs == want


def test_zero_counts_past_uint16():
    n = 2**16 + 1  # the zero word has n zeros
    # two rows sharing coordinates 1..n-2: one summand, counted
    gen = np.ones((2, n), dtype=np.uint8)
    gen[0, -1] = gen[1, 0] = 0
    w = enumerate_weights(LinearCode(GF(2), gen))
    assert w.coeffs[n] == 1 and w.coeffs[1] == 2 and w.coeffs[n - 2] == 1
    assert sum(w.coeffs) == 4


def test_enumeration_totals():
    rng = seeded("totals")
    for q in (2, 4, 5):
        code = random_code(rng, q, 8, 4)
        w = enumerate_weights(code)
        assert sum(w.coeffs) == q**4
        assert w.coeffs[-1] == 1


def _serial_pool(monkeypatch, drop=0):
    """Replace the enumeration's thread pool by one that counts the parts in
    order, skipping the first `drop` of them; returns the list that collects
    each counted part's histogram."""
    counted = []

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            done = [fn(part) for part in list(parts)[drop:]]
            counted.extend(done)
            return iter(done)

    monkeypatch.setattr("wenum.codes.ThreadPoolExecutor", Pool)
    return counted


def test_workers_agree_with_single_thread(monkeypatch):
    rng = seeded("workers")
    code = random_code(rng, 3, 14, 7)  # 2k <= n: C itself is counted
    single = enumerate_weights(code)
    counted = _serial_pool(monkeypatch)
    assert enumerate_weights(code, workers=4) == single
    assert counted == []  # 3^7 words fit one suffix table: one part, no pool
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", 3)  # 3^6 prefixes
    assert enumerate_weights(code, workers=1) == single
    assert counted == []
    assert enumerate_weights(code, workers=3) == single
    # the pool splits the (3^6 - 1)/2 = 364 class representatives, 122 +
    # 121 + 121, of 3 words each; prefix 0 is counted outside it
    assert [int(c.sum()) for c in counted] == [366, 363, 363]
    assert sum(int(c.sum()) for c in counted) == (3**7 - 3) // 2


def test_enumeration_coverage_checked(monkeypatch):
    _serial_pool(monkeypatch, drop=1)
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", 2)  # 4 prefixes, 4 parts
    gen = np.hstack([np.eye(3), np.ones((3, 3))]).astype(np.uint8)  # connected
    with pytest.raises(RuntimeError, match="counted 6 codewords, expected 8"):
        enumerate_weights(LinearCode(GF(2), gen), workers=4)


def test_transformed_coverage_checked(monkeypatch):
    code = LinearCode(GF(2), [[1, 1, 0], [0, 1, 1]])  # 2k > n: the dual is counted

    def doubled(side, budget, workers):  # divisible, but two zero words
        return WeightEnumerator([2 * c for c in oracle_weight_coeffs(side)])

    monkeypatch.setattr("wenum.codes._count_weights", doubled)
    with pytest.raises(RuntimeError, match="gives 8 codewords, 2 of weight 0"):
        enumerate_weights(code)


def _bit_rows(words):
    """Bit r of each row of words, as bools: bit r % 64 of word r // 64."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    return bits.astype(bool)


def _suffix_words(code):
    """_split of the code, with the suffix combinations built one per
    message and the message of each bit row of the first prefix."""
    prefix, bits, valid, order = codes._split(code, codes.DEFAULT_BUDGET)
    built = all_combinations(code.field, code.generator[len(prefix):])
    return prefix, bits, valid, order, built


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_masks_match_built_words(q, monkeypatch):
    """bits[c, v] has bit r set exactly when the suffix combination at bit
    row r has value v at coordinate c; rows with no combination, and the
    bits past the last one, are clear in every mask and in `valid`."""
    rng, padded = seeded(f"column-bits-{q}"), False
    for cap in (codes._BLOCK_CAP, q, q**2):
        monkeypatch.setattr("wenum.codes._BLOCK_CAP", cap)
        for n in (1, 63, 64, 65, 130):
            for k in range(min(n, 4) + 1):
                code = random_code(rng, q, n, k)
                prefix, bits, valid, order, built = _suffix_words(code)
                assert bits.dtype == np.uint64 and bits.shape[:2] == (n, q)
                assert bits.shape[2] == valid.size and order.size == 64 * valid.size
                rows = order >= 0
                assert sorted(order[rows]) == list(range(len(built)))
                assert np.array_equal(_bit_rows(valid), rows)
                want = np.zeros((n, q, order.size), dtype=bool)
                r = np.flatnonzero(rows)
                want[np.arange(n)[:, None], built[order[r]].T, r] = True
                assert np.array_equal(_bit_rows(bits), want)
                padded |= not rows.all()
    assert padded  # some row counts are not multiples of 64


@pytest.mark.parametrize("q", [2, 3, 5, 16])
def test_zero_counts_read_from_the_planes(q, monkeypatch):
    """Bit r of row i of plane b is bit b of the zero count of prefix i
    plus the suffix combination at bit row r."""
    rng = seeded(f"planes-{q}")
    for cap, n, k in ((q, 9, 3), (q**2, 70, 3), (codes._BLOCK_CAP, 33, 2)):
        monkeypatch.setattr("wenum.codes._BLOCK_CAP", cap)
        code = random_code(rng, q, n, k)
        prefix, bits, valid, order, _ = _suffix_words(code)
        words = codes._combinations(code.field, prefix)(np.arange(q ** len(prefix)))
        planes = codes._zero_planes(bits, code.field.neg_table[words.T])
        assert len(planes) == n.bit_length()
        zeros = sum(_bit_rows(p).astype(int) << b for b, p in enumerate(planes))
        built = all_combinations(code.field, code.generator)
        rows = order >= 0
        index = np.arange(len(words))[:, None] * rows.sum() + order[rows]
        assert np.array_equal(zeros[:, rows], n - np.count_nonzero(built[index], axis=2))
        assert not zeros[:, ~rows].any()


def test_chunk_sizes_agree(monkeypatch):
    rng = seeded("chunks")
    shapes = ((2, 20, 9), (3, 14, 7), (5, 12, 5), (4, 70, 3))
    found = [random_code(rng, q, n, k) for q, n, k in shapes]
    want = [enumerate_weights(code) for code in found]
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", 64)  # several prefixes
    for words in (1, 3):  # one prefix, or up to three, per chunk
        monkeypatch.setattr("wenum.codes._CHUNK_WORDS", words)
        assert [enumerate_weights(code) for code in found] == want
        for code in found[1:3]:
            words = all_combinations(code.field, code.generator)
            for weight in range(code.n + 1):
                got = codewords_of_weight(code, weight)
                built = words[np.count_nonzero(words, axis=1) == weight]
                assert sorted(map(tuple, got)) == sorted(map(tuple, built))


def test_larger_fields_match_oracle(monkeypatch):
    rng = seeded("larger-fields")
    for q in (7, 8, 9):
        for _ in range(4):
            n = rng.randrange(3, 9)
            code = random_code(rng, q, n, rng.randrange(1, 4))
            want = oracle_weight_coeffs(code)
            assert enumerate_weights(code).coeffs == want
            with monkeypatch.context() as m:
                m.setattr("wenum.codes._BLOCK_CAP", q)
                assert enumerate_weights(code).coeffs == want


@pytest.mark.parametrize("q, n, k, caps", [
    (16, 10, 3, (codes._BLOCK_CAP, 16, 256)),  # 1, 256 and 16 prefixes
    (16, 70, 2, (16,)),  # 70 coordinates, 16 prefixes
    (256, 4, 2, (256,)),  # 256 suffix rows, as at the default cap
])
def test_large_fields_skip_absent_values(q, n, k, caps, monkeypatch):
    code = random_code(seeded(f"large-fields-{q}-{n}"), q, n, k)
    want = oracle_weight_coeffs(code)
    for cap in caps:
        monkeypatch.setattr("wenum.codes._BLOCK_CAP", cap)
        assert enumerate_weights(code).coeffs == want


def test_gf256_enumeration_memory(monkeypatch):
    """The suffix bits take q * ceil(q^j / 64) words per coordinate, with
    q^j <= _BLOCK_CAP rows, so a GF(256) [10, 3] code counts its 256^3
    words within 1 MiB."""
    code = random_code(seeded("gf256-memory"), 256, 10, 3)
    want = enumerate_weights(code)  # warm: tables and caches
    tracemalloc.start()
    try:
        assert enumerate_weights(code) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    assert sum(want.coeffs) == 256**3 and want.coeffs[-1] == 1
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", 256)
    assert enumerate_weights(code) == want


def test_enumeration_leaves_no_cycles():
    """The leaf walk keeps an explicit stack: with the collector off,
    repeated enumerations free everything they allocate."""
    code = get_entry("prm5_3_2").code
    enumerate_weights(code)  # warm
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            enumerate_weights(code)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert grown <= 64 * 2**10


def _scaled_index(field, index, a, t):
    """The prefix index of a*p, for p the prefix with the given index and
    t base-q digits."""
    q, out = field.q, 0
    for s in reversed(range(t)):
        out = out * q + int(field.mul_table[a, index // q**s % q])
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_scalar_multiples_share_a_histogram(q, monkeypatch):
    monkeypatch.setattr("wenum.codes._BLOCK_CAP", q)  # one suffix row
    field = GF(q)
    rng = seeded(f"scalar-classes-{q}")
    for k in (1, 2, 3):
        code = random_code(rng, q, rng.randrange(k, 9), k)
        prefix, bits, valid, _ = codes._split(code, codes.DEFAULT_BUDGET)
        t = k - 1
        assert len(prefix) == t
        hists = []
        for p in range(q**t):
            words = codes._combinations(field, prefix)(np.array([p]))
            planes = codes._zero_planes(bits, field.neg_table[words.T])
            hists.append(codes._histogram(planes, valid, q, code.n))
        classes = set()  # each class by its smallest index
        for p in range(q**t):
            scaled = {_scaled_index(field, p, a, t) for a in range(1, q)}
            for ap in scaled:
                assert np.array_equal(hists[ap], hists[p])
            classes.add(min(scaled))
        reps = codes._scalar_classes(q, q**t)
        assert len(reps) == (q**t - 1) // (q - 1)
        hit = [min(_scaled_index(field, int(p), a, t) for a in range(1, q))
               for p in [0, *reps]]
        assert sorted(hit) == sorted(classes)  # every class exactly once


def test_rm4_3_2_matches_benchmark_reference():
    # k = 10 > n - k = 6: enumerate_weights counts the 4^6 dual words in one
    # suffix table; codewords_of_weight walks the 4^10 words, 16 prefixes
    ref = json.loads(REFERENCE.read_text())["rm4_3_2"]
    code = get_entry("rm4_3_2").code
    assert (code.q, code.n, code.k) == (ref["q"], ref["n"], ref["k"])
    for workers in (1, 3):
        assert list(enumerate_weights(code, workers=workers).coeffs) == ref["coeffs"]
    w = WeightEnumerator(ref["coeffs"])
    place = 4 ** np.arange(code.n, dtype=np.int64)
    for weight in range(code.n + 1):
        words = codewords_of_weight(code, weight)
        assert len(words) == w.weight_count(weight)
        assert (np.count_nonzero(words, axis=1) == weight).all()
        assert np.unique(words @ place).size == len(words)


def test_budget_rejected():
    gen = np.hstack([np.eye(12), np.ones((12, 12))]).astype(np.uint8)
    code = LinearCode(GF(2), gen)  # [24, 12], connected: C is counted
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_weights(code, budget=1000)
    assert "4096" in str(err.value)


# q^k at most 1000 for the naive oracle; k = n, k = n - 1 and n - k = 2
BIG_SIDE = {2: 9, 3: 6, 4: 4, 5: 4, 8: 3, 9: 3}


@pytest.mark.parametrize("q", sorted(BIG_SIDE))
def test_big_side_matches_oracle(q, monkeypatch):
    # the dual path is also called directly: GF(q)^n (k = n) splits into
    # n one-row summands, which enumerate_weights does not count
    k = BIG_SIDE[q]
    rng = seeded(f"big-side-{q}")
    for n in (k, k + 1, k + 2):
        code = random_code(rng, q, n, k)
        want = oracle_weight_coeffs(code)
        for cap in (codes._BLOCK_CAP, q):  # q: the dual's words split by prefix
            monkeypatch.setattr("wenum.codes._BLOCK_CAP", cap)
            for workers in (1, 3):
                assert enumerate_weights(code, workers=workers).coeffs == want
                got = codes._enumerate_summand(code, codes.DEFAULT_BUDGET, workers)
                assert got.coeffs == want


def test_budget_bounds_the_counted_side():
    code = random_code(seeded("budget-side"), 2, 12, 9)  # 2^9 > budget >= 2^3
    assert enumerate_weights(code, budget=2**3).coeffs == oracle_weight_coeffs(code)
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_weights(code, budget=2**3 - 1)
    assert err.value.count == 2**3


def test_rm5_4_2_at_default_budget():
    code = reed_muller(5, 4, 2)  # [25, 15]; its dual is RM_5(3, 2)
    assert code.size > codes.DEFAULT_BUDGET
    w = enumerate_weights(code)
    assert sum(w.coeffs) == 5**15
    assert w == macwilliams(enumerate_weights(reed_muller(5, 3, 2)), 5, 5**10)


def test_monomial_invariance():
    rng = seeded("monomial")
    for q in (2, 3, 4, 5):
        code = random_code(rng, q, 7, 3)
        w = enumerate_weights(code)
        for _ in range(3):
            assert enumerate_weights(monomial_transform(rng, code)) == w


def test_direct_sum_multiplies_enumerators():
    f3 = GF(3)
    pair = LinearCode(f3, [[1, 1]])
    s = direct_sum(pair, pair)
    w = enumerate_weights(pair)
    assert enumerate_weights(s) == w * w
    assert enumerate_weights(s) == pair_sum_enumerator(4, 3)


def test_direct_sum_with_zero_code_gains_factor_x():
    f3 = GF(3)
    pair = LinearCode(f3, [[1, 1]])
    z1 = LinearCode(f3, [], n=1)
    w = enumerate_weights(direct_sum(pair, z1))
    assert w == enumerate_weights(pair) * zero_code_enumerator(1)


def test_direct_sum_of_zero_codes():
    # two zero-dimensional codes: the generator is empty, so the length
    # comes from the summands
    f3 = GF(3)
    s = direct_sum(LinearCode(f3, [], n=1), LinearCode(f3, [], n=2))
    assert (s.n, s.k) == (3, 0)
    assert enumerate_weights(s) == zero_code_enumerator(3)


def test_direct_sum_random_codes():
    rng = seeded("dsum")
    a = random_code(rng, 4, 5, 2)
    b = random_code(rng, 4, 6, 3)
    assert enumerate_weights(direct_sum(a, b)) == (
        enumerate_weights(a) * enumerate_weights(b)
    )


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatchError):
        direct_sum(LinearCode(GF(2), [[1, 1]]), LinearCode(GF(3), [[1, 1]]))


def _connected_block(rng, q, k, m):
    """[I_k | A] with a k x m block A whose every column is nonzero in some
    row and whose consecutive rows share a nonzero column: one summand.
    k = 1 is a single word of full weight."""
    a = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(k)], dtype=np.uint8)
    for c in range(m):
        a[c % k, c] = rng.randrange(1, q)
    for i in range(k - 1):
        a[i, i % m] = rng.randrange(1, q)
        a[i + 1, i % m] = rng.randrange(1, q)
    return np.hstack([np.eye(k, dtype=np.uint8), a])


def _planted_sum(rng, q, shapes, zeros):
    """Block-diagonal sum of _connected_block(k, m) for each (k, m) in
    shapes, then `zeros` zero columns; returns the code and each block's
    column set."""
    blocks = [_connected_block(rng, q, k, m) for k, m in shapes]
    gen = np.zeros((sum(k for k, _ in shapes), sum(b.shape[1] for b in blocks) + zeros),
                   dtype=np.uint8)
    r = c = 0
    columns = []
    for b in blocks:
        gen[r : r + b.shape[0], c : c + b.shape[1]] = b
        columns.append(frozenset(range(c, c + b.shape[1])))
        r, c = r + b.shape[0], c + b.shape[1]
    return LinearCode(GF(q), gen), columns


# (k, m) blocks and zero columns, q^k at most 4096 for the naive oracle;
# each sum has a one-row block and a block with 2k > n
SUMS = {
    2: ([(1, 3), (3, 1), (3, 4)], 2),
    3: ([(1, 2), (2, 1), (2, 3)], 1),
    4: ([(1, 0), (2, 1), (2, 2)], 2),
    5: ([(1, 3), (2, 1), (1, 1)], 0),
    7: ([(2, 1), (1, 2)], 1),
    8: ([(1, 2), (2, 1)], 1),
    9: ([(2, 1), (1, 0)], 3),
    16: ([(1, 3), (2, 1)], 1),
}


@pytest.mark.parametrize("q", sorted(SUMS))
def test_direct_sums_factor(q):
    """Scrambled sums of one to three connected blocks give the oracle's
    enumerator, split exactly into the planted blocks and zero columns."""
    rng = seeded(f"planted-sums-{q}")
    shapes, zeros = SUMS[q]
    for blocks in (shapes[:1], shapes[:2], shapes):
        for z in sorted({0, zeros}):
            code, columns = _planted_sum(rng, q, blocks, z)
            want = oracle_weight_coeffs(code)
            for scramble in range(4):  # then columns moved and scaled, rows mixed
                perm = list(range(code.n))
                t = code
                if scramble:
                    rng.shuffle(perm)
                    t = monomial_transform(rng, _mix_rows(rng, code), perm)
                assert enumerate_weights(t).coeffs == want
                groups, found_zeros = codes._summands(t)
                assert found_zeros == z
                planted = {frozenset(perm[c] for c in cols) for cols in columns}
                assert {frozenset(cols.tolist()) for _, cols in groups} == planted


def test_connected_codes_are_one_summand(monkeypatch):
    """A connected code is counted as given, as the one summand."""
    real, seen = codes._enumerate_summand, []

    def spy(code, budget, workers):
        seen.append(code)
        return real(code, budget, workers)

    monkeypatch.setattr("wenum.codes._enumerate_summand", spy)
    rng = seeded("connected")
    found = [get_entry(name).code for name in ("rm4_3_2", "prm5_3_2")]
    found += [LinearCode(GF(q), _connected_block(rng, q, k, m))
              for q, k, m in ((2, 6, 1), (3, 4, 4), (5, 2, 7), (16, 3, 3))]
    for code in found:
        seen.clear()
        want = enumerate_weights(code)
        assert len(seen) == 1 and seen[0] is code
        assert want == real(code, codes.DEFAULT_BUDGET, 1)


def test_budget_bounds_the_sum_over_summands(monkeypatch):
    # [8, 4] counts its 2^4 words, [7, 5] its dual's 2^2, one-row [3, 1] none
    f2 = GF(2)
    a = LinearCode(f2, np.hstack([np.eye(4), np.ones((4, 4))]).astype(np.uint8))
    b = LinearCode(f2, np.hstack([np.eye(5), np.ones((5, 2))]).astype(np.uint8))
    code = direct_sum(direct_sum(a, LinearCode(f2, [[1, 1, 1]])), b)
    with monkeypatch.context() as m:
        m.setattr("wenum.codes._count_weights", None)  # raising comes first
        with pytest.raises(EnumerationBudgetError) as err:
            enumerate_weights(code, budget=19)
    assert err.value.count == 20
    assert enumerate_weights(code, budget=20).coeffs == oracle_weight_coeffs(code)


def test_catalog_matches_stated_enumerators():
    stated = [e for e in catalog() if e.code is not None and e.expected is not None]
    assert stated
    for e in stated:
        assert enumerate_weights(e.code) == e.expected, e.name


def _scalar_rref(field, mat):
    """Reduced row-echelon form by scalar field operations, one row at a
    time.  Returns (rows as lists, pivot columns)."""
    m = [[int(x) for x in row] for row in mat]
    pivots, r = [], 0
    for c in range(mat.shape[1]):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                a = m[i][c]
                m[i] = [field.sub(x, field.mul(a, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_rref_matches_scalar_reference(q):
    field = GF(q)
    rng = np.random.default_rng(100 + q)
    mats = [np.zeros((0, 5), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8)]
    for rows, cols in ((3, 7), (6, 6), (8, 5)):
        drawn = rng.integers(0, q, (rows, cols), dtype=np.uint8)
        deficient = drawn.copy()  # last row a combination of the first two
        deficient[-1] = field.add_table[
            field.mul_table[rng.integers(1, q), drawn[0]],
            field.mul_table[rng.integers(0, q), drawn[1]],
        ]
        holes = drawn.copy()
        holes[:, rng.choice(cols, 2, replace=False)] = 0  # zero columns
        mats += [drawn, deficient, holes]
    ranks = set()
    for mat in mats:
        red, pivots = codes.rref(field, mat)
        want, want_pivots = _scalar_rref(field, mat)
        assert red.dtype == np.uint8 and red.shape == mat.shape
        assert red.tolist() == want and pivots == want_pivots
        ranks.add(len(pivots) == min(mat.shape))
    assert ranks == {True, False}  # full-rank and rank-deficient cases both ran


def test_dual_of_full_space_is_zero():
    c = LinearCode(GF(4), np.eye(3, dtype=np.uint8))
    d = dual(c)
    assert d.k == 0
    assert enumerate_weights(d) == zero_code_enumerator(3)


def test_dual_self_dual_pair_gf2():
    c = LinearCode(GF(2), [[1, 1]])
    assert dual(c).row_space_equal(c)


def test_dual_dimension_and_orthogonality():
    rng = seeded("dual")
    for q in (2, 3, 5):
        code = random_code(rng, q, 9, 4)
        d = dual(code)
        assert d.k == code.n - code.k
        f = code.field
        for v in d.generator:
            for c in code.generator:
                acc = 0
                for x, y in zip(v, c):
                    acc = f.add(acc, f.mul(int(x), int(y)))
                assert acc == 0
        assert dual(d).row_space_equal(code)


def test_codewords_of_weight(monkeypatch):
    c = LinearCode(GF(3), [[1, 1]])
    words = codewords_of_weight(c, 2)
    assert len(words) == 2
    assert all(np.count_nonzero(w) == 2 for w in words)
    z = LinearCode(GF(3), [], n=4)
    assert np.array_equal(codewords_of_weight(z, 0), np.zeros((1, 4)))
    empty = LinearCode(GF(3), [], n=0)  # one word, of length 0
    assert enumerate_weights(empty).coeffs == (1,)
    assert codewords_of_weight(empty, 0).shape == (1, 0)
    assert codewords_of_weight(z, 1).shape == (0, 4)
    for weight in (-1, 3):
        words = codewords_of_weight(c, weight)
        assert words.shape == (0, 2) and words.dtype == np.uint8
    code = random_code(seeded("extremes"), 5, 5, 3)

    def built(weight):
        words = all_combinations(code.field, code.generator)
        return words[np.count_nonzero(words, axis=1) == weight]

    for cap in (codes._BLOCK_CAP, 5):
        monkeypatch.setattr("wenum.codes._BLOCK_CAP", cap)
        for weight in (0, code.n):
            got, want = codewords_of_weight(code, weight), built(weight)
            assert len(want) and got.dtype == np.uint8
            assert sorted(map(tuple, got)) == sorted(map(tuple, want))


def test_decompose_blocks():
    f4 = GF(4)
    pair = LinearCode(f4, [[1, 1]])
    code = direct_sum(pair, pair)
    assert decompose_case_c(code) == ((0, 1), (2, 3))
    # the length-0 code is the empty sum, W = 1
    assert decompose_case_c(LinearCode(f4, np.zeros((0, 0), dtype=np.uint8), 0)) == ()


def test_decompose_tracks_permutation():
    # same code with columns 2 and 3 (1-based) swapped
    f4 = GF(4)
    code = LinearCode(f4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert decompose_case_c(code) == ((0, 2), (1, 3))


def _mix_rows(rng, code):
    """The same code with its generator rows mixed by row additions."""
    f, gen = code.field, code.generator.copy()
    for _ in range(4 * code.k if code.k > 1 else 0):
        i, j = rng.sample(range(code.k), 2)
        gen[i] = f.add_table[gen[i], f.mul_table[rng.randrange(1, f.q), gen[j]]]
    return LinearCode(f, gen)


@pytest.mark.parametrize(
    "q, blocks",
    [(q, 4) for q in (3, 4, 5, 7, 8, 9, 16)] + [(5, 3)],
    ids=["3", "4", "5", "7", "8", "9", "16", "5-3"],
)
def test_decompose_supports_are_the_weight2_supports(q, blocks):
    # row mixing leaves the reduced echelon form something to undo, and
    # monomial_transform scrambles the columns and scales them
    rng = seeded(f"case-c-supports-{q}-{blocks}")
    gen = np.zeros((blocks, 2 * blocks), dtype=np.uint8)
    for i in range(blocks):
        gen[i, 2 * i : 2 * i + 2] = 1, rng.randrange(1, q)
    code = LinearCode(GF(q), gen)
    for _ in range(3):
        t = monomial_transform(rng, _mix_rows(rng, code))
        supports = {tuple(map(int, np.nonzero(w)[0])) for w in codewords_of_weight(t, 2)}
        pairs = decompose_case_c(t)
        assert pairs == tuple(sorted(supports))
        assert sorted(i for p in pairs for i in p) == list(range(2 * blocks))


def test_decompose_past_the_default_budget():
    # 3^40 > DEFAULT_BUDGET, but the 40 one-row summands take a closed form
    rng, q, h = seeded("case-c-n80"), 3, 40
    perm = list(range(2 * h))
    rng.shuffle(perm)
    gen = np.zeros((h, 2 * h), dtype=np.uint8)
    for i in range(h):
        gen[i, [perm[2 * i], perm[2 * i + 1]]] = rng.randrange(1, q), rng.randrange(1, q)
    code = _mix_rows(rng, LinearCode(GF(q), gen))
    assert code.size > codes.DEFAULT_BUDGET
    pairs = tuple(sorted(tuple(sorted(perm[2 * i : 2 * i + 2])) for i in range(h)))
    assert decompose_case_c(code) == pairs


def test_decompose_refuses_binary():
    f2 = GF(2)
    code = LinearCode(f2, [[1, 1]])
    with pytest.raises(ClassificationError):
        decompose_case_c(code)


def test_decompose_refuses_wrong_shape():
    code = LinearCode(GF(4), [[1, 0], [0, 1]])
    with pytest.raises(ClassificationError):
        decompose_case_c(code)
    # connected [80, 40]: refused by its rows, before any count
    code = LinearCode(GF(3), np.hstack([np.eye(40), np.ones((40, 40))]).astype(np.uint8))
    with pytest.raises(ClassificationError):
        decompose_case_c(code)


def test_generator_rank_validated():
    with pytest.raises(DomainError):
        LinearCode(GF(2), [[1, 1], [1, 1]])


def test_generator_entries_validated():
    with pytest.raises(DomainError):
        LinearCode(GF(4), [[1, 5]])


@pytest.mark.parametrize("q, gen", [
    (3, [[1.5, 1]]),  # a uint8 cast would read [[1, 1]]
    (3, [[-1, 1]]),  # a uint8 cast would overflow
    (3, [[300, 1]]),
    (256, np.array([[-1, 1]], dtype=np.int64)),  # a uint8 cast would read 255
], ids=["fraction", "negative", "above-uint8", "int64-negative"])
def test_generator_entries_checked_before_the_cast(q, gen):
    with pytest.raises(DomainError):
        LinearCode(GF(q), gen)


def test_weight_enumerator_display():
    w = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))
    assert w.poly_string() == "x^8 + 14*x^4*y^4 + y^8"


@pytest.mark.parametrize("coeffs", [
    (1, 0, 0, 0, 14.7, 0, 0, 0, 1),  # int() would read Gleason's 14
    ["1", "7"],
    (1, Fraction(14)),
    (1, np.float64(2.0)),
], ids=["float", "strings", "fraction", "numpy-float"])
def test_weight_enumerator_rejects_non_integers(coeffs):
    with pytest.raises(DomainError):
        WeightEnumerator(coeffs)


def test_weight_enumerator_accepts_numpy_integers():
    w = WeightEnumerator(np.array([1, 0, 14, 0, 1], dtype=np.uint8))
    assert w.coeffs == (1, 0, 14, 0, 1)
    assert all(type(c) is int for c in w.coeffs)
    assert WeightEnumerator([np.int64(3), 1]) == WeightEnumerator((3, 1))
