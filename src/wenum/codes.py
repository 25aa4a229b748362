"""Linear codes over GF(q): enumeration, weight enumerators, duals.

A code is the direct sum of the summands its reduced echelon form shows
(rows linked by shared nonzero columns), and its enumerator is the
product of theirs: a zero column is a factor x, a one-row summand the
closed form (q-1)y^m + x^m, and any other summand is counted.
Enumeration is the hot loop, so each summand runs on the smaller side:
an [n, k] code with 2k > n has a dual of only q^(n-k) words, and the
MacWilliams transform of the dual's enumerator (algebra.macwilliams,
exact integer arithmetic) is the code's.  `budget` therefore bounds the
sum of q^min(k_i, n_i - k_i) over the counted summands, the words
actually counted.

A codeword is a prefix combination p of the generator rows plus a
suffix combination s, and coordinate c of p + s is zero exactly when
s_c = -p_c.  The suffix combinations are held one per bit: bits[c][-p_c]
is the zero indicator of coordinate c for 64 codewords per word.
Carry-save adders sum the n indicators into bit planes of the zero
count, and splitting the rows by the planes gives the histogram of zero
counts, which is the enumerator; no codeword is built.  Prefix 0 is
counted once and one prefix per scalar class q - 1 times, and workers
take contiguous parts of those.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (
    ClassificationError,
    DomainError,
    EnumerationBudgetError,
    FieldMismatchError,
)
from .fields import FiniteField

DEFAULT_BUDGET = 2**32
_BLOCK_CAP = 1 << 12  # suffix-table rows
_CHUNK_WORDS = 1 << 13  # words of one chunk's zero indicators


class WeightEnumerator:
    """Coefficient vector (a_0, ..., a_n) with a_i = #codewords of weight n-i.

    The one-variable polynomial is W(x) = sum a_i x^i; the homogeneous view
    W(x, y) = sum a_i x^i y^(n-i) is determined by the same coefficients.
    Coefficients are Python or numpy integers, kept as arbitrary-precision ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        try:
            cs = tuple(operator.index(c) for c in coeffs)
        except TypeError:
            raise DomainError("weight enumerator needs integer coefficients") from None
        if not cs:
            raise DomainError("weight enumerator needs at least one coefficient")
        if any(c < 0 for c in cs):
            raise DomainError("weight enumerator coefficients must be >= 0")
        self.coeffs = cs

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    def weight_count(self, w: int) -> int:
        """Number of codewords of weight w; 0 outside 0..n."""
        return self.coeffs[self.n - w] if 0 <= w <= self.n else 0

    def __mul__(self, other):
        if not isinstance(other, WeightEnumerator):
            return NotImplemented
        out = [0] * (self.n + other.n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return WeightEnumerator(out)

    def __eq__(self, other):
        return (
            isinstance(other, WeightEnumerator) and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"WeightEnumerator({self.poly_string()})"

    def poly_string(self) -> str:
        n = self.n
        terms = []
        for i in range(n, -1, -1):
            a = self.coeffs[i]
            if a == 0:
                continue
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if n - i:
                factors.append("y" if n - i == 1 else f"y^{n - i}")
            if a != 1 or not factors:
                factors.insert(0, str(a))
            terms.append("*".join(factors))
        return " + ".join(terms) if terms else "0"


def zero_code_enumerator(n: int) -> WeightEnumerator:
    """x^n, the enumerator of the zero code of length n."""
    return WeightEnumerator([0] * n + [1])


def full_space_enumerator(n: int, q: int) -> WeightEnumerator:
    """(x + (q-1))^n, the enumerator of GF(q)^n."""
    return WeightEnumerator(
        [math.comb(n, i) * (q - 1) ** (n - i) for i in range(n + 1)]
    )


def pair_sum_enumerator(n: int, q: int) -> WeightEnumerator:
    """(x^2 + (q-1))^(n/2), the enumerator of a direct sum of <(1,1)> blocks."""
    if n % 2:
        raise DomainError("pair-sum enumerator needs even length")
    return _full_weight_power(2, n // 2, q)


def _full_weight_power(m: int, c: int, q: int) -> WeightEnumerator:
    """(x^m + (q-1)y^m)^c, the enumerator of a direct sum of c one-row
    codes of length m: each holds the q - 1 multiples of a word of full
    weight, and j of the c parts zero leave m*j zeros."""
    cs = [0] * (m * c + 1)
    for j in range(c + 1):
        cs[m * j] = math.comb(c, j) * (q - 1) ** (c - j)
    return WeightEnumerator(cs)


# --- linear algebra over GF(q) on uint8 matrices -------------------------


def rref(field: FiniteField, mat: np.ndarray):
    """Reduced row-echelon form.  Returns (rref_matrix, pivot_columns).

    Each pivot clears its column in every other row with one table lookup
    over the whole matrix: row i loses m[i, c] times the pivot row, and a
    zero multiple leaves it as it is.
    """
    m = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = m.shape if m.ndim == 2 else (0, 0)
    mulk = field.mul_table
    subk = field.sub_table
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        pr = r + below[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = mulk[field.inv(int(m[r, c])), m[r]]
        factors = m[:, c].copy()
        factors[r] = 0
        m = subk[m, mulk[factors[:, None], m[r]]]
        pivots.append(c)
        r += 1
    return m, pivots


# --- codes ----------------------------------------------------------------


class LinearCode:
    """A linear [n, k] code given by a full-row-rank generator matrix.

    The generator is stored as given (no automatic reduction); rank is
    validated at construction, and the reduced echelon form that check
    computes is kept for the dual, the direct summands and the case-C
    witness.  Immutable afterwards.
    """

    def __init__(self, field: FiniteField, generator, n: int | None = None):
        self.field = field
        gen = np.asarray(generator)
        if gen.size and (gen.dtype.kind not in "biu" or gen.min() < 0
                         or gen.max() >= field.q):
            raise DomainError(
                f"generator entries must be integers in [0, {field.q})"
            )
        gen = gen.astype(np.uint8)
        if gen.size == 0:
            if n is None:
                raise DomainError("zero code needs an explicit length")
            gen = gen.reshape(0, n)
        if gen.ndim != 2:
            raise DomainError("generator must be a 2-d matrix")
        if n is not None and gen.shape[1] != n:
            raise DomainError("generator width disagrees with stated length")
        k = gen.shape[0]
        red, pivots = rref(field, gen)
        if len(pivots) != k:
            raise DomainError("generator matrix does not have full row rank")
        pivots = np.array(pivots, dtype=np.intp)
        for a in (gen, red, pivots):
            a.setflags(write=False)
        self.generator = gen
        self._reduced, self._pivots = red, pivots
        self.k = k
        self.n = gen.shape[1]

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def size(self) -> int:
        return self.q**self.k

    def row_space_equal(self, other: "LinearCode") -> bool:
        if self.field != other.field or self.n != other.n or self.k != other.k:
            return False
        return bool(np.array_equal(self._reduced, other._reduced))

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def direct_sum(a: LinearCode, b: LinearCode) -> LinearCode:
    """Block-diagonal sum; W factors as the product of the summands' W."""
    if a.field != b.field:
        raise FieldMismatchError("direct sum needs codes over the same field")
    gen = np.zeros((a.k + b.k, a.n + b.n), dtype=np.uint8)
    gen[: a.k, : a.n] = a.generator
    gen[a.k :, a.n :] = b.generator
    return LinearCode(a.field, gen, n=a.n + b.n)


def dual(code: LinearCode) -> LinearCode:
    """Orthogonal complement for the standard inner product.

    Read off the code's reduced echelon form: each free column f gives the
    word that is 1 at f and -red[i, f] at the pivot of row i.
    """
    n, red, pivots = code.n, code._reduced, code._pivots
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = code.field.neg_table[red[:, free]].T
    return LinearCode(code.field, basis, n=n)


# --- enumeration ----------------------------------------------------------


def _split(code, budget):
    """Budget check, then the prefix rows, the suffix column bits, the
    valid bit rows and the suffix combination at each bit row (-1 if none).

    The suffix takes the last j generator rows, q^j the largest power of q
    within _BLOCK_CAP: message i*q^j + r is prefix i plus suffix r.  Its
    last b rows, q^b the fewest combinations that fill w words but for
    1/16 (else b = j), are packed: u*q^b + l sits at bit row 64*w*u + l,
    and u + l has value v at c where l has v - u_c, so bits[c, v] (bit
    r % 64 of word r // 64 for bit row r) is one gather.
    """
    if code.size > budget:
        raise EnumerationBudgetError(code.size, budget)
    field, n, k, q, j = code.field, code.n, code.k, code.q, 0
    while j < k and q ** (j + 1) <= _BLOCK_CAP:
        j += 1
    b = next((b for b in range(j) if -(-q**b // 64) * 64 <= q**b * 17 // 16), j)
    rows = code.generator[k - j :]
    lower = _combinations(field, rows[j - b :])(np.arange(q**b))
    upper = _combinations(field, rows[: j - b])(np.arange(q ** (j - b)))
    w, r = -(-q**b // 64), np.arange(q**b)
    packed = np.zeros((n, q, 8 * w), dtype=np.uint8)
    index = (np.arange(n)[:, None], lower.T, r >> 3)
    np.bitwise_or.at(packed, index, (1 << (r & 7)).astype(np.uint8))
    shift = field.sub_table[np.arange(q)[:, None], upper.T[:, None]]
    bits = packed.view("<u8")[np.arange(n)[:, None, None], shift]
    order = np.full((q ** (j - b), 64 * w), -1)
    order[:, : q**b] = np.arange(q**j).reshape(-1, q**b)
    valid = np.packbits(order >= 0, bitorder="little").view("<u8")
    bits = np.ascontiguousarray(bits.reshape(n, q, valid.size))
    return code.generator[: k - j], bits, valid, order.ravel()


def _chunks(field, prefix, index, bits):
    """The prefix combinations of `index` in chunks of at most _CHUNK_WORDS
    words of bits (or one prefix), each with its bit planes."""
    step, combine = max(1, _CHUNK_WORDS // bits.shape[2]), _combinations(field, prefix)
    for start in range(0, len(index), step):
        words = combine(index[start : start + step])
        yield words, _zero_planes(bits, field.neg_table[words.T])


def _carry_save(levels, x, i):
    """Add x, of weight 2^i, to `levels` (at most two vectors each): a third
    is folded by a full adder in five word operations, its carry added up."""
    while i < len(levels) and len(levels[i]) == 2:
        a, b = levels[i].pop(), levels[i][0]
        carry = a & b
        b ^= a
        np.bitwise_and(b, x, out=a)
        carry |= a
        b ^= x
        x, i = carry, i + 1
    if i == len(levels):
        levels.append([])
    levels[i].append(x)


def _zero_planes(bits, negated):
    """Bit planes of the zero counts of a chunk of prefix blocks.

    negated[c] holds -p_c for each prefix p, and bits[c][-p_c] is the zero
    indicator of coordinate c for every suffix row at once.  Carry-save
    adders sum the n indicators: bit r of row i of plane b (least
    significant first) is bit b of the zero count of prefix i plus the
    suffix combination at bit row r.
    """
    levels = []
    for c, values in enumerate(negated):
        _carry_save(levels, bits[c][values], 0)
    for i, level in enumerate(levels):  # half adders; carries move up
        if len(level) == 2:
            a, b = level.pop(), level[0]
            _carry_save(levels, a & b, i + 1)
            b ^= a
    return [a for a, in levels]


def _histogram(planes, valid, rows, n):
    """Number of the `rows` valid rows of each zero count z = 0..n: the
    rows are split depth first by the planes, the most significant first.
    A split takes one popcount (the other side's count is the difference)
    and drops an empty side; leaf z adds its count to counts[z].  The walk
    keeps an explicit stack, so each mask is freed once it is split."""
    counts = np.zeros(n + 1, dtype=np.int64)
    stack = [(valid, len(planes), 0, rows)]
    while stack:
        mask, depth, z, count = stack.pop()
        if not depth:
            counts[z] += count
            continue
        depth -= 1
        high = mask & planes[depth]
        ones = int(np.bitwise_count(high).sum(dtype=np.uint32))
        if ones:
            stack.append((high, depth, z + 2**depth, ones))
        if count > ones:  # a leaf needs no mask
            stack.append((mask ^ high if depth else None, depth, z, count - ones))
    return counts


def _scalar_classes(q, size):
    """One prefix index per scalar class of the nonzero prefixes: those
    whose leading nonzero base-q digit is 1, the ranges [q^s, 2*q^s) below
    `size`.  Scaling by the q - 1 nonzero scalars takes each to the whole
    of its class, so these are (size - 1) / (q - 1) indices."""
    ranges, start = [np.arange(0)], 1
    while start < size:
        ranges.append(np.arange(start, 2 * start))
        start *= q
    return np.concatenate(ranges)


def _count_weights(code, budget, workers):
    """Weight enumerator of `code` by counting every codeword.

    Prefix 0 is counted once and one prefix per scalar class
    (_scalar_classes) q - 1 times: the suffix combinations form a subspace,
    so the block {a*p + s} of a*p is a*(block of p), with the same weights.
    Each chunk of prefixes (_chunks) gives its planes to _histogram.  With
    workers > 1 the representatives are split into contiguous parts for a
    thread pool, and counts merge by addition, so the result is exact
    regardless of scheduling.  The total is checked against q^k.
    """
    field, n = code.field, code.n
    prefix, bits, valid, _ = _split(code, budget)
    size = code.q ** (code.k - len(prefix))

    def count(part):
        counts = np.zeros(n + 1, dtype=np.int64)
        for words, planes in _chunks(field, prefix, part, bits):
            counts += _histogram(planes, valid, len(words) * size, n)
        return counts

    reps = _scalar_classes(code.q, code.q ** len(prefix))
    parts = np.array_split(reps, max(1, min(workers, len(reps))))
    if len(parts) == 1:
        scaled = count(parts[0])
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            scaled = sum(pool.map(count, parts))
    counts = count(np.arange(1)) + (code.q - 1) * scaled
    if counts.sum() != code.size:
        raise RuntimeError(
            f"enumeration counted {int(counts.sum())} codewords, "
            f"expected {code.size}"
        )
    return WeightEnumerator(counts.tolist())


def _summands(code):
    """The direct summands that the reduced echelon form shows: a list of
    (rows, columns) index arrays, one per summand, and the number of zero
    columns.

    Rows that share a nonzero column are linked, and each connected group
    of rows with the columns it covers is one summand; the groups' column
    sets are disjoint, so the code is their direct sum.  By the
    fundamental-graph criterion of matroid connectivity no summand splits
    further, so a connected code is one summand.  Each row holds
    the least row index of its group once the labels stop changing: a
    column takes the least label of its rows, a row the least of its
    columns.  Every row is alone in its pivot column, so labels only fall.
    """
    nonzero, k = code._reduced != 0, code.k
    label = np.arange(k)
    while True:
        column = np.where(nonzero, label[:, None], k).min(axis=0, initial=k)
        lowest = np.where(nonzero, column, k).min(axis=1, initial=k)
        if np.array_equal(lowest, label):
            break
        label = lowest
    heads = np.flatnonzero(label == np.arange(k))
    groups = [(np.flatnonzero(label == g), np.flatnonzero(column == g)) for g in heads]
    return groups, int(np.count_nonzero(column == k))


def _enumerate_summand(code, budget, workers):
    """Weight enumerator of one summand, by counting the smaller of C and
    its dual (_count_weights); with 2k > n the dual's count goes through
    the exact MacWilliams transform, checked to hold q^k words, exactly
    one of weight 0."""
    if 2 * code.k <= code.n:
        return _count_weights(code, budget, workers)
    from .algebra import macwilliams  # algebra imports this module

    side = dual(code)
    w = macwilliams(_count_weights(side, budget, workers), code.q, side.size)
    if sum(w.coeffs) != code.size or w.coeffs[-1] != 1:
        raise RuntimeError(
            f"MacWilliams transform gives {sum(w.coeffs)} codewords, "
            f"{w.coeffs[-1]} of weight 0; expected {code.size}, one"
        )
    return w


def enumerate_weights(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator, the product of those of the code's direct
    summands (_summands).

    A zero column is a factor x.  A one-row summand of length m holds the
    q - 1 multiples of one word of full weight, so c of them give
    (x^m + (q-1)y^m)^c with no count.  Any other summand counts the
    smaller of itself and its dual (_enumerate_summand); a connected code
    is the one summand and is counted as given.  `budget` bounds the
    words counted, the sum of q^min(k_i, n_i - k_i) over the counted
    summands, and is checked before any count; `workers` splits each
    count.
    """
    groups, zeros = _summands(code)
    q, w = code.q, zero_code_enumerator(zeros)
    for m, c in Counter(len(cols) for rows, cols in groups if len(rows) == 1).items():
        w = _full_weight_power(m, c, q) * w
    counted = [
        code if len(cols) == code.n
        else LinearCode(code.field, code._reduced[np.ix_(rows, cols)])
        for rows, cols in groups if len(rows) > 1
    ]
    words = sum(q ** min(s.k, s.n - s.k) for s in counted)
    if words > budget:
        raise EnumerationBudgetError(words, budget)
    for summand in counted:
        w = w * _enumerate_summand(summand, budget, workers)
    return w


def _combinations(field, rows):
    """The map from message indices to the combinations of the rows whose
    coefficients are their base-q digits, the first row taking the leading
    digit.  The q^s combinations of each group of s rows, q^s the largest
    power of q within 256, are built once; an index then costs one table
    row and one addition per group."""
    q, n = field.q, rows.shape[1]
    addk, mulk = field.add_table, field.mul_table
    group, tables = 1, []
    while q ** (group + 1) <= 256:
        group += 1
    for stop in range(len(rows), 0, -group):
        table = np.zeros((1, n), dtype=np.uint8)
        for row in rows[max(0, stop - group) : stop]:
            table = addk[table[:, None], mulk[:, row]].reshape(-1, n)
        tables.append(table)

    def combine(index):
        words = np.zeros((len(index), n), dtype=np.uint8)
        for i, table in enumerate(tables):
            index, digit = np.divmod(index, len(table))
            words = table[digit] if i == 0 else addk[words, table[digit]]
        return words

    return combine


def codewords_of_weight(code: LinearCode, weight: int) -> np.ndarray:
    """All codewords of the given weight, one per row, of q^k <= DEFAULT_BUDGET.

    Every prefix is walked in chunks as in _count_weights, but only the
    leaf of zero count n - weight is taken from the planes, and only its
    words are built, each a prefix plus a suffix combination.
    """
    field, n = code.field, code.n
    prefix, bits, valid, order = _split(code, DEFAULT_BUDGET)
    if not 0 <= weight <= n:
        return np.zeros((0, n), dtype=np.uint8)
    suffix = _combinations(field, code.generator[len(prefix) :])(np.maximum(order, 0))
    found = []
    for words, planes in _chunks(field, prefix, np.arange(code.q ** len(prefix)), bits):
        mask = valid[None]
        for b, plane in enumerate(planes):
            mask = mask & (plane if (n - weight) >> b & 1 else ~plane)
        i, r = np.nonzero(np.unpackbits(mask.view("u1"), axis=-1, bitorder="little"))
        found.append(field.add_table[words[i], suffix[r]])
    return np.concatenate(found)


def decompose_case_c(code: LinearCode) -> tuple[tuple[int, int], ...]:
    """Witness that a code with W = (x^2+(q-1))^(n/2), q != 2, is a direct
    sum of <(1,1)> blocks up to monomial equivalence.

    Returns n/2 disjoint coordinate pairs (0-based), sorted, which are the
    supports of the rows of the reduced echelon form.  For q != 2 such a
    W makes the code the span of words with disjoint two-point supports
    {i < j}; scaled to 1 at i and sorted by i they meet every condition of
    the reduced echelon form, which is unique, so they are its rows.  The
    rows are checked, not assumed: k rows of disjoint two-point supports
    span the code and so witness the decomposition.  They are checked
    before W, so the enumeration meets only one-row summands and zero
    columns, and counts no word.
    """
    if code.q == 2:
        raise ClassificationError(
            "binary codes with W = (x^2+1)^(n/2) are not classified"
        )
    pairs = tuple(tuple(int(i) for i in np.flatnonzero(row)) for row in code._reduced)
    flat = [i for pair in pairs for i in pair]
    if any(len(pair) != 2 for pair in pairs) or len(set(flat)) != len(flat):
        raise ClassificationError(
            "reduced echelon rows are not disjoint weight-2 words"
        )
    w = enumerate_weights(code)
    if code.n % 2 or w != pair_sum_enumerator(code.n, code.q):
        raise ClassificationError(
            "weight enumerator is not (x^2+(q-1))^(n/2)"
        )
    return pairs
