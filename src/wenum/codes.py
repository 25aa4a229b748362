"""Linear codes over GF(q): enumeration, weight enumerators, duals.

Enumeration is the hot loop, so it runs on the smaller side: an [n, k]
code with 2k > n has a dual of only q^(n-k) words, and the MacWilliams
transform of the dual's enumerator (algebra.macwilliams, exact integer
arithmetic) is the code's.  `budget` therefore bounds q^min(k, n-k), the
words actually counted.

Messages of the counted code are split into a prefix (the first t
symbols) and a suffix (the last j symbols).  Every codeword is one
prefix combination p of the generator rows plus one suffix combination
s, and its weight is n minus its zero count.  Coordinate c
of p + s is zero exactly when s_c = -p_c, so no codeword needs to be
built to count its zeros.  Both halves are held as per-value bitmasks
(bit c of mask v of combination s is set when s_c = v), built straight
from the generator rows by doubling in packed form: each further row
multiplies the number of combinations by q with word operations only,
so no table of q^j combinations is built or packed.  The zero counts of
a whole block of q^j codewords are the popcounts of the OR over v of
the suffix masks ANDed with the masks of -p.  The suffix span S is
closed under scaling, so for a nonzero scalar a the block of a*p is
a*(block of p): the same weights.  Enumeration therefore counts prefix 0
once and one prefix per scalar class, the prefixes whose leading nonzero
coefficient is 1, and weights the latter by q - 1.  Workers take
contiguous parts of those representatives; per-worker counts merge by
addition.
"""

from __future__ import annotations

import math
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
_BLOCK_CAP = 1 << 16  # suffix-table rows


class WeightEnumerator:
    """Coefficient vector (a_0, ..., a_n) with a_i = #codewords of weight n-i.

    The one-variable polynomial is W(x) = sum a_i x^i; the homogeneous view
    W(x, y) = sum a_i x^i y^(n-i) is determined by the same coefficients.
    Coefficients are arbitrary-precision ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(int(c) for c in coeffs)
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

    def evaluate(self, x, y=1):
        """Homogeneous evaluation sum a_i x^i y^(n-i)."""
        n = self.n
        return sum(a * x**i * y ** (n - i) for i, a in enumerate(self.coeffs) if a)

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

    def poly_string(self, homogeneous=True) -> str:
        n = self.n
        terms = []
        for i in range(n, -1, -1):
            a = self.coeffs[i]
            if a == 0:
                continue
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if homogeneous and n - i:
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
    h = n // 2
    cs = [0] * (n + 1)
    for j in range(h + 1):
        cs[n - 2 * j] = math.comb(h, j) * (q - 1) ** j
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


def rank(field: FiniteField, mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = rref(field, mat)
    return len(pivots)


def nullspace(field: FiniteField, mat: np.ndarray, n: int) -> np.ndarray:
    """Basis (as rows) of {v : mat @ v = 0} over GF(q)."""
    if mat.size == 0:
        return np.eye(n, dtype=np.uint8)
    red, pivots = rref(field, mat)
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((len(free), n), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.neg_table[red[: len(pivots)][:, free]].T
    return basis


# --- codes ----------------------------------------------------------------


class LinearCode:
    """A linear [n, k] code given by a full-row-rank generator matrix.

    The generator is stored as given (no automatic reduction); rank is
    validated at construction.  Immutable afterwards.
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
        if rank(field, gen) != k:
            raise DomainError("generator matrix does not have full row rank")
        gen.setflags(write=False)
        self.generator = gen
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
        a, _ = rref(self.field, self.generator)
        b, _ = rref(other.field, other.generator)
        return bool(np.array_equal(a[: self.k], b[: self.k]))

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def direct_sum(a: LinearCode, b: LinearCode) -> LinearCode:
    """Block-diagonal sum; W factors as the product of the summands' W."""
    if a.field != b.field:
        raise FieldMismatchError("direct sum needs codes over the same field")
    gen = np.zeros((a.k + b.k, a.n + b.n), dtype=np.uint8)
    gen[: a.k, : a.n] = a.generator
    gen[a.k :, a.n :] = b.generator
    return LinearCode(a.field, gen)


def dual(code: LinearCode) -> LinearCode:
    """Orthogonal complement for the standard inner product."""
    basis = nullspace(code.field, code.generator, code.n)
    return LinearCode(code.field, basis, n=code.n)


# --- enumeration ----------------------------------------------------------


def _pack(bits):
    """Rows of n bools as ceil(n/64) uint64 words each: bit b of word w is
    column 64*w + b, and bits past column n are clear."""
    words = -(-bits.shape[-1] // 64)
    packed = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    bytes_ = np.packbits(bits, axis=-1, bitorder="little")
    packed[..., : bytes_.shape[-1]] = bytes_
    return packed.view("<u8")


def _masks(field, rows):
    """masks[v, w, r] has bit b set when coordinate 64*w + b of combination
    r of the generator rows equals v.

    Combination r takes the base-q digits of r as coefficients, the first
    row taking the leading digit; no rows give the single zero word.  The
    masks are built by doubling in packed form, last row first: given the
    masks of the R combinations of the rows after g, combination a*R + r is
    a*g plus combination r, whose coordinate c equals v exactly when
    g_c = u and combination r has v - a*u at c, for some value u of g.  So
    its mask of value v is the OR over the values u of g of the old mask of
    v - a*u cut to the columns where g equals u.  Only words are touched:
    no combination is built and nothing is packed but g itself.
    """
    q, n = field.q, rows.shape[1]
    words = -(-n // 64)
    masks = np.zeros((q, words, 1), dtype=np.uint64)
    masks[0, :, 0] = _pack(np.ones(n, dtype=bool))
    subk, mulk = field.sub_table, field.mul_table
    for g in rows[::-1]:
        values = np.flatnonzero(np.bincount(g, minlength=q))
        cols = _pack(g == values[:, None])[:, None, :, None]
        old = masks
        size = old.shape[2]
        cut, shifted = np.empty_like(old), np.empty_like(old)
        masks = np.empty((q, words, q, size), dtype=np.uint64)
        for i, u in enumerate(values):
            np.bitwise_and(old, cols[i], out=cut)
            for a in range(q):
                # value v of block a takes the cut mask of v - a*u; indices
                # are field elements, so "clip" never clips and writes in place
                into = masks[:, :, a] if i == 0 else shifted
                np.take(cut, subk[:, mulk[a, u]], axis=0, out=into, mode="clip")
                if i:
                    masks[:, :, a] |= shifted
        masks = masks.reshape(q, words, q * size)
    return masks


def _tables(code, budget):
    """Budget check, then the masks of the negated prefix combinations and
    of the suffix combinations.

    The suffix takes the last j generator rows, with q^j the largest power
    of q within _BLOCK_CAP; the prefix takes the rest.  Message i*q^j + r
    is prefix combination i plus suffix combination r.  The mask of value
    v of -p is the mask of value -v of p.
    """
    total = code.size
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    q, k = code.q, code.k
    j = 0
    while j < k and q ** (j + 1) <= _BLOCK_CAP:
        j += 1
    return (
        _masks(code.field, code.generator[: k - j])[code.field.neg_table],
        _masks(code.field, code.generator[k - j :]),
    )


def _zero_counts(negated, masks):
    """For each prefix p, the zero count of p + s for every suffix row s.

    `masks` holds the suffix combinations and `negated` the negated prefix
    combinations, both as _masks.  Coordinate c of p + s is zero exactly
    when s_c = -p_c, so the zeros of p + s are the bits where the suffix
    mask of value v meets the mask of value v of -p, for some v.  Only the
    values that -p takes in a word are visited (each word has one at
    least), so a word costs one pass per such value, not q.  Counts reach
    n, so they are summed over the words in the smallest unsigned type
    that holds 64 bits per word.
    """
    _, words, rows = masks.shape
    count_type = np.min_scalar_type(64 * words)
    hits = np.empty(rows, dtype=np.uint64)
    meet = np.empty(rows, dtype=np.uint64)
    for i in range(negated.shape[2]):
        zeros = np.zeros(rows, dtype=count_type)
        for w in range(words):
            first, *rest = np.flatnonzero(negated[:, w, i])
            np.bitwise_and(masks[first, w], negated[first, w, i], out=hits)
            for v in rest:
                np.bitwise_and(masks[v, w], negated[v, w, i], out=meet)
                hits |= meet
            zeros += np.bitwise_count(hits)
        yield zeros


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

    The prefix and suffix combinations are built as per-value bitmasks by
    packed doubling (_masks), and each prefix gives the zero counts of its
    block (itself plus every suffix combination) by popcounts, without
    building a codeword; a_i counts the words with i zeros, so the
    histogram of zero counts is the enumerator.  The suffix combinations
    form a subspace S, so for a nonzero scalar a the block of a*p is
    {a*p + s} = a*(block of p), and scaling keeps every weight: the q - 1
    prefixes of a scalar class have one histogram.  Prefix 0 is counted
    once and one prefix per class (_scalar_classes) q - 1 times.  With
    workers > 1 those representatives are split into contiguous parts
    counted by a thread pool, and counts merge by addition, so the result
    is exact regardless of scheduling.  The total is checked against q^k.
    """
    n = code.n
    negated, masks = _tables(code, budget)

    def count(part):
        counts = np.zeros(n + 1, dtype=np.int64)
        for zeros in _zero_counts(part, masks):
            counts += np.bincount(zeros, minlength=n + 1)
        return counts

    reps = negated[:, :, _scalar_classes(code.q, negated.shape[2])]
    parts = np.array_split(reps, max(1, min(workers, reps.shape[2])), axis=2)
    if len(parts) == 1:
        scaled = count(parts[0])
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            scaled = sum(pool.map(count, parts))
    counts = count(negated[:, :, :1]) + (code.q - 1) * scaled
    if counts.sum() != code.size:
        raise RuntimeError(
            f"enumeration counted {int(counts.sum())} codewords, "
            f"expected {code.size}"
        )
    return WeightEnumerator(counts.tolist())


def enumerate_weights(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator, by counting the smaller of C and its dual.

    With 2k <= n the q^k words of C are counted (_count_weights).  With
    2k > n the q^(n-k) words of the dual are counted instead and W_C is
    their exact MacWilliams transform, which raises unless every
    coefficient divides.  Either way `budget` bounds the words counted,
    q^min(k, n-k), and `workers` splits that count.  The count is checked
    against the size of the side counted, and a transformed enumerator to
    hold q^k words, exactly one of weight 0.
    """
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


def _combinations(field, rows, index):
    """The combinations of the generator rows whose coefficients are the
    base-q digits of each index, the first row taking the leading digit.

    The rows are taken in groups of s, with q^s the largest power of q
    within 256: the q^s combinations of a group are built once, and each
    index then costs one table row and one addition per group.
    """
    q, n = field.q, rows.shape[1]
    addk, mulk = field.add_table, field.mul_table
    group = 1
    while q ** (group + 1) <= 256:
        group += 1
    words = np.zeros((len(index), n), dtype=np.uint8)
    for stop in range(len(rows), 0, -group):
        table = np.zeros((1, n), dtype=np.uint8)
        for row in rows[max(0, stop - group) : stop]:
            table = addk[table[:, None], mulk[:, row]].reshape(-1, n)
        index, digit = np.divmod(index, len(table))
        words = table[digit] if stop == len(rows) else addk[words, table[digit]]
    return words


def codewords_of_weight(
    code: LinearCode, weight: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """All codewords of the given weight, one per row.

    Zero counts pick the messages first; only the returned words are
    built.
    """
    negated, masks = _tables(code, budget)
    size = masks.shape[2]
    zeros = _zero_counts(negated, masks)
    index = np.concatenate([
        i * size + np.flatnonzero(z == code.n - weight)
        for i, z in enumerate(zeros)
    ])
    return _combinations(code.field, code.generator, index)


def decompose_case_c(
    code: LinearCode, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[int, int], ...]:
    """Witness that a code with W = (x^2+(q-1))^(n/2), q != 2, is a direct
    sum of <(1,1)> blocks up to monomial equivalence.

    Returns n/2 disjoint coordinate pairs (0-based), each supporting a
    weight-2 codeword, such that those codewords generate the code.
    """
    if code.q == 2:
        raise ClassificationError(
            "binary codes with W = (x^2+1)^(n/2) are not classified"
        )
    w = enumerate_weights(code, budget=budget)
    if code.n % 2 or w != pair_sum_enumerator(code.n, code.q):
        raise ClassificationError(
            "weight enumerator is not (x^2+(q-1))^(n/2)"
        )
    # In reduced echelon form a codeword's pivot coordinates are its message
    # symbols, so a weight-2 word has at most two nonzero symbols: up to a
    # scalar it is a row r_i or some r_i + c*r_j with i < j and c != 0.
    red, _ = rref(code.field, code.generator)
    lo, hi = np.triu_indices(code.k, 1)
    scales = np.arange(1, code.q, dtype=np.uint8)[:, None]
    mixed = code.field.add_table[
        red[lo, None], code.field.mul_table[scales, red[hi, None]]
    ]
    candidates = np.concatenate([red, mixed.reshape(-1, code.n)])
    reps = {}
    for word in candidates[np.count_nonzero(candidates, axis=1) == 2]:
        support = tuple(int(i) for i in np.nonzero(word)[0])
        reps.setdefault(support, word)
    pairs = sorted(reps)
    half = code.n // 2
    if len(pairs) != half:
        raise ClassificationError(
            f"expected {half} weight-2 supports, found {len(pairs)}"
        )
    seen = set()
    for i, j in pairs:
        if i in seen or j in seen:
            raise ClassificationError("weight-2 supports are not disjoint")
        seen.update((i, j))
    gens = np.stack([reps[p] for p in pairs])
    if rank(code.field, gens) != code.k:
        raise ClassificationError("weight-2 codewords do not generate the code")
    return tuple(pairs)
