"""Linear codes over GF(q): enumeration, weight enumerators, duals.

Enumeration is the hot loop.  Messages are split into a prefix (the
first t symbols) and a suffix (the last j symbols), and the q^t prefix
and q^j suffix combinations of the generator rows are materialized once
as two tables.  Every codeword is one prefix row p plus one suffix row
s, and its weight is n minus its zero count.  Coordinate c of p + s is
zero exactly when s_c = -p_c, so no codeword needs to be built to count
its zeros: the suffix table is packed once into per-value bitmasks
(bit c of mask v of row s is set when s_c = v), the negated prefix row
into the same form, and the zero counts of a whole block of q^j
codewords are the popcounts of the OR over v of the two masks' AND.
Workers take contiguous parts of the prefix table, which is exactly a
partition of the message space by its leading symbols; per-worker
counts merge by addition.
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
        """Number of codewords of weight w."""
        return self.coeffs[self.n - w]

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
    """Reduced row-echelon form.  Returns (rref_matrix, pivot_columns)."""
    m = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = m.shape if m.ndim == 2 else (0, 0)
    mulk = field.mul_table
    subk = field.sub_table
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i, c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = field.inv(int(m[r, c]))
        m[r] = mulk[inv, m[r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = subk[m[i], mulk[int(m[i, c]), m[r]]]
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
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    neg = field.neg_table
    for row, f in enumerate(free):
        basis[row, f] = 1
        for r, c in enumerate(pivots):
            basis[row, c] = neg[red[r, f]]
    return basis


# --- codes ----------------------------------------------------------------


class LinearCode:
    """A linear [n, k] code given by a full-row-rank generator matrix.

    The generator is stored as given (no automatic reduction); rank is
    validated at construction.  Immutable afterwards.
    """

    def __init__(self, field: FiniteField, generator, n: int | None = None):
        self.field = field
        gen = np.array(generator, dtype=np.uint8)
        if gen.size == 0:
            if n is None:
                raise DomainError("zero code needs an explicit length")
            gen = gen.reshape(0, n)
        if gen.ndim != 2:
            raise DomainError("generator must be a 2-d matrix")
        if gen.size and gen.max() >= field.q:
            raise DomainError(
                f"generator entry {int(gen.max())} outside GF({field.q})"
            )
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


def _combination_table(field, rows):
    """All GF(q)-combinations of the given generator rows, one per table row.

    Row r holds the combination whose coefficients are the base-q digits
    of r, the first generator row taking the leading digit.  No rows give
    the single zero word.
    """
    q = field.q
    n = rows.shape[1]
    table = np.zeros((1, n), dtype=np.uint8)
    addk = field.add_table
    mulk = field.mul_table
    for row in rows:
        scaled = mulk[np.arange(q, dtype=np.uint8)[:, None], row[None, :]]
        table = addk[table[:, None, :], scaled[None, :, :]].reshape(-1, n)
    return table


def _tables(code, budget):
    """Budget check, then the prefix and suffix combination tables.

    The suffix table takes the last j generator rows, with q^j the largest
    power of q within _BLOCK_CAP; the prefix table takes the rest.  Every
    message is one prefix row plus one suffix row.
    """
    total = code.size
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    q, k = code.q, code.k
    j = 0
    while j < k and q ** (j + 1) <= _BLOCK_CAP:
        j += 1
    return (
        _combination_table(code.field, code.generator[: k - j]),
        _combination_table(code.field, code.generator[k - j :]),
    )


def _bitmasks(q, values):
    """masks[v, w, r] has bit b set when values[r, 64*w + b] == v.

    A row of n symbols takes ceil(n/64) uint64 words per value; bits past
    column n stay clear in every mask.
    """
    rows, n = values.shape
    words = -(-n // 64)
    masks = np.empty((q, words, rows), dtype=np.uint64)
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    for v in range(q):
        bits = np.packbits(values == v, axis=1, bitorder="little")
        packed[:, : bits.shape[1]] = bits
        masks[v] = packed.view("<u8").T
    return masks


def _zero_counts(field, prefixes, masks):
    """For each prefix row p, the zero count of p + s for every suffix row s.

    `masks` holds the suffix table as _bitmasks.  Coordinate c of p + s is
    zero exactly when s_c = -p_c, so the zeros of p + s are the bits where
    the suffix mask of value v meets the columns with -p_c = v, for some v.
    Counts reach n, so they are summed over the words in the smallest
    unsigned type that holds n.
    """
    q, words, rows = masks.shape
    count_type = np.min_scalar_type(prefixes.shape[1])
    negated = _bitmasks(q, field.neg_table[prefixes])
    hits = np.empty(rows, dtype=np.uint64)
    meet = np.empty(rows, dtype=np.uint64)
    for i in range(len(prefixes)):
        zeros = np.zeros(rows, dtype=count_type)
        for w in range(words):
            np.bitwise_and(masks[0, w], negated[0, w, i], out=hits)
            for v in range(1, q):
                np.bitwise_and(masks[v, w], negated[v, w, i], out=meet)
                hits |= meet
            zeros += np.bitwise_count(hits)
        yield zeros


def enumerate_weights(
    code: LinearCode, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> WeightEnumerator:
    """Exact weight enumerator by full codeword enumeration.

    Rejects enumerations with more than `budget` codewords.  Each prefix
    row gives the zero counts of its block (itself plus every suffix
    word) by bitmask popcounts, without building the codewords; a_i counts
    the words with i zeros, so the histogram of zero counts is the
    enumerator.  With workers > 1 the prefix table is split into
    contiguous parts counted by a thread pool; a part is a set of leading
    message symbols, so counts merge by addition and the result is exact
    regardless of scheduling.
    """
    n = code.n
    prefixes, table = _tables(code, budget)
    masks = _bitmasks(code.q, table)

    def count(part):
        counts = np.zeros(n + 1, dtype=np.int64)
        for zeros in _zero_counts(code.field, part, masks):
            counts += np.bincount(zeros, minlength=n + 1)
        return counts

    parts = np.array_split(prefixes, max(1, min(workers, len(prefixes))))
    if len(parts) == 1:
        counts = count(parts[0])
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            counts = sum(pool.map(count, parts))
    if counts.sum() != code.size:
        raise RuntimeError(
            f"enumeration counted {int(counts.sum())} codewords, "
            f"expected {code.size}"
        )
    return WeightEnumerator(counts.tolist())


def codewords_of_weight(
    code: LinearCode, weight: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """All codewords of the given weight, one per row.

    Zero counts pick the suffix rows first; only the returned words are
    built.
    """
    prefixes, table = _tables(code, budget)
    addk = code.field.add_table
    zeros = _zero_counts(code.field, prefixes, _bitmasks(code.q, table))
    return np.concatenate([
        addk[table[z == code.n - weight], p] for p, z in zip(prefixes, zeros)
    ])


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
    reps = {}
    for word in codewords_of_weight(code, 2, budget=budget):
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
