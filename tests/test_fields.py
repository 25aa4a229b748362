"""Field arithmetic: spec examples plus exhaustive axiom checks."""

import hashlib
from itertools import product

import numpy as np
import pytest

from wenum.codes import LinearCode, enumerate_weights, full_space_enumerator
from wenum.errors import DomainError
from wenum.fields import GF, FiniteField

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 16]


def test_gf2_char2():
    f = GF(2)
    assert f.add(1, 1) == 0


def test_gf4_fixed_irreducible():
    # x^2 + x + 1, so omega = index 2, omega^2 = index 3
    f = GF(4)
    assert f.irreducible == (1, 1, 1)
    omega, one = 2, 1
    assert f.add(omega, one) == 3
    assert f.mul(omega, omega) == 3
    assert f.inv(omega) == 3


def test_gf5_arithmetic():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(2, 3) == 1
    assert f.inv(2) == 3


@pytest.mark.parametrize("q", SUPPORTED)
def test_absorbing_zero_and_identities(q):
    f = GF(q)
    for a in range(q):
        assert f.mul(a, 0) == 0
        assert f.mul(a, 1) == a
        assert f.add(a, 0) == a
    assert f.inv(1) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(DomainError):
        GF(5).inv(0)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    els = range(q)
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if a:
                assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED)
def test_multiplicative_group_cyclic(q):
    f = GF(q)
    orders = []
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = f.mul(x, a)
            order += 1
        orders.append(order)
    assert max(orders) == q - 1


@pytest.mark.parametrize("q", SUPPORTED)
def test_irreducible_has_no_root(q):
    f = GF(q)
    if f.e == 1:
        return
    p = f.p
    for x in range(p):
        val = sum(c * x**i for i, c in enumerate(f.irreducible)) % p
        assert val != 0


def test_non_prime_power_rejected():
    with pytest.raises(DomainError):
        FiniteField(6)


def test_size_cap():
    with pytest.raises(DomainError):
        FiniteField(512)


def test_numpy_integer_size_is_a_python_int():
    # a uint8 q would wrap q**k: 4**5 is 0 in uint8
    f = GF(np.uint8(4))
    assert type(f.q) is int and f == GF(4)
    code = LinearCode(f, np.eye(5, dtype=np.uint8))
    assert code.size == 4**5
    assert enumerate_weights(code) == full_space_enumerator(5, 4)


def test_non_integer_size_rejected():
    with pytest.raises(DomainError):
        GF(2.0)


def test_numpy_integer_size_shares_the_cached_field():
    # the size is normalized before the cache lookup, so every integer
    # type of one size gets the one instance and its tables are built once
    assert GF(np.uint8(4)) is GF(4) is GF(np.int64(4))
    assert GF(np.int16(256)) is GF(256)
    with pytest.raises(DomainError):
        GF(2.0)


# irreducible and a digest of the add, sub, mul, neg and inv tables for
# every prime power q <= 256, recorded from the digit-list construction
# (trial-division modulus, tables filled pair by pair); element indices
# are part of the data format, so these must never move
TABLES = {
    2: ((0, 1), "3afa9199103ff65c"),
    3: ((0, 1), "f1eb030e03f8178f"),
    4: ((1, 1, 1), "cc3cc40a4b729da4"),
    5: ((0, 1), "c0e970cc369c4428"),
    7: ((0, 1), "626bf3556903069a"),
    8: ((1, 1, 0, 1), "3842c1cd38d6cbb2"),
    9: ((1, 0, 1), "ce4dbe5c7dcd024a"),
    11: ((0, 1), "a6878e736afe8949"),
    13: ((0, 1), "a8e1c0afac738403"),
    16: ((1, 1, 0, 0, 1), "78f3f91d02c114f2"),
    17: ((0, 1), "0d685d707f9c32e6"),
    19: ((0, 1), "f0cc5e9e6c268563"),
    23: ((0, 1), "62dcc36ae49c1f36"),
    25: ((2, 0, 1), "6dc0529dc63d5f81"),
    27: ((1, 2, 0, 1), "20b8ca96b914181d"),
    29: ((0, 1), "49dc9bea6ae5d327"),
    31: ((0, 1), "b40dcb9ef86545b1"),
    32: ((1, 0, 1, 0, 0, 1), "39703b98770dfcd9"),
    37: ((0, 1), "b2adc71b0704840b"),
    41: ((0, 1), "d2d289ff2bde01f4"),
    43: ((0, 1), "ed8f31320ec9b27f"),
    47: ((0, 1), "65644d4330ca2515"),
    49: ((1, 0, 1), "96bb8efcda208c5c"),
    53: ((0, 1), "ad53248f064163f0"),
    59: ((0, 1), "36f645b7130d8e5e"),
    61: ((0, 1), "ecdcfe85e5f48628"),
    64: ((1, 1, 0, 0, 0, 0, 1), "0b499c518c8ce2df"),
    67: ((0, 1), "ba49d2329b0191fa"),
    71: ((0, 1), "bf1e38e212ce0ead"),
    73: ((0, 1), "c55b97bca9fe6b39"),
    79: ((0, 1), "ba1e2d4885aac05e"),
    81: ((2, 1, 0, 0, 1), "208fa5b8c8c929c4"),
    83: ((0, 1), "333b213815f73e05"),
    89: ((0, 1), "d9ceafc01c43bbe1"),
    97: ((0, 1), "988ca3f94b3bcfa0"),
    101: ((0, 1), "aaabb12f8e2ea9f1"),
    103: ((0, 1), "f3be525f8595ccb6"),
    107: ((0, 1), "0b4530d91736bb12"),
    109: ((0, 1), "389a3cab7691712a"),
    113: ((0, 1), "2ab4fa892acae868"),
    121: ((1, 0, 1), "3311bd54db07be6e"),
    125: ((1, 1, 0, 1), "44ba6455c1d29f87"),
    127: ((0, 1), "12d574806ee2ddb4"),
    128: ((1, 1, 0, 0, 0, 0, 0, 1), "dff1c0bf818af9dd"),
    131: ((0, 1), "f467c42a0e7fb85f"),
    137: ((0, 1), "1d689b271bfd5bd9"),
    139: ((0, 1), "83d6fbd5a6d3b84f"),
    149: ((0, 1), "65c8f0dda2543361"),
    151: ((0, 1), "5283efe9f54dfe6c"),
    157: ((0, 1), "0b0ed18f9b1b22e4"),
    163: ((0, 1), "17ae38da9414976b"),
    167: ((0, 1), "d3f515275b2e3fb7"),
    169: ((2, 0, 1), "7259a8e9f0f0b998"),
    173: ((0, 1), "ba9e97903a39b820"),
    179: ((0, 1), "8b05c446043b20ff"),
    181: ((0, 1), "2749ab33042cdc08"),
    191: ((0, 1), "3ad6c4d435bec9dd"),
    193: ((0, 1), "1b867ec515edf1ef"),
    197: ((0, 1), "8531411d0d657361"),
    199: ((0, 1), "c23f17c52349e7ee"),
    211: ((0, 1), "3872865edc1bedb6"),
    223: ((0, 1), "980dc4eaf4a5cd78"),
    227: ((0, 1), "7b85eab776915a04"),
    229: ((0, 1), "a8b0e837cd3ff18a"),
    233: ((0, 1), "f7201f795a0d1c69"),
    239: ((0, 1), "a6a4d18e5844ff62"),
    241: ((0, 1), "1b0e4ce6c87c7c8b"),
    243: ((1, 2, 0, 0, 0, 1), "9ca9d3327b38620e"),
    251: ((0, 1), "60662567e1812d72"),
    256: ((1, 1, 0, 1, 1, 0, 0, 0, 1), "486c7a220de3177c"),
}


def _prime_power(q):
    p = next(c for c in range(2, q + 1) if q % c == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_table_digests_cover_every_prime_power():
    assert sorted(TABLES) == [q for q in range(2, 257) if _prime_power(q)]


@pytest.mark.parametrize("q", sorted(TABLES))
def test_tables_pinned(q):
    f = GF(q)
    tables = (f.add_table, f.sub_table, f.mul_table, f.neg_table, f.inv_table)
    for t, shape in zip(tables, [(q, q)] * 3 + [(q,)] * 2):
        assert t.dtype == np.uint8 and t.shape == shape and not t.flags.writeable
    digest = hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest()
    assert (f.irreducible, digest[:16]) == TABLES[q]


def _remainder(num, den, p):
    """num mod den over GF(p), den monic; coefficient lists, low first."""
    rem = list(num)
    d = len(den) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        for j, dj in enumerate(den):
            rem[i - d + j] = (rem[i - d + j] - c * dj) % p
    return rem[:d]


def _irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..e/2."""
    e = len(poly) - 1
    return all(any(_remainder(poly, list(low) + [1], p))
               for d in range(1, e // 2 + 1)
               for low in product(range(p), repeat=d))


@pytest.mark.parametrize("q", [q for q in sorted(TABLES) if _prime_power(q)[1] > 1])
def test_modulus_is_first_irreducible_in_counter_order(q):
    p, e = _prime_power(q)
    f = GF(q)
    assert len(f.irreducible) == e + 1 and f.irreducible[-1] == 1
    assert _irreducible(f.irreducible, p)
    # the low coefficients count as a base-p number, digit 0 least significant
    for big_endian in product(range(p), repeat=e):
        low = big_endian[::-1]
        if low == f.irreducible[:-1]:
            break
        assert not _irreducible(low + (1,), p), low
