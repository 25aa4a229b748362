"""Field arithmetic: spec examples plus exhaustive axiom checks."""

import pytest

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
