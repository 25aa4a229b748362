"""monic_gcd's early exit modulo a prime against plain rational Euclid."""

import random
from fractions import Fraction

import pytest

from wenum import polyx

P = 2**61 - 1


def euclid_over_q(p, q):
    """Monic gcd by Euclid over Fractions, written out here: shares no
    code with polyx."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while b:
        while len(a) >= len(b):  # a mod b
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for j, v in enumerate(b):
                a[shift + j] -= c * v
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return tuple(c / a[-1] for c in a)


def random_int_poly(rng, deg, bound=9):
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    return tuple(cs + [rng.choice([-1, 1]) * rng.randint(1, bound)])


@pytest.fixture
def exact_steps(monkeypatch):
    """Counts the polynomial divisions of the exact Euclid."""
    calls = []

    def counted(p, q):
        calls.append(1)
        return divmod_exact(p, q)

    divmod_exact = polyx.divmod_exact
    monkeypatch.setattr(polyx, "divmod_exact", counted)
    return calls


def test_square_factor_never_exits():
    # p f^2 shares f with its derivative: no prime makes that gcd constant
    rng = random.Random(1)
    for _ in range(200):
        f = random_int_poly(rng, rng.randint(1, 3))
        p = polyx.mul(random_int_poly(rng, rng.randint(0, 6)), polyx.mul(f, f))
        dp = polyx.derivative(p)
        assert not polyx._coprime_mod_p(p, dp)
        got = polyx.monic_gcd(p, dp)
        assert got == euclid_over_q(p, dp)
        assert polyx.degree(got) >= polyx.degree(f)


def test_square_free_exits_with_rational_result(exact_steps):
    rng = random.Random(2)
    tried = 0
    while tried < 200:
        p = random_int_poly(rng, rng.randint(1, 12))
        dp = polyx.derivative(p)
        if euclid_over_q(p, dp) != (1,):
            continue  # not square-free
        tried += 1
        assert polyx._coprime_mod_p(p, dp)
        assert polyx.monic_gcd(p, dp) == (Fraction(1),) == euclid_over_q(p, dp)
    assert not exact_steps  # the exit decided every one


def test_lead_divisible_by_prime_takes_exact_path(exact_steps):
    # g = P x + 1 is constant modulo P, so p = g (x + 2) and q = g (x + 3)
    # are coprime modulo P while over Q they share the root -1/P
    g = (1, P)
    p, q = polyx.mul(g, (2, 1)), polyx.mul(g, (3, 1))
    assert not polyx._coprime_mod_p(p, q)
    assert polyx.monic_gcd(p, q) == euclid_over_q(p, q) == (Fraction(1, P), 1)
    assert exact_steps


def test_fraction_inputs_take_exact_path(exact_steps):
    p = (Fraction(1, 2), Fraction(0), Fraction(3))
    q = (Fraction(-1), Fraction(2, 3))
    assert polyx.monic_gcd(p, q) == euclid_over_q(p, q) == (Fraction(1),)
    assert exact_steps
