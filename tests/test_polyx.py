"""The integer polynomial layer against plain rational Euclid: monic_gcd's
early exit modulo a prime, the primitive remainder sequence behind it,
exact division in Z[x] and Yun's decomposition."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from wenum import polyx

P = 2**61 - 1


def rem_over_q(a, b):
    """a mod b over Q, as a list of Fractions (empty for zero)."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        c, shift = a[-1] / b[-1], len(a) - len(b)
        for j, v in enumerate(b):
            a[shift + j] -= c * v
        while a and a[-1] == 0:
            a.pop()
    return a


def euclid_over_q(p, q):
    """Monic gcd by Euclid over Fractions, written out here: shares no
    code with polyx."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while b:
        a, b = b, rem_over_q(a, b)
    return tuple(c / a[-1] for c in a)


def primitive(p):
    """The integer multiple of rational p with content 1 and positive
    leading coefficient."""
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * den) for c in p]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return tuple(v // g for v in ints)


def random_int_poly(rng, deg, bound=9):
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    return tuple(cs + [rng.choice([-1, 1]) * rng.randint(1, bound)])


@pytest.fixture
def exact_steps(monkeypatch):
    """Counts the pseudo-remainders of the exact gcd."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return prem(a, b)

    prem = polyx._prem
    monkeypatch.setattr(polyx, "_prem", counted)
    return calls


def test_square_factor_never_exits():
    # p f^2 shares f with its derivative: no prime makes that gcd constant
    rng = random.Random(1)
    for _ in range(200):
        f = random_int_poly(rng, rng.randint(1, 3))
        p = polyx.mul(random_int_poly(rng, rng.randint(0, 6)), polyx.mul(f, f))
        dp = polyx.derivative(p)
        assert not polyx.coprime(p, dp)
        got = polyx.monic_gcd(p, dp)
        assert got == primitive(euclid_over_q(p, dp))
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
        assert polyx.coprime(p, dp)
        assert polyx.monic_gcd(p, dp) == (1,) == euclid_over_q(p, dp)
    assert not exact_steps  # the exit decided every one


def test_lead_divisible_by_prime_takes_exact_path(exact_steps):
    # g = P x + 1 is constant modulo P, so p = g (x + 2) and q = g (x + 3)
    # are coprime modulo P while over Q they share the root -1/P
    g = (1, P)
    p, q = polyx.mul(g, (2, 1)), polyx.mul(g, (3, 1))
    assert not polyx.coprime(p, q)
    assert euclid_over_q(p, q) == (Fraction(1, P), 1)
    assert polyx.monic_gcd(p, q) == primitive(euclid_over_q(p, q)) == (1, P)
    assert exact_steps


def test_div_exact_stays_in_integers():
    with pytest.raises(ValueError):
        polyx.div_exact((2, 2), (4, 4))  # the quotient 1/2 is not in Z[x]
    with pytest.raises(ValueError):
        polyx.div_exact((1, 0, 1), (1, 1))  # a nonzero remainder
    rng = random.Random(3)
    for _ in range(100):
        a = random_int_poly(rng, rng.randint(0, 6))
        b = random_int_poly(rng, rng.randint(0, 4))
        assert polyx.div_exact(polyx.mul(a, b), b) == a


def test_prem_is_a_multiple_of_the_remainder():
    rng = random.Random(4)
    for _ in range(300):
        a = random_int_poly(rng, rng.randint(0, 10), bound=50)
        b = random_int_poly(rng, rng.randint(0, 6), bound=50)
        got = polyx._prem(a, b)
        want = rem_over_q(a, b)
        assert all(type(c) is int for c in got)
        assert len(got) == len(want)
        if want:
            ratio = Fraction(got[-1]) / want[-1]
            assert [ratio * c for c in want] == list(got)


def test_yun_on_repeated_factors_with_content():
    # c f1 f2^2 f3^5 with content |c| > 1 and factors of either sign: Yun
    # returns each f_i in primitive form with its multiplicity
    rng = random.Random(5)
    tried = 0
    while tried < 100:
        fs = [random_int_poly(rng, rng.randint(1, 3)) for _ in range(3)]
        sqfree = polyx.mul(fs[0], polyx.mul(fs[1], fs[2]))
        if euclid_over_q(sqfree, polyx.derivative(sqfree)) != (1,):
            continue  # a repeated or shared root
        tried += 1
        c = rng.choice([-1, 1]) * rng.randint(2, 30)
        p = polyx.mul((c,), fs[0])
        for f, mult in zip(fs[1:], (2, 5)):
            for _ in range(mult):
                p = polyx.mul(p, f)
        dp = polyx.derivative(p)
        assert polyx.monic_gcd(p, dp) == primitive(euclid_over_q(p, dp))
        want = [(primitive(f), mult) for f, mult in zip(fs, (1, 2, 5))]
        assert polyx.yun_squarefree(p) == want
