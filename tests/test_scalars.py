"""Exact arithmetic over Q on ints and Fractions, the orders read off
trial-division factorisations against their brute-force definitions, and
Miller-Rabin primality against trial division."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from artinkernels import Character, LabeledGraph, torsion_support
from artinkernels.laurent import t_minus_one_multiplicities, totient
import pytest

from artinkernels.scalars import (PRIME_LIMIT, PrimeField, Rationals, divisors,
                                  is_prime, parse_field, prime_factors)
from artinkernels.smith import cyclotomic_candidates

Q = Rationals()
N = 3000

rationals = st.one_of(st.integers(-60, 60), st.fractions(max_denominator=12))


def exact(x) -> bool:
    return type(x) in (int, Fraction)


# -- Rationals: an element is an int or a Fraction, never a float -----------

@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_rational_ops_on_mixed_operands_stay_exact(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((Q.add(a, b), fa + fb), (Q.sub(a, b), fa - fb),
                      (Q.mul(a, b), fa * fb), (Q.neg(a), -fa)):
        assert exact(got) and got == want
    assert Q.is_zero(a) == (fa == 0)
    if b:
        for got, want in ((Q.inv(b), 1 / fb), (Q.mul(a, Q.inv(b)), fa / fb)):
            assert exact(got) and got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60))
def test_integral_values_stay_ints(a, b):
    for x in (Q.add(a, b), Q.sub(a, b), Q.mul(a, b), Q.neg(a), Q.from_int(a),
              Q.zero, Q.one, Q.inv(1), Q.inv(-1), Q.mul(a, Q.inv(1)),
              Q.mul(a, Q.inv(-1))):
        assert type(x) is int
    assert Q.inv(Fraction(-1)) == -1 and exact(Q.inv(Fraction(-1)))


# -- orders from factorisations ---------------------------------------------

def divisor_sieve(n: int) -> list[list[int]]:
    """divs[m] lists the d in 1..m with d | m, by marking multiples."""
    divs = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divs[m].append(d)
    return divs


def test_prime_factors_and_divisors_match_brute_force():
    divs = divisor_sieve(N)
    for n in range(1, N + 1):
        assert divisors(n) == divs[n], n
        assert prime_factors(n) == [p for p in divs[n] if len(divs[p]) == 2], n


def test_totient_matches_brute_force():
    for n in range(1, N + 1):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n


def test_t_minus_one_multiplicities_match_brute_force():
    divs = divisor_sieve(N)
    for char in (0, 2, 3, 5):
        for n in range(1, N + 1):
            m, power = n, 1
            while char and m % char == 0:
                m, power = m // char, power * char
            want = {d: power for d in divs[m]}
            assert t_minus_one_multiplicities(n, char) == want, (n, char)
            assert t_minus_one_multiplicities(-n, char) == want, (n, char)


def test_candidates_and_torsion_support_match_brute_force():
    """On the edge u-v with label 4, 6 or 8 and m_u = +-n, m_v = 1."""
    label_top = 8
    divs = divisor_sieve(label_top // 2 * (N + 1))
    graphs = {lab: LabeledGraph(["u", "v"], [("u", "v", lab)]) for lab in (4, 6, 8)}
    for n in range(1, N + 1):
        g = graphs[4 + 2 * (n % 3)]
        mu = n if n % 2 else -n
        c = Character(g, {"u": mu, "v": 1})
        me = mu + 1             # never 0
        edge = {d for d in divs[g.ell_tilde("u", "v") * abs(me)] if me % d}
        want = sorted({1} | set(divs[n]) | edge)
        assert cyclotomic_candidates(g, c) == want, n
        assert torsion_support(g, c).values == tuple(d for d in want if d > 1), n


# -- primality ---------------------------------------------------------------

def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-3, 10 ** 5 + 1):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_on_pseudoprimes_and_large_primes():
    # a Carmichael number, and the least strong pseudoprimes to all prime
    # bases through 7, through 31 and through 37
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    mersenne61 = 2 ** 61 - 1
    assert is_prime(mersenne61)
    assert not is_prime(mersenne61 * (2 ** 13 - 1))
    assert is_prime(10 ** 16 + 61)
    assert parse_field(f"p:{mersenne61}").p == mersenne61


def test_is_prime_refuses_what_it_cannot_certify():
    assert not is_prime(PRIME_LIMIT - 1)
    for n in (PRIME_LIMIT, PRIME_LIMIT + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


@pytest.mark.parametrize("text", ["p ²", "²", "p:7²", "p:", "", "p -3", "GF(3)"])
def test_field_selector_parse_refuses_what_names_no_field(text):
    """Each selector fails with the parser's own message.  Superscripts are
    digits but not decimal, so `int` would refuse them with its message."""
    with pytest.raises(ValueError, match="cannot parse field selector"):
        parse_field(text)
