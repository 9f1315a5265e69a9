"""Exact scalar arithmetic: the coefficient fields behind every computation.

Everything in this package is computed exactly, so floating point never
appears.  A *field* here is a small object exposing a uniform protocol
(``zero``, ``one``, ``add``, ``mul``, ``inv``, ...) over opaque element
values; only an ss sweep's own K_d keeps state, its memos of inverses and
products, and no value depends on them:

* :class:`Rationals` works on exact rationals: Python ints while a value
  is integral, :class:`fractions.Fraction` once a non-unit is inverted,
* :class:`PrimeField` works on ints reduced mod p,
* ``laurent.CyclotomicField`` adds Q[z]/(Phi_d) with the same protocol.

The coefficient field K of a run is one of the first two, ``QQ`` or a
``PrimeField(p)``, passed as is to every route; :func:`parse_field` reads
it from the input's and the command line's spellings, and ``str`` gives
its report name, "Q" or "F<p>".
"""

from __future__ import annotations

import operator
from fractions import Fraction


# Miller-Rabin to the first 13 prime bases is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality of n < PRIME_LIMIT (about 3.3e24) by deterministic
    Miller-Rabin; raises ValueError for a larger n, which it cannot certify."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is too large: primality is certified only below "
                         f"{PRIME_LIMIT}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, from its prime factors."""
    out = [1]
    for p in prime_factors(n):
        powers = [1]
        while n % (powers[-1] * p) == 0:
            powers.append(powers[-1] * p)
        out = [x * q for x in out for q in powers]
    return sorted(out)


class Field:
    """Protocol base for exact fields (module docstring): each field gives
    zero, one, add, neg, sub, mul, inv, from_int and is_zero, and shares
    div and to_str."""

    char = 0
    zero = None
    one = None

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a) -> str:
        return str(a)


class Rationals(Field):
    """Q.  An element is an int or a Fraction; the two are both exact
    rationals and compare and hash alike, so 3 and Fraction(3) are one
    element.  zero, one and from_int give ints, and add, sub, mul and neg
    are the native operators and is_zero `not`, the C callables of
    `operator` (a builtin binds no self), so integral matrices are
    eliminated on ints without a Python-level call per entry.  inv and div
    never produce a float: inv(a) is a itself for a = +-1 and
    Fraction(1, a) otherwise, and div(a, b) is a * inv(b)."""

    char = 0
    zero = 0
    one = 1
    add, neg, sub, mul = operator.add, operator.neg, operator.sub, operator.mul
    is_zero = operator.not_

    def inv(self, a):
        return a if a == 1 or a == -1 else Fraction(1, a)

    def from_int(self, n):
        return n

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Rationals()"

    def __str__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) with elements stored as ints in [0, p), so is_zero is `not`."""

    is_zero = operator.not_

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __str__(self):
        return f"F{self.p}"


QQ = Rationals()


def parse_field(text: str) -> Field:
    """Accepts "q"/"Q", "rationals" or "0" for the rationals and "p:7",
    "p 7" or "7" for GF(7), the digits ASCII."""
    t = text.strip().lower()
    if t in ("q", "rationals", "0"):
        return QQ
    if t.startswith("p:") or t.startswith("p "):
        t = t[2:]
    if not (t.isascii() and t.isdecimal()):
        raise ValueError(f"cannot parse field selector {text!r}")
    return PrimeField(int(t))
