"""Exact scalar arithmetic: the coefficient fields behind every computation.

Everything in this package is computed exactly, so floating point never
appears.  A *field* here is a small stateless object exposing a uniform
protocol (``zero``, ``one``, ``add``, ``mul``, ``inv``, ...) over opaque
element values:

* :class:`Rationals` works on :class:`fractions.Fraction`,
* :class:`PrimeField` works on ints reduced mod p,
* ``laurent.CyclotomicField`` adds Q[z]/(Phi_d) with the same protocol.

:class:`FieldSpec` is the user-facing selector ("q" or a prime p) that the
rest of the package passes around; call :meth:`FieldSpec.scalars` to get
the arithmetic object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Protocol base for exact fields; see the module docstring."""

    char = 0
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def to_str(self, a) -> str:
        return str(a)


class Rationals(Field):
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def from_int(self, n):
        return Fraction(n)

    def is_zero(self, a) -> bool:
        return not a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Rationals()"


class PrimeField(Field):
    """GF(p) with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
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


@functools.lru_cache(maxsize=None)
def _field_for(p: int | None) -> Field:
    return Rationals() if p is None else PrimeField(p)


@dataclass(frozen=True)
class FieldSpec:
    """Selects the coefficient field K: rationals (p=None) or GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"field characteristic {self.p} is not prime")

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def scalars(self) -> Field:
        return _field_for(self.p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Accepts "q"/"Q" for the rationals and "p:7", "p 7" or "7" for GF(7)."""
        t = text.strip().lower()
        if t in ("q", "rationals", "0"):
            return FieldSpec()
        if t.startswith("p:") or t.startswith("p "):
            t = t[2:]
        if not t.isdigit():
            raise ValueError(f"cannot parse field selector {text!r}")
        return FieldSpec(int(t))

    def __str__(self):
        return "Q" if self.p is None else f"F{self.p}"


QQ = FieldSpec()
