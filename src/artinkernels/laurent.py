"""Exact arithmetic in K[t^{+-1}], cyclotomic polynomials and residue fields.

Conventions used throughout:

* A :class:`LaurentPoly` is a finite map exponent -> nonzero coefficient;
  exponents may be negative.  Equality is coefficient-map equality.
* Units of K[t^{+-1}] are the monomials c*t^a with c != 0.  Invariant
  factors and gcds are therefore only meaningful "up to unit";
  :func:`normalize_unit` picks the canonical representative: monic with
  nonzero constant term.
* Dense polynomials (plain coefficient lists over a field, ascending
  exponents, trimmed, ``[]`` meaning zero) are the workhorse format for
  division and gcd.  The ``dense_*`` helpers operate on those and are
  shared with the Smith normal form code.
* ``Phi_d`` denotes the d-th cyclotomic polynomial.  Over Q it is the
  standard irreducible one; over GF(p) it means the mod-p reduction,
  which may be reducible and is never split here: :func:`factor_invariant`
  peels whole Phi_d, p not dividing d, off an invariant factor over every
  field, deterministically.
* :class:`CyclotomicField` is K_d = Q[z]/(Phi_d), used as an honest
  coefficient field for the multiplicity spectral sequence.  Its elements
  are pairs (nums, den) of phi(d) integer numerators and one positive
  common denominator in lowest terms, so arithmetic runs on Python ints.
  Products, z itself and combinations of powers of z are reduced by one
  rule: fold the exponents mod d (z^d = 1), then take the remainder by the
  monic Phi_d.  :func:`quotient_residue` reads f / Phi_d^j in K_d by that
  rule, after exact integer division by Phi_d when j >= 1.  Before that
  division it folds the numerator mod the sparse (t^d - 1)^(j+1), which
  Phi_d^(j+1) divides, so the numerator has degree below d (j+1) however
  long f is, while the exactness of the division and the class of the
  quotient mod Phi_d stay those of f.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import Field, divisors, prime_factors


class ZeroPolynomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists over a scalar field)
# ---------------------------------------------------------------------------

def dense_trim(field: Field, cs: list) -> list:
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return cs


def dense_add(field: Field, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return dense_trim(field, out)


def dense_neg(field: Field, a: list) -> list:
    return [field.neg(c) for c in a]


def dense_sub(field: Field, a: list, b: list) -> list:
    return dense_add(field, a, dense_neg(field, b))


def dense_mul(field: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not field.is_zero(y):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return dense_trim(field, out)


def dense_divmod(field: Field, a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    db = len(b) - 1
    while len(r) >= len(b):
        c = field.mul(r[-1], inv_lead)
        shift = len(r) - len(b)
        q[shift] = c
        for i in range(db):
            r[shift + i] = field.sub(r[shift + i], field.mul(c, b[i]))
        r.pop()
        dense_trim(field, r)
    return dense_trim(field, q), r


def dense_monic(field: Field, a: list) -> list:
    if not a:
        return []
    lead = a[-1]
    if lead == field.one:
        return list(a)
    inv = field.inv(lead)
    return [field.mul(c, inv) for c in a]


def dense_content_scale(cs: list) -> list:
    """Rescale rational coefficients to primitive integers (gcd 1).

    Keeping remainders primitive (a primitive remainder sequence) is what
    stops the coefficient explosion of the naive Euclidean algorithm.
    """
    num = math.gcd(*(c.numerator for c in cs))
    if num == 0:
        return list(cs)
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator // num * (den // c.denominator) for c in cs]


def dense_gcd(field: Field, a: list, b: list) -> list:
    """Monic gcd via the Euclidean algorithm (primitive remainders over Q)."""
    a, b = list(a), list(b)
    primitive = field.char == 0
    while b:
        r = dense_divmod(field, a, b)[1]
        if primitive and r:
            r = dense_content_scale(r)
        a, b = b, r
    return dense_monic(field, a)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """An element of K[t^{+-1}] in canonical form (no zero coefficients)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict | None = None):
        self.field = field
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if not field.is_zero(c):
                    cleaned[e] = c
        self.coeffs = cleaned

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, {0: field.one})

    @classmethod
    def from_int(cls, field, n: int):
        return cls(field, {0: field.from_int(n)})

    @classmethod
    def t_power(cls, field, e: int):
        return cls(field, {e: field.one})

    @classmethod
    def from_int_coeffs(cls, field, coeffs: dict[int, int]):
        return cls(field, {e: field.from_int(c) for e, c in coeffs.items()})

    # -- structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no valuation")
        return min(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no degree")
        return max(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        f = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = f.add(out.get(e, f.zero), c)
        return LaurentPoly(f, out)

    def __neg__(self):
        f = self.field
        return LaurentPoly(f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = f.mul(c1, c2)
                if e in out:
                    out[e] = f.add(out[e], prod)
                else:
                    out[e] = prod
        return LaurentPoly(f, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only for monomials; use shift")
        out = LaurentPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c):
        f = self.field
        return LaurentPoly(f, {e: f.mul(v, c) for e, v in self.coeffs.items()})

    def shift(self, e: int):
        """Multiply by the unit t^e."""
        return LaurentPoly(self.field, {k + e: v for k, v in self.coeffs.items()})

    def evaluate(self, x):
        """Evaluate at an invertible element x (negative exponents use inv);
        each power by repeated squaring."""
        f = self.field
        acc = f.zero
        xinv = None
        for e, term in self.coeffs.items():
            if e < 0 and xinv is None:
                xinv = f.inv(x)
            p, k = (x, e) if e >= 0 else (xinv, -e)
            while k:
                if k & 1:
                    term = f.mul(term, p)
                k >>= 1
                if k:
                    p = f.mul(p, p)
            acc = f.add(acc, term)
        return acc

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/other; raises if the division is not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.field)
        a, va = self.dense()
        b, vb = other.dense()
        q, r = dense_divmod(self.field, a, b)
        if r:
            raise ValueError("division is not exact")
        return laurent_from_dense(self.field, q, va - vb)

    def dense(self) -> tuple[list, int]:
        """Return (coefficient list, valuation); zero gives ([], 0)."""
        if not self.coeffs:
            return [], 0
        v = self.valuation()
        d = self.degree()
        out = [self.field.zero] * (d - v + 1)
        for e, c in self.coeffs.items():
            out[e - v] = c
        return out, v

    # -- display --------------------------------------------------------
    def __str__(self):
        # ascending powers, `t^k` syntax, exact coefficients
        if not self.coeffs:
            return "0"
        f = self.field
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = f.to_str(c)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                if c == f.one:
                    body = tpart
                elif c == f.neg(f.one):
                    body = "-" + tpart
                else:
                    body = f"{f.to_str(c)}*{tpart}"
            parts.append(body)
        text = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                text += " - " + body[1:]
            else:
                text += " + " + body
        return text

    def __repr__(self):
        return f"LaurentPoly({self})"


def laurent_from_dense(field: Field, cs: list, val: int = 0) -> LaurentPoly:
    return LaurentPoly(field, {val + i: c for i, c in enumerate(cs)})


def q_poly(k: int, m: int, field: Field) -> LaurentPoly:
    """q_k(t^m) = 1 + t^m + ... + t^{(k-1)m}; equals k when m = 0."""
    if k < 1:
        raise ValueError("q_k requires k >= 1")
    f = field
    out = {}
    for i in range(k):
        e = i * m
        out[e] = f.add(out.get(e, f.zero), f.one)
    return LaurentPoly(f, out)


def normalize_unit(f: LaurentPoly) -> LaurentPoly:
    """Canonical associate: monic polynomial in K[t] with nonzero constant term."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot unit-normalize 0")
    cs, _ = f.dense()
    return laurent_from_dense(f.field, dense_monic(f.field, cs))


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd in K[t^{+-1}], reported unit-normalized; gcd(0, b) = ~b."""
    if a.is_zero() and b.is_zero():
        return LaurentPoly.zero(a.field)
    if a.is_zero():
        return normalize_unit(b)
    if b.is_zero():
        return normalize_unit(a)
    da, _ = a.dense()
    db, _ = b.dense()
    return laurent_from_dense(a.field, dense_gcd(a.field, da, db))


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _int_divmod_poly(a: list[int], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, b monic, untrimmed:
    the remainder is the low len(b) - 1 coefficients (all of a if shorter).

    One pass from the top down, which skips a zero leading coefficient, as
    sparse dividends have many; the cancelled top is cut off at the end."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - n)
    terms = [(i, c) for i, c in enumerate(b[:-1]) if c]
    for shift in reversed(range(len(q))):
        c = q[shift] = r[shift + n]
        if c:
            for i, x in terms:
                r[shift + i] -= c * x
    del r[n:]
    return q, r


def _int_inverse_mod(a: list[int], m: tuple[int, ...]) -> tuple[list[int], int]:
    """(s, c) with s * a = c mod m, c a nonzero integer and deg s < deg m,
    for a nonzero integer polynomial a coprime to m over Q.

    The extended Euclidean algorithm on integer polynomials: each division
    step scales the dividend by the lead of the divisor over their gcd, and
    each remainder r, with its cofactor s (s * a = r mod m), is divided by
    the content of both.
    """
    while a and not a[-1]:
        a.pop()
    r0, s0, r1, s1 = list(m), [], a, [1]
    while len(r1) > 1:
        lead, db = r1[-1], len(r1) - 1
        r, q, scale = list(r0), [0] * (len(r0) - db), 1
        while len(r) > db:
            top, shift = r[-1], len(r) - 1 - db
            g = math.gcd(top, lead)
            u, v = lead // g, top // g
            if u != 1:
                r = [u * x for x in r]
                q = [u * x for x in q]
                scale *= u
            for i, y in enumerate(r1):
                r[shift + i] -= v * y
            q[shift] += v
            while r and not r[-1]:
                r.pop()
        if not r:
            raise ValueError("not coprime to the modulus")
        # s = scale * s0 - q * s1
        s = [scale * x for x in s0] + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    s[i + j] -= x * y
        while s and not s[-1]:
            s.pop()
        g = math.gcd(*r, *s)
        r0, s0, r1, s1 = r1, s1, [x // g for x in r], [x // g for x in s]
    return s1, r1[0]


@functools.lru_cache(maxsize=None)
def cyclotomic_int(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, ascending.

    Phi_d is the product of (t^(d/e) - 1)^mu(e) over the squarefree
    divisors e of d, mu the Moebius function.  The binomials with mu(e) = 1
    are multiplied in first, then those with mu(e) = -1 divided out; each
    quotient is exact, so every step is one O(degree) pass.
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    primes = prime_factors(d)
    ups, downs = [], []
    for mask in range(1 << len(primes)):
        e = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        (downs if bin(mask).count("1") % 2 else ups).append(d // e)
    cs = [1]
    for k in ups:
        # times t^k - 1
        cs = [(cs[i - k] if i >= k else 0) - (cs[i] if i < len(cs) else 0)
              for i in range(len(cs) + k)]
    for k in downs:
        # divided by t^k - 1: q[i] = q[i - k] - cs[i], from the bottom up
        q = cs[:len(cs) - k]
        for i in range(len(q)):
            q[i] = (q[i - k] if i >= k else 0) - cs[i]
        cs = q
    return tuple(cs)


@functools.lru_cache(maxsize=None)
def totient(d: int) -> int:
    """Euler's phi of d >= 1: d times (1 - 1/p) over the primes p | d."""
    for p in prime_factors(d):
        d = d // p * (p - 1)
    return d


def cyclotomic(d: int, field: Field) -> LaurentPoly:
    """Phi_d over the prime field of K (mod-p reduction when char K = p)."""
    ints = cyclotomic_int(d)
    return LaurentPoly.from_int_coeffs(field, dict(enumerate(ints)))


def t_minus_one_multiplicities(n: int, char: int) -> dict[int, int]:
    """{d: exponent of Phi_d in t^n - 1} in characteristic char, n != 0.

    With |n| = p^a n', p = char not dividing n' (p^a = 1 if char is 0),
    t^n - 1 is a unit times (t^n' - 1)^(p^a), the product of Phi_d^(p^a)
    over d | n'.
    """
    if n == 0:
        raise ZeroPolynomialError("t^0 - 1 is zero")
    n, power = abs(n), 1
    while char and n % char == 0:
        n, power = n // char, power * char
    return dict.fromkeys(divisors(n), power)


def cyclotomic_product(mults: dict, field: Field) -> LaurentPoly:
    """The product of Phi_d^k over the (d, k) in mults, over field: taken
    over the integers, then mapped into the field once."""
    cs = [1]
    for d, k in sorted((d, k) for d, k in mults.items() if k):
        phi = [(i, c) for i, c in enumerate(cyclotomic_int(d)) if c]
        for _ in range(k):
            out, n = [0] * (len(cs) + phi[-1][0]), len(cs)
            for i, c in phi:
                out[i:i + n] = [y + c * x for y, x in zip(out[i:i + n], cs)]
            cs = out
    return LaurentPoly.from_int_coeffs(field, dict(enumerate(cs)))


# ---------------------------------------------------------------------------
# factorization of invariant factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    poly: LaurentPoly
    exponent: int
    cyclotomic_order: int | None  # None for a leftover that no Phi_d divides


def factor_invariant(f: LaurentPoly, field: Field) -> list[Factor]:
    """Peel the cyclotomic factors off a nonzero invariant factor, made monic.

    For d = 1, 2, ... with phi(d) at most the degree left, Phi_d is
    divided out as often as it goes and reported whole, with its order d.
    Over Q the Phi_d are the irreducibles.  Mod p they may split but need
    not be split: the Phi_d with p not dividing d are pairwise coprime, as
    they all divide the separable t^L - 1, and Phi_(p^a d) =
    Phi_d^phi(p^a), so the exponents land on the folded orders of
    `t_minus_one_multiplicities`, and the d that p divides are skipped, as
    powers of a Phi_d already divided out.  A leftover that no Phi_d
    divides is returned with ``cyclotomic_order=None``.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot factor 0")
    rem = dense_monic(field, f.dense()[0])
    factors = []
    d = 0
    guard = 2 * (len(rem) - 1) ** 2 + 4
    while len(rem) > 1 and d <= guard:
        d += 1
        if totient(d) >= len(rem) or field.char and d % field.char == 0:
            continue
        phi = [field.from_int(c) for c in cyclotomic_int(d)]
        exp = 0
        while len(rem) >= len(phi):
            q, r = dense_divmod(field, rem, phi)
            if r:
                break
            rem = q
            exp += 1
        if exp:
            factors.append(Factor(laurent_from_dense(field, phi), exp, d))
    if len(rem) > 1:
        factors.append(Factor(laurent_from_dense(field, rem), 1, None))
    return factors


# ---------------------------------------------------------------------------
# the residue field K_d = Q[z]/(Phi_d)
# ---------------------------------------------------------------------------

class CyclotomicField(Field):
    """K_d = Q[z]/(Phi_d) as an exact field, on Python integers.

    An element is a pair (nums, den): the phi(d) integer coordinates of
    its numerator in the basis 1, z, ..., z^(phi(d) - 1) and one positive
    common denominator, in lowest terms (den and the nums have gcd 1, and
    zero is ((0, ..., 0), 1)).  The form is canonical, so == and hash mean
    equality in K_d, and `is_zero` is zero's own tuple ==, a C callable.
    Sums and differences work coordinatewise and `inv` by an integer
    extended Euclid; every other element (a product, z, a combination of
    powers of z) is made by one rule, `_reduce`: fold the exponents mod d,
    since z^d = 1, then take the remainder by the monic Phi_d, which keeps
    the coordinates integral, and normalize by one math.gcd.  No power of
    z is tabulated.  Each instance memoises the inverses and products it
    computes, keyed by the canonical elements, so an ss sweep builds its
    own K_d and the memos die with it; the shared `cyclotomic_field(d)` is
    for reductions and zero tests.
    """

    char = 0

    def __init__(self, d: int):
        self.d = d
        ints = cyclotomic_int(d)
        self.deg = n = len(ints) - 1
        self.modulus = ints
        self.zero = ((0,) * n, 1)
        self.one = ((1,) + (0,) * (n - 1), 1)
        self.is_zero = self.zero.__eq__
        self._inverses, self._products = {}, {}

    @staticmethod
    def _normal(nums: list, den: int):
        """nums / den in canonical form; den is a nonzero int."""
        if den < 0:
            nums, den = [-x for x in nums], -den
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                return tuple(x // g for x in nums), den // g
        return tuple(nums), den

    def _reduce(self, terms, den: int):
        """sum of c * z^e over the (e, c) in terms, all ints, over den: the
        exponents folded mod d, then the remainder by Phi_d."""
        d = self.d
        folded = [0] * d
        for e, c in terms:
            if c:
                folded[e % d] += c
        while folded and not folded[-1]:
            folded.pop()
        if len(folded) > self.deg:
            folded = _int_divmod_poly(folded, self.modulus)[1]
        return self._normal(folded + [0] * (self.deg - len(folded)), den)

    def root_combination(self, coeffs: dict):
        """sum of c * zeta^e over the (e, c) in coeffs, e taken mod d; the c
        are ints or Fractions."""
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        return self._reduce(
            ((e, c.numerator * (den // c.denominator)) for e, c in coeffs.items()), den)

    @property
    def gen(self):
        """The residue class of z, a primitive d-th root of unity."""
        return self._reduce(((1, 1),), 1)

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd:
            return self._normal([x + y for x, y in zip(an, bn)], ad)
        return self._normal([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def neg(self, a):
        return tuple(-x for x in a[0]), a[1]

    def sub(self, a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd:
            return self._normal([x - y for x, y in zip(an, bn)], ad)
        return self._normal([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)

    def mul(self, a, b):
        out = self._products.get((a, b))
        if out is None:
            (an, ad), (bn, bd) = a, b
            prod = [0] * (2 * self.deg - 1)
            bterms = [(j, y) for j, y in enumerate(bn) if y]
            for i, x in enumerate(an):
                if x:
                    for j, y in bterms:
                        prod[i + j] += x * y
            out = self._products[a, b] = self._reduce(enumerate(prod), ad * bd)
        return out

    def inv(self, a):
        # 0 raises before the memo is written, so it is never in it
        out = self._inverses.get(a)
        if out is None:
            if self.is_zero(a):
                raise ZeroDivisionError("inverse of 0 in K_d")
            s, c = _int_inverse_mod(list(a[0]), self.modulus)
            out = self._inverses[a] = self._normal(
                [a[1] * x for x in s] + [0] * (self.deg - len(s)), c)
        return out

    def from_int(self, n):
        return (n,) + (0,) * (self.deg - 1), 1

    def embed(self, q: Fraction):
        q = Fraction(q)
        return (q.numerator,) + (0,) * (self.deg - 1), q.denominator

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.d == self.d

    def __hash__(self):
        return hash(("Kd", self.d))

    def __repr__(self):
        return f"CyclotomicField({self.d})"


@functools.lru_cache(maxsize=None)
def cyclotomic_field(d: int) -> CyclotomicField:
    return CyclotomicField(d)


def taylor_at_root(f: LaurentPoly, d: int, order: int) -> list:
    """Coefficients of f(zeta_d + tau) mod tau^order, in K_d.

    Expanded one monomial at a time by the binomial series
    (zeta + tau)^a = sum_i C(a, i) zeta^(a-i) tau^i with
    C(a, i) = a (a-1) ... (a-i+1) / i!, which holds for negative a too, so
    the unit zeta_d + tau is never inverted.  Characteristic zero.
    """
    kd = cyclotomic_field(d)
    sums = [{} for _ in range(order)]
    for a, c in f.coeffs.items():
        binom = 1
        for i in range(order):
            if not binom:
                break
            s = sums[i]
            e = (a - i) % d
            s[e] = s.get(e, 0) + binom * c
            binom = binom * (a - i) // (i + 1)
    return [kd.root_combination(s) for s in sums]


def residue_eval(f: LaurentPoly, d: int):
    """The class of f in K_d = Q[z]/(Phi_d), i.e. f(zeta_d).

    t^a maps to zeta_d^(a mod d), which covers negative a too.
    Characteristic zero only.
    """
    return quotient_residue(f, d, 0)


def quotient_residue(f: LaurentPoly, d: int, drop: int):
    """The class of f / Phi_d^drop in K_d, its value at zeta_d.

    The coefficients, which `Fraction`s first put over one denominator,
    are reduced into K_d by `CyclotomicField._reduce`.  For drop >= 1 the
    integer numerator is first divided drop times by the monic Phi_d; a
    nonzero remainder raises ArithmeticError, as a failed check of the ss
    route.  A numerator longer than d (drop + 1) is folded first: with
    e - val = q d + r (val its lowest exponent), t^(e - val) = t^r (1 +
    (t^d - 1))^q is congruent to t^r sum_{j <= drop} C(q, j) (t^d - 1)^j
    mod (t^d - 1)^(drop + 1), which has degree below d (drop + 1).  As
    Phi_d^(drop + 1) divides (t^d - 1)^(drop + 1), each division by Phi_d
    is exact exactly when it is for the unfolded numerator, and the
    quotient keeps its class mod Phi_d, so the check and the class are
    those of f.  Characteristic zero only.
    """
    if f.field.char != 0:
        raise ValueError("residue fields are only used in characteristic zero")
    kd = cyclotomic_field(d)
    if not f.coeffs:
        return kd.zero
    terms, den = f.coeffs.items(), 1
    if not all(type(c) is int for _, c in terms):
        den = math.lcm(*(c.denominator for _, c in terms))
        terms = [(e, c.numerator * (den // c.denominator)) for e, c in terms]
    if drop:
        val, top = min(f.coeffs), max(f.coeffs)
        if top - val >= d * (drop + 1):
            # blocks[j][r]: the coefficient of t^r (t^d - 1)^j
            blocks = [[0] * d for _ in range(drop + 1)]
            for e, c in terms:
                q, r = divmod(e - val, d)
                for j in range(min(q, drop) + 1):
                    blocks[j][r] += c
                    c = c * (q - j) // (j + 1)
            nums = []
            for block in reversed(blocks):
                # nums (t^d - 1) + block, by Horner's rule in t^d - 1
                nums = [x - y for x, y in itertools.zip_longest(block + nums, nums, fillvalue=0)]
        else:
            nums = [0] * (top - val + 1)
            for e, c in terms:
                nums[e - val] = c
        phi = cyclotomic_int(d)
        for _ in range(drop):
            nums, rem = _int_divmod_poly(nums, phi)
            if any(rem):
                raise ArithmeticError("division by Phi_d is not exact")
        terms = enumerate(nums, val)
    return kd._reduce(terms, den)
