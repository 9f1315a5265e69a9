import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import math

import artinkernels
from artinkernels import (CyclotomicField, LaurentPoly, ZeroPolynomialError, cli,
                          cyclotomic, cyclotomic_field, laurent, q_poly, spectral)
from artinkernels.laurent import factor_invariant, laurent_gcd, normalize_unit, residue_eval
from artinkernels.laurent import (_int_divmod_poly, cyclotomic_int, cyclotomic_product,
                                  dense_divmod, dense_mul, dense_trim, quotient_residue,
                                  t_minus_one_multiplicities, totient)
from artinkernels.scalars import PrimeField

from conftest import QQ, F2, F3
from oracles import (cyclotomic_by_division, cyclotomic_product_by_powers,
                     evaluate_by_multiplication, horner_taylor, kd_coordinates, kd_reduce,
                     mult_d, quotient_residue_unfolded)


def L(coeffs, field=QQ):
    return LaurentPoly(field, {e: field.from_int(c) if isinstance(c, int) else c
                               for e, c in coeffs.items()})


def lpoly_strategy(field=QQ, max_terms=4, exp_range=(-4, 6), coeff_range=(-5, 5)):
    term = st.tuples(st.integers(*exp_range), st.integers(*coeff_range))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: LaurentPoly(field, {}) + sum(
            (L({e: c}, field) for e, c in ts), LaurentPoly(field, {})))


# -- q polynomials ----------------------------------------------------------

def test_q_poly_is_one_for_k1():
    for m in (-3, 0, 5):
        assert q_poly(1, m, QQ) == L({0: 1})


def test_q_poly_basic():
    assert q_poly(2, 3, QQ) == L({0: 1, 3: 1})


def test_q_poly_vanishes_in_char_dividing_k():
    assert q_poly(2, 0, F2).is_zero()
    assert q_poly(3, 0, F2) == L({0: 1}, F2)


def test_q_poly_negative_exponent():
    assert q_poly(3, -2, QQ) == L({0: 1, -2: 1, -4: 1})


# -- cyclotomics ------------------------------------------------------------

def test_cyclotomic_small():
    assert cyclotomic(1, QQ) == L({0: -1, 1: 1})
    assert cyclotomic(2, QQ) == L({0: 1, 1: 1})
    assert cyclotomic(6, QQ) == L({0: 1, 1: -1, 2: 1})
    assert cyclotomic(2, F2) == L({0: 1, 1: 1}, F2)


def test_cyclotomic_product_identity_up_to_100():
    for field in (QQ, F2, F3):
        for n in range(1, 101):
            prod = LaurentPoly.one(field)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d, field)
            assert prod == L({0: -1, n: 1}, field), f"n={n} over {field}"


# -- multiplicities ---------------------------------------------------------

def test_mult_d_examples():
    assert mult_d(L({0: 1, 3: 1}), 6) == 1          # t^3+1 = (t+1)(t^2-t+1)
    tm1 = L({0: -1, 1: 1})
    assert mult_d(tm1 * tm1, 1) == 2
    assert mult_d(L({-2: 1}) * tm1, 1) == 1          # t-power units ignored


def test_mult_d_zero_errors():
    with pytest.raises(ZeroPolynomialError):
        mult_d(LaurentPoly.zero(QQ), 2)


@settings(max_examples=40, deadline=None)
@given(lpoly_strategy(), lpoly_strategy(), st.integers(1, 6))
def test_mult_d_additive(f, g, d):
    if f.is_zero() or g.is_zero():
        return
    assert mult_d(f * g, d) == mult_d(f, d) + mult_d(g, d)


# -- unit normalization -----------------------------------------------------

def test_normalize_unit_examples():
    assert normalize_unit(L({-1: 2, 0: -2})) == L({0: -1, 1: 1})  # 2t^-1(t-1)... times t
    assert normalize_unit(L({5: 1})) == L({0: 1})
    assert normalize_unit(L({0: -1, 3: -1})) == L({0: 1, 3: 1})


@settings(max_examples=40, deadline=None)
@given(lpoly_strategy(), st.integers(-3, 3), st.integers(-4, 4))
def test_normalize_unit_kills_units(f, a, c):
    if f.is_zero() or c == 0:
        return
    unit = L({a: Fraction(c)})
    assert normalize_unit(unit * f) == normalize_unit(f)


# -- gcd and exact division -------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(lpoly_strategy(), lpoly_strategy())
def test_exact_division_roundtrip(f, g):
    if g.is_zero():
        return
    assert (f * g).exact_div(g) == f


def test_laurent_gcd_of_cyclotomic_products():
    a = cyclotomic(1, QQ) * cyclotomic(2, QQ)
    b = cyclotomic(2, QQ) * cyclotomic(6, QQ)
    assert laurent_gcd(a, b) == cyclotomic(2, QQ)


@settings(max_examples=40, deadline=None)
@given(lpoly_strategy(), lpoly_strategy(), lpoly_strategy(coeff_range=(-9, 9)))
def test_laurent_gcd_on_ints_matches_fractions(f, g, h):
    """Integer coefficients take the same primitive remainder sequence as
    their Fraction copies, and give the same gcd."""
    import artinkernels.laurent as lmod
    a, b = f * h, g * h
    frac = lambda p: LaurentPoly(QQ, {e: Fraction(c) for e, c in p.coeffs.items()})  # noqa: E731
    scale, seen = lmod.dense_content_scale, []

    def recording(cs):
        seen[-1].append(list(cs))
        return scale(cs)

    lmod.dense_content_scale = recording
    try:
        results = []
        for x, y in ((a, b), (frac(a), frac(b))):
            seen.append([])
            results.append(laurent_gcd(x, y))
    finally:
        lmod.dense_content_scale = scale
    assert results[0] == results[1]
    assert seen[0] == seen[1]
    if a and b and h:
        results[0].exact_div(h)         # raises unless h divides the gcd


# -- factoring invariant factors --------------------------------------------

def test_factor_invariant_cyclotomic_product_over_q():
    f = L({0: -1, 1: 1}) * L({0: 1, 3: 1})  # (t-1)(t^3+1)
    facs = factor_invariant(normalize_unit(f), QQ)
    got = sorted((fac.cyclotomic_order, fac.exponent) for fac in facs)
    assert got == [(1, 1), (2, 1), (6, 1)]


def test_factor_invariant_cube_over_f2():
    tp1 = L({0: 1, 1: 1}, F2)
    facs = factor_invariant(tp1 * tp1 * tp1, F2)
    assert len(facs) == 1
    assert facs[0].poly == tp1 and facs[0].exponent == 3


def test_factor_invariant_unit_is_empty():
    assert factor_invariant(L({0: 1}), QQ) == []


def test_factor_invariant_reports_phi_d_mod_p_whole():
    # (t^3+t+1)(t^3+t^2+1) is Phi_7 mod 2: two irreducible cubics, one order
    a = L({0: 1, 1: 1, 3: 1}, F2)       # t^3 + t + 1
    b = L({0: 1, 2: 1, 3: 1}, F2)       # t^3 + t^2 + 1
    facs = factor_invariant(a * b, F2)
    assert [(f.poly, f.exponent, f.cyclotomic_order) for f in facs] == \
        [(cyclotomic(7, F2), 1, 7)]
    # over GF(3), (t^2+1)^2 (t^2+t+2): Phi_4^2 and a leftover no Phi_d divides
    # (t^2+t+2 is one of the two factors of Phi_8 mod 3)
    c = LaurentPoly(F3, {0: 1, 2: 1})               # t^2 + 1
    d = LaurentPoly(F3, {0: 2, 1: 1, 2: 1})         # t^2 + t + 2
    facs3 = factor_invariant(c * c * d, F3)
    assert [(f.poly, f.exponent, f.cyclotomic_order) for f in facs3] == \
        [(cyclotomic(4, F3), 2, 4), (d, 1, None)]


def test_factor_invariant_folds_orders_divisible_by_p():
    """Seeded products of Phi_e over Q, GF(2), GF(3) and GF(5), with at
    least one e divisible by p: the factors are the Phi_d, p not dividing d,
    they multiply back to the monic input, and each carries the folded
    exponent, Phi_(p^a d) = Phi_d^phi(p^a) mod p."""
    rng = random.Random(0xF01D)
    for p in (0, 2, 3, 5):
        field = PrimeField(p) if p else QQ
        for _ in range(25):
            orders = [rng.randint(1, 36) for _ in range(rng.randint(0, 3))]
            if p:
                orders.append(p * rng.randint(1, 12))
            f, want = LaurentPoly.one(field), {}
            for e in orders:
                f = f * cyclotomic(e, field)
                d, pa = e, 1
                while p and d % p == 0:
                    d, pa = d // p, pa * p
                want[d] = want.get(d, 0) + totient(pa)
            # a unit multiple: the factors are those of the monic associate
            facs = factor_invariant(f.shift(-2).scale(field.from_int(-1)), field)
            assert {fac.cyclotomic_order: fac.exponent for fac in facs} == want, (p, orders)
            assert len(facs) == len(want)
            prod = LaurentPoly.one(field)
            for fac in facs:
                assert fac.poly == cyclotomic(fac.cyclotomic_order, field)
                prod = prod * fac.poly ** fac.exponent
            assert prod == normalize_unit(f)


def test_importing_the_package_loads_no_random():
    """Every answer is deterministic: importing artinkernels, with
    site-packages off, does not load the `random` module."""
    src = os.path.dirname(os.path.dirname(artinkernels.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, artinkernels; print(sorted({'random', 'artinkernels'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['artinkernels']"


def test_factor_invariant_gf2_mixed():
    # (t+1)^2 (t^2+t+1) over GF(2)
    tp1 = L({0: 1, 1: 1}, F2)
    t2t1 = L({0: 1, 1: 1, 2: 1}, F2)
    facs = factor_invariant(tp1 * tp1 * t2t1, F2)
    assert {(str(f.poly), f.exponent) for f in facs} == {("1 + t", 2), ("1 + t + t^2", 1)}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=4))
def test_factor_invariant_multiplies_back(orders):
    for field in (QQ, F3):
        f = LaurentPoly.one(field)
        for d in orders:
            f = f * cyclotomic(d, field)
        prod = LaurentPoly.one(field)
        for fac in factor_invariant(f, field):
            prod = prod * fac.poly ** fac.exponent
        assert prod == normalize_unit(f)


# -- residue field ----------------------------------------------------------

def test_residue_eval_examples():
    kd2 = cyclotomic_field(2)
    assert residue_eval(L({1: 1}), 2) == kd2.from_int(-1)
    kd6 = cyclotomic_field(6)
    assert kd6.is_zero(residue_eval(L({0: 1, 3: 1}), 6))
    assert not kd6.is_zero(residue_eval(L({0: -1, 1: 1}), 6))


def test_residue_eval_handles_negative_exponents():
    kd = cyclotomic_field(4)
    # t^-1 at zeta_4 is zeta_4^3 = -zeta_4
    assert residue_eval(L({-1: 1}), 4) == kd.neg(kd.gen)


def test_cyclotomic_field_inverse():
    for d in (1, 2, 3, 4, 6, 5, 12):
        kd = cyclotomic_field(d)
        x = kd.add(kd.gen, kd.from_int(2))
        assert kd.mul(x, kd.inv(x)) == kd.one


# -- K_d on integers against dense polynomials mod Phi_d over Fraction -----

KD_ORDERS = (1, 2, 3, 4, 5, 12, 60, 105, 210)


def kd_element(draw, kd):
    """An element of K_d with a denominator up to 12, given by rational
    coefficients of z^e for e up to 2d, so reduction mod Phi_d is needed."""
    terms = draw(st.dictionaries(st.integers(0, 2 * kd.d), st.integers(-9, 9),
                                 max_size=min(2 * kd.d + 1, 8)))
    den = draw(st.integers(1, 12))
    return {e: Fraction(c, den) for e, c in terms.items()}


def assert_canonical(kd, a):
    nums, den = a
    assert len(nums) == kd.deg and all(type(x) is int for x in nums)
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1


@pytest.mark.parametrize("d", KD_ORDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_field_matches_the_dense_reference(d, data):
    kd = cyclotomic_field(d)
    ca, cb = kd_element(data.draw, kd), kd_element(data.draw, kd)
    a, b = kd.root_combination(ca), kd.root_combination(cb)
    for x, coeffs in ((a, ca), (b, cb)):
        assert_canonical(kd, x)
        dense = [Fraction(0)] * (2 * d + 1)
        for e, c in coeffs.items():
            dense[e] += c
        assert kd_coordinates(kd, x) == kd_reduce(kd, dense)
    ra, rb = kd_coordinates(kd, a), kd_coordinates(kd, b)
    for got, want in ((kd.add(a, b), [x + y for x, y in zip(ra, rb)]),
                      (kd.sub(a, b), [x - y for x, y in zip(ra, rb)]),
                      (kd.neg(a), [-x for x in ra]),
                      (kd.mul(a, b), kd_reduce(kd, dense_mul(QQ, ra, rb)))):
        assert_canonical(kd, got)
        assert kd_coordinates(kd, got) == want
    if not kd.is_zero(a):
        inv = kd.inv(a)
        assert_canonical(kd, inv)
        assert kd_reduce(kd, dense_mul(QQ, ra, kd_coordinates(kd, inv))) == \
            kd_coordinates(kd, kd.one)


@pytest.mark.parametrize("d", KD_ORDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_field_one_element_two_ways(d, data):
    kd = cyclotomic_field(d)
    a, b, c = (kd.root_combination(kd_element(data.draw, kd)) for _ in range(3))
    pairs = [(kd.mul(kd.add(a, b), c), kd.add(kd.mul(a, c), kd.mul(b, c))),
             (kd.sub(a, b), kd.neg(kd.sub(b, a))),
             (kd.mul(a, b), kd.mul(b, a))]
    if not kd.is_zero(b):
        pairs.append((kd.mul(kd.mul(a, b), kd.inv(b)), a))
        pairs.append((kd.inv(kd.inv(b)), b))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


def test_cyclotomic_field_constructors():
    for d in KD_ORDERS:
        kd = cyclotomic_field(d)
        for x in (kd.zero, kd.one, kd.gen, kd.from_int(-6), kd.embed(Fraction(-6, 4)),
                  kd.root_combination({}), kd.root_combination({d: Fraction(3, 9)})):
            assert_canonical(kd, x)
        assert kd.embed(Fraction(-6, 4)) == kd.root_combination({0: Fraction(-3, 2)})
        assert kd.root_combination({d: Fraction(3, 9), 0: -1}) == kd.embed(Fraction(-2, 3))
        assert kd.is_zero(kd.zero) and not kd.is_zero(kd.one)
        assert kd.root_combination({}) == kd.zero == kd.from_int(0)
        # zeta_d is a primitive d-th root of unity
        powers = [kd.one]
        for _ in range(d):
            powers.append(kd.mul(powers[-1], kd.gen))
        assert powers[d] == kd.one and kd.one not in powers[1:d]


@settings(max_examples=40, deadline=None)
@given(lpoly_strategy(coeff_range=(-5, 5)), st.sampled_from((2, 3, 4, 5, 12, 60)),
       st.integers(0, 3), st.integers(1, 6))
@example(L({-3: 2, 1: -1, 4: 5}), 12, 0, 3)
@example(L({-4: 1, 0: -3}), 60, 3, 4)
@example(L({-250: 3, 7: -1, 430: 2}), 60, 2, 5)
def test_quotient_residue_divides_by_phi_powers(f, d, drop, den):
    """f Phi_d^drop over Phi_d^drop is f at zeta_d, which the Horner oracle
    evaluates in K_d arithmetic; Fraction coefficients, negative exponents
    and drop 0 included."""
    phi = L(dict(enumerate(cyclotomic_int(d))))
    f = f.scale(Fraction(1, den))
    at_root = horner_taylor(f, d, 1)[0]
    assert quotient_residue(f * phi ** drop, d, drop) == at_root
    if not f.is_zero() and not cyclotomic_field(d).is_zero(at_root):
        with pytest.raises(ArithmeticError, match="not exact"):
            quotient_residue(f * phi ** drop, d, drop + 1)


FOLD_ORDERS = (*range(1, 61), 105, 122, 210, 212, 330)


def test_quotient_residue_fold_matches_the_unfolded_division(monkeypatch):
    """Numerators f Phi_d^drop whose spans run from below d (drop + 1), where
    nothing is folded, to three times it, with negative exponents and
    Fraction coefficients: `quotient_residue`, which folds the numerator mod
    (t^d - 1)^(drop + 1) before it divides, equals the division of the
    whole numerator (`oracles.quotient_residue_unfolded`), and at drop + 1
    both raise "not exact" exactly when f(zeta_d) != 0.  f Phi_d, which
    vanishes at zeta_d, is divided once more without a raise."""
    first = []      # the dividends `quotient_residue` hands the division
    divide = laurent._int_divmod_poly
    monkeypatch.setattr(laurent, "_int_divmod_poly",
                        lambda a, b: first.append(len(a)) or divide(a, b))

    def outcome(residue, g, d, k):
        first.clear()
        try:
            return residue(g, d, k)
        except ArithmeticError as err:
            return str(err)

    rng = random.Random(7)
    folded = unfolded = 0
    for d in FOLD_ORDERS:
        phi = L(dict(enumerate(cyclotomic_int(d))))
        powers = [L({0: 1})]
        for _ in range(3):
            powers.append(powers[-1] * phi)
        kd = cyclotomic_field(d)
        for drop in range(4):
            width = d * (drop + 1)
            for span in (rng.randint(1, width - drop * totient(d)),
                         rng.randint(width + 1, 3 * width)):
                lo = rng.randint(-span, span)
                exps = {lo, lo + span - 1, *(rng.randint(lo, lo + span - 1) for _ in range(3))}
                f = L({e: rng.choice((-1, 1)) * rng.randint(1, 9) for e in exps})
                den = Fraction(1, rng.randint(2, 6))
                for g in (f, f * phi):
                    num = (g * powers[drop]).scale(den)
                    span_num = num.degree() - num.valuation() + 1
                    vanishes = kd.is_zero(quotient_residue_unfolded(g, d, 0))
                    for k in (drop, drop + 1):
                        got = outcome(quotient_residue, num, d, k)
                        if k:
                            folded += first[0] < span_num
                            unfolded += first[0] == span_num
                        assert got == outcome(quotient_residue_unfolded, num, d, k), (d, k, g)
                        raised = got == "division by Phi_d is not exact"
                        assert raised == (k > drop and not vanishes), (d, k, g)
    assert folded and unfolded


def test_int_divmod_poly_matches_dense_division():
    """`_int_divmod_poly` against `dense_divmod` over Fractions, for monic
    Phi_d and random monic divisors: dividends shorter than the divisor,
    with runs of zero leading coefficients, and with zeros at either end.
    The quotient has len(a) - len(b) + 1 places and the remainder the low
    len(b) - 1 (all of a if shorter), neither trimmed."""
    rng = random.Random(3)
    divisors_ = [cyclotomic_int(d) for d in (1, 2, 3, 12, 60, 105)]
    divisors_ += [tuple(rng.randint(-3, 3) for _ in range(n)) + (1,) for n in range(6)]
    for b in divisors_:
        for _ in range(25):
            a = [rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(0, 3 * len(b)))]
            a = [0] * rng.randint(0, 2) + a + [0] * rng.randint(0, 3)
            q, r = _int_divmod_poly(a, b)
            want_q, want_r = dense_divmod(QQ, [Fraction(x) for x in a], [Fraction(x) for x in b])
            assert (len(q), len(r)) == (max(0, len(a) - len(b) + 1), min(len(a), len(b) - 1))
            assert dense_trim(QQ, q) == want_q and dense_trim(QQ, r) == dense_trim(QQ, want_r), (a, b)


def test_evaluate_matches_the_sum_of_powers():
    """`LaurentPoly.evaluate` (powers by squaring) against the sum of
    c * x^e by Python's pow, and against e multiplications per term
    (`oracles.evaluate_by_multiplication`), negative exponents included."""
    rng = random.Random(5)
    for p in (None, 2, 3, 5, 7):
        field = PrimeField(p) if p else QQ
        for _ in range(40):
            coeffs = {rng.randint(-40, 40): Fraction(rng.randint(-9, 9), 1 if p else rng.randint(1, 4))
                      for _ in range(rng.randint(0, 5))}
            if p:
                x = rng.randint(1, p - 1)
                f = LaurentPoly(field, {e: int(c) % p for e, c in coeffs.items()})
                want = sum(c * pow(x, e, p) for e, c in f.coeffs.items()) % p
            else:
                x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                f = LaurentPoly(field, coeffs)
                want = sum(c * x ** e for e, c in f.coeffs.items())
            assert f.evaluate(x) == want == evaluate_by_multiplication(f, x), (f, x)


def test_cyclotomic_int_matches_the_division_definition():
    for d in range(1, 401):
        assert cyclotomic_int(d) == cyclotomic_by_division(d), d


# -- ring sanity over the dense layer ---------------------------------------

@settings(max_examples=40, deadline=None)
@given(lpoly_strategy(), lpoly_strategy(), lpoly_strategy())
def test_ring_axioms_sample(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + (g + h) == (f + g) + h


def test_display_format():
    f = LaurentPoly(QQ, {-1: Fraction(-1), 0: Fraction(1, 2), 2: Fraction(3)})
    assert str(f) == "-t^-1 + 1/2 + 3*t^2"
    assert str(LaurentPoly.zero(QQ)) == "0"
    assert str(L({0: -1, 1: 1})) == "-1 + t"


def test_dense_divmod_reconstructs():
    field = QQ
    a = [field.from_int(c) for c in (3, 0, -2, 1, 5)]
    b = [field.from_int(c) for c in (1, 2, 1)]
    q, r = dense_divmod(field, a, b)
    from artinkernels.laurent import dense_add, dense_mul
    assert dense_add(field, dense_mul(field, q, b), r) == a


def test_cyclotomic_int_degree_is_totient():
    from artinkernels.laurent import totient
    for d in range(1, 40):
        assert len(cyclotomic_int(d)) - 1 == totient(d)


# -- cyclotomic multiplicities of t^N - 1 ----------------------------------

FIELDS = (QQ, F2, F3, PrimeField(5))


def test_t_minus_one_multiplicities_expand_to_t_power_minus_one():
    for field in FIELDS:
        for n in [*range(-60, 0), *range(1, 61)]:
            mults = t_minus_one_multiplicities(n, field.char)
            want = normalize_unit(L({n: 1, 0: -1}, field))
            assert cyclotomic_product(mults, field) == want, (n, field)
        with pytest.raises(ZeroPolynomialError):
            t_minus_one_multiplicities(0, field.char)


def test_q_factor_multiplicities_by_difference():
    # q_k(t^m) = (t^(km) - 1)/(t^m - 1), so its exponents are differences,
    # including mod p where p | k makes them larger than one
    for field in FIELDS:
        for k, m in ((3, -4), (2, 3), (6, 5), (5, 2)):
            top = t_minus_one_multiplicities(k * m, field.char)
            bottom = t_minus_one_multiplicities(m, field.char)
            mults = {d: e - bottom.get(d, 0) for d, e in top.items()}
            assert min(mults.values()) >= 0
            assert (cyclotomic_product(mults, field)
                    == normalize_unit(q_poly(k, m, field))), (k, m, field)


# the argument keeps the name that the test ids carry, fspec0 .. fspec3
@pytest.mark.parametrize("fspec", FIELDS)
def test_cyclotomic_product_matches_products_of_powers(fspec):
    """`cyclotomic_product`, an integer product mapped into the field once,
    against the `LaurentPoly` product of `cyclotomic(d, fspec) ** k`:
    orders divisible by p included, exponents up to 3, and no factors."""
    rng = random.Random(fspec.char)
    cases = [{}, {1: 3}, {2: 1, 4: 3, 6: 2, 30: 1, 60: 3}]
    cases += [{d: rng.randint(1, 3) for d in rng.sample(range(1, 61), rng.randint(1, 4))}
              for _ in range(30)]
    for mults in cases:
        assert cyclotomic_product(mults, fspec) == cyclotomic_product_by_powers(mults, fspec), mults


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 12, 14, 60])
def test_zero_in_k_d_is_canonical(d):
    """`CyclotomicField.is_zero` is zero's own ==, which is exact because
    every K_d element is canonical: each result of add, sub, neg, mul, inv,
    from_int, embed, root_combination and quotient_residue is zero to
    `is_zero` exactly when its numerator is, and a zero is `kd.zero`
    itself.  Zeros come from cancelling sums, products by zero and residues
    of multiples of Phi_d, many over a denominator above 1."""
    rng = random.Random(d)
    kd = CyclotomicField(d)
    zeros = 0

    def check(x):
        nonlocal zeros
        assert kd.is_zero(x) == (not any(x[0])), (d, x)
        if not any(x[0]):
            assert x == kd.zero and x[1] == 1, (d, x)
            zeros += 1
        return x

    elements = [check(kd.from_int(n)) for n in (0, 1, -3)]
    elements += [check(kd.embed(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for _ in range(3)]
    # every d-th root of unity once sums to 0, here over the denominator 3
    elements.append(check(kd.root_combination({e: Fraction(1, 3) for e in range(d)})))
    elements += [check(kd.root_combination({rng.randrange(-2 * d, 2 * d): Fraction(
        rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))}))
        for _ in range(6)]
    phi = cyclotomic(d, QQ)
    for drop in range(3):
        f = L({e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in range(-2, 3)})
        for g in (f, f * phi):
            elements.append(check(quotient_residue(g * phi ** drop, d, drop)))
    for a, b in zip(elements, elements[1:] + elements[:1]):
        for x in (kd.add(a, b), kd.sub(a, b), kd.sub(a, a), kd.add(a, kd.neg(a)), kd.neg(a),
                  kd.mul(a, b), kd.mul(a, kd.zero)):
            check(x)
        if not kd.is_zero(a):
            check(kd.inv(a))
            check(kd.mul(a, kd.inv(a)))
    assert zeros > len(elements)


@pytest.mark.parametrize("d", [*range(1, 41), 105, 122, 212])
def test_cyclotomic_field_rows_on_demand_match_an_eager_table(d):
    """`CyclotomicField` reduces each power of z as a term reaches it
    (exponent folded mod d, remainder by Phi_d).  The rows of z^e mod Phi_d
    for every e < d, built up front by dense division over Q
    (`oracles.kd_reduce`), must give equal elements, products and inverses,
    for exponents in [-2d, 2d) and far beyond."""
    rng = random.Random(d)
    kd = CyclotomicField(d)
    table = [kd_reduce(kd, [1])]
    for _ in range(d - 1):
        table.append(kd_reduce(kd, [0] + table[-1]))
    assert kd_coordinates(kd, kd.gen) == table[1 % d]
    elements = []
    for i in range(8):
        reach = 2 * d if i < 6 else 10 ** 6
        coeffs = {rng.randrange(-reach, reach): rng.randint(-9, 9)
                  for _ in range(rng.randint(1, 5))}
        den = rng.randint(1, 12)
        a = kd.root_combination({e: Fraction(c, den) for e, c in coeffs.items()})
        assert_canonical(kd, a)
        want = [Fraction(0)] * kd.deg
        for e, c in coeffs.items():
            for j, x in enumerate(table[e % d]):
                want[j] += Fraction(c, den) * x
        assert kd_coordinates(kd, a) == want, coeffs
        elements.append(a)
    for a, b in zip(elements, elements[1:]):
        ra, rb = kd_coordinates(kd, a), kd_coordinates(kd, b)
        assert kd_coordinates(kd, kd.mul(a, b)) == kd_reduce(kd, dense_mul(QQ, ra, rb))
        if not kd.is_zero(a):
            assert kd_reduce(kd, dense_mul(QQ, ra, kd_coordinates(kd, kd.inv(a)))) == \
                kd_coordinates(kd, kd.one)


def test_path_m105_runs_ss_over_k212():
    """The 3-vertex path with m_u = 105 and a label-4 edge works over K_212
    (edge q-factor, 212 = 2 (105 + 1)), whose entries reach powers of z
    past phi(212) = 104."""
    text = "vertex u 105\nvertex v 1\nvertex w 1\nedge u v 4\nedge v w 2\n"
    data = cli.run(cli.JobConfig(text=text, field=QQ)).data
    assert 212 in data["torsion_support"]["values"] and data["methods"]["ss"]["ran"]
    assert data["status"]["ok"]


def test_path_m105_ss_divides_no_numerator_longer_than_the_fold(monkeypatch):
    """On the path with m_u = 105 with snf,ss, no dividend that
    `quotient_residue` hands `_int_divmod_poly` is longer than d (drop + 1):
    each numerator is folded mod (t^d - 1)^(drop + 1) before it is divided.
    Unfolded, d = 3 alone divides about 212 coefficients."""
    widths, seen = [], []
    residue, divide = spectral.quotient_residue, laurent._int_divmod_poly

    def spy_residue(f, d, drop):
        widths.append((d, drop))
        try:
            return residue(f, d, drop)
        finally:
            widths.pop()

    def spy_divide(a, b):
        if widths:
            seen.append((*widths[-1], len(a)))
        return divide(a, b)

    monkeypatch.setattr(spectral, "quotient_residue", spy_residue)
    monkeypatch.setattr(laurent, "_int_divmod_poly", spy_divide)
    text = "vertex u 105\nvertex v 1\nvertex w 1\nedge u v 4\nedge v w 2\n"
    data = cli.run(cli.JobConfig(text=text, field=QQ, methods=("snf", "ss"))).data
    assert data["methods"]["ss"]["ran"] and data["status"]["ok"]
    assert any(d == 3 and drop for d, drop, _ in seen)
    assert [(d, drop, n) for d, drop, n in seen if n > d * (drop + 1)] == []
