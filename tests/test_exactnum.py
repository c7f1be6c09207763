import math
import re
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algid.errors import (
    DivisionByZero,
    InexactScalar,
    NonPrimeModulus,
    NumberTooLong,
    UnsupportedModulus,
)
from algid.exactnum import F2, F3, F5, QQ, Field, Scalar, field_make, inv, is_prime, sqrt


def test_field_kinds():
    assert QQ.kind == "Q" and QQ.char == 0
    assert F5.kind == "Fp" and F5.p == 5 and F5.char == 5
    with pytest.raises(NonPrimeModulus):
        Field("Fp", 6)
    with pytest.raises(UnsupportedModulus):
        Field("Fp", 1)
    with pytest.raises(UnsupportedModulus):
        Field("Fp", 2**31 + 11)


def test_field_make_specs():
    assert field_make("Q") == QQ
    assert field_make("F7") == Field("Fp", 7)
    assert field_make({"kind": "Fp", "p": 5}) == F5
    assert field_make(QQ) is QQ


@pytest.mark.parametrize("spec", [
    "F\u0663", "F\u00b2", "\u0663", "F", "F 7", {"kind": "Fp", "p": "\u0663"},
], ids=["arabic-indic-digit", "superscript", "bare-arabic-indic", "empty", "space", "dict"])
def test_field_make_modulus_is_ascii_digits(spec):
    with pytest.raises(ValueError, match="bad field spec"):
        field_make(spec)


def test_field_make_bounds_modulus_text_before_int():
    with pytest.raises(UnsupportedModulus, match="modulus of 5000 digits out of supported range"):
        field_make("F" + "1" * 5000)
    with pytest.raises(UnsupportedModulus, match="modulus 2147483648 out of supported range"):
        field_make("F2147483648")
    assert field_make("F" + "0" * 5000 + "7") == Field("Fp", 7)
    assert field_make({"kind": "Fp", "p": "7"}) == Field("Fp", 7)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("value", [None, [1], {"a": 1}, b"1", 1j,
                                   "1e2000000", "1E-3", "2.5e1"])
def test_scalar_refuses_non_numbers_and_exponents(field, value):
    with pytest.raises(InexactScalar, match=re.escape(repr(value))):
        field.scalar(value)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("value", ["abc", "", "1/2/3", "inf", "nan", "0x10"])
def test_scalar_refuses_strings_that_are_no_number(field, value):
    with pytest.raises(InexactScalar, match="^%s is not an integer, decimal or "
                       "'num/den' string$" % re.escape(repr(value))):
        field.scalar(value)


def test_scalar_refuses_number_text_past_the_digit_limit():
    with pytest.raises(NumberTooLong, match="more than 4300 characters"):
        QQ.scalar("9" * 5000)


def test_scalar_accepts_decimals_and_integer_types():
    assert QQ.scalar("-1.25").value == Fraction(-5, 4)
    assert F5.scalar("0.5").value == 3
    assert F5.scalar(numpy.int64(7)).value == 2


def test_field_immutable():
    with pytest.raises(AttributeError):
        QQ.kind = "Fp"


def test_scalar_coercion():
    assert QQ.scalar("3/4").value == Fraction(3, 4)
    assert F5.scalar(7).value == 2
    assert F5.scalar("3/4").value == (3 * pow(4, -1, 5)) % 5
    assert F5.scalar(Fraction(1, 2)).value == 3
    with pytest.raises(DivisionByZero):
        F5.scalar("1/5")


def test_scalar_constructor_normalises_its_value():
    assert Scalar(F5, 7) == F5.scalar(7)
    assert Scalar(F5, -1).value == 4
    assert Scalar(QQ, 3).value == Fraction(3) and type(Scalar(QQ, 3).value) is Fraction
    assert Scalar(F5, Fraction(1, 2)) == F5.scalar("1/2")
    for field, value in ((QQ, 0.5), (F5, True), (QQ, "1")):
        with pytest.raises(InexactScalar):
            Scalar(field, value)
    with pytest.raises(DivisionByZero):
        Scalar(F5, Fraction(1, 5))


def test_scalar_arithmetic_q():
    a, b = QQ.scalar("2/3"), QQ.scalar("1/6")
    assert (a + b).value == Fraction(5, 6)
    assert (a - b).value == Fraction(1, 2)
    assert (a * b).value == Fraction(1, 9)
    assert (a / b).value == 4
    assert (-a).value == Fraction(-2, 3)
    assert bool(a) and not bool(QQ.zero())


def test_scalar_arithmetic_fp():
    a, b = F5.scalar(3), F5.scalar(4)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (a / b).value == (3 * pow(4, -1, 5)) % 5
    with pytest.raises(DivisionByZero):
        inv(F5.zero())


def test_scalar_json():
    assert QQ.scalar("-3/4").to_json() == "-3/4"
    assert QQ.scalar(2).to_json() == "2"
    assert F5.scalar(-1).to_json() == 4


@pytest.mark.parametrize(
    "n,expect",
    [(2, True), (3, True), (5, True), (42, False), (97, True), (2047, False), (1, False),
     (61, True),  # a Miller-Rabin base, which such a test has to special-case
     # Carmichael numbers, then base-2 strong pseudoprimes
     (561, False), (1105, False), (1729, False), (3277, False), (4033, False), (4681, False),
     (8321, False)],
)
def test_is_prime_small(n, expect):
    assert is_prime(n) is expect


def test_is_prime_near_word_boundary():
    # 2^31 - 1 is the Mersenne prime M31; its neighbors are composite.
    assert is_prime(2**31 - 1) and is_prime(2147483629)
    assert not is_prime(2**31 - 3)


def test_is_prime_agrees_with_a_sieve_below_2_16():
    n = 2**16
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, math.isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n, q))
    assert [is_prime(k) for k in range(n)] == sieve


def test_is_prime_at_the_top_of_the_trial_range():
    # 46337 is the largest prime below isqrt(2^31); its square is found
    # composite only by the divisor q = isqrt(n) itself.
    assert is_prime(46337) and 46337**2 == 2147117569
    assert not is_prime(2147117569)
    with pytest.raises(NonPrimeModulus):
        Field("Fp", 2147117569)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("value", [0.5, 2.0, True, False, None, "1", 1j])
def test_reduce_refuses_floats_bools_and_non_numbers(field, value):
    with pytest.raises(InexactScalar, match="^%s is not an exact scalar" % re.escape(repr(value))):
        field.reduce(value)


def test_reduce_gives_canonical_plain_values():
    for value, q, residue in [(7, 7, 2), (-1, -1, 4), (Fraction(1, 2), Fraction(1, 2), 3),
                              (numpy.int64(7), 7, 2), (Fraction(10, 4), Fraction(5, 2), 0)]:
        assert type(QQ.reduce(value)) is Fraction and QQ.reduce(value) == q
        assert type(F5.reduce(value)) is int and F5.reduce(value) == residue
    with pytest.raises(DivisionByZero, match="^denominator of 1/5 vanishes mod 5$"):
        F5.reduce(Fraction(1, 5))
    assert type(F5.scalar(numpy.int64(7)).value) is int
    assert type(QQ.inverse(3)) is Fraction and QQ.inverse(3) == Fraction(1, 3)
    assert F5.inverse(7) == 3
    with pytest.raises(DivisionByZero):
        F5.inverse(5)


def test_sqrt_rationals():
    assert sqrt(QQ.scalar("9/4")).value == Fraction(3, 2)
    assert sqrt(QQ.scalar(0)).value == 0
    assert sqrt(QQ.scalar(2)) is None
    assert sqrt(QQ.scalar(-4)) is None


def test_sqrt_prime_fields():
    # In F5 the number -1 = 4 has roots 2 and 3; the smaller residue wins.
    assert sqrt(F5.scalar(-1)).value == 2
    assert sqrt(F5.scalar(2)) is None
    assert sqrt(F3.scalar(1)).value == 1
    assert sqrt(F3.scalar(2)) is None
    # Characteristic 2: squaring is the identity on F2.
    assert sqrt(F2.scalar(1)).value == 1
    assert sqrt(F2.scalar(0)).value == 0


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_sqrt_roundtrip_q(n):
    s = sqrt(QQ.scalar(n * n))
    assert s is not None and s.value == n


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=100))
def test_sqrt_roundtrip_fp(v):
    p = 101
    f = Field("Fp", p)
    s = sqrt(f.scalar(v * v))
    assert s is not None
    assert (s.value * s.value) % p == (v * v) % p
    assert s.value <= p - s.value or s.value == 0


def test_sqrt_tonelli_one_mod_four():
    # p = 13 exercises the full Tonelli-Shanks branch (p % 4 == 1).
    f = Field("Fp", 13)
    r = sqrt(f.scalar(10))
    assert r is not None and (r.value * r.value) % 13 == 10


def test_fp_elements_enumeration():
    assert [s.value for s in F3.elements()] == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()
