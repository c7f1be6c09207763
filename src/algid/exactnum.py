"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are either reduced fractions (characteristic 0) or canonical residues
in [0, p).  Square roots are decided exactly: perfect-square test over the
rationals, Euler criterion plus Tonelli-Shanks over F_p.  A modulus is prime
by trial division.  No floating point anywhere.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InexactScalar,
    NonPrimeModulus,
    NumberTooLong,
    UnsupportedModulus,
)

Coefficient = Union[int, Fraction]  # a plain field value: residue over F_p, Fraction over Q

MAX_MODULUS = 2**31
# A modulus below MAX_MODULUS has at most this many significant digits.
_MODULUS_DIGITS = len(str(MAX_MODULUS - 1))


def is_prime(n: int) -> bool:
    """Is n prime?  Trial division by 2 and by the odd q <= isqrt(n)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, math.isqrt(n) + 1, 2))


class Field:
    """The rationals, or a prime field F_p with 2 <= p < 2^31."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: Optional[int] = None):
        if kind == "Q":
            p = None
        elif kind == "Fp":
            if p is None or p >= MAX_MODULUS or p < 2:
                raise UnsupportedModulus(p if p is not None else -1)
            if not is_prime(p):
                raise NonPrimeModulus(p)
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Field is immutable")

    @property
    def char(self) -> int:
        return 0 if self.kind == "Q" else self.p  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return "Q" if self.kind == "Q" else f"F{self.p}"

    def scalar(self, value: Union[int, str, Fraction, "Scalar"]) -> "Scalar":
        """Coerce an integer, Fraction, Scalar, or integer, decimal or
        "num/den" string into this field.  Anything else is InexactScalar:
        floats and booleans, other types, and strings in exponent notation,
        for which Fraction() would build the power of ten outright.
        """
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"{value} is not a {self} scalar")
            return value
        if isinstance(value, str):
            if "e" in value.lower():
                raise InexactScalar(f"{value!r} is not an integer, decimal or "
                                    "'num/den' string; exponent notation is refused")
            try:
                value = Fraction(value)
            except ZeroDivisionError:
                raise DivisionByZero(f"zero denominator in {value!r}") from None
            except ValueError:
                # Past the interpreter's digit limit int() refuses even a
                # well-formed number, and the text is too long to echo.
                limit = sys.get_int_max_str_digits()
                if limit and len(value) > limit:
                    raise NumberTooLong(f"a number written with more than {limit} "
                                        "characters") from None
                raise InexactScalar(f"{value!r} is not an integer, decimal or "
                                    "'num/den' string") from None
        return Scalar(self, value)

    def reduce(self, value) -> Coefficient:
        """The canonical plain value of an exact number: its residue in
        [0, p) over F_p, a Fraction over Q.  Floats, booleans and
        non-numbers are InexactScalar; a fraction whose denominator
        vanishes mod p is DivisionByZero."""
        p = self.p
        if p:
            if type(value) is int:
                return value % p
        elif type(value) is Fraction:
            return value
        if isinstance(value, bool) or not isinstance(value, Rational):
            raise InexactScalar(f"{value!r} is not an exact scalar; "
                                "write an integer or a 'num/den' string")
        num, den = int(value.numerator), int(value.denominator)
        if not p:
            return Fraction(num, den)
        if den % p == 0:
            raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
        return num * pow(den, -1, p) % p

    def inverse(self, value) -> Coefficient:
        """The inverse of an exact number, as a canonical plain value;
        DivisionByZero on 0."""
        value = self.reduce(value)
        if not value:
            raise DivisionByZero("inverse of zero")
        return pow(value, -1, self.p) if self.p else 1 / value

    def sqrt(self, value) -> Optional[Coefficient]:
        """Some r with r*r == value, as a canonical plain value, or None if
        value is not a square.  Deterministic choice: the nonnegative root
        over Q, the smaller residue over F_p."""
        value, p = self.reduce(value), self.p
        if not p:
            if value < 0:
                return None
            r = Fraction(math.isqrt(value.numerator), math.isqrt(value.denominator))
            return r if r * r == value else None
        if p == 2 or value == 0:
            return value  # squaring is the identity on F_2
        if pow(value, (p - 1) // 2, p) != 1:
            return None
        r = _tonelli_shanks(value, p)
        return min(r, p - r)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self):
        """Iterate all field elements (prime fields only)."""
        if self.kind != "Fp":
            raise ValueError("cannot enumerate the rationals")
        return (Scalar(self, v) for v in range(self.p))

    def to_json(self) -> dict:
        return {"kind": "Q"} if self.kind == "Q" else {"kind": "Fp", "p": self.p}


def is_ascii_digits(text: str) -> bool:
    """Is `text` one or more of the digits 0-9?  str.isdigit also accepts
    other scripts' digits and superscripts, which int() reads or refuses."""
    return text.isascii() and text.isdigit()


def _modulus(text: str, spec) -> int:
    """A modulus written in ASCII digits (in the field spec `spec`), refused
    before int() reads it when it is other text or has more significant
    digits than any supported modulus."""
    if not is_ascii_digits(text):
        raise ValueError(f"bad field spec {spec!r}")
    significant = text.lstrip("0")
    if len(significant) > _MODULUS_DIGITS:
        raise UnsupportedModulus(f"of {len(significant)} digits")
    return int(significant or "0")


def field_make(spec) -> Field:
    """Construct a field from {"kind":"Q"} / {"kind":"Fp","p":5}, "Q"/"F5",
    a bare prime, or a Field."""
    if isinstance(spec, Field):
        return spec
    if isinstance(spec, int) and not isinstance(spec, bool):
        return Field("Fp", spec)
    if isinstance(spec, dict):
        if spec.get("kind") == "Q":
            return QQ
        p = spec.get("p")
        if isinstance(p, (bool, float)):
            raise InexactScalar(f"modulus {p!r} is not an integer")
        if isinstance(p, int):
            return Field("Fp", p)
        if isinstance(p, str):
            return Field("Fp", _modulus(p, spec))
    if isinstance(spec, str):
        if spec == "Q":
            return QQ
        if spec.startswith("F"):
            return Field("Fp", _modulus(spec[1:], spec))
    raise ValueError(f"bad field spec {spec!r}")


class Scalar:
    """Immutable exact field element: Fraction over Q, residue in [0,p) over F_p.
    The constructor normalises `value` through `Field.reduce`."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", field.reduce(value))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # Operators with a non-Scalar operand return NotImplemented, so Python
    # hands a Scalar-polynomial pair to the MultiPoly side, which promotes.

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar(self.field, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar(self.field, self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar(self.field, self.value * other.value)

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, -self.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * inv(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self) -> int:
        # The constant polynomial of the same value hashes the same way.
        return hash((self.field, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:
        return decimal_text(self.value)

    def to_json(self):
        """Rationals as "num/den" strings, F_p residues as plain ints."""
        if self.field.kind == "Fp":
            return int(self.value)
        return decimal_text(self.value)


def decimal_text(value) -> str:
    """The decimal text of an int or Fraction.  Past the interpreter's limit
    on int-to-string conversion this is NumberTooLong, an input error."""
    try:
        return str(value)
    except ValueError:
        raise NumberTooLong(
            "a value with more than %d digits cannot be printed"
            % sys.get_int_max_str_digits()) from None


def inv(a: Scalar) -> Scalar:
    """Exact multiplicative inverse; raises DivisionByZero on 0."""
    return Scalar(a.field, a.field.inverse(a.value))


def _tonelli_shanks(a: int, p: int) -> int:
    """A square root of a mod odd prime p, assuming one exists."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Factor p-1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Smallest quadratic nonresidue as the auxiliary generator (deterministic).
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def sqrt(a: Scalar) -> Optional[Scalar]:
    """Some r with r*r == a, or None if a is not a square (`Field.sqrt`)."""
    r = a.field.sqrt(a.value)
    return None if r is None else Scalar(a.field, r)


QQ = Field("Q")
F2 = Field("Fp", 2)
F3 = Field("Fp", 3)
F5 = Field("Fp", 5)
