"""Shared exception types."""


class AlgidError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeModulus(AlgidError):
    def __init__(self, p: int):
        super().__init__(f"modulus {p} is not prime")
        self.p = p


class UnsupportedModulus(AlgidError):
    def __init__(self, p):  # an int, or a phrase such as "of 5000 digits"
        super().__init__(f"modulus {p} out of supported range [2, 2^31)")
        self.p = p


class DivisionByZero(AlgidError):
    pass


class FieldMismatch(AlgidError):
    pass


class InexactScalar(AlgidError):
    """A value that cannot be read as an exact field element or modulus: a
    float, a boolean, another type than a number, or exponent notation."""


class DimensionMismatch(AlgidError):
    pass


class UnknownFamily(AlgidError):
    pass


class ParamCountMismatch(AlgidError):
    pass


class CharMismatch(AlgidError):
    pass


class UnknownIdentity(AlgidError):
    pass


class TooManyVariables(AlgidError):
    pass


class SearchSpaceTooLarge(AlgidError):
    pass


class UnsupportedPrime(AlgidError):
    pass


class ShapeArityMismatch(AlgidError):
    pass


class IdentitySyntaxError(AlgidError):
    """Parse error in the identity DSL or the scalar-expression mini-language."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class ExpansionTooLarge(AlgidError):
    """An identity whose expansion exceeds the expansion budget."""


class NumberTooLong(AlgidError):
    """A number with more digits than can be read, printed or computed."""
