"""Sparse multivariate polynomials over an exact field.

A monomial is a tuple of (variable, exponent) pairs sorted by variable name;
the polynomial is a map from monomial to nonzero plain value (a residue in
[0, p) over F_p, a Fraction over Q), reduced by `Field.reduce`, so canonical
form is unique and equality is plain dict equality.  Operands, `const`,
`scale` and `constant_value()` take and give Scalars.  The module also houses
the small scalar-expression language ("2 a1 - 1", "sqrt(a1 + b2)",
"b1/b2^2") used by the family catalog and by transcribed fixture systems.
Its one evaluator, `compile_expr`, compiles a parsed text into closures on
plain values or on Scalars and polynomials (`eval_expr`, `expr_to_poly`).
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .errors import AlgidError, DivisionByZero, FieldMismatch, IdentitySyntaxError, NumberTooLong
from .exactnum import Coefficient, Field, Scalar, decimal_text
from .identity_lang import MAX_DEPTH, MAX_EXPONENT, TokenCursor, literal_int

Monomial = Tuple[Tuple[str, int], ...]

ONE: Monomial = ()


class SqrtUnavailable(AlgidError):
    """Raised when an expression needs a square root that the field lacks."""

    def __init__(self, radicand: Scalar):
        super().__init__(f"{radicand!r} is not a square in {radicand.field!r}")
        self.radicand = radicand


def _mon_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: Dict[str, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mon_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mon_sort_key(m: Monomial):
    """Graded-lex key: higher total degree first, then lex on the variable word."""
    word = tuple(v for v, e in m for _ in range(e))
    return (-mon_degree(m), word)


def render_monomial(m: Monomial) -> str:
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in m) if m else "1"


class MultiPoly:
    """Immutable-by-convention sparse polynomial; do not mutate .terms."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Mapping[Monomial, Coefficient]):
        self.field = field
        self.terms = {m: r for m, c in terms.items() if (r := field.reduce(c))}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "MultiPoly":
        return cls(field, {})

    @classmethod
    def const(cls, field: Field, value) -> "MultiPoly":
        return cls(field, {ONE: field.scalar(value).value})

    @classmethod
    def var(cls, field: Field, name: str, exp: int = 1) -> "MultiPoly":
        return cls(field, {((name, exp),): field.one().value})

    @classmethod
    def coerce(cls, field: Field, value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            if value.field != field:
                raise FieldMismatch(f"{value.field} vs {field}")
            return value
        return cls.const(field, value)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return self.field.zero()
        if self.is_constant():
            return Scalar(self.field, self.terms[ONE])
        raise ValueError(f"{self} is not constant")

    def variables(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def sorted_terms(self) -> Iterator[Tuple[Monomial, Coefficient]]:
        for m in sorted(self.terms, key=mon_sort_key):
            yield m, self.terms[m]

    # -- arithmetic ----------------------------------------------------------
    #
    # A Scalar operand, on either side, stands for the constant polynomial of
    # its value: Scalar's operators return NotImplemented for a polynomial, so
    # Python calls the reflected method here.  Any other operand gets
    # NotImplemented back (subtraction calls `__add__` itself to pass it on),
    # so Python raises TypeError.

    def _check(self, other: "MultiPoly"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, Scalar):
            other = MultiPoly.const(self.field, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = c if s is None else s + c
        return MultiPoly(self.field, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return self.__add__(-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return (-self).__add__(other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.field, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms: Dict[Monomial, Coefficient] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mon_mul(m1, m2)
                c = c1 * c2
                s = terms.get(m)
                terms[m] = c if s is None else s + c
        return MultiPoly(self.field, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = self.field.scalar(c).value
        return MultiPoly(self.field, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, MultiPoly.const(self.field, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.is_constant() and self.constant_value() == other
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.constant_value())  # equal to its Scalar
        return hash((self.field, frozenset(self.terms.items())))

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return self.render()

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            neg = c < 0
            coeff = decimal_text(-c if neg else c)
            if m and coeff == "1":
                body = render_monomial(m)
            elif m:
                body = f"{coeff} {render_monomial(m)}"
            else:
                body = coeff
            parts.append(("- " if neg else "+ ") + body if parts else ("-" if neg else "") + body)
        return " ".join(parts)

    def to_json(self) -> list:
        return [
            {"monomial": [[v, e] for v, e in m], "coeff": Scalar(self.field, c).to_json()}
            for m, c in self.sorted_terms()
        ]


# -- scalar-expression mini-language ------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := unary (('*'|'/') unary | unary-adjacent)*      adjacency multiplies
# unary  := '-' unary | power
# power  := atom ('^' INT)?                                INT at most MAX_EXPONENT
# atom   := INT | NAME | '(' expr ')' | 'sqrt' '(' expr ')'

_Node = tuple


class _ExprParser(TokenCursor):
    """Recursive descent over the grammar above.  Methods, not closures, so a
    parse leaves no reference cycle behind.  Each method returns a node and
    its height, the levels of its tree."""

    def __init__(self, text: str):
        super().__init__(text, "+-*/^()", "expression")

    def join(self, tok, kind, *children):
        """The node (kind, *children) and its height, from (node, height)
        pairs; an error at `tok` past MAX_DEPTH levels."""
        height = 1 + max(h for _, h in children)
        if height > MAX_DEPTH:
            raise IdentitySyntaxError(
                tok[0], f"expression deeper than {MAX_DEPTH} operations")
        return (kind, *(node for node, _ in children)), height

    def expr(self):
        lhs = self.term()
        while self.peek()[1] in "+-":
            tok = self.take()
            lhs = self.join(tok, "add" if tok[1] == "+" else "sub", lhs, self.term())
        return lhs

    def term(self):
        lhs = self.unary()
        while True:
            tok = self.peek()
            if tok[1] in ("*", "/"):
                self.take()
                lhs = self.join(tok, "mul" if tok[1] == "*" else "div", lhs, self.unary())
            elif tok[1] in ("int", "name", "("):
                lhs = self.join(tok, "mul", lhs, self.unary())
            else:
                return lhs

    def unary(self):
        if self.peek()[1] == "-":
            tok = self.take()
            return self.join(tok, "neg", self.nested(tok, self.unary))
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.take()
            tok = self.take("int")
            digits = tok[2].lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise IdentitySyntaxError(
                    tok[0], f"exponent above {MAX_EXPONENT}")
            node, height = self.join(tok, "pow", base)
            return node + (int(digits),), height
        return base

    def atom(self):
        tok = self.peek()
        if tok[1] == "int":
            self.take()
            return ("num", literal_int(tok)), 1
        if tok[1] == "name":
            self.take()
            if tok[2] == "sqrt":
                inner = self.nested(self.take("("), self.expr)
                self.take(")")
                return self.join(tok, "sqrt", inner)
            return ("var", tok[2]), 1
        if tok[1] == "(":
            inner = self.nested(self.take(), self.expr)
            self.take(")")
            return inner
        raise IdentitySyntaxError(tok[0], f"unexpected token {tok[2]!r}")


def parse_expr(text: str) -> _Node:
    """Parse the mini-language into a tuple tree (no field binding yet)."""
    parser = _ExprParser(text)
    return parser.finish(parser.expr()[0])


def _power(base, n: int, one):
    """base ** n by square-and-multiply; `one` is the empty product."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _constant(x, what: str) -> Coefficient:
    """The plain value of a Scalar or constant polynomial; AlgidError(what)
    for a polynomial with variables."""
    if isinstance(x, MultiPoly):
        if not x.is_constant():
            raise AlgidError(what)
        x = x.constant_value()
    return x.value


# The longest value, in bits, that the expression language computes: of a
# rational's numerator and denominator, of a polynomial's coefficients.  A
# literal has at most 4300 digits, but a few characters of powers or products
# of literals grow far past that; an operation that could pass the bound (a
# power by its base's length times the exponent, any other binary operation by
# the sum of its operands' lengths) is refused before it runs.  Residues mod p
# never grow.
MAX_BITS = 1 << 18


def _value_bits(v: Coefficient) -> int:
    """The bit length of a rational's numerator or denominator, the longer."""
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _bits(x) -> int:
    if x.field.kind == "Fp":
        return 0
    vals = x.terms.values() if isinstance(x, MultiPoly) else (x.value,)
    return max(map(_value_bits, vals), default=0)


def _within_bound(bits: int) -> None:
    if bits > MAX_BITS:
        raise NumberTooLong(f"a value longer than {MAX_BITS} bits would be computed")


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _unbound(name: str):
    raise AlgidError(f"unbound variable {name!r}")


def _names(node: _Node) -> set:
    """The variable names of an expression tree."""
    if node[0] == "var":
        return {node[1]}
    return set().union(*(_names(c) for c in node[1:] if isinstance(c, tuple)))


def _domain(field: Field, objects: bool):
    """What the two value domains of `compile_expr` differ in: how a step's
    result is reduced, how a value is lifted to a constant plain value (or
    refused with the given message), how a plain value is lowered back, and
    how bits are counted (None where values never grow)."""
    if objects:
        return (lambda x: x), _constant, (lambda v: Scalar(field, v)), _bits
    bits = _value_bits if field.kind == "Q" else None
    return field.reduce, (lambda v, what: v), (lambda v: v), bits


def compile_expr(node: _Node, field: Field, objects: bool = False):
    """The evaluator of the expression language: `node` over `field` as a
    function of a dict binding its variables.  On plain values (a residue
    over F_p, a Fraction over Q, normalised by `Field.reduce` at every step)
    by default; with `objects`, on Scalars and polynomials, giving a Scalar,
    or a polynomial where a polynomial takes part.  A denominator is
    evaluated before its numerator, other operands left to right, and an
    operation that could pass `MAX_BITS` is refused before it runs."""
    reduce, lift, lower, bits = _domain(field, objects)
    kind = node[0]
    if kind == "num":
        value = lower(field.scalar(node[1]).value)
        return lambda env: value
    if kind == "var":
        name = node[1]
        return lambda env: env[name] if name in env else _unbound(name)
    f = compile_expr(node[1], field, objects)
    if kind == "neg":
        return lambda env: reduce(-f(env))
    if kind == "sqrt":
        def root(env):
            rad = lift(f(env), "sqrt of a non-constant expression")
            r = field.sqrt(rad)
            if r is None:
                raise SqrtUnavailable(Scalar(field, rad))
            return lower(r)
        return root
    if kind == "pow":
        def power(env, e=node[2], one=lower(field.one().value)):
            x = f(env)
            if bits:
                _within_bound(bits(x) * e)
            return reduce(_power(x, e, one))
        return power
    g = compile_expr(node[2], field, objects)
    if kind == "div":
        def quotient(env):
            den = lift(g(env), "division by a non-constant expression")
            if not den:
                raise DivisionByZero("denominator vanishes in expression")
            x = f(env)
            if bits:
                _within_bound(bits(x) + bits(lower(den)))
            return reduce(x * lower(field.inverse(den)))
        return quotient
    op = _ARITHMETIC[kind]

    def arithmetic(env):
        x, y = f(env), g(env)
        if bits:
            _within_bound(bits(x) + bits(y))
        return reduce(op(x, y))
    return arithmetic


def eval_expr(node: _Node, field: Field, env: Mapping[str, object]):
    """Evaluate an expression tree with every variable bound in `env`: a
    Scalar, or a polynomial where `env` binds a variable to one.

    Raises SqrtUnavailable when a radicand is a nonsquare and DivisionByZero
    when a denominator vanishes — callers treat both as "point not realizable".
    """
    return compile_expr(node, field, objects=True)(env)


def expr_to_poly(node: _Node, field: Field, env: Optional[Mapping[str, object]] = None) -> MultiPoly:
    """Build a MultiPoly; variables not bound in `env` (to scalars or
    polynomials) stay symbolic.

    Division is only allowed by nonzero constants and sqrt only of constant
    squares, which keeps the result a genuine polynomial.
    """
    symbols = {name: MultiPoly.var(field, name) for name in _names(node)}
    return MultiPoly.coerce(field, eval_expr(node, field, {**symbols, **(env or {})}))


def parse_poly(text: str, field: Field, env: Optional[Mapping[str, object]] = None) -> MultiPoly:
    """Parse mini-language text straight to a polynomial over `field`."""
    return expr_to_poly(parse_expr(text), field, env)
