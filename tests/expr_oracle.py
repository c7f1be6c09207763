"""The tree walker of the expression language: the test oracle of
`algid.multipoly.compile_expr`, which evaluates through compiled closures
instead, on plain values and on Scalars and polynomials.

`_evaluate`, `_constant` and `_bits` are kept as they were before the
compiled closures replaced them, so the differential tests compare the
evaluator with an independent reference rather than with itself.
"""

from typing import Mapping, Optional

from algid.errors import AlgidError, DivisionByZero
from algid.exactnum import Field, Scalar, inv, sqrt
from algid.multipoly import (
    _ARITHMETIC,
    MultiPoly,
    SqrtUnavailable,
    _Node,
    _power,
    _value_bits,
    _within_bound,
)


def _constant(x, what: str) -> Scalar:
    """The Scalar value of a Scalar or constant polynomial; AlgidError(what)
    for a polynomial with variables."""
    if isinstance(x, MultiPoly):
        if not x.is_constant():
            raise AlgidError(what)
        return x.constant_value()
    return x


def _bits(x) -> int:
    if x.field.kind == "Fp":
        return 0
    vals = x.terms.values() if isinstance(x, MultiPoly) else (x.value,)
    return max(map(_value_bits, vals), default=0)


def _evaluate(node: _Node, field: Field, env: Mapping[str, object], unbound):
    """The one walker of the expression language, on Scalar and MultiPoly
    values alike; variables missing from `env` are looked up by `unbound`."""

    def rec(n: _Node):
        kind = n[0]
        if kind == "num":
            return field.scalar(n[1])
        if kind == "var":
            return env[n[1]] if n[1] in env else unbound(n[1])
        if kind in _ARITHMETIC:
            x, y = rec(n[1]), rec(n[2])
            _within_bound(_bits(x) + _bits(y))
            return _ARITHMETIC[kind](x, y)
        if kind == "neg":
            return -rec(n[1])
        if kind == "pow":
            x = rec(n[1])
            _within_bound(_bits(x) * n[2])
            return _power(x, n[2], field.one())
        if kind == "div":
            den = _constant(rec(n[2]), "division by a non-constant expression")
            if den.is_zero():
                raise DivisionByZero("denominator vanishes in expression")
            x = rec(n[1])
            _within_bound(_bits(x) + _bits(den))
            return x * inv(den)
        if kind == "sqrt":
            rad = _constant(rec(n[1]), "sqrt of a non-constant expression")
            root = sqrt(rad)
            if root is None:
                raise SqrtUnavailable(rad)
            return root
        raise AlgidError(f"bad expression node {kind!r}")

    try:
        return rec(node)
    finally:
        del rec  # rec reaches itself through its closure cell: break the cycle


def _unbound(name: str):
    raise AlgidError(f"unbound variable {name!r}")


def eval_expr(node: _Node, field: Field, env: Mapping[str, object]):
    """`algid.multipoly.eval_expr` by the walker."""
    return _evaluate(node, field, env, _unbound)


def expr_to_poly(node: _Node, field: Field,
                 env: Optional[Mapping[str, object]] = None) -> MultiPoly:
    """`algid.multipoly.expr_to_poly` by the walker: names not bound in `env`
    are the polynomial variables of their own names."""
    value = _evaluate(node, field, env or {}, lambda name: MultiPoly.var(field, name))
    return MultiPoly.coerce(field, value)


def outcome(thunk):
    """The type and value of thunk()'s result, or the type and message of the
    AlgidError it raises: a Scalar and its constant polynomial, which compare
    equal, are different outcomes."""
    try:
        value = thunk()
    except AlgidError as exc:
        return type(exc), str(exc)
    return type(value), value
