import gc
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_oracle as oracle
from coordinate_route import collect_coefficients
from expr_oracle import outcome

from algid.canon_catalog import family
from algid.errors import (
    AlgidError,
    DivisionByZero,
    FieldMismatch,
    IdentitySyntaxError,
    InexactScalar,
    NumberTooLong,
)
from algid.exactnum import F2, F3, F5, QQ, Scalar
from algid.expander import (
    Equation,
    PolySystem,
    check_formal,
    expand,
    expansion_columns,
    span_equal,
    word_tensor_matrix,
)
from algid.identity_lang import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_NESTING,
    get_identity,
    parse_identity,
    variables,
    word_terms,
)
from algid.multipoly import (
    MAX_BITS,
    MultiPoly,
    SqrtUnavailable,
    compile_expr,
    eval_expr,
    expr_to_poly,
    parse_expr,
    parse_poly,
)


def P(text, field=QQ, env=None):
    return parse_poly(text, field, env)


def test_canonical_form_and_equality():
    assert P("(a2 - a3)^2") == P("a2^2 - 2 a2 a3 + a3^2")
    assert P("a1 - a1").is_zero()
    assert P("0").is_zero()
    assert P("3") == MultiPoly.const(QQ, 3)


def test_render_graded_lex():
    assert P("a3^2 + a2 - 2 a2 a3 + 1 + a2^2").render() == "a2^2 - 2 a2 a3 + a3^2 + a2 + 1"
    assert P("x1 y2 - x2 y1").render() == "x1 y2 - x2 y1"
    assert MultiPoly.zero(QQ).render() == "0"
    assert P("-a1 + 1/2").render() == "-a1 + 1/2"


def test_arithmetic_over_fp():
    p = P("a1 + 1", F3) ** 3
    # Freshman's dream: in characteristic 3 the cross terms vanish.
    assert p == P("a1^3 + 1", F3)


def test_collect_coefficients():
    p = P("(2 a1 - 1) x1 y2 + (1 - 2 a1) x2 y1 + b2 x1 y1")
    coeffs = collect_coefficients(p, ["x1", "x2", "y1", "y2"])
    assert coeffs[(("x1", 1), ("y2", 1))] == P("2 a1 - 1")
    assert coeffs[(("x2", 1), ("y1", 1))] == P("1 - 2 a1")
    assert coeffs[(("x1", 1), ("y1", 1))] == P("b2")
    assert len(coeffs) == 3
    assert collect_coefficients(MultiPoly.zero(QQ), ["x1"]) == {}


def test_collect_reassembles():
    p = P("a1 x1^2 y1 + (a2 - a3) x1 + b1")
    coeffs = collect_coefficients(p, ["x1", "y1"])
    total = MultiPoly.zero(QQ)
    for mon, c in coeffs.items():
        total = total + c * MultiPoly(QQ, {mon: Fraction(1)})
    assert total == p


def test_degrees_and_variables():
    p = P("a1^3 b1 - 2 a1 + 7")
    assert p.variables() == {"a1", "b1"}


def test_parse_expr_shapes():
    assert parse_expr("1/2 a1") == ("mul", ("div", ("num", 1), ("num", 2)), ("var", "a1"))
    assert parse_expr("-a1^2") == ("neg", ("pow", ("var", "a1"), 2))
    with pytest.raises(IdentitySyntaxError):
        parse_expr("a1 +")
    with pytest.raises(IdentitySyntaxError):
        parse_expr("(a1")
    with pytest.raises(IdentitySyntaxError):
        parse_expr("a1 $ 2")


def test_eval_expr_with_radicals():
    e = parse_expr("(a1 + sqrt(a1^2 - 1))/2")
    assert eval_expr(e, QQ, {"a1": QQ.scalar("5/4")}).value == 1
    with pytest.raises(SqrtUnavailable):
        eval_expr(e, QQ, {"a1": QQ.scalar("1/2")})
    # sqrt(-1) exists in F5 (it is 2), not over Q.
    assert eval_expr(parse_expr("sqrt(0 - 1)"), F5, {}).value == 2
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("1/(a1 - 1)"), QQ, {"a1": QQ.scalar(1)})


def test_poly_division_rules():
    assert P("b1/b2^2", env={"b2": QQ.scalar(3)}) == P("1/9 b1")
    assert P("a/b + sqrt(b)", F5, {"b": P("4", F5)}) == P("4 a + 2", F5)  # a constant polynomial
    with pytest.raises(AlgidError):
        P("a1/b1")
    with pytest.raises(DivisionByZero):
        P("a1/0")


@pytest.mark.parametrize("text,field,env,message", [
    ("1/x", QQ, {}, "division by a non-constant expression"),
    ("sqrt(x + 1)", F5, {}, "sqrt of a non-constant expression"),
    ("a/b", QQ, {"b": "t + 1"}, "division by a non-constant expression"),
    ("sqrt(b) + 1/0", F3, {"b": "t^2"}, "sqrt of a non-constant expression"),
    ("1/(b - c)", F5, {"b": "t", "c": "t"}, "denominator vanishes in expression"),
])
def test_non_constant_denominators_and_radicands_are_refused(text, field, env, message):
    """A denominator or radicand must be constant once its bindings are in;
    a polynomial bound in `env` counts as its value."""
    env = {name: P(poly, field) for name, poly in env.items()}
    with pytest.raises(AlgidError) as exc:
        parse_poly(text, field, env)
    assert str(exc.value) == message
    # eval_expr, with every variable bound, refuses alike
    env.update((name, P(name, field)) for name in "abcx" if name not in env)
    with pytest.raises(AlgidError) as exc:
        eval_expr(parse_expr(text), field, env)
    assert str(exc.value) == message


def test_parse_expr_nesting_depth_is_bounded():
    def shapes(depth):
        return ("(" * depth + "x+1" + ")" * depth,
                "-" * depth + "x",
                "sqrt(" * depth + "4" + ")" * depth)

    for text in shapes(MAX_NESTING):
        parse_expr(text)
    assert P("-" * MAX_NESTING + "x") == P("x")
    for depth in (MAX_NESTING + 1, 3000):
        for text in shapes(depth):
            with pytest.raises(IdentitySyntaxError, match="nested deeper"):
                parse_expr(text)


@pytest.mark.parametrize("sep", ["+", "*", " "], ids=["sum", "product", "adjacency"])
def test_parse_expr_tree_depth_is_bounded(sep):
    """A flat chain is as deep as it is long: one of MAX_DEPTH levels still
    evaluates, to a Scalar and as a polynomial, and one level more is
    refused at the token that starts it."""
    def chain(n, term):
        return sep.join([term] * n)

    node = parse_expr(chain(MAX_DEPTH, "x"))
    for field in (QQ, F3):
        two = field.scalar(2)
        want = field.scalar(2 * MAX_DEPTH if sep == "+" else 2 ** MAX_DEPTH)
        assert eval_expr(node, field, {"x": two}) == want
    x = MultiPoly.var(QQ, "x")
    assert expr_to_poly(node, QQ) == (x * QQ.scalar(MAX_DEPTH) if sep == "+" else x ** MAX_DEPTH)
    # the operator, or for adjacency the factor, that starts level MAX_DEPTH + 1
    position = 2 * MAX_DEPTH - (sep != " ")
    for n in (MAX_DEPTH + 1, 3000):
        with pytest.raises(IdentitySyntaxError) as exc:
            parse_expr(chain(n, "1"))
        assert str(exc.value) == \
            f"at position {position}: expression deeper than {MAX_DEPTH} operations"


@pytest.mark.parametrize("parse,text,message", [
    (parse_expr, "(x + 1", "expected ')', got 'end of input'"),
    (parse_expr, "x +", "unexpected token 'end of input'"),
    (parse_expr, "x)", "trailing input ')'"),
    (parse_identity, "(u*v", "expected ')', got 'end of input'"),
    (parse_identity, "u +", "expected a factor, got 'end of input'"),
    (parse_identity, "u)", "trailing input ')'"),
])
def test_both_languages_name_the_end_of_input(parse, text, message):
    """Both text languages read their tokens through one cursor."""
    with pytest.raises(IdentitySyntaxError) as exc:
        parse(text)
    assert message in str(exc.value)


@st.composite
def polys(draw):
    names = ["a1", "a2", "b1"]
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(names), max_size=3),
                st.integers(min_value=-5, max_value=5),
            ),
            max_size=5,
        )
    )
    out = MultiPoly.zero(QQ)
    for vars_, c in terms:
        mono = MultiPoly.const(QQ, c)
        for v in vars_:
            mono = mono * MultiPoly.var(QQ, v)
        out = out + mono
    return out


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p - p).is_zero()


@settings(max_examples=40)
@given(polys())
def test_render_parse_roundtrip(p):
    assert parse_poly(p.render(), QQ) == p


@settings(max_examples=40)
@given(polys(), st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_eval_is_ring_hom(p, x, y):
    env = {"a1": x, "a2": y, "b1": x + y}

    def at(poly):
        total = 0
        for mon, c in poly.terms.items():
            for name, e in mon:
                for _ in range(e):
                    c = c * env[name]
            total = total + c
        return total

    sq = p * p
    assert at(sq) == at(p) * at(p)


def test_parse_expr_exponent_is_bounded():
    parse_expr("a1^%d" % MAX_EXPONENT)
    for text in ("a1^%d" % (MAX_EXPONENT + 1), "2^99999999", "2^" + "9" * 5000):
        with pytest.raises(IdentitySyntaxError, match="exponent above"):
            parse_expr(text)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_powers_match_repeated_products(field):
    base, three = P("a1 - 3", field), field.scalar(3)
    poly, scalar = MultiPoly.const(field, 1), field.one()
    for e in range(MAX_EXPONENT + 1):
        if e < 12 or e == MAX_EXPONENT:
            assert P("(a1 - 3)^%d" % e, field) == poly
            assert base ** e == poly
            assert eval_expr(parse_expr("3^%d" % e), field, {}) == scalar
        poly, scalar = poly * base, scalar * three


# -- Scalar/MultiPoly mixing, against the lifted form as the oracle -----------

FIELDS = [QQ, F2, F3, F5]


@st.composite
def field_polys(draw, field):
    out = MultiPoly.zero(field)
    for vars_, c in draw(st.lists(st.tuples(
            st.lists(st.sampled_from(["a1", "a2", "b1"]), max_size=3),
            st.integers(min_value=-5, max_value=5)), max_size=4)):
        mono = MultiPoly.const(field, c)
        for v in vars_:
            mono = mono * MultiPoly.var(field, v)
        out = out + mono
    return out


@st.composite
def scalar_and_poly(draw):
    field = draw(st.sampled_from(FIELDS))
    if field.kind == "Q":
        s = field.scalar(draw(st.fractions(max_denominator=6).filter(
            lambda q: abs(q) <= 6)))
    else:
        s = field.scalar(draw(st.integers(min_value=0, max_value=field.p - 1)))
    return s, draw(field_polys(field))


@settings(max_examples=80, deadline=None)
@given(scalar_and_poly())
def test_scalar_operand_acts_as_constant_polynomial(pair):
    s, p = pair
    c = MultiPoly.const(s.field, s)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        for got, want in ((op(s, p), op(c, p)), (op(p, s), op(p, c))):
            assert isinstance(got, MultiPoly)
            assert got == want and got.terms == want.terms
            assert hash(got) == hash(want)
    assert s == c and c == s and hash(s) == hash(c)
    assert len({s, c}) == 1
    assert (s == p) == (c == p) and (p == s) == (p == c)


def test_scalar_and_polynomial_of_other_fields_do_not_mix():
    for x, y in ((F3.scalar(1), P("a1", F5)), (P("a1", F5), F3.scalar(1))):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(FieldMismatch):
                op(x, y)
        assert x != y
    assert F3.scalar(1) != MultiPoly.const(F5, 1)


# -- plain coefficients, against a Scalar-coefficient reference ---------------
#
# The reference keeps {monomial: nonzero Scalar} and computes with Scalar's own
# operators, as the polynomial did before its coefficients became plain values.


def _ref_sum(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _ref_neg(p):
    return {m: -c for m, c in p.items()}


def _ref_product(p, q):
    out = {}
    for (m1, c1), (m2, c2) in itertools.product(p.items(), q.items()):
        m = tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))
        out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if c}


def _from_reference(field, p):
    return MultiPoly(field, {m: c.value for m, c in p.items()})


def _assert_matches_reference(field, p, q, s):
    """The polynomial operations on p and q (reference dicts) and the scalar
    s agree with the reference's, term for term."""
    P, Q = _from_reference(field, p), _from_reference(field, q)
    for got, want in ((P + Q, _ref_sum(p, q)),
                      (P - Q, _ref_sum(p, _ref_neg(q))),
                      (P * Q, _ref_product(p, q)),
                      (-P, _ref_neg(p)),
                      (P.scale(s), _ref_product(p, {(): s}))):
        assert got.terms == {m: c.value for m, c in want.items()}
        assert got == _from_reference(field, want)
    assert (P == Q) == (p == q)
    if p == q:
        assert hash(P) == hash(Q)
    assert hash(P + Q) == hash(Q + P)
    constant = set(p) <= {()}
    value = p.get((), field.zero())
    assert (P == value) == constant and (value == P) == constant
    if constant:
        assert hash(P) == hash(value) and P.constant_value() == value


@pytest.mark.parametrize("field", [F2, F3])
def test_plain_coefficients_match_scalar_reference_exhaustively(field):
    """Every pair of polynomials of degree <= 2 in one variable."""
    mons = [(), (("a1", 1),), (("a1", 2),)]
    elements = list(field.elements())
    refs = [{m: c for m, c in zip(mons, cs) if c}
            for cs in itertools.product(elements, repeat=3)]
    for (p, q), s in zip(itertools.product(refs, refs), itertools.cycle(elements)):
        _assert_matches_reference(field, p, q, s)


_TWO_VARIABLE_MONOMIALS = [(), (("a1", 1),), (("a2", 1),), (("a1", 2),),
                           (("a1", 1), ("a2", 1)), (("a2", 2),)]


@st.composite
def reference_pair(draw):
    field = draw(st.sampled_from([QQ, F5]))
    if field.kind == "Q":
        values = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    else:
        values = st.integers(min_value=0, max_value=4)

    def ref():
        terms = draw(st.dictionaries(st.sampled_from(_TWO_VARIABLE_MONOMIALS),
                                     values, max_size=4))
        return {m: field.scalar(c) for m, c in terms.items() if c}

    return field, ref(), ref(), field.scalar(draw(values))


@settings(max_examples=150, deadline=None)
@given(reference_pair())
def test_plain_coefficients_match_scalar_reference(case):
    _assert_matches_reference(*case)


def _assert_plain(poly):
    """Coefficients are int residues in [1, p) over F_p, Fractions over Q."""
    for c in poly.terms.values():
        if poly.field.kind == "Q":
            assert type(c) is Fraction and c
        else:
            assert type(c) is int and 0 < c < poly.field.p


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_expanded_systems_hold_plain_field_values(field):
    for n in range(1, 31):
        for poly in expand(get_identity("I%d" % n), field=field):
            _assert_plain(poly)


@pytest.mark.parametrize("field", [QQ, F5])
def test_tensor_matrices_hold_plain_field_values(field):
    """A symbolic family whose entries have denominators (scaled by 6)."""
    A = family("A5").instantiate(field, (P("a1/3 + 1/2", field),))
    word = parse_identity("(u*v)*(w*u) = 0").lhs.terms[0][1]
    polys = [poly for row in word_tensor_matrix(A, word) for poly in row]
    assert any(len(poly.terms) > 1 for poly in polys)
    for poly in polys:
        _assert_plain(poly)


def test_formal_witness_holds_a_plain_fraction():
    witness = check_formal(family("A9").instantiate(QQ, ()), get_identity("I19")).witness.poly
    _assert_plain(witness)
    assert witness.terms == {(): Fraction(-5, 9)}
    assert witness.constant_value() == QQ.scalar("-5/9")


@pytest.mark.parametrize("field", [QQ, F5])
def test_floats_and_bools_are_refused_at_every_entry(field):
    p = P("a1 + 2", field)
    for bad in (0.5, True):
        for entry in (lambda: MultiPoly.const(field, bad), lambda: MultiPoly.coerce(field, bad),
                      lambda: p.scale(bad), lambda: MultiPoly(field, {(("a1", 1),): bad})):
            with pytest.raises(InexactScalar):
                entry()
    for bad in (0.5, True, 1):
        for op in (lambda: p + bad, lambda: bad + p, lambda: p * bad, lambda: bad * p,
                   lambda: p - bad, lambda: bad - p):
            with pytest.raises(TypeError):
                op()


def test_constructor_reduces_any_exact_number():
    m = (("a1", 1),)
    two = MultiPoly(QQ, {m: 2})
    assert two.terms == {m: 2} and type(two.terms[m]) is Fraction
    system = PolySystem(QQ, [Equation(0, (), two)])
    assert system.render_normalized_lines() == ["a1 = 0"]
    assert span_equal(system, [P("a1")])
    assert MultiPoly(F5, {m: Fraction(1, 2)}).terms == {m: 3}
    with pytest.raises(DivisionByZero):
        MultiPoly(F5, {m: Fraction(1, 5)})


def test_evaluation_leaves_no_reference_cycles():
    """Compiling and evaluating an expression leaves no reference cycle for
    the cycle collector to reclaim (as a recursive function nested in a
    closure would, reaching itself through its cell): a paper pass evaluates
    tens of thousands of expressions."""
    node = parse_expr("(a + 1)*(a - 2)^2/3 - sqrt(4)")
    poly = parse_expr("x^2 + 2*y")
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            eval_expr(node, QQ, {"a": QQ.scalar(5)})
            compile_expr(node, QQ)({"a": QQ.scalar(5)})
            expr_to_poly(poly, F3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parsing_and_walking_leave_no_reference_cycles():
    """Parsing expressions and walking identity trees leave no reference
    cycle either (no recursive closure reaches itself)."""
    ident = parse_identity("2[u,v]*w + [u,v,w] = [u*v,w]")
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            parse_expr("(a + 1)*(a - 2)^2/3 - sqrt(4)")
            word_terms(ident.lhs)
            variables(ident.rhs)
            expansion_columns(ident)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _compiled_outcome(node, field, env):
    """The outcome of `node` at `env` by the compiled closures."""
    return outcome(lambda: compile_expr(node, field)(env))


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
@pytest.mark.parametrize("text", [
    "sqrt(a)/(b - b)",      # the denominator is evaluated before the numerator
    "1/b + sqrt(a)",        # operands left to right
    "sqrt(a) + 1/b",
    "(a + 1)*(a - 2)^2/3 - sqrt(4) + a b^3",
    "-(a/b)^0 - sqrt(a^2 b^2)",
    "q + a",                # an unbound variable
])
def test_compiled_expressions_match_the_walker(field, text):
    """The compiled closures give the walker's value, or its error with the
    same message, refusing in the same order."""
    node = parse_expr(text)
    for a, b in itertools.product(range(-2, 3), repeat=2):
        env = {"a": field.scalar(a), "b": field.scalar(b)}
        want = outcome(lambda: oracle.eval_expr(node, field, env))
        assert _compiled_outcome(node, field, env) == want, (text, a, b)


@pytest.mark.parametrize("text,refused", [
    ("a + 1", True), ("a - a", True), ("a * 2", True), ("a / 3", True),
    ("a^2", True), ("-a", False), ("a^1", False), ("a", False)])
def test_compiled_expressions_keep_the_bit_bound(text, refused):
    """Over Q a value of MAX_BITS bits passes bare, negated or to the first
    power, and any other operation on it is refused, by the compiled
    closures as by the walker; over F_p residues never grow."""
    big = 2 ** (MAX_BITS - 1)
    node = parse_expr(text)
    env = {"a": QQ.scalar(big)}
    want = outcome(lambda: oracle.eval_expr(node, QQ, env))
    assert _compiled_outcome(node, QQ, env) == want
    assert (want == (NumberTooLong, f"a value longer than {MAX_BITS} bits would be computed")) \
        == refused
    env = {"a": F5.scalar(big)}
    want = outcome(lambda: oracle.eval_expr(node, F5, env))
    assert want[0] is Scalar and _compiled_outcome(node, F5, env) == want


def _expr_texts(depth):
    """Texts of the expression language in the names a and b and the integers
    0-5, with + - * /, unary minus, ^0 to ^3 and sqrt, at most `depth`
    operations deep."""
    leaf = st.sampled_from(["a", "b", "0", "1", "2", "3", "4", "5"])
    if depth == 0:
        return leaf
    sub = _expr_texts(depth - 1)
    return st.one_of(
        leaf,
        *(st.tuples(sub, sub).map(("(%s " + op + " %s)").__mod__) for op in "+-*/"),
        sub.map("-(%s)".__mod__),
        st.tuples(sub, st.integers(0, 3)).map("(%s)^%d".__mod__),
        sub.map("sqrt(%s)".__mod__),
    )


def _binding(field, draw):
    """A random Scalar of `field`: a small rational over Q, a residue over F_p."""
    num = draw(st.integers(-5, 5))
    if field.kind == "Q":
        return field.scalar(Fraction(num, draw(st.integers(1, 5))))
    return field.scalar(num)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, F2, F3, F5]), _expr_texts(4), st.data())
def test_compiled_random_texts_match_the_walker(field, text, data):
    """Random texts give the walker's outcome by the compiled closures, the
    same value and type or the same error and message, with a and b bound to
    Scalars and with b bound to a polynomial."""
    node = parse_expr(text)
    a, b, c = (_binding(field, data.draw) for _ in range(3))
    x = MultiPoly.var(field, "b")
    poly = data.draw(st.sampled_from([x, x + c, x * x - c, MultiPoly.const(field, c),
                                      MultiPoly.zero(field)]))
    for env in ({"a": a, "b": b}, {"a": a, "b": poly}):
        want = outcome(lambda: oracle.eval_expr(node, field, env))
        assert _compiled_outcome(node, field, env) == want, (text, env)
