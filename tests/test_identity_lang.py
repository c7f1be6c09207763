import copy
import pickle

import pytest
from coordinate_route import is_multilinear

from algid.errors import IdentitySyntaxError, UnknownIdentity
from algid.identity_lang import (
    IDENTITY_TEXTS,
    MAX_NESTING,
    NUMBERED_IDENTITIES,
    Assoc,
    Comm,
    Identity,
    Prod,
    Sum,
    Var,
    get_identity,
    identity_variables,
    parse_identity,
    render,
    word_terms,
)

u, v, w = Var("u"), Var("v"), Var("w")


def lhs(text):
    return parse_identity(text).lhs


def test_basic_shapes():
    ident = parse_identity("u*v = v*u")
    assert ident.lhs == Sum(((1, Prod(u, v)),))
    assert ident.rhs == Sum(((1, Prod(v, u)),))

    ident = parse_identity("[u,v]*w")
    assert ident.lhs == Sum(((1, Prod(Comm(u, v), w)),))
    assert ident.rhs == Sum(())

    assert lhs("[u,v,w]") == Sum(((1, Assoc(u, v, w)),))


def test_square_sugar():
    assert lhs("u^2*u") == Sum(((1, Prod(Prod(u, u), u)),))
    assert lhs("(u*v)^2") == Sum(((1, Prod(Prod(u, v), Prod(u, v))),))
    with pytest.raises(IdentitySyntaxError):
        parse_identity("u^3")


def test_weights_are_not_products():
    ident = parse_identity("2[u,v]*w + w*[u,v]")
    assert ident.lhs.terms[0] == (2, Prod(Comm(u, v), w))
    assert ident.lhs.terms[1] == (1, Prod(w, Comm(u, v)))
    assert lhs("-2 u*v").terms == ((-2, Prod(u, v)),)
    assert lhs("u*v - v*u").terms == ((1, Prod(u, v)), (-1, Prod(v, u)))


def test_zero_literal():
    ident = parse_identity("(u*v)*w + (v*w)*u + (w*u)*v = 0")
    assert ident.rhs == Sum(())
    assert parse_identity("0").lhs == Sum(())


def test_nonassociative_star_rejected():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("u*v*w")
    parse_identity("(u*v)*w")
    parse_identity("u*(v*w)")


def test_adjacent_factors_rejected():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("u v")
    with pytest.raises(IdentitySyntaxError):
        parse_identity("2 3 u")
    with pytest.raises(IdentitySyntaxError):
        parse_identity("u 2")


def test_bare_integer_rejected():
    with pytest.raises(IdentitySyntaxError):
        parse_identity("u*v = 1")
    with pytest.raises(IdentitySyntaxError):
        parse_identity("u + 0")


def test_syntax_error_positions():
    with pytest.raises(IdentitySyntaxError) as err:
        parse_identity("u*v = v*u]")
    assert err.value.position == 9
    with pytest.raises(IdentitySyntaxError):
        parse_identity("[u,v")
    with pytest.raises(IdentitySyntaxError):
        parse_identity("[u,v,w,u]")


@pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # Arabic-Indic three, superscript two
def test_weights_are_ascii_digits(digit):
    with pytest.raises(IdentitySyntaxError, match="unexpected character") as err:
        parse_identity("u*v = %s*(v*u)" % digit)
    assert err.value.position == 6


def test_primed_names():
    ident = parse_identity("[[u,v],[u',v']]")
    assert identity_variables(ident) == ["u", "v", "u'", "v'"]


def test_sums_inside_products():
    ident = parse_identity("(u*v)*w = u*(v*w + w*v)")
    inner = ident.rhs.terms[0][1]
    assert isinstance(inner, Prod)
    assert inner.right == Sum(((1, Prod(v, w)), (1, Prod(w, v))))


def test_render_roundtrip_builtins():
    for name in IDENTITY_TEXTS:
        ident = get_identity(name)
        again = parse_identity(ident.render(), name)
        assert (again.lhs, again.rhs) == (ident.lhs, ident.rhs), name


def test_render_negative_sum_factor():
    ident = parse_identity("-(u + v)")
    again = parse_identity(ident.render())
    assert again.lhs == ident.lhs


def test_word_terms_commutator():
    terms = word_terms(lhs("[u,v]"))
    assert terms == {Prod(u, v): 1, Prod(v, u): -1}
    terms = word_terms(lhs("[u,v,w]"))
    assert terms == {Prod(Prod(u, v), w): 1, Prod(u, Prod(v, w)): -1}
    # cancellation is performed
    assert word_terms(lhs("u*v - u*v")) == {}


def test_word_terms_distribute():
    terms = word_terms(lhs("u*(v + w)"))
    assert terms == {Prod(u, v): 1, Prod(u, w): 1}


def test_variables_and_degrees():
    ident = get_identity("I19")
    assert identity_variables(ident) == ["u", "v"]


def test_multilinearity():
    assert is_multilinear(get_identity("I1"))
    assert is_multilinear(get_identity("I18"))
    assert is_multilinear(get_identity("I27"))
    assert not is_multilinear(get_identity("I5"))
    assert not is_multilinear(get_identity("I10"))
    assert not is_multilinear(get_identity("I19"))
    # variables must cover every word: u*v + u has non-uniform support
    assert not is_multilinear(parse_identity("u*v + u"))


def test_builtin_catalogue():
    assert len(NUMBERED_IDENTITIES) == 30
    assert all(name in IDENTITY_TEXTS for name in NUMBERED_IDENTITIES)
    ident = get_identity("I23")
    assert identity_variables(ident) == ["u", "v", "w"]
    with pytest.raises(UnknownIdentity):
        get_identity("I31")


def test_identity_render_includes_zero_rhs():
    assert get_identity("jacobi-left").render() == "[u,v]*w + [v,w]*u + [w,u]*v = 0"


def test_nesting_depth_is_bounded():
    def parens(depth):
        return "(" * depth + "u*v" + ")" * depth + " = v*u"

    def commutators(depth):
        return "[" * depth + "u" + ",v]" * depth

    assert lhs(parens(MAX_NESTING)) == Sum(((1, Prod(u, v)),))
    assert len(parse_identity(commutators(MAX_NESTING)).lhs.terms) == 1
    for depth in (MAX_NESTING + 1, 3000):
        for text in (parens(depth), commutators(depth)):
            with pytest.raises(IdentitySyntaxError, match="nested deeper"):
                parse_identity(text)


def test_nodes_hash_by_value_and_survive_copies():
    """Nodes hash once, at construction; equal trees parsed apart are equal
    and hash alike, and copies and pickles rebuild the hash."""
    a, b = parse_identity("[u,v]*w^2 = 0"), parse_identity("[u,v]*w^2 = 0")
    assert a is not b and a == b and hash(a) == hash(b)
    assert parse_identity("[v,u]*w^2 = 0") != a
    assert Prod(Var("u"), Var("v")) != Comm(Var("u"), Var("v"))
    for c in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == a and hash(c) == hash(a)
    tower = Var("u")
    for _ in range(200):
        tower = Prod(tower, tower)  # 2^200 paths, one node per level
    assert hash(Prod(tower, tower)) != hash(tower)
