import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordinate_route import basis_vec, combine, eval_node, symbolic_vec, vec_is_zero

from algid.algebra_core import (
    Msc,
    Vec,
    change_basis,
    conjugates_to,
    det2,
    mat_kron,
    mat_mul,
)
from algid.errors import DimensionMismatch, FieldMismatch, InexactScalar
from algid.exactnum import F3, F5, QQ, Field
from algid.identity_lang import parse_identity
from algid.multipoly import MultiPoly, parse_poly


def P(text, field=QQ):
    return parse_poly(text, field)


def vec(e1_coeff, e2_coeff, field=QQ):
    return Vec(field, [P(e1_coeff, field), P(e2_coeff, field)])


U = symbolic_vec(QQ, "x")
V = symbolic_vec(QQ, "y")
W = symbolic_vec(QQ, "z")


def at(A, text):
    """An identity-language expression at u, v, w = U, V, W."""
    return eval_node(A, parse_identity(text).lhs, {"u": U, "v": V, "w": W})


def lift_msc(A):
    """The same algebra with every entry a polynomial."""
    return Msc(A.field, [[MultiPoly.coerce(A.field, x) for x in row] for row in A.rows])


def lift_vec(u):
    """The same vector with every entry a polynomial."""
    return Vec(u.field, [MultiPoly.coerce(u.field, x) for x in u.entries])


# A handful of concrete algebras used throughout (structure constants rows
# are (e1e1, e1e2, e2e1, e2e2) coordinates on e1 then on e2).
NULL_ON_E2 = Msc.from_scalars(QQ, [[0, 0, 0, 0], [1, 0, 0, 0]])  # e1^2 = e2 only
A9 = Msc.from_scalars(QQ, [["1/3", 0, 0, 0], [1, "2/3", "-1/3", 0]])
A10 = Msc.from_scalars(QQ, [[0, 1, 1, 0], [0, 0, 0, -1]])
A11 = Msc.from_scalars(QQ, [[0, 1, 1, 0], [1, 0, 0, -1]])


def test_basis_products_read_off_columns():
    A = Msc.from_scalars(QQ, [[1, 2, 3, 4], [5, 6, 7, 8]])
    e1, e2 = basis_vec(QQ, 1), basis_vec(QQ, 2)
    assert A.product(e1, e1) == Vec(QQ, [QQ.scalar(1), QQ.scalar(5)])
    assert A.product(e1, e2) == Vec(QQ, [QQ.scalar(2), QQ.scalar(6)])
    assert A.product(e2, e1) == Vec(QQ, [QQ.scalar(3), QQ.scalar(7)])
    assert A.product(e2, e2) == Vec(QQ, [QQ.scalar(4), QQ.scalar(8)])


def test_generic_commutator_display():
    # [u, v] = (x1 y2 - x2 y1)((a2 - a3) e1 + (b2 - b3) e2)
    G = Msc.generic(QQ)
    c = at(G, "[u,v]")
    assert c.entries[0] == P("(a2 - a3)(x1 y2 - x2 y1)")
    assert c.entries[1] == P("(b2 - b3)(x1 y2 - x2 y1)")


def test_concrete_product_displays():
    uv = A9.product(U, V)
    assert uv.entries[0] == P("1/3 x1 y1")
    assert uv.entries[1] == P("x1 y1 + 2/3 x1 y2 - 1/3 x2 y1")

    uv = A10.product(U, V)
    assert uv.entries[0] == P("x1 y2 + x2 y1")
    assert uv.entries[1] == P("-x2 y2")

    uv = A11.product(U, V)
    assert uv.entries[0] == P("x1 y2 + x2 y1")
    assert uv.entries[1] == P("x1 y1 - x2 y2")


def test_left_and_right_multiplication_by_commutator():
    c = at(A9, "[u,v]")
    left = A9.product(c, W)
    right = A9.product(W, c)
    assert left == vec("0", "-1/3 z1 (x1 y2 - x2 y1)")
    assert right == vec("0", "2/3 z1 (x1 y2 - x2 y1)")
    # hence 2 [u,v] w + w [u,v] = 0 in this algebra
    assert vec_is_zero(combine(QQ, [(2, left), (1, right)]))


def test_associator_displays():
    a = at(A10, "[u,v,w]")
    assert a == vec("2 y2 (x1 z2 - x2 z1)", "0")

    a = at(A11, "[u,v,w]")
    assert a.entries[0] == P("2 (x1 z2 - x2 z1) y2")
    assert a.entries[1] == P("-2 (x1 z2 - x2 z1) y1")
    # skew in the outer arguments: [u,v,w] = -[w,v,u]
    assert vec_is_zero(at(A11, "[u,v,w] + [w,v,u]"))


def test_two_step_products_vanish():
    prod = NULL_ON_E2.product(U, V)
    assert vec_is_zero(NULL_ON_E2.product(prod, W))
    assert vec_is_zero(NULL_ON_E2.product(W, prod))


def test_bilinearity_of_product():
    G = Msc.generic(QQ)
    s = MultiPoly.var(QQ, "s1")
    su_plus_v = combine(QQ, [(s, U), (1, V)])
    lhs = G.product(su_plus_v, W)
    rhs = combine(QQ, [(s, G.product(U, W)), (1, G.product(V, W))])
    assert lhs == rhs
    lhs = G.product(W, su_plus_v)
    rhs = combine(QQ, [(s, G.product(W, U)), (1, G.product(W, V))])
    assert lhs == rhs


def test_opposite_is_involution_and_swaps_products():
    G = Msc.generic(QQ)
    assert G.opposite().opposite() == G
    assert G.opposite().product(U, V) == G.product(V, U)


def test_commutator_antisymmetry_generic():
    G = Msc.generic(QQ)
    assert vec_is_zero(at(G, "[u,v] + [v,u]"))


def test_change_basis_identity_and_group_action():
    A = Msc.from_scalars(F5, [[1, 2, 0, 3], [4, 0, 1, 2]])
    e = [[F5.one(), F5.zero()], [F5.zero(), F5.one()]]
    assert change_basis(A, e) == A
    g = [[F5.scalar(1), F5.scalar(2)], [F5.scalar(3), F5.scalar(2)]]
    h = [[F5.scalar(2), F5.scalar(0)], [F5.scalar(1), F5.scalar(1)]]
    hg = mat_mul(h, g)
    assert change_basis(change_basis(A, g), h) == change_basis(A, hg)


def test_change_basis_transports_multiplication():
    A = Msc.from_scalars(QQ, [[1, 0, 2, 0], [0, 1, 1, 3]])
    g = [[QQ.scalar(2), QQ.scalar(1)], [QQ.scalar(1), QQ.scalar(1)]]
    B = change_basis(A, g)
    # f(u v) = f(u) f(v) where f has matrix g on coordinates
    for ux, vx in [((1, 0), (0, 1)), ((1, 2), (3, 1)), ((2, 1), (1, 1))]:
        u = Vec(QQ, [QQ.scalar(ux[0]), QQ.scalar(ux[1])])
        v = Vec(QQ, [QQ.scalar(vx[0]), QQ.scalar(vx[1])])
        fu = Vec(QQ, [g[0][0] * u.entries[0] + g[0][1] * u.entries[1], g[1][0] * u.entries[0] + g[1][1] * u.entries[1]])
        fv = Vec(QQ, [g[0][0] * v.entries[0] + g[0][1] * v.entries[1], g[1][0] * v.entries[0] + g[1][1] * v.entries[1]])
        lhs = A.product(u, v)
        flhs = Vec(QQ, [g[0][0] * lhs.entries[0] + g[0][1] * lhs.entries[1], g[1][0] * lhs.entries[0] + g[1][1] * lhs.entries[1]])
        assert flhs == B.product(fu, fv)


def test_conjugates_to_matches_change_basis():
    A = Msc.from_scalars(QQ, [[1, 0, 2, 0], [0, 1, 1, 3]])
    g = [[QQ.scalar(2), QQ.scalar(1)], [QQ.scalar(1), QQ.scalar(1)]]
    B = change_basis(A, g)
    assert conjugates_to(A, B, g)
    assert not conjugates_to(A, A.opposite(), g) or A == A.opposite()
    singular = [[QQ.scalar(1), QQ.scalar(1)], [QQ.scalar(1), QQ.scalar(1)]]
    assert not conjugates_to(A, B, singular)


def test_kron_mixed_product_rule():
    f = Field("Fp", 7)
    A = [[f.scalar(1), f.scalar(2)], [f.scalar(3), f.scalar(4)]]
    B = [[f.scalar(0), f.scalar(1)], [f.scalar(5), f.scalar(2)]]
    C = [[f.scalar(2), f.scalar(2)], [f.scalar(1), f.scalar(6)]]
    D = [[f.scalar(3), f.scalar(0)], [f.scalar(4), f.scalar(4)]]
    assert mat_mul(mat_kron(A, B), mat_kron(C, D)) == mat_kron(mat_mul(A, C), mat_mul(B, D))
    assert det2(A) == f.scalar(-2)


def test_msc_json_roundtrip():
    A = Msc.from_scalars(QQ, [["1/3", 0, 0, 0], [1, "2/3", "-1/3", 0]])
    data = A.to_json()
    assert data["dim"] == 2 and data["field"] == {"kind": "Q"}
    assert data["entries"][0][0] == "1/3"
    assert Msc.from_json(data) == A

    B = Msc.from_scalars(F3, [[1, 0, 0, 0], [1, 1, 2, 0]])
    assert Msc.from_json(B.to_json()) == B
    with pytest.raises(DimensionMismatch):
        Msc.from_json({"dim": 3, "field": {"kind": "Q"}, "entries": []})


def test_generic_msc_serialization_rejected():
    with pytest.raises(ValueError):
        Msc.generic(QQ).to_json()


def test_vec_shape_checks():
    with pytest.raises(DimensionMismatch):
        Vec(QQ, [QQ.scalar(1)])
    with pytest.raises(DimensionMismatch):
        Msc(QQ, [[QQ.scalar(0)] * 4])


def test_vec_holds_only_entries_of_its_field():
    """As for `Msc`: a float is InexactScalar at construction, not a
    TypeError from inside a product, and an F5 entry of an F3 vector is
    FieldMismatch."""
    with pytest.raises(InexactScalar):
        Vec(QQ, [0.5, 1])
    with pytest.raises(InexactScalar):
        Vec(QQ, [QQ.one(), True])
    with pytest.raises(FieldMismatch):
        Vec(F3, [F3.one(), F5.one()])
    with pytest.raises(FieldMismatch):
        Vec(F3, [MultiPoly.var(F5, "x1"), F3.one()])
    assert Vec(F3, [F3.one(), MultiPoly.var(F3, "x1")]).entries[0] == F3.one()


def test_msc_holds_only_entries_of_its_field():
    """An F5 entry in an F3 algebra would be decided as its value mod 3,
    and a float would reach the checks; both are refused at construction."""
    rows = [[F3.zero()] * 4, [F3.zero()] * 4]
    rows[1][1] = F5.scalar(4)
    with pytest.raises(FieldMismatch):
        Msc(F3, rows)
    rows[1][1] = MultiPoly.var(F5, "a1")
    with pytest.raises(FieldMismatch):
        Msc(F3, rows)
    for bad in (0.5, 1, True):
        with pytest.raises(InexactScalar):
            Msc(QQ, [[bad, 0, 0, 0], [0, 0, 0, 0]])


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8),
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
)
def test_product_agrees_with_tensor_matrix(entries, coords):
    A = Msc.from_scalars(F5, [entries[:4], entries[4:]])
    u = Vec(F5, [F5.scalar(coords[0]), F5.scalar(coords[1])])
    v = Vec(F5, [F5.scalar(coords[2]), F5.scalar(coords[3])])
    tensor = [[u.entries[0] * v.entries[0]], [u.entries[0] * v.entries[1]],
              [u.entries[1] * v.entries[0]], [u.entries[1] * v.entries[1]]]
    via_matrix = mat_mul([list(r) for r in A.rows], tensor)
    w = A.product(u, v)
    assert [w.entries[0]] == via_matrix[0] and [w.entries[1]] == via_matrix[1]


# -- mixed Scalar/polynomial entries, against the lifted form as the oracle ---


@settings(max_examples=40)
@given(
    st.sampled_from([QQ, F3, F5]),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8),
)
def test_concrete_algebra_equals_and_hashes_as_its_lift(field, entries):
    A = Msc.from_scalars(field, [entries[:4], entries[4:]])
    L = lift_msc(A)
    assert A == L and L == A and hash(A) == hash(L)
    assert len({A, L}) == 1
    assert all(isinstance(x, MultiPoly) for x in L.entries_flat())
    u = basis_vec(field, 1)
    assert u == lift_vec(u) and hash(u) == hash(lift_vec(u))


@settings(max_examples=40)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=8, max_size=8),
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
)
def test_mixed_products_match_the_lifted_algebra(entries, g_entries):
    A = Msc.from_scalars(F5, [entries[:4], entries[4:]])
    u, v = symbolic_vec(F5, "x"), basis_vec(F5, 2)
    for x, y in ((u, v), (v, u), (u, u), (v, v)):
        assert A.product(x, y) == lift_msc(A).product(lift_vec(x), lift_vec(y))
        assert combine(F5, [(3, x)]) == combine(F5, [(MultiPoly.const(F5, 3), lift_vec(x))])
    g = [[F5.scalar(g_entries[0]), F5.scalar(g_entries[1])],
         [F5.scalar(g_entries[2]), F5.scalar(g_entries[3])]]
    B = A.opposite()
    lifted_g = [[MultiPoly.const(F5, x) for x in row] for row in g]
    assert conjugates_to(A, B, g) == conjugates_to(lift_msc(A), lift_msc(B), lifted_g)
    assert conjugates_to(A, B, g) == conjugates_to(A, lift_msc(B), g)
