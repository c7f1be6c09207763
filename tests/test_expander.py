import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import span_oracle
from coordinate_route import (
    basis_vec,
    combine,
    coordinate_env,
    eval_node,
    substitute,
    vec_is_zero,
)

from algid.algebra_core import Msc, Vec
from algid.canon_catalog import (
    CHAR2_IDENTITY_PAIRS,
    CHAR5_I19_ROWS,
    CLAIMED_SOLUTIONS,
    OPPOSITE_TABLES,
    REGIME_CHAR0,
    REGIME_CHAR2,
    REGIME_CHAR3,
    SECTION3_ROWS,
    SELF_OPPOSITE,
    family,
)
from algid.errors import (
    AlgidError,
    ExpansionTooLarge,
    FieldMismatch,
    NumberTooLong,
    TooManyVariables,
)
from algid.exactnum import F2, F3, F5, QQ
from algid.expander import (
    MAX_COLUMNS,
    PolySystem,
    check_formal,
    expand,
    expansion_columns,
    span_contains,
    span_equal,
    word_tensor_matrix,
)
from algid.identity_lang import (
    NUMBERED_IDENTITIES,
    Assoc,
    Comm,
    Identity,
    Prod,
    Sum,
    Var,
    get_identity,
    parse_identity,
)
from algid.multipoly import MAX_BITS, MultiPoly, mon_sort_key, parse_poly

COMMUTATIVE = Msc.from_scalars(QQ, [[0, 1, 1, 0], [0, 0, 0, -1]])


def P(text, field=QQ):
    return parse_poly(text, field)


def test_expand_commutativity_generic():
    sys = expand(get_identity("I1"))
    assert [p.render() for p in sys.polys] == ["a2 - a3", "-a2 + a3", "b2 - b3", "-b2 + b3"]
    assert len(sys.equations) == 4
    assert not sys.is_zero()


def test_expand_on_concrete_algebras():
    assert expand(get_identity("I1"), COMMUTATIVE).is_zero()
    assert not expand(get_identity("I3"), COMMUTATIVE).is_zero()
    skew = Msc.from_scalars(QQ, [[0, 1, -1, 0], [0, 0, 0, 0]])
    assert expand(get_identity("I2"), skew).is_zero()


def test_two_dimensional_consequences_hold_generically():
    # in dimension 2 every commutator is a multiple of one fixed vector,
    # which forces these expressions to vanish identically
    for name in ("comm-of-comms", "jacobi-left", "jacobi-right"):
        assert expand(get_identity(name)).is_zero(), name


def test_weighted_mix_on_one_algebra():
    A9 = Msc.from_scalars(QQ, [["1/3", 0, 0, 0], [1, "2/3", "-1/3", 0]])
    assert expand(get_identity("weighted-comm-mix"), A9).is_zero()
    assert not expand(get_identity("weighted-comm-mix")).is_zero()


def test_too_many_variables():
    ident = parse_identity("([u,v,w]*[u',v',w'])*[p,q]")
    with pytest.raises(TooManyVariables):
        expand(ident)


def test_coordinate_env_prefix_order():
    env = coordinate_env(QQ, ["u", "v", "u'", "v'"])
    assert env["u"].entries[0] == P("x1")
    assert env["v"].entries[0] == P("y1")
    assert env["u'"].entries[0] == P("z1")
    assert env["v'"].entries[0] == P("s1")


def test_eval_node_weights():
    A = Msc.generic(QQ)
    env = coordinate_env(QQ, ["u", "v", "w"])
    ident = parse_identity("2[u,v]*w + w*[u,v]")
    u, v, w = env["u"], env["v"], env["w"]
    comm = combine(QQ, [(1, A.product(u, v)), (-1, A.product(v, u))])
    direct = combine(QQ, [(2, A.product(comm, w)), (1, A.product(w, comm))])
    assert eval_node(A, ident.lhs, env) == direct
    with pytest.raises(AlgidError):
        eval_node(A, parse_identity("q*u").lhs, {"u": env["u"]})


def test_span_equal_same_constraints():
    sys = expand(get_identity("I1"))
    assert span_equal(sys, [P("a2 - a3"), P("b2 - b3")])
    assert span_equal([P("a2 - a3"), P("b2 - b3")], sys)
    report = span_equal(sys, [P("a2 - a3")])
    assert not report.equal
    assert report.missing_side == "lhs"
    assert report.missing_poly is not None
    # scaling and recombination do not change the span
    assert span_equal(sys, [P("2 a2 - 2 a3 + b2 - b3"), P("3 b2 - 3 b3")])


def test_span_contains_direction():
    big = [P("a1"), P("a2")]
    small = [P("a1 + a2")]
    assert span_contains(big, small, QQ) is None
    assert span_contains(small, big, QQ) == 0


def test_span_equal_char2_coincidence():
    s1 = expand(get_identity("I1"), field=F2)
    s2 = expand(get_identity("I2"), field=F2)
    assert span_equal(s1, s2)
    assert not span_equal(expand(get_identity("I1")), expand(get_identity("I2")))


def test_empty_systems_are_equal():
    assert span_equal([], [], QQ)
    assert span_equal(expand(get_identity("jacobi-left")), [])


# -- spans against dense Gaussian elimination -------------------------------------

# Monomials of degree at most 2 in a1, a2, b1.
_SPAN_MONOMIALS = [(), (("a1", 1),), (("a2", 1),), (("b1", 1),),
                   (("a1", 2),), (("a1", 1), ("a2", 1)), (("a1", 1), ("b1", 1)),
                   (("a2", 2),), (("a2", 1), ("b1", 1)), (("b1", 2),)]


def _dense_rank(polys, field):
    """Rank of the coefficient matrix of `polys` (one row per polynomial, one
    column per monomial), by dense Gaussian elimination on the values."""
    p = field.p if field.kind == "Fp" else None
    monos = sorted({m for q in polys for m in q.terms})
    rows = [[q.terms.get(m, 0) for m in monos] for q in polys]
    rank = 0
    for col in range(len(monos)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        scale = pow(top[col], -1, p) if p else 1 / Fraction(top[col])
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * scale
            rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
            if p:
                rows[r] = [x % p for x in rows[r]]
        rank += 1
    return rank


def _dense_first_outside(container, contained, field):
    rank = _dense_rank(container, field)
    return next((i for i, q in enumerate(contained)
                 if _dense_rank(list(container) + [q], field) > rank), None)


@st.composite
def _poly_lists(draw, field):
    """Two lists of small polynomials in a1, a2, b1; the second mixes random
    polynomials with combinations of the first, so both outcomes occur."""
    def random_poly():
        terms = draw(st.dictionaries(st.sampled_from(_SPAN_MONOMIALS),
                                     st.integers(-2, 2), max_size=4))
        return MultiPoly(field, {m: field.scalar(c).value for m, c in terms.items()})

    first = [random_poly() for _ in range(draw(st.integers(0, 5)))]
    second = []
    for _ in range(draw(st.integers(0, 5))):
        if first and draw(st.booleans()):
            q = MultiPoly.zero(field)
            for f in first:
                q = q + f.scale(draw(st.integers(-2, 2)))
            second.append(q)
        else:
            second.append(random_poly())
    return first, second


@pytest.mark.parametrize("field", [QQ, F2, F3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spans_match_dense_elimination(field, data):
    lhs, rhs = data.draw(_poly_lists(field))
    for container, contained in ((lhs, rhs), (rhs, lhs)):
        assert span_contains(container, contained, field) == \
            _dense_first_outside(container, contained, field)
    report = span_equal(lhs, rhs, field)
    i = _dense_first_outside(lhs, rhs, field)
    j = _dense_first_outside(rhs, lhs, field)
    if i is not None:
        expected = ("rhs", i, rhs[i])
    elif j is not None:
        expected = ("lhs", j, lhs[j])
    else:
        expected = (None, None, None)
    assert report.equal == (expected[0] is None)
    assert (report.missing_side, report.missing_index, report.missing_poly) == expected


def test_spans_match_the_multipoly_route_on_the_coincidence_pairs():
    for a, b in CHAR2_IDENTITY_PAIRS:
        lhs = expand(get_identity(a), field=F2)
        rhs = expand(get_identity(b), field=F2)
        assert span_equal(lhs, rhs, F2) == span_oracle.span_equal(lhs, rhs, F2), (a, b)


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_spans_match_the_multipoly_route_on_generic_systems(field):
    """Every ordered pair of the I1..I30 generic systems: the same verdict,
    side, index and (the caller's own) missing polynomial."""
    systems = [expand(get_identity(f"I{k}"), field=field) for k in range(1, 31)]
    unequal = 0
    for lhs in systems:
        for rhs in systems:
            report = span_equal(lhs, rhs, field)
            assert report == span_oracle.span_equal(lhs, rhs, field)
            if not report:
                assert report.missing_poly is list(lhs if report.missing_side == "lhs" else rhs)[
                    report.missing_index]
                unequal += 1
    assert 0 < unequal < len(systems) ** 2


def test_span_polynomials_must_lie_over_the_field():
    over_f3 = [P("a1 + 2 b1", F3)]
    with pytest.raises(FieldMismatch):
        span_contains(over_f3, over_f3, QQ)
    with pytest.raises(FieldMismatch):
        span_contains([P("a1")], over_f3, QQ)
    with pytest.raises(FieldMismatch):
        span_equal(over_f3, over_f3, QQ)
    assert span_contains(over_f3, over_f3, F3) is None
    assert span_equal(over_f3, over_f3)
    # without a field, all lie over the first polynomial's, even when no
    # reduction step would combine them
    with pytest.raises(FieldMismatch):
        span_equal([P("b2")], over_f3)


def test_readme_api_values():
    system = expand(get_identity("I19"))
    assert len(system) == 16
    assert system.render_lines()[0] == \
        "-a1 a2 b1 + a1 a3 b1 - a2 b1 b2 + a4 b1^2 = 0"


def test_polysystem_dedupe_and_json():
    sys = expand(get_identity("I1"))
    data = sys.to_json()
    assert data["identity"] == "I1"
    assert data["count"] == 4
    assert data["polys"][0]["text"] == "a2 - a3"
    assert data["field"] == {"kind": "Q"}


def test_word_tensor_matrix_base_cases():
    A = Msc.from_scalars(F5, [[1, 2, 0, 3], [4, 0, 1, 2]])
    assert word_tensor_matrix(A, Var("u")) == [
        [F5.one(), F5.zero()],
        [F5.zero(), F5.one()],
    ]
    assert word_tensor_matrix(A, Prod(Var("u"), Var("v"))) == [list(r) for r in A.rows]


@pytest.mark.parametrize("A", [
    Msc.from_scalars(QQ, [["1/3", 0, 0, 0], [1, "2/3", "-1/3", 0]]),
    family("A5").instantiate(QQ, (P("a1"),)),
    Msc(F3, [[P("a1 + b1", F3), F3.scalar(2), F3.zero(), P("a1^2", F3)],
             [F3.one(), P("2 b1", F3), F3.zero(), F3.one()]]),
], ids=["concrete-Q", "symbolic-A5", "mixed-F3"])
def test_word_tensor_matrix_columns_are_basis_values(A):
    """Column c of M(w) is w at the basis vectors that c's bits pick, the
    first leaf's bit most significant."""
    word = Prod(Prod(Var("u"), Var("v")), Var("w"))
    M = word_tensor_matrix(A, word)
    for c in range(8):
        env = {name: basis_vec(A.field, 1 + (c >> (2 - k) & 1))
               for k, name in enumerate(("u", "v", "w"))}
        assert Vec(A.field, [M[0][c], M[1][c]]) == eval_node(A, word, env), c


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=8, max_size=8))
def test_formal_zero_implies_pointwise_zero(entries):
    A = Msc.from_scalars(F5, [entries[:4], entries[4:]])
    ident = get_identity("I18")
    if not expand(ident, A).is_zero():
        return
    for pts in [((1, 0), (0, 1), (1, 1)), ((2, 3), (1, 4), (0, 2))]:
        env = {
            name: Vec(F5, [F5.scalar(a), F5.scalar(b)])
            for name, (a, b) in zip(["u", "v", "w"], pts)
        }
        val = combine(F5, [(1, eval_node(A, ident.lhs, env)), (-1, eval_node(A, ident.rhs, env))])
        assert vec_is_zero(val)


def _f3_sample_algebras():
    """Every 729th F3 algebra in scan order, plus each char-3 family with
    every parameter set to 2."""
    from algid.canon_catalog import FAMILY_ORDER, REGIME_CHAR3
    from algid.exactnum import F3
    from algid.expander import msc_from_scan_index

    out = [msc_from_scan_index(3, k) for k in range(0, 3 ** 8, 729)]
    for fam in FAMILY_ORDER[REGIME_CHAR3]:
        out.append(fam.instantiate(F3, tuple(F3.scalar(2) for _ in fam.params)))
    return out


def test_expand_on_scalar_entries_matches_the_lifted_algebra():
    """Scalar structure constants meeting polynomial coordinates give the
    same systems as the all-polynomial (lifted) algebra."""
    from algid.identity_lang import NUMBERED_IDENTITIES

    idents = [get_identity(name) for name in NUMBERED_IDENTITIES]
    for A in _f3_sample_algebras():
        lifted = Msc(A.field, [[MultiPoly.coerce(A.field, x) for x in row] for row in A.rows])
        for ident in idents:
            assert expand(ident, A).equations == expand(ident, lifted).equations


def test_identity_without_variables_expands_to_the_zero_system():
    ident = parse_identity("0 = 0")
    assert expand(ident).is_zero()
    assert expand(ident, COMMUTATIVE).is_zero()


# -- the tensor kernel against the coordinate route --------------------------------

DEGREE_6 = "(((u*v)*w)*u)*((v*w)*u) = 0"


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
def test_generic_system_matches_the_coordinate_route(field):
    """`expand` on the generic algebra (the tensor kernel), given by field or
    as Msc.generic, gives, equation for equation, what substituting
    coordinates into Msc.generic gives."""
    generic = Msc.generic(field)
    idents = [get_identity(name) for name in NUMBERED_IDENTITIES]
    idents += [parse_identity(DEGREE_6), parse_identity("0 = 0")]
    for ident in idents:
        expected = substitute(ident, generic).equations
        assert expand(ident, field=field).equations == expected, ident.name
        assert expand(ident, generic).equations == expected, ident.name
    with pytest.raises(FieldMismatch):
        expand(idents[0], generic, field=F2 if field == QQ else QQ)


_LETTERS = ("u", "v", "w")


@st.composite
def _expressions(draw, leaves, depth=3):
    """An identity expression whose expanded words have at most `leaves`
    leaves: variables, products, commutators, associators and integer-weighted
    sums."""
    kinds = ["var"] if depth == 0 or leaves == 1 else ["var", "prod", "comm", "sum"]
    if depth and leaves >= 3:
        kinds.append("assoc")
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return Var(draw(st.sampled_from(_LETTERS)))
    if kind == "sum":
        weights = st.integers(min_value=-3, max_value=3).filter(bool)
        return Sum(tuple(draw(st.lists(
            st.tuples(weights, _expressions(leaves, depth - 1)), min_size=1, max_size=2))))
    if kind == "assoc":
        a = draw(st.integers(min_value=1, max_value=leaves - 2))
        b = draw(st.integers(min_value=1, max_value=leaves - a - 1))
        return Assoc(draw(_expressions(a, depth - 1)), draw(_expressions(b, depth - 1)),
                     draw(_expressions(leaves - a - b, depth - 1)))
    left = draw(st.integers(min_value=1, max_value=leaves - 1))
    node = Comm if kind == "comm" else Prod
    return node(draw(_expressions(left, depth - 1)),
                draw(_expressions(leaves - left, depth - 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F3, F5]),
       st.lists(st.tuples(st.integers(min_value=-4, max_value=4).filter(bool),
                          _expressions(5)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(min_value=-4, max_value=4).filter(bool),
                          _expressions(5)), max_size=2))
def test_random_identities_match_the_coordinate_route(field, lhs, rhs):
    ident = Identity("random", Sum(tuple(lhs)), Sum(tuple(rhs)))
    assert expand(ident, field=field).equations == \
        substitute(ident, Msc.generic(field)).equations


# -- the expansion budget ------------------------------------------------------------


def _nested_commutator(depth):
    text = "u"
    for _ in range(depth):
        text = "[%s,v]" % text
    return parse_identity(text + " = 0")


def test_expansion_budget_bounds_both_routes():
    deep = _nested_commutator(30)
    assert expansion_columns(deep) == MAX_COLUMNS + 1
    for call in (lambda: expand(deep), lambda: expand(deep, COMMUTATIVE),
                 lambda: expand(deep, Msc.generic(QQ)),
                 lambda: substitute(deep, Msc.generic(QQ))):
        with pytest.raises(ExpansionTooLarge, match="expansion budget"):
            call()
    # commutators double, sums add, products multiply: 2 * 2^2 + 2 * 2^3
    assert expansion_columns(parse_identity("[u,v] = [u,v,w]")) == 24
    assert expansion_columns(parse_identity(
        "(((u*v)*(w*t))*((u*v)*(w*t)))*u = 0")) == 512
    assert max(expansion_columns(get_identity(name))
               for name in NUMBERED_IDENTITIES) <= MAX_COLUMNS // 8


def test_square_towers_are_counted_without_expanding_them():
    text = "u"
    for _ in range(40):
        text = "(%s)^2" % text
    tower = parse_identity(text + " = 0")
    assert expansion_columns(tower) == MAX_COLUMNS + 1
    with pytest.raises(ExpansionTooLarge):
        expand(tower, field=F3)


def test_plan_bit_bound_refuses_long_entries_before_the_plan_runs():
    """A degree-10 plan multiplies 9 entries.  Entries of 29001 bits
    (9 x 29001 <= MAX_BITS) still answer: the witness is the family's
    symbolic first equation at that point.  Entries of 29201 bits are
    refused by both routes before the plan runs."""
    ident = parse_identity("(((u*v)*(u*v))*((u*v)*(u*v)))*(u*v) = 0")
    a4 = family("A4")
    x = 2 ** 29000
    assert 9 * x.bit_length() <= MAX_BITS < 9 * (x << 200).bit_length()
    res = check_formal(a4.instantiate(QQ, (QQ.scalar(x), QQ.zero())), ident)
    first = expand(ident, a4.instantiate(QQ, (P("a1"), QQ.zero()))).equations[0]
    assert (res.witness.row, res.witness.monomial) == (first.row, first.monomial)
    value = sum(c * x ** dict(mon)["a1"] if mon else c
                for mon, c in first.poly.terms.items())
    assert value and res.witness.poly == MultiPoly.const(QQ, value)
    long = a4.instantiate(QQ, (QQ.scalar(x << 200), QQ.zero()))
    start = time.perf_counter()
    for call in (lambda: check_formal(long, ident), lambda: expand(ident, long)):
        with pytest.raises(NumberTooLong, match="bits would be computed"):
            call()
    assert time.perf_counter() - start < 1


def test_word_tensor_matrix_checks_the_budget():
    """A 12-leaf word (4096 columns) is refused before the kernel runs;
    without the check it takes about a minute."""
    word = Var("u")
    for _ in range(11):
        word = Prod(word, Var("u"))
    start = time.perf_counter()
    with pytest.raises(ExpansionTooLarge, match="expansion budget"):
        word_tensor_matrix(Msc.generic(QQ), word)
    assert time.perf_counter() - start < 0.5


# -- one route: the plan on any algebra against the coordinate route ---------------

_REGIME_FIELDS = {REGIME_CHAR0: (QQ, F5), REGIME_CHAR2: (F2,), REGIME_CHAR3: (F3,)}
_NUMBERED = [get_identity(name) for name in NUMBERED_IDENTITIES]


def _has_parameters(A):
    return any(isinstance(x, MultiPoly) and x.variables() for x in A.entries_flat())


def _table_algebras(field):
    """The algebras with free parameters of the claimed-solution, char-5 I19,
    self-opposite and opposite tables (sources and images) of the field's
    regime, and over Q those of the Section 3 rows, each once."""
    regime = next(r for r, fields in _REGIME_FIELDS.items() if field in fields)
    rows = [row for rows in CLAIMED_SOLUTIONS[regime].values() for row in rows]
    rows += SELF_OPPOSITE[regime]
    if regime == REGIME_CHAR0:
        rows += CHAR5_I19_ROWS
    algebras = [row.symbolic_algebra(field) for row in rows]
    for row in OPPOSITE_TABLES[regime]:
        if row.fully_polynomial():
            ins = row.symbolic(field)
            algebras += [ins.source, ins.image]
    if field == QQ:
        algebras += [row.algebra(field) for row in SECTION3_ROWS if row.family]
    return list(dict.fromkeys(A for A in algebras if A is not None and _has_parameters(A)))


@pytest.mark.parametrize("field", [QQ, F5, F2, F3], ids=str)
def test_table_algebras_match_the_coordinate_route(field):
    """`expand` on every symbolic algebra of the tables gives exactly the
    equations and polynomials that substituting coordinates gives."""
    algebras = _table_algebras(field)
    assert len(algebras) >= 10
    for A in algebras:
        for ident in _NUMBERED:
            got, expected = expand(ident, A), substitute(ident, A)
            assert got.equations == expected.equations, (A, ident.name)
            assert got.polys == expected.polys, (A, ident.name)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
def test_expand_gives_equations_in_canonical_order(field):
    """`PolySystem` keeps the order it is given, so `expand` itself must
    give the equations by row, then by `mon_sort_key` of their monomial.
    None stands for the generic algebra asked for by field."""
    for A in [None, Msc.generic(field)] + _table_algebras(field):
        for ident in _NUMBERED:
            got = expand(ident, A, field).equations
            assert got == tuple(sorted(got, key=lambda e: (e.row, mon_sort_key(e.monomial)))), \
                (A, ident.name)


@pytest.mark.parametrize("A", [
    COMMUTATIVE,
    Msc.from_scalars(QQ, [["1/3", 0, 0, 0], [1, "2/3", "-1/3", 0]]),
    Msc.from_scalars(F3, [[1, 2, 0, 1], [0, 2, 1, 0]]),
    Msc(QQ, [[P("a1"), QQ.scalar("1/2"), QQ.zero(), P("2 b1 - 1/3")],
             [QQ.one(), P("a1 b1"), P("-a1/2"), QQ.scalar(-3)]]),
    Msc(F5, [[P("a1", F5), F5.scalar(3), F5.zero(), P("4 a1^2 + b1", F5)],
             [F5.one(), F5.zero(), P("2 b1", F5), F5.scalar(2)]]),
], ids=["concrete-Q", "concrete-Q-denominators", "concrete-F3", "mixed-Q", "mixed-F5"])
def test_edge_algebras_match_the_coordinate_route(A):
    for ident in _NUMBERED + [parse_identity("0 = 0"), parse_identity("u = 0")]:
        got, expected = expand(ident, A), substitute(ident, A)
        assert got.equations == expected.equations, ident.name
        assert got.polys == expected.polys, ident.name


def test_packing_width_follows_the_entries():
    """I23's words have 4 leaves, so an entry a1^30 reaches a1^90 in them:
    past a fixed 6-bit exponent field, which would carry into the next
    variable's."""
    A = Msc(QQ, [[P("a1^30"), P("b1"), QQ.zero(), P("a1")],
                 [QQ.one(), P("a1^30 - b1^2"), P("a1 b1^3"), QQ.zero()]])
    for name in ("I19", "I23"):
        ident = get_identity(name)
        assert expand(ident, A).equations == substitute(ident, A).equations, name
    polys = expand(get_identity("I23"), A).polys
    assert max(e for p in polys for m in p.terms for _, e in m) == 90
