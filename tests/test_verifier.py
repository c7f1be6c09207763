"""Checks, searches, scans, alternation laws and reports: the verifier and the
kernels its reports call."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from coordinate_route import (
    basis_vec,
    determinant_law_holds,
    eval_node,
    holds_on_basis_tuples,
    is_multilinear,
    substitute,
    worked_row_holds,
)

from algid.algebra_core import GENERIC_NAMES, Msc, Vec, conjugates_to, search_iso
from algid.canon_catalog import (
    FAMILY_ORDER,
    REGIME_CHAR0,
    REGIME_CHAR2,
    SECTION3_ROWS,
    WorkedRow,
    family,
)
from algid.errors import (
    AlgidError,
    ExpansionTooLarge,
    SearchSpaceTooLarge,
    ShapeArityMismatch,
    TooManyVariables,
    UnsupportedPrime,
)
from algid.exactnum import F2, F3, F5, QQ, field_make
from algid.expander import (
    SCAN_PRIMES,
    _scan_dtype,
    alternating_determinant_law,
    alternating_sum,
    alternating_vanishes,
    check_budget,
    check_formal,
    check_functional,
    expand,
    functional_monomial,
    msc_from_scan_index,
    scan_algebras,
    scan_field,
    tensor_plan,
    word_shapes,
)
from algid.identity_lang import (
    NUMBERED_IDENTITIES,
    Identity,
    Sum,
    get_identity,
    parse_identity,
)
from algid.multipoly import MultiPoly, mon_sort_key, parse_poly, render_monomial
from algid.verifier import (
    PASS,
    FAIL,
    SKIP,
    REPORT_SCHEMA,
    TARGETS,
    _worked_row,
    verify_theorem,
)


def _brute_force_holds(A, ident):
    """Evaluate the identity at every tuple of elements of F_p^2."""
    f = A.field
    names = []
    seen = set()
    from algid.identity_lang import identity_variables

    names = identity_variables(ident)
    points = [Vec(f, [a, b]) for a in f.elements() for b in f.elements()]
    for combo in itertools.product(points, repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_node(A, ident.lhs, env) != eval_node(A, ident.rhs, env):
            return False
    return True


class TestChecks:
    def test_formal_witness_on_known_failure(self):
        A12 = family("A12").instantiate(QQ, ())
        res = check_formal(A12, get_identity("I2"))
        assert not res.ok
        assert res.witness_text() == "e2 coefficient of x1 y1 = 2"
        assert check_formal(A12, get_identity("I4")).ok

    def test_functional_requires_finite_field(self):
        A = family("A12").instantiate(QQ, ())
        with pytest.raises(AlgidError):
            check_functional(A, get_identity("I1"))

    def test_functional_matches_brute_force_f2(self):
        idents = [get_identity(n) for n in ("I1", "I5", "I18", "I19", "I25")]
        for index in (0, 3, 37, 129, 255, 1000, 4095):
            A = msc_from_scan_index(2, index)
            for ident in idents:
                assert check_functional(A, ident).ok == _brute_force_holds(A, ident)

    def test_functional_matches_brute_force_f3(self):
        idents = [get_identity(n) for n in ("I2", "I19")]
        for index in (0, 1, 40, 2186, 6560):
            A = msc_from_scan_index(3, index)
            for ident in idents:
                assert check_functional(A, ident).ok == _brute_force_holds(A, ident)

    def test_formal_implies_functional(self):
        for index in (5, 64, 77, 200):
            A = msc_from_scan_index(2, index)
            for name in ("I1", "I19", "I23"):
                ident = get_identity(name)
                if check_formal(A, ident).ok:
                    assert check_functional(A, ident).ok

    def test_functional_weaker_than_formal_example(self):
        # x^p = x makes some non-multilinear identities hold pointwise only
        ident = get_identity("I19")
        formal = scan_algebras(2, ident, "formal")
        functional = scan_algebras(2, ident, "functional")
        assert (formal & ~functional).sum() == 0
        gap = (~formal & functional).nonzero()[0]
        assert len(gap) > 0
        A = msc_from_scan_index(2, int(gap[0]))
        assert not check_formal(A, ident).ok
        assert check_functional(A, ident).ok
        assert _brute_force_holds(A, ident)

    def test_multilinear_equals_basis_tuples(self):
        ident = get_identity("I18")
        assert is_multilinear(ident)
        for index in (0, 17, 100, 731, 2049):
            A = msc_from_scan_index(2, index)
            assert holds_on_basis_tuples(A, ident) == check_formal(A, ident).ok

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=255))
    def test_multilinear_triple_equivalence_f2(self, index):
        A = msc_from_scan_index(2, index)
        for name in ("I1", "I16", "I18"):
            ident = get_identity(name)
            assert is_multilinear(ident)
            formal = check_formal(A, ident).ok
            assert check_functional(A, ident).ok == formal
            assert holds_on_basis_tuples(A, ident) == formal


class TestIsoSearch:
    def test_known_equality_returns_identity_matrix(self):
        A5 = family("A5_2").instantiate(F2, (F2.scalar(1),))
        A9 = family("A9_2").instantiate(F2, ())
        g = search_iso(A5.opposite(), A9)
        assert g is not None
        assert g[0][0].value == 1 and g[1][1].value == 1
        assert g[0][1].value == 0 and g[1][0].value == 0
        assert conjugates_to(A5.opposite(), A9, g)

    def test_search_finds_printed_witness_class(self):
        A3 = family("A3_2").instantiate(F2, (F2.scalar(0), F2.scalar(1)))
        g = search_iso(A3.opposite(), A3)
        if g is not None:
            assert conjugates_to(A3.opposite(), A3, g)

    def test_search_returns_none_for_non_isomorphic(self):
        A10 = family("A10_2").instantiate(F2, ())
        A12 = family("A12_2").instantiate(F2, ())
        assert search_iso(A10, A12) is None

    def test_search_rejects_rationals(self):
        A = family("A12").instantiate(QQ, ())
        with pytest.raises(AlgidError):
            search_iso(A, A)

    def test_search_space_guard(self):
        f13 = field_make(13)
        A = Msc.from_scalars(f13, [[0, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(SearchSpaceTooLarge):
            search_iso(A, A)


def _lifted_search(A, B):
    """Reference GL2 search: lifted conjugates_to over f.elements() in
    lexicographic entry order."""
    elems = list(A.field.elements())
    for g11, g12, g21, g22 in itertools.product(elems, repeat=4):
        g = ((g11, g12), (g21, g22))
        if conjugates_to(A, B, g):
            return g
    return None


class TestIsoSearchDifferential:
    """The residue search returns the lifted reference's first witness."""

    def _assert_same(self, A, B):
        g = search_iso(A, B)
        assert g == _lifted_search(A, B)
        if g is not None:
            assert conjugates_to(A, B, g)
        return g

    def test_all_f2_algebras_against_opposite(self):
        found = [self._assert_same(A, A.opposite()) is not None
                 for A in (msc_from_scan_index(2, i) for i in range(256))]
        assert any(found) and not all(found)

    def test_all_f2_algebras_against_fixed_partner(self):
        partner = family("A12_2").instantiate(F2, ())
        found = [self._assert_same(msc_from_scan_index(2, i), partner)
                 is not None for i in range(256)]
        assert any(found) and not all(found)

    def test_sampled_f3_algebras_against_opposite(self):
        for index in range(0, 3 ** 8, 41):
            A = msc_from_scan_index(3, index)
            self._assert_same(A, A.opposite())

    def test_symbolic_algebras_rejected(self):
        with pytest.raises(AlgidError):
            search_iso(Msc.generic(F3), Msc.generic(F3))


def _expanded_check(equations, p=None):
    """The per-algebra reference: (ok, witness text) from the first nonzero
    equation of expand(I, A).  With a prime p the equations are first merged
    along coordinate monomials that agree pointwise on F_p (x^p = x)."""
    eqs = [(eq.row, eq.monomial, eq.poly) for eq in equations]
    if p is not None:
        merged = {}
        for row, mon, poly in eqs:
            reduced = []
            for v, e in mon:
                while e >= p:
                    e -= p - 1
                reduced.append((v, e))
            key = (row, tuple(reduced))
            merged[key] = merged[key] + poly if key in merged else poly
        eqs = sorted(((row, mon, poly) for (row, mon), poly in merged.items()),
                     key=lambda eq: (eq[0], mon_sort_key(eq[1])))
    for row, mon, poly in eqs:
        if not poly.is_zero():
            return False, "e%d coefficient of %s = %s" % (
                row + 1, render_monomial(mon), poly.render())
    return True, ""


def _small_char0_instances(field):
    """Every char0 family with each of 0, 1, -1, 1/2 in every slot."""
    out = []
    for fam in FAMILY_ORDER[REGIME_CHAR0]:
        for v in ((0, 1, -1, "1/2") if fam.params else (0,)):
            out.append(fam.instantiate(field, [field.scalar(v)] * len(fam.params)))
    return out


class TestCompiledSystemDifferential:
    """check_formal and check_functional run the tensor recursion on the
    algebra's entries, scan_algebras evaluates the identity's compiled generic
    system; each verdict and witness text must be the one the per-algebra
    expansion gives."""

    def _assert_same(self, algebras, functional):
        """Compare I1..I30 on `algebras`; return the reference verdicts per
        (identity number, mode)."""
        verdicts = {}
        for k in range(1, 31):
            ident = get_identity("I%d" % k)
            for A in algebras:
                equations = expand(ident, A).equations
                checks = [("formal", check_formal, None)]
                if functional:
                    checks.append(("functional", check_functional, A.field.p))
                for mode, check, p in checks:
                    res = check(A, ident)
                    expected = _expanded_check(equations, p)
                    assert (res.ok, res.witness_text()) == expected, (k, mode, A.rows)
                    verdicts.setdefault((k, mode), []).append(res.ok)
        assert {ok for oks in verdicts.values() for ok in oks} == {True, False}
        return verdicts

    def _assert_scan_positions(self, p, step):
        indices = range(0, p ** 8, step)
        verdicts = self._assert_same([msc_from_scan_index(p, i) for i in indices],
                                     functional=True)
        for (k, mode), expected in verdicts.items():
            ok = scan_algebras(p, get_identity("I%d" % k), mode)
            assert [bool(ok[i]) for i in indices] == expected, (k, mode)

    def test_sampled_f2_algebras(self):
        self._assert_scan_positions(2, 5)

    def test_sampled_f3_algebras(self):
        self._assert_scan_positions(3, 401)

    def test_char0_families_over_q(self):
        self._assert_same(_small_char0_instances(QQ), functional=False)

    def test_char0_families_over_f5(self):
        self._assert_same(_small_char0_instances(F5), functional=True)

    def test_mixed_denominators_over_q(self):
        """Entries with denominators 2, 3 and 7: the integer route scales A
        by their lcm and divides each witness by d^(degree - 1)."""
        vals = ["1/2", "-2/3", "5/7", 0, 3]
        algebras = [Msc.from_scalars(QQ, [[vals[(k + j) % 5] for j in range(4)],
                                          [vals[(3 * k + j + 2) % 5] for j in range(4)]])
                    for k in range(5)]
        # commutative, with the same denominators
        algebras.append(Msc.from_scalars(QQ, [["1/2", "-2/3", "-2/3", "5/7"],
                                              [3, "5/7", "5/7", "-1/2"]]))
        self._assert_same(algebras, functional=False)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_algebras(self, data):
        field = data.draw(st.sampled_from([F2, F3, F5, QQ]))
        if field.kind == "Q":
            entry = st.fractions(min_value=-4, max_value=4, max_denominator=9)
        else:
            entry = st.integers(min_value=0, max_value=field.p - 1)
        entries = data.draw(st.lists(entry, min_size=8, max_size=8))
        A = Msc.from_scalars(field, [entries[:4], entries[4:]])
        ident = get_identity(data.draw(st.sampled_from(NUMBERED_IDENTITIES)))
        equations = expand(ident, A).equations
        checks = [(check_formal, None)]
        if field.kind == "Fp":
            checks.append((check_functional, field.p))
        for check, p in checks:
            res = check(A, ident)
            assert (res.ok, res.witness_text()) == _expanded_check(equations, p)

    def test_functional_needs_concrete_constants(self):
        with pytest.raises(AlgidError, match="concrete structure constants"):
            check_functional(Msc.generic(F3), get_identity("I1"))

    def test_scan_rejects_unknown_mode(self):
        with pytest.raises(AlgidError,
                           match="scan mode must be 'formal' or 'functional'"):
            scan_algebras(3, get_identity("I1"), "bogus")


class TestGenericAlgebraDifferential:
    """An explicit Msc.generic algebra takes the packed kernel; the
    coordinate route (`substitute`) is its oracle."""

    @pytest.mark.parametrize("field", [QQ, F2, F3], ids=str)
    def test_check_formal_matches_the_coordinate_route(self, field):
        generic = Msc.generic(field)
        names = ["I%d" % k for k in range(1, 31)]
        names += ["comm-of-comms", "jacobi-left", "jacobi-right"]
        idents = [get_identity(name) for name in names]
        idents.append(parse_identity("(u*u)*v = u*(u*v)", name="left-alternative"))
        failing = 0
        for ident in idents:
            equations = substitute(ident, generic).equations
            expected = _expanded_check(equations)
            res = check_formal(generic, ident)
            assert (res.ok, res.witness_text()) == expected, ident.name
            assert res.witness == (equations[0] if equations else None), ident.name
            failing += not res.ok
        assert failing > 0

    @pytest.mark.parametrize("field", [QQ, F2, F3], ids=str)
    def test_alternating_vanishes_matches_the_coordinate_route(self, field):
        generic = Msc.generic(field)
        cases = [(shape, 3) for _, shape in word_shapes(3)]
        cases.append((word_shapes(2)[0][1], 2))
        for shape, n in cases:
            ident = Identity("alternation", alternating_sum(shape, n), Sum(()))
            assert alternating_vanishes(generic, shape, n) == \
                substitute(ident, generic).is_zero()
        assert not alternating_vanishes(generic, word_shapes(2)[0][1], 2)

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
    def test_determinant_law_matches_the_coordinate_route(self, field):
        """The two built-in shapes obey the law; words that repeat a leaf
        have an alternation of higher degree than |u, v| and do not."""
        algebras = [Msc.generic(field)]
        if field == QQ:
            algebras += [row.algebra(QQ) for row in SECTION3_ROWS if row.family]
        shapes = [shape for _, shape in word_shapes(2)]
        shapes += [parse_identity(text).lhs.terms[0][1] for text in REPEATED_LEAF_SHAPES]
        for A in algebras:
            verdicts = [alternating_determinant_law(A, shape) for shape in shapes]
            assert verdicts == [determinant_law_holds(A, shape) for shape in shapes], A
        generic = [alternating_determinant_law(algebras[0], shape) for shape in shapes]
        assert generic == [True, True] + [False] * len(REPEATED_LEAF_SHAPES)

    @pytest.mark.parametrize("text, error", [
        ("(u*v)*w", ShapeArityMismatch),
        ("((u*v)*(w*t))*((s*q)*(r*p))", TooManyVariables),
        ("u*u", ShapeArityMismatch),
    ])
    def test_determinant_law_errors_match_the_coordinate_route(self, text, error):
        shape = parse_identity(text).lhs.terms[0][1]
        generic = Msc.generic(QQ)
        with pytest.raises(error) as got:
            alternating_determinant_law(generic, shape)
        with pytest.raises(error) as expected:
            determinant_law_holds(generic, shape)
        assert str(got.value) == str(expected.value)


# Two-variable words that repeat a leaf: the determinant law fails on them.
REPEATED_LEAF_SHAPES = ["(u*v)*u", "u*(u*v)", "(u*u)*v", "(u*v)*(v*u)", "((u*v)*u)*v"]


class TestExpansionBudget:
    def test_every_check_refuses_an_over_budget_identity(self):
        """The budget is checked when a plan is built, so a second check of
        the same identity, which finds no cached plan, is refused again."""
        tower, deep = "u", "u"
        for _ in range(40):
            tower = "(%s)^2" % tower
        for _ in range(30):
            deep = "[%s,v]" % deep
        for text in (tower, deep):
            ident = parse_identity(text + " = 0")
            for A in (msc_from_scan_index(3, 1234), Msc.generic(F3)):
                for _ in range(2):
                    with pytest.raises(ExpansionTooLarge, match="expansion budget"):
                        check_formal(A, ident)
            for _ in range(2):
                with pytest.raises(ExpansionTooLarge, match="expansion budget"):
                    check_functional(msc_from_scan_index(3, 1234), ident)


class TestScanPruning:
    """scan_algebras drops each algebra at its first nonzero equation; the
    vector must be the one a full evaluation of every equation gives."""

    @staticmethod
    def _full_scan(p, ident, mode):
        """Every equation of the coordinate-route system of Msc.generic(F_p),
        merged along pointwise-equal monomials in functional mode, evaluated
        in int64 at every algebra: the terms on the broadcast digit grid of
        the entries they use, summed there per set of entries, and those
        sums on the whole (p,)*8 grid."""
        import numpy as np

        names = [name for row in GENERIC_NAMES for name in row]
        digits = np.arange(p, dtype=np.int64)
        cols = {name: digits.reshape((1,) * j + (p,) + (1,) * (7 - j))
                for j, name in enumerate(names)}
        merged = {}
        for eq in substitute(ident, Msc.generic(field_make(p))).equations:
            mon = functional_monomial(eq.monomial, p) if mode == "functional" else eq.monomial
            key = (eq.row, mon)
            merged[key] = merged[key] + eq.poly if key in merged else eq.poly
        ok = np.ones((p,) * 8, dtype=bool)
        for poly in merged.values():
            parts = {}
            for mon, c in poly.terms.items():
                term = np.int64(c)
                for name, e in mon:
                    term = term * cols[name] ** e
                used = tuple(name for name, _ in mon)
                parts[used] = parts.get(used, 0) + term
            ok &= sum(parts.values(), np.zeros((p,) * 8, dtype=np.int64)) % p == 0
        return ok.ravel()

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_full_evaluation(self, p):
        import numpy as np

        idents = [get_identity("I%d" % k) for k in range(1, 31)]
        idents += [parse_identity("u = 0"), parse_identity("0 = 0")]
        # mixed degrees: the constant equation sorts after a pruning one
        idents += [parse_identity(text) for text in
                   ("u*v + u = 0", "u*v + u = u", "(u*v)*w + u*v = 0")]
        for ident in idents:
            for mode in ("formal", "functional"):
                expected = self._full_scan(p, ident, mode)
                got = scan_algebras(p, ident, mode)
                assert got.dtype == bool and got.shape == (p ** 8,)
                assert np.array_equal(got, expected), (ident.name, mode)

    @pytest.mark.parametrize("name, count", [("I19", 1825), ("I23", 889)])
    def test_matches_full_evaluation_over_f5(self, name, count):
        """The benchmark's F5 scans: a grid phase, then several compactions."""
        import numpy as np

        ident = get_identity(name)
        for mode in ("formal", "functional"):
            got = scan_algebras(5, ident, mode)
            assert got.dtype == bool and got.shape == (5 ** 8,)
            assert int(got.sum()) == count, mode
            assert np.array_equal(got, self._full_scan(5, ident, mode)), mode
            assert self._width(5, ident, mode) == "int16", mode

    @staticmethod
    def _width(p, ident, mode):
        """The name of the integer type scan_algebras evaluates in."""
        import numpy as np

        plan = tensor_plan(ident, p if mode == "functional" else 0)
        most_terms = max((len(terms) for _, _, terms in plan.system(p)), default=0)
        return np.dtype(_scan_dtype(p, plan.degree, most_terms)).name

    @pytest.mark.parametrize("p, text, width, counts", [
        (3, "I1", "int8", (729, 729)),
        (3, "((u*u)*u)*((u*u)*u) = (u*(u*u))*(u*(u*u))", "int16", (1057, 1201)),
        (5, "((u*v)*(u*v))*((u*v)*u) = 0", "int32", (745, 745)),
        (5, "((u*u)*u)*((u*u)*u) = (u*(u*u))*(u*(u*u))", "int32", (19681, 19681)),
    ])
    def test_each_width_matches_full_evaluation(self, p, text, width, counts):
        """Narrow columns give the int64 oracle's vector at every width
        (F5 I19 and I23, the int16 scans, are checked above)."""
        import numpy as np

        ident = get_identity(text) if text.startswith("I") else parse_identity(text)
        for mode, count in zip(("formal", "functional"), counts):
            assert self._width(p, ident, mode) == width, mode
            got = scan_algebras(p, ident, mode)
            assert int(got.sum()) == count, mode
            assert np.array_equal(got, self._full_scan(p, ident, mode)), mode

    @pytest.mark.parametrize("p, degree, most_terms, width", [
        (2, 9, 127, "int8"), (2, 9, 128, "int16"),
        (2, 9, 2 ** 15 - 1, "int16"), (2, 9, 2 ** 15, "int32"),
        (2, 9, 2 ** 31 - 1, "int32"), (2, 9, 2 ** 31, "int64"),
        (3, 6, 1, "int8"), (3, 7, 1, "int16"),  # (p - 1) ** degree = 64, 128
        (5, 3, 1, "int8"), (5, 4, 1, "int16"),  # 64, 256
    ])
    def test_width_rule_boundaries(self, p, degree, most_terms, width):
        """The narrowest signed type holding most_terms * (p - 1) ** degree."""
        import numpy as np

        assert np.dtype(_scan_dtype(p, degree, most_terms)).name == width

    def test_budget_sized_plan_fits_int64(self):
        """A word of 11 leaves has 2048 tensor columns, the whole budget, and
        a 12th leaf is refused; a slot of that plan is homogeneous of degree
        10 in a1..b4, so it has at most C(17, 7) terms."""
        import numpy as np

        word = "u"
        for k in range(10):
            word = "(%s)*%s" % (word, "uv"[k % 2])
        plan = tensor_plan(parse_identity(word + " = 0"), 0)
        assert plan.degree == 11
        with pytest.raises(ExpansionTooLarge):
            check_budget(parse_identity("(%s)*u = 0" % word))
        assert np.dtype(_scan_dtype(5, plan.degree, math.comb(17, 7))).name == "int64"

    def test_f5_scan_traced_peak(self):
        """numpy reports its buffers to tracemalloc, so one F5 I23 formal scan
        has a repeatable allocation peak: about 4.1 MiB with narrow digit
        columns, 16 MiB with the int64 columns of np.nonzero."""
        import tracemalloc

        ident = get_identity("I23")
        scan_algebras(5, ident, "formal")  # compiles and caches the plan
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            scan_algebras(5, ident, "formal")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    def test_constant_equations(self):
        assert scan_field(3, parse_identity("u = 0")) == 0
        assert scan_field(3, parse_identity("u = u")) == 3 ** 8
        assert scan_field(3, parse_identity("u*v + u = 0")) == 0
        assert scan_field(3, parse_identity("u*v + u = u")) == 1
        assert scan_field(3, parse_identity("(u*v)*w + u*v = 0")) == 1


class TestIntegerScanOverF2:
    """scan_field counts the 256 F2 algebras with the plan's integer core
    (`TensorPlan.nonzero_slot`); scan_algebras's numpy vector is its oracle."""

    _SIX = "((u*v)*(w*s))*(t*q) = ((u*v)*w)*((s*t)*q)"  # 6 variables, degree 6

    @pytest.mark.parametrize("mode", ["formal", "functional"])
    def test_matches_numpy_scan(self, mode):
        idents = [get_identity("I%d" % k) for k in range(1, 31)]
        # "u*v + u = 0": a constant equation sorts after a pruning one
        idents += [parse_identity(text)
                   for text in ("u = u", "u = 0", "u*v + u = 0", self._SIX)]
        for ident in idents:
            assert scan_field(2, ident, mode) == int(scan_algebras(2, ident, mode).sum()), \
                (ident.name or ident.render(), mode)

    def test_constant_systems(self):
        assert scan_field(2, parse_identity("u = u")) == 2 ** 8
        assert scan_field(2, parse_identity("u = 0")) == 0
        assert scan_field(2, parse_identity("u*v + u = 0")) == 0

    @pytest.mark.parametrize("mode", ["formal", "functional"])
    def test_core_matches_first_nonzero(self, mode):
        """The core reads the scan's residue tuples in scan-index order and
        finds the witness slot of first_nonzero at every index."""
        idents = [get_identity("I%d" % k) for k in range(1, 31)] + [parse_identity(self._SIX)]
        for ident in idents:
            plan = tensor_plan(ident, 2 if mode == "functional" else 0)
            n = len(plan.monomials)
            for i, vals in enumerate(itertools.product(range(2), repeat=8)):
                found = plan.nonzero_slot(2, vals)
                witness = plan.first_nonzero(msc_from_scan_index(2, i))
                if witness is None:
                    assert found is None, (i, mode)
                    continue
                s, value = found
                row, number = divmod(s, n)
                assert (row, plan.monomials[number]) == (witness.row, witness.monomial)
                assert witness.poly == MultiPoly.const(F2, F2.scalar(value))

    def test_unsupported_prime_and_mode_before_the_plan(self, monkeypatch):
        """An unsupported prime is refused before the mode, and both before a
        plan compiles."""
        import algid.expander as expander

        monkeypatch.setattr(expander, "tensor_plan", None)
        with pytest.raises(UnsupportedPrime, match="supported primes: 2, 3, 5"):
            scan_field(7, get_identity("I1"), "bogus")
        for p in SCAN_PRIMES:
            with pytest.raises(AlgidError, match="scan mode must be"):
                scan_field(p, get_identity("I1"), "bogus")


class TestWeightsVanishingModP:
    """A plan keeps every word of nonzero integer weight and reduces its
    sums mod p when it runs, so a word whose weight vanishes mod p adds 0."""

    _TWICE = "2 u*v = 0"
    _LONGEST = "3 ((u*v)*w)*t = u*v"  # the longest word vanishes mod 3

    def test_twice_a_product(self):
        ident = parse_identity(self._TWICE)
        assert scan_field(2, ident) == scan_field(2, ident, "functional") == 256
        assert expand(ident, field=F2).is_zero()
        assert check_formal(family("A9_2").instantiate(F2, ()), ident).ok
        assert scan_field(3, ident) == 1

    def test_vanishing_longest_word(self):
        ident = parse_identity(self._LONGEST)
        assert scan_field(3, ident) == 1
        assert len(expand(ident, field=F3)) == 8
        assert scan_field(2, parse_identity("2 ((u*v)*w)*t = u*v"), "functional") == 1


class TestAlternating:
    def test_twelve_shapes(self):
        shapes = word_shapes(3)
        assert len(shapes) == 12
        assert len({label for label, _ in shapes}) == 12

    def test_three_variable_alternation_vanishes_generic(self):
        for fld in (QQ, F2, F3):
            A = Msc.generic(fld)
            for _, shape in word_shapes(3):
                assert alternating_vanishes(A, shape, 3)

    def test_two_variable_law_generic(self):
        A = Msc.generic(QQ)
        for _, shape in word_shapes(2):
            assert alternating_determinant_law(A, shape)

    def test_base_vector_of_plain_product(self):
        # alternation of v1 v2 at (e1, e2) is e1 e2 - e2 e1 = column2 - column3,
        # and the law finds it as the x1 y2 coefficients of the expansion
        A = Msc.generic(QQ)
        label, shape = word_shapes(2)[0]
        assert label == "v1 v2"
        alternation = alternating_sum(shape, 2)
        base = eval_node(A, alternation, {"v1": basis_vec(QQ, 1), "v2": basis_vec(QQ, 2)})
        assert base.entries == (parse_poly("a2 - a3", QQ), parse_poly("b2 - b3", QQ))
        equations = expand(Identity("alternation", alternation, Sum(())), A).equations
        assert {(eq.row, render_monomial(eq.monomial)): eq.poly for eq in equations} == {
            (0, "x1 y2"): base.entries[0], (0, "x2 y1"): -base.entries[0],
            (1, "x1 y2"): base.entries[1], (1, "x2 y1"): -base.entries[1]}

    def test_alternating_sum_signs(self):
        node = alternating_sum(word_shapes(2)[0][1], 2)
        assert sorted(c for c, _ in node.terms) == [-1, 1]

    def test_shapes_guard(self):
        with pytest.raises(AlgidError):
            word_shapes(4)


class TestScan:
    def test_supported_primes_guard(self):
        assert SCAN_PRIMES == (2, 3, 5)
        with pytest.raises(UnsupportedPrime):
            scan_field(7, get_identity("I1"))

    def test_commutativity_counts_are_p_to_the_sixth(self):
        # uv = vu forces column2 = column3, leaving six free entries
        assert scan_field(2, get_identity("I1")) == 64
        assert scan_field(3, get_identity("I1")) == 729

    def test_anticommutativity_counts(self):
        # char 2: same as commutativity; char 3: columns 1 and 4 vanish
        assert scan_field(2, get_identity("I2")) == 64
        assert scan_field(3, get_identity("I2")) == 9

    def test_scan_index_roundtrip(self):
        ok = scan_algebras(2, get_identity("I2"))
        hits = ok.nonzero()[0]
        assert len(hits) == 64
        for index in hits[:5]:
            A = msc_from_scan_index(2, int(index))
            assert check_formal(A, get_identity("I2")).ok
        misses = (~ok).nonzero()[0]
        A = msc_from_scan_index(2, int(misses[0]))
        assert not check_formal(A, get_identity("I2")).ok

    def test_functional_count_dominates_formal(self):
        for name in ("I19", "I25"):
            ident = get_identity(name)
            assert scan_field(2, ident, "functional") >= scan_field(2, ident)

    def test_verifier_keeps_the_scan_names(self):
        from algid import expander, verifier

        assert verifier.scan_field is expander.scan_field
        assert verifier.scan_algebras is expander.scan_algebras


class TestReports:
    def test_unknown_target(self):
        with pytest.raises(AlgidError):
            verify_theorem("NoSuchTarget")

    @pytest.mark.parametrize("target, field", [
        ("SelfOppositeCorollaries", field_make(7)), ("Section3Computations", F3)])
    def test_fixed_field_targets_refuse_another_field(self, target, field):
        # their rows fix their own fields, so a report over `field` would
        # name a field that no row was checked over
        with pytest.raises(AlgidError, match=target):
            verify_theorem(target, field)
        assert verify_theorem(target, QQ).field == QQ

    def test_targets_tuple(self):
        assert "Opp41" in TARGETS and "Section3Computations" in TARGETS
        assert len(TARGETS) == 8

    def test_opp41_all_pass(self):
        rep = verify_theorem("Opp41")
        assert rep.ok
        assert rep.counts == {PASS: 17, FAIL: 0, SKIP: 0}
        assert rep.rows[0].section == "involution"

    def test_opp43_and_opp45_all_pass(self):
        for target in ("Opp43", "Opp45"):
            rep = verify_theorem(target)
            assert rep.ok, [r for r in rep.rows if r.status == FAIL]
            assert rep.counts[FAIL] == 0 and rep.counts[SKIP] == 0

    def test_section3_all_pass(self):
        rep = verify_theorem("Section3Computations")
        assert rep.ok
        assert rep.counts[FAIL] == 0 and rep.counts[SKIP] == 0
        corrected = [r for r in rep.rows if "sign corrected" in r.detail]
        assert len(corrected) == 1 and corrected[0].section == "A10"

    def test_a_second_section3_pass_compiles_no_plan(self):
        """The plan cache holds every plan of a pass (31 here), so a second
        pass compiles none."""
        verify_theorem("Section3Computations")
        misses = tensor_plan.cache_info().misses
        verify_theorem("Section3Computations")
        assert tensor_plan.cache_info().misses == misses

    def test_a_cold_pass_compiles_one_plan_per_identity(self, monkeypatch):
        """Plans are keyed by identity (and merge prime), not by field: the
        60 distinct identities of a pass over Q, F2 and F3 make 60 plans."""
        import algid.expander as expander

        idents = set()

        def recording(ident, merge):
            idents.add(ident)
            return tensor_plan(ident, merge)

        tensor_plan.cache_clear()
        monkeypatch.setattr(expander, "tensor_plan", recording)
        for target in TARGETS:
            verify_theorem(target)
        assert tensor_plan.cache_info().misses == len(idents) == 60

    def test_printed_rows_agree_with_the_coordinate_route(self):
        printed = [row for row in SECTION3_ROWS if row.printed is not None]
        assert len(printed) == 16
        for row in printed:
            assert _worked_row(row).status == PASS, row.label
            assert worked_row_holds(row), row.label

    @pytest.mark.parametrize("row", [
        WorkedRow("A9", "A9", "u*v", ("1/3 x1 y1", "x1 y1 + 2/3 x1 y2 + 1/3 x2 y1"),
                  "uv with the sign of x2 y1 flipped"),
        WorkedRow("A9", "A9", "w*[u,v]", ("0", "(0 - z1/3)*(x1 y2 - x2 y1)"),
                  "w[u,v] given the printed vector of [u,v]w"),
        WorkedRow("A10", "A10", "[u,v,w]", ("2 y2*(x1 z2 - x2 z1)", "x1 y1 z1"),
                  "[u,v,w] with an extra e2 term"),
        WorkedRow("A9", "A9", "[u,v]", ("0", "x1 y2 - x2 y1 + z1"),
                  "[u,v] with a term in the coordinates of an absent w"),
    ], ids=lambda row: row.label)
    def test_wrong_printed_vectors_fail(self, row):
        assert _worked_row(row).status == FAIL
        assert not worked_row_holds(row)

    def test_a10_printed_sign_variant_fails(self):
        A10 = family("A10").instantiate(QQ, ())
        res = check_formal(A10, get_identity("assoc-cycle-minus"))
        assert not res.ok
        assert res.witness_text() == "e1 coefficient of x2 y1 z2 = 4"
        assert check_formal(A10, get_identity("assoc-cycle-plus")).ok

    def test_self_opposite_single_documented_skip(self):
        rep = verify_theorem("SelfOppositeCorollaries")
        assert rep.ok
        skips = [r for r in rep.rows if r.status == SKIP]
        assert len(skips) == 1
        assert skips[0].label == "A2_3(0, 0, 2)"
        assert "square root of -1" in skips[0].detail
        assert "exhaustive" in skips[0].detail

    def test_char0_report_pins_known_erratum(self):
        rep = verify_theorem("Char0Identities")
        fails = [r for r in rep.rows if r.status == FAIL]
        assert [(r.section, r.label) for r in fails] == [("I2", "A12")]
        assert "known discrepancy" in fails[0].detail
        skips = [(r.section, r.label) for r in rep.rows if r.status == SKIP]
        assert skips == [
            ("I19", "A5((5 - sqrt(5))/10)"),
            ("I19", "A5((5 + sqrt(5))/10)"),
            ("I19", "A8((1 - sqrt(-1))/2)"),
            ("I19", "A8((1 + sqrt(-1))/2)"),
            ("I29", "A8((3 - sqrt(-7))/8)"),
            ("I29", "A8((3 + sqrt(-7))/8)"),
        ]

    def test_char2_report_pins_known_erratum(self):
        rep = verify_theorem("Char2Identities")
        fails = [r for r in rep.rows if r.status == FAIL]
        assert [(r.section, r.label) for r in fails] == [("I18", "A5_2(0)")]
        assert "known discrepancy" in fails[0].detail
        coincidence = [r for r in rep.rows if r.section == "coincidence"]
        assert len(coincidence) == 14
        assert all(r.status == PASS for r in coincidence)

    def test_char3_report_pins_known_erratum(self):
        rep = verify_theorem("Char3Identities")
        fails = [r for r in rep.rows if r.status == FAIL]
        assert [(r.section, r.label) for r in fails] == [
            ("I1", "A5_3(0)"), ("I1", "A5_3(1)"), ("I1", "A5_3(2)")]
        assert all("known discrepancy" in r.detail for r in fails)

    def test_char5_jordan_rows(self):
        rep_rows = verify_theorem("Char0Identities", field=F5).rows
        i19 = [r for r in rep_rows if r.section == "I19"
               and not r.label.startswith("negative")]
        by_status = {}
        for r in i19:
            by_status.setdefault(r.status, []).append(r.label)
        assert by_status[SKIP] == [
            "A4(a1, sqrt(a1 - a1^2)) @ a1=2",
            "A4(a1, sqrt(a1 - a1^2)) @ a1=4",
            "A4(a1, -sqrt(a1 - a1^2)) @ a1=2",
            "A4(a1, -sqrt(a1 - a1^2)) @ a1=4",
            "A5((5 - sqrt(5))/10)",
            "A5((5 + sqrt(5))/10)",
        ]
        division_skips = [r for r in i19 if r.status == SKIP
                          and "division by zero" in r.detail]
        assert [r.label for r in division_skips] == [
            "A5((5 - sqrt(5))/10)", "A5((5 + sqrt(5))/10)"]
        for label in ("A8(2)", "A8(4)", "A9", "A2(3, 0, 3)", "A2(3, 0, 2)",
                      "A4(3, 2)", "A4(3, 3)", "A12"):
            assert label in by_status[PASS]
        assert FAIL not in by_status

    def test_negative_rows_present_and_passing(self):
        rep = verify_theorem("Char3Identities")
        negatives = [r for r in rep.rows if r.label.startswith("negative:")]
        assert len(negatives) == 3 * 30
        assert all(r.status == PASS for r in negatives)
        i1_negatives = [r.label for r in negatives if r.section == "I1"]
        assert i1_negatives == [
            "negative: A1_3(2, 2, 2, 2)",
            "negative: A3_3(2, 2)",
            "negative: A6_3(2, 2)",
        ]

    def test_report_json_shape(self):
        rep = verify_theorem("Opp41")
        doc = rep.to_json()
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["target"] == "Opp41"
        assert doc["field"] == {"kind": "Q"}
        assert doc["summary"]["ok"] is True
        assert doc["summary"]["pass"] == len(doc["rows"])
        assert set(doc["rows"][0]) == {"section", "label", "status", "detail"}

    def test_report_text_has_summary_line(self):
        rep = verify_theorem("Opp45")
        text = rep.render_text()
        assert text.splitlines()[0].startswith("target: Opp45")
        assert text.splitlines()[-1].startswith("summary:")
        assert text.endswith("-> OK")
