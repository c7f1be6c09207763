"""Catalog integrity: templates, claim rows, opposite tables, negatives."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import expr_oracle as oracle
from expr_oracle import outcome

from algid.algebra_core import change_basis, conjugates_to
from algid.canon_catalog import (
    CHAR2_IDENTITY_PAIRS,
    CHAR5_I19_ROWS,
    CLAIMED_SOLUTIONS,
    FAMILIES,
    FAMILY_ORDER,
    OPPOSITE_TABLES,
    REGIME_CHAR0,
    REGIME_CHAR2,
    REGIME_CHAR3,
    REGIMES,
    SELF_OPPOSITE,
    _compiled,
    _instance,
    _table,
    claimed_rows,
    family,
    negative_instances,
    regime_for_field,
    row_covers,
)
from algid.errors import (
    AlgidError,
    CharMismatch,
    NumberTooLong,
    ParamCountMismatch,
    SearchSpaceTooLarge,
    UnknownFamily,
    UnknownIdentity,
)
from algid.exactnum import F2, F3, F5, QQ, Scalar, field_make
from algid.multipoly import MAX_BITS, MultiPoly, _names, eval_expr, expr_to_poly, parse_expr


def _q(x) -> object:
    return QQ.scalar(Fraction(x))


class TestFamilies:
    def test_twelve_families_per_regime(self):
        for regime in REGIMES:
            assert len(FAMILY_ORDER[regime]) == 12
        assert len(FAMILIES) == 36

    def test_regime_for_field(self):
        assert regime_for_field(QQ) == REGIME_CHAR0
        assert regime_for_field(F2) == REGIME_CHAR2
        assert regime_for_field(F3) == REGIME_CHAR3
        assert regime_for_field(F5) == REGIME_CHAR0
        assert regime_for_field(field_make(7)) == REGIME_CHAR0

    def test_instantiate_concrete(self):
        A9 = family("A9").instantiate(QQ, ())
        assert A9.to_json()["entries"] == [
            ["1/3", "0", "0", "0"],
            ["1", "2/3", "-1/3", "0"],
        ]
        A4 = family("A4").instantiate(QQ, (_q(0), _q(-1)))
        assert A4.to_json()["entries"] == [
            ["0", "0", "0", "0"],
            ["0", "-1", "1", "0"],
        ]

    def test_instantiate_wrong_arity(self):
        with pytest.raises(ParamCountMismatch):
            family("A4").instantiate(QQ, (_q(1),))

    def test_char_enforcement(self):
        with pytest.raises(CharMismatch):
            family("A1").instantiate(F2, tuple(F2.scalar(0) for _ in range(4)))
        with pytest.raises(CharMismatch):
            family("A1_2").instantiate(QQ, tuple(_q(0) for _ in range(4)))
        with pytest.raises(CharMismatch):
            family("A5_3").instantiate(F5, (F5.scalar(1),))
        # char0 families are fine over any p >= 5
        family("A12").instantiate(F5, ())
        family("A12").instantiate(field_make(11), ())

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5])
    def test_instantiate_memo_matches_a_fresh_build(self, field):
        """Every family of the field's regime at a few argument tuples: the
        catalog's memoized algebra equals one built cell by cell from the
        template, and a repeated lookup hands back the same object; the
        public `instantiate` returns an equal algebra that is not retained."""
        values = [field.scalar(v) for v in (0, 1, 2, -1, "1/2" if field.p != 2 else 1)]
        for fam in FAMILY_ORDER[regime_for_field(field)]:
            for k in range(len(values)):
                args = tuple(values[(k + j) % len(values)] for j in range(fam.arity))
                env = dict(zip(fam.params, args))
                fresh = [[eval_expr(parse_expr(cell), field, env) for cell in row]
                         for row in fam.rows]
                built = _instance(fam, field, args)
                assert built.field == field and [list(r) for r in built.rows] == fresh
                assert _instance(fam, field, args) is built
                public = fam.instantiate(field, list(args))
                assert public == built and public is not built
                assert fam.instantiate(field, args) is not public

    def test_public_instantiate_leaves_the_catalog_memo_alone(self):
        """10,000 distinct public calls add nothing to `_instance`."""
        fam, F101 = family("A2"), field_make(101)
        before = _instance.cache_info().currsize
        for point in itertools.islice(itertools.product(range(101), repeat=fam.arity), 10_000):
            fam.instantiate(F101, tuple(map(F101.scalar, point)))
        assert _instance.cache_info().currsize == before

    def test_algebras_refuse_attribute_assignment(self):
        """An Msc is immutable, so the algebras the catalog shares through
        its memos cannot be changed under another caller."""
        shared = claimed_rows(REGIME_CHAR3, "I1", F3)[0].instances(F3)[0].algebra
        rows = shared.rows
        for A in (shared, family("A4").instantiate(QQ, (_q(1), _q(0)))):
            with pytest.raises(AttributeError):
                A.rows = A.rows[::-1]
            with pytest.raises(AttributeError):
                A.field = F5
        assert shared.rows is rows and shared.field == F3

    def test_instantiate_memo_raises_on_every_bad_call(self):
        a4 = family("A4")
        a4.instantiate(QQ, (_q(1), _q(0)))
        for _ in range(3):
            with pytest.raises(ParamCountMismatch):
                a4.instantiate(QQ, (_q(1),))
            with pytest.raises(ParamCountMismatch):
                a4.instantiate(QQ, (_q(1), _q(0), _q(0)))
            with pytest.raises(CharMismatch):
                a4.instantiate(F2, (F2.scalar(1), F2.scalar(0)))
            with pytest.raises(CharMismatch):
                family("A4_2").instantiate(QQ, (_q(1), _q(0)))

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            family("A13")

    def test_every_param_has_bare_cell(self):
        for fam in FAMILIES.values():
            cells = {cell.strip() for row in fam.rows for cell in row}
            assert set(fam.params) <= cells, fam.name

    def test_char3_templates_divergences(self):
        # the three char-3 templates that differ from their char0 siblings
        a53 = family("A5_3").instantiate(F3, (F3.scalar(1),))
        assert a53.to_json()["entries"][1] == [1, 1, 0, 0]
        a93 = family("A9_3").instantiate(F3, ())
        assert a93.to_json()["entries"] == [[0, 1, 1, 0], [1, 0, 0, 2]]
        a113 = family("A11_3").instantiate(F3, ())
        assert a113.to_json()["entries"] == [[1, 0, 0, 0], [1, 2, 2, 0]]


class TestClaimTables:
    def test_all_thirty_identities_covered(self):
        for regime in REGIMES:
            missing = [f"I{k}" for k in range(1, 31)
                       if f"I{k}" not in CLAIMED_SOLUTIONS[regime]]
            assert missing == []

    def test_unknown_lookups(self):
        with pytest.raises(UnknownIdentity):
            claimed_rows(REGIME_CHAR0, "I31")
        with pytest.raises(UnknownIdentity):
            claimed_rows("char7", "I1")

    def test_rows_reference_matching_regime_families(self):
        for regime, table in CLAIMED_SOLUTIONS.items():
            for rows in table.values():
                for row in rows:
                    assert family(row.family).regime == regime

    def test_repeated_bare_argument_is_one_free(self):
        row = SELF_OPPOSITE[REGIME_CHAR0][0]
        assert row.label() == "A1(a1, -a1, a2, a2)"
        assert row.frees == ("a1", "a2")

    def test_char5_swap_only_for_i19(self):
        assert claimed_rows(REGIME_CHAR0, "I19", F5) is CHAR5_I19_ROWS
        assert claimed_rows(REGIME_CHAR0, "I19", QQ) is not CHAR5_I19_ROWS
        assert claimed_rows(REGIME_CHAR0, "I19", field_make(7)) is not CHAR5_I19_ROWS
        assert claimed_rows(REGIME_CHAR0, "I18", F5) == claimed_rows(
            REGIME_CHAR0, "I18")

    def test_char2_pairs_have_identical_lists(self):
        for a, b in CHAR2_IDENTITY_PAIRS:
            assert claimed_rows(REGIME_CHAR2, a) == claimed_rows(REGIME_CHAR2, b)

    def test_radical_row_instances_over_f3(self):
        rows = claimed_rows(REGIME_CHAR3, "I19")
        plus = next(r for r in rows if "sqrt(a1 - a1^2)" in r.args[1]
                    and not r.args[1].startswith("-"))
        minus = next(r for r in rows if r.args[1].startswith("-sqrt"))
        got_plus = [i for i in plus.instances(F3) if not i.skip_reason]
        got_minus = [i for i in minus.instances(F3) if not i.skip_reason]
        assert [i.label() for i in got_plus] == ["A4_3(2, 1)"]
        assert [i.label() for i in got_minus] == ["A4_3(2, 2)"]

    def test_char5_i19_instances_match_handwork(self):
        # concrete instances over F5: the A4 radical branches give (3,2),(3,3);
        # both A5 branches die on division by 10 = 0; A8(1/3)=A8(2), A8(3/2)=A8(4)
        labels, skips = [], []
        for row in CHAR5_I19_ROWS:
            for ins in row.instances(F5):
                if ins.skip_reason:
                    skips.append((row.label(), ins.skip_reason))
                else:
                    labels.append(ins.label())
        assert "A4(3, 2)" in labels and "A4(3, 3)" in labels
        assert "A8(2)" in labels and "A8(4)" in labels
        assert "A9" in labels and "A2(3, 0, 3)" in labels and "A2(3, 0, 2)" in labels
        a5_skips = [s for s in skips if s[0].startswith("A5")]
        assert len(a5_skips) == 2
        assert all("division by zero" in reason for _, reason in a5_skips)

    def test_rational_sample_pools_realize_radicals(self):
        # every frozen sample point of every char0 radical row must evaluate
        # cleanly (the pool was chosen to make the radicand a perfect square)
        for ident, rows in CLAIMED_SOLUTIONS[REGIME_CHAR0].items():
            for row in rows:
                if not row.samples:
                    continue
                insts = row.instances(QQ)
                assert len(insts) >= 5, (ident, row.label())
                assert all(not i.skip_reason for i in insts), (ident, row.label())

    def test_constant_radical_rows_skip_over_q(self):
        rows = claimed_rows(REGIME_CHAR0, "I19")
        golden = next(r for r in rows if r.args == ("(5 - sqrt(5))/10",))
        (ins,) = golden.instances(QQ)
        assert "square root unavailable" in ins.skip_reason

    def test_symbolic_algebra_shape(self):
        row = claimed_rows(REGIME_CHAR0, "I1")[0]
        sym = row.symbolic_algebra(QQ)
        assert sym is not None and not sym.is_concrete()
        assert str(sym.rows[1][2]) == "-a1 + 1"
        radical = claimed_rows(REGIME_CHAR0, "I19")[3]
        assert radical.symbolic_algebra(QQ) is None

    def test_erratum_rows_flagged(self):
        i2 = claimed_rows(REGIME_CHAR0, "I2")
        assert [r.label() for r in i2] == ["A4(0, -1)", "A12"]
        assert i2[1].erratum
        i1c3 = claimed_rows(REGIME_CHAR3, "I1")
        marked = [r for r in i1c3 if r.erratum]
        assert [r.label() for r in marked] == ["A5_3(a1)"]

    def test_unsatisfiable_condition_row_has_no_f2_instances(self):
        rows = claimed_rows(REGIME_CHAR2, "I19")
        a5 = next(r for r in rows if r.family == "A5_2")
        assert a5.zero == ("a1^2 + a1 + 1",)
        assert a5.instances(F2) == []


class TestOppositeTables:
    def test_frees_are_the_bare_source_arguments(self):
        frees = {row.label(): row.frees for row in OPPOSITE_TABLES[REGIME_CHAR0]}
        assert frees["opposite(A4(a1, -a1)) = A8(a1)"] == ("a1",)
        assert frees["opposite(A8(a1)) = A4(a1, -a1)"] == ("a1",)
        assert frees["opposite(A5(1/3)) = A9"] == ()

    def test_equal_rows_hold_symbolically_char0(self):
        for row in OPPOSITE_TABLES[REGIME_CHAR0]:
            if row.kind != "equal":
                continue
            env = {f: MultiPoly.var(QQ, f) for f in row.frees}
            src = family(row.source_family).instantiate(
                QQ, [expr_to_poly(parse_expr(a), QQ, env)
                     for a in row.source_args])
            img = family(row.image_family).instantiate(
                QQ, [expr_to_poly(parse_expr(a), QQ, env)
                     for a in row.image_args])
            assert src.opposite() == img, row.label()

    @pytest.mark.parametrize("regime,field", [
        (REGIME_CHAR2, F2), (REGIME_CHAR3, F3)])
    def test_equal_rows_hold_pointwise_finite(self, regime, field):
        for row in OPPOSITE_TABLES[regime]:
            if row.kind != "equal":
                continue
            for ins in row.instances(field):
                assert not ins.skip_reason
                assert ins.source.opposite() == ins.image, (row.label(), ins.point)

    def test_char0_witnessed_iso_rows_at_samples(self):
        for row in OPPOSITE_TABLES[REGIME_CHAR0]:
            if row.kind != "iso":
                continue
            insts = row.instances(QQ)
            assert len(insts) == 5, row.label()
            for ins in insts:
                assert not ins.skip_reason, (row.label(), ins.skip_reason)
                moved = change_basis(ins.source.opposite(), ins.witness)
                assert moved == ins.image, (row.label(), ins.point)
                assert conjugates_to(ins.source.opposite(), ins.image,
                                     ins.witness)

    def test_a1_row_fully_symbolic(self):
        row = OPPOSITE_TABLES[REGIME_CHAR0][0]
        assert row.fully_polynomial()
        env = {f: MultiPoly.var(QQ, f) for f in row.frees}
        src = family("A1").instantiate(
            QQ, [expr_to_poly(parse_expr(a), QQ, env) for a in row.source_args])
        img = family("A1").instantiate(
            QQ, [expr_to_poly(parse_expr(a), QQ, env) for a in row.image_args])
        g = [[expr_to_poly(parse_expr(c), QQ, env) for c in r]
             for r in row.witness]
        assert conjugates_to(src.opposite(), img, g)

    def test_every_family_appears_as_source(self):
        for regime in REGIMES:
            sources = {r.source_family for r in OPPOSITE_TABLES[regime]}
            assert sources == {f.name for f in FAMILY_ORDER[regime]}

    def test_self_opposite_lists_reference_own_regime(self):
        for regime, rows in SELF_OPPOSITE.items():
            for row in rows:
                assert family(row.family).regime == regime
        # the one row needing sqrt(-1) is marked in char0 and char3
        for regime in (REGIME_CHAR0, REGIME_CHAR3):
            flagged = [r for r in SELF_OPPOSITE[regime] if r.sqrt_requirements]
            assert len(flagged) == 1
            assert flagged[0].args[-1] == "-1"


class TestNegatives:
    def test_char0_i2_negatives(self):
        negs = negative_instances(REGIME_CHAR0, "I2", QQ)
        assert [(f.name, tuple(str(a.value) for a in args))
                for f, args, _ in negs] == [
            ("A1", ("2", "2", "2", "2")),
            ("A2", ("2", "2", "2")),
            ("A3", ("2", "2")),
        ]

    def test_negatives_skip_covered_instances(self):
        # parameter-free listed families are covered, so never negatives
        negs = negative_instances(REGIME_CHAR0, "I27", QQ, count=12)
        fams = [f.name for f, _, _ in negs]
        assert "A12" not in fams
        # char2 I27 claims A6_2(a1, 0) and A8_2(a1) with a1 free; the all-2
        # candidates reduce to A6_2(0, 0) and A8_2(0), which are covered
        negs2 = negative_instances(REGIME_CHAR2, "I27", F2, count=12)
        fams2 = [f.name for f, _, _ in negs2]
        assert "A6_2" not in fams2 and "A8_2" not in fams2
        assert "A11_2" in fams2  # not claimed for I27 at all

    def test_covers_respects_radicals_and_conditions(self):
        r19 = claimed_rows(REGIME_CHAR0, "I19")[3]  # A4(a1, sqrt(a1 - a1^2))
        good = family("A4").instantiate(QQ, (_q("1/2"), _q("1/2")))
        bad = family("A4").instantiate(QQ, (_q(2), _q(2)))
        edge = family("A4").instantiate(QQ, (_q(1), _q(0)))  # violates a1 != 1
        assert row_covers(r19, QQ, good)
        assert not row_covers(r19, QQ, bad)
        assert not row_covers(r19, QQ, edge)

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
    def test_row_covers_exactly_the_row_instances(self, field):
        """Over F_p a row's instances are all its admissible points, so
        `row_covers` holds exactly when the candidate is one of them: for
        every claimed row of the field's regime and every negative-check
        candidate and claimed instance."""
        regime = regime_for_field(field)
        rows = {row for rows in CLAIMED_SOLUTIONS[regime].values() for row in rows}
        if regime == REGIME_CHAR0:
            rows.update(CHAR5_I19_ROWS)
        instances = {row: {ins.algebra for ins in row.instances(field)
                           if not ins.skip_reason} for row in rows}
        candidates = set().union(*instances.values()) | {
            candidate for k in range(1, 31)
            for _, _, candidate in negative_instances(regime, f"I{k}", field)}
        covered = 0
        for row in rows:
            for candidate in candidates:
                got = row_covers(row, field, candidate)
                assert got == (candidate in instances[row]), (row.label(), candidate)
                covered += got
        assert 0 < covered < len(rows) * len(candidates)

    @pytest.mark.parametrize("regime,field", [
        (REGIME_CHAR0, QQ), (REGIME_CHAR2, F2), (REGIME_CHAR3, F3)])
    def test_three_negatives_exist_everywhere(self, regime, field):
        for k in range(1, 31):
            negs = negative_instances(regime, f"I{k}", field)
            assert len(negs) == 3, (regime, k)


# ---------------------------------------------------------------------------
# The compiled texts against the expression walker (tests/expr_oracle.py)


def _catalog_texts():
    """{text: the sample points (tuples of (name, text) pairs) it is read at
    over Q} for every distinct catalog text: template cells, row arguments,
    side conditions, samples, square-root requirements and witness entries."""
    texts = {}

    def add(row_texts, frees=(), samples=()):
        points = [tuple(zip(frees, sample)) for sample in samples]
        for text in row_texts:
            texts.setdefault(text, set()).update(points)
        for sample in samples:
            add(sample)

    for fam in FAMILIES.values():
        add(fam.rows[0] + fam.rows[1])
    claim_rows = [row for table in CLAIMED_SOLUTIONS.values()
                  for rows in table.values() for row in rows]
    claim_rows += list(CHAR5_I19_ROWS)
    claim_rows += [row for rows in SELF_OPPOSITE.values() for row in rows]
    for row in claim_rows:
        add(row.args + row.nonzero + row.zero + row.sqrt_requirements,
            row.frees, row.samples)
    for rows in OPPOSITE_TABLES.values():
        for row in rows:
            witness = row.witness[0] + row.witness[1] if row.witness else ()
            add(row.source_args + row.image_args + witness + row.nonzero,
                row.frees, row.samples)
    return texts


_RATIONALS = ("0", "1", "-1", "2", "1/2", "-1/3")


def _object_bindings(field, name):
    """What `name` is bound to in the object-domain tests: nothing, a Scalar,
    constant polynomials (zero, a square, a MAX_BITS-bit value), its own
    variable, a variable shared by all names, and a polynomial in both."""
    x, t = MultiPoly.var(field, name), MultiPoly.var(field, "t")
    return (None, field.scalar(2), MultiPoly.zero(field), MultiPoly.const(field, 4),
            MultiPoly.const(field, 2 ** (MAX_BITS - 1)), x, t, x * t - field.one())


_CRAFTED = (
    "sqrt(x)/(b - b)",          # the denominator is evaluated before the numerator
    "1/x + sqrt(b)",            # operands left to right
    "sqrt(b) + 1/x",
    "x^0 + (b - b)^0",          # an empty product is the Scalar one
    "x^1 - x/2 + b/x",
    "sqrt(x^2) + sqrt(x - x + 4)",
    "(x + 1)*(b - 2)^2/3 - sqrt(4) + x b^3",
    "q + x",                    # q is bound by no test point
)


class TestCompiledTexts:
    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
    def test_compiled_texts_match_the_walker(self, field):
        """Every distinct catalog text, at every assignment of its variables
        over F2, F3 and F5, and over Q at a grid of small rationals and at
        the sample points of the rows it belongs to, gives the walker's value
        or raises the walker's error with its message, by the compiled
        text."""
        texts = _catalog_texts()
        assert len(texts) > 80
        checked = failed = 0
        for text, samples in sorted(texts.items()):
            node = parse_expr(text)
            names = sorted(_names(node))
            if field.kind == "Fp":
                points = itertools.product(field.elements(), repeat=len(names))
                envs = [dict(zip(names, pt)) for pt in points]
            else:
                envs = [dict(zip(names, map(QQ.scalar, pt)))
                        for pt in itertools.product(_RATIONALS, repeat=len(names))]
                envs += [{name: oracle.eval_expr(parse_expr(t), QQ, {}) for name, t in sample}
                         for sample in samples]
            for env in envs:
                want = outcome(lambda: oracle.eval_expr(node, field, env))
                assert outcome(lambda: _compiled(text, field)(env)) == want, \
                    (text, field, env)
                checked += 1
                failed += want[0] is not Scalar
        assert checked > len(texts) and failed > 0  # some texts refuse some points

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
    def test_polynomial_bindings_match_the_walker(self, field):
        """`expr_to_poly` and `eval_expr` on every distinct catalog text and
        on crafted texts, with each name unbound or bound to a Scalar or a
        polynomial, give the walker's value, of the same type, or raise the
        walker's error with its message."""
        rng = random.Random(1)
        seen = Counter()
        for text in sorted(_catalog_texts()) + list(_CRAFTED):
            node = parse_expr(text)
            names = sorted(_names(node))
            choices = [_object_bindings(field, name) for name in names]
            if len(names) <= 2:
                combos = list(itertools.product(*choices))
            else:
                combos = [tuple(map(rng.choice, choices)) for _ in range(32)]
            for combo in combos:
                env = {name: v for name, v in zip(names, combo) if v is not None}
                want = outcome(lambda: oracle.expr_to_poly(node, field, env))
                assert outcome(lambda: expr_to_poly(node, field, env)) == want, \
                    (text, field, env)
                want = outcome(lambda: oracle.eval_expr(node, field, env))
                assert outcome(lambda: eval_expr(node, field, env)) == want, \
                    (text, field, env)
                seen[want[1] if want[0] is AlgidError else want[0]] += 1
        assert seen[Scalar] and seen[MultiPoly]
        assert bool(seen[NumberTooLong]) == (field.kind == "Q")  # residues never grow
        assert seen["division by a non-constant expression"]
        assert seen["sqrt of a non-constant expression"]

    def test_template_cells_keep_the_bit_bound(self):
        """A user argument of MAX_BITS bits passes a bare cell, and the cell
        that adds 1 to it refuses, as the walker does."""
        big = QQ.scalar(2 ** (MAX_BITS - 1))
        assert family("A4").instantiate(QQ, (_q(1), big)).rows[1][1] == big
        with pytest.raises(NumberTooLong) as walker:
            oracle.eval_expr(parse_expr("a2 + 1"), QQ, {"a2": big})
        with pytest.raises(NumberTooLong) as compiled:
            family("A1").instantiate(QQ, (_q(1), big, _q(1), _q(1)))
        assert str(compiled.value) == str(walker.value)
        # one bit less fits, and the sum is exact
        fits = QQ.scalar(2 ** (MAX_BITS - 2))
        A1 = family("A1").instantiate(QQ, (_q(1), fits, _q(1), _q(1)))
        assert A1.rows[0][2] == fits + _q(1)


class TestInstanceMemo:
    @staticmethod
    def _built(field):
        """Every claim and opposite row of the field's regime -> its
        instances and its instance at the symbolic point."""
        regime = regime_for_field(field)
        claims = {row for rows in CLAIMED_SOLUTIONS[regime].values() for row in rows}
        claims.update(SELF_OPPOSITE[regime])
        if regime == REGIME_CHAR0:
            claims.update(CHAR5_I19_ROWS)
        out = {row: (row.instances(field), row.symbolic_algebra(field)) for row in claims}
        out.update({row: (row.instances(field),
                          row.symbolic(field) if row.fully_polynomial() else None)
                    for row in OPPOSITE_TABLES[regime]})
        return out

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
    def test_memoised_instances_equal_a_fresh_build(self, field):
        """row_covers fills the tables at points read off candidates, and
        instances and the symbolic point fill them too, in either order."""
        regime = regime_for_field(field)

        def negatives():
            return [negative_instances(regime, f"I{k}", field) for k in range(1, 31)]

        _table.cache_clear()
        fresh, covered = self._built(field), negatives()
        for negatives_first in (True, False):
            _table.cache_clear()
            if negatives_first:
                assert negatives() == covered
            memoised = self._built(field)
            assert memoised.keys() == fresh.keys()
            for row, got in memoised.items():
                assert got == fresh[row], row.label()
            assert negatives() == covered

    @pytest.mark.parametrize("row", [CLAIMED_SOLUTIONS[REGIME_CHAR0]["I3"][0],
                                     OPPOSITE_TABLES[REGIME_CHAR0][0]],
                             ids=["claim", "opposite"])
    def test_instances_are_a_fresh_list(self, row):
        got = row.instances(F5)
        want = list(got)
        assert want
        got.clear()
        got.append(None)
        assert row.instances(F5) == want

    def test_row_covers_never_enumerates(self):
        """A candidate reads its one point off its entries, so the negative
        spot-checks run over F149, where a two-parameter row has more points
        than may be enumerated."""
        F149 = field_make(149)
        _table.cache_clear()
        negatives = negative_instances(REGIME_CHAR0, "I1", F149)
        assert [(fam.name, args) for fam, args, _ in negatives] == [
            ("A1", (F149.scalar(2),) * 4), ("A2", (F149.scalar(2),) * 3),
            ("A3", (F149.scalar(2),) * 2)]
        row = claimed_rows(REGIME_CHAR0, "I1")[0]
        assert row.label() == "A2(a1, b1, 1 - a1)"
        with pytest.raises(SearchSpaceTooLarge, match="22201 parameter points over F_149"):
            row.instances(F149)
