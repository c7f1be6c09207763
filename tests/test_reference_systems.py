"""Expanded systems agree with independently transcribed reference systems."""

import pytest

from reference_systems import (
    I18_WORKED_REDUCTIONS,
    I23_WORKED_REDUCTIONS,
    KNOWN_MISPRINTED_SYSTEMS,
    PRINT_ERRATA,
    REFERENCE_SYSTEMS,
    corrected_system,
)

from algid.algebra_core import Msc
from algid.canon_catalog import family
from algid.exactnum import QQ
from algid.expander import expand, span_contains, span_equal, word_tensor_matrix
from algid.identity_lang import get_identity
from algid.multipoly import MultiPoly, parse_poly

ALL_LABELS = sorted(REFERENCE_SYSTEMS, key=lambda s: int(s[1:]))
CLEAN_LABELS = [
    label for label in ALL_LABELS
    if label not in KNOWN_MISPRINTED_SYSTEMS and label not in PRINT_ERRATA
]


def _parsed(rows):
    return [parse_poly(s, QQ) for s in rows]


def _symbolic(fam_name):
    fam = family(fam_name)
    return fam.instantiate(QQ, [MultiPoly.var(QQ, p) for p in fam.params])


class TestGenericSystems:
    @pytest.mark.parametrize("label", CLEAN_LABELS)
    def test_reference_system_spans_expansion(self, label):
        rep = span_equal(expand(get_identity(label)), _parsed(REFERENCE_SYSTEMS[label]))
        assert rep.equal, rep

    @pytest.mark.parametrize("label", sorted(PRINT_ERRATA))
    def test_repaired_rows_close_the_gap(self, label):
        assert not span_equal(
            expand(get_identity(label)), _parsed(REFERENCE_SYSTEMS[label])
        ).equal
        rep = span_equal(expand(get_identity(label)), _parsed(corrected_system(label)))
        assert rep.equal, rep

    @pytest.mark.parametrize("label,printed,repaired", [
        (label,) + pair for label in sorted(PRINT_ERRATA)
        for pair in PRINT_ERRATA[label]
    ])
    def test_exactly_one_bad_row(self, label, printed, repaired):
        system = expand(get_identity(label))
        assert span_contains(system, _parsed([printed]), QQ) is not None
        assert span_contains(system, _parsed([repaired]), QQ) is None

    def test_i19_heading_reprints_the_i20_block(self):
        assert KNOWN_MISPRINTED_SYSTEMS == ("I19",)
        assert set(REFERENCE_SYSTEMS["I19"]) == set(REFERENCE_SYSTEMS["I20"])
        block = _parsed(REFERENCE_SYSTEMS["I19"])
        jordan = expand(get_identity("I19"))
        assert span_equal(expand(get_identity("I20")), block).equal
        assert not span_equal(jordan, block).equal
        # not a near-miss: no printed row lies in the Jordan span at all
        assert all(
            span_contains(jordan, [p], QQ) is not None for p in block
        )
        assert not span_equal(jordan, expand(get_identity("I20"))).equal

    def test_i18_keeps_unreduced_coefficients(self):
        assert "3 b4^2 + 3 a4 b2" in REFERENCE_SYSTEMS["I18"]

    def test_i3_matches_tensor_matrix_route(self):
        ident = get_identity("I3")
        (cl, wl), = ident.lhs.terms
        (cr, wr), = ident.rhs.terms
        assert cl == cr == 1
        A = Msc.generic(QQ)
        left = word_tensor_matrix(A, wl)
        right = word_tensor_matrix(A, wr)
        deltas = [left[i][j] - right[i][j] for i in range(2) for j in range(8)]
        assert span_equal(expand(ident), deltas).equal


class TestWorkedReductions:
    @pytest.mark.parametrize("fam_name", sorted(I18_WORKED_REDUCTIONS))
    def test_i18_reduction(self, fam_name):
        system = expand(get_identity("I18"), _symbolic(fam_name))
        rep = span_equal(system, _parsed(I18_WORKED_REDUCTIONS[fam_name]))
        assert rep.equal, rep

    @pytest.mark.parametrize("fam_name", sorted(I23_WORKED_REDUCTIONS))
    def test_i23_reduction(self, fam_name):
        system = expand(get_identity("I23"), _symbolic(fam_name))
        rep = span_equal(system, _parsed(I23_WORKED_REDUCTIONS[fam_name]))
        assert rep.equal, rep

    def test_i18_reductions_decide_membership(self):
        # the families whose reduced system has no constant row admit points;
        # the others are unconditionally excluded
        contradictions = {
            fam_name
            for fam_name, rows in I18_WORKED_REDUCTIONS.items()
            if any(parse_poly(s, QQ).is_constant() for s in rows)
        }
        assert contradictions == {"A3", "A5", "A7"}
