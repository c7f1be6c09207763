"""Records (NamedTuple classes) and identity nodes compare, hash, print and
test true like frozen dataclasses."""

import pytest

from algid.expander import Equation, FormalCheck, SpanReport
from algid.identity_lang import Identity, Prod, Var, parse_identity
from algid.verifier import PASS, ReportRow


def test_records_equal_only_records_of_their_own_class():
    row = ReportRow("s", "l", PASS)
    assert row == ReportRow("s", "l", PASS, "") and not row != ReportRow("s", "l", PASS)
    assert hash(row) == hash(ReportRow("s", "l", PASS)) == hash(("s", "l", PASS, ""))
    ident = parse_identity("u*v = v*u", name="I1")
    fields = (ident.name, ident.lhs, ident.rhs)
    for record, other in ((row, ("s", "l", PASS, "")), (ident, fields),
                          (ident, Equation(*fields))):
        assert record != other and other != record
        assert not record == other and not other == record
    assert row != None and row != 1  # noqa: E711


def test_records_print_and_test_true_like_dataclasses():
    assert repr(ReportRow("s", "l", PASS)) == (
        "ReportRow(section='s', label='l', status='pass', detail='')")
    assert repr(SpanReport(True)) == (
        "SpanReport(equal=True, missing_side=None, missing_index=None, missing_poly=None)")
    assert SpanReport(True) and not SpanReport(False)
    assert FormalCheck(False, None)
    with pytest.raises(AttributeError):
        row = ReportRow("s", "l", PASS)
        row.status = "fail"


def test_nodes_print_like_dataclasses_and_stay_frozen():
    node = parse_identity("[u,v]*w^2").lhs
    assert repr(node) == (
        "Sum(terms=((1, Prod(left=Comm(left=Var(name='u'), right=Var(name='v')), "
        "right=Prod(left=Var(name='w'), right=Var(name='w')))),))")
    assert repr(Identity("x", node, node)).startswith("Identity(name='x', lhs=Sum(")
    with pytest.raises(AttributeError):
        node.terms = ()
    with pytest.raises(AttributeError):
        Var("u").name = "v"
    with pytest.raises(TypeError):
        Prod(Var("u"))
