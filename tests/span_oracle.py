"""The `MultiPoly` route of span comparison: the test oracle of
`algid.expander.span_equal`, which reduces plain term dicts instead.

This is the reduction on polynomial objects, with `MultiPoly` subtraction
and scaling doing the field arithmetic, kept as it was before the plain
route replaced it.
"""

from typing import Dict, Optional

from algid.errors import FieldMismatch
from algid.exactnum import Field
from algid.expander import SpanReport
from algid.multipoly import Monomial, MultiPoly, mon_sort_key


def _lead(p: MultiPoly) -> Monomial:
    return min(p.terms, key=mon_sort_key)


def _monic(p: MultiPoly) -> MultiPoly:
    return p.scale(p.field.inverse(p.terms[_lead(p)]))


def _reduce(p: MultiPoly, basis: Dict[Monomial, MultiPoly],
            field: Optional[Field]) -> MultiPoly:
    if field is not None and p.field != field:
        raise FieldMismatch(f"{p.field} vs {field}")
    for lead in [m for m in p.terms if m in basis]:
        p = p - basis[lead].scale(p.terms[lead])
    return p


def _reduced_basis(polys, field: Optional[Field]) -> Dict[Monomial, MultiPoly]:
    basis: Dict[Monomial, MultiPoly] = {}
    for p in polys:
        q = _reduce(p, basis, field)
        if q.is_zero():
            continue
        q = _monic(q)
        lead = _lead(q)
        for m, b in basis.items():
            if lead in b.terms:
                basis[m] = b - q.scale(b.terms[lead])
        basis[lead] = q
    return basis


def span_contains(container, contained, field: Optional[Field]) -> Optional[int]:
    basis = _reduced_basis(container, field)
    for i, p in enumerate(contained):
        if not _reduce(p, basis, field).is_zero():
            return i
    return None


def span_equal(lhs, rhs, field: Optional[Field] = None) -> SpanReport:
    i = span_contains(lhs, rhs, field)
    if i is not None:
        return SpanReport(False, "rhs", i, list(rhs)[i])
    i = span_contains(rhs, lhs, field)
    if i is not None:
        return SpanReport(False, "lhs", i, list(lhs)[i])
    return SpanReport(True)
