"""Expansion of identities into polynomial systems of structure constants.

Substituting generic coordinate vectors u = x1 e1 + x2 e2, v = y1 e1 + ...
into an identity and collecting the coefficient of every coordinate monomial
in both components yields a finite system of polynomials in the structure
constants a1..a4, b1..b4.  The identity holds formally iff the system is the
zero system, and two identities impose the same constraints iff their systems
span the same linear subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra_core import Msc, Vec, identity_mat, mat_kron, mat_mul
from .errors import AlgidError, FieldMismatch, TooManyVariables
from .exactnum import Field, Scalar, inv
from .identity_lang import (
    Assoc,
    Comm,
    Identity,
    Node,
    Prod,
    Sum,
    Var,
    Word,
    identity_variables,
    word_leaves,
    word_terms,
)
from .multipoly import Monomial, MultiPoly, mon_sort_key

COORD_PREFIXES = ("x", "y", "z", "s", "t", "q", "r")


def coordinate_env(field: Field, varnames: Sequence[str]) -> Dict[str, Vec]:
    """Assign symbolic coordinate vectors x, y, z, ... to identity variables."""
    if len(varnames) > len(COORD_PREFIXES):
        raise TooManyVariables(
            f"{len(varnames)} variables exceed the {len(COORD_PREFIXES)} coordinate prefixes"
        )
    return {
        name: Vec.symbolic(field, COORD_PREFIXES[k]) for k, name in enumerate(varnames)
    }


def eval_node(A: Msc, node: Node, env: Dict[str, Vec]) -> Vec:
    """Evaluate an identity expression to a vector in the algebra A."""
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise AlgidError(f"unbound identity variable {node.name!r}") from None
    if isinstance(node, Prod):
        return A.product(eval_node(A, node.left, env), eval_node(A, node.right, env))
    if isinstance(node, Comm):
        return A.commutator(eval_node(A, node.left, env), eval_node(A, node.right, env))
    if isinstance(node, Assoc):
        return A.associator(
            eval_node(A, node.a, env), eval_node(A, node.b, env), eval_node(A, node.c, env)
        )
    if isinstance(node, Sum):
        out = Vec(A.field, [A.field.zero(), A.field.zero()])
        for w, f in node.terms:
            out = out + eval_node(A, f, env).scale(A.field.scalar(w))
        return out
    raise TypeError(f"not an identity node: {node!r}")


@dataclass(frozen=True)
class Equation:
    """One coefficient equation: (component row, coordinate monomial, polynomial)."""

    row: int
    monomial: Monomial
    poly: MultiPoly


class PolySystem:
    """The coefficient equations of one expanded identity, in canonical order."""

    def __init__(self, field: Field, equations: Sequence[Equation], identity_name: str = ""):
        self.field = field
        self.identity_name = identity_name
        self.equations: Tuple[Equation, ...] = tuple(
            sorted(equations, key=lambda e: (e.row, mon_sort_key(e.monomial)))
        )
        seen = set()
        polys: List[MultiPoly] = []
        for eq in self.equations:
            key = frozenset(eq.poly.terms.items())
            if key not in seen:
                seen.add(key)
                polys.append(eq.poly)
        self.polys: Tuple[MultiPoly, ...] = tuple(polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self) -> Iterator[MultiPoly]:
        return iter(self.polys)

    def is_zero(self) -> bool:
        return not self.polys

    def render_lines(self) -> List[str]:
        return [f"{p.render()} = 0" for p in self.polys]

    def normalized_polys(self) -> List[MultiPoly]:
        """Unique equations up to a scalar factor, each made monic in its
        graded-lex leading term (the form systems are usually printed in)."""
        from .exactnum import inv

        out: List[MultiPoly] = []
        seen = set()
        for p in self.polys:
            lead = next(iter(p.sorted_terms()))[1]
            monic = p.scale(inv(lead))
            if monic not in seen:
                seen.add(monic)
                out.append(monic)
        return out

    def render_normalized_lines(self) -> List[str]:
        return [f"{p.render()} = 0" for p in self.normalized_polys()]

    def to_json(self) -> dict:
        return {
            "identity": self.identity_name,
            "field": self.field.to_json(),
            "count": len(self.polys),
            "polys": [{"text": p.render(), "terms": p.to_json()} for p in self.polys],
        }


def expand(ident: Identity, A: Optional[Msc] = None, field: Optional[Field] = None) -> PolySystem:
    """Expand an identity over the algebra A (default: the generic algebra).

    The system is empty exactly when the identity holds formally on A.
    """
    if A is None:
        from .exactnum import QQ

        A = Msc.generic(field if field is not None else QQ)
    elif field is not None and field != A.field:
        raise FieldMismatch(f"{field} vs {A.field}")
    varnames = identity_variables(ident)
    env = coordinate_env(A.field, varnames)
    delta = eval_node(A, ident.lhs, env) - eval_node(A, ident.rhs, env)
    coord_names = {f"{COORD_PREFIXES[k]}{i}" for k in range(len(varnames)) for i in (1, 2)}
    equations = []
    for row in (0, 1):
        # An identity without variables ("0 = 0") leaves a Scalar entry.
        entry = MultiPoly.coerce(A.field, delta.entries[row])
        for mon, coeff in entry.collect_coefficients(coord_names).items():
            equations.append(Equation(row, mon, coeff))
    return PolySystem(A.field, equations, ident.name)


# -- linear span comparison ------------------------------------------------------


@dataclass(frozen=True)
class SpanReport:
    equal: bool
    missing_side: Optional[str] = None  # which input owns the unmatched polynomial
    missing_index: Optional[int] = None
    missing_poly: Optional[MultiPoly] = None

    def __bool__(self) -> bool:
        return self.equal


PolyList = Union[PolySystem, Sequence[MultiPoly]]


def _poly_list(x: PolyList) -> List[MultiPoly]:
    return list(x.polys) if isinstance(x, PolySystem) else list(x)


def _rref(polys: Sequence[MultiPoly], field: Field):
    """Exact reduced row echelon form over the union monomial basis."""
    monomials = sorted({m for p in polys for m in p.terms}, key=mon_sort_key)
    index = {m: i for i, m in enumerate(monomials)}
    zero = field.zero()
    rows = []
    for p in polys:
        row = [zero] * len(monomials)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    pivots: List[Tuple[int, List[Scalar]]] = []
    for row in rows:
        for col, prow in pivots:
            if not row[col].is_zero():
                factor = row[col]
                row = [x - factor * y for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if not x.is_zero()), None)
        if lead is None:
            continue
        scale = inv(row[lead])
        row = [scale * x for x in row]
        for col, prow in pivots:
            if not prow[lead].is_zero():
                factor = prow[lead]
                prow[:] = [x - factor * y for x, y in zip(prow, row)]
        pivots.append((lead, row))
    pivots.sort(key=lambda t: t[0])
    return monomials, index, pivots


def _reduces_to_zero(p: MultiPoly, monomials, index, pivots, field: Field) -> bool:
    if any(m not in index for m in p.terms):
        return False
    row = [field.zero()] * len(monomials)
    for m, c in p.terms.items():
        row[index[m]] = c
    for col, prow in pivots:
        if not row[col].is_zero():
            factor = row[col]
            row = [x - factor * y for x, y in zip(row, prow)]
    return all(x.is_zero() for x in row)


def span_contains(container: PolyList, contained: PolyList, field: Field) -> Optional[int]:
    """Index of the first polynomial of `contained` outside span(container), if any."""
    basis = _rref(_poly_list(container), field)
    for i, p in enumerate(_poly_list(contained)):
        if not _reduces_to_zero(p, *basis, field):
            return i
    return None


def span_equal(lhs: PolyList, rhs: PolyList, field: Optional[Field] = None) -> SpanReport:
    """Do two polynomial systems span the same linear subspace?"""
    if field is None:
        for x in (lhs, rhs):
            if isinstance(x, PolySystem):
                field = x.field
                break
        else:
            probe = (_poly_list(lhs) or _poly_list(rhs))
            if not probe:
                return SpanReport(True)
            field = probe[0].field
    i = span_contains(lhs, rhs, field)
    if i is not None:
        return SpanReport(False, "rhs", i, _poly_list(rhs)[i])
    i = span_contains(rhs, lhs, field)
    if i is not None:
        return SpanReport(False, "lhs", i, _poly_list(lhs)[i])
    return SpanReport(True)


# -- tensor-matrix route ----------------------------------------------------------


def word_tensor_matrix(A: Msc, word: Word):
    """The 2 x 2^l matrix M with w(u1,..,ul) = M . (u1 (x) ... (x) ul).

    Defined recursively by M(leaf) = I and M(w1 w2) = A . (M(w1) (x) M(w2)).
    """
    if isinstance(word, Var):
        return identity_mat(A.field, 2)
    if isinstance(word, Prod):
        return mat_mul(
            [list(r) for r in A.rows],
            mat_kron(word_tensor_matrix(A, word.left), word_tensor_matrix(A, word.right)),
        )
    raise TypeError(f"not a plain word: {word!r}")


def identity_tensor_matrix(A: Msc, ident: Identity):
    """Tensor matrix of lhs - rhs for identities whose words are ordered and
    multilinear (each word's leaves read exactly u1, .., ul in variable order).

    The identity holds formally on A iff the matrix vanishes; its entries are
    the same coefficient polynomials that `expand` produces, arranged by
    Kronecker column.  Raises AlgidError when a word is not ordered.
    """
    order = identity_variables(ident)
    combined: Dict[Word, int] = dict(word_terms(ident.lhs))
    for w, c in word_terms(ident.rhs).items():
        n = combined.get(w, 0) - c
        if n:
            combined[w] = n
        else:
            combined.pop(w, None)
    if not combined:
        return [[A.field.zero()] * (2 ** len(order)) for _ in range(2)]
    for w in combined:
        if list(word_leaves(w)) != order:
            raise AlgidError(
                f"word {w!r} is not the ordered product of the identity variables"
            )
    width = 2 ** len(order)
    total = None
    for w, c in sorted(combined.items(), key=lambda t: repr(t[0])):
        s = A.field.scalar(c)
        mat = [[s * x for x in row] for row in word_tensor_matrix(A, w)]
        if total is None:
            total = mat
        else:
            total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, mat)]
    assert total is not None and len(total[0]) == width
    return total
