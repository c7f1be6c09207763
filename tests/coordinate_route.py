"""The coordinate route: the test oracles of the tensor plan.

Substituting generic coordinate vectors u = x1 e1 + x2 e2, v = y1 e1 + ...
into an identity over an algebra A, with the algebra's own product, and
collecting the coefficient of every coordinate monomial in both components
gives the identity's coefficient system on A.  This is the definition the
plan (`algid.expander.TensorPlan`) computes by its tensor recursion, done
the slow way with `MultiPoly` arithmetic and nothing shared with the plan
but `Msc.product`.  Evaluating the identity at every tuple of basis vectors
is a second oracle, for multilinear identities.  The printed Section 3 rows
and the 2-variable alternation law are decided here the same way, as the
references for the readings of `expand` in `verifier._worked_row` and
`expander.alternating_determinant_law`.
"""

import itertools
from typing import Dict, Iterable, Sequence, Tuple

from algid.algebra_core import Msc, Vec
from algid.canon_catalog import WorkedRow
from algid.errors import AlgidError, ShapeArityMismatch, TooManyVariables
from algid.exactnum import QQ, Field
from algid.expander import COORD_PREFIXES, Equation, PolySystem, alternating_sum, check_budget
from algid.identity_lang import (
    Assoc,
    Comm,
    Identity,
    Node,
    Prod,
    Sum,
    Var,
    Word,
    identity_variables,
    parse_identity,
    variables,
    word_leaves,
    word_terms,
)
from algid.multipoly import Monomial, MultiPoly, mon_sort_key, parse_poly


def symbolic_vec(field: Field, prefix: str) -> Vec:
    """The generic vector prefix1 e1 + prefix2 e2."""
    return Vec(field, [MultiPoly.var(field, prefix + "1"), MultiPoly.var(field, prefix + "2")])


def basis_vec(field: Field, i: int) -> Vec:
    """The basis vector e_i."""
    return Vec(field, [field.one() if k == i else field.zero() for k in (1, 2)])


def combine(field: Field, terms: Iterable[Tuple[object, Vec]]) -> Vec:
    """The linear combination of the (coefficient, vector) pairs; a
    coefficient is a number or a polynomial."""
    out = [field.zero(), field.zero()]
    for c, u in terms:
        if not isinstance(c, MultiPoly):
            c = field.scalar(c)
        out = [x + c * y for x, y in zip(out, u.entries)]
    return Vec(field, out)


def vec_is_zero(u: Vec) -> bool:
    return all(x.is_zero() for x in u.entries)


def coordinate_env(field: Field, varnames: Sequence[str]) -> Dict[str, Vec]:
    """Assign symbolic coordinate vectors x, y, z, ... to identity variables."""
    if len(varnames) > len(COORD_PREFIXES):
        raise TooManyVariables(
            f"{len(varnames)} variables exceed the {len(COORD_PREFIXES)} coordinate prefixes"
        )
    return {name: symbolic_vec(field, COORD_PREFIXES[k]) for k, name in enumerate(varnames)}


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
        u, v = eval_node(A, node.left, env), eval_node(A, node.right, env)
        return combine(A.field, [(1, A.product(u, v)), (-1, A.product(v, u))])
    if isinstance(node, Assoc):
        a, b, c = (eval_node(A, x, env) for x in (node.a, node.b, node.c))
        return combine(A.field, [(1, A.product(A.product(a, b), c)),
                                 (-1, A.product(a, A.product(b, c)))])
    if isinstance(node, Sum):
        return combine(A.field, [(w, eval_node(A, f, env)) for w, f in node.terms])
    raise TypeError(f"not an identity node: {node!r}")


def _difference(A: Msc, ident: Identity, env: Dict[str, Vec]) -> Vec:
    """lhs - rhs of the identity at the vectors of `env`."""
    return combine(A.field, [(1, eval_node(A, ident.lhs, env)),
                             (-1, eval_node(A, ident.rhs, env))])


def collect_coefficients(poly: MultiPoly, varnames: Iterable[str]) -> Dict[Monomial, MultiPoly]:
    """Group the terms of `poly` by their monomial part in `varnames`.

    The returned coefficient polynomials involve only variables outside
    `varnames`; recombining reproduces the polynomial exactly.  Empty map
    iff the polynomial is zero.
    """
    vs = set(varnames)
    out: Dict[Monomial, dict] = {}
    for m, c in poly.terms.items():
        inner = tuple((v, e) for v, e in m if v in vs)
        outer = tuple((v, e) for v, e in m if v not in vs)
        bucket = out.setdefault(inner, {})
        s = bucket.get(outer)
        bucket[outer] = c if s is None else s + c
    return {
        mon: MultiPoly(poly.field, coeffs)
        for mon, coeffs in out.items()
        if any(coeffs.values())
    }


def substitute(ident: Identity, A: Msc) -> PolySystem:
    """Expand the identity over A by substituting coordinate vectors into A
    itself and collecting coefficients."""
    check_budget(ident)
    varnames = identity_variables(ident)
    delta = _difference(A, ident, coordinate_env(A.field, varnames))
    coord_names = {f"{COORD_PREFIXES[k]}{i}" for k in range(len(varnames)) for i in (1, 2)}
    equations = []
    for row in (0, 1):
        # An identity without variables ("0 = 0") leaves a Scalar entry.
        entry = MultiPoly.coerce(A.field, delta.entries[row])
        for mon, coeff in collect_coefficients(entry, coord_names).items():
            equations.append(Equation(row, mon, coeff))
    equations.sort(key=lambda e: (e.row, mon_sort_key(e.monomial)))
    return PolySystem(A.field, equations, ident.name)


def is_multilinear(ident: Identity) -> bool:
    """True when every expanded word contains each identity variable exactly
    once: the identities `holds_on_basis_tuples` decides."""
    names = set(identity_variables(ident))
    if not names:
        return False
    for side in (ident.lhs, ident.rhs):
        for w in word_terms(side):
            counts: Dict[str, int] = {}
            for name in word_leaves(w):
                counts[name] = counts.get(name, 0) + 1
            if set(counts) != names or any(k != 1 for k in counts.values()):
                return False
    return True


def holds_on_basis_tuples(A: Msc, ident: Identity) -> bool:
    """Satisfaction at every tuple of basis vectors (enough for multilinear
    identities over any field)."""
    names = identity_variables(ident)
    basis = [basis_vec(A.field, 1), basis_vec(A.field, 2)]
    for combo in itertools.product(basis, repeat=len(names)):
        if not vec_is_zero(_difference(A, ident, dict(zip(names, combo)))):
            return False
    return True


def worked_row_holds(row: WorkedRow) -> bool:
    """A printed Section 3 row by substitution: the expression at u, v, w =
    the coordinate vectors x, y, z of the printed texts, minus the printed
    vector, is zero on the row's algebra over Q."""
    A = row.algebra(QQ)
    printed = Vec(QQ, [parse_poly(text, QQ) for text in row.printed])
    env = coordinate_env(QQ, ("u", "v", "w"))
    got = _difference(A, parse_identity(row.expression), env)
    return vec_is_zero(combine(QQ, [(1, got), (-1, printed)]))


def determinant_law_holds(A: Msc, shape: Word) -> bool:
    """w_alt(u, v) == |u, v| * w_alt(e1, e2) by substitution, with the
    errors of `expander.alternating_determinant_law` in the same order."""
    names = variables(shape)
    node = alternating_sum(shape, 2)
    got = eval_node(A, node, coordinate_env(A.field, names))
    if len(names) != 2:
        raise ShapeArityMismatch("the basis value needs a 2-variable word")
    base = eval_node(A, node, {names[0]: basis_vec(A.field, 1), names[1]: basis_vec(A.field, 2)})
    det = parse_poly("x1 y2 - x2 y1", A.field)
    return vec_is_zero(combine(A.field, [(1, got), (-det, base)]))
