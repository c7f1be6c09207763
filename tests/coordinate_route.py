"""The coordinate route: the test oracles of the tensor plan.

Substituting generic coordinate vectors u = x1 e1 + x2 e2, v = y1 e1 + ...
into an identity over an algebra A, with the algebra's own product, and
collecting the coefficient of every coordinate monomial in both components
gives the identity's coefficient system on A.  This is the definition the
plan (`algid.expander.TensorPlan`) computes by its tensor recursion, done
the slow way with `MultiPoly` arithmetic and nothing shared with the plan.
Evaluating the identity at every tuple of basis vectors is a second oracle,
for multilinear identities.
"""

import itertools
from typing import Dict, Iterable

from algid.algebra_core import Msc, Vec
from algid.expander import (
    COORD_PREFIXES,
    Equation,
    PolySystem,
    check_budget,
    coordinate_env,
    eval_node,
)
from algid.identity_lang import Identity, identity_variables
from algid.multipoly import Monomial, MultiPoly


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
        if any(not c.is_zero() for c in coeffs.values())
    }


def substitute(ident: Identity, A: Msc) -> PolySystem:
    """Expand the identity over A by substituting coordinate vectors into A
    itself and collecting coefficients."""
    check_budget(ident)
    varnames = identity_variables(ident)
    env = coordinate_env(A.field, varnames)
    delta = eval_node(A, ident.lhs, env) - eval_node(A, ident.rhs, env)
    coord_names = {f"{COORD_PREFIXES[k]}{i}" for k in range(len(varnames)) for i in (1, 2)}
    equations = []
    for row in (0, 1):
        # An identity without variables ("0 = 0") leaves a Scalar entry.
        entry = MultiPoly.coerce(A.field, delta.entries[row])
        for mon, coeff in collect_coefficients(entry, coord_names).items():
            equations.append(Equation(row, mon, coeff))
    return PolySystem(A.field, equations, ident.name)


def holds_on_basis_tuples(A: Msc, ident: Identity) -> bool:
    """Satisfaction at every tuple of basis vectors (enough for multilinear
    identities over any field)."""
    names = identity_variables(ident)
    basis = [Vec.basis(A.field, 1), Vec.basis(A.field, 2)]
    for combo in itertools.product(basis, repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_node(A, ident.lhs, env) != eval_node(A, ident.rhs, env):
            return False
    return True
