"""Expansion of identities into polynomial systems of structure constants.

Substituting generic coordinate vectors u = x1 e1 + x2 e2, v = y1 e1 + ...
into an identity and collecting the coefficient of every coordinate monomial
in both components yields a finite system of polynomials in the structure
constants a1..a4, b1..b4.  The identity holds formally iff the system is the
zero system, and two identities impose the same constraints iff their systems
span the same linear subspace.

An identity is compiled once into a `TensorPlan`: the recursion
M(leaf) = I, M(w1 w2) = A . (M(w1) (x) M(w2)) over its words' subword
shapes, and the equation that each tensor column adds to.  Run on integer
polynomials with packed monomials the plan gives the generic system, which
`expand` returns for the generic algebra and scans evaluate; run on a
concrete algebra's entries as integers it decides the identity there
without expanding a polynomial.  Any other algebra given to `expand`,
such as a symbolic family, is expanded by substituting coordinates
(`substitute`), which also serves as the plan's test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra_core import GENERIC_NAMES, Msc, Vec
from .errors import AlgidError, ExpansionTooLarge, FieldMismatch, TooManyVariables
from .exactnum import QQ, Field, Scalar, inv
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


def _lead(p: MultiPoly) -> Monomial:
    """The graded-lex leading monomial of a nonzero polynomial."""
    return min(p.terms, key=mon_sort_key)


def _monic(p: MultiPoly) -> MultiPoly:
    """A nonzero polynomial scaled to coefficient 1 at its leading monomial."""
    return p.scale(inv(p.terms[_lead(p)]))


class PolySystem:
    """The coefficient equations of one expanded identity, in canonical order."""

    def __init__(self, field: Field, equations: Sequence[Equation], identity_name: str = ""):
        self.field = field
        self.identity_name = identity_name
        self.equations: Tuple[Equation, ...] = tuple(
            sorted(equations, key=lambda e: (e.row, mon_sort_key(e.monomial)))
        )
        self.polys: Tuple[MultiPoly, ...] = tuple(
            dict.fromkeys(eq.poly for eq in self.equations))

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
        return list(dict.fromkeys(_monic(p) for p in self.polys))

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
    """Expand an identity over the algebra A (default: the generic algebra
    over `field`, Q when neither is given).

    The system is empty exactly when the identity holds formally on A.  The
    generic algebra, passed as `field` or as `Msc.generic(field)`, takes the
    tensor plan on packed polynomials; any other A is expanded by
    `substitute`.
    """
    if A is not None:
        if field is not None and field != A.field:
            raise FieldMismatch(f"{field} vs {A.field}")
        if A != Msc.generic(A.field):
            return substitute(ident, A)
        field = A.field
    f = field if field is not None else QQ
    names: Dict[tuple, Monomial] = {}  # one named monomial per packed monomial
    scalars: Dict[int, Scalar] = {}  # one Scalar per coefficient
    equations = []
    for row, mon, terms in tensor_plan(ident, f, False).generic_system():
        poly = {}
        for c, factors in terms:
            name = names.get(factors)
            if name is None:
                name = names[factors] = tuple((_GENERIC_VARS[k], x) for k, x in factors)
            s = scalars.get(c)
            if s is None:
                s = scalars[c] = f.scalar(c)
            poly[name] = s
        equations.append(Equation(row, mon, MultiPoly(f, poly)))
    return PolySystem(f, equations, ident.name)


def substitute(ident: Identity, A: Msc) -> PolySystem:
    """The coordinate route: expand the identity over A by substituting
    coordinate vectors into A itself and collecting coefficients."""
    check_budget(ident)
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


PolyList = Union[PolySystem, Sequence[MultiPoly]]  # a PolySystem iterates its polys


def _reduce(p: MultiPoly, basis: Dict[Monomial, MultiPoly],
            field: Optional[Field]) -> MultiPoly:
    """p minus its combination of basis elements at their leading monomials.

    No basis element contains another's leading monomial, so clearing one
    leaves the coefficients at the others alone: one pass suffices.  A
    polynomial over another field than `field` (if given) is FieldMismatch.
    """
    if field is not None and p.field != field:
        raise FieldMismatch(f"{p.field} vs {field}")
    for lead in [m for m in p.terms if m in basis]:
        p = p - basis[lead].scale(p.terms[lead])
    return p


def _reduced_basis(polys: PolyList,
                   field: Optional[Field]) -> Dict[Monomial, MultiPoly]:
    """A reduced basis of span(polys), keyed by leading monomial: each element
    is monic, and no other element contains its leading monomial."""
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


def span_contains(container: PolyList, contained: PolyList,
                  field: Optional[Field]) -> Optional[int]:
    """Index of the first polynomial of `contained` outside span(container), if any.

    Every polynomial must lie over `field`; None accepts any field.
    """
    basis = _reduced_basis(container, field)
    for i, p in enumerate(contained):
        if not _reduce(p, basis, field).is_zero():
            return i
    return None


def span_equal(lhs: PolyList, rhs: PolyList, field: Optional[Field] = None) -> SpanReport:
    """Do two polynomial systems span the same linear subspace?"""
    i = span_contains(lhs, rhs, field)
    if i is not None:
        return SpanReport(False, "rhs", i, list(rhs)[i])
    i = span_contains(rhs, lhs, field)
    if i is not None:
        return SpanReport(False, "lhs", i, list(lhs)[i])
    return SpanReport(True)


# -- expansion budget -------------------------------------------------------------

# Most tensor columns (the sum of 2^l over an identity's words of l leaves,
# before cancellation) that either route expands.  The degree-9 word
# (((u*v)*(w*t))*((u*v)*(w*t)))*u has 512.  At the budget one word of 11
# leaves takes about 1 s in the kernel and up to 5 s on a symbolic family with
# four parameters; at 4096 columns the kernel alone takes up to 4.3 s
# (2-vCPU VM, Python 3.11).
MAX_COLUMNS = 2048


def expansion_columns(ident: Identity) -> int:
    """The identity's tensor column count, capped at MAX_COLUMNS + 1 and
    computed on the node tree without expanding it into words."""
    seen: Dict[int, int] = {}  # by id: squares share their operand node
    return min(_columns(ident.lhs, seen) + _columns(ident.rhs, seen), MAX_COLUMNS + 1)


def _columns(node: Node, seen: Dict[int, int]) -> int:
    if id(node) in seen:
        return seen[id(node)]
    if isinstance(node, Var):
        n = 2
    elif isinstance(node, Prod):
        n = _columns(node.left, seen) * _columns(node.right, seen)
    elif isinstance(node, Comm):
        n = 2 * _columns(node.left, seen) * _columns(node.right, seen)
    elif isinstance(node, Assoc):
        n = 2 * _columns(node.a, seen) * _columns(node.b, seen) * _columns(node.c, seen)
    elif isinstance(node, Sum):
        n = sum(_columns(f, seen) for _, f in node.terms)
    else:
        raise TypeError(f"not an identity node: {node!r}")
    seen[id(node)] = n = min(n, MAX_COLUMNS + 1)
    return n


def check_budget(ident: Identity) -> None:
    """Raise ExpansionTooLarge before expanding an identity past MAX_COLUMNS."""
    if expansion_columns(ident) > MAX_COLUMNS:
        raise ExpansionTooLarge(
            f"the identity expands to more than {MAX_COLUMNS} tensor columns "
            "(the expansion budget)")


# -- packed-integer tensor kernel -------------------------------------------------
#
# On the generic algebra the entries of a word's tensor matrix are integer
# polynomials in a1..b4 (identity weights are integers).  Such a polynomial is
# a dict {packed monomial: int coefficient}, a monomial packing one _BITS-wide
# exponent field per structure constant (a1 lowest), so that multiplying two
# monomials adds two ints.  Coordinate monomials are packed the same way, one
# field per coordinate variable x1, x2, y1, ...

_BITS = 6
_MASK = (1 << _BITS) - 1
# The budget bounds every exponent: a word of l leaves has 2^l <= MAX_COLUMNS
# columns, entries of degree l - 1 and coordinate degree l, so no packed field
# carries into its neighbour.
assert MAX_COLUMNS.bit_length() <= _MASK
_GENERIC_VARS = tuple(itertools.chain(*GENERIC_NAMES))
_LEAF = (({0: 1}, {}), ({}, {0: 1}))  # M(leaf) = I

Shape = Optional[tuple]  # None for a leaf, (left shape, right shape) for a product


def _shape(word: Word) -> Shape:
    if isinstance(word, Var):
        return None
    if isinstance(word, Prod):
        return (_shape(word.left), _shape(word.right))
    raise TypeError(f"not a plain word: {word!r}")


def _program_index(shape: Shape, index: Dict[Shape, int],
                   program: List[Tuple[int, int]]) -> int:
    """The position of `shape` in a program of (left, right) shape positions,
    appending it after its subshapes when it is new (the leaf is 0)."""
    k = index.get(shape)
    if k is None:
        program.append((_program_index(shape[0], index, program),
                        _program_index(shape[1], index, program)))
        k = index[shape] = len(program)
    return k


def _packed_matrices(program: List[Tuple[int, int]]) -> list:
    """The generic matrix of every shape of a program, each as 2 rows of 2^l
    packed polynomials: M(leaf) = I and M(w1 w2) = A . (M(w1) (x) M(w2))."""
    mats = [_LEAF]
    for left, right in program:
        rows: Tuple[list, list] = ([], [])
        # Row r of A . K at column (c1, c2) is sum_ij A[r][2i + j] M1[i][c1] M2[j][c2].
        for col1 in zip(*mats[left]):
            for col2 in zip(*mats[right]):
                out0: Dict[int, int] = {}
                out1: Dict[int, int] = {}
                get0, get1 = out0.get, out1.get
                for i, p1 in enumerate(col1):
                    for j, p2 in enumerate(col2):
                        s0 = 1 << (_BITS * (2 * i + j))
                        s1 = s0 << (4 * _BITS)
                        for e2, c2 in p2.items():
                            for e1, c1 in p1.items():
                                e, c = e1 + e2, c1 * c2
                                out0[e + s0] = get0(e + s0, 0) + c
                                out1[e + s1] = get1(e + s1, 0) + c
                rows[0].append(out0)
                rows[1].append(out1)
        mats.append(rows)
    return mats


def _unpack(e: int) -> Tuple[Tuple[int, int], ...]:
    """(field index, exponent) pairs of a packed monomial, lowest field first."""
    out = []
    k = 0
    while e:
        if e & _MASK:
            out.append((k, e & _MASK))
        e >>= _BITS
        k += 1
    return tuple(out)


def _word_columns(ident: Identity):
    """(word, weight, columns) for each word of lhs - rhs, `columns` holding
    the packed coordinate monomial of each of the word's 2^l tensor columns:
    a column picks a basis index for every leaf, so it belongs to the
    monomial with one coordinate variable per leaf."""
    check_budget(ident)
    varnames = identity_variables(ident)
    coordinate_env(QQ, varnames)  # rejects more variables than prefixes
    index = {name: k for k, name in enumerate(varnames)}
    combined = dict(word_terms(ident.lhs))
    for word, c in word_terms(ident.rhs).items():
        combined[word] = combined.get(word, 0) - c
    for word, weight in combined.items():
        if not weight:
            continue
        cols = [0]
        for name in word_leaves(word):
            unit = 1 << (_BITS * 2 * index[name])
            cols = [c + u for c in cols for u in (unit, unit << _BITS)]
        yield word, weight, cols


_COORD_NAMES = [f"{prefix}{i}" for prefix in COORD_PREFIXES for i in (1, 2)]


def _coordinate_monomial(col: int) -> Monomial:
    """The named coordinate monomial of a packed tensor column."""
    return tuple(sorted((_COORD_NAMES[k], x) for k, x in _unpack(col)))


def functional_monomial(mon: Monomial, p: int) -> Monomial:
    """The monomial that agrees with `mon` at every point of F_p: x^e and
    x^((e - 1) mod (p - 1) + 1) take the same values for e >= 1."""
    return tuple((v, (e - 1) % (p - 1) + 1) for v, e in mon)


class TensorPlan:
    """An identity compiled for one field and mode: the recursion
    M(leaf) = I, M(w1 w2) = A . (M(w1) (x) M(w2)) as a program over the
    words' distinct subword shapes, and for each word its weight and the
    coordinate monomial of each of its tensor columns.  Monomials are
    numbered in canonical order, so equation slot (row, monomial) is
    row * len(monomials) + its number, the canonical `PolySystem` order.  In
    functional mode (F_p only) monomials that agree pointwise are one
    monomial.  This is the only place that maps tensor columns to equations.

    `generic_system()` runs the program on packed integer polynomials, and
    `first_nonzero(A)` on a concrete algebra's entries as Python ints; both
    sum the columns into their slots.
    """

    def __init__(self, ident: Identity, field: Field, functional: bool):
        self.field = field
        self.p = p = field.p if field.kind == "Fp" else 0  # 0 over Q
        self.program: List[Tuple[int, int]] = []  # shape k >= 1 = (left, right)
        index: Dict[Shape, int] = {None: 0}
        words = []
        for word, weight, cols in _word_columns(ident):
            if p:
                weight %= p
            if weight:
                mons = [_coordinate_monomial(col) for col in cols]
                if functional:
                    mons = [functional_monomial(mon, p) for mon in mons]
                k = _program_index(_shape(word), index, self.program)
                words.append((k, weight, mons))
        self.monomials = tuple(sorted({mon for _, _, mons in words for mon in mons},
                                      key=mon_sort_key))
        number = {mon: s for s, mon in enumerate(self.monomials)}
        self.words = tuple((k, weight, tuple(number[mon] for mon in mons))
                           for k, weight, mons in words)

    def generic_system(self) -> tuple:
        """The system on the generic algebra as (row, coordinate monomial,
        terms) for each nonzero slot, in canonical order, a term being
        (int coefficient, ((entry index 0..7 of a1..b4, exponent), ...)).
        Coefficients are residues in [0, p) over F_p."""
        mats = _packed_matrices(self.program)
        n = len(self.monomials)
        sums: List[Dict[int, int]] = [{} for _ in range(2 * n)]
        for k, weight, numbers in self.words:
            for row, polys in enumerate(mats[k]):
                for s, poly in zip(numbers, polys):
                    acc = sums[row * n + s]
                    get = acc.get
                    for e, c in poly.items():
                        acc[e] = get(e, 0) + weight * c
        p = self.p
        factors_of: Dict[int, tuple] = {}  # one factor tuple per packed monomial
        out = []
        for s, acc in enumerate(sums):
            terms = []
            for e, c in acc.items():
                if p:
                    c %= p
                if c:
                    factors = factors_of.get(e)
                    if factors is None:
                        factors = factors_of[e] = _unpack(e)
                    terms.append((c, factors))
            if terms:
                row, number = divmod(s, n)
                out.append((row, self.monomials[number], tuple(terms)))
        return tuple(out)

    def first_nonzero(self, A: Msc) -> Optional[Equation]:
        """The first equation of the system that does not vanish at A's
        (concrete) entries, evaluated there; None when all vanish.

        Over F_p the entries are residues.  Over Q, A is scaled by d, the lcm
        of its denominators: a slot of coordinate degree l is homogeneous of
        degree l - 1 in the entries, so only the witness is divided, by
        d^(l - 1).
        """
        f = self.field
        vals = [x.value for x in A.entries_flat()]
        p = self.p
        if not p:
            d = math.lcm(*(v.denominator for v in vals))
            vals = [v.numerator * (d // v.denominator) for v in vals]
        a0, a1, a2, a3, b0, b1, b2, b3 = vals
        mats = [((1, 0), (0, 1))]
        for left, right in self.program:
            r0: List[int] = []
            r1: List[int] = []
            for x0, x1 in zip(*mats[left]):
                for y0, y1 in zip(*mats[right]):
                    k0, k1, k2, k3 = x0 * y0, x0 * y1, x1 * y0, x1 * y1
                    r0.append(a0 * k0 + a1 * k1 + a2 * k2 + a3 * k3)
                    r1.append(b0 * k0 + b1 * k1 + b2 * k2 + b3 * k3)
            if p:
                r0 = [x % p for x in r0]
                r1 = [x % p for x in r1]
            mats.append((r0, r1))
        n = len(self.monomials)
        acc = [0] * (2 * n)
        for k, weight, numbers in self.words:
            r0, r1 = mats[k]
            for s, x0, x1 in zip(numbers, r0, r1):
                acc[s] += weight * x0
                acc[n + s] += weight * x1
        for s, value in enumerate(acc):
            if p:
                value %= p
            if value:
                row, number = divmod(s, n)
                mon = self.monomials[number]
                if not p:
                    value = Fraction(value, d ** (sum(e for _, e in mon) - 1))
                return Equation(row, mon, MultiPoly.const(f, f.scalar(value)))
        return None


# An identity's checks run together, so a few plans serve a paper pass.
_PLANS = 8


@functools.lru_cache(maxsize=_PLANS)
def tensor_plan(ident: Identity, field: Field, functional: bool) -> TensorPlan:
    """The identity's cached plan, shared by `expand`, checks and scans; the
    expansion budget is checked on a miss, before any word is expanded."""
    return TensorPlan(ident, field, functional)


# -- tensor-matrix view -------------------------------------------------------------


def _at(A: Msc, poly: Dict[int, int]):
    """A packed polynomial evaluated at the entries of A."""
    vals = A.entries_flat()
    out = A.field.zero()
    for e, c in poly.items():
        term = A.field.scalar(c)
        for k, x in _unpack(e):
            for _ in range(x):
                term = term * vals[k]
        out = out + term
    return out


def word_tensor_matrix(A: Msc, word: Word):
    """The 2 x 2^l matrix M with w(u1,..,ul) = M . (u1 (x) ... (x) ul).

    Defined recursively by M(leaf) = I and M(w1 w2) = A . (M(w1) (x) M(w2));
    this is the kernel's generic matrix evaluated at A's entries.
    """
    check_budget(Identity("word", word, Sum(())))
    program: List[Tuple[int, int]] = []
    k = _program_index(_shape(word), {None: 0}, program)
    return [[_at(A, poly) for poly in row] for row in _packed_matrices(program)[k]]
