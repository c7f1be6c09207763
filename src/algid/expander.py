"""Expansion of identities into polynomial systems of structure constants.

Substituting generic coordinate vectors u = x1 e1 + x2 e2, v = y1 e1 + ...
into an identity and collecting the coefficient of every coordinate monomial
in both components yields a finite system of polynomials in the structure
constants a1..a4, b1..b4.  The identity holds formally iff the system is the
zero system, and two identities impose the same constraints iff their systems
span the same linear subspace.

On the generic algebra the system is computed without substituting: a
tensor kernel builds each word's matrix on integer polynomials with packed
monomials and sums its Kronecker columns by coordinate monomial.  On a
concrete algebra the same recursion runs on its entries as integers
(`TensorPlan`), so deciding an identity there expands no polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra_core import GENERIC_NAMES, Msc, Vec
from .errors import AlgidError, ExpansionTooLarge, FieldMismatch, TooManyVariables
from .exactnum import QQ, Field, inv
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
    """Expand an identity over the algebra A (default: the generic algebra).

    The system is empty exactly when the identity holds formally on A.  The
    generic system comes from the tensor kernel (`generic_system`); a given A
    is expanded by substituting coordinate vectors.
    """
    if A is None:
        f = field if field is not None else QQ
        equations = [
            Equation(row, mon, MultiPoly(f, {
                tuple((_GENERIC_VARS[k], x) for k, x in factors): f.scalar(c)
                for c, factors in terms}))
            for row, mon, terms in generic_system(ident, f)]
        return PolySystem(f, equations, ident.name)
    if field is not None and field != A.field:
        raise FieldMismatch(f"{field} vs {A.field}")
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
    cap = MAX_COLUMNS + 1
    seen: Dict[int, int] = {}  # by id: squares share their operand node

    def count(node: Node) -> int:
        if id(node) in seen:
            return seen[id(node)]
        if isinstance(node, Var):
            n = 2
        elif isinstance(node, Prod):
            n = count(node.left) * count(node.right)
        elif isinstance(node, Comm):
            n = 2 * count(node.left) * count(node.right)
        elif isinstance(node, Assoc):
            n = 2 * count(node.a) * count(node.b) * count(node.c)
        elif isinstance(node, Sum):
            n = sum(count(f) for _, f in node.terms)
        else:
            raise TypeError(f"not an identity node: {node!r}")
        seen[id(node)] = n = min(n, cap)
        return n

    return min(count(ident.lhs) + count(ident.rhs), cap)


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


def _tensor_matrix(shape: Shape, memo: Dict[tuple, tuple]):
    """The generic word matrix of a shape as 2 rows of 2^l packed
    polynomials: M(leaf) = I and M(w1 w2) = A . (M(w1) (x) M(w2)), memoized
    per subword shape (the matrix does not depend on the leaves' names)."""
    if shape is None:
        return _LEAF
    if shape in memo:
        return memo[shape]
    m1 = _tensor_matrix(shape[0], memo)
    m2 = _tensor_matrix(shape[1], memo)
    rows: Tuple[list, list] = ([], [])
    # Row r of A . K at column (c1, c2) is sum_ij A[r][2i + j] M1[i][c1] M2[j][c2].
    for col1 in zip(*m1):
        for col2 in zip(*m2):
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
    memo[shape] = rows
    return rows


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


def _word_combination(ident: Identity) -> Dict[Word, int]:
    """lhs - rhs as a signed combination of plain words."""
    combined: Dict[Word, int] = dict(word_terms(ident.lhs))
    for w, c in word_terms(ident.rhs).items():
        n = combined.get(w, 0) - c
        if n:
            combined[w] = n
        else:
            combined.pop(w, None)
    return combined


def _word_columns(ident: Identity):
    """(word, weight, columns) for each word of lhs - rhs, `columns` holding
    the packed coordinate monomial of each of the word's 2^l tensor columns:
    a column picks a basis index for every leaf, so it belongs to the
    monomial with one coordinate variable per leaf."""
    check_budget(ident)
    varnames = identity_variables(ident)
    coordinate_env(QQ, varnames)  # rejects more variables than prefixes
    index = {name: k for k, name in enumerate(varnames)}
    for word, weight in _word_combination(ident).items():
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


def generic_system(ident: Identity, field: Field):
    """The identity's system on the generic algebra over `field`, as
    (row, coordinate monomial, terms) in canonical `PolySystem` order, a term
    being (int coefficient, ((entry index 0..7 of a1..b4, exponent), ...)).
    Coefficients are residues in [0, p) over F_p.

    Each word contributes its tensor matrix, column by column, to the
    equation of the column's coordinate monomial.
    """
    memo: Dict[tuple, tuple] = {}
    sums: Dict[Tuple[int, int], Dict[int, int]] = {}
    for word, weight, cols in _word_columns(ident):
        mat = _tensor_matrix(_shape(word), memo)
        for row in (0, 1):
            for col, poly in zip(cols, mat[row]):
                acc = sums.get((row, col))
                if acc is None:
                    sums[row, col] = {e: weight * c for e, c in poly.items()}
                else:
                    get = acc.get
                    for e, c in poly.items():
                        acc[e] = get(e, 0) + weight * c
    p = field.p if field.kind == "Fp" else 0
    factors_of: Dict[int, tuple] = {}  # one factor tuple per packed monomial
    out = []
    for (row, col), acc in sums.items():
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
            out.append((row, _coordinate_monomial(col), tuple(terms)))
    out.sort(key=lambda eq: (eq[0], mon_sort_key(eq[1])))
    return tuple(out)


# -- concrete evaluation ------------------------------------------------------------


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


class TensorPlan:
    """What deciding an identity on concrete algebras over one field needs of
    the identity, computed once: the recursion M(leaf) = I,
    M(w1 w2) = A . (M(w1) (x) M(w2)) as a program over the words' distinct
    subword shapes, and for each word its weight and the coordinate monomial
    of each of its tensor columns.  Monomials are numbered in canonical
    order, so equation slot (row, monomial) is row * len(monomials) + its
    number, the canonical `PolySystem` order.  In functional mode (F_p only)
    monomials that agree pointwise are one monomial.

    `first_nonzero(A)` runs the recursion on A's entries as Python ints and
    sums the columns into their slots.  Over F_p the entries are residues.
    Over Q, A is scaled by d, the lcm of its denominators: a slot of
    coordinate degree l is homogeneous of degree l - 1 in the entries, so
    only the witness is divided, by d^(l - 1).
    """

    def __init__(self, ident: Identity, field: Field, functional: bool):
        p = field.p if field.kind == "Fp" else 0
        self.field = field
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

    def first_nonzero(self, A: Msc) -> Optional[Equation]:
        """The first equation of the system that does not vanish at A's
        (concrete) entries, evaluated there; None when all vanish."""
        f = self.field
        vals = [x.value for x in A.entries_flat()]
        p = f.p if f.kind == "Fp" else 0
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


# -- tensor-matrix views ------------------------------------------------------------


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
    return [[_at(A, poly) for poly in row] for row in _tensor_matrix(_shape(word), {})]


def identity_tensor_matrix(A: Msc, ident: Identity):
    """Tensor matrix of lhs - rhs for identities whose words are ordered and
    multilinear (each word's leaves read exactly u1, .., ul in variable order).

    The identity holds formally on A iff the matrix vanishes; its entries are
    the same coefficient polynomials that `expand` produces, arranged by
    Kronecker column.  Raises AlgidError when a word is not ordered.
    """
    check_budget(ident)
    order = identity_variables(ident)
    combined = _word_combination(ident)
    for w in combined:
        if list(word_leaves(w)) != order:
            raise AlgidError(
                f"word {w!r} is not the ordered product of the identity variables"
            )
    memo: Dict[tuple, tuple] = {}
    total = [[{} for _ in range(2 ** len(order))] for _ in range(2)]
    for w, weight in combined.items():
        for acc_row, row in zip(total, _tensor_matrix(_shape(w), memo)):
            for acc, poly in zip(acc_row, row):
                for e, c in poly.items():
                    acc[e] = acc.get(e, 0) + weight * c
    return [[_at(A, poly) for poly in row] for row in total]
