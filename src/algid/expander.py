"""Expansion of identities into polynomial systems of structure constants.

Substituting generic coordinate vectors u = x1 e1 + x2 e2, v = y1 e1 + ...
into an identity and collecting the coefficient of every coordinate monomial
in both components yields a finite system of polynomials in the structure
constants a1..a4, b1..b4.  The identity holds formally iff the system is the
zero system, and two identities impose the same constraints iff their systems
span the same linear subspace.

An identity is compiled once into a `TensorPlan`: the recursion
M(leaf) = I, M(w1 w2) = A . (M(w1) (x) M(w2)) over its words' subword
shapes, and the equation that each tensor column adds to.  `expand` runs the
plan on any algebra's entries as integer polynomials in the algebra's own
variables, with packed monomials: a1..b4 on the generic algebra, whose system
scans evaluate; the parameters of a symbolic family; none on a concrete
algebra.  `first_nonzero` runs it on a concrete algebra's entries as
integers and decides the identity there without expanding a polynomial.

The coordinates of the identity's variables, in order of first appearance,
are x, y, z, s, t, q, r.  This is the package's one expansion mechanism:
symbolic checks, `algid expand`, both alternation laws and the printed
Section 3 rows all read `expand`'s system.  The per-algebra checks live here
too: `check_formal` and `check_functional` wrap `first_nonzero` (or `expand`
on a symbolic algebra), and the alternating-word laws read `expand`.  So do
the brute-force scans: `scan_algebras` evaluates the generic system on all
p^8 algebras over F_p with numpy, which only a scan over F3 or F5 imports;
`scan_field` counts the 256 algebras over F2 with the plan's integer core.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .algebra_core import GENERIC_NAMES, Msc
from .errors import (
    AlgidError,
    ExpansionTooLarge,
    FieldMismatch,
    ShapeArityMismatch,
    TooManyVariables,
    UnsupportedPrime,
)
from .exactnum import QQ, Coefficient, Field, field_make
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
    variables,
    word_leaves,
    word_terms,
)
from .multipoly import Monomial, MultiPoly, _within_bound, mon_degree, mon_sort_key, render_monomial
from .records import record

if TYPE_CHECKING:
    import numpy as np

COORD_PREFIXES = ("x", "y", "z", "s", "t", "q", "r")


@record
class Equation(NamedTuple):
    """One coefficient equation: (component row, coordinate monomial, polynomial)."""

    row: int
    monomial: Monomial
    poly: MultiPoly


def _lead(p: MultiPoly) -> Monomial:
    """The graded-lex leading monomial of a nonzero polynomial."""
    return min(p.terms, key=mon_sort_key)


def _monic(p: MultiPoly) -> MultiPoly:
    """A nonzero polynomial scaled to coefficient 1 at its leading monomial."""
    return p.scale(p.field.inverse(p.terms[_lead(p)]))


class PolySystem:
    """The coefficient equations of one expanded identity, kept in the order
    given, which must be canonical: by row, then by `mon_sort_key` of the
    monomial, as `TensorPlan.system` gives them."""

    def __init__(self, field: Field, equations: Sequence[Equation], identity_name: str = ""):
        self.field = field
        self.identity_name = identity_name
        self.equations: Tuple[Equation, ...] = tuple(equations)
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

    def render_normalized_lines(self) -> List[str]:
        """Unique equations up to a scalar factor, each made monic in its
        graded-lex leading term (the form systems are usually printed in)."""
        return [f"{p.render()} = 0" for p in dict.fromkeys(_monic(p) for p in self.polys)]

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

    The system is empty exactly when the identity holds formally on A.  Every
    algebra takes the identity's tensor plan, run on A's entries as integer
    polynomials in A's own variables (`TensorPlan.system`).
    """
    if A is not None and field is not None and field != A.field:
        raise FieldMismatch(f"{field} vs {A.field}")
    f = A.field if A is not None else field if field is not None else QQ
    plan = tensor_plan(ident, 0)
    if A is None:
        names, entries, d = _GENERIC_VARS, _GENERIC_ENTRIES, 1
    else:
        names, entries, d = _integer_entries(A, plan.degree)
    equations = [Equation(row, mon, _multipoly(f, terms, d ** (mon_degree(mon) - 1)))
                 for row, mon, terms in plan.system(f.char, names, entries)]
    return PolySystem(f, equations, ident.name)


# -- alternating words ------------------------------------------------------------


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _subst_word(word: Word, mapping: Dict[str, str]) -> Word:
    if isinstance(word, Var):
        return Var(mapping.get(word.name, word.name))
    if isinstance(word, Prod):
        return Prod(_subst_word(word.left, mapping),
                    _subst_word(word.right, mapping))
    raise ShapeArityMismatch("shapes are product words built with * only")


def word_shapes(n: int) -> List[Tuple[str, Word]]:
    """All product shapes in variables v1..vn, each used once.

    n=2 gives the two orders; n=3 gives the twelve left/right bracketings.
    """
    names = tuple("v%d" % (k + 1) for k in range(n))
    if n == 2:
        return [
            ("v1 v2", Prod(Var("v1"), Var("v2"))),
            ("v2 v1", Prod(Var("v2"), Var("v1"))),
        ]
    if n == 3:
        out = []
        for p in itertools.permutations(names):
            out.append(("(%s %s) %s" % p,
                        Prod(Prod(Var(p[0]), Var(p[1])), Var(p[2]))))
            out.append(("%s (%s %s)" % p,
                        Prod(Var(p[0]), Prod(Var(p[1]), Var(p[2])))))
        return out
    raise AlgidError("shapes are provided for 2 or 3 variables")


def alternating_sum(shape: Word, n: int) -> Sum:
    """The signed sum of `shape` over permutations of its first n leaves."""
    names = variables(shape)
    if n > len(names):
        raise ShapeArityMismatch(
            f"cannot alternate {n} variables in a word with {len(names)}")
    alt = names[:n]
    terms = []
    for perm in itertools.permutations(range(n)):
        mapping = {alt[i]: alt[perm[i]] for i in range(n)}
        terms.append((_perm_sign(perm), _subst_word(shape, mapping)))
    out = Sum(tuple(terms))
    # Callers evaluate the sum on the generic algebra.
    check_budget(Identity("alternation", out, Sum(())))
    return out


def alternating_vanishes(A: Msc, shape: Word, n: int = 3) -> bool:
    """The alternating sum over n variables is identically zero on A
    (always true when n exceeds the dimension)."""
    return expand(Identity("alternation", alternating_sum(shape, n), Sum(())), A).is_zero()


# The coordinate monomials of the determinant |u, v| = x1 y2 - x2 y1.
_X1Y2 = (("x1", 1), ("y2", 1))
_X2Y1 = (("x2", 1), ("y1", 1))


def alternating_determinant_law(A: Msc, shape: Word) -> bool:
    """w_alt(u, v) == |u, v| * w_alt(e1, e2) as polynomials over A.

    Read from the expansion of the 2-variable alternation: the law holds iff
    each row's equations are exactly x1 y2 with some coefficient c and x2 y1
    with -c (none when c = 0).  Then c is that row of w_alt(e1, e2), the sum
    of the coefficients whose monomial uses only x1 and y2.
    """
    equations = expand(Identity("alternation", alternating_sum(shape, 2), Sum(())), A).equations
    if len(variables(shape)) != 2:
        raise ShapeArityMismatch("the basis value needs a 2-variable word")
    for row in (0, 1):
        got = {eq.monomial: eq.poly for eq in equations if eq.row == row}
        c = got.get(_X1Y2)
        if got != ({} if c is None else {_X1Y2: c, _X2Y1: -c}):
            return False
    return True


# -- linear span comparison ------------------------------------------------------


@record
class SpanReport(NamedTuple):
    equal: bool
    missing_side: Optional[str] = None  # which input owns the unmatched polynomial
    missing_index: Optional[int] = None
    missing_poly: Optional[MultiPoly] = None

    def __bool__(self) -> bool:
        return self.equal


PolyList = Union[PolySystem, Sequence[MultiPoly]]  # a PolySystem iterates its polys


Terms = Dict[Monomial, Coefficient]


def _subtract(terms: Terms, c: Coefficient, other: Terms, field: Field) -> None:
    """terms -= c * other, in place; c and other's values are nonzero."""
    for m, v in other.items():
        r = field.reduce(terms.get(m, 0) - c * v)
        if r:
            terms[m] = r
        else:
            del terms[m]


def _reduce(p: MultiPoly, basis: Dict[Monomial, Terms], field: Field) -> Terms:
    """The terms of p minus its combination of basis elements at their
    leading monomials; FieldMismatch if p lies over another field.

    No basis element contains another's leading monomial, so clearing one
    leaves the coefficients at the others alone: one pass suffices.
    """
    if p.field != field:
        raise FieldMismatch(f"{p.field} vs {field}")
    terms = dict(p.terms)
    for lead in [m for m in terms if m in basis]:
        _subtract(terms, terms[lead], basis[lead], field)
    return terms


def _reduced_basis(polys: PolyList, field: Field) -> Dict[Monomial, Terms]:
    """A reduced basis of span(polys), as term dicts keyed by leading
    monomial: each element is monic, and no other element contains its
    leading monomial."""
    basis: Dict[Monomial, Terms] = {}
    for p in polys:
        q = _reduce(p, basis, field)
        if not q:
            continue
        lead = min(q, key=mon_sort_key)
        c = field.inverse(q[lead])
        q = {m: field.reduce(c * v) for m, v in q.items()}
        for b in basis.values():
            if lead in b:
                _subtract(b, b[lead], q, field)
        basis[lead] = q
    return basis


def span_contains(container: PolyList, contained: PolyList,
                  field: Optional[Field]) -> Optional[int]:
    """Index of the first polynomial of `contained` outside span(container), if any.

    Every polynomial must lie over `field`, or with None over the field of
    the first polynomial; one over another field is FieldMismatch.
    """
    if field is None:
        field = next((p.field for p in itertools.chain(container, contained)), QQ)
    basis = _reduced_basis(container, field)
    for i, p in enumerate(contained):
        if _reduce(p, basis, field):
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
# A word's tensor matrix has polynomial entries in the algebra's own variables
# (a1..b4 on the generic algebra, a symbolic family's parameters, none on a
# concrete algebra), with integer coefficients once the algebra is scaled by
# the lcm of its denominators.  A polynomial is a dict {packed monomial: int
# coefficient}, one exponent field per variable (the first lowest), so that
# multiplying two monomials adds two ints.  Entries come unpacked, as
# {((variable index, exponent), ...): int}.  Coordinate monomials are packed
# _COORD_BITS wide, one field per coordinate variable x1, x2, y1, ...: a word
# of l leaves has coordinate degree l, and 2^l <= MAX_COLUMNS.

_COORD_BITS = 6
assert MAX_COLUMNS.bit_length() < 1 << _COORD_BITS
_GENERIC_VARS = tuple(itertools.chain(*GENERIC_NAMES))
_GENERIC_ENTRIES = tuple({((k, 1),): 1} for k in range(8))  # entry k is variable k
_LEAF = (({0: 1}, {}), ({}, {0: 1}))  # M(leaf) = I

Entries = Tuple[Dict[tuple, int], ...]


def _scaled(field: Field, values: Sequence[Coefficient], degree: int) -> Tuple[int, List[int]]:
    """(d, the plain values as integers): over Q, d is the lcm of their
    denominators and each is multiplied by d; over F_p, d = 1 and they are
    their residues.

    A plan whose longest word has `degree` leaves multiplies up to
    degree - 1 entries, so by the expression language's product rule it
    could compute a value (degree - 1) times as long as the longest of d and
    the scaled coefficients.  Past MAX_BITS that is NumberTooLong, raised
    before the plan runs; residues never grow."""
    if field.char:
        return 1, values
    d = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (d // v.denominator) for v in values]
    _within_bound((degree - 1) * max(x.bit_length() for x in (d, *ints)))
    return d, ints


def _integer_entries(A: Msc, degree: int) -> Tuple[Tuple[str, ...], Entries, int]:
    """(A's variable names, sorted; its entries a1..b4 as unpacked integer
    polynomials in them, scaled by d; d, the lcm of the denominators), for a
    plan of `degree` (see `_scaled`)."""
    polys = [x.terms if isinstance(x, MultiPoly) else {(): x.value} for x in A.entries_flat()]
    names = sorted({v for terms in polys for mon in terms for v, _ in mon})
    index = {v: k for k, v in enumerate(names)}
    d, ints = _scaled(A.field, [c for terms in polys for c in terms.values()], degree)
    ints = iter(ints)
    entries = tuple({tuple((index[v], x) for v, x in mon): next(ints) for mon in terms}
                    for terms in polys)
    return tuple(names), entries, d


def _unpack(e: int, bits: int, names: Sequence[str]) -> Monomial:
    """The named monomial of a packed one, `names` naming the fields from
    the lowest."""
    mask = (1 << bits) - 1
    out = []
    for name in names:
        if e & mask:
            out.append((name, e & mask))
        e >>= bits
    return tuple(out)


def _terms(poly: Dict[int, int], p: int, unpack) -> tuple:
    """The (coefficient, monomial) terms of a packed polynomial whose
    coefficient is nonzero (mod p when p); `unpack` names a packed monomial."""
    terms = ((c % p if p else c, e) for e, c in poly.items())
    return tuple((c, unpack(e)) for c, e in terms if c)


def _multipoly(f: Field, terms: tuple, div: int) -> MultiPoly:
    """Integer (coefficient, monomial) terms divided by `div` as a MultiPoly
    over f: Fractions over Q, residues over F_p (where `div` is 1)."""
    return MultiPoly(f, {mon: Fraction(c, div) if f.kind == "Q" else c for c, mon in terms})


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


def _packed_matrices(program: List[Tuple[int, int]], entries: Entries,
                     degree: int) -> Tuple[int, list]:
    """(bits per packed field, the matrix of every shape of a program, each
    as 2 rows of 2^l packed polynomials: M(leaf) = I and M(w1 w2) =
    A . (M(w1) (x) M(w2))).  A word of l <= degree leaves has degree l - 1
    in the entries, so no exponent passes their largest times (degree - 1)."""
    top = max((x for entry in entries for factors in entry for _, x in factors), default=0)
    bits = max(top * (degree - 1), 1).bit_length()
    packed = [[(sum(x << (bits * k) for k, x in factors), c)
               for factors, c in entry.items() if c] for entry in entries]
    # Row r of A . K at column (c1, c2) is sum_ij A[r][2i + j] M1[i][c1] M2[j][c2];
    # a product column (i, j) whose two entries are zero adds nothing.
    products = [(i, j, packed[2 * i + j], packed[4 + 2 * i + j]) for i in (0, 1)
                for j in (0, 1) if packed[2 * i + j] or packed[4 + 2 * i + j]]
    mats = [_LEAF]
    for left, right in program:
        rows: Tuple[list, list] = ([], [])
        for col1 in zip(*mats[left]):
            for col2 in zip(*mats[right]):
                out0: Dict[int, int] = {}
                out1: Dict[int, int] = {}
                get0, get1 = out0.get, out1.get
                for i, j, a0, a1 in products:
                    p1 = col1[i]
                    for e2, c2 in col2[j].items():
                        for e1, c1 in p1.items():
                            e, c = e1 + e2, c1 * c2
                            for ea, ca in a0:
                                out0[e + ea] = get0(e + ea, 0) + c * ca
                            for ea, ca in a1:
                                out1[e + ea] = get1(e + ea, 0) + c * ca
                rows[0].append(out0)
                rows[1].append(out1)
        mats.append(rows)
    return bits, mats


def _word_columns(ident: Identity):
    """(word, weight, columns) for each word of lhs - rhs, `columns` holding
    the packed coordinate monomial of each of the word's 2^l tensor columns:
    a column picks a basis index for every leaf, so it belongs to the
    monomial with one coordinate variable per leaf."""
    check_budget(ident)
    varnames = identity_variables(ident)
    if len(varnames) > len(COORD_PREFIXES):
        raise TooManyVariables(
            f"{len(varnames)} variables exceed the {len(COORD_PREFIXES)} coordinate prefixes")
    index = {name: k for k, name in enumerate(varnames)}
    combined = dict(word_terms(ident.lhs))
    for word, c in word_terms(ident.rhs).items():
        combined[word] = combined.get(word, 0) - c
    for word, weight in combined.items():
        if not weight:
            continue
        cols = [0]
        for name in word_leaves(word):
            unit = 1 << (_COORD_BITS * 2 * index[name])
            cols = [c + u for c in cols for u in (unit, unit << _COORD_BITS)]
        yield word, weight, cols


_COORD_NAMES = [f"{prefix}{i}" for prefix in COORD_PREFIXES for i in (1, 2)]


def _coordinate_monomial(col: int) -> Monomial:
    """The named coordinate monomial of a packed tensor column."""
    return tuple(sorted(_unpack(col, _COORD_BITS, _COORD_NAMES)))


def functional_monomial(mon: Monomial, p: int) -> Monomial:
    """The monomial that agrees with `mon` at every point of F_p: x^e and
    x^((e - 1) mod (p - 1) + 1) take the same values for e >= 1."""
    return tuple((v, (e - 1) % (p - 1) + 1) for v, e in mon)


class TensorPlan:
    """An identity compiled once for every field: the recursion
    M(leaf) = I, M(w1 w2) = A . (M(w1) (x) M(w2)) as a program over the
    words' distinct subword shapes, and for each word its integer weight and
    the coordinate monomial of each of its tensor columns.  Monomials are
    numbered in canonical order, so equation slot (row, monomial) is
    row * len(monomials) + its number, the canonical `PolySystem` order.  In
    functional mode the plan is compiled for one prime `merge`, and
    monomials that agree pointwise over F_merge are one monomial.  This is
    the only place that maps tensor columns to equations.

    `system(p)` runs the program on an algebra's entries as packed integer
    polynomials, and `first_nonzero(A)` on a concrete algebra's entries as
    Python ints; both sum the columns into their slots and reduce the sums
    mod p (p = 0 over Q), so a word whose weight vanishes mod p adds 0.
    """

    def __init__(self, ident: Identity, merge: int):
        self.program: List[Tuple[int, int]] = []  # shape k >= 1 = (left, right)
        self.degree = 0  # the most leaves of a word
        index: Dict[Shape, int] = {None: 0}
        words = []
        for word, weight, cols in _word_columns(ident):
            mons = [_coordinate_monomial(col) for col in cols]
            if merge:
                mons = [functional_monomial(mon, merge) for mon in mons]
            k = _program_index(_shape(word), index, self.program)
            words.append((k, weight, mons))
            self.degree = max(self.degree, len(cols).bit_length() - 1)
        self.monomials = tuple(sorted({mon for _, _, mons in words for mon in mons},
                                      key=mon_sort_key))
        number = {mon: s for s, mon in enumerate(self.monomials)}
        self.words = tuple((k, weight, tuple(number[mon] for mon in mons))
                           for k, weight, mons in words)

    def system(self, p: int, names: Sequence[str] = _GENERIC_VARS,
               entries: Entries = _GENERIC_ENTRIES) -> tuple:
        """The system over F_p (Q when p = 0) on an algebra with the given
        integer polynomial entries in `names` (see `_integer_entries`; by
        default the generic a1..b4) as (row, coordinate monomial, terms) for
        each nonzero slot, in canonical order, a term being (int coefficient,
        monomial).  Coefficients are residues in [0, p) over F_p."""
        bits, mats = _packed_matrices(self.program, entries, self.degree)
        n = len(self.monomials)
        sums: List[Dict[int, int]] = [{} for _ in range(2 * n)]
        for k, weight, numbers in self.words:
            for row, polys in enumerate(mats[k]):
                for s, poly in zip(numbers, polys):
                    acc = sums[row * n + s]
                    get = acc.get
                    for e, c in poly.items():
                        acc[e] = get(e, 0) + weight * c
        unpack = functools.lru_cache(maxsize=None)(lambda e: _unpack(e, bits, names))
        out = []
        for s, acc in enumerate(sums):
            terms = _terms(acc, p, unpack)
            if terms:
                row, number = divmod(s, n)
                out.append((row, self.monomials[number], terms))
        return tuple(out)

    def first_nonzero(self, A: Msc) -> Optional[Equation]:
        """The first equation of the system that does not vanish at A's
        (concrete) entries, evaluated there; None when all vanish.

        Over F_p the entries are residues.  Over Q, A is scaled by d, the lcm
        of its denominators (`_scaled`, which first refuses entries too long
        for the plan): a slot of coordinate degree l is homogeneous of degree
        l - 1 in the entries, so only the witness is divided, by d^(l - 1).
        """
        d, vals = _scaled(A.field, [x.value for x in A.entries_flat()], self.degree)
        found = self.nonzero_slot(A.field.char, vals)
        if found is None:
            return None
        s, v = found
        row, number = divmod(s, len(self.monomials))
        mon = self.monomials[number]
        return Equation(row, mon, _multipoly(A.field, ((v, ()),), d ** (mon_degree(mon) - 1)))

    def nonzero_slot(self, p: int, vals: Sequence[int]) -> Optional[Tuple[int, int]]:
        """(slot, value) of the first equation over F_p (Q when p = 0) that
        does not vanish at the integer entries a1..b4 (residues over F_p),
        its value reduced mod p over F_p; None when all vanish.  The
        recursion runs on Python ints."""
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
                return s, value
        return None


# One paper pass (the 8 verify-paper targets) uses 60 distinct
# (identity, merge prime) plans, counted with an unbounded cache; a smaller
# cache recompiles the plans it evicts within the pass.  128 holds a whole
# pass, or the 62 plans of the golden scans.
_PLANS = 128


@functools.lru_cache(maxsize=_PLANS)
def tensor_plan(ident: Identity, merge: int) -> TensorPlan:
    """The identity's cached plan, formal (`merge` 0) or functional over
    F_merge, shared by `expand`, checks and scans over every field; the
    expansion budget is checked on a miss, before any word is expanded."""
    return TensorPlan(ident, merge)


# -- brute-force scans over every algebra of a small prime field -----------------

SCAN_PRIMES = (2, 3, 5)


def _equation_value(terms, cols, powers):
    """One generic equation at the entries `cols`, numpy arrays of residues
    by structure-constant name that broadcast against each other, evaluated
    elementwise and reduced by the caller.  `powers` caches each
    cols[name] ** e for these columns across terms and equations.  A
    coefficient of 1 is not multiplied in, and an equation that uses no
    entry is a Python int."""
    total = None
    for c, mon in terms:
        term = c if c != 1 or not mon else None
        for factor in mon:
            x = powers.get(factor)
            if x is None:
                name, e = factor
                x = powers[factor] = cols[name] if e == 1 else cols[name] ** e
            term = x if term is None else term * x
        total = term if total is None else total + term
    return total


def _scan_plan(p: int, ident: Identity, mode: str) -> TensorPlan:
    """The identity's plan for a scan over F_p, after refusing an
    unsupported prime, then an unknown mode."""
    if p not in SCAN_PRIMES:
        raise UnsupportedPrime(
            "scans enumerate p^8 algebras; supported primes: %s"
            % (", ".join(map(str, SCAN_PRIMES))))
    if mode not in ("formal", "functional"):
        raise AlgidError("scan mode must be 'formal' or 'functional'")
    return tensor_plan(ident, p if mode == "functional" else 0)


def _scan_dtype(p: int, degree: int, most_terms: int):
    """The narrowest signed numpy integer type that holds every partial sum
    of a scan's equations: a term is a coefficient in [0, p) times at most
    degree - 1 entries in [0, p), so an equation of at most `most_terms`
    terms never passes most_terms * (p - 1) ** degree."""
    import numpy as np

    bound = most_terms * (p - 1) ** degree
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    # Under the expansion budget the degree is at most 11, and an equation
    # has at most C(17, 7) terms, the monomials of degree 10 in a1..b4.
    assert bound <= np.iinfo(np.int64).max, "a scan's partial sums overflow int64"
    return np.int64


def _digit_columns(mask: np.ndarray, p: int, dtype) -> Dict[str, np.ndarray]:
    """The digit columns a1..b4, of type `dtype`, of the algebras where the
    (p,)*8 `mask` is true: its flat index, split by repeated division by p.
    Each remainder is taken as q - (q // p) * p, since numpy's integer floor
    division is several times faster than its `np.divmod`."""
    import numpy as np

    q = np.flatnonzero(mask).astype(np.int32)  # p^8 <= 5^8
    digits = []  # b4, the last digit, first
    for _ in _GENERIC_VARS:
        rest = q // p
        digits.append((q - rest * p).astype(dtype))
        q = rest
    return dict(zip(_GENERIC_VARS, reversed(digits)))


def scan_algebras(p: int, ident: Identity, mode: str = "formal") -> np.ndarray:
    """Boolean satisfaction vector over all p^8 structure-constant matrices,
    indexed by the row-major digit encoding a1..b4 (a1 most significant).

    The identity's generic system is evaluated equation by equation, in
    canonical order, in the narrowest integer type that holds its partial
    sums (`_scan_dtype`).  Until one is nonzero somewhere, each is evaluated
    on a broadcast (p,)*8 digit grid restricted to the entries it uses; the
    flat index of that equation's zero mask is then split into the
    surviving algebras' eight digit columns, and later equations run on
    those columns only, which shrink at each equation that drops an
    algebra."""
    plan = _scan_plan(p, ident, mode)
    system = plan.system(p)
    import numpy as np

    dtype = _scan_dtype(p, plan.degree, max((len(terms) for _, _, terms in system), default=0))
    equations = dict.fromkeys(terms for _, _, terms in system)
    shape = (p,) * 8
    digits = np.arange(p, dtype=dtype)
    # Until an equation prunes, entry j is the digit along axis j of the
    # broadcast grid, and an equation is evaluated only on the axes it uses.
    # From then on the entries are the surviving algebras' digit columns,
    # and each algebra leaves them at its first nonzero equation.
    cols = {name: digits.reshape((1,) * j + (p,) + (1,) * (7 - j))
            for j, name in enumerate(_GENERIC_VARS)}
    grid = True
    powers = {}
    for terms in equations:
        zero = _equation_value(terms, cols, powers) % p == 0
        if np.all(zero):
            continue
        if grid:
            cols = _digit_columns(np.broadcast_to(zero, shape), p, dtype)
            grid = False
        else:
            keep = np.broadcast_to(zero, cols["a1"].shape)
            cols = {name: c[keep] for name, c in cols.items()}
        if not cols["a1"].size:
            break
        powers = {}
    if grid:
        return np.ones(p ** 8, dtype=bool)
    ok = np.zeros(p ** 8, dtype=bool)
    ok[np.ravel_multi_index(tuple(cols.values()), shape)] = True
    return ok


def scan_field(p: int, ident: Identity, mode: str = "formal") -> int:
    """How many of the p^8 structure-constant matrices over F_p satisfy the
    identity (formally, or as a function).

    Over F2 the plan's integer recursion (`TensorPlan.nonzero_slot`) runs
    once per algebra and decides all 256 in a few milliseconds, far less
    than importing numpy takes.  Its 3^8 runs over F3 take about as long
    as that import in the median and up to 2.5 times longer, while numpy
    then scans in about 1 ms, so F3 and F5 take `scan_algebras`."""
    if p != 2:
        return int(scan_algebras(p, ident, mode).sum())
    plan = _scan_plan(p, ident, mode)
    return sum(plan.nonzero_slot(p, vals) is None
               for vals in itertools.product(range(p), repeat=8))


def msc_from_scan_index(p: int, index: int) -> Msc:
    """The algebra at a given scan position (inverse of the digit encoding)."""
    digits = [(index // p ** (7 - j)) % p for j in range(8)]
    return Msc.from_scalars(field_make(p), [digits[:4], digits[4:]])


# -- satisfaction checks ----------------------------------------------------------


@record
class FormalCheck(NamedTuple):
    ok: bool
    witness: Optional[Equation]

    def witness_text(self) -> str:
        if self.witness is None:
            return ""
        eq = self.witness
        return "e%d coefficient of %s = %s" % (
            eq.row + 1, render_monomial(eq.monomial), eq.poly.render())


def _verdict(witness: Optional[Equation]) -> FormalCheck:
    return FormalCheck(witness is None, witness)


def check_formal(A: Msc, ident: Identity) -> FormalCheck:
    """Does the identity hold as a formal polynomial law on A?  Both run the
    identity's `TensorPlan`: on a concrete algebra's entries as numbers,
    stopping at the first nonzero equation; on symbolic entries through
    `expand`, as polynomials in A's parameters."""
    if A.is_concrete():
        return _verdict(tensor_plan(ident, 0).first_nonzero(A))
    equations = expand(ident, A).equations
    return _verdict(equations[0] if equations else None)


def check_functional(A: Msc, ident: Identity) -> FormalCheck:
    """Does the identity hold for every tuple of elements of A over F_p?"""
    if A.field.kind == "Q":
        raise AlgidError("functional checking needs a finite field")
    if not A.is_concrete():
        raise AlgidError("functional checking needs concrete structure constants")
    return _verdict(tensor_plan(ident, A.field.p).first_nonzero(A))


# -- tensor-matrix view -------------------------------------------------------------


def word_tensor_matrix(A: Msc, word: Word) -> List[List[MultiPoly]]:
    """The 2 x 2^l matrix M with w(u1,..,ul) = M . (u1 (x) ... (x) ul).

    Defined recursively by M(leaf) = I and M(w1 w2) = A . (M(w1) (x) M(w2)),
    the plan's recursion on A's entries; its entries are polynomials in A's
    variables (constants on a concrete algebra).
    """
    check_budget(Identity("word", word, Sum(())))
    program: List[Tuple[int, int]] = []
    k = _program_index(_shape(word), {None: 0}, program)
    degree = len(list(word_leaves(word)))
    names, entries, d = _integer_entries(A, degree)
    bits, mats = _packed_matrices(program, entries, degree)
    unpack = functools.lru_cache(maxsize=None)(lambda e: _unpack(e, bits, names))
    return [[_multipoly(A.field, _terms(poly, A.field.char, unpack), d ** (degree - 1))
             for poly in row] for row in mats[k]]
