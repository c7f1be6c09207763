"""Two-dimensional algebras as matrices of structural constants.

An algebra on basis e1, e2 is encoded by the 2 x 4 matrix A whose columns are
indexed by the ordered products (e1e1, e1e2, e2e1, e2e2): column (i,j) holds
the coordinates of ei * ej.  For coordinate vectors u, v the product is

    (u v)  =  A . (u (x) v)

with u (x) v the Kronecker column (u1 v1, u1 v2, u2 v1, u2 v2).

Entries may be exact field scalars (a concrete algebra) or polynomials in the
structure constants a1..a4, b1..b4 (the generic algebra), mixed freely.  The
promotion of a scalar to a constant polynomial lives in the Scalar and
MultiPoly operators themselves: a scalar combines with a polynomial, and
equals and hashes like the constant polynomial of its value, so nothing here
converts entries before computing or comparing.

A change of basis g carries A onto B when g.A == B.(g (x) g).
`conjugates_to` checks a given g in that division-free form, on any entries;
`search_iso` enumerates GL_2 of a small prime field for the first such g,
on residues mod p.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple, Union

from .errors import AlgidError, DimensionMismatch, FieldMismatch, InexactScalar, SearchSpaceTooLarge
from .exactnum import Field, Scalar, inv
from .multipoly import MultiPoly

Entry = Union[Scalar, MultiPoly]

GENERIC_NAMES = (("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"))


def _check_entries(field: Field, entries: Sequence[Entry]) -> None:
    """Every entry is a Scalar or polynomial over `field`: InexactScalar for
    anything else, FieldMismatch for another field."""
    for x in entries:
        if not isinstance(x, (Scalar, MultiPoly)):
            raise InexactScalar(f"{x!r} is not a scalar or polynomial over {field}")
        if x.field != field:
            raise FieldMismatch(f"{x!r} is an entry over {x.field}, not {field}")


class Vec:
    """A coordinate vector (length 2) over scalars or polynomials, as
    `Msc.product` takes and returns it."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Sequence[Entry]):
        if len(entries) != 2:
            raise DimensionMismatch(f"expected 2 coordinates, got {len(entries)}")
        self.field = field
        self.entries: Tuple[Entry, Entry] = tuple(entries)
        _check_entries(field, self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vec) and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"Vec({self.entries[0]!r}, {self.entries[1]!r})"


def _entry_json(x: Entry):
    if isinstance(x, Scalar):
        return x.to_json()
    if x.is_constant():
        return x.constant_value().to_json()
    raise ValueError("cannot serialize a non-constant symbolic entry")


class Msc:
    """Matrix of structural constants of a 2-dimensional algebra."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence[Entry]]):
        if len(rows) != 2 or any(len(r) != 4 for r in rows):
            raise DimensionMismatch("a 2-dimensional MSC has 2 rows of 4 columns")
        self.field = field
        self.rows: Tuple[Tuple[Entry, ...], ...] = tuple(tuple(r) for r in rows)
        _check_entries(field, self.entries_flat())

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_scalars(cls, field: Field, rows: Sequence[Sequence[object]]) -> "Msc":
        return cls(field, [[field.scalar(x) for x in r] for r in rows])

    @classmethod
    def generic(cls, field: Field) -> "Msc":
        return cls(
            field,
            [[MultiPoly.var(field, name) for name in row] for row in GENERIC_NAMES],
        )

    # -- structure -----------------------------------------------------------

    def is_concrete(self) -> bool:
        return all(isinstance(x, Scalar) for row in self.rows for x in row)

    def entries_flat(self) -> Tuple[Entry, ...]:
        """Row-major entries, matching the generic names a1..a4, b1..b4."""
        return self.rows[0] + self.rows[1]

    # -- algebra operations ---------------------------------------------------

    def product(self, u: Vec, v: Vec) -> Vec:
        if u.field != self.field or v.field != self.field:
            raise FieldMismatch("vector field differs from algebra field")
        u1, u2 = u.entries
        v1, v2 = v.entries
        tensor = (u1 * v1, u1 * v2, u2 * v1, u2 * v2)
        return Vec(
            self.field,
            [sum_entries([row[k] * tensor[k] for k in range(4)]) for row in self.rows],
        )

    def opposite(self) -> "Msc":
        """The algebra with reversed multiplication; swaps the e1e2/e2e1 columns."""
        return Msc(self.field, [[r[0], r[2], r[1], r[3]] for r in self.rows])

    # -- comparisons / serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Msc) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        r1 = ", ".join(repr(x) for x in self.rows[0])
        r2 = ", ".join(repr(x) for x in self.rows[1])
        return f"Msc([{r1}; {r2}])"

    def to_json(self) -> dict:
        return {
            "dim": 2,
            "field": self.field.to_json(),
            "entries": [[_entry_json(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Msc":
        from .exactnum import field_make

        if not isinstance(data, dict):
            raise AlgidError(f"expected a JSON object, got {type(data).__name__}")
        if data.get("dim") != 2:
            raise DimensionMismatch(f"unsupported dimension {data.get('dim')!r}")
        field = field_make(data["field"])
        return cls.from_scalars(field, data["entries"])


def sum_entries(xs: Sequence[Entry]) -> Entry:
    out = xs[0]
    for x in xs[1:]:
        out = out + x
    return out


# -- generic small matrices (lists of lists) ----------------------------------


def mat_mul(A: Sequence[Sequence[Entry]], B: Sequence[Sequence[Entry]]):
    n, k, m = len(A), len(B), len(B[0])
    assert all(len(r) == k for r in A)
    return [
        [sum_entries([A[i][t] * B[t][j] for t in range(k)]) for j in range(m)]
        for i in range(n)
    ]


def mat_kron(A: Sequence[Sequence[Entry]], B: Sequence[Sequence[Entry]]):
    out = []
    for ra in A:
        for rb in B:
            out.append([a * b for a in ra for b in rb])
    return out


def det2(g: Sequence[Sequence[Entry]]) -> Entry:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def change_basis(A: Msc, g: Sequence[Sequence[Scalar]]) -> Msc:
    """MSC of the image algebra under the isomorphism with matrix g.

    If f has matrix g (coordinates of f(x) are g.x) then the returned B
    satisfies f(u v) = f(u) f(v) in B, i.e. B = g A (g^-1 (x) g^-1).
    Concrete scalar entries only; for symbolic witnesses use conjugates_to,
    which avoids inverting g.
    """
    d = det2(g)
    if d.is_zero():
        raise ValueError("change of basis matrix is singular")
    dinv = inv(d)
    ginv = [[g[1][1] * dinv, -g[0][1] * dinv], [-g[1][0] * dinv, g[0][0] * dinv]]
    rows = mat_mul(mat_mul(g, A.rows), mat_kron(ginv, ginv))
    return Msc(A.field, rows)


def conjugates_to(A: Msc, B: Msc, g: Sequence[Sequence[Entry]]) -> bool:
    """True iff the isomorphism with matrix g carries A onto B.

    Uses the division-free form g.A == B.(g (x) g), valid for polynomial
    entries as well, plus invertibility of g.
    """
    if det2(g).is_zero():
        return False
    return mat_mul(g, A.rows) == mat_mul(B.rows, mat_kron(g, g))


# -- isomorphism search --------------------------------------------------------

# Most cases any enumeration visits: GL2 candidates here, parameter points
# of a catalog row (p ** frees).
ENUM_LIMIT = 20000


def _conjugates_mod_p(a, b, g, p: int) -> bool:
    """g.a == b.(g (x) g) mod p on residue rows, stopping at the first
    mismatched entry.  Column (j, l) of g (x) g is column j of g tensored
    with column l, the layout of mat_kron."""
    (g11, g12), (g21, g22) = g
    cols = ((g11, g21), (g12, g22))
    for c, ((x1, x2), (y1, y2)) in enumerate(
            itertools.product(cols, repeat=2)):
        k = (x1 * y1, x1 * y2, x2 * y1, x2 * y2)
        for (r0, r1), brow in zip(g, b):
            lhs = r0 * a[0][c] + r1 * a[1][c]
            rhs = brow[0] * k[0] + brow[1] * k[1] + brow[2] * k[2] + brow[3] * k[3]
            if (lhs - rhs) % p:
                return False
    return True


def search_iso(A: Msc, B: Msc):
    """First change of basis (in lexicographic entry order) carrying A to B,
    or None.  Exhaustive over GL_2 of a small finite field; A and B need
    concrete structure constants, which are compared as residues mod p."""
    f = A.field
    if B.field != f:
        raise FieldMismatch("cannot search between different fields")
    if f.kind == "Q":
        raise AlgidError("isomorphism search enumerates GL2 of a finite field")
    if f.p ** 4 > ENUM_LIMIT:
        raise SearchSpaceTooLarge(
            "GL2(F_%d) enumeration (%d matrices) is over the limit"
            % (f.p, f.p ** 4))
    if not (A.is_concrete() and B.is_concrete()):
        raise AlgidError("isomorphism search needs concrete structure constants")
    p = f.p
    a = [[x.value for x in row] for row in A.rows]
    b = [[x.value for x in row] for row in B.rows]
    for g11, g12, g21, g22 in itertools.product(range(p), repeat=4):
        if (g11 * g22 - g12 * g21) % p == 0:
            continue
        g = ((g11, g12), (g21, g22))
        if _conjugates_mod_p(a, b, g, p):
            return tuple(tuple(f.scalar(x) for x in row) for row in g)
    return None
