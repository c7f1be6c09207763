"""Canonical two-dimensional algebra families and the classification claims.

Twelve families per characteristic regime, stored as 2x4 cell-expression
templates over named parameters.  On top of the templates sit three kinds of
claim tables, all transcribed literally from the classification being
verified:

* ``CLAIMED_SOLUTIONS[regime][identity]`` — which family instances are
  asserted to satisfy each identity,
* ``OPPOSITE_TABLES[regime]`` — how each family relates to its opposite
  algebra (exact equality or isomorphism, with the printed witness where one
  is printed),
* ``SELF_OPPOSITE[regime]`` — which instances are asserted isomorphic to
  their own opposite,
* ``SECTION3_ROWS`` — the worked products, commutators, associators and
  degree-3 laws of Section 3, each with its printed components.

Three facts are read from the texts rather than stated next to them:

* a family's parameters are its bare template cells (a cell that is just a
  name), in row-major order of first appearance; that is the order
  ``--args`` takes,
* a row's free parameters are its bare arguments, in order of first
  appearance; for an opposite row, its source arguments,
* a family's regime is the table it is listed in.

This module is data plus instantiation helpers; the checking logic lives in
``verifier``.  A row has one path to its algebras: its argument texts are
evaluated at a parameter point, and the family template at those values
(`_instance`).  A point binds each free to a scalar or, at the
row's symbolic point, to the polynomial variable of its own name; each text
is compiled once per field and value domain (`compile_expr`, on plain
values at a concrete point, on Scalars and polynomials at the symbolic
point), so a symbolic check is the row's instance at its symbolic point.

Rows known to be wrong in the source tables carry a non-empty ``erratum``
note and are still checked (they are expected to fail with a witness, never
silently dropped).
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra_core import ENUM_LIMIT, Entry, Msc
from .errors import (
    CharMismatch,
    DivisionByZero,
    ParamCountMismatch,
    SearchSpaceTooLarge,
    UnknownFamily,
    UnknownIdentity,
)
from .exactnum import Field, Scalar, sqrt
from .multipoly import MultiPoly, SqrtUnavailable, compile_expr, expr_to_poly, parse_expr

REGIME_CHAR0 = "char0"  # characteristic not 2 and not 3
REGIME_CHAR2 = "char2"
REGIME_CHAR3 = "char3"
REGIMES = (REGIME_CHAR0, REGIME_CHAR2, REGIME_CHAR3)


def regime_for_field(field: Field) -> str:
    """The regime whose canonical forms make sense over `field`."""
    if field.char == 2:
        return REGIME_CHAR2
    if field.char == 3:
        return REGIME_CHAR3
    return REGIME_CHAR0


@lru_cache(maxsize=None)
def _node(text: str):
    return parse_expr(text)


@lru_cache(maxsize=None)
def _node_kinds(text: str) -> frozenset:
    """The kinds ("num", "sqrt", "div", ...) of every node of an expression."""
    kinds, stack = set(), [_node(text)]
    while stack:
        n = stack.pop()
        kinds.add(n[0])
        stack.extend(c for c in n[1:] if isinstance(c, tuple))
    return frozenset(kinds)


@lru_cache(maxsize=None)
def _compiled(text: str, field: Field, objects: bool):
    """A catalog text compiled (`compile_expr`) on plain values or, with
    `objects`, on Scalars and polynomials, built on first use; a paper pass
    compiles 137 on plain values and 16 on objects."""
    return compile_expr(_node(text), field, objects)


def _evaluator(field: Field, env: Dict[str, object]):
    """text -> its value at `env` by the compiled text: on plain values at a
    concrete point, on objects where `env` binds anything but a Scalar over
    `field` (a polynomial, at the symbolic point)."""
    if all(isinstance(x, Scalar) and x.field == field for x in env.values()):
        plain = {name: x.value for name, x in env.items()}
        return lambda text: Scalar(field, _compiled(text, field, False)(plain))
    return lambda text: _compiled(text, field, True)(env)


def _values_at(field: Field, env: Dict[str, object], *groups: Sequence[str]):
    """(values, "") with a tuple of values per group of texts at `env` (Scalars,
    or polynomials where `env` binds one), or (None, skip reason) when a
    square root or an inverse is unavailable."""
    value = _evaluator(field, env)
    try:
        return tuple(tuple(map(value, group)) for group in groups), ""
    except SqrtUnavailable as exc:
        return None, "square root unavailable: %s" % exc
    except DivisionByZero as exc:
        return None, "division by zero: %s" % exc


def _symbolic(frees: Sequence[str], field: Field) -> Tuple[MultiPoly, ...]:
    """The symbolic point: each free bound to the variable of its name."""
    return tuple(MultiPoly.var(field, f) for f in frees)


def call_label(name: str, args: Sequence[object]) -> str:
    """"name(arg, ...)", or just "name" without arguments."""
    return "%s(%s)" % (name, ", ".join(map(str, args))) if args else name


def _point_label(base: str, frees: Sequence[str],
                 point: Tuple[Scalar, ...]) -> str:
    if not point:
        return base
    at = ", ".join("%s=%s" % (f, v) for f, v in zip(frees, point))
    return "%s @ %s" % (base, at)


class _RowTable:
    """The instances of one catalog row (claim or opposite) over one field,
    each built once by the row's `_instance_at`.  `instances` are those at
    the admissible points: over the rationals the frozen samples, or the
    single point of a parameter-free row; over a finite field every
    assignment of the frees, in lexicographic order.  They are enumerated
    only when asked for; `symbolic` is the instance at the symbolic point,
    and `at` serves any other point (one read off a candidate).  Instances
    and Msc are immutable, so callers share them."""

    def __init__(self, row, field: Field):
        self.row, self.field, self._built = row, field, {}

    def at(self, point: tuple):
        """The row's instance at `point`."""
        ins = self._built.get(point)
        if ins is None:
            ins = self._built[point] = self.row._instance_at(self.field, point)
        return ins

    def admits(self, point: tuple) -> bool:
        """Whether `point` meets the row's side conditions."""
        row = self.row
        if not (row.nonzero or row.zero):
            return True
        value = _evaluator(self.field, dict(zip(row.frees, point)))
        return (not any(value(text).is_zero() for text in row.nonzero)
                and all(value(text).is_zero() for text in row.zero))

    @cached_property
    def symbolic(self):
        return self.at(_symbolic(self.row.frees, self.field))

    @cached_property
    def instances(self) -> tuple:
        field, frees = self.field, self.row.frees
        if field.kind == "Q":
            value = _evaluator(field, {})
            pts = [tuple(map(value, s)) for s in self.row.samples] if frees else [()]
        elif field.p ** len(frees) > ENUM_LIMIT:
            raise SearchSpaceTooLarge(
                "%d parameter points over F_%d is over the enumeration limit"
                % (field.p ** len(frees), field.p))
        else:
            pts = itertools.product(field.elements(), repeat=len(frees))
        return tuple(self.at(pt) for pt in pts if self.admits(pt))

    @cached_property
    def free_cells(self) -> Tuple[int, ...]:
        """For each free of a claim row, the row-major index of the first
        template cell that is the family parameter bound to it."""
        fam = family(self.row.family)
        arg_of = dict(zip(fam.params, self.row.args))
        bound = [arg_of.get(cell.strip(), "").strip() for cell in fam.rows[0] + fam.rows[1]]
        return tuple(bound.index(f) for f in self.row.frees)


@lru_cache(maxsize=None)
def _table(row, field: Field) -> _RowTable:
    """The one table of `row` over `field`: a paper pass builds 180.  Claim
    rows (9 fields) and opposite rows (10) never share a key."""
    return _RowTable(row, field)


class Family(NamedTuple):
    """One canonical family: a 2x4 template of cell expressions."""

    name: str
    regime: str
    params: Tuple[str, ...]
    rows: Tuple[Tuple[str, str, str, str], Tuple[str, str, str, str]]
    note: str = ""

    @property
    def arity(self) -> int:
        return len(self.params)

    def label(self) -> str:
        return call_label(self.name, self.params)

    def check_regime(self, field: Field) -> None:
        if regime_for_field(field) != self.regime:
            need = {REGIME_CHAR0: "different from 2 and 3", REGIME_CHAR2: "2",
                    REGIME_CHAR3: "3"}[self.regime]
            raise CharMismatch(
                "family %s needs characteristic %s; field has characteristic %d"
                % (self.name, need, field.char))

    def instantiate(self, field: Field, args: Sequence[Entry]) -> Msc:
        """The template at `args`, Scalars or polynomials in any variables:
        a fresh algebra, which the module does not keep."""
        return _build(self, field, tuple(args))


def _build(fam: Family, field: Field, args: tuple) -> Msc:
    """Every template cell evaluated at the bound parameters."""
    fam.check_regime(field)
    if len(args) != fam.arity:
        raise ParamCountMismatch(
            "family %s takes %d parameter(s), got %d"
            % (fam.name, fam.arity, len(args)))
    value = _evaluator(field, dict(zip(fam.params, args)))
    return Msc(field, [[value(cell) for cell in row] for row in fam.rows])


# Claim, opposite and worked rows and negative spot-check candidates share
# family algebras: a paper pass asks for 366 distinct (family, field, args)
# about 1050 times, each regime's candidates recurring for every identity.
# Only these catalog callers, with their finitely many points, reach the memo;
# Msc and Scalar are immutable, so they share the algebras.
_instance = lru_cache(maxsize=None)(_build)


def _bare_names(texts: Sequence[str]) -> Tuple[str, ...]:
    """The texts that are a bare name once stripped, in order of first
    appearance and without repeats."""
    names = []
    for text in texts:
        name = text.strip()
        if name.isidentifier() and name not in names:
            names.append(name)
    return tuple(names)


def _fam(name, row1, row2, note=""):
    return name, (tuple(row1), tuple(row2)), note


# --- characteristic != 2, 3 ------------------------------------------------

_CHAR0_FAMILIES = (
    _fam("A1", ("a1", "a2", "a2 + 1", "a4"), ("b1", "-a1", "1 - a1", "-a2")),
    _fam("A2", ("a1", "0", "0", "1"), ("b1", "b2", "1 - a1", "0"),
         note="A2(a1, b1, b2) and A2(a1, -b1, b2) are isomorphic"),
    _fam("A3", ("0", "1", "1", "0"), ("b1", "b2", "1", "-1")),
    _fam("A4", ("a1", "0", "0", "0"), ("0", "b2", "1 - a1", "0")),
    _fam("A5", ("a1", "0", "0", "0"), ("1", "2*a1 - 1", "1 - a1", "0")),
    _fam("A6", ("a1", "0", "0", "1"), ("b1", "1 - a1", "-a1", "0"),
         note="A6(a1, b1) and A6(a1, -b1) are isomorphic"),
    _fam("A7", ("0", "1", "1", "0"), ("b1", "1", "0", "-1")),
    _fam("A8", ("a1", "0", "0", "0"), ("0", "1 - a1", "-a1", "0")),
    _fam("A9", ("1/3", "0", "0", "0"), ("1", "2/3", "-1/3", "0")),
    _fam("A10", ("0", "1", "1", "0"), ("0", "0", "0", "-1")),
    _fam("A11", ("0", "1", "1", "0"), ("1", "0", "0", "-1")),
    _fam("A12", ("0", "0", "0", "0"), ("1", "0", "0", "0")),
)

# --- characteristic 2 -------------------------------------------------------

_CHAR2_FAMILIES = (
    _fam("A1_2", ("a1", "a2", "1 + a2", "a4"), ("b1", "a1", "1 + a1", "a2")),
    _fam("A2_2", ("a1", "0", "0", "1"), ("b1", "b2", "1 + a1", "0")),
    _fam("A3_2", ("a1", "1", "1", "0"), ("0", "b2", "1 + a1", "1")),
    _fam("A4_2", ("a1", "0", "0", "0"), ("0", "b2", "1 + a1", "0")),
    _fam("A5_2", ("a1", "0", "0", "0"), ("1", "1", "1 + a1", "0")),
    _fam("A6_2", ("a1", "0", "0", "1"), ("b1", "1 + a1", "a1", "0")),
    _fam("A7_2", ("a1", "1", "1", "0"), ("0", "1 + a1", "a1", "1")),
    _fam("A8_2", ("a1", "0", "0", "0"), ("0", "1 + a1", "a1", "0")),
    _fam("A9_2", ("1", "0", "0", "0"), ("1", "0", "1", "0")),
    _fam("A10_2", ("0", "1", "1", "0"), ("0", "0", "0", "1")),
    _fam("A11_2", ("1", "1", "1", "0"), ("0", "1", "1", "1")),
    _fam("A12_2", ("0", "0", "0", "0"), ("1", "0", "0", "0")),
)

# --- characteristic 3 -------------------------------------------------------

_CHAR3_FAMILIES = (
    _fam("A1_3", ("a1", "a2", "a2 + 1", "a4"), ("b1", "-a1", "1 - a1", "-a2")),
    _fam("A2_3", ("a1", "0", "0", "1"), ("b1", "b2", "1 - a1", "0"),
         note="A2_3(a1, b1, b2) and A2_3(a1, -b1, b2) are isomorphic"),
    _fam("A3_3", ("0", "1", "1", "0"), ("b1", "b2", "1", "-1")),
    _fam("A4_3", ("a1", "0", "0", "0"), ("0", "b2", "1 - a1", "0")),
    _fam("A5_3", ("a1", "0", "0", "0"), ("1", "-a1 - 1", "1 - a1", "0")),
    _fam("A6_3", ("a1", "0", "0", "1"), ("b1", "1 - a1", "-a1", "0")),
    _fam("A7_3", ("0", "1", "1", "0"), ("b1", "1", "0", "-1")),
    _fam("A8_3", ("a1", "0", "0", "0"), ("0", "1 - a1", "-a1", "0")),
    _fam("A9_3", ("0", "1", "1", "0"), ("1", "0", "0", "-1")),
    _fam("A10_3", ("0", "1", "1", "0"), ("0", "0", "0", "-1")),
    _fam("A11_3", ("1", "0", "0", "0"), ("1", "-1", "-1", "0")),
    _fam("A12_3", ("0", "0", "0", "0"), ("1", "0", "0", "0")),
)

FAMILY_ORDER: Dict[str, Tuple[Family, ...]] = {
    regime: tuple(Family(name, regime, _bare_names(rows[0] + rows[1]), rows, note)
                  for name, rows, note in fams)
    for regime, fams in ((REGIME_CHAR0, _CHAR0_FAMILIES),
                         (REGIME_CHAR2, _CHAR2_FAMILIES),
                         (REGIME_CHAR3, _CHAR3_FAMILIES))
}

FAMILIES: Dict[str, Family] = {
    f.name: f for fams in FAMILY_ORDER.values() for f in fams
}


def family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UnknownFamily("unknown family %r (known: %s)"
                            % (name, ", ".join(sorted(FAMILIES)))) from None


# ---------------------------------------------------------------------------
# Claim rows


class ClaimedRow(NamedTuple):
    """One entry of a claimed solution list: a family at given arguments.

    ``args`` are expressions over the ``frees``, which are the bare
    arguments; ``nonzero``/``zero`` are polynomial side conditions on the
    frees.  ``samples`` freezes rational
    points used over the rationals when an argument involves a square root
    (symbolic checking is used whenever all arguments are radical-free).
    ``sqrt_requirements`` lists constants whose square root the claimed
    witness construction needs to exist in the field (self-opposite rows).
    A non-empty ``erratum`` marks a row known to fail; the text states the
    mechanical witness.
    """

    family: str
    args: Tuple[str, ...]
    frees: Tuple[str, ...] = ()
    nonzero: Tuple[str, ...] = ()
    zero: Tuple[str, ...] = ()
    samples: Tuple[Tuple[str, ...], ...] = ()
    sqrt_requirements: Tuple[str, ...] = ()
    erratum: str = ""
    note: str = ""

    def label(self) -> str:
        return call_label(self.family, self.args)

    def has_radical(self) -> bool:
        return any("sqrt" in _node_kinds(a) for a in self.args)

    def missing_root(self, field: Field) -> str:
        """The first `sqrt_requirements` text without a root in `field` (empty if none)."""
        (values,), _ = _values_at(field, {}, self.sqrt_requirements)
        return next((req for req, val in zip(self.sqrt_requirements, values)
                     if sqrt(val) is None), "")

    def symbolic_algebra(self, field: Field) -> Optional[Msc]:
        """The algebra at the symbolic point, or None if a radical blocks it."""
        if self.has_radical():
            return None
        return _table(self, field).symbolic.algebra

    def _instance_at(self, field: Field, point: tuple) -> "ClaimInstance":
        vals, skip = _values_at(field, dict(zip(self.frees, point)), self.args)
        if skip:
            return ClaimInstance(self, point, None, None, skip)
        (args,) = vals
        return ClaimInstance(self, point, args,
                             _instance(family(self.family), field, args), "")

    def instances(self, field: Field) -> List["ClaimInstance"]:
        """This row's instances over `field` (`_RowTable`), as a fresh list.
        Rows with radical-free frees have none over Q: they are checked
        symbolically (`symbolic_algebra`).  A point whose arguments cannot
        be evaluated gives a skipped instance carrying the reason."""
        return list(_table(self, field).instances)


class ClaimInstance(NamedTuple):
    row: ClaimedRow
    point: Tuple[Scalar, ...]
    arg_values: Optional[Tuple[Scalar, ...]]
    algebra: Optional[Msc]
    skip_reason: str

    def label(self) -> str:
        if self.arg_values is not None:
            return call_label(self.row.family, self.arg_values)
        return _point_label(self.row.label(), self.row.frees, self.point)


# Frozen rational sample pools for the radical rows (each value makes the
# radicand a perfect square and respects the row's side conditions).
_POOL_A1_MINUS_A1SQ = (("1/2",), ("1/5",), ("1/10",), ("4/5",), ("9/10",))
_POOL_32A1_MINUS_15 = (("1/2",), ("3/4",), ("5/4",), ("2",), ("3",))
_POOL_12A1_7A1SQ_4 = (("1",), ("1/2",), ("5/7",), ("5/11",), ("13/23",))


def _row(fam_name, *args, nz=(), z=(), samples=(), sqrt_req=(),
         erratum="", note=""):
    return ClaimedRow(
        family=fam_name,
        args=tuple(args),
        frees=_bare_names(args),
        nonzero=tuple(nz),
        zero=tuple(z),
        samples=tuple(samples),
        sqrt_requirements=tuple(sqrt_req),
        erratum=erratum,
        note=note,
    )


# --- claimed solution lists, characteristic != 2, 3 -------------------------

_C0_I1 = (
    _row("A2", "a1", "b1", "1 - a1"),
    _row("A3", "b1", "1"),
    _row("A4", "a1", "1 - a1"),
    _row("A5", "2/3"),
    _row("A10"),
    _row("A11"),
    _row("A12"),
)

_C0_I7 = _C0_I1 + (
    _row("A4", "a1", "a1 - 1"),
    _row("A5", "0"),
    _row("A8", "1/2"),
)

_C0_I14 = (
    _row("A4", "0", "-1"),
    _row("A8", "0"),
    _row("A12"),
)

_C0_I21 = (
    _row("A2", "a1", "b1", "1 - a1"),
    _row("A3", "b1", "1"),
    _row("A4", "0", "-1"),
    _row("A4", "0", "0"),
    _row("A4", "a1", "1 - a1"),
    _row("A5", "2/3"),
    _row("A10"),
    _row("A11"),
    _row("A12"),
)

_ERR_A12_ANTICOMM = (
    "uv + vu = 2 x1 y1 e2 on this algebra, nonzero away from characteristic "
    "2; the characteristic-3 table rightly omits it (expected fail)"
)

_CHAR0_CLAIMS: Dict[str, Tuple[ClaimedRow, ...]] = {
    "I1": _C0_I1,
    "I2": (
        _row("A4", "0", "-1"),
        _row("A12", erratum=_ERR_A12_ANTICOMM),
    ),
    "I3": (
        _row("A2", "1/2", "0", "1/2"),
        _row("A4", "1/2", "1/2"),
        _row("A4", "1", "0"),
        _row("A4", "1", "1"),
        _row("A4", "1/2", "0"),
        _row("A12"),
    ),
    "I4": (_row("A12"),),
    "I5": (
        _row("A1", "1/3", "-1/3", "0", "0"),
        _row("A2", "a1", "b1", "1 - a1"),
        _row("A3", "b1", "1"),
        _row("A4", "a1", "1 - a1", nz=("3*a1 - 2",)),
        _row("A4", "a1", "2*a1 - 1"),
        _row("A5", "2/3"),
        _row("A8", "1/3"),
        _row("A10"),
        _row("A11"),
        _row("A12"),
    ),
    "I6": _C0_I1,
    "I7": _C0_I7,
    "I8": _C0_I1,
    "I9": _C0_I1,
    "I10": _C0_I1 + (
        _row("A4", "a1", "2*a1 - 1", nz=("3*a1 - 2",)),
        _row("A8", "1/3"),
    ),
    "I11": (_row("A12"),),
    "I12": _C0_I7,
    "I13": _C0_I1,
    "I14": _C0_I14,
    "I15": (_row("A12"),),
    "I16": _C0_I7,
    "I17": _C0_I1,
    "I18": _C0_I14,
    "I19": (
        _row("A2", "1/2", "0", "1/2"),
        _row("A2", "1/2", "0", "-1/2"),
        _row("A4", "a1", "-1 + 2*a1",
             nz=("5*a1^2 - 5*a1 + 1",)),
        _row("A4", "a1", "sqrt(a1 - a1^2)",
             nz=("a1", "a1 - 1"), samples=_POOL_A1_MINUS_A1SQ),
        _row("A4", "a1", "-sqrt(a1 - a1^2)",
             nz=("a1", "a1 - 1"), samples=_POOL_A1_MINUS_A1SQ),
        _row("A5", "(5 - sqrt(5))/10"),
        _row("A5", "(5 + sqrt(5))/10"),
        _row("A8", "1/3"),
        _row("A8", "(1 - sqrt(-1))/2"),
        _row("A8", "(1 + sqrt(-1))/2"),
        _row("A12"),
    ),
    "I20": (
        _row("A4", "0", "-1"),
        _row("A4", "0", "0"),
        _row("A12"),
    ),
    "I21": _C0_I21,
    "I22": _C0_I21,
    "I23": (
        _row("A2", "1/2", "0", "1/2"),
        _row("A4", "0", "-1"),
        _row("A4", "1/2", "1/2"),
        _row("A4", "1", "0"),
        _row("A8", "0"),
        _row("A12"),
    ),
    "I24": _C0_I14,
    "I25": (_row("A12"),),
    "I26": (_row("A12"),),
    "I27": (
        _row("A2", "1/2", "0", "1/2"),
        _row("A2", "1", "0", "1/2"),
        _row("A4", "1", "b2"),
        _row("A4", "1/2", "b2"),
        _row("A5", "1"),
        _row("A5", "1/2"),
        _row("A8", "0"),
        _row("A12"),
    ),
    "I28": (
        _row("A2", "1/2", "0", "1/2"),
        _row("A4", "1/2", "1/2"),
        _row("A4", "1/2", "0"),
        _row("A4", "1", "0"),
        _row("A4", "1", "1"),
        _row("A12"),
    ),
    "I29": (
        _row("A1", "a1",
             "(sqrt(32*a1 - 15) - 8*a1 - 1)/8",
             "(4*a1 + 1 - sqrt(32*a1 - 15))/4",
             "(8*a1 - 1 + sqrt(32*a1 - 15))/8",
             samples=_POOL_32A1_MINUS_15),
        _row("A1", "a1",
             "(-sqrt(32*a1 - 15) - 8*a1 - 1)/8",
             "(4*a1 + 1 + sqrt(32*a1 - 15))/4",
             "(8*a1 - 1 - sqrt(32*a1 - 15))/8",
             samples=_POOL_32A1_MINUS_15),
        _row("A2", "1/2", "0", "1/2"),
        _row("A4", "a1", "(a1 - sqrt(12*a1 - 7*a1^2 - 4))/2",
             samples=_POOL_12A1_7A1SQ_4),
        _row("A4", "a1", "(a1 + sqrt(12*a1 - 7*a1^2 - 4))/2",
             samples=_POOL_12A1_7A1SQ_4),
        _row("A5", "1/2"),
        _row("A5", "1"),
        _row("A8", "(3 - sqrt(-7))/8"),
        _row("A8", "(3 + sqrt(-7))/8"),
        _row("A12"),
    ),
    "I30": (
        _row("A2", "a1", "b1", "1 - a1"),
        _row("A3", "b1", "1"),
        _row("A4", "a1", "1 - a1"),
        _row("A4", "a1", "2*a1 - 1"),
        _row("A5", "2/3"),
        _row("A8", "1/3"),
        _row("A10"),
        _row("A11"),
        _row("A12"),
    ),
}

# Dedicated list used for I19 when the field has characteristic 5 (the
# char0 list's exclusions degenerate there: 10 = 0 kills the two A5 branches
# and 5 a1^2 - 5 a1 + 1 = 1 frees the A4 row).  The two A5 rows are kept so
# the report shows why they contribute nothing over such fields.
CHAR5_I19_ROWS: Tuple[ClaimedRow, ...] = (
    _row("A2", "1/2", "0", "1/2"),
    _row("A2", "1/2", "0", "-1/2"),
    _row("A4", "a1", "-1 + 2*a1"),
    _row("A4", "a1", "sqrt(a1 - a1^2)", nz=("a1", "a1 - 1")),
    _row("A4", "a1", "-sqrt(a1 - a1^2)", nz=("a1", "a1 - 1")),
    _row("A5", "(5 - sqrt(5))/10",
         note="branch collapses in characteristic 5 (division by 10 = 0)"),
    _row("A5", "(5 + sqrt(5))/10",
         note="branch collapses in characteristic 5 (division by 10 = 0)"),
    _row("A8", "1/3"),
    _row("A8", "3/2"),
    _row("A9"),
    _row("A12"),
)

# --- claimed solution lists, characteristic 2 --------------------------------

_C2_I1 = (
    _row("A2_2", "a1", "b1", "1 + a1"),
    _row("A3_2", "a1", "1 + a1"),
    _row("A4_2", "a1", "1 + a1"),
    _row("A5_2", "0"),
    _row("A10_2"),
    _row("A11_2"),
    _row("A12_2"),
)

_C2_I3 = (
    _row("A3_2", "1", "0"),
    _row("A4_2", "1", "0"),
    _row("A4_2", "1", "1"),
    _row("A8_2", "1"),
    _row("A10_2"),
    _row("A12_2"),
)

_C2_I6 = (
    _row("A2_2", "a1", "b1", "1 - a1"),
    _row("A3_2", "a1", "1 - a1"),
    _row("A4_2", "a1", "1 - a1"),
    _row("A5_2", "0"),
    _row("A10_2"),
    _row("A11_2"),
    _row("A12_2"),
)

_C2_I10 = _C2_I1 + (
    _row("A4_2", "a1", "1", nz=("a1",)),
    _row("A8_2", "1"),
)

_C2_I14 = (
    _row("A4_2", "0", "1"),
    _row("A8_2", "0"),
    _row("A12_2"),
)

_C2_I19 = (
    _row("A3_2", "0", "0"),
    _row("A3_2", "1", "0"),
    _row("A4_2", "a1", "1"),
    _row("A4_2", "a1", "sqrt(a1 + a1^2)",
         nz=("a1^2 + a1 + 1",)),
    _row("A5_2", "a1", z=("a1^2 + a1 + 1",),
         note="condition a1^2 + a1 + 1 = 0 has no solution in F_2"),
    _row("A8_2", "1"),
    _row("A10_2"),
    _row("A12_2"),
)

_C2_I21 = _C2_I1 + (_row("A4_2", "0", "0"),)

_C2_I23 = (
    _row("A3_2", "1", "0"),
    _row("A4_2", "1", "0"),
    _row("A4_2", "0", "1"),
    _row("A8_2", "0"),
    _row("A10_2"),
    _row("A12_2"),
)

_C2_I27 = (
    _row("A3_2", "1", "0"),
    _row("A4_2", "1", "b2"),
    _row("A5_2", "1"),
    _row("A6_2", "a1", "0"),
    _row("A7_2", "1"),
    _row("A8_2", "a1"),
    _row("A9_2"),
    _row("A10_2"),
    _row("A12_2"),
)

_C2_I29 = (
    _row("A1_2", "a1", "1 + a1", "a1", "1 + a1"),
    _row("A2_2", "a1", "b1", "1 + a1"),
    _row("A3_2", "a1", "1 + a1"),
    _row("A4_2", "a1", "1 + a1"),
    _row("A4_2", "a1", "1", nz=("a1",)),
    _row("A5_2", "a1"),
    _row("A8_2", "1"),
    _row("A9_2"),
    _row("A10_2"),
    _row("A11_2"),
    _row("A12_2"),
)

_ERR_A52_POISSON = (
    "the left Poisson cycle on A5_2(a1) leaves e2 coefficient x1 y1 z1 with "
    "constant residual 1, unsatisfiable for every a1 in characteristic 2; "
    "dropping the row makes this list the exact analogue of the "
    "characteristic-0 one (expected fail)"
)

_CHAR2_CLAIMS: Dict[str, Tuple[ClaimedRow, ...]] = {
    "I1": _C2_I1,
    "I2": _C2_I1,
    "I3": _C2_I3,
    "I4": _C2_I3,
    "I5": (
        _row("A1_2", "1", "1", "0", "0"),
        _row("A2_2", "a1", "b1", "1 + a1"),
        _row("A3_2", "a1", "1 - a1"),
        _row("A4_2", "a1", "1 + a1", nz=("a1",)),
        _row("A4_2", "a1", "1"),
        _row("A5_2", "0"),
        _row("A8_2", "1"),
        _row("A10_2"),
        _row("A11_2"),
        _row("A12_2"),
    ),
    "I6": _C2_I6,
    "I7": _C2_I6,
    "I8": _C2_I1,
    "I9": _C2_I1,
    "I10": _C2_I10,
    "I11": _C2_I10,
    "I12": _C2_I1,
    "I13": _C2_I1,
    "I14": _C2_I14,
    "I15": _C2_I14,
    "I16": _C2_I1,
    "I17": _C2_I1,
    "I18": (
        _row("A4_2", "0", "1"),
        _row("A5_2", "0", erratum=_ERR_A52_POISSON),
        _row("A8_2", "0"),
        _row("A12_2"),
    ),
    "I19": _C2_I19,
    "I20": _C2_I19,
    "I21": _C2_I21,
    "I22": _C2_I21,
    "I23": _C2_I23,
    "I24": _C2_I23,
    "I25": (_row("A12_2"),),
    "I26": (_row("A12_2"),),
    "I27": _C2_I27,
    "I28": _C2_I27,
    "I29": _C2_I29,
    "I30": _C2_I29,
}

# Pairs of identities whose expanded systems coincide in characteristic 2
# (2 = 0 merges the paired sign variants); I5 and I18 stand alone.
CHAR2_IDENTITY_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("I1", "I2"), ("I3", "I4"), ("I6", "I7"), ("I8", "I9"),
    ("I10", "I11"), ("I12", "I13"), ("I14", "I15"), ("I16", "I17"),
    ("I19", "I20"), ("I21", "I22"), ("I23", "I24"), ("I25", "I26"),
    ("I27", "I28"), ("I29", "I30"),
)

# --- claimed solution lists, characteristic 3 --------------------------------

_ERR_A53_COMM = (
    "row 2 of the template is (1, -a1 - 1, 1 - a1, 0) and "
    "(1 - a1) - (-a1 - 1) = 2 is nonzero mod 3, so no instance is "
    "commutative (expected fail)"
)

_C3_I6 = (
    _row("A2_3", "a1", "b1", "1 - a1"),
    _row("A3_3", "b1", "1"),
    _row("A4_3", "a1", "1 - a1"),
    _row("A9_3"),
    _row("A10_3"),
    _row("A11_3"),
    _row("A12_3"),
)

_C3_I7 = _C3_I6 + (
    _row("A4_3", "a1", "a1 - 1"),
    _row("A5_3", "0"),
    _row("A8_3", "-1"),
)

_C3_I23 = (
    _row("A2_3", "-1", "0", "-1"),
    _row("A2_3", "0", "0", "-1"),
    _row("A4_3", "a1", "-(1 - a1)^2"),
    _row("A5_3", "0"),
    _row("A8_3", "0"),
    _row("A12_3"),
)

_C3_I21 = (
    _row("A2_3", "a1", "b1", "1 - a1"),
    _row("A3_3", "b1", "1"),
    _row("A4_3", "0", "-1"),
    _row("A4_3", "0", "0"),
    _row("A4_3", "a1", "1 - a1"),
    _row("A9_3"),
    _row("A10_3"),
    _row("A11_3"),
    _row("A12_3"),
)

_CHAR3_CLAIMS: Dict[str, Tuple[ClaimedRow, ...]] = {
    "I1": (
        _row("A2_3", "a1", "b1", "1 - a1"),
        _row("A3_3", "b1", "1"),
        _row("A4_3", "a1", "1 - a1"),
        _row("A5_3", "a1", erratum=_ERR_A53_COMM),
        _row("A9_3"),
        _row("A10_3"),
        _row("A11_3"),
        _row("A12_3"),
    ),
    "I2": (_row("A4_3", "0", "-1"),),
    "I3": (
        _row("A2_3", "-1", "0", "-1"),
        _row("A4_3", "-1", "-1"),
        _row("A4_3", "1", "0"),
        _row("A4_3", "1", "1"),
        _row("A4_3", "-1", "0"),
        _row("A12_3"),
    ),
    "I4": (_row("A12_3"),),
    "I5": (
        _row("A2_3", "a1", "b1", "1 - a1"),
        _row("A3_3", "b1", "1"),
        _row("A3_3", "0", "-1"),
        _row("A4_3", "a1", "1 - a1"),
        _row("A4_3", "a1", "2*a1 - 1"),
        _row("A9_3"),
        _row("A10_3"),
        _row("A11_3"),
        _row("A12_3"),
    ),
    "I6": _C3_I6,
    "I7": _C3_I7,
    "I8": _C3_I6,
    "I9": _C3_I6,
    "I10": _C3_I6 + (_row("A4_3", "a1", "2*a1 - 1"),),
    "I11": (_row("A12_3"),),
    "I12": _C3_I7,
    "I13": _C3_I6,
    "I14": (
        _row("A4_3", "0", "-1"),
        _row("A8_3", "0"),
        _row("A12_3"),
    ),
    "I15": (
        _row("A2_3", "2", "0", "-1"),
        _row("A4_3", "1", "0"),
        _row("A4_3", "1", "1"),
        _row("A4_3", "-1", "-1"),
        _row("A12_3"),
    ),
    "I16": _C3_I7,
    "I17": _C3_I6,
    "I18": (
        _row("A2_3", "0", "0", "-1"),
        _row("A2_3", "2", "0", "-1"),
        _row("A4_3", "a1", "-(1 - a1)^2"),
        _row("A5_3", "0"),
        _row("A8_3", "0"),
        _row("A12_3"),
    ),
    "I19": (
        _row("A2_3", "-1", "0", "1"),
        _row("A2_3", "-1", "0", "-1"),
        _row("A4_3", "a1", "-1 - a1",
             nz=("(a1 + 1)^2 + 1",)),
        _row("A4_3", "a1", "sqrt(a1 - a1^2)",
             nz=("a1", "a1 - 1")),
        _row("A4_3", "a1", "-sqrt(a1 - a1^2)",
             nz=("a1", "a1 - 1")),
        _row("A5_3", "-1 + sqrt(-1)"),
        _row("A5_3", "-1 - sqrt(-1)"),
        _row("A8_3", "sqrt(-1)"),
        _row("A8_3", "-sqrt(-1)"),
        _row("A10_3"),
        _row("A12_3"),
    ),
    "I20": (
        _row("A4_3", "0", "-1"),
        _row("A4_3", "0", "0"),
        _row("A12_3"),
    ),
    "I21": _C3_I21,
    "I22": _C3_I21,
    "I23": _C3_I23,
    "I24": _C3_I23,
    "I25": (_row("A12_3"),),
    "I26": (
        _row("A2_3", "-1", "0", "-1"),
        _row("A4_3", "-1", "0"),
        _row("A4_3", "-1", "-1"),
        _row("A4_3", "1", "0"),
        _row("A12_3"),
    ),
    "I27": (
        _row("A2_3", "-1", "0", "-1"),
        _row("A2_3", "1", "0", "-1"),
        _row("A4_3", "1", "b2"),
        _row("A4_3", "-1", "b2"),
        _row("A5_3", "-1"),
        _row("A5_3", "1"),
        _row("A8_3", "0"),
        _row("A12_3"),
    ),
    "I28": (
        _row("A2_3", "-1", "0", "-1"),
        _row("A4_3", "-1", "-1"),
        _row("A4_3", "-1", "0"),
        _row("A4_3", "1", "0"),
        _row("A4_3", "1", "1"),
        _row("A12_3"),
    ),
    "I29": (
        _row("A1_3", "a1",
             "sqrt(2*a1) - a1 + 1",
             "a1 - 2 - 2*sqrt(2*a1)",
             "a1 + 1 + sqrt(2*a1)"),
        _row("A1_3", "a1",
             "-sqrt(2*a1) - a1 + 1",
             "a1 - 2 + 2*sqrt(2*a1)",
             "a1 + 1 - sqrt(2*a1)"),
        _row("A2_3", "-1", "0", "-1"),
        _row("A4_3", "a1", "-a1 + sqrt(-a1^2 - 1)"),
        _row("A4_3", "a1", "-a1 - sqrt(-a1^2 - 1)"),
        _row("A5_3", "-1"),
        _row("A5_3", "1"),
        _row("A8_3", "sqrt(-1)"),
        _row("A8_3", "-sqrt(-1)"),
        _row("A12_3"),
    ),
    "I30": (
        _row("A2_3", "a1", "b1", "1 - a1"),
        _row("A3_3", "b1", "1"),
        _row("A4_3", "a1", "1 - a1"),
        _row("A4_3", "a1", "2*a1 - 1"),
        _row("A9_3"),
        _row("A10_3"),
        _row("A11_3"),
        _row("A12_3"),
    ),
}

CLAIMED_SOLUTIONS: Dict[str, Dict[str, Tuple[ClaimedRow, ...]]] = {
    REGIME_CHAR0: _CHAR0_CLAIMS,
    REGIME_CHAR2: _CHAR2_CLAIMS,
    REGIME_CHAR3: _CHAR3_CLAIMS,
}


def claimed_rows(regime: str, identity_name: str,
                 field: Optional[Field] = None) -> Tuple[ClaimedRow, ...]:
    """The claimed list for one identity in one regime.

    Passing the target field swaps in the dedicated characteristic-5 list
    for I19 (the only list that is sensitive to a characteristic inside the
    char0 regime).
    """
    try:
        table = CLAIMED_SOLUTIONS[regime]
    except KeyError:
        raise UnknownIdentity("unknown regime %r" % (regime,)) from None
    if identity_name not in table:
        raise UnknownIdentity("no claimed list for %r" % (identity_name,))
    if (identity_name == "I19" and regime == REGIME_CHAR0
            and field is not None and field.char == 5):
        return CHAR5_I19_ROWS
    return table[identity_name]


# ---------------------------------------------------------------------------
# Opposite-algebra tables


class OppositeRow(NamedTuple):
    """How one family (or a slice of it) relates to its opposite.

    kind == "equal": opposite(source) is literally the image matrix.
    kind == "iso":   opposite(source) is isomorphic to the image; when a
    change-of-basis witness g is recorded, change_basis(opposite(source), g)
    must equal the image.  The ``frees`` are the bare source arguments.
    ``samples`` freezes rational points for the parametric rows; over
    finite fields the parameters are enumerated.
    """

    source_family: str
    source_args: Tuple[str, ...]
    kind: str
    image_family: str
    image_args: Tuple[str, ...]
    frees: Tuple[str, ...] = ()
    witness: Optional[Tuple[Tuple[str, str], Tuple[str, str]]] = None
    nonzero: Tuple[str, ...] = ()
    samples: Tuple[Tuple[str, ...], ...] = ()
    note: str = ""
    zero = ()  # an opposite row states no vanishing conditions

    def label(self) -> str:
        sign = "=" if self.kind == "equal" else "~"
        return "opposite(%s) %s %s" % (call_label(self.source_family, self.source_args),
                                       sign, call_label(self.image_family, self.image_args))

    def _texts(self) -> Tuple[str, ...]:
        out = list(self.source_args) + list(self.image_args)
        if self.witness is not None:
            out.extend(self.witness[0])
            out.extend(self.witness[1])
        return tuple(out)

    def fully_polynomial(self) -> bool:
        """True when every expression is radical- and division-free, so the
        row can be checked symbolically over the frees."""
        return not any({"sqrt", "div"} & _node_kinds(t) for t in self._texts())

    def symbolic(self, field: Field) -> "OppositeInstance":
        """The instance at the symbolic point (a fully polynomial row)."""
        return _table(self, field).symbolic

    def instances(self, field: Field) -> List["OppositeInstance"]:
        return list(_table(self, field).instances)

    def _instance_at(self, field, pt) -> "OppositeInstance":
        vals, skip = _values_at(field, dict(zip(self.frees, pt)),
                                self.source_args, self.image_args,
                                *(self.witness or ()))
        if skip:
            return OppositeInstance(self, pt, None, None, None, skip)
        src_vals, img_vals, *g = vals
        return OppositeInstance(
            self, pt, _instance(family(self.source_family), field, src_vals),
            _instance(family(self.image_family), field, img_vals),
            tuple(g) if g else None, "")


class OppositeInstance(NamedTuple):
    row: OppositeRow
    point: Tuple[Scalar, ...]
    source: Optional[Msc]
    image: Optional[Msc]
    witness: Optional[Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]]
    skip_reason: str

    def label(self) -> str:
        return _point_label(self.row.label(), self.row.frees, self.point)


def _opp(src, src_args, kind, img, img_args, witness=None, nz=(),
         samples=(), note=""):
    return OppositeRow(
        source_family=src,
        source_args=tuple(src_args),
        kind=kind,
        image_family=img,
        image_args=tuple(img_args),
        frees=_bare_names(src_args),
        witness=witness,
        nonzero=tuple(nz),
        samples=tuple(samples),
        note=note,
    )


# Frozen rational points for the parametric char0 rows.  The A2 points keep
# a1 + b2 a perfect square so the witness diag(a1 + b2, sqrt(a1 + b2))
# stays rational.
_OPP_PTS_A1 = (("2", "3", "5", "7"), ("1", "2", "3", "4"),
               ("0", "1", "2", "3"), ("-1", "2", "-3", "4"),
               ("1/2", "1/3", "1/5", "1/7"))
_OPP_PTS_A2 = (("2", "1", "-1"), ("2", "3", "2"), ("5", "1", "4"),
               ("2", "7", "23"), ("1/2", "2", "7/2"))
_OPP_PTS_A3 = (("1", "1"), ("2", "3"), ("-1", "2"), ("1/2", "5"), ("3", "-2"))
_OPP_PTS_A4 = (("2", "-1"), ("2", "2"), ("5", "4"), ("1/2", "1/2"), ("3", "6"))
_OPP_PTS_1 = (("1",), ("2",), ("-1",), ("1/2",), ("4",))
_OPP_PTS_2 = (("1", "1"), ("2", "3"), ("-1", "2"), ("1/2", "5"), ("3", "-2"))

_CHAR0_OPPOSITE = (
    _opp("A1", ("a1", "a2", "a4", "b1"), "iso",
         "A1", ("-a2", "-a1", "b1", "a4"),
         witness=(("0", "1"), ("1", "0")), samples=_OPP_PTS_A1),
    _opp("A2", ("a1", "b1", "b2"), "iso",
         "A2", ("a1/(a1 + b2)", "b1/((a1 + b2)*sqrt(a1 + b2))",
                "(1 - a1)/(a1 + b2)"),
         witness=(("a1 + b2", "0"), ("0", "sqrt(a1 + b2)")),
         nz=("a1 + b2",), samples=_OPP_PTS_A2),
    _opp("A2", ("a1", "b1", "-a1"), "equal", "A6", ("a1", "b1"),
         samples=_OPP_PTS_2),
    _opp("A3", ("b1", "b2"), "iso", "A3", ("b1/b2^2", "1/b2"),
         witness=(("b2", "0"), ("0", "1")),
         nz=("b2",), samples=_OPP_PTS_A3),
    _opp("A3", ("b1", "0"), "equal", "A7", ("b1",),
         samples=_OPP_PTS_1),
    _opp("A4", ("a1", "b2"), "iso",
         "A4", ("a1/(a1 + b2)", "(1 - a1)/(a1 + b2)"),
         witness=(("a1 + b2", "0"), ("0", "1")),
         nz=("a1 + b2",), samples=_OPP_PTS_A4),
    _opp("A4", ("a1", "-a1"), "equal", "A8", ("a1",),
         samples=_OPP_PTS_1),
    _opp("A5", ("a1",), "iso", "A5", ("a1/(3*a1 - 1)",),
         witness=(("3*a1 - 1", "0"), ("0", "(3*a1 - 1)^2")),
         nz=("3*a1 - 1",), samples=_OPP_PTS_1),
    _opp("A5", ("1/3",), "equal", "A9", ()),
    _opp("A6", ("a1", "b1"), "equal", "A2", ("a1", "b1", "-a1"),
         samples=_OPP_PTS_2),
    _opp("A7", ("b1",), "equal", "A3", ("b1", "0"),
         samples=_OPP_PTS_1),
    _opp("A8", ("a1",), "equal", "A4", ("a1", "-a1"),
         samples=_OPP_PTS_1),
    _opp("A9", (), "equal", "A5", ("1/3",)),
    _opp("A10", (), "equal", "A10", ()),
    _opp("A11", (), "equal", "A11", ()),
    _opp("A12", (), "equal", "A12", ()),
)

_CHAR2_OPPOSITE = (
    _opp("A1_2", ("a1", "a2", "a4", "b1"), "iso",
         "A1_2", ("a2", "a1", "b1", "a4")),
    _opp("A2_2", ("a1", "b1", "b2"), "iso",
         "A2_2", ("a1/(a1 + b2)", "b1/((a1 + b2)*sqrt(a1 + b2))",
                  "(1 + a1)/(a1 + b2)"),
         nz=("a1 + b2",)),
    _opp("A2_2", ("a1", "b1", "a1"), "equal", "A6_2", ("a1", "b1")),
    _opp("A3_2", ("a1", "b2"), "iso",
         "A3_2", ("a1/(a1 + b2)", "(1 + a1)/(a1 + b2)"),
         witness=(("a1 + b2", "0"), ("0", "1")),
         nz=("a1 + b2",)),
    _opp("A3_2", ("a1", "a1"), "equal", "A7_2", ("a1",)),
    _opp("A4_2", ("a1", "b2"), "iso",
         "A4_2", ("a1/(a1 + b2)", "(1 + a1)/(a1 + b2)"),
         nz=("a1 + b2",)),
    _opp("A4_2", ("a1", "a1"), "equal", "A8_2", ("a1",)),
    _opp("A5_2", ("a1",), "iso", "A5_2", ("a1/(a1 + 1)",),
         nz=("a1 + 1",)),
    _opp("A5_2", ("1",), "equal", "A9_2", ()),
    _opp("A6_2", ("a1", "b1"), "equal", "A2_2", ("a1", "b1", "a1")),
    _opp("A7_2", ("a1",), "equal", "A3_2", ("a1", "a1")),
    _opp("A8_2", ("a1",), "equal", "A4_2", ("a1", "a1")),
    _opp("A9_2", (), "equal", "A5_2", ("1",)),
    _opp("A10_2", (), "equal", "A10_2", ()),
    _opp("A11_2", (), "equal", "A11_2", ()),
    _opp("A12_2", (), "equal", "A12_2", ()),
)

_CHAR3_OPPOSITE = (
    _opp("A1_3", ("a1", "a2", "a4", "b1"), "iso",
         "A1_3", ("-a2", "-a1", "b1", "a4")),
    _opp("A2_3", ("a1", "b1", "b2"), "iso",
         "A2_3", ("a1/(a1 + b2)", "b1/((a1 + b2)*sqrt(a1 + b2))",
                  "(1 - a1)/(a1 + b2)"),
         nz=("a1 + b2",)),
    _opp("A2_3", ("a1", "b1", "-a1"), "equal", "A6_3", ("a1", "b1")),
    _opp("A3_3", ("b1", "b2"), "iso", "A3_3", ("b1/b2^2", "1/b2"),
         nz=("b2",)),
    _opp("A3_3", ("b1", "0"), "equal", "A7_3", ("b1",)),
    _opp("A4_3", ("a1", "b2"), "iso",
         "A4_3", ("a1/(a1 + b2)", "(1 - a1)/(a1 + b2)"),
         nz=("a1 + b2",)),
    _opp("A4_3", ("a1", "-a1"), "equal", "A8_3", ("a1",)),
    _opp("A5_3", ("a1",), "iso", "A5_3", ("-a1",)),
    _opp("A6_3", ("a1", "b1"), "equal", "A2_3", ("a1", "b1", "-a1")),
    _opp("A7_3", ("b1",), "equal", "A3_3", ("b1", "0")),
    _opp("A8_3", ("a1",), "equal", "A4_3", ("a1", "-a1")),
    _opp("A9_3", (), "equal", "A9_3", ()),
    _opp("A10_3", (), "equal", "A10_3", ()),
    _opp("A11_3", (), "equal", "A11_3", ()),
    _opp("A12_3", (), "equal", "A12_3", ()),
)

OPPOSITE_TABLES: Dict[str, Tuple[OppositeRow, ...]] = {
    REGIME_CHAR0: _CHAR0_OPPOSITE,
    REGIME_CHAR2: _CHAR2_OPPOSITE,
    REGIME_CHAR3: _CHAR3_OPPOSITE,
}

# --- instances asserted isomorphic to their own opposite ---------------------

SELF_OPPOSITE: Dict[str, Tuple[ClaimedRow, ...]] = {
    REGIME_CHAR0: (
        _row("A1", "a1", "-a1", "a2", "a2"),
        _row("A2", "a1", "b1", "1 - a1"),
        _row("A2", "0", "0", "-1", sqrt_req=("-1",)),
        _row("A3", "b1", "-1"),
        _row("A3", "b1", "1"),
        _row("A4", "a1", "1 - a1"),
        _row("A4", "0", "-1"),
        _row("A5", "2/3"),
        _row("A5", "0"),
        _row("A10"),
        _row("A11"),
        _row("A12"),
    ),
    REGIME_CHAR2: (
        _row("A1_2", "a1", "a1", "a2", "a2"),
        _row("A2_2", "a1", "b1", "1 + a1"),
        _row("A3_2", "a1", "1 + a1"),
        _row("A4_2", "a1", "1 + a1"),
        _row("A5_2", "0"),
        _row("A10_2"),
        _row("A11_2"),
        _row("A12_2"),
    ),
    REGIME_CHAR3: (
        _row("A1_3", "a1", "-a1", "a2", "a2"),
        _row("A2_3", "a1", "b1", "1 - a1"),
        _row("A2_3", "0", "0", "-1", sqrt_req=("-1",)),
        _row("A3_3", "b1", "-1"),
        _row("A3_3", "b1", "1"),
        _row("A4_3", "a1", "1 - a1"),
        _row("A4_3", "0", "-1"),
        _row("A5_3", "0"),
        _row("A9_3"),
        _row("A10_3"),
        _row("A11_3"),
        _row("A12_3"),
    ),
}


# ---------------------------------------------------------------------------
# Section 3 worked computations


# The coordinates of the printed texts: u = (x1, x2), v = (y1, y2), w = (z1, z2).
PRINTED_PREFIXES = {"u": "x", "v": "y", "w": "z"}


class WorkedRow(NamedTuple):
    """One worked computation: `expression` (identity language) on a family
    with its parameters left symbolic, or on the generic algebra when
    `family` is None.  With `printed` (e1, e2) component texts in the
    coordinates of `PRINTED_PREFIXES`, the expression's expansion, summed
    back into its two components, must equal them (`shows`); without,
    `expression` names an identity that must hold formally."""

    section: str
    family: Optional[str]
    expression: str
    printed: Optional[Tuple[str, str]]
    label: str
    detail: str = ""

    def algebra(self, field: Field) -> Msc:
        if self.family is None:
            return Msc.generic(field)
        fam = family(self.family)
        return _instance(fam, field, _symbolic(fam.params, field))

    def shows(self, field: Field, terms: Sequence[tuple]) -> bool:
        """Whether the (row, monomial in x1..z2, polynomial) terms of an
        expansion add up, row by row, to the printed components."""
        got = [MultiPoly.zero(field), MultiPoly.zero(field)]
        for row, mon, poly in terms:
            got[row] += MultiPoly(field, {mon: field.one().value}) * poly
        return got == [expr_to_poly(_node(t), field) for t in self.printed]


_GENERIC = "generic, symbolic"
_COMMUTATOR_FORMS = (
    ("A4", "(x1 y2 - x2 y1)*(b2 + a1 - 1)"),
    ("A5", "(3 a1 - 2)*(x1 y2 - x2 y1)"),
    ("A8", "x1 y2 - x2 y1"),
    ("A9", "x1 y2 - x2 y1"),
)

SECTION3_ROWS: Tuple[WorkedRow, ...] = tuple(WorkedRow(*r) for r in (
    ("degree-3 laws", None, "comm-of-comms", None,
     "[[u,v],[u',v']] = 0", _GENERIC),
    ("degree-3 laws", None, "jacobi-left", None,
     "[u,v]w + [v,w]u + [w,u]v = 0", _GENERIC),
    ("degree-3 laws", None, "jacobi-right", None,
     "w[u,v] + u[v,w] + v[w,u] = 0", _GENERIC),
    *(row for fam, e2 in _COMMUTATOR_FORMS for row in (
        ("commutator form", fam, "[u,v]", ("0", e2),
         "[u,v] on %s is (%s) e2" % (fam, e2)),
        ("commutator form", fam, "comm-times-comm", None,
         "[u,v]*[u',v'] = 0 on " + fam),
        ("commutator form", fam, "assoc-times-assoc", None,
         "[u,v,w]*[u',v',w'] = 0 on " + fam))),
    ("A9", "A9", "u*v", ("1/3 x1 y1", "x1 y1 + 2/3 x1 y2 - 1/3 x2 y1"),
     "uv = (x1 y1)/3 e1 + (3 x1 y1 + 2 x1 y2 - x2 y1)/3 e2"),
    ("A9", "A9", "[u,v]", ("0", "x1 y2 - x2 y1"),
     "[u,v] = (x1 y2 - x2 y1) e2"),
    ("A9", "A9", "[u,v]*w", ("0", "(0 - z1/3)*(x1 y2 - x2 y1)"),
     "[u,v]w = -z1/3 (x1 y2 - x2 y1) e2"),
    ("A9", "A9", "w*[u,v]", ("0", "(2 z1/3)*(x1 y2 - x2 y1)"),
     "w[u,v] = 2 z1/3 (x1 y2 - x2 y1) e2"),
    ("A9", "A9", "weighted-comm-mix", None, "2[u,v]w + w[u,v] = 0"),
    ("A10", "A10", "u*v", ("x1 y2 + x2 y1", "0 - x2 y2"),
     "uv = (x1 y2 + x2 y1) e1 - x2 y2 e2"),
    ("A10", "A10", "(u*v)*w", ("(x1 y2 + x2 y1)*z2 - x2 y2 z1", "x2 y2 z2"),
     "(uv)w = ((x1 y2 + x2 y1) z2 - x2 y2 z1) e1 + x2 y2 z2 e2"),
    ("A10", "A10", "u*(v*w)", ("(0 - x1 y2 z2) + x2*(y1 z2 + y2 z1)", "x2 y2 z2"),
     "u(vw) = (-x1 y2 z2 + x2 (y1 z2 + y2 z1)) e1 + x2 y2 z2 e2"),
    ("A10", "A10", "[u,v,w]", ("2 y2*(x1 z2 - x2 z1)", "0"),
     "[u,v,w] = 2 y2 (x1 z2 - x2 z1) e1"),
    ("A10", "A10", "assoc-times-assoc", None, "[u,v,w][u',v',w'] = 0"),
    ("A10", "A10", "assoc-cycle-plus", None, "[u,v,w] + [v,w,u] + [w,u,v] = 0",
     "sign corrected: the printed display subtracts the third cycle, "
     "which leaves a residual 2 x2 (y1 z2 - y2 z1) e1"),
    ("A11", "A11", "u*v", ("x1 y2 + x2 y1", "x1 y1 - x2 y2"),
     "uv = (x1 y2 + x2 y1) e1 + (x1 y1 - x2 y2) e2"),
    ("A11", "A11", "(u*v)*w", ("(x1 y2 + x2 y1)*z2 + (x1 y1 - x2 y2)*z1",
                               "(x1 y2 + x2 y1)*z1 - (x1 y1 - x2 y2)*z2"),
     "(uv)w matches its printed expansion"),
    ("A11", "A11", "u*(v*w)", ("x1*(y1 z1 - y2 z2) + x2*(y1 z2 + y2 z1)",
                               "x1*(y1 z2 + y2 z1) - x2*(y1 z1 - y2 z2)"),
     "u(vw) = (x1 (y1 z1 - y2 z2) + x2 (y1 z2 + y2 z1)) e1 "
     "+ (x1 (y1 z2 + y2 z1) - x2 (y1 z1 - y2 z2)) e2",
     "first component corrected: the printed form carries a stray z2"),
    ("A11", "A11", "[u,v,w]", ("2*(x1 z2 - x2 z1)*y2", "(0 - 2)*(x1 z2 - x2 z1)*y1"),
     "[u,v,w] = 2 (x1 z2 - x2 z1)(y2 e1 - y1 e2)"),
    ("A11", "A11", "I30", None, "[u,v,w] = -[w,v,u]"),
    ("A11", "A11", "assoc-cycle-plus", None, "[u,v,w] + [v,w,u] + [w,u,v] = 0"),
    ("A12", "A12", "left-assoc-word", None, "(uv)w = 0"),
    ("A12", "A12", "right-assoc-word", None, "u(vw) = 0"),
))


# ---------------------------------------------------------------------------
# Negative spot-check selection


def row_covers(row: ClaimedRow, field: Field, candidate: Msc) -> bool:
    """Whether some parameter assignment of `row` yields exactly `candidate`.

    The free parameters of a claim row are its bare arguments, and the
    family's parameters are its bare template cells; so each free reads its
    value off `candidate` at the first bare cell it is bound to, the first
    bare cell of its first argument slot.  That is the only possible
    binding, whose instance is then compared with `candidate`.
    """
    table = _table(row, field)
    entries = candidate.entries_flat()
    point = tuple(entries[i] for i in table.free_cells)
    return table.admits(point) and table.at(point).algebra == candidate


def negative_instances(regime: str, identity_name: str, field: Field,
                       count: int = 3) -> List[Tuple[Family, Tuple[Scalar, ...], Msc]]:
    """The first `count` canonical instances absent from the claimed list.

    Families are walked in catalog order with every free parameter set to 2
    (reduced into the field); an instance is absent when no claimed row can
    produce its matrix.
    """
    rows = claimed_rows(regime, identity_name, field)
    two = field.scalar(2)
    out = []
    for fam in FAMILY_ORDER[regime]:
        args = tuple(two for _ in fam.params)
        candidate = _instance(fam, field, args)
        if any(row_covers(row, field, candidate) for row in rows):
            continue
        out.append((fam, args, candidate))
        if len(out) >= count:
            break
    return out


def _check_table_invariants() -> None:
    # every row gives each family it names one argument per parameter
    all_rows: List[ClaimedRow] = []
    for table in CLAIMED_SOLUTIONS.values():
        for rows in table.values():
            all_rows.extend(rows)
    all_rows.extend(CHAR5_I19_ROWS)
    for rows in SELF_OPPOSITE.values():
        all_rows.extend(rows)
    for row in all_rows:
        fam = family(row.family)
        if len(row.args) != fam.arity:
            raise ParamCountMismatch(
                "row %s: %d args for family of arity %d"
                % (row.label(), len(row.args), fam.arity))
    for table in OPPOSITE_TABLES.values():
        for orow in table:
            src = family(orow.source_family)
            img = family(orow.image_family)
            if len(orow.source_args) != src.arity:
                raise ParamCountMismatch("bad source arity in %s" % orow.label())
            if len(orow.image_args) != img.arity:
                raise ParamCountMismatch("bad image arity in %s" % orow.label())


_check_table_invariants()
