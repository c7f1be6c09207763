"""Mechanical verification: the report builders for the paper's claim tables.

The checks the reports run on one algebra live with the data they read:
`check_formal`, the alternation laws and the F_p scans (whose `scan_algebras`
and `scan_field` keep their names here) in `expander`, `search_iso` and
`conjugates_to` in `algebra_core`.

Reports never auto-correct the tables they check: a claimed row that does not
hold is reported as a failure with the concrete witness (and, when the row is
a documented discrepancy, a cross-reference note), a row whose instantiation
needs a square root or an inverse the field cannot provide is reported as
skipped with the reason.  Reports are built in one sequential pass, so row
order is the table order.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from .algebra_core import Msc, conjugates_to, search_iso
from .canon_catalog import (
    CHAR2_IDENTITY_PAIRS,
    OPPOSITE_TABLES,
    PRINTED_PREFIXES,
    REGIME_CHAR0,
    REGIME_CHAR2,
    REGIME_CHAR3,
    REGIMES,
    SECTION3_ROWS,
    SELF_OPPOSITE,
    ClaimedRow,
    OppositeInstance,
    OppositeRow,
    WorkedRow,
    call_label,
    claimed_rows,
    negative_instances,
    regime_for_field,
)
from .errors import AlgidError
from .exactnum import F2, F3, F5, QQ, Field
from .expander import (  # noqa: F401 (scan_algebras, scan_field: public names)
    COORD_PREFIXES,
    FormalCheck,
    alternating_determinant_law,
    alternating_vanishes,
    check_formal,
    expand,
    scan_algebras,
    scan_field,
    span_equal,
    word_shapes,
)
from .identity_lang import (
    NUMBERED_IDENTITIES,
    get_identity,
    identity_variables,
    parse_identity,
)
from .records import record


# ---------------------------------------------------------------------------
# Reports


REPORT_SCHEMA = "algid.report/1"

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@record
class ReportRow(NamedTuple):
    section: str
    label: str
    status: str
    detail: str = ""

    def to_json(self) -> dict:
        return self._asdict()


@record
class Report(NamedTuple):
    target: str
    field: Field
    rows: List[ReportRow]

    @property
    def counts(self) -> Dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for r in self.rows:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts[FAIL] == 0

    def to_json(self) -> dict:
        c = self.counts
        return {
            "schema": REPORT_SCHEMA,
            "target": self.target,
            "field": self.field.to_json(),
            "summary": {
                "pass": c[PASS], "fail": c[FAIL], "skip": c[SKIP],
                "ok": self.ok,
            },
            "rows": [r.to_json() for r in self.rows],
        }

    def render_text(self) -> str:
        lines = ["target: %s    field: %s" % (self.target, self.field)]
        for r in self.rows:
            line = "[%s] %s | %s" % (r.status, r.section, r.label)
            if r.detail:
                line += " | " + r.detail
            lines.append(line)
        c = self.counts
        lines.append("summary: %d pass, %d fail, %d skip -> %s"
                     % (c[PASS], c[FAIL], c[SKIP],
                        "OK" if self.ok else "FAIL"))
        return "\n".join(lines)


# --- membership ---------------------------------------------------------------


def _membership_row(name: str, label: str, row: ClaimedRow, res: FormalCheck,
                    passed: str = "") -> ReportRow:
    """A claimed row's verdict: pass with detail `passed`, or fail with the
    witness and the row's known discrepancy, if any."""
    if res.ok:
        return ReportRow(name, label, PASS, passed)
    erratum = (" | known discrepancy: " + row.erratum) if row.erratum else ""
    return ReportRow(name, label, FAIL, res.witness_text() + erratum)


def _membership_rows(regime: str, name: str, field: Field) -> List[ReportRow]:
    ident = get_identity(name)
    out: List[ReportRow] = []
    for row in claimed_rows(regime, name, field):
        if field.kind == "Q" and row.frees and not row.has_radical():
            out.append(_membership_row(
                name, row.label(), row, check_formal(row.symbolic_algebra(field), ident),
                "symbolic in " + ", ".join(row.frees)))
            continue
        instances = row.instances(field)
        if not instances:
            out.append(ReportRow(
                name, row.label(), SKIP,
                "no admissible parameter points over %s" % field
                + ((" (" + row.note + ")") if row.note else "")))
            continue
        for ins in instances:
            if ins.skip_reason:
                out.append(ReportRow(name, ins.label(), SKIP, ins.skip_reason))
                continue
            out.append(_membership_row(name, ins.label(), row,
                                       check_formal(ins.algebra, ident)))
    for fam, args, candidate in negative_instances(regime, name, field):
        label = "negative: " + call_label(fam.name, args)
        res = check_formal(candidate, ident)
        if res.ok:
            out.append(ReportRow(name, label, FAIL,
                                 "unlisted instance satisfies the identity"))
        else:
            out.append(ReportRow(name, label, PASS,
                                 "fails as expected: " + res.witness_text()))
    return out


def verify_identities(regime: str, field: Field,
                      identities: Optional[Sequence[str]] = None
                      ) -> List[ReportRow]:
    rows: List[ReportRow] = []
    for name in identities or NUMBERED_IDENTITIES:
        rows.extend(_membership_rows(regime, name, field))
    return rows


def _coincidence_rows(field: Field) -> List[ReportRow]:
    out = []
    for a, b in CHAR2_IDENTITY_PAIRS:
        sys_a = expand(get_identity(a), field=field)
        sys_b = expand(get_identity(b), field=field)
        rep = span_equal(sys_a, sys_b, field)
        label = "%s and %s expand to the same system" % (a, b)
        if rep:
            out.append(ReportRow("coincidence", label, PASS, ""))
        else:
            out.append(ReportRow(
                "coincidence", label, FAIL,
                "side %s, polynomial %s" % (rep.missing_side, rep.missing_poly)))
    return out


# --- opposite tables ---------------------------------------------------------


def _involution_row(field: Field) -> ReportRow:
    A = Msc.generic(field)
    ok = A.opposite().opposite() == A
    return ReportRow("involution", "opposite(opposite(A)) = A for generic A",
                     PASS if ok else FAIL, "symbolic")


def _opposite_holds(ins: OppositeInstance) -> bool:
    """Whether the opposite of the instance's source is its image: equal for
    an `equal` row, carried there by the witness when the row gives one, else
    found by GL2 search."""
    src_op = ins.source.opposite()
    if ins.row.kind == "equal":
        return src_op == ins.image
    if ins.witness is not None:
        return conjugates_to(src_op, ins.image, ins.witness)
    return search_iso(src_op, ins.image) is not None


def _opposite_row_report(row: OppositeRow, field: Field) -> List[ReportRow]:
    section = "opposite"
    if field.kind == "Q" and row.fully_polynomial() and (
            row.kind == "equal" or row.witness is not None):
        ok = _opposite_holds(row.symbolic(field))
        detail = "symbolic" + (
            " in " + ", ".join(row.frees) if row.frees else "")
        return [ReportRow(section, row.label(), PASS if ok else FAIL, detail)]
    checked = 0
    skip_reasons = []
    for ins in row.instances(field):
        if ins.skip_reason:
            skip_reasons.append(ins.skip_reason)
            continue
        if not _opposite_holds(ins):
            return [ReportRow(section, row.label(), FAIL,
                              "fails at " + ins.label())]
        checked += 1
    skipped = len(skip_reasons)
    if checked == 0 and skipped > 0:
        return [ReportRow(section, row.label(), SKIP,
                          "all %d points skipped: %s"
                          % (skipped, skip_reasons[0]))]
    if checked == 0:
        return [ReportRow(section, row.label(), SKIP,
                          "no parameter points to check")]
    detail = "%d point(s)" % checked
    if skipped:
        detail += ", %d skipped (%s)" % (skipped, skip_reasons[0])
    if row.witness is None and field.kind != "Q" and row.kind == "iso":
        detail += ", witness found by search"
    return [ReportRow(section, row.label(), PASS, detail)]


def verify_opposite(regime: str, field: Field) -> List[ReportRow]:
    rows = [_involution_row(field)]
    for row in OPPOSITE_TABLES[regime]:
        rows.extend(_opposite_row_report(row, field))
    return rows


# --- self-opposite corollaries -------------------------------------------------

SELF_OPPOSITE_FIELDS = {
    REGIME_CHAR0: F5,
    REGIME_CHAR2: F2,
    REGIME_CHAR3: F3,
}


def _self_opposite_row_report(row: ClaimedRow, field: Field) -> List[ReportRow]:
    section = "self-opposite/" + regime_for_field(field)
    witnessed = 0
    for ins in row.instances(field):
        if ins.skip_reason:
            return [ReportRow(section, ins.label(), SKIP, ins.skip_reason)]
        g = search_iso(ins.algebra, ins.algebra.opposite())
        if g is None:
            if missing_root := row.missing_root(field):
                return [ReportRow(
                    section, ins.label(), SKIP,
                    "needs a square root of %s, which %s lacks; exhaustive "
                    "GL2 search confirms no witness over this field"
                    % (missing_root, field))]
            return [ReportRow(section, ins.label(), FAIL,
                              "no change of basis carries the algebra to its "
                              "opposite (exhaustive GL2 search)")]
        witnessed += 1
    if witnessed == 0:
        return [ReportRow(section, row.label(), SKIP,
                          "no admissible parameter points over %s" % field)]
    return [ReportRow(section, row.label(), PASS,
                      "witness found for all %d instance(s)" % witnessed)]


def verify_self_opposite() -> List[ReportRow]:
    rows: List[ReportRow] = []
    for regime in REGIMES:
        fld = SELF_OPPOSITE_FIELDS[regime]
        for row in SELF_OPPOSITE[regime]:
            rows.extend(_self_opposite_row_report(row, fld))
    return rows


# --- worked computations -------------------------------------------------------


def _worked_row(row: WorkedRow) -> ReportRow:
    """A printed row holds when the expansion of its expression on the row's
    algebra, coordinates renamed to the printed ones and summed back into its
    two components, equals the printed components (`WorkedRow.shows`); any
    other row names an identity that must hold formally."""
    A = row.algebra(QQ)
    if row.printed is None:
        ok = check_formal(A, get_identity(row.expression)).ok
    else:
        ident = parse_identity(row.expression)
        # expand names coordinates by first appearance, the printed texts by variable
        rename = {COORD_PREFIXES[k] + i: PRINTED_PREFIXES[name] + i
                  for k, name in enumerate(identity_variables(ident)) for i in "12"}
        ok = row.shows(QQ, [(eq.row, tuple(sorted((rename[v], e) for v, e in eq.monomial)),
                             eq.poly) for eq in expand(ident, A).equations])
    return ReportRow(row.section, row.label, PASS if ok else FAIL, row.detail)


def verify_section3() -> List[ReportRow]:
    rows = [_worked_row(row) for row in SECTION3_ROWS]
    A = Msc.generic(QQ)
    for label, shape in word_shapes(3):
        rows.append(ReportRow(
            "alternating", "3-variable alternation of %s vanishes" % label,
            PASS if alternating_vanishes(A, shape, 3) else FAIL,
            "generic, symbolic"))
    for label, shape in word_shapes(2):
        rows.append(ReportRow(
            "alternating",
            "2-variable alternation of %s equals |u,v| times its basis value"
            % label,
            PASS if alternating_determinant_law(A, shape) else FAIL,
            "generic, symbolic"))
    return rows


# --- target dispatch -----------------------------------------------------------


# target -> (default field, row builder taking the report's field)
_TARGET_TABLE = {
    "Char0Identities": (QQ, lambda f: verify_identities(REGIME_CHAR0, f)),
    "Char2Identities": (F2, lambda f: verify_identities(REGIME_CHAR2, f) + _coincidence_rows(f)),
    "Char3Identities": (F3, lambda f: verify_identities(REGIME_CHAR3, f)),
    "Opp41": (QQ, lambda f: verify_opposite(REGIME_CHAR0, f)),
    "Opp43": (F2, lambda f: verify_opposite(REGIME_CHAR2, f)),
    "Opp45": (F3, lambda f: verify_opposite(REGIME_CHAR3, f)),
    "SelfOppositeCorollaries": (QQ, lambda f: verify_self_opposite()),
    "Section3Computations": (QQ, lambda f: verify_section3()),
}

TARGETS = tuple(_TARGET_TABLE)

# Their rows fix their own fields, so no field but the default may be asked for.
_FIXED_FIELD_TARGETS = ("SelfOppositeCorollaries", "Section3Computations")


def verify_theorem(target: str, field: Optional[Field] = None) -> Report:
    """Build the verification report for one named claim group."""
    if target not in _TARGET_TABLE:
        raise AlgidError(
            "unknown target %r (known: %s)" % (target, ", ".join(TARGETS)))
    default_field, build = _TARGET_TABLE[target]
    fld = field or default_field
    if target in _FIXED_FIELD_TARGETS and fld != default_field:
        raise AlgidError("target %s checks its rows over fixed fields and "
                         "cannot be run over %s" % (target, fld))
    return Report(target, fld, build(fld))
