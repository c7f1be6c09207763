"""Command-line interface.

Exit codes: 0 when the requested checks hold (or the command just prints
data), 1 when a verification produced failures, 2 for usage or input errors.
Output is deterministic; `verify-paper` adds a timestamp that `--no-timestamp`
removes so runs can be compared byte for byte.
"""

from __future__ import annotations

import json as jsonlib
import sys
from datetime import datetime, timezone
from typing import Optional, Tuple

import click

from .algebra_core import Msc, conjugates_to
from .canon_catalog import (
    FAMILY_ORDER,
    REGIMES,
    claimed_rows,
    family,
)
from .errors import AlgidError, IdentitySyntaxError, NumberTooLong, UnknownIdentity
from .exactnum import QQ, Field, field_make
from .expander import expand
from .identity_lang import (
    MAX_DIGITS,
    Identity,
    Prod,
    Var,
    get_identity,
    parse_identity,
    word_leaves,
)
from .multipoly import eval_expr, parse_expr
from .verifier import (
    TARGETS,
    alternating_determinant_law,
    alternating_vanishes,
    check_formal,
    check_functional,
    scan_field,
    search_iso,
    verify_theorem,
    word_shapes,
)


class _InputError(click.ClickException):
    exit_code = 2


class _Main(click.Group):
    """Any AlgidError that reaches the command line is an input error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AlgidError as exc:
            raise _InputError(str(exc)) from None


def _echo_json(doc: dict) -> None:
    click.echo(jsonlib.dumps(doc, indent=2, sort_keys=True))


def _parse_field(spec: Optional[str], default: Field = QQ) -> Field:
    if spec is None:
        return default
    try:
        return field_make(int(spec) if spec.isdigit() else spec)
    except (ValueError, AlgidError) as exc:
        raise _InputError(str(exc))


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise NumberTooLong(f"integer longer than {MAX_DIGITS} digits")
    return int(text)


def _load_algebra(path: str) -> Msc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = jsonlib.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}")
    except jsonlib.JSONDecodeError as exc:
        raise _InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except NumberTooLong as exc:
        raise _InputError(f"{path}: {exc}")
    try:
        return Msc.from_json(data)
    except (AlgidError, KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: not a valid algebra document ({exc})")


def _parse_args_list(field: Field, text: str) -> Tuple:
    if not text.strip():
        return ()
    values = []
    for part in text.split(","):
        try:
            values.append(eval_expr(parse_expr(part.strip()), field, {}))
        except AlgidError as exc:
            raise _InputError(f"bad argument {part.strip()!r}: {exc}")
    return tuple(values)


def _resolve_algebra(algebra_path: Optional[str], family_name: Optional[str],
                     args_text: str, field_spec: Optional[str]) -> Msc:
    if algebra_path and family_name:
        raise _InputError("give either --algebra or --family, not both")
    if algebra_path:
        A = _load_algebra(algebra_path)
        fld = _parse_field(field_spec, A.field)
        if fld != A.field:
            raise _InputError(
                f"--field {fld} differs from the field {A.field} of {algebra_path}")
        return A
    if family_name:
        fld = _parse_field(field_spec)
        return family(family_name).instantiate(fld, _parse_args_list(fld, args_text))
    raise _InputError("an algebra is required: --algebra FILE or --family NAME")


def _require_word(node) -> None:
    if isinstance(node, Var):
        return
    if isinstance(node, Prod):
        _require_word(node.left)
        _require_word(node.right)
        return
    raise _InputError("--shape must use only * products (no brackets)")


def _resolve_identity(selector: str) -> Identity:
    try:
        return get_identity(selector)
    except UnknownIdentity:
        pass
    if any(ch in selector for ch in "=*[]()+-^ "):
        try:
            return parse_identity(selector, name="inline")
        except IdentitySyntaxError as exc:
            raise _InputError(f"cannot parse identity {selector!r}: {exc}")
    raise _InputError(f"unknown identity label {selector!r}")


@click.group(cls=_Main)
def main() -> None:
    """Exact checks of polynomial identities on 2-dimensional algebras."""


# ---------------------------------------------------------------------------


@main.command()
@click.option("--algebra", "algebra_path", default=None,
              help="JSON file with the algebra's structure constants.")
@click.option("--family", "family_name", default=None,
              help="Catalog family name, e.g. A4 or A5_3.")
@click.option("--args", "args_text", default="",
              help="Comma-separated family arguments, e.g. '0, -1'.")
@click.option("--field", "field_spec", default=None,
              help="Q (default), F2, F3, F5, or a prime p.")
@click.option("--identity", "identity_sel", required=True,
              help="Builtin label (I1..I30, ...) or an inline expression.")
@click.option("--functional", is_flag=True,
              help="Check pointwise over a finite field instead of formally.")
@click.option("--json", "as_json", is_flag=True)
def check(algebra_path, family_name, args_text, field_spec, identity_sel,
          functional, as_json):
    """Does the algebra satisfy the identity?"""
    A = _resolve_algebra(algebra_path, family_name, args_text, field_spec)
    ident = _resolve_identity(identity_sel)
    res = check_functional(A, ident) if functional else check_formal(A, ident)
    if as_json:
        _echo_json({
            "schema": "algid.check/1",
            "identity": ident.name or ident.render(),
            "mode": "functional" if functional else "formal",
            "algebra": A.to_json(),
            "holds": res.ok,
            "witness": res.witness_text() if not res.ok else None,
        })
    elif res.ok:
        click.echo("holds")
    else:
        click.echo(f"fails: {res.witness_text()}")
    sys.exit(0 if res.ok else 1)


@main.command("expand")
@click.option("--identity", "identity_sel", required=True)
@click.option("--algebra", "algebra_path", default=None)
@click.option("--family", "family_name", default=None)
@click.option("--args", "args_text", default="")
@click.option("--field", "field_spec", default=None)
@click.option("--char", "char_spec", default=None,
              help="Shorthand field choice: 0 -> Q, p -> F_p.")
@click.option("--json", "as_json", is_flag=True)
def expand_cmd(identity_sel, algebra_path, family_name, args_text, field_spec,
               char_spec, as_json):
    """Print the coefficient system of an identity (generic by default)."""
    if char_spec is not None:
        if field_spec is not None:
            raise _InputError("give either --field or --char, not both")
        field_spec = "Q" if char_spec.strip() == "0" else char_spec.strip()
    ident = _resolve_identity(identity_sel)
    if algebra_path or family_name:
        A = _resolve_algebra(algebra_path, family_name, args_text, field_spec)
        system = expand(ident, A)
    else:
        system = expand(ident, field=_parse_field(field_spec))
    if as_json:
        doc = system.to_json()
        doc["schema"] = "algid.expand/1"
        doc["equations"] = system.render_normalized_lines()
        _echo_json(doc)
        return
    lines = system.render_normalized_lines()
    if not lines:
        click.echo("(empty system: the identity holds identically)")
    for line in lines:
        click.echo(line)


@main.command()
@click.option("--algebra", "algebra_path", required=True)
@click.option("--json", "as_json", is_flag=True)
def opposite(algebra_path, as_json):
    """Print the opposite algebra (columns for e1e2 and e2e1 swapped)."""
    A = _load_algebra(algebra_path).opposite()
    doc = A.to_json()
    if as_json:
        doc["schema"] = "algid.opposite/1"
        _echo_json(doc)
    else:
        for row in doc["entries"]:
            click.echo("  ".join(str(x) for x in row))


@main.command()
@click.option("--a", "path_a", required=True)
@click.option("--b", "path_b", required=True)
@click.option("--witness", "witness_text", default=None,
              help="2x2 change of basis as JSON, e.g. '[[0,1],[1,0]]'.")
@click.option("--search", "do_search", is_flag=True,
              help="Enumerate GL2 of the (finite) base field.")
@click.option("--json", "as_json", is_flag=True)
def iso(path_a, path_b, witness_text, do_search, as_json):
    """Is B a change of basis of A?  Verify a witness or search for one."""
    if bool(witness_text) == bool(do_search):
        raise _InputError("give exactly one of --witness or --search")
    A = _load_algebra(path_a)
    B = _load_algebra(path_b)
    witness_json = None
    if witness_text:
        try:
            raw = jsonlib.loads(witness_text)
            g = tuple(tuple(A.field.scalar(x) for x in row) for row in raw)
            if len(g) != 2 or any(len(r) != 2 for r in g):
                raise ValueError("expected a 2x2 matrix")
        except (ValueError, TypeError, AlgidError) as exc:
            raise _InputError(f"bad witness: {exc}")
        found = conjugates_to(A, B, g)
        witness_json = raw if found else None
    else:
        g = search_iso(A, B)
        found = g is not None
        if found:
            witness_json = [[x.to_json() for x in row] for row in g]
    if as_json:
        _echo_json({
            "schema": "algid.iso/1",
            "isomorphic": found,
            "witness": witness_json,
        })
    else:
        click.echo("isomorphic via %s" % jsonlib.dumps(witness_json)
                   if found else "no isomorphism established")
    sys.exit(0 if found else 1)


# ---------------------------------------------------------------------------


@main.group()
def catalog() -> None:
    """The canonical families and the claimed solution tables."""


@catalog.command("list")
@click.option("--regime", type=click.Choice(REGIMES), default=None)
@click.option("--json", "as_json", is_flag=True)
def catalog_list(regime, as_json):
    """List family names, parameters and notes."""
    regimes = [regime] if regime else list(REGIMES)
    rows = []
    for reg in regimes:
        for fam in FAMILY_ORDER[reg]:
            rows.append({
                "name": fam.name,
                "regime": fam.regime,
                "params": list(fam.params),
                "note": fam.note,
            })
    if as_json:
        _echo_json({"schema": "algid.catalog/1", "families": rows})
        return
    for r in rows:
        params = "(%s)" % ", ".join(r["params"]) if r["params"] else ""
        note = f"  -- {r['note']}" if r["note"] else ""
        click.echo(f"{r['name']}{params}  [{r['regime']}]{note}")


@catalog.command("show")
@click.argument("name")
@click.option("--json", "as_json", is_flag=True)
def catalog_show(name, as_json):
    """Print a family's template."""
    fam = family(name)
    if as_json:
        _echo_json({
            "schema": "algid.catalog/1",
            "name": fam.name,
            "regime": fam.regime,
            "params": list(fam.params),
            "rows": [list(r) for r in fam.rows],
            "note": fam.note,
        })
        return
    click.echo(fam.label())
    for row in fam.rows:
        click.echo("  " + "  ".join(row))


@catalog.command("instantiate")
@click.argument("name")
@click.option("--args", "args_text", default="")
@click.option("--field", "field_spec", default=None)
@click.option("--json", "as_json", is_flag=True)
def catalog_instantiate(name, args_text, field_spec, as_json):
    """Evaluate a family at concrete arguments."""
    fld = _parse_field(field_spec)
    A = family(name).instantiate(fld, _parse_args_list(fld, args_text))
    doc = A.to_json()
    if as_json:
        doc["schema"] = "algid.catalog/1"
        _echo_json(doc)
    else:
        for row in doc["entries"]:
            click.echo("  ".join(str(x) for x in row))


@catalog.command("claims")
@click.option("--identity", "identity_sel", required=True)
@click.option("--regime", type=click.Choice(REGIMES), required=True)
@click.option("--field", "field_spec", default=None,
              help="Needed only for the characteristic-5 special case.")
def catalog_claims(identity_sel, regime, field_spec):
    """Export one claimed-solution table as JSON."""
    fld = _parse_field(field_spec) if field_spec else None
    rows = claimed_rows(regime, identity_sel, fld)
    _echo_json({
        "schema": "algid.catalog/1",
        "identity": identity_sel,
        "regime": regime,
        "rows": [
            {
                "label": r.label(),
                "family": r.family,
                "args": list(r.args),
                "frees": list(r.frees),
                "nonzero": list(r.nonzero),
                "zero": list(r.zero),
                "erratum": r.erratum or None,
            }
            for r in rows
        ],
    })


# ---------------------------------------------------------------------------


@main.command()
@click.option("--field", "field_spec", required=True,
              help="F2, F3 or F5 (the scan enumerates p^8 algebras).")
@click.option("--identity", "identity_sel", required=True)
@click.option("--mode", type=click.Choice(["formal", "functional"]),
              default="formal")
@click.option("--json", "as_json", is_flag=True)
def scan(field_spec, identity_sel, mode, as_json):
    """Count the algebras over F_p satisfying an identity."""
    fld = _parse_field(field_spec)
    if fld.kind == "Q":
        raise _InputError("scans need a finite field")
    ident = _resolve_identity(identity_sel)
    count = scan_field(fld.p, ident, mode)
    if as_json:
        _echo_json({
            "schema": "algid.scan/1",
            "prime": fld.p,
            "identity": ident.name or ident.render(),
            "mode": mode,
            "count": count,
            "total": fld.p ** 8,
        })
    else:
        click.echo(f"{count} of {fld.p ** 8} algebras over F{fld.p} "
                   f"satisfy {ident.name or ident.render()} ({mode})")


@main.command("verify-paper")
@click.option("--target", type=click.Choice(TARGETS), default=None,
              help="One claim group; default runs all of them.")
@click.option("--field", "field_spec", default=None,
              help="Override the target's default field (e.g. F5 for the "
                   "characteristic-5 Jordan rows).")
@click.option("--threads", type=int, default=None,
              help="accepted for compatibility; has no effect")
@click.option("--json", "as_json", is_flag=True)
@click.option("--no-timestamp", "no_timestamp", is_flag=True)
def verify_paper(target, field_spec, threads, as_json, no_timestamp):
    """Re-verify the classification claims and report pass/fail/skip rows."""
    fld = _parse_field(field_spec) if field_spec else None
    targets = [target] if target else list(TARGETS)
    reports = [verify_theorem(t, field=fld) for t in targets]
    ok = all(r.ok for r in reports)
    stamp = None if no_timestamp else (
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))
    if as_json:
        doc = {
            "schema": "algid.verify/1",
            "ok": ok,
            "reports": [r.to_json() for r in reports],
        }
        if stamp:
            doc["generated_at"] = stamp
        _echo_json(doc)
    else:
        if stamp:
            click.echo(f"generated: {stamp}")
        for rep in reports:
            click.echo(rep.render_text())
            click.echo("")
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--m", "dim", type=int, default=2,
              help="Algebra dimension (only 2 is supported).")
@click.option("--n", "n_alt", type=int, default=3,
              help="Number of alternated variables (2 or 3).")
@click.option("--l", "n_vars", type=int, default=None,
              help="Total variables of the shape; inferred when omitted.")
@click.option("--shape", "shape_text", default=None,
              help="A product word in v1..vl, e.g. '(v1*v2)*v3'.")
@click.option("--field", "field_spec", default=None)
@click.option("--json", "as_json", is_flag=True)
def alternating(dim, n_alt, n_vars, shape_text, field_spec, as_json):
    """Alternating-sum laws on the generic algebra."""
    if dim != 2:
        raise _InputError("only dimension 2 is supported")
    if n_alt not in (2, 3):
        raise _InputError("--n must be 2 or 3")
    fld = _parse_field(field_spec)
    A = Msc.generic(fld)
    if shape_text is not None:
        try:
            ident = parse_identity(shape_text, name="shape")
        except IdentitySyntaxError as exc:
            raise _InputError(f"cannot parse shape {shape_text!r}: {exc}")
        terms = ident.lhs.terms
        if len(terms) != 1 or terms[0][0] != 1 or ident.rhs.terms:
            raise _InputError("--shape must be a single product word")
        word = terms[0][1]
        _require_word(word)
        leaves = list(word_leaves(word))
        if n_vars is not None and n_vars != len(leaves):
            raise _InputError(
                f"--l {n_vars} does not match the shape's {len(leaves)} leaves")
        shapes = [(shape_text, word)]
    else:
        if n_vars is not None and n_vars != n_alt:
            raise _InputError("only l = n shapes are built in; pass --shape "
                              "for longer words")
        shapes = word_shapes(n_alt)
    rows = []
    for label, shape in shapes:
        if n_alt == 2:
            ok = alternating_determinant_law(A, shape)
            statement = "alternation equals |u,v| times its basis value"
        else:
            ok = alternating_vanishes(A, shape, n_alt)
            statement = "alternation over 3 variables vanishes"
        rows.append({"shape": label, "statement": statement, "holds": ok})
    ok_all = all(r["holds"] for r in rows)
    if as_json:
        _echo_json({
            "schema": "algid.alternating/1",
            "field": fld.to_json(),
            "n": n_alt,
            "rows": rows,
        })
    else:
        for r in rows:
            click.echo("[%s] %s: %s" % (
                "pass" if r["holds"] else "fail", r["shape"], r["statement"]))
    sys.exit(0 if ok_all else 1)


if __name__ == "__main__":
    main()
