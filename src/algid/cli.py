"""Command-line interface.

Exit codes: 0 when the requested checks hold (or the command just prints
data), 1 when a verification produced failures, 2 for usage or input errors
and for output that could not be written because the reader closed the pipe.
Output is deterministic; `verify-paper` adds a timestamp that `--no-timestamp`
removes so runs can be compared byte for byte.

A one-shot process pays for every module it imports, so only the chosen
command's parser is built, and each command imports the modules it uses when
it runs.  Only `verify-paper` loads the verifier, and with it the catalog.
`scan`, `check`, `expand` and `alternating` take their kernels from the
expander and `iso` from algebra_core; of those, only an algebra named by
`--family` loads the catalog, and only `scan` loads numpy.  `catalog` loads
neither the verifier nor the expander, and `opposite` loads none of the three.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra_core import Msc, conjugates_to, search_iso
from .errors import AlgidError, IdentitySyntaxError, NumberTooLong, UnknownIdentity
from .exactnum import QQ, Field, field_make, is_ascii_digits
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


class _InputError(AlgidError):
    """A command line or input file the command cannot use."""


def _echo_json(doc: dict) -> None:
    import json

    print(json.dumps(doc, indent=2, sort_keys=True))


def _parse_field(spec: Optional[str], default: Field = QQ) -> Field:
    if spec is None:
        return default
    try:
        return field_make("F" + spec if is_ascii_digits(spec) else spec)
    except (ValueError, AlgidError) as exc:
        raise _InputError(str(exc))


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise NumberTooLong(f"integer longer than {MAX_DIGITS} digits")
    return int(text)


def _load_algebra(path: str) -> Msc:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (NumberTooLong, RecursionError) as exc:
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
        from .canon_catalog import family

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


# -- parsing ---------------------------------------------------------------------

Command = Callable[[str, List[str]], int]


def _parser(prog: str, command: Command) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(prog=prog, description=command.__doc__,
                                   allow_abbrev=False)


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv, each option that takes a value reading the next word as
    its value even when it starts with '-' (`--args -1/3`), which argparse
    alone reads as an unknown option.  The value `--` is refused: argparse
    would drop it and store a list."""
    takes_value = {option for action in parser._actions if action.nargs is None
                   for option in action.option_strings}
    words: List[str] = []
    rest = iter(argv)
    for word in rest:
        option, eq, value = word.partition("=")
        if word == "--":
            words += [word, *rest]
        elif option in takes_value:
            value = value if eq else next(rest, None)
            if value is None or value == "--":
                parser.error(f"argument {option}: expected one argument")
            words.append(f"{option}={value}")
        else:
            words.append(word)
    return parser.parse_args(words)


def _algebra_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algebra",
                        help="JSON file with the algebra's structure constants.")
    parser.add_argument("--family",
                        help="Catalog family name, e.g. A4 or A5_3.")
    parser.add_argument("--args", default="",
                        help="Comma-separated family arguments, e.g. '0, -1'.")
    parser.add_argument("--field",
                        help="Q (default), F2, F3, F5, or a prime p.")


def _dispatch(prog: str, description: str, commands: Dict[str, Command],
              argv: List[str]) -> int:
    """Run the command that argv names; no other command's parser is built."""
    if not argv or argv[0] not in commands:
        parser = argparse.ArgumentParser(prog=prog, description=description,
                                         allow_abbrev=False)
        sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        for name, command in commands.items():
            sub.add_parser(name, help=command.__doc__)
        # prints the help or the usage error and exits, unless argv is
        # "-- COMMAND"
        argv = [parser.parse_args(argv).command]
    return commands[argv[0]](f"{prog} {argv[0]}", argv[1:])


# -- commands ----------------------------------------------------------------------


def _check(prog: str, argv: List[str]) -> int:
    """Does the algebra satisfy the identity?"""
    parser = _parser(prog, _check)
    _algebra_options(parser)
    parser.add_argument("--identity", required=True,
                        help="Builtin label (I1..I30, ...) or an inline expression.")
    parser.add_argument("--functional", action="store_true",
                        help="Check pointwise over a finite field instead of formally.")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    from .expander import check_formal, check_functional

    A = _resolve_algebra(a.algebra, a.family, a.args, a.field)
    ident = _resolve_identity(a.identity)
    res = check_functional(A, ident) if a.functional else check_formal(A, ident)
    if a.json:
        _echo_json({
            "schema": "algid.check/1",
            "identity": ident.name,
            "mode": "functional" if a.functional else "formal",
            "algebra": A.to_json(),
            "holds": res.ok,
            "witness": res.witness_text() if not res.ok else None,
        })
    elif res.ok:
        print("holds")
    else:
        print(f"fails: {res.witness_text()}")
    return 0 if res.ok else 1


def _expand(prog: str, argv: List[str]) -> int:
    """Print the coefficient system of an identity (generic by default)."""
    parser = _parser(prog, _expand)
    parser.add_argument("--identity", required=True)
    _algebra_options(parser)
    parser.add_argument("--char", help="Shorthand field choice: 0 -> Q, p -> F_p.")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    from .expander import expand

    field_spec = a.field
    if a.char is not None:
        if field_spec is not None:
            raise _InputError("give either --field or --char, not both")
        field_spec = "Q" if a.char.strip() == "0" else a.char.strip()
    ident = _resolve_identity(a.identity)
    if a.algebra or a.family:
        A = _resolve_algebra(a.algebra, a.family, a.args, field_spec)
        system = expand(ident, A)
    else:
        system = expand(ident, field=_parse_field(field_spec))
    if a.json:
        doc = system.to_json()
        doc["schema"] = "algid.expand/1"
        doc["equations"] = system.render_normalized_lines()
        _echo_json(doc)
        return 0
    lines = system.render_normalized_lines()
    if not lines:
        print("(empty system: the identity holds identically)")
    for line in lines:
        print(line)
    return 0


def _opposite(prog: str, argv: List[str]) -> int:
    """Print the opposite algebra (columns for e1e2 and e2e1 swapped)."""
    parser = _parser(prog, _opposite)
    parser.add_argument("--algebra", required=True)
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    doc = _load_algebra(a.algebra).opposite().to_json()
    if a.json:
        doc["schema"] = "algid.opposite/1"
        _echo_json(doc)
    else:
        for row in doc["entries"]:
            print("  ".join(str(x) for x in row))
    return 0


def _iso(prog: str, argv: List[str]) -> int:
    """Is B a change of basis of A?  Verify a witness or search for one."""
    parser = _parser(prog, _iso)
    parser.add_argument("--a", dest="path_a", required=True)
    parser.add_argument("--b", dest="path_b", required=True)
    parser.add_argument("--witness",
                        help="2x2 change of basis as JSON, e.g. '[[0,1],[1,0]]'.")
    parser.add_argument("--search", action="store_true",
                        help="Enumerate GL2 of the (finite) base field.")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    import json

    if bool(a.witness) == bool(a.search):
        raise _InputError("give exactly one of --witness or --search")
    A = _load_algebra(a.path_a)
    B = _load_algebra(a.path_b)
    witness_json = None
    if a.witness:
        try:
            raw = json.loads(a.witness, parse_int=_json_int)
            g = tuple(tuple(A.field.scalar(x) for x in row) for row in raw)
            if len(g) != 2 or any(len(r) != 2 for r in g):
                raise ValueError("expected a 2x2 matrix")
        except (ValueError, TypeError, RecursionError, AlgidError) as exc:
            raise _InputError(f"bad witness: {exc}")
        found = conjugates_to(A, B, g)
        witness_json = raw if found else None
    else:
        g = search_iso(A, B)
        found = g is not None
        if found:
            witness_json = [[x.to_json() for x in row] for row in g]
    if a.json:
        _echo_json({
            "schema": "algid.iso/1",
            "isomorphic": found,
            "witness": witness_json,
        })
    else:
        print("isomorphic via %s" % json.dumps(witness_json)
              if found else "no isomorphism established")
    return 0 if found else 1


# -- catalog ---------------------------------------------------------------------


def _catalog(prog: str, argv: List[str]) -> int:
    """The canonical families and the claimed solution tables."""
    return _dispatch(prog, _catalog.__doc__, CATALOG_COMMANDS, argv)


def _catalog_list(prog: str, argv: List[str]) -> int:
    """List family names, parameters and notes."""
    from .canon_catalog import FAMILY_ORDER, REGIMES

    parser = _parser(prog, _catalog_list)
    parser.add_argument("--regime", choices=REGIMES)
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    regimes = [a.regime] if a.regime else list(REGIMES)
    rows = []
    for reg in regimes:
        for fam in FAMILY_ORDER[reg]:
            rows.append({
                "name": fam.name,
                "regime": fam.regime,
                "params": list(fam.params),
                "note": fam.note,
            })
    if a.json:
        _echo_json({"schema": "algid.catalog/1", "families": rows})
        return 0
    for r in rows:
        params = "(%s)" % ", ".join(r["params"]) if r["params"] else ""
        note = f"  -- {r['note']}" if r["note"] else ""
        print(f"{r['name']}{params}  [{r['regime']}]{note}")
    return 0


def _catalog_show(prog: str, argv: List[str]) -> int:
    """Print a family's template."""
    parser = _parser(prog, _catalog_show)
    parser.add_argument("name")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    from .canon_catalog import family

    fam = family(a.name)
    if a.json:
        _echo_json({
            "schema": "algid.catalog/1",
            "name": fam.name,
            "regime": fam.regime,
            "params": list(fam.params),
            "rows": [list(r) for r in fam.rows],
            "note": fam.note,
        })
        return 0
    print(fam.label())
    for row in fam.rows:
        print("  " + "  ".join(row))
    return 0


def _catalog_instantiate(prog: str, argv: List[str]) -> int:
    """Evaluate a family at concrete arguments."""
    parser = _parser(prog, _catalog_instantiate)
    parser.add_argument("name")
    parser.add_argument("--args", default="")
    parser.add_argument("--field")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    from .canon_catalog import family

    fld = _parse_field(a.field)
    doc = family(a.name).instantiate(fld, _parse_args_list(fld, a.args)).to_json()
    if a.json:
        doc["schema"] = "algid.catalog/1"
        _echo_json(doc)
    else:
        for row in doc["entries"]:
            print("  ".join(str(x) for x in row))
    return 0


def _catalog_claims(prog: str, argv: List[str]) -> int:
    """Export one claimed-solution table as JSON."""
    from .canon_catalog import REGIMES, claimed_rows

    parser = _parser(prog, _catalog_claims)
    parser.add_argument("--identity", required=True)
    parser.add_argument("--regime", choices=REGIMES, required=True)
    parser.add_argument("--field",
                        help="Needed only for the characteristic-5 special case.")
    a = _parse(parser, argv)
    fld = _parse_field(a.field) if a.field else None
    rows = claimed_rows(a.regime, a.identity, fld)
    _echo_json({
        "schema": "algid.catalog/1",
        "identity": a.identity,
        "regime": a.regime,
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
    return 0


# -- verification --------------------------------------------------------------------


def _scan(prog: str, argv: List[str]) -> int:
    """Count the algebras over F_p satisfying an identity."""
    parser = _parser(prog, _scan)
    parser.add_argument("--field", required=True,
                        help="F2, F3 or F5 (the scan enumerates p^8 algebras).")
    parser.add_argument("--identity", required=True)
    parser.add_argument("--mode", choices=["formal", "functional"], default="formal")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    from .expander import scan_field

    fld = _parse_field(a.field)
    if fld.kind == "Q":
        raise _InputError("scans need a finite field")
    ident = _resolve_identity(a.identity)
    count = scan_field(fld.p, ident, a.mode)
    if a.json:
        _echo_json({
            "schema": "algid.scan/1",
            "prime": fld.p,
            "identity": ident.name,
            "mode": a.mode,
            "count": count,
            "total": fld.p ** 8,
        })
    else:
        print(f"{count} of {fld.p ** 8} algebras over F{fld.p} "
              f"satisfy {ident.name} ({a.mode})")
    return 0


def _verify_paper(prog: str, argv: List[str]) -> int:
    """Re-verify the classification claims and report pass/fail/skip rows."""
    from .verifier import TARGETS, verify_theorem

    parser = _parser(prog, _verify_paper)
    parser.add_argument("--target", choices=TARGETS,
                        help="One claim group; default runs all of them.")
    parser.add_argument("--field",
                        help="Override the target's default field (e.g. F5 for the "
                             "characteristic-5 Jordan rows).")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--no-timestamp", action="store_true")
    a = _parse(parser, argv)
    fld = _parse_field(a.field) if a.field else None
    targets = [a.target] if a.target else list(TARGETS)
    reports = [verify_theorem(t, field=fld) for t in targets]
    ok = all(r.ok for r in reports)
    stamp = None
    if not a.no_timestamp:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    if a.json:
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
            print(f"generated: {stamp}")
        for rep in reports:
            print(rep.render_text())
            print("")
    return 0 if ok else 1


def _alternating(prog: str, argv: List[str]) -> int:
    """Alternating-sum laws on the generic algebra."""
    parser = _parser(prog, _alternating)
    parser.add_argument("--m", type=int, default=2,
                        help="Algebra dimension (only 2 is supported).")
    parser.add_argument("--n", type=int, default=3,
                        help="Number of alternated variables (2 or 3).")
    parser.add_argument("--l", type=int,
                        help="Total variables of the shape; inferred when omitted.")
    parser.add_argument("--shape",
                        help="A product word in v1..vl, e.g. '(v1*v2)*v3'.")
    parser.add_argument("--field")
    parser.add_argument("--json", action="store_true")
    a = _parse(parser, argv)
    from .expander import alternating_determinant_law, alternating_vanishes, word_shapes

    if a.m != 2:
        raise _InputError("only dimension 2 is supported")
    if a.n not in (2, 3):
        raise _InputError("--n must be 2 or 3")
    fld = _parse_field(a.field)
    A = Msc.generic(fld)
    if a.shape is not None:
        try:
            ident = parse_identity(a.shape, name="shape")
        except IdentitySyntaxError as exc:
            raise _InputError(f"cannot parse shape {a.shape!r}: {exc}")
        terms = ident.lhs.terms
        if len(terms) != 1 or terms[0][0] != 1 or ident.rhs.terms:
            raise _InputError("--shape must be a single product word")
        word = terms[0][1]
        _require_word(word)
        leaves = list(word_leaves(word))
        if a.l is not None and a.l != len(leaves):
            raise _InputError(
                f"--l {a.l} does not match the shape's {len(leaves)} leaves")
        shapes = [(a.shape, word)]
    else:
        if a.l is not None and a.l != a.n:
            raise _InputError("only l = n shapes are built in; pass --shape "
                              "for longer words")
        shapes = word_shapes(a.n)
    rows = []
    for label, shape in shapes:
        if a.n == 2:
            ok = alternating_determinant_law(A, shape)
            statement = "alternation equals |u,v| times its basis value"
        else:
            ok = alternating_vanishes(A, shape, a.n)
            statement = "alternation over 3 variables vanishes"
        rows.append({"shape": label, "statement": statement, "holds": ok})
    ok_all = all(r["holds"] for r in rows)
    if a.json:
        _echo_json({
            "schema": "algid.alternating/1",
            "field": fld.to_json(),
            "n": a.n,
            "rows": rows,
        })
    else:
        for r in rows:
            print("[%s] %s: %s" % (
                "pass" if r["holds"] else "fail", r["shape"], r["statement"]))
    return 0 if ok_all else 1


COMMANDS: Dict[str, Command] = {
    "check": _check,
    "expand": _expand,
    "opposite": _opposite,
    "iso": _iso,
    "catalog": _catalog,
    "scan": _scan,
    "verify-paper": _verify_paper,
    "alternating": _alternating,
}

CATALOG_COMMANDS: Dict[str, Command] = {
    "list": _catalog_list,
    "show": _catalog_show,
    "instantiate": _catalog_instantiate,
    "claims": _catalog_claims,
}


def main(argv: Optional[Sequence[str]] = None, prog_name: str = "algid") -> None:
    """Run one command line (default: the process's arguments) and exit with
    its code; an AlgidError is reported as `Error: <message>` with exit 2.
    Output that cannot be written because the reader closed the pipe is
    exit 2 with nothing on stderr."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _dispatch(prog_name, "Exact checks of polynomial identities on "
                         "2-dimensional algebras.", COMMANDS, args)
        sys.stdout.flush()
    except AlgidError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    except BrokenPipeError:
        # What stdout still buffers goes to devnull when the interpreter
        # flushes it at exit, instead of failing there a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
