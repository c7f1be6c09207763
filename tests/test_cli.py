"""Command-line behavior: exit codes, text output, and JSON schemas."""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import validate

import algid
from algid.canon_catalog import family
from algid.cli import CATALOG_COMMANDS, COMMANDS, main
from algid.exactnum import F2, QQ, field_make
from algid.identity_lang import MAX_DEPTH

import cli_runner as runner


def _write_algebra(tmp_path, name, msc):
    path = tmp_path / name
    path.write_text(json.dumps(msc.to_json()))
    return str(path)


def _child_cli(argv):
    """Run `python -m algid.cli` in a child process on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(algid.__file__))))
    return subprocess.run([sys.executable, "-m", "algid.cli"] + argv,
                          env=env, capture_output=True, text=True, timeout=30)


@pytest.fixture
def a4_file(tmp_path):
    A = family("A4").instantiate(QQ, (QQ.scalar(0), QQ.scalar(-1)))
    return _write_algebra(tmp_path, "a4_0_-1.json", A)


_FIELD_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": ["Q", "Fp"]}, "p": {"type": "integer"}},
    "required": ["kind"],
}

_ALGEBRA_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"const": 2},
        "field": _FIELD_SCHEMA,
        "entries": {
            "type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "array", "minItems": 4, "maxItems": 4},
        },
    },
    "required": ["dim", "field", "entries"],
}

CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.check/1"},
        "identity": {"type": "string"},
        "mode": {"enum": ["formal", "functional"]},
        "algebra": _ALGEBRA_SCHEMA,
        "holds": {"type": "boolean"},
        "witness": {"type": ["string", "null"]},
    },
    "required": ["schema", "identity", "mode", "algebra", "holds", "witness"],
}

EXPAND_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.expand/1"},
        "identity": {"type": "string"},
        "field": _FIELD_SCHEMA,
        "count": {"type": "integer"},
        "polys": {"type": "array"},
        "equations": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["schema", "identity", "field", "count", "polys", "equations"],
}

ISO_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.iso/1"},
        "isomorphic": {"type": "boolean"},
        "witness": {"type": ["array", "null"]},
    },
    "required": ["schema", "isomorphic", "witness"],
}

SCAN_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.scan/1"},
        "prime": {"type": "integer"},
        "identity": {"type": "string"},
        "mode": {"enum": ["formal", "functional"]},
        "count": {"type": "integer"},
        "total": {"type": "integer"},
    },
    "required": ["schema", "prime", "identity", "mode", "count", "total"],
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.report/1"},
        "target": {"type": "string"},
        "field": _FIELD_SCHEMA,
        "summary": {
            "type": "object",
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
                "skip": {"type": "integer"},
                "ok": {"type": "boolean"},
            },
            "required": ["pass", "fail", "skip", "ok"],
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "section": {"type": "string"},
                    "label": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skip"]},
                    "detail": {"type": "string"},
                },
                "required": ["section", "label", "status", "detail"],
            },
        },
    },
    "required": ["schema", "target", "field", "summary", "rows"],
}

VERIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.verify/1"},
        "ok": {"type": "boolean"},
        "generated_at": {"type": "string"},
        "reports": {"type": "array", "items": REPORT_SCHEMA},
    },
    "required": ["schema", "ok", "reports"],
}

ALTERNATING_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": "algid.alternating/1"},
        "field": _FIELD_SCHEMA,
        "n": {"type": "integer"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "shape": {"type": "string"},
                    "statement": {"type": "string"},
                    "holds": {"type": "boolean"},
                },
                "required": ["shape", "statement", "holds"],
            },
        },
    },
    "required": ["schema", "field", "n", "rows"],
}


class TestCheck:
    def test_listed_algebra_passes(self, a4_file):
        r = runner.invoke(main, ["check", "--algebra", a4_file, "--identity", "I2"])
        assert r.exit_code == 0
        assert r.output.strip() == "holds"

    def test_failing_identity_exits_one_with_witness(self, a4_file):
        r = runner.invoke(main, ["check", "--algebra", a4_file, "--identity", "I1"])
        assert r.exit_code == 1
        assert r.output.startswith("fails: e2 coefficient of x1 y2")

    def test_json_mode_schema(self, a4_file):
        r = runner.invoke(main, ["check", "--algebra", a4_file,
                                 "--identity", "I2", "--json"])
        doc = json.loads(r.output)
        validate(doc, CHECK_SCHEMA)
        assert doc["holds"] is True and doc["witness"] is None

    def test_family_input_and_functional_mode(self):
        r = runner.invoke(main, ["check", "--family", "A10_2", "--field", "F2",
                                 "--identity", "I19", "--functional", "--json"])
        doc = json.loads(r.output)
        validate(doc, CHECK_SCHEMA)
        assert doc["mode"] == "functional"

    def test_a_word_whose_weight_vanishes_mod_p(self):
        """The longest word of the identity is 3 ((u*v)*w)*t, zero over F3."""
        r = runner.invoke(main, ["check", "--family", "A9_3", "--field", "F3",
                                 "--identity", "3 ((u*v)*w)*t = u*v"])
        assert r.exit_code == 1
        assert r.output == "fails: e1 coefficient of x1 y2 = 2\n"

    def test_inline_identity_selector(self):
        r = runner.invoke(main, ["check", "--family", "A12",
                                 "--identity", "(u*v)*w = 0"])
        assert r.exit_code == 0

    def test_unknown_label_is_usage_error(self, a4_file):
        r = runner.invoke(main, ["check", "--algebra", a4_file,
                                 "--identity", "I99"])
        assert r.exit_code == 2
        assert "unknown identity label" in r.output

    def test_algebra_and_family_conflict(self, a4_file):
        r = runner.invoke(main, ["check", "--algebra", a4_file,
                                 "--family", "A12", "--identity", "I1"])
        assert r.exit_code == 2

    def test_malformed_json_diagnoses_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        r = runner.invoke(main, ["check", "--algebra", str(bad),
                                 "--identity", "I1"])
        assert r.exit_code == 2
        assert "bad.json:1:" in r.output

    def test_functional_needs_finite_field(self, a4_file):
        r = runner.invoke(main, ["check", "--algebra", a4_file,
                                 "--identity", "I1", "--functional"])
        assert r.exit_code == 2


class TestExpand:
    def test_generic_i6_is_three_lines(self):
        r = runner.invoke(main, ["expand", "--identity", "I6"])
        assert r.exit_code == 0
        assert r.output.strip().splitlines() == [
            "a2 b2 - a2 b3 - a3 b2 + a3 b3 = 0",
            "a2^2 - 2 a2 a3 + a3^2 = 0",
            "b2^2 - 2 b2 b3 + b3^2 = 0",
        ]

    def test_json_schema(self):
        r = runner.invoke(main, ["expand", "--identity", "I6", "--json"])
        doc = json.loads(r.output)
        validate(doc, EXPAND_SCHEMA)
        assert len(doc["equations"]) == 3

    def test_concrete_algebra_empty_system(self):
        r = runner.invoke(main, ["expand", "--identity", "I1",
                                 "--family", "A10"])
        assert r.exit_code == 0
        assert "empty system" in r.output

    def test_char_shorthand(self):
        r = runner.invoke(main, ["expand", "--identity", "I1", "--char", "2",
                                 "--json"])
        doc = json.loads(r.output)
        assert doc["field"] == {"kind": "Fp", "p": 2}
        r = runner.invoke(main, ["expand", "--identity", "I1", "--char", "0",
                                 "--json"])
        assert json.loads(r.output)["field"] == {"kind": "Q"}

    def test_char_and_field_conflict(self):
        r = runner.invoke(main, ["expand", "--identity", "I1", "--char", "2",
                                 "--field", "F3"])
        assert r.exit_code == 2


class TestOppositeAndIso:
    def test_opposite_swaps_middle_columns(self, tmp_path):
        A = family("A9_2").instantiate(F2, ())
        path = _write_algebra(tmp_path, "a9.json", A)
        r = runner.invoke(main, ["opposite", "--algebra", path, "--json"])
        doc = json.loads(r.output)
        assert doc["schema"] == "algid.opposite/1"
        assert doc["entries"] == [[1, 0, 0, 0], [1, 1, 0, 0]]

    def test_iso_search_and_witness(self, tmp_path):
        left = _write_algebra(
            tmp_path, "left.json",
            family("A5_2").instantiate(F2, (F2.scalar(1),)).opposite())
        right = _write_algebra(
            tmp_path, "right.json", family("A9_2").instantiate(F2, ()))
        r = runner.invoke(main, ["iso", "--a", left, "--b", right, "--search",
                                 "--json"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        validate(doc, ISO_SCHEMA)
        assert doc["isomorphic"] is True
        r = runner.invoke(main, ["iso", "--a", left, "--b", right,
                                 "--witness", json.dumps(doc["witness"])])
        assert r.exit_code == 0

    def test_iso_failure_exits_one(self, tmp_path):
        left = _write_algebra(tmp_path, "l.json",
                              family("A10_2").instantiate(F2, ()))
        right = _write_algebra(tmp_path, "r.json",
                               family("A12_2").instantiate(F2, ()))
        r = runner.invoke(main, ["iso", "--a", left, "--b", right, "--search"])
        assert r.exit_code == 1
        assert "no isomorphism" in r.output

    def test_iso_needs_exactly_one_mode(self, tmp_path):
        p = _write_algebra(tmp_path, "x.json",
                           family("A12_2").instantiate(F2, ()))
        assert runner.invoke(main, ["iso", "--a", p, "--b", p]).exit_code == 2
        assert runner.invoke(main, ["iso", "--a", p, "--b", p, "--search",
                                    "--witness", "[[1,0],[0,1]]"]).exit_code == 2


class TestCatalog:
    def test_list_names_regimes(self):
        r = runner.invoke(main, ["catalog", "list", "--regime", "char0"])
        lines = r.output.strip().splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("A1(a1, a2, a4, b1)")

    def test_list_json(self):
        r = runner.invoke(main, ["catalog", "list", "--json"])
        doc = json.loads(r.output)
        assert doc["schema"] == "algid.catalog/1"
        assert len(doc["families"]) == 36

    def test_show_template(self):
        r = runner.invoke(main, ["catalog", "show", "A5_3", "--json"])
        doc = json.loads(r.output)
        assert doc["rows"][1] == ["1", "-a1 - 1", "1 - a1", "0"]

    def test_show_unknown_family(self):
        assert runner.invoke(main, ["catalog", "show", "A99"]).exit_code == 2

    def test_instantiate(self):
        r = runner.invoke(main, ["catalog", "instantiate", "A9", "--json"])
        doc = json.loads(r.output)
        validate(doc, _ALGEBRA_SCHEMA)
        assert doc["entries"][0] == ["1/3", "0", "0", "0"]

    def test_instantiate_regime_mismatch(self):
        r = runner.invoke(main, ["catalog", "instantiate", "A9",
                                 "--field", "F3"])
        assert r.exit_code == 2

    def test_claims_export_marks_erratum(self):
        r = runner.invoke(main, ["catalog", "claims", "--identity", "I18",
                                 "--regime", "char2"])
        doc = json.loads(r.output)
        labels = [row["label"] for row in doc["rows"]]
        assert labels == ["A4_2(0, 1)", "A5_2(0)", "A8_2(0)", "A12_2"]
        flagged = [row["label"] for row in doc["rows"] if row["erratum"]]
        assert flagged == ["A5_2(0)"]

    def test_claims_frees_are_the_bare_arguments(self):
        r = runner.invoke(main, ["catalog", "claims", "--identity", "I5",
                                 "--regime", "char0"])
        frees = {row["label"]: row["frees"] for row in json.loads(r.output)["rows"]}
        assert frees["A2(a1, b1, 1 - a1)"] == ["a1", "b1"]
        assert frees["A4(a1, 1 - a1)"] == frees["A4(a1, 2*a1 - 1)"] == ["a1"]
        assert frees["A10"] == []

    def test_show_params_are_the_bare_cells_in_row_major_order(self):
        r = runner.invoke(main, ["catalog", "show", "A1", "--json"])
        assert json.loads(r.output)["params"] == ["a1", "a2", "a4", "b1"]

    def test_list_gives_each_family_the_regime_of_its_table(self):
        r = runner.invoke(main, ["catalog", "list", "--regime", "char3"])
        assert r.output.splitlines()[0] == "A1_3(a1, a2, a4, b1)  [char3]"


class TestScan:
    def test_text_count(self):
        r = runner.invoke(main, ["scan", "--field", "F2", "--identity", "I1"])
        assert r.exit_code == 0
        assert r.output.startswith("64 of 256")

    def test_json_schema(self):
        r = runner.invoke(main, ["scan", "--field", "F3", "--identity", "I2",
                                 "--mode", "functional", "--json"])
        doc = json.loads(r.output)
        validate(doc, SCAN_SCHEMA)
        assert doc["total"] == 3 ** 8

    def test_rational_field_rejected(self):
        r = runner.invoke(main, ["scan", "--field", "Q", "--identity", "I1"])
        assert r.exit_code == 2

    def test_unsupported_prime_rejected(self):
        r = runner.invoke(main, ["scan", "--field", "F7", "--identity", "I1"])
        assert r.exit_code == 2

    def test_mixed_degree_identity_in_a_child_process(self):
        """A constant equation after a pruning one: exit 0, its count, and no
        traceback."""
        out = _child_cli(["scan", "--field", "F3", "--identity", "u*v + u = 0"])
        assert out.returncode == 0
        assert out.stdout == "0 of 6561 algebras over F3 satisfy inline (formal)\n"
        assert "Traceback" not in out.stderr


class TestVerifyPaper:
    def test_opp41_exits_zero(self):
        r = runner.invoke(main, ["verify-paper", "--target", "Opp41",
                                 "--no-timestamp"])
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == "target: Opp41    field: Q"

    def test_known_errata_exit_one(self):
        r = runner.invoke(main, ["verify-paper", "--target", "Char3Identities",
                                 "--no-timestamp"])
        assert r.exit_code == 1

    def test_json_schema(self):
        r = runner.invoke(main, ["verify-paper", "--target", "Opp43",
                                 "--json", "--no-timestamp"])
        doc = json.loads(r.output)
        validate(doc, VERIFY_SCHEMA)
        assert doc["ok"] is True
        assert "generated_at" not in doc

    def test_timestamp_default_and_suppression(self):
        r = runner.invoke(main, ["verify-paper", "--target", "Opp41"])
        assert r.output.splitlines()[0].startswith("generated: ")
        r = runner.invoke(main, ["verify-paper", "--target", "Opp41",
                                 "--no-timestamp"])
        assert "generated" not in r.output

    def test_byte_identical_across_thread_counts(self):
        args = ["verify-paper", "--target", "Section3Computations",
                "--json", "--no-timestamp"]
        one = runner.invoke(main, args, env={"ALGID_THREADS": "1"})
        many = runner.invoke(main, args, env={"ALGID_THREADS": "8"})
        assert one.output == many.output

    def test_non_numeric_thread_env_is_ignored(self):
        args = ["verify-paper", "--target", "Opp41", "--no-timestamp"]
        plain = runner.invoke(main, args)
        odd = runner.invoke(main, args, env={"ALGID_THREADS": "abc"})
        assert odd.exception is None
        assert odd.exit_code == 0
        assert odd.output == plain.output

    def test_threads_option_is_accepted_and_ignored(self):
        args = ["verify-paper", "--target", "Opp41", "--no-timestamp"]
        runs = [runner.invoke(main, args + extra)
                for extra in (["--threads", "1"], ["--threads", "4"], [])]
        assert [r.exit_code for r in runs] == [0, 0, 0]
        assert runs[0].output == runs[1].output == runs[2].output

    @pytest.mark.parametrize("target, field", [
        ("SelfOppositeCorollaries", "F7"), ("Section3Computations", "F3")])
    def test_field_override_of_a_fixed_field_target_is_an_error(self, capsys,
                                                                 target, field):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--target", target, "--field", field])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.err.startswith("Error: target %s " % target)
        assert out.out == ""

    def test_field_override_for_char5(self):
        r = runner.invoke(main, ["verify-paper", "--target", "Char0Identities",
                                 "--field", "F5", "--json", "--no-timestamp"])
        doc = json.loads(r.output)
        i19 = [row for row in doc["reports"][0]["rows"]
               if row["section"] == "I19"]
        assert any(row["label"] == "A5((5 - sqrt(5))/10)"
                   and row["status"] == "skip" for row in i19)


class TestAlternating:
    def test_default_twelve_shapes_pass(self):
        r = runner.invoke(main, ["alternating"])
        assert r.exit_code == 0
        assert len(r.output.strip().splitlines()) == 12
        assert all(line.startswith("[pass]")
                   for line in r.output.strip().splitlines())

    def test_two_variable_law(self):
        r = runner.invoke(main, ["alternating", "--n", "2", "--json"])
        doc = json.loads(r.output)
        validate(doc, ALTERNATING_SCHEMA)
        assert [row["holds"] for row in doc["rows"]] == [True, True]

    @pytest.mark.parametrize("shape", [
        "(u*v)*u", "u*(u*v)", "(u*u)*v", "(u*v)*(v*u)", "((u*v)*u)*v"])
    def test_two_variable_law_fails_on_a_repeated_leaf(self, shape):
        r = runner.invoke(main, ["alternating", "--n", "2", "--shape", shape])
        assert r.exit_code == 1
        assert r.output == (
            "[fail] %s: alternation equals |u,v| times its basis value\n" % shape)

    @pytest.mark.parametrize("shape, message", [
        ("(u*v)*w", "the basis value needs a 2-variable word"),
        ("((u*v)*(w*t))*((s*q)*(r*p))", "8 variables exceed the 7 coordinate prefixes"),
    ])
    def test_two_variable_law_input_errors(self, shape, message):
        r = runner.invoke(main, ["alternating", "--n", "2", "--shape", shape])
        assert r.exit_code == 2
        assert r.output == "Error: %s\n" % message

    def test_explicit_shape(self):
        r = runner.invoke(main, ["alternating", "--shape", "(u*v)*w",
                                 "--l", "3"])
        assert r.exit_code == 0

    def test_shape_with_brackets_rejected(self):
        r = runner.invoke(main, ["alternating", "--shape", "[v1,v2]*v3"])
        assert r.exit_code == 2

    def test_l_mismatch_rejected(self):
        r = runner.invoke(main, ["alternating", "--shape", "(u*v)*w",
                                 "--l", "2"])
        assert r.exit_code == 2

    def test_dimension_guard(self):
        assert runner.invoke(main, ["alternating", "--m", "3"]).exit_code == 2


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(algid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c",
         "import algid.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestUsage:
    """The parser's side of the exit-code contract: usage errors exit 2 with
    their message on stderr, help exits 0."""

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: COMMAND"),
        (["nope"], "argument COMMAND: invalid choice: 'nope'"),
        (["catalog"], "the following arguments are required: COMMAND"),
        (["check", "--family", "A12", "--identity", "I1", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["check", "--family", "A12"], "the following arguments are required: --identity"),
        (["check", "--family", "A12", "--identity"], "argument --identity: expected one argument"),
        (["scan", "--field", "F2", "--identity", "I1", "--mode", "fast"],
         "argument --mode: invalid choice: 'fast'"),
        (["catalog", "list", "--regime", "char5"], "argument --regime: invalid choice: 'char5'"),
        (["catalog", "claims", "--identity", "I1", "--regime", "char5"],
         "argument --regime: invalid choice: 'char5'"),
        (["verify-paper", "--target", "Opp99"], "argument --target: invalid choice: 'Opp99'"),
        (["alternating", "--n", "two"], "argument --n: invalid int value: 'two'"),
    ])
    def test_usage_error_exits_two_with_its_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert message in out.err and "Traceback" not in out.err
        assert out.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["catalog", "--help"]]
                             + [[name, "--help"] for name in COMMANDS]
                             + [["catalog", name, "--help"] for name in CATALOG_COMMANDS])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: algid")

    def test_option_values_may_start_with_a_dash(self):
        r = runner.invoke(main, ["catalog", "instantiate", "A8", "--args", "-1/3"])
        assert r.exit_code == 0
        assert r.output == "-1/3  0  0  0\n0  4/3  1/3  0\n"
        r = runner.invoke(main, ["check", "--family", "A12", "--identity", "-u*v"])
        assert r.exit_code == 1
        assert r.output.startswith("fails: ")

    def test_missing_identity_in_a_child_process(self):
        """The installed entry point's path: exit 2 and no traceback."""
        out = _child_cli(["check", "--family", "A12"])
        assert out.returncode == 2
        assert "required: --identity" in out.stderr and "Traceback" not in out.stderr


_RUN_AND_LIST_MODULES = """
import sys
from algid.cli import CATALOG_COMMANDS, COMMANDS, main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    print(exc.code, *sorted(sys.modules))
"""


_NO_REPORTS = {"algid.canon_catalog", "algid.verifier"}
_NO_SCANS = _NO_REPORTS | {"numpy"}


@pytest.mark.parametrize("argv, present, absent", [
    (["expand", "--identity", "I20", "--field", "Q"], set(), _NO_SCANS),
    (["catalog", "instantiate", "A8", "--args", "-1/3"],
     {"algid.canon_catalog"}, {"algid.verifier", "algid.expander", "numpy"}),
    (["opposite", "--algebra", "@a4"], set(), _NO_SCANS),
    (["iso", "--a", "@a4", "--b", "@a4", "--witness", "[[1,0],[0,1]]"],
     set(), _NO_SCANS),
    (["iso", "--a", "@f3", "--b", "@f3", "--search"], set(), _NO_SCANS),
    (["check", "--algebra", "@f3", "--identity", "I6", "--functional"],
     {"algid.expander"}, _NO_SCANS),
    (["alternating", "--n", "2"], {"algid.expander"}, _NO_SCANS),
    (["check", "--family", "A12", "--identity", "I1"],
     {"algid.canon_catalog", "algid.expander"}, {"algid.verifier", "numpy"}),
    (["scan", "--field", "F2", "--identity", "I1"], {"algid.expander"}, _NO_SCANS),
    (["scan", "--field", "F3", "--identity", "I1"],
     {"algid.expander", "numpy"}, _NO_REPORTS),
], ids=["expand", "catalog-instantiate", "opposite", "iso-witness",
        "iso-search", "check-algebra", "alternating", "check", "scan", "scan-f3"])
def test_each_command_imports_only_what_it_uses(a4_file, tmp_path, argv,
                                                present, absent):
    """A one-shot process loads the modules its command uses and no others:
    only the reports need the verifier, only a named family the catalog and
    only the scans over F3 and F5 numpy (F2 is counted on the plan's integer
    route).  No command loads click or dataclasses."""
    src = os.path.dirname(os.path.dirname(algid.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    files = {"@a4": a4_file, "@f3": _f3_file(tmp_path, 0)}
    argv = [files.get(word, word) for word in argv]
    out = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES] + argv,
                         env=env, capture_output=True, text=True, timeout=60)
    code, *loaded = out.stdout.splitlines()[-1].split()
    assert code == "0", out.stderr
    assert present <= set(loaded)
    assert not absent & set(loaded)
    assert not {"click", "dataclasses"} & set(loaded)


def test_unsupported_scan_prime_exits_before_loading_numpy():
    """The prime is refused before numpy is imported or a plan compiles."""
    src = os.path.dirname(os.path.dirname(algid.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES,
                          "scan", "--field", "F7", "--identity", "I1"],
                         env=env, capture_output=True, text=True, timeout=60)
    code, *loaded = out.stdout.splitlines()[-1].split()
    assert code == "2"
    assert out.stderr == "Error: scans enumerate p^8 algebras; supported primes: 2, 3, 5\n"
    assert "numpy" not in loaded


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["catalog", "claims", "--identity", "I5", "--regime", "char0"],
    ["check", "--family", "A12", "--identity", "I1"],
], ids=["catalog-claims", "check"])
def test_closed_output_pipe_exits_two_quietly(argv, unbuffered):
    """Output that cannot be written because the reader closed the pipe
    (`algid ... | head`) is exit 2 with nothing on stderr, whether the write
    fails in a print or in the final flush."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(algid.__file__))))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "algid.cli"] + argv,
                             stdout=write_end, stderr=subprocess.PIPE,
                             env=env, timeout=30)
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert out.stderr == b""


def _f3_file(tmp_path, first_entry):
    """An F3 algebra document whose e1e1 coefficient of e1 is `first_entry`
    (e1 e1 = e1 and every other product 0 when it is 1)."""
    path = tmp_path / "f3.json"
    path.write_text(json.dumps({"dim": 2, "field": {"kind": "Fp", "p": 3},
                                "entries": [[first_entry, 0, 0, 0],
                                            [0, 0, 0, 0]]}))
    return str(path)


class TestInputContracts:
    def test_deeply_nested_algebra_file_is_usage_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        r = runner.invoke(main, ["check", "--algebra", str(path), "--identity", "I1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("entry, message", [
        ("1/0", "zero denominator"),
        (0.1, "not an exact scalar"),
        (True, "not an exact scalar"),
    ])
    def test_inexact_or_undefined_entry_is_usage_error(self, tmp_path, entry,
                                                       message):
        r = runner.invoke(main, ["check", "--algebra", _f3_file(tmp_path, entry),
                                 "--identity", "I1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert message in r.output

    def test_float_witness_is_usage_error(self, a4_file):
        r = runner.invoke(main, ["iso", "--a", a4_file, "--b", a4_file,
                                 "--witness", "[[0.5,1],[1,0]]"])
        assert r.exit_code == 2
        assert "bad witness" in r.output and "not an exact scalar" in r.output

    @pytest.mark.parametrize("field", [{"kind": "Q"}, {"kind": "Fp", "p": 5}])
    def test_null_entry_is_usage_error(self, tmp_path, field):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"dim": 2, "field": field,
                                    "entries": [[None, 0, 0, 0], [0, 0, 0, 0]]}))
        r = runner.invoke(main, ["check", "--algebra", str(path), "--identity", "I1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "None is not an exact scalar; write an integer or a 'num/den' " \
            "string" in r.output

    def test_exponent_notation_is_usage_error(self, tmp_path, a4_file):
        """Fraction() would build 10^2000000 outright (about 1.6 s); the
        entry is refused at once, in a child process whose timeout turns a
        slow parse into a failure."""
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"dim": 2, "field": {"kind": "Q"},
                                    "entries": [["1e2000000", 0, 0, 0], [0, 0, 0, 0]]}))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(algid.__file__))))
        out = subprocess.run([sys.executable, "-m", "algid.cli", "check", "--algebra",
                              str(path), "--identity", "I1"],
                             env=env, capture_output=True, text=True, timeout=30)
        assert out.returncode == 2, out.stderr
        assert "exponent notation is refused" in out.stderr
        assert "Traceback" not in out.stderr
        r = runner.invoke(main, ["iso", "--a", a4_file, "--b", a4_file,
                                 "--witness", '[["1E-3",1],[1,0]]'])
        assert r.exit_code == 2
        assert "bad witness" in r.output and "exponent notation" in r.output

    def test_non_number_string_is_usage_error(self, tmp_path, a4_file):
        path = _f3_file(tmp_path, "abc")
        r = runner.invoke(main, ["check", "--algebra", path, "--identity", "I1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output == ("Error: %s: not a valid algebra document ('abc' is not "
                            "an integer, decimal or 'num/den' string)\n" % path)
        r = runner.invoke(main, ["iso", "--a", a4_file, "--b", a4_file,
                                 "--witness", '[["abc",0],[0,1]]'])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output == ("Error: bad witness: 'abc' is not an integer, decimal "
                            "or 'num/den' string\n")

    def test_field_must_match_algebra_file(self, tmp_path):
        path = _f3_file(tmp_path, 1)
        r = runner.invoke(main, ["check", "--algebra", path, "--field", "F5",
                                 "--identity", "I1"])
        assert r.exit_code == 2
        assert "--field F5 differs from the field F3" in r.output
        r = runner.invoke(main, ["check", "--algebra", path, "--field", "F3",
                                 "--identity", "I1"])
        assert r.exit_code == 0 and r.output.strip() == "holds"

    def test_deeply_nested_input_is_usage_error(self):
        depth = 3000
        r = runner.invoke(main, ["check", "--family", "A12", "--identity",
                                 "(" * depth + "u" + ")" * depth + " = u"])
        assert r.exit_code == 2
        assert "nested deeper" in r.output
        r = runner.invoke(main, ["catalog", "instantiate", "A4", "--args",
                                 "(" * depth + "1" + ")" * depth + ", 0"])
        assert r.exit_code == 2
        assert "nested deeper" in r.output

    @pytest.mark.parametrize("sep", ["+", "*", " "], ids=["sum", "product", "adjacency"])
    @pytest.mark.parametrize("argv", [
        ["catalog", "instantiate", "A4", "--field", "F7"],
        ["check", "--family", "A4", "--identity", "I1"],
    ], ids=["instantiate", "check"])
    def test_long_chain_argument_is_usage_error(self, argv, sep):
        """A flat chain of 3,000 terms is a tree 3,000 levels deep: refused
        while parsing, not a RecursionError in evaluating it."""
        arg = sep.join(["1"] * 3000)
        r = runner.invoke(main, argv + ["--args", arg + ", 1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        position = 2 * MAX_DEPTH - (sep != " ")
        assert r.output == (f"Error: bad argument {arg!r}: at position {position}: "
                            f"expression deeper than {MAX_DEPTH} operations\n")
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("modulus", [5.7, True])
    def test_inexact_modulus_is_usage_error(self, tmp_path, modulus):
        path = tmp_path / "fp.json"
        path.write_text(json.dumps({"dim": 2, "field": {"kind": "Fp", "p": modulus},
                                    "entries": [[1, 0, 0, 0], [0, 0, 0, 0]]}))
        r = runner.invoke(main, ["opposite", "--algebra", str(path)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert f"modulus {modulus!r} is not an integer" in r.output

    @pytest.mark.parametrize("field", [{"kind": "Fp", "p": [3]}, {"kind": "Fp", "p": None},
                                       {"kind": "Fp"}])
    def test_malformed_modulus_is_usage_error(self, tmp_path, field):
        path = tmp_path / "fp.json"
        path.write_text(json.dumps({"dim": 2, "field": field,
                                    "entries": [[1, 0, 0, 0], [0, 0, 0, 0]]}))
        r = runner.invoke(main, ["opposite", "--algebra", str(path)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output == (f"Error: {path}: not a valid algebra document "
                            f"(bad field spec {field!r})\n")

    def test_deeply_nested_sqrt_argument_is_usage_error(self):
        depth = 3000
        out = _child_cli(["check", "--family", "A4", "--args",
                          "sqrt(" * depth + "2" + ")" * depth + ", 0", "--identity", "I1"])
        assert out.returncode == 2
        assert "nested deeper than 100 levels" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("field", ["Q", "F5"])
    def test_huge_exponent_is_usage_error(self, field):
        r = runner.invoke(main, ["catalog", "instantiate", "A4", "--field", field,
                                 "--args", "2^99999999, 0"])
        assert r.exit_code == 2
        assert "exponent above" in r.output
        r = runner.invoke(main, ["catalog", "instantiate", "A4", "--field", field,
                                 "--args", "2^3, 0", "--json"])
        assert r.exit_code == 0
        assert json.loads(r.output)["entries"][0][0] == (3 if field == "F5" else "8")  # 8 mod 5 = 3

    @pytest.mark.parametrize("field, arg, message", [
        ("Q", "x", "unbound variable 'x'"),
        ("Q", "sqrt(2)", "2 is not a square in Q"),
        ("F5", "sqrt(2)", "2 is not a square in F5"),
        ("Q", "1/0", "denominator vanishes in expression"),
        ("F5", "1/5", "denominator vanishes in expression"),
    ])
    def test_refused_argument_is_usage_error(self, field, arg, message):
        """An --args value that the expression language refuses exits 2 with
        one line naming the value and the refusal, and no traceback."""
        r = runner.invoke(main, ["catalog", "instantiate", "A4", "--field", field,
                                 "--args", arg + ", 1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output == f"Error: bad argument {arg!r}: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["check", "--family", "A12", "--identity", "9" * 5000 + "u*v = 0"],
        ["catalog", "instantiate", "A4", "--args", "9" * 5000 + ", 0"],
    ])
    def test_overlong_literal_is_usage_error(self, argv):
        r = runner.invoke(main, argv)
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "integer longer than 4300 digits" in r.output

    @pytest.mark.parametrize("spec, message", [
        ("F\u0663", "Error: bad field spec 'F\u0663'\n"),  # ARABIC-INDIC DIGIT THREE
        ("F\u00b2", "Error: bad field spec 'F\u00b2'\n"),  # SUPERSCRIPT TWO
        ("F" + "1" * 5000,
         "Error: modulus of 5000 digits out of supported range [2, 2^31)\n"),
    ], ids=["arabic-indic-digit", "superscript-digit", "5000-digits"])
    def test_field_modulus_is_ascii_digits(self, spec, message):
        """A modulus is refused before int() reads it unless it is ASCII
        digits short enough for a supported prime."""
        r = runner.invoke(main, ["scan", "--field", spec, "--identity", "I1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output == message
        assert "int()" not in r.output and "set_int_max_str_digits" not in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("argv", [
        ["check", "--family", "A12", "--identity", "u*v = \u00b2*(u*v)"],
        ["catalog", "instantiate", "A8", "--args", "\u0663"],
    ], ids=["identity", "args"])
    def test_literal_is_ascii_digits(self, argv):
        r = runner.invoke(main, argv)
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "unexpected character" in r.output and "int()" not in r.output

    def test_overlong_witness_number_is_usage_error(self, a4_file):
        r = runner.invoke(main, ["iso", "--a", a4_file, "--b", a4_file,
                                 "--witness", "[[%s,0],[0,1]]" % ("9" * 5000)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output == "Error: bad witness: integer longer than 4300 digits\n"
        assert "set_int_max_str_digits" not in r.output
        assert "Traceback" not in r.output

    def test_overlong_json_number_is_usage_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"dim": 2, "field": {"kind": "Q"}, "entries": [[%s, 0, 0, 0], '
                        '[0, 0, 0, 0]]}' % ("9" * 5000))
        r = runner.invoke(main, ["check", "--algebra", str(path), "--identity", "I1"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "integer longer than 4300 digits" in r.output

    @pytest.mark.parametrize("document", ["[]", '"x"', "5", "null"])
    def test_non_object_document_is_usage_error(self, tmp_path, document):
        path = tmp_path / "doc.json"
        path.write_text(document)
        for argv in (["check", "--algebra", str(path), "--identity", "I1"],
                     ["opposite", "--algebra", str(path)],
                     ["iso", "--a", str(path), "--b", str(path), "--search"]):
            r = runner.invoke(main, argv)
            assert r.exit_code == 2
            assert isinstance(r.exception, SystemExit)
            assert "%s: not a valid algebra document (expected a JSON object" % path \
                in r.output

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_unprintable_value_is_usage_error(self, json_flag):
        r = runner.invoke(main, ["catalog", "instantiate", "A4", "--args",
                                 "(99^64)^64, 0"] + json_flag)
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "cannot be printed" in r.output

    @pytest.mark.parametrize("command", [
        ["catalog", "instantiate", "A4"],
        ["check", "--family", "A4", "--identity", "I1"],
    ])
    def test_nested_power_tower_is_usage_error(self, command):
        """Each exponent is within the cap, but the tower would build a
        2^30-bit number (one more level, about 8.6 GB); it is refused before
        it grows, in a child process whose timeout turns a slow evaluation
        into a failure."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(algid.__file__))))
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "algid.cli"] + command
                             + ["--args", "((((2^64)^64)^64)^64)^64, 0"],
                             env=env, capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 10
        assert out.returncode == 2, out.stderr
        assert "a value longer than 262144 bits would be computed" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "expand"])
    def test_entries_too_long_for_the_plan_are_usage_error(self, command):
        """Each --args value is within the bit bound, but scaled by the lcm
        of their denominators (3 * 2^258048) and multiplied 9 times by a
        degree-10 plan they would pass it; both commands refuse them before
        the plan runs, where check used to spend about 20 s and expand about
        a minute."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(algid.__file__))))
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "algid.cli", command, "--family", "A4",
             "--args", "((2^64)^64)^63/3, 1/((2^64)^64)^63",
             "--identity", "(((u*v)*(u*v))*((u*v)*(u*v)))*(u*v) = 0"],
            env=env, capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 2
        assert out.returncode == 2, out.stderr
        assert "a value longer than 262144 bits would be computed" in out.stderr
        assert "Traceback" not in out.stderr

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["2", "99", "3/7", "-5"]),
           st.lists(st.integers(0, 64), max_size=6))
    def test_nested_powers_exit_by_the_contract(self, base, exponents):
        """A tower of powers either gives an algebra or exits 2 with the
        reason: the value is too long to compute or to print."""
        expr = base
        for e in exponents:
            expr = "(%s)^%d" % (expr, e)
        r = runner.invoke(main, ["catalog", "instantiate", "A4", "--args", expr + ", 0"])
        assert r.exception is None or isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code in (0, 2)
        if r.exit_code:
            assert "would be computed" in r.output or "cannot be printed" in r.output

    @pytest.mark.parametrize("argv, identity", [
        (["check", "--family", "A12"], "commutator"),
        (["check", "--family", "A12"], "squares"),
        (["expand"], "commutator"),
        (["scan", "--field", "F2"], "squares"),
    ])
    def test_expansion_past_the_budget_is_usage_error(self, argv, identity):
        """A 30-deep commutator or square tower is refused at once; without
        the budget the first hangs while expanding, the second while hashing."""
        text = "u"
        for _ in range(30):
            text = "[%s,v]" % text if identity == "commutator" else "(%s)^2" % text
        _assert_over_budget(argv + ["--identity", text])

    def test_alternating_shape_past_the_budget_is_usage_error(self):
        shape = "v1"
        for k in range(2, 25):
            shape = "(%s*v%d)" % (shape, 1 + k % 3)
        _assert_over_budget(["alternating", "--shape", shape])
        _assert_over_budget(["alternating", "--n", "2", "--shape", shape])


def _assert_over_budget(argv):
    """The command exits 2 naming the expansion budget, in a child process
    whose timeout turns a hang into a failure."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(algid.__file__))))
    out = subprocess.run([sys.executable, "-m", "algid.cli"] + argv,
                         env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 2, out.stderr
    assert "expansion budget" in out.stderr and "Traceback" not in out.stderr


_IDENTITY_TEXT = st.text(alphabet="0123456789uvw*+-=[](),^' ", max_size=30)
_ARGS_TEXT = st.text(alphabet="0123456789sqrt/*+-^(), ", max_size=30)
# Words of up to 4 leaves, mostly products, with the forms --shape refuses
# (brackets, sums, squares, numbers) mixed in.
_SHAPE_TEXT = st.recursive(
    st.sampled_from(["u", "v", "w", "v1", "v2", "v3", "0", "2"]),
    lambda inner: st.one_of(
        st.builds("{}*{}".format, inner, inner),
        st.builds("({}*{})".format, inner, inner),
        st.builds("[{},{}]".format, inner, inner),
        st.builds("{} + {}".format, inner, inner),
        st.builds("({})^2".format, inner)),
    max_leaves=4)
_FIELD_TEXT = st.one_of(
    st.text(alphabet="QFp0123456789- ", max_size=8),
    st.sampled_from(["Q", "F2", "F3", "F5", "F4", "F1", "F0", "0", "1", "7",
                     "F2147483647", "F03", "f3", "F³", "", " F3"]))


_JSON_LEAF = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-3, 50)),
    st.floats(), st.booleans(), st.none(), st.text(max_size=3))
_JSON_VALUE = st.one_of(_JSON_LEAF, st.lists(_JSON_LEAF, max_size=5),
                        st.dictionaries(st.text(max_size=2), _JSON_LEAF, max_size=2))
_EXACT_ENTRY = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 50)))
_MODULUS = st.one_of(
    st.integers(-5, 30), st.integers(2 ** 31 - 2, 10 ** 40), _JSON_VALUE)
_BAD_FIELD = st.one_of(
    st.fixed_dictionaries({"kind": st.just("Fp"), "p": _MODULUS}),
    st.sampled_from(["Q", "F2", "F3", "F4", "G5"]), _JSON_VALUE)


@st.composite
def _algebra_documents(draw):
    """An algebra document that is well formed except, often, for one part:
    an entry, a row, a key or the whole document replaced by a value of the
    wrong kind, range or shape, or a key dropped."""
    field = draw(st.sampled_from([{"kind": "Q"}] + [
        {"kind": "Fp", "p": p} for p in (2, 3, 5, 7, 2 ** 31 - 1)]))
    doc = {"dim": 2, "field": field,
           "entries": draw(st.lists(st.lists(_EXACT_ENTRY, min_size=4, max_size=4),
                                    min_size=2, max_size=2))}
    spoil = draw(st.sampled_from(
        [None, "entry", "row", "dim", "field", "entries", "drop", "document"]))
    if spoil == "document":
        return draw(_JSON_VALUE)
    if spoil == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif spoil == "entry":
        doc["entries"][draw(st.integers(0, 1))][draw(st.integers(0, 3))] = draw(_JSON_VALUE)
    elif spoil == "row":
        doc["entries"][draw(st.integers(0, 1))] = draw(_JSON_VALUE)
    elif spoil:
        doc[spoil] = draw(_BAD_FIELD if spoil == "field" else _JSON_VALUE)
    return doc


_DEEP_SHAPE = "(" * 5000 + "v1*v2" + ")" * 5000
_WIDE_SHAPE = "*".join(["v1", "v2", "v3"] * 4)  # 12 leaves: 4096 columns


def _assert_exit_contract(argv):
    r = runner.invoke(main, argv)
    assert r.exit_code in (0, 1, 2), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), r.exception


class TestCliFuzz:
    """Random text never gets past the exit-code contract: 0 holds, 1 fails
    a check, 2 rejects the input, and nothing ends in a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(_IDENTITY_TEXT)
    @example("9" * 4301 + "u*v = 0")
    def test_check_identity_text(self, text):
        _assert_exit_contract(["check", "--family", "A12", "--identity", text])

    @settings(max_examples=300, deadline=None)
    @given(_ARGS_TEXT)
    @example("9" * 4301 + ", 0")
    def test_instantiate_args_text(self, text):
        _assert_exit_contract(["catalog", "instantiate", "A4", "--args", text])


    @settings(max_examples=100, deadline=None)
    @given(_algebra_documents(), st.sampled_from(["I1", "I3", "I19"]))
    @example([], "I1")
    @example("x", "I1")
    @example(5, "I1")
    @example(None, "I1")
    @example({"dim": 2, "field": {"kind": "Fp", "p": 10 ** 40},
              "entries": [[1, 0, 0, 0], [0, 0, 0, 0]]}, "I1")
    def test_check_algebra_document(self, tmp_path_factory, document, identity):
        path = tmp_path_factory.getbasetemp() / "fuzz-algebra.json"
        path.write_text(json.dumps(document))
        _assert_exit_contract(["check", "--algebra", str(path),
                               "--identity", identity])

    @settings(max_examples=150, deadline=None)
    @given(_SHAPE_TEXT, st.sampled_from(["2", "3"]))
    @example(_DEEP_SHAPE, "2")
    @example(_DEEP_SHAPE, "3")
    @example(_WIDE_SHAPE, "2")
    @example(_WIDE_SHAPE, "3")
    def test_alternating_shape_text(self, text, n):
        _assert_exit_contract(["alternating", "--n", n, "--shape", text])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_JSON_VALUE.map(json.dumps),
                     st.lists(st.lists(_JSON_LEAF, max_size=3), max_size=3).map(json.dumps),
                     st.text(alphabet="[]{}0123456789,-/.e\" ", max_size=20)),
           st.sampled_from(["Q", "F3"]))
    @example("[" * 100000, "Q")
    @example("[[%s,0],[0,1]]" % ("9" * 4301), "F3")
    @example("[[NaN,0],[0,1]]", "Q")
    @example("[[1e400,0],[0,1]]", "F3")
    def test_iso_witness_text(self, tmp_path_factory, text, field):
        path = tmp_path_factory.getbasetemp() / ("fuzz-iso-%s.json" % field)
        path.write_text(json.dumps({"dim": 2, "field": field_make(field).to_json(),
                                    "entries": [[1, 0, 0, 0], [0, 0, 0, 0]]}))
        _assert_exit_contract(["iso", "--a", str(path), "--b", str(path),
                               "--witness", text])

    @settings(max_examples=100, deadline=None)
    @given(_FIELD_TEXT, st.sampled_from([
        ["check", "--family", "A12", "--identity", "I1"],
        ["expand", "--identity", "I1"],
        ["scan", "--identity", "I1"]]))
    @example("F" + "9" * 5000, ["check", "--family", "A12", "--identity", "I1"])
    @example("9" * 5000, ["scan", "--identity", "I1"])
    def test_field_text(self, text, argv):
        _assert_exit_contract(argv + ["--field", text])


def test_verify_paper_report_bytes_match_the_golden():
    golden_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "goldens", "verify-paper.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    r = runner.invoke(main, ["verify-paper", "--json", "--no-timestamp"])
    assert r.exit_code == 1
    assert r.output == json.dumps(golden, indent=2, sort_keys=True) + "\n"
