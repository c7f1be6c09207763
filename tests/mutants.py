"""Mutants of the kernels, each run against the test modules that should kill it.

Run from anywhere, offline:

    python tests/mutants.py

Each entry names a file under src/algid, an exact text that occurs there
once, the text that replaces it, and the test modules to run.  For each
mutant the script copies src/, tests/ and pyproject.toml to a temporary
directory, applies the mutant to the copy, runs pytest on those modules only
and prints whether the mutant was killed (a test failed) or survived (every
test passed).  It exits 1 when a mutant survived or could not be applied.
Pytest does not collect this file: its name does not match test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent

# A mutant that runs this long is reported as killed by the timeout.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    modules: Tuple[str, ...]


EXPRESSIONS = ("tests/test_multipoly.py", "tests/test_canon_catalog.py")

MUTANTS = (
    Mutant(
        "compile_expr: numerator evaluated before the denominator",
        "src/algid/multipoly.py",
        """\
            den = _constant(g(env), "division by a non-constant expression")
            if not den:
                raise DivisionByZero("denominator vanishes in expression")
            x, inverse = f(env), Scalar(field, field.inverse(den))
""",
        """\
            x = f(env)
            den = _constant(g(env), "division by a non-constant expression")
            if not den:
                raise DivisionByZero("denominator vanishes in expression")
            inverse = Scalar(field, field.inverse(den))
""",
        EXPRESSIONS,
    ),
    Mutant(
        "compile_expr: no bit bound on + - *",
        "src/algid/multipoly.py",
        """\
        _within_bound(_bits(x) + _bits(y))
        return op(x, y)
""",
        """\
        return op(x, y)
""",
        EXPRESSIONS,
    ),
    Mutant(
        "compile_expr: no bit bound on ^",
        "src/algid/multipoly.py",
        """\
            _within_bound(_bits(x) * e)
""",
        "",
        EXPRESSIONS,
    ),
    Mutant(
        "_constant: a non-constant polynomial gives its constant term",
        "src/algid/multipoly.py",
        """\
        if not x.is_constant():
            raise AlgidError(what)
        x = x.constant_value()
""",
        """\
        x = Scalar(x.field, x.terms.get(ONE, 0))
""",
        EXPRESSIONS,
    ),
    Mutant(
        "Field.sqrt: the larger root mod p",
        "src/algid/exactnum.py",
        "        return min(r, p - r)\n",
        "        return max(r, p - r)\n",
        EXPRESSIONS,
    ),
    Mutant(
        "TensorPlan.nonzero_slot: no final reduction mod p",
        "src/algid/expander.py",
        """\
            if p:
                value %= p
            if value:
""",
        """\
            if value:
""",
        ("tests/test_expander.py", "tests/test_verifier.py"),
    ),
    Mutant(
        "_conjugates_mod_p: the rows of g swapped",
        "src/algid/algebra_core.py",
        "        for (r0, r1), brow in zip(g, b):\n",
        "        for (r0, r1), brow in zip(g[::-1], b):\n",
        ("tests/test_algebra_core.py", "tests/test_verifier.py"),
    ),
    Mutant(
        "row_covers: side conditions not checked",
        "src/algid/canon_catalog.py",
        "    return table.admits(point) and table.at(point).algebra == candidate\n",
        "    return table.at(point).algebra == candidate\n",
        ("tests/test_canon_catalog.py", "tests/test_verifier.py"),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply `mutant` to a fresh copy of the tree and run its modules: the
    verdict, with the first failing test of a killed mutant."""
    with tempfile.TemporaryDirectory(prefix="algid-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "not applied: the old text occurs %d times" % text.count(mutant.old)
        target.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *mutant.modules]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed: timeout after %d s" % TIMEOUT_S
    if done.returncode == 0:
        return "survived"
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode == 1 and failed:
        return "killed: " + failed[0][len("FAILED "):]
    return "error: pytest exit %d\n%s" % (done.returncode, done.stdout[-2000:])


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        print("%-60s %6.1f s  %s" % (mutant.name, time.perf_counter() - start, verdict),
              flush=True)
        bad += not verdict.startswith("killed")
    print("%d of %d mutants killed" % (len(MUTANTS) - bad, len(MUTANTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
