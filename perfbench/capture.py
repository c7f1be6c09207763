"""Capture the benchmark's goldens from the program as it is now.

    python3 perfbench/capture.py

Run from the repository root.  Writes perfbench/goldens/:

* verify-paper.json - the exact bytes of ``algid verify-paper --json
  --no-timestamp`` (exit code 1: five known-discrepancy rows fail by design);
* scan.json   - the satisfying count of every scan;
* cli.json    - per command kind, a pool of argument lists (with the algebra
  files they read) and each command's stdout and exit code.

The random CLI inputs come from a fixed pool seed; a benchmark run's --seed
picks entries of the pools.  Recapture only when the program's output is
meant to change, and say so in the change that does it.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import run

POOL_SEED = 20200101
CLI_POOL = 8
FIELDS = ("Q", "F2", "F3", "F5")
SMALL_ARGS = ("0", "1", "-1", "2", "-2", "3", "1/2", "-1/3")
WORKDIR = os.path.join(".perfbench_work", "capture")


def write_golden(name: str, doc) -> None:
    with open(os.path.join(run.GOLDENS, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def one_pass(workload, ops):
    res = run.run_pass(workload, ops, False, WORKDIR, run.child_env())
    bad = [(op, r["err"]) for op, r in zip(ops, res["ops"]) if r["err"]]
    if bad:
        sys.exit("capture: operations raised: %r" % bad[:3])
    return [r["out"] for r in res["ops"]]


# -- random inputs -------------------------------------------------------------------


def random_f3_rows(rng):
    return [[rng.randrange(3) for _ in range(4)] for _ in range(2)]


def change_basis_f3(rows, g):
    """g A (g^-1 (x) g^-1) over F3, with plain integers."""
    det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 3
    d = pow(det, -1, 3)
    gi = [[g[1][1] * d % 3, -g[0][1] * d % 3], [-g[1][0] * d % 3, g[0][0] * d % 3]]
    kron = [[gi[i // 2][j // 2] * gi[i % 2][j % 2] for j in range(4)] for i in range(4)]
    ga = [[sum(g[r][k] * rows[k][c] for k in range(2)) for c in range(4)]
          for r in range(2)]
    return [[sum(ga[r][k] * kron[k][c] for k in range(4)) % 3 for c in range(4)]
            for r in range(2)]


def f3_doc(rows):
    return {"dim": 2, "field": {"kind": "Fp", "p": 3}, "entries": rows}


def cli_pools(rng):
    from algid.canon_catalog import FAMILY_ORDER, REGIME_CHAR0

    families = [(f.name, len(f.params)) for f in FAMILY_ORDER[REGIME_CHAR0]]
    labels = ["I%d" % k for k in range(1, 31)]

    def fam_args():
        name, arity = rng.choice(families)
        return name, ", ".join(rng.choice(SMALL_ARGS) for _ in range(arity))

    def check_formal():
        name, args = fam_args()
        return {"args": ["check", "--family", name, "--args", args,
                         "--identity", rng.choice(labels)]}

    def check_functional():
        return {"args": ["check", "--algebra", "@a", "--identity",
                         rng.choice(labels), "--functional"],
                "files": {"a": f3_doc(random_f3_rows(rng))}}

    def expand():
        return {"args": ["expand", "--identity", rng.choice(labels),
                         "--field", rng.choice(FIELDS)]}

    def instantiate():
        name, args = fam_args()
        return {"args": ["catalog", "instantiate", name, "--args", args]}

    def iso_search():
        a = random_f3_rows(rng)
        while True:
            g = random_f3_rows(rng)[0]
            g = [g[:2], g[2:]]
            if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 3:
                break
        b = change_basis_f3(a, g) if rng.random() < 0.75 else random_f3_rows(rng)
        return {"args": ["iso", "--a", "@a", "--b", "@b", "--search"],
                "files": {"a": f3_doc(a), "b": f3_doc(b)}}

    def scan_f2():
        return {"args": ["scan", "--field", "F2", "--identity", rng.choice(labels)]}

    makers = {"check": check_formal, "check-functional": check_functional,
              "expand": expand, "catalog-instantiate": instantiate,
              "iso-search": iso_search, "scan-f2": scan_f2}
    pools = {kind: [make() for _ in range(CLI_POOL)] for kind, make in makers.items()}
    pools["verify-paper"] = [{"args": ["verify-paper", "--target", "Opp41",
                                       "--no-timestamp"]}]
    return pools


# -- capture ---------------------------------------------------------------------------


def capture_paper():
    got = subprocess.run([sys.executable, "-m", "algid.cli", "verify-paper",
                          "--json", "--no-timestamp"], env=run.child_env(),
                         capture_output=True, text=True)
    if got.returncode != 1:
        sys.exit("capture: verify-paper exited %d, expected 1" % got.returncode)
    with open(os.path.join(run.GOLDENS, "verify-paper.json"), "w",
              encoding="utf-8") as fh:
        fh.write(got.stdout)


def capture_scan():
    ops = [{"p": 3, "identity": "I%d" % k, "mode": mode}
           for mode in ("formal", "functional") for k in range(1, 31)]
    ops += [{"p": 5, "identity": name, "mode": mode}
            for mode in ("formal", "functional") for name in ("I19", "I23")]
    for op, count in zip(ops, one_pass("scan", ops)):
        op["count"] = count
    write_golden("scan.json", {"ops": ops})


def capture_cli(rng):
    pools = cli_pools(rng)
    ops = [run.cli_command(kind, idx, entry, WORKDIR)
           for kind, pool in pools.items() for idx, entry in enumerate(pool)]
    outs = iter(one_pass("cli", ops))
    for pool in pools.values():
        for entry in pool:
            entry.update(next(outs))
            if entry["exit"] not in (0, 1):
                sys.exit("capture: %r exited %d" % (entry["args"], entry["exit"]))
    write_golden("cli.json", {"order": list(pools), "kinds": pools})


def main() -> None:
    sys.path.insert(0, "src")
    os.makedirs(WORKDIR, exist_ok=True)
    rng = random.Random(POOL_SEED)
    try:
        capture_paper()
        capture_scan()
        capture_cli(rng)
    finally:
        shutil.rmtree(".perfbench_work", ignore_errors=True)


if __name__ == "__main__":
    main()
