"""The algid benchmark: one command, three workloads, outputs checked against
goldens captured from the program.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root; nothing needs installing (children run with
PYTHONPATH=src and ALGID_THREADS unset).  Seed 1 is the development seed;
seed 2 is held out for confirming a claimed gain.

Workloads (closed loop, one client; every pass is a fresh process):

* paper  - ``verify-paper`` in process: all 8 targets, default fields and
  thread count.  One operation is one target's report.
* scan   - ``scan_field`` over F3 for I1..I30 and over F5 for I19/I23, in
  formal and functional mode.
* cli    - one-shot ``python -m algid.cli`` processes, round robin over seven
  commands with seeded inputs; one operation is one process, spawn to exit.

A run makes passes until the pass boundary nearest to --seconds, and at
least the workload's minimum number of passes.  With --trace 0 it prints the
end-to-end metrics: set-up, pass time and peak memory are medians over the
passes, op_p50_ms is the median over passes of each pass's median operation
latency, and op_tail_ms a percentile of all operations of the run.  With
--trace 1 it alternates traced and untraced passes and prints the per-layer
metrics, the tracing overhead and whether the call counts repeated exactly
between traced passes.  The line before the result carries the host record,
the tail percentile and its sample count, any failed operations and, in
traced runs, the per-layer metrics that read 0 because the workload never
calls that layer ("absent").
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens")
WORKER = os.path.join(HERE, "worker.py")

# Passes made even when --seconds runs out first.  Together with the number
# of operations per pass this fixes the tail percentile of each workload, so
# that the same percentile is compared across commits however fast they are.
MIN_PASSES = {"paper": 5, "scan": 3, "cli": 3}
MIN_TRACED_PASSES = 2
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
CLI_VARIANTS_PER_KIND = 2
RUN_BUDGET_S = 160.0
PASS_TIMEOUT_S = 150.0

SPAN_LAYERS = (
    "verifier.search_iso",
    "algebra_core.conjugates_to",
    "algebra_core.Msc.product",
    "verifier.check_formal",
    "expander.expand",
    "expander.span_equal",
    "multipoly.MultiPoly.mul",
    "multipoly.MultiPoly.add",
    "identity_lang.parse_identity",
    "canon_catalog.instances",
    "verifier.scan_algebras",
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(name: str):
    with open(os.path.join(GOLDENS, name), encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs --------------------------------------------------------------------


def plan_paper(seed):
    reports = load_golden("verify-paper.json")["reports"]
    ops = [{"target": r["target"]} for r in reports]
    expected = [digest(json.dumps(r, indent=2, sort_keys=True)) for r in reports]
    return ops, expected


def plan_scan(seed):
    g = load_golden("scan.json")
    ops = [{k: op[k] for k in ("p", "identity", "mode")} for op in g["ops"]]
    return ops, [op["count"] for op in g["ops"]]


def plan_cli(seed, workdir):
    """Seeded CLI commands: per kind, CLI_VARIANTS_PER_KIND pool entries, run
    round robin.  Algebra files are written to `workdir`."""
    g = load_golden("cli.json")
    rng = random.Random(seed)
    rounds = [[] for _ in range(CLI_VARIANTS_PER_KIND)]
    for kind in g["order"]:
        pool = g["kinds"][kind]
        picks = [rng.randrange(len(pool)) for _ in range(CLI_VARIANTS_PER_KIND)]
        for r, idx in enumerate(picks):
            rounds[r].append((kind, idx, pool[idx]))
    ops, expected = [], []
    for entries in rounds:
        for kind, idx, entry in entries:
            ops.append(cli_command(kind, idx, entry, workdir))
            expected.append({"stdout": entry["stdout"], "exit": entry["exit"]})
    return ops, expected


def cli_command(kind, idx, entry, workdir):
    """The operation for one CLI pool entry; writes the algebra files it
    reads (``@name`` arguments) into `workdir`."""
    paths = {}
    for name, doc in entry.get("files", {}).items():
        paths["@" + name] = os.path.join(workdir, "%s-%d-%s.json" % (kind, idx, name))
        with open(paths["@" + name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return {"args": [paths.get(a, a) for a in entry["args"]]}


# -- running passes --------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("ALGID_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    if min(8, os.cpu_count() or 1) > nproc:
        # the program's default (min(8, cpu_count)) would oversubscribe
        env["ALGID_THREADS"] = str(nproc)
    return env


def wait_child(proc, timeout):
    """Reap proc with wait4 (killing it after `timeout`); return its peak
    RSS in KiB."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_pass(workload, ops, traced, workdir, env):
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"trace": traced, "workdir": workdir, "ops": ops}, fh)
    argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        WORKER, workload, plan_path]
    out_path = os.path.join(workdir, "worker.out")
    err_path = os.path.join(workdir, "worker.err")
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env)
        rss_kb = wait_child(proc, PASS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        reason = "worker exited %d: %s" % (proc.returncode,
                                           stderr.strip()[-300:])
        result = {"crash": reason,
                  "ops": [{"s": None, "out": None, "err": reason} for _ in ops]}
    # on cli the peak is that of the largest one-shot CLI process, the
    # process a user runs; elsewhere it is the worker's own
    result.update(wall=wall, traced=traced,
                  rss_kb=result.get("child_peak_rss_kb") or rss_kb)
    if traced:
        result["imports"] = import_times(stderr)
    return result


def import_times(stderr: str) -> dict:
    """numpy, click and algid import seconds from ``-X importtime`` output.

    algid's share is its outermost modules' cumulative time minus numpy and
    click, which it imports."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(),
                     int(parts[1]) / 1e6))
    numpy_s = sum(c for _, n, c in rows if n == "numpy")
    click_s = sum(c for _, n, c in rows if n == "click")
    algid = [(d, c) for d, n, c in rows if n == "algid" or n.startswith("algid.")]
    top = min((d for d, _ in algid), default=0)
    algid_s = sum(c for d, c in algid if d == top) - numpy_s - click_s
    return {"numpy_s": numpy_s, "click_s": click_s, "algid_s": algid_s}


# -- metrics -----------------------------------------------------------------------


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(samples: int) -> int:
    """The highest ladder percentile with at least TAIL_BEYOND samples
    beyond it."""
    for q in TAIL_LADDER:
        if samples * (100 - q) / 100 >= TAIL_BEYOND:
            return q
    return 50


def end_to_end(passes, tail_q):
    """End-to-end metrics over the passes that completed."""
    lat = [r["s"] for p in passes for r in p["ops"]]
    # The median of each pass, not of all operations pooled: paper's eight
    # targets leave a gap at the pooled median (0.2 s next to 0.4 s), where
    # the pooled value jumps with the slowest of one group and the fastest
    # of the next.
    p50 = statistics.median(statistics.median(r["s"] for r in p["ops"])
                            for p in passes)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, tail_q) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(traced, untraced, targets, target_passes):
    """Per-layer metrics from the traced passes (timings are medians; counts
    come from the first traced pass and must repeat in the others).  The
    per-target times come from `target_passes`, untraced paper passes whose
    operations are the targets in order."""
    first = traced[0]["trace"]
    calls, edges, extra = first["calls"], first["edges"], first["extra"]

    def med(table, key):
        return statistics.median(p["trace"][table].get(key, 0.0) for p in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for key in SPAN_LAYERS:
        out[key + ".calls"] = (calls.get(key, 0), "count")
        out[key + ".self_s"] = (med("self_s", key), "s")
    search = calls.get("verifier.search_iso", 0)
    out["verifier.search_iso.candidates"] = (ratio(
        edges.get("verifier.search_iso>algebra_core.conjugates_to", 0), search),
        "count")
    out["verifier.search_iso.found_ratio"] = (ratio(
        extra.get("verifier.search_iso.found", 0), search), "ratio")
    out["expander.expand.equations"] = (
        extra.get("expander.expand.equations", 0), "count")
    for op in ("mul", "add", "truediv"):
        key = "exactnum.Scalar.%s" % op
        out[key + ".calls"] = (calls.get(key, 0), "count")
    out["exactnum.self_s"] = (statistics.median(
        sum(v for k, v in p["trace"]["self_s"].items() if k.startswith("exactnum."))
        for p in traced), "s")
    out["canon_catalog.instances.skipped"] = (
        extra.get("canon_catalog.instances.skipped", 0), "count")
    out["verifier.scan_algebras.algebras_per_s"] = (ratio(
        extra.get("verifier.scan_algebras.algebras", 0),
        med("total_s", "verifier.scan_algebras")), "1/s")
    for k, target in enumerate(targets):
        out["verifier.verify_theorem.%s.s" % target] = (statistics.median(
            p["ops"][k]["s"] for p in target_passes) if target_passes else 0.0, "s")
    for name in ("numpy_s", "click_s", "algid_s"):
        out["cli.import." + name] = (statistics.median(
            p["imports"][name] for p in traced), "s")
    out["trace.overhead_ratio"] = (ratio(
        statistics.median(p["pass_s"] for p in traced),
        statistics.median(p["pass_s"] for p in untraced)) - 1.0, "ratio")
    same = all(p["trace"][t] == first[t] for p in traced
               for t in ("calls", "edges", "extra"))
    out["trace.counts_repeat"] = (1 if same else 0, "bool")
    return out


def host_record(env):
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # recorded, never fatal
        numpy_version = None
    commit = None
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        commit = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "algid_threads_env": env.get("ALGID_THREADS"),
    }


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "algid", "__init__.py")):
        print("run.py: no src/algid here; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env()
    workdir = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass


def measure(args, env, workdir) -> int:
    w = args.workload
    if w == "cli":
        ops, expected = plan_cli(args.seed, workdir)
    else:
        ops, expected = {"paper": plan_paper, "scan": plan_scan}[w](args.seed)
    # compile the sources once, so no pass pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import algid.cli"], env=env)

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_pass(w, ops, traced, workdir, env))
        elapsed = time.perf_counter() - start
        done = sum(1 for p in passes if p["traced"] == bool(args.trace))
        needed = MIN_TRACED_PASSES if args.trace else MIN_PASSES[w]
        if args.trace:
            done = min(done, len(passes) - done)
        # stop at the pass boundary nearest to --seconds, so that a run
        # measures for --seconds give or take half a pass
        typical = statistics.median(p["wall"] for p in passes)
        if done >= needed and elapsed + typical / 2 >= args.seconds:
            break
        if elapsed + max(p["wall"] for p in passes) > RUN_BUDGET_S:
            break

    attempted = failed = 0
    failures = []
    for k, p in enumerate(passes):
        for op, rec, want in zip(ops, p["ops"], expected):
            attempted += 1
            if rec["err"] is None and rec["out"] == want:
                continue
            failed += 1
            if len(failures) < 10:
                failures.append({"pass": k, "op": op, "error": rec["err"],
                                 "got": rec["out"], "want": want})
    good = [p for p in passes if "crash" not in p]
    kinds = {p["traced"] for p in good}
    if not good or (args.trace and kinds != {True, False}):
        print(json.dumps({"info": {"failures": failures}}))
        print("run.py: no pass completed", file=sys.stderr)
        return 1

    q = tail_percentile(len(ops) * MIN_PASSES[w])
    info = {
        "workload": w, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(ops),
        "op_samples": sum(len(p["ops"]) for p in passes),
        "tail_percentile": q, "failed_ratio": failed / attempted,
        "threads": next((p.get("threads") for p in good), None),
        "host": host_record(env), "failures": failures,
    }
    if args.trace:
        traced = [p for p in good if p["traced"]]
        untraced = [p for p in good if not p["traced"]]
        targets = [r["target"] for r in load_golden("verify-paper.json")["reports"]]
        metrics = per_layer(traced, untraced, targets,
                            untraced if w == "paper" else [])
        info["absent"] = sorted(
            k for k, (v, unit) in metrics.items()
            if k.endswith((".calls", ".s")) and v == 0)
    else:
        metrics = end_to_end(good, q)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
