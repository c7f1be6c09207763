"""One pass of a benchmark workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD PLAN.json

Run from the repository root.  The process first imports the algid modules
the workload uses and times that (the set-up), then runs the plan's
operations one after another and prints one JSON line: the set-up time, the
pass time, and per operation its latency, its output (a digest, a count or a
CLI transcript) and the error it raised, if any.  When the plan asks for
tracing, the layer boundaries are wrapped after the set-up (see tracer.py)
and the trace counters are added to the line.

Each pass is a fresh process so that every pass starts as cold as a user's
one-shot command: caches the program may keep start empty.
"""

import sys
import time

_start = time.perf_counter()

SETUP_MODULES = {
    "paper": ("algid.verifier",),
    "scan": ("algid.verifier",),
    "cli": ("algid.cli",),
}

WORKLOAD = sys.argv[1]
for _name in SETUP_MODULES[WORKLOAD]:
    __import__(_name)
SETUP_S = time.perf_counter() - _start

# Imported after the timed set-up on purpose: a module the worker loads first
# would make the program's own import of it look free.
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402

import tracer  # noqa: E402
from run import digest, wait_child  # noqa: E402

_clock = time.perf_counter
CLI_TIMEOUT_S = 60.0


def paper_op(op, state):
    from algid import verifier

    report = verifier.verify_theorem(op["target"])
    return digest(json.dumps(report.to_json(), indent=2, sort_keys=True))


def scan_op(op, state):
    from algid import identity_lang, verifier

    return verifier.scan_field(op["p"], identity_lang.get_identity(op["identity"]),
                               op["mode"])


def cli_op(op, state):
    """Run one CLI command as its own process, as a user would."""
    out_path = os.path.join(state["workdir"], "cli-%d.out" % os.getpid())
    err_path = out_path[:-4] + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(state["entry"] + op["args"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        rss = wait_child(proc, CLI_TIMEOUT_S)
    state["peak_rss_kb"] = max(state.get("peak_rss_kb", 0), rss)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if state["trace"]:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            marks = [ln for ln in fh if ln.startswith(tracer.TRACE_MARK)]
        if marks:
            state["counters"].append(json.loads(marks[-1][len(tracer.TRACE_MARK):]))
    return {"stdout": stdout, "exit": proc.returncode}


OPS = {"paper": paper_op, "scan": scan_op, "cli": cli_op}


def main() -> None:
    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    state = {}
    active = None
    if WORKLOAD == "cli":
        here = os.path.dirname(os.path.abspath(__file__))
        state.update(workdir=plan["workdir"], trace=plan["trace"], counters=[],
                     entry=([sys.executable, os.path.join(here, "tracedcli.py")]
                            if plan["trace"] else [sys.executable, "-m", "algid.cli"]))
    elif plan["trace"]:
        active = tracer.install()
    run_op = OPS[WORKLOAD]
    records = []
    t_pass = _clock()
    for op in plan["ops"]:
        t0 = _clock()
        try:
            out, err = run_op(op, state), None
        except Exception as exc:  # an operation that raises is a failed one
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        records.append({"s": _clock() - t0, "out": out, "err": err})
    result = {"setup_s": SETUP_S, "pass_s": _clock() - t_pass, "ops": records}
    if active is not None:
        result["trace"] = active.snapshot()
    if WORKLOAD == "cli":
        result["child_peak_rss_kb"] = state.get("peak_rss_kb", 0)
        if plan["trace"]:
            result["trace"] = tracer.merge(state["counters"])
    if WORKLOAD in ("paper", "scan"):
        from algid import verifier

        resolve = getattr(verifier, "_thread_count", None)
        result["threads"] = resolve(None) if resolve else None
    print(json.dumps(result))


if __name__ == "__main__":
    main()
