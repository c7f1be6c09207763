"""Run the algid CLI with its layer boundaries traced.

    PYTHONPATH=src python3 perfbench/tracedcli.py <algid arguments>

Behaves like ``python -m algid.cli`` (same stdout and exit code) and, on
exit, writes the trace counters to stderr as one line starting with
``PERFBENCH_TRACE ``.
"""

import json
import sys

import algid.cli

import tracer

if __name__ == "__main__":
    active = tracer.install()
    try:
        algid.cli.main(sys.argv[1:], prog_name="algid")
    finally:
        sys.stderr.write(tracer.TRACE_MARK + json.dumps(active.snapshot()) + "\n")
