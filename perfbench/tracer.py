"""Outside-in instrumentation of the algid layers for the traced benchmark run.

Each wrapped function is replaced where it is looked up: a module-level
function in every loaded ``algid`` module that binds it (``from x import f``
copies the name, so ``verifier.expand`` and ``cli.expand`` are patched as
well as ``expander.expand``), and a method on its class.  Nothing under
``src/`` is edited.

Every thread keeps its own span stack and counters, because
``verify_theorem`` fans rows out to a thread pool; totals are summed only
after the pool has joined.  A span's self time is its wall time minus the
time of the spans it opened.  Spans are aggregated as they close (calls, self
and inclusive seconds per name, and call counts per parent -> child edge)
instead of being stored one record per call: the ``MultiPoly`` and ``Scalar``
operators alone take about a million calls per pass.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

_clock = time.perf_counter
# prefix of the stderr line that carries a traced CLI process's counters
TRACE_MARK = "PERFBENCH_TRACE "


TABLES = ("calls", "self_s", "total_s", "edges", "extra")


class _ThreadState:
    __slots__ = ("stack", "last") + TABLES

    def __init__(self):
        self.stack = []
        self.last = 0.0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.edges = Counter()
        self.extra = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.state = st
            return st

    def wrap(self, key, fn, kernel=False, on_result=None):
        """A drop-in replacement for fn that records the span `key`.

        Kernel spans skip the edge and inclusive-time bookkeeping, which keeps
        the per-call cost down on the hot arithmetic operators.
        """
        local, new_state = self._local, self._state

        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = new_state()
            stack = st.stack
            start = _clock()
            if stack:
                parent = stack[-1]
                st.self_s[parent] += start - st.last
                if not kernel:
                    st.edges[parent + ">" + key] += 1
            stack.append(key)
            st.calls[key] += 1
            st.last = start
            try:
                result = fn(*args, **kwargs)
            finally:
                now = _clock()
                st.self_s[stack.pop()] += now - st.last
                st.last = now
                if not kernel:
                    st.total_s[key] += now - start
            if on_result is not None:
                on_result(st.extra, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Totals over every thread seen so far (call after workers joined)."""
        with self._lock:
            states = list(self._states)
        return merge({t: getattr(st, t) for t in TABLES} for st in states)


def merge(snapshots) -> dict:
    """Sum snapshots table by table and key by key."""
    out = {t: {} for t in TABLES}
    for snap in snapshots:
        for table, values in snap.items():
            acc = out[table]
            for k, v in values.items():
                acc[k] = acc.get(k, 0) + v
    return out


def _found(extra, result):
    extra["verifier.search_iso.found"] += result is not None


def _algebras(extra, result):
    extra["verifier.scan_algebras.algebras"] += len(result)


def _equations(extra, result):
    extra["expander.expand.equations"] += len(result.equations)


def _skipped(extra, result):
    extra["canon_catalog.instances.skipped"] += sum(
        1 for ins in result if ins.skip_reason)


# (defining module, function, span name, result hook)
FUNCTIONS = (
    ("algid.verifier", "verify_theorem", "verifier.verify_theorem", None),
    ("algid.verifier", "search_iso", "verifier.search_iso", _found),
    ("algid.verifier", "check_formal", "verifier.check_formal", None),
    ("algid.verifier", "scan_algebras", "verifier.scan_algebras", _algebras),
    ("algid.algebra_core", "conjugates_to", "algebra_core.conjugates_to", None),
    ("algid.expander", "expand", "expander.expand", _equations),
    ("algid.expander", "span_equal", "expander.span_equal", None),
    ("algid.identity_lang", "parse_identity", "identity_lang.parse_identity",
     None),
)

# (module, class, method, span name, kernel, result hook)
METHODS = (
    ("algid.algebra_core", "Msc", "product", "algebra_core.Msc.product",
     False, None),
    ("algid.canon_catalog", "ClaimedRow", "instances",
     "canon_catalog.instances", False, _skipped),
    ("algid.canon_catalog", "OppositeRow", "instances",
     "canon_catalog.instances", False, _skipped),
    ("algid.multipoly", "MultiPoly", "__mul__", "multipoly.MultiPoly.mul",
     True, None),
    ("algid.multipoly", "MultiPoly", "__add__", "multipoly.MultiPoly.add",
     True, None),
    ("algid.exactnum", "Scalar", "__mul__", "exactnum.Scalar.mul", True, None),
    ("algid.exactnum", "Scalar", "__add__", "exactnum.Scalar.add", True, None),
    ("algid.exactnum", "Scalar", "__sub__", "exactnum.Scalar.sub", True, None),
    ("algid.exactnum", "Scalar", "__neg__", "exactnum.Scalar.neg", True, None),
    ("algid.exactnum", "Scalar", "__truediv__", "exactnum.Scalar.truediv",
     True, None),
)


def install() -> Tracer:
    """Wrap the layer boundaries of every algid module already imported.

    Modules the workload did not import stay untouched, so tracing imports
    nothing the untraced run would not.
    """
    tracer = Tracer()
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "algid" or name.startswith("algid."))]
    for modname, fname, key, hook in FUNCTIONS:
        home = sys.modules.get(modname)
        if home is None:
            continue
        original = getattr(home, fname)
        wrapper = tracer.wrap(key, original, on_result=hook)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    for modname, cls_name, meth, key, kernel, hook in METHODS:
        home = sys.modules.get(modname)
        if home is None:
            continue
        cls = getattr(home, cls_name)
        setattr(cls, meth, tracer.wrap(key, getattr(cls, meth), kernel, hook))
    return tracer
