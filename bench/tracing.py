"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``erlab`` modules in every module
namespace that binds them, times each call and attributes self time (the
call's duration minus the time spent in wrapped callees).  Hot kernels keep
only per-name aggregates; per-operation functions also record parent-linked
spans.  Nothing in the program changes: wrappers are installed for one pass
and removed afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _count(attr):
    return lambda res: getattr(res, attr)


# (layer name, module, attribute, hot, counter).  ``hot`` kernels keep
# aggregates only; ``counter`` turns a return value into a work count.
TARGETS = [
    ("search.canonical_code", "erlab.search", "canonical_code", True, None),
    ("search.enumerate_patterns", "erlab.search", "enumerate_patterns", False, lambda res: len(res[0])),
    ("search.solve_Q2", "erlab.search", "solve_Q2", False, _count("nodes")),
    ("search.verify_candidate", "erlab.search", "verify_candidate", True, None),
    ("weights.optimize_weights", "erlab.weights", "optimize_weights", True, None),
    ("weights.verify_stationarity", "erlab.weights", "verify_stationarity", True, None),
    ("graphs.has_clique", "erlab.graphs", "has_clique", True, lambda res: res is not None),
    ("graphs.maximal_cliques", "erlab.graphs", "maximal_cliques", True, None),
    ("extension.enumerate_optimal_attachments", "erlab.extension", "enumerate_optimal_attachments", False, len),
    ("extension.check_extension_property", "erlab.extension", "check_extension_property", False, None),
    ("extension.numcheck_certificate", "erlab.extension", "numcheck_certificate", False, None),
    ("core.is_feasible", "erlab.core", "is_feasible", True, None),
    ("core.q_value", "erlab.core", "q_value", True, None),
    ("lp.solve_L", "erlab.lp", "solve_L", False, _count("vertex_count")),
    ("lp.sandwich_certificate", "erlab.lp", "sandwich_certificate", False, None),
    ("logform.compare", "erlab.logform", "LogLinear.__lt__", True, None),
    ("capacity.capacity", "erlab.capacity", "capacity", False, lambda res: len(res.max_vectors)),
    ("capacity.validate_nocap", "erlab.capacity", "validate_nocap", False, None),
    ("oracle.extremal_search", "erlab.oracle", "extremal_search", False, _count("classes_examined")),
    ("oracle.count_valid_colourings", "erlab.oracle", "count_valid_colourings", False, None),
    ("cli.run", "erlab.cli", "run", False, None),
]


class Stat:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0


class Tracer:
    """Self-time accounting over a stack of open calls.

    ``_child`` holds, per open call, the time covered by its finished wrapped
    children; its bottom entry collects the time of top-level calls.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._child = [0.0]
        self._span_ids = [None]
        self._op = None

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def wrap(self, name: str, fn, hot: bool = True, counter=None):
        stat = self.stat(name)
        clock, child, span_ids, spans = self.clock, self._child, self._span_ids, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not hot:
                span = {"id": len(spans), "parent": span_ids[-1], "op": self._op, "name": name}
                spans.append(span)
                span_ids.append(span["id"])
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child.pop()
                child[-1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - inner
                if not hot:
                    span_ids.pop()
                    span["start"], span["end"] = start, start + duration
            if counter is not None:
                stat.work += counter(result)
            return result

        return wrapper

    @contextmanager
    def operation(self, label: str):
        """Mark the benchmark operation that the following spans belong to."""
        self._op = label
        try:
            yield
        finally:
            self._op = None

    def attributed(self) -> float:
        return sum(s.self_time for s in self.stats.values())

    def dump(self) -> dict:
        return {
            "aggregates": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time, "work": s.work}
                for name, s in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def _bindings(original):
    """Every (namespace, key) in the erlab modules bound to ``original``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "erlab" or modname.startswith("erlab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
    return found


@contextmanager
def installed(tracer: Tracer):
    """Install wrappers for ``TARGETS`` and restore the originals on exit."""
    restore = []
    try:
        for name, modname, attr, hot, counter in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, tracer.wrap(name, original, hot, counter))
                restore.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = tracer.wrap(name, original, hot, counter)
            for namespace, key in _bindings(original):
                setattr(namespace, key, wrapper)
                restore.append((namespace, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
