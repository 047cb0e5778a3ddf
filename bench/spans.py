"""Per-layer spans, recorded from outside the library.

`Tracer.install()` replaces each public function of the layer modules,
and a few methods, with a wrapper that records a span: name, layer,
parent span, thread, wall time (`perf_counter_ns`) and CPU time
(`thread_time_ns`). Every name in `dihedral.*` that is bound to a
wrapped function is rebound, so a call through `dihedral.report` and
one through `dihedral.obstruction` both show. `uninstall()` puts the
originals back. The span stack is thread-local because `scan --jobs`
runs rows on worker threads; a span started on a worker thread has no
parent. Spans stay in memory until `write_jsonl`.

A span's self time is its duration minus the durations of its child
spans; its wait time is its duration minus its CPU time.
"""

import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
from time import perf_counter_ns, thread_time_ns

LAYERS = ("cli", "report", "seifert", "exact", "cover", "obstruction", "signatures")

# Methods that get a span, beside the layers' public functions.
SPAN_METHODS = (
    ("seifert", "SeifertMatrix", "__init__"),
    ("report", "Report", "to_dict"),
    ("report", "Report", "to_json"),
    ("report", "RowError", "to_dict"),
    ("report", "RowError", "to_json"),
)

# Constructors that are only counted: IntMatrix is built millions of
# times on a big knot, and a span each would swamp what it measures.
COUNT_METHODS = (
    ("exact", "IntMatrix", "__init__"),
    ("report", "RowError", "__init__"),
)


class Span:
    __slots__ = ("id", "parent", "thread", "name", "layer", "start", "end",
                 "cpu", "child", "error", "extra")

    def __init__(self, id, parent, thread, name, layer):
        self.id = id
        self.parent = parent
        self.thread = thread
        self.name = name
        self.layer = layer
        self.start = self.end = self.cpu = self.child = 0
        self.error = None
        self.extra = None

    @property
    def wall_ns(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.end - self.start - self.child

    @property
    def wait_ns(self):
        return self.end - self.start - self.cpu

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "thread": self.thread,
                "name": self.name, "layer": self.layer, "start_ns": self.start,
                "wall_ns": self.wall_ns, "cpu_ns": self.cpu, "self_ns": self.self_ns,
                "error": self.error, "extra": self.extra}


def _surjective_characters(args, kwargs, result):
    group, n = args[0], args[2]
    walked = group.order if group.order % n == 0 else 0
    return {"group_order": walked, "characters": len(result)}


def _length(key):
    return lambda args, kwargs, result: {key: len(result)}


# What a span of these functions records about its call.
OBSERVERS = {
    "obstruction.surjective_characters": _surjective_characters,
    "obstruction.quotient_classes": _length("classes"),
    "obstruction.characteristic_knot_classes": _length("char_classes"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._counter_cells = []
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name, layer):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else 0,
                    threading.get_ident(), name, layer)
        stack.append(span)
        span.cpu = thread_time_ns()
        span.start = perf_counter_ns()
        return stack, span

    def _close(self, stack, span):
        span.end = perf_counter_ns()
        span.cpu = thread_time_ns() - span.cpu
        stack.pop()
        if stack:
            stack[-1].child += span.end - span.start
        self.spans.append(span)

    def _span_wrapper(self, fn, name, layer):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            stack, span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                self._close(stack, span)
            if observe is not None:
                span.extra = observe(args, kwargs, result)
            return result

        return wrapper

    def _generator_wrapper(self, fn, name, layer):
        # One span per resume, so a suspended generator never sits on the
        # stack while its caller runs.
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack, span = self._open(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(stack, span)
                    yield item
            finally:
                gen.close()

        return wrapper

    def _count_wrapper(self, fn, name):
        def cell():
            c = getattr(self._tls, name, None)
            if c is None:
                c = [name, 0, 0]
                setattr(self._tls, name, c)
                self._counter_cells.append(c)
            return c

        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            c = cell()
            c[1] += 1
            if name == "exact.IntMatrix":
                c[2] += obj.rows * obj.cols

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules at every
        binding in dihedral.*, and the listed methods."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dihedral.{layer}")
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    make = (self._generator_wrapper if inspect.isgeneratorfunction(fn)
                            else self._span_wrapper)
                    wrappers[fn] = make(fn, f"{layer}.{n}", layer)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "dihedral" or name.startswith("dihedral.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(importlib.import_module(f"dihedral.{layer}"), cls_name)
            label = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
            self._rebind(cls, meth, self._span_wrapper(vars(cls)[meth], label, layer))
        for layer, cls_name, meth in COUNT_METHODS:
            cls = getattr(importlib.import_module(f"dihedral.{layer}"), cls_name)
            self._rebind(cls, meth, self._count_wrapper(vars(cls)[meth], f"{layer}.{cls_name}"))

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def take(self):
        """Spans and counts recorded since the last take, then reset."""
        spans, self.spans = self.spans, []
        counts = {}
        for name, calls, entries in self._counter_cells:
            c = counts.setdefault(name, [0, 0])
            c[0] += calls
            c[1] += entries
        for c in self._counter_cells:
            c[1] = c[2] = 0
        return spans, counts


def write_jsonl(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _outermost(spans, names, by_id):
    """Spans named in `names` that have no ancestor also named there, so a
    nested call is not counted twice."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


NS = 1e9


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    by_id = {s.id: s for s in spans}
    m = {}

    def inclusive_s(*names):
        return sum(s.wall_ns for s in _outermost(spans, set(names), by_id)) / NS

    def calls(*names):
        return sum(1 for s in spans if s.name in names)

    def extra(key):
        return sum(s.extra.get(key, 0) for s in spans if s.extra)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s.self_ns for s in spans if s.layer == layer) / NS, "s")

    analyze = [s for s in spans if s.name == "report.analyze"]
    m["report.analyze.calls"] = (len(analyze), "count")
    m["report.analyze_p50_ms"] = (percentile([s.wall_ns / 1e6 for s in analyze], 50), "ms")
    m["report.analyze_p95_ms"] = (percentile([s.wall_ns / 1e6 for s in analyze], 95), "ms")
    m["report.analyze.wait_s"] = (sum(s.wait_ns for s in analyze) / NS, "s")
    m["report.serialize_s"] = (inclusive_s("report.Report.to_dict", "report.Report.to_json",
                                           "report.RowError.to_dict", "report.RowError.to_json"), "s")
    m["report.parse_s"] = (inclusive_s("report.parse_matrix"), "s")
    m["report.row_errors"] = (counts.get("report.RowError", [0, 0])[0], "count")

    m["seifert.validate.calls"] = (calls("seifert.SeifertMatrix"), "count")
    m["seifert.stabilize.calls"] = (calls("seifert.stabilize_zero_framed"), "count")
    m["seifert.stabilize_s"] = (inclusive_s("seifert.stabilize_zero_framed"), "s")

    m["exact.snf.calls"] = (calls("exact.snf"), "count")
    m["exact.snf_s"] = (inclusive_s("exact.snf"), "s")
    m["exact.det.calls"] = (calls("exact.det"), "count")
    m["exact.det_s"] = (inclusive_s("exact.det"), "s")
    inverse = ("exact.rational_inverse", "exact.scaled_inverse")
    m["exact.inverse.calls"] = (len(_outermost(spans, set(inverse), by_id)), "count")
    m["exact.inverse_s"] = (inclusive_s(*inverse), "s")
    im_calls, im_entries = counts.get("exact.IntMatrix", [0, 0])
    m["exact.intmatrix.calls"] = (im_calls, "count")
    m["exact.intmatrix.entries"] = (im_entries, "count")

    m["cover.homology.calls"] = (calls("cover.double_cover_homology"), "count")
    m["cover.homology_s"] = (inclusive_s("cover.double_cover_homology"), "s")
    m["cover.linking_form_s"] = (inclusive_s("cover.linking_form"), "s")
    m["cover.self_linking.calls"] = (calls("cover.self_linking"), "count")
    m["cover.self_linking_s"] = (inclusive_s("cover.self_linking"), "s")

    enum = ("obstruction.surjective_characters", "obstruction.enumerate_isotropic")
    order, chars = extra("group_order"), extra("characters")
    m["obstruction.enum_s"] = (inclusive_s(*enum), "s")
    m["obstruction.enum.group_order"] = (order, "count")
    m["obstruction.enum.characters"] = (chars, "count")
    m["obstruction.enum.yield"] = (chars / order if order else 0.0, "ratio")
    m["obstruction.enum.capped"] = (sum(1 for s in spans if s.layer == "obstruction"
                                        and s.error == "EnumerationCapError"), "count")
    m["obstruction.classes"] = (extra("classes"), "count")
    m["obstruction.classes_s"] = (inclusive_s("obstruction.quotient_classes"), "s")
    m["obstruction.char_classes"] = (extra("char_classes"), "count")
    m["obstruction.char_classes_s"] = (inclusive_s("obstruction.characteristic_knot_classes"), "s")
    criterion = ("obstruction.seifert_criterion", "obstruction.zero_framed_exists")
    m["obstruction.criterion.calls"] = (len(_outermost(spans, set(criterion), by_id)), "count")
    m["obstruction.criterion_s"] = (inclusive_s(*criterion), "s")
    m["obstruction.verdict.calls"] = (calls("obstruction.verdict"), "count")

    evals = [s for s in spans if s.name == "signatures.tristram_levine"]
    m["signatures.evals"] = (len(evals), "count")
    m["signatures.eval_p50_ms"] = (percentile([s.wall_ns / 1e6 for s in evals], 50), "ms")
    m["signatures.eval_p95_ms"] = (percentile([s.wall_ns / 1e6 for s in evals], 95), "ms")
    m["signatures.indeterminate"] = (sum(1 for s in evals
                                         if s.error == "SignatureIndeterminateError"), "count")
    m["trace.spans"] = (len(spans), "count")
    return m
