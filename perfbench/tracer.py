"""Outside-in span tracer for the terracini layers.

The tracer changes no source file.  While installed it replaces the public
functions of the traced modules, and the public methods of ``Chart`` and
``Matrix``, with wrappers that record one span per call: name, parent span,
request, start and end.  A ``from``-import binds a function's name in every
importing module (``span_rank`` lives in ``chart``, ``secants``, ``gamma15``
and ``exactlin``), so every ``terracini`` module that binds an original is
patched, and every binding is restored on exit.  Span names are
``<module>.<function>`` or ``<module>.<Class>.<method>``; the kernel
module ``_kernels`` appears as ``kernels``.

Spans stay in memory until the benchmark ends.  Self time is a span's
duration minus the time its direct child spans cover.  A few counters are
taken at the same boundaries:

* ``exactlin.screen_hit_ratio``: ``span_rank`` calls that finish without
  any ``bareiss_echelon`` call beneath them, over all ``span_rank`` calls;
* ``exactlin.span_rank.cells``: matrix cells (rows x columns) ranked;
* ``chart.Chart.derivative_vector.repeat_share``: requests that repeat an earlier
  (chart, point, sorted index) request of the same CLI invocation;
* ``exactlin.sz_zero_test.trials``: evaluator calls made by the
  Schwartz-Zippel loop.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# Module short names whose public functions are traced, in report order.
TRACED_MODULES = ("chart", "exactlin", "_kernels", "secants", "curvilinear",
                  "gamma15", "catalog", "reports")
# Classes whose public methods are traced: (module short name, class name).
TRACED_CLASSES = (("chart", "Chart"), ("exactlin", "Matrix"))

ROOT_SPAN = "cli.main"


def _targets():
    """(label, owner, attribute, original) for every traced callable."""
    out = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"terracini.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            # _kernels re-binds the backend's functions; elsewhere only trace
            # what the module itself defines.
            if short != "_kernels" and getattr(obj, "__module__", None) != mod.__name__:
                continue
            out.append((f"{short.lstrip('_')}.{name}", None, name, obj))
    for short, cls_name in TRACED_CLASSES:
        cls = getattr(importlib.import_module(f"terracini.{short}"), cls_name)
        for name, obj in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(obj, classmethod) or inspect.isfunction(obj):
                out.append((f"{short}.{cls_name}.{name}", cls, name, obj))
    return out


class Tracer:
    """Records spans of one benchmark run; install it around traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Each span is (name id, parent span, request span, start ns, end ns).
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._request = -1
        self.cells = 0
        self.sz_trials = 0
        self.derivative_requests = 0
        self.derivative_repeats = 0
        self._seen: set = set()
        self._charts: list = []  # keeps ids in _seen unique within a request

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -----------------------------------------------------------

    def _wrap(self, label: str, fn, hook=None):
        nid = self._name_id(label)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, parent, self._request, t0, t1)

        return traced

    @contextmanager
    def request(self):
        """Root span of one CLI invocation; its index identifies the request."""
        nid = self._name_id(ROOT_SPAN)
        idx = len(self.spans)
        self.spans.append(None)
        self._request = idx
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (nid, -1, idx, t0, t1)
            self._request = -1
            self._seen.clear()
            self._charts.clear()

    # -- counters taken at call boundaries ---------------------------------

    def _span_rank_hook(self, args, kwargs):
        vectors = kwargs.pop("vectors") if "vectors" in kwargs else args[0]
        if not isinstance(vectors, (list, tuple)):
            vectors = list(vectors)  # span_rank materializes it the same way
        if vectors:
            self.cells += len(vectors) * len(vectors[0])
        return (vectors,) + tuple(args[1:]), kwargs

    def _derivative_vector_hook(self, args, kwargs):
        chart = args[0]
        pt = args[1] if len(args) > 1 else kwargs["pt"]
        idx = args[2] if len(args) > 2 else kwargs["idx"]
        key = (id(chart), tuple(pt), tuple(sorted(idx)))
        self.derivative_requests += 1
        if key in self._seen:
            self.derivative_repeats += 1
        else:
            self._seen.add(key)
            self._charts.append(chart)
        return args, kwargs

    def _sz_hook(self, args, kwargs):
        evaluator = args[0]

        def counted(coords):
            self.sz_trials += 1
            return evaluator(coords)

        return (counted,) + tuple(args[1:]), kwargs

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding of every traced callable; restore on exit."""
        hooks = {"exactlin.span_rank": self._span_rank_hook,
                 "chart.Chart.derivative_vector": self._derivative_vector_hook,
                 "exactlin.sz_zero_test": self._sz_hook}
        patched = []
        try:
            replacement = {}
            for label, owner, name, obj in _targets():
                hook = hooks.get(label)
                if isinstance(obj, classmethod):
                    new = classmethod(self._wrap(label, obj.__func__, hook))
                else:
                    new = self._wrap(label, obj, hook)
                if owner is not None:
                    patched.append((owner, name, obj))
                    setattr(owner, name, new)
                else:
                    replacement[id(obj)] = (obj, new)
            for mod in [m for n, m in sys.modules.items()
                        if n == "terracini" or n.startswith("terracini.")]:
                for name, value in list(vars(mod).items()):
                    hit = replacement.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((mod, name, value))
                        setattr(mod, name, hit[1])
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and total seconds."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child_ns[span[1]] += span[4] - span[3]
        table: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            row = table.setdefault(self.names[span[0]],
                                   {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            dur = span[4] - span[3]
            row["calls"] += 1
            row["self_s"] += (dur - child_ns[idx]) / 1e9
            row["total_s"] += dur / 1e9
        return table

    def screen_hit_ratio(self) -> float:
        """Share of span_rank calls with no bareiss_echelon span beneath them."""
        rank_id = self._name_ids.get("exactlin.span_rank")
        bareiss_id = self._name_ids.get("kernels.bareiss_echelon")
        ranks = [i for i, s in enumerate(self.spans) if s and s[0] == rank_id]
        if not ranks:
            return 0.0
        fell_back = set()
        for span in self.spans:
            if span is None or span[0] != bareiss_id:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] != rank_id:
                parent = self.spans[parent][1]
            if parent >= 0:
                fell_back.add(parent)
        return 1 - len(fell_back) / len(ranks)

    def repeat_share(self) -> float:
        if not self.derivative_requests:
            return 0.0
        return self.derivative_repeats / self.derivative_requests

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text: name, parent, request, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tparent\trequest\tstart_ns\tend_ns\n")
            for span in self.spans:
                if span is not None:
                    out.write(f"{self.names[span[0]]}\t{span[1]}\t{span[2]}\t"
                              f"{span[3]}\t{span[4]}\n")
