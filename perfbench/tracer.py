"""Out-of-program tracing: wrap the public functions of each techsub
module, keep spans in memory, and reduce them to per-layer numbers.

A span is (function, layer, start, end, parent, op). A layer's self time
is the time its spans cover minus the time their child spans cover.
Bytes read through ``pathlib`` are charged to the innermost open span's
layer; rendered report text is counted as the bytes reporting writes.
"""

from __future__ import annotations

import inspect
import pathlib
import re
import time
from collections import defaultdict

LAYERS = ("cli", "ingest", "growth", "estimation", "waves", "reporting", "svgplot")
# functions whose inclusive time per call is reported
TIMED_CALLS = (
    "estimation.ols_fit",
    "estimation.killer_fit",
    "estimation.logistic_fit",
    "ingest.read_series",
    "reporting.build_report",
    "svgplot.render_scatter",
    "cli.build_parser",
)
WRITTEN = "reporting.render_report"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start_ns, end_ns, parent, op]
        self.stack = []
        self.op = 0
        self.bytes_read = defaultdict(int)
        self.bytes_written = 0
        self._undo = []

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if name == WRITTEN:
                self.bytes_written += len(result.encode("utf-8"))
            return result

        traced.__wrapped__ = fn
        return traced

    def _layer_now(self) -> str:
        return self.spans[self.stack[-1]][1] if self.stack else "other"

    def install(self, package) -> None:
        """Replace every public function and public method defined in the
        package's layer modules, in every namespace that bound it."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(package)]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._undo.append((ns, key, obj))
                                ns[key] = wrapped
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._undo.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(fn, layer, f"{layer}.{attr}.{meth}"))
        for meth in ("read_text", "read_bytes"):
            original = getattr(pathlib.Path, meth)
            self._undo.append((pathlib.Path, meth, original))
            setattr(pathlib.Path, meth, self._counting_read(original))

    def _counting_read(self, original):
        def read(path, *args, **kwargs):
            data = original(path, *args, **kwargs)
            size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
            self.bytes_read[self._layer_now()] += size
            return data

        return read

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-layer calls and self time, per-function inclusive times."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        per_call = {name: [] for name in TIMED_CALLS}
        for (name, layer, start, end, parent, op), inner in zip(self.spans, child_ns):
            calls[layer] += 1
            self_ns[layer] += end - start - inner
            if name in per_call:
                per_call[name].append(end - start)
        return {
            "calls": calls,
            "self_ns": self_ns,
            "per_call_ns": per_call,
            "bytes_read": dict(self.bytes_read),
            "bytes_written": self.bytes_written,
        }


def merge(summaries) -> dict:
    total = {"calls": dict.fromkeys(LAYERS, 0), "self_ns": dict.fromkeys(LAYERS, 0),
             "per_call_ns": {name: [] for name in TIMED_CALLS}, "bytes_read": defaultdict(int),
             "bytes_written": 0}
    for s in summaries:
        for layer in LAYERS:
            total["calls"][layer] += s["calls"][layer]
            total["self_ns"][layer] += s["self_ns"][layer]
        for name in TIMED_CALLS:
            total["per_call_ns"][name].extend(s["per_call_ns"][name])
        for layer, n in s["bytes_read"].items():
            total["bytes_read"][layer] += n
        total["bytes_written"] += s["bytes_written"]
    return total


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def parse_importtime(text: str) -> dict:
    """Sum the self times that ``python -X importtime`` prints, overall and
    for the numpy and scipy packages, and count the modules."""
    total = numpy = scipy = modules = 0
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, name = int(m.group(1)), m.group(4)
        modules += 1
        total += self_us
        top = name.split(".", 1)[0]
        if top == "numpy":
            numpy += self_us
        elif top == "scipy":
            scipy += self_us
    return {"total_us": total, "numpy_us": numpy, "scipy_us": scipy, "modules": modules}
