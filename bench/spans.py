"""Tracing taken from outside the program.

The traced run times the calls that cross a layer boundary without a
line under ``src/`` knowing: the harness wraps the calls it makes itself
(:meth:`Recorder.call`), swaps module attributes the program resolves at
call time (:meth:`Recorder.patch`) and hands the program ``Database``
subclasses whose storage seams report to the recorder
(:func:`traced_database`, in the style of
``repro.resilience.faults.FaultyDatabase``).

Seam calls are too many to keep one span each (hundreds of thousands per
pass), so they are summed: every span knows the seam time spent directly
under it, and the trace file shows that sum as one ``data.seams`` child
on a lane of its own.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

#: Layers are the packages under ``src/repro``; ``bench`` is this harness.
LAYERS = ("lang", "data", "engine", "core", "analysis", "resilience", "obs", "bench")

SEAM_COUNTERS = (
    "candidates_calls", "candidates_rows", "add_calls", "add_new", "contains_calls",
    "copy_calls", "discard_calls", "index_probes", "full_scans",
)


class Span:
    __slots__ = ("ident", "parent", "layer", "name", "start", "end", "seam_s", "mark", "children_s")

    def __init__(self, ident: int, parent: int | None, layer: str, name: str, start: float, mark: float):
        self.ident = ident
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.seam_s = 0.0
        self.mark = mark
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus what child spans and the storage seams cover."""
        return self.duration - self.children_s - self.seam_s


def resolve(path: str):
    """``"package.module:attr"`` -> the object, or ``None`` if it is gone."""
    module, _, attr = path.partition(":")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class Recorder:
    """Spans of one workload's traced passes, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_id = 0
        self.spans: list[Span] = []
        self.kept: list[tuple[int, Span]] = []
        self.skipped: list[str] = []
        self.seam_total = 0.0
        self.counts = dict.fromkeys(SEAM_COUNTERS, 0)
        self._stack: list[Span] = []
        self._next = 0
        self._undo: list = []

    # -- spans ----------------------------------------------------------------
    @contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.seam_s += self.seam_total - parent.mark
        span = Span(
            self._next, parent.ident if parent else None, layer, name,
            perf_counter(), self.seam_total,
        )
        self._next += 1
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.seam_s += self.seam_total - span.mark
            stack.pop()
            if parent is not None:
                parent.mark = self.seam_total
                parent.children_s += span.duration
            self.spans.append(span)

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        with self.span(layer, name):
            return fn(*args, **kwargs)

    def end_pass(self, keep: bool) -> list[Span]:
        """Close the pass: hand back its spans, keeping them for the trace
        file if *keep*."""
        spans, self.spans = self.spans, []
        if keep:
            self.kept.extend((self.pass_id, s) for s in spans)
        self.pass_id += 1
        return spans

    # -- patching -------------------------------------------------------------
    def replace(self, path: str, make) -> bool:
        """Point ``module:attr`` at ``make(original)`` until :meth:`unpatch`.

        Works for names the program looks up in a module's namespace at
        call time.  A name that no longer exists is noted in
        :attr:`skipped` and left alone.
        """
        original = resolve(path)
        if original is None:
            self.skipped.append(path)
            return False
        module_name, _, attr = path.partition(":")
        module = importlib.import_module(module_name)
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))
        return True

    def patch(self, path: str, layer: str, name: str) -> bool:
        """Time every call the program makes through ``module:attr``."""

        def make(original):
            def timed(*args, **kwargs):
                with self.span(layer, name):
                    return original(*args, **kwargs)

            timed.__wrapped__ = original
            return timed

        return self.replace(path, make)

    def unpatch(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- output ---------------------------------------------------------------
    def trace_events(self) -> dict:
        """The kept spans in Chrome trace-event form (Perfetto reads it)."""
        events = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "calls"}},
            {"ph": "M", "pid": 1, "tid": 2, "name": "thread_name",
             "args": {"name": "data seams (summed per span)"}},
            {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": self.workload}},
        ]
        if not self.kept:
            return {"traceEvents": events, "displayTimeUnit": "ms"}
        origin = min(span.start for _, span in self.kept)
        for pass_id, span in sorted(self.kept, key=lambda item: item[1].start):
            args = {
                "id": span.ident, "parent": span.parent, "layer": span.layer,
                "workload": self.workload, "pass": pass_id,
                "self_ms": round(span.self_s * 1e3, 6),
            }
            events.append(
                {
                    "ph": "X", "pid": 1, "tid": 1, "cat": span.layer, "name": span.name,
                    "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6, "args": args,
                }
            )
            if span.seam_s > 0.0:
                events.append(
                    {
                        "ph": "X", "pid": 1, "tid": 2, "cat": "data", "name": "data.seams",
                        "ts": (span.start - origin) * 1e6, "dur": span.seam_s * 1e6,
                        "args": {
                            "id": f"{span.ident}.seams", "parent": span.ident, "layer": "data",
                            "workload": self.workload, "pass": pass_id, "summed": True,
                        },
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.trace_events(), handle)


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer; seam time under any span belongs to ``data``."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        out[span.layer] += span.self_s
        out["data"] += span.seam_s
    return out


def traced_database(base, recorder: Recorder):
    """A subclass of the ``Database`` class *base* whose seams are timed.

    Copies and empty clones stay traced by re-classing what *base*
    returns, which needs nothing but the public ``copy`` /
    ``empty_like``; the subclass adds no state.
    """
    counts = recorder.counts

    end = object()

    def timed_rows(rows):
        # The join loop often stops at the first row (witness search), so
        # the count is settled when the generator is closed, not exhausted.
        iterator = iter(rows)
        served = 0
        try:
            while True:
                t0 = perf_counter()
                row = next(iterator, end)
                recorder.seam_total += perf_counter() - t0
                if row is end:
                    return
                served += 1
                yield row
        finally:
            counts["candidates_rows"] += served

    class Traced(base):
        __slots__ = ()

        def copy(self):
            t0 = perf_counter()
            new = base.copy(self)
            new.__class__ = Traced
            recorder.seam_total += perf_counter() - t0
            counts["copy_calls"] += 1
            return new

        def empty_like(self):
            new = base.empty_like(self)
            new.__class__ = Traced
            return new

        def candidates(self, predicate, bound):
            t0 = perf_counter()
            rows = base.candidates(self, predicate, bound)
            recorder.seam_total += perf_counter() - t0
            counts["candidates_calls"] += 1
            counts["index_probes" if bound else "full_scans"] += 1
            return timed_rows(rows)

        def _add_row(self, predicate, row):
            t0 = perf_counter()
            new = base._add_row(self, predicate, row)
            recorder.seam_total += perf_counter() - t0
            counts["add_calls"] += 1
            counts["add_new"] += new
            return new

        def __contains__(self, atom):
            t0 = perf_counter()
            found = base.__contains__(self, atom)
            recorder.seam_total += perf_counter() - t0
            counts["contains_calls"] += 1
            return found

        def contains_tuple(self, predicate, row):
            t0 = perf_counter()
            found = base.contains_tuple(self, predicate, row)
            recorder.seam_total += perf_counter() - t0
            counts["contains_calls"] += 1
            return found

        def discard(self, atom):
            t0 = perf_counter()
            found = base.discard(self, atom)
            recorder.seam_total += perf_counter() - t0
            counts["discard_calls"] += 1
            return found

    Traced.__name__ = f"Traced{base.__name__}"
    return Traced
