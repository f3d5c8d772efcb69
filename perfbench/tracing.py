"""Spans around each layer's public entry points, patched in from outside.

The program has no hooks of its own for this, so the benchmark rebinds
the entry points for the length of one run (:func:`installed`) and puts
them back afterwards.  Every patch targets the binding the caller
actually looks up — ``dispatch_event`` as ``repro.runtime.actors`` imports
it, ``query_signature`` as the planner imports it, ``backdate`` at its
module global so recursive calls are caught, and methods on their
classes.  A patch on a binding nobody calls never fires; the runner
checks that every wrapper a workload should use fired at least once.

A span is ``(name, start, end, parent)``.  Spans are kept in flat arrays
while the run lasts and written out when it ends.  A layer's self time
is the sum over its spans of the span's duration minus the time its
direct child spans cover, so the self times of all layers plus the time
outside any span add up to the run's wall time exactly.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.compensation as compensation
import repro.runtime.actors as actors
import repro.warehouse.planner as planner
from repro.core.protocol import WarehouseAlgorithm
from repro.durability import wal as wal_module
from repro.durability.wal import WriteAheadLog
from repro.messaging.messages import UpdateBatch, UpdateNotification
from repro.messaging.wire import WireCodec
from repro.relational.expressions import Query, Term
from repro.relational.views import View
from repro.serving.backend import WarehouseReader
from repro.serving.cache import ServingCache
from repro.source.memory import MemorySource

#: Layers, named after the repro package each entry point lives in.
LAYERS = (
    "kernel",
    "core",
    "relational",
    "source",
    "messaging",
    "durability",
    "warehouse",
    "serving",
    "runtime",
)

_clock = time.perf_counter

#: ``(module or class, attribute, wrap)``: ``wrap(original)`` is bound in
#: place of the attribute for the length of a run.
Patch = Tuple[object, str, Callable[[Callable], Callable]]


class Tracer:
    """In-memory span store with per-layer self time and counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        #: Open spans: ``[span id, name, time covered by child spans]``.
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Inclusive seconds per span name.
        self.inclusive_s: Dict[str, float] = {}
        #: Calls per wrapper (span or count-only) — the "did it fire" check.
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def begin(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.starts)
        parent = self._stack[-1][0] if self._stack else -1
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ends.append(0.0)
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        self.starts.append(_clock())
        return frame

    def end(self, frame: list) -> float:
        stop = _clock()
        span_id, name, covered = frame
        self._stack.pop()
        self.ends[span_id] = stop
        duration = stop - self.starts[span_id]
        layer = name.partition(".")[0]
        self.self_s[layer] += duration - covered
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def spans(self) -> Iterator[Tuple[int, int, str, float, float]]:
        """``(id, parent id, name, start, end)`` for every span recorded."""
        for index in range(len(self.starts)):
            yield (
                index,
                self.parents[index],
                self.names[self.name_ids[index]],
                self.starts[index],
                self.ends[index],
            )

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the count.

        Columns: span id, parent id (-1 for none), name, start and end in
        ``perf_counter`` seconds.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_s\tend_s\n")
            for span in self.spans():
                handle.write("%d\t%d\t%s\t%.9f\t%.9f\n" % span)
        return len(self.starts)


def _span(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``after(result, duration, args)`` records extras."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] = tracer.calls.get(name, 0) + 1
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.end(frame)
        if after is not None:
            after(result, duration, args)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count calls of a function too small and frequent to span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] = tracer.calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _outer_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count every call of a recursive function; span only the outermost."""
    depth = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] = tracer.calls.get(name, 0) + 1
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        frame = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame)
            depth[0] -= 1

    return wrapper


def _uqs_depth(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A core update span that first samples the view's UQS depth."""
    spanned = _span(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer.sample("core.uqs_depth", len(self.uqs_queries()))
        return spanned(self, *args, **kwargs)

    return wrapper


def layer_patches(tracer: Tracer) -> List[Patch]:
    """``(owner, attribute, wrap)`` for every layer entry point."""

    def after_dispatch(result, duration, args):
        tracer.sample("kernel.dispatch", duration)
        for _destination, request in result[2]:
            tracer.sample("relational.terms_per_query", len(request.query.terms))

    def after_evaluate(result, duration, args):
        tracer.count("source.rows_answered", len(result))

    def after_encode(result, duration, args):
        tracer.count("messaging.frame_bytes", len(result))

    def after_snapshot(lsn, duration, args):
        wal = args[0]
        path = os.path.join(wal.directory, wal_module._snapshot_name(lsn))
        tracer.count("durability.snapshot_bytes", os.path.getsize(path))

    def after_read(result, duration, args):
        tracer.sample("serving.read", duration)

    def span(name, after=None):
        return lambda fn: _span(tracer, name, fn, after)

    return [
        (actors, "dispatch_event", span("kernel.dispatch", after_dispatch)),
        (WarehouseAlgorithm, "on_update", lambda fn: _uqs_depth(tracer, "core.on_update", fn)),
        (
            WarehouseAlgorithm,
            "on_update_batch",
            lambda fn: _uqs_depth(tracer, "core.on_update", fn),
        ),
        (WarehouseAlgorithm, "on_answer", span("core.on_answer")),
        (compensation, "backdate", lambda fn: _outer_span(tracer, "core.backdate", fn)),
        (Term, "__init__", lambda fn: _counted(tracer, "relational.term", fn)),
        (Query, "substitute", span("relational.substitute")),
        (View, "substitute", span("relational.substitute")),
        (planner, "query_signature", span("relational.signature")),
        (MemorySource, "evaluate", span("source.evaluate", after_evaluate)),
        (MemorySource, "apply_update", span("source.apply")),
        (WireCodec, "encode", span("messaging.encode", after_encode)),
        (WriteAheadLog, "append", span("durability.append")),
        (WriteAheadLog, "snapshot", span("durability.snapshot", after_snapshot)),
        (planner.CompensationPlanner, "plan", span("warehouse.plan")),
        (ServingCache, "read", span("serving.read", after_read)),
        (WarehouseReader, "read", span("serving.backend_read")),
    ]


class LagProbe:
    """Per-view install lag of each source update, in wall-clock seconds.

    An update's lag runs from the moment its source applied it to the end
    of the first warehouse event, at or after the one that took in its
    notification, after which a view it touches reports
    ``is_quiescent()`` — the point where ECA installs its COLLECT.  The
    harness assigns update serials in apply order, so the n-th
    ``apply_update`` call of a run is serial n.
    """

    def __init__(self, catalog, relation_views: Dict[str, Tuple[str, ...]]) -> None:
        self._members = catalog.algorithms
        self._relation_views = relation_views
        self._applied: Dict[int, Tuple[float, str]] = {}
        self._serial = 0
        #: view name -> apply times of updates the warehouse has taken in.
        self._waiting: Dict[str, List[float]] = {}
        self.lags: List[float] = []

    def on_apply(self, update) -> None:
        self._serial += 1
        self._applied[self._serial] = (_clock(), update.relation)

    def on_event(self, message) -> None:
        if isinstance(message, UpdateNotification):
            self._take_in(message)
        elif isinstance(message, UpdateBatch):
            for notification in message.notifications:
                self._take_in(notification)
        if not self._waiting:
            return
        now = _clock()
        for view_name in list(self._waiting):
            if self._members[view_name].is_quiescent():
                self.lags.extend(now - applied for applied in self._waiting.pop(view_name))

    def _take_in(self, notification) -> None:
        applied, relation = self._applied.pop(notification.serial)
        for view_name in self._relation_views.get(relation, ()):
            self._waiting.setdefault(view_name, []).append(applied)

    @property
    def pending(self) -> int:
        """Updates applied whose views never reported an install."""
        return len(self._applied) + sum(len(v) for v in self._waiting.values())

    def patches(self) -> List[Patch]:
        probe = self

        def wrap_apply(fn):
            @functools.wraps(fn)
            def apply_update(self, update):
                fn(self, update)
                probe.on_apply(update)

            return apply_update

        def wrap_dispatch(fn):
            @functools.wraps(fn)
            def dispatch_event(algorithm, origin, message):
                result = fn(algorithm, origin, message)
                probe.on_event(message)
                return result

            return dispatch_event

        return [
            (MemorySource, "apply_update", wrap_apply),
            (actors, "dispatch_event", wrap_dispatch),
        ]


@contextmanager
def installed(patches: List[Patch]) -> Iterator[None]:
    """Apply ``patches`` in order (later ones wrap earlier ones), then undo."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, wrap in patches:
            # The owner's own binding: a class attribute it only inherits
            # would be restored onto the subclass, shadowing the base.
            current = vars(owner)[attribute]
            saved.append((owner, attribute, current))
            setattr(owner, attribute, wrap(current))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
