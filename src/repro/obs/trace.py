"""Request tracing: sampled trace contexts and a bounded span ring.

A :class:`TraceContext` is deliberately just a named tuple of two hex
ids ``(trace_id, span_id)``: it pickles across the worker-process pipe,
serialises to JSON on the wire, hashes (so a traced
:class:`~repro.serving.protocol.QueryRequest` stays hashable), and
costs nothing to carry.  Sampling happens exactly once, at the server's
front door: :meth:`Tracer.sample_request` returns ``None`` for
unsampled requests — and for a tracer with ``sample <= 0`` (the
default) that answer is a single float compare, so tracing that is off
allocates nothing on the hot path.

Spans are plain dicts ``{trace, span, parent, name, start, end, ms,
tags}`` with wall-clock endpoints (``time.time()``), which keeps spans
produced inside a worker *process* comparable with the parent's.  They
land in a bounded ``deque`` ring guarded by a lock (spans arrive from
the event loop, executor threads, and folded-in worker batches
concurrently); the ``trace`` wire op reads the ring back out.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Any, NamedTuple, Optional

__all__ = ["TraceContext", "Tracer", "make_span", "new_id"]


def new_id() -> str:
    """A 64-bit random id as 16 lowercase hex chars."""
    return f"{random.getrandbits(64):016x}"


class TraceContext(NamedTuple):
    """The propagated unit: which trace, and which span is the parent."""

    trace_id: str
    span_id: str

    def child(self) -> "TraceContext":
        """A context whose spans will hang off a fresh span id."""
        return TraceContext(self.trace_id, new_id())

    @classmethod
    def from_wire(cls, wire: Any) -> Optional["TraceContext"]:
        if (
            isinstance(wire, (list, tuple))
            and len(wire) == 2
            and all(isinstance(part, str) for part in wire)
        ):
            return cls(wire[0], wire[1])
        return None


def make_span(
    context: TraceContext,
    name: str,
    start: float,
    end: float,
    *,
    parent: Optional[str] = None,
    tags: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Build a span dict *without* recording it anywhere.

    This is what runs inside process workers, which have no tracer:
    they build the span locally and ship it back with the batch reply
    for the parent to fold in via :meth:`Tracer.add`.  By default the
    span becomes a child of ``context.span_id``; pass ``parent``
    explicitly (possibly ``None``) to control the tree shape.
    """
    span = {
        "trace": context.trace_id,
        "span": new_id(),
        "parent": context.span_id if parent is None else parent,
        "name": name,
        "start": start,
        "end": end,
        "ms": round((end - start) * 1000.0, 3),
    }
    if tags:
        span["tags"] = tags
    return span


class Tracer:
    """Sampling decision + bounded in-memory span ring.

    ``sample`` is the probability a request gets a trace; ``capacity``
    bounds the ring (oldest spans fall off).  All mutation goes through
    one lock — span volume is limited by the sample rate, so contention
    is not a concern, but correctness across the event loop and the
    executor threads is.
    """

    def __init__(
        self,
        sample: float = 0.0,
        capacity: int = 4096,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"trace sample must be within [0, 1], got {sample}")
        if capacity < 1:
            raise ValueError(f"trace ring capacity must be positive, got {capacity}")
        self.sample = sample
        self.capacity = capacity
        self._rng = rng if rng is not None else random
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.sample > 0.0

    def sample_request(self) -> Optional[TraceContext]:
        """The per-request sampling decision.

        The disabled path is a single comparison — no allocation, no
        randomness — so a server running with tracing off (the default)
        pays effectively nothing per request.
        """
        sample = self.sample
        if sample <= 0.0:
            return None
        if sample < 1.0 and self._rng.random() >= sample:
            return None
        return TraceContext(new_id(), new_id())

    # -- recording ---------------------------------------------------------
    def emit(
        self,
        context: TraceContext,
        name: str,
        start: float,
        end: float,
        **tags: Any,
    ) -> dict[str, Any]:
        """Record a span as a child of ``context``'s span."""
        span = make_span(context, name, start, end, tags=tags or None)
        with self._lock:
            self._ring.append(span)
        return span

    def emit_as(
        self,
        context: TraceContext,
        own: TraceContext,
        name: str,
        start: float,
        end: float,
        **tags: Any,
    ) -> dict[str, Any]:
        """Record a child of ``context`` that reuses ``own.span_id``.

        For a stage whose sub-stages were emitted against ``own`` while it
        ran: they become this span's children.
        """
        span = make_span(context, name, start, end, tags=tags or None)
        span["span"] = own.span_id
        with self._lock:
            self._ring.append(span)
        return span

    def emit_root(
        self,
        context: TraceContext,
        name: str,
        start: float,
        end: float,
        **tags: Any,
    ) -> dict[str, Any]:
        """Record the trace's root span, reusing ``context.span_id``."""
        span = {
            "trace": context.trace_id,
            "span": context.span_id,
            "parent": None,
            "name": name,
            "start": start,
            "end": end,
            "ms": round((end - start) * 1000.0, 3),
        }
        if tags:
            span["tags"] = tags
        with self._lock:
            self._ring.append(span)
        return span

    def add(self, span: dict[str, Any]) -> None:
        """Fold in a span produced elsewhere (a process worker)."""
        with self._lock:
            self._ring.append(span)

    def add_many(self, spans: Any) -> None:
        if not spans:
            return
        with self._lock:
            for span in spans:
                if isinstance(span, dict):
                    self._ring.append(span)

    # -- reading -----------------------------------------------------------
    def spans(self, trace_id: str) -> list[dict[str, Any]]:
        """Every retained span of one trace, ordered by start time."""
        with self._lock:
            matched = [dict(span) for span in self._ring if span.get("trace") == trace_id]
        matched.sort(key=lambda span: (span.get("start", 0.0), span.get("name", "")))
        return matched

    def recent(self, limit: int = 32) -> list[dict[str, Any]]:
        """Newest distinct traces in the ring, newest first."""
        with self._lock:
            snapshot = list(self._ring)
        traces: dict[str, dict[str, Any]] = {}
        for span in reversed(snapshot):
            trace_id = span.get("trace")
            if trace_id is None:
                continue
            entry = traces.get(trace_id)
            if entry is None:
                if len(traces) >= limit:
                    continue
                entry = traces[trace_id] = {
                    "trace_id": trace_id,
                    "spans": 0,
                    "start": span.get("start", 0.0),
                }
            entry["spans"] += 1
            start = span.get("start", 0.0)
            if start <= entry["start"]:
                entry["start"] = start
            if span.get("parent") is None:
                entry["name"] = span.get("name")
                entry["ms"] = span.get("ms")
        return sorted(traces.values(), key=lambda entry: entry["start"], reverse=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
