"""Mergeable metrics: counters, gauges and fixed-bucket histograms.

The serving tier's hot paths must never sort a sample window to answer a
percentile question (PR 9's ``Shard`` copied and sorted its execution-
latency deque on *every* shed decision).  The :class:`Histogram` here is
the replacement: a fixed exponential bucket layout in milliseconds,
O(1) ``record`` (a bisect over ~17 static bounds), nearest-rank
percentiles read off the cumulative bucket counts, and an exact tracked
``max``.  Because the bucket layout is fixed, two histograms **merge** by
adding their count arrays — which is what lets worker processes ship
per-batch deltas back over the pipe, lets the engine fold them into one
registry, and lets the cluster coordinator aggregate a true cross-node
p99 from heartbeat summaries instead of re-sorting raw samples.

Everything here is picklable (worker pipes) and JSON-safe via
``to_wire`` / ``from_wire`` (heartbeats), with no dependencies outside
the standard library.

:class:`MetricsRegistry` keys metrics by ``(name, sorted labels)`` and
renders the whole family as Prometheus text exposition format — the
payload of the serving tier's ``metrics`` wire op.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable, Optional

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default bucket upper bounds in milliseconds: exponential from 50µs to
#: 10s (~2-2.5x resolution), plus an implicit overflow bucket.  Chosen to
#: straddle the serving tier's realistic range — cache hits land in the
#: sub-millisecond buckets, cold truss decompositions in the seconds.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value (queue depth, live nodes, ...)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-bucket latency histogram: O(1) record, mergeable, picklable.

    ``record`` takes a value in the unit the bounds are declared in
    (milliseconds by default) and lands it in the first bucket whose
    upper bound contains it; values past the last bound go to the
    overflow bucket.  ``percentile`` is nearest-rank over the cumulative
    bucket counts and answers with the containing bucket's **upper
    bound** (the overflow bucket answers with the exact tracked max), so
    a histogram percentile is always >= the exact sample percentile and
    within one bucket of it — the "within bucket resolution" contract
    the retry-after tests pin down.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "max")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must increase strictly, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the overflow bucket
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        """Record one observation (O(log buckets) ~= O(1); no sorting)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile, answered at bucket resolution.

        Returns 0.0 for an empty histogram; the overflow bucket answers
        with the exact max.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * fraction))
        cumulative = 0
        for bucket, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if bucket < len(self.bounds):
                    return self.bounds[bucket]
                return self.max
        return self.max  # unreachable: cumulative ends at self.count

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (bounds must match)."""
        if tuple(other.bounds) != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bucket bounds: "
                f"{self.bounds} vs {tuple(other.bounds)}"
            )
        for bucket, bucket_count in enumerate(other.counts):
            self.counts[bucket] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        return self

    def copy(self) -> "Histogram":
        clone = Histogram(self.bounds)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.sum = self.sum
        clone.max = self.max
        return clone

    # -- wire form (JSON-safe, rides on cluster heartbeats) ----------------
    def to_wire(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "Histogram":
        if not isinstance(wire, dict):
            raise ValueError(f"histogram wire form must be an object, got {wire!r}")
        histogram = cls(wire["bounds"])
        counts = wire["counts"]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"histogram wire form carries {len(counts)} buckets, "
                f"expected {len(histogram.counts)}"
            )
        histogram.counts = [int(c) for c in counts]
        histogram.count = int(wire["count"])
        histogram.sum = float(wire["sum"])
        histogram.max = float(wire["max"])
        return histogram

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, max={self.max})"


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """Counters/gauges/histograms keyed by ``(name, sorted labels)``.

    The registry is the *mergeable* unit: worker processes keep a tiny
    local registry per batch and ship its wire form back with the batch
    reply; the parent folds it in with :meth:`merge_wire`.  Merging is
    associative and commutative (counters/histograms add, gauges take
    the incoming value), which is what makes the fold order-independent
    across replicas and nodes.  A lock guards the structural operations
    (get-or-create, merge); individual ``inc``/``record`` calls are
    plain attribute arithmetic on the metric objects.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- get-or-create ------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter())
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge())
        return gauge

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None, **labels: Any
    ) -> Histogram:
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    key, Histogram(bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS_MS)
                )
        return histogram

    # -- merging ------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in (counters/histograms add, gauges set)."""
        with self._lock:
            for (name, labels), counter in other._counters.items():
                mine = self._counters.setdefault((name, labels), Counter())
                mine.value += counter.value
            for (name, labels), gauge in other._gauges.items():
                self._gauges.setdefault((name, labels), Gauge()).value = gauge.value
            for (name, labels), histogram in other._histograms.items():
                mine_hist = self._histograms.get((name, labels))
                if mine_hist is None:
                    self._histograms[(name, labels)] = histogram.copy()
                else:
                    mine_hist.merge(histogram)
        return self

    def to_wire(self) -> dict[str, Any]:
        """A JSON-safe, picklable snapshot suitable for ``merge_wire``."""
        return {
            "counters": [
                [name, [list(pair) for pair in labels], counter.value]
                for (name, labels), counter in self._counters.items()
            ],
            "gauges": [
                [name, [list(pair) for pair in labels], gauge.value]
                for (name, labels), gauge in self._gauges.items()
            ],
            "histograms": [
                [name, [list(pair) for pair in labels], histogram.to_wire()]
                for (name, labels), histogram in self._histograms.items()
            ],
        }

    def merge_wire(self, wire: Any) -> "MetricsRegistry":
        """Fold a ``to_wire`` snapshot in (the worker-delta path)."""
        if not isinstance(wire, dict):
            return self
        with self._lock:
            for name, labels, value in wire.get("counters", ()):
                key = (name, tuple(tuple(pair) for pair in labels))
                self._counters.setdefault(key, Counter()).value += value
            for name, labels, value in wire.get("gauges", ()):
                key = (name, tuple(tuple(pair) for pair in labels))
                self._gauges.setdefault(key, Gauge()).value = value
            for name, labels, hist_wire in wire.get("histograms", ()):
                key = (name, tuple(tuple(pair) for pair in labels))
                incoming = Histogram.from_wire(hist_wire)
                mine = self._histograms.get(key)
                if mine is None:
                    self._histograms[key] = incoming
                else:
                    mine.merge(incoming)
        return self

    # -- exposition -----------------------------------------------------------
    def exposition(self) -> str:
        """Render every metric as Prometheus text exposition format."""
        lines: list[str] = []

        def label_text(labels: tuple, extra: str = "") -> str:
            parts = [f'{k}="{_escape_label(v)}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{name}{label_text(labels)} {_format_value(counter.value)}")
        for (name, labels), gauge in sorted(self._gauges.items()):
            type_line(name, "gauge")
            lines.append(f"{name}{label_text(labels)} {_format_value(gauge.value)}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            type_line(name, "histogram")
            cumulative = 0
            for bound, bucket_count in zip(histogram.bounds, histogram.counts):
                cumulative += bucket_count
                le = 'le="' + _format_value(bound) + '"'
                lines.append(f"{name}_bucket{label_text(labels, le)} {cumulative}")
            inf = 'le="+Inf"'
            lines.append(f"{name}_bucket{label_text(labels, inf)} {histogram.count}")
            lines.append(f"{name}_sum{label_text(labels)} {_format_value(histogram.sum)}")
            lines.append(f"{name}_count{label_text(labels)} {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""
