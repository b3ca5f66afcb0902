"""One serving shard: admission, coalescing and caching for a dataset.

Since PR 4 the shard no longer executes anything itself — execution lives
in the :mod:`~repro.serving.executor` layer, replication and micro-batch
loops in :mod:`~repro.serving.placement`.  What remains here is the pure
request-lifecycle logic every replica strategy shares:

* the **frozen snapshot** — the dataset graph is frozen exactly once and
  shared by every inline replica, so the per-snapshot memo cache
  (k-core structures, the full truss decomposition, per-``k`` truss
  components, kecc partitions, ...) amortises across *requests* the same
  way ``evaluate_batch`` amortises it across a sweep (worker-process
  replicas attach it, or load a private copy, with a private memo cache);
* an **LRU result cache** keyed by ``(epoch, request identity)`` — repeated
  queries are answered without touching any replica, and a republished
  snapshot (see :mod:`repro.dynamic`) can never serve a result computed
  against a prior graph: the epoch is part of the key and superseded
  entries are purged on swap;
* an **in-flight map** that coalesces duplicate requests: a request that
  arrives while an identical one is queued or executing awaits the same
  future instead of being executed twice (retries coalesce with their
  original, because ``attempt`` is excluded from the cache key) — keyed by
  epoch too, so a request admitted after a snapshot swap never joins a
  stale computation;
* **admission control** — a bounded queue across the replica set
  (``max_queue``; 0 disables the bound).  A request that finds the queue
  full is *shed* with the closed protocol code ``overloaded`` and a
  ``retry_after_ms`` estimate derived from the shard's recent latency, so
  a well-behaved client backs off instead of piling on;
* **per-shard statistics**: hits, misses, coalesced requests, shed and
  retried counts, queue-depth high-water marks, end-to-end latency
  percentiles, and the per-replica breakdown.

Closing a shard **drains**: the in-flight batch on each replica finishes
(its clients get real results), queued-but-unstarted requests fail with
structured errors, and executors (threads, worker processes) shut
down cleanly.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Optional

from ..datasets import Dataset
from ..graph import FrozenGraph
from ..obs.metrics import Histogram
from .executor import Outcome
from .protocol import ProtocolError, QueryRequest

__all__ = ["Shard"]


class Shard:
    """Queueing, coalescing and LRU caching in front of a replica set."""

    def __init__(
        self,
        dataset: Dataset,
        frozen: FrozenGraph,
        replica_set,
        *,
        key: Optional[str] = None,
        cache_size: int = 1024,
        max_queue: int = 0,
        latency_window: int = 4096,
        epoch: Optional[int] = None,
        telemetry=None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0 (0 = unbounded), got {max_queue}")
        self.dataset = dataset
        self.key = key if key is not None else dataset.name
        self.frozen = frozen
        self.replica_set = replica_set
        self.cache_size = cache_size
        self.max_queue = max_queue
        # the snapshot epoch this shard currently serves; None = the dataset
        # is static (no --epochs), which also keeps "epoch" off the wire
        self.epoch = epoch
        self._cache: OrderedDict[tuple, Any] = OrderedDict()
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._started = False
        self._closed = False
        # statistics
        self.queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0
        self.errors = 0
        self.shed = 0
        self.retried = 0
        self.max_queue_depth = 0
        self.swaps = 0
        self.purged_entries = 0
        self.stale_rejections = 0
        # PR 10: latency lives in O(1) fixed-bucket histograms instead of
        # sample deques — recording is a bisect over static bounds, and the
        # percentile reads for stats() and _retry_after_ms() walk cumulative
        # bucket counts instead of copying + sorting up to 4096 floats.
        # (``latency_window`` is retained in the signature for callers that
        # still pass it; a histogram has no window to size.)
        self.latency_hist = Histogram()
        # execution-only latencies (no cache hits / coalesced waits): the
        # retry_after_ms estimate must reflect what draining the queue
        # actually costs, which ~0ms cache hits would wash out
        self.execution_hist = Histogram()
        self._telemetry = telemetry
        replica_set.bind(self._complete, epoch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start every replica's executor and batch loop."""
        if self._started:
            return
        await self.replica_set.start()
        self._started = True
        self._closed = False

    async def close(self, drain: bool = True) -> None:
        """Stop the replica set; with ``drain`` the in-flight batches finish
        (their clients get real results) while queued-but-unstarted requests
        fail with structured errors."""
        self._closed = True
        await self.replica_set.close(drain=drain)
        self._started = False

    async def swap(self, published, *, epoch: int, trace=None) -> None:
        """Atomically republish this shard under a new snapshot epoch.

        The pointer swap, the purge of superseded cache/in-flight entries
        and an epoch barrier on every replica queue happen with no awaits
        in between, so from the event loop's point of view the shard moves
        between micro-batches: every request admitted before this call is
        queued ahead of the barrier and resolves against the old snapshot
        (and reports the old epoch), every request admitted after it runs
        against the new one.  The replicas, their loops and their worker
        processes stay; each rebinds its executor at the barrier.  The call
        returns once every replica has rebound and the superseded shared
        segments are unlinked.  ``trace`` parents the ``epoch.swap`` and
        ``epoch.rebind`` spans.
        """
        if self.epoch is None:
            raise ValueError(f"shard {self.key!r} was built without epochs")
        if epoch <= self.epoch:
            raise ValueError(
                f"epoch must advance monotonically: shard {self.key!r} serves "
                f"{self.epoch}, got {epoch}"
            )
        started = time.time()
        # -- no awaits in this block: the swap is atomic between batches --
        self.frozen = published.frozen
        self.epoch = epoch
        stale_cached = [key for key in self._cache if key[0] != epoch]
        for key in stale_cached:
            del self._cache[key]
        stale_inflight = [key for key in self._inflight if key[0] != epoch]
        for key in stale_inflight:
            # the old epoch's computations still resolve for their waiters;
            # unlinking them just makes them unjoinable by new requests
            # (which could never hit these keys anyway — the epoch differs)
            del self._inflight[key]
        self.purged_entries += len(stale_cached) + len(stale_inflight)
        self.swaps += 1
        rebound = self.replica_set.publish(published, epoch, trace)
        # -- end of the atomic block --
        if trace is not None and self._telemetry is not None:
            self._telemetry.tracer.emit(
                trace, "epoch.swap", started, time.time(), dataset=self.key, epoch=epoch
            )
        await rebound

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> tuple[Any, bool, bool]:
        """Resolve one request; returns ``(result, cached, coalesced)``.

        Raises :class:`ProtocolError` for structured failures (bad query
        node, unsupported parameter, an overloaded queue, shutdown).
        """
        result, cached, coalesced, _ = await self.submit_traced(request)
        return result, cached, coalesced

    async def submit_traced(self, request: QueryRequest) -> tuple[Any, bool, bool, Optional[int]]:
        """Like :meth:`submit`, plus the epoch the result was computed
        against (``None`` when the shard is static).  The epoch is captured
        at admission — a snapshot swap while the request executes does not
        relabel it, because the result really was computed on the epoch
        that was current when the request entered the shard."""
        arrival = time.perf_counter()
        self.queries += 1
        if request.attempt:
            self.retried += 1
        epoch = self.epoch
        if request.min_epoch is not None and request.min_epoch > (epoch or 0):
            # refuse before the cache: a staleness-bounded read must never
            # be answered from a snapshot older than its bound
            self.stale_rejections += 1
            self._admission_span(request, arrival, "stale_epoch")
            raise ProtocolError(
                "stale_epoch",
                f"shard {self.key!r} serves epoch {epoch or 0} but the request "
                f"requires min_epoch {request.min_epoch}",
            )
        key = (epoch, request.cache_key)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            self.latency_hist.record((time.perf_counter() - arrival) * 1000.0)
            self._admission_span(request, arrival, "hit")
            return hit, True, False, epoch
        self.cache_misses += 1

        pending = self._inflight.get(key)
        if pending is not None:
            self.coalesced += 1
            self._admission_span(request, arrival, "coalesced")
            result = await asyncio.shield(pending)
            self.latency_hist.record((time.perf_counter() - arrival) * 1000.0)
            return result, False, True, epoch

        if self._closed or not self._started:
            # no replica loops to drain the queues: enqueueing would hang
            raise ProtocolError("internal_error", "shard is closed")

        # admission control: bound the queued-but-unstarted work across the
        # replica set; beyond the bound the request is shed, not queued
        queued = self.replica_set.total_queued()
        if self.max_queue and queued >= self.max_queue:
            self.shed += 1
            retry_after = self._retry_after_ms()
            self._admission_span(request, arrival, "shed", retry_after_ms=retry_after)
            raise ProtocolError(
                "overloaded",
                f"shard {self.key!r} queue is full "
                f"({queued} queued, bound {self.max_queue}); retry later",
                retry_after_ms=retry_after,
            )

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._admission_span(request, arrival, "miss", queued=queued)
        self.replica_set.route().enqueue(request, future)
        depth = queued + 1
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        result = await asyncio.shield(future)
        elapsed_ms = (time.perf_counter() - arrival) * 1000.0
        self.latency_hist.record(elapsed_ms)
        self.execution_hist.record(elapsed_ms)
        return result, False, False, epoch

    def _admission_span(self, request: QueryRequest, arrival: float, disposition: str, **tags) -> None:
        """Emit the shard's cache/admission span for a traced request.

        Covers the LRU/coalesce/shed decision: the span's ``disposition``
        tag says how the request left admission (hit, coalesced, miss,
        shed, stale_epoch).  Wall-clock endpoints are reconstructed from
        the monotonic arrival stamp so they compare cleanly with spans
        emitted in worker processes.  Free when the request is unsampled.
        """
        if request.trace is None or self._telemetry is None:
            return
        end = time.time()
        start = end - (time.perf_counter() - arrival)
        self._telemetry.tracer.emit(
            request.trace, "shard.admit", start, end,
            dataset=self.key, disposition=disposition, **tags,
        )

    def _retry_after_ms(self) -> int:
        """Estimate when a shed client should retry, from recent latency.

        Half the backlog's expected drain time (p50 *execution* latency ×
        queued work ÷ replicas): long enough that an immediate re-poll is
        pointless, short enough that capacity is not left idle.  Clamped to
        [5 ms, 1000 ms]; with no execution history yet, a flat 25 ms.

        The p50 is read from the O(1) execution histogram (one walk over
        ~18 cumulative bucket counts) instead of copying and sorting the
        sample window on every shed decision; the derivation formula is
        unchanged, so the estimate agrees with the old sorted-deque one
        to within bucket resolution.
        """
        if self.execution_hist.count == 0:
            return 25
        p50_ms = self.execution_hist.percentile(0.50)
        backlog = max(1, self.replica_set.total_pending()) / max(1, len(self.replica_set))
        return int(min(1000.0, max(5.0, p50_ms * backlog / 2.0)))

    def _complete(
        self,
        epoch: Optional[int],
        request: QueryRequest,
        future: asyncio.Future,
        outcome: Outcome,
    ) -> None:
        """Replica callback: resolve one request's future and bookkeeping.

        ``epoch`` is the epoch the replica's executor served when it ran
        the request, so completions arriving after a swap key — and guard
        — against the epoch they were computed on.
        """
        key = (epoch, request.cache_key)
        if isinstance(outcome, ProtocolError):
            self.errors += 1
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(outcome)
        else:
            # store before unlinking from _inflight so a same-key request
            # arriving in between sees the cache, not a miss
            self._store(key, outcome)
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(outcome)

    def _store(self, key: tuple, result: Any) -> None:
        if self.cache_size == 0:
            return
        if key[0] != self.epoch:
            # a pre-swap computation finished after the swap: its waiters
            # get the (correctly epoch-labelled) result, but it must not
            # resurrect a superseded epoch in the cache
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _index_stats(self) -> dict[str, Any]:
        """The shard's index tier: effective mode, hit count, what it serves,
        and the fallback reason when the tier is degraded (e.g. a missing
        or stale index file under ``--index auto``)."""
        published = self.replica_set.published
        info: dict[str, Any] = {
            "effective": "indexed" if published.index is not None else "executed",
            "hits": self.replica_set.index_hits(),
        }
        if published.index_algorithms:
            info["algorithms"] = list(published.index_algorithms)
        if published.index_reason is not None:
            info["reason"] = published.index_reason
        return info

    def stats(self) -> dict[str, Any]:
        """Return a JSON-serialisable snapshot of the shard counters."""
        replicas = self.replica_set.stats()
        epoch_block = (
            {
                "epoch": {
                    "current": self.epoch,
                    "swaps": self.swaps,
                    "purged_entries": self.purged_entries,
                    "stale_rejections": self.stale_rejections,
                }
            }
            if self.epoch is not None
            else {}
        )
        return {
            **epoch_block,
            "dataset": self.key,
            "nodes": self.frozen.number_of_nodes(),
            "edges": self.frozen.number_of_edges(),
            "executor": self.replica_set.executor_kind,
            "snapshot": self.replica_set.published.snapshot_mode,
            "index": self._index_stats(),
            "replica_count": len(self.replica_set),
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "coalesced": self.coalesced,
            "batches": sum(replica["batches"] for replica in replicas),
            "executed": sum(replica["executed"] for replica in replicas),
            "errors": self.errors,
            "shed": self.shed,
            "retried": self.retried,
            "max_queue": self.max_queue,
            "queue_depth": self.replica_set.total_queued(),
            "max_queue_depth": self.max_queue_depth,
            "max_batch_size": max(
                (replica["max_batch_size"] for replica in replicas), default=0
            ),
            "cache_entries": len(self._cache),
            "replicas": replicas,
            # same keys as the pre-PR-10 deque block, now read from the
            # histogram: p50/p95 are bucket-resolution, max stays exact
            "latency_ms": {
                "count": self.latency_hist.count,
                "p50": round(self.latency_hist.percentile(0.50), 3),
                "p95": round(self.latency_hist.percentile(0.95), 3),
                "max": round(self.latency_hist.max, 3),
            },
        }
