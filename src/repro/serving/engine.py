"""The in-process serving engine: validation + routing through placement.

:class:`ServingEngine` is the API the TCP server wraps and the one tests
and examples use directly.  Since PR 4 it no longer owns a flat shard
dict: a :class:`~repro.serving.placement.Placement` maps each dataset to a
replicated shard (``replicas`` / ``replica_overrides``), chooses the
execution strategy (``executor`` ∈ inline / process; process workers
attach the host's snapshot through shared memory, or get a private copy
where that is unavailable), routes each admitted request to the
least-loaded replica and bounds the per-shard queues (``max_queue``; shed
requests come back as structured ``overloaded`` errors carrying
``retry_after_ms``).

Shards for the configured ``datasets`` are loaded eagerly at
:meth:`ServingEngine.start`; any other *registered* dataset is loaded
lazily on first request (dataset loading runs off the event loop so a cold
shard does not stall in-flight traffic to warm ones).  Unknown names never
reach a shard — they fail validation with a structured
``unknown_dataset`` / ``unknown_algorithm`` error.

Typical in-process use::

    async def main():
        async with ServingEngine(datasets=["karate"], replicas=2) as engine:
            result, cached, coalesced = await engine.query(
                "karate", "kt", [0], k=4
            )
            print(sorted(result.nodes), engine.stats()["totals"])
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from typing import Any, Callable, Optional

from ..datasets import list_datasets
from ..dynamic import DeltaBatch
from ..experiments.registry import list_algorithms
from ..graph import GraphError
from ..obs import Telemetry
from ..obs.log import log_event
from ..obs.metrics import MetricsRegistry
from .placement import Placement
from .protocol import (
    ProtocolError,
    QueryRequest,
    error_payload,
    parse_request,
    result_payload,
)
from .shard import Shard

__all__ = ["ServingEngine"]


class ServingEngine:
    """Validate structured requests and route them through placement."""

    def __init__(
        self,
        datasets: Optional[list[str]] = None,
        *,
        cache_size: int = 1024,
        max_batch: int = 64,
        max_queue: int = 0,
        executor: str = "inline",
        replicas: int = 1,
        replica_overrides: Optional[dict[str, int]] = None,
        index: str = "auto",
        index_dir: Optional[str] = None,
        epochs: bool = False,
        trace_sample: float = 0.0,
        trace_capacity: int = 4096,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        self._known_datasets = set(list_datasets())
        self._known_algorithms = set(list_algorithms())
        preload = tuple(datasets) if datasets else ()
        for name in preload:
            if name not in self._known_datasets:
                raise KeyError(
                    f"unknown dataset {name!r}; available: "
                    f"{', '.join(sorted(self._known_datasets))}"
                )
        self._preload = preload
        # one telemetry bundle per engine: the tracer samples at the front
        # door, the registry folds worker metric deltas, and both ride down
        # through placement into shards, replicas and executors
        self.telemetry = Telemetry(
            trace_sample=trace_sample,
            trace_capacity=trace_capacity,
            slow_query_ms=slow_query_ms,
        )
        self._placement = Placement(
            self._known_datasets,
            cache_size=cache_size,
            max_batch=max_batch,
            max_queue=max_queue,
            replicas=replicas,
            replica_overrides=replica_overrides,
            executor=executor,
            index=index,
            index_dir=index_dir,
            epochs=epochs,
            telemetry=self.telemetry,
        )
        self._started = False
        self._loop = None  # captured at start() for thread-safe preloads
        # cluster mode (repro.cluster): when set, queries for datasets outside
        # the owned set are refused with the structured `not_owner` code; the
        # node agent updates this from coordinator heartbeats (a plain
        # attribute swap, safe to perform from the agent's thread)
        self._owned_datasets: Optional[frozenset[str]] = None
        #: optional callable merged into stats() as the "node" block (the
        #: cluster node agent installs its membership/heartbeat counters here)
        self.node_stats_provider: Optional[Callable[[], dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Load the configured shards and start their replica loops."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        await self._placement.start(self._preload)
        self._started = True

    async def close(self, drain: bool = True) -> None:
        """Close every shard.  With ``drain`` (the default) in-flight
        batches finish and their clients get real results; queued-but-
        unstarted requests fail with structured errors either way."""
        await self._placement.close(drain=drain)
        self._started = False

    async def __aenter__(self) -> "ServingEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> tuple[Any, bool, bool]:
        """Resolve a validated request; returns ``(result, cached, coalesced)``.

        In cluster mode a query for a dataset this node does not own fails
        with ``not_owner`` *before* any shard is (lazily) loaded — owning a
        dataset is what justifies paying for its snapshot.  A dataset that
        is not registered at all is not an ownership problem: it falls
        through to placement's ``unknown_dataset`` error, which a client
        cannot fix by refetching any routing table.
        """
        self._check_owner(request.dataset)
        return await self._placement.submit(request)

    async def submit_traced(
        self, request: QueryRequest
    ) -> tuple[Any, bool, bool, Optional[int]]:
        """Like :meth:`submit`, plus the epoch the result was computed on
        (``None`` unless the engine runs with epochal snapshots)."""
        self._check_owner(request.dataset)
        return await self._placement.submit_traced(request)

    def _check_owner(self, dataset: str) -> None:
        owned = self._owned_datasets
        if (
            owned is not None
            and dataset not in owned
            and dataset in self._known_datasets
        ):
            raise ProtocolError(
                "not_owner",
                f"this node does not own dataset {dataset!r}; "
                f"refetch the routing table from the coordinator",
            )

    async def mutate(
        self, dataset: str, batch: DeltaBatch, trace=None
    ) -> dict[str, Any]:
        """Apply a delta batch to ``dataset``, publishing the next epoch.

        Cluster-gated like :meth:`submit`: a node must own a dataset to
        mutate it.  Requires the engine to run with ``epochs=True``
        (``bad_request`` otherwise); a semantically invalid op — removing
        an absent edge, say — fails with ``bad_query`` and the published
        state is untouched.  ``trace`` is the sampled observability
        context; when present the epoch manager spans prepare/commit and
        the index repair under it.
        """
        if dataset not in self._known_datasets:
            raise ProtocolError(
                "unknown_dataset",
                f"unknown dataset {dataset!r}; available: "
                f"{', '.join(sorted(self._known_datasets))}",
            )
        self._check_owner(dataset)
        try:
            return await self._placement.apply_delta(dataset, batch, trace=trace)
        except GraphError as exc:
            # a well-formed request the graph rejects (removing an absent
            # edge, a stale required index): same class as a query for an
            # absent node
            raise ProtocolError("bad_query", str(exc)) from None
        except ValueError as exc:
            raise ProtocolError("bad_request", str(exc)) from None

    def dataset_epochs(self) -> dict[str, int]:
        """Current epoch per epochal shard (empty without ``epochs=True``)."""
        return self._placement.dataset_epochs()

    async def query(
        self, dataset: str, algorithm: str, nodes, **params
    ) -> tuple[Any, bool, bool]:
        """Convenience wrapper: build, validate and submit one request."""
        request = parse_request(
            {
                "dataset": dataset,
                "algorithm": algorithm,
                "nodes": list(nodes),
                "params": params,
            },
            self._known_datasets,
            self._known_algorithms,
        )
        return await self.submit(request)

    async def handle(self, payload: Any) -> dict[str, Any]:
        """Serve one decoded wire payload; never raises, always a response.

        This is the single entry point the TCP server uses: validation
        failures and execution failures alike come back as structured
        ``{"ok": false, "error": ...}`` payloads.

        Queries and mutations are sampled for tracing here, at the front
        door: a sampled request carries its context down every hop and
        returns ``trace_id`` on the wire, and the engine emits the root
        span around the whole dispatch.  Unsampled requests take exactly
        the pre-observability path (and byte-identical responses).
        """
        request_id = payload.get("id") if isinstance(payload, dict) else None
        tracer = self.telemetry.tracer
        ctx = None
        root_name = "request"
        wall_started: Optional[float] = None
        try:
            op = payload.get("op", "query") if isinstance(payload, dict) else None
            if op == "ping":
                return {"ok": True, "op": "ping", **_with_id(request_id)}
            if op == "stats":
                return {"ok": True, "op": "stats", **self.stats(), **_with_id(request_id)}
            if op == "trace":
                trace_id = payload.get("trace_id")
                if trace_id is not None and not isinstance(trace_id, str):
                    raise ProtocolError("bad_request", "'trace_id' must be a string")
                if trace_id is not None:
                    return {
                        "ok": True,
                        "op": "trace",
                        "trace_id": trace_id,
                        "spans": tracer.spans(trace_id),
                        **_with_id(request_id),
                    }
                return {
                    "ok": True,
                    "op": "trace",
                    "traces": tracer.recent(),
                    **_with_id(request_id),
                }
            if op == "metrics":
                return {
                    "ok": True,
                    "op": "metrics",
                    "text": self.metrics_text(),
                    **_with_id(request_id),
                }
            if op == "shutdown":
                # acknowledged here for protocol completeness; stopping the
                # transport is the owner's job (QueryServer intercepts this
                # op before handle() and closes the listener itself)
                return {"ok": True, "op": "shutdown", **_with_id(request_id)}
            if op == "query":
                request = parse_request(
                    payload, self._known_datasets, self._known_algorithms
                )
                ctx = tracer.sample_request()
                if ctx is not None:
                    request = dataclasses.replace(request, trace=ctx)
                    wall_started = time.time()
                started = time.perf_counter()
                result, cached, coalesced, epoch = await self.submit_traced(request)
                served = time.perf_counter() - started
                if ctx is not None:
                    tracer.emit_root(
                        ctx,
                        "request",
                        wall_started,
                        wall_started + served,
                        dataset=request.dataset,
                        algorithm=request.algorithm,
                        cached=cached,
                        coalesced=coalesced,
                    )
                slow_ms = self.telemetry.slow_query_ms
                if slow_ms is not None and served * 1000.0 >= slow_ms:
                    log_event(
                        "slow_query",
                        level=logging.WARNING,
                        dataset=request.dataset,
                        algorithm=request.algorithm,
                        served_ms=round(served * 1000.0, 3),
                        cached=cached,
                        coalesced=coalesced,
                        trace_id=ctx.trace_id if ctx is not None else None,
                    )
                return result_payload(
                    request,
                    result,
                    cached=cached,
                    coalesced=coalesced,
                    served_seconds=served,
                    request_id=request_id,
                    epoch=epoch,
                    trace_id=ctx.trace_id if ctx is not None else None,
                )
            if op == "mutate":
                root_name = "mutate"
                dataset = payload.get("dataset")
                if not isinstance(dataset, str) or not dataset:
                    raise ProtocolError("bad_request", "request needs a 'dataset' string")
                try:
                    batch = DeltaBatch.from_wire(payload.get("ops"))
                except ValueError as exc:
                    raise ProtocolError("bad_request", str(exc)) from None
                ctx = tracer.sample_request()
                if ctx is not None:
                    wall_started = time.time()
                applied = await self.mutate(dataset, batch, trace=ctx)
                response = {
                    "ok": True,
                    "op": "mutate",
                    "dataset": dataset,
                    **applied,
                    **_with_id(request_id),
                }
                if ctx is not None:
                    tracer.emit_root(
                        ctx,
                        "mutate",
                        wall_started,
                        time.time(),
                        dataset=dataset,
                        epoch=applied.get("epoch"),
                    )
                    response["trace_id"] = ctx.trace_id
                return response
            raise ProtocolError("bad_request", f"unknown operation {op!r}")
        except ProtocolError as exc:
            trace_id = ctx.trace_id if ctx is not None else None
            if ctx is not None and wall_started is not None:
                tracer.emit_root(
                    ctx, root_name, wall_started, time.time(), error=exc.code
                )
            log_event(
                "request_error",
                level=logging.WARNING,
                code=exc.code,
                message=exc.message,
                trace_id=trace_id,
            )
            return error_payload(exc, request_id, trace_id=trace_id)
        except Exception as exc:  # noqa: BLE001 - the server must stay up
            trace_id = ctx.trace_id if ctx is not None else None
            if ctx is not None and wall_started is not None:
                tracer.emit_root(
                    ctx, root_name, wall_started, time.time(), error="internal_error"
                )
            log_event(
                "internal_error",
                level=logging.ERROR,
                error=f"{type(exc).__name__}: {exc}",
                trace_id=trace_id,
            )
            return error_payload(
                ProtocolError("internal_error", f"{type(exc).__name__}: {exc}"),
                request_id,
                trace_id=trace_id,
            )

    # ------------------------------------------------------------------
    # cluster membership
    # ------------------------------------------------------------------
    def set_owned_datasets(self, names: Optional[Any]) -> None:
        """Restrict serving to ``names`` (cluster mode); ``None`` lifts it.

        Called by the cluster node agent whenever the coordinator's routing
        table changes this node's assignment.  An *empty* set is meaningful:
        a node that has joined but holds no assignment yet answers every
        query with ``not_owner`` instead of loading shards it does not own.
        """
        self._owned_datasets = None if names is None else frozenset(names)

    def request_preload(self, names) -> None:
        """Warm shards for ``names`` from any thread (fire-and-forget).

        The cluster node agent calls this when the coordinator assigns
        datasets to this node: building each shard *now* — dataset load,
        freeze, and the community-index load — means a failover target is
        already warm when the first rerouted query lands, instead of
        re-deriving decompositions on the request path.  Unknown names and
        shard-build failures are ignored here; they surface through the
        normal query path with structured errors.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        async def _warm(name: str) -> None:
            try:
                await self._placement.get_shard(name)
            except Exception:  # noqa: BLE001 - preloading is best-effort
                pass

        for name in names:
            if name in self._known_datasets:
                asyncio.run_coroutine_threadsafe(_warm(name), loop)

    @property
    def owned_datasets(self) -> Optional[frozenset[str]]:
        """The datasets this node currently owns (None = not in a cluster)."""
        return self._owned_datasets

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def placement(self) -> Placement:
        """The placement layer (replica config, routing, shard map)."""
        return self._placement

    @property
    def shards(self) -> dict[str, Shard]:
        """The live shards keyed by dataset name (read-only use)."""
        return self._placement.shards

    def stats(self) -> dict[str, Any]:
        """Aggregate + per-shard (+ per-replica) statistics, JSON-safe.

        In cluster mode a ``node`` block is merged in: this node's identity,
        owned datasets and membership counters, provided by the node agent.
        """
        stats = self._placement.stats()
        provider = self.node_stats_provider
        if provider is not None:
            stats["node"] = provider()
        elif self._owned_datasets is not None:
            stats["node"] = {"owned": sorted(self._owned_datasets)}
        if self.telemetry.tracer.enabled:
            # conditional on purpose: with tracing off the stats payload is
            # byte-identical to a pre-observability server
            stats["obs"] = {
                "trace_sample": self.telemetry.tracer.sample,
                "spans": len(self.telemetry.tracer),
                "slow_query_ms": self.telemetry.slow_query_ms,
            }
        return stats

    def metrics_text(self) -> str:
        """Every metric as Prometheus text exposition (the ``metrics`` op).

        Scraped on demand: a fresh registry snapshot is assembled from the
        live shard counters and histograms (the same objects the ``stats``
        blocks read, so the two surfaces can never disagree), then the
        engine registry — where worker processes' shipped deltas
        accumulate — is merged in.
        """
        snapshot = MetricsRegistry()
        for name, shard in sorted(self._placement.shards.items()):
            labels = {"dataset": name}
            snapshot.counter("repro_queries_total", **labels).inc(shard.queries)
            snapshot.counter("repro_cache_hits_total", **labels).inc(shard.cache_hits)
            snapshot.counter("repro_cache_misses_total", **labels).inc(shard.cache_misses)
            snapshot.counter("repro_coalesced_total", **labels).inc(shard.coalesced)
            snapshot.counter("repro_errors_total", **labels).inc(shard.errors)
            snapshot.counter("repro_shed_total", **labels).inc(shard.shed)
            snapshot.counter("repro_retried_total", **labels).inc(shard.retried)
            snapshot.gauge("repro_queue_depth", **labels).set(
                shard.replica_set.total_queued()
            )
            snapshot.gauge("repro_cache_entries", **labels).set(len(shard._cache))
            snapshot.histogram("repro_request_latency_ms", **labels).merge(
                shard.latency_hist
            )
            snapshot.histogram("repro_execution_latency_ms", **labels).merge(
                shard.execution_hist
            )
        for name, epoch in self._placement.dataset_epochs().items():
            snapshot.gauge("repro_epoch", dataset=name).set(epoch)
        snapshot.merge(self.telemetry.registry)
        return snapshot.exposition()

    def health_summary(self) -> dict[str, Any]:
        """Compact per-dataset metrics for the cluster health plane.

        JSON-safe and deliberately tiny — it piggybacks on every node
        heartbeat.  The latency histogram rides along in wire form so the
        coordinator can *merge* histograms across nodes and answer cluster
        p99 questions without ever seeing a raw sample.
        """
        return {
            name: {
                "queries": shard.queries,
                "errors": shard.errors,
                "shed": shard.shed,
                "latency": shard.latency_hist.to_wire(),
            }
            for name, shard in sorted(self._placement.shards.items())
        }


def _with_id(request_id: Any) -> dict[str, Any]:
    return {} if request_id is None else {"id": request_id}
