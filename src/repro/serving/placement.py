"""Shard placement: dataset → replica set, routed to the least-loaded replica.

PR 3 served every dataset from a single shard executing inside one asyncio
process; this module is the layer that grew out of it.  It owns three
concerns:

* **Replication** — each dataset maps to a :class:`ReplicaSet` of
  ``--replicas N`` independent :class:`Replica` objects (optionally
  overridden per dataset, ``--replicas 2 hotset=4``).  A replica is a
  queue + micro-batch loop in front of one
  :mod:`~repro.serving.executor` executor, so replication composes with
  either execution strategy — N inline threads on the host's snapshot, or
  N dedicated worker processes attaching the host's shared-memory
  snapshot (pickled copies only where shared memory fails).
* **Routing** — each admitted request goes to the replica with the
  smallest queue depth + in-flight batch, the replica index breaking
  ties, so an idle replica always wins over a busy one.
* **The placement map** — :class:`Placement` replaces the engine's flat
  shard dict: it validates the replica/executor configuration up front,
  loads shards lazily off the event loop, and folds per-replica statistics
  into the ``stats`` op.

The shard itself (:mod:`repro.serving.shard`) shrinks to pure
queueing/coalescing/LRU logic in front of the replica set built here.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Callable, Optional

from ..obs.log import log_event

from ..datasets import Dataset, load_dataset
from ..dynamic import DeltaBatch, EpochManager
from ..graph import (
    INDEX_MODES,
    FrozenGraph,
    GraphError,
    freeze,
    index_path,
    load_index,
    save_index,
)
from .executor import (
    EXECUTOR_KINDS,
    InlineExecutor,
    Outcome,
    Published,
    WorkerProcessExecutor,
    as_protocol_error,
)
from .protocol import ProtocolError, QueryRequest
from .shard import Shard

__all__ = [
    "Replica",
    "ReplicaSet",
    "Placement",
    "parse_replica_spec",
]


# ----------------------------------------------------------------------------
# replicas: a queue + micro-batch loop per execution context
# ----------------------------------------------------------------------------

_STOP = object()  # queue sentinel that wakes a draining replica loop


class _Barrier:
    """Queue marker of an epoch hand-off: the replica rebinds its executor
    to ``published`` here, after every request queued before it."""

    __slots__ = ("published", "epoch", "trace", "done")

    def __init__(self, published: Published, epoch: Optional[int], trace, done) -> None:
        self.published = published
        self.epoch = epoch
        self.trace = trace
        self.done: asyncio.Future = done


class Replica:
    """One execution lane of a shard: queue, micro-batch loop, executor.

    The loop mirrors PR 3's per-shard batch loop: it blocks on the queue,
    drains whatever queued up while the previous batch ran (micro-batching,
    bounded by ``max_batch``), hands the batch to the executor off the
    event loop, and reports every outcome through the shard-owned
    ``on_complete`` callback, tagged with the epoch the batch ran on.  An
    epoch barrier ends a micro-batch the way the stop sentinel does; the
    loop then rebinds the executor to the new snapshot, so the queue's
    FIFO order alone decides which epoch a request runs on.  On drain it
    finishes the in-flight batch and stops pulling new ones — requests
    still queued get structured errors.
    """

    def __init__(
        self, index: int, executor, *, key: str, max_batch: int, telemetry=None
    ) -> None:
        self.index = index
        self.executor = executor
        self.key = key
        self.max_batch = max_batch
        self._telemetry = telemetry
        self._queue: asyncio.Queue = asyncio.Queue()
        # a stop sentinel or barrier that ended a micro-batch, run next
        self._held = None
        self._queued = 0  # requests in the queue (markers excluded)
        self._task: Optional[asyncio.Task] = None
        self._on_complete: Optional[Callable] = None
        self._draining = False
        self.epoch: Optional[int] = None  # the epoch the executor serves
        self.inflight = 0  # requests in the batch currently executing
        # statistics
        self.batches = 0
        self.executed = 0
        self.errors = 0
        self.max_batch_size = 0
        self.max_queued = 0

    # -- wiring ------------------------------------------------------------
    def bind(self, on_complete: Callable, epoch: Optional[int]) -> None:
        """Attach the shard's completion callback (cache/inflight/futures)."""
        self._on_complete = on_complete
        self.epoch = epoch

    async def start(self) -> None:
        if self._task is not None:
            return
        await self.executor.start()
        self._task = asyncio.create_task(
            self._loop(), name=f"replica:{self.key}#{self.index}"
        )

    # -- the data path -----------------------------------------------------
    def qsize(self) -> int:
        """Requests queued on this replica, excluding the executing batch."""
        return self._queued

    @property
    def load(self) -> int:
        """Routing load: queued requests plus the in-flight batch."""
        return self._queued + self.inflight

    def enqueue(self, request: QueryRequest, future: asyncio.Future) -> None:
        # the monotonic enqueue stamp feeds the queue-wait span of traced
        # requests (and is one cheap perf_counter read either way)
        self._queue.put_nowait((request, future, time.perf_counter()))
        self._queued += 1
        if self._queued > self.max_queued:
            self.max_queued = self._queued

    def post_barrier(
        self, published: Published, epoch: Optional[int], trace=None
    ) -> asyncio.Future:
        """Queue the hand-off to ``published`` behind every queued request.

        Returns a future that resolves once the executor serves it (at
        once when the loop is not running: nothing will read the queue).
        """
        done = asyncio.get_running_loop().create_future()
        if self._task is None or self._draining:
            done.set_result(None)
        else:
            self._queue.put_nowait(_Barrier(published, epoch, trace, done))
        return done

    async def _next(self):
        held, self._held = self._held, None
        return held if held is not None else await self._queue.get()

    async def _loop(self) -> None:
        while True:
            item = await self._next()
            if item is _STOP:
                break
            if isinstance(item, _Barrier):
                await self._rebind(item)
                continue
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if not isinstance(extra, tuple):  # a stop or a barrier
                    self._held = extra  # ends this batch, runs right after it
                    break
                batch.append(extra)
            self._queued -= len(batch)
            self.batches += 1
            if len(batch) > self.max_batch_size:
                self.max_batch_size = len(batch)
            requests = [request for request, _future, _enqueued in batch]
            self._emit_queue_wait(batch)
            self.inflight = len(batch)
            epoch = self.epoch
            try:
                outcomes = await self.executor.run_batch(requests)
                self.executed += len(batch)
            except asyncio.CancelledError:
                self._fail_batch(batch, "shard is shutting down")
                raise
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                # e.g. a worker process dying mid-batch raises for the whole
                # batch; fail it structurally and keep draining the queue
                # rather than silently wedging the replica
                # — but never silently: the original exception goes to the
                # structured log with the traced requests it took down
                log_event(
                    "replica_batch_error",
                    level=logging.ERROR,
                    dataset=self.key,
                    replica=self.index,
                    batch_size=len(batch),
                    error=f"{type(exc).__name__}: {exc}",
                    trace_ids=[
                        request.trace[0]
                        for request in requests
                        if request.trace is not None
                    ],
                )
                outcomes = [as_protocol_error(exc) for _ in batch]
            finally:
                self.inflight = 0
            for (request, future, _enqueued), outcome in zip(batch, outcomes):
                if isinstance(outcome, ProtocolError):
                    self.errors += 1
                self._on_complete(epoch, request, future, outcome)
            if self._draining:
                break

    async def _rebind(self, barrier: _Barrier) -> None:
        """Serve the barrier's snapshot from the next batch on."""
        started = time.time()
        self.epoch = barrier.epoch
        try:
            await self.executor.rebind(barrier.published, barrier.trace)
        finally:
            if not barrier.done.done():
                barrier.done.set_result(None)
        if barrier.trace is not None and self._telemetry is not None:
            self._telemetry.tracer.emit(
                barrier.trace,
                "epoch.rebind",
                started,
                time.time(),
                replica=self.index,
                pid=self.executor.pid,
            )

    def _emit_queue_wait(self, batch) -> None:
        """Span the time each traced request spent queued on this replica,
        ending the moment its micro-batch is handed to the executor."""
        telemetry = self._telemetry
        if telemetry is None or not telemetry.tracer.enabled:
            return
        end = time.time()
        now = time.perf_counter()
        for request, _future, enqueued in batch:
            if request.trace is not None:
                telemetry.tracer.emit(
                    request.trace,
                    "queue.wait",
                    end - (now - enqueued),
                    end,
                    replica=self.index,
                    batch_size=len(batch),
                )

    def _fail_batch(self, batch, message: str) -> None:
        for request, future, _enqueued in batch:
            self._on_complete(
                self.epoch, request, future, ProtocolError("internal_error", message)
            )

    # -- lifecycle ---------------------------------------------------------
    def signal_drain(self) -> None:
        """Ask the loop to stop after its current batch (non-blocking).

        Called across every replica *before* any of them is awaited, so a
        replica set drains in max(batch time), not sum(batch times).
        """
        self._draining = True
        if self._task is not None:
            self._queue.put_nowait(_STOP)

    async def close(self, drain: bool = True) -> None:
        """Stop the loop; drain lets the in-flight batch finish first."""
        self._draining = True
        if self._task is not None:
            if drain:
                self._queue.put_nowait(_STOP)
                await self._task
            else:
                self._task.cancel()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass
            self._task = None
        # whatever is still queued was never started: structured errors;
        # a pending barrier resolves unserved (the executor stops anyway)
        items = [self._held] if self._held is not None else []
        self._held = None
        while True:
            try:
                items.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        self._queued = 0
        leftovers = []
        for item in items:
            if isinstance(item, _Barrier):
                if not item.done.done():
                    item.done.set_result(None)
            elif item is not _STOP:
                leftovers.append(item)
        self._fail_batch(leftovers, "shard is shutting down; request was queued but not run")
        await self.executor.close()

    def stats(self) -> dict[str, Any]:
        return {
            "replica": self.index,
            "executor": self.executor.describe(),
            "queued": self.qsize(),
            "max_queued": self.max_queued,
            "inflight": self.inflight,
            "batches": self.batches,
            "executed": self.executed,
            "errors": self.errors,
            "max_batch_size": self.max_batch_size,
        }


class ReplicaSet:
    """The replicas serving one dataset.

    The set lives as long as its shard.  It owns the :class:`Published`
    snapshot its executors serve — for process replicas that is the
    exported shared-memory segments: the host freezes once, every worker
    attaches zero-copy.  A new epoch is handed over by
    :meth:`publish`: an epoch barrier on every replica queue, and the
    superseded snapshot's segments are unlinked once every replica has
    rebound past it.  :meth:`close` unlinks the current ones after the
    last worker is gone — the leak checks in CI assert exactly this
    lifecycle.
    """

    def __init__(self, replicas: list[Replica], published: Published) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.replicas = replicas
        self.published = published  # what the executors serve now
        self._closed = False

    @classmethod
    def build(
        cls,
        name: str,
        published: Published,
        *,
        key: str,
        count: int,
        executor: str,
        max_batch: int,
        telemetry=None,
    ) -> "ReplicaSet":
        """Construct ``count`` replicas serving ``published`` (the
        executor kind is validated by the caller)."""
        replicas = []
        for replica_index in range(count):
            if executor == "inline":
                engine_executor = InlineExecutor(published, telemetry=telemetry)
            else:
                engine_executor = WorkerProcessExecutor(
                    name, published, telemetry=telemetry
                )
            replicas.append(
                Replica(
                    replica_index,
                    engine_executor,
                    key=key,
                    max_batch=max_batch,
                    telemetry=telemetry,
                )
            )
        return cls(replicas, published)

    def __len__(self) -> int:
        return len(self.replicas)

    @property
    def executor_kind(self) -> str:
        return self.replicas[0].executor.kind

    def publish(self, published: Published, epoch: int, trace=None):
        """Hand every replica ``published`` at an in-queue epoch barrier.

        Synchronous up to the barriers, so a caller's atomic block can
        include it: every request queued before this call runs on the old
        snapshot, every one after it on the new.  Returns an awaitable that
        resolves once every replica has rebound; by then the superseded
        snapshot's segments are unlinked.
        """
        superseded, self.published = self.published, published
        barriers = [
            replica.post_barrier(published, epoch, trace) for replica in self.replicas
        ]
        return self._retire(superseded, barriers)

    async def _retire(self, superseded: Published, barriers) -> None:
        await asyncio.gather(*barriers)
        superseded.close()
        if self._closed:  # a close raced the hand-off: nothing serves it
            self.published.close()

    # -- wiring + routing ---------------------------------------------------
    def bind(self, on_complete: Callable, epoch: Optional[int]) -> None:
        for replica in self.replicas:
            replica.bind(on_complete, epoch)

    async def start(self) -> None:
        # concurrent executor startup: N process replicas spawn and attach
        # their snapshots in max(one spawn), not sum
        await asyncio.gather(*(replica.start() for replica in self.replicas))

    def route(self) -> Replica:
        """Pick the replica the next admitted request is queued on: the
        least loaded (queued + in-flight), ties to the lowest index, so a
        slow query on one replica stops head-of-line-blocking the rest."""
        return min(self.replicas, key=lambda replica: (replica.load, replica.index))

    def total_queued(self) -> int:
        """Requests queued across the set (excluding executing batches)."""
        return sum(replica.qsize() for replica in self.replicas)

    def total_pending(self) -> int:
        """Queued plus executing work, feeding the ``retry_after_ms``
        estimate.  Admission control itself bounds :meth:`total_queued`
        (executing batches are past the queue and cannot be shed)."""
        return sum(replica.load for replica in self.replicas)

    async def close(self, drain: bool = True) -> None:
        self._closed = True
        if drain:
            # wake every loop first so in-flight batches drain concurrently
            for replica in self.replicas:
                replica.signal_drain()
        for replica in self.replicas:
            await replica.close(drain=drain)
        # every worker is gone now: drop the owner mappings and unlink the
        # names so the kernel reclaims the segments (both are idempotent)
        self.published.close()

    def index_hits(self) -> int:
        """Queries answered from the index windows, summed over replicas."""
        return sum(getattr(replica.executor, "index_hits", 0) for replica in self.replicas)

    def stats(self) -> list[dict[str, Any]]:
        return [replica.stats() for replica in self.replicas]


# ----------------------------------------------------------------------------
# the placement map: dataset name → shard (lazily built)
# ----------------------------------------------------------------------------


class Placement:
    """Map datasets to replicated shards; the engine routes through this.

    Shards are created lazily on first request (dataset construction and
    the freeze both run off the event loop so a cold shard never stalls
    traffic to warm ones) and guarded by one lock so a racing duplicate
    load cannot leak a shard — the same discipline PR 3's engine had, now
    owned by the placement layer together with the replica configuration.
    """

    def __init__(
        self,
        known_datasets: set[str],
        *,
        cache_size: int = 1024,
        max_batch: int = 64,
        max_queue: int = 0,
        replicas: int = 1,
        replica_overrides: Optional[dict[str, int]] = None,
        executor: str = "inline",
        index: str = "auto",
        index_dir: Optional[str] = None,
        epochs: bool = False,
        telemetry=None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {', '.join(EXECUTOR_KINDS)}"
            )
        if index not in INDEX_MODES:
            raise ValueError(
                f"unknown index mode {index!r}; choose from {', '.join(INDEX_MODES)}"
            )
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0 (0 = unbounded), got {max_queue}")
        overrides = dict(replica_overrides or {})
        for name, count in overrides.items():
            if name not in known_datasets:
                raise KeyError(
                    f"unknown dataset {name!r} in replica overrides; available: "
                    f"{', '.join(sorted(known_datasets))}"
                )
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"replicas for {name!r} must be a positive integer")
        self._known_datasets = known_datasets
        self._options = {
            "cache_size": cache_size,
            "max_batch": max_batch,
            "max_queue": max_queue,
        }
        self.executor = executor
        self.index = index
        self.index_dir = index_dir
        self.replicas = replicas
        self.replica_overrides = overrides
        self.epochs = bool(epochs)
        self.telemetry = telemetry
        self._shards: dict[str, Shard] = {}
        self._managers: dict[str, EpochManager] = {}
        self._mutation_locks: dict[str, asyncio.Lock] = {}
        self._load_lock: Optional[asyncio.Lock] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self, preload=()) -> None:
        if self._load_lock is None:
            self._load_lock = asyncio.Lock()
        self._closed = False
        for name in preload:
            await self.get_shard(name)

    async def close(self, drain: bool = True) -> None:
        """Close every shard; drain lets in-flight batches finish.

        Takes the load lock first so a lazy shard load racing with shutdown
        either completes (and is closed here) or observes ``_closed`` and
        refuses — no shard task or worker process can leak past close().
        """
        if self._load_lock is not None:
            async with self._load_lock:
                self._closed = True
        else:
            self._closed = True
        # shards drain concurrently: shutdown costs max(batch), not sum
        await asyncio.gather(
            *(shard.close(drain=drain) for shard in self._shards.values())
        )
        self._shards.clear()

    # -- shard construction ------------------------------------------------
    def replicas_for(self, name: str) -> int:
        """The configured replica count for ``name``."""
        return self.replica_overrides.get(name, self.replicas)

    def load_shard_index(self, key: str, frozen: FrozenGraph, *, epoch: Optional[int] = None):
        """Load (and digest-verify) ``key``'s index per the placement policy.

        Returns ``(index, reason)``: in ``auto`` mode a missing, stale or
        corrupt index degrades to the executed path with the reason
        recorded in ``stats`` — a snapshot whose content digest no longer
        matches the index (the dataset evolved past the build) reports the
        compact reason ``"stale"``.  In ``require`` mode the shard build
        fails with a structured :class:`GraphError` instead — a node must
        never silently serve the slow path when the operator demanded the
        index.  ``epoch`` rides into :meth:`CommunityIndex.bind`, which
        formats every stale-digest error (in-process and wire alike) with
        the current epoch and the rebuild command.
        """
        if self.index == "off":
            return None, None
        path = index_path(key, self.index_dir)
        try:
            # load_index binds against the live snapshot, which rejects any
            # digest mismatch — a stale index never serves
            index = load_index(path, frozen, epoch=epoch)
        except FileNotFoundError:
            reason = f"no index file at {path}"
            if self.index == "require":
                suffix = f" (current epoch {epoch})" if epoch is not None else ""
                raise GraphError(
                    f"index mode 'require': {reason}; "
                    f"build it with 'repro index build {key}'{suffix}"
                ) from None
            return None, reason
        except GraphError as exc:
            if self.index == "require":
                raise
            if getattr(exc, "reason", None) == "stale":
                return None, "stale"
            return None, str(exc)
        return index, None

    def build_shard(self, dataset: Dataset, *, key: Optional[str] = None) -> Shard:
        """Freeze ``dataset`` once and stand a replicated shard in front.

        With epochal snapshots enabled the shard's state is owned by an
        :class:`~repro.dynamic.EpochManager` (starting at epoch 0) and the
        shard is born epoch-aware: caches keyed by epoch, responses carrying
        it, :meth:`apply_delta` swapping in successors.
        """
        key = key if key is not None else dataset.name
        manager: Optional[EpochManager] = None
        if self.epochs:
            manager = EpochManager(dataset.graph)
            if self.telemetry is not None:
                manager.tracer = self.telemetry.tracer
            frozen = manager.frozen
        else:
            frozen = freeze(dataset.graph)
        frozen.csr.adjacency_lists()  # prebuild outside any request timing
        index, index_reason = self.load_shard_index(
            key, frozen, epoch=manager.epoch if manager is not None else None
        )
        if manager is not None and index is not None:
            # the epoch manager maintains the index from now on: every
            # prepared epoch carries a rebuilt successor, so mutations never
            # stale the index tier
            manager.bind_index(index)
        replica_set = ReplicaSet.build(
            dataset.name,
            Published(frozen, index, index_reason, executor=self.executor),
            key=key,
            count=self.replicas_for(key),
            executor=self.executor,
            max_batch=self._options["max_batch"],
            telemetry=self.telemetry,
        )
        shard = Shard(
            dataset,
            frozen,
            replica_set,
            key=key,
            cache_size=self._options["cache_size"],
            max_queue=self._options["max_queue"],
            epoch=manager.epoch if manager is not None else None,
            telemetry=self.telemetry,
        )
        if manager is not None:
            self._managers[key] = manager
        return shard

    async def get_shard(self, name: str) -> Shard:
        shard = self._shards.get(name)
        if shard is not None:
            return shard
        if self._load_lock is None:
            raise ProtocolError("internal_error", "engine is not started")
        async with self._load_lock:
            if self._closed:
                raise ProtocolError("internal_error", "engine is shutting down")
            shard = self._shards.get(name)  # a concurrent request may have won
            if shard is not None:
                return shard
            if name not in self._known_datasets:
                raise ProtocolError("unknown_dataset", f"unknown dataset {name!r}")
            loop = asyncio.get_running_loop()

            def _build() -> Shard:
                # dataset construction AND the freeze + CSR prebuild are the
                # expensive parts — run the whole build off the loop so warm
                # shards keep serving meanwhile
                return self.build_shard(load_dataset(name), key=name)

            shard = await loop.run_in_executor(None, _build)
            await shard.start()
            self._shards[name] = shard
        return shard

    # -- mutations ---------------------------------------------------------
    async def apply_delta(
        self, name: str, batch: DeltaBatch, trace=None
    ) -> dict[str, Any]:
        """Apply a delta batch to ``name`` and publish the next epoch.

        One mutation at a time per dataset (an asyncio lock): the epoch
        manager prepares the new snapshot off the event loop — rebuilding
        its bound community index along the way — the new index file is
        republished atomically (tmp + rename) and the snapshot and index
        are shared once per host.  Only then is the shard swapped: its
        long-lived replicas rebind to the new snapshot at an epoch barrier
        in their queues, and no worker process is started.  Datasets that
        never had an index reload per the placement policy instead.
        Queries keep flowing against the old epoch for the whole build.
        """
        if not self.epochs:
            raise ProtocolError(
                "bad_request",
                "this server was started without epochal snapshots; "
                "restart it with --epochs to accept mutations",
            )
        shard = await self.get_shard(name)
        manager = self._managers[shard.key]
        lock = self._mutation_locks.setdefault(name, asyncio.Lock())
        loop = asyncio.get_running_loop()
        traced = trace is not None and self.telemetry is not None
        async with lock:
            prepared = await loop.run_in_executor(None, manager.prepare, batch, trace)

            def _stage() -> Published:
                prepared.frozen.csr.adjacency_lists()
                if prepared.index is not None:
                    # the manager rebuilt the index off the serving path;
                    # publish the file atomically alongside the epoch so a
                    # restarted server finds it current, and hand the
                    # in-memory object straight to the replicas
                    save_index(prepared.index, index_path(name, self.index_dir))
                    index, index_reason = prepared.index, None
                else:
                    index, index_reason = self.load_shard_index(
                        name, prepared.frozen, epoch=prepared.epoch
                    )
                return Published(
                    prepared.frozen, index, index_reason, executor=self.executor
                )

            published = await loop.run_in_executor(None, _stage)
            commit_started = time.time()
            commit_trace = trace.child() if traced else None
            manager.commit(prepared)
            await shard.swap(published, epoch=prepared.epoch, trace=commit_trace)
            if traced:
                # the commit + atomic swap + every replica's rebind, from
                # the traced mutation's view
                self.telemetry.tracer.emit_as(
                    trace,
                    commit_trace,
                    "epoch.commit",
                    commit_started,
                    time.time(),
                    dataset=name,
                    epoch=prepared.epoch,
                )
        response = {
            "epoch": manager.epoch,
            "mode": prepared.mode,
            "ops": prepared.delta_size,
            "nodes": prepared.frozen.number_of_nodes(),
            "edges": prepared.frozen.number_of_edges(),
        }
        if prepared.index is not None:
            # constant since every epoch rebuilds its index; kept for clients
            response["index"] = "rebuilt"
            response["index_seconds"] = round(prepared.index_seconds, 6)
        return response

    def dataset_epochs(self) -> dict[str, int]:
        """Current epoch per built epochal shard (empty without --epochs)."""
        return {name: manager.epoch for name, manager in sorted(self._managers.items())}

    # -- routing + introspection ------------------------------------------
    async def submit(self, request: QueryRequest) -> tuple[Outcome, bool, bool]:
        """Route a validated request to the owning shard and resolve it."""
        shard = await self.get_shard(request.dataset)
        return await shard.submit(request)

    async def submit_traced(
        self, request: QueryRequest
    ) -> tuple[Outcome, bool, bool, Optional[int]]:
        """Like :meth:`submit`, plus the epoch the result was computed on."""
        shard = await self.get_shard(request.dataset)
        return await shard.submit_traced(request)

    @property
    def shards(self) -> dict[str, Shard]:
        """The live shards keyed by dataset name (read-only use)."""
        return self._shards

    def stats(self) -> dict[str, Any]:
        """Aggregate + per-shard (+ per-replica) statistics, JSON-safe."""
        per_shard = {name: shard.stats() for name, shard in sorted(self._shards.items())}
        for name, stats in per_shard.items():
            manager = self._managers.get(name)
            if manager is not None and "epoch" in stats:
                stats["epoch"].update(manager.describe())
        totals = {
            key: sum(stats[key] for stats in per_shard.values())
            for key in (
                "queries",
                "cache_hits",
                "cache_misses",
                "coalesced",
                "batches",
                "executed",
                "errors",
                "shed",
                "retried",
            )
        }
        totals["index_hits"] = sum(
            stats["index"]["hits"] for stats in per_shard.values()
        )
        return {
            "placement": {
                "executor": self.executor,
                "index": self.index,
                "index_dir": str(self.index_dir) if self.index_dir is not None else None,
                "replicas": self.replicas,
                "replica_overrides": dict(sorted(self.replica_overrides.items())),
                "max_queue": self._options["max_queue"],
                "epochs": self.epochs,
            },
            "shards": per_shard,
            "totals": totals,
        }


def parse_replica_spec(tokens, known_datasets) -> tuple[int, dict[str, int]]:
    """Parse ``--replicas`` tokens into ``(default_count, overrides)``.

    Each token is either a bare positive integer (the default replica count
    for every dataset) or ``name=N`` (an override for one dataset).  Raises
    ``ValueError`` with a flag-shaped message on malformed tokens so the
    CLI can surface it as a production-shaped error.
    """
    default = 1
    default_seen = False
    overrides: dict[str, int] = {}
    for token in tokens:
        text = str(token)
        if "=" in text:
            name, _, raw = text.partition("=")
            name = name.strip()
            if not name:
                raise ValueError(f"--replicas override {text!r} needs a dataset name")
            if known_datasets is not None and name not in known_datasets:
                raise ValueError(
                    f"unknown dataset {name!r} in --replicas; available: "
                    f"{', '.join(sorted(known_datasets))}"
                )
            try:
                count = int(raw)
            except ValueError:
                raise ValueError(
                    f"--replicas override {text!r} must look like name=N"
                ) from None
            if count < 1:
                raise ValueError(f"--replicas for {name!r} must be a positive integer")
            overrides[name] = count
        else:
            try:
                count = int(text)
            except ValueError:
                raise ValueError(
                    f"--replicas expects an integer or name=N, got {text!r}"
                ) from None
            if count < 1:
                raise ValueError("--replicas must be a positive integer")
            if default_seen and count != default:
                raise ValueError("--replicas got two conflicting default counts")
            default = count
            default_seen = True
    return default, overrides
