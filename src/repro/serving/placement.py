"""Shard placement: dataset → replica set, with a routing policy.

PR 3 served every dataset from a single shard executing inside one asyncio
process; this module is the layer that grew out of it.  It owns three
concerns:

* **Replication** — each dataset maps to a :class:`ReplicaSet` of
  ``--replicas N`` independent :class:`Replica` objects (optionally
  overridden per dataset, ``--replicas 2 hotset=4``).  A replica is a
  queue + micro-batch loop in front of one
  :mod:`~repro.serving.executor` executor, so replication composes with
  either execution strategy — N inline threads on the host's snapshot, or
  N dedicated worker processes.
* **Routing** — a policy picks the replica for each admitted request:
  :class:`RoundRobinPolicy` (strict rotation) or the default
  :class:`LeastLoadedPolicy` (smallest queue depth + in-flight batch,
  index as the tie-break, so an idle replica always wins over a busy one).
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
    shared_memory_available,
)
from .executor import (
    EXECUTOR_KINDS,
    InlineExecutor,
    Outcome,
    WorkerProcessExecutor,
    as_protocol_error,
)
from .protocol import ProtocolError, QueryRequest
from .shard import Shard

__all__ = [
    "SNAPSHOT_MODES",
    "ROUTING_POLICIES",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "Replica",
    "ReplicaSet",
    "Placement",
    "parse_replica_spec",
]

#: the closed set of snapshot-distribution modes ``--snapshot`` accepts:
#: 'shared' exports the host's frozen CSR into a named shared-memory
#: segment that process workers attach zero-copy (falling back to
#: 'private' where shared memory is unavailable); 'private' ships every
#: worker its own copy, PR 4 behaviour
SNAPSHOT_MODES = ("shared", "private")


# ----------------------------------------------------------------------------
# routing policies
# ----------------------------------------------------------------------------


class RoundRobinPolicy:
    """Strict rotation over the replica set, independent of load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, replicas: list["Replica"]) -> "Replica":
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


class LeastLoadedPolicy:
    """Pick the replica with the smallest queue depth + in-flight batch.

    Ties break on the replica index so routing is deterministic; an idle
    replica therefore always beats one that is mid-batch, which is what
    lets a slow query on one replica stop head-of-line-blocking the rest
    of the traffic.
    """

    name = "least-loaded"

    def select(self, replicas: list["Replica"]) -> "Replica":
        return min(replicas, key=lambda replica: (replica.load, replica.index))


#: routing-policy name → zero-argument factory (policies carry state).
ROUTING_POLICIES: dict[str, Callable[[], Any]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


# ----------------------------------------------------------------------------
# replicas: a queue + micro-batch loop per execution context
# ----------------------------------------------------------------------------

_STOP = object()  # queue sentinel that wakes a draining replica loop


class Replica:
    """One execution lane of a shard: queue, micro-batch loop, executor.

    The loop mirrors PR 3's per-shard batch loop: it blocks on the queue,
    drains whatever queued up while the previous batch ran (micro-batching,
    bounded by ``max_batch``), hands the batch to the executor off the
    event loop, and reports every outcome through the shard-owned
    ``on_complete`` callback.  On drain it finishes the in-flight batch and
    stops pulling new ones — requests still queued get structured errors.
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
        self._task: Optional[asyncio.Task] = None
        self._on_complete: Optional[Callable] = None
        self._draining = False
        self.inflight = 0  # requests in the batch currently executing
        # statistics
        self.batches = 0
        self.executed = 0
        self.errors = 0
        self.max_batch_size = 0
        self.max_queued = 0

    # -- wiring ------------------------------------------------------------
    def bind(self, on_complete: Callable) -> None:
        """Attach the shard's completion callback (cache/inflight/futures)."""
        self._on_complete = on_complete

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
        size = self._queue.qsize()
        # the drain sentinel is not a request
        return size - 1 if self._draining and size else size

    @property
    def load(self) -> int:
        """Routing load: queued requests plus the in-flight batch."""
        return self.qsize() + self.inflight

    def enqueue(self, request: QueryRequest, future: asyncio.Future) -> None:
        # the monotonic enqueue stamp feeds the queue-wait span of traced
        # requests (and is one cheap perf_counter read either way)
        self._queue.put_nowait((request, future, time.perf_counter()))
        depth = self.qsize()
        if depth > self.max_queued:
            self.max_queued = depth

    async def _loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    self._queue.put_nowait(_STOP)  # re-arm for after this batch
                    break
                batch.append(extra)
            self.batches += 1
            if len(batch) > self.max_batch_size:
                self.max_batch_size = len(batch)
            requests = [request for request, _future, _enqueued in batch]
            self._emit_queue_wait(batch)
            self.inflight = len(batch)
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
                self._on_complete(request, future, outcome)
            if self._draining:
                break

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
            self._on_complete(request, future, ProtocolError("internal_error", message))

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
        # whatever is still queued was never started: structured errors
        leftovers = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
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
    """The replicas serving one dataset, plus their routing policy.

    When built in ``shared`` snapshot mode the set also owns the exported
    shared-memory segment: the host freezes once, :func:`share_frozen`
    exports the CSR arrays, every process worker attaches zero-copy,
    and :meth:`close` unlinks the segment after the last worker is gone —
    the leak checks in CI assert exactly this lifecycle.
    """

    def __init__(
        self,
        replicas: list[Replica],
        policy,
        *,
        snapshot_handle=None,
        snapshot: str = "private",
        index_handle=None,
        index_effective: str = "executed",
        index_reason: Optional[str] = None,
        index_algorithms: tuple[str, ...] = (),
    ) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.replicas = replicas
        self.policy = policy
        self._snapshot_handle = snapshot_handle
        self.snapshot_mode = snapshot
        self._index_handle = index_handle
        self.index_effective = index_effective
        self.index_reason = index_reason
        self.index_algorithms = index_algorithms

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        frozen: FrozenGraph,
        *,
        key: str,
        count: int,
        executor: str,
        routing: str,
        max_batch: int,
        snapshot: str = "private",
        index=None,
        index_reason: Optional[str] = None,
        telemetry=None,
    ) -> "ReplicaSet":
        """Construct ``count`` replicas of ``dataset`` on the given strategy."""
        if count < 1:
            raise ValueError(f"replicas must be >= 1, got {count}")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {', '.join(EXECUTOR_KINDS)}"
            )
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; choose from "
                f"{', '.join(sorted(ROUTING_POLICIES))}"
            )
        if snapshot not in SNAPSHOT_MODES:
            raise ValueError(
                f"unknown snapshot mode {snapshot!r}; choose from "
                f"{', '.join(SNAPSHOT_MODES)}"
            )
        # export the snapshot once per shard when workers can attach it;
        # inline replicas already share the host's frozen object in-process
        snapshot_handle = None
        effective = "private"
        if snapshot == "shared" and executor == "process":
            if shared_memory_available():
                try:
                    snapshot_handle = frozen.share()
                    effective = "shared"
                except (OSError, ValueError):  # graceful fallback: ship copies
                    snapshot_handle = None
        descriptor = snapshot_handle.descriptor if snapshot_handle is not None else None
        # the community index is exported once per shard too: N process
        # replicas on this host map ONE index segment, never N copies (a
        # pickled copy per worker is the fallback where shm is unavailable)
        index_handle = None
        index_descriptor = None
        index_copy = None
        if index is not None and executor == "process":
            if shared_memory_available():
                try:
                    index_handle = index.share()
                    index_descriptor = index_handle.descriptor
                except (OSError, ValueError):
                    index_handle = None
            if index_descriptor is None:
                index_copy = index
        replicas = []
        for replica_index in range(count):
            if executor == "inline":
                engine_executor = InlineExecutor(frozen, index=index, telemetry=telemetry)
            else:
                engine_executor = WorkerProcessExecutor(
                    dataset,
                    descriptor=descriptor,
                    index_descriptor=index_descriptor,
                    index=index_copy,
                    telemetry=telemetry,
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
        return cls(
            replicas,
            ROUTING_POLICIES[routing](),
            snapshot_handle=snapshot_handle,
            snapshot=effective,
            index_handle=index_handle,
            index_effective="indexed" if index is not None else "executed",
            index_reason=index_reason,
            index_algorithms=(
                index.served_algorithms() if index is not None else ()
            ),
        )

    def __len__(self) -> int:
        return len(self.replicas)

    @property
    def executor_kind(self) -> str:
        return self.replicas[0].executor.kind

    def bind(self, on_complete: Callable) -> None:
        for replica in self.replicas:
            replica.bind(on_complete)

    async def start(self) -> None:
        # concurrent executor startup: N process replicas spawn and freeze
        # their snapshots in max(one spawn), not sum
        await asyncio.gather(*(replica.start() for replica in self.replicas))

    def route(self) -> Replica:
        """Pick the replica the next admitted request is queued on."""
        return self.policy.select(self.replicas)

    def total_queued(self) -> int:
        """Requests queued across the set (excluding executing batches)."""
        return sum(replica.qsize() for replica in self.replicas)

    def total_pending(self) -> int:
        """Queued plus executing work, feeding the ``retry_after_ms``
        estimate.  Admission control itself bounds :meth:`total_queued`
        (executing batches are past the queue and cannot be shed)."""
        return sum(replica.load for replica in self.replicas)

    async def close(self, drain: bool = True) -> None:
        if drain:
            # wake every loop first so in-flight batches drain concurrently
            for replica in self.replicas:
                replica.signal_drain()
        for replica in self.replicas:
            await replica.close(drain=drain)
        if self._snapshot_handle is not None:
            # every worker is gone now: drop the owner mapping and unlink the
            # name so the kernel reclaims the segment (both are idempotent)
            try:
                self._snapshot_handle.close()
                self._snapshot_handle.unlink()
            except OSError:
                pass
            self._snapshot_handle = None
        if self._index_handle is not None:
            try:
                self._index_handle.close()
                self._index_handle.unlink()
            except OSError:
                pass
            self._index_handle = None

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
        routing: str = LeastLoadedPolicy.name,
        snapshot: str = "shared",
        index: str = "auto",
        index_dir: Optional[str] = None,
        epochs: bool = False,
        epoch_threshold: int = 64,
        telemetry=None,
    ) -> None:
        if epoch_threshold < 0:
            raise ValueError(f"epoch_threshold must be >= 0, got {epoch_threshold}")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {', '.join(EXECUTOR_KINDS)}"
            )
        if snapshot not in SNAPSHOT_MODES:
            raise ValueError(
                f"unknown snapshot mode {snapshot!r}; choose from "
                f"{', '.join(SNAPSHOT_MODES)}"
            )
        if index not in INDEX_MODES:
            raise ValueError(
                f"unknown index mode {index!r}; choose from {', '.join(INDEX_MODES)}"
            )
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; choose from "
                f"{', '.join(sorted(ROUTING_POLICIES))}"
            )
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
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
        self.routing = routing
        self.snapshot = snapshot
        self.index = index
        self.index_dir = index_dir
        self.replicas = replicas
        self.replica_overrides = overrides
        self.epochs = bool(epochs)
        self.epoch_threshold = epoch_threshold
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
            manager = EpochManager(dataset.graph, threshold=self.epoch_threshold)
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
        replica_set = self._build_replica_set(
            dataset, frozen, key=key, index=index, index_reason=index_reason
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

    def _build_replica_set(
        self, dataset: Dataset, frozen: FrozenGraph, *, key: str, index, index_reason
    ) -> ReplicaSet:
        return ReplicaSet.build(
            dataset,
            frozen,
            key=key,
            count=self.replicas_for(key),
            executor=self.executor,
            routing=self.routing,
            max_batch=self._options["max_batch"],
            snapshot=self.snapshot,
            index=index,
            index_reason=index_reason,
            telemetry=self.telemetry,
        )

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
        its bound community index along the way — the new index file
        is republished atomically (tmp + rename) and a fresh replica set
        built on it, and only then is the shard swapped (workers re-attach
        the new index segment on swap).  Datasets that never had an index
        reload per the placement policy instead.  Queries keep flowing
        against the old epoch for the whole build; the swap itself is
        atomic between micro-batches.
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
        async with lock:
            prepared = await loop.run_in_executor(None, manager.prepare, batch, trace)

            def _stage() -> ReplicaSet:
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
                return self._build_replica_set(
                    shard.dataset,
                    prepared.frozen,
                    key=name,
                    index=index,
                    index_reason=index_reason,
                )

            replica_set = await loop.run_in_executor(None, _stage)
            commit_started = time.time()
            manager.commit(prepared)
            await shard.swap(prepared.frozen, replica_set, epoch=prepared.epoch)
            if trace is not None and self.telemetry is not None:
                # the commit + atomic swap, from the traced mutation's view
                self.telemetry.tracer.emit(
                    trace,
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
                "routing": self.routing,
                "snapshot": self.snapshot,
                "index": self.index,
                "index_dir": str(self.index_dir) if self.index_dir is not None else None,
                "replicas": self.replicas,
                "replica_overrides": dict(sorted(self.replica_overrides.items())),
                "max_queue": self._options["max_queue"],
                "epochs": self.epochs,
                "epoch_threshold": self.epoch_threshold if self.epochs else None,
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
