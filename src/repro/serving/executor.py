"""Pluggable batch executors: *where* a replica's micro-batches run.

The :class:`~repro.serving.shard.Shard` does not execute anything itself;
each of its replicas hands micro-batches to one of two executors:

* :class:`InlineExecutor` — runs each batch on the default thread-pool
  against the shard's **shared** frozen snapshot.  Zero setup cost, one
  memo cache; the default.  Replicas of an inline shard overlap I/O and
  queueing but share the GIL for compute; the memo cache is single-flight
  (:meth:`~repro.graph.csr.SharedCache.memo`), so a cold burst spread
  across several inline replicas still derives each query-independent
  decomposition once.  Replication pays off here mainly through queueing
  isolation; use ``process`` replicas for CPU scale-out.
* :class:`WorkerProcessExecutor` — owns a **dedicated spawn-safe worker
  process per replica**.  With shared memory the child **attaches** the
  host's exported CSR arrays and index regions zero-copy
  (:mod:`repro.graph.shm`): N replicas read literally the same bytes and
  only the tiny descriptors cross the pipe.  Without it the child gets a
  pickled copy of the snapshot.  Either way each replica has a private
  memo cache and hot datasets scale past the GIL: two process replicas
  really do peel two truss decompositions concurrently.  A crashed worker
  is respawned on the next batch; the batch that observed the crash fails
  with a structured ``internal_error``.

What an executor serves is a :class:`Published` snapshot.  Both executors
expose the same tiny surface — ``start``, ``run_batch``, ``rebind`` (serve
the next epoch's snapshot; the worker process stays), ``close``,
``describe`` — and map execution failures to the closed
:class:`~repro.serving.protocol.ProtocolError` code set, so replicas and
shards never see a raw traceback.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from typing import Any, Optional, Union

from ..experiments.registry import get_algorithm
from ..graph import FrozenGraph, GraphError, freeze, shared_memory_available
from ..obs.log import log_event
from ..obs.metrics import MetricsRegistry
from ..obs.trace import make_span
from .protocol import ProtocolError, QueryRequest

__all__ = [
    "EXECUTOR_KINDS",
    "Outcome",
    "Published",
    "InlineExecutor",
    "WorkerProcessExecutor",
    "execute_one",
    "execute_traced",
]

#: The closed set of executor strategies ``--executor`` accepts.
EXECUTOR_KINDS = ("inline", "process")

Outcome = Union["ProtocolError", Any]  # CommunityResult or a structured error


def _resolve_algorithm(algorithm: str, params: dict):
    """Look the algorithm up, mapping *lookup* failure to its structured code.

    A ``KeyError`` raised later, inside the algorithm itself, must not be
    reported as ``unknown_algorithm`` — it falls through to
    ``internal_error`` via :func:`as_protocol_error`.
    """
    try:
        return get_algorithm(algorithm, **params)
    except KeyError as exc:
        raise ProtocolError(
            "unknown_algorithm", str(exc.args[0]) if exc.args else str(exc)
        ) from None


def as_protocol_error(exc: Exception) -> ProtocolError:
    """Map an execution failure to a structured, client-visible error."""
    if isinstance(exc, ProtocolError):
        return exc
    if isinstance(exc, GraphError):
        return ProtocolError("bad_query", str(exc))
    if isinstance(exc, TypeError):
        # an unsupported parameter name surfaces as a TypeError at call time
        return ProtocolError("bad_request", f"{type(exc).__name__}: {exc}")
    return ProtocolError("internal_error", f"{type(exc).__name__}: {exc}")


def execute_one(graph, algorithm: str, params: dict, nodes, index=None) -> Outcome:
    """Run one request against ``graph``; failures come back as values."""
    outcome, _ = execute_traced(graph, algorithm, params, nodes, index)
    return outcome


def execute_traced(
    graph, algorithm: str, params: dict, nodes, index=None
) -> tuple[Outcome, bool]:
    """Like :func:`execute_one`, also reporting whether the index answered.

    When a :class:`~repro.graph.index.CommunityIndex` is given and it can
    serve ``(algorithm, params)`` bit-identically, the answer comes from
    its windows — no peeling, no memo cache.  Everything else (including
    every malformed-parameter error surface) takes the executed path, so
    clients cannot tell the two apart except by latency.
    """
    served_by_index = False
    try:
        if index is not None and index.serves(algorithm, params):
            served_by_index = True
            # the live snapshot rides along for the algorithms whose index
            # path still needs it (huang2015's greedy phase runs on the
            # graph after the window scan replaces its decomposition)
            return index.search(algorithm, list(nodes), graph=graph, **params), served_by_index
        runner = _resolve_algorithm(algorithm, params)
        return runner(graph, list(nodes)), served_by_index
    except Exception as exc:  # noqa: BLE001 - mapped to structured codes
        return as_protocol_error(exc), served_by_index


def _rss_kb() -> Optional[int]:
    """This process's resident set size in kB (None where /proc is absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


# ----------------------------------------------------------------------------
# one published snapshot, as the executors receive it
# ----------------------------------------------------------------------------


class Published:
    """One snapshot (and its index) handed to a replica set's executors.

    Built once per host per snapshot.  For process executors it puts the
    CSR arrays and the index regions into shared-memory segments, so N
    workers map one copy; where shared memory is unavailable or exporting
    fails, workers get pickled copies instead (``snapshot_mode ==
    'private'``).  Inline executors read ``frozen`` and ``index``
    directly.  The owner calls :meth:`close` once no executor reads this
    snapshot any more; it unlinks the segments.
    """

    __slots__ = (
        "frozen",
        "index",
        "index_reason",
        "index_algorithms",
        "snapshot_handle",
        "index_handle",
    )

    def __init__(
        self,
        frozen: FrozenGraph,
        index=None,
        index_reason: Optional[str] = None,
        *,
        executor: str,
    ) -> None:
        self.frozen = frozen
        self.index = index
        self.index_reason = index_reason
        self.index_algorithms = index.served_algorithms() if index is not None else ()
        self.snapshot_handle = self.index_handle = None
        if executor == "process" and shared_memory_available():
            try:
                self.snapshot_handle = frozen.share()
            except (OSError, ValueError):  # graceful fallback: ship copies
                pass
            if index is not None:
                try:
                    self.index_handle = index.share()
                except (OSError, ValueError):
                    pass

    @property
    def snapshot_mode(self) -> str:
        return "shared" if self.snapshot_handle is not None else "private"

    def worker_payload(self) -> dict[str, Any]:
        """What a worker process loads: descriptors, or pickled copies."""
        shared = self.snapshot_handle is not None
        return {
            "snapshot": self.snapshot_handle.descriptor if shared else None,
            # a private snapshot never ships warm memo values: the worker
            # derives its own, and an index carries the decompositions
            "graph": None if shared else self.frozen.without_cache(),
            "index_snapshot": (
                self.index_handle.descriptor if self.index_handle is not None else None
            ),
            "index": self.index if self.index_handle is None else None,
        }

    def close(self) -> None:
        """Drop the owner mappings and unlink the segments (idempotent)."""
        for handle in (self.snapshot_handle, self.index_handle):
            if handle is not None:
                try:
                    handle.close()
                    handle.unlink()
                except OSError:
                    pass


# ----------------------------------------------------------------------------
# inline: a thread hop per batch against the shared snapshot
# ----------------------------------------------------------------------------


class InlineExecutor:
    """Run batches on the default thread-pool against the shared snapshot."""

    kind = "inline"

    def __init__(self, published: Published, *, telemetry=None) -> None:
        self._frozen = published.frozen
        self._index = published.index
        self._telemetry = telemetry
        self.index_hits = 0

    @property
    def pid(self) -> int:
        return os.getpid()

    async def start(self) -> None:  # nothing to warm up
        return None

    async def rebind(self, published: Published, trace=None) -> None:
        """Serve ``published`` from the next batch on (between batches only)."""
        self._frozen = published.frozen
        self._index = published.index

    async def run_batch(self, requests: list[QueryRequest]) -> list[Outcome]:
        # one thread hop for the whole batch: the event loop keeps
        # accepting (and queueing) requests while the batch executes
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._execute_batch, requests)

    def _execute_batch(self, requests: list[QueryRequest]) -> list[Outcome]:
        outcomes: list[Outcome] = []
        for request in requests:
            traced = request.trace is not None and self._telemetry is not None
            started = time.time() if traced else 0.0
            outcome, hit = execute_traced(
                self._frozen, request.algorithm, request.param_dict(), request.nodes,
                self._index,
            )
            if hit:
                self.index_hits += 1
            if traced:
                self._telemetry.tracer.emit(
                    request.trace,
                    "execute",
                    started,
                    time.time(),
                    executor=self.kind,
                    pid=os.getpid(),
                    index_hit=hit,
                    ok=not isinstance(outcome, ProtocolError),
                )
            outcomes.append(outcome)
        return outcomes

    async def close(self) -> None:
        return None

    def describe(self) -> dict[str, Any]:
        info: dict[str, Any] = {"kind": self.kind}
        if self._index is not None:
            info["index_hits"] = self.index_hits
        return info


# ----------------------------------------------------------------------------
# process: a dedicated spawn-safe worker process per replica
# ----------------------------------------------------------------------------


def _load_published(payload: dict[str, Any]):
    """Map (or unpickle) one :meth:`Published.worker_payload` in a worker.

    Returns ``(frozen, index, info)``.  An attached snapshot is *not*
    given a dict adjacency (it would re-materialise privately what the
    segment already holds; the CSR kernels serve every hot read); a
    private copy gets its adjacency lists prebuilt outside any batch
    timing.  ``info`` reports the snapshot/index modes and the resident
    memory the load cost.  On failure nothing stays mapped.
    """
    rss_before = _rss_kb()
    frozen = index = None
    try:
        if payload["snapshot"] is not None:
            from ..graph.shm import attach_frozen

            frozen = attach_frozen(payload["snapshot"])
        else:
            frozen = freeze(payload["graph"])
            frozen.csr.adjacency_lists()
        if payload["index_snapshot"] is not None:
            from ..graph.index import attach_index

            index = attach_index(payload["index_snapshot"])
        else:
            index = payload["index"]
    except BaseException:
        _release(frozen, index)
        raise
    rss_after = _rss_kb()
    info = {
        "snapshot": "shared" if payload["snapshot"] is not None else "private",
        "index": (
            "attached"
            if payload["index_snapshot"] is not None
            else ("copied" if index is not None else None)
        ),
        "rss_kb": rss_after,
        "snapshot_rss_kb": (
            rss_after - rss_before
            if rss_after is not None and rss_before is not None
            else None
        ),
    }
    return frozen, index, info


def _release(frozen, index) -> None:
    """Detach whatever of a loaded snapshot lives in shared segments."""
    for loaded in (index, frozen):
        detach = getattr(loaded, "detach", None)
        if detach is not None:
            try:
                detach()  # release the views before the mapping goes
            except Exception:  # noqa: BLE001 - teardown must not mask the exit
                pass


def _worker_process_main(conn, name: str) -> None:
    """Entry point of a replica's worker process (spawn-safe, module level).

    The loop answers two messages until ``("stop", None)`` or pipe close:

    * ``("attach", payload)`` — the first message, and every epoch
      hand-off after it: load ``payload`` (see :func:`_load_published`),
      detach the previous snapshot, reply ``("ready", info)`` with the
      snapshot/index modes and the resident memory the load cost.  If the
      load fails the child replies ``("failed", reason)`` and exits; the
      parent respawns it on its current snapshot.
    * ``("batch", items)`` — items are ``(algorithm, params, nodes,
      trace)`` tuples, and each reply ``("batch", outcomes, hits, extra)``
      also carries how many items the index served plus the observability
      payload ``extra``: the execute spans of traced items (built here,
      with this child's pid, so trace ids provably survive the process
      boundary) and a mergeable metrics delta the parent folds into the
      engine registry.

    The memo cache is private, so replicas never contend on one
    interpreter.
    """
    frozen = index = None
    pid = os.getpid()
    while True:
        try:
            kind, message = conn.recv()
        except (EOFError, OSError):
            break
        if kind == "attach":
            try:
                loaded = _load_published(message)
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                conn.send(("failed", f"{type(exc).__name__}: {exc}"))
                break
            # the old segments are unmapped before the reply, so the host
            # can unlink them the moment every replica has answered
            _release(frozen, index)
            frozen, index, info = loaded
            del loaded
            conn.send(("ready", info))
            continue
        if kind != "batch":
            break
        outcomes = []
        hits = 0
        spans = []
        # per-batch metrics delta: tiny, local, shipped back with the reply
        # and folded into the engine registry — the mergeable-metrics path
        delta = MetricsRegistry()
        execute_hist = delta.histogram("repro_worker_execute_ms", dataset=name)
        executed = delta.counter("repro_worker_executed_total", dataset=name)
        errored = delta.counter("repro_worker_errors_total", dataset=name)
        for algorithm, params, nodes, trace in message:
            started_wall = time.time() if trace is not None else 0.0
            started = time.perf_counter()
            outcome, hit = execute_traced(frozen, algorithm, dict(params), nodes, index)
            elapsed = time.perf_counter() - started
            execute_hist.record(elapsed * 1000.0)
            executed.inc()
            if hit:
                hits += 1
            failed = isinstance(outcome, ProtocolError)
            if failed:
                errored.inc()
            if trace is not None:
                spans.append(
                    make_span(
                        trace,
                        "execute",
                        started_wall,
                        started_wall + elapsed,
                        tags={
                            "executor": "process",
                            "pid": pid,
                            "index_hit": hit,
                            "ok": not failed,
                        },
                    )
                )
            outcomes.append(("err", outcome) if failed else ("ok", outcome))
        extra = {"spans": spans, "metrics": delta.to_wire()}
        conn.send(("batch", outcomes, hits, extra))
    _release(frozen, index)
    conn.close()


class WorkerProcessExecutor:
    """One dedicated worker process per replica, spawned (not forked).

    The spawn context is used deliberately: it is safe under threads and
    event loops on every platform, and it forces the child to build its own
    world instead of inheriting a possibly-inconsistent fork of the parent.
    The worker lives as long as the replica: :meth:`rebind` hands it each
    new snapshot over the pipe.  The executor always remembers the current
    snapshot, so a worker respawned after a crash loads the current epoch.
    All pipe I/O is blocking and therefore pushed onto the default
    thread-pool; one message is in flight per worker at a time (the owning
    replica's loop guarantees that, the lock makes it safe even under
    direct use).
    """

    kind = "process"

    def __init__(
        self,
        name: str,
        published: Published,
        *,
        start_timeout: float = 120.0,
        telemetry=None,
    ) -> None:
        self._name = name
        self._published = published
        self._telemetry = telemetry
        self._start_timeout = start_timeout
        self._proc = None
        self._conn = None
        self._lock = threading.Lock()
        self.restarts = -1  # first spawn brings it to 0
        self.worker_info: dict[str, Any] = {}
        self.index_hits = 0

    @property
    def snapshot_mode(self) -> str:
        return self._published.snapshot_mode

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None else None

    # -- child management (all called from worker threads, under the lock) --
    def _recv_reply(self, what: str):
        """The child's next reply; raises RuntimeError on silence or death."""
        try:
            if not self._conn.poll(self._start_timeout):
                raise RuntimeError(
                    f"worker process for {self._name!r} did not answer {what} "
                    f"within {self._start_timeout}s"
                )
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"worker process for {self._name!r} died during {what} "
                f"({type(exc).__name__})"
            ) from None

    def _spawn(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_process_main,
            args=(child_conn, self._name),
            name=f"repro-replica:{self._name}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn
        try:
            parent_conn.send(("attach", self._published.worker_payload()))
            kind, detail = self._recv_reply("startup")
            if kind != "ready":
                raise RuntimeError(
                    f"worker process for {self._name!r} failed to start: {detail}"
                )
        except BaseException:
            # a failed handshake must not leak the child or the pipe fd
            self._teardown()
            raise
        self.restarts += 1
        self.worker_info = detail if isinstance(detail, dict) else {}

    def _ensure_worker(self) -> None:
        if self._proc is None or not self._proc.is_alive():
            # first use, or the previous message killed the worker
            self._teardown()
            self._spawn()

    def _teardown(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(5)
            self._proc = None

    def _roundtrip(self, items: list[tuple]) -> list[tuple]:
        with self._lock:
            self._ensure_worker()
            try:
                self._conn.send(("batch", items))
                return self._conn.recv()
            except (EOFError, OSError) as exc:
                # the original exception used to vanish here (only a terse
                # RuntimeError survived); log it with the traced requests it
                # took down so the respawn is attributable
                log_event(
                    "worker_died",
                    level=logging.ERROR,
                    dataset=self._name,
                    error=f"{type(exc).__name__}: {exc}",
                    restarts=max(self.restarts, 0),
                    batch_size=len(items),
                    trace_ids=[
                        item[3][0] for item in items if item[3] is not None
                    ],
                )
                self._teardown()
                raise RuntimeError(
                    f"worker process for {self._name!r} died mid-batch "
                    f"({type(exc).__name__}); it will be respawned"
                ) from None

    def _attach(self, published: Published, trace) -> None:
        with self._lock:
            # recorded first: whatever happens below, the next spawn loads it
            self._published = published
            if self._proc is None or not self._proc.is_alive():
                self._teardown()  # the next batch spawns on the new snapshot
                return
            try:
                self._conn.send(("attach", published.worker_payload()))
                kind, detail = self._recv_reply("attach")
            except Exception as exc:  # noqa: BLE001 - recovered by a respawn
                kind, detail = "failed", f"{type(exc).__name__}: {exc}"
            if kind == "ready" and isinstance(detail, dict):
                self.worker_info = detail
                return
            # a worker that could not load the new snapshot must not serve
            # the old one: stop it, and the next batch respawns it
            log_event(
                "worker_attach_failed",
                level=logging.ERROR,
                dataset=self._name,
                error=str(detail),
                restarts=max(self.restarts, 0),
                trace_id=trace[0] if trace is not None else None,
            )
            self._teardown()

    def _stop(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.send(("stop", None))
                except (OSError, ValueError):
                    pass
            if self._proc is not None:
                self._proc.join(10)
            self._teardown()

    # -- the async surface ------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._locked_ensure_worker)

    def _locked_ensure_worker(self) -> None:
        with self._lock:
            self._ensure_worker()

    async def rebind(self, published: Published, trace=None) -> None:
        """Hand the worker ``published``; it detaches the previous snapshot.

        Never raises: a worker that dies or fails the hand-off is stopped
        (logged with ``trace``'s id), and the next batch respawns it on
        ``published``.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._attach, published, trace)

    async def run_batch(self, requests: list[QueryRequest]) -> list[Outcome]:
        items = [
            (request.algorithm, request.params, request.nodes, request.trace)
            for request in requests
        ]
        loop = asyncio.get_running_loop()
        _, tagged, hits, extra = await loop.run_in_executor(None, self._roundtrip, items)
        if hits:
            self.index_hits += hits
        if self._telemetry is not None and isinstance(extra, dict):
            # the child's execute spans and metrics delta, folded into the
            # parent's ring/registry — the cross-process observability path
            self._telemetry.tracer.add_many(extra.get("spans"))
            self._telemetry.registry.merge_wire(extra.get("metrics"))
        return [outcome for _tag, outcome in tagged]

    async def close(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._stop)

    def describe(self) -> dict[str, Any]:
        info = {
            "kind": self.kind,
            "restarts": max(self.restarts, 0),
            "snapshot": self.snapshot_mode,
        }
        rss = self.worker_info.get("rss_kb")
        if rss is not None:
            info["rss_kb"] = rss
        snapshot_rss = self.worker_info.get("snapshot_rss_kb")
        if snapshot_rss is not None:
            info["snapshot_rss_kb"] = snapshot_rss
        index_mode = self.worker_info.get("index")
        if index_mode is not None:
            info["index"] = index_mode
            info["index_hits"] = self.index_hits
        return info
