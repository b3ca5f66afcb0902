"""Replicated, admission-controlled query serving on frozen snapshots.

The serving subsystem turns the offline batched engine into a persistent
multi-user service, structured in four layers:

* **executors** (:mod:`~repro.serving.executor`) — where batches run:
  inline threads on the shared snapshot, or a dedicated spawn-safe worker
  process per replica that attaches the host's snapshot through shared
  memory (a pickled private copy only where shared memory fails);
* **placement** (:mod:`~repro.serving.placement`) — each dataset maps to a
  replica set whose least-loaded replica takes the next request, replacing
  the flat shard dict;
* **shards** (:mod:`~repro.serving.shard`) — queueing, coalescing, the LRU
  result cache, and admission control (bounded queues shed with structured
  ``overloaded`` + ``retry_after_ms`` errors).  When a precomputed
  community index exists for a dataset (``repro index build``, see
  :mod:`repro.graph.index`), the replica set shares it once per host and
  executors answer ``kc`` / ``kt`` / ``hightruss`` queries as window scans
  over it instead of running decompositions (``index`` ∈ auto / require /
  off on :class:`ServingEngine` and ``repro serve``);
* **transport/clients** — the asyncio TCP server (read backpressure,
  graceful drain), the blocking :class:`ServingClient` (reconnect-once) and
  the keep-alive :class:`ServingClientPool` (bounded retry of shed
  requests).

Three entry points, all bit-identical to ``evaluate_algorithm`` on the
dict reference path:

* :class:`ServingEngine` — the in-process async API;
* ``repro serve`` — the CLI daemon (line-delimited JSON over TCP, see
  :mod:`repro.serving.protocol`);
* :class:`ServingClient` / :class:`ServingClientPool` /
  ``benchmarks/bench_serving.py`` — the blocking clients and the
  open/closed-loop load generator.
"""

from .client import ServingClient
from .engine import ServingEngine
from .executor import (
    EXECUTOR_KINDS,
    InlineExecutor,
    WorkerProcessExecutor,
)
from .placement import (
    Placement,
    Replica,
    ReplicaSet,
    parse_replica_spec,
)
from .pool import ServingClientPool
from .protocol import (
    ERROR_CODES,
    ProtocolError,
    QueryRequest,
    error_payload,
    parse_request,
    result_payload,
)
from .server import QueryServer, ServerThread, run_server
from .shard import Shard

__all__ = [
    "ServingEngine",
    "ServingClient",
    "ServingClientPool",
    "QueryServer",
    "ServerThread",
    "run_server",
    "Shard",
    "Placement",
    "Replica",
    "ReplicaSet",
    "EXECUTOR_KINDS",
    "InlineExecutor",
    "WorkerProcessExecutor",
    "parse_replica_spec",
    "QueryRequest",
    "ProtocolError",
    "ERROR_CODES",
    "parse_request",
    "result_payload",
    "error_payload",
]
