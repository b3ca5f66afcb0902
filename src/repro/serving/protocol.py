"""Wire protocol of the query-serving subsystem: line-delimited JSON.

One request per line, one response per line, UTF-8 JSON objects.  A query
request looks like::

    {"op": "query", "dataset": "karate", "algorithm": "kt",
     "nodes": [0, 33], "params": {"k": 4}, "id": 7}

``op`` defaults to ``"query"`` when omitted; ``id`` is an optional client
correlation token echoed back verbatim.  The other operations are
``"ping"``, ``"stats"`` and ``"shutdown"``.  Every response carries
``"ok"``; failures are *structured* — never tracebacks on the wire::

    {"ok": false, "error": {"code": "unknown_dataset",
                            "message": "unknown dataset 'katare'; ..."}}

Error codes are a closed set (:data:`ERROR_CODES`) so clients can dispatch
on them: ``bad_request`` (malformed JSON / missing or ill-typed fields),
``unknown_dataset`` / ``unknown_algorithm`` (name not registered),
``bad_query`` (well-formed request the graph rejects, e.g. a query node
that is not in the dataset), ``overloaded`` (admission control shed the
request because the owning shard's bounded queue is full; the error object
carries ``retry_after_ms``, the server's estimate of when capacity frees
up), ``not_owner`` (cluster mode: this node is not in the dataset's replica
set under the coordinator's current routing table — the client should
refetch the table and resend to an owning node, see ``repro.cluster``),
``stale_epoch`` (the request carried ``min_epoch`` and the shard's current
snapshot epoch is older — a staleness-bounded read the server refuses
rather than answer from a superseded graph) and ``internal_error``
(anything else; the server stays up).

On a server started with ``--epochs`` every query response carries
``"epoch": N`` — the snapshot version the result was computed against (see
``repro.dynamic``).  A request may pin ``"min_epoch": N`` to demand a
snapshot at least that fresh; like ``attempt`` it is not part of the
request identity.

A client retrying a shed request may send ``"attempt": N`` (a positive
integer) alongside the query fields; the server counts retried admissions
per shard so overload behaviour is observable in the ``stats`` op.
``attempt`` is not part of the request identity — a retry coalesces and
caches exactly like the original.

This module is deliberately transport-free: it validates payloads into
:class:`QueryRequest` values and formats :class:`~repro.core.result.
CommunityResult` values back into payloads.  The asyncio server, the
blocking client and the in-process engine all share it, which is what keeps
the three entry points bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from ..core.result import CommunityResult

__all__ = [
    "ERROR_CODES",
    "ProtocolError",
    "QueryRequest",
    "parse_request",
    "result_payload",
    "error_payload",
    "encode",
    "decode_line",
]

#: The closed set of machine-readable error codes a response may carry.
ERROR_CODES = (
    "bad_request",
    "unknown_dataset",
    "unknown_algorithm",
    "bad_query",
    "overloaded",
    "not_owner",
    "stale_epoch",
    "internal_error",
)

#: JSON scalar types accepted for algorithm parameter values.
_SCALAR_TYPES = (int, float, str, bool, type(None))


class ProtocolError(Exception):
    """A structured, client-visible request failure.

    Raised by validation and execution; the serving layers convert it into
    an ``{"ok": false, "error": {...}}`` response instead of letting it
    escape as a traceback.  ``retry_after_ms`` is only meaningful for the
    ``overloaded`` code: the server's estimate (in milliseconds) of when the
    shed request is worth retrying.
    """

    def __init__(self, code: str, message: str, retry_after_ms: Optional[int] = None) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms

    def __reduce__(self):
        # default Exception pickling would replay __init__ with args=(message,)
        # only; the worker-process path ships these across process boundaries
        return (ProtocolError, (self.code, self.message, self.retry_after_ms))


@dataclass(frozen=True)
class QueryRequest:
    """A validated community-search request.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so the
    whole request is hashable — :attr:`cache_key` keys the per-shard LRU
    result cache and the in-flight deduplication map.  ``attempt`` records
    how many times the client already had this request shed (0 for a first
    try); it is deliberately **excluded** from :attr:`cache_key` so a retry
    deduplicates against the original.  ``min_epoch`` is the optional
    staleness bound — also excluded from the identity, because the shard
    keys caches by ``(epoch, cache_key)`` and a bound either passes (same
    result as unbounded) or fails before the cache is consulted.
    """

    dataset: str
    algorithm: str
    nodes: tuple
    params: tuple[tuple[str, Any], ...] = ()
    attempt: int = 0
    min_epoch: Optional[int] = None
    # the sampled observability context (trace_id, span_id) — metadata,
    # never identity: cache_key excludes it so traced requests coalesce
    # and cache exactly like untraced ones (see repro.obs.trace)
    trace: Optional[tuple[str, str]] = None

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of the request (dataset, algorithm, nodes, params)."""
        return (self.dataset, self.algorithm, self.nodes, self.params)

    def param_dict(self) -> dict[str, Any]:
        """Return the parameter overrides as a plain dict."""
        return dict(self.params)


def _parse_node(token: Any) -> Any:
    """Normalise a JSON node id: int when possible (``repro search`` too).

    A JSON array is a tuple id (``[0, 0]`` -> ``(0, 0)``, normalised
    element by element), so an answer's ``nodes`` can be sent back as a
    query.
    """
    if isinstance(token, list):
        return tuple(_parse_node(item) for item in token)
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise ProtocolError(
            "bad_request", f"query node {token!r} must be an integer, string or array"
        )
    if isinstance(token, str):
        try:
            return int(token)
        except ValueError:
            return token
    return token


def parse_request(
    payload: Any,
    known_datasets: Optional[set[str]] = None,
    known_algorithms: Optional[set[str]] = None,
) -> QueryRequest:
    """Validate a decoded JSON payload into a :class:`QueryRequest`.

    Raises :class:`ProtocolError` with a structured code on any problem;
    name checks are skipped when the corresponding ``known_*`` set is None.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")

    dataset = payload.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise ProtocolError("bad_request", "request needs a 'dataset' string")
    if known_datasets is not None and dataset not in known_datasets:
        raise ProtocolError(
            "unknown_dataset",
            f"unknown dataset {dataset!r}; available: {', '.join(sorted(known_datasets))}",
        )

    algorithm = payload.get("algorithm")
    if not isinstance(algorithm, str) or not algorithm:
        raise ProtocolError("bad_request", "request needs an 'algorithm' string")
    if known_algorithms is not None and algorithm not in known_algorithms:
        raise ProtocolError(
            "unknown_algorithm",
            f"unknown algorithm {algorithm!r}; available: {', '.join(sorted(known_algorithms))}",
        )

    raw_nodes = payload.get("nodes")
    if raw_nodes is None:
        raise ProtocolError("bad_request", "request needs a non-empty 'nodes' list")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ProtocolError("bad_request", "'nodes' must be a non-empty list")
    try:
        nodes = tuple(_parse_node(token) for token in raw_nodes)
    except RecursionError:
        raise ProtocolError("bad_request", "query node ids nest too deeply") from None

    raw_params = payload.get("params", {})
    if not isinstance(raw_params, dict):
        raise ProtocolError("bad_request", "'params' must be a JSON object")
    for name, value in raw_params.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise ProtocolError(
                "bad_request", f"parameter {name!r} must be a JSON scalar, got {value!r}"
            )
    params = tuple(sorted(raw_params.items()))

    attempt = payload.get("attempt", 0)
    if isinstance(attempt, bool) or not isinstance(attempt, int) or attempt < 0:
        raise ProtocolError("bad_request", "'attempt' must be a non-negative integer")

    min_epoch = payload.get("min_epoch")
    if min_epoch is not None and (
        isinstance(min_epoch, bool) or not isinstance(min_epoch, int) or min_epoch < 0
    ):
        raise ProtocolError("bad_request", "'min_epoch' must be a non-negative integer")

    return QueryRequest(
        dataset=dataset,
        algorithm=algorithm,
        nodes=nodes,
        params=params,
        attempt=attempt,
        min_epoch=min_epoch,
    )


def result_payload(
    request: QueryRequest,
    result: CommunityResult,
    *,
    cached: bool = False,
    coalesced: bool = False,
    served_seconds: Optional[float] = None,
    request_id: Any = None,
    epoch: Optional[int] = None,
    trace_id: Optional[str] = None,
) -> dict[str, Any]:
    """Format a :class:`CommunityResult` as a response payload.

    ``nodes`` come back sorted by ``repr`` (the library's canonical node
    order) so responses are byte-stable; non-finite scores (a failed
    search's ``-inf``) are serialised as ``null`` to stay strict-JSON.
    ``elapsed_ms`` is the *algorithm execution* time (replayed verbatim on a
    cache hit); ``served_ms``, when provided, is this request's actual wall
    time in the service — the number latency monitoring should use.
    ``epoch``, when the server runs with epochal snapshots, is the snapshot
    version the result was computed against.  ``trace_id``, when the request
    was sampled for tracing, lets the client fetch the span tree back with
    the ``trace`` op — unsampled responses stay byte-identical to a server
    without observability.
    """
    failed = bool(result.extra.get("failed")) or not result.nodes
    score: Optional[float] = result.score
    if score is not None and not math.isfinite(score):
        score = None
    payload: dict[str, Any] = {
        "ok": True,
        "op": "query",
        "dataset": request.dataset,
        "algorithm": request.algorithm,
        "query": list(request.nodes),
        "nodes": sorted(result.nodes, key=repr),
        "size": result.size,
        "score": score,
        "objective": result.objective_name,
        "elapsed_ms": round(result.elapsed_seconds * 1000.0, 3),
        "failed": failed,
        "cached": cached,
        "coalesced": coalesced,
    }
    if served_seconds is not None:
        payload["served_ms"] = round(served_seconds * 1000.0, 3)
    if epoch is not None:
        payload["epoch"] = epoch
    if trace_id is not None:
        payload["trace_id"] = trace_id
    reason = result.extra.get("reason")
    if reason is not None:
        payload["reason"] = reason
    extra = {
        key: value
        for key, value in result.extra.items()
        if key not in ("failed", "reason") and isinstance(value, _SCALAR_TYPES)
    }
    if extra:
        payload["extra"] = extra
    if request_id is not None:
        payload["id"] = request_id
    return payload


def error_payload(
    error: ProtocolError,
    request_id: Any = None,
    trace_id: Optional[str] = None,
) -> dict[str, Any]:
    """Format a :class:`ProtocolError` as a structured error response."""
    detail: dict[str, Any] = {"code": error.code, "message": error.message}
    if error.retry_after_ms is not None:
        detail["retry_after_ms"] = error.retry_after_ms
    payload: dict[str, Any] = {"ok": False, "error": detail}
    if request_id is not None:
        payload["id"] = request_id
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload


def encode(payload: dict[str, Any]) -> bytes:
    """Encode one response/request payload as a JSON line."""
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode_line(line: bytes) -> dict[str, Any]:
    """Decode one request line; raises ``bad_request`` on malformed input."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError("bad_request", f"malformed JSON request: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    return payload
