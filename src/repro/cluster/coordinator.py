"""The cluster coordinator: membership, placement over hosts, routing table.

The coordinator is the control plane of the multi-host serving tier — and
*only* the control plane: no query ever flows through it.  Node processes
(``repro serve --join <coord-addr>``) register and heartbeat; the
coordinator assigns each dataset's replica set across the live nodes
(each new replica goes to the host with the fewest assigned replicas,
registration order breaking ties), detects dead nodes on missed
heartbeats, promotes surviving replicas and refills the set (failover +
rebalance), and publishes the result as a **versioned routing table** that clients fetch
once and then follow to the owning nodes directly.

Wire operations (line-delimited JSON, same transport idiom as the query
protocol):

* ``{"op": "register", "address": "host:port"}`` → ``node_id``, the
  heartbeat cadence, the current table ``version`` and this node's
  ``owned`` datasets.  Re-registering the same address (a restarted node)
  keeps its ``node_id`` and assignments.
* ``{"op": "heartbeat", "node_id": ...}`` → ``version`` + ``owned`` (the
  node agent applies ``owned`` to its engine whenever ``version`` moved).
* ``{"op": "deregister", "node_id": ...}`` — clean leave; assignments move
  immediately instead of waiting out the heartbeat timeout.
* ``{"op": "route_table"}`` → ``{"version": V, "table": {dataset:
  [address, ...]}}`` — replica addresses in preference order (the first is
  the primary; on failover the first survivor is the promoted primary).
* ``ping`` / ``stats`` / ``shutdown`` as in the query protocol.

State lives on the coordinator's event loop only (handlers and the sweep
task), so :class:`Coordinator` needs no locks; it is transport-free and
driven directly by the unit tests with a fake clock.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from typing import Any, Callable, Optional

from ..datasets import list_datasets
from ..obs.metrics import Histogram
from ..serving.protocol import ProtocolError, decode_line, encode, error_payload
from .node import parse_address

__all__ = [
    "Coordinator",
    "CoordinatorServer",
    "CoordinatorThread",
    "run_coordinator",
]


class NodeInfo:
    """One registered node: identity, liveness and assignment bookkeeping."""

    __slots__ = (
        "node_id",
        "address",
        "index",
        "last_heartbeat",
        "alive",
        "heartbeats",
        "epochs",
        "summary",
        "rates",
        "_prev_totals",
        "_prev_time",
    )

    def __init__(self, node_id: str, address: str, index: int, now: float) -> None:
        self.node_id = node_id
        self.address = address
        self.index = index
        self.last_heartbeat = now
        self.alive = True
        self.heartbeats = 0
        # dataset → snapshot epoch, as last reported on a heartbeat (empty
        # for nodes serving static snapshots; see repro.dynamic)
        self.epochs: dict[str, int] = {}
        # dataset → metric summary ({queries, errors, shed, latency: wire
        # histogram}), as last piggybacked on a heartbeat (see repro.obs)
        self.summary: dict[str, Any] = {}
        # dataset → queries/second, derived from the counter delta between
        # the two most recent summary-carrying heartbeats
        self.rates: dict[str, float] = {}
        self._prev_totals: dict[str, int] = {}
        self._prev_time: Optional[float] = None

    def describe(self) -> dict[str, Any]:
        info: dict[str, Any] = {
            "node_id": self.node_id,
            "address": self.address,
            "alive": self.alive,
            "heartbeats": self.heartbeats,
        }
        if self.epochs:
            info["epochs"] = dict(sorted(self.epochs.items()))
        return info


class Coordinator:
    """Membership + dataset placement + the versioned routing table.

    ``datasets`` is the cluster-served set; each gets ``replication``
    replicas spread across distinct live nodes (fewer while the cluster is
    degraded).  ``clock`` is injectable so the failure-detection tests can
    advance time without sleeping.
    """

    def __init__(
        self,
        datasets,
        *,
        replication: int = 1,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        names = list(dict.fromkeys(datasets))
        if not names:
            raise ValueError("a coordinator needs at least one dataset to place")
        known = set(list_datasets())
        for name in names:
            if name not in known:
                raise KeyError(
                    f"unknown dataset {name!r}; available: {', '.join(sorted(known))}"
                )
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        if heartbeat_timeout is None:
            heartbeat_timeout = 3.0 * heartbeat_interval
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed the "
                f"interval ({heartbeat_interval})"
            )
        self.datasets = names
        self.replication = replication
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self._nodes: dict[str, NodeInfo] = {}
        self._by_address: dict[str, str] = {}
        self._assignments: dict[str, list[str]] = {name: [] for name in names}
        self._version = 0
        self._next_index = 0
        # counters
        self.registrations = 0
        self.deregistrations = 0
        self.failovers = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The routing-table version; bumps on every placement change."""
        return self._version

    def live_nodes(self) -> list[NodeInfo]:
        """Live nodes in registration order."""
        return sorted(
            (node for node in self._nodes.values() if node.alive),
            key=lambda node: node.index,
        )

    def register(self, address: str, now: Optional[float] = None) -> dict[str, Any]:
        """Join (or rejoin) the cluster; returns the registration payload."""
        if not isinstance(address, str):
            raise ProtocolError(
                "bad_request", f"register needs an 'address' like host:port, got {address!r}"
            )
        try:
            # full validation: a once-accepted malformed address would be
            # published in the routing table and crash every client that
            # tries to open a pool to it
            parse_address(address)
        except ValueError as exc:
            raise ProtocolError("bad_request", str(exc)) from None
        now = self._clock() if now is None else now
        node_id = self._by_address.get(address)
        if node_id is None:
            node_id = f"n{self._next_index}"
            self._nodes[node_id] = NodeInfo(node_id, address, self._next_index, now)
            self._by_address[address] = node_id
            self._next_index += 1
        else:
            # a restarted node keeps its identity and its assignments
            node = self._nodes[node_id]
            node.last_heartbeat = now
            node.alive = True
        self.registrations += 1
        self._rebalance()
        return {
            "node_id": node_id,
            "version": self._version,
            "owned": self.owned_by(node_id),
            "heartbeat_interval_ms": int(self.heartbeat_interval * 1000),
            "heartbeat_timeout_ms": int(self.heartbeat_timeout * 1000),
        }

    def heartbeat(
        self,
        node_id: str,
        now: Optional[float] = None,
        epochs: Optional[dict[str, int]] = None,
        summary: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """Record a node heartbeat; returns the current version + ownership.

        ``epochs`` is the node's per-dataset snapshot epoch map (nodes on
        epochal snapshots piggyback it on every heartbeat); the coordinator
        records it per node and publishes the per-dataset maximum in the
        routing table so clients can detect replicas lagging behind.

        ``summary`` is the node's per-dataset metric summary (cumulative
        ``queries``/``errors``/``shed`` counters plus a wire-form latency
        histogram, see :meth:`ServingEngine.health_summary`).  The
        coordinator stores the latest one per node, derives a
        queries-per-second rate from the counter delta between consecutive
        heartbeats, and aggregates across live replicas in :meth:`health`.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise ProtocolError(
                "bad_request", f"unknown node {node_id!r}; register first"
            )
        now = self._clock() if now is None else now
        node.last_heartbeat = now
        node.heartbeats += 1
        if epochs is not None:
            if not isinstance(epochs, dict) or not all(
                isinstance(name, str)
                and isinstance(epoch, int)
                and not isinstance(epoch, bool)
                and epoch >= 0
                for name, epoch in epochs.items()
            ):
                raise ProtocolError(
                    "bad_request",
                    "'epochs' must map dataset names to non-negative integers",
                )
            node.epochs = dict(epochs)
        if summary is not None:
            if not isinstance(summary, dict) or not all(
                isinstance(name, str) and isinstance(entry, dict)
                for name, entry in summary.items()
            ):
                raise ProtocolError(
                    "bad_request",
                    "'summary' must map dataset names to metric objects",
                )
            elapsed = (
                now - node._prev_time if node._prev_time is not None else 0.0
            )
            totals: dict[str, int] = {}
            rates: dict[str, float] = {}
            for name, entry in summary.items():
                queries = entry.get("queries")
                if not isinstance(queries, int) or isinstance(queries, bool):
                    continue
                totals[name] = queries
                previous = node._prev_totals.get(name)
                # counters are cumulative, so a smaller value means the node
                # restarted — skip the rate for one interval rather than
                # reporting a negative qps
                if previous is not None and elapsed > 0.0 and queries >= previous:
                    rates[name] = (queries - previous) / elapsed
            node.summary = dict(summary)
            node.rates = rates
            node._prev_totals = totals
            node._prev_time = now
        if not node.alive:
            # declared dead but still beating (e.g. a long GC pause): rejoin
            node.alive = True
            self._rebalance()
        return {"version": self._version, "owned": self.owned_by(node_id)}

    def deregister(self, node_id: str) -> dict[str, Any]:
        """Clean leave: assignments move now, not after the timeout."""
        node = self._nodes.get(node_id)
        if node is not None and node.alive:
            node.alive = False
            self.deregistrations += 1
            self._rebalance()
        return {"version": self._version}

    def sweep(self, now: Optional[float] = None) -> list[str]:
        """Declare nodes dead after ``heartbeat_timeout`` of silence.

        Returns the node ids declared dead by *this* sweep; placement is
        rebalanced (and the table version bumped) when there are any.
        """
        now = self._clock() if now is None else now
        dead = [
            node.node_id
            for node in self._nodes.values()
            if node.alive and now - node.last_heartbeat > self.heartbeat_timeout
        ]
        for node_id in dead:
            self._nodes[node_id].alive = False
        if dead:
            self.failovers += len(dead)
            self._rebalance()
        return dead

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _rebalance(self) -> None:
        """Repair every replica set against the current live membership.

        Dead nodes are pruned (surviving replicas keep their order, so the
        first survivor is the promoted primary), under-replicated sets are
        refilled from the least-assigned live nodes, and a gentle
        balance pass moves replicas from the most- to the least-assigned
        node until the spread is at most one — so a node joining an
        already-covered cluster picks up its share without a full reshuffle
        (an even cluster sees zero churn).  The table version bumps exactly
        when something changed.
        """
        live = self.live_nodes()
        loads = {
            node.node_id: sum(
                node.node_id in assigned for assigned in self._assignments.values()
            )
            for node in live
        }
        changed = False
        for name in self.datasets:
            assigned = self._assignments[name]
            survivors = [
                node_id for node_id in assigned if self._nodes[node_id].alive
            ]
            if survivors != assigned:
                changed = True
            want = min(self.replication, len(live))
            while len(survivors) < want:
                candidates = [node for node in live if node.node_id not in survivors]
                if not candidates:
                    break
                chosen = min(candidates, key=lambda node: (loads[node.node_id], node.index))
                survivors.append(chosen.node_id)
                loads[chosen.node_id] += 1
                changed = True
            self._assignments[name] = survivors
        while len(live) > 1:
            most = max(live, key=lambda node: (loads[node.node_id], -node.index))
            least = min(live, key=lambda node: (loads[node.node_id], node.index))
            if loads[most.node_id] - loads[least.node_id] <= 1:
                break
            for name in self.datasets:
                assigned = self._assignments[name]
                if most.node_id in assigned and least.node_id not in assigned:
                    # in-place swap keeps the replica's preference-order slot
                    assigned[assigned.index(most.node_id)] = least.node_id
                    loads[most.node_id] -= 1
                    loads[least.node_id] += 1
                    changed = True
                    break
            else:
                break  # every movable dataset already spans both nodes
        if changed:
            self._version += 1

    def owned_by(self, node_id: str) -> list[str]:
        """The datasets whose replica set includes ``node_id`` (sorted)."""
        return sorted(
            name for name, assigned in self._assignments.items() if node_id in assigned
        )

    def dataset_epochs(self) -> dict[str, int]:
        """Highest snapshot epoch reported per dataset by its live replicas.

        Empty for datasets whose replicas serve static snapshots (they
        never report epochs).  A replica reporting less than this maximum
        is lagging — clients treat answers from it like stale routing.
        """
        epochs: dict[str, int] = {}
        for name, assigned in self._assignments.items():
            reported = [
                self._nodes[node_id].epochs[name]
                for node_id in assigned
                if self._nodes[node_id].alive and name in self._nodes[node_id].epochs
            ]
            if reported:
                epochs[name] = max(reported)
        return dict(sorted(epochs.items()))

    def health(self) -> dict[str, Any]:
        """Per-dataset health aggregated across the live replicas.

        For each dataset with at least one live, summary-reporting replica:
        summed ``queries``/``errors``/``shed`` counters, the qps sum of the
        per-node heartbeat-delta rates, ``p50_ms``/``p99_ms`` read from the
        **merged** wire-form latency histograms (bucket counts add, so the
        percentile is over the cluster-wide distribution — no raw samples
        are shipped or re-sorted), the shed rate, and — for epochal
        snapshots — the maximum epoch plus the live replicas' lag behind it.
        """
        health: dict[str, Any] = {}
        for name, assigned in sorted(self._assignments.items()):
            merged: Optional[Histogram] = None
            queries = errors = shed = reporting = 0
            qps = 0.0
            epochs: list[int] = []
            for node_id in assigned:
                node = self._nodes[node_id]
                if not node.alive:
                    continue
                if name in node.epochs:
                    epochs.append(node.epochs[name])
                entry = node.summary.get(name)
                if not isinstance(entry, dict):
                    continue
                reporting += 1

                def _count(field: str, entry=entry) -> int:
                    value = entry.get(field)
                    if isinstance(value, int) and not isinstance(value, bool):
                        return value
                    return 0

                queries += _count("queries")
                errors += _count("errors")
                shed += _count("shed")
                qps += node.rates.get(name, 0.0)
                wire = entry.get("latency")
                if isinstance(wire, dict):
                    try:
                        hist = Histogram.from_wire(wire)
                    except (KeyError, TypeError, ValueError):
                        continue  # malformed latency block; keep the counters
                    if merged is None:
                        merged = hist
                    else:
                        merged.merge(hist)
            if reporting == 0:
                continue
            block: dict[str, Any] = {
                "nodes": reporting,
                "queries": queries,
                "errors": errors,
                "shed": shed,
                "qps": round(qps, 3),
                "shed_rate": round(shed / queries, 6) if queries else 0.0,
                "p50_ms": round(merged.percentile(0.50), 3) if merged else 0.0,
                "p99_ms": round(merged.percentile(0.99), 3) if merged else 0.0,
            }
            if epochs:
                block["epoch"] = max(epochs)
                block["epoch_lag"] = max(epochs) - min(epochs)
            health[name] = block
        return health

    def route_table(self) -> dict[str, Any]:
        """The published table: dataset → replica addresses, plus version.

        ``epochs`` carries the per-dataset maximum snapshot epoch the live
        replicas have reported (absent entries = static snapshots).
        """
        return {
            "version": self._version,
            "table": {
                name: [self._nodes[node_id].address for node_id in assigned]
                for name, assigned in sorted(self._assignments.items())
            },
            "epochs": self.dataset_epochs(),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """JSON-safe membership/placement snapshot for the ``stats`` op."""
        nodes = sorted(self._nodes.values(), key=lambda node: node.index)
        return {
            "version": self._version,
            "datasets": list(self.datasets),
            "replication": self.replication,
            "heartbeat_interval_ms": int(self.heartbeat_interval * 1000),
            "heartbeat_timeout_ms": int(self.heartbeat_timeout * 1000),
            "nodes": [node.describe() for node in nodes],
            "live_nodes": sum(node.alive for node in nodes),
            "assignments": {
                name: list(assigned) for name, assigned in sorted(self._assignments.items())
            },
            "epochs": self.dataset_epochs(),
            "health": self.health(),
            "registrations": self.registrations,
            "deregistrations": self.deregistrations,
            "failovers": self.failovers,
        }


# ----------------------------------------------------------------------------
# the asyncio front end (same line-delimited JSON transport as the servers)
# ----------------------------------------------------------------------------


class CoordinatorServer:
    """Serve a :class:`Coordinator` over line-delimited JSON on TCP.

    Control-plane traffic is tiny (registrations, heartbeats, table
    fetches), so every operation is handled inline on the event loop; a
    background task sweeps for missed heartbeats every quarter timeout.
    """

    def __init__(
        self, coordinator: Coordinator, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.create_task(self._sweep_loop(), name="coordinator-sweep")

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def close(self) -> None:
        """Stop the listener, the sweeper and any lingering connections."""
        self._shutdown.set()
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    async def _sweep_loop(self) -> None:
        interval = max(0.05, self.coordinator.heartbeat_timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.coordinator.sweep()

    def _dispatch(self, payload: dict[str, Any]) -> dict[str, Any]:
        op = payload.get("op")
        coordinator = self.coordinator
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "register":
            return {"ok": True, "op": "register", **coordinator.register(payload.get("address"))}
        if op == "heartbeat":
            return {
                "ok": True,
                "op": "heartbeat",
                **coordinator.heartbeat(
                    payload.get("node_id"),
                    epochs=payload.get("epochs"),
                    summary=payload.get("summary"),
                ),
            }
        if op == "deregister":
            return {
                "ok": True,
                "op": "deregister",
                **coordinator.deregister(payload.get("node_id")),
            }
        if op == "route_table":
            return {"ok": True, "op": "route_table", **coordinator.route_table()}
        if op == "stats":
            return {"ok": True, "op": "stats", **coordinator.stats()}
        raise ProtocolError("bad_request", f"unknown coordinator operation {op!r}")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while not self._shutdown.is_set():
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                request_id = None
                try:
                    payload = decode_line(line)
                    request_id = payload.get("id")
                    if payload.get("op") == "shutdown":
                        response: dict[str, Any] = {"ok": True, "op": "shutdown"}
                        if request_id is not None:
                            response["id"] = request_id
                        writer.write(encode(response))
                        await writer.drain()
                        self._shutdown.set()
                        break
                    response = self._dispatch(payload)
                    if request_id is not None:
                        response["id"] = request_id
                except ProtocolError as exc:
                    response = error_payload(exc, request_id)
                except Exception as exc:  # noqa: BLE001 - the coordinator must stay up
                    response = error_payload(
                        ProtocolError("internal_error", f"{type(exc).__name__}: {exc}"),
                        request_id,
                    )
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # a node died mid-request; the sweeper will notice
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def run_coordinator(
    coordinator: Coordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce: Callable[[str], None] = functools.partial(print, flush=True),
) -> int:
    """Run the coordinator until shutdown is requested; returns an exit code.

    ``announce`` receives ``coordinating on HOST:PORT`` once the socket is
    bound (the CLI prints it; the cluster bench parses it for the port).
    """

    async def _main() -> None:
        server = CoordinatorServer(coordinator, host, port)
        try:
            await server.start()
            announce(f"coordinating on {server.host}:{server.port}")
            await server.wait_shutdown()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        return 0
    return 0


class CoordinatorThread:
    """Run a coordinator in a daemon thread: the in-process test harness.

    Usage::

        with CoordinatorThread(datasets=["karate"], replication=2) as coord:
            agent = NodeAgent(coord.host, coord.port, advertise=...)
    """

    def __init__(
        self, *, host: str = "127.0.0.1", startup_timeout: float = 30.0, **coordinator_kwargs
    ) -> None:
        self.host = host
        self.port: Optional[int] = None
        self.coordinator = Coordinator(**coordinator_kwargs)
        self._startup_timeout = startup_timeout
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-coordinator", daemon=True
        )

    def _run(self) -> None:
        def _note_port(message: str) -> None:
            self.port = int(message.rsplit(":", 1)[1])
            self._ready.set()

        try:
            run_coordinator(self.coordinator, self.host, 0, announce=_note_port)
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            self._error = exc
            self._ready.set()

    def __enter__(self) -> "CoordinatorThread":
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise TimeoutError("coordinator thread did not start in time")
        if self._error is not None:
            raise RuntimeError("coordinator thread failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown over the wire and join the coordinator thread."""
        if self._thread.is_alive() and self.port is not None:
            from ..serving.client import ServingClient

            try:
                with ServingClient(self.host, self.port) as client:
                    client.shutdown()
            except OSError:
                pass  # already shutting down
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("coordinator thread did not shut down in time")
        if self._error is not None:
            raise RuntimeError("coordinator thread crashed") from self._error
