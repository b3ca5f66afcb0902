"""The node agent: a serving process's membership loop.

:class:`NodeAgent` is the piece that turns a plain ``repro serve`` process
into a cluster node.  It runs a daemon thread that

* **registers** with the coordinator (retrying with backoff until the
  coordinator is reachable — a node that starts first keeps serving
  ``not_owner`` until it joins),
* **heartbeats** on the cadence the coordinator advertised, and
* applies every ownership change to the engine
  (:meth:`~repro.serving.engine.ServingEngine.set_owned_datasets`) the
  moment a register/heartbeat response carries a new table version — so a
  failed-over dataset starts being served within one heartbeat of the
  coordinator's decision, and a reassigned-away dataset starts answering
  ``not_owner`` just as fast.

The agent also installs itself as the engine's ``node`` stats block, which
is what makes per-node membership state (node id, owned datasets, table
version, heartbeat counters) visible through the ordinary ``stats`` wire
op on the *node's* query port.

The agent deliberately talks to the coordinator over the same blocking
:class:`~repro.serving.client.ServingClient` the data path uses — one
wire idiom everywhere.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Callable, Optional

from ..obs.log import log_event
from ..serving.client import ServingClient

__all__ = ["NodeAgent", "parse_address"]


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` into a tuple, with a flag-shaped error."""
    host, separator, raw_port = str(text).rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected an address like host:port, got {text!r}")
    try:
        port = int(raw_port)
    except ValueError:
        raise ValueError(f"invalid port in address {text!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in address {text!r}")
    return host, port


class NodeAgent:
    """Register with a coordinator and keep the node's membership fresh.

    ``advertise`` is the address *clients* should use to reach this node's
    query port (it keys the node's identity on the coordinator, so a
    restarted node re-registering the same address gets its assignments
    back).  Ownership changes are applied to ``engine`` when given, and to
    the optional ``on_owned`` callback (tests use the callback alone).
    """

    def __init__(
        self,
        coordinator_host: str,
        coordinator_port: int,
        advertise: str,
        *,
        engine=None,
        on_owned: Optional[Callable[[list[str]], None]] = None,
        register_backoff: float = 0.5,
        request_timeout: float = 10.0,
    ) -> None:
        parse_address(advertise)  # validate early, with the flag-shaped error
        self.coordinator_host = coordinator_host
        self.coordinator_port = coordinator_port
        self.advertise = advertise
        self.engine = engine
        self._on_owned = on_owned
        self._register_backoff = register_backoff
        self._request_timeout = request_timeout
        self.node_id: Optional[str] = None
        self.table_version: Optional[int] = None
        self.owned: list[str] = []
        self.heartbeat_interval = 1.0  # replaced by the coordinator's cadence
        # counters
        self.heartbeats_sent = 0
        self.heartbeat_failures = 0
        self.registrations = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="repro-node-agent", daemon=True)
        self._client: Optional[ServingClient] = None
        if engine is not None:
            # gate from the very first request: before registration completes
            # the node owns nothing and answers not_owner, never stale data
            engine.set_owned_datasets(())
            engine.node_stats_provider = self.info

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the membership thread (registration happens inside it)."""
        self._thread.start()

    def stop(self, *, deregister: bool = True, timeout: float = 10.0) -> None:
        """Stop heartbeating; with ``deregister`` the leave is clean (the
        coordinator moves this node's assignments immediately instead of
        waiting out the heartbeat timeout), and the node stops claiming
        ownership — a client holding a stale table gets ``not_owner`` (and
        refetches) rather than answers from a node that already left."""
        self._stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            # the agent thread is still blocked inside a coordinator
            # round-trip on this connection; touching (or closing) the
            # client under it would interleave two requests on one socket.
            # Leave the connection alone — the coordinator's heartbeat
            # timeout handles the departure, and the daemon thread dies
            # with the process.
            return
        if deregister and self.node_id is not None:
            try:
                self._request({"op": "deregister", "node_id": self.node_id})
            except OSError:
                pass  # coordinator already gone; timeout-based failover applies
            self.owned = []
            if self.engine is not None:
                self.engine.set_owned_datasets(())
        self._close_client()

    def __enter__(self) -> "NodeAgent":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the membership loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            if self.node_id is None:
                if not self._register_once():
                    self._stop.wait(self._register_backoff)
                    continue
            self._stop.wait(self.heartbeat_interval)
            if self._stop.is_set():
                break
            self._heartbeat_once()

    def _register_once(self) -> bool:
        try:
            response = self._request({"op": "register", "address": self.advertise})
        except OSError as exc:
            self.heartbeat_failures += 1
            log_event(
                "register_failed",
                level=logging.WARNING,
                coordinator=f"{self.coordinator_host}:{self.coordinator_port}",
                advertise=self.advertise,
                error=f"{type(exc).__name__}: {exc}",
                failures=self.heartbeat_failures,
            )
            self._close_client()
            return False
        if not response.get("ok"):
            self.heartbeat_failures += 1
            log_event(
                "register_refused",
                level=logging.WARNING,
                coordinator=f"{self.coordinator_host}:{self.coordinator_port}",
                advertise=self.advertise,
                error=str(response.get("error")),
                failures=self.heartbeat_failures,
            )
            return False
        self.node_id = response["node_id"]
        self.registrations += 1
        self.heartbeat_interval = response.get("heartbeat_interval_ms", 1000) / 1000.0
        self._apply(response)
        return True

    def _heartbeat_once(self) -> None:
        payload: dict[str, Any] = {"op": "heartbeat", "node_id": self.node_id}
        epochs = self._dataset_epochs()
        if epochs:
            # piggyback the per-dataset snapshot epochs so the coordinator
            # can publish the cluster-wide maximum (see repro.dynamic);
            # static snapshots report nothing and cost nothing on the wire
            payload["epochs"] = epochs
        summary = self._health_summary()
        if summary:
            # piggyback the engine's per-dataset metric summary (cumulative
            # counters + a wire-form latency histogram) so the coordinator
            # can aggregate cluster-wide qps/p99/shed-rate without a second
            # scrape channel; engine-less agents report nothing
            payload["summary"] = summary
        try:
            response = self._request(payload)
        except OSError as exc:
            self.heartbeat_failures += 1
            log_event(
                "heartbeat_failed",
                level=logging.WARNING,
                node_id=self.node_id,
                coordinator=f"{self.coordinator_host}:{self.coordinator_port}",
                error=f"{type(exc).__name__}: {exc}",
                failures=self.heartbeat_failures,
            )
            self._close_client()
            return
        if not response.get("ok"):
            # the coordinator restarted and forgot us: register again.  Its
            # version counter restarted too, so the cached one is meaningless
            self.heartbeat_failures += 1
            log_event(
                "heartbeat_refused",
                level=logging.WARNING,
                node_id=self.node_id,
                coordinator=f"{self.coordinator_host}:{self.coordinator_port}",
                error=str(response.get("error")),
                failures=self.heartbeat_failures,
            )
            self.node_id = None
            self.table_version = None
            return
        self.heartbeats_sent += 1
        self._apply(response)

    def _apply(self, response: dict[str, Any]) -> None:
        """Apply a register/heartbeat response's ownership to the engine.

        The version check is an optimisation, not the source of truth: the
        owned list is compared too, so a restarted coordinator whose fresh
        version counter happens to collide with the cached one cannot make
        the node keep serving a stale assignment.
        """
        version = response.get("version")
        owned = response.get("owned")
        if owned is None or (version == self.table_version and list(owned) == self.owned):
            return
        previously_owned = set(self.owned)
        self.table_version = version
        self.owned = list(owned)
        if self.engine is not None:
            self.engine.set_owned_datasets(owned)
            # warm only the newly *gained* shards (dataset load, freeze,
            # community-index load — mutation-serving owners republish the
            # rebuilt index file with every epoch, so the failover target
            # picks up the current one) so a rerouted query is answered
            # from the index instead of re-deriving decompositions on the
            # request path; shards this node already serves are warm and
            # must not be rebuilt on every table change
            gained = [name for name in owned if name not in previously_owned]
            if gained:
                preload = getattr(self.engine, "request_preload", None)
                if preload is not None:
                    preload(gained)
        if self._on_owned is not None:
            self._on_owned(list(owned))

    # ------------------------------------------------------------------
    # coordinator I/O (one keep-alive connection, rebuilt on failure)
    # ------------------------------------------------------------------
    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self._client is None:
            self._client = ServingClient(
                self.coordinator_host, self.coordinator_port, timeout=self._request_timeout
            )
        return self._client.request(payload)

    def _close_client(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    # ------------------------------------------------------------------
    # introspection (the engine's "node" stats block)
    # ------------------------------------------------------------------
    def _dataset_epochs(self) -> dict[str, int]:
        """The engine's per-dataset epochs ({} when static or engine-less)."""
        provider = getattr(self.engine, "dataset_epochs", None)
        if provider is None:
            return {}
        try:
            return dict(provider())
        except Exception:  # noqa: BLE001 - heartbeats must not die on stats
            return {}

    def _health_summary(self) -> dict[str, Any]:
        """The engine's per-dataset metric summary ({} when engine-less)."""
        provider = getattr(self.engine, "health_summary", None)
        if provider is None:
            return {}
        try:
            return dict(provider())
        except Exception:  # noqa: BLE001 - heartbeats must not die on stats
            return {}

    def info(self) -> dict[str, Any]:
        info: dict[str, Any] = {
            "node_id": self.node_id,
            "advertise": self.advertise,
            "coordinator": f"{self.coordinator_host}:{self.coordinator_port}",
            "table_version": self.table_version,
            "owned": list(self.owned),
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeat_failures": self.heartbeat_failures,
            "registrations": self.registrations,
        }
        epochs = self._dataset_epochs()
        if epochs:
            info["epochs"] = epochs
        return info
