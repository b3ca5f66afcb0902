"""Multi-host serving tier: coordinator, membership, routing, failover.

``repro.cluster`` scales the serving subsystem past one machine.  A
**coordinator** process (``repro coordinator``) owns the control plane:
node processes started with ``repro serve --join <coord-addr>`` register
and heartbeat, the coordinator spreads each dataset's replica set across
the live nodes (each new replica to the least-assigned host, the same
least-loaded choice the serving layer makes among replicas), detects dead
nodes on missed heartbeats, promotes surviving replicas, and publishes a
**versioned routing table**.  Clients
(:class:`ClusterClient`) fetch the table once and send queries **directly
to the owning nodes** — the coordinator never touches the data path — and
recover from staleness (``not_owner`` → refetch) and node loss
(connection failure → quarantine + fail over to another replica).

Layers:

* :mod:`~repro.cluster.coordinator` — membership + placement + the
  versioned table, behind the same line-delimited JSON transport as the
  query protocol (``register`` / ``heartbeat`` / ``route_table`` ops);
* :mod:`~repro.cluster.node` — the :class:`NodeAgent` a serving process
  runs to join, heartbeat and apply ownership changes to its engine;
* :mod:`~repro.cluster.client` — the :class:`ClusterClient` wrapping one
  keep-alive :class:`~repro.serving.pool.ServingClientPool` per node.
"""

from .client import ClusterClient, ClusterError
from .coordinator import (
    Coordinator,
    CoordinatorServer,
    CoordinatorThread,
    run_coordinator,
)
from .node import NodeAgent, parse_address

__all__ = [
    "Coordinator",
    "CoordinatorServer",
    "CoordinatorThread",
    "run_coordinator",
    "NodeAgent",
    "parse_address",
    "ClusterClient",
    "ClusterError",
]
