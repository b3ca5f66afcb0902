"""Tests for the multi-host cluster tier: coordinator, agents, client.

Three layers of coverage:

* the transport-free :class:`Coordinator` driven directly with a fake
  clock (placement, versioning, heartbeat-timeout failover, rebalance);
* the coordinator wire protocol over a real socket
  (``CoordinatorThread`` + the blocking client);
* end-to-end clusters assembled from in-process pieces — a coordinator
  thread, ``ServerThread`` nodes with :class:`NodeAgent` membership — and
  driven through :class:`ClusterClient`, including a node killed mid-load
  with parity against the dict reference path.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import (
    ClusterClient,
    Coordinator,
    CoordinatorThread,
    NodeAgent,
    parse_address,
)
from repro.experiments.registry import run_algorithm
from repro.serving import ServerThread, ServingClient

FAST = {"heartbeat_interval": 0.1, "heartbeat_timeout": 0.4}


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_coordinator(datasets=("karate", "dolphin"), **kwargs):
    clock = FakeClock()
    kwargs.setdefault("replication", 2)
    coordinator = Coordinator(datasets, clock=clock, **kwargs)
    return coordinator, clock


# ----------------------------------------------------------------------------
# the transport-free control plane
# ----------------------------------------------------------------------------


class TestCoordinatorPlacement:
    def test_register_assigns_and_bumps_version(self):
        coordinator, _ = make_coordinator()
        assert coordinator.version == 0
        response = coordinator.register("10.0.0.1:7531")
        assert response["node_id"] == "n0"
        assert response["owned"] == ["dolphin", "karate"]
        assert response["version"] == coordinator.version == 1
        assert response["heartbeat_interval_ms"] == 2000

    def test_replication_spreads_over_distinct_hosts(self):
        coordinator, _ = make_coordinator()
        for index in range(3):
            coordinator.register(f"10.0.0.{index}:7531")
        table = coordinator.route_table()["table"]
        for addresses in table.values():
            assert len(addresses) == 2
            assert len(set(addresses)) == 2  # two replicas, two hosts

    def test_least_loaded_balances_datasets_across_nodes(self):
        coordinator, _ = make_coordinator(
            datasets=("karate", "dolphin", "mexican", "polblogs"), replication=1
        )
        coordinator.register("10.0.0.1:7531")
        coordinator.register("10.0.0.2:7531")
        per_node = [len(coordinator.owned_by(f"n{i}")) for i in range(2)]
        assert sorted(per_node) == [2, 2]

    def test_degraded_below_replication_until_nodes_join(self):
        coordinator, _ = make_coordinator()
        coordinator.register("10.0.0.1:7531")
        assert all(len(v) == 1 for v in coordinator.route_table()["table"].values())
        coordinator.register("10.0.0.2:7531")
        assert all(len(v) == 2 for v in coordinator.route_table()["table"].values())

    def test_reregistering_address_keeps_identity_and_assignment(self):
        coordinator, _ = make_coordinator()
        first = coordinator.register("10.0.0.1:7531")
        version = coordinator.version
        again = coordinator.register("10.0.0.1:7531")
        assert again["node_id"] == first["node_id"]
        assert again["owned"] == first["owned"]
        assert coordinator.version == version  # nothing moved, no new version

    def test_join_rebalances_with_minimal_churn(self):
        coordinator, _ = make_coordinator(replication=1)  # karate + dolphin
        coordinator.register("10.0.0.1:7531")
        before = coordinator.route_table()["table"]
        coordinator.register("10.0.0.2:7531")
        after = coordinator.route_table()["table"]
        # exactly one dataset moves to the newcomer; the other stays put
        moved = [name for name in before if before[name] != after[name]]
        assert len(moved) == 1
        assert sorted(len(coordinator.owned_by(f"n{i}")) for i in range(2)) == [1, 1]

    def test_join_of_balanced_cluster_is_churn_free(self):
        # 2 datasets x 2 replicas = 4 slots; over 4 nodes every load is 1,
        # so a fifth node has nothing to take (spread stays <= 1)
        coordinator, _ = make_coordinator(replication=2)
        for index in range(4):
            coordinator.register(f"10.0.0.{index}:7531")
        before = coordinator.route_table()
        coordinator.register("10.0.0.9:7531")
        after = coordinator.route_table()
        assert before == after  # same table, same version: nothing moved

    def test_register_without_address_is_structured(self):
        from repro.serving import ProtocolError

        coordinator, _ = make_coordinator()
        with pytest.raises(ProtocolError) as excinfo:
            coordinator.register(None)
        assert excinfo.value.code == "bad_request"


class TestCoordinatorFailover:
    def test_missed_heartbeats_declare_dead_and_promote(self):
        coordinator, clock = make_coordinator()
        coordinator.register("10.0.0.1:7531")
        coordinator.register("10.0.0.2:7531")
        version = coordinator.version
        table = coordinator.route_table()["table"]
        primary = table["karate"][0]
        backup = table["karate"][1]
        clock.advance(7.0)  # past the default timeout (3x the 2s interval)
        coordinator.heartbeat(coordinator._by_address[backup])
        assert coordinator.sweep() == [coordinator._by_address[primary]]
        assert coordinator.version > version
        new_table = coordinator.route_table()["table"]
        # the surviving replica is promoted to primary; no dead addresses
        assert new_table["karate"] == [backup]
        assert coordinator.stats()["failovers"] == 1

    def test_heartbeat_keeps_node_alive(self):
        coordinator, clock = make_coordinator()
        coordinator.register("10.0.0.1:7531")
        for _ in range(5):
            clock.advance(1.5)
            coordinator.heartbeat("n0")
        assert coordinator.sweep() == []

    def test_rejoin_after_death_restores_replication(self):
        coordinator, clock = make_coordinator()
        coordinator.register("10.0.0.1:7531")
        coordinator.register("10.0.0.2:7531")
        clock.advance(7.0)
        coordinator.heartbeat("n1")
        coordinator.sweep()
        degraded = coordinator.version
        coordinator.register("10.0.0.1:7531")  # the node comes back
        assert coordinator.version > degraded
        assert all(len(v) == 2 for v in coordinator.route_table()["table"].values())

    def test_deregister_moves_assignments_immediately(self):
        coordinator, _ = make_coordinator(replication=1)
        coordinator.register("10.0.0.1:7531")
        coordinator.register("10.0.0.2:7531")
        owner = coordinator.route_table()["table"]["karate"][0]
        version = coordinator.version
        coordinator.deregister(coordinator._by_address[owner])
        table = coordinator.route_table()["table"]
        assert coordinator.version > version
        assert table["karate"] and table["karate"][0] != owner

    def test_all_nodes_dead_leaves_empty_sets(self):
        coordinator, clock = make_coordinator()
        coordinator.register("10.0.0.1:7531")
        clock.advance(10.0)
        coordinator.sweep()
        assert all(v == [] for v in coordinator.route_table()["table"].values())

    def test_late_heartbeat_from_declared_dead_node_rejoins(self):
        coordinator, clock = make_coordinator(replication=1)
        coordinator.register("10.0.0.1:7531")
        clock.advance(10.0)
        coordinator.sweep()
        assert coordinator.route_table()["table"]["karate"] == []
        version = coordinator.version
        coordinator.heartbeat("n0")  # a long pause, not a death
        assert coordinator.version > version
        assert coordinator.route_table()["table"]["karate"] == ["10.0.0.1:7531"]


class TestCoordinatorValidation:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            Coordinator(["atlantis"])

    def test_bad_replication_rejected(self):
        with pytest.raises(ValueError):
            Coordinator(["karate"], replication=0)

    def test_bad_routing_rejected(self):
        # host placement is always least-assigned; there is no policy knob
        with pytest.raises(TypeError):
            Coordinator(["karate"], routing="round-robin")

    def test_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError):
            Coordinator(["karate"], heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_parse_address(self):
        assert parse_address("10.0.0.1:7531") == ("10.0.0.1", 7531)
        for bad in ("nocolon", ":7531", "host:notaport", "host:0"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ----------------------------------------------------------------------------
# the wire protocol
# ----------------------------------------------------------------------------


class TestCoordinatorWire:
    def test_register_heartbeat_route_table_stats_over_tcp(self):
        with CoordinatorThread(datasets=["karate"], replication=1, **FAST) as coord:
            with ServingClient(coord.host, coord.port) as client:
                assert client.ping() == {"ok": True, "op": "ping"}
                registered = client.request(
                    {"op": "register", "address": "127.0.0.1:9999"}
                )
                assert registered["ok"] and registered["owned"] == ["karate"]
                beat = client.request(
                    {"op": "heartbeat", "node_id": registered["node_id"]}
                )
                assert beat["ok"] and beat["version"] == registered["version"]
                table = client.request({"op": "route_table"})
                assert table["table"] == {"karate": ["127.0.0.1:9999"]}
                stats = client.request({"op": "stats"})
                assert stats["live_nodes"] == 1
                assert stats["assignments"]["karate"] == [registered["node_id"]]

    def test_unknown_op_and_unknown_node_are_structured(self):
        with CoordinatorThread(datasets=["karate"], **FAST) as coord:
            with ServingClient(coord.host, coord.port) as client:
                bad_op = client.request({"op": "teleport"})
                assert not bad_op["ok"] and bad_op["error"]["code"] == "bad_request"
                bad_node = client.request({"op": "heartbeat", "node_id": "ghost"})
                assert not bad_node["ok"] and bad_node["error"]["code"] == "bad_request"
                assert client.ping()["ok"]  # the connection survived

    def test_shutdown_op(self):
        coord = CoordinatorThread(datasets=["karate"], **FAST)
        with coord:
            with ServingClient(coord.host, coord.port) as client:
                assert client.shutdown() == {"ok": True, "op": "shutdown"}
            coord._thread.join(10)
            assert not coord._thread.is_alive()


# ----------------------------------------------------------------------------
# end-to-end clusters (threads, not subprocesses: the bench covers those)
# ----------------------------------------------------------------------------


class ClusterHarness:
    """A coordinator + N serving nodes with membership agents, in-process."""

    def __init__(self, node_count, *, datasets=("karate", "dolphin"), replication=2):
        self.coordinator = CoordinatorThread(
            datasets=list(datasets), replication=replication, **FAST
        )
        self.datasets = datasets
        self.replication = replication
        self.node_count = node_count
        self.nodes: list[tuple[ServerThread, NodeAgent]] = []

    def __enter__(self):
        self.coordinator.__enter__()
        try:
            for _ in range(self.node_count):
                handle = ServerThread(datasets=[self.datasets[0]])
                handle.__enter__()
                agent = NodeAgent(
                    self.coordinator.host,
                    self.coordinator.port,
                    f"127.0.0.1:{handle.port}",
                    engine=handle.engine,
                )
                agent.start()
                self.nodes.append((handle, agent))
            self.wait_converged()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def wait_converged(self, timeout=10.0):
        want = min(self.replication, len(self.nodes))
        deadline = time.monotonic() + timeout
        with ServingClient(self.coordinator.host, self.coordinator.port) as client:
            while True:
                table = client.request({"op": "route_table"})["table"]
                if all(len(table.get(name, ())) >= want for name in self.datasets):
                    return table
                if time.monotonic() > deadline:
                    raise TimeoutError(f"cluster did not converge: {table}")
                time.sleep(0.02)

    def crash_node(self, index):
        """Simulate a crash: heartbeats stop, sockets drop, no deregister."""
        handle, agent = self.nodes[index]
        agent.stop(deregister=False)
        handle.stop()

    def leave_node(self, index):
        """A clean leave: deregister (and stop claiming ownership) first."""
        handle, agent = self.nodes[index]
        agent.stop(deregister=True)
        handle.stop()

    def __exit__(self, *exc_info):
        for handle, agent in self.nodes:
            try:
                if agent._thread.is_alive():
                    agent.stop()
                if handle._thread.is_alive():
                    handle.stop()
            except (OSError, TimeoutError, RuntimeError):
                pass
        self.coordinator.__exit__(*exc_info)


@pytest.fixture(scope="module")
def reference():
    """Dict-reference results for the small parity workload."""
    from repro.datasets import load_dataset

    graphs = {name: load_dataset(name).graph for name in ("karate", "dolphin")}
    requests = [
        (dataset, algorithm, [node])
        for dataset in ("karate", "dolphin")
        for algorithm in ("kt", "kc")
        for node in (0, 1, 7)
    ]
    return {
        (dataset, algorithm, tuple(nodes)): run_algorithm(
            algorithm, graphs[dataset], nodes
        )
        for dataset, algorithm, nodes in requests
    }


class TestClusterEndToEnd:
    def test_queries_route_to_owners_and_match_reference(self, reference):
        with ClusterHarness(2) as cluster:
            with ClusterClient(
                cluster.coordinator.host, cluster.coordinator.port, failover_timeout=10
            ) as client:
                for (dataset, algorithm, nodes), expected in reference.items():
                    response = client.query(dataset, algorithm, list(nodes))
                    assert response["ok"], response
                    assert response["nodes"] == sorted(expected.nodes, key=repr)
                    failed = bool(expected.extra.get("failed")) or not expected.nodes
                    if not failed:
                        assert response["score"] == expected.score
                # the coordinator saw no data traffic beyond the table fetch
                assert client.counters()["table_fetches"] == 1

    def test_node_stats_expose_membership(self):
        with ClusterHarness(2) as cluster:
            with ClusterClient(
                cluster.coordinator.host, cluster.coordinator.port, failover_timeout=10
            ) as client:
                address = client.owners("karate")[0]
                stats = client.node_stats(address)
                node = stats["node"]
                assert node["advertise"] == address
                assert "karate" in node["owned"]
                assert node["node_id"] is not None
                assert node["registrations"] >= 1

    def test_unowned_dataset_answers_not_owner(self):
        # a node gated to nothing (fresh join, no assignment yet) refuses
        with ServerThread(datasets=["karate"]) as handle:
            handle.engine.set_owned_datasets(())
            with ServingClient(handle.host, handle.port) as client:
                response = client.query("karate", "kt", [0])
                assert not response["ok"]
                assert response["error"]["code"] == "not_owner"
                # membership errors do not load shards or break the server
                assert client.ping()["ok"]

    def test_kill_node_mid_load_fails_over_with_parity(self, reference):
        """The failover satellite: a node dies under load; every in-flight
        and subsequent query completes on surviving replicas, bit-identical
        to the dict reference; the client refetched the routing table; the
        coordinator advances the table version."""
        requests = list(reference.items()) * 4
        with ClusterHarness(3) as cluster:
            with ClusterClient(
                cluster.coordinator.host, cluster.coordinator.port, failover_timeout=15
            ) as client:
                version_before = client.table_version
                fetches_before = client.table_fetches
                completed = []
                failures = []
                killed = threading.Event()
                lock = threading.Lock()

                def worker(offset):
                    rotated = requests[offset:] + requests[:offset]
                    try:
                        for (dataset, algorithm, nodes), expected in rotated:
                            response = client.query(dataset, algorithm, list(nodes))
                            with lock:
                                completed.append(1)
                                if not response["ok"]:
                                    failures.append(response)
                                elif response["nodes"] != sorted(
                                    expected.nodes, key=repr
                                ):
                                    failures.append((nodes, response["nodes"]))
                            if len(completed) >= len(requests) and not killed.is_set():
                                killed.set()
                                cluster.crash_node(0)
                    except Exception as exc:  # noqa: BLE001 - surfaced below
                        failures.append(f"{type(exc).__name__}: {exc}")

                threads = [
                    threading.Thread(target=worker, args=(i * len(requests) // 3,))
                    for i in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert killed.is_set()
                assert not failures, failures[:3]
                assert len(completed) == 3 * len(requests)
                # the kill forced at least one failover + table refetch
                assert client.table_fetches > fetches_before
                # the coordinator declares the node dead and repairs the table
                deadline = time.monotonic() + 10
                while client.refresh_table() <= version_before:
                    assert time.monotonic() < deadline, "version never advanced"
                    time.sleep(0.05)
                dead_address = f"127.0.0.1:{cluster.nodes[0][0].port}"
                for name in ("karate", "dolphin"):
                    owners = client.owners(name)
                    assert owners and dead_address not in owners

    def test_clean_leave_triggers_not_owner_refetch(self):
        """A stale table pointing at a node that cleanly left: the node
        answers not_owner, the client refetches and lands on the new owner."""
        with ClusterHarness(2, datasets=("karate",), replication=1) as cluster:
            with ClusterClient(
                cluster.coordinator.host, cluster.coordinator.port, failover_timeout=15
            ) as client:
                owner = client.owners("karate")
                assert len(owner) == 1
                owner_index = next(
                    index
                    for index, (handle, _) in enumerate(cluster.nodes)
                    if f"127.0.0.1:{handle.port}" == owner[0]
                )
                # warm the pool against the current owner, then move the
                # dataset away by cleanly deregistering that node (its
                # server keeps running, so the stale route gets a real
                # not_owner response rather than a connection error)
                assert client.query("karate", "kc", [0])["ok"]
                handle, agent = cluster.nodes[owner_index]
                agent.stop(deregister=True)
                response = client.query("karate", "kc", [1])
                assert response["ok"], response
                assert client.not_owner_refreshes >= 1
                assert client.owners("karate") != owner
