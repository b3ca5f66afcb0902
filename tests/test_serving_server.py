"""Tests for the TCP front end: concurrent clients, errors, clean shutdown.

A real asyncio server runs in a background thread (``ServerThread``) and
blocking ``ServingClient`` connections drive it — the same stack
``repro serve`` and the load generator use.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.datasets import load_dataset
from repro.experiments.registry import run_algorithm
from repro.serving import ServerThread, ServingClient


@pytest.fixture(scope="module")
def server():
    """One server (karate + dolphin shards) shared by this module's tests."""
    with ServerThread(datasets=["karate", "dolphin"]) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServingClient(server.host, server.port) as connection:
        yield connection


class TestProtocolOverTcp:
    def test_ping(self, client):
        assert client.ping() == {"ok": True, "op": "ping"}

    def test_query_round_trip_matches_reference(self, client, karate):
        response = client.query("karate", "kt", [0], k=4)
        reference = run_algorithm("kt", karate.graph, [0], k=4)
        assert response["ok"] and not response["failed"]
        assert response["nodes"] == sorted(reference.nodes, key=repr)
        assert response["size"] == reference.size
        assert response["score"] == reference.score  # bit-identical float
        assert response["extra"]["k"] == 4

    def test_request_id_echoed(self, client):
        response = client.request(
            {"op": "query", "dataset": "karate", "algorithm": "kc", "nodes": [0], "id": "req-1"}
        )
        assert response["id"] == "req-1"

    def test_repeat_query_is_cached(self, client):
        first = client.query("karate", "hightruss", [2])
        second = client.query("karate", "hightruss", [2])
        assert not first["failed"]
        assert second["cached"]
        assert second["nodes"] == first["nodes"]
        # elapsed_ms replays the original execution; served_ms is this
        # request's actual wall time in the service
        assert second["elapsed_ms"] == first["elapsed_ms"]
        assert "served_ms" in second

    def test_structured_errors_keep_connection_alive(self, client):
        unknown_ds = client.query("atlantis", "kt", [0])
        assert not unknown_ds["ok"] and unknown_ds["error"]["code"] == "unknown_dataset"
        unknown_algo = client.query("karate", "quantum", [0])
        assert not unknown_algo["ok"] and unknown_algo["error"]["code"] == "unknown_algorithm"
        bad_node = client.query("karate", "kt", [123456])
        assert not bad_node["ok"] and bad_node["error"]["code"] == "bad_query"
        malformed = client.send_raw(b"{this is not json")
        assert not malformed["ok"] and malformed["error"]["code"] == "bad_request"
        empty_nodes = client.request(
            {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": []}
        )
        assert not empty_nodes["ok"] and empty_nodes["error"]["code"] == "bad_request"
        # the server survived all of the above on the same connection
        assert client.ping()["ok"]

    def test_stats_reports_both_shards(self, client):
        client.query("karate", "kc", [0])
        client.query("dolphin", "kc", [0])
        stats = client.stats()
        assert stats["ok"]
        assert {"karate", "dolphin"} <= set(stats["shards"])
        dolphin = stats["shards"]["dolphin"]
        assert dolphin["queries"] >= 1
        assert "latency_ms" in dolphin and "p95" in dolphin["latency_ms"]


class TestTupleNodeIds:
    def test_ring_of_cliques_answers_tuple_ids_sent_as_arrays(self):
        """``ring-of-cliques`` names its nodes ``(clique, member)``: a JSON
        array is a tuple id, and an answer's nodes can be sent back."""
        with ServerThread(datasets=["ring-of-cliques"]) as handle:
            with ServingClient(handle.host, handle.port) as connection:
                response = connection.request(
                    {
                        "op": "query",
                        "dataset": "ring-of-cliques",
                        "algorithm": "NCA",
                        "nodes": [[0, 0]],
                    }
                )
                assert response["ok"] and not response["failed"]
                graph = load_dataset("ring-of-cliques").graph
                reference = run_algorithm("NCA", graph, [(0, 0)])
                expected = [list(node) for node in sorted(reference.nodes, key=repr)]
                assert response["query"] == [[0, 0]]
                assert response["nodes"] == expected
                assert response["score"] == reference.score
                # an answer's node ids round-trip as the next query
                again = connection.query(
                    "ring-of-cliques", "kc", response["nodes"][-1:], k=2
                )
                assert again["ok"] and not again["failed"]
                assert response["nodes"][-1] in again["nodes"]

    def test_deeply_nested_arrays_are_bad_request(self, client):
        # 600 levels decode as JSON but overflow the node-id normaliser;
        # 5000 overflow the JSON decoder itself
        for depth in (600, 5000):
            nodes = "[" * depth + "0" + "]" * depth
            line = '{"dataset": "karate", "algorithm": "kc", "nodes": [%s]}' % nodes
            response = client.send_raw(line.encode())
            assert not response["ok"] and response["error"]["code"] == "bad_request"
        assert client.ping()["ok"]


class TestConcurrentClients:
    def test_many_clients_one_shard(self, server, karate):
        """Concurrent closed-loop clients hammering one shard stay correct."""
        queries = [[0], [1], [2], [33], [0], [1]]
        reference = {
            tuple(nodes): run_algorithm("kt", karate.graph, nodes) for nodes in queries
        }
        failures: list[str] = []

        def worker(worker_id: int) -> None:
            try:
                with ServingClient(server.host, server.port) as connection:
                    for round_index in range(3):
                        for nodes in queries:
                            response = connection.query("karate", "kt", nodes)
                            expected = reference[tuple(nodes)]
                            if response["failed"]:
                                if not expected.extra.get("failed"):
                                    failures.append(f"{worker_id}: unexpected failure {nodes}")
                                continue
                            if response["nodes"] != sorted(expected.nodes, key=repr):
                                failures.append(f"{worker_id}: wrong nodes for {nodes}")
                            if response["score"] != expected.score:
                                failures.append(f"{worker_id}: wrong score for {nodes}")
            except Exception as exc:  # noqa: BLE001 - surfaced via failures
                failures.append(f"{worker_id}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not failures, failures

    def test_duplicate_load_is_deduplicated_or_cached(self, server):
        """The same query from many clients is executed far fewer times."""
        stats_before = _shard_stats(server, "dolphin")

        def worker() -> None:
            with ServingClient(server.host, server.port) as connection:
                for _ in range(5):
                    connection.query("dolphin", "hightruss", [7])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        stats_after = _shard_stats(server, "dolphin")
        served = stats_after["queries"] - stats_before["queries"]
        executed = stats_after["executed"] - stats_before["executed"]
        assert served == 20
        assert executed == 1  # one real execution; 19 hits/coalesces
        reused = (stats_after["cache_hits"] - stats_before["cache_hits"]) + (
            stats_after["coalesced"] - stats_before["coalesced"]
        )
        assert reused == 19


def _shard_stats(server, dataset: str) -> dict:
    with ServingClient(server.host, server.port) as connection:
        return connection.stats()["shards"][dataset]


class TestShutdown:
    def test_clean_shutdown_and_port_release(self):
        handle = ServerThread(datasets=["karate"])
        with handle:
            with ServingClient(handle.host, handle.port) as connection:
                assert connection.query("karate", "kc", [0])["ok"]
        # context exit sent shutdown and joined the thread
        assert not handle._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port), timeout=2).close()

    def test_shutdown_op_reply(self):
        with ServerThread(datasets=["karate"]) as handle:
            with ServingClient(handle.host, handle.port) as connection:
                response = connection.shutdown()
                assert response == {"ok": True, "op": "shutdown"}
            handle._thread.join(20)
            assert not handle._thread.is_alive()

    def test_shutdown_with_idle_connection_still_completes(self):
        """An idle second connection must not hang shutdown (on Python >= 3.12
        ``Server.wait_closed`` also waits for connection handlers, so the
        server has to close lingering connections itself)."""
        with ServerThread(datasets=["karate"]) as handle:
            idler = ServingClient(handle.host, handle.port)
            try:
                assert idler.ping()["ok"]
                with ServingClient(handle.host, handle.port) as connection:
                    assert connection.shutdown()["ok"]
                handle._thread.join(20)
                assert not handle._thread.is_alive()
            finally:
                idler.close()


class TestReplicatedServer:
    def test_replicated_server_serves_and_reports_replicas(self, karate):
        """The placement kwargs flow through ServerThread → ServingEngine,
        and the per-replica breakdown is visible over the wire."""
        with ServerThread(datasets=["karate"], replicas=2, max_queue=64) as handle:
            with ServingClient(handle.host, handle.port) as connection:
                for node in (0, 1, 2, 33):
                    response = connection.query("karate", "kt", [node])
                    reference = run_algorithm("kt", karate.graph, [node])
                    assert response["ok"]
                    assert response["nodes"] == sorted(reference.nodes, key=repr)
                stats = connection.stats()
        assert stats["placement"]["replicas"] == 2
        shard = stats["shards"]["karate"]
        assert shard["replica_count"] == 2 and shard["max_queue"] == 64
        assert len(shard["replicas"]) == 2
        # sequential queries each find both replicas idle: the least-loaded
        # tie-break keeps them on replica 0
        assert [replica["executed"] for replica in shard["replicas"]] == [4, 0]


class TestOversizedRequests:
    def test_overlong_line_returns_structured_error(self, server):
        from repro.serving.server import MAX_LINE_BYTES

        with ServingClient(server.host, server.port) as connection:
            huge = b'{"op": "query", "pad": "' + b"x" * (MAX_LINE_BYTES + 1024) + b'"}'
            response = connection.send_raw(huge)
            assert not response["ok"]
            assert response["error"]["code"] == "bad_request"
            assert "exceeds" in response["error"]["message"]
        # the server itself survives (that connection is closed, others work)
        with ServingClient(server.host, server.port) as connection:
            assert connection.ping()["ok"]

    def test_large_but_legal_response_round_trips(self, client):
        # dblp-sized responses (thousands of nodes) stay under the limit
        response = client.query("karate", "hightruss", [0])
        assert response["ok"] and len(response["nodes"]) == response["size"]
