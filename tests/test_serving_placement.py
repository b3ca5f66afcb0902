"""Tests for the placement/replication/admission layers of the serving stack.

Covers the four PR-4 layers directly against the in-process engine:
least-loaded routing, replica sets, executor strategies (including the
dedicated worker-process replicas), bounded-queue admission control with
``overloaded`` shedding, graceful drain, and the stats schema dashboards
rely on.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.experiments.registry import run_algorithm
from repro.serving import (
    ProtocolError,
    ReplicaSet,
    ServingEngine,
    error_payload,
    parse_replica_spec,
    parse_request,
)


def run(coro):
    return asyncio.run(coro)


class GateExecutor:
    """A stub executor whose batches block until the test opens the gate."""

    kind = "gate"

    def __init__(self):
        self.gate = asyncio.Event()
        self.batches = 0

    async def start(self):
        pass

    async def run_batch(self, requests):
        self.batches += 1
        await self.gate.wait()
        return [("done", request.cache_key) for request in requests]

    async def close(self):
        pass

    def describe(self):
        return {"kind": self.kind}


async def _gate_replicas(engine, dataset):
    """Swap every replica's executor of ``dataset``'s shard for a gate."""
    shard = engine.shards[dataset]
    gates = []
    for replica in shard.replica_set.replicas:
        gate = GateExecutor()
        replica.executor = gate
        gates.append(gate)
    return shard, gates


async def _wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0)


# ----------------------------------------------------------------------------
# routing: the least-loaded replica, ties to the lowest index
# ----------------------------------------------------------------------------


class FakeReplica:
    def __init__(self, index, load):
        self.index = index
        self.load = load


def _route(replicas):
    return ReplicaSet(replicas, published=None).route()


class TestRoutingPolicies:
    def test_least_loaded_picks_smallest_queue(self):
        replicas = [FakeReplica(0, 2), FakeReplica(1, 0), FakeReplica(2, 1)]
        assert _route(replicas).index == 1

    def test_least_loaded_ties_break_on_index(self):
        replicas = [FakeReplica(0, 1), FakeReplica(1, 1)]
        assert _route(replicas).index == 0

    def test_sequential_work_stays_on_replica_0(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], replicas=2) as engine:
                for node in (0, 1, 2, 33):
                    await engine.query("karate", "kt", [node])
                return engine.shards["karate"].replica_set.stats()

        # each query finds both replicas idle, so the tie-break keeps them
        # all on replica 0
        per_replica = run(scenario())
        assert [replica["executed"] for replica in per_replica] == [4, 0]

    def test_least_loaded_routes_around_a_busy_replica(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], replicas=2) as engine:
                shard, gates = await _gate_replicas(engine, "karate")
                r0, r1 = shard.replica_set.replicas
                t1 = asyncio.create_task(engine.query("karate", "kt", [0]))
                # replica 0 wins the tie-break and starts executing
                await _wait_until(lambda: r0.inflight == 1)
                t2 = asyncio.create_task(engine.query("karate", "kt", [1]))
                # replica 1 is idle, so the least-loaded policy must pick it
                await _wait_until(lambda: r1.inflight == 1)
                # with both replicas busy the tie-break sends the next
                # request to replica 0's queue
                t3 = asyncio.create_task(engine.query("karate", "kt", [2]))
                await _wait_until(lambda: r0.qsize() == 1)
                layout = (r0.inflight, r1.inflight, r0.qsize(), r1.qsize())
                for gate in gates:
                    gate.gate.set()
                await asyncio.gather(t1, t2, t3)
                return layout

        assert run(scenario()) == (1, 1, 1, 0)


# ----------------------------------------------------------------------------
# replica-count configuration
# ----------------------------------------------------------------------------


class TestReplicaConfiguration:
    def test_per_dataset_override(self):
        async def scenario():
            async with ServingEngine(
                datasets=["karate", "dolphin"],
                replicas=1,
                replica_overrides={"dolphin": 3},
            ) as engine:
                return (
                    len(engine.shards["karate"].replica_set),
                    len(engine.shards["dolphin"].replica_set),
                )

        assert run(scenario()) == (1, 3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ServingEngine(replicas=0)
        with pytest.raises(ValueError):
            ServingEngine(max_queue=-1)
        with pytest.raises(ValueError):
            ServingEngine(max_batch=0)  # would silently disable micro-batching
        with pytest.raises(ValueError):
            ServingEngine(executor="quantum")
        with pytest.raises(ValueError, match="cache_size"):
            # checked up front, not on the first query of a lazy shard load
            ServingEngine(cache_size=-1)
        with pytest.raises(KeyError):
            ServingEngine(replica_overrides={"atlantis": 2})
        with pytest.raises(ValueError, match="inline, process"):
            # the message lists the executors that exist
            ServingEngine(executor="pool")

    @pytest.mark.parametrize("removed", [{"routing": "round-robin"}, {"epoch_threshold": 3}])
    def test_removed_knobs_are_not_parameters(self, removed):
        # snapshot= is covered by test_shared_snapshot.py
        with pytest.raises(TypeError):
            ServingEngine(**removed)

    def test_parse_replica_spec(self):
        known = {"karate", "dolphin"}
        assert parse_replica_spec(["2"], known) == (2, {})
        assert parse_replica_spec(["2", "karate=3"], known) == (2, {"karate": 3})
        assert parse_replica_spec(["dolphin=4"], known) == (1, {"dolphin": 4})
        with pytest.raises(ValueError):
            parse_replica_spec(["zero"], known)
        with pytest.raises(ValueError):
            parse_replica_spec(["0"], known)
        with pytest.raises(ValueError):
            parse_replica_spec(["karate=x"], known)
        with pytest.raises(ValueError):
            parse_replica_spec(["atlantis=2"], known)
        with pytest.raises(ValueError):
            parse_replica_spec(["2", "3"], known)  # conflicting defaults


# ----------------------------------------------------------------------------
# executor strategies: replicated results stay bit-identical to the dict path
# ----------------------------------------------------------------------------


class TestExecutorParity:
    ALGORITHMS = ["FPA", "kc", "kt", "hightruss", "huang2015"]

    def _parity(self, karate, **engine_kwargs):
        async def serve_all():
            async with ServingEngine(datasets=["karate"], **engine_kwargs) as engine:
                results = [
                    await engine.query("karate", algorithm, [0, 33])
                    for algorithm in self.ALGORITHMS
                ]
                return results, engine.stats()["shards"]["karate"]

        served, stats = run(serve_all())
        for algorithm, (result, _, _) in zip(self.ALGORITHMS, served):
            reference = run_algorithm(algorithm, karate.graph, [0, 33])
            assert result.nodes == reference.nodes, algorithm
            assert result.score == reference.score, algorithm
        return stats

    def test_inline_replicas_match_reference(self, karate):
        stats = self._parity(karate, replicas=2)
        assert stats["executor"] == "inline" and stats["replica_count"] == 2

    def test_worker_process_replicas_match_reference(self, karate):
        """Worker processes run on the host's snapshot (attached zero-copy
        when shared memory is available, a private freeze otherwise); results
        must stay bit-identical to the dict reference path either way."""
        stats = self._parity(karate, replicas=2, executor="process")
        assert stats["executor"] == "process" and stats["replica_count"] == 2
        assert stats["executed"] == len(self.ALGORITHMS)

    def test_worker_process_maps_structured_errors(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], executor="process") as engine:
                try:
                    await engine.query("karate", "kt", [999])
                except ProtocolError as exc:
                    return exc.code

        assert run(scenario()) == "bad_query"


# ----------------------------------------------------------------------------
# admission control: bounded queues shed with `overloaded`
# ----------------------------------------------------------------------------


class TestAdmissionControl:
    def test_flood_of_distinct_queries_is_shed(self):
        """With the queue bound at 1: one executing batch, one queued
        request, and every further distinct (uncacheable) query is shed
        with a structured `overloaded` + retry_after_ms."""

        async def scenario():
            engine = ServingEngine(datasets=["karate"], max_queue=1)
            await engine.start()
            shard, gates = await _gate_replicas(engine, "karate")
            replica = shard.replica_set.replicas[0]

            first = asyncio.create_task(engine.query("karate", "kt", [0]))
            await _wait_until(lambda: replica.inflight == 1)
            second = asyncio.create_task(engine.query("karate", "kt", [1]))
            await _wait_until(lambda: replica.qsize() == 1)

            sheds = []
            for node in (2, 3):
                try:
                    await engine.query("karate", "kt", [node])
                except ProtocolError as exc:
                    sheds.append(exc)

            # a duplicate of an admitted request still coalesces: admission
            # control only applies to work that would *grow* the queue
            coalesce_task = asyncio.create_task(engine.query("karate", "kt", [1]))
            await asyncio.sleep(0)

            gates[0].gate.set()
            await asyncio.gather(first, second, coalesce_task)
            stats = shard.stats()
            await engine.close()
            return sheds, stats

        sheds, stats = run(scenario())
        assert [exc.code for exc in sheds] == ["overloaded", "overloaded"]
        assert all(isinstance(exc.retry_after_ms, int) for exc in sheds)
        assert all(exc.retry_after_ms > 0 for exc in sheds)
        assert stats["shed"] == 2
        assert stats["errors"] == 0  # sheds are counted separately
        assert stats["coalesced"] == 1
        assert stats["max_queue"] == 1 and stats["max_queue_depth"] == 1

    def test_unbounded_queue_never_sheds(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                await asyncio.gather(
                    *[engine.query("karate", "kt", [node]) for node in range(5)]
                )
                return engine.shards["karate"].stats()["shed"]

        assert run(scenario()) == 0

    def test_retried_requests_are_counted(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                await engine.handle(
                    {"dataset": "karate", "algorithm": "kt", "nodes": [0]}
                )
                await engine.handle(
                    {"dataset": "karate", "algorithm": "kt", "nodes": [0], "attempt": 2}
                )
                return engine.stats()

        stats = run(scenario())
        assert stats["shards"]["karate"]["retried"] == 1
        assert stats["totals"]["retried"] == 1

    def test_attempt_is_not_part_of_the_cache_key(self):
        original = parse_request({"dataset": "d", "algorithm": "a", "nodes": [1]})
        retry = parse_request(
            {"dataset": "d", "algorithm": "a", "nodes": [1], "attempt": 3}
        )
        assert retry.attempt == 3
        assert original.cache_key == retry.cache_key

    @pytest.mark.parametrize("attempt", [-1, "2", 1.5, True])
    def test_malformed_attempt_rejected(self, attempt):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                {"dataset": "d", "algorithm": "a", "nodes": [1], "attempt": attempt}
            )
        assert excinfo.value.code == "bad_request"

    def test_overloaded_error_payload_carries_retry_after(self):
        payload = error_payload(ProtocolError("overloaded", "full", retry_after_ms=42))
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["retry_after_ms"] == 42
        # other codes stay unchanged: no retry_after_ms key at all
        plain = error_payload(ProtocolError("bad_query", "nope"))
        assert "retry_after_ms" not in plain["error"]

    def test_protocol_error_pickles_retry_after(self):
        error = ProtocolError("overloaded", "full", retry_after_ms=17)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.code, clone.message, clone.retry_after_ms) == (
            "overloaded",
            "full",
            17,
        )


# ----------------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------------


class TestDrain:
    def test_drain_finishes_inflight_and_fails_queued(self):
        """close(): the executing batch completes (its clients get real
        results); queued-but-unstarted requests get structured errors."""

        async def scenario():
            engine = ServingEngine(datasets=["karate"])
            await engine.start()
            shard, gates = await _gate_replicas(engine, "karate")
            replica = shard.replica_set.replicas[0]

            inflight = asyncio.create_task(engine.query("karate", "kt", [0]))
            await _wait_until(lambda: replica.inflight == 1)
            queued = [
                asyncio.create_task(engine.query("karate", "kt", [node]))
                for node in (1, 2)
            ]
            await _wait_until(lambda: replica.qsize() == 2)

            closer = asyncio.create_task(engine.close())
            await asyncio.sleep(0)
            assert not closer.done()  # drain waits for the in-flight batch
            gates[0].gate.set()
            await closer

            inflight_result = await inflight
            queued_outcomes = []
            for task in queued:
                try:
                    await task
                    queued_outcomes.append("ok")
                except ProtocolError as exc:
                    queued_outcomes.append(exc.code)
            return inflight_result, queued_outcomes

        (result, _, _), queued_outcomes = run(scenario())
        assert result[0] == "done"  # the gate executor's fake payload
        assert queued_outcomes == ["internal_error", "internal_error"]

    def test_submit_after_close_fails_fast(self):
        async def scenario():
            engine = ServingEngine(datasets=["karate"])
            await engine.start()
            shard = engine.shards["karate"]
            await engine.close()
            try:
                await asyncio.wait_for(
                    shard.submit(
                        parse_request(
                            {"dataset": "karate", "algorithm": "kt", "nodes": [0]}
                        )
                    ),
                    timeout=5,
                )
            except ProtocolError as exc:
                return exc.code

        assert run(scenario()) == "internal_error"


# ----------------------------------------------------------------------------
# the stats schema dashboards rely on
# ----------------------------------------------------------------------------


class TestStatsSchema:
    SHARD_KEYS = {
        "dataset",
        "nodes",
        "edges",
        "executor",
        "snapshot",
        "replica_count",
        "queries",
        "cache_hits",
        "cache_misses",
        "coalesced",
        "batches",
        "executed",
        "errors",
        "shed",
        "retried",
        "max_queue",
        "queue_depth",
        "max_queue_depth",
        "max_batch_size",
        "cache_entries",
        "replicas",
        "latency_ms",
        "index",
    }
    REPLICA_KEYS = {
        "replica",
        "executor",
        "queued",
        "max_queued",
        "inflight",
        "batches",
        "executed",
        "errors",
        "max_batch_size",
    }
    TOTAL_KEYS = {
        "queries",
        "cache_hits",
        "cache_misses",
        "coalesced",
        "batches",
        "executed",
        "errors",
        "shed",
        "retried",
        "index_hits",
    }

    def test_stats_schema_is_stable(self):
        import json

        async def scenario():
            async with ServingEngine(
                datasets=["karate"], replicas=2, max_queue=8
            ) as engine:
                await engine.query("karate", "kt", [0])
                await engine.query("karate", "kt", [0])
                return await engine.handle({"op": "stats"})

        payload = run(scenario())
        assert payload["ok"] and payload["op"] == "stats"
        json.dumps(payload)  # JSON-serialisable end to end

        assert set(payload["placement"]) == {
            "executor",
            "index",
            "index_dir",
            "replicas",
            "replica_overrides",
            "max_queue",
            "epochs",
        }
        # a static server: epochs off, no per-shard epoch block
        assert payload["placement"]["epochs"] is False
        shard = payload["shards"]["karate"]
        assert set(shard) == self.SHARD_KEYS
        # no index file here, so the tier reports the executed fallback
        assert shard["index"]["effective"] == "executed"
        assert shard["index"]["hits"] == 0
        assert payload["totals"]["index_hits"] == 0
        assert shard["replica_count"] == 2 and len(shard["replicas"]) == 2
        for replica_stats in shard["replicas"]:
            assert set(replica_stats) == self.REPLICA_KEYS
        assert set(payload["totals"]) == self.TOTAL_KEYS
        assert shard["max_queue"] == 8
        assert shard["queries"] == 2 and shard["cache_hits"] == 1
