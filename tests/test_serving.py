"""Tests for the in-process serving engine: routing, caching, coalescing.

The TCP layer has its own test module (``test_serving_server.py``); here
the :class:`~repro.serving.ServingEngine` is driven directly so the cache
/ dedup / batching accounting can be asserted deterministically.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.registry import run_algorithm
from repro.serving import ProtocolError, ServingEngine, parse_request


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------------
# protocol validation
# ----------------------------------------------------------------------------


class TestParseRequest:
    def test_minimal_query(self):
        request = parse_request({"dataset": "karate", "algorithm": "kt", "nodes": [0]})
        assert request.dataset == "karate"
        assert request.nodes == (0,)
        assert request.params == ()

    def test_string_nodes_normalise_like_the_cli(self):
        request = parse_request({"dataset": "d", "algorithm": "a", "nodes": ["3", "alice"]})
        assert request.nodes == (3, "alice")

    def test_array_nodes_are_tuple_ids_normalised_recursively(self):
        request = parse_request(
            {"dataset": "d", "algorithm": "a", "nodes": [[0, 0], [1, ["2", "x"]], 5]}
        )
        assert request.nodes == ((0, 0), (1, (2, "x")), 5)

    def test_params_sorted_into_cache_key(self):
        one = parse_request(
            {"dataset": "d", "algorithm": "a", "nodes": [1], "params": {"k": 4, "eta": 0.5}}
        )
        two = parse_request(
            {"dataset": "d", "algorithm": "a", "nodes": [1], "params": {"eta": 0.5, "k": 4}}
        )
        assert one.cache_key == two.cache_key

    @pytest.mark.parametrize(
        "payload,code",
        [
            ("not a dict", "bad_request"),
            ({}, "bad_request"),
            ({"dataset": "karate"}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt"}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": []}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": "0"}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [0.5]}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [0], "params": []}, "bad_request"),
            (
                {"dataset": "karate", "algorithm": "kt", "nodes": [0], "params": {"k": [4]}},
                "bad_request",
            ),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [True]}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [{"a": 1}]}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [[0, True]]}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [[0, 0.5]]}, "bad_request"),
            ({"dataset": "karate", "algorithm": "kt", "nodes": [[[{}]]]}, "bad_request"),
        ],
    )
    def test_malformed_requests(self, payload, code):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(payload)
        assert excinfo.value.code == code

    def test_protocol_error_pickles_round_trip(self):
        # the worker-process path ships ProtocolError across process boundaries
        import pickle

        error = ProtocolError("bad_query", "node 7 is not in the graph")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.code, clone.message) == (error.code, error.message)

    def test_unknown_names_use_dedicated_codes(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                {"dataset": "nope", "algorithm": "kt", "nodes": [0]}, {"karate"}, {"kt"}
            )
        assert excinfo.value.code == "unknown_dataset"
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                {"dataset": "karate", "algorithm": "nope", "nodes": [0]}, {"karate"}, {"kt"}
            )
        assert excinfo.value.code == "unknown_algorithm"


# ----------------------------------------------------------------------------
# served results are bit-identical to the dict reference path
# ----------------------------------------------------------------------------


class TestServedParity:
    ALGORITHMS = ["FPA", "NCA", "kc", "kt", "kecc", "hightruss", "huang2015"]

    def test_served_results_match_dict_reference(self, karate):
        async def serve_all():
            async with ServingEngine(datasets=["karate"]) as engine:
                return [
                    await engine.query("karate", algorithm, [0, 33])
                    for algorithm in self.ALGORITHMS
                ]

        served = run(serve_all())
        for algorithm, (result, cached, coalesced) in zip(self.ALGORITHMS, served):
            reference = run_algorithm(algorithm, karate.graph, [0, 33])
            assert result.nodes == reference.nodes, algorithm
            assert result.score == reference.score, algorithm
            assert result.extra.get("failed") == reference.extra.get("failed"), algorithm
            assert not cached and not coalesced

    def test_parameter_overrides_flow_through(self, karate):
        async def serve():
            async with ServingEngine(datasets=["karate"]) as engine:
                result, _, _ = await engine.query("karate", "kc", [0], k=4)
                return result

        result = run(serve())
        reference = run_algorithm("kc", karate.graph, [0], k=4)
        assert result.nodes == reference.nodes
        assert result.extra["k"] == 4

    def test_handle_payload_formats_failed_results(self):
        async def serve():
            async with ServingEngine(datasets=["karate"]) as engine:
                # node 11 is outside the 4-core: a failed (but valid) search
                return await engine.handle(
                    {
                        "dataset": "karate",
                        "algorithm": "kc",
                        "nodes": [11],
                        "params": {"k": 4},
                        "id": 42,
                    }
                )

        payload = run(serve())
        assert payload["ok"] and payload["failed"]
        assert payload["nodes"] == [] and payload["size"] == 0
        assert payload["score"] is None  # -inf is not strict JSON
        assert payload["id"] == 42
        assert "reason" in payload


# ----------------------------------------------------------------------------
# cache / coalescing / batching accounting
# ----------------------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_accounting(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                first = await engine.query("karate", "kt", [0])
                second = await engine.query("karate", "kt", [0])
                third = await engine.query("karate", "kt", [33])
                return first, second, third, engine.stats()["shards"]["karate"]

        first, second, third, stats = run(scenario())
        assert not first[1] and second[1] and not third[1]  # cached flags
        assert first[0].nodes == second[0].nodes
        assert stats["queries"] == 3
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 2
        assert stats["executed"] == 2
        assert stats["cache_entries"] == 2

    def test_lru_eviction(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], cache_size=2) as engine:
                await engine.query("karate", "kt", [0])
                await engine.query("karate", "kt", [33])
                await engine.query("karate", "kt", [5])  # evicts [0]
                _, cached_old, _ = await engine.query("karate", "kt", [0])
                _, cached_new, _ = await engine.query("karate", "kt", [5])
                return cached_old, cached_new, engine.shards["karate"].stats()

        cached_old, cached_new, stats = run(scenario())
        assert not cached_old and cached_new
        assert stats["cache_entries"] == 2

    def test_distinct_params_are_distinct_entries(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                await engine.query("karate", "kc", [0], k=3)
                _, cached, _ = await engine.query("karate", "kc", [0], k=4)
                return cached, engine.shards["karate"].stats()

        cached, stats = run(scenario())
        assert not cached
        assert stats["executed"] == 2

    def test_errors_are_not_cached(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                codes = []
                for _ in range(2):
                    try:
                        await engine.query("karate", "kt", [999])
                    except ProtocolError as exc:
                        codes.append(exc.code)
                return codes, engine.shards["karate"].stats()

        codes, stats = run(scenario())
        assert codes == ["bad_query", "bad_query"]
        assert stats["errors"] == 2 and stats["cache_entries"] == 0


class TestCoalescing:
    def test_concurrent_duplicates_execute_once(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                results = await asyncio.gather(
                    *[engine.query("karate", "huang2015", [0, 33]) for _ in range(6)]
                )
                return results, engine.shards["karate"].stats()

        results, stats = run(scenario())
        nodes = {frozenset(result.nodes) for result, _, _ in results}
        assert len(nodes) == 1  # everyone got the same answer
        assert stats["executed"] == 1
        assert stats["coalesced"] == 5
        assert sum(1 for _, _, coalesced in results if coalesced) == 5

    def test_micro_batching_groups_concurrent_load(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                queries = [[n] for n in (0, 1, 2, 3, 33)]
                await asyncio.gather(
                    *[engine.query("karate", "kt", nodes) for nodes in queries]
                )
                return engine.shards["karate"].stats()

        stats = run(scenario())
        assert stats["executed"] == 5
        # concurrent submissions drain into shared micro-batches
        assert stats["batches"] < 5
        assert stats["max_batch_size"] >= 2

    def test_max_batch_bounds_batch_size(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], max_batch=2) as engine:
                await asyncio.gather(
                    *[engine.query("karate", "kt", [n]) for n in (0, 1, 2, 3)]
                )
                return engine.shards["karate"].stats()

        stats = run(scenario())
        assert stats["executed"] == 4
        assert stats["max_batch_size"] <= 2
        assert stats["batches"] >= 2


# ----------------------------------------------------------------------------
# sharding across datasets
# ----------------------------------------------------------------------------


class TestSharding:
    def test_requests_route_to_owning_shard(self):
        async def scenario():
            async with ServingEngine(datasets=["karate", "dolphin"]) as engine:
                await engine.query("karate", "kt", [0])
                await engine.query("dolphin", "kc", [0])
                await engine.query("dolphin", "kc", [0])
                return engine.stats()

        stats = run(scenario())
        assert set(stats["shards"]) == {"karate", "dolphin"}
        assert stats["shards"]["karate"]["queries"] == 1
        assert stats["shards"]["dolphin"]["queries"] == 2
        assert stats["shards"]["dolphin"]["cache_hits"] == 1
        assert stats["totals"]["queries"] == 3

    def test_shards_snapshot_is_frozen_once(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                shard = engine.shards["karate"]
                frozen_before = shard.frozen
                await engine.query("karate", "kt", [0])
                await engine.query("karate", "hightruss", [0])
                # the query-independent truss structure was memoised on the
                # shared snapshot, exactly like the offline batched engine
                cached = {key[0] for key in shard.frozen.shared_cache()}
                return frozen_before is shard.frozen, cached

        same_snapshot, cached = run(scenario())
        assert same_snapshot
        assert "ktruss-structure" in cached

    def test_lazy_shard_loads_on_first_request(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                assert set(engine.shards) == {"karate"}
                await engine.query("figure1", "kc", ["u1"])
                return set(engine.shards)

        assert run(scenario()) == {"karate", "figure1"}

    def test_unknown_preload_dataset_raises_keyerror(self):
        with pytest.raises(KeyError):
            ServingEngine(datasets=["not-a-dataset"])


# ----------------------------------------------------------------------------
# worker-process execution path
# ----------------------------------------------------------------------------


class TestWorkerPool:
    def test_worker_shard_matches_reference(self, karate):
        async def scenario():
            async with ServingEngine(datasets=["karate"], executor="process") as engine:
                first, _, _ = await engine.query("karate", "kt", [0])
                second, cached, _ = await engine.query("karate", "kt", [0])
                return first, second, cached

        first, second, cached = run(scenario())
        reference = run_algorithm("kt", karate.graph, [0])
        assert first.nodes == reference.nodes and first.score == reference.score
        assert cached and second.nodes == first.nodes

    def test_batch_loop_survives_executor_failure(self):
        """An exception escaping the whole batch (e.g. a worker process
        dying mid-batch) fails that batch structurally instead of killing
        the replica's consumer task and wedging the shard."""

        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                replica = engine.shards["karate"].replica_set.replicas[0]
                real_executor = replica.executor

                class Broken:
                    kind = "broken"

                    async def start(self):
                        pass

                    async def run_batch(self, requests):
                        replica.executor = real_executor  # break exactly once
                        raise RuntimeError("worker is gone")

                    async def close(self):
                        pass

                replica.executor = Broken()
                code = None
                try:
                    await engine.query("karate", "kt", [0])
                except ProtocolError as exc:
                    code = exc.code
                # the loop survived: the next request executes normally
                result, _, _ = await engine.query("karate", "kt", [0])
                return code, result

        code, result = run(scenario())
        assert code == "internal_error"
        assert result.nodes

    def test_closed_engine_refuses_new_shards(self):
        async def scenario():
            engine = ServingEngine(datasets=["karate"])
            await engine.start()
            await engine.close()
            try:
                await engine.query("karate", "kt", [0])
            except ProtocolError as exc:
                return exc.code

        assert run(scenario()) == "internal_error"

    def test_submit_to_closed_shard_fails_fast(self):
        """A submit racing past close() must error, not await forever."""

        async def scenario():
            engine = ServingEngine(datasets=["karate"])
            await engine.start()
            shard = engine.shards["karate"]
            await engine.close()
            try:
                await asyncio.wait_for(
                    shard.submit(parse_request(
                        {"dataset": "karate", "algorithm": "kt", "nodes": [0]}
                    )),
                    timeout=5,
                )
            except ProtocolError as exc:
                return exc.code

        assert run(scenario()) == "internal_error"


# ----------------------------------------------------------------------------
# stats plumbing
# ----------------------------------------------------------------------------


class TestStats:
    def test_stats_payload_is_json_serialisable(self):
        import json

        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                await engine.query("karate", "kt", [0])
                return await engine.handle({"op": "stats"})

        payload = run(scenario())
        assert payload["ok"] and payload["op"] == "stats"
        encoded = json.dumps(payload)
        assert "latency_ms" in encoded

    def test_ping_and_unknown_op(self):
        async def scenario():
            async with ServingEngine() as engine:
                ping = await engine.handle({"op": "ping", "id": "x"})
                bogus = await engine.handle({"op": "florble"})
                not_a_dict = await engine.handle([1, 2])
                return ping, bogus, not_a_dict

        ping, bogus, not_a_dict = run(scenario())
        assert ping == {"ok": True, "op": "ping", "id": "x"}
        assert not bogus["ok"] and bogus["error"]["code"] == "bad_request"
        assert not not_a_dict["ok"]
