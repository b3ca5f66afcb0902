"""Tests for the precomputed community-search index tier (repro.graph.index).

Four concerns, mirroring the index's lifecycle:

* **query parity** — every ``kc`` / ``kt`` / ``hightruss`` /
  ``huang2015`` / ``kecc`` answer served from the index (success,
  failure *and* error) is bit-identical to the executed baselines,
  across connected, multi-component and isolated-node graphs and for
  ``k`` values with no community at all;
* **serialisation** — the versioned on-disk format round-trips, missing
  / truncated / corrupt / stale files surface structured
  :class:`GraphError`\\ s (a mutated dataset invalidates its index), and
  files of any other format version are rejected with a rebuild hint;
* **zero-copy sharing** — the flat arrays travel through one shared
  segment, attached copies answer identically, pickling an attached
  index re-attaches instead of copying, and nothing leaks;
* **serving integration** — the engine's ``index`` modes (auto /
  require / off), per-shard hit counters, the one-segment-per-host
  invariant under process replicas, worker-crash respawn, and the CLI's
  ``index build`` / ``index inspect`` commands.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.baselines import (
    closest_truss_community,
    highest_truss_community,
    kcore_community,
    kecc_community,
    ktruss_community,
)
from repro.cli import main
from repro.datasets import load_dataset
from repro.graph import (
    Graph,
    GraphError,
    build_index,
    dataset_digest,
    freeze,
    index_path,
    live_segment_names,
    load_index,
    save_index,
    shared_memory_available,
)
from repro.serving import ServingEngine


def run(coro):
    return asyncio.run(coro)


def observable(result):
    """Everything a client can see of a result except the timing."""
    return (
        frozenset(result.nodes),
        frozenset(result.query_nodes),
        result.algorithm,
        result.score,
        result.objective_name,
        dict(result.extra),
    )


BASELINES = {
    "kc": kcore_community,
    "kt": ktruss_community,
    "hightruss": highest_truss_community,
    "huang2015": closest_truss_community,
    "kecc": kecc_community,
}


def assert_same_answer(index, baseline_graph, algorithm, queries, **params):
    """The index and the executed baseline must agree bit-for-bit —
    including on *which* error they raise and with what message."""
    try:
        expected = observable(BASELINES[algorithm](baseline_graph, queries, **params))
        expected_error = None
    except GraphError as exc:
        expected = None
        expected_error = str(exc)
    try:
        # graph rides along for huang2015's greedy phase; the others ignore it
        got = observable(
            index.search(algorithm, queries, graph=baseline_graph, **params)
        )
        got_error = None
    except GraphError as exc:
        got = None
        got_error = str(exc)
    assert got == expected, (algorithm, queries, params)
    assert got_error == expected_error, (algorithm, queries, params)


class TestQueryParity:
    @pytest.mark.parametrize(
        "name", ["figure1", "karate", "dolphin", "mexican", "ring-of-cliques"]
    )
    def test_bundled_dataset_parity(self, name):
        dataset = load_dataset(name)
        index = build_index(dataset.graph, dataset=name)
        nodes = sorted(dataset.graph.nodes(), key=repr)
        sample = nodes[:: max(1, len(nodes) // 8)]
        for node in sample:
            # beyond kmax on purpose: "no community at this k" must match too
            for k in range(0, index.meta["core_kmax"] + 2):
                assert_same_answer(index, dataset.graph, "kc", [node], k=k)
            for k in range(2, index.meta["truss_kmax"] + 2):
                assert_same_answer(index, dataset.graph, "kt", [node], k=k)
            assert_same_answer(index, dataset.graph, "hightruss", [node])
        # multi-node queries, including cross-community pairs
        for pair in zip(sample, sample[1:]):
            assert_same_answer(index, dataset.graph, "kc", list(pair), k=2)
            assert_same_answer(index, dataset.graph, "kt", list(pair), k=3)
            assert_same_answer(index, dataset.graph, "hightruss", list(pair))
        # huang2015 and kecc against a frozen
        # baseline (the executed kecc path memoises its partitions there,
        # which keeps the repeated queries honest *and* fast)
        frozen = freeze(dataset.graph)
        for node in sample:
            assert_same_answer(index, frozen, "huang2015", [node])
            assert_same_answer(index, frozen, "kecc", [node])
        for pair in zip(sample, sample[1:]):
            assert_same_answer(index, frozen, "huang2015", list(pair))
            assert_same_answer(index, frozen, "kecc", list(pair), k=2)

    def test_default_k_matches_registry_partials(self, karate_graph):
        index = build_index(karate_graph, dataset="karate")
        assert_same_answer(index, karate_graph, "kc", [0])  # k=3 default
        assert_same_answer(index, karate_graph, "kt", [0])  # k=4 default
        assert_same_answer(index, karate_graph, "kecc", [0])  # k=3 default
        assert_same_answer(index, karate_graph, "huang2015", [0, 33])

    def test_multi_component_and_isolated_nodes(self):
        graph = Graph()
        clique_a = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        clique_b = [(u, v) for u in range(10, 15) for v in range(u + 1, 15)]
        graph.add_edges_from(clique_a + clique_b + [(20, 21)])
        graph.add_node(99)  # isolated: no edges, trussness floor
        index = build_index(graph, dataset="toy")
        for queries in ([0], [10], [20], [99], [0, 3], [10, 14], [0, 10], [20, 99]):
            for k in range(0, 6):
                assert_same_answer(index, graph, "kc", queries, k=k)
            for k in range(2, 7):
                assert_same_answer(index, graph, "kt", queries, k=k)
            assert_same_answer(index, graph, "hightruss", queries)

    def test_error_parity(self, karate_graph):
        index = build_index(karate_graph, dataset="karate")
        assert_same_answer(index, karate_graph, "kc", [])
        assert_same_answer(index, karate_graph, "kt", [])
        assert_same_answer(index, karate_graph, "kc", ["ghost"], k=2)
        assert_same_answer(index, karate_graph, "kc", [0], k=-1)
        assert_same_answer(index, karate_graph, "kt", [0], k=1)
        assert_same_answer(index, karate_graph, "huang2015", [])
        assert_same_answer(index, karate_graph, "huang2015", ["ghost"])
        assert_same_answer(index, karate_graph, "kecc", [])
        assert_same_answer(index, karate_graph, "kecc", ["ghost"], k=2)

    def test_serves_gates_on_algorithm_and_params(self, karate_graph):
        index = build_index(karate_graph, dataset="karate")
        assert index.serves("kc", {})
        assert index.serves("kt", {"k": 5})
        assert index.serves("hightruss", {})
        assert not index.serves("FPA", {})
        assert not index.serves("kc", {"k": "5"})  # non-int k: executed path
        assert not index.serves("kc", {"k": True})  # bool is not a level
        assert not index.serves("kt", {"k": 4, "extra": 1})
        assert not index.serves("hightruss", {"k": 2})
        # huang2015 and kecc are served at their defaults...
        assert index.meta["format_version"] == 3
        assert index.serves("huang2015", {})
        assert index.serves("kecc", {})
        assert index.serves("kecc", {"k": 2})
        # ...but stays conservative about parameters it did not bake in
        assert not index.serves("huang2015", {"max_deletions": 2})
        assert not index.serves("kecc", {"k": 0})  # executed path owns the error
        assert not index.serves("kecc", {"k": True})
        assert not index.serves("kecc", {"approximate_above": 10})
        assert set(index.served_algorithms()) == {
            "kc", "kt", "hightruss", "huang2015", "kecc",
        }


class TestSerialisation:
    def test_round_trip_parity(self, karate_graph, tmp_path):
        index = build_index(karate_graph, dataset="karate")
        path = index_path("karate", tmp_path)
        save_index(index, path)
        loaded = load_index(path, freeze(karate_graph))
        assert loaded.meta == index.meta
        for node in (0, 33):
            for algorithm in ("kc", "kt", "hightruss", "huang2015", "kecc"):
                assert_same_answer(loaded, karate_graph, algorithm, [node])
        assert loaded.describe()["digest"] == dataset_digest(freeze(karate_graph))

    def test_future_format_versions_are_rejected_with_rebuild_hint(
        self, karate_graph, tmp_path
    ):
        """Files of older formats (v1, v2) and unknown future ones alike."""
        index = build_index(karate_graph, dataset="karate")
        path = index_path("karate", tmp_path)
        for version in (1, 2, 99):
            index.meta["format_version"] = version
            save_index(index, path)
            with pytest.raises(GraphError) as excinfo:
                load_index(path)
            message = str(excinfo.value)
            assert f"format version {version} but this build reads version 3" in message
            assert "rebuild it with 'repro index build'" in message

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(index_path("karate", tmp_path))

    def test_truncated_and_corrupt_files_are_structured(self, karate_graph, tmp_path):
        path = index_path("karate", tmp_path)
        save_index(build_index(karate_graph, dataset="karate"), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphError, match="corrupt"):
            load_index(path)
        path.write_bytes(b"NOTANIDX" + data[8:])
        with pytest.raises(GraphError, match="corrupt"):
            load_index(path)

    def test_mutating_the_dataset_invalidates_the_index(self, tmp_path):
        graph = Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
        path = index_path("toy", tmp_path)
        save_index(build_index(graph, dataset="toy"), path)
        load_index(path, freeze(graph))  # still fresh: binds fine
        graph.add_edge(3, 0)
        with pytest.raises(GraphError, match="stale"):
            load_index(path, freeze(graph))
        graph.remove_edge(3, 0)
        load_index(path, freeze(graph))  # back to the built graph: fresh again

    def test_digest_tracks_content_not_identity(self):
        a = freeze(Graph([(0, 1), (1, 2)]))
        b = freeze(Graph([(0, 1), (1, 2)]))
        c = freeze(Graph([(0, 1), (1, 2), (2, 0)]))
        assert dataset_digest(a) == dataset_digest(b)
        assert dataset_digest(a) != dataset_digest(c)


@pytest.mark.skipif(
    not shared_memory_available(), reason="named shared memory unavailable"
)
class TestZeroCopySharing:
    def test_share_attach_parity_and_cleanup(self, karate_graph):
        before = live_segment_names()
        index = build_index(karate_graph, dataset="karate")
        handle = index.share()
        try:
            # the owner is not attached, so it pickles by value
            copied = pickle.loads(pickle.dumps(index))
            assert copied.meta == index.meta
            from repro.graph import attach_index

            remote = attach_index(handle.descriptor)
            try:
                for node in (0, 33):
                    for algorithm in ("kc", "kt", "hightruss", "huang2015", "kecc"):
                        assert_same_answer(remote, karate_graph, algorithm, [node])
                # pickling an *attached* index ships the descriptor, so a
                # worker re-attaches the same segment instead of copying
                clone = pickle.loads(pickle.dumps(remote))
                try:
                    assert clone.attached
                    assert_same_answer(clone, karate_graph, "kt", [0], k=4)
                finally:
                    clone.detach()
            finally:
                remote.detach()
        finally:
            handle.close()
            handle.unlink()
        assert live_segment_names() == before


class TestServingIntegration:
    ALGORITHMS = (
        ("kc", [0], {"k": 3}),
        ("kt", [0], {"k": 4}),
        ("kt", [0, 33], {}),
        ("hightruss", [11], {}),
        ("kc", [0], {"k": 99}),  # no community at this k
        ("huang2015", [0, 33], {}),
        ("kecc", [0], {}),
    )

    def _build(self, tmp_path, *names):
        for name in names:
            save_index(
                build_index(load_dataset(name).graph, dataset=name),
                index_path(name, tmp_path),
            )

    def _serve(self, tmp_path, **kwargs):
        async def scenario():
            results = []
            async with ServingEngine(
                datasets=["karate"], cache_size=0, index_dir=str(tmp_path), **kwargs
            ) as engine:
                for algorithm, nodes, params in self.ALGORITHMS:
                    result, _, _ = await engine.query(
                        "karate", algorithm, nodes, **params
                    )
                    results.append(observable(result))
                return results, engine.stats()

        return run(scenario())

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_indexed_matches_executed(self, tmp_path, executor):
        if executor != "inline" and not shared_memory_available():
            pytest.skip("named shared memory unavailable")
        self._build(tmp_path, "karate")
        executed, off_stats = self._serve(tmp_path, executor=executor, index="off")
        indexed, on_stats = self._serve(tmp_path, executor=executor, index="require")
        assert executed == indexed
        assert off_stats["shards"]["karate"]["index"] == {"effective": "executed", "hits": 0}
        shard = on_stats["shards"]["karate"]["index"]
        assert shard["effective"] == "indexed"
        assert shard["hits"] == len(self.ALGORITHMS)
        assert on_stats["totals"]["index_hits"] == shard["hits"]
        assert on_stats["placement"]["index"] == "require"

    def test_auto_falls_back_with_reason(self, tmp_path):
        _, stats = self._serve(tmp_path, index="auto")
        shard = stats["shards"]["karate"]["index"]
        assert shard["effective"] == "executed"
        assert "no index file" in shard["reason"]

    def test_require_without_index_is_structured(self, tmp_path):
        async def scenario():
            async with ServingEngine(
                datasets=[], index="require", index_dir=str(tmp_path)
            ) as engine:
                return await engine.handle(
                    {
                        "op": "query",
                        "dataset": "karate",
                        "algorithm": "kt",
                        "nodes": [0],
                        "params": {"k": 4},
                    }
                )

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "internal_error"
        assert "index mode 'require'" in response["error"]["message"]
        assert "repro index build karate" in response["error"]["message"]

    def test_unservable_params_fall_through_to_executor(self, tmp_path):
        """A malformed k must keep its executed-path error surface even
        when the shard is index-backed."""
        self._build(tmp_path, "karate")

        async def scenario():
            async with ServingEngine(
                datasets=["karate"], index="require", index_dir=str(tmp_path)
            ) as engine:
                response = await engine.handle(
                    {
                        "op": "query",
                        "dataset": "karate",
                        "algorithm": "kc",
                        "nodes": [0],
                        "params": {"k": "three"},
                    }
                )
                return response, engine.stats()

        response, stats = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert stats["shards"]["karate"]["index"]["hits"] == 0

    @pytest.mark.skipif(
        not shared_memory_available(), reason="named shared memory unavailable"
    )
    def test_one_index_segment_per_host_and_no_leak(self, tmp_path):
        self._build(tmp_path, "karate")
        before = live_segment_names()

        async def scenario():
            async with ServingEngine(
                datasets=["karate"],
                executor="process",
                replicas=2,
                index="require",
                index_dir=str(tmp_path),
            ) as engine:
                await engine.query("karate", "kt", [0], k=4)
                index_segments = [
                    name for name in live_segment_names() if "idx" in name
                ]
                return index_segments, engine.stats()

        segments, stats = run(scenario())
        assert len(segments) == 1  # 2 replicas, 1 mapped index copy
        assert stats["shards"]["karate"]["replica_count"] == 2
        for replica in stats["shards"]["karate"]["replicas"]:
            assert replica["executor"]["index"] == "attached"
        assert live_segment_names() == before

    @pytest.mark.skipif(
        not shared_memory_available(), reason="named shared memory unavailable"
    )
    def test_worker_crash_respawns_and_reattaches_index(self, tmp_path, karate_graph):
        self._build(tmp_path, "karate")

        async def scenario():
            async with ServingEngine(
                datasets=["karate"],
                executor="process",
                index="require",
                index_dir=str(tmp_path),
                cache_size=0,
            ) as engine:
                first, _, _ = await engine.query("karate", "kt", [0, 33])
                executor = engine.shards["karate"].replica_set.replicas[0].executor
                executor._proc.kill()
                executor._proc.join(10)
                second, _, _ = await engine.query("karate", "kt", [1, 2])
                return first, second, executor.describe(), engine.stats()

        before = live_segment_names()
        first, second, describe, stats = run(scenario())
        assert describe["restarts"] == 1
        assert describe["index"] == "attached"
        for result, nodes in ((first, [0, 33]), (second, [1, 2])):
            reference = ktruss_community(karate_graph, nodes, k=4)
            assert observable(result) == observable(reference)
        assert stats["shards"]["karate"]["index"]["hits"] == 2
        assert live_segment_names() == before

    @pytest.mark.skipif(
        not shared_memory_available(), reason="named shared memory unavailable"
    )
    def test_crash_after_an_epoch_swap_reattaches_the_repaired_index(
        self, tmp_path, karate_graph
    ):
        """Mutation between swap and crash: the respawned worker must map
        the epoch's *rebuilt* index segment, not the one it was born with."""
        self._build(tmp_path, "karate")
        mutated = karate_graph.copy()
        u, v = next(
            (a, b)
            for a in sorted(mutated.nodes())
            for b in sorted(mutated.nodes())
            if repr(a) < repr(b) and not mutated.has_edge(a, b)
        )
        mutated.add_edge(u, v)

        async def scenario():
            async with ServingEngine(
                datasets=["karate"],
                executor="process",
                index="require",
                index_dir=str(tmp_path),
                cache_size=0,
                epochs=True,
            ) as engine:
                first, _, _ = await engine.query("karate", "kt", [0, 33])
                applied = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_edge", u, v]]}
                )
                # the swap published the rebuilt index in a fresh segment;
                # crash the rebound worker so the respawn re-attaches it
                executor = engine.shards["karate"].replica_set.replicas[0].executor
                executor._proc.kill()
                executor._proc.join(10)
                second, _, _ = await engine.query("karate", "kt", [1, 2])
                return first, applied, second, executor.describe(), engine.stats()

        before = live_segment_names()
        first, applied, second, describe, stats = run(scenario())
        assert applied["ok"] and applied["epoch"] == 1
        assert applied["index"] == "rebuilt"
        assert describe["restarts"] == 1
        assert describe["index"] == "attached"
        assert observable(first) == observable(
            ktruss_community(karate_graph, [0, 33], k=4)
        )
        # answered from the rebuilt index, bit-identical to the executed
        # path on the *mutated* graph
        assert observable(second) == observable(ktruss_community(mutated, [1, 2], k=4))
        # the replica outlives the epoch: its counter spans both reads
        assert stats["shards"]["karate"]["index"]["hits"] == 2
        assert stats["shards"]["karate"]["epoch"]["index_rebuilds"] == 1
        assert live_segment_names() == before


class TestIndexCLI:
    def test_build_then_inspect(self, tmp_path, capsys):
        assert main(["index", "build", "karate", "--index-dir", str(tmp_path)]) == 0
        assert "karate.idx" in capsys.readouterr().out
        assert main(["index", "inspect", "karate", "--index-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "format version:  3" in output
        assert "content digest:" in output
        assert "core communities:" in output
        assert "truss communities:" in output
        assert "kecc partitions" in output
        assert "huang2015" in output  # the serves: row

    def test_build_requires_a_dataset_or_all(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["index", "build", "--index-dir", str(tmp_path)])

    def test_inspect_missing_is_exit_2(self, tmp_path, capsys):
        assert main(["index", "inspect", "karate", "--index-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no index file" in err
        assert "repro index build karate" in err
        assert "Traceback" not in err

    def test_inspect_corrupt_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "karate.idx").write_bytes(b"NOTANIDX-GARBAGE")
        assert main(["index", "inspect", "karate", "--index-dir", str(tmp_path)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_inspect_stale_is_exit_2(self, tmp_path, capsys):
        # a dolphin index under karate's name: same format, wrong digest
        save_index(
            build_index(load_dataset("dolphin").graph, dataset="dolphin"),
            index_path("karate", tmp_path),
        )
        assert main(["index", "inspect", "karate", "--index-dir", str(tmp_path)]) == 2
        assert "stale" in capsys.readouterr().err

    def test_build_unknown_dataset_is_exit_2(self, tmp_path, capsys):
        assert main(["index", "build", "nope", "--index-dir", str(tmp_path)]) == 2
        assert "unknown dataset" in capsys.readouterr().err
