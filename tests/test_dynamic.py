"""Tests for the dynamic-graph tier: delta logs, epochs, incremental repair.

Four layers of coverage:

* :class:`~repro.dynamic.DeltaBatch` — the three encodings (recorded /
  wire / CLI tokens), validation, pickling, ordered replay;
* :class:`~repro.dynamic.EpochManager` — randomized seeded edit scripts
  over the bundled datasets, asserting core numbers, triangle supports,
  truss numbers and the kc/kt/hightruss answers are **bit-identical** to a
  from-scratch freeze at every epoch, on both the incremental and the
  refreeze path;
* the serving tier — epoch-stamped responses, the ``mutate`` wire op,
  cache purging across snapshot swaps, ``min_epoch`` staleness bounds and
  the ``stale_epoch`` error code, plus the community index riding the
  epoch lifecycle: mutations rebuild the bound index (bit-identically to a
  fresh build, asserted per epoch on randomized edit scripts), ``require``
  mode keeps accepting writes, and both modes keep serving index answers
  after every swap;
* the cluster tier — epochs piggybacked on heartbeats, the coordinator's
  per-dataset maximum, and the client treating an epoch regression like
  stale routing.
"""

from __future__ import annotations

import asyncio
import functools
import pickle
import random
import sys

import pytest

from repro.cluster import ClusterClient, Coordinator, NodeAgent
from repro.datasets import load_dataset
from repro.dynamic import DeltaBatch, EpochManager, TrussRepair, apply_op, parse_mutation_token
from repro.experiments.registry import run_algorithm
from repro.graph import (
    Graph,
    GraphError,
    build_index,
    edge_support,
    freeze,
    index_path,
    load_index,
    node_truss_numbers,
    save_index,
    truss_numbers,
    vec_kernels,
)
from repro.graph.csr import csr_core_numbers
from repro.graph.csr_truss import csr_edge_index, csr_edge_support, csr_truss_numbers
from repro.graph.trussness import _edge_value_dict
from repro.serving import ProtocolError, ServingEngine, parse_request
from repro.serving.protocol import ERROR_CODES, result_payload


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------------
# the delta log
# ----------------------------------------------------------------------------


class TestDeltaBatch:
    def test_recorder_chains_and_preserves_order(self):
        batch = DeltaBatch().add_edge(0, 34).remove_edge(1, 2).add_node(99).remove_node(7)
        assert batch.ops == (
            ("add_edge", 0, 34, 1.0),
            ("remove_edge", 1, 2),
            ("add_node", 99),
            ("remove_node", 7),
        )
        assert len(batch) == 4 and bool(batch)
        assert not DeltaBatch()

    def test_wire_round_trip(self):
        batch = DeltaBatch().add_edge(0, 34, 2.5).remove_node(7)
        assert batch.to_wire() == [["add_edge", 0, 34, 2.5], ["remove_node", 7]]
        assert DeltaBatch.from_wire(batch.to_wire()) == batch

    def test_wire_nodes_normalise_like_the_query_protocol(self):
        batch = DeltaBatch.from_wire(
            [["add_edge", "3", "alice"], ["add_node", "7"], ["add_node", [0, ["1"]]]]
        )
        assert batch.ops == (
            ("add_edge", 3, "alice", 1.0),
            ("add_node", 7),
            ("add_node", (0, (1,))),
        )

    def test_tokens(self):
        batch = DeltaBatch.from_tokens(
            ["add-edge:0:34", "add-edge:1:2:0.5", "remove-edge:2:3", "add-node:99", "remove-node:5"]
        )
        assert batch.ops == (
            ("add_edge", 0, 34, 1.0),
            ("add_edge", 1, 2, 0.5),
            ("remove-edge".replace("-", "_"), 2, 3),
            ("add_node", 99),
            ("remove_node", 5),
        )

    @pytest.mark.parametrize(
        "token",
        ["frobnicate:1:2", "add-edge:1", "add-edge:1:2:3:4", "remove-node", "add-edge:1:2:heavy"],
    )
    def test_malformed_tokens_are_flag_shaped(self, token):
        with pytest.raises(ValueError):
            parse_mutation_token(token)

    @pytest.mark.parametrize(
        "ops",
        [
            None,
            [],
            "add_edge",
            [["frobnicate", 1, 2]],
            [["add_edge", 1]],
            [["add_edge", 1, 2, "heavy"]],
            [["add_node", True]],
            [["remove_edge", 1, 2, 3]],
            [[]],
            [["add_node", [0, True]]],
            [["add_node", {"a": 1}]],
            # a node id nested past the interpreter's recursion limit
            [["add_node", functools.reduce(lambda inner, _: [inner], range(5000), 0)]],
        ],
    )
    def test_malformed_wire_ops_raise_value_error(self, ops):
        with pytest.raises(ValueError):
            DeltaBatch.from_wire(ops)

    def test_wire_errors_name_the_position(self):
        with pytest.raises(ValueError, match=r"ops\[1\]"):
            DeltaBatch.from_wire([["add_node", 1], ["add_edge", 2]])

    def test_pickles_across_process_boundaries(self):
        batch = DeltaBatch().add_edge(0, 34).remove_node(7)
        assert pickle.loads(pickle.dumps(batch)) == batch

    def test_apply_replays_in_order(self, triangle_graph):
        # remove_node(4) only succeeds because add_edge(4, 1) ran first
        batch = DeltaBatch().add_edge(4, 1).remove_edge(1, 2).remove_node(4)
        batch.apply(triangle_graph)
        assert sorted(triangle_graph.nodes()) == [1, 2, 3]
        assert triangle_graph.has_edge(1, 3) and triangle_graph.has_edge(2, 3)
        assert not triangle_graph.has_edge(1, 2) and not triangle_graph.has_node(4)

    def test_apply_surfaces_graph_errors(self, triangle_graph):
        with pytest.raises(GraphError):
            DeltaBatch().remove_edge(1, 99).apply(triangle_graph)


# ----------------------------------------------------------------------------
# epochal publication parity
# ----------------------------------------------------------------------------


def assert_snapshot_parity(frozen, reference_graph):
    """The published snapshot must be bit-identical to a fresh freeze."""
    ref = freeze(reference_graph)
    csr, ref_csr = frozen.csr, ref.csr
    assert csr.node_list == ref_csr.node_list
    assert list(csr.indptr) == list(ref_csr.indptr)
    assert list(csr.indices) == list(ref_csr.indices)
    index = csr_edge_index(ref_csr)
    cache = frozen.shared_cache()
    # the primed base memos: positional core numbers and the truss
    # decomposition, exactly as the lazy paths would derive them; the
    # per-edge supports are primed on the pure-python tier and derived
    # lazily on the vec tier, so they are read through the public API
    assert cache[("csr-core-numbers",)] == csr_core_numbers(ref_csr)
    assert cache[("csr-edge-truss",)] == csr_truss_numbers(ref_csr, index)
    ref_support = _edge_value_dict(ref, index, csr_edge_support(ref_csr, index))
    served_support = edge_support(frozen)
    assert served_support == ref_support
    assert list(served_support) == list(ref_support)  # canonical key order too
    # the derived dict views (computed through the primed bases)
    assert truss_numbers(frozen) == truss_numbers(ref)
    assert list(truss_numbers(frozen)) == list(truss_numbers(ref))
    assert node_truss_numbers(frozen) == node_truss_numbers(ref)
    # served answers
    for node in list(reference_graph.nodes())[:2]:
        for algorithm, params in (("kc", {"k": 2}), ("kt", {"k": 3}), ("hightruss", {})):
            got = run_algorithm(algorithm, frozen, [node], **params)
            expected = run_algorithm(algorithm, ref, [node], **params)
            assert sorted(got.nodes, key=repr) == sorted(expected.nodes, key=repr)
            assert got.score == expected.score


def spy_full_peels(monkeypatch):
    """Record the edge count of every whole-graph truss peel ``prepare`` runs."""
    from repro.dynamic import epoch

    calls = []
    real = epoch.csr_truss_numbers

    def spy(csr, *args, **kwargs):
        calls.append(csr.number_of_edges())
        return real(csr, *args, **kwargs)

    monkeypatch.setattr(epoch, "csr_truss_numbers", spy)
    return calls


def random_batch(rng, mirror, next_node, max_ops=5):
    """One valid delta batch against ``mirror`` (mutated alongside)."""
    batch = DeltaBatch()
    for _ in range(rng.randint(1, max_ops)):
        roll = rng.random()
        nodes = list(mirror.nodes())
        edges = list(mirror.iter_edges())
        if roll < 0.40 and edges:
            u, v, _ = rng.choice(edges)
            batch.remove_edge(u, v)
            mirror.remove_edge(u, v)
        elif roll < 0.80 and len(nodes) >= 2:
            u, v = rng.sample(nodes, 2)
            if not mirror.has_edge(u, v):
                batch.add_edge(u, v)
                mirror.add_edge(u, v)
        elif roll < 0.92:
            node = next_node[0]
            next_node[0] += 1
            batch.add_node(node)
            mirror.add_node(node)
        elif nodes:
            node = rng.choice(nodes)
            batch.remove_node(node)
            mirror.remove_node(node)
    return batch


class TestEpochManagerParity:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("source", ["karate", "figure1", "er", "bridge"])
    def test_randomized_edit_scripts_match_fresh_freeze(
        self, source, seed, karate, figure1, small_er_graph, two_triangles_bridge
    ):
        graph = {
            "karate": karate.graph,
            "figure1": figure1.graph,
            "er": small_er_graph,
            "bridge": two_triangles_bridge,
        }[source]
        manager = EpochManager(graph.copy(), threshold=64)
        mirror = graph.copy()
        rng = random.Random(seed)
        next_node = [10_000]
        for _ in range(8):
            batch = random_batch(rng, mirror, next_node)
            if not batch:
                continue
            prepared = manager.apply(batch)
            assert prepared.mode == "incremental"
            assert manager.epoch == prepared.epoch
            assert_snapshot_parity(manager.frozen, mirror)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("source", ["karate", "figure1", "er", "bridge"])
    def test_randomized_edit_scripts_repair_the_index_bit_identically(
        self, source, seed, karate, figure1, small_er_graph, two_triangles_bridge
    ):
        """Every epoch's index equals a from-scratch build — regions, meta
        and digest — and its answers equal the executed path's."""
        graph = {
            "karate": karate.graph,
            "figure1": figure1.graph,
            "er": small_er_graph,
            "bridge": two_triangles_bridge,
        }[source]
        manager = EpochManager(graph.copy(), threshold=64)
        manager.bind_index(build_index(manager.frozen, dataset=source))
        mirror = graph.copy()
        rng = random.Random(seed)
        next_node = [10_000]
        for _ in range(6):
            batch = random_batch(rng, mirror, next_node)
            if not batch:
                continue
            manager.apply(batch)
            maintained = manager.index
            fresh = build_index(freeze(mirror), dataset=source)
            # bit-identity: same digest, same meta, same bytes in every region
            assert maintained.meta["digest"] == fresh.meta["digest"]
            assert set(maintained._fields) == set(fresh._fields)
            for key, value in fresh.meta.items():
                if key != "build_seconds":
                    assert maintained.meta[key] == value, key
            for name in fresh._fields:
                assert bytes(maintained._fields[name]) == bytes(fresh._fields[name]), name
            assert maintained.node_list == fresh.node_list
            # indexed answers match the executed path byte-for-byte
            reference = freeze(mirror)
            for node in sorted(mirror.nodes(), key=repr)[:2]:
                for algorithm, params in (
                    ("kc", {"k": 2}),
                    ("kt", {"k": 3}),
                    ("hightruss", {}),
                    ("huang2015", {}),
                ):
                    got = maintained.search(
                        algorithm, [node], graph=manager.frozen, **params
                    )
                    expected = run_algorithm(algorithm, reference, [node], **params)
                    assert got.nodes == expected.nodes
                    assert got.score == expected.score
                    assert got.extra == expected.extra
        assert manager.describe()["index_rebuilds"] == manager.epoch

    @pytest.mark.skipif(not vec_kernels.numpy_available(), reason="numpy extra not installed")
    def test_vec_tier_prepare_builds_no_python_edge_tables(self, karate):
        """On the vec tier an incremental epoch neither builds the edge
        index's per-node dict tables nor primes the canonical support dict;
        both still derive lazily to the pure-python tier's values."""
        vec_kernels.set_vec_enabled(True)
        try:
            manager = EpochManager(karate.graph.copy())
            manager.bind_index(build_index(manager.frozen, dataset="karate"))
            u, v = first_absent_edge(karate.graph)
            prepared = manager.prepare(DeltaBatch().add_edge(u, v))
            assert prepared.mode == "incremental"
            cache = prepared.frozen.shared_cache()
            edge_index = cache[("csr-edge-index",)]
            assert edge_index._edge_of is None and edge_index._incident is None
            assert ("edge-support",) not in cache
            mirror = karate.graph.copy()
            mirror.add_edge(u, v)
            assert_snapshot_parity(prepared.frozen, mirror)
        finally:
            vec_kernels.set_vec_enabled(None)

    def test_python_tier_prepare_primes_the_maintained_truss(self, karate, monkeypatch):
        """The pure-python tier primes the repaired truss numbers; no epoch
        of this script re-peels the snapshot."""
        peels = spy_full_peels(monkeypatch)
        vec_kernels.set_vec_enabled(False)
        try:
            manager = EpochManager(karate.graph.copy())
            mirror = karate.graph.copy()
            rng = random.Random(7)
            next_node = [10_000]
            for _ in range(4):
                batch = random_batch(rng, mirror, next_node)
                if not batch:
                    continue
                prepared = manager.apply(batch)
                assert prepared.mode == "incremental"
                assert ("csr-edge-truss",) in prepared.frozen.shared_cache()
                assert_snapshot_parity(manager.frozen, mirror)
            assert peels == []
        finally:
            vec_kernels.set_vec_enabled(None)

    def test_refreeze_path_matches_fresh_freeze(self, karate):
        manager = EpochManager(karate.graph.copy(), threshold=0)  # always refreeze
        mirror = karate.graph.copy()
        rng = random.Random(5)
        next_node = [10_000]
        for _ in range(4):
            batch = random_batch(rng, mirror, next_node)
            if not batch:
                continue
            prepared = manager.apply(batch)
            assert prepared.mode == "refreeze"
            assert_snapshot_parity(manager.frozen, mirror)

    def test_large_batches_rebuild_the_bound_index_off_the_serving_path(self, karate):
        manager = EpochManager(karate.graph.copy(), threshold=1)
        manager.bind_index(build_index(manager.frozen, dataset="karate"))
        prepared = manager.apply(DeltaBatch().add_node(100).add_node(101))
        assert prepared.mode == "refreeze"
        fresh = build_index(manager.frozen, dataset="karate")
        assert manager.index.meta["digest"] == fresh.meta["digest"]
        for name in fresh._fields:
            assert bytes(manager.index._fields[name]) == bytes(fresh._fields[name])
        describe = manager.describe()
        assert describe["index_bound"] is True
        assert describe["index_rebuilds"] == 1

    def test_threshold_selects_the_mode(self, karate):
        manager = EpochManager(karate.graph.copy(), threshold=2)
        small = manager.apply(DeltaBatch().add_node(100).add_node(101))
        assert small.mode == "incremental"
        big = manager.apply(DeltaBatch().add_node(102).add_node(103).add_node(104))
        assert big.mode == "refreeze"
        describe = manager.describe()
        assert describe["batches"] == 2
        assert describe["incremental_batches"] == 1
        assert describe["refrozen_batches"] == 1
        assert describe["ops_applied"] == 5
        assert describe["current"] == 2


def assert_index_matches_fresh_build(maintained, reference_graph, dataset):
    """Every region, the meta and the digest equal a from-scratch build."""
    fresh = build_index(freeze(reference_graph), dataset=dataset)
    assert maintained.meta["digest"] == fresh.meta["digest"]
    for key, value in fresh.meta.items():
        if key != "build_seconds":
            assert maintained.meta[key] == value, key
    assert set(maintained._fields) == set(fresh._fields)
    for name in fresh._fields:
        assert bytes(maintained._fields[name]) == bytes(fresh._fields[name]), name


def top_truss_edges(frozen, count):
    """The ``count`` highest-truss edges (ties by edge id) as node pairs."""
    index = csr_edge_index(frozen.csr)
    truss = csr_truss_numbers(frozen.csr, index)
    nodes = frozen.csr.node_list
    order = sorted(range(index.num_edges), key=lambda e: (-truss[e], e))[:count]
    return [(nodes[index.eu[e]], nodes[index.ev[e]]) for e in order]


def heaviest_deletion(manager, graph, edges):
    """The edge of ``edges`` whose deletion visits the most candidate edges."""
    frozen = manager.frozen
    index = csr_edge_index(frozen.csr)
    truss = csr_truss_numbers(frozen.csr, index)

    def visits(edge):
        repair = TrussRepair(frozen.csr, index, truss, budget=sys.maxsize)
        apply_op(graph.copy(), manager.core_numbers(), repair, ("remove_edge", *edge))
        return repair.visited

    return max(edges, key=visits)


def wedge_closing_edges(graph, community, count):
    """Absent pairs inside ``community`` closing the most wedges within it."""
    members = sorted(community, key=repr)
    inside = set(members)
    scored = []
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not graph.has_edge(u, v):
                common = set(graph.neighbors(u)) & set(graph.neighbors(v)) & inside
                scored.append((-len(common), repr(u), repr(v), u, v))
    return [(u, v) for *_, u, v in sorted(scored)[:count]]


class TestAdversarialTrussRepair:
    """The truss repair under the edits that move trussness most, on the
    livejournal surrogate, on both tiers: the highest-truss edges deleted
    and re-added, wedge-closing inserts inside one ground-truth community,
    and a batch whose candidate visits pass the work bound."""

    @pytest.mark.parametrize("vec", [False, True], ids=["python-tier", "vec-tier"])
    def test_adversarial_edits_keep_snapshot_and_index_parity(self, vec, monkeypatch):
        if vec and not vec_kernels.numpy_available():
            pytest.skip("numpy extra not installed")
        vec_kernels.set_vec_enabled(vec)
        try:
            dataset = load_dataset("livejournal")
            manager = EpochManager(dataset.graph.copy())
            manager.bind_index(build_index(manager.frozen, dataset="livejournal"))
            mirror = dataset.graph.copy()
            peels = spy_full_peels(monkeypatch)
            top = top_truss_edges(manager.frozen, 30)
            largest = max(
                dataset.communities, key=lambda members: (len(members), sorted(map(repr, members)))
            )
            wedges = wedge_closing_edges(mirror, largest, 10)
            batches = [
                [("remove_edge", u, v) for u, v in top[:15]],
                [("remove_edge", u, v) for u, v in top[15:]],
                [("add_edge", u, v) for u, v in top[:15]],
                [("add_edge", u, v) for u, v in top[15:]],
                [("add_edge", u, v) for u, v in wedges],
            ]
            for ops in batches:
                batch = DeltaBatch.from_wire([list(op) for op in ops])
                batch.apply(mirror)
                assert manager.apply(batch).mode == "incremental"
                assert_snapshot_parity(manager.frozen, mirror)
                assert_index_matches_fresh_build(manager.index, mirror, "livejournal")
            assert peels == []  # every epoch above was repaired, not peeled
            # 32 delete/re-add rounds of the costliest top edge visit more
            # candidate edges than the snapshot has edges: the batch falls back
            edges = manager.frozen.number_of_edges()
            u, v = heaviest_deletion(manager, mirror, top)
            batch = DeltaBatch()
            for _ in range(32):
                batch.remove_edge(u, v).add_edge(u, v)
            batch.apply(mirror)
            assert manager.apply(batch).mode == "incremental"
            assert peels == [edges]
            assert_snapshot_parity(manager.frozen, mirror)
            assert_index_matches_fresh_build(manager.index, mirror, "livejournal")
        finally:
            vec_kernels.set_vec_enabled(None)


class TestEpochManagerLifecycle:
    def test_empty_batch_is_rejected(self, triangle_graph):
        manager = EpochManager(triangle_graph)
        with pytest.raises(ValueError, match="empty"):
            manager.prepare(DeltaBatch())

    def test_failed_op_leaves_committed_state_untouched(self, triangle_graph):
        manager = EpochManager(triangle_graph.copy())
        before = manager.core_numbers()
        with pytest.raises(GraphError):
            manager.apply(DeltaBatch().add_edge(1, 99).remove_edge(5, 6))
        assert manager.epoch == 0
        assert manager.core_numbers() == before
        # the manager still works after the failure
        manager.apply(DeltaBatch().add_node(9))
        assert manager.epoch == 1

    def test_commit_rejects_non_successor_epochs(self, triangle_graph):
        manager = EpochManager(triangle_graph.copy())
        first = manager.prepare(DeltaBatch().add_node(8))
        second = manager.prepare(DeltaBatch().add_node(9))  # also epoch 1
        manager.commit(first)
        with pytest.raises(ValueError, match="commit epoch 1"):
            manager.commit(second)

    def test_weight_overwrite_is_not_structural(self, triangle_graph):
        manager = EpochManager(triangle_graph.copy())
        before_core = manager.core_numbers()
        before_support = manager.edge_supports()
        manager.apply(DeltaBatch().add_edge(1, 2, 5.0))
        assert manager.core_numbers() == before_core
        assert manager.edge_supports() == before_support
        assert manager.graph_copy().edge_weight(1, 2) == 5.0

    def test_initial_graph_is_never_mutated(self, triangle_graph):
        manager = EpochManager(triangle_graph)
        manager.apply(DeltaBatch().remove_node(1))
        assert triangle_graph.has_node(1)

    def test_validation(self, triangle_graph):
        with pytest.raises(ValueError):
            EpochManager(triangle_graph, threshold=-1)
        with pytest.raises(ValueError):
            EpochManager(triangle_graph, epoch=-1)


# ----------------------------------------------------------------------------
# the serving tier under epochs
# ----------------------------------------------------------------------------


def first_absent_edge(graph):
    nodes = sorted(graph.nodes(), key=repr)
    for u in nodes:
        for v in nodes:
            if u != v and not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


class TestProtocolEpochFields:
    def test_stale_epoch_is_a_closed_code(self):
        assert "stale_epoch" in ERROR_CODES

    def test_min_epoch_is_validated_and_excluded_from_identity(self):
        bounded = parse_request(
            {"dataset": "d", "algorithm": "a", "nodes": [1], "min_epoch": 3}
        )
        plain = parse_request({"dataset": "d", "algorithm": "a", "nodes": [1]})
        assert bounded.min_epoch == 3 and plain.min_epoch is None
        assert bounded.cache_key == plain.cache_key

    @pytest.mark.parametrize("value", [-1, True, "3", 1.5])
    def test_bad_min_epoch_is_bad_request(self, value):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                {"dataset": "d", "algorithm": "a", "nodes": [1], "min_epoch": value}
            )
        assert excinfo.value.code == "bad_request"

    def test_epoch_only_on_the_wire_when_epochal(self):
        request = parse_request({"dataset": "d", "algorithm": "a", "nodes": [1]})
        result = run_algorithm("kt", Graph([(1, 2), (2, 3), (1, 3)]), [1])
        assert "epoch" not in result_payload(request, result)
        assert result_payload(request, result, epoch=0)["epoch"] == 0


class TestServingEpochs:
    def query_payload(self, **extra):
        return {
            "op": "query",
            "dataset": "karate",
            "algorithm": "kt",
            "nodes": [0],
            "params": {"k": 4},
            **extra,
        }

    def test_mutations_advance_epochs_with_parity(self, karate):
        mirror = karate.graph.copy()
        u, v = first_absent_edge(mirror)

        async def scenario():
            async with ServingEngine(datasets=["karate"], epochs=True) as engine:
                first = await engine.handle(self.query_payload())
                applied = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_edge", u, v]]}
                )
                second = await engine.handle(self.query_payload())
                stats = await engine.handle({"op": "stats"})
                return first, applied, second, stats, engine.dataset_epochs()

        first, applied, second, stats, epochs = run(scenario())
        assert first["ok"] and first["epoch"] == 0
        assert applied["ok"] and applied["op"] == "mutate"
        assert applied["epoch"] == 1 and applied["mode"] == "incremental"
        assert applied["ops"] == 1
        assert second["ok"] and second["epoch"] == 1
        assert not second["cached"]  # epoch 0's cache entry must not answer
        # the served answer matches the mutated reference graph exactly
        mirror.add_edge(u, v)
        reference = run_algorithm("kt", mirror, [0], k=4)
        assert second["nodes"] == sorted(reference.nodes, key=repr)
        assert epochs == {"karate": 1}
        shard = stats["shards"]["karate"]
        assert shard["epoch"]["current"] == 1
        assert shard["epoch"]["swaps"] == 1
        assert shard["epoch"]["purged_entries"] >= 1
        assert shard["epoch"]["batches"] == 1
        assert shard["epoch"]["incremental_batches"] == 1
        assert stats["placement"]["epochs"] is True
        assert shard["epoch"]["threshold"] == 64  # the serving default

    def test_cache_is_per_epoch(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], epochs=True) as engine:
                await engine.handle(self.query_payload())
                warm = await engine.handle(self.query_payload())
                await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_node", 99]]}
                )
                cold = await engine.handle(self.query_payload())
                warm_again = await engine.handle(self.query_payload())
                return warm, cold, warm_again

        warm, cold, warm_again = run(scenario())
        assert warm["cached"] and warm["epoch"] == 0
        assert not cold["cached"] and cold["epoch"] == 1
        assert warm_again["cached"] and warm_again["epoch"] == 1

    def test_min_epoch_bounds_staleness(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], epochs=True) as engine:
                stale = await engine.handle(self.query_payload(min_epoch=1))
                await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_node", 99]]}
                )
                fresh = await engine.handle(self.query_payload(min_epoch=1))
                stats = await engine.handle({"op": "stats"})
                return stale, fresh, stats

        stale, fresh, stats = run(scenario())
        assert not stale["ok"]
        assert stale["error"]["code"] == "stale_epoch"
        assert "min_epoch 1" in stale["error"]["message"]
        assert fresh["ok"] and fresh["epoch"] == 1
        assert stats["shards"]["karate"]["epoch"]["stale_rejections"] == 1

    def test_min_epoch_zero_always_passes_even_when_static(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                return await engine.handle(self.query_payload(min_epoch=0))

        response = run(scenario())
        assert response["ok"] and "epoch" not in response

    def test_static_serving_is_unchanged(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                response = await engine.handle(self.query_payload())
                mutate = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_node", 99]]}
                )
                stats = await engine.handle({"op": "stats"})
                return response, mutate, stats

        response, mutate, stats = run(scenario())
        assert response["ok"] and "epoch" not in response
        assert not mutate["ok"] and mutate["error"]["code"] == "bad_request"
        assert "--epochs" in mutate["error"]["message"]
        assert "epoch" not in stats["shards"]["karate"]
        assert stats["placement"]["epochs"] is False

    def test_bad_mutations_are_structured_and_uncommitted(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], epochs=True) as engine:
                malformed = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["frobnicate", 1]]}
                )
                semantic = await engine.handle(
                    {
                        "op": "mutate",
                        "dataset": "karate",
                        "ops": [["add_node", 99], ["remove_edge", 0, 99]],
                    }
                )
                unknown = await engine.handle(
                    {"op": "mutate", "dataset": "nope", "ops": [["add_node", 1]]}
                )
                after = await engine.handle(self.query_payload())
                return malformed, semantic, unknown, after

        malformed, semantic, unknown, after = run(scenario())
        assert malformed["error"]["code"] == "bad_request"
        assert semantic["error"]["code"] == "bad_query"
        assert unknown["error"]["code"] == "unknown_dataset"
        # neither failure published anything
        assert after["ok"] and after["epoch"] == 0

    def test_mutate_echoes_the_request_id(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], epochs=True) as engine:
                return await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_node", 99]], "id": 7}
                )

        assert run(scenario())["id"] == 7


class TestIndexUnderEpochs:
    def _build_index(self, tmp_path):
        save_index(
            build_index(load_dataset("karate").graph, dataset="karate"),
            index_path("karate", tmp_path),
        )

    def query_payload(self, **extra):
        return {
            "op": "query",
            "dataset": "karate",
            "algorithm": "kt",
            "nodes": [0],
            "params": {"k": 4},
            **extra,
        }

    def test_auto_mode_keeps_serving_the_index_under_mutation(self, tmp_path, karate):
        self._build_index(tmp_path)
        mirror = karate.graph.copy()
        u, v = first_absent_edge(mirror)

        async def scenario():
            async with ServingEngine(
                datasets=["karate"], epochs=True, index="auto", index_dir=str(tmp_path)
            ) as engine:
                before = await engine.handle({"op": "stats"})
                applied = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_edge", u, v]]}
                )
                response = await engine.handle(self.query_payload())
                after = await engine.handle({"op": "stats"})
                return before, applied, response, after

        before, applied, response, after = run(scenario())
        # epoch 0 is exactly what the index was built for
        assert before["shards"]["karate"]["index"]["effective"] == "indexed"
        # the mutation rebuilt the index off the serving path and
        # republished it
        assert applied["ok"] and applied["epoch"] == 1
        assert applied["index"] == "rebuilt"
        assert applied["index_seconds"] >= 0.0
        index_stats = after["shards"]["karate"]["index"]
        assert index_stats["effective"] == "indexed"
        assert "reason" not in index_stats
        # the post-mutation query was answered FROM the rebuilt index...
        assert response["ok"] and response["epoch"] == 1
        assert index_stats["hits"] >= 1
        # ...with the executed path's exact answer on the *new* graph
        mirror.add_edge(u, v)
        reference = run_algorithm("kt", mirror, [0], k=4)
        assert response["nodes"] == sorted(reference.nodes, key=repr)
        assert after["shards"]["karate"]["epoch"]["index_rebuilds"] == 1
        # the republished file binds cleanly against the mutated graph
        reloaded = load_index(index_path("karate", tmp_path), freeze(mirror))
        assert reloaded.meta["edges"] == mirror.number_of_edges()

    def test_require_mode_accepts_mutations_and_serves_from_the_index(self, tmp_path):
        self._build_index(tmp_path)

        async def scenario():
            async with ServingEngine(
                datasets=["karate"], epochs=True, index="require", index_dir=str(tmp_path)
            ) as engine:
                applied = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": [["add_node", 99]]}
                )
                served = await engine.handle(self.query_payload())
                stats = await engine.handle({"op": "stats"})
                return applied, served, stats

        applied, served, stats = run(scenario())
        # a require-mode server no longer refuses writes: the prepared epoch
        # carries the rebuilt index, so there is never a moment without one
        assert applied["ok"] and applied["epoch"] == 1
        assert applied["index"] == "rebuilt"
        assert served["ok"] and served["epoch"] == 1
        index_stats = stats["shards"]["karate"]["index"]
        assert index_stats["effective"] == "indexed"
        assert index_stats["hits"] >= 1
        assert set(index_stats["algorithms"]) >= {"kc", "kt", "hightruss"}

    def test_stale_bind_error_names_epoch_and_rebuild_uniformly(self, karate):
        index = build_index(karate.graph, dataset="karate")
        mutated = karate.graph.copy()
        mutated.add_node(12345)
        with pytest.raises(GraphError) as excinfo:
            index.bind(freeze(mutated), epoch=3)
        message = str(excinfo.value)
        assert "repro index build karate" in message
        assert "current epoch 3" in message
        assert excinfo.value.reason == "stale"
        # the same error without an epoch names the rebuild command alone
        with pytest.raises(GraphError) as plain:
            index.bind(freeze(mutated))
        assert "repro index build karate" in str(plain.value)
        assert "current epoch" not in str(plain.value)


# ----------------------------------------------------------------------------
# the cluster tier
# ----------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCoordinatorEpochs:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("replication", 2)
        return Coordinator(["karate", "dolphin"], clock=clock, **kwargs), clock

    def test_heartbeats_record_and_tables_publish_the_max(self):
        coordinator, _ = self.make()
        a = coordinator.register("10.0.0.1:7531")["node_id"]
        b = coordinator.register("10.0.0.2:7531")["node_id"]
        assert coordinator.route_table()["epochs"] == {}
        coordinator.heartbeat(a, epochs={"karate": 3, "dolphin": 1})
        coordinator.heartbeat(b, epochs={"karate": 5})
        assert coordinator.route_table()["epochs"] == {"dolphin": 1, "karate": 5}
        stats = coordinator.stats()
        assert stats["epochs"] == {"dolphin": 1, "karate": 5}
        reported = {node["node_id"]: node.get("epochs") for node in stats["nodes"]}
        assert reported[a] == {"dolphin": 1, "karate": 3}
        assert reported[b] == {"karate": 5}

    def test_dead_nodes_stop_contributing_epochs(self):
        coordinator, clock = self.make(heartbeat_interval=0.1, heartbeat_timeout=0.4)
        a = coordinator.register("10.0.0.1:7531")["node_id"]
        b = coordinator.register("10.0.0.2:7531")["node_id"]
        coordinator.heartbeat(a, epochs={"karate": 9})
        clock.advance(0.3)
        coordinator.heartbeat(b, epochs={"karate": 2})
        clock.advance(0.2)  # a is now past the timeout, b is fresh
        assert coordinator.sweep() == [a]
        assert coordinator.route_table()["epochs"] == {"karate": 2}

    @pytest.mark.parametrize(
        "epochs", [["karate", 1], {"karate": -1}, {"karate": True}, {3: 1}, {"karate": "2"}]
    )
    def test_malformed_epochs_are_bad_request(self, epochs):
        coordinator, _ = self.make()
        node = coordinator.register("10.0.0.1:7531")["node_id"]
        with pytest.raises(ProtocolError) as excinfo:
            coordinator.heartbeat(node, epochs=epochs)
        assert excinfo.value.code == "bad_request"

    def test_heartbeat_without_epochs_keeps_the_last_report(self):
        coordinator, _ = self.make()
        node = coordinator.register("10.0.0.1:7531")["node_id"]
        coordinator.heartbeat(node, epochs={"karate": 4})
        coordinator.heartbeat(node)  # a static-payload heartbeat
        assert coordinator.route_table()["epochs"] == {"karate": 4}


class _FakeEpochEngine:
    """The slice of ServingEngine a NodeAgent touches, with epochs."""

    def __init__(self, epochs):
        self._epochs = epochs
        self.owned = None

    def set_owned_datasets(self, names):
        self.owned = names

    def dataset_epochs(self):
        return dict(self._epochs)


class TestNodeAgentEpochs:
    def test_heartbeat_piggybacks_the_engine_epochs(self):
        agent = NodeAgent(
            "127.0.0.1", 1, "127.0.0.1:2", engine=_FakeEpochEngine({"karate": 7})
        )
        agent.node_id = "n0"
        sent = []
        agent._request = lambda payload: (sent.append(payload), {"ok": True})[1]
        agent._heartbeat_once()
        assert sent[0]["epochs"] == {"karate": 7}
        assert agent.info()["epochs"] == {"karate": 7}

    def test_static_engines_send_no_epochs(self):
        agent = NodeAgent("127.0.0.1", 1, "127.0.0.1:2", engine=None)
        agent.node_id = "n0"
        sent = []
        agent._request = lambda payload: (sent.append(payload), {"ok": True})[1]
        agent._heartbeat_once()
        assert "epochs" not in sent[0]
        assert "epochs" not in agent.info()


class TestClusterClientEpochRegression:
    def make_client(self, monkeypatch, responses):
        table = {"ok": True, "version": 1, "table": {"karate": ["10.0.0.1:7531"]}, "epochs": {}}
        monkeypatch.setattr(
            ClusterClient, "_coordinator_request", lambda self, payload: dict(table)
        )
        queue = list(responses)

        class FakePool:
            def query(self, dataset, algorithm, nodes, **params):
                return queue.pop(0)

            def close(self):
                pass

        monkeypatch.setattr(ClusterClient, "_pool", lambda self, address: FakePool())
        return ClusterClient("127.0.0.1", 1, refresh_interval=0.001)

    def test_regression_refetches_then_accepts_the_rebased_epoch(self, monkeypatch):
        client = self.make_client(
            monkeypatch,
            [
                {"ok": True, "nodes": [0], "epoch": 5},
                {"ok": True, "nodes": [0], "epoch": 3},  # same address went backwards
                {"ok": True, "nodes": [0], "epoch": 3},  # retry: accepted after rebase
            ],
        )
        first = client.query("karate", "kt", [0])
        assert first["epoch"] == 5 and client.epoch_regressions == 0
        second = client.query("karate", "kt", [0])
        assert second["epoch"] == 3
        assert client.epoch_regressions == 1
        assert client.counters()["epoch_regressions"] == 1

    def test_advancing_and_equal_epochs_never_trigger(self, monkeypatch):
        client = self.make_client(
            monkeypatch,
            [
                {"ok": True, "nodes": [0], "epoch": 1},
                {"ok": True, "nodes": [0], "epoch": 1},
                {"ok": True, "nodes": [0], "epoch": 2},
                {"ok": True, "nodes": [0]},  # a static answer carries no epoch
            ],
        )
        for _ in range(4):
            assert client.query("karate", "kt", [0])["ok"]
        assert client.epoch_regressions == 0
