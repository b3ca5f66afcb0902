"""Tests for the zero-copy shared-memory snapshot layer (repro.graph.shm).

Three concerns, mirroring the module's lifecycle rules:

* **share/attach parity** — an attached graph is a drop-in frozen graph:
  same read surface, same kernel results, bit-identical floats;
* **owner lifecycle** — explicit ``close()`` / ``unlink()``, idempotent
  double-teardown, the live-segment registry leak assertions rely on, and
  the structured :class:`GraphError` an attacher gets when the owner is
  already gone;
* **process boundaries** — the descriptor pickles across a real ``spawn``
  child, and the serving engine exports exactly one segment per shard,
  survives a worker crash (the respawned worker re-attaches), falls back
  to private copies when the export fails, and leaves nothing behind
  after close.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle

import pytest

from repro.experiments.registry import run_algorithm
from repro.graph import (
    FrozenGraph,
    GraphError,
    core_numbers,
    freeze,
    live_segment_names,
    shared_memory_available,
    truss_numbers,
)
from repro.graph.vec_kernels import numpy_available, set_vec_enabled
from repro.serving import ServingEngine

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="named shared memory unavailable"
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def shared_karate(karate_graph):
    """A frozen karate snapshot exported to shared memory, torn down after."""
    frozen = freeze(karate_graph)
    snapshot = frozen.share()
    try:
        yield frozen, snapshot
    finally:
        snapshot.close()
        snapshot.unlink()


# ----------------------------------------------------------------------------
# spawn-child entry points (module level: spawn pickles them by qualname)
# ----------------------------------------------------------------------------


def _attach_and_summarise(descriptor, conn):
    """Attach by descriptor in a spawned child and report what it sees."""
    try:
        attached = FrozenGraph.attach(descriptor)
        summary = {
            "nodes": attached.number_of_nodes(),
            "edges": attached.number_of_edges(),
            "degrees": attached.degree_map(),
            "truss": truss_numbers(attached),
        }
        conn.send(("ok", summary))
        attached.detach()
    except GraphError as exc:
        conn.send(("graph_error", str(exc)))
    finally:
        conn.close()


def _spawn_child(target, *args, timeout: float = 60.0):
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=target, args=(*args, child_conn), daemon=True)
    proc.start()
    child_conn.close()
    assert parent_conn.poll(timeout), "spawned child never reported back"
    message = parent_conn.recv()
    proc.join(10)
    parent_conn.close()
    return message


# ----------------------------------------------------------------------------
# share/attach parity
# ----------------------------------------------------------------------------


class TestAttachParity:
    def test_read_surface_matches_frozen(self, shared_karate):
        frozen, snapshot = shared_karate
        attached = FrozenGraph.attach(snapshot.descriptor)
        try:
            assert attached.number_of_nodes() == frozen.number_of_nodes()
            assert attached.number_of_edges() == frozen.number_of_edges()
            assert attached.nodes() == frozen.nodes()
            assert list(attached.iter_edges()) == list(frozen.iter_edges())
            assert attached.degree_map() == frozen.degree_map()
            for node in list(frozen.iter_nodes())[:5]:
                assert attached.neighbors(node) == frozen.neighbors(node)
                assert dict(attached.adjacency(node)) == dict(frozen.adjacency(node))
                assert attached.weighted_degree(node) == frozen.weighted_degree(node)
            u, v, weight = next(frozen.iter_edges())
            assert attached.has_edge(u, v) and attached.has_edge(v, u)
            assert attached.edge_weight(u, v) == weight
            assert not attached.has_edge(u, object())
            with pytest.raises(GraphError):
                attached.edge_weight(u, "not-a-node")
        finally:
            attached.detach()

    def test_kernels_bit_identical(self, shared_karate):
        frozen, snapshot = shared_karate
        attached = FrozenGraph.attach(snapshot.descriptor)
        try:
            assert core_numbers(attached) == core_numbers(frozen)
            assert truss_numbers(attached) == truss_numbers(frozen)
            for algorithm in ("kc", "kt", "NCA", "FPA"):
                reference = run_algorithm(algorithm, frozen, [0, 33])
                served = run_algorithm(algorithm, attached, [0, 33])
                assert served.nodes == reference.nodes, algorithm
                assert served.score == reference.score, algorithm
        finally:
            attached.detach()

    def test_adjacency_dict_stays_lazy_for_csr_reads(self, shared_karate):
        frozen, snapshot = shared_karate
        attached = FrozenGraph.attach(snapshot.descriptor)
        try:
            attached.degree_map()
            attached.neighbors(0)
            core_numbers(attached)
            assert attached._adj_dict is None  # no private re-materialisation
            # a genuinely dict-only consumer still works (and pays lazily)
            thawed = attached.thaw()
            assert attached._adj_dict is not None
            assert thawed.degree_map() == frozen.degree_map()
        finally:
            attached.detach()

    def test_attached_graph_pickles_by_reattaching(self, shared_karate):
        frozen, snapshot = shared_karate
        attached = FrozenGraph.attach(snapshot.descriptor)
        try:
            clone = pickle.loads(pickle.dumps(attached))
            try:
                assert clone.number_of_edges() == frozen.number_of_edges()
                assert truss_numbers(clone) == truss_numbers(frozen)
            finally:
                clone.detach()
        finally:
            attached.detach()

    @pytest.mark.skipif(not numpy_available(), reason="numpy extra not installed")
    def test_vec_kernels_read_shared_views(self, shared_karate):
        """The numpy tier must work (and agree) on read-only shared buffers."""
        from repro.graph import csr_edge_index, csr_edge_support, csr_truss_numbers

        frozen, snapshot = shared_karate
        attached = FrozenGraph.attach(snapshot.descriptor)
        try:
            csr = attached.csr
            try:
                set_vec_enabled(False)
                reference = (
                    csr_edge_support(csr, csr_edge_index(csr)),
                    csr_truss_numbers(csr, csr_edge_index(csr)),
                )
                set_vec_enabled(True)
                vectorised = (
                    csr_edge_support(csr, csr_edge_index(csr)),
                    csr_truss_numbers(csr, csr_edge_index(csr)),
                )
            finally:
                set_vec_enabled(None)
            assert vectorised == reference
        finally:
            attached.detach()


# ----------------------------------------------------------------------------
# owner lifecycle
# ----------------------------------------------------------------------------


class TestOwnerLifecycle:
    def test_live_registry_tracks_share_and_unlink(self, karate_graph):
        frozen = freeze(karate_graph)
        snapshot = frozen.share()
        try:
            assert snapshot.name in live_segment_names()
        finally:
            snapshot.close()
            snapshot.unlink()
        assert snapshot.name not in live_segment_names()

    def test_close_and_unlink_are_idempotent(self, karate_graph):
        snapshot = freeze(karate_graph).share()
        snapshot.close()
        snapshot.close()
        snapshot.unlink()
        snapshot.unlink()  # double teardown in crash paths must stay safe
        assert snapshot.name not in live_segment_names()

    def test_context_manager_tears_down(self, karate_graph):
        with freeze(karate_graph).share() as snapshot:
            name = snapshot.name
            assert name in live_segment_names()
        assert name not in live_segment_names()

    def test_attach_after_unlink_raises_graph_error(self, karate_graph):
        snapshot = freeze(karate_graph).share()
        descriptor = snapshot.descriptor
        snapshot.close()
        snapshot.unlink()
        with pytest.raises(GraphError, match="gone"):
            FrozenGraph.attach(descriptor)

    def test_detach_is_idempotent_and_blocks_use(self, shared_karate):
        _, snapshot = shared_karate
        attached = FrozenGraph.attach(snapshot.descriptor)
        attached.detach()
        attached.detach()
        with pytest.raises(GraphError, match="detached"):
            attached.csr
        with pytest.raises(GraphError, match="detached"):
            attached.number_of_nodes()

    def test_descriptor_pickle_roundtrip(self, shared_karate):
        frozen, snapshot = shared_karate
        descriptor = pickle.loads(pickle.dumps(snapshot.descriptor))
        assert descriptor.segment == snapshot.descriptor.segment
        assert descriptor.regions == snapshot.descriptor.regions
        attached = FrozenGraph.attach(descriptor)
        try:
            assert attached.degree_map() == frozen.degree_map()
        finally:
            attached.detach()


# ----------------------------------------------------------------------------
# process boundaries: real spawn children + the serving engine
# ----------------------------------------------------------------------------


class TestAcrossProcesses:
    def test_descriptor_attaches_in_spawned_child(self, shared_karate):
        frozen, snapshot = shared_karate
        status, summary = _spawn_child(_attach_and_summarise, snapshot.descriptor)
        assert status == "ok"
        assert summary["nodes"] == frozen.number_of_nodes()
        assert summary["edges"] == frozen.number_of_edges()
        assert summary["degrees"] == frozen.degree_map()
        assert summary["truss"] == truss_numbers(frozen)

    def test_child_attach_after_owner_crash_is_structured(self, karate_graph):
        """A child racing a dead owner gets GraphError, not a crash."""
        snapshot = freeze(karate_graph).share()
        descriptor = snapshot.descriptor
        snapshot.close()
        snapshot.unlink()  # the owner is gone before the child attaches
        status, detail = _spawn_child(_attach_and_summarise, descriptor)
        assert status == "graph_error"
        assert "gone" in detail


class TestServingSharedSnapshots:
    ALGORITHMS = ("kc", "kt", "NCA", "FPA")

    def _serve(self, *, queries=((0, 33),), **engine_kwargs):
        async def scenario():
            async with ServingEngine(datasets=["karate"], **engine_kwargs) as engine:
                results = [
                    await engine.query("karate", algorithm, list(nodes))
                    for nodes in queries
                    for algorithm in self.ALGORITHMS
                ]
                return results, engine.stats()["shards"]["karate"]

        return run(scenario())

    def test_process_replicas_share_one_segment_and_clean_up(self, karate):
        before = live_segment_names()
        served, stats = self._serve(replicas=2, executor="process")
        assert stats["snapshot"] == "shared"
        for replica in stats["replicas"]:
            assert replica["executor"]["snapshot"] == "shared"
        for (result, _, _), algorithm in zip(served, self.ALGORITHMS):
            reference = run_algorithm(algorithm, karate.graph, [0, 33])
            assert result.nodes == reference.nodes, algorithm
            assert result.score == reference.score, algorithm
        # the owner unlinked its segment on close: nothing survives
        assert live_segment_names() == before

    def test_share_failure_falls_back_to_private(self, karate, share_fails, own_shm_segments):
        """A host whose export fails serves from private worker copies:
        bit-identical answers, and nothing left in shared memory."""
        before = live_segment_names()
        served, stats = self._serve(replicas=1, executor="process")
        assert stats["snapshot"] == "private"
        worker = stats["replicas"][0]["executor"]
        assert worker["kind"] == "process" and worker["snapshot"] == "private"
        for (result, _, _), algorithm in zip(served, self.ALGORITHMS):
            reference = run_algorithm(algorithm, karate.graph, [0, 33])
            assert result.nodes == reference.nodes, algorithm
            assert result.score == reference.score, algorithm
        assert live_segment_names() == before
        assert not own_shm_segments()

    def test_inline_executor_is_effectively_private(self):
        _, stats = self._serve(replicas=2)  # inline: nothing to attach
        assert stats["executor"] == "inline"
        assert stats["snapshot"] == "private"

    def test_invalid_snapshot_mode_rejected(self):
        # shared with the automatic private fallback is the only mode
        with pytest.raises(TypeError):
            ServingEngine(datasets=["karate"], snapshot="private")

    def test_worker_crash_respawns_and_reattaches(self, karate):
        """Kill the worker under a shared snapshot: the replacement must
        re-attach the same segment and keep serving bit-identically."""

        async def scenario():
            async with ServingEngine(datasets=["karate"], executor="process") as engine:
                first = await engine.query("karate", "kt", [0, 33])
                replica = engine.shards["karate"].replica_set.replicas[0]
                executor = replica.executor
                executor._proc.kill()
                executor._proc.join(10)
                # distinct query (the first is cached); the dead worker is
                # detected on submit and a fresh one spawned + re-attached
                second = await engine.query("karate", "kt", [1, 2])
                return first[0], second[0], executor.describe()

        before = live_segment_names()
        first, second, describe = run(scenario())
        assert describe["restarts"] == 1
        assert describe["snapshot"] == "shared"
        for result, nodes in ((first, [0, 33]), (second, [1, 2])):
            reference = run_algorithm("kt", karate.graph, nodes)
            assert result.nodes == reference.nodes
            assert result.score == reference.score
        assert live_segment_names() == before
