"""Property-style parity tests: dict backend vs the CSR fast path.

The CSR backend must be a *drop-in* replacement: every kernel and both
peeling algorithms have to return results identical to the dict reference
implementation — same node sets, same scores, same removal orders, same
traces (bit-identical floats).  These tests sweep random graph families
(Erdős–Rényi, planted partition, LFR, ring of cliques) plus the hand-built
fixtures and compare both paths exhaustively.
"""

from __future__ import annotations

import pytest

from repro.core import fpa, nca
from repro.core.framework import graph_backend
from repro.graph import vec_kernels
from repro.experiments import evaluate_algorithm, evaluate_batch, generate_query_sets
from repro.graph import (
    Graph,
    GraphError,
    articulation_points,
    core_numbers,
    csr_articulation_points,
    csr_connected_components,
    csr_core_numbers,
    csr_multi_source_bfs,
    csr_shortest_path,
    connected_components,
    edge_support,
    erdos_renyi,
    freeze,
    is_connected,
    k_edge_connected_components,
    k_truss_subgraph,
    lfr_benchmark,
    multi_source_bfs,
    node_truss_numbers,
    planted_partition,
    ring_of_cliques,
    shortest_path,
    stoer_wagner_min_cut,
    truss_numbers,
)


def _graph_zoo():
    """A diverse family of test graphs (some disconnected, some weighted)."""
    graphs = [erdos_renyi(60, 0.07, seed=seed) for seed in range(4)]
    graphs.append(erdos_renyi(80, 0.02, seed=11))  # sparse, disconnected
    pp, _ = planted_partition(5, 16, 0.35, 0.02, seed=2)
    graphs.append(pp)
    graphs.append(ring_of_cliques(8, 5))
    lfr = lfr_benchmark(
        n=150, avg_degree=8, max_degree=30, mu=0.25, min_community=12, max_community=40, seed=9
    )
    graphs.append(lfr.graph)
    mixed = Graph([("a", "b", 2.0), ("b", "c"), ("c", "a", 0.5), ("d", "e")])
    graphs.append(mixed)
    return graphs


@pytest.fixture(scope="module", params=range(8))
def zoo_graph(request):
    return _graph_zoo()[request.param]


class TestKernelParity:
    def test_bfs_distances_and_layers(self, zoo_graph):
        frozen = freeze(zoo_graph)
        csr = frozen.csr
        nodes = [node for node in zoo_graph.iter_nodes() if zoo_graph.degree(node) > 0]
        if not nodes:
            pytest.skip("empty graph")
        for sources in ([nodes[0]], nodes[:3]):
            dict_dist = multi_source_bfs(zoo_graph, sources)
            dist, order = csr_multi_source_bfs(csr, [csr.index_of[s] for s in sources])
            csr_dist = {csr.node_list[i]: dist[i] for i in order}
            assert dict_dist == csr_dist
            # discovery order must match too (FPA's layers depend on it)
            assert list(dict_dist) == [csr.node_list[i] for i in order]

    def test_connected_components(self, zoo_graph):
        frozen = freeze(zoo_graph)
        csr = frozen.csr
        dict_components = [frozenset(c) for c in connected_components(zoo_graph)]
        csr_components = [
            frozenset(csr.node_list[i] for i in component)
            for component in csr_connected_components(csr)
        ]
        assert dict_components == csr_components

    def test_articulation_points(self, zoo_graph):
        frozen = freeze(zoo_graph)
        csr = frozen.csr
        expected = articulation_points(zoo_graph)
        got = {csr.node_list[i] for i in csr_articulation_points(csr)}
        assert expected == got

    def test_articulation_points_with_alive_mask(self, zoo_graph):
        frozen = freeze(zoo_graph)
        csr = frozen.csr
        nodes = list(zoo_graph.iter_nodes())
        keep = set(nodes[: max(3, 2 * len(nodes) // 3)])
        alive = bytearray(csr.number_of_nodes())
        for node in keep:
            alive[csr.index_of[node]] = 1
        expected = articulation_points(zoo_graph.subgraph(keep))
        got = {csr.node_list[i] for i in csr_articulation_points(csr, alive)}
        assert expected == got

    def test_coreness(self, zoo_graph):
        frozen = freeze(zoo_graph)
        csr = frozen.csr
        expected = core_numbers(zoo_graph)
        core = csr_core_numbers(csr)
        got = {csr.node_list[i]: c for i, c in enumerate(core) if c >= 0}
        assert expected == got

    def test_shortest_path(self, zoo_graph):
        frozen = freeze(zoo_graph)
        csr = frozen.csr
        nodes = list(zoo_graph.iter_nodes())
        for src, dst in [(nodes[0], nodes[-1]), (nodes[0], nodes[len(nodes) // 2])]:
            expected = shortest_path(zoo_graph, src, dst)
            got = csr_shortest_path(csr, csr.index_of[src], csr.index_of[dst])
            if expected is None:
                assert got is None
            else:
                assert expected == [csr.node_list[i] for i in got]


def _assert_same_graph_and_orders(a: Graph, b: Graph, context) -> None:
    """Equality plus identical node / adjacency *orders* (tie-break safety)."""
    assert a == b, context
    assert list(a.iter_nodes()) == list(b.iter_nodes()), context
    for node in a.iter_nodes():
        assert list(a.adjacency(node).items()) == list(b.adjacency(node).items()), (
            context,
            node,
        )


class TestTrussKernelParity:
    """The truss decomposition must be identical on both backends.

    ``Graph`` rejects self-loops at construction, so every zoo graph is
    simple; several zoo graphs are disconnected, which exercises the
    multi-component paths of the kernels.
    """

    def test_edge_support_parity(self, zoo_graph):
        assert edge_support(zoo_graph) == edge_support(freeze(zoo_graph))

    def test_truss_numbers_parity(self, zoo_graph):
        frozen = freeze(zoo_graph)
        assert truss_numbers(zoo_graph) == truss_numbers(frozen)
        assert node_truss_numbers(zoo_graph) == node_truss_numbers(frozen)

    def test_k_truss_subgraph_parity(self, zoo_graph):
        frozen = freeze(zoo_graph)
        for k in (2, 3, 4, 5):
            _assert_same_graph_and_orders(
                k_truss_subgraph(zoo_graph, k), k_truss_subgraph(frozen, k), k
            )

    def test_k_truss_within_parity(self, zoo_graph):
        frozen = freeze(zoo_graph)
        nodes = list(zoo_graph.iter_nodes())
        subset = nodes[: max(4, 2 * len(nodes) // 3)]
        for k in (3, 4):
            _assert_same_graph_and_orders(
                k_truss_subgraph(zoo_graph, k, within=subset),
                k_truss_subgraph(frozen, k, within=subset),
                k,
            )

    def test_invalid_k_matches(self, zoo_graph):
        with pytest.raises(GraphError):
            k_truss_subgraph(freeze(zoo_graph), 1)

    def test_k_truss_edge_mask(self, zoo_graph):
        from repro.graph import csr_edge_index, csr_k_truss_edges

        frozen = freeze(zoo_graph)
        csr = frozen.csr
        index = csr_edge_index(csr)
        for k in (3, 4):
            mask = csr_k_truss_edges(csr, k, index)
            kept = {
                frozenset((csr.node_list[index.eu[e]], csr.node_list[index.ev[e]]))
                for e in range(index.num_edges)
                if mask[e]
            }
            expected = {
                frozenset(edge) for edge in k_truss_subgraph(zoo_graph, k).edges()
            }
            assert kept == expected, k


class TestCutKernelParity:
    def test_stoer_wagner_parity(self, zoo_graph):
        components = connected_components(zoo_graph)
        for component in components:
            if len(component) < 2:
                continue
            sub = zoo_graph.subgraph(component)
            dict_weight, dict_side = stoer_wagner_min_cut(sub)
            csr_weight, csr_side = stoer_wagner_min_cut(freeze(sub))
            assert dict_weight == csr_weight
            assert dict_side == csr_side

    def test_stoer_wagner_weighted_parity(self):
        graph = Graph([(1, 2, 10.0), (2, 3, 0.5), (3, 4, 10.0), (4, 1, 0.5), (1, 3, 2.0)])
        dict_weight, dict_side = stoer_wagner_min_cut(graph)
        csr_weight, csr_side = stoer_wagner_min_cut(freeze(graph))
        assert dict_weight == csr_weight
        assert dict_side == csr_side

    def test_stoer_wagner_requires_two_nodes(self):
        with pytest.raises(GraphError):
            stoer_wagner_min_cut(freeze(Graph(nodes=[1])))

    def test_kecc_partition_parity(self, zoo_graph):
        frozen = freeze(zoo_graph)
        for k in (1, 2, 3):
            # full list equality: same components in the same order
            assert k_edge_connected_components(zoo_graph, k) == k_edge_connected_components(
                frozen, k
            ), k

    def test_kecc_within_parity(self, zoo_graph):
        frozen = freeze(zoo_graph)
        nodes = list(zoo_graph.iter_nodes())
        subset = nodes[: max(4, 2 * len(nodes) // 3)]
        for k in (2, 3):
            assert k_edge_connected_components(
                zoo_graph, k, within=subset
            ) == k_edge_connected_components(frozen, k, within=subset), k

    def test_kecc_multi_component(self):
        # two triangles joined by a bridge plus a fully separate triangle and
        # an isolated node: exercises both bridge-splitting and the
        # multi-component top level of the recursion
        graph = Graph(
            [(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12), (3, 10)],
            nodes=[99],
        )
        graph.add_edges_from([(20, 21), (21, 22), (20, 22)])
        assert not is_connected(graph)
        frozen = freeze(graph)
        for k in (1, 2, 3):
            dict_parts = k_edge_connected_components(graph, k)
            assert dict_parts == k_edge_connected_components(frozen, k)
        assert {frozenset(part) for part in k_edge_connected_components(frozen, 2)} == {
            frozenset({1, 2, 3}),
            frozenset({10, 11, 12}),
            frozenset({20, 21, 22}),
        }


class TestTrussCutMemoisation:
    def test_truss_memoised_on_snapshot(self, karate_graph):
        frozen = freeze(karate_graph)
        first = truss_numbers(frozen)
        assert first is truss_numbers(frozen)  # cached, not recomputed
        keys = {key[0] for key in frozen.shared_cache()}
        assert {"csr-edge-index", "csr-edge-truss", "truss-numbers"} <= keys

    def test_kecc_partition_via_baseline_memoised(self, karate_graph):
        from repro.baselines import kecc_community

        frozen = freeze(karate_graph)
        a = kecc_community(frozen, [0], approximate_above=None)
        b = kecc_community(frozen, [33], approximate_above=None)
        assert any(key[0] == "kecc-partition" for key in frozen.shared_cache())
        dict_a = kecc_community(karate_graph, [0], approximate_above=None)
        dict_b = kecc_community(karate_graph, [33], approximate_above=None)
        assert (a.nodes, a.score, a.extra.get("failed")) == (
            dict_a.nodes,
            dict_a.score,
            dict_a.extra.get("failed"),
        )
        assert (b.nodes, b.score, b.extra.get("failed")) == (
            dict_b.nodes,
            dict_b.score,
            dict_b.extra.get("failed"),
        )

    def test_truss_baselines_parity_and_memo(self, karate_graph):
        from repro.baselines import (
            closest_truss_community,
            highest_truss_community,
            ktruss_community,
        )

        frozen = freeze(karate_graph)
        for runner, kwargs in (
            (ktruss_community, {"k": 4}),
            (highest_truss_community, {}),
            (closest_truss_community, {}),
        ):
            for queries in ([0], [0, 33], [5, 6]):
                a = runner(karate_graph, queries, **kwargs)
                b = runner(frozen, queries, **kwargs)
                assert (a.nodes, a.score, a.algorithm) == (b.nodes, b.score, b.algorithm), (
                    runner.__name__,
                    queries,
                )
        assert any(key[0] == "ktruss-structure" for key in frozen.shared_cache())
        assert ("node-truss-numbers",) in frozen.shared_cache()


def _assert_identical(a, b, context):
    assert a.nodes == b.nodes, context
    assert a.score == b.score, context
    assert a.removal_order == b.removal_order, context
    assert a.trace == b.trace, context
    assert a.algorithm == b.algorithm, context


class TestAlgorithmParity:
    def test_nca_single_and_multi_query(self, zoo_graph):
        frozen = freeze(zoo_graph)
        nodes = [node for node in zoo_graph.iter_nodes() if zoo_graph.degree(node) > 0]
        for queries in ([nodes[0]], nodes[:3]):
            for selection in ("gain", "ratio"):
                dict_result = nca(zoo_graph, queries, selection=selection)
                csr_result = nca(frozen, queries, selection=selection)
                assert dict_result.extra.get("backend", "dict") == "dict"
                if not dict_result.extra.get("failed"):
                    assert csr_result.extra["backend"] == "csr"
                _assert_identical(dict_result, csr_result, (queries, selection))

    def test_fpa_all_variants(self, zoo_graph):
        frozen = freeze(zoo_graph)
        nodes = [node for node in zoo_graph.iter_nodes() if zoo_graph.degree(node) > 0]
        variants = [
            {},
            {"layer_pruning": False},
            {"selection": "gain"},
            {"objective": "classic_modularity"},
            {"objective": "generalized_modularity_density"},
        ]
        for queries in ([nodes[0]], nodes[:4]):
            for kwargs in variants:
                dict_result = fpa(zoo_graph, queries, **kwargs)
                csr_result = fpa(frozen, queries, **kwargs)
                _assert_identical(dict_result, csr_result, (queries, kwargs))

    def test_nca_max_iterations_parity(self, karate_graph):
        frozen = freeze(karate_graph)
        for cap in (1, 3, 7):
            _assert_identical(
                nca(karate_graph, [0], max_iterations=cap),
                nca(frozen, [0], max_iterations=cap),
                cap,
            )

    def test_fpa_seed_parity(self, karate_graph):
        frozen = freeze(karate_graph)
        for seed in range(4):
            _assert_identical(
                fpa(karate_graph, [0, 33, 16], seed=seed),
                fpa(frozen, [0, 33, 16], seed=seed),
                seed,
            )

    def test_failures_match(self):
        graph = Graph([(1, 2), (3, 4)])
        frozen = freeze(graph)
        for algo in (nca, fpa):
            a, b = algo(graph, [1, 3]), algo(frozen, [1, 3])
            assert a.size == b.size == 0
            assert a.extra.get("failed") and b.extra.get("failed")
        # unknown query node: nca fails softly, fpa raises — on both backends
        assert nca(frozen, [999]).extra.get("failed")
        with pytest.raises(GraphError):
            fpa(frozen, [999])


class TestFrozenGraph:
    def test_backend_detection(self, karate_graph):
        assert graph_backend(karate_graph) == "dict"
        assert graph_backend(freeze(karate_graph)) == "csr"

    def test_freeze_is_a_readable_graph(self, karate_graph):
        frozen = freeze(karate_graph)
        assert frozen == karate_graph
        assert frozen.number_of_edges() == karate_graph.number_of_edges()
        assert frozen.degree(0) == karate_graph.degree(0)
        assert freeze(frozen) is frozen  # idempotent

    def test_freeze_is_immutable_and_thawable(self, karate_graph):
        frozen = freeze(karate_graph)
        with pytest.raises(GraphError):
            frozen.add_edge(0, 99)
        with pytest.raises(GraphError):
            frozen.remove_node(0)
        with pytest.raises(GraphError):
            frozen.add_node(99)
        thawed = frozen.thaw()
        thawed.add_edge(0, 99)  # mutable again
        assert thawed.has_edge(0, 99) and not frozen.has_node(99)

    def test_freeze_snapshots(self, karate_graph):
        graph = karate_graph.copy()
        frozen = graph.freeze()
        graph.remove_node(33)
        assert frozen.has_node(33)  # snapshot unaffected by later mutation

    def test_to_csr_roundtrip(self, karate_graph):
        csr = karate_graph.to_csr()
        assert csr.number_of_nodes() == karate_graph.number_of_nodes()
        assert csr.number_of_edges() == karate_graph.number_of_edges()
        for node in karate_graph.iter_nodes():
            index = csr.index_of[node]
            assert csr.degree(index) == karate_graph.degree(node)
            expected = [csr.index_of[nbr] for nbr in karate_graph.adjacency(node)]
            assert list(csr.neighbors(index)) == expected

    def test_frozen_graph_pickles(self, karate_graph):
        import pickle

        frozen = freeze(karate_graph)
        frozen.csr.adjacency_lists()  # populate caches
        clone = pickle.loads(pickle.dumps(frozen))
        assert clone == karate_graph
        _assert_identical(fpa(frozen, [0]), fpa(clone, [0]), "pickle")


class TestBatchedEngineParity:
    def test_batched_records_match_per_query(self, karate):
        query_sets = generate_query_sets(karate, num_sets=5, seed=1)
        algorithms = ["FPA", "NCA", "kc", "kecc", "kt", "hightruss", "huang2015"]
        batched = evaluate_batch(karate, algorithms, query_sets)
        for algorithm in algorithms:
            per_query = evaluate_algorithm(karate, algorithm, query_sets)
            for a, b in zip(per_query, batched[algorithm]):
                assert (a.nmi, a.ari, a.fscore, a.community_size, a.failed) == (
                    b.nmi,
                    b.ari,
                    b.fscore,
                    b.community_size,
                    b.failed,
                ), algorithm

    def test_batched_reuses_frozen_snapshot(self, karate):
        query_sets = generate_query_sets(karate, num_sets=3, seed=2)
        frozen = karate.graph.freeze()
        records = evaluate_batch(karate, ["kecc", "kt"], query_sets, frozen=frozen)
        assert len(records["kecc"]) == len(records["kt"]) == 3
        # the query-independent decompositions were memoised on the snapshot
        cached = {key[0] for key in frozen.shared_cache()}
        assert {"kcore-structure", "csr-edge-truss", "ktruss-structure"} <= cached


class TestClosestTrussParity:
    """The huang2015 phase-2 greedy deletion now runs its BFS distance
    recomputation on the CSR kernels (alive-mask multi-source BFS instead of
    mutable dict subgraphs).  Sweep query sets chosen to actually exercise
    deletions and require bit-identical results, deletion counts included."""

    def _assert_closest_truss_identical(self, graph, queries):
        from repro.baselines import closest_truss_community

        dict_result = closest_truss_community(graph, queries)
        csr_result = closest_truss_community(freeze(graph), queries)
        assert dict_result.nodes == csr_result.nodes, queries
        assert dict_result.score == csr_result.score, queries
        assert dict_result.extra.get("failed") == csr_result.extra.get("failed")
        if not dict_result.extra.get("failed"):
            for key in ("k", "query_distance", "deletions"):
                assert dict_result.extra[key] == csr_result.extra[key], (queries, key)
        return dict_result

    def test_karate_sweep_exercises_deletions(self, karate_graph):
        total_deletions = 0
        for queries in ([0], [0, 33], [5, 16], [0, 1, 2], [8, 30]):
            result = self._assert_closest_truss_identical(karate_graph, queries)
            total_deletions += result.extra.get("deletions", 0)
        # the sweep must actually run the ported phase-2 loop
        assert total_deletions > 0

    def test_planted_partition_multi_query(self):
        pp, _ = planted_partition(4, 30, 0.4, 0.02, seed=3)
        nodes = list(pp.iter_nodes())
        deletions = 0
        for queries in ([nodes[0]], [nodes[0], nodes[40]], [nodes[10], nodes[75], nodes[100]]):
            result = self._assert_closest_truss_identical(pp, queries)
            deletions += result.extra.get("deletions", 0)
        assert deletions > 0

    def test_disconnected_queries_fail_on_both_backends(self):
        graph = Graph([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        self._assert_closest_truss_identical(graph, [1, 4])


class TestVecTierParity:
    """The optional numpy tier must be bit-identical to the python CSR path.

    Every case runs the *same public entry point* twice with the dispatch
    switch forced (``set_vec_enabled``), over the full zoo — including
    disconnected graphs, weighted graphs and alive masks — so the sweep
    exercises exactly the code path a serving worker takes when numpy is
    installed.  Skipped wholesale when the ``[vec]`` extra is absent; the
    pure-python tier is what every other test in this file covers.
    """

    pytestmark = pytest.mark.skipif(
        not vec_kernels.numpy_available(), reason="numpy extra not installed"
    )

    @pytest.fixture(autouse=True)
    def _restore_dispatch(self):
        yield
        vec_kernels.set_vec_enabled(None)

    @staticmethod
    def _both_tiers(kernel):
        vec_kernels.set_vec_enabled(False)
        reference = kernel()
        vec_kernels.set_vec_enabled(True)
        vectorised = kernel()
        return reference, vectorised

    def test_bfs_parity_including_discovery_order(self, zoo_graph):
        csr = freeze(zoo_graph).csr
        n = csr.number_of_nodes()
        sources_cases = [[0], [0, n // 2, n - 1]]
        for sources in sources_cases:
            # kill every third node but keep the sources alive (a dead
            # source is a structured error on both tiers, checked below)
            alive = bytearray(
                1 if (i % 3 or i in sources) else 0 for i in range(n)
            )
            for mask in (None, alive):
                reference, vectorised = self._both_tiers(
                    lambda: csr_multi_source_bfs(csr, sources, mask)
                )
                assert vectorised == reference, (sources, mask is not None)

    def test_bfs_dead_source_raises_on_both_tiers(self, zoo_graph):
        csr = freeze(zoo_graph).csr
        dead = bytearray(csr.number_of_nodes())  # everyone dead
        for enabled in (False, True):
            vec_kernels.set_vec_enabled(enabled)
            with pytest.raises(GraphError, match="not alive"):
                csr_multi_source_bfs(csr, [0], dead)

    def test_edge_support_parity(self, zoo_graph):
        from repro.graph import csr_edge_index, csr_edge_support

        csr = freeze(zoo_graph).csr
        n = csr.number_of_nodes()
        alive = bytearray(1 if i % 4 else 0 for i in range(n))
        for mask in (None, alive):
            reference, vectorised = self._both_tiers(
                lambda: csr_edge_support(csr, csr_edge_index(csr), mask)
            )
            assert vectorised == reference, mask is not None

    def test_truss_numbers_parity(self, zoo_graph):
        from repro.graph import csr_edge_index, csr_truss_numbers

        csr = freeze(zoo_graph).csr
        n = csr.number_of_nodes()
        alive = bytearray(1 if i % 4 else 0 for i in range(n))
        for mask in (None, alive):
            reference, vectorised = self._both_tiers(
                lambda: csr_truss_numbers(csr, csr_edge_index(csr), mask)
            )
            assert vectorised == reference, mask is not None

    def test_truss_decomposition_and_subgraphs_parity(self, zoo_graph):
        reference, vectorised = self._both_tiers(
            lambda: (
                truss_numbers(freeze(zoo_graph)),
                node_truss_numbers(freeze(zoo_graph)),
                sorted(k_truss_subgraph(freeze(zoo_graph), 3).edges()),
            )
        )
        assert vectorised == reference

    def test_algorithms_parity(self, zoo_graph):
        """NCA and every FPA variant on fresh snapshots per tier (no shared
        memo cache): single- and multi-query sets, two connector seeds,
        removal orders included."""
        nodes = [node for node in zoo_graph.iter_nodes() if zoo_graph.degree(node) > 0]
        query_sets = ([nodes[0]], nodes[:4], nodes[-3:])
        fpa_variants = [
            {},
            {"layer_pruning": False},
            {"selection": "gain"},
            {"selection": "gain", "layer_pruning": False},
            {"objective": "classic_modularity"},
            {"objective": "generalized_modularity_density"},
        ]

        def run_algorithms():
            frozen = freeze(zoo_graph)  # fresh: memoisation cannot leak tiers
            results = []
            for queries in query_sets:
                runs = [nca(frozen, queries)]
                for kwargs in fpa_variants:
                    runs.extend(fpa(frozen, queries, seed=seed, **kwargs) for seed in (0, 1))
                results.extend(
                    (result.nodes, result.score, result.removal_order, result.trace)
                    for result in runs
                )
            return results

        reference, vectorised = self._both_tiers(run_algorithms)
        assert vectorised == reference
