"""Peel traces against a from-scratch Definition-2 oracle, on tiny graphs.

FPA and NCA report ``trace[i]``: the objective of the query component
after the first ``i`` nodes of ``removal_order`` are gone.  Every entry is
recomputed here from the induced subgraph with this file's own edge and
degree counts (no ``CommunityStatistics``, no ``objective_from_scalars``),
on both backends and both CSR tiers.  The graphs are small enough (≤ 12
nodes) that every trace is cheap to recompute, and include multi-layer
trees and paths so FPA's layer prune commits, skips and fine-peels layers.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import fpa, nca
from repro.graph import Graph, GraphError, erdos_renyi, freeze, vec_kernels
from repro.modularity import CommunityStatistics
from repro.serving.executor import execute_one
from repro.serving.protocol import ProtocolError

TOLERANCE = 1e-12

BACKENDS = ["dict", "csr-python"] + (["csr-vec"] if vec_kernels.numpy_available() else [])


@pytest.fixture(params=BACKENDS)
def prepare(request):
    """How to hand a graph to the algorithm under test, per backend and tier."""
    if request.param == "dict":
        yield lambda graph: graph
    else:
        vec_kernels.set_vec_enabled(request.param == "csr-vec")
        yield freeze
        vec_kernels.set_vec_enabled(None)


def _path(n: int) -> Graph:
    return Graph([(i, i + 1) for i in range(n - 1)])


def _tree(n: int, branching: int) -> Graph:
    return Graph([((i - 1) // branching, i) for i in range(1, n)])


def _tiny_graphs() -> list[Graph]:
    graphs = [
        _path(2),
        _path(7),
        _path(12),
        _tree(12, 2),
        _tree(10, 3),
        # two triangles joined by a bridge, with a pendant on each side
        Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 6), (5, 7)]),
        # star plus one chord
        Graph([(0, i) for i in range(1, 8)] + [(1, 2)]),
        # cycle with a tail: several nodes per layer
        Graph([(i, (i + 1) % 8) for i in range(8)] + [(4, 8), (8, 9), (9, 10)]),
        # clique: one layer, everything at distance 1
        Graph(list(itertools.combinations(range(6), 2))),
        # string node ids, a second component, and a weighted edge
        Graph([("a", "b", 2.0), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "e"), ("x", "y")]),
    ]
    for seed in range(8):
        graph = erdos_renyi(5 + seed % 8, 0.3 + 0.05 * (seed % 4), seed=seed)
        if graph.number_of_edges():
            graphs.append(graph)
    return graphs


def _component(graph: Graph, start) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [v for u in frontier for v in graph.adjacency(u) if v not in seen]
        seen.update(frontier)
    return seen


def _objective(graph: Graph, members: set, objective: str) -> float:
    """Definition 2 (and the two ablation objectives) from raw counts."""
    edges = sum(1 for u in graph.iter_nodes() for v in graph.adjacency(u) if repr(u) < repr(v))
    internal = sum(
        1 for u in members for v in graph.adjacency(u) if v in members and repr(u) < repr(v)
    )
    degrees = sum(len(graph.adjacency(u)) for u in members)
    size = len(members)
    if objective == "density_modularity":
        return (internal - degrees**2 / (4 * edges)) / size
    modularity = internal / edges - (degrees / (2 * edges)) ** 2
    if objective == "classic_modularity":
        return modularity
    density = 0.0 if size == 1 else 2 * internal / (size * (size - 1))
    return modularity * density


def _query_sets(graph: Graph, rng: random.Random) -> list[list]:
    nodes = sorted(graph.iter_nodes(), key=repr)
    sets = [[nodes[0]], [nodes[-1]], [rng.choice(nodes)]]
    component = sorted(_component(graph, nodes[0]), key=repr)
    if len(component) >= 3:
        sets.append(rng.sample(component, 2))
        sets.append(rng.sample(component, 3))
    return sets


def _check_against_oracle(graph: Graph, queries: list, result, objective: str) -> None:
    component = _component(graph, queries[0])
    order = list(result.removal_order)
    assert len(set(order)) == len(order)
    assert set(order) <= component - set(queries)
    assert len(result.trace) == len(order) + 1
    for i, value in enumerate(result.trace):
        expected = _objective(graph, component - set(order[:i]), objective)
        assert abs(value - expected) <= TOLERANCE * max(1.0, abs(expected)), (i, value, expected)
    assert result.score == max(result.trace)
    best = max(i for i, value in enumerate(result.trace) if value == result.score)
    assert set(result.nodes) == component - set(order[:best])


FPA_VARIANTS = [
    {},
    {"layer_pruning": False},
    {"selection": "gain"},
    {"selection": "gain", "layer_pruning": False},
    {"objective": "classic_modularity"},
    {"objective": "generalized_modularity_density"},
    {"objective": "generalized_modularity_density", "layer_pruning": False},
]


class TestPeelTraceOracle:
    @pytest.mark.parametrize("variant", FPA_VARIANTS, ids=lambda v: repr(v) if v else "default")
    def test_fpa_traces_match_definition_2(self, prepare, variant):
        rng = random.Random(5)
        objective = variant.get("objective", "density_modularity")
        for graph in _tiny_graphs():
            for queries in _query_sets(graph, rng):
                result = fpa(prepare(graph), queries, **variant)
                _check_against_oracle(graph, queries, result, objective)

    @pytest.mark.parametrize("selection", ["gain", "ratio"])
    def test_nca_traces_match_definition_2(self, prepare, selection):
        rng = random.Random(6)
        for graph in _tiny_graphs():
            for queries in _query_sets(graph, rng):
                result = nca(prepare(graph), queries, selection=selection)
                _check_against_oracle(graph, queries, result, "density_modularity")

    def test_layer_prune_is_a_prefix_of_the_full_peel_on_a_path(self, prepare):
        """On a path every layer is one node, so FPA's layer prune (commit whole
        layers, fine-peel the next one, stop) must reproduce a strict prefix
        of the unpruned peel, trace floats included."""
        graph = _path(12)
        pruned = fpa(prepare(graph), [0])
        plain = fpa(prepare(graph), [0], layer_pruning=False)
        kept = len(pruned.removal_order)
        assert 0 < kept < len(plain.removal_order)
        assert pruned.removal_order == plain.removal_order[:kept]
        assert pruned.trace == plain.trace[: kept + 1]
        assert pruned.nodes == plain.nodes


def _edgeless() -> Graph:
    graph = Graph()
    for node in range(3):
        graph.add_node(node)
    return graph


class TestEdgelessGraph:
    """Density modularity is undefined without edges: a ``GraphError``, not a crash."""

    @pytest.mark.parametrize("algorithm", [fpa, nca], ids=["fpa", "nca"])
    def test_algorithms_raise_graph_error(self, prepare, algorithm):
        with pytest.raises(GraphError, match="graph has no edges"):
            algorithm(prepare(_edgeless()), [0])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_community_statistics_raise_graph_error(self, weighted):
        stats = CommunityStatistics(_edgeless(), [0, 1], weighted=weighted)
        with pytest.raises(GraphError, match="graph has no edges"):
            stats.density_modularity()

    @pytest.mark.parametrize("name", ["FPA", "NCA"])
    def test_execute_one_answers_bad_query(self, prepare, name):
        outcome = execute_one(prepare(_edgeless()), name, {}, [0])
        assert isinstance(outcome, ProtocolError)
        assert outcome.code == "bad_query"
        assert "graph has no edges" in outcome.message
