"""Tier parity of the epoch write path: edge numbering, seeded peel, index.

Every epoch a dynamic dataset publishes runs three kernels that have a
numpy twin: the :class:`CSREdgeIndex` numbering, the truss peel (seeded
with maintained supports on incremental epochs) and the community-index
hierarchy layout.  Each case runs the same public entry point with the
vec tier forced off and on and requires byte-identical output, over every
bundled dataset and over random graphs that are empty, edgeless,
triangle-free, disconnected or carry isolated nodes.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.datasets import list_datasets, load_dataset
from repro.graph import (
    Graph,
    build_index,
    csr_edge_index,
    csr_edge_support,
    csr_truss_numbers,
    erdos_renyi,
    freeze,
    vec_kernels,
)

pytestmark = pytest.mark.skipif(
    not vec_kernels.numpy_available(), reason="numpy extra not installed"
)


@pytest.fixture(autouse=True)
def _restore_dispatch():
    yield
    vec_kernels.set_vec_enabled(None)


def _both_tiers(compute):
    vec_kernels.set_vec_enabled(False)
    reference = compute()
    vec_kernels.set_vec_enabled(True)
    return reference, compute()


def _with_isolated(graph: Graph, count: int) -> Graph:
    graph = graph.copy()
    for i in range(count):
        graph.add_node(f"isolated-{i}")
    return graph


def _bipartite(seed: int) -> Graph:
    """A random bipartite graph: triangle-free, so every support is 0."""
    rng = random.Random(seed)
    graph = Graph(nodes=range(40))
    for u in range(20):
        for v in range(20, 40):
            if rng.random() < 0.15:
                graph.add_edge(u, v)
    return graph


def _disconnected(seed: int) -> Graph:
    graph = erdos_renyi(30, 0.2, seed=seed)
    for u, v, _ in erdos_renyi(25, 0.3, seed=seed + 1).iter_edges():
        graph.add_edge(("b", u), ("b", v))
    return graph


RANDOM_GRAPHS = {
    "empty": lambda: Graph(),
    "edgeless": lambda: Graph(nodes=range(7)),
    "triangle-free": lambda: _bipartite(3),
    "disconnected": lambda: _disconnected(5),
    "isolated-nodes": lambda: _with_isolated(erdos_renyi(50, 0.12, seed=7), 6),
    "dense": lambda: erdos_renyi(40, 0.35, seed=2),
}

GRAPHS = [("dataset", name) for name in list_datasets()] + [
    ("random", name) for name in RANDOM_GRAPHS
]


def _graph(kind: str, name: str) -> Graph:
    return load_dataset(name).graph if kind == "dataset" else RANDOM_GRAPHS[name]()


def _edge_index_tables(graph: Graph):
    index = csr_edge_index(freeze(graph).csr)
    return (
        index.num_edges,
        bytes(index.eu),
        bytes(index.ev),
        bytes(index.edge_id),
        index.edge_of,
        index.incident,
    )


def _index_image(graph: Graph):
    index = build_index(graph, dataset="parity")
    meta = {key: value for key, value in index.meta.items() if key != "build_seconds"}
    regions = {name: bytes(index._as_array(name)) for name in index._fields}
    return meta, regions, index.digest


@pytest.mark.parametrize("kind,name", GRAPHS)
def test_edge_index_is_identical_across_tiers(kind, name):
    graph = _graph(kind, name)
    reference, vectorised = _both_tiers(lambda: _edge_index_tables(graph))
    assert vectorised == reference


@pytest.mark.parametrize("kind,name", GRAPHS)
def test_index_regions_and_meta_are_identical_across_tiers(kind, name):
    graph = _graph(kind, name)
    reference, vectorised = _both_tiers(lambda: _index_image(graph))
    assert vectorised == reference
    assert vectorised[0]["format_version"] == 3


def test_vec_edge_index_derives_python_tables_only_on_first_read():
    vec_kernels.set_vec_enabled(True)
    index = csr_edge_index(freeze(erdos_renyi(30, 0.2, seed=1)).csr)
    assert index._edge_of is None and index._incident is None
    assert index.edge_of[0] and index._edge_of is not None
    assert index.incident[0] and index._incident is not None


@pytest.mark.parametrize("kind,name", GRAPHS)
def test_seeded_vec_peel_matches_unseeded_and_python(kind, name):
    csr = freeze(_graph(kind, name)).csr
    vec_kernels.set_vec_enabled(False)
    index = csr_edge_index(csr)
    seed = csr_edge_support(csr, index)
    python_seeded = csr_truss_numbers(csr, index, support=seed)
    vec_kernels.set_vec_enabled(True)
    index = csr_edge_index(csr)
    assert csr_truss_numbers(csr, index, support=seed) == csr_truss_numbers(csr, index)
    assert csr_truss_numbers(csr, index, support=seed) == python_seeded
    assert seed == csr_edge_support(csr, index)  # the seed is never mutated


def test_label_propagation_on_a_shuffled_path_finishes_in_few_rounds():
    """Pointer jumping keeps the rounds logarithmic where plain min-label
    propagation would need one round per path edge."""
    np = vec_kernels._np()
    n = 10_000
    ids = list(range(n))
    random.Random(1).shuffle(ids)
    u = np.asarray(ids[:-1], dtype=np.int64)
    v = np.asarray(ids[1:], dtype=np.int64)
    parent, rounds = vec_kernels._link(np, np.arange(n, dtype=np.int64), u, v)
    assert (parent == 0).all()
    assert rounds <= 2 * math.ceil(math.log2(n))


def test_shuffled_path_index_is_identical_across_tiers():
    n = 10_000
    ids = list(range(n))
    random.Random(2).shuffle(ids)
    graph = Graph(nodes=range(n))
    for a, b in zip(ids, ids[1:]):
        graph.add_edge(a, b)
    reference, vectorised = _both_tiers(lambda: _index_image(graph))
    assert vectorised == reference
