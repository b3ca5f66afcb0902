"""Maintained truss numbers against the definition, on tiny graphs.

The dynamic tier repairs truss numbers per edit instead of re-peeling
(:mod:`repro.dynamic.incremental`).  Parity with ``csr_truss_numbers``
proves the repair agrees with the peel; this file checks both against the
definition instead.  An edge's trussness is the largest ``k`` such that it
survives the ``k``-truss: starting from every edge, repeatedly delete the
edges with fewer than ``k - 2`` triangles, recounting every round (no
bucket queue, no ordering, no shared code with the kernels).

Seeded edit scripts (edge and node insertions and removals, weight-only
re-adds, multi-op batches) run on tiny random and crafted graphs through
:class:`EpochManager`, on both kernel tiers, and the maintained
``("csr-edge-truss",)`` memo is compared with the oracle after every
epoch.  A second family replays long batches through
:class:`TrussRepair` with no work bound, so the repair itself is checked on
batches the epoch manager would hand to the whole-graph peel.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.dynamic import DeltaBatch, EpochManager, TrussRepair, apply_op
from repro.graph import Graph, freeze, vec_kernels
from repro.graph.csr import csr_core_numbers
from repro.graph.csr_truss import csr_edge_index, csr_truss_numbers

MAX_NODES = 12


def _triangles(edge, alive):
    u, v = tuple(edge)
    nodes = {x for e in alive for x in e}
    return sum(1 for w in nodes if frozenset((u, w)) in alive and frozenset((v, w)) in alive)


def definitional_truss(graph: Graph) -> dict[frozenset, int]:
    """Trussness of every edge from the k-truss definition (brute force)."""
    edges = {frozenset((u, v)) for u, v, _ in graph.iter_edges()}
    truss = dict.fromkeys(edges, 2)
    k = 3
    while True:
        alive = set(edges)
        while True:
            doomed = {e for e in alive if _triangles(e, alive) < k - 2}
            if not doomed:
                break
            alive -= doomed
        if not alive:
            return truss
        for edge in alive:
            truss[edge] = k
        k += 1


def maintained_truss(frozen) -> dict[frozenset, int]:
    """The snapshot's primed per-edge-id truss list, keyed by node pair."""
    cache = frozen.shared_cache()
    index = cache[("csr-edge-index",)]
    values = cache[("csr-edge-truss",)]
    nodes = frozen.csr.node_list
    assert len(values) == index.num_edges
    return {
        frozenset((nodes[index.eu[e]], nodes[index.ev[e]])): values[e]
        for e in range(index.num_edges)
    }


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(4, MAX_NODES)
    p = rng.choice((0.25, 0.4, 0.6, 0.8))
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def _clique(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


CRAFTED = {
    "k6": lambda: Graph(_clique(6)),
    "two-k5-sharing-an-edge": lambda: Graph(_clique(5) + _clique(5, offset=3)),
    "wheel": lambda: Graph([(0, i) for i in range(1, 9)] + [(i, i % 8 + 1) for i in range(1, 9)]),
    "triangle-strip": lambda: Graph([(i, i + 1) for i in range(9)] + [(i, i + 2) for i in range(8)]),
    "k4-chain": lambda: Graph(_clique(4) + _clique(4, offset=3) + _clique(4, offset=6)),
    "edgeless": lambda: Graph(nodes=range(6)),
}

SOURCES = [("crafted", name) for name in CRAFTED] + [("random", seed) for seed in range(6)]


def _source(kind, name) -> Graph:
    return CRAFTED[name]() if kind == "crafted" else _random_graph(name)


def random_script_batch(rng, mirror: Graph, next_node: list[int], max_ops: int = 4) -> DeltaBatch:
    """One valid batch against ``mirror`` (mutated alongside), ≤ 12 nodes."""
    batch = DeltaBatch()
    for _ in range(rng.randint(1, max_ops)):
        nodes = list(mirror.nodes())
        edges = list(mirror.iter_edges())
        roll = rng.random()
        if roll < 0.35 and edges:
            u, v, _ = rng.choice(edges)
            batch.remove_edge(u, v)
            mirror.remove_edge(u, v)
        elif roll < 0.75 and len(nodes) >= 2:
            u, v = rng.sample(nodes, 2)
            if not mirror.has_edge(u, v):
                batch.add_edge(u, v)
                mirror.add_edge(u, v)
        elif roll < 0.83 and edges:
            u, v, _ = rng.choice(edges)  # weight-only re-add
            weight = float(rng.randint(2, 5))
            batch.add_edge(u, v, weight)
            mirror.add_edge(u, v, weight)
        elif roll < 0.91 and len(nodes) < MAX_NODES:
            node = next_node[0]
            next_node[0] += 1
            batch.add_node(node)
            mirror.add_node(node)
            if nodes:
                anchor = rng.choice(nodes)
                batch.add_edge(node, anchor)
                mirror.add_edge(node, anchor)
        elif nodes:
            node = rng.choice(nodes)
            batch.remove_node(node)
            mirror.remove_node(node)
    return batch


def spy_full_peels(monkeypatch) -> list[int]:
    """Record the edge count of every whole-graph truss peel ``prepare`` runs."""
    from repro.dynamic import epoch

    calls: list[int] = []
    real = epoch.csr_truss_numbers

    def spy(csr, *args, **kwargs):
        calls.append(csr.number_of_edges())
        return real(csr, *args, **kwargs)

    monkeypatch.setattr(epoch, "csr_truss_numbers", spy)
    return calls


@pytest.fixture(params=[False, True], ids=["python-tier", "vec-tier"])
def tier(request):
    if request.param and not vec_kernels.numpy_available():
        pytest.skip("numpy extra not installed")
    vec_kernels.set_vec_enabled(request.param)
    yield request.param
    vec_kernels.set_vec_enabled(None)


def test_oracle_on_known_graphs():
    """The oracle itself, on graphs whose trussness is known by hand."""
    assert set(definitional_truss(Graph(_clique(6))).values()) == {6}
    strip = definitional_truss(CRAFTED["triangle-strip"]())
    assert set(strip.values()) == {3}
    chain = definitional_truss(CRAFTED["k4-chain"]())
    assert set(chain.values()) == {4}
    bridged = definitional_truss(Graph(_clique(3) + [(2, 3)] + _clique(3, offset=3)))
    assert bridged[frozenset((2, 3))] == 2
    assert sum(1 for value in bridged.values() if value == 3) == 6


@pytest.mark.parametrize("kind,name", SOURCES)
@pytest.mark.parametrize("seed", [1, 2])
def test_maintained_truss_matches_the_definition_after_every_epoch(
    tier, kind, name, seed, monkeypatch
):
    peels = spy_full_peels(monkeypatch)
    epochs = 0
    graph = _source(kind, name)
    manager = EpochManager(graph.copy())
    mirror = graph.copy()
    rng = random.Random(seed * 1000 + len(str(name)))
    next_node = [100]
    for _ in range(20):
        batch = random_script_batch(rng, mirror, next_node)
        if not batch:
            continue
        prepared = manager.apply(batch)
        epochs += 1
        assert prepared.mode == "incremental"
        assert maintained_truss(manager.frozen) == definitional_truss(mirror)
        ref = freeze(mirror).csr
        assert manager.frozen.shared_cache()[("csr-edge-truss",)] == csr_truss_numbers(
            ref, csr_edge_index(ref)
        )
    # on graphs this small the work bound (the committed edge count, zero
    # on an edgeless graph) stops some batches; the rest are repaired
    assert len(peels) < epochs


@pytest.mark.parametrize("kind,name", SOURCES)
def test_unbounded_repair_of_long_batches_matches_the_definition(tier, kind, name):
    """Forty-op batches through the repair with no work bound: every op is
    repaired, none handed to the peel, and the carried list is exact."""
    graph = _source(kind, name)
    rng = random.Random(len(str(name)) * 7 + 3)
    next_node = [100]
    for _ in range(4):
        frozen = freeze(graph)
        csr = frozen.csr
        index = csr_edge_index(csr)
        repair = TrussRepair(csr, index, csr_truss_numbers(csr, index), budget=sys.maxsize)
        core = dict(zip(csr.node_list, csr_core_numbers(csr)))
        working = graph.copy()
        mirror = graph.copy()
        ops = []
        while len(ops) < 40:
            ops.extend(random_script_batch(rng, mirror, next_node))
        for op in ops:
            apply_op(working, core, repair, op)
        assert not repair.exhausted
        new = freeze(working)
        new_index = csr_edge_index(new.csr)
        carried = repair.carry(new.csr, new_index)
        nodes = new.csr.node_list
        got = {
            frozenset((nodes[new_index.eu[e]], nodes[new_index.ev[e]])): carried[e]
            for e in range(new_index.num_edges)
        }
        assert got == definitional_truss(mirror)
        graph = mirror


def test_a_batch_past_the_work_bound_falls_back_to_the_peel(tier, monkeypatch):
    """On a tiny graph the bound (the committed edge count) is a few
    candidate visits, so a long batch gives up and the whole-graph peel
    produces the same truss numbers."""
    peels = spy_full_peels(monkeypatch)
    graph = Graph(_clique(6))
    manager = EpochManager(graph.copy())
    batch = DeltaBatch()
    for _ in range(10):
        batch.remove_edge(0, 1).add_edge(0, 1)
    manager.apply(batch)
    assert peels == [15]
    assert maintained_truss(manager.frozen) == definitional_truss(graph)
