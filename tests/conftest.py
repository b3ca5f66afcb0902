"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.datasets import figure1_dataset, load_karate, ring_of_cliques_dataset
from repro.graph import (
    FrozenGraph,
    Graph,
    erdos_renyi,
    lfr_benchmark,
    planted_partition,
)


@pytest.fixture()
def own_shm_segments():
    """A callable returning the ``repro_snap_*`` names in /dev/shm that
    this process created (empty where /dev/shm does not exist)."""

    def names():
        try:
            entries = os.listdir("/dev/shm")
        except OSError:
            return set()
        marker = f"{os.getpid()}_"
        return {
            name for name in entries if name.startswith("repro_snap_") and marker in name
        }

    return names


@pytest.fixture()
def share_fails(monkeypatch):
    """Make every ``FrozenGraph.share`` in this process raise ``OSError``.

    Process replicas then take the automatic private-snapshot fallback:
    the host exports nothing and each worker loads a pickled copy.
    """

    def refuse(self):
        raise OSError("shared memory refused")

    monkeypatch.setattr(FrozenGraph, "share", refuse)


@pytest.fixture(scope="session")
def karate():
    """The Zachary karate club dataset (real, embedded)."""
    return load_karate()


@pytest.fixture(scope="session")
def karate_graph(karate):
    """Just the karate club graph."""
    return karate.graph


@pytest.fixture(scope="session")
def figure1():
    """The Figure-1 toy dataset with communities A and B."""
    return figure1_dataset()


@pytest.fixture(scope="session")
def ring_dataset():
    """The Figure-2 ring of 30 six-node cliques."""
    return ring_of_cliques_dataset()


@pytest.fixture()
def triangle_graph():
    """A 3-node triangle."""
    return Graph([(1, 2), (2, 3), (1, 3)])


@pytest.fixture()
def path_graph():
    """A 5-node path 0-1-2-3-4."""
    return Graph([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture()
def star_graph():
    """A star with centre 0 and leaves 1..5."""
    return Graph([(0, i) for i in range(1, 6)])


@pytest.fixture()
def two_triangles_bridge():
    """Two triangles joined by a bridge edge (3, 4); 3 and 4 are articulation points."""
    return Graph([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)])


@pytest.fixture(scope="session")
def small_er_graph():
    """A small Erdős–Rényi graph used for cross-checks against networkx."""
    return erdos_renyi(40, 0.15, seed=3)


@pytest.fixture(scope="session")
def planted_graph():
    """A planted-partition graph with 4 communities of 25 nodes each."""
    graph, membership = planted_partition(4, 25, p_in=0.4, p_out=0.01, seed=5)
    return graph, membership


@pytest.fixture(scope="session")
def small_lfr():
    """A small LFR benchmark graph with ground-truth communities."""
    return lfr_benchmark(
        n=200,
        avg_degree=10,
        max_degree=40,
        mu=0.2,
        min_community=15,
        max_community=60,
        seed=7,
    )
