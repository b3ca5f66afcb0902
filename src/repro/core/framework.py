"""Algorithm 1: the top-down greedy peeling framework.

The framework iteratively removes a *removable* node (one that is not a
query node and whose removal keeps the remaining graph connected), always
choosing the candidate that the plugged-in selection strategy ranks best,
and finally returns the intermediate subgraph with the largest goodness
value.  NCA and FPA are optimised instantiations of this framework; the
generic version here is intentionally simple and is used both as a reference
implementation in tests and as a base for custom strategies.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from typing import Optional

from ..graph import (
    CSRGraph,
    FrozenGraph,
    Graph,
    GraphError,
    Node,
    connected_component_containing,
    multi_source_bfs,
    nodes_in_same_component,
    non_articulation_nodes,
)
from ..modularity import density_modularity
from .objectives import objective_from_scalars
from .result import CommunityResult

__all__ = [
    "greedy_peel",
    "RemovableStrategy",
    "SelectionStrategy",
    "prepare_search",
    "graph_backend",
    "CSRPeelState",
]


def graph_backend(graph: Graph) -> str:
    """Return which kernel backend ``graph`` selects: ``"csr"`` or ``"dict"``.

    A :class:`~repro.graph.csr.FrozenGraph` (produced by
    :meth:`~repro.graph.graph.Graph.freeze`) routes the peeling algorithms to
    the array-backed CSR kernels; every other graph uses the dict-of-dicts
    reference implementation.  Both produce identical results — the CSR path
    only changes the constant factor.
    """
    return "csr" if isinstance(graph, FrozenGraph) else "dict"


class CSRPeelState:
    """Scalar community statistics + per-node arrays for a CSR peel.

    The single CSR counterpart of
    :class:`~repro.modularity.CommunityStatistics`, shared by the NCA and
    FPA fast paths: it performs exactly the same float operations as the
    dict-side statistics plus
    :func:`~repro.core.objectives.objective_from_scalars`, which is what
    keeps the two backends bit-identical.
    """

    __slots__ = ("csr", "adj", "alive", "size", "internal", "degree_sum", "degree", "edges_into")

    def __init__(self, csr: CSRGraph, component: list[int]) -> None:
        self.csr = csr
        self.adj = csr.adjacency_lists()
        n = csr.number_of_nodes()
        self.alive = bytearray(n)
        for index in component:
            self.alive[index] = 1
        self.degree = list(map(len, self.adj))
        self.size = len(component)
        self.degree_sum = float(sum(map(self.degree.__getitem__, component)))
        # the query component is adjacency-closed: every incident edge is internal
        self.internal = float(int(self.degree_sum) // 2)
        self.edges_into = list(self.degree)

    def remove(self, index: int) -> None:
        """Remove node ``index``, updating statistics and neighbour counts."""
        alive = self.alive
        alive[index] = 0
        self.size -= 1
        lost = 0
        edges_into = self.edges_into
        for neighbor in self.adj[index]:
            if alive[neighbor]:
                lost += 1
                edges_into[neighbor] -= 1
        self.internal -= lost
        self.degree_sum -= self.degree[index]

    def remove_many(
        self, removed: list[int], internal: float, degree_sum: float, recount: list[int]
    ) -> None:
        """Remove ``removed`` in one step, adopting the scalars they leave behind.

        ``internal`` and ``degree_sum`` are the caller's exact counts for the
        community without ``removed``.  ``edges_into`` is recounted only for
        ``recount``, the nodes the peel reads next; other entries go stale.
        """
        alive = self.alive
        for index in removed:
            alive[index] = 0
        self.size -= len(removed)
        self.internal = internal
        self.degree_sum = degree_sum
        adj = self.adj
        edges_into = self.edges_into
        for index in recount:
            edges_into[index] = sum(map(alive.__getitem__, adj[index]))

    def objective(self, objective: str) -> float:
        """Return the requested objective of the current community."""
        return objective_from_scalars(
            self.csr.num_edges, self.internal, self.degree_sum, self.size, objective
        )

# A removable strategy maps (graph, current members, query nodes) to candidates.
RemovableStrategy = Callable[[Graph, set[Node], frozenset[Node]], Iterable[Node]]
# A selection strategy scores one candidate; higher is better (removed first).
SelectionStrategy = Callable[[Graph, set[Node], Node], float]


def prepare_search(
    graph: Graph, query_nodes: Sequence[Node]
) -> tuple[frozenset[Node], set[Node]]:
    """Validate the query and return ``(query set, starting component)``.

    Raises :class:`GraphError` when the query is empty, contains unknown
    nodes, or spans multiple connected components (in which case no connected
    community containing all query nodes exists).
    """
    queries = frozenset(query_nodes)
    if not queries:
        raise GraphError("community search needs at least one query node")
    for node in queries:
        if not graph.has_node(node):
            raise GraphError(f"query node {node!r} is not in the graph")
    if not nodes_in_same_component(graph, queries):
        raise GraphError("query nodes are not in the same connected component")
    component = connected_component_containing(graph, next(iter(queries)))
    return queries, component


def greedy_peel(
    graph: Graph,
    query_nodes: Sequence[Node],
    removable_strategy: Optional[RemovableStrategy] = None,
    selection_strategy: Optional[SelectionStrategy] = None,
    goodness: Optional[Callable[[Graph, Iterable[Node]], float]] = None,
    algorithm_name: str = "greedy-peel",
) -> CommunityResult:
    """Run Algorithm 1 with pluggable strategies (reference implementation).

    Parameters
    ----------
    graph:
        The host graph.
    query_nodes:
        Nodes that must stay inside every intermediate subgraph.
    removable_strategy:
        Returns candidate nodes whose removal keeps the graph connected;
        defaults to all non-articulation, non-query nodes (NCA's choice).
    selection_strategy:
        Scores a candidate; the highest-scoring candidate is removed first.
        Defaults to the density modularity of the remaining subgraph (the
        direct greedy objective of Algorithm 1, line 4).
    goodness:
        The function maximised over intermediate subgraphs (Algorithm 1,
        line 7); defaults to density modularity.
    algorithm_name:
        Label stored in the returned :class:`CommunityResult`.

    Notes
    -----
    This implementation recomputes strategies from scratch each iteration and
    therefore runs in roughly ``O(|V|^2 (|V| + |E|))`` in the worst case; use
    :func:`repro.core.nca` or :func:`repro.core.fpa` for anything beyond a
    few thousand nodes.
    """
    start = time.perf_counter()
    queries, component = prepare_search(graph, query_nodes)
    goodness_fn = goodness if goodness is not None else density_modularity

    if removable_strategy is None:
        removable_strategy = _default_removable
    if selection_strategy is None:
        selection_strategy = _default_selection(goodness_fn)

    members = set(component)
    distances = multi_source_bfs(graph.subgraph(members), queries)

    best_nodes = set(members)
    best_value = goodness_fn(graph, members)
    trace = [best_value]
    removal_order: list[Node] = []

    while True:
        candidates = [node for node in removable_strategy(graph, members, queries)]
        candidates = [node for node in candidates if node not in queries]
        if not candidates:
            break
        # score candidates; tie-break by distance from queries (farther first)
        scored = [
            (selection_strategy(graph, members, node), distances.get(node, 0), node)
            for node in candidates
        ]
        scored.sort(key=lambda item: (item[0], item[1]), reverse=True)
        victim = scored[0][2]
        members.discard(victim)
        removal_order.append(victim)
        value = goodness_fn(graph, members)
        trace.append(value)
        if value >= best_value:
            best_value = value
            best_nodes = set(members)

    elapsed = time.perf_counter() - start
    return CommunityResult(
        nodes=frozenset(best_nodes),
        query_nodes=queries,
        algorithm=algorithm_name,
        score=best_value,
        objective_name=getattr(goodness_fn, "__name__", "goodness"),
        elapsed_seconds=elapsed,
        removal_order=tuple(removal_order),
        trace=tuple(trace),
    )


def _default_removable(graph: Graph, members: set[Node], queries: frozenset[Node]) -> list[Node]:
    """Non-articulation nodes of the current induced subgraph, minus queries."""
    subgraph = graph.subgraph(members)
    return [node for node in non_articulation_nodes(subgraph) if node not in queries]


def _default_selection(
    goodness_fn: Callable[[Graph, Iterable[Node]], float]
) -> SelectionStrategy:
    """Score a candidate by the goodness of the subgraph after removing it."""

    def score(graph: Graph, members: set[Node], node: Node) -> float:
        remaining = members - {node}
        if not remaining:
            return float("-inf")
        return goodness_fn(graph, remaining)

    return score
