"""Fast Peeling Algorithm (FPA), Sections 5.5–5.7.

FPA instantiates the peeling framework with

* removable nodes = the nodes farthest from the query nodes (the outermost
  distance layer; Section 5.2.2), which are always safe to remove because
  every remaining node keeps a BFS parent strictly closer to the query, and
* best node to remove = the one with the largest *density ratio*
  ``Θ_S^v = d_v / k_{v,S}`` (Definition 7), a *stable* objective: removing a
  node only changes the Θ of its neighbours, so a lazy max-heap gives
  ``O(log |V|)`` per update and ``O((|E| + |V|) log |V|)`` overall.

Multiple query nodes are handled per Section 5.6 by first merging shortest
paths between the queries into a connected *connector* that is protected
from removal.  The layer-based pruning strategy of Section 5.7 first peels
whole distance layers, keeps the prefix with the best objective, and only
then peels that subgraph's outermost layer node by node.

Two backends implement the same peel:

* the dict backend (reference) traverses the dict-of-dicts adjacency of the
  original graph — the query component is closed under adjacency, so no
  subgraph copy is ever materialised — and removes every node one at a
  time, layer prune included;
* the CSR backend runs when the input is a
  :class:`~repro.graph.csr.FrozenGraph` and works on flat integer arrays.
  Its layer prune is one pass over the edges: whole-layer removal follows
  one fixed peel order (outermost layer first, BFS discovery order within
  a layer), so ranking the nodes by that order gives the internal edge
  count after every removal from one count of each edge's lower-ranked
  endpoint.  The same pass scores every layer prefix and supplies the
  committed prefix's trace, so no node is removed twice
  (:func:`_csr_layer_prune`); with numpy the pass is vectorised.

Both backends visit sources, layers and neighbours in identical orders
(insertion order of the graph, query/connector nodes sorted by ``repr``)
and feed exact integer counts to one formula kernel
(:mod:`repro.core.objectives`), so their results — nodes, score, removal
order and every trace float — are bit-identical.
"""

from __future__ import annotations

import heapq
import random
import time
from collections.abc import Sequence
from itertools import groupby
from typing import Optional

from ..graph import (
    CSRGraph,
    FrozenGraph,
    Graph,
    GraphError,
    Node,
    connected_component_containing,
    csr_multi_source_bfs,
    csr_shortest_path,
    multi_source_bfs,
    nodes_in_same_component,
    query_connector,
    vec_kernels,
)
from ..modularity import CommunityStatistics
from .framework import CSRPeelState, graph_backend
from .objectives import (
    SUBGRAPH_OBJECTIVES,
    evaluate_objective,
    objective_from_scalars,
    objective_values,
)
from .result import CommunityResult

__all__ = ["fpa", "fpa_search"]


def fpa(
    graph: Graph,
    query_nodes: Sequence[Node],
    selection: str = "ratio",
    layer_pruning: bool = True,
    objective: str = "density_modularity",
    seed: int = 0,
) -> CommunityResult:
    """Run FPA and return the best intermediate community.

    Parameters
    ----------
    graph:
        Host graph.  A :class:`~repro.graph.csr.FrozenGraph` (see
        :meth:`~repro.graph.graph.Graph.freeze`) selects the CSR fast path;
        results are identical either way.
    query_nodes:
        One or more query nodes.
    selection:
        ``"ratio"`` picks nodes by density ratio Θ (the paper's FPA);
        ``"gain"`` picks by density modularity gain Λ, which is the FPA-DMG
        variant of Section 6.2.5 (same peel layers, unstable objective).
    layer_pruning:
        Apply the layer-based pruning strategy of Section 5.7 (the default,
        as in the paper's headline FPA).  With ``False`` the algorithm is the
        plain Algorithm 2 and peels every layer node by node.
    objective:
        Which goodness function selects the best intermediate subgraph; one
        of ``density_modularity`` (default), ``classic_modularity`` or
        ``generalized_modularity_density`` (the Figure-12 ablation).
    seed:
        Seed for the root choice of the multi-query connector.

    Returns
    -------
    CommunityResult
        The intermediate subgraph with the best objective value.  If the
        query nodes are not in one connected component a failed (empty)
        result is returned.
    """
    if selection not in ("ratio", "gain"):
        raise GraphError(f"selection must be 'ratio' or 'gain', got {selection!r}")
    if objective not in SUBGRAPH_OBJECTIVES:
        raise GraphError(f"unknown objective {objective!r}")
    if graph_backend(graph) == "csr":
        return _fpa_csr(graph, query_nodes, selection, layer_pruning, objective, seed)
    return _fpa_dict(graph, query_nodes, selection, layer_pruning, objective, seed)


def _fpa_dict(
    graph: Graph,
    query_nodes: Sequence[Node],
    selection: str,
    layer_pruning: bool,
    objective: str,
    seed: int,
) -> CommunityResult:
    """Reference implementation on the dict-of-dicts backend."""
    start = time.perf_counter()

    queries = frozenset(query_nodes)
    algorithm = _algorithm_name(selection, layer_pruning)
    if not queries:
        raise GraphError("community search needs at least one query node")
    for node in queries:
        if not graph.has_node(node):
            raise GraphError(f"query node {node!r} is not in the graph")
    if not nodes_in_same_component(graph, queries):
        return CommunityResult.empty(
            queries, algorithm, reason="query nodes are not in the same connected component"
        )

    # Line 1 of Algorithm 2: restrict to the component containing the queries.
    # The component is closed under adjacency, so all traversals below run on
    # the original graph directly — no induced-subgraph copy is needed.
    component = connected_component_containing(graph, next(iter(queries)))

    # Section 5.6: merge shortest paths between queries into a protected core.
    protected = (
        query_connector(graph, sorted(queries, key=repr), seed=seed)
        if len(queries) > 1
        else set(queries)
    )

    distances = multi_source_bfs(graph, sorted(protected, key=repr))
    stats = CommunityStatistics(graph, component)
    edges_into: dict[Node, int] = {node: graph.degree(node) for node in component}

    # Distance layers, outermost (largest distance) first; layer 0 is
    # protected.  Each layer lists nodes in BFS discovery order.
    layers: dict[int, list[Node]] = {}
    for node, dist in distances.items():
        layers.setdefault(dist, []).append(node)
    layer_distances = sorted((d for d in layers if d > 0), reverse=True)

    # Trace bookkeeping: trace[i] is the objective value after i removals, so
    # the best intermediate subgraph is `component - removal_order[:argmax]`.
    removal_order: list[Node] = []
    trace: list[float] = [evaluate_objective(graph, stats, objective)]

    if layer_pruning and layer_distances:
        fine_layers = _layer_prune(
            graph, stats, edges_into, layers, layer_distances, objective, removal_order, trace
        )
    else:
        fine_layers = layer_distances

    for dist in fine_layers:
        candidates = [
            node for node in layers[dist] if node in stats.members and node not in protected
        ]
        if not candidates:
            continue
        _peel_layer(
            graph,
            stats,
            edges_into,
            candidates,
            selection,
            objective,
            distances,
            removal_order,
            trace,
        )

    # Best intermediate: ties go to the later (smaller) subgraph, matching the
    # ``DM(S) >= DM(C)`` update rule of Algorithm 2.
    best_index = max(range(len(trace)), key=lambda i: (trace[i], i))
    best_value = trace[best_index]
    best_nodes = set(component) - set(removal_order[:best_index])

    elapsed = time.perf_counter() - start
    return CommunityResult(
        nodes=frozenset(best_nodes),
        query_nodes=queries,
        algorithm=algorithm,
        score=best_value,
        objective_name=objective,
        elapsed_seconds=elapsed,
        removal_order=tuple(removal_order),
        trace=tuple(trace),
        extra={
            "selection": selection,
            "layer_pruning": layer_pruning,
            "protected_size": len(protected),
            "num_layers": len(layer_distances),
            "backend": "dict",
        },
    )


def _algorithm_name(selection: str, layer_pruning: bool) -> str:
    """Return the display name used in the paper for this configuration."""
    if selection == "gain":
        return "FPA-DMG"
    return "FPA" if layer_pruning else "FPA-NP"


def _layer_prune(
    graph: Graph,
    stats: CommunityStatistics,
    edges_into: dict[Node, int],
    layers: dict[int, list[Node]],
    layer_distances: list[int],
    objective: str,
    removal_order: list[Node],
    trace: list[float],
) -> list[int]:
    """Apply the Section 5.7 pruning; return the layers left for fine peeling.

    The candidate subgraphs are obtained by iteratively dropping whole outer
    layers.  The prefix with the best objective value is committed (its node
    removals are recorded in ``removal_order``/``trace``), and only the next
    (now outermost) layer of the selected subgraph is returned for the
    node-by-node peel.
    """
    # Evaluate the objective after removing each whole outer layer on a scratch copy.
    scratch = CommunityStatistics(graph, set(stats.members))
    prefix_values: list[tuple[int, float]] = [(0, evaluate_objective(graph, scratch, objective))]
    for index, dist in enumerate(layer_distances, start=1):
        for node in layers[dist]:
            if node in scratch.members:
                scratch.remove(node)
        if scratch.size == 0:
            break
        prefix_values.append((index, evaluate_objective(graph, scratch, objective)))
    best_prefix, _ = max(prefix_values, key=lambda item: (item[1], item[0]))

    # Commit the selected prefix: remove its layers from the real statistics.
    for dist in layer_distances[:best_prefix]:
        for node in layers[dist]:
            if node in stats.members:
                _remove_node(graph, stats, edges_into, node, removal_order)
                trace.append(evaluate_objective(graph, stats, objective))

    # Fine-grained peeling only touches the outermost layer that remains.
    return layer_distances[best_prefix : best_prefix + 1]


def _peel_layer(
    graph: Graph,
    stats: CommunityStatistics,
    edges_into: dict[Node, int],
    candidates: list[Node],
    selection: str,
    objective: str,
    distances: dict[Node, int],
    removal_order: list[Node],
    trace: list[float],
) -> None:
    """Peel every candidate of one distance layer in goodness order (in place)."""
    num_edges = graph.number_of_edges()
    candidate_set = set(candidates)

    if selection == "ratio":
        heap: list[tuple[float, int, Node]] = []
        counter = 0
        for node in candidates:
            theta = _theta(graph.degree(node), edges_into[node])
            heap.append((-theta, counter, node))
            counter += 1
        heapq.heapify(heap)
        while candidate_set and heap:
            neg_theta, _, node = heapq.heappop(heap)
            if node not in candidate_set:
                continue
            current_theta = _theta(graph.degree(node), edges_into[node])
            if -neg_theta < current_theta:
                # stale entry; re-push with the up-to-date (larger) Θ
                heapq.heappush(heap, (-current_theta, counter, node))
                counter += 1
                continue
            candidate_set.discard(node)
            neighbors = list(graph.adjacency(node))
            _remove_node(graph, stats, edges_into, node, removal_order)
            trace.append(evaluate_objective(graph, stats, objective))
            for neighbor in neighbors:
                if neighbor in candidate_set:
                    theta = _theta(graph.degree(neighbor), edges_into[neighbor])
                    heapq.heappush(heap, (-theta, counter, neighbor))
                    counter += 1
    else:  # selection == "gain": Λ is unstable, recompute over candidates each time
        while candidate_set:
            d_s = stats.degree_sum
            best_node = None
            best_key: tuple[float, float] = (float("-inf"), float("-inf"))
            for node in candidates:
                if node not in candidate_set:
                    continue
                d_v = graph.degree(node)
                k_v = edges_into[node]
                gain = -4.0 * num_edges * k_v + 2.0 * d_s * d_v - float(d_v) ** 2
                key = (gain, float(distances.get(node, 0)))
                if best_node is None or key > best_key:
                    best_key = key
                    best_node = node
            candidate_set.discard(best_node)
            _remove_node(graph, stats, edges_into, best_node, removal_order)
            trace.append(evaluate_objective(graph, stats, objective))


def _theta(degree: int, edges_in: int) -> float:
    """Density ratio Θ = d_v / k_{v,S}, with +inf for isolated candidates."""
    if edges_in <= 0:
        return float("inf")
    return degree / edges_in


def _remove_node(
    graph: Graph,
    stats: CommunityStatistics,
    edges_into: dict[Node, int],
    node: Node,
    removal_order: list[Node],
) -> None:
    """Remove ``node`` from the community, keeping every structure in sync."""
    stats.remove(node)
    for neighbor in graph.adjacency(node):
        if neighbor in edges_into and neighbor in stats.members:
            edges_into[neighbor] -= 1
    edges_into.pop(node, None)
    removal_order.append(node)


# ----------------------------------------------------------------------------
# CSR fast path
# ----------------------------------------------------------------------------


def _fpa_csr(
    graph: FrozenGraph,
    query_nodes: Sequence[Node],
    selection: str,
    layer_pruning: bool,
    objective: str,
    seed: int,
) -> CommunityResult:
    """CSR fast path: the same peel over flat integer arrays."""
    start = time.perf_counter()
    csr = graph.csr

    queries = frozenset(query_nodes)
    algorithm = _algorithm_name(selection, layer_pruning)
    if not queries:
        raise GraphError("community search needs at least one query node")
    index_of = csr.index_of
    for node in queries:
        if node not in index_of:
            raise GraphError(f"query node {node!r} is not in the graph")
    query_indices = [index_of[node] for node in queries]

    node_list = csr.node_list
    # the connector's path search doubles as the same-component check
    protected = _csr_query_connector(csr, queries, seed) if len(queries) > 1 else set(query_indices)
    if protected is None:
        return CommunityResult.empty(
            queries, algorithm, reason="query nodes are not in the same connected component"
        )

    # The protected set is connected and the component adjacency-closed, so
    # the BFS from the protected nodes discovers exactly the component (for
    # |Q| = 1 it *is* the component BFS).
    sources = sorted(protected, key=lambda i: repr(node_list[i]))
    dist, component = csr_multi_source_bfs(csr, sources)
    state = CSRPeelState(csr, component)

    # BFS discovers layer by layer, so each distance is one run of the order
    # and each layer lists its nodes in discovery order; layer d > 0 holds no
    # protected node.
    layers = {d: list(run) for d, run in groupby(component, dist.__getitem__)}
    layer_distances = sorted((d for d in layers if d > 0), reverse=True)

    removal_order: list[int] = []
    trace: list[float] = [state.objective(objective)]

    if layer_pruning and layer_distances:
        fine_layers = _csr_layer_prune(
            state, layers, layer_distances, objective, removal_order, trace
        )
    else:
        fine_layers = layer_distances

    for layer_dist in fine_layers:
        _csr_peel_layer(
            state, layers[layer_dist], selection, objective, dist, removal_order, trace
        )

    best_index = _last_argmax(trace)
    best_value = trace[best_index]
    kept = set(component)
    kept.difference_update(removal_order[:best_index])
    best_nodes = frozenset(map(node_list.__getitem__, kept))

    elapsed = time.perf_counter() - start
    return CommunityResult(
        nodes=best_nodes,
        query_nodes=queries,
        algorithm=algorithm,
        score=best_value,
        objective_name=objective,
        elapsed_seconds=elapsed,
        removal_order=tuple(map(node_list.__getitem__, removal_order)),
        trace=tuple(trace),
        extra={
            "selection": selection,
            "layer_pruning": layer_pruning,
            "protected_size": len(protected),
            "num_layers": len(layer_distances),
            "backend": "csr",
        },
    )


def _csr_query_connector(csr: CSRGraph, queries: frozenset, seed: int) -> Optional[set[int]]:
    """Index-based replica of :func:`repro.graph.steiner.query_connector`.

    Must choose the same root (same RNG draw over the same repr-sorted query
    list) and the same shortest paths (identical BFS neighbour order) as the
    dict implementation.  Returns ``None`` when some query is unreachable
    from the root, i.e. the queries span several components.
    """
    query_list = [csr.index_of[node] for node in sorted(queries, key=repr)]
    rng = random.Random(seed)
    root = query_list[rng.randrange(len(query_list))]
    connector: set[int] = {root}
    for target in query_list:
        if target == root:
            continue
        path = csr_shortest_path(csr, root, target)
        if path is None:
            return None
        connector.update(path)
    return connector


def _csr_layer_prune(
    state: CSRPeelState,
    layers: dict[int, list[int]],
    layer_distances: list[int],
    objective: str,
    removal_order: list[int],
    trace: list[float],
) -> list[int]:
    """Section 5.7 in one pass over the edges; same result as :func:`_layer_prune`.

    The dict reference removes whole layers, outermost first, each in BFS
    discovery order, so every layer prefix is a prefix of one fixed peel
    order.  One pass gives the community scalars after *every* removal of
    that order: size drops by one per removal, the degree sum by the removed
    node's degree, and the internal edge count by the removed node's
    neighbours that are removed later or never (the protected nodes).  The
    objective at each layer boundary picks the prefix (last maximum), and
    the committed removals take their trace entries from the same pass, so
    nothing is peeled twice; ``edges_into`` is recounted only for the next
    layer, the one the fine peel reads.

    The counts are exact integers, and the objectives go through the same
    formula kernel as every other trace entry, elementwise on numpy
    arrays on the vec tier (:func:`~repro.core.objectives.objective_values`),
    so the floats are bit-identical to the node-by-node reference.
    """
    order = [index for layer_dist in layer_distances for index in layers[layer_dist]]
    bounds = [0]
    for layer_dist in layer_distances:
        bounds.append(bounds[-1] + len(layers[layer_dist]))

    num_edges = state.csr.num_edges
    if vec_kernels.vec_enabled():
        sizes, internals, degree_sums = vec_kernels.vec_peel_scalars(
            state.csr, order, state.size, state.internal, state.degree_sum
        )
        values = objective_values(num_edges, internals, degree_sums, sizes, objective).tolist()
    else:
        sizes, internals, degree_sums = _peel_scalars(state, order)
        values = [
            objective_from_scalars(num_edges, l_c, d_c, size, objective)
            for size, l_c, d_c in zip(sizes, internals, degree_sums)
        ]

    best_prefix = _last_argmax([values[bound] for bound in bounds])
    committed = bounds[best_prefix]
    fine_layers = layer_distances[best_prefix : best_prefix + 1]
    if committed:
        state.remove_many(
            order[:committed],
            float(internals[committed]),
            float(degree_sums[committed]),
            layers[fine_layers[0]] if fine_layers else [],
        )
        removal_order.extend(order[:committed])
        trace.extend(values[1 : committed + 1])
    return fine_layers


def _peel_scalars(
    state: CSRPeelState, order: list[int]
) -> tuple[list[int], list[float], list[float]]:
    """Pure-Python :func:`~repro.graph.vec_kernels.vec_peel_scalars`.

    One adjacency walk per node counts its neighbours ranked after it in
    ``order`` (protected nodes rank after every removal).
    """
    count = len(order)
    rank = [count] * len(state.alive)
    for position, index in enumerate(order):
        rank[index] = position
    adj = state.adj
    degree = state.degree
    size, internal, degree_sum = state.size, state.internal, state.degree_sum
    sizes, internals, degree_sums = [size], [internal], [degree_sum]
    for position, index in enumerate(order):
        later = 0
        for neighbor in adj[index]:
            if rank[neighbor] > position:
                later += 1
        size -= 1
        internal -= later
        degree_sum -= degree[index]
        sizes.append(size)
        internals.append(internal)
        degree_sums.append(degree_sum)
    return sizes, internals, degree_sums


def _last_argmax(values: list[float]) -> int:
    """Index of the last maximum: ties go to the later (smaller) subgraph."""
    return len(values) - 1 - values[::-1].index(max(values))


def _csr_peel_layer(
    state: CSRPeelState,
    candidates: list[int],
    selection: str,
    objective: str,
    dist: list[int],
    removal_order: list[int],
    trace: list[float],
) -> None:
    """Index-based replica of :func:`_peel_layer`."""
    csr = state.csr
    num_edges = csr.num_edges
    degree = state.degree
    edges_into = state.edges_into
    adj = state.adj
    candidate_set = set(candidates)

    if selection == "ratio":
        heap: list[tuple[float, int, int]] = []
        counter = 0
        for index in candidates:
            theta = _theta(degree[index], edges_into[index])
            heap.append((-theta, counter, index))
            counter += 1
        heapq.heapify(heap)
        while candidate_set and heap:
            neg_theta, _, index = heapq.heappop(heap)
            if index not in candidate_set:
                continue
            current_theta = _theta(degree[index], edges_into[index])
            if -neg_theta < current_theta:
                # stale entry; re-push with the up-to-date (larger) Θ
                heapq.heappush(heap, (-current_theta, counter, index))
                counter += 1
                continue
            candidate_set.discard(index)
            neighbors = adj[index]
            state.remove(index)
            removal_order.append(index)
            trace.append(state.objective(objective))
            for neighbor in neighbors:
                if neighbor in candidate_set:
                    theta = _theta(degree[neighbor], edges_into[neighbor])
                    heapq.heappush(heap, (-theta, counter, neighbor))
                    counter += 1
    else:  # selection == "gain"
        while candidate_set:
            d_s = state.degree_sum
            best_node = -1
            best_key: tuple[float, float] = (float("-inf"), float("-inf"))
            for index in candidates:
                if index not in candidate_set:
                    continue
                d_v = degree[index]
                k_v = edges_into[index]
                gain = -4.0 * num_edges * k_v + 2.0 * d_s * d_v - float(d_v) ** 2
                key = (gain, float(dist[index]))
                if best_node < 0 or key > best_key:
                    best_key = key
                    best_node = index
            candidate_set.discard(best_node)
            state.remove(best_node)
            removal_order.append(best_node)
            trace.append(state.objective(objective))


def fpa_search(graph: Graph, query_nodes: Sequence[Node], **kwargs) -> set[Node]:
    """Convenience wrapper returning just the community node set of :func:`fpa`."""
    return set(fpa(graph, query_nodes, **kwargs).nodes)
