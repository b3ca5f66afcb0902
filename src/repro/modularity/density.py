"""Density modularity: the paper's new community-goodness function.

Definition 2 (weighted):

    DM(G, C) = 1/|C| * (w_C - d_C^2 / (4 w_G))

where ``w_C`` is the sum of internal edge weights, ``d_C`` the sum of node
weights (weighted degrees) and ``w_G`` the total edge weight of the graph.

For an unweighted graph this reduces to

    DM(G, C) = 1/(2|C|) * (2 l_C - d_C^2 / (2|E|)).

This module also provides the peeling-time helpers of Section 5.3:

* :func:`updated_density_modularity` (Definition 5) — DM after removing one
  node;
* :func:`density_modularity_gain` (Definition 6) — Λ, the rank-equivalent
  shortcut used by NCA;
* :func:`density_ratio` (Definition 7) — Θ = d_v / k_{v,S}, the *stable*
  objective used by FPA.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graph import Graph, GraphError, Node
from .classic import (
    internal_edge_count,
    internal_edge_weight,
    total_degree,
    total_weighted_degree,
)

__all__ = [
    "density_modularity",
    "updated_density_modularity",
    "density_modularity_gain",
    "density_ratio",
    "edges_to_subgraph",
    "graph_density",
    "CommunityStatistics",
]

#: the error every density-modularity evaluation raises on an edgeless graph
NO_EDGES = "graph has no edges; density modularity is undefined"


class CommunityStatistics:
    """Incrementally maintained statistics of a community under node removal.

    The peeling algorithms repeatedly evaluate DM on shrinking subgraphs.
    Recomputing ``l_C`` and ``d_C`` from scratch at every step would cost
    ``O(|E|)`` per removal; this helper maintains them in
    ``O(deg(removed node))`` instead.

    Attributes
    ----------
    size: current number of nodes in the community.
    internal_edges: current number (or total weight) of internal edges.
    degree_sum: sum of *original-graph* degrees (or node weights) of members.
    """

    __slots__ = ("graph", "members", "size", "internal_edges", "degree_sum", "weighted")

    def __init__(self, graph: Graph, members: Iterable[Node], weighted: bool = False) -> None:
        self.graph = graph
        self.members = set(members)
        if not self.members:
            raise GraphError("community must contain at least one node")
        self.weighted = weighted
        self.size = len(self.members)
        if weighted:
            self.internal_edges = internal_edge_weight(graph, self.members)
            self.degree_sum = total_weighted_degree(graph, self.members)
        else:
            self.internal_edges = float(internal_edge_count(graph, self.members))
            self.degree_sum = float(total_degree(graph, self.members))

    def remove(self, node: Node) -> None:
        """Remove ``node`` from the community, updating statistics in place."""
        if node not in self.members:
            raise GraphError(f"node {node!r} is not in the community")
        self.members.discard(node)
        self.size -= 1
        if self.weighted:
            lost = sum(
                weight
                for neighbor, weight in self.graph.adjacency(node).items()
                if neighbor in self.members
            )
            self.internal_edges -= lost
            self.degree_sum -= self.graph.weighted_degree(node)
        else:
            lost = sum(1 for neighbor in self.graph.adjacency(node) if neighbor in self.members)
            self.internal_edges -= lost
            self.degree_sum -= self.graph.degree(node)

    def density_modularity(self) -> float:
        """Return DM of the current community.

        The unweighted branch performs the exact float-operation sequence of
        :func:`repro.core.objectives.objective_from_scalars` so dict and CSR
        peels stay bit-identical.
        """
        if self.size == 0:
            raise GraphError("community is empty")
        if self.weighted:
            w_g = self.graph.total_edge_weight()
            if w_g == 0:
                raise GraphError(NO_EDGES)
            d_c = self.degree_sum
            return (self.internal_edges - (d_c * d_c) / (4.0 * w_g)) / self.size
        num_edges = self.graph.number_of_edges()
        if num_edges == 0:
            raise GraphError(NO_EDGES)
        d_c = self.degree_sum
        numerator = 2.0 * self.internal_edges - (d_c * d_c) / (2.0 * num_edges)
        return numerator / (2.0 * self.size)


def density_modularity(graph: Graph, community: Iterable[Node], weighted: bool = False) -> float:
    """Return the density modularity ``DM(G, C)`` (Definition 2).

    Parameters
    ----------
    graph:
        The host graph ``G`` (degrees and totals are taken here).
    community:
        The node set ``C``; must be non-empty and contained in ``graph``.
    weighted:
        Use edge weights / node weights instead of counts / degrees.
    """
    members = set(community)
    if not members:
        raise GraphError("community must contain at least one node")
    if weighted:
        w_g = graph.total_edge_weight()
        if w_g == 0:
            raise GraphError(NO_EDGES)
        w_c = internal_edge_weight(graph, members)
        d_c = total_weighted_degree(graph, members)
        return (w_c - (d_c * d_c) / (4.0 * w_g)) / len(members)
    num_edges = graph.number_of_edges()
    if num_edges == 0:
        raise GraphError(NO_EDGES)
    l_c = internal_edge_count(graph, members)
    d_c = total_degree(graph, members)
    return (2.0 * l_c - (d_c * d_c) / (2.0 * num_edges)) / (2.0 * len(members))


def edges_to_subgraph(graph: Graph, node: Node, members: Iterable[Node]) -> int:
    """Return ``k_{v,S}``: the number of edges from ``node`` into ``members``."""
    member_set = set(members)
    return sum(1 for neighbor in graph.adjacency(node) if neighbor in member_set)


def updated_density_modularity(graph: Graph, community: Iterable[Node], node: Node) -> float:
    """Return DM of ``community \\ {node}`` (Definition 5).

    Written exactly as the paper's formula:

        (l_S - k_{v,S}) / (|S| - 1) - (d_S - d_v)^2 / (4 |E| (|S| - 1))
    """
    members = set(community)
    if node not in members:
        raise GraphError(f"node {node!r} is not in the community")
    if len(members) < 2:
        raise GraphError("cannot remove a node from a singleton community")
    num_edges = graph.number_of_edges()
    l_s = internal_edge_count(graph, members)
    d_s = total_degree(graph, members)
    k_v = edges_to_subgraph(graph, node, members - {node})
    d_v = graph.degree(node)
    remaining = len(members) - 1
    return (l_s - k_v) / remaining - ((d_s - d_v) ** 2) / (4.0 * num_edges * remaining)


def density_modularity_gain(graph: Graph, community: Iterable[Node], node: Node) -> float:
    """Return the density modularity gain ``Λ`` of removing ``node`` (Definition 6).

        Λ_S^v = -4 |E| k_{v,S} + 2 d_S d_v - d_v^2

    Larger Λ means removing ``node`` keeps a larger density modularity
    (the fixed terms dropped from Definition 5 do not affect the ranking of
    candidate nodes within one iteration).
    """
    members = set(community)
    if node not in members:
        raise GraphError(f"node {node!r} is not in the community")
    num_edges = graph.number_of_edges()
    k_v = edges_to_subgraph(graph, node, members - {node})
    d_v = graph.degree(node)
    d_s = total_degree(graph, members)
    return -4.0 * num_edges * k_v + 2.0 * d_s * d_v - float(d_v) ** 2


def density_ratio(graph: Graph, community: Iterable[Node], node: Node) -> float:
    """Return the density ratio ``Θ = d_v / k_{v,S}`` (Definition 7).

    ``d_v`` is the degree of ``node`` in the *original* graph and ``k_{v,S}``
    the number of its edges into the current community.  Nodes with no edge
    into the community get ``Θ = +inf`` (they are the best candidates to
    remove, being completely peripheral).
    """
    members = set(community)
    if node not in members:
        raise GraphError(f"node {node!r} is not in the community")
    k_v = edges_to_subgraph(graph, node, members - {node})
    d_v = graph.degree(node)
    if k_v == 0:
        return float("inf")
    return d_v / k_v


def graph_density(graph: Graph, community: Iterable[Node] | None = None) -> float:
    """Return the classic graph density ``|E[C]| / |C|`` (Khuller & Saha).

    With ``community=None`` the density of the whole graph is returned.
    """
    if community is None:
        n = graph.number_of_nodes()
        if n == 0:
            raise GraphError("graph has no nodes; density is undefined")
        return graph.number_of_edges() / n
    members = set(community)
    if not members:
        raise GraphError("community must contain at least one node")
    return internal_edge_count(graph, members) / len(members)
