"""Exact incremental maintenance of core numbers and triangle supports.

The expensive part of republishing a snapshot after a small edit is not the
freeze itself (O(V + E) either way) but re-deriving the decompositions the
query algorithms sit on: the core numbers behind ``kc`` and the per-edge
triangle supports behind the truss peel.  This module maintains both under
single-edge insertions and deletions, exactly:

* **Core numbers** use the traversal ("subcore") algorithm of the streaming
  k-core literature: a single edge insertion can raise core numbers only
  within the connected ``K == r`` subgraph around the endpoints (``r`` the
  smaller endpoint core number), and only by exactly one — a constrained
  BFS plus a cascade of evictions settles the new values without touching
  the rest of the graph.  Deletions run the mirror-image cascade.
* **Triangle supports** update by intersecting the endpoint neighbourhoods
  once per edited edge: inserting ``(u, v)`` gives the new edge support
  ``|N(u) ∩ N(v)|`` and adds one to ``(u, w)`` / ``(v, w)`` for every
  common neighbour ``w``; deletion is the exact mirror.

Both structures are maintained *exactly* (no approximation, no deferred
repair), which is what lets the epoch layer publish snapshots that are
bit-identical to a from-scratch freeze — the CI parity gate for this
subsystem.  Trussness is re-peeled at publish time; the pure-python peel
is seeded with the maintained supports and skips its triangle count, while
the numpy tier's vectorised peel recounts from its triangle table (see
:mod:`repro.dynamic.epoch`).

All functions mutate ``graph``, ``core`` (node → core number) and
``support`` (canonical edge → triangle count) in place; the epoch manager
calls them on private copies and publishes only on success.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..graph.graph import Edge, Graph, Node

__all__ = ["apply_op", "canonical_edge", "insert_edge", "delete_edge", "remove_node", "add_node"]


def canonical_edge(u: Node, v: Node) -> Edge:
    """The library-wide canonical orientation: lexicographic on ``repr``."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


# ----------------------------------------------------------------------------
# core-number maintenance (traversal / subcore algorithm)
# ----------------------------------------------------------------------------


def _core_insert(graph: Graph, core: dict[Node, int], u: Node, v: Node) -> None:
    """Settle core numbers after ``(u, v)`` was inserted into ``graph``.

    Only vertices in the ``K == r`` subcore reachable from the endpoint(s)
    at level ``r = min(K(u), K(v))`` can change, each by exactly +1.  Every
    subcore member starts with its *core degree* — neighbours that could
    accompany it into the ``(r + 1)``-core — and members whose degree
    cannot support ``r + 1`` are evicted in cascade; the survivors are
    promoted.
    """
    r = min(core[u], core[v])
    roots = [x for x in (u, v) if core[x] == r]
    subcore = set(roots)
    stack = list(roots)
    while stack:
        x = stack.pop()
        for y in graph.adjacency(x):
            if y not in subcore and core[y] == r:
                subcore.add(y)
                stack.append(y)
    # every K == r neighbour of a subcore member is itself in the subcore,
    # so "K > r, or in the subcore" collapses to "K >= r"
    cd = {x: sum(1 for y in graph.adjacency(x) if core[y] >= r) for x in subcore}
    queue = deque(x for x in subcore if cd[x] <= r)
    settled = set(queue)
    evicted: set[Node] = set()
    while queue:
        x = queue.popleft()
        evicted.add(x)
        for y in graph.adjacency(x):
            if y in subcore and y not in settled:
                cd[y] -= 1
                if cd[y] <= r:
                    settled.add(y)
                    queue.append(y)
    for x in subcore:
        if x not in evicted:
            core[x] = r + 1


def _core_delete(graph: Graph, core: dict[Node, int], u: Node, v: Node) -> None:
    """Settle core numbers after ``(u, v)`` was removed from ``graph``.

    The mirror image of :func:`_core_insert`: only ``K == r`` vertices
    reachable (in the post-removal graph) from the endpoint(s) at level
    ``r`` can drop, each by exactly one; a vertex drops when fewer than
    ``r`` of its neighbours remain at level >= ``r``, and each drop may
    cascade to its neighbours.
    """
    r = min(core[u], core[v])
    roots = [x for x in (u, v) if core[x] == r]
    candidates = set(roots)
    stack = list(roots)
    while stack:
        x = stack.pop()
        for y in graph.adjacency(x):
            if y not in candidates and core[y] == r:
                candidates.add(y)
                stack.append(y)
    ed = {x: sum(1 for y in graph.adjacency(x) if core[y] >= r) for x in candidates}
    queue = deque(x for x in candidates if ed[x] < r)
    dropped = set(queue)
    while queue:
        x = queue.popleft()
        core[x] = r - 1
        for y in graph.adjacency(x):
            if y in candidates and y not in dropped:
                ed[y] -= 1
                if ed[y] < r:
                    dropped.add(y)
                    queue.append(y)


# ----------------------------------------------------------------------------
# the four mutations
# ----------------------------------------------------------------------------


def insert_edge(
    graph: Graph,
    core: dict[Node, int],
    support: dict[Edge, int],
    u: Node,
    v: Node,
    weight: float = 1.0,
) -> None:
    """Insert ``(u, v)`` and repair ``core`` and ``support`` exactly.

    Endpoints are auto-created (entering at core number 0), matching the
    mutable graph's own ``add_edge`` semantics; re-adding an existing edge
    only overwrites its weight — supports and core numbers are weight-free,
    so no structural repair runs.
    """
    if graph.has_edge(u, v):
        graph.add_edge(u, v, weight)  # weight-only: no structural change
        return
    common: list[Node] = []
    if graph.has_node(u) and graph.has_node(v):
        u_adjacency = graph.adjacency(u)
        v_adjacency = graph.adjacency(v)
        if len(u_adjacency) > len(v_adjacency):
            u_adjacency, v_adjacency = v_adjacency, u_adjacency
        common = [w for w in u_adjacency if w in v_adjacency]
    graph.add_edge(u, v, weight)
    core.setdefault(u, 0)
    core.setdefault(v, 0)
    support[canonical_edge(u, v)] = len(common)
    for w in common:
        support[canonical_edge(u, w)] += 1
        support[canonical_edge(v, w)] += 1
    _core_insert(graph, core, u, v)


def delete_edge(
    graph: Graph,
    core: dict[Node, int],
    support: dict[Edge, int],
    u: Node,
    v: Node,
) -> None:
    """Remove ``(u, v)`` and repair ``core`` and ``support`` exactly."""
    if not graph.has_edge(u, v):
        graph.remove_edge(u, v)  # raises the canonical GraphError
    u_adjacency = graph.adjacency(u)
    v_adjacency = graph.adjacency(v)
    if len(u_adjacency) > len(v_adjacency):
        u_adjacency, v_adjacency = v_adjacency, u_adjacency
    # the (u, v) edge itself never appears in the intersection, so the
    # common-neighbour set is the same before and after the removal
    common = [w for w in u_adjacency if w in v_adjacency]
    graph.remove_edge(u, v)
    del support[canonical_edge(u, v)]
    for w in common:
        support[canonical_edge(u, w)] -= 1
        support[canonical_edge(v, w)] -= 1
    _core_delete(graph, core, u, v)


def add_node(graph: Graph, core: dict[Node, int], node: Node) -> None:
    """Add an isolated node (no-op if present); isolated nodes have K = 0."""
    graph.add_node(node)
    core.setdefault(node, 0)


def remove_node(
    graph: Graph,
    core: dict[Node, int],
    support: dict[Edge, int],
    node: Node,
) -> None:
    """Remove a node as a sequence of exact single-edge deletions."""
    if not graph.has_node(node):
        graph.remove_node(node)  # raises the canonical GraphError
    for neighbor in list(graph.neighbors(node)):
        delete_edge(graph, core, support, node, neighbor)
    graph.remove_node(node)
    del core[node]


def apply_op(
    graph: Graph,
    core: dict[Node, int],
    support: dict[Edge, int],
    op: tuple[Any, ...],
) -> None:
    """Apply one recorded :class:`~repro.dynamic.delta.DeltaBatch` op."""
    kind = op[0]
    if kind == "add_edge":
        insert_edge(graph, core, support, op[1], op[2], op[3])
    elif kind == "remove_edge":
        delete_edge(graph, core, support, op[1], op[2])
    elif kind == "add_node":
        add_node(graph, core, op[1])
    elif kind == "remove_node":
        remove_node(graph, core, support, op[1])
    else:  # unreachable through DeltaBatch; guards hand-built tuples
        raise ValueError(f"unknown delta operation {kind!r}")
