"""Exact incremental maintenance of core numbers and truss numbers.

The expensive part of republishing a snapshot after a small edit is not the
freeze itself (O(V + E) either way) but re-deriving the decompositions the
query algorithms sit on: the core numbers behind ``kc`` and the truss
numbers behind ``kt`` / ``hightruss`` and the community index.  This module
maintains both under single-edge insertions and deletions, exactly:

* **Core numbers** use the traversal ("subcore") algorithm of the streaming
  k-core literature: a single edge insertion can raise core numbers only
  within the connected ``K == r`` subgraph around the endpoints (``r`` the
  smaller endpoint core number), and only by exactly one — a constrained
  BFS plus a cascade of evictions settles the new values without touching
  the rest of the graph.  Deletions run the mirror-image cascade.
* **Truss numbers** use the local repair of Huang et al. (SIGMOD 2014) and
  Zhang and Yu (SIGMOD 2019).  A single edit moves any other edge's
  trussness by at most one, and every level ``k`` settles on its own:

  - *insert* ``e0``: let ``L`` be the largest ``k`` such that ``e0`` has at
    least ``k - 2`` triangles whose other two edges have ``τ >= k``; ``e0``
    ends at ``L`` or ``L + 1``.  For each ``k <= L`` (top down) the
    candidates are the ``τ == k`` edges reachable from ``e0`` through
    triangles whose edges all have ``τ >= k``, stepping only onto
    ``τ == k`` edges (``e0`` itself is a candidate at ``k == L``).  Each
    candidate counts its triangles whose partners are candidates or have
    ``τ >= k + 1``; candidates below ``k - 1`` are peeled, and the
    survivors move to ``k + 1``;
  - *delete* ``e0``: the mirror image for ``3 <= k <= τ(e0)`` (bottom
    up): candidates left with fewer than ``k - 2`` such triangles are
    peeled and drop to ``k - 1``.

  A candidate is marked removed when it is popped from the peel queue, not
  when it is queued, so a triangle between two queued candidates still
  decrements its third edge.

:class:`TrussRepair` holds the truss numbers of the working graph as the
committed snapshot's per-edge-id list plus the entries this batch changed,
keyed by node pairs; :meth:`TrussRepair.carry` maps them onto the new
snapshot's edge ids.  The repair counts the candidate edges it visits; once
a batch has visited more than the committed snapshot's edge count, it stops
repairing (``exhausted``) and the caller re-peels the new snapshot instead,
so a batch never costs much more than one whole-graph peel.

The core functions mutate ``graph`` and ``core`` (node → core number) in
place; the epoch manager calls them on private copies and publishes only
on success.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..graph import vec_kernels
from ..graph.graph import Graph, Node

__all__ = ["TrussRepair", "apply_op", "insert_edge", "delete_edge", "remove_node", "add_node"]


def _common(graph: Graph, u: Node, v: Node) -> list[Node]:
    """The common neighbours of ``u`` and ``v``, in the smaller row's order."""
    u_adjacency = graph.adjacency(u)
    v_adjacency = graph.adjacency(v)
    if len(u_adjacency) > len(v_adjacency):
        u_adjacency, v_adjacency = v_adjacency, u_adjacency
    return [w for w in u_adjacency if w in v_adjacency]


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
# truss-number maintenance (level-local candidate peel)
# ----------------------------------------------------------------------------


class _OverBudget(Exception):
    """The batch visited more candidate edges than one full peel touches."""


class TrussRepair:
    """Exact truss numbers of a working graph, as edits to a committed list.

    ``csr`` / ``index`` / ``truss`` are the committed snapshot, its edge
    numbering and its per-edge-id truss numbers; they are only read.
    ``budget`` caps the candidate edges a batch may visit.
    Lookups of untouched edges resolve through per-node ``{neighbour
    position: edge id}`` rows built from the committed CSR on first use, so
    the repair never builds the edge index's whole-graph tables.
    """

    __slots__ = (
        "_csr",
        "_index",
        "_index_of",
        "_base",
        "_rows",
        "changed",
        "budget",
        "visited",
        "exhausted",
    )

    def __init__(self, csr, index, truss: list[int], budget: int) -> None:
        self._csr = csr
        self._index = index
        self._index_of = csr.index_of
        self._base = truss
        self._rows: dict[int, dict[int, int]] = {}
        #: (u, v) → truss number, both orientations, for every edge this
        #: batch inserted or re-valued
        self.changed: dict[tuple[Node, Node], int] = {}
        self.budget = budget
        self.visited = 0
        self.exhausted = False

    def get(self, u: Node, v: Node) -> int:
        """The current truss number of the (present) edge ``(u, v)``."""
        value = self.changed.get((u, v))
        if value is not None:
            return value
        i = self._index_of[u]
        row = self._rows.get(i)
        if row is None:
            start, stop = self._csr.indptr[i], self._csr.indptr[i + 1]
            row = self._rows[i] = dict(
                zip(self._csr.indices[start:stop], self._index.edge_id[start:stop])
            )
        return self._base[row[self._index_of[v]]]

    def set(self, u: Node, v: Node, value: int) -> None:
        self.changed[(u, v)] = self.changed[(v, u)] = value

    def drop(self, u: Node, v: Node) -> None:
        self.changed.pop((u, v), None)
        self.changed.pop((v, u), None)

    def insert(self, graph: Graph, u: Node, v: Node) -> None:
        """Settle truss numbers after ``(u, v)`` was inserted into ``graph``."""
        common = _common(graph, u, v)
        pairs = sorted((min(self.get(u, w), self.get(v, w)) for w in common), reverse=True)
        top = 2
        for count, value in enumerate(pairs, 1):
            top = max(top, min(value, count + 2))
        self.set(u, v, top)
        for k in range(top, 1, -1):  # top down: promotions land on settled levels
            self._settle(graph, u, v, common, top, k, insert=True)

    def delete(self, graph: Graph, u: Node, v: Node, common: list[Node], top: int) -> None:
        """Settle truss numbers after ``(u, v)`` (truss ``top``, common
        neighbours ``common``) was removed from ``graph``."""
        for k in range(3, top + 1):  # bottom up: demotions land on settled levels
            self._settle(graph, u, v, common, top, k, insert=False)

    def _settle(self, graph, u, v, common, top, k, insert) -> None:
        """Peel level ``k``'s candidates around ``e0 = (u, v)``.

        ``e0`` has truss ``top`` (its new lower bound on insertion, its old
        value on deletion).  Every triangle recorded for a candidate has both
        partners at ``τ >= k``; a ``τ == k`` partner is itself a candidate,
        so every recorded triangle counts toward the ``k + 1`` (insert) or
        ``k`` (delete) truss.
        """
        ids: dict[tuple[Node, Node], int] = {}
        ends: list[tuple[Node, Node]] = []
        stack: list[tuple[Node, Node]] = []

        def register(x, y):
            if (x, y) not in ids:
                if self.visited >= self.budget:
                    raise _OverBudget
                self.visited += 1
                ids[(x, y)] = ids[(y, x)] = len(ends)
                ends.append((x, y))
                stack.append((x, y))

        get = self.get
        if insert and top == k:
            register(u, v)
        else:  # e0 is not a candidate: step off it through its triangles
            for w in common:
                a, b = get(u, w), get(v, w)
                if a >= k and b >= k:
                    if a == k:
                        register(u, w)
                    if b == k:
                        register(v, w)
        # per candidate, its counted triangles as the two partner edges
        # (a partner above level k is None: it is never peeled)
        found: dict[int, list[tuple]] = {}
        while stack:
            x, y = stack.pop()
            row = found[ids[(x, y)]] = []
            for z in _common(graph, x, y):
                a, b = get(x, z), get(y, z)
                if a >= k and b >= k:
                    if a == k:
                        register(x, z)
                    if b == k:
                        register(y, z)
                    row.append(((x, z) if a == k else None, (y, z) if b == k else None))
        partners = [
            [(-1 if p is None else ids[p], -1 if q is None else ids[q]) for p, q in found[cid]]
            for cid in range(len(ends))
        ]
        count = [len(row) for row in partners]
        need = k - 1 if insert else k - 2
        queue = deque(cid for cid in range(len(ends)) if count[cid] < need)
        queued = bytearray(len(ends))
        for cid in queue:
            queued[cid] = 1
        removed = bytearray(len(ends))
        while queue:
            cid = queue.popleft()
            removed[cid] = 1
            for p, q in partners[cid]:
                if (p >= 0 and removed[p]) or (q >= 0 and removed[q]):
                    continue  # the triangle already broke
                for r in (p, q):
                    if r >= 0:
                        count[r] -= 1
                        if count[r] < need and not queued[r]:
                            queued[r] = 1
                            queue.append(r)
        for cid, (x, y) in enumerate(ends):
            if insert and not removed[cid]:
                self.set(x, y, k + 1)
            elif not insert and removed[cid]:
                self.set(x, y, k - 1)

    def carry(self, csr, index) -> list[int]:
        """The repaired truss numbers, indexed by the new snapshot's edge ids.

        Every edge the batch did not touch keeps its committed value, mapped
        from the committed edge ids onto ``index``'s through the node labels;
        the changed entries are patched on top.
        """
        old_index = self._index
        index_of = csr.index_of
        old_to_new = [index_of.get(node, -1) for node in self._csr.node_list]
        patch = [(index_of[u], index_of[v], value) for (u, v), value in self.changed.items()]
        if vec_kernels.vec_enabled():
            return vec_kernels.vec_carry_edge_values(
                old_index, old_to_new, csr, index, self._base, patch
            )
        truss = [-1] * index.num_edges
        edge_of = index.edge_of
        for e, value in enumerate(self._base):
            a, b = old_to_new[old_index.eu[e]], old_to_new[old_index.ev[e]]
            if a >= 0 and b >= 0:
                new_id = edge_of[a].get(b)
                if new_id is not None:
                    truss[new_id] = value
        for a, b, value in patch:
            truss[edge_of[a][b]] = value
        return truss


def _truss_step(truss: TrussRepair, repair) -> None:
    """Run one truss repair step unless the batch already gave up."""
    if truss.exhausted:
        return
    try:
        repair()
    except _OverBudget:
        truss.exhausted = True
        truss.changed.clear()


# ----------------------------------------------------------------------------
# the four mutations
# ----------------------------------------------------------------------------


def insert_edge(
    graph: Graph,
    core: dict[Node, int],
    truss: TrussRepair,
    u: Node,
    v: Node,
    weight: float = 1.0,
) -> None:
    """Insert ``(u, v)`` and repair ``core`` and ``truss`` exactly.

    Endpoints are auto-created (entering at core number 0), matching the
    mutable graph's own ``add_edge`` semantics; re-adding an existing edge
    only overwrites its weight — core and truss numbers are weight-free,
    so no structural repair runs.
    """
    if graph.has_edge(u, v):
        graph.add_edge(u, v, weight)  # weight-only: no structural change
        return
    graph.add_edge(u, v, weight)
    core.setdefault(u, 0)
    core.setdefault(v, 0)
    _core_insert(graph, core, u, v)
    _truss_step(truss, lambda: truss.insert(graph, u, v))


def delete_edge(
    graph: Graph,
    core: dict[Node, int],
    truss: TrussRepair,
    u: Node,
    v: Node,
) -> None:
    """Remove ``(u, v)`` and repair ``core`` and ``truss`` exactly."""
    if not graph.has_edge(u, v):
        graph.remove_edge(u, v)  # raises the canonical GraphError
    repair = not truss.exhausted
    if repair:
        # the (u, v) edge itself never appears in the intersection, so the
        # common-neighbour set is the same before and after the removal
        common = _common(graph, u, v)
        top = truss.get(u, v)
        truss.drop(u, v)
    graph.remove_edge(u, v)
    _core_delete(graph, core, u, v)
    if repair:
        _truss_step(truss, lambda: truss.delete(graph, u, v, common, top))


def add_node(graph: Graph, core: dict[Node, int], node: Node) -> None:
    """Add an isolated node (no-op if present); isolated nodes have K = 0."""
    graph.add_node(node)
    core.setdefault(node, 0)


def remove_node(
    graph: Graph,
    core: dict[Node, int],
    truss: TrussRepair,
    node: Node,
) -> None:
    """Remove a node as a sequence of exact single-edge deletions."""
    if not graph.has_node(node):
        graph.remove_node(node)  # raises the canonical GraphError
    for neighbor in list(graph.neighbors(node)):
        delete_edge(graph, core, truss, node, neighbor)
    graph.remove_node(node)
    del core[node]


def apply_op(
    graph: Graph,
    core: dict[Node, int],
    truss: TrussRepair,
    op: tuple[Any, ...],
) -> None:
    """Apply one recorded :class:`~repro.dynamic.delta.DeltaBatch` op."""
    kind = op[0]
    if kind == "add_edge":
        insert_edge(graph, core, truss, op[1], op[2], op[3])
    elif kind == "remove_edge":
        delete_edge(graph, core, truss, op[1], op[2])
    elif kind == "add_node":
        add_node(graph, core, op[1])
    elif kind == "remove_node":
        remove_node(graph, core, truss, op[1])
    else:  # unreachable through DeltaBatch; guards hand-built tuples
        raise ValueError(f"unknown delta operation {kind!r}")
