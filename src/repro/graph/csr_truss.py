"""Array-backed truss kernels for the CSR fast path.

The dict-backed truss decomposition (:mod:`repro.graph.trussness`) pays a
Python hash lookup — and, before PR 2, two ``repr()`` calls — per edge touch,
which made the ``kt`` / ``hightruss`` / ``huang2015`` baselines the dominant
cost of batched sweeps.  This module is the CSR counterpart:

* :class:`CSREdgeIndex` — a per-snapshot numbering of the undirected edges
  (one id per edge, in the exact order :meth:`Graph.iter_edges` yields them)
  with endpoint arrays and a position→edge-id map (numpy-built on the vec
  tier), plus per-node neighbour→edge-id dicts for the pure-python peel's
  O(1) triangle lookups, derived only when first read;
* :func:`csr_edge_support` — triangle counting via merge-based neighbour
  intersection over sorted ``indices`` (each triangle found once at its
  lowest-ranked edge, then credited to all three edges);
* :func:`csr_truss_numbers` — bucket-queue truss peeling that removes the
  minimum-support edge first, breaking ties in the same order as the dict
  path's lazy heap (buckets are FIFO in decrement order, which is exactly
  the heap's ``(support, counter)`` order), so both backends peel the same
  edge sequence;
* :func:`csr_k_truss_edges` — the ``k``-truss as a kept-edge mask, derived
  from the truss numbers (an edge is in the ``k``-truss iff its truss number
  is at least ``k``).

Every kernel accepts an optional ``alive`` node mask so the ``within=...``
variants of the truss API can run on induced subviews without materialising
a mutable copy.
"""

from __future__ import annotations

from array import array
from typing import Optional

from .csr import CSRGraph

__all__ = [
    "CSREdgeIndex",
    "csr_edge_index",
    "csr_edge_support",
    "csr_truss_numbers",
    "csr_k_truss_edges",
]


class CSREdgeIndex:
    """Edge numbering of a :class:`CSRGraph` (built once, reused by kernels).

    Edge ids follow :meth:`Graph.iter_edges` order — each undirected edge is
    numbered at the adjacency row of whichever endpoint appears first in the
    node order — so dict-keyed and id-indexed edge results line up without
    any sorting.  The flat ``eu`` / ``ev`` / ``edge_id`` tables are numpy-built
    on the vec tier, which derives the per-node ``edge_of`` / ``incident``
    tables (read by the pure-python kernels only) on first access.
    """

    __slots__ = ("num_edges", "eu", "ev", "edge_id", "_edge_of", "_incident", "_csr", "_vec_cache")

    def __init__(self, csr: CSRGraph) -> None:
        from . import vec_kernels

        self._csr = csr
        self._vec_cache = None  # numpy edge tables (vec_kernels)
        self._edge_of = self._incident = None
        if vec_kernels.vec_enabled():
            self.eu, self.ev, self.edge_id = vec_kernels.vec_edge_numbering(csr, self)
            self.num_edges = len(self.eu)
            return
        indptr = csr.indptr
        indices = csr.indices
        n = csr.number_of_nodes()
        eu = array("l")
        ev = array("l")
        edge_id = array("l", [0] * len(indices))
        # neighbour → edge id, one dict per node (both orientations)
        edge_of: list[dict[int, int]] = [{} for _ in range(n)]
        # (edge id, neighbour) pairs per node, in adjacency order — the hot
        # peel loop unpacks one tuple per edge touch instead of indexing
        # three arrays
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        next_id = 0
        for i in range(n):
            row_edge_of = edge_of[i]
            row_incident = incident[i]
            for pos in range(indptr[i], indptr[i + 1]):
                j = indices[pos]
                if i < j:
                    eu.append(i)
                    ev.append(j)
                    row_edge_of[j] = next_id
                    edge_of[j][i] = next_id
                    edge_id[pos] = next_id
                    row_incident.append((next_id, j))
                    next_id += 1
                else:
                    eid = edge_of[i][j]
                    edge_id[pos] = eid
                    row_incident.append((eid, j))
        self.num_edges = next_id
        self.eu = eu
        self.ev = ev
        self.edge_id = edge_id
        self._edge_of = edge_of
        self._incident = incident

    edge_of = property(lambda self: self._tables()[0], doc="Per node, neighbour → edge id.")
    incident = property(
        lambda self: self._tables()[1], doc="Per node, (edge id, neighbour) in adjacency order."
    )

    def _tables(self):
        if self._incident is None:
            rows, indptr = self._csr.adjacency_lists(), self._csr.indptr
            row_ids = [self.edge_id[a:b].tolist() for a, b in zip(indptr, indptr[1:])]
            self._edge_of = [dict(zip(row, eids)) for row, eids in zip(rows, row_ids)]
            self._incident = [list(zip(eids, row)) for row, eids in zip(rows, row_ids)]
        return self._edge_of, self._incident


def csr_edge_index(csr: CSRGraph) -> CSREdgeIndex:
    """Build the edge numbering of ``csr`` (callers should cache the result)."""
    return CSREdgeIndex(csr)


def _alive_degrees(
    csr: CSRGraph, alive: Optional[bytearray]
) -> list[int]:
    """Per-node degree restricted to the alive subgraph (-1 for dead nodes)."""
    n = csr.number_of_nodes()
    if alive is None:
        indptr = csr.indptr
        return [indptr[i + 1] - indptr[i] for i in range(n)]
    adj = csr.adjacency_lists()
    return [
        sum(1 for j in adj[i] if alive[j]) if alive[i] else -1 for i in range(n)
    ]


def csr_edge_support(
    csr: CSRGraph,
    index: Optional[CSREdgeIndex] = None,
    alive: Optional[bytearray] = None,
) -> list[int]:
    """Return per-edge triangle counts, indexed by edge id.

    Edges with a dead endpoint get support ``-1``.  Triangles are listed by
    merge-intersecting the *sorted, higher-ranked* neighbour lists of each
    edge's endpoints (rank = (degree, index), the standard orientation that
    makes the sweep near-linear on sparse graphs); each triangle found this
    way is credited to all three of its edges.

    Support values are order-free triangle counts, so when the optional
    numpy tier is enabled the count comes from the vectorised kernel —
    the returned list is identical either way.
    """
    if index is None:
        index = csr_edge_index(csr)
    from . import vec_kernels

    if vec_kernels.vec_enabled():
        return vec_kernels.vec_edge_support(csr, index, alive)
    n = csr.number_of_nodes()
    m = index.num_edges
    adj = csr.adjacency_lists()
    degree = _alive_degrees(csr, alive)
    # rank nodes by (degree, index); orient every edge low → high rank
    by_rank = sorted(range(n), key=lambda i: (degree[i], i))
    rank = [0] * n
    for order, i in enumerate(by_rank):
        rank[i] = order
    # forward adjacency: each node's higher-ranked alive neighbours, sorted by
    # rank — built in one sweep over nodes in rank order (each node appends
    # itself to its lower-ranked neighbours, so every row comes out sorted)
    forward: list[list[int]] = [[] for _ in range(n)]
    forward_ranks: list[list[int]] = [[] for _ in range(n)]
    for order, w in enumerate(by_rank):
        if degree[w] < 0:
            continue
        for j in adj[w]:
            if rank[j] < order and degree[j] >= 0:
                forward[j].append(w)
                forward_ranks[j].append(order)
    support = [0] * m
    eu = index.eu
    ev = index.ev
    edge_of = index.edge_of
    for e in range(m):
        u = eu[e]
        v = ev[e]
        if degree[u] < 0 or degree[v] < 0:
            support[e] = -1
            continue
        if rank[u] > rank[v]:
            u, v = v, u
        nodes_a = forward[u]
        ranks_a = forward_ranks[u]
        ranks_b = forward_ranks[v]
        # merge-based intersection: both lists are sorted by rank
        ia = ib = 0
        len_a = len(ranks_a)
        len_b = len(ranks_b)
        edge_of_u = edge_of[u]
        edge_of_v = edge_of[v]
        count = 0
        while ia < len_a and ib < len_b:
            ra = ranks_a[ia]
            rb = ranks_b[ib]
            if ra < rb:
                ia += 1
            elif rb < ra:
                ib += 1
            else:
                # triangle (u, v, w): credit all three edges
                w = nodes_a[ia]
                count += 1
                support[edge_of_u[w]] += 1
                support[edge_of_v[w]] += 1
                ia += 1
                ib += 1
        support[e] += count
    return support


def csr_truss_numbers(
    csr: CSRGraph,
    index: Optional[CSREdgeIndex] = None,
    alive: Optional[bytearray] = None,
    support: Optional[list[int]] = None,
) -> list[int]:
    """Return the truss number of every alive edge (``-1`` for dead edges).

    Bucket-queue peeling: edges live in FIFO buckets keyed by current
    support, entries are appended when an edge's support drops, and stale
    entries are skipped lazily — the pop order is therefore exactly the dict
    path's ``(support, push counter)`` heap order, including tie-breaks.
    Triangle updates mirror the dict path too: the lower-degree endpoint's
    surviving adjacency is scanned in CSR (= insertion) order and, for each
    common neighbour ``w``, the ``(u, w)`` edge is decremented before
    ``(v, w)``.

    Truss numbers are order-independent, so when the optional numpy tier
    is enabled the values come from the level-synchronous vectorised peel
    — the returned list is identical either way.

    ``support`` optionally seeds the peel with already-known per-edge-id
    triangle counts, skipping this peel's triangle-counting pass.  The seed must
    equal what :func:`csr_edge_support` would return; the peel is a pure
    function of the supports, so the result is identical.
    """
    if index is None:
        index = csr_edge_index(csr)
    from . import vec_kernels

    if vec_kernels.vec_enabled():
        return vec_kernels.vec_truss_numbers(csr, index, alive, support)
    m = index.num_edges
    truss = [-1] * m
    if m == 0:
        return truss
    # the peel mutates its support list, so never the caller's seed
    support = list(support) if support is not None else csr_edge_support(csr, index, alive)
    degree = _alive_degrees(csr, alive)
    eu = index.eu
    ev = index.ev
    edge_of = index.edge_of
    # shallow row copy: lazy compaction below replaces rows rather than
    # mutating them, so the index's shared lists stay pristine
    incident = list(index.incident)

    removed = bytearray(m)
    remaining = 0
    max_support = 0
    for e in range(m):
        sup = support[e]
        if sup < 0:
            removed[e] = 1
        else:
            remaining += 1
            if sup > max_support:
                max_support = sup
    buckets: list[list[int]] = [[] for _ in range(max_support + 1)]
    for e in range(m):
        if not removed[e]:
            buckets[support[e]].append(e)
    heads = [0] * (max_support + 1)

    k = 2
    cursor = 0
    while remaining:
        # pop the minimum-support edge (FIFO within a bucket, skip stale entries)
        bucket = buckets[cursor]
        head = heads[cursor]
        try:
            edge = bucket[head]
        except IndexError:
            cursor += 1
            continue
        heads[cursor] = head + 1
        if removed[edge] or support[edge] != cursor:
            continue
        if cursor + 2 > k:
            k = cursor + 2
        truss[edge] = k
        removed[edge] = 1
        remaining -= 1
        u = eu[edge]
        v = ev[edge]
        if degree[u] > degree[v]:
            u, v = v, u
        degree[u] -= 1
        degree[v] -= 1
        # surviving common neighbours, in u's adjacency order; the (u, w)
        # edge's support drops before (v, w)'s, matching the dict path
        edge_of_v = edge_of[v]
        row = incident[u]
        dead = 0
        for uw, w in row:
            if removed[uw]:
                dead += 1
                continue
            vw = edge_of_v.get(w, -1)
            if vw < 0 or removed[vw]:
                continue
            new_support = support[uw] - 1
            support[uw] = new_support
            buckets[new_support].append(uw)
            if new_support < cursor:
                cursor = new_support
            new_support = support[vw] - 1
            support[vw] = new_support
            buckets[new_support].append(vw)
            if new_support < cursor:
                cursor = new_support
        if dead * 2 >= len(row):
            # drop dead entries (order-preserving, so peel order is unchanged)
            incident[u] = [pair for pair in row if not removed[pair[0]]]
    return truss


def csr_k_truss_edges(
    csr: CSRGraph,
    k: int,
    index: Optional[CSREdgeIndex] = None,
    alive: Optional[bytearray] = None,
    truss: Optional[list[int]] = None,
) -> bytearray:
    """Return a per-edge-id mask of the edges in the ``k``-truss.

    An edge belongs to the maximal ``k``-truss iff its truss number is at
    least ``k``; pass a precomputed ``truss`` list (e.g. the memoised full
    decomposition of a frozen graph) to make this a plain O(|E|) filter.
    """
    if index is None:
        index = csr_edge_index(csr)
    if truss is None:
        truss = csr_truss_numbers(csr, index, alive)
    return bytearray(1 if value >= k else 0 for value in truss)
