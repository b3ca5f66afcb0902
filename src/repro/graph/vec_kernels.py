"""Optional numpy-vectorised tier of the CSR kernels.

The pure-python CSR kernels (:mod:`repro.graph.csr`,
:mod:`repro.graph.csr_truss`) pay a Python-level loop iteration per edge
touch.  This module provides vectorised twins for the kernels that dominate
serving traffic and the epoch write path — multi-source BFS, FPA's peel
scalars, edge numbering, edge-support counting, truss peeling, carrying
per-edge values across epochs and the community-index hierarchy layout —
as an *optional* tier:

* numpy is an extra (``pip install -e ".[vec]"``), never a hard
  dependency: without it every entry point below reports unavailable and
  the dispatch sites in ``csr.py`` / ``csr_truss.py`` keep running the
  pure-python kernels;
* ``REPRO_VEC=0`` in the environment is the kill switch (and
  ``REPRO_VEC=1`` the explicit opt-in; by default the tier is on exactly
  when numpy imports), :func:`set_vec_enabled` the programmatic override
  tests use to compare both tiers;
* every kernel is **bit-identical** to its CSR reference: the BFS
  preserves exact discovery order (np.unique's first-occurrence indices,
  re-sorted, reproduce the sequential frontier order), support / truss
  values are order-independent graph invariants, so the
  level-synchronous peel returns exactly what the sequential bucket
  queue returns, component labels are ranked by min member index,
  which is the sequential sweep's first-seen order, and peel scalars are
  exact integer counts.

The kernels read the CSR's ``indptr`` / ``indices`` buffers through
``np.frombuffer`` — zero-copy whether the buffers are private ``array``
objects or read-only shared-memory views (:mod:`repro.graph.shm`), which
is what makes this tier compose with attached snapshots: N worker
processes BFS over literally the same bytes.
"""

from __future__ import annotations

import os
from array import array
from typing import Optional

from .graph import GraphError

__all__ = [
    "numpy_available",
    "vec_enabled",
    "set_vec_enabled",
    "vec_multi_source_bfs",
    "vec_peel_scalars",
    "vec_edge_numbering",
    "vec_edge_support",
    "vec_carry_edge_values",
    "vec_truss_numbers",
    "vec_hierarchy_layout",
]

_numpy = None
_numpy_missing = False

#: programmatic override: None = decide from env + availability
_override: Optional[bool] = None


def _np():
    """Import numpy lazily; remember a failure so we probe only once."""
    global _numpy, _numpy_missing
    if _numpy is None and not _numpy_missing:
        try:
            import numpy
        except ImportError:
            _numpy_missing = True
        else:
            _numpy = numpy
    return _numpy


def numpy_available() -> bool:
    """Return ``True`` when the optional numpy extra is importable."""
    return _np() is not None


def vec_enabled() -> bool:
    """Should the dispatch sites route to the vectorised tier?

    Priority: :func:`set_vec_enabled` override, then the ``REPRO_VEC``
    environment switch (``0``/``false``/``off`` disables, anything else
    enables *if numpy imports*), then plain availability.
    """
    if _override is not None:
        return _override and numpy_available()
    env = os.environ.get("REPRO_VEC")
    if env is not None and env.strip().lower() in ("0", "false", "off", "no"):
        return False
    return numpy_available()


def set_vec_enabled(value: Optional[bool]) -> None:
    """Force the tier on/off (tests); ``None`` restores auto-detection."""
    global _override
    _override = value


# ----------------------------------------------------------------------------
# zero-copy views of the CSR buffers
# ----------------------------------------------------------------------------


def _int_dtype(np, buf):
    return np.dtype(f"i{buf.itemsize}")


def _csr_arrays(csr):
    """``(indptr, indices)`` as int64-ish numpy views, cached on the CSR."""
    cached = csr._np_cache
    if cached is None:
        np = _np()
        indptr = np.frombuffer(csr.indptr, dtype=_int_dtype(np, csr.indptr))
        indices = np.frombuffer(csr.indices, dtype=_int_dtype(np, csr.indices))
        cached = (indptr, indices)
        csr._np_cache = cached
    return cached


def _as_long_array(np, values) -> array:
    """A numpy integer vector as an ``array("l")`` (the CSR tables' typecode)."""
    return array("l", np.ascontiguousarray(values, dtype=f"i{array('l').itemsize}").tobytes())


def _alive_mask(np, alive, n):
    if alive is None:
        return None
    return np.frombuffer(alive, dtype=np.uint8).astype(bool)


# ----------------------------------------------------------------------------
# multi-source BFS
# ----------------------------------------------------------------------------


def vec_multi_source_bfs(csr, sources, alive=None):
    """Vectorised twin of :func:`repro.graph.csr.csr_multi_source_bfs`.

    Returns the same ``(dist, order)`` lists, including the exact
    discovery order: within a level, candidates are gathered in frontier
    × adjacency order and deduplicated to their first occurrence, which
    is precisely the order the sequential FIFO queue discovers them in.
    """
    np = _np()
    if not sources:
        raise GraphError("csr_multi_source_bfs needs at least one source")
    n = csr.number_of_nodes()
    indptr, indices = _csr_arrays(csr)
    alive_np = _alive_mask(np, alive, n)

    dist = np.full(n, -1, dtype=np.int64)
    seeds = []
    for source in sources:
        if alive is not None and not alive[source]:
            raise GraphError(f"source node {csr.node_list[source]!r} is not alive")
        if dist[source] == -1:
            dist[source] = 0
            seeds.append(source)
    frontier = np.asarray(seeds, dtype=np.int64)
    order_parts = [frontier]
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        # gather every frontier row, in frontier-then-adjacency order
        ends = counts.cumsum()
        positions = np.repeat(starts - (ends - counts), counts) + np.arange(total)
        candidates = indices[positions]
        fresh = dist[candidates] == -1
        if alive_np is not None:
            fresh &= alive_np[candidates]
        candidates = candidates[fresh]
        if not candidates.size:
            break
        # first-occurrence dedupe that preserves candidate order: unique()
        # returns the first index of each value (values sorted); re-sorting
        # those indices restores the sequential discovery order
        _, first = np.unique(candidates, return_index=True)
        frontier = candidates[np.sort(first)]
        dist[frontier] = level
        order_parts.append(frontier)
    order = np.concatenate(order_parts) if len(order_parts) > 1 else order_parts[0]
    return dist.tolist(), order.tolist()


# ----------------------------------------------------------------------------
# peel scalars (FPA's layer prune)
# ----------------------------------------------------------------------------


def _forward_edges(csr):
    """Every edge once as ``(u, v)`` int64 columns with ``u < v``, cached on the CSR."""
    cached = csr._np_edges
    if cached is None:
        np = _np()
        indptr, indices = _csr_arrays(csr)
        src = np.repeat(np.arange(csr.number_of_nodes(), dtype=np.int64), np.diff(indptr))
        forward = src < indices
        cached = (src[forward], indices[forward].astype(np.int64))
        csr._np_edges = cached
    return cached


def vec_peel_scalars(csr, order, size, internal, degree_sum):
    """Community scalars after each removal of a fixed peel ``order``.

    The community is an adjacency-closed node set with scalars ``size``,
    ``internal`` (edges) and ``degree_sum``; ``order`` lists the members
    removed, first to last.  Returns ``(sizes, internals, degree_sums)``,
    each of length ``len(order) + 1``; entry ``i`` describes the community
    after ``i`` removals.  Give node ``order[r]`` rank ``r`` and every other
    node rank ``len(order)``: removal ``r`` loses exactly the edges whose
    lower-ranked endpoint is ``order[r]``, so one ``bincount`` of
    ``min(rank[u], rank[v])`` over the forward edges and a ``cumsum`` give
    every count.  Edges of other components never rank below ``len(order)``
    and drop out.  All counts are exact integers (floats below 2**53).
    """
    np = _np()
    count = len(order)
    peel = np.asarray(order, dtype=np.int64)
    rank = np.full(csr.number_of_nodes(), count, dtype=np.int64)
    rank[peel] = np.arange(count)
    eu, ev = _forward_edges(csr)
    lost = np.bincount(np.minimum(rank[eu], rank[ev]), minlength=count + 1)[:count]
    indptr, _ = _csr_arrays(csr)
    sizes = size - np.arange(count + 1, dtype=np.int64)
    internals = np.empty(count + 1, dtype=np.float64)
    internals[0] = internal
    internals[1:] = internal - np.cumsum(lost)
    degree_sums = np.empty(count + 1, dtype=np.float64)
    degree_sums[0] = degree_sum
    degree_sums[1:] = degree_sum - np.cumsum(indptr[peel + 1] - indptr[peel])
    return sizes, internals, degree_sums


# ----------------------------------------------------------------------------
# edge numbering and edge support (triangle counts)
# ----------------------------------------------------------------------------


def vec_edge_numbering(csr, index):
    """Vectorised :class:`~repro.graph.csr_truss.CSREdgeIndex` numbering.

    Forward positions (``row < neighbour``) get sequential ids; back
    positions resolve through an argsort of the forward ``eu * n + ev``
    keys (CSR rows are in insertion order, not sorted).  Returns ``(eu,
    ev, edge_id)`` as ``array("l")`` and caches the key table on ``index``.
    """
    np = _np()
    n = csr.number_of_nodes()
    indptr, indices = _csr_arrays(csr)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = indices.astype(np.int64)
    forward = src < dst
    eu, ev = src[forward], dst[forward]
    keys = eu * n + ev
    key_order = np.argsort(keys, kind="stable")
    sorted_keys = keys[key_order]
    edge_id = np.empty(dst.size, dtype=np.int64)
    edge_id[forward] = np.arange(eu.size)
    back = ~forward
    edge_id[back] = key_order[np.searchsorted(sorted_keys, dst[back] * n + src[back])]
    _vec_cache(index)["edges"] = (eu, ev, sorted_keys, key_order)
    return _as_long_array(np, eu), _as_long_array(np, ev), _as_long_array(np, edge_id)


def _vec_cache(index):
    """The per-edge-index cache dict for the numpy structures below."""
    cache = index._vec_cache
    if cache is None:
        cache = index._vec_cache = {}
    return cache


def _edge_data(np, csr, index):
    """``(eu, ev, sorted keys, ids by key)``; a python-tier index is renumbered once."""
    cache = _vec_cache(index)
    if "edges" not in cache:
        vec_edge_numbering(csr, index)
    return cache["edges"]


#: pair-generation chunk bound — caps transient memory of the triangle sweep
_TRIANGLE_CHUNK = 1 << 22


def _triangle_data(np, csr, index):
    """Every triangle of the *full* graph as three edge-id columns.

    Built once per edge index with the same (degree, index)-rank
    orientation the python kernel uses: each node lists only its
    higher-ranked neighbours, each triangle is generated exactly once at
    its lowest-ranked corner, and the third side is resolved through the
    sorted edge-key table.  Alive masks are applied by the callers as a
    filter over the cached list (a triangle survives iff all three edges
    do), so the sweep never reruns per query.
    """
    cache = _vec_cache(index)
    cached = cache.get("triangles")
    if cached is not None:
        return cached
    n = csr.number_of_nodes()
    indptr, indices = _csr_arrays(csr)
    _, _, sorted_keys, ids_by_key = _edge_data(np, csr, index)
    deg = (indptr[1:] - indptr[:-1]).astype(np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    edge_id = np.frombuffer(index.edge_id, dtype=_int_dtype(np, index.edge_id))
    # forward adjacency: keep only the higher-ranked endpoint of every
    # directed position, grouped by source and sorted by neighbour rank
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    keep = rank[indices] > rank[src]
    fw_src = src[keep]
    fw_dst = indices[keep].astype(np.int64)
    fw_eid = edge_id[keep].astype(np.int64)
    order = np.lexsort((rank[fw_dst], fw_src))
    fw_src = fw_src[order]
    fw_dst = fw_dst[order]
    fw_eid = fw_eid[order]
    row_len = np.bincount(fw_src, minlength=n)
    row_start = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(row_len[:-1], out=row_start[1:])
    p = np.arange(fw_src.size, dtype=np.int64)
    # entry at local offset i of a length-f row pairs with its f-1-i successors
    k = row_len[fw_src] - 1 - (p - row_start[fw_src])
    cum = k.cumsum()
    total = int(cum[-1]) if k.size else 0
    parts_uv, parts_uw, parts_vw = [], [], []
    start_entry = 0
    done = 0
    while done < total:
        stop_entry = int(np.searchsorted(cum, done + _TRIANGLE_CHUNK, side="right"))
        stop_entry = max(stop_entry, start_entry + 1)
        k_c = k[start_entry:stop_entry]
        tot_c = int(k_c.sum())
        if tot_c:
            ends_c = k_c.cumsum()
            within = np.arange(tot_c, dtype=np.int64) - np.repeat(ends_c - k_c, k_c)
            left = np.repeat(p[start_entry:stop_entry], k_c)
            right = left + 1 + within
            v = fw_dst[left]
            w = fw_dst[right]
            keys = np.minimum(v, w) * n + np.maximum(v, w)
            vw_ids, found = _lookup_edges(np, sorted_keys, ids_by_key, keys)
            parts_uv.append(fw_eid[left][found])
            parts_uw.append(fw_eid[right][found])
            parts_vw.append(vw_ids[found])
        start_entry = stop_entry
        done += tot_c
    if parts_uv:
        cached = (
            np.concatenate(parts_uv),
            np.concatenate(parts_uw),
            np.concatenate(parts_vw),
        )
    else:
        empty = np.empty(0, dtype=np.int64)
        cached = (empty, empty, empty)
    cache["triangles"] = cached
    return cached


def _incidence_data(np, csr, index):
    """Edge-id → triangle-id incidence as a CSR, cached on the edge index."""
    cache = _vec_cache(index)
    cached = cache.get("incidence")
    if cached is None:
        t_uv, t_uw, t_vw = _triangle_data(np, csr, index)
        m = index.num_edges
        edge_col = np.concatenate((t_uv, t_uw, t_vw))
        tri_col = np.tile(np.arange(t_uv.size, dtype=np.int64), 3)
        inc_tri = tri_col[np.argsort(edge_col, kind="stable")]
        inc_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_col, minlength=m), out=inc_ptr[1:])
        cached = (inc_ptr, inc_tri)
        cache["incidence"] = cached
    return cached


def _lookup_edges(np, sorted_keys, ids_by_key, keys):
    """Map undirected edge keys to edge ids (-1 when the edge is absent)."""
    slots = np.searchsorted(sorted_keys, keys)
    slots_clipped = np.minimum(slots, len(sorted_keys) - 1) if len(sorted_keys) else slots
    found = (
        (slots < len(sorted_keys)) & (sorted_keys[slots_clipped] == keys)
        if len(sorted_keys)
        else np.zeros(len(keys), dtype=bool)
    )
    ids = np.where(found, ids_by_key[slots_clipped], -1)
    return ids, found


def _expand_rows(np, indptr, nodes):
    """Concatenate the adjacency rows of ``nodes``; returns (owner, position)."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ends = counts.cumsum()
    positions = np.repeat(starts - (ends - counts), counts) + np.arange(total)
    owners = np.repeat(np.arange(len(nodes)), counts)
    return owners, positions


def vec_edge_support(csr, index, alive=None):
    """Vectorised twin of :func:`repro.graph.csr_truss.csr_edge_support`.

    Support values are triangle counts of the alive-induced subgraph — an
    order-free invariant — so this is a bincount over the cached triangle
    list (:func:`_triangle_data`): a triangle survives an alive mask iff
    all three of its edges do.  Edges with a dead endpoint get ``-1``,
    exactly like the reference.
    """
    np = _np()
    m = index.num_edges
    if m == 0:
        return []
    n = csr.number_of_nodes()
    t_uv, t_uw, t_vw = _triangle_data(np, csr, index)
    alive_np = _alive_mask(np, alive, n)
    if alive_np is None:
        support = np.bincount(np.concatenate((t_uv, t_uw, t_vw)), minlength=m)
    else:
        eu, ev, _, _ = _edge_data(np, csr, index)
        edge_alive = alive_np[eu] & alive_np[ev]
        # a triangle's three edges are alive iff its three nodes are
        tri_ok = edge_alive[t_uv] & edge_alive[t_uw] & edge_alive[t_vw]
        support = np.bincount(
            np.concatenate((t_uv[tri_ok], t_uw[tri_ok], t_vw[tri_ok])), minlength=m
        )
        support[~edge_alive] = -1
    return support.tolist()


def vec_carry_edge_values(old_index, old_to_new, csr, index, values, patch):
    """Map per-edge-id ``values`` of an older snapshot onto ``index``'s ids.

    ``old_to_new`` gives each old node position its position in ``csr``
    (``-1`` when the node is gone); old edges whose endpoints both survive
    and are still adjacent keep their value, found with one ``searchsorted``
    over the new edge keys.  ``patch`` holds ``(u, v, value)`` triples in new
    positions that overwrite the carried values (edges absent before, or
    whose value changed); edges neither carried nor patched read ``-1``.
    """
    np = _np()
    m = index.num_edges
    if m == 0:
        return []
    n = csr.number_of_nodes()
    _, _, sorted_keys, ids_by_key = _edge_data(np, csr, index)
    carried = np.full(m, -1, dtype=np.int64)
    mapping = np.asarray(old_to_new, dtype=np.int64)
    a = mapping[np.frombuffer(old_index.eu, dtype=_int_dtype(np, old_index.eu))]
    b = mapping[np.frombuffer(old_index.ev, dtype=_int_dtype(np, old_index.ev))]
    keep = (a >= 0) & (b >= 0)
    a, b = a[keep], b[keep]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    ids, found = _lookup_edges(np, sorted_keys, ids_by_key, keys)
    carried[ids[found]] = np.asarray(values, dtype=np.int64)[keep][found]
    if patch:
        a, b, patched = (np.asarray(column, dtype=np.int64) for column in zip(*patch))
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        carried[_lookup_edges(np, sorted_keys, ids_by_key, keys)[0]] = patched
    return carried.tolist()


# ----------------------------------------------------------------------------
# truss peeling
# ----------------------------------------------------------------------------


def vec_truss_numbers(csr, index, alive=None, support=None):
    """Vectorised twin of :func:`repro.graph.csr_truss.csr_truss_numbers`.

    Level-synchronous peel over the cached triangle list: every alive edge
    at the current support level is removed in one round, its triangles
    are read off the edge → triangle incidence (no per-round neighbour
    expansion), and the surviving partner edges lose one support per
    broken triangle.  Only edges decremented in a round can join the next
    sub-round's frontier, so the scan cost per sub-round is proportional
    to the decrement set, not ``m``.  Triangles whose edges are peeled in the
    same round are settled with the classic tie-break (the lowest peeled
    edge id owns the triangle; partners peeled alongside never get
    decremented), which reproduces the sequential bucket queue's values
    exactly — truss numbers are order-independent, only the *work
    schedule* differs.  A ``support`` seed (what :func:`vec_edge_support`
    would return) becomes the initial support array.
    """
    np = _np()
    m = index.num_edges
    if m == 0:
        return []
    if support is None:
        support = vec_edge_support(csr, index, alive)
    support = np.array(support, dtype=np.int64)
    t_uv, t_uw, t_vw = _triangle_data(np, csr, index)
    inc_ptr, inc_tri = _incidence_data(np, csr, index)

    truss = np.full(m, -1, dtype=np.int64)
    peeled = support < 0  # dead edges never enter the peel
    remaining = int(m - peeled.sum())
    level = 0
    pending = None  # edges decremented last round — the only new-frontier candidates
    while remaining:
        if pending is not None:
            cand = pending[~peeled[pending] & (support[pending] <= level)]
            pending = None
            if not cand.size:
                continue  # level exhausted; fall through to the jump scan
            frontier = np.unique(cand)
        else:
            # jump straight to the next occupied support level (supports are
            # floored at the previous level, so this never moves backwards)
            alive_idx = np.nonzero(~peeled)[0]
            alive_support = support[alive_idx]
            level = int(alive_support.min())
            frontier = alive_idx[alive_support == level]
        truss[frontier] = level + 2
        in_frontier = np.zeros(m, dtype=bool)
        in_frontier[frontier] = True
        owners, positions = _expand_rows(np, inc_ptr, frontier)
        if positions.size:
            tris = inc_tri[positions]
            e_ids = frontier[owners]
            a, b, c = t_uv[tris], t_uw[tris], t_vw[tris]
            partner1 = np.where(a == e_ids, b, a)
            partner2 = np.where(c == e_ids, b, c)
            # the triangle only still exists if neither partner was peeled
            # in an earlier round
            keep = ~peeled[partner1] & ~peeled[partner2]
            e_ids = e_ids[keep]
            partner1 = partner1[keep]
            partner2 = partner2[keep]
            if e_ids.size:
                p1_f = in_frontier[partner1]
                p2_f = in_frontier[partner2]
                # same-round settlement: the lowest frontier edge of each
                # triangle owns it; co-peeled partners are never decremented
                lowest = (~p1_f | (e_ids < partner1)) & (~p2_f | (e_ids < partner2))
                dec = np.concatenate(
                    (partner1[lowest & ~p1_f], partner2[lowest & ~p2_f])
                )
                if dec.size:
                    support -= np.bincount(dec, minlength=m)
                    # supports never sink below the current level: the
                    # sequential peel assigns those edges this same truss
                    # value via its cursor rollback
                    targets = np.unique(dec)
                    support[targets] = np.maximum(support[targets], level)
                    pending = targets
        peeled |= in_frontier
        remaining -= int(frontier.size)
    return truss.tolist()


# ----------------------------------------------------------------------------
# community-index hierarchy layout
# ----------------------------------------------------------------------------


def _link(np, parent, u, v):
    """Merge the components joined by edges ``(u, v)``; returns (parent, rounds).

    ``parent`` points every node at its root, the minimum node of its
    tree.  Each round hooks the larger root of every crossing edge onto the
    smaller one and pointer-jumps the forest flat again, so roots stay
    minima; only edges that crossed can cross again.
    """
    rounds = 0
    while u.size:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        if not cross.any():
            break
        rounds += 1
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    return parent, rounds


def _threshold_levels(np, n, eu, ev, node_value, edge_value, low):
    """``(labels, count)`` per level ``k = low..top`` of a threshold family.

    Level ``k`` keeps the nodes with ``node_value >= k`` and the edges with
    ``edge_value >= k``.  Levels are linked top-down, each seeded with the
    forest above and fed only its own new edges.  Labels rank components
    by min member index (a sweep's first-seen order), -1 off the level.
    """
    ids = np.arange(n, dtype=np.int64)
    parent = ids.copy()
    by_value = np.argsort(edge_value, kind="stable")
    sorted_values = edge_value[by_value]
    levels, hi = [], len(by_value)
    for k in range(max(low, int(node_value.max()) if n else low), low - 1, -1):
        lo = int(np.searchsorted(sorted_values, k))
        parent, _ = _link(np, parent, eu[by_value[lo:hi]], ev[by_value[lo:hi]])
        hi = lo
        alive = node_value >= k
        roots = alive & (parent == ids)
        rank = np.cumsum(roots) - 1
        levels.append((np.where(alive, rank[parent], -1), int(roots.sum())))
    return levels[::-1]


def _laminar_layout(np, n, levels):
    """``(order, pos, ptr, starts, ends)`` of one laminar family.

    A stable ``lexsort`` over the labels (coarsest level primary, ties by
    node index) gives the order; each level's windows come from
    ``minimum/maximum.at`` over positions, ordered by start.
    """
    order = np.lexsort([label for label, _ in reversed(levels)])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    ptr, starts, ends = [0], [], []
    for label, count in levels:
        member = label >= 0
        component, where = label[member], pos[member]
        lo = np.full(count, n, dtype=np.int64)
        hi = np.zeros(count, dtype=np.int64)
        np.minimum.at(lo, component, where)
        np.maximum.at(hi, component, where + 1)
        if (hi - lo != np.bincount(component, minlength=count)).any():  # pragma: no cover
            raise GraphError("community hierarchy is not laminar; index build aborted")
        by_start = np.argsort(lo)
        starts.append(lo[by_start])
        ends.append(hi[by_start])
        ptr.append(ptr[-1] + count)
    regions = (order, pos, ptr, np.concatenate(starts), np.concatenate(ends))
    return tuple(_as_long_array(np, values) for values in regions)


def _level_members(np, label, count):
    """One level's components as ascending node-index lists."""
    order = np.argsort(label, kind="stable")
    bounds = np.searchsorted(label[order], np.arange(count + 1)).tolist()
    members = order.tolist()
    return [members[a:b] for a, b in zip(bounds, bounds[1:])]


def vec_hierarchy_layout(csr, index, core, truss):
    """Vectorised twin of :func:`repro.graph.index._hierarchy_layout`.

    Returns ``(inc_max, core_members, core_counts, truss_counts,
    core_regions, truss_regions)``, byte-identical to the pure-python build.
    """
    np = _np()
    n = csr.number_of_nodes()
    eu, ev, _, _ = _edge_data(np, csr, index)
    core_np = np.asarray(core, dtype=np.int64)
    truss_np = np.asarray(truss, dtype=np.int64)
    inc_max = np.ones(n, dtype=np.int64)  # 1 = isolated, not even in the 2-truss
    np.maximum.at(inc_max, eu, truss_np)
    np.maximum.at(inc_max, ev, truss_np)
    core_levels = _threshold_levels(np, n, eu, ev, core_np, np.minimum(core_np[eu], core_np[ev]), 0)
    # truss level 1 keeps every node and edge: the plain components
    truss_levels = _threshold_levels(np, n, eu, ev, inc_max, truss_np, 1)
    families = (core_levels, truss_levels)
    members = [_level_members(np, label, count) for label, count in core_levels[1:]]
    counts = [[count for _, count in levels] for levels in families]
    regions = [_laminar_layout(np, n, levels) for levels in families]
    return (_as_long_array(np, inc_max), members, *counts, *regions)
