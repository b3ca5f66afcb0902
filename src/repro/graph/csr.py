"""Array-backed CSR fast path for the hot peeling kernels.

The dict-of-dicts :class:`~repro.graph.graph.Graph` is the friendly,
mutable reference representation, but every edge touch pays a Python hash
lookup.  This module provides the compact, immutable counterpart:

* :class:`CSRGraph` — the classic compressed-sparse-row layout
  (``indptr`` / ``indices`` / ``weights``) over ``array`` primitives, with a
  node↔index mapping so algorithms can speak integers internally and node
  objects at the API boundary;
* :class:`FrozenGraph` — an immutable :class:`Graph` subclass that carries a
  lazily built :class:`CSRGraph`.  Passing a frozen graph to ``nca`` / ``fpa``
  transparently selects the CSR kernels (see ``repro.core.framework``);
* int-indexed kernels for the operations the peeling loops spend their time
  in: multi-source BFS, connected components, shortest paths, articulation
  points (Hopcroft–Tarjan) and coreness peeling.

Every kernel accepts an optional ``alive`` byte mask so the peeling loops can
restrict them to the surviving induced subgraph without rebuilding anything.
The adjacency order of the CSR arrays is exactly the insertion order of the
source :class:`Graph`, which is what makes the dict and CSR code paths of
NCA / FPA produce bit-identical results (same traversal orders, same
tie-breaks).
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from .graph import Graph, GraphError, Node

__all__ = [
    "CSRGraph",
    "FrozenGraph",
    "SharedCache",
    "freeze",
    "csr_multi_source_bfs",
    "csr_connected_component",
    "csr_connected_components",
    "csr_shortest_path",
    "csr_articulation_points",
    "csr_core_numbers",
]


class CSRGraph:
    """Immutable compressed-sparse-row view of an undirected graph.

    Node ``i`` corresponds to ``node_list[i]`` (the source graph's insertion
    order); its neighbours are ``indices[indptr[i]:indptr[i + 1]]`` in the
    source graph's adjacency insertion order, with matching ``weights``.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "node_list",
        "index_of",
        "num_edges",
        "total_weight",
        "_adj_lists",
        "_np_cache",
        "_np_edges",
    )

    def __init__(
        self,
        indptr: array,
        indices: array,
        weights: array,
        node_list: list[Node],
        num_edges: int,
        total_weight: float,
        index_of: Optional[dict[Node, int]] = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.node_list = node_list
        self.index_of: dict[Node, int] = (
            index_of if index_of is not None else {node: i for i, node in enumerate(node_list)}
        )
        self.num_edges = num_edges
        self.total_weight = total_weight
        self._adj_lists: Optional[list[list[int]]] = None
        self._np_cache = None  # numpy views of indptr/indices (vec_kernels)
        self._np_edges = None  # numpy forward-edge endpoints (vec_kernels)

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Build a CSR snapshot of ``graph`` preserving its iteration orders."""
        node_list = list(graph.iter_nodes())
        index_of = {node: i for i, node in enumerate(node_list)}
        n = len(node_list)
        indptr = array("l", [0] * (n + 1))
        indices = array("l")
        weights = array("d")
        position = 0
        for i, node in enumerate(node_list):
            for neighbor, weight in graph.adjacency(node).items():
                indices.append(index_of[neighbor])
                weights.append(weight)
                position += 1
            indptr[i + 1] = position
        return cls(
            indptr=indptr,
            indices=indices,
            weights=weights,
            node_list=node_list,
            num_edges=graph.number_of_edges(),
            total_weight=graph.total_edge_weight(),
            index_of=index_of,
        )

    # ------------------------------------------------------------------
    # queries (index based)
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self.node_list)

    def number_of_edges(self) -> int:
        """Return ``|E|``."""
        return self.num_edges

    def degree(self, index: int) -> int:
        """Return the degree of node ``index``."""
        return self.indptr[index + 1] - self.indptr[index]

    def neighbors(self, index: int) -> array:
        """Return the neighbour indices of node ``index`` (a zero-copy-ish slice)."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def adjacency_lists(self) -> list[list[int]]:
        """Return (and cache) the adjacency as a list of int lists.

        ``array`` keeps the memory footprint minimal, but Python-level loops
        iterate plain lists of cached small ints noticeably faster; the hot
        kernels below all run on this view.
        """
        if self._adj_lists is None:
            indptr = self.indptr
            indices = self.indices
            self._adj_lists = [
                list(indices[indptr[i] : indptr[i + 1]]) for i in range(len(self.node_list))
            ]
        return self._adj_lists

    def iter_neighbors(self, index: int) -> Iterator[int]:
        """Iterate the neighbour indices of node ``index``."""
        indices = self.indices
        for pos in range(self.indptr[index], self.indptr[index + 1]):
            yield indices[pos]

    def indices_for(self, nodes: Iterable[Node]) -> list[int]:
        """Map node objects to CSR indices, raising on unknown nodes."""
        index_of = self.index_of
        result = []
        for node in nodes:
            if node not in index_of:
                raise GraphError(f"node {node!r} is not in the graph")
            result.append(index_of[node])
        return result

    def nodes_for(self, indices: Iterable[int]) -> list[Node]:
        """Map CSR indices back to node objects."""
        node_list = self.node_list
        return [node_list[i] for i in indices]

    def __getstate__(self):
        """Pickle only the canonical arrays; caches are rebuilt on demand.

        Keeps the payload minimal when the batched runner ships a frozen
        graph to ``concurrent.futures`` process workers.  A CSR whose
        buffers are shared-memory views (see :mod:`repro.graph.shm`)
        pickles as plain private arrays — the zero-copy re-attach path is
        :meth:`AttachedFrozenGraph.__reduce__`, not this one.
        """
        return (
            self.indptr if isinstance(self.indptr, array) else array("l", self.indptr),
            self.indices if isinstance(self.indices, array) else array("l", self.indices),
            self.weights if isinstance(self.weights, array) else array("d", self.weights),
            self.node_list,
            self.num_edges,
            self.total_weight,
        )

    def __setstate__(self, state) -> None:
        indptr, indices, weights, node_list, num_edges, total_weight = state
        self.__init__(indptr, indices, weights, node_list, num_edges, total_weight)

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.number_of_nodes()}, |E|={self.num_edges})"


class SharedCache:
    """The per-snapshot memo dict, with **single-flight** computation.

    Plain dict access (``cache[key]``, ``key in cache``, iteration) behaves
    like the dict this used to be, so existing check-then-store callers and
    introspection keep working.  :meth:`memo` is the concurrency-aware entry
    point: when several threads (e.g. inline replicas of one serving shard
    absorbing a cold burst) ask for the same query-independent decomposition
    at once, exactly one computes it and the rest wait for that value — the
    cold cost of a decomposition is 1× regardless of replica count, instead
    of "1× per replica that raced past the same ``key not in cache`` check".

    A compute that raises wakes the waiters, and the first of them retries
    as the new owner (the failure is not cached).  Pickling ships only the
    computed values — locks and in-flight state are rebuilt empty, which is
    what lets a frozen snapshot still travel to process-pool workers.
    """

    __slots__ = ("_data", "_lock", "_inflight")

    def __init__(self, data: Optional[dict] = None) -> None:
        self._data: dict = dict(data) if data else {}
        self._lock = threading.Lock()
        self._inflight: dict = {}  # key -> threading.Event of the computing thread

    # -- the dict surface the existing memo sites and tests use -----------
    def __contains__(self, key) -> bool:
        return key in self._data

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key, default=None):
        return self._data.get(key, default)

    def __iter__(self):
        return iter(tuple(self._data))

    def __len__(self) -> int:
        return len(self._data)

    def keys(self):
        return tuple(self._data)

    # -- single flight -----------------------------------------------------
    def memo(self, key, compute):
        """Return ``cache[key]``, computing it at most once across threads.

        ``compute`` is a zero-argument callable.  The first caller of a
        missing ``key`` becomes the owner and runs ``compute()`` outside the
        lock; concurrent callers of the same ``key`` block until the value
        lands and then return it without recomputing.
        """
        while True:
            with self._lock:
                if key in self._data:
                    return self._data[key]
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    owner = True
                else:
                    owner = False
            if not owner:
                event.wait()
                continue  # value landed — or the owner failed and we retry
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()
                raise
            with self._lock:
                self._data[key] = value
                self._inflight.pop(key, None)
            event.set()
            return value

    # -- pickling (process-pool workers receive the values, fresh locks) ---
    def __getstate__(self) -> dict:
        return dict(self._data)

    def __setstate__(self, data: dict) -> None:
        self.__init__(data)

    def __repr__(self) -> str:
        return f"SharedCache({len(self._data)} entries)"


#: Guards the lazy creation of a snapshot's SharedCache (not its contents).
_SHARED_CACHE_INIT_LOCK = threading.Lock()


class FrozenGraph(Graph):
    """An immutable :class:`Graph` carrying a cached :class:`CSRGraph`.

    All read operations behave exactly like the dict-backed graph (metrics,
    baselines and reporting keep working unchanged); mutators raise
    :class:`GraphError`.  The peeling algorithms detect frozen inputs and
    switch to the CSR kernels.
    """

    __slots__ = ("_csr", "_cache")

    def __init__(
        self,
        edges: Optional[Iterable[tuple]] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> None:
        super().__init__(edges=edges, nodes=nodes)
        self._csr: Optional[CSRGraph] = None
        self._cache: Optional[SharedCache] = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "FrozenGraph":
        """Snapshot ``graph`` into a frozen copy (original stays mutable)."""
        frozen = cls.__new__(cls)
        frozen._adj = {node: dict(nbrs) for node, nbrs in graph._adj.items()}
        frozen._num_edges = graph.number_of_edges()
        frozen._total_weight = graph.total_edge_weight()
        frozen._csr = None
        frozen._cache = None
        return frozen

    @property
    def csr(self) -> CSRGraph:
        """Return the CSR view, building it on first access."""
        if self._csr is None:
            self._csr = CSRGraph.from_graph(self)
        return self._csr

    def shared_cache(self) -> SharedCache:
        """Return the mutable memo cache tied to this immutable snapshot.

        Because a frozen graph can never change, query-independent derived
        structure (core decompositions, k-edge-connected partitions, ...) can
        be computed once and reused by every query of a batch.  Keys are
        namespaced tuples like ``("kcore-structure", k)``; use
        :meth:`SharedCache.memo` so concurrent callers of one key (inline
        replicas absorbing a cold burst) single-flight the computation.
        """
        if self._cache is None:
            # double-checked init: concurrent first callers must agree on ONE
            # cache object or its per-key in-flight guards would not be shared
            with _SHARED_CACHE_INIT_LOCK:
                if self._cache is None:
                    self._cache = SharedCache()
        return self._cache

    def freeze(self) -> "FrozenGraph":
        """Already frozen; return self."""
        return self

    def without_cache(self) -> "FrozenGraph":
        """Return a view of this snapshot with an *empty* memo cache.

        Structure (adjacency dicts, CSR arrays) is shared with ``self``;
        only the :class:`SharedCache` is dropped.  Used when shipping a
        snapshot to worker processes for an index-backed shard: the index
        segment already carries every decomposition the workers need, so
        pickling warm memo values per worker would duplicate them N times.
        """
        clone = FrozenGraph.__new__(FrozenGraph)
        clone._adj = self._adj
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        clone._csr = self._csr
        clone._cache = None
        return clone

    # -- zero-copy sharing (see repro.graph.shm) -----------------------
    def share(self):
        """Export the CSR arrays into a named shared-memory segment.

        Returns the owner-side :class:`~repro.graph.shm.SharedSnapshot`;
        its ``descriptor`` is the small picklable value worker processes
        hand to :meth:`attach`.  The owner must eventually ``unlink()``
        the returned handle (or use it as a context manager).
        """
        from .shm import share_frozen

        return share_frozen(self)

    @staticmethod
    def attach(descriptor):
        """Map a shared snapshot by descriptor (zero-copy, read-only).

        The returned :class:`~repro.graph.shm.AttachedFrozenGraph` is a
        drop-in frozen graph whose arrays alias the owner's segment.
        Raises :class:`GraphError` when the segment no longer exists.
        """
        from .shm import attach_frozen

        return attach_frozen(descriptor)

    def thaw(self) -> Graph:
        """Return a mutable :class:`Graph` copy."""
        clone = Graph()
        clone._adj = {node: dict(nbrs) for node, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        return clone

    def _immutable(self, operation: str):
        raise GraphError(f"FrozenGraph is immutable; {operation} is not allowed (thaw() first)")

    def add_node(self, node: Node) -> None:  # noqa: D102 - immutability guard
        self._immutable("add_node")

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:  # noqa: D102
        self._immutable("add_edge")

    def remove_edge(self, u: Node, v: Node) -> None:  # noqa: D102
        self._immutable("remove_edge")

    def remove_node(self, node: Node) -> None:  # noqa: D102
        self._immutable("remove_node")

    def __repr__(self) -> str:
        return f"FrozenGraph(|V|={self.number_of_nodes()}, |E|={self.number_of_edges()})"


def freeze(graph: Graph) -> FrozenGraph:
    """Return an immutable CSR-carrying snapshot of ``graph``."""
    if isinstance(graph, FrozenGraph):
        return graph
    return FrozenGraph.from_graph(graph)


# ----------------------------------------------------------------------------
# int-indexed kernels
# ----------------------------------------------------------------------------


def csr_multi_source_bfs(
    csr: CSRGraph,
    sources: Sequence[int],
    alive: Optional[bytearray] = None,
) -> tuple[list[int], list[int]]:
    """Multi-source BFS over indices.

    Returns ``(dist, order)`` where ``dist[i]`` is the minimum hop distance
    from any source (``-1`` if unreachable / dead) and ``order`` lists the
    reached indices in discovery order (sources first, in the given order).

    When the optional numpy tier is installed and enabled (see
    :mod:`repro.graph.vec_kernels`) the frontier expansion is vectorised;
    the returned lists — including the discovery order — are identical.
    """
    from . import vec_kernels

    if vec_kernels.vec_enabled():
        return vec_kernels.vec_multi_source_bfs(csr, sources, alive)
    if not sources:
        raise GraphError("csr_multi_source_bfs needs at least one source")
    n = csr.number_of_nodes()
    dist = [-1] * n
    order: list[int] = []
    for source in sources:
        if alive is not None and not alive[source]:
            raise GraphError(f"source node {csr.node_list[source]!r} is not alive")
        if dist[source] == -1:
            dist[source] = 0
            order.append(source)
    adj = csr.adjacency_lists()
    head = 0
    if alive is None:
        while head < len(order):
            node = order[head]
            head += 1
            next_dist = dist[node] + 1
            for neighbor in adj[node]:
                if dist[neighbor] == -1:
                    dist[neighbor] = next_dist
                    order.append(neighbor)
    else:
        while head < len(order):
            node = order[head]
            head += 1
            next_dist = dist[node] + 1
            for neighbor in adj[node]:
                if dist[neighbor] == -1 and alive[neighbor]:
                    dist[neighbor] = next_dist
                    order.append(neighbor)
    return dist, order


def csr_connected_component(
    csr: CSRGraph, start: int, alive: Optional[bytearray] = None
) -> list[int]:
    """Return the indices of ``start``'s connected component in discovery order."""
    _, order = csr_multi_source_bfs(csr, [start], alive=alive)
    return order


def csr_connected_components(
    csr: CSRGraph, alive: Optional[bytearray] = None
) -> list[list[int]]:
    """Return every connected component (as index lists) in first-seen order."""
    n = csr.number_of_nodes()
    seen = bytearray(n)
    components: list[list[int]] = []
    for start in range(n):
        if seen[start] or (alive is not None and not alive[start]):
            continue
        component = csr_connected_component(csr, start, alive=alive)
        for index in component:
            seen[index] = 1
        components.append(component)
    return components


def csr_shortest_path(
    csr: CSRGraph, source: int, target: int, alive: Optional[bytearray] = None
) -> Optional[list[int]]:
    """Return one unweighted shortest path ``source → target`` as indices.

    Mirrors :func:`repro.graph.traversal.shortest_path`: breadth-first with
    first-found parents, neighbours visited in adjacency order, so both
    backends pick the same path among ties.
    """
    if source == target:
        return [source]
    n = csr.number_of_nodes()
    parent = [-1] * n
    parent[source] = source
    queue = [source]
    head = 0
    adj = csr.adjacency_lists()
    while head < len(queue):
        node = queue[head]
        head += 1
        for neighbor in adj[node]:
            if parent[neighbor] != -1 or (alive is not None and not alive[neighbor]):
                continue
            parent[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    return None


def csr_articulation_points(csr: CSRGraph, alive: Optional[bytearray] = None) -> set[int]:
    """Return the articulation points (as indices) of the alive subgraph.

    Iterative Hopcroft–Tarjan identical in structure to
    :func:`repro.graph.articulation.articulation_points`, but over int arrays:
    discovery / low are flat lists and the DFS stack stores (node, next
    position in the adjacency slice) pairs instead of live iterators.
    """
    n = csr.number_of_nodes()
    adj = csr.adjacency_lists()
    if alive is None:
        alive = b"\x01" * n
    visited = bytearray(n)
    discovery = [0] * n
    low = [0] * n
    parent = [-1] * n
    points: set[int] = set()
    timer = 0

    for root in range(n):
        if visited[root] or not alive[root]:
            continue
        root_children = 0
        visited[root] = 1
        discovery[root] = low[root] = timer
        timer += 1
        # stack of (node, resumable neighbour iterator)
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            parent_of_node = parent[node]
            low_node = low[node]
            for neighbor in neighbors:
                if not alive[neighbor]:
                    continue
                if not visited[neighbor]:
                    parent[neighbor] = node
                    if node == root:
                        root_children += 1
                    visited[neighbor] = 1
                    discovery[neighbor] = low[neighbor] = timer
                    timer += 1
                    stack.append((neighbor, iter(adj[neighbor])))
                    advanced = True
                    break
                if neighbor != parent_of_node and discovery[neighbor] < low_node:
                    low_node = discovery[neighbor]
            low[node] = low_node
            if advanced:
                continue
            stack.pop()
            if stack:
                parent_node = stack[-1][0]
                if low_node < low[parent_node]:
                    low[parent_node] = low_node
                if parent_node != root and low_node >= discovery[parent_node]:
                    points.add(parent_node)
        if root_children >= 2:
            points.add(root)
    return points


def csr_core_numbers(csr: CSRGraph, alive: Optional[bytearray] = None) -> list[int]:
    """Return the core number of every (alive) node, ``-1`` for dead nodes.

    Linear-time bucket peeling (Batagelj & Zaveršnik) over flat arrays — the
    CSR counterpart of :func:`repro.graph.coreness.core_numbers`, which uses a
    lazy-deletion heap on the dict backend.
    """
    n = csr.number_of_nodes()
    indptr = csr.indptr
    adj = csr.adjacency_lists()
    degree = [0] * n
    max_degree = 0
    for i in range(n):
        if alive is not None and not alive[i]:
            degree[i] = -1
            continue
        if alive is None:
            d = indptr[i + 1] - indptr[i]
        else:
            d = sum(1 for neighbor in adj[i] if alive[neighbor])
        degree[i] = d
        if d > max_degree:
            max_degree = d

    # bucket sort nodes by degree
    bucket_start = [0] * (max_degree + 2)
    for i in range(n):
        if degree[i] >= 0:
            bucket_start[degree[i] + 1] += 1
    for d in range(1, max_degree + 2):
        bucket_start[d] += bucket_start[d - 1]
    position = [0] * n
    ordered = [0] * bucket_start[max_degree + 1]
    cursor = list(bucket_start[: max_degree + 1])
    for i in range(n):
        d = degree[i]
        if d < 0:
            continue
        ordered[cursor[d]] = i
        position[i] = cursor[d]
        cursor[d] += 1

    core = list(degree)
    for index in range(len(ordered)):
        node = ordered[index]
        node_degree = core[node]
        for neighbor in adj[node]:
            if core[neighbor] > node_degree:
                # move neighbor one bucket down: swap it with the first node
                # of its current bucket, then shrink that bucket
                neighbor_degree = core[neighbor]
                neighbor_position = position[neighbor]
                first_position = bucket_start[neighbor_degree]
                first_node = ordered[first_position]
                if neighbor != first_node:
                    ordered[neighbor_position] = first_node
                    ordered[first_position] = neighbor
                    position[first_node] = neighbor_position
                    position[neighbor] = first_position
                bucket_start[neighbor_degree] += 1
                core[neighbor] -= 1
    return core
