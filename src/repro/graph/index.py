"""Precomputed community-hierarchy index: community search as window scans.

The ``kc`` / ``kt`` / ``hightruss`` baselines all answer "the connected
k-core/k-truss community containing the query nodes".  Those communities
form two *laminar* families — every connected component of the k-core is
contained in exactly one component of the (k-1)-core, and likewise for
k-truss node components — so the whole hierarchy can be linearised the way
an XPath pre/post-order index linearises a document tree: order the nodes
so that **every community of every level is one contiguous window** of a
single permutation, and record the windows as flat ``(start, end)`` arrays
grouped by level.  A community-containing-v query then becomes

1. ``pos[v]`` — one array lookup,
2. ``bisect`` over the level's window starts — O(log #communities),
3. a window scan to materialise the member set — O(answer size),

with no peeling, no BFS and no dict adjacency at query time.

:func:`build_index` derives everything offline from the existing CSR/vec
kernels (``csr_core_numbers``, ``csr_truss_numbers``); :func:`save_index` /
:func:`load_index` give the index a versioned on-disk format keyed by a
content digest of the dataset (stale indexes are rejected, see
:meth:`CommunityIndex.bind`); :meth:`CommunityIndex.share` packs the flat
arrays into ONE shared-memory segment via the same region layout the PR 6
snapshots use, so every worker-process replica on a host maps one copy.

Parity discipline: :meth:`CommunityIndex.search` replicates the baseline
code paths *exactly* — same validation order, same failure reasons, same
``CommunityResult`` fields — so an index-served answer is bit-identical to
the executed path (the serving benches assert this under
``--parity-only --index require``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import time
from array import array
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any, Optional

from . import vec_kernels
from .csr import CSRGraph, FrozenGraph, csr_connected_components, csr_core_numbers, freeze
from .csr_truss import csr_edge_index, csr_truss_numbers
from .graph import Graph, GraphError, Node

__all__ = [
    "CommunityIndex",
    "build_index",
    "save_index",
    "load_index",
    "attach_index",
    "dataset_digest",
    "default_index_dir",
    "index_path",
    "INDEX_FORMAT_VERSION",
    "INDEX_MODES",
    "INDEX_ALGORITHMS",
    "INDEX_DIR_ENV",
    "INDEX_SEGMENT_TAG",
]

#: bump when the on-disk layout changes; any other version is rejected with
#: a "rebuild" error instead of being misread.
INDEX_FORMAT_VERSION = 3

#: the algorithms an index can serve (everything else takes the executed
#: path).
INDEX_ALGORITHMS = ("kc", "kt", "hightruss", "huang2015", "kecc")

#: serving-side index policy: ``auto`` uses an index when a fresh one exists,
#: ``require`` refuses to build a shard without one, ``off`` never loads one.
INDEX_MODES = ("auto", "require", "off")

#: environment variable naming the directory index files live in.
INDEX_DIR_ENV = "REPRO_INDEX_DIR"

#: default index directory (relative to the working directory).
DEFAULT_INDEX_DIRNAME = ".repro-index"

#: segment-name tag (after ``SEGMENT_PREFIX``) marking index segments, so
#: leak scans that glob the shared prefix cover them while tests can still
#: count snapshot and index segments separately.
INDEX_SEGMENT_TAG = "idx_"

_MAGIC = b"REPROIDX"

#: every flat region of the index uses one typecode (signed long: node
#: indices, permutation positions, window bounds, core/truss levels).
_FIELD_TYPECODE = "l"

#: the flat regions.  ``kecc_label`` holds the per-core-level kecc class
#: labels (``core_kmax * nodes`` longs, level k at offset ``(k-1)*nodes``;
#: -1 = not in the k-core or a partition singleton, -2 = candidate above the
#: cap); ``huang2015`` seeds its phase 1 from the truss windows.
_FIELDS = (
    "node_core",
    "node_truss",
    "core_order",
    "core_pos",
    "core_ptr",
    "core_start",
    "core_end",
    "truss_order",
    "truss_pos",
    "truss_ptr",
    "truss_start",
    "truss_end",
    "kecc_label",
)


def default_index_dir() -> Path:
    """The directory index files live in (``$REPRO_INDEX_DIR`` or a default)."""
    env = os.environ.get(INDEX_DIR_ENV)
    return Path(env) if env else Path(DEFAULT_INDEX_DIRNAME)


def index_path(dataset: str, index_dir: Optional[os.PathLike | str] = None) -> Path:
    """The canonical on-disk location of ``dataset``'s index file."""
    base = Path(index_dir) if index_dir is not None else default_index_dir()
    return base / f"{dataset}.idx"


def _array_bytes(values) -> bytes:
    return values.tobytes()


def dataset_digest(frozen: FrozenGraph) -> str:
    """Content digest of a snapshot: exact CSR bytes plus node identities.

    Any change to the node set, the edge set, weights, or even insertion
    order (which the kernels' tie-breaks observe) changes the digest, so a
    digest match guarantees the index's stored answers are the answers this
    snapshot's kernels would compute.
    """
    csr = frozen.csr
    h = hashlib.sha256()
    h.update(b"repro-dataset-digest-v1\x00")
    h.update(struct.pack(">qq", len(csr.node_list), csr.num_edges))
    h.update(_array_bytes(csr.indptr))
    h.update(_array_bytes(csr.indices))
    h.update(_array_bytes(csr.weights))
    for node in csr.node_list:
        h.update(repr(node).encode("utf-8", "backslashreplace"))
        h.update(b"\x00")
    return h.hexdigest()


# ----------------------------------------------------------------------
# offline build
# ----------------------------------------------------------------------
def _truss_level_components(csr: CSRGraph, edge_id, truss, inc_max, k: int):
    """Connected components of the k-truss, as node-index lists.

    A node belongs to the k-truss iff it keeps at least one incident edge
    with truss number >= k (``inc_max``), and two members are connected
    iff a path of such edges joins them — plain alive-node BFS would be
    wrong here, because two k-truss components may touch through an edge
    that itself did not survive the peel.  First-seen node order, matching
    ``connected_components`` on the filtered subgraph.
    """
    indptr, indices = csr.indptr, csr.indices
    n = len(inc_max)
    seen = bytearray(n)
    components = []
    for start in range(n):
        if seen[start] or inc_max[start] < k:
            continue
        seen[start] = 1
        component = [start]
        head = 0
        while head < len(component):
            i = component[head]
            head += 1
            for pos in range(indptr[i], indptr[i + 1]):
                if truss[edge_id[pos]] >= k:
                    j = indices[pos]
                    if not seen[j]:
                        seen[j] = 1
                        component.append(j)
        components.append(component)
    return components


def _laminar_order(n: int, levels) -> tuple[array, array]:
    """Permutation making every component of every level one contiguous run.

    Each node gets the tuple of its component labels per level (coarsest
    first, ``-1`` where it left the hierarchy); sorting by that tuple
    groups every component — laminarity means all members share their full
    label prefix and nothing outside the component does.
    """
    labels = []
    for components in levels:
        level_label = array(_FIELD_TYPECODE, bytes(0))
        level_label.extend([-1] * n)
        for comp_id, component in enumerate(components):
            for i in component:
                level_label[i] = comp_id
        labels.append(level_label)
    order = array(
        _FIELD_TYPECODE,
        sorted(range(n), key=lambda i: tuple(label[i] for label in labels)),
    )
    pos = array(_FIELD_TYPECODE, [0] * n)
    for p, i in enumerate(order):
        pos[i] = p
    return order, pos


def _level_windows(pos, levels) -> tuple[array, array, array]:
    """Flatten per-level component windows, sorted by start within a level."""
    ptr = array(_FIELD_TYPECODE, [0])
    starts = array(_FIELD_TYPECODE)
    ends = array(_FIELD_TYPECODE)
    for components in levels:
        windows = []
        for component in components:
            lo = min(pos[i] for i in component)
            hi = max(pos[i] for i in component) + 1
            if hi - lo != len(component):  # pragma: no cover - build invariant
                raise GraphError(
                    "community hierarchy is not laminar; index build aborted"
                )
            windows.append((lo, hi))
        windows.sort()
        for lo, hi in windows:
            starts.append(lo)
            ends.append(hi)
        ptr.append(len(starts))
    return ptr, starts, ends


def _inc_max_truss(csr: CSRGraph, edge_id, truss) -> array:
    """Max incident surviving truss per node; 1 = "not even in the 2-truss".

    Isolated nodes are dropped by every k-truss but still belong to the
    plain connected-component level the hightruss fallback uses.
    """
    indptr = csr.indptr
    n = len(csr.node_list)
    inc_max = array(_FIELD_TYPECODE, [1] * n)
    for i in range(n):
        best = 1
        for pos in range(indptr[i], indptr[i + 1]):
            t = truss[edge_id[pos]]
            if t > best:
                best = t
        inc_max[i] = best
    return inc_max


def _hierarchy_layout(csr: CSRGraph, edge_id, core, truss):
    """Per-level components, laminar orders and windows of both families.

    Returns ``(inc_max, core levels 1..kmax as member lists, core counts,
    truss counts, core regions, truss regions)``, as the vec twin does.
    """
    inc_max = _inc_max_truss(csr, edge_id, truss)
    core_levels = []
    for k in range(max(core, default=0) + 1):
        alive = None if k == 0 else bytearray(1 if c >= k else 0 for c in core)
        core_levels.append(csr_connected_components(csr, alive=alive))
    # truss level 0 is the plain connected components (isolated nodes
    # included) — the hightruss fallback's "whole component at level 2";
    # level index k-1 holds the k-truss components for k = 2..kmax.
    truss_levels = [csr_connected_components(csr)]
    for k in range(2, max(inc_max, default=1) + 1):
        truss_levels.append(_truss_level_components(csr, edge_id, truss, inc_max, k))
    regions = []
    for levels in (core_levels, truss_levels):
        order, pos = _laminar_order(len(csr.node_list), levels)
        regions.append((order, pos, *_level_windows(pos, levels)))
    counts = [[len(level) for level in levels] for levels in (core_levels, truss_levels)]
    return (inc_max, core_levels[1:], *counts, *regions)


def _kecc_labels(
    frozen: FrozenGraph, core_levels, cap: int
) -> tuple[array, list[int]]:
    """Flat per-core-level kecc class labels (see ``_FIELDS``).

    ``core_levels`` holds the component member lists of core levels
    1..core_kmax; level ``k`` occupies ``[(k-1)*n, k*n)``.  Each level-k
    core component up to ``cap`` nodes is partitioned into its
    k-edge-connected components (through the memoised baseline partition, so
    a later executed ``kecc`` query reuses the entry); labels are numbered
    canonically — candidates in first-seen (min-member-index) order, classes
    within a candidate by min member index — which makes the numbering a
    pure function of the graph content.
    """
    from ..baselines.kecc import _kecc_partition

    csr = frozen.csr
    node_list = csr.node_list
    index_of = csr.index_of
    n = len(node_list)
    labels = array(_FIELD_TYPECODE, bytes(0))
    counts: list[int] = []
    for level in core_levels:
        level_labels = array(_FIELD_TYPECODE, [-1] * n)
        next_label = 0
        for component in level:
            if len(component) > cap:
                for i in component:
                    level_labels[i] = -2
                continue
            candidate = {node_list[i] for i in component}
            classes = [
                sorted(index_of[node] for node in cls)
                for cls in _kecc_partition(frozen, candidate, len(counts) + 1)
            ]
            classes.sort(key=lambda members: members[0])
            for members in classes:
                for i in members:
                    level_labels[i] = next_label
                next_label += 1
        labels.extend(level_labels)
        counts.append(next_label)
    return labels, counts


def _assemble_index(
    frozen: FrozenGraph,
    core,
    edge_index,
    truss,
    *,
    dataset: str = "?",
    started: Optional[float] = None,
) -> "CommunityIndex":
    """Linearise precomputed decompositions into a :class:`CommunityIndex`.

    ``core`` / ``edge_index`` / ``truss`` are the kernel outputs for
    ``frozen`` — :func:`build_index` derives them from scratch, the epoch
    manager hands in the ones it maintained while applying a delta.
    """
    if started is None:
        started = time.perf_counter()
    from ..baselines.kecc import KECC_APPROXIMATE_ABOVE

    csr = frozen.csr
    node_list = csr.node_list
    if vec_kernels.vec_enabled():
        layout = vec_kernels.vec_hierarchy_layout(csr, edge_index, core, truss)
    else:
        layout = _hierarchy_layout(csr, edge_index.edge_id, core, truss)
    inc_max, core_members, core_counts, truss_counts, core_regions, truss_regions = layout
    kecc_label, kecc_counts = _kecc_labels(frozen, core_members, KECC_APPROXIMATE_ABOVE)
    node_truss = array(_FIELD_TYPECODE, (b if b >= 2 else 2 for b in inc_max))
    regions = (array(_FIELD_TYPECODE, core), node_truss, *core_regions, *truss_regions, kecc_label)

    meta: dict[str, Any] = {
        "format_version": INDEX_FORMAT_VERSION,
        "digest": dataset_digest(frozen),
        "dataset": dataset,
        "nodes": len(node_list),
        "edges": csr.num_edges,
        "core_kmax": max(core, default=0),
        "truss_kmax": max(inc_max, default=1),
        "core_counts": core_counts,
        "truss_counts": truss_counts,
        "kecc_cap": KECC_APPROXIMATE_ABOVE,
        "kecc_counts": list(kecc_counts),
        "build_seconds": time.perf_counter() - started,
    }
    index = CommunityIndex(meta, list(node_list), dict(zip(_FIELDS, regions)))
    index._index_of = csr.index_of
    return index


def build_index(graph: Graph, *, dataset: str = "?") -> "CommunityIndex":
    """Derive the full community-hierarchy index of ``graph`` offline.

    Runs one core decomposition, one truss decomposition (both through the
    CSR kernels, vectorised when the numpy tier is enabled), one component
    sweep per hierarchy level and one kecc partition per small-enough core
    component, then linearises both node families.
    """
    started = time.perf_counter()
    frozen = freeze(graph)
    csr = frozen.csr
    core = csr_core_numbers(csr)
    edge_index = csr_edge_index(csr)
    truss = csr_truss_numbers(csr, edge_index)
    return _assemble_index(
        frozen, core, edge_index, truss, dataset=dataset, started=started
    )


def _rebuild_index(meta, node_list, fields) -> "CommunityIndex":
    """Unpickle target for a non-attached index (plain arrays travel)."""
    return CommunityIndex(meta, node_list, fields)


class CommunityIndex:
    """The loaded (or attached) window index of one dataset.

    ``fields`` holds the flat arrays — plain ``array('l')`` when built or
    loaded from disk, read-only memoryviews into a shared segment when
    attached.  The query surface (:meth:`serves` / :meth:`search`) is the
    same either way.
    """

    __slots__ = ("meta", "node_list", "_fields", "_index_of", "_shm", "_descriptor", "_detached")

    def __init__(
        self,
        meta: dict[str, Any],
        node_list: list[Node],
        fields: Mapping[str, Any],
        *,
        shm=None,
        descriptor=None,
    ) -> None:
        self.meta = meta
        self.node_list = node_list
        self._fields = dict(fields)
        self._index_of: Optional[dict[Node, int]] = None
        self._shm = shm
        self._descriptor = descriptor
        self._detached = False

    # -- identity ------------------------------------------------------
    @property
    def digest(self) -> str:
        return self.meta["digest"]

    @property
    def dataset(self) -> str:
        return self.meta["dataset"]

    @property
    def attached(self) -> bool:
        """True when the arrays are views into a shared segment."""
        return self._shm is not None and not self._detached

    @property
    def index_of(self) -> dict[Node, int]:
        if self._index_of is None:
            self._index_of = {node: i for i, node in enumerate(self.node_list)}
        return self._index_of

    def served_algorithms(self) -> tuple[str, ...]:
        """The algorithms this index serves at their default parameters."""
        return tuple(name for name in INDEX_ALGORITHMS if self.serves(name, {}))

    def bind(
        self, frozen: FrozenGraph, *, epoch: Optional[int] = None
    ) -> "CommunityIndex":
        """Verify the digest against ``frozen`` and adopt its node mapping.

        Raises :class:`GraphError` when the dataset content has changed
        since the index was built — a stale index must never answer.  Pass
        ``epoch`` on epochal datasets so the error names the snapshot the
        index fell behind (the same hint on every surface, in-process or
        wire).
        """
        actual = dataset_digest(frozen)
        if actual != self.digest:
            suffix = f" (current epoch {epoch})" if epoch is not None else ""
            error = GraphError(
                f"index for dataset {self.dataset!r} is stale: it was built for "
                f"content digest {self.digest[:12]} but the dataset now has "
                f"{actual[:12]}; rebuild it with "
                f"'repro index build {self.dataset}'{suffix}"
            )
            # machine-readable cause: the serving tier's auto-index mode
            # reports this compact reason instead of the full message when
            # an evolving dataset outgrows its index (repro.dynamic)
            error.reason = "stale"
            raise error
        self._index_of = frozen.csr.index_of
        return self

    def describe(self) -> dict[str, Any]:
        """Inspection summary: versions, digest, sizes, per-k community counts."""
        meta = self.meta
        itemsize = array(_FIELD_TYPECODE).itemsize
        region_bytes = {name: len(values) * itemsize for name, values in self._fields.items()}
        truss_counts: dict[str, int] = {"cc": meta["truss_counts"][0]}
        for level, count in enumerate(meta["truss_counts"][1:], start=2):
            truss_counts[str(level)] = count
        return {
            "format_version": meta["format_version"],
            "digest": meta["digest"],
            "dataset": meta["dataset"],
            "nodes": meta["nodes"],
            "edges": meta["edges"],
            "core_kmax": meta["core_kmax"],
            "truss_kmax": meta["truss_kmax"],
            "core_communities": {str(k): c for k, c in enumerate(meta["core_counts"])},
            "truss_communities": truss_counts,
            "kecc_cap": meta["kecc_cap"],
            "kecc_communities": {
                str(k): c for k, c in enumerate(meta["kecc_counts"], start=1)
            },
            "serves": list(self.served_algorithms()),
            "region_bytes": region_bytes,
            "total_bytes": sum(region_bytes.values()),
            "build_seconds": meta.get("build_seconds", 0.0),
        }

    # -- zero-copy sharing --------------------------------------------
    def share(self):
        """Pack the flat arrays into one shared segment (owner-side handle).

        Same region layout and lifecycle as the CSR snapshots: the caller
        ships ``handle.descriptor`` to workers, workers call
        :func:`attach_index`, and the owner eventually ``unlink()``s.
        """
        from .shm import share_regions

        fields = {name: self._as_array(name) for name in _FIELDS}
        payload = pickle.dumps(
            (self.meta, self.node_list), protocol=pickle.HIGHEST_PROTOCOL
        )
        return share_regions(fields, payload, tag=INDEX_SEGMENT_TAG)

    def _as_array(self, name: str) -> array:
        values = self._fields[name]
        if isinstance(values, array):
            return values
        return array(_FIELD_TYPECODE, values)

    def detach(self) -> None:
        """Release shared views and drop this process's mapping (idempotent)."""
        if self._shm is None or self._detached:
            return
        self._detached = True
        for values in self._fields.values():
            if isinstance(values, memoryview):
                values.release()
        self._fields = {}
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a view; exit will reap it
            pass

    def __del__(self):
        try:
            self.detach()
        except Exception:  # noqa: BLE001 - never raise from a finalizer
            pass

    def __reduce__(self):
        if self.attached:
            return (attach_index, (self._descriptor,))
        fields = {name: self._as_array(name) for name in _FIELDS}
        return (_rebuild_index, (self.meta, self.node_list, fields))

    def __repr__(self) -> str:
        kind = "attached" if self.attached else "local"
        return (
            f"CommunityIndex({self.dataset!r}, |V|={self.meta['nodes']}, "
            f"core_kmax={self.meta['core_kmax']}, truss_kmax={self.meta['truss_kmax']}, {kind})"
        )

    # -- query surface -------------------------------------------------
    def serves(self, algorithm: str, params: Mapping[str, Any]) -> bool:
        """Can this index answer ``algorithm`` with ``params`` bit-identically?

        Conservative by design: anything but a plain-int ``k`` (or no
        params at all) falls back to the executed path, which also owns
        producing the errors for genuinely malformed parameters.
        """
        if algorithm in ("kc", "kt"):
            if not params:
                return True
            if set(params) != {"k"}:
                return False
            k = params["k"]
            return isinstance(k, int) and not isinstance(k, bool)
        if algorithm in ("hightruss", "huang2015"):
            return not params
        if algorithm == "kecc":
            from ..baselines.kecc import KECC_APPROXIMATE_ABOVE

            # the stored partitions bake in the approximation crossover;
            # serve only when it matches the executed default
            if self.meta.get("kecc_cap") != KECC_APPROXIMATE_ABOVE:
                return False
            if not params:
                return True
            if set(params) != {"k"}:
                return False
            k = params["k"]
            # k < 1 stays executed: k_edge_connected_components owns that error
            return isinstance(k, int) and not isinstance(k, bool) and k >= 1
        return False

    def search(
        self,
        algorithm: str,
        query_nodes: Sequence[Node],
        *,
        graph: Optional[Graph] = None,
        **params,
    ):
        """Answer one community-containing-v query from the windows.

        ``graph`` is the live (frozen) snapshot the index is bound to; only
        ``huang2015`` needs it — its greedy shrink phase genuinely inspects
        the graph, the index contributes the phase-1 seed.
        """
        if algorithm == "kc":
            return self._core_search(query_nodes, **params)
        if algorithm == "kt":
            return self._truss_search(query_nodes, **params)
        if algorithm == "hightruss":
            return self._highest_truss(query_nodes, **params)
        if algorithm == "huang2015":
            return self._closest_truss(query_nodes, graph, **params)
        if algorithm == "kecc":
            return self._kecc_search(query_nodes, **params)
        raise GraphError(f"index cannot serve algorithm {algorithm!r}")

    def _validate(self, query_nodes: Sequence[Node]) -> frozenset:
        queries = frozenset(query_nodes)
        if not queries:
            raise GraphError("community search needs at least one query node")
        index_of = self.index_of
        for node in queries:
            if node not in index_of:
                raise GraphError(f"query node {node!r} is not in the graph")
        return queries

    def _window(self, family: str, level: int, p: int):
        """The ``(start, end)`` window containing position ``p``, or ``None``."""
        ptr = self._fields[family + "_ptr"]
        starts = self._fields[family + "_start"]
        lo, hi = ptr[level], ptr[level + 1]
        i = bisect_right(starts, p, lo, hi) - 1
        if i < lo:
            return None
        end = self._fields[family + "_end"][i]
        if end <= p:
            return None
        return starts[i], end

    def _scan(self, family: str, window: tuple[int, int]) -> frozenset:
        order = self._fields[family + "_order"]
        node_list = self.node_list
        return frozenset(node_list[order[i]] for i in range(window[0], window[1]))

    def _core_search(self, query_nodes: Sequence[Node], k: int = 3):
        from ..core.result import CommunityResult

        started = time.perf_counter()
        queries = self._validate(query_nodes)
        if k < 0:  # same validation (and message) as k_core_subgraph
            raise GraphError(f"k must be non-negative, got {k}")
        index_of = self.index_of
        pos = self._fields["core_pos"]
        if k <= self.meta["core_kmax"]:
            windows = {node: self._window("core", k, pos[index_of[node]]) for node in queries}
        else:
            windows = {node: None for node in queries}
        missing = [node for node in queries if windows[node] is None]
        if missing:
            return CommunityResult.empty(
                queries, "kc", reason=f"query nodes {missing!r} are not in the {k}-core"
            )
        first = windows[next(iter(queries))]
        if any(window != first for window in windows.values()):
            return CommunityResult.empty(
                queries, "kc", reason="query nodes lie in different components of the k-core"
            )
        nodes = self._scan("core", first)
        elapsed = time.perf_counter() - started
        return CommunityResult(
            nodes=nodes,
            query_nodes=queries,
            algorithm="kc",
            score=float(k),
            objective_name="min_degree",
            elapsed_seconds=elapsed,
            extra={"k": k},
        )

    def _truss_search(self, query_nodes: Sequence[Node], k: int = 4):
        from ..core.result import CommunityResult

        started = time.perf_counter()
        queries = self._validate(query_nodes)
        if k < 2:  # same validation (and message) as k_truss_subgraph
            raise GraphError(f"k must be at least 2 for a k-truss, got {k}")
        index_of = self.index_of
        pos = self._fields["truss_pos"]
        if 2 <= k <= self.meta["truss_kmax"]:
            level = k - 1
            windows = {
                node: self._window("truss", level, pos[index_of[node]]) for node in queries
            }
        else:
            windows = {node: None for node in queries}
        missing = [node for node in queries if windows[node] is None]
        if missing:
            return CommunityResult.empty(
                queries, "kt", reason=f"query nodes {missing!r} are not in the {k}-truss"
            )
        first = windows[next(iter(queries))]
        if any(window != first for window in windows.values()):
            return CommunityResult.empty(
                queries, "kt", reason="query nodes lie in different components of the k-truss"
            )
        nodes = self._scan("truss", first)
        elapsed = time.perf_counter() - started
        return CommunityResult(
            nodes=nodes,
            query_nodes=queries,
            algorithm="kt",
            score=float(k),
            objective_name="truss_level",
            elapsed_seconds=elapsed,
            extra={"k": k},
        )

    def _agreed_window(self, family: str, level: int, positions):
        """The window all ``positions`` share at ``level``, or ``None``."""
        first = None
        for p in positions:
            window = self._window(family, level, p)
            if window is None or (first is not None and window != first):
                return None
            first = window
        return first

    def _highest_truss(self, query_nodes: Sequence[Node]):
        from ..core.result import CommunityResult

        started = time.perf_counter()
        queries = self._validate(query_nodes)
        index_of = self.index_of
        node_truss = self._fields["node_truss"]
        pos = self._fields["truss_pos"]
        positions = [pos[index_of[node]] for node in queries]
        upper = min(node_truss[index_of[node]] for node in queries)
        for k in range(upper, 2, -1):
            first = self._agreed_window("truss", k - 1, positions)
            if first is None:
                continue
            elapsed = time.perf_counter() - started
            return CommunityResult(
                nodes=self._scan("truss", first),
                query_nodes=queries,
                algorithm="hightruss",
                score=float(k),
                objective_name="truss_level",
                elapsed_seconds=elapsed,
                extra={"k": k},
            )
        # level 0: the whole connected component, no triangle constraint
        first = self._agreed_window("truss", 0, positions)
        if first is not None:
            elapsed = time.perf_counter() - started
            return CommunityResult(
                nodes=self._scan("truss", first),
                query_nodes=queries,
                algorithm="hightruss",
                score=2.0,
                objective_name="truss_level",
                elapsed_seconds=elapsed,
                extra={"k": 2},
            )
        return CommunityResult.empty(queries, "hightruss", reason="queries are disconnected")

    def _closest_truss(self, query_nodes: Sequence[Node], graph: Optional[Graph]):
        """``huang2015`` with the phase-1 seed read off the truss windows.

        Phase 1 of the executed baseline walks ``ktruss_structure`` down
        from the trussness upper bound — exactly the per-level truss node
        components these windows store.  Phase 2 (the greedy shrink) runs
        the *same* baseline helper on the live graph, so the answer is
        bit-identical to the executed path by construction.
        """
        from ..baselines.closest_truss import _greedy_shrink
        from ..core.result import CommunityResult

        started = time.perf_counter()
        queries = self._validate(query_nodes)
        if graph is None:
            raise GraphError(
                "index search for 'huang2015' needs the live graph "
                "for its greedy phase"
            )
        index_of = self.index_of
        node_truss = self._fields["node_truss"]
        pos = self._fields["truss_pos"]
        positions = [pos[index_of[node]] for node in queries]
        upper = min(node_truss[index_of[node]] for node in queries)
        base = None
        for k in range(upper, 2, -1):
            window = self._agreed_window("truss", k - 1, positions)
            if window is not None:
                base = (k, window)
                break
        if base is None:
            # fall back to the plain connected component (truss level 2)
            window = self._agreed_window("truss", 0, positions)
            if window is not None:
                base = (2, window)
        if base is None:
            return CommunityResult.empty(
                queries, "huang2015", reason="no connected truss contains all query nodes"
            )
        k, window = base
        community = set(self._scan("truss", window))
        best_nodes, best_distance, deletions = _greedy_shrink(
            graph, queries, k, community, None
        )
        elapsed = time.perf_counter() - started
        return CommunityResult(
            nodes=frozenset(best_nodes),
            query_nodes=queries,
            algorithm="huang2015",
            score=float(k),
            objective_name="truss_level",
            elapsed_seconds=elapsed,
            extra={"k": k, "query_distance": best_distance, "deletions": deletions},
        )

    def _kecc_search(self, query_nodes: Sequence[Node], k: Optional[int] = None):
        """``kecc`` from the core windows plus the stored per-level labels."""
        from ..baselines.kecc import KECC_DEFAULT_K
        from ..core.result import CommunityResult

        started = time.perf_counter()
        queries = self._validate(query_nodes)
        if k is None:
            k = KECC_DEFAULT_K
        index_of = self.index_of
        pos = self._fields["core_pos"]
        # the degree-<k pruned components ARE the level-k core components
        if 1 <= k <= self.meta["core_kmax"]:
            windows = [self._window("core", k, pos[index_of[node]]) for node in queries]
        else:
            windows = [None]
        if any(window is None for window in windows):
            return CommunityResult.empty(
                queries, "kecc", reason=f"query nodes do not survive degree-{k} pruning"
            )
        first = windows[0]
        if any(window != first for window in windows):
            return CommunityResult.empty(
                queries, "kecc", reason="query nodes lie in different pruned components"
            )
        lo, hi = first
        if hi - lo > self.meta["kecc_cap"]:
            elapsed = time.perf_counter() - started
            return CommunityResult(
                nodes=self._scan("core", first),
                query_nodes=queries,
                algorithm="kecc",
                score=float(k),
                objective_name="edge_connectivity",
                elapsed_seconds=elapsed,
                extra={"k": k, "approximate": True},
            )
        labels = self._fields["kecc_label"]
        base = (k - 1) * self.meta["nodes"]
        query_labels = {labels[base + index_of[node]] for node in queries}
        label = next(iter(query_labels))
        if len(query_labels) == 1 and label >= 0:
            order = self._fields["core_order"]
            node_list = self.node_list
            nodes = frozenset(
                node_list[order[p]]
                for p in range(lo, hi)
                if labels[base + order[p]] == label
            )
            elapsed = time.perf_counter() - started
            return CommunityResult(
                nodes=nodes,
                query_nodes=queries,
                algorithm="kecc",
                score=float(k),
                objective_name="edge_connectivity",
                elapsed_seconds=elapsed,
                extra={"k": k, "approximate": False},
            )
        return CommunityResult.empty(
            queries, "kecc", reason=f"no {k}-edge-connected component contains all query nodes"
        )


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------
def save_index(index: CommunityIndex, path: os.PathLike | str) -> Path:
    """Write ``index`` to ``path`` in the versioned container format.

    Layout: magic, 8-byte big-endian header length, pickled header dict
    (format version, digest, region table), then the 8-byte-aligned flat
    regions and the pickled ``(meta, node_list)`` tail — the same blob
    layout :func:`share_regions` uses, so loading is one read + casts.
    The write goes through a temp file and ``os.replace`` so a crashed
    build never leaves a truncated index behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    fields = {name: index._as_array(name) for name in _FIELDS}
    payload = pickle.dumps((index.meta, index.node_list), protocol=pickle.HIGHEST_PROTOCOL)

    from .shm import _pad  # single source of truth for region alignment

    regions: dict[str, tuple[str, int, int]] = {}
    chunks: list[tuple[int, bytes]] = []
    offset = 0
    for name, values in fields.items():
        blob = values.tobytes()
        regions[name] = (values.typecode, offset, len(values))
        chunks.append((offset, blob))
        offset = _pad(offset + len(blob))
    payload_offset = offset
    chunks.append((offset, payload))
    blob_length = offset + len(payload)

    header = {
        "format_version": index.meta["format_version"],
        "digest": index.meta["digest"],
        "dataset": index.meta["dataset"],
        "regions": regions,
        "payload_offset": payload_offset,
        "payload_length": len(payload),
        "blob_length": blob_length,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)

    blob = bytearray(blob_length)
    for start, chunk in chunks:
        blob[start : start + len(chunk)] = chunk

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack(">Q", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(bytes(blob))
    os.replace(tmp, path)
    return path


def load_index(
    path: os.PathLike | str,
    frozen: Optional[FrozenGraph] = None,
    *,
    epoch: Optional[int] = None,
) -> CommunityIndex:
    """Load an index file; verify it against ``frozen`` when given.

    Raises :class:`FileNotFoundError` when there is no index at ``path``
    (callers in ``auto`` mode treat that as "serve executed"), and
    :class:`GraphError` for corrupt files, unsupported format versions and
    stale digests — production surfaces turn those into structured errors,
    never tracebacks.  ``epoch`` rides into :meth:`CommunityIndex.bind` so
    a stale-digest error on an epochal dataset names the current epoch.
    """
    path = Path(path)
    data = path.read_bytes()  # FileNotFoundError propagates deliberately

    def corrupt(detail: str) -> GraphError:
        return GraphError(
            f"index file {str(path)!r} is corrupt ({detail}); "
            f"rebuild it with 'repro index build'"
        )

    if len(data) < len(_MAGIC) + 8:
        raise corrupt("truncated before header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise corrupt("bad magic; not a repro index file")
    (header_length,) = struct.unpack_from(">Q", data, len(_MAGIC))
    header_start = len(_MAGIC) + 8
    if len(data) < header_start + header_length:
        raise corrupt("truncated header")
    try:
        header = pickle.loads(data[header_start : header_start + header_length])
        if not isinstance(header, dict):
            raise ValueError("header is not a dict")
        version = header["format_version"]
        regions = header["regions"]
        payload_offset = header["payload_offset"]
        payload_length = header["payload_length"]
        blob_length = header["blob_length"]
    except GraphError:
        raise
    except Exception as exc:  # noqa: BLE001 - any parse failure is corruption
        raise corrupt(f"unreadable header: {exc}") from None
    if version != INDEX_FORMAT_VERSION:
        raise GraphError(
            f"index file {str(path)!r} has format version {version!r} but this "
            f"build reads version {INDEX_FORMAT_VERSION}; rebuild it with "
            f"'repro index build'"
        )
    blob_start = header_start + header_length
    if len(data) < blob_start + blob_length:
        raise corrupt("truncated data")
    try:
        fields: dict[str, array] = {}
        for name, (typecode, offset, count) in regions.items():
            values = array(typecode)
            nbytes = count * values.itemsize
            values.frombytes(data[blob_start + offset : blob_start + offset + nbytes])
            if len(values) != count:
                raise ValueError(f"region {name} truncated")
            fields[name] = values
        meta, node_list = pickle.loads(
            data[blob_start + payload_offset : blob_start + payload_offset + payload_length]
        )
        for name in _FIELDS:
            if name not in fields:
                raise ValueError(f"region {name} missing")
    except Exception as exc:  # noqa: BLE001
        raise corrupt(f"unreadable regions: {exc}") from None

    index = CommunityIndex(meta, node_list, fields)
    if frozen is not None:
        index.bind(frozen, epoch=epoch)
    return index


def attach_index(descriptor) -> CommunityIndex:
    """Map a shared index segment read-only (zero-copy) by descriptor.

    Raises :class:`GraphError` when the segment no longer exists (the
    owner unlinked it or crashed); workers treat that like a failed
    snapshot attach.
    """
    from .shm import attach_regions

    shm, views, payload = attach_regions(descriptor)
    try:
        meta, node_list = pickle.loads(payload)
    except BaseException:
        for view in views.values():
            view.release()
        shm.close()
        raise
    return CommunityIndex(meta, node_list, views, shm=shm, descriptor=descriptor)
