"""Graph substrate: data structure, traversal, decompositions and generators."""

from .articulation import articulation_points, biconnected_components, non_articulation_nodes
from .components import (
    connected_component_containing,
    connected_components,
    is_connected,
    largest_component,
    nodes_in_same_component,
)
from .connectivity import (
    k_edge_connected_components,
    k_edge_connected_subgraphs,
    stoer_wagner_min_cut,
)
from .coreness import core_numbers, degeneracy_ordering, k_core_subgraph, max_core_number
from .csr import (
    CSRGraph,
    FrozenGraph,
    SharedCache,
    csr_articulation_points,
    csr_connected_component,
    csr_connected_components,
    csr_core_numbers,
    csr_multi_source_bfs,
    csr_shortest_path,
    freeze,
)
from .csr_cut import csr_k_edge_connected_components, csr_stoer_wagner
from .csr_truss import (
    CSREdgeIndex,
    csr_edge_index,
    csr_edge_support,
    csr_k_truss_edges,
    csr_truss_numbers,
)
from .generators import (
    LFRResult,
    barabasi_albert,
    erdos_renyi,
    lfr_benchmark,
    planted_partition,
    powerlaw_sequence,
    ring_of_cliques,
    stochastic_block_model,
)
from .graph import Edge, Graph, GraphError, Node
from .shm import (
    AttachedFrozenGraph,
    SharedSnapshot,
    SnapshotDescriptor,
    attach_frozen,
    live_segment_names,
    share_frozen,
    shared_memory_available,
)
from .index import (
    INDEX_ALGORITHMS,
    INDEX_DIR_ENV,
    INDEX_FORMAT_VERSION,
    INDEX_MODES,
    CommunityIndex,
    attach_index,
    build_index,
    dataset_digest,
    default_index_dir,
    index_path,
    load_index,
    save_index,
)
from .io import (
    from_networkx,
    parse_edge_list,
    read_communities,
    read_edge_list,
    to_networkx,
    write_communities,
    write_edge_list,
)
from .steiner import connector_subgraph, query_connector, steiner_tree_nodes
from .traversal import (
    bfs_distances,
    bfs_order,
    diameter,
    dijkstra,
    distance_layers,
    eccentricity,
    multi_source_bfs,
    multi_source_dijkstra,
    shortest_path,
)
from .trussness import (
    edge_support,
    k_truss_subgraph,
    max_truss_number,
    node_truss_numbers,
    truss_numbers,
)

__all__ = [
    # graph
    "Graph",
    "GraphError",
    "Node",
    "Edge",
    # csr fast path
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
    "CSREdgeIndex",
    "csr_edge_index",
    "csr_edge_support",
    "csr_truss_numbers",
    "csr_k_truss_edges",
    "csr_stoer_wagner",
    "csr_k_edge_connected_components",
    # zero-copy shared snapshots
    "AttachedFrozenGraph",
    "SharedSnapshot",
    "SnapshotDescriptor",
    "share_frozen",
    "attach_frozen",
    "shared_memory_available",
    "live_segment_names",
    # community hierarchy index
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
    # components
    "connected_components",
    "connected_component_containing",
    "is_connected",
    "nodes_in_same_component",
    "largest_component",
    # articulation
    "articulation_points",
    "non_articulation_nodes",
    "biconnected_components",
    # traversal
    "bfs_distances",
    "bfs_order",
    "multi_source_bfs",
    "dijkstra",
    "multi_source_dijkstra",
    "shortest_path",
    "eccentricity",
    "diameter",
    "distance_layers",
    # coreness / trussness / connectivity
    "core_numbers",
    "k_core_subgraph",
    "max_core_number",
    "degeneracy_ordering",
    "edge_support",
    "truss_numbers",
    "k_truss_subgraph",
    "max_truss_number",
    "node_truss_numbers",
    "stoer_wagner_min_cut",
    "k_edge_connected_components",
    "k_edge_connected_subgraphs",
    # steiner
    "query_connector",
    "steiner_tree_nodes",
    "connector_subgraph",
    # generators
    "erdos_renyi",
    "barabasi_albert",
    "ring_of_cliques",
    "planted_partition",
    "stochastic_block_model",
    "powerlaw_sequence",
    "lfr_benchmark",
    "LFRResult",
    # io
    "read_edge_list",
    "write_edge_list",
    "read_communities",
    "write_communities",
    "parse_edge_list",
    "to_networkx",
    "from_networkx",
]
