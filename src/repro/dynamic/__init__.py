"""Dynamic graphs: delta logs, incremental maintenance, epochal snapshots.

The rest of the library treats a graph as frozen exactly once; this package
is where evolution lives.  Mutations are accumulated in an ordered,
replayable :class:`DeltaBatch`; an :class:`EpochManager` applies a batch to
its working graph, maintains the core and truss numbers incrementally (or
re-freezes from scratch past a size threshold), and republishes a new
:class:`~repro.graph.csr.FrozenGraph` under a monotonically increasing
epoch.  Every published snapshot is bit-identical
to freezing the mutated graph from scratch — the serving tier swaps it in
atomically between micro-batches and tags every response with the epoch it
was computed against.
"""

from .delta import DeltaBatch, parse_mutation_token
from .epoch import EpochManager, PreparedEpoch
from .incremental import TrussRepair, apply_op

__all__ = [
    "DeltaBatch",
    "EpochManager",
    "PreparedEpoch",
    "TrussRepair",
    "apply_op",
    "parse_mutation_token",
]
