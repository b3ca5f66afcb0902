"""Subgraph-selection objectives shared by the peeling algorithms.

Figure 12 of the paper swaps the objective FPA uses to pick the best
intermediate subgraph (density modularity vs classic modularity vs
generalized modularity density).  All three can be evaluated in O(1) from
the incrementally maintained :class:`~repro.modularity.CommunityStatistics`,
which is what this module does.
"""

from __future__ import annotations

from ..graph import Graph, GraphError
from ..modularity import CommunityStatistics
from ..modularity.density import NO_EDGES

__all__ = [
    "SUBGRAPH_OBJECTIVES",
    "evaluate_objective",
    "objective_from_scalars",
    "objective_values",
]

SUBGRAPH_OBJECTIVES = (
    "density_modularity",
    "classic_modularity",
    "generalized_modularity_density",
)


def objective_from_scalars(
    num_edges: int, l_c: float, d_c: float, size: int, objective: str
) -> float:
    """Return the requested objective from the raw community scalars.

    This is the single shared formula kernel: the dict backend feeds it from
    :class:`~repro.modularity.CommunityStatistics` and the CSR backend from
    its flat-array peel state, so both produce bit-identical floats.
    """
    if size == 0:
        raise GraphError("cannot evaluate an objective on an empty community")
    if num_edges == 0:
        raise GraphError(NO_EDGES)
    return _formula(num_edges, l_c, d_c, size, objective)


def objective_values(num_edges: int, l_c, d_c, size, objective: str):
    """Elementwise :func:`objective_from_scalars` over numpy arrays.

    ``l_c`` and ``d_c`` are float64 arrays of exact integers and ``size`` an
    int64 array with every entry >= 1.  The arrays go through the same
    :func:`_formula` operations in the same order, and numpy's ``+ - * /``
    round exactly like Python's float operators (IEEE 754 doubles), so each
    entry is bit-identical to the scalar call on the same inputs.
    """
    if num_edges == 0:
        raise GraphError(NO_EDGES)
    return _formula(num_edges, l_c, d_c, size, objective)


def _formula(num_edges, l_c, d_c, size, objective: str):
    """The objectives in plain operators, so scalars and arrays share them."""
    numerator = 2.0 * l_c - (d_c * d_c) / (2.0 * num_edges)
    if objective == "density_modularity":
        return numerator / (2.0 * size)
    if objective == "classic_modularity":
        return numerator / (2.0 * num_edges)
    if objective == "generalized_modularity_density":
        # a singleton has no node pairs and internal density 0; written
        # without a branch (divisor 1, factor 0) so it also runs elementwise
        pairs = size * (size - 1)
        internal_density = 2.0 * l_c / (pairs + (pairs == 0)) * (pairs != 0)
        return (numerator / (2.0 * num_edges)) * internal_density
    raise GraphError(
        f"unknown objective {objective!r}; expected one of {', '.join(SUBGRAPH_OBJECTIVES)}"
    )


def evaluate_objective(graph: Graph, stats: CommunityStatistics, objective: str) -> float:
    """Return the requested objective for the community tracked by ``stats``.

    Parameters
    ----------
    graph:
        Host graph (supplies ``|E|``).
    stats:
        Incrementally maintained ``l_C`` / ``d_C`` / ``|C|`` of the community.
    objective:
        One of :data:`SUBGRAPH_OBJECTIVES`.
    """
    return objective_from_scalars(
        graph.number_of_edges(), stats.internal_edges, stats.degree_sum, stats.size, objective
    )
