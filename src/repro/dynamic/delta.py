"""The mutation log: an ordered, picklable, replayable batch of graph edits.

A :class:`DeltaBatch` records ``add_edge`` / ``remove_edge`` / ``add_node``
/ ``remove_node`` operations in the order they were issued.  It is the unit
of epochal publication: the :class:`~repro.dynamic.epoch.EpochManager`
applies one whole batch and publishes one new snapshot, so readers only
ever observe batch boundaries, never half-applied edits.

Batches exist in three equivalent encodings:

* **recorded** — the in-memory op tuples built by the recorder methods;
* **wire** — the JSON-safe list-of-lists carried by the serving tier's
  ``mutate`` operation (``[["add_edge", 0, 34], ["remove_node", 7]]``);
* **tokens** — the CLI's compact ``add-edge:0:34`` form.

Ops are plain tuples, so a batch pickles across process boundaries and
replays deterministically: ``batch.apply(graph)`` performs exactly the
recorded edits, in order, with the mutable graph's own validation (unknown
edges, self-loops, bad weights all raise the usual ``GraphError``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from ..graph.graph import Graph, Node

__all__ = ["OP_KINDS", "DeltaBatch", "parse_mutation_token"]

OP_KINDS = ("add_edge", "remove_edge", "add_node", "remove_node")

# ops per kind on the wire, *excluding* the kind tag itself
_ARITY = {
    "add_edge": (2, 3),  # weight is optional
    "remove_edge": (2, 2),
    "add_node": (1, 1),
    "remove_node": (1, 1),
}


def _coerce_node(value: Any) -> Node:
    """Node identity, with the query protocol's int-when-possible rule.

    The wire carries JSON, where a client may send ``"5"`` for node ``5``;
    coercing here keeps mutation node identity consistent with query node
    identity (``parse_request`` applies the same rule, JSON arrays becoming
    tuple ids).
    """
    if isinstance(value, list):
        return tuple(_coerce_node(item) for item in value)
    if isinstance(value, bool):
        raise ValueError(f"node ids must be ints, strings or arrays, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return value
    raise ValueError(f"node ids must be ints, strings or arrays, got {value!r}")


def _coerce_weight(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"edge weights must be numbers, got {value!r}")
    return float(value)


def parse_mutation_token(token: str) -> list:
    """Parse one CLI mutation token into a wire op.

    Tokens are ``add-edge:U:V[:WEIGHT]``, ``remove-edge:U:V``,
    ``add-node:N`` and ``remove-node:N`` (node ids therefore cannot contain
    ``:``).  Raises :class:`ValueError` with a flag-shaped message.
    """
    parts = str(token).split(":")
    kind = parts[0].replace("-", "_")
    if kind not in OP_KINDS:
        choices = ", ".join(name.replace("_", "-") for name in OP_KINDS)
        raise ValueError(f"unknown mutation {parts[0]!r} in {token!r}; choose from {choices}")
    low, high = _ARITY[kind]
    arguments = parts[1:]
    if not low <= len(arguments) <= high:
        raise ValueError(
            f"mutation {token!r} needs {low}"
            + (f"-{high}" if high != low else "")
            + f" ':'-separated arguments, got {len(arguments)}"
        )
    if kind == "add_edge" and len(arguments) == 3:
        try:
            weight: list = [float(arguments[2])]
        except ValueError:
            raise ValueError(f"invalid weight {arguments[2]!r} in {token!r}") from None
        return [kind, arguments[0], arguments[1], *weight]
    return [kind, *arguments]


class DeltaBatch:
    """An ordered log of graph mutations.

    Build one with the recorder methods and hand it to an
    :class:`~repro.dynamic.epoch.EpochManager`::

        batch = DeltaBatch()
        batch.add_edge(0, 34)
        batch.remove_node(7)
        manager.apply(batch)
    """

    __slots__ = ("_ops",)

    def __init__(self) -> None:
        self._ops: list[tuple] = []

    # ------------------------------------------------------------------
    # the recorder API
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> "DeltaBatch":
        """Record an edge insertion (or a weight overwrite, if it exists)."""
        self._ops.append(("add_edge", u, v, _coerce_weight(weight)))
        return self

    def remove_edge(self, u: Node, v: Node) -> "DeltaBatch":
        """Record an edge removal."""
        self._ops.append(("remove_edge", u, v))
        return self

    def add_node(self, node: Node) -> "DeltaBatch":
        """Record a node insertion (a no-op at replay if it exists)."""
        self._ops.append(("add_node", node))
        return self

    def remove_node(self, node: Node) -> "DeltaBatch":
        """Record a node removal (incident edges go with it)."""
        self._ops.append(("remove_node", node))
        return self

    # ------------------------------------------------------------------
    # encodings
    # ------------------------------------------------------------------
    @classmethod
    def from_wire(cls, ops: Any) -> "DeltaBatch":
        """Build a batch from the ``mutate`` operation's JSON payload.

        Raises :class:`ValueError` (request-shaped: the serving tier maps
        it to ``bad_request``) on malformed entries; *semantic* failures
        (removing an absent edge, say) surface at replay as ``GraphError``.
        """
        if not isinstance(ops, list) or not ops:
            raise ValueError("'ops' must be a non-empty list of operations")
        batch = cls()
        for position, entry in enumerate(ops):
            if not isinstance(entry, list) or not entry:
                raise ValueError(f"ops[{position}] must be a non-empty list, got {entry!r}")
            kind = entry[0]
            if kind not in OP_KINDS:
                raise ValueError(
                    f"ops[{position}]: unknown operation {kind!r}; "
                    f"choose from {', '.join(OP_KINDS)}"
                )
            low, high = _ARITY[kind]
            arguments = entry[1:]
            if not low <= len(arguments) <= high:
                raise ValueError(
                    f"ops[{position}]: {kind} takes {low}"
                    + (f"-{high}" if high != low else "")
                    + f" arguments, got {len(arguments)}"
                )
            try:
                if kind == "add_edge":
                    weight = _coerce_weight(arguments[2]) if len(arguments) == 3 else 1.0
                    batch._ops.append(
                        ("add_edge", _coerce_node(arguments[0]), _coerce_node(arguments[1]), weight)
                    )
                elif kind == "remove_edge":
                    batch._ops.append(
                        ("remove_edge", _coerce_node(arguments[0]), _coerce_node(arguments[1]))
                    )
                else:
                    batch._ops.append((kind, _coerce_node(arguments[0])))
            except ValueError as exc:
                raise ValueError(f"ops[{position}]: {exc}") from None
            except RecursionError:
                raise ValueError(f"ops[{position}]: node ids nest too deeply") from None
        return batch

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "DeltaBatch":
        """Build a batch from CLI tokens like ``add-edge:0:34``."""
        return cls.from_wire([parse_mutation_token(token) for token in tokens])

    def to_wire(self) -> list[list]:
        """The JSON-safe encoding the ``mutate`` operation carries."""
        return [list(op) for op in self._ops]

    # ------------------------------------------------------------------
    # replay + introspection
    # ------------------------------------------------------------------
    def apply(self, graph: Graph) -> Graph:
        """Replay every recorded op, in order, onto ``graph``; returns it."""
        for op in self._ops:
            kind = op[0]
            if kind == "add_edge":
                graph.add_edge(op[1], op[2], op[3])
            elif kind == "remove_edge":
                graph.remove_edge(op[1], op[2])
            elif kind == "add_node":
                graph.add_node(op[1])
            else:
                graph.remove_node(op[1])
        return graph

    @property
    def ops(self) -> tuple[tuple, ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaBatch):
            return NotImplemented
        return self._ops == other._ops

    def __repr__(self) -> str:
        return f"DeltaBatch({len(self._ops)} ops)"
