"""Epochal snapshot publication: apply a delta, publish a new frozen graph.

:class:`EpochManager` owns the evolving state of one dataset: the current
mutable graph, its exact core numbers, the current
:class:`~repro.graph.csr.FrozenGraph` (whose memo holds the committed
per-edge-id truss numbers) and the **epoch** — a monotonically increasing
integer that names each published snapshot.  The serving tier keys result
caches by epoch and stamps every response with it, so "which graph
answered this query" is always explicit on the wire.

Publication is two-phase so callers can interpose work between computing a
snapshot and exposing it (the serving layer republishes the community
index file and shares the new snapshot in between, then hands it to its
long-lived replicas at the swap):

* :meth:`prepare` does *all* the work on private copies — replays the
  batch, repairs the decomposition state (incrementally up to
  ``threshold`` ops, by full recomputation past it), freezes the result
  and primes the snapshot's memo cache — and returns a
  :class:`PreparedEpoch`.  A failing op (``GraphError``) leaves the
  committed state untouched.
* :meth:`commit` swaps the prepared state in and advances the epoch.

The primed memo entries are exactly the values a from-scratch freeze would
derive lazily (same list orders), which is the bit-identical parity
contract the tests and the ``dynamic-smoke`` CI job enforce.  On an
incremental epoch both decompositions are repaired per edit
(:mod:`repro.dynamic.incremental`): the truss stage carries the committed
truss list onto the new edge ids and patches the entries the batch changed,
so no triangle is listed and nothing is peeled.  Only a batch whose repair
visits more candidate edges than the committed snapshot has edges re-peels
the new snapshot.  The canonical support dict is left to its lazy memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from time import time as wall_time
from typing import Any, Optional

from ..graph.csr import FrozenGraph, csr_core_numbers, freeze
from ..graph.csr_truss import csr_edge_index, csr_truss_numbers
from ..graph.graph import Edge, Graph, Node
from ..graph.index import CommunityIndex, _assemble_index
from ..graph.trussness import _frozen_edge_index, _frozen_edge_truss, edge_support
from .delta import DeltaBatch
from .incremental import TrussRepair, apply_op

__all__ = ["EpochManager", "PreparedEpoch"]


@contextmanager
def _stage_span(tracer, context, name: str):
    """Span one ``prepare`` stage under ``context`` (free when untraced)."""
    if tracer is None:
        yield
        return
    started = wall_time()
    try:
        yield
    finally:
        tracer.emit(context, name, started, wall_time())


class PreparedEpoch:
    """Everything :meth:`EpochManager.commit` needs, computed off to the side.

    When the manager has a bound community index, ``index`` carries its
    successor — rebuilt from the decompositions ``prepare`` already holds,
    bit-identical to a from-scratch build on the new snapshot — and
    ``index_seconds`` how long that took.
    """

    __slots__ = (
        "epoch",
        "mode",
        "delta_size",
        "frozen",
        "graph",
        "core",
        "index",
        "index_seconds",
    )

    def __init__(
        self,
        *,
        epoch: int,
        mode: str,
        delta_size: int,
        frozen: FrozenGraph,
        graph: Graph,
        core: dict[Node, int],
        index: Optional[CommunityIndex] = None,
        index_seconds: float = 0.0,
    ) -> None:
        self.epoch = epoch
        self.mode = mode
        self.delta_size = delta_size
        self.frozen = frozen
        self.graph = graph
        self.core = core
        self.index = index
        self.index_seconds = index_seconds

    def __repr__(self) -> str:
        return f"PreparedEpoch(epoch={self.epoch}, mode={self.mode!r}, ops={self.delta_size})"


class EpochManager:
    """Evolve one dataset through monotonically numbered snapshots.

    ``graph`` is the epoch-0 state; it is never mutated (every batch works
    on a copy), so handing in a cached dataset graph is safe.  ``frozen``
    lets a caller that already froze epoch 0 avoid a second freeze.
    ``threshold`` is the incremental/refreeze crossover: batches with more
    ops than this replay onto the copy and recompute the decompositions
    from scratch — past a point, one bulk recomputation beats per-edge
    repair.  ``threshold=0`` always refreezes.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        frozen: Optional[FrozenGraph] = None,
        threshold: int = 64,
        epoch: int = 0,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.threshold = threshold
        self.epoch = epoch
        # optional observability hook (a repro.obs.trace.Tracer): when set,
        # a traced prepare gets an epoch.prepare span with per-stage children
        self.tracer = None
        self.frozen = frozen if frozen is not None else freeze(graph)
        self._graph = graph
        self._core: Optional[dict[Node, int]] = None
        self.index: Optional[CommunityIndex] = None
        # counters (JSON-safe via describe())
        self.batches = 0
        self.incremental_batches = 0
        self.refrozen_batches = 0
        self.ops_applied = 0
        self.index_rebuilds = 0

    def bind_index(self, index: Optional[CommunityIndex]) -> None:
        """Adopt the dataset's community index; ``prepare`` maintains it.

        Every subsequent :meth:`prepare` produces the index of the *new*
        snapshot alongside it, rebuilt from the decompositions it has just
        maintained, so a serving tier in ``--index require`` mode never
        refuses a mutation.
        ``None`` detaches.  Binding runs the usual digest check against the
        committed snapshot.
        """
        if index is not None:
            index.bind(self.frozen, epoch=self.epoch)
        self.index = index

    # ------------------------------------------------------------------
    # decomposition state
    # ------------------------------------------------------------------
    def _committed_core(self) -> dict[Node, int]:
        """The committed core numbers, derived lazily from the snapshot."""
        if self._core is None:
            csr = self.frozen.csr
            cache = self.frozen.shared_cache()
            core_list = cache.memo(("csr-core-numbers",), lambda: csr_core_numbers(csr))
            self._core = dict(zip(csr.node_list, core_list))
        return self._core

    # ------------------------------------------------------------------
    # two-phase publication
    # ------------------------------------------------------------------
    def prepare(self, batch: DeltaBatch, trace=None) -> PreparedEpoch:
        """Compute the next epoch's snapshot without exposing it yet.

        Raises ``GraphError`` on a semantically invalid op (the committed
        state is untouched — everything runs on copies) and ``ValueError``
        on an empty batch.  ``trace`` is an optional observability context
        (see :mod:`repro.obs.trace`); combined with an attached
        ``tracer`` it spans the whole prepare, with one child span per
        stage: ``epoch.copy``, ``epoch.apply``, ``epoch.freeze``,
        ``epoch.edge_index``, ``epoch.core_support``, ``epoch.truss`` and,
        with a bound index, ``epoch.index``.  ``epoch.apply`` includes the
        per-edit core and truss repair; on an incremental epoch
        ``epoch.truss`` times carrying the repaired truss numbers onto the
        new edge ids, and it times a whole-graph peel only on a refreeze
        or when the repair gave up on its work bound.
        ``epoch.core_support`` times the core numbers.
        """
        tracer = self.tracer if trace is not None else None
        prepare_started = wall_time() if tracer is not None else 0.0
        stages = trace.child() if tracer is not None else None

        def stage(name: str):
            return _stage_span(tracer, stages, name)

        ops = list(batch)
        if not ops:
            raise ValueError("cannot publish an epoch from an empty delta batch")
        with stage("epoch.copy"):
            working = self._graph.copy()
        incremental = len(ops) <= self.threshold
        with stage("epoch.apply"):
            if incremental:
                core = dict(self._committed_core())
                # the committed truss list lives in the snapshot's memo; the
                # repair may visit as many candidate edges as the snapshot
                # has edges before a whole-graph peel is the cheaper way
                committed_index = _frozen_edge_index(self.frozen)
                truss = TrussRepair(
                    self.frozen.csr,
                    committed_index,
                    _frozen_edge_truss(self.frozen),
                    budget=committed_index.num_edges,
                )
                for op in ops:
                    apply_op(working, core, truss, op)
            else:
                batch.apply(working)
        with stage("epoch.freeze"):
            frozen = freeze(working)
            csr = frozen.csr
        with stage("epoch.edge_index"):
            index = csr_edge_index(csr)
        with stage("epoch.core_support"):
            if incremental:
                core_list = [core[node] for node in csr.node_list]
            else:
                core_list = csr_core_numbers(csr)
                core = dict(zip(csr.node_list, core_list))
        with stage("epoch.truss"):
            if incremental and not truss.exhausted:
                truss_list = truss.carry(csr, index)
            else:
                truss_list = csr_truss_numbers(csr, index)
        # prime the new snapshot's memo cache with the maintained values —
        # the exact base keys the lazy paths would fill; every derived
        # format (core dicts, truss dicts, k-core structures) computes
        # through these, so serving the new epoch never re-derives what the
        # incremental repair already knows.  The canonical support dict is
        # left to its lazy memo.
        cache = frozen.shared_cache()
        cache[("csr-core-numbers",)] = list(core_list)
        cache[("csr-edge-index",)] = index
        cache[("csr-edge-truss",)] = truss_list
        # rebuild the bound community index from the decompositions just
        # computed, off the serving path, so it is never stale
        index_new: Optional[CommunityIndex] = None
        index_seconds = 0.0
        if self.index is not None:
            with stage("epoch.index"):
                index_started = perf_counter()
                index_new = _assemble_index(
                    frozen, core_list, index, truss_list, dataset=self.index.dataset
                )
                index_seconds = perf_counter() - index_started
        if tracer is not None:
            tracer.emit_as(
                trace,
                stages,
                "epoch.prepare",
                prepare_started,
                wall_time(),
                epoch=self.epoch + 1,
                mode="incremental" if incremental else "refreeze",
                ops=len(ops),
            )
        return PreparedEpoch(
            epoch=self.epoch + 1,
            mode="incremental" if incremental else "refreeze",
            delta_size=len(ops),
            frozen=frozen,
            graph=working,
            core=core,
            index=index_new,
            index_seconds=index_seconds,
        )

    def commit(self, prepared: PreparedEpoch) -> PreparedEpoch:
        """Expose a prepared epoch; rejects anything but the direct successor."""
        if prepared.epoch != self.epoch + 1:
            raise ValueError(
                f"cannot commit epoch {prepared.epoch}: current epoch is "
                f"{self.epoch} (prepare again from the committed state)"
            )
        self._graph = prepared.graph
        self._core = prepared.core
        self.frozen = prepared.frozen
        self.epoch = prepared.epoch
        self.batches += 1
        self.ops_applied += prepared.delta_size
        if prepared.mode == "incremental":
            self.incremental_batches += 1
        else:
            self.refrozen_batches += 1
        if prepared.index is not None:
            self.index = prepared.index
            self.index_rebuilds += 1
        return prepared

    def apply(self, batch: DeltaBatch) -> PreparedEpoch:
        """``prepare`` + ``commit`` in one step (the non-serving path)."""
        return self.commit(self.prepare(batch))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def graph_copy(self) -> Graph:
        """A private copy of the committed mutable graph (test/bench aid)."""
        return self._graph.copy()

    def core_numbers(self) -> dict[Node, int]:
        """The committed core numbers (a copy)."""
        return dict(self._committed_core())

    def edge_supports(self) -> dict[Edge, int]:
        """The committed triangle supports, canonically keyed (a copy)."""
        return dict(edge_support(self.frozen))

    def describe(self) -> dict[str, Any]:
        """JSON-safe counters for the serving tier's ``epoch`` stats block."""
        return {
            "current": self.epoch,
            "threshold": self.threshold,
            "batches": self.batches,
            "incremental_batches": self.incremental_batches,
            "refrozen_batches": self.refrozen_batches,
            "ops_applied": self.ops_applied,
            "index_bound": self.index is not None,
            "index_rebuilds": self.index_rebuilds,
        }
