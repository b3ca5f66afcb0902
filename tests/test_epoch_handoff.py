"""The epoch hand-off: long-lived replicas rebind at an in-queue barrier.

A shard's replicas (queue, loop, executor and worker process) live as long
as the shard.  A mutation shares the new snapshot once per host and puts
an epoch barrier on every replica queue; requests queued before it run on
the old snapshot, requests after it on the new one.  These tests pin:

* a request queued behind an in-flight batch when a mutation lands is
  answered on the old epoch (it used to fail with ``internal_error``);
* worker pids and restart counters survive epochs, and only the current
  epoch's shared segments stay alive;
* a worker killed after the hand-off, or one that fails it, is respawned
  on the current epoch with no stale answer and no leaked segment;
* a worker on the private-snapshot fallback (the host's export failed)
  serves the current epoch, not epoch 0.
"""

from __future__ import annotations

import asyncio
import logging
import time

import pytest

from repro.datasets import load_dataset
from repro.experiments.registry import run_algorithm
from repro.graph import (
    GraphError,
    build_index,
    index_path,
    live_segment_names,
    save_index,
    shared_memory_available,
)
from repro.serving import ServingEngine
from repro.serving.executor import InlineExecutor, Published, WorkerProcessExecutor

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="named shared memory unavailable"
)

INDEX_READS = (("kc", {"k": 3}), ("kt", {"k": 4}), ("hightruss", {}))


def run(coro):
    return asyncio.run(coro)


def absent_edges(graph, count):
    """The first ``count`` non-edges in repr order (deterministic)."""
    nodes = sorted(graph.nodes(), key=repr)
    found = []
    for u in nodes:
        for v in nodes:
            if repr(u) < repr(v) and not graph.has_edge(u, v):
                found.append((u, v))
                if len(found) == count:
                    return found
    raise AssertionError("graph is too dense")


def query(algorithm, nodes, params=None, **extra):
    payload = {"op": "query", "dataset": "karate", "algorithm": algorithm, "nodes": nodes}
    if params:
        payload["params"] = params
    payload.update(extra)
    return payload


def mutate(ops):
    return {"op": "mutate", "dataset": "karate", "ops": ops}


def expected_nodes(graph, algorithm, nodes, params=None):
    """The reference answer as the wire shows it: nodes, or the error."""
    try:
        result = run_algorithm(algorithm, graph, list(nodes), **(params or {}))
    except GraphError as exc:
        return {"code": "bad_query", "message": str(exc)}
    return sorted(result.nodes, key=repr)


def served(answer):
    if answer["ok"]:
        return answer["nodes"]
    return {"code": answer["error"]["code"], "message": answer["error"]["message"]}


def build_karate_index(directory):
    save_index(
        build_index(load_dataset("karate").graph, dataset="karate"),
        index_path("karate", directory),
    )


class TestQueuedAcrossASwap:
    """A request queued behind an in-flight batch when a mutation lands."""

    async def _scenario(self, engine_kwargs, slow_executor):
        mirror = load_dataset("karate").graph.copy()
        (u, v), = absent_edges(mirror, 1)
        async with ServingEngine(datasets=["karate"], epochs=True, **engine_kwargs) as engine:
            await engine.handle(query("kc", [0], {"k": 2}))  # loads the shard
            slow_executor(engine.shards["karate"].replica_set.replicas[0].executor)
            first = asyncio.create_task(engine.handle(query("kt", [0], {"k": 4})))
            await asyncio.sleep(0.15)  # A is in flight on the only replica
            second = asyncio.create_task(engine.handle(query("kt", [33], {"k": 4})))
            await asyncio.sleep(0.05)  # B is queued behind A
            applied = await engine.handle(mutate([["add_edge", u, v]]))
            after = await engine.handle(query("kt", [33], {"k": 4}))
            a, b = await asyncio.gather(first, second)
        mirror_after = mirror.copy()
        mirror_after.add_edge(u, v)
        return mirror, mirror_after, a, b, applied, after

    def _check(self, outcome):
        before, after_graph, a, b, applied, after = outcome
        assert applied["ok"] and applied["epoch"] == 1
        assert a["ok"] and a["epoch"] == 0
        assert a["nodes"] == expected_nodes(before, "kt", [0], {"k": 4})
        # B was admitted before the swap: it runs on the old snapshot
        assert b["ok"], b
        assert b["epoch"] == 0
        assert b["nodes"] == expected_nodes(before, "kt", [33], {"k": 4})
        assert after["ok"] and after["epoch"] == 1
        assert after["nodes"] == expected_nodes(after_graph, "kt", [33], {"k": 4})

    def test_inline(self, monkeypatch):
        original = InlineExecutor._execute_batch

        def slow(self, requests):
            time.sleep(0.5)
            return original(self, requests)

        monkeypatch.setattr(InlineExecutor, "_execute_batch", slow)
        self._check(run(self._scenario({}, lambda executor: None)))

    @needs_shm
    def test_process(self):
        def slow_down(executor):
            original = executor._roundtrip

            def slow(items):
                time.sleep(0.5)
                return original(items)

            executor._roundtrip = slow

        before = live_segment_names()
        self._check(run(self._scenario({"executor": "process"}, slow_down)))
        assert live_segment_names() == before

    def test_shutdown_still_fails_queued_work(self, monkeypatch):
        original = InlineExecutor._execute_batch

        def slow(self, requests):
            time.sleep(0.4)
            return original(self, requests)

        monkeypatch.setattr(InlineExecutor, "_execute_batch", slow)

        async def scenario():
            engine = ServingEngine(datasets=["karate"], epochs=True)
            await engine.start()
            await engine.handle(query("kc", [0], {"k": 2}))
            first = asyncio.create_task(engine.handle(query("kt", [0], {"k": 4})))
            await asyncio.sleep(0.1)
            second = asyncio.create_task(engine.handle(query("kt", [33], {"k": 4})))
            await asyncio.sleep(0.05)
            await engine.close()
            return await asyncio.gather(first, second)

        a, b = run(scenario())
        assert a["ok"]  # the in-flight batch drains
        assert not b["ok"] and b["error"]["code"] == "internal_error"
        assert "queued but not run" in b["error"]["message"]


@needs_shm
class TestWorkersOutliveEpochs:
    def test_ten_epochs_keep_every_worker(self, tmp_path, own_shm_segments):
        build_karate_index(tmp_path)
        mirror = load_dataset("karate").graph.copy()
        edges = absent_edges(mirror, 5)
        script = []
        for u, v in edges:  # add then remove: 10 single-edge epochs
            script.append(("add_edge", u, v))
            script.append(("remove_edge", u, v))

        async def scenario():
            checks = []
            async with ServingEngine(
                datasets=["karate"],
                epochs=True,
                executor="process",
                replicas=2,
                index="require",
                index_dir=str(tmp_path),
            ) as engine:
                await engine.handle(query("kc", [0], {"k": 2}))
                replica_set = engine.shards["karate"].replica_set
                pids = [replica.executor.pid for replica in replica_set.replicas]
                hits = [replica_set.index_hits()]
                for epoch, op in enumerate(script, start=1):
                    applied = await engine.handle(mutate([list(op)]))
                    published = replica_set.published
                    current = {published.snapshot_handle.name, published.index_handle.name}
                    segments = set(live_segment_names())
                    answers = []
                    for node in (0, 33, op[1]):
                        for algorithm, params in INDEX_READS:
                            answers.append(
                                (
                                    algorithm,
                                    node,
                                    params,
                                    await engine.handle(
                                        query(algorithm, [node], params, min_epoch=epoch)
                                    ),
                                )
                            )
                    hits.append(replica_set.index_hits())
                    checks.append((epoch, op, applied, current, segments, answers))
                stats = engine.stats()
                final_pids = [replica.executor.pid for replica in replica_set.replicas]
            return pids, final_pids, hits, checks, stats

        before = live_segment_names()
        pids, final_pids, hits, checks, stats = run(scenario())
        assert len(set(pids)) == 2 and None not in pids
        assert final_pids == pids  # no worker was spawned for any epoch
        shard = stats["shards"]["karate"]
        for replica in shard["replicas"]:
            assert replica["executor"]["restarts"] == 0
            assert replica["executor"]["index"] == "attached"
        assert shard["epoch"]["swaps"] == len(script)
        # index hits only grow: the counters live as long as the replicas
        assert all(later >= earlier for earlier, later in zip(hits, hits[1:]))
        assert hits[-1] > hits[0]
        for epoch, op, applied, current, segments, answers in checks:
            assert applied["ok"] and applied["epoch"] == epoch
            # exactly the current snapshot and index segments are alive
            assert segments - set(before) == current, epoch
            kind, u, v = op
            if kind == "add_edge":
                mirror.add_edge(u, v)
            else:
                mirror.remove_edge(u, v)
            for algorithm, node, params, answer in answers:
                assert served(answer) == expected_nodes(mirror, algorithm, [node], params)
                assert answer.get("epoch", epoch) == epoch
        assert live_segment_names() == before
        assert not own_shm_segments()


@needs_shm
class TestHandOffFaults:
    """An epochal ``--index require`` server with process replicas."""

    async def _serve(self, tmp_path, between):
        mirror = load_dataset("karate").graph.copy()
        (u, v), = absent_edges(mirror, 1)
        async with ServingEngine(
            datasets=["karate"],
            epochs=True,
            executor="process",
            index="require",
            index_dir=str(tmp_path),
            cache_size=0,
        ) as engine:
            await engine.handle(query("kt", [0], {"k": 4}))
            executor = engine.shards["karate"].replica_set.replicas[0].executor
            applied = await between(engine, executor, mutate([["add_edge", u, v]]))
            answers = [
                (algorithm, params, await engine.handle(query(algorithm, [u], params, min_epoch=1)))
                for algorithm, params in INDEX_READS
            ]
            stats = engine.stats()
            describe = executor.describe()
        mirror.add_edge(u, v)
        return mirror, applied, answers, stats, describe, u

    def _check(self, outcome, before, own_shm_segments):
        mirror, applied, answers, stats, describe, u = outcome
        assert applied["ok"] and applied["epoch"] == 1
        for algorithm, params, answer in answers:
            assert served(answer) == expected_nodes(mirror, algorithm, [u], params)
            assert answer.get("epoch", 1) == 1
        assert describe["restarts"] == 1
        assert describe["index"] == "attached"
        index = stats["shards"]["karate"]["index"]
        assert index["effective"] == "indexed" and index["hits"] >= len(INDEX_READS)
        assert live_segment_names() == before
        assert not own_shm_segments()

    def test_worker_killed_after_the_hand_off(self, tmp_path, own_shm_segments):
        build_karate_index(tmp_path)

        async def between(engine, executor, payload):
            applied = await engine.handle(payload)
            executor._proc.kill()
            executor._proc.join(10)
            return applied

        before = live_segment_names()
        self._check(run(self._serve(tmp_path, between)), before, own_shm_segments)

    def test_worker_failing_its_attach_reply(
        self, tmp_path, monkeypatch, caplog, own_shm_segments
    ):
        build_karate_index(tmp_path)
        real_payload = Published.worker_payload

        def unattachable(self):
            # a descriptor whose segment does not exist: the child's attach
            # raises, it replies "failed" and exits
            payload = real_payload(self)
            descriptor = payload["snapshot"]
            bogus = type(descriptor).__new__(type(descriptor))
            bogus.__setstate__(
                ("repro_snap_missing_0", descriptor.regions,
                 descriptor.payload_offset, descriptor.payload_length)
            )
            payload["snapshot"] = bogus
            return payload

        async def between(engine, executor, payload):
            with monkeypatch.context() as patch:
                patch.setattr(Published, "worker_payload", unattachable)
                applied = await engine.handle(payload)
            # the failed worker was stopped, not left on the old epoch
            assert executor.pid is None
            return applied

        before = live_segment_names()
        with caplog.at_level(logging.ERROR, logger="repro.obs"):
            outcome = run(self._serve(tmp_path, between))
        self._check(outcome, before, own_shm_segments)
        assert any(record.getMessage() == "worker_attach_failed" for record in caplog.records)


@needs_shm
def test_rebind_spans_name_each_replica_and_worker(tmp_path):
    build_karate_index(tmp_path)

    async def scenario():
        async with ServingEngine(
            datasets=["karate"],
            epochs=True,
            executor="process",
            replicas=2,
            index="require",
            index_dir=str(tmp_path),
            trace_sample=1.0,
        ) as engine:
            await engine.handle(query("kc", [0], {"k": 2}))
            pids = [r.executor.pid for r in engine.shards["karate"].replica_set.replicas]
            response = await engine.handle(mutate([["add_node", 99]]))
            return pids, engine.telemetry.tracer.spans(response["trace_id"])

    pids, spans = run(scenario())
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    commit = by_name["epoch.commit"][0]
    rebinds = by_name["epoch.rebind"]
    assert sorted(span["tags"]["replica"] for span in rebinds) == [0, 1]
    assert sorted(span["tags"]["pid"] for span in rebinds) == sorted(pids)
    for span in [*rebinds, *by_name["epoch.swap"]]:
        assert span["parent"] == commit["span"]
        assert commit["start"] <= span["start"] <= span["end"] <= commit["end"]


def test_private_snapshot_workers_serve_the_current_epoch(share_fails, own_shm_segments):
    mirror = load_dataset("karate").graph.copy()
    ops = [["add_node", 99], ["add_edge", 99, 0], ["add_edge", 99, 1]]

    async def scenario():
        async with ServingEngine(
            datasets=["karate"], epochs=True, executor="process"
        ) as engine:
            await engine.handle(query("kc", [0], {"k": 2}))
            applied = await engine.handle(mutate(ops))
            # node 99 exists only from epoch 1 on
            answer = await engine.handle(query("kc", [99], {"k": 2}, min_epoch=1))
            executor = engine.shards["karate"].replica_set.replicas[0].executor
            assert isinstance(executor, WorkerProcessExecutor)
            return applied, answer, executor.describe()

    applied, answer, describe = run(scenario())
    mirror.add_edge(99, 0)
    mirror.add_edge(99, 1)
    assert applied["ok"] and answer["ok"] and answer["epoch"] == 1
    assert answer["nodes"] == expected_nodes(mirror, "kc", [99], {"k": 2})
    assert describe["snapshot"] == "private" and describe["restarts"] == 0
    assert not own_shm_segments()
