"""Tests for the telemetry subsystem (repro.obs) and its wiring.

Covers the three planes end to end:

* the mergeable metrics primitives (O(1) histograms, registry merge
  associativity, Prometheus exposition, wire/pickle round-trips);
* request tracing — span trees complete across all three executor types
  (including across the worker *process* boundary), mutation-path spans,
  sampling honored, and the zero-cost guarantee when sampling is off;
* the cluster health plane — heartbeat summaries aggregated into
  per-dataset qps/p99/shed-rate on the coordinator from merged
  histograms, never re-sorted raw samples.

Also pins the satellite contracts: ``stats`` stays byte-compatible when
tracing is off, and the shed retry-after derivation matches the histogram
within bucket resolution.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import random

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TraceContext,
    Tracer,
    make_span,
)
from repro.serving import ProtocolError, ServingEngine


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_empty_percentile_is_zero(self):
        hist = Histogram()
        assert hist.percentile(0.5) == 0.0
        assert hist.count == 0
        assert hist.max == 0.0

    def test_percentile_returns_bucket_upper_bound(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            hist.record(value)
        # ranks 1-2 land in the first bucket, 3 in the second, 4 in the third
        assert hist.percentile(0.50) == 1.0
        assert hist.percentile(0.75) == 10.0
        assert hist.percentile(1.00) == 100.0

    def test_overflow_bucket_reports_exact_max(self):
        hist = Histogram(bounds=(1.0, 10.0))
        hist.record(12345.5)
        assert hist.percentile(0.99) == 12345.5
        assert hist.max == 12345.5

    def test_merge_adds_counts_and_tracks_max(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        a.record(0.5)
        b.record(5.0)
        b.record(20.0)
        a.merge(b)
        assert a.count == 3
        assert a.max == 20.0
        assert a.percentile(1.0) == 20.0

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_merge_associative(self):
        rng = random.Random(7)
        hists = []
        for _ in range(3):
            hist = Histogram()
            for _ in range(50):
                hist.record(rng.uniform(0.01, 2000.0))
            hists.append(hist)
        a, b, c = hists
        left = a.copy().merge(b).merge(c)
        right = a.copy().merge(b.copy().merge(c))
        assert left.to_wire() == right.to_wire()

    def test_wire_and_pickle_round_trip(self):
        hist = Histogram()
        for value in (0.3, 4.0, 999.0, 99999.0):
            hist.record(value)
        assert Histogram.from_wire(hist.to_wire()).to_wire() == hist.to_wire()
        assert pickle.loads(pickle.dumps(hist)).to_wire() == hist.to_wire()
        # the wire form survives a JSON hop (it rides on heartbeats)
        assert Histogram.from_wire(
            json.loads(json.dumps(hist.to_wire()))
        ).to_wire() == hist.to_wire()

    def test_counter_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestRegistry:
    @staticmethod
    def _sample_registry(seed):
        rng = random.Random(seed)
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", dataset="karate").inc(rng.randrange(1, 50))
        registry.counter("repro_queries_total", dataset="dblp").inc(rng.randrange(1, 50))
        registry.gauge("repro_queue_depth", dataset="karate").set(rng.randrange(0, 9))
        hist = registry.histogram("repro_request_latency_ms", dataset="karate")
        for _ in range(20):
            hist.record(rng.uniform(0.01, 5000.0))
        return registry

    def test_merge_associative(self):
        a, b, c = (self._sample_registry(seed) for seed in (1, 2, 3))
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        bc = MetricsRegistry()
        bc.merge(b)
        bc.merge(c)
        right = MetricsRegistry()
        right.merge(a)
        right.merge(bc)
        assert left.to_wire() == right.to_wire()

    def test_wire_merge_matches_object_merge(self):
        a = self._sample_registry(4)
        b = self._sample_registry(5)
        via_objects = MetricsRegistry()
        via_objects.merge(a)
        via_objects.merge(b)
        via_wire = MetricsRegistry()
        via_wire.merge_wire(a.to_wire())
        via_wire.merge_wire(json.loads(json.dumps(b.to_wire())))
        assert via_objects.to_wire() == via_wire.to_wire()

    def test_exposition_parses(self):
        registry = self._sample_registry(6)
        text = registry.exposition()
        assert text.endswith("\n")
        saw_bucket = saw_inf = False
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# TYPE ", "# HELP ")), line
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part, line
            float(value)  # every sample line ends in a parseable number
            if "_bucket{" in name_part:
                saw_bucket = True
                if 'le="+Inf"' in name_part:
                    saw_inf = True
        assert saw_bucket and saw_inf

    def test_histogram_bucket_counts_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.record(value)
        lines = registry.exposition().splitlines()
        buckets = [line for line in lines if line.startswith("h_bucket")]
        counts = [int(line.rpartition(" ")[2]) for line in buckets]
        assert counts == sorted(counts)  # cumulative, so monotone
        assert counts[-1] == 3  # +Inf sees everything


# ---------------------------------------------------------------------------
# tracer primitives
# ---------------------------------------------------------------------------


class _ExplodingRng:
    def random(self):  # pragma: no cover - the test asserts it is never hit
        raise AssertionError("rng consulted although sampling is off")


class TestTracer:
    def test_disabled_tracer_samples_nothing(self):
        tracer = Tracer(sample=0.0, rng=_ExplodingRng())
        assert not tracer.enabled
        # the fast path must bail before consulting the rng or allocating
        for _ in range(100):
            assert tracer.sample_request() is None
        assert len(tracer) == 0

    def test_sampling_honors_fraction_deterministically(self):
        tracer = Tracer(sample=0.25, rng=random.Random(0))
        sampled = sum(tracer.sample_request() is not None for _ in range(400))
        mirror = random.Random(0)
        expected = sum(mirror.random() < 0.25 for _ in range(400))
        assert sampled == expected
        assert 0 < sampled < 400

    def test_sample_one_always_samples(self):
        tracer = Tracer(sample=1.0)
        context = tracer.sample_request()
        assert isinstance(context, TraceContext)
        assert context.trace_id != context.span_id

    def test_spans_sorted_and_ring_bounded(self):
        tracer = Tracer(sample=1.0, capacity=4)
        context = tracer.sample_request()
        tracer.emit(context, "late", 10.0, 11.0)
        tracer.emit(context, "early", 1.0, 2.0)
        spans = tracer.spans(context.trace_id)
        assert [span["name"] for span in spans] == ["early", "late"]
        for _ in range(10):
            other = tracer.sample_request()
            tracer.emit(other, "fill", 0.0, 1.0)
        assert len(tracer) == 4  # the ring dropped the oldest

    def test_child_context_keeps_trace_id(self):
        context = TraceContext("t" * 16, "s" * 16)
        child = context.child()
        assert child.trace_id == context.trace_id
        assert child.span_id != context.span_id

    def test_make_span_links_parent(self):
        context = TraceContext("t" * 16, "s" * 16)
        span = make_span(context, "work", 1.0, 1.5, tags={"x": 1})
        assert span["trace"] == context.trace_id
        assert span["parent"] == context.span_id
        assert span["ms"] == 500.0
        assert span["tags"] == {"x": 1}


# ---------------------------------------------------------------------------
# trace propagation through the serving stack
# ---------------------------------------------------------------------------


def _span_index(spans):
    return {span["name"]: span for span in spans}


class TestTracePropagation:
    @staticmethod
    async def _traced_query(**engine_kwargs):
        async with ServingEngine(
            datasets=["karate"], trace_sample=1.0, **engine_kwargs
        ) as engine:
            first = await engine.handle(
                {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
            )
            repeat = await engine.handle(
                {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
            )
            spans = engine.telemetry.tracer.spans(first["trace_id"])
            repeat_spans = engine.telemetry.tracer.spans(repeat["trace_id"])
            return first, repeat, spans, repeat_spans

    def _assert_tree(self, response, spans, *, expect_pid_differs=False):
        assert response["ok"] and response["trace_id"]
        by_name = _span_index(spans)
        for name in ("request", "shard.admit", "queue.wait", "execute"):
            assert name in by_name, sorted(by_name)
        root = by_name["request"]
        assert root["trace"] == response["trace_id"]
        assert root["parent"] is None
        # every non-root span belongs to the same trace and hangs off the root
        for span in spans:
            assert span["trace"] == response["trace_id"]
            if span is not root:
                assert span["parent"] == root["span"]
        assert by_name["shard.admit"]["tags"]["disposition"] == "miss"
        assert by_name["execute"]["tags"]["ok"] is True
        import os

        if expect_pid_differs:
            assert by_name["execute"]["tags"]["pid"] != os.getpid()
        else:
            assert by_name["execute"]["tags"]["pid"] == os.getpid()

    def _assert_cached_repeat(self, repeat, repeat_spans):
        assert repeat["cached"] is True
        by_name = _span_index(repeat_spans)
        assert set(by_name) == {"request", "shard.admit"}
        assert by_name["shard.admit"]["tags"]["disposition"] == "hit"

    def test_inline_executor_span_tree(self):
        first, repeat, spans, repeat_spans = run(self._traced_query())
        self._assert_tree(first, spans)
        self._assert_cached_repeat(repeat, repeat_spans)

    def test_process_executor_span_tree(self):
        first, repeat, spans, repeat_spans = run(
            self._traced_query(executor="process")
        )
        self._assert_tree(first, spans, expect_pid_differs=True)
        self._assert_cached_repeat(repeat, repeat_spans)

    def test_process_executor_ships_metric_deltas(self):
        async def scenario():
            async with ServingEngine(
                datasets=["karate"],
                trace_sample=1.0,
                executor="process",
            ) as engine:
                await engine.handle(
                    {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
                )
                return engine.metrics_text()

        text = run(scenario())
        assert "repro_worker_execute_ms" in text
        assert "repro_worker_executed_total" in text

    def test_trace_wire_op(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"], trace_sample=1.0) as engine:
                response = await engine.handle(
                    {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
                )
                one = await engine.handle(
                    {"op": "trace", "trace_id": response["trace_id"]}
                )
                recent = await engine.handle({"op": "trace"})
                bad = await engine.handle({"op": "trace", "trace_id": 7})
                return response, one, recent, bad

        response, one, recent, bad = run(scenario())
        assert one["ok"] and one["trace_id"] == response["trace_id"]
        assert {span["name"] for span in one["spans"]} >= {"request", "execute"}
        assert recent["ok"] and recent["traces"]
        assert recent["traces"][0]["trace_id"] == response["trace_id"]
        assert not bad["ok"] and bad["error"]["code"] == "bad_request"

    def test_metrics_wire_op(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                await engine.handle(
                    {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
                )
                return await engine.handle({"op": "metrics"})

        response = run(scenario())
        assert response["ok"]
        assert "repro_queries_total" in response["text"]
        for line in response["text"].splitlines():
            if not line.startswith("#"):
                float(line.rpartition(" ")[2])


class TestMutationTrace:
    def test_mutation_spans_cover_prepare_and_commit(self):
        from repro.dynamic import DeltaBatch

        async def scenario():
            async with ServingEngine(
                datasets=["karate"], epochs=True, trace_sample=1.0
            ) as engine:
                batch = DeltaBatch.from_tokens(["add-node:99", "add-edge:99:0"])
                response = await engine.handle(
                    {"op": "mutate", "dataset": "karate", "ops": batch.to_wire()}
                )
                spans = engine.telemetry.tracer.spans(response["trace_id"])
                return response, spans

        response, spans = run(scenario())
        assert response["ok"] and response["trace_id"]
        by_name = _span_index(spans)
        for name in ("mutate", "epoch.prepare", "epoch.commit"):
            assert name in by_name, sorted(by_name)
        assert by_name["mutate"]["parent"] is None
        assert by_name["epoch.prepare"]["parent"] == by_name["mutate"]["span"]
        assert by_name["epoch.prepare"]["tags"]["epoch"] == response["epoch"]
        assert by_name["epoch.commit"]["tags"]["epoch"] == response["epoch"]

    def test_prepare_with_a_bound_index_spans_the_rebuild(self, karate_graph):
        from repro.dynamic import DeltaBatch, EpochManager
        from repro.graph import build_index

        tracer = Tracer(sample=1.0)
        manager = EpochManager(karate_graph.copy())
        manager.tracer = tracer
        manager.bind_index(build_index(manager.frozen, dataset="karate"))
        trace = tracer.sample_request()
        prepared = manager.prepare(DeltaBatch().add_edge(0, 9), trace)
        by_name = _span_index(tracer.spans(trace.trace_id))
        stages = (
            "epoch.copy",
            "epoch.apply",
            "epoch.freeze",
            "epoch.edge_index",
            "epoch.core_support",
            "epoch.truss",
            "epoch.index",
        )
        assert set(by_name) == {"epoch.prepare", *stages}
        prepare_span = by_name["epoch.prepare"]
        assert prepare_span["parent"] == trace.span_id
        previous_end = prepare_span["start"]
        for name in stages:  # children of prepare, in order, inside it
            span = by_name[name]
            assert span["parent"] == prepare_span["span"], name
            assert previous_end <= span["start"] <= span["end"], name
            previous_end = span["end"]
        assert previous_end <= prepare_span["end"]
        assert prepared.index is not None and prepared.index_seconds > 0.0


class TestUnsampledIsFree:
    def test_no_trace_artifacts_when_sampling_off(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                response = await engine.handle(
                    {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
                )
                stats = await engine.handle({"op": "stats"})
                return response, stats, len(engine.telemetry.tracer)

        response, stats, ring = run(scenario())
        assert response["ok"]
        assert "trace_id" not in response  # byte-compatible with the seed
        assert "obs" not in stats
        assert ring == 0
        latency = stats["shards"]["karate"]["latency_ms"]
        assert set(latency) == {"count", "p50", "p95", "max"}


# ---------------------------------------------------------------------------
# satellite: percentile hot spots
# ---------------------------------------------------------------------------


class TestPercentileHotSpots:
    def test_retry_after_matches_histogram_p50(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                shard = engine.shards["karate"]
                assert shard._retry_after_ms() == 25  # empty histogram default
                for value in (4.0, 8.0, 40.0):
                    shard.execution_hist.record(value)
                p50 = shard.execution_hist.percentile(0.50)
                backlog = max(1, shard.replica_set.total_pending()) / max(
                    1, len(shard.replica_set)
                )
                expected = int(min(1000.0, max(5.0, p50 * backlog / 2.0)))
                assert shard._retry_after_ms() == expected
                return True

        assert run(scenario())

    def test_shard_stats_percentiles_from_histogram(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                for _ in range(4):
                    await engine.handle(
                        {
                            "op": "query",
                            "dataset": "karate",
                            "algorithm": "kt",
                            "nodes": [0],
                        }
                    )
                stats = await engine.handle({"op": "stats"})
                shard = engine.shards["karate"]
                latency = stats["shards"]["karate"]["latency_ms"]
                assert latency["count"] == shard.latency_hist.count == 4
                assert latency["p50"] == round(shard.latency_hist.percentile(0.50), 3)
                assert latency["p95"] == round(shard.latency_hist.percentile(0.95), 3)
                assert latency["max"] == round(shard.latency_hist.max, 3)
                return True

        assert run(scenario())


# ---------------------------------------------------------------------------
# the cluster health plane
# ---------------------------------------------------------------------------


class TestCoordinatorHealth:
    @staticmethod
    def _summary(queries, errors=0, shed=0, values=()):
        hist = Histogram()
        for value in values:
            hist.record(value)
        return {
            "karate": {
                "queries": queries,
                "errors": errors,
                "shed": shed,
                "latency": hist.to_wire(),
            }
        }

    def test_health_aggregates_live_replicas(self):
        from repro.cluster.coordinator import Coordinator

        coordinator = Coordinator(["karate"], replication=2, clock=lambda: 0.0)
        first = coordinator.register("127.0.0.1:7001", now=0.0)["node_id"]
        second = coordinator.register("127.0.0.1:7002", now=0.0)["node_id"]
        coordinator.heartbeat(
            first, now=1.0, summary=self._summary(100, shed=5, values=(1.0, 2.0))
        )
        coordinator.heartbeat(
            first, now=3.0, summary=self._summary(160, shed=5, values=(1.0, 2.0)),
            epochs={"karate": 4},
        )
        coordinator.heartbeat(
            second, now=3.0, summary=self._summary(40, errors=2, values=(500.0,)),
            epochs={"karate": 2},
        )
        health = coordinator.health()["karate"]
        assert health["nodes"] == 2
        assert health["queries"] == 200
        assert health["errors"] == 2
        assert health["shed"] == 5
        assert health["shed_rate"] == round(5 / 200, 6)
        assert health["qps"] == 30.0  # (160-100)/2s; the second node has no delta yet
        # merged histogram: 3 samples; p99 comes from the 500ms replica
        assert health["p99_ms"] == 500.0
        assert health["epoch"] == 4 and health["epoch_lag"] == 2
        assert coordinator.stats()["health"]["karate"] == health

    def test_dead_nodes_drop_out(self):
        from repro.cluster.coordinator import Coordinator

        coordinator = Coordinator(["karate"], clock=lambda: 0.0)
        node = coordinator.register("127.0.0.1:7001", now=0.0)["node_id"]
        coordinator.heartbeat(node, now=1.0, summary=self._summary(10))
        assert "karate" in coordinator.health()
        coordinator.deregister(node)
        assert coordinator.health() == {}

    def test_counter_restart_skips_rate_for_one_interval(self):
        from repro.cluster.coordinator import Coordinator

        coordinator = Coordinator(["karate"], clock=lambda: 0.0)
        node = coordinator.register("127.0.0.1:7001", now=0.0)["node_id"]
        coordinator.heartbeat(node, now=1.0, summary=self._summary(100))
        coordinator.heartbeat(node, now=2.0, summary=self._summary(3))  # restarted
        assert coordinator.health()["karate"]["qps"] == 0.0
        coordinator.heartbeat(node, now=3.0, summary=self._summary(5))
        assert coordinator.health()["karate"]["qps"] == 2.0

    def test_malformed_summary_rejected(self):
        from repro.cluster.coordinator import Coordinator

        coordinator = Coordinator(["karate"], clock=lambda: 0.0)
        node = coordinator.register("127.0.0.1:7001", now=0.0)["node_id"]
        with pytest.raises(ProtocolError):
            coordinator.heartbeat(node, now=1.0, summary={"karate": "nope"})
        with pytest.raises(ProtocolError):
            coordinator.heartbeat(node, now=1.0, summary=["karate"])

    def test_engine_health_summary_shape(self):
        async def scenario():
            async with ServingEngine(datasets=["karate"]) as engine:
                await engine.handle(
                    {"op": "query", "dataset": "karate", "algorithm": "kt", "nodes": [0]}
                )
                return engine.health_summary()

        summary = run(scenario())
        entry = summary["karate"]
        assert set(entry) == {"queries", "errors", "shed", "latency"}
        assert entry["queries"] == 1
        assert Histogram.from_wire(entry["latency"]).count == 1


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestStructuredLogging:
    def test_slow_query_log_is_json(self, tmp_path):
        import logging

        from repro.obs import configure_json_logging, get_logger

        path = tmp_path / "slow.jsonl"
        handler = configure_json_logging(str(path))
        try:

            async def scenario():
                async with ServingEngine(
                    datasets=["karate"], trace_sample=1.0, slow_query_ms=0.0
                ) as engine:
                    return await engine.handle(
                        {
                            "op": "query",
                            "dataset": "karate",
                            "algorithm": "kt",
                            "nodes": [0],
                        }
                    )

            response = run(scenario())
        finally:
            logger = get_logger()
            logger.removeHandler(handler)
            handler.close()
            logger.setLevel(logging.NOTSET)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        slow = [line for line in lines if line["event"] == "slow_query"]
        assert slow, lines
        assert slow[0]["dataset"] == "karate"
        assert slow[0]["trace_id"] == response["trace_id"]

    def test_telemetry_defaults_off(self):
        telemetry = Telemetry()
        assert not telemetry.tracer.enabled
        assert telemetry.slow_query_ms is None
