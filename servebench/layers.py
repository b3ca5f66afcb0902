"""The traced run: per-layer numbers for one workload.

Three phases, each replaying the workload's seeded op sequence:

1. **untraced** — the end-to-end loop with sampling off (one set-up); its
   client latencies are the base of ``obs.trace_overhead_pct`` and
   ``serving.overhead_ms``, its ``stats`` give the shard counters;
2. **traced** — the same loop against ``repro serve --trace-sample 1.0``;
   after each answer the benchmark fetches the request's span tree with
   the ``trace`` op (outside the request's latency).  Phases 1 and 2 run
   side by side on two servers, alternating round by round;
3. **in-process** — the benchmark calls each layer's public function
   itself (``load_dataset``, ``Graph.freeze``/``copy``,
   ``FrozenGraph.share``/``attach``, ``build_index``/``load_index``,
   ``CommunityIndex.search``, ``fpa``/``nca``, ``parse_request``,
   ``result_payload`` + ``encode``, ``execute_one``,
   ``EpochManager.prepare``/``commit``) and records its own spans.

Every span — the benchmark's and the server's — is kept in memory as
``{name, start, end, parent, op, source}`` and written out at the end to
``.servebench/traces/<workload>-<seed>.json``.  A layer the workload does
not cross on the wire (the index on ``dmcs-search``, epochs outside
``epoch-churn``) is still timed in-process on the workload's graph, so
every metric has a measured value on every workload.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import run as bench
from workloads import seeded_rounds, workload

#: share of --seconds given to the interleaved untraced + traced loops
LOOP_SHARE = 0.6
#: in-process repetitions of each set-up layer call
LAYER_REPEATS = 3
#: ops replayed in-process (the first ones of the seeded sequence)
REPLAY_OPS = 60
#: single-edge epochs published in-process on workloads without writes
EPOCH_PROBES = 4


class Spans:
    """The benchmark's span recorder: one id per op, explicit parents."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def time(self, name: str, function, *, op=None, parent=None):
        """Call ``function()`` inside a span; returns (result, seconds)."""
        span_id = self.new_id()
        start = time.perf_counter()
        result = function()
        end = time.perf_counter()
        self.spans.append({
            "span": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "source": "bench",
        })
        return result, end - start

    def add_server(self, spans: list, op: int) -> None:
        for span in spans:
            self.spans.append({
                "span": span.get("span"), "name": span.get("name"),
                "start": span.get("start"), "end": span.get("end"),
                "parent": span.get("parent"), "op": op, "source": "server",
                "tags": span.get("tags", {}),
            })

    def durations(self, name: str, source: str = "bench") -> list[float]:
        return [
            s["end"] - s["start"] for s in self.spans if s["name"] == name and s["source"] == source
        ]


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _timed_repeats(spans: Spans, name: str, function, repeats=LAYER_REPEATS):
    results = [spans.time(name, function) for _ in range(repeats)]
    return results[-1][0]


def _in_process(wl, data, seed, spans: Spans, work: Path, latencies: dict) -> dict:
    """Phase 3: the benchmark calls each layer's public functions itself."""
    from repro.core import fpa, nca
    from repro.datasets import load_dataset
    from repro.dynamic import DeltaBatch, EpochManager
    from repro.graph import build_index, load_index, save_index
    from repro.serving import parse_request, result_payload
    from repro.serving.executor import execute_one
    from repro.serving.protocol import encode

    for name in wl.datasets:
        _timed_repeats(spans, "datasets.load", lambda: load_dataset(name))
    graph = data["livejournal"].graph
    # the CSR arrays are built on first use; the server always uses them
    frozen = _timed_repeats(spans, "graph.freeze", lambda: _with_csr(graph.freeze()))
    _timed_repeats(spans, "graph.copy", graph.copy)
    for _ in range(LAYER_REPEATS):
        shared, _ = spans.time("graph.share", frozen.share)
        try:
            attached, _ = spans.time("graph.attach", lambda: frozen.attach(shared.descriptor))
            del attached
        finally:
            shared.close()
            shared.unlink()
    index = _timed_repeats(spans, "index.build", lambda: build_index(graph, dataset="livejournal"))
    path = work / "layers.idx"
    save_index(index, path)
    for _ in range(LAYER_REPEATS):
        fresh = graph.freeze()
        index, _ = spans.time("index.load", lambda: load_index(path, fresh))
    # livejournal: the snapshot the index is bound to
    frozen_by_name = {"livejournal": fresh, "dolphin": data["dolphin"].graph.freeze()}

    # replay the workload's reads: parse -> execute -> encode, per op
    replay = _replay_ops(wl, data, seed)
    overheads = []
    for op_id, op in enumerate(replay):
        payload = op.payload
        target = frozen_by_name[payload["dataset"]]
        root = spans.new_id()
        start = time.perf_counter()
        request, t_parse = spans.time(
            "protocol.parse", lambda: parse_request(payload), op=op_id, parent=root
        )
        outcome, t_exec = spans.time(
            "executor.execute",
            lambda: execute_one(target, request.algorithm, request.param_dict(), request.nodes,
                                index if payload["dataset"] == "livejournal" else None),
            op=op_id, parent=root,
        )
        line, t_encode = spans.time(
            "protocol.encode", lambda: encode(result_payload(request, outcome)),
            op=op_id, parent=root,
        )
        spans.spans.append({"span": root, "name": "op", "start": start, "end": time.perf_counter(),
                            "parent": None, "op": op_id, "source": "bench", "bytes": len(line)})
        client = latencies.get(op.line)
        if client is not None:
            overheads.append(client - (t_parse + t_exec + t_encode))

    # each algorithm's own entry point, on the same snapshots and queries
    fpa_queries = _nodes_of(replay, "FPA")
    nca_queries = _nodes_of(replay, "NCA")
    index_reads = [
        (op.payload["algorithm"], op.payload["nodes"], op.payload.get("params", {}))
        for op in replay if op.payload["algorithm"] in ("kc", "kt", "hightruss", "kecc")
    ]
    # a workload without some op kind borrows the first ops of the workload
    # that has it, so the layer still gets a measured value
    if not (fpa_queries and nca_queries):
        probe = _replay_ops(workload("dmcs-search"), data, seed)
        fpa_queries = fpa_queries or _nodes_of(probe, "FPA")
        nca_queries = nca_queries or _nodes_of(probe, "NCA")
    if not index_reads:
        index_reads = [
            (op.payload["algorithm"], op.payload["nodes"], op.payload.get("params", {}))
            for op in _replay_ops(workload("index-serve"), data, seed)
        ]
    lj = frozen_by_name["livejournal"]
    for op_id, nodes in enumerate(fpa_queries):
        spans.time("core.fpa", lambda: fpa(lj, nodes), op=op_id)
    dolphin = frozen_by_name["dolphin"]
    for op_id, nodes in enumerate(nca_queries):
        spans.time("core.nca", lambda: nca(dolphin, nodes), op=op_id)
    for op_id, (algorithm, nodes, params) in enumerate(index_reads):
        spans.time(
            "index.search", lambda: index.search(algorithm, nodes, graph=lj, **params), op=op_id
        )

    # single-edge epochs through the two-phase publication path
    manager = EpochManager(graph)
    manager.bind_index(load_index(path, manager.frozen))
    u, v = _non_edge(data["oracle:livejournal"], seed)
    for probe_id in range(EPOCH_PROBES):
        batch = DeltaBatch().add_edge(u, v) if probe_id % 2 == 0 else DeltaBatch().remove_edge(u, v)
        prepared, _ = spans.time("epoch.prepare", lambda: manager.prepare(batch), op=probe_id)
        spans.time("epoch.commit", lambda: manager.commit(prepared), op=probe_id)
        spans.spans[-1]["index_seconds"] = prepared.index_seconds
        spans.time("epoch.first_read", lambda: fpa(manager.frozen, [u]), op=probe_id)
    return {"overheads": overheads}


def _nodes_of(ops, algorithm: str) -> list:
    return [op.payload["nodes"] for op in ops if op.payload["algorithm"] == algorithm]


def _with_csr(frozen):
    frozen.csr
    return frozen


def _replay_ops(wl, data, seed) -> list:
    """The first REPLAY_OPS reads of the workload's seeded sequence."""
    data["delta_log"].clear()
    reads = []
    for ops in seeded_rounds(wl, seed, data):
        for op in ops:
            if op.kind == "read":
                reads.append(op)
        if len(reads) >= REPLAY_OPS:
            data["delta_log"].clear()
            return reads[:REPLAY_OPS]
    return reads


def _non_edge(oracle, seed):
    import random

    rng = random.Random(f"layers:{seed}")
    nodes = sorted(node for node, core in oracle.core.items() if core >= 3)
    while True:
        u, v = sorted(rng.sample(nodes, 2))
        if v not in oracle.adj[u]:
            return u, v


def traced_run(wl, data: dict, seed: int, seconds: float, work: Path, tally) -> dict:
    spans = Spans()
    op_counter = iter(range(1 << 30))

    def fetch(op, answer):
        trace_id = answer.get("trace_id")
        if trace_id:
            reply = traced_server.conn.request({"op": "trace", "trace_id": trace_id})
            spans.add_server(reply.get("spans", []), next(op_counter))

    # phases 1 + 2: an untraced and a traced server replay the same rounds,
    # alternating round by round, so drift of the machine hits both alike
    plain_server, _ = bench.set_up(wl, work / "index-untraced", tally, 1)
    traced_server = None
    try:
        traced_server, _ = bench.set_up(
            wl, work / "index-traced", tally, 1, ["--trace-sample", "1.0"]
        )
        data["delta_log"].clear()
        loops = [
            bench.Loop(wl, plain_server, data, seed, tally),
            bench.Loop(wl, traced_server, data, seed, tally, on_answer=fetch),
        ]
        untraced, traced = bench.run_loops(loops, seconds * LOOP_SHARE)
    except BaseException:
        for server in (plain_server, traced_server):
            if server is not None:
                server.kill()
        raise
    stats = bench.tear_down(wl, plain_server, untraced, tally)
    bench.tear_down(wl, traced_server, traced, tally)
    totals = stats.get("totals", {})
    latencies = {}
    for op, seconds_taken, answer in untraced["records"]:
        if op.kind == "read" and not answer.get("cached"):
            latencies.setdefault(op.line, seconds_taken)

    # phase 3: in-process layer calls
    replay = _in_process(wl, data, seed, spans, work, latencies)

    out = Path(bench.ROOT) / ".servebench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{wl.name}-{seed}.json").write_text(json.dumps(spans.spans))

    records = untraced["records"]
    mutate_index = [a["index_seconds"] for op, _, a in records if "index_seconds" in a]
    encoded = [s["bytes"] for s in spans.spans if s["name"] == "op" and s["source"] == "bench"]
    queries = totals.get("queries") or 1
    untraced_p50 = bench.percentile(untraced["reads"], 50)
    traced_p50 = bench.percentile(traced["reads"], 50)

    def layer(bench_name, server_name=None, scale=1000.0):
        """Server spans when the workload emits them, else the in-process ones."""
        if server_name is not None:
            values = spans.durations(server_name, "server")
            if values:
                return _median(values, scale)
        return _median(spans.durations(bench_name), scale)

    epoch_index = (
        [s * 1000.0 for s in mutate_index]
        or [s["index_seconds"] * 1000.0 for s in spans.spans if "index_seconds" in s]
    )
    first_reads = [s * 1000.0 for s in untraced["first_reads"]] or [
        d * 1000.0 for d in spans.durations("epoch.first_read")
    ]
    writes = [s * 1000.0 for s in untraced["writes"]] or [
        (p + c) * 1000.0
        for p, c in zip(spans.durations("epoch.prepare"), spans.durations("epoch.commit"))
    ]
    values = {
        "datasets.load_ms": (layer("datasets.load"), "ms"),
        "graph.freeze_ms": (layer("graph.freeze"), "ms"),
        "graph.copy_ms": (layer("graph.copy"), "ms"),
        "graph.share_ms": (layer("graph.share"), "ms"),
        "graph.attach_ms": (layer("graph.attach"), "ms"),
        "index.build_ms": (layer("index.build"), "ms"),
        "index.load_ms": (layer("index.load"), "ms"),
        "index.search_us": (layer("index.search", scale=1e6), "us"),
        "core.fpa_ms": (layer("core.fpa"), "ms"),
        "core.nca_ms": (layer("core.nca"), "ms"),
        "protocol.parse_us": (layer("protocol.parse", scale=1e6), "us"),
        "protocol.encode_us": (layer("protocol.encode", scale=1e6), "us"),
        "protocol.response_kb": (_median(encoded) / 1024.0, "KiB"),
        "executor.execute_ms": (layer("executor.execute"), "ms"),
        "serving.overhead_ms": (_median(replay["overheads"], 1000.0), "ms"),
        "shard.admit_us": (_median(spans.durations("shard.admit", "server"), 1e6), "us"),
        "queue.wait_us": (_median(spans.durations("queue.wait", "server"), 1e6), "us"),
        "shard.cache_hit_ratio": (totals.get("cache_hits", 0) / queries, "ratio"),
        "shard.index_hits": (totals.get("index_hits", 0), "count"),
        "epoch.prepare_ms": (layer("epoch.prepare", "epoch.prepare"), "ms"),
        "epoch.index_ms": (_median(epoch_index), "ms"),
        "epoch.commit_ms": (layer("epoch.commit", "epoch.commit"), "ms"),
        "epoch.first_read_ms": (_median(first_reads), "ms"),
        "epoch.write_p50_ms": (_median(writes), "ms"),
        "obs.trace_overhead_pct": ((traced_p50 / untraced_p50 - 1.0) * 100.0, "%"),
        "proc.server_pss_mb": (untraced["server_pss"], "MiB"),
        "proc.worker_pss_mb": (float(untraced["worker_pss"]), "MiB"),
        "machine.calibration_ms": (_median(untraced["calibration"].seconds, 1000.0), "ms"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    # the untraced numbers the overhead is relative to, printed beside it
    print(json.dumps({
        "untraced_read_p50_ms": untraced_p50 * 1000.0,
        "traced_read_p50_ms": traced_p50 * 1000.0,
        "obs.trace_overhead_pct": metrics["obs.trace_overhead_pct"]["value"],
    }))
    return metrics
