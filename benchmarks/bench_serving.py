"""Serving load generator: the per-query dict path vs ``repro serve``.

Stands up a **real** server (``python -m repro serve`` in a subprocess,
ephemeral port) and drives it with a multi-dataset, multi-client workload
through the keep-alive :class:`repro.serving.ServingClientPool` — the full
request → placement → replica → micro-batch → cache → response path.
Three comparisons:

* **cold** — one client streams every distinct request once against a
  fresh server.  Cache hits play no role; the speedup is the shard's
  snapshot memoisation (one truss/core decomposition per dataset instead
  of one per query), i.e. the batched-engine effect behind a socket.
  Measured once by construction (a second run would be warm).
* **closed-loop xC** — C client threads each replay the workload
  back-to-back through the shared connection pool (rotated so they collide
  mid-stream, exercising the LRU result cache and in-flight coalescing).
  The per-query baseline runs the identical request multiset sequentially
  on the mutable dict graph — what a naive service would do per request.
* **overload** — a dedicated server with a deliberately tiny
  ``--max-queue`` is flooded with distinct (uncacheable) queries; the
  shard sheds with structured ``overloaded`` errors and the pool retries
  with the advertised ``retry_after_ms`` until every request succeeds.
  The recorded numbers are the server-side shed/retried counters and the
  client-side retry counters — the admission-control story end to end.

A fourth comparison exists for the multi-host tier (``repro.cluster``):

* **cluster** (``--cluster N``) — a real coordinator subprocess plus N
  ``repro serve --join`` node subprocesses.  The parity phase drives the
  full workload through a :class:`repro.cluster.ClusterClient` (routing
  table fetched once, queries sent directly to owning nodes) while one
  node is **killed mid-load**: every request must still complete, bit-
  identical to the dict reference, through client-side failover and a
  routing-table refetch, and the table version must advance.  The timing
  phase measures closed-loop throughput against 1 node and against N
  nodes — the scaling a single GIL cannot give.

Usage::

    python benchmarks/bench_serving.py                    # timings + parity
    python benchmarks/bench_serving.py --parity-only      # CI smoke: server up,
                                                          # parity vs the dict
                                                          # reference, errors
                                                          # structured, clean
                                                          # shutdown
    python benchmarks/bench_serving.py --parity-only \\
        --replicas 2 --executor process --max-queue 1     # replicated worker
                                                          # processes + shedding
    python benchmarks/bench_serving.py --parity-only --index require
                                                          # build community
                                                          # indexes, serve kc/kt/
                                                          # hightruss from them,
                                                          # assert hits > 0
    python benchmarks/bench_serving.py --parity-only --cluster 2
                                                          # coordinator + 2 nodes,
                                                          # kill-a-node failover
    python benchmarks/bench_serving.py --cluster 3 --json out.json
                                                          # + throughput scaling
                                                          # 1 node vs 3 nodes
    python benchmarks/bench_serving.py --mode open --rate 200
    python benchmarks/bench_serving.py --json out.json    # trajectory record
                                                          # (appended, not
                                                          # overwritten)

In the shared ``--json`` schema the ``dict_seconds`` column is the
per-query reference path and ``csr_seconds`` is the served path (for the
cluster row: 1 node vs N nodes).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from _bench_util import add_common_arguments, append_json, print_table, time_median as _time

import repro
from repro.cluster import ClusterClient
from repro.datasets import load_dataset
from repro.graph import shared_memory_available
from repro.experiments import generate_query_sets
from repro.experiments.registry import run_algorithm
from repro.serving import ServingClient, ServingClientPool

HOST = "127.0.0.1"
SMALL_DATASETS = ("karate", "dolphin", "mexican")
# decomposition-heavy baselines: the workload where batching/memoisation
# matters most (huang2015 exercises the ported phase-2 loop)
SMALL_ALGORITHMS = ("kt", "kc", "hightruss", "huang2015")
# one big graph where a per-query truss peel really hurts; huang2015's greedy
# deletion is quadratic-ish there, so it stays on the small datasets
HEAVY_DATASET = "dblp"
HEAVY_ALGORITHMS = ("kt", "kc", "hightruss")
MEASURE_DATASETS = SMALL_DATASETS + (HEAVY_DATASET,)
PARITY_ALGORITHMS = ("kt", "kc", "kecc", "hightruss", "huang2015", "FPA", "NCA")

#: server flags for the dedicated overload phase: a queue bound this tiny
#: guarantees shedding under any concurrent flood
OVERLOAD_MAX_QUEUE = 1
OVERLOAD_CLIENTS = 6
OVERLOAD_RETRIES = 40


# ----------------------------------------------------------------------------
# server process management
# ----------------------------------------------------------------------------


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


class WireProcess:
    """A repro subprocess announcing its port on stdout; wire-shutdownable."""

    announce_prefix = ""  # e.g. "serving on"

    def __init__(self, command: list[str]) -> None:
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        line = self.proc.stdout.readline()
        if self.announce_prefix not in line:
            self.proc.kill()
            raise RuntimeError(f"{type(self).__name__} failed to start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def address(self) -> str:
        return f"{HOST}:{self.port}"

    def kill(self) -> None:
        """Hard-kill the process (the cluster failover phase's crash)."""
        self.proc.kill()
        self.proc.wait(5)

    def shutdown(self, timeout: float = 30.0) -> int:
        """Request shutdown over the wire; return the process exit code."""
        try:
            with ServingClient(HOST, self.port) as client:
                client.shutdown()
        except OSError:
            pass
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(5)


class ServerProcess(WireProcess):
    """``repro serve`` in a subprocess."""

    announce_prefix = "serving on"

    def __init__(
        self,
        datasets,
        *,
        max_batch: int = 64,
        replicas=None,
        executor: str | None = None,
        max_queue: int = 0,
        index: str | None = None,
        index_dir: str | None = None,
        join: str | None = None,
        epochs: bool = False,
        trace_sample: float | None = None,
        log_json: str | None = None,
        slow_ms: float | None = None,
    ) -> None:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--datasets",
            *datasets,
            "--max-batch",
            str(max_batch),
        ]
        if replicas:
            command += ["--replicas", *[str(token) for token in replicas]]
        if executor:
            command += ["--executor", executor]
        if max_queue:
            command += ["--max-queue", str(max_queue)]
        if index:
            command += ["--index", index]
        if index_dir:
            command += ["--index-dir", index_dir]
        if join:
            command += ["--join", join]
        if epochs:
            command += ["--epochs"]
        if trace_sample is not None:
            command += ["--trace-sample", str(trace_sample)]
        if log_json is not None:
            command += ["--log-json", log_json]
        if slow_ms is not None:
            command += ["--slow-ms", str(slow_ms)]
        super().__init__(command)


class CoordinatorProcess(WireProcess):
    """``repro coordinator`` in a subprocess (the cluster control plane)."""

    announce_prefix = "coordinating on"

    def __init__(
        self,
        datasets,
        *,
        replication: int = 2,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float | None = None,
    ) -> None:
        command = [
            sys.executable,
            "-m",
            "repro",
            "coordinator",
            "--port",
            "0",
            "--datasets",
            *datasets,
            "--replication",
            str(replication),
            "--heartbeat-interval",
            str(heartbeat_interval),
        ]
        if heartbeat_timeout is not None:
            command += ["--heartbeat-timeout", str(heartbeat_timeout)]
        super().__init__(command)


def server_config_from_args(args) -> dict:
    """The server-shaping flags shared by the parity and timing modes."""
    return {
        "replicas": args.replicas,
        "executor": args.executor,
        "max_queue": args.max_queue,
        "index": args.index,
        "index_dir": args.index_dir,
        "trace_sample": args.trace_sample,
    }


def live_snapshot_segments() -> set:
    """Names of the ``repro_snap_*`` shared-memory segments currently live.

    Linux backs :mod:`multiprocessing.shared_memory` with tmpfs files under
    ``/dev/shm``, so leaked snapshot segments are directly observable there;
    on platforms without that directory the check degrades to a no-op
    (the in-process live-registry assertions in the test suite still run).
    Community-index segments (``repro_snap_idx_*``) share the prefix, so the
    leak gate covers them too.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {entry.name for entry in shm_dir.glob("repro_snap_*")}


# ----------------------------------------------------------------------------
# the community-index tier (--index {auto,require,off})
# ----------------------------------------------------------------------------


def build_index_files(datasets, index_dir: str) -> None:
    """Build + persist the community-search index for each dataset."""
    from repro.graph import build_index, index_path, save_index

    for name in datasets:
        save_index(
            build_index(load_dataset(name).graph, dataset=name),
            index_path(name, index_dir),
        )


def prepare_index_dir(server_config: dict, datasets) -> tuple[dict, str | None]:
    """With ``--index`` active, make sure index files exist for ``datasets``.

    Returns ``(config, tmp_dir)``: the (possibly augmented) server config
    and a temporary directory to delete afterwards when one was created
    because the caller gave ``--index`` without ``--index-dir``.
    """
    mode = server_config.get("index")
    if not mode or mode == "off":
        return server_config, None
    tmp_dir = None
    if not server_config.get("index_dir"):
        tmp_dir = tempfile.mkdtemp(prefix="repro-bench-index-")
        server_config = dict(server_config, index_dir=tmp_dir)
    build_index_files(datasets, server_config["index_dir"])
    return server_config, tmp_dir


#: the algorithms the index can serve — the cold indexed-vs-executed
#: comparison streams exactly these
INDEXED_ALGORITHMS = ("kt", "kc", "hightruss")


def run_index_phase(scale: float, server_config: dict) -> tuple[list, dict]:
    """Cold-query timing: the same workload executed vs served from the index.

    Two fresh servers on the small datasets (result cache irrelevant: every
    request is sent once), one with ``--index off`` and one with ``--index
    require`` against freshly built index files.  The indexed run must stay
    bit-identical (the parity smoke enforces that in CI); *this* phase
    records what the index buys on cold decomposition-heavy queries.  The
    wall-clock numbers ride the JSON record and are never asserted.
    """
    requests = build_workload(scale, algorithms=INDEXED_ALGORITHMS)
    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-index-")
    walls = {}
    hits = 0
    try:
        build_index_files(SMALL_DATASETS, tmp_dir)
        for mode in ("off", "require"):
            config = dict(server_config, max_queue=0, index=mode, index_dir=tmp_dir)
            server = ServerProcess(SMALL_DATASETS, **config)
            try:
                with ServingClientPool(HOST, server.port, size=1) as pool:
                    wall, _ = run_closed_loop(pool, requests, clients=1)
                walls[mode] = wall
                with ServingClient(HOST, server.port) as client:
                    totals = client.stats()["totals"]
                if mode == "require":
                    hits = totals["index_hits"]
            finally:
                server.shutdown()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    row = (
        f"cold kc/kt/hightruss ({len(requests)} reqs, executed vs indexed)",
        walls["off"],
        walls["require"],
    )
    report = {
        "distinct_requests": len(requests),
        "index_hits": hits,
        "executed_wall_seconds": round(walls["off"], 4),
        "indexed_wall_seconds": round(walls["require"], 4),
        "speedup": round(walls["off"] / walls["require"], 2),
    }
    return [row], report


# ----------------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------------


def build_workload(scale: float, datasets=SMALL_DATASETS, algorithms=SMALL_ALGORITHMS):
    """Return ``[(dataset, algorithm, nodes), ...]`` distinct requests."""
    requests = []
    num_sets = max(2, int(3 * scale))
    for name in datasets:
        dataset = load_dataset(name)
        singles = generate_query_sets(dataset, num_sets=num_sets, query_size=1, seed=17)
        pairs = generate_query_sets(dataset, num_sets=max(1, num_sets // 2), query_size=2, seed=23)
        for query_set in singles + pairs:
            for algorithm in algorithms:
                requests.append((name, algorithm, list(query_set.nodes)))
    return requests


def build_flood(count: int, datasets=("dolphin",)):
    """Distinct, uncacheable pair queries (overload + cluster phases).

    Every request is unique (distinct node pairs), so neither the LRU
    result cache nor in-flight coalescing can absorb the flood — each one
    is real work the bounded queue has to admit or shed.  ``datasets`` is
    an interleave pattern and may repeat names to weight them (e.g. three
    ``dolphin`` entries per ``karate`` keeps the flood compute-bound while
    still putting load on every node of a cluster that spreads the
    datasets over its hosts); each name draws from its own stream of
    distinct pairs regardless of how often it appears.
    """
    streams: dict[str, tuple[list, list]] = {}
    for name in datasets:
        if name in streams:
            continue
        nodes = sorted(load_dataset(name).graph.nodes(), key=repr)
        pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
        streams[name] = (pairs, nodes)
    cursors = {name: 0 for name in streams}
    requests = []
    position = 0
    while len(requests) < count:
        name = datasets[position % len(datasets)]
        pairs, nodes = streams[name]
        cursor = cursors[name]
        if cursor >= len(pairs):
            raise ValueError(f"dataset {name!r} has too few node pairs for {count} requests")
        cursors[name] = cursor + 1
        i, j = pairs[cursor]
        requests.append((name, "huang2015", [nodes[i], nodes[j]]))
        position += 1
    return requests


def reference_results(requests):
    """Run every request on the mutable dict graph (the reference path)."""
    graphs = {name: load_dataset(name).graph for name in {r[0] for r in requests}}
    return [
        run_algorithm(algorithm, graphs[dataset], nodes)
        for dataset, algorithm, nodes in requests
    ]


def run_per_query(requests, graphs):
    """The per-query baseline: fresh dict-path execution, request by request.

    ``graphs`` is built by the caller, outside the timed region — the served
    side loads datasets at server startup (also untimed), so including
    ``load_dataset`` here would inflate the baseline.
    """
    latencies = []
    for dataset, algorithm, nodes in requests:
        start = time.perf_counter()
        run_algorithm(algorithm, graphs[dataset], nodes)
        latencies.append(time.perf_counter() - start)
    return latencies


# ----------------------------------------------------------------------------
# load generation (all traffic through the keep-alive client pool)
# ----------------------------------------------------------------------------


def run_closed_loop(pool: ServingClientPool, requests, clients: int):
    """Each client thread replays the workload back-to-back (rotated start)."""
    all_latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[str] = []

    def worker(index: int) -> None:
        offset = (index * len(requests)) // clients
        rotated = requests[offset:] + requests[:offset]
        try:
            for dataset, algorithm, nodes in rotated:
                start = time.perf_counter()
                response = pool.query(dataset, algorithm, nodes)
                all_latencies[index].append(time.perf_counter() - start)
                if not response["ok"]:
                    errors.append(f"{dataset}/{algorithm}{nodes}: {response['error']}")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"load generation failed: {errors[:3]}")
    return wall, [latency for per_client in all_latencies for latency in per_client]


def run_open_loop(pool: ServingClientPool, requests, clients: int, rate: float):
    """Dispatch at a fixed aggregate rate; latency includes queueing delay.

    Request ``i`` is *scheduled* at ``start + i / rate`` and handed to one of
    ``clients`` workers round-robin; a worker that falls behind sends as fast
    as it can, so latencies reflect the backlog an overloaded server builds.
    """
    total = list(requests) * clients
    all_latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[str] = []
    start = time.perf_counter() + 0.05  # small lead so worker 0 isn't late

    def worker(index: int) -> None:
        try:
            for position in range(index, len(total), clients):
                dataset, algorithm, nodes = total[position]
                scheduled = start + position / rate
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                response = pool.query(dataset, algorithm, nodes)
                all_latencies[index].append(time.perf_counter() - scheduled)
                if not response["ok"]:
                    errors.append(f"{dataset}/{algorithm}{nodes}: {response['error']}")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"load generation failed: {errors[:3]}")
    return wall, [latency for per_client in all_latencies for latency in per_client]


def run_flood(pool: ServingClientPool, requests, clients: int):
    """Flood distinct queries through the pool; returns per-request outcomes.

    Unlike the closed/open loops this tolerates non-ok responses (an
    exhausted retry budget) and reports them, because the whole point of
    the overload phase is to count what got shed and what recovered.
    """
    outcomes: list[bool] = []
    lock = threading.Lock()
    failures: list[str] = []

    def worker(index: int) -> None:
        try:
            for position in range(index, len(requests), clients):
                dataset, algorithm, nodes = requests[position]
                response = pool.query(
                    dataset, algorithm, nodes, max_retries=OVERLOAD_RETRIES
                )
                with lock:
                    outcomes.append(bool(response.get("ok")))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            with lock:
                failures.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError(f"overload phase failed: {failures[:3]}")
    return outcomes


def run_overload_phase(server_config: dict):
    """Stand up a tiny-queue server, flood it, and report the counters.

    The queue bound is always :data:`OVERLOAD_MAX_QUEUE` regardless of the
    caller's ``--max-queue``: with ``OVERLOAD_CLIENTS`` closed-loop clients
    the queue depth can never exceed the client count, so only a bound
    below it guarantees the sheds this phase exists to measure.
    """
    flood_requests = build_flood(count=OVERLOAD_CLIENTS * 20)
    config = dict(server_config)
    config["max_queue"] = OVERLOAD_MAX_QUEUE
    server = ServerProcess(("dolphin",), **config)
    try:
        with ServingClientPool(HOST, server.port, size=OVERLOAD_CLIENTS) as pool:
            outcomes = run_flood(pool, flood_requests, clients=OVERLOAD_CLIENTS)
            with ServingClient(HOST, server.port) as client:
                shard_stats = client.stats()["shards"]["dolphin"]
            counters = pool.counters()
    finally:
        exit_code = server.shutdown()
    return {
        "max_queue": config["max_queue"],
        "requests": len(outcomes),
        "succeeded": sum(outcomes),
        "failed": len(outcomes) - sum(outcomes),
        "server_shed": shard_stats["shed"],
        "server_retried": shard_stats["retried"],
        "client_retries": counters["retries"],
        "client_overloaded_responses": counters["overloaded_responses"],
        "client_exhausted": counters["exhausted"],
        "clean_shutdown": exit_code == 0,
    }


#: the sampling rates the trace-overhead phase compares: off (the seed
#: fast path), production-style 1%, and everything-sampled
TRACE_OVERHEAD_SAMPLES = (0.0, 0.01, 1.0)


def run_trace_overhead_phase(server_config: dict, clients: int):
    """Measure what request tracing costs on a warm closed loop.

    The same workload is replayed against three fresh servers — sampling
    off, 1% and 100% — after a warm-up pass, so the comparison is LRU-hit
    heavy (the worst case for tracing overhead: the admission span is the
    only real work a cache hit does).  The numbers ride the JSON record
    and are **never asserted**: tracing-off must merely stay the obvious
    baseline when a human reads the report.
    """
    requests = build_workload(0.5, datasets=("karate",))
    results = {}
    for sample in TRACE_OVERHEAD_SAMPLES:
        config = dict(server_config, max_queue=0)
        config.pop("trace_sample", None)
        if sample:
            config["trace_sample"] = sample
        server = ServerProcess(("karate",), **config)
        try:
            with ServingClientPool(HOST, server.port, size=clients) as pool:
                run_closed_loop(pool, requests, clients)  # warm the caches
                walls = []
                latencies: list[float] = []
                for _ in range(3):
                    wall, replay = run_closed_loop(pool, requests, clients)
                    walls.append(wall)
                    latencies.extend(replay)
        finally:
            server.shutdown()
        results[f"sample_{sample}"] = {
            "wall_seconds": round(statistics.median(walls), 4),
            "p50_ms": percentile_ms(latencies, 0.50),
            "p95_ms": percentile_ms(latencies, 0.95),
            "requests": len(requests) * clients,
        }
    baseline = results["sample_0.0"]["wall_seconds"]
    for block in results.values():
        block["vs_off"] = round(block["wall_seconds"] / baseline, 3) if baseline else None
    return results


def percentile_ms(latencies, fraction: float) -> float:
    """Nearest-rank percentile of a latency sample (0 when empty), in ms."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return round(ordered[rank - 1] * 1000.0, 3)


# ----------------------------------------------------------------------------
# the multi-host cluster phases (--cluster N)
# ----------------------------------------------------------------------------

#: heartbeat cadence for the bench clusters: fast enough that a killed
#: node fails over within a couple of seconds, tolerant enough that a
#: *healthy* node saturating a small CI box does not get falsely declared
#: dead between heartbeats (client-side failover does not wait for this —
#: a connection error quarantines the dead node immediately)
CLUSTER_HEARTBEAT_INTERVAL = 0.25
CLUSTER_HEARTBEAT_TIMEOUT = 2.0
CLUSTER_REPLICATION = 2


def start_cluster(node_count: int, datasets=SMALL_DATASETS, replication=CLUSTER_REPLICATION):
    """Stand up a coordinator + ``node_count`` joined node subprocesses.

    Blocks until the routing table covers every dataset with the expected
    replica count (capped by the node count), so the caller never races
    the registration heartbeats.
    """
    coordinator = CoordinatorProcess(
        datasets,
        replication=replication,
        heartbeat_interval=CLUSTER_HEARTBEAT_INTERVAL,
        heartbeat_timeout=CLUSTER_HEARTBEAT_TIMEOUT,
    )
    nodes = []
    try:
        nodes = [
            ServerProcess((datasets[0],), join=coordinator.address)
            for _ in range(node_count)
        ]
        want = min(replication, node_count)
        deadline = time.perf_counter() + 30.0
        with ServingClient(HOST, coordinator.port) as control:
            while True:
                table = control.request({"op": "route_table"})["table"]
                if all(len(table.get(name, ())) >= want for name in datasets):
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"cluster did not converge; table: {table}")
                time.sleep(0.05)
    except BaseException:
        for node in nodes:
            node.kill()
        coordinator.shutdown()
        raise
    return coordinator, nodes


def stop_cluster(coordinator: CoordinatorProcess, nodes) -> bool:
    """Shut the surviving processes down cleanly; True if all exited 0."""
    clean = True
    for node in nodes:
        if node.proc.poll() is None:
            clean &= node.shutdown() == 0
    clean &= coordinator.shutdown() == 0
    return clean


def run_cluster_load(
    client: ClusterClient, requests, clients: int, on_response=None, striped: bool = False
):
    """Replay the workload through the cluster client from ``clients`` threads.

    Two shapes share this harness: the default replays the *whole* list per
    thread with rotated starts (the parity/failover phase — duplicates
    exercise caching and coalescing), while ``striped`` partitions it into
    **disjoint** per-thread stripes (positions ``i, i+C, i+2C, ...``) so
    with distinct requests the aggregate rate is genuine *execution*
    throughput.  Returns ``(wall_seconds, [(request, response), ...])``;
    raises if any thread died (individual non-ok responses are the
    caller's to judge).  ``on_response`` (if given) is called after every
    completed request — the failover phase uses it to trigger the node
    kill mid-load.
    """
    outcomes: list[tuple[tuple, dict]] = []
    errors: list[str] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        if striped:
            own = [requests[position] for position in range(index, len(requests), clients)]
        else:
            offset = (index * len(requests)) // clients
            own = requests[offset:] + requests[:offset]
        try:
            for request in own:
                dataset, algorithm, nodes = request
                response = client.query(dataset, algorithm, nodes)
                with lock:
                    outcomes.append((request, response))
                if on_response is not None:
                    on_response(len(outcomes))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"cluster load generation failed: {errors[:3]}")
    return wall, outcomes


def check_cluster_parity(outcomes, reference_of, check) -> None:
    """Every served response must be ok and bit-identical to the reference."""
    for (dataset, algorithm, nodes), response in outcomes:
        label = f"cluster {dataset}/{algorithm}{nodes}"
        if not response.get("ok"):
            check(f"{label}: {response.get('error')}", False)
            continue
        reference = reference_of[(dataset, algorithm, tuple(nodes))]
        failed = bool(reference.extra.get("failed")) or not reference.nodes
        check(f"{label} failed-flag", response["failed"] == failed)
        check(f"{label} nodes", response["nodes"] == sorted(reference.nodes, key=repr))
        if failed:
            check(f"{label} score", response["score"] is None)
        else:
            check(f"{label} score", response["score"] == reference.score)


def run_cluster_failover_phase(node_count: int, scale: float, check) -> dict:
    """Coordinator + N nodes; one node is **killed mid-load**.

    Asserts through ``check``: every request (including those in flight at
    kill time) completes bit-identically to the dict reference via the
    surviving replicas, the client refetched the routing table, the
    table version advanced past the pre-kill version, and the survivors
    shut down cleanly.
    """
    requests = build_workload(min(scale, 1.0), algorithms=PARITY_ALGORITHMS)
    reference_of = {
        (dataset, algorithm, tuple(nodes)): result
        for (dataset, algorithm, nodes), result in zip(
            requests, reference_results(requests)
        )
    }
    coordinator, nodes = start_cluster(node_count)
    killed = {"done": False}
    try:
        with ClusterClient(
            HOST, coordinator.port, pool_size=4, failover_timeout=30.0
        ) as client:
            version_before = client.table_version
            fetches_before = client.table_fetches
            # the victim must actually hold assignments (with more nodes
            # than replica slots some node may own nothing — killing that
            # one would exercise neither failover nor a version bump)
            assigned = {
                address
                for name in SMALL_DATASETS
                for address in client.owners(name)
            }
            victim = next(node for node in reversed(nodes) if node.address in assigned)

            def kill_mid_load(completed: int) -> None:
                # kill one node once a third of the workload has been served:
                # plenty of requests are still in flight or unsent, so the
                # failover path (connection error -> quarantine -> refetch ->
                # surviving replica) is exercised under real load
                if not killed["done"] and completed >= len(requests):
                    killed["done"] = True
                    victim.kill()

            wall, outcomes = run_cluster_load(
                client, requests, clients=3, on_response=kill_mid_load
            )
            check("cluster-node-killed", killed["done"])
            check("cluster-all-served", len(outcomes) == 3 * len(requests))
            check_cluster_parity(outcomes, reference_of, check)
            check("cluster-failover-observed", client.failovers >= 1)
            check("cluster-table-refetched", client.table_fetches > fetches_before)
            # the coordinator's sweep declares the killed node dead and
            # publishes a repaired table.  Poll for convergence: the version
            # advances and exactly one node is gone (a *healthy* node can be
            # transiently declared dead under full-machine load and rejoins
            # on its next heartbeat, so a one-shot liveness check is racy)
            deadline = time.perf_counter() + 15.0
            live = -1
            while time.perf_counter() < deadline:
                client.refresh_table()
                live = client.coordinator_stats()["live_nodes"]
                if client.table_version > version_before and live == node_count - 1:
                    break
                time.sleep(0.1)
            check("cluster-version-advanced", client.table_version > version_before)
            check("cluster-killed-node-evicted", live == node_count - 1)
            table = client.coordinator_stats()["assignments"]
            counters = client.counters()
    finally:
        # stop_cluster skips already-dead processes, so the killed node is
        # not "shut down" twice and a pre-kill crash still cleans up fully
        clean = stop_cluster(coordinator, nodes)
    check("cluster-clean-shutdown", clean)
    return {
        "node_count": node_count,
        "requests": len(requests) * 3,
        "wall_seconds": round(wall, 3),
        "failovers": counters["failovers"],
        "table_fetches": counters["table_fetches"],
        "final_version": counters["table_version"],
        "assignments": table,
        "clean_shutdown": clean,
    }


def run_cluster_throughput(node_count: int, batches, clients: int, dataset: str) -> float:
    """Median wall time of the distinct-query batches on a fresh cluster.

    The scenario is a **hot dataset replicated on every node** (PR 4's
    replicate-hot-shards story, now across hosts): all ``node_count``
    processes own ``dataset`` and the cache-affine client spreads the
    distinct queries over them.  Each replay consumes its own batch of
    never-seen queries (replaying one batch would measure the LRU cache,
    not the cluster), so the median is over genuinely cold, compute-bound
    closed-loop runs.
    """
    coordinator, nodes = start_cluster(
        node_count, datasets=(dataset,), replication=node_count
    )
    try:
        with ClusterClient(HOST, coordinator.port, pool_size=clients) as client:
            # untimed warmup: touch every owner directly so the lazy shard
            # loads (dataset build + freeze, paid once per node) stay out
            # of the measurement — the single-host bench likewise loads
            # datasets at server startup, outside timing
            for address in client.owners(dataset):
                response = client._pool(address).query(dataset, "kc", [0])
                assert response["ok"], response
            walls = []
            for batch in batches:
                wall, outcomes = run_cluster_load(client, batch, clients, striped=True)
                bad = [response for _, response in outcomes if not response.get("ok")]
                if bad or len(outcomes) != len(batch):
                    raise RuntimeError(f"cluster throughput run failed: {bad[:3]}")
                walls.append(wall)
    finally:
        clean = stop_cluster(coordinator, nodes)
    if not clean:
        raise RuntimeError("cluster throughput run did not shut down cleanly")
    return statistics.median(walls)


def run_cluster(
    node_count: int,
    scale: float,
    parity_only: bool,
    clients: int,
    json_path: str | None,
) -> int:
    """The ``--cluster N`` mode: failover parity smoke (+ scaling timings)."""
    if node_count < 2:
        raise SystemExit("--cluster needs at least 2 nodes (one gets killed)")
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    failover = run_cluster_failover_phase(node_count, scale, check)
    if failures:
        print(f"CLUSTER FAILURES ({len(failures)}):")
        for failure in failures[:20]:
            print(f"  - {failure}")
        return 1
    print(
        f"cluster parity ok: {failover['requests']} requests against "
        f"{node_count} nodes with one killed mid-load; all completed "
        f"bit-identical via failover ({failover['failovers']} failovers, "
        f"{failover['table_fetches']} table fetches, final routing version "
        f"{failover['final_version']}); clean shutdown"
    )
    if parity_only:
        return 0

    # throughput scaling: closed-loop floods of *distinct* (uncacheable)
    # decomposition-heavy huang2015 queries against a hot dataset that is
    # replicated on 1 node and then on all N nodes — execution throughput,
    # the axis that scales with node processes.  Six disjoint batches so
    # every replay on both clusters is genuinely cold.
    batch_size = max(60, int(60 * scale))
    flood = build_flood(count=batch_size * 6)
    batches = [flood[i * batch_size : (i + 1) * batch_size] for i in range(6)]
    total = batch_size  # per measured replay
    single_wall = run_cluster_throughput(1, batches[:3], clients, "dolphin")
    multi_wall = run_cluster_throughput(node_count, batches[3:], clients, "dolphin")
    rows = [
        (
            f"cluster cold flood x{clients} ({total} reqs)",
            single_wall,
            multi_wall,
        )
    ]
    print_table(rows)
    single_throughput = total / single_wall
    multi_throughput = total / multi_wall
    cores = os.cpu_count() or 1
    print()
    print(
        f"cluster execution throughput (x{clients} clients, distinct "
        f"uncacheable queries on a hot dataset replicated on every node): "
        f"1 node {single_throughput:,.0f} req/s, "
        f"{node_count} nodes {multi_throughput:,.0f} req/s "
        f"({multi_throughput / single_throughput:.2f}x on {cores} core(s); "
        f"each node is an independent process, so capacity grows with "
        f"hosts x cores)"
    )
    if json_path:
        append_json(
            json_path,
            bench="serving",
            scale=scale,
            rows=rows,
            parity=True,
            clients=clients,
            mode="cluster-closed",
            cluster={
                "node_count": node_count,
                "replication": "one replica per node (hot dataset)",
                "cores": cores,
                "distinct_requests_per_replay": total,
                "throughput_req_per_s": {
                    "one_node": round(single_throughput, 1),
                    "n_nodes": round(multi_throughput, 1),
                    "scaling": round(multi_throughput / single_throughput, 2),
                },
                "failover": failover,
            },
        )
    return 0


# ----------------------------------------------------------------------------
# the zero-copy memory phase (process executor only)
# ----------------------------------------------------------------------------

#: the dataset the memory comparison freezes: the largest bundled surrogate,
#: so the snapshot cost dominates measurement noise
MEMORY_DATASET = "livejournal"


#: run in a fresh interpreter: load one private worker payload (read
#: pickled from stdin) exactly as a worker whose host could not share the
#: snapshot does, and print the load report as JSON
_PRIVATE_LOAD_CHILD = """
import json, pickle, sys
from repro.serving.executor import _load_published
loaded = _load_published(pickle.load(sys.stdin.buffer))
json.dump(loaded[2], sys.stdout)
"""


def measure_private_worker(dataset: str) -> tuple[dict, int]:
    """The private-snapshot fallback worker's load report for ``dataset``.

    A worker falls back to a private snapshot when the host cannot export
    the shared one; it then receives a pickled copy and runs
    :func:`repro.serving.executor._load_published` on it.  This runs that
    same load in a spawned interpreter (imports as a worker's, nothing
    else) and returns ``(info, exit_code)``; ``info`` carries the
    ``snapshot`` mode, ``rss_kb`` and the ``snapshot_rss_kb`` the load cost.
    """
    from repro.graph import freeze
    from repro.serving.executor import Published

    # nothing is exported for an inline Published, so its worker payload is
    # the private copy a fallback worker gets
    frozen = freeze(load_dataset(dataset).graph)
    payload = Published(frozen, executor="inline").worker_payload()
    child = subprocess.run(
        [sys.executable, "-c", _PRIVATE_LOAD_CHILD],
        input=pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        capture_output=True,
        env=_subprocess_env(),
        timeout=300,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr.decode(errors="replace"))
        return {}, child.returncode
    return json.loads(child.stdout), 0


def run_memory_phase(check) -> dict:
    """Prove the zero-copy claim with resident-set numbers.

    Compares one **private** worker on :data:`MEMORY_DATASET` (the
    fallback path: the worker loads its own pickled copy, measured by
    :func:`measure_private_worker`) with a real server's two **shared**
    process replicas (the workers attach the host's segment).  Each
    worker reports its post-snapshot VmRSS and the RSS delta the snapshot
    itself cost (``snapshot_rss_kb``); the phase asserts

    * both shared attaches *together* cost less resident memory than one
      private load (the snapshot bytes live once, in the segment), and
    * the two shared workers' total RSS stays well under 2x the single
      private worker's.

    On platforms without ``/proc`` RSS introspection (or where shared
    memory is unavailable and the server fell back to private snapshots)
    the assertions are skipped with a note — the numbers are the point,
    and absent numbers must not fail unrelated platforms.
    """
    private_worker, exit_code = measure_private_worker(MEMORY_DATASET)
    check("memory-private-child-exit", exit_code == 0)
    server = ServerProcess((MEMORY_DATASET,), replicas=["2"], executor="process")
    try:
        with ServingClient(HOST, server.port) as client:
            shard = client.stats()["shards"][MEMORY_DATASET]
    finally:
        check("memory-shared-clean-shutdown", server.shutdown() == 0)
    shared_workers = [replica["executor"] for replica in shard["replicas"]]
    private_mode, shared_mode = private_worker.get("snapshot"), shard["snapshot"]

    report = {
        "dataset": MEMORY_DATASET,
        "private_mode": private_mode,
        "shared_mode": shared_mode,
        "private_worker": private_worker,
        "shared_workers": shared_workers,
    }
    check("memory-private-mode", private_mode == "private")
    rss_values = [worker.get("rss_kb") for worker in [private_worker, *shared_workers]]
    if shared_mode != "shared":
        report["skipped"] = "shared memory unavailable; server fell back to private"
        print(f"memory phase skipped: {report['skipped']}")
        return report
    if any(value is None for value in rss_values):
        report["skipped"] = "worker RSS not measurable on this platform (no /proc)"
        print(f"memory phase skipped: {report['skipped']}")
        return report

    private_snapshot = max(0, private_worker.get("snapshot_rss_kb") or 0)
    shared_snapshot = sum(
        max(0, worker.get("snapshot_rss_kb") or 0) for worker in shared_workers
    )
    private_rss = private_worker["rss_kb"]
    shared_rss = sum(worker["rss_kb"] for worker in shared_workers)
    report["private_snapshot_kb"] = private_snapshot
    report["shared_snapshot_kb_total"] = shared_snapshot
    report["private_rss_kb"] = private_rss
    report["shared_rss_kb_total"] = shared_rss
    report["rss_ratio_vs_2x_private"] = round(shared_rss / (2 * private_rss), 3)
    # the private freeze must be measurable at all for the comparison to
    # mean anything; livejournal's snapshot is tens of MB, far above noise
    check("memory-private-snapshot-measurable", private_snapshot > 1024)
    check("memory-shared-attach-cheaper", shared_snapshot < private_snapshot)
    check("memory-under-2x", shared_rss < 2 * private_rss)
    print(
        f"memory: private worker snapshot {private_snapshot} KiB "
        f"(RSS {private_rss} KiB); 2 shared workers attach for "
        f"{shared_snapshot} KiB total (RSS {shared_rss} KiB = "
        f"{report['rss_ratio_vs_2x_private']:.2f} of the 2x-private budget)"
    )
    return report


# ----------------------------------------------------------------------------
# parity smoke (the CI mode)
# ----------------------------------------------------------------------------


def run_parity(scale: float, server_config: dict, json_path: str | None = None) -> int:
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    requests = build_workload(min(scale, 1.0), algorithms=PARITY_ALGORITHMS)
    references = reference_results(requests)
    segments_before = live_snapshot_segments()
    # with --index the smoke serves kc/kt/hightruss from freshly built
    # index files; everything else (and every malformed request) must keep
    # its executed-path behaviour bit-for-bit
    index_mode = server_config.get("index")
    server_config, index_tmp = prepare_index_dir(server_config, SMALL_DATASETS)
    index_stats = None
    server = ServerProcess(SMALL_DATASETS, **server_config)
    try:
        with ServingClientPool(HOST, server.port, size=4) as pool, ServingClient(
            HOST, server.port
        ) as client:
            check("ping", client.ping() == {"ok": True, "op": "ping"})
            for (dataset, algorithm, nodes), reference in zip(requests, references):
                response = pool.query(dataset, algorithm, nodes)
                label = f"{dataset}/{algorithm}{nodes}"
                if not response["ok"]:
                    check(f"{label}: {response['error']}", False)
                    continue
                failed = bool(reference.extra.get("failed")) or not reference.nodes
                check(f"{label} failed-flag", response["failed"] == failed)
                check(f"{label} nodes", response["nodes"] == sorted(reference.nodes, key=repr))
                check(f"{label} size", response["size"] == reference.size)
                if failed:
                    check(f"{label} score", response["score"] is None)
                else:
                    # exact float equality: the JSON round-trip is repr-exact
                    # and the CSR backend is bit-identical to the dict path
                    check(f"{label} score", response["score"] == reference.score)

            # duplicate request comes back from the LRU result cache
            dataset, algorithm, nodes = requests[0]
            check("cached-repeat", pool.query(dataset, algorithm, nodes)["cached"])

            # structured errors, all on a connection that must stay alive
            check(
                "unknown-dataset",
                client.query("atlantis", "kt", [0])["error"]["code"] == "unknown_dataset",
            )
            check(
                "unknown-algorithm",
                client.query("karate", "quantum", [0])["error"]["code"] == "unknown_algorithm",
            )
            check(
                "bad-query-node",
                client.query("karate", "kt", [10**9])["error"]["code"] == "bad_query",
            )
            check(
                "malformed-json",
                client.send_raw(b"{not json")["error"]["code"] == "bad_request",
            )
            check("alive-after-errors", client.ping()["ok"])

            stats = client.stats()
            check("stats-shards", set(SMALL_DATASETS) <= set(stats["shards"]))
            check("stats-hits", stats["totals"]["cache_hits"] >= 1)
            check("stats-executed", stats["totals"]["executed"] >= len(requests) - 1)
            # the placement/replication schema dashboards rely on
            check("stats-placement", "placement" in stats)
            # the snapshot mode workers actually run with: 'shared' must be
            # *effective* for the process executor wherever shared memory
            # exists — a silent fallback here would void the zero-copy story
            # CI gates
            expect_shared = (
                server_config.get("executor") == "process" and shared_memory_available()
            )
            for name in SMALL_DATASETS:
                shard = stats["shards"][name]
                check(f"stats-{name}-replicas", len(shard["replicas"]) == shard["replica_count"])
                check(
                    f"stats-{name}-admission",
                    all(key in shard for key in ("shed", "retried", "max_queue")),
                )
                if server_config.get("executor"):
                    check(
                        f"stats-{name}-executor",
                        shard["executor"] == server_config["executor"],
                    )
                check(f"stats-{name}-snapshot", shard["snapshot"] in ("shared", "private"))
                if expect_shared:
                    check(f"stats-{name}-snapshot-shared", shard["snapshot"] == "shared")
                check(f"stats-{name}-index-block", "index" in shard)
                if index_mode == "require":
                    check(
                        f"stats-{name}-indexed",
                        shard["index"]["effective"] == "indexed",
                    )
            if index_mode and index_mode != "off":
                # the whole point of the index smoke: queries actually hit it
                check("stats-index-hits", stats["totals"]["index_hits"] > 0)
                index_stats = {
                    "mode": index_mode,
                    "hits": stats["totals"]["index_hits"],
                }
    finally:
        exit_code = server.shutdown()
    check("clean-shutdown", exit_code == 0)

    # with a bounded queue the smoke also exercises shedding + pool retry
    # against a dedicated tiny-queue server (distinct uncacheable queries)
    overload = None
    if server_config.get("max_queue"):
        overload = run_overload_phase(server_config)
        check("overload-all-succeeded", overload["failed"] == 0)
        check("overload-shed-nonzero", overload["server_shed"] > 0)
        check("overload-server-saw-retries", overload["server_retried"] > 0)
        check("overload-client-retried", overload["client_retries"] > 0)
        check("overload-clean-shutdown", overload["clean_shutdown"])

    # the zero-copy proof: worker RSS numbers for private-vs-shared snapshots
    memory = None
    if server_config.get("executor") == "process":
        memory = run_memory_phase(check)

    if index_tmp is not None:
        shutil.rmtree(index_tmp, ignore_errors=True)

    # every server in this run (parity, overload, memory) is down now: any
    # surviving repro_snap_* segment — snapshot or index — is an owner that
    # failed to unlink, exactly the leak class the shared lifecycle must
    # prevent
    leaked = sorted(live_snapshot_segments() - segments_before)
    check(f"leaked-shared-memory-segments: {leaked}", not leaked)

    if json_path:
        append_json(
            json_path,
            bench="serving",
            scale=scale,
            rows=[],
            parity=not failures,
            mode="parity",
            server_config={
                "replicas": server_config.get("replicas") or ["1"],
                "executor": server_config.get("executor") or "inline",
                "index": index_mode or "auto",
            },
            distinct_requests=len(requests),
            leaked_segments=leaked,
            memory=memory,
            admission=overload,
            index=index_stats,
        )

    if failures:
        print(f"PARITY FAILURES ({len(failures)}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"parity ok: {len(requests)} served requests identical to the dict "
        f"reference path; errors structured; clean shutdown; no leaked "
        f"shared-memory segments"
    )
    if index_stats is not None:
        print(
            f"index ok: mode {index_stats['mode']}, "
            f"{index_stats['hits']} queries answered from the community index"
        )
    if overload is not None:
        print(
            f"overload ok: {overload['requests']} distinct queries against "
            f"max_queue={overload['max_queue']}; {overload['server_shed']} shed, "
            f"{overload['client_retries']} client retries, all recovered"
        )
    return 0


# ----------------------------------------------------------------------------
# main
# ----------------------------------------------------------------------------


def run(
    scale: float = 1.0,
    parity_only: bool = False,
    json_path: str | None = None,
    clients: int = 4,
    mode: str = "closed",
    rate: float = 200.0,
    server_config: dict | None = None,
    cluster: int | None = None,
) -> int:
    server_config = server_config or {}
    if cluster is not None:
        return run_cluster(cluster, scale, parity_only, clients, json_path)
    if parity_only:
        return run_parity(scale, server_config, json_path)

    requests = build_workload(scale) + build_workload(
        scale, datasets=(HEAVY_DATASET,), algorithms=HEAVY_ALGORITHMS
    )
    multiset = list(requests) * clients
    print(
        f"workload: {len(requests)} distinct requests over {len(MEASURE_DATASETS)} datasets; "
        f"{clients} clients ({mode}-loop)"
    )

    # per-query reference path (sequential dict-graph execution, no caching)
    graphs = {name: load_dataset(name).graph for name in {r[0] for r in requests}}
    per_query_cold_seconds, per_query_cold_latencies = _time(
        lambda: run_per_query(requests, graphs), repeat=3
    )
    per_query_multi_seconds, per_query_multi_latencies = _time(
        lambda: run_per_query(multiset, graphs), repeat=3
    )

    # the measured server keeps the queue unbounded (shedding would distort
    # throughput numbers); the dedicated overload phase below bounds it
    measured_config = dict(server_config)
    measured_config["max_queue"] = 0
    server = ServerProcess(MEASURE_DATASETS, **measured_config)
    try:
        # spot parity before timing anything: served == dict reference
        with ServingClient(HOST, server.port) as client:
            parity = True
            for dataset, algorithm, nodes in requests[:: max(1, len(requests) // 5)]:
                response = client.query(dataset, algorithm, nodes)
                reference = run_algorithm(algorithm, load_dataset(dataset).graph, nodes)
                parity &= response["ok"] and response["nodes"] == sorted(
                    reference.nodes, key=repr
                )

        # served, cold: one client streams the distinct workload once against
        # the (result-cache-cold) server.  Measured once by construction — a
        # second pass would be answered from the LRU cache.  The spot-parity
        # requests above warmed a few entries; exclude them from the cold
        # numbers by restarting the server.
        exit_code = server.shutdown()
        if exit_code != 0:
            print(f"WARNING: parity server exited with code {exit_code}")
        server = ServerProcess(MEASURE_DATASETS, **measured_config)
        with ServingClientPool(HOST, server.port, size=1) as cold_pool:
            served_cold_wall, served_cold_latencies = run_closed_loop(
                cold_pool, requests, clients=1
            )

        # served, multi-client steady state: C clients replay the workload
        # concurrently (closed-loop) or at a fixed aggregate rate (open-loop);
        # median of 3 replays against the now-warm shards.  One shared
        # keep-alive pool across all replays: no per-replay connect cost.
        walls = []
        served_multi_latencies: list[float] = []
        with ServingClientPool(HOST, server.port, size=clients) as pool:
            for _ in range(3):
                if mode == "open":
                    wall, latencies = run_open_loop(pool, requests, clients, rate)
                else:
                    wall, latencies = run_closed_loop(pool, requests, clients)
                walls.append(wall)
                served_multi_latencies.extend(latencies)
        served_multi_wall = statistics.median(walls)

        with ServingClient(HOST, server.port) as client:
            server_stats = client.stats()
    finally:
        exit_code = server.shutdown()
    if exit_code != 0:
        print(f"SERVER FAILURE: exit code {exit_code}")
        return 1

    # the admission-control story: tiny queue, distinct queries, pool retry
    overload = run_overload_phase(server_config)

    # the precomputed-index story: the same cold decomposition-heavy
    # queries, executed vs served as window scans over the index
    index_rows, index_report = run_index_phase(scale, server_config)

    # the observability story: what span recording costs at 0% / 1% / 100%
    # sampling on a warm (cache-hit heavy) loop; recorded, never asserted
    trace_overhead = run_trace_overhead_phase(server_config, clients)

    rows = [
        (f"cold x1 client ({len(requests)} reqs)", per_query_cold_seconds, served_cold_wall),
        (
            f"{mode}-loop x{clients} clients ({len(multiset)} reqs)",
            per_query_multi_seconds,
            served_multi_wall,
        ),
    ] + index_rows
    print_table(rows)
    print()
    print(f"{'latency (ms)':<36}{'p50':>10}{'p95':>10}")
    latency_rows = [
        ("per-query path (cold workload)", per_query_cold_latencies),
        ("served (cold workload)", served_cold_latencies),
        (f"per-query path (x{clients} multiset)", per_query_multi_latencies),
        (f"served ({mode}-loop x{clients})", served_multi_latencies),
    ]
    for name, latencies in latency_rows:
        print(
            f"{name:<36}{percentile_ms(latencies, 0.50):>10.3f}"
            f"{percentile_ms(latencies, 0.95):>10.3f}"
        )
    throughput_per_query = len(multiset) / per_query_multi_seconds
    throughput_served = len(multiset) / served_multi_wall
    print()
    print(
        f"throughput (x{clients} clients): per-query {throughput_per_query:,.0f} req/s, "
        f"served {throughput_served:,.0f} req/s "
        f"({throughput_served / throughput_per_query:.2f}x); parity={parity}"
    )
    totals = server_stats["totals"]
    print(
        f"server totals: {totals['queries']} queries, {totals['executed']} executed, "
        f"{totals['cache_hits']} cache hits, {totals['coalesced']} coalesced, "
        f"{totals['batches']} batches"
    )
    print(
        f"overload phase (max_queue={overload['max_queue']}, "
        f"{OVERLOAD_CLIENTS} clients): {overload['requests']} distinct requests, "
        f"{overload['server_shed']} shed, {overload['client_retries']} client retries, "
        f"{overload['succeeded']} succeeded / {overload['failed']} failed"
    )
    print(
        f"index phase: {index_report['distinct_requests']} cold kc/kt/hightruss "
        f"queries, executed {index_report['executed_wall_seconds']}s vs indexed "
        f"{index_report['indexed_wall_seconds']}s "
        f"({index_report['speedup']:.2f}x, {index_report['index_hits']} index hits)"
    )
    print(
        "trace overhead (warm closed loop): "
        + ", ".join(
            f"{key.removeprefix('sample_')}: {block['wall_seconds']}s "
            f"({block['vs_off']}x)"
            for key, block in trace_overhead.items()
        )
    )

    overload_ok = overload["failed"] == 0 and overload["server_shed"] > 0

    if json_path:
        append_json(
            json_path,
            bench="serving",
            scale=scale,
            rows=rows,
            parity=parity,
            clients=clients,
            mode=mode,
            rate=rate if mode == "open" else None,
            server_config={
                "replicas": server_config.get("replicas") or ["1"],
                "executor": server_config.get("executor") or "inline",
            },
            distinct_requests=len(requests),
            total_requests=len(multiset),
            throughput_req_per_s={
                "per_query": round(throughput_per_query, 1),
                "served": round(throughput_served, 1),
                "speedup": round(throughput_served / throughput_per_query, 2),
            },
            latency_ms={
                name: {"p50": percentile_ms(lat, 0.50), "p95": percentile_ms(lat, 0.95)}
                for name, lat in (
                    ("per_query_cold", per_query_cold_latencies),
                    ("served_cold", served_cold_latencies),
                    ("per_query_multi", per_query_multi_latencies),
                    ("served_multi", served_multi_latencies),
                )
            },
            server_totals=totals,
            admission=overload,
            index=index_report,
            trace_overhead=trace_overhead,
        )
    return 0 if parity and overload_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_common_arguments(parser)
    parser.add_argument("--clients", type=int, default=4, help="concurrent client connections")
    parser.add_argument(
        "--mode", choices=["closed", "open"], default="closed", help="load-generation mode"
    )
    parser.add_argument(
        "--rate", type=float, default=200.0, help="aggregate request rate for --mode open (req/s)"
    )
    parser.add_argument(
        "--replicas",
        nargs="+",
        default=None,
        metavar="N|DATASET=N",
        help="forwarded to `repro serve --replicas`",
    )
    parser.add_argument(
        "--executor",
        choices=["inline", "process"],
        default=None,
        help="forwarded to `repro serve --executor`; with --parity-only and "
        "'process' the smoke also runs the zero-copy memory comparison",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="forwarded to `repro serve --max-queue`; with --parity-only a "
        "nonzero bound also runs the shedding + retry smoke",
    )
    parser.add_argument(
        "--index",
        choices=["auto", "require", "off"],
        default=None,
        help="forwarded to `repro serve --index`; with --parity-only and "
        "'require' the smoke builds index files first, serves kc/kt/"
        "hightruss from them and asserts index hits > 0 in the stats",
    )
    parser.add_argument(
        "--index-dir",
        default=None,
        help="forwarded to `repro serve --index-dir`; with --index and no "
        "dir the bench builds indexes into a temporary one",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="P",
        help="forwarded to `repro serve --trace-sample`; with --parity-only "
        "this runs every parity smoke with tracing on (the span machinery "
        "must not perturb results)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="N",
        help="multi-host mode: spawn a coordinator + N `repro serve --join` "
        "node subprocesses, kill one mid-load and assert failover parity; "
        "without --parity-only also measures closed-loop throughput "
        "scaling (1 node vs N nodes)",
    )
    args = parser.parse_args(argv)
    return run(
        scale=args.scale,
        parity_only=args.parity_only,
        json_path=args.json_path,
        clients=args.clients,
        mode=args.mode,
        rate=args.rate,
        server_config=server_config_from_args(args),
        cluster=args.cluster,
    )


if __name__ == "__main__":
    sys.exit(main())
