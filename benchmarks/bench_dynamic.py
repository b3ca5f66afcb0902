"""Dynamic-graph load generator: mutations racing queries against one server.

Stands up a **real** epochal server (``python -m repro serve --epochs`` in
a subprocess, ephemeral port) and runs two things against it at once:

* a **mutation stream** — a deterministic sequence of delta batches
  (edge inserts/deletes plus a few node ops) applied through the
  ``mutate`` wire op, each publishing the next epoch; and
* **concurrent query clients** — threads hammering kt/kc/hightruss over
  their own keep-alive connections the whole time snapshots are being
  swapped under them.

Every response carries the epoch it was answered at, and the bench holds
a from-scratch reference graph for *every* epoch, so the check is exact:

* **zero stale answers** — each response must be bit-identical to the
  dict-path reference for the epoch stamped on it (a response computed on
  epoch N but stamped N+1, or served from a pre-swap cache entry, fails);
* **epoch monotonicity** — the epochs one connection observes never go
  backwards across a snapshot swap;
* **staleness bounds** — a ``min_epoch`` at the published epoch succeeds,
  one beyond it fails with the structured ``stale_epoch`` error;
* the server shuts down cleanly and leaks no ``/dev/shm`` segments.

With ``--index require`` the parity phase also exercises the index tier
under mutation: community-index files are built first, the server binds
them to the epochal shards, every ``mutate`` response must report the
index ``rebuilt`` for the new epoch — a require-mode server never
refuses a write — and post-swap queries must
keep *hitting* the index, with the ``/dev/shm`` leak gate covering the
superseded ``repro_snap_idx_*`` segments.

With ``--executor process`` the mutations race process replicas: each
epoch is handed to the existing worker processes at an in-queue barrier,
and the run fails unless every replica reports ``restarts == 0``.

The timing phase (skipped under ``--parity-only``) compares the two
publication paths on a bigger mutation stream in-process: a from-scratch
refreeze per batch vs the incremental core/truss repair, and
times the per-epoch rebuild of a bound community index.  The wall-clock
numbers ride the JSON record and are **never** asserted.

Usage::

    python benchmarks/bench_dynamic.py                    # parity + timings
    python benchmarks/bench_dynamic.py --parity-only      # CI smoke
    python benchmarks/bench_dynamic.py --parity-only --index require
                                                          # + the index tier
                                                          # under mutation
    python benchmarks/bench_dynamic.py --parity-only --index require --executor process
                                                          # + worker processes
                                                          # kept across epochs
    python benchmarks/bench_dynamic.py --json BENCH_dynamic.json
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
import threading
import time

from _bench_util import add_common_arguments, append_json, print_table
from bench_serving import HOST, ServerProcess, build_index_files, live_snapshot_segments

from repro.datasets import load_dataset
from repro.dynamic import DeltaBatch, EpochManager
from repro.experiments.registry import run_algorithm
from repro.serving import ServingClient

#: the dataset the parity phase mutates while serving
PARITY_DATASET = "karate"
#: (algorithm, nodes, params) probes the query threads cycle through
PARITY_QUERIES = (
    ("kt", [0], {"k": 4}),
    ("kt", [33], {"k": 3}),
    ("kc", [0], {"k": 2}),
    ("kc", [16], {"k": 2}),
    ("hightruss", [0], {}),
    ("hightruss", [33], {}),
)
PARITY_EPOCHS = 8
PARITY_CLIENTS = 4


# ----------------------------------------------------------------------------
# the mutation script and its per-epoch references
# ----------------------------------------------------------------------------


def build_mutation_script(graph, epochs: int, seed: int = 17, ops_per_batch: int = 3):
    """Deterministic delta batches that never touch the probe query nodes.

    Returns ``(batches, mirrors)`` where ``mirrors[e]`` is a dict-graph copy
    equal to the graph *after* epoch ``e`` (``mirrors[0]`` is the seed) —
    the reference every served answer is checked against.
    """
    protected = {node for _, nodes, _ in PARITY_QUERIES for node in nodes}
    rng = random.Random(seed)
    mirror = graph.copy()
    mirrors = {0: graph.copy()}
    batches = []
    next_node = 10_000
    for epoch in range(1, epochs + 1):
        batch = DeltaBatch()
        for _ in range(ops_per_batch):
            roll = rng.random()
            if roll < 0.45:
                candidates = [
                    (u, v)
                    for u, v, _ in mirror.iter_edges()
                    if u not in protected and v not in protected
                ]
                if candidates:
                    u, v = rng.choice(candidates)
                    batch.remove_edge(u, v)
                    mirror.remove_edge(u, v)
            elif roll < 0.90:
                nodes = list(mirror.nodes())
                u, v = rng.sample(nodes, 2)
                if not mirror.has_edge(u, v):
                    batch.add_edge(u, v)
                    mirror.add_edge(u, v)
            else:
                batch.add_node(next_node)
                mirror.add_node(next_node)
                next_node += 1
        if not batch:  # every roll missed; keep the epoch count exact
            batch.add_node(next_node)
            mirror.add_node(next_node)
            next_node += 1
        batches.append(batch)
        mirrors[epoch] = mirror.copy()
    return batches, mirrors


def reference_answers(mirrors):
    """``references[epoch][probe_index] = (nodes, score, failed)`` — exact."""
    references = {}
    for epoch, mirror in mirrors.items():
        per_probe = []
        for algorithm, nodes, params in PARITY_QUERIES:
            result = run_algorithm(algorithm, mirror, nodes, **params)
            failed = bool(result.extra.get("failed")) or not result.nodes
            per_probe.append((sorted(result.nodes, key=repr), result.score, failed))
        references[epoch] = per_probe
    return references


# ----------------------------------------------------------------------------
# parity smoke (the CI mode)
# ----------------------------------------------------------------------------


def query_worker(port, references, stop, failures, observed):
    """Hammer the probes on one keep-alive connection until told to stop.

    Checks, per response: structured success, the answer is bit-identical
    to the reference for the epoch *stamped on it* (zero stale answers),
    and this connection's epochs never regress.
    """
    last_epoch = -1
    served = 0
    with ServingClient(HOST, port) as client:
        while not stop.is_set():
            for probe_index, (algorithm, nodes, params) in enumerate(PARITY_QUERIES):
                response = client.query(PARITY_DATASET, algorithm, nodes, **params)
                label = f"{algorithm}{nodes}"
                if not response.get("ok"):
                    failures.append(f"{label}: {response.get('error')}")
                    continue
                epoch = response.get("epoch")
                if not isinstance(epoch, int) or epoch not in references:
                    failures.append(f"{label}: unstamped or unknown epoch {epoch!r}")
                    continue
                if epoch < last_epoch:
                    failures.append(
                        f"{label}: epoch regressed {last_epoch} -> {epoch} on one connection"
                    )
                last_epoch = epoch
                expected_nodes, expected_score, expected_failed = references[epoch][
                    probe_index
                ]
                stale = (
                    response["nodes"] != expected_nodes
                    or response["failed"] != expected_failed
                    or (not expected_failed and response["score"] != expected_score)
                )
                if stale:
                    failures.append(
                        f"STALE {label} at epoch {epoch}: served "
                        f"{response['nodes']}/{response['score']}, reference "
                        f"{expected_nodes}/{expected_score}"
                    )
                served += 1
    observed.append((served, last_epoch))


def run_parity(
    scale: float,
    json_path: str | None = None,
    index_mode: str | None = None,
    executor: str | None = None,
) -> int:
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    epochs = max(PARITY_EPOCHS, int(PARITY_EPOCHS * scale))
    graph = load_dataset(PARITY_DATASET).graph
    batches, mirrors = build_mutation_script(graph, epochs)
    references = reference_answers(mirrors)
    segments_before = live_snapshot_segments()

    # with --index the mutation stream must keep the index hot: builds the
    # file first, then every epoch swap republishes the rebuilt one
    indexed = bool(index_mode) and index_mode != "off"
    server_kwargs: dict = {"epochs": True, "executor": executor}
    index_tmp = None
    if indexed:
        index_tmp = tempfile.mkdtemp(prefix="repro-bench-dynidx-")
        build_index_files((PARITY_DATASET,), index_tmp)
        server_kwargs.update(index=index_mode, index_dir=index_tmp)

    server = ServerProcess((PARITY_DATASET,), **server_kwargs)
    start = time.perf_counter()
    try:
        stop = threading.Event()
        worker_failures: list[str] = []
        observed: list[tuple[int, int]] = []
        threads = [
            threading.Thread(
                target=query_worker,
                args=(server.port, references, stop, worker_failures, observed),
            )
            for _ in range(PARITY_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        mutation_report = []
        try:
            with ServingClient(HOST, server.port) as client:
                # the mutation stream races the query threads: every batch
                # swaps the published snapshot while probes are in flight
                for position, batch in enumerate(batches, start=1):
                    response = client.request(
                        {
                            "op": "mutate",
                            "dataset": PARITY_DATASET,
                            "ops": batch.to_wire(),
                        }
                    )
                    check(f"mutate-{position}-ok", bool(response.get("ok")))
                    check(f"mutate-{position}-epoch", response.get("epoch") == position)
                    if indexed:
                        # a require-mode server must never refuse a write:
                        # the prepared epoch carries a rebuilt index
                        check(
                            f"mutate-{position}-index-maintained",
                            response.get("index") == "rebuilt",
                        )
                    mutation_report.append(
                        {
                            "epoch": response.get("epoch"),
                            "mode": response.get("mode"),
                            "ops": response.get("ops"),
                            "index": response.get("index"),
                        }
                    )
                    time.sleep(0.05)  # let the probes interleave between swaps
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - start
        failures.extend(worker_failures[:20])
        served_total = sum(served for served, _ in observed)
        check("queries-served-meaningfully", served_total >= PARITY_CLIENTS * len(PARITY_QUERIES))
        # at least one connection must have lived through a swap (seen the
        # final epoch) for the race to have been exercised at all
        check("a-connection-reached-the-final-epoch", any(last == epochs for _, last in observed))

        with ServingClient(HOST, server.port) as client:
            algorithm, nodes, params = PARITY_QUERIES[0]
            probe = {
                "op": "query",
                "dataset": PARITY_DATASET,
                "algorithm": algorithm,
                "nodes": nodes,
                "params": params,
            }
            bounded = client.request({**probe, "min_epoch": epochs})
            check("min-epoch-at-published-ok", bounded.get("ok") and bounded["epoch"] >= epochs)
            beyond = client.request({**probe, "min_epoch": epochs + 1})
            check(
                "min-epoch-beyond-is-stale-epoch",
                not beyond.get("ok") and beyond["error"]["code"] == "stale_epoch",
            )
            hits_before_probe = 0
            if indexed:
                # a probe NOT in the query workers' rotation: guaranteed
                # cache-cold, so it must reach the replicas after the final
                # swap and be answered from the rebuilt index (the hit
                # counters span every epoch, so the probe's hit is the delta)
                hits_before_probe = client.stats()["shards"][PARITY_DATASET]["index"]["hits"]
                fresh = client.query(PARITY_DATASET, "hightruss", [16])
                check("index-post-swap-query-ok", bool(fresh.get("ok")))
            stats = client.stats()
        shard = stats["shards"][PARITY_DATASET]
        check("stats-epoch-current", shard["epoch"]["current"] == epochs)
        check("stats-epoch-swaps", shard["epoch"]["swaps"] == epochs)
        check("stats-epoch-batches", shard["epoch"]["batches"] == epochs)
        check("stats-stale-rejections", shard["epoch"]["stale_rejections"] == 1)
        if executor == "process":
            # the worker processes outlive every epoch: each mutation hands
            # them the new snapshot, none is respawned
            check(
                "process-replicas-never-restarted",
                all(r["executor"].get("restarts") == 0 for r in shard["replicas"]),
            )
        if indexed:
            check("index-stays-effective", shard["index"]["effective"] == "indexed")
            check("index-hits-after-swap", shard["index"]["hits"] > hits_before_probe)
            check(
                "index-maintained-every-epoch",
                shard["epoch"]["index_rebuilds"] == epochs,
            )
    finally:
        exit_code = server.shutdown()
        if index_tmp is not None:
            shutil.rmtree(index_tmp, ignore_errors=True)
    check("clean-shutdown", exit_code == 0)

    # the epochal server republished a snapshot per mutation; every segment
    # from every superseded epoch must be gone now, not just the final one's
    leaked = sorted(live_snapshot_segments() - segments_before)
    check(f"leaked-shared-memory-segments: {leaked}", not leaked)

    if json_path:
        append_json(
            json_path,
            bench="dynamic",
            scale=scale,
            rows=[],
            parity=not failures,
            mode="parity",
            index=index_mode or "off",
            executor=executor or "inline",
            epochs=epochs,
            clients=PARITY_CLIENTS,
            responses_checked=served_total,
            wall_seconds=round(wall, 3),
            mutations=mutation_report,
            leaked_segments=leaked,
        )

    if failures:
        print(f"DYNAMIC PARITY FAILURES ({len(failures)}):")
        for failure in failures[:25]:
            print(f"  - {failure}")
        return 1
    incremental = sum(1 for entry in mutation_report if entry["mode"] == "incremental")
    print(
        f"dynamic parity ok: {epochs} epochs published ({incremental} incremental) "
        f"while {PARITY_CLIENTS} clients checked {served_total} responses — zero "
        f"stale answers, epochs monotone per connection, min_epoch bounds "
        f"enforced, clean shutdown, no leaked shared-memory segments"
    )
    if indexed:
        print(
            f"index under mutation ok: mode {index_mode}, rebuilt for all "
            f"{epochs} epochs, index stayed effective with "
            f"{shard['index']['hits']} hits"
        )
    return 0


# ----------------------------------------------------------------------------
# timings: refreeze-per-batch vs incremental repair
# ----------------------------------------------------------------------------

TIMING_DATASET = "dolphin"


def run_timings(scale: float, json_path: str | None) -> int:
    """Publish the same mutation stream both ways, in-process, and time it."""
    from repro.graph import build_index

    batch_count = max(30, int(60 * scale))
    graph = load_dataset(TIMING_DATASET).graph
    batches, _ = build_mutation_script(graph, batch_count, seed=29, ops_per_batch=1)

    def publish(threshold: int, *, indexed: bool = False) -> tuple[float, EpochManager]:
        manager = EpochManager(graph.copy(), threshold=threshold)
        if indexed:
            manager.bind_index(build_index(graph, dataset=TIMING_DATASET))
        start = time.perf_counter()
        for batch in batches:
            manager.apply(batch)
        return time.perf_counter() - start, manager

    refreeze_seconds, refreeze_manager = publish(threshold=0)
    incremental_seconds, incremental_manager = publish(threshold=64)
    assert incremental_manager.describe()["incremental_batches"] == batch_count
    assert refreeze_manager.describe()["refrozen_batches"] == batch_count

    # the index tier under the same stream: a bound community index is
    # rebuilt per epoch (on top of the refreeze path)
    rebuild_seconds, rebuild_manager = publish(threshold=0, indexed=True)
    assert rebuild_manager.describe()["index_rebuilds"] == batch_count

    rows = [
        (
            f"{TIMING_DATASET} x{batch_count} single-op epochs",
            refreeze_seconds,
            incremental_seconds,
        ),
    ]
    print_table(rows, columns=("rebuild (s)", "increm (s)"))
    print()
    print(
        f"epoch publication ({TIMING_DATASET}, {batch_count} single-edge batches): "
        f"from-scratch refreeze {refreeze_seconds:.4f}s vs incremental repair "
        f"{incremental_seconds:.4f}s "
        f"({refreeze_seconds / incremental_seconds:.2f}x); refreeze plus a "
        f"per-epoch community-index rebuild {rebuild_seconds:.4f}s; all paths "
        f"are bit-identical by construction (the parity smoke and the test "
        f"suite enforce it)"
    )
    if json_path:
        append_json(
            json_path,
            bench="dynamic",
            scale=scale,
            rows=rows,
            parity=True,
            mode="timing",
            dataset=TIMING_DATASET,
            batches=batch_count,
            per_batch_ms={
                "refreeze": round(refreeze_seconds / batch_count * 1000.0, 3),
                "incremental": round(incremental_seconds / batch_count * 1000.0, 3),
                "index_rebuild": round(rebuild_seconds / batch_count * 1000.0, 3),
            },
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_common_arguments(parser)
    parser.add_argument(
        "--index",
        choices=["auto", "require", "off"],
        default=None,
        help="forwarded to `repro serve --index`; with 'require' the parity "
        "phase builds index files first, asserts every mutation keeps the "
        "index rebuilt (never refused) and that "
        "post-swap queries still hit it",
    )
    parser.add_argument(
        "--executor",
        choices=["inline", "process"],
        default=None,
        help="forwarded to `repro serve --executor`; with 'process' the parity "
        "phase also asserts no worker process was restarted",
    )
    args = parser.parse_args(argv)
    status = run_parity(
        args.scale, args.json_path, index_mode=args.index, executor=args.executor
    )
    if status or args.parity_only:
        return status
    return run_timings(args.scale, args.json_path)


if __name__ == "__main__":
    sys.exit(main())
