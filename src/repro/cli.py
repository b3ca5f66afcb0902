"""Command-line interface: ``python -m repro <command>``.

Nine sub-commands expose the library without writing any code:

* ``datasets`` — list the built-in datasets with their Table-1 statistics;
* ``algorithms`` — list the registered community-search algorithms;
* ``search`` — run one algorithm for a query on a built-in dataset or an
  edge-list file and print the community plus its quality scores;
* ``evaluate`` — run one or more algorithms over generated query sets and
  print the aggregated NMI / ARI / runtime table (a one-dataset slice of the
  paper's accuracy figures);
* ``serve`` — run the sharded async query-serving daemon (line-delimited
  JSON over TCP; see ``repro.serving``).  With ``--join COORD`` the daemon
  becomes a **cluster node**: it registers with the coordinator, heartbeats,
  and only serves the datasets the routing table assigns to it;
* ``index`` — build (``index build``) or inspect (``index inspect``) the
  precomputed community-search index files that let ``serve`` answer
  ``kc`` / ``kt`` / ``hightruss`` queries as binary-search window scans
  instead of running decompositions (see ``repro.graph.index``);
* ``mutate`` — apply ordered graph mutations to a running ``serve
  --epochs`` daemon; the server repairs its core/truss decompositions
  incrementally and publishes the result as a new snapshot epoch (see
  ``repro.dynamic``);
* ``coordinator`` — run the cluster control plane (membership, per-host
  shard placement, failover, the versioned routing table; see
  ``repro.cluster``);
* ``top`` — show the cluster health plane: per-dataset qps, merged p50/p99
  latency, shed rate and epoch lag, aggregated by the coordinator from the
  metric summaries nodes piggyback on their heartbeats (see ``repro.obs``).

Errors are production-shaped: unknown dataset/algorithm names, bad query
nodes and invalid parameters print a one-line ``error: ...`` message to
stderr and exit with code 2 — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from typing import Optional

from .datasets import Dataset, list_datasets, load_dataset
from .experiments import (
    aggregate,
    evaluate_algorithm,
    evaluate_batch,
    format_table,
    generate_query_sets,
    get_algorithm,
    list_algorithms,
)
from .graph import GraphError, read_edge_list
from .metrics import community_ari, community_nmi
from .modularity import classic_modularity, density_modularity

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Density Modularity based Community Search (DMCS) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list built-in datasets")
    subparsers.add_parser("algorithms", help="list registered algorithms")

    search = subparsers.add_parser("search", help="run one community search")
    search.add_argument("--dataset", help="built-in dataset name", default=None)
    search.add_argument("--edge-list", help="path to a whitespace edge list", default=None)
    search.add_argument("--algorithm", default="FPA", help="algorithm name (default FPA)")
    search.add_argument(
        "--query",
        nargs="+",
        required=True,
        help="query node id(s); parsed as int when possible, and a JSON "
        "array such as '[0, 0]' names a tuple node",
    )
    search.add_argument("--k", type=int, default=None, help="k for the parameterised baselines")

    evaluate = subparsers.add_parser("evaluate", help="evaluate algorithms on a dataset")
    evaluate.add_argument("--dataset", required=True, help="built-in dataset name")
    evaluate.add_argument(
        "--algorithms", nargs="+", default=["FPA", "NCA", "kc", "kt"], help="algorithms to compare"
    )
    evaluate.add_argument("--queries", type=int, default=10, help="number of query sets")
    evaluate.add_argument("--query-size", type=int, default=1, help="query nodes per set")
    evaluate.add_argument("--seed", type=int, default=0, help="query sampling seed")
    evaluate.add_argument(
        "--engine",
        choices=["per-query", "batched"],
        default="per-query",
        help="'batched' freezes the graph once and runs every query against "
        "the shared CSR snapshot (same results, faster)",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the batched engine out over this many worker processes",
    )

    serve = subparsers.add_parser(
        "serve", help="run the async query-serving daemon (JSON lines over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--port", type=int, default=7531, help="TCP port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--datasets",
        nargs="+",
        default=["karate"],
        help="datasets to preload into shards; any other registered dataset "
        "loads lazily on its first request",
    )
    serve.add_argument(
        "--executor",
        choices=["inline", "process"],
        default="inline",
        help="execution strategy per replica: 'inline' (a thread on the "
        "shared snapshot, the default) or 'process' (one dedicated worker "
        "process per replica, attaching the host's snapshot zero-copy "
        "through shared memory where available)",
    )
    serve.add_argument(
        "--replicas",
        nargs="+",
        default=["1"],
        metavar="N|DATASET=N",
        help="replicas per shard: a default count and/or per-dataset "
        "overrides, e.g. --replicas 2 dblp=4",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="bound on queued requests per shard; beyond it requests are shed "
        "with a structured 'overloaded' error (default 0 = unbounded)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="LRU result-cache entries per shard"
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="micro-batch size limit per shard"
    )
    serve.add_argument(
        "--index",
        choices=["auto", "require", "off"],
        default="auto",
        help="precomputed community-search index: 'auto' (default) serves "
        "kc/kt/hightruss from an index file when one exists and falls back "
        "to executing otherwise, 'require' refuses to serve a dataset "
        "without a valid index, 'off' always executes",
    )
    serve.add_argument(
        "--index-dir",
        default=None,
        help="directory holding <dataset>.idx files (default: $REPRO_INDEX_DIR "
        "or ./.repro-index)",
    )
    serve.add_argument(
        "--epochs",
        action="store_true",
        help="serve epochal snapshots: every shard's state is owned by an "
        "epoch manager, responses carry an 'epoch' field, and the 'mutate' "
        "wire op (or 'repro mutate') evolves the graph by publishing new "
        "epochs (see repro.dynamic)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="P",
        help="sample this fraction of requests for distributed tracing "
        "(0.0..1.0; default 0 = off).  Sampled responses carry a trace_id "
        "whose span tree (admission, queue wait, execution — including "
        "inside worker processes — and epoch publishes) is served by the "
        "'trace' wire op (see repro.obs)",
    )
    serve.add_argument(
        "--log-json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit structured JSON logs (slow queries, request errors, "
        "worker crashes, heartbeat failures) to PATH, or stderr when the "
        "flag is given without a value",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log any query served slower than this many milliseconds as a "
        "structured slow_query event (requires --log-json to be visible)",
    )
    serve.add_argument(
        "--join",
        default=None,
        metavar="HOST:PORT",
        help="join the cluster coordinated at this address: register, "
        "heartbeat, and serve only the datasets the routing table assigns "
        "to this node (others answer with the 'not_owner' error code)",
    )
    serve.add_argument(
        "--advertise",
        default=None,
        metavar="HOST[:PORT]",
        help="the address clients should use to reach this node (defaults "
        "to --host plus the bound port; set it when the node sits behind "
        "NAT or binds 0.0.0.0)",
    )

    index = subparsers.add_parser(
        "index",
        help="build or inspect the precomputed community-search indexes",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="derive the coreness/trussness hierarchy for dataset(s) and "
        "write versioned .idx files keyed by the dataset content digest",
    )
    index_build.add_argument(
        "datasets", nargs="*", metavar="DATASET", help="built-in dataset name(s)"
    )
    index_build.add_argument(
        "--all", action="store_true", help="build indexes for every built-in dataset"
    )
    index_build.add_argument(
        "--index-dir",
        default=None,
        help="directory to write <dataset>.idx files into (default: "
        "$REPRO_INDEX_DIR or ./.repro-index)",
    )
    index_inspect = index_sub.add_parser(
        "inspect",
        help="print an index file's format version, digest, sizes and "
        "per-k community counts, verifying it against the current dataset",
    )
    index_inspect.add_argument("dataset", metavar="DATASET", help="built-in dataset name")
    index_inspect.add_argument(
        "--index-dir",
        default=None,
        help="directory holding <dataset>.idx files (default: $REPRO_INDEX_DIR "
        "or ./.repro-index)",
    )
    index_inspect.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable description (digest, region sizes, "
        "per-level community counts, served algorithms) instead of the table",
    )

    mutate = subparsers.add_parser(
        "mutate",
        help="apply graph mutations to a running --epochs server, publishing "
        "a new snapshot epoch (ops like add-edge:0:99 remove-edge:2:3 "
        "add-node:99 remove-node:5)",
    )
    mutate.add_argument("dataset", metavar="DATASET", help="dataset to mutate")
    mutate.add_argument(
        "ops",
        nargs="+",
        metavar="OP",
        help="mutations, in order: add-edge:U:V[:WEIGHT], remove-edge:U:V, "
        "add-node:N, remove-node:N",
    )
    mutate.add_argument("--host", default="127.0.0.1", help="server host")
    mutate.add_argument("--port", type=int, default=7531, help="server port")

    coordinator = subparsers.add_parser(
        "coordinator",
        help="run the cluster coordinator (membership, shard placement "
        "across nodes, failover, versioned routing table)",
    )
    coordinator.add_argument("--host", default="127.0.0.1", help="interface to bind")
    coordinator.add_argument(
        "--port", type=int, default=7530, help="TCP port (0 picks an ephemeral port)"
    )
    coordinator.add_argument(
        "--datasets",
        nargs="+",
        default=["karate"],
        help="datasets the cluster serves; each gets a replica set placed "
        "across the live nodes",
    )
    coordinator.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replicas per dataset, each on a distinct node (a degraded "
        "cluster runs with fewer until nodes join)",
    )
    coordinator.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="seconds between node heartbeats (advertised to the nodes)",
    )
    coordinator.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        help="seconds of silence before a node is declared dead and its "
        "replicas fail over (default: 3x the interval)",
    )

    top = subparsers.add_parser(
        "top",
        help="show the cluster health plane: per-dataset qps, p50/p99 "
        "latency (merged across replicas), shed rate, errors and epoch "
        "lag, aggregated by the coordinator from heartbeat summaries",
    )
    top.add_argument(
        "coordinator",
        metavar="HOST:PORT",
        help="the coordinator's address (e.g. 127.0.0.1:7530)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit the raw health mapping as JSON instead of the table",
    )
    return parser


def _parse_node(token: str):
    """A ``--query`` token as a node id, by the wire protocol's rules.

    A token starting with ``[`` is JSON: a tuple id (``"[0, 0]"`` ->
    ``(0, 0)``).  Any other token is an int when possible, else a string.
    """
    from .serving.protocol import ProtocolError, _parse_node as parse_wire_node

    if not token.startswith("["):
        return parse_wire_node(token)
    try:
        return parse_wire_node(json.loads(token))
    except (ValueError, RecursionError, ProtocolError) as exc:
        raise ValueError(f"--query {token!r} is not a node id: {exc}") from None


def _load_graph(args) -> tuple[object, Optional[Dataset]]:
    """Return ``(graph, dataset or None)`` from the --dataset / --edge-list flags."""
    if args.dataset and args.edge_list:
        raise SystemExit("pass either --dataset or --edge-list, not both")
    if args.dataset:
        dataset = load_dataset(args.dataset)
        return dataset.graph, dataset
    if args.edge_list:
        return read_edge_list(args.edge_list), None
    raise SystemExit("one of --dataset or --edge-list is required")


def _command_datasets() -> int:
    rows = []
    for name in list_datasets():
        dataset = load_dataset(name)
        rows.append(dataset.statistics())
    print(format_table(rows, title="Built-in datasets"))
    return 0


def _command_algorithms() -> int:
    for name in list_algorithms():
        print(name)
    return 0


def _command_search(args) -> int:
    graph, dataset = _load_graph(args)
    queries = [_parse_node(token) for token in args.query]
    overrides = {"k": args.k} if args.k is not None else {}
    runner = get_algorithm(args.algorithm, **overrides)
    result = runner(graph, queries)
    if not result.nodes:
        print(f"{args.algorithm} found no community: {result.extra.get('reason', 'unknown')}")
        return 1
    print(result.summary())
    print(f"members ({result.size}): {sorted(result.nodes, key=repr)}")
    print(f"density modularity: {density_modularity(graph, result.nodes):.6f}")
    print(f"classic modularity: {classic_modularity(graph, result.nodes):.6f}")
    if dataset is not None:
        truths = [c for c in dataset.communities if set(queries) <= set(c)]
        if truths:
            best = max(
                (community_nmi(graph.nodes(), result.nodes, truth) for truth in truths)
            )
            best_ari = max(
                (community_ari(graph.nodes(), result.nodes, truth) for truth in truths)
            )
            print(f"NMI vs ground truth: {best:.4f}")
            print(f"ARI vs ground truth: {best_ari:.4f}")
    return 0


def _command_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    query_sets = generate_query_sets(
        dataset, num_sets=args.queries, query_size=args.query_size, seed=args.seed
    )
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be a positive integer")
    if args.workers is not None and args.engine != "batched":
        raise SystemExit("--workers requires --engine batched")
    rows = []
    if args.engine == "batched":
        per_algorithm = evaluate_batch(
            dataset, args.algorithms, query_sets, max_workers=args.workers
        )
        rows = [aggregate(per_algorithm[algorithm]).as_row() for algorithm in args.algorithms]
    else:
        for algorithm in args.algorithms:
            records = evaluate_algorithm(dataset, algorithm, query_sets)
            rows.append(aggregate(records).as_row())
    title = f"Evaluation on {dataset.name} ({len(query_sets)} query sets, {args.engine})"
    print(format_table(rows, title=title))
    return 0


def _command_serve(args) -> int:
    from .serving import ServingEngine, parse_replica_spec, run_server

    if args.max_queue < 0:
        raise ValueError("--max-queue must be >= 0 (0 disables the bound)")
    if not 0.0 <= args.trace_sample <= 1.0:
        raise ValueError("--trace-sample must be between 0.0 and 1.0")
    if args.slow_ms is not None and args.slow_ms < 0:
        raise ValueError("--slow-ms must be >= 0")
    if args.log_json is not None:
        from .obs import configure_json_logging

        configure_json_logging(args.log_json)
    if args.advertise is not None and args.join is None:
        raise ValueError("--advertise only applies with --join")
    replicas, replica_overrides = parse_replica_spec(args.replicas, set(list_datasets()))
    engine = ServingEngine(
        datasets=args.datasets,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        executor=args.executor,
        replicas=replicas,
        replica_overrides=replica_overrides,
        index=args.index,
        index_dir=args.index_dir,
        epochs=args.epochs,
        trace_sample=args.trace_sample,
        slow_query_ms=args.slow_ms,
    )
    if args.join is None:
        return run_server(engine, args.host, args.port)

    # cluster node: validate the addresses up front (flag-shaped errors),
    # then start the membership agent once the query port is bound — the
    # agent registers/heartbeats in the background and gates the engine to
    # the datasets the coordinator assigns (not_owner for everything until
    # registration completes)
    from .cluster import NodeAgent, parse_address

    coordinator_host, coordinator_port = parse_address(args.join)
    if args.advertise is not None and ":" in args.advertise:
        parse_address(args.advertise)
    agent_box: dict[str, NodeAgent] = {}

    def _announce(message: str) -> None:
        print(message, flush=True)
        bound_port = int(message.rsplit(":", 1)[1])
        if args.advertise is None:
            advertise = f"{args.host}:{bound_port}"
        elif ":" in args.advertise:
            advertise = args.advertise
        else:
            advertise = f"{args.advertise}:{bound_port}"
        agent = NodeAgent(
            coordinator_host, coordinator_port, advertise, engine=engine
        )
        agent.start()
        agent_box["agent"] = agent

    try:
        return run_server(engine, args.host, args.port, announce=_announce)
    finally:
        agent = agent_box.get("agent")
        if agent is not None:
            agent.stop()


def _command_index_build(args) -> int:
    from .graph import build_index, index_path, save_index

    names = list(args.datasets)
    if args.all:
        names = list_datasets()
    if not names:
        raise SystemExit("name at least one dataset, or pass --all")
    for name in names:
        dataset = load_dataset(name)
        index = build_index(dataset.graph, dataset=name)
        path = index_path(name, args.index_dir)
        save_index(index, path)
        info = index.describe()
        print(
            f"{name}: wrote {path} ({info['total_bytes']} bytes, "
            f"core kmax {info['core_kmax']}, truss kmax {info['truss_kmax']}, "
            f"built in {info['build_seconds']:.2f}s)"
        )
    return 0


def _command_index_inspect(args) -> int:
    from .graph import freeze, index_path, load_index

    path = index_path(args.dataset, args.index_dir)
    try:
        index = load_index(path)
    except FileNotFoundError:
        raise GraphError(
            f"no index file at {path}; build it with "
            f"'repro index build {args.dataset}'"
        ) from None
    # verify against the dataset as it is *now* — a stale index (the graph
    # changed since the build) is an error here, same as it is at serve time
    dataset = load_dataset(args.dataset)
    index.bind(freeze(dataset.graph))
    info = index.describe()
    if args.json:
        print(json.dumps({"index_file": str(path), **info}, indent=2, sort_keys=True))
        return 0
    print(f"index file:      {path}")
    print(f"format version:  {info['format_version']}")
    print(f"dataset:         {info['dataset']}")
    print(f"content digest:  {info['digest']}")
    print(f"nodes / edges:   {info['nodes']} / {info['edges']}")
    print(f"total bytes:     {info['total_bytes']}")
    print(f"build seconds:   {info['build_seconds']:.3f}")
    print(f"serves:          {', '.join(info['serves'])}")
    print(f"core kmax:       {info['core_kmax']}")
    core = ", ".join(f"k={k}:{c}" for k, c in info["core_communities"].items())
    print(f"core communities:  {core}")
    print(f"truss kmax:      {info['truss_kmax']}")
    truss = ", ".join(f"k={k}:{c}" for k, c in info["truss_communities"].items())
    print(f"truss communities: {truss}")
    if info.get("kecc_communities"):
        kecc = ", ".join(f"k={k}:{c}" for k, c in info["kecc_communities"].items())
        print(f"kecc partitions (cap {info['kecc_cap']}): {kecc}")
    print("region bytes:")
    for name, size in sorted(info["region_bytes"].items()):
        print(f"  {name:<12} {size}")
    return 0


def _command_index(args) -> int:
    if args.index_command == "build":
        return _command_index_build(args)
    return _command_index_inspect(args)


def _command_mutate(args) -> int:
    from .dynamic import DeltaBatch
    from .serving.client import ServingClient

    batch = DeltaBatch.from_tokens(args.ops)  # ValueError → flag-shaped error
    with ServingClient(args.host, args.port) as client:
        response = client.request(
            {"op": "mutate", "dataset": args.dataset, "ops": batch.to_wire()}
        )
    if not response.get("ok"):
        error = response.get("error", {})
        raise ValueError(f"{error.get('code', 'error')}: {error.get('message', response)}")
    print(
        f"{args.dataset}: epoch {response['epoch']} "
        f"({response['mode']}, {response['ops']} ops, "
        f"{response['nodes']} nodes / {response['edges']} edges)"
    )
    return 0


def _command_top(args) -> int:
    from .cluster import parse_address
    from .serving.client import ServingClient

    host, port = parse_address(args.coordinator)  # ValueError → flag-shaped error
    with ServingClient(host, port) as client:
        stats = client.stats()
    if not stats.get("ok"):
        error = stats.get("error", {})
        raise ValueError(f"{error.get('code', 'error')}: {error.get('message', stats)}")
    health = stats.get("health") or {}
    if args.json:
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0
    live = stats.get("live_nodes", "?")
    version = stats.get("version", "?")
    print(f"cluster: {len(health)} dataset(s), {live} live node(s), table v{version}")
    if not health:
        print("no health summaries reported yet (nodes piggyback them on heartbeats)")
        return 0
    header = (
        f"{'dataset':<16} {'nodes':>5} {'qps':>8} {'p50_ms':>8} {'p99_ms':>8} "
        f"{'shed%':>6} {'errors':>7} {'queries':>9} {'epoch':>6} {'lag':>4}"
    )
    print(header)
    print("-" * len(header))
    for name, block in sorted(health.items()):
        shed_pct = 100.0 * block.get("shed_rate", 0.0)
        epoch = block.get("epoch")
        lag = block.get("epoch_lag")
        print(
            f"{name:<16} {block.get('nodes', 0):>5} {block.get('qps', 0.0):>8.1f} "
            f"{block.get('p50_ms', 0.0):>8.2f} {block.get('p99_ms', 0.0):>8.2f} "
            f"{shed_pct:>6.2f} {block.get('errors', 0):>7} "
            f"{block.get('queries', 0):>9} "
            f"{'-' if epoch is None else epoch:>6} {'-' if lag is None else lag:>4}"
        )
    return 0


def _command_coordinator(args) -> int:
    from .cluster import Coordinator, run_coordinator

    coordinator = Coordinator(
        args.datasets,
        replication=args.replication,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    return run_coordinator(coordinator, args.host, args.port)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _command_datasets()
        if args.command == "algorithms":
            return _command_algorithms()
        if args.command == "search":
            return _command_search(args)
        if args.command == "evaluate":
            return _command_evaluate(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "index":
            return _command_index(args)
        if args.command == "mutate":
            return _command_mutate(args)
        if args.command == "coordinator":
            return _command_coordinator(args)
        if args.command == "top":
            return _command_top(args)
    except BrokenPipeError:
        # piping into `head` and friends closes stdout early; exit quietly
        return 0
    except (KeyError, ValueError, GraphError, OSError) as exc:
        # unknown dataset/algorithm names, bad query nodes, invalid parameter
        # values, unreadable edge lists, a serve port already in use: a
        # structured one-liner and exit code 2, never a traceback.
        # REPRO_DEBUG=1 re-raises so internal bugs stay diagnosable.
        if os.environ.get("REPRO_DEBUG"):
            raise
        message = str(exc) if isinstance(exc, OSError) else (
            exc.args[0] if exc.args else str(exc)
        )
        print(f"error: {message}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
