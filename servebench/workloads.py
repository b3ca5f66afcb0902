"""The three workloads: server flags, seeded op sequences and their checks.

An op is one wire request plus the oracle check its answer must pass.  A
workload yields ops in **rounds** — a fixed pattern of op kinds — so every
run attempts whole rounds, and the seed fixes the inputs of every round.
Query keys are drawn by the benchmark only; the server sees nothing but
the generated requests.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from oracle import GraphOracle

#: FPA |Q| cycle of dmcs-search, each set drawn from one ground-truth community
FPA_QUERY_SIZES = (1, 2, 4, 8)
#: NCA |Q| cycle (dolphin has 62 nodes; >= 2 keeps every key distinct)
NCA_QUERY_SIZES = (2, 3, 4)
#: index-serve key space: (algorithm, k); k=None sends no params
INDEX_READS = (("kc", 3), ("kt", 3), ("hightruss", None), ("kecc", 3), ("kc", 4), ("kc", 5))
#: Zipf exponent of query-node popularity in index-serve
POPULARITY_EXPONENT = 0.8
#: the result LRU size the index-serve server runs with (the serve default)
CACHE_SIZE = 1024
#: dmcs-search never hits its LRU; a small one is full a few seconds into
#: every run, so pss_mb reads a full cache however fast the machine is
DMCS_CACHE_SIZE = 256
#: the three pinned index reads after every epoch-churn write
CHURN_READS = (("kc", 3), ("kt", 3), ("hightruss", None))


@dataclass
class Op:
    """One request; ``check(answer, oracle_for_epoch)`` returns a failure or None."""

    kind: str  # "read" | "write"
    payload: dict
    check: Callable
    line: bytes = field(init=False)
    #: the epoch this op pins (reads) or expects (writes), epoch-churn only
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        self.line = (json.dumps(self.payload, separators=(",", ":")) + "\n").encode()


@dataclass
class Workload:
    name: str
    datasets: tuple
    server_args: list
    index_dataset: Optional[str]
    rounds: Callable  # (rng, data) -> Iterator[list[Op]]
    #: checks that need per-epoch decompositions run after the timed loop
    defer_checks: bool = False
    #: the result cache must never be hit (all keys distinct)
    no_cache_hits: bool = False


def _query(dataset: str, algorithm: str, nodes, k=None, min_epoch=None) -> dict:
    payload = {"op": "query", "dataset": dataset, "algorithm": algorithm, "nodes": list(nodes)}
    if k is not None:
        payload["params"] = {"k": k}
    if min_epoch is not None:
        payload["min_epoch"] = min_epoch
    return payload


def _answer_check(algorithm: str, queries, k):
    """The oracle check for one read (epoch-independent closure)."""
    queries = tuple(queries)
    if algorithm in ("FPA", "NCA"):
        return lambda answer, oracle: oracle.check_dm_search(answer, queries)
    if algorithm == "kc":
        return lambda answer, oracle: oracle.check_exact("core", answer, queries, k)
    if algorithm == "kt":
        return lambda answer, oracle: oracle.check_exact("truss", answer, queries, k)
    if algorithm == "hightruss":
        return lambda answer, oracle: oracle.check_hightruss(answer, queries)
    if algorithm == "kecc":
        return lambda answer, oracle: oracle.check_kecc(answer, queries, k)
    raise ValueError(algorithm)


def _read(dataset, algorithm, nodes, k=None, min_epoch=None) -> Op:
    payload = _query(dataset, algorithm, nodes, k, min_epoch)
    op = Op("read", payload, _answer_check(algorithm, nodes, k))
    op.epoch = min_epoch
    return op


# ----------------------------------------------------------------------
# dmcs-search: the paper's two algorithms, every key distinct
# ----------------------------------------------------------------------


def _distinct_sets(rng, communities, sizes, seen) -> Iterator[list]:
    """Endless query sets, |Q| cycling ``sizes``, never repeating a key."""
    big_enough = {size: [c for c in communities if len(c) >= size] for size in sizes}
    while True:
        for size in sizes:
            while True:
                community = rng.choice(big_enough[size])
                nodes = sorted(rng.sample(community, size))
                if tuple(nodes) not in seen:
                    seen.add(tuple(nodes))
                    break
            yield nodes


def dmcs_rounds(rng, data) -> Iterator[list]:
    fpa_sets = _distinct_sets(rng, data["communities:livejournal"], FPA_QUERY_SIZES, set())
    nca_sets = _distinct_sets(rng, data["communities:dolphin"], NCA_QUERY_SIZES, set())
    while True:
        ops = [_read("livejournal", "FPA", next(fpa_sets)) for _ in FPA_QUERY_SIZES]
        ops.append(_read("dolphin", "NCA", next(nca_sets)))
        yield ops


# ----------------------------------------------------------------------
# index-serve: window scans with power-law popular query nodes
# ----------------------------------------------------------------------


def _eligible(oracle: GraphOracle, algorithm: str, k) -> list:
    """Nodes whose coreness / trussness admits an answer for (algorithm, k)."""
    if algorithm in ("kc", "kecc"):
        nodes = [node for node, core in oracle.core.items() if core >= k]
    elif algorithm == "kt":
        nodes = [node for node in oracle.adj if oracle.node_truss(node) >= k]
    else:
        nodes = [node for node, nbrs in oracle.adj.items() if nbrs]
    return sorted(nodes)


def index_rounds(rng, data) -> Iterator[list]:
    oracle = data["oracle:livejournal"]
    pools = []
    for algorithm, k in INDEX_READS:
        nodes = _eligible(oracle, algorithm, k)
        rng.shuffle(nodes)  # the seed decides which nodes are popular
        weights, total = [], 0.0
        for rank in range(len(nodes)):
            total += 1.0 / (rank + 1) ** POPULARITY_EXPONENT
            weights.append(total)
        pools.append((algorithm, k, nodes, weights, total))
    while True:
        ops = []
        for algorithm, k, nodes, weights, total in pools:
            node = nodes[bisect.bisect_left(weights, rng.random() * total)]
            ops.append(_read("livejournal", algorithm, [node], k))
        yield ops


# ----------------------------------------------------------------------
# epoch-churn: single-edge writes, each read back at its own epoch
# ----------------------------------------------------------------------


def _write_check(expected_epoch: int, expected_edges: int):
    def check(answer, oracle):
        if answer.get("epoch") != expected_epoch:
            return f"published epoch {answer.get('epoch')!r}, expected {expected_epoch}"
        if answer.get("edges") != expected_edges:
            return f"edge count {answer.get('edges')!r}, delta log says {expected_edges}"
        if answer.get("mode") != "incremental":
            return f"single-edge batch took the {answer.get('mode')!r} path"
        return None

    return check


def churn_rounds(rng, data) -> Iterator[list]:
    """Round 2j adds edge e_j, round 2j+1 removes it: |E| stays steady."""
    oracle = data["oracle:livejournal"]
    # endpoints keep core >= 3 and trussness >= 3 in both graph states, so
    # every pinned read has an answer
    candidates = sorted(
        node for node, core in oracle.core.items() if core >= 3 and oracle.node_truss(node) >= 3
    )
    base_edges = oracle.edges
    epoch = 0
    while True:
        while True:
            u, v = sorted(rng.sample(candidates, 2))
            if v not in oracle.adj[u]:
                break
        for present in (True, False):
            epoch += 1
            op = "add_edge" if present else "remove_edge"
            write = Op(
                "write",
                {"op": "mutate", "dataset": "livejournal", "ops": [[op, u, v]]},
                _write_check(epoch, base_edges + (1 if present else 0)),
            )
            write.epoch = epoch
            data["delta_log"][epoch] = (u, v)
            reads = [_read("livejournal", "FPA", [u], min_epoch=epoch)]
            endpoints = (v, u, v)
            for (algorithm, k), node in zip(CHURN_READS, endpoints):
                reads.append(_read("livejournal", algorithm, [node], k, min_epoch=epoch))
            yield [write, *reads]


def workload(name: str) -> Workload:
    if name == "dmcs-search":
        return Workload(
            name,
            ("livejournal", "dolphin"),
            ["--datasets", "livejournal", "dolphin", "--executor", "inline", "--index", "off",
             "--cache-size", str(DMCS_CACHE_SIZE)],
            None,
            dmcs_rounds,
            no_cache_hits=True,
        )
    index_args = ["--index", "require", "--executor", "process"]
    if name == "index-serve":
        return Workload(
            name,
            ("livejournal",),
            ["--datasets", "livejournal", "--cache-size", str(CACHE_SIZE), *index_args],
            "livejournal",
            index_rounds,
        )
    if name == "epoch-churn":
        return Workload(
            name,
            ("livejournal",),
            ["--datasets", "livejournal", "--epochs", *index_args],
            "livejournal",
            churn_rounds,
            defer_checks=True,
        )
    raise KeyError(name)


WORKLOADS = ("dmcs-search", "index-serve", "epoch-churn")


def seeded_rounds(wl: Workload, seed: int, data) -> Iterator[list]:
    return wl.rounds(random.Random(f"{wl.name}:{seed}"), data)
