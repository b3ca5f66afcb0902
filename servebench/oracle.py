"""Independent answer checks: the benchmark's own graph computations.

Nothing here calls into ``repro`` — the oracle is built from a dataset's
edge list and recomputes every answer the server returns from the
definitions: its own adjacency, its own core and truss peels, its own
connected components and density modularity (Definition 2 of the paper,
unweighted form ``(2 l_C - d_C^2 / (2|E|)) / (2|C|)``).  A server bug that
every internal path shares (dict, CSR, vec, index, incremental) still
fails here.

Each ``check_*`` returns ``None`` for a correct answer and a one-line
reason otherwise, so the caller can count failures without exceptions.
"""

from __future__ import annotations

#: relative tolerance on a recomputed score; a score off by 1e-6 must fail
SCORE_TOLERANCE = 1e-9


def _edge(u, v):
    return (u, v) if u < v else (v, u)


class GraphOracle:
    """One graph state: adjacency plus lazily derived decompositions."""

    def __init__(self, adjacency: dict):
        self.adj = adjacency
        self.edges = sum(len(nbrs) for nbrs in adjacency.values()) // 2
        self._core = None
        self._truss = None
        self._components = {}  # ("core"|"truss"|"cc", k) -> node -> label
        self._members = {}  # (family, k, label) -> sorted node list
        self._checked = {}  # answer-content key -> check result

    @classmethod
    def from_edges(cls, nodes, edges) -> "GraphOracle":
        adj = {node: set() for node in nodes}
        for u, v in edges:
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls(adj)

    def with_edge(self, u, v, present: bool) -> "GraphOracle":
        """A new oracle for this graph with edge ``u``–``v`` added or removed."""
        adj = dict(self.adj)
        adj[u] = set(adj[u])
        adj[v] = set(adj[v])
        if present:
            adj[u].add(v)
            adj[v].add(u)
        else:
            adj[u].discard(v)
            adj[v].discard(u)
        return GraphOracle(adj)

    # ------------------------------------------------------------------
    # decompositions (bucket peels, O(E) and O(triangles))
    # ------------------------------------------------------------------
    @property
    def core(self) -> dict:
        if self._core is None:
            adj = self.adj
            degree = {node: len(nbrs) for node, nbrs in adj.items()}
            buckets = [set() for _ in range(max(degree.values(), default=0) + 1)]
            for node, d in degree.items():
                buckets[d].add(node)
            core, k = {}, 0
            for _ in range(len(adj)):
                while not buckets[k]:
                    k += 1
                node = buckets[k].pop()
                core[node] = k
                for other in adj[node]:
                    if other not in core and degree[other] > k:
                        d = degree[other]
                        buckets[d].remove(other)
                        buckets[d - 1].add(other)
                        degree[other] = d - 1
            self._core = core
        return self._core

    @property
    def truss(self) -> dict:
        """Edge -> truss number (largest k whose k-truss holds the edge)."""
        if self._truss is None:
            adj = self.adj
            support = {}
            for u, nbrs in adj.items():
                for v in nbrs:
                    if u < v:
                        support[(u, v)] = len(nbrs & adj[v])
            buckets = [set() for _ in range(max(support.values(), default=0) + 1)]
            for edge, s in support.items():
                buckets[s].add(edge)
            live = {node: set(nbrs) for node, nbrs in adj.items()}
            truss, s = {}, 0
            for _ in range(len(support)):
                while not buckets[s]:
                    s += 1
                edge = buckets[s].pop()
                truss[edge] = s + 2
                u, v = edge
                live[u].discard(v)
                live[v].discard(u)
                for w in live[u] & live[v]:
                    for other in (_edge(u, w), _edge(v, w)):
                        d = support[other]
                        if d > s:
                            buckets[d].remove(other)
                            buckets[d - 1].add(other)
                            support[other] = d - 1
            self._truss = truss
        return self._truss

    def node_truss(self, node) -> int:
        truss = self.truss
        return max((truss[_edge(node, other)] for other in self.adj[node]), default=0)

    def _labels(self, family: str, k: int) -> dict:
        """Connected-component labels of the k-core / k-truss / whole graph."""
        key = (family, k)
        if key not in self._components:
            adj = self.adj
            if family == "core":
                core = self.core
                alive = {node for node in adj if core[node] >= k}

                def neighbours(node):
                    return (other for other in adj[node] if other in alive)

            elif family == "truss":
                truss = self.truss
                alive = {node for edge, t in truss.items() if t >= k for node in edge}

                def neighbours(node):
                    return (o for o in adj[node] if truss[_edge(node, o)] >= k)

            else:
                alive = set(adj)

                def neighbours(node):
                    return adj[node]

            labels = {}
            for start in sorted(alive, key=repr):
                if start in labels:
                    continue
                labels[start] = start
                stack = [start]
                while stack:
                    node = stack.pop()
                    for other in neighbours(node):
                        if other not in labels:
                            labels[other] = start
                            stack.append(other)
            self._components[key] = labels
        return self._components[key]

    def community(self, family: str, k: int, queries):
        """Sorted members of the component holding every query, or ``None``."""
        labels = self._labels(family, k)
        found = {labels.get(node) for node in queries}
        if len(found) != 1 or None in found:
            return None
        label = found.pop()
        key = (family, k, label)
        if key not in self._members:
            self._members[key] = sorted(
                (node for node, lab in labels.items() if lab == label), key=repr
            )
        return self._members[key]

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def density_modularity(self, members) -> float:
        """Definition 2, unweighted: (2 l_C - d_C^2 / (2|E|)) / (2|C|)."""
        adj = self.adj
        inside = set(members)
        degree_sum = sum(len(adj[node]) for node in inside)
        internal = sum(1 for node in inside for other in adj[node] if other in inside) // 2
        return (2 * internal - degree_sum * degree_sum / (2 * self.edges)) / (2 * len(inside))

    def is_connected(self, members) -> bool:
        inside = set(members)
        if not inside:
            return False
        start = next(iter(inside))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for other in self.adj[node]:
                if other in inside and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(inside)

    def component_dm(self, queries):
        """DM of the connected component holding all queries (None: split)."""
        members = self.community("cc", 0, queries)
        if members is None:
            return None
        key = ("cc-dm", tuple(members[:1]))
        if key not in self._members:
            self._members[key] = self.density_modularity(members)
        return self._members[key]

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check_dm_search(self, answer: dict, queries) -> str | None:
        """FPA / NCA: a connected query-holding set whose score is its DM."""
        if answer.get("failed") or not answer.get("nodes"):
            return "search failed"
        members = answer["nodes"]
        inside = set(members)
        if any(node not in self.adj for node in inside):
            return "answer holds a node not in the graph"
        if not set(queries) <= inside:
            return "answer misses a query node"
        if not self.is_connected(inside):
            return "answer is disconnected"
        score = answer.get("score")
        if score is None:
            return "answer has no score"
        expected = self.density_modularity(inside)
        if abs(score - expected) > SCORE_TOLERANCE * max(1.0, abs(expected)):
            return f"score {score!r} != recomputed DM {expected!r}"
        floor = self.component_dm(queries)
        if floor is None:
            return "queries lie in different components"
        if expected < floor - SCORE_TOLERANCE * max(1.0, abs(floor)):
            return f"DM {expected!r} below the query component's DM {floor!r}"
        return None

    def check_exact(self, family: str, answer: dict, queries, k: int) -> str | None:
        """kc / kt: equal to the k-core / k-truss community of the queries."""
        expected = self.community(family, k, queries)
        if expected is None:
            return f"no {family} community at k={k} (workload picked a bad query)"
        if answer.get("failed"):
            return "search failed"
        if answer.get("nodes") != expected:
            return f"answer differs from the {family} community at k={k}"
        if answer.get("score") != float(k):
            return f"score {answer.get('score')!r} != k={k}"
        return None

    def _content_check(self, key, compute) -> str | None:
        """Memoise a property of an answer's node set (answers recur often)."""
        if key not in self._checked:
            self._checked[key] = compute()
        return self._checked[key]

    def _is_truss(self, members: frozenset, k: int) -> str | None:
        """The k-truss of the induced subgraph must keep every member, connected."""
        adj = self.adj
        local = {node: adj[node] & members for node in members}
        support = {
            (u, v): len(local[u] & local[v]) for u in members for v in local[u] if u < v
        }
        weak = [edge for edge, s in support.items() if s < k - 2]
        while weak:
            edge = weak.pop()
            if edge not in support:
                continue
            del support[edge]
            u, v = edge
            local[u].discard(v)
            local[v].discard(u)
            for w in local[u] & local[v]:
                for other in (_edge(u, w), _edge(v, w)):
                    support[other] -= 1
                    if support[other] == k - 3:
                        weak.append(other)
        kept = {node for edge in support for node in edge}
        if len(members) > 1 and kept != members:
            return f"answer is not a {k}-truss"
        if not self.is_connected(members):
            return "answer is disconnected"
        return None

    def check_hightruss(self, answer: dict, queries) -> str | None:
        """Highest truss: a connected k-truss on the queries, no (k+1) one."""
        if answer.get("failed") or not answer.get("nodes"):
            return "search failed"
        members = frozenset(answer["nodes"])
        if not set(queries) <= members:
            return "answer misses a query node"
        k = int(answer.get("score") or 0)
        if k < 2:
            return f"bad truss level {answer.get('score')!r}"
        problem = self._content_check(
            ("truss", k, tuple(answer["nodes"])), lambda: self._is_truss(members, k)
        )
        if problem is None and self.community("truss", k + 1, queries) is not None:
            problem = f"a {k + 1}-truss community holds the queries"
        return problem

    def _is_kecc_candidate(self, nodes: list, k: int, approximate: bool, candidate) -> str | None:
        members = frozenset(nodes)
        if not self.is_connected(members):
            return "answer is disconnected"
        adj = self.adj
        if min(len(adj[node] & members) for node in members) < k:
            return f"a member has fewer than {k} neighbours inside"
        if candidate is None or not members <= set(candidate):
            return f"answer leaves the {k}-core community"
        if approximate and (nodes != candidate or len(candidate) <= 400):
            return "approximate answer is not the oversized k-core community"
        return None

    def check_kecc(self, answer: dict, queries, k: int) -> str | None:
        """k-ECC: connected, min degree >= k, inside the k-core community."""
        if answer.get("failed") or not answer.get("nodes"):
            return "search failed"
        nodes = answer["nodes"]
        if not set(queries) <= set(nodes):
            return "answer misses a query node"
        candidate = self.community("core", k, queries)
        approximate = bool((answer.get("extra") or {}).get("approximate"))
        key = ("kecc", k, approximate, tuple(nodes), id(candidate))
        return self._content_check(
            key, lambda: self._is_kecc_candidate(nodes, k, approximate, candidate)
        )


class EpochOracles:
    """The oracle of each epoch, replayed from the benchmark's delta log.

    ``delta_log[e]`` is the edge ``(u, v)`` the write that published epoch
    ``e`` added or removed; graph states repeat, so oracles are shared.
    """

    def __init__(self, base: GraphOracle, delta_log: dict) -> None:
        self.base = base
        self.log = delta_log
        self.by_diff = {frozenset(): base}

    def at(self, epoch: int) -> GraphOracle:
        diff = set()
        for e in range(1, epoch + 1):
            diff ^= {self.log[e]}  # each logged write toggles one edge
        key = frozenset(diff)
        if key not in self.by_diff:
            oracle = self.base
            for u, v in sorted(key):
                oracle = oracle.with_edge(u, v, True)
            self.by_diff[key] = oracle
        return self.by_diff[key]


def self_test(oracle: GraphOracle, fpa_answer: dict, fpa_queries, kc_queries, k: int) -> list:
    """Every check must reject a corrupted answer; returns the failures.

    ``fpa_answer`` is a real answer the caller got from the program (it
    must pass); ``kc_queries`` must have a k-core community at ``k`` that
    leaves at least one node out.
    """
    problems = []
    if oracle.check_dm_search(fpa_answer, fpa_queries) is not None:
        problems.append("a correct FPA answer was rejected")
    nodes = fpa_answer["nodes"]
    dropped = dict(fpa_answer, nodes=[n for n in nodes if n != fpa_queries[0]])
    if oracle.check_dm_search(dropped, fpa_queries) is None:
        problems.append("a dropped query node was accepted")
    far = next(node for node in sorted(oracle.adj, key=repr)
               if node not in nodes and not (oracle.adj[node] & set(nodes)))
    split = dict(fpa_answer, nodes=sorted(nodes + [far], key=repr))
    if oracle.check_dm_search(split, fpa_queries) is None:
        problems.append("a disconnected answer was accepted")
    off = dict(fpa_answer, score=fpa_answer["score"] + 1e-6)
    if oracle.check_dm_search(off, fpa_queries) is None:
        problems.append("a score off by 1e-6 was accepted")
    expected = oracle.community("core", k, kc_queries)
    good = {"nodes": expected, "score": float(k), "failed": False}
    if oracle.check_exact("core", good, kc_queries, k) is not None:
        problems.append("a correct kc answer was rejected")
    extra = next(node for node in sorted(oracle.adj, key=repr) if node not in set(expected))
    padded = dict(good, nodes=sorted(expected + [extra], key=repr))
    if oracle.check_exact("core", padded, kc_queries, k) is None:
        problems.append("a kc answer with an extra node was accepted")
    return problems
