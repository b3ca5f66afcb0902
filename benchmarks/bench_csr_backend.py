"""Micro-benchmark: dict-of-dicts kernels vs the CSR fast path.

Runs each hot kernel (multi-source BFS, articulation points, coreness
peeling) and both peeling algorithms (NCA, FPA) on both backends, checks
the results are identical, and prints the timing table — the perf
trajectory future PRs append to (see CHANGES.md).

When the optional numpy tier is installed (``pip install -e ".[vec]"``)
a second table compares the pure-python CSR kernels against their
vectorised twins (:mod:`repro.graph.vec_kernels`) on the same graph and
checks they are bit-identical — multi-source BFS including discovery
order, edge support, and truss numbers, each also under an alive mask,
and FPA end to end (nodes, score, removal order, trace).
Without numpy the section prints a note and is skipped; parity of the
dict-vs-CSR half is unaffected.

Usage::

    python benchmarks/bench_csr_backend.py               # timings + parity
    python benchmarks/bench_csr_backend.py --parity-only # CI smoke: exit 1 on
                                                         # mismatch, ignore time
    python benchmarks/bench_csr_backend.py --scale 4     # larger graphs
    python benchmarks/bench_csr_backend.py --json out.json  # machine-readable
                                                            # trajectory record

The ``--parity-only`` mode is what the CI workflow runs: it fails the job on
any dict-vs-CSR (and CSR-vs-vec) divergence but never on timing (shared
runners are noisy).
"""

from __future__ import annotations

import argparse
import sys

from _bench_util import add_common_arguments, print_table, time_median as _time, write_json

from repro.core import fpa, nca
from repro.graph import (
    articulation_points,
    core_numbers,
    csr_articulation_points,
    csr_core_numbers,
    csr_edge_index,
    csr_edge_support,
    csr_multi_source_bfs,
    csr_truss_numbers,
    freeze,
    multi_source_bfs,
    planted_partition,
)
from repro.graph.vec_kernels import numpy_available, set_vec_enabled


def _fpa_answer(result):
    """What FPA parity compares: nodes, score, removal order and trace."""
    return (result.nodes, result.score, result.removal_order, result.trace)


def run_vec_section(frozen, query_index, check) -> list[tuple[str, float, float]]:
    """Pure-python CSR kernels vs the numpy tier, bit-identical by assertion.

    Both tiers run through the *same* public entry points with the
    dispatch switch forced (``set_vec_enabled``), so this exercises
    exactly the code path serving traffic takes.  The alive-mask variants
    matter because the peeling algorithms call the kernels on shrinking
    subgraphs, not just the full graph; the ``fpa`` row races FPA's
    one-pass layer prune on each tier.
    """
    rows: list[tuple[str, float, float]] = []
    csr = frozen.csr
    query = csr.node_list[query_index]
    n = csr.number_of_nodes()
    index = csr_edge_index(csr)
    # a non-trivial alive mask: drop every 7th node
    alive = bytearray(1 if i % 7 else 0 for i in range(n))
    cases = [
        ("vec_multi_source_bfs", lambda: csr_multi_source_bfs(csr, [query_index])),
        ("vec_edge_support", lambda: csr_edge_support(csr, index)),
        ("vec_truss_numbers", lambda: csr_truss_numbers(csr, index)),
        ("vec_edge_support[alive]", lambda: csr_edge_support(csr, index, alive)),
        ("vec_truss_numbers[alive]", lambda: csr_truss_numbers(csr, index, alive)),
        ("fpa", lambda: _fpa_answer(fpa(frozen, [query]))),
    ]
    try:
        for name, kernel in cases:
            set_vec_enabled(False)
            py_seconds, py_result = _time(kernel)
            set_vec_enabled(True)
            vec_seconds, vec_result = _time(kernel)
            check(name, py_result == vec_result)
            rows.append((name, py_seconds, vec_seconds))
    finally:
        set_vec_enabled(None)  # back to env/availability-driven dispatch
    return rows


def run(scale: float = 1.0, parity_only: bool = False, json_path: str | None = None) -> int:
    """Run the comparison; return a process exit code (0 = parity holds)."""
    num_communities = max(2, int(10 * scale))
    graph, _ = planted_partition(num_communities, 50, 0.3, 0.008, seed=4)
    frozen = freeze(graph)
    csr = frozen.csr
    csr.adjacency_lists()
    query = next(iter(graph.iter_nodes()))
    query_index = csr.index_of[query]
    print(f"workload: {graph!r}, query node {query!r}")

    rows: list[tuple[str, float, float]] = []
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    # multi-source BFS
    dict_seconds, dict_dist = _time(lambda: multi_source_bfs(graph, [query]))
    csr_seconds, (dist, order) = _time(lambda: csr_multi_source_bfs(csr, [query_index]))
    check("bfs", dict_dist == {csr.node_list[i]: dist[i] for i in order})
    rows.append(("multi_source_bfs", dict_seconds, csr_seconds))

    # articulation points
    dict_seconds, dict_art = _time(lambda: articulation_points(graph))
    csr_seconds, csr_art = _time(lambda: csr_articulation_points(csr))
    check("articulation", dict_art == {csr.node_list[i] for i in csr_art})
    rows.append(("articulation_points", dict_seconds, csr_seconds))

    # coreness peeling
    dict_seconds, dict_core = _time(lambda: core_numbers(graph))
    csr_seconds, csr_core = _time(lambda: csr_core_numbers(csr))
    check(
        "coreness",
        dict_core == {csr.node_list[i]: c for i, c in enumerate(csr_core) if c >= 0},
    )
    rows.append(("core_numbers", dict_seconds, csr_seconds))

    # full algorithms
    dict_seconds, dict_fpa = _time(lambda: fpa(graph, [query]), repeat=2)
    csr_seconds, csr_fpa = _time(lambda: fpa(frozen, [query]), repeat=2)
    check("fpa", _fpa_answer(dict_fpa) == _fpa_answer(csr_fpa))
    rows.append(("fpa", dict_seconds, csr_seconds))

    dict_seconds, dict_nca = _time(lambda: nca(graph, [query]), repeat=1)
    csr_seconds, csr_nca = _time(lambda: nca(frozen, [query]), repeat=1)
    check(
        "nca",
        (dict_nca.nodes, dict_nca.score, dict_nca.trace)
        == (csr_nca.nodes, csr_nca.score, csr_nca.trace),
    )
    rows.append(("nca", dict_seconds, csr_seconds))

    vec_rows: list[tuple[str, float, float]] = []
    if numpy_available():
        vec_rows = run_vec_section(frozen, query_index, check)
    else:
        print("vec tier: numpy not installed; skipping the vectorised kernel comparison")

    if not parity_only:
        print_table(rows, name_width=22)
        if vec_rows:
            print_table(vec_rows, name_width=24, columns=("python (s)", "vec (s)"))

    if json_path:
        write_json(
            json_path, "bench_csr_backend", scale, rows,
            parity=not failures, workload=repr(graph),
            vec={
                "numpy_available": numpy_available(),
                "rows": [
                    {
                        "kernel": name,
                        "python_seconds": round(py_seconds, 6),
                        "vec_seconds": round(vec_seconds, 6),
                        "speedup": round(py_seconds / vec_seconds, 2) if vec_seconds else None,
                    }
                    for name, py_seconds, vec_seconds in vec_rows
                ],
            },
        )

    if failures:
        print(f"PARITY FAILURE: backends disagree on: {', '.join(failures)}")
        return 1
    tiers = "dict, CSR and vec tiers" if vec_rows else "dict and CSR backends"
    print(f"parity: {tiers} agree on every kernel and algorithm")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_common_arguments(parser)
    args = parser.parse_args(argv)
    return run(scale=args.scale, parity_only=args.parity_only, json_path=args.json_path)


if __name__ == "__main__":
    sys.exit(main())
