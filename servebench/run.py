"""The repository benchmark: one workload against a real ``repro serve``.

Usage (from the repository root)::

    python3 servebench/run.py --workload dmcs-search --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload epoch-churn --seed 1 --seconds 30 --trace 1
    python3 servebench/run.py --short        # every workload, a few seconds each,
                                             # every check on, plus the self-tests

A run sets the server up several times (index build when the workload
needs one, spawn, first ping), then drives the last server with one
closed-loop client — one process, one connection, the next request sent
when the previous answer is in — for ``--seconds`` of whole rounds.  Every
answer is checked by :mod:`oracle`; failed requests, failed checks and
failed clean-run checks all count in ``failed``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (see :mod:`layers`).
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import EpochOracles, GraphOracle, self_test  # noqa: E402
from server import Server, adopt_orphans, build_index, live_segments, stop_children  # noqa: E402
from workloads import WORKLOADS, seeded_rounds, workload  # noqa: E402

#: server set-ups per run; ``setup_s`` is their median, the last one serves
SETUP_REPEATS = 3
#: rounds sent before the clock starts (warm memo caches, first-touch costs)
WARMUP_ROUNDS = 2
SHORT_SECONDS = 3
#: loop seconds between two runs of the calibration kernel
CALIBRATION_EVERY_S = 0.2
#: an op is scaled by the kernel times within this many seconds of it
CALIBRATION_WINDOW_S = 1.0
#: the kernel's median on the reference machine (see README, "Machine speed")
CALIBRATION_REFERENCE_S = 0.005
#: loop seconds between two PSS reads; the PSS metrics are medians of the
#: reads in the second half of the loop
PSS_EVERY_S = 1.0


def calibration_kernel() -> float:
    """A fixed slice of interpreter work — dict inserts, a sort, a sum; seconds."""
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i * 7919 % 20011] = i
    total = 0
    for key in sorted(table):
        total += table[key]
    return time.perf_counter() - start


class Calibration:
    """Calibration-kernel times across a loop: how slow the machine ran when."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        seconds = calibration_kernel()
        self.stamps.append(time.perf_counter())
        self.seconds.append(seconds)

    def slowdown(self) -> float:
        """Over the whole loop, relative to the reference machine."""
        return statistics.median(self.seconds) / CALIBRATION_REFERENCE_S

    def slowdown_at(self, stamp: float) -> float:
        """Around ``stamp``: the median of the kernel times within the window."""
        lo = bisect.bisect_left(self.stamps, stamp - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, stamp + CALIBRATION_WINDOW_S)
        if lo >= hi:  # no sample in the window: take the nearest
            lo = min(max(lo - 1, 0), len(self.stamps) - 1)
            hi = lo + 1
        return statistics.median(self.seconds[lo:hi]) / CALIBRATION_REFERENCE_S


class Tally:
    """Attempted / failed operations, the first few failure reasons, and
    the pids of the servers the run started (for the leak check)."""

    def __init__(self) -> None:
        self.server_pids: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures that are wrong answers, not errors
        self.reasons: list[str] = []

    def record(self, problem: str | None, wrong: bool = False) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.wrong += wrong
            if len(self.reasons) < 10:
                self.reasons.append(problem)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def load_data(names) -> dict:
    """Datasets plus one oracle each, built from the dataset's edge list."""
    from repro.datasets import load_dataset

    data = {"delta_log": {}}
    for name in names:
        dataset = load_dataset(name)
        graph = dataset.graph
        edges = []
        for u, v, weight in graph.iter_edges():
            if weight != 1:
                raise SystemExit(f"{name}: the oracle's DM assumes an unweighted graph")
            edges.append((u, v))
        data[name] = dataset
        data["communities:" + name] = [sorted(c) for c in dataset.communities]
        data["oracle:" + name] = GraphOracle.from_edges(graph.nodes(), edges)
    data["epochs"] = EpochOracles(data["oracle:livejournal"], data["delta_log"])
    return data


def setup_server(wl, index_dir: Path, extra_args=()) -> tuple[Server, float]:
    """Index build (if needed) + spawn + first ping answered: one set-up.

    Each server gets its own index directory: an epochal server rewrites
    its index file on every publish.
    """
    args = [*wl.server_args, *extra_args]
    started = time.perf_counter()
    if wl.index_dataset:
        build_index(ROOT, wl.index_dataset, index_dir)
        args += ["--index-dir", str(index_dir)]
    server = Server(ROOT, args)
    try:
        reply = server.conn.request({"op": "ping"})
    except Exception:
        server.kill()
        raise
    if not reply.get("ok"):
        server.kill()
        raise RuntimeError(f"ping failed: {reply}")
    return server, time.perf_counter() - started


class Client:
    """One closed-loop client over one server; records latencies and checks."""

    def __init__(self, wl, server: Server, data: dict, tally: Tally) -> None:
        self.wl = wl
        self.server = server
        self.tally = tally
        self.queries_sent = 0
        self.first_answers: dict[bytes, tuple] = {}
        self.deferred: list = []
        self.epoch_oracles = data["epochs"]
        self.oracle_by_dataset = {
            key.split(":", 1)[1]: value for key, value in data.items() if key.startswith("oracle:")
        }

    def send(self, op) -> tuple[float, dict | None]:
        """One request; returns (seconds, decoded answer or None on error)."""
        raw, seconds = self.server.conn.call(op.line)
        if op.kind == "read":
            self.queries_sent += 1
        answer = json.loads(raw)
        if not answer.get("ok"):
            self.tally.record(f"{op.payload.get('algorithm', op.kind)}: {answer.get('error')}")
            return seconds, None
        if self.wl.defer_checks:
            self.deferred.append((op, answer))
        else:
            self.check(op, answer)
        return seconds, answer

    def check(self, op, answer: dict) -> None:
        problem = None
        if op.kind == "write":
            problem = op.check(answer, None)
        else:
            dataset = op.payload["dataset"]
            if op.epoch is not None:
                got = answer.get("epoch")
                if not isinstance(got, int) or got < op.epoch:
                    problem = f"read pinned at epoch {op.epoch} answered at {got!r}"
                else:
                    problem = op.check(answer, self.epoch_oracles.at(got))
            else:
                problem = op.check(answer, self.oracle_by_dataset[dataset])
            if problem is None and self.wl.no_cache_hits and answer.get("cached"):
                problem = "result cache hit on a workload whose keys are all distinct"
            if problem is None:
                fingerprint = (hash(tuple(answer["nodes"])), answer.get("score"))
                first = self.first_answers.setdefault(op.line, fingerprint)
                if answer.get("cached") and first != fingerprint:
                    problem = "LRU hit differs from the first answer"
            if problem is not None:
                problem = f"{op.payload['algorithm']} {op.payload['nodes']}: {problem}"
        self.tally.record(problem, wrong=problem is not None)

    def run_deferred(self) -> None:
        for op, answer in self.deferred:
            self.check(op, answer)
        self.deferred.clear()


class Loop:
    """The closed loop of one server: warm-up, timed rounds, samples.

    ``records`` keeps, per timed op, ``(op, seconds, answer)`` with the
    answer's node list dropped; ``on_answer(op, answer)`` runs after each
    timed op, outside its latency (the traced run fetches spans there).
    """

    def __init__(self, wl, server: Server, data: dict, seed: int, tally: Tally, on_answer=None):
        self.server = server
        self.client = Client(wl, server, data, tally)
        self.rounds = seeded_rounds(wl, seed, data)
        self.on_answer = on_answer
        self.reads, self.writes, self.first_reads = [], [], []
        self.records, self.round_rates = [], []
        # completion time of every read and of every round, for local scaling
        self.read_stamps, self.round_stamps = [], []
        for _ in range(WARMUP_ROUNDS):
            for op in next(self.rounds):
                self.client.send(op)
        # server CPU seconds at each calibration sample, for local scaling
        self.cpu_marks: list[float] = []
        # (time, server MiB, workers MiB) every PSS_EVERY_S
        self.pss_marks: list[tuple[float, float, float]] = []

    def sample_pss(self) -> None:
        self.pss_marks.append((time.perf_counter(), *self.server.pss()))

    def round(self) -> None:
        ops = next(self.rounds)
        busy, after_write = 0.0, False
        for op in ops:
            elapsed, answer = self.client.send(op)
            busy += elapsed
            if answer is not None:
                meta = {key: value for key, value in answer.items() if key != "nodes"}
                self.records.append((op, elapsed, meta))
                if self.on_answer is not None:
                    self.on_answer(op, answer)
            if op.kind == "write":
                self.writes.append(elapsed)
                after_write = True
            else:
                self.reads.append(elapsed)
                self.read_stamps.append(time.perf_counter())
                if after_write:
                    self.first_reads.append(elapsed)
                    after_write = False
        self.round_rates.append(len(ops) / busy)
        self.round_stamps.append(time.perf_counter())

    def finish(self, pss_since: float) -> dict:
        """Run the deferred checks; returns samples.

        The PSS figures are medians of the reads taken from ``pss_since``
        on: a single read of a server that frees and reallocates whole
        graph snapshots can land tens of MiB off its level.
        """
        marks = [mark for mark in self.pss_marks if mark[0] >= pss_since] or self.pss_marks[-1:]
        self.client.run_deferred()
        return {
            "reads": self.reads,
            "writes": self.writes,
            "first_reads": self.first_reads,
            "records": self.records,
            "round_rates": self.round_rates,
            "read_stamps": self.read_stamps,
            "round_stamps": self.round_stamps,
            "cpu_marks": self.cpu_marks,
            "server_pss": statistics.median(server for _, server, _ in marks),
            "worker_pss": statistics.median(workers for _, _, workers in marks),
            "pss": statistics.median(server + workers for _, server, workers in marks),
            "queries_sent": self.client.queries_sent,
        }


def run_loops(loops: list[Loop], seconds: float) -> list[dict]:
    """Whole rounds for ``seconds``, round-robin over ``loops``.

    Between rounds, every CALIBRATION_EVERY_S, the client times the
    calibration kernel, and every PSS_EVERY_S it reads the servers' PSS;
    each samples dict carries the :class:`Calibration`.
    """
    calibration = Calibration()
    last_pss = float("-inf")

    def sample() -> None:
        nonlocal last_pss
        calibration.sample()
        for loop in loops:
            loop.cpu_marks.append(loop.server.cpu_seconds())
        if time.perf_counter() - last_pss >= PSS_EVERY_S:
            last_pss = time.perf_counter()
            for loop in loops:
                loop.sample_pss()

    sample()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for loop in loops:
            loop.round()
        if time.perf_counter() - calibration.stamps[-1] >= CALIBRATION_EVERY_S:
            sample()
    sample()
    for loop in loops:
        loop.sample_pss()
    results = [loop.finish(pss_since=started + seconds / 2) for loop in loops]
    for samples in results:
        samples["calibration"] = calibration
    return results


def clean_run_checks(wl, server: Server, samples: dict, tally: Tally) -> dict:
    """stats errors == 0, queries == sent; then shutdown (checked by caller)."""
    stats = server.conn.request({"op": "stats"})
    totals = stats.get("totals", {})
    tally.record(None if totals.get("errors") == 0 else f"stats errors={totals.get('errors')}")
    sent = samples["queries_sent"]
    queries = totals.get("queries")
    tally.record(None if queries == sent else f"stats queries={queries} sent={sent}")
    if wl.no_cache_hits:
        hits = totals.get("cache_hits")
        tally.record(None if hits == 0 else f"stats cache_hits={hits} on distinct keys")
    return stats


def end_to_end(samples: dict, setups: list[float]) -> dict:
    """The end-to-end metrics, times scaled to the reference machine speed.

    Each read latency, round rate and slice of server CPU time is scaled
    by the machine's slowdown around it; set-up time by the loop's.  The raw
    client-observed figures and the loop's slowdown are printed on the
    line before the result.
    """
    calibration = samples["calibration"]
    ops = len(samples["reads"]) + len(samples["writes"])
    reads_ms = [s * 1000.0 for s in samples["reads"]]
    scaled_ms = [
        ms / calibration.slowdown_at(stamp) for ms, stamp in zip(reads_ms, samples["read_stamps"])
    ]
    scaled_rates = [
        rate * calibration.slowdown_at(stamp)
        for rate, stamp in zip(samples["round_rates"], samples["round_stamps"])
    ]
    marks, stamps = samples["cpu_marks"], calibration.stamps
    scaled_cpu = sum(
        (marks[i + 1] - marks[i]) / calibration.slowdown_at((stamps[i] + stamps[i + 1]) / 2)
        for i in range(len(marks) - 1)
    )
    slowdown = calibration.slowdown()
    scaled = {
        "throughput_ops": statistics.median(scaled_rates),
        "read_p50_ms": percentile(scaled_ms, 50),
        "read_p90_ms": percentile(scaled_ms, 90),
        "cpu_ms_per_op": scaled_cpu * 1000.0 / ops,
    }
    raw = {
        "throughput_ops": (statistics.median(samples["round_rates"]), "ops/s", -1),
        "read_p50_ms": (percentile(reads_ms, 50), "ms", 1),
        "read_p90_ms": (percentile(reads_ms, 90), "ms", 1),
        "cpu_ms_per_op": ((samples["cpu_marks"][-1] - samples["cpu_marks"][0]) * 1000.0 / ops,
                          "ms", 1),
        "pss_mb": (samples["pss"], "MiB", 0),
        "setup_s": (statistics.median(setups), "s", 1),
    }
    print(json.dumps({
        "raw": {name: value for name, (value, _, _) in raw.items()},
        "calibration_ms": statistics.median(calibration.seconds) * 1000.0,
        "slowdown": slowdown,
    }))
    return {
        name: {"value": scaled.get(name, value / slowdown**power), "unit": unit}
        for name, (value, unit, power) in raw.items()
    }


def set_up(wl, index_dir: Path, tally: Tally, repeats: int, extra_args=()) -> tuple[Server, list]:
    """``repeats`` set-ups; all but the last server are shut down (checked)."""
    seconds, server = [], None
    for attempt in range(repeats):
        server, taken = setup_server(wl, index_dir, extra_args)
        tally.server_pids.append(server.pid)
        seconds.append(taken)
        if attempt < repeats - 1:
            tally.record(None if server.shutdown() else "server did not exit on shutdown")
    return server, seconds


def tear_down(wl, server: Server, samples: dict, tally: Tally) -> dict:
    """Clean-run checks, then shutdown; returns the final ``stats``."""
    try:
        stats = clean_run_checks(wl, server, samples, tally)
    except BaseException:
        server.kill()
        raise
    tally.record(None if server.shutdown() else "server did not exit on shutdown")
    return stats


def run_untraced(wl, data: dict, seed: int, seconds: float, work: Path, tally: Tally):
    """Set-ups, the closed loop and the clean-run checks on the last server."""
    server, setups = set_up(wl, work / "index", tally, SETUP_REPEATS)
    try:
        data["delta_log"].clear()
        (samples,) = run_loops([Loop(wl, server, data, seed, tally)], seconds)
    except BaseException:
        server.kill()
        raise
    tear_down(wl, server, samples, tally)
    return samples, setups


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    work = ROOT / ".servebench" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workload(name)
        data = load_data(("livejournal", "dolphin"))
        problems = run_self_test(data)
        for problem in problems:
            tally.record(problem, wrong=True)
        if trace:
            from layers import traced_run

            metrics = traced_run(wl, data, seed, seconds, work, tally)
        else:
            samples, setups = run_untraced(wl, data, seed, seconds, work, tally)
            metrics = end_to_end(samples, setups)
        leaked = live_segments(tally.server_pids)
        tally.record(None if not leaked else f"leaked shared-memory segments: {sorted(leaked)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tally.reasons:
        print("failures:", *tally.reasons, sep="\n  ", file=sys.stderr)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_self_test(data: dict) -> list[str]:
    """The oracle must accept a real FPA answer and reject four corruptions."""
    from repro.core import fpa

    oracle = data["oracle:livejournal"]
    community = data["communities:livejournal"][0]
    queries = community[:2]
    result = fpa(data["livejournal"].graph.freeze(), queries)
    answer = {
        "nodes": sorted(result.nodes, key=repr),
        "score": result.score,
        "failed": bool(result.extra.get("failed")),
    }
    # a node of core number >= 5 whose 5-core community leaves nodes out
    kc_node = min(node for node, core in oracle.core.items() if core >= 5)
    return self_test(oracle, answer, queries, [kc_node], 5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help=f"run every workload for {SHORT_SECONDS}s, traced and untraced, every check on",
    )
    args = parser.parse_args(argv)
    # a terminated run still stops its servers (the cleanup paths catch BaseException)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    adopt_orphans()
    try:
        return _main(parser, args)
    finally:
        # nothing the run started may outlive it: not a server's worker, not
        # this process's own resource tracker
        killed = stop_children()
        if killed:
            print(f"killed leftover processes: {killed}", file=sys.stderr)


def _main(parser, args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.short:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, SHORT_SECONDS, trace)
                print(name, "trace" if trace else "untraced", json.dumps(result))
                ok = ok and result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required (or pass --short)")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
