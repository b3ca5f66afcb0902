"""End-to-end observability smoke: tracing, metrics, logs, the health plane.

Drives a **real** ``repro serve`` subprocess with ``--trace-sample 1.0
--log-json --slow-ms 0`` over the wire and asserts the whole telemetry
story the way a dashboard (or an on-call human) would consume it:

* every response carries a ``trace_id``, and the ``trace`` wire op returns
  the complete span chain for it — admission disposition, queue wait, and
  execution (for the process executor, with the *worker's* pid on the
  span, proving the context crossed the process boundary);
* the ``metrics`` wire op emits Prometheus text exposition that parses
  line by line, including the histogram bucket series;
* the slow-query log is valid JSONL with trace ids that match responses;
* a coordinator + joined node aggregate heartbeat summaries into the
  per-dataset health block, and ``repro top`` renders it.

Exit code 0 means every check passed; failures are listed.  Timings are
never asserted.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for bench_serving imports
from bench_serving import (  # noqa: E402
    HOST,
    CoordinatorProcess,
    ServerProcess,
)

from repro.serving import ServingClient  # noqa: E402


def span_index(spans):
    return {span["name"]: span for span in spans}


def run_tracing_phase(check, executor: str | None, log_path: str) -> None:
    """Full-fidelity tracing against one server: span chains + logs + metrics."""
    label = executor or "inline"
    config = dict(trace_sample=1.0, log_json=log_path, slow_ms=0.0)
    if executor:
        config.update(executor=executor)
    server = ServerProcess(("karate",), **config)
    try:
        with ServingClient(HOST, server.port) as client:
            first = client.query("karate", "kt", [0])
            check(f"{label}: first query ok", bool(first.get("ok")))
            check(f"{label}: trace_id on the wire", bool(first.get("trace_id")))
            repeat = client.query("karate", "kt", [0])
            check(f"{label}: repeat served from cache", repeat.get("cached") is True)
            check(f"{label}: repeat has its own trace_id",
                  bool(repeat.get("trace_id"))
                  and repeat["trace_id"] != first["trace_id"])

            trace = client.trace(first["trace_id"])
            check(f"{label}: trace op ok", bool(trace.get("ok")))
            by_name = span_index(trace.get("spans", ()))
            for name in ("request", "shard.admit", "queue.wait", "execute"):
                check(f"{label}: span {name} present", name in by_name)
            if {"request", "shard.admit", "queue.wait", "execute"} <= set(by_name):
                root = by_name["request"]
                check(f"{label}: root span is the trace root",
                      root["parent"] is None and root["trace"] == first["trace_id"])
                check(f"{label}: children hang off the root",
                      all(span["parent"] == root["span"]
                          for span in trace["spans"] if span is not root))
                check(f"{label}: admission saw a miss",
                      by_name["shard.admit"]["tags"].get("disposition") == "miss")
                execute_pid = by_name["execute"]["tags"].get("pid")
                if executor == "process":
                    check(f"{label}: execute span crossed the process boundary",
                          execute_pid not in (None, server.proc.pid))
                else:
                    check(f"{label}: execute span ran in the server process",
                          execute_pid == server.proc.pid)

            repeat_trace = client.trace(repeat["trace_id"])
            repeat_names = span_index(repeat_trace.get("spans", ()))
            check(f"{label}: cache hit trace is request+admit only",
                  set(repeat_names) == {"request", "shard.admit"})
            if "shard.admit" in repeat_names:
                check(f"{label}: cache hit disposition",
                      repeat_names["shard.admit"]["tags"].get("disposition") == "hit")

            recent = client.trace()
            check(f"{label}: recent traces listed",
                  bool(recent.get("ok")) and len(recent.get("traces", ())) >= 2)

            metrics = client.metrics()
            check(f"{label}: metrics op ok", bool(metrics.get("ok")))
            text = metrics.get("text", "")
            check(f"{label}: exposition has the query counter",
                  "repro_queries_total" in text)
            check(f"{label}: exposition has latency buckets",
                  'repro_request_latency_ms_bucket{' in text)
            if executor == "process":
                check(f"{label}: worker metric deltas merged",
                      "repro_worker_execute_ms" in text)
            parse_ok = True
            for line in text.splitlines():
                if line.startswith("#"):
                    continue
                try:
                    float(line.rpartition(" ")[2])
                except ValueError:
                    parse_ok = False
            check(f"{label}: every exposition sample parses", parse_ok)
    finally:
        check(f"{label}: clean shutdown", server.shutdown() == 0)

    lines = [ln for ln in Path(log_path).read_text().splitlines() if ln.strip()]
    check(f"{label}: structured log non-empty", bool(lines))
    records = []
    jsonl_ok = True
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            jsonl_ok = False
    check(f"{label}: log is valid JSONL", jsonl_ok)
    slow = [record for record in records if record.get("event") == "slow_query"]
    check(f"{label}: slow_query events logged (slow-ms 0)", len(slow) >= 2)
    check(f"{label}: slow_query carries trace ids",
          all(record.get("trace_id") for record in slow))


def run_health_phase(check) -> None:
    """Coordinator + joined node: health aggregation and ``repro top``."""
    coordinator = CoordinatorProcess(("karate",), replication=1)
    node = None
    try:
        node = ServerProcess(("karate",), join=coordinator.address, trace_sample=1.0)
        with ServingClient(HOST, coordinator.port) as control:
            deadline = time.perf_counter() + 30.0
            while True:
                table = control.request({"op": "route_table"})["table"]
                if table.get("karate"):
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"node never joined; table: {table}")
                time.sleep(0.05)
        with ServingClient(HOST, node.port) as client:
            for _ in range(5):
                response = client.query("karate", "kt", [0])
                check("health: cluster query ok", bool(response.get("ok")))
        # health summaries ride heartbeats (0.2s cadence): wait for one
        with ServingClient(HOST, coordinator.port) as control:
            deadline = time.perf_counter() + 30.0
            health = {}
            while time.perf_counter() < deadline:
                health = control.stats().get("health", {})
                if health.get("karate", {}).get("queries", 0) >= 5:
                    break
                time.sleep(0.1)
        block = health.get("karate", {})
        check("health: dataset aggregated", bool(block))
        check("health: query counter summed", block.get("queries", 0) >= 5)
        check("health: merged-histogram p99 present",
              block.get("p99_ms", 0) >= block.get("p50_ms", 0) >= 0)
        check("health: live replica counted", block.get("nodes") == 1)

        top = subprocess.run(
            [sys.executable, "-m", "repro", "top", coordinator.address],
            capture_output=True,
            text=True,
            timeout=60,
        )
        check("health: repro top exits 0", top.returncode == 0)
        check("health: repro top shows the dataset", "karate" in top.stdout)
        top_json = subprocess.run(
            [sys.executable, "-m", "repro", "top", coordinator.address, "--json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        parsed = {}
        if top_json.returncode == 0:
            parsed = json.loads(top_json.stdout)
        check("health: repro top --json parses", "karate" in parsed)
    finally:
        if node is not None:
            node.shutdown()
        coordinator.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--executors",
        nargs="+",
        default=["inline", "process"],
        choices=["inline", "process"],
        help="executor strategies to run the tracing phase against",
    )
    parser.add_argument(
        "--skip-cluster",
        action="store_true",
        help="skip the coordinator/health-plane phase",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] {name}")
        if not ok:
            failures.append(name)

    for executor in args.executors:
        print(f"tracing phase ({executor}):")
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", prefix="repro-obs-", delete=False
        ) as handle:
            log_path = handle.name
        try:
            run_tracing_phase(
                check, None if executor == "inline" else executor, log_path
            )
        finally:
            Path(log_path).unlink(missing_ok=True)

    if not args.skip_cluster:
        print("health-plane phase:")
        run_health_phase(check)

    if failures:
        print(f"OBS SMOKE FAILURES ({len(failures)}):")
        for failure in failures[:20]:
            print(f"  - {failure}")
        return 1
    print("obs smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
