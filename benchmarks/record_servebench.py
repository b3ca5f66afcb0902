"""Run one servebench workload and append its result to a trajectory file.

Usage (from the repository root)::

    python benchmarks/record_servebench.py --workload epoch-churn --seed 1
    python benchmarks/record_servebench.py --workload epoch-churn --seed 1 --trace 1
    python benchmarks/record_servebench.py --workload epoch-churn --checkout ../base --label base

Runs ``servebench/run.py`` of ``--checkout`` (default: this repository) as
a subprocess, so the server it measures is built from that checkout's
sources, and appends one record to ``benchmarks/BENCH_servebench.json``
through :func:`_bench_util.append_json`.  The record holds the run's JSON
result line and the config that names the measurement: workload, seed,
seconds, trace, the checkout's git revision (and whether its tree was
dirty), the CPU cores, whether the numpy tier was on, and the calibration
kernel's median time (the machine-speed figure servebench scales by).  A
traced run also records the median of every served ``epoch.*`` span — the
per-stage split of ``epoch.prepare`` and ``epoch.commit``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from _bench_util import append_json

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = ROOT / "benchmarks" / "BENCH_servebench.json"


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() if done.returncode == 0 else ""


def _vec_tier(checkout: Path) -> bool:
    """Whether the checkout's kernels dispatch to numpy in this environment."""
    probe = (
        "import sys; sys.path.insert(0, 'src'); "
        "from repro.graph.vec_kernels import vec_enabled; print(vec_enabled())"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=checkout, capture_output=True, text=True, check=True
    )
    return done.stdout.strip() == "True"


def _cores() -> int:
    """CPUs this process may run on (the affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _json_lines(stdout: str) -> list[dict]:
    lines = []
    for line in stdout.splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            lines.append(value)
    return lines


def _epoch_stages(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """Median ms of every served ``epoch.*`` span in a traced run's dump."""
    dump = checkout / ".servebench" / "traces" / f"{workload}-{seed}.json"
    if not dump.is_file():
        return {}
    stages: dict[str, list[float]] = {}
    for span in json.loads(dump.read_text()):
        name = span.get("name") or ""
        if span.get("source") == "server" and name.startswith("epoch."):
            stages.setdefault(name, []).append((span["end"] - span["start"]) * 1000.0)
    return {name: round(statistics.median(ms), 3) for name, ms in sorted(stages.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository to measure")
    parser.add_argument("--label", default="", help="free-form name of the measured tree")
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()

    command = [
        sys.executable, "servebench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = _json_lines(done.stdout)
    if done.returncode != 0 or not lines or "metrics" not in lines[-1]:
        print(done.stdout)
        print(f"error: servebench exited {done.returncode} without a result line", file=sys.stderr)
        return 1
    result = lines[-1]
    calibration = next(
        (line["calibration_ms"] for line in lines if "calibration_ms" in line),
        result["metrics"].get("machine.calibration_ms", {}).get("value"),
    )
    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "label": args.label,
        "revision": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "cores": _cores(),
        "vec": _vec_tier(checkout),
        "calibration_ms": calibration,
    }
    extra = {"config": config, "result": result}
    if args.trace:
        extra["epoch_stages_ms"] = _epoch_stages(checkout, args.workload, args.seed)
    print(json.dumps(extra))
    ok = result.get("correct", False) and result.get("failed", 1) == 0
    append_json(str(args.json), "servebench", 1.0, [], ok, **extra)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
