"""A ``repro serve`` subprocess, its wire connection and its /proc accounting.

The benchmark talks to the server the way any client would: one TCP
connection, line-delimited JSON.  CPU time and PSS are read from
``/proc/<pid>`` of the server and of every process below it (the
``--executor process`` workers and multiprocessing's helper), so they
count what the serving tier as a whole spends.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"
#: a request that takes longer than this is a hang, not a slow answer
REQUEST_TIMEOUT_S = 120.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: prctl option: orphaned descendants are re-parented to this process
_PR_SET_CHILD_SUBREAPER = 36
#: seconds the benchmark's leftover processes get to end before they are killed
STOP_GRACE_S = 10.0


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        data = handle.read()
    # the command name is parenthesised and may hold spaces
    return data[data.rindex(")") + 2 :].split()


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (workers, resource tracker, ...)."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                parents[int(entry.name)] = int(_stat_fields(int(entry.name))[1])
            except (OSError, ValueError, IndexError):
                continue
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds(pids: list[int], reaped_of: int) -> float:
    """User+system CPU of ``pids``; ``reaped_of`` also adds its waited-for children."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
        if pid == reaped_of:
            total += int(fields[13]) + int(fields[14])
    return total / _CLOCK_TICKS


def pss_mb(pid: int) -> float:
    """Proportional set size: shared pages are split among their mappers."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def adopt_orphans() -> None:
    """Become the subreaper of every process this one starts.

    A process whose parent exits first (a server's worker or resource
    tracker) is then re-parented here instead of to init, so
    :func:`stop_children` still finds and reaps it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(grace_s: float = STOP_GRACE_S) -> list[int]:
    """End every process below this one and wait for each; returns the killed.

    This process's own multiprocessing resource tracker (started by an
    in-process ``FrozenGraph.share``) is stopped and waited for first; any
    process still alive after ``grace_s`` seconds is killed, and all are
    reaped before this returns.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - not running, or already stopped
        pass
    killed: list[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        _reap()
        alive = [pid for pid in descendants(os.getpid()) if _alive(pid)]
        if not alive or (killed and time.monotonic() >= deadline):
            return killed
        if not killed and time.monotonic() >= deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            killed = alive
            deadline = time.monotonic() + grace_s
        time.sleep(0.02)


class Connection:
    """One keep-alive connection; ``call`` returns (raw line, seconds)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> tuple[bytes, float]:
        started = time.perf_counter()
        self.sock.sendall(line)
        reply = self.reader.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply, elapsed

    def request(self, payload: dict) -> dict:
        reply, _ = self.call((json.dumps(payload) + "\n").encode())
        return json.loads(reply)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """``python -m repro serve --port 0 ...`` run from the checkout's ``src``."""

    def __init__(self, root: Path, args: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=root,
        )
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.proc.kill()
            self.proc.wait(30)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.conn = Connection(self.port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return cpu_seconds([self.pid, *descendants(self.pid)], reaped_of=self.pid)

    def pss(self) -> tuple[float, float]:
        """(server MiB, workers MiB)."""
        return pss_mb(self.pid), sum(pss_mb(pid) for pid in descendants(self.pid))

    def shutdown(self) -> bool:
        """Ask over the wire; True when the server exits with code 0 and
        every process below it has ended too."""
        workers = descendants(self.pid)
        try:
            self.conn.request({"op": "shutdown"})
        except (OSError, ValueError):
            pass
        self.conn.close()
        try:
            clean = self.proc.wait(60) == 0
        except subprocess.TimeoutExpired:
            self.kill()
            clean = False
        finally:
            self.proc.stdout.close()
        deadline = time.monotonic() + 10
        while workers and time.monotonic() < deadline:
            workers = [pid for pid in workers if _alive(pid)]
            time.sleep(0.05)
        for pid in workers:  # orphans: stop them, and fail the check
            clean = False
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        return clean

    def kill(self) -> None:
        for pid in descendants(self.pid):
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        self.proc.kill()
        self.proc.wait(30)


def live_segments(owners) -> set[str]:
    """``repro_snap_*`` segments in /dev/shm that the processes ``owners`` made.

    Segment names end in ``<creator pid>_<counter>`` (``repro.graph.shm``),
    so segments of other programs on the machine are never counted.
    """
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    owned = {str(pid) for pid in owners}
    return {
        entry.name for entry in shm.glob("repro_snap_*")
        if entry.name.rsplit("_", 2)[-2] in owned
    }


def build_index(root: Path, dataset: str, index_dir: Path) -> None:
    """``repro index build`` as the user would run it before serving."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    subprocess.run(
        [sys.executable, "-m", "repro", "index", "build", dataset, "--index-dir", str(index_dir)],
        check=True,
        stdout=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
        env=env,
        cwd=root,
        timeout=300,
    )
