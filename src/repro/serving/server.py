"""The asyncio TCP front end: line-delimited JSON over a socket.

:class:`QueryServer` wraps a :class:`~repro.serving.engine.ServingEngine`
behind ``asyncio.start_server``.  Each connection is handled sequentially
(one request line → one response line, in order); concurrency comes from
connections, which is exactly the shape the per-replica micro-batching
exploits: while one batch executes off the loop, request lines from other
connections keep queueing and are drained into the next batch.

Two admission-control behaviours live at this layer: after writing an
``overloaded`` response the handler stops reading that connection for the
advertised retry window (TCP read backpressure — the flooding client's
socket buffer fills instead of the event loop spinning), and
:meth:`QueryServer.close` shuts down in drain order (listener → engine →
connections) so in-flight batches finish and queued requests receive
their structured errors before any socket is torn down.

Three ways to run it:

* :func:`run_server` — the blocking entry point behind ``repro serve``;
  runs until a client sends ``{"op": "shutdown"}`` or the process receives
  SIGINT, then closes the engine cleanly;
* :class:`QueryServer` directly from an existing event loop (tests);
* :class:`ServerThread` — a context manager that runs the whole stack in a
  daemon thread with its own loop, used by the test-suite and the load
  generator to stand a real server up in-process.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Any, Callable, Optional

from .engine import ServingEngine
from .protocol import ProtocolError, decode_line, encode, error_payload

__all__ = ["QueryServer", "ServerThread", "run_server"]


#: Maximum request-line length (the asyncio default of 64 KiB is too small
#: for multi-thousand-node query lists; beyond this is a structured error).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Upper bound on the per-connection read pause after an ``overloaded``
#: response (TCP read backpressure; the shard's ``retry_after_ms`` hint is
#: honoured up to this cap so one flooding client cannot be parked forever).
MAX_BACKPRESSURE_SECONDS = 0.25


class QueryServer:
    """Serve an engine over line-delimited JSON on a TCP socket."""

    def __init__(self, engine: ServingEngine, host: str = "127.0.0.1", port: int = 0) -> None:
        self.engine = engine
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        """Start the engine and bind the listening socket."""
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_shutdown(self) -> None:
        """Block until a client requests shutdown (or :meth:`close` is called)."""
        await self._shutdown.wait()

    async def close(self) -> None:
        """Graceful drain: listener first, then the engine, then connections.

        The ordering is what makes shutdown graceful: (1) stop accepting new
        connections, (2) drain the engine — in-flight batches finish and
        their clients receive real results, queued-but-unstarted requests
        receive structured errors, both written by handlers that are still
        alive at this point, (3) close the remaining (idle) connections.
        Idle connections must be closed here: since Python 3.12
        ``Server.wait_closed`` also waits for the connection handlers, which
        would otherwise sit in ``readline`` forever and hang shutdown.
        Idempotent.
        """
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
        await self.engine.close()
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # request line beyond the stream limit; the tail of the
                    # oversized line is unrecoverable, so answer and close
                    writer.write(
                        encode(
                            error_payload(
                                ProtocolError(
                                    "bad_request",
                                    f"request line exceeds {MAX_LINE_BYTES} bytes",
                                )
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = decode_line(line)
                except ProtocolError as exc:
                    writer.write(encode(error_payload(exc)))
                    await writer.drain()
                    continue
                if payload.get("op") == "shutdown":
                    response: dict[str, Any] = {"ok": True, "op": "shutdown"}
                    if payload.get("id") is not None:
                        response["id"] = payload["id"]
                    writer.write(encode(response))
                    await writer.drain()
                    self._shutdown.set()
                    break
                response = await self.engine.handle(payload)
                writer.write(encode(response))
                await writer.drain()
                error = response.get("error")
                if error and error.get("code") == "overloaded":
                    # TCP read backpressure: stop reading this connection for
                    # the advertised retry window, so a flooding client's
                    # kernel send buffer fills and its writes block instead
                    # of the event loop churning through doomed requests
                    pause = min(
                        error.get("retry_after_ms", 10) / 1000.0,
                        MAX_BACKPRESSURE_SECONDS,
                    )
                    await asyncio.sleep(pause)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to clean up
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def run_server(
    engine: ServingEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce: Callable[[str], None] = functools.partial(print, flush=True),
) -> int:
    """Run the server until shutdown is requested; returns an exit code.

    ``announce`` receives the ``serving on HOST:PORT`` line once the socket
    is bound (the CLI prints it; the load generator parses it to discover
    an ephemeral port — hence the flush, which must survive a pipe).
    """

    async def _main() -> None:
        server = QueryServer(engine, host, port)
        try:
            # inside the try: a failed bind (port in use) must still close
            # the already-started engine (shard tasks, worker processes)
            await server.start()
            announce(f"serving on {server.host}:{server.port}")
            await server.wait_shutdown()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        return 0
    return 0


class ServerThread:
    """Run engine + server in a daemon thread: the in-process test harness.

    Usage::

        with ServerThread(datasets=["karate"]) as handle:
            client = ServingClient("127.0.0.1", handle.port)
            ...

    Exiting the context sends a shutdown request (if the server is still
    up) and joins the thread; a crash inside the thread is re-raised.
    """

    def __init__(self, *, host: str = "127.0.0.1", startup_timeout: float = 30.0, **engine_kwargs) -> None:
        self.host = host
        self.port: Optional[int] = None
        #: the engine this thread serves — built eagerly so a caller (e.g. a
        #: cluster NodeAgent in the tests) can attach to it before/while the
        #: server runs
        self.engine = ServingEngine(**engine_kwargs)
        self._startup_timeout = startup_timeout
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="repro-serving", daemon=True)

    def _run(self) -> None:
        def _note_port(message: str) -> None:
            self.port = int(message.rsplit(":", 1)[1])
            self._ready.set()

        try:
            run_server(self.engine, self.host, 0, announce=_note_port)
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            self._error = exc
            self._ready.set()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise TimeoutError("serving thread did not start in time")
        if self._error is not None:
            raise RuntimeError("serving thread failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown over the wire and join the server thread."""
        if self._thread.is_alive() and self.port is not None:
            from .client import ServingClient

            try:
                with ServingClient(self.host, self.port) as client:
                    client.shutdown()
            except OSError:
                pass  # already shutting down
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("serving thread did not shut down in time")
        if self._error is not None:
            raise RuntimeError("serving thread crashed") from self._error
