"""The HTTP edge (the "Web server" of Figure 1): one asyncio event loop.

Every connection is a coroutine on one event loop running in a
background thread, so concurrency costs a coroutine instead of a
thread:

* **Keep-alive and pipelining.**  HTTP/1.1 connections persist unless
  the client says ``Connection: close``; HTTP/1.0 clients opt in with
  ``Connection: Keep-Alive``, Netscape-style.  Requests are read off a
  per-connection byte buffer; bytes beyond the current request (a
  pipelined client sends several at once) carry over to the next parse
  instead of being dropped, and responses go back in request order.
* **Strict request framing.**  A body is exactly ``Content-Length``
  bytes: ambiguous lengths, oversized heads or bodies and bodies that
  end early answer 400 and close, a ``Transfer-Encoding`` request 501 —
  none of them reaches the router.
* **Chunked streaming.**  A streamed report does not cost the
  connection: an HTTP/1.1 client gets ``Transfer-Encoding: chunked``
  (each engine chunk framed as it is produced) and the connection
  survives for the next request.  HTTP/1.0 clients get a
  close-delimited stream.
* **Write backpressure.**  Every write awaits ``drain()``; a slow
  reader suspends only its own coroutine, and the engine-side producer
  blocks on a bounded queue — a client that stops reading stops the
  query, it does not balloon server memory.
* **Bounded connection budget.**  Past ``max_connections`` the edge
  answers an immediate 503 and closes — shedding at the door instead
  of queueing into collapse.
* **Multi-acceptor.**  With ``reuse_port=True`` several server
  processes bind the same port via ``SO_REUSEPORT`` and the kernel
  load-balances accepts across them (``repro serve --acceptors N``).

Routing is the synchronous :class:`~repro.http.router.Router`.  A
request that can block — anything bound for the CGI gateway or a
tenant engine, and anything at all once admission control may queue
it — runs on a small thread pool; the rest (in-memory pages, scrape
endpoints) is answered in-loop.  Streaming generators are driven inside
**one** executor thread per response — the engine's sqlite handles
have thread affinity — with chunks handed to the event loop over a
bounded queue.

Edge health is exported through the obs registry (``edge_*`` gauges
and counters) and therefore shows up on ``/statusz`` and ``/metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional

from repro.errors import BadRequestError, HttpError
from repro.http.headers import Headers
from repro.http.message import (
    HttpRequest,
    HttpResponse,
    content_length_of,
    html_response,
)
from repro.http.router import CGI_PREFIX, TENANT_PREFIX, Router
from repro.http.status import reason_for
from repro.http.urls import normalize_path
from repro.obs.trace import new_trace_id
from repro.overload.retryafter import retry_after_header
from repro.resilience.deadline import Deadline

_MAX_HEAD = 64 * 1024
_MAX_BODY = 8 * 1024 * 1024
_READ_CHUNK = 65536
#: writes buffered beyond this before ``drain()`` count as backpressure
_HIGH_WATER = 64 * 1024
#: engine chunks in flight between producer thread and event loop
_STREAM_BUFFER = 8
#: threads serving requests that block (gateway, tenants, admission)
EXECUTOR_THREADS = 8

_DONE = object()   # stream pump: generator exhausted cleanly
_FAIL = object()   # stream pump: generator raised mid-stream


class _NullMetric:
    """Stands in for every edge metric when no registry is attached."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


_NULL = _NullMetric()


class AsyncHttpServer:
    """Serve a router from an asyncio event loop in a background thread.

    Usable as a context manager::

        with AsyncHttpServer(router) as server:
            url = f"{server.base_url}/"
    """

    def __init__(self, router: Router, *, host: str = "127.0.0.1",
                 port: int = 0, timeout: float = 10.0,
                 idle_timeout: float | None = None,
                 keep_alive_max: int = 1000,
                 max_connections: int = 1024,
                 backlog: int = 512,
                 reuse_port: bool = False,
                 request_deadline: float | None = None,
                 metrics=None):
        self.router = router
        self.timeout = timeout
        #: per-request wall-clock budget (seconds), minted when the
        #: request is fully parsed.  The budget covers the executor
        #: hand-off too: a request whose deadline expires while queued
        #: for an executor thread answers 504 *without* ever touching
        #: the router or the gateway behind it.
        self.request_deadline = request_deadline
        self.idle_timeout = idle_timeout if idle_timeout is not None \
            else timeout
        self.keep_alive_max = keep_alive_max
        self.max_connections = max_connections
        self.backlog = backlog
        self.metrics = metrics
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            # Several acceptor processes share the port; the kernel
            # spreads incoming connections across their accept queues.
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEPORT, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()
        router.server_name = self.host
        router.server_port = self.port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._active = 0
        self._bind_metrics()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AsyncHttpServer":
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-async-httpd",
                                        daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        return self

    def shutdown(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._listener.close()

    def __enter__(self) -> "AsyncHttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def active_connections(self) -> int:
        return self._active

    # -- event loop --------------------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="repro-edge")
        server = await asyncio.start_server(self._serve_connection,
                                            sock=self._listener)
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            self._executor.shutdown(wait=False)

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._m_conns_total.inc()
        if self._active >= self.max_connections:
            self._m_shed.inc()
            await self._shed(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            return
        self._active += 1
        self._m_conns_active.set(self._active)
        try:
            await self._connection_loop(reader, writer)
        except (asyncio.CancelledError, asyncio.TimeoutError,
                ConnectionError, OSError):
            pass
        finally:
            self._active -= 1
            self._m_conns_active.set(self._active)
            if task is not None:
                self._conn_tasks.discard(task)
            await _close_writer(writer)

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        remote_addr = peername[0] if peername else "127.0.0.1"
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Without this, pipelined sub-MSS responses sit in the
            # kernel behind Nagle waiting out the peer's delayed ACK —
            # a fixed ~40 ms stall per burst.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        loop = asyncio.get_running_loop()
        buffer = b""
        served = 0
        while served < self.keep_alive_max:
            try:
                raw, buffer = await self._read_request(reader, buffer)
            except HttpError as exc:
                # Framing the edge cannot trust poisons everything
                # pipelined behind it: refuse and drop the connection.
                await self._write_response(
                    writer, self._refusal(exc.status, str(exc)),
                    keep_alive=False)
                return
            if raw is None:
                return
            self._m_requests.inc()
            keep_alive = False
            http11 = False
            try:
                request = HttpRequest.parse(raw)
                http11 = request.version == "HTTP/1.1"
                keep_alive = _keeps_alive(request, http11)
                trace_id = new_trace_id() \
                    if self.router.tracer.enabled else ""
                deadline = Deadline.after(self.request_deadline) \
                    if self.request_deadline else None
                handle = functools.partial(self.router.handle, request,
                                           remote_addr=remote_addr,
                                           trace_id=trace_id,
                                           deadline=deadline)
                if self._blocks(request):
                    response = await loop.run_in_executor(
                        self._executor,
                        self._guarded(handle, deadline))
                else:
                    response = handle()
            except BadRequestError as exc:
                response = self._refusal(exc.status, str(exc))
                keep_alive = False
            served += 1
            if served >= self.keep_alive_max:
                keep_alive = False
            if http11:
                # Answer in the client's dialect: an HTTP/1.1 request
                # gets an HTTP/1.1 status line (clients gate pipelining
                # and default keep-alive on the response version).
                response.version = "HTTP/1.1"
            if response.streaming:
                if http11:
                    # Chunked framing: the stream does not cost the
                    # connection.
                    self._m_chunked.inc()
                    ok = await self._send_chunked(writer, response,
                                                  keep_alive)
                    if not ok or not keep_alive:
                        return
                    continue
                await self._send_close_delimited(writer, response)
                return
            await self._write_response(writer, response,
                                       keep_alive=keep_alive)
            if not keep_alive:
                return

    def _blocks(self, request: HttpRequest) -> bool:
        """Whether answering ``request`` can block its thread.

        The gateway and tenant engines run macros and SQL, and an
        admission controller may park any request in its queue; those
        go to the executor so one slow query stalls one thread, not
        every connection on the loop.  The path is normalised first —
        the router routes on the normalised form.
        """
        if self.router.overload is not None:
            return True
        return normalize_path(request.path).startswith(
            (CGI_PREFIX, TENANT_PREFIX))

    def _guarded(self, handle, deadline):
        """Wrap a router call with a deadline check run *in the
        executor thread*.

        Under load the executor's own queue is an invisible admission
        queue: a request can wait there longer than its whole budget.
        Checking at the moment a thread finally picks it up turns that
        wasted work into an immediate 504 — the router, admission queue
        and worker pool never see the corpse.
        """
        if deadline is None:
            return handle

        def run() -> HttpResponse:
            if deadline.expired:
                self._m_deadline_expired.inc()
                return self._refusal(504, "request deadline expired "
                                          "before processing began")
            return handle()

        return run

    # -- request reading ---------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader,
                            buffer: bytes) -> tuple[bytes | None, bytes]:
        """One full request off the connection, pipelining-aware.

        ``buffer`` holds bytes already read past the previous request;
        returns ``(request_bytes, remaining_buffer)`` with ``None`` on
        EOF or timeout before a request began.  Framing violations
        (oversized head, ambiguous Content-Length, oversized or
        truncated body) raise :class:`BadRequestError` and a
        ``Transfer-Encoding`` request raises its 501 — the caller
        refuses and closes; a half-read request never reaches the
        router.
        """
        data = buffer
        separator = b"\r\n\r\n"
        while separator not in data and b"\n\n" not in data:
            if len(data) > _MAX_HEAD:
                raise BadRequestError(
                    f"request head exceeds {_MAX_HEAD} bytes")
            timeout = self.idle_timeout if not data else self.timeout
            try:
                chunk = await asyncio.wait_for(reader.read(_READ_CHUNK),
                                               timeout)
            except asyncio.TimeoutError:
                return None, b""
            if not chunk:
                return None, b""
            data += chunk
        if separator not in data:
            separator = b"\n\n"
        head, _, rest = data.partition(separator)
        if len(head) > _MAX_HEAD:
            # The terminator and the overflow can arrive in one read;
            # the in-loop check alone would admit such a head.
            raise BadRequestError(
                f"request head exceeds {_MAX_HEAD} bytes")
        content_length = content_length_of(head)
        if content_length > _MAX_BODY:
            raise BadRequestError(
                f"declared body of {content_length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit")
        while len(rest) < content_length:
            try:
                chunk = await asyncio.wait_for(reader.read(_READ_CHUNK),
                                               self.timeout)
            except asyncio.TimeoutError:
                return None, b""
            if not chunk:
                raise BadRequestError(
                    f"request body ended after {len(rest)} of "
                    f"{content_length} declared bytes")
            rest += chunk
        body, remaining = rest[:content_length], rest[content_length:]
        return head + separator + body, remaining

    # -- response writing --------------------------------------------------

    async def _write(self, writer: asyncio.StreamWriter,
                     data: bytes) -> None:
        """Write then ``drain()`` — the per-connection backpressure.

        A slow reader fills the transport buffer; past the high-water
        mark ``drain()`` suspends this coroutine (and only this one)
        until the client catches up.
        """
        writer.write(data)
        transport = writer.transport
        if transport is not None and \
                transport.get_write_buffer_size() > _HIGH_WATER:
            self._m_backpressure.inc()
        await writer.drain()

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: HttpResponse, *,
                              keep_alive: bool) -> None:
        response.headers.set("Connection",
                             "Keep-Alive" if keep_alive else "close")
        await self._write(writer, response.serialize())

    def _refusal(self, status: int, detail: str) -> HttpResponse:
        """An error page for a request refused before routing.

        These paths open no span, but when tracing is on the response
        still carries an ``X-Trace-Id`` the client can quote.
        """
        response = html_response(
            f"<H1>{status} {reason_for(status)}</H1><P>{detail}</P>",
            status=status)
        if self.router.tracer.enabled:
            response.headers.set("X-Trace-Id", new_trace_id())
        return response

    async def _shed(self, writer: asyncio.StreamWriter) -> None:
        response = self._refusal(
            503, "connection budget exhausted; retry shortly")
        controller = self.router.overload
        hint = controller.retry_after_hint() \
            if controller is not None else None
        response.headers.set("Retry-After", retry_after_header(hint))
        try:
            await self._write_response(writer, response, keep_alive=False)
        except (ConnectionError, OSError):
            pass
        finally:
            await _close_writer(writer)

    async def _send_close_delimited(self, writer: asyncio.StreamWriter,
                                    response: HttpResponse) -> None:
        """HTTP/1.0 streaming: the close is the framing."""
        await self._write(writer, response.serialize_head())
        if response.body:
            await self._write(writer, response.body)
        assert response.body_iter is not None
        await self._pump(writer, response.body_iter, chunked=False)

    async def _send_chunked(self, writer: asyncio.StreamWriter,
                            response: HttpResponse,
                            keep_alive: bool) -> bool:
        """HTTP/1.1 chunked streaming; ``False`` means the stream died
        mid-body and the connection must close (the truncation *is* the
        error signal — chunked framing has no mid-stream status)."""
        headers = Headers(response.headers.items())
        headers.set("Transfer-Encoding", "chunked")
        headers.setdefault("Content-Type", "text/html")
        headers.set("Connection",
                    "Keep-Alive" if keep_alive else "close")
        head = (f"HTTP/1.1 {response.status} {response.reason}\r\n"
                + headers.serialize() + "\r\n").encode("latin-1")
        await self._write(writer, head)
        if response.body:
            # The buffered prefix (page header emitted before the first
            # row) rides as the first chunk.
            await self._write(writer, _chunk(response.body))
        assert response.body_iter is not None
        ok = await self._pump(writer, response.body_iter, chunked=True)
        if ok:
            await self._write(writer, b"0\r\n\r\n")
        return ok

    async def _pump(self, writer: asyncio.StreamWriter,
                    body_iter: Iterator[bytes], *,
                    chunked: bool) -> bool:
        """Drive a synchronous body generator from one executor thread.

        The generator touches sqlite cursors with thread affinity, so
        every ``__next__`` must run in the same thread: one producer
        thread iterates it to completion, handing chunks to this
        coroutine over a bounded queue (the engine stalls when the
        client does).  The iterator's ``close`` runs in that thread no
        matter what — streamed transactions settle their brackets even
        when the client vanishes mid-page.
        """
        loop = asyncio.get_running_loop()
        handoff: "asyncio.Queue[object]" = asyncio.Queue(
            maxsize=_STREAM_BUFFER)
        abort = threading.Event()

        def produce() -> None:
            sentinel = _DONE
            try:
                for chunk in body_iter:
                    if abort.is_set():
                        break
                    if not chunk:
                        continue
                    asyncio.run_coroutine_threadsafe(
                        handoff.put(chunk), loop).result()
            except BaseException:
                sentinel = _FAIL
            finally:
                close = getattr(body_iter, "close", None)
                if close is not None:
                    close()
                try:
                    asyncio.run_coroutine_threadsafe(
                        handoff.put(sentinel), loop).result(timeout=5.0)
                except (RuntimeError, TimeoutError):
                    pass  # loop shut down under us; nothing to signal

        assert self._executor is not None
        producer = loop.run_in_executor(self._executor, produce)
        ok = True
        try:
            while True:
                item = await handoff.get()
                if item is _DONE:
                    break
                if item is _FAIL:
                    ok = False
                    break
                try:
                    await self._write(
                        writer, _chunk(item) if chunked else item)
                except (ConnectionError, OSError):
                    ok = False
                    abort.set()
                    break
        finally:
            # Free a producer blocked on a full queue, then let it
            # finish closing the generator.
            abort.set()
            while not handoff.empty():
                handoff.get_nowait()
            try:
                await producer
            except asyncio.CancelledError:
                raise
            except Exception:
                ok = False
        return ok

    # -- metrics -----------------------------------------------------------

    def _bind_metrics(self) -> None:
        registry = self.metrics if self.metrics is not None \
            else getattr(self.router, "metrics", None)
        if registry is None:
            self._m_conns_active = _NULL
            self._m_conns_total = _NULL
            self._m_requests = _NULL
            self._m_shed = _NULL
            self._m_chunked = _NULL
            self._m_backpressure = _NULL
            self._m_deadline_expired = _NULL
            return
        self._m_conns_active = registry.gauge("edge_connections_active")
        self._m_conns_total = registry.counter("edge_connections_total")
        self._m_requests = registry.counter("edge_requests_total")
        self._m_shed = registry.counter("edge_shed_total")
        self._m_chunked = registry.counter("edge_responses_chunked_total")
        self._m_backpressure = registry.counter(
            "edge_backpressure_waits_total")
        self._m_deadline_expired = registry.counter(
            "edge_deadline_expired_total")


def _keeps_alive(request: HttpRequest, http11: bool) -> bool:
    tokens = request.headers.get("Connection", "").lower()
    if http11:
        return "close" not in tokens  # persistent unless asked not to
    return "keep-alive" in tokens     # 1.0: opt-in, Netscape-style


def _chunk(data: bytes) -> bytes:
    return b"%x\r\n%s\r\n" % (len(data), data)


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError, asyncio.CancelledError):
        pass
