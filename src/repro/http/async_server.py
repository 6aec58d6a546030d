"""The HTTP edge (the "Web server" of Figure 1): one asyncio event loop.

Every connection is one :class:`asyncio.Protocol` object on one event
loop in a background thread: concurrency costs an object, not a thread,
and a request one loop wake-up (bytes in, answer out) or, when it has to
wait on a thread, two — with no task, stream reader or per-read timer in
between:

* **Keep-alive and pipelining.**  HTTP/1.1 connections persist unless
  the client says ``Connection: close``; HTTP/1.0 clients opt in with
  ``Connection: Keep-Alive``, Netscape-style.  ``data_received`` appends
  to a per-connection buffer and whole requests are cut off its front;
  bytes beyond the current request (a pipelined client sends several at
  once) wait there, one request per connection is in flight at a time,
  and responses go back in request order.
* **Strict request framing.**  A body is exactly ``Content-Length``
  bytes: ambiguous lengths, oversized heads or bodies and bodies that
  end early answer 400 and close, a ``Transfer-Encoding`` request 501 —
  none of them reaches the router.
* **Chunked streaming.**  A streamed report does not cost the
  connection: an HTTP/1.1 client gets ``Transfer-Encoding: chunked``
  (each engine chunk framed as it is produced) and the connection
  survives for the next request.  HTTP/1.0 clients get a
  close-delimited stream.  Only a streaming response gets a coroutine.
* **Backpressure, both ways.**  A buffered response is one
  ``transport.write`` (plus one per large body part, written by
  reference: a cached report's rows); once a slow reader leaves 64 KiB
  of it unsent (``pause_writing``) that connection starts no further
  request until ``resume_writing``.  A streaming response waits there too while its
  engine-side producer blocks on a bounded queue — a client that stops
  reading stops the query, it does not balloon server memory.  Bytes
  pipelined behind a request in flight are read (``pause_reading``)
  only up to a fixed budget.
* **One timer per connection**, re-armed only when it fires:
  ``idle_timeout`` bounds the wait for a request to begin, ``timeout``
  each wait for the rest of it and each wait for a paused client to
  read on, nothing the time spent answering.
* **Bounded connection budget.**  Past ``max_connections`` the edge
  answers an immediate 503 and closes — shedding at the door instead
  of queueing into collapse.
* **Multi-acceptor.**  With ``reuse_port=True`` several server
  processes bind the same port via ``SO_REUSEPORT`` and the kernel
  load-balances accepts across them (``repro serve --acceptors N``).

Routing is the synchronous :class:`~repro.http.router.Router`.  In-memory
pages and scrape endpoints are answered inside ``data_received``.  A
request that can block — anything bound for the CGI gateway or a tenant
engine, and anything at all once admission control may queue it — is
submitted to a small thread pool whose done-callback posts the answer
back to the loop (:meth:`AsyncHttpServer._handoff` decides).

One kind of CGI request is *tried* on the loop first: a GET or HEAD to
an in-process, buffered DB2WWW program whose previous run needed no
thread — or only leased a connection for reads the query cache then
kept — took less than a GIL switch interval, and has had no write
anywhere in the process since (the memo, :meth:`AsyncHttpServer._learn`).
Such a page is all query-cache hits, so it is answered where it
arrives, without the hand-off.  If it is not after all (an entry was
evicted, a macro's stat TTL ran out), the step that would block raises
:class:`~repro.blocking.WouldBlock` before it runs, the attempt is
dropped without a trace, a log line or a count, and the request goes to
the thread pool as any other (``edge_loop_abandoned_total``).
Streaming generators are driven inside **one** executor thread per
response — the engine's sqlite handles have thread affinity — with
chunks handed to the event loop over a bounded queue.

Edge health is exported through the obs registry (``edge_*``) and
therefore shows up on ``/statusz`` and ``/metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.blocking import BLOCKING, WouldBlock
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import new_trace_id
from repro.overload.retryafter import retry_after_header
from repro.resilience.deadline import Deadline
from repro.sql.querycache import WriteGeneration

_MAX_HEAD = 64 * 1024
_MAX_BODY = 8 * 1024 * 1024
#: unsent response bytes past which the transport pauses its connection
_HIGH_WATER = 64 * 1024
#: pipelined bytes buffered behind an in-flight request before the edge
#: stops reading the socket
_PIPELINE_BUDGET = 64 * 1024
#: body parts at least this long get their own ``transport.write``:
#: copying one into the message would cost more than the extra send
_OWN_WRITE = 32 * 1024
#: engine chunks in flight between producer thread and event loop
_STREAM_BUFFER = 8
#: threads serving requests that block (gateway, tenants, admission)
EXECUTOR_THREADS = 8
#: CGI targets the loop remembers as worth trying (oldest dropped first)
_MEMO_TARGETS = 1024
#: the methods of a request the loop may try (the rest may write)
_TRIED_METHODS = frozenset(("GET", "HEAD"))

_DONE = object()   # stream pump: generator exhausted cleanly
_FAIL = object()   # stream pump: generator raised mid-stream


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
        self._connections: set[_Connection] = set()
        self._streams: set[asyncio.Task] = set()
        self._active = 0
        self._stopping = False  # the shutdown sweep has run
        #: target -> WriteGeneration.epoch its last run began under;
        #: read and written on the loop thread only
        self._memo: dict[str, int] = {}
        #: the loop's attempt, reused: it makes one at a time
        self._loop_attempt = _Attempt("", on_loop=True)
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
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="repro-edge")
        # create_server() listens again on the socket it is handed:
        # without backlog= here asyncio's own default of 100 wins.
        server = await loop.create_server(
            functools.partial(_Connection, self, loop),
            sock=self._listener, backlog=self.backlog)
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            self._drop_connections()
            for task in self._streams:
                task.cancel()  # its pump still closes the iterator
            if self._streams:
                await asyncio.gather(*self._streams,
                                     return_exceptions=True)
            await server.wait_closed()
            self._executor.shutdown(wait=False)

    def _drop_connections(self) -> None:
        """The shutdown sweep: abort every open connection.  One
        accepted in the same loop iteration reaches ``connection_made``
        only after this runs; it is aborted there."""
        self._stopping = True
        for connection in list(self._connections):
            connection.transport.abort()

    # -- request policy ----------------------------------------------------

    def _handoff(self, request: HttpRequest) -> Optional[str]:
        """Whether answering ``request`` can block its thread: ``None``
        if not, else the key the memo knows it by — ``""`` for a
        request the loop never tries.

        The gateway and tenant engines run macros and SQL, and an
        admission controller may park any request in its queue; those
        go to the executor so one slow query stalls one thread, not
        every connection on the loop.  Only a GET or HEAD to a program
        whose every blocking step signals first (``loop_safe``) may be
        tried on the loop: not a socket exchange with app-server
        workers, a stream, tenant traffic (auth, quotas) or anything
        under admission control.  The path is normalised first — the
        router routes on the normalised form.
        """
        router = self.router
        if router.overload is not None:
            return ""
        path = normalize_path(request.path)
        if not path.startswith(CGI_PREFIX):
            return "" if path.startswith(TENANT_PREFIX) else None
        if request.method not in _TRIED_METHODS:
            return ""
        program = router.gateway.program(
            path[len(CGI_PREFIX):].partition("/")[0])
        return request.target if getattr(program, "loop_safe", False) \
            else ""

    def _try_on_loop(self, handle, key: str) -> HttpResponse:
        """Answer a memoised target on the loop, or raise
        :class:`WouldBlock` having left nothing behind."""
        attempt, memo = self._loop_attempt, self._memo
        try:
            response = attempt.run(handle, "loop")
        except WouldBlock:
            self._m_abandoned.inc()
            del memo[key]
            raise
        if attempt.elapsed < sys.getswitchinterval():
            memo[key] = attempt.epoch
        else:
            del memo[key]
        return response

    def _learn(self, attempt: "_Attempt") -> None:
        """After a target's run on a thread: remember it as one to try
        on the loop if the next run should need no thread, else forget
        it.  That is, this run needed a thread only for reads the query
        cache then kept; it was shorter than a GIL switch interval (a
        longer page is one the interpreter would have interrupted for
        the loop anyway); and nothing in the process has written since
        it began (checked against the epoch at the next request)."""
        memo, key = self._memo, attempt.key
        if (attempt.clean and attempt.misses == attempt.stores
                and attempt.elapsed < sys.getswitchinterval()):
            if key not in memo and len(memo) >= _MEMO_TARGETS:
                del memo[next(iter(memo))]
            memo[key] = attempt.epoch
        else:
            memo.pop(key, None)

    def _guarded(self, handle, deadline, attempt=None):
        """Wrap a router call with what must run *in the executor
        thread*: the hand-off clock, the deadline check and, for a
        target the loop may try, the recording of its blocking steps.

        Under load the executor's own queue is an admission queue: a
        request can wait there longer than its whole budget.
        ``edge_handoff_wait_ms`` shows the wait, and checking the
        deadline at the moment a thread finally picks the request up
        turns wasted work into an immediate 504 — the router, admission
        queue and worker pool never see the corpse.
        """
        parsed = perf_counter()

        def run() -> HttpResponse:
            self._m_handoff.observe((perf_counter() - parsed) * 1000.0)
            if deadline is not None and deadline.expired:
                self._m_deadline_expired.inc()
                return self._refusal(504, "request deadline expired "
                                          "before processing began")
            if attempt is None:
                return handle(edge="executor")
            return attempt.run(handle, "executor")

        return run

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

    # -- metrics -----------------------------------------------------------

    def _bind_metrics(self) -> None:
        registry = self.metrics if self.metrics is not None \
            else getattr(self.router, "metrics", None)
        if registry is None:
            registry = MetricsRegistry()  # counted, just never scraped
        self._m_conns_active = registry.gauge("edge_connections_active")
        self._m_conns_total = registry.counter("edge_connections_total")
        self._m_requests = registry.counter("edge_requests_total")
        self._m_shed = registry.counter("edge_shed_total")
        self._m_chunked = registry.counter("edge_responses_chunked_total")
        self._m_backpressure = registry.counter(
            "edge_backpressure_waits_total")
        self._m_deadline_expired = registry.counter(
            "edge_deadline_expired_total")
        self._m_handoff = registry.histogram("edge_handoff_wait_ms")
        self._m_abandoned = registry.counter("edge_loop_abandoned_total")


class _Attempt:
    """One run of a target the loop may try, as its blocking steps see
    it (it is ``BLOCKING.attempt`` meanwhile; see :mod:`repro.blocking`).

    On the loop the first step that would block raises
    :class:`WouldBlock`.  On an executor thread the steps are only noted
    for :meth:`AsyncHttpServer._learn`.
    """

    __slots__ = ("key", "on_loop", "hits", "stores", "misses", "clean",
                 "epoch", "elapsed")

    def __init__(self, key: str, *, on_loop: bool = False):
        self.key = key
        self.on_loop = on_loop
        self.hits: list = []   # caches (or reused pages) owed hits,
        #                        counted if the run returns
        self.stores = 0        # results the query cache kept
        self.misses = 0
        self.clean = True      # no step but misses and the lease they need
        self.epoch = 0         # WriteGeneration.epoch when run began
        self.elapsed = float("inf")

    def block(self, step: str) -> None:
        if self.on_loop:
            raise WouldBlock(step)
        if step == "miss":
            self.misses += 1
        elif step != "connect" or not self.misses:
            self.clean = False

    def run(self, handle, edge: str) -> HttpResponse:
        """``handle`` watched by this attempt; the query-cache hits it
        defers are counted only if it returns."""
        self.epoch = WriteGeneration.epoch
        self.hits = []
        BLOCKING.attempt = self
        start = perf_counter()
        try:
            response = handle(edge=edge)
        finally:
            BLOCKING.attempt = None
        self.elapsed = perf_counter() - start
        for cache in self.hits:
            cache.count_hit()
        return response


class _Connection(asyncio.Protocol):
    """One client connection: bytes in, whole requests cut off the
    buffer, one in flight at a time, responses out in request order."""

    def __init__(self, server: AsyncHttpServer,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.loop = loop
        self.transport: Optional[asyncio.Transport] = None
        self.remote_addr = "127.0.0.1"
        self.buffer = b""
        self.need = 0            # bytes the request being received needs
        self.eof = False         # the client half-closed
        self.busy = False        # a request is with the executor / streaming
        self.write_paused = False
        self.read_paused = False
        self.served = 0
        self.since = 0.0         # loop time of the last read or answer
        self.timer: Optional[asyncio.TimerHandle] = None
        self.reply = (False, False)  # (http11, keep_alive) of that request
        self.recording: Optional[_Attempt] = None  # ...and its run, if tried
        self.drained: Optional[asyncio.Future] = None  # stream's drain()

    # -- transport callbacks -----------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        server = self.server
        self.transport = transport
        if server._stopping:
            transport.abort()  # accepted after the shutdown sweep
            return
        server._m_conns_total.inc()
        if server._active >= server.max_connections:
            server._m_shed.inc()
            response = server._refusal(
                503, "connection budget exhausted; retry shortly")
            controller = server.router.overload
            hint = controller.retry_after_hint() \
                if controller is not None else None
            response.headers.set("Retry-After", retry_after_header(hint))
            self._send(response, keep_alive=False)
            return
        server._connections.add(self)
        server._active += 1
        server._m_conns_active.set(server._active)
        peername = transport.get_extra_info("peername")
        if peername:
            self.remote_addr = peername[0]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Without this, pipelined sub-MSS responses sit in the
            # kernel behind Nagle waiting out the peer's delayed ACK —
            # a fixed ~40 ms stall per burst.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        transport.set_write_buffer_limits(high=_HIGH_WATER)
        self.since = self.loop.time()
        self._on_timer()  # arms it

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.timer is not None:
            self.timer.cancel()
        if self.drained is not None and not self.drained.done():
            self.drained.set_exception(
                ConnectionResetError("client went away mid-stream"))
        server = self.server
        if self in server._connections:  # a shed connection never was
            server._connections.discard(self)
            server._active -= 1
            server._m_conns_active.set(server._active)

    def data_received(self, data: bytes) -> None:
        self.since = self.loop.time()
        self.buffer = self.buffer + data if self.buffer else data
        if not (self.busy or self.write_paused):
            self._advance()
        elif len(self.buffer) > _PIPELINE_BUDGET and not self.read_paused:
            self.read_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        self._advance()
        return True  # a half-closed client still gets its answers

    def pause_writing(self) -> None:
        """The client is more than ``_HIGH_WATER`` bytes behind."""
        self.write_paused = True
        self.since = self.loop.time()
        self.server._m_backpressure.inc()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.since = self.loop.time()
        if self.drained is not None and not self.drained.done():
            self.drained.set_result(None)
        self._advance()

    def _on_timer(self) -> None:
        """The one timer: re-armed here, never on the request path."""
        server, now = self.server, self.loop.time()
        # Never sleep past the shorter limit: whatever the connection
        # is waiting for by then, its limit cannot have passed unseen.
        when = now + min(server.idle_timeout, server.timeout)
        if self.write_paused:
            # The client stopped reading what it was sent; each pause
            # or resume starts the clock over, so a slow reader that
            # keeps reading is never cut.
            limit = self.since + server.timeout
        elif not self.busy:
            # (no limit at all while a request is being answered)
            limit = self.since + (server.timeout if self.buffer
                                  else server.idle_timeout)
        else:
            limit = None
        if limit is not None:
            if limit <= now:
                # Unsent bytes (a response the client never reads, a
                # closing one included) must not pin the slot: abort.
                self.transport.abort()
                return
            when = min(when, limit)
        self.timer = self.loop.call_at(when, self._on_timer)

    # -- request reading ---------------------------------------------------

    def _cut(self) -> Optional[bytes]:
        """One whole request off the front of the buffer, else ``None``.

        Framing violations (oversized head, ambiguous Content-Length,
        oversized body, a body cut short by EOF) raise
        :class:`BadRequestError` and a ``Transfer-Encoding`` request
        raises its 501 — the caller refuses and closes; a half-read
        request never reaches the router.
        """
        data = self.buffer
        if len(data) < self.need and not self.eof:
            return None  # inside a body whose head already passed
        end, gap = data.find(b"\r\n\r\n"), 4
        if end < 0:
            end, gap = data.find(b"\n\n"), 2
        if end < 0 and len(data) <= _MAX_HEAD:
            return None
        if end < 0 or end > _MAX_HEAD:
            raise BadRequestError(
                f"request head exceeds {_MAX_HEAD} bytes")
        content_length = content_length_of(data[:end])
        if content_length > _MAX_BODY:
            raise BadRequestError(
                f"declared body of {content_length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit")
        self.need = end + gap + content_length
        if len(data) < self.need:
            if self.eof:
                raise BadRequestError(
                    f"request body ended after {len(data) - end - gap} "
                    f"of {content_length} declared bytes")
            return None
        raw, self.buffer, self.need = \
            data[:self.need], data[self.need:], 0
        return raw

    def _advance(self) -> None:
        """Answer buffered requests until one is in flight, the client
        must catch up, or no whole request is left."""
        closing = self.transport.is_closing  # by us, or lost
        while not (self.busy or self.write_paused or closing()):
            try:
                raw = self._cut()
            except HttpError as exc:
                # Framing the edge cannot trust poisons everything
                # pipelined behind it: refuse and drop the connection.
                self._send(self.server._refusal(exc.status, str(exc)),
                           keep_alive=False)
                return
            if raw is None:
                if self.eof:
                    self.transport.close()
                break
            self._begin(raw)
        if self.read_paused and not closing() and (
                len(self.buffer) <= _PIPELINE_BUDGET
                or not (self.busy or self.write_paused)):
            self.read_paused = False
            self.transport.resume_reading()

    def _begin(self, raw: bytes) -> None:
        server = self.server
        server._m_requests.inc()
        self.served += 1
        try:
            request = HttpRequest.parse(raw)
        except BadRequestError as exc:
            self._send(server._refusal(exc.status, str(exc)),
                       keep_alive=False)
            return
        http11 = request.version == "HTTP/1.1"
        keep_alive = _keeps_alive(request, http11) \
            and self.served < server.keep_alive_max
        trace_id = new_trace_id() if server.router.tracer.enabled else ""
        deadline = Deadline.after(server.request_deadline) \
            if server.request_deadline else None
        handle = functools.partial(server.router.handle, request,
                                   remote_addr=self.remote_addr,
                                   trace_id=trace_id, deadline=deadline,
                                   edge="loop")
        key = server._handoff(request)
        if key is None:
            self._answer(handle, http11, keep_alive)
            return
        if key and server._memo.get(key) == WriteGeneration.epoch:
            try:
                self._answer(functools.partial(server._try_on_loop, handle,
                                               key), http11, keep_alive)
                return
            except WouldBlock:
                pass  # to a thread after all, as if never tried
        self.busy = True
        self.reply = (http11, keep_alive)
        self.recording = _Attempt(key) if key else None
        server._executor.submit(
            server._guarded(handle, deadline, self.recording)) \
            .add_done_callback(self._hand_back)

    def _hand_back(self, future: Future) -> None:
        """Executor thread: post the finished request to the loop."""
        try:
            self.loop.call_soon_threadsafe(self._resume, future)
        except RuntimeError:
            pass  # the loop shut down while the request ran

    def _resume(self, future: Future) -> None:
        self.busy = False
        self.since = self.loop.time()
        if self.recording is not None:
            self.server._learn(self.recording)
            self.recording = None
        self._answer(future.result, *self.reply)
        self._advance()

    # -- response writing --------------------------------------------------

    def _answer(self, produce: Callable[[], HttpResponse], http11: bool,
                keep_alive: bool) -> None:
        """Write what ``produce`` returns: the router call itself
        in-loop, the finished future's ``result`` after a hand-off.  A
        loop attempt's :class:`WouldBlock` passes through, unanswered."""
        try:
            response = produce()
        except BadRequestError as exc:
            response = self.server._refusal(exc.status, str(exc))
            keep_alive = False
        except Exception as exc:
            # A router bug costs this connection, not the server.
            self.loop.call_exception_handler({
                "message": "router raised; closing the connection",
                "exception": exc, "transport": self.transport})
            self.transport.close()
            return
        if http11:
            # Answer in the client's dialect: an HTTP/1.1 request gets
            # an HTTP/1.1 status line (clients gate pipelining and
            # default keep-alive on the response version).
            response.version = "HTTP/1.1"
        if response.head:
            self._send_head(response, http11, keep_alive)
        elif response.streaming:
            # Even for a client already gone: only the pump closes the
            # iterator on the thread that owns its cursors.
            self.busy = True
            task = self.loop.create_task(
                self._stream(response, http11, keep_alive))
            self.server._streams.add(task)
            task.add_done_callback(self.server._streams.discard)
        elif not self.transport.is_closing():
            self._send(response, keep_alive=keep_alive)

    def _send(self, response: HttpResponse, *, keep_alive: bool) -> None:
        """Write a buffered response: runs of small parts joined into one
        ``transport.write`` (a ``report_hot`` page is one), a part of
        :data:`_OWN_WRITE` bytes or more (a large report's rows) written
        on its own, by reference, never copied into a message string."""
        response.headers.set("Connection",
                             "Keep-Alive" if keep_alive else "close")
        write = self.transport.write
        run: list[bytes] = []
        for part in response.wire_parts():
            if len(part) < _OWN_WRITE:
                run.append(part)
                continue
            if run:
                write(b"".join(run))
                run = []
            write(part)
        if run:
            write(b"".join(run))
        if not keep_alive:
            self.transport.close()  # once what is written is flushed

    def _send_head(self, response: HttpResponse, http11: bool,
                   keep_alive: bool) -> None:
        """The answer to a HEAD: the head its GET gets.  A GET that
        streams (no ``Content-Length``) is chunked to an HTTP/1.1
        client and close-delimited to an HTTP/1.0 one; so is its head."""
        if "Content-Length" not in response.headers:
            if http11:
                response.headers.set("Transfer-Encoding", "chunked")
            else:
                keep_alive = False
        if not self.transport.is_closing():
            self._send(response, keep_alive=keep_alive)

    async def _write(self, data: bytes) -> None:
        """A streaming write: past the high-water mark it suspends this
        response (and only this one) until the client catches up."""
        if self.transport.is_closing():
            raise ConnectionResetError("client went away mid-stream")
        self.transport.write(data)
        if self.write_paused:
            self.drained = self.loop.create_future()
            await self.drained

    async def _stream(self, response: HttpResponse, http11: bool,
                      keep_alive: bool) -> None:
        """Send a streaming response, then serve on or close."""
        assert response.body_iter is not None
        serve_on = False
        try:
            if http11:
                # Chunked framing: the stream does not cost the
                # connection.
                self.server._m_chunked.inc()
                serve_on = await self._send_chunked(
                    response, keep_alive) and keep_alive
            else:
                await self._send_close_delimited(response)
        finally:
            if not serve_on:
                self.transport.close()
        self.busy = False
        self.since = self.loop.time()
        self._advance()

    async def _send_close_delimited(self, response: HttpResponse) -> None:
        """HTTP/1.0 streaming: the close is the framing."""
        await self._pump(response.body_iter, chunked=False,
                         preamble=response.serialize_head() + response.body)

    async def _send_chunked(self, response: HttpResponse,
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
        if response.body:
            # The buffered prefix (page header emitted before the first
            # row) rides as the first chunk.
            head += _chunk(response.body)
        ok = await self._pump(response.body_iter, chunked=True,
                              preamble=head)
        if ok and not self.transport.is_closing():
            self.transport.write(b"0\r\n\r\n")
        return ok

    async def _pump(self, body_iter: Iterator[bytes], *, chunked: bool,
                    preamble: bytes) -> bool:
        """Send ``preamble``, then drive a synchronous body generator
        from one executor thread.

        The generator touches sqlite cursors with thread affinity, so
        every ``__next__`` must run in the same thread: one producer
        thread iterates it to completion, handing chunks to this
        coroutine over a bounded queue (the engine stalls when the
        client does).  The iterator's ``close`` runs in that thread no
        matter what — streamed transactions settle their brackets even
        when the client vanishes mid-page.
        """
        loop = self.loop
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

        producer = loop.run_in_executor(self.server._executor, produce)
        ok = True
        try:
            await self._write(preamble)
            while True:
                item = await handoff.get()
                if item is _DONE:
                    break
                if item is _FAIL:
                    ok = False
                    break
                await self._write(_chunk(item) if chunked else item)
        except (ConnectionError, OSError):
            ok = False
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


def _keeps_alive(request: HttpRequest, http11: bool) -> bool:
    tokens = request.headers.get("Connection", "").lower()
    if http11:
        return "close" not in tokens  # persistent unless asked not to
    return "keep-alive" in tokens     # 1.0: opt-in, Netscape-style


def _chunk(data: bytes) -> bytes:
    return b"%x\r\n%s\r\n" % (len(data), data)

