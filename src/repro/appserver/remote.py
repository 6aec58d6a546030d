"""TCP app-server dispatch: worker pools on other hosts.

The paper's CGI gateway and PR 3's pre-forked pool both live on the web
server's machine.  This module completes the tier separation ("Complete
Separation of the 3 Tiers — Divide and Conquer"): the worker pool moves
behind a TCP endpoint, and the edge balances requests across any number
of such pools.

Two halves, both speaking the exact frame protocol of
:mod:`repro.appserver.protocol`:

:class:`WorkerPoolDaemon`
    ``repro serve --listen host:port`` — hosts a local
    :class:`~repro.appserver.dispatcher.AppServerDispatcher` (workers,
    crash replacement, recycling, idempotent-only replay all stay
    pool-side, where the worker processes are) and serves ``REQUEST``
    frames from any number of inbound dispatcher connections.  A
    pool-side failure that the local dispatcher would *raise* (worker
    died on a non-replayable request, pool exhausted) crosses the wire
    as an ``ERROR`` frame so the remote caller re-raises the same
    exception type — remote dispatch is behaviourally identical to
    local dispatch.

:class:`TcpPoolDispatcher`
    ``repro serve --gateway appserver --connect host:port`` — a
    :class:`~repro.cgi.gateway.CgiProgram` whose ``run`` sends the
    request to a remote pool over a checked-out **channel** (one TCP
    connection; a queue of channels is the scheduler, exactly like the
    local dispatcher's worker queue).  Channels interleave across
    backends, so two ``--connect`` flags load-balance round-robin-ish
    across two pool hosts.  A channel that breaks mid-exchange is
    replaced and the request replayed once — but only when it is safe
    (GET/HEAD), the same idempotent-only rule as the local pool.

Trace grafting is transport-independent: the ``RESPONSE`` frame carries
the worker's exported span tree end-to-end (worker → daemon → edge), so
one trace id covers all three processes.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Optional

from repro.appserver import protocol
from repro.appserver.dispatcher import AppServerDispatcher
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import (
    CgiProtocolError,
    DeadlineExceededError,
    PoolExhaustedError,
)
from repro.obs.trace import TRACER
from repro.overload.retryafter import clamp_retry_hint

#: request methods safe to replay on a fresh channel after a break
_REPLAYABLE = frozenset({"GET", "HEAD"})


class _ChannelBroken(Exception):
    """The TCP channel itself failed mid-exchange (as opposed to a
    pool-side error that arrived intact over a healthy channel)."""


class WorkerPoolDaemon:
    """Serve a local worker pool to remote dispatchers over TCP.

    One handler thread per inbound connection; concurrency across
    connections is bounded by the pool itself (a busy pool makes
    ``run`` block, and past ``request_timeout`` the caller gets an
    ``ERROR`` frame carrying :class:`PoolExhaustedError`).
    """

    def __init__(self, worker_env: dict[str, str], *,
                 workers: int = 4,
                 host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 32,
                 recycle_after: int = 500,
                 request_timeout: float = 30.0,
                 dispatcher: Optional[AppServerDispatcher] = None):
        self.pool = dispatcher or AppServerDispatcher(
            worker_env, workers=workers, recycle_after=recycle_after,
            request_timeout=request_timeout)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.host, self.port = self._listener.getsockname()
        self._shutdown = threading.Event()
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._requests = 0
        self._errors = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-pool-daemon",
            daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        """The ``host:port`` spec remote dispatchers connect to."""
        return protocol.format_endpoint("tcp", (self.host, self.port))

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        try:
            # close() alone never wakes a thread blocked in accept() on
            # Linux; shutting the socket down makes accept() raise now.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._thread.join(timeout=5.0)
        self.pool.shutdown()

    def __enter__(self) -> "WorkerPoolDaemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- internals ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while not self._shutdown.is_set():
                frame = protocol.recv_frame(conn)
                if frame is None:
                    return
                frame_type, payload = frame
                if frame_type == protocol.FRAME_SHUTDOWN:
                    return
                if frame_type == protocol.FRAME_PING:
                    stats = dict(self.pool.stats())
                    with self._lock:
                        stats["daemon_requests"] = self._requests
                        stats["daemon_errors"] = self._errors
                    protocol.send_frame(conn, protocol.FRAME_PONG,
                                        protocol.encode_control(stats))
                    continue
                if frame_type != protocol.FRAME_REQUEST:
                    protocol.send_frame(
                        conn, protocol.FRAME_ERROR,
                        protocol.encode_error(
                            f"unexpected frame type {frame_type}"))
                    return
                self._serve_request(conn, payload)
        except (OSError, CgiProtocolError):
            pass  # peer went away; its requests are its problem
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _serve_request(self, conn: socket.socket, payload: bytes) -> None:
        request = protocol.decode_request(payload)
        with self._lock:
            self._requests += 1
        try:
            response = self.pool.run(request)
        except PoolExhaustedError as exc:
            with self._lock:
                self._errors += 1
            protocol.send_frame(
                conn, protocol.FRAME_ERROR,
                protocol.encode_error(
                    str(exc), kind="exhausted",
                    retry_after=getattr(exc, "retry_after", None)))
            return
        except CgiProtocolError as exc:
            # The local pool already applied its idempotent-only replay;
            # reaching here means the request is lost for real (e.g. a
            # POST whose worker died).  Ship the same failure across.
            with self._lock:
                self._errors += 1
            protocol.send_frame(conn, protocol.FRAME_ERROR,
                                protocol.encode_error(str(exc)))
            return
        # Forward the worker's span tree untouched; the edge-side
        # dispatcher grafts it so the trace id survives all three hops.
        protocol.send_frame(conn, protocol.FRAME_RESPONSE,
                            protocol.encode_response(
                                response, trace=response.trace))


class _Channel:
    """One live TCP connection to a pool backend."""

    __slots__ = ("index", "backend", "conn", "served")

    def __init__(self, index: int, backend: str, conn: socket.socket):
        self.index = index
        self.backend = backend
        self.conn = conn
        self.served = 0


class TcpPoolDispatcher:
    """Dispatch CGI requests to remote worker pools over TCP.

    ``backends`` are ``host:port`` specs; ``channels`` TCP connections
    are opened in total, interleaved across backends so checkout order
    balances the load.  Implements the ``CgiProgram`` protocol and the
    same observability surface (:meth:`stats`, :meth:`health_check`) as
    the local :class:`~repro.appserver.dispatcher.AppServerDispatcher`,
    so ``repro serve`` mounts either interchangeably.
    """

    def __init__(self, backends: list[str] | str, *,
                 channels: int = 4,
                 request_timeout: float = 30.0,
                 connect_timeout: float = 10.0):
        if isinstance(backends, str):
            backends = [backends]
        if not backends:
            raise ValueError("at least one backend endpoint is required")
        if channels < 1:
            raise ValueError("channels must be at least 1")
        self.backends = list(backends)
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self._idle: "queue.Queue[_Channel]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._live: dict[int, _Channel] = {}
        self._channel_requests = 0
        self._reconnects = 0
        self._replays = 0
        self._busy_timeouts = 0
        try:
            for index in range(channels):
                backend = self.backends[index % len(self.backends)]
                self._idle.put(self._open(index, backend))
        except BaseException:
            self.shutdown()
            raise
        #: total remote worker processes behind this dispatcher, summed
        #: across distinct backends (parity with the local pool's
        #: ``pool_size``).
        self.pool_size = self._remote_pool_size()

    # -- CgiProgram --------------------------------------------------------

    def run(self, request: CgiRequest) -> CgiResponse:
        deadline = getattr(request, "deadline", None)
        channel = self._checkout(deadline)
        try:
            response = self._exchange(channel, request)
        except _ChannelBroken as exc:
            # The channel broke mid-exchange: the daemon (or the network
            # between us) went away.  Replace the channel; replay only
            # when the request cannot repeat a side effect.
            self._replace(channel)
            method = request.environ.request_method.upper()
            if method not in _REPLAYABLE:
                raise CgiProtocolError(
                    f"app-server channel to {channel.backend} broke "
                    f"mid-request: {exc}") from exc
            with self._lock:
                self._replays += 1
            channel = self._checkout(deadline)
            try:
                response = self._exchange(channel, request)
            except _ChannelBroken as again:
                self._replace(channel)
                raise CgiProtocolError(
                    "app-server channel broke on the replay as well: "
                    f"{again}") from again
            except BaseException:
                self._checkin(channel)
                raise
        except BaseException:
            # A pool-side failure (ERROR frame) travelled over a
            # perfectly healthy channel: re-raise it, keep the channel.
            self._checkin(channel)
            raise
        self._checkin(channel)
        return response

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Remote pool counters merged key-wise across backends, plus
        the local channel counters (``channel_*`` keys)."""
        merged: dict[str, int] = {}
        for backend in self.backends:
            for key, value in self._backend_stats(backend).items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        with self._lock:
            merged["channel_requests"] = self._channel_requests
            merged["channel_reconnects"] = self._reconnects
            merged["channel_replays"] = self._replays
            merged["busy_timeouts"] = merged.get("busy_timeouts", 0) \
                + self._busy_timeouts
            merged["channels"] = len(self._live)
        return merged

    def health_check(self) -> dict[int, bool]:
        """Ping every idle channel; dead ones are replaced."""
        results: dict[int, bool] = {}
        checked: list[_Channel] = []
        while True:
            try:
                channel = self._idle.get_nowait()
            except queue.Empty:
                break
            try:
                protocol.send_frame(channel.conn, protocol.FRAME_PING)
                frame = protocol.recv_frame(channel.conn)
                if frame is None or frame[0] != protocol.FRAME_PONG:
                    raise CgiProtocolError("no PONG from pool daemon")
            except (OSError, CgiProtocolError):
                results[channel.index] = False
                self._replace(channel)
            else:
                results[channel.index] = True
                checked.append(channel)
        for channel in checked:
            self._idle.put(channel)
        return results

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channels = list(self._live.values())
            self._live.clear()
        for channel in channels:
            try:
                protocol.send_frame(channel.conn, protocol.FRAME_SHUTDOWN)
            except OSError:
                pass
            try:
                channel.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "TcpPoolDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- internals ---------------------------------------------------------

    def _open(self, index: int, backend: str) -> _Channel:
        try:
            conn = protocol.connect_endpoint(
                backend, timeout=self.connect_timeout)
        except OSError as exc:
            raise CgiProtocolError(
                f"cannot reach app-server pool at {backend}: "
                f"{exc}") from exc
        conn.settimeout(self.request_timeout)
        channel = _Channel(index, backend, conn)
        with self._lock:
            self._live[index] = channel
        return channel

    def _checkout(self, deadline=None) -> _Channel:
        if self._closed:
            raise CgiProtocolError(
                "app-server TCP dispatcher is shut down")
        # Same deadline-capped wait as the local pool: spending a spent
        # budget queueing for a channel is dead work.
        timeout = self.request_timeout
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired before a channel was free")
            timeout = min(timeout, deadline.remaining())
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            with self._lock:
                self._busy_timeouts += 1
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired waiting for an "
                    "app-server channel") from None
            raise PoolExhaustedError(
                f"all channels to {', '.join(self.backends)} stayed "
                f"busy for {timeout:.3g}s") from None

    def _checkin(self, channel: _Channel) -> None:
        channel.served += 1
        with self._lock:
            self._channel_requests += 1
        self._idle.put(channel)

    def _exchange(self, channel: _Channel,
                  request: CgiRequest) -> CgiResponse:
        """One REQUEST→RESPONSE round trip on a checked-out channel.

        Transport trouble raises :class:`_ChannelBroken` (replace the
        channel, maybe replay); an ``ERROR`` frame re-raises the
        pool-side exception as-is — the channel stays healthy.
        """
        with TRACER.span("appserver.dispatch") as span:
            span.set("backend", channel.backend)
            span.set("channel", channel.index)
            try:
                protocol.send_frame(channel.conn, protocol.FRAME_REQUEST,
                                    protocol.encode_request(request))
                frame = protocol.recv_frame(channel.conn)
            except (OSError, CgiProtocolError) as exc:
                raise _ChannelBroken(str(exc)) from exc
            if frame is None:
                raise _ChannelBroken(
                    "pool daemon closed the channel instead of "
                    "responding")
            frame_type, payload = frame
            if frame_type == protocol.FRAME_ERROR:
                raise _pool_error(payload)
            if frame_type != protocol.FRAME_RESPONSE:
                raise _ChannelBroken(
                    f"expected a RESPONSE frame, got type {frame_type}")
            try:
                response = protocol.decode_response(payload)
            except CgiProtocolError as exc:
                raise _ChannelBroken(str(exc)) from exc
            if response.trace is not None:
                TRACER.graft(response.trace)
            return response

    def _replace(self, channel: _Channel) -> None:
        try:
            channel.conn.close()
        except OSError:
            pass
        with self._lock:
            self._live.pop(channel.index, None)
            self._reconnects += 1
            if self._closed:
                return
        # Prefer the channel's own backend; fall back to the others so
        # one dead pool host degrades capacity instead of pinning dead
        # channels.
        order = [channel.backend] + [b for b in self.backends
                                     if b != channel.backend]
        for backend in order:
            try:
                self._idle.put(self._open(channel.index, backend))
                return
            except CgiProtocolError:
                continue
        # Every backend refused; the pool runs one channel short.  The
        # next health_check (or break) tries again.

    def _backend_stats(self, backend: str) -> dict:
        """One PING round-trip on a fresh connection (stats are rare)."""
        try:
            conn = protocol.connect_endpoint(
                backend, timeout=self.connect_timeout)
        except OSError:
            return {}
        try:
            conn.settimeout(self.request_timeout)
            protocol.send_frame(conn, protocol.FRAME_PING)
            frame = protocol.recv_frame(conn)
            if frame is None or frame[0] != protocol.FRAME_PONG:
                return {}
            return protocol.decode_control(frame[1])
        except (OSError, CgiProtocolError):
            return {}
        finally:
            conn.close()

    def _remote_pool_size(self) -> int:
        total = 0
        for backend in sorted(set(self.backends)):
            stats = self._backend_stats(backend)
            total += int(stats.get("workers", 0) or 0)
        return total


def _pool_error(payload: bytes) -> Exception:
    """Rebuild the pool-side exception an ``ERROR`` frame carries."""
    fields = protocol.decode_control(payload)
    message = str(fields.get("error", "unknown pool-side failure"))
    if str(fields.get("kind", "protocol")) == "exhausted":
        hint = fields.get("retry_after")
        return PoolExhaustedError(
            message, retry_after=clamp_retry_hint(
                float(hint) if hint is not None else None))
    return CgiProtocolError(message)
