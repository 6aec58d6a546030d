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
    crash replacement, recycling and GET/HEAD replay all stay
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
    connection).  Leasing, the exchange, replace-and-replay-once and
    health checks are the local dispatcher's, inherited from the same
    core; only opening and re-opening connections is defined here.
    Channels interleave across backends, so two ``--connect`` flags
    load-balance round-robin-ish across two pool hosts.

Trace grafting is transport-independent: the ``RESPONSE`` frame carries
the worker's span rows end-to-end (worker → daemon → edge), so one
trace id covers all three processes.  The edge and its daemons must run
the same version: the frames carry no version and nothing negotiates
one.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.appserver import protocol
from repro.appserver.dispatcher import (
    AppServerDispatcher,
    _Peer,
    _PeerDispatcher,
)
from repro.cgi.request import CgiRequest
from repro.errors import CgiProtocolError, PoolExhaustedError

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
        reader = protocol.FrameReader(conn)
        try:
            while not self._shutdown.is_set():
                frame = reader.read()
                if frame is None:
                    return
                frame_type, payload = frame
                if frame_type == protocol.FRAME_SHUTDOWN:
                    return
                if frame_type == protocol.FRAME_PING:
                    # The pool's labeled counters, this daemon's own
                    # beside the pool-wide ones.
                    stats = self.pool.labeled_stats()
                    with self._lock:
                        stats[""]["daemon_requests"] = self._requests
                        stats[""]["daemon_errors"] = self._errors
                    protocol.send_frame(conn, protocol.FRAME_PONG,
                                        protocol.encode_control(stats))
                    continue
                try:
                    if frame_type != protocol.FRAME_REQUEST:
                        raise CgiProtocolError(
                            f"unexpected frame type {frame_type}")
                    request = protocol.decode_request(payload)
                except CgiProtocolError as exc:
                    # Outside input: say why, drop this connection only.
                    protocol.send_frame(conn, protocol.FRAME_ERROR,
                                        protocol.encode_error(str(exc)))
                    return
                self._serve_request(conn, request)
        except (OSError, CgiProtocolError):
            pass  # peer went away; its requests are its problem
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _serve_request(self, conn: socket.socket,
                       request: CgiRequest) -> None:
        with self._lock:
            self._requests += 1
        try:
            response = self.pool.run(request)
        except (PoolExhaustedError, CgiProtocolError) as exc:
            # The local pool already applied its replay rule; reaching
            # here means the request is lost for real (e.g. a POST whose
            # worker died) or no worker came free.  Ship the same
            # failure across; the connection itself is fine.
            with self._lock:
                self._errors += 1
            exhausted = isinstance(exc, PoolExhaustedError)
            protocol.send_frame(
                conn, protocol.FRAME_ERROR,
                protocol.encode_error(
                    str(exc), kind="exhausted" if exhausted else "protocol",
                    retry_after=getattr(exc, "retry_after", None)))
            return
        # Forward the worker's span rows untouched; the edge-side
        # dispatcher grafts it so the trace id survives all three hops.
        protocol.send_frame(conn, protocol.FRAME_RESPONSE,
                            protocol.encode_response(
                                response, trace=response.trace))


class _Channel(_Peer):
    """One live TCP connection to a pool backend."""

    __slots__ = ("backend",)

    def __init__(self, index: int, backend: str, conn: socket.socket):
        super().__init__(index, conn,
                         (("backend", backend), ("channel", index)))
        self.backend = backend


class TcpPoolDispatcher(_PeerDispatcher):
    """Dispatch CGI requests to remote worker pools over TCP.

    ``backends`` are ``host:port`` specs; ``channels`` TCP connections
    are opened in total, interleaved across backends so checkout order
    balances the load.  Implements the ``CgiProgram`` protocol and the
    same observability surface (:meth:`stats`, :meth:`health_check`) as
    the local :class:`~repro.appserver.dispatcher.AppServerDispatcher`,
    so ``repro serve`` mounts either interchangeably.
    """

    _PEER = "channel"

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
        super().__init__(request_timeout)
        self.backends = list(backends)
        self.connect_timeout = connect_timeout
        self._channel_requests = 0
        self._reconnects = 0
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
        self.pool_size = int(self.stats().get("workers", 0))

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Remote pool counters summed across backends, plus the local
        channel counters (``channel_*`` keys)."""
        return self.labeled_stats()[""]

    def labeled_stats(self) -> dict[str, dict[str, int]]:
        """The ``appserver`` metrics source (``label="worker"``):
        :meth:`stats` under the empty label and each remote worker's
        counters under its slot — ``backend/slot`` once there is more
        than one backend.  One ``PING`` per backend."""
        merged: dict[str, dict[str, int]] = {"": {}}
        backends = dict.fromkeys(self.backends)
        for backend in backends:
            for label, bag in self._backend_stats(backend).items():
                if not isinstance(bag, dict):
                    continue
                if label and len(backends) > 1:
                    label = f"{backend}/{label}"
                into = merged.setdefault(label, {})
                for key, value in bag.items():
                    if isinstance(value, (int, float)):
                        into[key] = into.get(key, 0) + value
        totals = merged[""]
        with self._lock:
            totals["channel_requests"] = self._channel_requests
            totals["channel_reconnects"] = self._reconnects
            totals["channel_replays"] = self._replays
            totals["busy_timeouts"] = totals.get("busy_timeouts", 0) \
                + self._busy_timeouts
            totals["channels"] = len(self._live)
        return merged

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

    def _checkin(self, channel: _Channel) -> None:
        with self._lock:
            self._channel_requests += 1
        self._idle.put(channel)

    def _replace(self, channel: _Channel) -> None:
        """A channel whose frame stream broke: close, count, reconnect."""
        try:
            channel.conn.close()
        except OSError:
            pass
        with self._lock:
            self._live.pop(channel.slot, None)
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
                self._idle.put(self._open(channel.slot, backend))
                return
            except CgiProtocolError:
                continue
        # Every backend refused; the pool runs one channel short.  The
        # next health_check (or break) tries again.

    def _backend_stats(self, backend: str) -> dict:
        """One PING round-trip on a fresh connection (stats are rare):
        the daemon's pool counters, labeled as :meth:`labeled_stats`."""
        try:
            conn = protocol.connect_endpoint(
                backend, timeout=self.connect_timeout)
        except OSError:
            return {}
        try:
            conn.settimeout(self.request_timeout)
            protocol.send_frame(conn, protocol.FRAME_PING)
            frame = protocol.FrameReader(conn).read()
            if frame is None or frame[0] != protocol.FRAME_PONG:
                return {}
            return protocol.decode_control(frame[1])
        except (OSError, CgiProtocolError):
            return {}
        finally:
            conn.close()
