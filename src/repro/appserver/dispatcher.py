"""The app-server dispatchers' shared core, and the local worker pool.

:class:`_PeerDispatcher` is the one frame-protocol dispatcher: it
leases a **peer** (a connection that answers ``REQUEST`` frames) from
an idle queue, runs one exchange on it, replaces a peer whose frame
stream broke and replays the request once when its method allows,
and hands the peer back.  The wait for a peer is capped by the
request's deadline, and :meth:`~_PeerDispatcher.health_check` pings
the idle ones.  Its two subclasses differ only in what a peer *is*:

* :class:`AppServerDispatcher` (here) — a pre-forked worker process
  (:mod:`repro.appserver.worker`) that connected back over a Unix
  rendezvous socket;
* :class:`~repro.appserver.remote.TcpPoolDispatcher` — a TCP
  connection to a pool daemon on another host.

Both implement the :class:`repro.cgi.gateway.CgiProgram` protocol, so
the whole web stack mounts them exactly like the in-process program or
the process-per-request :class:`~repro.cgi.process.SubprocessCgiRunner`
— the execution models of the gateway-comparison bench differ only in
what sits behind ``gateway.install``.

Worker lifecycle (the local pool):

* **spawn** — workers are pre-forked at construction; each connects
  back over the Unix socket and announces itself with a ``HELLO``.
* **recycle** — after ``recycle_after`` requests a worker is drained
  and replaced, the classic leak hygiene of pre-fork servers.  The
  replacement runs on its own thread after the response has been
  handed back, one worker at a time; the first incarnation of slot
  ``i`` lives ``i/pool_size`` of a period less, so round-robin traffic
  does not bring every worker to the threshold together.
* **crash** — a worker dying mid-request is detected by the broken
  frame stream, replaced immediately, and the request is retried once
  on a fresh worker when its method is GET or HEAD; other in-flight
  requests ride their own workers and never notice.
* **drain** — :meth:`shutdown` stops handing out workers, tells each
  one to finish and exit, and reaps stragglers.

Concurrency is peer-granular: a checked-out peer is exclusively owned
by one request thread (a :class:`queue.Queue` of idle peers is the
scheduler), so no frame interleaving can occur.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import repro
from repro.appserver import protocol
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import (
    CgiProtocolError,
    DeadlineExceededError,
    PoolExhaustedError,
)
from repro.obs.trace import TRACER

#: Request methods replayed on a fresh peer after a broken exchange.
#: The rule keys on the method alone — every macro is reachable by
#: GET, so it does not by itself prevent a doubled write (ROADMAP 2).
_REPLAYABLE = frozenset({"GET", "HEAD"})

#: What the local pool counts per worker slot (and sums pool-wide).
_SLOT_COUNTERS = ("requests", "recycles", "crashes")


class _PeerBroken(Exception):
    """The frame stream to a peer failed mid-exchange (as opposed to a
    pool-side failure that arrived intact in an ``ERROR`` frame)."""


class _Peer:
    """What the core leases: a connection and the reader of its frames,
    its number in the pool and the attributes its
    ``appserver.dispatch`` spans carry."""

    __slots__ = ("slot", "conn", "reader", "span_attrs")

    def __init__(self, slot: int, conn: socket.socket,
                 span_attrs: tuple):
        self.slot = slot
        self.conn = conn
        self.reader = protocol.FrameReader(conn)
        self.span_attrs = span_attrs


class _PeerDispatcher:
    """Lease → exchange → (replace, replay once) → hand back.

    Subclasses supply ``_checkin(peer)`` (count the request, queue the
    peer), ``_replace(peer)`` (dispose of a broken peer, queue a fresh
    one if it can), ``stats()`` and ``shutdown()``, and keep ``_live``
    (slot → peer) current.
    """

    _PEER = "peer"      # what a peer is called in messages
    _BROKE = "broke"    # ... and what it did when its stream failed

    def __init__(self, request_timeout: float):
        self.request_timeout = request_timeout
        self._idle: "queue.Queue[_Peer]" = queue.Queue()
        self._lock = threading.Lock()       # registry + counters
        self._closed = False
        self._live: dict[int, _Peer] = {}
        self._replays = 0
        self._busy_timeouts = 0

    # -- CgiProgram --------------------------------------------------------

    def run(self, request: CgiRequest) -> CgiResponse:
        deadline = getattr(request, "deadline", None)
        peer = self._checkout(deadline)
        try:
            response = self._exchange(peer, request)
        except _PeerBroken as exc:
            # The frame stream broke: the worker crashed (or hung past
            # the timeout), the daemon or the network went away.
            # Replace the peer; other in-flight requests own other
            # peers and are unaffected.
            self._replace(peer)
            if request.environ.request_method.upper() not in _REPLAYABLE:
                raise CgiProtocolError(
                    f"app-server {self._PEER} {self._BROKE} "
                    f"mid-request: {exc}") from exc
            with self._lock:
                self._replays += 1
            peer = self._checkout(deadline)
            try:
                response = self._exchange(peer, request)
            except _PeerBroken as again:
                self._replace(peer)
                raise CgiProtocolError(
                    f"app-server {self._PEER} {self._BROKE} on the "
                    f"replay as well: {again}") from again
        self._checkin(peer)
        return response

    def health_check(self) -> dict[int, bool]:
        """Ping every idle peer; dead ones are replaced.

        Returns slot → alive-before-check.  Busy peers are skipped
        (their liveness is proven by the request they are serving).
        """
        idle: list[_Peer] = []
        while True:
            try:
                idle.append(self._idle.get_nowait())
            except queue.Empty:
                break
        # Drained first: a replacement queued below is not pinged (and
        # its slot's verdict overwritten) in the same pass.
        results: dict[int, bool] = {}
        for peer in idle:
            try:
                protocol.send_frame(peer.conn, protocol.FRAME_PING)
                frame = peer.reader.read()
                alive = frame is not None \
                    and frame[0] == protocol.FRAME_PONG
            except (OSError, CgiProtocolError):
                alive = False
            results[peer.slot] = alive
            if alive:
                self._idle.put(peer)
            else:
                self._replace(peer)
        return results

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- internals ---------------------------------------------------------

    def _checkout(self, deadline=None) -> _Peer:
        if self._closed:
            raise CgiProtocolError("app-server dispatcher is shut down")
        # The wait for a peer is bounded by the request's remaining
        # deadline budget: a request with 50 ms left must not sit 30 s
        # in the checkout queue doing dead work.
        timeout = self.request_timeout
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError(
                    f"request deadline expired before a {self._PEER} "
                    "was free")
            timeout = min(timeout, deadline.remaining())
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            with self._lock:
                self._busy_timeouts += 1
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired waiting for an "
                    f"app-server {self._PEER}") from None
            raise PoolExhaustedError(
                f"all {len(self._live)} app-server {self._PEER}s "
                f"stayed busy for {timeout:.3g}s") from None

    def _exchange(self, peer: _Peer, request: CgiRequest) -> CgiResponse:
        """One REQUEST→RESPONSE round trip on a checked-out peer.

        Transport trouble raises :class:`_PeerBroken` (replace the
        peer, maybe replay).  An ``ERROR`` frame is a pool-side
        failure that crossed a healthy stream: the peer goes back to
        the queue and the pool's own exception is re-raised as-is.
        """
        with TRACER.span("appserver.dispatch") as span:
            for key, value in peer.span_attrs:
                span.set(key, value)
            try:
                protocol.send_frame(peer.conn, protocol.FRAME_REQUEST,
                                    protocol.encode_request(request))
                frame = peer.reader.read()
            except (OSError, CgiProtocolError) as exc:
                raise _PeerBroken(str(exc)) from exc
            if frame is None:
                raise _PeerBroken(
                    "connection closed instead of responding")
            frame_type, payload = frame
            if frame_type == protocol.FRAME_ERROR:
                # Handed back before decoding: a garbled ERROR payload
                # raises too, and must not take the healthy peer along.
                self._checkin(peer)
                raise protocol.pool_error(payload)
            if frame_type != protocol.FRAME_RESPONSE:
                raise _PeerBroken(
                    f"expected a RESPONSE frame, got type {frame_type}")
            try:
                response = protocol.decode_response(payload)
                if response.trace is not None:
                    # Stitch the worker-side span rows into this
                    # request's trace, under this dispatch span.
                    TRACER.graft(response.trace)
            except CgiProtocolError as exc:
                raise _PeerBroken(str(exc)) from exc
            return response


class _Worker(_Peer):
    """One live worker process and its dispatcher-side connection."""

    __slots__ = ("proc", "served", "lifetime")

    def __init__(self, slot: int, proc: subprocess.Popen,
                 conn: socket.socket, lifetime: int):
        super().__init__(slot, conn, (("slot", slot),))
        self.proc = proc
        self.served = 0  # requests served by this incarnation
        self.lifetime = lifetime  # ... and how many it may serve


class AppServerDispatcher(_PeerDispatcher):
    """Dispatches CGI requests to a pool of persistent worker processes.

    ``worker_env`` carries the application configuration the workers
    read (``REPRO_MACRO_DIR``, ``REPRO_DATABASE_<NAME>``, and friends —
    see :mod:`repro.cgi.db2www_main`).  Everything else is pool tuning.
    """

    _PEER = "worker"
    _BROKE = "died"

    #: benchmarks/e2e/spans.py wraps ``AppServerDispatcher.__dict__
    #: ["run"]``; inherited only, the dispatch layer would read 0.0.
    run = _PeerDispatcher.run

    def __init__(self, worker_env: dict[str, str], *,
                 workers: int = 4,
                 recycle_after: int = 500,
                 request_timeout: float = 30.0,
                 spawn_timeout: float = 20.0,
                 argv: Optional[list[str]] = None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be at least 1")
        super().__init__(request_timeout)
        self.worker_env = dict(worker_env)
        self.pool_size = workers
        self.recycle_after = recycle_after
        self.spawn_timeout = spawn_timeout
        self.argv = argv or [sys.executable, "-m",
                             "repro.appserver.worker"]
        self._dir = tempfile.mkdtemp(prefix="repro-appserver-")
        self.socket_path = os.path.join(self._dir, "dispatch.sock")
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(workers * 2)
        #: serialises Popen+accept+HELLO so concurrent crash
        #: replacements cannot cross-pair connections
        self._spawn_lock = threading.Lock()
        #: the thread running a planned replacement, if one is in flight
        self._recycler: Optional[threading.Thread] = None
        #: slot -> its counters, summed over the slot's incarnations
        self._slots = {slot: dict.fromkeys(_SLOT_COUNTERS, 0)
                       for slot in range(workers)}
        try:
            for slot in range(workers):
                # Stagger the first planned recycles across one period.
                self._idle.put(self._spawn(
                    slot, recycle_after - slot * recycle_after // workers))
        except BaseException:
            self.shutdown()
            raise

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Pool-wide counters; per-slot ones are :meth:`labeled_stats`."""
        with self._lock:
            stats = {"workers": len(self._live)}
            for name in _SLOT_COUNTERS:
                stats[name] = sum(counts[name]
                                  for counts in self._slots.values())
            stats["crash_retries"] = self._replays
            stats["busy_timeouts"] = self._busy_timeouts
        return stats

    def labeled_stats(self) -> dict[str, dict[str, int]]:
        """The ``appserver`` metrics source (``label="worker"``):
        :meth:`stats` under the empty label, each slot's counters under
        the slot number."""
        with self._lock:
            slots = {str(slot): dict(counts)
                     for slot, counts in self._slots.items()}
        return {"": self.stats(), **slots}

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, *, drain_timeout: float = 5.0) -> None:
        """Drain the pool: no new checkouts, workers finish and exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            recycler = self._recycler
        if recycler is not None:
            # A planned replacement in flight settles first (it skips
            # or completes its respawn), so the count below is exact.
            recycler.join()
        with self._lock:
            remaining = len(self._live)
        # Idle workers (and busy ones as they come back) get a graceful
        # SHUTDOWN; anything that does not return in time is reaped.
        collected = 0
        while collected < remaining:
            try:
                worker = self._idle.get(timeout=drain_timeout)
            except queue.Empty:
                break
            self._retire(worker)
            collected += 1
        with self._lock:
            stragglers = list(self._live.values())
            self._live.clear()
        for worker in stragglers:
            self._kill(worker)
        self._listener.close()
        for remove, path in ((os.unlink, self.socket_path),
                             (os.rmdir, self._dir)):
            try:
                remove(path)
            except OSError:
                pass

    # -- internals ---------------------------------------------------------

    def _spawn(self, slot: int, lifetime: int) -> _Worker:
        env = dict(os.environ)
        env.update(self.worker_env)
        env["REPRO_APPSERVER_SOCKET"] = self.socket_path
        env["REPRO_APPSERVER_WORKER_ID"] = str(slot)
        # Workers must import this package regardless of how the
        # dispatcher process found it.
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src_dir + os.pathsep + existing
                                 if existing else src_dir)
        with self._spawn_lock:
            proc = subprocess.Popen(
                self.argv, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            conn = None
            try:
                self._listener.settimeout(self.spawn_timeout)
                try:
                    conn, _ = self._listener.accept()
                except OSError as exc:
                    raise CgiProtocolError(
                        f"app-server worker {slot} never connected "
                        f"(within {self.spawn_timeout:.3g}s)") from exc
                conn.settimeout(self.request_timeout)
                worker = _Worker(slot, proc, conn, lifetime)
                frame = worker.reader.read()
                if frame is None or frame[0] != protocol.FRAME_HELLO:
                    raise CgiProtocolError(
                        f"app-server worker {slot} sent no HELLO")
                announced = protocol.decode_control(frame[1]).get(
                    "worker_id")
                if announced != slot:
                    raise CgiProtocolError(
                        f"app-server worker announced slot "
                        f"{announced!r}, expected {slot}")
            except BaseException:
                if conn is not None:
                    conn.close()
                proc.kill()
                proc.wait()
                raise
        with self._lock:
            self._live[slot] = worker
        return worker

    def _checkin(self, worker: _Worker) -> None:
        worker.served += 1
        with self._lock:
            self._slots[worker.slot]["requests"] += 1
            # At most one planned replacement at a time: a worker that
            # comes due while another is being replaced keeps serving
            # and is recycled at a later check-in.
            recycle = (worker.served >= worker.lifetime
                       and not self._closed and self._recycler is None)
            if recycle:
                self._recycler = threading.Thread(
                    target=self._recycle, args=(worker,),
                    name=f"repro-recycle-{worker.slot}", daemon=True)
                self._recycler.start()
        if not recycle:
            self._idle.put(worker)

    def _recycle(self, worker: _Worker) -> None:
        """Planned replacement after ``recycle_after`` requests; runs
        on its own thread, off the request path."""
        slot = worker.slot
        try:
            self._retire(worker)
            with self._lock:
                self._slots[slot]["recycles"] += 1
            self._respawn(slot)
        finally:
            with self._lock:
                self._recycler = None

    def _replace(self, worker: _Worker) -> None:
        """A worker whose frame stream broke: kill, count, respawn."""
        slot = worker.slot
        self._kill(worker)
        with self._lock:
            self._slots[slot]["crashes"] += 1
            self._live.pop(slot, None)
        self._respawn(slot)

    def _respawn(self, slot: int) -> None:
        if self._closed:
            return
        try:
            self._idle.put(self._spawn(slot, self.recycle_after))
        except CgiProtocolError:
            # The replacement itself failed to come up; the pool runs
            # one short, and the shortfall is visible in `workers`.
            pass

    def _retire(self, worker: _Worker) -> None:
        """Graceful exit: SHUTDOWN frame, a moment to finish, reap."""
        with self._lock:
            self._live.pop(worker.slot, None)
        try:
            protocol.send_frame(worker.conn, protocol.FRAME_SHUTDOWN)
        except OSError:
            pass
        self._kill(worker, grace=2.0)

    def _kill(self, worker: _Worker, *, grace: float = 0.0) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        try:
            worker.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            worker.proc.kill()
            worker.proc.wait()
