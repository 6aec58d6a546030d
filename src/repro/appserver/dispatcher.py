"""The app-server dispatcher: pre-forked workers behind ``CgiProgram``.

:class:`AppServerDispatcher` owns a rendezvous listening socket (Unix
by default, loopback TCP with ``transport="tcp"``) and a pool of
worker processes (:mod:`repro.appserver.worker`).  Its :meth:`run`
implements the :class:`repro.cgi.gateway.CgiProgram` protocol, so the
whole web stack mounts it exactly like the in-process program or the
process-per-request :class:`~repro.cgi.process.SubprocessCgiRunner` —
the three execution models of the gateway-comparison bench differ only
in what sits behind ``gateway.install``.

Worker lifecycle:

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
  on a fresh worker when it is safe to replay (GET/HEAD); other
  in-flight requests ride their own workers and never notice.
* **drain** — :meth:`shutdown` stops handing out workers, tells each
  one to finish and exit, and reaps stragglers.

Concurrency is worker-granular: checked-out workers are exclusively
owned by one request thread (a :class:`queue.Queue` of idle workers is
the scheduler), so no frame interleaving can occur.
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

#: request methods safe to replay on a fresh worker after a crash
_REPLAYABLE = frozenset({"GET", "HEAD"})


class _Worker:
    """One live worker process and its dispatcher-side connection."""

    __slots__ = ("slot", "proc", "conn", "served", "lifetime")

    def __init__(self, slot: int, proc: subprocess.Popen,
                 conn: socket.socket, lifetime: int):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.served = 0  # requests served by this incarnation
        self.lifetime = lifetime  # ... and how many it may serve


class AppServerDispatcher:
    """Dispatches CGI requests to a pool of persistent worker processes.

    ``worker_env`` carries the application configuration the workers
    read (``REPRO_MACRO_DIR``, ``REPRO_DATABASE_<NAME>``, and friends —
    see :mod:`repro.cgi.db2www_main`).  Everything else is pool tuning.
    """

    def __init__(self, worker_env: dict[str, str], *,
                 workers: int = 4,
                 recycle_after: int = 500,
                 request_timeout: float = 30.0,
                 spawn_timeout: float = 20.0,
                 argv: Optional[list[str]] = None,
                 transport: str = "unix"):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be at least 1")
        if transport not in ("unix", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.worker_env = dict(worker_env)
        self.pool_size = workers
        self.recycle_after = recycle_after
        self.request_timeout = request_timeout
        self.spawn_timeout = spawn_timeout
        self.transport = transport
        self.argv = argv or [sys.executable, "-m",
                             "repro.appserver.worker"]
        self._dir = None
        if transport == "tcp":
            # Worker rendezvous over loopback TCP: the same frame
            # protocol, no filesystem artifact.  (Workers still spawn
            # locally; cross-host pools are the daemon's job — see
            # repro.appserver.remote.)
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.bind(("127.0.0.1", 0))
            self.socket_path = protocol.format_endpoint(
                "tcp", self._listener.getsockname())
        else:
            self._dir = tempfile.mkdtemp(prefix="repro-appserver-")
            self.socket_path = os.path.join(self._dir, "dispatch.sock")
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            self._listener.bind(self.socket_path)
        self._listener.listen(workers * 2)
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._lock = threading.Lock()       # registry + counters
        #: serialises Popen+accept+HELLO so concurrent crash
        #: replacements cannot cross-pair connections
        self._spawn_lock = threading.Lock()
        self._closed = False
        #: the thread running a planned replacement, if one is in flight
        self._recycler: Optional[threading.Thread] = None
        self._live: dict[int, _Worker] = {}
        self._slot_requests = {i: 0 for i in range(workers)}
        self._slot_recycles = {i: 0 for i in range(workers)}
        self._slot_crashes = {i: 0 for i in range(workers)}
        self._crash_retries = 0
        self._busy_timeouts = 0
        try:
            for slot in range(workers):
                # Stagger the first planned recycles across one period.
                self._idle.put(self._spawn(
                    slot, recycle_after - slot * recycle_after // workers))
        except BaseException:
            self.shutdown()
            raise

    # -- CgiProgram --------------------------------------------------------

    def run(self, request: CgiRequest) -> CgiResponse:
        deadline = getattr(request, "deadline", None)
        worker = self._checkout(deadline)
        try:
            response = self._dispatch_on(worker, request)
        except (OSError, CgiProtocolError) as exc:
            # The frame stream broke: the worker crashed (or hung past
            # the timeout) mid-request.  Replace it; other in-flight
            # requests own other workers and are unaffected.
            self._replace_crashed(worker)
            method = request.environ.request_method.upper()
            if method not in _REPLAYABLE:
                raise CgiProtocolError(
                    f"app-server worker died mid-request: {exc}") from exc
            with self._lock:
                self._crash_retries += 1
            worker = self._checkout(deadline)
            try:
                response = self._dispatch_on(worker, request)
            except (OSError, CgiProtocolError) as again:
                self._replace_crashed(worker)
                raise CgiProtocolError(
                    "app-server worker died on the replay as well: "
                    f"{again}") from again
        self._checkin(worker)
        return response

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Aggregate and per-worker counters (flat, log-friendly keys)."""
        with self._lock:
            stats = {
                "workers": len(self._live),
                "requests": sum(self._slot_requests.values()),
                "recycles": sum(self._slot_recycles.values()),
                "crashes": sum(self._slot_crashes.values()),
                "crash_retries": self._crash_retries,
                "busy_timeouts": self._busy_timeouts,
            }
            for slot in sorted(self._slot_requests):
                stats[f"worker_{slot}_requests"] = \
                    self._slot_requests[slot]
                stats[f"worker_{slot}_recycles"] = \
                    self._slot_recycles[slot]
                stats[f"worker_{slot}_crashes"] = \
                    self._slot_crashes[slot]
        return stats

    def health_check(self) -> dict[int, bool]:
        """Ping every idle worker; dead ones are replaced.

        Returns slot → alive-before-check.  Busy workers are skipped
        (their liveness is proven by the request they are serving).
        """
        results: dict[int, bool] = {}
        checked: list[_Worker] = []
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                break
            try:
                protocol.send_frame(worker.conn, protocol.FRAME_PING)
                frame = protocol.recv_frame(worker.conn)
                if frame is None or frame[0] != protocol.FRAME_PONG:
                    raise CgiProtocolError("no PONG from worker")
            except (OSError, CgiProtocolError):
                results[worker.slot] = False
                self._replace_crashed(worker)
            else:
                results[worker.slot] = True
                checked.append(worker)
        for worker in checked:
            self._idle.put(worker)
        return results

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
            self._retire(worker, graceful=True)
            collected += 1
        with self._lock:
            stragglers = list(self._live.values())
            self._live.clear()
        for worker in stragglers:
            self._kill(worker)
        self._listener.close()
        if self._dir is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            try:
                os.rmdir(self._dir)
            except OSError:
                pass

    def __enter__(self) -> "AppServerDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- internals ---------------------------------------------------------

    def _spawn(self, slot: int, lifetime: int) -> _Worker:
        with self._spawn_lock:
            return self._spawn_locked(slot, lifetime)

    def _spawn_locked(self, slot: int, lifetime: int) -> _Worker:
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
        proc = subprocess.Popen(
            self.argv, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self._listener.settimeout(self.spawn_timeout)
        try:
            conn, _ = self._listener.accept()
        except (OSError, socket.timeout) as exc:
            proc.kill()
            proc.wait()
            raise CgiProtocolError(
                f"app-server worker {slot} never connected "
                f"(within {self.spawn_timeout:.3g}s)") from exc
        if self.transport == "tcp":
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(self.request_timeout)
        frame = protocol.recv_frame(conn)
        if frame is None or frame[0] != protocol.FRAME_HELLO:
            conn.close()
            proc.kill()
            proc.wait()
            raise CgiProtocolError(
                f"app-server worker {slot} sent no HELLO")
        hello = protocol.decode_control(frame[1])
        if hello.get("worker_id") != slot:
            conn.close()
            proc.kill()
            proc.wait()
            raise CgiProtocolError(
                f"app-server worker announced slot "
                f"{hello.get('worker_id')!r}, expected {slot}")
        worker = _Worker(slot, proc, conn, lifetime)
        with self._lock:
            self._live[slot] = worker
        return worker

    def _checkout(self, deadline=None) -> _Worker:
        if self._closed:
            raise CgiProtocolError("app-server dispatcher is shut down")
        # The wait for a worker is bounded by the request's remaining
        # deadline budget: a request with 50 ms left must not sit 30 s
        # in the checkout queue doing dead work.
        timeout = self.request_timeout
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired before a worker was free")
            timeout = min(timeout, deadline.remaining())
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            with self._lock:
                self._busy_timeouts += 1
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired waiting for an "
                    "app-server worker") from None
            raise PoolExhaustedError(
                f"all {self.pool_size} app-server workers stayed busy "
                f"for {timeout:.3g}s") from None

    def _checkin(self, worker: _Worker) -> None:
        worker.served += 1
        with self._lock:
            self._slot_requests[worker.slot] += 1
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

    def _dispatch_on(self, worker: _Worker,
                     request: CgiRequest) -> CgiResponse:
        with TRACER.span("appserver.dispatch") as span:
            span.set("slot", worker.slot)
            protocol.send_frame(worker.conn, protocol.FRAME_REQUEST,
                                protocol.encode_request(request))
            frame = protocol.recv_frame(worker.conn)
            if frame is None:
                raise CgiProtocolError(
                    "worker closed the connection instead of responding")
            frame_type, payload = frame
            if frame_type != protocol.FRAME_RESPONSE:
                raise CgiProtocolError(
                    f"expected a RESPONSE frame, got type {frame_type}")
            response = protocol.decode_response(payload)
            if response.trace is not None:
                # Stitch the worker-side spans into this request's
                # trace; their ids match (the frame carried the id).
                TRACER.graft(response.trace)
            return response

    def _recycle(self, worker: _Worker) -> None:
        """Planned replacement after ``recycle_after`` requests; runs
        on its own thread, off the request path."""
        slot = worker.slot
        try:
            self._retire(worker, graceful=True)
            with self._lock:
                self._slot_recycles[slot] += 1
            self._respawn(slot)
        finally:
            with self._lock:
                self._recycler = None

    def _replace_crashed(self, worker: _Worker) -> None:
        slot = worker.slot
        self._kill(worker)
        with self._lock:
            self._slot_crashes[slot] += 1
            self._live.pop(slot, None)
        self._respawn(slot)

    def _respawn(self, slot: int) -> None:
        if self._closed:
            return
        try:
            self._idle.put(self._spawn(slot, self.recycle_after))
        except CgiProtocolError:
            # The replacement itself failed to come up; the pool runs
            # one short.  The next health_check (or crash replacement)
            # will try again — and the error is visible in `workers`.
            pass

    def _retire(self, worker: _Worker, *, graceful: bool) -> None:
        with self._lock:
            self._live.pop(worker.slot, None)
        if graceful:
            try:
                protocol.send_frame(worker.conn, protocol.FRAME_SHUTDOWN)
            except OSError:
                pass
        try:
            worker.conn.close()
        except OSError:
            pass
        try:
            worker.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            worker.proc.kill()
            worker.proc.wait()

    def _kill(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.poll() is None:
            worker.proc.kill()
        try:
            worker.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            pass
